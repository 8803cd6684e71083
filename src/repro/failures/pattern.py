"""Failure patterns (adversaries) for synchronous message-passing systems.

Section 3 of the paper defines a *failure pattern* as a pair ``(N, F)`` where
``N`` is the set of nonfaulty agents and ``F(m, i, j)`` states whether the
message sent by agent ``i`` to agent ``j`` in round ``m + 1`` is delivered.

A failure pattern here is represented *extensionally* by the sets of blocked
(round, sender, receiver) triples, together with the set of faulty agents.
This keeps patterns hashable, comparable, and easy to enumerate/mutate when
constructing the adversarial runs used by the optimality arguments.

Every blocked triple is *charged* to a faulty agent, and the charge is part of
the representation:

* :attr:`FailurePattern.omissions` — **sending omissions**: the sender failed
  to send, so the sender must be faulty.  This is the paper's ``SO(t)`` model
  (Section 3) and was historically the only kind of event.
* :attr:`FailurePattern.receive_omissions` — **receive omissions**: the
  receiver failed to listen, so the receiver must be faulty.  These events
  open the receive-omission and general-omission failure models
  (:mod:`repro.failures.models`); a pattern with an empty
  ``receive_omissions`` set behaves exactly as before.

The engine only consumes the union (:meth:`FailurePattern.delivered`); the
split matters to the failure models, which restrict who may be charged.

Round/time convention
---------------------
We follow the paper: the global state at time ``m`` evolves to time ``m + 1``
through *round* ``m + 1``.  A blocked triple ``(m, i, j)`` means the message
sent by ``i`` to ``j`` in round ``m + 1`` (i.e. during the transition from time
``m`` to time ``m + 1``) is replaced by ``⊥``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from ..core.agents import complement, validate_agent_set
from ..core.errors import ConfigurationError, FailureModelError
from ..core.types import AgentId

#: A blocked-message triple ``(round_index, sender, receiver)``; ``round_index``
#: is the *time* at which the round starts (round ``round_index + 1`` in the
#: paper's 1-based round numbering).
Omission = Tuple[int, AgentId, AgentId]


@dataclass(frozen=True)
class FailurePattern:
    """A concrete adversary: which agents are faulty and which messages are lost.

    Attributes
    ----------
    n:
        The number of agents in the system.
    faulty:
        The set of faulty agents (``Agt - N`` in the paper).
    omissions:
        The set of blocked ``(round_index, sender, receiver)`` triples charged
        to the *sender* (sending omissions).  Only faulty senders may appear
        here; this is validated on construction.
    receive_omissions:
        The set of blocked ``(round_index, sender, receiver)`` triples charged
        to the *receiver* (receive omissions).  Only faulty receivers may
        appear here; this is validated on construction.
    """

    n: int
    faulty: FrozenSet[AgentId] = frozenset()
    omissions: FrozenSet[Omission] = frozenset()
    receive_omissions: FrozenSet[Omission] = frozenset()

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"number of agents must be positive, got {self.n}")
        object.__setattr__(self, "faulty", validate_agent_set(self.faulty, self.n))
        omissions = frozenset(self.omissions)
        for (round_index, sender, receiver) in omissions:
            self._check_triple(round_index, sender, receiver)
            if sender not in self.faulty:
                raise FailureModelError(
                    f"sending omission {(round_index, sender, receiver)}: sender {sender} "
                    "is not faulty; sending omissions are charged to faulty senders"
                )
        object.__setattr__(self, "omissions", omissions)
        receive_omissions = frozenset(self.receive_omissions)
        for (round_index, sender, receiver) in receive_omissions:
            self._check_triple(round_index, sender, receiver)
            if receiver not in self.faulty:
                raise FailureModelError(
                    f"receive omission {(round_index, sender, receiver)}: receiver {receiver} "
                    "is not faulty; receive omissions are charged to faulty receivers"
                )
        object.__setattr__(self, "receive_omissions", receive_omissions)

    def _check_triple(self, round_index: int, sender: AgentId, receiver: AgentId) -> None:
        if round_index < 0:
            raise FailureModelError(f"negative round index in omission {(round_index, sender, receiver)}")
        if not (0 <= sender < self.n and 0 <= receiver < self.n):
            raise FailureModelError(
                f"omission {(round_index, sender, receiver)} refers to agents outside 0..{self.n - 1}"
            )

    # ------------------------------------------------------------------ basic queries

    def __reduce__(self):
        # Serialize through sorted tuples: frozenset iteration order is not
        # stable across pickle round trips, and equal patterns must pickle to
        # identical bytes (the executor-equivalence guarantee of repro.api).
        return (self.__class__,
                (self.n, tuple(sorted(self.faulty)), tuple(sorted(self.omissions)),
                 tuple(sorted(self.receive_omissions))))

    def __store_token__(self) -> str:
        # One canonical string for the artifact-store key scheme: the repr of
        # the sorted tuples the pattern pickles through.  Tokenising the three
        # frozensets generically costs dozens of recursive calls per pattern,
        # and system keys cover thousands of patterns.
        return repr(self.__reduce__()[1])

    def sort_key(self) -> tuple:
        """A canonical ordering key (the same tuple the pattern pickles through)."""
        return (tuple(sorted(self.faulty)), tuple(sorted(self.omissions)),
                tuple(sorted(self.receive_omissions)))

    @property
    def nonfaulty(self) -> FrozenSet[AgentId]:
        """The set ``N`` of nonfaulty agents."""
        return complement(self.faulty, self.n)

    @property
    def num_faulty(self) -> int:
        """The number of faulty agents ``|Agt - N|``."""
        return len(self.faulty)

    @property
    def all_blocked(self) -> FrozenSet[Omission]:
        """Every blocked triple, regardless of which endpoint it is charged to."""
        return self.omissions | self.receive_omissions

    def delivered(self, round_index: int, sender: AgentId, receiver: AgentId) -> bool:
        """Whether the message from ``sender`` to ``receiver`` in round ``round_index + 1`` arrives.

        This is the function ``F`` of the paper with ``F(m, i, j) = 1`` meaning
        delivery.  A message is lost if either endpoint drops it (sending or
        receive omission); messages between two agents that omit nothing are
        always delivered.
        """
        triple = (round_index, sender, receiver)
        return triple not in self.omissions and triple not in self.receive_omissions

    def blocked_receivers(self, round_index: int, sender: AgentId) -> FrozenSet[AgentId]:
        """The set of receivers that do *not* get ``sender``'s round message.

        Counts both sending omissions by ``sender`` and receive omissions by
        the receivers themselves.
        """
        return frozenset(
            receiver
            for (m, s, receiver) in self.all_blocked
            if m == round_index and s == sender
        )

    def blocked_senders(self, round_index: int, receiver: AgentId) -> FrozenSet[AgentId]:
        """The set of senders whose round message does *not* reach ``receiver``."""
        return frozenset(
            sender
            for (m, sender, r) in self.all_blocked
            if m == round_index and r == receiver
        )

    def exhibits_faulty_behaviour(self, agent: AgentId, horizon: Optional[int] = None) -> bool:
        """Whether ``agent`` actually omits a message exchanged with *another* agent.

        The optimality proofs of Section 7 rely on faulty agents that "act
        nonfaulty" — they are charged to the failure pattern's faulty set but
        never visibly omit a message (omissions to themselves are allowed and
        invisible).  An agent misbehaves if it drops an outgoing message
        (sending omission) or an incoming one (receive omission).  ``horizon``,
        if given, restricts attention to rounds ``0 .. horizon - 1``.
        """
        for (round_index, sender, receiver) in self.omissions:
            if sender != agent or receiver == agent:
                continue
            if horizon is not None and round_index >= horizon:
                continue
            return True
        for (round_index, sender, receiver) in self.receive_omissions:
            if receiver != agent or sender == agent:
                continue
            if horizon is not None and round_index >= horizon:
                continue
            return True
        return False

    def silent_senders(self, round_index: int) -> FrozenSet[AgentId]:
        """Agents whose messages to *all other* agents are blocked in the given round."""
        silent = []
        for agent in range(self.n):
            others = set(range(self.n)) - {agent}
            if others and others <= set(self.blocked_receivers(round_index, agent)):
                silent.append(agent)
        return frozenset(silent)

    def deaf_receivers(self, round_index: int) -> FrozenSet[AgentId]:
        """Agents that receive no message from *any other* agent in the given round."""
        deaf = []
        for agent in range(self.n):
            others = set(range(self.n)) - {agent}
            if others and others <= set(self.blocked_senders(round_index, agent)):
                deaf.append(agent)
        return frozenset(deaf)

    def max_round(self) -> int:
        """The largest round index mentioned by a blocked triple (``-1`` if none)."""
        return max((m for (m, _, _) in self.all_blocked), default=-1)

    # ------------------------------------------------------------------ constructors

    @classmethod
    def failure_free(cls, n: int) -> "FailurePattern":
        """The unique failure-free pattern for ``n`` agents."""
        return cls(n=n)

    @classmethod
    def silent(cls, n: int, faulty: Iterable[AgentId], horizon: int,
               from_round: int = 0, include_self: bool = False) -> "FailurePattern":
        """A pattern where every agent in ``faulty`` sends no messages at all.

        Parameters
        ----------
        n:
            Number of agents.
        faulty:
            The agents that stay silent (and are marked faulty).
        horizon:
            Omissions are generated for rounds ``from_round .. horizon - 1``.
        from_round:
            First round index (time) at which the agents fall silent.
        include_self:
            Whether to also block the agent's message to itself.
        """
        faulty_set = frozenset(faulty)
        omissions = set()
        for agent in faulty_set:
            for round_index in range(from_round, horizon):
                for receiver in range(n):
                    if receiver == agent and not include_self:
                        continue
                    omissions.add((round_index, agent, receiver))
        return cls(n=n, faulty=faulty_set, omissions=frozenset(omissions))

    @classmethod
    def deaf(cls, n: int, faulty: Iterable[AgentId], horizon: int,
             from_round: int = 0, include_self: bool = False) -> "FailurePattern":
        """The receive-side mirror of :meth:`silent`: the agents hear nothing at all.

        Every agent in ``faulty`` drops every incoming message in rounds
        ``from_round .. horizon - 1`` (receive omissions); its own outgoing
        messages are delivered normally.
        """
        faulty_set = frozenset(faulty)
        dropped = set()
        for agent in faulty_set:
            for round_index in range(from_round, horizon):
                for sender in range(n):
                    if sender == agent and not include_self:
                        continue
                    dropped.add((round_index, sender, agent))
        return cls(n=n, faulty=faulty_set, receive_omissions=frozenset(dropped))

    @classmethod
    def from_blocked(cls, n: int, blocked: Iterable[Omission],
                     extra_faulty: Iterable[AgentId] = ()) -> "FailurePattern":
        """Build a pattern from explicit blocked triples charged to the senders.

        The faulty set is inferred as the set of senders appearing in
        ``blocked`` plus any ``extra_faulty`` agents (which are faulty but do
        not visibly misbehave).
        """
        blocked_set = frozenset(blocked)
        faulty = frozenset(s for (_, s, _) in blocked_set) | frozenset(extra_faulty)
        return cls(n=n, faulty=faulty, omissions=blocked_set)

    @classmethod
    def from_receive_blocked(cls, n: int, blocked: Iterable[Omission],
                             extra_faulty: Iterable[AgentId] = ()) -> "FailurePattern":
        """Build a pattern from explicit blocked triples charged to the receivers.

        The faulty set is inferred as the set of receivers appearing in
        ``blocked`` plus any ``extra_faulty`` agents.
        """
        blocked_set = frozenset(blocked)
        faulty = frozenset(r for (_, _, r) in blocked_set) | frozenset(extra_faulty)
        return cls(n=n, faulty=faulty, receive_omissions=blocked_set)

    # ------------------------------------------------------------------ transformations

    def with_omission(self, round_index: int, sender: AgentId, receiver: AgentId) -> "FailurePattern":
        """Return a copy with one extra blocked message charged to the sender."""
        return FailurePattern(
            n=self.n,
            faulty=self.faulty | {sender},
            omissions=self.omissions | {(round_index, sender, receiver)},
            receive_omissions=self.receive_omissions,
        )

    def without_omission(self, round_index: int, sender: AgentId, receiver: AgentId) -> "FailurePattern":
        """Return a copy with one sender-charged blocked message removed (the sender stays faulty)."""
        return FailurePattern(
            n=self.n,
            faulty=self.faulty,
            omissions=self.omissions - {(round_index, sender, receiver)},
            receive_omissions=self.receive_omissions,
        )

    def with_receive_omission(self, round_index: int, sender: AgentId,
                              receiver: AgentId) -> "FailurePattern":
        """Return a copy with one extra blocked message charged to the receiver."""
        return FailurePattern(
            n=self.n,
            faulty=self.faulty | {receiver},
            omissions=self.omissions,
            receive_omissions=self.receive_omissions | {(round_index, sender, receiver)},
        )

    def without_receive_omission(self, round_index: int, sender: AgentId,
                                 receiver: AgentId) -> "FailurePattern":
        """Return a copy with one receiver-charged blocked message removed (the receiver stays faulty)."""
        return FailurePattern(
            n=self.n,
            faulty=self.faulty,
            omissions=self.omissions,
            receive_omissions=self.receive_omissions - {(round_index, sender, receiver)},
        )

    def with_faulty(self, *agents: AgentId) -> "FailurePattern":
        """Return a copy where ``agents`` are additionally marked faulty."""
        return FailurePattern(n=self.n, faulty=self.faulty | set(agents),
                              omissions=self.omissions,
                              receive_omissions=self.receive_omissions)

    def swap_roles(self, a: AgentId, b: AgentId) -> "FailurePattern":
        """Interchange the failure roles of two agents.

        This is the "interchange the failures of ``i`` and ``i'``" operation
        used repeatedly in the optimality proofs (Proposition 6.4, Section 7):
        every omission *charged to* ``a`` becomes an omission charged to ``b``
        and vice versa (the sender role for sending omissions, the receiver
        role for receive omissions), and membership of ``a`` / ``b`` in the
        faulty set is swapped.
        """

        def swap(agent: AgentId) -> AgentId:
            if agent == a:
                return b
            if agent == b:
                return a
            return agent

        new_faulty = frozenset(swap(agent) for agent in self.faulty)
        new_omissions = frozenset(
            (m, swap(sender), receiver) for (m, sender, receiver) in self.omissions
        )
        new_receive = frozenset(
            (m, sender, swap(receiver)) for (m, sender, receiver) in self.receive_omissions
        )
        return FailurePattern(n=self.n, faulty=new_faulty, omissions=new_omissions,
                              receive_omissions=new_receive)

    def restrict_to(self, horizon: int) -> "FailurePattern":
        """Drop blocked triples at or beyond ``horizon`` (useful for display and hashing)."""
        return FailurePattern(
            n=self.n,
            faulty=self.faulty,
            omissions=frozenset(o for o in self.omissions if o[0] < horizon),
            receive_omissions=frozenset(o for o in self.receive_omissions if o[0] < horizon),
        )

    def send_restriction(self) -> "FailurePattern":
        """The pattern with every receive omission dropped (faulty set unchanged).

        Restricting a general-omission pattern to its sending events yields a
        pattern of the sending-omissions model with the same charged agents —
        the hook for the differential check that ``GO(t)`` degenerates to
        ``SO(t)`` when no receive events are used.
        """
        return FailurePattern(n=self.n, faulty=self.faulty, omissions=self.omissions)

    # ------------------------------------------------------------------ misc

    def describe(self) -> str:
        """A short human-readable description of the pattern."""
        if not self.faulty:
            return f"failure-free ({self.n} agents)"
        parts = [f"faulty={sorted(self.faulty)}"]
        if self.omissions:
            parts.append(f"{len(self.omissions)} blocked sends")
        if self.receive_omissions:
            parts.append(f"{len(self.receive_omissions)} blocked receives")
        if not self.omissions and not self.receive_omissions:
            parts.append("no visible omissions")
        return ", ".join(parts)

    def __iter__(self) -> Iterator[Omission]:
        return iter(sorted(self.all_blocked))
