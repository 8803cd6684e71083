"""Canonical content hashing for cache keys.

Every artifact the store caches — a simulated run, a built
:class:`~repro.systems.interpreted.InterpretedSystem`, an implementation or
safety report, an executed :class:`~repro.api.results.ResultSet` — is addressed
by the **content key** of the configuration that produced it, never by a name
chosen by the caller.  Two requirements shape the scheme:

1. **Canonical.**  Logically equal configurations must hash identically across
   processes and platforms.  Python's ``hash()`` is salted per process and
   ``pickle`` does not canonicalise set iteration order, so keys are computed
   over an explicit *token tree*: a nested tuple of tagged primitives built by
   :func:`token`, with every unordered collection sorted on the way in (the
   same idea as ``FailurePattern.__reduce__``'s sorted-tuple pickling).
2. **Never stale.**  A cache must not survive a change that could alter the
   artifact.  Every key therefore folds in :data:`STORE_VERSION` (bumped on
   any change to the on-disk format or the key scheme itself) and
   :func:`code_fingerprint`, a hash of the ``repro`` package's own source
   files — editing any library module invalidates the whole cache, which costs
   a rebuild but can never silently return results computed by old code.

The token rules cover everything the library keys by construction: primitives,
sequences, mappings, sets (sorted), enums, frozen dataclasses (protocols,
patterns, models, contexts, specs, formulas), callables (by qualified name),
and plain objects via their ``__dict__``.  Objects can override the generic
treatment with a ``__store_token__()`` method returning any tokenisable value.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from pathlib import Path
from typing import Iterable, Optional, Tuple

from ..core.errors import StoreError

#: Version of the key scheme and on-disk payload format.  Bump on any change
#: to either; every existing cache entry becomes unreachable (stale-proofing).
#: Version 2: failure patterns tokenise as one canonical string
#: (``FailurePattern.__store_token__``).
STORE_VERSION = 2

_FINGERPRINT_CACHE: Optional[str] = None


def code_fingerprint() -> str:
    """A hash of every ``repro/**/*.py`` source file, computed once per process.

    Folding this into every key means a cache written by one version of the
    library is invisible to any other version: the expensive failure mode of
    content-addressed caching — a stale hit after a semantics change — cannot
    happen.  The cost is over-invalidation (a docstring edit also rebuilds),
    which is the safe direction.
    """
    global _FINGERPRINT_CACHE
    if _FINGERPRINT_CACHE is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT_CACHE = digest.hexdigest()
    return _FINGERPRINT_CACHE


def _qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _sorted_tokens(tokens: Iterable[object]) -> Tuple[object, ...]:
    # Tokens are heterogeneous nested tuples; sorting by repr is total and
    # deterministic where direct comparison would raise on mixed types.
    return tuple(sorted(tokens, key=repr))


def token(obj: object) -> object:
    """The canonical token tree of ``obj`` (nested tuples of tagged primitives).

    Raises :class:`~repro.core.errors.StoreError` for objects with no rule —
    better to refuse a key than to mint one that collides or drifts.
    """
    if obj is None:
        return ("none",)
    if isinstance(obj, bool):  # before int: bool is an int subclass
        return ("bool", obj)
    if isinstance(obj, int):
        return ("int", obj)
    if isinstance(obj, float):
        return ("float", repr(obj))
    if isinstance(obj, str):
        return ("str", obj)
    if isinstance(obj, bytes):
        return ("bytes", obj.hex())
    if isinstance(obj, enum.Enum):
        return ("enum", _qualified_name(type(obj)), obj.name)
    custom = getattr(obj, "__store_token__", None)
    if custom is not None and not isinstance(obj, type):
        return ("custom", _qualified_name(type(obj)), token(custom()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return ("dataclass", _qualified_name(type(obj)), tuple(
            (field.name, token(getattr(obj, field.name)))
            for field in dataclasses.fields(obj)
        ))
    if isinstance(obj, (tuple, list)):
        return ("seq", tuple(token(item) for item in obj))
    if isinstance(obj, dict):
        return ("map", _sorted_tokens(
            (token(key), token(value)) for key, value in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return ("set", _sorted_tokens(token(item) for item in obj))
    if isinstance(obj, type):
        return ("type", _qualified_name(obj))
    if callable(obj) and hasattr(obj, "__qualname__"):
        # Functions, methods, and factory callables key by qualified name: the
        # code fingerprint already covers their behaviour.
        return ("callable", f"{getattr(obj, '__module__', '?')}.{obj.__qualname__}")
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict is not None:
        return ("object", _qualified_name(type(obj)), _sorted_tokens(
            (name, token(value)) for name, value in instance_dict.items()
        ))
    raise StoreError(
        f"cannot build a canonical store token for {obj!r} "
        f"(type {_qualified_name(type(obj))}); give it a __store_token__() method"
    )


def content_key(kind: str, *parts: object) -> str:
    """The content-addressed key of an artifact: sha256 over the token tree.

    ``kind`` namespaces artifact families ("run", "system",
    "implementation-report", ...); ``parts`` are the configuration values the
    artifact is a pure function of.  :data:`STORE_VERSION` and
    :func:`code_fingerprint` are folded into every key.
    """
    payload = (
        "repro-store",
        STORE_VERSION,
        code_fingerprint(),
        kind,
        tuple(token(part) for part in parts),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
