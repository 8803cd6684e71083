"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.failures import FailurePattern, SendingOmissionModel
from repro.protocols import BasicProtocol, MinProtocol, OptimalFipProtocol
from repro.store import keys as store_keys


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running exhaustive checks (deselect with -m 'not slow')")


@pytest.fixture
def token_calls(monkeypatch):
    """A one-element list counting every store ``token`` call, recursive ones included."""
    calls = [0]
    original = store_keys.token

    def counting(obj):
        calls[0] += 1
        return original(obj)

    monkeypatch.setattr(store_keys, "token", counting)
    return calls


@pytest.fixture
def failure_free_4():
    """The failure-free pattern for four agents."""
    return FailurePattern.failure_free(4)


@pytest.fixture
def so_model_4_1():
    """The sending-omissions model SO(1) for four agents."""
    return SendingOmissionModel(n=4, t=1)


@pytest.fixture(params=["min", "basic", "opt"])
def any_protocol_t1(request):
    """Each of the paper's three protocols with failure bound t=1."""
    return {
        "min": MinProtocol(1),
        "basic": BasicProtocol(1),
        "opt": OptimalFipProtocol(1),
    }[request.param]


@pytest.fixture(params=["min", "basic", "opt"])
def any_protocol_t2(request):
    """Each of the paper's three protocols with failure bound t=2."""
    return {
        "min": MinProtocol(2),
        "basic": BasicProtocol(2),
        "opt": OptimalFipProtocol(2),
    }[request.param]
