"""Both backends satisfy the kernel's :class:`Transport` protocol.

The protocol is duck-typed, so a method the simulator grows and the live
backend lacks only shows up as an ``AttributeError`` deep inside a live
run.  These checks open no socket and run in tier-1.
"""

from __future__ import annotations

import pytest

from repro.kernel.transport import Transport
from repro.livenet import WallClock
from repro.livenet.network import LiveNetwork
from repro.simnet.network import Network

PROTOCOL_METHODS = sorted(
    name for name, value in vars(Transport).items()
    if callable(value) and not name.startswith("_"))


def test_protocol_declares_reachable():
    assert "reachable" in PROTOCOL_METHODS


@pytest.mark.parametrize("backend", [Network, LiveNetwork])
@pytest.mark.parametrize("method", PROTOCOL_METHODS)
def test_backend_implements_protocol_method(backend, method):
    assert callable(getattr(backend, method, None)), \
        f"{backend.__name__} lacks Transport.{method}"


def test_live_reachable_honours_partition():
    network = LiveNetwork(WallClock())
    assert network.reachable("a", "b")
    network.partition({"a", "b"}, {"c"})
    assert network.reachable("a", "b")
    assert not network.reachable("a", "c")
    assert not network.reachable("c", "b")
    assert not network.reachable("outsider", "a")
    network.heal_partition()
    assert network.reachable("a", "c")
