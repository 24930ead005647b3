"""Tests of the benchmark's metric definitions (``perfbench/metrics.py``)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import metrics  # noqa: E402
from repro.apps.chat import ChatDelivery  # noqa: E402
from repro.scenarios import (ALWAYS_ON, ChatBurst, Crash, Handoff,  # noqa: E402
                             NodeSpec, Recover, Scenario, run_scenario)


def _collecting(box):
    def collect(runner, result):
        box["histories"] = {node_id: tuple(node.chat.history)
                            for node_id, node in runner.morpheus.items()}
        return []
    return collect


# -- the percentile rule ---------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.supports(1000, 99)
    assert not metrics.supports(999, 99)
    assert metrics.supports(20, 50)
    assert not metrics.supports(19, 50)
    assert metrics.highest_supported(19) is None
    assert metrics.highest_supported(20) == 50
    assert metrics.highest_supported(100) == 90
    assert metrics.highest_supported(999) == 90
    assert metrics.highest_supported(1000) == 99
    assert metrics.highest_supported(10_000) == 99.9


def test_percentile_is_nearest_rank_and_refuses_thin_tails():
    values = [float(v) for v in range(1000, 0, -1)]
    assert metrics.percentile(values, 50) == 500.0
    assert metrics.percentile(values, 99) == 990.0
    with pytest.raises(ValueError):
        metrics.percentile(values[:999], 99)


# -- the continuously-live receiver set --------------------------------------------

def _crash_recover(**extra):
    return Scenario(
        name="crash_recover",
        duration_s=20.0,
        nodes=(NodeSpec("a"), NodeSpec("b"), NodeSpec("c")) +
        extra.pop("joiners", ()),
        events=(Crash(4.0, node="c"), Recover(8.0, node="c")),
        workload=(ChatBurst(start=1.0, sender="a", count=10, interval=1.0),),
        heartbeat_interval=1.0,
        **extra)


def test_expected_pairs_skip_churned_nodes_and_late_joiners():
    scenario = _crash_recover(joiners=(NodeSpec("d", join_at=3.5),))
    pairs = metrics.expected_pairs(scenario)
    receivers = {receiver for receiver, _ in pairs}
    assert receivers == {"b", "d"}  # c crashed, a is the sender
    due = metrics.due_times(scenario)
    for receiver, message in pairs:
        if receiver == "d":
            assert due[message] >= 3.5
    assert len(pairs) == 10 + 7  # b gets all ten, d those due from 4 s on


def test_delivery_ratio_on_a_crash_recover_run():
    scenario = _crash_recover()
    box = {}
    run_scenario(scenario, seed=1, invariants=(_collecting(box),) + ALWAYS_ON)
    outcome = metrics.chat_outcome(scenario, box["histories"])
    assert outcome.expected == 10
    assert outcome.expected_delivered == 10
    assert outcome.failed == 0
    assert outcome.delivery_ratio == 1.0
    # The crashed node's own deliveries still count as delivered pairs.
    assert outcome.delivered_pairs >= 10


# -- adaptation latency ---------------------------------------------------------------

def test_adapt_latency_on_two_handoffs():
    scenario = Scenario(
        name="two_handoffs",
        duration_s=30.0,
        nodes=(NodeSpec("commuter"), NodeSpec("fixed-0"),
               NodeSpec("fixed-1")),
        events=(Handoff(6.0, node="commuter", to="mobile"),
                Handoff(16.0, node="commuter", to="fixed")),
        workload=(ChatBurst(start=1.0, sender="fixed-0", count=40,
                            interval=0.5),))
    result = run_scenario(scenario, seed=1, invariants=ALWAYS_ON)
    times = [when for when, *_ in result.reconfigurations]
    assert len(times) == 2 and 6.0 < times[0] < 16.0 < times[1]
    latencies = metrics.adapt_latencies_ms(scenario, result.reconfigurations)
    assert latencies == pytest.approx([(times[0] - 6.0) * 1000.0,
                                       (times[1] - 16.0) * 1000.0])


def test_adapt_latency_uses_latest_event_or_join():
    scenario = Scenario(
        name="causes", duration_s=30.0,
        nodes=(NodeSpec("a"), NodeSpec("b", join_at=10.0)),
        events=(Handoff(4.0, node="a", to="mobile"),))
    reconfigurations = ((1.0, "a", "boot"), (5.0, "a", "x"),
                        (12.5, "a", "y"))
    assert metrics.adapt_latencies_ms(scenario, reconfigurations) == \
        pytest.approx([1000.0, 2500.0])


# -- which deliveries are latency samples ------------------------------------------

def test_repair_deliveries_are_not_latency_samples():
    scenario = Scenario(
        name="repairs", duration_s=10.0,
        nodes=(NodeSpec("a"), NodeSpec("b"), NodeSpec("c")),
        workload=(ChatBurst(start=1.0, sender="a", count=3, interval=1.0,
                            prefix="m"),))

    def seen(text, time, marker=""):
        return ChatDelivery(source="a", text=text, room="lobby", time=time,
                            marker=marker)

    histories = {
        "a": (seen("m-0", 1.0),),  # the sender's own copy
        "b": (seen("m-0", 1.002), seen("m-1", 5.0, "backlog"),
              seen("m-2", 6.0, "recovered")),
        "c": (seen("m-0", 1.004, "fed"),),
    }
    outcome = metrics.chat_outcome(scenario, histories)
    assert outcome.latencies_ms == pytest.approx((2.0, 4.0))
    assert outcome.repairs == 2
    assert outcome.delivered_pairs == 4
    assert outcome.expected == 6
    assert outcome.expected_delivered == 4
    assert outcome.failed == 2
