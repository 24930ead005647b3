"""Tests of the benchmark's layer wrappers (``perfbench/tracing.py``)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import tracing  # noqa: E402
from repro.kernel import codec, message, packet  # noqa: E402
from repro.kernel.scheduler import Kernel  # noqa: E402
from repro.scenarios import commuter_handoff, run_scenario  # noqa: E402


def test_wrapper_counts_match_program_counters_and_unwrap_restores():
    originals = (message.estimate_size, packet.estimate_size,
                 codec.encode_payload, Kernel.enqueue)
    tracer = tracing.Tracer(buffer_size=100)
    seen = {}

    def collect(runner, result):
        network = runner.network
        nodes = list(network.nodes.values()) + list(network.departed.values())
        seen["dispatched"] = sum(n.kernel.dispatched_count for n in nodes)
        seen["timers"] = sum(n.kernel.timer_dispatched_count for n in nodes)
        seen["sent"] = sum(n.stats.sent_total for n in nodes)
        return []

    uninstall = tracing.install(tracer)
    try:
        result = run_scenario(
            commuter_handoff(messages=20, out_at=5.0, back_at=12.0,
                             duration_s=20.0),
            seed=1, engine_factory=tracing.traced_engine_factory(tracer),
            invariants=(collect,))
    finally:
        uninstall()

    assert (message.estimate_size, packet.estimate_size,
            codec.encode_payload, Kernel.enqueue) == originals
    assert tracer.calls("kernel.dispatch") == seen["dispatched"] > 0
    assert tracer.counts["kernel.dispatch.timer_calls"] == seen["timers"]
    assert tracer.counts["simnet.deliveries"] == result.delivered_packets
    assert tracer.counts["simnet.transmit.accepted"] == seen["sent"]
    assert tracer.calls("context.publish") == \
        sum(bus.published_count for bus in tracer.buses) > 0
    assert tracer.calls("core.rebuild") > 0
    assert tracer.calls("apps.chat") > 0
    assert len(tracer.spans) == 100
    # Self times partition the traced run: none is negative.
    assert all(entry[1] >= -1e-6 for entry in tracer.stats.values())
