"""The repository benchmark: seeded scenario workloads, end to end and traced.

Entered through ``perfbench/run.py``, which puts this checkout's ``src/`` on
the import path and checks that the program is there.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
in fresh processes, an untimed warm-up on the first tenth of the scenario,
then repetitions of the workload for ``--seconds`` seconds, with the
host-speed reference of :mod:`perfbench.hostspeed` timed between them to
scale the host times.  ``--trace 1`` runs the workload once untraced and
once with the layer wrappers of :mod:`perfbench.tracing` installed, checks
the wrapper counts against the program's own counters, and reports the
per-layer metrics.  Every run installs the always-on invariants of
:mod:`repro.scenarios.fuzz` and checks that repetitions agree exactly.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with host provenance and sample counts, is
written to ``perfbench/out/``.  Metric definitions: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from perfbench import hostspeed, metrics
from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEEDS, WORKLOADS
from repro.scenarios import ALWAYS_ON, run_scenario
from repro.simnet.engine import SimEngine

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


# -- one execution of a workload ---------------------------------------------

@dataclass
class Rep:
    """What one execution of the scenario left behind."""

    error: Optional[str] = None
    result: object = None
    histories: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    boot_s: float = 0.0
    run_s: float = 0.0
    outcome: Optional[metrics.ChatOutcome] = None
    #: Counts that must repeat exactly for a fixed workload and seed.
    fingerprint: dict = field(default_factory=dict)

    def score(self, scenario) -> None:
        """Score the chat histories and take the run's fingerprint."""
        self.outcome = metrics.chat_outcome(scenario, self.histories)
        self.fingerprint = {
            "digest": metrics.result_digest(self.result),
            "delivered_packets": self.result.delivered_packets,
            "chat_pairs": self.outcome.delivered_pairs,
            "reconfigurations": len(self.result.reconfigurations),
            "wire_bytes": self.counters["sent_wire_bytes"],
        }

    def release(self) -> None:
        """Drop the run's bulky state once it has been scored."""
        self.result = None
        self.histories = {}


def timed_engine(base: type) -> type:
    """A ``base`` subclass that timestamps its creation (the start of the
    runner's build) and the entry to and exit from ``run_until``."""

    class TimedEngine(base):
        def __init__(self, *args, **kwargs) -> None:
            self.created = time.perf_counter()
            super().__init__(*args, **kwargs)
            self.entered = self.left = None

        def run_until(self, deadline):
            self.entered = time.perf_counter()
            try:
                return super().run_until(deadline)
            finally:
                self.left = time.perf_counter()

    return TimedEngine


def _collect(rep: Rep):
    """An invariant hook that copies what the metrics need off the runner
    (it reports no violation itself)."""

    def collect(runner, result) -> list:
        network = runner.network
        nodes = list(network.nodes.values()) + list(network.departed.values())
        by_event: dict[str, int] = {}
        for node in nodes:
            for name, sent in node.stats.sent_by_event.items():
                by_event[name] = by_event.get(name, 0) + sent
        rep.histories = {node_id: tuple(node.chat.history)
                         for node_id, node in runner.morpheus.items()}
        rep.counters = {
            "dispatched": sum(n.kernel.dispatched_count for n in nodes),
            "timer_dispatched": sum(n.kernel.timer_dispatched_count
                                    for n in nodes),
            "sent_total": sum(n.stats.sent_total for n in nodes),
            "sent_wire_bytes": sum(n.stats.sent_wire_bytes_total
                                   for n in nodes),
            "delivered": network.delivered_packets,
            "sent_by_event": by_event,
        }
        return []

    return collect


def run_once(scenario, seed: int, engine_factory) -> Rep:
    rep = Rep()
    holder = {}

    def factory():
        holder["engine"] = engine_factory()
        return holder["engine"]

    try:
        rep.result = run_scenario(scenario, seed=seed, engine_factory=factory,
                                  invariants=(_collect(rep),) + ALWAYS_ON)
    except Exception as exc:  # a failed run is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        rep.error = f"{type(exc).__name__}: {exc}"[:500]
        return rep
    engine = holder["engine"]
    rep.boot_s = engine.entered - engine.created
    rep.run_s = engine.left - engine.entered
    rep.score(scenario)
    return rep


# -- set-up in fresh processes ------------------------------------------------

def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to ``run_until`` entry, once per fresh process."""
    probe = BENCH_DIR / "setup_probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
    return samples


# -- provenance -----------------------------------------------------------------

def git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# -- the two kinds of run -----------------------------------------------------------

def _metric(value: float, unit: str, samples: int, kind: str) -> dict:
    return {"value": value, "unit": unit, "samples": samples, "kind": kind}


def _disagreements(reps: list[Rep], labels: list[str]) -> list[str]:
    """Each repetition whose fingerprint differs from the first one's."""
    first = reps[0].fingerprint
    return [f"{label} differs from {labels[0]}: {rep.fingerprint} != {first}"
            for rep, label in zip(reps[1:], labels[1:])
            if rep.fingerprint != first]


def _failed_run(scenario, record: dict, reps: list[Rep]) -> dict:
    """A run that raised or broke an invariant fails all its operations."""
    record["errors"] = [rep.error for rep in reps if rep.error is not None]
    operations = max(1, len(metrics.expected_pairs(scenario)))
    return {"correct": False, "attempted": operations, "failed": operations,
            "metrics": {}, "record": record}


def _percentile_or_zero(values, pct: float) -> float:
    return metrics.percentile(values, pct) \
        if metrics.supports(len(values), pct) else 0.0


def warm_up(scenario, seed: int) -> None:
    """Run the first tenth of the scenario, untimed and unchecked, so that
    lazy imports and the allocator's pools are in place before timing."""
    short = replace(scenario, duration_s=scenario.duration_s / 10)
    try:
        run_scenario(short, seed=seed)
    except Exception:  # the timed repetitions report any failure
        pass
    gc.collect()


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Set-up probes, a warm-up, then repetitions for ``seconds``, with the
    host-speed reference timed between them; tracing off."""
    scenario = WORKLOADS[workload](seed)
    references = [hostspeed.reference_s()]
    setup = measure_setup(workload, seed)
    warm_up(scenario, seed)
    references.append(hostspeed.reference_s())
    engine_factory = timed_engine(SimEngine)
    reps: list[Rep] = []
    began = time.perf_counter()
    while True:
        if reps:
            reps[-1].release()
            gc.collect()
        rep = run_once(scenario, seed, engine_factory)
        reps.append(rep)
        if len(reps) == 1:
            # Later repetitions reuse, and fragment, the freed memory of
            # earlier ones: the peak is taken before they run.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        references.extend(hostspeed.reference_s() for _ in range(
            max(1, round(rep.run_s / hostspeed.REPETITION_S_PER_TIMING))))
        elapsed = time.perf_counter() - began
        # Stop when the error shows, or when one more repetition of the
        # average length would overrun the measuring time.
        if rep.error is not None or \
                elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    factor = hostspeed.speed_factor(references)
    record = {"reps": len(reps),
              "measured_s": time.perf_counter() - began,
              "setup_samples_s": setup,
              "host_speed": {"reference_samples_s": references,
                             "nominal_reference_s":
                                 hostspeed.NOMINAL_REFERENCE_S,
                             "factor": factor}}
    if any(rep.error is not None for rep in reps):
        return _failed_run(scenario, record, reps)

    last = reps[-1]
    outcome = last.outcome
    problems = _disagreements(reps, [f"repetition {index}" for index
                                     in range(len(reps))])
    latencies = outcome.latencies_ms
    if not metrics.supports(len(latencies), 99):
        problems.append(f"{len(latencies)} latency samples; p99 needs 1000")
    run_s = [rep.run_s for rep in reps]
    median_run = statistics.median(run_s) * factor
    pairs = outcome.delivered_pairs
    table = {
        "setup_s": _metric(statistics.median(setup) * factor, "s",
                           len(setup), "host"),
        "run_s": _metric(median_run, "s", len(run_s), "host"),
        "deliveries_per_s": _metric(
            last.result.delivered_packets / median_run, "packets/s",
            len(run_s), "host"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1, "host"),
        "chat_latency_p50_ms": _metric(_percentile_or_zero(latencies, 50),
                                       "ms", len(latencies), "sim"),
        "chat_latency_p99_ms": _metric(_percentile_or_zero(latencies, 99),
                                       "ms", len(latencies), "sim"),
        "delivery_ratio": _metric(outcome.delivery_ratio, "fraction",
                                  outcome.expected, "sim"),
        "wire_bytes_per_chat": _metric(
            last.counters["sent_wire_bytes"] / pairs, "B", pairs, "sim"),
        "packets_per_chat": _metric(last.counters["sent_total"] / pairs,
                                    "packets", pairs, "sim"),
    }
    adapt = metrics.adapt_latencies_ms(scenario,
                                       last.result.reconfigurations)
    record["adapt_latency"] = {"samples": len(adapt)}
    if metrics.supports(len(adapt), 90):
        record["adapt_latency"].update(
            p50_ms=metrics.percentile(adapt, 50),
            p90_ms=metrics.percentile(adapt, 90))
    record["latency_samples"] = {
        "count": len(latencies),
        "highest_supported_percentile":
            metrics.highest_supported(len(latencies))}
    record["host_speed"].update(raw_setup_s=statistics.median(setup),
                                raw_run_s=statistics.median(run_s))
    record.update(run_samples_s=run_s, counts=last.fingerprint,
                  expected_pairs=outcome.expected, repairs=outcome.repairs,
                  problems=problems)
    return {"correct": not problems, "attempted": outcome.expected,
            "failed": outcome.failed, "metrics": table, "record": record}


#: Session modules reported as ``protocols.<name>``.
PROTOCOL_MODULES = ("heartbeat", "membership", "reliable", "fec", "mecho",
                    "gossip", "viewsync", "beb")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced(workload: str, seed: int) -> dict:
    """One untraced and one traced execution; per-layer metrics."""
    from perfbench import tracing

    scenario = WORKLOADS[workload](seed)
    base = timed_engine(SimEngine)
    plain = run_once(scenario, seed, base)
    record: dict = {"reps": 1}
    if plain.error is not None:
        return _failed_run(scenario, record, [plain])
    plain.release()
    gc.collect()

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        rep = run_once(scenario, seed,
                       tracing.traced_engine_factory(tracer, base))
    finally:
        uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-s{seed}.jsonl"
    tracer.write_spans(spans_path)
    record.update(spans_file=str(spans_path.relative_to(ROOT)),
                  spans_buffered=len(tracer.spans))
    if rep.error is not None:
        return _failed_run(scenario, record, [rep])

    problems = _disagreements([plain, rep], ["untraced run", "traced run"])
    counters = rep.counters
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts.get
    published = sum(bus.published_count for bus in tracer.buses)
    for what, wrapped, program_count in (
            ("Kernel.enqueue calls vs dispatched_count",
             calls("kernel.dispatch"), counters["dispatched"]),
            ("timer enqueues vs timer_dispatched_count",
             counts("kernel.dispatch.timer_calls", 0),
             counters["timer_dispatched"]),
            ("TopicBus.publish calls vs published_count",
             calls("context.publish"), published),
            ("NodeStats.record_received calls vs delivered_packets",
             counts("simnet.deliveries", 0), counters["delivered"]),
            ("live-sender Network.transmit calls vs sent_total",
             counts("simnet.transmit.accepted", 0),
             counters["sent_total"])):
        if wrapped != program_count:
            problems.append(f"cross-check {what}: {wrapped} != "
                            f"{program_count}")

    result = rep.result
    outcome = rep.outcome
    deliveries = counters["delivered"]
    transmits = calls("simnet.transmit")
    by_event = counters["sent_by_event"]
    app_sent = by_event.get("ApplicationMessage", 0)
    reshapes = sum(1 for line in result.trace
                   if (" split " in line or " merge " in line)
                   and "refused" not in line and "skipped" not in line)
    layer = {
        "simnet.transmit.calls": (transmits, "count"),
        "simnet.transmit.self_s": (self_s("simnet.transmit"), "s"),
        "simnet.callback.self_s": (self_s("simnet.callback"), "s"),
        "simnet.deliveries": (deliveries, "count"),
        "simnet.lost": (result.lost_packets, "count"),
        "simnet.fanout": (_ratio(deliveries, transmits), "ratio"),
        "simnet.engine.events": (result.engine_events, "count"),
        "simnet.engine.self_s": (self_s("simnet.engine"), "s"),
        "kernel.dispatch.calls": (calls("kernel.dispatch"), "count"),
        "kernel.dispatch.timer_calls": (
            counts("kernel.dispatch.timer_calls", 0), "count"),
        "kernel.dispatch.self_s": (self_s("kernel.dispatch"), "s"),
        "kernel.dispatch.per_delivery": (
            _ratio(calls("kernel.dispatch"), deliveries), "ratio"),
        "kernel.transport.calls": (calls("kernel.transport"), "count"),
        "kernel.transport.self_s": (self_s("kernel.transport"), "s"),
        "kernel.codec.encode.calls": (calls("kernel.codec.encode"), "count"),
        "kernel.codec.encode.self_s": (self_s("kernel.codec.encode"), "s"),
        "kernel.codec.encode.bytes": (
            counts("kernel.codec.encode.bytes", 0), "B"),
        "kernel.codec.decode.calls": (calls("kernel.codec.decode"), "count"),
        "kernel.codec.decode.self_s": (self_s("kernel.codec.decode"), "s"),
        "kernel.message.size.calls": (calls("kernel.message.size"), "count"),
        "kernel.message.size.self_s": (self_s("kernel.message.size"), "s"),
        "kernel.message.size.per_transmit": (
            _ratio(calls("kernel.message.size"), transmits), "ratio"),
        "kernel.message.copy.calls": (calls("kernel.message.copy"), "count"),
        "kernel.message.wire_copy.calls": (
            calls("kernel.message.wire_copy"), "count"),
    }
    for module in PROTOCOL_MODULES:
        layer[f"protocols.{module}.calls"] = (calls(f"protocols.{module}"),
                                              "count")
        layer[f"protocols.{module}.self_s"] = (
            self_s(f"protocols.{module}"), "s")
    for step in ("encode", "decode"):
        span = f"protocols.rs_code.{step}"
        layer[f"{span}.calls"] = (calls(span), "count")
        layer[f"{span}.self_s"] = (self_s(span), "s")
    plans = counts("core.plans", 0)
    layer.update({
        "protocols.reliable.retransmit_ratio": (
            _ratio(by_event.get("RetransmissionMessage", 0), app_sent),
            "ratio"),
        "protocols.fec.parity_ratio": (
            _ratio(by_event.get("ParityMessage", 0), app_sent), "ratio"),
        "context.publish.calls": (calls("context.publish"), "count"),
        "context.publish.self_s": (self_s("context.publish"), "s"),
        "context.publish.per_delivery": (
            _ratio(calls("context.publish"), deliveries), "ratio"),
        "context.messages": (by_event.get("ContextMessage", 0), "count"),
        "core.decide.calls": (calls("core.decide"), "count"),
        "core.decide.self_s": (self_s("core.decide"), "s"),
        "core.plans": (plans, "count"),
        "core.reconfigurations": (len(result.reconfigurations), "count"),
        "core.plan_completion_ratio": (
            _ratio(len(result.reconfigurations), plans), "ratio"),
        "core.rebuild.calls": (calls("core.rebuild"), "count"),
        "core.rebuild.self_s": (self_s("core.rebuild"), "s"),
        "federation.forward.calls": (calls("federation.forward"), "count"),
        "federation.forward.self_s": (self_s("federation.forward"), "s"),
        "federation.reshapes": (reshapes, "count"),
        "federation.repairs": (outcome.repairs, "count"),
        "federation.repair_ratio": (
            _ratio(outcome.repairs, outcome.delivered_pairs), "ratio"),
        "apps.chat.calls": (calls("apps.chat"), "count"),
        "apps.chat.self_s": (self_s("apps.chat"), "s"),
        "scenarios.boot_s": (plain.boot_s, "s"),
        "trace.overhead_s": (rep.run_s - plain.run_s, "s"),
    })
    table = {name: _metric(value, unit, 1, "host" if unit == "s" else "sim")
             for name, (value, unit) in layer.items()}
    total_self = sum(entry[1] for entry in tracer.stats.values())
    record.update(
        counts=rep.fingerprint, problems=problems,
        untraced_run_s=plain.run_s, traced_run_s=rep.run_s,
        spans={name: {"calls": entry[0], "self_s": entry[1],
                      "share": _ratio(entry[1], total_self)}
               for name, entry in sorted(tracer.stats.items(),
                                         key=lambda item: -item[1][1])})
    return {"correct": not problems, "attempted": outcome.expected,
            "failed": outcome.failed, "metrics": table, "record": record}


# -- command line ----------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; held out for claims: "
             f"{', '.join(map(str, HELD_OUT_SEEDS))})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    return parser.parse_args(argv)


def report(args, outcome: dict) -> None:
    """Print the human-readable lines and write the full record."""
    record = dict(outcome["record"], host=host_record(),
                  workload=args.workload, seed=args.seed, trace=args.trace,
                  metrics=outcome["metrics"], correct=outcome["correct"],
                  attempted=outcome["attempted"], failed=outcome["failed"])
    host = record["host"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={record.get('reps')} cpu_count={host['cpu_count']} "
          f"python={host['python']} commit={host['commit'][:12]}")
    print(f"  {'metric':<36} {'value':>16} {'unit':<10} {'samples':>8}  kind")
    for name, entry in outcome["metrics"].items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']:<10} "
              f"{entry['samples']:>8}  {entry['kind']}")
    adapt = record.get("adapt_latency")
    if adapt is not None:
        if "p50_ms" in adapt:
            print(f"  {'adapt_latency_p50_ms':<36} {adapt['p50_ms']:>16.6g} "
                  f"{'ms':<10} {adapt['samples']:>8}  sim")
            print(f"  {'adapt_latency_p90_ms':<36} {adapt['p90_ms']:>16.6g} "
                  f"{'ms':<10} {adapt['samples']:>8}  sim")
        else:
            print(f"  adapt_latency_*: omitted, {adapt['samples']} "
                  "reconfigurations (p90 needs 100)")
    speed = record.get("host_speed")
    if speed is not None and "raw_run_s" in speed:
        print(f"  host speed: reference loop median "
              f"{statistics.median(speed['reference_samples_s']):.4f} s over "
              f"{len(speed['reference_samples_s'])} timings, nominal "
              f"{speed['nominal_reference_s']} s, factor "
              f"{speed['factor']:.4f}; unscaled setup_s "
              f"{speed['raw_setup_s']:.4f} s, run_s "
              f"{speed['raw_run_s']:.4f} s")
    if "counts" in record:
        print("  counts: " + " ".join(f"{key}={value}" for key, value
                                      in record["counts"].items()))
    spans = record.get("spans", {})
    if spans:
        print("  span self-time shares (traced run):")
        for name, entry in list(spans.items())[:16]:
            print(f"    {name:<34} {entry['share']:>7.1%} "
                  f"{entry['calls']:>10} calls")
    for problem in record.get("problems", []) + record.get("errors", []):
        print(f"  FAILED: {problem}")
    print(f"  operations: attempted={outcome['attempted']} "
          f"failed={outcome['failed']} correct={outcome['correct']}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    """``(name, unit)`` of each metric ``BENCHMARK.json`` declares for this
    kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"])
            for entry in declared["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace:
        outcome = traced(args.workload, args.seed)
    else:
        outcome = end_to_end(args.workload, args.seed, args.seconds)
    declared = declared_metrics(args.trace)
    emitted = [(name, entry["unit"])
               for name, entry in outcome["metrics"].items()]
    if emitted and emitted != declared:
        outcome["correct"] = False
        outcome["record"].setdefault("problems", []).append(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(emitted) ^ set(declared))}")
    report(args, outcome)
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in outcome["metrics"].items()},
    }))
    return 0
