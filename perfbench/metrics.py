"""Metric definitions of the benchmark, computed from a finished run.

Everything here is a pure function of the scenario and of what the run
left behind (chat histories, :class:`~repro.scenarios.ScenarioResult`), so
the definitions can be tested on tiny scripted scenarios without timing.
All times in this module are simulated seconds unless a name says ``ms``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.scenarios import Crash, Leave, Scenario

#: Deliveries that reached the receiver through its live group, as opposed
#: to history repair (``"backlog"`` admission replay, ``"recovered"``
#: anti-entropy); only these are latency samples.
LIVE_MARKERS = ("", "fed")

#: A percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10


def supports(samples: int, percentile: float) -> bool:
    """Whether ``samples`` values leave ``TAIL_SAMPLES`` beyond ``percentile``."""
    return samples * (100.0 - percentile) / 100.0 >= TAIL_SAMPLES - 1e-9


def highest_supported(samples: int,
                      candidates: Sequence[float] = (50, 90, 99, 99.9)):
    """The highest of ``candidates`` that ``samples`` values support, or
    ``None`` when not even the lowest is supported."""
    best = None
    for percentile in sorted(candidates):
        if supports(samples, percentile):
            best = percentile
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``; raises when it is unsupported."""
    if not supports(len(values), pct):
        raise ValueError(f"p{pct} needs {TAIL_SAMPLES} samples beyond it; "
                         f"have {len(values)} samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- the chat workload as scheduled ------------------------------------------

def due_times(scenario: Scenario) -> dict[tuple[str, str], float]:
    """``(sender, text) -> due send time`` of every scheduled chat message.

    Mirrors the runner's burst schedule: message ``i`` of a burst is due at
    ``start + i * interval`` and nothing is due at or after the horizon.
    """
    due: dict[tuple[str, str], float] = {}
    for burst in scenario.workload:
        for index in range(burst.count):
            when = burst.start + index * burst.interval
            if when >= scenario.duration_s:
                break
            due[(burst.sender, f"{burst.prefix}-{index}")] = when
    return due


def continuously_live(scenario: Scenario) -> dict[str, float]:
    """``node -> time it is present from`` for every node that never
    crashes or leaves (t=0 members are present from 0)."""
    churned = {event.node for event in scenario.events
               if isinstance(event, (Crash, Leave))}
    return {spec.node_id: spec.join_at or 0.0 for spec in scenario.nodes
            if spec.node_id not in churned}


def expected_pairs(scenario: Scenario) -> set[tuple[str, tuple[str, str]]]:
    """``(receiver, (sender, text))`` pairs a correct run must deliver.

    A message counts when its sender is continuously live and present at
    the due time; a receiver is expected when it is a different, also
    continuously live node that was present at the due time.
    """
    live = continuously_live(scenario)
    pairs = set()
    for (sender, text), due in due_times(scenario).items():
        if live.get(sender, math.inf) > due:
            continue
        for receiver, since in live.items():
            if receiver != sender and since <= due:
                pairs.add((receiver, (sender, text)))
    return pairs


# -- per-run measurements ---------------------------------------------------

@dataclass(frozen=True)
class ChatOutcome:
    """What the chat users saw in one run."""

    #: Live-delivery latencies (ms): delivery time minus due time, for
    #: every receiver other than the sender.
    latencies_ms: tuple[float, ...]
    expected: int
    #: Expected pairs delivered by any path (live or repair).
    expected_delivered: int
    #: Distinct (receiver, message) pairs delivered, receiver != sender.
    delivered_pairs: int
    #: Repair deliveries (``backlog`` and ``recovered`` markers).
    repairs: int

    @property
    def failed(self) -> int:
        return self.expected - self.expected_delivered

    @property
    def delivery_ratio(self) -> float:
        return self.expected_delivered / self.expected if self.expected \
            else 0.0


def chat_outcome(scenario: Scenario,
                 histories: Mapping[str, Iterable]) -> ChatOutcome:
    """Score ``histories`` (node -> ChatDelivery records) against the
    scheduled workload of ``scenario``."""
    due = due_times(scenario)
    expected = expected_pairs(scenario)
    latencies = []
    delivered = set()
    repairs = 0
    for receiver, history in histories.items():
        for delivery in history:
            message = (delivery.source, delivery.text)
            when = due.get(message)
            if when is None or delivery.source == receiver:
                continue
            delivered.add((receiver, message))
            if delivery.marker in LIVE_MARKERS:
                latencies.append((delivery.time - when) * 1000.0)
            else:
                repairs += 1
    return ChatOutcome(
        latencies_ms=tuple(latencies), expected=len(expected),
        expected_delivered=len(expected & delivered),
        delivered_pairs=len(delivered), repairs=repairs)


def adapt_latencies_ms(scenario: Scenario,
                       reconfigurations: Sequence[tuple]) -> list[float]:
    """For each completed reconfiguration, the simulated time (ms) since the
    latest scenario event or join at or before it.  Reconfigurations that
    precede every event (the boot-time deployment) have no cause in the
    schedule and are skipped."""
    causes = sorted([event.at for event in scenario.events] +
                    [spec.join_at for spec in scenario.nodes
                     if spec.join_at is not None])
    latencies = []
    for when, *_ in reconfigurations:
        index = bisect.bisect_right(causes, when)
        if index:
            latencies.append((when - causes[index - 1]) * 1000.0)
    return latencies


def result_digest(result) -> str:
    """Short digest of a :class:`ScenarioResult`; equal digests mean the
    run's whole observable history repeated."""
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]
