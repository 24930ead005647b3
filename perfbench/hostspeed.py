"""Host-speed reference: a fixed pure-Python loop timed beside the workload.

The benchmark runs on shared hosts whose single-core speed drifts by tens
of per cent over minutes, and the simulator's run time drifts with it.
:func:`reference_s` times a fixed loop of the same kind of interpreter work
as the simulator (small objects, dict lookups, a heap of pending events)
between the repetitions of a workload; :func:`speed_factor` turns those
timings into the factor that scales the run's host times to a host on
which the loop takes :data:`NOMINAL_REFERENCE_S`.  The loop does not touch
the program under test, so a change to the program moves the scaled times
and a change in host speed moves the loop and the workload together.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: Time of :func:`reference_s` on the host the benchmark was defined on
#: (2-core x86-64, Python 3.11); scaled host times read as seconds there.
NOMINAL_REFERENCE_S = 0.25
#: Events processed by one timing of the loop.
REFERENCE_EVENTS = 30_000
#: After each repetition the loop is timed once per this many seconds of
#: the repetition (at least once), so long repetitions get as many timings
#: per second of workload as short ones: about 12 % of the measuring time.
REPETITION_S_PER_TIMING = 2.0


class _Message:
    __slots__ = ("source", "seq", "body", "meta")

    def __init__(self, source: str, seq: int, body: str) -> None:
        self.source, self.seq, self.body = source, seq, body
        self.meta = {"hops": 0}


class _Node:
    def __init__(self, name: str) -> None:
        self.name = name
        self.seen: dict = {}
        self.log: list = []

    def handle(self, message: _Message) -> bool:
        key = (message.source, message.seq)
        if key in self.seen:
            return False
        self.seen[key] = len(message.body)
        message.meta["hops"] += 1
        if len(self.log) > 4000:
            self.log.clear()
        self.log.append(message)
        return True


def _loop(events: int) -> None:
    rng = random.Random(7)
    nodes = [_Node(f"n{index}") for index in range(32)]
    pending = [(rng.random(), seq, _Message(f"n{seq % 32}", seq,
                                            "x" * (16 + seq % 64)))
               for seq in range(200)]
    heapq.heapify(pending)
    seq = len(pending)
    for _ in range(events):
        when, _, message = heapq.heappop(pending)
        for node in (nodes[message.seq % 32], nodes[message.seq * 7 % 32]):
            if node.handle(message) or message.seq % 3 == 0:
                seq += 1
                heapq.heappush(pending, (when + rng.random(), seq,
                                         _Message(node.name, seq,
                                                  message.body)))
        if len(pending) > 5000:
            pending = heapq.nsmallest(2000, pending)


def reference_s() -> float:
    """Host seconds one run of the reference loop takes now.

    The cyclic collector is off while it runs, so its time does not depend
    on how many objects the program left in the process.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        _loop(REFERENCE_EVENTS)
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def speed_factor(timings: list[float]) -> float:
    """Factor that scales host times measured beside ``timings`` to the
    nominal host: :data:`NOMINAL_REFERENCE_S` over their median."""
    return NOMINAL_REFERENCE_S / statistics.median(timings)
