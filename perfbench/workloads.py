"""Seeded scenario workloads of the benchmark.

Each builder takes the benchmark seed and returns a plain
:class:`~repro.scenarios.Scenario`; the program under test receives only
that scenario (and the same seed for :func:`repro.scenarios.run_scenario`).
Every workload is an open loop in simulated time: chat bursts fire on their
schedule whatever the stack is doing, so a stall delays every later message.

Why each workload exists, and which layers it loads, is written down in
``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import random

from repro.federation.library import day_night_migration
from repro.scenarios import (ChatBurst, Handoff, NodeSpec, Scenario, SetLoss,
                             bernoulli, churn_storm)

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seeds kept out of every tuning run; a later claim is re-checked on them.
HELD_OUT_SEEDS = (9001, 9002, 9003)

#: Quiet tail of the generated workloads: no message is due in the last
#: ``DRAIN_S`` simulated seconds, so every message has time to be delivered
#: (or repaired) before the horizon.  The canned scenarios keep a tail of
#: about ten seconds of their own.
DRAIN_S = 20.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def seeded_variant(scenario: Scenario, rng: random.Random) -> Scenario:
    """A canned scenario whose chat bursts carry seeded texts of 16-48
    bytes; the schedule itself is left as canned."""
    workload = tuple(
        dataclasses.replace(
            burst,
            prefix=f"{burst.prefix}:{_filler(rng, rng.randint(16, 48))}")
        for burst in scenario.workload)
    return dataclasses.replace(scenario, workload=workload)


def churn_flat(seed: int) -> Scenario:
    """The canned ``churn_storm(members=30)``, seeded by
    :func:`seeded_variant`."""
    return seeded_variant(churn_storm(members=30), _rng("churn_flat", seed))


def federated_room(seed: int) -> Scenario:
    """The canned ``day_night_migration(messages=60)``, seeded by
    :func:`seeded_variant`."""
    return seeded_variant(day_night_migration(messages=60),
                          _rng("federated_room", seed))


def _filler(rng: random.Random, size: int) -> str:
    words = ("context", "stack", "relay", "mecho", "parity", "handoff",
             "cell", "group", "view", "flush", "ack", "nack", "wireless")
    text = ""
    while len(text) < size:
        text += rng.choice(words) + " "
    return text[:size].rstrip().replace(" ", "_")


def chat_lossy(seed: int) -> Scenario:
    """Five nodes under the loss-adaptive policy for 1,200 s; the wireless
    loss swaps between about 20 % and 1 % every 20 s, so the stack crosses
    ARQ <-> FEC 59 times while three senders chat at 2 msg/s each.

    The p99 latency is set by the few slowest ARQ -> FEC adaptations (the
    stale loss estimate keeps ARQ running under high loss for 3-8 s), so
    it is averaged over 30 rises of the loss.  A swap instant moves by
    whole 2 s publish periods (-2, 0 or +2 s): shifts within the period
    widened the spread of p99 across seeds.  Each message is its own
    one-message burst, due 0.2-0.8 s after the sender's previous one and
    carrying the first 280-320 bytes of the sender's seeded text: with a
    fixed interval, the messages a stall releases together have latencies
    a whole interval apart, and p99 jumped between those steps from one
    seed to the next.
    """
    rng = _rng("chat_lossy", seed)
    duration = 1200.0
    events = []
    high = True
    for at in range(20, int(duration) - 10, 20):
        level = rng.uniform(0.19, 0.21) if high else rng.uniform(0.008, 0.012)
        events.append(SetLoss(at + 2.0 * rng.randint(-1, 1),
                              segment="wireless",
                              link=bernoulli(round(level, 4))))
        high = not high
    workload = []
    for sender in ("mobile-0", "fixed-0", "mobile-1"):
        text = _filler(rng, 320)
        at = 2.0 + rng.uniform(0.0, 0.5)
        index = 0
        while at < duration - DRAIN_S:
            body = text[:rng.randint(280, 320)]
            workload.append(ChatBurst(start=round(at, 6), sender=sender,
                                      count=1, interval=1.0,
                                      prefix=f"{sender}:{index}:{body}"))
            index += 1
            at += rng.uniform(0.2, 0.8)
    return Scenario(
        name="chat_lossy",
        duration_s=duration,
        nodes=(NodeSpec("mobile-0", "mobile"), NodeSpec("mobile-1", "mobile"),
               NodeSpec("fixed-0", "fixed"), NodeSpec("fixed-1", "fixed"),
               NodeSpec("fixed-2", "fixed")),
        events=tuple(events),
        workload=tuple(workload),
        policy="loss_adaptive",
        wireless=bernoulli(0.01),
    )


def adapt_storm(seed: int) -> Scenario:
    """Six fixed nodes under the hybrid policy for 600 s; about every 1.5 s
    a seed-picked node undocks to the wireless cell and docks back 0.3-0.6 s
    later, so Core keeps swapping plain <-> Mecho.

    The short undocked spell keeps the group on the plain stack for most
    of the run; with spells near half a step the median latency flipped
    between the plain and the Mecho delay from one seed to the next.
    """
    rng = _rng("adapt_storm", seed)
    duration = 600.0
    sender = "fixed-0"
    movers = [f"fixed-{index}" for index in range(1, 6)]
    events = []
    at = 5.0
    while at < duration - 5.0:
        node = rng.choice(movers)
        out = round(at + rng.uniform(-0.3, 0.3), 6)
        back = round(out + rng.uniform(0.3, 0.6), 6)
        events.append(Handoff(out, node=node, to="mobile"))
        events.append(Handoff(back, node=node, to="fixed"))
        at += 1.5
    return Scenario(
        name="adapt_storm",
        duration_s=duration,
        nodes=tuple(NodeSpec(f"fixed-{index}", "fixed")
                    for index in range(6)),
        events=tuple(events),
        workload=(ChatBurst(start=round(1.0 + rng.uniform(0.0, 0.5), 6),
                            sender=sender, count=int((duration - DRAIN_S) * 2),
                            interval=0.5, prefix="storm"),),
    )


#: Workload name -> seeded scenario builder.
WORKLOADS = {
    "churn_flat": churn_flat,
    "chat_lossy": chat_lossy,
    "adapt_storm": adapt_storm,
    "federated_room": federated_room,
}
