"""Span tracing of the program's layer entry points, from outside ``src/``.

:func:`install` wraps the public entry points of every layer with timing
wrappers that record into a :class:`Tracer`, and returns the function that
restores the originals; :func:`traced_engine_factory` adds the engine's
spans.  Some modules import functions by name, so a function is
replaced in *every* loaded ``repro`` module that holds it; modules loaded
later import the wrapper from the patched defining module.

Each span records its name, start, end and parent span; all spans opened
while one engine callback runs share that callback's trace id.  A span's
self time is its duration minus the time its child spans cover.  Counts and
self time are aggregated exactly for every span; the raw spans go into a
bounded buffer written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from collections import deque
from time import perf_counter
from typing import Any, Callable, Optional

import repro
from repro.simnet.engine import SimEngine

#: Raw spans kept for the span file (the most recent ones).
SPAN_BUFFER = 20_000


class Tracer:
    """Span stack, exact per-name aggregates and a bounded raw-span buffer."""

    def __init__(self, buffer_size: int = SPAN_BUFFER) -> None:
        #: Open spans, innermost last: ``[name, span_id, child_time]``.
        self.stack: list[list] = []
        #: ``name -> [calls, self_s]``.
        self.stats: dict[str, list] = {}
        #: ``(trace_id, span_id, parent_id, name, start, end)``.
        self.spans: deque = deque(maxlen=buffer_size)
        #: Counts taken at the span boundaries (timer events, encoded bytes,
        #: non-empty plans, transmits from live senders, ...).
        self.counts: dict[str, int] = {}
        #: Instances whose own counters the cross-check sums.
        self.buses: list = []
        self.trace_id = 0
        self._next_span = 0

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def run_span(self, name: str, fn: Callable, args: tuple, kwargs: dict,
                 new_trace: bool = False) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        stack = self.stack
        if new_trace:
            self.trace_id += 1
        self._next_span += 1
        span_id = self._next_span
        parent_id = stack[-1][1] if stack else 0
        frame = [name, span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            self.spans.append((self.trace_id, span_id, parent_id, name,
                               start, end))

    def write_spans(self, path) -> None:
        """Write the buffered spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for trace_id, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps(
                    {"trace": trace_id, "span": span_id, "parent": parent,
                     "name": name, "start": start, "end": end}) + "\n")


def _layer_of(module: str) -> str:
    """``repro.protocols.reliable`` -> ``protocols.reliable``."""
    return module[len("repro."):] if module.startswith("repro.") else module


def traced_engine_factory(tracer: Tracer, base: type = SimEngine) -> type:
    """A ``base`` subclass that opens a span around ``run_until``/``step``
    and a new trace around every callback it fires.

    Callback spans are named after the layer that scheduled them
    (``simnet.callback`` for delivery batches, ``kernel.callback`` for
    timers, ``scenarios.callback`` for the schedule), so the engine's own
    self time is the scheduler alone.
    """
    names: dict[str, str] = {}

    def callback_name(callback: Callable) -> str:
        module = getattr(callback, "__module__", None) or "unknown"
        name = names.get(module)
        if name is None:
            layer = _layer_of(module).split(".")[0]
            name = names[module] = f"{layer}.callback"
        return name

    class TracedEngine(base):
        def schedule_at_seq(self, when, seq, callback):
            name = callback_name(callback)

            def traced() -> None:
                tracer.run_span(name, callback, (), {}, new_trace=True)

            return super().schedule_at_seq(when, seq, traced)

        def run_until(self, deadline):
            return tracer.run_span("simnet.engine", super().run_until,
                                   (deadline,), {})

        def step(self):
            return tracer.run_span("simnet.engine", super().step, (), {})

    return TracedEngine


def _import_all() -> None:
    """Load every ``repro`` module, so each by-name binding exists before
    the wrappers are installed."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _rebind(original: Any, wrapper: Any,
            undo: list[Callable[[], None]]) -> int:
    """Replace ``original`` by ``wrapper`` in every loaded ``repro``
    module and class namespace; returns the number of bindings replaced."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for namespace in [module] + [value for value in vars(module).values()
                                     if isinstance(value, type) and
                                     value.__module__ == name]:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    undo.append(lambda ns=namespace, a=attr:
                                setattr(ns, a, original))
                    replaced += 1
    return replaced


def _wrap_function(tracer: Tracer, original: Callable, name: str,
                   undo: list, nested_passthrough: bool = False,
                   after: Optional[Callable[[tuple, Any], None]] = None
                   ) -> None:
    run_span = tracer.run_span
    stack = tracer.stack

    def wrapper(*args, **kwargs):
        if nested_passthrough and stack and stack[-1][0] == name:
            return original(*args, **kwargs)
        result = run_span(name, original, args, kwargs)
        if after is not None:
            after(args, result)
        return result

    if _rebind(original, wrapper, undo) == 0:
        raise RuntimeError(f"no binding of {name} found to wrap")


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _wrap_method(tracer: Tracer, classes: list[type], method: str,
                 name: Any, undo: list, nested_passthrough: bool = False,
                 before: Optional[Callable[[tuple], None]] = None,
                 after: Optional[Callable[[tuple, Any], None]] = None
                 ) -> None:
    """Wrap ``method`` on every class of ``classes`` (and subclass) that
    defines it, and every alias of it.  ``name`` is a span name or a
    callable of ``self``."""
    run_span = tracer.run_span
    stack = tracer.stack
    seen = set()
    for root in classes:
        for cls in _subclasses(root):
            original = cls.__dict__.get(method)
            if original is None or cls in seen:
                continue
            seen.add(cls)

            def wrapper(self, *args, _original=original, **kwargs):
                span = name(self) if callable(name) else name
                if nested_passthrough and stack and stack[-1][0] == span:
                    return _original(self, *args, **kwargs)
                if before is not None:
                    before((self,) + args)
                result = run_span(span, _original, (self,) + args, kwargs)
                if after is not None:
                    after((self,) + args, result)
                return result

            setattr(cls, method, wrapper)
            undo.append(lambda c=cls, o=original: setattr(c, method, o))
            _rebind(original, wrapper, undo)  # aliases of the method


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps."""
    _import_all()
    from repro.context.pubsub import TopicBus
    from repro.core.policy import StaticPolicy
    from repro.core.rules.engine import PolicyEngine
    from repro.federation.router import FederationRouter
    from repro.kernel import codec, message
    from repro.kernel.channel import Channel
    from repro.kernel.events import TimerEvent
    from repro.kernel.message import Message
    from repro.kernel.scheduler import Kernel
    from repro.kernel.session import Session
    from repro.protocols import rs_code
    from repro.simnet.network import Network
    from repro.simnet.stats import NodeStats

    undo: list[Callable[[], None]] = []
    count = tracer.count

    # simnet
    _wrap_method(tracer, [Network], "transmit", "simnet.transmit", undo,
                 before=lambda args: args[1].alive and
                 count("simnet.transmit.accepted"))
    _wrap_counter(NodeStats, "record_received", "simnet.deliveries", tracer,
                  undo)

    # kernel dispatch
    _wrap_method(tracer, [Kernel], "enqueue", "kernel.dispatch", undo,
                 before=lambda args: isinstance(args[1], TimerEvent) and
                 count("kernel.dispatch.timer_calls"))

    # protocol sessions, grouped by the module of the session's class
    session_names: dict[type, str] = {}

    def session_span(session) -> str:
        cls = type(session)
        span = session_names.get(cls)
        if span is None:
            span = session_names[cls] = _layer_of(cls.__module__)
        return span

    _wrap_method(tracer, [Session], "handle", session_span, undo)

    # codec and message
    _wrap_function(tracer, codec.encode_payload, "kernel.codec.encode", undo,
                   after=lambda args, result:
                   count("kernel.codec.encode.bytes", len(result[0])))
    _wrap_function(tracer, codec.decode_payload, "kernel.codec.decode", undo)
    _wrap_function(tracer, message.estimate_size, "kernel.message.size",
                   undo, nested_passthrough=True)
    _wrap_method(tracer, [Message], "copy", "kernel.message.copy", undo)
    _wrap_method(tracer, [Message], "wire_copy", "kernel.message.wire_copy",
                 undo)

    # protocols: Reed-Solomon coding under FEC
    _wrap_function(tracer, rs_code.rs_encode, "protocols.rs_code.encode",
                   undo)
    _wrap_function(tracer, rs_code.rs_decode, "protocols.rs_code.decode",
                   undo)

    # context
    _wrap_method(tracer, [TopicBus], "publish", "context.publish", undo)
    original_init = TopicBus.__init__

    def bus_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.buses.append(self)

    TopicBus.__init__ = bus_init
    undo.append(lambda: setattr(TopicBus, "__init__", original_init))

    # core
    _wrap_method(tracer, [PolicyEngine, StaticPolicy], "decide",
                 "core.decide", undo, nested_passthrough=True,
                 after=lambda args, plan: plan is not None and
                 count("core.plans"))
    _wrap_method(tracer, [Channel], "start", "core.rebuild", undo)

    # federation
    _wrap_method(tracer, [FederationRouter], "publish", "federation.forward",
                 undo)

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()

    return uninstall


def _wrap_counter(cls: type, method: str, name: str, tracer: Tracer,
                  undo: list) -> None:
    """Count calls of ``cls.method`` without opening a span."""
    original = cls.__dict__[method]
    count = tracer.count

    def wrapper(self, *args, **kwargs):
        count(name)
        return original(self, *args, **kwargs)

    setattr(cls, method, wrapper)
    undo.append(lambda: setattr(cls, method, original))
