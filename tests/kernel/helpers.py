"""Shared micro-layers used by the kernel test-suite."""

from __future__ import annotations

from typing import Optional

from repro.kernel import (ChannelClose, ChannelInit, Event, Layer,
                          SendableEvent, Session)


class PingEvent(SendableEvent):
    """A sendable test event."""


class PongEvent(SendableEvent):
    """A second, distinct sendable test event."""


class UntypedEvent(Event):
    """An event no recorder layer declares interest in."""


class RecorderSession(Session):
    """Records every event it sees, then forwards it."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.seen: list[Event] = []
        self.inits = 0
        self.closes = 0

    def handle(self, event: Event) -> None:
        self.seen.append(event)
        if isinstance(event, ChannelInit):
            self.inits += 1
        elif isinstance(event, ChannelClose):
            self.closes += 1
        event.go()

    def seen_types(self) -> list[str]:
        return [type(event).__name__ for event in self.seen]


class RecorderLayer(Layer):
    """Accepts :class:`PingEvent` only; records traffic."""

    accepted_events = (PingEvent,)
    session_class = RecorderSession


class PongRecorderLayer(RecorderLayer):
    """Accepts :class:`PongEvent` only."""

    accepted_events = (PongEvent,)


class AllSendableRecorderLayer(RecorderLayer):
    """Accepts any :class:`SendableEvent` (isinstance matching)."""

    accepted_events = (SendableEvent,)


class DownOnlyPingRecorderLayer(RecorderLayer):
    """Accepts Ping and Pong events, but of UP events only Pong ones."""

    accepted_events = (PingEvent, PongEvent)
    accepted_up = (PongEvent,)


class ConsumerSession(RecorderSession):
    """Records events but never forwards them (except lifecycle events)."""

    def handle(self, event: Event) -> None:
        self.seen.append(event)
        if isinstance(event, ChannelInit):
            self.inits += 1
            event.go()
        elif isinstance(event, ChannelClose):
            self.closes += 1
            event.go()


class ConsumerLayer(Layer):
    """Swallows every PingEvent it sees."""

    accepted_events = (PingEvent,)
    session_class = ConsumerSession


class HoldingSession(RecorderSession):
    """Parks events instead of forwarding; release with :meth:`release_all`."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        self.held: list[Event] = []

    def handle(self, event: Event) -> None:
        self.seen.append(event)
        if isinstance(event, ChannelInit):
            self.inits += 1
            event.go()
            return
        if isinstance(event, ChannelClose):
            self.closes += 1
            event.go()
            return
        self.held.append(event)

    def release_all(self) -> None:
        pending, self.held = self.held, []
        for event in pending:
            event.go()


class HoldingLayer(Layer):
    """A blocking layer: holds PingEvents until explicitly released."""

    accepted_events = (PingEvent,)
    session_class = HoldingSession


def build_channel(kernel, layers, name: str = "test", start: bool = True):
    """Compose ``layers`` (bottom→top) into a started channel."""
    from repro.kernel import QoS
    qos = QoS(f"{name}-qos", layers)
    channel = qos.create_channel(name, kernel)
    if start:
        channel.start()
    return channel
