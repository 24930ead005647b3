"""Channels: live instances of a QoS with one session per layer.

A channel routes typed events through its session stack.  Route optimization
follows the paper (§3.1): using the layers' ``accepted_events`` (and, for
UP events, ``accepted_up``) declarations the kernel computes, per event type
and direction, the exact sequence of sessions an event visits — uninterested
layers are skipped entirely.

Lifecycle::

    CREATED --start()--> STARTED --close()--> CLOSED

``start()`` injects a :class:`~repro.kernel.events.ChannelInit` travelling
bottom → top; ``close()`` injects a
:class:`~repro.kernel.events.ChannelClose` travelling top → bottom, after
which the channel cancels its timers and unbinds its sessions.  The Core
reconfigurator relies on this lifecycle to tear a stack down and rebuild it
from an XML description while preserving chosen sessions.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.kernel.errors import ChannelStateError, EventRoutingError
from repro.kernel.events import (BackoffTimerEvent, ChannelClose,
                                 ChannelEvent, ChannelInit, Direction,
                                 EchoEvent, Event, PeriodicTimerEvent,
                                 TimerEvent)
from repro.kernel.layer import Layer
from repro.kernel.qos import QoS
from repro.kernel.scheduler import Kernel
from repro.kernel.session import Session


class ChannelState(enum.Enum):
    """Channel lifecycle states."""

    CREATED = "created"
    STARTED = "started"
    CLOSING = "closing"
    CLOSED = "closed"


class TimerHandle:
    """Cancellation handle for a timer armed through a channel."""

    def __init__(self, channel: "Channel") -> None:
        self._channel = channel
        self._clock_handle: Any = None
        self.cancelled = False
        #: The armed timer event (introspection: a backoff timer's current
        #: ``interval``/``attempt`` live on the event between fires).
        self.event: Optional[TimerEvent] = None

    def cancel(self) -> None:
        """Cancel the timer; periodic timers stop re-arming."""
        self.cancelled = True
        if self._clock_handle is not None:
            self._clock_handle.cancel()
        self._channel._live_timers.discard(self)


class Channel:
    """A live protocol stack built from a :class:`~repro.kernel.qos.QoS`.

    Args:
        name: channel name; also used by XML descriptions and Core configs.
        qos: the validated composition to instantiate.
        kernel: hosting kernel (per node).
        preset_sessions: layer index → session to reuse instead of creating a
            fresh one (session sharing / reconfiguration preservation).
    """

    def __init__(self, name: str, qos: QoS, kernel: Kernel,
                 preset_sessions: Optional[dict[int, Session]] = None) -> None:
        self.name = name
        self.qos = qos
        self.kernel = kernel
        self.state = ChannelState.CREATED
        #: Node address of this channel's endpoint; stamped by the transport
        #: layer during ChannelInit so upper layers can learn "who am I".
        self.local_address: Optional[str] = None
        preset_sessions = preset_sessions or {}
        self.sessions: list[Session] = []
        for index, layer in enumerate(qos.layers):
            session = preset_sessions.get(index) or layer.create_session()
            self.sessions.append(session)
        #: Routes from a channel endpoint, keyed ``(event type, is-UP,
        #: start index)``.
        self._route_cache: dict[tuple[type, bool, int], list[Session]] = {}
        #: Routes bound per injecting session, keyed ``(event type, is-UP,
        #: session)`` — the lookup :meth:`insert_from` makes for every
        #: event a layer emits.  The keys hold no :class:`Direction`: an
        #: enum member hashes at Python level, a bool and a session in C.
        self._session_routes: dict[tuple[type, bool, Session],
                                   list[Session]] = {}
        self._live_timers: set[TimerHandle] = set()
        kernel._register_channel(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind sessions and send :class:`ChannelInit` bottom → top."""
        if self.state is not ChannelState.CREATED:
            raise ChannelStateError(
                f"channel {self.name!r} cannot start from {self.state}")
        for session in self.sessions:
            session._bound(self)
        self.state = ChannelState.STARTED
        self.insert(ChannelInit(), Direction.UP)

    def close(self) -> None:
        """Send :class:`ChannelClose` top → bottom, then release resources."""
        if self.state is not ChannelState.STARTED:
            raise ChannelStateError(
                f"channel {self.name!r} cannot close from {self.state}")
        self.state = ChannelState.CLOSING
        self.insert(ChannelClose(), Direction.DOWN)

    def _finalize_close(self) -> None:
        for handle in list(self._live_timers):
            handle.cancel()
        for session in self.sessions:
            session._unbound(self)
        self.state = ChannelState.CLOSED
        self.kernel._unregister_channel(self)

    # -- introspection ---------------------------------------------------------

    def layer_names(self) -> list[str]:
        """Registry names of the live stack, bottom → top."""
        return self.qos.layer_names()

    def session_of(self, layer_type: type[Layer]) -> Optional[Session]:
        """Return the session of the first layer matching ``layer_type``."""
        for layer, session in zip(self.qos.layers, self.sessions):
            if isinstance(layer, layer_type):
                return session
        return None

    def session_named(self, layer_name: str) -> Optional[Session]:
        """Return the session whose layer has registry name ``layer_name``."""
        for layer, session in zip(self.qos.layers, self.sessions):
            if layer.name() == layer_name:
                return session
        return None

    def index_of(self, session: Session) -> int:
        """Stack index of ``session`` (bottom = 0)."""
        try:
            return self.sessions.index(session)
        except ValueError:
            raise EventRoutingError(
                f"{session!r} is not part of channel {self.name!r}") from None

    # -- routing ---------------------------------------------------------------

    def _route_for(self, event: Event, up: bool,
                   start: int) -> list[Session]:
        """Sessions ``event`` visits, starting at stack index ``start``.

        ``start`` is inclusive.  For UP events the route walks indices
        ``start, start+1, ...``; for DOWN events ``start, start-1, ...``
        (a ``start`` past either end yields the empty route).
        """
        key = (type(event), up, start)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        implicit = isinstance(event, ChannelEvent)
        if up:
            candidates = list(enumerate(self.qos.layers))[start:]
        else:
            candidates = list(enumerate(self.qos.layers))[:start + 1][::-1]
        route = [self.sessions[index] for index, layer in candidates
                 if implicit or layer.accepts(event, up)]
        self._route_cache[key] = route
        return route

    # -- insertion ----------------------------------------------------------------

    def insert(self, event: Event, direction: Direction) -> None:
        """Insert ``event`` at a channel endpoint.

        UP events enter below the bottom layer (e.g. a packet arriving from
        the network); DOWN events enter above the top layer.
        """
        self._check_live()
        up = direction is Direction.UP
        route = self._route_for(event, up, 0 if up else len(self.sessions) - 1)
        event._bind(self, direction, route, source=None)
        self._continue(event)

    def insert_from(self, session: Session, event: Event,
                    direction: Direction) -> None:
        """Insert ``event`` travelling from ``session``'s stack position."""
        self._check_live()
        up = direction is Direction.UP
        key = (type(event), up, session)
        route = self._session_routes.get(key)
        if route is None:
            position = self.index_of(session)
            route = self._session_routes[key] = self._route_for(
                event, up, position + 1 if up else position - 1)
        event._bind(self, direction, route, source=session)
        self._continue(event)

    def _check_live(self) -> None:
        if self.state not in (ChannelState.STARTED, ChannelState.CLOSING):
            raise ChannelStateError(
                f"channel {self.name!r} is {self.state.value}; cannot route")

    # -- dispatch (kernel-internal) ----------------------------------------------

    def _continue(self, event: Event) -> None:
        """Advance ``event``: enqueue its next hop or handle end-of-route."""
        if event._index < len(event._route):
            self.kernel.enqueue(event)
            return
        # End of route.
        if isinstance(event, EchoEvent) and event.direction is not None:
            self.insert(event.wrapped, event.direction.invert())
        elif isinstance(event, ChannelClose):
            self._finalize_close()

    # -- timers ---------------------------------------------------------------------

    def set_timer(self, delay: float, event: TimerEvent,
                  session: Session) -> TimerHandle:
        """Arm ``event`` for delivery to ``session`` after ``delay`` seconds.

        Periodic timer events re-arm automatically with their ``interval``
        until cancelled or until the channel closes; backoff timer events
        re-arm with their next (stretched) interval.  The re-arm happens
        at fire time — between fires exactly one clock entry exists, so a
        backoff loop costs one scheduler event per attempt.
        """
        self._check_live()
        handle = TimerHandle(self)
        handle.event = event

        def fire() -> None:
            self._live_timers.discard(handle)
            if handle.cancelled or self.state is ChannelState.CLOSED:
                return
            event.fired_at = self.kernel.clock.now()
            event._bind(self, Direction.UP, [session], source=None)
            self.kernel.enqueue(event)
            # The one site that enqueues timer events, once per fire.
            self.kernel.timer_dispatched_count += 1
            if handle.cancelled:
                # The dispatched handler cancelled its own timer.
                return
            if isinstance(event, PeriodicTimerEvent):
                rearm_after: Optional[float] = event.interval
            elif isinstance(event, BackoffTimerEvent):
                rearm_after = event.advance()
            else:
                rearm_after = None
            if rearm_after is not None:
                handle._clock_handle = self.kernel.clock.call_later(
                    rearm_after, fire)
                self._live_timers.add(handle)

        handle._clock_handle = self.kernel.clock.call_later(delay, fire)
        self._live_timers.add(handle)
        return handle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Channel {self.name} ({self.state.value}) "
                f"[{' / '.join(self.layer_names())}]>")
