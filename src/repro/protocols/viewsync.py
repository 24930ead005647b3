"""View-synchrony blocking layer.

Sits directly above the membership layer.  When a flush starts
(:class:`BlockEvent` from below) it stops new group sends — queueing them —
and releases the queue when the next view is installed.  Together with the
reliable layer's cut this gives the classic view-synchrony guarantee: all
members deliver the same set of messages in each view, and no message
straddles a view change.

The session is designed to be **preserved across reconfiguration** (session
label ``viewsync`` in the stack templates): sends queued while the Core
reconfigurator swaps the stack are re-injected into the *new* channel when
its first view installs, so no application message is lost during
adaptation.
"""

from __future__ import annotations

from repro.kernel.events import Direction, Event, SendableEvent
from repro.kernel.layer import Layer
from repro.kernel.registry import register_layer
from repro.protocols.base import GroupSession
from repro.protocols.events import (BlockEvent, OrderMessage, QuiescentEvent,
                                    SequencedEvent, ViewEvent)


class ViewSyncSession(GroupSession):
    """Blocking state: a flag plus the queue of held sends."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer)
        #: Blocked until the first view installs.
        self.blocked = True
        self._held: list[SendableEvent] = []
        #: Stale order announcements dropped at view changes (diagnostics).
        self.stale_dropped = 0

    def on_view(self, event: ViewEvent) -> None:
        self.blocked = False
        self._release(event.channel)

    def on_event(self, event: Event) -> None:
        if isinstance(event, BlockEvent):
            self.blocked = True
            event.go()
            return
        if isinstance(event, QuiescentEvent):
            # Stack about to be replaced; stay blocked.
            self.blocked = True
            event.go()
            return
        if isinstance(event, SequencedEvent) and \
                event.direction is Direction.DOWN and self.blocked:
            self._held.append(event)
            return
        event.go()

    def _release(self, channel) -> None:
        """Re-issue held sends on the (possibly new) live channel.

        Order announcements (:class:`OrderMessage`) are view-local: their
        references to per-view sequence numbers are meaningless after the
        change, and the total-order layer already drained the messages they
        would have ordered deterministically.  They are dropped, counted.
        """
        held, self._held = self._held, []
        for event in held:
            if isinstance(event, OrderMessage):
                self.stale_dropped += 1
                continue
            if event.channel is channel and channel.state.value == "started" \
                    and event._armed:
                event.go()
            else:
                # Re-injection into a (possibly new) channel: clone() is an
                # O(1) handle, so holding sends across a reconfiguration
                # costs queue slots, not message copies.
                clone = event.clone()
                self.send_down(clone, channel=channel)


@register_layer
class ViewSyncLayer(Layer):
    """Blocks group sends during flushes; releases them on view install."""

    layer_name = "view_sync"
    accepted_events = (SequencedEvent, BlockEvent, QuiescentEvent, ViewEvent)
    # An UP SequencedEvent is only forwarded; only DOWN sends are held.
    accepted_up = (BlockEvent, QuiescentEvent, ViewEvent)
    provided_events = ()
    session_class = ViewSyncSession
