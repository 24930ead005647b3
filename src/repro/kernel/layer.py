"""Layers: the static, composable half of a micro-protocol.

An Appia *layer* declares the event types it accepts, provides and requires,
and acts as a factory for *sessions* (the stateful half).  The declarations
drive two kernel services:

* **route optimization** — events of a type a layer did not declare in
  ``accepted_events`` (or, travelling up, in ``accepted_up``) are never
  delivered to its sessions;
* **QoS validation** — a composition is rejected when a layer requires an
  event type that no other layer provides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar, Optional

from repro.kernel.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.session import Session


class Layer:
    """Base class for protocol layers.

    Subclasses declare class attributes:

    Attributes:
        accepted_events: event types whose instances this layer's sessions
            must receive.  Matching is by ``isinstance``, so accepting a base
            type accepts its subclasses.
        accepted_up: the event types the sessions must receive when they
            travel UP; ``None`` (the default) means ``accepted_events``.
            Declared by layers whose handler only forwards (``event.go()``)
            some accepted types on their way up, so routes skip them there.
            Routes therefore depend on direction as well as event type.
        provided_events: event types this layer's sessions may create.
        required_events: event types that must be provided by *another* layer
            in any composition that includes this layer.
    """

    accepted_events: ClassVar[tuple[type[Event], ...]] = ()
    accepted_up: ClassVar[Optional[tuple[type[Event], ...]]] = None
    provided_events: ClassVar[tuple[type[Event], ...]] = ()
    required_events: ClassVar[tuple[type[Event], ...]] = ()

    #: Registry name; defaults to a snake_case rendering of the class name.
    layer_name: ClassVar[Optional[str]] = None

    def __init__(self, **params: Any) -> None:
        """Store configuration parameters (e.g. from an XML description)."""
        self.params: dict[str, Any] = dict(params)

    @classmethod
    def name(cls) -> str:
        """Return the registry name of this layer."""
        if cls.layer_name:
            return cls.layer_name
        return _snake_case(cls.__name__.removesuffix("Layer"))

    def accepts(self, event: Event, up: bool) -> bool:
        """Return ``True`` when this layer declared interest in ``event``
        travelling UP (``up``) or DOWN."""
        accepted = self.accepted_events
        if up and self.accepted_up is not None:
            accepted = self.accepted_up
        return isinstance(event, accepted) if accepted else False

    def create_session(self) -> "Session":
        """Create a fresh session holding this layer's per-channel state.

        Subclasses usually override this to return their dedicated session
        class; the default looks for a ``session_class`` attribute.
        """
        session_class = getattr(self, "session_class", None)
        if session_class is None:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither create_session() "
                "nor session_class")
        return session_class(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Layer {self.name()}>"


def _snake_case(name: str) -> str:
    out = []
    for index, char in enumerate(name):
        if char.isupper() and index > 0 and not name[index - 1].isupper():
            out.append("_")
        out.append(char.lower())
    return "".join(out)
