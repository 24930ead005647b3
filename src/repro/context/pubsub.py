"""Topic-based publish-subscribe (the Cocaditem interface, paper §3.2).

*"The current prototype of Cocaditem implements a topic-based
publish-subscribe interface.  The components interested in this information
(namely the control component) subscribe the topics required for their
operation."*

This is the node-local half: a synchronous topic bus.  Distribution happens
in :mod:`repro.context.cocaditem`, which republishes remote snapshots into
the local bus.  Topics are dot-separated names; a subscription may end in
``.*`` to match a whole subtree (``context.*`` receives every attribute).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

Subscriber = Callable[[str, Any], None]


class Subscription:
    """Handle returned by :meth:`TopicBus.subscribe`; detachable."""

    def __init__(self, bus: "TopicBus", pattern: str,
                 callback: Subscriber) -> None:
        self.bus = bus
        self.pattern = pattern
        self.callback = callback
        self.active = True

    def unsubscribe(self) -> None:
        self.bus._remove(self)


class TopicBus:
    """Synchronous topic-based publish-subscribe bus."""

    def __init__(self) -> None:
        self._exact: dict[str, list[Subscription]] = defaultdict(list)
        self._prefixes: dict[str, list[Subscription]] = defaultdict(list)
        #: ``topic -> matching subscriptions``, in notification order,
        #: resolved on the topic's first publish; cleared whenever a
        #: subscription is added or removed.
        self._routes: dict[str, tuple[Subscription, ...]] = {}
        #: Total publications, for diagnostics.
        self.published_count = 0

    def subscribe(self, pattern: str, callback: Subscriber) -> Subscription:
        """Register ``callback`` for ``pattern``.

        ``pattern`` is an exact topic name, or a prefix wildcard such as
        ``"context.*"`` matching every topic under ``context.``.
        """
        subscription = Subscription(self, pattern, callback)
        if pattern.endswith(".*"):
            self._prefixes[pattern[:-2]].append(subscription)
        else:
            self._exact[pattern].append(subscription)
        self._routes.clear()
        return subscription

    def _remove(self, subscription: Subscription) -> None:
        subscription.active = False
        pattern = subscription.pattern
        pool = self._prefixes[pattern[:-2]] if pattern.endswith(".*") \
            else self._exact[pattern]
        if subscription in pool:
            pool.remove(subscription)
        self._routes.clear()

    def _matching(self, topic: str) -> tuple[Subscription, ...]:
        """Subscriptions ``topic`` reaches: exact ones first, then
        prefixes from the shortest to the longest."""
        matching = list(self._exact.get(topic, ()))
        parts = topic.split(".")
        for cut in range(1, len(parts) + 1):
            matching.extend(self._prefixes.get(".".join(parts[:cut]), ()))
        return tuple(matching)

    def publish(self, topic: str, data: Any) -> int:
        """Deliver ``data`` to every matching subscriber.

        The matching set is fixed when the publish starts; a subscription
        removed by an earlier callback of the same publish is skipped.
        Returns the number of subscribers notified.
        """
        self.published_count += 1
        route = self._routes.get(topic)
        if route is None:
            route = self._routes[topic] = self._matching(topic)
        notified = 0
        for subscription in route:
            if subscription.active:
                subscription.callback(topic, data)
                notified += 1
        return notified

    def subscriber_count(self, topic: str) -> int:
        """How many active subscriptions would see ``topic``."""
        return len(self._matching(topic))
