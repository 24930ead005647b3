"""Channel routing, lifecycle and session-sharing behaviour."""

from __future__ import annotations

import pytest

from repro.kernel import (ChannelState, ChannelStateError, DebugEvent,
                          Direction, EchoEvent, EventRoutingError, Kernel,
                          Message, QoS, SendableEvent)
from repro.protocols import (ApplicationMessage, BestEffortMulticastLayer,
                             BlockEvent, View, ViewEvent, ViewSyncLayer)
from tests.kernel.helpers import (AllSendableRecorderLayer, ConsumerLayer,
                                  DownOnlyPingRecorderLayer, HoldingLayer,
                                  PingEvent, PongEvent, PongRecorderLayer,
                                  RecorderLayer, build_channel)


@pytest.fixture
def kernel():
    return Kernel(name="test-node")


class TestLifecycle:
    def test_start_delivers_channel_init_bottom_up(self, kernel):
        bottom, middle, top = RecorderLayer(), RecorderLayer(), RecorderLayer()
        channel = build_channel(kernel, [bottom, middle, top])
        assert channel.state is ChannelState.STARTED
        for session in channel.sessions:
            assert session.inits == 1
        # Bottom sees init before top.
        assert channel.sessions[0].seen[0] is channel.sessions[1].seen[0]

    def test_close_delivers_channel_close_top_down_then_finalizes(self, kernel):
        channel = build_channel(kernel, [RecorderLayer(), RecorderLayer()])
        channel.close()
        assert channel.state is ChannelState.CLOSED
        for session in channel.sessions:
            assert session.closes == 1
            assert channel not in session.channels

    def test_cannot_start_twice(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()])
        with pytest.raises(ChannelStateError):
            channel.start()

    def test_cannot_route_after_close(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()])
        channel.close()
        with pytest.raises(ChannelStateError):
            channel.insert(PingEvent(), Direction.UP)

    def test_close_before_start_rejected(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()], start=False)
        with pytest.raises(ChannelStateError):
            channel.close()


class TestRouting:
    def test_event_visits_only_interested_layers(self, kernel):
        ping_layer = RecorderLayer()
        pong_layer = PongRecorderLayer()
        channel = build_channel(kernel, [ping_layer, pong_layer])
        channel.insert(PingEvent(), Direction.UP)
        ping_session = channel.sessions[0]
        pong_session = channel.sessions[1]
        assert "PingEvent" in ping_session.seen_types()
        assert "PingEvent" not in pong_session.seen_types()

    def test_isinstance_matching_accepts_subclasses(self, kernel):
        generic = AllSendableRecorderLayer()
        channel = build_channel(kernel, [generic])
        channel.insert(PingEvent(), Direction.UP)
        channel.insert(PongEvent(), Direction.UP)
        names = channel.sessions[0].seen_types()
        assert names.count("PingEvent") == 1
        assert names.count("PongEvent") == 1

    def test_up_route_visits_bottom_to_top(self, kernel):
        layers = [RecorderLayer() for _ in range(3)]
        channel = build_channel(kernel, layers)
        event = PingEvent()
        channel.insert(event, Direction.UP)
        order = [session for session in channel.sessions
                 if event in session.seen]
        assert order == channel.sessions

    def test_down_route_visits_top_to_bottom(self, kernel):
        layers = [RecorderLayer() for _ in range(3)]
        channel = build_channel(kernel, layers)
        event = PingEvent()
        channel.insert(event, Direction.DOWN)
        for session in channel.sessions:
            assert event in session.seen
        top_session = channel.sessions[-1]
        bottom_session = channel.sessions[0]
        assert top_session.seen.index(event) <= bottom_session.seen.index(event)

    def test_consumed_event_stops(self, kernel):
        bottom = RecorderLayer()
        consumer = ConsumerLayer()
        top = RecorderLayer()
        channel = build_channel(kernel, [bottom, consumer, top])
        channel.insert(PingEvent(), Direction.UP)
        assert "PingEvent" in channel.sessions[0].seen_types()
        assert "PingEvent" in channel.sessions[1].seen_types()
        assert "PingEvent" not in channel.sessions[2].seen_types()

    def test_insert_from_starts_after_source(self, kernel):
        layers = [RecorderLayer() for _ in range(3)]
        channel = build_channel(kernel, layers)
        middle_session = channel.sessions[1]
        event = PingEvent()
        middle_session.send_up(event)
        assert event not in channel.sessions[0].seen
        assert event not in channel.sessions[1].seen
        assert event in channel.sessions[2].seen

    def test_insert_from_down_starts_below_source(self, kernel):
        layers = [RecorderLayer() for _ in range(3)]
        channel = build_channel(kernel, layers)
        middle_session = channel.sessions[1]
        event = PingEvent()
        middle_session.send_down(event)
        assert event in channel.sessions[0].seen
        assert event not in channel.sessions[2].seen

    def test_insert_from_foreign_session_raises(self, kernel):
        channel = build_channel(kernel, [RecorderLayer() for _ in range(2)])
        other = build_channel(kernel, [RecorderLayer()], name="other")
        # Bind the member session's route first: the per-session route
        # cache must not answer for a session outside the channel.
        channel.sessions[0].send_up(PingEvent())
        with pytest.raises(EventRoutingError):
            channel.insert_from(other.sessions[0], PingEvent(), Direction.UP)
        with pytest.raises(EventRoutingError):
            channel.insert_from(other.sessions[0], PingEvent(),
                                Direction.DOWN)

    def test_send_from_top_edge_is_silent_drop(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()])
        event = PingEvent()
        channel.sessions[0].send_up(event)  # falls off the top
        assert event not in channel.sessions[0].seen

    def test_double_go_raises(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()])
        event = PingEvent()
        channel.insert(event, Direction.UP)
        with pytest.raises(EventRoutingError):
            event.go()

    def test_debug_event_visits_every_layer(self, kernel):
        ping_layer = RecorderLayer()
        pong_layer = PongRecorderLayer()
        channel = build_channel(kernel, [ping_layer, pong_layer])
        event = DebugEvent()
        channel.insert(event, Direction.UP)
        for session in channel.sessions:
            assert event in session.seen


class TestDirectionalRoutes:
    """``accepted_up`` narrows the UP routes of a layer, not its DOWN ones."""

    def test_narrow_up_layer_skipped_on_up_routes_only(self, kernel):
        channel = build_channel(kernel, [RecorderLayer(),
                                         DownOnlyPingRecorderLayer(),
                                         RecorderLayer()])
        narrow = channel.sessions[1]
        up_ping = PingEvent()
        channel.insert(up_ping, Direction.UP)
        assert up_ping in channel.sessions[2].seen
        assert up_ping not in narrow.seen
        down_ping = PingEvent()
        channel.insert(down_ping, Direction.DOWN)
        assert down_ping in narrow.seen
        up_pong = PongEvent()
        channel.sessions[0].send_up(up_pong)
        assert up_pong in narrow.seen

    def test_channel_events_still_visit_narrow_layer(self, kernel):
        channel = build_channel(kernel, [DownOnlyPingRecorderLayer()])
        narrow = channel.sessions[0]
        channel.close()
        assert (narrow.inits, narrow.closes) == (1, 1)
        assert narrow.seen_types() == ["ChannelInit", "ChannelClose"]


class _TopLayer(RecorderLayer):
    accepted_events = (ApplicationMessage, BlockEvent, ViewEvent)


class _ForwardingBeb(BestEffortMulticastLayer):
    accepted_up = None


class _ForwardingViewSync(ViewSyncLayer):
    accepted_up = None


class TestPassThroughSkipped:
    """``beb`` and ``view_sync`` only forward UP application messages."""

    @staticmethod
    def _stack(kernel, beb, view_sync):
        return build_channel(kernel, [beb, view_sync, _TopLayer()])

    @staticmethod
    def _dispatches(kernel, channel, event):
        before = kernel.dispatched_count
        channel.insert(event, Direction.UP)
        return kernel.dispatched_count - before

    def test_up_application_message_skips_beb_and_view_sync(self, kernel):
        channel = self._stack(kernel, BestEffortMulticastLayer(members="a,b"),
                              ViewSyncLayer())
        message = ApplicationMessage(message=Message(payload="hi"))
        assert self._dispatches(kernel, channel, message) == 1
        assert message in channel.sessions[2].seen

    def test_up_block_and_view_still_reach_view_sync(self, kernel):
        channel = self._stack(kernel, BestEffortMulticastLayer(members="a,b"),
                              ViewSyncLayer())
        beb, view_sync, top = channel.sessions
        channel.insert(ViewEvent(View("g", 1, ("a", "b", "c"))), Direction.UP)
        assert not view_sync.blocked
        assert beb.members == view_sync.members == ("a", "b", "c")
        channel.insert(BlockEvent(2), Direction.UP)
        assert view_sync.blocked
        assert top.seen_types()[-2:] == ["ViewEvent", "BlockEvent"]

    def test_dispatch_count_drops_by_skipped_hops(self, kernel):
        narrow = self._stack(kernel, BestEffortMulticastLayer(members="a,b"),
                             ViewSyncLayer())
        forwarding = self._stack(kernel, _ForwardingBeb(members="a,b"),
                                 _ForwardingViewSync())
        counts = [self._dispatches(kernel, channel, ApplicationMessage(
            message=Message(payload="hi"))) for channel in (narrow, forwarding)]
        assert counts == [1, 3]


class TestEcho:
    def test_echo_bounces_wrapped_event_back(self, kernel):
        layers = [RecorderLayer() for _ in range(2)]
        channel = build_channel(kernel, layers)
        wrapped = PingEvent()
        echo = EchoEvent(wrapped)
        channel.insert(echo, Direction.DOWN)
        # The wrapped event re-enters at the bottom going UP.
        assert wrapped in channel.sessions[0].seen
        assert wrapped in channel.sessions[1].seen
        assert channel.sessions[0].seen.index(wrapped) is not None


class TestBlockingLayer:
    def test_held_events_resume_on_release(self, kernel):
        holder = HoldingLayer()
        top = RecorderLayer()
        channel = build_channel(kernel, [holder, top])
        event = PingEvent()
        channel.insert(event, Direction.UP)
        holding_session = channel.sessions[0]
        assert event in holding_session.held
        assert event not in channel.sessions[1].seen
        holding_session.release_all()
        assert event in channel.sessions[1].seen


class TestSessionSharing:
    def test_preset_session_shared_across_channels(self, kernel):
        layer_a = RecorderLayer()
        qos = QoS("q", [layer_a])
        first = qos.create_channel("one", kernel)
        first.start()
        shared = first.sessions[0]
        second = qos.create_channel("two", kernel, preset_sessions={0: shared})
        second.start()
        assert second.sessions[0] is shared
        assert set(shared.channels) == {first, second}
        first.insert(PingEvent(), Direction.UP)
        second.insert(PingEvent(), Direction.UP)
        assert len([e for e in shared.seen if isinstance(e, PingEvent)]) == 2

    def test_shared_session_requires_explicit_channel_for_sends(self, kernel):
        layer_a = RecorderLayer()
        qos = QoS("q", [layer_a])
        first = qos.create_channel("one", kernel)
        first.start()
        shared = first.sessions[0]
        second = qos.create_channel("two", kernel, preset_sessions={0: shared})
        second.start()
        with pytest.raises(EventRoutingError):
            shared.send_up(PingEvent())  # ambiguous: two bound channels
        shared.send_up(PingEvent(), channel=first)  # explicit is fine


class TestIntrospection:
    def test_layer_names_bottom_up(self, kernel):
        channel = build_channel(kernel, [RecorderLayer(), PongRecorderLayer()])
        assert channel.layer_names() == ["recorder", "pong_recorder"]

    def test_session_lookup_by_type_and_name(self, kernel):
        channel = build_channel(kernel, [RecorderLayer(), PongRecorderLayer()])
        assert channel.session_of(PongRecorderLayer) is channel.sessions[1]
        assert channel.session_named("recorder") is channel.sessions[0]
        assert channel.session_named("absent") is None

    def test_kernel_tracks_registered_channels(self, kernel):
        channel = build_channel(kernel, [RecorderLayer()], name="data")
        assert kernel.find_channel("data") is channel
        channel.close()
        assert kernel.find_channel("data") is None
