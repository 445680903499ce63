"""Tests for PHY timing, frame model and the Onoe autorate controller."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.autorate import OnoeRateController
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.radio import (
    RATE_1MBPS,
    RATE_5_5MBPS,
    RATE_11MBPS,
    SUPPORTED_RATES,
    ChannelConfig,
    PhyConfig,
    SimConfig,
)


class TestPhyTiming:
    def test_frame_airtime_scales_with_size_and_rate(self):
        phy = PhyConfig()
        small = phy.frame_airtime(100)
        large = phy.frame_airtime(1500)
        assert large > small
        fast = phy.frame_airtime(1500, bitrate=RATE_11MBPS)
        assert fast < large

    def test_airtime_formula(self):
        phy = PhyConfig(bitrate=RATE_5_5MBPS)
        expected = phy.preamble_time + (1500 + phy.mac_overhead_bytes) * 8 / RATE_5_5MBPS
        assert phy.frame_airtime(1500) == pytest.approx(expected)

    def test_1500b_at_5_5mbps_is_about_2_4ms(self):
        """Sanity-anchor the absolute throughput scale of the simulator."""
        phy = PhyConfig()
        assert 2.0e-3 < phy.frame_airtime(1500) < 3.0e-3

    def test_ack_airtime(self):
        phy = PhyConfig()
        assert phy.ack_airtime() == pytest.approx(
            phy.preamble_time + phy.ack_bytes * 8 / phy.ack_bitrate)

    def test_invalid_bitrate(self):
        with pytest.raises(ValueError):
            PhyConfig().frame_airtime(100, bitrate=0)

    def test_contention_window_doubles_and_caps(self):
        phy = PhyConfig(cw_min=31, cw_max=1023)
        assert phy.contention_window(0) == 31
        assert phy.contention_window(1) == 63
        assert phy.contention_window(10) == 1023

    def test_backoff_time(self):
        phy = PhyConfig()
        assert phy.backoff_time(3) == pytest.approx(3 * phy.slot_time)

    @pytest.mark.parametrize("field, value", [
        ("cw_min", -1),             # used to die at the first contention
        ("cw_max", 15),             # below cw_min: every window silently cw_max
        ("cw_max", 2**32 - 1),      # a window the backoff draw cannot span
        ("retry_limit", -3),        # used to run with an empty window table
        ("slot_time", 0.0),
        ("slot_time", -20e-6),      # used to die mid-run, scheduling in the past
        ("slot_time", float("nan")),
        ("difs", -50e-6),
        ("sifs", -1e-6),
        ("preamble_time", -1.0),
        ("bitrate", 0),
        ("ack_bitrate", -1),
    ])
    def test_bad_values_are_refused_at_construction(self, field, value):
        with pytest.raises(ValueError, match=rf"^PhyConfig\.{field} must be .*, got "):
            PhyConfig(**{field: value})

    def test_a_one_slot_first_window_is_legal(self):
        phy = PhyConfig(cw_min=0, cw_max=0, retry_limit=0, difs=0.0, sifs=0.0)
        assert phy.contention_windows == (0, 0)

    def test_sim_config_defaults(self):
        config = SimConfig()
        assert config.phy.bitrate == RATE_5_5MBPS
        assert isinstance(config.channel, ChannelConfig)


class TestChannelConfig:
    @pytest.mark.parametrize("field, value", [
        ("capture_probability", float("nan")),  # used to run, never capturing
        ("capture_probability", 1.5),
        ("capture_probability", -0.1),
        ("interference_threshold", -1.0),       # used to run: every overlap collided
        ("interference_threshold", float("inf")),
        ("sense_threshold", float("nan")),
        ("sense_threshold", 2.0),
        ("neighbor_sense_threshold", -0.2),
        ("capture_margin", -0.1),
        ("capture_margin", float("nan")),
        ("capture_margin", float("inf")),
    ])
    def test_bad_values_are_refused_at_construction(self, field, value):
        with pytest.raises(ValueError, match=rf"^ChannelConfig\.{field} must be .*, got "):
            ChannelConfig(**{field: value})

    def test_edge_values_are_legal(self):
        ChannelConfig(sense_threshold=0.0, neighbor_sense_threshold=1.0,
                      interference_threshold=1.0, capture_margin=0.0,
                      capture_probability=0.0)
        ChannelConfig(capture_margin=1e9, capture_probability=1.0)


class TestFrame:
    def test_fields_are_the_seven_that_are_read(self):
        assert [f.name for f in dataclasses.fields(Frame)] == [
            "sender", "receiver", "kind", "flow_id", "size_bytes", "payload",
            "mac_attempts"]

    def test_frames_built_alike_are_equal(self):
        """A frame is its fields: no process-global counter tells two
        frames built alike apart."""
        frames = [Frame(sender=0, receiver=BROADCAST, kind=FrameKind.DATA, flow_id=0,
                        size_bytes=10) for _ in range(2)]
        assert frames[0] == frames[1]

    def test_kinds_are_data_batch_ack_and_control(self):
        assert [kind.name for kind in FrameKind] == ["DATA", "BATCH_ACK", "CONTROL"]


class TestOnoeAutorate:
    def test_starts_at_highest_rate(self):
        controller = OnoeRateController()
        assert controller.current_rate(5) == SUPPORTED_RATES[-1]

    def test_steps_down_on_heavy_loss(self):
        controller = OnoeRateController(period=1.0)
        now = 0.0
        for _ in range(20):
            controller.record_result(3, success=False, retries=4, now=now)
        controller.record_result(3, success=False, retries=4, now=1.5)
        assert controller.current_rate(3) < SUPPORTED_RATES[-1]

    def test_steps_up_only_after_sustained_success(self):
        controller = OnoeRateController(period=1.0, credits_to_raise=3,
                                        initial_rate=RATE_1MBPS)
        now = 0.0
        # Two good periods are not enough.
        for period in range(2):
            for _ in range(10):
                controller.record_result(1, success=True, retries=0, now=now)
            now += 1.1
            controller.record_result(1, success=True, retries=0, now=now)
        assert controller.current_rate(1) == RATE_1MBPS
        # More good periods eventually raise the rate.
        for period in range(4):
            for _ in range(10):
                controller.record_result(1, success=True, retries=0, now=now)
            now += 1.1
            controller.record_result(1, success=True, retries=0, now=now)
        assert controller.current_rate(1) > RATE_1MBPS

    def test_never_goes_below_lowest_rate(self):
        controller = OnoeRateController(period=0.5)
        now = 0.0
        for _ in range(200):
            controller.record_result(2, success=False, retries=7, now=now)
            now += 0.1
        assert controller.current_rate(2) == SUPPORTED_RATES[0]

    def test_windows_anchored_per_neighbor(self):
        """Regression: disjoint traffic schedules must not share one window.

        The old controller kept a single ``_last_update`` initialised to
        0.0, so (a) the first observation window could close immediately —
        a neighbour's very first frame was evaluated as a whole period —
        and (b) any neighbour's frame closed the *global* window,
        evaluating every other neighbour's sub-period statistics.
        """
        controller = OnoeRateController(period=1.0, credits_to_raise=1,
                                        initial_rate=RATE_5_5MBPS)
        # Neighbour 1: heavy loss, but all of it within 0.9 s — less than
        # one period of its own window (anchored at its first frame, 0.0).
        for i in range(10):
            controller.record_result(1, success=False, retries=4, now=0.09 * i)
        # Neighbour 2's first-ever frame arrives much later.  Previously
        # this closed the shared window: neighbour 2 minted a credit from a
        # single frame (instant rate raise with credits_to_raise=1) and
        # neighbour 1 was stepped down on a sub-period sample.
        controller.record_result(2, success=True, retries=0, now=2.0)
        assert controller.current_rate(2) == RATE_5_5MBPS
        assert controller.current_rate(1) == RATE_5_5MBPS
        # A second frame for neighbour 2 a full period into ITS window does
        # close it (two good frames -> credit -> raise).
        controller.record_result(2, success=True, retries=0, now=3.1)
        assert controller.current_rate(2) > RATE_5_5MBPS
        # Neighbour 1 is evaluated on its own next frame, over its own
        # window, and steps down on its accumulated losses.
        controller.record_result(1, success=False, retries=4, now=3.2)
        assert controller.current_rate(1) < RATE_5_5MBPS

    def test_rates_tracked_per_neighbor(self):
        controller = OnoeRateController(period=0.5)
        now = 0.0
        for _ in range(50):
            controller.record_result(1, success=False, retries=5, now=now)
            controller.record_result(2, success=True, retries=0, now=now)
            now += 0.1
        assert controller.current_rate(1) < controller.current_rate(2)
