"""Tests for PHY timing, frame model and the Onoe autorate controller."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.autorate import OnoeRateController
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim import radio
from repro.sim.radio import (
    ACK_TURNAROUND,
    CONTENTION_WINDOWS,
    RATE_1MBPS,
    RATE_5_5MBPS,
    RATE_11MBPS,
    RETRY_LIMIT,
    SUPPORTED_RATES,
    SimConfig,
    frame_airtime,
)


class TestPhyTiming:
    def test_the_802_11b_values(self):
        """DSSS long-preamble timing: the window of every attempt a
        contention runs at, the ACK turnaround (SIFS, then a 14-byte ACK at
        1 Mb/s) and a data frame's airtime at each rate."""
        assert CONTENTION_WINDOWS == (31, 63, 127, 255, 511, 1023, 1023, 1023)
        assert len(CONTENTION_WINDOWS) == RETRY_LIMIT + 1
        # SIFS is added to the ACK's airtime: this order is the float every
        # golden trace was recorded with.
        assert ACK_TURNAROUND == 10e-6 + (192e-6 + 14 * 8 / 1e6)
        assert ACK_TURNAROUND == pytest.approx(314e-6)
        for rate in SUPPORTED_RATES:
            assert frame_airtime(1500, rate) == 192e-6 + (1500 + 34) * 8 / rate
        # The absolute throughput scale of the simulator.
        assert frame_airtime(1500, RATE_5_5MBPS) == pytest.approx(2.4233e-3, abs=1e-7)
        assert frame_airtime(100, RATE_5_5MBPS) < frame_airtime(1500, RATE_11MBPS)

    def test_the_reception_constants(self):
        """The medium's modelling choices, as every golden trace and figure
        report was recorded with them."""
        assert (radio.SENSE_THRESHOLD, radio.NEIGHBOR_SENSE_THRESHOLD,
                radio.INTERFERENCE_THRESHOLD, radio.CAPTURE_MARGIN,
                radio.CAPTURE_PROBABILITY) == (0.10, 0.20, 0.10, 0.35, 0.7)


class TestSimConfig:
    def test_sim_config_defaults(self):
        assert [field.name for field in dataclasses.fields(SimConfig)] == [
            "bitrate", "seed", "max_duration", "channel_model", "mobility", "faults"]
        assert SimConfig().bitrate == RATE_5_5MBPS

    @pytest.mark.parametrize("bitrate", [0, 3, -RATE_11MBPS, 54_000_000])
    def test_a_rate_outside_802_11b_is_refused(self, bitrate):
        """Not a ``ZeroDivisionError`` (or a run at a rate the PHY lacks)
        at the first frame."""
        with pytest.raises(ValueError, match=r"^bitrate must be an 802\.11b rate in "
                                             r"b/s, one of \(1000000, .*\), got "):
            SimConfig(bitrate=bitrate)


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
