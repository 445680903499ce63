"""802.11b PHY/MAC timing parameters and frame air-time computation.

The evaluation runs over 802.11b at a fixed bit-rate of 5.5 Mb/s (11 Mb/s
for the autorate comparison), with long-preamble DSSS timing.  These
constants determine how long a frame occupies the medium, which in turn sets
the absolute throughput scale of the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.sim.channels import ChannelSpec
from repro.sim.faults import FaultSpec
from repro.topology.mobility import MobilitySpec

#: 802.11b data rates in bits per second.
RATE_1MBPS = 1_000_000
RATE_2MBPS = 2_000_000
RATE_5_5MBPS = 5_500_000
RATE_11MBPS = 11_000_000

#: All supported 802.11b rates, ascending.
SUPPORTED_RATES = (RATE_1MBPS, RATE_2MBPS, RATE_5_5MBPS, RATE_11MBPS)


@dataclass(frozen=True)
class PhyConfig:
    """Physical and MAC layer timing configuration (802.11b DSSS defaults).

    Attributes:
        bitrate: data bit-rate in b/s.
        preamble_time: PLCP preamble + header duration (long preamble).
        slot_time: backoff slot duration.
        sifs: short inter-frame space.
        difs: DCF inter-frame space.
        cw_min: minimum contention window (slots).
        cw_max: maximum contention window (slots).
        mac_overhead_bytes: MAC header + FCS bytes added to every frame.
        ack_bytes: size of a MAC-level ACK frame.
        ack_bitrate: rate at which MAC ACKs are sent.
        retry_limit: retransmissions allowed after a unicast frame's first
            attempt: the MAC sends it at most ``retry_limit + 1`` times.
    """

    bitrate: int = RATE_5_5MBPS
    preamble_time: float = 192e-6
    slot_time: float = 20e-6
    sifs: float = 10e-6
    difs: float = 50e-6
    cw_min: int = 31
    cw_max: int = 1023
    mac_overhead_bytes: int = 34
    ack_bytes: int = 14
    ack_bitrate: int = RATE_1MBPS
    retry_limit: int = 7

    def __post_init__(self) -> None:
        # A window of w slots is a draw below w + 1, and the MAC's backoff
        # draw (repro.rng.WordStream.bounded) takes spans up to 2**32 - 1.
        for name, valid, requirement in (
                ("cw_min", self.cw_min >= 0, ">= 0"),
                ("cw_max", self.cw_min <= self.cw_max <= 2**32 - 2,
                 f">= cw_min ({self.cw_min}) and <= 2**32 - 2"),
                ("retry_limit", self.retry_limit >= 0, ">= 0"),
                ("slot_time", self.slot_time > 0, "> 0"),
                ("difs", self.difs >= 0, ">= 0"),
                ("sifs", self.sifs >= 0, ">= 0"),
                ("preamble_time", self.preamble_time >= 0, ">= 0"),
                ("bitrate", self.bitrate > 0, "> 0"),
                ("ack_bitrate", self.ack_bitrate > 0, "> 0")):
            if not valid:
                raise ValueError(f"PhyConfig.{name} must be {requirement}, "
                                 f"got {getattr(self, name)!r}")

    def frame_airtime(self, payload_bytes: int, bitrate: int | None = None) -> float:
        """Time (s) a data frame of ``payload_bytes`` occupies the medium."""
        rate = bitrate if bitrate is not None else self.bitrate
        if rate <= 0:
            raise ValueError("bitrate must be positive")
        bits = (payload_bytes + self.mac_overhead_bytes) * 8
        return self.preamble_time + bits / rate

    def ack_airtime(self) -> float:
        """Time (s) a MAC-level ACK occupies the medium."""
        return self.preamble_time + self.ack_bytes * 8 / self.ack_bitrate

    def backoff_time(self, slots: int) -> float:
        """Duration of ``slots`` backoff slots."""
        return slots * self.slot_time

    def contention_window(self, attempt: int) -> int:
        """Contention window for the given (0-based) retry attempt."""
        window = (self.cw_min + 1) * (2 ** attempt) - 1
        return min(window, self.cw_max)

    @cached_property
    def contention_windows(self) -> tuple[int, ...]:
        """:meth:`contention_window` of attempts ``0 .. retry_limit + 1``.

        Derived on first use and shared by every MAC built on this
        configuration (the instance is frozen, so the table cannot go stale).
        """
        return tuple(self.contention_window(attempt)
                     for attempt in range(self.retry_limit + 2))

    @cached_property
    def ack_turnaround(self) -> float:
        """SIFS plus the MAC ACK's airtime: how long a unicast sender holds
        the medium for the acknowledgement.  Shared like the table above."""
        return self.sifs + self.ack_airtime()


@dataclass(frozen=True)
class ChannelConfig:
    """Reception / interference model parameters.

    Attributes:
        sense_threshold: minimum delivery probability at which a node can
            directly carrier-sense an ongoing transmission (carrier sense is
            more sensitive than successful decoding).
        neighbor_sense_threshold: two nodes that can each deliver to a
            common neighbour with at least this probability are considered
            within carrier-sense range of each other even when they cannot
            decode each other's frames (the sense range of real radios is
            roughly twice the decode range).
        interference_threshold: minimum delivery probability at which a
            concurrent transmission corrupts a reception at a node.
        capture_margin: if the wanted frame's delivery probability exceeds
            the interferer's by at least this margin, the capture effect may
            save the reception (Section 4.2.3 discusses capture).
        capture_probability: probability that capture succeeds when the
            margin condition holds.
    """

    sense_threshold: float = 0.10
    neighbor_sense_threshold: float = 0.20
    interference_threshold: float = 0.10
    capture_margin: float = 0.35
    capture_probability: float = 0.7

    def __post_init__(self) -> None:
        # Comparisons with NaN are all False, so a NaN passes neither test
        # below, and the medium turns capture_probability into an integer
        # word bound (repro.rng.threshold), which a NaN cannot have.
        for name in ("sense_threshold", "neighbor_sense_threshold",
                     "interference_threshold", "capture_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"ChannelConfig.{name} must be finite and in "
                                 f"[0, 1], got {getattr(self, name)!r}")
        if not 0.0 <= self.capture_margin < math.inf:
            raise ValueError("ChannelConfig.capture_margin must be finite and "
                             f">= 0, got {self.capture_margin!r}")


@dataclass
class SimConfig:
    """Top-level simulator configuration.

    ``channel_model`` selects the channel model feeding the medium's
    per-frame delivery probabilities (see :mod:`repro.sim.channels`);
    ``None`` is the static Bernoulli matrix — the paper's model.
    """

    phy: PhyConfig = field(default_factory=PhyConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    seed: int = 0
    #: Maximum simulated seconds for a single flow transfer before giving up.
    max_duration: float = 300.0
    #: Channel-model spec (``None`` = static Bernoulli delivery matrix).
    channel_model: ChannelSpec | None = None
    #: Mobility / link-churn spec (``None`` = static topology — today's
    #: behaviour, bit for bit; see :mod:`repro.topology.mobility`).
    mobility: MobilitySpec | None = None
    #: Fault-process spec (``None`` = fault-free — today's behaviour, bit
    #: for bit; see :mod:`repro.sim.faults`).
    faults: FaultSpec | None = None
