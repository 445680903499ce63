"""802.11b PHY/MAC timing, the reception model's constants, and the run's
simulator configuration.

The evaluation runs over 802.11b with long-preamble DSSS timing at one
bit-rate per experiment: 5.5 Mb/s, or 11 Mb/s for the autorate comparison.
The bit-rate is the one radio value a run chooses (:attr:`SimConfig.bitrate`).
Everything else here is a constant of the modelled platform: the timing sets
how long a frame occupies the medium, and so the absolute throughput scale of
the simulator; the reception constants are the medium's modelling choices
(:mod:`repro.sim.medium`), not run parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: PLCP preamble + header duration (long preamble), seconds.
PREAMBLE_TIME = 192e-6
#: Backoff slot duration, seconds.
SLOT_TIME = 20e-6
#: Short inter-frame space, seconds.
SIFS = 10e-6
#: DCF inter-frame space, seconds.
DIFS = 50e-6
#: Minimum and maximum contention windows, in slots.
CW_MIN = 31
CW_MAX = 1023
#: MAC header + FCS bytes added to every frame.
MAC_OVERHEAD_BYTES = 34
#: Size of a MAC-level ACK frame, bytes.
ACK_BYTES = 14
#: Rate at which MAC ACKs are sent.
ACK_BITRATE = RATE_1MBPS
#: Retransmissions allowed after a unicast frame's first attempt: the MAC
#: sends it at most ``RETRY_LIMIT + 1`` times.
RETRY_LIMIT = 7

#: Minimum delivery probability at which a node directly carrier-senses an
#: ongoing transmission (carrier sense is more sensitive than decoding).
SENSE_THRESHOLD = 0.10
#: Two nodes that each deliver to a common neighbour with at least this
#: probability sense each other even when neither decodes the other (the
#: sense range of real radios is roughly twice the decode range).
NEIGHBOR_SENSE_THRESHOLD = 0.20
#: Minimum delivery probability at which a concurrent transmission corrupts
#: a reception.
INTERFERENCE_THRESHOLD = 0.10
#: A wanted frame whose delivery probability exceeds the interferer's by at
#: least this margin may be saved by the capture effect (Section 4.2.3)...
CAPTURE_MARGIN = 0.35
#: ... with this probability.
CAPTURE_PROBABILITY = 0.7

#: The contention window, in slots, of each attempt a contention runs at
#: (``0 .. RETRY_LIMIT``): ``CW_MIN`` doubling per retry, capped at ``CW_MAX``.
CONTENTION_WINDOWS = tuple(min((CW_MIN + 1) * 2 ** attempt - 1, CW_MAX)
                           for attempt in range(RETRY_LIMIT + 1))
#: SIFS plus the MAC ACK's airtime: how long a unicast sender holds the
#: medium for the acknowledgement.
ACK_TURNAROUND = SIFS + (PREAMBLE_TIME + ACK_BYTES * 8 / ACK_BITRATE)


def frame_airtime(payload_bytes: int, bitrate: int) -> float:
    """Time (s) a data frame of ``payload_bytes`` occupies the medium at
    ``bitrate`` b/s."""
    return PREAMBLE_TIME + (payload_bytes + MAC_OVERHEAD_BYTES) * 8 / bitrate


@dataclass
class SimConfig:
    """Top-level simulator configuration.

    ``channel_model`` selects the channel model feeding the medium's
    per-frame delivery probabilities (see :mod:`repro.sim.channels`);
    ``None`` is the static Bernoulli matrix — the paper's model.
    """

    #: Data bit-rate in b/s, one of :data:`SUPPORTED_RATES` (an agent may
    #: override it per frame: :meth:`repro.protocols.base.ProtocolAgent.select_bitrate`).
    bitrate: int = RATE_5_5MBPS
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

    def __post_init__(self) -> None:
        if self.bitrate not in SUPPORTED_RATES:
            raise ValueError(f"bitrate must be an 802.11b rate in b/s, one of "
                             f"{SUPPORTED_RATES}, got {self.bitrate!r}")
