"""Tests for the MORE header (Section 3.3.1 / Figure 3-1 / Section 4.6(c))."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.more.header import (
    CREDIT_SCALE,
    MAX_FORWARDERS,
    ForwarderEntry,
    MoreHeader,
    MorePacketType,
)


def data_header(batch_size=32, forwarders=3):
    return MoreHeader(
        packet_type=MorePacketType.DATA,
        source=1,
        destination=9,
        flow_id=42,
        batch_id=7,
        code_vector=bytes(range(batch_size)),
        forwarders=[ForwarderEntry(node_id=i + 2, tx_credit=0.5 + i) for i in range(forwarders)],
    )


class TestPackUnpack:
    def test_roundtrip_data_header(self):
        header = data_header()
        parsed = MoreHeader.unpack(header.pack())
        assert parsed.packet_type is MorePacketType.DATA
        assert parsed.source == 1 and parsed.destination == 9
        assert parsed.flow_id == 42 and parsed.batch_id == 7
        assert parsed.code_vector.__class__ is bytes
        assert parsed.code_vector == header.code_vector == bytes(range(32))
        assert parsed.forwarder_ids() == header.forwarder_ids()

    def test_roundtrip_ack_header(self):
        header = MoreHeader(packet_type=MorePacketType.ACK, source=3, destination=4,
                            flow_id=5, batch_id=6)
        parsed = MoreHeader.unpack(header.pack())
        assert parsed.packet_type is MorePacketType.ACK
        assert parsed.code_vector is None
        assert parsed.forwarders == []

    def test_credit_quantisation(self):
        header = data_header(forwarders=1)
        header.forwarders[0].tx_credit = 1.37
        parsed = MoreHeader.unpack(header.pack())
        assert parsed.forwarders[0].tx_credit == pytest.approx(1.37, abs=1.0 / CREDIT_SCALE)

    def test_credit_saturates(self):
        entry = ForwarderEntry(node_id=1, tx_credit=1000.0)
        assert entry.quantized_credit() == 255

    def test_truncated_buffer_rejected(self):
        with pytest.raises(ValueError):
            MoreHeader.unpack(b"\x00\x01")
        # The fixed fields whole, the code vector cut short.
        with pytest.raises(ValueError, match="code vector"):
            MoreHeader.unpack(data_header().pack()[:20])

    def test_code_vector_must_be_bytes(self):
        """The header carries K bytes: an array is refused, not read
        through the buffer protocol at another width."""
        with pytest.raises(TypeError, match="code vector must be bytes"):
            MoreHeader(packet_type=MorePacketType.DATA, source=1, destination=2,
                       flow_id=3, batch_id=0, code_vector=np.arange(4))

    def test_node_id_or_k_beyond_one_byte_rejected(self):
        """A kilonode forwarder id or K = 256 is refused, not truncated."""
        header = data_header()
        header.forwarders[0] = ForwarderEntry(node_id=700, tx_credit=1.0)
        with pytest.raises(ValueError, match="forwarder node id 700"):
            header.pack()
        with pytest.raises(ValueError, match="K 256"):
            data_header(batch_size=256).pack()
        header.forwarders[0] = ForwarderEntry(node_id=255, tx_credit=1.0)
        assert MoreHeader.unpack(header.pack()).forwarder_ids()[0] == 255

    def test_size_matches_serialisation(self):
        for batch_size in (8, 32, 128):
            for forwarders in (0, 3, 10):
                header = data_header(batch_size=batch_size, forwarders=forwarders)
                assert header.size_bytes() == len(header.pack())


class TestPaperBounds:
    def test_forwarder_list_capped_at_ten(self):
        header = data_header(forwarders=15)
        assert len(header.forwarders) == MAX_FORWARDERS

    def test_header_overhead_below_five_percent(self):
        """Section 4.6(c): for 1500 B packets the header overhead is < 5%."""
        header = data_header(batch_size=32, forwarders=MAX_FORWARDERS)
        assert header.overhead_fraction(1500) < 0.05

    def test_k32_header_is_about_70_bytes(self):
        header = data_header(batch_size=32, forwarders=MAX_FORWARDERS)
        assert header.size_bytes() <= 75


@given(st.integers(min_value=1, max_value=128), st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=65535))
@settings(max_examples=60, deadline=None)
def test_property_pack_unpack_roundtrip(batch_size, forwarder_count, batch_id, flow_id):
    rng = np.random.default_rng(batch_size * 1000 + forwarder_count)
    header = MoreHeader(
        packet_type=MorePacketType.DATA,
        source=int(rng.integers(0, 2**32 - 1)),
        destination=int(rng.integers(0, 2**32 - 1)),
        flow_id=flow_id,
        batch_id=batch_id,
        code_vector=rng.integers(0, 256, batch_size, dtype=np.uint8).tobytes(),
        forwarders=[ForwarderEntry(node_id=int(rng.integers(0, 255)),
                                   tx_credit=float(rng.uniform(0, 10)))
                    for _ in range(forwarder_count)],
    )
    parsed = MoreHeader.unpack(header.pack())
    assert parsed.flow_id == flow_id
    assert parsed.batch_id == batch_id
    assert parsed.code_vector == header.code_vector
    assert len(parsed.forwarders) == forwarder_count
