import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridchan import (
    ChannelParams,
    FrameRecord,
    ReceiveStatus,
    Trace,
    TraceError,
    TraceMeta,
    xor_error_vector,
)
from hybridchan.traceio import hex_to_packed, packed_to_hex


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


class TestXorErrorVector:
    def test_identical_payloads(self):
        assert np.array_equal(xor_error_vector(bits("1010"), bits("1010")),
                              bits("0000"))

    def test_full_complement(self):
        assert np.array_equal(xor_error_vector(bits("1111"), bits("0000")),
                              bits("1111"))

    def test_single_bit_difference(self):
        assert np.array_equal(xor_error_vector(bits("10110"), bits("10010")),
                              bits("00100"))

    def test_length_mismatch(self):
        with pytest.raises(TraceError, match="length mismatch"):
            xor_error_vector(bits("1010"), bits("101"))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_involution_recovers_tx(self, raw):
        tx = np.array(raw, dtype=np.uint8)
        rx = (tx + (np.arange(tx.size) % 2)) % 2
        ev = xor_error_vector(tx, rx)
        assert np.array_equal(np.bitwise_xor(rx, ev), tx)


class TestChannelParams:
    def test_valid(self):
        p = ChannelParams(r=0.1, s=0.7, p=0.005, rate_bps=54e6,
                          frame_len=8000, interval_us=20000)
        assert p.r == 0.1

    @pytest.mark.parametrize("field,value", [
        ("r", -0.1), ("r", 1.1), ("s", 2.0), ("p", -1e-9),
        ("rate_bps", 0.0), ("frame_len", 0), ("interval_us", -5),
    ])
    def test_invalid(self, field, value):
        kwargs = dict(r=0.0, s=1.0, p=0.0, rate_bps=54e6,
                      frame_len=8000, interval_us=20000)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestFrameRecord:
    def test_phy_error_must_not_carry_payload(self):
        with pytest.raises(TraceError):
            FrameRecord(seq=0, timestamp_us=0, status=ReceiveStatus.PHY_ERROR,
                        payload=bits("1010"))

    def test_crc_error_needs_payload(self):
        with pytest.raises(TraceError):
            FrameRecord(seq=0, timestamp_us=0, status=ReceiveStatus.CRC_ERROR)

    def test_payload_is_frozen(self):
        rec = FrameRecord(seq=0, timestamp_us=0, status=ReceiveStatus.OK,
                          payload=bits("1010"))
        with pytest.raises(ValueError):
            rec.payload[0] = 0

    def test_equality_compares_payload_bits(self):
        a = FrameRecord(seq=1, timestamp_us=5, status=ReceiveStatus.OK,
                        payload=bits("1010"))
        b = FrameRecord(seq=1, timestamp_us=5, status=ReceiveStatus.OK,
                        payload=bits("1010"))
        c = FrameRecord(seq=1, timestamp_us=5, status=ReceiveStatus.OK,
                        payload=bits("1011"))
        assert a == b and a != c


class TestTraceValidate:
    def _trace(self, tx_seqs=(0, 1, 2), rx_seq=1):
        meta = TraceMeta(rate_bps=54e6, frame_len=4, interval_us=100)
        tx = [FrameRecord(seq=q, timestamp_us=100 * i, status=ReceiveStatus.OK,
                          payload=bits("1010"))
              for i, q in enumerate(tx_seqs)]
        rx = [FrameRecord(seq=rx_seq, timestamp_us=150, status=ReceiveStatus.OK,
                          payload=bits("1010"))]
        return Trace(meta=meta, tx=tx, rx=rx)

    def test_valid(self):
        self._trace().validate()

    def test_nonconsecutive_tx_seqs(self):
        with pytest.raises(TraceError, match="consecutive"):
            self._trace(tx_seqs=(0, 2, 3)).validate()

    def test_rx_seq_out_of_range(self):
        with pytest.raises(TraceError, match="no matching tx"):
            self._trace(rx_seq=7).validate()

    def test_payload_length_mismatch(self):
        t = self._trace()
        t.rx.append(FrameRecord(seq=0, timestamp_us=300,
                                status=ReceiveStatus.OK, payload=bits("10")))
        with pytest.raises(TraceError, match="payload length"):
            t.validate()

    def test_duplicate_rx_seq(self):
        t = self._trace(rx_seq=0)
        for ts in (200, 250):
            t.rx.append(FrameRecord(seq=0, timestamp_us=ts,
                                    status=ReceiveStatus.CRC_ERROR,
                                    payload=bits("1011")))
        with pytest.raises(TraceError, match="rx seq 0 appears more than once"):
            t.validate()

    def test_decreasing_rx_seqs(self):
        t = self._trace(rx_seq=1)
        t.rx.append(FrameRecord(seq=None, timestamp_us=200,
                                status=ReceiveStatus.CRC_ERROR,
                                payload=bits("1011")))
        t.rx.append(FrameRecord(seq=0, timestamp_us=250,
                                status=ReceiveStatus.CRC_ERROR,
                                payload=bits("1011")))
        with pytest.raises(TraceError,
                           match=r"increase in trace order \(saw 0 after 1\)"):
            t.validate()

    def test_unknown_rx_seqs_may_repeat(self):
        t = self._trace()
        for ts in (200, 250):
            t.rx.append(FrameRecord(seq=None, timestamp_us=ts,
                                    status=ReceiveStatus.CRC_ERROR,
                                    payload=bits("1011")))
        t.validate()

    def test_decreasing_timestamps(self):
        t = self._trace()
        t.rx.append(FrameRecord(seq=0, timestamp_us=10,
                                status=ReceiveStatus.OK, payload=bits("1010")))
        with pytest.raises(TraceError, match="non-decreasing"):
            t.validate()


class TestBitsHex:
    def test_known_value(self):
        assert packed_to_hex(np.packbits(bits("101000111111"))) == "a3f0"
        matrix = hex_to_packed(b"a3f0", 12)
        assert matrix.shape == (1, 2) and not matrix.flags.writeable
        assert np.array_equal(np.unpackbits(matrix[0], count=12),
                              bits("101000111111"))

    def test_nonzero_padding_rejected(self):
        for last in (b"a3f1", b"a3f8"):  # lowest and highest pad bit
            with pytest.raises(ValueError, match="padding") as err:
                hex_to_packed(b"a3f0" + last, 12)
            assert err.value.index == 1

    def test_wrong_digit_count(self):
        with pytest.raises(ValueError, match="digits"):
            hex_to_packed(b"a3", 12)

    @given(st.integers(1, 64).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=5)))
    def test_round_trip(self, raw):
        vecs = np.array(raw, dtype=np.uint8)
        n_bits = vecs.shape[1]
        text = "".join(packed_to_hex(np.packbits(v)) for v in vecs)
        matrix = hex_to_packed(text.encode(), n_bits)
        assert np.array_equal(np.unpackbits(matrix, axis=1, count=n_bits), vecs)
