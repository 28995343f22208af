import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridchan import (
    ChannelParams,
    ReceiveStatus,
    Side,
    Trace,
    TraceError,
    TraceMeta,
)
from hybridchan.trace import CRC, NOT_LOADED, OK, PHY, UNKNOWN_SEQ
from hybridchan.traceio import hex_to_packed

from conftest import Row, rows, side
from reference_traceio import packed_to_hex


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


class TestXorErrorVector:
    def test_identical_payloads(self):
        assert np.array_equal(np.bitwise_xor(bits("1010"), bits("1010")),
                              bits("0000"))

    def test_full_complement(self):
        assert np.array_equal(np.bitwise_xor(bits("1111"), bits("0000")),
                              bits("1111"))

    def test_single_bit_difference(self):
        assert np.array_equal(np.bitwise_xor(bits("10110"), bits("10010")),
                              bits("00100"))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_involution_recovers_tx(self, raw):
        tx = np.array(raw, dtype=np.uint8)
        rx = (tx + (np.arange(tx.size) % 2)) % 2
        ev = np.bitwise_xor(tx, rx)
        assert np.array_equal(np.bitwise_xor(rx, ev), tx)


class TestChannelParams:
    def test_valid(self):
        p = ChannelParams(r=0.1, s=0.7, p=0.005, rate_bps=54e6,
                          frame_len=8000, interval_us=20000)
        assert p.r == 0.1

    @pytest.mark.parametrize("field,value", [
        ("r", -0.1), ("r", 1.1), ("s", 2.0), ("p", -1e-9),
        ("rate_bps", 0.0), ("rate_bps", float("nan")), ("rate_bps", float("inf")),
        ("frame_len", 0), ("interval_us", -5),
    ])
    def test_invalid(self, field, value):
        kwargs = dict(r=0.0, s=1.0, p=0.0, rate_bps=54e6,
                      frame_len=8000, interval_us=20000)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestTraceValidate:
    def _trace(self, tx_seqs=(0, 1, 2), rx_seq=1, more_rx=()):
        meta = TraceMeta(rate_bps=54e6, frame_len=4, interval_us=100)
        tx = [Row(seq=q, timestamp_us=100 * i, status=ReceiveStatus.OK,
                  payload=bits("1010"))
              for i, q in enumerate(tx_seqs)]
        rx = [Row(seq=rx_seq, timestamp_us=150, status=ReceiveStatus.OK,
                  payload=bits("1010")), *more_rx]
        return Trace(meta, side(tx), side(rx))

    def test_valid(self):
        self._trace().validate()

    def test_nonconsecutive_tx_seqs(self):
        with pytest.raises(TraceError, match="consecutive"):
            self._trace(tx_seqs=(0, 2, 3)).validate()

    def test_rx_seq_out_of_range(self):
        with pytest.raises(TraceError, match="no matching tx"):
            self._trace(rx_seq=7).validate()

    def test_payload_length_mismatch(self):
        short = Row(seq=0, timestamp_us=300, status=ReceiveStatus.OK,
                    payload=bits("10"))
        t = self._trace()
        t.rx = side([short])
        with pytest.raises(TraceError,
                           match=r"rx seq 0: payload length 2 != frame_len 4"):
            t.validate()

    def test_duplicate_rx_seq(self):
        t = self._trace(rx_seq=0, more_rx=[
            Row(seq=0, timestamp_us=ts, status=ReceiveStatus.CRC_ERROR,
                payload=bits("1011"))
            for ts in (200, 250)])
        with pytest.raises(TraceError, match="rx seq 0 appears more than once"):
            t.validate()

    def test_decreasing_rx_seqs(self):
        t = self._trace(rx_seq=1, more_rx=[
            Row(seq=None, timestamp_us=200,
                status=ReceiveStatus.CRC_ERROR, payload=bits("1011")),
            Row(seq=0, timestamp_us=250,
                status=ReceiveStatus.CRC_ERROR, payload=bits("1011"))])
        with pytest.raises(TraceError,
                           match=r"increase in trace order \(saw 0 after 1\)"):
            t.validate()

    def test_unknown_rx_seqs_may_repeat(self):
        t = self._trace(more_rx=[
            Row(seq=None, timestamp_us=ts,
                status=ReceiveStatus.CRC_ERROR, payload=bits("1011"))
            for ts in (200, 250)])
        t.validate()

    def test_decreasing_timestamps(self):
        t = self._trace(more_rx=[Row(
            seq=0, timestamp_us=10, status=ReceiveStatus.OK, payload=bits("1010"))])
        with pytest.raises(TraceError, match="non-decreasing") as err:
            t.validate()
        assert err.value.record == ("rx", 1)

    def test_tx_record_without_payload(self):
        t = self._trace()
        t.tx = side([*rows(t.tx)[:2],
                     Row(seq=2, timestamp_us=200, status=ReceiveStatus.PHY_ERROR)])
        with pytest.raises(TraceError, match="tx seq 2 carries no payload") as err:
            t.validate()
        assert err.value.record == ("tx", 2)

    def test_first_fault_of_a_side_is_reported(self):
        # a later payload-length fault loses to an earlier timestamp fault
        meta = TraceMeta(rate_bps=54e6, frame_len=2, interval_us=100)
        t = Trace(meta, rx=side([
            (None, 50, ReceiveStatus.PHY_ERROR, None, None),
            (None, 40, ReceiveStatus.PHY_ERROR, None, None),
            (None, 60, ReceiveStatus.OK, bits("1010"), None)]))
        with pytest.raises(TraceError, match=r"saw 40 after 50") as err:
            t.validate()
        assert err.value.record == ("rx", 1)


OK_, CRC_, PHY_ = ReceiveStatus.OK, ReceiveStatus.CRC_ERROR, ReceiveStatus.PHY_ERROR
TX3 = [(0, 0, OK_, bits("1010")), (1, 100, OK_, bits("0110")), (2, 200, OK_, bits("1111"))]


@pytest.mark.parametrize("tx, rx, message, record", [
    ([*TX3[:2], (3, 200, OK_, bits("1111"))], [],
     "tx sequence numbers must be consecutive from 0; record 2 has seq 3", ("tx", 2)),
    ([TX3[0], (None, 100, OK_, bits("0110")), TX3[2]], [],
     "tx sequence numbers must be consecutive from 0; record 1 has seq None",
     ("tx", 1)),
    ([*TX3[:2], (2, 200, PHY_, None)], [], "tx seq 2 carries no payload", ("tx", 2)),
    ([(0, 0, OK_, bits("10"))], [], "tx seq 0: payload length 2 != frame_len 4",
     ("tx", 0)),
    (TX3, [(None, 10, PHY_, None), (1, 30, CRC_, bits("10")), (2, 40, OK_, bits("11"))],
     "rx seq 1: payload length 2 != frame_len 4", ("rx", 1)),
    ([*TX3[:2], (2, 50, OK_, bits("1111"))], [],
     "tx timestamps must be non-decreasing (saw 50 after 100)", ("tx", 2)),
    (TX3, [(0, 50, OK_, bits("1010")), (None, 60, PHY_, None), (2, 40, OK_, bits("1111"))],
     "rx timestamps must be non-decreasing (saw 40 after 60)", ("rx", 2)),
    (TX3, [(1, 10, OK_, bits("1010")), (None, 20, CRC_, bits("1010")),
           (None, 30, CRC_, bits("1010")), (1, 40, CRC_, bits("1011"))],
     "rx seq 1 appears more than once", ("rx", 3)),
    (TX3, [(None, 10, PHY_, None), (2, 20, OK_, bits("1111")),
           (None, 30, PHY_, None), (0, 40, CRC_, bits("1011"))],
     "known rx seqs must increase in trace order (saw 0 after 2)", ("rx", 3)),
    (TX3, [(None, 10, PHY_, None), (7, 20, OK_, bits("1111")), (8, 30, PHY_, None)],
     "rx seq 7 has no matching tx record", ("rx", 1)),
    (TX3[:2], [(None, t, PHY_, None) for t in (10, 20, 30)],
     "more rx records than tx records", ("rx", 2)),
], ids=["tx-seq", "tx-seq-unknown", "tx-payload", "tx-length", "rx-length",
        "tx-time", "rx-time", "rx-duplicate", "rx-order", "rx-unmatched", "rx-count"])
def test_each_fault_names_its_message_and_record(tx, rx, message, record):
    """Every fault validate finds, with its whole message and the index of
    the first record at fault, which readers turn into a line number."""
    meta = TraceMeta(rate_bps=54e6, frame_len=4, interval_us=100)
    with pytest.raises(TraceError) as err:
        Trace(meta, side(tx), side(rx)).validate()
    assert (str(err.value), err.value.record) == (message, record)


class TestSide:
    ROWS = [Row(0, 5, ReceiveStatus.OK, bits("10110"), -61),
            Row(None, 6, ReceiveStatus.CRC_ERROR, bits("00111")),
            Row(2, 7, ReceiveStatus.PHY_ERROR, rssi=0)]

    @staticmethod
    def columns():
        """The columns of ROWS, written out."""
        return dict(seq=[0, UNKNOWN_SEQ, 2], timestamp_us=[5, 6, 7],
                    status=[OK, CRC, PHY], rssi=[-61, 0, 0],
                    has_rssi=[True, False, True], row=[0, 1, -1],
                    packed=[[0b10110000], [0b00111000]], n_bits=5)

    def test_columns_of_records(self):
        s = side(self.ROWS)
        for name, want in self.columns().items():
            assert np.array_equal(getattr(s, name), want), name
        assert s.packed.shape == (2, 1)
        assert s.payloads([1, 0]).tolist() == [[0b00111000], [0b10110000]]
        assert np.unpackbits(s.payloads(0), count=s.n_bits).tolist() == [1, 0, 1, 1, 0]

    def test_rows_read_back_as_records(self):
        got = rows(side(self.ROWS))
        assert [r[:3] + r[4:] for r in got] == [r[:3] + r[4:] for r in self.ROWS]
        assert [None if r.payload is None else r.payload.tolist() for r in got] \
            == [[1, 0, 1, 1, 0], [0, 0, 1, 1, 1], None]
        assert side(got) == side(self.ROWS)

    def test_columns_are_read_only(self):
        s = Side(**self.columns())
        for column in (s.seq, s.timestamp_us, s.status, s.rssi,
                       s.has_rssi, s.row, s.packed):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_equality_follows_payload_rows(self):
        s = Side(**self.columns())
        # the same records with their payload rows stored in reverse order
        shuffled = Side(**{**self.columns(), "row": [1, 0, -1],
                           "packed": s.packed[::-1]})
        assert shuffled == s
        flipped = Side(**{**self.columns(), "packed": [[0b10110000], [0b00110000]]})
        assert flipped != s
        assert side(self.ROWS[:2]) != s
        assert Side.empty() == side([])

    def test_inconsistent_columns_rejected(self):
        for change, message in (
            (dict(seq=[0, 1]), "one entry per record"),
            (dict(seq=[0, -2, 2]), "must not be negative"),
            (dict(row=[0, 1, 1]), "carry no payload"),
            (dict(row=[0, -1, -1]), "carry no payload"),
            (dict(row=[0, 1, NOT_LOADED]), "carry no payload"),
            (dict(row=[0, NOT_LOADED - 1, -1]), "outside the payload matrix"),
            (dict(row=[0, 2, -1]), "outside the payload matrix"),
            (dict(rssi=[-61, 3, 0]), "rssi must be 0"),
            (dict(packed=[[0b10110100], [0]]), "padding"),
            (dict(packed=[[0b10110000], [0b00111001]]), "padding"),
            (dict(n_bits=9), "bytes per row"),
            (dict(packed=[[0b10110000, 0], [0b00111000, 0]]), "bytes per row"),
        ):
            with pytest.raises(TraceError, match=message):
                Side(**{**self.columns(), **change})

    def test_unloaded_payload_rows(self):
        """A side may hold only some payloads; asking for another raises."""
        s = Side(**{**self.columns(), "row": [NOT_LOADED, 0, -1],
                    "packed": [[0b00111000]]})
        assert s.payloads([1]).tolist() == [[0b00111000]]
        for index, message in ((0, "payload not loaded"), ([1, 0], "payload not loaded"),
                               (2, "a PHY-error frame has no payload")):
            with pytest.raises(TraceError, match=message):
                s.payloads(index)
        assert s != Side(**self.columns())
        # validation reads the status column, not the rows held
        meta = TraceMeta(rate_bps=54e6, frame_len=5, interval_us=100)
        tx = Side(seq=[0, 1], timestamp_us=[0, 1], status=[OK, CRC], rssi=[0, 0],
                  has_rssi=[False, False], row=[NOT_LOADED, NOT_LOADED],
                  packed=np.zeros((0, 1), np.uint8), n_bits=5)
        Trace(meta, tx=tx).validate()
        with pytest.raises(TraceError, match="payload length 4 != frame_len 5"):
            Trace(meta, tx=Side(**{**vars(tx), "n_bits": 4})).validate()
        with pytest.raises(TraceError, match="tx seq 1 carries no payload"):
            Trace(meta, tx=Side(**{**vars(tx), "status": [OK, PHY],
                                   "row": [NOT_LOADED, -1]})).validate()

    def test_values_past_18_digits_rejected(self):
        for value in (10**18, -10**18, 2**63):
            with pytest.raises(TraceError, match="at most 18 digits"):
                side([Row(None, value, ReceiveStatus.PHY_ERROR)])
        side([Row(10**18 - 1, 1 - 10**18, ReceiveStatus.PHY_ERROR, rssi=10**18 - 1)])

    def test_negative_record_seq_rejected(self):
        with pytest.raises(TraceError, match="sequence numbers must not be negative"):
            Side(**{**self.columns(), "seq": [0, -3, 2]})


class TestBitsHex:
    def test_known_value(self):
        assert packed_to_hex(np.packbits(bits("101000111111"))) == "a3f0"
        matrix = hex_to_packed(b"a3f0", 12)
        assert matrix.shape == (1, 2) and not matrix.flags.writeable
        assert np.array_equal(np.unpackbits(matrix[0], count=12),
                              bits("101000111111"))

    def test_nonzero_padding_rejected(self):
        for last in (b"a3f1", b"a3f8"):  # lowest and highest pad bit
            with pytest.raises(ValueError, match="nonzero padding bits"):
                hex_to_packed(b"a3f0" + last, 12)

    @pytest.mark.parametrize("payload", [b"A3F0", b"a3f0a3F0", b"a3 0", b"+3f0"])
    def test_non_lowercase_hex_rejected(self, payload):
        with pytest.raises(ValueError, match="must be lowercase hex digits"):
            hex_to_packed(payload, 12)

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
