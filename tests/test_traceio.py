import numpy as np
import pytest

from hybridchan import (
    FrameRecord,
    ReceiveStatus,
    Trace,
    TraceFormatError,
    TraceMeta,
    read_trace,
    write_trace,
)
from hybridchan.traceio import load_pair


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def three_frame_trace():
    meta = TraceMeta(rate_bps=54e6, frame_len=12, interval_us=20000,
                     description='outdoor run "A" \\ test')
    tx = [
        FrameRecord(seq=i, timestamp_us=20000 * i, status=ReceiveStatus.OK,
                    payload=bits("101000111111"))
        for i in range(3)
    ]
    rx = [
        FrameRecord(seq=0, timestamp_us=37, status=ReceiveStatus.OK,
                    payload=bits("101000111111"), rssi=-61),
        FrameRecord(seq=None, timestamp_us=20040, status=ReceiveStatus.CRC_ERROR,
                    payload=bits("101001111111"), rssi=-70),
        FrameRecord(seq=2, timestamp_us=40038, status=ReceiveStatus.PHY_ERROR),
    ]
    return Trace(meta=meta, tx=tx, rx=rx)


def test_round_trip_identity(tmp_path):
    path = tmp_path / "t.trace"
    trace = three_frame_trace()
    write_trace(trace, path)
    assert read_trace(path) == trace


def test_empty_rx_round_trips(tmp_path):
    trace = three_frame_trace()
    trace.rx = []
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.rx == [] and back == trace


def test_write_then_write_is_byte_identical(tmp_path):
    trace = three_frame_trace()
    write_trace(trace, tmp_path / "a.trace")
    write_trace(trace, tmp_path / "b.trace")
    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()


def test_file_is_plain_text(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#meta R=54000000 frame_len=12 interval_us=20000")
    assert lines[1] == "tx 0 0 ok - a3f0"
    assert "rx ? 20040 crc -70 a7f0" in lines
    assert "rx 2 40038 phy - -" in lines


def test_wrong_payload_length_names_line(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    text = path.read_text().replace("tx 1 20000 ok - a3f0",
                                    "tx 1 20000 ok - a3")
    path.write_text(text)
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 3
    assert "digits" in str(err.value)


def test_zero_frame_len_rejected(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text('#meta R=54000000 frame_len=0 interval_us=100 desc=""\n'
                    "tx 0 0 ok - \n")
    with pytest.raises(TraceFormatError, match="frame_len must be positive") as err:
        read_trace(path)
    assert err.value.line == 1


def test_non_monotone_timestamps_rejected(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(
        '#meta R=54000000 frame_len=4 interval_us=100 desc=""\n'
        "tx 0 100 ok - a0\n"
        "tx 1 50 ok - a0\n"
    )
    with pytest.raises(TraceFormatError, match="non-decreasing"):
        read_trace(path)


@pytest.mark.parametrize("bad_line,msg", [
    ("tx 0 0 ok -", "expected 6 fields"),
    ("zz 0 0 ok - a0", "unknown side"),
    ("tx 0 0 bad - a0", "unknown status"),
    ("tx x 0 ok - a0", "invalid literal"),
    ("tx 0 0 phy - a0", "must not carry a payload"),
])
def test_malformed_record_lines(tmp_path, bad_line, msg):
    path = tmp_path / "t.trace"
    path.write_text(
        '#meta R=54000000 frame_len=4 interval_us=100 desc=""\n' + bad_line + "\n"
    )
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 2
    assert msg in str(err.value)


def test_missing_meta_line(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("tx 0 0 ok - a0\n")
    with pytest.raises(TraceFormatError, match="meta"):
        read_trace(path)


def test_fractional_rate_round_trips(tmp_path):
    meta = TraceMeta(rate_bps=5.5e6 + 0.25, frame_len=4, interval_us=10)
    trace = Trace(meta=meta, tx=[FrameRecord(
        seq=0, timestamp_us=0, status=ReceiveStatus.OK, payload=bits("1011"))])
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    assert read_trace(path).meta.rate_bps == meta.rate_bps


def test_load_pair_meta_mismatch(tmp_path):
    trace = three_frame_trace()
    write_trace(trace, tmp_path / "tx.trace")
    other = three_frame_trace()
    other.meta = TraceMeta(rate_bps=48e6, frame_len=12, interval_us=20000)
    other.tx = other.tx
    write_trace(other, tmp_path / "rx.trace")
    with pytest.raises(TraceFormatError, match="metadata mismatch"):
        load_pair(tmp_path / "tx.trace", tmp_path / "rx.trace")


def test_load_pair_meta_mismatch_message(tmp_path):
    trace = three_frame_trace()
    tx_path, rx_path = tmp_path / "tx.trace", tmp_path / "rx.trace"
    write_trace(trace, tx_path)
    trace.meta = TraceMeta(rate_bps=48e6, frame_len=12, interval_us=20000)
    write_trace(trace, rx_path)
    with pytest.raises(TraceFormatError) as info:
        load_pair(tx_path, rx_path)
    assert str(info.value) == (
        f"{rx_path}: metadata mismatch between {tx_path} and {rx_path}"
    )
    assert info.value.path == str(rx_path) and info.value.line is None


def test_load_pair_merges_sides(tmp_path):
    trace = three_frame_trace()
    tx_only = Trace(meta=trace.meta, tx=trace.tx)
    rx_only = Trace(meta=trace.meta, rx=trace.rx)
    write_trace(tx_only, tmp_path / "tx.trace")
    write_trace(rx_only, tmp_path / "rx.trace")
    merged = load_pair(tmp_path / "tx.trace", tmp_path / "rx.trace")
    assert merged == trace
