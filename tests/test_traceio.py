import contextlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridchan.trace
import reference_traceio
from hybridchan import (
    ChannelParams,
    ReceiveStatus,
    Side,
    SimConfig,
    Trace,
    TraceError,
    TraceFormatError,
    TraceMeta,
    apply_channel,
    generate_tx,
    read_trace,
    traceio,
    write_trace,
)
from hybridchan.trace import CRC, NOT_LOADED, OK
from hybridchan.traceio import load_pair

from conftest import Row, rows, side


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def three_frame_trace():
    meta = TraceMeta(rate_bps=54e6, frame_len=12, interval_us=20000,
                     description='outdoor run "A" \\ test')
    tx = [
        Row(seq=i, timestamp_us=20000 * i, status=ReceiveStatus.OK,
            payload=bits("101000111111"))
        for i in range(3)
    ]
    rx = [
        Row(seq=0, timestamp_us=37, status=ReceiveStatus.OK,
            payload=bits("101000111111"), rssi=-61),
        Row(seq=None, timestamp_us=20040, status=ReceiveStatus.CRC_ERROR,
            payload=bits("101001111111"), rssi=-70),
        Row(seq=2, timestamp_us=40038, status=ReceiveStatus.PHY_ERROR),
    ]
    return Trace(meta, side(tx), side(rx))


def test_round_trip_identity(tmp_path):
    path = tmp_path / "t.trace"
    trace = three_frame_trace()
    write_trace(trace, path)
    assert read_trace(path) == trace


def test_empty_rx_round_trips(tmp_path):
    trace = three_frame_trace()
    trace.rx = Side.empty()
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    back = read_trace(path)
    assert len(back.rx) == 0 and back == trace


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


@pytest.mark.parametrize("rate", ["0", "-5", "1e999", "+-"])
def test_bad_rate_rejected(tmp_path, rate):
    path = tmp_path / "t.trace"
    path.write_text(f'#meta R={rate} frame_len=4 interval_us=100 desc=""\n')
    with pytest.raises(TraceFormatError) as err:
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
    ("tx +0 0 ok - a0", "not a canonical integer"),
    ("tx 0 1_000 ok - a0", "not a canonical integer"),
    ("tx 0 007 ok - a0", "not a canonical integer"),
    ("tx 0 0 ok \u0663 a0", "not a canonical integer"),
    ("tx 0 0 phy - a0", "must not carry a payload"),
    ("rx -3 0 phy - -", "seq '-3' is negative"),
    ("tx 0 1234567890123456789 ok - a0", "is out of range"),
    ("rx ? 0 ok -1000000000000000000 a0", "is out of range"),
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


@pytest.mark.parametrize("flen,interval", [
    ("\u0668", "100"), ("8", "0100"), ("+8", "100"), ("08", "100"), ("8", "1_00"),
])
def test_non_canonical_meta_integers(tmp_path, flen, interval):
    path = tmp_path / "t.trace"
    path.write_text(f'#meta R=54000000 frame_len={flen} interval_us={interval} '
                    f'desc=""\n' "tx 0 0 ok - a0\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="malformed #meta line") as err:
        read_trace(path)
    assert err.value.line == 1


def test_missing_meta_line(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("tx 0 0 ok - a0\n")
    with pytest.raises(TraceFormatError, match="meta"):
        read_trace(path)


def test_fractional_rate_round_trips(tmp_path):
    meta = TraceMeta(rate_bps=5.5e6 + 0.25, frame_len=4, interval_us=10)
    trace = Trace(meta, tx=side([Row(
        seq=0, timestamp_us=0, status=ReceiveStatus.OK, payload=bits("1011"))]))
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    assert read_trace(path).meta.rate_bps == meta.rate_bps


@pytest.mark.parametrize("desc", ["a\nb", "a\rb", "trailing\r\n"])
def test_line_break_in_description_rejected_at_write(tmp_path, desc):
    trace = three_frame_trace()
    trace.meta = TraceMeta(rate_bps=54e6, frame_len=12, interval_us=20000,
                           description=desc)
    path = tmp_path / "t.trace"
    with pytest.raises(TraceError, match="description") as err:
        write_trace(trace, path)
    assert not isinstance(err.value, TraceFormatError)
    assert not path.exists()


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -54e6])
def test_rate_read_would_refuse_rejected_at_write(tmp_path, rate):
    trace = three_frame_trace()
    trace.meta = TraceMeta(rate_bps=rate, frame_len=12, interval_us=20000)
    path = tmp_path / "t.trace"
    with pytest.raises(TraceError, match="positive and finite") as err:
        write_trace(trace, path)
    assert not isinstance(err.value, TraceFormatError)
    assert not path.exists()


def test_lone_cr_in_description_rejected_at_read(tmp_path):
    path = tmp_path / "t.trace"
    path.write_bytes(b'#meta R=54000000 frame_len=4 interval_us=100 desc="a\rb"\n'
                     b"tx 0 0 ok - a0\n")
    with pytest.raises(TraceFormatError, match="line break") as err:
        read_trace(path)
    assert err.value.line == 1


def test_description_round_trips(tmp_path):
    trace = three_frame_trace()
    trace.meta = TraceMeta(rate_bps=54e6, frame_len=12, interval_us=20000,
                           description='tab\tquote" back\\slash \u00e9 \\n')
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    assert path.read_text().count("\n") == 1 + len(trace.tx) + len(trace.rx)
    assert read_trace(path) == trace


def test_payloads_held_packed_in_one_matrix(tmp_path):
    config = SimConfig(
        params=ChannelParams(r=0.3, s=0.4, p=0.1, rate_bps=11e6, frame_len=13,
                             interval_us=1000),
        seed=9, n_frames=40)
    tx = generate_tx(config)
    path = tmp_path / "pair.trace"
    write_trace(Trace(meta=tx.meta, tx=tx.tx, rx=apply_channel(tx, config).rx), path)
    trace = read_trace(path)
    rx = trace.rx
    held = rx.row >= 0
    assert 0 < held.sum() < len(rx)
    # one matrix for the file: the tx rows, then the rx rows, in line order
    assert trace.tx.packed is rx.packed
    assert rx.packed.shape == (len(trace.tx) + held.sum(), 2)
    assert not rx.packed.flags.writeable
    assert trace.tx.row.tolist() == list(range(len(trace.tx)))
    assert rx.row[held].tolist() == list(range(len(trace.tx), rx.packed.shape[0]))
    assert (rx.row[~held] == -1).all() and rx.n_bits == 13


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
    # the pair keeps the rx file's meta, description included
    rx_meta = replace(trace.meta, description="rx side")
    tx_only = Trace(meta=trace.meta, tx=trace.tx)
    rx_only = Trace(meta=rx_meta, rx=trace.rx)
    write_trace(tx_only, tmp_path / "tx.trace")
    write_trace(rx_only, tmp_path / "rx.trace")
    merged = load_pair(tmp_path / "tx.trace", tmp_path / "rx.trace")
    assert merged == Trace(meta=rx_meta, tx=trace.tx, rx=trace.rx)


def test_non_utf8_byte_names_line(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    data = path.read_bytes().split(b"\n")
    data[4] = data[4][:10] + b"\xff" + data[4][10:]
    path.write_bytes(b"\n".join(data))
    with pytest.raises(TraceFormatError, match=r"not UTF-8 text \(byte 0xff\)") as err:
        read_trace(path)
    assert (err.value.path, err.value.line) == (str(path), 5)


@pytest.mark.parametrize("payload", ["A3F0", "a3F0", "+3f0", "a3 0"])
def test_non_canonical_hex_names_line(tmp_path, payload):
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    text = path.read_text().replace("tx 1 20000 ok - a3f0",
                                    f"tx 1 20000 ok - {payload}")
    path.write_text(text)
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 3


def test_crlf_line_endings_parse(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_trace(path) == three_frame_trace()


def test_invariant_violation_names_record_line(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(
        '#meta R=54000000 frame_len=4 interval_us=100 desc=""\n'
        "tx 0 100 ok - a0\n"
        "\n"
        "tx 1 50 ok - a0\n"
    )
    with pytest.raises(TraceFormatError, match="non-decreasing") as err:
        read_trace(path)
    assert err.value.line == 4


def test_load_pair_validates_each_side_once(tmp_path, monkeypatch):
    trace = three_frame_trace()
    write_trace(Trace(meta=trace.meta, tx=trace.tx), tmp_path / "tx.trace")
    write_trace(Trace(meta=trace.meta, rx=trace.rx), tmp_path / "rx.trace")
    calls = []
    validate = Trace.validate
    monkeypatch.setattr(Trace, "validate",
                        lambda self: calls.append(self) or validate(self))
    assert load_pair(tmp_path / "tx.trace", tmp_path / "rx.trace") == trace
    assert len(calls) == 2


def test_load_pair_rx_seq_without_tx_names_rx_file(tmp_path):
    trace = three_frame_trace()
    tx_path, rx_path = tmp_path / "tx.trace", tmp_path / "rx.trace"
    rx = rows(trace.rx)
    write_trace(Trace(trace.meta, tx=side(rows(trace.tx)[:2])), tx_path)
    write_trace(Trace(trace.meta, rx=side(rx[:1] + rx[2:])), rx_path)
    with pytest.raises(TraceFormatError) as info:
        load_pair(tx_path, rx_path)
    assert str(info.value) == f"{rx_path}:3: rx seq 2 has no matching tx record"
    assert info.value.line == 3


@pytest.mark.parametrize("tx_file", ["meta-only", "rx"])
def test_load_pair_refuses_rx_records_without_tx_records(tmp_path, tx_file):
    """A tx file of only its #meta line, or the rx file given as both
    files, pairs rx records with no tx record."""
    trace = three_frame_trace()
    rx_only = Trace(trace.meta, rx=trace.rx)
    meta_only, rx_path = tmp_path / "meta-only.trace", tmp_path / "rx.trace"
    write_trace(Trace(trace.meta), meta_only)
    write_trace(rx_only, rx_path)
    with pytest.raises(TraceFormatError) as info:
        load_pair(tmp_path / f"{tx_file}.trace", rx_path)
    assert str(info.value) == f"{rx_path}:2: more rx records than tx records"
    # a trace of one side still validates, and a pair of no records loads
    rx_only.validate()
    assert load_pair(meta_only, meta_only) == Trace(trace.meta)


# Fuzzing: start from well-formed files and damage them in the ways real
# files get damaged.  Each mutation is a tuple so failures print readably.
_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 400)),
    st.tuples(st.just("insert"), st.integers(0, 400),
              st.sampled_from([b" ", b"  ", b"\t", b"\r", b"\n", b"\x0c"])),
    st.tuples(st.just("insert"), st.integers(0, 400),
              st.sampled_from([b"\x80", b"\xff", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80"])),
    st.tuples(st.just("insert"), st.integers(0, 400), st.binary(min_size=1, max_size=3)),
    st.tuples(st.just("crlf")),
    st.tuples(st.just("frame_len"), st.text("0123456789", min_size=1, max_size=5000)),
    st.tuples(st.just("upper"), st.integers(0, 20)),
    st.tuples(st.just("drop_line"), st.integers(0, 20)),
    st.tuples(st.just("repeat_line"), st.integers(0, 20)),
    st.tuples(st.just("swap_lines"), st.integers(0, 20)),
    st.tuples(st.just("empty"), st.sampled_from([b"", b"\n", b"\r\n", b"  \n"])),
    # seq, timestamp or RSSI spelled in a way int() takes but write_trace never writes
    st.tuples(st.just("integer"), st.integers(0, 20), st.sampled_from([1, 2, 4]),
              st.sampled_from(["+0", "1_000", "007", "\u0663", "-0", "+5", " 5"])),
    # a #meta integer spelled in a way int() takes but write_trace never writes
    st.tuples(st.just("meta_int"), st.sampled_from(["frame_len", "interval_us"]),
              st.sampled_from(["\u0668", "0100", "+8", "08", " 8", "1_0"])),
)


def _noncanonical_line(data, mutation):
    """Line number the integer mutation spoiled in data, or None."""
    kind, *args = mutation
    if kind == "meta_int":
        return 1 if f" {args[0]}=".encode() in data.split(b"\n")[0] else None
    if kind != "integer":
        return None
    lines = data.split(b"\n")
    i = args[0] % len(lines)
    fields = lines[i].split(b" ")
    if i == 0 or len(fields) != 6 or fields[0] not in (b"tx", b"rx"):
        return None
    return i + 1


def _mutate(data, mutation):
    kind, *args = mutation
    if kind == "truncate":
        return data[: args[0] % (len(data) + 1)]
    if kind == "insert":
        pos = args[0] % (len(data) + 1)
        return data[:pos] + args[1] + data[pos:]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "frame_len":
        return re.sub(rb"frame_len=\d+", b"frame_len=" + args[0].encode(), data)
    if kind == "empty":
        return args[0]
    if kind == "meta_int":
        return re.sub(f" {args[0]}=[^ \n]*".encode(),
                      f" {args[0]}={args[1]}".encode(), data, count=1)
    lines = data.split(b"\n")
    i = args[0] % len(lines)
    if kind == "integer":
        if _noncanonical_line(data, mutation) is not None:
            fields = lines[i].split(b" ")
            fields[args[1]] = args[2].encode()
            lines[i] = b" ".join(fields)
    elif kind == "upper":
        lines[i] = lines[i].upper()
    elif kind == "drop_line":
        del lines[i]
    elif kind == "repeat_line":
        lines.insert(i, lines[i])
    elif kind == "swap_lines":
        j = (i + 1) % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def _fuzz_bases():
    trace = three_frame_trace()
    config = SimConfig(
        params=ChannelParams(r=0.2, s=0.4, p=0.1, rate_bps=11e6, frame_len=20,
                             interval_us=1000),
        seed=4, n_frames=8, timestamp_jitter_us=5)
    tx = generate_tx(config)
    rx = rows(apply_channel(tx, config).rx)
    rx[3] = rx[3]._replace(seq=None, rssi=-77)
    sim = Trace(meta=tx.meta, tx=tx.tx, rx=side(rx))
    return [trace, sim, Trace(meta=trace.meta, tx=trace.tx),
            Trace(meta=sim.meta, rx=sim.rx)]


_BASES = _fuzz_bases()


@contextlib.contextmanager
def _budget_of(budget):
    """Every blocked pass on a budget of budget bytes (trace.BLOCK_BYTES):
    traceio reads blocks of 4 * budget bytes of text, decodes and writes
    about budget bytes of hex at a time, and formats the heads of budget
    records at a time."""
    saved = hybridchan.trace.BLOCK_BYTES, traceio._HEAD_RECORDS
    hybridchan.trace.BLOCK_BYTES = traceio._HEAD_RECORDS = budget
    try:
        yield
    finally:
        hybridchan.trace.BLOCK_BYTES, traceio._HEAD_RECORDS = saved


# Read blocks of a few dozen bytes or less: seams fall inside lines,
# between CR and LF, at blank lines and before a last line without LF.
_small_budgets = st.integers(1, 16)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(_BASES))), st.lists(_mutations, min_size=1, max_size=3))
def test_read_trace_fuzz(tmp_path_factory, base, mutations):
    _read_mutated(tmp_path_factory, base, mutations)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_BASES))), st.lists(_mutations, min_size=1, max_size=3),
       _small_budgets)
def test_read_trace_fuzz_in_small_blocks(tmp_path_factory, base, mutations, budget):
    with _budget_of(budget):
        _read_mutated(tmp_path_factory, base, mutations)


def _read_mutated(tmp_path_factory, base, mutations):
    path = tmp_path_factory.mktemp("fuzz") / "t.trace"
    write_trace(_BASES[base], path)
    data = path.read_bytes()
    for mutation in mutations:
        spoiled = _noncanonical_line(data, mutation)
        data = _mutate(data, mutation)
    path.write_bytes(data)
    try:
        trace = read_trace(path)
    except TraceFormatError as exc:
        assert exc.path == str(path)
        assert exc.line is not None and 1 <= exc.line <= data.count(b"\n") + 1
        assert str(exc).startswith(f"{path}:{exc.line}: ")
        # the last mutation wrote a non-canonical integer there; bytes
        # that are not UTF-8 are reported first, wherever they are
        assert spoiled is None or exc.line <= spoiled or "not UTF-8" in str(exc)
        return
    assert spoiled is None, "a non-canonical integer was accepted"
    trace.validate()
    write_trace(trace, path)
    assert read_trace(path) == trace


@settings(max_examples=100, deadline=None)
@given(st.lists(_mutations, min_size=1, max_size=3))
def test_load_pair_fuzz_rx_side(tmp_path_factory, mutations):
    sim = _BASES[1]
    tmp = tmp_path_factory.mktemp("pair")
    tx_path, rx_path = tmp / "tx.trace", tmp / "rx.trace"
    write_trace(Trace(meta=sim.meta, tx=sim.tx), tx_path)
    write_trace(Trace(meta=sim.meta, rx=sim.rx), rx_path)
    data = rx_path.read_bytes()
    for mutation in mutations:
        data = _mutate(data, mutation)
    rx_path.write_bytes(data)
    try:
        trace = load_pair(tx_path, rx_path)
    except TraceFormatError as exc:
        assert exc.path == str(rx_path)
        return
    trace.validate()


# load_pair(hold="corrupted") against the full load: the same fault,
# or the same columns and the same payloads wherever it loads them.

def _pair_outcome(tx_path, rx_path, corrupted_only):
    """("read", trace) or ("fault", path, line, message) of load_pair."""
    try:
        return "read", load_pair(tx_path, rx_path,
                                 hold="corrupted" if corrupted_only else "all")
    except TraceFormatError as exc:
        return "fault", exc.path, exc.line, str(exc)


def _partial_matches_full(tx_path, rx_path):
    full = _pair_outcome(tx_path, rx_path, False)
    part = _pair_outcome(tx_path, rx_path, True)
    if full[0] == "fault":
        assert part == full
        return
    assert part[0] == "read"
    full, part = full[1], part[1]
    assert part.meta == full.meta
    for name in ("tx", "rx"):
        got, want = getattr(part, name), getattr(full, name)
        for key in traceio._SIDE_COLUMNS[:-1]:
            assert np.array_equal(getattr(got, key), getattr(want, key)), (name, key)
        assert got.n_bits == want.n_bits
        assert np.array_equal(got.row == -1, want.row == -1)
    picked = part.rx.corrupted()
    seqs = part.rx.seq[picked]
    # exactly the rows the analyses read are held, and they equal the full load's
    assert len(part.rx.packed) == np.count_nonzero(part.rx.row >= 0) == picked.size
    assert len(part.tx.packed) == np.count_nonzero(part.tx.row >= 0) == np.unique(seqs).size
    assert np.array_equal(part.rx.payloads(picked), full.rx.payloads(picked))
    assert np.array_equal(part.tx.payloads(seqs), full.tx.payloads(seqs))


def _pair_bases():
    """(tx file, rx file) traces: the simulated pair split in two, and
    whole files holding both sides, given as both files."""
    sim = _BASES[1]
    return [(Trace(sim.meta, tx=sim.tx), Trace(sim.meta, rx=sim.rx)),
            (sim, sim), (_BASES[0], _BASES[0])]


_PAIR_BASES = _pair_bases()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(_PAIR_BASES))), st.lists(_mutations, max_size=2),
       st.lists(_mutations, max_size=2), st.none() | _small_budgets)
def test_load_pair_corrupted_only_matches_full_load(tmp_path_factory, base, tx_mutations,
                                                    rx_mutations, budget):
    tmp = tmp_path_factory.mktemp("partial")
    paths = tmp / "tx.trace", tmp / "rx.trace"
    for path, trace, mutations in zip(paths, _PAIR_BASES[base],
                                      (tx_mutations, rx_mutations)):
        write_trace(trace, path)
        data = path.read_bytes()
        for mutation in mutations:
            data = _mutate(data, mutation)
        path.write_bytes(data)
    with _budget_of(budget) if budget else contextlib.nullcontext():
        _partial_matches_full(*paths)


def _edge_pair(tmp_path, tx_lines=(), rx_lines=()):
    """three_frame_trace's sides as a tx file and an rx file, with
    record lines replaced: (index among the file's records, new line)."""
    trace = three_frame_trace()
    paths = tmp_path / "tx.trace", tmp_path / "rx.trace"
    for path, name, lines in zip(paths, ("tx", "rx"), (tx_lines, rx_lines)):
        write_trace(Trace(trace.meta, **{name: getattr(trace, name)}), path)
        text = path.read_text().splitlines(keepends=True)
        for i, line in lines:
            text[1 + i] = line + "\n"
        path.write_text("".join(text))
    return paths


@pytest.mark.parametrize("tx_lines, rx_lines, fault", [
    # both files faulty: the tx file's fault, as a full load reports it
    ([(1, "tx 1 20000 ok - A3F0")], [(0, "rx 0 37 ok -61 a3f")],
     ("tx", 3, "payload must be lowercase hex digits")),
    # an rx fault found by validation, after the rx file is read
    ([(2, "tx 2 40000 bad - a3f0")], [(2, "rx 2 37 phy - -")],
     ("tx", 4, "unknown status 'bad'")),
    ([], [(2, "rx 2 37 phy - -")], ("rx", 4, "rx timestamps must be non-decreasing "
                                          "(saw 37 after 20040)")),
    ([], [(0, "rx 0 37 ok -61 a3f1")],
     ("rx", 2, "nonzero padding bits past the declared bit length")),
    # bad hex on a tx row that is not loaded (no rx record is corrupted
    # with a known seq), and on one that is
    ([(0, "tx 0 0 ok - a3fz")], [], ("tx", 2, "payload must be lowercase hex digits")),
    ([(2, "tx 2 40000 ok - a3f1")], [(1, "rx 2 20040 crc -70 a7f0")],
     ("tx", 4, "nonzero padding bits past the declared bit length")),
    # a corrupted rx seq past the tx file, named by the pairing check
    ([], [(1, "rx 7 20040 crc -70 a7f0"), (2, "rx ? 40038 phy - -")],
     ("rx", 3, "rx seq 7 has no matching tx record")),
], ids=["both", "tx-before-rx-invariant", "rx-invariant", "rx-hex", "unloaded-tx-hex",
        "loaded-tx-hex", "seq-past-tx"])
def test_load_pair_corrupted_only_faults(tmp_path, tx_lines, rx_lines, fault):
    paths = _edge_pair(tmp_path, tx_lines, rx_lines)
    name, line, message = fault
    path = str(paths[name == "rx"])
    for corrupted_only in (False, True):
        assert _pair_outcome(*paths, corrupted_only) == (
            "fault", path, line, f"{path}:{line}: {message}")


def test_load_pair_corrupted_only_meta_mismatch(tmp_path):
    tx_path, rx_path = _edge_pair(tmp_path, rx_lines=[(1, "rx 1 20040 crc -70 a7f0")])
    rx_path.write_text(rx_path.read_text().replace("R=54000000", "R=48000000"))
    with pytest.raises(TraceFormatError) as info:
        load_pair(tx_path, rx_path, hold="corrupted")
    assert str(info.value) == (
        f"{rx_path}: metadata mismatch between {tx_path} and {rx_path}")


@pytest.mark.parametrize("rx_lines, held", [
    ([], []),  # the corrupted record has seq ?: nothing is loaded
    ([(1, "rx 1 20040 crc -70 a7f0")], [1]),
    ([(0, "rx 0 37 crc -61 a3f0"), (1, "rx 1 20040 crc -70 a3f0")], [0, 1]),  # no flips
], ids=["unknown-seq", "one", "no-flips"])
def test_load_pair_corrupted_only_holds_corrupted_rows(tmp_path, rx_lines, held):
    paths = _edge_pair(tmp_path, rx_lines=rx_lines)
    _partial_matches_full(*paths)
    trace = load_pair(*paths, hold="corrupted")
    assert trace.rx.seq[trace.rx.corrupted()].tolist() == held
    assert np.flatnonzero(trace.tx.row >= 0).tolist() == held
    assert (trace.tx.row[trace.tx.row < 0] == NOT_LOADED).all()
    assert trace.rx.row[2] == -1  # the PHY error
    with pytest.raises(TraceError, match="payload not loaded"):
        trace.tx.payloads(np.arange(3))
    # the columns are whole
    assert len(trace.tx) == len(trace.rx) == 3


def test_unloaded_rows_are_not_written(tmp_path):
    paths = _edge_pair(tmp_path, rx_lines=[(1, "rx 1 20040 crc -70 a7f0")])
    trace = load_pair(*paths, hold="corrupted")
    path = tmp_path / "out.trace"
    with pytest.raises(TraceError, match="tx record 0: payload not loaded") as err:
        write_trace(trace, path)
    assert err.value.record == ("tx", 0) and not path.exists()
    write_trace(load_pair(*paths), path)
    with pytest.raises(TraceError, match="payload not loaded"):
        traceio.write_run([(Trace(trace.meta, tx=trace.tx), Trace(trace.meta))],
                          tmp_path / "a.trace", tmp_path / "b.trace")
    assert not (tmp_path / "a.trace").exists()


def test_run_is_validated_without_payload_rows(tmp_path, monkeypatch):
    validated = []
    validate = Trace.validate
    monkeypatch.setattr(Trace, "validate",
                        lambda self: validated.append(self) or validate(self))
    blocks = _run_blocks([0, None, 2])
    blocks[1] = (blocks[1][0], Trace(blocks[1][1].meta, rx=side(
        [(None, 10, ReceiveStatus.PHY_ERROR)])))
    traceio.write_run(blocks, tmp_path / "tx.trace", tmp_path / "rx.trace")
    tx, rx = validated[0].tx, validated[1].rx
    assert tx.row.tolist() == [NOT_LOADED] * 3 and tx.packed.size == 0
    assert rx.row.tolist() == [NOT_LOADED, -1, NOT_LOADED] and rx.packed.size == 0
    assert tx.n_bits == rx.n_bits == 12


def test_lone_cr_is_not_a_line_break(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    data = path.read_bytes().replace(b"a3f0\ntx 1", b"a3f0\rtx 1")
    path.write_bytes(data)
    with pytest.raises(TraceFormatError, match="expected 6 fields, got 11") as err:
        read_trace(path)
    assert err.value.line == 2


# The column reader against the per-line reference reader.

@st.composite
def valid_traces(draw):
    """Traces write_trace accepts: either side may be empty, seqs may be unknown."""
    frame_len = draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big = st.integers(-10**18 + 1, 10**18 - 1)
    rssi = st.none() | big

    def times(n):
        return sorted(draw(st.lists(big, min_size=n, max_size=n)))

    def payload():
        return gen.integers(0, 2, frame_len, dtype=np.uint8)

    n_tx = draw(st.integers(0, 8))
    tx = [Row(seq=i, timestamp_us=t, rssi=draw(rssi), payload=payload(),
              status=draw(st.sampled_from([ReceiveStatus.OK,
                                           ReceiveStatus.CRC_ERROR])))
          for i, t in enumerate(times(n_tx))]
    n_rx = draw(st.integers(0, n_tx or 8))
    pool = range(n_tx) if n_tx else range(10**18)
    seqs = sorted(draw(st.lists(st.sampled_from(pool) if n_tx else st.integers(0, 10**18 - 1),
                                min_size=n_rx, max_size=n_rx, unique=True)))
    rx = []
    for seq, t in zip(seqs, times(n_rx)):
        status = draw(st.sampled_from(list(ReceiveStatus)))
        rx.append(Row(
            seq=draw(st.sampled_from([seq, None])), timestamp_us=t, status=status,
            rssi=draw(rssi),
            payload=None if status is ReceiveStatus.PHY_ERROR else payload()))
    meta = TraceMeta(rate_bps=draw(st.sampled_from([54e6, 1.5, 11e6 + 0.25])),
                     frame_len=frame_len, interval_us=draw(st.integers(0, 10**6)),
                     description=draw(st.text(max_size=8).filter(
                         lambda d: "\n" not in d and "\r" not in d)))
    return Trace(meta, side(tx), side(rx))


def _records(trace_side):
    """A side's records as the reference reader's tuples, payloads packed."""
    return [(seq, ts, status, None if bits is None else np.packbits(bits).tobytes(), rssi)
            for seq, ts, status, bits, rssi in rows(trace_side)]


@settings(max_examples=150, deadline=None)
@given(valid_traces())
def test_columns_match_reference_records(tmp_path_factory, trace):
    _columns_match_reference(tmp_path_factory, trace)


@settings(max_examples=100, deadline=None)
@given(valid_traces(), _small_budgets)
def test_columns_match_reference_records_in_small_blocks(tmp_path_factory, trace, budget):
    with _budget_of(budget):
        _columns_match_reference(tmp_path_factory, trace)


def _columns_match_reference(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("valid") / "t.trace"
    write_trace(trace, path)
    got = read_trace(path)
    meta, tx, rx = reference_traceio.read(path)
    assert got.meta == meta == trace.meta
    assert _records(got.tx) == tx and _records(got.rx) == rx
    assert got == trace


@settings(max_examples=150, deadline=None)
@given(valid_traces(), st.none() | _small_budgets)
def test_writer_matches_reference_writer(tmp_path_factory, trace, budget):
    tmp = tmp_path_factory.mktemp("write")
    with _budget_of(budget) if budget else contextlib.nullcontext():
        write_trace(trace, tmp / "a.trace")
    reference_traceio.write(trace, tmp / "b.trace")
    assert (tmp / "a.trace").read_bytes() == (tmp / "b.trace").read_bytes()


def _cut(trace_side, cuts):
    """trace_side as consecutive Sides split at cuts, each sharing its
    payload matrix (so that each holds rows its records do not use)."""
    bounds = [0, *cuts, len(trace_side)]
    return [Side(**{key: getattr(trace_side, key)[a:b] for key in traceio._SIDE_COLUMNS},
                 packed=trace_side.packed, n_bits=trace_side.n_bits)
            for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=100, deadline=None)
@given(valid_traces(), st.data())
def test_write_run_matches_write_trace(tmp_path_factory, trace, data):
    """Any cut of the sides into blocks, empty ones too, writes the bytes
    write_trace gives each whole side."""
    tmp = tmp_path_factory.mktemp("run")
    n_blocks = data.draw(st.integers(1, 4))
    blocks = zip(*(
        [Trace(trace.meta, **{name: block}) for block in _cut(
            getattr(trace, name),
            sorted(data.draw(st.lists(st.integers(0, len(getattr(trace, name))),
                                      min_size=n_blocks - 1, max_size=n_blocks - 1))))]
        for name in ("tx", "rx")))
    with _budget_of(data.draw(_small_budgets)):
        traceio.write_run(blocks, tmp / "tx.trace", tmp / "rx.trace")
    write_trace(Trace(trace.meta, tx=trace.tx), tmp / "whole-tx.trace")
    write_trace(Trace(trace.meta, rx=trace.rx), tmp / "whole-rx.trace")
    for name in ("tx", "rx"):
        assert (tmp / f"{name}.trace").read_bytes() == (
            tmp / f"whole-{name}.trace").read_bytes()
    assert sorted(p.name for p in tmp.iterdir()) == [
        "rx.trace", "tx.trace", "whole-rx.trace", "whole-tx.trace"]


def _run_blocks(rx_seqs, meta=None):
    """Blocks of one tx record each and one rx record of seq rx_seqs[k]."""
    meta = meta or [three_frame_trace().meta] * len(rx_seqs)
    return [(Trace(m, tx=side([(k, 10 * k, ReceiveStatus.OK, bits("1" * 12))])),
             Trace(m, rx=side([(seq, 10 * k, ReceiveStatus.OK, bits("0" * 12))])))
            for k, (seq, m) in enumerate(zip(rx_seqs, meta))]


@pytest.mark.parametrize("blocks, error, message, record", [
    # faults across a seam, which no block's Side sees: validate's message
    # and record for the whole run
    (_run_blocks([0, None, 1, 1]), TraceError, "rx seq 1 appears more than once",
     ("rx", 3)),
    (_run_blocks([0, 2, 1]), TraceError,
     "known rx seqs must increase in trace order (saw 1 after 2)", ("rx", 2)),
    (_run_blocks([0, 1], [three_frame_trace().meta, TraceMeta(54e6, 12, 7)]),
     ValueError, "a block of a run's tx trace must hold only tx records, with "
                 "the first block's metadata and payload length", None),
    (_run_blocks([0], [TraceMeta(54e6, 12, 7, "a\nb")]), TraceError,
     "description 'a\\nb' must not contain a line break", None),
    ([], ValueError, "a run must have at least one block", None),
], ids=["duplicate", "order", "meta", "description", "empty"])
def test_refused_run_leaves_the_old_pair(tmp_path, blocks, error, message, record):
    write_trace(three_frame_trace(), tmp_path / "tx.trace")
    write_trace(three_frame_trace(), tmp_path / "rx.trace")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(error) as err:
        traceio.write_run(iter(blocks), tmp_path / "tx.trace", tmp_path / "rx.trace")
    assert str(err.value) == message
    assert getattr(err.value, "record", None) == record
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _outcome(read, path):
    """("read", (meta, tx records, rx records)) or ("fault", line, message)."""
    try:
        got = read(path)
    except TraceFormatError as exc:
        return "fault", exc.line, str(exc)
    if isinstance(got, Trace):
        got = got.meta, _records(got.tx), _records(got.rx)
    return "read", got


# Faults the column reader names that the reference lets through or names
# later: seqs below zero and integers past 18 digits have no column value,
# and a tx record without a payload has nothing to compare against.
def _new_fault(data, line, message):
    """Whether the reader's message is a check the reference lacks, at its line."""
    text = data.replace(b"\r\n", b"\n").split(b"\n")[line - 1].decode(errors="replace")
    fields = text.split(" ")
    if "is negative" in message:
        return fields[1].startswith("-")
    if "is out of range" in message:
        return any(len(f.lstrip("-")) > 18 for f in fields[1:5])
    if "carries no payload" in message:
        return fields[0] == "tx" and fields[3] == "phy"
    return False


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(_BASES))), st.lists(_mutations, min_size=1, max_size=3))
def test_faults_match_reference(tmp_path_factory, base, mutations):
    _faults_match_reference(tmp_path_factory, base, mutations)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_BASES))), st.lists(_mutations, min_size=1, max_size=3),
       _small_budgets)
def test_faults_match_reference_in_small_blocks(tmp_path_factory, base, mutations, budget):
    with _budget_of(budget):
        _faults_match_reference(tmp_path_factory, base, mutations)


def _faults_match_reference(tmp_path_factory, base, mutations):
    path = tmp_path_factory.mktemp("mutated") / "t.trace"
    write_trace(_BASES[base], path)
    data = path.read_bytes()
    for mutation in mutations:
        data = _mutate(data, mutation)
    path.write_bytes(data)
    got = _outcome(read_trace, path)
    want = _outcome(reference_traceio.read, path)
    if got[0] == "fault" and _new_fault(data, *got[1:]):
        return
    assert got == want


@pytest.mark.parametrize("line,message", [
    ("tx 0 0 ok - a0 9", "expected 6 fields, got 7"),
    ("tx 0 0 ok a0 0", "invalid literal for int() with base 10: 'a0'"),
    ("tx 0 0 ok - a 0", "expected 6 fields, got 7"),
    ("tx 0 0 ok  a0", "invalid literal for int() with base 10: ''"),
    (" tx 0 0 ok - a0", "expected 6 fields, got 7"),
    ("\ttx 0 0 ok - a0", "unknown side '\\ttx'"),
    ("tx 0 0 ok -", "expected 6 fields, got 5"),
    ("tx 0 0 ok - -", "ok frame must carry a payload"),
    ("tx 0 0 ok - a0a0", "payload hex has 4 digits, expected 2 for 4 bits"),
    # the width counts bytes, the message characters
    ("tx 0 0 ok - \u00e9\u00e9", "payload hex has 2 digits, expected 2 for 4 bits"),
])
def test_malformed_line_after_bad_payload(tmp_path, line, message):
    """A payload fault before the first malformed line is reported first."""
    path = tmp_path / "t.trace"
    head = '#meta R=54000000 frame_len=4 interval_us=100 desc=""\n'
    path.write_text(head + "tx 0 0 ok - a0\n" + line + "\n", encoding="utf-8")
    for read in (read_trace, reference_traceio.read):
        assert _outcome(read, path) == ("fault", 3, f"{path}:3: {message}")
    for bad, fault in (("A0", "payload must be lowercase hex digits"),
                       ("a1", "nonzero padding bits past the declared bit length")):
        path.write_text(head + f"tx 0 0 ok - {bad}\n" + line + "\n", encoding="utf-8")
        for read in (read_trace, reference_traceio.read):
            assert _outcome(read, path) == ("fault", 2, f"{path}:2: {fault}")


def test_space_in_payload_is_a_malformed_line(tmp_path):
    """A payload of the right width holding a space ends a line of 7 fields."""
    path = tmp_path / "t.trace"
    head = '#meta R=54000000 frame_len=12 interval_us=100 desc=""\n'
    cases = [
        ("tx 0 0 ok - a3f0\n", (3, "expected 6 fields, got 7")),
        ("tx 0 0 ok - a3F0\n", (2, "payload must be lowercase hex digits")),
        ("tx 0 0 ok - a3f1\n", (2, "nonzero padding bits past the declared bit length")),
    ]
    for first, (line, message) in cases:
        path.write_text(head + first + "tx 1 0 ok - a3 0\ntx 2 0 ok - a3f0\n")
        for read in (read_trace, reference_traceio.read):
            assert _outcome(read, path) == ("fault", line, f"{path}:{line}: {message}")


# The column reader only accepts; _first_fault and _line_fault name faults.

def test_valid_files_never_check_a_line(tmp_path, monkeypatch):
    trace = three_frame_trace()
    write_trace(trace, tmp_path / "t.trace")
    write_trace(Trace(meta=trace.meta, tx=trace.tx), tmp_path / "tx.trace")
    write_trace(Trace(meta=trace.meta, rx=trace.rx), tmp_path / "rx.trace")

    def line_fault(line, n_bits):
        raise AssertionError(f"line checked: {line!r}")

    monkeypatch.setattr(traceio, "_line_fault", line_fault)
    assert read_trace(tmp_path / "t.trace") == trace
    assert load_pair(tmp_path / "tx.trace", tmp_path / "rx.trace") == trace


@pytest.mark.parametrize("old,new", [
    ("tx 1 20000 ok - a3f0", "tx 1 20000 ok - a3f00"),  # no payload width before LF
    ("tx 1 20000 ok - a3f0", "tx 01 20000 ok - a3f0"),  # head the regex refuses
    ("tx 1 20000 ok - a3f0", "tx 1 20000 phy - a3f0"),  # status against payload
    ("tx 1 20000 ok - a3f0", "tx 1 20000 ok - a3f1"),  # payload hex
])
def test_malformed_file_is_located_once(tmp_path, monkeypatch, old, new):
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    path.write_text(path.read_text().replace(old, new))
    calls = []
    first_fault = traceio._first_fault
    monkeypatch.setattr(traceio, "_first_fault",
                        lambda p: calls.append(p) or first_fault(p))
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert calls == [path] and err.value.line == 3


def test_sides_may_alternate(tmp_path):
    """tx and rx lines may come in any order; each side keeps its own."""
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    meta, *lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(meta + b"".join(lines[i] for i in (0, 3, 1, 4, 5, 2)))
    assert read_trace(path) == three_frame_trace()
    assert _outcome(reference_traceio.read, path) == _outcome(read_trace, path)


_SEAMS = (
    '#meta R=54000000 frame_len=12 interval_us=20000 desc="seams \u00e9"\r\n'
    "tx 0 0 ok - a3f0\r\n"
    "\r\n"
    "tx 1 20000 crc -61 a3f0\n"
    " \u00a0\t\n"
    "tx 2 40000 ok - a3f0\n"
    "rx 0 37 ok -61 a3f0\r\n"
    "\n"
    "\x0c\n"
    "rx ? 20040 crc -70 a7f0\n"
    "rx 2 40038 phy - -"
)


def _seams(path, text):
    """Write text to path with 0 to 3 blank lines after its #meta line, and
    yield each count with the budgets to read it on: a read block ends 4 *
    budget bytes after that line, so the pairs put a seam at every byte of
    the record lines."""
    meta, records = text.encode().split(b"\n", 1)
    for pad in range(4):
        path.write_bytes(meta + b"\n" * (1 + pad) + records)
        yield pad, range(1, len(records) // 4 + 2)


def test_every_block_seam(tmp_path):
    """A seam anywhere: inside a line, between CR and LF, at a blank line
    (ASCII or not) and before a last line without LF."""
    path = tmp_path / "t.trace"
    path.write_bytes(_SEAMS.encode())
    want = read_trace(path)
    _, tx, rx = reference_traceio.read(path)
    assert len(tx) == len(rx) == 3
    assert _records(want.tx) == tx and _records(want.rx) == rx
    for pad, budgets in _seams(path, _SEAMS):
        for budget in budgets:
            with _budget_of(budget):
                assert read_trace(path) == want, (pad, budget)


@pytest.mark.parametrize("text,line", [
    (_SEAMS + "\n" + "rx 3 40039 phy - -", 12),
    (_SEAMS.replace("40038", "20039"), 11),
    (_SEAMS + "\r\nrx ? 0 phy - a3f0", 12),
    (_SEAMS.replace("a7f0", "a7F0"), 10),
    (_SEAMS.replace("\u00a0", "\u00a0x"), 5),
], ids=["rx-count", "rx-order", "phy-payload", "hex", "not-blank"])
def test_every_block_seam_of_a_faulty_file(tmp_path, text, line):
    path = tmp_path / "t.trace"
    for pad, budgets in _seams(path, text):
        want = _outcome(reference_traceio.read, path)
        assert want[:2] == ("fault", line + pad)
        for budget in budgets:
            with _budget_of(budget):
                assert _outcome(read_trace, path) == want, (pad, budget)


def _read_peak(path):
    """Peak bytes that read_trace allocates on path, whether it reads or refuses it."""
    tracemalloc.start()
    try:
        try:
            read_trace(path)
        except TraceFormatError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rx_text(n, seed=0):
    """A trace file of n rx records with 2000-bit payloads, about 520 bytes a line."""
    hex_rows = np.random.default_rng(seed).bytes(250 * n).hex()
    return '#meta R=54000000 frame_len=2000 interval_us=100 desc=""\n' + "".join(
        f"rx {i} {100 * i} crc - {hex_rows[500 * i:500 * (i + 1)]}\n" for i in range(n)
    )


@pytest.mark.parametrize("bad", [
    "rx ? 0 ok - not-hex",  # no payload width before LF
    "rx 07 0 crc - " + "0" * 500,  # head the regex refuses
    "rx ? 0 phy - " + "0" * 500,  # status against payload
    "rx ? 0 crc - " + "z" * 500,  # payload hex
], ids=["shape", "head", "status", "hex"])
def test_error_path_holds_one_copy_of_the_file(tmp_path, bad):
    """The locator's re-read holds one copy of the file, and the column
    reader's blocks and payload rows are gone by then."""
    n = 2000
    text = _rx_text(n)
    good, faulty = tmp_path / "good.trace", tmp_path / "faulty.trace"
    good.write_text(text)
    faulty.write_text(text + bad + "\n")
    assert len(read_trace(good).rx) == n
    with pytest.raises(TraceFormatError, match=f":{n + 2}: "):
        read_trace(faulty)
    assert _outcome(read_trace, faulty) == _outcome(reference_traceio.read, faulty)
    # The file is one block here; a reader that held the whole file peaked
    # at 2.2 times it on either path.
    assert _read_peak(faulty) < 2.2 * len(text)
    # With blocks far smaller than the file, the locator's copy is the peak.
    with _budget_of(1 << 13):  # read blocks of 32 KiB
        assert _read_peak(faulty) < 1.1 * len(text)


def test_read_holds_no_copy_of_the_file(tmp_path):
    """read_trace holds its packed rows and columns, and a few blocks."""
    small, large = tmp_path / "small.trace", tmp_path / "large.trace"
    small.write_text(_rx_text(4000))  # about 2 MB, half of it packed rows
    large.write_text(_rx_text(8000))
    with _budget_of(1 << 13):  # read blocks of 32 KiB
        assert _read_peak(small) < 0.7 * small.stat().st_size
    # 4000 more records add their packed rows and columns, no more; besides
    # those the reader holds about one and a half blocks.
    assert _read_peak(large) - _read_peak(small) < 4000 * (250 + 64)
    read_block = 4 * hybridchan.trace.BLOCK_BYTES
    assert _read_peak(large) - 8000 * (250 + 48) < 1.75 * read_block


def _pair_text(n_corrupted, n_clean, seed=0):
    """The tx and rx files of n_corrupted corrupted frames and then
    n_clean clean ones, with 2000-bit payloads."""
    tx = _rx_text(n_corrupted + n_clean, seed).replace("\nrx ", "\ntx ").replace(
        " crc ", " ok ")
    lines = tx.splitlines(keepends=True)
    rx = lines[0] + "".join(
        "rx" + line[2:].replace(" ok ", " crc " if i < n_corrupted else " ok ")
        for i, line in enumerate(lines[1:]))
    return tx, rx


def _load_peak(tx_path, rx_path, corrupted_only):
    """Peak bytes load_pair allocates, and the trace it returns."""
    tracemalloc.start()
    try:
        trace = load_pair(tx_path, rx_path,
                          hold="corrupted" if corrupted_only else "all")
        return tracemalloc.get_traced_memory()[1], trace
    finally:
        tracemalloc.stop()


def test_corrupted_only_holds_rows_of_corrupted_frames(tmp_path):
    """Clean frames add their columns to the load, and no payload rows."""
    peaks = []
    for n_clean in (0, 4000):
        tx_text, rx_text = _pair_text(2000, n_clean)
        pair = tmp_path / f"tx-{n_clean}.trace", tmp_path / f"rx-{n_clean}.trace"
        pair[0].write_text(tx_text)
        pair[1].write_text(rx_text)
        peak, trace = _load_peak(*pair, True)
        peaks.append(peak)
        assert len(trace.tx) == len(trace.rx) == 2000 + n_clean
        picked = trace.rx.corrupted()
        assert picked.size == 2000
        assert trace.rx.packed.shape == (picked.size, 250)
        assert trace.tx.packed.shape == (np.unique(trace.rx.seq[picked]).size, 250)
        assert (trace.rx.row[trace.rx.status == OK] == NOT_LOADED).all()
    # 8000 more records, 4000 a file: about 64 bytes each
    assert peaks[1] - peaks[0] < 8000 * 64
    # the full load adds the clean frames' rows of both files
    assert _load_peak(*pair, False)[0] - peaks[1] > 2 * 4000 * 250


def test_write_peak_does_not_grow_with_records(tmp_path):
    peaks = []
    for n in (2000, 8000):
        frames = np.arange(n)
        rx = Side(seq=frames, timestamp_us=100 * frames, status=np.full(n, CRC),
                  rssi=np.zeros(n, dtype=np.int64), has_rssi=np.zeros(n, dtype=bool),
                  row=frames, n_bits=2000,
                  packed=np.random.default_rng(n).integers(0, 256, (n, 250), dtype=np.uint8))
        trace = Trace(TraceMeta(rate_bps=54e6, frame_len=2000, interval_us=100), rx=rx)
        tracemalloc.start()
        try:
            write_trace(trace, tmp_path / "t.trace")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 4096


def test_file_without_a_faulty_line_is_named_without_a_line(tmp_path):
    """A file that changed after the column reader refused it."""
    path = tmp_path / "t.trace"
    write_trace(three_frame_trace(), path)
    fault = traceio._first_fault(path)
    assert (fault.path, fault.line) == (str(path), None)
    assert str(fault).startswith(f"{path}: ")
