"""recover holds only the payload rows it compares: the streamed command
against recover_trace on a full load_pair followed by write_trace."""

import contextlib
import io
import os
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridchan import cli, load_pair, traceio, write_trace
from hybridchan.trace import CRC

from test_traceio import _budget_of, _mutate, _mutations, _rx_text


def _run(args, reference=False):
    """(exit code, stdout, stderr) of the CLI; reference runs recover on a
    full load_pair, recover_trace with the trace's own tx rows and
    write_trace, as recover did before it streamed its payloads."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            patch.setattr(cli, "load_pair", lambda tx, rx, **kwargs: load_pair(tx, rx))
            patch.setattr(cli, "payload_blocks", lambda *args: None)
            patch.setattr(cli, "rewrite_rx",
                          lambda trace, path, *args: write_trace(trace, path))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([str(arg) for arg in args])
    return code, stdout.getvalue(), stderr.getvalue()


def _outcome(pair, scrub, out, reference=False):
    """What recover gives on pair: its exit code, stdout and stderr, and the
    bytes of recovered.trace (None if it wrote none)."""
    shutil.rmtree(out, ignore_errors=True)
    result = _run(["recover", *pair, *(["--scrub"] if scrub else []), "--out", out],
                  reference)
    path = out / "recovered.trace"
    return (*result, path.read_bytes() if path.exists() else None)


def _simulated(root, name, flags):
    """The bytes of the tx and rx files that simulate writes with flags."""
    out = root / name
    assert _run(["simulate", *flags, "--out", out])[0] == 0
    return [(out / f"{side}.trace").read_bytes() for side in ("tx", "rx")]


def _edit_rx(data, edit):
    """data, an rx file, with edit(index, fields) applied to the fields of
    each record line; index counts the record lines."""
    lines = data.split(b"\n")
    for i, line in enumerate(lines[1:-1]):
        lines[1 + i] = b" ".join(edit(i, line.split(b" ")))
    return b"\n".join(lines)


def _with_rssi_and_unknown_seqs(i, fields):
    if fields[3] != b"phy" and i % 3 == 0:
        fields[4] = b"-%d" % (60 + i % 20)
    if fields[3] == b"crc" and i % 4 == 1:
        fields[1] = b"?"
    return fields


def _one_anchor(tx, rx):
    """rx with its first corrupted record received clean instead."""
    lines = rx.split(b"\n")
    first = next(i for i, line in enumerate(lines) if b" crc " in line)
    seq = int(lines[first].split(b" ")[1])
    lines[first] = b"rx" + tx.split(b"\n")[1 + seq][2:]
    return b"\n".join(lines)


# The item-5 reproductions: each frame keeps its best candidate, and two
# frames that choose one seq make a trace that recover refuses to write.
_COLLIDING = {
    "collide-2": (["--frames", 200, "--frame-len", 2, "--r", 0.1, "--s", 0.2,
                   "--p", 0.5, "--seed", 5], "(saw 2 after 3)"),
    "collide-16": (["--frames", 200, "--frame-len", 16, "--r", 0, "--s", 0.2,
                    "--p", 0.3, "--seed", 4], "(saw 1 after 2)"),
}


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(tx file, rx file) bytes of pairs that recover reads."""
    root = tmp_path_factory.mktemp("bases")
    hybrid = ["--frames", 80, "--frame-len", 72, "--r", 0.1, "--s", 0.5, "--p", 0.03,
              "--skew-ppm", 50, "--offset-us", 10000, "--jitter-us", 50, "--seed", 41]
    tx, rx = _simulated(root, "hybrid", hybrid)
    rx = _edit_rx(rx, _with_rssi_and_unknown_seqs)
    # the rx file holds the tx records too, with CRLF line ends and blank lines
    both = rx + b"\n" + b"\n".join(tx.split(b"\n")[1:])
    both = both.replace(b"\n", b"\r\n").replace(b"\r\nrx 2", b"\r\n \r\n\r\nrx 2")
    tx0, rx0 = _simulated(root, "anchorless", ["--frames", 40, "--frame-len", 40,
                                               "--r", 0.1, "--s", 0, "--p", 0.05,
                                               "--seed", 3])
    pairs = {"hybrid": (tx, rx), "both-crlf": (tx, both), "no-anchor": (tx0, rx0),
             "one-anchor": (tx0, _one_anchor(tx0, rx0))}
    for name, (flags, _) in _COLLIDING.items():
        pairs[name] = tuple(_simulated(root, name, flags))
    return pairs


_BASE_NAMES = ["hybrid", "both-crlf", "no-anchor", "one-anchor", *_COLLIDING]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_BASE_NAMES), st.booleans(), st.lists(_mutations, max_size=1),
       st.lists(_mutations, max_size=2), st.none() | st.integers(1, 16))
def test_streamed_recover_matches_full_load(tmp_path_factory, bases, base, scrub,
                                            tx_mutations, rx_mutations, budget):
    tmp = tmp_path_factory.mktemp("stream")
    pair = tmp / "tx.trace", tmp / "rx.trace"
    for path, data, mutations in zip(pair, bases[base], (tx_mutations, rx_mutations)):
        for mutation in mutations:
            data = _mutate(data, mutation)
        path.write_bytes(data)
    with _budget_of(budget) if budget else contextlib.nullcontext():
        want = _outcome(pair, scrub, tmp / "out", reference=True)
        got = _outcome(pair, scrub, tmp / "out")
    assert got == want


@pytest.mark.parametrize("budget", [None, 64])
def test_every_base_recovers_as_the_full_load(tmp_path, bases, budget):
    """Each base unmutated: blocks of 64 bytes of hex cut the candidates of
    a frame across tx blocks."""
    codes = {}
    for name in _BASE_NAMES:
        pair = tmp_path / f"{name}-tx.trace", tmp_path / f"{name}-rx.trace"
        for path, data in zip(pair, bases[name]):
            path.write_bytes(data)
        for scrub in (False, True):
            with _budget_of(budget) if budget else contextlib.nullcontext():
                want = _outcome(pair, scrub, tmp_path / "out", reference=True)
                got = _outcome(pair, scrub, tmp_path / "out")
            assert got == want, (name, scrub)
            codes[name, scrub] = got[0]
    assert codes == {(name, scrub): 3 if name in _COLLIDING and scrub else 0
                     for name in _BASE_NAMES for scrub in (False, True)}


@pytest.mark.parametrize("name", list(_COLLIDING))
def test_colliding_choices_still_exit_3(tmp_path, bases, name):
    pair = tmp_path / "tx.trace", tmp_path / "rx.trace"
    for path, data in zip(pair, bases[name]):
        path.write_bytes(data)
    code, stdout, stderr, written = _outcome(pair, True, tmp_path / "out")
    assert (code, stdout, written) == (3, "", None)
    assert stderr == ("hybridchan: invariant violation: known rx seqs must increase "
                      f"in trace order {_COLLIDING[name][1]}\n")
    assert not (tmp_path / "out").exists()


def _rewrite(path, edit):
    """Change the file path as edit names, keeping every line well formed
    where it can."""
    if edit == "delete":
        path.unlink()
        return
    lines = path.read_bytes().split(b"\n")
    if edit == "timestamp":
        fields = lines[-2].split(b" ")
        fields[2] = b"%d" % (int(fields[2]) + 1)
        lines[-2] = b" ".join(fields)
    elif edit == "drop-last":
        del lines[-2]
    elif edit == "frame-len":
        lines[0] = lines[0].replace(b"frame_len=", b"frame_len=1")
    elif edit == "malformed":
        lines.insert(-1, b"rx ? 0 ok - not-hex")
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("edit", ["timestamp", "drop-last", "frame-len", "malformed",
                                  "delete"])
@pytest.mark.parametrize("name", ["tx", "rx"])
def test_file_rewritten_between_passes_exits_2(tmp_path, monkeypatch, bases, name, edit):
    pair = tmp_path / "tx.trace", tmp_path / "rx.trace"
    for path, data in zip(pair, bases["hybrid"]):
        path.write_bytes(data)
    reread = traceio._reread
    passes = []

    def rewritten(path, side, *args):
        passes.append(side)
        if side == name:
            _rewrite(path, edit)
        return reread(path, side, *args)

    monkeypatch.setattr(traceio, "_reread", rewritten)
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept").write_text("as it was")
    code, stdout, stderr = _run(["recover", *pair, "--scrub", "--out", out])
    path = pair[name == "rx"]
    assert code == 2 and stdout == ""
    if edit == "delete":
        assert stderr == f"hybridchan: {path}: No such file or directory\n"
    elif edit == "malformed":  # the appended line is named
        line = path.read_bytes().count(b"\n")
        assert stderr.startswith(f"hybridchan: parse error: {path}:{line}: payload hex ")
    else:
        assert stderr == f"hybridchan: parse error: {path}: file changed while it was read\n"
    assert passes == (["tx"] if name == "tx" else ["tx", "rx"])
    assert os.listdir(out) == ["kept"]


@pytest.mark.parametrize("rx_fault", [None, "meta", "pairing"])
@pytest.mark.parametrize("base", ["hybrid", "no-anchor"])
@pytest.mark.parametrize("scrub", [False, True])
def test_bad_tx_hex_is_named_before_any_other_fault(tmp_path, bases, base, scrub,
                                                     rx_fault):
    """recover reads the tx file as columns first and decodes its hex on the
    second read; the tx fault is still the one named, candidates or not."""
    tx, rx = bases[base]
    lines = tx.split(b"\n")
    lines[5] = lines[5][:-1] + b"z"
    if rx_fault == "meta":
        rx = rx.replace(b"interval_us=", b"interval_us=1", 1)
    elif rx_fault == "pairing":
        rx = rx + b"rx 999999 99999999 ok - " + lines[4].split(b" ")[-1] + b"\n"
    pair = tmp_path / "tx.trace", tmp_path / "rx.trace"
    pair[0].write_bytes(b"\n".join(lines))
    pair[1].write_bytes(rx)
    want = _outcome(pair, scrub, tmp_path / "out", reference=True)
    assert _outcome(pair, scrub, tmp_path / "out") == want
    assert want[:3] == (2, "", f"hybridchan: parse error: {pair[0]}:6: payload must be "
                               f"lowercase hex digits\n")


def _interleaved_pair(n_corrupted, n_clean):
    """The tx and rx files of n_corrupted + n_clean frames of 2000 bits,
    received on the tx clock, corrupted at evenly spaced frames and clean
    at the others; each corrupted payload has one bit flipped."""
    n = n_corrupted + n_clean
    tx = _rx_text(n).replace("\nrx ", "\ntx ").replace(" crc ", " ok ")
    lines = tx.splitlines(keepends=True)
    corrupted = set(np.linspace(0, n - 1, n_corrupted).round().astype(int).tolist())
    rx = [lines[0]]
    for i, line in enumerate(lines[1:]):
        if i in corrupted:
            head, payload = line.rsplit(" ", 1)
            flipped = "%x" % (int(payload[0], 16) ^ 8)
            line = head.replace(" ok ", " crc ") + " " + flipped + payload[1:]
        rx.append("rx" + line[2:])
    return tx, "".join(rx)


def test_recover_holds_only_the_attempted_rows(tmp_path, monkeypatch):
    """Clean frames add their columns to recover's peak, and no payload rows;
    it holds the attempted frames' rx rows and no tx payload matrix."""
    loads, peaks = [], []
    monkeypatch.setattr(cli, "load_pair", lambda *args, **kwargs: loads.append(
        load_pair(*args, **kwargs)) or loads[-1])
    for n_clean in (2000, 6000):
        pair = tmp_path / f"tx-{n_clean}.trace", tmp_path / f"rx-{n_clean}.trace"
        for path, text in zip(pair, _interleaved_pair(1000, n_clean)):
            path.write_text(text)
        tracemalloc.start()
        try:
            code, stdout, _ = _run(["recover", *pair, "--scrub",
                                    "--out", tmp_path / f"out-{n_clean}"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "attempted: 1000, recovered: 1000," in stdout
        assert "accuracy vs ground truth: 1.0000" in stdout
        trace = loads[-1]
        attempted = np.flatnonzero(trace.rx.status == CRC)
        assert trace.rx.packed.shape == (attempted.size, 250) == (1000, 250)
        assert np.array_equal(np.flatnonzero(trace.rx.row >= 0), attempted)
        assert trace.tx.packed.size == 0 and (trace.tx.row < 0).all()
        assert (tmp_path / f"out-{n_clean}" / "recovered.trace").read_bytes() == (
            pair[1].read_bytes())
    # 8000 more records, 4000 a file: their columns and recovery's arrays
    # over the tx records and anchors take about 115 bytes a record, where
    # payload rows would add 250 more
    assert peaks[1] - peaks[0] < 8000 * 150
