"""Reading and writing the newline-delimited trace file format.

Layout: a single ``#meta`` header line followed by one frame record per
line.  Text was chosen over a binary container so traces diff cleanly and
other tools can parse them with a one-line split.

    #meta R=<bits/s> frame_len=<bits> interval_us=<int> desc=<quoted string>
    <side:tx|rx> <seq:int|?> <timestamp_us:int> <status:ok|crc|phy> <rssi:int|-> <payload:hex|->

Payloads are lowercase hex with bit 0 in the MSB of the first digit; the
bit count comes from frame_len, so payloads need not be whole bytes.
PHY-error records carry ``-`` in the payload column, unknown sequence
numbers the literal ``?``, missing RSSI ``-``.  Integers are spelled
``0`` or ``-?[1-9][0-9]*``, the only form read back, with at most 18
digits; sequence numbers are not negative.  The description holds no
line break.

Both directions go a block of whole lines at a time, with no Python
code per record, so neither holds the file's text, only a block of it:
4 * trace.BLOCK_BYTES read, and lines whose hex and text take about
trace.BLOCK_BYTES written (trace.row_blocks).  write_trace lays out the
heads of _HEAD_RECORDS records (everything before the payload) as rows of
bytes with NUL in the unused places and deletes the NULs; then for each
block of lines it moves each payload's hex, from one hex encode, in after
its head (_lines).  write_run writes a simulated run's tx and rx files on
the same meta-line and record-line code, a block of frames at a time as
the simulator gives them, so that it never holds the run's payloads; it
validates the run's gathered columns and only then gives both files
their names.  read_trace checks
the heads of a block with an anchored regex, converts them with numpy and
decodes the block's payloads, a hex decode per budget of hex, into the
file's packed matrix, allocated once for every payload the file can
hold.  A read may hold only some payloads (load_pair's hold): every
payload is still decoded, only the rows it holds are copied, and its
matrix grows as they come.  That path only accepts
and keeps no line numbers.  When it meets any malformed record line it reads the
file again, line by line, and the first line that fails the per-line
checks (_line_fault) names the fault.  So faults are reported in file
order, and within a line the payload's hex is checked last.  A broken
invariant of the columns is named at its record's line, found by reading
the file again too.

A file that load_pair has read can be read again a block at a time
(_reread), on the same block reader, so that no pass holds more than a
block of payload rows: payload_blocks gives a tx file's payloads a block
at a time, and rewrite_rx writes an rx file's records with new seqs, each
line's head formatted anew and its payload's hex copied from the file,
on write_trace's line builder (_record_blocks).  Recovery's load reads the tx file as columns alone, so
payload_blocks' read is the one that decodes and checks its hex; the
rewrite decodes none, since the first read of the rx file checked it.
Each block's columns must equal those of the first read; where they do
not, the file changed while it was read, and that is the fault named
(TraceFormatError, exit 2), as is a malformed line, at its line.
"""

from __future__ import annotations

import binascii
import contextlib
import itertools
import math
import os
import re
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import trace as _trace
from .trace import (
    CRC,
    MAX_DIGITS,
    NOT_LOADED,
    OK,
    PHY,
    STATUSES,
    UNKNOWN_SEQ,
    ReceiveStatus,
    Side,
    Trace,
    TraceError,
    TraceFormatError,
    TraceMeta,
    is_corrupted,
    row_blocks,
)

# The writer formats the heads of at least _HEAD_RECORDS records at a time.
_HEAD_RECORDS = 1024

# A Side's columns, one entry per record.
_SIDE_COLUMNS = ("seq", "timestamp_us", "status", "rssi", "has_rssi", "row")

_META_RE = re.compile(
    r'^#meta R=(?P<rate>[0-9.eE+-]+) frame_len=(?P<flen>0|[1-9][0-9]*) '
    r'interval_us=(?P<iv>0|[1-9][0-9]*) desc="(?P<desc>(?:[^"\\]|\\.)*)"$'
)

# Canonical record integers of at most MAX_DIGITS digits.
_NATURAL = rb"0|[1-9][0-9]{0,%d}" % (MAX_DIGITS - 1)
_INT = rb"0|-?[1-9][0-9]{0,%d}" % (MAX_DIGITS - 1)
# The heads of record lines, each padded with LFs: side, seq, timestamp,
# status, rssi.
_HEADS_RE = re.compile(
    rb"(?:(?:tx|rx) (?:\?|" + _NATURAL + rb") (?:" + _INT + rb") (?:ok|crc|phy) "
    rb"(?:-|" + _INT + rb")\n+)*"
)
# The longest head: side, seq, signed timestamp, status, signed rssi and
# the four spaces between them.
_MAX_HEAD = 2 + MAX_DIGITS + 2 * (MAX_DIGITS + 1) + 3 + 4
# The shortest record line with a payload, less its payload's digits.
_MIN_FRAME = len(b"tx 0 0 ok - \n")

_STATUS_FROM_TOKEN = {s.value: s for s in ReceiveStatus}
# Each status code's token, NUL-padded to three bytes.
_TOKENS = np.frombuffer(b"".join(s.value.encode().ljust(3, b"\0") for s in STATUSES),
                        dtype=np.uint8).reshape(len(STATUSES), 3)


def hex_to_packed(payload_hex, n_bits: int) -> np.ndarray:
    """Decode back-to-back hex payloads of n_bits each into a packed matrix.

    payload_hex is ASCII bytes.  Returns a read-only uint8 matrix with one
    row of ceil(n_bits/8) bytes per payload, from one binascii.a2b_hex
    call over all of it.  Digits must be lowercase hex and pad bits past
    n_bits zero; otherwise raises ValueError.
    """
    width = 2 * ((n_bits + 7) // 8)
    if len(payload_hex) % width:
        raise ValueError(f"payload hex has {len(payload_hex)} digits, expected "
                         f"a multiple of {width} for {n_bits} bits")
    # a2b_hex also takes uppercase digits; the format allows only lowercase.
    # A memchr scan per digit is the fast test for them.
    if any(payload_hex.find(c) >= 0 for c in b"ABCDEF"):
        raise ValueError("payload must be lowercase hex digits")
    return _unhex(payload_hex, n_bits)


def _unhex(payload_hex, n_bits: int) -> np.ndarray:
    """hex_to_packed without its checks of the length and of uppercase digits.

    payload_hex is any buffer of whole payloads' digits.
    """
    try:
        packed = binascii.a2b_hex(payload_hex)
    except binascii.Error:
        raise ValueError("payload must be lowercase hex digits") from None
    matrix = np.frombuffer(packed, dtype=np.uint8)
    if not matrix.size:  # frame_len may exceed any array dimension then
        return matrix.reshape(0, 0)
    matrix = matrix.reshape(-1, (n_bits + 7) // 8)
    pad_bits = -n_bits % 8
    if pad_bits and (matrix[:, -1] & ((1 << pad_bits) - 1)).any():
        raise ValueError("nonzero padding bits past the declared bit length")
    return matrix


def _quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unquote(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _format_rate(rate: float) -> str:
    return str(int(rate)) if float(rate).is_integer() else repr(float(rate))


def _decimal(values: np.ndarray) -> np.ndarray:
    """The text of each value: a minus sign or NUL, then its digits,
    NUL-padded in front, along a new last axis."""
    mag = np.abs(values)
    n_digits = len(str(int(mag.max()))) if mag.size else 1
    text = np.zeros(values.shape + (n_digits + 1,), dtype=np.uint8)
    text[..., 0] = np.where(values < 0, ord("-"), 0)
    for col in range(n_digits, 0, -1):  # least significant first
        text[..., col] = np.where((mag > 0) | (col == n_digits), mag % 10 + ord("0"), 0)
        mag //= 10
    return text


def _heads(name: str, side: Side, records: slice) -> tuple[np.ndarray, np.ndarray]:
    """The heads of the records of side in the slice, or a PHY error's whole
    line, joined, and the length of each."""
    ints = _decimal(np.stack([side.seq[records], side.timestamp_us[records],
                              side.rssi[records]], axis=1))
    for field, absent, token in ((0, side.seq[records] == UNKNOWN_SEQ, "?"),
                                 (2, ~side.has_rssi[records], "-")):
        ints[absent, field] = 0
        ints[absent, field, -1] = ord(token)
    # A row per record with NULs in the unused places; NUL is in no line,
    # so deleting it joins the rows.
    n, d = ints.shape[::2]
    heads = np.zeros((n, 3 * d + 12), dtype=np.uint8)
    heads[:, :2] = np.frombuffer(name.encode(), dtype=np.uint8)
    heads[:, [2, 3 + d, 4 + 2 * d, 8 + 2 * d, 9 + 3 * d]] = ord(" ")
    heads[:, 3:3 + d] = ints[:, 0]
    heads[:, 4 + d:4 + 2 * d] = ints[:, 1]
    heads[:, 5 + 2 * d:8 + 2 * d] = _TOKENS[side.status[records]]
    heads[:, 9 + 2 * d:9 + 3 * d] = ints[:, 2]
    heads[side.status[records] == PHY, 10 + 3 * d:] = np.frombuffer(b"-\n",
                                                                   dtype=np.uint8)
    text = np.frombuffer(heads.tobytes().translate(None, b"\0"), dtype=np.uint8)
    return text, np.count_nonzero(heads, axis=1)


def _lines(text: np.ndarray, length: np.ndarray, held: np.ndarray, width: int,
           hexes) -> np.ndarray:
    """Text lines from heads joined in text and the length of each
    (_heads): after the head of each record that held picks, a row of
    width payload hex digits, and an LF.  hexes() gives those rows as a
    matrix; it is called once the heads are placed, so that the digits
    and the placing's temporaries are not held at once."""
    if not held.any():
        return text
    # Move the heads apart to make room for each payload and its LF.
    before = (np.cumsum(held) - held) * (width + 1)
    lines = np.empty(text.size + held.sum() * (width + 1), dtype=np.uint8)
    lines[np.arange(text.size) + np.repeat(before, length)] = text
    at = (np.cumsum(length) + before)[held]
    sliding_window_view(lines, width, writeable=True)[at] = hexes()
    lines[at + width] = ord("\n")
    return lines


def _record_blocks(name: str, side: Side, records: slice, hexes):
    """The text lines of side's records in the slice records, a block at a
    time: a block's payload hex and lines take about trace.BLOCK_BYTES.
    hexes(rows) gives the hex digits of the payloads of side's records in
    the slice rows, a row each.

    The heads are formatted for at least _HEAD_RECORDS records at a time,
    whole blocks of lines: a head is short, and its numpy calls cost as
    much for one record as for hundreds.
    """
    width = 2 * ((side.n_bits + 7) // 8)
    line = width + _MAX_HEAD + 2  # at most, with its LF
    end = records.start
    # a record's hex and its line
    for rows in row_blocks(records.stop - records.start, 2 * line):
        rows = slice(records.start + rows.start, records.start + rows.stop)
        if rows.stop > end:
            lo, step = rows.start, rows.stop - rows.start
            end = min(lo + step * -(-_HEAD_RECORDS // step), records.stop)
            text, length = _heads(name, side, slice(lo, end))
            start = np.concatenate(([0], np.cumsum(length)))
        a, b = rows.start - lo, rows.stop - lo
        yield _lines(text[start[a]:start[b]], length[a:b], side.status[rows] != PHY,
                     width, lambda: hexes(rows))


def _packed_hex(side: Side):
    """A hexes for _record_blocks that encodes the payloads side holds."""
    def hexes(rows: slice) -> np.ndarray:
        row = side.row[rows]
        return np.frombuffer(binascii.b2a_hex(side.packed[row[row >= 0]]),
                             dtype=np.uint8).reshape(-1, 2 * side.packed.shape[1])
    return hexes


def _meta_line(meta: TraceMeta) -> bytes:
    """The #meta line of meta, with its LF; refuses what read_trace would."""
    desc = meta.description
    if "\n" in desc or "\r" in desc:
        raise TraceError(f"description {desc!r} must not contain a line break")
    if not 0 < meta.rate_bps < math.inf:
        raise TraceError(f"R={meta.rate_bps} must be positive and finite")
    return (f'#meta R={_format_rate(meta.rate_bps)} frame_len={meta.frame_len} '
            f'interval_us={meta.interval_us} desc="{_quote(desc)}"\n').encode()


def _check_loaded(name: str, side: Side) -> None:
    """Refuse a side that does not hold every payload: its file would have
    no line for those."""
    unloaded = side.row == NOT_LOADED
    if unloaded.any():
        i = int(unloaded.argmax())
        raise TraceError(f"{name} record {i}: payload not loaded, so it cannot "
                         f"be written", (name, i))


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace; the on-disk form round-trips bit-exactly.  Every
    payload must be loaded."""
    meta_line = _meta_line(trace.meta)
    trace.validate()
    for name in ("tx", "rx"):
        _check_loaded(name, getattr(trace, name))
    with Path(path).open("wb") as fh:
        fh.write(meta_line)
        for name, side in (("tx", trace.tx), ("rx", trace.rx)):
            fh.writelines(_record_blocks(name, side, slice(0, len(side)),
                                         _packed_hex(side)))


class _SideWriter:
    """One side of a run, written to fh a block of records at a time.

    The first block writes the #meta line.  Each block's columns are kept,
    so that trace() gives the run's columns without its payload rows.
    """

    def __init__(self, name: str, fh) -> None:
        self.name, self.fh = name, fh
        self.meta: TraceMeta | None = None
        self.n_bits: int | None = None  # that of the blocks with payload rows
        self.columns: dict[str, list[np.ndarray]] = {
            key: [] for key in _SIDE_COLUMNS if key != "row"}

    def write(self, trace: Trace) -> None:
        side, other = (trace.tx, trace.rx) if self.name == "tx" else (trace.rx, trace.tx)
        if self.meta is None:
            self.fh.write(_meta_line(trace.meta))
            self.meta = trace.meta
        if len(side.packed) and self.n_bits is None:
            self.n_bits = side.n_bits
        if (trace.meta != self.meta or len(other)
                or len(side.packed) and side.n_bits != self.n_bits):
            raise ValueError(f"a block of a run's {self.name} trace must hold only "
                             f"{self.name} records, with the first block's metadata "
                             f"and payload length")
        _check_loaded(self.name, side)
        self.fh.writelines(_record_blocks(self.name, side, slice(0, len(side)),
                                          _packed_hex(side)))
        for key, column in self.columns.items():
            column.append(getattr(side, key))

    def trace(self) -> Trace:
        """The trace of the run's records, holding none of their payloads."""
        # popped, so that each block's parts go once their column is whole
        columns = {key: np.concatenate(self.columns.pop(key))
                   for key in list(self.columns)}
        side = Side(**columns, row=np.where(columns["status"] == PHY, -1, NOT_LOADED),
                    packed=np.zeros((0, 0), dtype=np.uint8), n_bits=self.n_bits or 0)
        return Trace(self.meta, **{self.name: side})


def write_run(blocks, tx_path: str | Path, rx_path: str | Path) -> None:
    """Write a simulated run a block of frames at a time: its tx trace to
    tx_path and its rx trace to rx_path.

    blocks yields a (tx, rx) pair of traces per block of consecutive
    frames, as sim.generate_tx and a channel give them: tx holds only tx
    records and rx only rx records, and every block has the metadata of the
    first.  The files get the bytes write_trace gives the whole run's tx
    and rx traces, and the same checks: each block's Side has checked its
    columns and payload rows, and Trace.validate runs over the whole run's
    columns once every block is written.  No payload row outlives its block.

    Both files are written under temporary names next to their paths and
    take those names only once both traces are valid.  On any exception
    both temporaries are removed, so each path keeps what it held.
    """
    with _replacing(Path(tx_path), Path(rx_path)) as temps:
        with temps[0].open("wb") as tx_fh, temps[1].open("wb") as rx_fh:
            writers = [_SideWriter("tx", tx_fh), _SideWriter("rx", rx_fh)]
            for tx, rx in blocks:
                writers[0].write(tx)
                writers[1].write(rx)
                del tx, rx  # the caller drops them too: one block is held at a time
        if writers[0].meta is None:
            raise ValueError("a run must have at least one block")
        for writer in writers:
            writer.trace().validate()


@contextlib.contextmanager
def _replacing(*paths: Path):
    """Temporary names next to paths, one each, for the body to write; each
    takes its path's name once the body has returned.  On any exception
    every temporary is removed, so each path keeps what it held."""
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def rewrite_rx(trace: Trace, path: str | Path, rx_path: str | Path, rx: Side) -> None:
    """Write trace, an rx trace whose records are those of rx but for their
    seqs, to path; rx is the rx side of the file rx_path as load_pair read
    it, and trace need hold none of its payloads.

    Each line's head is formatted anew from trace and its payload's hex is
    copied from rx_path, which is read again a block at a time with every
    check (_reread).  The trace is validated first, as write_trace does,
    and the file takes its name only once it is whole (_replacing).
    """
    meta_line = _meta_line(trace.meta)
    trace.validate()
    width = 2 * ((trace.meta.frame_len + 7) // 8)
    with _replacing(Path(path)) as (temp,), temp.open("wb") as fh:
        fh.write(meta_line)
        for records, columns, mine, _, block in _reread(Path(rx_path), "rx", rx,
                                                        trace.meta, False):
            hex_at = columns["hex_at"][mine]

            def hexes(rows: slice) -> np.ndarray:
                at = hex_at[rows.start - records.start:rows.stop - records.start]
                return sliding_window_view(np.frombuffer(block, dtype=np.uint8),
                                           width)[at[at >= 0]]

            fh.writelines(_record_blocks("rx", trace.rx, records, hexes))


def _check_utf8(data: bytearray, path: Path) -> None:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(
            f"not UTF-8 text (byte 0x{data[exc.start]:02x})", str(path), line
        ) from exc


def _int(token: str, name: str) -> int:
    """token as an int, if spelled as write_trace writes it: 0 or -?[1-9][0-9]*.

    int() also takes +0, 1_000, 007, padding and non-ASCII digits; those
    are exactly the spellings that do not survive a round trip.
    """
    value = int(token)
    if str(value) != token:
        raise ValueError(f"{name} {token!r} is not a canonical integer")
    if len(token.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"{name} {token!r} is out of range")
    return value


def _line_fault(line: bytes, n_bits: int) -> str | None:
    """Why a record line (without its LF) is malformed, or None if it is not.

    The checks of the line's fields, taken in turn and the payload's hex
    last: this names the fault of a line the column reader has refused.
    """
    width = 2 * ((n_bits + 7) // 8)
    cut = line.rfind(b" ")
    fields = line[:cut].decode().split(" ") if cut >= 0 else []
    if len(fields) != 5:
        return f"expected 6 fields, got {len(fields) + 1}"
    side, seq_tok, ts_tok, status_tok, rssi_tok = fields
    if side not in ("tx", "rx"):
        return f"unknown side {side!r}"
    status = _STATUS_FROM_TOKEN.get(status_tok)
    if status is None:
        return f"unknown status {status_tok!r}"
    try:
        if seq_tok != "?" and _int(seq_tok, "seq") < 0:
            return f"seq {seq_tok!r} is negative"
        _int(ts_tok, "timestamp")
        if rssi_tok != "-":
            _int(rssi_tok, "rssi")
    except ValueError as exc:
        return str(exc)
    payload = line[cut + 1:]
    has_payload = payload != b"-"
    if has_payload and len(payload) != width:
        return (f"payload hex has {len(payload.decode())} digits, "
                f"expected {width} for {n_bits} bits")
    if has_payload == (status is ReceiveStatus.PHY_ERROR):
        return ("PHY-error frame must not carry a payload" if has_payload
                else f"{status.value} frame must carry a payload")
    if has_payload:
        try:
            hex_to_packed(payload, n_bits)
        except ValueError as exc:
            return str(exc)
    return None


def _int_column(heads: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The integers spelled in heads[start:stop] per row, already checked canonical."""
    values = np.zeros(start.size, dtype=np.int64)
    # digit by digit, most significant first, as many as the widest has
    for back in range(int((stop - start).max(initial=0)), 0, -1):
        at = stop - back
        digit = heads[np.maximum(at, 0)].astype(np.int64) - ord("0")
        values = values * 10 + np.where((at >= start) & (digit >= 0), digit, 0)
    return np.where(heads[start] == ord("-"), -values, values)


def _parse_heads(heads: np.ndarray, length: np.ndarray) -> dict[str, np.ndarray]:
    """Columns of the record heads, one per row of heads, which _HEADS_RE has
    matched; length is each head's length before its padding."""
    hb = heads.reshape(-1)
    spaces = np.flatnonzero(hb == ord(" ")).reshape(-1, 4)
    ends = np.empty((len(heads), 5), dtype=np.int64)
    ends[:, :4] = spaces
    ends[:, 4] = np.arange(len(heads)) * heads.shape[1] + length
    starts = np.empty_like(ends)
    starts[:, 0] = ends[:, 4] - length
    starts[:, 1:] = spaces + 1
    seq_known = hb[starts[:, 1]] != ord("?")
    has_rssi = hb[ends[:, 4] - 1] != ord("-")
    first = hb[starts[:, 3]]
    status = np.where(first == ord("p"), PHY, np.where(first == ord("c"), CRC, OK))
    return {
        "is_rx": hb[starts[:, 0]] == ord("r"),
        "seq": np.where(seq_known, _int_column(hb, starts[:, 1], ends[:, 1]),
                        UNKNOWN_SEQ),
        "timestamp_us": _int_column(hb, starts[:, 2], ends[:, 2]),
        "status": status.astype(np.int8),
        "rssi": np.where(has_rssi, _int_column(hb, starts[:, 4], ends[:, 4]), 0),
        "has_rssi": has_rssi,
    }


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file; raises TraceFormatError with file/line context.

    Lines end in LF or CRLF.  A broken invariant of the parsed trace is
    reported at the line of the record at fault, where there is one.
    """
    return _read(Path(path))


def _read_text(path: Path) -> bytearray:
    """The file's bytes, checked to be UTF-8 and with CRLF line ends made LF."""
    # Read as bytes and split by hand: text mode would also take a lone CR
    # as a line break, and its decode errors carry no position in the file.
    with path.open("rb") as fh:
        data = bytearray(path.stat().st_size)
        del data[fh.readinto(data):]
    if not data:
        raise TraceFormatError("empty file, missing #meta line", str(path), 1)
    if not data.isascii():
        _check_utf8(data, path)
    if b"\r" in data:  # the guard is a fast scan; replace is not, even with no match
        data = data.replace(b"\r\n", b"\n")
    return data


def _read_meta(line: bytes, path: Path) -> TraceMeta:
    """The metadata of the #meta line, given without its line end."""
    m = _META_RE.match(line.decode())
    if m is None:
        raise TraceFormatError("malformed #meta line", str(path), 1)
    try:
        meta = TraceMeta(
            rate_bps=float(m.group("rate")),
            frame_len=int(m.group("flen")),
            interval_us=int(m.group("iv")),
            description=_unquote(m.group("desc")),
        )
    except ValueError as exc:
        raise TraceFormatError(str(exc), str(path), 1) from exc
    if "\r" in meta.description:  # a lone CR; write_trace would refuse it
        raise TraceFormatError("description must not contain a line break",
                               str(path), 1)
    if meta.frame_len == 0:
        raise TraceFormatError("frame_len must be positive", str(path), 1)
    if not 0 < meta.rate_bps < math.inf:
        raise TraceFormatError("R must be positive and finite", str(path), 1)
    return meta


def _meta_of(first: bytes, path: Path) -> TraceMeta | None:
    """The metadata of a file's first line, given with its line end; None
    if the line is not a well-formed #meta line."""
    line = first[:-2] if first.endswith(b"\r\n") else first.rstrip(b"\n")
    try:
        return _read_meta(line, path)
    except (TraceFormatError, UnicodeDecodeError):
        return None


def _line_spans(data, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) of each line of data[:size] that is not blank; data
    holds whole lines, the last perhaps without its LF."""
    byte = np.frombuffer(data, dtype=np.uint8)
    ends = np.concatenate([  # a bool per byte
        rows.start + np.flatnonzero(byte[rows] == ord("\n"))
        for rows in row_blocks(size, 1)])
    if (ends[-1] + 1 if ends.size else 0) < size:
        ends = np.append(ends, size)  # a last line without LF
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    # A record line starts with a letter; anything else may be blank.
    first = byte[starts]
    odd = np.flatnonzero((first <= 32) | (first >= 127))
    blank = [i for i in odd.tolist() if not data[starts[i]:ends[i]].decode().strip()]
    if blank:
        keep = np.ones(ends.size, dtype=bool)
        keep[blank] = False
        return starts[keep], ends[keep]
    return starts, ends


def _read(path: Path, keep=None, rows: int | None = None, *, decode: bool = True) -> Trace:
    """The trace in path, holding the payloads of the records keep picks.

    keep maps a block's columns (_read_block) to a mask of the records
    whose payloads to hold; None holds every payload.  rows is the number
    of payload rows to make room for at the start (more are made as they
    come); None makes room for every payload the file can hold.  With
    decode False no payload is decoded or held, so their hex digits go
    unchecked.  _read_columns reads the file; when it refuses the file,
    _first_fault reads it again and names the fault.
    """
    read = _read_columns(path, keep, rows, decode)
    if read is None:
        raise _first_fault(path)
    meta, columns, packed = read
    n_bits = meta.frame_len if (columns["status"] != PHY).any() else 0
    sides = {}
    for name, pick in (("tx", ~columns["is_rx"]), ("rx", columns["is_rx"])):
        # a side written as one run of lines is a slice of the columns
        count = int(pick.sum())
        first = int(pick.argmax()) if count else 0
        index = (slice(first, first + count) if pick[first:first + count].all()
                 else np.flatnonzero(pick))
        sides[name] = Side(
            **{key: columns[key][index] for key in _SIDE_COLUMNS},
            packed=packed, n_bits=n_bits,
        )
    trace = Trace(meta=meta, tx=sides["tx"], rx=sides["rx"])
    try:
        trace.validate()
    except TraceError as exc:
        raise _record_fault(exc, path) from exc
    return trace


def _blocks(fh):
    """The rest of fh as (block, size): block[:size] is whole lines, the
    last perhaps without its LF, with CRLF line ends made LF, and past them
    block holds at least _MAX_HEAD + 1 NUL bytes.  A block holds about
    4 * trace.BLOCK_BYTES of text, or one line if that is longer.  The
    blocks share one buffer, so each is good until the next is asked for.
    """
    carry = b""
    capacity = 4 * _trace.BLOCK_BYTES
    block = bytearray()
    while True:
        if len(block) != capacity + _MAX_HEAD + 1:
            block = bytearray(capacity + _MAX_HEAD + 1)
        block[:len(carry)] = carry
        with memoryview(block) as view:
            size = len(carry) + fh.readinto(view[len(carry):capacity])
        np.frombuffer(block, dtype=np.uint8)[size:capacity] = 0  # what a longer read left
        if size == len(carry):  # end of file
            if carry:
                yield block, size
            return
        cut = block.rfind(b"\n", 0, size) + 1
        if cut:
            carry = block[cut:size]
            # the guard is a fast scan; replace is not, even with no match
            if block.find(b"\r", 0, cut) >= 0:
                lines = block[:cut].replace(b"\r\n", b"\n")
                yield lines + bytes(_MAX_HEAD + 1), len(lines)
            else:
                block[cut:size] = bytes(size - cut)
                yield block, cut
        else:  # no whole line yet
            carry, capacity = block[:size], 2 * capacity


def _read_block(block: bytearray, size: int, n_bits: int, packed: np.ndarray | None,
                row: int, keep=None) -> dict[str, np.ndarray] | None:
    """The columns of the record lines in block[:size] (see _blocks), a
    Side's and "is_rx"; None at the first sign of a malformed record line.

    Every payload is decoded, and those of the records keep picks (see
    _read; all if keep is None) go to packed from row on, in order.
    packed grows in place when they do not fit.  If packed is None, no
    payload is decoded, so their hex digits go unchecked, and the columns
    also hold "hex_at", where each line's payload hex starts in block, or
    -1 if it has none.
    """
    if not block.isascii():  # NUL padding is ASCII
        try:
            block.decode()
        except UnicodeDecodeError:
            return None
    # A valid record line holds no uppercase letter.
    if any(block.find(c, 0, size) >= 0 for c in b"ABCDEF"):
        return None
    starts, ends = _line_spans(block, size)
    byte = np.frombuffer(block, dtype=np.uint8)
    width = 2 * ((n_bits + 7) // 8)

    # Where each line's payload starts if the line is well formed: after
    # the space before a lone "-", or width digits before the line end.
    # A payload wider than the block fits on no line.
    no_payload = ((ends - starts >= 2) & (byte[ends - 1] == ord("-"))
                  & (byte[ends - 2] == ord(" ")))
    cut = np.where(no_payload, ends - 2, ends - min(width, size) - 1)
    shaped = no_payload | ((cut >= starts) & (byte[np.maximum(cut, 0)] == ord(" ")))
    length = cut - starts
    if not shaped.all() or (length < 1).any() or (length > _MAX_HEAD).any():
        return None
    # Each head in a row of its own, LFs after it; an LF ends no head.
    longest = int(length.max(initial=0))
    heads = sliding_window_view(byte, longest + 1)[starts]
    heads[np.arange(longest + 1) >= length[:, None]] = ord("\n")
    # The regex holds about 600 bytes of state per head it repeats over;
    # 1 KiB a head bounds it.
    if any(_HEADS_RE.fullmatch(heads[rows]) is None
           for rows in row_blocks(len(heads), 1024)):
        return None
    columns = _parse_heads(heads, length)
    if ((columns["status"] == PHY) != no_payload).any():
        return None

    held = ~no_payload
    if packed is None:
        columns["row"] = np.where(held, NOT_LOADED, -1)
        columns["hex_at"] = np.where(held, cut + 1, -1)
        return columns
    kept = held if keep is None else held & keep(columns)
    need = row + int(kept.sum())
    if need > len(packed):
        packed.resize((max(need, 2 * len(packed)), (n_bits + 7) // 8), refcheck=False)
    # The payloads' gathered hex a budget at a time, so that it and its
    # bytes take less room than the block.
    payload, taken, at = cut[held] + 1, kept[held], row
    for rows in row_blocks(payload.size, width):
        try:
            decoded = _unhex(sliding_window_view(byte, width)[payload[rows]], n_bits)
        except ValueError:
            return None
        if not taken[rows].all():
            decoded = decoded[taken[rows]]
        if len(decoded):  # packed may have no width yet
            packed[at:at + len(decoded)] = decoded
            at += len(decoded)
    columns["row"] = np.where(kept, row + np.cumsum(kept) - 1,
                              np.where(held, NOT_LOADED, -1))
    return columns


# The columns _read_columns returns: a Side's and "is_rx".
_COLUMN_TYPES = (("is_rx", bool), ("seq", np.int64), ("timestamp_us", np.int64),
                 ("status", np.int8), ("rssi", np.int64), ("has_rssi", bool),
                 ("row", np.int64))


def _read_columns(
    path: Path, keep=None, rows: int | None = None, decode: bool = True,
) -> tuple[TraceMeta, dict[str, np.ndarray], np.ndarray] | None:
    """(meta, columns, packed payloads) of the records in path, packed
    holding those keep picks, in room for rows of them, if decode (see
    _read).

    The file is read a block at a time (_read_block).  This path only
    accepts: at the first sign of a malformed record line, or of a fault of
    the #meta line or of the text, it returns None.
    """
    with path.open("rb") as fh:
        rest = os.fstat(fh.fileno()).st_size
        first = fh.readline()
        meta = _meta_of(first, path)
        if meta is None:
            return None
        n_bits = meta.frame_len
        # Room for every payload: a line holding one is at least its hex
        # digits plus _MIN_FRAME bytes long, less the LF on the last line.
        most = (rest - len(first) + 1) // (2 * ((n_bits + 7) // 8) + _MIN_FRAME)
        rows = most if rows is None else min(rows, most)
        packed = np.empty((rows, (n_bits + 7) // 8) if rows and decode else (0, 0),
                          dtype=np.uint8)
        parts, row = [], 0
        for block, size in _blocks(fh):
            columns = _read_block(block, size, n_bits, packed if decode else None,
                                  row, keep)
            del block
            if columns is None:
                return None
            parts.append(columns)
            row += int((columns["row"] >= 0).sum())
    if row:
        packed.resize((row, packed.shape[1]), refcheck=False)
    else:
        packed = packed[:0, :0]
    # a column at a time, so that the blocks' columns and the file's
    # overlap by one column only
    columns = {key: np.concatenate([part.pop(key) for part in parts]) if parts
               else np.zeros(0, dtype=dtype) for key, dtype in _COLUMN_TYPES}
    return meta, columns, packed


def _record_lines(data: bytearray):
    """(line number, text) of each line of data after the first that is not
    blank; data is a file's text as _read_text gives it."""
    end, line = data.find(b"\n"), 1
    while end >= 0:
        start, end, line = end + 1, data.find(b"\n", end + 1), line + 1
        text = bytes(data[start:] if end < 0 else data[start:end])
        # A record line starts with a letter; anything else may be blank.
        if 32 < (text or b" ")[0] < 127 or text.decode().strip():
            yield line, text


def _first_fault(path: Path) -> TraceFormatError:
    """The fault of the first malformed record line in path, read line by line.

    The file is read again, whole, so a fault of its text or #meta line
    is raised as it is found; one that changed since the column reader
    refused it may hold no malformed record line at all.
    """
    data = _read_text(path)
    end = data.find(b"\n")
    meta = _read_meta(data[:end] if end >= 0 else data, path)
    for line, text in _record_lines(data):
        fault = _line_fault(text, meta.frame_len)
        if fault is not None:
            return TraceFormatError(fault, str(path), line)
    return TraceFormatError("file changed while it was read", str(path))


def _record_fault(exc: TraceError, path: Path) -> TraceFormatError:
    """exc, a broken invariant of the trace read from path, at the line of
    the record at fault, where there is one.  That line is found by reading
    the file again, line by line: the column reader keeps no line numbers.
    """
    line = None
    if exc.record is not None:
        name, index = exc.record
        lines = (line for line, text in _record_lines(_read_text(path))
                 if text.startswith(name.encode()))
        line = next(itertools.islice(lines, index, None), None)
    return TraceFormatError(str(exc), str(path), line)


def _no_rows(columns: dict[str, np.ndarray]) -> np.ndarray:
    """A keep (see _read) that holds no payload."""
    return np.zeros(columns["seq"].size, dtype=bool)


# load_pair's hold: which of the rx file's records, by status and seq, have
# their payloads held; None holds every payload of both files.
_HOLD = {
    "all": None,
    "corrupted": is_corrupted,
    "crc": lambda status, seq: status == CRC,
    "unknown-crc": lambda status, seq: (status == CRC) & (seq == UNKNOWN_SEQ),
}


def load_pair(tx_path: str | Path, rx_path: str | Path, *, hold: str = "all") -> Trace:
    """Combine a tx-side file and an rx-side file into one trace.

    The two files must agree on rate, frame length and interval; the trace
    keeps the rx file's meta, description included.

    hold names the payloads the trace holds (_HOLD).  "all" holds every
    payload.  Otherwise it holds those of the rx records it picks: for
    "corrupted", rx.corrupted(), and then also the tx payloads at their
    seqs, as the analyses of corrupted frames read them; for "crc" every
    CRC error, and for "unknown-crc" those with seq ?, as recovery scores
    them.  The other records keep their columns, with row NOT_LOADED.
    Every line of both files is checked, and of two faulty files the tx
    file's fault is the one reported; but for "crc" and "unknown-crc" the
    tx file is read as columns alone, and the hex of its payloads is left
    to payload_blocks, which recovery reads to its end.
    """
    pick = _HOLD[hold]
    rows = None if pick is None else 0
    keep = None if pick is None else lambda columns: columns["is_rx"] & pick(
        columns["status"], columns["seq"])
    try:
        rx = _read(Path(rx_path), keep, rows)
        if hold == "corrupted":
            # the tx file's matrix holds one row per seq
            wanted = rx.rx.seq[rx.rx.corrupted()]
            tx = _read(Path(tx_path), lambda columns: ~columns["is_rx"] & np.isin(
                columns["seq"], wanted), rows=wanted.size)
        else:
            tx = _read(Path(tx_path), decode=pick is None)
        if _clock(tx.meta) != _clock(rx.meta):
            raise TraceFormatError(
                f"metadata mismatch between {tx_path} and {rx_path}", str(rx_path)
            )
        merged = Trace(meta=rx.meta, tx=tx.tx, rx=rx.rx)
        # Reading each file has validated its sides; only the pairing is new
        # here.  validate_pairing passes rx records without tx records, as one
        # side of a trace, but a pair needs a tx record for each.
        try:
            if len(merged.rx) and not len(merged.tx):
                raise TraceError("more rx records than tx records", ("rx", 0))
            merged.validate_pairing()
        except TraceError as exc:
            raise _record_fault(exc, Path(rx_path)) from exc
    except (TraceFormatError, OSError):
        _read(Path(tx_path), _no_rows, 0)  # its fault, if any, comes first
        raise
    return merged


def _clock(meta: TraceMeta) -> tuple:
    """What the two files of a pair must agree on: rate, frame length and
    interval."""
    return meta.rate_bps, meta.frame_len, meta.interval_us


def _reread(path: Path, name: str, side: Side, meta: TraceMeta, hold: bool):
    """The file path read again a block at a time, with every check of the
    first read: for each block, the slice of side's records in it, the
    block's columns (_read_block), a mask of side's records among them,
    the packed payloads of those records if hold, and the block.  Without
    hold no payload is decoded: the first read has checked their hex.

    side is the name side of path as load_pair read it, with meta's rate,
    frame length and interval.  A file that no longer holds side's records
    with those columns raises TraceFormatError "file changed while it was
    read"; one with a malformed line raises that line's fault
    (_first_fault), which for a tx file read as columns alone may be the
    first sign of it.
    """
    changed = TraceFormatError("file changed while it was read", str(path))

    def of_side(columns):
        return columns["is_rx"] == (name == "rx")

    with path.open("rb") as fh:
        again = _meta_of(fh.readline(), path)
        if again is None or _clock(again) != _clock(meta):
            raise changed
        end = 0
        for block, size in _blocks(fh):
            packed = np.empty((0, 0), dtype=np.uint8) if hold else None
            columns = _read_block(block, size, meta.frame_len, packed, 0, of_side)
            if columns is None:
                raise _first_fault(path)
            mine = of_side(columns)
            records = slice(end, end + int(mine.sum()))
            if records.stop > len(side) or not all(
                np.array_equal(columns[key][mine], getattr(side, key)[records])
                for key in _SIDE_COLUMNS[:-1]
            ):
                raise changed
            yield records, columns, mine, packed, block
            end = records.stop
    if end != len(side):
        raise changed


def payload_blocks(tx_path: str | Path, tx: Side, meta: TraceMeta):
    """The payloads of tx, the tx side of the file tx_path as load_pair read
    it with meta, a block at a time: pairs (first, rows), rows[i] the
    packed payload of record first + i, in order.

    The file is read again with every check (_reread), its payloads' hex
    included, so only a block's rows are held.
    """
    for records, _, _, packed, _ in _reread(Path(tx_path), "tx", tx, meta, True):
        yield records.start, packed
