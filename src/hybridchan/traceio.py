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

read_trace fills a trace's columns from the whole file at once: the line
heads (everything before the payload) are checked by one anchored regex
and converted with numpy, and every payload is decoded by one hex decode
into one packed matrix.  That path only accepts.  When it meets any
malformed record line it reads the file again, line by line, and the
first line that fails the per-line checks (_line_fault) names the fault.
So faults are reported in file order, and within a line the payload's
hex is checked last.
"""

from __future__ import annotations

import binascii
import math
import re
from pathlib import Path

import numpy as np

from .trace import (
    CRC,
    MAX_DIGITS,
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
)

_META_RE = re.compile(
    r'^#meta R=(?P<rate>[0-9.eE+-]+) frame_len=(?P<flen>0|[1-9][0-9]*) '
    r'interval_us=(?P<iv>0|[1-9][0-9]*) desc="(?P<desc>(?:[^"\\]|\\.)*)"$'
)

# Canonical record integers of at most MAX_DIGITS digits.
_NATURAL = rb"0|[1-9][0-9]{0,%d}" % (MAX_DIGITS - 1)
_INT = rb"0|-?[1-9][0-9]{0,%d}" % (MAX_DIGITS - 1)
# The heads of record lines, each ended by LF: side, seq, timestamp, status, rssi.
_HEADS_RE = re.compile(
    rb"(?:(?:tx|rx) (?:\?|" + _NATURAL + rb") (?:" + _INT + rb") (?:ok|crc|phy) "
    rb"(?:-|" + _INT + rb")\n)*"
)

_STATUS_FROM_TOKEN = {s.value: s for s in ReceiveStatus}


def packed_to_hex(packed: np.ndarray) -> str:
    """Lowercase hex of packed payload bytes, bit 0 = MSB of the first digit."""
    return packed.tobytes().hex()


def hex_to_packed(payload_hex, n_bits: int) -> np.ndarray:
    """Decode back-to-back hex payloads of n_bits each into a packed matrix.

    payload_hex is ASCII bytes or any buffer of them.  Returns a read-only
    uint8 matrix with one row of ceil(n_bits/8) bytes per payload, from one
    binascii.a2b_hex call over all of it.  Digits must be lowercase hex and
    pad bits past n_bits zero; otherwise raises ValueError.
    """
    width = 2 * ((n_bits + 7) // 8)
    if len(payload_hex) % width:
        raise ValueError(f"payload hex has {len(payload_hex)} digits, expected "
                         f"a multiple of {width} for {n_bits} bits")
    try:
        packed = binascii.a2b_hex(payload_hex)
    except binascii.Error:
        packed = None
    # a2b_hex also takes uppercase digits; the format allows only lowercase.
    # A memchr scan per digit is the fast test for them.
    if packed is None or any(payload_hex.find(c) >= 0 for c in b"ABCDEF"):
        raise ValueError("payload must be lowercase hex digits")
    matrix = np.frombuffer(packed, dtype=np.uint8)
    if not matrix.size:  # frame_len may exceed any array dimension then
        return matrix.reshape(0, 0)
    matrix = matrix.reshape(-1, width // 2)
    pad_bits = 4 * width - n_bits
    if pad_bits and (matrix[:, -1] & ((1 << pad_bits) - 1)).any():
        raise ValueError("nonzero padding bits past the declared bit length")
    return matrix


def _quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unquote(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _format_rate(rate: float) -> str:
    return str(int(rate)) if float(rate).is_integer() else repr(float(rate))


def _record_lines(name: str, side: Side):
    """The text lines of one side's records, from its columns."""
    tokens = [s.value for s in STATUSES]
    for seq, ts, status, rssi, has_rssi, row in zip(
        side.seq.tolist(), side.timestamp_us.tolist(), side.status.tolist(),
        side.rssi.tolist(), side.has_rssi.tolist(), side.row.tolist(),
    ):
        yield (f"{name} {'?' if seq == UNKNOWN_SEQ else seq} {ts} "
               f"{tokens[status]} {rssi if has_rssi else '-'} "
               f"{'-' if row < 0 else packed_to_hex(side.packed[row])}\n")


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace; the on-disk form round-trips bit-exactly."""
    desc = trace.meta.description
    if "\n" in desc or "\r" in desc:
        raise TraceError(f"description {desc!r} must not contain a line break")
    if not 0 < trace.meta.rate_bps < math.inf:  # read_trace would refuse it
        raise TraceError(f"R={trace.meta.rate_bps} must be positive and finite")
    trace.validate()
    # Line by line: the whole text at once would cost several copies of it.
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(
            f'#meta R={_format_rate(trace.meta.rate_bps)} '
            f'frame_len={trace.meta.frame_len} '
            f'interval_us={trace.meta.interval_us} '
            f'desc="{_quote(desc)}"\n'
        )
        for name, side in (("tx", trace.tx), ("rx", trace.rx)):
            fh.writelines(_record_lines(name, side))


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
    for back in range(MAX_DIGITS, 0, -1):  # digit by digit, most significant first
        at = stop - back
        digit = heads[np.maximum(at, 0)].astype(np.int64) - ord("0")
        values = values * 10 + np.where((at >= start) & (digit >= 0), digit, 0)
    return np.where(heads[start] == ord("-"), -values, values)


def _parse_heads(heads: bytes) -> dict[str, np.ndarray]:
    """Columns of the record heads, which _HEADS_RE has matched."""
    hb = np.frombuffer(heads, dtype=np.uint8)
    ends = np.flatnonzero((hb == ord(" ")) | (hb == ord("\n"))).reshape(-1, 5)
    starts = np.empty_like(ends)
    starts[:, 1:] = ends[:, :-1] + 1
    starts[1:, 0] = ends[:-1, 4] + 1
    starts[:1, 0] = 0
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
    return _read(Path(path))[0]


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


def _read_meta(data: bytearray, path: Path) -> tuple[TraceMeta, int]:
    """The #meta line's metadata and the offset of the line after it."""
    pos = data.find(b"\n") + 1 or len(data)
    m = _META_RE.match(data[:pos].rstrip(b"\n").decode())
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
    return meta, pos


def _record_spans(data: bytearray, pos: int) -> tuple[np.ndarray, ...]:
    """(start, end, line number) of each line from pos on that is not blank."""
    ends = []
    stop = data.find(b"\n", pos)
    while stop >= 0:
        ends.append(stop)
        stop = data.find(b"\n", stop + 1)
    if max(ends[-1] + 1 if ends else 0, pos) < len(data):
        ends.append(len(data))  # a last line without LF
    ends = np.array(ends, dtype=np.int64)
    starts = np.concatenate(([pos], ends[:-1] + 1))[:ends.size].astype(np.int64)
    lines = np.arange(2, ends.size + 2)
    # A record line starts with a letter; anything else may be blank.
    first = np.frombuffer(data, dtype=np.uint8)[starts]
    for i in np.flatnonzero((first <= 32) | (first >= 127)).tolist():
        if not data[starts[i]:ends[i]].decode().strip():
            lines[i] = 0
    keep = lines > 0
    return starts[keep], ends[keep], lines[keep]


def _read(path: Path) -> tuple[Trace, dict[str, np.ndarray]]:
    """The trace in path and the line of each record, by side.

    _read_columns reads the file; when it refuses the file, _first_fault
    reads it again and names the fault.  By then the first read's buffer
    is gone, so the error path holds one copy of the file at a time.
    """
    read = _read_columns(path)
    if read is None:
        raise _first_fault(path)
    meta, columns, packed, lines = read
    sides, line_of = {}, {}
    for name, pick in (("tx", ~columns["is_rx"]), ("rx", columns["is_rx"])):
        index = np.flatnonzero(pick)
        sides[name] = Side(
            **{key: columns[key][index] for key in
               ("seq", "timestamp_us", "status", "rssi", "has_rssi", "row")},
            packed=packed, n_bits=meta.frame_len if packed.size else 0,
        )
        line_of[name] = lines[index]
    trace = Trace(meta=meta, tx=sides["tx"], rx=sides["rx"])
    try:
        trace.validate()
    except TraceError as exc:
        line = None if exc.record is None else int(line_of[exc.record[0]][exc.record[1]])
        raise TraceFormatError(str(exc), str(path), line) from exc
    return trace, line_of


def _read_columns(
    path: Path,
) -> tuple[TraceMeta, dict[str, np.ndarray], np.ndarray, np.ndarray] | None:
    """(meta, columns, packed payloads, line numbers) of the records in path.

    The file is read into one bytearray and its lines located.  The head
    of each record line is its text before the payload, whose width the
    metadata fixes; the heads are joined, checked by one anchored regex
    and converted to columns.  Then each payload's hex is moved down to
    the front of the bytearray and all of them are decoded at once
    (hex_to_packed).  This path only accepts: at the first sign of a
    malformed record line it returns None.
    """
    data = _read_text(path)
    meta, pos = _read_meta(data, path)
    n_bits = meta.frame_len
    width = 2 * ((n_bits + 7) // 8)
    starts, ends, lines = _record_spans(data, pos)

    # Where each line's payload starts if the line is well formed: after
    # the space before a lone "-", or width digits before the line end.
    # A payload wider than the file fits on no line.
    byte = np.frombuffer(data, dtype=np.uint8)
    no_payload = ((ends - starts >= 2) & (byte[ends - 1] == ord("-"))
                  & (byte[ends - 2] == ord(" ")))
    cut = np.where(no_payload, ends - 2, ends - min(width, len(data)) - 1)
    shaped = no_payload | ((cut >= starts) & (byte[np.maximum(cut, 0)] == ord(" ")))
    del byte  # data is resized below
    if not shaped.all():
        return None
    with memoryview(data) as view:  # each head ends in LF; no records join to b""
        heads = b"\n".join([view[a:b] for a, b in zip(starts.tolist(), cut.tolist())]
                           + [b""])
    if _HEADS_RE.fullmatch(heads) is None:
        return None
    columns = _parse_heads(heads)
    if ((columns["status"] == PHY) != no_payload).any():
        return None

    # Move the payloads down to the front of data, in line order, and
    # decode them.
    held = np.flatnonzero(~no_payload)
    with memoryview(data) as view:
        for k, a in enumerate((cut[held] + 1).tolist()):
            view[k * width:(k + 1) * width] = view[a:a + width]
    del data[held.size * width:]
    try:
        packed = hex_to_packed(data, n_bits)
    except ValueError:
        return None
    columns["row"] = np.where(no_payload, -1, np.cumsum(~no_payload) - 1)
    return meta, columns, packed, lines


def _first_fault(path: Path) -> TraceFormatError:
    """The fault of the first malformed record line in path, read line by line.

    The file is read again, so a fault of its text or #meta line is raised
    as it is found; one that changed since the column reader refused it
    may hold no malformed record line at all.
    """
    data = _read_text(path)
    meta, pos = _read_meta(data, path)
    starts, ends, lines = _record_spans(data, pos)
    for start, end, line in zip(starts.tolist(), ends.tolist(), lines.tolist()):
        fault = _line_fault(bytes(data[start:end]), meta.frame_len)
        if fault is not None:
            return TraceFormatError(fault, str(path), line)
    return TraceFormatError("file changed while it was read", str(path))


def load_pair(tx_path: str | Path, rx_path: str | Path) -> Trace:
    """Combine a tx-side file and an rx-side file into one trace.

    The two files must agree on rate, frame length and interval; the trace
    keeps the rx file's meta, description included.
    """
    tx = read_trace(tx_path)
    rx, rx_lines = _read(Path(rx_path))
    if (tx.meta.rate_bps, tx.meta.frame_len, tx.meta.interval_us) != (
        rx.meta.rate_bps,
        rx.meta.frame_len,
        rx.meta.interval_us,
    ):
        raise TraceFormatError(
            f"metadata mismatch between {tx_path} and {rx_path}", str(rx_path)
        )
    merged = Trace(meta=rx.meta, tx=tx.tx, rx=rx.rx)
    # read_trace has validated each side; only the pairing is new here.
    try:
        merged.validate_pairing()
    except TraceError as exc:
        line = None if exc.record is None else int(rx_lines["rx"][exc.record[1]])
        raise TraceFormatError(str(exc), str(rx_path), line) from exc
    return merged
