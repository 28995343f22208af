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
``0`` or ``-?[1-9][0-9]*``, the only form read back, and the description
holds no line break.

read_trace decodes every payload of a file with one hex decode into one
packed matrix, whose rows the records hold.
"""

from __future__ import annotations

import binascii
import math
import re
from pathlib import Path

import numpy as np

from .trace import (
    FrameRecord,
    ReceiveStatus,
    Trace,
    TraceError,
    TraceFormatError,
    TraceMeta,
)

_META_RE = re.compile(
    r'^#meta R=(?P<rate>[0-9.eE+-]+) frame_len=(?P<flen>\d+) '
    r'interval_us=(?P<iv>\d+) desc="(?P<desc>(?:[^"\\]|\\.)*)"$'
)

_NOT_HEX_RE = re.compile(rb"[^0-9a-f]")

_STATUS_FROM_TOKEN = {s.value: s for s in ReceiveStatus}


class PayloadError(ValueError):
    """A bad payload in a run of hex payloads; index is its position in the run."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def packed_to_hex(packed: np.ndarray) -> str:
    """Lowercase hex of packed payload bytes, bit 0 = MSB of the first digit."""
    return packed.tobytes().hex()


def hex_to_packed(payload_hex: bytes, n_bits: int) -> np.ndarray:
    """Decode back-to-back hex payloads of n_bits each into a packed matrix.

    Returns a read-only uint8 matrix with one row of ceil(n_bits/8) bytes
    per payload, from one binascii.a2b_hex call over all of payload_hex
    (ASCII bytes; bytes.fromhex takes only str, which would cost another
    copy).  Digits must be lowercase hex and pad bits past n_bits zero;
    otherwise raises PayloadError naming the first payload at fault.
    """
    width = 2 * ((n_bits + 7) // 8)
    if len(payload_hex) % width:
        raise PayloadError(
            f"payload hex has {len(payload_hex)} digits, expected a multiple "
            f"of {width} for {n_bits} bits", len(payload_hex) // width
        )
    try:
        packed = binascii.a2b_hex(payload_hex)
    except binascii.Error:
        packed = None
    # a2b_hex also takes uppercase digits; the format allows only lowercase.
    if packed is None or any(c in payload_hex for c in b"ABCDEF"):
        bad = _NOT_HEX_RE.search(payload_hex).start()
        raise PayloadError("payload must be lowercase hex digits", bad // width)
    matrix = np.frombuffer(packed, dtype=np.uint8)
    if not matrix.size:  # frame_len may exceed any array dimension then
        return matrix.reshape(0, 0)
    matrix = matrix.reshape(-1, width // 2)
    pad_bits = 4 * width - n_bits
    if pad_bits:
        bad_rows = np.flatnonzero(matrix[:, -1] & ((1 << pad_bits) - 1))
        if bad_rows.size:
            raise PayloadError("nonzero padding bits past the declared bit length",
                               int(bad_rows[0]))
    return matrix


def _quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unquote(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _format_rate(rate: float) -> str:
    return str(int(rate)) if float(rate).is_integer() else repr(float(rate))


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace; the on-disk form round-trips bit-exactly."""
    desc = trace.meta.description
    if "\n" in desc or "\r" in desc:
        raise TraceError(f"description {desc!r} must not contain a line break")
    trace.validate()
    # Line by line: the whole text at once would cost several copies of it.
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(
            f'#meta R={_format_rate(trace.meta.rate_bps)} '
            f'frame_len={trace.meta.frame_len} '
            f'interval_us={trace.meta.interval_us} '
            f'desc="{_quote(desc)}"\n'
        )
        for side, records in (("tx", trace.tx), ("rx", trace.rx)):
            for rec in records:
                seq = "?" if rec.seq is None else str(rec.seq)
                rssi = "-" if rec.rssi is None else str(rec.rssi)
                payload = "-" if rec.packed is None else packed_to_hex(rec.packed)
                fh.write(f"{side} {seq} {rec.timestamp_us} {rec.status.value} "
                         f"{rssi} {payload}\n")


def _check_utf8(data: bytes, path: Path) -> None:
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
    return value


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file; raises TraceFormatError with file/line context.

    Lines end in LF or CRLF.  A broken invariant of the parsed trace is
    reported at the line of the record at fault, where there is one.
    """
    return _read(Path(path))[0]


def _read(path: Path) -> tuple[Trace, dict[str, list[int]]]:
    """The trace in path and the line of each record, by side.

    The file stays one bytes object: each record line is located and its
    small fields checked in turn, and only its payload's offset is kept.
    The payloads are then joined, the file dropped, and all of them
    decoded at once (hex_to_packed).  The fault reported is the first in
    file order, as if each line were decoded in turn; bytes that are not
    UTF-8 are reported before anything else.
    """
    # Read as bytes and split by hand: text mode would also take a lone CR
    # as a line break, and its decode errors carry no position in the file.
    data = path.read_bytes()
    if not data:
        raise TraceFormatError("empty file, missing #meta line", str(path), 1)
    if not data.isascii():
        _check_utf8(data, path)
    if b"\r" in data:  # the guard is a fast scan; replace is not, even with no match
        data = data.replace(b"\r\n", b"\n")
    size = len(data)
    pos = data.find(b"\n") + 1 or size
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
    n_bits = meta.frame_len
    width = 2 * ((n_bits + 7) // 8)
    trace = Trace(meta=meta)
    records_of = {"tx": trace.tx, "rx": trace.rx}
    line_of: dict[str, list[int]] = {"tx": [], "rx": []}
    # records with a payload, its offset in data and its line
    holders: list[FrameRecord] = []
    hex_starts: list[int] = []
    hex_lines: list[int] = []

    def hex_bytes() -> bytes:
        with memoryview(data) as view:
            return b"".join([view[i:i + width] for i in hex_starts])

    lineno = 1
    while pos < size:
        start = pos
        stop = data.find(b"\n", start)
        if stop < 0:
            stop = size
        pos = stop + 1
        lineno += 1
        # A record line starts with a letter; anything else may be blank.
        if not 32 < data[start] < 127 and not data[start:stop].decode().strip():
            continue
        try:
            cut = data.rfind(b" ", start, stop)
            fields = data[start:cut].decode().split(" ") if cut >= 0 else []
            if len(fields) != 5:
                raise ValueError(f"expected 6 fields, got {len(fields) + 1}")
            side, seq_tok, ts_tok, status_tok, rssi_tok = fields
            if side not in records_of:
                raise ValueError(f"unknown side {side!r}")
            status = _STATUS_FROM_TOKEN.get(status_tok)
            if status is None:
                raise ValueError(f"unknown status {status_tok!r}")
            seq = None if seq_tok == "?" else _int(seq_tok, "seq")
            timestamp_us = _int(ts_tok, "timestamp")
            rssi = None if rssi_tok == "-" else _int(rssi_tok, "rssi")
            has_payload = stop - cut != 2 or data[cut + 1] != 45  # "-"
            if has_payload and stop - cut - 1 != width:
                raise ValueError(
                    f"payload hex has {len(data[cut + 1:stop].decode())} digits, "
                    f"expected {width} for {n_bits} bits"
                )
            if has_payload == (status is ReceiveStatus.PHY_ERROR):
                raise ValueError(
                    "PHY-error frame must not carry a payload"
                    if has_payload
                    else f"{status.value} frame must carry a payload"
                )
        except ValueError as exc:
            # a payload on an earlier line may be at fault first
            _decode_payloads(hex_bytes(), hex_lines, n_bits, path)
            raise TraceFormatError(str(exc), str(path), lineno) from exc
        rec = FrameRecord._from_row(seq, timestamp_us, status, None,
                                    n_bits if has_payload else 0, rssi)
        records_of[side].append(rec)
        line_of[side].append(lineno)
        if has_payload:
            holders.append(rec)
            hex_starts.append(cut + 1)
            hex_lines.append(lineno)
    payload_hex = hex_bytes()
    del data
    FrameRecord._fill_rows(holders,
                           _decode_payloads(payload_hex, hex_lines, n_bits, path))
    try:
        trace.validate()
    except TraceError as exc:
        line = None if exc.record is None else line_of[exc.record[0]][exc.record[1]]
        raise TraceFormatError(str(exc), str(path), line) from exc
    return trace, line_of


def _decode_payloads(
    payload_hex: bytes, lines: list[int], n_bits: int, path: Path
) -> np.ndarray:
    """hex_to_packed, with a fault named at the line of its payload."""
    try:
        return hex_to_packed(payload_hex, n_bits)
    except PayloadError as exc:
        raise TraceFormatError(str(exc), str(path), lines[exc.index]) from exc


def load_pair(tx_path: str | Path, rx_path: str | Path) -> Trace:
    """Combine a tx-side file and an rx-side file into one trace."""
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
    merged = Trace(meta=tx.meta, tx=tx.tx, rx=rx.rx)
    # read_trace has validated each side; only the pairing is new here.
    try:
        merged.validate_pairing()
    except TraceError as exc:
        line = None if exc.record is None else rx_lines["rx"][exc.record[1]]
        raise TraceFormatError(str(exc), str(rx_path), line) from exc
    return merged
