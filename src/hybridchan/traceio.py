"""Reading and writing the newline-delimited trace file format.

Layout: a single ``#meta`` header line followed by one frame record per
line.  Text was chosen over a binary container so traces diff cleanly and
other tools can parse them with a one-line split.

    #meta R=<bits/s> frame_len=<bits> interval_us=<int> desc=<quoted string>
    <side:tx|rx> <seq:int|?> <timestamp_us:int> <status:ok|crc|phy> <rssi:int|-> <payload:hex|->

Payloads are lowercase hex with bit 0 in the MSB of the first digit; the
bit count comes from frame_len, so payloads need not be whole bytes.
PHY-error records carry ``-`` in the payload column, unknown sequence
numbers the literal ``?``, missing RSSI ``-``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .trace import (
    FrameRecord,
    ReceiveStatus,
    Trace,
    TraceError,
    TraceFormatError,
    TraceMeta,
    bits_to_hex,
    hex_to_bits,
)

_META_RE = re.compile(
    r'^#meta R=(?P<rate>[0-9.eE+-]+) frame_len=(?P<flen>\d+) '
    r'interval_us=(?P<iv>\d+) desc="(?P<desc>(?:[^"\\]|\\.)*)"$'
)

_STATUS_FROM_TOKEN = {s.value: s for s in ReceiveStatus}


def _quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unquote(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _format_rate(rate: float) -> str:
    return str(int(rate)) if float(rate).is_integer() else repr(float(rate))


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace; the on-disk form round-trips bit-exactly."""
    trace.validate()
    lines = [
        f'#meta R={_format_rate(trace.meta.rate_bps)} '
        f'frame_len={trace.meta.frame_len} '
        f'interval_us={trace.meta.interval_us} '
        f'desc="{_quote(trace.meta.description)}"'
    ]
    for side, records in (("tx", trace.tx), ("rx", trace.rx)):
        for rec in records:
            seq = "?" if rec.seq is None else str(rec.seq)
            rssi = "-" if rec.rssi is None else str(rec.rssi)
            payload = "-" if rec.payload is None else bits_to_hex(rec.payload)
            lines.append(
                f"{side} {seq} {rec.timestamp_us} {rec.status.value} {rssi} {payload}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path: Path) -> str:
    # Decoded by hand: text mode would also take a lone CR as a line break,
    # and its decode errors carry no position in the file.
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(
            f"not UTF-8 text (byte 0x{data[exc.start]:02x})", str(path), line
        ) from exc


def read_trace(path: str | Path) -> Trace:
    """Parse a trace file; raises TraceFormatError with file/line context.

    Lines end in LF or CRLF.  A broken invariant of the parsed trace is
    reported at the line of the record at fault, where there is one.
    """
    path = Path(path)
    text = _read_text(path)
    if not text:
        raise TraceFormatError("empty file, missing #meta line", str(path), 1)
    if "\r" in text:  # the guard is a fast scan; replace is not, even with no match
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    m = _META_RE.match(lines[0])
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
    if meta.frame_len == 0:
        raise TraceFormatError("frame_len must be positive", str(path), 1)
    if not 0 < meta.rate_bps < math.inf:
        raise TraceFormatError("R must be positive and finite", str(path), 1)
    trace = Trace(meta=meta)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != 6:
            raise TraceFormatError(
                f"expected 6 fields, got {len(fields)}", str(path), lineno
            )
        side, seq_tok, ts_tok, status_tok, rssi_tok, payload_tok = fields
        if side not in ("tx", "rx"):
            raise TraceFormatError(f"unknown side {side!r}", str(path), lineno)
        if status_tok not in _STATUS_FROM_TOKEN:
            raise TraceFormatError(f"unknown status {status_tok!r}", str(path), lineno)
        status = _STATUS_FROM_TOKEN[status_tok]
        try:
            seq = None if seq_tok == "?" else int(seq_tok)
            timestamp_us = int(ts_tok)
            rssi = None if rssi_tok == "-" else int(rssi_tok)
            payload = (
                None
                if payload_tok == "-"
                else hex_to_bits(payload_tok, meta.frame_len)
            )
            record = FrameRecord(
                seq=seq,
                timestamp_us=timestamp_us,
                status=status,
                payload=payload,
                rssi=rssi,
            )
        except (ValueError, TraceError) as exc:
            raise TraceFormatError(str(exc), str(path), lineno) from exc
        (trace.tx if side == "tx" else trace.rx).append(record)
    try:
        trace.validate()
    except TraceError as exc:
        line = None if exc.record is None else _record_line(lines, *exc.record)
        raise TraceFormatError(str(exc), str(path), line) from exc
    return trace


def _record_line(lines: list[str], side: str, index: int) -> int | None:
    """Line number of record index of side, in lines that all parsed."""
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() and line.startswith(side):
            if index == 0:
                return lineno
            index -= 1
    return None


def load_pair(tx_path: str | Path, rx_path: str | Path) -> Trace:
    """Combine a tx-side file and an rx-side file into one trace."""
    tx = read_trace(tx_path)
    rx = read_trace(rx_path)
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
        raise TraceFormatError(str(exc), str(rx_path)) from exc
    return merged
