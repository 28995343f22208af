"""Reference trace reader and writer, line by line, for checking hybridchan.traceio.

read reads a file line by line into plain tuples, checks each line's
fields in turn, decodes the payloads with one hex decode and then checks
the trace invariants record by record.  Tests compare traceio.read_trace
against it: the same columns on valid files, and the same faulty line and
message on malformed ones.

It returns (meta, tx records, rx records) or raises TraceFormatError.  A
record is (seq or None, timestamp_us, status, payload or None, rssi or
None), the payload as its packed bytes; every payload is decoded at
frame_len bits, so a record cannot disagree with the meta line on length.

write formats a trace one f-string per record; traceio.write_trace must
write the same bytes.
"""

import binascii
import math
import re
from pathlib import Path

import numpy as np

from hybridchan import ReceiveStatus, TraceFormatError, TraceMeta
from hybridchan.trace import STATUSES, UNKNOWN_SEQ

_META_RE = re.compile(
    r'^#meta R=(?P<rate>[0-9.eE+-]+) frame_len=(?P<flen>0|[1-9][0-9]*) '
    r'interval_us=(?P<iv>0|[1-9][0-9]*) desc="(?P<desc>(?:[^"\\]|\\.)*)"$'
)
_NOT_HEX_RE = re.compile(rb"[^0-9a-f]")
_STATUS_FROM_TOKEN = {s.value: s for s in ReceiveStatus}


class _Fault(Exception):
    """A fault at a record: (side, index) and message."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record


def _decode(payload_hex, n_bits):
    """The packed rows of back-to-back payloads, or (index, message) of a bad one."""
    width = 2 * ((n_bits + 7) // 8)
    try:
        packed = binascii.a2b_hex(payload_hex)
    except binascii.Error:
        packed = None
    if packed is None or any(c in payload_hex for c in b"ABCDEF"):
        bad = _NOT_HEX_RE.search(payload_hex).start()
        return bad // width, "payload must be lowercase hex digits"
    matrix = np.frombuffer(packed, dtype=np.uint8)
    if not matrix.size:
        return matrix.reshape(0, 0)
    matrix = matrix.reshape(-1, width // 2)
    pad_bits = 4 * width - n_bits
    if pad_bits:
        bad_rows = np.flatnonzero(matrix[:, -1] & ((1 << pad_bits) - 1))
        if bad_rows.size:
            return int(bad_rows[0]), "nonzero padding bits past the declared bit length"
    return matrix


def _int(token, name):
    value = int(token)
    if str(value) != token:
        raise ValueError(f"{name} {token!r} is not a canonical integer")
    return value


def _validate(tx, rx):
    """The record invariants, checked one record at a time."""
    for i, (seq, *_) in enumerate(tx):
        if seq != i:
            raise _Fault(f"tx sequence numbers must be consecutive from 0; "
                         f"record {i} has seq {seq}", ("tx", i))
    for side_name, side in (("tx", tx), ("rx", rx)):
        prev = None
        for i, (_, timestamp, *_) in enumerate(side):
            if prev is not None and timestamp < prev:
                raise _Fault(f"{side_name} timestamps must be non-decreasing "
                             f"(saw {timestamp} after {prev})", (side_name, i))
            prev = timestamp
    prev_seq = None
    for i, (seq, *_) in enumerate(rx):
        if seq is None:
            continue
        if prev_seq is not None and seq <= prev_seq:
            if seq == prev_seq:
                raise _Fault(f"rx seq {seq} appears more than once", ("rx", i))
            raise _Fault(f"known rx seqs must increase in trace order "
                         f"(saw {seq} after {prev_seq})", ("rx", i))
        prev_seq = seq
    if tx and rx:
        if len(rx) > len(tx):
            raise _Fault("more rx records than tx records", ("rx", len(tx)))
        for i, (seq, *_) in enumerate(rx):
            if seq is not None and not 0 <= seq < len(tx):
                raise _Fault(f"rx seq {seq} has no matching tx record", ("rx", i))


def read(path):
    path = Path(path)
    data = path.read_bytes()

    def fail(message, line):
        raise TraceFormatError(message, str(path), line)

    if not data:
        fail("empty file, missing #meta line", 1)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        fail(f"not UTF-8 text (byte 0x{data[exc.start]:02x})",
             data.count(b"\n", 0, exc.start) + 1)
    data = data.replace(b"\r\n", b"\n")
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    m = _META_RE.match(lines[0].decode())
    if m is None:
        fail("malformed #meta line", 1)
    try:
        meta = TraceMeta(rate_bps=float(m.group("rate")), frame_len=int(m.group("flen")),
                         interval_us=int(m.group("iv")),
                         description=m.group("desc").replace('\\"', '"').replace("\\\\", "\\"))
    except ValueError as exc:
        fail(str(exc), 1)
    if "\r" in meta.description:
        fail("description must not contain a line break", 1)
    if meta.frame_len == 0:
        fail("frame_len must be positive", 1)
    if not 0 < meta.rate_bps < math.inf:
        fail("R must be positive and finite", 1)
    n_bits = meta.frame_len
    width = 2 * ((n_bits + 7) // 8)
    rows = {"tx": [], "rx": []}  # (seq, timestamp, status, rssi, payload index)
    line_of = {"tx": [], "rx": []}
    payloads, payload_lines = [], []

    def check_payloads():
        got = _decode(b"".join(payloads), n_bits)
        if isinstance(got, tuple):
            fail(got[1], payload_lines[got[0]])
        return got

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.decode().strip() and not 32 < (line or b"\n")[0] < 127:
            continue
        try:
            cut = line.rfind(b" ")
            fields = line[:cut].decode().split(" ") if cut >= 0 else []
            if len(fields) != 5:
                raise ValueError(f"expected 6 fields, got {len(fields) + 1}")
            side, seq_tok, ts_tok, status_tok, rssi_tok = fields
            if side not in rows:
                raise ValueError(f"unknown side {side!r}")
            status = _STATUS_FROM_TOKEN.get(status_tok)
            if status is None:
                raise ValueError(f"unknown status {status_tok!r}")
            seq = None if seq_tok == "?" else _int(seq_tok, "seq")
            timestamp = _int(ts_tok, "timestamp")
            rssi = None if rssi_tok == "-" else _int(rssi_tok, "rssi")
            payload = line[cut + 1:]
            has_payload = payload != b"-"
            if has_payload and len(payload) != width:
                raise ValueError(f"payload hex has {len(payload.decode())} digits, "
                                 f"expected {width} for {n_bits} bits")
            if has_payload == (status is ReceiveStatus.PHY_ERROR):
                raise ValueError("PHY-error frame must not carry a payload" if has_payload
                                 else f"{status.value} frame must carry a payload")
        except ValueError as exc:
            check_payloads()
            fail(str(exc), lineno)
        index = None
        if has_payload:
            index = len(payloads)
            payloads.append(payload)
            payload_lines.append(lineno)
        rows[side].append((seq, timestamp, status, rssi, index))
        line_of[side].append(lineno)
    packed = check_payloads()
    records = {
        side: [(seq, timestamp, status,
                None if index is None else packed[index].tobytes(), rssi)
               for seq, timestamp, status, rssi, index in side_rows]
        for side, side_rows in rows.items()
    }
    try:
        _validate(records["tx"], records["rx"])
    except _Fault as exc:
        fail(str(exc), line_of[exc.record[0]][exc.record[1]])
    return meta, records["tx"], records["rx"]


def packed_to_hex(packed):
    """Lowercase hex of packed payload bytes, bit 0 = MSB of the first digit."""
    return packed.tobytes().hex()


def _record_lines(name, side):
    """The text lines of one side's records, from its columns."""
    tokens = [s.value for s in STATUSES]
    for seq, ts, status, rssi, has_rssi, row in zip(
        side.seq.tolist(), side.timestamp_us.tolist(), side.status.tolist(),
        side.rssi.tolist(), side.has_rssi.tolist(), side.row.tolist(),
    ):
        yield (f"{name} {'?' if seq == UNKNOWN_SEQ else seq} {ts} "
               f"{tokens[status]} {rssi if has_rssi else '-'} "
               f"{'-' if row < 0 else packed_to_hex(side.packed[row])}\n")


def write(trace, path):
    """Write a trace that traceio.write_trace accepts, a line at a time."""
    meta = trace.meta
    rate = (str(int(meta.rate_bps)) if float(meta.rate_bps).is_integer()
            else repr(float(meta.rate_bps)))
    desc = meta.description.replace("\\", "\\\\").replace('"', '\\"')
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'#meta R={rate} frame_len={meta.frame_len} '
                 f'interval_us={meta.interval_us} desc="{desc}"\n')
        for name, side in (("tx", trace.tx), ("rx", trace.rx)):
            fh.writelines(_record_lines(name, side))
