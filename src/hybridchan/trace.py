"""Frame and trace data model.

A trace holds a transmit side and a receive side plus the metadata (PHY
rate, payload length, inter-packet interval) every analysis needs.  Each
side is a set of columns with one entry per record, in trace order (Side):
sequence number, timestamp, status code, RSSI with a presence mask, and
the record's row in one packed payload matrix.  Payloads are stored
packed, big-endian as in the trace file: ceil(n_bits/8) bytes per row with
zero pad bits, so the analyses XOR and count bytes.  Columns and payloads
are read-only, so sides can be shared freely.

FrameRecord is one row as a value, for building small traces by hand and
for reading a row back; the package's own code works on the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class TraceError(Exception):
    """Malformed trace data (invariant violation or bad file contents).

    record is the (side, index) of the record at fault when there is one,
    so a reader can name its line.
    """

    def __init__(self, message: str, record: tuple[str, int] | None = None):
        super().__init__(message)
        self.record = record


class TraceFormatError(TraceError):
    """Parse failure in a trace file; carries file path and line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(prefix + message)


class UsageError(ValueError):
    """An argument outside what a command or constructor accepts.

    The CLI exits 1 on it; any other ValueError is a fault of the program
    and exits 3.
    """


class ReceiveStatus(Enum):
    """How a frame arrived: demodulation failure, failed CRC, or clean."""

    PHY_ERROR = "phy"
    CRC_ERROR = "crc"
    OK = "ok"


# A status column holds indices into STATUSES: PHY, CRC or OK.
STATUSES = tuple(ReceiveStatus)
PHY, CRC, OK = (STATUSES.index(s) for s in
                (ReceiveStatus.PHY_ERROR, ReceiveStatus.CRC_ERROR, ReceiveStatus.OK))

# The seq column's entry for an unknown sequence number ("?" in a file).
UNKNOWN_SEQ = -1

# seq, timestamp and RSSI have at most this many digits, as in a trace
# file, so every value fits an int64 column.
MAX_DIGITS = 18


@dataclass(frozen=True)
class ChannelParams:
    """Hybrid channel parameters.

    r is the erasure (PHY error) probability, s the probability that a
    non-erased frame is error-free, p the bit crossover probability inside
    corrupted frames, rate_bps the PHY bit rate.
    """

    r: float
    s: float
    p: float
    rate_bps: float
    frame_len: int
    interval_us: int

    def __post_init__(self) -> None:
        for name in ("r", "s", "p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise UsageError(f"{name}={v} outside [0, 1]")
        if not 0 < self.rate_bps < math.inf:
            raise UsageError(f"rate_bps={self.rate_bps} must be positive and finite")
        if self.frame_len <= 0:
            raise UsageError(f"frame_len={self.frame_len} must be positive")
        if self.interval_us <= 0:
            raise UsageError(f"interval_us={self.interval_us} must be positive")


@dataclass(frozen=True, eq=False, init=False, slots=True)
class FrameRecord:
    """One transmitted or received frame, as a value.

    seq is None while the sequence number is unknown (corrupted frames
    before recovery).  PHY-error frames carry no payload.  rssi is optional
    because some hardware cannot report it for every reception.

    The payload is given as a 0/1 bit vector, which is checked and packed,
    or as packed bytes with their bit count.  packed is read-only and may
    be a row of a side's payload matrix; payload unpacks it on every read.
    """

    seq: int | None
    timestamp_us: int
    status: ReceiveStatus
    packed: np.ndarray | None
    n_bits: int
    rssi: int | None

    def __init__(
        self,
        seq: int | None,
        timestamp_us: int,
        status: ReceiveStatus,
        payload: np.ndarray | None = None,
        rssi: int | None = None,
        *,
        packed: np.ndarray | None = None,
        n_bits: int = 0,
    ) -> None:
        if payload is not None:
            if packed is not None:
                raise TraceError("payload given both as bits and packed")
            bits = np.asarray(payload, dtype=np.uint8)
            if bits.ndim != 1:
                raise TraceError("payload must be a 1-D bit vector")
            if bits.size and bits.max() > 1:
                raise TraceError("payload bits must be 0 or 1")
            packed, n_bits = np.packbits(bits), bits.size
        elif packed is not None:
            packed = np.asarray(packed)
            if packed.dtype != np.uint8 or packed.shape != ((n_bits + 7) // 8,):
                raise TraceError(f"packed payload must be {(n_bits + 7) // 8} "
                                 f"uint8 bytes for {n_bits} bits")
            if n_bits % 8 and packed[-1] & (0xFF >> n_bits % 8):
                raise TraceError("nonzero padding bits past the declared bit length")
        if status is ReceiveStatus.PHY_ERROR:
            if packed is not None:
                raise TraceError("PHY-error frame must not carry a payload")
        elif packed is None:
            raise TraceError(f"{status.value} frame must carry a payload")
        if packed is None:
            n_bits = 0
        else:
            packed.setflags(write=False)
        for name, value in (("seq", seq), ("timestamp_us", timestamp_us),
                            ("status", status), ("packed", packed),
                            ("n_bits", n_bits), ("rssi", rssi)):
            object.__setattr__(self, name, value)

    @property
    def payload(self) -> np.ndarray | None:
        """The payload bits (uint8 0/1, read-only), unpacked on each read."""
        if self.packed is None:
            return None
        bits = np.unpackbits(self.packed, count=self.n_bits)
        bits.setflags(write=False)
        return bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameRecord):
            return NotImplemented
        if (self.seq, self.timestamp_us, self.status, self.rssi, self.n_bits) != (
            other.seq,
            other.timestamp_us,
            other.status,
            other.rssi,
            other.n_bits,
        ):
            return False
        if self.packed is None or other.packed is None:
            return self.packed is other.packed
        return bool(np.array_equal(self.packed, other.packed))


_COLUMNS = (("seq", np.int64), ("timestamp_us", np.int64), ("status", np.int8),
            ("rssi", np.int64), ("has_rssi", np.bool_), ("row", np.int64))


@dataclass(frozen=True, eq=False)
class Side:
    """The tx or rx records of a trace as read-only columns, in trace order.

    seq is UNKNOWN_SEQ where the sequence number is unknown, status a code
    (PHY, CRC or OK), rssi is 0 where has_rssi is False.  row is the
    record's row in packed, a uint8 matrix of ceil(n_bits/8) bytes per
    payload, or -1 for a PHY error; packed may hold rows no record uses,
    and n_bits is 0 when it holds none.
    """

    seq: np.ndarray
    timestamp_us: np.ndarray
    status: np.ndarray
    rssi: np.ndarray
    has_rssi: np.ndarray
    row: np.ndarray
    packed: np.ndarray
    n_bits: int = 0

    def __post_init__(self) -> None:
        n = len(self.seq)
        for name, dtype in _COLUMNS:
            try:
                column = np.asarray(getattr(self, name), dtype=dtype)
            except OverflowError as exc:
                raise TraceError(f"{name} values must have at most {MAX_DIGITS} "
                                 f"digits") from exc
            if column.shape != (n,):
                raise TraceError(f"column {name} must be 1-D, one entry per record")
            if name in ("seq", "timestamp_us", "rssi") and (
                (column <= -10**MAX_DIGITS) | (column >= 10**MAX_DIGITS)
            ).any():
                raise TraceError(f"{name} values must have at most {MAX_DIGITS} "
                                 f"digits")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        width = (self.n_bits + 7) // 8
        packed = np.asarray(self.packed, dtype=np.uint8)
        if packed.size == 0:
            packed = np.zeros((0, width), dtype=np.uint8)
        if packed.ndim != 2 or packed.shape[1] != width:
            raise TraceError(f"payload matrix must have {width} bytes per row "
                             f"for {self.n_bits} bits")
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)
        if (self.seq < UNKNOWN_SEQ).any():
            raise TraceError("sequence numbers must not be negative")
        if (self.rssi[~self.has_rssi] != 0).any():
            raise TraceError("rssi must be 0 where it is absent")
        if not ((self.row >= -1) & (self.row < len(packed))).all():
            raise TraceError("payload row outside the payload matrix")
        if ((self.row >= 0) != (self.status != PHY)).any():
            raise TraceError("PHY-error frames and only they carry no payload")
        if self.n_bits % 8 and (packed[:, -1] & (0xFF >> self.n_bits % 8)).any():
            raise TraceError("nonzero padding bits past the declared bit length")

    @classmethod
    def empty(cls) -> Side:
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, none, none, none, none, np.zeros((0, 0), np.uint8))

    @classmethod
    def from_records(cls, records) -> Side:
        """Columns of FrameRecords, which must share one payload length."""
        records = list(records)
        held = [rec for rec in records if rec.packed is not None]
        for rec in records:
            if rec.seq is not None and rec.seq < 0:
                raise TraceError(f"seq {rec.seq} is negative")
        n_bits = held[0].n_bits if held else 0
        for rec in held:
            if rec.n_bits != n_bits:
                raise TraceError(f"seq {rec.seq}: payload length {rec.n_bits} "
                                 f"!= {n_bits} of the side's first payload")
        row = np.cumsum([rec.packed is not None for rec in records], dtype=np.int64) - 1
        return cls(
            seq=[UNKNOWN_SEQ if rec.seq is None else rec.seq for rec in records],
            timestamp_us=[rec.timestamp_us for rec in records],
            status=[STATUSES.index(rec.status) for rec in records],
            rssi=[0 if rec.rssi is None else rec.rssi for rec in records],
            has_rssi=[rec.rssi is not None for rec in records],
            row=np.where([rec.packed is not None for rec in records], row, -1),
            packed=np.array([rec.packed for rec in held], dtype=np.uint8),
            n_bits=n_bits,
        )

    def payloads(self, index) -> np.ndarray:
        """Packed payload rows of the records at index (none may be PHY errors)."""
        return self.packed[self.row[index]]

    def __len__(self) -> int:
        return self.seq.size

    def __getitem__(self, index):
        """The record at an index as a FrameRecord; a slice gives a list."""
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        seq, row = int(self.seq[i]), int(self.row[i])
        return FrameRecord(
            None if seq == UNKNOWN_SEQ else seq,
            int(self.timestamp_us[i]),
            STATUSES[self.status[i]],
            rssi=int(self.rssi[i]) if self.has_rssi[i] else None,
            packed=None if row < 0 else self.packed[row],
            n_bits=self.n_bits if row >= 0 else 0,
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Side):
            return NotImplemented
        if len(self) != len(other) or not all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _COLUMNS if name != "row"
        ):
            return False
        held = self.row >= 0
        if not np.array_equal(held, other.row >= 0):
            return False
        if not held.any():
            return True
        return self.n_bits == other.n_bits and np.array_equal(
            self.payloads(held), other.payloads(held))


def _seq_text(seq) -> str:
    """A seq column entry as the record messages spell it."""
    return "None" if seq == UNKNOWN_SEQ else str(int(seq))


@dataclass(frozen=True)
class TraceMeta:
    rate_bps: float
    frame_len: int
    interval_us: int
    description: str = ""


@dataclass
class Trace:
    """The tx and rx sides of a trace sharing one metadata block."""

    meta: TraceMeta
    tx: Side = field(default_factory=Side.empty)
    rx: Side = field(default_factory=Side.empty)

    @classmethod
    def from_records(cls, meta: TraceMeta, tx=(), rx=()) -> Trace:
        """A trace built from FrameRecords, for hand-made traces."""
        return cls(meta, Side.from_records(tx), Side.from_records(rx))

    def validate(self) -> None:
        """Check the trace invariants; raise TraceError on violation."""
        self._validate_sides()
        self.validate_pairing()

    def _validate_sides(self) -> None:
        """Invariants of the tx and rx records taken one side at a time.

        Where several records break them, the one reported is the first
        of the first check to fail, in the order the checks are listed.
        """
        tx, rx = self.tx, self.rx
        bad = np.flatnonzero(tx.seq != np.arange(len(tx)))
        if bad.size:
            i = int(bad[0])
            raise TraceError(
                f"tx sequence numbers must be consecutive from 0; "
                f"record {i} has seq {_seq_text(tx.seq[i])}", ("tx", i)
            )
        bad = np.flatnonzero(tx.row < 0)
        if bad.size:
            i = int(bad[0])
            raise TraceError(f"tx seq {i} carries no payload", ("tx", i))
        for side_name, side in (("tx", tx), ("rx", rx)):
            # per record, payload length before timestamp order
            faults = []
            held = np.flatnonzero(side.row >= 0)
            if held.size and side.n_bits != self.meta.frame_len:
                i = int(held[0])
                faults.append((i, 0, f"{side_name} seq {_seq_text(side.seq[i])}: "
                                     f"payload length {side.n_bits} != frame_len "
                                     f"{self.meta.frame_len}"))
            ts = side.timestamp_us
            back = np.flatnonzero(ts[1:] < ts[:-1])
            if back.size:
                i = int(back[0]) + 1
                faults.append((i, 1, f"{side_name} timestamps must be non-decreasing "
                                     f"(saw {ts[i]} after {ts[i - 1]})"))
            if faults:
                i, _, message = min(faults)
                raise TraceError(message, (side_name, i))
        known = np.flatnonzero(rx.seq != UNKNOWN_SEQ)
        seqs = rx.seq[known]
        bad = np.flatnonzero(seqs[1:] <= seqs[:-1])
        if bad.size:
            j = int(bad[0]) + 1
            seq, prev, i = int(seqs[j]), int(seqs[j - 1]), int(known[j])
            if seq == prev:
                raise TraceError(f"rx seq {seq} appears more than once", ("rx", i))
            raise TraceError(
                f"known rx seqs must increase in trace order "
                f"(saw {seq} after {prev})", ("rx", i)
            )

    def validate_pairing(self) -> None:
        """Check that every rx record can belong to a tx record.

        These are the only invariants that involve both sides, so a trace
        merged from two separately validated sides needs just this check.
        """
        n_tx, n_rx = len(self.tx), len(self.rx)
        if n_tx and n_rx:
            if n_rx > n_tx:
                raise TraceError("more rx records than tx records", ("rx", n_tx))
            seq = self.rx.seq
            bad = np.flatnonzero(seq >= n_tx)
            if bad.size:
                i = int(bad[0])
                raise TraceError(
                    f"rx seq {seq[i]} has no matching tx record", ("rx", i)
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.meta == other.meta and self.tx == other.tx and self.rx == other.rx

