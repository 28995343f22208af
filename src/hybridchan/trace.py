"""Frame and trace data model.

A trace holds a transmit side and a receive side plus the metadata (PHY
rate, payload length, inter-packet interval) every analysis needs.  Each
side is a set of columns with one entry per record, in trace order (Side):
sequence number, timestamp, status code, RSSI with a presence mask, and
the record's row in one packed payload matrix.  Payloads are stored
packed, big-endian as in the trace file: ceil(n_bits/8) bytes per row with
zero pad bits, so the analyses XOR and count bytes.  A side need not hold
every payload: the row of a record whose payload was not loaded is
NOT_LOADED, and that of a PHY error, which has none, is -1.  So a side
read for the corrupted frames alone (traceio.load_pair) holds their rows
and no others, and its columns are whole.  Columns and payloads are
read-only, so sides can be shared freely.  There is no row type: a record
is an index into the columns, and its payload bits are
np.unpackbits(side.payloads(i), count=side.n_bits).
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

# The row column's entry for a record that has a payload the side does not
# hold; a PHY error, which has none, has row -1.
NOT_LOADED = -2

# seq, timestamp and RSSI have at most this many digits, as in a trace
# file, so every value fits an int64 column.
MAX_DIGITS = 18

# The one block budget: every pass over many rows (the simulator's draws,
# the error table, flip counts, recovery's scoring, trace reads and writes)
# takes them a block at a time, each block's temporaries about BLOCK_BYTES.
# Blocks of a few MB raised peak RSS, because freed blocks that large stay
# in the heap; blocks this small go back to the OS.  Every pass gives the
# same result whatever the budget.
BLOCK_BYTES = 1 << 18


def row_blocks(n_rows: int, row_bytes: int):
    """Consecutive slices of range(n_rows), each of at most BLOCK_BYTES at
    row_bytes bytes a row, and at least one row.

    The budget is read at each call, so setting BLOCK_BYTES reaches every
    pass.
    """
    step = max(1, BLOCK_BYTES // row_bytes)
    return (slice(start, min(start + step, n_rows))
            for start in range(0, n_rows, step))


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


_COLUMNS = (("seq", np.int64), ("timestamp_us", np.int64), ("status", np.int8),
            ("rssi", np.int64), ("has_rssi", np.bool_), ("row", np.int64))


@dataclass(frozen=True, eq=False)
class Side:
    """The tx or rx records of a trace as read-only columns, in trace order.

    seq is UNKNOWN_SEQ where the sequence number is unknown, status a code
    (PHY, CRC or OK), rssi is 0 where has_rssi is False.  row is the
    record's row in packed, a uint8 matrix of ceil(n_bits/8) bytes per
    payload, -1 for a PHY error or NOT_LOADED for a payload the side does
    not hold; packed may hold rows no record uses, and n_bits is 0 when no
    record has a payload.
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
        if not ((self.row >= NOT_LOADED) & (self.row < len(packed))).all():
            raise TraceError("payload row outside the payload matrix")
        if ((self.row == -1) != (self.status == PHY)).any():
            raise TraceError("PHY-error frames and only they carry no payload")
        if self.n_bits % 8 and (packed[:, -1] & (0xFF >> self.n_bits % 8)).any():
            raise TraceError("nonzero padding bits past the declared bit length")

    @classmethod
    def empty(cls) -> Side:
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, none, none, none, none, np.zeros((0, 0), np.uint8))

    def corrupted(self) -> np.ndarray:
        """Indices of the corrupted records (is_corrupted): the frames whose
        error vectors the analyses read."""
        return np.flatnonzero(is_corrupted(self.status, self.seq))

    def payloads(self, index) -> np.ndarray:
        """Packed payload rows of the records at index; raises TraceError
        if one of them has no payload or one the side does not hold."""
        row = self.row[index]
        if (row < 0).any():
            missing = int(np.min(row))
            raise TraceError("payload not loaded" if missing == NOT_LOADED
                             else "a PHY-error frame has no payload")
        return self.packed[row]

    def __len__(self) -> int:
        return self.seq.size

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


def is_corrupted(status, seq):
    """Which records are corrupted: CRC errors with a known seq."""
    return (status == CRC) & (seq != UNKNOWN_SEQ)


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
        # Each check is a mask over the records; argmax finds its first fault.
        bad = tx.seq != np.arange(len(tx))
        if bad.any():
            i = int(bad.argmax())
            raise TraceError(
                f"tx sequence numbers must be consecutive from 0; "
                f"record {i} has seq {_seq_text(tx.seq[i])}", ("tx", i)
            )
        bad = tx.status == PHY
        if bad.any():
            i = int(bad.argmax())
            raise TraceError(f"tx seq {i} carries no payload", ("tx", i))
        for side_name, side in (("tx", tx), ("rx", rx)):
            # per record, payload length before timestamp order
            faults = []
            if side.n_bits != self.meta.frame_len:
                with_payload = side.status != PHY
                if with_payload.any():
                    i = int(with_payload.argmax())
                    faults.append((i, 0, f"{side_name} seq {_seq_text(side.seq[i])}: "
                                         f"payload length {side.n_bits} != frame_len "
                                         f"{self.meta.frame_len}"))
            ts = side.timestamp_us
            back = ts[1:] < ts[:-1]
            if back.any():
                i = int(back.argmax()) + 1
                faults.append((i, 1, f"{side_name} timestamps must be non-decreasing "
                                     f"(saw {ts[i]} after {ts[i - 1]})"))
            if faults:
                i, _, message = min(faults)
                raise TraceError(message, (side_name, i))
        known = rx.seq != UNKNOWN_SEQ
        seqs = rx.seq[known]
        bad = seqs[1:] <= seqs[:-1]
        if bad.any():
            j = int(bad.argmax()) + 1
            seq, prev = int(seqs[j]), int(seqs[j - 1])
            i = int(np.flatnonzero(known)[j])  # the record of the j-th known seq
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
            bad = seq >= n_tx
            if bad.any():
                i = int(bad.argmax())
                raise TraceError(
                    f"rx seq {seq[i]} has no matching tx record", ("rx", i)
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.meta == other.meta and self.tx == other.tx and self.rx == other.rx

