"""Frame and trace data model.

A trace is an ordered collection of frame records, split into a transmit
side and a receive side, plus the metadata (PHY rate, payload length,
inter-packet interval) every analysis needs.  Payloads are stored packed,
big-endian as in the trace file: ceil(n_bits/8) read-only bytes per record
with zero pad bits, so the analyses XOR and count bytes.  They are frozen
after construction so records can be shared freely across threads.
"""

from __future__ import annotations

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


class ReceiveStatus(Enum):
    """How a frame arrived: demodulation failure, failed CRC, or clean."""

    PHY_ERROR = "phy"
    CRC_ERROR = "crc"
    OK = "ok"


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
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.rate_bps <= 0:
            raise ValueError(f"rate_bps={self.rate_bps} must be positive")
        if self.frame_len <= 0:
            raise ValueError(f"frame_len={self.frame_len} must be positive")
        if self.interval_us <= 0:
            raise ValueError(f"interval_us={self.interval_us} must be positive")


@dataclass(frozen=True, eq=False, init=False, slots=True)
class FrameRecord:
    """One transmitted or received frame.

    seq is None while the sequence number is unknown (corrupted frames
    before recovery).  PHY-error frames carry no payload.  rssi is optional
    because some hardware cannot report it for every reception.

    The payload is given as a 0/1 bit vector, which is checked and packed,
    or as packed bytes with their bit count.  packed is read-only and may
    be a row of a larger matrix (one per trace file), so records may share
    payload memory; payload unpacks it on every read.
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

    @classmethod
    def _from_row(
        cls,
        seq: int | None,
        timestamp_us: int,
        status: ReceiveStatus,
        packed: np.ndarray | None,
        n_bits: int,
        rssi: int | None = None,
    ) -> FrameRecord:
        """Unchecked record for the package's own writers.

        packed must be None or a read-only uint8 row of n_bits bits with
        zero pad bits, and present exactly when status is not PHY_ERROR.
        """
        rec = object.__new__(cls)
        _set_seq(rec, seq)
        _set_timestamp_us(rec, timestamp_us)
        _set_status(rec, status)
        _set_packed(rec, packed)
        _set_n_bits(rec, n_bits)
        _set_rssi(rec, rssi)
        return rec

    @staticmethod
    def _fill_rows(records: list[FrameRecord], packed: np.ndarray) -> None:
        """Give records made by _from_row with packed None the rows of packed."""
        for rec, row in zip(records, packed):
            _set_packed(rec, row)

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


# The slots' own setters, for _from_row: a frozen record refuses setattr,
# and object.__setattr__ looks each name up first, at twice the cost.
(_set_seq, _set_timestamp_us, _set_status, _set_packed, _set_n_bits,
 _set_rssi) = (FrameRecord.__dict__[name].__set__ for name in FrameRecord.__slots__)


@dataclass(frozen=True)
class TraceMeta:
    rate_bps: float
    frame_len: int
    interval_us: int
    description: str = ""


@dataclass
class Trace:
    """Ordered tx and rx frame records sharing one metadata block."""

    meta: TraceMeta
    tx: list[FrameRecord] = field(default_factory=list)
    rx: list[FrameRecord] = field(default_factory=list)

    def validate(self) -> None:
        """Check the trace invariants; raise TraceError on violation."""
        self._validate_sides()
        self.validate_pairing()

    def _validate_sides(self) -> None:
        """Invariants of the tx and rx records taken one side at a time."""
        for i, rec in enumerate(self.tx):
            if rec.seq != i:
                raise TraceError(
                    f"tx sequence numbers must be consecutive from 0; "
                    f"record {i} has seq {rec.seq}", ("tx", i)
                )
        for side_name, side in (("tx", self.tx), ("rx", self.rx)):
            prev = None
            for i, rec in enumerate(side):
                if rec.packed is not None and rec.n_bits != self.meta.frame_len:
                    raise TraceError(
                        f"{side_name} seq {rec.seq}: payload length "
                        f"{rec.n_bits} != frame_len {self.meta.frame_len}",
                        (side_name, i),
                    )
                if prev is not None and rec.timestamp_us < prev:
                    raise TraceError(
                        f"{side_name} timestamps must be non-decreasing "
                        f"(saw {rec.timestamp_us} after {prev})", (side_name, i)
                    )
                prev = rec.timestamp_us
        prev_seq = None
        for i, rec in enumerate(self.rx):
            if rec.seq is None:
                continue
            if prev_seq is not None and rec.seq <= prev_seq:
                if rec.seq == prev_seq:
                    raise TraceError(
                        f"rx seq {rec.seq} appears more than once", ("rx", i)
                    )
                raise TraceError(
                    f"known rx seqs must increase in trace order "
                    f"(saw {rec.seq} after {prev_seq})", ("rx", i)
                )
            prev_seq = rec.seq

    def validate_pairing(self) -> None:
        """Check that every rx record can belong to a tx record.

        These are the only invariants that involve both sides, so a trace
        merged from two separately validated sides needs just this check.
        """
        if self.tx and self.rx:
            n_tx = len(self.tx)
            if len(self.rx) > n_tx:
                raise TraceError("more rx records than tx records", ("rx", n_tx))
            for i, rec in enumerate(self.rx):
                if rec.seq is not None and not 0 <= rec.seq < n_tx:
                    raise TraceError(
                        f"rx seq {rec.seq} has no matching tx record", ("rx", i)
                    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.meta == other.meta and self.tx == other.tx and self.rx == other.rx


def xor_error_vector(tx_payload: np.ndarray, rx_payload: np.ndarray) -> np.ndarray:
    """Bitwise difference of two payloads: 1 where the received bit is wrong.

    Raises TraceError on length mismatch (a malformed trace pairing).
    """
    tx_payload = np.asarray(tx_payload, dtype=np.uint8)
    rx_payload = np.asarray(rx_payload, dtype=np.uint8)
    if tx_payload.shape != rx_payload.shape:
        raise TraceError(
            f"payload length mismatch: {tx_payload.size} vs {rx_payload.size}"
        )
    return np.bitwise_xor(tx_payload, rx_payload)
