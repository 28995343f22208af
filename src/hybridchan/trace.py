"""Frame and trace data model.

A trace is an ordered collection of frame records, split into a transmit
side and a receive side, plus the metadata (PHY rate, payload length,
inter-packet interval) every analysis needs.  Payloads are numpy bit
vectors (dtype uint8, values 0/1) and are frozen after construction so
records can be shared freely across threads.
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


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """One transmitted or received frame.

    seq is None while the sequence number is unknown (corrupted frames
    before recovery).  PHY-error frames carry no payload.  rssi is optional
    because some hardware cannot report it for every reception.

    The record takes ownership of the payload array and freezes it
    (read-only); records may therefore share payload memory, e.g. a clean
    reception aliasing its transmit record's bits.
    """

    seq: int | None
    timestamp_us: int
    status: ReceiveStatus
    payload: np.ndarray | None = None
    rssi: int | None = None

    def __post_init__(self) -> None:
        if self.status is ReceiveStatus.PHY_ERROR:
            if self.payload is not None:
                raise TraceError("PHY-error frame must not carry a payload")
        elif self.payload is None:
            raise TraceError(f"{self.status.value} frame must carry a payload")
        if self.payload is not None:
            pl = np.ascontiguousarray(self.payload, dtype=np.uint8)
            if pl.ndim != 1:
                raise TraceError("payload must be a 1-D bit vector")
            if pl.size and pl.max() > 1:
                raise TraceError("payload bits must be 0 or 1")
            pl.setflags(write=False)
            object.__setattr__(self, "payload", pl)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameRecord):
            return NotImplemented
        if (self.seq, self.timestamp_us, self.status, self.rssi) != (
            other.seq,
            other.timestamp_us,
            other.status,
            other.rssi,
        ):
            return False
        if self.payload is None or other.payload is None:
            return self.payload is other.payload
        return bool(np.array_equal(self.payload, other.payload))


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
                if rec.payload is not None and rec.payload.size != self.meta.frame_len:
                    raise TraceError(
                        f"{side_name} seq {rec.seq}: payload length "
                        f"{rec.payload.size} != frame_len {self.meta.frame_len}",
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


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit vector into lowercase hex, bit 0 = MSB of the first digit."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="big").tobytes().hex()


def hex_to_bits(text: str, n_bits: int) -> np.ndarray:
    """Unpack lowercase hex into n_bits bits; pad bits past n_bits must be 0."""
    n_bytes = (n_bits + 7) // 8
    if len(text) != 2 * n_bytes:
        raise ValueError(
            f"payload hex has {len(text)} digits, expected {2 * n_bytes} "
            f"for {n_bits} bits"
        )
    packed = bytes.fromhex(text)
    # fromhex also takes uppercase digits and skips whitespace; the format
    # allows neither, and only the canonical spelling re-encodes to itself.
    if packed.hex() != text:
        raise ValueError("payload must be lowercase hex digits")
    raw = np.frombuffer(packed, dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="big")
    if bits[n_bits:].any():
        raise ValueError("nonzero padding bits past the declared bit length")
    return bits[:n_bits]
