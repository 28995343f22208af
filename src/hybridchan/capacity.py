"""Channel parameter estimation and capacity.

The hybrid channel carries

    C = R * (1 - r) * (s + (1 - s) * (1 - H(p)))

bits per second, against R * (1 - r) * s for the plain erasure channel
that discards corrupted frames; the difference is the information left in
corrupted frames, R * (1 - r) * (1 - s) * (1 - H(p)).  Parameters are
estimated as plain frequencies with binomial standard errors, optionally
binned by RSSI.  PHY-error frames report no RSSI on common hardware, so
per-bin figures exclude erasures and set r = 0 inside each bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, sqrt

import numpy as np

from .trace import CRC, OK, PHY, UNKNOWN_SEQ, Trace, TraceError, UsageError

# Bytes of gathered payload rows per block, as recovery._BLOCK_BYTES.
_BLOCK_BYTES = 1 << 18


def binary_entropy(p: float) -> float:
    """H(p) in bits, with the limit convention H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return min(1.0, -p * log2(p) - (1.0 - p) * log2(1.0 - p))


def hybrid_capacity(
    rate_bps: float, r: float, s: float, p: float
) -> float:
    """Capacity of the three-state frame channel in bits/second."""
    return rate_bps * (1.0 - r) * (s + (1.0 - s) * (1.0 - binary_entropy(p)))


def erasure_capacity(rate_bps: float, r: float, s: float) -> float:
    """Capacity when corrupted frames are discarded."""
    return rate_bps * (1.0 - r) * s


@dataclass(frozen=True)
class ParamEstimate:
    """Frequency estimates of (r, s, p) with binomial standard errors.

    Estimates whose denominator is empty are None: p_hat needs corrupted
    frames, s_hat needs non-erased frames.
    """

    n_frames: int
    n_phy: int
    n_ok: int
    n_corrupted: int
    r_hat: float
    r_se: float
    s_hat: float | None
    s_se: float | None
    p_hat: float | None
    p_se: float | None
    fer_hat: float


def _binomial_se(p: float, n: int) -> float:
    return sqrt(p * (1.0 - p) / n)


def _flip_counts(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """(flipped bits, bits) per rx frame; 0 and 0 unless corrupted with a seq.

    The tx and rx rows of the frames are gathered a block at a time, at
    most _BLOCK_BYTES of them.
    """
    tx, rx = trace.tx, trace.rx
    picked = np.flatnonzero((rx.status == CRC) & (rx.seq != UNKNOWN_SEQ))
    flips = np.zeros(len(rx), dtype=np.int64)
    bits = np.zeros(len(rx), dtype=np.int64)
    if picked.size:
        if tx.n_bits != rx.n_bits:
            raise TraceError(f"payload length mismatch: {tx.n_bits} vs {rx.n_bits}")
        step = max(1, _BLOCK_BYTES // (2 * rx.packed.shape[1]))
        for lo in range(0, picked.size, step):
            frames = picked[lo:lo + step]
            diff = tx.payloads(rx.seq[frames]) ^ rx.payloads(frames)
            flips[frames] = np.bitwise_count(diff).sum(axis=1)
        bits[picked] = rx.n_bits
    return flips, bits


def estimate_params(trace: Trace) -> ParamEstimate:
    """Estimate the hybrid channel parameters from a trace."""
    return _estimate(trace, *_flip_counts(trace))


def _estimate(trace: Trace, flips: np.ndarray, bits: np.ndarray) -> ParamEstimate:
    n = len(trace.rx)
    if not n:
        raise ValueError("rx trace is empty")
    counts = np.bincount(trace.rx.status, minlength=3)
    n_phy, n_ok = int(counts[PHY]), int(counts[OK])
    n_crc = n - n_phy - n_ok
    r_hat = n_phy / n
    s_hat = s_se = None
    if n_ok + n_crc > 0:
        s_hat = n_ok / (n_ok + n_crc)
        s_se = _binomial_se(s_hat, n_ok + n_crc)
    p_hat = p_se = None
    n_flips, n_bits = int(flips.sum()), int(bits.sum())
    if n_bits > 0:
        p_hat = n_flips / n_bits
        p_se = _binomial_se(p_hat, n_bits)
    return ParamEstimate(
        n_frames=n,
        n_phy=n_phy,
        n_ok=n_ok,
        n_corrupted=n_crc,
        r_hat=r_hat,
        r_se=_binomial_se(r_hat, n),
        s_hat=s_hat,
        s_se=s_se,
        p_hat=p_hat,
        p_se=p_se,
        fer_hat=(n_phy + n_crc) / n,
    )


@dataclass(frozen=True)
class RssiBin:
    rssi: int
    n_frames: int
    fer: float
    s_hat: float
    p_hat: float | None
    hybrid_bps: float
    erasure_bps: float
    gain: float | None


@dataclass
class CapacityReport:
    params: ParamEstimate
    hybrid_bps: float
    erasure_bps: float
    gain: float | None
    per_rssi_bins: list[RssiBin]


def _capacities(
    rate_bps: float, r: float, s: float, p: float | None
) -> tuple[float, float, float | None]:
    hybrid = hybrid_capacity(rate_bps, r, s, p if p is not None else 0.0)
    erasure = erasure_capacity(rate_bps, r, s)
    gain = hybrid / erasure - 1.0 if erasure > 0.0 else None
    return hybrid, erasure, gain


def capacity_report(trace: Trace, rssi_bin_width: int = 1) -> CapacityReport:
    """Global and per-RSSI-bin capacity estimates for a trace.

    Bins cover non-erased frames only (r = 0 within a bin); a bin with no
    frames is simply absent.  Corrupted frames that drew no bit flips
    leave p_hat at its pooled value over whatever flips were seen.
    """
    if rssi_bin_width <= 0:
        raise UsageError(f"rssi_bin_width={rssi_bin_width} must be positive")
    flips, bits = _flip_counts(trace)
    est = _estimate(trace, flips, bits)
    rate = trace.meta.rate_bps
    s_global = est.s_hat if est.s_hat is not None else 1.0
    hybrid, erasure, gain = _capacities(rate, est.r_hat, s_global, est.p_hat)

    rx = trace.rx
    members = np.flatnonzero((rx.status != PHY) & rx.has_rssi)
    # |rssi| < 10**18, so any wider width has the int64 maximum's quotients.
    quotients, of_bin = np.unique(
        rx.rssi[members] // min(rssi_bin_width, np.iinfo(np.int64).max),
        return_inverse=True)
    columns = [np.bincount(of_bin, weights, minlength=quotients.size).astype(np.int64)
               for weights in (None, rx.status[members] == OK, flips[members],
                               bits[members])]
    bins = []
    for quotient, n, n_ok, bin_flips, bin_bits in zip(
        quotients.tolist(), *(column.tolist() for column in columns)
    ):
        s_hat = n_ok / n
        p_hat = bin_flips / bin_bits if bin_bits else None
        b_hybrid, b_erasure, b_gain = _capacities(rate, 0.0, s_hat, p_hat)
        bins.append(
            RssiBin(
                rssi=quotient * rssi_bin_width,
                n_frames=n,
                fer=1.0 - s_hat,
                s_hat=s_hat,
                p_hat=p_hat,
                hybrid_bps=b_hybrid,
                erasure_bps=b_erasure,
                gain=b_gain,
            )
        )
    return CapacityReport(
        params=est,
        hybrid_bps=hybrid,
        erasure_bps=erasure,
        gain=gain,
        per_rssi_bins=bins,
    )
