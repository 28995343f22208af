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

from .trace import ReceiveStatus, Trace, TraceError


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


def _flip_counts(tx: Trace, rx: Trace) -> np.ndarray:
    """(flipped bits, bits) per rx frame; (0, 0) unless corrupted with a seq."""
    counts = np.zeros((len(rx.rx), 2), dtype=np.int64)
    for i, rec in enumerate(rx.rx):
        if rec.status is ReceiveStatus.CRC_ERROR and rec.seq is not None:
            sent = tx.tx[rec.seq]
            if sent.n_bits != rec.n_bits:
                raise TraceError(
                    f"payload length mismatch: {sent.n_bits} vs {rec.n_bits}"
                )
            counts[i] = np.bitwise_count(sent.packed ^ rec.packed).sum(), rec.n_bits
    return counts


def estimate_params(tx: Trace, rx: Trace) -> ParamEstimate:
    """Estimate the hybrid channel parameters from a trace pair."""
    return _estimate(rx, _flip_counts(tx, rx))


def _estimate(rx: Trace, flip_counts: np.ndarray) -> ParamEstimate:
    if not rx.rx:
        raise ValueError("rx trace is empty")
    n = len(rx.rx)
    n_phy = sum(1 for rec in rx.rx if rec.status is ReceiveStatus.PHY_ERROR)
    n_ok = sum(1 for rec in rx.rx if rec.status is ReceiveStatus.OK)
    n_crc = n - n_phy - n_ok
    r_hat = n_phy / n
    s_hat = s_se = None
    if n_ok + n_crc > 0:
        s_hat = n_ok / (n_ok + n_crc)
        s_se = _binomial_se(s_hat, n_ok + n_crc)
    p_hat = p_se = None
    flips, bits = flip_counts.sum(axis=0).tolist()
    if bits > 0:
        p_hat = flips / bits
        p_se = _binomial_se(p_hat, bits)
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


def capacity_report(
    tx: Trace, rx: Trace, rssi_bin_width: int = 1
) -> CapacityReport:
    """Global and per-RSSI-bin capacity estimates for a trace pair.

    Bins cover non-erased frames only (r = 0 within a bin); a bin with no
    frames is simply absent.  Corrupted frames that drew no bit flips
    leave p_hat at its pooled value over whatever flips were seen.
    """
    if rssi_bin_width <= 0:
        raise ValueError("rssi_bin_width must be positive")
    flip_counts = _flip_counts(tx, rx)
    est = _estimate(rx, flip_counts)
    rate = tx.meta.rate_bps
    s_global = est.s_hat if est.s_hat is not None else 1.0
    hybrid, erasure, gain = _capacities(rate, est.r_hat, s_global, est.p_hat)

    grouped: dict[int, list[int]] = {}
    for i, rec in enumerate(rx.rx):
        if rec.status is ReceiveStatus.PHY_ERROR or rec.rssi is None:
            continue
        key = (rec.rssi // rssi_bin_width) * rssi_bin_width
        grouped.setdefault(key, []).append(i)
    bins = []
    for key in sorted(grouped):
        members = grouped[key]
        n_ok = sum(1 for i in members if rx.rx[i].status is ReceiveStatus.OK)
        s_hat = n_ok / len(members)
        flips, bits = flip_counts[members].sum(axis=0).tolist()
        p_hat = flips / bits if bits else None
        b_hybrid, b_erasure, b_gain = _capacities(rate, 0.0, s_hat, p_hat)
        bins.append(
            RssiBin(
                rssi=key,
                n_frames=len(members),
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
