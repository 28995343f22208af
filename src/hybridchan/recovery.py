"""Sequence-number recovery for corrupted frames.

A corrupted frame's header (and with it the sequence number) may itself be
damaged, but the frame can still be matched to its transmit record: fit an
affine clock model (rate and offset) to the timestamps of the WINDOW_SIZE
nearest error-free receptions, map the corrupted frame's receive time to a
predicted transmit time, and compare the payload against the
MAX_CANDIDATES transmit frames closest to that prediction.  The true frame
disagrees on roughly a fraction p of bits while every other candidate
disagrees on about half, so a normalised Hamming-distance threshold
(MATCH_THRESHOLD) between the two is decisive.  The distance is the
popcount of the XOR of the two packed payloads.  Distance ties go to the
candidate closest to the predicted time, then to the lower seq.

The timestamps are indexed once per trace, from its columns: the anchors
(error-free receptions with a known seq) sorted by receive time and the
transmit records sorted by transmit time.  Each corrupted frame then costs a few
bisections and work proportional to the window and candidate counts,
O(log N) in the trace length.  "Nearest" always means smallest absolute
time difference, with ties going to the earlier time (for equal times,
to the earlier record).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .trace import CRC, OK, UNKNOWN_SEQ, Trace

WINDOW_SIZE = 50
MAX_CANDIDATES = 5
MATCH_THRESHOLD = 0.4


def _nearest(sorted_times: np.ndarray, centre: float, k: int) -> np.ndarray:
    """Indices of the k entries of sorted_times nearest centre, ascending.

    Selects exactly what a stable argsort of |sorted_times - centre| over
    the whole array would keep in its first k (k >= 1), ties going to the
    lower index, but only sorts the at most 2k entries around centre's
    insertion point.
    """
    n = sorted_times.size
    if k >= n:
        return np.arange(n)
    pos = int(np.searchsorted(sorted_times, centre))
    lo, hi = max(pos - k, 0), min(pos + k, n)
    # entries equal to the slice's first one tie with it and win on index
    lo = int(np.searchsorted(sorted_times, sorted_times[lo]))
    part = sorted_times[lo:hi]
    picked = np.argsort(np.abs(part - centre), kind="stable")[:k]
    return np.sort(picked) + lo


def _ols(tx_t: np.ndarray, rx_t: np.ndarray) -> tuple[float, float] | None:
    """(rate, offset) of the least-squares line rx_t = rate * tx_t + offset.

    None when the fit is degenerate: every tx time equal, or a rate that is
    not positive.
    """
    dx = tx_t - tx_t.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        return None
    rate = float(np.dot(dx, rx_t - rx_t.mean())) / sxx
    if rate <= 0.0:
        return None
    return rate, float(rx_t.mean() - rate * tx_t.mean())


@dataclass
class RecoverySummary:
    n_corrupted: int
    n_attempted: int
    n_recovered: int
    n_unresolved: int
    n_correct: int | None = None

    @property
    def accuracy(self) -> float | None:
        if self.n_correct is None or self.n_attempted == 0:
            return None
        return self.n_correct / self.n_attempted


def recover_trace(trace: Trace, scrub: bool = False) -> tuple[Trace, RecoverySummary]:
    """Recover sequence numbers across a whole rx side.

    Normally only corrupted frames with unknown seq are attempted.  With
    scrub=True every corrupted frame is re-identified as if its seq were
    unknown, and the stored values serve as ground truth for the accuracy
    figure.  A frame stays unresolved (seq unknown) when no candidate is
    close enough, or when fewer than two anchors or a degenerate clock fit
    leave no predicted transmit time.  Returns a trace holding the rx side
    with the new seqs.
    """
    tx, rx = trace.tx, trace.rx
    anchors = np.flatnonzero((rx.status == OK) & (rx.seq != UNKNOWN_SEQ))
    anchor_rx = rx.timestamp_us[anchors]
    order = np.argsort(anchor_rx, kind="stable")
    anchor_rx = anchor_rx[order].astype(np.float64)
    anchor_tx = tx.timestamp_us[rx.seq[anchors[order]]].astype(np.float64)
    tx_order = np.argsort(tx.timestamp_us, kind="stable")
    tx_times = tx.timestamp_us[tx_order].astype(np.float64)

    def identify(rx_time: int, payload: np.ndarray) -> int | None:
        """Best tx seq for a corrupted frame's receive time and packed payload."""
        if anchor_rx.size < 2:
            return None
        window = _nearest(anchor_rx, float(rx_time), WINDOW_SIZE)
        fit = _ols(anchor_tx[window], anchor_rx[window])
        if fit is None:
            return None
        rate, offset = fit
        predicted_tx_us = (rx_time - offset) / rate
        near = _nearest(tx_times, predicted_tx_us, MAX_CANDIDATES)
        candidates = tx_order[near]
        dists = np.bitwise_count(tx.payloads(candidates) ^ payload).sum(axis=1)
        best_dist, _, best_seq = min(zip(
            dists.tolist(),
            np.abs(tx_times[near] - predicted_tx_us).tolist(),
            tx.seq[candidates].tolist(),
        ))
        if best_dist / trace.meta.frame_len < MATCH_THRESHOLD:
            return best_seq
        return None

    corrupted = rx.status == CRC
    attempted = np.flatnonzero(corrupted if scrub else
                               corrupted & (rx.seq == UNKNOWN_SEQ))
    summary = RecoverySummary(int(corrupted.sum()), attempted.size, 0, 0,
                              n_correct=0 if scrub else None)
    seq = rx.seq.copy()
    for i, rx_time, truth in zip(attempted.tolist(),
                                 rx.timestamp_us[attempted].tolist(),
                                 rx.seq[attempted].tolist()):
        # the header seq is unknown, or ignored when scrubbing
        recovered = identify(rx_time, rx.payloads(i))
        if recovered is None:
            summary.n_unresolved += 1
            seq[i] = UNKNOWN_SEQ
        else:
            summary.n_recovered += 1
            if scrub and recovered == truth:
                summary.n_correct += 1
            seq[i] = recovered
    return Trace(meta=trace.meta, rx=replace(rx, seq=seq)), summary
