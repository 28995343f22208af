"""Sequence-number recovery for corrupted frames.

A corrupted frame's header (and with it the sequence number) may itself be
damaged, but the frame can still be matched to its transmit record: fit an
affine clock model (rate and offset) to the timestamps of nearby
error-free receptions, map the corrupted frame's receive time to a
predicted transmit time, and compare the payload against the few transmit
frames closest to that prediction.  The true frame disagrees on roughly a
fraction p of bits while every other candidate disagrees on about half,
so a Hamming-distance threshold between the two is decisive.  The
distance is the popcount of the XOR of the two packed payloads.

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

from .trace import CRC, OK, UNKNOWN_SEQ, FrameRecord, ReceiveStatus, Side, Trace

DEFAULT_WINDOW_SIZE = 50
DEFAULT_MAX_CANDIDATES = 5
DEFAULT_MATCH_THRESHOLD = 0.4

# Header-seq agreement within this bit distance breaks payload-distance ties.
SEQ_TIEBREAK_BITS = 2


@dataclass(frozen=True)
class ClockFit:
    """Least-squares affine fit rx_time = rate * tx_time + offset."""

    rate: float
    offset_us: float
    window: tuple[tuple[int, int], ...]
    residual_rms_us: float


def _nearest(sorted_times: np.ndarray, centre: float, k: int) -> np.ndarray:
    """Indices of the k entries of sorted_times nearest centre, ascending.

    Selects exactly what a stable argsort of |sorted_times - centre| over
    the whole array would keep in its first k (negative k as in slicing),
    ties going to the lower index, but only sorts the at most 2k entries
    around centre's insertion point.
    """
    n = sorted_times.size
    if k < 0:
        k = max(n + k, 0)
    if k >= n:
        return np.arange(n)
    if k == 0:
        return np.arange(0)
    pos = int(np.searchsorted(sorted_times, centre))
    lo, hi = max(pos - k, 0), min(pos + k, n)
    # entries equal to the slice's first one tie with it and win on index
    lo = int(np.searchsorted(sorted_times, sorted_times[lo]))
    part = sorted_times[lo:hi]
    picked = np.argsort(np.abs(part - centre), kind="stable")[:k]
    return np.sort(picked) + lo


def _ols(tx_t: np.ndarray, rx_t: np.ndarray) -> tuple[float, float]:
    """(rate, offset) of the least-squares line rx_t = rate * tx_t + offset."""
    dx = tx_t - tx_t.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise ValueError("anchors share a single tx time; clock fit is degenerate")
    rate = float(np.dot(dx, rx_t - rx_t.mean())) / sxx
    if rate <= 0.0:
        raise ValueError(f"fitted clock rate {rate} is not positive")
    return rate, float(rx_t.mean() - rate * tx_t.mean())


def _anchor_arrays(anchors: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(tx times, rx times) of (tx_time, rx_time) pairs, as float64."""
    tx_t = np.array([a[0] for a in anchors], dtype=np.float64)
    rx_t = np.array([a[1] for a in anchors], dtype=np.float64)
    return tx_t, rx_t


def _window(rx_t: np.ndarray, window_size: int | None, centre: float) -> np.ndarray:
    """Indices of the window_size anchors with rx times nearest centre."""
    if window_size is None:
        return np.arange(rx_t.size)
    return _nearest(rx_t, centre, window_size)


def fit_clock(
    anchors: list[tuple[int, int]],
    window_size: int | None = DEFAULT_WINDOW_SIZE,
    query_rx_time_us: int | None = None,
) -> ClockFit:
    """Ordinary least squares over the window_size anchors nearest a query.

    anchors are (tx_time, rx_time) pairs from error-free frames, in any
    order; the window is returned in receive-time order.  With no query
    time, the window centres on the median receive time.  Requires at
    least two anchors with distinct transmit times.
    """
    if len(anchors) < 2:
        raise ValueError("clock fit needs at least two anchors")
    anchors = sorted(anchors, key=lambda a: a[1])
    tx_t, rx_t = _anchor_arrays(anchors)
    centre = (
        float(np.median(rx_t))
        if query_rx_time_us is None
        else float(query_rx_time_us)
    )
    picked = _window(rx_t, window_size, centre)
    tx_t, rx_t = tx_t[picked], rx_t[picked]
    rate, offset = _ols(tx_t, rx_t)
    residuals = rx_t - (rate * tx_t + offset)
    return ClockFit(
        rate=rate,
        offset_us=offset,
        window=tuple((int(anchors[i][0]), int(anchors[i][1])) for i in picked),
        residual_rms_us=float(np.sqrt(np.mean(residuals**2))),
    )


def _seq_bit_distance(a: int, b: int) -> int:
    return (a ^ b).bit_count()


class _RecoveryIndex:
    """Timestamps of one trace's sides, sorted once for every query."""

    def __init__(self, tx: Side, rx: Side, frame_len: int) -> None:
        self.tx, self.frame_len = tx, frame_len
        anchors = np.flatnonzero((rx.status == OK) & (rx.seq != UNKNOWN_SEQ))
        anchor_rx = rx.timestamp_us[anchors]
        order = np.argsort(anchor_rx, kind="stable")
        self.anchor_rx = anchor_rx[order].astype(np.float64)
        self.anchor_tx = tx.timestamp_us[rx.seq[anchors[order]]].astype(np.float64)
        self.tx_order = np.argsort(tx.timestamp_us, kind="stable")
        self.tx_times = tx.timestamp_us[self.tx_order].astype(np.float64)

    def recover(
        self,
        rx_time: int,
        header_seq: int | None,
        payload: np.ndarray,
        window_size: int | None,
        max_candidates: int,
        match_threshold: float,
    ) -> int | None:
        """Best tx seq for a corrupted frame's receive time and packed payload."""
        if self.anchor_rx.size < 2:
            return None
        picked = _window(self.anchor_rx, window_size, float(rx_time))
        rate, offset = _ols(self.anchor_tx[picked], self.anchor_rx[picked])
        predicted_tx_us = (rx_time - offset) / rate
        candidates = self.tx_order[
            _nearest(self.tx_times, predicted_tx_us, max_candidates)
        ]
        if candidates.size == 0:
            return None
        dists = np.bitwise_count(self.tx.payloads(candidates) ^ payload).sum(axis=1)
        scored = []
        for dist, seq, tx_time in zip(dists.tolist(),
                                      self.tx.seq[candidates].tolist(),
                                      self.tx.timestamp_us[candidates].tolist()):
            seq_close = (
                header_seq is not None
                and _seq_bit_distance(seq, header_seq) <= SEQ_TIEBREAK_BITS
            )
            scored.append((dist, not seq_close, abs(tx_time - predicted_tx_us), seq))
        scored.sort()
        best_dist, _, _, best_seq = scored[0]
        if best_dist / self.frame_len < match_threshold:
            return best_seq
        return None


def recover_sequence(
    corrupted: FrameRecord,
    rx_ok: list[FrameRecord],
    tx: Trace,
    window_size: int = DEFAULT_WINDOW_SIZE,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> int | None:
    """Best-matching tx sequence number for a corrupted frame, or None.

    rx_ok are the receptions that may serve as clock anchors.
    Payload-distance ties prefer a candidate whose seq lies within
    SEQ_TIEBREAK_BITS of the (possibly damaged) header seq, then the
    candidate closest to the predicted transmit time.  To recover many
    frames of one trace, use recover_trace, which indexes it only once.
    """
    if corrupted.status is not ReceiveStatus.CRC_ERROR:
        raise ValueError("only CRC-error frames carry a recoverable payload")
    index = _RecoveryIndex(tx.tx, Side.from_records(rx_ok), tx.meta.frame_len)
    return index.recover(corrupted.timestamp_us, corrupted.seq, corrupted.packed,
                         window_size, max_candidates, match_threshold)


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


def recover_trace(
    trace: Trace,
    window_size: int = DEFAULT_WINDOW_SIZE,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
    scrub: bool = False,
) -> tuple[Trace, RecoverySummary]:
    """Recover sequence numbers across a whole rx side.

    Normally only corrupted frames with unknown seq are attempted.  With
    scrub=True every corrupted frame is re-identified as if its seq were
    unknown, and the stored values serve as ground truth for the accuracy
    figure.  Returns a trace holding the rx side with the new seqs.
    """
    rx = trace.rx
    index = _RecoveryIndex(trace.tx, rx, trace.meta.frame_len)
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
        recovered = index.recover(rx_time, None, rx.payloads(i), window_size,
                                  max_candidates, match_threshold)
        if recovered is None:
            summary.n_unresolved += 1
            seq[i] = UNKNOWN_SEQ
        else:
            summary.n_recovered += 1
            if scrub and recovered == truth:
                summary.n_correct += 1
            seq[i] = recovered
    return Trace(meta=trace.meta, rx=replace(rx, seq=seq)), summary
