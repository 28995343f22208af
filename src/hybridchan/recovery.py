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
transmit records sorted by transmit time.  The attempted frames then go
through as arrays, a block at a time, one row per frame: its window of
anchors, its clock fit, its candidates and their distances.  A block's
largest temporaries stay within _BLOCK_BYTES.  Each frame costs a few
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

# Bytes of a block's largest temporaries, as stats._BLOCK_BITS.
_BLOCK_BYTES = 1 << 18


def _nearest(sorted_times: np.ndarray, centres: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k entries of sorted_times nearest each centre: one
    ascending row of min(k, n) indices per centre, exactly the first k of a
    stable argsort of |sorted_times - centre|.

    The k nearest distances are those of a contiguous run [lo, lo + k): lo
    is the first start, from k before the centre's insertion point, whose
    left end is no farther from the centre than the entry past its right
    end.  The sort breaks ties by index, so where lo falls inside a run of
    equal times, the row's part in that run moves to the run's start.
    (Equal distances on one side of a centre come from equal times while
    the times are integers less than 2**52 from it.)
    """
    n = sorted_times.size
    k = min(k, n)
    pos = np.searchsorted(sorted_times, centres)
    padded = np.append(sorted_times, np.inf)
    starts = np.clip(pos[:, None] + np.arange(-k, 1), 0, n - k)
    keep = (np.abs(padded[starts] - centres[:, None])
            <= np.abs(padded[starts + k] - centres[:, None]))
    lo = starts[np.arange(starts.shape[0]), keep.argmax(axis=1)]
    first = np.searchsorted(sorted_times, padded[lo])
    past = np.searchsorted(sorted_times, padded[lo], "right")
    cols = lo[:, None] + np.arange(k)
    return np.where(cols < past[:, None], cols - (lo - first)[:, None], cols)


def _ols(tx_t: np.ndarray, rx_t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rate, offset, ok) of the least-squares line rx_t = rate * tx_t + offset
    through each row.

    ok is False where the fit is degenerate: every tx time of the row equal
    (rate then reads 0), or a rate that is not positive.
    """
    tx_mean, rx_mean = tx_t.mean(axis=1), rx_t.mean(axis=1)
    dx = tx_t - tx_mean[:, None]
    sxx = np.vecdot(dx, dx)
    rate = np.divide(np.vecdot(dx, rx_t - rx_mean[:, None]), sxx,
                     out=np.zeros_like(sxx), where=sxx != 0)
    return rate, rx_mean - rate * tx_mean, rate > 0


@dataclass
class RecoverySummary:
    """Frame counts of one recovery; n_anchors counts the error-free frames
    with a known seq that the clock is fitted to."""

    n_corrupted: int
    n_attempted: int
    n_recovered: int
    n_unresolved: int
    n_anchors: int
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

    corrupted = rx.status == CRC
    attempted = np.flatnonzero(corrupted if scrub else
                               corrupted & (rx.seq == UNKNOWN_SEQ))
    # the header seq is unknown, or ignored when scrubbing
    seq = rx.seq.copy()
    seq[attempted] = UNKNOWN_SEQ
    # a frame's largest temporaries: a row of the window matrix, or the
    # payload rows of its candidates
    step = max(1, _BLOCK_BYTES // max(8 * (WINDOW_SIZE + 1),
                                      MAX_CANDIDATES * tx.packed.shape[1]))
    # fewer than two anchors fit no clock, so nothing is resolved
    fitted = attempted if anchor_rx.size > 1 else attempted[:0]
    for lo in range(0, fitted.size, step):
        frames = fitted[lo:lo + step]
        rx_time = rx.timestamp_us[frames]
        window = _nearest(anchor_rx, rx_time.astype(np.float64), WINDOW_SIZE)
        rate, offset, ok = _ols(anchor_tx[window], anchor_rx[window])
        frames, predicted = frames[ok], (rx_time[ok] - offset[ok]) / rate[ok]
        near = _nearest(tx_times, predicted, MAX_CANDIDATES)
        cand = tx_order[near]
        dist = np.bitwise_count(tx.payloads(cand)
                                ^ rx.payloads(frames)[:, None]).sum(axis=2)
        dt = np.abs(tx_times[near] - predicted[:, None])
        best = np.lexsort((tx.seq[cand], dt, dist))[:, :1]
        hit = (np.take_along_axis(dist, best, 1)[:, 0] / trace.meta.frame_len
               < MATCH_THRESHOLD)
        seq[frames[hit]] = tx.seq[np.take_along_axis(cand, best, 1)[hit, 0]]
    found = seq[attempted]
    resolved = found != UNKNOWN_SEQ
    n_recovered = int(resolved.sum())
    # an unresolved frame whose stored seq is unknown too is not correct
    n_correct = int((found == rx.seq[attempted])[resolved].sum()) if scrub else None
    summary = RecoverySummary(int(corrupted.sum()), attempted.size, n_recovered,
                              attempted.size - n_recovered, anchors.size, n_correct)
    return Trace(meta=trace.meta, rx=replace(rx, seq=seq)), summary
