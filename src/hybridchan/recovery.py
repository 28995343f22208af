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
through in two passes.  The first takes them as arrays, a block at a
time, one row per frame: its window of anchors, its clock fit and its
candidates, from the timestamps alone.  The second scores every (frame,
candidate) pair from the tx payloads, given a block of tx records at a
time in trace order (the CLI reads them from the tx file again,
traceio.payload_blocks): a pair is scored as the block holding its
candidate passes, so no more than a block of tx payloads is held.  Each
frame's best candidate is then chosen over its whole row of distances.
Every block's largest temporaries stay within trace.BLOCK_BYTES.  Each
frame costs a few bisections and work proportional to the window and
candidate counts, O(log N) in the trace length.  "Nearest" always means
smallest absolute time difference, with ties going to the earlier time
(for equal times, to the earlier record).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .trace import CRC, OK, UNKNOWN_SEQ, Side, Trace, row_blocks

WINDOW_SIZE = 50
MAX_CANDIDATES = 5
MATCH_THRESHOLD = 0.4


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


def recover_trace(trace: Trace, scrub: bool = False,
                  tx_blocks=None) -> tuple[Trace, RecoverySummary]:
    """Recover sequence numbers across a whole rx side.

    Normally only corrupted frames with unknown seq are attempted.  With
    scrub=True every corrupted frame is re-identified as if its seq were
    unknown, and the stored values serve as ground truth for the accuracy
    figure.  A frame stays unresolved (seq unknown) when no candidate is
    close enough, or when fewer than two anchors or a degenerate clock fit
    leave no predicted transmit time.  Returns a trace holding the rx side
    with the new seqs.

    trace.rx must hold the payloads of the attempted frames.  tx_blocks
    gives the tx payloads as pairs (first, rows): rows[i] is the packed
    payload of tx record first + i (traceio.payload_blocks gives them in
    order); they must hold every candidate's.  It is read to its end,
    whether or not a frame has candidates.  None takes them from trace.tx,
    as one block, where a frame has any.
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
    # fewer than two anchors fit no clock, so nothing is resolved
    fitted = attempted if anchor_rx.size > 1 else attempted[:0]
    # The candidates of each fitted frame, from the timestamps alone: a
    # frame's largest temporaries are a row of the window matrix.
    parts = []
    for rows in row_blocks(fitted.size, 8 * (WINDOW_SIZE + 1)):
        frames = fitted[rows]
        rx_time = rx.timestamp_us[frames]
        window = _nearest(anchor_rx, rx_time.astype(np.float64), WINDOW_SIZE)
        rate, offset, ok = _ols(anchor_tx[window], anchor_rx[window])
        predicted = (rx_time[ok] - offset[ok]) / rate[ok]
        near = _nearest(tx_times, predicted, MAX_CANDIDATES)
        parts.append((frames[ok], tx_order[near],
                      np.abs(tx_times[near] - predicted[:, None])))
    frames, cand, dt = (np.concatenate(part) for part in zip(*parts)) if parts else (
        fitted, np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0)))
    if tx_blocks is None:
        tx_blocks = [(0, tx.payloads(slice(None)))] if cand.size else []
    dist = _distances(rx, frames, cand, tx_blocks)
    if cand.size:
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


def _distances(rx: Side, frames: np.ndarray, cand: np.ndarray, tx_blocks) -> np.ndarray:
    """The Hamming distance between the payload of each rx record in frames
    and that of each of its candidate tx records, a row of cand per frame.

    The pairs are scored as the block holding their candidate passes, in
    sub-blocks of trace.BLOCK_BYTES (row_blocks); tx_blocks is as for
    recover_trace, and is read to its end.
    """
    dist = np.full(cand.size, -1, dtype=np.int64)
    # an int32 sum of the bit counts is twice as fast as numpy's default
    # int64 one, and holds any count of fewer than 2**31 bits
    total = np.int32 if rx.n_bits < 2**31 else np.int64
    # the pairs in the order of their candidates
    pairs = np.argsort(cand, axis=None, kind="stable")
    sorted_cand = cand.reshape(-1)[pairs]
    for first, rows in tx_blocks:
        lo, hi = np.searchsorted(sorted_cand, [first, first + len(rows)])
        if hi == lo:
            continue
        # a pair's temporaries: its two payload rows, their XOR and its counts
        for part in row_blocks(int(hi - lo), 2 * rows.shape[1]):
            pair = pairs[lo + part.start:lo + part.stop]
            dist[pair] = np.bitwise_count(
                rows[sorted_cand[lo + part.start:lo + part.stop] - first]
                ^ rx.payloads(frames[pair // cand.shape[1]])).sum(axis=1, dtype=total)
    if (dist < 0).any():
        raise ValueError("the tx blocks must hold every candidate's record")
    return dist.reshape(cand.shape)
