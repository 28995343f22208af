"""Reference error-vector pipeline for checking hybridchan.stats.

Each function rebuilds every corrupted frame's full error vector (whitened
when given a key) and computes its statistic from the bits, the way the
package did before it kept only per-frame counts.  Tests compare the
ErrorTable reductions against these.
"""

import numpy as np

from hybridchan import ReceiveStatus, Segment, whiten_error_vector
from hybridchan.runstest import runs_test

from conftest import rows


def corrupted_error_vectors(tx, rx, key=None):
    """(seq, error vector) for every corrupted rx frame with a known seq."""
    pairs = []
    tx_recs = rows(tx.tx)
    for rec in rows(rx.rx):
        if rec.status is not ReceiveStatus.CRC_ERROR or rec.seq is None:
            continue
        ev = np.bitwise_xor(tx_recs[rec.seq].payload, rec.payload)
        if key is not None:
            ev = whiten_error_vector(ev, key, rec.seq)
        pairs.append((rec.seq, ev))
    return pairs


def per_frame_results(tx, rx, key=None):
    """(seq, bit errors, crossover, runs test result) per corrupted frame."""
    return [
        (seq, int(np.count_nonzero(ev)), np.count_nonzero(ev) / ev.size,
         runs_test(ev))
        for seq, ev in corrupted_error_vectors(tx, rx, key)
    ]


def segments(tx, rx, key=None):
    """Greedy segmentation that re-tests each concatenation from scratch."""
    out, current = [], []

    def close():
        bits = np.concatenate([ev for _, ev in current])
        start, end = current[0][0], current[-1][0]
        out.append(Segment(
            start_frame=start, end_frame=end, n_frames=end - start + 1,
            n_corrupted=len(current),
            duration_us=(end - start + 1) * tx.meta.interval_us,
            pooled_p=int(bits.sum()) / bits.size))

    for seq, ev in corrupted_error_vectors(tx, rx, key):
        if current and runs_test(
            np.concatenate([e for _, e in current] + [ev])
        ).rejects:
            close()
            current = []
        current.append((seq, ev))
    if current:
        close()
    return out


def bit_profile(tx, rx, key=None):
    pairs = corrupted_error_vectors(tx, rx, key)
    total = np.zeros(tx.meta.frame_len, dtype=np.int64)
    for _, ev in pairs:
        total += ev
    return total / len(pairs)


def symmetry_counts(tx, rx):
    """(tx ones, tx zeros, flips on ones, flips on zeros) over corrupted frames."""
    n1 = n0 = flips1 = flips0 = 0
    tx_recs = rows(tx.tx)
    for seq, ev in corrupted_error_vectors(tx, rx):
        ones = tx_recs[seq].payload.astype(bool)
        n1 += int(np.count_nonzero(ones))
        n0 += int(np.count_nonzero(~ones))
        flips1 += int(np.count_nonzero(ev[ones]))
        flips0 += int(np.count_nonzero(ev[~ones]))
    return n1, n0, flips1, flips0


def outcome_results(rx, segs):
    """Runs test result per (outcome, segment), labels built frame by frame."""
    status_by_seq = {rec.seq: rec.status for rec in rows(rx.rx) if rec.seq is not None}
    return {
        (outcome, i): runs_test(np.fromiter(
            (status_by_seq.get(seq, ReceiveStatus.PHY_ERROR) is outcome
             for seq in range(seg.start_frame, seg.end_frame + 1)),
            dtype=np.uint8, count=seg.n_frames))
        for outcome in ReceiveStatus
        for i, seg in enumerate(segs)
    }
