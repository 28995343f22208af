"""Reference error-vector pipeline for checking hybridchan.stats.

Each function rebuilds every corrupted frame's full error vector (whitened
when given a key) and computes its statistic from the bits, the way the
package did before it kept only per-frame counts.  Tests compare the
ErrorTable reductions against these.
"""

from collections import namedtuple
from dataclasses import fields

import numpy as np

from hybridchan import ReceiveStatus, Segments, whiten_error_vector
from hybridchan.runstest import FAIL, runs_test

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


def runs_rows(tests):
    """Each test of runs-test columns as a tuple of plain values: n_runs,
    n1, n0, mu, sigma2, z, p and verdict, with None for a NaN."""
    columns = (tests.n_runs, tests.n1, tests.n0, tests.mu, tests.sigma2,
               tests.z, tests.p, tests.verdict)
    return [tuple(None if v != v else v for v in row)
            for row in zip(*(col.tolist() for col in columns))]


# One segment of Segments columns, as plain values.
SegmentRow = namedtuple("SegmentRow", [f.name for f in fields(Segments)])


def segment_rows(segments):
    """Each segment of Segments columns as a SegmentRow of plain values."""
    return [SegmentRow(*row) for row in zip(
        *(getattr(segments, name).tolist() for name in SegmentRow._fields))]


def segment_columns(segment_list):
    """The Segments columns of SegmentRows; segment_rows reads them back."""
    values = list(zip(*segment_list)) or [()] * len(SegmentRow._fields)
    return Segments(*(np.array(column, dtype=np.float64 if name == "pooled_p"
                               else np.int64)
                      for name, column in zip(SegmentRow._fields, values)))


def per_frame_results(tx, rx, key=None):
    """(seq, bit errors, crossover, runs test row) per corrupted frame."""
    return [
        (seq, int(np.count_nonzero(ev)), np.count_nonzero(ev) / ev.size,
         *runs_rows(runs_test(ev)))
        for seq, ev in corrupted_error_vectors(tx, rx, key)
    ]


def segments(tx, rx, key=None):
    """Greedy segmentation that re-tests each concatenation from scratch,
    as SegmentRows."""
    out, current = [], []

    def close():
        bits = np.concatenate([ev for _, ev in current])
        start, end = current[0][0], current[-1][0]
        out.append(SegmentRow(
            start_frame=start, end_frame=end, n_frames=end - start + 1,
            n_corrupted=len(current),
            duration_us=(end - start + 1) * tx.meta.interval_us,
            pooled_p=int(bits.sum()) / bits.size))

    for seq, ev in corrupted_error_vectors(tx, rx, key):
        if current and runs_test(
            np.concatenate([e for _, e in current] + [ev])
        ).verdict[0] == FAIL:
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
    """Runs test result per (outcome, segment index) of Segments columns,
    labels built frame by frame."""
    status_by_seq = {rec.seq: rec.status for rec in rows(rx.rx) if rec.seq is not None}
    return {
        (outcome, i): runs_test(np.fromiter(
            (status_by_seq.get(seq, ReceiveStatus.PHY_ERROR) is outcome
             for seq in range(seg.start_frame, seg.end_frame + 1)),
            dtype=np.uint8, count=seg.n_frames))
        for outcome in ReceiveStatus
        for i, seg in enumerate(segment_rows(segs))
    }
