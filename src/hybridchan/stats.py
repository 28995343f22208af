"""Per-frame and cross-frame error statistics.

error_table makes one pass over a trace's columns, a block of corrupted
frames at a time: it XORs their packed payloads, popcounts the bytes,
and lists the block's error positions.  Given a key, one call to
interleaver.whiten_positions maps every position of the block to where
whitening moves it, without building any frame's full permutation, and
one sort puts the images back in frame order.  Each frame's runs, first
and last bit follow from its sorted positions, and the bit profile is one
bincount of them; only counts are kept.  There is no per-vector hook: the
per-frame runs tests, the bit profile, symmetry and segments.py are
reductions over the table, and the outcome tests reduce the segments'
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

import numpy as np

from . import interleaver
from .runstest import FAIL, PASS, RunsTests, runs_tests
from .trace import PHY, STATUSES, UNKNOWN_SEQ, ReceiveStatus, Trace

if TYPE_CHECKING:
    from .segments import Segments

SYMMETRY_Z_THRESHOLD = 1.96

# Error bits per block while building an ErrorTable, one byte each once
# unpacked: 32 frames of 8000 bits.  Blocks of a few MB raised peak RSS,
# because freed blocks that large stay in the heap; blocks this small go
# back to the OS.
_BLOCK_BITS = 1 << 18


@dataclass(frozen=True, eq=False)
class ErrorTable:
    """Counts of each corrupted (CRC-error, known seq) rx frame, in trace order.

    Per frame: seq, ones (n1), runs, first and last bit of its error vector,
    whitened if built with a key; column_sums adds the vectors by position.
    tx_ones counts transmitted 1s and flips_on_ones the errors on them.
    """

    frame_len: int
    interval_us: int
    seqs: np.ndarray
    n1: np.ndarray
    runs: np.ndarray
    first: np.ndarray
    last: np.ndarray
    column_sums: np.ndarray
    tx_ones: int
    flips_on_ones: int

    def __len__(self) -> int:
        return self.seqs.size


def _error_positions(ev_bytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit position) of every set bit of packed rows, in row-major order."""
    at = np.flatnonzero(ev_bytes)
    bit = np.flatnonzero(np.unpackbits(ev_bytes.ravel()[at]))
    row, byte = np.divmod(at[bit >> 3], ev_bytes.shape[1])
    return row, 8 * byte + (bit & 7)


def error_table(trace: Trace, key: int | None = None) -> ErrorTable:
    """Build the ErrorTable of a trace; key whitens, None keeps wire order."""
    tx, rx = trace.tx, trace.rx
    frame_len = trace.meta.frame_len
    picked = rx.corrupted()
    seqs = rx.seq[picked]
    n = seqs.size
    n1, runs, first, last = np.empty((4, n), dtype=np.int64)
    column_sums = np.zeros(frame_len, dtype=np.int64)
    tx_ones = flips_on_ones = 0
    step = max(1, _BLOCK_BITS // frame_len)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        block = seqs[rows]
        tx_bytes = tx.payloads(block)
        ev_bytes = tx_bytes ^ rx.payloads(picked[rows])
        tx_ones += int(np.bitwise_count(tx_bytes).sum())
        flips_on_ones += int(np.bitwise_count(ev_bytes & tx_bytes).sum())
        row, pos = _error_positions(ev_bytes)
        if key is not None:
            pos = interleaver.whiten_positions(pos, row, block, key, frame_len)
            row, pos = np.divmod(np.sort(row * frame_len + pos), frame_len)
        # An error starts a block of adjacent ones unless the one before it
        # in its frame sits just before it.  With B blocks, a vector has
        # 2B + 1 runs, less one if it starts with a one and one if it ends
        # with one.
        starts = np.ones(pos.size, dtype=bool)
        starts[1:] = (pos[1:] != pos[:-1] + 1) | (row[1:] != row[:-1])
        n1[rows] = np.bincount(row, minlength=block.size)
        first[rows] = np.bincount(row[pos == 0], minlength=block.size)
        last[rows] = np.bincount(row[pos == frame_len - 1], minlength=block.size)
        runs[rows] = (2 * np.bincount(row[starts], minlength=block.size) + 1
                      - first[rows] - last[rows])
        column_sums += np.bincount(pos, minlength=frame_len)
    return ErrorTable(frame_len, trace.meta.interval_us, seqs, n1, runs, first,
                      last, column_sums, tx_ones, flips_on_ones)


def per_frame_runs_tests(table: ErrorTable) -> RunsTests:
    """Within-frame runs test of every corrupted frame, in trace order.

    An all-zero error vector (corruption confined to headers) is degenerate.
    """
    return runs_tests(table.runs, table.n1, table.frame_len - table.n1)


@dataclass(frozen=True)
class SymmetryReport:
    """Flip rates of transmitted 1s and 0s inside corrupted frames.

    mu_i is the mean flip rate of bit value i, se_i its sample standard
    deviation over sqrt(N_i).  A pooled two-proportion z declares the
    channel symmetric when |z| stays below SYMMETRY_Z_THRESHOLD.  Fields
    are None when a bit value never occurs.
    """

    n1: int
    n0: int
    flips1: int
    flips0: int
    mu1: float | None
    se1: float | None
    mu0: float | None
    se0: float | None
    z: float | None
    symmetric: bool | None


def _rate_and_se(flips: int, n: int) -> tuple[float | None, float | None]:
    if n == 0:
        return None, None
    mu = flips / n
    if n < 2:
        return mu, None
    sample_sd = sqrt(mu * (1.0 - mu) * n / (n - 1.0))
    return mu, sample_sd / sqrt(n)


def symmetry_report(table: ErrorTable) -> SymmetryReport:
    """Compare flip rates of 1s and 0s over all corrupted frames."""
    if not len(table):
        raise ValueError("trace pair contains no corrupted frames")
    n1, flips1 = table.tx_ones, table.flips_on_ones
    n0 = len(table) * table.frame_len - n1
    flips0 = int(table.n1.sum()) - flips1
    mu1, se1 = _rate_and_se(flips1, n1)
    mu0, se0 = _rate_and_se(flips0, n0)
    z: float | None = None
    symmetric: bool | None = None
    if n1 > 0 and n0 > 0:
        pooled = (flips1 + flips0) / (n1 + n0)
        denom = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n0)
        if denom > 0.0:
            z = (mu1 - mu0) / sqrt(denom)
            symmetric = abs(z) < SYMMETRY_Z_THRESHOLD
        else:
            # No flips at all: nothing contradicts symmetry.
            symmetric = True
    return SymmetryReport(
        n1=n1, n0=n0, flips1=flips1, flips0=flips0,
        mu1=mu1, se1=se1, mu0=mu0, se0=se0, z=z, symmetric=symmetric,
    )


@dataclass(frozen=True)
class OutcomeFraction:
    outcome: ReceiveStatus
    fraction: float | None
    n_pass_frames: int
    n_valid_frames: int
    n_segments_tested: int
    n_excluded: int


@dataclass
class OutcomeIidReport:
    fractions: dict[ReceiveStatus, OutcomeFraction]
    covered_frames: int


def outcome_iid_tests(trace: Trace, segments: Segments) -> OutcomeIidReport:
    """Per-outcome runs tests on the frame state sequence inside segments.

    For each outcome class the frames spanned by a segment are labelled 1
    (frame has that outcome) or 0, and the runs test applied per segment.
    The reported fraction weights passing segments by their frame span;
    segments whose label sequence is degenerate or too short to test are
    excluded from both numerator and denominator.  Frames missing from the
    rx side count as PHY errors (a frame never seen is an erasure).
    """
    starts, ends = segments.start_frame, segments.end_frame
    n_frames = segments.n_frames
    if (ends < starts).any():
        raise ValueError("segment span runs backwards")
    n_seqs = int(ends.max()) + 1 if len(segments) else 0
    rx = trace.rx
    status = np.full(n_seqs, PHY, dtype=np.int8)
    seen = (rx.seq != UNKNOWN_SEQ) & (rx.seq < n_seqs)
    status[rx.seq[seen]] = rx.status[seen]
    fractions: dict[ReceiveStatus, OutcomeFraction] = {}
    for code, outcome in enumerate(STATUSES):
        # Prefix sums of the labels and of their transitions give each
        # segment's ones and run count without building its label array.
        labels = status == code
        ones = np.concatenate(([0], np.cumsum(labels)))
        changes = np.concatenate(([0], np.cumsum(labels[1:] != labels[:-1])))
        seg_n1 = ones[ends + 1] - ones[starts]
        verdict = runs_tests(1 + changes[ends] - changes[starts], seg_n1,
                             n_frames - seg_n1).verdict
        passed = verdict == PASS
        decided = passed | (verdict == FAIL)
        pass_frames = int(n_frames[passed].sum())
        valid_frames = int(n_frames[decided].sum())
        tested = int(decided.sum())
        fractions[outcome] = OutcomeFraction(
            outcome=outcome,
            fraction=pass_frames / valid_frames if valid_frames else None,
            n_pass_frames=pass_frames,
            n_valid_frames=valid_frames,
            n_segments_tested=tested,
            n_excluded=len(segments) - tested,
        )
    return OutcomeIidReport(fractions=fractions,
                            covered_frames=int(n_frames.sum()))


def bit_position_profile(table: ErrorTable) -> np.ndarray:
    """Per-position error frequency over all corrupted frames."""
    if not len(table):
        raise ValueError("trace pair contains no corrupted frames")
    return table.column_sums / len(table)
