"""Partitioning corrupted frames into i.i.d.-consistent segments.

Segmentation is greedy left to right: a segment opens at the first
corrupted frame; each subsequent corrupted frame is appended and the runs
test re-evaluated on the concatenated error sequence; on rejection the
segment closes before the offending frame, which opens the next one.  A
lone wildly different frame therefore ends up as its own one-frame
segment.  Only that decision is sequential: the loop reads each frame's
counts from the ErrorTable (ones, runs, first and last bit), keeps the
open segment's as plain integers and lists the rows that open a segment.
Appending a frame adds its ones, zeros and runs, less one run when its
first bit equals the segment's last bit, since those two runs join.  So a
pass touches no error bits and produces exactly the statistics of testing
each concatenation from scratch.  Every other segment figure is a numpy
reduction over the table's rows between those opens.

Segment extents are transmit sequence numbers: a segment "spans" every
frame between its first and last corrupted frame, clean frames included,
and its duration is that span times the inter-packet interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runstest import rejects
from .stats import ErrorTable


@dataclass(frozen=True, eq=False)
class Segments:
    """Segments as columns, one entry per segment, in trace order.

    Per segment: start_frame and end_frame are the seqs of its first and
    last corrupted frame, n_frames the span between them, n_corrupted its
    corrupted frames, duration_us the span times the interval, and
    pooled_p its flips over its bits.  pooled_p is float64 and the rest
    int64, except that duration_us holds Python ints when the durations'
    total would pass int64.
    """

    start_frame: np.ndarray
    end_frame: np.ndarray
    n_frames: np.ndarray
    n_corrupted: np.ndarray
    duration_us: np.ndarray
    pooled_p: np.ndarray

    def __len__(self) -> int:
        return self.start_frame.size


def _opens(table: ErrorTable) -> list[int]:
    """The table rows that open a segment, in order."""
    opens: list[int] = []
    # The open segment's ones, zeros, runs and last bit; -1 before any bit.
    n1 = n0 = runs = 0
    last = -1
    frame_len = table.frame_len
    columns = (table.n1, table.runs, table.first, table.last)
    for row, (ones, frame_runs, first, frame_last) in enumerate(
        zip(*(col.tolist() for col in columns))
    ):
        zeros = frame_len - ones
        merged = runs + frame_runs - (first == last)
        if not opens or rejects(merged, n1 + ones, n0 + zeros):
            opens.append(row)
            n1, n0, merged = 0, 0, frame_runs
        n1, n0, runs, last = n1 + ones, n0 + zeros, merged, frame_last
    return opens


def segment_corrupted_frames(table: ErrorTable) -> Segments:
    """Split the corrupted frames of an ErrorTable into maximal segments.

    Only sequences the runs test can actually reject (non-degenerate,
    above the small-sample cutoff) can close a segment; anything else is
    treated as consistent and appended.
    """
    opens = np.array(_opens(table), dtype=np.int64)
    n_corrupted = np.diff(opens, append=len(table))
    start = table.seqs[opens]
    end = table.seqs[opens + n_corrupted - 1]
    n_frames = end - start + 1
    # Not every numpy back to the 2.0 floor is known to take an empty
    # index list in reduceat.
    ones = np.add.reduceat(table.n1, opens) if opens.size else opens
    # A trace may declare any interval.  Where the durations' total could
    # pass int64 they are Python ints, so that they stay exact.
    wide = max(int(n_frames.sum()), 1) * table.interval_us >= 2**63
    spans = n_frames.astype(object) if wide else n_frames
    return Segments(start, end, n_frames, n_corrupted,
                    spans * table.interval_us,
                    ones / (n_corrupted * table.frame_len))


def mean_segment_duration(segments: Segments) -> float | None:
    """Arithmetic mean of segment durations in seconds; None when empty."""
    if not len(segments):
        return None
    return int(segments.duration_us.sum()) / 1e6 / len(segments)
