"""Partitioning corrupted frames into i.i.d.-consistent segments.

Segmentation is greedy left to right: a segment opens at the first
corrupted frame; each subsequent corrupted frame is appended and the runs
test re-evaluated on the concatenated error sequence; on rejection the
segment closes before the offending frame, which opens the next one.  A
lone wildly different frame therefore ends up as its own one-frame
segment.  The loop reads only each frame's counts from the ErrorTable
(ones, runs, first and last bit) and keeps the open segment's as plain
integers.  Appending a frame adds its ones, zeros and runs, less one run
when its first bit equals the segment's last bit, since those two runs
join.  So a pass touches no error bits and produces exactly the
statistics of testing each concatenation from scratch.

Segment extents are transmit sequence numbers: a segment "spans" every
frame between its first and last corrupted frame, clean frames included,
and its duration is that span times the inter-packet interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from .runstest import rejects
from .stats import ErrorTable


@dataclass(frozen=True)
class Segment:
    start_frame: int
    end_frame: int
    n_frames: int
    n_corrupted: int
    duration_us: int
    pooled_p: float


def _close(seqs: list[int], n1: int, n0: int, interval_us: int) -> Segment:
    start, end = seqs[0], seqs[-1]
    span = end - start + 1
    return Segment(
        start_frame=start,
        end_frame=end,
        n_frames=span,
        n_corrupted=len(seqs),
        duration_us=span * interval_us,
        pooled_p=n1 / (n1 + n0),
    )


def segment_corrupted_frames(table: ErrorTable) -> list[Segment]:
    """Split the corrupted frames of an ErrorTable into maximal segments.

    Only sequences the runs test can actually reject (non-degenerate,
    above the small-sample cutoff) can close a segment; anything else is
    treated as consistent and appended.
    """
    segments: list[Segment] = []
    seqs: list[int] = []
    # The open segment's ones, zeros, runs and last bit; -1 before any bit.
    n1 = n0 = runs = 0
    last = -1
    frame_len, interval_us = table.frame_len, table.interval_us
    columns = (table.seqs, table.n1, table.runs, table.first, table.last)
    for seq, ones, frame_runs, first, frame_last in zip(
        *(col.tolist() for col in columns)
    ):
        zeros = frame_len - ones
        merged = runs + frame_runs - (first == last)
        if seqs and rejects(merged, n1 + ones, n0 + zeros):
            segments.append(_close(seqs, n1, n0, interval_us))
            seqs, n1, n0, merged = [], 0, 0, frame_runs
        n1, n0, runs, last = n1 + ones, n0 + zeros, merged, frame_last
        seqs.append(seq)
    if seqs:
        segments.append(_close(seqs, n1, n0, interval_us))
    return segments


def mean_segment_duration(segments: list[Segment]) -> float | None:
    """Arithmetic mean of segment durations in seconds; None when empty."""
    if not segments:
        return None
    return sum(seg.duration_us for seg in segments) / 1e6 / len(segments)
