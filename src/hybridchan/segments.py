"""Partitioning corrupted frames into i.i.d.-consistent segments.

Segmentation is greedy left to right: a segment opens at the first
corrupted frame; each subsequent corrupted frame is appended and the runs
test re-evaluated on the concatenated error sequence; on rejection the
segment closes before the offending frame, which opens the next one.  A
lone wildly different frame therefore ends up as its own one-frame
segment.  The loop reads only each frame's counts from the ErrorTable
(ones, runs, first and last bit): RunsAccumulator.add_counts merges them
across frame boundaries, so a pass touches no error bits and produces
exactly the statistics of testing each concatenation from scratch.

Segment extents are transmit sequence numbers: a segment "spans" every
frame between its first and last corrupted frame, clean frames included,
and its duration is that span times the inter-packet interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from .runstest import DEFAULT_ALPHA, RunsAccumulator
from .stats import ErrorTable


@dataclass(frozen=True)
class Segment:
    start_frame: int
    end_frame: int
    n_frames: int
    n_corrupted: int
    duration_us: int
    pooled_p: float


def _close(seqs: list[int], acc: RunsAccumulator, interval_us: int) -> Segment:
    start, end = seqs[0], seqs[-1]
    span = end - start + 1
    return Segment(
        start_frame=start,
        end_frame=end,
        n_frames=span,
        n_corrupted=len(seqs),
        duration_us=span * interval_us,
        pooled_p=acc.n1 / acc.length,
    )


def segment_corrupted_frames(
    table: ErrorTable, alpha: float = DEFAULT_ALPHA
) -> list[Segment]:
    """Split the corrupted frames of an ErrorTable into maximal segments.

    Only sequences the runs test can actually reject (non-degenerate,
    above the small-sample cutoff) can close a segment; anything else is
    treated as consistent and appended.
    """
    segments: list[Segment] = []
    acc = RunsAccumulator()
    seqs: list[int] = []
    columns = (table.seqs, table.n1, table.runs, table.first, table.last)
    for seq, n1, runs, first, last in zip(*(col.tolist() for col in columns)):
        counts = (n1, table.frame_len - n1, runs, first, last)
        trial = acc.copy()
        trial.add_counts(*counts)
        if seqs and trial.result(alpha).rejects:
            segments.append(_close(seqs, acc, table.interval_us))
            trial, seqs = RunsAccumulator(), []
            trial.add_counts(*counts)
        acc = trial
        seqs.append(seq)
    if seqs:
        segments.append(_close(seqs, acc, table.interval_us))
    return segments


def mean_segment_duration(
    segments: list[Segment], interval_us: int
) -> float | None:
    """Arithmetic mean of segment durations in seconds; None when empty."""
    if not segments:
        return None
    total_frames = sum(seg.n_frames for seg in segments)
    return total_frames * interval_us / 1e6 / len(segments)
