"""Hybrid BSC/packet-erasure channel simulator.

Each transmitted frame is independently erased (PHY error, probability r),
delivered clean (probability (1-r)*s), or corrupted (probability
(1-r)*(1-s)) with every payload bit flipped independently at crossover
probability p.  A periodic-noise variant concentrates flips inside fixed
windows to synthesize the structured error patterns that interleaving is
supposed to whiten.

All outcomes are drawn from per-frame counter-based streams (see rng), so
a config reproduces bit-identical traces regardless of evaluation order.
Every draw is a fixed function of the raw words of its frame's stream
(rng.StreamFamily.words), so the only per-frame Python work is to re-key
and copy those words into a block; every decision is numpy over a block
of frames.  A block's words take at most trace.BLOCK_BYTES (row_blocks),
which keeps the simulator's working memory flat whatever the trace's size.

For the same reason a run can be simulated a range of frames at a time:
generate_tx(config, frames) gives the tx records of those frames, and
either channel turns any tx trace into its rx records, keying each draw
by the record's seq.  Each range gives exactly its records of the whole
run; the simulate command writes a run that way, so that it never holds
the run's payloads.

- generate_tx: a payload takes ceil(frame_len / 64) words.  Their
  little-endian bytes, cut to ceil(frame_len / 8), are the packed row,
  with the pad bits of its last byte cleared.
- apply_channel takes two passes.  The first takes each frame's head
  words: the rx timestamp jitter if there is any, then the erase and the
  clean draw.  Statuses and timestamps are vector compares and sums.  The
  second re-keys only the corrupted frames and draws their flips from the
  words after the head (_flips).
- apply_periodic_noise draws each frame's flips over its window
  positions from the start of its stream, the same way; a frame is
  corrupted where it draws at least one.

_flips draws the flips of n positions at crossover p as geometric gaps,
one word a flip.  Word i gives the gap g_i = #{k in 1..n : word < T_k},
where T_0 = 2**64 and T_k = (T_{k-1} * Q) >> 64 with
Q = 2**64 - ceil(p * 2**64), so that P(g_i >= k) = T_k / 2**64, which is
(1 - p)**k to within k * 2**-64.  The flips are at pos_i = pos_{i-1} + g_i + 1
from pos_0 = -1, up to the first pos_i >= n.  The thresholds are Python
ints, so no float arithmetic, whose SIMD results may differ between CPUs,
decides a flip.  An rx payload is its frame's tx row with its flips XORed
in.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .trace import (
    CRC,
    MAX_DIGITS,
    OK,
    PHY,
    ChannelParams,
    Side,
    Trace,
    TraceError,
    TraceMeta,
    UsageError,
    row_blocks,
)


def _check_clock(interval_us: int, skew_ppm: float, jitter_us: int) -> None:
    """Refuse a clock model under which rx timestamps could run backwards."""
    if not math.isfinite(skew_ppm):
        raise UsageError(f"clock_skew_ppm={skew_ppm} must be finite")
    # Jitter moves each rx timestamp by less than its amplitude either way,
    # so frames spaced at least twice that apart stay in order.
    spacing = interval_us * (1.0 + skew_ppm * 1e-6)
    if 2 * jitter_us > spacing:
        raise UsageError(
            f"rx timestamps could run backwards: twice the jitter ({jitter_us} us) "
            f"exceeds the skewed frame spacing ({spacing:g} us)"
        )


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters: channel, clock model, and regime changes.

    drift_schedule lists (frame_index, params) change-points applied from
    that frame onward; timestamp_jitter_us adds uniform +/- jitter to rx
    timestamps on top of the affine clock model.
    """

    params: ChannelParams
    seed: int = 0
    n_frames: int = 1
    clock_skew_ppm: float = 0.0
    clock_offset_us: int = 0
    drift_schedule: tuple[tuple[int, ChannelParams], ...] = field(default=())
    timestamp_jitter_us: int = 0

    def __post_init__(self) -> None:
        if self.n_frames <= 0:
            raise UsageError("n_frames must be positive")
        if self.timestamp_jitter_us < 0:
            raise UsageError("timestamp_jitter_us must be non-negative")
        _check_clock(self.params.interval_us, self.clock_skew_ppm,
                     self.timestamp_jitter_us)
        prev = -1
        for idx, params in self.drift_schedule:
            if not prev < idx < self.n_frames:
                raise UsageError(
                    "drift_schedule indices must be strictly increasing "
                    f"and < n_frames (got {idx})"
                )
            prev = idx
            # one trace has one meta block, so only r, s and p may drift
            for name in ("rate_bps", "frame_len", "interval_us"):
                if getattr(params, name) != getattr(self.params, name):
                    raise UsageError(
                        f"drift_schedule entry at frame {idx} changes {name}; "
                        "only r, s and p may drift"
                    )

    @property
    def regimes(self) -> tuple[ChannelParams, ...]:
        """params, then each drift_schedule entry's params."""
        return (self.params, *(params for _, params in self.drift_schedule))

    def regime(self, frame_index):
        """The index into regimes in force at frame_index, an int or an array."""
        return np.searchsorted([idx for idx, _ in self.drift_schedule],
                               frame_index, side="right")


def _words(streams: rng.StreamFamily, indices: Sequence[int], n: int) -> np.ndarray:
    """The first n raw words of each index's stream, one row per index."""
    block = np.empty((len(indices), n), dtype=np.uint64)
    for row, index in zip(block, indices):
        row[:] = streams.words(index, n)
    return block


def _below(words: np.ndarray, p) -> np.ndarray:
    """Where the random() drawn from each word is below p, in integers.

    p * 2**53 is exact, so (word >> 11) * 2**-53 < p exactly when
    word >> 11 < ceil(p * 2**53).  p is a float or an array that
    broadcasts against words.
    """
    return (words >> 11) < np.ceil(np.multiply(p, 2.0**53)).astype(np.uint64)


@functools.lru_cache(maxsize=16)
def _gap_table(p: float, n: int) -> np.ndarray:
    """The thresholds T_k - 1 of the gaps of n positions at crossover p,
    for the k in 1..n with T_k > 0, ascending, as read-only uint64.

    T_k is computed in Python ints, so T_0 = 2**64 needs no special case
    and no float rounds a threshold; T_k - 1 fits in a uint64.
    """
    q = (1 << 64) - math.ceil(p * 2.0**64)
    table = np.empty(n, dtype=np.uint64)
    t, k = 1 << 64, n
    while k and (t := (t * q) >> 64):  # T_k stays 0 once it is 0
        k -= 1
        table[k] = t - 1
    table = table[k:]
    table.flags.writeable = False
    return table


def _gaps(table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The gap each uint64 word gives: how many thresholds T_k - 1 of
    table are at or above it, that is how many k have word < T_k."""
    return table.size - np.searchsorted(table, words)


def _budget(n: int, p: float) -> int:
    """Gap words a frame of n positions at crossover p draws first: its
    mean flips plus six standard deviations and 8, at most the n + 1 words
    any frame needs.  A frame that uses them all up draws again with twice
    as many, so the budget changes no flip."""
    mean = n * p
    return min(n + 1, int(mean + 6.0 * math.sqrt(mean)) + 8)


def _flips(streams: rng.StreamFamily, seqs: np.ndarray, skip: int, n: int,
           p: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The flips of n positions at crossover p of each seq's stream, drawn
    from the words after its first skip, a block of frames at a time:
    (frame, position) pairs, frame an index into seqs.  Every frame's
    flips come in one block."""
    table = _gap_table(p, n)
    todo, budget = np.arange(len(seqs)), _budget(n, p)
    while todo.size:
        width = skip + budget
        short = []
        for rows in row_blocks(todo.size, 8 * width):
            block = todo[rows]
            words = _words(streams, seqs[block].tolist(), width)[:, skip:]
            pos = _gaps(table, words)
            pos += 1
            np.cumsum(pos, axis=1, out=pos)
            pos -= 1
            done = pos[:, -1] >= n
            pos = pos[done]
            row, col = np.nonzero(pos < n)
            yield block[done][row], pos[row, col]
            short.append(block[~done])
        todo, budget = np.concatenate(short), min(2 * budget, n + 1)


def _xor_flips(packed: np.ndarray, rows: np.ndarray, positions: np.ndarray) -> None:
    """Flip the bit at each position of each row of packed, in place."""
    np.bitwise_xor.at(packed, (rows, positions >> 3),
                      (0x80 >> (positions & 7)).astype(np.uint8))


def _rx_timestamps(tx_ts: np.ndarray, skew_ppm: float, offset_us: int,
                   jitter) -> np.ndarray:
    """The affine clock of the tx timestamps plus jitter, rounded half to
    even as round() does.

    Refuses a timestamp past the column's digits before the cast to
    int64, which would wrap it silently, and an offset past them before it
    meets a float, which it may overflow.
    """
    if abs(offset_us) < 10**MAX_DIGITS:
        ts = np.rint(tx_ts * (1.0 + skew_ppm * 1e-6) + offset_us + jitter)
        if (np.abs(ts) < 10.0**MAX_DIGITS).all():
            return ts.astype(np.int64)
    raise TraceError(f"timestamp_us values must have at most {MAX_DIGITS} digits")


def _rx_trace(tx: Trace, status: np.ndarray, timestamp_us: np.ndarray,
              packed: np.ndarray, description: str) -> Trace:
    """The rx trace of one channel run: one record per tx record, in seq
    order, with packed holding the payloads of the frames not erased."""
    sent = tx.tx
    held = status != PHY
    rx = Side(seq=sent.seq, timestamp_us=timestamp_us, status=status,
              rssi=np.zeros_like(sent.seq), has_rssi=np.zeros(len(sent), dtype=bool),
              row=np.where(held, np.cumsum(held) - 1, -1), packed=packed,
              n_bits=sent.n_bits)
    return Trace(meta=replace(tx.meta, description=description), rx=rx)


def generate_tx(config: SimConfig, frames: range | None = None) -> Trace:
    """Generate the transmit side: uniform random payloads on a fixed cadence.

    frames, a range of frame indices with step 1, limits the trace to the
    records of those frames; by default it holds the whole run.  A frame's
    record is the same whichever range holds it.
    """
    params = config.params
    if frames is None:
        frames = range(config.n_frames)
    elif frames.step != 1 or not 0 <= frames.start <= frames.stop <= config.n_frames:
        raise UsageError(f"frames={frames} must be consecutive frames of "
                         f"range({config.n_frames})")
    n_words, n_bytes = -(-params.frame_len // 64), -(-params.frame_len // 8)
    streams = rng.StreamFamily(config.seed, rng.ROLE_TX_PAYLOAD)
    packed = np.empty((len(frames), n_bytes), dtype=np.uint8)
    for rows in row_blocks(len(frames), 8 * n_words):
        words = _words(streams, frames[rows], n_words)
        packed[rows] = words.astype("<u8", copy=False).view(np.uint8)[:, :n_bytes]
    packed[:, -1] &= (0xFF << (-params.frame_len % 8)) & 0xFF  # the pad bits
    seq = np.arange(frames.start, frames.stop, dtype=np.int64)
    # Python ints, so a cadence past the timestamp column's range is refused
    # rather than wrapped.
    tx = Side(seq=seq, timestamp_us=[k * params.interval_us for k in frames],
              status=np.full(seq.size, OK), rssi=np.zeros_like(seq),
              has_rssi=np.zeros(seq.size, dtype=bool), row=np.arange(seq.size),
              packed=packed, n_bits=params.frame_len)
    meta = TraceMeta(params.rate_bps, params.frame_len, params.interval_us,
                     f"tx seed={config.seed}")
    return Trace(meta=meta, tx=tx)


def apply_channel(tx: Trace, config: SimConfig) -> Trace:
    """Run every tx frame of tx, the whole run or a range of its frames,
    through the hybrid channel.

    Every frame yields an rx record: the simulator models no losses other
    than PHY erasures (which keep their timestamp but drop the payload).
    A frame's stream holds its jitter draw if there is jitter, its erase
    and clean draws, then the gap words of its flips if it is corrupted.
    """
    sent = tx.tx
    seqs = sent.seq.tolist()
    streams = rng.StreamFamily(config.seed, rng.ROLE_CHANNEL)
    jitter_us = config.timestamp_jitter_us
    n_head = 3 if jitter_us else 2
    regime = config.regime(sent.seq)
    r, s = (np.array([getattr(params, name) for params in config.regimes])[regime]
            for name in ("r", "s"))

    status = np.empty(len(sent), dtype=np.int8)
    jitter = np.zeros(len(sent))
    for rows in row_blocks(len(sent), 8 * n_head):
        head = _words(streams, seqs[rows], n_head)
        if jitter_us:
            # uniform(-jitter_us, jitter_us), of random() = (word >> 11) * 2**-53
            jitter[rows] = -jitter_us + 2 * jitter_us * ((head[:, 0] >> 11) * 2.0**-53)
        # The corrupted state is decided by the draw, not by whether any
        # flip landed; downstream code treats all-zero error vectors as
        # degenerate rather than clean.
        status[rows] = np.where(_below(head[:, -2], r[rows]), PHY,
                                np.where(_below(head[:, -1], s[rows]), OK, CRC))
    timestamp_us = _rx_timestamps(sent.timestamp_us, config.clock_skew_ppm,
                                  config.clock_offset_us, jitter)

    held = status != PHY
    # A side holds one payload matrix, so clean frames copy their tx rows.
    packed = sent.packed[sent.row[held]]
    rx_row = np.cumsum(held) - 1
    crc = np.flatnonzero(status == CRC)
    for index, params in enumerate(config.regimes):
        frames = crc[regime[crc] == index]
        for hit, positions in _flips(streams, sent.seq[frames], n_head,
                                     params.frame_len, params.p):
            _xor_flips(packed, rx_row[frames[hit]], positions)
    return _rx_trace(tx, status, timestamp_us, packed, f"rx seed={config.seed}")


def periodic_window_mask(frame_len: int, period: int, burst_len: int) -> np.ndarray:
    """Boolean mask of the flip-eligible positions: burst_len bits every period."""
    return np.arange(frame_len) % period < burst_len


def apply_periodic_noise(
    tx: Trace,
    period: int,
    burst_len: int,
    p_in_burst: float,
    seed: int,
    clock_skew_ppm: float = 0.0,
    clock_offset_us: int = 0,
) -> Trace:
    """Corrupt frames with flips confined to periodic windows.

    Bits inside each window flip independently with p_in_burst; bits
    outside never flip.  burst_len == period degenerates to uniform
    Bernoulli flipping.  Frames that draw no flips are received clean.
    A frame's stream holds the gap words of its flips over the window
    positions.
    """
    frame_len = tx.meta.frame_len
    if not 0 < burst_len <= period <= frame_len:
        raise UsageError("need 0 < burst_len <= period <= frame_len")
    if not 0.0 <= p_in_burst <= 1.0:
        raise UsageError("p_in_burst outside [0, 1]")
    _check_clock(tx.meta.interval_us, clock_skew_ppm, 0)
    window_idx = np.flatnonzero(periodic_window_mask(frame_len, period, burst_len))
    sent = tx.tx
    streams = rng.StreamFamily(seed, rng.ROLE_PERIODIC)

    status = np.full(len(sent), OK, dtype=np.int8)
    packed = sent.packed[sent.row]  # no frame is erased
    for hit, positions in _flips(streams, sent.seq, 0, window_idx.size, p_in_burst):
        status[hit] = CRC
        _xor_flips(packed, hit, window_idx[positions])
    timestamp_us = _rx_timestamps(sent.timestamp_us, clock_skew_ppm, clock_offset_us, 0.0)
    return _rx_trace(tx, status, timestamp_us, packed, f"rx periodic seed={seed}")
