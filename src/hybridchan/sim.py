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
of frames.  A block holds at most _BLOCK_WORDS words, which keeps the
simulator's working memory flat whatever the trace's size.

- generate_tx: a payload's bits are the top bits of the first frame_len
  bytes of the frame's ceil(frame_len / 8) words, packed per block.
- apply_channel takes two passes.  The first takes each frame's head
  words: the rx timestamp jitter if there is any, then the erase and the
  clean draw.  Statuses and timestamps are vector compares and sums.  The
  second re-keys only the corrupted frames, for the frame_len words after
  the head: a bit flips where its word is below p's threshold (_below).
- apply_periodic_noise takes one word per window position of every
  frame; a frame is corrupted where any of them flips.

An rx payload is its frame's tx row, XORed with the packed flips of a
corrupted frame.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
)

# Raw words per block: 2**15, 256 KB.  Blocks of 2**18 words raised
# simulate's peak RSS by 8-10%; at 2**15 it does not move.
_BLOCK_WORDS = 1 << 15


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

    def params_at(self, frame_index: int) -> ChannelParams:
        return self.regimes[self.regime(frame_index)]


def _blocks(n_rows: int, row_words: int):
    """Consecutive slices of range(n_rows), each at most _BLOCK_WORDS words
    of row_words words a row, and at least one row."""
    step = max(1, _BLOCK_WORDS // row_words)
    return (slice(start, min(start + step, n_rows))
            for start in range(0, n_rows, step))


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


def _rx_timestamps(tx_ts: np.ndarray, skew_ppm: float, offset_us: int,
                   jitter) -> np.ndarray:
    """The affine clock of the tx timestamps plus jitter, rounded half to
    even as round() does.

    Refuses a timestamp past the column's digits before the cast to
    int64, which would wrap it silently.
    """
    ts = np.rint(tx_ts * (1.0 + skew_ppm * 1e-6) + offset_us + jitter)
    if not (np.abs(ts) < 10.0**MAX_DIGITS).all():
        raise TraceError(f"timestamp_us values must have at most {MAX_DIGITS} digits")
    return ts.astype(np.int64)


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


def generate_tx(config: SimConfig) -> Trace:
    """Generate the transmit side: uniform random payloads on a fixed cadence."""
    params = config.params
    n_words = (params.frame_len + 7) // 8
    streams = rng.StreamFamily(config.seed, rng.ROLE_TX_PAYLOAD)
    packed = np.empty((config.n_frames, n_words), dtype=np.uint8)
    for rows in _blocks(config.n_frames, n_words):
        words = _words(streams, range(rows.start, rows.stop), n_words)
        # integers(0, 2, frame_len, uint8): the top bit of each byte
        payload_bytes = words.astype("<u8", copy=False).view(np.uint8)
        packed[rows] = np.packbits(payload_bytes[:, :params.frame_len] >> 7, axis=1)
    seq = np.arange(config.n_frames, dtype=np.int64)
    # Python ints, so a cadence past the timestamp column's range is refused
    # rather than wrapped.
    tx = Side(seq=seq, timestamp_us=[k * params.interval_us for k in range(seq.size)],
              status=np.full(seq.size, OK), rssi=np.zeros_like(seq),
              has_rssi=np.zeros(seq.size, dtype=bool), row=seq, packed=packed,
              n_bits=params.frame_len)
    meta = TraceMeta(params.rate_bps, params.frame_len, params.interval_us,
                     f"tx seed={config.seed}")
    return Trace(meta=meta, tx=tx)


def apply_channel(tx: Trace, config: SimConfig) -> Trace:
    """Run every tx frame through the hybrid channel.

    Every frame yields an rx record: the simulator models no losses other
    than PHY erasures (which keep their timestamp but drop the payload).
    A frame's stream holds its jitter draw if there is jitter, its erase
    and clean draws, then one flip draw per bit if it is corrupted.
    """
    sent = tx.tx
    seqs = sent.seq.tolist()
    streams = rng.StreamFamily(config.seed, rng.ROLE_CHANNEL)
    jitter_us = config.timestamp_jitter_us
    n_head = 3 if jitter_us else 2
    regime = config.regime(sent.seq)
    r, s, p = (np.array([getattr(params, name) for params in config.regimes])[regime]
               for name in ("r", "s", "p"))

    status = np.empty(len(sent), dtype=np.int8)
    jitter = np.zeros(len(sent))
    for rows in _blocks(len(sent), n_head):
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
    n_words = n_head + config.params.frame_len
    for rows in _blocks(crc.size, n_words):
        frames = crc[rows]
        words = _words(streams, sent.seq[frames].tolist(), n_words)
        flips = _below(words[:, n_head:], p[frames, None])
        packed[rx_row[frames]] ^= np.packbits(flips, axis=1)
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
    A frame's stream holds one flip draw per window position.
    """
    frame_len = tx.meta.frame_len
    if not 0 < burst_len <= period <= frame_len:
        raise UsageError("need 0 < burst_len <= period <= frame_len")
    if not 0.0 <= p_in_burst <= 1.0:
        raise UsageError("p_in_burst outside [0, 1]")
    _check_clock(tx.meta.interval_us, clock_skew_ppm, 0)
    window_idx = np.flatnonzero(periodic_window_mask(frame_len, period, burst_len))
    sent = tx.tx
    seqs = sent.seq.tolist()
    streams = rng.StreamFamily(seed, rng.ROLE_PERIODIC)

    status = np.full(len(sent), OK, dtype=np.int8)
    packed = sent.packed[sent.row]  # no frame is erased
    for rows in _blocks(len(sent), window_idx.size):
        in_window = _below(_words(streams, seqs[rows], window_idx.size), p_in_burst)
        hit = rows.start + np.flatnonzero(in_window.any(axis=1))
        flips = np.zeros((hit.size, frame_len), dtype=bool)
        flips[:, window_idx] = in_window[hit - rows.start]
        packed[hit] ^= np.packbits(flips, axis=1)
        status[hit] = CRC
    timestamp_us = _rx_timestamps(sent.timestamp_us, clock_skew_ppm, clock_offset_us, 0.0)
    return _rx_trace(tx, status, timestamp_us, packed, f"rx periodic seed={seed}")
