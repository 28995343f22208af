"""Hybrid BSC/packet-erasure channel simulator.

Each transmitted frame is independently erased (PHY error, probability r),
delivered clean (probability (1-r)*s), or corrupted (probability
(1-r)*(1-s)) with every payload bit flipped independently at crossover
probability p.  A periodic-noise variant concentrates flips inside fixed
windows to synthesize the structured error patterns that interleaving is
supposed to whiten.

All outcomes are drawn from per-frame counter-based streams (see rng), so
a config reproduces bit-identical traces regardless of evaluation order.
Each loop re-keys one stream family per frame and takes all of that
frame's draws before moving on, as the family's validity rule requires.
Both channel models share one receive loop: per frame it draws the rx
timestamp, then calls the model's closure, which takes the model's draws
and returns the frame's status and flips.  Payloads are drawn and flipped
as bits, then packed into the side's payload matrix, and every other draw
lands in a column (see trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import rng
from .trace import CRC, OK, PHY, ChannelParams, Side, Trace, TraceMeta


def _check_clock(interval_us: int, skew_ppm: float, jitter_us: int) -> None:
    """Refuse a clock model under which rx timestamps could run backwards."""
    if not math.isfinite(skew_ppm):
        raise ValueError(f"clock_skew_ppm={skew_ppm} must be finite")
    # Jitter moves each rx timestamp by less than its amplitude either way,
    # so frames spaced at least twice that apart stay in order.
    spacing = interval_us * (1.0 + skew_ppm * 1e-6)
    if 2 * jitter_us > spacing:
        raise ValueError(
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
            raise ValueError("n_frames must be positive")
        if self.timestamp_jitter_us < 0:
            raise ValueError("timestamp_jitter_us must be non-negative")
        _check_clock(self.params.interval_us, self.clock_skew_ppm,
                     self.timestamp_jitter_us)
        prev = -1
        for idx, params in self.drift_schedule:
            if not prev < idx < self.n_frames:
                raise ValueError(
                    "drift_schedule indices must be strictly increasing "
                    f"and < n_frames (got {idx})"
                )
            prev = idx
            # one trace has one meta block, so only r, s and p may drift
            for name in ("rate_bps", "frame_len", "interval_us"):
                if getattr(params, name) != getattr(self.params, name):
                    raise ValueError(
                        f"drift_schedule entry at frame {idx} changes {name}; "
                        "only r, s and p may drift"
                    )

    def params_at(self, frame_index: int) -> ChannelParams:
        current = self.params
        for idx, params in self.drift_schedule:
            if frame_index >= idx:
                current = params
            else:
                break
        return current


def generate_tx(config: SimConfig) -> Trace:
    """Generate the transmit side: uniform random payloads on a fixed cadence."""
    params = config.params
    streams = rng.StreamFamily(config.seed, rng.ROLE_TX_PAYLOAD)
    packed = np.empty((config.n_frames, (params.frame_len + 7) // 8), dtype=np.uint8)
    for k, row in enumerate(packed):
        row[:] = np.packbits(
            streams.at(k).integers(0, 2, params.frame_len, dtype=np.uint8)
        )
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


def _rx_timestamp(tx_ts: int, gen: np.random.Generator, skew_ppm: float,
                  offset_us: int, jitter_us: int) -> int:
    ts = tx_ts * (1.0 + skew_ppm * 1e-6) + offset_us
    if jitter_us:
        ts += gen.uniform(-jitter_us, jitter_us)
    return int(round(ts))


def _receive(tx: Trace, streams: rng.StreamFamily,
             frame: Callable[[int, np.random.Generator], tuple[int, np.ndarray | None]],
             skew_ppm: float, offset_us: int, jitter_us: int, description: str) -> Trace:
    """The rx trace of one channel run: one record per tx record, in seq order.

    Each frame re-keys streams to its seq and draws its rx timestamp; then
    frame(seq, generator) takes the model's draws and returns the status
    code and the flips, a bit vector for CRC and None otherwise.  PHY
    errors keep their timestamp but carry no payload.
    """
    sent = tx.tx
    timestamps = []
    status = np.empty(len(sent), dtype=np.int8)
    # Rows of frames never written are never touched, so cost no memory.
    packed = np.empty((len(sent), sent.packed.shape[1]), dtype=np.uint8)
    n_payloads = 0
    for i, (seq, tx_ts, row) in enumerate(
        zip(sent.seq.tolist(), sent.timestamp_us.tolist(), sent.row.tolist())
    ):
        gen = streams.at(seq)
        timestamps.append(_rx_timestamp(tx_ts, gen, skew_ppm, offset_us, jitter_us))
        code, flips = frame(seq, gen)
        status[i] = code
        if code == PHY:
            continue
        packed[n_payloads] = (sent.packed[row] if flips is None
                              else sent.packed[row] ^ np.packbits(flips))
        n_payloads += 1
    held = status != PHY
    rx = Side(seq=sent.seq, timestamp_us=timestamps, status=status,
              rssi=np.zeros_like(sent.seq), has_rssi=np.zeros(len(sent), dtype=bool),
              row=np.where(held, np.cumsum(held) - 1, -1),
              packed=packed[:n_payloads], n_bits=sent.n_bits)
    return Trace(meta=replace(tx.meta, description=description), rx=rx)


def apply_channel(tx: Trace, config: SimConfig) -> Trace:
    """Run every tx frame through the hybrid channel.

    Every frame yields an rx record: the simulator models no losses other
    than PHY erasures (which keep their timestamp but drop the payload).
    """

    def frame(seq: int, gen: np.random.Generator):
        params = config.params_at(seq)
        u_erase = gen.random()
        u_clean = gen.random()
        if u_erase < params.r:
            return PHY, None
        if u_clean < params.s:
            return OK, None
        # The corrupted state is decided by the draw, not by whether any
        # flip landed; downstream code treats all-zero error vectors as
        # degenerate rather than clean.
        return CRC, gen.random(params.frame_len) < params.p

    return _receive(tx, rng.StreamFamily(config.seed, rng.ROLE_CHANNEL), frame,
                    config.clock_skew_ppm, config.clock_offset_us,
                    config.timestamp_jitter_us, f"rx seed={config.seed}")


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
    """
    frame_len = tx.meta.frame_len
    if not 0 < burst_len <= period <= frame_len:
        raise ValueError("need 0 < burst_len <= period <= frame_len")
    if not 0.0 <= p_in_burst <= 1.0:
        raise ValueError("p_in_burst outside [0, 1]")
    _check_clock(tx.meta.interval_us, clock_skew_ppm, 0)
    window_idx = np.flatnonzero(periodic_window_mask(frame_len, period, burst_len))

    def frame(seq: int, gen: np.random.Generator):
        flips = np.zeros(frame_len, dtype=bool)
        flips[window_idx] = gen.random(window_idx.size) < p_in_burst
        return (CRC, flips) if flips.any() else (OK, None)

    return _receive(tx, rng.StreamFamily(seed, rng.ROLE_PERIODIC), frame,
                    clock_skew_ppm, clock_offset_us, 0, f"rx periodic seed={seed}")
