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
Payloads are drawn and flipped as bits, then packed into the side's
payload matrix, and every other draw lands in a column (see trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .trace import CRC, OK, PHY, ChannelParams, Side, Trace, TraceMeta


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


def _meta(params: ChannelParams, description: str) -> TraceMeta:
    return TraceMeta(
        rate_bps=params.rate_bps,
        frame_len=params.frame_len,
        interval_us=params.interval_us,
        description=description,
    )


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
    return Trace(meta=_meta(params, f"tx seed={config.seed}"), tx=tx)


def _rx_side(tx: Side, timestamps: list[int], status: np.ndarray,
             packed: np.ndarray, n_payloads: int) -> Side:
    """The rx side of a channel run: one record per tx record, in seq order.

    packed holds the payloads of the non-PHY records in order in its first
    n_payloads rows.
    """
    held = status != PHY
    return Side(seq=tx.seq, timestamp_us=timestamps, status=status,
                rssi=np.zeros_like(tx.seq), has_rssi=np.zeros(tx.seq.size, dtype=bool),
                row=np.where(held, np.cumsum(held) - 1, -1),
                packed=packed[:n_payloads], n_bits=tx.n_bits)


def _rx_timestamp(config: SimConfig, tx_ts: int, gen: np.random.Generator) -> int:
    ts = tx_ts * (1.0 + config.clock_skew_ppm * 1e-6) + config.clock_offset_us
    if config.timestamp_jitter_us:
        j = config.timestamp_jitter_us
        ts += gen.uniform(-j, j)
    return int(round(ts))


def apply_channel(tx: Trace, config: SimConfig) -> Trace:
    """Run every tx frame through the hybrid channel.

    Every frame yields an rx record: the simulator models no losses other
    than PHY erasures (which keep their timestamp but drop the payload).
    """
    streams = rng.StreamFamily(config.seed, rng.ROLE_CHANNEL)
    sent = tx.tx
    timestamps = []
    status = np.empty(len(sent), dtype=np.int8)
    # Rows of frames never written are never touched, so cost no memory.
    packed = np.empty((len(sent), sent.packed.shape[1]), dtype=np.uint8)
    n_payloads = 0
    for i, (seq, tx_ts, row) in enumerate(
        zip(sent.seq.tolist(), sent.timestamp_us.tolist(), sent.row.tolist())
    ):
        params = config.params_at(seq)
        gen = streams.at(seq)
        timestamps.append(_rx_timestamp(config, tx_ts, gen))
        u_erase = gen.random()
        u_clean = gen.random()
        if u_erase < params.r:
            status[i] = PHY
            continue
        if u_clean < params.s:
            status[i] = OK
            packed[n_payloads] = sent.packed[row]
        else:
            # The corrupted state is decided by the draw, not by whether any
            # flip landed; downstream code treats all-zero error vectors as
            # degenerate rather than clean.
            flips = gen.random(params.frame_len) < params.p
            status[i] = CRC
            packed[n_payloads] = sent.packed[row] ^ np.packbits(flips)
        n_payloads += 1
    rx = _rx_side(sent, timestamps, status, packed, n_payloads)
    return Trace(meta=_meta(config.params, f"rx seed={config.seed}"), rx=rx)


def periodic_window_mask(frame_len: int, period: int, burst_len: int) -> np.ndarray:
    """Boolean mask of the flip-eligible positions: burst_len bits every period."""
    mask = np.zeros(frame_len, dtype=bool)
    for start in range(0, frame_len, period):
        mask[start : start + burst_len] = True
    return mask


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
    mask = periodic_window_mask(frame_len, period, burst_len)
    window_idx = np.flatnonzero(mask)
    config = SimConfig(
        params=ChannelParams(0.0, 1.0, 0.0, tx.meta.rate_bps, frame_len,
                             tx.meta.interval_us),
        seed=seed,
        n_frames=len(tx.tx),
        clock_skew_ppm=clock_skew_ppm,
        clock_offset_us=clock_offset_us,
    )
    streams = rng.StreamFamily(seed, rng.ROLE_PERIODIC)
    sent = tx.tx
    timestamps = []
    status = np.empty(len(sent), dtype=np.int8)
    packed = np.empty((len(sent), sent.packed.shape[1]), dtype=np.uint8)
    for i, (seq, tx_ts, row) in enumerate(
        zip(sent.seq.tolist(), sent.timestamp_us.tolist(), sent.row.tolist())
    ):
        gen = streams.at(seq)
        timestamps.append(_rx_timestamp(config, tx_ts, gen))
        flips = np.zeros(frame_len, dtype=np.uint8)
        flips[window_idx] = gen.random(window_idx.size) < p_in_burst
        if flips.any():
            packed[i] = sent.packed[row] ^ np.packbits(flips)
            status[i] = CRC
        else:
            packed[i] = sent.packed[row]
            status[i] = OK
    rx = _rx_side(sent, timestamps, status, packed, len(sent))
    return Trace(meta=_meta(config.params, f"rx periodic seed={seed}"), rx=rx)
