from collections import namedtuple

import numpy as np
import pytest

from hybridchan import ChannelParams, Side, SimConfig, Trace, apply_channel, generate_tx
from hybridchan.trace import STATUSES, UNKNOWN_SEQ

# A hand-made record; payload is a 0/1 bit vector, None for a PHY error.
Row = namedtuple("Row", "seq timestamp_us status payload rssi", defaults=(None, None))


def side(records):
    """The Side holding records of (seq or None, timestamp_us, status, bits or
    None, rssi or None), with the payload bits packed one row each."""
    records = [Row(*r) for r in records]
    held = np.array([r.payload is not None for r in records], dtype=bool)
    bits = np.array([r.payload for r in records if r.payload is not None],
                    dtype=np.uint8)
    n_bits = bits.shape[1] if bits.size else 0
    return Side(seq=[UNKNOWN_SEQ if r.seq is None else r.seq for r in records],
                timestamp_us=[r.timestamp_us for r in records],
                status=[STATUSES.index(r.status) for r in records],
                rssi=[r.rssi or 0 for r in records],
                has_rssi=[r.rssi is not None for r in records],
                row=np.where(held, np.cumsum(held) - 1, -1),
                packed=np.packbits(bits.reshape(len(bits), n_bits), axis=1),
                n_bits=n_bits)


def rows(s):
    """The records of Side s as Rows, read back from its columns."""
    return [Row(None if seq == UNKNOWN_SEQ else seq, ts, STATUSES[status],
                None if row < 0 else np.unpackbits(s.packed[row], count=s.n_bits),
                rssi if has else None)
            for seq, ts, status, row, rssi, has in zip(
                s.seq.tolist(), s.timestamp_us.tolist(), s.status.tolist(),
                s.row.tolist(), s.rssi.tolist(), s.has_rssi.tolist())]


def make_params(r=0.0, s=1.0, p=0.0, rate_bps=54e6, frame_len=8000,
                interval_us=20000):
    return ChannelParams(r=r, s=s, p=p, rate_bps=rate_bps,
                         frame_len=frame_len, interval_us=interval_us)


def sim_pair(r, s, p, n_frames, frame_len, seed, **config_kwargs):
    """Simulated (tx, rx) trace pair for the given hybrid channel."""
    params = make_params(r=r, s=s, p=p, frame_len=frame_len)
    config = SimConfig(params=params, seed=seed, n_frames=n_frames,
                       **config_kwargs)
    tx = generate_tx(config)
    return tx, apply_channel(tx, config)


def joined(tx, rx):
    """One trace of tx's tx side and rx's rx side, as load_pair makes it."""
    return Trace(meta=rx.meta, tx=tx.tx, rx=rx.rx)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
