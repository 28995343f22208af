import numpy as np
import pytest

from hybridchan import ChannelParams, SimConfig, Trace, apply_channel, generate_tx


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
