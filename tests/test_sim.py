from math import sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridchan import (
    ChannelParams,
    ReceiveStatus,
    SimConfig,
    TraceError,
    apply_channel,
    apply_periodic_noise,
    generate_tx,
)
from hybridchan.sim import periodic_window_mask

from conftest import make_params, sim_pair


class TestGenerateTx:
    def test_single_frame(self):
        cfg = SimConfig(params=make_params(frame_len=8), seed=1, n_frames=1)
        tx = generate_tx(cfg)
        assert len(tx.tx) == 1
        rec = tx.tx[0]
        assert rec.seq == 0 and rec.timestamp_us == 0
        assert rec.payload.size == 8

    def test_determinism(self):
        cfg = SimConfig(params=make_params(frame_len=512), seed=99, n_frames=50)
        assert generate_tx(cfg) == generate_tx(cfg)

    def test_seed_changes_payloads(self):
        cfg_a = SimConfig(params=make_params(frame_len=512), seed=1, n_frames=5)
        cfg_b = SimConfig(params=make_params(frame_len=512), seed=2, n_frames=5)
        assert generate_tx(cfg_a) != generate_tx(cfg_b)

    def test_timestamps_follow_cadence(self):
        cfg = SimConfig(params=make_params(frame_len=16, interval_us=20000),
                        seed=0, n_frames=10)
        tx = generate_tx(cfg)
        assert [r.timestamp_us for r in tx.tx] == [20000 * k for k in range(10)]

    def test_timestamps_past_18_digits_refused(self):
        cfg = SimConfig(params=make_params(frame_len=8, interval_us=10**17),
                        seed=0, n_frames=11)
        with pytest.raises(TraceError, match="timestamp_us values must have at most"):
            generate_tx(cfg)

    def test_full_scale_run_shape(self):
        cfg = SimConfig(params=make_params(frame_len=8000, interval_us=20000),
                        seed=0, n_frames=10000)
        tx = generate_tx(cfg)
        assert len(tx.tx) == 10000
        assert tx.tx[0].payload.size == 8000
        assert tx.tx[-1].timestamp_us == 9999 * 20000
        # payload bits are balanced, as uniform bits must be
        ones = sum(int(tx.tx[k].payload.sum()) for k in range(0, 10000, 500))
        n = 20 * 8000
        assert abs(ones / n - 0.5) < 4 * sqrt(0.25 / n)


class TestApplyChannel:
    def test_noiseless_channel_copies_everything(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=40, frame_len=128, seed=3)
        assert len(rx.rx) == len(tx.tx)
        for t, r in zip(tx.tx, rx.rx):
            assert r.status is ReceiveStatus.OK
            assert np.array_equal(r.payload, t.payload)

    def test_all_erased(self):
        _, rx = sim_pair(r=1.0, s=1.0, p=0.0, n_frames=30, frame_len=64, seed=4)
        assert all(r.status is ReceiveStatus.PHY_ERROR for r in rx.rx)
        assert all(r.payload is None for r in rx.rx)

    def test_determinism(self):
        params = make_params(r=0.2, s=0.5, p=0.01, frame_len=256)
        cfg = SimConfig(params=params, seed=11, n_frames=60)
        tx = generate_tx(cfg)
        assert apply_channel(tx, cfg) == apply_channel(tx, cfg)

    def test_ok_frames_share_tx_payload_bits(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=50, frame_len=200, seed=5)
        for rec in rx.rx:
            if rec.status is ReceiveStatus.OK:
                assert np.array_equal(rec.payload, tx.tx[rec.seq].payload)

    def test_state_frequencies_match_binomial_moments(self):
        # law-of-large-numbers oracle: compare counts against exact binomial
        # moments computed from the parameters
        r, s, p, n = 0.1, 0.7, 0.005, 10000
        frame_len = 400
        tx, rx = sim_pair(r=r, s=s, p=p, n_frames=n, frame_len=frame_len, seed=6)
        counts = {status: 0 for status in ReceiveStatus}
        for rec in rx.rx:
            counts[rec.status] += 1
        expected = {
            ReceiveStatus.PHY_ERROR: r,
            ReceiveStatus.OK: (1 - r) * s,
            ReceiveStatus.CRC_ERROR: (1 - r) * (1 - s),
        }
        for status, prob in expected.items():
            se = sqrt(prob * (1 - prob) * n)
            assert abs(counts[status] - prob * n) <= 3 * se, status
        flips = bits = 0
        for rec in rx.rx:
            if rec.status is ReceiveStatus.CRC_ERROR:
                flips += int(np.count_nonzero(rec.payload != tx.tx[rec.seq].payload))
                bits += frame_len
        se_p = sqrt(p * (1 - p) / bits)
        assert abs(flips / bits - p) <= 3 * se_p

    def test_affine_clock_mapping(self):
        params = make_params(frame_len=16, interval_us=20000)
        cfg = SimConfig(params=params, seed=7, n_frames=20,
                        clock_skew_ppm=100.0, clock_offset_us=12345)
        tx = generate_tx(cfg)
        rx = apply_channel(tx, cfg)
        for t, r in zip(tx.tx, rx.rx):
            expected = int(round(t.timestamp_us * (1 + 100e-6) + 12345))
            assert r.timestamp_us == expected

    def test_jitter_stays_bounded(self):
        params = make_params(frame_len=16, interval_us=20000)
        cfg = SimConfig(params=params, seed=8, n_frames=200,
                        timestamp_jitter_us=50)
        tx = generate_tx(cfg)
        rx = apply_channel(tx, cfg)
        deltas = [r.timestamp_us - t.timestamp_us for t, r in zip(tx.tx, rx.rx)]
        assert max(abs(d) for d in deltas) <= 51
        assert len(set(deltas)) > 1


class TestRxTimestamps:
    """rx timestamps are computed as floats and cast to the int64 column."""

    # a float cast to int64 out of range wraps with a RuntimeWarning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset_us", [10**18 - 1, -10**18, 2**63, 10**19])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_past_18_digits_refused_not_wrapped(self, offset_us, periodic):
        cfg = SimConfig(params=make_params(frame_len=16, interval_us=1000),
                        seed=0, n_frames=3, clock_offset_us=offset_us)
        tx = generate_tx(cfg)
        with pytest.raises(TraceError, match="timestamp_us values must have at most 18"):
            if periodic:
                apply_periodic_noise(tx, 8, 2, 0.1, seed=0, clock_offset_us=offset_us)
            else:
                apply_channel(tx, cfg)

    def test_largest_offset_in_range_kept(self):
        offset_us = 10**18 - 2**10
        cfg = SimConfig(params=make_params(frame_len=16, interval_us=1),
                        seed=0, n_frames=3, clock_offset_us=offset_us)
        rx = apply_channel(generate_tx(cfg), cfg)
        assert rx.rx.timestamp_us.tolist() == [
            int(round(k + float(offset_us))) for k in range(3)]

    @pytest.mark.parametrize("periodic", [False, True])
    def test_halves_round_to_even_as_round_does(self, periodic):
        cfg = SimConfig(params=make_params(frame_len=16, interval_us=1),
                        seed=0, n_frames=12, clock_skew_ppm=500000)
        tx = generate_tx(cfg)
        rx = (apply_periodic_noise(tx, 8, 2, 0.1, seed=0, clock_skew_ppm=500000)
              if periodic else apply_channel(tx, cfg))
        want = [round(k * 1.5) for k in range(12)]
        assert want[:6] == [0, 2, 3, 4, 6, 8]
        assert rx.rx.timestamp_us.tolist() == want


class TestDriftSchedule:
    def test_params_switch_at_change_point(self):
        base = make_params(p=0.0, s=1.0, frame_len=64)
        noisy = make_params(p=0.5, s=0.0, frame_len=64)
        cfg = SimConfig(params=base, seed=9, n_frames=100,
                        drift_schedule=((60, noisy),))
        assert cfg.params_at(0) == base
        assert cfg.params_at(59) == base
        assert cfg.params_at(60) == noisy
        tx = generate_tx(cfg)
        rx = apply_channel(tx, cfg)
        assert all(r.status is ReceiveStatus.OK for r in rx.rx[:60])
        assert all(r.status is ReceiveStatus.CRC_ERROR for r in rx.rx[60:])

    def test_schedule_validation(self):
        base = make_params(frame_len=64)
        with pytest.raises(ValueError):
            SimConfig(params=base, seed=0, n_frames=10,
                      drift_schedule=((12, base),))
        with pytest.raises(ValueError):
            SimConfig(params=base, seed=0, n_frames=10,
                      drift_schedule=((5, base), (3, base)))

    @pytest.mark.parametrize("change", [{"frame_len": 800},
                                        {"rate_bps": 11e6},
                                        {"interval_us": 10000}])
    def test_schedule_keeps_frame_format(self, change):
        base = make_params(frame_len=400)
        drifted = make_params(**{"frame_len": 400, "p": 0.1, **change})
        with pytest.raises(ValueError, match=f"changes {next(iter(change))}"):
            SimConfig(params=base, seed=0, n_frames=10,
                      drift_schedule=((5, drifted),))


class TestClockModel:
    @pytest.mark.parametrize("clock", [
        {"clock_skew_ppm": float("nan")},
        {"clock_skew_ppm": float("inf")},
        {"clock_skew_ppm": -2e6},
        {"timestamp_jitter_us": 51},
        {"timestamp_jitter_us": 50, "clock_skew_ppm": -1.0},
    ])
    def test_clock_that_could_reorder_rx_refused(self, clock):
        with pytest.raises(ValueError):
            SimConfig(params=make_params(frame_len=64, interval_us=100),
                      n_frames=10, **clock)

    @pytest.mark.parametrize("skew", [float("nan"), -2e6])
    def test_periodic_clock_that_could_reorder_rx_refused(self, skew):
        cfg = SimConfig(params=make_params(frame_len=64, interval_us=100),
                        n_frames=10)
        with pytest.raises(ValueError, match="clock_skew_ppm=nan|run backwards"):
            apply_periodic_noise(generate_tx(cfg), 32, 8, 0.1, seed=0,
                                 clock_skew_ppm=skew)


class TestPeriodicNoise:
    def test_mask_layout(self):
        mask = periodic_window_mask(10, period=4, burst_len=2)
        assert mask.tolist() == [True, True, False, False,
                                 True, True, False, False, True, True]

    @given(st.integers(1, 80), st.data())
    def test_mask_matches_window_loop(self, frame_len, data):
        period = data.draw(st.integers(1, frame_len))
        burst_len = data.draw(st.integers(1, period))
        want = np.zeros(frame_len, dtype=bool)
        for start in range(0, frame_len, period):
            want[start : start + burst_len] = True
        assert np.array_equal(periodic_window_mask(frame_len, period, burst_len), want)

    def test_no_flips_outside_windows(self):
        cfg = SimConfig(params=make_params(frame_len=2000), seed=10, n_frames=80)
        tx = generate_tx(cfg)
        rx = apply_periodic_noise(tx, period=288, burst_len=32,
                                  p_in_burst=0.2, seed=10)
        mask = periodic_window_mask(2000, 288, 32)
        in_w = out_w = 0
        for t, r in zip(tx.tx, rx.rx):
            if r.status is ReceiveStatus.CRC_ERROR:
                ev = np.bitwise_xor(t.payload, r.payload)
                in_w += int(ev[mask].sum())
                out_w += int(ev[~mask].sum())
        assert out_w == 0 and in_w > 0

    def test_zero_probability_leaves_frames_clean(self):
        cfg = SimConfig(params=make_params(frame_len=600), seed=11, n_frames=40)
        tx = generate_tx(cfg)
        rx = apply_periodic_noise(tx, 288, 32, p_in_burst=0.0, seed=11)
        assert all(r.status is ReceiveStatus.OK for r in rx.rx)

    def test_full_window_degenerates_to_uniform(self):
        # burst_len == period: every position eligible, marginal flip rate
        # p_in_burst everywhere
        frame_len, p = 1000, 0.05
        cfg = SimConfig(params=make_params(frame_len=frame_len), seed=12,
                        n_frames=400)
        tx = generate_tx(cfg)
        rx = apply_periodic_noise(tx, period=frame_len, burst_len=frame_len,
                                  p_in_burst=p, seed=12)
        total = np.zeros(frame_len, dtype=np.int64)
        n_bad = 0
        for t, r in zip(tx.tx, rx.rx):
            if r.status is ReceiveStatus.CRC_ERROR:
                total += np.bitwise_xor(t.payload, r.payload)
                n_bad += 1
        freq = total / n_bad
        se = sqrt(p * (1 - p) / n_bad)
        assert np.all(np.abs(freq - p) < 5 * se)

    def test_parameter_validation(self):
        cfg = SimConfig(params=make_params(frame_len=100), seed=0, n_frames=1)
        tx = generate_tx(cfg)
        with pytest.raises(ValueError):
            apply_periodic_noise(tx, period=50, burst_len=60, p_in_burst=0.1,
                                 seed=0)
        with pytest.raises(ValueError):
            apply_periodic_noise(tx, period=200, burst_len=10, p_in_burst=0.1,
                                 seed=0)
