import math
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
from hybridchan import rng, sim, write_trace
from hybridchan.sim import _budget, _flips, _gap_table, _gaps, periodic_window_mask
from hybridchan.trace import CRC, OK, PHY

from conftest import make_params, rows, sim_pair
from exact_law import N_SE


def chi_square_z(observed, expected):
    """Wilson-Hilferty z of a chi-square test of observed bin counts against
    expected ones, with neighbouring bins lumped from the left until each
    expects at least 5."""
    lumps, e, o = [], 0.0, 0
    for e_k, o_k in zip(expected.tolist(), observed.tolist()):
        e, o = e + e_k, o + o_k
        if e >= 5:
            lumps.append((e, o))
            e, o = 0.0, 0
    lumps[-1] = (lumps[-1][0] + e, lumps[-1][1] + o)
    stat = sum((o - e) ** 2 / e for e, o in lumps)
    dof = len(lumps) - 1
    return ((stat / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / sqrt(2 / (9 * dof))


def binomial_pmf(n, p):
    """P(k) of Binomial(n, p) for k = 0..n, by the ratio of neighbours."""
    pmf = [(1 - p) ** n]
    for k in range(1, n + 1):
        pmf.append(pmf[-1] * (n - k + 1) / k * p / (1 - p))
    return np.array(pmf)


def error_bits(tx, rx):
    """The error vectors of rx's frames against their tx rows, one 0/1 row
    each (all zero for a frame received clean); no frame may be erased."""
    assert (rx.rx.row >= 0).all()
    xor = tx.tx.packed[tx.tx.row] ^ rx.rx.packed[rx.rx.row]
    return np.unpackbits(xor, axis=1, count=tx.tx.n_bits)


def thresholds(p, n):
    """T_0..T_n of the draw contract, in Python ints."""
    q = 2**64 - math.ceil(p * 2**64)
    ts = [2**64]
    for _ in range(n):
        ts.append(ts[-1] * q >> 64)
    return ts


class TestGenerateTx:
    def test_single_frame(self):
        cfg = SimConfig(params=make_params(frame_len=8), seed=1, n_frames=1)
        tx = generate_tx(cfg)
        [rec] = rows(tx.tx)
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
        assert tx.tx.timestamp_us.tolist() == [20000 * k for k in range(10)]

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
        assert tx.tx.n_bits == 8000
        assert tx.tx.timestamp_us[-1] == 9999 * 20000
        # payload bits are balanced, as uniform bits must be
        sample = tx.tx.payloads(np.arange(0, 10000, 500))
        ones = int(np.unpackbits(sample, axis=1, count=8000).sum())
        n = 20 * 8000
        assert abs(ones / n - 0.5) < 4 * sqrt(0.25 / n)


class TestApplyChannel:
    def test_noiseless_channel_copies_everything(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=40, frame_len=128, seed=3)
        assert len(rx.rx) == len(tx.tx)
        for t, r in zip(rows(tx.tx), rows(rx.rx)):
            assert r.status is ReceiveStatus.OK
            assert np.array_equal(r.payload, t.payload)

    def test_all_erased(self):
        _, rx = sim_pair(r=1.0, s=1.0, p=0.0, n_frames=30, frame_len=64, seed=4)
        assert (rx.rx.status == PHY).all()
        assert (rx.rx.row == -1).all()

    def test_determinism(self):
        params = make_params(r=0.2, s=0.5, p=0.01, frame_len=256)
        cfg = SimConfig(params=params, seed=11, n_frames=60)
        tx = generate_tx(cfg)
        assert apply_channel(tx, cfg) == apply_channel(tx, cfg)

    def test_ok_frames_share_tx_payload_bits(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=50, frame_len=200, seed=5)
        tx_recs = rows(tx.tx)
        for rec in rows(rx.rx):
            if rec.status is ReceiveStatus.OK:
                assert np.array_equal(rec.payload, tx_recs[rec.seq].payload)

    def test_state_frequencies_match_binomial_moments(self):
        # law-of-large-numbers oracle: compare counts against exact binomial
        # moments computed from the parameters
        r, s, p, n = 0.1, 0.7, 0.005, 10000
        frame_len = 400
        tx, rx = sim_pair(r=r, s=s, p=p, n_frames=n, frame_len=frame_len, seed=6)
        counts = {status: 0 for status in ReceiveStatus}
        for rec in rows(rx.rx):
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
        tx_recs = rows(tx.tx)
        for rec in rows(rx.rx):
            if rec.status is ReceiveStatus.CRC_ERROR:
                flips += int(np.count_nonzero(rec.payload != tx_recs[rec.seq].payload))
                bits += frame_len
        se_p = sqrt(p * (1 - p) / bits)
        assert abs(flips / bits - p) <= 3 * se_p

    def test_affine_clock_mapping(self):
        params = make_params(frame_len=16, interval_us=20000)
        cfg = SimConfig(params=params, seed=7, n_frames=20,
                        clock_skew_ppm=100.0, clock_offset_us=12345)
        tx = generate_tx(cfg)
        rx = apply_channel(tx, cfg)
        for t, r in zip(tx.tx.timestamp_us.tolist(), rx.rx.timestamp_us.tolist()):
            assert r == int(round(t * (1 + 100e-6) + 12345))

    def test_jitter_stays_bounded(self):
        params = make_params(frame_len=16, interval_us=20000)
        cfg = SimConfig(params=params, seed=8, n_frames=200,
                        timestamp_jitter_us=50)
        tx = generate_tx(cfg)
        rx = apply_channel(tx, cfg)
        deltas = (rx.rx.timestamp_us - tx.tx.timestamp_us).tolist()
        assert max(abs(d) for d in deltas) <= 51
        assert len(set(deltas)) > 1


class TestRxTimestamps:
    """rx timestamps are computed as floats and cast to the int64 column."""

    # a float cast to int64 out of range wraps with a RuntimeWarning
    @pytest.mark.filterwarnings("error")
    # 10**400 is past any float too: refused before it meets one
    @pytest.mark.parametrize("offset_us", [10**18 - 1, -10**18, 2**63, 10**19,
                                           10**400, -10**400])
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
        assert cfg.regimes[cfg.regime(0)] == base
        assert cfg.regimes[cfg.regime(59)] == base
        assert cfg.regimes[cfg.regime(60)] == noisy
        tx = generate_tx(cfg)
        rx = apply_channel(tx, cfg)
        assert (rx.rx.status[:60] == OK).all()
        assert (rx.rx.status[60:] == CRC).all()

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
        for t, r in zip(rows(tx.tx), rows(rx.rx)):
            if r.status is ReceiveStatus.CRC_ERROR:
                ev = np.bitwise_xor(t.payload, r.payload)
                in_w += int(ev[mask].sum())
                out_w += int(ev[~mask].sum())
        assert out_w == 0 and in_w > 0

    def test_zero_probability_leaves_frames_clean(self):
        cfg = SimConfig(params=make_params(frame_len=600), seed=11, n_frames=40)
        tx = generate_tx(cfg)
        rx = apply_periodic_noise(tx, 288, 32, p_in_burst=0.0, seed=11)
        assert (rx.rx.status == OK).all()

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
        for t, r in zip(rows(tx.tx), rows(rx.rx)):
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


class TestPayloadContract:
    """A payload is the little-endian bytes of ceil(frame_len / 64) words,
    cut to ceil(frame_len / 8) bytes, with the pad bits cleared."""

    @pytest.mark.parametrize("frame_len", [1, 7, 9, 63, 64, 65])
    def test_rows_are_word_bytes_balanced_with_pad_bits_zero(self, frame_len):
        n_frames, n_bytes = 4000, -(-frame_len // 8)
        cfg = SimConfig(params=make_params(frame_len=frame_len), seed=21,
                        n_frames=n_frames)
        packed = generate_tx(cfg).tx.packed
        assert packed.shape == (n_frames, n_bytes)
        pad = (1 << (-frame_len % 8)) - 1
        assert not (packed[:, -1] & pad).any()
        streams = rng.StreamFamily(21, rng.ROLE_TX_PAYLOAD)
        for k in (0, 1, n_frames - 1):
            words = streams.words(k, -(-frame_len // 64))
            row = words.astype("<u8").view(np.uint8)[:n_bytes].copy()
            row[-1] &= 0xFF ^ pad
            assert np.array_equal(packed[k], row)
        bits = np.unpackbits(packed, axis=1, count=frame_len)
        assert abs(bits.mean() - 0.5) < N_SE * sqrt(0.25 / bits.size)
        assert (abs(bits.mean(axis=0) - 0.5) < N_SE * sqrt(0.25 / n_frames)).all()


class TestFlipContract:
    """Flips are geometric gaps, one word each, against integer thresholds."""

    @pytest.mark.parametrize("p, frame_len", [(0.005, 2000), (0.3, 64)])
    def test_counts_are_binomial_and_positions_uniform(self, p, frame_len):
        n_frames = 5000
        tx, rx = sim_pair(r=0.0, s=0.0, p=p, n_frames=n_frames,
                          frame_len=frame_len, seed=31)
        assert (rx.rx.status == CRC).all()
        errors = error_bits(tx, rx)
        counts = np.bincount(errors.sum(axis=1), minlength=frame_len + 1)
        assert chi_square_z(counts, n_frames * binomial_pmf(frame_len, p)) < N_SE
        bins = np.bincount(np.nonzero(errors)[1] * 16 // frame_len, minlength=16)
        assert chi_square_z(bins, np.full(16, bins.sum() / 16)) < N_SE

    def test_periodic_flips_are_binomial_inside_the_windows(self):
        frame_len, period, burst, p, n_frames = 1000, 100, 16, 0.05, 5000
        cfg = SimConfig(params=make_params(frame_len=frame_len), seed=32,
                        n_frames=n_frames)
        tx = generate_tx(cfg)
        rx = apply_periodic_noise(tx, period, burst, p, seed=32)
        errors = error_bits(tx, rx)
        mask = periodic_window_mask(frame_len, period, burst)
        assert not errors[:, ~mask].any()
        in_window = errors[:, mask]
        n_flips = in_window.sum(axis=1)
        # a frame is corrupted exactly when it draws a flip
        assert np.array_equal(rx.rx.status == CRC, n_flips > 0)
        w = int(mask.sum())
        counts = np.bincount(n_flips, minlength=w + 1)
        assert chi_square_z(counts, n_frames * binomial_pmf(w, p)) < N_SE
        bins = np.bincount(np.nonzero(in_window)[1] * 16 // w, minlength=16)
        assert chi_square_z(bins, np.full(16, bins.sum() / 16)) < N_SE

    @pytest.mark.parametrize("p", [0.005, 0.3, 1e-12])
    def test_words_at_a_threshold(self, p):
        # T_k - 1 is below T_k and not below T_{k+1}; T_k is below T_{k-1}.
        # Next to 2**64 a word and its successor round to one float64, so
        # any cast through float would break these.
        n = 100
        ts = thresholds(p, n)
        table = _gap_table(p, n)
        assert table.dtype == np.uint64 and not table.flags.writeable
        assert table.tolist() == [t - 1 for t in reversed(ts[1:])]
        for k in (1, 2, 50, n):
            words = np.array([ts[k] - 1, ts[k]], dtype=np.uint64)
            assert _gaps(table, words).tolist() == [k, k - 1]
        words = np.array([0, 2**64 - 1], dtype=np.uint64)
        assert _gaps(table, words).tolist() == [n, 0]

    def test_p_zero_flips_no_bit_and_p_one_every_bit(self):
        for p, want in ((0.0, 0), (1.0, 1)):
            tx, rx = sim_pair(r=0.0, s=0.0, p=p, n_frames=50, frame_len=77, seed=33)
            assert (rx.rx.status == CRC).all()
            assert (error_bits(tx, rx) == want).all()
            assert not (rx.rx.packed[:, -1] & 0x07).any()  # 3 pad bits
        cfg = SimConfig(params=make_params(frame_len=77), seed=33, n_frames=50)
        tx = generate_tx(cfg)
        rx = apply_periodic_noise(tx, 8, 3, 1.0, seed=33)
        assert (error_bits(tx, rx) == periodic_window_mask(77, 8, 3)).all()

    def test_tiny_p_draws_no_flip(self):
        tx, rx = sim_pair(r=0.0, s=0.0, p=1e-12, n_frames=200, frame_len=8000,
                          seed=34)
        assert (rx.rx.status == CRC).all()
        assert not error_bits(tx, rx).any()

    def test_drift_draws_each_regime_from_its_table(self):
        def params(p):
            return make_params(r=0.0, s=0.0, p=p, frame_len=400)

        ps = (0.01, 0.2, 0.6)
        cfg = SimConfig(params=params(ps[0]), seed=35, n_frames=3000,
                        drift_schedule=((1000, params(ps[1])), (2000, params(ps[2]))))
        tx = generate_tx(cfg)
        errors = error_bits(tx, apply_channel(tx, cfg))
        streams = rng.StreamFamily(35, rng.ROLE_CHANNEL)
        for index, p in enumerate(ps):
            seqs = np.arange(1000 * index, 1000 * (index + 1))
            got = errors[seqs]
            # two head words (erase and clean draws), then the gap words
            want = np.zeros_like(got)
            for hit, positions in _flips(streams, seqs, 2, 400, p):
                want[hit, positions] = 1
            assert np.array_equal(got, want)
            assert abs(got.mean() - p) < N_SE * sqrt(p * (1 - p) / got.size)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_one_word_budget_gives_the_same_bytes(self, tmp_path, monkeypatch,
                                                  periodic):
        # Every frame with a flip uses up a budget of one word, so it draws
        # again with 2, 4, ... words: word i of its stream is the same.
        def rx_bytes(name):
            cfg = SimConfig(params=make_params(r=0.1, s=0.3, p=0.02, frame_len=300),
                            seed=36, n_frames=300, timestamp_jitter_us=10)
            tx = generate_tx(cfg)
            rx = (apply_periodic_noise(tx, 50, 10, 0.1, seed=36) if periodic
                  else apply_channel(tx, cfg))
            write_trace(rx, tmp_path / name)
            return (tmp_path / name).read_bytes()

        want = rx_bytes("budget.trace")
        monkeypatch.setattr(sim, "_budget", lambda n, p: 1)
        assert rx_bytes("one-word.trace") == want

    def test_budget_is_mean_plus_six_sd_and_8_at_most_n_plus_one(self):
        assert _budget(8000, 0.005) == 40 + 37 + 8
        assert _budget(100, 1.0) == _budget(100, 0.9) == 101
        assert _budget(100, 0.0) == 8


def test_reference_workload_draws_at_most_200_words_a_frame(monkeypatch):
    # ROADMAP's reference channel: 125 payload words a frame, 3 head words,
    # and for the 27% of frames corrupted 3 + 85 head and gap words.  The
    # per-bit rules took 1 000 + 3 + 0.27 * 8 003 words, about 3 200.
    drawn = []
    words = rng.StreamFamily.words

    def counted(self, index, n):
        drawn.append(n)
        return words(self, index, n)

    monkeypatch.setattr(rng.StreamFamily, "words", counted)
    cfg = SimConfig(params=make_params(r=0.1, s=0.7, p=0.005, frame_len=8000),
                    seed=37, n_frames=1000, clock_skew_ppm=50.0,
                    clock_offset_us=10000, timestamp_jitter_us=50)
    apply_channel(generate_tx(cfg), cfg)
    assert sum(drawn) <= 200 * cfg.n_frames
