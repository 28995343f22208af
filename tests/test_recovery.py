from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridchan import (
    FrameRecord,
    ReceiveStatus,
    SimConfig,
    Trace,
    TraceMeta,
    apply_channel,
    fit_clock,
    generate_tx,
    recover_sequence,
    recover_trace,
)
from hybridchan.recovery import RecoverySummary, _nearest

from conftest import joined, make_params, sim_pair


class TestFitClock:
    def test_identity_clock(self):
        anchors = [(k * 1000, k * 1000) for k in range(10)]
        fit = fit_clock(anchors)
        assert fit.rate == pytest.approx(1.0, rel=1e-12)
        assert fit.offset_us == pytest.approx(0.0, abs=1e-9)
        assert fit.residual_rms_us == pytest.approx(0.0, abs=1e-9)

    def test_exact_affine_data(self):
        rate, offset = 1.00005, 337
        anchors = [(k * 20000, round(rate * k * 20000 + offset))
                   for k in range(100)]
        fit = fit_clock(anchors, window_size=None)
        assert fit.rate == pytest.approx(rate, rel=1e-9)
        assert fit.offset_us == pytest.approx(offset, rel=1e-6)

    def test_needs_two_anchors(self):
        with pytest.raises(ValueError, match="two anchors"):
            fit_clock([(0, 0)])

    def test_degenerate_same_tx_time(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_clock([(5, 10), (5, 20)])

    def test_window_selects_anchors_near_query(self):
        anchors = [(k * 1000, k * 1000) for k in range(100)]
        # corrupt the early anchors; a query near the end must ignore them
        anchors[0] = (0, 999999)
        fit = fit_clock(anchors, window_size=10, query_rx_time_us=95_000)
        assert fit.rate == pytest.approx(1.0, rel=1e-9)
        assert len(fit.window) == 10

    def test_rate_recovery_under_jitter(self):
        # 50 ppm skew, +/-50 us uniform jitter, 100 anchors spaced 60 ms:
        # the OLS rate standard error is sigma/sqrt(sum dx^2) ~ 1.7 ppm, so
        # the error stays below 5 ppm in at least 95% of seeds
        true_rate = 1 + 50e-6
        hits = 0
        n_seeds = 200
        for seed in range(n_seeds):
            gen = np.random.default_rng(seed)
            tx_t = np.arange(100) * 60000
            rx_t = np.round(true_rate * tx_t + 5000
                            + gen.uniform(-50, 50, 100)).astype(int)
            fit = fit_clock(list(zip(tx_t.tolist(), rx_t.tolist())),
                            window_size=None)
            hits += abs(fit.rate - true_rate) < 5e-6
        assert hits / n_seeds >= 0.95


def scrubbed(rec):
    return FrameRecord(seq=None, timestamp_us=rec.timestamp_us,
                       status=rec.status, payload=rec.payload, rssi=rec.rssi)


class TestRecoverSequence:
    def test_exact_clock_low_noise_recovers_everything(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=600, frame_len=1000,
                          seed=20)
        rx_ok = [r for r in rx.rx if r.status is ReceiveStatus.OK]
        corrupted = [r for r in rx.rx if r.status is ReceiveStatus.CRC_ERROR]
        assert len(corrupted) > 200
        for rec in corrupted:
            assert recover_sequence(scrubbed(rec), rx_ok, tx) == rec.seq

    def test_skew_and_offset_tolerated(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.05, n_frames=600, frame_len=1000,
                          seed=21, clock_skew_ppm=100.0,
                          clock_offset_us=10_000)
        rx_ok = [r for r in rx.rx if r.status is ReceiveStatus.OK]
        corrupted = [r for r in rx.rx if r.status is ReceiveStatus.CRC_ERROR]
        correct = sum(
            recover_sequence(scrubbed(rec), rx_ok, tx) == rec.seq
            for rec in corrupted
        )
        assert correct / len(corrupted) >= 0.99

    def test_unrelated_payload_unresolved(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=100, frame_len=1000,
                          seed=22)
        gen = np.random.default_rng(99)
        alien = FrameRecord(seq=None, timestamp_us=50 * 20000 + 3,
                            status=ReceiveStatus.CRC_ERROR,
                            payload=gen.integers(0, 2, 1000, dtype=np.uint8))
        assert recover_sequence(alien, rx.rx, tx) is None

    def test_no_ok_frames_unresolved(self):
        tx, rx = sim_pair(r=0.0, s=0.0, p=0.02, n_frames=50, frame_len=500,
                          seed=23)
        rec = scrubbed(rx.rx[10])
        assert recover_sequence(rec, [], tx) is None

    def test_header_seq_breaks_payload_ties(self):
        # tx frames 3 (0b011) and 4 (0b100) share a payload and sit more
        # than 2 bit flips apart, so only the true header is "close"
        meta = TraceMeta(rate_bps=54e6, frame_len=64, interval_us=20000)
        gen = np.random.default_rng(5)
        shared = gen.integers(0, 2, 64, dtype=np.uint8)
        tx_recs = []
        for seq in range(8):
            payload = shared if seq in (3, 4) else gen.integers(
                0, 2, 64, dtype=np.uint8)
            tx_recs.append(FrameRecord(seq=seq, timestamp_us=seq * 20000,
                                       status=ReceiveStatus.OK,
                                       payload=payload))
        tx = Trace.from_records(meta, tx=tx_recs)
        rx_ok = [FrameRecord(seq=s, timestamp_us=s * 20000,
                             status=ReceiveStatus.OK,
                             payload=tx_recs[s].payload)
                 for s in (0, 1, 2, 5, 6, 7)]
        # timestamp exactly halfway between frames 3 and 4 so the time
        # tie-break cannot decide either
        corrupted = FrameRecord(seq=3, timestamp_us=70000,
                                status=ReceiveStatus.CRC_ERROR,
                                payload=shared)
        assert recover_sequence(corrupted, rx_ok, tx) == 3
        corrupted_other = FrameRecord(seq=4, timestamp_us=70000,
                                      status=ReceiveStatus.CRC_ERROR,
                                      payload=shared)
        assert recover_sequence(corrupted_other, rx_ok, tx) == 4


class TestRecoverTrace:
    def test_scrub_mode_scores_against_ground_truth(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=400, frame_len=1000,
                          seed=24, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        recovered, summary = recover_trace(joined(tx, rx), scrub=True)
        assert summary.n_attempted == summary.n_corrupted > 100
        assert summary.accuracy == 1.0
        assert len(recovered.rx) == len(rx.rx)

    def test_only_unknown_seqs_attempted_without_scrub(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=200, frame_len=500,
                          seed=25)
        stripped = []
        n_unknown = 0
        for i, rec in enumerate(rx.rx):
            if rec.status is ReceiveStatus.CRC_ERROR and i % 2 == 0:
                stripped.append(scrubbed(rec))
                n_unknown += 1
            else:
                stripped.append(rec)
        rx_stripped = Trace.from_records(rx.meta, rx=stripped)
        _, summary = recover_trace(joined(tx, rx_stripped))
        assert summary.n_attempted == n_unknown
        assert summary.n_correct is None and summary.accuracy is None

    def test_recovered_trace_fills_seqs(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=200, frame_len=500,
                          seed=26)
        stripped = Trace.from_records(rx.meta, rx=[
            scrubbed(rec) if rec.status is ReceiveStatus.CRC_ERROR else rec
            for rec in rx.rx
        ])
        recovered, summary = recover_trace(joined(tx, stripped))
        assert summary.n_unresolved == 0
        filled = [rec.seq for rec in recovered.rx
                  if rec.status is ReceiveStatus.CRC_ERROR]
        truth = [rec.seq for rec in rx.rx
                 if rec.status is ReceiveStatus.CRC_ERROR]
        assert filled == truth


# --- reference: recovery as it was before the per-trace index --------------
# Every corrupted frame rebuilds the anchor list and the tx-time array and
# ranks them with a stable argsort over the whole trace.  The indexed
# implementation must give the same answers.

def reference_fit(anchors, window_size, query_rx_time_us):
    if window_size is not None and len(anchors) > window_size:
        rx_times = np.array([a[1] for a in anchors], dtype=np.float64)
        nearest = np.argsort(np.abs(rx_times - float(query_rx_time_us)),
                             kind="stable")[:window_size]
        anchors = [anchors[i] for i in sorted(nearest)]
    tx_t = np.array([a[0] for a in anchors], dtype=np.float64)
    rx_t = np.array([a[1] for a in anchors], dtype=np.float64)
    dx = tx_t - tx_t.mean()
    rate = float(np.dot(dx, rx_t - rx_t.mean())) / float(np.dot(dx, dx))
    return rate, float(rx_t.mean() - rate * tx_t.mean())


def reference_recover_sequence(corrupted, rx_ok, tx, window_size=50,
                               max_candidates=5, match_threshold=0.4):
    anchors = [
        (tx.tx[rec.seq].timestamp_us, rec.timestamp_us)
        for rec in rx_ok
        if rec.status is ReceiveStatus.OK and rec.seq is not None
    ]
    if len(anchors) < 2:
        return None
    rate, offset = reference_fit(anchors, window_size, corrupted.timestamp_us)
    predicted_tx_us = (corrupted.timestamp_us - offset) / rate
    tx_times = np.array([rec.timestamp_us for rec in tx.tx], dtype=np.float64)
    order = np.argsort(np.abs(tx_times - predicted_tx_us), kind="stable")
    scored = []
    for idx in order[:max_candidates]:
        cand = tx.tx[int(idx)]
        dist = int(np.count_nonzero(cand.payload != corrupted.payload))
        seq_close = (corrupted.seq is not None
                     and (cand.seq ^ corrupted.seq).bit_count() <= 2)
        scored.append((dist, not seq_close,
                       abs(cand.timestamp_us - predicted_tx_us), cand.seq))
    if not scored:
        return None
    scored.sort()
    best_dist, _, _, best_seq = scored[0]
    return best_seq if best_dist / tx.meta.frame_len < match_threshold else None


def reference_recover_trace(tx, rx, scrub):
    rx_ok = [rec for rec in rx.rx
             if rec.status is ReceiveStatus.OK and rec.seq is not None]
    summary = RecoverySummary(0, 0, 0, 0, n_correct=0 if scrub else None)
    new_rx = []
    for rec in rx.rx:
        if rec.status is not ReceiveStatus.CRC_ERROR:
            new_rx.append(rec)
            continue
        summary.n_corrupted += 1
        if rec.seq is not None and not scrub:
            new_rx.append(rec)
            continue
        target = replace(rec, seq=None) if scrub else rec
        summary.n_attempted += 1
        recovered = reference_recover_sequence(target, rx_ok, tx)
        if recovered is None:
            summary.n_unresolved += 1
            new_rx.append(target)
        else:
            summary.n_recovered += 1
            if scrub and recovered == rec.seq:
                summary.n_correct += 1
            new_rx.append(replace(rec, seq=recovered))
    return Trace.from_records(tx.meta, rx=new_rx), summary


def coarsened(rx, step_us):
    """rx with timestamps rounded down to step_us, so neighbours share one."""
    return Trace.from_records(rx.meta, rx=[
        replace(rec, timestamp_us=rec.timestamp_us // step_us * step_us)
        for rec in rx.rx
    ])


def assert_matches_reference(tx, rx, scrub):
    got, summary = recover_trace(joined(tx, rx), scrub=scrub)
    want, want_summary = reference_recover_trace(tx, rx, scrub)
    assert summary == want_summary
    assert got == want


class TestMatchesReference:
    def test_jittered_trace(self):
        tx, rx = sim_pair(r=0.1, s=0.5, p=0.05, n_frames=500, frame_len=400,
                          seed=31, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        assert_matches_reference(tx, rx, scrub=True)
        stripped = Trace.from_records(rx.meta, rx=[
            scrubbed(rec) if rec.status is ReceiveStatus.CRC_ERROR
            and rec.seq % 3 == 0 else rec
            for rec in rx.rx
        ])
        assert_matches_reference(tx, stripped, scrub=False)

    def test_duplicate_rx_timestamps(self):
        # 50 ms steps put two or three 20 ms frames on each timestamp, so
        # the clock-fit window is cut inside runs of equal anchor times
        tx, rx = sim_pair(r=0.1, s=0.5, p=0.02, n_frames=400, frame_len=400,
                          seed=32, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        rx = coarsened(rx, 50_000)
        assert len({rec.timestamp_us for rec in rx.rx}) < len(rx.rx) // 2
        assert_matches_reference(tx, rx, scrub=True)

    def test_exact_midpoint_tie(self):
        meta = TraceMeta(rate_bps=54e6, frame_len=64, interval_us=20000)
        gen = np.random.default_rng(5)
        shared = gen.integers(0, 2, 64, dtype=np.uint8)
        tx = Trace.from_records(meta, tx=[
            FrameRecord(seq=seq, timestamp_us=seq * 20000,
                        status=ReceiveStatus.OK,
                        payload=shared if seq in (3, 4)
                        else gen.integers(0, 2, 64, dtype=np.uint8))
            for seq in range(8)
        ])
        rx_ok = [replace(tx.tx[s]) for s in (0, 1, 2, 5, 6, 7)]
        for seq in (3, 4, None):
            corrupted = FrameRecord(seq=seq, timestamp_us=70000,
                                    status=ReceiveStatus.CRC_ERROR,
                                    payload=shared)
            for window, candidates in ((50, 5), (3, 2), (2, 1), (4, 3)):
                assert recover_sequence(
                    corrupted, rx_ok, tx, window, candidates
                ) == reference_recover_sequence(
                    corrupted, rx_ok, tx, window, candidates)

    def test_unsorted_rx_ok(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.02, n_frames=300, frame_len=400,
                          seed=33, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        rx_ok = [r for r in rx.rx if r.status is ReceiveStatus.OK]
        np.random.default_rng(0).shuffle(rx_ok)
        corrupted = [r for r in rx.rx if r.status is ReceiveStatus.CRC_ERROR]
        assert len(corrupted) > 100
        for rec in corrupted:
            target = scrubbed(rec)
            got = recover_sequence(target, rx_ok, tx, window_size=20)
            assert got == reference_recover_sequence(target, rx_ok, tx, 20)
            assert got == rec.seq


@given(
    st.lists(st.integers(0, 12), max_size=40),
    st.integers(-2, 28).map(lambda c: c / 2),
    st.integers(-3, 45),
)
def test_nearest_matches_full_stable_argsort(values, centre, k):
    t = np.sort(np.array(values, dtype=np.float64))
    want = np.sort(np.argsort(np.abs(t - centre), kind="stable")[:k])
    assert np.array_equal(_nearest(t, centre, k), want)
