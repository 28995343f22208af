import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hybridchan.trace
from hybridchan import (
    ReceiveStatus,
    Trace,
    TraceMeta,
    recover_trace,
)
from hybridchan import recovery
from hybridchan.recovery import RecoverySummary, _nearest, _ols
from hybridchan.trace import CRC, OK, UNKNOWN_SEQ

from conftest import Row, joined, rows, side, sim_pair


class TestFitClock:
    """The clock fit: _ols over the _nearest window of anchors, a row each."""

    def test_identity_clock(self):
        t = np.arange(10) * 1000.0
        rate, offset, ok = _ols(t[None], t[None])
        assert ok.tolist() == [True]
        assert rate[0] == pytest.approx(1.0, rel=1e-12)
        assert offset[0] == pytest.approx(0.0, abs=1e-9)

    def test_exact_affine_data(self):
        rates, offsets = np.array([1.00005, 0.99995, 2.0]), np.array([337, -5000, 0])
        tx_t = np.arange(100) * 20000.0
        rx_t = np.round(rates[:, None] * tx_t + offsets[:, None])
        fit_rate, fit_offset, ok = _ols(np.tile(tx_t, (3, 1)), rx_t)
        assert ok.all()
        assert fit_rate == pytest.approx(rates, rel=1e-9)
        assert fit_offset == pytest.approx(offsets, rel=1e-6, abs=1e-6)

    def test_needs_two_anchors(self):
        # one clean frame cannot fix a clock, so the corrupted one stays open
        trace = anchored_trace(anchor_tx=[0], anchor_rx=[0])
        recovered, summary = recover_trace(trace)
        assert summary.n_attempted == summary.n_unresolved == 1
        assert recovered.rx.seq.tolist() == [0, -1]
        recovered, summary = recover_trace(anchored_trace([0, 10], [0, 10]))
        assert summary.n_recovered == 1
        assert recovered.rx.seq.tolist() == [0, 1, 1]

    def test_degenerate_same_tx_time(self):
        rate, _, ok = _ols(np.array([[5.0, 5.0], [0.0, 1.0], [0.0, 1.0]]),
                           np.array([[10.0, 20.0], [7.0, 7.0], [7.0, 6.0]]))
        assert ok.tolist() == [False, False, False]
        assert rate.tolist() == [0.0, 0.0, -1.0]
        for tx_ts, rx_ts in (([0, 0, 0], [0, 5, 10]), ([0, 10, 20], [7, 7, 7])):
            _, summary = recover_trace(anchored_trace(tx_ts, rx_ts))
            assert summary.n_attempted == summary.n_unresolved == 1

    def test_window_selects_anchors_near_query(self):
        tx_t = np.arange(100) * 1000.0
        rx_t = tx_t.copy()
        # corrupt the earliest anchor; a window near the end must ignore it,
        # and one near its corrupted time must take it
        rx_t[0] = 999999.0
        order = np.argsort(rx_t, kind="stable")
        window = _nearest(rx_t[order], np.array([95_000.0, 999_000.0]), 10)
        assert window.shape == (2, 10)
        assert 0 not in order[window[0]]
        assert 0 in order[window[1]]
        rate, _, ok = _ols(tx_t[order][window], rx_t[order][window])
        assert ok[0] and rate[0] == pytest.approx(1.0, rel=1e-9)
        assert rate[1] != pytest.approx(1.0, rel=1e-3)

    def test_rate_recovery_under_jitter(self):
        # 50 ppm skew, +/-50 us uniform jitter, 100 anchors spaced 60 ms:
        # the OLS rate standard error is sigma/sqrt(sum dx^2) ~ 1.7 ppm, so
        # the error stays below 5 ppm in at least 95% of seeds
        true_rate = 1 + 50e-6
        n_seeds = 200
        tx_t = np.arange(100) * 60000
        rx_t = np.array([
            np.round(true_rate * tx_t + 5000
                     + np.random.default_rng(seed).uniform(-50, 50, 100))
            for seed in range(n_seeds)
        ])
        rate, _, ok = _ols(np.tile(tx_t.astype(np.float64), (n_seeds, 1)), rx_t)
        assert ok.all()
        assert np.mean(np.abs(rate - true_rate) < 5e-6) >= 0.95

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 31, 49, 50])
    def test_ols_matches_reference_bit_for_bit(self, width):
        # integer times as the traces hold them, around 1e9 us, and rows
        # with one tx time, one rx time or a falling clock among them
        gen = np.random.default_rng(width)
        tx_t = np.sort(gen.integers(0, 10**9, (40, width)), axis=1).astype(np.float64)
        rx_t = np.round(tx_t * gen.uniform(0.999, 1.001, (40, 1))
                        + gen.integers(-10**4, 10**4, (40, 1))
                        + gen.uniform(-50, 50, (40, width)))
        tx_t[0], rx_t[1], rx_t[2] = tx_t[0, 0], rx_t[1, 0], -rx_t[2]
        rate, offset, ok = _ols(tx_t, rx_t)
        for i in range(40):
            want_rate, want_offset = reference_fit(list(zip(tx_t[i], rx_t[i])), 0)
            assert (rate[i], offset[i], ok[i]) == (want_rate, want_offset,
                                                   want_rate > 0)


def anchored_trace(anchor_tx, anchor_rx):
    """Clean frames 0.. at the given tx/rx times, all with one payload, and
    a corrupted `?` copy received with the last of them."""
    meta = TraceMeta(rate_bps=54e6, frame_len=64, interval_us=20000)
    payload = np.random.default_rng(8).integers(0, 2, 64, dtype=np.uint8)
    tx = [Row(seq=k, timestamp_us=t, status=ReceiveStatus.OK, payload=payload)
          for k, t in enumerate([*anchor_tx, anchor_tx[-1]])]
    rx = [Row(seq=k, timestamp_us=t, status=ReceiveStatus.OK, payload=payload)
          for k, t in enumerate(anchor_rx)]
    rx.append(Row(seq=None, timestamp_us=anchor_rx[-1],
                  status=ReceiveStatus.CRC_ERROR, payload=payload))
    return Trace(meta, side(tx), side(rx))


def scrubbed(rec):
    return rec._replace(seq=None)


class TestRecoverSequence:
    """Whole-trace runs of recover_trace on simulated traces."""

    def test_exact_clock_low_noise_recovers_everything(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=600, frame_len=1000,
                          seed=20)
        recovered, summary = recover_trace(joined(tx, rx), scrub=True)
        assert summary.n_attempted == summary.n_corrupted > 200
        assert summary.n_correct == summary.n_attempted
        assert np.array_equal(recovered.rx.seq, rx.rx.seq)
        assert_matches_reference(tx, rx, scrub=True)

    def test_skew_and_offset_tolerated(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.05, n_frames=600, frame_len=1000,
                          seed=21, clock_skew_ppm=100.0,
                          clock_offset_us=10_000)
        _, summary = recover_trace(joined(tx, rx), scrub=True)
        assert summary.n_attempted == summary.n_corrupted > 0
        assert summary.accuracy >= 0.99
        assert_matches_reference(tx, rx, scrub=True)

    def test_unrelated_payload_unresolved(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=100, frame_len=1000,
                          seed=22)
        gen = np.random.default_rng(99)
        alien = Row(seq=None, timestamp_us=50 * 20000 + 3,
                    status=ReceiveStatus.CRC_ERROR,
                    payload=gen.integers(0, 2, 1000, dtype=np.uint8))
        records = rows(rx.rx)
        with_alien = Trace(rx.meta, rx=side(records[:51] + [alien] + records[51:]))
        recovered, summary = recover_trace(joined(tx, with_alien))
        assert (summary.n_attempted, summary.n_unresolved) == (1, 1)
        assert recovered.rx.seq[51] == UNKNOWN_SEQ
        assert_matches_reference(tx, with_alien, scrub=False)

    def test_no_ok_frames_unresolved(self):
        tx, rx = sim_pair(r=0.0, s=0.0, p=0.02, n_frames=50, frame_len=500,
                          seed=23)
        recovered, summary = recover_trace(joined(tx, rx), scrub=True)
        assert summary.n_attempted == summary.n_unresolved == len(rx.rx)
        assert (recovered.rx.seq == -1).all()
        assert_matches_reference(tx, rx, scrub=True)


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
        for i, rec in enumerate(rows(rx.rx)):
            if rec.status is ReceiveStatus.CRC_ERROR and i % 2 == 0:
                stripped.append(scrubbed(rec))
                n_unknown += 1
            else:
                stripped.append(rec)
        rx_stripped = Trace(rx.meta, rx=side(stripped))
        _, summary = recover_trace(joined(tx, rx_stripped))
        assert summary.n_attempted == n_unknown
        assert summary.n_correct is None and summary.accuracy is None

    def test_recovered_trace_fills_seqs(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=200, frame_len=500,
                          seed=26)
        stripped = Trace(rx.meta, rx=side(
            scrubbed(rec) if rec.status is ReceiveStatus.CRC_ERROR else rec
            for rec in rows(rx.rx)
        ))
        recovered, summary = recover_trace(joined(tx, stripped))
        assert summary.n_unresolved == 0
        filled = recovered.rx.seq[recovered.rx.status == CRC]
        truth = rx.rx.seq[rx.rx.status == CRC]
        assert filled.tolist() == truth.tolist()


# --- reference: recovery as it was before the per-trace index --------------
# Every corrupted frame rebuilds the anchor list and the tx-time array and
# ranks them with a stable argsort over the whole trace, with recovery's
# window of 50 anchors, 5 candidates and threshold 0.4.  The indexed
# implementation must give the same answers.

def reference_fit(anchors, query_rx_time_us):
    if len(anchors) > 50:
        rx_times = np.array([a[1] for a in anchors], dtype=np.float64)
        nearest = np.argsort(np.abs(rx_times - float(query_rx_time_us)),
                             kind="stable")[:50]
        anchors = [anchors[i] for i in sorted(nearest)]
    tx_t = np.array([a[0] for a in anchors], dtype=np.float64)
    rx_t = np.array([a[1] for a in anchors], dtype=np.float64)
    dx = tx_t - tx_t.mean()
    sxx = float(np.dot(dx, dx))
    # a degenerate fit reads as rate 0, which leaves the frame unresolved
    rate = float(np.dot(dx, rx_t - rx_t.mean())) / sxx if sxx else 0.0
    return rate, float(rx_t.mean() - rate * tx_t.mean())


def reference_recover_sequence(corrupted, rx_ok, tx):
    anchors = [
        (tx[rec.seq].timestamp_us, rec.timestamp_us)
        for rec in rx_ok
        if rec.status is ReceiveStatus.OK and rec.seq is not None
    ]
    if len(anchors) < 2:
        return None
    rate, offset = reference_fit(anchors, corrupted.timestamp_us)
    if rate <= 0.0:
        return None
    predicted_tx_us = (corrupted.timestamp_us - offset) / rate
    tx_times = np.array([rec.timestamp_us for rec in tx], dtype=np.float64)
    order = np.argsort(np.abs(tx_times - predicted_tx_us), kind="stable")
    scored = []
    for idx in order[:5]:
        cand = tx[int(idx)]
        dist = int(np.count_nonzero(cand.payload != corrupted.payload))
        scored.append((dist, abs(cand.timestamp_us - predicted_tx_us), cand.seq))
    if not scored:
        return None
    scored.sort()
    best_dist, _, best_seq = scored[0]
    return best_seq if best_dist / corrupted.payload.size < 0.4 else None


def reference_recover_trace(tx, rx, scrub):
    tx_recs, rx_recs = rows(tx.tx), rows(rx.rx)
    rx_ok = [rec for rec in rx_recs
             if rec.status is ReceiveStatus.OK and rec.seq is not None]
    summary = RecoverySummary(0, 0, 0, 0, len(rx_ok), n_correct=0 if scrub else None)
    new_rx = []
    for rec in rx_recs:
        if rec.status is not ReceiveStatus.CRC_ERROR:
            new_rx.append(rec)
            continue
        summary.n_corrupted += 1
        if rec.seq is not None and not scrub:
            new_rx.append(rec)
            continue
        target = scrubbed(rec) if scrub else rec
        summary.n_attempted += 1
        recovered = reference_recover_sequence(target, rx_ok, tx_recs)
        if recovered is None:
            summary.n_unresolved += 1
            new_rx.append(target)
        else:
            summary.n_recovered += 1
            if scrub and recovered == rec.seq:
                summary.n_correct += 1
            new_rx.append(rec._replace(seq=recovered))
    return Trace(rx.meta, rx=side(new_rx)), summary


def coarsened(rx, step_us):
    """rx with timestamps rounded down to step_us, so neighbours share one."""
    return Trace(rx.meta, rx=side(
        rec._replace(timestamp_us=rec.timestamp_us // step_us * step_us)
        for rec in rows(rx.rx)
    ))


def assert_matches_reference(tx, rx, scrub):
    got, summary = recover_trace(joined(tx, rx), scrub=scrub)
    want, want_summary = reference_recover_trace(tx, rx, scrub)
    assert summary == want_summary
    assert got == want
    return got


class TestMatchesReference:
    def test_jittered_trace(self):
        tx, rx = sim_pair(r=0.1, s=0.5, p=0.05, n_frames=500, frame_len=400,
                          seed=31, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        assert_matches_reference(tx, rx, scrub=True)
        stripped = Trace(rx.meta, rx=side(
            scrubbed(rec) if rec.status is ReceiveStatus.CRC_ERROR
            and rec.seq % 3 == 0 else rec
            for rec in rows(rx.rx)
        ))
        assert_matches_reference(tx, stripped, scrub=False)

    def test_duplicate_rx_timestamps(self):
        # 50 ms steps put two or three 20 ms frames on each timestamp, so
        # the clock-fit window is cut inside runs of equal anchor times
        tx, rx = sim_pair(r=0.1, s=0.5, p=0.02, n_frames=400, frame_len=400,
                          seed=32, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        rx = coarsened(rx, 50_000)
        assert len(np.unique(rx.rx.timestamp_us)) < len(rx.rx) // 2
        assert_matches_reference(tx, rx, scrub=True)

    def test_exact_midpoint_tie(self):
        # tx frames 3 and 4 share a payload, and the corrupted copy lies
        # exactly halfway between them in time
        meta = TraceMeta(rate_bps=54e6, frame_len=64, interval_us=20000)
        gen = np.random.default_rng(5)
        shared = gen.integers(0, 2, 64, dtype=np.uint8)
        tx = Trace(meta, tx=side(
            Row(seq=seq, timestamp_us=seq * 20000, status=ReceiveStatus.OK,
                payload=shared if seq in (3, 4)
                else gen.integers(0, 2, 64, dtype=np.uint8))
            for seq in range(8)
        ))
        tx_recs = rows(tx.tx)
        for seq, scrub in ((None, False), (3, True), (4, True)):
            corrupted = Row(seq=seq, timestamp_us=70000,
                            status=ReceiveStatus.CRC_ERROR, payload=shared)
            rx = Trace(meta, rx=side(
                [*tx_recs[:3], corrupted, *(tx_recs[s] for s in (5, 6, 7))]))
            got = assert_matches_reference(tx, rx, scrub=scrub)
            # equal distance and equal time difference: the lower seq wins
            assert got.rx.seq[3] == 3

    def test_unsorted_rx_ok(self):
        # an rx side out of time order, as no reader would accept it: the
        # anchors are sorted by receive time before the clock fit
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.02, n_frames=300, frame_len=400,
                          seed=33, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        records = rows(rx.rx)
        np.random.default_rng(0).shuffle(records)
        shuffled = Trace(rx.meta, rx=side(records))
        assert (shuffled.rx.status == CRC).sum() > 100
        got = assert_matches_reference(tx, shuffled, scrub=True)
        assert got.rx == shuffled.rx

    def test_attempted_frames_span_several_blocks(self):
        # 8000-bit frames: 5 candidate rows of 1000 bytes each bound a
        # block to 52 frames
        tx, rx = sim_pair(r=0.1, s=0.5, p=0.05, n_frames=400, frame_len=8000,
                          seed=35, clock_skew_ppm=50.0,
                          clock_offset_us=10_000, timestamp_jitter_us=50)
        step = hybridchan.trace.BLOCK_BYTES // (recovery.MAX_CANDIDATES * 1000)
        _, summary = recover_trace(joined(tx, rx), scrub=True)
        assert summary.n_attempted > 3 * step
        assert_matches_reference(tx, rx, scrub=True)

    def test_anchors_on_one_rx_time_stay_within_the_block_budget(self):
        # the anchors' run of equal times spans all of them, so a window
        # that held the run would grow with the anchor count
        tx, rx = sim_pair(r=0.0, s=0.75, p=0.02, n_frames=800, frame_len=64,
                          seed=34)
        shared = Trace(rx.meta, rx=side(
            rec._replace(timestamp_us=8_000_000)
            if rec.status is ReceiveStatus.OK else rec
            for rec in rows(rx.rx)
        ))
        trace = joined(tx, shared)
        tracemalloc.start()
        try:
            _, summary = recover_trace(trace, scrub=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's few temporaries, against one float per frame and anchor
        n_anchors = int((trace.rx.status == OK).sum())
        assert (peak < 3 * hybridchan.trace.BLOCK_BYTES
                < 8 * n_anchors * summary.n_attempted)
        assert_matches_reference(tx, shared, scrub=True)

    def test_scrub_never_scores_an_unknown_truth_correct(self):
        # the corrupted copy's stored seq is `?`: left unresolved with one
        # anchor, resolved with two, and correct in neither case
        for anchor_tx in ([0], [0, 10]):
            trace = anchored_trace(anchor_tx, anchor_tx)
            tx = Trace(meta=trace.meta, tx=trace.tx)
            rx = Trace(meta=trace.meta, rx=trace.rx)
            got = assert_matches_reference(tx, rx, scrub=True)
            _, summary = recover_trace(trace, scrub=True)
            assert summary.n_attempted == 1
            assert summary.n_recovered == len(anchor_tx) - 1
            assert summary.n_correct == 0
            assert got.rx.seq[-1] == (UNKNOWN_SEQ if len(anchor_tx) == 1 else 1)


# values from a short range, so that windows often cut a run of equal times
@example(values=[0, 0, 2], centres=[1.5], k=2)  # takes entry 0, not 1
@example(values=[], centres=[1.0, -1.0, 7.5], k=3)
@example(values=[], centres=[], k=1)
@given(
    st.lists(st.integers(0, 6), max_size=40),
    st.lists(st.integers(-2, 16).map(lambda c: c / 2), max_size=12),
    st.integers(1, 20),
)
def test_nearest_matches_full_stable_argsort(values, centres, k):
    t = np.sort(np.array(values, dtype=np.float64))
    got = _nearest(t, np.array(centres, dtype=np.float64), k)
    assert got.shape == (len(centres), min(k, t.size))
    for row, centre in zip(got, centres):
        want = np.sort(np.argsort(np.abs(t - centre), kind="stable")[:k])
        assert np.array_equal(row, want)
