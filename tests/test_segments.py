import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pipeline
from hybridchan import (
    ReceiveStatus,
    Segment,
    SimConfig,
    Trace,
    TraceMeta,
    apply_channel,
    generate_tx,
    mean_segment_duration,
    error_table,
    segment_corrupted_frames,
)

from conftest import Row, joined, make_params, side, sim_pair
from reference_pipeline import corrupted_error_vectors


def crafted_pair(error_vectors, frame_len, interval_us=20000, gap=1):
    """Trace pair whose corrupted frames carry exactly the given error vectors."""
    meta = TraceMeta(rate_bps=54e6, frame_len=frame_len, interval_us=interval_us)
    rng = np.random.default_rng(1)
    n = len(error_vectors) * gap
    tx_recs, rx_recs = [], []
    for seq in range(n):
        payload = rng.integers(0, 2, frame_len, dtype=np.uint8)
        tx_recs.append(Row(seq=seq, timestamp_us=seq * interval_us,
                           status=ReceiveStatus.OK, payload=payload))
        if seq % gap == 0:
            ev = np.asarray(error_vectors[seq // gap], dtype=np.uint8)
            rx_recs.append(Row(
                seq=seq, timestamp_us=seq * interval_us,
                status=ReceiveStatus.CRC_ERROR,
                payload=np.bitwise_xor(payload, ev)))
        else:
            rx_recs.append(Row(
                seq=seq, timestamp_us=seq * interval_us,
                status=ReceiveStatus.OK, payload=payload))
    tx = Trace(meta, tx=side(tx_recs))
    rx = Trace(meta, rx=side(rx_recs))
    return tx, rx


def test_single_corrupted_frame_is_one_segment():
    ev = np.zeros(8000, dtype=np.uint8)
    ev[[5, 900, 4400]] = 1
    tx, rx = crafted_pair([ev], frame_len=8000)
    segs = segment_corrupted_frames(error_table(joined(tx, rx)))
    assert len(segs) == 1
    seg = segs[0]
    assert seg.start_frame == seg.end_frame == 0
    assert seg.n_frames == 1 and seg.n_corrupted == 1
    assert seg.pooled_p == 3 / 8000


def test_empty_input_gives_empty_list():
    tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=10, frame_len=64, seed=1)
    assert segment_corrupted_frames(error_table(joined(tx, rx))) == []


def test_pooled_p_is_flip_ratio_not_mean_of_ratios():
    gen = np.random.default_rng(2)
    ev_a = (gen.random(4000) < 0.01).astype(np.uint8)
    ev_b = (gen.random(4000) < 0.012).astype(np.uint8)
    tx, rx = crafted_pair([ev_a, ev_b], frame_len=4000)
    segs = segment_corrupted_frames(error_table(joined(tx, rx)))
    assert len(segs) == 1
    total_flips = int(ev_a.sum() + ev_b.sum())
    assert segs[0].pooled_p == total_flips / 8000


def test_span_counts_clean_frames_between_corrupted_ones():
    gen = np.random.default_rng(3)
    evs = [(gen.random(4000) < 0.01).astype(np.uint8) for _ in range(5)]
    tx, rx = crafted_pair(evs, frame_len=4000, gap=3)
    segs = segment_corrupted_frames(error_table(joined(tx, rx)))
    assert len(segs) == 1
    seg = segs[0]
    assert (seg.start_frame, seg.end_frame) == (0, 12)
    assert seg.n_frames == 13 and seg.n_corrupted == 5
    assert seg.duration_us == 13 * 20000


def test_homogeneous_trace_yields_dominant_segment():
    # false splits happen at roughly the test level, so judge the median
    coverages = []
    for seed in range(5):
        tx, rx = sim_pair(r=0.0, s=0.9577, p=0.003, n_frames=10000,
                          frame_len=2000, seed=seed)
        segs = segment_corrupted_frames(error_table(joined(tx, rx)))
        total = sum(s.n_corrupted for s in segs)
        coverages.append(max(s.n_corrupted for s in segs) / total)
    assert float(np.median(coverages)) >= 0.95


def test_change_point_splits_near_boundary():
    base = make_params(r=0.0, s=0.7, p=0.002, frame_len=2000)
    high = make_params(r=0.0, s=0.7, p=0.05, frame_len=2000)
    cfg = SimConfig(params=base, seed=5, n_frames=10000,
                    drift_schedule=((5000, high),))
    tx = generate_tx(cfg)
    rx = apply_channel(tx, cfg)
    table = error_table(joined(tx, rx))
    segs = segment_corrupted_frames(table)
    assert len(segs) >= 2
    seqs = table.seqs.tolist()
    idx_of = {s: i for i, s in enumerate(seqs)}
    cp_idx = next(i for i, s in enumerate(seqs) if s >= 5000)
    boundaries = [idx_of[seg.start_frame] for seg in segs[1:]]
    assert min(abs(b - cp_idx) for b in boundaries) <= 50


def test_outlier_frame_becomes_own_segment():
    gen = np.random.default_rng(4)
    quiet = [(gen.random(8000) < 0.002).astype(np.uint8) for _ in range(6)]
    loud = (gen.random(8000) < 0.3).astype(np.uint8)
    evs = quiet[:3] + [loud] + quiet[3:]
    tx, rx = crafted_pair(evs, frame_len=8000)
    segs = segment_corrupted_frames(error_table(joined(tx, rx)))
    assert any(s.n_corrupted == 1 and s.start_frame == 3 for s in segs)


def test_incremental_equals_batch_segmentation():
    # re-running the test from scratch on each prefix must give the same
    # split points as merging each frame's counts into the open segment's
    from hybridchan.runstest import FAIL, runs_test

    tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=400, frame_len=500, seed=6)
    pairs = corrupted_error_vectors(tx, rx)
    segs = segment_corrupted_frames(error_table(joined(tx, rx)))

    by_start = {seg.start_frame: seg for seg in segs}
    current: list[np.ndarray] = []
    expected_bounds = []
    for seq, ev in pairs:
        if not current:
            current = [ev]
            continue
        if runs_test(np.concatenate(current + [ev])).verdict[0] == FAIL:
            expected_bounds.append(seq)
            current = [ev]
        else:
            current.append(ev)
    assert sorted(by_start) == [pairs[0][0]] + expected_bounds


@st.composite
def error_vector_lists(draw):
    """Error vectors of one length from 20 to 64 bits, noise or one burst each.

    At 20 bits or more the runs test can reject, and bursts make it reject
    often, so segments close and frames join on equal and unequal end bits.
    """
    n = draw(st.integers(20, 64))
    noise = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    burst = st.tuples(st.integers(0, n - 1), st.integers(1, n)).map(
        lambda b: [int(b[0] <= i < b[0] + b[1]) for i in range(n)])
    return draw(st.lists(st.one_of(noise, burst), min_size=1, max_size=30))


@given(error_vector_lists())
@settings(max_examples=100, deadline=None)
def test_merged_counts_equal_reference_segmentation(error_vectors):
    tx, rx = crafted_pair(error_vectors, frame_len=len(error_vectors[0]))
    assert (segment_corrupted_frames(error_table(joined(tx, rx)))
            == reference_pipeline.segments(tx, rx))


class TestMeanSegmentDuration:
    def _segment(self, n_frames, interval_us=20000):
        return Segment(start_frame=0, end_frame=n_frames - 1,
                       n_frames=n_frames, n_corrupted=n_frames // 2 + 1,
                       duration_us=n_frames * interval_us, pooled_p=0.001)

    def test_reference_durations_exact(self):
        assert mean_segment_duration([self._segment(3865)]) == 77.3
        assert mean_segment_duration([self._segment(6118)]) == 122.36

    def test_mean_over_segments(self):
        segs = [self._segment(100), self._segment(300)]
        assert mean_segment_duration(segs) == pytest.approx(4.0)

    def test_empty_is_absent(self):
        assert mean_segment_duration([]) is None
