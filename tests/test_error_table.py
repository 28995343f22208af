"""ErrorTable reductions against the whole-error-vector reference pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridchan.trace
import reference_pipeline as ref
from hybridchan import (
    ReceiveStatus,
    Trace,
    TraceMeta,
    bit_position_profile,
    error_table,
    interleaver,
    outcome_iid_tests,
    per_frame_runs_tests,
    segment_corrupted_frames,
    symmetry_report,
)
from hybridchan import stats
from hybridchan.runstest import DEGENERATE, FAIL, PASS, runs_tests
from hybridchan.sim import apply_periodic_noise

from conftest import Row, joined, rows, side, sim_pair


@pytest.fixture(scope="module")
def hybrid_pair():
    return sim_pair(r=0.1, s=0.3, p=0.02, n_frames=800, frame_len=300, seed=41)


@pytest.fixture(scope="module")
def periodic_pair():
    tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=300, frame_len=1000, seed=42)
    return tx, apply_periodic_noise(tx, period=288, burst_len=32,
                                    p_in_burst=0.1, seed=42)


def frame_results(table):
    """(seq, bit errors, crossover, runs test row) per frame of a table."""
    return list(zip(table.seqs.tolist(), table.n1.tolist(),
                    (table.n1 / table.frame_len).tolist(),
                    ref.runs_rows(per_frame_runs_tests(table))))


def assert_matches_reference(tx, rx, key):
    table = error_table(joined(tx, rx), key)
    assert frame_results(table) == ref.per_frame_results(tx, rx, key)
    assert (ref.segment_rows(segment_corrupted_frames(table))
            == ref.segments(tx, rx, key))
    assert np.array_equal(bit_position_profile(table), ref.bit_profile(tx, rx, key))
    rep = symmetry_report(table)
    assert (rep.n1, rep.n0, rep.flips1, rep.flips0) == ref.symmetry_counts(tx, rx)
    return table


@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("key", [None, 17])
def test_hybrid_trace_matches_reference(hybrid_pair, key, block_rows, monkeypatch):
    if block_rows is not None:
        # about 500 corrupted frames over many blocks, the last one partial;
        # a block takes each frame's tx and rx rows of 38 bytes
        monkeypatch.setattr(hybridchan.trace, "BLOCK_BYTES", block_rows * 2 * 38)
    table = assert_matches_reference(*hybrid_pair, key)
    assert len(table) % 7 != 0


@pytest.mark.parametrize("key", [None, 17])
def test_periodic_trace_matches_reference(periodic_pair, key):
    assert_matches_reference(*periodic_pair, key)


def test_table_builds_no_full_permutation(hybrid_pair, monkeypatch):
    # the table maps only error positions; the reference, built first,
    # whitens whole vectors
    tx, rx = hybrid_pair
    want = {key: (ref.per_frame_results(tx, rx, key), ref.segments(tx, rx, key),
                  ref.bit_profile(tx, rx, key)) for key in (5, 17)}

    def refuse(n, key):
        raise AssertionError("error_table built a full permutation")

    monkeypatch.setattr(interleaver, "_permutation", refuse)
    budgets = hybridchan.trace.BLOCK_BYTES, 7 * 2 * 38
    for key, (results, segs, profile) in want.items():
        for budget in budgets:
            monkeypatch.setattr(hybridchan.trace, "BLOCK_BYTES", budget)
            table = error_table(joined(tx, rx), key)
            assert frame_results(table) == results
            assert ref.segment_rows(segment_corrupted_frames(table)) == segs
            assert np.array_equal(bit_position_profile(table), profile)
    with pytest.raises(AssertionError, match="full permutation"):
        interleaver.whiten_error_vector(np.ones(300, dtype=np.uint8), 5, 0)


def test_all_zero_error_vectors_are_degenerate():
    tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=30, frame_len=64, seed=43)
    rx = Trace(tx.meta, rx=side(
        rec._replace(status=ReceiveStatus.CRC_ERROR) for rec in rows(tx.tx)))
    for key in (None, 3):
        table = assert_matches_reference(tx, rx, key)
        assert (per_frame_runs_tests(table).verdict == DEGENERATE).all()
        assert not table.n1.any()
        [seg] = ref.segment_rows(segment_corrupted_frames(table))
        assert (seg.n_corrupted, seg.pooled_p) == (30, 0.0)
        assert not bit_position_profile(table).any()
        rep = symmetry_report(table)
        assert rep.z is None and rep.symmetric is True


def test_runs_do_not_join_across_frames():
    # the last error of one frame and the first of the next sit at adjacent
    # positions of the block's flattened error list
    tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=4, frame_len=64, seed=46)
    flips = [[63], [0, 1, 62], [63], [0]]
    rx = Trace(tx.meta, rx=side(
        rec._replace(status=ReceiveStatus.CRC_ERROR,
                     payload=rec.payload ^ np.isin(np.arange(64), bits))
        for rec, bits in zip(rows(tx.tx), flips)
    ))
    for key in (None, 3):
        assert_matches_reference(tx, rx, key)
    assert error_table(joined(tx, rx)).runs.tolist() == [2, 4, 2, 2]


def test_no_corrupted_frames():
    tx, rx = sim_pair(r=0.3, s=1.0, p=0.0, n_frames=40, frame_len=64, seed=44)
    for key in (None, 3):
        table = error_table(joined(tx, rx), key)
        assert len(table) == 0 and not table.column_sums.any()
        assert len(per_frame_runs_tests(table)) == 0
        assert ref.segment_rows(segment_corrupted_frames(table)) == []
        for stat in (bit_position_profile, symmetry_report):
            with pytest.raises(ValueError,
                               match="trace pair contains no corrupted frames"):
                stat(table)


def test_per_frame_runs_tests_has_a_row_per_frame(hybrid_pair):
    # perfbench/tracer.py counts stats.corrupted_frames as the length of
    # what per_frame_runs_tests returns
    tx, rx = hybrid_pair
    full = error_table(joined(tx, rx))
    empty = error_table(joined(*sim_pair(r=0.3, s=1.0, p=0.0, n_frames=40,
                                         frame_len=64, seed=44)))
    assert len(full) > 400 and len(empty) == 0
    for table in (full, empty):
        assert len(per_frame_runs_tests(table)) == len(table)


def short_spans(n_frames, seed):
    """Disjoint segments of 5 to 60 frames with gaps, over seqs 0..n_frames-1."""
    gen = np.random.default_rng(seed)
    segs, start = [], 0
    while start < n_frames:
        end = min(start + int(gen.integers(5, 60)), n_frames) - 1
        segs.append(ref.SegmentRow(start_frame=start, end_frame=end,
                                   n_frames=end - start + 1, n_corrupted=1,
                                   duration_us=0, pooled_p=0.0))
        start = end + 1 + int(gen.integers(0, 5))
    return ref.segment_columns(segs)


@pytest.mark.parametrize("spans", ["segmented", "short"])
def test_outcome_tests_match_label_arrays(hybrid_pair, spans, monkeypatch):
    tx, rx = hybrid_pair
    segs = (segment_corrupted_frames(error_table(joined(tx, rx))) if spans == "segmented"
            else short_spans(len(tx.tx), seed=45))
    calls = []

    def recording(n_runs, n1, n0):
        calls.append(runs_tests(n_runs, n1, n0))
        return calls[-1]

    monkeypatch.setattr(stats, "runs_tests", recording)
    report = outcome_iid_tests(joined(tx, rx), segs)
    results = ref.outcome_results(rx, segs)
    assert [row for tests in calls for row in ref.runs_rows(tests)] \
        == [row for tests in results.values() for row in ref.runs_rows(tests)]
    seg_rows = ref.segment_rows(segs)
    for outcome, frac in report.fractions.items():
        verdicts = [results[outcome, i].verdict[0] for i in range(len(segs))]
        tested = [seg for seg, v in zip(seg_rows, verdicts) if v in (PASS, FAIL)]
        passed = [seg for seg, v in zip(seg_rows, verdicts) if v == PASS]
        assert frac.n_segments_tested == len(tested)
        assert frac.n_excluded == len(segs) - len(tested)
        assert frac.n_valid_frames == sum(seg.n_frames for seg in tested)
        assert frac.n_pass_frames == sum(seg.n_frames for seg in passed)


@st.composite
def trace_pairs(draw):
    frame_len = draw(st.integers(20, 60))
    n = draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    meta = TraceMeta(rate_bps=1e6, frame_len=frame_len, interval_us=100)
    tx_recs, rx_recs = [], []
    for seq in range(n):
        payload = gen.integers(0, 2, frame_len, dtype=np.uint8)
        tx_recs.append(Row(seq=seq, timestamp_us=100 * seq,
                           status=ReceiveStatus.OK, payload=payload))
        status = draw(st.sampled_from(list(ReceiveStatus)))
        if status is ReceiveStatus.PHY_ERROR:
            rx_recs.append(Row(seq=seq, timestamp_us=100 * seq, status=status))
            continue
        # quiet, noisy and bursty frames, so that segments do close
        flips = np.zeros(frame_len, dtype=np.uint8)
        if status is ReceiveStatus.CRC_ERROR:
            kind = draw(st.sampled_from(["none", "sparse", "dense", "burst"]))
            if kind == "sparse":
                flips = (gen.random(frame_len) < 0.05).astype(np.uint8)
            elif kind == "dense":
                flips = (gen.random(frame_len) < 0.5).astype(np.uint8)
            elif kind == "burst":
                flips[: frame_len // 2] = 1
        rx_recs.append(Row(
            seq=draw(st.sampled_from([seq, None])) if status is
            ReceiveStatus.CRC_ERROR else seq,
            timestamp_us=100 * seq, status=status,
            payload=payload ^ flips))
    return Trace(meta, tx=side(tx_recs)), Trace(meta, rx=side(rx_recs))


@settings(max_examples=60, deadline=None)
@given(trace_pairs(), st.sampled_from([None, 1]))
def test_segments_partition_corrupted_frames(pair, key):
    tx, rx = pair
    table = error_table(joined(tx, rx), key)
    segs = ref.segment_rows(segment_corrupted_frames(table))
    assert segs == ref.segments(tx, rx, key)
    corrupted = table.seqs.tolist()
    tx_recs = rows(tx.tx)
    assert sum(seg.n_corrupted for seg in segs) == len(corrupted)
    pos = 0
    for prev, seg in zip([None] + segs, segs):
        if prev is not None:
            assert prev.end_frame < seg.start_frame
        members = corrupted[pos:pos + seg.n_corrupted]
        assert (members[0], members[-1]) == (seg.start_frame, seg.end_frame)
        assert seg.n_frames == seg.end_frame - seg.start_frame + 1
        pos += seg.n_corrupted
        flips = sum(
            int(np.bitwise_xor(tx_recs[rec.seq].payload, rec.payload).sum())
            for rec in rows(rx.rx)
            if rec.seq in members and rec.status is ReceiveStatus.CRC_ERROR
        )
        assert seg.pooled_p == flips / (len(members) * tx.meta.frame_len)
