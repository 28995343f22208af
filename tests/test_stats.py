from math import sqrt

import numpy as np
import pytest

from hybridchan import (
    ReceiveStatus,
    Trace,
    TraceMeta,
    bit_position_profile,
    error_table,
    outcome_iid_tests,
    per_frame_runs_tests,
    segment_corrupted_frames,
    symmetry_report,
)
from hybridchan.runstest import DEGENERATE, FAIL, PASS
from hybridchan.sim import apply_periodic_noise, periodic_window_mask
from hybridchan.segments import Segment

from conftest import Row, joined, rows, side, sim_pair


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def crossover(ev):
    """The crossover analyze reports for one error vector: its frame's
    ones in the error table over the frame length."""
    meta = TraceMeta(rate_bps=54e6, frame_len=ev.size, interval_us=100)
    trace = Trace(
        meta,
        tx=side([Row(seq=0, timestamp_us=0, status=ReceiveStatus.OK,
                     payload=np.zeros(ev.size, dtype=np.uint8))]),
        rx=side([Row(seq=0, timestamp_us=0, status=ReceiveStatus.CRC_ERROR,
                     payload=ev)]))
    table = error_table(trace)
    [n1] = table.n1.tolist()
    return n1 / table.frame_len


class TestPerFrameCrossover:
    def test_all_correct(self):
        assert crossover(bits("0000")) == 0.0

    def test_all_flipped(self):
        assert crossover(bits("1111")) == 1.0

    def test_sparse(self):
        ev = np.zeros(8000, dtype=np.uint8)
        ev[np.arange(16) * 100] = 1
        assert crossover(ev) == 0.002


class TestFrameErrorRunsTest:
    """The runs test on each corrupted frame's error vector, as columns of
    per_frame_runs_tests."""

    @staticmethod
    def _table(tx, rx_side):
        return error_table(Trace(meta=tx.meta, tx=tx.tx, rx=rx_side))

    @classmethod
    def _tests(cls, tx, rx_side):
        return per_frame_runs_tests(cls._table(tx, rx_side))

    def test_rejects_clean_frames(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=3, frame_len=64, seed=1)
        assert len(self._tests(tx, rx.rx)) == 0

    def test_rejects_unknown_seq(self):
        payload = bits("1010")
        rec = Row(seq=None, timestamp_us=0,
                  status=ReceiveStatus.CRC_ERROR, payload=payload)
        tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=3, frame_len=4, seed=1)
        assert len(self._tests(tx, side([rec]))) == 0

    def test_all_zero_error_vector_is_degenerate(self):
        tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=3, frame_len=64, seed=2)
        rec = Row(seq=0, timestamp_us=0,
                  status=ReceiveStatus.CRC_ERROR, payload=rows(tx.tx)[0].payload)
        tests = self._tests(tx, side([rec]))
        assert tests.verdict.tolist() == [DEGENERATE]
        assert tests.n1.tolist() == [0]

    def test_single_flipped_bit(self):
        tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=1, frame_len=8000, seed=3)
        for pos in (0, 4000, 7999):
            payload = rows(tx.tx)[0].payload
            payload[pos] ^= 1
            rec = Row(seq=0, timestamp_us=0,
                      status=ReceiveStatus.CRC_ERROR, payload=payload)
            table = self._table(tx, side([rec]))
            tests = per_frame_runs_tests(table)
            assert table.seqs.tolist() == [0] and tests.n1.tolist() == [1]
            assert tests.verdict[0] in (PASS, FAIL)
            assert tests.n_runs.tolist() == [2 if pos in (0, 7999) else 3]

    def test_iid_frames_pass_at_nominal_rate(self):
        tx, rx = sim_pair(r=0.0, s=0.0, p=0.01, n_frames=1000,
                          frame_len=8000, seed=4)
        tests = self._tests(tx, rx.rx)
        assert len(tests) == 1000
        n_pass, n_fail = (int((tests.verdict == v).sum()) for v in (PASS, FAIL))
        rate = n_pass / (n_pass + n_fail)
        assert 0.93 <= rate <= 0.97


class TestSymmetryReport:
    def test_symmetric_channel_declared_symmetric(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.005, n_frames=1000,
                          frame_len=1000, seed=301)
        rep = symmetry_report(error_table(joined(tx, rx)))
        assert rep.symmetric is True
        assert rep.mu1 == pytest.approx(0.005, abs=3 * rep.se1)
        assert rep.mu0 == pytest.approx(0.005, abs=3 * rep.se0)

    def test_asymmetric_flips_detected(self):
        # flip 1->0 with 0.01 and 0->1 with 0.002 over ~1e6 bits
        gen = np.random.default_rng(7)
        frame_len, n_frames = 1000, 1000
        meta = TraceMeta(rate_bps=54e6, frame_len=frame_len, interval_us=20000)
        tx_recs, rx_recs = [], []
        for seq in range(n_frames):
            payload = gen.integers(0, 2, frame_len, dtype=np.uint8)
            flips = np.where(payload == 1,
                             gen.random(frame_len) < 0.01,
                             gen.random(frame_len) < 0.002)
            tx_recs.append(Row(seq=seq, timestamp_us=seq,
                               status=ReceiveStatus.OK, payload=payload))
            rx_recs.append(Row(
                seq=seq, timestamp_us=seq, status=ReceiveStatus.CRC_ERROR,
                payload=np.bitwise_xor(payload, flips.astype(np.uint8))))
        rep = symmetry_report(error_table(Trace(meta, side(tx_recs), side(rx_recs))))
        assert rep.symmetric is False
        assert abs(rep.z) > 10

    def test_no_corrupted_frames_is_error(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=5, frame_len=64, seed=8)
        with pytest.raises(ValueError, match="no corrupted"):
            symmetry_report(error_table(joined(tx, rx)))

    def test_all_ones_tx_leaves_mu0_absent(self):
        meta = TraceMeta(rate_bps=54e6, frame_len=32, interval_us=100)
        payload = np.ones(32, dtype=np.uint8)
        received = payload.copy()
        received[:3] = 0
        trace = Trace(
            meta,
            tx=side([Row(seq=0, timestamp_us=0, status=ReceiveStatus.OK,
                         payload=payload)]),
            rx=side([Row(seq=0, timestamp_us=0, status=ReceiveStatus.CRC_ERROR,
                         payload=received)]))
        rep = symmetry_report(error_table(trace))
        assert rep.n0 == 0
        assert rep.mu0 is None and rep.se0 is None
        assert rep.z is None and rep.symmetric is None
        assert rep.mu1 == pytest.approx(3 / 32)


class TestBitPositionProfile:
    def test_single_frame_profile_is_its_error_vector(self):
        tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=1, frame_len=100, seed=9)
        payload = rows(tx.tx)[0].payload
        payload[[4, 40]] ^= 1
        rx = Trace(tx.meta, rx=side([Row(
            seq=0, timestamp_us=0, status=ReceiveStatus.CRC_ERROR,
            payload=payload)]))
        profile = bit_position_profile(error_table(joined(tx, rx)))
        expected = np.zeros(100)
        expected[[4, 40]] = 1.0
        assert np.array_equal(profile, expected)

    def test_uniform_noise_gives_flat_profile(self):
        p = 0.02
        tx, rx = sim_pair(r=0.0, s=0.0, p=p, n_frames=2000, frame_len=500,
                          seed=10)
        profile = bit_position_profile(error_table(joined(tx, rx)))
        se = sqrt(p * (1 - p) / 2000)
        assert np.all(np.abs(profile - p) < 4 * se)

    def test_periodic_noise_concentrates_in_windows(self):
        tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=400, frame_len=2000,
                         seed=11)
        rx = apply_periodic_noise(tx, period=288, burst_len=32,
                                  p_in_burst=0.05, seed=11)
        profile = bit_position_profile(error_table(joined(tx, rx)))
        mask = periodic_window_mask(2000, 288, 32)
        in_mean = profile[mask].mean()
        out_mean = profile[~mask].mean()
        assert out_mean == 0.0
        assert in_mean > 5 * max(out_mean, 1e-12)

    def test_requires_corrupted_frames(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=4, frame_len=64, seed=12)
        with pytest.raises(ValueError):
            bit_position_profile(error_table(joined(tx, rx)))


class TestOutcomeIidTests:
    def test_iid_trace_passes_in_every_class(self):
        tx, rx = sim_pair(r=0.1, s=0.7, p=0.005, n_frames=10000,
                          frame_len=2000, seed=0)
        segs = segment_corrupted_frames(error_table(joined(tx, rx)))
        report = outcome_iid_tests(joined(tx, rx), segs)
        for frac in report.fractions.values():
            assert frac.fraction is not None and frac.fraction >= 0.8
        assert report.covered_frames <= len(rx.rx)

    def test_no_erasures_makes_phy_class_degenerate(self):
        tx, rx = sim_pair(r=0.0, s=0.5, p=0.01, n_frames=2000,
                          frame_len=1000, seed=13)
        segs = segment_corrupted_frames(error_table(joined(tx, rx)))
        report = outcome_iid_tests(joined(tx, rx), segs)
        phy = report.fractions[ReceiveStatus.PHY_ERROR]
        assert phy.fraction is None
        assert phy.n_excluded == len(segs) and phy.n_segments_tested == 0

    def test_periodic_outcome_sequence_fails(self):
        # every 10th frame erased, in lockstep: maximal run count, fraction 0
        meta = TraceMeta(rate_bps=54e6, frame_len=8, interval_us=100)
        gen = np.random.default_rng(14)
        tx_recs, rx_recs = [], []
        for seq in range(2000):
            payload = gen.integers(0, 2, 8, dtype=np.uint8)
            tx_recs.append(Row(seq=seq, timestamp_us=100 * seq,
                               status=ReceiveStatus.OK, payload=payload))
            if seq % 10 == 0:
                rec = Row(seq=seq, timestamp_us=100 * seq,
                          status=ReceiveStatus.PHY_ERROR)
            else:
                rec = Row(seq=seq, timestamp_us=100 * seq,
                          status=ReceiveStatus.OK, payload=payload)
            rx_recs.append(rec)
        rx = Trace(meta, rx=side(rx_recs))
        seg = Segment(start_frame=0, end_frame=1999, n_frames=2000,
                      n_corrupted=0, duration_us=2000 * 100, pooled_p=0.0)
        report = outcome_iid_tests(rx, [seg])
        assert report.fractions[ReceiveStatus.PHY_ERROR].fraction == 0.0

    def test_no_segments_reports_nothing(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=10, frame_len=64,
                          seed=15)
        report = outcome_iid_tests(joined(tx, rx), [])
        assert report.covered_frames == 0
        for frac in report.fractions.values():
            assert frac.fraction is None
