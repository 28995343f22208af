import numpy as np
import pytest

import hybridchan.trace
from hybridchan import (
    ReceiveStatus,
    capacity,
    Trace,
    TraceMeta,
    binary_entropy,
    capacity_report,
    erasure_capacity,
    estimate_params,
    hybrid_capacity,
)

from conftest import Row, joined, rows, side, sim_pair


class TestBinaryEntropy:
    def test_limit_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_known_value(self):
        # high-precision reference value for H(0.11)
        assert binary_entropy(0.11) == pytest.approx(0.49991595816452800,
                                                     rel=1e-12)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.37):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p),
                                                      rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestCapacityFormulas:
    def test_perfect_channel(self):
        assert hybrid_capacity(54e6, r=0.0, s=1.0, p=0.0) == 54e6

    def test_p_half_equals_erasure(self):
        c = hybrid_capacity(54e6, r=0.2, s=0.6, p=0.5)
        assert c == pytest.approx(erasure_capacity(54e6, 0.2, 0.6), rel=1e-12)

    def test_measured_crossover_value(self):
        # measured crossover 0.0018 at the 54 Mbps, FER 0.0835 operating point
        c = hybrid_capacity(54e6, r=0.0, s=0.0, p=0.0018)
        assert c == pytest.approx(52973647.39162816, rel=1e-9)
        assert abs(c - 52.97e6) <= 0.02e6

    def test_erasure_examples(self):
        assert erasure_capacity(54e6, r=0.0, s=1.0) == 54e6
        assert erasure_capacity(54e6, r=0.3, s=0.0) == 0.0
        assert erasure_capacity(54e6, r=0.05, s=0.6) == pytest.approx(
            30.78e6, rel=1e-12)

    def test_monotonicity(self):
        base = hybrid_capacity(54e6, 0.1, 0.5, 0.01)
        assert hybrid_capacity(54e6, 0.2, 0.5, 0.01) < base
        assert hybrid_capacity(54e6, 0.1, 0.6, 0.01) > base
        assert hybrid_capacity(54e6, 0.1, 0.5, 0.05) < base

    def test_dominance_over_random_draws(self, rng):
        r, s, p = rng.random(2000), rng.random(2000), rng.random(2000)
        for ri, si, pi in zip(r, s, p):
            assert hybrid_capacity(54e6, ri, si, pi) >= erasure_capacity(
                54e6, ri, si)


class TestEstimateParams:
    def test_simulated_channel_within_three_se(self):
        r, s, p = 0.1, 0.7, 0.005
        tx, rx = sim_pair(r=r, s=s, p=p, n_frames=10000, frame_len=400, seed=1)
        est = estimate_params(joined(tx, rx))
        assert abs(est.r_hat - r) <= 3 * est.r_se
        assert abs(est.s_hat - s) <= 3 * est.s_se
        assert abs(est.p_hat - p) <= 3 * est.p_se

    def test_all_ok_trace(self):
        tx, rx = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=50, frame_len=64, seed=2)
        est = estimate_params(joined(tx, rx))
        assert est.r_hat == 0.0
        assert est.s_hat == 1.0
        assert est.p_hat is None and est.p_se is None
        assert est.fer_hat == 0.0

    def test_fer_identity(self):
        tx, rx = sim_pair(r=0.15, s=0.6, p=0.01, n_frames=3000, frame_len=100,
                          seed=3)
        est = estimate_params(joined(tx, rx))
        assert est.fer_hat == pytest.approx(
            1 - (1 - est.r_hat) * est.s_hat, rel=1e-12)
        assert est.fer_hat == (est.n_phy + est.n_corrupted) / est.n_frames

    def test_empty_rx_is_error(self):
        tx, _ = sim_pair(r=0.0, s=1.0, p=0.0, n_frames=3, frame_len=8, seed=4)
        with pytest.raises(ValueError, match="empty"):
            estimate_params(Trace(meta=tx.meta, tx=tx.tx))

    def test_standard_errors_shrink_with_n(self):
        small = sim_pair(r=0.1, s=0.7, p=0.01, n_frames=500, frame_len=200,
                         seed=5)
        large = sim_pair(r=0.1, s=0.7, p=0.01, n_frames=8000, frame_len=200,
                         seed=5)
        est_small = estimate_params(joined(*small))
        est_large = estimate_params(joined(*large))
        assert est_large.r_se < est_small.r_se
        assert est_large.s_se < est_small.s_se
        assert est_large.p_se < est_small.p_se

    @pytest.mark.parametrize("frames_per_block", [1, 7])
    def test_flip_counts_in_blocks(self, monkeypatch, frames_per_block):
        """Counts gathered a block at a time equal each frame's own count."""
        tx, rx = sim_pair(r=0.1, s=0.3, p=0.05, n_frames=60, frame_len=100,
                          seed=6, clock_offset_us=5)
        trace = joined(tx, rx)
        monkeypatch.setattr(hybridchan.trace, "BLOCK_BYTES",
                            frames_per_block * 2 * trace.rx.packed.shape[1])
        flips, bits = capacity._flip_counts(trace)
        sent = rows(trace.tx)
        counted = [r.status is ReceiveStatus.CRC_ERROR and r.seq is not None
                   for r in rows(trace.rx)]
        assert sum(counted) > 2 * frames_per_block
        assert flips.tolist() == [
            int((r.payload != sent[r.seq].payload).sum()) if c else 0
            for r, c in zip(rows(trace.rx), counted)]
        assert bits.tolist() == [100 * c for c in counted]


def binned_trace(bins, frame_len=1000, flips_per_frame=None):
    """Trace with per-RSSI-bin frame mixes.

    bins: list of (rssi, n_ok, n_crc, flips_per_corrupted_frame).
    """
    gen = np.random.default_rng(0)
    meta = TraceMeta(rate_bps=54e6, frame_len=frame_len, interval_us=20000)
    tx_recs, rx_recs = [], []
    seq = 0
    for rssi, n_ok, n_crc, flips in bins:
        for i in range(n_ok + n_crc):
            payload = gen.integers(0, 2, frame_len, dtype=np.uint8)
            tx_recs.append(Row(seq=seq, timestamp_us=seq * 20000,
                               status=ReceiveStatus.OK, payload=payload))
            if i < n_ok:
                rx_recs.append(Row(
                    seq=seq, timestamp_us=seq * 20000,
                    status=ReceiveStatus.OK, payload=payload, rssi=rssi))
            else:
                received = payload.copy()
                flip_at = gen.choice(frame_len, size=flips, replace=False)
                received[flip_at] ^= 1
                rx_recs.append(Row(
                    seq=seq, timestamp_us=seq * 20000,
                    status=ReceiveStatus.CRC_ERROR, payload=received,
                    rssi=rssi))
            seq += 1
    return Trace(meta, tx=side(tx_recs)), Trace(meta, rx=side(rx_recs))


class TestCapacityReport:
    def test_zero_crossover_gain_limit(self):
        # corrupted frames that carry no bit errors: gain -> (1-s)/s
        tx, rx = binned_trace([(-60, 30, 70, 0)])
        report = capacity_report(joined(tx, rx))
        s_hat = report.params.s_hat
        assert report.params.p_hat == 0.0
        assert report.gain == pytest.approx((1 - s_hat) / s_hat, rel=1e-12)

    def test_per_bin_estimates(self):
        tx, rx = binned_trace([(-60, 80, 20, 10), (-55, 50, 50, 20)])
        report = capacity_report(joined(tx, rx))
        assert [b.rssi for b in report.per_rssi_bins] == [-60, -55]
        b0, b1 = report.per_rssi_bins
        assert b0.n_frames == 100 and b0.s_hat == 0.8
        assert b0.p_hat == pytest.approx(10 / 1000, rel=1e-12)
        assert b1.s_hat == 0.5
        assert b1.fer == pytest.approx(0.5, rel=1e-12)
        for b in report.per_rssi_bins:
            assert b.hybrid_bps >= b.erasure_bps

    def test_bin_width_groups_values(self):
        tx, rx = binned_trace([(-60, 10, 0, 0), (-59, 10, 0, 0),
                               (-50, 10, 0, 0)])
        report = capacity_report(joined(tx, rx), rssi_bin_width=5)
        assert [b.rssi for b in report.per_rssi_bins] == [-60, -50]
        assert report.per_rssi_bins[0].n_frames == 20

    def test_no_rssi_data_omits_bins(self):
        tx, rx = sim_pair(r=0.1, s=0.7, p=0.01, n_frames=300, frame_len=100,
                          seed=6)
        report = capacity_report(joined(tx, rx))
        assert report.per_rssi_bins == []

    def test_phy_error_frames_stay_out_of_bins(self):
        tx, rx = binned_trace([(-60, 50, 50, 5)])
        records = rows(rx.rx)
        records[0] = records[0]._replace(status=ReceiveStatus.PHY_ERROR,
                                         payload=None, rssi=None)
        rx = Trace(rx.meta, rx=side(records))
        report = capacity_report(joined(tx, rx))
        assert report.per_rssi_bins[0].n_frames == 99

    def test_bin_width_past_int64(self):
        tx, rx = binned_trace([(-60, 10, 0, 0), (0, 5, 0, 0), (7, 5, 0, 0)])
        width = 10**20
        report = capacity_report(joined(tx, rx), rssi_bin_width=width)
        assert [(b.rssi, b.n_frames) for b in report.per_rssi_bins] == [
            (-width, 10), (0, 10)]

    def test_phy_error_frames_with_rssi_stay_out_of_bins(self):
        tx, rx = binned_trace([(-60, 50, 50, 5)])
        records = rows(rx.rx)
        records[0] = records[0]._replace(status=ReceiveStatus.PHY_ERROR,
                                         payload=None, rssi=-60)
        rx = Trace(rx.meta, rx=side(records))
        [only] = capacity_report(joined(tx, rx)).per_rssi_bins
        assert only.n_frames == 99
        assert only.s_hat == 49 / 99

    def test_simulated_low_s_trace_doubles_capacity(self):
        tx, rx = sim_pair(r=0.0, s=0.3, p=0.002, n_frames=2000, frame_len=1000,
                          seed=7)
        report = capacity_report(joined(tx, rx))
        assert report.gain > 1.0
        assert report.hybrid_bps >= report.erasure_bps

    def test_low_s_low_p_bins_double_capacity(self):
        # s <= 0.33 and p <= 0.01 must show gain > 1.0 in every bin
        tx, rx = binned_trace([
            (-70, 20, 80, 10),   # s=0.2, p=0.01
            (-65, 33, 67, 2),    # s=0.33, p=0.002
            (-60, 25, 75, 5),    # s=0.25, p=0.005
        ])
        report = capacity_report(joined(tx, rx))
        assert len(report.per_rssi_bins) == 3
        for b in report.per_rssi_bins:
            assert b.s_hat <= 0.33 + 1e-9 and b.p_hat <= 0.01 + 1e-9
            assert b.gain > 1.0
