import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridchan import deinterleave, frame_key, interleave, whiten_error_vector
from hybridchan.runstest import RunsFlag, runs_test
from hybridchan.sim import SimConfig, apply_periodic_noise, generate_tx
from hybridchan.stats import error_table, per_frame_runs_tests

from conftest import joined, make_params

KEY64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_length_one_is_identity():
    x = np.array([1], dtype=np.uint8)
    assert interleave(x, key=12345).tolist() == [1]


def test_empty_payload_rejected():
    with pytest.raises(ValueError):
        interleave(np.array([], dtype=np.uint8), key=0)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300), KEY64)
@settings(max_examples=60)
def test_round_trip_and_popcount(raw, key):
    x = np.array(raw, dtype=np.uint8)
    y = interleave(x, key)
    assert int(y.sum()) == int(x.sum())
    assert np.array_equal(deinterleave(y, key), x)


def test_bijectivity_over_index_set():
    x = np.arange(257)
    y = interleave(x, key=77)
    assert sorted(y.tolist()) == sorted(x.tolist())


def test_wrong_key_scrambles(rng):
    x = rng.integers(0, 2, 8000, dtype=np.uint8)
    y = interleave(x, key=1)
    for wrong in (2, 3, 999):
        back = deinterleave(y, wrong)
        assert not np.array_equal(back, x)
        # a wrong permutation leaves ~half the ones misplaced
        assert np.count_nonzero(back != x) > 1000

def test_all_zeros_fixed_under_any_key(rng):
    x = np.zeros(500, dtype=np.uint8)
    for key in map(int, rng.integers(0, 1 << 63, 5)):
        assert np.array_equal(interleave(x, key), x)


def test_frame_keys_distinct_per_seq():
    keys = {frame_key(42, seq) for seq in range(1000)}
    assert len(keys) == 1000


def test_deinterleave_matches_receiver_bookkeeping(rng):
    # permuting tx and rx payloads, then xoring, equals permuting the
    # error vector directly
    tx = rng.integers(0, 2, 1024, dtype=np.uint8)
    ev = (rng.random(1024) < 0.01).astype(np.uint8)
    rx = np.bitwise_xor(tx, ev)
    key = frame_key(7, 3)
    direct = np.bitwise_xor(deinterleave(tx, key), deinterleave(rx, key))
    assert np.array_equal(direct, whiten_error_vector(ev, 7, 3))


@pytest.fixture(scope="module")
def periodic_pair():
    cfg = SimConfig(params=make_params(frame_len=8000), seed=21, n_frames=300)
    tx = generate_tx(cfg)
    rx = apply_periodic_noise(tx, period=288, burst_len=32,
                              p_in_burst=0.05, seed=21)
    return tx, rx


class TestWhitening:
    """Periodic noise fails the within-frame runs test far above the nominal
    rate; after interleaving emulation it passes at the nominal rate."""

    @staticmethod
    def _rates(rows):
        valid = [r for r in rows if r.result.flag is RunsFlag.NORMAL]
        n_fail = sum(1 for r in valid if not r.result.passed)
        return n_fail / len(valid), 1 - n_fail / len(valid)

    def test_raw_error_vectors_fail_often(self, periodic_pair):
        tx, rx = periodic_pair
        fail_rate, _ = self._rates(per_frame_runs_tests(error_table(joined(tx, rx))))
        assert fail_rate > 0.5

    def test_whitened_error_vectors_pass_at_nominal_rate(self, periodic_pair):
        tx, rx = periodic_pair
        rows = per_frame_runs_tests(error_table(joined(tx, rx), key=21))
        _, pass_rate = self._rates(rows)
        assert pass_rate >= 0.9
