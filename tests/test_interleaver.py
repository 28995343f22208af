import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridchan import deinterleave, interleave, whiten_error_vector
from hybridchan.interleaver import (_feistel, _permutation, _round_keys, frame_keys,
                                    whiten_positions)
from hybridchan.runstest import RunsFlag, runs_test
from hybridchan.sim import SimConfig, apply_periodic_noise, generate_tx
from hybridchan.stats import error_table, per_frame_runs_tests

from conftest import joined, make_params, sim_pair
from exact_law import N_SE, pass_count_z

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


FRAME_KEYS = [int(k) for k in np.random.default_rng(2026).integers(0, 1 << 64, 4,
                                                                  dtype=np.uint64)]


def walked(table, n):
    """Images of 0..n-1 under each row of bijection tables of [0, 2**b),
    cycle-walked into [0, n)."""
    images = table[:, :n].copy()
    rows, cols = np.nonzero(images >= n)
    while rows.size:
        images[rows, cols] = step = table[rows, images[rows, cols]]
        rows, cols = rows[step >= n], cols[step >= n]
    return images


def test_bijection_for_every_length_to_4096():
    # The Feistel network on b bits, without walking, once per key and b;
    # every length with that b walks along it.  _permutation itself is
    # compared at a spread of lengths, and is a bijection at two large ones.
    keys = _round_keys(np.array(FRAME_KEYS, dtype=np.uint64))
    checked = {*range(1, 70), *(2**b + d for b in range(13) for d in (-1, 0, 1)),
               *np.random.default_rng(7).integers(1, 4097, 40).tolist()}
    for bits in range(1, 13):
        size = 1 << bits
        table = _feistel(np.tile(np.arange(size), len(FRAME_KEYS)),
                         np.repeat(keys, size, axis=1), size).reshape(-1, size)
        for n in range(1 if bits == 1 else size // 2 + 1, size + 1):
            images = walked(table, n)
            assert (np.sort(images, axis=1) == np.arange(n)).all(), n
            if n in checked:
                for key, row in zip(FRAME_KEYS, images):
                    assert np.array_equal(_permutation(n, key), row), (n, key)
    for n in (8000, 65537):
        for key in FRAME_KEYS:
            assert np.array_equal(np.sort(_permutation(n, key)), np.arange(n))


def chi_square_z(values, lo, hi, n_keys):
    """Wilson-Hilferty z of a chi-square test that integers are uniform on
    [lo, hi), over min(hi - lo, 50) bins of near-equal width."""
    width = hi - lo
    n_bins = min(width, 50)
    expected = n_keys * np.bincount(np.arange(width) * n_bins // width) / width
    observed = np.bincount((values - lo) * n_bins // width, minlength=n_bins)
    stat, dof = ((observed - expected) ** 2 / expected).sum(), n_bins - 1
    return ((stat / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / np.sqrt(2 / (9 * dof))


@pytest.mark.parametrize("n", [3, 400, 8000, 65537])
def test_images_and_adjacent_gaps_uniform_over_keys(n):
    # One frame key per seq.  With these 100 000 keys, interleaver.ROUNDS
    # = 3 fails at n = 3, 400 and 8000, 4 and 5 fail at n = 3 (z = 11.5 and
    # 7.1), and 6 passes at every n.
    n_keys = 100_000
    seqs = np.arange(n_keys)

    def images(position):
        return whiten_positions(np.full(n_keys, position), seqs, seqs, 99, n)

    at = {j: images(j) for j in {0, 1, n // 2, n - 2, n - 1}}
    zs = {f"image of {j}": chi_square_z(img, 0, n, n_keys) for j, img in at.items()}
    for j in {0, n - 2}:
        zs[f"gap {j}, {j + 1}"] = chi_square_z((at[j + 1] - at[j]) % n, 1, n, n_keys)
    assert max(zs.values()) < N_SE, zs


@given(st.lists(st.integers(0, 1), min_size=1, max_size=600),
       st.integers(-(1 << 70), 1 << 70), st.integers(0, 1 << 40))
@settings(max_examples=60)
def test_whiten_positions_moves_each_error_as_whole_vector_does(raw, key, seq):
    ev = np.array(raw, dtype=np.uint8)
    pos = np.flatnonzero(ev)
    images = whiten_positions(pos, np.zeros(pos.size, dtype=np.intp),
                              np.array([seq]), key, ev.size)
    assert np.array_equal(np.sort(images), np.flatnonzero(whiten_error_vector(ev, key, seq)))


def test_frame_keys_distinct_per_seq():
    keys = frame_keys(42, np.arange(1000))
    assert len(set(keys.tolist())) == 1000


def test_deinterleave_matches_receiver_bookkeeping(rng):
    # permuting tx and rx payloads, then xoring, equals permuting the
    # error vector directly
    tx = rng.integers(0, 2, 1024, dtype=np.uint8)
    ev = (rng.random(1024) < 0.01).astype(np.uint8)
    rx = np.bitwise_xor(tx, ev)
    [key] = frame_keys(7, np.array([3])).tolist()
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
        assert abs(pass_count_z(rows, 8000)) < N_SE


def test_whitened_hybrid_pass_count_follows_exact_law():
    # i.i.d. flips, whitened or not, place each frame's errors uniformly, so
    # the passing frames follow the exact law given their error counts
    tx, rx = sim_pair(r=0.1, s=0.3, p=0.005, n_frames=3000, frame_len=2000, seed=31)
    for key in (31, None):
        rows = per_frame_runs_tests(error_table(joined(tx, rx), key))
        assert len(rows) > 1500
        assert abs(pass_count_z(rows, 2000)) < N_SE, key
