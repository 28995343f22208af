"""A re-keyed stream family draws exactly what freshly built generators draw.

The simulator decides every frame from raw Philox words, by the rules that
StreamFamily.words documents.  The words tests check those rules against
the installed numpy, so a numpy release that changes how Generator turns
words into integers, doubles or uniforms fails here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridchan import rng

MASK64 = (1 << 64) - 1


def splitmix64(x):
    """One step of the splitmix64 mix function on a Python int (public-domain
    constant set): the scalar reference for rng.splitmix64_array."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)

seeds = st.integers(-(1 << 70), 1 << 70)
roles = st.one_of(
    st.sampled_from([rng.ROLE_TX_PAYLOAD, rng.ROLE_CHANNEL, rng.ROLE_PERIODIC,
                     rng.ROLE_PERMUTATION]),
    st.integers(0, MASK64),
)
indices = st.integers(-(1 << 66), 1 << 66)


def fresh(seed, role, index):
    """The stream built from scratch: a new Philox keyed (seed ^ role, index)."""
    key = (((seed ^ role) & MASK64) << 64) | (index & MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def draws(gen):
    """One of each kind of draw the package takes, in a fixed order."""
    return (
        gen.integers(0, 2, 37, dtype=np.uint8).tolist(),
        gen.random(5).tolist(),
        gen.uniform(-50, 50),
        gen.permutation(41).tolist(),
        gen.integers(0, 1 << 32, 3, dtype=np.uint32).tolist(),
    )


def leave_stale_state(gen):
    """Leave a half-used 64-bit word and a partly read Philox block behind."""
    gen.integers(0, 1 << 32, 3, dtype=np.uint32)
    gen.random()
    state = gen.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4


@settings(max_examples=200, deadline=None)
@given(seeds, roles, indices)
def test_family_matches_fresh_generator(seed, role, index):
    assert draws(rng.StreamFamily(seed, role).at(index)) == draws(fresh(seed, role, index))


@settings(max_examples=100, deadline=None)
@given(seeds, roles, indices)
def test_stream_matches_fresh_generator(seed, role, index):
    assert draws(rng.stream(seed, role, index)) == draws(fresh(seed, role, index))


@settings(max_examples=100, deadline=None)
@given(seeds, roles, indices, indices)
def test_rekey_after_partial_draws_starts_afresh(seed, role, first, second):
    streams = rng.StreamFamily(seed, role)
    leave_stale_state(streams.at(first))
    assert draws(streams.at(second)) == draws(fresh(seed, role, second))
    leave_stale_state(streams.at(second))
    assert draws(streams.at(second)) == draws(fresh(seed, role, second))


@settings(max_examples=50, deadline=None)
@given(seeds, seeds, roles, roles, st.lists(indices, min_size=1, max_size=6))
def test_alternating_families_do_not_interfere(seed_a, seed_b, role_a, role_b, ks):
    fam_a, fam_b = rng.StreamFamily(seed_a, role_a), rng.StreamFamily(seed_b, role_b)
    for k in ks:
        gen_a, gen_b = fam_a.at(k), fam_b.at(k + 1)
        ref_a, ref_b = fresh(seed_a, role_a, k), fresh(seed_b, role_b, k + 1)
        for _ in range(2):
            assert draws(gen_a) == draws(ref_a)
            assert draws(gen_b) == draws(ref_b)


# A few (seed, role, index) keys, with the sign and top bits of each set.
KEYS = [(0, rng.ROLE_TX_PAYLOAD, 0), (7, rng.ROLE_CHANNEL, 12345),
        (-3, rng.ROLE_PERIODIC, MASK64), (1 << 63, rng.ROLE_PERMUTATION, 1 << 40)]


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("n", [1, 7, 37, 125, 257, 4093])
def test_words_give_integer_bits_as_top_bits(key, n):
    # integers(0, 2, n, uint8) is the top bit of each little-endian byte:
    # Lemire's method never rejects at range 2
    words = rng.StreamFamily(*key[:2]).words(key[2], -(-n // 8))
    bits = words.astype("<u8").view(np.uint8)[:n] >> 7
    assert np.array_equal(bits, fresh(*key).integers(0, 2, n, dtype=np.uint8))


@pytest.mark.parametrize("key", KEYS)
def test_words_give_random_doubles(key):
    words = rng.StreamFamily(*key[:2]).words(key[2], 101)
    gen = fresh(*key)
    assert gen.random() == (words[0] >> 11) * 2.0**-53
    assert np.array_equal(gen.random(100), (words[1:] >> 11) * 2.0**-53)


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("p", [0.0, 0.005, 0.5, 1.0])
def test_words_give_integer_flip_thresholds(key, p):
    # random() < p exactly when (word >> 11) < ceil(p * 2**53)
    words = rng.StreamFamily(*key[:2]).words(key[2], 4000)
    below = (words >> 11) < np.uint64(math.ceil(p * 2.0**53))
    assert np.array_equal(below, fresh(*key).random(4000) < p)


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("j", [1, 50, 10**6])
def test_words_give_uniform_jitter(key, j):
    words = rng.StreamFamily(*key[:2]).words(key[2], 1)
    assert fresh(*key).uniform(-j, j) == -j + 2 * j * ((words[0] >> 11) * 2.0**-53)


def test_words_rekey_like_at():
    streams = rng.StreamFamily(5, rng.ROLE_CHANNEL)
    leave_stale_state(streams.at(3))
    first = streams.words(9, 6)
    assert first.dtype == np.uint64
    assert np.array_equal(first, fresh(5, rng.ROLE_CHANNEL, 9).bit_generator.random_raw(6))
    assert np.array_equal(streams.words(9, 6), first)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, MASK64), min_size=1, max_size=40))
def test_splitmix64_array_matches_scalar(xs):
    got = rng.splitmix64_array(np.array(xs, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [splitmix64(x) for x in xs]
