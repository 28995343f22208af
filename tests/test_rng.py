"""A re-keyed stream family draws exactly what freshly built generators draw."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridchan import rng

MASK64 = (1 << 64) - 1

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
