"""Keyed whole-frame bit interleaving.

The permutation for a key is a keyed bijection of the index set [0, n)
that can be evaluated at single points: an unbalanced Feistel network
(Luby & Rackoff 1988) on b = ceil(log2 n) bits, walked back into [0, n)
by re-encrypting any image that lands past n (cycle-walking; Black &
Rogaway, "Ciphers with arbitrary finite domains", CT-RSA 2002).  Each of
its ROUNDS rounds splits a value into its low floor(b/2) bits and the
rest, XORs the rest with the low bits of splitmix64(round key ^ low
bits), and rotates the low bits to the top.  Every round is invertible
whatever the round function, so each key gives a bijection.  The round
keys are the first ROUNDS outputs of a splitmix64 sequence started at the
frame key XORed with rng.ROLE_PERMUTATION, so the mapping is a pure,
reproducible function of (length, key).  Six rounds is the fewest for
which the images of fixed positions, and the gaps between the images of
adjacent positions, pass a chi-square test over many keys
(tests/test_interleaver.py); whitened per-frame pass counts then agree
with the exact i.i.d. law of the runs test.

Each frame gets its own key derived from a base key and the frame
sequence number (frame_keys, the one rule both whitening forms use); one
shared permutation would also whiten position-locked noise, but distinct
keys are the conservative choice and cost nothing.

Whitening can be applied after the fact: for noise that depends on bit
position rather than bit value, permuting the observed error vector is
exactly what a transmit-side interleave plus receive-side deinterleave
would have produced.  whiten_error_vector does that bookkeeping for one
whole vector; whiten_positions maps only the error positions of many
frames at once, which is what stats.error_table uses.
"""

from __future__ import annotations

import numpy as np

from . import rng

ROUNDS = 6
_MASK64 = (1 << 64) - 1


def _round_keys(keys: np.ndarray) -> np.ndarray:
    """(ROUNDS, len(keys)) uint64 round keys of the given frame keys."""
    start = keys.astype(np.uint64) ^ rng.ROLE_PERMUTATION
    steps = np.arange(ROUNDS, dtype=np.uint64) * rng.GAMMA
    return rng.splitmix64_array(start + steps[:, None])


def _feistel(x: np.ndarray, round_keys: np.ndarray, n: int) -> np.ndarray:
    """Images of positions x in [0, n); column j of round_keys keys x[j]."""
    bits = max(1, (n - 1).bit_length())
    low, high = bits // 2, bits - bits // 2
    low_mask, high_mask = (1 << low) - 1, (1 << high) - 1

    def encrypt(v: np.ndarray, keys: np.ndarray) -> np.ndarray:
        for k in keys:
            lo = v & low_mask
            v = (lo << high) | ((v >> low) ^ (rng.splitmix64_array(k ^ lo) & high_mask))
        return v

    y = encrypt(x.astype(np.uint64), round_keys)
    # x < n lies on a cycle of the bijection on [0, 2**bits), so walking
    # along it from x reaches a value below n; at most half of the
    # values are n or more, so walks are short (two steps on average or fewer).
    out = np.flatnonzero(y >= n)
    while out.size:
        y[out] = encrypt(y[out], round_keys[:, out])
        out = out[y[out] >= n]
    return y.astype(np.int64)


def _permutation(n: int, key: int) -> np.ndarray:
    keys = _round_keys(np.array([key & _MASK64], dtype=np.uint64))
    return _feistel(np.arange(n), np.repeat(keys, n, axis=1), n)


def interleave(payload: np.ndarray, key: int) -> np.ndarray:
    """Permute a bit vector with the keyed permutation of its index set."""
    payload = np.asarray(payload)
    if payload.size == 0:
        raise ValueError("payload must be non-empty")
    return payload[_permutation(payload.size, key)]


def deinterleave(payload: np.ndarray, key: int) -> np.ndarray:
    """Invert interleave for the same key."""
    payload = np.asarray(payload)
    if payload.size == 0:
        raise ValueError("payload must be non-empty")
    perm = _permutation(payload.size, key)
    out = np.empty_like(payload)
    out[perm] = payload
    return out


def frame_keys(base_key: int, seqs: np.ndarray) -> np.ndarray:
    """Per-frame permutation keys: splitmix64 mix of base key and each frame seq."""
    return rng.splitmix64_array(seqs.astype(np.uint64) ^ (base_key & _MASK64))


def whiten_error_vector(ev: np.ndarray, base_key: int, seq: int) -> np.ndarray:
    """Error vector as it would appear had the frame been interleaved."""
    return deinterleave(ev, int(frame_keys(base_key, np.array([seq]))[0]))


def whiten_positions(positions: np.ndarray, rows: np.ndarray, seqs: np.ndarray,
                     base_key: int, n: int) -> np.ndarray:
    """Where whitening moves each error position of n-bit frames.

    positions[j] is an error position of the frame with seq seqs[rows[j]];
    its image is the position of that error in
    whiten_error_vector(ev, base_key, seqs[rows[j]]).
    """
    return _feistel(positions, _round_keys(frame_keys(base_key, seqs))[:, rows], n)
