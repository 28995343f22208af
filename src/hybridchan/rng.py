"""Deterministic random streams for simulation and interleaving.

All randomness in the package flows through Philox4x64 (a counter-based
generator with a published algorithm, exposed through numpy).  Streams are
keyed by a 128-bit value: the high 64 bits hold the user seed XORed with a
role constant, the low 64 bits hold the frame index.  Two consumers of
randomness therefore never share a stream, and any frame's stream can be
reconstructed without generating its predecessors.

Philox is a pure function of its key and counter, so one instance serves
a whole (seed, role) family: ``StreamFamily(seed, role).at(index)``
re-keys it to the frame's key with a zero counter and an empty buffer,
which draws exactly what a freshly built ``Philox(key=...)`` would,
without the cost of building one (and of collecting the OS entropy its
constructor gathers before the key overrides it).  ``words(index, n)``
re-keys the same way and returns the stream's first n raw 64-bit words,
the words every Generator draw on the stream is computed from, so a
caller can make many frames' draws in numpy at once.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1

# Role constants separating the independent stream families.
ROLE_TX_PAYLOAD = 0x9D8F_3A17_5B2C_E601
ROLE_CHANNEL = 0x5EC4_A9B3_0D7F_1182
ROLE_PERIODIC = 0xC1A3_52E8_96BD_4F03
ROLE_PERMUTATION = 0x7F0E_6D29_C835_B1A4


@functools.cache
def _placeholder_seed() -> np.random.SeedSequence:
    """Fixed seed for the state a new family's Philox starts in.

    Every at() call overwrites all of that state, so the value never
    reaches a draw; a fixed seed only spares the OS entropy a seedless
    build collects.  Built on first use: touching np.random at import
    would load numpy's random modules (about 6 MB) into commands that
    never draw.
    """
    return np.random.SeedSequence(0)


class StreamFamily:
    """The Philox streams of one (seed, role) pair, one per index.

    at(index) returns a generator drawing the stream for that index from
    its start.  The family owns a single Philox and Generator and re-keys
    them on every call, so the generator returned is valid only until the
    next at() on the same family: use up one index's draws before asking
    for the next, and give each thread or worker its own family.
    """

    __slots__ = ("_bitgen", "_gen", "_key", "_state")

    def __init__(self, seed: int, role: int) -> None:
        self._bitgen = np.random.Philox(_placeholder_seed())
        self._gen = np.random.Generator(self._bitgen)
        # Philox's key words, low first: [index, seed ^ role].
        self._key = [0, (seed ^ role) & _MASK64]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # buffer empty: the next draw runs the counter
            "has_uint32": 0,  # no half-used 64-bit word left over
            "uinteger": 0,
        }

    def at(self, index: int) -> np.random.Generator:
        """Re-key to index, counter 0 and buffer empty; return the generator."""
        self._key[0] = index & _MASK64
        self._bitgen.state = self._state
        return self._gen

    def words(self, index: int, n: int) -> np.ndarray:
        """The first n raw uint64 words of index's stream, in draw order.

        These are the words the generator from at(index) draws from.
        random() takes one word and is (word >> 11) * 2**-53; uniform(a, b)
        is a + (b - a) * random(); integers(0, 2, n, uint8) takes ceil(n/8)
        words and is the top bit of each of their little-endian bytes
        (Lemire's method never rejects at range 2).  tests/test_rng.py
        checks these rules against the installed numpy.
        """
        self.at(index)
        return self._bitgen.random_raw(n)


def stream(seed: int, role: int, index: int = 0) -> np.random.Generator:
    """Return the Philox stream for (seed, role, index)."""
    return StreamFamily(seed, role).at(index)


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mix function (public-domain constant set)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)
