"""The uniform draws of numpy's `default_rng(seed)`, without loading numpy's
random package.

`verify` draws a few hundred uniforms per run; importing numpy's random
package costs more memory than they are worth (it loads OpenSSL's libcrypto
through `secrets`).  `PCG64Stream(seed).uniform(lo, hi[, size])` returns, bit
for bit, what numpy's `default_rng(seed).uniform(lo, hi[, size])` returns, so
a seed gives the same points with either generator:

- the seed is expanded by numpy's `SeedSequence` (`bit_generator.pyx`) into
  four 64-bit words, the 128-bit state and stream of a PCG64 generator;
- each 64-bit output is the XSL-RR permutation of the stepped 128-bit LCG
  state (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation",
  HMC-CS-2014-0905);
- a uniform is `lo + (hi - lo) * ((next64 >> 11) * 2**-53)`.
"""

from __future__ import annotations

import numpy as np

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT, _POOL_SIZE = 16, 4

# the 128-bit LCG multiplier of PCG64
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed):
    """`SeedSequence(seed).generate_state(4, np.uint64)` as ints."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = []
    while True:                         # 32-bit words, least significant first
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):                  # four 64-bit words, low half first
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    return [lo | (hi << 32) for lo, hi in zip(state[::2], state[1::2])]


class PCG64Stream:
    """The PCG64 generator of numpy's `default_rng(seed)`; only its `uniform`
    draws."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
        # numpy's pcg64_set_seed: from state 0, one step (to `inc`), add the
        # seed, one more step
        self._state = ((self._inc + ((s0 << 64) | s1)) * _PCG_MULT + self._inc) & _MASK128

    def _next_double(self):
        """Step the LCG; the XSL-RR output's top 53 bits as a float in [0, 1)."""
        self._state = s = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = s >> 122
        x = ((s >> 64) ^ s) & _MASK64
        return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * 2.0 ** -53

    def uniform(self, lo, hi, size=None):
        """A float in [lo, hi), or a float64 array of `size` of them."""
        lo, scale = float(lo), float(hi) - float(lo)
        if size is None:
            return lo + scale * self._next_double()
        return np.array([lo + scale * self._next_double() for _ in range(size)])
