"""The package's PCG64 stream against its reference, numpy.random.default_rng:
every draw equal bit for bit."""

import numpy as np
import pytest

from sixvertex._rng import PCG64Stream

# one entropy word, the 32- and 64-bit edges, and a seed of four words
SEEDS = [0, 1, 1234, 2**32 - 1, 2**32, 2**64 + 17, 2**97 + 123456789]

# every (lo, hi) pair a check of `verify` draws from
RANGES = [(-1.5, 1.5), (-0.5, 0.5), (0.2, 1.2), (-0.3, 0.3), (-1.0, 1.0),
          (-0.9, 1.1), (-0.2, 0.2), (-1, 1)]


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_and_sized_draws_match_numpy(seed):
    ref, ours = np.random.default_rng(seed), PCG64Stream(seed)
    for lo, hi in RANGES:
        for size in (None, 1, 3, 7):
            want, got = ref.uniform(lo, hi, size), ours.uniform(lo, hi, size)
            assert type(got) is type(want)
            assert bits(got) == bits(want)
            if size is not None:
                assert got.dtype == want.dtype and got.shape == want.shape


@pytest.mark.parametrize("seed", SEEDS)
def test_long_stream_matches_numpy(seed):
    want = np.random.default_rng(seed).uniform(0.0, 1.0, 10_000)
    got = PCG64Stream(seed).uniform(0.0, 1.0, 10_000)
    assert bits(got) == bits(want)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        PCG64Stream(-1)
