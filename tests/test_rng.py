"""Counter-based stream generator: determinism, slicing, and distribution."""

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri

from assistfair import rng

# worst relative gap to scipy seen for the AS 241 kernel is about 1.05e-15
NDTRI_RTOL = 4e-15
MASK = (1 << 64) - 1


def grid_uniforms(n, seed):
    """``n`` points of the centred 52-bit grid, from numpy's own generator."""
    m = np.random.default_rng(seed).integers(0, 1 << 52, size=n, dtype=np.uint64)
    return (m.astype(np.float64) + 0.5) * 2.0 ** -52


def assert_matches_scipy(u):
    ours, ref = rng.ndtri(u), scipy_ndtri(u)
    assert np.all(np.isfinite(ours))
    rel = np.abs(ours - ref) / np.maximum(np.abs(ref), np.finfo(np.float64).tiny)
    assert rel.max() <= NDTRI_RTOL, u[np.argmax(rel)]


def uniforms(key, n):
    """Draws ``0..n-1`` of the stream with key ``key``."""
    return rng.uniform_block(key, n)[0]


def test_uniform_stream_deterministic():
    a = uniforms(12345, 64)
    b = uniforms(12345, 64)
    assert np.array_equal(a, b)


def test_uniform_stream_open_interval():
    u = uniforms(7, 10000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_unit_map_stays_inside_open_interval_at_extreme_words():
    words = np.asarray([0, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
    u = rng._to_unit(words)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert u.tolist() == [2.0 ** -53, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53]
    assert np.all(np.isfinite(rng.ndtri(u)))


def test_ndtri_is_odd_about_one_half_on_the_grid():
    u = np.concatenate([grid_uniforms(200_000, 1), uniforms(3, 50_000),
                        rng._to_unit(np.asarray([0, 1 << 63, (1 << 64) - 1],
                                                dtype=np.uint64))])
    assert np.array_equal(rng.ndtri(1.0 - u), -rng.ndtri(u))


@pytest.mark.parametrize("u", [
    np.geomspace(1e-300, 0.075, 100_001),
    1.0 - np.geomspace(2.0 ** -53, 0.075, 100_001),
    np.linspace(0.05, 0.95, 200_001),
], ids=["lower_tail", "upper_tail", "centre"])
def test_ndtri_matches_scipy_on_dense_sweeps(u):
    assert_matches_scipy(u)


def test_ndtri_matches_scipy_on_random_grid_points():
    assert_matches_scipy(grid_uniforms(2_000_000, 2))


@pytest.mark.parametrize("edge", [0.075, 0.925, np.exp(-25.0), -np.expm1(-25.0)],
                         ids=["0.075", "0.925", "exp(-25)", "1-exp(-25)"])
def test_ndtri_matches_scipy_at_region_boundaries(edge):
    below = [np.nextafter(edge, 0.0)]
    above = [np.nextafter(edge, 1.0)]
    for _ in range(2):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    assert_matches_scipy(np.asarray(below[::-1] + [edge] + above))


def test_shorter_block_is_a_prefix_of_longer():
    keys = np.asarray([99, 100], dtype=np.uint64)
    whole = rng.uniform_block(keys, 40)
    assert np.array_equal(rng.uniform_block(keys, 15), whole[:, :15])


def test_distinct_keys_give_distinct_streams():
    a = uniforms(1, 32)
    b = uniforms(2, 32)
    assert not np.array_equal(a, b)


def mix64(z):
    """SplitMix64's finalizer on one Python int, as the stream definition states it."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_block_rows_match_streams():
    # draw j of the stream with key k is the top 52 bits of mix64(k + (j+1)*GOLDEN)
    keys = np.asarray([rng.derive_key(5, i) for i in range(6)], dtype=np.uint64)
    block = rng.uniform_block(keys, 17)
    assert block.shape == (6, 17)
    for i, key in enumerate(keys.tolist()):
        expected = [((mix64((key + (j + 1) * rng.GOLDEN) & MASK) >> 12) + 0.5) * 2.0 ** -52
                    for j in range(17)]
        assert block[i].tolist() == expected


def test_normal_block_matches_streams():
    keys = np.asarray([rng.derive_key(11, i) for i in range(4)], dtype=np.uint64)
    block = rng.normal_block(keys, 9, mean=2.0, sd=3.0)
    assert np.array_equal(block, 2.0 + 3.0 * rng.ndtri(rng.uniform_block(keys, 9)))


def test_derive_key_scalar_and_array_agree():
    scalar = rng.derive_key(42, rng.STREAM_TRAINING, 3)
    arr = rng.derive_key(42, rng.STREAM_TRAINING, np.asarray([3], dtype=np.uint64))
    assert isinstance(scalar, int)
    assert isinstance(arr, np.ndarray)
    assert int(arr[0]) == scalar


def test_derive_key_vectorizes_over_parts():
    idx = np.arange(5, dtype=np.uint64)
    keys = rng.derive_key(42, rng.STREAM_TRAINING, idx)
    singles = [rng.derive_key(42, rng.STREAM_TRAINING, int(i)) for i in idx]
    assert keys.tolist() == singles


def test_fold_key_continues_a_derivation():
    assert rng.fold_key(rng.derive_key(42, 1), 7, 3) == rng.derive_key(42, 1, 7, 3)
    seeds = np.arange(6, dtype=np.uint64)
    prefix = rng.derive_key(seeds, rng.STREAM_TRAINING)
    assert np.array_equal(rng.fold_key(prefix, 5), rng.derive_key(seeds, rng.STREAM_TRAINING, 5))


def test_derive_key_order_sensitive():
    assert rng.derive_key(0, 1, 2) != rng.derive_key(0, 2, 1)


def test_derive_key_accepts_full_64_bit_range():
    k = rng.derive_key(2**64 - 1, 2**63 + 17)
    assert isinstance(k, int)
    assert 0 <= k < 2**64


def test_replication_seed_matches_derive_key():
    assert rng.replication_seed(777, 12) == rng.derive_key(777, rng.STREAM_REPLICATION, 12)
    many = rng.replication_seed(777, np.arange(8, dtype=np.uint64))
    assert len(set(many.tolist())) == 8


def test_stream_tags_are_distinct():
    # the tags are folded into every key, so their values are pinned
    assert (rng.STREAM_TRAINING, rng.STREAM_REPLICATION, rng.STREAM_SCENARIO) == (1, 3, 4)


def test_normal_stream_moments():
    z = rng.normal_block(2024, 200000)[0]
    assert abs(z.mean()) < 4.0 / np.sqrt(len(z))
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(len(z))


def test_normal_stream_affine_parameters():
    base = rng.normal_block(15, 100)
    shifted = rng.normal_block(15, 100, mean=5.0, sd=2.0)
    assert np.allclose(shifted, 5.0 + 2.0 * base, rtol=1e-12, atol=1e-12)
