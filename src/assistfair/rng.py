"""Deterministic, counter-based random streams.

Every random draw in this package is a pure function of a 64-bit key and a
draw index. The construction uses the SplitMix64 finalizer:

* ``derive_key(seed, *parts)`` folds integer identifiers (a stream tag, a
  replication index, a cell index, ...) into a new 64-bit key;
* draw ``j`` of the stream with key ``k`` is ``mix64(k + (j+1)*GOLDEN)``;
* uniforms map the mixed word onto the centered 53-bit grid
  ``(m + 0.5) * 2**-53``, which lies strictly inside (0, 1);
* Normal variates apply the inverse Normal CDF (``scipy.special.ndtri``)
  to those uniforms.

Because generation is counter-based, any slice of any stream can be
recomputed independently of every other slice. Monte Carlo replications are
therefore independent of execution order and chunk size, and a
replication's data can be reproduced in isolation from
``(master_seed, replication_index, stream, cell)`` alone.

The inverse-CDF method is used instead of polar or ziggurat rejection
sampling so that the number of uniforms consumed per variate is fixed.
Bit-exactness across *implementations* is not a goal; bit-exactness across
runs and partitionings of the same implementation is.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "GOLDEN",
    "STREAM_TRAINING",
    "STREAM_DEPLOYMENT",
    "STREAM_REPLICATION",
    "STREAM_SCENARIO",
    "derive_key",
    "replication_seed",
    "uniform_stream",
    "normal_stream",
    "uniform_block",
    "normal_block",
]

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# Fixed stream tags; folding a tag first keeps the per-purpose streams of one
# seed decorrelated from each other.
STREAM_TRAINING = 1
STREAM_DEPLOYMENT = 2
STREAM_REPLICATION = 3
STREAM_SCENARIO = 4

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_GOLDEN_U64 = np.uint64(GOLDEN)
_ONE = np.uint64(1)
_HALF_ULP = 0.5
_INV_2_53 = 2.0 ** -53


def _as_u64(x) -> np.ndarray:
    """Coerce an int or integer array to a uint64 array (scalars -> shape (1,)).

    numpy scalar uint64 arithmetic warns on wraparound while array arithmetic
    wraps silently, so all mixing is done on true arrays.
    """
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=False)
    return np.asarray([int(x) & _MASK], dtype=np.uint64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 arrays."""
    z = (z ^ (z >> _S30)) * _C1
    z = (z ^ (z >> _S27)) * _C2
    return z ^ (z >> _S31)


def derive_key(seed, *parts):
    """Fold ``parts`` into ``seed``, returning a 64-bit stream key.

    ``seed`` and each part may be a non-negative int or an integer ndarray;
    array inputs broadcast and produce an ndarray of keys. Scalar inputs
    produce a plain int.
    """
    scalar = not isinstance(seed, np.ndarray)
    k = _mix64(_as_u64(seed) + _GOLDEN_U64)
    for p in parts:
        scalar = scalar and not isinstance(p, np.ndarray)
        k = _mix64(k ^ _mix64(_as_u64(p) + _GOLDEN_U64))
    if scalar:
        return int(k[0])
    return k


def replication_seed(master_seed: int, replication_index: int):
    """Derived seed owned by one Monte Carlo replication.

    The replication's training streams are derived from this seed alone, so
    its data can be regenerated without running any other replication.
    """
    return derive_key(master_seed, STREAM_REPLICATION, replication_index)


def _to_unit(z: np.ndarray) -> np.ndarray:
    # top 53 bits -> (0, 1), never exactly 0 or 1
    return ((z >> _S11).astype(np.float64) + _HALF_ULP) * _INV_2_53


def uniform_stream(key, n: int, offset: int = 0) -> np.ndarray:
    """``n`` uniforms in (0, 1) from stream ``key``, starting at draw ``offset``."""
    idx = (np.arange(offset, offset + n, dtype=np.uint64) + _ONE) * _GOLDEN_U64
    return _to_unit(_mix64(_as_u64(key) + idx))


def normal_stream(key, n: int, mean: float = 0.0, sd: float = 1.0,
                  offset: int = 0) -> np.ndarray:
    """``n`` Normal(mean, sd^2) draws from stream ``key`` via the inverse CDF."""
    return mean + sd * ndtri(uniform_stream(key, n, offset))


def uniform_block(keys: np.ndarray, n: int) -> np.ndarray:
    """Matrix of uniforms: row ``i`` holds draws ``0..n-1`` of ``keys[i]``."""
    keys = _as_u64(keys)
    idx = (np.arange(n, dtype=np.uint64) + _ONE) * _GOLDEN_U64
    return _to_unit(_mix64(keys[:, None] + idx[None, :]))


def normal_block(keys: np.ndarray, n: int, mean: float = 0.0,
                 sd: float = 1.0) -> np.ndarray:
    """Matrix of Normal draws, one stream per row of ``keys``."""
    return mean + sd * ndtri(uniform_block(keys, n))
