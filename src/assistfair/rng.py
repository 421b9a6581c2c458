"""Deterministic, counter-based random streams.

Every random draw in this package is a pure function of a 64-bit key and a
draw index. The construction uses the SplitMix64 finalizer:

* ``derive_key(seed, *parts)`` folds integer identifiers (a stream tag, a
  replication index, a cell index, ...) into a new 64-bit key, and
  ``fold_key`` continues a fold from a key already derived;
* draw ``j`` of the stream with key ``k`` is ``mix64(k + (j+1)*GOLDEN)``;
* uniforms map the top 52 bits ``m`` of the mixed word onto the centred grid
  ``(m + 0.5) * 2**-52``. Every grid point is an exact double strictly
  inside (0, 1), and the grid is symmetric: ``1 - u`` is a grid point too;
* Normal variates apply the inverse Normal CDF ``ndtri`` to those uniforms.
  It is a numpy port of Wichura's Algorithm AS 241 (PPND16; Applied
  Statistics 37(3), 1988), within about 1e-15 relative of scipy's
  ``ndtri``; on the grid ``ndtri(1 - u) == -ndtri(u)`` exactly.

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

__all__ = [
    "GOLDEN",
    "STREAM_TRAINING",
    "STREAM_REPLICATION",
    "STREAM_SCENARIO",
    "derive_key",
    "fold_key",
    "replication_seed",
    "uniform_block",
    "normal_block",
]

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# Fixed stream tags; folding a tag first keeps the per-purpose streams of one
# seed decorrelated from each other. Tag 2 is unused; the tags keep their
# values so that every derived key does too.
STREAM_TRAINING = 1
STREAM_REPLICATION = 3
STREAM_SCENARIO = 4

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S12 = np.uint64(12)
_GOLDEN_U64 = np.uint64(GOLDEN)
_ONE = np.uint64(1)
_INV_2_52 = 2.0 ** -52


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
    k = _mix64(_as_u64(seed) + _GOLDEN_U64)
    return fold_key(k if isinstance(seed, np.ndarray) else int(k[0]), *parts)


def fold_key(key, *parts):
    """Fold ``parts`` into an already derived ``key``.

    ``fold_key(derive_key(seed, *a), *b) == derive_key(seed, *a, *b)``, so a
    prefix that many keys share is derived once. Types follow ``derive_key``.
    """
    scalar = not isinstance(key, np.ndarray)
    k = _as_u64(key)
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
    # top 52 bits -> (m + 0.5) * 2**-52: exact, centred, never 0 or 1
    return ((z >> _S12).astype(np.float64) + 0.5) * _INV_2_52


# AS 241 (PPND16) rational approximations, constant term first. Numerators
# _A, _C, _E and denominators _B, _D, _F serve |u - 0.5| <= 0.425, then
# tails with r = sqrt(-log(min(u, 1 - u))) <= 5, then the far tails. Every
# coefficient is positive and so is every argument, so no term cancels.
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _rational(num: tuple, den: tuple, r: np.ndarray) -> np.ndarray:
    """``num(r) / den(r)`` by Horner's rule, in place on fresh arrays."""
    p = r * num[-1]
    q = r * den[-1]
    for a, b in zip(num[-2:0:-1], den[-2:0:-1]):
        p += a
        p *= r
        q += b
        q *= r
    p += num[0]
    q += den[0]
    p /= q
    return p


def ndtri(u):
    """Inverse of the standard Normal CDF, for ``u`` strictly inside (0, 1).

    Wichura's AS 241 (PPND16), elementwise: a rational function of
    ``(u - 0.5)**2`` near the centre, and of ``sqrt(-log(min(u, 1 - u)))``
    in the tails. Returns an array shaped like ``u``.
    """
    shape = np.shape(u)
    u = np.asarray(u, dtype=np.float64).ravel()
    q = u - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    z = _rational(_A, _B, r)
    z *= q
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        ut = u[tail]
        s = np.minimum(ut, 1.0 - ut)
        np.log(s, out=s)
        np.negative(s, out=s)
        np.sqrt(s, out=s)
        zt = _rational(_C, _D, s - 1.6)
        if s.max() > 5.0:
            far = s > 5.0
            zt[far] = _rational(_E, _F, s[far] - 5.0)
        z[tail] = np.copysign(zt, q[tail])
    return z.reshape(shape)


def uniform_block(keys: np.ndarray, n: int) -> np.ndarray:
    """Matrix of uniforms: row ``i`` holds draws ``0..n-1`` of ``keys[i]``."""
    keys = _as_u64(keys)
    idx = (np.arange(n, dtype=np.uint64) + _ONE) * _GOLDEN_U64
    return _to_unit(_mix64(keys[:, None] + idx[None, :]))


def normal_block(keys: np.ndarray, n: int, mean: float = 0.0,
                 sd: float = 1.0) -> np.ndarray:
    """Matrix of Normal draws, one stream per row of ``keys``."""
    return mean + sd * ndtri(uniform_block(keys, n))
