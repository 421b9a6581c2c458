"""Human decision rules as posterior means.

A decision-maker with a prior over the cell means either decides unassisted
(prior mean), or observes one machine prediction for the case at hand and
decides by posterior mean. Observing the group-aware prediction for cell
``(x, g)`` is equivalent to observing the cell's training average, a Normal
signal centered at ``mu(x, g)``; observing the group-blind prediction is
equivalent to observing the pooled average, a Normal signal centered at the
count-weighted mean ``w1 mu(x,1) + w0 mu(x,0)``.

Two posterior engines are provided. Conjugate-Normal priors admit exact
affine formulas obtained by joint-Normal conditioning. Arbitrary discrete
priors over ``(mu1, mu0)`` pairs are handled by grid reweighting in
log-space, which stays stable however sharply the likelihood concentrates.

Each decision conditions only on the single prediction for its own cell,
never on the full prediction table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellError, PreconditionError, SignalSupportError
from .model import ConjugateNormalPrior, GridPrior, Prior

__all__ = [
    "DisparityCheck",
    "decide_unassisted",
    "decide_assisted_aware_conjugate",
    "decide_assisted_blind_conjugate",
    "grid_posterior_aware",
    "grid_posterior_blind",
    "check_delta_disparate",
]

# Rows per chunk are sized so one temporary stays near 16 MB; the grid axis
# is never partitioned, so chunking cannot perturb any row's reduction.
_CHUNK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class DisparityCheck:
    """Infimum of the conditional expected group gap given the weighted mean.

    ``infimum`` is the largest delta for which the prior is delta-disparate
    at the given training weights; ``-inf`` when the conditional mean is
    unbounded below (``bounded_below`` False). ``slope`` is the conjugate
    case's linear coefficient in the conditioning value, None for grids.
    """

    infimum: float
    bounded_below: bool
    slope: float | None = None

    def __float__(self) -> float:
        return self.infimum


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise PreconditionError(f"{name} must be positive")


def _as_signal_array(signal) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(signal, dtype=np.float64))
    return arr, np.ndim(signal) == 0


def decide_unassisted(prior: Prior, x, g: int) -> float:
    """Prior mean of mu(x, g): the decision with no machine input."""
    if isinstance(prior, ConjugateNormalPrior):
        return prior.beta[(x, g)]
    support = prior.support(x, g)
    return float(np.dot(prior.weights(x), support))


def decide_assisted_aware_conjugate(prior: ConjugateNormalPrior, fplus, n_cell: int,
                                    sigma_sq: float, x, g: int):
    """Posterior mean after the group-aware prediction for the own cell.

    The signal is the cell average, Normal(mu(x,g), sigma_sq/n_cell), so the
    posterior mean is the inverse-variance weighting
    (sigma_sq*beta + tau_sq*n_cell*fplus) / (sigma_sq + n_cell*tau_sq).
    Accepts a scalar or an array of signal values.
    """
    if n_cell == 0:
        raise EmptyCellError(f"group-aware decision undefined for empty cell ({x!r}, {g})")
    if n_cell < 0:
        raise PreconditionError("n_cell must be non-negative")
    _check_positive("sigma_sq", sigma_sq)
    beta = prior.beta[(x, g)]
    tau_sq = prior.tau_sq
    out = (sigma_sq * beta + tau_sq * n_cell * np.asarray(fplus, dtype=np.float64)) / (
        sigma_sq + n_cell * tau_sq
    )
    return float(out) if np.ndim(fplus) == 0 else out


def decide_assisted_blind_conjugate(prior: ConjugateNormalPrior, fminus,
                                    counts: tuple, sigma_sq: float, x, g: int):
    """Posterior mean after the group-blind prediction.

    The pooled average is Normal(w1*mu(x,1) + w0*mu(x,0), sigma_sq/n) with
    w_g = n_g/n, jointly Normal with the independent cell priors, so

        beta(x,g) + w_g*tau_sq*(fminus - (w1*beta1 + w0*beta0))
                    / ((w1^2 + w0^2)*tau_sq + sigma_sq/n).

    With n1 = n0 this reduces to updating the common level while keeping the
    prior gap untouched. Accepts a scalar or an array of signal values.
    """
    n1, n0 = counts
    n = n1 + n0
    if n == 0:
        raise EmptyCellError(f"group-blind decision undefined with no observations at x={x!r}")
    if n1 < 0 or n0 < 0:
        raise PreconditionError("counts must be non-negative")
    _check_positive("sigma_sq", sigma_sq)
    w1, w0 = n1 / n, n0 / n
    tau_sq = prior.tau_sq
    beta_g = prior.beta[(x, g)]
    signal_mean = w1 * prior.beta[(x, 1)] + w0 * prior.beta[(x, 0)]
    gain = (w1 if g == 1 else w0) * tau_sq / ((w1 * w1 + w0 * w0) * tau_sq + sigma_sq / n)
    out = beta_g + gain * (np.asarray(fminus, dtype=np.float64) - signal_mean)
    return float(out) if np.ndim(fminus) == 0 else out


def _grid_reweighted_mean(target: np.ndarray, centers: np.ndarray, weights: np.ndarray,
                          signals: np.ndarray, signal_var: float) -> np.ndarray:
    """Posterior mean of ``target`` under Normal(centers, signal_var) likelihoods.

    Works in log-space: each row is shifted by its own max log-posterior
    before exponentiation, so arbitrarily sharp likelihoods cannot underflow
    all mass at once unless it is genuinely gone.
    """
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    out = np.empty(signals.shape[0], dtype=np.float64)
    rows = max(1, _CHUNK_ELEMENTS // max(1, centers.size))
    for start in range(0, signals.shape[0], rows):
        s = signals[start:start + rows]
        dev = s[:, None] - centers[None, :]
        # extreme signals overflow to -inf log-mass, caught as support errors
        with np.errstate(over="ignore"):
            lp = logw[None, :] - dev * dev / (2.0 * signal_var)
        shift = lp.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(shift)):
            bad = int(np.flatnonzero(~np.isfinite(shift.ravel()))[0]) + start
            raise SignalSupportError(
                f"signal outside prior support (signal index {bad}, value {signals[bad]!r})"
            )
        w = np.exp(lp - shift)
        out[start:start + rows] = (w @ target) / w.sum(axis=1)
    return out


def grid_posterior_aware(prior: GridPrior, fplus, n_cell: int, sigma_sq: float, x, g: int):
    """Grid-prior posterior mean after the group-aware prediction.

    Each grid pair is reweighted by the Normal density of the signal at its
    mu_g coordinate with variance sigma_sq/n_cell.
    """
    if n_cell == 0:
        raise EmptyCellError(f"group-aware decision undefined for empty cell ({x!r}, {g})")
    if n_cell < 0:
        raise PreconditionError("n_cell must be non-negative")
    _check_positive("sigma_sq", sigma_sq)
    signals, scalar = _as_signal_array(fplus)
    if not np.all(np.isfinite(signals)):
        raise SignalSupportError("signal outside prior support (non-finite signal)")
    support = prior.support(x, g)
    out = _grid_reweighted_mean(support, support, prior.weights(x), signals,
                                sigma_sq / n_cell)
    return float(out[0]) if scalar else out


def grid_posterior_blind(prior: GridPrior, fminus, counts: tuple, sigma_sq: float, x, g: int):
    """Grid-prior posterior mean after the group-blind prediction.

    Pairs are reweighted by the Normal density of the signal at
    w1*mu1 + w0*mu0 with variance sigma_sq/(n1+n0).
    """
    n1, n0 = counts
    n = n1 + n0
    if n == 0:
        raise EmptyCellError(f"group-blind decision undefined with no observations at x={x!r}")
    if n1 < 0 or n0 < 0:
        raise PreconditionError("counts must be non-negative")
    _check_positive("sigma_sq", sigma_sq)
    signals, scalar = _as_signal_array(fminus)
    if not np.all(np.isfinite(signals)):
        raise SignalSupportError("signal outside prior support (non-finite signal)")
    mu1, mu0, weights = prior.points[x]
    centers = (n1 * mu1 + n0 * mu0) / n
    target = mu1 if g == 1 else mu0
    out = _grid_reweighted_mean(target, centers, weights, signals, sigma_sq / n)
    return float(out[0]) if scalar else out


def check_delta_disparate(prior: Prior, counts: tuple, x,
                          group_tol: float = 1e-9) -> DisparityCheck:
    """Infimum over conditioning values of E[mu1 - mu0 | w1*mu1 + w0*mu0].

    The prior is delta-disparate at ``x`` exactly when this infimum is at
    least delta. For independent equal-variance Normal cell priors the
    conditional mean is linear in the conditioning value with slope
    (w1 - w0)/(w1^2 + w0^2): constant (the prior gap) under balanced counts,
    unbounded below otherwise. For grid priors the scan runs over the
    weighted-mean values realized on the support, grouping values closer
    than ``group_tol`` (relative to the support's span).
    """
    n1, n0 = counts
    n = n1 + n0
    if n <= 0:
        raise PreconditionError("counts must have positive total")
    w1, w0 = n1 / n, n0 / n
    if isinstance(prior, ConjugateNormalPrior):
        slope = (w1 - w0) / (w1 * w1 + w0 * w0)
        gap = prior.beta_gap(x)
        if slope == 0.0:
            return DisparityCheck(infimum=gap, bounded_below=True, slope=0.0)
        return DisparityCheck(infimum=-math.inf, bounded_below=False, slope=slope)
    mu1, mu0, weights = prior.points[x]
    keep = weights > 0
    mu1, mu0, weights = mu1[keep], mu0[keep], weights[keep]
    mbar = w1 * mu1 + w0 * mu0
    order = np.argsort(mbar, kind="stable")
    mbar, gaps, weights = mbar[order], (mu1 - mu0)[order], weights[order]
    span = float(mbar[-1] - mbar[0]) if mbar.size > 1 else 0.0
    atol = group_tol * max(1.0, span)
    infimum = math.inf
    start = 0
    for stop in range(1, mbar.size + 1):
        if stop < mbar.size and mbar[stop] - mbar[start] <= atol:
            continue
        w = weights[start:stop]
        cond_mean = float(np.dot(w, gaps[start:stop]) / w.sum())
        infimum = min(infimum, cond_mean)
        start = stop
    return DisparityCheck(infimum=infimum, bounded_below=True, slope=None)

