"""Domain types and the data-generating process.

The ground truth is a finite-support covariate ``X``, a binary group ``G``,
and a real label ``Y`` with ``Y | X=x, G=g ~ Normal(mu(x, g), noise_var)``.
Training data consists of a fixed number of iid draws per ``(x, g)`` cell.
The decision-maker's beliefs over the cell means come in two flavors: an
independent conjugate-Normal prior per cell, or an arbitrary discrete grid
of ``(mu1, mu0)`` pairs per covariate value. Each prior class carries the
human decision rules under it: the prior mean, the posterior means after the
group-aware or group-blind machine signal, and the disparity infimum that
certifies the prior as delta-disparate.

All types are plain frozen dataclasses; nothing here mutates after
construction. Training draws are simulated by :mod:`assistfair.simulate`.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyCellError,
    PreconditionError,
    SignalSupportError,
    SpecValidationError,
)

__all__ = [
    "PROB_SUM_TOL",
    "Covariate",
    "Cell",
    "RuleKind",
    "ProblemSpec",
    "TrainingConfig",
    "ConjugateNormalPrior",
    "GridPrior",
    "Prior",
    "DerivedExampleParams",
    "validate_spec",
    "derive_example_params",
    "normal_marginal_grid",
    "product_grid",
    "diagonal_grid",
    "dense_grid_from_conjugate",
    "spec_to_document",
    "document_to_spec",
    "prior_to_document",
    "document_to_prior",
    "config_to_document",
    "document_to_config",
]

PROB_SUM_TOL = 1e-12
_MAX_SEED = 2 ** 64

Covariate = Hashable
Cell = tuple  # (x, g)


class RuleKind(enum.Enum):
    """The five decision rules under comparison."""

    F_MINUS = "f_minus"   # group-blind machine prediction, applied directly
    F_PLUS = "f_plus"     # group-aware machine prediction, applied directly
    D0 = "d0"             # unassisted human decision (prior mean)
    D_MINUS = "d_minus"   # human decision after seeing the blind prediction
    D_PLUS = "d_plus"     # human decision after seeing the aware prediction

    @classmethod
    def from_name(cls, name: str) -> "RuleKind":
        for kind in cls:
            if kind.value == name or kind.name == name:
                return kind
        raise SpecValidationError(f"unknown rule kind {name!r}")


ALL_RULE_KINDS = tuple(RuleKind)


@dataclass(frozen=True)
class ProblemSpec:
    """Ground truth of the data-generating process.

    covariates:      ordered finite support of X (opaque identifiers)
    covariate_probs: P(X=x) per covariate, summing to 1
    group_probs:     P(G=1 | X=x) per covariate
    true_means:      mu(x, g) per cell (x, g in {0, 1})
    noise_var:       label noise variance, shared by all cells
    """

    covariates: tuple
    covariate_probs: Mapping
    group_probs: Mapping
    true_means: Mapping
    noise_var: float

    def mu(self, x, g: int) -> float:
        return self.true_means[(x, g)]

    def p_x(self, x) -> float:
        return self.covariate_probs[x]

    def p_group(self, x, g: int) -> float:
        p1 = self.group_probs[x]
        return p1 if g == 1 else 1.0 - p1

    def cells(self) -> tuple:
        """Canonical cell order: covariates in spec order, g in (0, 1)."""
        return tuple((x, g) for x in self.covariates for g in (0, 1))

    def cell_index(self, x, g: int) -> int:
        return 2 * self.covariates.index(x) + g

    def delta_mu(self, x) -> float:
        return self.mu(x, 1) - self.mu(x, 0)


@dataclass(frozen=True)
class TrainingConfig:
    """Per-cell training sample sizes and the sampling seed."""

    counts: Mapping
    seed: int

    def count(self, x, g: int) -> int:
        return self.counts.get((x, g), 0)

    def total(self, x) -> int:
        return self.count(x, 0) + self.count(x, 1)


# Rows per chunk of the grid posterior are sized so one temporary stays near
# 16 MB; the grid axis is never partitioned, so chunking cannot perturb any
# row's reduction.
_GRID_CHUNK_ELEMENTS = 1 << 21
# Pooled-signal centres of a grid prior closer than this fraction of the
# support's span are one conditioning value in ``disparity_infimum``.
_GROUP_TOL = 1e-9


def _checked_signal(signal, counts: tuple, sigma_sq: float, empty: str) -> np.ndarray:
    """The signal as a float array, after the checks every posterior shares.

    ``counts`` are the training counts behind the signal; ``empty`` is the
    message raised when they are all zero.
    """
    if any(n < 0 for n in counts):
        raise PreconditionError("counts must be non-negative")
    if sum(counts) == 0:
        raise EmptyCellError(empty)
    if not sigma_sq > 0:
        raise PreconditionError("sigma_sq must be positive")
    arr = np.asarray(signal, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise SignalSupportError("signal outside prior support (non-finite signal)")
    return arr


def _aware_empty(x, g: int) -> str:
    return f"group-aware decision undefined for empty cell ({x!r}, {g})"


def _blind_empty(x) -> str:
    return f"group-blind decision undefined with no observations at x={x!r}"


def _pool_weights(counts: tuple) -> tuple:
    n1, n0 = counts
    n = n1 + n0
    if n <= 0:
        raise PreconditionError("counts must have positive total")
    return n1 / n, n0 / n


@dataclass(frozen=True)
class ConjugateNormalPrior:
    """Independent Normal(beta(x, g), tau_sq) belief per cell.

    The decision-maker decides unassisted by the prior mean, or observes one
    machine prediction for the case at hand and decides by posterior mean.
    The group-aware prediction for cell ``(x, g)`` is the cell's training
    average, a Normal signal centred at ``mu(x, g)``; the group-blind one is
    the pooled average, centred at the count-weighted mean
    ``w1 mu(x,1) + w0 mu(x,0)``. Each decision conditions only on the single
    prediction for its own cell, never on the full prediction table. Under
    this prior every posterior mean is an exact affine formula obtained by
    joint-Normal conditioning.

    The posterior methods accept a scalar or an array of signal values and
    return a result shaped like the signal.
    """

    kind = "conjugate_normal"

    beta: Mapping
    tau_sq: float

    def __post_init__(self):
        if not self.tau_sq > 0:
            raise SpecValidationError("tau_sq must be positive")
        for cell, b in self.beta.items():
            if not math.isfinite(b):
                raise SpecValidationError(f"prior mean for cell {cell} is not finite")

    def beta_gap(self, x) -> float:
        return self.beta[(x, 1)] - self.beta[(x, 0)]

    def beta_bar(self, x) -> float:
        return 0.5 * (self.beta[(x, 1)] + self.beta[(x, 0)])

    def prior_mean(self, x, g: int) -> float:
        """Prior mean of mu(x, g): the decision with no machine input."""
        return self.beta[(x, g)]

    def posterior_aware(self, signal, n_cell: int, sigma_sq: float, x, g: int):
        """Posterior mean of mu(x, g) after the group-aware prediction.

        The signal is the cell average, Normal(mu(x,g), sigma_sq/n_cell), so the
        posterior mean is the inverse-variance weighting
        (sigma_sq*beta + tau_sq*n_cell*signal) / (sigma_sq + n_cell*tau_sq).
        """
        s = _checked_signal(signal, (n_cell,), sigma_sq, _aware_empty(x, g))
        return (sigma_sq * self.beta[(x, g)] + self.tau_sq * n_cell * s) / (
            sigma_sq + n_cell * self.tau_sq
        )

    def posterior_blind(self, signal, counts: tuple, sigma_sq: float, x, g: int):
        """Posterior mean of mu(x, g) after the group-blind prediction.

        The pooled average is Normal(w1*mu(x,1) + w0*mu(x,0), sigma_sq/n) with
        w_g = n_g/n, jointly Normal with the independent cell priors, so

            beta(x,g) + w_g*tau_sq*(signal - (w1*beta1 + w0*beta0))
                        / ((w1^2 + w0^2)*tau_sq + sigma_sq/n).

        With n1 = n0 this updates the common level and keeps the prior gap.
        """
        s = _checked_signal(signal, counts, sigma_sq, _blind_empty(x))
        w1, w0 = _pool_weights(counts)
        n = sum(counts)
        signal_mean = w1 * self.beta[(x, 1)] + w0 * self.beta[(x, 0)]
        gain = (w1 if g == 1 else w0) * self.tau_sq / (
            (w1 * w1 + w0 * w0) * self.tau_sq + sigma_sq / n)
        return self.beta[(x, g)] + gain * (s - signal_mean)

    def disparity_infimum(self, counts: tuple, x) -> float:
        """Infimum over conditioning values of E[mu1 - mu0 | w1*mu1 + w0*mu0].

        The prior is delta-disparate at ``x`` exactly when this is at least
        delta. The conditional mean is linear in the conditioning value with
        slope (w1 - w0)/(w1^2 + w0^2): constant at the prior gap under
        balanced counts, unbounded below (``-inf``) otherwise.
        """
        w1, w0 = _pool_weights(counts)
        return self.beta_gap(x) if w1 == w0 else -math.inf


@dataclass(frozen=True)
class GridPrior:
    """Discrete belief over mean pairs: per x, points (mu1_i, mu0_i) with weights.

    Weights must be finite, non-negative and sum to 1 per covariate value.
    The decisions are those of :class:`ConjugateNormalPrior`: the prior mean,
    or the posterior mean after one machine signal. Each posterior reweights
    the grid pairs by the Normal likelihood of the signal at the pair's signal
    centre (``mu_g`` for the aware prediction, ``w1*mu1 + w0*mu0`` for the
    blind one), in log-space so that however sharply the likelihood
    concentrates, mass underflows only where it is genuinely gone.

    The posterior methods accept a scalar or an array of signal values and
    return a result shaped like the signal.
    """

    kind = "grid"

    points: Mapping  # x -> (mu1: ndarray, mu0: ndarray, weights: ndarray)

    def __post_init__(self):
        frozen = {}
        for x, (mu1, mu0, w) in self.points.items():
            mu1 = np.asarray(mu1, dtype=np.float64)
            mu0 = np.asarray(mu0, dtype=np.float64)
            w = np.asarray(w, dtype=np.float64)
            if mu1.size == 0:
                raise SpecValidationError(f"grid prior at x={x!r} is empty")
            if not (mu1.shape == mu0.shape == w.shape):
                raise SpecValidationError(f"grid arrays at x={x!r} have mismatched shapes")
            if not (np.all(np.isfinite(w)) and np.all(w >= 0)):
                raise SpecValidationError(
                    f"grid weights at x={x!r} must be finite and non-negative")
            if abs(float(w.sum()) - 1.0) > PROB_SUM_TOL:
                raise SpecValidationError(
                    f"grid weights at x={x!r} sum to {float(w.sum())!r}, expected 1"
                )
            if not (np.all(np.isfinite(mu1)) and np.all(np.isfinite(mu0))):
                raise SpecValidationError(f"grid support at x={x!r} contains non-finite values")
            for arr in (mu1, mu0, w):
                arr.flags.writeable = False
            frozen[x] = (mu1, mu0, w)
        object.__setattr__(self, "points", frozen)

    def support(self, x, g: int) -> np.ndarray:
        mu1, mu0, _ = self.points[x]
        return mu1 if g == 1 else mu0

    def weights(self, x) -> np.ndarray:
        return self.points[x][2]

    def prior_mean(self, x, g: int) -> float:
        """Prior mean of mu(x, g): the decision with no machine input."""
        return float(np.dot(self.weights(x), self.support(x, g)))

    def posterior_aware(self, signal, n_cell: int, sigma_sq: float, x, g: int):
        """Posterior mean of mu(x, g) after the group-aware prediction.

        Each pair is reweighted by the Normal density of the signal at its
        mu_g coordinate with variance sigma_sq/n_cell.
        """
        s = _checked_signal(signal, (n_cell,), sigma_sq, _aware_empty(x, g))
        support = self.support(x, g)
        return self._posterior_mean(x, support, support, s, sigma_sq / n_cell)

    def posterior_blind(self, signal, counts: tuple, sigma_sq: float, x, g: int):
        """Posterior mean of mu(x, g) after the group-blind prediction.

        Pairs are reweighted by the Normal density of the signal at
        w1*mu1 + w0*mu0 with variance sigma_sq/(n1+n0).
        """
        s = _checked_signal(signal, counts, sigma_sq, _blind_empty(x))
        n1, n0 = counts
        n = n1 + n0
        mu1, mu0, _ = self.points[x]
        centers = (n1 * mu1 + n0 * mu0) / n
        return self._posterior_mean(x, mu1 if g == 1 else mu0, centers, s, sigma_sq / n)

    def disparity_infimum(self, counts: tuple, x) -> float:
        """Infimum over conditioning values of E[mu1 - mu0 | w1*mu1 + w0*mu0].

        The prior is delta-disparate at ``x`` exactly when this is at least
        delta. The scan runs over the weighted-mean values realised on the
        support, grouping values closer than ``_GROUP_TOL`` of the span.
        """
        w1, w0 = _pool_weights(counts)
        mu1, mu0, weights = self.points[x]
        keep = weights > 0
        mu1, mu0, weights = mu1[keep], mu0[keep], weights[keep]
        mbar = w1 * mu1 + w0 * mu0
        order = np.argsort(mbar, kind="stable")
        mbar, gaps, weights = mbar[order], (mu1 - mu0)[order], weights[order]
        span = float(mbar[-1] - mbar[0]) if mbar.size > 1 else 0.0
        atol = _GROUP_TOL * max(1.0, span)
        infimum = math.inf
        start = 0
        for stop in range(1, mbar.size + 1):
            if stop < mbar.size and mbar[stop] - mbar[start] <= atol:
                continue
            w = weights[start:stop]
            infimum = min(infimum, float(np.dot(w, gaps[start:stop]) / w.sum()))
            start = stop
        return infimum

    def _posterior_mean(self, x, target: np.ndarray, centers: np.ndarray,
                        signal: np.ndarray, signal_var: float):
        """Posterior mean of ``target`` under Normal(centers, signal_var) likelihoods.

        Each signal's row is shifted by its own max log-posterior before
        exponentiation, so the row underflows only when all its mass is gone.
        """
        signals = signal.reshape(-1)
        with np.errstate(divide="ignore"):
            logw = np.log(self.weights(x))
        out = np.empty(signals.shape[0], dtype=np.float64)
        rows = max(1, _GRID_CHUNK_ELEMENTS // max(1, centers.size))
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
        return out.reshape(signal.shape)[()]


Prior = ConjugateNormalPrior | GridPrior


@dataclass(frozen=True)
class DerivedExampleParams:
    """Scalar reparametrization of the balanced single-covariate example."""

    delta_mu: float   # mu(1) - mu(0)
    mu_bar: float     # (mu(1) + mu(0)) / 2
    delta: float      # beta(1) - beta(0)
    beta_bar: float   # (beta(1) + beta(0)) / 2
    n: int            # total sample size, split n/2 per group


def validate_spec(spec: ProblemSpec) -> ProblemSpec:
    """Check all ProblemSpec invariants; on success return the spec unchanged.

    Raises SpecValidationError naming the first violated invariant.
    """
    if len(spec.covariates) == 0:
        raise SpecValidationError("covariate support is empty")
    if len(set(spec.covariates)) != len(spec.covariates):
        raise SpecValidationError("covariate values must be distinct")
    if not (isinstance(spec.noise_var, (int, float)) and spec.noise_var > 0):
        raise SpecValidationError("noise_var must be positive")
    total = math.fsum(spec.covariate_probs.get(x, 0.0) for x in spec.covariates)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise SpecValidationError(f"covariate_probs sum to {total!r}, expected 1")
    for x in spec.covariates:
        px = spec.covariate_probs.get(x)
        if px is None or not 0.0 <= px <= 1.0:
            raise SpecValidationError(f"covariate_probs[{x!r}] must lie in [0, 1]")
        pg = spec.group_probs.get(x)
        if pg is None or not 0.0 <= pg <= 1.0:
            raise SpecValidationError(f"group_probs[{x!r}] must lie in [0, 1]")
        for g in (0, 1):
            mu = spec.true_means.get((x, g))
            if mu is None:
                raise SpecValidationError(f"missing true mean for cell ({x!r}, {g})")
            if not math.isfinite(mu):
                raise SpecValidationError(f"true mean for cell ({x!r}, {g}) is not finite")
    return spec


def validate_config(config: TrainingConfig, spec: ProblemSpec) -> TrainingConfig:
    """Check TrainingConfig invariants against a spec's support."""
    if not isinstance(config.seed, int) or not 0 <= config.seed < _MAX_SEED:
        raise SpecValidationError("seed must be an unsigned 64-bit integer")
    for cell, n in config.counts.items():
        if cell not in set(spec.cells()):
            raise SpecValidationError(f"counts given for unknown cell {cell!r}")
        if not isinstance(n, int) or n < 0:
            raise SpecValidationError(f"count for cell {cell!r} must be a non-negative integer")
    return config


def derive_example_params(spec: ProblemSpec, prior: ConjugateNormalPrior,
                          config: TrainingConfig) -> DerivedExampleParams:
    """Reduce a balanced, single-covariate setup to its scalar example parameters.

    Requires exactly one covariate value and equal group counts; other
    configurations have no scalar reduction and are rejected.
    """
    if len(spec.covariates) != 1:
        raise SpecValidationError("example parameters require a single covariate value")
    if not isinstance(prior, ConjugateNormalPrior):
        raise SpecValidationError("example parameters require a conjugate-Normal prior")
    x = spec.covariates[0]
    n1, n0 = config.count(x, 1), config.count(x, 0)
    if n1 != n0 or n1 <= 0:
        raise SpecValidationError("example parameters require balanced positive counts")
    return DerivedExampleParams(
        delta_mu=spec.delta_mu(x),
        mu_bar=0.5 * (spec.mu(x, 1) + spec.mu(x, 0)),
        delta=prior.beta_gap(x),
        beta_bar=prior.beta_bar(x),
        n=n1 + n0,
    )


# ---------------------------------------------------------------------------
# Grid construction helpers


def normal_marginal_grid(center: float, sd: float, half_width_sds: float = 8.0,
                         n_points: int = 2001) -> tuple:
    """Equally spaced discretization of Normal(center, sd^2) over +-half_width_sds."""
    pts = np.linspace(center - half_width_sds * sd, center + half_width_sds * sd, n_points)
    logw = -0.5 * ((pts - center) / sd) ** 2
    w = np.exp(logw - logw.max())
    return pts, w / w.sum()


def product_grid(mu1_points, w1, mu0_points, w0) -> tuple:
    """Independent product of two marginal grids, flattened to pair form."""
    mu1 = np.repeat(np.asarray(mu1_points, dtype=np.float64), len(mu0_points))
    mu0 = np.tile(np.asarray(mu0_points, dtype=np.float64), len(mu1_points))
    w = np.outer(np.asarray(w1, dtype=np.float64), np.asarray(w0, dtype=np.float64)).ravel()
    return mu1, mu0, w / w.sum()


def diagonal_grid(points, weights) -> tuple:
    """Grid concentrated on mu1 == mu0: belief that the groups share a mean."""
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return pts, pts.copy(), w / w.sum()


def dense_grid_from_conjugate(prior: ConjugateNormalPrior, covariates: Sequence,
                              half_width_sds: float = 8.0,
                              n_points: int = 2001) -> GridPrior:
    """Dense product-grid discretization of a conjugate-Normal prior.

    Used as the numerical cross-check of the closed-form posterior updates;
    +-8 prior standard deviations at 2001 points per dimension reproduces the
    conjugate means to well below 1e-6.
    """
    tau = math.sqrt(prior.tau_sq)
    points = {}
    for x in covariates:
        p1, w1 = normal_marginal_grid(prior.beta[(x, 1)], tau, half_width_sds, n_points)
        p0, w0 = normal_marginal_grid(prior.beta[(x, 0)], tau, half_width_sds, n_points)
        points[x] = product_grid(p1, w1, p0, w0)
    return GridPrior(points=points)


# ---------------------------------------------------------------------------
# JSON document round-trip
#
# A single flat document carries the spec, the training configuration, and
# the prior:
#
# {
#   "covariates": ["x0", ...],
#   "covariate_probs": {"x0": 1.0, ...},
#   "group_probs": {"x0": 0.5, ...},               # P(G=1 | X=x)
#   "true_means": {"x0": [mu_g0, mu_g1], ...},
#   "noise_var": 1.0,
#   "counts": {"x0": [n_g0, n_g1], ...},
#   "seed": 20240817,
#   "prior": {"kind": "conjugate_normal",
#             "beta": {"x0": [beta_g0, beta_g1], ...}, "tau_sq": 1.0}
#         or {"kind": "grid",
#             "points": {"x0": [[mu1, mu0, weight], ...], ...}}
# }


def _covariate_key(x) -> str:
    return str(x)


def _field(doc: Mapping, name: str, where: str = "config"):
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    if name not in doc:
        raise ConfigError(f"{where} missing required field: {name}")
    return doc[name]


def _number(value, name: str) -> float:
    """A finite JSON number; strings, booleans, NaN, infinities and integers
    beyond the float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """A JSON integer; fractional numbers are rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _triples(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 3 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be a list of finite [mu1, mu0, weight] triples")
    return arr


def _per_covariate(doc: Mapping, name: str, by_key: Mapping, convert,
                   pair: bool = False, where: str = "config") -> dict:
    """Field ``name`` of ``doc``, keyed by covariate, each value converted.

    With ``pair`` each value must be a ``[group0, group1]`` list.
    """
    raw = _field(doc, name, where)
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{name} must be an object keyed by covariate, got {raw!r}")
    out = {}
    for key, value in raw.items():
        if key not in by_key:
            raise ConfigError(f"{name} names unknown covariate {key!r}")
        label = f"{name}[{key!r}]"
        if not pair:
            out[by_key[key]] = convert(value, label)
        elif isinstance(value, (list, tuple)) and len(value) == 2:
            out[by_key[key]] = (convert(value[0], label), convert(value[1], label))
        else:
            raise ConfigError(f"{label} must be a [group0, group1] pair, got {value!r}")
    return out


def _require_every_covariate(values: Mapping, spec: ProblemSpec, name: str) -> None:
    for x in spec.covariates:
        if x not in values:
            raise ConfigError(f"prior {name} has no entry for covariate {x!r}")


def spec_to_document(spec: ProblemSpec) -> dict:
    return {
        "covariates": list(spec.covariates),
        "covariate_probs": {_covariate_key(x): spec.covariate_probs[x] for x in spec.covariates},
        "group_probs": {_covariate_key(x): spec.group_probs[x] for x in spec.covariates},
        "true_means": {
            _covariate_key(x): [spec.mu(x, 0), spec.mu(x, 1)] for x in spec.covariates
        },
        "noise_var": spec.noise_var,
    }


def document_to_spec(doc: Mapping) -> ProblemSpec:
    covariates = _field(doc, "covariates")
    if not isinstance(covariates, list) or not all(
            isinstance(x, (str, int, float)) for x in covariates):
        raise ConfigError(f"covariates must be a list of names, got {covariates!r}")
    by_key = {_covariate_key(x): x for x in covariates}
    means = {}
    for x, (m0, m1) in _per_covariate(doc, "true_means", by_key, _number, pair=True).items():
        means[(x, 0)], means[(x, 1)] = m0, m1
    spec = ProblemSpec(
        covariates=tuple(covariates),
        covariate_probs=_per_covariate(doc, "covariate_probs", by_key, _number),
        group_probs=_per_covariate(doc, "group_probs", by_key, _number),
        true_means=means,
        noise_var=_number(_field(doc, "noise_var"), "noise_var"),
    )
    return validate_spec(spec)


def config_to_document(config: TrainingConfig, spec: ProblemSpec) -> dict:
    return {
        "counts": {
            _covariate_key(x): [config.count(x, 0), config.count(x, 1)]
            for x in spec.covariates
        },
        "seed": config.seed,
    }


def document_to_config(doc: Mapping, spec: ProblemSpec) -> TrainingConfig:
    by_key = {_covariate_key(x): x for x in spec.covariates}
    counts = {}
    for x, (n0, n1) in _per_covariate(doc, "counts", by_key, _integer, pair=True).items():
        counts[(x, 0)], counts[(x, 1)] = n0, n1
    config = TrainingConfig(counts=counts, seed=_integer(_field(doc, "seed"), "seed"))
    return validate_config(config, spec)


def prior_to_document(prior: Prior, spec: ProblemSpec) -> dict:
    if isinstance(prior, ConjugateNormalPrior):
        return {
            "kind": "conjugate_normal",
            "beta": {
                _covariate_key(x): [prior.beta[(x, 0)], prior.beta[(x, 1)]]
                for x in spec.covariates
            },
            "tau_sq": prior.tau_sq,
        }
    return {
        "kind": "grid",
        "points": {
            _covariate_key(x): [
                [float(m1), float(m0), float(w)]
                for m1, m0, w in zip(*prior.points[x])
            ]
            for x in spec.covariates
        },
    }


def document_to_prior(doc: Mapping, spec: ProblemSpec) -> Prior:
    by_key = {_covariate_key(x): x for x in spec.covariates}
    kind = _field(doc, "kind", "prior")
    if kind == "conjugate_normal":
        pairs = _per_covariate(doc, "beta", by_key, _number, pair=True, where="prior")
        _require_every_covariate(pairs, spec, "beta")
        beta = {}
        for x, (b0, b1) in pairs.items():
            beta[(x, 0)], beta[(x, 1)] = b0, b1
        tau_sq = _number(_field(doc, "tau_sq", "prior"), "tau_sq")
        return ConjugateNormalPrior(beta=beta, tau_sq=tau_sq)
    if kind == "grid":
        arrays = _per_covariate(doc, "points", by_key, _triples, where="prior")
        _require_every_covariate(arrays, spec, "points")
        return GridPrior(points={x: (arr[:, 0], arr[:, 1], arr[:, 2])
                                 for x, arr in arrays.items()})
    raise SpecValidationError(f"unknown prior kind {kind!r}")
