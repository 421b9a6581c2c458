"""Domain types and the data-generating process.

The ground truth is a finite-support covariate ``X``, a binary group ``G``,
and a real label ``Y`` with ``Y | X=x, G=g ~ Normal(mu(x, g), noise_var)``.
Training data consists of a fixed number of iid draws per ``(x, g)`` cell.
The decision-maker's beliefs over the cell means come in two flavors: an
independent conjugate-Normal prior per cell, or an arbitrary discrete grid
of ``(mu1, mu0)`` pairs per covariate value.

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

from .errors import ConfigError, SpecValidationError

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


@dataclass(frozen=True)
class ConjugateNormalPrior:
    """Independent Normal(beta(x, g), tau_sq) belief per cell."""

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


@dataclass(frozen=True)
class GridPrior:
    """Discrete belief over mean pairs: per x, points (mu1_i, mu0_i) with weights.

    Weights must be non-negative and sum to 1 per covariate value.
    """

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
            if np.any(w < 0):
                raise SpecValidationError(f"grid weights at x={x!r} must be non-negative")
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
