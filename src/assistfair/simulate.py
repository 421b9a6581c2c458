"""Vectorized replication of training cell means and decision rules.

Every rule depends on the training data only through the per-cell means,
and the mean of ``n`` iid ``Normal(mu, noise_var)`` labels is exactly
``Normal(mu, noise_var / n)``. The engine therefore draws each cell mean
directly and evaluates the rules as array operations across replications.

Determinism contract: replication ``r`` under master seed ``s`` owns the
derived seed ``k = replication_seed(s, r)``. Its mean in cell ``(x, g)`` is
``mu(x, g) + sqrt(noise_var / n(x, g)) * ndtri(u)``, where ``u`` is draw 0 of
the stream keyed ``derive_key(k, STREAM_TRAINING, cell_index)``. Each
replication's means depend only on ``(s, r)``, so a run of R replications is
the first R entries of any longer run, and reruns are byte-identical.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from . import rng
from .errors import ConfigError, EmptyCellError, SpecValidationError
from .model import Prior, ProblemSpec, RuleKind, TrainingConfig

__all__ = [
    "replicate_cell_means",
    "pooled_mean",
    "rule_values_from_cell_means",
    "replicate_rule_values",
]

# glibc serves an allocation above its mmap threshold (128 KiB at start) with
# mmap and returns freed heap to the system once the free top exceeds its trim
# threshold, so each job would fault its arrays back in page by page. Freeing
# an mmapped chunk raises the mmap threshold to that chunk's size (glibc caps
# this at 32 MiB) and the trim threshold to twice that. One 24 MiB array,
# never touched and dropped at once, keeps later arrays on a heap that stays
# mapped between jobs. Under another allocator it is one untouched allocation.
np.empty(3 << 20)


def replicate_cell_means(spec: ProblemSpec, config: TrainingConfig, reps: int) -> Mapping:
    """Per-cell training averages for ``reps`` independent replications.

    Returns {(x, g): float array of length reps} covering every cell with a
    positive count. Replication r draws from seed replication_seed(config.seed, r).
    Every engine path starts here, so this is where a count for a cell the
    spec lacks is rejected.
    """
    known = set(spec.cells())
    unknown = [cell for cell in config.counts if cell not in known]
    if unknown:
        raise SpecValidationError(f"counts given for unknown cell {unknown[0]!r}")
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    cells = [(x, g) for (x, g) in spec.cells() if config.count(x, g) > 0]
    seeds = rng.replication_seed(config.seed, np.arange(reps, dtype=np.uint64))
    training = rng.derive_key(seeds, rng.STREAM_TRAINING)
    out = {}
    for x, g in cells:
        keys = rng.fold_key(training, spec.cell_index(x, g))
        sd = math.sqrt(spec.noise_var / config.count(x, g))
        out[(x, g)] = rng.normal_block(keys, 1, mean=spec.mu(x, g), sd=sd)[:, 0]
    return out


def _require_cells(config: TrainingConfig, spec: ProblemSpec, kind: RuleKind) -> None:
    for x in spec.covariates:
        if kind in (RuleKind.F_MINUS, RuleKind.D_MINUS) and config.total(x) == 0:
            raise EmptyCellError(
                f"rule {kind.value} needs observations at x={x!r}, none configured"
            )
        if kind in (RuleKind.F_PLUS, RuleKind.D_PLUS):
            for g in (0, 1):
                if config.count(x, g) == 0:
                    raise EmptyCellError(
                        f"rule {kind.value} undefined for empty cell ({x!r}, {g})"
                    )


def pooled_mean(config: TrainingConfig, cell_means: Mapping, x, reps: int) -> np.ndarray:
    """The blind prediction at ``x``: the count-weighted pool of its cell means.

    ``x`` must have at least one observation; an empty cell contributes nothing.
    """
    n1, n0 = config.count(x, 1), config.count(x, 0)
    blind = np.zeros(reps, dtype=np.float64)
    if n1:
        blind += n1 * cell_means[(x, 1)]
    if n0:
        blind += n0 * cell_means[(x, 0)]
    blind /= n1 + n0
    return blind


# The engine reaches each prior's decision surface through these module-level
# entry points, one per rule and prior kind. The benchmark (perfbench/spans.py)
# times each kind's posterior by wrapping these names on this module, so the
# engine must look them up here at call time. The blind entry points return
# both groups' decisions ``(d0, d1)``, from one likelihood per covariate.


def decide_unassisted(prior: Prior, x, g: int) -> float:
    return prior.prior_mean(x, g)


def decide_assisted_aware_conjugate(prior: Prior, signal, n_cell: int, sigma_sq: float,
                                    x, g: int):
    return prior.posterior_aware(signal, n_cell, sigma_sq, x, g)


def decide_assisted_blind_conjugate(prior: Prior, signal, counts: tuple, sigma_sq: float,
                                    x) -> tuple:
    return prior.posterior_blind(signal, counts, sigma_sq, x)


def grid_posterior_aware(prior: Prior, signal, n_cell: int, sigma_sq: float, x, g: int):
    return prior.posterior_aware(signal, n_cell, sigma_sq, x, g)


def grid_posterior_blind(prior: Prior, signal, counts: tuple, sigma_sq: float, x) -> tuple:
    return prior.posterior_blind(signal, counts, sigma_sq, x)


def rule_values_from_cell_means(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                                cell_means: Mapping, rule_kinds: Iterable) -> Mapping:
    """Decision values per rule and cell, vectorized across replications.

    ``cell_means`` is the output of replicate_cell_means. Returns
    {RuleKind: {(x, g): array}}; arrays share the replication axis.
    """
    kinds = list(rule_kinds)
    reps = next(iter(cell_means.values())).shape[0] if cell_means else 0
    pooled: dict = {}
    if RuleKind.F_MINUS in kinds or RuleKind.D_MINUS in kinds:
        pooled = {x: pooled_mean(config, cell_means, x, reps)
                  for x in spec.covariates if config.total(x)}
    # the machine rules need no prior, so ``prior`` may be None
    if prior is not None and prior.kind == "grid":
        posterior_aware, posterior_blind = grid_posterior_aware, grid_posterior_blind
    else:
        posterior_aware = decide_assisted_aware_conjugate
        posterior_blind = decide_assisted_blind_conjugate
    values: dict = {}
    for kind in kinds:
        _require_cells(config, spec, kind)
        per_cell: dict = {}
        for x in spec.covariates:
            if kind is RuleKind.D_MINUS:
                counts = (config.count(x, 1), config.count(x, 0))
                per_cell[(x, 0)], per_cell[(x, 1)] = posterior_blind(
                    prior, pooled[x], counts, spec.noise_var, x)
                continue
            for g in (0, 1):
                if kind is RuleKind.F_MINUS:
                    per_cell[(x, g)] = pooled[x] if g == 0 else pooled[x].copy()
                elif kind is RuleKind.F_PLUS:
                    per_cell[(x, g)] = cell_means[(x, g)].copy()
                elif kind is RuleKind.D0:
                    per_cell[(x, g)] = np.full(reps, decide_unassisted(prior, x, g))
                elif kind is RuleKind.D_PLUS:
                    per_cell[(x, g)] = posterior_aware(
                        prior, cell_means[(x, g)], config.count(x, g), spec.noise_var, x, g)
                else:
                    raise ConfigError(f"unknown rule kind {kind!r}")
        values[kind] = per_cell
    return values


def replicate_rule_values(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                          rule_kinds: Iterable, reps: int) -> Mapping:
    """Replicated decision values for the requested rules.

    Convenience composition of replicate_cell_means and
    rule_values_from_cell_means.
    """
    cell_means = replicate_cell_means(spec, config, reps)
    return rule_values_from_cell_means(spec, prior, config, cell_means, rule_kinds)
