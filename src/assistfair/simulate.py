"""Vectorized replication of training draws and decision rules.

A replication draws a fresh training set, fits both machine predictors, and
realizes all decision rules. Because every rule depends on the data only
through the per-cell training averages, the engine keeps only those averages
and evaluates the rules as array operations across replications.

Determinism contract: replication ``r`` under master seed ``s`` owns the
derived seed ``k = replication_seed(s, r)``. Its ``n(x, g)`` labels in cell
``(x, g)`` are the draws of ``rng.normal_stream(derive_key(k, STREAM_TRAINING,
cell_index), n(x, g))``, scaled to ``Normal(mu(x, g), noise_var)``, and its
cell mean is their average. Replications are processed in fixed-size chunks
to bound memory; chunk boundaries depend only on the problem shape, so
reruns are byte-identical.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from . import rng
from .decisions import (
    decide_assisted_aware_conjugate,
    decide_assisted_blind_conjugate,
    decide_unassisted,
    grid_posterior_aware,
    grid_posterior_blind,
)
from .errors import ConfigError, EmptyCellError
from .model import (
    ConjugateNormalPrior,
    Prior,
    ProblemSpec,
    RuleKind,
    TrainingConfig,
    validate_config,
    validate_spec,
)

__all__ = [
    "replicate_cell_means",
    "rule_values_from_cell_means",
    "replicate_rule_values",
]

_CHUNK_DRAWS = 1 << 22
_MIN_CHUNK_REPS = 256
_MAX_CHUNK_REPS = 1 << 16


def _chunk_reps(max_cell_count: int) -> int:
    per = _CHUNK_DRAWS // max(1, max_cell_count)
    return max(_MIN_CHUNK_REPS, min(_MAX_CHUNK_REPS, per))


def replicate_cell_means(spec: ProblemSpec, config: TrainingConfig, reps: int) -> Mapping:
    """Per-cell training averages for ``reps`` independent replications.

    Returns {(x, g): float array of length reps} covering every cell with a
    positive count. Replication r draws from seed replication_seed(config.seed, r).
    """
    validate_spec(spec)
    validate_config(config, spec)
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    cells = [(x, g) for (x, g) in spec.cells() if config.count(x, g) > 0]
    out = {cell: np.empty(reps, dtype=np.float64) for cell in cells}
    if not cells:
        return out
    sd = math.sqrt(spec.noise_var)
    chunk = _chunk_reps(max(config.count(x, g) for x, g in cells))
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        rep_ids = np.arange(start, stop, dtype=np.uint64)
        seeds = rng.replication_seed(config.seed, rep_ids)
        for x, g in cells:
            keys = rng.derive_key(seeds, rng.STREAM_TRAINING, spec.cell_index(x, g))
            draws = rng.normal_block(keys, config.count(x, g), mean=spec.mu(x, g), sd=sd)
            out[(x, g)][start:stop] = draws.mean(axis=1)
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


def rule_values_from_cell_means(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                                cell_means: Mapping, rule_kinds: Iterable) -> Mapping:
    """Decision values per rule and cell, vectorized across replications.

    ``cell_means`` is the output of replicate_cell_means. Returns
    {RuleKind: {(x, g): array}}; arrays share the replication axis.
    """
    kinds = list(rule_kinds)
    reps = next(iter(cell_means.values())).shape[0] if cell_means else 0
    conjugate = isinstance(prior, ConjugateNormalPrior)
    values: dict = {}
    for kind in kinds:
        _require_cells(config, spec, kind)
        per_cell: dict = {}
        for x in spec.covariates:
            n1, n0 = config.count(x, 1), config.count(x, 0)
            n = n1 + n0
            if kind in (RuleKind.F_MINUS, RuleKind.D_MINUS):
                blind = np.zeros(reps, dtype=np.float64)
                if n1:
                    blind += n1 * cell_means[(x, 1)]
                if n0:
                    blind += n0 * cell_means[(x, 0)]
                blind /= n
            for g in (0, 1):
                if kind is RuleKind.F_MINUS:
                    per_cell[(x, g)] = blind if g == 0 else blind.copy()
                elif kind is RuleKind.F_PLUS:
                    per_cell[(x, g)] = cell_means[(x, g)].copy()
                elif kind is RuleKind.D0:
                    per_cell[(x, g)] = np.full(reps, decide_unassisted(prior, x, g))
                elif kind is RuleKind.D_MINUS:
                    if conjugate:
                        per_cell[(x, g)] = decide_assisted_blind_conjugate(
                            prior, blind, (n1, n0), spec.noise_var, x, g)
                    else:
                        per_cell[(x, g)] = grid_posterior_blind(
                            prior, blind, (n1, n0), spec.noise_var, x, g)
                elif kind is RuleKind.D_PLUS:
                    signal = cell_means[(x, g)]
                    if conjugate:
                        per_cell[(x, g)] = decide_assisted_aware_conjugate(
                            prior, signal, config.count(x, g), spec.noise_var, x, g)
                    else:
                        per_cell[(x, g)] = grid_posterior_aware(
                            prior, signal, config.count(x, g), spec.noise_var, x, g)
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
