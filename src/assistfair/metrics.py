"""Disparity and risk functionals of decision rules.

Disparity at ``x`` is the group gap ``d(x,1) - d(x,0)``; risk is expected
squared error against the noisy label, which decomposes into the squared
distance to the true cell mean plus the irreducible ``noise_var``.
Expectations over ``(X, G)`` use the problem's exact probabilities; only the
training-data randomness is estimated, by replaying the rules over seeded
replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .model import Prior, ProblemSpec, RuleKind, TrainingConfig
from .simulate import replicate_rule_values

__all__ = [
    "Estimate",
    "RuleStats",
    "MetricsReport",
    "pointwise_risk",
    "mc_expected_metrics",
]

AGGREGATE_X = "all"


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate: mean across replications and its standard error.

    ``se`` is None when only one replication was run.
    """

    value: float
    se: float | None
    reps: int


@dataclass(frozen=True)
class RuleStats:
    kind: RuleKind
    disparity_by_x: Mapping
    avg_disparity: Estimate
    risk0_by_cell: Mapping
    risk_by_x: Mapping
    expected_risk: Estimate


@dataclass(frozen=True)
class MetricsReport:
    """Estimated metrics for a set of rules under one problem and prior."""

    rules: Mapping
    reps: int
    seed: int
    noise_var: float
    covariates: tuple

    def rule(self, kind: RuleKind) -> RuleStats:
        return self.rules[kind]

    def excess_risk(self, kind: RuleKind) -> Estimate:
        est = self.rules[kind].expected_risk
        return Estimate(value=est.value - self.noise_var, se=est.se, reps=est.reps)

    def to_rows(self, include_excess: bool = False) -> list:
        """Rows matching the schema (rule, x, quantity, value, se, reps, seed)."""
        rows = []

        def add(kind, x, quantity, est: Estimate):
            rows.append((kind.value, str(x), quantity, est.value, est.se,
                         self.reps, self.seed))

        for kind in RuleKind:
            if kind not in self.rules:
                continue
            stats = self.rules[kind]
            for x in self.covariates:
                add(kind, x, "disparity", stats.disparity_by_x[x])
            add(kind, AGGREGATE_X, "avg_disparity", stats.avg_disparity)
            for x in self.covariates:
                add(kind, x, "risk0_g0", stats.risk0_by_cell[(x, 0)])
                add(kind, x, "risk0_g1", stats.risk0_by_cell[(x, 1)])
                add(kind, x, "risk", stats.risk_by_x[x])
            add(kind, AGGREGATE_X, "expected_risk", stats.expected_risk)
            if include_excess:
                add(kind, AGGREGATE_X, "excess_risk", self.excess_risk(kind))
        return rows

    def to_json_dict(self, include_excess: bool = False) -> dict:
        def est(e: Estimate) -> dict:
            return {"value": e.value, "se": e.se, "reps": e.reps}

        rules = []
        for kind in RuleKind:
            if kind not in self.rules:
                continue
            stats = self.rules[kind]
            entry = {
                "rule": kind.value,
                "disparity_by_x": [
                    {"x": str(x), **est(stats.disparity_by_x[x])} for x in self.covariates
                ],
                "avg_disparity": est(stats.avg_disparity),
                "risk0_by_cell": [
                    {"x": str(x), "g": g, **est(stats.risk0_by_cell[(x, g)])}
                    for x in self.covariates for g in (0, 1)
                ],
                "risk_by_x": [
                    {"x": str(x), **est(stats.risk_by_x[x])} for x in self.covariates
                ],
                "expected_risk": est(stats.expected_risk),
            }
            if include_excess:
                entry["excess_risk"] = est(self.excess_risk(kind))
            rules.append(entry)
        return {"reps": self.reps, "seed": self.seed, "noise_var": self.noise_var,
                "rules": rules}


def pointwise_risk(rule_value, spec: ProblemSpec, x, g: int):
    """Risk of deciding ``rule_value`` at cell (x, g): squared bias plus noise.

    Accepts a scalar or an array of rule values.
    """
    dev = np.asarray(rule_value, dtype=np.float64) - spec.mu(x, g)
    out = dev * dev + spec.noise_var
    return float(out) if np.ndim(rule_value) == 0 else out


def _estimate(samples: np.ndarray) -> Estimate:
    # the arithmetic of samples.mean() and samples.std(ddof=1), in fewer passes
    reps = samples.shape[0]
    mean = np.add.reduce(samples) / reps
    se = None
    if reps >= 2:
        dev = samples - mean
        dev *= dev
        se = math.sqrt(np.add.reduce(dev) / (reps - 1)) / math.sqrt(reps)
    return Estimate(value=float(mean), se=se, reps=reps)


def _rule_stats(kind: RuleKind, per_cell: Mapping, spec: ProblemSpec) -> RuleStats:
    reps = next(iter(per_cell.values())).shape[0]
    disparity_by_x, risk0_by_cell, risk_by_x = {}, {}, {}
    avg_disp = np.zeros(reps, dtype=np.float64)
    exp_risk = np.zeros(reps, dtype=np.float64)
    for x in spec.covariates:
        disp = per_cell[(x, 1)] - per_cell[(x, 0)]
        disparity_by_x[x] = _estimate(disp)
        avg_disp += spec.p_x(x) * disp
        risk_x = np.zeros(reps, dtype=np.float64)
        for g in (0, 1):
            r0 = pointwise_risk(per_cell[(x, g)], spec, x, g)
            risk0_by_cell[(x, g)] = _estimate(r0)
            risk_x += spec.p_group(x, g) * r0
        risk_by_x[x] = _estimate(risk_x)
        exp_risk += spec.p_x(x) * risk_x
    return RuleStats(
        kind=kind,
        disparity_by_x=disparity_by_x,
        avg_disparity=_estimate(avg_disp),
        risk0_by_cell=risk0_by_cell,
        risk_by_x=risk_by_x,
        expected_risk=_estimate(exp_risk),
    )


def mc_expected_metrics(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                        rule_kinds: Iterable | None = None,
                        reps: int = 1000) -> MetricsReport:
    """Expected metrics over training draws, estimated by seeded replication.

    With ``reps=1`` point values are reported and standard errors are None.
    """
    kinds = list(rule_kinds) if rule_kinds is not None else list(RuleKind)
    values = replicate_rule_values(spec, prior, config, kinds, reps)
    rules = {kind: _rule_stats(kind, values[kind], spec) for kind in kinds}
    return MetricsReport(rules=rules, reps=reps, seed=config.seed,
                         noise_var=spec.noise_var, covariates=spec.covariates)
