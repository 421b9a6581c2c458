"""Exact expected disparities, risks, and regime thresholds.

Closed forms for the balanced single-covariate example: two groups with
equal prior variance, n/2 training observations each, and equal deployment
probability. Expectations are over training draws at fixed true means. The
regime thresholds generalize to unbalanced counts: ``xi`` is the absolute
true gap at which the two machine predictors' expected risks coincide, and
``delta_threshold`` is the prior gap above which the aware-assisted decision
beats the blind-assisted one in expected risk.

Everything here is arithmetic on model parameters; no simulation, no
root-finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import EmptyCellError, PreconditionError
from .model import ProblemSpec, RuleKind, TrainingConfig

__all__ = [
    "ClosedFormTable",
    "example_closed_forms",
    "xi_threshold_general",
    "delta_threshold_example",
    "machine_risk_expectations",
]

_RULE_LABELS = {
    RuleKind.F_MINUS: "f-",
    RuleKind.F_PLUS: "f+",
    RuleKind.D0: "d0",
    RuleKind.D_MINUS: "d-",
    RuleKind.D_PLUS: "d+",
}


@dataclass(frozen=True)
class ClosedFormTable:
    """Expected disparity and risk of all five rules in the balanced example."""

    sigma_sq: float
    tau_sq: float
    n: int
    delta: float
    delta_mu: float
    beta_bar: float
    mu_bar: float
    expected_disparity: Mapping
    expected_risk: Mapping

    def to_json_dict(self) -> dict:
        return {
            "inputs": {
                "sigma_sq": self.sigma_sq, "tau_sq": self.tau_sq, "n": self.n,
                "delta": self.delta, "delta_mu": self.delta_mu,
                "beta_bar": self.beta_bar, "mu_bar": self.mu_bar,
            },
            "rules": [
                {
                    "rule": kind.value,
                    "expected_disparity": self.expected_disparity[kind],
                    "expected_risk": self.expected_risk[kind],
                }
                for kind in RuleKind
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"balanced example: sigma_sq={self.sigma_sq:g} tau_sq={self.tau_sq:g} "
            f"n={self.n} delta={self.delta:g} delta_mu={self.delta_mu:g} "
            f"beta_bar={self.beta_bar:g} mu_bar={self.mu_bar:g}",
            "",
            f"{'rule':>6} {'E[disparity]':>16} {'E[risk]':>16}",
        ]
        for kind in RuleKind:
            lines.append(
                f"{_RULE_LABELS[kind]:>6} {self.expected_disparity[kind]:>16.10g} "
                f"{self.expected_risk[kind]:>16.10g}"
            )
        return "\n".join(lines) + "\n"


def example_closed_forms(sigma_sq: float, tau_sq: float, n: int, delta: float,
                         delta_mu: float, beta_bar: float,
                         mu_bar: float) -> ClosedFormTable:
    """All ten expected-disparity and expected-risk entries of the example.

    Requires the balanced design: total sample size n split evenly between
    the groups, equal prior variance, equal deployment probability.
    """
    if not (sigma_sq > 0 and tau_sq > 0):
        raise PreconditionError("sigma_sq and tau_sq must be positive")
    if not (isinstance(n, int) and n > 0 and n % 2 == 0):
        raise PreconditionError(f"balanced example requires even n > 0, got {n}")
    half = n // 2
    shrink = sigma_sq + half * tau_sq
    level_bias_sq = (mu_bar - beta_bar) ** 2
    gap_bias_sq = (delta_mu - delta) ** 2 / 4.0
    expected_disparity = {
        RuleKind.F_MINUS: 0.0,
        RuleKind.F_PLUS: delta_mu,
        RuleKind.D0: delta,
        RuleKind.D_MINUS: delta,
        RuleKind.D_PLUS: (sigma_sq * delta + half * tau_sq * delta_mu) / shrink,
    }
    expected_risk = {
        RuleKind.F_MINUS: delta_mu ** 2 / 4.0 + sigma_sq * (1.0 + 1.0 / n),
        RuleKind.F_PLUS: sigma_sq * (1.0 + 2.0 / n),
        RuleKind.D0: level_bias_sq + gap_bias_sq + sigma_sq,
        RuleKind.D_MINUS: (sigma_sq ** 2 * level_bias_sq / shrink ** 2
                           + gap_bias_sq
                           + sigma_sq * (1.0 + n * tau_sq ** 2 / (4.0 * shrink ** 2))),
        RuleKind.D_PLUS: (sigma_sq ** 2 * (level_bias_sq + gap_bias_sq) / shrink ** 2
                          + sigma_sq * (1.0 + n * tau_sq ** 2 / (2.0 * shrink ** 2))),
    }
    # float ** raises OverflowError, but + and * overflow to inf silently
    if not all(math.isfinite(v) for table in (expected_disparity, expected_risk)
               for v in table.values()):
        raise PreconditionError("closed forms overflow a float at these inputs")
    return ClosedFormTable(
        sigma_sq=sigma_sq, tau_sq=tau_sq, n=n, delta=delta, delta_mu=delta_mu,
        beta_bar=beta_bar, mu_bar=mu_bar,
        expected_disparity=expected_disparity, expected_risk=expected_risk,
    )


def machine_risk_expectations(spec: ProblemSpec, config: TrainingConfig, x) -> tuple:
    """Expected risks at ``x`` of the two machine predictors, (aware, blind).

    The aware predictor pays only variance, group-weighted:
    sum_g P(g|x) sigma_sq/n(x,g) + sigma_sq. The blind one pays the pooled
    variance plus the squared cross-group contamination bias:
    sum_g P(g|x) (n(x,1-g)/n * delta_mu)^2 + sigma_sq/n + sigma_sq.
    """
    n1, n0 = config.count(x, 1), config.count(x, 0)
    if n1 < 1 or n0 < 1:
        raise EmptyCellError(f"machine risk expectations need both cells at x={x!r}")
    n = n1 + n0
    sigma_sq = spec.noise_var
    p1, p0 = spec.p_group(x, 1), spec.p_group(x, 0)
    gap = spec.delta_mu(x)
    risk_aware = p1 * sigma_sq / n1 + p0 * sigma_sq / n0 + sigma_sq
    risk_blind = (p1 * (n0 / n * gap) ** 2 + p0 * (n1 / n * gap) ** 2
                  + sigma_sq / n + sigma_sq)
    return risk_aware, risk_blind


def xi_threshold_general(spec: ProblemSpec, config: TrainingConfig, x) -> float:
    """The |delta_mu| at which the machine predictors' expected risks tie.

    Solves E[r_aware(x)] = E[r_blind(x)] for the gap magnitude:
    xi = sqrt((sum_g P(g|x) sigma_sq/n(x,g) - sigma_sq/n)
              / (sum_g P(g|x) (n(x,1-g)/n)^2)).
    Below xi the blind predictor wins on both axes (dominance); above it the
    aware predictor is more accurate but more disparate (trade-off).
    """
    n1, n0 = config.count(x, 1), config.count(x, 0)
    if n1 < 1 or n0 < 1:
        raise EmptyCellError(f"threshold undefined with an empty cell at x={x!r}")
    n = n1 + n0
    sigma_sq = spec.noise_var
    p1, p0 = spec.p_group(x, 1), spec.p_group(x, 0)
    numerator = p1 * sigma_sq / n1 + p0 * sigma_sq / n0 - sigma_sq / n
    denominator = p1 * (n0 / n) ** 2 + p0 * (n1 / n) ** 2
    if denominator <= 0:
        raise PreconditionError("degenerate group probabilities leave no bias term")
    return math.sqrt(max(numerator, 0.0) / denominator)


def delta_threshold_example(sigma_sq: float, tau_sq: float, n: int,
                            delta_mu: float) -> float:
    """Prior gap above which aware assistance has lower expected risk than blind.

    In the balanced example the risk difference vanishes at
    (delta_mu - delta)^2 = 4 sigma_sq tau_sq / (4 sigma_sq + n tau_sq),
    giving delta* = delta_mu + 2 tau sigma / sqrt(n tau_sq + 4 sigma_sq).
    """
    if not (sigma_sq > 0 and tau_sq > 0):
        raise PreconditionError("sigma_sq and tau_sq must be positive")
    if n <= 0:
        raise PreconditionError("n must be positive")
    return delta_mu + 2.0 * math.sqrt(tau_sq) * math.sqrt(sigma_sq) / math.sqrt(
        n * tau_sq + 4.0 * sigma_sq
    )

