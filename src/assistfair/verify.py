"""Empirical verification of the disparity and risk claims.

Each verifier replays a claim's inequality chain over seeded training
replications and reports the fraction of replications where the chain held,
plus per-inequality fractions for diagnosis. Claims about expectations
(regime classifications, threshold orderings) are checked once against
Monte Carlo means with 3-standard-error bands and report an all-or-nothing
success fraction.

Tie policy: weak inequalities count ties as satisfied, up to floating-point
tolerance, because several quantities are equal by construction in the
balanced design; strict inequalities count ties as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .errors import ConfigError, PreconditionError
from .metrics import mc_expected_metrics, pointwise_risk
from .model import (
    ConjugateNormalPrior,
    GridPrior,
    Prior,
    ProblemSpec,
    RuleKind,
    TrainingConfig,
    derive_example_params,
    validate_spec,
)
from .oracle import (
    Regime,
    classify_regime,
    delta_threshold_example,
    example_closed_forms,
)
from .simulate import replicate_rule_values

__all__ = [
    "CLAIM_IDS",
    "VerificationOutcome",
    "ConsistencyResult",
    "weak_le",
    "verify_disparity_reversal",
    "verify_reordering",
    "verify_tradeoff_reversal",
    "verify_machine_regimes",
    "verify_remark1",
    "verify_remark2",
    "verify_consistency",
]

CLAIM_IDS = ("remark1", "remark2", "remark3", "thm1", "cor1", "thm2")

WEAK_REL_TOL = 1e-9
WEAK_ABS_TOL = 1e-12
EXACT_TOL = 1e-12
SE_BAND = 3.0


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of one claim verification run."""

    claim_id: str
    reps: int
    success_fraction: float
    per_inequality: Mapping
    parameters: Mapping
    notes: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.success_fraction <= 1.0:
            raise PreconditionError("success_fraction must lie in [0, 1]")
        if self.reps < 1:
            raise PreconditionError("reps must be at least 1")

    def passed(self, level: float) -> bool:
        return self.success_fraction >= level

    def summary_line(self, level: float | None = None) -> str:
        text = (f"{self.claim_id}: success_fraction={self.success_fraction:.4f} "
                f"reps={self.reps}")
        if level is not None:
            text += f" level={level:g} {'PASS' if self.passed(level) else 'FAIL'}"
        return text

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "reps": self.reps,
            "success_fraction": self.success_fraction,
            "per_inequality": dict(self.per_inequality),
            "parameters": dict(self.parameters),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ConsistencyResult:
    """Median aware-decision error against growing per-cell sample sizes."""

    n_grid: tuple
    medians: tuple
    truth_in_support: bool
    reps: int
    seed: int
    notes: tuple = ()

    def weakly_decreasing(self, slack: float = 0.02) -> bool:
        return all(b <= a + slack for a, b in zip(self.medians, self.medians[1:]))

    def passed(self, bound: float = 0.05, slack: float = 0.02) -> bool:
        return (self.truth_in_support and self.weakly_decreasing(slack)
                and self.medians[-1] < bound)

    def summary_line(self) -> str:
        meds = ", ".join(f"n={n}: {m:.4f}" for n, m in zip(self.n_grid, self.medians))
        return f"consistency: median |d+ - mu| {meds}"

    def to_json_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "medians": list(self.medians),
            "truth_in_support": self.truth_in_support,
            "reps": self.reps,
            "seed": self.seed,
            "notes": list(self.notes),
        }


def weak_le(lhs, rhs):
    """Elementwise lhs <= rhs, counting near-ties as satisfied."""
    a = np.asarray(lhs, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    return (a <= b) | np.isclose(a, b, rtol=WEAK_REL_TOL, atol=WEAK_ABS_TOL)


def _resolve_deltas(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                    delta: float | None) -> dict:
    """Per-covariate disparity level delta, certified against the prior.

    With ``delta=None`` the certified infimum itself is used; an explicit
    delta is accepted only when the prior is actually delta-disparate at it.
    """
    out = {}
    for x in spec.covariates:
        infimum = prior.disparity_infimum((config.count(x, 1), config.count(x, 0)), x)
        if delta is None:
            if infimum == -math.inf:
                raise PreconditionError(
                    f"conditional disparity unbounded below at x={x!r}; beliefs are "
                    "not delta-disparate for any delta (unbalanced counts with "
                    "independent Normal cell priors)"
                )
            if not infimum > 0:
                raise PreconditionError(
                    f"certified disparity infimum {infimum!r} at x={x!r} is not "
                    "positive"
                )
            out[x] = infimum
        else:
            if not delta > 0:
                raise PreconditionError("delta must be positive")
            if infimum < delta - WEAK_ABS_TOL:
                raise PreconditionError(
                    f"prior is not {delta!r}-disparate at x={x!r}: conditional "
                    f"disparity infimum is {infimum!r}"
                )
            out[x] = delta
    return out


def _require_se_reps(claim_id: str, reps: int) -> None:
    if reps < 2:
        raise ConfigError(f"{claim_id} needs reps >= 2 for its standard errors, got {reps}")


def _require_counts(spec: ProblemSpec, config: TrainingConfig) -> None:
    for x, g in spec.cells():
        if config.count(x, g) < 1:
            raise PreconditionError(f"claim needs n(x,g) >= 1, cell ({x!r}, {g}) is empty")


def _gap_preconditions(spec: ProblemSpec, deltas: Mapping, strict_lower: bool) -> None:
    for x in spec.covariates:
        gap = spec.delta_mu(x)
        low_ok = gap > 0 if strict_lower else gap >= 0
        if not (low_ok and gap < deltas[x]):
            bound = "0 < delta_mu(x) < delta" if strict_lower else "0 <= delta_mu(x) < delta"
            raise PreconditionError(
                f"claim needs {bound}; got delta_mu={gap!r}, delta={deltas[x]!r} at x={x!r}"
            )


def _echo_parameters(spec: ProblemSpec, config: TrainingConfig, deltas: Mapping,
                     prior: Prior) -> dict:
    params: dict = {
        "noise_var": spec.noise_var,
        "seed": config.seed,
        "counts": {str(x): [config.count(x, 0), config.count(x, 1)]
                   for x in spec.covariates},
        "delta_mu": {str(x): spec.delta_mu(x) for x in spec.covariates},
        "delta": {str(x): deltas[x] for x in spec.covariates},
        "prior_kind": prior.kind,
    }
    if prior.kind == ConjugateNormalPrior.kind:
        params["tau_sq"] = prior.tau_sq
    return params


def _disparity_arrays(values: Mapping, x) -> dict:
    return {kind: values[kind][(x, 1)] - values[kind][(x, 0)] for kind in values}


def verify_disparity_reversal(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                              reps: int, *, delta: float | None = None) -> VerificationOutcome:
    """Disparity reversal: d+ falls below the believed disparity, blind stays at it.

    Per replication and covariate value the chain is
    disparity(d+) < delta <= disparity(d-), disparity(d0).
    """
    validate_spec(spec)
    _require_counts(spec, config)
    deltas = _resolve_deltas(spec, prior, config, delta)
    _gap_preconditions(spec, deltas, strict_lower=False)
    kinds = [RuleKind.D0, RuleKind.D_MINUS, RuleKind.D_PLUS]
    values = replicate_rule_values(spec, prior, config, kinds, reps)
    ok = np.ones(reps, dtype=bool)
    per_inequality = {}
    for x in spec.covariates:
        d = deltas[x]
        disp = _disparity_arrays(values, x)
        strict = disp[RuleKind.D_PLUS] < d
        weak_minus = weak_le(d, disp[RuleKind.D_MINUS])
        weak_zero = weak_le(d, disp[RuleKind.D0])
        per_inequality[f"d_plus_lt_delta@{x}"] = float(strict.mean())
        per_inequality[f"delta_le_d_minus@{x}"] = float(weak_minus.mean())
        per_inequality[f"delta_le_d0@{x}"] = float(weak_zero.mean())
        ok &= strict & weak_minus & weak_zero
    return VerificationOutcome(
        claim_id="thm1", reps=reps, success_fraction=float(ok.mean()),
        per_inequality=per_inequality,
        parameters=_echo_parameters(spec, config, deltas, prior),
    )


_REORDER_PAIRS = (
    (RuleKind.D_MINUS, RuleKind.D_PLUS),
    (RuleKind.D_MINUS, RuleKind.F_PLUS),
    (RuleKind.D0, RuleKind.D_PLUS),
    (RuleKind.D0, RuleKind.F_PLUS),
    (RuleKind.D_PLUS, RuleKind.F_MINUS),
    (RuleKind.F_PLUS, RuleKind.F_MINUS),
)


def verify_reordering(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                      reps: int, *, delta: float | None = None) -> VerificationOutcome:
    """Two-tier absolute-disparity ordering.

    Per replication: |disparity| of d- and d0 strictly above that of d+ and
    f+, which in turn strictly exceed the blind machine's zero.
    """
    validate_spec(spec)
    _require_counts(spec, config)
    deltas = _resolve_deltas(spec, prior, config, delta)
    _gap_preconditions(spec, deltas, strict_lower=False)
    values = replicate_rule_values(spec, prior, config, list(RuleKind), reps)
    ok = np.ones(reps, dtype=bool)
    per_inequality = {}
    for x in spec.covariates:
        mag = {kind: np.abs(arr) for kind, arr in _disparity_arrays(values, x).items()}
        for hi, lo in _REORDER_PAIRS:
            holds = mag[hi] > mag[lo]
            per_inequality[f"abs_{hi.value}_gt_abs_{lo.value}@{x}"] = float(holds.mean())
            ok &= holds
    return VerificationOutcome(
        claim_id="cor1", reps=reps, success_fraction=float(ok.mean()),
        per_inequality=per_inequality,
        parameters=_echo_parameters(spec, config, deltas, prior),
    )


def verify_tradeoff_reversal(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                             reps: int, *, delta: float | None = None) -> VerificationOutcome:
    """Trade-off reversal: assistance beats blind assistance on both axes.

    Per replication and covariate value:
    disparity(d+) < disparity(d-), risk(d+) < risk(d-) at x, while
    disparity(f+) > disparity(f-) and each cell's risk under f+ is below f-.
    """
    validate_spec(spec)
    _require_counts(spec, config)
    deltas = _resolve_deltas(spec, prior, config, delta)
    _gap_preconditions(spec, deltas, strict_lower=True)
    values = replicate_rule_values(spec, prior, config, list(RuleKind), reps)
    ok = np.ones(reps, dtype=bool)
    per_inequality = {}
    balance = {}
    for x in spec.covariates:
        n1, n0 = config.count(x, 1), config.count(x, 0)
        balance[str(x)] = min(n1, n0) / (n1 + n0)
        disp = _disparity_arrays(values, x)
        risk_x = {}
        for kind in (RuleKind.D_MINUS, RuleKind.D_PLUS):
            risk_x[kind] = sum(
                spec.p_group(x, g) * pointwise_risk(values[kind][(x, g)], spec, x, g)
                for g in (0, 1)
            )
        checks = {
            "assist_disparity": disp[RuleKind.D_PLUS] < disp[RuleKind.D_MINUS],
            "assist_risk": risk_x[RuleKind.D_PLUS] < risk_x[RuleKind.D_MINUS],
            "machine_disparity": disp[RuleKind.F_PLUS] > disp[RuleKind.F_MINUS],
        }
        for g in (0, 1):
            checks[f"machine_risk_g{g}"] = (
                pointwise_risk(values[RuleKind.F_PLUS][(x, g)], spec, x, g)
                < pointwise_risk(values[RuleKind.F_MINUS][(x, g)], spec, x, g)
            )
        for name, holds in checks.items():
            per_inequality[f"{name}@{x}"] = float(holds.mean())
            ok &= holds
    params = _echo_parameters(spec, config, deltas, prior)
    params["balance_fraction"] = balance
    return VerificationOutcome(
        claim_id="thm2", reps=reps, success_fraction=float(ok.mean()),
        per_inequality=per_inequality, parameters=params,
    )


def verify_machine_regimes(spec: ProblemSpec, config: TrainingConfig, x,
                           reps: int) -> VerificationOutcome:
    """Regime claim for the automated rules at one covariate value.

    Monte Carlo risk estimates must land within 3 standard errors of the
    closed forms and their difference must carry the oracle regime's sign.
    """
    _require_se_reps("remark3", reps)
    validate_spec(spec)
    regime = classify_regime(spec, config, x)
    values = replicate_rule_values(spec, None, config,
                                   [RuleKind.F_PLUS, RuleKind.F_MINUS], reps)
    risk = {}
    for kind in (RuleKind.F_PLUS, RuleKind.F_MINUS):
        risk[kind] = sum(
            spec.p_group(x, g) * pointwise_risk(values[kind][(x, g)], spec, x, g)
            for g in (0, 1)
        )
    mean_aware = float(risk[RuleKind.F_PLUS].mean())
    mean_blind = float(risk[RuleKind.F_MINUS].mean())
    se_aware = float(risk[RuleKind.F_PLUS].std(ddof=1) / math.sqrt(reps))
    se_blind = float(risk[RuleKind.F_MINUS].std(ddof=1) / math.sqrt(reps))
    diff = risk[RuleKind.F_PLUS] - risk[RuleKind.F_MINUS]
    se_diff = float(diff.std(ddof=1) / math.sqrt(reps))
    oracle_diff = regime.risk_aware - regime.risk_blind
    if oracle_diff == 0.0:
        sign_ok = abs(float(diff.mean())) <= SE_BAND * se_diff
    else:
        sign_ok = math.copysign(1.0, float(diff.mean())) == math.copysign(1.0, oracle_diff)
    aware_ok = abs(mean_aware - regime.risk_aware) < SE_BAND * se_aware
    blind_ok = abs(mean_blind - regime.risk_blind) < SE_BAND * se_blind
    per_inequality = {
        "risk_gap_sign_matches_oracle": float(sign_ok),
        "aware_risk_within_3se": float(aware_ok),
        "blind_risk_within_3se": float(blind_ok),
    }
    params = {
        "x": str(x),
        "xi": regime.xi,
        "abs_delta_mu": regime.abs_delta_mu,
        "regime": regime.regime.value,
        "oracle_risk_aware": regime.risk_aware,
        "oracle_risk_blind": regime.risk_blind,
        "mc_risk_aware": mean_aware,
        "mc_risk_blind": mean_blind,
        "mc_se_aware": se_aware,
        "mc_se_blind": se_blind,
        "counts": list(regime.counts),
        "noise_var": spec.noise_var,
        "seed": config.seed,
    }
    return VerificationOutcome(
        claim_id="remark3", reps=reps,
        success_fraction=float(sign_ok and aware_ok and blind_ok),
        per_inequality=per_inequality, parameters=params,
    )


def verify_remark1(spec: ProblemSpec, prior: ConjugateNormalPrior,
                   config: TrainingConfig, reps: int) -> VerificationOutcome:
    """Disparity reversal in expectation under the balanced example.

    Exact per replication: blind-rule disparity is zero and the disparities
    of d0 and d- equal the prior gap delta to 1e-12. In expectation: the
    mean disparity of d+ matches the convex combination
    (sigma_sq*delta + (n/2)*tau_sq*delta_mu)/(sigma_sq + (n/2)*tau_sq) within
    3 SE and stays below delta, while the mean disparity of f+ is
    non-negative within 3 SE.
    """
    _require_se_reps("remark1", reps)
    validate_spec(spec)
    params = derive_example_params(spec, prior, config)
    if not params.delta > params.delta_mu >= 0:
        raise PreconditionError(
            f"remark needs delta > delta_mu >= 0, got delta={params.delta!r}, "
            f"delta_mu={params.delta_mu!r}"
        )
    x = spec.covariates[0]
    values = replicate_rule_values(spec, prior, config, list(RuleKind), reps)
    disp = _disparity_arrays(values, x)
    f_minus_zero = disp[RuleKind.F_MINUS] == 0.0
    d_minus_exact = np.abs(disp[RuleKind.D_MINUS] - params.delta) <= EXACT_TOL
    d0_exact = np.abs(disp[RuleKind.D0] - params.delta) <= EXACT_TOL
    half = params.n // 2
    oracle_dplus = ((spec.noise_var * params.delta + half * prior.tau_sq * params.delta_mu)
                    / (spec.noise_var + half * prior.tau_sq))
    dplus_mean = float(disp[RuleKind.D_PLUS].mean())
    dplus_se = float(disp[RuleKind.D_PLUS].std(ddof=1) / math.sqrt(reps))
    fplus_mean = float(disp[RuleKind.F_PLUS].mean())
    fplus_se = float(disp[RuleKind.F_PLUS].std(ddof=1) / math.sqrt(reps))
    dplus_matches = abs(dplus_mean - oracle_dplus) < SE_BAND * dplus_se
    dplus_below_delta = dplus_mean + SE_BAND * dplus_se < params.delta
    fplus_nonneg = fplus_mean >= -SE_BAND * fplus_se
    per_inequality = {
        "f_minus_disparity_zero": float(f_minus_zero.mean()),
        "d_minus_disparity_eq_delta": float(d_minus_exact.mean()),
        "d0_disparity_eq_delta": float(d0_exact.mean()),
        "d_plus_mean_matches_convex_combination": float(dplus_matches),
        "d_plus_mean_below_delta": float(dplus_below_delta),
        "f_plus_mean_nonnegative": float(fplus_nonneg),
    }
    exact_fraction = float((f_minus_zero & d_minus_exact & d0_exact).mean())
    aggregate_ok = dplus_matches and dplus_below_delta and fplus_nonneg
    outcome_params = _echo_parameters(spec, config, {x: params.delta}, prior)
    outcome_params.update({
        "oracle_d_plus_mean_disparity": oracle_dplus,
        "mc_d_plus_mean_disparity": dplus_mean,
        "mc_d_plus_se": dplus_se,
        "mc_f_plus_mean_disparity": fplus_mean,
        "mc_f_plus_se": fplus_se,
    })
    return VerificationOutcome(
        claim_id="remark1", reps=reps,
        success_fraction=exact_fraction if aggregate_ok else 0.0,
        per_inequality=per_inequality, parameters=outcome_params,
    )


def _example_problem(sigma_sq: float, n: int, delta_mu: float, mu_bar: float,
                     seed: int) -> tuple:
    spec = ProblemSpec(
        covariates=("x0",),
        covariate_probs={"x0": 1.0},
        group_probs={"x0": 0.5},
        true_means={("x0", 0): mu_bar - delta_mu / 2.0,
                    ("x0", 1): mu_bar + delta_mu / 2.0},
        noise_var=sigma_sq,
    )
    config = TrainingConfig(counts={("x0", 0): n // 2, ("x0", 1): n // 2}, seed=seed)
    return spec, config


def verify_remark2(sigma_sq: float, tau_sq: float, n: int, delta_mu: float,
                   reps: int, seed: int, *, offset: float = 0.25,
                   beta_bar: float = 0.0, mu_bar: float = 0.0) -> VerificationOutcome:
    """Assistance risk threshold in the prior gap.

    The closed forms tie at delta* = delta_mu + 2*tau*sigma/sqrt(n*tau_sq +
    4*sigma_sq) to 1e-10; Monte Carlo runs at delta* +- offset must match
    the closed forms within 3 SE and order the two assisted risks
    accordingly: aware better above the threshold, worse below it.
    """
    _require_se_reps("remark2", reps)
    threshold = delta_threshold_example(sigma_sq, tau_sq, n, delta_mu)
    margin = threshold - delta_mu
    if not 0.0 < offset < margin:
        raise PreconditionError(
            f"offset must lie in (0, {margin!r}) so both probe gaps stay above delta_mu"
        )
    at_threshold = example_closed_forms(sigma_sq, tau_sq, n, threshold, delta_mu,
                                        beta_bar, mu_bar)
    oracle_equal = abs(at_threshold.expected_risk[RuleKind.D_PLUS]
                       - at_threshold.expected_risk[RuleKind.D_MINUS]) <= 1e-10
    per_inequality = {"oracle_risks_equal_at_threshold": float(oracle_equal)}
    parameters: dict = {
        "sigma_sq": sigma_sq, "tau_sq": tau_sq, "n": n, "delta_mu": delta_mu,
        "beta_bar": beta_bar, "mu_bar": mu_bar, "threshold": threshold,
        "offset": offset, "seed": seed,
    }
    all_ok = oracle_equal
    probes = (("above", 1, threshold + offset), ("below", 2, threshold - offset))
    for tag, branch, delta in probes:
        spec, config = _example_problem(
            sigma_sq, n, delta_mu, mu_bar,
            seed=rng.derive_key(seed, rng.STREAM_SCENARIO, branch),
        )
        prior = ConjugateNormalPrior(
            beta={("x0", 0): beta_bar - delta / 2.0, ("x0", 1): beta_bar + delta / 2.0},
            tau_sq=tau_sq,
        )
        oracle = example_closed_forms(sigma_sq, tau_sq, n, delta, delta_mu,
                                      beta_bar, mu_bar)
        report = mc_expected_metrics(spec, prior, config,
                                     [RuleKind.D_MINUS, RuleKind.D_PLUS], reps)
        est = {kind: report.rule(kind).expected_risk
               for kind in (RuleKind.D_MINUS, RuleKind.D_PLUS)}
        within = all(
            abs(est[kind].value - oracle.expected_risk[kind]) < SE_BAND * est[kind].se
            for kind in est
        )
        if tag == "above":
            ordered = est[RuleKind.D_PLUS].value < est[RuleKind.D_MINUS].value
        else:
            ordered = est[RuleKind.D_PLUS].value > est[RuleKind.D_MINUS].value
        per_inequality[f"mc_within_3se_{tag}_threshold"] = float(within)
        per_inequality[f"mc_ordering_{tag}_threshold"] = float(ordered)
        parameters[f"delta_{tag}"] = delta
        parameters[f"mc_risk_d_plus_{tag}"] = est[RuleKind.D_PLUS].value
        parameters[f"mc_risk_d_minus_{tag}"] = est[RuleKind.D_MINUS].value
        parameters[f"oracle_risk_d_plus_{tag}"] = oracle.expected_risk[RuleKind.D_PLUS]
        parameters[f"oracle_risk_d_minus_{tag}"] = oracle.expected_risk[RuleKind.D_MINUS]
        all_ok = all_ok and within and ordered
    return VerificationOutcome(
        claim_id="remark2", reps=reps, success_fraction=float(all_ok),
        per_inequality=per_inequality, parameters=parameters,
    )


def _truth_in_support(prior: GridPrior, spec: ProblemSpec) -> bool:
    for x in spec.covariates:
        weights = prior.weights(x)
        for g in (0, 1):
            support = np.unique(prior.support(x, g)[weights > 0])
            if support.size > 1:
                tol = 0.5 * float(np.diff(support).max())
            else:
                tol = WEAK_ABS_TOL
            if float(np.abs(support - spec.mu(x, g)).min()) > tol:
                return False
    return True


def verify_consistency(prior: GridPrior, spec: ProblemSpec, n_grid: Sequence,
                       reps: int, seed: int) -> ConsistencyResult:
    """Median |d+ - mu| across replications for each per-cell sample size.

    Posterior consistency predicts the medians shrink as cells grow,
    provided the prior's support reaches the true means; a prior whose
    support excludes the truth is flagged instead of failed silently.
    """
    validate_spec(spec)
    if not n_grid:
        raise PreconditionError("n_grid must be non-empty")
    if any(n < 1 for n in n_grid):
        raise PreconditionError("n_grid entries must be at least 1")
    in_support = _truth_in_support(prior, spec)
    medians = []
    for i, n_cell in enumerate(n_grid):
        config = TrainingConfig(
            counts={cell: int(n_cell) for cell in spec.cells()},
            seed=rng.derive_key(seed, rng.STREAM_SCENARIO, i),
        )
        values = replicate_rule_values(spec, prior, config, [RuleKind.D_PLUS],
                                       reps)[RuleKind.D_PLUS]
        errors = np.concatenate([
            np.abs(values[(x, g)] - spec.mu(x, g)) for x, g in spec.cells()
        ])
        medians.append(float(np.median(errors)))
    notes = () if in_support else ("truth outside support",)
    return ConsistencyResult(
        n_grid=tuple(int(n) for n in n_grid), medians=tuple(medians),
        truth_in_support=in_support, reps=reps, seed=seed, notes=notes,
    )
