"""Empirical verification of the disparity and risk claims.

Every claim has one verifier, ``verify_<claim>(spec, prior, config, reps,
**options)``, which returns a ``VerificationOutcome``. Each verifier replays
a claim's inequality chain over seeded training replications and reports the
fraction of replications where the chain held, plus per-inequality fractions
for diagnosis. Claims about expectations (regime classifications, threshold
orderings, consistency medians) are checked once against Monte Carlo means
with 3-standard-error bands or fixed bounds and report an all-or-nothing
success fraction.

Tie policy: weak inequalities count ties as satisfied, up to floating-point
tolerance, because several quantities are equal by construction in the
balanced design; strict inequalities count ties as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import rng, simulate
from .errors import ConfigError, PreconditionError
from .metrics import _estimate, mc_expected_metrics, pointwise_risk
from .model import (
    ConjugateNormalPrior,
    GridPrior,
    Prior,
    ProblemSpec,
    RuleKind,
    TrainingConfig,
    derive_example_params,
)
from .oracle import (
    delta_threshold_example,
    example_closed_forms,
    machine_risk_expectations,
    xi_threshold_general,
)
from .simulate import pooled_mean, replicate_rule_values

__all__ = [
    "VerificationOutcome",
    "weak_le",
    "verify_disparity_reversal",
    "verify_reordering",
    "verify_tradeoff_reversal",
    "verify_machine_regimes",
    "verify_remark1",
    "verify_remark2",
    "verify_consistency",
]

WEAK_REL_TOL = 1e-9
WEAK_ABS_TOL = 1e-12
EXACT_TOL = 1e-12
SE_BAND = 3.0
# consistency: allowed rise between successive medians, and the last median's bound
CONSISTENCY_SLACK = 0.02
CONSISTENCY_BOUND = 0.05


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


def _risk_at_x(spec: ProblemSpec, per_cell: Mapping, x):
    """Group-weighted pointwise risk at ``x`` of one rule's per-cell values."""
    return sum(spec.p_group(x, g) * pointwise_risk(per_cell[(x, g)], spec, x, g)
               for g in (0, 1))


def _replay_chain(claim_id: str, spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                  reps: int, delta: float | None, kinds: Sequence, strict_lower: bool,
                  checks) -> VerificationOutcome:
    """Run one claim's per-replication inequality chain.

    ``checks(values, x, delta)`` maps inequality names to boolean arrays over
    replications; a replication succeeds when every check holds at every
    covariate value.
    """
    _require_counts(spec, config)
    deltas = _resolve_deltas(spec, prior, config, delta)
    _gap_preconditions(spec, deltas, strict_lower=strict_lower)
    values = replicate_rule_values(spec, prior, config, kinds, reps)
    ok = np.ones(reps, dtype=bool)
    per_inequality = {}
    for x in spec.covariates:
        for name, holds in checks(values, x, deltas[x]).items():
            per_inequality[f"{name}@{x}"] = float(holds.mean())
            ok &= holds
    return VerificationOutcome(
        claim_id=claim_id, reps=reps, success_fraction=float(ok.mean()),
        per_inequality=per_inequality,
        parameters=_echo_parameters(spec, config, deltas, prior),
    )


def verify_disparity_reversal(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                              reps: int, *, delta: float | None = None) -> VerificationOutcome:
    """Disparity reversal: d+ falls below the believed disparity, blind stays at it.

    Per replication and covariate value the chain is
    disparity(d+) < delta <= disparity(d-), disparity(d0).
    """
    def checks(values, x, d):
        disp = _disparity_arrays(values, x)
        return {
            "d_plus_lt_delta": disp[RuleKind.D_PLUS] < d,
            "delta_le_d_minus": weak_le(d, disp[RuleKind.D_MINUS]),
            "delta_le_d0": weak_le(d, disp[RuleKind.D0]),
        }

    return _replay_chain("thm1", spec, prior, config, reps, delta,
                         [RuleKind.D0, RuleKind.D_MINUS, RuleKind.D_PLUS],
                         strict_lower=False, checks=checks)


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
    def checks(values, x, d):
        mag = {kind: np.abs(arr) for kind, arr in _disparity_arrays(values, x).items()}
        return {f"abs_{hi.value}_gt_abs_{lo.value}": mag[hi] > mag[lo]
                for hi, lo in _REORDER_PAIRS}

    return _replay_chain("cor1", spec, prior, config, reps, delta, list(RuleKind),
                         strict_lower=False, checks=checks)


def verify_tradeoff_reversal(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                             reps: int, *, delta: float | None = None) -> VerificationOutcome:
    """Trade-off reversal: assistance beats blind assistance on both axes.

    Per replication and covariate value:
    disparity(d+) < disparity(d-), risk(d+) < risk(d-) at x, while
    disparity(f+) > disparity(f-) and each cell's risk under f+ is below f-.
    """
    def checks(values, x, d):
        disp = _disparity_arrays(values, x)
        risk_x = {kind: _risk_at_x(spec, values[kind], x)
                  for kind in (RuleKind.D_MINUS, RuleKind.D_PLUS)}
        out = {
            "assist_disparity": disp[RuleKind.D_PLUS] < disp[RuleKind.D_MINUS],
            "assist_risk": risk_x[RuleKind.D_PLUS] < risk_x[RuleKind.D_MINUS],
            "machine_disparity": disp[RuleKind.F_PLUS] > disp[RuleKind.F_MINUS],
        }
        for g in (0, 1):
            out[f"machine_risk_g{g}"] = (
                pointwise_risk(values[RuleKind.F_PLUS][(x, g)], spec, x, g)
                < pointwise_risk(values[RuleKind.F_MINUS][(x, g)], spec, x, g)
            )
        return out

    outcome = _replay_chain("thm2", spec, prior, config, reps, delta, list(RuleKind),
                            strict_lower=True, checks=checks)
    balance = {str(x): min(config.count(x, 1), config.count(x, 0)) / config.total(x)
               for x in spec.covariates}
    return replace(outcome, parameters={**outcome.parameters, "balance_fraction": balance})


def _machine_regime_at(spec: ProblemSpec, config: TrainingConfig, means: Mapping, x,
                       reps: int) -> tuple:
    """Checks and echoed parameters of the regime claim at one covariate value.

    The oracle regime is trade-off when |delta_mu| exceeds xi strictly; the
    boundary |delta_mu| = xi is dominance.
    """
    xi = xi_threshold_general(spec, config, x)
    oracle_aware, oracle_blind = machine_risk_expectations(spec, config, x)
    abs_gap = abs(spec.delta_mu(x))
    pooled = pooled_mean(config, means, x, reps)
    risk_aware = _risk_at_x(spec, means, x)
    risk_blind = _risk_at_x(spec, {(x, 0): pooled, (x, 1): pooled}, x)
    aware, blind = _estimate(risk_aware), _estimate(risk_blind)
    diff = _estimate(risk_aware - risk_blind)
    oracle_diff = oracle_aware - oracle_blind
    if oracle_diff == 0.0:
        sign_ok = abs(diff.value) <= SE_BAND * diff.se
    else:
        sign_ok = math.copysign(1.0, diff.value) == math.copysign(1.0, oracle_diff)
    checks = {
        "risk_gap_sign_matches_oracle": sign_ok,
        "aware_risk_within_3se": abs(aware.value - oracle_aware) < SE_BAND * aware.se,
        "blind_risk_within_3se": abs(blind.value - oracle_blind) < SE_BAND * blind.se,
    }
    params = {
        "x": str(x),
        "xi": xi,
        "abs_delta_mu": abs_gap,
        "regime": "trade_off" if abs_gap > xi else "dominance",
        "oracle_risk_aware": oracle_aware,
        "oracle_risk_blind": oracle_blind,
        "mc_risk_aware": aware.value,
        "mc_risk_blind": blind.value,
        "mc_se_aware": aware.se,
        "mc_se_blind": blind.se,
        "counts": [config.count(x, 1), config.count(x, 0)],
        "noise_var": spec.noise_var,
        "seed": config.seed,
    }
    return checks, params


def verify_machine_regimes(spec: ProblemSpec, prior: Prior, config: TrainingConfig,
                           reps: int) -> VerificationOutcome:
    """Regime claim for the automated rules at every covariate value.

    Monte Carlo risk estimates must land within 3 standard errors of the
    closed forms and their difference must carry the oracle regime's sign.
    Entries are tagged ``"<x>:<check>"`` and parameters are keyed by x. The
    prior is not used: the automated rules ignore it.
    """
    _require_se_reps("remark3", reps)
    # called through ``simulate`` so wrappers installed on it see the draw
    means = simulate.replicate_cell_means(spec, config, reps)
    per_inequality, parameters, all_ok = {}, {}, True
    for x in spec.covariates:
        checks, parameters[str(x)] = _machine_regime_at(spec, config, means, x, reps)
        for name, ok in checks.items():
            per_inequality[f"{x}:{name}"] = float(ok)
            all_ok = all_ok and ok
    return VerificationOutcome(
        claim_id="remark3", reps=reps, success_fraction=float(all_ok),
        per_inequality=per_inequality, parameters=parameters,
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
    dplus, fplus = _estimate(disp[RuleKind.D_PLUS]), _estimate(disp[RuleKind.F_PLUS])
    dplus_matches = abs(dplus.value - oracle_dplus) < SE_BAND * dplus.se
    dplus_below_delta = dplus.value + SE_BAND * dplus.se < params.delta
    fplus_nonneg = fplus.value >= -SE_BAND * fplus.se
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
        "mc_d_plus_mean_disparity": dplus.value,
        "mc_d_plus_se": dplus.se,
        "mc_f_plus_mean_disparity": fplus.value,
        "mc_f_plus_se": fplus.se,
    })
    return VerificationOutcome(
        claim_id="remark1", reps=reps,
        success_fraction=exact_fraction if aggregate_ok else 0.0,
        per_inequality=per_inequality, parameters=outcome_params,
    )


def verify_remark2(spec: ProblemSpec, prior: ConjugateNormalPrior, config: TrainingConfig,
                   reps: int, *, offset: float = 0.25) -> VerificationOutcome:
    """Assistance risk threshold in the prior gap.

    The closed forms tie at delta* = delta_mu + 2*tau*sigma/sqrt(n*tau_sq +
    4*sigma_sq) to 1e-10; Monte Carlo runs at delta* +- offset must match
    the closed forms within 3 SE and order the two assisted risks
    accordingly: aware better above the threshold, worse below it. The
    document's own prior gap is replaced by each probe gap.
    """
    _require_se_reps("remark2", reps)
    example = derive_example_params(spec, prior, config)
    x = spec.covariates[0]
    if spec.p_group(x, 1) != 0.5:
        raise PreconditionError(
            f"remark2 needs P(g=1|x) = 0.5, as its closed forms assume; got "
            f"{spec.p_group(x, 1)!r} at x={x!r}"
        )
    sigma_sq, tau_sq, n = spec.noise_var, prior.tau_sq, example.n
    delta_mu, beta_bar, mu_bar = example.delta_mu, example.beta_bar, example.mu_bar
    threshold = delta_threshold_example(sigma_sq, tau_sq, n, delta_mu)
    margin = threshold - delta_mu
    if not margin > 0.0:
        raise PreconditionError(
            f"delta_mu={delta_mu!r} is too large for its threshold {threshold!r} "
            "to lie above it"
        )
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
        "offset": offset, "seed": config.seed,
    }
    all_ok = oracle_equal
    probes = (("above", 1, threshold + offset), ("below", 2, threshold - offset))
    for tag, branch, delta in probes:
        probe_config = replace(
            config, seed=rng.derive_key(config.seed, rng.STREAM_SCENARIO, branch))
        probe_prior = ConjugateNormalPrior(
            beta={(x, 0): beta_bar - delta / 2.0, (x, 1): beta_bar + delta / 2.0},
            tau_sq=tau_sq,
        )
        oracle = example_closed_forms(sigma_sq, tau_sq, n, delta, delta_mu,
                                      beta_bar, mu_bar)
        report = mc_expected_metrics(spec, probe_prior, probe_config,
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
            # np.unique would import numpy.ma; repeats add only zero gaps
            support = np.sort(prior.support(x, g)[weights > 0])
            tol = 0.5 * float(np.diff(support).max()) if support[-1] > support[0] \
                else WEAK_ABS_TOL
            if float(np.abs(support - spec.mu(x, g)).min()) > tol:
                return False
    return True


def verify_consistency(spec: ProblemSpec, prior: GridPrior, config: TrainingConfig,
                       reps: int, *, n_grid: Sequence) -> VerificationOutcome:
    """Median |d+ - mu| across replications for each per-cell sample size.

    Every cell takes each ``n_grid`` entry in turn as its count; the
    config's own counts are not used. Posterior consistency predicts the
    medians shrink as cells grow, provided the prior's support reaches the
    true means. Three all-or-nothing checks: truth in support, medians
    weakly decreasing up to ``CONSISTENCY_SLACK``, and the last median below
    ``CONSISTENCY_BOUND``. True means so large that adjacent floats are
    further apart than the slack are a precondition error.
    """
    if prior.kind != GridPrior.kind:
        raise PreconditionError("consistency needs a grid prior")
    if not n_grid:
        raise PreconditionError("n_grid must be non-empty")
    if any(n < 1 for n in n_grid):
        raise PreconditionError("n_grid entries must be at least 1")
    for x, g in spec.cells():
        # the checks are absolute, so floats near the truth must resolve the slack
        spacing = float(np.spacing(abs(spec.mu(x, g))))
        if spacing > CONSISTENCY_SLACK:
            raise PreconditionError(
                f"true mean {spec.mu(x, g)!r} at cell ({x!r}, {g}) is too large for "
                f"consistency's slack {CONSISTENCY_SLACK}: floats there are {spacing:g} apart"
            )
    in_support = _truth_in_support(prior, spec)
    medians = []
    for i, n_cell in enumerate(n_grid):
        probe_config = replace(
            config, counts={cell: int(n_cell) for cell in spec.cells()},
            seed=rng.derive_key(config.seed, rng.STREAM_SCENARIO, i),
        )
        values = replicate_rule_values(spec, prior, probe_config, [RuleKind.D_PLUS],
                                       reps)[RuleKind.D_PLUS]
        errors = np.concatenate([
            np.abs(values[(x, g)] - spec.mu(x, g)) for x, g in spec.cells()
        ])
        # np.median's middle, without its NaN check, which imports numpy.ma
        n = errors.size
        medians.append(float(np.mean(np.sort(errors)[(n - 1) // 2:n // 2 + 1])))
    checks = {
        "truth_in_support": in_support,
        "medians_weakly_decreasing": all(
            b <= a + CONSISTENCY_SLACK for a, b in zip(medians, medians[1:])),
        "last_median_below_bound": medians[-1] < CONSISTENCY_BOUND,
    }
    return VerificationOutcome(
        claim_id="consistency", reps=reps, success_fraction=float(all(checks.values())),
        per_inequality={name: float(ok) for name, ok in checks.items()},
        parameters={"n_grid": [int(n) for n in n_grid], "medians": medians,
                    "seed": config.seed},
        notes=() if in_support else ("truth outside support",),
    )
