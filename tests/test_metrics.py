"""Disparity and risk functionals, Monte Carlo estimates, bias/variance."""

import math

import numpy as np
import pytest
from scipy.stats import binom, norm

import assistfair as af
from assistfair.metrics import _estimate


def canonical_spec(mu0=0.0, mu1=0.0):
    return af.ProblemSpec(
        covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
        true_means={("x0", 0): mu0, ("x0", 1): mu1}, noise_var=1.0,
    )


def canonical_prior():
    return af.ConjugateNormalPrior(beta={("x0", 0): -0.5, ("x0", 1): 0.5}, tau_sq=1.0)


def canonical_config(half=4, seed=20240817):
    return af.TrainingConfig(counts={("x0", 0): half, ("x0", 1): half}, seed=seed)


class TestFunctionals:
    def test_pointwise_risk_is_squared_error_plus_noise(self):
        spec = canonical_spec(mu0=2.0)
        assert af.pointwise_risk(0.5, spec, "x0", 0) == pytest.approx(1.5**2 + 1.0)
        arr = af.pointwise_risk(np.asarray([0.5, 2.0]), spec, "x0", 0)
        assert np.allclose(arr, [3.25, 1.0])

    def test_risk_at_x_group_weighting(self):
        spec = af.ProblemSpec(
            covariates=("a",), covariate_probs={"a": 1.0}, group_probs={"a": 0.25},
            true_means={("a", 0): 0.0, ("a", 1): 1.0}, noise_var=0.5,
        )
        prior = af.ConjugateNormalPrior(beta={("a", 0): 0.5, ("a", 1): 0.5}, tau_sq=1.0)
        config = af.TrainingConfig(counts={("a", 0): 1, ("a", 1): 1}, seed=0)
        stats = af.mc_expected_metrics(spec, prior, config, [af.RuleKind.D0], 2).rule(
            af.RuleKind.D0)
        want = 0.75 * (0.25 + 0.5) + 0.25 * (0.25 + 0.5)
        assert stats.risk_by_x["a"].value == pytest.approx(want)
        assert stats.risk0_by_cell[("a", 1)].value == pytest.approx(0.25 + 0.5)

    def test_disparity_and_average(self):
        spec = af.ProblemSpec(
            covariates=("a", "b"), covariate_probs={"a": 0.25, "b": 0.75},
            group_probs={"a": 0.5, "b": 0.5},
            true_means={("a", 0): 0.0, ("a", 1): 0.0, ("b", 0): 0.0, ("b", 1): 0.0},
            noise_var=1.0,
        )
        prior = af.ConjugateNormalPrior(beta={
            ("a", 0): 0.0, ("a", 1): 1.0, ("b", 0): 0.5, ("b", 1): 0.3}, tau_sq=1.0)
        config = af.TrainingConfig(counts={cell: 1 for cell in spec.cells()}, seed=0)
        stats = af.mc_expected_metrics(spec, prior, config, [af.RuleKind.D0], 2).rule(
            af.RuleKind.D0)
        assert stats.disparity_by_x["a"].value == pytest.approx(1.0)
        assert stats.disparity_by_x["b"].value == pytest.approx(-0.2)
        assert stats.avg_disparity.value == pytest.approx(0.25 * 1.0 + 0.75 * -0.2)


class TestMonteCarloReport:
    def test_single_rep_has_no_se(self):
        report = af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                        canonical_config(), None, 1)
        stats = report.rule(af.RuleKind.D_PLUS)
        assert stats.expected_risk.se is None
        assert stats.avg_disparity.reps == 1

    def test_blind_machine_disparity_is_exactly_zero(self):
        report = af.mc_expected_metrics(canonical_spec(mu0=-0.3, mu1=0.9),
                                        canonical_prior(), canonical_config(), None, 500)
        stats = report.rule(af.RuleKind.F_MINUS)
        assert stats.avg_disparity.value == 0.0
        assert stats.avg_disparity.se == 0.0

    def test_unassisted_rule_is_deterministic(self):
        report = af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                        canonical_config(), None, 300)
        stats = report.rule(af.RuleKind.D0)
        assert stats.avg_disparity.value == pytest.approx(1.0, abs=1e-12)
        assert stats.expected_risk.se == pytest.approx(0.0, abs=1e-12)

    def test_se_shrinks_like_root_reps(self):
        spec, prior = canonical_spec(), canonical_prior()
        small = af.mc_expected_metrics(spec, prior, canonical_config(), None, 1000)
        large = af.mc_expected_metrics(spec, prior, canonical_config(), None, 16000)
        ratio = (large.rule(af.RuleKind.D_PLUS).expected_risk.se
                 / small.rule(af.RuleKind.D_PLUS).expected_risk.se)
        assert 0.15 < ratio < 0.35

    def test_matches_closed_forms_at_moderate_reps(self):
        table = af.example_closed_forms(1.0, 1.0, 8, 1.0, 0.0, 0.0, 0.0)
        report = af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                        canonical_config(), None, 20000)
        for kind in af.RuleKind:
            stats = report.rule(kind)
            d, r = stats.avg_disparity, stats.expected_risk
            assert abs(d.value - table.expected_disparity[kind]) <= 4 * d.se + 1e-12
            assert abs(r.value - table.expected_risk[kind]) <= 4 * r.se + 1e-12

    def test_excess_risk_subtracts_noise_floor(self):
        report = af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                        canonical_config(), None, 50)
        kind = af.RuleKind.F_PLUS
        assert report.excess_risk(kind).value == pytest.approx(
            report.rule(kind).expected_risk.value - 1.0)

    def test_rows_follow_schema(self):
        report = af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                        canonical_config(), [af.RuleKind.D0], 3)
        rows = report.to_rows()
        assert all(len(row) == 7 for row in rows)
        quantities = [row[2] for row in rows]
        assert quantities == ["disparity", "avg_disparity", "risk0_g0", "risk0_g1",
                              "risk", "expected_risk"]
        assert rows[0][0] == "d0"
        assert {row[5] for row in rows} == {3}

    def test_json_dict_round_trips_through_json(self):
        import json
        report = af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                        canonical_config(), None, 4)
        blob = json.dumps(report.to_json_dict(include_excess=True), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["reps"] == 4
        assert len(parsed["rules"]) == 5
        assert "excess_risk" in parsed["rules"][0]

    def test_estimate_matches_numpy_mean_and_std(self):
        draws = np.random.default_rng(5)
        for _ in range(300):
            n = int(draws.integers(1, 3000))
            samples = draws.normal(draws.normal() * 10, draws.exponential() + 1e-3, n)
            est = _estimate(samples)
            assert est.value == float(samples.mean())
            assert est.reps == n
            if n == 1:
                assert est.se is None
            else:
                assert est.se == float(samples.std(ddof=1) / math.sqrt(n))

    def test_rejects_zero_reps(self):
        with pytest.raises(af.ConfigError):
            af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                   canonical_config(), None, 0)


def bias_variance(kind, reps, spec):
    """Per-cell Monte Carlo bias and variance of one rule, with standard errors.

    The variance's standard error uses the fourth-moment formula, exact for
    rules affine in the Normal cell means.
    """
    values = af.replicate_rule_values(spec, canonical_prior(), canonical_config(), [kind],
                                      reps)[kind]
    out = {}
    for cell, samples in values.items():
        var = float(samples.var(ddof=1))
        m4 = float(np.mean((samples - samples.mean()) ** 4))
        out[cell] = {"bias": float(samples.mean()) - spec.mu(*cell),
                     "bias_se": float(samples.std(ddof=1)) / math.sqrt(reps),
                     "variance": var,
                     "variance_se": math.sqrt(max(m4 - var * var, 0.0) / reps)}
    return out


class TestBiasVariance:
    SPEC = canonical_spec(mu0=0.3, mu1=-0.2)

    def test_unassisted_decision_has_zero_variance(self):
        for cell, bv in bias_variance(af.RuleKind.D0, 200, self.SPEC).items():
            assert bv["variance"] == 0.0
            want = canonical_prior().beta[cell] - self.SPEC.mu(*cell)
            assert bv["bias"] == pytest.approx(want, abs=1e-12)

    def test_assisted_variances_match_closed_forms(self):
        # At sigma_sq = tau_sq = 1, n = 8: Var(d+) = 2*n*sigma^2*tau^4 /
        # (n*tau_sq + 2*sigma_sq)^2 = 0.16 per cell and the blind variant
        # halves it by averaging the two cell means.
        plus = bias_variance(af.RuleKind.D_PLUS, 40000, self.SPEC)
        minus = bias_variance(af.RuleKind.D_MINUS, 40000, self.SPEC)
        for cell in self.SPEC.cells():
            assert abs(plus[cell]["variance"] - 0.16) <= 4 * plus[cell]["variance_se"]
            assert abs(minus[cell]["variance"] - 0.08) <= 4 * minus[cell]["variance_se"]
            ratio = plus[cell]["variance"] / minus[cell]["variance"]
            assert ratio == pytest.approx(2.0, abs=0.15)

    def test_aware_bias_shrinks_prior_miss(self):
        # E[d+] - mu = sigma_sq*(beta - mu) / (sigma_sq + n_cell*tau_sq)
        prior = canonical_prior()
        for cell, bv in bias_variance(af.RuleKind.D_PLUS, 40000, self.SPEC).items():
            want = (prior.beta[cell] - self.SPEC.mu(*cell)) / (1.0 + 4 * 1.0)
            assert abs(bv["bias"] - want) <= 4 * bv["bias_se"]


class TestCalibration:
    def test_three_se_bands_cover_closed_forms_at_the_normal_rate(self):
        # 200 seeds of the canonical example (4 labels per group, n = 8) at
        # 2,000 replications each. A calibrated 3-SE band misses with
        # probability 2 * P(Z > 3) ~ 0.0027, so the miss count is Binomial.
        table = af.example_closed_forms(1.0, 1.0, 8, 1.0, 0.0, 0.0, 0.0)
        misses, trials = 0, 0
        for seed in range(200):
            report = af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                            canonical_config(seed=seed), None, 2000)
            for kind in af.RuleKind:
                stats = report.rule(kind)
                checks = [(stats.expected_risk, table.expected_risk[kind])]
                if kind is not af.RuleKind.F_MINUS:  # its disparity is exactly 0
                    checks.append((stats.avg_disparity, table.expected_disparity[kind]))
                for est, target in checks:
                    if est.se <= 1e-12:
                        # the same value in every replication: no band to calibrate
                        assert est.value == pytest.approx(target, abs=1e-12)
                        continue
                    trials += 1
                    misses += abs(est.value - target) > 3 * est.se
        p = 2 * norm.sf(3.0)
        low, high = binom.ppf(1e-6, trials, p), binom.isf(1e-6, trials, p)
        assert low <= misses <= high, (misses, trials, low, high)
