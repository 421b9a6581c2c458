"""Closed-form tables and regime thresholds."""

import json
import math

import pytest

import assistfair as af

D = af.RuleKind


def canonical_table():
    return af.example_closed_forms(1.0, 1.0, 8, 1.0, 0.0, 0.0, 0.0)


class TestClosedFormTable:
    def test_canonical_parameter_point(self):
        table = canonical_table()
        assert table.expected_disparity[D.F_MINUS] == pytest.approx(0.0, abs=1e-15)
        assert table.expected_disparity[D.F_PLUS] == pytest.approx(0.0, abs=1e-15)
        assert table.expected_disparity[D.D0] == pytest.approx(1.0, abs=1e-15)
        assert table.expected_disparity[D.D_MINUS] == pytest.approx(1.0, abs=1e-15)
        assert table.expected_disparity[D.D_PLUS] == pytest.approx(0.2, abs=1e-15)
        assert table.expected_risk[D.F_MINUS] == pytest.approx(1.125, abs=1e-15)
        assert table.expected_risk[D.F_PLUS] == pytest.approx(1.25, abs=1e-15)
        assert table.expected_risk[D.D0] == pytest.approx(1.25, abs=1e-15)
        assert table.expected_risk[D.D_MINUS] == pytest.approx(1.33, abs=1e-12)
        assert table.expected_risk[D.D_PLUS] == pytest.approx(1.17, abs=1e-12)

    def test_unbiased_symmetric_case_collapses(self):
        table = af.example_closed_forms(1.0, 1.0, 8, 0.0, 0.0, 0.0, 0.0)
        for kind in D:
            assert table.expected_disparity[kind] == pytest.approx(0.0, abs=1e-15)
        assert table.expected_risk[D.D0] == pytest.approx(1.0, abs=1e-15)
        assert table.expected_risk[D.D_MINUS] < table.expected_risk[D.F_MINUS]
        assert table.expected_risk[D.D_PLUS] < table.expected_risk[D.F_PLUS]

    def test_aware_assisted_disparity_is_convex_mix(self):
        # E[disp(d+)] = (sigma_sq*delta + half*tau_sq*delta_mu) / (sigma_sq +
        # half*tau_sq): a convex combination of delta and delta_mu.
        table = af.example_closed_forms(2.0, 0.5, 12, 1.0, 0.4, 0.1, -0.2)
        half = 6
        want = (2.0 * 1.0 + half * 0.5 * 0.4) / (2.0 + half * 0.5)
        assert table.expected_disparity[D.D_PLUS] == pytest.approx(want, rel=1e-12)
        assert min(1.0, 0.4) < table.expected_disparity[D.D_PLUS] < max(1.0, 0.4)

    def test_risk_formulas_against_direct_arithmetic(self):
        sigma_sq, tau_sq, n = 1.3, 0.7, 10
        delta, delta_mu, beta_bar, mu_bar = 0.9, 0.3, 0.25, -0.5
        table = af.example_closed_forms(sigma_sq, tau_sq, n, delta, delta_mu,
                                        beta_bar, mu_bar)
        half = n // 2
        a = sigma_sq + half * tau_sq
        assert table.expected_risk[D.F_MINUS] == pytest.approx(
            delta_mu**2 / 4 + sigma_sq * (1 + 1 / n), rel=1e-12)
        assert table.expected_risk[D.F_PLUS] == pytest.approx(
            sigma_sq * (1 + 2 / n), rel=1e-12)
        assert table.expected_risk[D.D0] == pytest.approx(
            (mu_bar - beta_bar)**2 + (delta_mu - delta)**2 / 4 + sigma_sq, rel=1e-12)
        assert table.expected_risk[D.D_MINUS] == pytest.approx(
            sigma_sq**2 * (mu_bar - beta_bar)**2 / a**2 + (delta_mu - delta)**2 / 4
            + sigma_sq * (1 + n * tau_sq**2 / (4 * a**2)), rel=1e-12)
        assert table.expected_risk[D.D_PLUS] == pytest.approx(
            sigma_sq**2 * ((mu_bar - beta_bar)**2 + (delta_mu - delta)**2 / 4) / a**2
            + sigma_sq * (1 + n * tau_sq**2 / (2 * a**2)), rel=1e-12)

    def test_odd_n_rejected(self):
        with pytest.raises(af.PreconditionError, match="balanced example requires even n"):
            af.example_closed_forms(1.0, 1.0, 7, 1.0, 0.0, 0.0, 0.0)

    def test_text_and_json_outputs(self):
        table = canonical_table()
        text = table.to_text()
        for label in ("f-", "f+", "d0", "d-", "d+"):
            assert label in text
        parsed = json.loads(json.dumps(table.to_json_dict(), sort_keys=True))
        by_rule = {entry["rule"]: entry for entry in parsed["rules"]}
        assert by_rule["d_plus"]["expected_risk"] == pytest.approx(1.17)
        assert parsed["inputs"]["n"] == 8


class TestMachineThreshold:
    def test_balanced_threshold_is_two_sigma_over_root_n(self):
        spec = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): 0.0, ("x0", 1): 0.0}, noise_var=1.0)
        cfg16 = af.TrainingConfig(counts={("x0", 0): 8, ("x0", 1): 8}, seed=0)
        assert af.xi_threshold_general(spec, cfg16, "x0") == pytest.approx(0.5, abs=1e-12)
        cfg4 = af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): 2}, seed=0)
        assert af.xi_threshold_general(spec, cfg4, "x0") == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_threshold(self):
        spec = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): 0.0, ("x0", 1): 0.0}, noise_var=1.0)
        cfg = af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): 6}, seed=0)
        assert af.xi_threshold_general(spec, cfg, "x0") == pytest.approx(
            math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_machine_risk_expectations_match_closed_forms(self):
        spec = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): -0.4, ("x0", 1): 0.4}, noise_var=1.0)
        cfg = af.TrainingConfig(counts={("x0", 0): 8, ("x0", 1): 8}, seed=0)
        aware, blind = af.machine_risk_expectations(spec, cfg, "x0")
        table = af.example_closed_forms(1.0, 1.0, 16, 1.0, 0.8, 0.0, 0.0)
        assert aware == pytest.approx(table.expected_risk[D.F_PLUS], rel=1e-12)
        assert blind == pytest.approx(table.expected_risk[D.F_MINUS], rel=1e-12)

    def test_regime_sign_agrees_with_risk_comparison(self):
        # threshold formula vs direct risk comparison, across balance levels
        spec_template = {
            "covariates": ("x0",), "covariate_probs": {"x0": 1.0},
            "group_probs": {"x0": 0.4}, "noise_var": 1.5,
        }
        for n0, n1 in ((8, 8), (2, 6), (12, 4)):
            cfg = af.TrainingConfig(counts={("x0", 0): n0, ("x0", 1): n1}, seed=0)
            for gap in (0.05, 0.3, 0.6, 1.2, 2.5):
                spec = af.ProblemSpec(
                    true_means={("x0", 0): -gap / 2, ("x0", 1): gap / 2},
                    **spec_template)
                xi = af.xi_threshold_general(spec, cfg, "x0")
                aware, blind = af.machine_risk_expectations(spec, cfg, "x0")
                result = af.classify_regime(spec, cfg, "x0")
                assert result.xi == pytest.approx(xi)
                if gap > xi + 1e-9:
                    assert aware < blind
                    assert result.regime is af.Regime.TRADE_OFF
                elif gap < xi - 1e-9:
                    assert aware > blind
                    assert result.regime is af.Regime.DOMINANCE

    def test_criterion_regime_instances(self):
        spec_hi = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): -0.4, ("x0", 1): 0.4}, noise_var=1.0)
        spec_lo = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): -0.1, ("x0", 1): 0.1}, noise_var=1.0)
        cfg = af.TrainingConfig(counts={("x0", 0): 8, ("x0", 1): 8}, seed=0)
        hi = af.classify_regime(spec_hi, cfg, "x0")
        lo = af.classify_regime(spec_lo, cfg, "x0")
        assert hi.regime is af.Regime.TRADE_OFF
        assert (hi.risk_aware, hi.risk_blind) == (pytest.approx(1.125),
                                                  pytest.approx(1.2225))
        assert lo.regime is af.Regime.DOMINANCE
        assert (lo.risk_aware, lo.risk_blind) == (pytest.approx(1.125),
                                                  pytest.approx(1.0725))

    def test_boundary_counts_as_dominance(self):
        spec = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): -0.25, ("x0", 1): 0.25}, noise_var=1.0)
        cfg = af.TrainingConfig(counts={("x0", 0): 8, ("x0", 1): 8}, seed=0)
        result = af.classify_regime(spec, cfg, "x0")
        assert result.risk_aware == pytest.approx(result.risk_blind, abs=1e-12)
        assert result.regime is af.Regime.DOMINANCE


class TestAssistanceThreshold:
    def test_canonical_value(self):
        assert af.delta_threshold_example(1.0, 1.0, 12, 0.0) == pytest.approx(0.5,
                                                                              abs=1e-12)

    def test_formula_instance(self):
        sigma_sq, tau_sq, n, delta_mu = 2.0, 0.5, 20, 0.3
        want = delta_mu + 2 * math.sqrt(tau_sq * sigma_sq / (n * tau_sq + 4 * sigma_sq))
        assert af.delta_threshold_example(sigma_sq, tau_sq, n, delta_mu) == pytest.approx(
            want, rel=1e-12)

    def test_closed_form_risks_tie_at_threshold(self):
        for sigma_sq, tau_sq, n, delta_mu in ((1.0, 1.0, 12, 0.0), (2.0, 0.5, 8, 0.2),
                                              (0.7, 2.0, 30, 0.1)):
            star = af.delta_threshold_example(sigma_sq, tau_sq, n, delta_mu)
            table = af.example_closed_forms(sigma_sq, tau_sq, n, star, delta_mu,
                                            0.0, 0.0)
            assert abs(table.expected_risk[D.D_PLUS]
                       - table.expected_risk[D.D_MINUS]) < 1e-10

    def test_ordering_flips_across_threshold(self):
        above = af.example_closed_forms(1.0, 1.0, 12, 0.75, 0.0, 0.0, 0.0)
        below = af.example_closed_forms(1.0, 1.0, 12, 0.25, 0.0, 0.0, 0.0)
        assert above.expected_risk[D.D_PLUS] < above.expected_risk[D.D_MINUS]
        assert below.expected_risk[D.D_PLUS] > below.expected_risk[D.D_MINUS]
