"""Empirical claim verifiers: success fractions, preconditions, edge priors."""

import math

import numpy as np
import pytest

import assistfair as af
from assistfair import rng

SEED = 20240817


def single_x_spec(delta_mu, noise_var=1.0):
    return af.ProblemSpec(
        covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
        true_means={("x0", 0): -delta_mu / 2, ("x0", 1): delta_mu / 2},
        noise_var=noise_var,
    )


def biased_prior(delta=1.0, tau_sq=1.0):
    return af.ConjugateNormalPrior(
        beta={("x0", 0): -delta / 2, ("x0", 1): delta / 2}, tau_sq=tau_sq)


def balanced_config(half, seed=SEED):
    return af.TrainingConfig(counts={("x0", 0): half, ("x0", 1): half}, seed=seed)


def gap_grid_prior(delta, x="x0"):
    """Grid prior whose conditional group gap equals delta identically."""
    pts, w = af.normal_marginal_grid(0.0, 1.0)
    return af.GridPrior(points={x: (pts + delta / 2, pts - delta / 2, w)})


class TestDisparityReversal:
    def test_standard_parameters_pass(self):
        out = af.verify_disparity_reversal(single_x_spec(0.2), biased_prior(),
                                           balanced_config(200), 400)
        assert out.claim_id == "thm1"
        assert out.success_fraction >= 0.95
        assert out.passed(0.95)
        assert "PASS" in out.summary_line(0.95)
        for name, frac in out.per_inequality.items():
            assert 0.0 <= frac <= 1.0

    def test_single_observation_is_strictly_noisier(self):
        big = af.verify_disparity_reversal(single_x_spec(0.2), biased_prior(),
                                           balanced_config(200), 400)
        tiny = af.verify_disparity_reversal(single_x_spec(0.2), biased_prior(),
                                            balanced_config(1), 400)
        assert tiny.success_fraction < big.success_fraction

    def test_success_increases_with_cell_size(self):
        fracs = [af.verify_disparity_reversal(single_x_spec(0.2), biased_prior(),
                                              balanced_config(half), 400).success_fraction
                 for half in (2, 10, 100)]
        assert fracs[1] >= fracs[0] - 0.02
        assert fracs[2] >= fracs[1] - 0.02

    def test_explicit_delta_must_be_certified(self):
        with pytest.raises(af.PreconditionError, match="not 2.0-disparate"):
            af.verify_disparity_reversal(single_x_spec(0.2), biased_prior(delta=1.0),
                                         balanced_config(8), 50, delta=2.0)

    def test_unbalanced_conjugate_cannot_certify(self):
        spec = single_x_spec(0.2)
        cfg = af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): 6}, seed=SEED)
        with pytest.raises(af.PreconditionError, match="unbounded"):
            af.verify_disparity_reversal(spec, biased_prior(), cfg, 50)

    def test_shared_mean_grid_fails_certification(self):
        pts, w = af.normal_marginal_grid(0.0, 1.0, n_points=501)
        dogmatic = af.GridPrior(points={"x0": af.diagonal_grid(pts, w)})
        with pytest.raises(af.PreconditionError, match="not positive"):
            af.verify_disparity_reversal(single_x_spec(0.2), dogmatic,
                                         balanced_config(8), 50)
        with pytest.raises(af.PreconditionError, match="disparate"):
            af.verify_disparity_reversal(single_x_spec(0.2), dogmatic,
                                         balanced_config(8), 50, delta=1.0)

    def test_gap_grid_prior_passes_with_unbalanced_counts(self):
        spec = single_x_spec(0.2)
        cfg = af.TrainingConfig(counts={("x0", 0): 50, ("x0", 1): 150}, seed=SEED)
        out = af.verify_disparity_reversal(spec, gap_grid_prior(1.0), cfg, 300)
        assert out.success_fraction >= 0.95


class TestReordering:
    def test_standard_parameters_pass(self):
        out = af.verify_reordering(single_x_spec(0.2), biased_prior(),
                                   balanced_config(200), 400)
        assert out.claim_id == "cor1"
        assert out.success_fraction >= 0.95
        assert len(out.per_inequality) == 6

    def test_zero_gap_allowed(self):
        out = af.verify_reordering(single_x_spec(0.0), biased_prior(),
                                   balanced_config(200), 400)
        assert out.success_fraction >= 0.90


class TestTradeoffReversal:
    def test_standard_parameters_pass(self):
        out = af.verify_tradeoff_reversal(single_x_spec(0.5), biased_prior(),
                                          balanced_config(200), 400)
        assert out.claim_id == "thm2"
        assert out.success_fraction >= 0.95

    def test_zero_gap_rejected(self):
        with pytest.raises(af.PreconditionError, match="0 < delta_mu"):
            af.verify_tradeoff_reversal(single_x_spec(0.0), biased_prior(),
                                        balanced_config(200), 50)

    def test_mildly_unbalanced_with_gap_grid(self):
        # 25 percent minority share; the gap grid keeps the believed gap at
        # delta for any weights, so the claim stays well-posed. The majority
        # cell's machine-risk comparison is noisy per replication (the blind
        # bias advantage shrinks with the minority weight), so that part is
        # checked in expectation, where the ordering is strict.
        spec = single_x_spec(0.5)
        cfg = af.TrainingConfig(counts={("x0", 0): 100, ("x0", 1): 300}, seed=SEED)
        out = af.verify_tradeoff_reversal(spec, gap_grid_prior(1.0), cfg, 300)
        for name in ("assist_disparity@x0", "assist_risk@x0", "machine_disparity@x0"):
            assert out.per_inequality[name] >= 0.95
        report = af.mc_expected_metrics(spec, gap_grid_prior(1.0), cfg,
                                        [af.RuleKind.F_MINUS, af.RuleKind.F_PLUS], 300)
        for g in (0, 1):
            aware = report.rule(af.RuleKind.F_PLUS).risk0_by_cell[("x0", g)]
            blind = report.rule(af.RuleKind.F_MINUS).risk0_by_cell[("x0", g)]
            margin = 3 * math.hypot(aware.se, blind.se)
            assert aware.value < blind.value - margin


class TestRemark1:
    def test_exact_invariants_hold(self):
        out = af.verify_remark1(single_x_spec(0.0), biased_prior(),
                                balanced_config(4), 4000)
        assert out.claim_id == "remark1"
        assert out.success_fraction == 1.0
        assert out.per_inequality["f_minus_disparity_zero"] == 1.0
        assert out.per_inequality["d_minus_disparity_eq_delta"] == 1.0
        assert out.per_inequality["d0_disparity_eq_delta"] == 1.0

    def test_needs_delta_above_gap(self):
        with pytest.raises(af.PreconditionError):
            af.verify_remark1(single_x_spec(1.5), biased_prior(delta=1.0),
                              balanced_config(4), 50)


class TestRemark2:
    def test_threshold_brackets(self):
        out = af.verify_remark2(single_x_spec(0.0), biased_prior(), balanced_config(6), 4000)
        assert out.claim_id == "remark2"
        assert out.success_fraction == 1.0
        assert out.parameters["threshold"] == pytest.approx(0.5, abs=1e-12)
        assert out.parameters["delta_above"] == pytest.approx(0.75)
        assert out.parameters["delta_below"] == pytest.approx(0.25)

    def test_offset_must_keep_claim_well_posed(self):
        with pytest.raises(af.PreconditionError):
            af.verify_remark2(single_x_spec(0.0), biased_prior(), balanced_config(6), 100,
                              offset=0.6)


class TestRemark3:
    def test_both_regimes_reproduce(self):
        cfg = balanced_config(8)
        hi = af.verify_machine_regimes(single_x_spec(0.8), biased_prior(), cfg, 4000)
        lo = af.verify_machine_regimes(single_x_spec(0.2), biased_prior(), cfg, 4000)
        assert hi.success_fraction == 1.0
        assert lo.success_fraction == 1.0
        assert hi.parameters["x0"]["regime"] == "trade_off"
        assert lo.parameters["x0"]["regime"] == "dominance"

    def test_draws_only_its_own_cells(self, monkeypatch):
        names = ("a", "b", "c")
        spec = af.ProblemSpec(
            covariates=names, covariate_probs={x: 1 / 3 for x in names},
            group_probs={x: 0.5 for x in names},
            true_means={(x, g): 0.4 * g for x in names for g in (0, 1)}, noise_var=1.0)
        cfg = af.TrainingConfig(counts={(x, g): 8 for x in names for g in (0, 1)},
                                seed=SEED)
        rows = []
        normal_block = rng.normal_block

        def counting(*args, **kwargs):
            block = normal_block(*args, **kwargs)
            rows.append(block.shape[0])
            return block

        monkeypatch.setattr(rng, "normal_block", counting)
        af.verify_machine_regimes(spec, None, cfg, 300)
        assert sum(rows) == 3 * 2 * 300

    def test_outcome_serializes(self):
        import json
        cfg = balanced_config(8)
        out = af.verify_machine_regimes(single_x_spec(0.8), biased_prior(), cfg, 500)
        blob = json.loads(json.dumps(out.to_json_dict(), sort_keys=True))
        assert blob["claim_id"] == "remark3"
        assert blob["reps"] == 500


class TestConsistency:
    def test_medians_shrink_with_cell_size(self):
        pts, w = af.normal_marginal_grid(0.0, 1.0)
        prior = af.GridPrior(points={"x0": af.diagonal_grid(pts, w)})
        spec = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): 0.3, ("x0", 1): 0.3}, noise_var=1.0)
        out = af.verify_consistency(spec, prior, balanced_config(10), 200,
                                    n_grid=[10, 100, 1000])
        assert out.per_inequality["truth_in_support"] == 1.0
        assert out.per_inequality["medians_weakly_decreasing"] == 1.0
        assert out.parameters["medians"][-1] < 0.05
        assert out.passed(1.0)

    def test_truth_outside_support_is_flagged(self):
        pts, w = af.normal_marginal_grid(10.0, 0.1)
        prior = af.GridPrior(points={"x0": af.diagonal_grid(pts, w)})
        spec = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): 0.3, ("x0", 1): 0.3}, noise_var=1.0)
        out = af.verify_consistency(spec, prior, balanced_config(10), 50, n_grid=[10, 50])
        assert out.per_inequality["truth_in_support"] == 0.0
        assert not out.passed(0.95)
        assert out.notes

    def test_truth_beyond_the_slack_resolution_is_a_precondition_error(self):
        # near 1e160 adjacent floats are ~1e144 apart, so no error is below the slack
        prior = af.GridPrior(points={"x0": af.diagonal_grid([0.0, 1.0], [0.5, 0.5])})
        spec = af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): 1e160, ("x0", 1): 1e160}, noise_var=1.0)
        with pytest.raises(af.PreconditionError, match="too large for consistency's slack"):
            af.verify_consistency(spec, prior, balanced_config(10), 20, n_grid=[10, 100])

    def test_conjugate_prior_is_a_precondition_error(self):
        with pytest.raises(af.PreconditionError, match="consistency needs a grid prior"):
            af.verify_consistency(single_x_spec(0.0), biased_prior(), balanced_config(10), 20,
                                  n_grid=[10, 100])


class TestDeterminism:
    def test_thm1_fraction_is_pinned(self):
        # golden value of the drawn stream, as in test_model's pinned cell means
        out = af.verify_disparity_reversal(single_x_spec(0.2), biased_prior(),
                                           balanced_config(2), 400)
        assert out.success_fraction == pytest.approx(0.8125, rel=1e-12)
        assert out.per_inequality["d_plus_lt_delta@x0"] == pytest.approx(0.8125, rel=1e-12)

    def test_verifier_reruns_identically(self):
        a = af.verify_disparity_reversal(single_x_spec(0.2), biased_prior(),
                                         balanced_config(20), 200)
        b = af.verify_disparity_reversal(single_x_spec(0.2), biased_prior(),
                                         balanced_config(20), 200)
        assert a.success_fraction == b.success_fraction
        assert a.per_inequality == b.per_inequality
