"""The priors' decision rules against independent numerical oracles.

The conjugate formulas are checked three ways: hand-worked instances,
brute-force numerical integration of the posterior (trapezoid rule over the
prior density, no code shared with the implementation), and the package's
own grid priors, which must agree with the closed forms to 1e-6.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import assistfair as af


def conjugate_prior(b0, b1, tau_sq=1.0, x="x0"):
    return af.ConjugateNormalPrior(beta={(x, 0): b0, (x, 1): b1}, tau_sq=tau_sq)


def integration_axis(center, sd, width=10.0, points=4001):
    return np.linspace(center - width * sd, center + width * sd, points)


def normal_pdf(z, mean, var):
    return np.exp(-0.5 * (z - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


def oracle_aware_mean(beta, tau_sq, signal, n_cell, sigma_sq):
    """Posterior mean by 1-D trapezoid integration, independent of the package."""
    mu = integration_axis(beta, math.sqrt(tau_sq))
    dens = normal_pdf(mu, beta, tau_sq) * normal_pdf(signal, mu, sigma_sq / n_cell)
    return np.trapezoid(mu * dens, mu) / np.trapezoid(dens, mu)


def oracle_blind_mean(b1, b0, tau_sq, signal, n1, n0, sigma_sq, g):
    """Posterior mean by 2-D trapezoid integration over both cell parameters."""
    n = n1 + n0
    mu1 = integration_axis(b1, math.sqrt(tau_sq), points=801)
    mu0 = integration_axis(b0, math.sqrt(tau_sq), points=801)
    M1, M0 = np.meshgrid(mu1, mu0, indexing="ij")
    dens = (normal_pdf(M1, b1, tau_sq) * normal_pdf(M0, b0, tau_sq)
            * normal_pdf(signal, (n1 * M1 + n0 * M0) / n, sigma_sq / n))
    target = M1 if g == 1 else M0
    num = np.trapezoid(np.trapezoid(target * dens, mu0, axis=1), mu1)
    den = np.trapezoid(np.trapezoid(dens, mu0, axis=1), mu1)
    return num / den


class TestUnassisted:
    def test_conjugate_returns_prior_mean(self):
        prior = conjugate_prior(-0.5, 0.5)
        assert prior.prior_mean("x0", 1) == 0.5
        assert prior.prior_mean("x0", 0) == -0.5

    def test_grid_returns_weighted_mean(self):
        prior = af.GridPrior(points={"x0": (np.asarray([1.0, 3.0]),
                                            np.asarray([0.0, -2.0]),
                                            np.asarray([0.25, 0.75]))})
        assert prior.prior_mean("x0", 1) == pytest.approx(2.5)
        assert prior.prior_mean("x0", 0) == pytest.approx(-1.5)


class TestAwareConjugate:
    def test_matches_precision_weighting(self):
        prior = conjugate_prior(-0.5, 0.5, tau_sq=2.0)
        got = prior.posterior_aware(1.2, 5, 0.7, "x0", 1)
        expected = (0.7 * 0.5 + 2.0 * 5 * 1.2) / (0.7 + 5 * 2.0)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_matches_numerical_integration(self):
        for beta, tau_sq, signal, n_cell, sigma_sq in (
            (0.5, 1.0, 1.0, 4, 1.0),
            (-1.0, 0.5, 2.0, 3, 2.0),
            (0.0, 4.0, -3.0, 10, 0.5),
        ):
            prior = conjugate_prior(0.0, beta, tau_sq=tau_sq)
            got = prior.posterior_aware(signal, n_cell, sigma_sq, "x0", 1)
            assert got == pytest.approx(
                oracle_aware_mean(beta, tau_sq, signal, n_cell, sigma_sq), abs=1e-7)

    def test_vectorized_signals(self):
        prior = conjugate_prior(-0.5, 0.5)
        signals = np.asarray([-1.0, 0.0, 2.0])
        got = prior.posterior_aware(signals, 4, 1.0, "x0", 0)
        singles = [prior.posterior_aware(s, 4, 1.0, "x0", 0) for s in signals]
        assert np.allclose(got, singles, rtol=0, atol=0)

    def test_result_is_shaped_like_the_signal(self):
        prior = conjugate_prior(-0.5, 0.5)
        grid = af.dense_grid_from_conjugate(prior, ["x0"], n_points=201)
        signals = np.asarray([[-1.0, 0.0], [2.0, 0.5]])
        for p in (prior, grid):
            for got in (p.posterior_aware(signals, 4, 1.0, "x0", 0),
                        p.posterior_blind(signals, (4, 2), 1.0, "x0", 0)):
                assert got.shape == signals.shape
            assert np.ndim(p.posterior_aware(0.5, 4, 1.0, "x0", 0)) == 0
            assert np.ndim(p.posterior_blind(0.5, (4, 2), 1.0, "x0", 0)) == 0

    def test_empty_cell_and_bad_noise(self):
        prior = conjugate_prior(-0.5, 0.5)
        with pytest.raises(af.EmptyCellError):
            prior.posterior_aware(1.0, 0, 1.0, "x0", 1)
        with pytest.raises(af.PreconditionError):
            prior.posterior_aware(1.0, 4, 0.0, "x0", 1)
        with pytest.raises(af.SignalSupportError):
            prior.posterior_aware(np.nan, 4, 1.0, "x0", 1)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(-5, 5), tau_sq=st.floats(0.05, 10),
           signal=st.floats(-10, 10), n_cell=st.integers(1, 500),
           sigma_sq=st.floats(0.05, 10))
    def test_posterior_mean_between_prior_and_signal(self, beta, tau_sq, signal,
                                                     n_cell, sigma_sq):
        prior = conjugate_prior(0.0, beta, tau_sq=tau_sq)
        got = prior.posterior_aware(signal, n_cell, sigma_sq, "x0", 1)
        lo, hi = min(beta, signal), max(beta, signal)
        assert lo - 1e-9 <= got <= hi + 1e-9


class TestBlindConjugate:
    def test_worked_balanced_instance(self):
        # beta = (+0.5 group 1, -0.5 group 0), 4+4 observations, signal 1.0:
        # shared shift 0.8, decisions (1.3, 0.3)
        prior = conjugate_prior(-0.5, 0.5)
        d1 = prior.posterior_blind(1.0, (4, 4), 1.0, "x0", 1)
        d0 = prior.posterior_blind(1.0, (4, 4), 1.0, "x0", 0)
        assert d1 == pytest.approx(1.3, rel=1e-12)
        assert d0 == pytest.approx(0.3, rel=1e-12)

    def test_worked_unbalanced_instance(self):
        # flat prior at 0, counts (n1=6, n0=2), signal 1.0: the majority group
        # absorbs the full signal, the minority one third of it
        prior = conjugate_prior(0.0, 0.0)
        d1 = prior.posterior_blind(1.0, (6, 2), 1.0, "x0", 1)
        d0 = prior.posterior_blind(1.0, (6, 2), 1.0, "x0", 0)
        assert d1 == pytest.approx(1.0, rel=1e-12)
        assert d0 == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_matches_numerical_integration(self):
        for b1, b0, tau_sq, signal, n1, n0, sigma_sq in (
            (0.5, -0.5, 1.0, 1.0, 4, 4, 1.0),
            (1.0, 0.0, 0.5, -0.5, 6, 2, 2.0),
            (-0.3, 0.7, 2.0, 1.5, 3, 9, 0.8),
        ):
            prior = conjugate_prior(b0, b1, tau_sq=tau_sq)
            for g in (0, 1):
                got = prior.posterior_blind(signal, (n1, n0), sigma_sq, "x0", g)
                want = oracle_blind_mean(b1, b0, tau_sq, signal, n1, n0, sigma_sq, g)
                assert got == pytest.approx(want, abs=2e-6)

    def test_balanced_reduction_updates_level_only(self):
        # With equal counts the posterior moves the shared level by
        # n*tau_sq/(n*tau_sq + 2*sigma_sq) of the pooled surprise and keeps
        # the prior gap.
        prior = conjugate_prior(-0.2, 0.8, tau_sq=1.5)
        sigma_sq, n = 0.9, 12
        signal = 2.0
        beta_bar = 0.3
        level = (n * 1.5 * signal + 2 * sigma_sq * beta_bar) / (n * 1.5 + 2 * sigma_sq)
        d1 = prior.posterior_blind(signal, (6, 6), sigma_sq, "x0", 1)
        d0 = prior.posterior_blind(signal, (6, 6), sigma_sq, "x0", 0)
        assert d1 == pytest.approx(level + 0.5, rel=1e-12)
        assert d0 == pytest.approx(level - 0.5, rel=1e-12)

    def test_no_observations(self):
        prior = conjugate_prior(0.0, 0.0)
        with pytest.raises(af.EmptyCellError):
            prior.posterior_blind(1.0, (0, 0), 1.0, "x0", 1)

    @settings(max_examples=60, deadline=None)
    @given(b0=st.floats(-3, 3), b1=st.floats(-3, 3), tau_sq=st.floats(0.1, 5),
           signal=st.floats(-8, 8), half=st.integers(1, 200),
           sigma_sq=st.floats(0.1, 5))
    def test_balanced_blind_disparity_is_prior_gap(self, b0, b1, tau_sq, signal,
                                                   half, sigma_sq):
        prior = conjugate_prior(b0, b1, tau_sq=tau_sq)
        d1 = prior.posterior_blind(signal, (half, half), sigma_sq, "x0", 1)
        d0 = prior.posterior_blind(signal, (half, half), sigma_sq, "x0", 0)
        assert d1 - d0 == pytest.approx(b1 - b0, abs=1e-9)


class TestGridPosteriors:
    def test_aware_grid_matches_direct_bayes(self):
        mu1 = np.asarray([-1.0, 0.0, 1.0, 2.0])
        mu0 = np.asarray([0.5, 0.5, -0.5, -0.5])
        w = np.asarray([0.1, 0.4, 0.3, 0.2])
        prior = af.GridPrior(points={"x0": (mu1, mu0, w)})
        signal, n_cell, sigma_sq = 0.7, 5, 1.3
        like = normal_pdf(mu1, signal, sigma_sq / n_cell)
        want = np.dot(mu1, w * like) / np.dot(w, like)
        got = prior.posterior_aware(signal, n_cell, sigma_sq, "x0", 1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_blind_grid_matches_direct_bayes(self):
        mu1 = np.asarray([-1.0, 0.0, 1.0, 2.0])
        mu0 = np.asarray([0.5, 0.5, -0.5, -0.5])
        w = np.asarray([0.1, 0.4, 0.3, 0.2])
        prior = af.GridPrior(points={"x0": (mu1, mu0, w)})
        signal, n1, n0, sigma_sq = 0.7, 6, 2, 1.3
        centers = (n1 * mu1 + n0 * mu0) / (n1 + n0)
        like = normal_pdf(centers, signal, sigma_sq / (n1 + n0))
        for g, target in ((1, mu1), (0, mu0)):
            want = np.dot(target, w * like) / np.dot(w, like)
            got = prior.posterior_blind(signal, (n1, n0), sigma_sq, "x0", g)
            assert got == pytest.approx(want, rel=1e-12)

    def test_dense_grid_matches_conjugate_closed_forms(self):
        rng_local = np.random.default_rng(7)
        for _ in range(8):
            b0, b1 = rng_local.uniform(-2, 2, size=2)
            tau_sq = rng_local.uniform(0.3, 3.0)
            sigma_sq = rng_local.uniform(0.3, 3.0)
            n1, n0 = int(rng_local.integers(1, 40)), int(rng_local.integers(1, 40))
            signal = rng_local.uniform(-3, 3)
            prior = conjugate_prior(b0, b1, tau_sq=tau_sq)
            grid = af.dense_grid_from_conjugate(prior, ["x0"])
            for g in (0, 1):
                aware_cf = prior.posterior_aware(signal, n1 if g else n0, sigma_sq, "x0", g)
                aware_gr = grid.posterior_aware(signal, n1 if g else n0, sigma_sq, "x0", g)
                assert abs(aware_cf - aware_gr) < 1e-6
                blind_cf = prior.posterior_blind(signal, (n1, n0), sigma_sq, "x0", g)
                blind_gr = grid.posterior_blind(signal, (n1, n0), sigma_sq, "x0", g)
                assert abs(blind_cf - blind_gr) < 1e-6

    def test_sharp_likelihood_stays_stable(self):
        pts, w = af.normal_marginal_grid(0.0, 1.0)
        prior = af.GridPrior(points={"x0": af.diagonal_grid(pts, w)})
        got = prior.posterior_aware(0.25, 10**6, 1.0, "x0", 1)
        assert got == pytest.approx(0.25, abs=1e-2)

    def test_signal_outside_support(self):
        prior = af.GridPrior(points={"x0": (np.asarray([0.0]), np.asarray([0.0]),
                                            np.asarray([1.0]))})
        with pytest.raises(af.SignalSupportError, match="signal outside prior support"):
            prior.posterior_aware(1e300, 4, 1.0, "x0", 1)


class TestDeltaDisparate:
    def test_balanced_conjugate_infimum_is_prior_gap(self):
        infimum = conjugate_prior(-0.5, 0.5).disparity_infimum((4, 4), "x0")
        assert infimum == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_conjugate_is_unbounded(self):
        assert conjugate_prior(-0.5, 0.5).disparity_infimum((6, 2), "x0") == -math.inf

    def test_gap_grid_certifies_for_any_weights(self):
        pts, w = af.normal_marginal_grid(0.0, 1.0, n_points=501)
        delta = 0.8
        prior = af.GridPrior(points={"x0": (pts + delta / 2, pts - delta / 2, w)})
        for counts in ((4, 4), (6, 2), (1, 9)):
            assert prior.disparity_infimum(counts, "x0") == pytest.approx(delta, abs=1e-9)

    def test_shared_mean_grid_has_zero_gap(self):
        pts, w = af.normal_marginal_grid(0.0, 1.0, n_points=501)
        prior = af.GridPrior(points={"x0": af.diagonal_grid(pts, w)})
        assert prior.disparity_infimum((4, 4), "x0") == pytest.approx(0.0, abs=1e-12)


class TestRealizeRules:
    """The engine's realization of the decision rules from fixed cell means."""

    SPEC = af.ProblemSpec(
        covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
        true_means={("x0", 0): -0.1, ("x0", 1): 0.1}, noise_var=1.0)
    CELL_MEANS = {("x0", 0): np.asarray([-0.4, 0.1, 0.9]),
                  ("x0", 1): np.asarray([0.3, -0.2, 1.1])}

    def realize(self, prior, n1, n0, kinds=tuple(af.RuleKind)):
        config = af.TrainingConfig(counts={("x0", 0): n0, ("x0", 1): n1}, seed=31)
        return af.rule_values_from_cell_means(self.SPEC, prior, config,
                                              self.CELL_MEANS, kinds)

    def test_consistent_with_direct_decisions(self):
        prior = conjugate_prior(-0.5, 0.5)
        rules = self.realize(prior, 5, 3)
        assert set(rules) == set(af.RuleKind)
        f_minus = rules[af.RuleKind.F_MINUS]
        assert np.array_equal(f_minus[("x0", 0)], f_minus[("x0", 1)])
        for g in (0, 1):
            assert np.all(rules[af.RuleKind.D0][("x0", g)] == prior.beta[("x0", g)])
            assert np.array_equal(rules[af.RuleKind.F_PLUS][("x0", g)],
                                  self.CELL_MEANS[("x0", g)])
            n_cell = 5 if g else 3
            for i, signal in enumerate(self.CELL_MEANS[("x0", g)]):
                assert rules[af.RuleKind.D_PLUS][("x0", g)][i] == (
                    prior.posterior_aware(signal, n_cell, 1.0, "x0", g))
            for i, signal in enumerate(f_minus[("x0", g)]):
                assert rules[af.RuleKind.D_MINUS][("x0", g)][i] == (
                    prior.posterior_blind(signal, (5, 3), 1.0, "x0", g))

    def test_grid_prior_path(self):
        conj = conjugate_prior(-0.5, 0.5)
        grid = af.dense_grid_from_conjugate(conj, ["x0"])
        kinds = (af.RuleKind.D_MINUS, af.RuleKind.D_PLUS)
        for n1, n0 in ((4, 4), (5, 3)):
            via_grid = self.realize(grid, n1, n0, kinds)
            via_conj = self.realize(conj, n1, n0, kinds)
            for kind in kinds:
                for cell in self.SPEC.cells():
                    gap = np.abs(via_grid[kind][cell] - via_conj[kind][cell])
                    assert gap.max() < 1e-6
