"""The priors' decision rules against independent numerical oracles.

The conjugate formulas are checked three ways: hand-worked instances,
brute-force numerical integration of the posterior (trapezoid rule over the
prior density, no code shared with the implementation), and the package's
own grid priors, which must agree with the closed forms to 1e-6.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import assistfair as af
from assistfair import model, simulate


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

    def test_grid_prior_mean_is_the_weighted_dot_computed_once(self, monkeypatch):
        # numpy's own pairwise sum, not np.dot: a BLAS dot splits long sums
        # across threads, so its bits depend on the thread count
        points = lattice_grid(41, 37, 0.3, -0.2, 1.1)
        signals = np.linspace(-3.0, 3.0, 11)
        first, later = af.GridPrior(points={"x0": points}), af.GridPrior(points={"x0": points})
        mu1, mu0, w = first.points["x0"]
        want = {g: float(np.add.reduce(w * (mu1 if g else mu0))).hex() for g in (0, 1)}
        for g in (0, 1):
            assert first.prior_mean("x0", g).hex() == want[g]
        for prior in (first, later):
            for g in (0, 1):
                prior.posterior_aware(signals, 3, 1.0, "x0", g)
            prior.posterior_blind(signals, (5, 3), 1.0, "x0")
            prior.disparity_infimum((5, 3), "x0")
        for g in (0, 1):
            assert later.prior_mean("x0", g).hex() == want[g]

        def recomputed(*args):
            raise AssertionError("prior_mean read the support again")

        monkeypatch.setattr(af.GridPrior, "support", recomputed)
        monkeypatch.setattr(af.GridPrior, "weights", recomputed)
        for prior in (first, later):
            for g in (0, 1):
                assert prior.prior_mean("x0", g).hex() == want[g]


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
                        p.posterior_blind(signals, (4, 2), 1.0, "x0")[0]):
                assert got.shape == signals.shape
            assert np.ndim(p.posterior_aware(0.5, 4, 1.0, "x0", 0)) == 0
            assert np.ndim(p.posterior_blind(0.5, (4, 2), 1.0, "x0")[0]) == 0

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
        d1 = prior.posterior_blind(1.0, (4, 4), 1.0, "x0")[1]
        d0 = prior.posterior_blind(1.0, (4, 4), 1.0, "x0")[0]
        assert d1 == pytest.approx(1.3, rel=1e-12)
        assert d0 == pytest.approx(0.3, rel=1e-12)

    def test_worked_unbalanced_instance(self):
        # flat prior at 0, counts (n1=6, n0=2), signal 1.0: the majority group
        # absorbs the full signal, the minority one third of it
        prior = conjugate_prior(0.0, 0.0)
        d1 = prior.posterior_blind(1.0, (6, 2), 1.0, "x0")[1]
        d0 = prior.posterior_blind(1.0, (6, 2), 1.0, "x0")[0]
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
                got = prior.posterior_blind(signal, (n1, n0), sigma_sq, "x0")[g]
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
        d1 = prior.posterior_blind(signal, (6, 6), sigma_sq, "x0")[1]
        d0 = prior.posterior_blind(signal, (6, 6), sigma_sq, "x0")[0]
        assert d1 == pytest.approx(level + 0.5, rel=1e-12)
        assert d0 == pytest.approx(level - 0.5, rel=1e-12)

    def test_no_observations(self):
        prior = conjugate_prior(0.0, 0.0)
        with pytest.raises(af.EmptyCellError):
            prior.posterior_blind(1.0, (0, 0), 1.0, "x0")

    @settings(max_examples=60, deadline=None)
    @given(b0=st.floats(-3, 3), b1=st.floats(-3, 3), tau_sq=st.floats(0.1, 5),
           signal=st.floats(-8, 8), half=st.integers(1, 200),
           sigma_sq=st.floats(0.1, 5))
    def test_balanced_blind_disparity_is_prior_gap(self, b0, b1, tau_sq, signal,
                                                   half, sigma_sq):
        prior = conjugate_prior(b0, b1, tau_sq=tau_sq)
        d1 = prior.posterior_blind(signal, (half, half), sigma_sq, "x0")[1]
        d0 = prior.posterior_blind(signal, (half, half), sigma_sq, "x0")[0]
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
            got = prior.posterior_blind(signal, (n1, n0), sigma_sq, "x0")[g]
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
                blind_cf = prior.posterior_blind(signal, (n1, n0), sigma_sq, "x0")[g]
                blind_gr = grid.posterior_blind(signal, (n1, n0), sigma_sq, "x0")[g]
                assert abs(blind_cf - blind_gr) < 1e-6

    def test_sharp_likelihood_stays_stable(self):
        pts, w = af.normal_marginal_grid(0.0, 1.0)
        prior = af.GridPrior(points={"x0": af.diagonal_grid(pts, w)})
        got = prior.posterior_aware(0.25, 10**6, 1.0, "x0", 1)
        assert got == pytest.approx(0.25, abs=1e-2)

    def test_signal_outside_support(self):
        # far from the support the posterior is the nearest centre's mean,
        # with no float warning on the way
        two = af.GridPrior(points={"x0": (np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]),
                                          np.asarray([0.5, 0.5]))})
        one = af.GridPrior(points={"x0": (np.asarray([0.0]), np.asarray([0.0]),
                                          np.asarray([1.0]))})
        apart = af.GridPrior(points={"x0": (np.asarray([0.0, 1e300]),
                                            np.asarray([0.0, 1e300]),
                                            np.asarray([0.5, 0.5]))})
        far = np.asarray([1e160, -1e160, 1e300, -1e300, 1.7e308, -1.7e308])
        nearest = np.where(far > 0, 1.0, 0.0)
        between = np.asarray([-1.0, 1.0, 0.9e300, 1.1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(apart.posterior_aware(between, 4, 1.0, "x0", 1),
                                  [0.0, 0.0, 1e300, 1e300])
            for g in (0, 1):
                assert np.array_equal(two.posterior_aware(far, 4, 1.0, "x0", g), nearest)
                assert np.array_equal(two.posterior_blind(far, (3, 5), 1.0, "x0")[g], nearest)
                assert np.array_equal(one.posterior_aware(far, 4, 1.0, "x0", g), 0.0 * far)
                assert np.array_equal(one.posterior_blind(far, (3, 5), 1.0, "x0")[g],
                                      0.0 * far)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(af.SignalSupportError, match="signal outside prior support"):
                two.posterior_aware(bad, 4, 1.0, "x0", 1)
            with pytest.raises(af.SignalSupportError, match="signal outside prior support"):
                two.posterior_blind([0.5, bad], (3, 5), 1.0, "x0")[0]

    def test_underflowing_terms_skip_exp_exactly(self, monkeypatch):
        # at n = 10**4 most of a 2,001-point grid lies hundreds of log-units
        # below each signal's peak; setting those weights to +0.0 without exp
        # must give the bits exp gives. A 1e300 target in the tails makes a
        # subnormal weight show in the mean, as the outside-support test does.
        pts, w = af.normal_marginal_grid(0.0, 1.0)
        sharp = af.GridPrior(points={"x0": af.diagonal_grid(pts, w)})._grouped(
            "x0", ("aware", 1))
        signals, var = np.linspace(-4.0, 4.0, 200), 1.0 / 10**4
        spread = (signals[:, None] - sharp.centres) ** 2 / (2 * var)
        assert np.mean(spread > 800 + np.ptp(sharp.log_weight)) > 0.5
        tails = np.where(np.abs(sharp.centres) > 1.0, 1e300, 0.0)
        apart = af.GridPrior(points={"x0": (np.asarray([0.0, 1e300]), np.asarray([0.0, 1e300]),
                                            np.asarray([0.5, 0.5]))})._grouped("x0", ("aware", 1))
        # centres 0 and 1: a signal 0.5 - e*v puts the far centre e log-units down
        edge = af.GridPrior(points={"x0": ([0.0, 1.0], [0.0, 1.0], [0.5, 0.5])})._grouped(
            "x0", ("aware", 1))
        below = np.asarray([700.0, 720.0, 745.0, 745.1, 745.2, 746.0, 800.0])
        cases = ((sharp, (sharp.centres, tails), signals, var),
                 (apart, (apart.centres,), np.asarray([-1.0, 1.0, 0.9e300, 1.1e300]), 0.25),
                 (edge, (np.asarray([0.0, 1e300]),), 0.5 - below / 1490.0, 1 / 1490.0))
        got = [model._posterior_mean(*case) for case in cases]
        monkeypatch.setattr(model, "_EXP_ZERO_BELOW", -math.inf)  # plain exp on every term
        for case, means in zip(cases, got):
            for want, value in zip(model._posterior_mean(*case), means, strict=True):
                assert want.tobytes() == value.tobytes()

def old_infimum_scan(mu1, mu0, weights, counts):
    """The point-by-point scan ``disparity_infimum`` ran before grouping."""
    n1, n0 = counts
    w1, w0 = n1 / (n1 + n0), n0 / (n1 + n0)
    keep = weights > 0
    mu1, mu0, weights = mu1[keep], mu0[keep], weights[keep]
    mbar = w1 * mu1 + w0 * mu0
    order = np.argsort(mbar, kind="stable")
    mbar, gaps, weights = mbar[order], (mu1 - mu0)[order], weights[order]
    span = float(mbar[-1] - mbar[0]) if mbar.size > 1 else 0.0
    atol = 1e-9 * max(1.0, span)
    infimum = math.inf
    start = 0
    for stop in range(1, mbar.size + 1):
        if stop < mbar.size and mbar[stop] - mbar[start] <= atol:
            continue
        w = weights[start:stop]
        infimum = min(infimum, float(np.dot(w, gaps[start:stop]) / w.sum()))
        start = stop
    return infimum


def lattice_grid(k1, k0, centre1, centre0, sd):
    """A k1 x k0 product grid of a Normal prior: exact ties in many centres."""
    p1, w1 = af.normal_marginal_grid(centre1, sd, 3.0, k1) if k1 > 1 else ([centre1], [1.0])
    p0, w0 = af.normal_marginal_grid(centre0, sd, 3.0, k0) if k0 > 1 else ([centre0], [1.0])
    return af.product_grid(p1, w1, p0, w0)


def decisions(points, signals, counts, sigma_sq):
    """Every grid decision at ``signals``: both posteriors for both groups and
    the disparity infimum."""
    prior = af.GridPrior(points={"x0": points})
    out = [prior.disparity_infimum(counts, "x0")]
    for g in (0, 1):
        out.append(prior.posterior_aware(signals, counts[1 - g], sigma_sq, "x0", g))
        out.append(prior.posterior_blind(signals, counts, sigma_sq, "x0")[g])
    return out


class TestGridRepresentation:
    """Grouping by signal centre must not depend on how the support is written."""

    @settings(max_examples=25, deadline=None)
    @given(k1=st.integers(1, 121), k0=st.integers(1, 121),
           centre1=st.floats(-3, 3), centre0=st.floats(-3, 3), sd=st.floats(0.1, 3),
           n1=st.integers(1, 9), n0=st.integers(1, 9), sigma_sq=st.floats(0.1, 4),
           split=st.integers(0, 121 * 121 - 1), seed=st.integers(0, 2 ** 32 - 1),
           extra=st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
    def test_split_permuted_and_zero_weight_points_change_nothing(
            self, k1, k0, centre1, centre0, sd, n1, n0, sigma_sq, split, seed, extra):
        mu1, mu0, w = lattice_grid(k1, k0, centre1, centre0, sd)
        signals = np.concatenate([np.linspace(-12.0, 12.0, 7), [1e3, -1e3]])
        scale = max(1.0, float(np.abs(mu1).max()), float(np.abs(mu0).max()))
        want = decisions((mu1, mu0, w), signals, (n1, n0), sigma_sq)

        i = split % w.size
        halved = w.copy()
        halved[i] /= 2
        order = np.random.default_rng(seed).permutation(w.size)
        variants = {
            "split": (np.append(mu1, mu1[i]), np.append(mu0, mu0[i]),
                      np.append(halved, halved[i])),
            "permuted": (mu1[order], mu0[order], w[order]),
            "zero-weight": (np.append(mu1, extra[0]), np.append(mu0, extra[1]),
                            np.append(w, 0.0)),
        }
        for name, points in variants.items():
            got = decisions(points, signals, (n1, n0), sigma_sq)
            for a, b in zip(got, want):
                assert np.max(np.abs(np.asarray(a) - b)) <= 1e-12 * scale, name

    def test_posterior_does_not_depend_on_call_history(self):
        points = lattice_grid(41, 37, 0.3, -0.2, 1.1)
        signals = np.linspace(-3.0, 3.0, 11)
        fresh = af.GridPrior(points={"x0": points})
        used = af.GridPrior(points={"x0": points})
        for g in (0, 1):
            used.posterior_aware(signals, 3, 1.0, "x0", g)
        used.posterior_blind(signals, (4, 4), 1.0, "x0")
        used.disparity_infimum((2, 7), "x0")
        for g in (0, 1):
            assert np.array_equal(fresh.posterior_blind(signals, (5, 3), 1.0, "x0")[g],
                                  used.posterior_blind(signals, (5, 3), 1.0, "x0")[g])
            assert np.array_equal(fresh.posterior_aware(signals, 2, 1.0, "x0", g),
                                  used.posterior_aware(signals, 2, 1.0, "x0", g))

    def test_product_grid_collapses_to_one_aware_centre_per_value(self):
        k = 31
        prior = af.GridPrior(points={"x0": lattice_grid(k, k, 0.5, -0.5, 1.0)})
        for g in (0, 1):
            assert prior._grouped("x0", ("aware", g)).centres.size == k

    @pytest.mark.parametrize("k", [101, 121])
    @pytest.mark.parametrize("counts", [(5, 3), (37, 11)])
    def test_blind_groups_are_the_lattice(self, k, counts):
        # on a k x k grid with one step h, the blind centre of point (i, j) is
        # (n1*i + n0*j) * h / (n1 + n0) plus a constant: one group per distinct
        # integer n1*i + n0*j, however float rounding splits their ties
        n1, n0 = counts
        lattice = {n1 * i + n0 * j for i in range(k) for j in range(k)}
        prior = af.GridPrior(points={"x0": lattice_grid(k, k, 0.5, -0.5, 1.0)})
        assert prior._grouped("x0", counts).centres.size == len(lattice)


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

    def test_grouped_infimum_matches_point_scan(self):
        prior = af.dense_grid_from_conjugate(conjugate_prior(-0.3, 0.6, tau_sq=0.8), ["x0"],
                                             n_points=121)
        mu1, mu0, w = prior.points["x0"]
        for counts in ((4, 4), (5, 3), (1, 9), (7, 0)):
            want = old_infimum_scan(mu1, mu0, w, counts)
            assert prior.disparity_infimum(counts, "x0") == pytest.approx(want, abs=1e-12)


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
                    prior.posterior_blind(signal, (5, 3), 1.0, "x0")[g])

    def test_one_likelihood_serves_both_blind_decisions(self, monkeypatch):
        spec = af.ProblemSpec(
            covariates=("x0", "x1"), covariate_probs={"x0": 0.4, "x1": 0.6},
            group_probs={"x0": 0.5, "x1": 0.3},
            true_means={("x0", 0): -0.1, ("x0", 1): 0.1, ("x1", 0): 0.2, ("x1", 1): 0.5},
            noise_var=1.0)
        prior = af.GridPrior(points={"x0": lattice_grid(41, 37, 0.3, -0.2, 1.1),
                                     "x1": lattice_grid(31, 33, 0.1, 0.4, 0.8)})
        config = af.TrainingConfig(counts={("x0", 0): 3, ("x0", 1): 5, ("x1", 0): 7,
                                           ("x1", 1): 2}, seed=31)
        cell_means = {cell: mean + np.linspace(-1.0, 1.0, 9)
                      for cell, mean in spec.true_means.items()}
        calls = []
        shared = model._posterior_mean

        def counted(*args):
            calls.append(args)
            return shared(*args)

        monkeypatch.setattr(model, "_posterior_mean", counted)
        values = af.rule_values_from_cell_means(spec, prior, config, cell_means,
                                                [af.RuleKind.D_MINUS])
        assert len(calls) == 2
        for x in spec.covariates:
            counts = (config.count(x, 1), config.count(x, 0))
            groups = prior._grouped(x, counts)
            pooled = simulate.pooled_mean(config, cell_means, x, 9)
            for g in (0, 1):
                alone = shared(groups, (groups.means[g],), pooled, 1.0 / sum(counts))[0]
                assert values[af.RuleKind.D_MINUS][(x, g)].tobytes() == alone.tobytes()

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
