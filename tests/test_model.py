"""Problem primitives: validation, sampling, documents, grids."""

import math

import numpy as np
import pytest

import assistfair as af
from assistfair import rng


def example_spec(mu0=0.0, mu1=0.0, noise_var=1.0):
    return af.ProblemSpec(
        covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
        true_means={("x0", 0): mu0, ("x0", 1): mu1}, noise_var=noise_var,
    )


def example_prior(b0=-0.5, b1=0.5, tau_sq=1.0):
    return af.ConjugateNormalPrior(beta={("x0", 0): b0, ("x0", 1): b1}, tau_sq=tau_sq)


def two_x_spec():
    return af.ProblemSpec(
        covariates=("a", "b"), covariate_probs={"a": 0.25, "b": 0.75},
        group_probs={"a": 0.5, "b": 0.3},
        true_means={("a", 0): 0.0, ("a", 1): 1.0, ("b", 0): -1.0, ("b", 1): 2.0},
        noise_var=2.0,
    )


class TestSpecValidation:
    def test_valid_spec_passes(self):
        af.validate_spec(two_x_spec())

    def test_nonpositive_noise_var(self):
        with pytest.raises(af.SpecValidationError, match="noise_var must be positive"):
            af.validate_spec(example_spec(noise_var=0.0))

    def test_covariate_probs_must_sum_to_one(self):
        spec = af.ProblemSpec(
            covariates=("a", "b"), covariate_probs={"a": 0.5, "b": 0.6},
            group_probs={"a": 0.5, "b": 0.5},
            true_means={("a", 0): 0.0, ("a", 1): 0.0, ("b", 0): 0.0, ("b", 1): 0.0},
            noise_var=1.0,
        )
        with pytest.raises(af.SpecValidationError, match="covariate_probs"):
            af.validate_spec(spec)

    def test_group_prob_outside_unit_interval(self):
        spec = af.ProblemSpec(
            covariates=("a",), covariate_probs={"a": 1.0}, group_probs={"a": 1.5},
            true_means={("a", 0): 0.0, ("a", 1): 0.0}, noise_var=1.0,
        )
        with pytest.raises(af.SpecValidationError, match="group_probs"):
            af.validate_spec(spec)

    def test_missing_cell_mean(self):
        spec = af.ProblemSpec(
            covariates=("a",), covariate_probs={"a": 1.0}, group_probs={"a": 0.5},
            true_means={("a", 0): 0.0}, noise_var=1.0,
        )
        with pytest.raises(af.SpecValidationError, match="missing true mean"):
            af.validate_spec(spec)

    def test_config_seed_range(self):
        spec = example_spec()
        cfg = af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): 2}, seed=-1)
        with pytest.raises(af.SpecValidationError, match="seed"):
            af.validate_config(cfg, spec)


class TestSpecAccessors:
    def test_cells_are_x_major(self):
        spec = two_x_spec()
        assert spec.cells() == (("a", 0), ("a", 1), ("b", 0), ("b", 1))
        assert spec.cell_index("a", 0) == 0
        assert spec.cell_index("b", 1) == 3

    def test_delta_mu(self):
        assert two_x_spec().delta_mu("b") == pytest.approx(3.0)

    def test_group_prob_complement(self):
        spec = two_x_spec()
        assert spec.p_group("b", 1) == pytest.approx(0.3)
        assert spec.p_group("b", 0) == pytest.approx(0.7)


class TestTraining:
    """The cell-mean contract stated in the simulate module's docstring."""

    COUNTS = {("a", 0): 3, ("a", 1): 2, ("b", 0): 4, ("b", 1): 1}

    def test_cell_means_reproducible(self):
        spec = two_x_spec()
        cfg = af.TrainingConfig(counts=self.COUNTS, seed=99)
        one = af.replicate_cell_means(spec, cfg, 700)
        two = af.replicate_cell_means(spec, cfg, 700)
        assert set(one) == set(self.COUNTS)
        for cell in self.COUNTS:
            assert one[cell].tobytes() == two[cell].tobytes()

    def test_cell_means_use_per_cell_streams(self):
        spec = two_x_spec()
        cfg = af.TrainingConfig(counts=self.COUNTS, seed=4)
        reps = (1 << 16) + 64  # replications run in chunks of 2**16 at these counts
        means = af.replicate_cell_means(spec, cfg, reps)
        sd = math.sqrt(spec.noise_var)
        for r in (0, 1, (1 << 16) - 1, 1 << 16, reps - 1):
            seed = rng.replication_seed(4, r)
            for (x, g), n in self.COUNTS.items():
                key = rng.derive_key(seed, rng.STREAM_TRAINING, spec.cell_index(x, g))
                labels = rng.normal_stream(key, n, mean=spec.mu(x, g), sd=sd)
                assert abs(means[(x, g)][r] - labels.mean()) <= 1e-12

    def test_cell_mean_distribution(self):
        spec = example_spec(mu0=-1.0, mu1=2.0)
        cfg = af.TrainingConfig(counts={("x0", 0): 40, ("x0", 1): 40}, seed=8)
        reps = 4000
        means = af.replicate_cell_means(spec, cfg, reps)
        se = 1.0 / math.sqrt(40 * reps)
        assert abs(means[("x0", 0)].mean() - (-1.0)) < 4 * se
        assert abs(means[("x0", 1)].mean() - 2.0) < 4 * se
        assert means[("x0", 1)].var(ddof=1) == pytest.approx(1.0 / 40, rel=0.1)


class TestExampleParams:
    def test_derives_canonical_values(self):
        spec = example_spec()
        cfg = af.TrainingConfig(counts={("x0", 0): 4, ("x0", 1): 4}, seed=0)
        params = af.derive_example_params(spec, example_prior(), cfg)
        assert params.delta == pytest.approx(1.0)
        assert params.delta_mu == pytest.approx(0.0)
        assert params.beta_bar == pytest.approx(0.0)
        assert params.mu_bar == pytest.approx(0.0)
        assert params.n == 8

    def test_rejects_unbalanced(self):
        spec = example_spec()
        cfg = af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): 6}, seed=0)
        with pytest.raises(af.SpecValidationError, match="balanced"):
            af.derive_example_params(spec, example_prior(), cfg)

    def test_rejects_multiple_covariates(self):
        spec = two_x_spec()
        prior = af.ConjugateNormalPrior(
            beta={(x, g): 0.0 for x in ("a", "b") for g in (0, 1)}, tau_sq=1.0)
        cfg = af.TrainingConfig(counts={(x, g): 2 for x in ("a", "b") for g in (0, 1)},
                                seed=0)
        with pytest.raises(af.SpecValidationError, match="single covariate"):
            af.derive_example_params(spec, prior, cfg)


class TestDecisionRule:
    def test_rule_kind_from_name(self):
        assert af.RuleKind.from_name("d_plus") is af.RuleKind.D_PLUS
        with pytest.raises(af.SpecValidationError):
            af.RuleKind.from_name("nope")


class TestGrids:
    def test_normal_marginal_grid_normalized_and_symmetric(self):
        pts, w = af.normal_marginal_grid(1.5, 2.0)
        assert len(pts) == 2001
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert pts[0] == pytest.approx(1.5 - 16.0)
        assert pts[-1] == pytest.approx(1.5 + 16.0)
        assert np.allclose(w, w[::-1], rtol=0, atol=1e-15)
        assert np.dot(pts, w) == pytest.approx(1.5, abs=1e-9)

    def test_product_grid_shapes(self):
        mu1, mu0, w = af.product_grid([0.0, 1.0], [0.5, 0.5], [2.0, 3.0, 4.0],
                                      [0.2, 0.3, 0.5])
        assert len(mu1) == len(mu0) == len(w) == 6
        assert w.sum() == pytest.approx(1.0)
        assert (mu1[0], mu0[0]) == (0.0, 2.0)
        assert (mu1[-1], mu0[-1]) == (1.0, 4.0)

    def test_diagonal_grid_shares_mean(self):
        mu1, mu0, w = af.diagonal_grid([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        assert np.array_equal(mu1, mu0)
        assert w.sum() == pytest.approx(1.0)

    def test_dense_grid_centers_on_prior(self):
        prior = example_prior()
        grid = af.dense_grid_from_conjugate(prior, ["x0"])
        mu1, mu0, w = grid.points["x0"]
        assert abs(np.dot(mu1, w) - 0.5) < 1e-9
        assert abs(np.dot(mu0, w) - (-0.5)) < 1e-9

    def test_grid_prior_validation(self):
        with pytest.raises(af.SpecValidationError):
            af.GridPrior(points={"a": (np.asarray([0.0]), np.asarray([0.0, 1.0]),
                                       np.asarray([1.0]))})
        with pytest.raises(af.SpecValidationError):
            af.GridPrior(points={"a": (np.asarray([0.0]), np.asarray([0.0]),
                                       np.asarray([-1.0]))})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_grid_prior_rejects_non_finite_weights(self, bad):
        with pytest.raises(af.SpecValidationError, match="finite"):
            af.GridPrior(points={"x0": ([0.0, 1.0], [0.0, 1.0], [bad, 1.0])})


class TestDocuments:
    def test_spec_round_trip(self):
        spec = two_x_spec()
        assert af.document_to_spec(af.spec_to_document(spec)) == spec

    def test_config_round_trip(self):
        spec = two_x_spec()
        cfg = af.TrainingConfig(
            counts={("a", 0): 2, ("a", 1): 6, ("b", 0): 1, ("b", 1): 3}, seed=17)
        doc = af.config_to_document(cfg, spec)
        assert af.document_to_config(doc, spec) == cfg

    def test_conjugate_prior_round_trip(self):
        spec = example_spec()
        prior = example_prior(b0=-0.25, b1=0.75, tau_sq=2.0)
        doc = af.prior_to_document(prior, spec)
        assert doc["kind"] == "conjugate_normal"
        assert af.document_to_prior(doc, spec) == prior

    def test_grid_prior_round_trip(self):
        spec = example_spec()
        prior = af.GridPrior(points={"x0": (np.asarray([0.0, 1.0]),
                                            np.asarray([0.5, -0.5]),
                                            np.asarray([0.25, 0.75]))})
        back = af.document_to_prior(af.prior_to_document(prior, spec), spec)
        assert isinstance(back, af.GridPrior)
        mu1, mu0, w = back.points["x0"]
        b_mu1, b_mu0, b_w = prior.points["x0"]
        assert np.array_equal(mu1, b_mu1)
        assert np.array_equal(mu0, b_mu0)
        assert np.array_equal(w, b_w)

    def test_unknown_prior_kind(self):
        with pytest.raises(af.SpecValidationError, match="prior kind"):
            af.document_to_prior({"kind": "cauchy"}, example_spec())
