"""Problem primitives: validation, sampling, documents, grids."""

import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import ks_2samp

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
        assert two_x_spec().covariates == ("a", "b")

    def test_nonpositive_noise_var(self):
        with pytest.raises(af.SpecValidationError, match="noise_var must be positive"):
            example_spec(noise_var=0.0)

    def test_covariate_probs_must_sum_to_one(self):
        with pytest.raises(af.SpecValidationError, match="covariate_probs"):
            af.ProblemSpec(
                covariates=("a", "b"), covariate_probs={"a": 0.5, "b": 0.6},
                group_probs={"a": 0.5, "b": 0.5},
                true_means={("a", 0): 0.0, ("a", 1): 0.0, ("b", 0): 0.0, ("b", 1): 0.0},
                noise_var=1.0,
            )

    def test_group_prob_outside_unit_interval(self):
        with pytest.raises(af.SpecValidationError, match="group_probs"):
            af.ProblemSpec(
                covariates=("a",), covariate_probs={"a": 1.0}, group_probs={"a": 1.5},
                true_means={("a", 0): 0.0, ("a", 1): 0.0}, noise_var=1.0,
            )

    def test_missing_cell_mean(self):
        with pytest.raises(af.SpecValidationError, match="missing true mean"):
            af.ProblemSpec(
                covariates=("a",), covariate_probs={"a": 1.0}, group_probs={"a": 0.5},
                true_means={("a", 0): 0.0}, noise_var=1.0,
            )

    def test_config_seed_range(self):
        with pytest.raises(af.SpecValidationError, match="seed"):
            af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): 2}, seed=-1)

    @pytest.mark.parametrize("count", [-1, 2.0], ids=["negative", "float"])
    def test_config_count_must_be_a_non_negative_int(self, count):
        with pytest.raises(af.SpecValidationError,
                           match=r"count for cell \('x0', 1\) must be a non-negative integer"):
            af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): count}, seed=0)

    def test_count_for_unknown_cell_raises_from_the_engine(self):
        cfg = af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): 2, ("x9", 0): 1}, seed=0)
        with pytest.raises(af.SpecValidationError,
                           match=r"counts given for unknown cell \('x9', 0\)"):
            af.replicate_cell_means(example_spec(), cfg, 10)


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

    def test_cell_means_are_one_normal_draw_per_cell(self):
        spec = two_x_spec()
        cfg = af.TrainingConfig(counts=self.COUNTS, seed=4)
        reps = (1 << 16) + 64
        means = af.replicate_cell_means(spec, cfg, reps)
        for r in (0, 1, (1 << 16) - 1, 1 << 16, reps - 1):
            seed = rng.replication_seed(4, r)
            for (x, g), n in self.COUNTS.items():
                key = rng.derive_key(seed, rng.STREAM_TRAINING, spec.cell_index(x, g))
                u0 = rng.uniform_block(key, 1)[0, 0]
                expected = spec.mu(x, g) + math.sqrt(spec.noise_var / n) * ndtri(u0)
                assert abs(means[(x, g)][r] - expected) <= 1e-12

    def test_first_cell_means_are_pinned(self):
        # golden values of the drawn stream: a change to rng or to the cell
        # keys fails here, not only in a README note
        spec = example_spec(mu0=-0.1, mu1=0.1)
        cfg = af.TrainingConfig(counts={("x0", 0): 2, ("x0", 1): 2}, seed=20240817)
        means = af.replicate_cell_means(spec, cfg, 4)
        golden = {
            ("x0", 0): [0.770558903407528, -0.003048719704585312,
                        0.8950238177965778, 1.1514205677104645],
            ("x0", 1): [-0.2750198950201296, 0.04502676748415482,
                        0.08294797195586076, 0.315193398566341],
        }
        for cell, values in golden.items():
            assert means[cell].tolist() == pytest.approx(values, rel=1e-12, abs=0)

    def test_cell_means_are_a_prefix_of_longer_runs(self):
        spec = two_x_spec()
        cfg = af.TrainingConfig(counts=self.COUNTS, seed=31)
        short = af.replicate_cell_means(spec, cfg, 3000)
        long = af.replicate_cell_means(spec, cfg, 6000)
        for cell in self.COUNTS:
            assert short[cell].tobytes() == long[cell][:3000].tobytes()

    def test_cell_means_match_label_averages_in_distribution(self):
        # the engine's direct draw of each mean against averages of n labels,
        # row r of an rng.normal_block holding replication r's labels
        spec = two_x_spec()
        cfg = af.TrainingConfig(counts=self.COUNTS, seed=12)
        reps = 4000
        means = af.replicate_cell_means(spec, cfg, reps)
        sd = math.sqrt(spec.noise_var)
        for (x, g), n in self.COUNTS.items():
            keys = rng.derive_key(77, spec.cell_index(x, g), np.arange(reps, dtype=np.uint64))
            labels = rng.normal_block(keys, n, mean=spec.mu(x, g), sd=sd).mean(axis=1)
            var = spec.noise_var / n
            for sample in (means[(x, g)], labels):
                assert abs(sample.mean() - spec.mu(x, g)) < 4 * math.sqrt(var / reps)
                # the variance of a sample variance of Normals is 2 var^2 / (reps - 1)
                assert abs(sample.var(ddof=1) - var) < 4 * var * math.sqrt(2 / (reps - 1))
            assert ks_2samp(means[(x, g)], labels).pvalue > 1e-4

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

    def test_grid_prior_compares_and_hashes_by_identity(self):
        points = {"x0": ([0.0, 1.0], [0.0, 1.0], [0.5, 0.5])}
        a, b = af.GridPrior(points=points), af.GridPrior(points=points)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_grid_prior_rejects_non_finite_weights(self, bad):
        with pytest.raises(af.SpecValidationError, match="finite"):
            af.GridPrior(points={"x0": ([0.0, 1.0], [0.0, 1.0], [bad, 1.0])})


class TestDocuments:
    """Literal documents parse to the hand-built objects they describe."""

    TWO_X = {
        "covariates": ["a", "b"],
        "covariate_probs": {"a": 0.25, "b": 0.75},
        "group_probs": {"a": 0.5, "b": 0.3},
        "true_means": {"a": [0.0, 1.0], "b": [-1.0, 2.0]},
        "noise_var": 2.0,
        "counts": {"a": [2, 6], "b": [1, 3]},
        "seed": 17,
    }

    def test_spec_round_trip(self):
        assert af.document_to_spec(self.TWO_X) == two_x_spec()

    def test_config_round_trip(self):
        cfg = af.TrainingConfig(
            counts={("a", 0): 2, ("a", 1): 6, ("b", 0): 1, ("b", 1): 3}, seed=17)
        assert af.document_to_config(self.TWO_X, two_x_spec()) == cfg

    def test_conjugate_prior_round_trip(self):
        doc = {"kind": "conjugate_normal", "beta": {"x0": [-0.25, 0.75]}, "tau_sq": 2.0}
        prior = af.document_to_prior(doc, example_spec())
        assert prior == example_prior(b0=-0.25, b1=0.75, tau_sq=2.0)

    def test_grid_prior_round_trip(self):
        doc = {"kind": "grid", "points": {"x0": [[0.0, 0.5, 0.25], [1.0, -0.5, 0.75]]}}
        prior = af.document_to_prior(doc, example_spec())
        assert isinstance(prior, af.GridPrior)
        mu1, mu0, w = prior.points["x0"]
        assert np.array_equal(mu1, [0.0, 1.0])
        assert np.array_equal(mu0, [0.5, -0.5])
        assert np.array_equal(w, [0.25, 0.75])

    def test_unknown_prior_kind(self):
        with pytest.raises(af.SpecValidationError, match="prior kind"):
            af.document_to_prior({"kind": "cauchy"}, example_spec())
