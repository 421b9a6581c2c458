"""The machine predictors, blind (f-) and aware (f+), as the engine realizes them."""

import numpy as np
import pytest

import assistfair as af


def tiny_spec():
    return af.ProblemSpec(
        covariates=("a", "b"), covariate_probs={"a": 0.5, "b": 0.5},
        group_probs={"a": 0.5, "b": 0.5},
        true_means={("a", 0): 0.0, ("a", 1): 0.0, ("b", 0): 0.0, ("b", 1): 0.0},
        noise_var=1.0,
    )


def tiny_config(**overrides):
    """Cell ("b", 0) is empty unless ``b0`` is given."""
    counts = {("a", 0): 2, ("a", 1): 1, ("b", 0): overrides.get("b0", 0),
              ("b", 1): overrides.get("b1", 2)}
    return af.TrainingConfig(counts=counts, seed=21)


# per-cell label averages of two replications
TINY_MEANS = {("a", 0): np.asarray([2.0, 0.0]), ("a", 1): np.asarray([5.0, -3.0]),
              ("b", 1): np.asarray([-3.0, 1.0])}


def machine_values(config, means, kind):
    return af.rule_values_from_cell_means(tiny_spec(), None, config, means, [kind])[kind]


def test_group_blind_pools_both_groups():
    blind = machine_values(tiny_config(), TINY_MEANS, af.RuleKind.F_MINUS)
    assert np.allclose(blind[("a", 0)], [3.0, -1.0], rtol=0, atol=1e-15)
    assert np.array_equal(blind[("a", 0)], blind[("a", 1)])
    assert np.allclose(blind[("b", 0)], [-3.0, 1.0], rtol=0, atol=1e-15)


def test_group_aware_splits_cells():
    means = {**TINY_MEANS, ("b", 0): np.asarray([4.0, 4.5])}
    aware = machine_values(tiny_config(b0=1), means, af.RuleKind.F_PLUS)
    for cell, arr in means.items():
        assert np.array_equal(aware[cell], arr)


def test_empty_cell_messages():
    with pytest.raises(af.EmptyCellError, match=r"empty cell \('b', 0\)"):
        machine_values(tiny_config(), TINY_MEANS, af.RuleKind.F_PLUS)
    with pytest.raises(af.EmptyCellError, match="needs observations at x='b'"):
        machine_values(tiny_config(b1=0), TINY_MEANS, af.RuleKind.F_MINUS)


def test_blind_is_count_weighted_aware():
    spec = tiny_spec()
    cfg = af.TrainingConfig(
        counts={("a", 0): 3, ("a", 1): 7, ("b", 0): 5, ("b", 1): 5}, seed=21)
    values = af.replicate_rule_values(spec, None, cfg,
                                      [af.RuleKind.F_MINUS, af.RuleKind.F_PLUS], 50)
    blind, aware = values[af.RuleKind.F_MINUS], values[af.RuleKind.F_PLUS]
    for x in spec.covariates:
        n0, n1 = cfg.count(x, 0), cfg.count(x, 1)
        mixed = (n0 * aware[(x, 0)] + n1 * aware[(x, 1)]) / (n0 + n1)
        for g in (0, 1):
            assert np.allclose(blind[(x, g)], mixed, rtol=0, atol=1e-12)
