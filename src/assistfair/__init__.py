"""Disparity and risk of machine-assisted human decisions.

Five decision rules over a shared prediction problem: group-blind and
group-aware machine predictors, an unassisted Bayesian decision maker, and
the same decision maker updating on either machine signal. The package
estimates each rule's between-group disparity and squared-error risk by
seeded Monte Carlo, evaluates the balanced example's closed forms exactly,
and verifies the ordering and trade-off claims empirically.
"""

from .errors import (
    AssistFairError,
    ConfigError,
    EmptyCellError,
    PreconditionError,
    SignalSupportError,
    SpecValidationError,
)
from .metrics import (
    CellBiasVariance,
    Estimate,
    MetricsReport,
    RuleStats,
    bias_variance_decomp,
    mc_expected_metrics,
    pointwise_risk,
)
from .model import (
    ConjugateNormalPrior,
    DerivedExampleParams,
    GridPrior,
    Prior,
    ProblemSpec,
    RuleKind,
    TrainingConfig,
    config_to_document,
    dense_grid_from_conjugate,
    derive_example_params,
    diagonal_grid,
    document_to_config,
    document_to_prior,
    document_to_spec,
    normal_marginal_grid,
    prior_to_document,
    product_grid,
    spec_to_document,
    validate_config,
    validate_spec,
)
from .oracle import (
    ClosedFormTable,
    Regime,
    RegimeResult,
    classify_regime,
    delta_threshold_example,
    example_closed_forms,
    machine_risk_expectations,
    xi_threshold_general,
)
from .simulate import (
    replicate_cell_means,
    replicate_rule_values,
    rule_values_from_cell_means,
)
from .verify import (
    ConsistencyResult,
    VerificationOutcome,
    verify_consistency,
    verify_disparity_reversal,
    verify_machine_regimes,
    verify_remark1,
    verify_remark2,
    verify_reordering,
    verify_tradeoff_reversal,
)

__version__ = "0.1.0"

__all__ = [
    "AssistFairError",
    "CellBiasVariance",
    "ClosedFormTable",
    "ConfigError",
    "ConjugateNormalPrior",
    "ConsistencyResult",
    "DerivedExampleParams",
    "EmptyCellError",
    "Estimate",
    "GridPrior",
    "MetricsReport",
    "PreconditionError",
    "Prior",
    "ProblemSpec",
    "Regime",
    "RegimeResult",
    "RuleKind",
    "RuleStats",
    "SignalSupportError",
    "SpecValidationError",
    "TrainingConfig",
    "VerificationOutcome",
    "bias_variance_decomp",
    "classify_regime",
    "config_to_document",
    "delta_threshold_example",
    "dense_grid_from_conjugate",
    "derive_example_params",
    "diagonal_grid",
    "document_to_config",
    "document_to_prior",
    "document_to_spec",
    "example_closed_forms",
    "machine_risk_expectations",
    "mc_expected_metrics",
    "normal_marginal_grid",
    "pointwise_risk",
    "prior_to_document",
    "product_grid",
    "replicate_cell_means",
    "replicate_rule_values",
    "rule_values_from_cell_means",
    "spec_to_document",
    "validate_config",
    "validate_spec",
    "verify_consistency",
    "verify_disparity_reversal",
    "verify_machine_regimes",
    "verify_remark1",
    "verify_remark2",
    "verify_reordering",
    "verify_tradeoff_reversal",
    "xi_threshold_general",
]
