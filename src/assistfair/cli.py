"""Command-line front end.

Subcommands: ``simulate`` (Monte Carlo metrics for a config), ``closed-form``
(the balanced example's exact table), ``verify <claim>`` (replay one claim's
inequalities, exit 0 only when the success fraction clears the level), and
``sweep`` (metrics across a parameter grid, with SVG charts).

Configs are single JSON documents carrying the problem, the training counts
and seed, and the prior; command flags override the scalar fields. Outputs
are deterministic byte-for-byte for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

from . import rng
from .errors import AssistFairError, ConfigError, PreconditionError, SpecValidationError
from .figures import Series, VLine, write_chart
from .metrics import MetricsReport, mc_expected_metrics
from .model import (
    ConjugateNormalPrior,
    GridPrior,
    ProblemSpec,
    RuleKind,
    TrainingConfig,
    derive_example_params,
    diagonal_grid,
    document_to_config,
    document_to_prior,
    document_to_spec,
    normal_marginal_grid,
)
from .model import _integer, _number
from .oracle import example_closed_forms, xi_threshold_general
from .verify import (
    verify_consistency,
    verify_disparity_reversal,
    verify_machine_regimes,
    verify_remark1,
    verify_remark2,
    verify_reordering,
    verify_tradeoff_reversal,
    VerificationOutcome,
)

__all__ = ["main", "entrypoint"]

DEFAULT_SEED = 20240817
DEFAULT_LEVEL = 0.95
DEFAULT_REPS = 1000

CSV_HEADER = ("rule", "x", "quantity", "value", "se", "reps", "seed")
SWEEP_AXES = ("n", "delta", "delta_mu", "noise_var", "tau_sq")

_SPEC_FIELDS = ("covariates", "covariate_probs", "group_probs", "true_means",
                "noise_var")
_REQUIRED_FIELDS = _SPEC_FIELDS + ("counts", "seed", "prior")


# ---------------------------------------------------------------------------
# Config handling


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def parse_bundle(doc: Mapping, *, seed: int | None = None,
                 reps: int | None = None) -> tuple:
    """Build (spec, prior, config, reps, rule kinds) from a config document."""
    for name in _REQUIRED_FIELDS:
        if name not in doc:
            raise ConfigError(f"config missing required field: {name}")
    spec = document_to_spec(doc)
    working = dict(doc)
    if seed is not None:
        working["seed"] = seed
    config = document_to_config(working, spec)
    prior = document_to_prior(doc["prior"], spec)
    if reps is None:
        reps = _integer(doc.get("reps", DEFAULT_REPS), "reps")
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    rule_names = doc.get("rules")
    if rule_names is None:
        kinds = list(RuleKind)
    elif isinstance(rule_names, list):
        kinds = [RuleKind.from_name(name) for name in rule_names]
    else:
        raise ConfigError(f"rules must be a list of rule names, got {rule_names!r}")
    return spec, prior, config, reps, kinds


def _normalize_axes(doc: Mapping) -> list:
    raw = doc.get("sweep")
    if raw is None:
        return []
    entries = raw if isinstance(raw, list) else [raw]
    axes = []
    for entry in entries:
        axis = entry.get("axis") if isinstance(entry, Mapping) else None
        values = entry.get("values") if isinstance(entry, Mapping) else None
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {axis!r} needs a non-empty values list")
        for value in values:
            _number(value, f"sweep axis {axis!r} value")
        axes.append({"axis": axis, "values": list(values)})
    return axes


def _single_covariate(doc: Mapping, axis: str) -> str:
    covs = doc["covariates"]
    if len(covs) != 1:
        raise ConfigError(f"sweep axis {axis!r} requires a single-covariate config")
    return str(covs[0])


def apply_axis(doc: dict, axis: str, value) -> dict:
    """Return a new config document with one scalar parameter replaced."""
    out = json.loads(json.dumps(doc))
    if axis == "noise_var":
        out["noise_var"] = float(value)
    elif axis == "tau_sq":
        if out["prior"].get("kind") != "conjugate_normal":
            raise ConfigError("sweep axis 'tau_sq' requires a conjugate_normal prior")
        out["prior"]["tau_sq"] = float(value)
    elif axis == "n":
        key = _single_covariate(doc, axis)
        n = _integer(value, "sweep axis 'n' value")
        if n <= 0 or n % 2:
            raise ConfigError("sweep axis 'n' requires positive even values")
        out["counts"][key] = [n // 2, n // 2]
    elif axis == "delta_mu":
        key = _single_covariate(doc, axis)
        m0, m1 = (float(v) for v in out["true_means"][key])
        mu_bar = (m0 + m1) / 2.0
        out["true_means"][key] = [mu_bar - float(value) / 2.0, mu_bar + float(value) / 2.0]
    elif axis == "delta":
        key = _single_covariate(doc, axis)
        if out["prior"].get("kind") != "conjugate_normal":
            raise ConfigError("sweep axis 'delta' requires a conjugate_normal prior")
        b0, b1 = (float(v) for v in out["prior"]["beta"][key])
        beta_bar = (b0 + b1) / 2.0
        out["prior"]["beta"][key] = [beta_bar - float(value) / 2.0,
                                     beta_bar + float(value) / 2.0]
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return out


# ---------------------------------------------------------------------------
# Output writers


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv_rows(path, rows: Sequence, header: Sequence = CSV_HEADER) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def write_json(path, payload) -> None:
    """Strict JSON: a NaN or infinity raises before anything is written."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _print_report_summary(report: MetricsReport) -> None:
    print(f"reps={report.reps} seed={report.seed}")
    for kind in RuleKind:
        if kind not in report.rules:
            continue
        stats = report.rule(kind)
        disp = stats.avg_disparity
        risk = stats.expected_risk
        disp_se = "n/a" if disp.se is None else f"{disp.se:.2e}"
        risk_se = "n/a" if risk.se is None else f"{risk.se:.2e}"
        print(f"  {kind.value:<8} E[disparity]={disp.value:.6f} (se {disp_se})"
              f"  E[risk]={risk.value:.6f} (se {risk_se})")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    doc = load_document(args.config)
    spec, prior, config, reps, kinds = parse_bundle(doc, seed=args.seed, reps=args.reps)
    report = mc_expected_metrics(spec, prior, config, kinds, reps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    include_excess = getattr(args, "excess_risk", False)
    write_csv_rows(out / "metrics.csv", report.to_rows(include_excess=include_excess))
    write_json(out / "metrics.json", report.to_json_dict(include_excess=include_excess))
    _print_report_summary(report)
    print(f"wrote {out / 'metrics.csv'} and {out / 'metrics.json'}")
    return 0


def cmd_closed_form(args) -> int:
    table = example_closed_forms(args.sigma_sq, args.tau_sq, args.n, args.delta,
                                 args.delta_mu, args.beta_bar, args.mu_bar)
    text = table.to_text()
    print(text, end="")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "closed_form.json", table.to_json_dict())
        (out / "closed_form.txt").write_text(text, encoding="utf-8")
        print(f"wrote {out / 'closed_form.json'} and {out / 'closed_form.txt'}")
    return 0


def _example_document(*, delta_mu: float, delta: float, n_per_group: int,
                      sigma_sq: float = 1.0, tau_sq: float = 1.0,
                      mu_bar: float = 0.0, beta_bar: float = 0.0,
                      seed: int = DEFAULT_SEED, reps: int = DEFAULT_REPS) -> dict:
    return {
        "covariates": ["x0"],
        "covariate_probs": {"x0": 1.0},
        "group_probs": {"x0": 0.5},
        "true_means": {"x0": [mu_bar - delta_mu / 2.0, mu_bar + delta_mu / 2.0]},
        "noise_var": sigma_sq,
        "counts": {"x0": [n_per_group, n_per_group]},
        "seed": seed,
        "reps": reps,
        "prior": {
            "kind": "conjugate_normal",
            "beta": {"x0": [beta_bar - delta / 2.0, beta_bar + delta / 2.0]},
            "tau_sq": tau_sq,
        },
    }


STANDARD_CLAIM_DOCUMENTS = {
    "thm1": lambda: _example_document(delta_mu=0.2, delta=1.0, n_per_group=200,
                                      reps=1000),
    "cor1": lambda: _example_document(delta_mu=0.2, delta=1.0, n_per_group=200,
                                      reps=1000),
    "thm2": lambda: _example_document(delta_mu=0.5, delta=1.0, n_per_group=200,
                                      reps=1000),
    "remark1": lambda: _example_document(delta_mu=0.0, delta=1.0, n_per_group=4,
                                         reps=20000),
}


def _merge_outcomes(claim_id: str, outcomes: Mapping) -> VerificationOutcome:
    per_inequality = {}
    parameters = {}
    for tag, outcome in outcomes.items():
        for name, frac in outcome.per_inequality.items():
            per_inequality[f"{tag}:{name}"] = frac
        parameters[tag] = dict(outcome.parameters)
    reps = max(outcome.reps for outcome in outcomes.values())
    success = min(outcome.success_fraction for outcome in outcomes.values())
    return VerificationOutcome(
        claim_id=claim_id, reps=reps, success_fraction=success,
        per_inequality=per_inequality, parameters=parameters,
    )


def _consistency_prior(spec: ProblemSpec) -> GridPrior:
    points, weights = normal_marginal_grid(0.0, 1.0)
    mu1, mu0, w = diagonal_grid(points, weights)
    return GridPrior(points={x: (mu1, mu0, w) for x in spec.covariates})


def _run_verify_claim(claim: str, args) -> tuple:
    """Returns (outcome-ish object, passed flag, json payload)."""
    doc = load_document(args.config) if args.config else None
    seed = args.seed
    reps = args.reps

    if claim == "remark2":
        if doc is not None:
            spec, prior, config, doc_reps, _ = parse_bundle(doc, seed=seed, reps=reps)
            example = derive_example_params(spec, prior, config)
            outcome = verify_remark2(spec.noise_var, prior.tau_sq, example.n,
                                     example.delta_mu, doc_reps, config.seed,
                                     beta_bar=example.beta_bar, mu_bar=example.mu_bar)
        else:
            outcome = verify_remark2(1.0, 1.0, 12, 0.0, reps if reps is not None else 20000,
                                     seed if seed is not None else DEFAULT_SEED)
        return outcome, outcome.passed(args.level), outcome.to_json_dict()

    if claim == "remark3":
        if doc is not None:
            spec, _prior, config, doc_reps, _ = parse_bundle(doc, seed=seed, reps=reps)
            runs = {str(x): verify_machine_regimes(spec, config, x, doc_reps)
                    for x in spec.covariates}
            outcome = runs[str(spec.covariates[0])] if len(runs) == 1 else \
                _merge_outcomes("remark3", runs)
        else:
            use_reps = reps if reps is not None else 20000
            use_seed = seed if seed is not None else DEFAULT_SEED
            runs = {}
            for i, delta_mu in enumerate((0.8, 0.2)):
                run_doc = _example_document(delta_mu=delta_mu, delta=1.0, n_per_group=8,
                                            seed=rng.derive_key(use_seed,
                                                                rng.STREAM_SCENARIO, i),
                                            reps=use_reps)
                spec, _prior, config, run_reps, _ = parse_bundle(run_doc)
                runs[f"delta_mu={delta_mu:g}"] = verify_machine_regimes(
                    spec, config, spec.covariates[0], run_reps)
            outcome = _merge_outcomes("remark3", runs)
        return outcome, outcome.passed(args.level), outcome.to_json_dict()

    if claim == "consistency":
        if doc is not None:
            spec, prior, config, doc_reps, _ = parse_bundle(doc, seed=seed, reps=reps)
            if not isinstance(prior, GridPrior):
                raise ConfigError("consistency needs a grid prior")
            n_grid = doc.get("n_grid", [10, 100, 1000])
            result = verify_consistency(prior, spec, n_grid, doc_reps, config.seed)
        else:
            spec = ProblemSpec(
                covariates=("x0",), covariate_probs={"x0": 1.0},
                group_probs={"x0": 0.5},
                true_means={("x0", 0): 0.3, ("x0", 1): 0.3}, noise_var=1.0,
            )
            prior = _consistency_prior(spec)
            result = verify_consistency(
                prior, spec, [10, 100, 1000], reps if reps is not None else 500,
                seed if seed is not None else DEFAULT_SEED)
        payload = result.to_json_dict()
        payload["passed"] = result.passed()
        return result, result.passed(), payload

    if doc is None:
        doc = STANDARD_CLAIM_DOCUMENTS[claim]()
    spec, prior, config, use_reps, _ = parse_bundle(doc, seed=seed, reps=reps)
    if claim == "thm1":
        outcome = verify_disparity_reversal(spec, prior, config, use_reps)
    elif claim == "cor1":
        outcome = verify_reordering(spec, prior, config, use_reps)
    elif claim == "thm2":
        outcome = verify_tradeoff_reversal(spec, prior, config, use_reps)
    elif claim == "remark1":
        if not isinstance(prior, ConjugateNormalPrior):
            raise ConfigError("remark1 needs a conjugate_normal prior")
        outcome = verify_remark1(spec, prior, config, use_reps)
    else:
        raise ConfigError(f"unknown claim {claim!r}")
    return outcome, outcome.passed(args.level), outcome.to_json_dict()


def cmd_verify(args) -> int:
    outcome, passed, payload = _run_verify_claim(args.claim, args)
    if isinstance(outcome, VerificationOutcome):
        payload = dict(payload)
        payload["level"] = args.level
        payload["passed"] = passed
        print(outcome.summary_line(args.level))
    else:
        print(outcome.summary_line())
        print(f"passed={passed}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"verify_{args.claim}.json"
    write_json(path, payload)
    print(f"wrote {path}")
    return 0 if passed else 1


def cmd_sweep(args) -> int:
    doc = load_document(args.config)
    axes = _normalize_axes(doc)
    if not axes:
        return cmd_simulate(args)
    spec0, _prior0, config0, _reps0, _ = parse_bundle(doc, seed=args.seed, reps=args.reps)
    master_seed = config0.seed
    axis_names = [entry["axis"] for entry in axes]
    grid = list(itertools.product(*(entry["values"] for entry in axes)))
    rows = []
    reports = []
    for index, point in enumerate(grid):
        point_doc = json.loads(json.dumps(doc))
        point_doc.pop("sweep", None)
        for axis, value in zip(axis_names, point):
            point_doc = apply_axis(point_doc, axis, value)
        point_seed = rng.derive_key(master_seed, rng.STREAM_SCENARIO, index)
        spec, prior, config, reps, kinds = parse_bundle(point_doc, seed=point_seed,
                                                        reps=args.reps)
        report = mc_expected_metrics(spec, prior, config, kinds, reps)
        reports.append((point, report))
        for row in report.to_rows():
            rows.append(tuple(point) + row)
    header = tuple(axis_names) + CSV_HEADER
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_rows(out / "sweep.csv", rows, header=header)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows over {len(grid)} points)")
    if len(axis_names) == 1:
        _write_sweep_charts(out, axis_names[0], reports, spec0, config0)
    return 0


_AXIS_LABELS = {"n": "n", "delta": "δ", "delta_mu": "Δμ",
                "noise_var": "σ²", "tau_sq": "τ²"}


def _write_sweep_charts(out: Path, axis: str, reports: Sequence,
                        base_spec: ProblemSpec, base_config: TrainingConfig) -> None:
    xs = [float(point[0]) for point, _report in reports]
    present = [kind for kind in RuleKind if kind in reports[0][1].rules]
    disparity_series = [
        Series(label=kind.value, xs=tuple(xs),
               ys=tuple(report.rule(kind).avg_disparity.value for _p, report in reports))
        for kind in present
    ]
    risk_series = [
        Series(label=kind.value, xs=tuple(xs),
               ys=tuple(report.rule(kind).expected_risk.value for _p, report in reports))
        for kind in present
    ]
    vlines = []
    if axis == "delta_mu" and len(base_spec.covariates) == 1:
        xi = xi_threshold_general(base_spec, base_config, base_spec.covariates[0])
        vlines.append(VLine(x=xi, label="ξ"))
    xlabel = _AXIS_LABELS.get(axis, axis)
    for name, series, ylabel, marks in (
        ("sweep_disparity", disparity_series, "E[Δ]", ()),
        ("sweep_risk", risk_series, "E[r]", tuple(vlines)),
    ):
        svg_path, csv_path = write_chart(out, name, series, title=f"{ylabel} vs {xlabel}",
                                         xlabel=xlabel, ylabel=ylabel, vlines=marks)
        print(f"wrote {svg_path} and {csv_path}")


# ---------------------------------------------------------------------------
# Parser and entry point


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def level_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assistfair",
        description="Disparity and risk of machine-assisted decisions: simulation, "
                    "closed forms, and claim verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="Monte Carlo metrics for a config")
    simulate.add_argument("--config", required=True, help="JSON config document")
    simulate.add_argument("--seed", type=int, default=None, help="override config seed")
    simulate.add_argument("--reps", type=int, default=None, help="override replications")
    simulate.add_argument("--out", default=".", help="output directory")
    simulate.add_argument("--excess-risk", action="store_true",
                          help="also report risk minus the noise floor")
    simulate.set_defaults(handler=cmd_simulate)

    closed = sub.add_parser("closed-form", help="exact table for the balanced example")
    closed.add_argument("--sigma-sq", type=finite_float, default=1.0)
    closed.add_argument("--tau-sq", type=finite_float, default=1.0)
    closed.add_argument("--n", type=int, default=8)
    closed.add_argument("--delta", type=finite_float, default=1.0)
    closed.add_argument("--delta-mu", type=finite_float, default=0.0)
    closed.add_argument("--beta-bar", type=finite_float, default=0.0)
    closed.add_argument("--mu-bar", type=finite_float, default=0.0)
    closed.add_argument("--out", default=None, help="optional output directory")
    closed.set_defaults(handler=cmd_closed_form)

    verify = sub.add_parser("verify", help="verify one claim empirically")
    verify.add_argument("claim", choices=("remark1", "remark2", "remark3", "thm1",
                                          "cor1", "thm2", "consistency"))
    verify.add_argument("--config", default=None, help="JSON config document")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--reps", type=int, default=None)
    verify.add_argument("--out", default=".")
    verify.add_argument("--level", type=level_fraction, default=DEFAULT_LEVEL,
                        help="success fraction required to pass")
    verify.set_defaults(handler=cmd_verify)

    sweep = sub.add_parser("sweep", help="metrics across a parameter grid")
    sweep.add_argument("--config", required=True, help="JSON config with a sweep entry")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--reps", type=int, default=None)
    sweep.add_argument("--out", default=".")
    sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv: Sequence | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, SpecValidationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssistFairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
