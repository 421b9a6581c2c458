"""The four workloads: inputs made from the workload seed, and the check each
job's output must pass.

``mc_conjugate``, ``mc_grid`` and ``mc_wide`` time back-to-back
``mc_expected_metrics`` calls on a problem given as a config document, the
format the command line reads. ``cli_claims`` times one ``python -m
assistfair.cli`` process at a time working through a fixed script.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MC_WORKLOADS = ("mc_conjugate", "mc_grid", "mc_wide")
NAMES = MC_WORKLOADS + ("cli_claims",)

# Replications per mc job. "tiny" is the smoke test's size; it keeps enough
# replications that the standard-error bands of the checks stay calibrated
# (a mean of a few dozen squared errors is too skewed for them).
MC_REPS = {
    "full": {"mc_conjugate": 9000, "mc_grid": 2, "mc_wide": 3500},
    "tiny": {"mc_conjugate": 500, "mc_grid": 2, "mc_wide": 500},
}
# Points per axis of the dense grid; 2001 gives 2001**2 = 4,004,001 support points.
GRID_POINTS = {"full": 2001, "tiny": 101}
WIDE_COVARIATES = 64

# A band of 7 standard errors: a change that redraws the random numbers
# fails it by chance with probability about 3e-12 per compared quantity.
SE_BAND = 7.0
FLOAT_TOL = 1e-9
# Criterion-3 tolerance between grid and conjugate posterior means.
GRID_TOL = 1e-6

SIGMA_SQ = 1.0
TAU_SQ = 1.0


def derive_seed(seed: int, *parts) -> int:
    """A 64-bit seed owned by ``parts`` under the workload seed."""
    text = "/".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


def example_document(*, delta_mu: float, delta: float, counts: tuple, seed: int,
                     reps: int, mu_bar: float = 0.0, beta_bar: float = 0.0) -> dict:
    """Single-covariate config document; ``counts`` is (group 0, group 1)."""
    return {
        "covariates": ["x0"],
        "covariate_probs": {"x0": 1.0},
        "group_probs": {"x0": 0.5},
        "true_means": {"x0": [mu_bar - delta_mu / 2.0, mu_bar + delta_mu / 2.0]},
        "noise_var": SIGMA_SQ,
        "counts": {"x0": list(counts)},
        "seed": seed,
        "reps": reps,
        "prior": {"kind": "conjugate_normal",
                  "beta": {"x0": [beta_bar - delta / 2.0, beta_bar + delta / 2.0]},
                  "tau_sq": TAU_SQ},
    }


def wide_document(seed: int, reps: int) -> dict:
    """64 covariates with balanced cells of 4 labels; per-covariate gaps and
    levels are drawn from the workload seed."""
    draws = random.Random(seed)
    covs = [f"x{i:02d}" for i in range(WIDE_COVARIATES)]
    true_means, beta = {}, {}
    for x in covs:
        delta_mu, mu_bar = draws.uniform(-0.5, 0.5), draws.uniform(-1.0, 1.0)
        delta, beta_bar = draws.uniform(-1.5, 1.5), draws.uniform(-1.0, 1.0)
        true_means[x] = [mu_bar - delta_mu / 2.0, mu_bar + delta_mu / 2.0]
        beta[x] = [beta_bar - delta / 2.0, beta_bar + delta / 2.0]
    return {
        "covariates": covs,
        # 1/64 is exact in binary, so the probabilities sum to exactly 1
        "covariate_probs": {x: 1.0 / WIDE_COVARIATES for x in covs},
        "group_probs": {x: 0.5 for x in covs},
        "true_means": true_means,
        "noise_var": SIGMA_SQ,
        "counts": {x: [4, 4] for x in covs},
        "seed": seed,
        "reps": reps,
        "prior": {"kind": "conjugate_normal", "beta": beta, "tau_sq": TAU_SQ},
    }


def mc_document(name: str, seed: int, scale: str) -> dict:
    reps = MC_REPS[scale][name]
    if name == "mc_conjugate":
        return example_document(delta_mu=0.2, delta=1.0, counts=(200, 200),
                                seed=seed, reps=reps)
    if name == "mc_grid":
        return example_document(delta_mu=0.2, delta=1.0, counts=(3, 5),
                                seed=seed, reps=reps)
    if name == "mc_wide":
        return wide_document(seed, reps)
    raise ValueError(f"not an mc workload: {name}")


# ---------------------------------------------------------------------------
# The closed loop every workload times


def timed_loop(passes, run_job, check, seconds: float, min_jobs: int, cap: float,
               tracer=None) -> tuple:
    """Run jobs one after another: each starts when the previous one returns.

    ``passes`` yields lists of jobs. The loop stops after a whole pass once
    ``seconds`` of job time have passed and ``min_jobs`` jobs ran, or once
    ``cap`` seconds passed. ``run_job(job)`` returns the job's output, and a
    job that raises has failed. ``check(job, output)`` returns a failure
    message or None; it runs as soon as the job returns, so outputs are not
    held in memory, and the clock is paused meanwhile. With a ``tracer``
    each job is a root span and checks record no spans. Returns the job
    times, the failure messages and the loop's wall time without checks.
    """
    times, failures = [], []
    start = time.perf_counter()
    checking = 0.0
    for jobs in passes:
        for job in jobs:
            if tracer is not None:
                tracer.job = len(times)
                span = tracer.open("job")
            began = time.perf_counter()
            try:
                output, error = run_job(job), None
            except Exception as exc:  # a job that raises is a failed job, not a crash
                output, error = None, f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            times.append(done - began)
            if tracer is not None:
                tracer.close(span)
                tracer.job = None
                tracer.paused = True
            if error is None:
                try:
                    error = check(job, output)
                except Exception as exc:  # a check that cannot run fails the job
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(error)
            if tracer is not None:
                tracer.paused = False
            checking += time.perf_counter() - done
        elapsed = time.perf_counter() - start - checking
        if (elapsed >= seconds and len(times) >= min_jobs) or elapsed >= cap:
            return times, failures, elapsed
    raise ValueError("passes ran out")


# ---------------------------------------------------------------------------
# mc workloads


@dataclass
class McSetup:
    name: str
    seed: int
    spec: object
    config: object
    prior: object          # the prior the jobs use
    conjugate: object      # the conjugate prior the grid discretises
    reps: int


def build_mc(name: str, seed: int, scale: str) -> McSetup:
    """Parse the workload's document and build the prior its jobs use."""
    from assistfair import model

    doc = mc_document(name, seed, scale)
    spec = model.document_to_spec(doc)
    config = model.document_to_config(doc, spec)
    conjugate = model.document_to_prior(doc["prior"], spec)
    prior = conjugate
    if name == "mc_grid":
        prior = model.dense_grid_from_conjugate(conjugate, spec.covariates,
                                                n_points=GRID_POINTS[scale])
    return McSetup(name=name, seed=seed, spec=spec, config=config, prior=prior,
                   conjugate=conjugate, reps=int(doc["reps"]))


def job_config(setup: McSetup, index: int):
    from assistfair import model

    return model.TrainingConfig(counts=setup.config.counts,
                                seed=derive_seed(setup.seed, "job", index))


def run_mc_job(setup: McSetup, config):
    """One job: all five rules, looked up at call time so spans can wrap it."""
    from assistfair import metrics

    return metrics.mc_expected_metrics(setup.spec, setup.prior, config, None, setup.reps)


def oracle_tables(spec, prior, n_per_x: int) -> dict:
    """Closed-form table per covariate for a balanced problem with P(G=1|x)=1/2."""
    from assistfair import oracle

    tables = {}
    for x in spec.covariates:
        mu1, mu0 = spec.mu(x, 1), spec.mu(x, 0)
        b1, b0 = prior.beta[(x, 1)], prior.beta[(x, 0)]
        tables[str(x)] = oracle.example_closed_forms(
            spec.noise_var, prior.tau_sq, n_per_x, b1 - b0, mu1 - mu0,
            0.5 * (b1 + b0), 0.5 * (mu1 + mu0))
    return tables


def _within_band(value, se, target) -> bool:
    if value is None or se is None:
        return False
    return abs(value - target) <= SE_BAND * se + FLOAT_TOL * max(1.0, abs(target))


def check_against_oracle(payload: dict, tables: dict, p_x: dict) -> str | None:
    """Compare a ``metrics.json``-shaped payload with the closed forms.

    Blind disparity must be exactly zero; every other estimate must lie
    within SE_BAND standard errors of its closed form. Returns the first
    failure, or None.
    """
    from assistfair.model import RuleKind

    for entry in payload["rules"]:
        kind = RuleKind(entry["rule"])
        blind = kind is RuleKind.F_MINUS
        avg_disp = math.fsum(p_x[x] * t.expected_disparity[kind] for x, t in tables.items())
        avg_risk = math.fsum(p_x[x] * t.expected_risk[kind] for x, t in tables.items())
        pairs = [(f"{kind.value} avg_disparity", entry["avg_disparity"], avg_disp, blind),
                 (f"{kind.value} expected_risk", entry["expected_risk"], avg_risk, False)]
        for row in entry["disparity_by_x"]:
            pairs.append((f"{kind.value} disparity@{row['x']}", row,
                          tables[row["x"]].expected_disparity[kind], blind))
        for row in entry["risk_by_x"]:
            pairs.append((f"{kind.value} risk@{row['x']}", row,
                          tables[row["x"]].expected_risk[kind], False))
        for label, est, target, exact_zero in pairs:
            if exact_zero:
                if est["value"] != 0.0:
                    return f"{label} is {est['value']!r}, must be exactly 0"
            elif not _within_band(est["value"], est["se"], target):
                return (f"{label} = {est['value']!r} (se {est['se']!r}) is off the "
                        f"closed form {target!r}")
    return None


def _numbers(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numbers(value, f"{path}[{i}]")
    elif isinstance(node, float):
        yield path, node


def check_close(payload: dict, reference: dict, tol: float) -> str | None:
    """Every float of ``payload`` within ``tol`` of the same field of ``reference``."""
    ref = dict(_numbers(reference))
    got = dict(_numbers(payload))
    if got.keys() != ref.keys():
        return "report fields differ from the conjugate reference"
    for path, value in got.items():
        if not abs(value - ref[path]) <= tol:
            return f"{path} = {value!r} differs from the conjugate {ref[path]!r} by more than {tol:g}"
    return None


def check_mc(setup: McSetup, config, report) -> str | None:
    """Correctness of one mc job's report; None when it passes."""
    from assistfair import metrics

    payload = report.to_json_dict()
    json.dumps(payload, allow_nan=False)
    if setup.name == "mc_grid":
        reference = metrics.mc_expected_metrics(setup.spec, setup.conjugate, config, None,
                                                setup.reps)
        error = check_close(payload, reference.to_json_dict(), GRID_TOL)
    else:
        n_per_x = 2 * setup.config.count(setup.spec.covariates[0], 0)
        tables = oracle_tables(setup.spec, setup.conjugate, n_per_x)
        p_x = {str(x): setup.spec.p_x(x) for x in setup.spec.covariates}
        error = check_against_oracle(payload, tables, p_x)
    return error and f"job seed {config.seed}: {error}"


def mc_properties(setup: McSetup) -> dict:
    """Input properties the job cost depends on."""
    spec, config = setup.spec, setup.config
    cells = [(x, g) for x in spec.covariates for g in (0, 1) if config.count(x, g) > 0]
    labels = sorted({config.count(x, g) for x, g in cells})
    props = {
        "cells": len(cells),
        "labels_per_cell": labels[0] if len(labels) == 1 else labels,
        "reps_per_job": setup.reps,
        "labels_per_job": setup.reps * sum(config.count(x, g) for x, g in cells),
        "rules": 5,
    }
    if setup.name == "mc_grid":
        props.update(grid_properties(setup))
    return props


def grid_properties(setup: McSetup) -> dict:
    """Support size and the number of distinct signal centres at the job counts."""
    import numpy as np

    x = setup.spec.covariates[0]
    mu1, mu0, _w = setup.prior.points[x]
    n1, n0 = setup.config.count(x, 1), setup.config.count(x, 0)
    blind = (n1 * mu1 + n0 * mu0) / (n1 + n0)
    blind_sorted = np.sort(blind)
    span = float(blind_sorted[-1] - blind_sorted[0])
    # grouped at the relative tolerance check_delta_disparate uses
    groups = 1 + int(np.count_nonzero(np.diff(blind_sorted) > 1e-9 * max(1.0, span)))
    return {
        "counts_g1_g0": [n1, n0],
        "grid_support_points": int(mu1.size),
        "blind_signal_centres_exact": int(np.count_nonzero(np.diff(blind_sorted)) + 1),
        "blind_signal_centres_within_1e-9": groups,
        "aware_signal_centres_g1": int(np.unique(mu1).size),
        "aware_signal_centres_g0": int(np.unique(mu0).size),
    }


# ---------------------------------------------------------------------------
# cli_claims


# One pass of the script: closed-form, verify for each claim, simulate and a
# single-axis sweep. Claims run at their standard parameters, with the
# standard replication counts given explicitly so the inputs stay fixed.
VERIFY_REPS = {
    "full": {"remark1": 20000, "remark2": 20000, "remark3": 20000, "thm1": 1000,
             "cor1": 1000, "thm2": 1000, "consistency": 500},
    "tiny": {"remark1": 200, "remark2": 200, "remark3": 200, "thm1": 50,
             "cor1": 50, "thm2": 50, "consistency": 20},
}
# labels one replication represents per claim, from the standard problems
VERIFY_LABELS_PER_REP = {"remark1": 8, "remark2": 2 * 12, "remark3": 2 * 16, "thm1": 400,
                         "cor1": 400, "thm2": 400, "consistency": 2 * (10 + 100 + 1000)}
# closed-form, verify for each claim, simulate and sweep
JOBS_PER_PASS = 1 + len(VERIFY_LABELS_PER_REP) + 2
SIMULATE_REPS = {"full": 10000, "tiny": 1000}
SWEEP_REPS = {"full": 2000, "tiny": 20}
SWEEP_VALUES = [0.0, 0.2, 0.4, 0.8]
CLOSED_FORM = {"sigma_sq": 1.0, "tau_sq": 1.0, "n": 400, "delta": 1.0, "delta_mu": 0.2,
               "beta_bar": 0.0, "mu_bar": 0.0}


@dataclass
class CliJob:
    label: str
    argv: list
    out: Path


def write_cli_configs(workdir: Path, seed: int, scale: str) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    simulate = example_document(delta_mu=0.2, delta=1.0, counts=(200, 200), seed=seed,
                                reps=SIMULATE_REPS[scale])
    sweep = example_document(delta_mu=0.2, delta=1.0, counts=(200, 200), seed=seed,
                             reps=SWEEP_REPS[scale])
    sweep["sweep"] = {"axis": "delta_mu", "values": SWEEP_VALUES}
    for name, doc in (("simulate.json", simulate), ("sweep.json", sweep)):
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")


def cli_pass(workdir: Path, seed: int, scale: str, pass_index: int) -> list:
    """The argument lists of one pass of the script."""
    def out(label):
        return workdir / f"p{pass_index:03d}-{label}"

    def job_seed(label):
        return str(derive_seed(seed, "cli", pass_index, label))

    cf = CLOSED_FORM
    jobs = [CliJob("closed-form", [
        "closed-form", "--sigma-sq", repr(cf["sigma_sq"]), "--tau-sq", repr(cf["tau_sq"]),
        "--n", str(cf["n"]), "--delta", repr(cf["delta"]), "--delta-mu", repr(cf["delta_mu"]),
        "--beta-bar", repr(cf["beta_bar"]), "--mu-bar", repr(cf["mu_bar"]),
        "--out", str(out("closed-form"))], out("closed-form"))]
    for claim, reps in VERIFY_REPS[scale].items():
        label = f"verify-{claim}"
        jobs.append(CliJob(label, ["verify", claim, "--seed", job_seed(label),
                                   "--reps", str(reps), "--out", str(out(label))], out(label)))
    for command in ("simulate", "sweep"):
        jobs.append(CliJob(command, [command, "--config", str(workdir / f"{command}.json"),
                                     "--seed", job_seed(command), "--out", str(out(command))],
                           out(command)))
    return jobs


def cli_passes(workdir: Path, seed: int, scale: str, first_pass: int):
    """Endless passes of the script, numbered from ``first_pass``."""
    pass_index = first_pass
    while True:
        yield cli_pass(workdir, seed, scale, pass_index)
        pass_index += 1


def cli_properties(scale: str) -> dict:
    script = [{"command": "closed-form", "reps": 0, "labels": 0}]
    for claim, reps in VERIFY_REPS[scale].items():
        script.append({"command": f"verify {claim}", "reps": reps,
                       "labels": reps * VERIFY_LABELS_PER_REP[claim]})
    script.append({"command": "simulate", "reps": SIMULATE_REPS[scale],
                   "labels": SIMULATE_REPS[scale] * 400})
    script.append({"command": "sweep delta_mu", "reps": SWEEP_REPS[scale],
                   "labels": SWEEP_REPS[scale] * 400 * len(SWEEP_VALUES)})
    return {"jobs_per_pass": JOBS_PER_PASS, "script": script}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def load_strict_json(path: Path):
    """Parse a JSON file, refusing NaN and Infinity."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def check_cli(job: CliJob, returncode: int, stdout: str) -> str | None:
    """Exit code against the documented contract, strict JSON outputs, and the
    closed-form table against the oracle. None when the job passes."""
    try:
        return _check_cli(job, returncode, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{job.label}: {type(exc).__name__}: {exc}"


def _check_cli(job: CliJob, returncode: int, stdout: str) -> str | None:
    from assistfair import oracle

    if job.label == "closed-form":
        if returncode != 0:
            return f"closed-form exited {returncode}"
        cf = CLOSED_FORM
        table = oracle.example_closed_forms(cf["sigma_sq"], cf["tau_sq"], cf["n"], cf["delta"],
                                            cf["delta_mu"], cf["beta_bar"], cf["mu_bar"])
        if load_strict_json(job.out / "closed_form.json") != table.to_json_dict():
            return "closed_form.json differs from the oracle table"
        if not stdout.startswith(table.to_text()):
            return "closed-form output differs from the oracle table"
        return None
    if job.label.startswith("verify-"):
        claim = job.label[len("verify-"):]
        payload = load_strict_json(job.out / f"verify_{claim}.json")
        passed = payload["passed"]
        if not isinstance(passed, bool):
            return f"{job.label}: 'passed' is not a boolean"
        expected = 0 if passed else 1
        if returncode != expected:
            return f"{job.label} exited {returncode}, contract says {expected} (passed={passed})"
        return None
    if returncode != 0:
        return f"{job.label} exited {returncode}"
    if job.label == "simulate":
        payload = load_strict_json(job.out / "metrics.json")
        doc = json.loads((job.out.parent / "simulate.json").read_text(encoding="utf-8"))
        return _check_simulate(payload, doc)
    if job.label == "sweep":
        with open(job.out / "sweep.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        if len(rows) < 1 + len(SWEEP_VALUES):
            return f"sweep.csv has {len(rows)} rows"
        for chart in ("sweep_disparity", "sweep_risk"):
            for suffix in (".svg", ".csv"):
                if (job.out / f"{chart}{suffix}").stat().st_size == 0:
                    return f"{chart}{suffix} is empty"
        return None
    return f"unknown job {job.label}"


def _check_simulate(payload: dict, doc: dict) -> str | None:
    from assistfair import model

    spec = model.document_to_spec(doc)
    prior = model.document_to_prior(doc["prior"], spec)
    n_per_x = sum(doc["counts"]["x0"])
    return check_against_oracle(payload, oracle_tables(spec, prior, n_per_x), {"x0": 1.0})
