"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing shows
one line per criterion. Each test also prints a [PASS]/[FAIL] line with the
measured numbers (visible with ``-s`` or on failure).
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import assistfair as af
from assistfair import rng

SEED = 20240817


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def canonical_spec(delta_mu=0.0, noise_var=1.0):
    return af.ProblemSpec(
        covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
        true_means={("x0", 0): -delta_mu / 2, ("x0", 1): delta_mu / 2},
        noise_var=noise_var,
    )


def canonical_prior(delta=1.0):
    return af.ConjugateNormalPrior(
        beta={("x0", 0): -delta / 2, ("x0", 1): delta / 2}, tau_sq=1.0)


def balanced_config(half, seed=SEED):
    return af.TrainingConfig(counts={("x0", 0): half, ("x0", 1): half}, seed=seed)


# The child interpreter imports the package from this checkout, installed or not.
SRC = Path(__file__).resolve().parent.parent / "src"
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "assistfair.cli", *args],
                          capture_output=True, text=True, env=CLI_ENV)


ORACLE_DISPARITY = {
    af.RuleKind.F_MINUS: 0.0, af.RuleKind.F_PLUS: 0.0, af.RuleKind.D0: 1.0,
    af.RuleKind.D_MINUS: 1.0, af.RuleKind.D_PLUS: 0.2,
}
ORACLE_RISK = {
    af.RuleKind.F_MINUS: 1.125, af.RuleKind.F_PLUS: 1.25, af.RuleKind.D0: 1.25,
    af.RuleKind.D_MINUS: 1.33, af.RuleKind.D_PLUS: 1.17,
}


def test_criterion_01_table_reproduction_200k_reps():
    start = time.perf_counter()
    rep = af.mc_expected_metrics(canonical_spec(), canonical_prior(),
                                 balanced_config(4), None, 200000)
    elapsed = time.perf_counter() - start
    worst_z, max_se = 0.0, 0.0
    ok = elapsed <= 60.0
    for kind in af.RuleKind:
        stats = rep.rule(kind)
        for est, target in ((stats.avg_disparity, ORACLE_DISPARITY[kind]),
                            (stats.expected_risk, ORACLE_RISK[kind])):
            tol = 3 * est.se + 1e-12
            ok = ok and abs(est.value - target) <= tol and est.se < 0.01
            if est.se > 0:
                worst_z = max(worst_z, abs(est.value - target) / est.se)
            max_se = max(max_se, est.se)
    report(1, "closed-form table reproduced by 2e5 replications",
           ok, f"worst z={worst_z:.2f}, max se={max_se:.4f}, {elapsed:.1f}s")


def test_criterion_02_exact_invariants_every_replication():
    values = af.replicate_rule_values(
        canonical_spec(), canonical_prior(), balanced_config(4),
        [af.RuleKind.F_MINUS, af.RuleKind.D_MINUS], 10000)
    fm = values[af.RuleKind.F_MINUS]
    dm = values[af.RuleKind.D_MINUS]
    blind_gap = np.abs(fm[("x0", 1)] - fm[("x0", 0)])
    assisted_gap = np.abs(dm[("x0", 1)] - dm[("x0", 0)] - 1.0)
    ok = bool(blind_gap.max() == 0.0 and assisted_gap.max() <= 1e-12)
    report(2, "blind disparity 0 and balanced assisted disparity delta to 1e-12",
           ok, f"max deviations {blind_gap.max():.1e}, {assisted_gap.max():.1e}")


def test_criterion_03_conjugate_grid_equivalence_20_tuples():
    # means drawn from the prior, signals from the model: the regime where
    # the bounded grid support is a faithful stand-in for the conjugate prior
    draws = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        b0, b1 = draws.uniform(-2, 2, size=2)
        tau_sq = draws.uniform(0.25, 4.0)
        sigma_sq = draws.uniform(0.25, 4.0)
        n0, n1 = int(draws.integers(1, 50)), int(draws.integers(1, 50))
        mu0 = b0 + math.sqrt(tau_sq) * draws.standard_normal()
        mu1 = b1 + math.sqrt(tau_sq) * draws.standard_normal()
        pooled = ((n1 * mu1 + n0 * mu0) / (n1 + n0)
                  + math.sqrt(sigma_sq / (n1 + n0)) * draws.standard_normal())
        prior = af.ConjugateNormalPrior(beta={("x0", 0): b0, ("x0", 1): b1},
                                        tau_sq=tau_sq)
        grid = af.dense_grid_from_conjugate(prior, ["x0"])
        for g in (0, 1):
            n_cell = n1 if g else n0
            own = ((mu1 if g else mu0)
                   + math.sqrt(sigma_sq / n_cell) * draws.standard_normal())
            worst = max(worst, abs(
                prior.posterior_aware(own, n_cell, sigma_sq, "x0", g)
                - grid.posterior_aware(own, n_cell, sigma_sq, "x0", g)))
            worst = max(worst, abs(
                prior.posterior_blind(pooled, (n1, n0), sigma_sq, "x0")[g]
                - grid.posterior_blind(pooled, (n1, n0), sigma_sq, "x0")[g]))
    report(3, "grid posteriors match conjugate closed forms to 1e-6",
           worst < 1e-6, f"worst |gap|={worst:.2e}")


def test_criterion_04_disparity_reversal_holds(tmp_path):
    proc = run_cli("verify", "thm1", "--out", str(tmp_path))
    payload = json.loads((tmp_path / "verify_thm1.json").read_text())
    fraction = payload["success_fraction"]
    tiny = af.verify_disparity_reversal(canonical_spec(0.2), canonical_prior(),
                                        balanced_config(1), 1000)
    ok = (proc.returncode == 0 and fraction >= 0.95
          and tiny.success_fraction < fraction)
    report(4, "reversal claim verified at standard parameters, noisier at n=1",
           ok, f"fraction={fraction:.3f}, n=1 fraction={tiny.success_fraction:.3f}")


def test_criterion_05_reordering_holds(tmp_path):
    proc = run_cli("verify", "cor1", "--out", str(tmp_path))
    payload = json.loads((tmp_path / "verify_cor1.json").read_text())
    ok = proc.returncode == 0 and payload["success_fraction"] >= 0.95
    report(5, "two-tier disparity reordering verified",
           ok, f"fraction={payload['success_fraction']:.3f}")


def test_criterion_06_tradeoff_reversal_holds(tmp_path):
    proc = run_cli("verify", "thm2", "--out", str(tmp_path))
    payload = json.loads((tmp_path / "verify_thm2.json").read_text())
    ok = proc.returncode == 0 and payload["success_fraction"] >= 0.95
    report(6, "assistance trade-off reversal verified (joint event)",
           ok, f"fraction={payload['success_fraction']:.3f}")


def test_criterion_07_machine_regimes():
    spec_hi, spec_lo = canonical_spec(0.8), canonical_spec(0.2)
    cfg = balanced_config(8)
    xi = af.xi_threshold_general(spec_hi, cfg, "x0")
    ok = abs(xi - 0.5) < 1e-12
    hi_risks = af.machine_risk_expectations(spec_hi, cfg, "x0")
    lo_risks = af.machine_risk_expectations(spec_lo, cfg, "x0")
    ok = ok and hi_risks == (pytest.approx(1.125), pytest.approx(1.2225))
    ok = ok and lo_risks == (pytest.approx(1.125), pytest.approx(1.0725))
    hi = af.verify_machine_regimes(spec_hi, canonical_prior(), cfg, 20000)
    lo = af.verify_machine_regimes(spec_lo, canonical_prior(), cfg, 20000)
    ok = (ok and hi.success_fraction == 1.0 and lo.success_fraction == 1.0
          and hi.parameters["x0"]["regime"] == "trade_off"
          and lo.parameters["x0"]["regime"] == "dominance")
    report(7, "machine trade-off and dominance regimes reproduced around xi=0.5",
           ok, f"xi={xi}, risks {hi_risks} and {lo_risks}")


def test_criterion_08_assistance_threshold():
    star = af.delta_threshold_example(1.0, 1.0, 12, 0.0)
    table = af.example_closed_forms(1.0, 1.0, 12, star, 0.0, 0.0, 0.0)
    tie_gap = abs(table.expected_risk[af.RuleKind.D_PLUS]
                  - table.expected_risk[af.RuleKind.D_MINUS])
    out = af.verify_remark2(canonical_spec(0.0), canonical_prior(), balanced_config(6, SEED),
                            20000)
    ok = (star == 0.5 and tie_gap < 1e-10 and out.success_fraction == 1.0)
    report(8, "assisted-risk crossover at delta*=0.5, both sides within 3 SE",
           ok, f"threshold={star}, oracle tie gap={tie_gap:.1e}")


def test_criterion_09_posterior_consistency():
    pts, w = af.normal_marginal_grid(0.0, 1.0)
    prior = af.GridPrior(points={"x0": af.diagonal_grid(pts, w)})
    spec = af.ProblemSpec(
        covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
        true_means={("x0", 0): 0.3, ("x0", 1): 0.3}, noise_var=1.0)
    out = af.verify_consistency(spec, prior, balanced_config(10, SEED), 500,
                                n_grid=[10, 100, 1000])
    medians = out.parameters["medians"]
    meds = ", ".join(f"{m:.4f}" for m in medians)
    desc = "grid posterior median error shrinks over n in {10,100,1000}"
    report(9, desc + ": truth in support", out.per_inequality["truth_in_support"] == 1.0,
           f"medians {meds}")
    report(9, desc + ": weakly decreasing",
           all(b <= a + 0.02 for a, b in zip(medians, medians[1:])), f"medians {meds}")
    report(9, desc + ": last median below 0.05", medians[-1] < 0.05, f"medians {meds}")


def test_criterion_10_byte_identical_determinism(tmp_path):
    config = {
        "covariates": ["x0"], "covariate_probs": {"x0": 1.0},
        "group_probs": {"x0": 0.5}, "true_means": {"x0": [-0.1, 0.1]},
        "noise_var": 1.0, "counts": {"x0": [4, 4]}, "seed": 7, "reps": 300,
        "prior": {"kind": "conjugate_normal", "beta": {"x0": [-0.5, 0.5]},
                  "tau_sq": 1.0},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "metrics.csv").read_bytes()
                     + (out / "metrics.json").read_bytes())
    verify_blobs = []
    for name in ("va", "vb"):
        out = tmp_path / name
        proc = run_cli("verify", "thm1", "--reps", "150", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        verify_blobs.append((out / "verify_thm1.json").read_bytes())
    ok = all(b == blobs[0] for b in blobs) and verify_blobs[0] == verify_blobs[1]
    report(10, "identical bytes across reruns", ok)
