"""Command-line interface: files, exit codes, determinism, sweeps."""

import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from assistfair import cli
from assistfair.cli import STANDARD_CLAIM_DOCUMENTS, main, parse_bundle, write_json

BASE_CONFIG = {
    "covariates": ["x0"],
    "covariate_probs": {"x0": 1.0},
    "group_probs": {"x0": 0.5},
    "true_means": {"x0": [0.0, 0.0]},
    "noise_var": 1.0,
    "counts": {"x0": [4, 4]},
    "seed": 7,
    "reps": 200,
    "prior": {"kind": "conjugate_normal", "beta": {"x0": [-0.5, 0.5]}, "tau_sq": 1.0},
}


# The child interpreter imports the package from this checkout, installed or not.
SRC = Path(__file__).resolve().parent.parent / "src"
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_process(*args):
    """``python -m assistfair.cli`` in a child process, which also runs
    ``entrypoint``'s ``sys.exit``."""
    return subprocess.run([sys.executable, "-m", "assistfair.cli", *args],
                          capture_output=True, text=True, env=CLI_ENV)


def run_cli(*args):
    """``main`` in this process, with what a child process would return."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def write_config(path, **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def assert_usage_error(code, capsys):
    """Exit 2 with a single ``error:`` line on stderr."""
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestSimulate:
    def test_writes_csv_and_json(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader((out / "metrics.csv").open()))
        assert rows[0] == ["rule", "x", "quantity", "value", "se", "reps", "seed"]
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["reps"] == 200
        assert {r["rule"] for r in payload["rules"]} == {
            "f_minus", "f_plus", "d0", "d_minus", "d_plus"}

    def test_single_rep_reports_missing_se(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", reps=1)
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader((out / "metrics.csv").open()))
        assert all(row[4] == "" for row in rows[1:])
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["rules"][0]["expected_risk"]["se"] is None

    def test_missing_prior_field_exits_2(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["prior"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == 2
        assert "config missing required field: prior" in proc.stderr

    def test_unreadable_config_exits_2(self, tmp_path):
        proc = run_process("simulate", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("overrides", [
        {"reps": "abc"},
        {"counts": {"x0": [4]}},
        {"true_means": {"x0": [0.0, 0.0], "x9": [0.0, 0.0]}},
        {"prior": [1, 2]},
        {"counts": {"x0": [4.5, 4]}},
        {"noise_var": float("inf")},
        {"noise_var": 10**400},
        {"counts": {"x0": [0, 4]}},
    ], ids=["reps-string", "counts-one-element", "unknown-covariate", "prior-list",
            "counts-fractional", "noise-var-infinity", "noise-var-beyond-float",
            "counts-empty-cell"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_empty_rules_list_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "cfg.json", rules=[],
                           sweep={"axis": "delta_mu", "values": [0.2, 0.6]})
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()

    def test_invalid_json_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope", encoding="utf-8")
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    def test_seed_and_reps_flags_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out),
                       "--seed", "123", "--reps", "5")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader((out / "metrics.csv").open()))
        assert rows[1][5] == "5"
        assert rows[1][6] == "123"


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == (
            outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "metrics.json").read_bytes() == (
            outs[1] / "metrics.json").read_bytes()


class TestClosedForm:
    def test_default_parameters_emit_table(self, tmp_path):
        out = tmp_path / "cf"
        proc = run_process("closed-form", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "closed_form.json").read_text())
        by_rule = {e["rule"]: e for e in payload["rules"]}
        assert by_rule["d_plus"]["expected_risk"] == pytest.approx(1.17)
        text = (out / "closed_form.txt").read_text()
        assert "d+" in text
        assert proc.stdout.strip()

    @pytest.mark.parametrize("flag, value", [("--sigma-sq", "inf"), ("--tau-sq", "-inf"),
                                             ("--delta", "nan"), ("--mu-bar", "nan")])
    def test_non_finite_flags_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "cf"
        with pytest.raises(SystemExit) as exc:
            main(["closed-form", f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_json_writer_refuses_nan(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            write_json(path, {"value": float("nan")})
        assert not path.exists()

    def test_odd_n_exits_2(self):
        proc = run_cli("closed-form", "--n", "7")
        assert proc.returncode == 2
        assert "balanced example requires even n" in proc.stderr


class TestVerify:
    def test_thm1_small_run_exits_0(self, tmp_path):
        out = tmp_path / "v"
        proc = run_cli("verify", "thm1", "--reps", "150", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "verify_thm1.json").read_text())
        assert payload["claim_id"] == "thm1"
        assert payload["passed"] is True
        assert "PASS" in proc.stdout

    def test_small_cells_fail_claim_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           true_means={"x0": [-0.1, 0.1]}, counts={"x0": [1, 1]},
                           reps=400)
        out = tmp_path / "v"
        proc = run_cli("verify", "thm1", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        payload = json.loads((out / "verify_thm1.json").read_text())
        assert payload["passed"] is False
        assert payload["success_fraction"] < 0.95

    def test_thm2_zero_gap_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")  # true means are equal
        proc = run_cli("verify", "thm2", "--config", str(cfg))
        assert proc.returncode == 2

    def test_remark2_exits_0(self, tmp_path):
        out = tmp_path / "v"
        proc = run_cli("verify", "remark2", "--reps", "1500", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "verify_remark2.json").read_text())
        assert payload["parameters"]["threshold"] == pytest.approx(0.5)

    def test_remark2_config_must_be_balanced(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", counts={"x0": [2, 10]},
                           prior={"kind": "conjugate_normal", "beta": {"x0": [3.0, 9.0]},
                                  "tau_sq": 1.0})
        out = tmp_path / "v"
        code = main(["verify", "remark2", "--config", str(cfg), "--reps", "50",
                     "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()

    def test_remark2_needs_even_group_probability(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", group_probs={"x0": 0.3})
        out = tmp_path / "v"
        code = main(["verify", "remark2", "--config", str(cfg), "--reps", "50",
                     "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()

    def test_remark2_gap_beyond_its_threshold_names_delta_mu(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", true_means=OVERFLOW_MEANS)
        out = tmp_path / "v"
        code = main(["verify", "remark2", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1, err
        assert err.startswith("error: delta_mu=2e+200 is too large for its threshold"), err
        assert not out.exists()

    def test_remark2_config_echoes_its_levels(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", true_means={"x0": [0.25, 0.25]},
                           prior={"kind": "conjugate_normal", "beta": {"x0": [0.0, 1.0]},
                                  "tau_sq": 1.0})
        out = tmp_path / "v"
        code = main(["verify", "remark2", "--config", str(cfg), "--reps", "50",
                     "--out", str(out)])
        assert code in (0, 1)
        params = json.loads((out / "verify_remark2.json").read_text())["parameters"]
        assert (params["n"], params["beta_bar"], params["mu_bar"]) == (8, 0.5, 0.25)

    def test_remark3_merges_both_regimes(self, tmp_path):
        out = tmp_path / "v"
        proc = run_cli("verify", "remark3", "--reps", "2000", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "verify_remark3.json").read_text())
        tags = {key.split(":")[0] for key in payload["per_inequality"]}
        assert tags == {"delta_mu=0.8", "delta_mu=0.2"}

    def test_consistency_exits_0(self, tmp_path):
        out = tmp_path / "v"
        proc = run_cli("verify", "consistency", "--reps", "80", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "verify_consistency.json").read_text())
        assert payload["passed"] is True
        assert payload["parameters"]["n_grid"] == [10, 100, 1000]

    def test_consistency_level_is_the_required_fraction(self, tmp_path):
        out = tmp_path / "v"
        code = main(["verify", "consistency", "--level", "1.0", "--reps", "80",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "verify_consistency.json").read_text())
        assert payload["level"] == 1.0
        assert payload["passed"] is True

    def test_consistency_truth_outside_support_exits_1(self, tmp_path):
        doc = STANDARD_CLAIM_DOCUMENTS["consistency"]()
        doc["true_means"] = {"x0": [10.0, 10.0]}  # the grid spans [-8, 8]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "v"
        code = main(["verify", "consistency", "--config", str(cfg), "--reps", "20",
                     "--out", str(out)])
        assert code == 1
        payload = json.loads((out / "verify_consistency.json").read_text())
        assert payload["passed"] is False
        assert payload["per_inequality"]["truth_in_support"] == 0.0
        assert payload["notes"] == ["truth outside support"]

    def test_every_claim_verifier_takes_the_common_arguments(self):
        assert set(cli.CLAIM_VERIFIERS) == set(STANDARD_CLAIM_DOCUMENTS)
        for claim, name in cli.CLAIM_VERIFIERS.items():
            params = list(inspect.signature(getattr(cli, name)).parameters)
            assert params[:4] == ["spec", "prior", "config", "reps"], claim

    @pytest.mark.parametrize("claim", ["remark1", "remark2", "remark3"])
    def test_standard_error_claims_reject_one_rep(self, tmp_path, capsys, claim):
        out = tmp_path / "v"
        code = main(["verify", claim, "--reps", "1", "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("level", ["1.5", "0", "-0.2", "nan"])
    def test_level_outside_unit_interval_exits_2(self, tmp_path, capsys, level):
        out = tmp_path / "v"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm1", "--reps", "20", "--level", level, "--out", str(out)])
        assert exc.value.code == 2
        assert "must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_claim_is_usage_error(self):
        proc = run_cli("verify", "nonsense")
        assert proc.returncode == 2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("claim", list(STANDARD_CLAIM_DOCUMENTS))
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, claim, seed):
        out = tmp_path / "v"
        code = main(["verify", claim, "--seed", seed, "--reps", "20", "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("claim", list(STANDARD_CLAIM_DOCUMENTS))
    def test_default_run_is_the_standard_document(self, tmp_path, claim):
        cfg = tmp_path / "standard.json"
        cfg.write_text(json.dumps(STANDARD_CLAIM_DOCUMENTS[claim]()), encoding="utf-8")
        blobs = []
        for name, extra in (("default", []), ("config", ["--config", str(cfg)])):
            out = tmp_path / name
            code = main(["verify", claim, "--reps", "30", "--out", str(out), *extra])
            assert code in (0, 1)
            blobs.append((out / f"verify_{claim}.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("n_grid", ["abc", 10, [10.5], [True], [], [0]])
    def test_malformed_n_grid_exits_2(self, tmp_path, capsys, n_grid):
        doc = STANDARD_CLAIM_DOCUMENTS["consistency"]()
        doc["n_grid"] = n_grid
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "v"
        code = main(["verify", "consistency", "--config", str(cfg), "--reps", "5",
                     "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()

    def test_remark1_needs_a_conjugate_prior(self, tmp_path, capsys):
        grid = {"kind": "grid", "points": {"x0": [[0.5, -0.5, 0.5], [0.0, 0.0, 0.5]]}}
        cfg = write_config(tmp_path / "cfg.json", prior=grid)
        out = tmp_path / "v"
        code = main(["verify", "remark1", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "conjugate-Normal prior" in err and err.count("\n") == 1
        assert not out.exists()


OVERFLOW_MEANS = {"x0": [-1e200, 1e200]}
# a grid prior whose support, (0, 0) and (1, 1), lies far from every signal
FAR_GRID = {"true_means": {"x0": [1e160, 1e160]},
            "prior": {"kind": "grid", "points": {"x0": [[0.0, 0.0, 0.5], [1.0, 1.0, 0.5]]}}}


@pytest.mark.parametrize("command", [
    ["closed-form", "--sigma-sq", "1e200", "--tau-sq", "1e200"],
    ["closed-form", "--mu-bar", "1e308", "--beta-bar=-1e308"],
    ["simulate", "--config", "{cfg}"],
    ["sweep", "--config", "{sweep}"],
    ["verify", "remark3", "--config", "{cfg}"],
    ["simulate", "--config", "{grid}"],
    ["sweep", "--config", "{grid_sweep}"],
    ["verify", "consistency", "--config", "{grid}"],
])
def test_overflowing_results_exit_2_and_write_nothing(tmp_path, capsys, command):
    write_config(tmp_path / "cfg.json", true_means=OVERFLOW_MEANS)
    write_config(tmp_path / "sweep.json", true_means=OVERFLOW_MEANS,
                 sweep={"axis": "noise_var", "values": [1.0, 2.0]})
    write_config(tmp_path / "grid.json", **FAR_GRID)
    write_config(tmp_path / "grid_sweep.json", **FAR_GRID,
                 sweep={"axis": "noise_var", "values": [1.0, 2.0]})
    argv = [arg.format(cfg=tmp_path / "cfg.json", sweep=tmp_path / "sweep.json",
                       grid=tmp_path / "grid.json", grid_sweep=tmp_path / "grid_sweep.json")
            for arg in command]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a float warning would be a second stderr line
        code = main(argv + ["--out", str(out)])
    assert_usage_error(code, capsys)
    assert not out.exists()


class TestSweep:
    def test_empty_axes_behaves_like_simulate(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        proc = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "metrics.csv").exists()
        assert not (out / "sweep.csv").exists()

    def test_gap_sweep_crosses_threshold(self, tmp_path):
        # n = 16 balanced puts the machine threshold at 0.5; the risk gap
        # between the aware and blind predictors must change sign there
        cfg = write_config(
            tmp_path / "cfg.json", counts={"x0": [8, 8]}, reps=400,
            sweep=[{"axis": "delta_mu", "values": [0.1, 0.3, 0.5, 0.7, 0.9]}])
        out = tmp_path / "out"
        proc = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader((out / "sweep.csv").open()))
        assert rows[0] == ["delta_mu", "rule", "x", "quantity", "value", "se",
                           "reps", "seed"]
        risk = {}
        for row in rows[1:]:
            if row[3] == "expected_risk":
                risk.setdefault(float(row[0]), {})[row[1]] = float(row[4])
        gaps = {v: risk[v]["f_plus"] - risk[v]["f_minus"] for v in sorted(risk)}
        assert gaps[0.1] > 0 and gaps[0.3] > 0
        assert gaps[0.7] < 0 and gaps[0.9] < 0

    def test_charts_have_sibling_csvs(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", reps=50,
            sweep=[{"axis": "delta_mu", "values": [0.2, 0.6]}])
        out = tmp_path / "out"
        proc = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        for name in ("sweep_disparity", "sweep_risk"):
            svg = (out / f"{name}.svg").read_text()
            assert svg.startswith("<svg")
            sibling = list(csv.reader((out / f"{name}.csv").open()))
            assert sibling[0] == ["series", "x", "y"]
            points = [row for row in sibling[1:] if not row[0].startswith("vline")]
            assert len(points) == 10  # 5 rules x 2 sweep values
        risk_rows = list(csv.reader((out / "sweep_risk.csv").open()))
        assert any(row[0].startswith("vline") for row in risk_rows[1:])

    def test_gap_sweep_with_an_empty_cell_charts_without_xi(self, tmp_path):
        # xi needs both cells observed; the machine-blind and unassisted rules do not
        cfg = write_config(
            tmp_path / "cfg.json", reps=50, counts={"x0": [0, 4]}, rules=["f_minus", "d0"],
            sweep=[{"axis": "delta_mu", "values": [0.2, 0.6]}])
        out = tmp_path / "out"
        proc = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        for name in ("sweep_disparity", "sweep_risk"):
            assert (out / f"{name}.svg").read_text().startswith("<svg")
        risk_rows = list(csv.reader((out / "sweep_risk.csv").open()))
        assert len(risk_rows) == 1 + 4  # 2 rules x 2 sweep values
        assert not any(row[0].startswith("vline") for row in risk_rows[1:])

    def test_sample_size_sweep_shrinks_assisted_disparity(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", reps=600,
            sweep=[{"axis": "n", "values": [8, 32, 128, 512]}])
        out = tmp_path / "out"
        proc = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader((out / "sweep.csv").open()))
        disp = {}
        for row in rows[1:]:
            if row[1] == "d_plus" and row[3] == "avg_disparity":
                disp[int(row[0])] = float(row[4])
        values = [disp[n] for n in (8, 32, 128, 512)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.05

    def test_unknown_axis_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           sweep=[{"axis": "gravity", "values": [1]}])
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 2
        assert "unknown sweep axis" in proc.stderr

    def test_odd_n_axis_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           sweep=[{"axis": "n", "values": [7]}])
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 2

    def test_invalid_point_leaves_no_output_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           sweep={"axis": "n", "values": [8.5]})
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert_usage_error(code, capsys)
        assert not out.exists()


class TestConfigRoundTrip:
    def test_document_objects_document_identity(self):
        import assistfair as af
        spec, prior, config, reps, kinds = parse_bundle(json.loads(json.dumps(BASE_CONFIG)))
        assert spec == af.ProblemSpec(
            covariates=("x0",), covariate_probs={"x0": 1.0}, group_probs={"x0": 0.5},
            true_means={("x0", 0): 0.0, ("x0", 1): 0.0}, noise_var=1.0)
        assert config == af.TrainingConfig(counts={("x0", 0): 4, ("x0", 1): 4}, seed=7)
        assert prior == af.ConjugateNormalPrior(beta={("x0", 0): -0.5, ("x0", 1): 0.5},
                                                tau_sq=1.0)
        assert (reps, kinds) == (200, list(af.RuleKind))


# ---------------------------------------------------------------------------
# Property: mutated configs through main() never escape the exit-code contract

_COVARIATE_KEYED = ("covariate_probs", "group_probs", "true_means", "counts")


def _paths(node, prefix=()):
    """Every key or index path inside a config document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_configs(draw):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["reps"] = 20
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(("drop", "swap", "fraction", "negative", "nan",
                                   "huge", "unknown")))
        if op == "unknown":
            where = draw(st.sampled_from(_COVARIATE_KEYED + ("prior", "covariates")))
            if where == "covariates":
                doc["covariates"] = ["x9"]
            elif where == "prior":
                beta = doc["prior"].get("beta") if isinstance(doc.get("prior"), dict) else None
                if isinstance(beta, dict):
                    beta["x9"] = [0.0, 1.0]
            elif isinstance(doc.get(where), dict):
                doc[where]["x9"] = doc[where].get("x0", 0.5)
            continue
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _parent(doc, path), path[-1]
        value = parent[key]
        if op == "drop":
            del parent[key]
        elif op == "swap":
            parent[key] = draw(st.sampled_from(
                ["text", [1, 2], {"a": 1}, True, None, 3.5, 7]).filter(
                    lambda new: type(new) is not type(value)))
        elif op == "fraction":
            parent[key] = (value if isinstance(value, (int, float)) else 4) + 0.5
        elif op == "negative":
            parent[key] = -(value if isinstance(value, (int, float)) else 4)
        elif op == "huge":
            parent[key] = draw(st.sampled_from([1e160, -1e160]))
        else:
            parent[key] = draw(st.sampled_from([float("nan"), "NaN"]))
    return doc


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=mutated_configs())
def test_mutated_configs_keep_the_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        for index, command in enumerate((["simulate"], ["verify", "thm1"])):
            out = Path(tmp) / f"out{index}"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(command + ["--config", str(cfg), "--out", str(out)])
            # only a verified claim may fall below its level and exit 1
            assert code in ((0, 1, 2) if command[0] == "verify" else (0, 2)), (command, code)
            if code == 2:
                text = err.getvalue()
                assert text.startswith("error: ") and text.count("\n") == 1, text
            for path in out.glob("*.json"):
                json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
