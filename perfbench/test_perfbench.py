"""Smoke test of the benchmark at a tiny size.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a job whose output is off the oracle counts as failed, and that the benchmark
refuses to run where the package is missing.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_end_to_end_metrics_emitted_with_units():
    assert_metrics(result_line(bench("mc_conjugate", 0)), BENCH["end_to_end"])


def test_per_layer_metrics_emitted_with_units():
    result = result_line(bench("cli_claims", 1))
    assert_metrics(result, BENCH["per_layer"])
    # the script reaches every cli-side layer
    for name in ("verify.s", "cli.write.s", "figures.charts", "oracle.example_closed_forms.s",
                 "decisions.grid_posterior.calls", "rng.draws"):
        assert result["metrics"][name]["value"] > 0, name


def test_layer_table_matches_benchmark_json():
    table = spans.layer_table()
    assert [{k: e[k] for k in ("name", "unit", "better")} for e in table] == BENCH["per_layer"]
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    names = {w["name"] for w in BENCH["workloads"]}
    for entry in table:
        for target in entry["moves"]:
            assert target["metric"] in end_to_end and target["workload"] in names


def test_off_oracle_job_counts_as_failed(monkeypatch):
    setup = workloads.build_mc("mc_conjugate", 7, "tiny")
    shifted = dataclasses.replace(setup, spec=dataclasses.replace(
        setup.spec, true_means={cell: mu + 1.0 for cell, mu in setup.spec.true_means.items()}))
    honest = workloads.run_mc_job
    monkeypatch.setattr(workloads, "run_mc_job", lambda _setup, config: honest(shifted, config))
    times, failures, _wall = worker.job_loop(setup, 0.0, 3, 60.0, 0)
    assert len(times) == 3 and len(failures) == 3
    assert "off the closed form" in failures[0]


def test_cli_checks_catch_wrong_outputs(tmp_path):
    job = workloads.CliJob("closed-form", [], tmp_path / "cf")
    job.out.mkdir()
    (job.out / "closed_form.json").write_text('{"inputs": {}, "rules": []}', encoding="utf-8")
    assert "oracle" in workloads.check_cli(job, 0, "")
    verify = workloads.CliJob("verify-thm1", [], tmp_path / "v")
    verify.out.mkdir()
    (verify.out / "verify_thm1.json").write_text('{"passed": true}', encoding="utf-8")
    assert workloads.check_cli(verify, 0, "") is None
    assert "contract" in workloads.check_cli(verify, 1, "")
    (verify.out / "verify_thm1.json").write_text('{"passed": true, "x": NaN}', encoding="utf-8")
    assert "non-finite" in workloads.check_cli(verify, 0, "")


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("mc_conjugate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
