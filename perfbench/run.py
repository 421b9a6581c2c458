"""Benchmark of the assistfair package, end to end and per layer.

    python3 perfbench/run.py --workload mc_conjugate --seed 1 --seconds 20 --trace 0

Workloads: ``mc_conjugate``, ``mc_grid``, ``mc_wide`` (back-to-back
``mc_expected_metrics`` jobs in one fresh interpreter) and ``cli_claims`` (one
``python -m assistfair.cli`` process at a time through a fixed script). There
is one closed-loop caller: each job starts when the previous one returns.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time, median
and tail job time, jobs per second and peak memory. With ``--trace 1`` it
reports per-layer times and counts, recorded by wrappers around each module's
functions (see ``spans.py``), and the tracing overhead. Every job's output is
checked; failed jobs are counted in ``failed``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, ``detail: {...}``, records the machine, the
versions, the inputs' properties and the tail percentile used.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from workloads import ROOT, SRC

OUT_DIR = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

END_TO_END_UNITS = {"setup_s": "s", "job_s_p50": "s", "job_s_tail": "s",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}
# BLAS pinned to one thread: one process, one caller, no threads.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
THREADS_ENV = "ASSISTFAIR_THREADS"

# Per scale: worker processes (and so set-up samples) per run, start-up probe
# samples, and the fewest jobs a timed run ends with (40 leaves ten jobs
# beyond the p75).
SCALES = {"full": {"workers": 5, "probe_samples": 3, "min_jobs": 40},
          "tiny": {"workers": 1, "probe_samples": 1, "min_jobs": 2}}
# Job indices of worker i start at i * JOB_INDEX_STRIDE, so no two jobs share a seed.
JOB_INDEX_STRIDE = 1_000_000
# Timed loops stop here even below min_jobs, so a run ends within 180 s.
LOOP_CAP_S = 100.0
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Statistics


def tail(times: list) -> tuple:
    """The highest percentile of job time with TAIL_BEYOND jobs beyond it.

    That is the (TAIL_BEYOND + 1)-th slowest job, at percentile
    100 * (n - TAIL_BEYOND) / n; it moves smoothly with the job count.
    Returns (value, percentile, jobs beyond). With too few jobs the slowest
    job is reported as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def job_summary(times: list, wall: float) -> tuple:
    value, pct, beyond = tail(times)
    metrics = {"job_s_p50": statistics.median(times), "job_s_tail": value,
               "jobs_per_s": len(times) / wall}
    detail = {"jobs": len(times), "tail_percentile": pct, "jobs_beyond_tail": beyond,
              "job_s_min": min(times), "job_s_max": max(times), "loop_wall_s": wall}
    return metrics, detail


# ---------------------------------------------------------------------------
# Processes


def wall_of(argv: list, env: dict) -> tuple:
    """Wall time of one child run to completion, and its stderr."""
    began = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - began
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stderr


def loop_cap(seconds: float) -> float:
    return max(seconds, min(LOOP_CAP_S, 4.0 * seconds))


def start_worker(args, mode: str, env: dict, workers: int, index: int) -> tuple:
    """Start worker ``index`` of ``workers``, which runs its share of the jobs,
    and wait for READY; returns (process, seconds to READY). The last worker
    also reports the inputs' properties."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode, "--scale", args.scale,
            "--seconds", str(args.seconds / workers),
            "--min-jobs", str(-(-SCALES[args.scale]["min_jobs"] // workers)),
            "--cap", str(loop_cap(args.seconds) / workers),
            "--first-job", str(index * JOB_INDEX_STRIDE), "--spans-out", str(spans_path(args))]
    if index == workers - 1:
        argv.append("--describe")
    began = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - began
        if line.strip() != "READY":
            proc.wait(timeout=CHILD_TIMEOUT_S)
            raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready


def finish_worker(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def spans_path(args) -> Path:
    return OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"


def startup_probes(env: dict, samples: int) -> dict:
    """Interpreter start, package import, and the scipy share of that import."""
    py = sys.executable
    wall_of([py, "-c", "import assistfair.cli"], env)   # fills the bytecode cache
    interp, imports, scipy = [], [], []
    for _ in range(samples):
        interp.append(wall_of([py, "-c", "pass"], env)[0])
        imports.append(wall_of([py, "-c", "import assistfair.cli"], env)[0])
        scipy.append(scipy_import_s(
            wall_of([py, "-X", "importtime", "-c", "import assistfair.cli"], env)[1]))
    interpreter = statistics.median(interp)
    return {"cli.interpreter_s": interpreter,
            "cli.import_s": statistics.median(imports) - interpreter,
            "cli.import_scipy_s": statistics.median(scipy)}


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the outermost scipy modules in ``-X importtime``."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        module = name.strip()
        if module == "scipy" or module.startswith("scipy."):
            entries.append((len(name) - len(name.lstrip()), int(parts[1])))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


# ---------------------------------------------------------------------------
# mc workloads


def run_mc(args, env: dict) -> dict:
    """The timed run is split over several fresh worker processes in turn.

    Job times within one process are steady, but differ by up to about 10%
    between processes; pooling the jobs of several evens that out. Each
    worker's time to READY is one set-up sample.
    """
    scale = SCALES[args.scale]
    if args.trace:
        probes = startup_probes(env, scale["probe_samples"])
        result = finish_worker(start_worker(args, "trace", env, 1, 0)[0])
        return trace_result(result, probes)
    # fills the bytecode cache, as for any user after installing
    wall_of([sys.executable, "-c", "import assistfair"], env)
    workers = scale["workers"]
    times, setups, peaks, failures, wall = [], [], [], [], 0.0
    for index in range(workers):
        proc, ready = start_worker(args, "run", env, workers, index)
        result = finish_worker(proc)
        setups.append(ready)
        times += result["times"]
        wall += result["wall"]
        peaks.append(result["peak_rss_mb"])
        failures += result["failures"]
    metrics, detail = job_summary(times, wall)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(peaks)
    detail.update({"setup_samples_s": setups, "workers": workers})
    return {"metrics": metrics, "detail": detail, "attempted": len(times),
            "failed": len(failures), "failures": failures,
            "properties": result["properties"]}


def trace_result(result: dict, probes: dict) -> dict:
    plain = statistics.median(result["untraced_times"])
    traced = statistics.median(result["traced_times"])
    layers = dict(result["layers"])
    layers.update(probes)
    layers["trace.job_s_p50_overhead"] = traced - plain
    layers["trace.overhead_frac"] = traced / plain - 1.0
    detail = {"untraced_jobs": len(result["untraced_times"]),
              "traced_jobs": len(result["traced_times"]),
              "untraced_job_s_p50": plain, "traced_job_s_p50": traced}
    return {"metrics": layers, "detail": detail, "attempted": result["attempted"],
            "failed": result["failed"], "failures": result["failures"],
            "properties": result["properties"]}


# ---------------------------------------------------------------------------
# cli_claims


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def cli_subprocess_job(job, env: dict, logs: Path) -> tuple:
    """One CLI process: (exit code, peak RSS in KB, stdout)."""
    out_path = logs / f"{job.out.name}.stdout"
    with open(out_path, "w", encoding="utf-8") as out, \
            open(logs / f"{job.out.name}.stderr", "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, "-m", "assistfair.cli", *job.argv],
                                env=env, cwd=ROOT, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(int(CHILD_TIMEOUT_S))
        try:
            # wait4, unlike wait, reports this child's own peak memory
            _pid, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            raise BenchError(f"{job.label} did not finish in {CHILD_TIMEOUT_S:.0f} s")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, out_path.read_text(encoding="utf-8")


def cli_inprocess_job(cli, job) -> tuple:
    """The same argument list through ``assistfair.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an escaped exception is exit 1 for a real process
            code = 1
    return code, 0, out.getvalue()


def check_cli_job(job, output) -> str | None:
    """Check a CLI job's outputs, then delete them."""
    code, _rss_kb, stdout = output
    try:
        return workloads.check_cli(job, code, stdout)
    finally:
        shutil.rmtree(job.out, ignore_errors=True)


def cli_loop(run_job, workdir: Path, args, seconds: float, min_jobs: int, cap: float,
             first_pass: int, tracer=None) -> tuple:
    """Whole passes of the script; see timed_loop. Whole passes keep the mix
    of commands the same whatever the run length."""
    passes = workloads.cli_passes(workdir, args.seed, args.scale, first_pass)
    return workloads.timed_loop(passes, run_job, check_cli_job, seconds, min_jobs, cap,
                                tracer)


def run_cli(args, env: dict) -> dict:
    scale = SCALES[args.scale]
    workdir = OUT_DIR / f"cli-{os.getpid()}"
    cap = loop_cap(args.seconds)
    sys.path.insert(0, str(SRC))   # the checks use the package's oracle
    try:
        workloads.write_cli_configs(workdir, args.seed, args.scale)
        if args.trace:
            return run_cli_trace(args, env, workdir, cap)
        help_argv = [sys.executable, "-m", "assistfair.cli", "--help"]
        wall_of(help_argv, env)   # fills the bytecode cache
        setups = [wall_of(help_argv, env)[0] for _ in range(scale["workers"])]
        logs = workdir / "logs"
        logs.mkdir()
        peaks = []

        def run_job(job):
            output = cli_subprocess_job(job, env, logs)
            peaks.append(output[1])
            return output

        times, failures, wall = cli_loop(run_job, workdir, args, args.seconds,
                                         scale["min_jobs"], cap, 0)
        metrics, detail = job_summary(times, wall)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = max(peaks) / 1024.0
        detail.update({"setup_samples_s": setups,
                       "passes": len(times) // workloads.JOBS_PER_PASS})
        return {"metrics": metrics, "detail": detail, "attempted": len(times),
                "failed": len(failures), "failures": failures,
                "properties": workloads.cli_properties(args.scale)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_cli_trace(args, env: dict, workdir: Path, cap: float) -> dict:
    probes = startup_probes(env, SCALES[args.scale]["probe_samples"])
    from assistfair import cli

    import spans

    def job(item):
        return cli_inprocess_job(cli, item)

    half = args.seconds / 2.0
    plain, failures, _ = cli_loop(job, workdir, args, half, 1, cap / 2.0, 0)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced, traced_failures, _ = cli_loop(job, workdir, args, half, 1, cap / 2.0,
                                              len(plain) // workloads.JOBS_PER_PASS, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path(args))
    result = {"untraced_times": plain, "traced_times": traced,
              "attempted": len(plain) + len(traced), "failed": len(failures + traced_failures),
              "failures": failures + traced_failures,
              "layers": spans.layer_metrics(tracer, len(traced)),
              "properties": workloads.cli_properties(args.scale)}
    return trace_result(result, probes)


# ---------------------------------------------------------------------------
# Result


def environment(seed: int, caller_threads) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "workload_seed": seed,
        THREADS_ENV: "unset",
        f"{THREADS_ENV}_in_caller_env": caller_threads,
        **SINGLE_THREAD_ENV,
    }


def git_commit():
    """HEAD of the checkout, or None when the checkout is not its own git tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metric_units(trace: bool) -> dict:
    if not trace:
        return END_TO_END_UNITS
    import spans
    return {entry["name"]: entry["unit"] for entry in spans.layer_table()}


def report(args, result: dict) -> dict:
    units = metric_units(bool(args.trace))
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_frac':<44} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for failure in result["failures"][:5]:
        print(f"  failed: {failure}")
    detail = {"workload": args.workload, "failed_frac": failed / attempted,
              **result["detail"], "inputs": result["properties"],
              "environment": result["environment"]}
    print("detail: " + json.dumps(detail, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "assistfair" / "__init__.py").is_file():
        print(f"perfbench: no assistfair package at {SRC}", file=sys.stderr)
        return 2
    # this process and every child: the default single worker, one BLAS thread
    caller_threads = os.environ.pop(THREADS_ENV, None)
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ)
    try:
        if args.workload in workloads.MC_WORKLOADS:
            result = run_mc(args, env)
        else:
            result = run_cli(args, env)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result["environment"] = environment(args.seed, caller_threads)
    line = report(args, result)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
