"""Fresh-interpreter process for the mc workloads.

Imports assistfair, builds the workload's inputs and prints ``READY``; the
parent times that as set-up. In ``run`` mode it then times back-to-back jobs
and prints one JSON line with the job times, failures and peak memory. In
``trace`` mode it times the jobs once untraced and once with spans installed,
and prints the per-layer values and both sets of job times.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(workloads.SRC))

MAX_FAILURES_SHOWN = 5
# Job indices of the traced phase start here, so its seeds differ from the
# untraced phase's.
JOB_INDEX_TRACED = 1_000_000


def job_loop(setup, seconds: float, min_jobs: int, cap: float, first: int,
             tracer=None) -> tuple:
    """Back-to-back jobs with job indices from ``first``; see timed_loop."""
    passes = ([workloads.job_config(setup, index)] for index in itertools.count(first))
    return workloads.timed_loop(
        passes, lambda config: workloads.run_mc_job(setup, config),
        lambda config, report: workloads.check_mc(setup, config, report),
        seconds, min_jobs, cap, tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.MC_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--min-jobs", type=int, default=1)
    parser.add_argument("--cap", type=float, default=120.0)
    parser.add_argument("--first-job", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--describe", action="store_true",
                        help="also report the inputs' properties (costly on mc_grid)")
    args = parser.parse_args(argv)

    if args.mode != "trace":
        setup = workloads.build_mc(args.workload, args.seed, args.scale)
        print("READY", flush=True)
        times, failures, wall = job_loop(setup, args.seconds, args.min_jobs, args.cap,
                                         args.first_job)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {"times": times, "wall": wall, "attempted": len(times),
                  "failed": len(failures), "failures": failures[:MAX_FAILURES_SHOWN],
                  "peak_rss_mb": peak_kb / 1024.0,
                  "properties": workloads.mc_properties(setup) if args.describe else None}
        print(json.dumps(result), flush=True)
        return 0

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    index = tracer.open("model.setup")
    setup = workloads.build_mc(args.workload, args.seed, args.scale)
    tracer.close(index)
    tracer.uninstall()
    print("READY", flush=True)
    half = args.seconds / 2.0
    plain, failures, _ = job_loop(setup, half, 1, args.cap / 2.0, 0)
    spans.install(tracer)
    traced, traced_failures, _ = job_loop(setup, half, 1, args.cap / 2.0, JOB_INDEX_TRACED,
                                          tracer)
    tracer.uninstall()
    failures += traced_failures
    if args.spans_out:
        tracer.write(Path(args.spans_out))
    result = {"untraced_times": plain, "traced_times": traced,
              "attempted": len(plain) + len(traced), "failed": len(failures),
              "failures": failures[:MAX_FAILURES_SHOWN],
              "layers": spans.layer_metrics(tracer, len(traced)),
              "properties": workloads.mc_properties(setup)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
