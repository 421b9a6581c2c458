"""In-memory spans around calls into each assistfair module.

Nothing inside ``src/`` is instrumented. ``install`` replaces the module
attributes that callers look up at call time (``rng.ndtri``,
``simulate.grid_posterior_blind``, ``cli.write_json``, ...) with wrappers that
record a span: its name, the job it belongs to, its parent span, and its start
and end. ``uninstall`` puts the originals back. A layer's self time is its span
time minus the time its child spans cover.

Per-layer values are per traced job; spans recorded during the workload's
one-off setup (job ``None``) are added in full.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parent / "layers.json"

# Spans whose self time differs from their total, because wrapped calls nest
# inside them; every other span is a leaf whose ``.s`` is its self time.
PARENT_SPANS = (
    "job", "rng.normal_block", "simulate.replicate_cell_means",
    "simulate.rule_values_from_cell_means", "metrics.mc_expected_metrics",
    "model.setup", "verify",
)
LEAF_SPANS = (
    "rng.ndtri", "rng.derive_key", "decisions.grid_posterior", "decisions.conjugate",
    "decisions.unassisted", "oracle.example_closed_forms", "cli.write",
    "figures.write_chart",
)
CALL_COUNTS = ("rng.derive_key", "decisions.grid_posterior")
COUNTERS = (
    "rng.draws", "decisions.grid_point_evals", "metrics.estimates", "model.grid_points",
    "verify.reps", "cli.bytes_written", "figures.charts",
)


def layer_table() -> list:
    """The per-layer metric table: name, unit, better, and the end-to-end
    metrics and workloads each one should move."""
    with open(LAYERS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Tracer:
    """Span recorder. One tracer per traced run; spans stay in memory."""

    def __init__(self):
        self.spans = []          # [job, name, parent, start, end]
        self.counts = defaultdict(Counter)   # job -> counter name -> value
        self.job = None
        self.paused = False      # calls made while paused record nothing
        self._stack = []
        self._patches = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.job, name, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts[self.job][name] += value

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Route ``owner.attr`` through a span named ``name``.

        ``counter(tracer, args, kwargs, result)`` records counts after the call.
        A missing attribute is skipped, so the benchmark still runs against a
        tree where that function was removed; the layer then reads 0.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["job", "name", "parent", "start", "end"],
                       "spans": self.spans}, handle)


# ---------------------------------------------------------------------------
# Counters, computed from each wrapped call's arguments and result


def _count_draws(tracer, args, kwargs, result):
    tracer.count("rng.draws", int(getattr(result, "size", 1)))


def _count_cell_means(tracer, args, kwargs, result):
    means = sum(int(getattr(arr, "size", 0)) for arr in result.values())
    tracer.count("simulate.cell_means", means)


def _count_grid_evals(tracer, args, kwargs, result):
    prior, signals, x = args[0], args[1], args[4]
    support = prior.points[x][0].size
    tracer.count("decisions.grid_point_evals", support * max(1, int(getattr(signals, "size", 1))))


def _count_estimates(tracer, args, kwargs, result):
    total = 0
    for stats in result.rules.values():
        for value in vars(stats).values():
            if hasattr(value, "se"):
                total += 1
            elif isinstance(value, dict):
                total += sum(1 for v in value.values() if hasattr(v, "se"))
    tracer.count("metrics.estimates", total)


def _count_grid_points(tracer, args, kwargs, result):
    prior = args[0]
    tracer.count("model.grid_points", sum(p[0].size for p in prior.points.values()))


def _count_verify_reps(tracer, args, kwargs, result):
    reps = int(getattr(result, "reps", 0))
    n_grid = getattr(result, "n_grid", None)
    tracer.count("verify.reps", reps * (len(n_grid) if n_grid else 1))


def _count_bytes(tracer, args, kwargs, result):
    try:
        tracer.count("cli.bytes_written", os.path.getsize(args[0]))
    except OSError:
        pass


def _count_chart(tracer, args, kwargs, result):
    tracer.count("figures.charts", 1)


VERIFIERS = (
    "verify_consistency", "verify_disparity_reversal", "verify_machine_regimes",
    "verify_remark1", "verify_remark2", "verify_reordering", "verify_tradeoff_reversal",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads reach."""
    from assistfair import cli, metrics, model, rng, simulate, verify

    tracer.wrap(rng, "ndtri", "rng.ndtri", _count_draws)
    tracer.wrap(rng, "normal_block", "rng.normal_block")
    tracer.wrap(rng, "derive_key", "rng.derive_key")
    tracer.wrap(simulate, "replicate_cell_means", "simulate.replicate_cell_means",
                _count_cell_means)
    tracer.wrap(simulate, "rule_values_from_cell_means",
                "simulate.rule_values_from_cell_means")
    for attr in ("grid_posterior_blind", "grid_posterior_aware"):
        tracer.wrap(simulate, attr, "decisions.grid_posterior", _count_grid_evals)
    for attr in ("decide_assisted_blind_conjugate", "decide_assisted_aware_conjugate"):
        tracer.wrap(simulate, attr, "decisions.conjugate")
    tracer.wrap(simulate, "decide_unassisted", "decisions.unassisted")
    for owner in (metrics, cli, verify):
        tracer.wrap(owner, "mc_expected_metrics", "metrics.mc_expected_metrics",
                    _count_estimates)
    tracer.wrap(model.GridPrior, "__post_init__", "model.setup", _count_grid_points)
    for attr in ("document_to_spec", "document_to_config", "document_to_prior"):
        tracer.wrap(cli, attr, "model.setup")
    for owner in (cli, verify):
        tracer.wrap(owner, "example_closed_forms", "oracle.example_closed_forms")
    for attr in VERIFIERS:
        tracer.wrap(cli, attr, "verify", _count_verify_reps)
    for attr in ("write_csv_rows", "write_json"):
        tracer.wrap(cli, attr, "cli.write", _count_bytes)
    tracer.wrap(cli, "write_chart", "figures.write_chart", _count_chart)


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics


def _span_totals(spans: list) -> tuple:
    """Per (job, name): time of outermost spans of that name, self time, calls."""
    child_time = [0.0] * len(spans)
    for job, name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, self_time, calls = Counter(), Counter(), Counter()
    for index, (job, name, parent, start, end) in enumerate(spans):
        duration = end - start
        self_time[(job, name)] += duration - child_time[index]
        calls[(job, name)] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][1] != name:
            ancestor = spans[ancestor][2]
        if ancestor < 0:
            total[(job, name)] += duration
    return total, self_time, calls


def layer_metrics(tracer: Tracer, n_jobs: int) -> dict:
    """Per-layer values: the setup's share in full plus the mean per traced job."""
    total, self_time, calls = _span_totals(tracer.spans)
    jobs = max(1, n_jobs)

    def per_job(table, key_name):
        setup = table.get((None, key_name), 0)
        in_jobs = sum(v for (job, name), v in table.items() if job is not None and name == key_name)
        return setup + in_jobs / jobs

    counts = Counter()
    for job, counter in tracer.counts.items():
        for name, value in counter.items():
            counts[(job, name)] += value

    out = {}
    for name in PARENT_SPANS + LEAF_SPANS:
        out[f"{name}.s"] = per_job(total, name)
    for name in PARENT_SPANS:
        out[f"{name}.self_s"] = per_job(self_time, name)
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = per_job(calls, name)
    for name in COUNTERS:
        out[name] = per_job(counts, name)
    draws = sum(v for (job, name), v in counts.items() if job is not None and name == "rng.draws")
    means = sum(v for (job, name), v in counts.items()
                if job is not None and name == "simulate.cell_means")
    out["simulate.draws_per_cell_mean"] = draws / means if means else 0.0
    out["trace.spans"] = sum(1 for span in tracer.spans if span[0] is not None) / jobs
    return out
