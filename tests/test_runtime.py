"""Process-level properties: what importing the package pulls in, and how
the heap behaves across repeated jobs."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_child(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    out = run_child(
        "import sys\n"
        "import assistfair.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    assert out.strip() == "[]"


MINOR_FAULTS = """
import resource
import assistfair as af

spec = af.ProblemSpec(covariates=("x0",), covariate_probs={"x0": 1.0},
                      group_probs={"x0": 0.5},
                      true_means={("x0", 0): -0.1, ("x0", 1): 0.1}, noise_var=1.0)
prior = af.ConjugateNormalPrior(beta={("x0", 0): -0.5, ("x0", 1): 0.5}, tau_sq=1.0)
config = af.TrainingConfig(counts={("x0", 0): 200, ("x0", 1): 200}, seed=7)
for _ in range(3):
    af.mc_expected_metrics(spec, prior, config, reps=9000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    af.mc_expected_metrics(spec, prior, config, reps=9000)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
@pytest.mark.skipif(any(k.startswith("MALLOC_") or k == "GLIBC_TUNABLES" for k in os.environ),
                    reason="a fixed malloc threshold turns glibc's dynamic one off")
def test_repeated_jobs_reuse_a_warm_heap():
    # a heap trimmed after every job faults its pages back in: about 500
    # minor faults per call at this size, against 0 on a warm heap
    assert float(run_child(MINOR_FAULTS)) < 20


def test_consistency_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique and np.median import numpy.ma lazily, about 13 ms warm and
    # 34 ms cold, which no other command pays
    out = run_child(
        "import sys\n"
        "from assistfair.cli import main\n"
        f"main(['verify', 'consistency', '--reps', '20', '--out', {str(tmp_path)!r}])\n"
        "print('numpy.ma' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


GRID_BITS = """
import numpy as np
import assistfair as af

points, weights = af.normal_marginal_grid(0.0, 1.0, n_points=101)
prior = af.GridPrior(points={"x0": af.product_grid(points + 0.5, weights,
                                                   points - 0.5, weights)})
out = [prior.prior_mean("x0", g) for g in (0, 1)]
for signals in (np.asarray([0.3]), np.linspace(-3.0, 3.0, 40)):
    for g in (0, 1):
        out.extend(prior.posterior_aware(signals, 3, 1.0, "x0", g))
    for decisions in prior.posterior_blind(signals, (37, 11), 1.0, "x0"):
        out.extend(decisions)
# consistency's shape, 500 signals x 2,001 centres, where a BLAS matrix-vector
# product splits its rows' sums
points, weights = af.normal_marginal_grid(0.0, 1.0)
diagonal = af.GridPrior(points={"x0": af.diagonal_grid(points, weights)})
out.extend(diagonal.posterior_aware(np.linspace(-3.0, 3.0, 500), 10, 1.0, "x0", 1))
print(" ".join(float(v).hex() for v in out))
"""


def test_grid_decisions_do_not_depend_on_the_blas_thread_count():
    # a BLAS dot or matrix product splits long sums across threads, which
    # changes their order; on a one-CPU machine both runs may use one thread
    runs = []
    for threads in ("1", "2"):
        env = {**ENV, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", GRID_BITS], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
