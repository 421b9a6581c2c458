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
