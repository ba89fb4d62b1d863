"""The benchmark harness in perfbench/ still runs against the library.

perfbench/ calls ngfreg by name (set-up helpers, LevelObjective fields, the
traced layers). A change that drops or renames one of those names fails here,
in tier-1, rather than only when the benchmark is run. The run writes only to
the git-ignored .perfbench_out/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reg48_runs_once_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reg48", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def test_reg64_gates_pass_with_two_workers():
    # reg64 runs 2 workers, so its adjoint gate reaches apply_P and apply_Pt
    # with workers=2 for all three P^T variants, which reg48's 1 worker never does
    proc = subprocess.run(
        [sys.executable, "perfbench/gates.py", "--workload", "reg64", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "workers=2" in proc.stdout
    assert proc.stdout.count(": PASS ") == 4


def test_traced_reg64_run_reports_only_the_known_missing_names():
    # the tracer wraps ngfreg names from its own table and lists those the
    # library no longer has: a deletion of another traced name shows up here
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reg64", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    prefix = "missing from the library: "
    missing = [line[len(prefix):].split(", ") for line in lines if line.startswith(prefix)]
    assert missing == [["ngf.ngf_value", "ngf.ngf_gradient_wrt_yhat",
                        "warp.warp_jacobian_apply_transpose", "curvature.curvature_value",
                        "curvature.curvature_gradient", "parallel.run_slabs"]]
