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
