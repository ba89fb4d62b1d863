"""Process set-up shared by the benchmark's entry points; import it first.

Pins the BLAS thread pools to one thread before numpy is loaded, so the
threads a run uses never exceed its ``workers`` setting, and makes the
checkout's own ``src/ngfreg`` importable. Without those sources the run
stops with exit code 2 before anything is measured.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

if not (SRC / "ngfreg" / "__init__.py").is_file():
    sys.stderr.write(f"perfbench: no ngfreg sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))
