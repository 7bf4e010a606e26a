"""The tests import the package that PYTHONPATH names (see conftest.py)."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import vitalwatch

ROOT = Path(__file__).resolve().parents[1]


def test_a_package_named_by_pythonpath_is_the_one_tested(tmp_path):
    # A copy whose import fails in a way no other copy's can: the run must
    # reach it, not this checkout's src/.
    copy = tmp_path / "src" / "vitalwatch"
    shutil.copytree(Path(vitalwatch.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with (copy / "__init__.py").open("a", encoding="utf-8") as init:
        init.write("\nraise ImportError('imported the copy')\n")
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_kernels.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "imported the copy" in proc.stdout + proc.stderr
