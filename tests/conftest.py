"""Which ``vitalwatch`` package the tests import.

A package that ``PYTHONPATH`` names wins, so ``PYTHONPATH=/other/src python
-m pytest`` tests that checkout's package; otherwise this checkout's
``src/`` goes first on ``sys.path``. If the package imported is still not
the chosen one (something imported another copy first), the run stops and
names both paths rather than test the wrong package.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _chosen_src() -> Path:
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (Path(entry) / "vitalwatch" / "__init__.py").is_file():
            return Path(entry).resolve()
    sys.path.insert(0, str(SRC))
    return SRC


_chosen = _chosen_src()
import vitalwatch  # noqa: E402

_imported = Path(vitalwatch.__file__).resolve().parents[1]
if _imported != _chosen:
    pytest.exit(
        f"the tests would import vitalwatch from {_imported}, not from {_chosen}",
        returncode=4,
    )
