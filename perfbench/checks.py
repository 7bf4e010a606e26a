"""Correctness checks on the program's outputs, run outside the timed region.

Each check raises CheckFailed with a message; the run then reports
``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

from harness import ROOT
from vitalwatch import Verdict
from vitalwatch.board import event_row

# Deltas the reference detector recomputes with a dense solve agree with the
# engine's incremental inverse to well within this.
REFERENCE_TOL = 1e-6
# Scored steps compared against the reference detector; it re-solves the full
# Gram system in Python every step, so the prefix is kept short.
REFERENCE_PREFIX = 150


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def stripped_rows(bed: str, events) -> list[str]:
    """Event archive rows without the wall-clock column."""
    return [event_row(bed, event, wall_time=0.0).split(",", 1)[1] for event in events]


def archive_rows(path: Path, bed: str | None = None) -> list[str]:
    """Data rows of the event archive, wall-clock column stripped."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    rows = [line.split(",", 1)[1] for line in lines]
    if bed is not None:
        rows = [row for row in rows if row.split(",", 1)[0] == bed]
    return rows


def line_count(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle) - 1  # header


def verdicts_only(rows: list[str]) -> list[str]:
    return [row for row in rows if not row.split(",")[1].startswith("data-warning")]


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_oracles", ROOT / "tests" / "_oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_prefix(vectors, timesteps, config, train_steps: int, verdicts: list[Verdict]) -> None:
    """The first REFERENCE_PREFIX scored steps agree with the dense
    ReferenceDetector of the test suite, verdict by verdict."""
    oracles = _load_oracles()
    ref = oracles.ReferenceDetector(
        config.nu1, config.nu2, config.ell, config.sigma, config.lam,
        config.d_similar, config.epsilon_frac, config.prune_period,
        config.usage_floor, config.max_size,
    )
    expected = []
    end = min(len(vectors), train_steps + REFERENCE_PREFIX)
    for i in range(end):
        if i < train_steps:
            ref.warm(vectors[i], timesteps[i])
        else:
            expected.extend(ref.step(vectors[i], timesteps[i]))
    got = verdicts[: len(expected)]
    require(len(got) == len(expected), "fewer verdicts than the reference prefix")
    for want, have in zip(expected, got):
        kind, at, delta, resolves = want
        same = (
            have.kind.value == kind
            and have.at_timestep == at
            and have.resolves_timestep == resolves
            and math.isclose(have.delta, delta, rel_tol=0.0, abs_tol=REFERENCE_TOL)
        )
        require(same, f"verdict {have} differs from reference {want}")


def same_rows(got: list[str], want: list[str], what: str) -> None:
    if got == want:
        return
    first = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )
    raise CheckFailed(
        f"{what}: {len(got)} vs {len(want)} rows, first difference at row {first}: "
        f"{got[first] if first < len(got) else None!r} vs "
        f"{want[first] if first < len(want) else None!r}"
    )


def finite(metrics: dict[str, float]) -> None:
    for name, value in metrics.items():
        require(np.isfinite(value), f"metric {name} is not finite: {value}")
