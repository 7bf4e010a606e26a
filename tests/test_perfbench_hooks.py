"""The benchmark in ``perfbench/`` reaches into the package by name: its
tracer wraps functions in their callers' namespaces and methods on their
classes, and its workloads patch module globals. A rename of any of them
must fail here rather than in the middle of a benchmark run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import vitalwatch.pipeline as pipeline
import vitalwatch.tuning as tuning
from vitalwatch.config import load_settings
from vitalwatch.sources import ReplaySource

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def hooks(tracing) -> list:
    """What each tracer target and the replay read currently resolve to."""
    found = [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _, _ in tracing._TARGETS
    ]
    return [*found, ReplaySource.__dict__["frames"]]


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (its imports name the package's entry points)

    before = hooks(tracing)
    with tracing.Tracer().installed():
        wrapped = hooks(tracing)
    assert all(w is not b for w, b in zip(wrapped, before))
    assert hooks(tracing) == before
    # module globals the workloads patch to cut timing segments
    assert callable(tuning.MeasurementVector)
    assert callable(tuning.score_run)
    assert callable(pipeline.standardized_stream)


def test_tune_grid_config_loads_as_the_workload_expects(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import workloads

    config = inputs.write_config(
        tmp_path,
        "grid_sigma = " + ", ".join(map(str, workloads.TUNE_SIGMAS)),
        "grid_ell = " + ", ".join(map(str, workloads.TUNE_ELLS)),
    )
    settings = load_settings(config)
    deployed = settings.threshold_config()
    assert deployed.sigma == 2.5
    grid = settings.tuning_grid()
    assert len(grid) == 18
    assert deployed in grid


def package_imports(path: Path) -> list[tuple[str, str | None]]:
    """Every ``import vitalwatch...`` (module, None) and ``from vitalwatch...
    import name`` (module, name) in ``path``, at any depth of the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "vitalwatch"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vitalwatch":
            found += [(node.module, a.name) for a in node.names]
    return found


def test_every_package_name_the_benchmark_and_tools_import_resolves():
    # setup_probe.py and verdict_digest.py import inside functions, so a
    # renamed name would otherwise fail only when that function runs.
    files = sorted([*PERFBENCH.glob("*.py"), *(ROOT / "tools").glob("*.py")])
    imports = {(path.name, *item) for path in files for item in package_imports(path)}
    assert {
        ("setup_probe.py", "vitalwatch", "EventArchive"),
        ("setup_probe.py", "vitalwatch", "monitor_run"),
        ("setup_probe.py", "vitalwatch", "read_labels"),
    } <= imports
    missing = []
    for file, module, name in sorted(imports, key=str):
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            missing.append(f"{file}: from {module} import {name}")
    assert missing == []
