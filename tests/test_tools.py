"""The repository's command-line tools, run as their users run them."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_verdict_digest_refuses_a_revision_git_cannot_archive():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "verdict_digest.py"),
         "--seeds", "1", "--against", "no-such-rev"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("verdict_digest: cannot archive no-such-rev: ")
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr


def _verdict_digest():
    spec = importlib.util.spec_from_file_location(
        "verdict_digest", ROOT / "tools" / "verdict_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest_lines(moved=()):
    """``print_digests`` lines for seeds 201 and 7, with the digests in
    ``moved`` (name, seed) changed."""
    return [
        f"seed {seed} {name} {'1' if (name, seed) in moved else '0'}{name} (9 verdicts)"
        for seed in (201, 7) for name in ("tune", "state", "replay", "edge", "walk")
    ]


@pytest.mark.parametrize(
    "moved, declared, problems",
    [
        ((), set(), []),
        ((("walk", 7),), set(), ["walk: changed, not declared"]),
        ((("walk", 7),), {"walk"}, []),
        ((("walk", 7), ("walk", 201), ("tune", 201)), {"walk"}, ["tune: changed, not declared"]),
        ((), {"state"}, ["state: declared, unchanged"]),
        ((("edge", 201),), {"edge", "replay"}, ["replay: declared, unchanged"]),
    ],
)
def test_the_verdict_check_fails_an_undeclared_or_a_declared_unmade_change(
    moved, declared, problems
):
    tool = _verdict_digest()
    assert tool.undeclared(_digest_lines(), _digest_lines(moved), declared) == problems


def test_verdict_digest_refuses_a_change_naming_no_digest():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "verdict_digest.py"),
         "--seeds", "1", "--against", "HEAD", "--changes", "tune,verdicts"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1].endswith("--changes names no digest: verdicts")
