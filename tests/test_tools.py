"""The repository's command-line tools, run as their users run them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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
