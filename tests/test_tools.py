"""The repository's command-line tools, run as their users run them."""

from __future__ import annotations

import importlib.util
import json
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
        for seed in (201, 7) for name in ("tune", "state", "report", "replay", "edge", "walk")
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


def _perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "tools" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(correct=True, failed=0, **values):
    metrics = {name: {"value": value, "unit": "u"} for name, value in values.items()}
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


@pytest.mark.parametrize(
    "returncode, stdout, refusal",
    [
        (0, "notes\n" + '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}', None),
        (1, "check failed: x\n" + '{"correct": false, "attempted": 1, "failed": 1}', "exit 1, correct: false"),
        (0, '{"correct": false, "attempted": 1, "failed": 1}', "exit 0, correct: false"),
        (2, "perfbench: tests/_oracles.py not found", "exit 2, no result line"),
        (1, "", "exit 1, no result line"),
    ],
    ids=["correct", "failed-check", "incorrect-exit-0", "no-checkout", "no-output"],
)
def test_a_run_counts_only_when_it_exits_0_and_is_correct(returncode, stdout, refusal):
    tool = _perf_pairs()
    if refusal is None:
        assert tool.run_record(returncode, stdout)["correct"] is True
    else:
        with pytest.raises(tool.RunFailed, match=f"^{refusal}$"):
            tool.run_record(returncode, stdout)


LATENCY = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
RATE = {"name": "frames_per_s", "unit": "frames/s", "better": "higher", "bound": 0.2}


@pytest.mark.parametrize(
    "metric, base, change, wins, verdict",
    [
        # a tie counts for neither side
        (LATENCY, [10, 10, 10, 10], [9, 10, 11, 9], 2, "within bound"),
        (LATENCY, [10, 10, 10, 10], [14, 13, 14, 13], 0, "worse than bound"),
        (RATE, [100, 100, 100, 100], [70, 90, 75, 72], 0, "worse than bound"),
        (RATE, [100, 100, 100, 100], [85, 90, 101, 95], 1, "within bound"),
        # the base's quartiles 7.5 and 17 lie more than 0.25 x 12 apart
        (LATENCY, [6, 8, 16, 20], [18, 17, 16, 21], 0, "unresolved (base spread wider than bound)"),
        # as wide, but every change run reads better than every base run
        (LATENCY, [6, 8, 16, 20], [5, 4, 5, 3], 4, "within bound"),
    ],
    ids=["ties", "worse", "worse-higher-better", "within-higher-better", "unresolved", "all-better"],
)
def test_each_metric_is_judged_against_its_bound(metric, base, change, wins, verdict):
    judged = _perf_pairs().judge(metric, base, change)
    assert (judged["wins"], judged["verdict"]) == (wins, verdict)


@pytest.mark.parametrize(
    "change, met",
    [
        ([0.90] * 9 + [1.05], True),  # 9 of 10, gap 0.1 against a spread of 0.02
        ([0.90] * 8 + [1.05] * 2, False),  # 8 of 10
        ([0.99] * 10, False),  # 10 of 10, but the gap 0.01 is inside the spread
    ],
    ids=["met", "too-few-wins", "gap-inside-spread"],
)
def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_base_spread(
    change, met
):
    tool = _perf_pairs()
    base = [0.99, 1.0, 1.01, 1.0, 0.98, 1.02, 1.0, 1.0, 0.99, 1.01]
    judged = tool.judge(LATENCY, base, change)
    assert tool.claim_met(judged, len(base)) is met


def test_the_report_names_every_end_to_end_metric():
    tool = _perf_pairs()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    base = [_record(**{m["name"]: 2.0 for m in metrics}) for _ in range(3)]
    change = [_record(failed=2, **{m["name"]: 2.0 for m in metrics}) for _ in range(3)]
    lines = tool.table(metrics, base, change, "latency_p50_ms")
    for metric in metrics:
        (row,) = [line for line in lines if line.split()[0] == metric["name"]]
        assert row.split()[-4:] == ["1.000", "0/3", "within", "bound"]
    assert "base: 0 of 300 operations failed" in lines
    assert "change: 6 of 300 operations failed" in lines
    assert lines[-1] == "claim latency_p50_ms: not met"


def test_perf_pairs_refuses_a_revision_git_cannot_archive():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "perf_pairs.py"), "--base", "no-such-rev",
         "--change", "HEAD", "--workload", "replay-archive", "--pairs", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("perf_pairs: cannot archive no-such-rev: ")
    assert len(done.stderr.splitlines()) == 1


def _census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOY = '''\
def used():
    return helper()


def helper():
    return 1


def unused():
    return [x for x in range(2)]


class Tile:
    def shown(self):
        return (lambda: 1)()
'''


def test_the_census_reports_an_unrun_function_unless_declared(tmp_path):
    census = _census()
    path = tmp_path / "toy.py"
    path.write_text(TOY, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    defined = census.functions({"toy": path})
    # lambdas and comprehensions are not functions of their own
    assert list(defined) == ["toy:used", "toy:helper", "toy:unused", "toy:Tile.shown"]
    with census.profiled() as seen:
        toy.used()
        toy.Tile().shown()
    unrun = census.unrun(defined, seen)
    assert unrun == ["toy:unused"]
    assert census.judge(defined, unrun, {}) == [
        "not run by any command, not declared: toy:unused"
    ]
    assert census.judge(defined, unrun, {"toy:unused": "library"}) == []


def test_the_census_reports_a_stale_entry_and_an_unknown_category():
    census = _census()
    defined = {"toy:used": ("toy.py", [1]), "toy:unused": ("toy.py", [5])}
    entries = {"toy:unused": "pickle", "toy:used": "library", "toy:gone": "fallback"}
    assert census.judge(defined, ["toy:unused"], entries) == [
        "declared, but names no function: toy:gone",
        "declared, but a command runs it: toy:used",
    ]
    text = (
        "# kept on purpose\n"
        "\n"
        "toy:unused  pickle: copies rebuild their views\n"
        "toy:used  dead: nothing calls it\n"
        "toy:helper  library\n"
        "toy:unused  fallback: twice\n"
    )
    assert census.parse_allowlist(text) == ({"toy:unused": "pickle"}, [
        "line 4: unknown category 'dead'",
        "line 5: expected `module:qualname  category: reason`",
        "line 6: toy:unused declared twice",
    ])


def test_the_census_allowlist_parses_and_each_reason_holds():
    census = _census()
    entries, problems = census.parse_allowlist(census.ALLOWLIST.read_text(encoding="utf-8"))
    assert problems == []
    assert entries
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library_use = readme[readme.index("## Library use"):]
    perfbench = "".join(p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py"))
    for name, category in entries.items():
        qualname = name.partition(":")[2]
        if category == "library":
            assert f"`{qualname}`" in library_use, name
        elif category == "perfbench":
            assert f'"{qualname}"' in perfbench, name
