"""Subcommand-level tests driving main() the way a shell would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vitalwatch.cli import main
from vitalwatch.synth import default_spec, read_labels, write_stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def labeled_stream(tmp_path):
    stream = tmp_path / "stream.csv"
    labels = tmp_path / "labels.csv"
    spec = default_spec(
        steps=300, n_anomalies=9, seed=13, dim=4, first_anomaly=120, min_gap=15
    )
    write_stream(spec, stream, labels)
    return stream, labels


def test_synth_then_tune_reports_all_labels_accounted(tmp_path, capsys):
    stream = tmp_path / "s.csv"
    code, out, _ = run(
        capsys, "synth", "--steps", "300", "--anomalies", "9",
        "--seed", "13", "--out", str(stream),
    )
    assert code == 0
    assert (tmp_path / "s.csv.labels.csv").exists()

    report = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "tune", str(stream),
        "--labels", str(tmp_path / "s.csv.labels.csv"), "--out", str(report),
    )
    assert code == 0
    rows = [r for r in report.read_text().splitlines()[1:] if r]
    assert len(rows) == 3  # one per default grid pair
    for row in rows:
        _, _, detected, missed, _ = row.split(",")
        assert int(detected) + int(missed) == 9
    assert "best:" in out


def test_synth_is_seed_deterministic(tmp_path, capsys):
    texts = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "synth", "--steps", "400", "--anomalies", "2",
            "--seed", "5", "--out", str(path),
        )
        assert code == 0
        texts.append(
            (path.read_text(), (tmp_path / f"{name}.labels.csv").read_text())
        )
    assert texts[0] == texts[1]


def test_synth_places_anomalies_after_a_long_lead_in(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("warmup = 100\ntrain_steps = 100\n")
    stream = tmp_path / "s.csv"
    code, _, _ = run(capsys, "synth", "--config", str(cfg), "--out", str(stream))
    assert code == 0
    labels = read_labels(tmp_path / "s.csv.labels.csv")
    assert len(labels) == 9
    assert min(ev.timestep for ev in labels) >= 200

def test_replay_writes_archives_and_board(tmp_path, capsys, labeled_stream):
    stream, _ = labeled_stream
    out_dir = tmp_path / "arch"
    code, out, _ = run(capsys, "replay", str(stream), "--out", str(out_dir))
    assert code == 0
    assert "replayed 300 frames" in out
    assert (out_dir / "frames_bed1.csv").exists()
    assert (out_dir / "events.csv").exists()

def test_replay_hyphen_gap_leaves_warning_trace(tmp_path, capsys, labeled_stream):
    stream, _ = labeled_stream
    lines = stream.read_text().splitlines()
    gappy = tmp_path / "gappy.csv"
    # six unreadable rows in a row trips the default threshold of five
    gappy.write_text("\n".join(lines[:200] + ["-,-,-,-"] * 6 + lines[200:]) + "\n")
    out_dir = tmp_path / "arch"
    code, _, _ = run(capsys, "replay", str(gappy), "--out", str(out_dir))
    assert code == 0
    events = (out_dir / "events.csv").read_text()
    assert ",data-warning-raised,203," in events
    assert ",data-warning-cleared,205," in events


def test_monitor_drains_replay_beds(tmp_path, capsys, labeled_stream):
    stream, _ = labeled_stream
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "warmup = 10\ntrain_steps = 20\n"
        f"bed.bedA.source = replay:{stream}\n"
        f"bed.bedB.source = replay:{stream}\n"
    )
    out_dir = tmp_path / "arch"
    code, out, _ = run(
        capsys, "monitor", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    assert "monitored 600 frames" in out
    assert (out_dir / "frames_bedA.csv").exists()
    assert (out_dir / "frames_bedB.csv").exists()


def test_selftest_passes_on_clean_build(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "all 3 checks passed" in out


def test_bad_config_exits_2_with_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warmup = 10\nnu1 = not-a-number\n")
    code, _, err = run(capsys, "replay", "nowhere.csv", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err


def test_missing_stream_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "replay", "no-such-file.csv")
    assert code == 1
    assert "source error" in err
    # failing before any output is touched: no archive dir appears
    assert not (tmp_path / "archives").exists()


def test_tune_requires_labels(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "stream.csv"])
    assert exc.value.code == 2


def test_emit_target_must_be_host_port(capsys, labeled_stream, tmp_path):
    stream, _ = labeled_stream
    code, _, err = run(capsys, "replay", str(stream), "--emit", "nonsense")
    assert code == 2
    assert "host:port" in err


def test_speedup_flag_must_be_positive(capsys, labeled_stream):
    stream, _ = labeled_stream
    code, _, err = run(capsys, "replay", str(stream), "--speedup", "-1")
    assert code == 2
    assert "speedup" in err


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_ends_quietly(unbuffered):
    """``vitalwatch selftest | head -1`` once head has gone: the command
    ends with status 1 and nothing on stderr, not a BrokenPipeError
    traceback. The read end is closed before the first line is written, so
    the write fails every time rather than when the reader wins a race."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        "PYTHONUNBUFFERED": unbuffered,
    }
    proc = subprocess.Popen(
        [sys.executable, "-m", "vitalwatch.cli", "selftest"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err.decode()
    assert "BrokenPipeError" not in err.decode()
    assert proc.returncode == 1
