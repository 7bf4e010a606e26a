"""Subcommand-level tests driving main() the way a shell would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vitalwatch
import vitalwatch.sources as sources
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
        _, _, sigma, ell, detected, missed, _ = row.split(",")
        assert (sigma, ell) == ("2.5", "20")  # the deployed bandwidth and horizon
        assert int(detected) + int(missed) == 9
    assert "best:" in out


def test_tune_names_the_sigma_and_ell_of_each_row_and_the_winner(tmp_path, capsys):
    stream = tmp_path / "s.csv"
    run(capsys, "synth", "--steps", "1500", "--anomalies", "12", "--seed", "3",
        "--out", str(stream))
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid_sigma = 1.0, 2.5\ngrid_ell = 10, 20\n")
    report = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "tune", str(stream), "--labels", f"{stream}.labels.csv",
        "--config", str(cfg), "--out", str(report),
    )
    assert code == 0
    rows = [row.split(",") for row in report.read_text().splitlines()]
    assert rows[0][:4] == ["nu1", "nu2", "sigma", "ell"]
    assert [tuple(row[:4]) for row in rows[1:5]] == [
        ("0.03", "0.08", "1", "10"), ("0.03", "0.08", "1", "20"),
        ("0.03", "0.08", "2.5", "10"), ("0.03", "0.08", "2.5", "20"),
    ]
    table = out.splitlines()
    assert table[2].split()[:4] == ["nu1", "nu2", "sigma", "ell"]
    assert len({tuple(line.split()[:4]) for line in table[3:15]}) == 12
    (best,) = [line for line in table if line.startswith("best:")]
    assert best.startswith("best: nu1=0.07 nu2=0.16 sigma=2.5 ell=10 ")


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

def test_synth_writes_a_one_column_stream(tmp_path, capsys):
    cfg = tmp_path / "hr.cfg"
    cfg.write_text("schema.names = hr\n")
    stream = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "synth", "--steps", "400", "--anomalies", "5",
        "--config", str(cfg), "--out", str(stream),
    )
    assert (code, err) == (0, "")
    assert stream.read_text().splitlines()[0] == "hr"
    labels = read_labels(tmp_path / "s.csv.labels.csv")
    assert [ev.channels for ev in labels] == [(0,)] * 5


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
    assert "all 5 checks passed" in out
    assert "[  ok] replay at speedup = inf vs the per-frame chain: " in out


def test_bad_config_exits_2_with_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warmup = 10\nnu1 = not-a-number\n")
    code, _, err = run(capsys, "replay", "nowhere.csv", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_a_config_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys, bom):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(bom + b"warmup = 10\n# 5\xe9\nwarmup = 5\xff0\n")
    code, _, err = run(capsys, "replay", "nowhere.csv", "--config", str(cfg))
    assert code == 2
    assert "config error: line 2: not UTF-8: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "record, field",
    [(b"PW123,7\xff2,98,118,76", 0), (b"PW123,72,9\x0c8,118,76", 1)],
)
def test_replay_flags_a_corrupt_record_as_one_frame(tmp_path, capsys, record, field):
    # An undecodable byte or a form feed inside a record is one flagged
    # frame, as a live bed reads it, and the frames after it keep their
    # timesteps.
    stream = tmp_path / "stream.csv"
    stream.write_bytes(b"PW123,72,98,118,76\n" + record + b"\nPW123,73,97,119,77\n")
    out_dir = tmp_path / "arch"
    code, out, _ = run(capsys, "replay", str(stream), "--out", str(out_dir))
    assert code == 0
    assert "replayed 3 frames" in out
    archive = (out_dir / "frames_bed1.csv").read_text(encoding="utf-8")
    rows = [row.split(",") for row in archive.split("\n")[1:-1]]
    assert [(row[1], row[3]) for row in rows] == [
        ("0", ""), ("1", f"{field}:non-numeric"), ("2", ""),
    ]


def test_a_config_naming_counted_kinds_exits_2(tmp_path, capsys, labeled_stream):
    # An alarm is a Red1 or a Red2 (engine.ALARM_KINDS); no key redefines it.
    stream, labels = labeled_stream
    cfg = tmp_path / "kinds.cfg"
    cfg.write_text("counted_kinds = red1\n")
    code, out, err = run(
        capsys, "tune", str(stream), "--labels", str(labels), "--config", str(cfg)
    )
    assert code == 2
    assert out == ""
    assert err == "config error: line 1: unknown setting 'counted_kinds'\n"


def test_config_that_can_exhaust_the_dictionary_exits_2(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("ell = 30\nmax_size = 30\n")
    code, _, err = run(capsys, "replay", "nowhere.csv", "--config", str(cfg))
    assert code == 2
    assert "config error: line 2: max_size (30) must exceed ell (30)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bed", ["a,b", "x/y", "../up", ""])
def test_replay_refuses_a_bed_id_before_touching_an_archive(
    tmp_path, capsys, labeled_stream, bed
):
    out = tmp_path / "out"
    out.mkdir()
    (out / "events.csv").write_text("kept\n")
    code, _, err = run(
        capsys, "replay", str(labeled_stream[0]), "--bed", bed, "--out", str(out)
    )
    assert code == 2
    assert f"config error: bed id must be ASCII letters, digits, '_' or '-', got {bed!r}" in err
    assert sorted(p.name for p in out.iterdir()) == ["events.csv"]
    assert (out / "events.csv").read_text() == "kept\n"


def test_replay_bed_ids_in_the_rule_name_the_archives(tmp_path, capsys, labeled_stream):
    out = tmp_path / "out"
    code, _, _ = run(
        capsys, "replay", str(labeled_stream[0]), "--bed", "ICU-3_b", "--out", str(out)
    )
    assert code == 0
    assert (out / "frames_ICU-3_b.csv").exists()
    rows = (out / "events.csv").read_text().splitlines()
    assert all(row.split(",")[1] == "ICU-3_b" for row in rows[1:])


@pytest.mark.parametrize("steps,anomalies", [(80, 0), (100, 0), (100, 3)])
def test_synth_refuses_a_capture_too_short_to_tune(tmp_path, capsys, steps, anomalies):
    # The defaults warm up on 50 frames and train on 50 more, so tune
    # refuses any capture of 100 frames or fewer.
    stream = tmp_path / "short.csv"
    code, out, err = run(
        capsys, "synth", "--steps", str(steps), "--anomalies", str(anomalies),
        "--out", str(stream),
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"config error: {steps} steps is too short to tune: it must exceed "
        "warmup + train_steps = 100\n"
    )
    assert not stream.exists()


def test_synth_writes_the_shortest_capture_tune_accepts(tmp_path, capsys):
    stream = tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "synth", "--steps", "101", "--anomalies", "0", "--out", str(stream)
    )
    assert code == 0
    code, _, err = run(capsys, "tune", str(stream), "--labels", f"{stream}.labels.csv")
    assert code == 0, err


def test_tune_on_a_stream_too_short_to_score_exits_2(tmp_path, capsys):
    # 80 frames leave 30 vectors after the default 50 warm-up frames, fewer
    # than the default 50 training steps. synth refuses so short a capture,
    # so the test writes it directly.
    stream = tmp_path / "short.csv"
    write_stream(
        default_spec(steps=80, n_anomalies=0, seed=0, dim=4),
        stream,
        f"{stream}.labels.csv",
    )
    code, out, err = run(
        capsys, "tune", str(stream), "--labels", f"{stream}.labels.csv"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "leaves 30 vectors" in err and "train_steps = 50" in err


def test_missing_stream_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "replay", "no-such-file.csv")
    assert code == 1
    assert "source error" in err
    # failing before any output is touched: no archive dir appears
    assert not (tmp_path / "archives").exists()


def test_a_read_that_fails_mid_file_exits_1(tmp_path, capsys, labeled_stream, monkeypatch,
                                           watch_reads):
    stream, _ = labeled_stream
    monkeypatch.setattr(sources, "READ_BYTES", 4096)
    watch_reads(stream, fail_at=2)
    out = tmp_path / "archives"
    code, stdout, err = run(capsys, "replay", str(stream), "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == f"source error: cannot read {stream}: [Errno 5] Input/output error\n"
    # the frames the first read held are archived
    rows = (out / "frames_bed1.csv").read_text(encoding="utf-8").splitlines()
    assert 1 < len(rows) < 300


def test_tune_requires_labels(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "stream.csv"])
    assert exc.value.code == 2


def test_emit_target_must_be_host_port(capsys, labeled_stream, tmp_path):
    stream, _ = labeled_stream
    code, _, err = run(capsys, "replay", str(stream), "--emit", "nonsense")
    assert code == 2
    assert "host:port" in err


def test_speedup_flag_wins_over_the_config(tmp_path, capsys, labeled_stream):
    stream, _ = labeled_stream
    cfg = tmp_path / "paced.cfg"
    # the config alone would pace one frame a minute
    cfg.write_text("speedup = 1\npoll_interval = 60\n")
    code, out, _ = run(
        capsys, "replay", str(stream), "--config", str(cfg),
        "--speedup", "inf", "--out", str(tmp_path / "arch"),
    )
    assert code == 0
    assert "replayed 300 frames" in out


def test_speedup_flag_must_be_positive(capsys, labeled_stream):
    stream, _ = labeled_stream
    code, _, err = run(capsys, "replay", str(stream), "--speedup", "-1")
    assert code == 2
    assert "speedup" in err


@pytest.mark.parametrize(
    "argv,config,fragment",
    [
        ((), "poll_interval = inf\nspeedup = 1000\n", "poll_interval must be finite"),
        (("--speedup", "1e-300"), "", "at most 86400 s (one day)"),
    ],
)
def test_a_gap_pacing_cannot_sleep_exits_2(
    tmp_path, capsys, labeled_stream, argv, config, fragment
):
    # Each once passed the check and died in time.sleep after the first
    # frame, with an OverflowError traceback.
    stream, _ = labeled_stream
    cfg = tmp_path / "paced.cfg"
    cfg.write_text(config)
    out = tmp_path / "arch"
    code, _, err = run(
        capsys, "replay", str(stream), "--config", str(cfg), "--out", str(out), *argv
    )
    assert code == 2
    assert err.startswith("config error:") and fragment in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--anomalies", "--seed"])
def test_synth_refuses_a_negative_count_or_seed(tmp_path, capsys, flag):
    stream = tmp_path / "s.csv"
    code, out, err = run(capsys, "synth", flag, "-2", "--out", str(stream))
    assert code == 2
    assert out == ""
    assert err == f"config error: {flag} must be >= 0, got -2\n"
    assert not stream.exists()


@pytest.mark.parametrize(
    "content,fragment",
    [
        (None, "cannot read labels {path}: No such file or directory"),
        ("timestep,channels,note\n130,1,ok\n\nabc,1,2\n", "bad label file {path}: line 4:"),
        ("timestep,channels,note\n130;1\n", "bad label file {path}: line 2:"),
        ("timestep,channels,note\n130,x,note\n", "bad label file {path}: line 2:"),
    ],
)
def test_tune_reports_a_bad_label_file_in_one_line(
    tmp_path, capsys, labeled_stream, content, fragment
):
    stream, _ = labeled_stream
    labels = tmp_path / "bad.labels.csv"
    if content is not None:
        labels.write_text(content)
    code, out, err = run(capsys, "tune", str(stream), "--labels", str(labels))
    assert code == 1
    assert out == ""
    assert err.startswith("source error: " + fragment.format(path=labels))
    assert err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_ends_quietly(unbuffered):
    """``vitalwatch selftest | head -1`` once head has gone: the command
    ends with status 1 and nothing on stderr, not a BrokenPipeError
    traceback. The read end is closed before the first line is written, so
    the write fails every time rather than when the reader wins a race."""
    src = Path(vitalwatch.__file__).resolve().parents[1]  # the package under test
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


@pytest.mark.parametrize("row", ["-5,9,x", "99999,1,y", "300,0,z", "120,4,w", "120,-1,v"])
def test_tune_refuses_a_label_outside_the_stream(tmp_path, capsys, labeled_stream, row):
    # The fixture's stream has 300 frames of 4 columns; such a label can
    # never match, so every grid row would silently count it missed.
    stream, _ = labeled_stream
    labels = tmp_path / "outside.labels.csv"
    labels.write_text(f"timestep,channels,note\n130,1,ok\n{row}\n")
    code, out, err = run(capsys, "tune", str(stream), "--labels", str(labels))
    assert code == 1
    assert out == ""
    assert err.startswith(f"source error: label file {labels}: ")
    assert "outside the 300 frames of 4 columns" in err
    assert err.count("\n") == 1


def test_tune_accepts_labels_at_the_last_frame_and_column(tmp_path, capsys, labeled_stream):
    stream, _ = labeled_stream
    labels = tmp_path / "edge.labels.csv"
    labels.write_text("timestep,channels,note\n0,0,first\n299,3,last\n")
    code, _, err = run(capsys, "tune", str(stream), "--labels", str(labels))
    assert code == 0, err


def _unwritable_outputs(tmp_path, stream, labels):
    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    missing = tmp_path / "no-such-dir"
    return {
        "tune": (["tune", str(stream), "--labels", str(labels),
                  "--out", str(missing / "r.csv")], missing / "r.csv"),
        "replay": (["replay", str(stream), "--out", str(afile)], afile),
        "synth": (["synth", "--steps", "400", "--out", str(missing / "x.csv")],
                  missing / "x.csv"),
    }


@pytest.mark.parametrize("command", ["tune", "replay", "synth"])
def test_an_output_that_cannot_be_written_ends_in_one_line(
    tmp_path, capsys, labeled_stream, command
):
    argv, path = _unwritable_outputs(tmp_path, *labeled_stream)[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"output error: cannot write {path}: ")
    assert "[Errno" not in err
    assert err.count("\n") == 1
    if command == "replay":  # it fails before writing anything else
        assert out == ""
        assert (tmp_path / "afile").read_text() == "keep me\n"
    assert not (tmp_path / "no-such-dir").exists()


@pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
def test_monitor_refuses_a_duration_it_cannot_keep(tmp_path, capsys, duration):
    cfg = tmp_path / "ward.cfg"
    cfg.write_text("bed.bed1.source = socket:127.0.0.1:0\n")
    out = tmp_path / "arch"
    code, _, err = run(
        capsys, "monitor", "--config", str(cfg), "--out", str(out), "--duration", duration
    )
    assert code == 2
    assert err == f"config error: --duration must be finite and >= 0, got {float(duration)}\n"
    assert not out.exists()


def test_monitor_without_beds_exits_2(tmp_path, capsys):
    cfg = tmp_path / "ward.cfg"
    cfg.write_text("warmup = 10\n")
    out = tmp_path / "arch"
    code, _, err = run(capsys, "monitor", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert err == "config error: monitor needs at least one bed.<id>.source entry\n"
    assert not out.exists()


@pytest.fixture()
def synth_600(tmp_path, capsys):
    """``synth --steps 600 --anomalies 5 --seed 3``: the stream and its labels."""
    stream = tmp_path / "s.csv"
    code, _, _ = run(capsys, "synth", "--steps", "600", "--anomalies", "5",
                     "--seed", "3", "--out", str(stream))
    assert code == 0
    return stream, tmp_path / "s.csv.labels.csv"


def test_tune_reads_a_label_note_holding_a_form_feed(tmp_path, capsys, synth_600):
    stream, labels = synth_600
    lines = labels.read_text(encoding="utf-8").split("\n")
    lines[2] += "\x0cbreak"
    ff = tmp_path / "ff.csv"
    ff.write_text("\n".join(lines), encoding="utf-8")
    code, out, err = run(capsys, "tune", str(stream), "--labels", str(ff))
    assert (code, err) == (0, "")
    assert out.endswith("(detected 5, missed 0, false alarms 15)\n")
    assert read_labels(ff)[1].note == "5sigma\x0cbreak"


def test_tune_refuses_a_label_file_without_its_header(tmp_path, capsys, synth_600):
    stream, labels = synth_600
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text(labels.read_text(encoding="utf-8").split("\n", 1)[1], encoding="utf-8")
    code, out, err = run(capsys, "tune", str(stream), "--labels", str(nohdr))
    assert (code, out) == (1, "")
    assert err == (
        f"source error: bad label file {nohdr}: line 1: expected the header "
        "'timestep,channels,note', got '328,0;2,5sigma'\n"
    )


@pytest.mark.parametrize(
    "names, refused", [("1, 2, 3, 4", True), ("PW123, b", True), ("1a, b2, -c, +.e", False)]
)
def test_what_synth_writes_replay_reads_back(tmp_path, capsys, names, refused):
    cfg = tmp_path / "names.cfg"
    cfg.write_text(f"warmup = 10\nschema.names = {names}\n")
    stream = tmp_path / "n.csv"
    code, _, err = run(capsys, "synth", "--config", str(cfg), "--steps", "200",
                       "--anomalies", "3", "--out", str(stream))
    if refused:
        assert code == 2
        assert err.startswith("config error: line 2: schema.names must be able to head")
        assert not stream.exists()
        return
    assert (code, err) == (0, "")
    out = tmp_path / "arch"
    code, text, _ = run(capsys, "replay", str(stream), "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert "replayed 200 frames" in text
    frames = (out / "frames_bed1.csv").read_text(encoding="utf-8").split("\n")[1:-1]
    assert len(frames) == 200
    assert all(row.split(",")[3] == "" for row in frames)
