"""End-to-end checks on the per-bed chain and the run drivers."""

import gc
import importlib.util
import io
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from dataclasses import replace
from queue import Queue
from types import SimpleNamespace
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vitalwatch.pipeline as pipeline_module
import vitalwatch.sources as sources_module
from vitalwatch.board import EVENT_HEADER, BoardState, event_row, needs_flush
from vitalwatch.cli import main
from vitalwatch.config import BedSource, ConfigError, Settings, load_settings
from vitalwatch.engine import (
    BLOCK,
    EngineError,
    KoadEngine,
    ThresholdConfig,
    Verdict,
    VerdictKind,
)
from vitalwatch.pipeline import (
    BedPipeline,
    Ward,
    build_source,
    monitor_run,
    replay_run,
    standardized_stream,
)
from vitalwatch.sources import ReplaySource, SocketSource, SourceError, TailSource
from vitalwatch.synth import capture_text, default_spec, generate, read_labels, write_stream
from vitalwatch.tuning import alarm_times, grid_search, run_detector, score_run
from vitalwatch.validity import (
    DataWarning,
    archive_header,
    archive_row,
    parse_frame,
    validate,
)


PW = "PW123"


def small_settings(**overrides) -> Settings:
    base = dict(
        password=PW,
        schema_names=("hr", "spo2", "nbp_sys"),
        warmup=4,
        train_steps=6,
        warn_threshold=3,
        detector=ThresholdConfig(nu1=0.07, nu2=0.16, sigma=1.5, ell=5),
    )
    base.update(overrides)
    return Settings(**base)


def wire(*values) -> str:
    return ",".join([PW, *[str(v) for v in values]])


def steady_line(rng) -> str:
    return wire(*(f"{v:.3f}" for v in 70.0 + rng.standard_normal(3)))


def inject_engine_fault(monkeypatch, at: int, where: str = "check") -> list[BedPipeline]:
    """Make bed1's detector raise ``EngineError`` when fed the frame at
    timestep ``at``; after its restart it is sound. Returns bed1's pipelines
    as they are made. Their detector keeps, as ``fault``, its number of open
    trackers and its last timestep when it raised, and counts its
    ``restart()`` calls after construction in ``restarts``.

    By default the fault is raised by the engine's arrival check:
    ``_checked``, which ``feed`` makes on every arrival, and which the
    recording walk of a replay at speedup = inf (and ``feed_run``) makes at
    an arrival's turn when the arrival fails the compare with its order key
    (``_order_keys``), as the arrival at ``at`` is made to. With
    ``where="score"`` it is raised inside the walk, by the scorer, which
    every arrival that is not quiet (an Orange, for one) reaches on both
    paths."""
    made = []

    class FlakyEngine(KoadEngine):
        fault, restarts = None, -1  # construction calls restart() once

        def restart(self):
            self.restarts += 1
            super().restart()

        def _raise(self):
            self.fault = len(self.trackers), self.last_timestep
            raise EngineError("injected fault")

        def _checked(self, x):
            if where == "check" and x.timestep == at:
                self._raise()
            return super()._checked(x)

        def _order_keys(self, block, timesteps):
            keys = super()._order_keys(block, timesteps)
            if where == "check" and at in timesteps:
                keys[timesteps.index(at)] = -1  # no arrival passes: _checked runs
            return keys

        def _score(self, values, t, *projected):
            if where == "score" and t == at:
                self._raise()
            return super()._score(values, t, *projected)

    class FlakyBed1(BedPipeline):
        def __init__(self, bed, settings, frame_archive=None):
            super().__init__(bed, settings, frame_archive)
            if bed == "bed1":
                self.engine = FlakyEngine(self.schema.dim, settings.threshold_config())
                made.append(self)

    monkeypatch.setattr(pipeline_module, "BedPipeline", FlakyBed1)
    return made


class TestBedPipeline:
    def test_phases_advance_at_exact_frame_counts(self):
        pipe = BedPipeline("bed1", small_settings())
        rng = np.random.default_rng(0)
        for i in range(4):  # warm-up: the standardizer only
            assert pipe.feed_line(steady_line(rng), float(i)) == []
        assert (pipe.standardizer.count, pipe.engine.steps_seen) == (4, 0)
        for i in range(6):  # training: the engine, silently
            assert pipe.feed_line(steady_line(rng), float(i)) == []
        assert (pipe.standardizer.count, pipe.engine.steps_seen) == (10, 6)
        events = pipe.feed_line(steady_line(rng), 10.0)
        assert len(events) == 1
        assert isinstance(events[0], Verdict)
        assert events[0].at_timestep == 10

    def test_flagged_frames_keep_their_timestep_slot(self):
        pipe = BedPipeline("bed1", small_settings())
        rng = np.random.default_rng(1)
        for i in range(12):
            pipe.feed_line(steady_line(rng), float(i))
        # two bad frames occupy timesteps 12 and 13
        assert pipe.feed_line("garbage", 12.0) == []
        assert pipe.feed_line(wire("72", "-", "118"), 13.0) == []
        events = pipe.feed_line(steady_line(rng), 14.0)
        assert [e.at_timestep for e in events] == [14]

    def test_spike_during_live_raises_red(self):
        pipe = BedPipeline("bed1", small_settings(warmup=10, train_steps=20))
        rng = np.random.default_rng(2)
        for i in range(60):
            pipe.feed_line(steady_line(rng), float(i))
        assert pipe.engine.steps_seen == 50  # 10 warm-up frames, then 20 trained
        events = pipe.feed_line(wire("300", "5", "400"), 60.0)
        verdicts = [e for e in events if isinstance(e, Verdict)]
        assert verdicts[0].kind in (VerdictKind.RED1, VerdictKind.ORANGE)
        assert verdicts[0].delta > 0.16

    def test_warning_raised_and_cleared_through_the_chain(self):
        pipe = BedPipeline("bed1", small_settings())
        rng = np.random.default_rng(3)
        for i in range(3):
            pipe.feed_line(steady_line(rng), float(i))
        assert pipe.feed_line("x", 3.0) == []
        assert pipe.feed_line("x", 4.0) == []
        events = pipe.feed_line("x", 5.0)
        assert events == [DataWarning(active=True, at_timestep=5)]
        events = pipe.feed_line(steady_line(rng), 6.0)
        assert DataWarning(active=False, at_timestep=6) in events

    def test_frame_archive_gets_every_frame_including_flagged(self):
        sink = io.StringIO()
        pipe = BedPipeline("bed1", small_settings(), frame_archive=sink)
        rng = np.random.default_rng(4)
        pipe.feed_line(steady_line(rng), 1.0)
        pipe.feed_line(wire("72", "-", "118"), 2.0)
        rows = sink.getvalue().splitlines()
        assert rows[0] == "bed,timestep,received_at,flags,hr,spo2,nbp_sys"
        assert len(rows) == 3
        assert rows[2].startswith("bed1,1,2.000,1:hyphen,")

    def test_a_flagged_frame_reaches_the_file_before_the_archive_closes(self, tmp_path):
        # The flush behind an event is the Ward's (TestWardDelivery).
        path = tmp_path / "frames_bed1.csv"
        rng = np.random.default_rng(2)
        with path.open("w", encoding="utf-8") as sink:
            pipe = BedPipeline("bed1", small_settings(warmup=10, train_steps=20), sink)
            for i in range(60):
                pipe.feed_line(steady_line(rng), float(i))
            pipe.feed_line(wire("72", "-", "118"), 60.0)
            last_row = path.read_text(encoding="utf-8").splitlines()[-1]
            assert last_row.startswith("bed1,60,60.000,1:hyphen,")

    def test_screen_writes_the_classifiers_archive_rows(self):
        # A clean frame's row comes from the matched record, any other from
        # the classifier; both must be archive_row's bytes. Edge lines in
        # both kinds ride along a faulted capture through every phase.
        settings = small_settings()
        schema = settings.schema()
        rng = np.random.default_rng(9)
        lines = [steady_line(rng) for _ in range(60)]
        for i in range(3, 60, 7):
            lines[i] = wire(*lines[i].split(",")[1:3], "-")
        edge = [
            wire(" 72 ", "\t98", "118\u00a0"),
            wire("72", "+.25", "7.") + "\r\n",
            wire("-3.5", "+98", "0118") + " \n",
            wire("72", "98", "10000") + "\n",
            wire("72", "98", "10000.5"), wire("72", "0", "118"), wire("null", "98", " "),
            wire("72", "98", "1e3"), wire("\u0667\u0662", "98", "118"),
            "WRONG,72,98,118", wire("72", "98"), wire("72", "98", "118", "5"), "", "\r\n",
        ]
        lines[8:8] = lines[40:40] = edge
        sink = io.StringIO()
        pipe = BedPipeline("bed1", settings, frame_archive=sink)
        for t, line in enumerate(lines):
            pipe.screen(line, 1.7e9 + 12.3456 * t)
        expected = [archive_header(schema)]
        for t, line in enumerate(lines):
            frame = parse_frame(line)
            result = validate(frame, PW, schema)
            expected.append(archive_row("bed1", t, 1.7e9 + 12.3456 * t, result, frame, schema))
        assert sink.getvalue() == "".join(row + "\n" for row in expected)
        clean = sum(row.split(",")[3] == "" for row in expected[1:])
        assert clean == 51 + 2 * 4  # unfaulted capture frames, clean edge lines


class TestStandardizedStream:
    def test_timesteps_skip_flagged_and_warmup_frames(self):
        settings = small_settings()
        rng = np.random.default_rng(5)
        lines = [steady_line(rng) for _ in range(20)]
        lines[7] = "bogus"
        lines[8] = wire("-", "98", "118")
        timesteps, vectors = standardized_stream(lines, settings)
        # 18 valid frames, first 4 feed the standardizer only
        assert timesteps == [4, 5, 6] + list(range(9, 20))
        # one float array, a row per vector
        assert (type(vectors), vectors.dtype, vectors.shape) == (np.ndarray, float, (14, 3))
        assert np.isfinite(vectors).all()

    def test_vectors_use_masked_columns(self):
        settings = small_settings(schema_use=(0, 2))
        rng = np.random.default_rng(6)
        lines = [steady_line(rng) for _ in range(10)]
        _, vectors = standardized_stream(lines, settings)
        assert vectors.shape == (6, 2)
        # nothing past the standardizer's warm-up: no rows, the same width
        assert standardized_stream(lines[:4], settings)[1].shape == (0, 2)


@pytest.fixture()
def capture_file(tmp_path):
    spec = default_spec(
        steps=120, n_anomalies=2, seed=5, dim=4, first_anomaly=70, min_gap=15
    )
    path = tmp_path / "stream.csv"
    write_stream(spec, path, tmp_path / "labels.csv")
    return path


def drop_column(text: str, idx: int) -> str:
    rows = []
    for row in text.splitlines():
        cells = row.split(",")
        del cells[idx]
        rows.append(",".join(cells))
    return "\n".join(rows)


class TestReplayRun:
    def test_counts_and_artifacts(self, tmp_path, capture_file):
        settings = Settings(warmup=10, train_steps=20)
        out = tmp_path / "out"
        counts = replay_run(settings, capture_file, out_dir=out, screen=io.StringIO())
        assert counts["frames"] == 120
        frames = (out / "frames_bed1.csv").read_text().splitlines()
        assert len(frames) == 121  # header + one row per frame
        assert (out / "events.csv").exists()
        # live scoring covers everything after warmup + training
        assert counts["events"] >= 120 - 30

    def test_two_runs_identical_modulo_wall_clock(self, tmp_path, capture_file):
        settings = Settings(warmup=10, train_steps=20)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            replay_run(settings, capture_file, out_dir=out)
            frames = drop_column((out / "frames_bed1.csv").read_text(), 2)
            events = drop_column((out / "events.csv").read_text(), 0)
            outs.append((frames, events))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "first",
        ["PW999,72.000,98.000,118.000,76.000", "xx", ",72.000,98.000,118.000,76.000"],
        ids=["bad-password", "garbage", "empty-field"],
    )
    def test_a_corrupt_first_record_is_flagged_alone(self, tmp_path, capture_file, first):
        # A wire file whose first record is corrupt is still a wire file:
        # that record is flagged and every other one screens clean.
        rows = capture_file.read_text(encoding="utf-8").splitlines()[2:]
        wire = tmp_path / "wire.csv"
        wire.write_text("\n".join([first, *(f"{PW},{row}" for row in rows)]), encoding="utf-8")
        out = tmp_path / "out"
        counts = replay_run(Settings(warmup=10, train_steps=20), wire, out_dir=out)
        frames = [row.split(",") for row in (out / "frames_bed1.csv").read_text().splitlines()]
        assert counts["frames"] == len(frames) - 1 == 120
        assert [row[1] for row in frames[1:] if row[3]] == ["0"]

    def test_capture_and_wire_files_give_byte_identical_archives(
        self, tmp_path, capture_file, monkeypatch
    ):
        rows = capture_file.read_text(encoding="utf-8").splitlines()[1:]
        wire = tmp_path / "wire.csv"
        wire.write_text("".join(f"{PW},{row}\n" for row in rows), encoding="utf-8")
        # one wall clock for both runs, so that every archive byte compares
        clock = SimpleNamespace(time=lambda: 1.7e9, monotonic=time.monotonic, sleep=time.sleep)
        monkeypatch.setattr(sources_module, "time", clock)
        archives = []
        for path in (capture_file, wire):
            out = tmp_path / path.stem
            replay_run(Settings(warmup=10, train_steps=20), path, out_dir=out)
            names = ("frames_bed1.csv", "events.csv")
            archives.append([(out / name).read_bytes() for name in names])
        assert archives[0] == archives[1]
        assert archives[0][1].count(b"\n") > 90  # a header and a verdict per scored frame

    def test_rerun_into_same_dir_replaces_archives(self, tmp_path, capture_file):
        settings = Settings(warmup=10, train_steps=20)
        out = tmp_path / "out"
        replay_run(settings, capture_file, out_dir=out)
        first = (out / "frames_bed1.csv").read_text()
        replay_run(settings, capture_file, out_dir=out)
        second = (out / "frames_bed1.csv").read_text()
        assert first.count("\n") == second.count("\n")

    def test_streak_clear_and_restart_on_one_frame_archive_in_order(
        self, tmp_path, capture_file, monkeypatch
    ):
        rows = capture_file.read_text(encoding="utf-8").splitlines()
        # rows[i] is timestep i - 1: a streak raised at 42 clears at 43, the
        # frame the detector fails on; another raised at 52 clears at 53,
        # before the fresh engine's first verdict
        for i in (41, 42, 43, 51, 52, 53):
            rows[i] = "garbage"
        capture_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
        inject_engine_fault(monkeypatch, at=43)
        settings = Settings(warmup=10, train_steps=20, warn_threshold=3)
        out = tmp_path / "out"
        counts = replay_run(settings, capture_file, out_dir=out)
        events = drop_column((out / "events.csv").read_text(), 0).splitlines()
        assert [row for row in events if ",data-warning-" in row] == [
            "bed1,data-warning-raised,42,,",
            "bed1,data-warning-cleared,43,,",
            "bed1,data-warning-raised,43,,",
            "bed1,data-warning-raised,52,,",
            "bed1,data-warning-cleared,53,,",
        ]
        # the fresh engine trains on 44-49 and 53-66, and scores from 67 on
        verdicts = [int(row.split(",")[2]) for row in events[1:] if ",data-" not in row]
        assert min(t for t in verdicts if t > 43) == 67
        assert counts["board"].tiles["bed1"].data_warning is False

    @pytest.mark.parametrize("speedup", [math.inf, 1e9])
    def test_a_read_that_fails_mid_file_archives_the_frames_before_it(
        self, tmp_path, monkeypatch, watch_reads, capture_file, speedup
    ):
        # The first read ends inside the capture's row 80, and the second
        # fails: both archives hold what a replay of the first 79 rows
        # gives, and then the error propagates.
        text = capture_file.read_text(encoding="utf-8")
        cut = len("".join(text.splitlines(keepends=True)[:81])) - 3
        monkeypatch.setattr(sources_module, "READ_BYTES", cut)
        head = tmp_path / "head.csv"
        head.write_text(text[:cut].rpartition("\n")[0] + "\n", encoding="utf-8")
        settings = Settings(warmup=10, train_steps=20, speedup=speedup)
        assert replay_run(settings, head, out_dir=tmp_path / "head")["frames"] == 79
        watch_reads(capture_file, fail_at=2)
        with pytest.raises(SourceError, match=f"^cannot read {capture_file}: "):
            replay_run(settings, capture_file, out_dir=tmp_path / "cut")
        archives = [
            [drop_column((out / "frames_bed1.csv").read_text(), 2),
             drop_column((out / "events.csv").read_text(), 0)]
            for out in (tmp_path / "head", tmp_path / "cut")
        ]
        assert archives[0] == archives[1]
        assert archives[0][1].count("\n") > 40  # a header and the scored frames' verdicts

    def test_a_restart_leaves_no_orange_window_open_forever(self, tmp_path, monkeypatch):
        capture = tmp_path / "stream.csv"
        spec = default_spec(steps=3000, n_anomalies=20, seed=3, dim=4)
        write_stream(spec, capture, tmp_path / "labels.csv")
        made = inject_engine_fault(monkeypatch, at=251)
        counts = replay_run(Settings(), capture, out_dir=tmp_path / "out")
        # The detector had three Orange windows open when it failed; after
        # its restart it never resolves them, so the tile counts only the
        # windows it opened since.
        (bed1,) = made
        assert bed1.engine.fault[0] == 3
        assert bed1.engine.restarts == 1
        tile = counts["board"].tiles["bed1"]
        assert tile.open_orange_count == len(bed1.engine.trackers)


def load_verdict_digest():
    """tools/verdict_digest.py as a module, for its EDGE_LINES."""
    path = Path(__file__).resolve().parents[1] / "tools" / "verdict_digest.py"
    spec = importlib.util.spec_from_file_location("verdict_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# warm-up, then training, then a churning detector, so that dictionary
# changes land inside the walk's blocks
RECORDING_SETTINGS = Settings(
    password=PW, warmup=10, train_steps=20, warn_threshold=3,
    detector=ThresholdConfig(sigma=1.5, ell=10),
)


def recording(tmp_path, steps: int, splices: dict[int, list[str]] | None = None) -> Path:
    """A wire file of ``steps`` synthetic frames, with ``splices[i]``
    inserted before frame i (indexes of the unspliced stream)."""
    anomalies = 6 if steps >= 300 else 0
    spec = default_spec(steps=steps, n_anomalies=anomalies, seed=13, dim=4,
                        first_anomaly=60, min_gap=30)
    body = capture_text(generate(spec)[0]).splitlines()[1:]
    lines = [f"{PW},{row}" for row in body]
    for at in sorted(splices or {}, reverse=True):
        lines[at:at] = splices[at]
    path = tmp_path / "recording.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def replay_both_ways(tmp_path, monkeypatch, path: Path, settings: Settings) -> list[tuple]:
    """``replay_run`` over ``path`` at speedup = inf and through the
    per-frame chain (a paced replay whose gap is a few nanoseconds), each
    under one clock that stamps every frame 0.25 s after the one before;
    returns each run's counts and the bytes of both archives."""
    runs = []
    for speedup in (math.inf, 1e9):
        stamps = itertools.count()
        clock = SimpleNamespace(
            time=lambda: 1.7e9 + 0.25 * next(stamps), monotonic=time.monotonic, sleep=time.sleep
        )
        monkeypatch.setattr(sources_module, "time", clock)
        out = tmp_path / f"speedup-{speedup}"
        counts = replay_run(replace(settings, speedup=speedup), path, out_dir=out)
        archives = [(out / name).read_bytes() for name in ("events.csv", "frames_bed1.csv")]
        runs.append((counts, archives))
    return runs


class TestReplayAtInfiniteSpeedup:
    """At speedup = inf ``replay_run`` hands the recording to
    ``BedPipeline.feed_recording``, which scores it through the block walk;
    its archives and counts must be the per-frame chain's, byte for byte."""

    @pytest.mark.parametrize(
        "steps,splices",
        [
            (40, None),  # 30 arrivals: less than one block
            (300, None),  # 290 arrivals: ends mid-block
            (25, None),  # never past warm-up and training
            (
                400,
                {  # flag runs that raise and clear data warnings in warm-up,
                    # training and scoring, and one longer than two blocks
                    5: ["garbage"] * 4, 22: ["garbage"] * 3, 150: ["garbage"] * 5,
                    200: ["-,1,2,3,4"] * (2 * BLOCK + 7), 260: ["garbage"] * 3,
                },
            ),
            ("edge", None),
        ],
        ids=["shorter-than-a-block", "ends-mid-block", "shorter-than-training",
             "data-warning-bursts", "edge-spellings"],
    )
    def test_archives_and_counts_match_the_per_frame_chain(
        self, tmp_path, monkeypatch, steps, splices
    ):
        if steps == "edge":
            # the wire spellings and flag kinds tools/verdict_digest.py
            # splices in, at the same three phases
            edge = [line.format(pw=PW) for line in load_verdict_digest().EDGE_LINES]
            steps, splices = 400, {300: edge, 25: edge, 5: edge}
        path = recording(tmp_path, steps, splices)
        (fast, fast_archives), (paced, paced_archives) = replay_both_ways(
            tmp_path, monkeypatch, path, RECORDING_SETTINGS
        )
        assert fast_archives == paced_archives
        assert fast == paced
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        assert fast["frames"] == len(lines)
        assert fast_archives[1].count(b"\n") == len(lines) + 1  # header and one row per frame

    @pytest.mark.parametrize(
        "arrival",
        [5, BLOCK, BLOCK + BLOCK // 2, 2 * BLOCK - 1],
        ids=["in-training", "first-of-a-block", "mid-block", "last-of-a-block"],
    )
    def test_a_refused_arrival_restarts_the_detector_as_the_per_frame_chain_does(
        self, tmp_path, monkeypatch, capture_file, arrival
    ):
        # capture_file's frames are all clean, so arrival j is frame 10 + j
        at = 10 + arrival
        made = inject_engine_fault(monkeypatch, at=at)
        settings = Settings(warmup=10, train_steps=20)
        (fast, fast_archives), (paced, paced_archives) = replay_both_ways(
            tmp_path, monkeypatch, capture_file, settings
        )
        assert fast_archives == paced_archives
        assert fast == paced
        assert f",bed1,data-warning-raised,{at},,".encode() in fast_archives[0]
        assert [pipe.engine.restarts for pipe in made] == [1, 1]
        assert [pipe.engine.fault[1] for pipe in made] == [at - 1, at - 1]

    def test_a_fault_inside_the_walk_restarts_the_detector_as_the_per_frame_chain_does(
        self, tmp_path, monkeypatch
    ):
        path = recording(tmp_path, 400)
        clean = replay_both_ways(tmp_path / "clean", monkeypatch, path, RECORDING_SETTINGS)
        oranges = [
            int(row.split(",")[3])
            for row in clean[0][1][0].decode().splitlines()
            if ",orange," in row
        ]
        # an Orange is never quiet, so the walk scores it through _score
        at = next(t for t in oranges if t > 150 and (t - 10) % BLOCK not in (0, BLOCK - 1))
        inject_engine_fault(monkeypatch, at=at, where="score")
        (fast, fast_archives), (paced, paced_archives) = replay_both_ways(
            tmp_path, monkeypatch, path, RECORDING_SETTINGS
        )
        assert fast_archives == paced_archives
        assert fast == paced
        assert f",bed1,data-warning-raised,{at},,".encode() in fast_archives[0]

    def test_a_huge_negative_field_is_flagged_and_blinds_nothing(self, tmp_path, monkeypatch):
        spec = default_spec(steps=400, n_anomalies=0, seed=3, dim=4)
        lines = [f"{PW},{row}" for row in capture_text(generate(spec)[0]).splitlines()[1:]]
        # parses as -inf: passed on, it made SpO2's running mean nan and
        # every later arrival a refused one
        lines[100] = f"{PW},72,-{'9' * 400},118,76"
        path = tmp_path / "stream.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        settings = Settings(warmup=10, train_steps=20)
        for counts, (events, frames) in replay_both_ways(tmp_path, monkeypatch, path, settings):
            row = frames.decode().splitlines()[101].split(",")  # after the header
            assert (row[1], row[3]) == ("100", "1:over-limit")
            assert b"data-warning" not in events
            assert events.decode().splitlines()[-1].split(",")[3] == "399"
            assert counts["events"] == 402
            assert counts["board"].tiles["bed1"].data_warning is False

    @pytest.mark.parametrize("kill_at", [700, 1111, 1905])
    def test_a_killed_replay_leaves_each_alarm_behind_its_frame(self, tmp_path, kill_at):
        # A fresh process replays at speedup = inf and sends itself SIGKILL
        # when the source is about to hand out frame kill_at.
        spec = default_spec(steps=2400, n_anomalies=20, seed=3, dim=4)
        path = tmp_path / "stream.csv"
        write_stream(spec, path, tmp_path / "labels.csv")
        rows = path.read_text(encoding="utf-8").splitlines()
        for start in (400, 1100, 1890):
            rows[start : start + 6] = ["garbage"] * 6
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("warmup = 10\ntrain_steps = 20\nwarn_threshold = 3\n")
        script = (
            "import os, signal, sys\n"
            "import vitalwatch.sources as sources\n"
            "from vitalwatch.cli import main\n"
            "original = sources.ReplaySource.frames\n"
            "def frames(self):\n"
            "    for i, item in enumerate(original(self)):\n"
            "        if i == int(sys.argv[1]):\n"
            "            os.kill(os.getpid(), signal.SIGKILL)\n"
            "        yield item\n"
            "sources.ReplaySource.frames = frames\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        src = Path(pipeline_module.__file__).resolve().parents[1]  # the package under test
        killed, whole = tmp_path / "killed", tmp_path / "whole"
        argv = ["replay", str(path), "--config", str(config), "--out", str(killed)]
        done = subprocess.run(
            [sys.executable, "-c", script, str(kill_at), *argv],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        replay_run(load_settings(config), path, out_dir=whole)

        def complete_rows(out: Path, name: str, wall: int) -> list[str]:
            """The file's whole lines, its wall-clock column dropped."""
            text = (out / name).read_text(encoding="utf-8")
            lines = text.split("\n")[:-1]  # a cut last line has no newline
            return [drop_column(line, wall) for line in lines]

        frames = complete_rows(killed, "frames_bed1.csv", 2)
        events = complete_rows(killed, "events.csv", 0)
        whole_frames = complete_rows(whole, "frames_bed1.csv", 2)
        assert frames == whole_frames[: len(frames)]
        assert events == complete_rows(whole, "events.csv", 0)[: len(events)]
        assert 1 < len(frames) <= kill_at + 1 < len(whole_frames)
        on_disk = {int(row.split(",")[1]) for row in frames[1:]}
        # every row but a plain Green verdict is flushed as it is written
        flushed = [row for row in events[1:] if ",green," not in row or not row.endswith(",")]
        assert any(",red" in row for row in flushed)
        for row in flushed:
            assert int(row.split(",")[2]) in on_disk, row


class LoggedFile:
    """A file that logs each write and flush, in order, into a log that
    several files share, as (name, call, text)."""

    def __init__(self, handle, name: str, log: list) -> None:
        self.handle, self.name, self.log = handle, name, log

    def write(self, text: str) -> int:
        self.log.append((self.name, "write", text))
        return self.handle.write(text)

    def flush(self) -> None:
        self.log.append((self.name, "flush", ""))
        self.handle.flush()

    def tell(self) -> int:
        return self.handle.tell()

    def close(self) -> None:
        self.handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


GREEN, ORANGE, RED1, RED2 = (VerdictKind[k] for k in ("GREEN", "ORANGE", "RED1", "RED2"))


@st.composite
def event_frames(draw):
    """Each frame's events: any mix of plain and resolving Greens, Orange,
    Red1, Red2, and data warnings raised or cleared, with and without a
    reason, at the frame's timestep."""
    frames = []
    for t in range(draw(st.integers(1, 30))):
        events = []
        for kind in draw(st.lists(st.integers(0, 6), max_size=3)):
            delta = draw(st.floats(0.0, 1.0))
            if kind < 5:
                verdict_kind = [GREEN, GREEN, ORANGE, RED1, RED2][kind]
                resolves = t - 3 if kind in (1, 4) else None
                events.append(Verdict(verdict_kind, t, delta, resolves))
            else:
                reason = draw(st.sampled_from(["", "source for bed1 failed: gone"]))
                events.append(DataWarning(kind == 5, t, reason))
        frames.append(events)
    return frames


class TestWardDelivery:
    """The ``Ward``'s delivery of a frame's events is, event by event,
    ``BoardState.apply_event`` and ``event_row``, whichever form it takes;
    the frame archive is flushed before every row ``needs_flush`` names,
    and that row is flushed as written, on both of the ``Ward``'s paths.
    A guard: the short delivery of a plain Green must keep all of this."""

    @hypothesis.settings(max_examples=60, deadline=None)
    @given(frames=event_frames(), path=st.sampled_from(["feed", "replay"]))
    def test_delivery_is_apply_event_and_event_row(self, tmp_path_factory, frames, path):
        rng = np.random.default_rng(len(frames))
        lines = [steady_line(rng) for _ in frames]
        walls = [1.7e9 + 0.25 * t for t in range(len(frames))]
        log: list[tuple[str, str, str]] = []
        opened = Path.open

        def logged_open(self, *args, **kwargs):
            name = "events" if self.name == "events.csv" else "frames"
            return LoggedFile(opened(self, *args, **kwargs), name, log)

        out = tmp_path_factory.mktemp("ward")
        with mock.patch.object(Path, "open", logged_open):
            with Ward(small_settings(), ["bed1"], out) as ward:
                script = iter(frames)
                ward.pipelines["bed1"]._events = lambda warning, x, outcome: next(script)
                if path == "feed":
                    for line, wall in zip(lines, walls):
                        ward.feed("bed1", line, wall)
                else:
                    ward.replay("bed1", zip(lines, walls))

        board = BoardState.for_beds(["bed1"])
        rows, delivered = [EVENT_HEADER], []
        for events, wall in zip(frames, walls):
            for event in events:
                board.apply_event("bed1", event, wall)
                rows.append(event_row("bed1", event, wall))
                delivered.append(event)
        assert ward.board == board
        assert ward.counts["events"] == len(delivered)
        assert (out / "events.csv").read_text(encoding="utf-8").splitlines() == rows

        frames_unflushed = False
        event_calls = []
        for name, call, text in log:
            if name == "frames":
                frames_unflushed = call == "write"
                continue
            if text == EVENT_HEADER + "\n":
                continue
            if call == "write" and needs_flush(delivered[event_calls.count("write")]):
                assert not frames_unflushed
            event_calls.append(call)
        expected_calls = []
        for event in delivered:
            expected_calls += ["write", "flush"] if needs_flush(event) else ["write"]
        assert event_calls == expected_calls

    def test_an_alarms_frame_row_is_on_disk_before_its_event_row(self, tmp_path):
        rng = np.random.default_rng(2)
        seen = []  # (event, wall time, the frame archive's last row on disk)
        frames = tmp_path / "frames_bed1.csv"
        with Ward(small_settings(warmup=10, train_steps=20), ["bed1"], tmp_path) as ward:
            append = ward.archive.append

            def append_after_reading_the_frames(bed, event, wall_time, flush):
                last_row = frames.read_text(encoding="utf-8").splitlines()[-1]
                seen.append((event, wall_time, last_row))
                append(bed, event, wall_time, flush)

            ward.archive.append = append_after_reading_the_frames
            for i in range(60):
                ward.feed("bed1", steady_line(rng), float(i))
            ward.feed("bed1", wire("300", "5", "400"), 60.0)
        spike = [(event, row) for event, wall, row in seen if wall == 60.0]
        assert spike[0][0].kind in (VerdictKind.RED1, VerdictKind.ORANGE)
        for _, row in spike:
            assert row.startswith("bed1,60,60.000,,")


class TestTuneAgreesWithReplay:
    """``tune`` runs the front half once and the detector half per grid row;
    on the deployed config it must see exactly what ``replay`` archives."""

    @pytest.fixture()
    def faulty_capture(self, tmp_path):
        spec = default_spec(
            steps=400, n_anomalies=5, seed=11, dim=4, first_anomaly=90, min_gap=40
        )
        path = tmp_path / "stream.csv"
        labels = tmp_path / "labels.csv"
        write_stream(spec, path, labels)
        rows = path.read_text(encoding="utf-8").splitlines()
        # rows[i] is timestep i - 1: isolated faults in warmup, training and
        # live scoring, plus a run long enough to raise a data warning
        for i in (6, 25, 130, 131):
            rows[i] = "-," + rows[i].split(",", 1)[1]
        for i in range(200, 205):
            rows[i] = "garbage"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path, labels

    def test_default_config_verdicts_match_the_replay_archive(
        self, tmp_path, faulty_capture
    ):
        path, labels_path = faulty_capture
        settings = Settings(
            warmup=10, train_steps=20, warn_threshold=3,
            detector=ThresholdConfig(sigma=1.5, ell=10),
        )
        out = tmp_path / "out"
        replay_run(settings, path, out_dir=out)
        archived = [
            row.split(",", 1)[1]
            for row in (out / "events.csv").read_text(encoding="utf-8").splitlines()[1:]
        ]
        replayed = [row for row in archived if ",data-warning-" not in row]
        assert len(replayed) < len(archived)  # the fault run raised a warning
        kinds = {row.split(",")[1] for row in replayed}
        assert {"green", "orange", "red1", "red2"} <= kinds

        lines = [line for line, _ in ReplaySource(path, settings.password).frames()]
        timesteps, vectors = standardized_stream(lines, settings)
        verdicts = run_detector(
            vectors, settings.threshold_config(), settings.train_steps, timesteps
        )
        assert [event_row("bed1", v, 0.0).split(",", 1)[1] for v in verdicts] == replayed

        labels = read_labels(labels_path)
        policy = settings.match_policy()
        reports, _ = grid_search(
            settings.tuning_grid(), vectors, labels, policy,
            settings.train_steps, timesteps,
        )
        deployed = settings.threshold_config()
        (row,) = [r for r in reports if r.config == deployed]
        assert row == score_run(
            [_verdict_from_row(r) for r in replayed], labels, policy, config=deployed
        )

    def test_the_board_counts_the_alarms_the_tuner_counts(self, tmp_path, faulty_capture):
        path, _ = faulty_capture
        settings = Settings(
            warmup=10, train_steps=20, warn_threshold=3,
            detector=ThresholdConfig(sigma=1.5, ell=10),
        )
        out = tmp_path / "out"
        counts = replay_run(settings, path, out_dir=out)
        verdicts = [
            _verdict_from_row(row.split(",", 1)[1])
            for row in (out / "events.csv").read_text(encoding="utf-8").splitlines()[1:]
            if ",data-warning-" not in row
        ]
        # every kind whose counting the two could disagree on occurs
        assert {VerdictKind.ORANGE, VerdictKind.RED1, VerdictKind.RED2} <= {
            v.kind for v in verdicts
        }
        assert counts["board"].detected == len(alarm_times(verdicts)) > 0


def _verdict_from_row(row: str) -> Verdict:
    """An ``events.csv`` verdict row, wall-clock column stripped."""
    _, kind, timestep, delta, resolves = row.split(",")
    return Verdict(
        VerdictKind(kind), int(timestep), float(delta),
        int(resolves) if resolves else None,
    )


class TestMonitorRun:
    def test_two_replay_beds_drain_and_archive(self, tmp_path, capture_file):
        settings = replace(Settings(warmup=10, train_steps=20), beds=(
            BedSource(bed="bed1", kind="replay", target=str(capture_file)),
            BedSource(bed="bed2", kind="replay", target=str(capture_file)),
        ))
        out = tmp_path / "out"
        screen = io.StringIO()
        counts = monitor_run(settings, out_dir=out, screen=screen)
        assert counts["frames"] == 240
        assert (out / "frames_bed1.csv").exists()
        assert (out / "frames_bed2.csv").exists()
        assert "bed1" in screen.getvalue() and "bed2" in screen.getvalue()

    def test_failed_source_degrades_bed_but_run_continues(
        self, tmp_path, capture_file
    ):
        settings = replace(Settings(warmup=10, train_steps=20), beds=(
            BedSource(bed="bed1", kind="replay", target=str(capture_file)),
            BedSource(bed="bed2", kind="replay", target=str(tmp_path / "missing.csv")),
        ))
        out = tmp_path / "out"
        screen = io.StringIO()
        counts = monitor_run(settings, out_dir=out, screen=screen)
        assert counts["frames"] == 120
        board: BoardState = counts["board"]
        assert board.tiles["bed2"].data_warning is True
        assert "source for bed2 failed" in screen.getvalue()
        events = (out / "events.csv").read_text()
        assert "bed2,data-warning-raised" in events

    def test_unexpected_source_exception_degrades_bed_but_run_continues(
        self, tmp_path, capture_file, monkeypatch
    ):
        class Broken:
            def frames(self):
                raise RuntimeError("transceiver fell over")
                yield  # a generator, like every source

        real_build = pipeline_module.build_source

        def build(bed_cfg, settings, stop):
            if bed_cfg.bed == "bed2":
                return Broken()
            return real_build(bed_cfg, settings, stop)

        monkeypatch.setattr(pipeline_module, "build_source", build)
        settings = replace(Settings(warmup=10, train_steps=20), beds=(
            BedSource(bed="bed1", kind="replay", target=str(capture_file)),
            BedSource(bed="bed2", kind="replay", target=str(capture_file)),
        ))
        out = tmp_path / "out"
        screen = io.StringIO()
        counts = monitor_run(settings, out_dir=out, screen=screen)
        assert counts["frames"] == 120
        assert counts["board"].tiles["bed2"].data_warning is True
        assert "source for bed2 failed: RuntimeError: transceiver fell over" in screen.getvalue()
        assert "bed2,data-warning-raised" in (out / "events.csv").read_text()

    def test_engine_error_restarts_only_that_beds_detector(
        self, tmp_path, capture_file, monkeypatch
    ):
        settings = replace(Settings(warmup=10, train_steps=20), beds=(
            BedSource(bed="bed1", kind="replay", target=str(capture_file)),
            BedSource(bed="bed2", kind="replay", target=str(capture_file)),
        ))

        def rows(out, bed):
            text = drop_column((out / "events.csv").read_text(), 0)
            return [row for row in text.splitlines() if row.startswith(bed + ",")]

        clean = tmp_path / "clean"
        monitor_run(settings, out_dir=clean, screen=io.StringIO())

        inject_engine_fault(monkeypatch, at=60)
        out = tmp_path / "out"
        screen = io.StringIO()
        counts = monitor_run(settings, out_dir=out, screen=screen)
        assert counts["frames"] == 240
        assert "detector for bed1 restarted: injected fault" in screen.getvalue()
        assert counts["board"].tiles["bed1"].data_warning is False
        assert counts["board"].tiles["bed2"].data_warning is False
        assert rows(out, "bed2") == rows(clean, "bed2")

        bed1 = rows(out, "bed1")
        cut = bed1.index("bed1,data-warning-raised,60,,")
        assert bed1[:cut] == [r for r in rows(clean, "bed1") if int(r.split(",")[2]) < 60]
        # the fresh engine trains on frames 61-80 and scores from 81 on; its
        # first verdict clears the restart's warning
        assert bed1[cut + 1] == "bed1,data-warning-cleared,81,,"
        after = [int(r.split(",")[2]) for r in bed1[cut + 1 :]]
        assert after and min(after) == 81
        frames = (out / "frames_bed1.csv").read_text().splitlines()
        assert len(frames) == 121

    def test_replay_recovers_from_an_engine_error_as_monitor_does(
        self, tmp_path, capture_file, monkeypatch, capsys
    ):
        inject_engine_fault(monkeypatch, at=60)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"warmup = 10\ntrain_steps = 20\nbed.bed1.source = replay:{capture_file}\n"
        )
        replayed, monitored = tmp_path / "replay", tmp_path / "monitor"
        argv = ["replay", str(capture_file), "--config", str(config), "--out", str(replayed)]
        assert main(argv) == 0
        assert "detector for bed1 restarted: injected fault\n" in capsys.readouterr().out
        screen = io.StringIO()
        monitor_run(load_settings(config), out_dir=monitored, screen=screen)
        assert "detector for bed1 restarted: injected fault\n" in screen.getvalue()
        replay_rows, monitor_rows = (
            drop_column((out / "events.csv").read_text(), 0) for out in (replayed, monitored)
        )
        assert "bed1,data-warning-raised,60,," in replay_rows
        assert replay_rows == monitor_rows

    def test_one_bed_monitor_writes_the_archives_replay_writes(self, tmp_path, capture_file):
        rows = capture_file.read_text(encoding="utf-8").splitlines()
        # rows[i] is timestep i - 1: isolated flags in warm-up, training and
        # scoring, and a run of four (40-43) that raises a data warning at 42
        # and clears it at 44
        for i in (5, 25, 80):
            rows[i] = "-," + rows[i].split(",", 1)[1]
        for i in range(41, 45):
            rows[i] = "garbage"
        capture_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
        settings = replace(
            Settings(warmup=10, train_steps=20, warn_threshold=3),
            beds=(BedSource(bed="bed1", kind="replay", target=str(capture_file)),),
        )
        replayed, monitored = tmp_path / "replay", tmp_path / "monitor"
        replay_run(settings, capture_file, out_dir=replayed)
        monitor_run(settings, out_dir=monitored, screen=io.StringIO())
        archives = [
            (
                drop_column((out / "frames_bed1.csv").read_text(), 2),
                drop_column((out / "events.csv").read_text(), 0),
            )
            for out in (replayed, monitored)
        ]
        assert archives[0] == archives[1]
        frames, events = archives[0]
        flagged = [row.split(",")[1] for row in frames.splitlines()[1:] if row.split(",")[2]]
        assert flagged == ["4", "24", "40", "41", "42", "43", "79"]
        assert "bed1,data-warning-raised,42,," in events
        assert "bed1,data-warning-cleared,44,," in events

    def test_a_failure_report_never_blocks_its_producer(
        self, tmp_path, capture_file, monkeypatch
    ):
        # A one-slot queue and a slow consumer: the source fails while its
        # last frame still fills the queue, and the run stops before taking
        # it. Both still reach the archives once the producer is joined.
        class Failing:
            def frames(self):
                for i in range(3):
                    yield "garbage", float(i)
                raise SourceError("link lost")

        feed_line = BedPipeline.feed_line

        def slow_feed_line(self, line, received_at):
            time.sleep(0.3)
            return feed_line(self, line, received_at)

        monkeypatch.setattr(pipeline_module, "build_source", lambda *_: Failing())
        monkeypatch.setattr(pipeline_module, "Queue", lambda maxsize: Queue(maxsize=1))
        monkeypatch.setattr(BedPipeline, "feed_line", slow_feed_line)
        settings = replace(Settings(), beds=(
            BedSource(bed="bed1", kind="replay", target=str(capture_file)),
        ))
        before = set(threading.enumerate())
        out = tmp_path / "out"
        screen = io.StringIO()
        counts = monitor_run(settings, out_dir=out, duration=0.5, screen=screen)
        leaked = [
            t.name for t in threading.enumerate()
            if t.name.startswith("src-") and t not in before
        ]
        assert leaked == []
        assert counts["frames"] == 3
        assert len((out / "frames_bed1.csv").read_text().splitlines()[1:]) == 3
        # The failure's warning, after the three frames; its cause goes to the screen.
        events = drop_column((out / "events.csv").read_text(), 0).splitlines()[1:]
        assert events == ["bed1,data-warning-raised,3,,"]
        assert "source for bed1 failed: link lost\n" in screen.getvalue()

    def test_an_event_archive_that_cannot_open_leaves_no_archive_open(
        self, tmp_path, capture_file
    ):
        out = tmp_path / "out"
        (out / "events.csv").mkdir(parents=True)
        settings = replace(Settings(), beds=(
            BedSource(bed="bed1", kind="replay", target=str(capture_file)),
        ))
        with pytest.raises(IsADirectoryError):
            monitor_run(settings, out_dir=out, screen=io.StringIO())
        gc.collect()  # an unclosed frame archive would warn here, failing the test

    def test_monitor_without_beds_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one bed"):
            monitor_run(Settings(), out_dir=tmp_path / "out")

    def test_paced_sources_stop_when_the_run_stops(self, tmp_path, capture_file):
        # At the default 12 s cadence each paced source waits for its next
        # frame when the 0.5 s run ends; it must not wait the gap out.
        settings = replace(Settings(speedup=1.0), beds=(
            BedSource(bed="paced1", kind="replay", target=str(capture_file)),
            BedSource(bed="paced2", kind="replay", target=str(capture_file)),
            BedSource(bed="paced3", kind="synthetic", target="7"),
        ))
        monitor_run(settings, out_dir=tmp_path / "out", duration=0.5, screen=io.StringIO())
        alive = [t.name for t in threading.enumerate() if t.name.startswith("src-paced")]
        assert alive == []


class TestBuildSource:
    def test_kinds_map_to_source_classes(self, tmp_path, capture_file):
        import threading

        settings = Settings()
        stop = threading.Event()
        assert isinstance(
            build_source(
                BedSource("bed1", "replay", str(capture_file)), settings, stop
            ),
            ReplaySource,
        )
        assert isinstance(
            build_source(BedSource("bed1", "tail", str(capture_file)), settings, stop),
            TailSource,
        )
        assert isinstance(
            build_source(BedSource("bed1", "socket", "127.0.0.1:9"), settings, stop),
            SocketSource,
        )

    def test_the_default_synthetic_bed_keeps_its_stream(self):
        source = build_source(BedSource("bed1", "synthetic", "3"), Settings(), threading.Event())
        assert source.spec == default_spec(
            steps=10_000, n_anomalies=20, seed=3, dim=4, first_anomaly=300
        )

    def test_a_one_column_synthetic_bed_streams_its_frames(self):
        settings = Settings(schema_names=("hr",))
        source = build_source(BedSource("bed1", "synthetic", "3"), settings, threading.Event())
        assert len(source.spec.channels) == 1
        assert {anomaly.channels for anomaly in source.spec.anomalies} == {(0,)}
        assert sum(1 for _ in source.frames()) == source.spec.steps

    def test_a_long_lead_in_lengthens_the_synthetic_stream(self):
        # At a fixed 10 000 steps the anomalies after a lead-in of 5050
        # frames did not fit, and the bed died before its first frame.
        settings = Settings(warmup=5000)
        source = build_source(BedSource("bed1", "synthetic", "3"), settings, threading.Event())
        first = 2 * settings.lead_in
        assert source.spec.steps == first + 9_700
        assert len(source.spec.anomalies) == 20
        assert source.spec.anomalies[0].timestep >= first
        assert sum(1 for _ in source.frames()) == source.spec.steps

    def test_socket_target_must_be_host_port(self):
        # refused when the bed is made, so build_source never receives it
        with pytest.raises(ConfigError, match="host:port"):
            BedSource("bed1", "socket", "nonsense")
