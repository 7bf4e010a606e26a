"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s pytest shows them for failing criteria only.
"""

import time

import numpy as np
import pytest

from vitalwatch.config import Settings
from vitalwatch.engine import (
    DictionaryState,
    KoadEngine,
    MeasurementVector,
    ThresholdConfig,
    VerdictKind,
)
from vitalwatch.kernels import KernelSpec, kernel_vector
from vitalwatch.pipeline import BedPipeline, replay_run
from vitalwatch.sources import ReplaySource
from vitalwatch.standardize import RunningStandardizer
from vitalwatch.synth import default_spec, generate, write_stream
from vitalwatch.tuning import MatchPolicy, grid_search
from vitalwatch.validity import FlagReason, ParameterSchema, parse_frame, validate

from _oracles import oracle_delta, oracle_gram, oracle_kernel


def report(criterion: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion}: {title}{suffix}")
    assert ok, f"criterion {criterion} failed: {title}{suffix}"


def vec(*values) -> np.ndarray:
    return np.array(values, dtype=float)


# --- 1. projection error and inverse Gram vs dense oracle --------------------


def test_criterion_1_ald_oracle_equivalence():
    rng = np.random.default_rng(101)
    spec = KernelSpec(1.0)
    started = time.perf_counter()
    cases = 0
    worst_delta = 0.0
    worst_identity = 0.0
    while cases < 220:
        d = int(rng.integers(1, 9))
        state = DictionaryState(spec, d, max_size=20)
        spread = 3.0 * 20 ** (1.0 / d)
        for _ in range(int(rng.integers(4, 30))):
            x = rng.uniform(-spread, spread, size=d)
            dense_delta, _ = oracle_delta(list(state.basis), x, 1.0)
            # near-dependent vectors are never admitted live (band floor nu1);
            # admitting them would make any absolute inverse comparison moot
            if dense_delta >= 0.05 and state.size < 20:
                k = kernel_vector(spec, state.basis, x)
                coeffs = state.inv_gram @ k if state.size else np.zeros(0)
                state.admit(MeasurementVector(x, 0), coeffs, float(1.0 - k @ coeffs))
            if state.size > 2 and rng.random() < 0.25:
                state.remove(int(rng.integers(0, state.size)))
        for _ in range(3):
            probe = rng.uniform(-spread, spread, size=d)
            k = kernel_vector(spec, state.basis, probe)
            recursive = 1.0 - float(k @ (state.inv_gram @ k)) if state.size else 1.0
            dense, _ = oracle_delta(list(state.basis), probe, 1.0)
            worst_delta = max(worst_delta, abs(recursive - dense))
        if state.size:
            residual = state.inv_gram @ oracle_gram(list(state.basis), 1.0)
            residual -= np.eye(state.size)
            worst_identity = max(worst_identity, float(np.linalg.norm(residual)))
        cases += 1
    elapsed = time.perf_counter() - started
    ok = worst_delta <= 1e-8 and worst_identity <= 1e-6 and elapsed < 5.0
    report(
        1,
        "recursive projection matches dense oracle",
        ok,
        f"{cases} cases, |delta diff| {worst_delta:.2e}, "
        f"identity drift {worst_identity:.2e}, {elapsed:.2f}s",
    )


# --- 2. alarm state machine ---------------------------------------------------


def _scripted_config(**overrides) -> ThresholdConfig:
    base = dict(
        nu1=0.1, nu2=0.6, ell=4, sigma=1.0, lam=0.98, d_similar=0.85,
        epsilon_frac=0.5, prune_period=10**6, usage_floor=0.0, max_size=32,
    )
    base.update(overrides)
    return ThresholdConfig(**base)


def test_criterion_2_alarm_state_machine():
    config = _scripted_config()
    engine = KoadEngine(1, config)
    for t, v in enumerate((0.0, 6.0)):
        engine.warm_start(MeasurementVector(vec(v), t))

    # (value, timestep): hits every branch, ends with a gap past a deadline
    script = [
        (0.05, 2), (3.0, 3), (0.8, 4), (0.9, 5), (0.75, 6), (5.2, 7),
        (0.82, 8), (3.1, 9), (0.0, 10), (6.0, 11), (5.9, 12), (0.78, 13),
        (2.9, 14), (0.1, 15), (1.6, 17), (0.0, 30),
    ]
    problems = []
    raised = {}
    resolved = {}
    history = []
    immediate_kinds = set()

    def run_one(value, t):
        basis_before = [row.copy() for row in engine.dictionary.basis]
        size_before = engine.dictionary.size
        dense, _ = oracle_delta(basis_before, vec(value), config.sigma)
        margin = min(abs(dense - config.nu1), abs(dense - config.nu2))
        if 0 < margin < 1e-6:
            problems.append(f"t={t}: scripted delta {dense} hugs a threshold")
        immediate, due = engine.step(MeasurementVector(vec(value), t))
        history.append((value, t))
        immediate_kinds.add(immediate.kind)
        if dense < config.nu1:
            expected = VerdictKind.GREEN
        elif dense > config.nu2:
            expected = VerdictKind.RED1
        else:
            expected = VerdictKind.ORANGE
        if immediate.kind is not expected:
            problems.append(f"t={t}: delta {dense:.4f} gave {immediate.kind}")
        grew = engine.dictionary.size - size_before
        wanted_growth = 1 if expected is VerdictKind.ORANGE else 0
        evictions = sum(1 for r in due if r.kind is VerdictKind.RED2)
        if grew != wanted_growth - evictions:
            problems.append(f"t={t}: size change {grew} for {expected}")
        if expected is VerdictKind.ORANGE:
            raised[t] = value
        for r in due:
            resolved.setdefault(r.resolves_timestep, []).append(r)
        return immediate

    for value, t in script:
        run_one(value, t)

    kinds_seen = set()
    for raise_t in list(raised):
        kinds_seen.add(VerdictKind.ORANGE)
    # flush every open tracker by stepping far past the last deadline
    t = 40
    while engine.trackers:
        run_one(0.0, t)
        t += 1

    for raise_t, candidate in raised.items():
        closings = resolved.get(raise_t, [])
        if len(closings) != 1:
            problems.append(f"orange at {raise_t} resolved {len(closings)} times")
            continue
        r = closings[0]
        kinds_seen.add(r.kind)
        if r.at_timestep != raise_t + config.ell:
            problems.append(
                f"orange at {raise_t} resolved at {r.at_timestep}, "
                f"expected {raise_t + config.ell}"
            )
        if r.kind not in (VerdictKind.GREEN, VerdictKind.RED2):
            problems.append(f"orange at {raise_t} resolved into {r.kind}")
        explained = sum(
            1
            for value, at in history
            if raise_t < at <= raise_t + config.ell
            and oracle_kernel(vec(candidate), vec(value), config.sigma)
            >= config.d_similar
        )
        expected_kind = (
            VerdictKind.GREEN
            if explained >= config.green_quota
            else VerdictKind.RED2
        )
        if r.kind is not expected_kind:
            problems.append(
                f"orange at {raise_t}: {explained} explained, got {r.kind}"
            )
    for raise_t in resolved:
        if raise_t not in raised:
            problems.append(f"orphan resolution for timestep {raise_t}")

    # closed band edges: a delta exactly at nu1 or nu2 goes Orange
    for edge in ("nu1", "nu2"):
        probe = vec(0.8)
        fresh = KoadEngine(1, _scripted_config())
        for t, v in enumerate((0.0, 6.0)):
            fresh.warm_start(MeasurementVector(vec(v), t))
        delta_exact, _ = fresh.projection_error(probe)
        pinned = KoadEngine(1, _scripted_config(**{edge: delta_exact}))
        for t, v in enumerate((0.0, 6.0)):
            pinned.warm_start(MeasurementVector(vec(v), t))
        verdict, _ = pinned.step(MeasurementVector(probe, 2))
        if verdict.kind is not VerdictKind.ORANGE:
            problems.append(f"delta == {edge} classified {verdict.kind}")

    needed = {VerdictKind.GREEN, VerdictKind.RED2, VerdictKind.ORANGE}
    missing = needed - kinds_seen
    if missing:
        problems.append(f"script never produced resolutions {missing}")
    wanted_immediate = {VerdictKind.GREEN, VerdictKind.RED1, VerdictKind.ORANGE}
    if not wanted_immediate <= immediate_kinds:
        problems.append(f"script never produced {wanted_immediate - immediate_kinds}")
    report(
        2,
        "alarm semantics hold on constructed streams",
        not problems,
        "; ".join(problems) if problems else f"{len(raised)} oranges reconciled",
    )


# --- 3. dictionary boundedness ------------------------------------------------


def test_criterion_3_dictionary_boundedness():
    rng = np.random.default_rng(3)
    points = rng.standard_normal((50, 4)) * 2.0
    config = ThresholdConfig(
        nu1=0.01, nu2=0.995, ell=10, sigma=1.0, lam=0.9, d_similar=0.9,
        epsilon_frac=0.1, prune_period=25, usage_floor=1e-8, max_size=60,
    )
    engine = KoadEngine(4, config)
    t = 0
    for _ in range(2):  # first pass admits every point, second credits usage
        for p in points:
            engine.warm_start(MeasurementVector(p, t))
            t += 1

    max_m = 0
    non_green = 0
    for step in range(10_000):
        idx = step % 50 if step < 5000 else step % 10
        verdict, _ = engine.step(MeasurementVector(points[idx], t))
        t += 1
        max_m = max(max_m, engine.dictionary.size)
        if verdict.kind is not VerdictKind.GREEN:
            non_green += 1
    survivors = sorted(
        int(np.linalg.norm(points - row, axis=1).argmin())
        for row in engine.dictionary.basis
    )
    ok = (
        max_m <= 50
        and non_green == 0
        and survivors == list(range(10))  # exactly the points still in use
    )
    report(
        3,
        "dictionary stays bounded and sheds unused elements",
        ok,
        f"max m {max_m}, final m {engine.dictionary.size}, "
        f"{non_green} non-green verdicts",
    )


# --- 4. validity screen -------------------------------------------------------


def test_criterion_4_validity_screen():
    schema = ParameterSchema(names=("hr", "spo2", "nbp_sys", "nbp_dia"))
    password = "PW123"
    table = [
        ("WRONG,72,98,118,76", (-1, FlagReason.BAD_PASSWORD)),
        ("PW123,72,98,118", (-1, FlagReason.BAD_ARITY)),
        ("PW123,null,98,118,76", (0, FlagReason.NULL)),
        ("PW123,72,0,118,76", (1, FlagReason.ZERO)),
        ("PW123,72,98,-,76", (2, FlagReason.HYPHEN)),
        ("PW123,72,98,118,10000.01", (3, FlagReason.OVER_LIMIT)),
        ("PW123,72,98,abc,76", (2, FlagReason.NON_NUMERIC)),
    ]
    problems = []
    for line, expected in table:
        result = validate(parse_frame(line), password, schema)
        if result.ok or expected not in result.flags:
            problems.append(f"{line!r} -> {result.flags}")
    clean = validate(parse_frame("PW123,72,98,118,76"), password, schema)
    if not clean.ok:
        problems.append("clean frame rejected")

    # W consecutive flags warn on exactly the W-th frame, next valid clears
    import io

    settings = Settings(warmup=2, train_steps=2, warn_threshold=5)
    archive = io.StringIO()
    pipe = BedPipeline("bed1", settings, frame_archive=archive)
    rng = np.random.default_rng(4)

    def good_line():
        return "PW123," + ",".join(
            f"{v:.2f}" for v in 80.0 + rng.standard_normal(4)
        )

    warn_events = []
    for i in range(10):
        warn_events += [
            e for e in pipe.feed_line(good_line(), float(i)) if hasattr(e, "active")
        ]
    for i in range(10, 15):
        events = pipe.feed_line("PW123,72,98,-,76", float(i))
        warn_events += [e for e in events if hasattr(e, "active")]
        if i < 14 and warn_events:
            problems.append(f"warning raised early at frame {i}")
    if [(e.active, e.at_timestep) for e in warn_events] != [(True, 14)]:
        problems.append(f"raise sequence wrong: {warn_events}")
    warn_events += [
        e for e in pipe.feed_line(good_line(), 15.0) if hasattr(e, "active")
    ]
    if len(warn_events) != 2 or warn_events[1].active or warn_events[1].at_timestep != 15:
        problems.append(f"clear sequence wrong: {warn_events}")

    rows = archive.getvalue().splitlines()[1:]
    flagged_rows = [r for r in rows if r.split(",")[3] != ""]
    if len(rows) != 16 or len(flagged_rows) != 5:
        problems.append(f"archive rows {len(rows)}, flagged {len(flagged_rows)}")
    # flagged frames never reach the detector: standardizer saw valid only
    if pipe.standardizer.count != 11:
        problems.append(f"detector chain saw {pipe.standardizer.count} frames")
    report(
        4,
        "validity table, warning cadence, archive routing",
        not problems,
        "; ".join(problems) if problems else "7 reject reasons + warning cycle",
    )


# --- 5. tuner structure -------------------------------------------------------


def test_criterion_5_tuner_structure():
    started = time.perf_counter()
    spec = default_spec(
        steps=300, n_anomalies=9, seed=13, dim=4, first_anomaly=120, min_gap=15
    )
    values, labels = generate(spec)
    z = (values - values.mean(axis=0)) / values.std(axis=0)
    grid = [
        ThresholdConfig(nu1=a, nu2=b, sigma=1.0)
        for a, b in ((0.03, 0.08), (0.07, 0.16), (0.11, 0.24))
    ]
    reports, best = grid_search(grid, list(z), labels, train_steps=50)
    elapsed = time.perf_counter() - started
    problems = []
    if len(reports) != 3:
        problems.append(f"{len(reports)} rows")
    for r in reports:
        if r.detected + r.missed != 9:
            problems.append(f"({r.nu1},{r.nu2}): detected+missed = {r.detected + r.missed}")
    if best.score != max(r.score for r in reports):
        problems.append("winner does not maximize detected - false")
    if elapsed >= 10.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    report(
        5,
        "three-setting grid accounts for every label",
        not problems,
        "; ".join(problems)
        if problems
        else f"rows detect {[r.detected for r in reports]} of 9, {elapsed:.2f}s",
    )


# --- 6. detection power -------------------------------------------------------


def test_criterion_6_detection_power():
    spec = default_spec(steps=2000, n_anomalies=36, seed=2026, dim=4, min_gap=30)
    values, labels = generate(spec)
    standardizer = RunningStandardizer(4, warmup=50)
    timesteps, vectors = [], []
    for t, row in enumerate(values):
        z = standardizer.push(row)
        if standardizer.count <= 50:
            continue
        timesteps.append(t)
        vectors.append(z)
    grid = Settings(grid_sigma=(1.0, 1.5, 2.5)).tuning_grid()
    reports, best = grid_search(
        grid, vectors, labels, policy=MatchPolicy(), train_steps=50,
        timesteps=timesteps,
    )
    detection_rate = best.detected / len(labels)
    clean_timesteps = 2000 - len(labels)
    false_rate = best.false_alarms / clean_timesteps
    ok = detection_rate >= 0.75 and false_rate <= 0.02
    report(
        6,
        "tuned thresholds detect injected spikes",
        ok,
        f"detected {best.detected}/{len(labels)} ({detection_rate:.0%}), "
        f"false rate {false_rate:.2%} at nu=({best.nu1:g},{best.nu2:g})",
    )


# --- 7. performance -----------------------------------------------------------


def _performance_engine(m: int, rng) -> tuple[KoadEngine, int]:
    config = ThresholdConfig(
        nu1=0.05, nu2=0.9999, ell=10, sigma=1.0, lam=1.0, d_similar=0.9,
        epsilon_frac=0.1, prune_period=10**9, usage_floor=0.0, max_size=m,
    )
    engine = KoadEngine(14, config)
    t = 0
    while engine.dictionary.size < m:
        x = rng.uniform(-6.0, 6.0, size=14)
        engine.warm_start(MeasurementVector(x, t))
        t += 1
    return engine, t


def _per_step_cost(m: int, rng, steps: int = 4000) -> float:
    engine, t = _performance_engine(m, rng)
    base = engine.dictionary.basis.copy()
    idx = rng.integers(0, m, size=steps)
    arrivals = base[idx] + 0.001 * rng.standard_normal((steps, 14))
    started = time.perf_counter()
    for i in range(steps):
        engine.step(MeasurementVector(arrivals[i], t))
        t += 1
    elapsed = time.perf_counter() - started
    assert engine.dictionary.size == m
    return elapsed / steps


def test_criterion_7_performance():
    rng = np.random.default_rng(42)
    _per_step_cost(10, rng, steps=1000)  # warm the interpreter and caches

    engine, t = _performance_engine(50, rng)
    base = engine.dictionary.basis.copy()
    idx = rng.integers(0, 50, size=2000)
    arrivals = base[idx] + 0.001 * rng.standard_normal((2000, 14))
    started = time.perf_counter()
    for i in range(2000):
        engine.step(MeasurementVector(arrivals[i], t))
        t += 1
    wall = time.perf_counter() - started
    max_m = engine.dictionary.size

    sizes = (10, 20, 40)
    costs = {
        m: min(_per_step_cost(m, rng) for _ in range(3)) for m in sizes
    }
    slope = float(
        np.polyfit(np.log(sizes), np.log([costs[m] for m in sizes]), 1)[0]
    )
    ok = wall < 1.0 and max_m <= 50 and slope <= 2.2
    report(
        7,
        "2000 steps under a second, growth quadratic or better",
        ok,
        f"wall {wall * 1000:.0f}ms at m<=50, log-log slope {slope:.2f}",
    )


# --- 8. determinism -----------------------------------------------------------


def _strip_column(text: str, idx: int) -> str:
    rows = []
    for row in text.splitlines():
        cells = row.split(",")
        del cells[idx]
        rows.append(",".join(cells))
    return "\n".join(rows)


def test_criterion_8_pipeline_determinism(tmp_path):
    spec = default_spec(
        steps=160, n_anomalies=2, seed=5, dim=4, first_anomaly=100, min_gap=20
    )
    fixture = tmp_path / "fixture.csv"
    write_stream(spec, fixture, tmp_path / "fixture.labels.csv")

    settings = Settings(warmup=10, train_steps=20)
    snapshots = []
    for name in ("one", "two"):
        out = tmp_path / name
        replay_run(settings, fixture, out_dir=out)
        frames = _strip_column((out / "frames_bed1.csv").read_text(), 2)
        events = _strip_column((out / "events.csv").read_text(), 0)
        snapshots.append((frames, events))
    replay_ok = snapshots[0] == snapshots[1]

    texts = []
    for name in ("a.csv", "b.csv"):
        stream = tmp_path / name
        write_stream(spec, stream, tmp_path / (name + ".labels"))
        texts.append(
            stream.read_text() + (tmp_path / (name + ".labels")).read_text()
        )
    synth_ok = texts[0] == texts[1]
    report(
        8,
        "replay and synth are bit-stable",
        replay_ok and synth_ok,
        "archives identical modulo wall-clock columns; streams seed-identical",
    )


# --- 9. cadence ---------------------------------------------------------------


def test_criterion_9_replay_cadence(tmp_path):
    spec = default_spec(steps=50, n_anomalies=0, seed=1, dim=4)
    fixture = tmp_path / "fifty.csv"
    write_stream(spec, fixture, tmp_path / "fifty.labels.csv")

    nominal = 12.0  # seconds between frames at the bedside
    speedup = 300.0
    expected_gap = nominal / speedup
    source = ReplaySource(fixture, "PW123", poll_interval=nominal, speedup=speedup)
    stamps = []
    for _line, _received in source.frames():
        stamps.append(time.perf_counter())
    gaps = np.diff(stamps)
    mean_gap = float(gaps.mean())
    ok = len(stamps) == 50 and abs(mean_gap - expected_gap) <= 0.2 * expected_gap
    report(
        9,
        "replay honors the paced frame interval",
        ok,
        f"mean gap {mean_gap * 1000:.1f}ms vs nominal {expected_gap * 1000:.0f}ms",
    )
