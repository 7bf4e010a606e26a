"""Built-in sanity suite, runnable on any install without test tooling.

Five checks, each independent of the code path it verifies:

* projection errors and the maintained inverse Gram against fresh dense
  linear solves on randomized admission/removal sequences, and the kept
  Gram matrix against one rebuilt from the basis,
* the Green / Red1 / Orange / Red2 alarm walk on a scripted 1-d stream
  whose expected deltas come from the same dense solves,
* the tuner's block walk (``feed_run``) against one ``feed`` per arrival,
  bit for bit, on a stream that churns the dictionary: the walk projects
  stacked rows, so a numpy whose stacked arithmetic differs from its
  one-row arithmetic fails here rather than letting tune and replay drift,
* a replay at speedup = inf (``BedPipeline.feed_recording``, whose walk
  pulls each frame through the screen) against the per-frame chain
  (``feed_line``), bit for bit, on a seeded capture with flagged frames and
  a data-warning burst,
* the frame validity table and the consecutive-flag warning counter.

Kept deliberately small (about a second); the full development suite lives
in the repository's tests directory.
"""

from __future__ import annotations

import io
import sys
import time
from dataclasses import dataclass

import numpy as np

from .config import Settings
from .engine import (
    KoadEngine,
    MeasurementVector,
    ThresholdConfig,
    Verdict,
    VerdictKind,
)
from .kernels import gram_matrix, kernel_vector
from .pipeline import BedPipeline
from .sources import wire_line
from .synth import default_spec, generate
from .validity import (
    FlagStreak,
    ParameterSchema,
    frame_matcher,
    parse_frame,
    track,
    validate,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _dense_delta(basis: np.ndarray, x: np.ndarray, sigma: float) -> float:
    """Projection error by a from-scratch dense solve (the oracle side)."""
    if basis.shape[0] == 0:
        return 1.0
    gram = gram_matrix(basis, sigma)
    k = kernel_vector(basis, x, sigma)
    return float(1.0 - k @ np.linalg.solve(gram, k))


def check_projection_oracle(cases: int = 40, seed: int = 7) -> CheckResult:
    """Incremental Gram and inverse-Gram bookkeeping vs dense rebuilds.

    A random admit/remove walk builds an engine's dictionary; its
    ``projection_error`` then scores a probe from the whole box (delta near
    1) and a basis row plus N(0, 0.3) noise (delta inside (0, 1)).
    """
    rng = np.random.default_rng(seed)
    sigma = 1.0
    worst_delta = 0.0
    worst_consistency = 0.0
    worst_gram = 0.0
    deltas = []
    for _ in range(cases):
        d = int(rng.integers(2, 6))
        engine = KoadEngine(d, ThresholdConfig(sigma=sigma, max_size=12))
        state = engine.dictionary
        spread = 3.0 * 10 ** (1.0 / d)
        for _ in range(int(rng.integers(3, 9))):
            x = rng.uniform(-spread, spread, size=d)
            delta = _dense_delta(state.basis, x, sigma)
            if delta < 0.05:
                continue  # too close to the span; a live engine would not admit it
            k = kernel_vector(state.basis, x, sigma)
            coeffs = state.inv_gram @ k if state.size else np.zeros(0)
            state.admit(x, 0, coeffs, delta, k)
            if state.size > 2 and rng.random() < 0.3:
                state.remove(int(rng.integers(0, state.size)))
        worst_consistency = max(worst_consistency, state.consistency_error())
        kept = np.abs(state.gram() - gram_matrix(state.basis, sigma))
        worst_gram = max(worst_gram, float(kept.max(initial=0.0)))
        near = state.basis[int(rng.integers(0, state.size))] + rng.normal(0.0, 0.3, size=d)
        for probe in (rng.uniform(-spread, spread, size=d), near):
            dense = _dense_delta(state.basis, probe, sigma)
            recursive, _ = engine.projection_error(probe)
            worst_delta = max(worst_delta, abs(recursive - dense))
            deltas.append(dense)
    ok = worst_delta <= 1e-8 and worst_consistency <= 1e-6 and worst_gram <= 1e-12
    low, mid, high = np.percentile(deltas, [0, 50, 100])
    return CheckResult(
        "projection vs dense solve",
        ok,
        f"max |delta diff| {worst_delta:.2e} over {len(deltas)} probes "
        f"(delta min/median/max {low:.3f}/{mid:.3f}/{high:.3f}), "
        f"max inverse drift {worst_consistency:.2e}, max kept-Gram drift {worst_gram:.2e}",
    )


def check_alarm_walk() -> CheckResult:
    """One scripted pass through every alarm branch."""
    config = ThresholdConfig(
        nu1=0.05, nu2=0.3, ell=4, sigma=1.0, lam=0.98,
        d_similar=0.9, epsilon_frac=0.5, prune_period=1000,
        usage_floor=0.0, max_size=10,
    )
    engine = KoadEngine(1, config)
    t = 0

    def step(value: float):
        nonlocal t
        out = engine.step(MeasurementVector(np.array([value]), t))
        t += 1
        return out

    problems: list[str] = []

    def expect(condition: bool, label: str) -> None:
        if not condition:
            problems.append(label)

    for value in (0.0, 5.0):
        engine.warm_start(MeasurementVector(np.array([value]), t))
        t += 1
    expect(engine.dictionary.size == 2, "warm start should admit both anchors")

    verdict, _ = step(0.02)
    expect(verdict.kind is VerdictKind.GREEN, "near-basis arrival should be Green")

    size_before = engine.dictionary.size
    verdict, _ = step(2.5)
    expect(verdict.kind is VerdictKind.RED1, "far arrival should be Red1")
    expect(engine.dictionary.size == size_before, "Red1 must not grow the basis")

    candidate = 0.45
    band_delta = _dense_delta(engine.dictionary.basis, np.array([candidate]), config.sigma)
    expect(0.05 <= band_delta <= 0.3, "scripted arrival should sit in the band")
    verdict, _ = step(candidate)
    raise_t = verdict.at_timestep
    expect(verdict.kind is VerdictKind.ORANGE, "band arrival should be Orange")
    expect(engine.dictionary.size == size_before + 1, "Orange admits provisionally")

    resolutions = []
    for value in (candidate, candidate, 0.0):
        _, due = step(value)
        resolutions.extend(due)
    _, due = step(0.0)  # deadline step
    resolutions.extend(due)
    expect(len(resolutions) == 1, "exactly one resolution should fall due")
    if resolutions:
        r = resolutions[0]
        expect(r.kind is VerdictKind.GREEN, "explained Orange should settle Green")
        expect(r.resolves_timestep == raise_t, "resolution should name the raise step")
        expect(r.at_timestep == raise_t + config.ell, "resolution lands at raise + ell")
    expect(engine.dictionary.size == size_before + 1, "settled candidate stays")

    verdict, _ = step(4.55)
    raise_t = verdict.at_timestep
    expect(verdict.kind is VerdictKind.ORANGE, "second band arrival should be Orange")
    resolutions = []
    for _ in range(config.ell):
        _, due = step(0.0)  # far from the candidate: nothing explains it
        resolutions.extend(due)
    expect(len(resolutions) == 1, "second Orange should resolve once")
    if resolutions:
        r = resolutions[0]
        expect(r.kind is VerdictKind.RED2, "unexplained Orange should settle Red2")
        expect(r.at_timestep == raise_t + config.ell, "Red2 lands at raise + ell")
    expect(engine.dictionary.size == size_before + 1, "Red2 evicts its candidate")

    detail = "; ".join(problems) if problems else "all branches behaved"
    return CheckResult("alarm state machine", not problems, detail)


def check_block_walk(steps: int = 600, train_steps: int = 50) -> CheckResult:
    """``feed_run`` against one ``feed`` per arrival on one stream, at a
    churning config and at the default one, where most arrivals take the
    walk's quiet lane: verdicts (with ``delta.hex()``) and the dictionary
    must match bit for bit."""
    values, _ = generate(default_spec(steps=steps, n_anomalies=6, seed=8, dim=4))
    z = (values - values.mean(axis=0)) / values.std(axis=0)

    def key(engine: KoadEngine, verdicts) -> tuple:
        d = engine.dictionary
        arrays = [a.tobytes() for a in (d.basis, d.gram(), d.inv_gram, d.usage)]
        rows = [(v.kind, v.at_timestep, v.delta.hex(), v.resolves_timestep) for v in verdicts]
        return rows, arrays, d.timesteps

    same, verdicts, changes = True, 0, []
    for config in (ThresholdConfig(sigma=1.5, max_size=12), ThresholdConfig()):
        walked, stepped = KoadEngine(4, config), KoadEngine(4, config)
        got = walked.feed_run(z, list(range(steps)), train_steps)
        expected = []
        for t, row in enumerate(z):
            expected += stepped.feed(MeasurementVector(row, t), train_steps)
        same = same and key(walked, got) == key(stepped, expected)
        verdicts += len(got)
        changes.append(walked.dictionary.changes)
    return CheckResult(
        "block walk vs one feed per arrival",
        same and changes[0] >= 100,  # few changes would leave the fallbacks untested
        f"{verdicts} verdicts and the dictionaries "
        f"{'bit-identical' if same else 'DIFFER'} over {steps} arrivals at 2 configs, "
        f"{changes[0]} dictionary changes in the churning one (100 needed; "
        f"numpy {np.__version__})",
    )


def check_recording_replay(steps: int = 600) -> CheckResult:
    """``feed_recording`` against one ``feed_line`` per frame over the same
    wire lines, at a churning config: each frame's events (verdicts with
    ``delta.hex()``), its ``received_at`` and the frame archive must match
    bit for bit."""
    password = "PW123"
    settings = Settings(
        password=password, warmup=10, train_steps=20, warn_threshold=3,
        detector=ThresholdConfig(sigma=1.5, max_size=12, ell=10),
    )
    values, _ = generate(default_spec(steps=steps, n_anomalies=6, seed=8, dim=4))
    lines = [wire_line(password, row) for row in values]
    for at in (15, 40, 333):  # flagged frames in warm-up, training and scoring
        lines[at] = f"{password},72,-,118,76"
    lines[200:205] = ["garbage"] * 5  # a data warning raised and cleared
    frames = [(line, 1000.0 + 12.0 * t) for t, line in enumerate(lines)]

    def key(event) -> tuple:
        if type(event) is Verdict:
            kind, at, delta, resolves = event
            return kind.value, at, delta.hex(), resolves
        return event.active, event.at_timestep, event.reason

    def replay(per_frame: bool) -> tuple:
        sink = io.StringIO()
        pipe = BedPipeline("bed1", settings, frame_archive=sink)
        if per_frame:
            produced = [(pipe.feed_line(line, at), at) for line, at in frames]
        else:
            produced = list(pipe.feed_recording(frames))
        rows = [(at, [key(event) for event in events]) for events, at in produced]
        return rows, sink.getvalue(), pipe.engine.dictionary.changes

    walked, fed = replay(per_frame=False), replay(per_frame=True)
    same = walked == fed
    events = sum(len(keys) for _, keys in walked[0])
    return CheckResult(
        "replay at speedup = inf vs the per-frame chain",
        same and walked[2] >= 50,  # few changes would leave the block patches untested
        f"{events} events over {len(frames)} frames and the frame archive "
        f"{'bit-identical' if same else 'DIFFER'}, {walked[2]} dictionary changes "
        "(50 needed)",
    )


def check_validity_table() -> CheckResult:
    schema = ParameterSchema(names=("hr", "spo2", "nbp_sys", "nbp_dia"))
    password = "PW123"
    table = [
        ("PW123,72,98,118,76", ""),
        ("WRONG,72,98,118,76", "-1:bad-password"),
        ("PW123,72,98,118", "-1:bad-arity"),
        ("", "-1:bad-arity"),
        ("PW123,null,98,118,76", "0:null"),
        ("PW123,72,0,118,76", "1:zero"),
        ("PW123,72,98,-,76", "2:hyphen"),
        ("PW123,72,98,118,10000.5", "3:over-limit"),
        ("PW123,72,98,abc,76", "2:non-numeric"),
        ("PW123,\u0667\u0662,98,118,76", "0:non-numeric"),  # Arabic-Indic "72"
    ]
    problems = []
    match = frame_matcher(password, schema)
    for line, expected in table:
        result = validate(parse_frame(line), password, schema)
        if result.flags_text() != expected:
            problems.append(f"{line!r} -> {result.flags_text()!r}, wanted {expected!r}")
        if (match(line) is None) == (expected == ""):
            problems.append(f"{line!r}: the frame matcher and the classifier disagree")

    streak = FlagStreak(warn_threshold=3)
    bad = validate(parse_frame("PW123,-,-,-,-"), password, schema)
    good = validate(parse_frame("PW123,72,98,118,76"), password, schema)
    raised = [track(streak, bad.ok, ts) for ts in (0, 1, 2)]
    if [w.active if w else None for w in raised] != [None, None, True]:
        problems.append(f"warning should raise on the 3rd flagged frame, got {raised}")
    cleared = track(streak, good.ok, 3)
    if cleared is None or cleared.active:
        problems.append("next valid frame should clear the warning")

    detail = "; ".join(problems) if problems else f"{len(table)} rows + warning cycle"
    return CheckResult("frame validity table", not problems, detail)


def run_all() -> list[CheckResult]:
    return [
        check_projection_oracle(),
        check_alarm_walk(),
        check_block_walk(),
        check_recording_replay(),
        check_validity_table(),
    ]


def main(screen=None) -> int:
    screen = screen or sys.stdout
    started = time.perf_counter()
    results = run_all()
    for result in results:
        mark = "ok" if result.ok else "FAIL"
        screen.write(f"[{mark:>4}] {result.name}: {result.detail}\n")
    elapsed = time.perf_counter() - started
    failed = sum(1 for r in results if not r.ok)
    if failed:
        screen.write(f"{failed} of {len(results)} checks failed ({elapsed:.2f}s)\n")
        return 1
    screen.write(f"all {len(results)} checks passed ({elapsed:.2f}s)\n")
    return 0
