"""Built-in sanity suite, runnable on any install without test tooling.

Two checks, each independent of the code path it verifies:

* the per-frame chain (one ``feed_line`` per frame) on a seeded capture
  with flagged frames and a data-warning burst, at a churning config and
  at the default one, against
  * replay's walk (``BedPipeline.feed_recording``) and tune's
    (``standardized_stream`` then ``KoadEngine.feed_run``), bit for bit:
    the walks project stacked rows, so a numpy whose stacked arithmetic
    differs from its one-row arithmetic fails here;
  * the dense KOAD reference (``reference.ReferenceDetector``), verdict by
    verdict, with the final basis, the kept Gram matrix, the inverse and
    two probes' projection errors held to dense solves whose every kernel
    value comes from ``kernel_eval``, not the engine's ``kernel_vector``;
* the frame validity table and the consecutive-flag warning counter.

Kept deliberately small (about a second); the full development suite lives
in the repository's tests directory.
"""

from __future__ import annotations

import io
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import Settings
from .engine import KoadEngine, ThresholdConfig, Verdict
from .pipeline import BedPipeline, standardized_stream
from .reference import ReferenceDetector, oracle_delta, oracle_gram
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


def check_walks(steps: int = 600) -> CheckResult:
    """The per-frame chain against replay's walk (``feed_recording``),
    tune's (``standardized_stream`` then ``feed_run``) and the dense
    reference, at a churning config and at the default one, where most
    arrivals take the walk's quiet lane.

    The walks must match the chain bit for bit: the events (verdicts with
    ``delta.hex()``, data warnings with their causes and reasons, each
    frame's ``received_at``), the frame archive and the dictionary left
    behind; tune, which has no events, its verdicts and dictionary. The reference, fed tune's vectors, must give
    every verdict's kind and timesteps, each delta within 1e-9, every kind,
    and the chain's final basis. The chain's kept Gram matrix must be within
    1e-12 of the reference's rebuilt one, its inverse times that matrix
    within 1e-6 of the identity (Frobenius), and its ``projection_error``
    of a probe far from the basis and of one near it within 1e-9 of
    ``oracle_delta``."""
    password = "PW123"
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
        return event.active, event.at_timestep, event.cause, event.reason

    def state(engine: KoadEngine) -> tuple:
        d = engine.dictionary
        arrays = [a.tobytes() for a in (d.basis, d.gram(), d.inv_gram, d.usage)]
        return arrays, d.timesteps, d.changes

    def replay(settings: Settings, per_frame: bool) -> tuple:
        sink = io.StringIO()
        pipe = BedPipeline("bed1", settings, frame_archive=sink)
        if per_frame:
            produced = [(pipe.feed_line(line, at), at) for line, at in frames]
        else:
            produced = list(pipe.feed_recording(frames))
        rows = [(at, [key(event) for event in events]) for events, at in produced]
        verdicts = [key(e) for events, _ in produced for e in events if type(e) is Verdict]
        return (rows, sink.getvalue(), verdicts, state(pipe.engine)), pipe.engine

    def tune(settings: Settings, timesteps: list[int], vectors: np.ndarray) -> tuple:
        engine = KoadEngine(vectors.shape[1], settings.threshold_config())
        verdicts = engine.feed_run(vectors, timesteps, settings.train_steps)
        return [key(v) for v in verdicts], state(engine)

    def reference(settings: Settings, timesteps, vectors, verdicts, engine) -> tuple:
        c = settings.detector
        ref = ReferenceDetector(
            c.nu1, c.nu2, c.ell, c.sigma, c.lam, c.d_similar, c.epsilon_frac,
            c.prune_period, c.usage_floor, c.max_size,
        )
        want = []
        for i, (x, t) in enumerate(zip(vectors, timesteps)):
            if i < settings.train_steps:
                ref.warm(x, t)
            else:
                want += ref.step(x, t)
        agree = len(want) == len(verdicts) and all(
            (kind, at, resolves) == (w[0], w[1], w[3])
            for (kind, at, _, resolves), w in zip(verdicts, want)
        )
        worst = max((abs(float.fromhex(v[2]) - w[2]) for v, w in zip(verdicts, want)), default=0.0)
        d = engine.dictionary
        agree = agree and np.array_equal(np.reshape(ref.points, (-1, engine.dim)), d.basis)
        if agree:
            gram = oracle_gram(ref.points, c.sigma)
            residual = d.inv_gram @ gram - np.eye(d.size)
            agree = np.abs(d.gram() - gram).max() <= 1e-12 and np.linalg.norm(residual) <= 1e-6
            near = d.basis[d.size // 2] + 0.1 * c.sigma
            for probe in (d.basis.max(axis=0) + c.sigma, near):
                dense, _ = oracle_delta(ref.points, probe, c.sigma)
                worst = max(worst, abs(engine.projection_error(probe)[0] - dense))
        kinds = Counter(kind for kind, *_ in want)
        agree = agree and worst <= 1e-9 and len(kinds) == 4
        counts = ", ".join(f"{kinds[k]} {k}" for k in ("green", "orange", "red1", "red2"))
        return agree, f"{len(want)} ({counts}), worst |delta diff| {worst:.1e}"

    same, agree, events, changes, found = True, True, 0, [], []
    for detector in (ThresholdConfig(sigma=1.5, max_size=12, ell=10), ThresholdConfig()):
        settings = Settings(
            password=password, warmup=10, train_steps=20, warn_threshold=3,
            detector=detector,
        )
        fed, engine = replay(settings, per_frame=True)
        timesteps, vectors = standardized_stream(lines, settings)
        same = (
            same
            and replay(settings, per_frame=False)[0] == fed
            and tune(settings, timesteps, vectors) == fed[2:]
        )
        events += sum(len(keys) for _, keys in fed[0])
        changes.append(fed[-1][-1])  # the per-frame chain's dictionary changes
        held, summary = reference(settings, timesteps, vectors, fed[2], engine)
        agree = agree and held
        found.append(summary)
    return CheckResult(
        "replay, tune and the dense reference vs the per-frame chain",
        same and agree and changes[0] >= 50,  # few changes would leave the block patches untested
        f"{events} events over {len(frames)} frames at 2 configs, the frame archives "
        f"and the dictionaries {'bit-identical' if same else 'DIFFER'}, "
        f"{changes[0]} dictionary changes in the churning one (50 needed); the "
        f"reference's verdicts {'agree' if agree else 'DISAGREE'}, churning "
        f"{found[0]}, default {found[1]} (numpy {np.__version__})",
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
    return [check_walks(), check_validity_table()]


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
