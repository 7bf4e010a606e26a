"""Built-in sanity suite, runnable on any install without test tooling.

Three checks, each independent of the code path it verifies:

* projection errors and the maintained inverse Gram against fresh dense
  linear solves on randomized admission/removal sequences,
* the Green / Red1 / Orange / Red2 alarm walk on a scripted 1-d stream
  whose expected deltas come from the same dense solves,
* the frame validity table and the consecutive-flag warning counter.

Kept deliberately small (about a second); the full development suite lives
in the repository's tests directory.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .engine import (
    DictionaryState,
    KoadEngine,
    MeasurementVector,
    ThresholdConfig,
    VerdictKind,
)
from .kernels import KernelSpec, gram_matrix, kernel_vector
from .validity import (
    FlagStreak,
    ParameterSchema,
    parse_frame,
    track,
    validate,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _dense_delta(spec: KernelSpec, basis: np.ndarray, x: np.ndarray) -> float:
    """Projection error by a from-scratch dense solve (the oracle side)."""
    if basis.shape[0] == 0:
        return 1.0
    gram = gram_matrix(spec, basis)
    k = kernel_vector(spec, basis, x)
    return float(1.0 - k @ np.linalg.solve(gram, k))


def check_projection_oracle(cases: int = 40, seed: int = 7) -> CheckResult:
    """Incremental inverse-Gram bookkeeping vs dense solves."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec(1.0)
    worst_delta = 0.0
    worst_consistency = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 6))
        state = DictionaryState(spec, d, max_size=12)
        spread = 3.0 * 10 ** (1.0 / d)
        for _ in range(int(rng.integers(3, 9))):
            x = rng.uniform(-spread, spread, size=d)
            delta = _dense_delta(spec, state.basis, x)
            if delta < 0.05:
                continue  # too close to the span; a live engine would not admit it
            k = kernel_vector(spec, state.basis, x)
            coeffs = state.inv_gram @ k if state.size else np.zeros(0)
            state.admit(MeasurementVector(x, 0), coeffs, delta)
            if state.size > 2 and rng.random() < 0.3:
                state.remove(int(rng.integers(0, state.size)))
        probe = rng.uniform(-spread, spread, size=d)
        k = kernel_vector(spec, state.basis, probe)
        recursive = 1.0 - float(k @ (state.inv_gram @ k)) if state.size else 1.0
        worst_delta = max(worst_delta, abs(recursive - _dense_delta(spec, state.basis, probe)))
        worst_consistency = max(worst_consistency, state.consistency_error())
    ok = worst_delta <= 1e-8 and worst_consistency <= 1e-6
    return CheckResult(
        "projection vs dense solve",
        ok,
        f"max |delta diff| {worst_delta:.2e}, max inverse drift {worst_consistency:.2e}",
    )


def check_alarm_walk() -> CheckResult:
    """One scripted pass through every alarm branch."""
    config = ThresholdConfig(
        nu1=0.05, nu2=0.3, ell=4, sigma=1.0, lam=0.98,
        d_similar=0.9, epsilon_frac=0.5, prune_period=1000,
        usage_floor=0.0, max_size=10,
    )
    engine = KoadEngine(1, config)
    spec = engine.spec
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
    band_delta = _dense_delta(spec, engine.dictionary.basis, np.array([candidate]))
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
    ]
    problems = []
    for line, expected in table:
        result = validate(parse_frame(line), password, schema)
        if result.flags_text() != expected:
            problems.append(f"{line!r} -> {result.flags_text()!r}, wanted {expected!r}")

    streak = FlagStreak(warn_threshold=3)
    bad = validate(parse_frame("PW123,-,-,-,-"), password, schema)
    good = validate(parse_frame("PW123,72,98,118,76"), password, schema)
    raised = [track(streak, bad, ts) for ts in (0, 1, 2)]
    if [w.active if w else None for w in raised] != [None, None, True]:
        problems.append(f"warning should raise on the 3rd flagged frame, got {raised}")
    cleared = track(streak, good, 3)
    if cleared is None or cleared.active:
        problems.append("next valid frame should clear the warning")

    detail = "; ".join(problems) if problems else f"{len(table)} rows + warning cycle"
    return CheckResult("frame validity table", not problems, detail)


def run_all() -> list[CheckResult]:
    return [check_projection_oracle(), check_alarm_walk(), check_validity_table()]


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
