"""Supervised threshold selection: score alarm streams against labels and
grid-search (nu1, nu2) pairs, optionally sweeping the horizon and bandwidth.

Matching is greedy one-to-one in time order: each label grabs the earliest
unmatched counted alarm within +/- window_w timesteps. For interval matching
on a line this greedy rule attains maximum cardinality, so detected counts
are the best achievable under the policy (verified against a brute-force
matcher in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import KoadEngine, ThresholdConfig, Verdict, VerdictKind
# Not called here; imported so that perfbench's workloads can patch
# vitalwatch.tuning.MeasurementVector.
from .engine import MeasurementVector  # noqa: F401
from .synth import LabeledEvent

DEFAULT_COUNTED_KINDS = frozenset({VerdictKind.RED1, VerdictKind.RED2})


@dataclass(frozen=True)
class MatchPolicy:
    """How alarms are matched to labels: time window and which kinds count.

    Orange is excluded by default because it is provisional by design; its
    resolution (Green or Red2) is the verdict that should be judged.
    """

    window_w: int = 5
    counted_kinds: frozenset[VerdictKind] = DEFAULT_COUNTED_KINDS

    def __post_init__(self) -> None:
        if self.window_w < 0:
            raise ValueError(f"window_w must be >= 0, got {self.window_w}")
        if not self.counted_kinds:
            raise ValueError("at least one alarm kind must count")


@dataclass(frozen=True)
class DetectionReport:
    """One grid row: its config and threshold pair plus detected/missed/false
    counts. Two rows are equal only with equal configs, so rows that differ
    only in sigma or ell are told apart."""

    nu1: float
    nu2: float
    detected: int
    missed: int
    false_alarms: int
    matches: tuple[tuple[int, int], ...] = ()  # (label timestep, alarm timestep)
    config: ThresholdConfig | None = None

    @property
    def score(self) -> int:
        return self.detected - self.false_alarms

    @property
    def sigma(self) -> float:
        """The row's kernel bandwidth, NaN without a config."""
        return math.nan if self.config is None else self.config.sigma

    @property
    def ell(self) -> float:
        """The row's Orange horizon, NaN without a config."""
        return math.nan if self.config is None else self.config.ell


def alarm_times(verdicts: list[Verdict], policy: MatchPolicy) -> list[int]:
    """Effective timestep of every counted alarm, sorted.

    A Red2 is pinned to the timestep of the Orange it resolves (that is when
    the anomaly happened); everything else counts where it fired.
    """
    # A tuple test matches the Enum members by identity; a frozenset test
    # hashes each verdict's kind first.
    counted = tuple(policy.counted_kinds)
    red2 = VerdictKind.RED2
    times = []
    for kind, at, _, resolves in verdicts:
        if kind in counted:
            times.append(resolves if kind is red2 and resolves is not None else at)
    return sorted(times)


def score_run(
    verdicts: list[Verdict],
    labels: list[LabeledEvent],
    policy: MatchPolicy | None = None,
    config: ThresholdConfig | None = None,
) -> DetectionReport:
    """Match a run's counted alarms to its labels; the report's threshold
    pair comes from ``config``, NaN without one."""
    policy = policy or MatchPolicy()
    alarms = alarm_times(verdicts, policy)
    label_times = sorted(ev.timestep for ev in labels)
    w = policy.window_w
    matches = []
    # Labels and alarms are both sorted, so one forward pointer suffices:
    # every alarm behind it is taken or too early for this and any later
    # label, and the alarm under it is the earliest unmatched candidate.
    j = 0
    for lt in label_times:
        while j < len(alarms) and alarms[j] < lt - w:
            j += 1
        if j < len(alarms) and alarms[j] <= lt + w:
            matches.append((lt, alarms[j]))
            j += 1
    detected = len(matches)
    return DetectionReport(
        nu1=math.nan if config is None else config.nu1,
        nu2=math.nan if config is None else config.nu2,
        detected=detected,
        missed=len(label_times) - detected,
        false_alarms=len(alarms) - detected,
        matches=tuple(matches),
        config=config,
    )


def run_detector(
    vectors: np.ndarray | list[np.ndarray],
    config: ThresholdConfig,
    train_steps: int = 50,
    timesteps: list[int] | None = None,
) -> list[Verdict]:
    """One fresh engine pass through ``KoadEngine.feed_run``, the detector
    half of the per-bed chain over a whole run: the leading train_steps
    vectors build the dictionary silently, the rest are scored. Returns all
    verdicts (immediate and resolutions) in emission order.

    ``timesteps`` carries the vectors' original stream positions when the
    stream had gaps (flagged or warm-up frames); verdicts and labels must
    speak the same time axis. Defaults to 0..n-1.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError(f"expected a (steps, dim) array, got {vectors.shape}")
    if not 1 <= train_steps < len(vectors):
        raise ValueError(
            f"train_steps must be in [1, {len(vectors)}), got {train_steps}"
        )
    if timesteps is None:
        timesteps = list(range(len(vectors)))
    engine = KoadEngine(vectors.shape[1], config)
    return engine.feed_run(vectors, timesteps, train_steps)


def pick_best(reports: list[DetectionReport]) -> DetectionReport:
    """Winner maximizes detected - false_alarms; ties broken by fewer false
    alarms, then lower nu1."""
    if not reports:
        raise ValueError("no reports to choose from")
    return min(reports, key=lambda r: (-r.score, r.false_alarms, r.nu1))


def grid_search(
    grid: list[ThresholdConfig],
    vectors: np.ndarray | list[np.ndarray],
    labels: list[LabeledEvent],
    policy: MatchPolicy | None = None,
    train_steps: int = 50,
    timesteps: list[int] | None = None,
) -> tuple[list[DetectionReport], DetectionReport]:
    """Evaluate every grid entry on the labeled window with a fresh engine."""
    if not grid:
        raise ValueError("grid must not be empty")
    policy = policy or MatchPolicy()
    vectors = np.asarray(vectors, dtype=float)  # once, not once per grid row
    reports = [
        score_run(
            run_detector(vectors, config, train_steps, timesteps),
            labels,
            policy,
            config=config,
        )
        for config in grid
    ]
    return reports, pick_best(reports)


# -- report output -----------------------------------------------------------

def render_table(reports: list[DetectionReport], policy: MatchPolicy) -> str:
    """Aligned plain-text table, one row per detector config."""
    kinds = ",".join(sorted(k.value for k in policy.counted_kinds))
    header = (
        f"match window +/-{policy.window_w} timesteps; counted kinds: {kinds}"
    )
    rows = [header, ""]
    rows.append(
        f"{'nu1':>6} {'nu2':>6} {'sigma':>6} {'ell':>4} "
        f"{'Detected':>9} {'Missed':>7} {'False':>6}"
    )
    for r in reports:
        rows.append(
            f"{r.nu1:>6.3f} {r.nu2:>6.3f} {r.sigma:>6.3g} {r.ell:>4g} "
            f"{r.detected:>9d} {r.missed:>7d} {r.false_alarms:>6d}"
        )
    return "\n".join(rows) + "\n"


def reports_csv(reports: list[DetectionReport]) -> str:
    lines = ["nu1,nu2,sigma,ell,detected,missed,false_alarms"]
    for r in reports:
        lines.append(
            f"{r.nu1:.6g},{r.nu2:.6g},{r.sigma:.6g},{r.ell:g},"
            f"{r.detected},{r.missed},{r.false_alarms}"
        )
    return "\n".join(lines) + "\n"
