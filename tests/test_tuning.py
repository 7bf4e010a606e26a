"""Alarm-to-label matching and grid search over threshold settings."""

from __future__ import annotations

import numpy as np
import pytest

from vitalwatch.engine import (
    EngineError,
    KoadEngine,
    MeasurementVector,
    ThresholdConfig,
    Verdict,
    VerdictKind,
)
from vitalwatch.synth import LabeledEvent, default_spec, generate
from vitalwatch.tuning import (
    DetectionReport,
    MatchPolicy,
    alarm_times,
    grid_search,
    pick_best,
    render_table,
    reports_csv,
    run_detector,
    score_run,
)


def red1(t):
    return Verdict(VerdictKind.RED1, t, 0.9)


def red2(resolved_at, raised_at):
    return Verdict(VerdictKind.RED2, resolved_at, 0.12, raised_at)


def label(t):
    return LabeledEvent(t, (0,))


def brute_force_detected(label_times, alarm_times_list, w):
    """Exhaustive maximum one-to-one matching; exponential but tiny inputs."""
    if not label_times:
        return 0
    first, rest = label_times[0], label_times[1:]
    best = brute_force_detected(rest, alarm_times_list, w)
    for j, at in enumerate(alarm_times_list):
        if abs(at - first) <= w:
            candidate = 1 + brute_force_detected(
                rest, alarm_times_list[:j] + alarm_times_list[j + 1 :], w
            )
            best = max(best, candidate)
    return best


def test_exact_alarms_window_zero_all_detected():
    labels = [label(t) for t in (10, 20, 30)]
    verdicts = [red1(t) for t in (10, 20, 30)]
    report = score_run(verdicts, labels, MatchPolicy(window_w=0))
    assert (report.detected, report.missed, report.false_alarms) == (3, 0, 0)
    assert report.matches == ((10, 10), (20, 20), (30, 30))


def test_two_alarms_near_one_label_is_one_match_one_false():
    labels = [label(20)]
    verdicts = [red1(18), red1(21)]
    report = score_run(verdicts, labels, MatchPolicy(window_w=5))
    assert (report.detected, report.missed, report.false_alarms) == (1, 0, 1)


def test_red2_matches_at_its_raise_timestep():
    # The Orange fired at 40; its Red2 confirmation arrived at 60. The label
    # sits at 41, reachable only if the alarm is pinned to the raise time.
    labels = [label(41)]
    verdicts = [red2(resolved_at=60, raised_at=40)]
    report = score_run(verdicts, labels, MatchPolicy(window_w=5))
    assert (report.detected, report.missed, report.false_alarms) == (1, 0, 0)


def test_an_orange_is_never_an_alarm():
    labels = [label(10)]
    orange = Verdict(VerdictKind.ORANGE, 10, 0.1)
    report = score_run([orange], labels)
    assert (report.detected, report.missed, report.false_alarms) == (0, 1, 0)
    # Its resolution judges it: a Green is no alarm, a Red2 is one at the
    # Orange's timestep.
    green = Verdict(VerdictKind.GREEN, 30, 0.01, 10)
    assert alarm_times([orange]) == alarm_times([orange, green]) == []
    assert alarm_times([orange, red2(resolved_at=30, raised_at=10)]) == [10]


def test_greedy_matching_equals_brute_force_optimum():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_labels = int(rng.integers(0, 6))
        n_alarms = int(rng.integers(0, 6))
        w = int(rng.integers(0, 4))
        label_times = sorted(int(t) for t in rng.integers(0, 25, size=n_labels))
        # distinct label timesteps keep the comparison well-defined
        label_times = sorted(set(label_times))
        times = sorted(int(t) for t in rng.integers(0, 25, size=n_alarms))
        labels = [label(t) for t in label_times]
        verdicts = [red1(t) for t in times]
        report = score_run(verdicts, labels, MatchPolicy(window_w=w))
        assert report.detected == brute_force_detected(label_times, times, w)
        assert report.detected + report.missed == len(labels)
        assert report.detected + report.false_alarms == len(times)


def rescanning_greedy(label_times, alarms, w):
    """Earliest-unmatched greedy that rescans every alarm for each label."""
    taken = [False] * len(alarms)
    matches = []
    for lt in sorted(label_times):
        for j, at in enumerate(alarms):
            if not taken[j] and lt - w <= at <= lt + w:
                taken[j] = True
                matches.append((lt, at))
                break
    return tuple(matches)


def test_flood_row_matches_the_rescanning_greedy():
    # A Red1-flood grid row: an alarm on most steps, Red2s pinned onto the
    # same raise times, and labels every 100 steps with some clustered so
    # that neighbours compete for the same alarms.
    rng = np.random.default_rng(5)
    verdicts = [red1(t) for t in range(2400) if rng.random() < 0.9]
    verdicts += [red2(resolved_at=t + 20, raised_at=t) for t in range(0, 2400, 7)]
    label_times = sorted([*range(50, 2400, 100), 51, 52, 53, 1249, 1250, 2399])
    labels = [label(t) for t in label_times]
    for w in (0, 2, 5):
        policy = MatchPolicy(window_w=w)
        alarms = alarm_times(verdicts)
        report = score_run(verdicts, labels, policy)
        assert report.matches == rescanning_greedy(label_times, alarms, w)
        assert report.detected + report.missed == len(labels)
        assert report.detected + report.false_alarms == len(alarms)
    assert report.detected == len(labels)


def test_alarm_times_sorted_and_filtered():
    verdicts = [
        red1(30),
        Verdict(VerdictKind.GREEN, 31, 0.01),
        red2(resolved_at=25, raised_at=5),
        Verdict(VerdictKind.ORANGE, 7, 0.1),
    ]
    assert alarm_times(verdicts) == [5, 30]


def test_pick_best_prefers_score_then_false_then_nu1():
    a = DetectionReport(nu1=0.07, nu2=0.16, detected=3, missed=6, false_alarms=1)
    b = DetectionReport(nu1=0.03, nu2=0.08, detected=2, missed=7, false_alarms=0)
    c = DetectionReport(nu1=0.11, nu2=0.24, detected=1, missed=8, false_alarms=0)
    # a and b tie on score 2; b has fewer false alarms
    assert pick_best([a, b, c]) is b
    d = DetectionReport(nu1=0.05, nu2=0.20, detected=2, missed=7, false_alarms=0)
    # b and d tie completely except nu1
    assert pick_best([b, d]) is b
    assert pick_best([c]) is c
    with pytest.raises(ValueError):
        pick_best([])


def test_grid_search_reports_hold_label_invariant():
    spec = default_spec(steps=300, n_anomalies=9, seed=13, first_anomaly=120, min_gap=15)
    values, labels = generate(spec)
    # standardize offline: the tuner consumes model-space vectors
    z = (values - values.mean(axis=0)) / values.std(axis=0)
    grid = [
        ThresholdConfig(nu1=0.03, nu2=0.08, sigma=2.5),
        ThresholdConfig(nu1=0.07, nu2=0.16, sigma=2.5),
        ThresholdConfig(nu1=0.11, nu2=0.24, sigma=2.5),
    ]
    reports, best = grid_search(grid, z, labels, train_steps=50)
    assert len(reports) == 3
    for report in reports:
        assert report.detected + report.missed == 9
        assert report.false_alarms >= 0
    assert best.score == max(r.score for r in reports)


def test_grid_of_one_entry_is_best():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(120, 2)) * 0.1
    config = ThresholdConfig(nu1=0.07, nu2=0.16)
    reports, best = grid_search([config], z, [], train_steps=30)
    assert best is reports[0]
    assert best.config is config


def test_tied_empty_runs_pick_lowest_nu1():
    # A tight cluster never alarms under any setting: all reports are
    # (0, 0, 0), so the documented tie-break selects the lowest nu1.
    rng = np.random.default_rng(3)
    z = rng.normal(size=(150, 2)) * 0.05
    grid = [
        ThresholdConfig(nu1=0.11, nu2=0.24),
        ThresholdConfig(nu1=0.03, nu2=0.08),
        ThresholdConfig(nu1=0.07, nu2=0.16),
    ]
    reports, best = grid_search(grid, z, [], train_steps=40)
    assert all(r.score == 0 for r in reports)
    assert best.nu1 == 0.03


def test_raising_nu2_does_not_increase_red1_count():
    # Smoke property on a fixed stream with pruning pressure disabled.
    rng = np.random.default_rng(17)
    steps = [rng.normal(size=3) * 0.4 for _ in range(250)]
    z = np.cumsum(steps, axis=0) * 0.2
    def red1_count(nu2):
        config = ThresholdConfig(
            nu1=0.07, nu2=nu2, max_size=500, prune_period=10_000, usage_floor=0.0
        )
        verdicts = run_detector(z, config, train_steps=50)
        return sum(1 for v in verdicts if v.kind is VerdictKind.RED1)

    counts = [red1_count(nu2) for nu2 in (0.16, 0.4, 0.8, 0.95)]
    assert counts == sorted(counts, reverse=True)


def test_run_detector_validates_inputs():
    z = np.zeros((10, 2))
    with pytest.raises(ValueError):
        run_detector(z, ThresholdConfig(), train_steps=10)
    # an empty dictionary scores every arrival Red1, so training is required
    with pytest.raises(ValueError, match=r"train_steps must be in \[1, 10\), got 0"):
        run_detector(z, ThresholdConfig(), train_steps=0)
    with pytest.raises(ValueError):
        run_detector(np.zeros(10), ThresholdConfig(), train_steps=2)


def _feed_each(vectors, config, train_steps, timesteps):
    """run_detector as one ``feed`` per arrival: the reference for what a
    bad row raises."""
    engine = KoadEngine(vectors.shape[1], config)
    for row, t in zip(vectors, timesteps):
        engine.feed(MeasurementVector(row, t), train_steps)


@pytest.mark.parametrize(
    "row, timestep, error, message",
    [
        (20, None, EngineError, "non-finite component at timestep 40;"),
        (70, None, EngineError, "non-finite component at timestep 140;"),
        (70, 138, EngineError, "strictly increasing: 138 after 138"),
        (90, 100, EngineError, "strictly increasing: 100 after 178"),
        (0, -2, ValueError, "timestep must be >= 0, got -2"),
        (90, -2, ValueError, "timestep must be >= 0, got -2"),
    ],
)
def test_run_detector_refuses_a_bad_row_as_one_feed_per_arrival_would(
    row, timestep, error, message
):
    # A NaN (timestep None) or a replaced timestep at one row, in training
    # or scored; a second fault further on must not be the one reported.
    z = np.random.default_rng(19).normal(size=(120, 3))
    timesteps = list(range(0, 240, 2))
    if timestep is None:
        z[row, 1] = np.nan
    else:
        timesteps[row] = timestep
    z[110, 0] = np.inf
    config = ThresholdConfig()
    with pytest.raises(error) as want:
        _feed_each(z, config, 50, timesteps)
    with pytest.raises(error) as got:
        run_detector(z, config, 50, timesteps)
    assert str(got.value) == str(want.value)
    assert message in str(got.value)


def test_feed_run_refuses_a_wrong_width_before_scoring_anything():
    engine = KoadEngine(4, ThresholdConfig())
    with pytest.raises(ValueError) as want:
        engine.feed(MeasurementVector(np.zeros(3), 0), 0)
    with pytest.raises(ValueError) as got:
        engine.feed_run(np.zeros((5, 3)), list(range(5)), 0)
    assert str(got.value) == str(want.value) == "expected shape (4,), got (3,)"
    assert engine.steps_seen == 0
    with pytest.raises(ValueError):  # ragged rows never reach the engine
        run_detector([np.zeros(3)] * 60 + [np.zeros(2)], ThresholdConfig())


def test_render_table_and_csv_shapes():
    def row(nu1, nu2, sigma, ell, *counts):
        config = ThresholdConfig(nu1=nu1, nu2=nu2, sigma=sigma, ell=ell)
        return DetectionReport(nu1, nu2, *counts, config=config)

    reports = [
        row(0.03, 0.08, 2.5, 20, 5, 4, 4),
        row(0.07, 0.16, 1.5, 10, 6, 3, 2),
        DetectionReport(nu1=0.11, nu2=0.24, detected=4, missed=5, false_alarms=6),
    ]
    policy = MatchPolicy()
    table = render_table(reports, policy)
    lines = table.splitlines()
    assert "window +/-5" in lines[0]
    assert lines[2].split() == ["nu1", "nu2", "sigma", "ell", "Detected", "Missed", "False"]
    assert len(lines) == 6
    assert lines[4].split() == ["0.070", "0.160", "1.5", "10", "6", "3", "2"]
    assert lines[5].split()[2:4] == ["nan", "nan"]  # a row scored without a config

    csv = reports_csv(reports)
    rows = csv.splitlines()
    assert rows[0] == "nu1,nu2,sigma,ell,detected,missed,false_alarms"
    assert rows[1:3] == ["0.03,0.08,2.5,20,5,4,4", "0.07,0.16,1.5,10,6,3,2"]


def test_reports_differ_by_config_as_well_as_counts():
    # Two grid rows with the same pair and counts but another bandwidth are
    # different rows; the report keeps the config's sigma and ell readable.
    a = score_run([], [], config=ThresholdConfig(sigma=1.0, ell=10))
    b = score_run([], [], config=ThresholdConfig(sigma=2.5, ell=10))
    assert (a.nu1, a.nu2, a.detected, a.false_alarms) == (b.nu1, b.nu2, 0, 0)
    assert a != b
    assert a == score_run([], [], config=ThresholdConfig(sigma=1.0, ell=10))
    assert (a.sigma, a.ell, b.sigma) == (1.0, 10, 2.5)
    assert len({a, b}) == 2
