"""Standardizer behavior: warm-up, floors, long-run statistics."""

from __future__ import annotations

import numpy as np
import pytest

from vitalwatch.standardize import VAR_FLOOR, RunningStandardizer

from _oracles import ArrayStandardizer


def test_warmup_frame_is_folded_in_and_returns_none():
    s = RunningStandardizer(dim=3, warmup=1)
    assert s.push(np.array([100.0, 98.0, 72.0])) is None
    assert s.count == 1
    # the next frame is z-scored against both: mean [101, 98, 71], variance
    # [2, floor, 2]
    z = s.push(np.array([102.0, 98.0, 70.0]))
    np.testing.assert_allclose(z, [2**-0.5, 0.0, -(2**-0.5)], rtol=0, atol=1e-15)


def test_warmup_frames_return_none_then_zscoring_begins():
    s = RunningStandardizer(dim=1, warmup=3)
    rng = np.random.default_rng(1)
    raw = rng.normal(50.0, 4.0, size=10)
    outs = [s.push(np.array([v])) for v in raw]
    assert outs[:3] == [None, None, None]
    z = np.array([out[0] for out in outs[3:]])
    assert not np.allclose(z, raw[3:])
    # the first scored frame is z-scored against all four frames so far
    np.testing.assert_allclose(z[0], (raw[3] - raw[:4].mean()) / raw[:4].std(ddof=1))


def test_constant_channel_maps_to_zero_not_nan():
    s = RunningStandardizer(dim=2, warmup=2)
    for _ in range(20):
        out = s.push(np.array([120.0, 80.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0])
    assert np.all(np.isfinite(out))


def test_long_run_mean_and_sd_converge():
    rng = np.random.default_rng(7)
    s = RunningStandardizer(dim=1, warmup=50)
    outs = [s.push(rng.normal(100.0, 5.0, size=1)) for _ in range(5000)]
    assert all(out is None for out in outs[:50])
    tail = np.array([out[0] for out in outs[50:]])
    assert abs(tail.mean()) < 0.1
    assert abs(tail.std() - 1.0) < 0.1


def test_windowed_statistics_match_numpy_oracle():
    # After n pushes the internal stats must equal np.mean/np.var over the
    # same prefix, so the transform of the next frame is predictable.
    rng = np.random.default_rng(3)
    frames = rng.normal(60.0, 9.0, size=(40, 2))
    s = RunningStandardizer(dim=2, warmup=5)
    for f in frames:
        out = s.push(f)
    expected = (frames[-1] - frames.mean(axis=0)) / frames.std(axis=0, ddof=1)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_dimension_and_parameter_validation():
    with pytest.raises(ValueError):
        RunningStandardizer(dim=0)
    with pytest.raises(ValueError):
        RunningStandardizer(dim=1, warmup=0)
    s = RunningStandardizer(dim=2)
    with pytest.raises(ValueError):
        s.push(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        s.push([1.0])
    assert s.count == 0


@pytest.mark.parametrize("warmup", [1, 3, 50])
def test_push_is_bit_identical_to_the_array_welford(warmup):
    # Vital-sign scale values rounded like the wire's 3 decimals, a channel
    # near zero (where every rounding of the mean update shows), a constant
    # channel, and one whose variance, about 1e-10, the floor replaces, so
    # its z-scores divide by sqrt(VAR_FLOOR). Every scored frame's z-scores
    # read the running mean and m2 of every frame so far, warm-up ones
    # included, so equal bits pin the statistics. The pipeline pushes a list
    # of Python floats; an array gives the same bits.
    rng = np.random.default_rng(11)
    frames = rng.normal([72.0, 98.0, 118.0, 0.2], [9.0, 1.5, 14.0, 1.0], size=(400, 4))
    frames = np.column_stack([
        np.round(frames, 3),
        np.full(len(frames), 80.0),
        80.0 + rng.normal(0.0, 1e-5, size=len(frames)),
    ])
    got = RunningStandardizer(dim=6, warmup=warmup)
    from_floats = RunningStandardizer(dim=6, warmup=warmup)
    want = ArrayStandardizer(dim=6, warmup=warmup, var_floor=VAR_FLOOR)
    scored = 0
    for frame in frames:
        expected = want.push(frame)
        outs = [got.push(frame), from_floats.push(frame.tolist())]
        if expected is None:  # a warm-up frame
            assert outs == [None, None]
        else:
            assert all(np.array_equal(out, expected) for out in outs)
            assert outs[0][4] == 0.0  # the constant channel, over the floor
            assert want.variance()[5] == VAR_FLOOR == 1e-6
            scored += 1
        assert got.count == from_floats.count == want.count
    assert scored == len(frames) - warmup
