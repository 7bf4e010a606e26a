"""Synthetic generator: determinism, label fidelity, injected spike size."""

from __future__ import annotations

import numpy as np
import pytest

import vitalwatch.synth as synth_module
from vitalwatch.synth import (
    ChannelBaseline,
    InjectedAnomaly,
    LabeledEvent,
    SyntheticSpec,
    capture_text,
    default_spec,
    generate,
    labels_text,
    read_labels,
    write_stream,
)


def small_spec(anomalies=(), seed=0, steps=100):
    channels = (
        ChannelBaseline(mean=75.0, stddev=5.0),
        ChannelBaseline(mean=97.0, stddev=1.0),
    )
    return SyntheticSpec(channels=channels, steps=steps, anomalies=anomalies, seed=seed)


def test_zero_anomalies_means_zero_labels():
    values, labels = generate(small_spec())
    assert labels == []
    assert values.shape == (100, 2)


def test_same_seed_is_byte_identical():
    spec = small_spec(seed=42)
    assert capture_text(spec) == capture_text(spec)
    a, _ = generate(spec)
    b, _ = generate(spec)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a, _ = generate(small_spec(seed=1))
    b, _ = generate(small_spec(seed=2))
    assert not np.array_equal(a, b)


def test_labels_match_injected_anomalies_exactly():
    anomalies = tuple(
        InjectedAnomaly(timestep=t, channels=(0,), magnitude_sigma=4.0)
        for t in (20, 45, 77)
    )
    _, labels = generate(small_spec(anomalies=anomalies))
    assert [ev.timestep for ev in labels] == [20, 45, 77]
    assert all(ev.channels == (0,) for ev in labels)


def test_nine_anomalies_over_300_steps():
    spec = default_spec(steps=300, n_anomalies=9, seed=5, first_anomaly=150, min_gap=10)
    _, labels = generate(spec)
    assert len(labels) == 9
    times = [ev.timestep for ev in labels]
    assert times == sorted(times)
    assert times[0] >= 150
    assert min(b - a for a, b in zip(times, times[1:])) >= 10


def test_spike_changes_values_by_stated_magnitude():
    anomaly = InjectedAnomaly(timestep=50, channels=(1,), magnitude_sigma=4.0)
    clean, _ = generate(small_spec())
    spiked, _ = generate(small_spec(anomalies=(anomaly,)))
    diff = spiked - clean
    assert diff[50, 1] == pytest.approx(4.0 * 1.0)  # 4 sigma on a sd-1 channel
    assert np.count_nonzero(diff) == 1


def test_spike_duration_covers_consecutive_steps():
    anomaly = InjectedAnomaly(timestep=30, channels=(0,), magnitude_sigma=3.0, duration=4)
    clean, _ = generate(small_spec())
    spiked, _ = generate(small_spec(anomalies=(anomaly,)))
    hit_rows = np.nonzero((spiked - clean)[:, 0])[0]
    np.testing.assert_array_equal(hit_rows, [30, 31, 32, 33])


def test_spec_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_spec(
            anomalies=(
                InjectedAnomaly(10, (0,), 3.0),
                InjectedAnomaly(10, (0,), 3.0),
            )
        )
    with pytest.raises(ValueError, match="past the stream end"):
        small_spec(anomalies=(InjectedAnomaly(99, (0,), 3.0, duration=5),))
    with pytest.raises(ValueError, match="out of range"):
        small_spec(anomalies=(InjectedAnomaly(10, (7,), 3.0),))
    with pytest.raises(ValueError):
        ChannelBaseline(mean=0.0, stddev=-1.0)
    with pytest.raises(ValueError):
        InjectedAnomaly(5, (0,), magnitude_sigma=0.0)


def test_capture_text_shape_and_header():
    text = capture_text(small_spec(steps=3), names=("hr", "spo2"))
    lines = text.splitlines()
    assert lines[0] == "hr,spo2"
    assert len(lines) == 4
    assert all(len(line.split(",")) == 2 for line in lines[1:])


def test_labels_roundtrip_through_file(tmp_path):
    labels = [
        LabeledEvent(20, (0, 2), "5sigma"),
        LabeledEvent(45, (1,), "drop"),
    ]
    path = tmp_path / "labels.csv"
    path.write_text(labels_text(labels), encoding="utf-8")
    assert read_labels(path) == labels


def test_write_stream_writes_both_files(tmp_path):
    spec = default_spec(steps=200, n_anomalies=3, seed=1, first_anomaly=100, min_gap=10)
    stream = tmp_path / "stream.csv"
    labels_file = tmp_path / "labels.csv"
    labels = write_stream(spec, stream, labels_file, names=("a", "b", "c", "d"))
    assert len(labels) == 3
    assert stream.read_text(encoding="utf-8").splitlines()[0] == "a,b,c,d"
    assert read_labels(labels_file) == labels


def test_write_stream_generates_once(tmp_path, monkeypatch):
    spec = default_spec(steps=300, n_anomalies=3, seed=4, first_anomaly=100, min_gap=10)
    want_stream, (_, want_labels) = capture_text(spec), generate(spec)
    calls = []

    def counting(spec):
        calls.append(spec)
        return generate(spec)

    monkeypatch.setattr(synth_module, "generate", counting)
    stream, labels_file = tmp_path / "stream.csv", tmp_path / "labels.csv"
    assert write_stream(spec, stream, labels_file) == want_labels
    assert calls == [spec]
    assert stream.read_bytes() == want_stream.encode("utf-8")
    assert labels_file.read_bytes() == labels_text(want_labels).encode("utf-8")
