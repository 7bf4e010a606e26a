"""The shipped defaults must detect anomalies, not alarm on most frames.

Default ``Settings()`` (changing only which columns are modelled) runs the
whole chain a recorded stream takes: the wire file, ``ReplaySource``, the
front half, the detector half and the scorer. The gate is the one
acceptance criterion 6 puts on a tuned grid row, here on the defaults:
detection >= 75 % and false alarms <= 2 % of the scored vectors.
"""

import pytest

from vitalwatch.config import Settings
from vitalwatch.pipeline import standardized_stream
from vitalwatch.sources import ReplaySource
from vitalwatch.synth import default_spec, write_stream
from vitalwatch.tuning import run_detector, score_run

STREAMS = [  # (seed, steps, min_gap)
    (7, 4000, 25),
    (11, 4000, 25),
    (2026, 2000, 30),
]


@pytest.mark.parametrize("schema_use", [None, (0, 1, 2)], ids=["4-columns", "3-columns"])
@pytest.mark.parametrize("seed,steps,min_gap", STREAMS)
def test_default_settings_detect_without_flooding(
    tmp_path, seed, steps, min_gap, schema_use
):
    spec = default_spec(steps=steps, n_anomalies=36, seed=seed, dim=4, min_gap=min_gap)
    path = tmp_path / "stream.csv"
    labels = write_stream(spec, path, tmp_path / "labels.csv")
    settings = Settings(schema_use=schema_use)
    if schema_use is not None:
        # an anomaly on an unmodelled column cannot be seen
        labels = [ev for ev in labels if set(ev.channels) & set(schema_use)]

    lines = [line for line, _ in ReplaySource(path, settings.password).frames()]
    timesteps, vectors = standardized_stream(lines, settings)
    verdicts = run_detector(
        vectors, settings.threshold_config(), settings.train_steps, timesteps
    )
    report = score_run(verdicts, labels, settings.match_policy())

    scored = len(vectors) - settings.train_steps
    detection = report.detected / len(labels)
    false_rate = report.false_alarms / scored
    summary = (
        f"detected {report.detected}/{len(labels)}, "
        f"{report.false_alarms} false alarms over {scored} scored vectors"
    )
    assert detection >= 0.75, summary
    assert false_rate <= 0.02, summary
