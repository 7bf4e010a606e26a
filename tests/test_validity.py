"""Table-driven screening tests: every flag reason, streak warnings, archive."""

from __future__ import annotations

import numpy as np
import pytest

from vitalwatch.validity import (
    FRAME_FLAG,
    DataWarning,
    FlagReason,
    FlagStreak,
    ParameterSchema,
    RawFrame,
    ValidationResult,
    archive_header,
    archive_row,
    parse_frame,
    track,
    validate,
)

SCHEMA = ParameterSchema(names=("hr", "spo2", "nbp_sys", "nbp_dia"))
PW = "PW123"


def frame(fields, password=PW):
    return RawFrame(password, tuple(fields))


def test_parse_frame_splits_password_and_fields():
    f = parse_frame("PW123,72,98,120,80")
    assert f.password == "PW123"
    assert f.fields == ("72", "98", "120", "80")


def test_parse_frame_short_record_parses_without_judgement():
    f = parse_frame("PW123,72,98")
    assert f.password == "PW123"
    assert f.fields == ("72", "98")


@pytest.mark.parametrize("suffix", ["", "\n", "\r\n"])
def test_parse_frame_normalizes_line_endings(suffix):
    assert parse_frame("PW123,72,98,120,80" + suffix) == parse_frame(
        "PW123,72,98,120,80"
    )


def test_valid_frame_yields_parsed_vector():
    result = validate(frame(["72", "98", "120", "80"]), PW, SCHEMA)
    assert result.ok
    np.testing.assert_array_equal(result.vector, [72.0, 98.0, 120.0, 80.0])
    assert result.flags == ()


@pytest.mark.parametrize(
    "fields,expected",
    [
        (["72", "98", "-", "80"], [(2, FlagReason.HYPHEN)]),
        (["72", "98", "12000", "80"], [(2, FlagReason.OVER_LIMIT)]),
        (["72", "98", "null", "80"], [(2, FlagReason.NULL)]),
        (["72", "98", "", "80"], [(2, FlagReason.NULL)]),
        (["72", "0", "120", "80"], [(1, FlagReason.ZERO)]),
        (["72", "0.0", "120", "80"], [(1, FlagReason.ZERO)]),
        (["72", "98", "abc", "80"], [(2, FlagReason.NON_NUMERIC)]),
        (["72", "98", "1e3", "80"], [(2, FlagReason.NON_NUMERIC)]),
        (["72", "98", "--", "80"], [(2, FlagReason.NON_NUMERIC)]),
        # one frame can carry several flags, in field order
        (["0", "98", "-", "99999"], [(0, FlagReason.ZERO), (2, FlagReason.HYPHEN),
                                     (3, FlagReason.OVER_LIMIT)]),
    ],
)
def test_field_level_flags(fields, expected):
    result = validate(frame(fields), PW, SCHEMA)
    assert not result.ok
    assert list(result.flags) == expected


def test_limit_is_strictly_greater_than():
    assert validate(frame(["72", "98", "10000", "80"]), PW, SCHEMA).ok
    assert not validate(frame(["72", "98", "10000.01", "80"]), PW, SCHEMA).ok


def test_bad_password_flags_whole_frame_regardless_of_fields():
    result = validate(frame(["72", "98", "120", "80"], password="WRONG"), PW, SCHEMA)
    assert result.flags == ((FRAME_FLAG, FlagReason.BAD_PASSWORD),)


def test_wrong_field_count_is_bad_arity():
    result = validate(frame(["72", "98"]), PW, SCHEMA)
    assert result.flags == ((FRAME_FLAG, FlagReason.BAD_ARITY),)
    result = validate(frame(["72", "98", "120", "80", "7"]), PW, SCHEMA)
    assert result.flags == ((FRAME_FLAG, FlagReason.BAD_ARITY),)


def test_empty_line_is_bad_arity():
    result = validate(parse_frame(""), PW, SCHEMA)
    assert result.flags == ((FRAME_FLAG, FlagReason.BAD_ARITY),)


def test_zero_ok_whitelist():
    schema = ParameterSchema(names=SCHEMA.names, zero_ok=frozenset({1}))
    assert validate(frame(["72", "0", "120", "80"]), PW, schema).ok
    assert not validate(frame(["0", "98", "120", "80"]), PW, schema).ok


def test_decimal_forms_accepted():
    result = validate(frame(["72.", "+98.5", "-0.5", ".8"]), PW, SCHEMA)
    assert result.ok
    np.testing.assert_allclose(result.vector, [72.0, 98.5, -0.5, 0.8])


def test_schema_projection_masks_columns():
    schema = ParameterSchema(names=SCHEMA.names, use=(0, 1, 3))
    assert schema.dim == 3
    result = validate(frame(["72", "98", "120", "80"]), PW, schema)
    np.testing.assert_array_equal(schema.project(result.vector), [72.0, 98.0, 80.0])


def test_schema_rejects_bad_indices():
    with pytest.raises(ValueError):
        ParameterSchema(names=("a", "b"), use=(0, 2))
    with pytest.raises(ValueError):
        ParameterSchema(names=("a", "b"), zero_ok=frozenset({5}))
    with pytest.raises(ValueError):
        ParameterSchema(names=())


FLAGGED = ValidationResult(None, ((0, FlagReason.NULL),))
VALID = ValidationResult(np.array([1.0]), ())


def test_warning_raised_on_exactly_the_wth_frame():
    streak = FlagStreak(warn_threshold=5)
    events = [track(streak, FLAGGED, t) for t in range(5)]
    assert events[:4] == [None] * 4
    assert events[4] == DataWarning(active=True, at_timestep=4)
    # staying flagged does not re-raise
    assert track(streak, FLAGGED, 5) is None
    assert streak.warning_active


def test_short_streak_never_warns():
    streak = FlagStreak(warn_threshold=5)
    for t in range(4):
        assert track(streak, FLAGGED, t) is None
    assert track(streak, VALID, 4) is None
    assert streak.consecutive_flagged == 0
    assert not streak.warning_active


def test_valid_frame_clears_active_warning():
    streak = FlagStreak(warn_threshold=2)
    track(streak, FLAGGED, 0)
    raised = track(streak, FLAGGED, 1)
    assert raised == DataWarning(active=True, at_timestep=1)
    cleared = track(streak, VALID, 2)
    assert cleared == DataWarning(active=False, at_timestep=2)
    assert not streak.warning_active
    # a second valid frame emits nothing new
    assert track(streak, VALID, 3) is None


def test_track_is_deterministic_over_a_sequence():
    pattern = [FLAGGED, FLAGGED, VALID, FLAGGED, FLAGGED, FLAGGED, VALID]

    def run():
        streak = FlagStreak(warn_threshold=3)
        return [track(streak, r, t) for t, r in enumerate(pattern)]

    assert run() == run()


def test_archive_row_keeps_raw_fields_and_flags():
    f = frame(["72", "98", "-", "80"])
    result = validate(f, PW, SCHEMA)
    row = archive_row("bed1", 17, 42.0, result, f, SCHEMA)
    assert row == "bed1,17,42.000,2:hyphen,72,98,-,80"
    assert archive_header(SCHEMA) == "bed,timestep,received_at,flags,hr,spo2,nbp_sys,nbp_dia"


def test_archive_row_empty_flags_for_valid_frames():
    f = frame(["72", "98", "120", "80"])
    result = validate(f, PW, SCHEMA)
    row = archive_row("bed1", 0, 0.0, result, f, SCHEMA)
    assert row.split(",")[3] == ""
