"""Table-driven screening tests: every flag reason, streak warnings, archive,
and the frame matcher's agreement with the classifier."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalwatch.config import Settings
from vitalwatch.pipeline import BedPipeline
from vitalwatch.validity import (
    FRAME_FLAG,
    DataWarning,
    FlagReason,
    FlagStreak,
    ParameterSchema,
    RawFrame,
    archive_header,
    archive_row,
    frame_matcher,
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
        (["72", "98", "-10000.5", "80"], [(2, FlagReason.OVER_LIMIT)]),
    ],
)
def test_field_level_flags(fields, expected):
    result = validate(frame(fields), PW, SCHEMA)
    assert not result.ok
    assert list(result.flags) == expected


def test_limit_is_strictly_greater_than():
    assert validate(frame(["72", "98", "10000", "80"]), PW, SCHEMA).ok
    assert not validate(frame(["72", "98", "10000.01", "80"]), PW, SCHEMA).ok
    assert validate(frame(["72", "98", "-10000", "80"]), PW, SCHEMA).ok
    assert not validate(frame(["72", "98", "-10000.01", "80"]), PW, SCHEMA).ok


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


def test_non_ascii_digits_are_non_numeric():
    # Arabic-Indic "72": float() reads it, the wire format does not
    line = "PW123,\u0667\u0662,98,118,76"
    assert validate(parse_frame(line), PW, SCHEMA).flags_text() == "0:non-numeric"
    assert frame_matcher(PW, SCHEMA)(line) is None


def test_schema_projection_masks_columns():
    settings = Settings(
        password=PW, schema_names=SCHEMA.names, schema_use=(0, 1, 3), warmup=1
    )
    assert settings.schema().dim == 3
    pipe = BedPipeline("bed1", settings)
    assert pipe.screen("PW123,72,98,120,80", 0.0) == (None, None)  # warm-up
    # the masked column 2 stays constant, the modeled column 3 moves
    _, x = pipe.screen("PW123,74,98,120,84", 1.0)
    np.testing.assert_allclose(x.values, [2**-0.5, 0.0, 2**-0.5], rtol=0, atol=1e-15)


def test_schema_rejects_bad_indices():
    with pytest.raises(ValueError):
        ParameterSchema(names=("a", "b"), use=(0, 2))
    with pytest.raises(ValueError):
        ParameterSchema(names=("a", "b"), zero_ok=frozenset({5}))
    with pytest.raises(ValueError):
        ParameterSchema(names=())


FLAGGED = False
VALID = True


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


def test_matcher_passes_a_clean_frame_with_its_values():
    match = frame_matcher(PW, SCHEMA)
    assert match("PW123, 72 ,+.25,7.,\t-3.5") == [72.0, 0.25, 7.0, -3.5]
    assert match("PW123,72,98,120,10000") == [72.0, 98.0, 120.0, 10000.0]
    assert match("PW123,72,98,120,-10000") == [72.0, 98.0, 120.0, -10000.0]


@pytest.mark.parametrize(
    "record",
    ["PW123,72,98,120,10000.01", "PW123,72,0,120,80", "PW123,72,-0,120,80",
     "PW123,72,98,1e3,80", "PW123,72,98,nan,80", "PW123,72,98,120", "",
     "PW1234,72,98,120,80", "PW123 ,72,98,120,80", "PW123,72,98,1 20,80",
     "PW123,72,98,120,-10000.01"],
)
def test_matcher_rejects_what_the_classifier_flags(record):
    assert frame_matcher(PW, SCHEMA)(record) is None
    assert not validate(parse_frame(record), PW, SCHEMA).ok


def test_a_huge_negative_field_is_over_the_limit():
    # "-" and 400 nines parses as -inf, which a test of the upper limit
    # alone passed on to the standardizer
    record = "PW123,72,-" + "9" * 400 + ",118,76"
    assert frame_matcher(PW, SCHEMA)(record) is None
    assert validate(parse_frame(record), PW, SCHEMA).flags == ((1, FlagReason.OVER_LIMIT),)


def test_matcher_passes_no_frame_for_a_password_with_a_comma():
    # a frame's password token ends at its first comma
    assert frame_matcher("PW,123", SCHEMA)("PW,123,72,98,120,80") is None
    assert not validate(parse_frame("PW,123,72,98,120,80"), "PW,123", SCHEMA).ok


# -- the matcher and the classifier agree on random frames ----------------

BLANKS = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u3000"])
DIGITS = st.text(alphabet="0123456789", max_size=6)
# sign, whole part, optional point, fraction: plain decimals, "7.", ".5",
# and the malformed "", "+", "." and "-." among them
DECIMAL = st.builds(
    lambda sign, whole, point, frac: sign + whole + point + frac,
    st.sampled_from(["", "+", "-"]), DIGITS, st.sampled_from(["", "."]), DIGITS,
)
SPECIAL = st.sampled_from([
    "", "null", "NULL", "-", "0", "-0", "0.0", "+0.", "1e3", "1E3", "nan",
    "inf", "0x1F", "1_000", "--", "abc", "7x12", "\u0667\u0662", "\uff17\uff12",
    "\u00b2", "10000", "10000.0", "10000.001", "99999", "1" * 400, "-" + "1" * 400,
])
FIELD = st.builds(lambda left, core, right: left + core + right,
                  BLANKS, st.one_of(DECIMAL, SPECIAL), BLANKS)
# readings with three decimals in the wire's own and other decimal
# spellings, some of them zero or over the limit
READING = st.builds(
    lambda left, sign, milli, spelling, right: left + spelling.format(sign * milli / 1000) + right,
    BLANKS, st.sampled_from([1, -1]), st.integers(0, 10_500_000),
    st.sampled_from(["{:.3f}", "{:.0f}.", "{:+.2f}", "{}"]), BLANKS,
)
SCHEMAS = st.sampled_from([
    SCHEMA,
    ParameterSchema(names=SCHEMA.names, use=(0, 2, 3)),
    ParameterSchema(names=SCHEMA.names, zero_ok=frozenset({1})),
    ParameterSchema(names=SCHEMA.names, use=(1, 3), zero_ok=frozenset({0, 3})),
])


@st.composite
def wire_lines(draw, arity: int) -> str:
    password = draw(st.sampled_from([PW] * 12 + ["WRONG", " PW123", "PW123 ", "PW12", ""]))
    size = draw(st.sampled_from([arity] * 4 + [arity - 1, arity + 1]))
    fields = draw(st.lists(READING, min_size=size, max_size=size))
    for i, token in draw(st.lists(st.tuples(st.integers(0, size - 1), FIELD), max_size=3)):
        fields[i] = token
    ending = draw(st.sampled_from(["", "\n", "\r\n", " \n"]))
    return ",".join([password, *fields]) + ending


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_matcher_agrees_with_the_classifier(data):
    schema = data.draw(SCHEMAS)
    line = data.draw(wire_lines(schema.arity))
    values = frame_matcher(PW, schema)(line.rstrip("\r\n"))
    result = validate(parse_frame(line), PW, schema)
    if values is None:
        assert not result.ok
    else:
        assert result.ok
        assert [v.hex() for v in values] == [v.hex() for v in result.vector.tolist()]
