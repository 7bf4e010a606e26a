"""Config parsing: defaults, overrides, line-numbered failures, bed sources."""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalwatch.config import BedSource, ConfigError, Settings, load_settings, parse_settings
from vitalwatch.engine import ThresholdConfig, VerdictKind


def test_empty_text_gives_documented_defaults():
    s = parse_settings("")
    assert s.password == "PW123"
    assert s.detector.nu1 == 0.07 and s.detector.nu2 == 0.16
    assert s.detector.ell == 20 and s.detector.sigma == 2.5 and s.detector.lam == 0.98
    assert s.detector.prune_period == 100 and s.detector.usage_floor == 1e-4
    assert s.detector.max_size == 50
    assert s.warmup == 50 and s.train_steps == 50 and s.warn_threshold == 5
    assert s.poll_interval == 12.0 and math.isinf(s.speedup)
    assert s.window_w == 5 and s.counted_kinds == ("red1", "red2")
    assert s.grid == ((0.03, 0.08), (0.07, 0.16), (0.11, 0.24))
    assert s.schema_names == ("hr", "spo2", "nbp_sys", "nbp_dia")
    assert s.beds == ()


def test_comments_blanks_and_overrides():
    s = parse_settings(
        """
        # detector
        nu1 = 0.03
        nu2 = 0.08


        lambda = 0.9
        ell = 10
        password = WARD7
        """
    )
    assert s.detector.nu1 == 0.03 and s.detector.nu2 == 0.08
    assert s.detector.lam == 0.9 and s.detector.ell == 10
    assert s.password == "WARD7"
    cfg = s.threshold_config()
    assert cfg.nu1 == 0.03 and cfg.lam == 0.9


def test_schema_keys_round_trip():
    s = parse_settings(
        "schema.names = hr, spo2, rr, temp, etco2\n"
        "schema.use = 0, 1, 4\n"
        "schema.zero_ok = 2\n"
    )
    schema = s.schema()
    assert schema.names == ("hr", "spo2", "rr", "temp", "etco2")
    assert schema.dim == 3
    assert schema.zero_ok == frozenset({2})


def test_grid_and_sweeps():
    s = parse_settings(
        "grid = 0.03:0.08, 0.07:0.16\n"
        "grid_sigma = 1.0, 2.5\n"
        "grid_ell = 10, 20\n"
    )
    configs = s.tuning_grid()
    assert len(configs) == 2 * 2 * 2
    assert {(c.nu1, c.nu2) for c in configs} == {(0.03, 0.08), (0.07, 0.16)}
    assert {c.sigma for c in configs} == {1.0, 2.5}
    assert {c.ell for c in configs} == {10, 20}


def test_counted_kinds_parse_to_policy():
    s = parse_settings("counted_kinds = red1, red2, orange\nwindow_w = 3\n")
    policy = s.match_policy()
    assert policy.window_w == 3
    assert policy.counted_kinds == frozenset(
        {VerdictKind.RED1, VerdictKind.RED2, VerdictKind.ORANGE}
    )


def test_bed_sources():
    s = parse_settings(
        "bed.bed1.source = replay:data/run1.csv\n"
        "bed.bed2.source = socket:0.0.0.0:9650\n"
        "bed.icu3.source = synthetic:42\n"
    )
    assert s.beds == (
        BedSource("bed1", "replay", "data/run1.csv"),
        BedSource("bed2", "socket", "0.0.0.0:9650"),
        BedSource("icu3", "synthetic", "42"),
    )


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("nu1 == 0.03\n", "expected a number", 1),
        ("bogus_key = 1\n", "unknown setting", 1),
        ("nu1 = 0.07\nell = 2.5\n", "expected an integer", 2),
        ("\n\nno_equals_here\n", "key = value", 3),
        ("grid = 0.03-0.08\n", "nu1:nu2", 1),
        ("bed.b1.speed = 2\n", "unknown bed key", 1),
        ("bed.b1.source = ftp:host\n", "source kind", 1),
        ("bed.b1.source = replay:\n", "target", 1),
        ("bed.b1.source = replay:a\nbed.b1.source = replay:b\n", "twice", 2),
        ("password = a,b\n", "comma-free", 1),
        ("counted_kinds = red1, purple\n", "unknown alarm kind", None),
        ("nu1 = 0.5\nnu2 = 0.2\n", "nu1 < nu2", None),
        ("speedup = 0\n", "speedup", None),
        ("poll_interval = inf\nspeedup = 1000\n", "poll_interval must be finite", None),
        ("poll_interval = 86401\nspeedup = 1\n", "at most 86400 s", None),
        ("speedup = 1e-300\n", "got 1.2e+301 s", None),
        ("warmup = 0\n", "warmup", None),
        ("var_floor = 1e-6\n", "unknown setting 'var_floor'", 1),
        ("schema.use = 9\n", "use indices", None),
        ("schema.zero_ok = 7\n", "zero_ok indices", None),
        ("grid_sigma = 0\n", "sigma", None),
        ("sigma = inf\n", "sigma must be finite and > 0, got inf", None),
        ("grid_ell = 0\n", "ell", None),
        ("max_size = 20\n", "max_size (20) must exceed ell (20)", None),
        ("grid_ell = 10, 60\n", "max_size (50) must exceed ell (60)", None),
        ("bed.b1.source = socket:127.0.0.1:99999\n", "port in 0-65535", 1),
        ("bed.b1.source = synthetic:abc\n", "integer seed", None),
        ("\nbed.b2.source = synthetic:abc\n", "integer seed", 2),
        ("bed.a,b.source = synthetic:1\n", "bed id must be", 1),
        ("\nbed.x/y.source = synthetic:1\n", "got 'x/y'", 2),
        ("bed..source = synthetic:1\n", "bed id must be", 1),
        ("bed.icu 1.source = synthetic:1\n", "bed id must be", 1),
    ],
)
def test_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ConfigError) as excinfo:
        parse_settings(text)
    assert fragment in str(excinfo.value)
    if line is not None:
        assert f"line {line}:" in str(excinfo.value)


@pytest.mark.parametrize(
    "text,line",
    [
        ("counted_kinds = red1, purple\n", 1),
        ("nu1 = 0.5\nnu2 = 0.2\n", 2),
        ("nu2 = 0.1\n# the band\nnu1 = 0.2\n", 3),
        ("speedup = 0\n", 1),
        ("poll_interval = inf\nspeedup = 1000\n", 1),
        ("poll_interval = 86401\nspeedup = 1\n", 2),
        ("speedup = 1e-300\n", 1),
        ("warmup = 0\n", 1),
        ("warmup = 0\nspeedup = 5\n", 1),
        ("speedup = 5\n\nwarmup = 0\n", 3),
        ("speedup = 5\nspeedup = 0\n", 2),
        ("schema.names =\n", 1),
        ("schema.use = 9\n", 1),
        ("schema.zero_ok = 7\n", 1),
        ("grid =\n", 1),
        ("grid_sigma = 0\n", 1),
        ("sigma = -1\n", 1),
        ("sigma = inf\n", 1),
        ("grid_ell = 0\n", 1),
        ("max_size = 20\n", 1),
        ("ell = 30\nmax_size = 30\n", 2),
        ("grid_ell = 10, 60\n", 1),
        ("bed.b1.source = synthetic:abc\n", 1),
        ("warmup = 0\nwarmup = 0\n", 1),
        ("schema.use = 9\nschema.use = 9\n", 1),
        ("speedup = 0\nell = 10\ntrain_steps = 0\nmax_size = 20\n", 1),
    ],
)
def test_a_refusal_of_the_whole_file_names_the_line_it_is_about(text, line):
    # Only the assembled Settings sees these; a rule over two lines names the later.
    with pytest.raises(ConfigError) as excinfo:
        parse_settings(text)
    assert excinfo.value.line == line
    assert str(excinfo.value).startswith(f"line {line}: ")


# Rows that pass the check of their own line, though the assembled file may
# refuse them, and rows whose own line check refuses them.
_LINE_PASSES = [
    "", "# a note", "warmup = 0", "warmup = 10", "nu1 = 0.5", "nu2 = 0.2",
    "speedup = 0", "ell = 30", "max_size = 20", "schema.use = 9", "grid =",
    "grid_ell = 0", "counted_kinds = purple", "password = PW9",
    "bed.a.source = synthetic:1", "bed.b.source = replay:b.csv",
]
_LINE_FAILS = [
    "nu1 = abc", "ell = 2.5", "no_equals_here", "= 3", "grid = 0.03-0.08",
    "bed.b1.speed = 2", "bed.b1.source = ftp:host", "password = a,b",
    "bogus = 1", "sigma = nan", "bed.x/y.source = synthetic:1", "schema.use = 1.5",
    "bed.c.source = synthetic:abc",
]


@settings(max_examples=200, deadline=None)
@given(
    # unique, since a bed configured twice is refused at its second row
    before=st.lists(st.sampled_from(_LINE_PASSES), max_size=5, unique=True),
    bad=st.sampled_from(_LINE_FAILS),
    after=st.lists(st.sampled_from(_LINE_PASSES + _LINE_FAILS), max_size=5),
)
def test_a_row_its_own_check_refuses_is_the_line_named(before, bad, after):
    with pytest.raises(ConfigError) as excinfo:
        parse_settings("\n".join([*before, bad, *after]) + "\n")
    assert excinfo.value.line == len(before) + 1


def test_every_detector_field_is_set_by_its_key():
    values = {
        "nu1": 0.05, "nu2": 0.3, "ell": 7, "sigma": 1.5, "lam": 0.9,
        "d_similar": 0.8, "epsilon_frac": 0.3, "prune_period": 40,
        "usage_floor": 0.01, "max_size": 12,
    }
    assert values.keys() == {f.name for f in fields(ThresholdConfig)}
    assert all(value != getattr(ThresholdConfig(), name) for name, value in values.items())
    text = "".join(
        f"{'lambda' if name == 'lam' else name} = {value}\n" for name, value in values.items()
    )
    assert parse_settings(text).threshold_config() == ThresholdConfig(**values)


def test_six_beds_rejected():
    text = "".join(f"bed.b{i}.source = synthetic:{i}\n" for i in range(6))
    with pytest.raises(ConfigError, match="at most 5"):
        parse_settings(text)


def test_check_refuses_a_bed_id_set_in_code():
    with pytest.raises(ConfigError, match="bed id must be"):
        Settings(beds=(BedSource("x/y", "synthetic", "1"),))


@pytest.mark.parametrize(
    "bed,kind,target,fragment",
    [
        ("x/y", "synthetic", "1", "bed id must be"),
        ("a,b", "synthetic", "1", "bed id must be"),
        ("", "replay", "run.csv", "bed id must be"),
        ("bed1", "ftp", "host", "source kind must be one of"),
        ("bed1", "replay", "", "needs a target"),
        ("bed1", "socket", "nonsense", "host:port"),
        ("bed1", "socket", "127.0.0.1:99999", "port in 0-65535"),
        ("bed1", "synthetic", "-1", "integer seed"),
        ("bed1", "synthetic", "\u0663", "integer seed"),  # a non-ASCII digit
    ],
)
def test_bed_source_refuses_a_bad_bed_when_made(bed, kind, target, fragment):
    with pytest.raises(ConfigError, match=fragment):
        BedSource(bed, kind, target)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"password": "a,b"}, "comma-free"),
        ({"password": ""}, "comma-free"),
        ({"grid": ()}, "at least one nu1:nu2 pair"),
        ({"grid_sigma": (math.nan,)}, "sigma must be finite and > 0, got nan"),
        ({"schema_names": ()}, "at least one parameter name"),
        ({"beds": (BedSource("b1", "synthetic", "1"),) * 2}, "bed ids must be unique"),
        ({"beds": tuple(BedSource(f"b{i}", "synthetic", "1") for i in range(6))}, "at most 5"),
    ],
)
def test_settings_refuse_what_a_config_file_refuses(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        Settings(**overrides)


def test_settings_are_frozen_and_a_replaced_copy_is_checked_again():
    settings = Settings()
    with pytest.raises(FrozenInstanceError):
        settings.speedup = 0.0
    assert replace(settings, speedup=60.0).speedup == 60.0
    with pytest.raises(ConfigError, match="speedup must be > 0"):
        replace(settings, speedup=0.0)
    with pytest.raises(ConfigError, match="train_steps must be >= 1"):
        replace(settings, train_steps=0)
    assert math.isinf(settings.speedup)


def test_the_paced_gap_ceiling_is_one_day():
    # The gap is poll_interval / speedup; with no pacing it is 0, whatever
    # the nominal interval says.
    for text in (
        "poll_interval = 86400\nspeedup = 1\n",
        "poll_interval = 1e9\nspeedup = 1e6\n",
        "poll_interval = 1e300\n",
    ):
        parse_settings(text)
    with pytest.raises(ConfigError, match="got 120000 s"):
        Settings(poll_interval=12.0, speedup=1e-4)


def test_load_settings_from_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("nu1 = 0.05\nnu2 = 0.12\n", encoding="utf-8")
    s = load_settings(path)
    assert (s.detector.nu1, s.detector.nu2) == (0.05, 0.12)
    assert load_settings(None) == Settings()
    with pytest.raises(ConfigError, match="cannot read"):
        load_settings(tmp_path / "missing.conf")


def test_load_settings_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("password = PW9\nnu1 = 0.05\n", encoding="utf-8-sig")
    s = load_settings(path)
    assert (s.password, s.detector.nu1) == ("PW9", 0.05)


def test_the_readme_config_example_loads_as_the_defaults_plus_its_beds():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    s = parse_settings(example)
    assert [bed.bed for bed in s.beds] == ["icu1", "icu2", "icu3", "icu4"]
    assert replace(s, beds=()) == Settings()
