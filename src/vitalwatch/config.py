"""Flat key-value configuration: one `key = value` per line, # comments.

Every tunable is overridable here; unknown keys are errors so typos fail
loudly, and a refused file names the line from which on it is refused. The
detector's parameters are the fields of ``engine.ThresholdConfig``, whose
defaults are their only definition; each is set by a key of the same name,
except ``lambda`` for ``lam``. Bed sources use dotted keys (bed.<id>.source =
replay:path | tail:path | socket:host:port | synthetic:seed).

``Settings`` and ``BedSource`` are frozen and check themselves when made, so
a value no run accepts fails as a ``ConfigError`` wherever the object is
built: ``parse_settings`` builds each bed as it reads its row, then one
``Settings`` from the whole file, and the CLI applies its flags with
``replace``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .board import MAX_BEDS
from .engine import ThresholdConfig, VerdictKind
from .sources import DEFAULT_POLL_INTERVAL, capture_header, socket_address
from .standardize import RunningStandardizer
from .synth import read_text
from .tuning import MatchPolicy
from .validity import FlagStreak, ParameterSchema


class ConfigError(Exception):
    """Carries the offending line number when one applies."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# A bed id names its frame archive and fills one field of each event row, so
# it is a plain token: no separator, no path, nothing a CSV field must quote.
BED_ID_RE = re.compile(r"[A-Za-z0-9_-]+")


def check_bed_id(bed: str) -> None:
    if not BED_ID_RE.fullmatch(bed):
        raise ConfigError(f"bed id must be ASCII letters, digits, '_' or '-', got {bed!r}")


def _check_password(password: str) -> None:
    if not password or "," in password:  # it is the first field of every frame
        raise ConfigError("password must be a non-empty comma-free token")


_SOURCE_KINDS = ("replay", "tail", "socket", "synthetic")


@dataclass(frozen=True)
class BedSource:
    """Where one bed's frames come from; made only with an id, kind and target
    a run accepts (a path target is first opened by the run)."""

    bed: str
    kind: str  # replay | tail | socket | synthetic
    target: str  # path, host:port, or seed

    def __post_init__(self) -> None:
        check_bed_id(self.bed)
        if self.kind not in _SOURCE_KINDS:
            raise ConfigError(f"source kind must be one of {', '.join(_SOURCE_KINDS)}")
        if not self.target:
            raise ConfigError("source needs a target after the colon")
        if self.kind == "socket":
            try:
                socket_address(self.target)
            except ValueError as exc:
                raise ConfigError(f"bed {self.bed!r}: {exc}") from None
        elif self.kind == "synthetic" and not re.fullmatch(r"[0-9]+", self.target):
            raise ConfigError(
                f"bed {self.bed!r}: synthetic source needs a non-negative "
                f"integer seed, got {self.target!r}"
            )


@dataclass(frozen=True)
class Settings:
    """Everything a run needs, with the documented defaults filled in. Made only
    with values a run accepts; ``dataclasses.replace`` checks a change again."""

    password: str = "PW123"
    schema_names: tuple[str, ...] = ("hr", "spo2", "nbp_sys", "nbp_dia")
    schema_use: tuple[int, ...] | None = None
    schema_zero_ok: tuple[int, ...] = ()

    detector: ThresholdConfig = ThresholdConfig()

    warmup: int = 50
    train_steps: int = 50
    warn_threshold: int = 5

    poll_interval: float = DEFAULT_POLL_INTERVAL
    speedup: float = math.inf
    refresh: float = 2.0

    window_w: int = 5
    counted_kinds: tuple[str, ...] = ("red1", "red2")
    grid: tuple[tuple[float, float], ...] = ((0.03, 0.08), (0.07, 0.16), (0.11, 0.24))
    grid_sigma: tuple[float, ...] = ()
    grid_ell: tuple[int, ...] = ()

    archive_dir: str = "archives"
    beds: tuple[BedSource, ...] = ()

    def __post_init__(self) -> None:
        """Build what a run builds, so that a value no run accepts fails here."""
        try:
            self.match_policy()
            grid = self.tuning_grid()
            self.standardizer()
            FlagStreak(self.warn_threshold)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.grid:
            raise ConfigError("grid must contain at least one nu1:nu2 pair")
        _check_password(self.password)
        if not capture_header(self.schema_names, self.password):  # what synth writes
            raise ConfigError(
                "schema.names must be able to head a capture file: no name a "
                "decimal, and the first not the password"
            )
        # A tracker resolves ell timesteps after the one it was raised at, and
        # at most one is raised per timestep, so at most ell trackers are
        # open when an admission at capacity forces a prune. With
        # max_size > ell some element is always unprotected and the prune
        # can free a slot; otherwise the engine may raise EngineError
        # mid-stream.
        for config in (self.detector, *grid):
            if config.max_size <= config.ell:
                raise ConfigError(
                    f"max_size ({config.max_size}) must exceed ell ({config.ell}), "
                    "the most Orange trackers that can be open at once"
                )
        for name in ("poll_interval", "speedup", "refresh"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        if math.isinf(self.poll_interval):
            raise ConfigError("poll_interval must be finite")
        # A paced source sleeps this long between frames; a day is past any
        # cadence a bedside unit keeps, and far inside what time.sleep takes.
        gap = self.poll_interval / self.speedup
        if gap > 86400.0:
            raise ConfigError(
                f"poll_interval / speedup, the gap between paced frames, must be "
                f"at most 86400 s (one day), got {gap:g} s"
            )
        if self.train_steps < 1:
            raise ConfigError("train_steps must be >= 1")
        if len(self.beds) > MAX_BEDS:
            raise ConfigError(f"at most {MAX_BEDS} beds supported")
        if len({b.bed for b in self.beds}) < len(self.beds):
            raise ConfigError("bed ids must be unique")

    def schema(self) -> ParameterSchema:
        return ParameterSchema(
            names=self.schema_names,
            use=self.schema_use,
            zero_ok=frozenset(self.schema_zero_ok),
        )

    def standardizer(self) -> RunningStandardizer:
        """A fresh standardizer for one bed; it owns the warm-up rule."""
        return RunningStandardizer(self.schema().dim, self.warmup)

    @property
    def lead_in(self) -> int:
        """Valid frames before a bed's first verdict: warm-up, then training."""
        return self.warmup + self.train_steps

    def threshold_config(self, **overrides) -> ThresholdConfig:
        """The deployed detector config, with any fields replaced."""
        return replace(self.detector, **overrides)

    def match_policy(self) -> MatchPolicy:
        kinds = []
        for name in self.counted_kinds:
            try:
                kinds.append(VerdictKind(name))
            except ValueError:
                raise ConfigError(f"unknown alarm kind {name!r}") from None
        return MatchPolicy(window_w=self.window_w, counted_kinds=frozenset(kinds))

    def tuning_grid(self) -> list[ThresholdConfig]:
        """Cartesian product of threshold pairs with any sigma/ell sweeps."""
        sigmas = self.grid_sigma or (self.detector.sigma,)
        ells = self.grid_ell or (self.detector.ell,)
        configs = []
        for nu1, nu2 in self.grid:
            for sigma in sigmas:
                for ell in ells:
                    configs.append(
                        self.threshold_config(nu1=nu1, nu2=nu2, sigma=sigma, ell=ell)
                    )
        return configs


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if math.isnan(value):
        raise ConfigError("nan is not a valid setting")
    return value


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_names(raw: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in raw.split(",") if token.strip())


def _parse_list(raw: str, parse) -> tuple:
    """Comma-separated values, each read by ``parse``."""
    return tuple(parse(token) for token in _parse_names(raw))


def _parse_grid(raw: str) -> tuple[tuple[float, float], ...]:
    """Threshold pairs like `0.03:0.08, 0.07:0.16, 0.11:0.24`."""
    pairs = []
    for chunk in _parse_names(raw):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"grid entries look like nu1:nu2, got {chunk!r}")
        pairs.append((_parse_float(parts[0]), _parse_float(parts[1])))
    return tuple(pairs)


def _parse_number(raw: str, default: int | float) -> int | float:
    """A value of the same type as the setting's default."""
    return _parse_int(raw) if isinstance(default, int) else _parse_float(raw)


# Numeric keys, each with the field it sets; `lambda` is a Python keyword.
_DETECTOR_KEYS = {
    "lambda" if f.name == "lam" else f.name: f for f in fields(ThresholdConfig)
}
_NUMBER_KEYS = {f.name: f for f in fields(Settings) if type(f.default) in (int, float)}


def parse_settings(text: str) -> Settings:
    """The ``Settings`` of a config file's text, one row per LF-ended line. A
    refusal names the row from which on the file raises it: rows are dropped
    from the end while the rest still raises the same refusal, and the last
    row left is named. So a rule over two lines, such as nu1 < nu2, names the
    later, and a blank or comment row is never named."""
    rows = text.split("\n")
    try:
        return _parse(rows)
    except ConfigError as exc:
        refusal = str(exc)
    line = len(rows)
    while _refusal(rows[: line - 1]) == refusal:
        line -= 1
    raise ConfigError(refusal, line) from None


def _refusal(rows: list[str]) -> str | None:
    try:
        _parse(rows)
    except ConfigError as exc:
        return str(exc)
    return None


def _parse(rows: list[str]) -> Settings:
    values: dict[str, object] = {}
    detector: dict[str, int | float] = {}
    beds: dict[str, BedSource] = {}
    for raw_line in rows:
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigError("missing key before `=`")

        if key in _DETECTOR_KEYS:
            f = _DETECTOR_KEYS[key]
            detector[f.name] = _parse_number(raw, f.default)
        elif key in _NUMBER_KEYS:
            values[key] = _parse_number(raw, _NUMBER_KEYS[key].default)
        elif key == "password":
            _check_password(raw)
            values["password"] = raw
        elif key == "schema.names":
            values["schema_names"] = _parse_names(raw)
        elif key == "schema.use":
            values["schema_use"] = _parse_list(raw, _parse_int)
        elif key == "schema.zero_ok":
            values["schema_zero_ok"] = _parse_list(raw, _parse_int)
        elif key == "counted_kinds":
            values["counted_kinds"] = _parse_names(raw)
        elif key == "grid":
            values["grid"] = _parse_grid(raw)
        elif key == "grid_sigma":
            values["grid_sigma"] = _parse_list(raw, _parse_float)
        elif key == "grid_ell":
            values["grid_ell"] = _parse_list(raw, _parse_int)
        elif key == "archive_dir":
            values["archive_dir"] = raw
        elif key.startswith("bed."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] != "source":
                raise ConfigError(f"unknown bed key {key!r}")
            kind, _, target = raw.partition(":")
            bed = BedSource(parts[1], kind, target)
            if bed.bed in beds:
                raise ConfigError(f"bed {bed.bed!r} configured twice")
            beds[bed.bed] = bed
        else:
            raise ConfigError(f"unknown setting {key!r}")

    # built once, from the whole file, so that nu1 < nu2 sees both lines
    try:
        values["detector"] = ThresholdConfig(**detector)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Settings(**values, beds=tuple(beds.values()))


def load_settings(path: str | Path | None) -> Settings:
    if path is None:
        return Settings()
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a line that is not UTF-8
        raise ConfigError(str(exc)) from None
    return parse_settings(text)
