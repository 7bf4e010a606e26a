"""Frame parsing and screening before anything reaches the detector.

Incoming records are comma-separated lines whose leading field is a shared
password token. Screening rejects frames with a wrong password or wrong
field count, and flags individual values that are empty/null, zero, a bare
hyphen, above the physiological transmission limit, or not plain decimal
numbers. Flagged frames are archived but never scored. A per-bed streak
counter raises a DataWarning after ``warn_threshold`` consecutive flagged
frames and clears it on the next valid one.

There are two screens with one verdict. ``frame_matcher`` accepts a clean
frame with one compiled match and returns its values; ``parse_frame`` and
``validate`` classify any frame field by field and name its flags. The
matcher accepts exactly the frames ``validate`` passes, with the same
values, so a caller may try it first and classify only what it rejects.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Plain ASCII decimal notation only: "12", "-3.5", "+.25", "7.". Anything
# else (scientific notation, hex, inf/nan spellings, non-ASCII digits) is
# non-numeric on the wire. The digits are spelled [0-9], not \d: a str
# pattern's \d matches any Unicode digit, and ``frame_matcher`` builds its
# pattern from this one's text, so a flag would not carry over.
DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")

# Values whose magnitude exceeds this are transmission garbage, not physiology.
VALUE_LIMIT = 10000.0

# Index used for flags that concern the whole frame rather than one field.
FRAME_FLAG = -1


class FlagReason(Enum):
    NULL = "null"
    ZERO = "zero"
    HYPHEN = "hyphen"
    OVER_LIMIT = "over-limit"
    BAD_PASSWORD = "bad-password"
    BAD_ARITY = "bad-arity"
    NON_NUMERIC = "non-numeric"


@dataclass(frozen=True)
class ParameterSchema:
    """Wire layout of one frame: field names, plus which columns feed the
    detector (``use``) and which may legitimately read zero (``zero_ok``)."""

    names: tuple[str, ...]
    use: tuple[int, ...] | None = None
    zero_ok: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("schema needs at least one parameter name")
        if self.use is not None:
            bad = [i for i in self.use if not 0 <= i < len(self.names)]
            if bad:
                raise ValueError(f"use indices out of range: {bad}")
            if len(set(self.use)) != len(self.use):
                raise ValueError("use indices must be unique")
        bad = [i for i in self.zero_ok if not 0 <= i < len(self.names)]
        if bad:
            raise ValueError(f"zero_ok indices out of range: {bad}")

    @property
    def arity(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        """Dimension of the vector handed to the detector."""
        return len(self.use) if self.use is not None else len(self.names)


@dataclass(frozen=True)
class RawFrame:
    password: str
    fields: tuple[str, ...]


@dataclass(frozen=True)
class ValidationResult:
    """Either a clean full-arity vector or a list of (index, reason) flags.

    Field indices are 0-based over the value fields; FRAME_FLAG (-1) marks
    frame-level problems (password, arity).
    """

    vector: np.ndarray | None
    flags: tuple[tuple[int, FlagReason], ...]

    @property
    def ok(self) -> bool:
        return self.vector is not None

    def flags_text(self) -> str:
        return ";".join(f"{i}:{reason.value}" for i, reason in self.flags)


@dataclass(frozen=True)
class DataWarning:
    """Raised after a run of flagged frames, cleared by the next valid one.
    A failed source or a restarted detector names its cause in ``reason``."""

    active: bool
    at_timestep: int
    reason: str = ""


@dataclass
class FlagStreak:
    """Per-bed run length of flagged frames."""

    warn_threshold: int = 5
    consecutive_flagged: int = 0

    def __post_init__(self) -> None:
        if self.warn_threshold < 1:
            raise ValueError(f"warn_threshold must be >= 1, got {self.warn_threshold}")

    @property
    def warning_active(self) -> bool:
        return self.consecutive_flagged >= self.warn_threshold


def parse_frame(line: str) -> RawFrame:
    """Split one wire record; no numeric conversion happens here."""
    record = line.rstrip("\r\n")
    if record == "":
        return RawFrame("", ())
    tokens = record.split(",")
    return RawFrame(tokens[0], tuple(tokens[1:]))


def _check_field(token: str, index: int, schema: ParameterSchema) -> float | FlagReason:
    """The field's value, or the reason it is flagged."""
    stripped = token.strip()
    if stripped == "" or stripped.lower() == "null":
        return FlagReason.NULL
    if stripped == "-":
        return FlagReason.HYPHEN
    if not DECIMAL_RE.fullmatch(stripped):
        return FlagReason.NON_NUMERIC
    value = float(stripped)
    if value == 0.0 and index not in schema.zero_ok:
        return FlagReason.ZERO
    if abs(value) > VALUE_LIMIT:
        return FlagReason.OVER_LIMIT
    return value


def validate(
    frame: RawFrame, expected_password: str, schema: ParameterSchema
) -> ValidationResult:
    """Screen one frame: password gate first, then per-field value checks."""
    if frame.password == "" and not frame.fields:
        # An empty line carries no password to judge; it is a shape problem.
        return ValidationResult(None, ((FRAME_FLAG, FlagReason.BAD_ARITY),))
    if frame.password != expected_password:
        return ValidationResult(None, ((FRAME_FLAG, FlagReason.BAD_PASSWORD),))
    if len(frame.fields) != schema.arity:
        return ValidationResult(None, ((FRAME_FLAG, FlagReason.BAD_ARITY),))
    flags = []
    values = []
    for i, token in enumerate(frame.fields):
        checked = _check_field(token, i, schema)
        if isinstance(checked, FlagReason):
            flags.append((i, checked))
        else:
            values.append(checked)
    if flags:
        return ValidationResult(None, tuple(flags))
    return ValidationResult(np.array(values), ())


def frame_matcher(
    password: str, schema: ParameterSchema
) -> Callable[[str], list[float] | None]:
    """The one-match screen for clean frames.

    The returned function takes a record (a line without its line ending)
    and returns its full-arity values when ``validate`` would pass the frame,
    else None. One compiled pattern checks the password, the arity and every
    field's notation (``DECIMAL_RE`` between optional blanks, as
    ``_check_field`` strips them); the zero and limit tests then run on the
    floats. A None says only that the frame is not clean: ``validate`` names
    why.
    """
    field = rf"\s*({DECIMAL_RE.pattern})\s*"
    # a frame's password token never holds a comma, so such a password
    # passes no frame
    head = "(?!)" if "," in password else re.escape(password)
    fullmatch = re.compile(",".join([head, *[field] * schema.arity])).fullmatch
    zero_checked = None  # None: every column, so test the whole list at once
    if schema.zero_ok:
        zero_checked = [i for i in range(schema.arity) if i not in schema.zero_ok]

    def match(record: str) -> list[float] | None:
        found = fullmatch(record)
        if found is None:
            return None
        values = list(map(float, found.groups()))
        if max(values) > VALUE_LIMIT or min(values) < -VALUE_LIMIT:
            return None
        if 0.0 in (values if zero_checked is None else [values[i] for i in zero_checked]):
            return None
        return values

    return match


def track(streak: FlagStreak, ok: bool, timestep: int) -> DataWarning | None:
    """Advance the per-bed streak by one frame, valid (``ok``) or flagged;
    returns a warning transition when one fires. Deterministic: the warning
    raises exactly when the run length reaches warn_threshold and clears on
    the first valid frame after."""
    if ok:
        cleared = streak.warning_active
        streak.consecutive_flagged = 0
        return DataWarning(active=False, at_timestep=timestep) if cleared else None
    streak.consecutive_flagged += 1
    if streak.consecutive_flagged == streak.warn_threshold:
        return DataWarning(active=True, at_timestep=timestep)
    return None


# -- frame archive ---------------------------------------------------------

def archive_header(schema: ParameterSchema) -> str:
    return ",".join(["bed", "timestep", "received_at", "flags", *schema.names])


def archive_row(
    bed: str,
    timestep: int,
    received_at: float,
    result: ValidationResult,
    frame: RawFrame,
    schema: ParameterSchema,
) -> str:
    """One append-only archive line; flagged frames keep their raw fields."""
    fields = list(frame.fields[: schema.arity])
    fields += [""] * (schema.arity - len(fields))
    return ",".join(
        [bed, str(timestep), f"{received_at:.3f}", result.flags_text(), *fields]
    )
