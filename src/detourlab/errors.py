"""Exception types shared across the package, the one JSON file reader, and the
strict number and string readers that every loader uses on parsed JSON."""

import json
import math
from pathlib import Path


class DetourlabError(Exception):
    """Base class for all library errors."""


class InputError(DetourlabError):
    """Invalid argument, malformed structure, or failed validation."""


class NoRouteError(DetourlabError):
    """Destination segment is unreachable from the origin segment."""


class MatchError(DetourlabError):
    """Map matching failed; ``point_index`` locates the offending GPS point."""

    def __init__(self, message: str, point_index: int | None = None):
        super().__init__(message)
        self.point_index = point_index


class FitError(DetourlabError):
    """Model fitting or evaluation is undefined for the given data."""


class DataFormatError(DetourlabError):
    """A persisted file is malformed; ``line`` locates the bad record."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


def read_json_file(path, what: str):
    """The parsed contents of the JSON file at ``path``.

    Every JSON loader reads its file here.  A missing file raises
    FileNotFoundError (the command-line exit code 2); text that is not JSON,
    or bytes that are not UTF-8, raise InputError (exit code 3).  ``what``
    names the file in either message.  The caller checks the fields.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{what} file {p} is not valid JSON: {exc}") from exc


def read_number(value, what: str) -> float:
    """A number read from parsed JSON, as a finite float, or an InputError.

    Every loader reads its numbers here.  A bool is not a number and a
    string is not parsed, so ``true`` or ``"60"`` in a file fails instead of
    loading as 1.0 or 60.0.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise InputError(f"{what} must be finite, got {value!r}")
    return number


def read_string(value, what: str) -> str:
    """A string read from parsed JSON, or an InputError.

    Every loader reads its ids and labels here, so ``false`` or ``7`` in a
    file fails instead of loading as ``'False'`` or ``'7'``.
    """
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value
