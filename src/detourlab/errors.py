"""Exception types shared across the package, the one reader for each kind of
input, a JSON file (``read_json_file``) or a JSONL stream (``read_jsonl``), the
per-process cache of network and trip file parses (``read_file_once``), the
strict number, string and array readers every parser uses on the parsed JSON,
the one cut of a bad value shown in a message (``shown``), and the
non-negative rule that every config and schedule amount is checked by."""

import json
import math
from collections import OrderedDict
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


# bytes that are not UTF-8 or text that is not JSON (both ValueErrors), JSON
# nested too deep to parse, and a missing key, wrong type or failed check
_BAD_INPUT = (KeyError, TypeError, ValueError, RecursionError, InputError)

# JSON's names for the parsed value types, so that a message names what the file holds
_JSON_KINDS = {list: "an array", str: "a string", bool: "a boolean", int: "a number",
               float: "a number", type(None): "null"}


def _parse_object(data: bytes, parse):
    """``parse`` applied to the JSON object in the UTF-8 bytes ``data``."""
    value = json.loads(data.decode("utf-8"))
    if not isinstance(value, dict):
        raise InputError(f"expected a JSON object, got {_JSON_KINDS[type(value)]}")
    return parse(value)


def _reason(exc: Exception) -> str:
    """What went wrong, in the input's terms: a KeyError's text is only the key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def read_json_file(path, what: str, parse):
    """``parse`` applied to the JSON object in the UTF-8 file at ``path``.

    A missing path or a directory raises the OSError that opening it raises
    (command-line exit code 2); any other failure, a value that is not an
    object included, raises InputError naming ``what`` and the path (exit
    code 3).
    """
    return parse_json_bytes(Path(path).read_bytes(), path, what, parse)


def parse_json_bytes(data: bytes, path, what: str, parse):
    """``read_json_file`` on the bytes ``data`` already read from ``path``."""
    try:
        return _parse_object(data, parse)
    except _BAD_INPUT as exc:
        raise InputError(f"bad {what} file {path}: {_reason(exc)}") from exc


# Successful parses of network and trip files, keyed by (parser, file bytes),
# least recently used first.  Config, model and schedule files are not cached:
# a run config holds a mutable dict.
_PARSES: OrderedDict = OrderedDict()
_MAX_PARSES = 4


def read_file_once(path, parse):
    """``parse(data, path)`` for the bytes ``data`` of the file at ``path``.

    The file is read on every call.  ``parse`` runs only if it has not
    already parsed identical bytes in this process; otherwise its earlier
    result is returned, so that result must be one no caller can change.  A
    failed parse is not kept, so the same bytes fail the same way every
    time.  At most ``_MAX_PARSES`` parses are kept, the least recently used
    evicted first.
    """
    data = Path(path).read_bytes()
    key = (parse, data)
    value = _PARSES.get(key)
    if value is None:
        value = _PARSES[key] = parse(data, path)
        if len(_PARSES) > _MAX_PARSES:
            _PARSES.popitem(last=False)
    else:
        _PARSES.move_to_end(key)
    return value


def read_jsonl(lines, what: str, parse):
    """``(line number, parse(value))`` for each non-blank line of ``lines``.

    ``lines`` yields bytes (a binary file, or ``sys.stdin.buffer``), read one
    UTF-8 JSON object per line.  Any failure raises DataFormatError naming the line.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            value = _parse_object(line, parse)
        except _BAD_INPUT as exc:
            raise DataFormatError(f"{what}, line {lineno}: {_reason(exc)}",
                                  line=lineno) from exc
        yield lineno, value


_SHOWN_CHARS = 80  # the most characters of a bad value a message shows


def shown(text: str) -> str:
    """``text``, a bad value as a message shows it, cut to ``_SHOWN_CHARS``
    characters and ``...`` if longer, so a huge value makes a short message."""
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def read_number(value, what: str) -> float:
    """A number read from parsed JSON, as a finite float, or an InputError.

    Every loader reads its numbers here.  A bool is not a number and a
    string is not parsed, so ``true`` or ``"60"`` in a file fails instead of
    loading as 1.0 or 60.0.
    """
    number = value
    if type(value) is not float:  # JSON's 1.5 is an exact float and needs only the finite test
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"{what} must be a number, got {shown(repr(value))}")
        try:
            number = float(value)
        except OverflowError:  # an integer too large for a float
            number = math.inf
    if not math.isfinite(number):
        raise InputError(f"{what} must be finite, got {shown(repr(value))}")
    return number


def check_non_negative(name: str, value: float) -> None:
    """InputError unless the amount ``value`` named ``name`` is finite and non-negative.

    The one non-negative rule: the fit checks its ridge, and the run,
    simulation and fare configs their amounts, each when built.
    """
    if not (math.isfinite(value) and value >= 0.0):
        raise InputError(f"{name} must be finite and non-negative, got {value}")


def read_string(value, what: str) -> str:
    """A string read from parsed JSON, or an InputError.

    Every loader reads its ids and labels here, so ``false`` or ``7`` in a
    file fails instead of loading as ``'False'`` or ``'7'``.
    """
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {shown(repr(value))}")
    return value


def read_array(value, what: str) -> list:
    """An array read from parsed JSON, or an InputError.

    Every loader reads its arrays here, so a string or an object where an
    array belongs fails instead of loading as its characters or its keys.
    """
    if not isinstance(value, list):
        raise InputError(f"{what} must be an array, got {shown(repr(value))}")
    return value
