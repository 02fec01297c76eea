"""File helpers shared by the CLI and the frame-plan reader, and the one type
rule for outside input: ``exact`` on a column, ``json_value`` on one value."""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from pathlib import Path

from .errors import FormatError

_KINDS = {int: "a 64-bit integer", float: "a finite number", str: "a string"}
_INT64 = range(-(2**63), 2**63)
_SHOWN = 40  # characters of a rejected value that an error message shows


def _head(value, depth: int):
    """value cut to ``depth`` levels of nesting and ``_SHOWN`` items per
    container. Each container level and each item adds at least one character
    to the JSON text before what is cut, so its first ``_SHOWN`` characters
    are those of the whole value's, which may be too deep for json.dumps."""
    if isinstance(value, list):
        return [_head(v, depth - 1) for v in value[:_SHOWN]] if depth else None
    if isinstance(value, dict):
        items = itertools.islice(value.items(), _SHOWN)
        return {k: _head(v, depth - 1) for k, v in items} if depth else None
    return value


def exact(values: list, type_) -> bool:
    """The one type rule for outside input: whether every value is exactly
    of type_ (a bool is not an int) and in range. int takes the signed
    64-bit range, float a finite number, str a string, object any value."""
    if type_ is object or not values:
        return True
    if set(map(type, values)) != {type_}:
        return False
    if type_ is int:
        return min(values) in _INT64 and max(values) in _INT64
    return type_ is str or all(map(math.isfinite, values))


def json_value(value, type_):
    """Return a value parsed from JSON as type_, or raise FormatError.

    The one-value form of ``exact``: value itself when it passes, else the
    int or float it converts to without loss when that passes, so an
    integral float reads as an int and an int as a float.
    """
    if exact([value], type_):
        return value
    if type(value) in (int, float):
        try:
            converted = type_(value)
        except (OverflowError, ValueError):
            converted = None
        if converted == value and exact([converted], type_):
            return converted
    shown = json.dumps(_head(value, _SHOWN))
    if len(shown) > _SHOWN:
        shown = shown[: _SHOWN - 3] + "..."
    raise FormatError(f"must be {_KINDS[type_]}, got {shown}")


def atomic_write(path, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see a
    partially written file and repeated runs are byte-identical."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
