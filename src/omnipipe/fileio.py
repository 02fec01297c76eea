"""Small file helpers shared by the CLI and the frame-plan reader."""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

from .errors import FormatError

_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def json_value(value, type_):
    """Return a value parsed from JSON as type_, or raise FormatError.

    This is the one type rule for outside input: int takes an integral
    number, float a finite number, str a string, object any value. A bool is
    never a number. Text input (argv values, CSV cells) is parsed with
    type_ first and then checked by the same rule.
    """
    if type_ is object or (type(value) is type_ and (type_ is not float or math.isfinite(value))):
        return value
    if type_ is not str and type(value) in (int, float):
        try:
            converted = type_(value)
        except (OverflowError, ValueError):
            converted = None
        if converted == value and math.isfinite(converted):
            return converted
    shown = json.dumps(value)
    if len(shown) > 40:
        shown = shown[:37] + "..."
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
