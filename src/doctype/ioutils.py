"""Small file helpers: canonical JSON, JSON number and key checks,
line-delimited JSON and atomic writes."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import IngestError


def canonical_json(obj) -> str:
    """Stable, byte-reproducible JSON encoding (sorted keys, no NaN)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def finite_number(value) -> bool:
    """An int or float, not a bool, within float range (so not NaN)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def number_array(values, shape: tuple, name: str) -> np.ndarray:
    """Nested lists of finite numbers as a float array of ``shape``, where
    None matches any length of at least 1. Anything else (a boolean, a
    string, a null, a ragged list) raises ValueError naming ``name``."""
    array = np.array(values, dtype=object)
    if (
        array.ndim == len(shape)
        and all(got == want or (want is None and got >= 1) for got, want in zip(array.shape, shape))
        and all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, array.flat)))
    ):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            numbers = array.astype(float)
            if np.isfinite(numbers).all():
                return numbers
    wanted = " x ".join("n" if want is None else str(want) for want in shape)
    raise ValueError(f"{name} must be {wanted} finite numbers")


def integer_array(values, n: int | None, name: str) -> np.ndarray:
    """A list of ``n`` integers (None: any number) as an intp array; anything
    else, a boolean or an integer out of range included, raises ValueError
    naming ``name``."""
    if isinstance(values, list) and n in (None, len(values)) and set(map(type, values)) <= {int}:
        with contextlib.suppress(OverflowError):
            return np.array(values, dtype=np.intp)
    raise ValueError(f"{name} must be {'n' if n is None else n} integers")


def known_keys(value, keys, name: str) -> Mapping:
    """``value`` if it is a JSON object holding no key outside ``keys``;
    anything else raises ValueError naming ``name`` (a missing key is left
    to the reader that needs it)."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be an object")
    if unknown := sorted(set(value) - set(keys)):
        raise ValueError(f"{name} holds unknown key {unknown[0]!r}")
    return value


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json_lines(
    source: Iterable[str] | Iterable[bytes], parse: Callable
) -> tuple[list, list[str]]:
    """``parse`` each non-blank JSON line of a ``str`` or UTF-8 ``bytes`` stream.

    One byte order mark (U+FEFF) at the start of line 1 is dropped.
    Returns the parsed values and one ``"line N: reason"`` per line that
    the JSON decoder or ``parse`` rejected. A stream that cannot be read
    or decoded raises IngestError.

    The cyclic garbage collector is paused during the read, and resumed
    only if it was running: decoded values and kept reject messages hold no
    cycles, yet each full pass walks every value kept. On a 30,000-line
    click log, three such passes took 0.56-0.78 s of a 1.6 s engagement job.
    """
    values, rejects = [], []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for number, line in enumerate(source, 1):
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if number == 1:
                line = line.removeprefix("\ufeff")
            if line.strip():
                try:
                    values.append(parse(json.loads(line)))
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                    rejects.append(f"line {number}: {reason}")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {getattr(source, 'name', 'input')}: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    return values, rejects


def read_json_lines_strict(source: Iterable[str] | Iterable[bytes], parse: Callable) -> list:
    """``read_json_lines`` where the first rejected line raises IngestError naming it."""
    values, rejects = read_json_lines(source, parse)
    if rejects:
        raise IngestError(f"{getattr(source, 'name', 'input')} {rejects[0]}")
    return values
