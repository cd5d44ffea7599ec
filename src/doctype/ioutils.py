"""Small file helpers: canonical JSON, line-delimited JSON and atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable

from .errors import IngestError


def canonical_json(obj) -> str:
    """Stable, byte-reproducible JSON encoding (sorted keys, no NaN)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


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


def read_json_lines(source: Iterable[str], parse: Callable) -> list:
    """``parse`` each non-blank JSON line; a line that fails raises IngestError naming it."""
    where = getattr(source, "name", "input")
    out = []
    for number, line in enumerate(source, 1):
        if line.strip():
            try:
                out.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise IngestError(f"{where} line {number}: {reason}") from exc
    return out
