"""Deterministic CSV/JSON writers shared by the modules and the CLI.

Floats are written with 17 significant digits so identical configurations
produce byte-identical files.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Read a header row and rows of floats; a malformed row or byte raises InputError."""
    lines = Path(path).read_text(encoding="utf-8", errors="replace").rstrip().splitlines() or [""]
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric cell in {line!r}") from None
        if len(rows[-1]) != len(header):
            raise InputError(f"{path}:{lineno}: {len(rows[-1])} cells under {len(header)} columns")
    return header, rows


def write_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
