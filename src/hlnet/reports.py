"""Report rows and byte-stable serialization (csv, json, aligned text).

Serializing the same rows twice gives identical bytes: CSV uses a fixed
line terminator, JSON keeps insertion key order, and the text layout is a
pure function of the cell contents.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

FORMATS = ("csv", "json", "text")


@dataclass(frozen=True)
class ReportRow:
    """One experiment cell.  Values absent for a command stay None."""

    n: int
    g: int
    formula_value: "int | None"
    construction_value: "int | None"
    oracle_value: "int | None"
    status: str
    elapsed_ms: int = 0


def emit_report(rows, fmt: str) -> str:
    """Serialize rows (ReportRow or uniform dicts) to one of FORMATS."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    dicts = [asdict(r) if isinstance(r, ReportRow) else dict(r) for r in rows]
    columns = list(dicts[0]) if dicts else list(ReportRow.__dataclass_fields__)
    if fmt == "json":
        return json.dumps(dicts, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for d in dicts:
            writer.writerow(["" if d[c] is None else d[c] for c in columns])
        return buf.getvalue()
    cells = [[("-" if d[c] is None else str(d[c])) for c in columns] for d in dicts]
    widths = [
        max(len(columns[i]), max((len(row[i]) for row in cells), default=0))
        for i in range(len(columns))
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
