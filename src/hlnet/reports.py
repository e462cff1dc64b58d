"""Report rows and byte-stable serialization (csv, json, aligned text).

Serializing the same rows twice gives identical bytes: CSV uses a fixed
line terminator, JSON keeps insertion key order, and the text layout is a
pure function of the cell contents.
"""

from __future__ import annotations

import csv
import io
import json

FORMATS = ("csv", "json", "text")

#: The keys of an experiment cell's row, in order, and the header of an empty report.
CELL_COLUMNS = ("n", "g", "formula_value", "construction_value", "oracle_value",
                "status", "elapsed_ms")


def emit_report(rows: "list[dict]", fmt: str) -> str:
    """Serialize rows, dicts keyed by the report's columns in order, to one of FORMATS."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    columns = list(rows[0]) if rows else list(CELL_COLUMNS)
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for d in rows:
            writer.writerow(["" if d[c] is None else d[c] for c in columns])
        return buf.getvalue()
    cells = [columns]
    cells += [[("-" if d[c] is None else str(d[c])) for c in columns] for d in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
        for row in cells
    )
