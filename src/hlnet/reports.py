"""Report rows and byte-stable serialization (csv, json, aligned text).

Serializing the same rows twice gives identical bytes: CSV uses a fixed
line terminator, JSON keeps insertion key order, and the text layout is a
pure function of the cell contents.
"""

from __future__ import annotations

import csv
import json
from functools import partial
from itertools import chain
from operator import is_not, itemgetter
from types import SimpleNamespace
from typing import Iterator

FORMATS = ("csv", "json", "text")

#: The keys of an experiment cell's row, in order, and the header of an empty report.
CELL_COLUMNS = ("n", "g", "formula_value", "construction_value", "oracle_value",
                "status", "elapsed_ms")


def emit_report(rows: "list[dict]", fmt: str) -> Iterator[str]:
    """Serialize rows (dicts keyed by their columns in order) to one of FORMATS,
    in pieces, each formatted as it is drawn; no format copies the rows."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    columns = list(rows[0]) if rows else list(CELL_COLUMNS)
    if fmt == "json":
        return chain(json.JSONEncoder(indent=2).iterencode(rows), ["\n"])
    if fmt == "csv":
        # writerow returns what its file's write returns: here, the line itself
        writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
        lines = (["" if d[c] is None else d[c] for c in columns] for d in rows)
        return map(writer.writerow, chain([columns], lines))
    # the widths come first, from the rows: "-" for None is never wider than a header
    present = partial(filter, partial(is_not, None))
    widths = [max(map(len, chain([c], map(str, present(map(itemgetter(c), rows))))))
              for c in columns]
    cells = ([("-" if d[c] is None else str(d[c])) for c in columns] for d in rows)
    return (
        "  ".join(map(str.ljust, row, widths)).rstrip() + "\n"
        for row in chain([columns], cells)
    )
