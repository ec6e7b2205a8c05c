"""The one CSV and JSON writer.

Every CSV and JSON file the package writes goes through `write_csv` or
`write_json`, so the format is decided here alone: CSV floats with 17
significant digits, which read back to the same double, and integer columns
in full; JSON indented by two spaces with a final newline.
"""
from __future__ import annotations

import json


def write_csv(path, header, blocks, int_columns: int = 0) -> None:
    """Write the header line, then each block of rows.

    A block is a flat list of Python numbers, row after row (for example
    `array.ravel().tolist()`), written with one `%` format call, so a caller
    can stream a large table block by block.  The first `int_columns`
    columns are written with %d, which keeps every digit; the rest with
    %.17g.
    """
    n = len(header)
    line = ",".join(["%d"] * int_columns + ["%.17g"] * (n - int_columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for values in blocks:
            fh.write(line * (len(values) // n) % tuple(values))


def write_json(path, doc) -> None:
    """Write `doc` as JSON, indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
