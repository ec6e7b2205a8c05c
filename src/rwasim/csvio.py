"""The one CSV and JSON writer.

Every CSV and JSON file the package writes goes through `write_csv` or
`write_json`, so the format is decided here alone: CSV floats with 17
significant digits, which read back to the same double, and integer columns
in full; JSON indented by two spaces with a final newline.  The two grid
columns of a table over grid_a x grid_b, such as the lookup map's v_a and
v_b, are floats too, but formatted once per grid value rather than once per
row: `grid_lead` makes their text and `write_csv` takes it with each block.
"""
from __future__ import annotations

import json

_FLOAT = "%.17g"


def write_csv(path, header, blocks, int_columns: int = 0) -> None:
    """Write the header line, then each block of rows.

    A block is a flat list of Python numbers, row after row (for example
    `array.ravel().tolist()`), written with one `%` format call, so a caller
    can stream a large table block by block.  The first `int_columns`
    columns are written with %d, which keeps every digit; the rest with
    %.17g.  A block may instead be a pair (lead, values): `lead` holds the
    text of each row's leading columns, as `grid_lead` made it, and `values`
    the row's remaining columns, flat, which are written with %.17g.
    """
    n = len(header)
    line = ",".join(["%d"] * int_columns + [_FLOAT] * (n - int_columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            if isinstance(block, tuple):
                lead, values = block
                rest = ",".join([""] + [_FLOAT] * (len(values) // len(lead))) + "\n"
                fh.write("".join([text + rest for text in lead]) % tuple(values))
            else:
                fh.write(line * (len(block) // n) % tuple(block))


def grid_lead(grid_a, grid_b):
    """For each point of grid_a in turn, the text of the two leading columns
    of its rows, that point then each point of grid_b, for `write_csv`.  Each
    grid value is formatted once, with %.17g as any float column."""
    b_texts = [_FLOAT % v for v in grid_b.tolist()]
    for a in grid_a.tolist():
        a_text = _FLOAT % a + ","
        yield [a_text + b for b in b_texts]


def write_json(path, doc) -> None:
    """Write `doc` as JSON, indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
