"""The package's CSV format: a header row, then one `repr(float)` per cell.

Rows end in "\\n" and no cell is quoted: the bytes the csv module writes for
the same cells.  `repr` round-trips every float64, NaN and signed zeros too.
`write_columns` is the one writer of every CSV the package emits.
"""

from __future__ import annotations

import csv

import numpy as np


#: rows rendered at a time: a long series never exists as Python floats whole
_CHUNK_ROWS = 1024


def write_columns(path, header, columns) -> None:
    """Write equal-length float columns under `header`.

    Each chunk of _CHUNK_ROWS rows is one `%` format of a per-row template
    ("%r,%r,…\\n" repeated) over the chunk's cells, stacked row by row, so no
    Python code runs per row or per cell and the series is never copied whole.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    row = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            cells = np.column_stack([col[lo : lo + _CHUNK_ROWS] for col in columns])
            fh.write(row * len(cells) % tuple(cells.ravel().tolist()))


def read_columns(path, n_columns: int) -> np.ndarray:
    """The first `n_columns` columns below the header, one array row each.

    The csv module parses the file, which may come from outside the package.
    An empty file or a non-numeric cell raises ValueError, a short row
    IndexError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"{path}: empty file, no header row")
        rows = [[float(row[k]) for k in range(n_columns)] for row in reader]
    return np.array(rows, dtype=float).reshape(-1, n_columns).T
