"""The package's CSV format: a header row, then one `repr(float)` per cell.

Rows end in "\\n" and no cell is quoted: the bytes the csv module writes for
the same cells.  `repr` round-trips every float64, NaN and signed zeros too.
"""

from __future__ import annotations

import csv

import numpy as np


def write_columns(path, header, columns) -> None:
    """Write equal-length float columns under `header`.

    Cells are rendered a column at a time, the last one with its line end,
    so no Python code runs per row.
    """
    *cols, last = [np.asarray(col, dtype=float).tolist() for col in columns]
    cells = [map(repr, col) for col in cols] + [map("{!r}\n".format, last)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(",".join, zip(*cells)))


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
