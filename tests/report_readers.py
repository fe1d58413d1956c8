"""Readers of the CSV reports that latticerl.reports writes.

The library writes its reports and never reads them back: these readers
serve the tests that check what it wrote.
"""

import csv

import numpy as np

from latticerl.reports import CurveWriter


def read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        entries = [(int(r["row"]), int(r["col"]), float(r["value"]))
                   for r in reader]
    n_rows = max(i for i, _, _ in entries) + 1
    n_cols = max(j for _, j, _ in entries) + 1
    out = np.zeros((n_rows, n_cols))
    for i, j, v in entries:
        out[i, j] = v
    return out


def read_curves(path) -> dict[str, np.ndarray]:
    """The columns of CurveWriter.COLUMNS that the file has, in that order;
    files written before the PPO statistics columns have seven."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        header = reader.fieldnames or []
    return {c: np.array([float(r[c]) for r in rows])
            for c in CurveWriter.COLUMNS if c in header}
