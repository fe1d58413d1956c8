"""CSV / JSON report persistence (comma delimiter, header row, LF endings)."""

import csv
import json

import numpy as np


def write_matrix_csv(path, matrix: np.ndarray):
    """Matrix in long form: columns row, col, value."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "col", "value"])
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                writer.writerow([i, j, repr(float(matrix[i, j]))])


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class CurveWriter:
    """Learning-curve CSV with a fixed column order: the fit row, the
    update's mean PPO statistics, and the wall clock last."""

    COLUMNS = ["update", "env_steps", "mean_episode_reward",
               "solved_fraction", "energy", "mean_entropy", "pg_loss",
               "value_loss", "approx_kl", "clip_fraction", "grad_norm",
               "wall_time_s"]

    def __init__(self, path):
        self.fh = open(path, "w", newline="\n")
        self.writer = csv.writer(self.fh, lineterminator="\n")
        self.writer.writerow(self.COLUMNS)

    def write_row(self, row: dict):
        self.writer.writerow([repr(row[c]) if isinstance(row[c], float)
                              else row[c] for c in self.COLUMNS])
        self.fh.flush()

    def close(self):
        self.fh.close()
