"""Output checks on prune jobs.

The accuracy check reads the dataset with its own parser and votes with its
own numpy majority vote, so a fault in socprune's reader or vote does not
hide itself.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
from socprune import io

DATASET_FILES = ("manifest.txt", "predictions.csv", "labels.csv")


def dataset_digest(directory) -> str:
    h = hashlib.sha256()
    for name in DATASET_FILES:
        with open(os.path.join(directory, name), "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def dataset_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in DATASET_FILES)


def check_report(path):
    """Parse the json-text report and require a byte-identical re-render.

    Returns (report, text); raises ValueError when the check fails.
    """
    with open(path) as fh:
        text = fh.read()
    report = io.read_report(path)
    if io.render_report(report, io.FORMAT_JSON) != text:
        raise ValueError("report does not re-render byte-identically")
    return report, text


def _ranges(text: str) -> np.ndarray:
    if text == "none":
        return np.empty(0, dtype=np.int64)
    out = []
    for token in text.split(","):
        lo, _, hi = token.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return np.asarray(out, dtype=np.int64)


def _table(path, width: int) -> np.ndarray:
    with open(path) as fh:
        fh.readline()  # header
        body = fh.read()
    values = np.fromstring(body.replace("\n", ","), sep=",")
    if values.size % width:
        raise ValueError(f"{path}: ragged table")
    return values.reshape(-1, width)


def read_votes(directory):
    """(casts[model, sample], labels, test indices) from a dataset directory."""
    fields = {}
    with open(os.path.join(directory, "manifest.txt")) as fh:
        for line in fh:
            key, _, value = line.strip().partition(" ")
            fields[key] = value
    m, n, c = (int(fields[k]) for k in ("num_models", "num_samples", "num_classes"))
    labels_table = _table(os.path.join(directory, "labels.csv"), 2)
    labels = np.full(n, -1, dtype=np.int64)
    labels[labels_table[:, 0].astype(np.int64)] = labels_table[:, 1].astype(np.int64)
    rows = _table(os.path.join(directory, "predictions.csv"), 2 + c)
    if rows.shape[0] != m * n or labels_table.shape[0] != n or (labels < 0).any():
        raise ValueError("dataset tables do not cover the manifest shape")
    casts = np.full((m, n), -1, dtype=np.int64)
    casts[rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)] = rows[:, 2:].argmax(axis=1)
    if (casts < 0).any():
        raise ValueError("predictions table misses a (model, sample) row")
    return casts, labels, _ranges(fields["test_indices"])


def majority_accuracy(casts, labels, test, members) -> float:
    """Test accuracy of a plain majority vote; ties go to the lowest class."""
    votes = casts[np.asarray(members)][:, test]
    counts = np.zeros((test.size, int(casts.max()) + 1), dtype=np.int64)
    np.add.at(counts, (np.broadcast_to(np.arange(test.size), votes.shape), votes), 1)
    return float(np.mean(counts.argmax(axis=1) == labels[test]))


def check_accuracies(directory, report) -> None:
    """Recompute full and pruned test accuracy; raise ValueError on mismatch."""
    casts, labels, test = read_votes(directory)
    full = majority_accuracy(casts, labels, test, range(casts.shape[0]))
    pruned = majority_accuracy(casts, labels, test, report.selected)
    if full != report.full_accuracy or pruned != report.pruned_accuracy:
        raise ValueError(
            f"accuracy mismatch: full {full} vs report {report.full_accuracy}, "
            f"pruned {pruned} vs report {report.pruned_accuracy}"
        )
