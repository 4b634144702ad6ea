"""Dataset and report files.

A dataset is a directory of three text files: ``manifest.txt`` (key-value
header with the shapes, the split index sets and a free-text provenance
line), ``predictions.csv`` (one row per model/sample pair with the class
probabilities) and ``labels.csv`` (one row per sample).  The format is
deliberately dumb so that any external training stack can produce it with
a few lines of code.

Reports are written either as ``json-text`` (the full PruneReport, loss-
lessly round-trippable) or ``csv-summary`` (a single row with the five
headline columns).  All writes go through a temp file and an atomic
rename, so a crashed writer never leaves a half-file that parses.

Floats are serialized with 17 significant digits, so the file carries the
exact double.  Loading a dataset re-runs the tensor constructor, whose row
renormalization can move entries by one ulp; values that already sum to
exactly 1 (like the shipped fixture) round-trip bit-for-bit.
"""

from __future__ import annotations

import array
import json
import math
import os
from dataclasses import asdict
from functools import partial
from itertools import chain

import numpy as np

from .core import (
    EXACT_FORMAT,
    LabelVector,
    PredictionTensor,
    SplitSpec,
    atomic_write_text,
    format_exact,
    open_text,
    parse_float,
    parse_int,
    read_text,
    validate_tensor,
)
from .errors import DomainError, IoError, ParseError, ShapeMismatch, VersionMismatch
from .pipeline import CellDiagnostic, PruneReport

DATA_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

FORMAT_JSON = "json-text"
FORMAT_CSV = "csv-summary"
REPORT_FORMATS = (FORMAT_JSON, FORMAT_CSV)

MANIFEST_NAME = "manifest.txt"
PREDICTIONS_NAME = "predictions.csv"
LABELS_NAME = "labels.csv"

_MANIFEST_MAGIC = "socprune-dataset"
_REPORT_KIND = "socprune-report"
_SPLIT_KEYS = ("train_indices", "valid_indices", "test_indices")

# one-row headline summary; the column set is part of the contract.
SUMMARY_COLUMNS = (
    "accuracy_full",
    "accuracy_pruned",
    "models_full",
    "models_pruned",
    "threshold",
)


def _format_ranges(indices) -> str:
    """Sorted index set as compact ranges: '0-4,7,9-11'; 'none' if empty."""
    idx = np.unique(np.asarray(indices, dtype=np.int64))
    if idx.size == 0:
        return "none"
    parts = []
    start = prev = int(idx[0])
    for v in idx[1:]:
        v = int(v)
        if v == prev + 1:
            prev = v
            continue
        parts.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = v
    parts.append(f"{start}-{prev}" if prev > start else f"{start}")
    return ",".join(parts)


def _parse_ranges(text: str, lineno: int, num_samples: int) -> np.ndarray:
    """Sample indices of a split line; each must lie in [0, num_samples)."""
    if text == "none":
        return np.empty(0, dtype=np.int64)
    out = []
    for token in text.split(","):
        first, sep, last = token.partition("-")
        what = f"index range {token!r}"
        a = parse_int(first, lineno, what, lo=0, hi=num_samples)
        b = parse_int(last, lineno, what, lo=a, hi=num_samples) if sep else a
        out.extend(range(a, b + 1))
    return np.asarray(out, dtype=np.int64)


def _parse_manifest(text: str) -> dict:
    # newline-translated text: only "\n" ends a line, and a final one opens no line
    lines = text.removesuffix("\n").split("\n")
    fields = {}
    saw_magic = False
    saw_end = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_magic:
            if line != _MANIFEST_MAGIC:
                raise ParseError(
                    f"not a dataset manifest (expected {_MANIFEST_MAGIC!r})", line=lineno
                )
            saw_magic = True
            continue
        if line == "end":
            saw_end = True
            break
        key, _, value = line.partition(" ")
        value = value.strip()
        if key in fields:
            raise ParseError(f"duplicate manifest key {key!r}", line=lineno)
        fields[key] = (value, lineno)
    if not saw_magic:
        raise ParseError("empty manifest", line=1)
    if not saw_end:
        raise ParseError("manifest is truncated (no 'end' line)", line=len(lines))

    def required(key):
        if key not in fields:
            raise ParseError(f"manifest is missing {key!r}", line=len(lines))
        return fields[key]

    version = parse_int(*required("format_version"), "format_version")
    if version != DATA_FORMAT_VERSION:
        raise VersionMismatch(
            f"dataset format_version {version} unsupported (expected {DATA_FORMAT_VERSION})"
        )

    out = {key: parse_int(*required(key), key, lo=1)
           for key in ("num_models", "num_samples", "num_classes")}
    # (text, line): read_predictions expands them once the labels confirm num_samples
    out.update((key, required(key)) for key in _SPLIT_KEYS)
    return out


def _predictions_header(num_classes: int) -> str:
    return "model_id,sample_id," + ",".join(f"p_{j}" for j in range(num_classes))


def write_predictions(path, t: PredictionTensor, y: LabelVector, splits: SplitSpec,
                      provenance: str = "") -> None:
    """Materialize a dataset directory (manifest + predictions + labels).

    Refuses to write tensors that would not read back: the tensor is
    validated first and the splits are checked against its sample count.
    """
    validate_tensor(t)
    if y.num_samples != t.num_samples:
        raise ShapeMismatch(
            f"labels cover {y.num_samples} samples, tensor has {t.num_samples}"
        )
    if y.num_classes != t.num_classes:
        raise ShapeMismatch(
            f"labels declare {y.num_classes} classes, tensor has {t.num_classes}"
        )
    splits.validate_against(t.num_samples)

    path = os.fspath(path)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create dataset directory {path}: {exc}") from exc

    manifest = [
        _MANIFEST_MAGIC,
        f"format_version {DATA_FORMAT_VERSION}",
        f"num_models {t.num_models}",
        f"num_samples {t.num_samples}",
        f"num_classes {t.num_classes}",
        f"provenance {' '.join(str(provenance).split())}",
        *(f"{key} {_format_ranges(getattr(splits, key))}" for key in _SPLIT_KEYS),
        "end",
    ]
    atomic_write_text(os.path.join(path, MANIFEST_NAME), ["\n".join(manifest) + "\n"])

    # one model per chunk: tolist() of the whole tensor would hold M*N*C floats
    row = "%d,%d," + ",".join([EXACT_FORMAT] * t.num_classes) + "\n"
    blocks = ("".join([row % (i, n, *p) for n, p in enumerate(t.probs[i].tolist())])
              for i in range(t.num_models))
    atomic_write_text(os.path.join(path, PREDICTIONS_NAME),
                      chain([_predictions_header(t.num_classes) + "\n"], blocks))

    labels = "".join(["%d,%d\n" % row for row in enumerate(y.labels.tolist())])
    atomic_write_text(os.path.join(path, LABELS_NAME), ["sample_id,label\n" + labels])


def _parse_floats(tokens, line, names):
    """A row's floats, converted in C; a bad token gets parse_float's ParseError."""
    try:
        return list(map(float, tokens))
    except ValueError:
        return [parse_float(tok, line, name) for tok, name in zip(tokens, names)]


def _read_table(path, header, width, bounds, parse_values, dtype, what):
    """One dataset CSV table as an array shaped (*bounds, width).

    The first line must have ``len(bounds) + width`` fields, then equal
    ``header()``.  Each row holds ``len(bounds)`` integer keys, the k-th in
    [0, bounds[k]), one row per key tuple, then ``width`` values that
    ``parse_values(tokens, line, names)`` converts.  Lines are streamed and
    buffers grow with the rows read, so no claimed size is allocated before
    the rows confirm it.  Empty lines are skipped; each ParseError names the
    line at fault.
    """
    num_keys = len(bounds)
    values = array.array(np.dtype(dtype).char)
    rows = {}  # flat key -> None; a dict keeps the rows' file order
    with open_text(path) as fh:
        names = next(fh, "").rstrip("\n").split(",")
        if len(names) != num_keys + width:
            raise ParseError(
                f"{what} header has {len(names)} fields, not {num_keys + width}", line=1)
        if ",".join(names) != header():
            raise ParseError(f"{what} header must be {header()!r}", line=1)
        key_names, value_names = names[:num_keys], names[num_keys:]

        def key_text(flat):
            key = []
            for bound in reversed(bounds):
                flat, k = divmod(flat, bound)
                key.append(k)
            return ", ".join(f"{name} {k}" for name, k in zip(key_names, reversed(key)))

        lineno = 1
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if parts == [""]:
                continue
            if len(parts) != len(names):
                raise ParseError(
                    f"{what} row has {len(parts)} fields, header has {len(names)}", line=lineno)
            flat = 0
            for tok, name, bound in zip(parts, key_names, bounds):
                flat = flat * bound + parse_int(tok, lineno, name, 0, bound)
            values.extend(parse_values(parts[num_keys:], lineno, value_names))
            if flat in rows:
                raise ParseError(f"duplicate {what} row for {key_text(flat)}", line=lineno)
            rows[flat] = None
    total = math.prod(bounds)
    if len(rows) < total:  # so the search below ends within len(rows) + 1 steps
        missing = next(k for k in range(total) if k not in rows)
        raise ParseError(f"no {what} row for {key_text(missing)}", line=lineno)
    order = np.fromiter(rows, np.int64, total)
    del rows  # free the key dict before the reordered copy
    out = np.empty((total, width), dtype=dtype)
    out[order] = np.frombuffer(values, dtype).reshape(total, width)
    return out.reshape(*bounds, width)


def read_predictions(path):
    """Load a dataset directory back into (tensor, labels, splits).

    Every parse failure points at the offending file line; shape claims in
    the manifest are cross-checked against both tables, and the loaded
    tensor goes through the full core validation (so a 0.7,0.7 row comes
    back as RowNotNormalized, not as silent garbage).
    """
    path = os.fspath(path)
    manifest = _parse_manifest(read_text(os.path.join(path, MANIFEST_NAME)))
    num_models = manifest["num_models"]
    num_samples = manifest["num_samples"]
    num_classes = manifest["num_classes"]

    def parse_labels(tokens, line, names):
        return [parse_int(tokens[0], line, names[0], lo=0, hi=num_classes)]

    labels = _read_table(os.path.join(path, LABELS_NAME), lambda: "sample_id,label", 1,
                         (num_samples,), parse_labels, np.int64, "labels")
    splits = SplitSpec(**{key: _parse_ranges(*manifest[key], num_samples) for key in _SPLIT_KEYS})
    probs = _read_table(os.path.join(path, PREDICTIONS_NAME),
                        partial(_predictions_header, num_classes), num_classes,
                        (num_models, num_samples), _parse_floats, np.float64, "predictions")

    t = PredictionTensor(probs=probs)
    y = LabelVector(labels=labels[:, 0], num_classes=num_classes)
    return t, y, splits


def cells_to_json(cells) -> list:
    """Grid cells as the JSON objects that reports and ``socprune cv`` print."""
    return [asdict(c) for c in cells]


def _report_to_dict(report: PruneReport) -> dict:
    return {
        "kind": _REPORT_KIND,
        "format_version": REPORT_FORMAT_VERSION,
        "best_alpha": report.best_alpha,
        "best_lambda": report.best_lambda,
        "threshold_used": report.threshold_used,
        "weights": [float(v) for v in report.weights],
        "selected": list(report.selected),
        "full_accuracy": report.full_accuracy,
        "pruned_accuracy": report.pruned_accuracy,
        "num_models_full": report.num_models_full,
        "num_models_pruned": report.num_models_pruned,
        "cells": cells_to_json(report.cells),
    }


def render_report(report: PruneReport, format: str = FORMAT_JSON) -> str:
    """Report as text in either format; what write_report puts on disk."""
    if format == FORMAT_JSON:
        # sort_keys pins the byte layout; allow_nan=False enforces the
        # no-NaN report contract at the boundary.
        return json.dumps(_report_to_dict(report), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    if format == FORMAT_CSV:
        values = (
            format_exact(report.full_accuracy),
            format_exact(report.pruned_accuracy),
            str(report.num_models_full),
            str(report.num_models_pruned),
            format_exact(report.threshold_used),
        )
        return ",".join(SUMMARY_COLUMNS) + "\n" + ",".join(values) + "\n"
    raise DomainError(f"unknown report format {format!r} (use {REPORT_FORMATS})")


def write_report(report: PruneReport, path, format: str = FORMAT_JSON) -> None:
    """Serialize a report; json-text is lossless, csv-summary is the headline row."""
    atomic_write_text(path, [render_report(report, format)])


def read_report(path) -> PruneReport:
    """Inverse of write_report for the json-text format."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(data, dict) or data.get("kind") != _REPORT_KIND:
        raise ParseError(f"not a {_REPORT_KIND} file")
    version = data.get("format_version")
    if version != REPORT_FORMAT_VERSION:
        raise VersionMismatch(
            f"report format_version {version} unsupported (expected {REPORT_FORMAT_VERSION})"
        )
    try:
        cells = tuple(
            CellDiagnostic(
                alpha=float(c["alpha"]),
                lam=float(c["lam"]),
                threshold=float(c["threshold"]),
                accuracy=float(c["accuracy"]),
                num_pruned=int(c["num_pruned"]),
                status=str(c["status"]),
            )
            for c in data["cells"]
        )
        return PruneReport(
            best_alpha=float(data["best_alpha"]),
            best_lambda=float(data["best_lambda"]),
            threshold_used=float(data["threshold_used"]),
            weights=np.asarray(data["weights"], dtype=np.float64),
            selected=tuple(int(i) for i in data["selected"]),
            full_accuracy=float(data["full_accuracy"]),
            pruned_accuracy=float(data["pruned_accuracy"]),
            num_models_full=int(data["num_models_full"]),
            num_models_pruned=int(data["num_models_pruned"]),
            cells=cells,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed report payload: {exc}") from None


def read_summary(path) -> dict:
    """Read back a csv-summary row as a plain dict."""
    lines = [line for line in read_text(path).split("\n") if line]
    if len(lines) != 2:
        raise ParseError(f"summary must be header + one row, got {len(lines)} lines")
    if tuple(lines[0].split(",")) != SUMMARY_COLUMNS:
        raise ParseError(f"summary header must be {','.join(SUMMARY_COLUMNS)}", line=1)
    parts = lines[1].split(",")
    if len(parts) != len(SUMMARY_COLUMNS):
        raise ParseError(f"summary row has {len(parts)} fields, expected 5", line=2)
    return {
        key: (parse_int if key.startswith("models") else parse_float)(value, 2, key)
        for key, value in zip(SUMMARY_COLUMNS, parts)
    }
