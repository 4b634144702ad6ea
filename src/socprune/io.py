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

Floats are serialized with 17 significant digits, ``'%.17g'``, so the file
carries the exact double.  The predictions writer formats a block of rows
at a time in numpy: a double-double product of each value and a power of
ten gives its 17 digits, exactly or within a stated error bound.  A value
whose rounding that cannot settle (0, -0, 1, subnormal and tiny values, a
product too close to a tie or to a power of ten) is formatted on its own
by ``'%.17g' %``, so every value's text is ``format_exact``'s.  Loading a
dataset re-runs the tensor constructor, whose row renormalization can move
entries by one ulp; values that already sum to exactly 1 (like the shipped
fixture) round-trip bit-for-bit.

Dataset reads and writes use every CPU in the process's affinity mask
(``taskset`` restricts them): the predictions table is parsed or formatted
by one forked worker process per CPU.  The library forks, which matters to
a caller that holds threads: the child gets only the forking thread.  On
one CPU, for a table of one chunk, or where ``fork`` is unavailable, the
table is converted inline; the inline reader is also the one that reports
every defect in a table, so errors are the same either way.
"""

from __future__ import annotations

import array
import json
import math
import mmap
import os
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import asdict
from functools import cache, partial
from itertools import pairwise

import numpy as np

from .core import (
    EXACT_FORMAT,
    LabelVector,
    PredictionTensor,
    SplitSpec,
    atomic_output,
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

# a reader cuts the table's text into chunks of about this many bytes, a
# writer forks a worker per this many bytes of float64 values at most:
# small enough that an ingest-sized table spreads over every CPU, large
# enough that a table of a few rows stays inline
_CHUNK_BYTES = 4 << 20


def _workers(chunks: int) -> int:
    """Processes for ``chunks`` pieces of work: one per CPU the process may
    run on, at most one per chunk; 1 means run inline."""
    if chunks < 2 or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return 1
    import multiprocessing  # not at import time: set-up does not pay for it

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):  # a daemon may not fork workers
        return 1
    return min(cpus, chunks)


def _fork_map(fn, state, tasks, workers: int) -> list:
    """``[fn(state, task) for task in tasks]`` on ``workers`` forked processes.

    Forked, so ``state`` (a shared buffer, open files, a tensor) is
    inherited rather than pickled; only the results come back through a
    pipe, so they must stay small.  Each worker takes the next task nobody
    has taken.  No thread is started here: a pool's threads would add
    their allocator arenas to the reader's peak.  A worker's exception is
    raised here; a worker that exits without a result (a signal, the OOM
    killer, ``os._exit``) is an IoError naming its exit code.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    taken = ctx.Value("q", 0)
    procs = []
    try:
        for _ in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_fork_worker, args=(fn, state, tasks, taken, send))
            proc.start()
            procs.append((proc, recv))
            send.close()  # so a worker that dies is an EOFError, not a hang
        done = []
        for proc, recv in procs:
            try:
                done.append(recv.recv())
            except EOFError:  # the others still finish, so none writes to a closed pipe
                proc.join()
                done.append((IoError(f"a dataset I/O worker exited with code "
                                     f"{proc.exitcode} before sending its result"), None))
    finally:
        for proc, recv in procs:
            recv.close()  # before the join: a worker still sending gets EPIPE
            proc.join()
    results = [None] * len(tasks)
    for error, pairs in done:
        if error is not None:
            raise error
        for k, value in pairs:
            results[k] = value
    return results


def _fork_worker(fn, state, tasks, taken, send) -> None:
    pairs = []
    try:
        while True:
            with taken.get_lock():
                k = taken.value
                taken.value += 1
            if k >= len(tasks):
                break
            pairs.append((k, fn(state, tasks[k])))
        send.send((None, pairs))
    except Exception as exc:  # the parent raises it
        send.send((exc, None))


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


# The predictions writer's float formatter gives each value a slot of
# _SLOT bytes, laid out for both forms of '%.17g' on a value x in (0, 1):
#   0      '0' in fixed form, the first digit in exponent form
#   1      '.'
#   2-4    '000', the zeros after the point of fixed form
#   5-21   the 17 significant digits
#   22-23  'e-'
#   24-26  the decimal exponent's magnitude, in 3 digits
#   27     ',' (the block writes the row's '\n' over the last one)
# A keep-mask turns the bytes a value does not show into NULs, which one
# bytes.translate removes from the whole block.
_SLOT = 28
# values formatted at a time, in whole rows: enough to spread numpy's
# per-call cost, few enough to keep the writer's working set small
_BLOCK_VALUES = 4096
# x in [10**-e, 10**(1-e)) has 17 digits x * 10**(16 + e); the table has
# those powers for e in [1, _MAX_E] as split double-doubles.  10**300
# times Veltkamp's constant stays finite, 10**301 times it would not.
_MAX_E = 284
_SPLIT = 134217729.0  # 2**27 + 1: splits a double's 53-bit significand in two halves


@cache
def _format_tables():
    """The formatter's lookup tables, built on first use so that importing
    the package does not pay for them.

    Indexed by e in [0, 300]: the powers 10**(16 + e) as hi + lo, hi split
    in two, the form's keep-mask row less one, and slot bytes 24-27.
    Indexed by a 4-digit group: its ASCII digits and its trailing zeros.
    """
    # e outside [1, _MAX_E] goes the per-value way; its power only has to be finite
    powers = [10**(16 + min(max(e, 1), _MAX_E)) for e in range(301)]
    hi = np.array([float(p) for p in powers])  # int -> float rounds correctly
    lo = np.array([float(p - int(h)) for p, h in zip(powers, hi.tolist())])
    hi_hi = hi * _SPLIT - (hi * _SPLIT - hi)
    masks = np.zeros((4 * 17 + 2 * 17 + 2, _SLOT), dtype=np.uint8)
    for kept in range(1, 18):
        for zeros in range(4):  # fixed form: '0.', the zeros, the digits
            m = masks[zeros * 17 + kept - 1]
            m[:2 + zeros] = m[5:5 + kept] = 1
        for width in (2, 3):  # exponent form: 'd', '.ddd' if kept > 1, 'e-', exponent
            m = masks[4 * 17 + (width - 2) * 17 + kept - 1]
            m[0] = m[22:24] = m[27 - width:27] = 1
            if kept > 1:
                m[1] = m[6:5 + kept] = 1
    masks[-2, 0] = 1  # '0' or '1'
    masks[:, 27] = 1
    masks *= 0xFF
    masks[-1] = 0xFF  # a value formatted by '%': keep its bytes, drop its NUL padding
    form = np.zeros(301, dtype=np.int64)  # its mask row is form[e] + kept digits
    form[1:5] = np.arange(4) * 17 - 1
    form[5:100] = 4 * 17 - 1
    form[100:] = 5 * 17 - 1
    tails = np.frombuffer("".join(["%03d," % e for e in range(301)]).encode(), np.uint32)
    quads = np.frombuffer("".join(["%04d" % g for g in range(10**4)]).encode(), np.uint32)
    trailing = np.array([4] + [len(str(g)) - len(str(g).rstrip("0")) for g in range(1, 10**4)])
    return (hi, lo, hi_hi, hi - hi_hi, masks.view(np.uint32), form, tails,
            quads, trailing)


def _format_slots(x):
    """``EXACT_FORMAT % v`` for each value of ``x``, in (len(x), _SLOT) NUL-padded slots.

    For x in (0, 1) the 17 significant digits are D = x * 10**(16 + e)
    rounded half-even to an integer, with e = -floor(log10 x).  The
    product is a double-double: Dekker's exact product x * hi = p + err
    (Veltkamp splits of both factors), plus x * lo.  Every p with D in
    range is at least 10**16 > 2**53, so it is an integer and
    D = p + round(low), low = err + x * lo.

    For 16 + e <= 22, the power is a double, lo is 0 and p + low is
    exactly x * 10**(16 + e), so even an exact tie rounds right.
    Otherwise, with P = x * 10**(16 + e) < 10**17 + 1, |P - (p + low)| is
    at most the sum of
      - x * (10**(16 + e) - hi - lo), lo rounded: <= 2**-106 * P < 1.3e-15,
      - the rounding of x * lo, |x * lo| <= 2**-53 * P: <= 2**-106 * P,
      - the rounding of err + x * lo, |err| <= 8 (p < 2**57 has ulp 16)
        and |x * lo| < 12, a sum under 32: <= 2**-49 < 1.8e-15,
    so under 4.4e-15.  The fraction of low is exact, so where it is more
    than 2**-44 from 1/2 the rounding is the exact product's.

    D is in range, (10**16, 10**17), exactly when log10 put x in the
    right decade: a D of 10**16 can be the rounding of an x below 10**-e
    at the coarser step of the decade above, and 10**17 is a value that
    rounds up to a power of ten.  0 and 1 are written as one digit.  Every
    other value takes the per-value path, ``EXACT_FORMAT %``: -0,
    subnormal and tiny values (e > _MAX_E), undecided roundings and a D
    out of range.
    """
    hi, lo, hi_hi, hi_lo, masks, form, tails, quads, trailing = _format_tables()
    e = -np.floor(np.log10(np.maximum(x, 1e-300))).astype(np.int64)  # x in [0, 1]: e >= 0
    h_hi, h_lo = hi_hi.take(e), hi_lo.take(e)
    p = x * hi.take(e)
    x_hi = x * _SPLIT - (x * _SPLIT - x)
    x_lo = x - x_hi
    low = (((x_hi * h_hi - p) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo) + x * lo.take(e)
    whole = np.floor(low)
    frac = low - whole
    digits = p.astype(np.int64) + whole.astype(np.int64)
    digits += (frac > 0.5) | ((frac == 0.5) & (digits & 1 == 1))  # half-even
    slow = ((e < 1) | (e > _MAX_E) | (digits <= 10**16) | (digits >= 10**17)
            | ((e > 6) & (np.abs(frac - 0.5) <= 2.0**-44)))
    digits[slow] = 10**16 + 1  # their slots are overwritten; no trailing zeros to count

    slots = np.empty((x.size, _SLOT // 4), dtype=np.uint32)
    text = slots.view(np.uint8)
    groups = np.empty((x.size, 4), dtype=np.int64)  # digits 2-5, 6-9, 10-13, 14-17
    upper = digits // 10**8
    lower = digits - upper * 10**8
    first = upper // 10**8
    upper -= first * 10**8
    for k, half in ((0, upper), (2, lower)):
        groups[:, k] = half // 10**4
        groups[:, k + 1] = half - groups[:, k] * 10**4
    text[:, 6:22] = quads.take(groups).view(np.uint8)
    first += ord("0")
    text[:, 5] = first
    slots[:, 0] = np.frombuffer(b"0.00", np.uint32)
    text[:, 0] = np.where(e <= 4, ord("0"), first)
    text[:, 4] = ord("0")
    text[:, 22] = ord("e")
    text[:, 23] = ord("-")
    slots[:, 6] = tails.take(e)
    kept = 17 - trailing.take(groups[:, 3])
    rare = np.flatnonzero(groups[:, 3] == 0)  # 4 or more trailing zeros
    for k in (2, 1, 0):
        kept[rare] = 4 * k + 5 - trailing.take(groups[rare, k])
        rare = rare[groups[rare, k] == 0]
    rows = form.take(e) + kept
    rows[slow] = len(masks) - 1
    # 0 and 1 are common in float32 softmax tables: format them here too
    digit = (x == 1) | ((x == 0) & ~np.signbit(x))
    rows[digit] = len(masks) - 2
    slots &= masks.take(rows, axis=0)
    text[digit, 0] = np.where(x[digit] == 1, ord("1"), ord("0"))
    percent = np.flatnonzero(slow & ~digit)
    if percent.size:
        text[percent, :27] = np.frombuffer(b"".join(
            [(EXACT_FORMAT % v).encode().ljust(27, b"\0") for v in x[percent].tolist()]),
            np.uint8).reshape(-1, 27)
    return text


def _model_blocks(probs, models):
    """The predictions rows of each model in ``models``, as bytes, a block of rows at a time.

    Each block holds whole rows of about _BLOCK_VALUES values, so the
    writer never holds more than one block's text and slots.
    """
    num_samples, num_classes = probs.shape[1:]
    rows = max(1, _BLOCK_VALUES // num_classes)
    width = len(b"%d," % (num_samples - 1))
    keys = np.frombuffer(b"".join([(b"%d," % n).ljust(width, b"\0")
                                   for n in range(num_samples)]), np.uint8).reshape(-1, width)
    for i in models:
        model = np.frombuffer(b"%d," % i, np.uint8)
        start = model.size + width
        for n in range(0, num_samples, rows):
            values = probs[i, n:n + rows]
            block = np.empty((len(values), start + _SLOT * num_classes), dtype=np.uint8)
            block[:, :model.size] = model
            block[:, model.size:start] = keys[n:n + rows]
            block[:, start:] = _format_slots(values.ravel()).reshape(len(values), -1)
            block[:, -1] = ord("\n")
            yield block.tobytes().translate(None, b"\0")


def _write_part(probs, task) -> None:
    """Stream one contiguous range of models into a part file a worker inherited."""
    models, fd = task
    with open(fd, "wb", closefd=False) as fh:
        fh.writelines(_model_blocks(probs, models))


def _write_rows_parallel(target, header, probs, workers) -> None:
    """Write the predictions table with each worker formatting a range of models.

    Each worker writes its range to its own unnamed temp file in the
    dataset directory; the parent copies the header and the parts, in model
    order, into one temp file that atomically replaces ``target``.  Nothing
    but the temp file has a name, so a failure leaves no file behind.
    """
    num_models = probs.shape[0]
    bounds = [num_models * k // workers for k in range(workers + 1)]
    with atomic_output(target, "wb") as out, ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile(dir=os.path.dirname(target)))
                 for _ in range(workers)]
        tasks = [(range(a, b), part.fileno()) for (a, b), part in zip(pairwise(bounds), parts)]
        _fork_map(_write_part, probs, tasks, workers)
        out.write(header.encode())
        for part in parts:
            part.seek(0)
            shutil.copyfileobj(part, out, 1 << 20)


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

    target = os.path.join(path, PREDICTIONS_NAME)
    header = _predictions_header(t.num_classes) + "\n"
    workers = _workers(min(t.num_models, math.ceil(t.probs.nbytes / _CHUNK_BYTES)))
    if workers == 1:
        with atomic_output(target, "wb") as out:
            out.write(header.encode())
            out.writelines(_model_blocks(t.probs, range(t.num_models)))
    else:
        _write_rows_parallel(target, header, t.probs, workers)

    labels = "".join(["%d,%d\n" % row for row in enumerate(y.labels.tolist())])
    atomic_write_text(os.path.join(path, LABELS_NAME), ["sample_id,label\n" + labels])


def _parse_floats(tokens, line, names):
    """A row's floats, converted in C; a bad token gets parse_float's ParseError."""
    try:
        return list(map(float, tokens))
    except ValueError:
        return [parse_float(tok, line, name) for tok, name in zip(tokens, names)]


class _Table:
    """The layout of one dataset CSV table and the parser of its rows.

    ``names`` are the header's fields: ``len(bounds)`` integer keys, the k-th
    in [0, bounds[k]), then values that ``parse_values(tokens, line, names)``
    converts.  A table holds one row per key tuple.
    """

    def __init__(self, what, names, bounds, parse_values):
        self.what = what
        self.names = names
        self.bounds = bounds
        self.parse_values = parse_values

    def parse_row(self, line, lineno):
        """(flat key, values) of one line without its newline; None if it is empty."""
        parts = line.split(",")
        if parts == [""]:
            return None
        if len(parts) != len(self.names):
            raise ParseError(f"{self.what} row has {len(parts)} fields, "
                             f"header has {len(self.names)}", line=lineno)
        num_keys = len(self.bounds)
        flat = 0
        for tok, name, bound in zip(parts, self.names, self.bounds):
            flat = flat * bound + parse_int(tok, lineno, name, 0, bound)
        return flat, self.parse_values(parts[num_keys:], lineno, self.names[num_keys:])

    def key_text(self, flat):
        key = []
        for bound in reversed(self.bounds):
            flat, k = divmod(flat, bound)
            key.append(k)
        return ", ".join(f"{name} {k}" for name, k in zip(self.names, reversed(key)))


def _parse_chunk(state, span):
    """Keys, as int64 bytes, of the rows in one byte span of a table.

    Each row's values go straight into the shared buffer at the row's key.
    None at the first defect of any kind; the inline reader then names it.
    """
    path, table, out = state
    start, stop = span
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    if b"\r" in data:  # the inline reader's universal newlines decide these lines
        return None
    keys = array.array("q")
    try:
        for line in data.decode("ascii").split("\n"):
            row = table.parse_row(line, 0)
            if row is not None:
                flat, values = row
                out[flat] = values
                keys.append(flat)
    except (ParseError, UnicodeDecodeError):
        return None
    return keys.tobytes()


def _read_rows_parallel(path, table, out) -> bool:
    """Parse a table's rows in forked workers, writing each row into ``out``.

    The body is cut into chunks of about ``_CHUNK_BYTES``, each ending just
    after a newline.  True when the rows' keys are a permutation of
    range(len(out)).  False, with ``out`` partly written, at any defect, or
    when the table is to be read inline: one CPU, one chunk, no ``fork``, or
    a first line that is not the header in ASCII followed by a newline.
    """
    with open(path, "rb") as fh:
        if fh.readline() != (",".join(table.names) + "\n").encode():
            return False
        spans = []
        start, size = fh.tell(), os.fstat(fh.fileno()).st_size
        while start < size:
            fh.seek(min(start + _CHUNK_BYTES, size) - 1)
            fh.readline()
            spans.append((start, fh.tell()))
            start = fh.tell()
    workers = _workers(len(spans))
    if workers == 1:
        return False
    parts = _fork_map(_parse_chunk, (path, table, out), spans, workers)
    if None in parts:
        return False
    keys = np.frombuffer(b"".join(parts), np.int64)
    seen = np.zeros(len(out), dtype=bool)
    seen[keys] = True
    return keys.size == len(out) and bool(seen.all())


def _read_table(path, header, width, bounds, parse_values, dtype, what):
    """One dataset CSV table as an array shaped (*bounds, width).

    The first line must have ``len(bounds) + width`` fields, then equal
    ``header()``; the rows are those ``_Table`` describes.  The array is
    allocated only if the file is large enough to hold every row, at two
    bytes or more per field (its text and the comma or newline after it),
    so nothing is sized by a claimed count that the file cannot back.
    Rows are parsed in parallel when that is possible; any defect sends the
    table to the inline reader, which streams it line by line.  Empty lines
    are skipped; each ParseError names the line at fault.
    """
    total = math.prod(bounds)
    with open_text(path) as fh:
        names = next(fh, "").rstrip("\n").split(",")
        if len(names) != len(bounds) + width:
            raise ParseError(
                f"{what} header has {len(names)} fields, not {len(bounds) + width}", line=1)
        if ",".join(names) != header():
            raise ParseError(f"{what} header must be {header()!r}", line=1)
        table = _Table(what, names, bounds, parse_values)
        out = None
        if total * 2 * len(names) <= os.fstat(fh.fileno()).st_size:
            nbytes = total * width * np.dtype(dtype).itemsize
            # shared and anonymous, so forked workers write the rows in place
            out = np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(total, width)
            if _read_rows_parallel(path, table, out):
                return out.reshape(*bounds, width)
        rows = set()
        lineno = 1
        for lineno, line in enumerate(fh, start=2):
            row = table.parse_row(line.rstrip("\n"), lineno)
            if row is None:
                continue
            flat, values = row
            if flat in rows:
                raise ParseError(f"duplicate {what} row for {table.key_text(flat)}",
                                 line=lineno)
            rows.add(flat)
            if out is not None:  # None: the file is too small, so a row is missing
                out[flat] = values
    if len(rows) < total:  # so the search below ends within len(rows) + 1 steps
        missing = next(k for k in range(total) if k not in rows)
        raise ParseError(f"no {what} row for {table.key_text(missing)}", line=lineno)
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
