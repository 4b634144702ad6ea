"""Shared domain types, validation, the deterministic RNG contract, and the
text-file helpers that both the cone-program and the dataset formats use.

All types here are immutable after construction (backing arrays are marked
read-only) and safe to share across concurrent workers.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    IoError,
    OutOfRange,
    ParseError,
    RowNotNormalized,
    ShapeMismatch,
    ValidationError,
)

ROW_SUM_TOL = 1e-9
EXACT_FORMAT = "%.17g"  # 17 significant digits: enough for exact float64 round-trips
# PredictionTensor.blocks gathers about this many bytes of rows at a time
_BLOCK_BYTES = 1 << 20


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def is_number(v) -> bool:
    """True for a real number that is not a bool: no text, None or True passes."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_integer(v) -> bool:
    """True for a Python or numpy integer that is not a bool: 3.0 does not pass."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _numbers(values, what: str) -> np.ndarray:
    """``values`` as an array of bools, integers or floats; ValidationError for
    text, other objects or a ragged list."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged list
        a = None
    if a is None or a.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must be a rectangular array of numbers")
    return a


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64; ValidationError unless each is an integer (2.0 is one, True is not)."""
    a = _numbers(values, what)
    if a.dtype.kind == "b" or not np.all((np.abs(a) < 2.0**63) & (a == np.floor(a))):
        raise ValidationError(f"{what} must be integers")
    return a.astype(np.int64)


def mapped_zeros(shape, dtype=np.float64) -> np.ndarray:
    """Zero-filled array in an anonymous shared memory mapping of its own.

    Freeing the array unmaps it, so its pages go back to the operating system
    at once rather than staying in the allocator's heap; a forked child
    writes into the parent's array.  ``shape`` must hold at least one element.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(shape)


def validate_tensor(probs) -> None:
    """Check the invariants of a raw ``(M, N, C)`` array, raising on the first violation.

    Non-finite entries first, then entries outside [0, 1], then row sums off
    1 by more than ``ROW_SUM_TOL``, each pass a model at a time; each error
    names the first offending index in (model, sample) scan order.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3:
        raise ShapeMismatch(f"expected a 3-d (models, samples, classes) array, got ndim={probs.ndim}")
    num_models, num_samples, num_classes = probs.shape
    if num_models < 1 or num_samples < 1 or num_classes < 2:
        raise ShapeMismatch(
            f"need at least 1 model, 1 sample and 2 classes, got shape {probs.shape}"
        )
    for entry_ok in (np.isfinite, lambda model: (model >= 0.0) & (model <= 1.0)):
        for i, model in enumerate(probs):
            ok = entry_ok(model)
            if not ok.all():
                n, j = np.unravel_index(int(np.argmin(ok)), ok.shape)
                raise OutOfRange(i, int(n), int(j), float(model[n, j]))
    for i, model in enumerate(probs):
        sums = model.sum(axis=1)
        normalized = np.abs(sums - 1.0) <= ROW_SUM_TOL
        if not normalized.all():
            n = int(np.argmin(normalized))
            raise RowNotNormalized(i, n, float(sums[n]))


@dataclass(frozen=True)
class PredictionTensor:
    """Per-model, per-sample class-probability rows, shape (M, N, C).

    Rows are validated on construction (each row's sum may deviate from 1
    by at most ``ROW_SUM_TOL``) and stored as given, in a read-only copy of
    the caller's array; the generator, the dataset reader and ``subset``
    hand over the buffer they built instead (``_adopt``).
    """

    probs: np.ndarray

    def __post_init__(self, copy=True):
        probs = np.array(_numbers(self.probs, "probabilities"), dtype=np.float64, copy=copy)
        validate_tensor(probs)
        object.__setattr__(self, "probs", _as_readonly(probs))

    @classmethod
    def _adopt(cls, probs: np.ndarray) -> "PredictionTensor":
        """Tensor that takes over ``probs``, a float64 buffer nothing else uses."""
        t = object.__new__(cls)
        object.__setattr__(t, "probs", probs)
        t.__post_init__(copy=False)
        return t

    @property
    def num_models(self) -> int:
        return self.probs.shape[0]

    @property
    def num_samples(self) -> int:
        return self.probs.shape[1]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[2]

    def subset(self, sample_indices) -> "PredictionTensor":
        """Tensor restricted to the given sample indices, in the given order."""
        idx = np.asarray(sample_indices, dtype=np.int64)
        return PredictionTensor._adopt(self.probs.take(idx, axis=1))

    def blocks(self, sample_indices):
        """The given samples' rows as ``(span, block)`` pairs of about 1 MiB each.

        ``block`` is a fresh ``(M, b, C)`` array, gathered as ``subset`` does,
        that equals ``subset(sample_indices).probs[:, span]`` bit for bit, so
        a sum over the blocks never holds the subset whole.
        """
        idx = np.asarray(sample_indices, dtype=np.int64)
        step = max(1, _BLOCK_BYTES // (self.probs.itemsize * self.num_models * self.num_classes))
        for start in range(0, idx.size, step):
            block = self.probs.take(idx[start:start + step], axis=1)
            yield slice(start, start + block.shape[1]), block

    def classes(self, sample_indices) -> np.ndarray:
        """Class table of the given samples: each model's argmax class, ``(M, n)``.

        Equal to ``subset(sample_indices).probs.argmax(axis=2)``, built a block
        at a time; read-only, since every vote on the split reads it.
        """
        idx = np.asarray(sample_indices, dtype=np.int64)
        table = np.empty((self.num_models, idx.size), dtype=np.intp)
        for span, block in self.blocks(idx):
            table[:, span] = block.argmax(axis=2)
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class LabelVector:
    """Ground-truth class indices for N samples, each in [0, num_classes)."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        labels = _integers(self.labels, "labels")
        if labels.ndim != 1:
            raise ShapeMismatch(f"labels must be 1-d, got ndim={labels.ndim}")
        k = self.num_classes
        if not is_integer(k):
            raise ValidationError(f"num_classes must be an integer, got {k!r}")
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be >= 2, got {self.num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            bad = int(np.argmax((labels < 0) | (labels >= self.num_classes)))
            raise ValidationError(
                f"label {int(labels[bad])} at sample {bad} outside [0, {self.num_classes})"
            )
        object.__setattr__(self, "labels", _as_readonly(labels))

    @property
    def num_samples(self) -> int:
        return self.labels.shape[0]

    def one_hot(self) -> np.ndarray:
        """Indicator matrix of shape (N, num_classes); rows sum to exactly 1."""
        out = np.zeros((self.num_samples, self.num_classes))
        out[np.arange(self.num_samples), self.labels] = 1.0
        return out

    def subset(self, sample_indices) -> "LabelVector":
        idx = np.asarray(sample_indices, dtype=np.int64)
        return LabelVector(labels=self.labels[idx], num_classes=self.num_classes)


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/validation/test index sets over [0, N), each stored sorted."""

    train_indices: np.ndarray
    valid_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        for name in ("train_indices", "valid_indices", "test_indices"):
            idx = _integers(getattr(self, name), name)
            if idx.ndim != 1:
                raise ShapeMismatch(f"{name} must be 1-d")
            if idx.size and idx.min() < 0:
                raise ValidationError(f"{name} contains a negative index")
            index_set = np.unique(idx)
            if idx.size != index_set.size:
                raise ValidationError(f"{name} contains duplicate indices")
            object.__setattr__(self, name, _as_readonly(index_set))
        all_idx = np.concatenate([self.train_indices, self.valid_indices, self.test_indices])
        if all_idx.size != np.unique(all_idx).size:
            raise ValidationError("split index sets are not pairwise disjoint")

    def validate_against(self, num_samples: int) -> None:
        for name in ("train_indices", "valid_indices", "test_indices"):
            idx = getattr(self, name)
            if idx.size and idx.max() >= num_samples:
                raise ValidationError(
                    f"{name} contains index {int(idx.max())} >= num_samples {num_samples}"
                )

    def require(self, *names) -> None:
        """Raise ValidationError naming the first of the given splits that is empty."""
        for name in names:
            if getattr(self, f"{name}_indices").size == 0:
                raise ValidationError(f"the {name} split ({name}_indices) is empty")


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic random stream from a 64-bit seed.

    The generator algorithm is fixed as part of the external contract:
    Philox 4x64 (counter based), keyed through numpy's SeedSequence.
    Identical seeds yield bitwise-identical streams across runs and
    platforms; the first draws for seed 42 are frozen in the repository's
    golden file.
    """
    return np.random.Generator(np.random.Philox(seed))


def format_exact(x: float) -> str:
    """``x`` as text that reads back to the same float64."""
    return EXACT_FORMAT % float(x)


@contextmanager
def atomic_output(path, mode: str = "w"):
    """File opened in ``mode`` on a temp file that replaces path when the block ends.

    The temp file sits beside path and is created with mode 0o666 less the
    umask, as ``open()`` would create it, so the written file's mode follows
    the umask.  If the block raises, the temp file is removed and path is
    left as it was; an OSError becomes IoError.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f".tmp-io-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, chunks) -> None:
    """Write an iterable of strings to path via temp file + rename; IoError on OS failure."""
    with atomic_output(path) as fh:
        fh.writelines(chunks)


@contextmanager
def open_text(path):
    """Text file open for reading; IoError on OS failure, ParseError if it cannot be decoded."""
    path = os.fspath(path)
    try:
        with open(path, "r") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {path} as {exc.encoding}: {exc.reason}") from None


def read_text(path) -> str:
    """Whole text file, with the errors of ``open_text``."""
    with open_text(path) as fh:
        return fh.read()


def _ascii_number(token: str) -> str:
    """``token``; ValueError for the digit separators ('1_0') and non-ASCII
    digits that ``int`` and ``float`` take and no text file here holds."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return token


def parse_int(token: str, line: int, what: str, lo: int | None = None,
              hi: int | None = None) -> int:
    """Integer text field, optionally bounded to [lo, hi); ParseError names the line."""
    try:
        value = int(_ascii_number(token))
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line=line) from None
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ParseError(f"{what} must be {span}, got {value}", line=line)
    return value


def parse_float(token: str, line: int, what: str) -> float:
    """Float text field; ParseError names the line."""
    try:
        return float(_ascii_number(token))
    except ValueError:
        raise ParseError(f"{what} must be a number, got {token!r}", line=line) from None
