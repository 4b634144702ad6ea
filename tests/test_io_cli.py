"""Dataset/report serialization and the socprune command line."""

import hashlib
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from socprune import cli
from socprune import io as dataio
from socprune.conic import NONNEG_ORTHANT, QUADRATIC, ProgramBuilder, write_cone_program
from socprune.core import EXACT_FORMAT, LabelVector, PredictionTensor, SplitSpec, format_exact
from socprune.errors import (
    DomainError,
    IoError,
    OutOfRange,
    ParseError,
    RowNotNormalized,
    VersionMismatch,
)
from socprune.io import (
    FORMAT_CSV,
    SUMMARY_COLUMNS,
    atomic_write_text,
    read_predictions,
    read_report,
    read_summary,
    render_report,
    write_predictions,
    write_report,
)
from socprune.pipeline import CellDiagnostic, PruneReport
from socprune.solver import SolverSettings

from conftest import random_instance
from test_solver import lp_with_stored_zero_row

GOLDEN = Path(__file__).parent / "golden" / "tiny_dataset"

# exact dyadic probabilities; renormalization cannot move these
TINY_PROBS = np.array([
    [[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]],
    [[0.125, 0.875], [0.75, 0.25], [0.0, 1.0]],
])


def splits_of(t):
    """Every sample in the training split."""
    return SplitSpec(train_indices=np.arange(t.num_samples),
                     valid_indices=np.array([], dtype=np.int64),
                     test_indices=np.array([], dtype=np.int64))


def reference_tables(t, y):
    """The predictions and labels text, one format_exact call per value."""
    rows = ["model_id,sample_id," + ",".join(f"p_{j}" for j in range(t.num_classes))]
    for i in range(t.num_models):
        for n in range(t.num_samples):
            rows.append(f"{i},{n}," + ",".join(format_exact(v) for v in t.probs[i, n]))
    labels = ["sample_id,label"] + [f"{n},{int(k)}" for n, k in enumerate(y.labels)]
    return "\n".join(rows) + "\n", "\n".join(labels) + "\n"


def exact_ties(count, decades):
    """``count`` dyadic values in each decade [10**-e, 10**(1-e)), e in
    ``decades``, with 18 significant digits and a final 5: exact ties when
    rounded to 17 digits.

    odd * 2**-(e + 17) is odd * 5**(e + 17) / 10**(e + 17), whose digits
    are those of the odd multiple of 5 in the numerator; it has 18 of them
    for some odd only while 5**(e + 17) < 10**18, that is for e <= 8.
    """
    ties = []
    for e in decades:
        bits = e + 17
        first = -(-10**17 // 5**bits) | 1  # the least odd with 18 digits
        ties += [odd * 2.0**-bits for odd in range(first, first + 2 * count, 2)]
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5 and -math.floor(math.log10(x)) in decades
    return ties


def float32_softmax(rng, num_models, num_samples, num_classes):
    """Softmax rows computed in float32, widened, that sum to exactly 1.

    Entries below 2**-29 become 0 and the top entry takes what the others
    leave: every entry is then a multiple of 2**-52, so the sums are exact
    and PredictionTensor's renormalization leaves each row as it is.  Peaked
    rows come out as one 1 and zeros; a few entries are set to exact ties.
    """
    logits = rng.normal(scale=12.0, size=(num_models, num_samples, num_classes))
    logits = logits.astype(np.float32)
    p = np.exp(logits - logits.max(axis=2, keepdims=True))
    p = (p / p.sum(axis=2, keepdims=True)).astype(np.float64)
    p[p < 2.0**-29] = 0.0
    ties = exact_ties(2, (5, 7))
    p[:, 0, 1:1 + len(ties)] = ties
    p[:, 1, -1] = 0.0
    top = p.argmax(axis=2)[..., None]
    np.put_along_axis(p, top, 0.0, axis=2)
    np.put_along_axis(p, top, 1.0 - p.sum(axis=2, keepdims=True), axis=2)
    return p


class CountingFormat(str):
    """``EXACT_FORMAT`` that records each value it formats."""

    def __mod__(self, value):
        self.values.append(value)
        return str.__mod__(self, value)


def slot_text(values):
    """The writer's formatter on ``values``, a comma after each."""
    x = np.asarray(values, dtype=np.float64)
    return b"".join(dataio._format_slots(x[k:k + 4096]).tobytes().translate(None, b"\0")
                    for k in range(0, x.size, 4096))


def read_error(target):
    with pytest.raises(ParseError) as exc:
        read_predictions(target)
    return type(exc.value), str(exc.value), exc.value.line


class Forked:
    """Dataset I/O cut into chunks of a few bytes, spread over three forked
    workers whatever the host's CPU count; records whether each parallel
    read saw every row once."""

    def __init__(self, monkeypatch):
        self.reads = []
        self.maps = 0
        parallel_read, fork_map = dataio._read_rows_parallel, dataio._fork_map

        def read(*args):
            self.reads.append(parallel_read(*args))
            return self.reads[-1]

        def spread(*args):
            self.maps += 1
            return fork_map(*args)

        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(dataio, "_read_rows_parallel", read)
        monkeypatch.setattr(dataio, "_fork_map", spread)


def probs_bytes(path):
    return read_predictions(path)[0].probs.tobytes()


# how far a fresh interpreter's peak RSS rises above its RSS while it reads
# the dataset in argv[1]; a first read of the golden dataset through the
# forked path pays the one-time costs (importing multiprocessing) before.
# VmHWM, not ru_maxrss: the latter starts at the RSS of the forking parent.
READ_PEAK_SCRIPT = """
import sys
from socprune import io
def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key))
chunk, io._CHUNK_BYTES = io._CHUNK_BYTES, 4
io.read_predictions(sys.argv[2])
io._CHUNK_BYTES = chunk
before = status("VmRSS:")
io.read_predictions(sys.argv[1])
print(status("VmHWM:") - before)
"""


def rewrite(path, transform):
    text = path.read_text()
    path.write_text(transform(text))


def corrupted_copy(tmp_path, filename, transform):
    target = tmp_path / "dataset"
    shutil.copytree(GOLDEN, target)
    rewrite(target / filename, transform)
    return target


class TestDatasetRoundTrip:
    def test_golden_fixture_exact(self):
        t, y, splits = read_predictions(GOLDEN)
        assert np.array_equal(t.probs, TINY_PROBS)
        assert np.array_equal(y.labels, [1, 0, 1])
        assert np.array_equal(splits.train_indices, [0])
        assert np.array_equal(splits.valid_indices, [1])
        assert np.array_equal(splits.test_indices, [2])

    def test_random_round_trip(self, tmp_path, rng):
        t, y = random_instance(rng, 4, 25, 3)
        splits = SplitSpec(train_indices=np.arange(15),
                           valid_indices=np.arange(15, 20),
                           test_indices=np.arange(20, 25))
        write_predictions(tmp_path / "d", t, y, splits, provenance="round trip")
        t2, y2, s2 = read_predictions(tmp_path / "d")
        # constructor renormalization is idempotent only to the last bit,
        # so allow one ulp per entry
        assert np.max(np.abs(t2.probs - t.probs)) <= 2.0 ** -50
        assert np.array_equal(y2.labels, y.labels)
        assert np.array_equal(s2.train_indices, splits.train_indices)
        assert np.array_equal(s2.test_indices, splits.test_indices)

    def test_dyadic_round_trip_bit_exact(self, tmp_path):
        t, y, splits = read_predictions(GOLDEN)
        write_predictions(tmp_path / "d", t, y, splits)
        t2, _, _ = read_predictions(tmp_path / "d")
        assert np.array_equal(t2.probs, t.probs)

    def test_empty_lines_and_row_order_ignored(self, tmp_path, capsys):
        def shuffle(text):
            header, *rows = text.splitlines()
            rows = rows[::-1]
            return "\n".join([header, *rows[:2], "", *rows[2:]]) + "\n\n"

        # the golden dataset with LF line ends, and a copy with CRLF ones; a
        # form feed inside the provenance does not end the manifest line
        for newline in ("\n", "\r\n"):
            target = tmp_path / f"dataset-{len(newline)}"
            shutil.copytree(GOLDEN, target)
            for path in target.iterdir():
                text = path.read_text()
                if path.suffix == ".csv":
                    text = shuffle(text)
                else:
                    text = text.replace("provenance ", "provenance a\fnum_models 7 ")
                path.write_text(text, newline=newline)
            assert (b"\r\n" in (target / "labels.csv").read_bytes()) == (newline == "\r\n")
            t, y, _ = read_predictions(target)
            assert np.array_equal(t.probs, TINY_PROBS)
            assert np.array_equal(y.labels, [1, 0, 1])
            code, _, _ = run_cli(["check", str(target)], capsys)
            assert code == 0

    def test_writer_matches_per_value_reference(self, tmp_path, rng):
        special = [0.0, -0.0, 1.0, 5e-324, 1e-05, 0.1]
        edge = PredictionTensor(probs=np.array([
            [[0.0, -0.0, 1.0], [5e-324, 0.0, 1.0]],
            [[1e-05, 0.99999, 0.0], [0.1, 0.9, 0.0]],
        ]))
        assert all(np.any(edge.probs == v) for v in special) and np.signbit(edge.probs).any()
        assert [format_exact(v) for v in special] == [format(v, ".17g") for v in special]
        edge_labels = LabelVector(labels=np.array([2, 0]), num_classes=3)
        # rows that mix values formatted in numpy, exact 0s and 1s among
        # them, with ties that take the per-value path
        widened = PredictionTensor(probs=float32_softmax(rng, 3, 40, 6))
        assert (widened.probs == 0).any() and (widened.probs == 1).any()
        assert set(exact_ties(2, (5, 7))) <= set(widened.probs[:, 0].ravel())
        widened_labels = LabelVector(labels=rng.integers(0, 6, size=40), num_classes=6)
        inputs = [(edge, edge_labels), (widened, widened_labels)]
        for k, (t, y) in enumerate([*inputs, random_instance(rng, 3, 7, 4)]):
            target = tmp_path / f"d{k}"
            write_predictions(target, t, y, splits_of(t))
            predictions, labels = reference_tables(t, y)
            assert (target / "predictions.csv").read_bytes() == predictions.encode()
            assert (target / "labels.csv").read_bytes() == labels.encode()
        # the same bytes when each of three workers formats a range of models
        with pytest.MonkeyPatch.context() as mp:
            forked = Forked(mp)
            for k, (t, y) in enumerate([*inputs, random_instance(rng, 3, 7, 4)]):
                target = tmp_path / f"d{k}"
                write_predictions(target, t, y, splits_of(t))
                assert (target / "predictions.csv").read_bytes() == (
                    reference_tables(t, y)[0].encode())
            assert forked.maps == 3

    def test_formatter_matches_percent_format(self, monkeypatch):
        tiny = np.finfo(np.float64).smallest_normal
        powers = [10.0**-k for k in range(1, 21)]
        near_powers = [math.nextafter(x, to) for x in powers for to in (0.0, 1.0)]
        # doubles whose 17 digits round up to a power of ten: '%.17g' gives 1e-14 ...
        round_up = [1e-14, 1e-70, 1e-73, 1e-78, 1e-79, 1e-174, 1e-175, 1e-176, 1e-243]
        assert all((EXACT_FORMAT % x).startswith("1e-") for x in round_up)
        # exact ties: from a product that is exact (e <= 6) and one that is not
        ties = exact_ties(2, range(1, 9))
        edge = [0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), 5e-324, tiny, *powers,
                *near_powers, *round_up, 0.099999999999999999, 9.9999999999999995e-08, *ties]
        counted = CountingFormat(EXACT_FORMAT)
        counted.values = []
        monkeypatch.setattr(dataio, "EXACT_FORMAT", counted)
        assert slot_text(edge) == "".join([EXACT_FORMAT % x + "," for x in edge]).encode()
        # each of these took the per-value path: the fast one cannot decide them
        assert {5e-324, tiny, *ties[-4:]} <= set(counted.values)
        assert [math.copysign(1.0, x) for x in counted.values if x == 0] == [-1.0]
        assert not {1.0, *ties[:12]} & set(counted.values)  # exact products settle ties

        rng = np.random.default_rng(2027)
        logits = rng.normal(scale=4.0, size=(10**5, 10)).astype(np.float32)
        softmax = np.exp(logits - logits.max(axis=1, keepdims=True))
        for values in (rng.random(10**6), 10.0 ** rng.uniform(-300.0, 0.0, 10**6),
                       (softmax / softmax.sum(axis=1, keepdims=True)).astype(np.float64)):
            values = values.ravel()
            assert slot_text(values) == "".join(
                [EXACT_FORMAT % x + "," for x in values.tolist()]).encode()

    def test_streamed_io_peak_memory(self, tmp_path, rng):
        t, y = random_instance(rng, 10, 1000, 20)
        splits = SplitSpec(train_indices=np.arange(600),
                           valid_indices=np.arange(600, 800),
                           test_indices=np.arange(800, 1000))
        tracemalloc.start()
        try:
            write_predictions(tmp_path / "d", t, y, splits)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "d" / "predictions.csv").stat().st_size  # about 4.25 MB
        # the reader's rows sit in a shared mmap that forked workers fill,
        # which tracemalloc cannot see: measure the reading process's RSS
        env = {**os.environ, "PYTHONPATH": str(Path(dataio.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", READ_PEAK_SCRIPT, str(tmp_path / "d"), str(GOLDEN)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        read_peak = int(out.stdout)
        # neither direction holds the whole text: the writer one model's
        # rows, the reader one chunk or line plus the parsed values
        assert write_peak < size / 2
        assert read_peak < size

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
    def test_chunked_round_trip_matches_inline(self, tmp_path, rng, monkeypatch, cpus):
        t, y = random_instance(rng, 5, 9, 3)
        splits = splits_of(t)
        write_predictions(tmp_path / "inline", t, y, splits)
        t1, y1, _ = read_predictions(tmp_path / "inline")
        forked = Forked(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        write_predictions(tmp_path / "forked", t, y, splits)
        t2, y2, _ = read_predictions(tmp_path / "forked")
        for name in ("predictions.csv", "labels.csv", "manifest.txt"):
            assert ((tmp_path / "forked" / name).read_bytes()
                    == (tmp_path / "inline" / name).read_bytes())
        assert t2.probs.tobytes() == t1.probs.tobytes()
        assert y2.labels.tobytes() == y1.labels.tobytes()
        # one CPU: every table inline, no worker forked
        assert forked.maps == (0 if len(cpus) == 1 else 3)
        assert forked.reads == ([False, False] if len(cpus) == 1 else [True, True])

    def test_daemon_process_reads_inline(self, tmp_path, rng, monkeypatch):
        t, y = random_instance(rng, 5, 9, 3)
        write_predictions(tmp_path, t, y, splits_of(t))
        forked = Forked(monkeypatch)
        # a pool's worker is a daemon, and a daemon may not start processes
        with multiprocessing.get_context("fork").Pool(1) as pool:
            read = pool.apply_async(probs_bytes, (tmp_path,)).get(timeout=60)
            pool.close()
            pool.join()
        assert read == probs_bytes(tmp_path)
        assert forked.reads == [True, True]  # in this process only

    def test_write_rejects_inconsistent_shapes(self, tmp_path, rng):
        t, y = random_instance(rng, 2, 10, 3)
        bad_splits = SplitSpec(train_indices=np.arange(8),
                               valid_indices=np.array([8]),
                               test_indices=np.array([11]))
        with pytest.raises(Exception):
            write_predictions(tmp_path / "d", t, y, bad_splits)
        assert not (tmp_path / "d" / "manifest.txt").exists()


class TestDatasetErrors:
    def test_unnormalized_row(self, tmp_path):
        target = corrupted_copy(
            tmp_path, "predictions.csv",
            lambda s: s.replace("0.5,0.5", "0.69999999999999996,0.69999999999999996"))
        with pytest.raises(RowNotNormalized):
            read_predictions(target)

    def test_out_of_range_probability(self, tmp_path):
        target = corrupted_copy(
            tmp_path, "predictions.csv",
            lambda s: s.replace("0.5,0.5", "-0.5,1.5"))
        with pytest.raises(OutOfRange):
            read_predictions(target)

    def test_class_count_mismatch(self, tmp_path):
        target = corrupted_copy(
            tmp_path, "manifest.txt",
            lambda s: s.replace("num_classes 2", "num_classes 3"))
        with pytest.raises(ParseError) as exc:
            read_predictions(target)
        assert exc.value.line == 1  # header no longer matches the claim

    def test_version_mismatch(self, tmp_path):
        target = corrupted_copy(
            tmp_path, "manifest.txt",
            lambda s: s.replace("format_version 1", "format_version 2"))
        with pytest.raises(VersionMismatch):
            read_predictions(target)

    def test_truncated_manifest(self, tmp_path):
        target = corrupted_copy(
            tmp_path, "manifest.txt",
            lambda s: s.replace("end\n", ""))
        with pytest.raises(ParseError) as exc:
            read_predictions(target)
        assert "truncated" in str(exc.value)

    def test_short_prediction_row(self, tmp_path):
        target = corrupted_copy(
            tmp_path, "predictions.csv",
            lambda s: s.replace("0,1,0.5,0.5", "0,1,0.5"))
        with pytest.raises(ParseError) as exc:
            read_predictions(target)
        assert exc.value.line == 3

    def test_duplicate_prediction_row(self, tmp_path):
        def duplicate_last(text):
            lines = text.splitlines()
            return "\n".join(lines + [lines[-1]]) + "\n"

        target = corrupted_copy(tmp_path, "predictions.csv", duplicate_last)
        with pytest.raises(ParseError) as exc:
            read_predictions(target)
        assert "duplicate" in str(exc.value)

    def test_missing_prediction_row(self, tmp_path):
        def drop_last(text):
            return "\n".join(text.splitlines()[:-1]) + "\n"

        target = corrupted_copy(tmp_path, "predictions.csv", drop_last)
        with pytest.raises(ParseError) as exc:
            read_predictions(target)
        assert "no predictions row" in str(exc.value)

    def test_missing_label(self, tmp_path):
        target = corrupted_copy(
            tmp_path, "labels.csv",
            lambda s: s.replace("2,1\n", ""))
        with pytest.raises(ParseError) as exc:
            read_predictions(target)
        assert "no label" in str(exc.value)

    def test_bad_label_value(self, tmp_path):
        target = corrupted_copy(
            tmp_path, "labels.csv",
            lambda s: s.replace("1,0", "1,9"))
        with pytest.raises(ParseError) as exc:
            read_predictions(target)
        assert exc.value.line == 3

    @pytest.mark.parametrize("filename, old, new, line", [
        ("predictions.csv", "1,2,0,1", "2,2,0,1", 7),  # model_id out of range
        ("predictions.csv", "0,1,0.5,0.5", "0,3,0.5,0.5", 3),  # sample_id out of range
        ("predictions.csv", "1,0,0.125,0.875", "-1,0,0.125,0.875", 5),  # negative id
        ("predictions.csv", "0,1,0.5,0.5", "0,1.0,0.5,0.5", 3),  # non-integer id
        ("predictions.csv", "0,2,1,0", "0,2,1,zero", 4),  # non-numeric probability
        ("labels.csv", "2,1", "1,1", 4),  # duplicate label
        ("labels.csv", "2,1", "3,1", 4),  # sample_id out of range
        ("labels.csv", "1,0", "1,zero", 3),  # non-integer label
        ("manifest.txt", "test_indices 2", "test_indices 2,3", 9),  # index == num_samples
        ("manifest.txt", "valid_indices 1", "valid_indices 0-3", 8),  # range end == num_samples
        # shape claims no row confirms: the table's last line, with nothing sized by the claim
        ("manifest.txt", "num_samples 3", "num_samples 1000000000000", 4),
        ("manifest.txt", "num_models 2", "num_models 1000000000000", 7),
    ])
    def test_bad_row_names_its_line(self, tmp_path, capsys, monkeypatch, filename, old,
                                    new, line):
        target = corrupted_copy(
            tmp_path, filename, lambda s: s.replace(f"\n{old}\n", f"\n{new}\n"))
        error = read_error(target)
        assert error[2] == line
        code, _, err = run_cli(["check", str(target)], capsys)
        assert code == 2
        assert err.startswith(f"error: line {line}:")
        # a table read in chunks by forked workers reports the same error
        forked = Forked(monkeypatch)
        assert read_error(target) == error
        if filename != "manifest.txt":  # the bad table's forked read met the defect
            assert forked.reads == [True] * (filename == "predictions.csv") + [False]

    @pytest.mark.parametrize("edit, message", [
        # the first copy of row (0, 0) is in the first chunk, the second in the last
        (lambda rows: rows + [rows[0]], "duplicate predictions row for model_id 0, sample_id 0"),
        # row (1, 4) is in a middle chunk
        (lambda rows: rows[:9] + rows[10:], "no predictions row for model_id 1, sample_id 4"),
    ])
    def test_chunked_read_defect_reported_inline(self, tmp_path, rng, monkeypatch, edit,
                                                 message):
        t, y = random_instance(rng, 3, 5, 2)
        write_predictions(tmp_path, t, y, splits_of(t))
        header, *rows = (tmp_path / "predictions.csv").read_text().splitlines()
        (tmp_path / "predictions.csv").write_text("\n".join([header, *edit(rows)]) + "\n")
        error = read_error(tmp_path)
        assert error[1] == f"line {len(edit(rows)) + 1}: {message}"
        forked = Forked(monkeypatch)
        assert read_error(tmp_path) == error
        assert forked.reads == [True, False]  # labels, then predictions

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoError):
            read_predictions(tmp_path / "nope")


def sample_report():
    cells = (
        CellDiagnostic(alpha=0.2, lam=0.1, threshold=0.05, accuracy=0.75,
                       num_pruned=2, status="ok"),
        CellDiagnostic(alpha=0.2, lam=0.3, threshold=0.0, accuracy=0.5,
                       num_pruned=3, status="ok"),
    )
    return PruneReport(
        best_alpha=0.2, best_lambda=0.1, threshold_used=0.05,
        weights=np.array([0.5, 0.0, 0.25]), selected=(0, 2),
        full_accuracy=0.625, pruned_accuracy=0.75,
        num_models_full=3, num_models_pruned=2, cells=cells,
    )


class TestReportIO:
    def test_json_round_trip(self, tmp_path):
        report = sample_report()
        write_report(report, tmp_path / "r.json")
        assert read_report(tmp_path / "r.json") == report

    def test_csv_summary_shape(self):
        text = render_report(sample_report(), FORMAT_CSV)
        lines = text.splitlines()
        assert len(lines) == 2
        assert tuple(lines[0].split(",")) == SUMMARY_COLUMNS
        assert len(lines[1].split(",")) == 5

    def test_read_summary_values(self, tmp_path):
        write_report(sample_report(), tmp_path / "r.csv", FORMAT_CSV)
        summary = read_summary(tmp_path / "r.csv")
        assert summary == {
            "accuracy_full": 0.625,
            "accuracy_pruned": 0.75,
            "models_full": 3,
            "models_pruned": 2,
            "threshold": 0.05,
        }

    def test_report_version_check(self, tmp_path):
        write_report(sample_report(), tmp_path / "r.json")
        rewrite(tmp_path / "r.json",
                lambda s: s.replace('"format_version": 1', '"format_version": 7'))
        with pytest.raises(VersionMismatch):
            read_report(tmp_path / "r.json")

    def test_report_bad_json(self, tmp_path):
        (tmp_path / "r.json").write_text("{\n  broken\n")
        with pytest.raises(ParseError) as exc:
            read_report(tmp_path / "r.json")
        assert exc.value.line == 2

    def test_atomic_write_failure_cleans_up(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(IoError):
            atomic_write_text(tmp_path / "out.txt", ["payload"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", ["worker", "rename"])
    def test_chunked_write_failure_cleans_up(self, tmp_path, rng, monkeypatch, failure):
        t, y = random_instance(rng, 4, 6, 3)
        forked = Forked(monkeypatch)
        if failure == "worker":  # raised in the forked workers
            def refuse(probs, models):
                raise OSError("disk full")

            monkeypatch.setattr(dataio, "_model_blocks", refuse)
        else:  # raised in the parent once every part is written
            replace = os.replace

            def refuse(src, dst):
                if str(dst).endswith("predictions.csv"):
                    raise OSError("disk full")
                replace(src, dst)

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(IoError, match="disk full"):
            write_predictions(tmp_path, t, y, splits_of(t))
        assert forked.maps == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.txt"]

    @pytest.mark.parametrize("direction", ["read", "write"])
    def test_worker_exit_without_result_is_io_error(self, tmp_path, capsys, monkeypatch,
                                                    direction):
        # a worker killed by a signal or the OOM killer sends nothing either
        target = tmp_path / "d"
        if direction == "read":
            assert run_cli(gen_args(target), capsys)[0] == 0
        forked = Forked(monkeypatch)
        worker = "_parse_chunk" if direction == "read" else "_write_part"
        monkeypatch.setattr(dataio, worker, lambda state, task: os._exit(9))
        argv = ["check", str(target)] if direction == "read" else gen_args(target)
        code, _, err = run_cli(argv, capsys)
        assert code == 4
        assert "worker exited with code 9" in err
        assert forked.maps == 1
        if direction == "write":
            assert sorted(p.name for p in target.iterdir()) == ["manifest.txt"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_file_mode_follows_umask(self, tmp_path, rng, monkeypatch, umask, mode):
        t, y = random_instance(rng, 4, 6, 3)
        forked = Forked(monkeypatch)
        previous = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "out.txt", ["payload"])
            write_predictions(tmp_path / "d", t, y, splits_of(t))
        finally:
            os.umask(previous)
        assert forked.maps == 1
        for path in (tmp_path / "out.txt", tmp_path / "d" / "predictions.csv"):
            assert path.stat().st_mode & 0o777 == mode


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_args(out, seed=0):
    return ["gen", "--models", "6", "--samples", "80", "--classes", "3",
            "--acc-low", "0.45", "--acc-high", "0.8", "--seed", str(seed),
            "--out", str(out)]


def program_text(**replace):
    """A two-variable LP file with the named lines replaced."""
    lines = dict(vars="vars 2", eqs="eqs 1", objective="objective 1\n0 1",
                 cone="nonneg_orthant 2 0 1")
    lines.update(replace)
    return (f"socprune-cone-program 1\n{lines['vars']}\n{lines['eqs']}\n"
            f"{lines['objective']}\neq_entries 2\n0 0 1\n0 1 1\neq_rhs 1\n1\n"
            f"cones 1\n{lines['cone']}\nfree 0\nend\n")


class TestCli:
    def test_gen_and_check(self, tmp_path, capsys):
        code, _, _ = run_cli(gen_args(tmp_path / "d"), capsys)
        assert code == 0
        code, out, _ = run_cli(["check", str(tmp_path / "d")], capsys)
        assert code == 0
        assert out.strip() == ("ok: models=6 samples=80 classes=3 "
                               "train=48 valid=16 test=16")

    def test_fit_emits_weights(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d"), capsys)
        code, out, _ = run_cli(
            ["fit", str(tmp_path / "d"), "--alpha", "0.4", "--lambda", "0.1",
             "--simplex"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "socprune-weights"
        assert payload["alpha"] == 0.4 and payload["lambda"] == 0.1
        assert len(payload["weights"]) == 6
        assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-6)

    def test_cv_grid(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d"), capsys)
        code, out, _ = run_cli(
            ["cv", str(tmp_path / "d"), "--alpha", "0.3", "--simplex"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "socprune-cv"
        assert payload["best_alpha"] == 0.3
        assert len(payload["cells"]) == 5  # alpha pinned, lambda grid free

    def test_run_csv_to_file(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d"), capsys)
        out_file = tmp_path / "report.csv"
        code, out, _ = run_cli(
            ["run", str(tmp_path / "d"), "--simplex", "--format",
             "csv-summary", "--out", str(out_file)], capsys)
        assert code == 0 and out == ""
        summary = read_summary(out_file)
        assert summary["models_full"] == 6
        assert 1 <= summary["models_pruned"] <= 6

    def test_prune_single_cell(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d"), capsys)
        code, out, _ = run_cli(
            ["prune", str(tmp_path / "d"), "--threshold", "0.05", "--simplex"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "socprune-report"
        assert len(payload["cells"]) == 1
        assert payload["threshold_used"] == 0.05

    def test_solve_program_file(self, tmp_path, capsys):
        builder = ProgramBuilder()
        x = builder.add_variables(2)
        builder.add_cone(NONNEG_ORTHANT, x)
        builder.add_equality(x, [1.0, 1.0], 1.0)
        builder.set_objective(x[0], 1.0)
        write_cone_program(builder.build(), tmp_path / "p.sp")
        code, out, _ = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["objective"] == pytest.approx(0.0, abs=1e-6)

    def test_solve_unbounded_exit_code(self, tmp_path, capsys):
        builder = ProgramBuilder()
        x = builder.add_variable()
        builder.mark_free([x])
        builder.set_objective(x, -1.0)
        write_cone_program(builder.build(), tmp_path / "p.sp")
        code, out, _ = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert code == 3
        assert json.loads(out)["status"] == "unbounded"

    def test_solve_presolve_infeasible_emits_finite_json(self, tmp_path, capsys):
        write_cone_program(lp_with_stored_zero_row(), tmp_path / "p.sp")
        code, out, _ = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "infeasible"
        stats = [payload[key] for key in ("gap", "primal_residual", "dual_residual")]
        assert all(np.isfinite(stats))

    def test_tol_reaches_the_solver(self, tmp_path, capsys):
        # min x0 over the cone x0 >= ||(x1, x2)|| with x1 = 1, x2 = 2
        builder = ProgramBuilder()
        x = builder.add_variables(3)
        builder.add_cone(QUADRATIC, x)
        builder.add_equality([x[1]], [1.0], 1.0)
        builder.add_equality([x[2]], [1.0], 2.0)
        builder.set_objective(x[0], 1.0)
        path = str(tmp_path / "p.sp")
        write_cone_program(builder.build(), path)
        code, out, _ = run_cli(["solve", path], capsys)
        assert code == 0
        default = json.loads(out)
        code, out, _ = run_cli(["solve", path, "--tol", "1e-3"], capsys)
        assert code == 0
        loose = json.loads(out)
        assert loose["status"] == "optimal"
        assert loose["gap"] <= 1e-3
        assert loose["iterations"] < default["iterations"]
        with pytest.raises(DomainError):
            SolverSettings(tol=0.0)
        code, _, err = run_cli(["solve", path, "--tol", "0"], capsys)
        assert code == 2 and err.startswith("error:")

    def test_undecodable_labels_exit_2(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d"), capsys)
        with open(tmp_path / "d" / "labels.csv", "ab") as fh:
            fh.write(b"\xff\xfe\n")
        code, _, err = run_cli(["check", str(tmp_path / "d")], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_undecodable_program_exit_2(self, tmp_path, capsys):
        (tmp_path / "p.sp").write_bytes(b"\xff\xfe not a program\n")
        code, _, err = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("replace, line", [
        ({}, None),
        ({"vars": "vars"}, 2),
        ({"vars": "vars -1"}, 2),
        ({"eqs": "eqs -2"}, 3),
        ({"objective": "objective 2\n0 1.0\n0 -1.0"}, 6),  # repeated index
        ({"cone": "nonneg_orthant 2 0 2"}, 12),
        ({"cone": "nonneg_orthant 2 -1 1"}, 12),
        # more variables than the cones list; must fail before sizing arrays by it
        ({"vars": "vars 1000000000000", "cone": "nonneg_orthant 1 0"}, 2),
    ], ids=["valid", "bare_vars", "negative_vars", "negative_eqs", "repeated_objective",
            "cone_index_too_large", "negative_cone_index", "vars_beyond_cones"])
    def test_malformed_program_exit_2(self, tmp_path, capsys, replace, line):
        (tmp_path / "p.sp").write_text(program_text(**replace))
        code, _, err = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        if line is None:
            assert code == 0
        else:
            assert code == 2
            assert err.startswith(f"error: line {line}:")

    @pytest.mark.parametrize("argv", [
        ["run", "DATA", "--simplex", "--lambda", "nan"],
        ["prune", "DATA", "--simplex", "--lambda", "nan"],
        ["cv", "DATA", "--simplex", "--lambda", "nan"],
        ["fit", "DATA", "--simplex", "--lambda", "nan"],
        ["run", "DATA", "--threshold", "inf"],
        ["run", "DATA", "--tol", "inf"],
        ["solve", "PROGRAM", "--tol", "inf"],
        ["gen", "--sharpness", "nan", "--out", "NEW"],
        ["gen", "--sharpness", "inf", "--out", "NEW"],
    ], ids=["run_lambda_nan", "prune_lambda_nan", "cv_lambda_nan", "fit_lambda_nan",
            "threshold_inf", "run_tol_inf", "solve_tol_inf", "sharpness_nan",
            "sharpness_inf"])
    def test_non_finite_setting_exit_2(self, tmp_path, capsys, argv):
        run_cli(gen_args(tmp_path / "DATA"), capsys)
        (tmp_path / "PROGRAM").write_text(program_text())
        argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and "probability" not in err
        assert out == ""

    def test_missing_dataset_exit_4(self, tmp_path, capsys):
        code, _, err = run_cli(["check", str(tmp_path / "absent")], capsys)
        assert code == 4
        assert err.startswith("error:")

    def test_bad_dataset_exit_2(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d"), capsys)
        rewrite(tmp_path / "d" / "manifest.txt",
                lambda s: s.replace("num_models 6", "num_models six"))
        code, _, err = run_cli(["check", str(tmp_path / "d")], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_version_mismatch_exit_2(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d"), capsys)
        rewrite(tmp_path / "d" / "manifest.txt",
                lambda s: s.replace("format_version 1", "format_version 9"))
        code, _, _ = run_cli(["check", str(tmp_path / "d")], capsys)
        assert code == 2

    def test_solver_failure_exit_3(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d"), capsys)
        code, _, err = run_cli(
            ["fit", str(tmp_path / "d"), "--max-iters", "1"], capsys)
        assert code == 3
        assert err.startswith("error:")

    def test_gen_requires_out(self, capsys):
        code, _, err = run_cli(["gen"], capsys)
        assert code == 2
        assert "--out" in err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(tmp_path), "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "DATA", "--seed", "3"],
        ["gen", "--simplex", "--out", "DATA"],
        ["check", "DATA", "--alpha", "0.3"],
        ["fit", "DATA", "--vote", "weighted"],
        ["cv", "DATA", "--format", "csv-summary"],
        ["solve", "PROGRAM", "--lambda", "0.1"],
    ])
    def test_flags_a_subcommand_ignores_rejected(self, tmp_path, argv):
        argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_threshold_flags_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(tmp_path), "--threshold", "0.1",
                      "--auto-threshold"])
        assert exc.value.code == 2


class TestCliDeterminism:
    def test_gen_byte_identical(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "a", seed=3), capsys)
        run_cli(gen_args(tmp_path / "b", seed=3), capsys)
        for name in ("manifest.txt", "predictions.csv", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_gen_predictions_digest_at_benchmark_scale(self, tmp_path, capsys):
        # sha256 of the table that one '%.17g' format per value wrote for
        # the grid-simplex-m60 benchmark dataset at seed 1009 (12.8 MB)
        argv = ["gen", "--models", "60", "--samples", "1000", "--classes", "10",
                "--seed", "1009", "--out", str(tmp_path)]
        assert run_cli(argv, capsys)[0] == 0
        digest = hashlib.sha256((tmp_path / "predictions.csv").read_bytes()).hexdigest()
        assert digest == "d968e5b795c1c47ab4a269e6b5862806f3c9ff7d1afbd0dfba37024aca18078e"

    def test_run_byte_identical(self, tmp_path, capsys):
        run_cli(gen_args(tmp_path / "d", seed=5), capsys)
        argv = ["run", str(tmp_path / "d"), "--simplex", "--auto-threshold"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second and first

    def test_solve_byte_identical(self, tmp_path, capsys):
        builder = ProgramBuilder()
        x = builder.add_variables(2)
        builder.add_cone(NONNEG_ORTHANT, x)
        builder.add_equality(x, [1.0, 2.0], 2.0)
        builder.set_objective(x[0], 3.0)
        builder.set_objective(x[1], 1.0)
        write_cone_program(builder.build(), tmp_path / "p.sp")
        _, first, _ = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        _, second, _ = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert first == second and first
