"""Dataset/report serialization and the socprune command line."""

import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from socprune import cli, pipeline
from socprune import io as dataio
from socprune.conic import NONNEG_ORTHANT, QUADRATIC, Cone, ConeProgram, write_cone_program
from socprune.core import EXACT_FORMAT, LabelVector, PredictionTensor, SplitSpec, format_exact
from socprune.errors import (
    DomainError,
    IoError,
    OutOfRange,
    ParseError,
    RowNotNormalized,
    SocpruneError,
    VersionMismatch,
)
from socprune.io import (
    FORMAT_CSV,
    SUMMARY_COLUMNS,
    atomic_write_text,
    read_predictions,
    read_report,
    render_report,
    write_predictions,
    write_report,
)
from socprune.pipeline import (
    CellDiagnostic,
    PruneReport,
    SyntheticSpec,
    generate_synthetic_ensemble,
)
from socprune.solver import SolverSettings

from conftest import no_warning_filter, one_iteration_solve, random_instance
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
    workers whatever the host's CPU count.  Records the worker count of each
    table read and of each table write (1: inline, no process forked), and
    every line that this process parses itself rather than a forked worker."""

    def __init__(self, monkeypatch):
        self.reads, self.writes, self.parsed = [], [], []
        fork_map, parse_row = dataio._fork_map, dataio._Table.parse_row

        def spread(fn, state, tasks, workers):
            (self.writes if fn is dataio._write_part else self.reads).append(workers)
            return fork_map(fn, state, tasks, workers)

        def parse(table, line, lineno):
            self.parsed.append((line, lineno))  # a forked worker appends to its own copy
            return parse_row(table, line, lineno)

        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(dataio, "_fork_map", spread)
        monkeypatch.setattr(dataio._Table, "parse_row", parse)

    @property
    def maps(self):
        """The number of reads and writes that forked workers."""
        return sum(workers > 1 for workers in self.reads + self.writes)


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


# reads the dataset in argv[1] with three forked workers, prints their PIDs
# once all have started, then sleeps where it would receive their results
STALLED_READ_SCRIPT = """
import multiprocessing, os, sys, time
from multiprocessing.connection import Connection
from socprune import io
def stall(self):
    print(*[proc.pid for proc in multiprocessing.active_children()], flush=True)
    time.sleep(600)
Connection.recv = stall
os.sched_getaffinity = lambda pid: {0, 1, 2}
io.read_predictions(sys.argv[1])
"""


# blocks scipy from import, then runs each command that solves: gen, run,
# prune, and solve on a pruning program the library wrote, in argv[1]
NO_SCIPY_SCRIPT = """
import os, sys
sys.modules["scipy"] = None
from socprune import (SyntheticSpec, build_pruning_socp, build_surrogate, cli,
                      generate_synthetic_ensemble, write_cone_program)
os.chdir(sys.argv[1])
t, y, _ = generate_synthetic_ensemble(SyntheticSpec(num_models=8, num_samples=200, num_classes=4))
program, _ = build_pruning_socp(build_surrogate(t, y), alpha=0.5, lam=0.05)
write_cone_program(program, "prune.sp")
print([cli.main(argv) for argv in (
    ["gen", "--models", "4", "--samples", "60", "--classes", "3", "--out", "d"],
    ["run", "d", "--simplex", "--format", "csv-summary", "--out", "run.csv"],
    ["prune", "d", "--out", "prune.json"],
    ["solve", "prune.sp", "--out", "sol.json"])])
"""


def running(pid):
    """Whether process ``pid`` exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def with_line_ends(source, target, newline, final):
    """A copy of dataset ``source`` whose lines end in ``newline``, the last
    one too if ``final``."""
    target.mkdir()
    for name in ("manifest.txt", "predictions.csv", "labels.csv"):
        lines = (source / name).read_text().splitlines()
        (target / name).write_bytes((newline.join(lines) + newline * final).encode())
    return target


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

        # the golden dataset with LF line ends, and copies with CRLF and CR
        # ones; a form feed inside the provenance does not end the manifest line
        for newline in ("\n", "\r\n", "\r"):
            target = tmp_path / f"dataset-{newline.encode().hex()}"
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
            # the same tables when each line is a chunk and forked workers parse them
            with pytest.MonkeyPatch.context() as mp:
                forked = Forked(mp)
                t, y, _ = read_predictions(target)
            assert np.array_equal(t.probs, TINY_PROBS)
            assert np.array_equal(y.labels, [1, 0, 1])
            assert forked.reads == [3]

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
        assert forked.maps == (0 if len(cpus) == 1 else 2)
        assert forked.writes == [len(cpus)] and forked.reads == [len(cpus)]

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
        assert forked.reads == [3]  # in this process only

    def test_labels_table_is_read_without_forking(self, tmp_path, rng, monkeypatch):
        t, y = random_instance(rng, 3, 40, 2)
        write_predictions(tmp_path, t, y, splits_of(t))
        forked = Forked(monkeypatch)
        spread, tables = dataio._fork_map, []

        def record(fn, state, tasks, workers):
            tables.append(os.path.basename(state[0]))
            return spread(fn, state, tasks, workers)

        monkeypatch.setattr(dataio, "_fork_map", record)
        assert read_predictions(tmp_path)[1].labels.tobytes() == y.labels.tobytes()
        # the labels table is dozens of 4-byte chunks, yet only the
        # predictions table forks; this process parses every labels row
        assert (tmp_path / "labels.csv").stat().st_size > 40 * 4
        assert tables == ["predictions.csv"] and forked.reads == [3]
        assert sum(line.count(",") == 1 for line, _ in forked.parsed) == 40

    def test_write_rejects_inconsistent_shapes(self, tmp_path, rng):
        t, y = random_instance(rng, 2, 10, 3)
        bad_splits = SplitSpec(train_indices=np.arange(8),
                               valid_indices=np.array([8]),
                               test_indices=np.array([11]))
        with pytest.raises(Exception):
            write_predictions(tmp_path / "d", t, y, bad_splits)
        assert not (tmp_path / "d" / "manifest.txt").exists()


class TestSpanEnds:
    """The reader ends each span at a line end that it finds in small windows
    read with os.pread, never mapping the file."""

    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_matches_a_search_of_the_whole_text(self, tmp_path, rng, monkeypatch, window):
        monkeypatch.setattr(dataio, "_WINDOW", window)
        alphabet = np.frombuffer(b"ab\r\n", np.uint8)
        path = tmp_path / "table"
        for _ in range(100):
            data = rng.choice(alphabet, size=int(rng.integers(1, 40))).tobytes()
            path.write_bytes(data)
            fd = os.open(path, os.O_RDONLY)
            try:
                for pos in range(len(data)):
                    found = re.compile(rb"\r\n?|\n").search(data, pos)
                    expected = found.end() if found else len(data)
                    assert dataio._line_end(fd, pos, len(data)) == expected
            finally:
                os.close(fd)

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=["inline", "forked"])
    @pytest.mark.parametrize("final", [True, False], ids=["final_newline", "no_final_newline"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_rows_and_errors_match_the_lf_table(self, tmp_path, monkeypatch, newline, final,
                                                cpus):
        lf = read_predictions(GOLDEN)
        bad = corrupted_copy(tmp_path / "lf", "predictions.csv",
                             lambda s: s.replace("1,1,0.75,", "1,1,zero,"))
        lf_error = read_error(bad)
        Forked(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        windows = []
        pread = os.pread

        def recording_pread(fd, length, offset):
            windows.append((length - 1, pread(fd, length, offset)))
            return windows[-1][1]

        monkeypatch.setattr(os, "pread", recording_pread)
        for window in (2, 3, 4, 5):
            monkeypatch.setattr(dataio, "_WINDOW", window)
            target = with_line_ends(GOLDEN, tmp_path / f"good-{window}", newline, final)
            t, y, splits = read_predictions(target)
            assert t.probs.tobytes() == lf[0].probs.tobytes()
            assert y.labels.tobytes() == lf[1].labels.tobytes()
            for key in ("train_indices", "valid_indices", "test_indices"):
                assert getattr(splits, key).tobytes() == getattr(lf[2], key).tobytes()
            target = with_line_ends(bad, tmp_path / f"bad-{window}", newline, final)
            assert read_error(target) == lf_error
        # the windows met every case: a line longer than a window, and a CR
        # ending a window, alone or with the LF that the next window starts with
        assert any(not re.search(rb"[\r\n]", w[:size]) for size, w in windows)
        ends = {w[size - 1:size + 1] for size, w in windows if len(w) > size}
        if newline == "\r\n":
            assert b"\r\n" in ends
        if newline == "\r":
            assert any(end[:1] == b"\r" for end in ends)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc/self/status")
    def test_reader_holds_the_tensor_once(self, tmp_path):
        # an ingest-sized dataset (87 MB of text, a 32 MB tensor): the reader
        # renormalizes the buffer its workers filled in place and maps no text
        t, y, splits = generate_synthetic_ensemble(
            SyntheticSpec(num_models=20, num_samples=2000, num_classes=100, seed=1))
        write_predictions(tmp_path / "d", t, y, splits)
        env = {**os.environ, "PYTHONPATH": str(Path(dataio.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", READ_PEAK_SCRIPT, str(tmp_path / "d"), str(GOLDEN)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        assert int(out.stdout) <= 1.3 * t.probs.nbytes


def read_outcome(target):
    """The tensor's bytes that reading a dataset gives, or its error's type, message and line."""
    try:
        return read_predictions(target)[0].probs.tobytes()
    except SocpruneError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def plain_dataset(target, rng, num_samples=8):
    """A gen-shaped dataset whose table also holds 0, 1, 5e-324 and 1e-300."""
    t, y, splits = generate_synthetic_ensemble(SyntheticSpec(
        num_models=3, num_samples=num_samples, num_classes=4, seed=int(rng.integers(10**6))))
    probs = t.probs.copy()
    probs[0, :3] = [[0.0, 0.0, 1.0, 0.0], [5e-324, 1e-300, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]]
    write_predictions(target, PredictionTensor(probs=probs), y, splits)
    return target


class TestPlainSpans:
    """np.loadtxt parses a plain LF span of the predictions table; every
    other span goes line by line, and both give the same tensor or error."""

    # field texts that float() or int() takes, that np.loadtxt may parse
    # otherwise or not at all, and that are no number
    FORMS = ["1.", ".5", "+.5", "1E5", "1e400", "5e-324", "1e-300", "0", "1", "-0", "00",
             "+1", "1.0", "1e0", "01", " 1", "1 ", "", "e5", "-", "0x1", "1_0", "nan", "inf",
             "1#x"]

    def variants(self, tmp_path, rng):
        """The seeded table, and copies with a field, a byte or line ends changed."""
        base = plain_dataset(tmp_path / "base", rng)
        text = (base / "predictions.csv").read_bytes()
        lines = text.split(b"\n")
        edits = [text]
        # an empty line, no line end after the last row and a missing row,
        # which names the table's last line
        edits.append(b"\n".join([*lines[:3], b"", *lines[3:-2]]))
        for line in (1, len(lines) // 2, len(lines) - 2):  # the first, a middle and the last row
            fields = lines[line].split(b",")
            for field in (0, 1, 2, len(fields) - 1):
                for form in self.FORMS:
                    edited = fields.copy()
                    edited[field] = form.encode()
                    edits.append(b"\n".join([*lines[:line], b",".join(edited),
                                             *lines[line + 1:]]))
        start = text.index(b"\n") + 1  # the header stays
        for _ in range(60):
            at = int(rng.integers(start, len(text)))
            byte = bytes([rng.choice(list(b"0123456789.,eE+-\n\r _x"))])
            edits.append(rng.choice([text[:at] + byte + text[at + 1:],  # replaced
                                     text[:at] + byte + text[at:],  # inserted
                                     text[:at] + text[at + 1:]]))  # deleted
        edits += [text.replace(b"\n", b"\r\n"), text[:-1], text + b"\n", text.replace(
            b"\n", b"\n\n", 2)]
        edits = [(base, edit) for edit in edits]
        # sample ids whose text is as long as their value's digits: '1e2' is 100
        wide = plain_dataset(tmp_path / "wide", rng, num_samples=120)
        text = (wide / "predictions.csv").read_bytes()
        edits += [(wide, text.replace(b"\n1,100,", b"\n1,%s," % form))
                  for form in (b"100", b"1e2", b"1E2", b"1.e2", b"+1e2")]
        targets = []
        for k, (source, edit) in enumerate(edits):
            targets.append(tmp_path / f"v{k}")
            shutil.copytree(source, targets[-1])
            (targets[-1] / "predictions.csv").write_bytes(edit)
        return targets

    @pytest.mark.parametrize("spans", ["one", "per_line", "forked"])
    def test_numpy_and_line_parser_agree(self, tmp_path, monkeypatch, spans):
        targets = self.variants(tmp_path, np.random.default_rng(23))
        if spans != "one":
            Forked(monkeypatch)  # a span per line
        if spans == "per_line":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        if spans == "forked":  # three workers fork for each table: a sample of the variants
            targets = targets[::10]
        plain = [read_outcome(target) for target in targets]
        monkeypatch.setattr(dataio, "_parse_plain", lambda data, table, out: None)
        assert [read_outcome(target) for target in targets] == plain
        assert isinstance(plain[0], bytes)
        if spans != "forked":  # the variants hold good tables and each kind of error
            assert sum(isinstance(outcome, bytes) for outcome in plain) > 20
            assert {outcome[0] for outcome in plain if not isinstance(outcome, bytes)} == {
                ParseError, OutOfRange, RowNotNormalized}

    @pytest.mark.parametrize("chunk", [4, 1 << 12, 1 << 18])
    def test_plain_table_never_reaches_the_line_parser(self, tmp_path, monkeypatch, chunk):
        t, y, splits = generate_synthetic_ensemble(
            SyntheticSpec(num_models=4, num_samples=300, num_classes=10, seed=1009))
        write_predictions(tmp_path / "lf", t, y, splits)
        crlf = with_line_ends(tmp_path / "lf", tmp_path / "crlf", "\r\n", True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_parse_plain", lambda data, table, out: None)
            expected = probs_bytes(tmp_path / "lf")
        forked = Forked(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", chunk)
        for target in (tmp_path / "lf", crlf):
            forked.parsed.clear()
            assert probs_bytes(target) == expected
            # only the labels table's 300 rows were parsed line by line
            assert len(forked.parsed) == 300
            assert all(line.count(",") == 1 for line, _ in forked.parsed)
        assert forked.reads == [1, 1]

    def test_inline_read_sets_no_warning_filter(self, tmp_path, rng, monkeypatch):
        # a span of empty lines is declined before np.loadtxt, whose one
        # warning, "input contained no data", it would be: no filter hides it
        target = plain_dataset(tmp_path / "d", rng)
        expected = probs_bytes(target)
        rewrite(target / "predictions.csv", lambda s: s.replace("\n", "\n" * 6))
        Forked(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with no_warning_filter():
            assert probs_bytes(target) == expected


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
        # Python literal forms that are no CSV number: int() and float() take them
        ("predictions.csv", "0,1,0.5,0.5", "0,0_1,0.5,0.5", 3),  # digit separator in an id
        ("predictions.csv", "0,1,0.5,0.5", "0,\uff11,0.5,0.5", 3),  # full-width digit id
        ("predictions.csv", "0,1,0.5,0.5", "0,1,0.5_0,0.5", 3),  # separator in a probability
        ("labels.csv", "1,0", "1,0_0", 3),  # digit separator in a label
        ("manifest.txt", "test_indices 2", "test_indices \uff12", 9),  # full-width index
        ("labels.csv", "2,1", "1,1", 4),  # duplicate label
        ("labels.csv", "2,1", "3,1", 4),  # sample_id out of range
        ("labels.csv", "1,0", "1,zero", 3),  # non-integer label
        ("manifest.txt", "test_indices 2", "test_indices 2,3", 9),  # index == num_samples
        ("manifest.txt", "valid_indices 1", "valid_indices 0-3", 8),  # range end == num_samples
        ("manifest.txt", "train_indices 0", "train_indices 0,0", 7),  # index repeated in a split
        ("manifest.txt", "valid_indices 1", "valid_indices 0", 8),  # index in two splits
        # shape claims no row confirms: the table's last line, with nothing sized by the claim
        ("manifest.txt", "num_samples 3", "num_samples 1000000000000", 4),
        ("manifest.txt", "num_models 2", "num_models 1000000000000", 7),
        # a class count no header confirms: line 1, with no header built from the claim
        ("manifest.txt", "num_classes 2", "num_classes 1000000000000", 1),
        ("manifest.txt", "num_classes 2", "num_classes 2\nnum_classes 2", 6),  # duplicate key
        ("manifest.txt", "num_classes 2", "", 10),  # missing key: the manifest's last line
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
        if filename != "manifest.txt":  # only the predictions table's read forks
            assert forked.reads == [3] * (filename == "predictions.csv")
            # this process's line parser stops at the line at fault
            assert forked.parsed[-1] == (new, line)

    @pytest.mark.parametrize("text, message", [
        ("socprune-datasets\nformat_version 1\n", "not a dataset manifest"),
        ("# a comment\n\n", "empty manifest"),
        ("", "empty manifest"),
    ], ids=["wrong_magic", "comment_only", "empty"])
    def test_manifest_without_magic_names_line_1(self, tmp_path, capsys, text, message):
        # the replacement pattern above edits one line between two others
        target = corrupted_copy(tmp_path, "manifest.txt", lambda s: text)
        _, error, line = read_error(target)
        assert line == 1 and message in error
        code, _, err = run_cli(["check", str(target)], capsys)
        assert code == 2
        assert err.startswith("error: line 1:")

    @pytest.mark.parametrize("edit, message", [
        # the first copy of row (0, 0) is in the first chunk, the second in the last
        (lambda rows: rows + [rows[0]], "duplicate predictions row for model_id 0, sample_id 0"),
        # row (1, 4) is in a middle chunk
        (lambda rows: rows[:9] + rows[10:], "no predictions row for model_id 1, sample_id 4"),
    ], ids=["duplicate", "missing"])
    def test_chunked_read_defect_named_by_the_line_parser(self, tmp_path, rng, monkeypatch,
                                                          edit, message):
        t, y = random_instance(rng, 3, 5, 2)
        write_predictions(tmp_path, t, y, splits_of(t))
        header, *rows = (tmp_path / "predictions.csv").read_text().splitlines()
        (tmp_path / "predictions.csv").write_text("\n".join([header, *edit(rows)]) + "\n")
        error = read_error(tmp_path)
        assert error[1] == f"line {len(edit(rows)) + 1}: {message}"
        forked = Forked(monkeypatch)
        assert read_error(tmp_path) == error
        assert forked.reads == [3]  # the predictions table only
        # every span was plain, but the workers' keys were not one per row: this
        # process's line parser read the 5 labels rows, then the predictions
        # table up to the line at fault
        assert [text.count(",") for text, _ in forked.parsed[:5]] == [1] * 5
        assert [lineno for _, lineno in forked.parsed[5:]] == list(range(2, error[2] + 1))

    def test_row_count_beyond_int64_is_parse_error(self, tmp_path):
        # this row's key would not fit the int64 keys that a table's spans return
        target = corrupted_copy(tmp_path, "manifest.txt",
                                lambda s: s.replace("num_models 2", f"num_models {10**19}"))
        rewrite(target / "predictions.csv",
                lambda s: s.replace("\n1,2,0,1\n", f"\n{9 * 10**18},2,0,1\n"))
        with pytest.raises(ParseError, match=f"predictions table cannot have {3 * 10**19} rows"):
            read_predictions(target)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoError):
            read_predictions(tmp_path / "nope")


def summary_of(text):
    """The csv-summary row as a dict, counts as int and the rest as float."""
    header, row = text.split("\n")[:2]
    assert tuple(header.split(",")) == SUMMARY_COLUMNS and text.count("\n") == 2
    return {key: (int if key.startswith("models") else float)(value)
            for key, value in zip(SUMMARY_COLUMNS, row.split(","), strict=True)}


def sample_report():
    cells = (
        CellDiagnostic(alpha=0.2, lam=0.1, threshold=0.05, accuracy=0.75,
                       num_pruned=2, status="ok"),
        CellDiagnostic(alpha=0.2, lam=0.3, threshold=0.0, accuracy=0.5,
                       num_pruned=3, status="ok"),
        CellDiagnostic(alpha=0.2, lam=0.5, threshold=-1.0, accuracy=-1.0,
                       num_pruned=0, status="failed: max_iters"),
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
        assert summary_of((tmp_path / "r.csv").read_text()) == {
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

    @pytest.mark.parametrize("content, message", [
        # json-text: sample_report's payload with one edit; the writer never
        # writes NaN, an infinity, a number as a string or a fractional count
        (lambda d: d.update(best_alpha=math.nan), "finite float, got nan"),
        (lambda d: d.update(threshold_used=math.inf), "finite float, got inf"),
        (lambda d: d["cells"][1].update(accuracy=-math.inf), "got -inf"),
        (lambda d: d.update(threshold_used="0.5"), "got '0.5'"),
        (lambda d: d["weights"].__setitem__(1, "nan"), "got 'nan'"),
        (lambda d: d["cells"][0].update(num_pruned=2.7), "finite int, got 2.7"),
        (lambda d: d["selected"].__setitem__(0, True), "finite int, got True"),
        (lambda d: d.update(num_models_full=10**400), "too large"),
        # a selected list, weight count or status that no run produces
        (lambda d: d.update(selected=[0, 7]), r"selected models \(0, 7\) must be"),
        (lambda d: d.update(selected=[2, 2]), "strictly ascending"),
        (lambda d: d.update(selected=[-1, 2]), r"indices in \[0, 3\)"),
        (lambda d: d.update(selected=[2, 0]), "strictly ascending"),
        (lambda d: d.update(weights=[0.5]), "1 weights for 3 models"),
        (lambda d: d["cells"][0].update(status=5), "expected a string, got 5"),
        (lambda d: d.update(num_models_pruned=1), "pruned model count must match"),
        (lambda d: d.update(kind="socprune-weights"), "not a socprune-report file"),
        (lambda d: d.pop("cells"), "malformed report payload: 'cells'"),
        # values outside the domain a run produces
        (lambda d: d.update(full_accuracy=2.5), "accuracies 2.5, 0.75 must lie in"),
        (lambda d: d.update(pruned_accuracy=-0.5), "accuracies 0.625, -0.5 must"),
        (lambda d: d.update(threshold_used=-1.0), r"\(0.2, 0.1, -1.0, 2\) are those"),
        (lambda d: d.update(best_alpha=7.0), r"\(7.0, 0.1, 0.05, 2\) are those"),
        (lambda d: d.update(best_lambda=-3.0), r"\(0.2, -3.0, 0.05, 2\) are those"),
        (lambda d: d["cells"][1].update(num_pruned=99), "keeps more than the 3 models"),
        (lambda d: d["cells"][1].update(status="banana"), "gives a 'banana' cell"),
        (lambda d: d["cells"][1].update(accuracy=3.0),
         "'ok' cell with threshold 0.0, accuracy 3.0"),
        (lambda d: d["cells"][1].update(status="failed: max_iters"),
         "'failed: max_iters' cell with threshold 0.0, accuracy 0.5 and 3 kept"),
        (lambda d: d["cells"][2].update(status="ok"), "'ok' cell with threshold -1.0"),
        (lambda d: d["cells"][1].update(alpha=7.0), "cell alpha 7.0 must lie in"),
        (lambda d: d["cells"][1].update(lam=-3.0), r"lambda -3.0 in \[0, 1\]"),
        (lambda d: d["cells"][1].update(lam=1.5), r"lambda 1.5 in \[0, 1\]"),
        (lambda d: d.update(cells=[]), "are those of no ok grid cell"),
        (lambda d: d.update(selected=[], num_models_pruned=0),
         r"selected models \(\) must be non-empty"),
        (lambda d: d.update(note="x"), r"unknown keys \['note'\]"),
        (lambda d: d["cells"][0].update(seed=3), r"unknown keys \['seed'\]"),
    ], ids=["nan", "infinity", "cell_infinity", "number_as_string", "nan_string_weight",
            "fractional_count", "bool_index", "huge_count", "selected_beyond_models",
            "selected_repeated", "selected_negative", "selected_descending", "weight_count",
            "status_number", "pruned_count", "wrong_kind", "missing_key",
            "full_accuracy_above_one", "pruned_accuracy_negative", "threshold_used_negative",
            "best_alpha_above_one", "best_lambda_negative", "cell_keeps_too_many",
            "cell_unknown_status", "cell_accuracy_above_one", "ok_cell_relabelled_failed",
            "failed_cell_relabelled_ok", "cell_alpha_above_one", "cell_lambda_negative",
            "cell_lambda_above_one", "no_cells", "nothing_selected", "unknown_key", "unknown_cell_key"])
    def test_value_never_written_is_parse_error(self, tmp_path, content, message):
        payload = json.loads(render_report(sample_report()))
        content(payload)
        (tmp_path / "r.json").write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=message):
            read_report(tmp_path / "r.json")

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads the workers' states from /proc")
    def test_killed_reader_leaves_no_worker(self, tmp_path, capsys):
        # each worker's keys (about 160 KB) overfill a 64 KiB pipe buffer, so a
        # worker that still held a read end of its pipe would block in write forever
        argv = ["gen", "--models", "60", "--samples", "1000", "--classes", "10",
                "--out", str(tmp_path)]
        assert run_cli(argv, capsys)[0] == 0
        env = {**os.environ, "PYTHONPATH": str(Path(dataio.__file__).parents[1])}
        reader = subprocess.Popen([sys.executable, "-c", STALLED_READ_SCRIPT, str(tmp_path)],
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
        with reader:
            pids = [int(pid) for pid in reader.stdout.readline().split()]
            reader.kill()
        assert len(pids) == 3
        deadline = time.monotonic() + 30
        try:
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(running, pids))
        finally:
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)

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
                 eq_entries="eq_entries 2\n0 0 1\n0 1 1", cones="cones 1",
                 cone="nonneg_orthant 2 0 1", free="free 0", end="end")
    lines.update(replace)
    return (f"socprune-cone-program 1\n{lines['vars']}\n{lines['eqs']}\n"
            f"{lines['objective']}\n{lines['eq_entries']}\neq_rhs 1\n1\n"
            f"{lines['cones']}\n{lines['cone']}\n{lines['free']}\n{lines['end']}\n")


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
        summary = summary_of(out_file.read_text())
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

    def test_weights_far_below_their_dual_slack_are_zero(self, tmp_path, capsys):
        # at lambda 0.99 the interior point leaves five weights of 7e-9 to
        # 2.3e-8, each below 1e-2 times its dual slack (1.8e-2 to 6.2e-2):
        # they are zeros, so the threshold search cannot keep members by them
        run_cli(gen_args(tmp_path / "d"), capsys)
        code, out, _ = run_cli(["fit", str(tmp_path / "d"), "--lambda", "0.99"], capsys)
        assert code == 0
        assert np.count_nonzero(json.loads(out)["weights"]) == 1
        code, out, _ = run_cli(["prune", str(tmp_path / "d"), "--lambda", "0.99"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["selected"] == [0]
        assert report["pruned_accuracy"] == 0.875

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the one runtime dependency: importing the CLI loads no
        # scipy module, and every solving command runs with scipy blocked
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        code = ("import sys, socprune.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout == "[]\n"
        out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout == "[0, 0, 0, 0]\n"
        assert json.loads((tmp_path / "sol.json").read_text())["status"] == "optimal"

    def test_solve_program_file(self, tmp_path, capsys):
        program = ConeProgram(num_vars=2, objective=[1, 0], eq_A=[[1, 1]], eq_b=[1],
                              cones=(Cone(NONNEG_ORTHANT, (0, 1)),), free_vars=())
        write_cone_program(program, tmp_path / "p.sp")
        code, out, _ = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["objective"] == pytest.approx(0.0, abs=1e-6)

    def test_solve_unbounded_exit_code(self, tmp_path, capsys):
        program = ConeProgram(num_vars=1, objective=[-1], eq_A=np.zeros((0, 1)), eq_b=[],
                              cones=(), free_vars=(0,))
        write_cone_program(program, tmp_path / "p.sp")
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

    def test_solve_overflow_exit_3_with_null_for_non_finite(self, tmp_path, capsys):
        # x's overflows: status numerical, and JSON has no NaN, so the gap is null
        program = ConeProgram(num_vars=2, objective=[1e200, 2e200], eq_A=np.zeros((0, 2)),
                              eq_b=[], cones=(Cone(NONNEG_ORTHANT, (0, 1)),), free_vars=())
        write_cone_program(program, tmp_path / "p.sp")
        code, out, err = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert code == 3 and err == ""
        payload = json.loads(out)
        assert payload["status"] == "numerical"
        assert payload["gap"] is None and payload["objective"] is None
        assert all(math.isfinite(v) for v in payload["x"] + payload["s"])

    def test_tol_reaches_the_solver(self, tmp_path, capsys):
        # min x0 over the cone x0 >= ||(x1, x2)|| with x1 = 1, x2 = 2
        program = ConeProgram(num_vars=3, objective=[1, 0, 0], eq_A=[[0, 1, 0], [0, 0, 1]],
                              eq_b=[1, 2], cones=(Cone(QUADRATIC, (0, 1, 2)),), free_vars=())
        path = str(tmp_path / "p.sp")
        write_cone_program(program, path)
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

    def test_undecodable_labels_exit_2(self, tmp_path, capsys, monkeypatch):
        # labels.csv fails in its header's read, predictions.csv in its last chunk's
        for name in ("labels.csv", "predictions.csv"):
            run_cli(gen_args(tmp_path / name), capsys)
            with open(tmp_path / name / name, "ab") as fh:
                fh.write(b"\xff\xfe\n")
            error = read_error(tmp_path / name)
            assert error[1].startswith(f"cannot decode {tmp_path / name / name} as ")
            code, _, err = run_cli(["check", str(tmp_path / name)], capsys)
            assert code == 2
            assert err == f"error: {error[1]}\n"
            with pytest.MonkeyPatch.context() as mp:
                forked = Forked(mp)
                assert read_error(tmp_path / name) == error
            assert forked.reads == ([] if name == "labels.csv" else [3])
        # a bad row before the undecodable byte is named first, as reading line by line names it
        table = tmp_path / "predictions.csv" / "predictions.csv"
        table.write_bytes(table.read_bytes().replace(b"\n0,1,", b"\n0,1,x", 1))
        error = read_error(tmp_path / "predictions.csv")
        assert error[1].startswith("line 3: p_0 must be a number, got 'x")
        Forked(monkeypatch)
        assert read_error(tmp_path / "predictions.csv") == error

    def test_undecodable_program_exit_2(self, tmp_path, capsys):
        (tmp_path / "p.sp").write_bytes(b"\xff\xfe not a program\n")
        code, _, err = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("replace, error", [
        ({}, None),
        ({"vars": "vars"}, "line 2: expected 'vars <count>'"),
        ({"vars": "vars -1"}, "line 2: vars count must be >= 0"),
        ({"eqs": "eqs -2"}, "line 3: eqs count must be >= 0"),
        ({"objective": "objective 2\n0 1.0\n0 -1.0"}, "line 6: objective index 0 repeated"),
        ({"cone": "nonneg_orthant 2 0 2"}, "line 12: cone index must be in [0, 2)"),
        ({"cone": "nonneg_orthant 2 -1 1"}, "line 12: cone index must be in [0, 2)"),
        ({"eq_entries": "eq_entries 2\n0 0 1\n0 2 1"}, "line 8: equality column must be in [0, 2)"),
        ({"eq_entries": "eq_entries 2\n0 0 1\n0 -1 1"}, "line 8: equality column must be in [0, 2)"),
        # more variables than the cones list; must fail before sizing arrays by it
        ({"vars": "vars 1000000000000", "cone": "nonneg_orthant 1 0"},
         "line 2: vars 1000000000000 exceeds"),
        ({"eqs": "equations 1"}, "line 3: expected 'eqs', got 'equations'"),
        ({"eqs": "eqs 2"}, "line 9: eq_rhs count 1 disagrees with 2"),
        ({"objective": "objective 1\n0 1 2"}, "line 5: objective line needs 2 fields, got 3"),
        ({"cone": "nonneg_orthant 2"}, "line 12: cone line needs 'kind dim indices...'"),
        ({"cone": "nonneg_orthant 3 0 1"}, "line 12: cone lists 2 indices but dim 3"),
        # Cone's own checks, reported on the cone's line
        ({"cone": "simplex 2 0 1"}, "line 12: unknown cone kind 'simplex'"),
        ({"cone": "nonneg_orthant 2 1 1"}, "line 12: cone lists a variable twice"),
        ({"cone": "rotated_quadratic 2 0 1"}, "line 12: rotated quadratic cone needs dim >= 3"),
        # ConeProgram's check that each variable is in exactly one cone or the
        # free set, reported on the 'end' line
        ({"cones": "cones 2", "cone": "nonneg_orthant 2 0 1\nnonneg_orthant 1 1"},
         "line 15: structurally invalid program: variable 1 appears in 2"),
        ({"vars": "vars 3", "cone": "nonneg_orthant 2 0 2", "free": "free 1\n2"},
         "line 15: structurally invalid program: variable 1 appears in 0"),
        ({"end": "fin"}, "line 14: expected 'end', got 'fin'"),
        # Python literal forms that are no number here: int() and float() take them
        ({"vars": "vars 1_0"}, "line 2: vars count must be an integer, got '1_0'"),
        ({"objective": "objective 1\n0 1_0"},
         "line 5: objective coefficient must be a number, got '1_0'"),
        ({"cone": "nonneg_orthant \uff12 0 1"}, "line 12: cone dim must be an integer"),
    ], ids=["valid", "bare_vars", "negative_vars", "negative_eqs", "repeated_objective",
            "cone_index_too_large", "negative_cone_index", "eq_column_too_large",
            "negative_eq_column", "vars_beyond_cones",
            "wrong_keyword", "rhs_count", "field_count", "short_cone_line", "cone_dim",
            "unknown_cone_kind", "repeated_cone_index", "rotated_dim_2", "var_in_two_cones",
            "var_in_no_cone", "missing_end", "separator_count", "separator_coefficient",
            "full_width_dim"])
    def test_malformed_program_exit_2(self, tmp_path, capsys, replace, error):
        (tmp_path / "p.sp").write_text(program_text(**replace))
        code, _, err = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        if error is None:
            assert code == 0
        else:
            assert code == 2
            assert err.startswith(f"error: {error}")

    def test_program_lines_end_only_at_newlines(self, tmp_path, capsys):
        path = tmp_path / "p.sp"
        # a form feed opening a line is leading blank space: the bad
        # coefficient is on line 8, where an editor shows it
        path.write_text(program_text(objective="\fobjective 1\n0 1").replace("0 1 1\n", "0 1 x\n"))
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: line 8: equality coefficient must be a number, got 'x'")
        # NEL inside a line separates two fields, as a space does
        path.write_text(program_text())
        expected = run_cli(["solve", str(path)], capsys)
        path.write_text(program_text().replace("0 0 1\n", "0 0\x851\n"))
        assert run_cli(["solve", str(path)], capsys) == expected

    @pytest.mark.parametrize("argv", [
        ["run", "DATA", "--simplex", "--lambda", "nan"],
        ["prune", "DATA", "--simplex", "--lambda", "nan"],
        ["cv", "DATA", "--simplex", "--lambda", "nan"],
        ["fit", "DATA", "--simplex", "--lambda", "nan"],
        ["run", "DATA", "--threshold", "inf"],
        ["solve", "PROGRAM", "--tol", "inf"],
        ["gen", "--sharpness", "nan", "--out", "NEW"],
        ["gen", "--sharpness", "inf", "--out", "NEW"],
    ], ids=["run_lambda_nan", "prune_lambda_nan", "cv_lambda_nan", "fit_lambda_nan",
            "threshold_inf", "solve_tol_inf", "sharpness_nan",
            "sharpness_inf"])
    def test_non_finite_setting_exit_2(self, tmp_path, capsys, argv):
        run_cli(gen_args(tmp_path / "DATA"), capsys)
        (tmp_path / "PROGRAM").write_text(program_text())
        argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and "probability" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["run", "prune", "cv", "fit"])
    @pytest.mark.parametrize("lam", ["1.5", "-0.1"])
    def test_lambda_outside_unit_interval_exit_2(self, tmp_path, capsys, command, lam):
        run_cli(gen_args(tmp_path / "d"), capsys)
        code, out, err = run_cli([command, str(tmp_path / "d"), "--lambda", lam], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"{float(lam)}" in err and "[0, 1]" in err

    @pytest.mark.parametrize("argv, grid", [
        (["run", "DATA", "--alpha", "0.1"], "alpha (0.1,)"),
        (["prune", "DATA", "--alpha", "0.1"], "alpha (0.1,)"),
        (["prune", "DATA", "--lambda", "1"], "lambda (1.0,)"),
    ], ids=["run", "prune", "prune_lambda_1"])
    def test_grid_of_zero_weights_exit_2(self, tmp_path, capsys, argv, grid):
        # at alpha 0.1 no entry of this dataset's linear term is negative:
        # lambda_max is 0 and every cell is w = 0; at lambda 1 no weight
        # lowers the cost, so w = 0 exactly, not the noise of a solve
        run_cli(gen_args(tmp_path / "DATA"), capsys)
        argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: every grid cell solved to w = 0") and grid in err
        code, out, _ = run_cli(argv[:2] + ["--format", "csv-summary"], capsys)
        assert code == 0 and out.splitlines()[1].split(",")[3] != "6"

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

    def test_solver_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        run_cli(gen_args(tmp_path / "d"), capsys)
        monkeypatch.setattr(pipeline, "solve", one_iteration_solve)
        code, _, err = run_cli(["fit", str(tmp_path / "d")], capsys)
        assert code == 3
        assert err.startswith("error:") and "max_iters" in err

    def test_gen_checks_its_spec(self, tmp_path, capsys):
        code, _, err = run_cli(["gen", "--seed", "-1", "--out", str(tmp_path / "neg")], capsys)
        assert code == 2 and err == "error: seed must be nonnegative, got -1\n"
        # the default --acc-low 0.5 is chance for two classes; 0.9 beats it
        binary = ["gen", "--models", "4", "--samples", "60", "--classes", "2",
                  "--out", str(tmp_path / "bin")]
        assert run_cli(binary, capsys)[0] == 0
        code, out, _ = run_cli(["run", str(tmp_path / "bin"), "--simplex", "--format",
                                "csv-summary"], capsys)
        assert code == 0 and summary_of(out)["models_full"] == 4

    @pytest.mark.parametrize("split, failing, passing", [
        ("train", ["fit", "cv", "run", "prune"], []),
        ("valid", ["cv", "run", "prune"], ["fit"]),
        ("test", ["run", "prune"], ["fit", "cv"]),
    ])
    def test_empty_split_is_named(self, tmp_path, capsys, split, failing, passing):
        data = str(tmp_path / "d")
        run_cli(gen_args(data), capsys)
        rewrite(tmp_path / "d" / "manifest.txt",
                lambda s: re.sub(f"(?m)^{split}_indices .*$", f"{split}_indices none", s))
        code, out, _ = run_cli(["check", data], capsys)
        assert code == 0 and f"{split}=0" in out
        for command in failing:
            code, out, err = run_cli([command, data, "--simplex"], capsys)
            assert (code, out) == (2, ""), command
            assert err == f"error: the {split} split ({split}_indices) is empty\n"
        for command in passing:
            assert run_cli([command, data, "--simplex"], capsys)[0] == 0, command

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
        ["fit", "DATA", "--threshold", "0.1"],
        ["cv", "DATA", "--format", "csv-summary"],
        ["solve", "PROGRAM", "--lambda", "0.1"],
        ["run", "DATA", "--tol", "1e-6"],
        ["fit", "DATA", "--max-iters", "5"],
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

    def test_gen_defaults_are_the_spec_defaults(self, tmp_path, capsys):
        assert run_cli(["gen", "--out", str(tmp_path / "cli")], capsys)[0] == 0
        spec = SyntheticSpec(num_models=10, num_samples=200, num_classes=4)
        write_predictions(tmp_path / "spec", *generate_synthetic_ensemble(spec))
        for name in ("predictions.csv", "labels.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == \
                (tmp_path / "spec" / name).read_bytes()

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
        program = ConeProgram(num_vars=2, objective=[3, 1], eq_A=[[1, 2]], eq_b=[2],
                              cones=(Cone(NONNEG_ORTHANT, (0, 1)),), free_vars=())
        write_cone_program(program, tmp_path / "p.sp")
        _, first, _ = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        _, second, _ = run_cli(["solve", str(tmp_path / "p.sp")], capsys)
        assert first == second and first
