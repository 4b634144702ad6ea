"""Prune-job benchmark for socprune.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs prune jobs (``gen`` then ``run``/``prune``, see workloads.py) through
``socprune.cli.main`` in this one process, one job at a time.  The first
job is the cold job; warm jobs follow until the next one would end after S
seconds.  Every job's output is checked (checks.py).  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates traced and untraced warm
jobs and reports the per-layer metrics (spans.py).  ``--workload all`` runs
every workload in its own process.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by every child.  On a
# 2-vCPU Xeon VM, one busy process beside the benchmark slowed the
# grid-simplex-m60 solver by 1.6x with the library default of two threads,
# and by 1.1-1.2x with one, so job_s measured the scheduler, not the program.
# Unloaded, one thread solves as fast as two.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

from setup_probe import setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_SAMPLES = 5
# Warm jobs a run makes even past --seconds: a median needs one, and the
# traced run needs a traced and an untraced one for the overhead.
MIN_WARM = (1, 2)

UNITS = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pruned_test_accuracy": "fraction",
}

LAYER_UNITS = {
    "cold_job_s": "s",
    "models_kept": "count",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "cli.self_s": "s",
    "io.self_s": "s",
    "pipeline.self_s": "s",
    "solver.solve_s": "s",
    "solver.solves": "count",
    "solver.iterations": "count",
    "solver.iter_ms": "ms",
    "solver.max_kkt_residual": "1",
    "solver.not_optimal": "count",
    "conic.build_s": "s",
    "conic.kkt_dim": "count",
    "conic.kkt_mb_computed": "MB",
    "pipeline.useful_solve_ratio": "ratio",
    "pipeline.zero_weight_solves": "count",
    "pipeline.cells_failed": "count",
    "pipeline.threshold_self_s": "s",
    "pipeline.vote_s": "s",
    "pipeline.vote_calls": "count",
    "pipeline.generate_s": "s",
    "pipeline.run_self_s": "s",
    "loss.surrogate_s": "s",
    "io.write_dataset_s": "s",
    "io.read_dataset_s": "s",
    "io.dataset_mb": "MB",
    "io.report_s": "s",
}

# Deterministic for a seed: they must repeat exactly between jobs and runs.
COUNTS = (
    "solver.solves", "solver.iterations", "solver.not_optimal", "conic.kkt_dim",
    "conic.kkt_mb_computed", "pipeline.useful_solve_ratio",
    "pipeline.zero_weight_solves", "pipeline.cells_failed", "models_kept",
    "pipeline.vote_calls", "io.dataset_mb",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, for the smoke test")
    return p.parse_args(argv)


@dataclass
class Job:
    index: int
    traced: bool
    seconds: float = 0.0
    failure: str | None = None
    layers: dict | None = None  # per-layer metrics of a traced job


class JobRunner:
    """Runs and checks the jobs of one run in one workspace."""

    def __init__(self, workload, seed, workspace: Path, smoke: bool, tracer):
        from socprune import cli
        from socprune.errors import SocpruneError

        self.main = cli.main
        self.check_errors = (ValueError, OSError, SocpruneError)
        self.data = workspace / "data"
        self.report_path = workspace / "report.json"
        self.argvs = workload.argvs(seed, str(self.data), str(self.report_path), smoke)
        self.tracer = tracer
        self.jobs: list[Job] = []
        self.reference = None  # (report text, dataset digest, report) of the first good job

    def run(self, traced: bool) -> Job:
        job = Job(len(self.jobs), traced)
        self.jobs.append(job)
        shutil.rmtree(self.data, ignore_errors=True)
        self.report_path.unlink(missing_ok=True)
        try:
            codes = self._timed(job)
        except Exception:  # a crash is a failed job; the run goes on
            job.failure = traceback.format_exc()
            return job
        if codes != [0, 0]:
            job.failure = f"exit codes {codes}"
            return job
        self._check(job)
        return job

    def _timed(self, job: Job) -> list:
        tracer = self.tracer if job.traced else None
        if tracer:
            tracer.job = job.index
        codes = []
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            for argv in self.argvs:
                with tracer.span("cli.main", "cli") if tracer else contextlib.nullcontext():
                    codes.append(self.main(argv))
                if codes[-1]:
                    break
            job.seconds = time.perf_counter() - start
        return codes

    def _check(self, job: Job) -> None:
        import checks
        import spans

        try:
            report, text = checks.check_report(self.report_path)
            digest = checks.dataset_digest(self.data)
        except self.check_errors as exc:
            job.failure = f"report check: {exc}"
            return
        if self.reference is None:
            self.reference = (text, digest, report)
        elif (text, digest) != self.reference[:2]:
            job.failure = "report or dataset differs from the run's first job"
            return
        if not job.traced:
            return
        layers, gate = spans.job_metrics(self.tracer, job.index)
        layers["pipeline.cells_failed"] = sum(
            c.status.startswith("failed") for c in report.cells)
        layers["models_kept"] = len(report.selected)
        layers["io.dataset_mb"] = checks.dataset_bytes(self.data) / 1e6
        job.layers = layers
        if gate:
            job.failure = f"solver gate: {gate}"

    def check_accuracy(self) -> None:
        """Recompute the accuracies once: every good job wrote the same files."""
        import checks

        good = [j for j in self.jobs if j.failure is None]
        if not good:
            return
        try:
            if checks.dataset_digest(self.data) != self.reference[1]:
                raise ValueError("last dataset differs from the reference")
            checks.check_accuracies(self.data, self.reference[2])
        except self.check_errors as exc:
            for job in good:
                job.failure = f"accuracy check: {exc}"


def probe_setups(count: int) -> list:
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(RUNS)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout))
    return samples


def openblas_threads(package) -> int | None:
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_info(package) -> dict:
    dep = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": dep.get("name"), "version": dep.get("version"),
            "threads": openblas_threads(package)}


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def environment(args, load_start) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas_info(numpy),
        "blas_scipy": blas_info(scipy),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def end_to_end(runner, warm, setups, peak_rss_mb) -> dict:
    report = runner.reference[2]
    return {
        "job_s": statistics.median(j.seconds for j in warm),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "pruned_test_accuracy": report.pruned_accuracy,
    }


def per_layer(cold, warm) -> tuple[dict, str | None]:
    """Medians over the traced jobs, and a failure if a count moved."""
    traced = [j.layers for j in warm if j.layers is not None]
    if not traced:
        return {}, "no traced job passed its checks"
    out = {"cold_job_s": cold.seconds}
    out.update((k, statistics.median(t[k] for t in traced)) for k in traced[0])
    untraced = [j.seconds for j in warm if not j.traced and j.failure is None]
    if untraced:
        out["trace.overhead_s"] = out["trace.job_s"] - statistics.median(untraced)
    moved = [k for k in COUNTS if len({t[k] for t in traced}) > 1]
    return out, f"counts differ between jobs: {moved}" if moved else None


def print_table(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<28} {value:>14.6g} {units[name]:<8} {note}")


def measure(args, setup_s: float, workspace: Path, load_start) -> int:
    import socprune
    import spans

    if not Path(socprune.__file__).resolve().is_relative_to(SRC):
        print(f"error: socprune imported from {socprune.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    threads = {blas_info(m)["threads"] for m in (numpy, scipy)}
    if threads != {BLAS_THREADS}:
        print(f"error: BLAS runs {threads} threads, not {BLAS_THREADS}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    runner = JobRunner(workload, args.seed, workspace, args.smoke, tracer)
    setups = [setup_s] if args.trace else [setup_s, *probe_setups(SETUP_SAMPLES - 1)]

    cold = runner.run(traced=False)
    warm = []
    begin = time.perf_counter()
    while len(warm) < MIN_WARM[args.trace] or (
            time.perf_counter() - begin + warm[-1].seconds <= args.seconds):
        warm.append(runner.run(traced=bool(args.trace) and len(warm) % 2 == 0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    runner.check_accuracy()

    jobs = runner.jobs
    failed = [j for j in jobs if j.failure is not None]
    for job in failed:
        print(f"job {job.index} failed: {job.failure}", file=sys.stderr)
    correct = not failed
    print(f"{workload.name} seed={args.seed}: {len(jobs)} jobs "
          f"(1 cold, {len(warm)} warm), {len(failed)} failed")
    if runner.reference is None:
        print("error: no job produced a report that passed its checks", file=sys.stderr)
        return 1
    if args.trace:
        metrics, moved = per_layer(cold, warm)
        if moved:
            print(f"error: {moved}", file=sys.stderr)
            correct = False
        units = LAYER_UNITS
        n_traced = sum(j.traced for j in warm)
        notes = {"trace.job_s": f"median of {n_traced} traced jobs"}
        if "trace.job_s" in metrics:
            for layer in spans.LAYERS:
                key = spans.SELF_KEYS[layer]
                notes[key] = f"{metrics[key] / metrics['trace.job_s']:.1%} of traced job"
    else:
        metrics = end_to_end(runner, warm, setups, peak_rss_mb)
        units = UNITS
        notes = {"job_s": f"median of {len(warm)} warm jobs",
                 "setup_s": f"median of {len(setups)} set-ups"}
    print_table(metrics, units, notes)

    env = environment(args, load_start)
    print(json.dumps({"environment": env}, sort_keys=True))
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "jobs": [{"index": j.index, "traced": j.traced, "seconds": j.seconds,
                  "failure": j.failure} for j in jobs],
        "setup_samples": setups,
    }
    (RUNS / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_jsonl(RUNS / f"spans-{stem}.jsonl")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own cold job."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode or not lines:
            print(f"error: workload {name} exited with {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "socprune" / "__init__.py").is_file():
        print(f"error: no socprune sources under {SRC}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    setup_s, workspace = setup(str(SRC), str(RUNS))
    try:
        return measure(args, setup_s, Path(workspace), load_start)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
