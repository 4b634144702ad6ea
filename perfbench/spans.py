"""Layer spans recorded from outside the socprune package.

A Tracer swaps each layer's public functions, under the names their callers
look them up by, for wrappers that record a span: name, layer, start, end,
parent span and job id.  Spans stay in memory until the run ends.  Nothing
under ``src/`` knows about tracing, so the untraced jobs run the package's
own code with no hook at all.

Layers are socprune's modules.  ``core`` has no spans: its validation runs
inside the io and pipeline calls and is counted in their self time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np
from socprune.solver import kkt_residuals

LAYERS = ("cli", "io", "pipeline", "loss", "conic", "solver")

# The metric that holds each layer's self time.  loss, conic and solver spans
# have no children, so their self time is the time in their one function.
SELF_KEYS = {
    "cli": "cli.self_s",
    "io": "io.self_s",
    "pipeline": "pipeline.self_s",
    "loss": "loss.surrogate_s",
    "conic": "conic.build_s",
    "solver": "solver.solve_s",
}

KKT_TOL = 1e-8  # SolverSettings' default gap, primal and dual tolerances
WEIGHT_TOL = 1e-9  # weight vectors closer than this count as one

# (module that holds the caller's reference, attribute, layer).  cli imports
# generate_synthetic_ensemble and run_pipeline by name and reaches io through
# the module; pipeline imports its loss, conic and solver callees by name.
PATCH_POINTS = (
    ("socprune.cli", "generate_synthetic_ensemble", "pipeline"),
    ("socprune.cli", "run_pipeline", "pipeline"),
    ("socprune.io", "write_predictions", "io"),
    ("socprune.io", "read_predictions", "io"),
    ("socprune.io", "render_report", "io"),
    ("socprune.io", "atomic_write_text", "io"),
    ("socprune.pipeline", "build_surrogate", "loss"),
    ("socprune.pipeline", "build_pruning_socp", "conic"),
    ("socprune.pipeline", "solve", "solver"),
    ("socprune.pipeline", "auto_threshold", "pipeline"),
    ("socprune.pipeline", "vote", "pipeline"),
)

# Calls whose arguments and results are kept for the solver gate and the
# counters; they are examined after the job, outside every span.
KEPT_CALLS = ("conic.build_pruning_socp", "solver.solve")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    job: int


class Tracer:
    """In-memory span recorder for one process, one job at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kept: list[tuple] = []  # (job, name, args, result)
        self.job = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._open[-1] if self._open else -1
        record = Span(name, layer, time.perf_counter(), 0.0, parent, self.job)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str, layer: str):
        keep = name in KEPT_CALLS

        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if keep:
                self.kept.append((self.job, name, args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        originals = []
        try:
            for module_name, attr, layer in PATCH_POINTS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", layer))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def job_spans(self, job: int) -> dict[int, Span]:
        return {i: s for i, s in enumerate(self.spans) if s.job == job}

    def job_calls(self, job: int, name: str) -> list[tuple]:
        return [(args, result) for j, n, args, result in self.kept
                if j == job and n == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: dict[int, Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    One thread runs the job, so children never overlap and their union is
    their sum.
    """
    own = {i: s.end - s.start for i, s in spans.items()}
    for s in spans.values():
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def job_metrics(tracer: Tracer, job: int) -> tuple[dict, str | None]:
    """Per-layer metrics of one traced job, and why its solver gate failed.

    Residuals are recomputed from scratch with ``kkt_residuals``; every
    solve must be optimal with gap, primal and dual residual <= KKT_TOL.
    """
    spans = tracer.job_spans(job)
    own = self_times(spans)
    total, own_by_name, calls = defaultdict(float), defaultdict(float), Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in spans.items():
        total[s.name] += s.end - s.start
        own_by_name[s.name] += own[i]
        calls[s.name] += 1
        layer_self[s.layer] += own[i]
    report_s = sum(
        s.end - s.start for s in spans.values()
        if s.name in ("io.render_report", "io.atomic_write_text")
        and s.parent in spans and spans[s.parent].name == "cli.main"
    )

    x_indices = {id(program): list(vmap.x_indices)
                 for _, (program, vmap) in tracer.job_calls(job, "conic.build_pruning_socp")}
    worst, not_optimal, iterations, kkt_bytes, zero = 0.0, 0, 0, 0, 0
    dims, distinct = set(), []
    solves = tracer.job_calls(job, "solver.solve")
    for args, sol in solves:
        program = args[0]
        worst = max(worst, *kkt_residuals(program, sol))
        not_optimal += sol.status != "optimal"
        iterations += sol.iterations
        dim = program.num_vars + program.num_eqs
        dims.add(dim)
        kkt_bytes += 8 * dim * dim * sol.iterations
        w = sol.x[x_indices[id(program)]]
        zero += bool(np.max(np.abs(w)) <= WEIGHT_TOL)
        if not any(np.max(np.abs(w - d)) <= WEIGHT_TOL for d in distinct):
            distinct.append(w)

    job_s = total["cli.main"]
    metrics = {
        "trace.job_s": job_s,
        "cli.self_s": layer_self["cli"],
        "io.self_s": layer_self["io"],
        "pipeline.self_s": layer_self["pipeline"],
        "solver.solve_s": total["solver.solve"],
        "solver.solves": len(solves),
        "solver.iterations": iterations,
        "solver.iter_ms": 1e3 * total["solver.solve"] / max(iterations, 1),
        "solver.max_kkt_residual": worst,
        "solver.not_optimal": not_optimal,
        "conic.build_s": total["conic.build_pruning_socp"],
        "conic.kkt_dim": max(dims, default=0),
        "conic.kkt_mb_computed": kkt_bytes / 1e6,
        "pipeline.useful_solve_ratio": len(distinct) / max(len(solves), 1),
        "pipeline.zero_weight_solves": zero,
        "pipeline.threshold_self_s": own_by_name["pipeline.auto_threshold"],
        "pipeline.vote_s": total["pipeline.vote"],
        "pipeline.vote_calls": calls["pipeline.vote"],
        "pipeline.generate_s": total["pipeline.generate_synthetic_ensemble"],
        "pipeline.run_self_s": own_by_name["pipeline.run_pipeline"],
        "loss.surrogate_s": total["loss.build_surrogate"],
        "io.write_dataset_s": total["io.write_predictions"],
        "io.read_dataset_s": total["io.read_predictions"],
        "io.report_s": report_s,
    }
    failures = []
    if not_optimal:
        failures.append(f"{not_optimal} solves not optimal")
    if worst > KKT_TOL:
        failures.append(f"KKT residual {worst:.3g} > {KKT_TOL:g}")
    accounted = sum(metrics[k] for k in SELF_KEYS.values())
    if abs(accounted - job_s) > 1e-9 * max(job_s, 1.0):
        failures.append(f"layer self times sum to {accounted}, job took {job_s}")
    return metrics, "; ".join(failures) or None
