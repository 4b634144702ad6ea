"""The benchmark's workloads: one prune job each, as a user runs it.

A job is ``socprune gen ... --out DATA`` followed by ``socprune run|prune
DATA ... --out REPORT``.  The seed goes to ``gen --seed``; every other
``gen`` parameter stays at its CLI default.  Grids, modes and sizes are
fixed on purpose: the redundant and all-zero solves they produce on the
seed code are the baseline that later work is meant to move.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: int
    samples: int
    classes: int
    command: tuple  # subcommand and flags after ``gen``
    smoke: tuple  # (models, samples, classes) for the smoke test

    def argvs(self, seed: int, data: str, report: str, smoke: bool = False):
        models, samples, classes = (
            self.smoke if smoke else (self.models, self.samples, self.classes)
        )
        gen = ["gen", "--models", str(models), "--samples", str(samples),
               "--classes", str(classes), "--seed", str(seed), "--out", data]
        prune = [self.command[0], data, *self.command[1:], "--out", report]
        return gen, prune


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-simplex-m60",
            why="5x5 grid in simplex mode: the solver dominates and most of the "
                "26 solves repeat a weight vector",
            models=60, samples=1000, classes=10,
            command=("run", "--simplex"),
            smoke=(8, 200, 10),
        ),
        Workload(
            name="grid-free-m40",
            why="CLI default free-sign mode: a differently shaped program, "
                "every cell returns w=0 and all 40 models are kept",
            models=40, samples=4000, classes=10,
            command=("run",),
            smoke=(6, 400, 10),
        ),
        Workload(
            name="ingest-c100",
            why="87 MB dataset and a 2-solve single cell: dataset I/O "
                "dominates and the solver is bypassed",
            models=20, samples=2000, classes=100,
            command=("prune", "--simplex", "--alpha", "0.4", "--lambda", "0.1"),
            smoke=(4, 200, 100),
        ),
    )
}
