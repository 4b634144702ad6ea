"""Command-line front end.

One batch tool, seven subcommands.  ``gen`` writes a synthetic dataset,
``check`` validates one, ``fit``/``cv``/``prune``/``run`` are the pruning
stages at increasing levels of automation, and ``solve`` runs the conic
solver on a raw program file for debugging.  Everything is seeded and
deterministic: the same invocation produces byte-identical output files.

Exit codes: 0 success, 2 invalid input (validation or parse failure),
3 solver did not reach optimality, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as dataio
from .conic import read_cone_program
from .errors import AllCellsFailed, DomainError, FitFailed, IoError, SocpruneError
from .pipeline import (
    PruneConfig,
    SyntheticSpec,
    cross_validate,
    fit_weights,
    generate_synthetic_ensemble,
    run_pipeline,
)
from .solver import STATUS_OPTIMAL, SolverSettings, solve

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_OPTIMAL = 3
EXIT_IO = 4

# Single-cell subcommands (fit, prune) default to one grid cell that prunes.
DEFAULT_ALPHA = 0.7
DEFAULT_LAMBDA = 0.5


def _build_parser() -> argparse.ArgumentParser:
    # Flag groups; each subcommand takes exactly the groups it reads.
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--alpha", type=float, default=None,
                      help="accuracy/diversity trade-off in [0,1]; for cv/run "
                           "this narrows the grid to a single value")
    cell.add_argument("--lambda", dest="lam", type=float, default=None,
                      help="sparsity weight in [0,1], a fraction of lambda_max, "
                           "the weight at which every model drops; for cv/run "
                           "this narrows the grid to a single value.  With "
                           "--simplex the weights sum to 1, so lambda does not "
                           "change the program")
    cell.add_argument("--simplex", action="store_true",
                      help="constrain weights to the probability simplex")
    select = argparse.ArgumentParser(add_help=False)
    thresh = select.add_mutually_exclusive_group()
    thresh.add_argument("--threshold", type=float, default=None,
                        help="fixed pruning threshold h >= 0 on |w_i|")
    thresh.add_argument("--auto-threshold", action="store_true",
                        help="pick h on the validation split (default)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help="output path (default: print to stdout)")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=dataio.REPORT_FORMATS,
                        default=dataio.FORMAT_JSON,
                        help="report format")

    parser = argparse.ArgumentParser(
        prog="socprune",
        description="Ensemble pruning via second-order cone programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[out],
                       help="write a synthetic prediction dataset")
    acc_low, acc_high = SyntheticSpec.base_accuracy_range
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed,
                   help="RNG seed of the generator (default 0)")
    p.add_argument("--models", type=int, default=10)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--acc-low", type=float, default=acc_low,
                   help="lower end of the per-model accuracy range")
    p.add_argument("--acc-high", type=float, default=acc_high,
                   help="upper end of the per-model accuracy range")
    p.add_argument("--correlation", type=float, default=SyntheticSpec.correlation,
                   help="error correlation between models, in [0,1)")
    p.add_argument("--sharpness", type=float, default=SyntheticSpec.sharpness,
                   help="confidence of the generated probability rows")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", parents=[cell, out],
                       help="solve one (alpha, lambda) cell and print weights")
    p.add_argument("data", help="dataset directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cv", parents=[cell, select, out],
                       help="grid-search (alpha, lambda) on the validation split")
    p.add_argument("data", help="dataset directory")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("prune", parents=[cell, select, out, report],
                       help="fit one cell, threshold, vote, report")
    p.add_argument("data", help="dataset directory")
    p.set_defaults(func=cmd_run, single_cell=True)

    p = sub.add_parser("run", parents=[cell, select, out, report],
                       help="full pipeline: cv, threshold, vote, report")
    p.add_argument("data", help="dataset directory")
    p.set_defaults(func=cmd_run, single_cell=False)

    p = sub.add_parser("check", help="validate a dataset directory")
    p.add_argument("data", help="dataset directory")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", parents=[out],
                       help="solve a cone-program file (solver debugging)")
    p.add_argument("program", help="cone program text file")
    p.add_argument("--tol", type=float, default=None,
                   help="solver stopping tolerance (gap and residuals)")
    p.add_argument("--max-iters", type=int, default=None,
                   help="solver iteration cap")
    p.add_argument("--verbose", action="store_true",
                   help="print per-iteration solver progress")
    p.set_defaults(func=cmd_solve)

    return parser


def _solver_settings(args) -> SolverSettings:
    kwargs = {"verbose": args.verbose}
    if args.tol is not None:
        kwargs["tol"] = args.tol
    if args.max_iters is not None:
        kwargs["max_iters"] = args.max_iters
    return SolverSettings(**kwargs)


def _cell(args):
    """(alpha, lambda) of a single-cell subcommand, with the defaults above."""
    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    lam = DEFAULT_LAMBDA if args.lam is None else args.lam
    return alpha, lam


def _prune_config(args, single_cell: bool = False) -> PruneConfig:
    kwargs = dict(threshold="auto" if args.threshold is None else args.threshold,
                  simplex_mode=args.simplex)
    if single_cell:
        alpha, lam = _cell(args)
        kwargs.update(alpha_grid=(alpha,), lambda_grid=(lam,))
    else:
        if args.alpha is not None:
            kwargs["alpha_grid"] = (args.alpha,)
        if args.lam is not None:
            kwargs["lambda_grid"] = (args.lam,)
    return PruneConfig(**kwargs)


def _emit(args, text: str) -> None:
    if args.out is not None:
        dataio.atomic_write_text(args.out, [text])
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_gen(args) -> int:
    if args.out is None:
        raise DomainError("gen writes a dataset directory; --out is required")
    spec = SyntheticSpec(
        num_models=args.models,
        num_samples=args.samples,
        num_classes=args.classes,
        base_accuracy_range=(args.acc_low, args.acc_high),
        correlation=args.correlation,
        sharpness=args.sharpness,
        seed=args.seed,
    )
    t, y, splits = generate_synthetic_ensemble(spec)
    provenance = (
        f"gen seed={args.seed} models={args.models} samples={args.samples} "
        f"classes={args.classes} acc=[{args.acc_low},{args.acc_high}] "
        f"correlation={args.correlation} sharpness={args.sharpness}"
    )
    dataio.write_predictions(args.out, t, y, splits, provenance=provenance)
    return EXIT_OK


def cmd_fit(args) -> int:
    t, y, splits = dataio.read_predictions(args.data)
    splits.require("train")
    alpha, lam = _cell(args)
    w = fit_weights(t, y, alpha, lam, samples=splits.train_indices, simplex=args.simplex)
    _emit_json(args, {
        "kind": "socprune-weights",
        "format_version": 1,
        "alpha": alpha,
        "lambda": lam,
        "simplex": bool(args.simplex),
        "weights": [float(v) for v in w],
    })
    return EXIT_OK


def cmd_cv(args) -> int:
    t, y, splits = dataio.read_predictions(args.data)
    config = _prune_config(args)
    best_alpha, best_lambda, cells = cross_validate(t, y, splits, config)
    _emit_json(args, {
        "kind": "socprune-cv",
        "format_version": 1,
        "best_alpha": best_alpha,
        "best_lambda": best_lambda,
        "cells": dataio.cells_to_json(cells),
    })
    return EXIT_OK


def cmd_run(args) -> int:
    """``run`` searches the grid; ``prune`` (single_cell) solves one cell."""
    t, y, splits = dataio.read_predictions(args.data)
    report = run_pipeline((t, y, splits), _prune_config(args, args.single_cell))
    _emit(args, dataio.render_report(report, args.format))
    return EXIT_OK


def cmd_check(args) -> int:
    t, y, splits = dataio.read_predictions(args.data)
    print(
        f"ok: models={t.num_models} samples={t.num_samples} "
        f"classes={t.num_classes} train={splits.train_indices.size} "
        f"valid={splits.valid_indices.size} test={splits.test_indices.size}"
    )
    return EXIT_OK


def _finite_or_null(v):  # JSON has no NaN or infinity: null where a value overflowed
    return float(v) if np.isfinite(v) else None


@np.errstate(over="ignore", invalid="ignore")  # a numerical exit's point may overflow
def cmd_solve(args) -> int:
    program = read_cone_program(args.program)
    sol = solve(program, _solver_settings(args))
    objective = np.dot(np.asarray(program.objective, dtype=np.float64), sol.x)
    _emit_json(args, {
        "kind": "socprune-solution",
        "format_version": 1,
        "status": sol.status,
        "iterations": sol.iterations,
        "objective": _finite_or_null(objective),
        "gap": _finite_or_null(sol.gap),
        "primal_residual": _finite_or_null(sol.primal_residual),
        "dual_residual": _finite_or_null(sol.dual_residual),
        "x": [_finite_or_null(v) for v in sol.x],
        "y": [_finite_or_null(v) for v in sol.y],
        "s": [_finite_or_null(v) for v in sol.s],
    })
    return EXIT_OK if sol.status == STATUS_OPTIMAL else EXIT_NOT_OPTIMAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FitFailed, AllCellsFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_OPTIMAL
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SocpruneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
