"""Acceptance gate: one test per headline guarantee, one PASS line each.

Every test prints a single PASS/FAIL summary line with the measured
numbers next to the budget it is held to, then asserts.  Run with -rA to
see the lines for passing tests.
"""

import itertools
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import nnls

from socprune import cli
from socprune.conic import (
    NONNEG_ORTHANT,
    QUADRATIC,
    ROTATED_QUADRATIC,
    Cone,
    ConeProgram,
    build_pruning_socp,
    cholesky_lower,
    write_cone_program,
)
from socprune.core import PredictionTensor
from socprune.errors import DomainError, MalformedProgram, ShapeMismatch
from socprune.loss import QuadraticSurrogate, build_surrogate, entropy_term, exact_loss
from socprune.pipeline import (
    PruneConfig,
    SyntheticSpec,
    _solve_weights,
    fit_weights,
    generate_synthetic_ensemble,
    run_pipeline,
)
from socprune.solver import STATUS_OPTIMAL, SolverSettings, kkt_residuals, solve

from conftest import random_instance

ALPHA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
LAMBDA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def report_line(ok, text):
    print(("PASS " if ok else "FAIL ") + text)
    assert ok, text


def test_solver_optimal_on_random_pruning_programs():
    rng = np.random.default_rng(20260801)
    worst = 0.0
    solved = 0
    start = time.perf_counter()
    for k in range(200):
        m = 2 + k % 15
        t, y = random_instance(rng, m, 24, 3)
        surrogate = build_surrogate(t, y)
        program, _ = build_pruning_socp(
            surrogate, ALPHA_GRID[k % 5], LAMBDA_GRID[(k // 5) % 5])
        sol = solve(program)
        if sol.status != STATUS_OPTIMAL:
            break
        solved += 1
        worst = max(worst, *kkt_residuals(program, sol))
    elapsed = time.perf_counter() - start
    ok = solved == 200 and worst <= 1e-6 and elapsed < 5.0
    report_line(ok, (
        f"solver correctness: {solved}/200 random pruning programs optimal, "
        f"worst KKT residual {worst:.2e} (budget 1e-6), "
        f"{elapsed:.2f}s (budget 5s)"))


def test_solver_matches_separable_and_dense_closed_forms():
    rng = np.random.default_rng(77)
    # coordinates barely past the threshold are tiny; solve tighter than the
    # 1e-6 comparison so solver tolerance does not dominate the error
    tight = SolverSettings(tol=1e-11, max_iters=200)
    worst_soft = 0.0
    for k in range(100):
        m = 2 + k % 6
        diag = rng.uniform(0.5, 2.0, size=m)
        c = rng.normal(scale=1.0, size=m)
        lam = float(rng.uniform(0.05, 1.0))
        surrogate = QuadraticSurrogate(
            quad=np.diag(diag), lin_accuracy=c,
            lin_diversity=np.zeros(m), constant=0.0, ridge=0.0)
        program, vmap = build_pruning_socp(surrogate, 1.0, lam)
        sol = solve(program, tight)
        assert sol.status == STATUS_OPTIMAL
        x = sol.x[np.asarray(vmap.x_indices)]
        # nonnegative soft threshold at the penalty lam * lambda_max
        penalty = lam * max(0.0, -c.min())
        expected = np.maximum(-c - penalty, 0.0) / (2.0 * diag)
        worst_soft = max(worst_soft, float(np.abs(x - expected).max()))

    worst_dense = 0.0
    for k in range(50):
        m = 2 + k % 5
        B = rng.normal(size=(m, m))
        Q = B.T @ B / m + np.diag(rng.uniform(0.3, 1.0, size=m))
        # a positive unconstrained minimizer, so x >= 0 does not bind
        x_star = rng.uniform(0.2, 1.0, size=m)
        c = -2.0 * Q @ x_star
        surrogate = QuadraticSurrogate(
            quad=Q, lin_accuracy=c,
            lin_diversity=np.zeros(m), constant=0.0, ridge=0.0)
        program, vmap = build_pruning_socp(surrogate, 1.0, 0.0)
        sol = solve(program, tight)
        assert sol.status == STATUS_OPTIMAL
        x = sol.x[np.asarray(vmap.x_indices)]
        worst_dense = max(worst_dense, float(np.abs(x - x_star).max()))

    ok = worst_soft <= 1e-6 and worst_dense <= 1e-5
    report_line(ok, (
        f"closed-form agreement: soft-threshold error {worst_soft:.2e} over "
        f"100 separable programs (budget 1e-6), unregularized minimum error "
        f"{worst_dense:.2e} over 50 dense programs (budget 1e-5)"))


def cone_margin(kind: str, values) -> float:
    """Smallest membership slack of a value vector; >= 0 iff inside the cone.

    Debugging helper; the slacks mix scales (linear for heads, quadratic for
    the rotated product), so only the sign is meaningful.
    """
    v = np.asarray(values, dtype=np.float64)
    if kind == NONNEG_ORTHANT:
        return float(v.min())
    if kind == QUADRATIC:
        return float(v[0] - np.linalg.norm(v[1:]))
    if kind == ROTATED_QUADRATIC:
        return float(min(v[0], v[1], 2.0 * v[0] * v[1] - v[2:] @ v[2:]))
    raise MalformedProgram(f"unknown cone kind {kind!r}")


def test_epigraph_membership_matches_quadratic_inequality():
    rng = np.random.default_rng(404)
    t, y = random_instance(rng, 6, 30, 3)
    surrogate = build_surrogate(t, y)
    q_eff = surrogate.quad + surrogate.ridge * np.eye(6)
    root = cholesky_lower(surrogate.quad, surrogate.ridge).T
    disagreements = 0
    skipped = 0
    checked = 0
    while checked < 1000:
        x = rng.normal(scale=0.8, size=6)
        quad_val = float(x @ q_eff @ x)
        t_val = quad_val + float(rng.normal(scale=0.5))
        if abs(t_val - quad_val) <= 1e-9:
            skipped += 1
            continue
        checked += 1
        vec = np.concatenate(([1.0 + t_val], 2.0 * root @ x, [1.0 - t_val]))
        in_cone = cone_margin(QUADRATIC, vec) >= 0.0
        if in_cone != (t_val >= quad_val):
            disagreements += 1
    ok = disagreements == 0
    report_line(ok, (
        f"epigraph equivalence: {disagreements} disagreements on {checked} "
        f"membership checks outside the 1e-9 band ({skipped} skipped)"))


def test_entropy_bounds_and_jensen_concavity():
    rng = np.random.default_rng(9001)
    bound_violations = 0
    jensen_violations = 0
    total = 0
    for num_classes in (2, 3, 5, 10):
        for conc in (0.2, 1.0, 5.0):
            rows = rng.dirichlet(np.full(num_classes, conc), size=850)
            upper = np.log(num_classes)
            for i in range(0, 850, 2):
                p, q = rows[i], rows[i + 1]
                hp, hq = entropy_term(p).sum(), entropy_term(q).sum()
                for h in (hp, hq):
                    total += 1
                    if h < -1e-12 or h > upper + 1e-12:
                        bound_violations += 1
                theta = float(rng.uniform())
                mixed = entropy_term(theta * p + (1.0 - theta) * q).sum()
                if mixed < theta * hp + (1.0 - theta) * hq - 1e-12:
                    jensen_violations += 1
    ok = bound_violations == 0 and jensen_violations == 0 and total >= 10000
    report_line(ok, (
        f"entropy properties: {bound_violations} bound violations and "
        f"{jensen_violations} concavity violations on {total} random "
        f"distributions (tolerance 1e-12)"))


@dataclass(eq=False)
class QpConeForm:
    """Cone form of a convex QP plus the data needed to map back.

    The program minimizes the epigraph head u0 of ``||R x + v||`` with
    R'R = Q and v = (1/2) R^{-T} a; the original QP value at the optimum is
    ``u0^2 + shift`` with ``shift = beta - (1/4) a' Q^{-1} a``.
    """

    program: ConeProgram
    x_indices: tuple
    epigraph_index: int
    shift: float

    def qp_value(self, solution) -> float:
        u0 = float(np.asarray(solution.x)[self.epigraph_index])
        return u0 * u0 + self.shift

    def minimizer(self, solution) -> np.ndarray:
        return np.asarray(solution.x)[list(self.x_indices)]


def qp_to_socp(Q, a, beta: float, A=None, b=None) -> QpConeForm:
    """Rewrite min x'Qx + a'x + beta s.t. Ax = b as a cone program.

    Q must be symmetric positive definite.  The returned objective is the
    scalar epigraph head; recover the QP optimum as head^2 + shift (see
    QpConeForm.qp_value).
    """
    Q = np.asarray(Q, dtype=np.float64)
    n = Q.shape[0]
    a = np.zeros(n) if a is None else np.asarray(a, dtype=np.float64)
    if a.shape != (n,):
        raise ShapeMismatch(f"linear term has shape {a.shape}, expected ({n},)")
    L = cholesky_lower(Q, 0.0)
    v = scipy.linalg.solve_triangular(L, 0.5 * a, lower=True)
    shift = float(beta) - float(v @ v)

    if A is None:
        A = np.zeros((0, n))
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != n:
        raise ShapeMismatch(f"constraint matrix has shape {A.shape}, expected (*, {n})")
    b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    if b.shape != (A.shape[0],):
        raise ShapeMismatch(f"rhs has shape {b.shape}, expected ({A.shape[0]},)")

    # variables: x (free), head, tail; R x - tail = -v, so tail = R x + v
    # and ||tail|| <= head
    objective = np.zeros(2 * n + 1)
    objective[n] = 1.0
    eq_A = np.zeros((n + A.shape[0], 2 * n + 1))
    eq_A[:n, :n] = L.T  # R
    eq_A[np.arange(n), np.arange(n + 1, 2 * n + 1)] = -1.0
    eq_A[n:, :n] = A
    program = ConeProgram(num_vars=2 * n + 1, objective=objective, eq_A=eq_A,
                          eq_b=np.concatenate((-v, b)),
                          cones=(Cone(QUADRATIC, range(n, 2 * n + 1)),), free_vars=range(n))
    return QpConeForm(program=program, x_indices=tuple(range(n)), epigraph_index=n, shift=shift)


def test_qp_cone_transform_matches_kkt_solutions():
    rng = np.random.default_rng(512)
    worst = 0.0
    for k in range(50):
        n = 2 + k % 5
        B = rng.normal(size=(n, n))
        Q = B.T @ B / n + 0.2 * np.eye(n)
        a = rng.normal(size=n)
        beta = float(rng.normal())
        n_eq = 1 + k % 2
        A = rng.normal(size=(n_eq, n))
        b = rng.normal(size=n_eq)
        form = qp_to_socp(Q, a, beta, A, b)
        sol = solve(form.program)
        assert sol.status == STATUS_OPTIMAL
        kkt = np.block([[2.0 * Q, A.T], [A, np.zeros((n_eq, n_eq))]])
        xv = np.linalg.solve(kkt, np.concatenate([-a, b]))[:n]
        direct = float(xv @ Q @ xv + a @ xv + beta)
        worst = max(worst, abs(form.qp_value(sol) - direct) / (1.0 + abs(direct)))
    ok = worst <= 1e-6
    report_line(ok, (
        f"qp-to-cone transform: worst relative optimum gap {worst:.2e} over "
        f"50 random equality-constrained QPs, n <= 6 (budget 1e-6)"))


def test_surrogate_accuracy_exactness_and_diversity_gradient():
    rng = np.random.default_rng(31337)
    worst_acc = 0.0
    for k in range(50):
        m = 2 + k % 5
        t, y = random_instance(rng, m, 20, 3)
        s = build_surrogate(t, y)
        w = rng.normal(scale=0.6, size=m)  # arbitrary, not simplex
        quad_val = w @ s.quad @ w + s.lin_accuracy @ w + s.constant
        mix = np.einsum("i,inj->nj", w, t.probs)
        acc = np.mean(np.sum((mix - y.one_hot()) ** 2, axis=1) / t.num_classes)
        worst_acc = max(worst_acc, abs(quad_val - acc))
        if k % 10 == 0:
            w_simplex = rng.dirichlet(np.ones(m))
            lv = exact_loss(w_simplex, t, y, 1.0)
            quad_simplex = (w_simplex @ s.quad @ w_simplex
                            + s.lin_accuracy @ w_simplex + s.constant)
            worst_acc = max(worst_acc, abs(quad_simplex - lv.accuracy_term))

    worst_grad = 0.0
    step = 1e-6
    for _ in range(10):
        t, y = random_instance(rng, 4, 15, 3)
        s = build_surrogate(t, y)
        anchor = np.full(4, 0.25)
        for i in range(4):
            wp, wm = anchor.copy(), anchor.copy()
            wp[i] += step
            wm[i] -= step
            fd = (exact_loss(wp, t, y, 0.0).diversity_term
                  - exact_loss(wm, t, y, 0.0).diversity_term) / (2 * step)
            worst_grad = max(worst_grad, abs(s.lin_diversity[i] - fd))

    ok = worst_acc <= 1e-10 and worst_grad <= 1e-5
    report_line(ok, (
        f"surrogate fidelity: accuracy-term error {worst_acc:.2e} over 50 "
        f"instances (budget 1e-10), diversity gradient vs finite differences "
        f"{worst_grad:.2e} (budget 1e-5)"))


def test_l1_norm_non_increasing_along_lambda_path():
    rng = np.random.default_rng(1453)
    worst_rise = 0.0
    paths = 0
    for k in range(20):
        m = 4 + k % 5
        t, y = random_instance(rng, m, 40, 3)
        norms = []
        for lam in LAMBDA_GRID:
            w = fit_weights(t, y, alpha=0.9, lam=lam)
            norms.append(float(np.abs(w).sum()))
        for a, b in zip(norms, norms[1:]):
            worst_rise = max(worst_rise, b - a)
        paths += 1
    ok = paths == 20 and worst_rise <= 1e-7
    report_line(ok, (
        f"regularization path: worst L1-norm increase {worst_rise:.2e} along "
        f"{paths} paths over lambda grid {LAMBDA_GRID} (budget 1e-7)"))


def benchmark_spec(num_classes, seed):
    """One of the 20 acceptance datasets: 40 models, 4000 samples."""
    return SyntheticSpec(
        num_models=40, num_samples=4000, num_classes=num_classes,
        base_accuracy_range=(0.55, 0.85), correlation=0.5,
        sharpness=6.0, seed=seed)


def test_scaled_benchmark_prunes_without_accuracy_loss():
    config = PruneConfig(threshold="auto", simplex_mode=True)
    successes = 0
    runs = 0
    worst_seconds = 0.0
    details = []
    for num_classes in (10, 100):
        for seed in range(10):
            spec = benchmark_spec(num_classes, seed)
            start = time.perf_counter()
            report = run_pipeline(spec, config)
            seconds = time.perf_counter() - start
            worst_seconds = max(worst_seconds, seconds)
            runs += 1
            frac_pruned = 1.0 - report.num_models_pruned / report.num_models_full
            drop = report.full_accuracy - report.pruned_accuracy
            if frac_pruned >= 0.40 and drop <= 0.02:
                successes += 1
            details.append(
                f"C={num_classes} seed={seed}: kept "
                f"{report.num_models_pruned}/40, drop {drop:+.4f}, {seconds:.1f}s")
    ok = successes >= 18 and worst_seconds < 60.0
    for line in details:
        print("  " + line)
    report_line(ok, (
        f"scaled pruning benchmark: {successes}/{runs} seeds pruned >=40% of "
        f"40 models within 0.02 accuracy drop (need >=18), slowest seed "
        f"{worst_seconds:.1f}s (budget 60s)"))


def test_default_config_prunes_without_accuracy_loss():
    # the defaults: free mode, the 5x5 grid of alpha and lambda / lambda_max
    successes = 0
    runs = 0
    details = []
    for num_classes in (10, 100):
        for seed in range(10):
            spec = benchmark_spec(num_classes, seed)
            report = run_pipeline(spec, PruneConfig())
            runs += 1
            frac_pruned = 1.0 - report.num_models_pruned / report.num_models_full
            drop = report.full_accuracy - report.pruned_accuracy
            if frac_pruned >= 0.40 and drop <= 0.02:
                successes += 1
            details.append(
                f"C={num_classes} seed={seed}: kept {report.num_models_pruned}/40 at "
                f"alpha {report.best_alpha}, lambda {report.best_lambda}, drop {drop:+.4f}")
    ok = successes >= 18
    for line in details:
        print("  " + line)
    report_line(ok, (
        f"default pruning: {successes}/{runs} seeds pruned >=40% of 40 models "
        f"within 0.02 accuracy drop with PruneConfig() (need >=18)"))


_ORACLE_LIMIT = 14


def brute_force_subset_oracle(t, y, alpha):
    """Exhaustive minimum of the exact loss over uniform-weight subsets.

    Returns (subset index list, loss).  Ties go to the lexicographically
    smallest subset.  Capped at 14 models: the enumeration is 2^M - 1
    subsets.
    """
    m = t.num_models
    if m > _ORACLE_LIMIT:
        raise ValueError(f"{m} models exceed the enumeration limit {_ORACLE_LIMIT}")
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    n, num_c = t.num_samples, t.num_classes
    flat = t.probs.reshape(m, n * num_c)
    # a model at a time: no tensor-sized temporary
    ent_flat = np.array([np.sum(entropy_term(model)) for model in t.probs])
    one_hot = y.one_hot().ravel()
    scale = 1.0 / (n * num_c)

    total = (1 << m) - 1
    masks = np.arange(1, total + 1, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(np.float64)
    sizes = bits.sum(axis=1)

    best_loss = np.inf
    best_subset = None
    chunk = max(1, (1 << 22) // (n * num_c))
    for start in range(0, total, chunk):
        sel = bits[start:start + chunk]
        sz = sizes[start:start + chunk][:, None]
        mix = (sel @ flat) / sz
        acc = ((mix - one_hot) ** 2).sum(axis=1) * scale
        jensen = entropy_term(mix).sum(axis=1) - (sel @ ent_flat) / sz[:, 0]
        losses = alpha * acc + (1.0 - alpha) * (1.0 - jensen * scale)
        chunk_min = float(losses.min())
        if chunk_min > best_loss:
            continue
        tied = np.nonzero(losses == chunk_min)[0]
        candidate = min(
            tuple(int(i) for i in np.nonzero(sel[j])[0]) for j in tied
        )
        if chunk_min < best_loss or candidate < best_subset:
            best_loss = chunk_min
            best_subset = candidate

    # report the winner's value through the reference evaluator so the
    # returned number is bitwise the same thing callers would compute
    uniform = np.full(len(best_subset), 1.0 / len(best_subset))
    members = PredictionTensor(probs=t.probs[list(best_subset)])
    value = exact_loss(uniform, members, y, alpha).total
    return list(best_subset), float(value)


def test_pruned_subset_loss_near_enumeration_oracle():
    config = PruneConfig(threshold="auto", simplex_mode=True)
    within = 0
    bound_ok = 0
    worst_gap = 0.0
    for seed in range(20):
        spec = SyntheticSpec(
            num_models=10, num_samples=600, num_classes=5,
            base_accuracy_range=(0.5, 0.9), correlation=0.4,
            sharpness=5.0, seed=seed)
        t, y, _ = generate_synthetic_ensemble(spec)
        report = run_pipeline(spec, config)
        members = list(report.selected)
        sub = PredictionTensor(probs=t.probs[members])
        w = np.full(len(members), 1.0 / len(members))
        selected_loss = exact_loss(w, sub, y, report.best_alpha).total
        _, oracle_loss = brute_force_subset_oracle(t, y, report.best_alpha)
        if oracle_loss <= selected_loss + 1e-12:
            bound_ok += 1
        gap = (selected_loss - oracle_loss) / abs(oracle_loss)
        worst_gap = max(worst_gap, gap)
        if gap <= 0.10:
            within += 1
    ok = bound_ok == 20  # the lower bound is the hard guarantee
    report_line(ok, (
        f"enumeration oracle: lower bound held on {bound_ok}/20 seeds; "
        f"pruned-subset loss within 10% relative gap on {within}/20 "
        f"(reported, target >=16), worst gap {worst_gap:.3f}"))


def active_set_weights(surrogate, alpha, lam, simplex=False):
    """Exact weights of a pruning-program cell, by an active set (Lawson & Hanson).

    The cell minimizes alpha x'Px + c'x over x >= 0 with P = quad + ridge*I
    = R'R and c its linear cost (``build_pruning_socp``): in free mode that
    is NNLS on (R, -R^{-T} c / (2 alpha)).  In simplex mode (1'x = 1) a
    heavy sum row appended to the NNLS guesses the support.  An exact KKT
    solve on the support gives the weights, and the dual slacks off it must
    be nonnegative: that certifies the optimum.
    """
    m = surrogate.num_models
    q = surrogate.quad + surrogate.ridge * np.eye(m)
    c = surrogate.combined_linear(alpha)
    if not simplex:
        c = c + lam * max(0.0, -c.min())
    root = cholesky_lower(q).T
    target = -scipy.linalg.solve_triangular(root, c, trans="T") / (2.0 * alpha)
    if simplex:
        heavy = 1e4 * np.abs(root).max()
        guess, _ = nnls(np.vstack((root, np.full(m, heavy))), np.append(target, heavy))
    else:
        guess, _ = nnls(root, target)
    support = np.nonzero(guess > 0)[0]
    size = support.size
    # [2 alpha P_SS, 1; 1', 0] [x_S; nu] = [-c_S; 1] in simplex mode
    kkt = np.zeros((size + simplex, size + simplex))
    kkt[:size, :size] = 2.0 * alpha * q[np.ix_(support, support)]
    rhs = -c[support]
    if simplex:
        kkt[:size, size] = kkt[size, :size] = 1.0
        rhs = np.append(rhs, 1.0)
    solution = np.linalg.solve(kkt, rhs) if rhs.size else rhs
    w = np.zeros(m)
    w[support] = solution[:size]
    slack = 2.0 * alpha * q @ w + c + (solution[size] if simplex else 0.0)
    slack[support] = 0.0
    scale = np.abs(c).max() + 2.0 * alpha * np.abs(q).max()
    assert w.min() >= 0.0 and slack.min() >= -1e-12 * scale, "support guess not optimal"
    return w


def oracle_errors(spec, alphas, modes):
    """(same support, max |w - w*|) of each grid cell of the spec's train split.

    Free mode runs every (alpha, lambda) cell; lambda leaves the simplex
    program, so simplex mode runs one cell per alpha.
    """
    t, y, splits = generate_synthetic_ensemble(spec)
    surrogate = build_surrogate(t, y, splits.train_indices)
    errors = []
    for simplex in modes:
        for alpha, lam in itertools.product(alphas, LAMBDA_GRID[:1] if simplex else LAMBDA_GRID):
            program, vmap = build_pruning_socp(surrogate, alpha, lam, simplex=simplex)
            w = _solve_weights(program, vmap, simplex)
            expected = active_set_weights(surrogate, alpha, lam, simplex)
            errors.append((np.array_equal(w != 0, expected != 0),
                           float(np.abs(w - expected).max())))
    return errors


def test_grid_weights_match_active_set_oracle():
    # the shapes, seeds and grids of the benchmark's three workloads
    # (grid-simplex-m60, grid-free-m40, and alphas around ingest-c100's 0.4),
    # drawn by the generator without the dataset files' round trip
    workloads = (
        (60, 1000, 10, ALPHA_GRID, (True,)),
        (40, 4000, 10, ALPHA_GRID, (False,)),
        (20, 2000, 100, (0.1, 0.3, 0.4, 0.5, 0.7, 0.9), (True,)),
    )
    workload = []
    for seed in (1009, 2027):
        for models, samples, classes, alphas, modes in workloads:
            spec = SyntheticSpec(models, samples, classes, seed=seed)
            workload += oracle_errors(spec, alphas, modes)
    accept = []
    for num_classes in (10, 100):
        for seed in range(10):
            accept += oracle_errors(benchmark_spec(num_classes, seed), ALPHA_GRID, (False, True))
    failed = [sum(not same or error > 1e-9 for same, error in cells)
              for cells in (workload, accept)]
    ok = failed == [0, 0] and (len(workload), len(accept)) == (72, 600)
    report_line(ok, (
        f"active-set oracle: {failed[0]}/{len(workload)} workload cells and "
        f"{failed[1]}/{len(accept)} acceptance cells differ in support or by more "
        f"than 1e-9 (budget 0); worst |w - w*| {max(e for _, e in workload):.2e} "
        f"and {max(e for _, e in accept):.2e}"))


def test_cli_byte_identical_across_repeated_runs(tmp_path, capsys):
    data_a = tmp_path / "data_a"
    data_b = tmp_path / "data_b"
    gen = ["gen", "--models", "8", "--samples", "120", "--classes", "3",
           "--seed", "7", "--out"]
    assert cli.main(gen + [str(data_a)]) == 0
    assert cli.main(gen + [str(data_b)]) == 0
    capsys.readouterr()
    mismatches = []
    for name in ("manifest.txt", "predictions.csv", "labels.csv"):
        if (data_a / name).read_bytes() != (data_b / name).read_bytes():
            mismatches.append(f"gen:{name}")

    program = ConeProgram(num_vars=2, objective=[1, 0], eq_A=[[1, 1]], eq_b=[1],
                          cones=(Cone(NONNEG_ORTHANT, (0, 1)),), free_vars=())
    program_file = tmp_path / "program.sp"
    write_cone_program(program, program_file)

    data = str(data_a)
    argvs = {
        "check": ["check", data],
        "fit": ["fit", data, "--simplex", "--alpha", "0.4"],
        "cv": ["cv", data, "--simplex"],
        "prune": ["prune", data, "--simplex", "--threshold", "0.05"],
        "run": ["run", data, "--simplex", "--auto-threshold"],
        "solve": ["solve", str(program_file)],
    }
    for name, argv in argvs.items():
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        if not first or first != second:
            mismatches.append(name)
    ok = not mismatches
    report_line(ok, (
        "determinism: byte-identical output across repeated runs for gen, "
        "check, fit, cv, prune, run, solve"
        + ("" if ok else f" (mismatches: {', '.join(mismatches)})")))
