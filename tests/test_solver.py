"""Interior-point solver: closed-form cases, statuses, residual certification."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from socprune.conic import (
    NONNEG_ORTHANT,
    QUADRATIC,
    ROTATED_QUADRATIC,
    SOLVE_STATUSES,
    Cone,
    ConeProgram,
    ConicSolution,
    build_pruning_socp,
    cholesky_lower,
    read_cone_program,
)
from socprune.errors import MalformedProgram, ShapeMismatch
from socprune.loss import QuadraticSurrogate
from socprune.solver import (
    _CERT_TOL,
    _REGULARIZATION,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERS,
    STATUS_NUMERICAL,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    SolverSettings,
    _SocScale,
    _inf_norm,
    _kkt_solve,
    _regularized_solve,
    kkt_residuals,
    solve,
)

from conftest import no_warning_filter
from test_acceptance import cone_margin, qp_to_socp


def surrogate_from(quad, lin, ridge=0.0):
    m = len(lin)
    return QuadraticSurrogate(
        quad=np.asarray(quad, dtype=float),
        lin_accuracy=np.asarray(lin, dtype=float),
        lin_diversity=np.zeros(m),
        constant=0.0,
        ridge=ridge,
    )


def norm_program(pin_x=False):
    """min t  s.t.  ||x - (3,4)|| <= t, optionally with x pinned to 0."""
    # variables: t, v = x - (3,4), free x
    rows = [[0, 1, 0, -1, 0], [0, 0, 1, 0, -1]] + [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]] * pin_x
    return ConeProgram(num_vars=5, objective=[1, 0, 0, 0, 0], eq_A=rows,
                       eq_b=[-3, -4] + [0, 0] * pin_x,
                       cones=(Cone(QUADRATIC, (0, 1, 2)),), free_vars=(3, 4))


class TestClosedFormCases:
    def test_lp_corner(self):
        sol = solve(ConeProgram(num_vars=1, objective=[1], eq_A=np.zeros((0, 1)), eq_b=[],
                                cones=(Cone(NONNEG_ORTHANT, (0,)),), free_vars=()))
        assert sol.status == STATUS_OPTIMAL
        assert abs(sol.x[0]) < 1e-7

    def test_norm_free_x(self):
        sol = solve(norm_program(pin_x=False))
        assert sol.status == STATUS_OPTIMAL
        assert abs(sol.x[0]) < 1e-6
        assert np.allclose(sol.x[3:5], [3.0, 4.0], atol=1e-6)

    def test_norm_pinned_x(self):
        sol = solve(norm_program(pin_x=True))
        assert sol.status == STATUS_OPTIMAL
        assert abs(sol.x[0] - 5.0) < 1e-6

    def test_epigraph_closed_form(self):
        # min t + c.x with Q=I, c=(-2,0): x*=(1,0), t*=1, objective -1
        program, vmap = build_pruning_socp(
            surrogate_from(np.eye(2), [-2.0, 0.0]), alpha=1.0, lam=0.0
        )
        sol = solve(program)
        assert sol.status == STATUS_OPTIMAL
        x = sol.x[list(vmap.x_indices)]
        assert np.allclose(x, [1.0, 0.0], atol=1e-6)
        assert abs(sol.x[vmap.t_index] - 1.0) < 1e-6
        assert abs(program.objective @ sol.x - (-1.0)) < 1e-6

    def test_rotated_cone_closed_form(self):
        # min u+v  s.t.  2uv >= w^2, w = 1: optimum u=v=1/sqrt(2)
        program = ConeProgram(num_vars=3, objective=[1, 1, 0], eq_A=[[0, 0, 1]], eq_b=[1],
                              cones=(Cone(ROTATED_QUADRATIC, (0, 1, 2)),), free_vars=())
        sol = solve(program)
        assert sol.status == STATUS_OPTIMAL
        root_half = 1.0 / np.sqrt(2.0)
        assert np.allclose(sol.x[:2], [root_half, root_half], atol=1e-6)

    def test_one_dimensional_quadratic_cone(self):
        # min x0 + x1  s.t.  x0 in Q^1 (x0 >= 0), x1 >= 0, x0 + 2 x1 = 2: x = (0, 1)
        program = ConeProgram(num_vars=2, objective=[1, 1], eq_A=[[1, 2]], eq_b=[2],
                              cones=(Cone(QUADRATIC, (0,)), Cone(NONNEG_ORTHANT, (1,))),
                              free_vars=())
        sol = solve(program)
        assert sol.status == STATUS_OPTIMAL
        assert np.allclose(sol.x, [0.0, 1.0], atol=1e-7)

    def test_polish_with_two_active_cones(self):
        # separable blocks.  Two quadratic cones are active at the optimum:
        # min c'x with x0 = r has x = r (1, -c1/||c1||) and s = (||c1||, c1).
        # One cone is interior, fixed by equalities (s = 0), and two orthant
        # coordinates with c > 0 and no equality are pinned (x = 0, s = c).
        rays = [((0, 1, 2), 1.0, [0.0, 3.0, 4.0]), ((3, 4, 5, 6), 2.0, [1.0, 1.0, -2.0, 2.0])]
        interior, inner_x, inner_c = [7, 8, 9], [1.0, 0.3, -0.2], [1.0, 2.0, 3.0]
        pinned, pinned_c = [10, 11], [0.5, 2.0]
        objective, x_star, s_star = np.zeros(12), np.zeros(12), np.zeros(12)
        rows, rhs = [], []
        for idx, head, c in rays:
            c1 = np.array(c[1:])
            objective[list(idx)] = c
            x_star[list(idx)] = head * np.concatenate(([1.0], -c1 / np.linalg.norm(c1)))
            s_star[list(idx)] = np.concatenate(([np.linalg.norm(c1)], c1))
            rows.append(idx[0])
            rhs.append(head)
        objective[interior], x_star[interior] = inner_c, inner_x
        objective[pinned] = s_star[pinned] = pinned_c
        program = ConeProgram(num_vars=12, objective=objective, eq_A=np.eye(12)[rows + interior],
                              eq_b=rhs + inner_x,
                              cones=(*(Cone(QUADRATIC, idx) for idx, _, _ in rays),
                                     Cone(QUADRATIC, tuple(interior)),
                                     Cone(NONNEG_ORTHANT, tuple(pinned))),
                              free_vars=())
        sol = solve(program)
        assert sol.status == STATUS_OPTIMAL
        assert np.abs(sol.x - x_star).max() <= 1e-12
        assert np.abs(sol.s - s_star).max() <= 1e-12
        # only the polished point has exact zeros and s = theta Jx on a ray
        assert (sol.x[pinned] == 0.0).all() and (sol.s[interior] == 0.0).all()
        for idx, _, _ in rays:
            x, s = sol.x[list(idx)], sol.s[list(idx)]
            assert np.allclose(s[1:], -(s[0] / x[0]) * x[1:], rtol=1e-14, atol=0.0)


def free_sign_l1_program(quad, lin, alpha, penalty):
    """min alpha*t + lin'x + penalty*sum(u)  s.t.  t >= x'quad x, u_i >= |x_i|.

    The sign-free L1 pruning program: x is free in sign, each u_i >= |x_i|
    is a 2-dimensional quadratic cone, and t >= x'quad x is the epigraph
    cone over aux = (1 + t, 2 R x, 1 - t) with R'R = quad, t >= 0.
    """
    m = len(lin)
    # variables: x = 0..m-1, t = m, u = m+1..2m, aux = 2m+1..3m+2
    t, u, aux = m, range(m + 1, 2 * m + 1), np.arange(2 * m + 1, 3 * m + 3)
    objective = np.concatenate((lin, [alpha], np.full(m, penalty), np.zeros(m + 2)))
    A = np.zeros((m + 2, objective.size))
    A[np.arange(m + 2), aux] = 1.0
    A[[0, m + 1], t] = -1.0, 1.0
    A[1:m + 1, :m] = -2.0 * cholesky_lower(quad).T
    b = np.zeros(m + 2)
    b[[0, m + 1]] = 1.0
    cones = (Cone(QUADRATIC, aux), *(Cone(QUADRATIC, (ui, i)) for i, ui in enumerate(u)),
             Cone(NONNEG_ORTHANT, (t,)))
    return ConeProgram(num_vars=objective.size, objective=objective, eq_A=A, eq_b=b,
                       cones=cones, free_vars=())


class TestTwoDimensionalCones:
    def test_sign_free_l1_programs_solve_to_machine_precision(self):
        # no pruning program has 2-d quadratic cones, so these user programs
        # guard the solver's path that puts u >= |x| in the orthant as
        # u + x >= 0, u - x >= 0; without it some instance ends numerical
        # and the polish is not adopted (residuals near tol, 1e-8)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(60):
            m = int(rng.integers(2, 41))
            g = rng.normal(size=(m, m))
            quad = g @ g.T / m + 1e-3 * np.eye(m)
            lin = rng.normal(size=m)
            alpha = rng.uniform(0.2, 1.0)
            program = free_sign_l1_program(quad, alpha * lin, alpha, rng.uniform(0.01, 1.5))
            sol = solve(program)
            assert sol.status == STATUS_OPTIMAL
            worst = max(worst, *kkt_residuals(program, sol))
        assert worst <= 1e-10


def lp_with_stored_zero_row():
    """min x0 over x0 >= 0 with the row 0.0 * x0 = 1 stored explicitly."""
    return ConeProgram(num_vars=1, objective=[1], eq_A=[[0]], eq_b=[1],
                       cones=(Cone(NONNEG_ORTHANT, (0,)),), free_vars=())


def qp_with_zero_row():
    """A QP whose second equality row is all zeros with rhs 2."""
    return qp_to_socp(np.eye(2), np.zeros(2), 0.0,
                      A=[[1.0, 0.0], [0.0, 0.0]], b=[1.0, 2.0]).program


def infeasible_lp():
    """x0 = -1 over x0 >= 0."""
    return ConeProgram(num_vars=1, objective=[0], eq_A=[[1]], eq_b=[-1],
                       cones=(Cone(NONNEG_ORTHANT, (0,)),), free_vars=())


def unbounded_lp():
    """min -x0 over x0 >= 0."""
    return ConeProgram(num_vars=1, objective=[-1], eq_A=np.zeros((0, 1)), eq_b=[],
                       cones=(Cone(NONNEG_ORTHANT, (0,)),), free_vars=())


def pruning_program():
    program, _ = build_pruning_socp(
        surrogate_from(np.eye(6) + 0.1, np.linspace(-1.0, 1.0, 6)), alpha=0.7, lam=0.2
    )
    return program


def free_program(objective, rows=(), rhs=()):
    """min objective'x over free x subject to rows x = rhs."""
    n = len(objective)
    return ConeProgram(num_vars=n, objective=objective, eq_A=np.reshape(rows, (-1, n)),
                       eq_b=rhs, cones=(), free_vars=range(n))


class TestStatuses:
    def test_infeasible(self):
        sol = solve(infeasible_lp())
        assert sol.status == STATUS_INFEASIBLE

    def test_unbounded(self):
        sol = solve(unbounded_lp())
        assert sol.status == STATUS_UNBOUNDED

    def test_max_iters(self, rng):
        program, _ = build_pruning_socp(
            surrogate_from(np.eye(6) + 0.1, rng.normal(size=6)), alpha=0.7, lam=0.2
        )
        sol = solve(program, SolverSettings(max_iters=2))
        assert sol.status == STATUS_MAX_ITERS

    def test_malformed_input(self):
        with pytest.raises(MalformedProgram):
            solve("not a program")

    @pytest.mark.parametrize("program", [
        qp_with_zero_row,
        lp_with_stored_zero_row,
    ], ids=["qp_zero_row", "stored_zero"])
    def test_zero_row_with_nonzero_rhs_infeasible_in_presolve(self, program):
        sol = solve(program())
        assert sol.status == STATUS_INFEASIBLE
        assert sol.iterations == 0

    def test_zero_row_with_zero_rhs_dropped(self):
        plain = qp_to_socp(np.eye(2), np.zeros(2), 0.0, A=[[1.0, 1.0]], b=[1.0])
        padded = qp_to_socp(np.eye(2), np.zeros(2), 0.0,
                            A=[[1.0, 1.0], [0.0, 0.0]], b=[1.0, 0.0])
        assert padded.program.num_eqs == plain.program.num_eqs + 1
        a, b = solve(plain.program), solve(padded.program)
        assert a.status == b.status == STATUS_OPTIMAL
        assert np.array_equal(padded.minimizer(b), plain.minimizer(a))
        assert np.allclose(plain.minimizer(a), [0.5, 0.5], atol=1e-6)

    @pytest.mark.parametrize("program, max_iters, status", [
        (qp_with_zero_row, 100, STATUS_INFEASIBLE),
        (lp_with_stored_zero_row, 100, STATUS_INFEASIBLE),
        (infeasible_lp, 100, STATUS_INFEASIBLE),
        (unbounded_lp, 100, STATUS_UNBOUNDED),
        (pruning_program, 1, STATUS_MAX_ITERS),
        (pruning_program, 100, STATUS_OPTIMAL),
        (lambda: free_program([1.0, 1.0], [[1.0, 1.0]], [1.0]), 100, STATUS_OPTIMAL),
        (lambda: free_program([0.0], [[1.0], [1.0]], [1.0, 2.0]), 100, STATUS_INFEASIBLE),
        (lambda: free_program([1.0, 0.0], [[0.0, 1.0]], [1.0]), 100, STATUS_UNBOUNDED),
        (lambda: free_program([0.0, 0.0]), 100, STATUS_OPTIMAL),
    ], ids=["presolve_qp_zero_row", "presolve_stored_zero", "ip_infeasible",
            "ip_unbounded", "max_iters", "optimal", "free_optimal", "free_infeasible",
            "free_unbounded", "free_no_rows"])
    def test_every_exit_reports_its_own_residuals(self, program, max_iters, status):
        program = program()
        sol = solve(program, SolverSettings(max_iters=max_iters))
        assert sol.status == status
        assert (sol.gap, sol.primal_residual, sol.dual_residual) == kkt_residuals(program, sol)

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
    def test_overflowing_iterate_ends_as_numerical(self, scale):
        # x's overflows at the starting point, so the KKT right-hand side is
        # not finite: the solve ends as numerical instead of raising
        sol = solve(ConeProgram(num_vars=2, objective=[scale, 2 * scale],
                                eq_A=np.zeros((0, 2)), eq_b=[],
                                cones=(Cone(NONNEG_ORTHANT, (0, 1)),), free_vars=()))
        assert (sol.status, sol.iterations) == (STATUS_NUMERICAL, 0)
        assert np.isnan(sol.gap)

    def test_extreme_scales_never_raise(self):
        # small programs with every cone kind, objective and rhs scales up to
        # 1e300: each solve returns a status, most of them numerical
        rng = np.random.default_rng(7)
        statuses = []
        for _ in range(40):
            sizes = [int(rng.integers(1, 4)), int(rng.choice([0, 2, 3])),
                     int(rng.choice([0, 3])), int(rng.integers(0, 2))]
            n = sum(sizes)
            bounds = np.cumsum([0] + sizes)
            cones = [Cone(kind, tuple(range(a, b)))
                     for kind, a, b in zip((NONNEG_ORTHANT, QUADRATIC, ROTATED_QUADRATIC),
                                           bounds, bounds[1:]) if b > a]
            m = int(rng.integers(0, min(3, n)))
            program = ConeProgram(
                num_vars=n, objective=rng.normal(size=n) * 10.0 ** rng.uniform(0, 300),
                eq_A=rng.normal(size=(m, n)), eq_b=rng.normal(size=m) * 10.0 ** rng.uniform(0, 300),
                cones=tuple(cones), free_vars=tuple(range(bounds[3], n)))
            statuses.append(solve(program).status)
        assert set(statuses) <= set(SOLVE_STATUSES)
        assert statuses.count(STATUS_NUMERICAL) > len(statuses) // 2

    def test_all_free_optimum_and_certificate(self):
        sol = solve(free_program([1.0, 1.0], [[1.0, 1.0]], [1.0]))
        assert sol.status == STATUS_OPTIMAL
        assert np.allclose(sol.x, [0.5, 0.5], atol=1e-12)
        assert np.allclose(sol.y, [1.0], atol=1e-12)
        program = free_program([0.0], [[1.0], [1.0]], [1.0, 2.0])
        sol = solve(program)
        assert sol.status == STATUS_INFEASIBLE
        assert np.allclose(program.eq_A.T @ sol.y, 0.0, atol=1e-12)
        assert program.eq_b @ sol.y > 0.0


def random_feasible_program(rng, kind):
    """A primal-feasible program: a rotated cone or 2-d quadratic cones, then an orthant.

    The objective is equal on the first two coordinates, where the
    solver's rotation of the cone pair changes its infinity norm the most;
    most instances are bounded, some are not.
    """
    if kind == "rotated":
        k = int(rng.integers(3, 5))
        head = [Cone(ROTATED_QUADRATIC, tuple(range(k)))]
    else:
        k = 2 * int(rng.integers(1, 3))
        head = [Cone(QUADRATIC, (i, i + 1)) for i in range(0, k, 2)]
    n = k + int(rng.integers(1, 4))
    A = rng.normal(size=(int(rng.integers(1, 3)), n))
    x0 = np.abs(rng.normal(size=n)) + 1.0  # inside every cone below
    if kind == "rotated":
        x0[2:k] = 0.3 * rng.normal(size=k - 2)
    else:
        x0[1:k:2] = rng.uniform(-0.9, 0.9, size=k // 2) * x0[0:k:2]
    c = rng.normal(size=n)
    c[:2] = rng.uniform(1.0, 10.0)
    return ConeProgram(num_vars=n, objective=c, eq_A=A, eq_b=A @ x0,
                       cones=(*head, Cone(NONNEG_ORTHANT, tuple(range(k, n)))), free_vars=())


class TestOptimalMeansReportedWithinTol:
    # status optimal certifies the gap and residuals the solution reports,
    # taken in the program's variables, also where the solver works on
    # rotated cone pairs
    @staticmethod
    def assert_certified(sol, tol):
        worst = max(sol.gap, sol.primal_residual, sol.dual_residual)
        assert sol.status != STATUS_OPTIMAL or worst <= tol, (sol.status, worst)

    def test_rotated_cone_program_at_loose_tol(self):
        # unbounded: the dual residual stays near 1.33e-2 while the gap and
        # the primal residual fall below 1e-2
        program = read_cone_program(Path(__file__).parent / "golden" / "rotated_cone_tol_1e-2.sp")
        self.assert_certified(solve(program, SolverSettings(tol=1e-2)), 1e-2)

    @pytest.mark.parametrize("kind", ["rotated", "two_dimensional"])
    def test_random_rotated_and_two_dimensional_programs(self, kind):
        rng = np.random.default_rng(0)
        optimal = 0
        for _ in range(200):
            sol = solve(random_feasible_program(rng, kind), SolverSettings(tol=1e-2))
            self.assert_certified(sol, 1e-2)
            optimal += sol.status == STATUS_OPTIMAL
        assert optimal >= 100


def cone_interior(rng, cones, n):
    """A point strictly inside every cone, 0 off the cones."""
    v = np.zeros(n)
    for cone in cones:
        idx = np.asarray(cone.var_indices)
        k = idx.size
        if cone.kind == NONNEG_ORTHANT or k == 1:
            v[idx] = rng.uniform(0.5, 2.0, k)
        elif cone.kind == QUADRATIC:
            tail = rng.normal(size=k - 1)
            v[idx] = np.concatenate(([np.linalg.norm(tail) + rng.uniform(0.5, 2.0)], tail))
        else:
            rest = rng.normal(size=k - 2)
            head = rng.uniform(0.5, 2.0)
            v[idx] = np.concatenate(([head, 0.5 * rest @ rest / head + rng.uniform(0.5, 2.0)], rest))
    return v


def constructed_program(rng, family):
    """A program of every cone kind whose status is known by construction.

    ``feasible``: b = A x0 and c = A'y0 + s0 with x0 and s0 interior, so
    both sides are strictly feasible and the program has an optimum.
    ``farkas``: A is shifted so that A'y0 = -s0 and b so that b'y0 = 1, so
    (y0, s0) proves the program infeasible; it has no free variables.
    ``recession``: A d = 0 for an interior d, b = A x0 and c'd = -1, so d
    is a ray along which the objective falls without bound.
    """
    cones, n = [], 0
    for _ in range(int(rng.integers(1, 4))):
        kind = (NONNEG_ORTHANT, QUADRATIC, ROTATED_QUADRATIC)[int(rng.integers(3))]
        k = int(rng.integers(3, 5)) if kind == ROTATED_QUADRATIC else int(rng.integers(1, 5))
        cones.append(Cone(kind, tuple(range(n, n + k))))
        n += k
    num_free = 0 if family == "farkas" else int(rng.integers(0, 3))
    free = np.arange(n, n + num_free)
    n += num_free
    m = int(rng.integers(max(1, num_free), max(2, n)))
    A = rng.normal(size=(m, n))
    c = rng.normal(size=n)
    x0 = cone_interior(rng, cones, n)
    x0[free] = rng.normal(size=num_free)
    b = A @ x0
    if family == "feasible":
        c = A.T @ rng.normal(size=m) + cone_interior(rng, cones, n)
    elif family == "farkas":
        y0 = rng.normal(size=m)
        A -= np.outer(y0, A.T @ y0 + cone_interior(rng, cones, n)) / (y0 @ y0)
        b = rng.normal(size=m)
        b += (1.0 - b @ y0) * y0 / (y0 @ y0)
    else:
        d = cone_interior(rng, cones, n)
        d[free] = rng.normal(size=num_free)
        A -= np.outer(A @ d, d) / (d @ d)
        if n == 1:
            # A d = 0 makes A zero; its rounding residue would pin x to x0
            A[:] = 0.0
        b = A @ x0
        c -= (c @ d + 1.0) * d / (d @ d)
    return ConeProgram(num_vars=n, objective=c, eq_A=A, eq_b=b, cones=tuple(cones),
                       free_vars=tuple(free))


def assert_certified(program, sol):
    """The returned point proves ``sol.status`` in the program's variables.

    A ray's equations hold to _CERT_TOL relative to ||A|| ||ray|| (induced
    inf-norms), and the ray lies in every cone (the dual cone for s; every
    cone here is self-dual).
    """
    A, b, c = program.eq_A, program.eq_b, program.objective
    if sol.status == STATUS_OPTIMAL:
        assert max(sol.gap, sol.primal_residual, sol.dual_residual) <= 1e-8
        return
    if sol.status == STATUS_INFEASIBLE:
        # b'y > 0 with A'y + s = 0 and s in the dual cone
        assert b @ sol.y > 0
        in_cone = sol.s
        residual = _inf_norm(A.T @ sol.y + sol.s)
        bound = np.abs(A).sum(axis=0).max() * _inf_norm(sol.y) + _inf_norm(sol.s)
    else:
        # c'x < 0 with A x = 0 and x in the cones
        assert sol.status == STATUS_UNBOUNDED
        assert c @ sol.x < 0
        in_cone = sol.x
        residual = _inf_norm(A @ sol.x)
        bound = np.abs(A).sum(axis=1).max(initial=0.0) * _inf_norm(sol.x)
    assert residual <= _CERT_TOL * bound
    for cone in program.cones:
        part = in_cone[list(cone.var_indices)]
        # only the margin's sign is meaningful; allow rounding at its own scale
        assert cone_margin(cone.kind, part) >= -1e-12 * (1.0 + part @ part)


class TestEveryIterateExit:
    # the solver tests optimality and both certificates on every iterate,
    # so a program with a known answer ends with it
    @pytest.mark.parametrize("family, status", [
        ("feasible", STATUS_OPTIMAL),
        ("farkas", STATUS_INFEASIBLE),
        ("recession", STATUS_UNBOUNDED),
    ])
    def test_constructed_programs_end_with_their_status(self, family, status):
        rng = np.random.default_rng(2)
        for i in range(100):
            program = constructed_program(rng, family)
            sol = solve(program)
            assert sol.status == status, (i, sol.status, sol.iterations)
            assert_certified(program, sol)

    def test_cone_free_unbounded_ray(self):
        # with no cone the loop takes plain Newton steps along the null space
        program = free_program([1.0, 0.0], [[0.0, 1.0]], [1.0])
        sol = solve(program)
        assert sol.status == STATUS_UNBOUNDED
        assert_certified(program, sol)

    def test_unbounded_ray_at_the_starting_point(self):
        # min -x0 over x0 >= 0: the starting point is already a ray
        sol = solve(unbounded_lp())
        assert (sol.status, sol.iterations) == (STATUS_UNBOUNDED, 0)

    @pytest.mark.parametrize("objective, rhs", [(-1e7, 1.0), (1.0, 1e7)])
    def test_scaled_one_variable_program_is_optimal(self, objective, rhs):
        # min objective * x0 over x0 = rhs, x0 >= 0 has the one point x0 = rhs;
        # a large c shrinks x/(-c'x) and a large b shrinks y/b'y, so a ray
        # test with an absolute term would pass either at the start
        program = ConeProgram(num_vars=1, objective=[objective], eq_A=[[1.0]], eq_b=[rhs],
                              cones=(Cone(NONNEG_ORTHANT, (0,)),), free_vars=())
        sol = solve(program)
        assert sol.status == STATUS_OPTIMAL
        assert sol.x[0] == pytest.approx(rhs, rel=1e-7)

    # a large b slows convergence: 2 of these 100 end max_iters
    @pytest.mark.parametrize("field, min_optimal", [("objective", 100), ("eq_b", 98)])
    def test_scaling_c_or_b_certifies_nothing(self, field, min_optimal):
        # the ray tests are homogeneous in the ray and read neither b nor c,
        # so a feasible, bounded program scaled by 1e7 is never a ray
        rng = np.random.default_rng(3)
        statuses = []
        for _ in range(100):
            program = constructed_program(rng, "feasible")
            scaled = dataclasses.replace(program, **{field: 1e7 * getattr(program, field)})
            statuses.append(solve(scaled).status)
        assert STATUS_INFEASIBLE not in statuses and STATUS_UNBOUNDED not in statuses
        assert statuses.count(STATUS_OPTIMAL) >= min_optimal


def random_kkt_blocks(rng):
    """(H, A) shaped like an interior-point iteration's KKT system.

    H is a positive diagonal spanning eight decades with its leading block
    replaced by the Nesterov-Todd Hessian of one quadratic cone whose
    iterates lie near the cone boundary; A is a random m x n matrix, m < n.
    """
    n = int(rng.integers(4, 40))
    m = int(rng.integers(1, n))
    k = int(rng.integers(3, min(n, 8) + 1))
    H = np.diag(10.0 ** rng.uniform(-4, 4, size=n))
    idx = np.arange(k)
    x = rng.normal(size=k)
    x[0] = np.linalg.norm(x[1:]) * (1.0 + 10.0 ** rng.uniform(-6, 0))
    s = rng.normal(size=k)
    s[0] = np.linalg.norm(s[1:]) * (1.0 + 10.0 ** rng.uniform(-6, 0))
    H[np.ix_(idx, idx)] = _SocScale(idx, x, s).hessian()
    return H, rng.normal(size=(m, n))


def kkt_system(H, A):
    """K = [[-H, A'], [A, 0]] and ||K||_inf, as ``solve`` builds them."""
    m = A.shape[0]
    K = np.block([[-H, A.T], [A, np.zeros((m, m))]])
    return K, np.abs(K).sum(axis=1).max()


class TestKktSolver:
    def test_refined_solve_matches_unregularized_matrix(self):
        # a single solve with the regularized factors is off by about 1e-5
        # relative on these systems, so this fails if refinement is dropped
        # or refines against the regularized matrix
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            H, A = random_kkt_blocks(rng)
            n, m = H.shape[0], A.shape[0]
            rhs = rng.normal(size=n + m)
            K, k_norm = kkt_system(H, A)
            expected = np.linalg.solve(K, rhs)
            for z in (np.concatenate(_kkt_solve(K, n, k_norm, rhs)),
                      _regularized_solve(K, n, rhs)):
                worst = max(worst, np.abs(z - expected).max() / np.abs(expected).max())
        assert worst <= 1e-10

    def test_zero_pivot_raises_linalg_error(self):
        # K has a zero row, and -H - delta vanishes, so the regularized matrix
        # has a zero pivot too; solve() maps LinAlgError to status numerical
        K, k_norm = kkt_system(-_REGULARIZATION * np.eye(2), np.zeros((1, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            _kkt_solve(K, 2, k_norm, np.ones(3))

    def test_repeated_equality_row_solves_through_the_fallback(self, monkeypatch):
        # two equal rows make K exactly singular at every iterate: each
        # direction comes from the regularized, refined solve
        calls = []

        def counted(K, n, rhs):
            calls.append(rhs.size)
            return _regularized_solve(K, n, rhs)

        monkeypatch.setattr("socprune.solver._regularized_solve", counted)
        program = ConeProgram(num_vars=2, objective=[1, 2], eq_A=[[1, 1], [1, 1]], eq_b=[1, 1],
                              cones=(Cone(NONNEG_ORTHANT, (0, 1)),), free_vars=())
        sol = solve(program)
        assert sol.status == STATUS_OPTIMAL
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-7)
        assert calls

    def test_zero_pivot_solve_sets_no_warning_filter(self, monkeypatch):
        # unregularized, two equal equality rows make the KKT matrix exactly
        # singular: its LU meets a zero pivot, and solve() ends as numerical
        monkeypatch.setattr("socprune.solver._REGULARIZATION", 0.0)
        program = ConeProgram(num_vars=2, objective=[1, 1], eq_A=[[1, 1], [1, 1]], eq_b=[1, 1],
                              cones=(Cone(NONNEG_ORTHANT, (0, 1)),), free_vars=())
        with no_warning_filter():
            assert solve(program).status == STATUS_NUMERICAL

    def test_non_finite_system_raises_linalg_error(self):
        # an iterate that overflowed; solve() maps this to status numerical
        K, k_norm = kkt_system(np.diag([1.0, np.inf]), np.ones((1, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            _kkt_solve(K, 2, k_norm, np.ones(3))
        K, k_norm = kkt_system(np.eye(2), np.ones((1, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            _kkt_solve(K, 2, k_norm, np.array([1.0, np.nan, 0.0]))


class TestKktResiduals:
    def equality_lp(self):
        return ConeProgram(num_vars=2, objective=[1, 1], eq_A=[[1, -1]], eq_b=[0],
                           cones=(Cone(NONNEG_ORTHANT, (0,)), Cone(NONNEG_ORTHANT, (1,))),
                           free_vars=())

    def hand_solution(self, x):
        return ConicSolution(
            x=np.asarray(x, dtype=float), y=np.zeros(1), s=np.ones(2),
            status=STATUS_OPTIMAL, iterations=0, gap=0.0,
            primal_residual=0.0, dual_residual=0.0,
        )

    def test_exact_optimum(self):
        program = self.equality_lp()
        gap, pres, dres = kkt_residuals(program, self.hand_solution([0.0, 0.0]))
        assert gap <= 1e-12 and pres <= 1e-12 and dres <= 1e-12

    def test_perturbation_visible(self):
        program = self.equality_lp()
        _, pres, _ = kkt_residuals(program, self.hand_solution([1e-3, 0.0]))
        assert pres >= 9e-4

    def test_shape_mismatch(self):
        program = self.equality_lp()
        bad = ConicSolution(
            x=np.zeros(3), y=np.zeros(1), s=np.zeros(3),
            status=STATUS_OPTIMAL, iterations=0, gap=0.0,
            primal_residual=0.0, dual_residual=0.0,
        )
        with pytest.raises(ShapeMismatch):
            kkt_residuals(program, bad)

    def test_self_consistency_sweep(self):
        # statuses reported by the solver agree with independent residuals
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 6))
            program, _ = build_pruning_socp(
                surrogate_from(
                    (lambda a: a @ a.T / m + 0.2 * np.eye(m))(rng.normal(size=(m, m))),
                    rng.normal(size=m),
                ),
                alpha=float(rng.uniform(0.1, 1.0)),
                lam=float(rng.uniform(0.0, 1.0)),
            )
            sol = solve(program)
            if sol.status == STATUS_OPTIMAL:
                gap, pres, dres = kkt_residuals(program, sol)
                assert max(gap, pres, dres) <= 1e-6
                checked += 1
        assert checked >= 35  # random instances are almost all solvable


class TestSolverQuality:
    def test_determinism_bitwise(self, rng):
        program, _ = build_pruning_socp(
            surrogate_from(np.eye(4) + 0.05, rng.normal(size=4)), alpha=0.5, lam=0.3
        )
        a = solve(program)
        b = solve(program)
        assert a.status == b.status and a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.s, b.s)

    def test_duality_gap_certified(self, rng):
        program, _ = build_pruning_socp(
            surrogate_from(np.eye(3) + 0.1, rng.normal(size=3)), alpha=0.8, lam=0.4
        )
        sol = solve(program)
        assert sol.status == STATUS_OPTIMAL
        primal = program.objective @ sol.x
        dual = program.eq_b @ sol.y
        assert abs(primal - dual) <= 1e-6 * (1 + abs(primal))

    def test_soft_threshold_quick(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 6))
            c = rng.normal(size=m) * 2
            lam = float(rng.uniform(0.0, 1.0))
            program, vmap = build_pruning_socp(
                surrogate_from(np.eye(m), c), alpha=1.0, lam=lam
            )
            sol = solve(program)
            assert sol.status == STATUS_OPTIMAL
            # nonnegative soft threshold at the penalty lam * lambda_max
            expected = np.maximum(-c - lam * max(0.0, -c.min()), 0.0) / 2.0
            assert np.allclose(sol.x[list(vmap.x_indices)], expected, atol=1e-6)

    def test_lambda_path_quick(self, rng):
        a = rng.normal(size=(4, 4))
        quad = a @ a.T / 4 + 0.2 * np.eye(4)
        lin = rng.normal(size=4) * 2
        norms = []
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            program, vmap = build_pruning_socp(
                surrogate_from(quad, lin), alpha=1.0, lam=lam
            )
            sol = solve(program)
            assert sol.status == STATUS_OPTIMAL
            norms.append(np.abs(sol.x[list(vmap.x_indices)]).sum())
        for lo, hi in zip(norms[1:], norms[:-1]):
            assert lo <= hi + 1e-7

    def test_settings_validation(self):
        from socprune.errors import DomainError

        with pytest.raises(DomainError):
            SolverSettings(tol=0.0)
        with pytest.raises(DomainError):
            SolverSettings(max_iters=0)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, "5", True])
    def test_max_iters_must_be_an_integer(self, max_iters):
        from socprune.errors import DomainError

        with pytest.raises(DomainError, match="max_iters must be an integer"):
            SolverSettings(max_iters=max_iters)

    def test_verbose_trace(self, rng, capsys):
        program, _ = build_pruning_socp(
            surrogate_from(np.eye(2), rng.normal(size=2)), alpha=1.0, lam=0.1
        )
        solve(program, SolverSettings(verbose=True))
        err = capsys.readouterr().err
        assert "iter=" in err and "gap=" in err
