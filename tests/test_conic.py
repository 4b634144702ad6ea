"""Cone-program model, the pruning-program builder, and the QP transforms."""

import itertools
import math

import numpy as np
import pytest

from socprune import conic
from socprune.conic import (
    NONNEG_ORTHANT,
    QUADRATIC,
    ROTATED_QUADRATIC,
    Cone,
    ConeProgram,
    build_pruning_socp,
    cholesky_lower,
    parse_cone_program,
    read_cone_program,
    serialize_cone_program,
    write_cone_program,
)
from socprune.errors import (
    IoError,
    MalformedProgram,
    NotPositiveDefinite,
    ParseError,
    VersionMismatch,
)
from socprune.loss import QuadraticSurrogate, build_surrogate
from socprune.solver import STATUS_OPTIMAL, SolverSettings, solve

from conftest import random_instance
from test_acceptance import cone_margin, qp_to_socp

TIGHT = SolverSettings(tol=1e-11, max_iters=200)


def simplex_qp_oracle(q, c):
    """Exact argmin of x'qx + c'x over the probability simplex.

    Enumerates supports S; on S the equality-constrained KKT system
    [2 q_SS, 1; 1', 0] [x_S; nu] = [-c_S; 1] gives the candidate, which is
    optimal when x_S >= 0 and every gradient entry off S is >= -nu.
    """
    m = len(c)
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            idx = list(support)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * q[np.ix_(idx, idx)]
            kkt[:size, size] = kkt[size, :size] = 1.0
            sol = np.linalg.solve(kkt, np.concatenate((-c[idx], [1.0])))
            x = np.zeros(m)
            x[idx] = sol[:size]
            grad = 2.0 * q @ x + c
            if x.min() >= -1e-12 and (grad + sol[size]).min() >= -1e-12:
                return x
    raise AssertionError("no support satisfies the KKT conditions")


def random_surrogate(rng, m, scale=1.0):
    a = rng.normal(size=(m, m))
    quad = a @ a.T / m + 0.1 * np.eye(m)
    return QuadraticSurrogate(
        quad=quad * scale,
        lin_accuracy=rng.normal(size=m) * scale,
        lin_diversity=rng.normal(size=m) * scale,
        constant=float(rng.normal()),
        ridge=1e-9,
    )


class TestCholeskyLower:
    def test_identity(self):
        assert np.array_equal(cholesky_lower(np.eye(3), 0.0), np.eye(3))

    def test_two_by_two(self):
        L = cholesky_lower(np.array([[4.0, 2.0], [2.0, 3.0]]), 0.0)
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(L, expected, atol=1e-12)
        assert np.tril(L).tolist() == L.tolist()

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0)

    def test_reconstruction_bound(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 8))
            a = rng.normal(size=(m, m))
            q = a @ a.T + 0.01 * np.eye(m)
            L = cholesky_lower(q, 0.0)
            err = np.linalg.norm(L @ L.T - q)
            assert err <= 1e-10 * np.linalg.norm(q)

    def test_ridge_applied(self):
        q = np.array([[0.0]])
        L = cholesky_lower(q, 4.0)
        assert abs(L[0, 0] - 2.0) < 1e-15


class TestBuildPruningSocp:
    def test_structure_counts_m2(self, rng):
        s = random_surrogate(rng, 2)
        program, vmap = build_pruning_socp(s, alpha=0.5, lam=0.3)
        m = 2
        # x(2) + t + cone auxiliaries (m + 2); m + 2 aux rows
        assert program.num_vars == 2 * m + 3
        assert program.num_eqs == m + 2
        quads = [c for c in program.cones if c.kind == QUADRATIC]
        assert [c.dim for c in quads] == [m + 2]
        assert len(vmap.x_indices) == m
        orthant = next(c for c in program.cones if c.kind == NONNEG_ORTHANT)
        assert set(orthant.var_indices) == {vmap.t_index, *vmap.x_indices}

    def test_simplex_structure(self, rng):
        m = 5
        program, vmap = build_pruning_socp(random_surrogate(rng, m), 0.5, 0.3,
                                           simplex=True)
        assert program.num_vars == 2 * m + 3
        assert program.num_eqs == m + 3
        assert all(c.dim != 2 for c in program.cones)
        orthant = next(c for c in program.cones if c.kind == NONNEG_ORTHANT)
        assert set(orthant.var_indices) == {vmap.t_index, *vmap.x_indices}

    def test_simplex_program_independent_of_lambda(self, rng):
        s = random_surrogate(rng, 4)
        a, _ = build_pruning_socp(s, alpha=0.3, lam=0.1, simplex=True)
        b, _ = build_pruning_socp(s, alpha=0.3, lam=0.9, simplex=True)
        assert np.array_equal(a.objective, b.objective)
        assert np.array_equal(a.eq_A, b.eq_A)
        assert np.array_equal(a.eq_b, b.eq_b)
        assert a.cones == b.cones

    def test_free_mode_zero_at_lambda_max(self):
        # optimality on x >= 0: x = 0 once lam * lambda_max >= max_i -c_i,
        # that is at lam = 1, and at every lam when no c_i is negative
        # (lambda_max = 0).  At lam = 1 the objective is flat to second order
        # along the binding coordinate, so the solver's tolerance shows in x
        # (~1e-4); there the optimal value 0 is checked instead.
        for seed in range(4):
            s = random_surrogate(np.random.default_rng(seed), 5)
            alpha = 0.2 + 0.2 * seed
            assert s.combined_linear(alpha).min() < 0
            program, vmap = build_pruning_socp(s, alpha, 1.0)
            sol = solve(program)
            assert sol.status == STATUS_OPTIMAL
            assert abs(program.objective @ sol.x) <= 1e-8
            program, vmap = build_pruning_socp(s, alpha, 0.5)
            sol = solve(program)
            assert sol.status == STATUS_OPTIMAL
            assert np.abs(sol.x[list(vmap.x_indices)]).max() > 1e-3
            nonneg = QuadraticSurrogate(
                quad=s.quad, lin_accuracy=np.abs(s.lin_accuracy),
                lin_diversity=np.abs(s.lin_diversity), constant=0.0, ridge=s.ridge)
            for lam in (0.0, 0.5, 1.0):
                program, vmap = build_pruning_socp(nonneg, alpha, lam)
                sol = solve(program)
                assert sol.status == STATUS_OPTIMAL
                assert np.abs(sol.x[list(vmap.x_indices)]).max() <= 1e-8

    def test_simplex_weights_match_exact_oracle(self):
        rng = np.random.default_rng(2024)
        for k in range(30):
            m = 2 + k % 5
            s = random_surrogate(rng, m)
            alpha = float(rng.uniform(0.2, 1.0))
            program, vmap = build_pruning_socp(s, alpha, 0.5, simplex=True)
            sol = solve(program, TIGHT)
            assert sol.status == STATUS_OPTIMAL
            q_eff = alpha * (s.quad + s.ridge * np.eye(m))
            expected = simplex_qp_oracle(q_eff, s.combined_linear(alpha))
            assert np.abs(sol.x[list(vmap.x_indices)] - expected).max() <= 1e-6

    def test_zero_point_boundary(self, rng):
        # cone vector at x=0, t=0 is (1, 0...0, 1): exactly on the boundary
        s = random_surrogate(rng, 3)
        program, vmap = build_pruning_socp(s, alpha=0.5, lam=0.1)
        big = next(c for c in program.cones if c.kind == QUADRATIC and c.dim == 5)
        point = np.zeros(program.num_vars)
        # aux head is 1+t = 1, aux tail ends with 1-t = 1
        values = [1.0] + [0.0] * 3 + [1.0]
        for idx, v in zip(big.var_indices, values):
            point[idx] = v
        assert abs(cone_margin(QUADRATIC, values)) < 1e-15

    def test_cone_index_partition(self, rng):
        s = random_surrogate(rng, 4)
        program, _ = build_pruning_socp(s, alpha=0.3, lam=0.5, simplex=True)
        seen = set()
        for cone in program.cones:
            for idx in cone.var_indices:
                assert idx not in seen
                seen.add(idx)
        assert seen.isdisjoint(program.free_vars)
        assert seen | set(program.free_vars) == set(range(program.num_vars))

    def test_epigraph_equivalence_sample(self, rng):
        s = random_surrogate(rng, 3)
        root = cholesky_lower(s.quad, s.ridge).T
        q_eff = s.quad + s.ridge * np.eye(3)
        for _ in range(200):
            x = rng.normal(size=3)
            t = float(rng.uniform(0, 4))
            vec = np.concatenate(([1 + t], 2 * root @ x, [1 - t]))
            member = vec[0] >= np.linalg.norm(vec[1:])
            quad_ok = t >= x @ q_eff @ x
            if abs(t - x @ q_eff @ x) > 1e-9:
                assert member == quad_ok

    def test_active_constraints_at_optimum(self, rng):
        for seed in (0, 1):
            s = random_surrogate(np.random.default_rng(seed), 3)
            program, vmap = build_pruning_socp(s, alpha=0.6, lam=0.4)
            sol = solve(program)
            assert sol.status == STATUS_OPTIMAL
            x = sol.x[list(vmap.x_indices)]
            t = sol.x[vmap.t_index]
            assert x.min() >= 0.0 and x.max() > 1e-3
            q_eff = s.quad + s.ridge * np.eye(3)
            # the epigraph carries the program's scale k = M / trace
            k = 3 / np.trace(q_eff)
            assert abs(t - k * (x @ q_eff @ x)) < 1e-6

    @pytest.mark.parametrize("simplex", [False, True], ids=["free", "simplex"])
    @pytest.mark.parametrize("factor", [2.0 ** -20, 2.0 ** 20])
    def test_program_is_scale_free(self, factor, simplex):
        # scaling the quadratic, both linear terms and the ridge by a power
        # of two is exact, and the program's scale k absorbs it exactly
        t, y = random_instance(np.random.default_rng(5), 8, 200, 10)
        s = build_surrogate(t, y)
        scaled = QuadraticSurrogate(
            quad=s.quad * factor, lin_accuracy=s.lin_accuracy * factor,
            lin_diversity=s.lin_diversity * factor, constant=s.constant,
            ridge=s.ridge * factor)
        a, vmap = build_pruning_socp(s, 0.4, 0.3, simplex=simplex)
        b, _ = build_pruning_socp(scaled, 0.4, 0.3, simplex=simplex)
        for name in ("objective", "eq_A", "eq_b"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        x = list(vmap.x_indices)
        assert np.array_equal(solve(a).x[x], solve(b).x[x])

    @pytest.mark.parametrize("quad", [np.zeros((2, 2)), -np.eye(2)], ids=["zero", "negative"])
    def test_quadratic_without_positive_trace_rejected(self, quad):
        # the scale k is never taken from such a trace: -I scaled by
        # M / trace = -1 would factor as I
        s = QuadraticSurrogate(quad=quad, lin_accuracy=np.ones(2),
                               lin_diversity=np.ones(2), constant=0.0, ridge=0.0)
        with pytest.raises(NotPositiveDefinite):
            build_pruning_socp(s, 0.5, 0.5)

    def test_simplex_rows(self, rng):
        s = random_surrogate(rng, 3)
        program, vmap = build_pruning_socp(s, alpha=0.5, lam=0.2, simplex=True)
        sol = solve(program)
        assert sol.status == STATUS_OPTIMAL
        x = sol.x[list(vmap.x_indices)]
        assert abs(x.sum() - 1.0) < 1e-7
        assert x.min() >= -1e-9


class TestQpToSocp:
    def test_pinned_variable(self):
        # x fixed at b: SOCP head recovers q(b) = ||b||^2
        b = np.array([1.5, -2.0])
        form = qp_to_socp(np.eye(2), np.zeros(2), 0.0, A=np.eye(2), b=b)
        sol = solve(form.program)
        assert sol.status == STATUS_OPTIMAL
        assert abs(form.qp_value(sol) - b @ b) < 1e-6

    def test_unconstrained_minimum_zero(self):
        form = qp_to_socp(np.eye(2), np.zeros(2), 0.0)
        sol = solve(form.program)
        assert sol.status == STATUS_OPTIMAL
        assert abs(form.qp_value(sol)) < 1e-6
        assert np.allclose(form.minimizer(sol), 0.0, atol=1e-6)

    def test_random_qp_vs_kkt(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a_mat = rng.normal(size=(n, n))
            q = a_mat @ a_mat.T + 0.5 * np.eye(n)
            lin = rng.normal(size=n)
            beta = float(rng.normal())
            con = rng.normal(size=(1, n))
            rhs = rng.normal(size=1)
            # KKT: [2Q A'; A 0] [x; nu] = [-a; b]
            kkt = np.block([[2 * q, con.T], [con, np.zeros((1, 1))]])
            sol_kkt = np.linalg.solve(kkt, np.concatenate((-lin, rhs)))
            x_star = sol_kkt[:n]
            qp_opt = x_star @ q @ x_star + lin @ x_star + beta
            form = qp_to_socp(q, lin, beta, A=con, b=rhs)
            sol = solve(form.program)
            assert sol.status == STATUS_OPTIMAL
            assert abs(form.qp_value(sol) - qp_opt) < 1e-6
            assert np.allclose(form.minimizer(sol), x_star, atol=1e-5)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            qp_to_socp(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2), 0.0)


class TestSerialization:
    def build_sample(self, rng):
        s = random_surrogate(rng, 3)
        program, _ = build_pruning_socp(s, alpha=0.4, lam=0.2, simplex=True)
        return program

    def test_round_trip(self, rng):
        program = self.build_sample(rng)
        text = serialize_cone_program(program)
        back = parse_cone_program(text)
        assert back.num_vars == program.num_vars
        assert np.array_equal(back.objective, program.objective)
        assert np.array_equal(back.eq_b, program.eq_b)
        assert np.array_equal(back.eq_A, program.eq_A)
        assert back.cones == program.cones
        assert back.free_vars == program.free_vars

    def test_file_round_trip(self, rng, tmp_path):
        program = self.build_sample(rng)
        path = tmp_path / "prog.txt"
        write_cone_program(program, path)
        assert serialize_cone_program(read_cone_program(path)) == serialize_cone_program(program)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_cone_program(tmp_path / "absent.txt")

    def test_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_cone_program("not a program\n")

    def test_version_mismatch(self, rng):
        text = serialize_cone_program(self.build_sample(rng))
        head, rest = text.split("\n", 1)
        name, _ = head.rsplit(" ", 1)
        with pytest.raises(VersionMismatch):
            parse_cone_program(f"{name} 999\n{rest}")

    def test_truncated_rejected(self, rng):
        text = serialize_cone_program(self.build_sample(rng))
        with pytest.raises(ParseError):
            parse_cone_program(text[: len(text) // 2])


class TestStructuralValidation:
    def test_overlapping_cones_rejected(self):
        with pytest.raises(MalformedProgram):
            ConeProgram(
                num_vars=2,
                objective=np.zeros(2),
                eq_A=np.zeros((0, 2)),
                eq_b=np.zeros(0),
                cones=(
                    Cone(kind=NONNEG_ORTHANT, var_indices=(0, 1)),
                    Cone(kind=NONNEG_ORTHANT, var_indices=(1,)),
                ),
                free_vars=(),
            )

    def test_cone_rejects_a_non_integral_index(self):
        # (0.7, 1.2) used to be truncated to (0, 1)
        with pytest.raises(MalformedProgram, match="cone variable indices must be integers"):
            Cone(NONNEG_ORTHANT, (0.7, 1.2))

    def test_program_rejects_a_non_integral_free_index(self):
        # (1.9,) used to be truncated to (1,)
        with pytest.raises(MalformedProgram, match="free variable indices must be integers"):
            ConeProgram(num_vars=2, objective=np.zeros(2), eq_A=np.zeros((0, 2)),
                        eq_b=np.zeros(0), cones=(Cone(NONNEG_ORTHANT, (0,)),),
                        free_vars=(1.9,))

    def test_program_rejects_a_non_integral_num_vars(self):
        # 1.5 used to be truncated to 1
        with pytest.raises(MalformedProgram, match="num_vars must be an integer"):
            ConeProgram(num_vars=1.5, objective=np.zeros(1), eq_A=np.zeros((0, 1)),
                        eq_b=np.zeros(0), cones=(Cone(NONNEG_ORTHANT, (0,)),), free_vars=())

    def test_eq_A_is_a_read_only_copy(self):
        A = np.array([[1.0, 1.0]])
        program = ConeProgram(num_vars=2, objective=np.zeros(2), eq_A=A, eq_b=np.ones(1),
                              cones=(Cone(kind=NONNEG_ORTHANT, var_indices=(0, 1)),),
                              free_vars=())
        A[0, 0] = 5.0
        assert program.eq_A.dtype == np.float64
        assert program.eq_A.tolist() == [[1.0, 1.0]]
        with pytest.raises(ValueError):
            program.eq_A[0, 0] = 2.0

    @pytest.mark.parametrize("eq_A", [np.ones(2), np.ones((1, 3))], ids=["1-d", "wrong_width"])
    def test_eq_A_shape(self, eq_A):
        with pytest.raises(MalformedProgram):
            ConeProgram(num_vars=2, objective=np.zeros(2), eq_A=eq_A, eq_b=np.ones(1),
                        cones=(Cone(kind=NONNEG_ORTHANT, var_indices=(0, 1)),), free_vars=())

    def test_non_dense_input_is_malformed(self):
        import scipy.sparse

        def build(objective=np.zeros(2), eq_A=np.eye(2)):
            return ConeProgram(num_vars=2, objective=objective, eq_A=eq_A, eq_b=np.ones(2),
                               cones=(Cone(kind=NONNEG_ORTHANT, var_indices=(0, 1)),),
                               free_vars=())

        with pytest.raises(MalformedProgram, match=r"pass a sparse matrix A as A\.toarray\(\)"):
            build(eq_A=scipy.sparse.csr_matrix(np.eye(2)))
        with pytest.raises(MalformedProgram, match="equality matrix is not a dense numeric"):
            build(eq_A=[[1.0, 0.0], [1.0]])
        with pytest.raises(MalformedProgram, match="objective is not a dense numeric"):
            build(objective=[0.0, [1.0]])

    def test_rotated_cone_min_dim(self):
        with pytest.raises(MalformedProgram):
            Cone(kind=ROTATED_QUADRATIC, var_indices=(0, 1))

    def test_cone_rejects_unknown_kind(self):
        with pytest.raises(MalformedProgram, match="unknown cone kind 'simplex'"):
            Cone(kind="simplex", var_indices=(0, 1))
