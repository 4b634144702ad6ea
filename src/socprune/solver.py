"""Primal-dual path-following interior-point solver for ConeProgram instances.

Handles nonnegative-orthant, quadratic, and rotated quadratic cones plus
free variables.  The algorithm is a Nesterov-Todd scaled Mehrotra
predictor-corrector: at each iteration the scaled complementarity system is
reduced to the full augmented KKT system, solved by numpy's partial-pivot
LU (with a statically regularized, refined fallback, see ``_kkt_solve``),
and a single step length is taken along the combined primal-dual
direction.  Every iterate, mapped to the program's variables, is tested
for optimality and for an infeasibility or unboundedness ray; a program
with no cone runs the same loop with plain Newton steps.  Rotated cones
are mapped to standard quadratic cones up front by the involutive
orthogonal transform
(x1, x2, rest) -> ((x1+x2)/sqrt2, (x1-x2)/sqrt2, rest).  A terminal
active-set polish sharpens the returned point when it can verify an
improvement.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .conic import (
    NONNEG_ORTHANT,
    QUADRATIC,
    ROTATED_QUADRATIC,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERS,
    STATUS_NUMERICAL,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    ConeProgram,
    ConicSolution,
)
from .core import is_integer, is_number
from .errors import DomainError, MalformedProgram, ShapeMismatch

# residual of an infeasibility or unboundedness ray, relative to ||A|| ||ray||
_CERT_TOL = 1e-6
# fraction of the boundary step taken each iteration
_STEP_FRACTION = 0.99
# static KKT regularization: -delta on the H block, +delta on the zero block
_REGULARIZATION = 1e-9
# relative residual above which a plain LU solve of the KKT system falls back
# to the regularized, refined solve
_SOLVE_TOL = 1e-10


@dataclass(frozen=True)
class SolverSettings:
    """Termination tolerance, iteration limit and progress trace.

    ``tol`` bounds the relative gap and both relative residuals at once.
    The step fraction (0.99), the KKT solve's residual bound (1e-10) and
    its static regularization (1e-9) are module constants: each KKT solve
    is a dense partial-pivot LU of the unregularized matrix, and only a
    zero pivot or a residual above the bound falls back to an LU of the
    regularized matrix, refined in float64 against the unregularized one.
    """

    tol: float = 1e-8
    max_iters: int = 100
    verbose: bool = False

    def __post_init__(self):
        if not (is_number(self.tol) and 0 < self.tol < np.inf):
            raise DomainError(f"tol must be a finite positive number, got {self.tol!r}")
        if not (is_integer(self.max_iters) and self.max_iters >= 1):
            raise DomainError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


def _inf_norm(v) -> float:
    return float(np.abs(v).max(initial=0.0))


class _Structure:
    """Index bookkeeping after rotating away rotated cones.

    dim-1 quadratic cones are folded into the orthant coordinates, and
    dim-2 quadratic cones are polyhedral (u >= |x| is the pair of
    halfplanes u+x >= 0, u-x >= 0), so they are rotated into two orthant
    coordinates; this keeps the scaling well conditioned when such a cone
    is active at the optimum.  Rotated cones of dim >= 3 become standard
    quadratic cones under the same involutive transform.  ``e`` is the
    identity of the cone product: 1 on orthant coordinates and quadratic-cone
    heads, 0 elsewhere.
    """

    def __init__(self, program: ConeProgram):
        orth = []
        socs = []
        rot_pairs = []
        for cone in program.cones:
            idx = np.asarray(cone.var_indices, dtype=np.int64)
            if cone.kind == NONNEG_ORTHANT:
                orth.extend(idx)
            elif cone.kind == QUADRATIC:
                if idx.size == 1:
                    orth.extend(idx)
                elif idx.size == 2:
                    rot_pairs.append((int(idx[0]), int(idx[1])))
                    orth.extend(idx)
                else:
                    socs.append(idx)
            elif cone.kind == ROTATED_QUADRATIC:
                rot_pairs.append((int(idx[0]), int(idx[1])))
                socs.append(idx)
            else:  # pragma: no cover - Cone validates kinds
                raise MalformedProgram(f"unknown cone kind {cone.kind!r}")
        self.orth = np.asarray(sorted(orth), dtype=np.int64)
        self.socs = socs
        self.rot_pairs = rot_pairs
        self.free = np.asarray(sorted(program.free_vars), dtype=np.int64)
        self.degree = len(self.orth) + len(self.socs)
        self.e = np.zeros(program.num_vars)
        self.e[self.orth] = 1.0
        self.e[[int(idx[0]) for idx in socs]] = 1.0


def _rotate(v: np.ndarray, rot_pairs) -> None:
    """In-place involutive mixing of rotated-cone head pairs along axis 0.

    Rotates entries of a vector, or rows of a matrix (columns of A through
    the view A.T); both operands are copied before either is written.
    """
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i, j in rot_pairs:
        a = v[i].copy()
        bb = v[j].copy()
        v[i] = (a + bb) * inv_sqrt2
        v[j] = (a - bb) * inv_sqrt2


class _SocScale:
    """Nesterov-Todd scaling data for one quadratic-cone block."""

    __slots__ = ("idx", "eta", "wbar", "q", "lam")

    def __init__(self, idx, x, s):
        rho_x2 = x[0] * x[0] - x[1:] @ x[1:]
        rho_s2 = s[0] * s[0] - s[1:] @ s[1:]
        if x[0] <= 0 or s[0] <= 0 or rho_x2 <= 0 or rho_s2 <= 0:
            raise FloatingPointError("iterate left the cone interior")
        rho_x = np.sqrt(rho_x2)
        rho_s = np.sqrt(rho_s2)
        xb = x / rho_x
        sb = s / rho_s
        gamma = np.sqrt((1.0 + xb @ sb) / 2.0)
        wbar = np.empty_like(xb)
        wbar[0] = (xb[0] + sb[0]) / (2.0 * gamma)
        wbar[1:] = (xb[1:] - sb[1:]) / (2.0 * gamma)
        self.idx = idx
        self.eta = np.sqrt(rho_x / rho_s)
        self.wbar = wbar
        q = wbar.copy()
        q[1:] = -q[1:]
        self.q = q
        self.lam = self.mul(x, -1)

    def mul(self, z: np.ndarray, sign: int) -> np.ndarray:
        """W z for sign +1, W^-1 z for sign -1."""
        w0 = self.wbar[0]
        w1 = self.wbar[1:]
        dot = w1 @ z[1:]
        out = np.empty_like(z)
        out[0] = w0 * z[0] + sign * dot
        out[1:] = z[1:] + (sign * z[0] + dot / (1.0 + w0)) * w1
        return self.eta * out if sign > 0 else out / self.eta

    def hessian(self) -> np.ndarray:
        k = self.idx.size
        J = -np.eye(k)
        J[0, 0] = 1.0
        return (2.0 * np.outer(self.q, self.q) - J) / (self.eta * self.eta)


def _arrow_solve(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve L_lam g = d where L_lam is the arrow matrix of lam."""
    det = lam[0] * lam[0] - lam[1:] @ lam[1:]
    out = np.empty_like(d)
    out[0] = (lam[0] * d[0] - lam[1:] @ d[1:]) / det
    out[1:] = (d[1:] - out[0] * lam[1:]) / lam[0]
    return out


def _jordan(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    out[0] = u @ v
    out[1:] = u[0] * v[1:] + v[0] * u[1:]
    return out


def _smallest_positive_root(a: float, b: float, c: float) -> float:
    """Smallest positive root of a t^2 + b t + c with c > 0, else +inf."""
    if a == 0.0:
        return -c / b if b < 0 else np.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return np.inf
    sq = np.sqrt(disc)
    q = -0.5 * (b + sq) if b >= 0 else -0.5 * (b - sq)
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    positive = [r for r in roots if r > 0.0]
    return min(positive) if positive else np.inf


def _max_step(z: np.ndarray, dz: np.ndarray, structure: _Structure) -> float:
    """Largest step with z + alpha*dz still in the cone (boundary step)."""
    alpha = np.inf
    zo = z[structure.orth]
    dzo = dz[structure.orth]
    neg = dzo < 0
    if neg.any():
        alpha = min(alpha, float(np.min(-zo[neg] / dzo[neg])))
    for idx in structure.socs:
        zb = z[idx]
        db = dz[idx]
        a = db[0] * db[0] - db[1:] @ db[1:]
        b = 2.0 * (zb[0] * db[0] - zb[1:] @ db[1:])
        c = zb[0] * zb[0] - zb[1:] @ zb[1:]
        alpha = min(alpha, _smallest_positive_root(float(a), float(b), float(c)))
    return alpha


def _kkt_solve(K: np.ndarray, n: int, k_norm: float, rhs: np.ndarray):
    """(x, y) parts of z solving K z = rhs, K = [[-H, A'], [A, 0]] with H n x n.

    ``k_norm`` is ||K||_inf; a non-finite norm or rhs (an overflowed iterate)
    raises ``LinAlgError``.  One partial-pivot LU solve (numpy's gesv); an
    exactly zero pivot, or a relative residual ||rhs - K z|| / (||K|| ||z||
    + ||rhs||) (inf-norms) above ``_SOLVE_TOL``, falls back to
    ``_regularized_solve``.
    """
    if not (np.isfinite(k_norm) and np.isfinite(rhs).all()):
        raise np.linalg.LinAlgError("the KKT system is not finite")
    try:
        z = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        z = _regularized_solve(K, n, rhs)
    else:
        scale = k_norm * _inf_norm(z) + _inf_norm(rhs)
        if not _inf_norm(rhs - K @ z) <= _SOLVE_TOL * scale:
            z = _regularized_solve(K, n, rhs)
    return z[:n], z[n:]


def _regularized_solve(K: np.ndarray, n: int, rhs: np.ndarray) -> np.ndarray:
    """LU of K + diag(-delta, +delta), refined so that the result solves K."""
    delta = np.repeat((-_REGULARIZATION, _REGULARIZATION), (n, K.shape[0] - n))
    K_reg = K + np.diag(delta)
    z = np.linalg.solve(K_reg, rhs)
    # refine against the unregularized matrix; extra passes matter once
    # the barrier parameter drops below the first pass's solve error
    best_norm = np.inf
    for _ in range(3):
        residual = rhs - K @ z
        norm = _inf_norm(residual)
        if not np.isfinite(norm) or norm >= 0.5 * best_norm:
            break
        best_norm = norm
        z = z + np.linalg.solve(K_reg, residual)
    return z


class _NtScaling:
    """Nesterov-Todd scaling W of every cone block at one interior point.

    The orthant part of W is the diagonal sqrt(x/s), each quadratic cone a
    ``_SocScale``.  ``lam`` = W^-1 x is the scaled point and ``H`` the
    Hessian block W^-2 of the KKT matrix; free coordinates stay zero.
    """

    def __init__(self, structure: _Structure, x: np.ndarray, s: np.ndarray):
        o = structure.orth
        xo = x[o]
        so = s[o]
        if np.any(xo <= 0) or np.any(so <= 0):
            raise FloatingPointError("orthant iterate not interior")
        self.orth = o
        self.orth_w = np.sqrt(xo / so)
        self.socs = [_SocScale(idx, x[idx], s[idx]) for idx in structure.socs]
        n = x.size
        self.lam = np.zeros(n)
        self.lam[o] = np.sqrt(x[o] * s[o])
        self.H = np.zeros((n, n))
        self.H[o, o] = s[o] / x[o]
        for sc in self.socs:
            self.lam[sc.idx] = sc.lam
            self.H[np.ix_(sc.idx, sc.idx)] = sc.hessian()

    def mul(self, z: np.ndarray, sign: int) -> np.ndarray:
        """W z for sign +1, W^-1 z for sign -1, block by block."""
        out = np.zeros_like(z)
        zo = z[self.orth]
        out[self.orth] = zo * self.orth_w if sign > 0 else zo / self.orth_w
        for sc in self.socs:
            out[sc.idx] = sc.mul(z[sc.idx], sign)
        return out


# Path-following alone leaves an O(sqrt(gap)) error in the primal point when a
# quadratic cone is active at the optimum: ray misalignment enters the
# complementarity products only quadratically, so the products cannot see it.
# A terminal active-set polish removes that error.  The polished point is
# adopted only when it strictly improves the residual merit and stays inside
# the cones, so a wrong active-set guess degrades nothing.
_POLISH_INTERIOR = 1e-2
_POLISH_FEAS_TOL = 1e-9


def _polish(structure, A, b, c, x, y, s):
    """Newton solve of the reduced KKT system for the guessed active set.

    Works in the rotated variable space.  x is 0 on the pinned coordinates;
    every other coordinate satisfies c - A'y - s = 0, with s = 0 on the
    dual-zero ones and s = theta Jx (J = diag(1, -1, ..., -1)) on each ray
    block, whose x also satisfies x'Jx = 0.  Returns (x, y, s) or None when
    the construction fails; the caller decides acceptance by recomputed merit.
    """
    n = c.size
    m = A.shape[0]
    orth = structure.orth
    at_bound = x[orth] <= s[orth]
    pinned = [orth[at_bound]]
    dual_zero = [structure.free, orth[~at_bound]]
    ray_blocks = []
    for idx in structure.socs:
        xb = x[idx]
        sb = s[idx]
        nx2 = float(xb @ xb)
        ns2 = float(sb @ sb)
        bx = (2.0 * xb[0] * xb[0] - nx2) / max(nx2, 1e-300)
        bs = (2.0 * sb[0] * sb[0] - ns2) / max(ns2, 1e-300)
        if bx >= _POLISH_INTERIOR:
            dual_zero.append(idx)
        elif bs >= _POLISH_INTERIOR:
            pinned.append(idx)
        else:
            ray_blocks.append(idx)
    pinned = np.concatenate(pinned)
    # the unpinned coordinates, dual-zero ones first, order both the unknown
    # x and the dual rows; ``at`` is each ray coordinate's place in that order
    n_zero = sum(idx.size for idx in dual_zero)
    dual = np.concatenate(dual_zero + ray_blocks)
    ray = dual[n_zero:]
    at = n_zero + np.arange(ray.size)
    p = dual.size
    r = len(ray_blocks)
    sizes = np.array([idx.size for idx in ray_blocks], dtype=np.int64)
    block = np.repeat(np.arange(r), sizes)
    sign = np.full(ray.size, -1.0)  # J's diagonal on the ray coordinates
    sign[np.cumsum(sizes) - sizes] = 1.0

    theta0 = np.array([np.linalg.norm(s[idx]) / max(np.linalg.norm(x[idx]), 1e-300)
                       for idx in ray_blocks])
    v = np.concatenate((x[dual], y, theta0))
    A_dual = A[:, dual]

    def residual_and_jacobian(v):
        xf = np.zeros(n)
        xf[dual] = v[:p]
        yv = v[p:p + m]
        th = v[p + m:]
        jx = sign * v[at]
        s_dual = np.pad(th[block] * jx, (n_zero, 0))
        F = np.concatenate((A_dual @ v[:p] - b, c[dual] - A_dual.T @ yv - s_dual,
                            0.5 * np.bincount(block, jx * v[at], minlength=r)))
        J = np.zeros((F.size, p + m + r))
        J[:m, :p] = A_dual
        J[m:m + p, p:p + m] = -A_dual.T
        J[m + at, at] = -th[block] * sign
        J[m + at, p + m + block] = -jx
        J[m + p + block, at] = jx
        return F, J, xf, yv, th

    best = None
    for _ in range(4):
        F, J, xf, yv, th = residual_and_jacobian(v)
        norm = _inf_norm(F)
        if not np.isfinite(norm):
            break
        if best is None or norm < best[0]:
            best = (norm, xf, yv, th)
        if norm < 1e-14 * (1.0 + _inf_norm(c)):
            break
        try:
            dv, *_ = np.linalg.lstsq(J, -F, rcond=None)
        except np.linalg.LinAlgError:
            break
        v = v + dv
    if best is None:
        return None
    _, xf, yv, th = best

    if (th < -_POLISH_FEAS_TOL).any():
        return None
    s_pol = np.zeros(n)
    s_pol[pinned] = c[pinned] - A[:, pinned].T @ yv
    s_pol[ray] = np.maximum(th, 0.0)[block] * sign * xf[ray]

    scale = _POLISH_FEAS_TOL * (1.0 + _inf_norm(xf) + _inf_norm(s_pol))
    xo = xf[orth]
    so = s_pol[orth]
    if xo.min(initial=0.0) < -scale or so.min(initial=0.0) < -scale:
        return None
    xf[orth] = np.maximum(xo, 0.0)
    s_pol[orth] = np.maximum(so, 0.0)
    for idx in structure.socs:
        for vec in (xf[idx], s_pol[idx]):
            margin = vec[0] - np.linalg.norm(vec[1:])
            if margin < -scale:
                return None
    return xf, yv, s_pol


@np.errstate(all="ignore")  # an iterate that overflows ends the solve as ``numerical``
def solve(program: ConeProgram, settings: SolverSettings | None = None) -> ConicSolution:
    """Solve the cone program; never raises for well-formed inputs.

    Status ``optimal`` means the returned ``gap``, ``primal_residual`` and
    ``dual_residual`` are all <= ``settings.tol``: the stopping test, the
    best-iterate merit, the polish's acceptance and the verbose trace read
    the numbers ``kkt_residuals`` recomputes from the returned point.
    Status ``infeasible`` or ``unbounded`` returns the first iterate that
    passes ``_certificate``; a program infeasible both ways may end with
    either.  Runs are bit-deterministic for identical inputs and
    settings.
    """
    if not isinstance(program, ConeProgram):
        raise MalformedProgram("solve expects a ConeProgram")
    if settings is None:
        settings = SolverSettings()

    n = program.num_vars
    b_full = np.asarray(program.eq_b, dtype=np.float64)

    # presolve: drop all-zero equality rows; a zero row with nonzero rhs is
    # an immediate infeasibility certificate.
    row_nnz = np.count_nonzero(program.eq_A, axis=1)
    empty = np.nonzero(row_nnz == 0)[0]
    for r in empty:
        if b_full[r] != 0.0:
            y_cert = np.zeros(b_full.size)
            y_cert[r] = np.sign(b_full[r])
            return _solution(program, np.zeros(n), y_cert, np.zeros(n), STATUS_INFEASIBLE, 0)
    keep_rows = np.nonzero(row_nnz > 0)[0]
    A = program.eq_A[keep_rows]
    b = b_full[keep_rows]
    m = A.shape[0]

    structure = _Structure(program)
    c = np.array(program.objective, dtype=np.float64)
    _rotate(A.T, structure.rot_pairs)
    _rotate(c, structure.rot_pairs)

    def to_program(x, y, s):
        """A working-space point in the program's space: unrotated, y = 0 on dropped rows."""
        x = x.copy()
        s = s.copy()
        _rotate(x, structure.rot_pairs)
        _rotate(s, structure.rot_pairs)
        y_full = np.zeros(b_full.size)
        y_full[keep_rows] = y
        return x, y_full, s

    def finish(x, y, s, status, iterations):
        return _solution(program, *to_program(x, y, s), status, iterations)

    zeta = 1.0 + max(_inf_norm(b), _inf_norm(c))
    x = zeta * structure.e
    s = zeta * structure.e
    y = np.zeros(m)

    abs_A = np.abs(program.eq_A)
    a_norm = float(abs_A.sum(axis=1).max(initial=0.0))
    at_norm = float(abs_A.sum(axis=0).max(initial=0.0))
    nu = structure.degree
    step = 0.0
    best_merit = np.inf
    best_point = None
    # the KKT matrix [[-H, A'], [A, 0]]: each iteration writes its -H block
    K = np.block([[np.zeros((n, n)), A.T], [A, np.zeros((m, m))]])

    for k in range(settings.max_iters + 1):
        point = to_program(x, y, s)
        gap, pres, dres = _kkt_stats(program, *point)
        if settings.verbose:
            sys.stderr.write(
                f"iter={k} gap={gap:.6e} pres={pres:.6e} dres={dres:.6e} step={step:.4f}\n"
            )
        merit = max(gap, pres, dres) / settings.tol
        if merit < best_merit:
            best_merit = merit
            best_point = (x.copy(), y.copy(), s.copy())
        status = STATUS_OPTIMAL if merit <= 1.0 else _certificate(program, a_norm, at_norm, *point)
        if status is not None:
            break
        if k == settings.max_iters:
            status = STATUS_MAX_ITERS
            break

        # a program with no cone has x's = 0 throughout: sigma = 0 makes
        # every step a plain Newton step on the equations
        mu = float(x @ s) / nu if nu else 0.0
        try:
            W = _NtScaling(structure, x, s)
            np.negative(W.H, out=K[:n, :n])
            k_norm = float(np.abs(K).sum(axis=1).max())
            # predictor: drive the scaled complementarity to zero
            r_p = b - A @ x
            r_d = c - A.T @ y - s
            dx_aff, dy_aff = _kkt_solve(K, n, k_norm, np.concatenate((r_d + s, r_p)))
            ds_aff = -s - W.H @ dx_aff
            sigma = 0.0
            if nu:
                alpha_aff = min(
                    1.0,
                    _max_step(x, dx_aff, structure),
                    _max_step(s, ds_aff, structure),
                )
                mu_aff = max(0.0, float((x + alpha_aff * dx_aff) @ (s + alpha_aff * ds_aff))) / nu
                sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector: recentering plus the Mehrotra cross term in scaled space
            u = W.mul(dx_aff, -1)
            v = W.mul(ds_aff, 1)
            o = structure.orth
            lam = W.lam
            g = np.zeros(n)
            g[o] = (sigma * mu - lam[o] * lam[o] - u[o] * v[o]) / lam[o]
            for sc in W.socs:
                d_blk = -_jordan(sc.lam, sc.lam) - _jordan(u[sc.idx], v[sc.idx])
                d_blk[0] += sigma * mu
                g[sc.idx] = _arrow_solve(sc.lam, d_blk)
            winv_g = W.mul(g, -1)

            dx, dy = _kkt_solve(K, n, k_norm, np.concatenate((r_d - winv_g, r_p)))
            ds = winv_g - W.H @ dx
        except (FloatingPointError, OverflowError, np.linalg.LinAlgError, ZeroDivisionError):
            status = STATUS_NUMERICAL
            break
        alpha_max = min(_max_step(x, dx, structure), _max_step(s, ds, structure))
        step = min(1.0, _STEP_FRACTION * alpha_max)

        x = x + step * dx
        y = y + step * dy
        s = s + step * ds

    if status in (STATUS_INFEASIBLE, STATUS_UNBOUNDED) or best_point is None:
        return finish(x, y, s, status, k)

    # return the best iterate seen; late iterations can degrade numerically
    bx, by, bs = best_point
    polished = _polish(structure, A, b, c, bx, by, bs)
    if polished is not None:
        pm = max(_kkt_stats(program, *to_program(*polished))) / settings.tol
        if np.isfinite(pm) and pm < best_merit:
            bx, by, bs = polished
            best_merit = pm
    if best_merit <= 1.0:
        status = STATUS_OPTIMAL
    return finish(bx, by, bs, status, k)


def _certificate(program, a_norm, at_norm, x, y, s):
    """``infeasible`` or ``unbounded`` if a program-space point certifies it, else None.

    Infeasible: b'y > 0 and ||A'y + s||_inf <= _CERT_TOL (||A'|| ||y|| + ||s||).
    Unbounded: c'x < 0 and ||A x||_inf <= _CERT_TOL ||A|| ||x||.  ``a_norm``
    and ``at_norm`` are the induced inf-norms of A and A'.  Both tests are
    homogeneous in the ray and free of b and c, so scaling the objective or
    the right-hand side cannot pass them; the iterate's s and x lie inside
    their cones, so the rays do too.  A non-finite b'y, c'x or bound
    certifies nothing: an overflowed iterate would pass as a ray.
    """
    A = program.eq_A
    if 0.0 < float(program.eq_b @ y) < np.inf:
        scale = _CERT_TOL * (at_norm * _inf_norm(y) + _inf_norm(s))
        if _inf_norm(A.T @ y + s) <= scale < np.inf:
            return STATUS_INFEASIBLE
    if -np.inf < float(program.objective @ x) < 0.0:
        if _inf_norm(A @ x) <= _CERT_TOL * a_norm * _inf_norm(x) < np.inf:
            return STATUS_UNBOUNDED
    return None


def _solution(program, x, y, s, status, iterations) -> ConicSolution:
    """The one way a solve returns: the point with its own gap and residuals."""
    gap, pres, dres = _kkt_stats(program, x, y, s)
    return ConicSolution(x=x, y=y, s=s, status=status, iterations=iterations,
                         gap=gap, primal_residual=pres, dual_residual=dres)


def kkt_residuals(program: ConeProgram, solution: ConicSolution):
    """(gap, primal_residual, dual_residual) recomputed from scratch.

    gap  = |x's| / (1 + |c'x|)
    primal = ||A x - b||_inf / (1 + ||b||_inf)
    dual   = ||A'y + s - c||_inf / (1 + ||c||_inf)
    """
    x = np.asarray(solution.x, dtype=np.float64)
    y = np.asarray(solution.y, dtype=np.float64)
    s = np.asarray(solution.s, dtype=np.float64)
    if x.shape != (program.num_vars,) or s.shape != (program.num_vars,):
        raise ShapeMismatch("solution primal/dual cone vectors do not match the program")
    if y.shape != (program.num_eqs,):
        raise ShapeMismatch("solution equality duals do not match the program")
    return _kkt_stats(program, x, y, s)


def _kkt_stats(program: ConeProgram, x, y, s):
    """(gap, primal, dual) of a program-space point, as ``kkt_residuals``."""
    A = program.eq_A
    b = program.eq_b
    c = program.objective
    p_norm = _inf_norm(A @ x - b)
    d_norm = _inf_norm(A.T @ y + s - c)
    gap = abs(float(x @ s)) / (1.0 + abs(float(c @ x)))
    return gap, p_norm / (1.0 + _inf_norm(b)), d_norm / (1.0 + _inf_norm(c))
