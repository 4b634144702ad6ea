"""Cone-program data model, builders, and plain-text serialization.

A ConeProgram is a linear objective over affine equalities and a partition
of the variables into nonnegative-orthant, quadratic (second-order), and
rotated quadratic cones, plus free variables.  The main builder turns a
QuadraticSurrogate into the sparse L1-regularized pruning program: the
quadratic objective term becomes a single epigraph cone through its
Cholesky factor, and the weights lie in the nonnegative orthant, where
the L1 penalty is a linear term.  Simplex mode adds one row: the weights
sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import atomic_write_text, format_exact, parse_float, parse_int, read_text
from .errors import (
    DomainError,
    MalformedProgram,
    NotPositiveDefinite,
    ParseError,
    ShapeMismatch,
    VersionMismatch,
)
from .loss import QuadraticSurrogate

NONNEG_ORTHANT = "nonneg_orthant"
QUADRATIC = "quadratic"
ROTATED_QUADRATIC = "rotated_quadratic"
CONE_KINDS = (NONNEG_ORTHANT, QUADRATIC, ROTATED_QUADRATIC)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAX_ITERS = "max_iters"
STATUS_NUMERICAL = "numerical"
SOLVE_STATUSES = (
    STATUS_OPTIMAL,
    STATUS_INFEASIBLE,
    STATUS_UNBOUNDED,
    STATUS_MAX_ITERS,
    STATUS_NUMERICAL,
)

FORMAT_NAME = "socprune-cone-program"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Cone:
    """One cone membership over an ordered subset of program variables.

    For ``quadratic`` the first listed variable is the head t0 and
    membership means ``||tail||_2 <= t0``.  For ``rotated_quadratic`` the
    first two are the heads and membership means ``2 x0 x1 >= ||tail||^2``
    with ``x0, x1 >= 0``.
    """

    kind: str
    var_indices: tuple

    def __post_init__(self):
        if self.kind not in CONE_KINDS:
            raise MalformedProgram(f"unknown cone kind {self.kind!r}")
        idx = tuple(int(i) for i in self.var_indices)
        object.__setattr__(self, "var_indices", idx)
        if len(idx) == 0:
            raise MalformedProgram("cone has no variables")
        if len(set(idx)) != len(idx):
            raise MalformedProgram("cone lists a variable twice")
        if any(i < 0 for i in idx):
            raise MalformedProgram("negative variable index in cone")
        if self.kind == ROTATED_QUADRATIC and len(idx) < 3:
            raise MalformedProgram("rotated quadratic cone needs dim >= 3")

    @property
    def dim(self) -> int:
        return len(self.var_indices)


@dataclass(eq=False)
class ConeProgram:
    """min objective @ x  subject to  eq_A @ x = eq_b  and cone memberships.

    ``eq_A`` is a dense (num_eqs, num_vars) array.  Every variable belongs
    to exactly one cone or to ``free_vars``.  Immutable after construction.
    """

    num_vars: int
    objective: np.ndarray
    eq_A: np.ndarray
    eq_b: np.ndarray
    cones: tuple
    free_vars: tuple

    def __post_init__(self):
        n = int(self.num_vars)
        if n <= 0:
            raise MalformedProgram("program needs at least one variable")
        obj = np.ascontiguousarray(_dense(self.objective, "objective"))
        if obj.shape != (n,):
            raise MalformedProgram(f"objective has shape {obj.shape}, expected ({n},)")
        # "+ 0.0" copies and stores every zero as +0.0: equal programs have equal bytes
        A = _dense(self.eq_A, "equality matrix") + 0.0
        if A.ndim != 2 or A.shape[1] != n:
            raise MalformedProgram(f"equality matrix has shape {A.shape}, expected (*, {n})")
        b = np.ascontiguousarray(_dense(self.eq_b, "rhs"))
        if b.shape != (A.shape[0],):
            raise MalformedProgram(f"rhs has shape {b.shape}, expected ({A.shape[0]},)")
        if not (np.all(np.isfinite(obj)) and np.all(np.isfinite(b)) and np.all(np.isfinite(A))):
            raise MalformedProgram("program data contains non-finite entries")
        cones = tuple(self.cones)
        free = tuple(int(i) for i in self.free_vars)
        seen = np.zeros(n, dtype=np.int64)
        for cone in cones:
            if not isinstance(cone, Cone):
                raise MalformedProgram("cones must be Cone instances")
            for i in cone.var_indices:
                if i >= n:
                    raise MalformedProgram(f"cone index {i} out of range")
                seen[i] += 1
        for i in free:
            if not 0 <= i < n:
                raise MalformedProgram(f"free index {i} out of range")
            seen[i] += 1
        if np.any(seen != 1):
            bad = int(np.argmax(seen != 1))
            raise MalformedProgram(
                f"variable {bad} appears in {seen[bad]} cones/free sets, expected exactly 1"
            )
        obj.setflags(write=False)
        b.setflags(write=False)
        A.setflags(write=False)
        self.num_vars = n
        self.objective = obj
        self.eq_A = A
        self.eq_b = b
        self.cones = cones
        self.free_vars = free

    @property
    def num_eqs(self) -> int:
        return self.eq_A.shape[0]


def _dense(value, what):
    """``value`` as a float64 array; a sparse matrix or ragged list is MalformedProgram."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        hint = "; pass a sparse matrix A as A.toarray()" if hasattr(value, "toarray") else ""
        raise MalformedProgram(f"{what} is not a dense numeric array{hint}: {exc}") from None


@dataclass(eq=False)
class ConicSolution:
    """Solver output: primal x, equality duals y, cone duals s, and quality stats."""

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    iterations: int
    gap: float
    primal_residual: float
    dual_residual: float

    def __post_init__(self):
        if self.status not in SOLVE_STATUSES:
            raise DomainError(f"unknown solver status {self.status!r}")


def cholesky_lower(Q, ridge: float = 0.0) -> np.ndarray:
    """Lower-triangular L with (Q + ridge*I) = L @ L.T and positive diagonal.

    Q must be symmetric to about 1e-10 (relative).  Raises
    NotPositiveDefinite when the shifted matrix has a nonpositive pivot.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {Q.shape}")
    if not np.all(np.isfinite(Q)):
        raise DomainError("matrix contains non-finite entries")
    scale = max(1.0, float(np.linalg.norm(Q)))
    if np.abs(Q - Q.T).max(initial=0.0) > 1e-10 * scale:
        raise DomainError("matrix is not symmetric to 1e-10")
    if ridge < 0:
        raise DomainError("ridge must be nonnegative")
    shifted = Q + ridge * np.eye(Q.shape[0])
    try:
        return np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None


@dataclass(frozen=True)
class VariableMap:
    """Where the pruning program's named quantities live in the variable array."""

    x_indices: tuple
    t_index: int


def build_pruning_socp(
    surrogate: QuadraticSurrogate,
    alpha: float,
    lam: float,
    simplex: bool = False,
):
    """Sparse pruning program for a quadratic surrogate at trade-off alpha.

    Minimizes ``alpha*t + (c + lam*lambda_max) @ x`` over weights x >= 0
    and t >= k x' (quad + ridge*I) x (one epigraph cone through the
    Cholesky factor), where ``c = k * surrogate.combined_linear(alpha)``;
    on x >= 0 the L1 penalty is that linear term.  ``lam`` is a fraction
    in [0, 1] of ``lambda_max = max(0, max_i -c_i)``, the smallest penalty
    at which x = 0 is optimal: lam = 1 gives x = 0, and where no c_i is
    negative lambda_max is 0 and x = 0 at every lam.

    ``k = M / trace(quad + ridge*I)`` leaves the minimizer in place (the
    objective is positively homogeneous in the quadratic and c) and makes
    the program independent of the surrogate's scale, such as its 1/(n*C).

    With ``simplex=True`` the weights also sum to one.  There
    ||x||_1 = 1, so the L1 term is a constant; the program drops it, and
    lam (still validated) does not change the program.  Returns
    (program, variable map).
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1] (a fraction of lambda_max), got {lam}")
    m = surrogate.num_models
    trace = float(np.trace(surrogate.quad)) + m * surrogate.ridge
    # a trace that is not positive leaves k = 1: the factorization rejects it
    k = m / trace if trace > 0 else 1.0
    root = cholesky_lower(k * surrogate.quad, k * surrogate.ridge).T
    # variables: x = 0..m-1, t = m, aux = m+1..2m+2;
    # rows: aux = (1 + t, 2 R x, 1 - t), then sum(x) = 1 in simplex mode
    t = m
    aux = np.arange(m + 1, 2 * m + 3)
    objective = np.zeros(2 * m + 3)
    objective[:m] = k * surrogate.combined_linear(alpha)
    if not simplex:  # the L1 term, lam * lambda_max on each weight
        objective[:m] += lam * max(0.0, -objective[:m].min())
    objective[t] = alpha
    A = np.zeros((m + 2 + int(simplex), objective.size))
    A[np.arange(m + 2), aux] = 1.0
    A[[0, m + 1], t] = -1.0, 1.0
    A[1:m + 1, :m] = -2.0 * root
    b = np.zeros(A.shape[0])
    b[[0, m + 1]] = 1.0
    if simplex:
        A[m + 2, :m] = 1.0
        b[m + 2] = 1.0

    program = ConeProgram(num_vars=objective.size, objective=objective, eq_A=A, eq_b=b,
                          cones=(Cone(QUADRATIC, aux), Cone(NONNEG_ORTHANT, (t, *range(m)))),
                          free_vars=())
    return program, VariableMap(x_indices=tuple(range(m)), t_index=t)


def serialize_cone_program(p: ConeProgram) -> str:
    """Versioned newline-delimited text form; round-trips to 1e-12."""
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines.append(f"vars {p.num_vars}")
    lines.append(f"eqs {p.num_eqs}")
    nz = np.nonzero(p.objective)[0]
    lines.append(f"objective {len(nz)}")
    for i in nz:
        lines.append(f"{i} {format_exact(p.objective[i])}")
    rows, cols = np.nonzero(p.eq_A)
    lines.append(f"eq_entries {rows.size}")
    for r, c, v in zip(rows, cols, p.eq_A[rows, cols]):
        lines.append(f"{r} {c} {format_exact(v)}")
    lines.append(f"eq_rhs {p.num_eqs}")
    for v in p.eq_b:
        lines.append(format_exact(v))
    lines.append(f"cones {len(p.cones)}")
    for cone in p.cones:
        lines.append(" ".join([cone.kind, str(cone.dim)] + [str(i) for i in cone.var_indices]))
    lines.append(f"free {len(p.free_vars)}")
    for i in p.free_vars:
        lines.append(str(i))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _LineReader:
    """The non-empty lines of a text, each with its 1-based line number."""

    def __init__(self, text: str):
        # newline-translated text: only "\n" ends a line, and a final one opens no line
        self.lines = text.removesuffix("\n").split("\n")
        self.pos = 0

    def next(self) -> tuple:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line, self.pos
        raise ParseError("unexpected end of input", line=len(self.lines))

    def count(self, keyword: str) -> int:
        """The count of a '<keyword> <count>' line; the count must be >= 0."""
        line, lineno = self.next()
        tokens = line.split()
        if tokens[0] != keyword:
            raise ParseError(f"expected {keyword!r}, got {tokens[0]!r}", line=lineno)
        if len(tokens) != 2:
            raise ParseError(f"expected '{keyword} <count>'", line=lineno)
        return parse_int(tokens[1], lineno, f"{keyword} count", lo=0)

    def rows(self, keyword: str, width: int | None, expect: int | None = None) -> list:
        """(tokens, line number) of each line of a '<keyword> <count>' section.

        Each line must have ``width`` tokens (any number when None); when
        ``expect`` is given, the header must state that count.
        """
        count = self.count(keyword)
        if expect is not None and count != expect:
            raise ParseError(f"{keyword} count {count} disagrees with {expect}", line=self.pos)
        rows = []
        for _ in range(count):
            line, lineno = self.next()
            tokens = line.split()
            if width is not None and len(tokens) != width:
                raise ParseError(
                    f"{keyword} line needs {width} fields, got {len(tokens)}", line=lineno
                )
            rows.append((tokens, lineno))
        return rows


def parse_cone_program(text: str) -> ConeProgram:
    """Inverse of serialize_cone_program; raises ParseError with line numbers."""
    reader = _LineReader(text)
    line, lineno = reader.next()
    tokens = line.split()
    if tokens[0] != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} file", line=lineno)
    if len(tokens) != 2 or parse_int(tokens[1], lineno, "format version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"unsupported format version {tokens[1:]}; this reader handles {FORMAT_VERSION}",
            line=lineno,
        )
    num_vars = reader.count("vars")
    vars_line = reader.pos
    num_eqs = reader.count("eqs")

    coeffs = {}
    for (index, value), lineno in reader.rows("objective", 2):
        i = parse_int(index, lineno, "objective index", lo=0, hi=num_vars)
        if i in coeffs:
            raise ParseError(f"objective index {i} repeated", line=lineno)
        coeffs[i] = parse_float(value, lineno, "objective coefficient")

    rows, cols, vals = [], [], []
    for (r, c, v), lineno in reader.rows("eq_entries", 3):
        rows.append(parse_int(r, lineno, "equality row", lo=0, hi=num_eqs))
        cols.append(parse_int(c, lineno, "equality column", lo=0, hi=num_vars))
        vals.append(parse_float(v, lineno, "equality coefficient"))

    rhs = [parse_float(tokens[0], lineno, "equality rhs")
           for tokens, lineno in reader.rows("eq_rhs", 1, expect=num_eqs)]

    cones = []
    for tokens, lineno in reader.rows("cones", None):
        if len(tokens) < 3:
            raise ParseError("cone line needs 'kind dim indices...'", line=lineno)
        dim = parse_int(tokens[1], lineno, "cone dim")
        idx = [parse_int(tok, lineno, "cone index", lo=0, hi=num_vars) for tok in tokens[2:]]
        if len(idx) != dim:
            raise ParseError(f"cone lists {len(idx)} indices but dim {dim}", line=lineno)
        try:
            cones.append(Cone(kind=tokens[0], var_indices=tuple(idx)))
        except MalformedProgram as exc:
            raise ParseError(str(exc), line=lineno) from None

    free = [parse_int(tokens[0], lineno, "free index", lo=0, hi=num_vars)
            for tokens, lineno in reader.rows("free", 1)]
    # every variable lies in one cone or free set, so the file bounds the
    # count before anything is sized by it
    listed = len(free) + sum(cone.dim for cone in cones)
    if num_vars > listed:
        raise ParseError(
            f"vars {num_vars} exceeds the {listed} indices the cone and free sections list",
            line=vars_line,
        )
    objective = np.zeros(num_vars)
    for i, value in coeffs.items():
        objective[i] = value
    eq_A = np.zeros((num_eqs, num_vars))
    np.add.at(eq_A, (rows, cols), vals)

    line, lineno = reader.next()
    if line != "end":
        raise ParseError(f"expected 'end', got {line!r}", line=lineno)

    try:
        return ConeProgram(
            num_vars=num_vars,
            objective=objective,
            eq_A=eq_A,
            eq_b=np.asarray(rhs, dtype=np.float64),
            cones=tuple(cones),
            free_vars=tuple(free),
        )
    except MalformedProgram as exc:
        raise ParseError(f"structurally invalid program: {exc}", line=lineno) from None


def write_cone_program(p: ConeProgram, path):
    """Atomic write of the text form (temp file + rename); IoError on OS failure."""
    atomic_write_text(path, [serialize_cone_program(p)])


def read_cone_program(path) -> ConeProgram:
    """Parse a program file; IoError if it cannot be read."""
    return parse_cone_program(read_text(path))
