"""End-to-end ensemble pruning: generate or ingest predictions, tune the
accuracy/sparsity grid on the validation split, solve the cone program,
threshold the weights, and vote.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from statistics import NormalDist

import numpy as np

from .conic import SOLVE_STATUSES, build_pruning_socp
from .core import (
    LabelVector,
    PredictionTensor,
    SplitSpec,
    is_integer,
    is_number,
    mapped_zeros,
    seeded_rng,
)
from .errors import (
    AllCellsFailed,
    DomainError,
    EmptyEnsemble,
    FitFailed,
    InvalidSpec,
    ShapeMismatch,
)
from .loss import build_surrogate
from .solver import STATUS_OPTIMAL, solve

_DEFAULT_ALPHA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
_DEFAULT_LAMBDA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
_AUTO = "auto"
# a failed grid cell's status names the status of its solve
_FAILED_STATUSES = tuple(f"failed: {s}" for s in SOLVE_STATUSES if s != STATUS_OPTIMAL)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic prediction tensor with controllable quality.

    Each model i is assigned a target top-1 accuracy drawn uniformly from
    ``base_accuracy_range``; per-sample correctness events share a latent
    Gaussian factor weighted by ``correlation``, so models make correlated
    mistakes.  ``sharpness`` is the extra Dirichlet concentration placed on
    the predicted class.
    """

    num_models: int
    num_samples: int
    num_classes: int
    base_accuracy_range: tuple = (0.5, 0.9)
    correlation: float = 0.3
    sharpness: float = 4.0
    seed: int = 0

    def __post_init__(self):
        counts = (self.num_models, self.num_samples, self.num_classes, self.seed)
        if not all(map(is_integer, counts)):
            raise InvalidSpec(f"model, sample and class counts and the seed must be "
                              f"integers, got {counts}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be nonnegative, got {self.seed}")
        if self.num_models < 2:
            raise InvalidSpec("need at least 2 models")
        if self.num_samples < 5:
            raise InvalidSpec("need at least 5 samples to split")
        if self.num_classes < 2:
            raise InvalidSpec("need at least 2 classes")
        try:
            low, high = self.base_accuracy_range
        except (TypeError, ValueError):
            raise InvalidSpec(f"base_accuracy_range must be a (low, high) pair, got "
                              f"{self.base_accuracy_range!r}") from None
        for name, v in (("base_accuracy_range entry", low), ("base_accuracy_range entry", high),
                        ("correlation", self.correlation), ("sharpness", self.sharpness)):
            if not is_number(v):
                raise InvalidSpec(f"{name} must be a number, got {v!r}")
        chance = 1.0 / self.num_classes
        # a range may start at chance, so long as some model beats it
        if not (chance <= low <= high < 1.0 and chance < high):
            raise InvalidSpec(
                f"base_accuracy_range must lie inside [{chance:.4g}, 1) and reach above "
                f"{chance:.4g}, got ({low}, {high})"
            )
        if not 0.0 <= self.correlation < 1.0:
            raise InvalidSpec("correlation must lie in [0, 1)")
        if not 0 < self.sharpness < np.inf:
            raise InvalidSpec(f"sharpness must be finite and positive, got {self.sharpness}")


@dataclass(frozen=True)
class PruneConfig:
    """Grid and thresholding options; every cell solves with ``SolverSettings()``.

    Each lambda is a fraction of its cell's lambda_max (``build_pruning_socp``).
    """

    alpha_grid: tuple = _DEFAULT_ALPHA_GRID
    lambda_grid: tuple = _DEFAULT_LAMBDA_GRID
    threshold: float | str = _AUTO
    simplex_mode: bool = False

    def __post_init__(self):
        auto = isinstance(self.threshold, str) and self.threshold == _AUTO
        try:
            grids = tuple(self.alpha_grid), tuple(self.lambda_grid)
        except TypeError:
            raise DomainError(f"alpha and lambda grids must be sequences of numbers, got "
                              f"{self.alpha_grid!r} and {self.lambda_grid!r}") from None
        for v in (*grids[0], *grids[1], *(() if auto else (self.threshold,))):
            if not is_number(v):
                raise DomainError(f"grid values and threshold must be numbers, got {v!r}")
        if not isinstance(self.simplex_mode, (bool, np.bool_)):
            raise DomainError(f"simplex_mode must be a bool, got {self.simplex_mode!r}")
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in grids[0]))
        object.__setattr__(self, "lambda_grid", tuple(float(l) for l in grids[1]))
        if not self.alpha_grid or not self.lambda_grid:
            raise DomainError("alpha and lambda grids must be non-empty")
        if not all(0 <= a <= 1 for a in self.alpha_grid):
            raise DomainError("alpha grid values must lie in [0, 1]")
        if not all(0 <= lam <= 1 for lam in self.lambda_grid):
            raise DomainError(f"lambda grid values must lie in [0, 1] (fractions of "
                              f"lambda_max), got {self.lambda_grid}")
        if not auto:
            h = float(self.threshold)
            if not 0 <= h < np.inf:
                raise DomainError("threshold must be finite and nonnegative, or 'auto'")
            object.__setattr__(self, "threshold", h)


@dataclass(frozen=True)
class CellDiagnostic:
    """Outcome of one (alpha, lambda) grid cell on the validation split.

    Failed cells carry -1.0 for threshold and accuracy (keeps reports
    JSON-clean and equality-comparable, unlike NaN).  ``num_pruned`` is the
    number of members the cell *kept* (the pruned ensemble's size), not the
    number removed; the name is part of the report format.  The constructor
    admits only the values a grid search produces.
    """

    alpha: float
    lam: float
    threshold: float
    accuracy: float
    num_pruned: int
    status: str

    def __post_init__(self):
        if not (0 <= self.alpha <= 1 and 0 <= self.lam <= 1):
            raise DomainError(f"cell alpha {self.alpha} must lie in [0, 1] and "
                              f"lambda {self.lam} in [0, 1]")
        if self.status == "ok":
            valid = (0 <= self.threshold < np.inf and 0 <= self.accuracy <= 1
                     and self.num_pruned >= 1)
        else:
            valid = (self.status in _FAILED_STATUSES
                     and (self.threshold, self.accuracy, self.num_pruned) == (-1.0, -1.0, 0))
        if not valid:
            raise DomainError(f"no grid search gives a {self.status!r} cell with threshold "
                              f"{self.threshold}, accuracy {self.accuracy} and "
                              f"{self.num_pruned} kept models")


@dataclass(frozen=True, eq=False)
class PruneReport:
    """Everything a pruning run decided and measured.

    Accuracies are computed on the test split only; ``cells`` records the
    grid search as it was seen on the validation split.  The constructor
    admits only the values a run produces: the best (alpha, lambda),
    threshold and kept count are those of an ok cell.
    """

    best_alpha: float
    best_lambda: float
    threshold_used: float
    weights: np.ndarray
    selected: tuple
    full_accuracy: float
    pruned_accuracy: float
    num_models_full: int
    num_models_pruned: int
    cells: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "selected", tuple(int(i) for i in self.selected))
        m = self.num_models_full
        if len(w) != m:
            raise DomainError(f"{len(w)} weights for {m} models")
        if not (self.selected and all(a < b for a, b in pairwise((-1, *self.selected, m)))):
            raise DomainError(f"selected models {self.selected} must be non-empty, "
                              f"strictly ascending indices in [0, {m})")
        if self.num_models_pruned != len(self.selected):
            raise DomainError("pruned model count must match the selected list")
        if not (0 <= self.full_accuracy <= 1 and 0 <= self.pruned_accuracy <= 1):
            raise DomainError(f"accuracies {self.full_accuracy}, {self.pruned_accuracy} "
                              "must lie in [0, 1]")
        if any(c.num_pruned > m for c in self.cells):
            raise DomainError(f"a grid cell keeps more than the {m} models")
        best = (self.best_alpha, self.best_lambda, self.threshold_used, self.num_models_pruned)
        if not any(c.status == "ok" and (c.alpha, c.lam, c.threshold, c.num_pruned) == best
                   for c in self.cells):
            raise DomainError(f"best alpha, lambda, threshold and kept count {best} "
                              "are those of no ok grid cell")

    def __eq__(self, other):
        if not isinstance(other, PruneReport):
            return NotImplemented
        return (
            self.best_alpha == other.best_alpha
            and self.best_lambda == other.best_lambda
            and self.threshold_used == other.threshold_used
            and np.array_equal(self.weights, other.weights)
            and self.selected == other.selected
            and self.full_accuracy == other.full_accuracy
            and self.pruned_accuracy == other.pruned_accuracy
            and self.num_models_full == other.num_models_full
            and self.num_models_pruned == other.num_models_pruned
            and self.cells == other.cells
        )


def generate_synthetic_ensemble(spec: SyntheticSpec):
    """Draw (PredictionTensor, LabelVector, SplitSpec) from the spec.

    Draw order (one Philox stream from ``spec.seed``): labels, per-model
    target accuracies, shared per-sample factor, shared wrong-class offsets,
    then per model: idiosyncratic factor, wrong-class coin, own wrong-class
    offsets, Dirichlet rows; finally the split permutation.  The predicted
    class of each row is forced to the intended one by swapping, so model
    i's empirical accuracy is an unbiased estimate of its target; each row
    is then divided by its sum once more.
    """
    if not isinstance(spec, SyntheticSpec):
        raise InvalidSpec("generate_synthetic_ensemble expects a SyntheticSpec")
    rng = seeded_rng(spec.seed)
    m, n, num_c = spec.num_models, spec.num_samples, spec.num_classes

    labels = rng.integers(0, num_c, size=n)
    low, high = spec.base_accuracy_range
    target_acc = rng.uniform(low, high, size=m)
    shared = rng.normal(size=n)
    shared_off = rng.integers(1, num_c, size=n)

    rho = spec.correlation
    w_shared = np.sqrt(rho)
    w_own = np.sqrt(1.0 - rho)
    cut = [NormalDist().inv_cdf(p) for p in target_acc]

    # mapped, so the tensor's pages go back to the system as soon as it is freed
    probs = mapped_zeros((m, n, num_c))
    rows = np.arange(n)
    for i in range(m):
        own = rng.normal(size=n)
        correct = w_shared * shared + w_own * own < cut[i]
        use_shared = rng.random(size=n) < rho
        own_off = rng.integers(1, num_c, size=n)
        offset = np.where(use_shared, shared_off, own_off)
        top = np.where(correct, labels, (labels + offset) % num_c)
        conc = np.ones((n, num_c))
        conc[rows, top] += spec.sharpness
        draw = rng.standard_gamma(conc, out=probs[i])
        draw /= draw.sum(axis=1, keepdims=True)
        am = draw.argmax(axis=1)
        fix = np.nonzero(am != top)[0]
        if fix.size:
            hi = draw[fix, am[fix]].copy()
            lo = draw[fix, top[fix]].copy()
            draw[fix, top[fix]] = hi
            draw[fix, am[fix]] = lo
        draw /= draw.sum(axis=1, keepdims=True)

    perm = rng.permutation(n)
    n_train = int(0.6 * n)
    n_valid = int(0.2 * n)
    splits = SplitSpec(
        train_indices=perm[:n_train],
        valid_indices=perm[n_train:n_train + n_valid],
        test_indices=perm[n_train + n_valid:],
    )
    return PredictionTensor._adopt(probs), LabelVector(labels=labels, num_classes=num_c), splits


def _solve_weights(program, vmap, simplex):
    x = np.asarray(vmap.x_indices)
    # without the sum row no weight lowers a cost that is >= 0 on every
    # weight (lambda = 1, or lambda_max = 0), so x = 0, t = 0 is optimal
    if not simplex and program.objective[x].min() >= 0:
        return np.zeros(x.size)
    sol = solve(program)
    if sol.status != STATUS_OPTIMAL:
        raise FitFailed(sol.status)
    # a weight below 1% of its dual slack is noise the interior point left
    # on a coordinate that is zero at the optimum (El-Bakry, Tapia & Zhang,
    # SIAM Review 1994); a closer split is left as solved, since at the
    # stopping tolerance x_i s_i is only near 0 and either side may be noise
    w = sol.x[x]
    return np.where(w > 1e-2 * sol.s[x], w, 0.0)


def fit_weights(t, y, alpha, lam, *, samples=None, simplex=False):
    """Solve the pruning program on ``samples`` (all by default); return the weights.

    Raises FitFailed when the solver does not reach status optimal.
    """
    surrogate = build_surrogate(t, y, samples)
    program, vmap = build_pruning_socp(surrogate, alpha, lam, simplex=simplex)
    return _solve_weights(program, vmap, simplex)


def prune_by_threshold(w, h):
    """Indices with |w_i| >= h, ascending; never empty (argmax fallback)."""
    if not h >= 0:
        raise DomainError("threshold must be nonnegative")
    w = np.asarray(w, dtype=np.float64)
    keep = np.nonzero(np.abs(w) >= h)[0]
    if keep.size == 0:
        keep = np.array([int(np.argmax(np.abs(w)))])
    return [int(i) for i in keep]


def vote(casts, members):
    """Majority vote of the members: per-sample labels.

    ``casts`` is a split's class table (``PredictionTensor.classes``): row i
    holds model i's argmax class on each sample.  Each member, listed once,
    casts its row and the most voted class wins.  Ties break toward the
    lowest class.
    """
    members = [int(i) for i in members]
    if not members:
        raise EmptyEnsemble("vote requires at least one member")
    casts = np.asarray(casts)
    if casts.ndim != 2 or not np.issubdtype(casts.dtype, np.integer):
        raise ShapeMismatch(f"casts must be a 2-d integer (models, samples) table, "
                            f"got ndim={casts.ndim} and dtype {casts.dtype}")
    if min(members) < 0 or max(members) >= casts.shape[0]:
        raise ShapeMismatch("member index outside the model range")
    if len(set(members)) != len(members):
        raise DomainError("a member is listed twice")
    chosen = casts[members]
    if chosen.min(initial=0) < 0:
        raise DomainError("a class in the table is negative")
    counts = np.zeros((casts.shape[1], int(chosen.max(initial=0)) + 1), dtype=np.int64)
    rows = np.arange(casts.shape[1])
    for row in chosen:
        counts[rows, row] += 1
    return counts.argmax(axis=1)


def accuracy(predicted, y) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(predicted)
    truth = y.labels if isinstance(y, LabelVector) else np.asarray(y)
    if pred.shape != truth.shape:
        raise ShapeMismatch(
            f"predictions have shape {pred.shape}, labels {truth.shape}"
        )
    if pred.size == 0:
        raise ShapeMismatch("cannot score zero samples")
    return float(np.mean(pred == truth))


def auto_threshold(w, casts, yv, candidates=None):
    """Pick the |w| cutoff maximizing voting accuracy on a validation split.

    ``casts`` and ``yv`` are the split's class table and labels.  Default
    candidates are 20 quantiles of the nonzero |w| (0 alone when w = 0);
    each distinct candidate is voted once.  Ties break toward the larger
    threshold, i.e. the smaller ensemble.  Returns (threshold, its
    validation accuracy).
    """
    w = np.asarray(w, dtype=np.float64)
    if candidates is None:
        nonzero = np.abs(w[w != 0])
        candidates = np.quantile(nonzero, np.linspace(0.0, 1.0, 20)) if nonzero.size else [0.0]
    candidates = np.unique(np.asarray(candidates, dtype=np.float64))
    if candidates.size == 0:
        raise DomainError("candidate list must be non-empty")
    # np.unique sorts a NaN last
    if not (candidates[0] >= 0 and candidates[-1] < np.inf):
        raise DomainError("thresholds must be finite and nonnegative")
    best_h = None
    best_acc = -1.0
    for h in candidates:
        members = prune_by_threshold(w, float(h))
        acc = accuracy(vote(casts, members), yv)
        if acc >= best_acc:
            best_acc = acc
            best_h = float(h)
    return best_h, best_acc


def _run_grid(t, y, splits, config):
    """Shared grid search; returns (best_alpha, best_lambda, cells, w, h).

    Validates the splits, fits the surrogate on the train split and votes
    on the validation split's class table, reading both from ``t`` a block
    at a time; ``w`` and ``h`` are the winning cell's weights and
    threshold.  Cells that build the same program share one solve and one
    threshold search: the constraints depend only on the surrogate and the
    mode, so the program is keyed by its objective.  Lambda drops out of
    the objective in simplex mode and wherever lambda_max is 0, so each
    such alpha is solved once.  A fixed threshold is the search's one
    candidate.  A cell with w = 0 is recorded but cannot win: it would
    keep every member at h = 0.  A grid with no nonzero cell would prune
    nothing and is a DomainError.
    """
    splits.validate_against(t.num_samples)
    splits.require("train", "valid")
    surrogate = build_surrogate(t, y, splits.train_indices)
    casts = t.classes(splits.valid_indices)
    yv = y.subset(splits.valid_indices)
    candidates = None if config.threshold == _AUTO else [config.threshold]

    def evaluate(program, vmap):
        # (w, h, kept, accuracy, status); failed cells carry w=None and -1.0
        try:
            w = _solve_weights(program, vmap, config.simplex_mode)
        except FitFailed as exc:
            return None, -1.0, 0, -1.0, f"failed: {exc.status}"
        h, acc = auto_threshold(w, casts, yv, candidates)
        return w, h, len(prune_by_threshold(w, h)), acc, "ok"

    outcomes = {}
    cells = []
    best_key = None
    best = None
    for ai, alpha in enumerate(config.alpha_grid):
        for li, lam in enumerate(config.lambda_grid):
            program, vmap = build_pruning_socp(
                surrogate, alpha, lam, simplex=config.simplex_mode
            )
            key = program.objective.tobytes()
            if key not in outcomes:
                outcomes[key] = evaluate(program, vmap)
            w, h, kept, acc, status = outcomes[key]
            cells.append(CellDiagnostic(
                alpha=alpha, lam=lam, threshold=h, accuracy=acc,
                num_pruned=kept, status=status,
            ))
            rank = (-acc, kept, li, ai)
            if w is not None and w.any() and (best_key is None or rank < best_key):
                best_key = rank
                best = (alpha, lam, w, h)
    if all(w is None for w, *_ in outcomes.values()):
        raise AllCellsFailed("every grid cell failed to fit")
    if best is None:
        raise DomainError(f"every grid cell solved to w = 0 and would prune nothing, at "
                          f"alpha {config.alpha_grid} and lambda {config.lambda_grid}: "
                          "choose an alpha nearer 1 or a lambda below 1")
    return best[0], best[1], tuple(cells), best[2], best[3]


def cross_validate(t, y, splits, config: PruneConfig):
    """Grid-search (alpha, lambda) by validation accuracy.

    Fits on the train split, thresholds and votes on the validation split;
    ties prefer fewer kept models, then the smaller lambda index, then the
    smaller alpha index.
    """
    return _run_grid(t, y, splits, config)[:3]


def run_pipeline(source, config: PruneConfig | None = None) -> PruneReport:
    """Full pruning run: tune, threshold, vote, report.

    ``source`` is either a SyntheticSpec or a (tensor, labels, splits)
    triple.  The report carries the winning grid cell's weights and
    threshold as the grid computed them; nothing is refit.  Accuracies in
    the report come from the test split only.
    """
    if config is None:
        config = PruneConfig()
    if isinstance(source, SyntheticSpec):
        t, y, splits = generate_synthetic_ensemble(source)
    else:
        t, y, splits = source
    splits.require("test")
    best_alpha, best_lambda, cells, w, h = _run_grid(t, y, splits, config)
    selected = prune_by_threshold(w, h)

    casts = t.classes(splits.test_indices)
    yt = y.subset(splits.test_indices)
    full_acc = accuracy(vote(casts, range(t.num_models)), yt)
    pruned_acc = accuracy(vote(casts, selected), yt)
    return PruneReport(
        best_alpha=best_alpha,
        best_lambda=best_lambda,
        threshold_used=h,
        weights=w,
        selected=tuple(selected),
        full_accuracy=full_acc,
        pruned_accuracy=pruned_acc,
        num_models_full=t.num_models,
        num_models_pruned=len(selected),
        cells=cells,
    )
