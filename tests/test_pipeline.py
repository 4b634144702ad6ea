"""End-to-end pruning pipeline: generator, grid search, voting, oracles."""

import itertools
import mmap
import tracemalloc

import numpy as np
import pytest

from socprune.core import LabelVector, PredictionTensor, SplitSpec
from socprune.errors import (
    AllCellsFailed,
    DomainError,
    EmptyEnsemble,
    FitFailed,
    InvalidSpec,
    MalformedProgram,
    ShapeMismatch,
    ValidationError,
)
from socprune.conic import NONNEG_ORTHANT, QUADRATIC, Cone, ConeProgram, build_pruning_socp
from socprune.loss import QuadraticSurrogate, build_surrogate, exact_loss
from socprune.pipeline import (
    CellDiagnostic,
    PruneConfig,
    SyntheticSpec,
    accuracy,
    auto_threshold,
    cross_validate,
    fit_weights,
    generate_synthetic_ensemble,
    prune_by_threshold,
    run_pipeline,
    vote,
)
from socprune import pipeline
from socprune.solver import SolverSettings, solve

from conftest import one_iteration_solve, random_instance
import test_acceptance
from test_acceptance import brute_force_subset_oracle


def small_spec(**overrides):
    base = dict(num_models=4, num_samples=60, num_classes=3,
                base_accuracy_range=(0.5, 0.8), correlation=0.3,
                sharpness=4.0, seed=3)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticSpec:
    def test_single_model_rejected(self):
        with pytest.raises(InvalidSpec):
            small_spec(num_models=1)

    def test_accuracy_range_must_beat_chance(self):
        with pytest.raises(InvalidSpec):
            small_spec(base_accuracy_range=(0.2, 0.8))  # 0.2 < 1/3

    def test_accuracy_range_may_start_at_chance(self):
        spec = small_spec(num_classes=2, base_accuracy_range=(0.5, 0.9))
        assert spec.base_accuracy_range == (0.5, 0.9)
        with pytest.raises(InvalidSpec):
            small_spec(num_classes=2, base_accuracy_range=(0.5, 0.5))  # no model beats 1/2

    @pytest.mark.parametrize("override", [
        dict(num_models=3.5), dict(num_samples=60.0), dict(num_classes="3"),
        dict(seed=1.5), dict(seed=-1), dict(seed=True), dict(seed=False),
    ], ids=["fractional_models", "float_samples", "string_classes", "fractional_seed",
            "negative_seed", "true_seed", "false_seed"])
    def test_counts_and_seed_are_nonnegative_integers(self, override):
        with pytest.raises(InvalidSpec):
            small_spec(**override)

    def test_accuracy_range_below_one(self):
        with pytest.raises(InvalidSpec):
            small_spec(base_accuracy_range=(0.5, 1.0))

    def test_correlation_range(self):
        with pytest.raises(InvalidSpec):
            small_spec(correlation=1.0)
        with pytest.raises(InvalidSpec):
            small_spec(correlation=-0.1)

    def test_sharpness_positive(self):
        with pytest.raises(InvalidSpec):
            small_spec(sharpness=0.0)


NAN, INF = float("nan"), float("inf")
UNIT_SURROGATE = QuadraticSurrogate(quad=np.eye(2), lin_accuracy=np.zeros(2),
                                    lin_diversity=np.zeros(2), constant=0.0, ridge=0.0)


@pytest.mark.parametrize("make, error", [
    (lambda: PruneConfig(alpha_grid=(0.3, NAN)), DomainError),
    (lambda: PruneConfig(lambda_grid=(0.1, NAN)), DomainError),
    (lambda: PruneConfig(lambda_grid=(INF,)), DomainError),
    (lambda: PruneConfig(threshold=INF), DomainError),
    (lambda: build_pruning_socp(UNIT_SURROGATE, 0.3, NAN, simplex=True), DomainError),
    (lambda: build_pruning_socp(UNIT_SURROGATE, 0.3, INF), DomainError),
    (lambda: SolverSettings(tol=INF), DomainError),
    (lambda: small_spec(sharpness=NAN), InvalidSpec),
    (lambda: small_spec(sharpness=INF), InvalidSpec),
], ids=["alpha_nan", "lambda_nan", "lambda_inf", "threshold_inf", "socp_lambda_nan",
        "socp_lambda_inf", "tol_inf", "sharpness_nan", "sharpness_inf"])
def test_non_finite_setting_rejected(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("setting", [
    dict(threshold="abc"), dict(threshold="Auto"), dict(threshold=True),
    dict(alpha_grid=("x",)), dict(lambda_grid=(0.5, None)),
], ids=["threshold_text", "threshold_capitalized_auto", "threshold_bool", "alpha_text",
        "lambda_none"])
def test_config_value_that_is_not_a_number_rejected(setting):
    # text other than 'auto' used to raise a bare ValueError from float()
    with pytest.raises(DomainError, match="must be numbers"):
        PruneConfig(**setting)


@pytest.mark.parametrize("simplex_mode", ["no", 1, None])
def test_simplex_mode_must_be_a_bool(simplex_mode):
    # 'no' used to be stored as given and, being truthy, ran simplex mode
    with pytest.raises(DomainError, match="simplex_mode must be a bool"):
        PruneConfig(simplex_mode=simplex_mode)
    assert PruneConfig(simplex_mode=np.True_).simplex_mode


_ORTHANT = (Cone(NONNEG_ORTHANT, (0,)),)


@pytest.mark.parametrize("make, error, match", [
    (lambda: PruneConfig(alpha_grid=0.5), DomainError, "grids must be sequences of numbers"),
    (lambda: PruneConfig(alpha_grid=None), DomainError, "grids must be sequences of numbers"),
    (lambda: LabelVector(labels=["a"], num_classes=2), ValidationError,
     "labels must be a rectangular array of numbers"),
    (lambda: SyntheticSpec(4, 60, 3, correlation="x"), InvalidSpec,
     "correlation must be a number"),
    (lambda: SyntheticSpec(4, 60, 3, sharpness="x"), InvalidSpec, "sharpness must be a number"),
    (lambda: SyntheticSpec(4, 60, 3, base_accuracy_range="ab"), InvalidSpec,
     "base_accuracy_range entry must be a number"),
    (lambda: SyntheticSpec(4, 60, 3, base_accuracy_range=(0.5,)), InvalidSpec,
     r"base_accuracy_range must be a \(low, high\) pair"),
    (lambda: SyntheticSpec(4, 60, 3, base_accuracy_range=(0.5, 0.6, 0.7)), InvalidSpec,
     r"base_accuracy_range must be a \(low, high\) pair"),
    (lambda: SolverSettings(tol="x"), DomainError, "tol must be a finite positive number"),
    (lambda: SplitSpec(train_indices=["a"], valid_indices=[1], test_indices=[2]),
     ValidationError, "train_indices must be a rectangular array of numbers"),
    (lambda: PredictionTensor(probs=[[["a", 1.0]]]), ValidationError,
     "probabilities must be a rectangular array of numbers"),
    (lambda: PredictionTensor(probs=[[[0.5, 0.5], [1.0]]]), ValidationError,
     "probabilities must be a rectangular array of numbers"),
    (lambda: QuadraticSurrogate(quad=np.eye(2), lin_accuracy=np.zeros(2),
                                lin_diversity=np.zeros(2), constant="x", ridge=0.0),
     DomainError, "constant must be finite numbers"),
    (lambda: Cone(QUADRATIC, ("a",)), MalformedProgram,
     "cone variable indices must be integers"),
    (lambda: ConeProgram(num_vars="x", objective=np.zeros(1), eq_A=np.zeros((0, 1)),
                         eq_b=np.zeros(0), cones=_ORTHANT, free_vars=()),
     MalformedProgram, "num_vars must be an integer"),
], ids=["alpha_grid_scalar", "alpha_grid_none", "label_text", "correlation_text",
        "sharpness_text", "accuracy_range_text", "accuracy_range_one", "accuracy_range_three",
        "tol_text", "split_index_text", "tensor_text", "tensor_ragged", "surrogate_constant_text",
        "cone_index_text", "num_vars_text"])
def test_wrongly_typed_input_raises_a_socprune_error(make, error, match):
    # each of these used to raise a bare TypeError or ValueError
    with pytest.raises(error, match=match):
        make()


@pytest.mark.parametrize("lam", [-0.1, 1.5])
@pytest.mark.parametrize("make", [
    lambda lam: PruneConfig(lambda_grid=(0.5, lam)),
    lambda lam: build_pruning_socp(UNIT_SURROGATE, 0.3, lam),
    lambda lam: build_pruning_socp(UNIT_SURROGATE, 0.3, lam, simplex=True),
    lambda lam: CellDiagnostic(alpha=0.3, lam=lam, threshold=0.0, accuracy=0.5,
                               num_pruned=2, status="ok"),
], ids=["config", "socp", "socp_simplex", "cell"])
def test_lambda_outside_unit_interval_rejected(make, lam):
    # lambda is a fraction of lambda_max
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        make(lam)


class TestGenerator:
    def test_deterministic(self):
        spec = small_spec(seed=7)
        t1, y1, s1 = generate_synthetic_ensemble(spec)
        t2, y2, s2 = generate_synthetic_ensemble(spec)
        assert np.array_equal(t1.probs, t2.probs)
        assert np.array_equal(y1.labels, y2.labels)
        assert np.array_equal(s1.train_indices, s2.train_indices)

    def test_tensor_owns_an_anonymous_mapping(self):
        # freeing the tensor returns its pages to the system at once
        t, _, _ = generate_synthetic_ensemble(small_spec())
        owner = t.probs
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert isinstance(owner.obj, mmap.mmap) and len(owner.obj) == t.probs.nbytes

    def test_split_proportions(self):
        t, y, s = generate_synthetic_ensemble(small_spec(num_samples=100))
        assert s.train_indices.size == 60
        assert s.valid_indices.size == 20
        assert s.test_indices.size == 20
        s.validate_against(100)

    def test_correlation_raises_agreement(self):
        def mean_agreement(corr):
            spec = small_spec(num_models=4, num_samples=800, num_classes=4,
                              base_accuracy_range=(0.6, 0.7), sharpness=8.0,
                              correlation=corr, seed=11)
            t, _, _ = generate_synthetic_ensemble(spec)
            preds = np.argmax(t.probs, axis=2)
            pairs = list(itertools.combinations(range(4), 2))
            return np.mean([np.mean(preds[i] == preds[j]) for i, j in pairs])

        assert mean_agreement(0.99) >= mean_agreement(0.0)

    def test_accuracy_calibration(self):
        spec = small_spec(num_models=3, num_samples=2500, num_classes=4,
                          base_accuracy_range=(0.55, 0.85), seed=2)
        t, y, _ = generate_synthetic_ensemble(spec)
        preds = np.argmax(t.probs, axis=2)
        # targets are drawn in model order right after the labels
        accs = (preds == y.labels).mean(axis=1)
        assert np.all(accs > 0.5) and np.all(accs < 0.9)

    def test_tight_range_calibration(self):
        spec = SyntheticSpec(num_models=3, num_samples=5000, num_classes=10,
                             base_accuracy_range=(0.95, 0.95), correlation=0.2,
                             sharpness=6.0, seed=4)
        t, y, _ = generate_synthetic_ensemble(spec)
        preds = np.argmax(t.probs, axis=2)
        accs = (preds == y.labels).mean(axis=1)
        assert np.all(accs >= 0.90) and np.all(accs <= 1.0)


class TestFitWeights:
    def test_duplicate_models_symmetric(self, rng):
        t, y = random_instance(rng, 1, 40, 3)
        probs = np.concatenate([t.probs, t.probs], axis=0)
        t2 = PredictionTensor(probs=probs)
        w = fit_weights(t2, y, alpha=0.4, lam=0.05)
        assert abs(w[0] - w[1]) < 1e-6

    def test_huge_lambda_all_zero(self, rng):
        t, y = random_instance(rng, 3, 30, 3)
        w = fit_weights(t, y, alpha=0.5, lam=1.0)
        assert np.abs(w).max() < 1e-7

    def test_simplex_mode_constraints(self, rng):
        t, y = random_instance(rng, 4, 40, 3)
        w = fit_weights(t, y, alpha=0.4, lam=0.3, simplex=True)
        assert abs(w.sum() - 1.0) < 1e-7
        assert w.min() >= -1e-7

    def test_lambda_one_free_mode_is_exact_zero_without_a_solve(self, rng, monkeypatch):
        # no weight has a negative cost at lambda = 1, so x = 0 is optimal
        # without a solve; in simplex mode the sum row rules x = 0 out, even
        # at alpha 0.1, where lambda_max is 0 and no weight cost is negative
        t, y = random_instance(rng, 3, 30, 3)
        calls = []
        monkeypatch.setattr(pipeline, "solve", lambda program: calls.append(program))
        for alpha in (0.1, 0.9):
            w = fit_weights(t, y, alpha=alpha, lam=1.0)
            assert w.tolist() == [0.0] * 3
        assert calls == []
        monkeypatch.undo()
        w = fit_weights(t, y, alpha=0.1, lam=1.0, simplex=True)
        assert abs(w.sum() - 1.0) < 1e-7

    def test_fit_failed_surfaces_status(self, rng, monkeypatch):
        # at alpha 0.9 lambda_max is positive, so lambda 0.1 needs a solve
        t, y = random_instance(rng, 3, 30, 3)
        monkeypatch.setattr(pipeline, "solve", one_iteration_solve)
        with pytest.raises(FitFailed) as exc:
            fit_weights(t, y, alpha=0.9, lam=0.1)
        assert "max_iters" in str(exc.value)


class TestPruneByThreshold:
    def test_basic(self):
        assert prune_by_threshold([0.5, -0.01, 0.2], 0.1) == [0, 2]

    def test_zero_threshold_keeps_all(self):
        assert prune_by_threshold([0.0, 0.3], 0.0) == [0, 1]

    def test_empty_guard_returns_argmax(self):
        assert prune_by_threshold([0.01, -0.3, 0.2], 1.0) == [1]

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            prune_by_threshold([0.5], -0.1)
        with pytest.raises(DomainError):
            prune_by_threshold([0.5], float("nan"))

    def test_monotone_nesting(self, rng):
        w = rng.normal(size=8)
        previous = set(range(8))
        for h in np.linspace(0.0, np.abs(w).max(), 12):
            selected = set(prune_by_threshold(w, float(h)))
            if len(selected) > 1 or np.abs(w).max() >= h:
                assert selected <= previous
                previous = selected


def class_table(probs):
    """Class table of every sample of a tensor, as the grid hands it to ``vote``."""
    t = PredictionTensor(probs=probs)
    return t.classes(np.arange(t.num_samples))


def tensor_vote_counts(t, members):
    """Per-sample class counts of the tensor vote that ``vote`` replaced."""
    casts = t.probs[members].argmax(axis=2)
    counts = np.zeros((t.num_samples, t.num_classes), dtype=np.int64)
    for row in casts:
        counts[np.arange(t.num_samples), row] += 1
    return counts


class TestVote:
    def two_model_table(self):
        # model 0 says class 0 on all three samples; model 1 says class 1
        return class_table(np.array([
            [[0.9, 0.1], [0.9, 0.1], [0.9, 0.1]],
            [[0.2, 0.8], [0.2, 0.8], [0.2, 0.8]],
        ]))

    def test_majority_simple(self):
        casts = class_table(np.array([
            [[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]],
        ]))
        assert vote(casts, [0, 1, 2])[0] == 0

    def test_majority_tie_lowest_class(self):
        labels = vote(self.two_model_table(), [0, 1])
        assert np.array_equal(labels, [0, 0, 0])

    def test_single_member(self):
        labels = vote(self.two_model_table(), [1])
        assert np.array_equal(labels, [1, 1, 1])

    def test_duplication_invariance(self, rng):
        t, _ = random_instance(rng, 3, 12, 4)
        base = vote(class_table(t.probs), [0, 1, 2])
        doubled = class_table(np.concatenate([t.probs, t.probs], axis=0))
        assert np.array_equal(vote(doubled, [0, 1, 2, 3, 4, 5]), base)

    def test_empty_members(self):
        with pytest.raises(EmptyEnsemble):
            vote(self.two_model_table(), [])

    def test_out_of_range_member(self):
        with pytest.raises(ShapeMismatch):
            vote(self.two_model_table(), [0, 5])
        with pytest.raises(ShapeMismatch):
            vote(self.two_model_table(), [-1])

    def test_repeated_member(self):
        # listed three times, model 0 would outvote models 1 and 2
        casts = class_table(np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0]]]))
        assert vote(casts, [0, 1, 2])[0] == 1
        with pytest.raises(DomainError):
            vote(casts, [0, 0, 0, 1, 2])

    @pytest.mark.parametrize("casts", [
        np.zeros((2, 3, 1), dtype=np.intp),  # a tensor's shape, not a table's
        np.zeros(3, dtype=np.intp),
        np.zeros((2, 3)),  # float classes
    ])
    def test_table_must_be_2d_integer(self, casts):
        with pytest.raises(ShapeMismatch):
            vote(casts, [0])

    def test_negative_class_rejected(self):
        with pytest.raises(DomainError):
            vote(np.array([[0, -1], [1, 1]]), [0, 1])

    def test_matches_the_tensor_vote_on_random_splits_with_ties(self, rng):
        # few classes and sharp rows make many tied counts; the table of a
        # split equals the split tensor's argmax and votes as it did
        ties = 0
        for _ in range(30):
            m, n, c = int(rng.integers(1, 7)), int(rng.integers(1, 40)), int(rng.integers(2, 5))
            g = rng.standard_gamma(0.3, size=(m, n, c)) + 1e-9
            t = PredictionTensor(probs=g / g.sum(axis=2, keepdims=True))
            split = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            casts = t.classes(split)
            sub = t.subset(split)
            assert np.array_equal(casts, sub.probs.argmax(axis=2))
            for _ in range(5):
                members = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
                counts = tensor_vote_counts(sub, members)
                assert np.array_equal(vote(casts, members), counts.argmax(axis=1))
                top_two = np.sort(counts, axis=1)[:, -2:]
                ties += np.count_nonzero(top_two[:, 0] == top_two[:, 1])
        assert ties > 0


class TestAccuracy:
    def test_three_of_four(self):
        y = LabelVector(labels=np.array([0, 1, 0, 1]), num_classes=2)
        assert accuracy(np.array([0, 1, 0, 0]), y) == 0.75

    def test_empty_rejected(self):
        y = LabelVector(labels=np.array([0]), num_classes=2)
        with pytest.raises(ShapeMismatch):
            accuracy(np.array([], dtype=int), y.subset([]))

    def test_shape_mismatch(self):
        y = LabelVector(labels=np.array([0, 1]), num_classes=2)
        with pytest.raises(ShapeMismatch):
            accuracy(np.array([0]), y)


class TestAutoThreshold:
    def test_tie_prefers_larger(self):
        # identical models: every threshold votes identically, largest h wins
        row = np.array([[0.8, 0.2], [0.3, 0.7], [0.9, 0.1], [0.1, 0.9]])
        probs = np.stack([row, row, row])
        casts = class_table(probs)
        y = LabelVector(labels=np.array([0, 1, 0, 1]), num_classes=2)
        w = np.array([0.1, 0.2, 0.3])
        h, _ = auto_threshold(w, casts, y)
        assert h == pytest.approx(0.3)

    def test_picks_accuracy_maximizer(self):
        # model 0 perfect, models 1..2 always wrong; only h > |w_1|, |w_2|
        # isolates model 0 and fixes the vote
        good = np.array([[0.9, 0.1], [0.1, 0.9]] * 2)
        bad = np.array([[0.1, 0.9], [0.9, 0.1]] * 2)
        casts = class_table(np.stack([good, bad, bad]))
        y = LabelVector(labels=np.array([0, 1, 0, 1]), num_classes=2)
        w = np.array([0.9, 0.5, 0.5])
        h, _ = auto_threshold(w, casts, y)
        selected = prune_by_threshold(w, h)
        assert selected == [0]

    def test_explicit_candidates(self):
        casts = class_table(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
        y = LabelVector(labels=np.array([0]), num_classes=2)
        h, acc = auto_threshold(np.array([0.8, 0.1]), casts, y, candidates=[0.0, 0.5])
        assert (h, acc) == (0.5, 1.0)

    @pytest.mark.parametrize("candidates", [[np.inf], [0.5, np.inf], [-0.1], [np.nan], []])
    def test_bad_candidates_rejected(self, candidates):
        casts = class_table(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
        y = LabelVector(labels=np.array([0]), num_classes=2)
        with pytest.raises(DomainError):
            auto_threshold(np.array([0.8, 0.1]), casts, y, candidates=candidates)


class TestCrossValidate:
    def test_single_cell_grid(self, rng):
        t, y = random_instance(rng, 3, 50, 3)
        splits = SplitSpec(train_indices=np.arange(30),
                           valid_indices=np.arange(30, 40),
                           test_indices=np.arange(40, 50))
        config = PruneConfig(alpha_grid=(0.9,), lambda_grid=(0.3,))
        best_alpha, best_lambda, cells = cross_validate(t, y, splits, config)
        assert (best_alpha, best_lambda) == (0.9, 0.3)
        assert len(cells) == 1 and cells[0].status == "ok"

    def test_dominating_subset_wins(self):
        # model 0 is right on 16 of the 20 train samples and on every later
        # one; models 1 and 2 are right on 12 train samples, among them the
        # ones model 0 misses, and wrong on every later one.  At lambda 0
        # all three get weight and the bad pair outvotes model 0; at 0.9
        # only model 0 is kept, and that cell dominates
        n = 40
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=n)
        sample = np.arange(n)

        def model(right):  # 0.9 on the true class where right, else 0.1
            p1 = np.where(right, 0.1 + 0.8 * labels, 0.9 - 0.8 * labels)
            return np.stack([1.0 - p1, p1], axis=1)

        good = model((sample < 16) | (sample >= 20))
        bad = model((sample >= 8) & (sample < 20))
        t = PredictionTensor(probs=np.stack([good, bad, bad]))
        y = LabelVector(labels=labels, num_classes=2)
        splits = SplitSpec(train_indices=np.arange(20),
                           valid_indices=np.arange(20, 30),
                           test_indices=np.arange(30, 40))
        config = PruneConfig(alpha_grid=(0.9,), lambda_grid=(0.0, 0.9),
                             threshold=0.05)
        best_alpha, best_lambda, cells = cross_validate(t, y, splits, config)
        assert best_lambda == 0.9
        by_lam = {c.lam: c for c in cells}
        assert by_lam[0.9].accuracy == 1.0
        assert by_lam[0.9].num_pruned == 1
        assert by_lam[0.9].accuracy > by_lam[0.0].accuracy
        assert by_lam[0.0].num_pruned == 3

    def test_tie_prefers_smaller_lambda_then_alpha_index(self):
        # identical models get equal weights: every cell behaves the same,
        # so the documented index order decides
        row = np.array([[0.7, 0.3], [0.2, 0.8]] * 10)
        t = PredictionTensor(probs=np.stack([row, row, row]))
        y = LabelVector(labels=np.array([0, 1] * 10), num_classes=2)
        splits = SplitSpec(train_indices=np.arange(10),
                           valid_indices=np.arange(10, 15),
                           test_indices=np.arange(15, 20))
        config = PruneConfig(alpha_grid=(0.8, 0.9), lambda_grid=(0.7, 0.9))
        best_alpha, best_lambda, cells = cross_validate(t, y, splits, config)
        assert len({(c.accuracy, c.num_pruned) for c in cells}) == 1
        assert best_lambda == 0.7
        assert best_alpha == 0.8

    def test_all_cells_failed(self, rng, monkeypatch):
        t, y = random_instance(rng, 3, 50, 3)
        splits = SplitSpec(train_indices=np.arange(30),
                           valid_indices=np.arange(30, 40),
                           test_indices=np.arange(40, 50))
        # at alpha 0.9 lambda_max is positive, so the cell needs a solve
        config = PruneConfig(alpha_grid=(0.9,), lambda_grid=(0.5,))
        monkeypatch.setattr(pipeline, "solve", one_iteration_solve)
        with pytest.raises(AllCellsFailed):
            cross_validate(t, y, splits, config)


class TestRunPipeline:
    def test_identical_models_equal_accuracy(self):
        rng = np.random.default_rng(5)
        row = rng.dirichlet(np.ones(3), size=60)
        t = PredictionTensor(probs=np.stack([row, row, row, row]))
        y = LabelVector(labels=rng.integers(0, 3, 60), num_classes=3)
        splits = SplitSpec(train_indices=np.arange(36),
                           valid_indices=np.arange(36, 48),
                           test_indices=np.arange(48, 60))
        report = run_pipeline((t, y, splits), PruneConfig(threshold="auto"))
        assert report.pruned_accuracy == report.full_accuracy
        assert report.num_models_pruned <= report.num_models_full

    def test_deterministic_reports(self):
        spec = small_spec(num_samples=80, seed=9)
        config = PruneConfig(threshold="auto", simplex_mode=True)
        assert run_pipeline(spec, config) == run_pipeline(spec, config)

    def test_synthetic_source(self):
        report = run_pipeline(small_spec(), PruneConfig(simplex_mode=True))
        assert 0.0 <= report.pruned_accuracy <= 1.0
        assert len(report.cells) == 25
        assert sorted(report.selected) == list(report.selected)

    @pytest.mark.parametrize("simplex, threshold", [
        pytest.param(True, "auto", id="True-5"),
        pytest.param(False, "auto", id="False-distinct"),
        pytest.param(True, 0.2, id="True-5-fixed_threshold"),
    ])
    def test_grid_solves_each_distinct_program_once(self, monkeypatch, simplex, threshold):
        # each distinct objective of the default 5x5 grid is solved once:
        # simplex mode drops lambda from the program, so there is one per
        # alpha; free mode solves only where a weight has a negative cost;
        # each distinct program gets one threshold search on the one
        # validation split, and the winner is not refit or voted again; no
        # split is gathered into a tensor
        built = []
        costly = set()  # objectives with a negative weight cost
        calls = []
        subsets = []
        votes = []
        searched = []  # distinct candidates of each threshold search
        real_subset = PredictionTensor.subset
        real_vote = pipeline.vote
        real_threshold = pipeline.auto_threshold
        real_build = pipeline.build_pruning_socp

        def recording_build(*args, **kwargs):
            program, vmap = real_build(*args, **kwargs)
            built.append(program.objective.tobytes())
            if program.objective[list(vmap.x_indices)].min() < 0:
                costly.add(built[-1])
            return program, vmap

        def counting_solve(program, settings=None):
            calls.append(program)
            return solve(program, settings)

        def counting_subset(self, indices):
            subsets.append(len(indices))
            return real_subset(self, indices)

        def counting_vote(casts, *args, **kwargs):
            votes.append(casts)
            return real_vote(casts, *args, **kwargs)

        def counting_threshold(w, casts, yv, candidates=None, **kwargs):
            grid = candidates
            if grid is None:  # the default: quantiles of the nonzero |w|, or 0
                grid = np.quantile(np.abs(w[w != 0]), np.linspace(0.0, 1.0, 20)) if w.any() else [0.0]
            searched.append(np.unique(grid).size)
            return real_threshold(w, casts, yv, candidates, **kwargs)

        monkeypatch.setattr(pipeline, "build_pruning_socp", recording_build)
        monkeypatch.setattr(pipeline, "solve", counting_solve)
        monkeypatch.setattr(PredictionTensor, "subset", counting_subset)
        monkeypatch.setattr(pipeline, "vote", counting_vote)
        monkeypatch.setattr(pipeline, "auto_threshold", counting_threshold)
        spec = small_spec()
        config = PruneConfig(simplex_mode=simplex, threshold=threshold)
        report = run_pipeline(spec, config)
        assert len(report.cells) == len(built) == 25
        distinct = len(set(built))
        solved = sorted(p.objective.tobytes() for p in calls)
        if simplex:
            assert distinct == len(config.alpha_grid)
            assert solved == sorted(set(built))
        else:  # where lambda_max is 0, lambda drops out and w = 0 needs no solve
            assert distinct < len(built)
            assert solved == sorted(costly) and 0 < len(costly) < distinct
        # the surrogate and the class tables read the dataset tensor in blocks
        assert subsets == []
        # one vote per distinct candidate of each distinct program, all on
        # one validation class table, then the full and the pruned ensemble
        # on the test split's
        assert len(searched) == distinct
        assert len(votes) == sum(searched) + 2
        assert len({id(casts) for casts in votes[:-2]}) == 1
        assert votes[-1] is votes[-2] is not votes[0]
        if threshold != "auto":
            assert searched == [1] * distinct
            assert {c.threshold for c in report.cells} == {threshold}

    def test_peak_memory_is_a_fraction_of_the_tensor(self, rng):
        # the surrogate and the class tables read the tensor a block at a
        # time: no split is copied whole
        t, y = random_instance(rng, 20, 2000, 100)
        perm = rng.permutation(2000)
        splits = SplitSpec(train_indices=perm[:1200], valid_indices=perm[1200:1600],
                           test_indices=perm[1600:])
        config = PruneConfig(alpha_grid=(0.4,), lambda_grid=(0.1,), simplex_mode=True)
        tracemalloc.start()
        try:
            run_pipeline((t, y, splits), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * t.probs.nbytes

    def test_selected_size_mostly_shrinks_with_lambda(self):
        # free mode, where lambda enters the program: the support of w must
        # not grow with lambda, and no member of weight 0 is kept.  The
        # auto-threshold kept count is reported only.
        alpha = 0.7
        trials = 10
        kept_shrinking = 0
        for seed in range(trials):
            t, y, splits = generate_synthetic_ensemble(small_spec(
                num_models=6, num_samples=200, seed=seed))
            supports = []
            kept = []
            for lam in (0.1, 0.5, 0.9):
                config = PruneConfig(alpha_grid=(alpha,), lambda_grid=(lam,),
                                     threshold="auto")
                report = run_pipeline((t, y, splits), config)
                supports.append(int(np.count_nonzero(np.abs(report.weights) > 1e-8)))
                kept.append(report.num_models_pruned)
                assert all(report.weights[i] != 0 for i in report.selected), (seed, lam)
            assert all(b <= a for a, b in zip(supports, supports[1:])), (seed, supports)
            if all(b <= a for a, b in zip(kept, kept[1:])):
                kept_shrinking += 1
        print(f"auto-threshold kept count monotone in lambda on "
              f"{kept_shrinking}/{trials} seeds")

    def test_zero_weight_members_are_not_kept(self):
        # seed 4 at alpha 0.5, lambda 0.5 solves to w with 4 zero entries, and
        # the full ensemble votes best on validation: candidates from all |w|
        # (0 among them) would pick h = 0 and keep all 6, zero weights included
        t, y, splits = generate_synthetic_ensemble(small_spec(
            num_models=6, num_samples=200, seed=4))
        report = run_pipeline((t, y, splits),
                              PruneConfig(alpha_grid=(0.5,), lambda_grid=(0.5,)))
        w = report.weights
        assert 0 < np.count_nonzero(w) < 6
        every_weight = np.quantile(np.abs(w), np.linspace(0.0, 1.0, 20))
        casts, yv = t.classes(splits.valid_indices), y.subset(splits.valid_indices)
        assert auto_threshold(w, casts, yv, every_weight)[0] == 0.0
        assert report.threshold_used > 0
        assert all(w[i] != 0 for i in report.selected)

    def test_zero_weight_cell_never_wins(self):
        # the full ensemble votes best on validation, so the w = 0 cells at
        # alpha 0.1 and 0.3, which keep all 4 at h = 0, are recorded with
        # the best accuracy; the winner is a cell with a nonzero weight
        report = run_pipeline(small_spec(), PruneConfig())
        zero_cells = [c for c in report.cells if c.alpha in (0.1, 0.3)]
        assert {(c.threshold, c.accuracy, c.num_pruned) for c in zero_cells} == {(0.0, 1.0, 4)}
        assert report.best_alpha not in (0.1, 0.3)
        assert report.weights.any()

    def test_grid_of_zero_weights_is_a_domain_error(self):
        # lambda = 1 is lambda_max itself, and at alpha 0 the program is
        # linear with lambda_max = max(0, max_i -c_i(0))
        t, y, splits = generate_synthetic_ensemble(small_spec())
        surrogate = build_surrogate(t, y, splits.train_indices)
        zero_alphas = tuple(a for a in (0.0, 0.05, 0.1, 0.2)
                            if surrogate.combined_linear(a).min() >= 0)
        assert zero_alphas
        config = PruneConfig(alpha_grid=zero_alphas, lambda_grid=(0.1, 0.9))
        with pytest.raises(DomainError, match=r"w = 0 .* at alpha \(0\.0"):
            run_pipeline((t, y, splits), config)


class TestBruteForceOracle:
    def test_matches_manual_enumeration(self, rng):
        t, y = random_instance(rng, 3, 12, 3)
        alpha = 0.45
        best = None
        for r in range(1, 4):
            for subset in itertools.combinations(range(3), r):
                w = np.full(len(subset), 1.0 / len(subset))
                sub = PredictionTensor(probs=t.probs[list(subset)])
                val = exact_loss(w, sub, y, alpha).total
                if best is None or val < best[1] - 1e-15:
                    best = (subset, val)
        subset, value = brute_force_subset_oracle(t, y, alpha)
        assert tuple(subset) == best[0]
        assert abs(value - best[1]) < 1e-12

    def test_lower_bound_property(self, rng):
        t, y = random_instance(rng, 6, 30, 3)
        _, oracle_value = brute_force_subset_oracle(t, y, 0.3)
        for _ in range(10):
            r = int(rng.integers(1, 7))
            subset = sorted(rng.choice(6, size=r, replace=False))
            w = np.full(r, 1.0 / r)
            sub = PredictionTensor(probs=t.probs[subset])
            assert oracle_value <= exact_loss(w, sub, y, 0.3).total + 1e-12

    def test_lexicographic_tie_break(self, rng):
        t, y = random_instance(rng, 1, 10, 3)
        probs = np.concatenate([t.probs, t.probs], axis=0)
        t2 = PredictionTensor(probs=probs)
        subset, _ = brute_force_subset_oracle(t2, y, 0.5)
        # duplicates tie; {0} precedes {1} and {0,1} lexicographically
        assert tuple(subset) == (0,)

    @pytest.mark.parametrize("alpha", [float("nan"), 2.0, -0.5])
    def test_alpha_checked_before_enumeration(self, rng, monkeypatch, alpha):
        t, y = random_instance(rng, 3, 12, 3)

        def enumerated(probs):
            raise AssertionError("subsets enumerated before alpha was checked")

        monkeypatch.setattr(test_acceptance, "entropy_term", enumerated)
        with pytest.raises(DomainError, match="alpha"):
            brute_force_subset_oracle(t, y, alpha)

    def test_too_large_guard(self, rng):
        t, y = random_instance(rng, 15, 5, 2)
        with pytest.raises(ValueError, match="enumeration limit"):
            brute_force_subset_oracle(t, y, 0.5)
