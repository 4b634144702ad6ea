"""Domain types, validation, and the fixed RNG contract."""

import mmap
import os

import numpy as np
import pytest

import socprune
from socprune import core
from socprune.core import (
    LabelVector,
    PredictionTensor,
    SplitSpec,
    mapped_zeros,
    seeded_rng,
    validate_tensor,
)
from socprune.errors import (
    OutOfRange,
    RowNotNormalized,
    ShapeMismatch,
    ValidationError,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class TestValidateTensor:
    def test_uniform_row_ok(self):
        validate_tensor(np.array([[[0.5, 0.5]]]))

    def test_unnormalized_row(self):
        with pytest.raises(RowNotNormalized) as exc:
            validate_tensor(np.array([[[0.7, 0.7]]]))
        assert "model=0" in str(exc.value)

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRange):
            validate_tensor(np.array([[[1.2, -0.2]]]))

    def test_wrong_rank(self):
        with pytest.raises(ShapeMismatch):
            validate_tensor(np.array([[0.5, 0.5]]))

    def test_one_class_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_tensor(np.ones((2, 3, 1)))

    def test_nan_rejected(self):
        probs = np.full((1, 1, 2), 0.5)
        probs[0, 0, 0] = np.nan
        with pytest.raises(OutOfRange):
            validate_tensor(probs)

    def test_passes_keep_their_precedence_across_models(self):
        # a non-finite entry in a later model wins over an out-of-range entry
        # in an earlier one, and that over an earlier row that does not sum to 1
        probs = np.full((3, 2, 2), 0.5)
        probs[0, 1] = [0.7, 0.7]
        probs[1, 0, 1] = 1.5
        probs[2, 1, 0] = np.inf
        with pytest.raises(OutOfRange) as exc:
            validate_tensor(probs)
        assert (exc.value.model, exc.value.sample, exc.value.class_index) == (2, 1, 0)
        probs[2, 1, 0] = 0.5
        with pytest.raises(OutOfRange) as exc:
            validate_tensor(probs)
        assert (exc.value.model, exc.value.sample, exc.value.value) == (1, 0, 1.5)
        probs[1, 0, 1] = 0.5
        with pytest.raises(RowNotNormalized) as exc:
            validate_tensor(probs)
        assert (exc.value.model, exc.value.sample, exc.value.row_sum) == (0, 1, 1.4)

    def test_random_valid_accepted(self, rng):
        for _ in range(50):
            m, n, c = rng.integers(1, 5), rng.integers(1, 6), rng.integers(2, 6)
            g = rng.standard_gamma(1.0, size=(m, n, c)) + 1e-6
            validate_tensor(g / g.sum(axis=2, keepdims=True))

    def test_random_perturbations_rejected(self, rng):
        for _ in range(50):
            g = rng.standard_gamma(1.0, size=(2, 3, 4)) + 1e-6
            probs = g / g.sum(axis=2, keepdims=True)
            i = rng.integers(0, 2)
            n = rng.integers(0, 3)
            if rng.random() < 0.5:
                probs[i, n] *= 1.01  # breaks the row sum
            else:
                probs[i, n, 0] = 1.5  # leaves [0, 1]
            with pytest.raises((RowNotNormalized, OutOfRange)):
                validate_tensor(probs)


class TestPredictionTensor:
    def test_rows_stored_as_given(self):
        # a row off 1 by less than ROW_SUM_TOL is accepted and kept, not rescaled
        probs = np.array([[[0.5 + 4e-10, 0.5]]])
        t = PredictionTensor(probs=probs)
        assert t.probs.tobytes() == probs.tobytes()

    def test_immutable(self):
        t = PredictionTensor(probs=np.array([[[0.5, 0.5]]]))
        with pytest.raises(ValueError):
            t.probs[0, 0, 0] = 0.0

    def test_shape_accessors(self, rng):
        g = rng.standard_gamma(1.0, size=(3, 5, 4)) + 1e-6
        t = PredictionTensor(probs=g / g.sum(axis=2, keepdims=True))
        assert (t.num_models, t.num_samples, t.num_classes) == (3, 5, 4)

    def test_constructor_copies_the_callers_array(self, rng):
        g = rng.standard_gamma(1.0, size=(3, 5, 4)) + 1e-6
        probs = g / g.sum(axis=2, keepdims=True)
        probs[0, 0] *= 1 + 1e-10  # this row sums to 1 + 1e-10 and is kept so
        before = probs.copy()
        t = PredictionTensor(probs=probs)
        assert probs.tobytes() == before.tobytes() and probs.flags.writeable
        assert not np.shares_memory(t.probs, probs)
        assert t.probs.tobytes() == before.tobytes()

    def test_adopt_keeps_the_buffer_as_given(self, rng):
        g = rng.standard_gamma(1.0, size=(3, 5, 4)) + 1e-6
        probs = g / g.sum(axis=2, keepdims=True)
        probs[1, 2] *= 1 - 1e-10
        expected = probs.copy()
        t = PredictionTensor._adopt(probs)
        assert t.probs is probs and not probs.flags.writeable
        assert t.probs.tobytes() == expected.tobytes()

    def test_subset_matches_the_constructor_on_the_gathered_rows(self, rng):
        g = rng.standard_gamma(1.0, size=(3, 9, 4)) + 1e-6
        t = PredictionTensor(probs=g / g.sum(axis=2, keepdims=True))
        idx = [7, 0, 3, 8]
        sub = t.subset(idx)
        assert sub.probs.flags.c_contiguous and not sub.probs.flags.writeable
        assert sub.probs.tobytes() == PredictionTensor(probs=t.probs[:, idx, :]).probs.tobytes()

    def test_subset_order(self):
        probs = np.array([[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]])
        sub = PredictionTensor(probs=probs).subset([2, 0])
        assert np.array_equal(sub.probs[0, 0], [0.5, 0.5])
        assert np.array_equal(sub.probs[0, 1], [1.0, 0.0])

    # blocks of 1 sample, of 4 (which does not divide the 10 samples) and of
    # more samples than there are
    @pytest.mark.parametrize("block_samples", [1, 4, 50])
    def test_blocks_are_the_subset_bit_for_bit(self, rng, monkeypatch, block_samples):
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_samples * 8 * 3 * 4)
        g = rng.standard_gamma(1.0, size=(3, 12, 4)) + 1e-6
        probs = g / g.sum(axis=2, keepdims=True)
        probs[:, ::2] *= 1 + 1e-10  # rows that sum to 1 + 1e-10, kept so
        t = PredictionTensor(probs=probs)
        idx = [11, 0, 5, 3, 9, 1, 2, 8, 7, 4]
        sub = t.subset(idx).probs
        blocks = list(t.blocks(idx))
        assert len(blocks) == -(-len(idx) // block_samples)
        assert [span.stop for span, _ in blocks] == [
            min(len(idx), (k + 1) * block_samples) for k in range(len(blocks))]
        for span, block in blocks:
            assert block.tobytes() == sub[:, span].tobytes()
        assert t.classes(idx).tobytes() == sub.argmax(axis=2).tobytes()
        assert not t.classes(idx).flags.writeable

    def test_classes_of_no_samples(self, rng):
        g = rng.standard_gamma(1.0, size=(3, 5, 4)) + 1e-6
        t = PredictionTensor(probs=g / g.sum(axis=2, keepdims=True))
        assert t.classes([]).shape == (3, 0)


def test_mapped_zeros_owns_an_anonymous_mapping():
    a = mapped_zeros((3, 4), np.int64)
    assert a.shape == (3, 4) and a.dtype == np.int64 and a.flags.writeable
    assert not a.any()
    owner = a
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner.obj, mmap.mmap) and len(owner.obj) == a.nbytes


class TestLabelVector:
    def test_one_hot_rows_sum_one(self):
        y = LabelVector(labels=np.array([0, 2, 1]), num_classes=3)
        assert np.array_equal(y.one_hot().sum(axis=1), [1, 1, 1])
        assert y.one_hot()[1, 2] == 1.0

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError):
            LabelVector(labels=np.array([0, 3]), num_classes=3)

    def test_negative_label(self):
        with pytest.raises(ValidationError):
            LabelVector(labels=np.array([-1]), num_classes=3)

    @pytest.mark.parametrize("num_classes", [2.5, 3.0, "3", True])
    def test_num_classes_must_be_an_integer(self, num_classes):
        # 2.5 used to be accepted, and one_hot() then raised a TypeError
        with pytest.raises(ValidationError, match="num_classes must be an integer"):
            LabelVector(labels=[0, 2], num_classes=num_classes)


class TestSplitSpec:
    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError):
            SplitSpec(train_indices=[0, 1], valid_indices=[1], test_indices=[2])

    def test_duplicate_within_split(self):
        with pytest.raises(ValidationError):
            SplitSpec(train_indices=[0, 0], valid_indices=[1], test_indices=[2])

    def test_non_integral_index_rejected(self):
        # [0.5, 1.7] used to be truncated to [0, 1]
        with pytest.raises(ValidationError, match="train_indices must be integers"):
            SplitSpec(train_indices=[0.5, 1.7], valid_indices=[2], test_indices=[3])

    def test_index_sets_stored_sorted(self):
        # as a dataset's manifest lists them, so a written split reads back equal
        s = SplitSpec(train_indices=[4, 0.0, 2], valid_indices=[3, 1], test_indices=[])
        assert s.train_indices.tolist() == [0, 2, 4] and s.train_indices.dtype == np.int64
        assert s.valid_indices.tolist() == [1, 3] and s.test_indices.size == 0

    def test_validate_against_bounds(self):
        s = SplitSpec(train_indices=[0], valid_indices=[1], test_indices=[5])
        with pytest.raises(ValidationError):
            s.validate_against(4)
        s.validate_against(6)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(0).random(100)
        b = seeded_rng(0).random(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(seeded_rng(0).random(10), seeded_rng(1).random(10))

    def test_algorithm_is_philox(self):
        assert type(seeded_rng(7).bit_generator).__name__ == "Philox"

    def test_seed42_matches_golden(self):
        with open(os.path.join(GOLDEN, "philox_seed42.txt")) as fh:
            lines = [line for line in fh if not line.startswith("#")]
        expected_uniform = [float(v) for v in lines[:8]]
        expected_ints = [int(v) for v in lines[8:12]]
        expected_normal = [float(v) for v in lines[12:16]]
        rng = seeded_rng(42)
        assert list(rng.random(8)) == expected_uniform
        assert list(rng.integers(0, 1000, 4)) == expected_ints
        assert list(rng.standard_normal(4)) == expected_normal


def test_public_names_resolve_once():
    missing = [name for name in socprune.__all__ if not hasattr(socprune, name)]
    repeated = sorted({name for name in socprune.__all__ if socprune.__all__.count(name) > 1})
    assert missing == [] and repeated == []
