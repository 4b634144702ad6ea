"""Exact ensemble loss, entropy machinery, and the quadratic surrogate.

The reference evaluator below is written straight from the loss formula
with explicit loops, independent of the vectorized implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest

from socprune import core
from socprune.core import LabelVector, PredictionTensor
from socprune.errors import DomainError, ShapeMismatch
from socprune.loss import QuadraticSurrogate, build_surrogate, entropy_term, exact_loss

from conftest import no_warning_filter, random_instance, random_probs


def reference_loss(w, probs, labels, alpha):
    """Looped re-implementation of the loss; the oracle for exact_loss."""
    num_models, num_samples, num_classes = probs.shape
    acc_total = 0.0
    div_total = 0.0
    for n in range(num_samples):
        mix = [
            sum(w[i] * probs[i, n, j] for i in range(num_models))
            for j in range(num_classes)
        ]
        acc = 0.0
        bracket = 0.0
        for j in range(num_classes):
            gt = 1.0 if labels[n] == j else 0.0
            acc += (mix[j] - gt) ** 2
            h_mix = -mix[j] * math.log(mix[j]) if mix[j] > 0 else 0.0
            h_members = sum(
                w[i] * (-probs[i, n, j] * math.log(probs[i, n, j])
                        if probs[i, n, j] > 0 else 0.0)
                for i in range(num_models)
            )
            bracket += h_mix - h_members
        acc_total += acc / num_classes
        div_total += 1.0 - bracket / num_classes
    acc_term = acc_total / num_samples
    div_term = div_total / num_samples
    return alpha * acc_term + (1 - alpha) * div_term, acc_term, div_term


class TestEntropyTerm:
    def test_zero(self):
        assert entropy_term(0.0) == 0.0

    def test_one(self):
        assert entropy_term(1.0) == 0.0

    def test_half(self):
        assert abs(entropy_term(0.5) - (-0.5 * math.log(0.5))) < 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            entropy_term(1.1)
        with pytest.raises(DomainError):
            entropy_term(-0.1)

    def test_slack_tolerated(self):
        assert entropy_term(-1e-13) == 0.0
        assert entropy_term(1.0 + 1e-13) == 0.0

    def test_vectorized(self):
        z = np.array([0.0, 0.5, 1.0])
        out = entropy_term(z)
        assert out.shape == (3,) and out[0] == 0.0 and out[2] == 0.0

    def test_peak_memory_is_the_clipped_copy_and_the_output(self, rng):
        z = random_probs(rng, 20, 1200, 100)
        z[:, ::7] = 0.0
        z[:, 1::7] = np.eye(100)[0]
        z[0, 2, 0] = 5e-324
        tracemalloc.start()
        try:
            out = entropy_term(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * z.nbytes
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.where(z > 0.0, -z * np.log(z), 0.0)
        assert out.tobytes() == expected.tobytes()


class TestDistributionEntropy:
    """The Shannon entropy of a row, as the sum of its entropy_term kernel."""

    def test_uniform_is_log_c(self):
        assert abs(entropy_term([0.25] * 4).sum() - math.log(4)) < 1e-15

    def test_one_hot_is_zero(self):
        assert entropy_term([0.0, 1.0, 0.0]).sum() == 0.0

    def test_frozen_value(self):
        # -0.25 ln 0.25 - 0.75 ln 0.75, evaluated independently
        assert abs(entropy_term([0.25, 0.75]).sum() - 0.5623351446188083) < 1e-15

    def test_bad_row(self):
        # entries outside [0, 1]; the kernel does not check the row sum
        with pytest.raises(DomainError):
            entropy_term([1.4, -0.4]).sum()

    def test_bounds(self, rng):
        for _ in range(200):
            c = int(rng.integers(2, 8))
            g = rng.standard_gamma(0.5, size=c) + 1e-12
            p = g / g.sum()
            h = entropy_term(p).sum()
            assert -1e-12 <= h <= math.log(c) + 1e-12

    def test_concavity(self, rng):
        for _ in range(200):
            c = int(rng.integers(2, 6))
            g = rng.standard_gamma(1.0, size=(2, c)) + 1e-9
            p, q = g[0] / g[0].sum(), g[1] / g[1].sum()
            theta = rng.uniform(0.05, 0.95)
            mixed = entropy_term(theta * p + (1 - theta) * q).sum()
            split = theta * entropy_term(p).sum() + (1 - theta) * entropy_term(q).sum()
            assert mixed >= split - 1e-12


class TestExactLoss:
    def test_single_member_diversity_is_one(self, rng):
        t, y = random_instance(rng, 1, 5, 3)
        lv = exact_loss([1.0], t, y, alpha=0.4)
        assert lv.diversity_term == 1.0

    def test_duplicate_pair_diversity_is_one(self, rng):
        probs = random_probs(rng, 1, 4, 3)
        t = PredictionTensor(probs=np.concatenate([probs, probs], axis=0))
        y = LabelVector(labels=rng.integers(0, 3, 4), num_classes=3)
        lv = exact_loss([0.5, 0.5], t, y, alpha=0.2)
        assert abs(lv.diversity_term - 1.0) < 1e-12

    def test_matches_reference_oracle(self, rng):
        for _ in range(20):
            t, y = random_instance(rng, 3, 4, 2)
            g = rng.standard_gamma(1.0, size=3) + 1e-3
            w = g / g.sum()
            lv = exact_loss(w, t, y, alpha=0.35)
            ref_total, ref_acc, ref_div = reference_loss(
                w, t.probs, y.labels, alpha=0.35
            )
            assert abs(lv.total - ref_total) < 1e-12
            assert abs(lv.accuracy_term - ref_acc) < 1e-12
            assert abs(lv.diversity_term - ref_div) < 1e-12

    def test_decomposition_identity(self, rng):
        t, y = random_instance(rng, 4, 6, 3)
        w = np.full(4, 0.25)
        for alpha in (0.0, 0.3, 1.0):
            lv = exact_loss(w, t, y, alpha)
            assert abs(lv.total - (alpha * lv.accuracy_term
                                   + (1 - alpha) * lv.diversity_term)) < 1e-12

    def test_out_of_domain_mixture_raises(self, rng):
        t, y = random_instance(rng, 2, 3, 2)
        with pytest.raises(DomainError):
            exact_loss([2.0, 1.5], t, y, alpha=0.5)

    def test_jensen_bracket_nonnegative(self, rng):
        # simplex weights keep diversity_term <= 1 + tolerance
        for _ in range(30):
            t, y = random_instance(rng, 3, 5, 4)
            g = rng.standard_gamma(1.0, size=3) + 1e-3
            w = g / g.sum()
            lv = exact_loss(w, t, y, alpha=0.0)
            assert lv.diversity_term <= 1.0 + 1e-12

    def test_sample_order_invariance(self, rng):
        t, y = random_instance(rng, 3, 8, 3)
        w = np.full(3, 1 / 3)
        perm = rng.permutation(8)
        a = exact_loss(w, t, y, 0.4).total
        b = exact_loss(w, t.subset(perm), y.subset(perm), 0.4).total
        assert abs(a - b) < 1e-9

    def test_peak_memory_is_a_fraction_of_the_tensor(self, rng):
        # member entropy is summed a model at a time: every temporary is the
        # size of one model's rows, not of the tensor
        t, y = random_instance(rng, 20, 1200, 100)
        w = np.full(20, 1.0 / 20)
        tracemalloc.start()
        try:
            exact_loss(w, t, y, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * t.probs.nbytes


def whole_tensor_surrogate(t, y):
    """(quad, lin_accuracy, lin_diversity, constant) by the surrogate's formulas,
    each one einsum over the whole tensor."""
    m, n, c = t.probs.shape
    scale = 1.0 / (n * c)
    quad = np.einsum("inj,knj->ik", t.probs, t.probs) * scale
    one_hot = y.one_hot()
    mix = np.einsum("i,inj->nj", np.full(m, 1.0 / m), t.probs)
    log_mix_1 = np.log(np.clip(mix, 1e-12, None)) + 1.0
    return (0.5 * (quad + quad.T),
            -2.0 * scale * np.einsum("nj,inj->i", one_hot, t.probs),
            scale * (np.einsum("nj,inj->i", log_mix_1, t.probs)
                     + np.sum(entropy_term(t.probs), axis=(1, 2))),
            float(np.sum(one_hot**2) * scale))


class TestQuadraticSurrogate:
    @pytest.mark.parametrize("name", ["lin_accuracy", "lin_diversity"])
    @pytest.mark.parametrize("shape", [(2,), (3, 1)])
    def test_linear_terms_need_one_entry_per_model(self, name, shape):
        fields = dict(quad=np.eye(3), lin_accuracy=np.zeros(3), lin_diversity=np.zeros(3),
                      constant=0.0, ridge=0.0)
        fields[name] = np.zeros(shape)
        with pytest.raises(ShapeMismatch):
            QuadraticSurrogate(**fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["quad", "lin_accuracy", "lin_diversity", "constant",
                                      "ridge"])
    def test_non_finite_field_rejected(self, name, value):
        # an inf in quad used to warn in the symmetry check and fail in the
        # Cholesky factor; a nan ridge used to fail only in the cone program
        fields = dict(quad=np.eye(3), lin_accuracy=np.zeros(3), lin_diversity=np.zeros(3),
                      constant=0.0, ridge=0.0)
        if np.ndim(fields[name]):
            fields[name].flat[1] = value
        else:
            fields[name] = value
        with no_warning_filter(), pytest.raises(DomainError, match=f"{name} must be finite"):
            QuadraticSurrogate(**fields)


class TestBuildSurrogate:
    def test_hand_example(self):
        t = PredictionTensor(probs=np.array([[[0.5, 0.5]]]))
        y = LabelVector(labels=np.array([0]), num_classes=2)
        s = build_surrogate(t, y)
        assert abs(s.quad[0, 0] - 0.25) < 1e-15
        assert abs(s.lin_accuracy[0] - (-0.5)) < 1e-15
        assert abs(s.constant - 0.5) < 1e-15

    def test_accuracy_term_exact(self, rng):
        for _ in range(20):
            t, y = random_instance(rng, 4, 6, 3)
            s = build_surrogate(t, y)
            w = rng.normal(size=4) * 0.3
            quad_val = w @ s.quad @ w + s.lin_accuracy @ w + s.constant
            # evaluate only the accuracy part; alpha=1 isolates it
            mix = np.einsum("i,inj->nj", w, t.probs)
            acc = np.mean(np.sum((mix - y.one_hot()) ** 2, axis=1) / t.num_classes)
            assert abs(quad_val - acc) < 1e-10

    def test_diversity_gradient_finite_difference(self, rng):
        step = 1e-6
        for _ in range(10):
            t, y = random_instance(rng, 3, 5, 3)
            anchor = np.full(3, 1 / 3)
            s = build_surrogate(t, y)
            for i in range(3):
                wp, wm = anchor.copy(), anchor.copy()
                wp[i] += step
                wm[i] -= step
                fd = (exact_loss(wp, t, y, 0.0).diversity_term
                      - exact_loss(wm, t, y, 0.0).diversity_term) / (2 * step)
                assert abs(s.lin_diversity[i] - fd) < 1e-5

    def test_quad_psd(self, rng):
        t, y = random_instance(rng, 5, 7, 4)
        s = build_surrogate(t, y)
        for _ in range(20):
            w = rng.normal(size=5)
            assert w @ s.quad @ w >= -1e-10

    def test_default_ridge_scale(self, rng):
        t, y = random_instance(rng, 4, 6, 3)
        s = build_surrogate(t, y)
        assert abs(s.ridge - 1e-8 * np.trace(s.quad) / 4) < 1e-20

    def test_symmetry_enforced(self, rng):
        t, y = random_instance(rng, 4, 6, 3)
        s = build_surrogate(t, y)
        assert np.abs(s.quad - s.quad.T).max() <= 1e-12

    def test_peak_memory_is_a_fraction_of_the_tensor(self, rng):
        # the tensor is read in blocks of about 1 MiB, entropy_term runs a
        # block at a time and log(mix) + 1 is built in place: no temporary
        # is as large as the train tensor
        t, y = random_instance(rng, 20, 1200, 100)
        tracemalloc.start()
        try:
            build_surrogate(t, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * t.probs.nbytes

    def test_diversity_term_matches_the_whole_tensor_formula(self, rng):
        # all samples by default, read in blocks and summed a block at a
        # time: the formula on whole-tensor temporaries to 1e-12
        for shape in [(20, 1200, 100), (3, 7, 2), (40, 240, 10), (5, 1, 3), (1, 50, 1000)]:
            t, y = random_instance(rng, *shape)
            expected = whole_tensor_surrogate(t, y)[2]
            got = build_surrogate(t, y).lin_diversity
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    # blocks of 1 sample, of 7 (which does not divide the 71 samples) and of
    # more samples than there are
    @pytest.mark.parametrize("block_samples", [1, 7, 500])
    def test_blocks_match_the_whole_tensor_formulas_on_the_subset(
            self, rng, monkeypatch, block_samples):
        m, n, c = 6, 120, 5
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_samples * 8 * m * c)
        for _ in range(5):
            t, y = random_instance(rng, m, n, c)
            samples = rng.permutation(n)[:71]
            s = build_surrogate(t, y, samples)
            quad, lin_accuracy, lin_diversity, constant = whole_tensor_surrogate(
                t.subset(samples), y.subset(samples))
            for got, want in ((s.quad, quad), (s.lin_accuracy, lin_accuracy),
                              (s.lin_diversity, lin_diversity)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert s.constant == constant
            assert np.array_equal(s.quad, s.quad.T)

    def test_all_samples_by_default(self, rng):
        t, y = random_instance(rng, 5, 40, 4)
        everything = build_surrogate(t, y, np.arange(40))
        s = build_surrogate(t, y)
        for name in ("quad", "lin_accuracy", "lin_diversity"):
            got, want = getattr(s, name), getattr(everything, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_needs_a_sample(self, rng):
        t, y = random_instance(rng, 3, 10, 2)
        with pytest.raises(ShapeMismatch):
            build_surrogate(t, y, [])

    def test_one_hot_members_tolerated(self):
        # anchor mixture contains an exact zero; the clamped log must not blow up
        probs = np.array([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])
        t = PredictionTensor(probs=probs)
        y = LabelVector(labels=np.array([0, 0]), num_classes=2)
        s = build_surrogate(t, y)
        assert np.all(np.isfinite(s.lin_diversity))
