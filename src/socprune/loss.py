"""Ensemble loss: quadratic accuracy term, entropy diversity term, and the
convex quadratic surrogate used by the cone-program builder.

The loss of a weighted ensemble splits into an accuracy part (mean squared
deviation of the mixed prediction from the one-hot truth, averaged over
classes and samples) and a diversity part built from the per-class Jensen
gap of the scalar entropy function ``-z ln z``.  The accuracy part is an
exact quadratic form in the weights; the diversity part is concave-induced
and is linearized at uniform weights to obtain the surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelVector, PredictionTensor
from .errors import DomainError, ShapeMismatch

ENTROPY_DOMAIN_SLACK = 1e-12
MIX_DOMAIN_SLACK = 1e-9
LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class LossValue:
    """Total loss together with its accuracy/diversity decomposition.

    Satisfies ``total == alpha * accuracy_term + (1 - alpha) * diversity_term``
    to 1e-12 by construction.
    """

    total: float
    accuracy_term: float
    diversity_term: float
    alpha: float


@dataclass(frozen=True)
class QuadraticSurrogate:
    """Convex quadratic model of the ensemble loss in the weight variable.

    ``quad`` is the exact (ridge-free) accuracy quadratic; ``ridge`` records
    the diagonal shift applied wherever the matrix is factorized, so that
    ``quad + ridge * I`` is positive definite.  ``lin_accuracy`` is the linear
    part of the accuracy term, ``lin_diversity`` the gradient of the exact
    diversity term at uniform weights, and ``constant`` the
    weight-independent accuracy offset.
    """

    quad: np.ndarray
    lin_accuracy: np.ndarray
    lin_diversity: np.ndarray
    constant: float
    ridge: float

    def __post_init__(self):
        quad = np.asarray(self.quad, dtype=np.float64)
        if quad.ndim != 2 or quad.shape[0] != quad.shape[1]:
            raise ShapeMismatch(f"quadratic matrix must be square, got {quad.shape}")
        for name in ("lin_accuracy", "lin_diversity"):
            if np.shape(getattr(self, name)) != (quad.shape[0],):
                raise ShapeMismatch(f"{name} must have shape ({quad.shape[0]},)")
        for name in ("quad", "lin_accuracy", "lin_diversity", "constant", "ridge"):
            if not np.isfinite(getattr(self, name)).all():
                raise DomainError(f"{name} must be finite")
        if np.abs(quad - quad.T).max(initial=0.0) > 1e-12:
            raise DomainError("quadratic matrix is not symmetric to 1e-12")
        if self.ridge < 0:
            raise DomainError("ridge must be nonnegative")

    @property
    def num_models(self) -> int:
        return self.quad.shape[0]

    def combined_linear(self, alpha: float) -> np.ndarray:
        """Linear objective coefficient on the weights at trade-off ``alpha``."""
        return alpha * self.lin_accuracy + (1.0 - alpha) * self.lin_diversity


def entropy_term(z):
    """Scalar entropy kernel ``-z ln z`` on [0, 1], continuously extended to 0 at z=0.

    Accepts scalars or arrays; raises ``DomainError`` for arguments outside
    [0, 1] beyond a 1e-12 slack.
    """
    arr = np.asarray(z, dtype=np.float64)
    lo, hi = arr.min(initial=0.0), arr.max(initial=1.0)
    if lo < -ENTROPY_DOMAIN_SLACK or hi > 1.0 + ENTROPY_DOMAIN_SLACK:
        raise DomainError(f"entropy argument outside [0, 1]: range [{arr.min()}, {arr.max()}]")
    # a clipped copy only where the slack is used; then one output array:
    # log, times z, negated, then 0 at z = 0
    clipped = arr if 0.0 <= lo and hi <= 1.0 else np.clip(arr, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(clipped, out=np.empty_like(clipped))
        out *= clipped
    np.negative(out, out=out)
    out[~(clipped > 0.0)] = 0.0
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out


def _mixture(w: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """All mixture rows at once: (N, C) array of sum_i w_i probs[i]."""
    return np.einsum("i,inj->nj", w, probs)


def exact_loss(w, t: PredictionTensor, y: LabelVector, alpha: float) -> LossValue:
    """Exact ensemble loss at weights ``w``, averaged over samples.

    The mixed prediction must stay inside [0, 1] per class (guaranteed for
    simplex weights); mixtures outside by more than 1e-9 raise
    ``DomainError`` rather than being clamped.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (t.num_models,):
        raise ShapeMismatch(f"weights have shape {w.shape}, expected ({t.num_models},)")
    if y.num_samples != t.num_samples or y.num_classes != t.num_classes:
        raise ShapeMismatch("labels do not match the prediction tensor")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")

    probs = t.probs
    num_classes = t.num_classes
    mix = _mixture(w, probs)
    if mix.min(initial=0.0) < -MIX_DOMAIN_SLACK or mix.max(initial=1.0) > 1.0 + MIX_DOMAIN_SLACK:
        raise DomainError(
            "mixed prediction leaves [0, 1]; entropy undefined for these weights"
        )
    mix = np.clip(mix, 0.0, 1.0)

    one_hot = y.one_hot()
    accuracy = float(np.mean(np.sum((mix - one_hot) ** 2, axis=1)) / num_classes)

    mixture_entropy = np.sum(entropy_term(mix), axis=1)
    # a model at a time: no tensor-sized temporary
    member_entropy = np.einsum(
        "i,in->n", w, np.array([np.sum(entropy_term(model), axis=1) for model in probs]))
    jensen_gap = (mixture_entropy - member_entropy) / num_classes
    diversity = float(np.mean(1.0 - jensen_gap))

    return LossValue(total=alpha * accuracy + (1.0 - alpha) * diversity,
                     accuracy_term=accuracy, diversity_term=diversity, alpha=alpha)


def build_surrogate(t: PredictionTensor, y: LabelVector, samples=None) -> QuadraticSurrogate:
    """Quadratic surrogate of the ensemble loss around uniform weights.

    The accuracy term is represented exactly:
    ``w @ quad @ w + lin_accuracy @ w + constant`` reproduces the exact
    accuracy term for any ``w`` (with the recorded ``ridge`` excluded).
    The diversity term is replaced by its first-order expansion at the
    uniform weights ``1/M``; the value offset there is dropped since it
    does not move the argmin.  The uniform mixture is clamped below at
    1e-12 inside the logarithm to tolerate one-hot member rows.

    ``samples`` selects the samples it is fitted on, all of them by
    default.  They are read from ``t`` in blocks of about 1 MiB
    (``PredictionTensor.blocks``), each renormalized as ``t.subset(samples)``
    would be, so no copy of the selection is held whole; the Gram and the
    member entropy are one call per block.

    ``ridge`` is ``1e-8 * trace(quad) / M``, recorded for the Cholesky
    factorization performed by the cone-program builder.
    """
    if y.num_samples != t.num_samples or y.num_classes != t.num_classes:
        raise ShapeMismatch("labels do not match the prediction tensor")
    num_models, num_classes = t.num_models, t.num_classes
    samples = np.arange(t.num_samples) if samples is None else np.asarray(samples, dtype=np.int64)
    labels = y.labels[samples]
    if labels.size == 0:
        raise ShapeMismatch("need at least 1 sample to fit the surrogate on")
    scale = 1.0 / (labels.size * num_classes)
    uniform = np.full(num_models, 1.0 / num_models)

    gram = np.zeros((num_models, num_models))
    label_mass = np.zeros(num_models)
    log_mix_mass = np.zeros(num_models)
    entropy = np.zeros(num_models)
    for span, block in t.blocks(samples):
        flat = block.reshape(num_models, -1)
        gram += flat @ flat.T
        block_labels = labels[span]
        one_hot = np.zeros((block_labels.size, num_classes))
        one_hot[np.arange(block_labels.size), block_labels] = 1.0
        label_mass += np.einsum("nj,inj->i", one_hot, block)
        # log(mix) + 1 built in place
        log_mix_1 = _mixture(uniform, block)
        np.log(np.clip(log_mix_1, LOG_CLAMP, None, out=log_mix_1), out=log_mix_1)
        log_mix_1 += 1.0
        log_mix_mass += np.einsum("nj,inj->i", log_mix_1, block)
        entropy += entropy_term(block).sum(axis=(1, 2))

    quad = gram * scale
    quad = 0.5 * (quad + quad.T)
    return QuadraticSurrogate(
        quad=quad,
        lin_accuracy=-2.0 * scale * label_mass,
        lin_diversity=scale * (log_mix_mass + entropy),
        constant=float(labels.size * scale),
        ridge=1e-8 * float(np.trace(quad)) / num_models,
    )
