import contextlib
import warnings

import numpy as np
import pytest

from socprune.core import LabelVector, PredictionTensor
from socprune.solver import SolverSettings, solve


def random_probs(rng, num_models, num_samples, num_classes, concentration=1.0):
    """Random valid probability tensor via Dirichlet rows."""
    g = rng.standard_gamma(concentration, size=(num_models, num_samples, num_classes))
    # keep rows away from exact zeros so entropy terms stay smooth
    g = g + 1e-3
    return g / g.sum(axis=2, keepdims=True)


def random_instance(rng, num_models, num_samples, num_classes):
    t = PredictionTensor(probs=random_probs(rng, num_models, num_samples, num_classes))
    y = LabelVector(labels=rng.integers(0, num_classes, size=num_samples),
                    num_classes=num_classes)
    return t, y


def one_iteration_solve(program):
    """A stand-in for the pipeline's ``solve``: one iteration, status max_iters."""
    return solve(program, SolverSettings(max_iters=1))


@contextlib.contextmanager
def no_warning_filter():
    """Every warning raises, and a call to ``warnings.catch_warnings`` fails the test."""
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(warnings, "catch_warnings",
                   lambda *args, **kwargs: pytest.fail("warnings.catch_warnings was called"))
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
