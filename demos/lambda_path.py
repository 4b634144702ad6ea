"""Trace the sparsity path of the pruning program.

Fits the weight vector at increasing L1 penalties on one synthetic
ensemble and prints the L1 norm and the surviving coordinate count at
each stop.  The norm is non-increasing along the path; coordinates
drop out as the penalty grows.
"""

import numpy as np

from socprune import SyntheticSpec, fit_weights, generate_synthetic_ensemble


def main():
    spec = SyntheticSpec(
        num_models=8, num_samples=500, num_classes=3,
        base_accuracy_range=(0.5, 0.9), correlation=0.2,
        sharpness=8.0, seed=3)
    t, y, splits = generate_synthetic_ensemble(spec)
    train_t = t.subset(splits.train_indices)
    train_y = y.subset(splits.train_indices)

    print(f"{'lambda':>7}  {'||w||_1':>10}  {'nonzero':>7}  weights")
    for lam in (0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8):
        w = fit_weights(train_t, train_y, alpha=0.5, lam=lam)
        nonzero = int(np.sum(np.abs(w) > 1e-7))
        head = " ".join(f"{v:+.4f}" for v in w)
        print(f"{lam:7.2f}  {np.abs(w).sum():10.6f}  {nonzero:7d}  [{head}]")

    # on the simplex ||w||_1 = 1, so lambda does not change the program
    print("\nsame path on the probability simplex (weights sum to one):")
    print(f"{'lambda':>7}  {'||w||_1':>10}  {'nonzero':>7}")
    for lam in (0.0, 0.2, 0.8):
        w = fit_weights(train_t, train_y, alpha=0.5, lam=lam, simplex=True)
        nonzero = int(np.sum(np.abs(w) > 1e-7))
        print(f"{lam:7.2f}  {np.abs(w).sum():10.6f}  {nonzero:7d}")


if __name__ == "__main__":
    main()
