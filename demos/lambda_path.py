"""Trace the sparsity path of the pruning program.

Fits the nonnegative weight vector at increasing L1 penalties on one
synthetic ensemble and prints the L1 norm and the surviving coordinate
count at each stop.  lambda is a fraction of lambda_max, the smallest
penalty at which every weight is 0.  The norm is non-increasing along
the path; coordinates drop out as lambda grows toward 1.
"""

import numpy as np

from socprune import SyntheticSpec, build_surrogate, fit_weights, generate_synthetic_ensemble


def main():
    spec = SyntheticSpec(
        num_models=8, num_samples=500, num_classes=3,
        base_accuracy_range=(0.5, 0.9), correlation=0.2,
        sharpness=8.0, seed=3)
    t, y, splits = generate_synthetic_ensemble(spec)
    train_t = t.subset(splits.train_indices)
    train_y = y.subset(splits.train_indices)

    alpha = 0.7
    # w = 0 is optimal once the penalty cancels the most negative linear coefficient
    lam_max = max(0.0, -build_surrogate(train_t, train_y).combined_linear(alpha).min())
    print(f"alpha {alpha}: lambda_max = {lam_max:.6f}")
    print(f"{'lambda':>7}  {'penalty':>9}  {'||w||_1':>10}  {'nonzero':>7}  weights")
    for lam in (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9):
        w = fit_weights(train_t, train_y, alpha=alpha, lam=lam)
        nonzero = int(np.sum(np.abs(w) > 1e-7))
        head = " ".join(f"{v:.4f}" for v in w)
        print(f"{lam:7.2f}  {lam * lam_max:9.6f}  {np.abs(w).sum():10.6f}  {nonzero:7d}  [{head}]")

    # on the simplex ||w||_1 = 1, so lambda does not change the program
    print("\nsame path on the probability simplex (weights sum to one):")
    print(f"{'lambda':>7}  {'||w||_1':>10}  {'nonzero':>7}")
    for lam in (0.0, 0.2, 0.8):
        w = fit_weights(train_t, train_y, alpha=alpha, lam=lam, simplex=True)
        nonzero = int(np.sum(np.abs(w) > 1e-7))
        print(f"{lam:7.2f}  {np.abs(w).sum():10.6f}  {nonzero:7d}")


if __name__ == "__main__":
    main()
