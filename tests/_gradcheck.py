"""Central finite-difference gradient oracle for the hand-written backprop."""

import numpy as np

FD_STEP = 1e-5
REL_TOL = 1e-4


def fd_gradient(scalar_fn, params, step=FD_STEP):
    """Central differences of scalar_fn() under in-place parameter perturbation.

    `params` is an MlpParams; scalar_fn must read it afresh on every call.
    """
    theta = params.theta.copy()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = theta.copy()
        bump[i] += step
        params.theta[...] = bump
        hi = scalar_fn()
        bump[i] -= 2 * step
        params.theta[...] = bump
        lo = scalar_fn()
        grad[i] = (hi - lo) / (2 * step)
    params.theta[...] = theta
    return grad


def max_rel_error(analytic, numeric, floor=1e-3):
    """Worst elementwise relative error, floored so near-zero pairs compare absolutely."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
