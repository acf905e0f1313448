"""Tiny fully connected networks with hand-written reverse-mode gradients.

Two rectifier hidden layers; the output layer is tanh (policies, bounded in
(-1, 1)) or linear (value heads). Everything is plain numpy so the whole
training loop stays dependency-free and bit-reproducible.

A network keeps all its parameters in one flat vector, `MlpParams.theta`,
which may be a row of a larger array (the trainer keeps one row per agent);
layer by layer it holds the (fan_out, fan_in) weight matrix, row-major, then
the fan_out biases, and the per-layer weights and biases are views into it,
so a blend or a gradient step is one array operation per network. Gradients
use the same flat layout. `mlp_activations` is the checked forward pass that
keeps every layer's activation, and `mlp_backward` runs the reverse pass over
that cache and computes only the products asked for: the parameter gradient,
the input gradient, or both. Every forward and backward pass of the learner
goes through these two. `mlp_forward`, `_as_batch` and `mlp_gradients` remain
only because the benchmark's tracer (`bench/tracing.PATCHES`) looks them up by
name and their own tests use them; they go once the tracer stops doing so.

The same type views an (N, P) `theta` as N networks of one shape, weights
(N, fan_out, fan_in) and biases (N, fan_out), and `mlp_activations` then runs
all N on their own batches in one stacked pass. Each stacked product is the
per-network product, computed by the same BLAS call on the same memory, so a
stacked pass is bitwise equal to N single-network passes. The backward pass
takes one network at a time.

The weights stay (fan_out, fan_in). Storing them (fan_in, fan_out) makes the
B = 128 forward product cheaper, but OpenBLAS then sums in another order for
a single input row (a gemv over columns, not rows) and for small batches (its
small-matrix kernels), so the results differ in the last bits.
"""

from __future__ import annotations

import numpy as np

from .errors import UNIT, ConfigError, check_number


class MlpParams:
    """Layer weights (..., fan_out, fan_in) and biases (..., fan_out) as views into `theta`.

    `theta` is one network's parameter vector (P,), or an (N, P) array whose
    rows are N networks of the same shape. Each vector holds each layer's
    weights, row-major, then its biases, layer by layer. It is used as given,
    not copied: writing to a weight or bias writes to `theta` and to the array
    it is a row of.
    """

    def __init__(self, theta: np.ndarray, shapes: list[tuple[int, int]],
                 output_activation: str):
        if output_activation not in ("tanh", "linear"):
            raise ConfigError(f"unknown output activation {output_activation!r}")
        size = param_count(shapes)
        if theta.ndim not in (1, 2) or theta.shape[-1] != size:
            raise ConfigError(f"parameter vector shape {theta.shape} != ({size},) "
                              f"or (N, {size}) for layers {shapes}")
        self.theta = theta
        self.shapes = shapes                  # (fan_out, fan_in) per layer
        self.output_activation = output_activation   # "tanh" | "linear"
        self.weights, self.biases = self.views(theta)

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views into an array laid out like `theta`,
        sliced along its last axis."""
        lead = flat.shape[:-1]
        weights, biases, i = [], [], 0
        for fan_out, fan_in in self.shapes:
            weights.append(flat[..., i:i + fan_out * fan_in].reshape(*lead, fan_out, fan_in))
            i += fan_out * fan_in
            biases.append(flat[..., i:i + fan_out])
            i += fan_out
        return weights, biases

    @property
    def in_dim(self) -> int:
        return self.shapes[0][1]


def mlp_shapes(in_dim: int, hidden: int, out_dim: int) -> list[tuple[int, int]]:
    """(fan_out, fan_in) of the two hidden layers and the output layer."""
    dims = [in_dim, hidden, hidden, out_dim]
    return list(zip(dims[1:], dims[:-1]))


def param_count(shapes: list[tuple[int, int]]) -> int:
    return sum(fan_out * (fan_in + 1) for fan_out, fan_in in shapes)


def init_mlp(params: MlpParams, rng: np.random.Generator):
    """Fan-in scaled uniform init of `params.theta` in place, layer by layer,
    weights before biases; a small final layer keeps early outputs near zero."""
    last = len(params.shapes) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        bound = 3e-3 if i == last else 1.0 / np.sqrt(w.shape[-1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a single input vector or a batch (B, in)."""
    batch, squeeze = _as_batch(x)
    out = mlp_activations(params, batch)[-1]
    return out[0] if squeeze else out


def mlp_activations(params: MlpParams, batch: np.ndarray) -> list[np.ndarray]:
    """Forward pass of a batch (B, in), or of an (N, P) `params` on N batches
    (N, B, in), network n on batch n: every layer's activation, the input first.

    Each layer is one `np.matmul` through the transposed weights, so a stacked
    pass is bitwise equal to N single-network passes. The list is the cache
    `mlp_backward` reads.
    """
    lead = params.theta.shape[:-1]
    if (batch.ndim != len(lead) + 2 or batch.shape[:-2] != lead
            or batch.shape[-1] != params.in_dim):
        need = ", ".join([*map(str, lead), "batch", str(params.in_dim)])
        raise ConfigError(f"input shape {batch.shape} != ({need})")
    acts = [batch]
    last = len(params.shapes) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(acts[-1], w.swapaxes(-1, -2))
        h += b[..., None, :]    # bias and activation in place
        if i < last:
            np.maximum(h, 0.0, out=h)
        elif params.output_activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def mlp_backward(params: MlpParams, acts: list[np.ndarray], upstream: np.ndarray, *,
                 params_grad: bool = True,
                 input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Reverse pass of sum_b <upstream_b, output_b> over `mlp_activations` output.

    Returns (grad, d_input): grad is laid out like `params.theta`, d_input has
    shape (B, in). A product not asked for is not computed and comes back as
    None. Exact reverse mode, no approximations. `params` must be one network.
    """
    if params.theta.ndim != 1:
        raise ConfigError(f"mlp_backward takes one network, not a stack of "
                          f"{len(params.theta)}")
    if upstream.shape != acts[-1].shape:
        raise ConfigError(f"upstream shape {upstream.shape} != {acts[-1].shape}")
    if params.output_activation == "tanh":
        delta = upstream * (1.0 - acts[-1] ** 2)
    else:
        delta = upstream
    grad = np.empty_like(params.theta) if params_grad else None
    if params_grad:
        grad_w, grad_b = params.views(grad)
    for i in range(len(params.weights) - 1, -1, -1):
        if params_grad:
            np.matmul(delta.T, acts[i], out=grad_w[i])
            np.add.reduce(delta, axis=0, out=grad_b[i])
        if i == 0 and not input_grad:
            break
        # np.dot, unlike matmul, hands the critic head's K = 1 product to BLAS
        delta = np.dot(delta, params.weights[i])
        if i > 0:
            delta *= acts[i] > 0.0
    return grad, (delta if input_grad else None)


def mlp_gradients(params: MlpParams, x: np.ndarray,
                  upstream: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Gradients of sum_b <upstream_b, output_b> w.r.t. every parameter and the input.

    Returns ([(dW, db) per layer], d_input) where d_input has the batch shape
    of `x`.
    """
    batch, squeeze = _as_batch(x)
    up, _ = _as_batch(upstream)
    grad, d_input = mlp_backward(params, mlp_activations(params, batch), up)
    grads = list(zip(*params.views(grad)))
    return grads, (d_input[0] if squeeze else d_input)


def soft_update(target: MlpParams, online: MlpParams, tau: float):
    """Convex blend target <- tau * online + (1 - tau) * target, elementwise;
    `tau` must lie in (0, 1] (`errors.check_number`)."""
    check_number(tau, UNIT, "tau")
    target.theta *= (1.0 - tau)
    target.theta += tau * online.theta
