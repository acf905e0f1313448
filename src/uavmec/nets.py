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
the input gradient, or both.

`MlpStack` views an (N, P) array of such rows as N networks of one shape, and
`mlp_forward_stack` runs all N on their own batches in one stacked pass. Each
stacked product is the per-network product, computed by the same BLAS call on
the same memory, so a stacked pass is bitwise equal to N `mlp_forward` calls.

The weights stay (fan_out, fan_in). Storing them (fan_in, fan_out) makes the
B = 128 forward product cheaper, but OpenBLAS then sums in another order for
a single input row (a gemv over columns, not rows) and for small batches (its
small-matrix kernels), so the results differ in the last bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class MlpParams:
    """Layer weights (fan_out, fan_in) and biases (fan_out,) as views into `theta`.

    `theta` holds each layer's weights, row-major, then its biases, layer by
    layer. It is used as given, not copied: writing to a weight or bias
    writes to `theta` and to the array it is a row of.
    """

    def __init__(self, theta: np.ndarray, shapes: list[tuple[int, int]],
                 output_activation: str):
        if output_activation not in ("tanh", "linear"):
            raise ConfigError(f"unknown output activation {output_activation!r}")
        size = param_count(shapes)
        if theta.shape != (size,):
            raise ConfigError(f"parameter vector shape {theta.shape} != "
                              f"({size},) for layers {shapes}")
        self.theta = theta
        self.shapes = shapes                  # (fan_out, fan_in) per layer
        self.output_activation = output_activation   # "tanh" | "linear"
        self.weights, self.biases = self.views(theta)

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views into a vector laid out like `theta`."""
        weights, biases, i = [], [], 0
        for fan_out, fan_in in self.shapes:
            weights.append(flat[i:i + fan_out * fan_in].reshape(fan_out, fan_in))
            i += fan_out * fan_in
            biases.append(flat[i:i + fan_out])
            i += fan_out
        return weights, biases

    @property
    def in_dim(self) -> int:
        return self.shapes[0][1]


class MlpStack:
    """N networks of one shape whose `theta` vectors are the rows of `stack` (N, P).

    Per layer, `kernels` are (N, fan_in, fan_out) views of the stored weights,
    each the transpose of that row's (fan_out, fan_in) matrix, and `biases` are
    (N, 1, fan_out) views; a write to `stack` is seen through both.
    """

    def __init__(self, stack: np.ndarray, shapes: list[tuple[int, int]],
                 output_activation: str):
        if stack.ndim != 2 or stack.shape[1] != param_count(shapes):
            raise ConfigError(f"parameter stack shape {stack.shape} != "
                              f"(N, {param_count(shapes)}) for layers {shapes}")
        num = len(stack)
        self.kernels, self.biases, i = [], [], 0
        for fan_out, fan_in in shapes:   # each row laid out as in MlpParams.views
            j = i + fan_out * fan_in
            self.kernels.append(stack[:, i:j].reshape(num, fan_out, fan_in).transpose(0, 2, 1))
            self.biases.append(stack[:, j:j + fan_out][:, None, :])
            i = j + fan_out
        self.in_dim = shapes[0][1]
        self.output_activation = output_activation


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
        bound = 3e-3 if i == last else 1.0 / np.sqrt(w.shape[1])
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
    """Forward pass of a batch (B, in): every layer's activation, the input first.

    The list is the cache `mlp_backward` reads.
    """
    if batch.ndim != 2 or batch.shape[1] != params.in_dim:
        raise ConfigError(f"input shape {batch.shape} != (batch, {params.in_dim})")
    return _activations(batch, [w.T for w in params.weights], params.biases,
                        params.output_activation)


def mlp_forward_stack(stack: MlpStack, x: np.ndarray) -> np.ndarray:
    """Outputs (N, B, out) of the N stacked networks, network n on batch x[n].

    Bitwise equal to `mlp_forward(net_n, x[n])` for every n.
    """
    if x.ndim != 3 or x.shape[0] != len(stack.kernels[0]) or x.shape[2] != stack.in_dim:
        raise ConfigError(f"input shape {x.shape} != "
                          f"({len(stack.kernels[0])}, batch, {stack.in_dim})")
    return _activations(x, stack.kernels, stack.biases, stack.output_activation)[-1]


def _activations(h: np.ndarray, kernels: list[np.ndarray], biases: list[np.ndarray],
                 output_activation: str) -> list[np.ndarray]:
    """Every layer's activation of h (..., B, in) through (..., in, out) kernels,
    the input first; bias and activation are applied in place."""
    acts = [h]
    last = len(kernels) - 1
    for i, (k, b) in enumerate(zip(kernels, biases)):
        h = np.matmul(h, k)
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        elif output_activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def mlp_backward(params: MlpParams, acts: list[np.ndarray], upstream: np.ndarray, *,
                 params_grad: bool = True,
                 input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Reverse pass of sum_b <upstream_b, output_b> over `mlp_activations` output.

    Returns (grad, d_input): grad is laid out like `params.theta`, d_input has
    shape (B, in). A product not asked for is not computed and comes back as
    None. Exact reverse mode, no approximations.
    """
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
    """Convex blend target <- tau * online + (1 - tau) * target, elementwise."""
    if not 0.0 < tau <= 1.0:
        raise ConfigError(f"tau must lie in (0, 1], got {tau}")
    target.theta *= (1.0 - tau)
    target.theta += tau * online.theta
