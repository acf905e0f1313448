"""Tiny fully connected networks with hand-written reverse-mode gradients.

Two rectifier hidden layers; the output layer is tanh (policies, bounded in
(-1, 1)) or linear (value heads). Everything is plain numpy so the whole
training loop stays dependency-free and bit-reproducible.

A network keeps all its parameters in one flat vector, `MlpParams.theta`;
the per-layer weights and biases are views into it, so a blend or a
gradient step is one array operation per network. Gradients use the same
flat layout. `mlp_activations` is the checked forward pass that keeps every
layer's activation, and `mlp_backward` runs the reverse pass over that cache
and computes only the products asked for: the parameter gradient, the input
gradient, or both.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class MlpParams:
    """Layer weights (fan_out, fan_in) and biases (fan_out,) as views into `theta`.

    `theta` holds each layer's weights, row-major, then its biases, layer by
    layer. Writing to a weight or bias writes to `theta` and back.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray],
                 output_activation: str):
        shapes = [np.shape(w) for w in weights]
        for i, (shape, b) in enumerate(zip(shapes, biases)):
            if len(shape) != 2 or np.shape(b) != shape[:1]:
                raise ConfigError(f"layer {i} has weights {shape} and biases {np.shape(b)}")
        parts = [np.ravel(p) for w, b in zip(weights, biases) for p in (w, b)]
        self._bind(np.concatenate(parts).astype(float, copy=False), shapes,
                   output_activation)

    def _bind(self, theta: np.ndarray, shapes: list[tuple[int, int]],
              output_activation: str):
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

    def copy(self) -> "MlpParams":
        return _bound(self.theta.copy(), self.shapes, self.output_activation)

    @property
    def in_dim(self) -> int:
        return self.shapes[0][1]

    def flat(self) -> np.ndarray:
        return self.theta.copy()

    def load_flat(self, theta: np.ndarray):
        if np.shape(theta) != self.theta.shape:
            raise ConfigError(f"parameter vector shape {np.shape(theta)} "
                              f"!= expected {self.theta.shape}")
        self.theta[...] = theta


def _bound(theta: np.ndarray, shapes: list[tuple[int, int]],
           output_activation: str) -> MlpParams:
    """MlpParams over an existing flat vector, without copying it."""
    params = object.__new__(MlpParams)
    params._bind(theta, shapes, output_activation)
    return params


def init_mlp(in_dim: int, hidden: int, out_dim: int, output_activation: str,
             rng: np.random.Generator) -> MlpParams:
    """Fan-in scaled uniform init; a small final layer keeps early outputs near zero."""
    if output_activation not in ("tanh", "linear"):
        raise ConfigError(f"unknown output activation {output_activation!r}")
    dims = [in_dim, hidden, hidden, out_dim]
    shapes = list(zip(dims[1:], dims[:-1]))
    params = _bound(np.empty(sum(fan_out * (fan_in + 1) for fan_out, fan_in in shapes)),
                    shapes, output_activation)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        bound = 3e-3 if i == len(dims) - 2 else 1.0 / np.sqrt(dims[i])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return params


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
    acts = [batch]
    last = len(params.weights) - 1
    h = batch
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        if i < last:
            h = np.maximum(z, 0.0)
        elif params.output_activation == "tanh":
            h = np.tanh(z)
        else:
            h = z
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
            np.sum(delta, axis=0, out=grad_b[i])
        if i == 0 and not input_grad:
            break
        delta = delta @ params.weights[i]
        if i > 0:
            delta = delta * (acts[i] > 0.0)
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


def apply_gradients(params: MlpParams, grad: np.ndarray, scale: float):
    """In-place theta += scale * grad (negative scale descends)."""
    params.theta += scale * grad


def soft_update(target: MlpParams, online: MlpParams, tau: float):
    """Convex blend target <- tau * online + (1 - tau) * target, elementwise."""
    if not 0.0 < tau <= 1.0:
        raise ConfigError(f"tau must lie in (0, 1], got {tau}")
    target.theta *= (1.0 - tau)
    target.theta += tau * online.theta


def params_finite(params: MlpParams) -> bool:
    return bool(np.isfinite(params.theta).all())
