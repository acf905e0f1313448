"""Tiny fully connected networks with hand-written reverse-mode gradients.

Two rectifier hidden layers; the output layer is tanh (policies, bounded in
(-1, 1)) or linear (value heads). Everything is plain numpy so the whole
training loop stays dependency-free and bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class MlpParams:
    weights: list[np.ndarray]     # per layer, shape (fan_out, fan_in)
    biases: list[np.ndarray]      # per layer, shape (fan_out,)
    output_activation: str        # "tanh" | "linear"

    def copy(self) -> "MlpParams":
        return MlpParams(weights=[w.copy() for w in self.weights],
                         biases=[b.copy() for b in self.biases],
                         output_activation=self.output_activation)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def load_flat(self, theta: np.ndarray):
        i = 0
        for w, b in zip(self.weights, self.biases):
            w[...] = theta[i:i + w.size].reshape(w.shape)
            i += w.size
            b[...] = theta[i:i + b.size]
            i += b.size


def init_mlp(in_dim: int, hidden: int, out_dim: int, output_activation: str,
             rng: np.random.Generator) -> MlpParams:
    """Fan-in scaled uniform init; a small final layer keeps early outputs near zero."""
    if output_activation not in ("tanh", "linear"):
        raise ConfigError(f"unknown output activation {output_activation!r}")
    dims = [in_dim, hidden, hidden, out_dim]
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        bound = 3e-3 if i == len(dims) - 2 else 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights=weights, biases=biases,
                     output_activation=output_activation)


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a single input vector or a batch (B, in)."""
    batch, squeeze = _as_batch(x)
    if batch.shape[1] != params.in_dim:
        raise ConfigError(f"input dim {batch.shape[1]} != expected {params.in_dim}")
    acts, _ = _forward_cached(params, batch)
    return acts[-1][0] if squeeze else acts[-1]


def _forward_cached(params: MlpParams, batch: np.ndarray):
    acts = [batch]
    pre = []
    last = len(params.weights) - 1
    h = batch
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        if i < last:
            h = np.maximum(z, 0.0)
        elif params.output_activation == "tanh":
            h = np.tanh(z)
        else:
            h = z
        acts.append(h)
    return acts, pre


def mlp_gradients(params: MlpParams, x: np.ndarray,
                  upstream: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Gradients of sum_b <upstream_b, output_b> w.r.t. every parameter and the input.

    Returns ([(dW, db) per layer], d_input) where d_input has the batch shape
    of `x`. Exact reverse mode, no approximations.
    """
    batch, squeeze = _as_batch(x)
    up, _ = _as_batch(upstream)
    if batch.shape[1] != params.in_dim:
        raise ConfigError(f"input dim {batch.shape[1]} != expected {params.in_dim}")
    if up.shape != (batch.shape[0], params.out_dim):
        raise ConfigError(f"upstream shape {up.shape} != "
                          f"({batch.shape[0]}, {params.out_dim})")
    acts, pre = _forward_cached(params, batch)
    last = len(params.weights) - 1

    if params.output_activation == "tanh":
        delta = up * (1.0 - acts[-1] ** 2)
    else:
        delta = up
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.weights)
    for i in range(last, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        delta = delta @ params.weights[i]
        if i > 0:
            delta = delta * (pre[i - 1] > 0.0)
    d_input = delta
    return grads, (d_input[0] if squeeze else d_input)


def apply_gradients(params: MlpParams, grads, scale: float):
    """In-place params += scale * grads (negative scale descends)."""
    for (w, b), (gw, gb) in zip(zip(params.weights, params.biases), grads):
        w += scale * gw
        b += scale * gb


def soft_update(target: MlpParams, online: MlpParams, tau: float):
    """Convex blend target <- tau * online + (1 - tau) * target, elementwise."""
    if not 0.0 < tau <= 1.0:
        raise ConfigError(f"tau must lie in (0, 1], got {tau}")
    for tw, ow in zip(target.weights, online.weights):
        tw *= (1.0 - tau)
        tw += tau * ow
    for tb, ob in zip(target.biases, online.biases):
        tb *= (1.0 - tau)
        tb += tau * ob


def params_finite(params: MlpParams) -> bool:
    return all(np.all(np.isfinite(w)) for w in params.weights) and \
        all(np.all(np.isfinite(b)) for b in params.biases)
