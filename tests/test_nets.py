import math

import numpy as np
import pytest

from tests._gradcheck import REL_TOL, fd_gradient, max_rel_error
from uavmec import nets
from uavmec.errors import ConfigError


def tiny_net(rng, in_dim=3, hidden=4, out_dim=2, activation="tanh"):
    shapes = nets.mlp_shapes(in_dim, hidden, out_dim)
    net = nets.MlpParams(np.empty(nets.param_count(shapes)), shapes, activation)
    nets.init_mlp(net, rng)
    return net


def twin(net):
    """An independent network with `net`'s parameters."""
    return nets.MlpParams(net.theta.copy(), net.shapes, net.output_activation)


class TestForward:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(0)
        net = tiny_net(rng)
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
        out = nets.mlp_forward(net, np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_identity_chain_hand_value(self):
        # 1-1-1-1 chain with unit weights, zero biases: relu -> relu -> tanh
        theta = np.array([1.0, 0.0] * 3)          # per layer: weight, then bias
        net = nets.MlpParams(theta, [(1, 1)] * 3, "tanh")
        assert nets.mlp_forward(net, np.array([0.5]))[0] == pytest.approx(math.tanh(0.5))
        assert nets.mlp_forward(net, np.array([-0.5]))[0] == 0.0  # relu kills it

    def test_actor_output_bounded(self):
        rng = np.random.default_rng(1)
        net = tiny_net(rng, activation="tanh")
        x = rng.normal(size=(64, 3)) * 10
        out = nets.mlp_forward(net, x)
        assert np.all(np.abs(out) < 1.0)
        assert np.all(np.isfinite(out))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        net = tiny_net(rng, activation="linear")
        xs = rng.normal(size=(5, 3))
        batch = nets.mlp_forward(net, xs)
        for i, x in enumerate(xs):
            assert np.allclose(batch[i], nets.mlp_forward(net, x))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        net = tiny_net(rng)
        with pytest.raises(ConfigError):
            nets.mlp_forward(net, np.zeros(5))


class TestGradients:
    def _check(self, rng, activation):
        net = tiny_net(rng, in_dim=3, hidden=4, out_dim=2, activation=activation)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        grads, _ = nets.mlp_gradients(net, x, upstream)
        analytic = np.concatenate(
            [np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])

        def objective():
            return float(np.sum(upstream * nets.mlp_forward(net, x)))

        numeric = fd_gradient(objective, net)
        assert max_rel_error(analytic, numeric) < REL_TOL

    def test_param_gradients_match_fd_tanh(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            self._check(rng, "tanh")

    def test_param_gradients_match_fd_linear(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            self._check(rng, "linear")

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        net = tiny_net(rng, in_dim=4, hidden=5, out_dim=3)
        x = rng.normal(size=4)
        upstream = rng.normal(size=3)
        _, dx = nets.mlp_gradients(net, x, upstream)
        numeric = np.zeros(4)
        for i in range(4):
            hi = x.copy(); hi[i] += 1e-5
            lo = x.copy(); lo[i] -= 1e-5
            numeric[i] = (np.dot(upstream, nets.mlp_forward(net, hi))
                          - np.dot(upstream, nets.mlp_forward(net, lo))) / 2e-5
        assert max_rel_error(dx, numeric) < REL_TOL

    def test_zero_upstream_zero_gradients(self):
        rng = np.random.default_rng(13)
        net = tiny_net(rng)
        grads, dx = nets.mlp_gradients(net, rng.normal(size=(4, 3)), np.zeros((4, 2)))
        for gw, gb in grads:
            assert np.array_equal(gw, np.zeros_like(gw))
            assert np.array_equal(gb, np.zeros_like(gb))
        assert np.array_equal(dx, np.zeros_like(dx))

    def test_gradient_linear_in_upstream(self):
        rng = np.random.default_rng(14)
        net = tiny_net(rng, activation="linear")
        x = rng.normal(size=(4, 3))
        up = rng.normal(size=(4, 2))
        g1, _ = nets.mlp_gradients(net, x, up)
        g3, _ = nets.mlp_gradients(net, x, 3.0 * up)
        for (gw1, gb1), (gw3, gb3) in zip(g1, g3):
            assert np.allclose(gw3, 3.0 * gw1)
            assert np.allclose(gb3, 3.0 * gb1)


class TestSoftUpdate:
    def test_tau_one_exact_copy(self):
        rng = np.random.default_rng(20)
        online, target = tiny_net(rng), tiny_net(rng)
        nets.soft_update(target, online, 1.0)
        for tw, ow in zip(target.weights, online.weights):
            assert np.array_equal(tw, ow)

    def test_direct_blend_value(self):
        rng = np.random.default_rng(21)
        online, target = tiny_net(rng), tiny_net(rng)
        for w in online.weights:
            w[...] = 0.0
        for b in online.biases:
            b[...] = 0.0
        for w in target.weights:
            w[...] = 1.0
        for b in target.biases:
            b[...] = 1.0
        nets.soft_update(target, online, 0.01)
        for w in target.weights:
            assert np.allclose(w, 0.99)

    def test_idempotent_when_equal(self):
        rng = np.random.default_rng(22)
        online = tiny_net(rng)
        target = twin(online)
        nets.soft_update(target, online, 0.37)
        for tw, ow in zip(target.weights, online.weights):
            assert np.allclose(tw, ow)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(23)
        online, target = tiny_net(rng), tiny_net(rng)
        lo = [np.minimum(tw, ow) for tw, ow in zip(target.weights, online.weights)]
        hi = [np.maximum(tw, ow) for tw, ow in zip(target.weights, online.weights)]
        nets.soft_update(target, online, 0.3)
        for tw, l, h in zip(target.weights, lo, hi):
            assert np.all(tw >= l - 1e-15) and np.all(tw <= h + 1e-15)

    def test_invalid_tau(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ConfigError):
            nets.soft_update(tiny_net(rng), tiny_net(rng), 0.0)


class TestPartialBackward:
    @pytest.mark.parametrize("activation", ["tanh", "linear"])
    def test_partial_products_equal_full_gradients(self, activation):
        rng = np.random.default_rng(30)
        net = tiny_net(rng, 6, 16, 3, activation)
        x = rng.normal(size=(32, 6))
        upstream = rng.normal(size=(32, 3))
        grads, dx = nets.mlp_gradients(net, x, upstream)
        acts = nets.mlp_activations(net, x)
        only_params, none = nets.mlp_backward(net, acts, upstream, input_grad=False)
        none_too, only_input = nets.mlp_backward(net, acts, upstream, params_grad=False)
        assert none is None and none_too is None
        full = np.concatenate([p.ravel() for layer in grads for p in layer])
        assert only_params.tobytes() == full.tobytes()
        assert only_input.tobytes() == dx.tobytes()

    def test_upstream_shape_rejected(self):
        rng = np.random.default_rng(31)
        net = tiny_net(rng)
        acts = nets.mlp_activations(net, rng.normal(size=(4, 3)))
        with pytest.raises(ConfigError):
            nets.mlp_backward(net, acts, np.zeros((4, 3)))


class TestFlatParameters:
    def test_layers_are_views_into_theta(self):
        net = tiny_net(np.random.default_rng(40))
        for p in net.weights + net.biases:
            assert np.shares_memory(p, net.theta)
        net.weights[1][0, 0] = 7.0
        assert 7.0 in net.theta

    def test_theta_row_is_used_without_copy(self):
        shapes = nets.mlp_shapes(3, 4, 2)
        stack = np.zeros((3, nets.param_count(shapes)))
        net = nets.MlpParams(stack[1], shapes, "tanh")
        assert net.theta.base is stack
        nets.init_mlp(net, np.random.default_rng(41))
        net.biases[0][...] = 5.0
        assert np.array_equal(stack[1], net.theta) and 5.0 in stack[1]
        assert not stack[0].any() and not stack[2].any()
        assert all(np.shares_memory(w, stack) for w in net.weights + net.biases)

    def test_constructor_checks_theta_shape_and_activation(self):
        shapes = nets.mlp_shapes(3, 4, 2)
        size = nets.param_count(shapes)
        for theta in (np.zeros(size - 1), np.zeros((1, size)), np.zeros(size + 1)):
            with pytest.raises(ConfigError, match="parameter vector shape"):
                nets.MlpParams(theta, shapes, "tanh")
        with pytest.raises(ConfigError, match="unknown output activation"):
            nets.MlpParams(np.zeros(size), shapes, "relu")

    def test_constructor_packs_layer_order(self):
        net = nets.MlpParams(np.arange(11.0), [(2, 3), (1, 2)], "linear")
        assert net.weights[0].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert net.biases[0].tolist() == [6.0, 7.0]
        assert net.weights[1].tolist() == [[8.0, 9.0]]
        assert net.biases[1].tolist() == [10.0]
