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
        net.theta[...] = 0.0                       # every weight and bias
        out = nets.mlp_activations(net, np.array([[1.0, -2.0, 3.0]]))[-1]
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_identity_chain_hand_value(self):
        # 1-1-1-1 chain with unit weights, zero biases: relu -> relu -> tanh
        theta = np.array([1.0, 0.0] * 3)          # per layer: weight, then bias
        net = nets.MlpParams(theta, [(1, 1)] * 3, "tanh")
        out = nets.mlp_activations(net, np.array([[0.5], [-0.5]]))[-1]
        assert out[0, 0] == pytest.approx(math.tanh(0.5))
        assert out[1, 0] == 0.0  # relu kills it

    def test_actor_output_bounded(self):
        rng = np.random.default_rng(1)
        net = tiny_net(rng, activation="tanh")
        x = rng.normal(size=(64, 3)) * 10
        out = nets.mlp_activations(net, x)[-1]
        assert np.all(np.abs(out) < 1.0)
        assert np.all(np.isfinite(out))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        net = tiny_net(rng, activation="linear")
        xs = rng.normal(size=(5, 3))
        batch = nets.mlp_activations(net, xs)[-1]
        for i in range(len(xs)):
            assert np.allclose(batch[i], nets.mlp_activations(net, xs[i:i + 1])[-1][0])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        net = tiny_net(rng)
        with pytest.raises(ConfigError):
            nets.mlp_activations(net, np.zeros((1, 5)))


class TestGradients:
    def _check(self, rng, activation):
        net = tiny_net(rng, in_dim=3, hidden=4, out_dim=2, activation=activation)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        analytic, _ = nets.mlp_backward(net, nets.mlp_activations(net, x), upstream,
                                        input_grad=False)   # laid out like theta

        def objective():
            return float(np.sum(upstream * nets.mlp_activations(net, x)[-1]))

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
        x = rng.normal(size=(1, 4))
        upstream = rng.normal(size=(1, 3))
        _, dx = nets.mlp_backward(net, nets.mlp_activations(net, x), upstream, params_grad=False)
        numeric = np.zeros((1, 4))
        for i in range(4):
            hi = x.copy(); hi[0, i] += 1e-5
            lo = x.copy(); lo[0, i] -= 1e-5
            numeric[0, i] = np.sum(upstream * (nets.mlp_activations(net, hi)[-1]
                                               - nets.mlp_activations(net, lo)[-1])) / 2e-5
        assert max_rel_error(dx, numeric) < REL_TOL

    def test_zero_upstream_zero_gradients(self):
        rng = np.random.default_rng(13)
        net = tiny_net(rng)
        acts = nets.mlp_activations(net, rng.normal(size=(4, 3)))
        grad, dx = nets.mlp_backward(net, acts, np.zeros((4, 2)))
        assert np.array_equal(grad, np.zeros_like(grad))
        assert np.array_equal(dx, np.zeros_like(dx))

    def test_gradient_linear_in_upstream(self):
        rng = np.random.default_rng(14)
        net = tiny_net(rng, activation="linear")
        x = rng.normal(size=(4, 3))
        up = rng.normal(size=(4, 2))
        acts = nets.mlp_activations(net, x)
        g1, _ = nets.mlp_backward(net, acts, up, input_grad=False)
        g3, _ = nets.mlp_backward(net, acts, 3.0 * up, input_grad=False)
        assert np.allclose(g3, 3.0 * g1)


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
        online.theta[...] = 0.0
        target.theta[...] = 1.0
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
        acts = nets.mlp_activations(net, x)
        grad, dx = nets.mlp_backward(net, acts, upstream)
        only_params, none = nets.mlp_backward(net, acts, upstream, input_grad=False)
        none_too, only_input = nets.mlp_backward(net, acts, upstream, params_grad=False)
        assert none is None and none_too is None
        assert only_params.tobytes() == grad.tobytes()
        assert only_input.tobytes() == dx.tobytes()

    def test_stacked_network_rejected(self):
        shapes = nets.mlp_shapes(3, 4, 2)
        stack = nets.MlpParams(np.zeros((2, nets.param_count(shapes))), shapes, "tanh")
        acts = nets.mlp_activations(stack, np.zeros((2, 5, 3)))
        with pytest.raises(ConfigError, match="one network"):
            nets.mlp_backward(stack, acts, np.zeros((2, 5, 2)))

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
        for theta in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((3, size + 1)),
                      np.zeros((1, 1, size)), np.zeros(())):
            with pytest.raises(ConfigError, match="parameter vector shape"):
                nets.MlpParams(theta, shapes, "tanh")
        for theta in (np.zeros((1, size)), np.zeros((3, size))):
            assert nets.MlpParams(theta, shapes, "tanh").theta is theta
        with pytest.raises(ConfigError, match="unknown output activation"):
            nets.MlpParams(np.zeros(size), shapes, "relu")

    def test_constructor_packs_layer_order(self):
        net = nets.MlpParams(np.arange(11.0), [(2, 3), (1, 2)], "linear")
        assert net.weights[0].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert net.biases[0].tolist() == [6.0, 7.0]
        assert net.weights[1].tolist() == [[8.0, 9.0]]
        assert net.biases[1].tolist() == [10.0]


def role_stack(rng, num, in_dim, hidden, out_dim, activation):
    """An online and a target (num, P) stack, rows initialised like the trainer's,
    the target written by one soft update, and the target's per-row networks."""
    shapes = nets.mlp_shapes(in_dim, hidden, out_dim)
    online, target = (np.empty((num, nets.param_count(shapes))) for _ in range(2))
    rows = [nets.MlpParams(row, shapes, activation) for row in online]
    for net in rows:
        nets.init_mlp(net, rng)
    target[...] = online
    online += rng.normal(scale=0.1, size=online.shape)
    targets = [nets.MlpParams(row, shapes, activation) for row in target]
    for t, o in zip(targets, rows):
        nets.soft_update(t, o, 0.3)
    return nets.MlpParams(target, shapes, activation), targets


class TestStackedForward:
    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize("in_dim, out_dim, activation, strided", [
        (3, 3, "tanh", True),      # actors, on column blocks of the joint observation
        (24, 1, "linear", False),  # critics
    ], ids=["actor", "critic"])
    def test_bitwise_equal_to_per_network_forward(self, batch, in_dim, out_dim,
                                                  activation, strided):
        rng = np.random.default_rng(50)
        stack, targets = role_stack(rng, 4, in_dim, 64, out_dim, activation)
        if strided:
            joint = rng.normal(size=(batch, 4 * in_dim))
            x = joint.reshape(batch, 4, in_dim).transpose(1, 0, 2)
        else:
            x = rng.normal(size=(4, batch, in_dim))
        out = nets.mlp_activations(stack, x)[-1]
        assert out.shape == (4, batch, out_dim)
        for n, net in enumerate(targets):
            assert out[n].tobytes() == nets.mlp_activations(net, x[n])[-1].tobytes()

    def test_views_follow_writes_to_the_stack(self):
        rng = np.random.default_rng(51)
        stack, targets = role_stack(rng, 3, 3, 8, 2, "tanh")
        for weight, bias, w, b in zip(stack.weights, stack.biases,
                                      targets[2].weights, targets[2].biases):
            assert weight.shape == (3,) + w.shape and bias.shape == (3,) + b.shape
            assert np.array_equal(weight[2], w) and np.array_equal(bias[2], b)
            assert np.shares_memory(weight, targets[0].theta.base)
        x = rng.normal(size=(3, 5, 3))
        before = nets.mlp_activations(stack, x)[-1]
        targets[1].theta += 0.5
        after = nets.mlp_activations(stack, x)[-1]
        assert np.array_equal(before[[0, 2]], after[[0, 2]])
        assert not np.array_equal(before[1], after[1])

    def test_shapes_checked(self):
        rng = np.random.default_rng(52)
        stack, targets = role_stack(rng, 3, 3, 8, 2, "tanh")
        for x in (np.zeros((2, 5, 3)), np.zeros((3, 5, 4)), np.zeros((5, 3)),
                  np.zeros((1, 3, 5, 3))):
            with pytest.raises(ConfigError, match="input shape"):
                nets.mlp_activations(stack, x)
        with pytest.raises(ConfigError, match="input shape"):
            nets.mlp_activations(targets[0], np.zeros((3, 5, 3)))
        shapes = targets[0].shapes
        for bad in (np.zeros((3, 5)), np.zeros((3, nets.param_count(shapes) + 1))):
            with pytest.raises(ConfigError, match="parameter vector shape"):
                nets.MlpParams(bad, shapes, "tanh")
