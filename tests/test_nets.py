import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower.nets import (Adam, Mlp, PolicyLoadError, load_policy,
                              save_policy, soft_update)


def central_diff_grads(loss_fn, arrays, h=1e-5):
    """Central finite differences of loss_fn w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        assert np.max(np.abs(a - n) / denom) < rel


class TestForward:
    def test_zero_weight_actor_outputs_zero(self):
        sizes = [3, 8, 1]
        weights = [np.zeros((3, 8)), np.zeros((8, 1))]
        biases = [np.zeros(8), np.zeros(1)]
        net = Mlp(sizes, weights, biases, output_activation="tanh")
        assert net.forward(np.array([1.0, -2.0, 0.5]))[0, 0] == 0.0

    def test_init_deterministic_under_seed(self):
        a = Mlp.init([3, 16, 1], np.random.default_rng(5), output_activation="tanh")
        b = Mlp.init([3, 16, 1], np.random.default_rng(5), output_activation="tanh")
        x = np.array([0.3, -0.1, 0.9])
        assert a.forward(x)[0, 0] == b.forward(x)[0, 0]

    def test_actor_output_always_squashed(self):
        rng = np.random.default_rng(11)
        net = Mlp.init([3, 16, 16, 1], rng, output_activation="tanh")
        states = rng.uniform(-5, 5, size=(10_000, 3))
        out = net.forward(states)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_single_linear_layer_is_analytic(self):
        w = np.array([[1.0], [2.0], [-0.5], [0.25]])
        b = np.array([0.125])
        net = Mlp([4, 1], [w], [b], output_activation="linear")
        x = np.array([1.0, 1.0, 2.0, 4.0])
        assert net.forward(x)[0, 0] == pytest.approx(1 + 2 - 1 + 1 + 0.125, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Mlp([3, 4], [np.zeros((3, 5))], [np.zeros(4)])

    def test_unknown_output_activation_rejected(self):
        with pytest.raises(ValueError, match="relu"):
            Mlp([3, 4], [np.zeros((3, 4))], [np.zeros(4)], output_activation="relu")


def reference_forward(net, x):
    """The forward chain written out: h = tanh(h @ w + b), linear last layer for a critic."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if l < len(net.weights) - 1 or net.output_activation == "tanh":
            h = np.tanh(h)
    return h


class TestInPlaceForward:
    @pytest.mark.parametrize("activation", ["tanh", "linear"])
    @pytest.mark.parametrize("shape", [(3,), (1, 3), (64, 3), (1000, 3)])
    def test_equals_the_reference_chain_bit_for_bit(self, activation, shape):
        rng = np.random.default_rng(73)
        net = Mlp.init([3, 64, 64, 1], rng, output_activation=activation)
        net.theta += rng.normal(scale=0.1, size=net.theta.shape)  # nonzero biases
        x = rng.normal(size=shape)
        out = net.forward(x)
        assert out.tobytes() == reference_forward(net, x).tobytes()
        assert net.forward_cache(x)[0].tobytes() == out.tobytes()


def _column_slice(rng):
    return rng.normal(size=(64, 5))[:, 1:4]   # (64, 3), not contiguous


FORWARD_INPUTS = {
    "row": lambda rng: rng.normal(size=3),
    "one_row_2d": lambda rng: rng.normal(size=(1, 3)),
    "batch": lambda rng: rng.normal(size=(64, 3)),
    "column_slice": _column_slice,
    "int": lambda rng: rng.integers(-3, 4, size=(64, 3)),
    "float32": lambda rng: rng.normal(size=(64, 3)).astype(np.float32),
    "list": lambda rng: rng.normal(size=3).tolist(),
}


class TestForwardCacheInputs:
    """forward_cache takes a float64 array as given and converts anything else."""

    @pytest.mark.parametrize("kind", FORWARD_INPUTS)
    def test_same_bits_as_the_converted_input(self, kind):
        rng = np.random.default_rng(89)
        net = Mlp.init([3, 16, 16, 1], rng, output_activation="tanh")
        net.theta += rng.normal(scale=0.1, size=net.theta.shape)
        x = FORWARD_INPUTS[kind](rng)
        before = np.array(x, copy=True)
        converted = np.atleast_2d(np.asarray(x, dtype=float))
        out, cache = net.forward_cache(x)
        assert out.tobytes() == reference_forward(net, converted).tobytes()
        assert cache[0].shape == converted.shape and cache[0].dtype == np.float64
        assert cache[0].tobytes() == converted.tobytes()
        net.backward(cache, np.ones_like(out))
        net.input_grad(cache, np.ones_like(out))
        assert np.array(x).tobytes() == before.tobytes()   # the caller's input is never written
        assert np.array(x).dtype == before.dtype


class TestFlatLayout:
    def test_views_share_memory_with_theta(self):
        net = Mlp.init([3, 6, 5, 1], np.random.default_rng(61), output_activation="tanh")
        assert net.theta.shape == (3 * 6 + 6 * 5 + 5 * 1 + 6 + 5 + 1,)
        for view in net.weights + net.biases:
            assert np.shares_memory(view, net.theta)
        flat = np.concatenate([p.ravel() for p in net.weights + net.biases])
        np.testing.assert_array_equal(net.theta, flat)

    def test_copy_owns_its_theta(self):
        net = Mlp.init([3, 6, 1], np.random.default_rng(67))
        before = net.theta.copy()
        twin = net.copy()
        np.testing.assert_array_equal(twin.theta, before)
        twin.theta += 1.0
        np.testing.assert_array_equal(net.theta, before)
        for view in twin.weights + twin.biases:
            assert not np.shares_memory(view, net.theta)


class TestGradients:
    def test_regression_loss_gradients_match_fd(self):
        rng = np.random.default_rng(23)
        net = Mlp.init([4, 8, 1], rng, output_activation="linear")
        x = rng.normal(size=(8, 4))
        y = rng.normal(size=(8, 1))

        def loss():
            q = net.forward(x)
            return float(np.mean((q - y) ** 2))

        q, cache = net.forward_cache(x)
        dtheta = net.backward(cache, 2.0 * (q - y) / len(x))
        numeric = central_diff_grads(loss, [net.theta])
        assert_grads_close([dtheta], numeric)

    def test_tanh_output_gradients_match_fd(self):
        rng = np.random.default_rng(29)
        net = Mlp.init([3, 8, 1], rng, output_activation="tanh")
        x = rng.normal(size=(6, 3))
        y = rng.uniform(-0.5, 0.5, size=(6, 1))

        def loss():
            return float(np.mean((net.forward(x) - y) ** 2))

        out, cache = net.forward_cache(x)
        dtheta = net.backward(cache, 2.0 * (out - y) / len(x))
        numeric = central_diff_grads(loss, [net.theta])
        assert_grads_close([dtheta], numeric)

    def test_input_gradients_match_fd(self):
        rng = np.random.default_rng(31)
        net = Mlp.init([4, 8, 1], rng, output_activation="linear")
        x = rng.normal(size=(1, 4))

        def q_of_x():
            return float(net.forward(x)[0, 0])

        _, cache = net.forward_cache(x)
        analytic = net.input_grad(cache, np.ones((1, 1)))
        numeric = central_diff_grads(q_of_x, [x])[0]
        assert_grads_close([analytic], [numeric])

    def test_single_weight_perturbation_tracks_gradient(self):
        rng = np.random.default_rng(37)
        net = Mlp.init([4, 8, 1], rng, output_activation="linear")
        x = rng.normal(size=(1, 4))
        q0, cache = net.forward_cache(x)
        dtheta = net.backward(cache, np.ones((1, 1)))
        dw0 = dtheta[:4 * 8].reshape(4, 8)  # theta starts with layer 0's weights, row-major
        eps = 1e-6
        w = net.weights[0]
        w[2, 3] += eps
        q1 = net.forward(x)[0, 0]
        w[2, 3] -= eps
        assert (q1 - q0[0, 0]) / eps == pytest.approx(dw0[2, 3], rel=1e-4)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=2, max_size=5),
       batch=st.integers(1, 70), activation=st.sampled_from(["tanh", "linear"]),
       seed=st.integers(0, 2**32 - 1))
def test_input_grad_is_the_backprop_chain_bit_for_bit(sizes, batch, activation, seed):
    """input_grad equals the chain written out: dz = grad * (1 - out^2) through a
    tanh, then grad = dz @ w.T, from the last layer down to the input."""
    rng = np.random.default_rng(seed)
    net = Mlp.init(sizes, rng, output_activation=activation)
    net.theta += rng.normal(scale=0.1, size=net.theta.shape)
    _, cache = net.forward_cache(rng.normal(size=(batch, sizes[0])))
    dy = rng.normal(size=(batch, sizes[-1]))
    grad = dy
    for l in range(len(net.weights) - 1, -1, -1):
        out = cache[l + 1]
        squashed = l < len(net.weights) - 1 or activation == "tanh"
        dz = grad * (1.0 - out * out) if squashed else grad
        grad = dz @ net.weights[l].T
    assert net.input_grad(cache, dy).tobytes() == grad.tobytes()


class TestSoftUpdate:
    def _pair(self):
        rng = np.random.default_rng(41)
        online = Mlp.init([3, 8, 1], rng)
        target = Mlp.init([3, 8, 1], rng)
        return online, target

    def test_tau_one_copies(self):
        online, target = self._pair()
        soft_update(target, online, tau=1.0)
        np.testing.assert_array_equal(target.theta, online.theta)

    def test_tau_zero_freezes(self):
        online, target = self._pair()
        before = target.theta.copy()
        soft_update(target, online, tau=0.0)
        np.testing.assert_array_equal(target.theta, before)

    def test_convex_combination(self):
        online, target = self._pair()
        before = target.theta.copy()
        soft_update(target, online, tau=0.3)
        lo = np.minimum(before, online.theta) - 1e-15
        hi = np.maximum(before, online.theta) + 1e-15
        assert np.all(target.theta >= lo) and np.all(target.theta <= hi)

    def test_changes_only_the_target(self):
        online, target = self._pair()
        online_before, target_before = online.theta.copy(), target.theta.copy()
        soft_update(target, online, tau=0.3)
        np.testing.assert_array_equal(online.theta, online_before)
        assert not np.array_equal(target.theta, target_before)
        for view in target.weights + target.biases:
            assert np.shares_memory(view, target.theta)


class TestAdam:
    def test_first_step_matches_closed_form(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.5, -0.25])
        opt = Adam(p, lr=0.01)
        opt.step(p, g.copy())
        # t=1: mhat = g, vhat = g^2 -> update = lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p, expected, rtol=1e-9)

    def test_descends_a_quadratic(self):
        p = np.array([5.0])
        opt = Adam(p, lr=0.1)
        for _ in range(500):
            opt.step(p, 2.0 * p)
        assert abs(p[0]) < 0.05

    def test_flat_steps_equal_per_array_reference(self):
        # the same Adam formula applied to each layer array on its own
        rng = np.random.default_rng(59)
        net = Mlp.init([3, 5, 4, 1], rng, output_activation="tanh")
        params = [p.copy() for p in net.weights + net.biases]
        ms = [np.zeros_like(p) for p in params]
        vs = [np.zeros_like(p) for p in params]
        opt = Adam(net.theta, lr=0.01)
        for t in range(1, 4):
            grads = [rng.normal(size=p.shape) for p in params]
            opt.step(net.theta, np.concatenate([g.ravel() for g in grads]))
            b1c, b2c = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for p, g, m, v in zip(params, grads, ms, vs):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= 0.01 * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)
        expected = np.concatenate([p.ravel() for p in params])
        assert net.theta.tobytes() == expected.tobytes()


class TestPolicyFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(43)
        net = Mlp.init([3, 16, 16, 1], rng, output_activation="tanh")
        path = tmp_path / "policy.json"
        save_policy(net, path)
        loaded = load_policy(path)
        assert loaded.theta.tobytes() == net.theta.tobytes()
        probes = rng.uniform(-2, 2, size=(100, 3))
        np.testing.assert_array_equal(net.forward(probes), loaded.forward(probes))

    def test_truncated_file_is_load_error(self, tmp_path):
        rng = np.random.default_rng(47)
        net = Mlp.init([3, 8, 1], rng)
        path = tmp_path / "policy.json"
        save_policy(net, path)
        path.write_text(path.read_text()[: 40])
        with pytest.raises(PolicyLoadError):
            load_policy(path)

    def test_wrong_sizes_is_explicit_error(self, tmp_path):
        net = Mlp.init([3, 8, 1], np.random.default_rng(53))
        path = tmp_path / "policy.json"
        save_policy(net, path)
        with pytest.raises(PolicyLoadError, match="sizes"):
            load_policy(path, expect_sizes=[3, 64, 64, 1])

    @pytest.mark.parametrize("field", ["hidden_activation", "output_activation"])
    def test_unsupported_activation_rejected(self, tmp_path, field):
        path = tmp_path / "policy.json"
        save_policy(Mlp.init([3, 8, 1], np.random.default_rng(71)), path)
        obj = json.loads(path.read_text())
        obj[field] = "relu"
        path.write_text(json.dumps(obj))
        with pytest.raises(PolicyLoadError, match="relu"):
            load_policy(path)

    @pytest.mark.parametrize("key, ragged", [
        ("weights", lambda w: w[0][:2] + [w[0][2][:-1]]),   # a row one short
        ("weights", lambda w: [w[0][0], [[x] for x in w[0][1]], w[0][2]]),   # lists as cells
        ("biases", lambda b: [b[0][:4] + [[x] for x in b[0][4:]]]),
    ], ids=["short-row", "list-cells", "list-bias-cells"])
    def test_ragged_layer_rejected(self, tmp_path, key, ragged):
        path = tmp_path / "policy.json"
        save_policy(Mlp.init([3, 8, 1], np.random.default_rng(73)), path)
        obj = json.loads(path.read_text())
        obj[key] = ragged(obj[key]) + obj[key][1:]
        path.write_text(json.dumps(obj))
        with pytest.raises(PolicyLoadError, match="policy.json"):
            load_policy(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text('{"sizes": [3, 1]}')
        with pytest.raises(PolicyLoadError, match="version"):
            load_policy(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PolicyLoadError):
            load_policy(tmp_path / "nope.json")
