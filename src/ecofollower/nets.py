"""Small dense networks with explicit forward/backward passes.

Everything is float64 numpy; gradients are exact analytic backprop and are
cross-checked against central finite differences in the test suite. Each net
keeps all of its parameters in one contiguous vector ``theta`` (the weights of
every layer, row-major, then the biases of every layer); gradients, Adam
moments and soft updates use the same layout.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .events import SchemaError, json_floats, json_number, json_object, read_json

POLICY_FORMAT_VERSION = 1
POLICY_KEYS = ("version", "sizes", "hidden_activation", "output_activation", "weights", "biases")
OUTPUT_ACTIVATIONS = ("tanh", "linear")

# Adam moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_FLOAT64 = np.dtype(np.float64)


class PolicyLoadError(RuntimeError):
    """Policy file is missing, malformed, or shaped differently than expected."""


class Mlp:
    """Fully connected net: sizes[0] -> ... -> sizes[-1].

    Hidden layers are tanh; the output layer is tanh (the actor's [-1, 1]
    squash) or linear (the critic). ``weights`` and ``biases`` are per-layer
    views into ``theta``, so ``theta`` must only ever be updated in place.
    """

    def __init__(self, sizes, weights, biases, output_activation="linear"):
        if output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.sizes = list(sizes)
        self.output_activation = output_activation
        n_layers = len(self.sizes) - 1
        # whether each layer's output goes through tanh
        self._squashed = tuple(l < n_layers - 1 or output_activation == "tanh"
                               for l in range(n_layers))
        if len(weights) != n_layers or len(biases) != n_layers:
            raise ValueError("parameter count does not match layer sizes")
        for l in range(n_layers):
            if weights[l].shape != (self.sizes[l], self.sizes[l + 1]):
                raise ValueError(
                    f"layer {l}: weight shape {weights[l].shape} != "
                    f"({self.sizes[l]}, {self.sizes[l + 1]})")
            if biases[l].shape != (self.sizes[l + 1],):
                raise ValueError(f"layer {l}: bias shape {biases[l].shape}")
        self.theta = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)))
        self.weights, self.biases = self._layer_views(self.theta)
        for view, given in zip(self.weights + self.biases, list(weights) + list(biases)):
            view[...] = given

    @classmethod
    def init(cls, sizes, rng: np.random.Generator, output_activation="linear") -> "Mlp":
        """Glorot-uniform initialization."""
        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
            biases.append(np.zeros(n_out))
        return cls(sizes, weights, biases, output_activation)

    def _layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like ``theta``."""
        weights, biases, i = [], [], 0
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[i:i + n_in * n_out].reshape(n_in, n_out))
            i += n_in * n_out
        for n_out in self.sizes[1:]:
            biases.append(flat[i:i + n_out])
            i += n_out
        return weights, biases

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._layers(x, None)

    def forward_cache(self, x: np.ndarray):
        """Forward pass keeping per-layer outputs for backward()."""
        outs = []
        return self._layers(x, outs), outs

    def _layers(self, x: np.ndarray, outs: list | None) -> np.ndarray:
        """The forward pass, appending the input and each layer's output to
        ``outs`` unless it is None.

        A 1-D or 2-D float64 array is used as given (a row as ``x[None]``), which
        is what ``np.atleast_2d(np.asarray(x, dtype=float))`` would return for it
        at a fraction of the cost; any other input goes through that conversion.
        """
        if type(x) is np.ndarray and x.dtype is _FLOAT64 and 0 < x.ndim < 3:
            h = x[None] if x.ndim == 1 else x
        else:
            h = np.atleast_2d(np.asarray(x, dtype=float))
        if outs is not None:
            outs.append(h)
        # h @ w is a fresh array, so the bias and the squash can write into it;
        # tanh's out is passed by position, as the keyword costs more than a
        # one-row call saves by skipping the allocation
        for w, b, squashed in zip(self.weights, self.biases, self._squashed):
            h = h @ w
            h += b
            if squashed:
                np.tanh(h, h)
            if outs is not None:
                outs.append(h)
        return h

    def _pre_activation_grad(self, cache: list[np.ndarray], grad: np.ndarray,
                             layer: int) -> np.ndarray:
        """dL/dz of ``layer`` from dL/d(its output): grad * (1 - out^2) through a tanh."""
        if not self._squashed[layer]:
            return grad
        out = cache[layer + 1]
        dz = np.multiply(out, out)
        np.subtract(1.0, dz, out=dz)
        dz *= grad
        return dz

    def backward(self, cache: list[np.ndarray], dy: np.ndarray) -> np.ndarray:
        """Backprop dL/dy through the cached pass to the parameter gradient,
        laid out like ``theta``; ``input_grad`` gives the input's gradient."""
        dtheta = np.empty_like(self.theta)
        dw, db = self._layer_views(dtheta)
        grad = np.asarray(dy, dtype=float)
        for l in range(len(self.weights) - 1, -1, -1):
            dz = self._pre_activation_grad(cache, grad, l)
            np.matmul(cache[l].T, dz, out=dw[l])
            dz.sum(axis=0, out=db[l])
            if l:
                grad = dz @ self.weights[l].T
        return dtheta

    def input_grad(self, cache: list[np.ndarray], dy: np.ndarray) -> np.ndarray:
        """The gradient with respect to the net's input: dL/dy backpropagated
        through the cached pass, without the parameter gradient."""
        grad = np.asarray(dy, dtype=float)
        for l in range(len(self.weights) - 1, -1, -1):
            grad = self._pre_activation_grad(cache, grad, l) @ self.weights[l].T
        return grad

    def copy(self) -> "Mlp":
        return Mlp(self.sizes, self.weights, self.biases, self.output_activation)


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """Blend target parameters toward the online net: t <- tau*o + (1-tau)*t."""
    target.theta *= 1.0 - tau
    target.theta += tau * online.theta


class Adam:
    """Adaptive moments (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) over one parameter vector."""

    def __init__(self, theta: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self._num = np.empty_like(theta)
        self._den = np.empty_like(theta)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update ``theta`` in place from its gradient.

        Computes ``lr * (m / b1c) / (sqrt(v / b2c) + eps)`` into two preallocated
        temporaries, one float operation at a time in the order of that expression,
        so the result is bit-identical to evaluating it directly.
        """
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        num, den = self._num, self._den
        self.m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, grad, out=num)
        self.m += num
        self.v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, grad, out=num)
        num *= grad
        self.v += num
        np.divide(self.m, b1c, out=num)
        num *= self.lr
        np.divide(self.v, b2c, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        num /= den
        theta -= num


def save_policy(net: Mlp, path) -> None:
    """Versioned JSON container; floats round-trip bit-exactly."""
    obj = {
        "version": POLICY_FORMAT_VERSION,
        "sizes": net.sizes,
        "hidden_activation": "tanh",
        "output_activation": net.output_activation,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    # json.dumps runs the C encoder; json.dump writes the same text in Python chunks
    with open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")


def load_policy(path, expect_sizes=None) -> Mlp:
    try:
        obj = json_object(read_json(path, "policy"), "policy", POLICY_KEYS, SchemaError)
    except (OSError, SchemaError) as exc:
        raise PolicyLoadError(f"cannot read policy file {path}: {exc}") from exc
    try:
        if json_number(obj.get("version"), "version", integer=True) != POLICY_FORMAT_VERSION:
            raise ValueError(f"unsupported policy version {obj['version']}")
        if obj["hidden_activation"] != "tanh":
            raise ValueError(f"unsupported hidden activation {obj['hidden_activation']!r}")
        sizes = [json_number(s, f"sizes[{i}]", integer=True) for i, s in enumerate(obj["sizes"])]
        weights = [json_floats(w, f"weights[{l}]", ndim=2) for l, w in enumerate(obj["weights"])]
        biases = [json_floats(b, f"biases[{l}]") for l, b in enumerate(obj["biases"])]
        net = Mlp(sizes, weights, biases, obj["output_activation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PolicyLoadError(f"{path}: malformed policy: {exc}") from exc
    if expect_sizes is not None and list(expect_sizes) != sizes:
        raise PolicyLoadError(f"{path}: layer sizes {sizes} do not match expected {list(expect_sizes)}")
    return net
