"""Small parameterized building blocks on top of the tensor core."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import tensor as tt
from .tensor import Tensor


def normal_init(rng: np.random.Generator | None, shape, scale: float | None = None) -> np.ndarray:
    """Standard-normal draws of ``shape`` times ``scale``, or divided by the
    square root of the first dimension (the fan-in) when ``scale`` is None.

    With ``rng=None`` nothing is drawn: the array is uninitialised, for a net
    whose store a checkpoint fills (see ``AVMambaNet``).
    """
    if rng is None:
        return np.empty(shape)
    draws = rng.standard_normal(shape)
    return draws / np.sqrt(shape[0]) if scale is None else draws * scale


class Module:
    """Minimal module base: named parameter registry plus child modules."""

    def __init__(self):
        self._params: "OrderedDict[str, Tensor]" = OrderedDict()
        self._children: "OrderedDict[str, Module]" = OrderedDict()

    def _register(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(value, requires_grad=True, name=name)
        self._params[name] = t
        return t

    def _child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def parameters(self, prefix: str = "") -> "OrderedDict[str, Tensor]":
        out: "OrderedDict[str, Tensor]" = OrderedDict()
        for name, p in self._params.items():
            key = f"{prefix}{name}"
            p.name = key
            out[key] = p
        for cname, child in self._children.items():
            out.update(child.parameters(prefix=f"{prefix}{cname}."))
        return out

    def reset_grads(self) -> None:
        tt.reset_grads(self.parameters().values())

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())


class Linear(Module):
    """Affine map ``x @ W + b`` with N(0, init_scale^2/fan_in) weight init."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None,
                 init_scale: float = 1.0):
        super().__init__()
        self.w = self._register("w", normal_init(rng, (d_in, d_out), init_scale / np.sqrt(d_in)))
        self.b = self._register("b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return tt.affine(x, self.w, self.b)


class LayerNorm(Module):
    """Normalize over the last axis with learnable gain and bias."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.g = self._register("g", np.ones(dim))
        self.b = self._register("b", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return tt.layernorm(x, self.g, self.b, self.eps)


class MLP(Module):
    """Two-layer perceptron with ReLU in between."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator | None):
        super().__init__()
        self.fc1 = self._child("fc1", Linear(d_in, d_hidden, rng))
        self.fc2 = self._child("fc2", Linear(d_hidden, d_out, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(tt.relu(self.fc1(x)))
