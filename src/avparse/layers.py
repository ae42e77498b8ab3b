"""Small parameterized building blocks on top of the tensor core."""

from __future__ import annotations

import copy
from collections import OrderedDict

import numpy as np

from . import tensor as tt
from .tensor import StackedWeight, Tensor


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


class Stack:
    """S member modules of one class run as one module on a leading stream
    axis: stream ``s`` of the input (axis -3, ``[..., S, T, d]``) goes
    through member ``s``, in one call per op.

    The stacked module is a shallow copy of the first member in which each
    parameter is the :class:`~avparse.tensor.StackedWeight` of the members'
    parameters of that name. It owns none of them: the members stay the
    registered parameters and stay callable, and a stack is no child of its
    owner. The stacked module is kept while it is a view of the members'
    store and their ``data`` is not rebound (``pack`` rebinds it); otherwise
    it is rebuilt on each call, so it always reads the members' values.
    """

    def __init__(self, *members: Module):
        self.members = members
        self._module = None
        self._key: list | None = None

    def __call__(self, *args):
        if self._key is None or any(m.data is not data for m, data in self._key):
            self._module, weights = _stacked(self.members)
            live = all(w._grad_stack is not None for w in weights)
            self._key = [(m, m.data) for w in weights for m in w.members] if live else None
        return self._module(*args)


def _stacked(modules) -> tuple[Module, list[StackedWeight]]:
    """The stacked module of ``modules`` and its stacked weights."""
    module = copy.copy(modules[0])
    module._params, module._children = OrderedDict(), OrderedDict()
    weights = []
    for name in modules[0]._params:
        weights.append(StackedWeight(m._params[name] for m in modules))
        setattr(module, name, weights[-1])
    for name in modules[0]._children:
        child, child_weights = _stacked([m._children[name] for m in modules])
        setattr(module, name, child)
        weights += child_weights
    return module, weights
