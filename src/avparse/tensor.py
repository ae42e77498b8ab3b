"""Dense float64 tensor with reverse-mode automatic differentiation.

The array payload is a numpy ``float64`` ndarray; the graph bookkeeping,
gradient rules, the parameter store (:func:`pack`) and the AdamW optimizer
are implemented here. Design choices that tests rely on:

* gradients never accumulate across ``backward`` calls -- a second call that
  reaches an already-populated gradient raises ``ContractError``;
* max-pooling routes its gradient to the lowest flat index on ties;
* broadcasting follows numpy's trailing-dimension rules only;
* a sequence is ``[..., T, d]``: time is axis -2 and channels axis -1, so an
  op runs on one ``[T, d]`` record and on a ``[B, T, d]`` batch with the same
  code, and each record of a batch gets the bits it gets alone.

The closure contract: each op's backward closure is ``backward(g)``, called
as ``node._backward(node.grad)`` with the gradient of the op's output. A
closure captures the op's inputs and whatever arrays it needs, never the
output tensor itself, so a graph holds no reference cycle and is freed by
reference counting as soon as its root is dropped.

The ownership rule: a closure hands each input its gradient through
``_accumulate(g, owned)``. ``owned=True`` says the op made ``g`` itself and
keeps no other reference to it, so the first gradient to reach a tensor is
taken as its ``grad`` without a copy; an op that passes its own ``g`` or a
view of it leaves ``owned`` false and the array is copied. So no two
tensors' gradients share memory, and ``grad +=`` never writes into an
array something else holds. A packed parameter also holds its view of the
gradient store (:func:`pack`); ``_matmul_backward`` writes a packed 2-D
weight's first gradient of a pass into that view and binds ``grad`` to it,
and writes a :class:`StackedWeight`'s into the strided view of its members'.

Inside ``with no_grad():`` ops record no graph: their outputs have
``requires_grad=False``, no parents and no closure. Evaluation runs under it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

Array = np.ndarray


def _as_array(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    return np.ascontiguousarray(arr)


class Tensor:
    """A node in the computation graph.

    ``data`` is a float64 array, C-contiguous except in a
    :class:`StackedWeight`, whose ``data`` may be a strided view of the
    parameter store (``np.matmul`` gives each slice of it the bits it gives a
    contiguous copy). ``grad`` stays ``None`` until a backward pass reaches
    this tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward",
                 "_grad_view", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._grad_view: Array | None = None  # set by pack

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad}{tag})"

    # -- graph plumbing -----------------------------------------------------

    def _accumulate(self, g: Array, owned: bool = False) -> None:
        """Add ``g`` into ``grad``; see the ownership rule in the module
        docstring."""
        if not self.requires_grad:
            return
        if g.shape != self.data.shape:
            g = _unbroadcast(g, self.data.shape)
            owned = True  # the broadcast axes were summed into a new array
        if self.grad is not None:
            self.grad += g
        elif owned:
            self.grad = g
        else:
            self.grad = np.array(g)

    def reset_grad(self) -> None:
        self.grad = None

    def backward(self, params=None) -> None:
        """Reverse-topological gradient accumulation from a scalar root.

        ``params``, when given, is an iterable of tensors whose gradients are
        zero-filled if the graph never reaches them (disconnected parameters
        read as all-zero gradients instead of ``None``).
        """
        if self.data.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {self.shape}")
        topo = graph_tensors(self, fresh=True)
        self._accumulate(np.ones_like(self.data), owned=True)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
        if params is not None:
            for p in params:
                if p.requires_grad and p.grad is None:
                    p.grad = np.zeros_like(p.data)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return tsum(self, axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, shape):
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` down to ``shape`` (inverse of trailing-dimension broadcast)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


_grad_enabled = True


@contextmanager
def no_grad():
    """Ops inside the block record no graph; the previous mode is restored
    on exit, also when the block raises."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output node; ``backward(g)`` follows the closure contract."""
    out = Tensor.__new__(Tensor)
    # op outputs are nearly always C-contiguous float64 arrays already; a
    # 0-d array still goes through _as_array, which makes it shape (1,)
    if not (type(data) is np.ndarray and data.dtype == np.float64 and data.ndim
            and data.flags.c_contiguous):
        data = _as_array(data)
    out.data = data
    out.grad = None
    out.name = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    out._grad_view = None
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                break
    return out


# -- constructors ------------------------------------------------------------


def _check_shape(shape) -> tuple[int, ...]:
    dims = tuple(int(d) for d in shape)
    for d in dims:
        if d < 1:
            raise ShapeError(f"invalid shape {list(dims)}: dimensions must be >= 1")
    return dims


def zeros(shape, requires_grad: bool = False, name: str | None = None) -> Tensor:
    return Tensor(np.zeros(_check_shape(shape)), requires_grad, name)


def full(shape, value: float, requires_grad: bool = False, name: str | None = None) -> Tensor:
    return Tensor(np.full(_check_shape(shape), float(value)), requires_grad, name)


# -- binary elementwise ops ---------------------------------------------------


def _broadcast(ufunc, a: Tensor, b: Tensor) -> Array:
    """``ufunc(a.data, b.data)``, with numpy's broadcast error as a ShapeError."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g)
        b._accumulate(g)

    return _make(_broadcast(np.add, a, b), (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g)
        b._accumulate(-g, owned=True)

    return _make(_broadcast(np.subtract, a, b), (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g * b.data, owned=True)
        b._accumulate(g * a.data, owned=True)

    return _make(_broadcast(np.multiply, a, b), (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g / b.data, owned=True)
        b._accumulate(-g * a.data / (b.data * b.data), owned=True)

    return _make(_broadcast(np.divide, a, b), (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``np.matmul`` over the last two axes; leading axes broadcast.

    The forward is the stacked call, never a flattened ``[B*T, d]`` gemm,
    which rounds differently, so each record of a batch gets the bits it gets
    alone. A 2-D weight's gradient is summed over the batch in one flat gemm.
    """

    def backward(g):
        _matmul_backward(a, b, g)

    return _make(_matmul_data(a, b), (a, b), backward)


def _matmul_data(a: Tensor, b: Tensor) -> Array:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    try:
        return np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul batch axes of {a.shape} and {b.shape} do not broadcast") from None


def _matmul_backward(a: Tensor, b: Tensor, g: Array) -> None:
    if a.requires_grad:
        a._accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)), owned=True)
    if not b.requires_grad:
        return
    if isinstance(b, StackedWeight):
        b._matmul_grad(a.data, g)
    elif b.data.ndim == 2:
        # a packed weight's first gradient: the same gemm, into its view
        out = b._grad_view if b.grad is None else None
        b._accumulate(np.matmul(a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]),
                                out=out), owned=True)
    else:
        b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g), owned=True)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: the forward of ``matmul`` then ``add``, and
    their backward."""
    out_data = _matmul_data(x, w)
    try:
        out_data += b.data
    except ValueError:
        raise ShapeError(f"bias {b.shape} does not broadcast to {out_data.shape}") from None

    def backward(g):
        _matmul_backward(x, w, g)
        b._accumulate(g)

    return _make(out_data, (x, w, b), backward)


# -- unary elementwise ops ----------------------------------------------------


def _unary(a: Tensor, out_data: Array, grad_fn) -> Tensor:
    def backward(g):
        a._accumulate(g * grad_fn(), owned=True)

    return _make(out_data, (a,), backward)


def _expit(x: Array) -> Array:
    # clip keeps exp() finite; the result differs from true sigmoid by < 1e-300
    return 1.0 / (1.0 + np.exp(-np.clip(x, -700.0, 700.0)))


def sigmoid(a: Tensor) -> Tensor:
    s = _expit(a.data)
    return _unary(a, s, lambda: s * (1.0 - s))


def silu(a: Tensor) -> Tensor:
    s = _expit(a.data)
    return _unary(a, a.data * s, lambda: s * (1.0 + a.data * (1.0 - s)))


def softplus(a: Tensor) -> Tensor:
    return _unary(a, np.logaddexp(0.0, a.data), lambda: 1.0 / (1.0 + np.exp(-a.data)))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _unary(a, e, lambda: e)


def relu(a: Tensor) -> Tensor:
    return _unary(a, np.maximum(a.data, 0.0), lambda: (a.data > 0.0).astype(np.float64))


def log(a: Tensor) -> Tensor:
    return _unary(a, np.log(a.data), lambda: 1.0 / a.data)


def pow_const(a: Tensor, p: float) -> Tensor:
    return _unary(a, a.data**p, lambda: p * a.data ** (p - 1.0))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = ((a.data > lo) & (a.data < hi)).astype(np.float64)
    return _unary(a, np.clip(a.data, lo, hi), lambda: inside)


# -- reductions ---------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def pool(a: Tensor, axis: int, kind: str) -> Tensor:
    """Reduce one axis to size 1 (kept). ``kind`` is ``avg`` or ``max``.

    Max pooling sends the whole gradient to the first (lowest-index) maximal
    element along the axis, so repeated runs are bit-identical.
    """
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"pool axis {axis} out of range for shape {a.shape}")
    axis = axis % a.data.ndim
    if kind == "avg":
        n = a.data.shape[axis]
        out_data = a.data.mean(axis=axis, keepdims=True)

        def backward(g):
            a._accumulate(np.broadcast_to(g / n, a.data.shape))

    elif kind == "max":
        out_data = a.data.max(axis=axis, keepdims=True)
        argmax = a.data.argmax(axis=axis)  # first occurrence wins ties

        def backward(g):
            routed = np.zeros_like(a.data)
            np.put_along_axis(routed, np.expand_dims(argmax, axis), g, axis)
            a._accumulate(routed, owned=True)

    else:
        raise ConfigError(f"unknown pool kind {kind!r}")
    return _make(out_data, (a,), backward)


# -- shape ops ----------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        a, b = list(ref), list(t.data.shape)
        a[axis] = b[axis] = 0
        if a != b:
            raise ShapeError(f"concat dims mismatch: {ref} vs {t.data.shape}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, n in zip(tensors, extents):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + n)
            t._accumulate(g[tuple(idx)])
            offset += n

    return _make(out_data, tuple(tensors), backward)


def reverse(a: Tensor, axis: int = 0) -> Tensor:

    def backward(g):
        a._accumulate(np.flip(g, axis=axis))

    return _make(np.flip(a.data, axis=axis).copy(), (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects rank >= 2, got {a.shape}")

    def backward(g):
        a._accumulate(np.swapaxes(g, -1, -2))

    return _make(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(d) for d in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {list(shape)}")

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def rotate(a: Tensor, axis: int = 0, offset: int = 0) -> Tensor:
    """Cyclic left rotation: element ``i`` of the output is input ``i+offset``."""

    def backward(g):
        a._accumulate(np.roll(g, offset, axis=axis), owned=True)

    return _make(np.roll(a.data, -offset, axis=axis), (a,), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` elements along ``axis``."""
    if start < 0 or start + length > a.data.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] outside axis {axis} of {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        full_g = np.zeros_like(a.data)
        full_g[idx] = g
        a._accumulate(full_g, owned=True)

    return _make(a.data[idx].copy(), (a,), backward)


# -- depthwise causal convolution ----------------------------------------------


def conv1d_depthwise(x: Tensor, weights: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-channel causal 1-D convolution along axis -2 of a ``[..., T, D]``
    sequence.

    ``weights`` is ``[k, D]`` with the last row tapping the current step; the
    input is implicitly left-padded with ``k - 1`` zeros so position ``t``
    only sees inputs at or before ``t``.
    """
    if x.data.ndim < 2 or weights.data.ndim != 2:
        raise ShapeError(f"conv1d expects [..., T, D] and [k, D], got {x.shape}, {weights.shape}")
    k, d = weights.data.shape
    if k < 1:
        raise ConfigError(f"conv1d kernel size must be >= 1, got {k}")
    if d != x.data.shape[-1]:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape}, weights {weights.shape}")
    t_len = x.data.shape[-2]
    padded = np.concatenate([np.zeros(x.data.shape[:-2] + (k - 1, d)), x.data], axis=-2)
    out_data = np.zeros_like(x.data)
    for j in range(k):
        out_data += weights.data[j] * padded[..., j : j + t_len, :]
    if bias is not None:
        out_data = out_data + bias.data

    def backward(g):
        gpad = np.zeros_like(padded)
        for j in range(k):
            gpad[..., j : j + t_len, :] += weights.data[j] * g
        x._accumulate(gpad[..., k - 1 :, :], owned=True)
        gw = np.empty_like(weights.data)
        for j in range(k):
            gw[j] = (padded[..., j : j + t_len, :] * g).reshape(-1, d).sum(axis=0)
        weights._accumulate(gw, owned=True)
        if bias is not None:
            bias._accumulate(g.reshape(-1, d).sum(axis=0), owned=True)

    parents = (x, weights) if bias is None else (x, weights, bias)
    return _make(out_data, parents, backward)


# -- helpers used across the model ---------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``, one node with the backward
    ``s * (g - sum(g * s))``."""
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        gs = g * s
        gs -= s * gs.sum(axis=axis, keepdims=True)
        a._accumulate(gs, owned=True)

    return _make(s, (a,), backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by ``gain`` and shift by
    ``bias``: one node with the closed-form backward."""
    n = x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n) + eps) ** -0.5
    xhat = centered * inv
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(g):
        gain._accumulate(g * xhat, owned=True)
        bias._accumulate(g)
        gx = g * gain.data
        mean_gx = (gx * xhat).sum(axis=-1, keepdims=True) * (1.0 / n)
        gx -= gx.sum(axis=-1, keepdims=True) * (1.0 / n)
        gx -= xhat * mean_gx
        gx *= inv
        x._accumulate(gx, owned=True)

    return _make(out_data, (x, gain, bias), backward)


def reset_grads(tensors) -> None:
    for t in tensors:
        t.reset_grad()


def graph_tensors(root: Tensor, fresh: bool = False) -> list[Tensor]:
    """All tensors reachable from ``root`` through the parent links, in
    post-order: every tensor comes after its parents and ``root`` comes last.

    With ``fresh``, a reached tensor that already holds a gradient raises
    ``ContractError`` (``backward`` checks this before writing any gradient).
    """
    topo: list[Tensor] = []
    seen: set[Tensor] = set()  # Tensor hashes by identity
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node in seen:
            continue
        if fresh and node.grad is not None and node.requires_grad:
            label = node.name or f"tensor{list(node.shape)}"
            raise ContractError(
                f"gradient already populated on {label}; reset grads before "
                "calling backward again (accumulation across passes is forbidden)"
            )
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p not in seen:
                stack.append((p, False))
    return topo


# -- the parameter store and AdamW ------------------------------------------------


def pack(params, keep_values: bool = True) -> Array:
    """Give ``params`` one new flat float64 store, in their order, and return it.

    Each parameter's ``data`` is rebound to its view of the store, which holds
    its values, or, with ``keep_values=False``, is left uninitialised for the
    caller to fill. From then on a parameter is changed by writing into its
    ``data``; rebinding ``data`` would detach it from the store. Each also gets
    its ``_grad_view`` of an uninitialised gradient store of the same layout.
    """
    params = list(params)
    size = sum(p.data.size for p in params)
    store, grads = np.empty(size), np.empty(size)
    offset = 0
    for p in params:
        n = p.data.size
        view = store[offset : offset + n].reshape(p.data.shape)
        if keep_values:
            view[...] = p.data
        p.data = view
        p._grad_view = grads[offset : offset + n].reshape(view.shape)
        offset += n
    return store


def _strided_stack(arrays, shape) -> Array | None:
    """``arrays`` as one ``shape`` view with the stream axis first, if they are
    equal C-contiguous views of one store at a constant distance; else None."""
    first = arrays[0]
    if any(a is None or a.base is None or a.base is not first.base or not a.flags.c_contiguous
           for a in arrays):
        return None
    starts = [a.ctypes.data for a in arrays]
    step = starts[1] - starts[0] if len(arrays) > 1 else first.nbytes
    if abs(step) < first.nbytes or any(b - a != step for a, b in zip(starts, starts[1:])):
        return None
    return np.lib.stride_tricks.as_strided(first, shape, (step, *first.reshape(shape[1:]).strides))


class StackedWeight(Tensor):
    """S member parameters of one shape as one ``[S, ...]`` weight; a 1-D
    member of ``n`` becomes ``[S, 1, n]``, so it broadcasts over time.

    When the members are views of one store at a constant distance, as
    :func:`pack` leaves equal modules, ``data`` is a zero-copy strided view
    of it and ``_grad_stack`` the same view of the gradient store; otherwise
    ``data`` is a copy and ``_grad_stack`` None. The weight's parents are its
    members, so ``backward``'s freshness check sees them, and it has no
    closure: an op hands each member its slice of the gradient
    (:meth:`_accumulate`). ``matmul``'s gradient is one batched gemm,
    ``[S, N, d]^T @ [S, N, e]``, written into ``_grad_stack`` when no member
    has a gradient yet and then bound as each member's ``grad``.
    """

    __slots__ = ("members", "_grad_stack")

    def __init__(self, members):
        members = tuple(members)
        shape = members[0].data.shape
        if any(m.data.shape != shape for m in members):
            raise ShapeError(f"stacked members differ in shape: {[m.shape for m in members]}")
        stacked = (len(members), *((1, *shape) if len(shape) == 1 else shape))
        data = _strided_stack([m.data for m in members], stacked)
        grads = None if data is None else _strided_stack([m._grad_view for m in members], stacked)
        if grads is None:
            data = np.stack([m.data for m in members]).reshape(stacked)
        self.data, self._grad_stack = data, grads
        self.members = members
        self.requires_grad = any(m.requires_grad for m in members)
        self.grad = None
        self.name = None
        self._parents = members
        self._backward = None
        self._grad_view = None

    def _accumulate(self, g: Array, owned: bool = False) -> None:
        if g.shape != self.data.shape:
            g = _unbroadcast(g, self.data.shape)
        for m, part in zip(self.members, g):
            m._accumulate(part.reshape(m.data.shape))

    def _matmul_grad(self, x: Array, g: Array) -> None:
        """The gradient of ``x @ self`` given the output's ``g``: stream ``s``
        of ``x`` and ``g`` is axis -3 (after broadcasting), and its rows are
        summed in one gemm per stream."""
        s, d = self.data.shape[:2]
        x = np.broadcast_to(x, (*g.shape[:-1], d))
        rows_x, rows_g = (np.moveaxis(v, -3, 0).reshape(s, -1, v.shape[-1]) for v in (x, g))
        fresh = self._grad_stack is not None and all(
            m.grad is None and m.requires_grad for m in self.members)
        out = np.matmul(np.swapaxes(rows_x, -1, -2), rows_g,
                        out=self._grad_stack if fresh else None)
        if fresh:
            for m in self.members:
                m.grad = m._grad_view
        else:
            self._accumulate(out)


def _store_of(params: dict) -> tuple[Array, Array]:
    """The parameter and gradient stores that ``params`` are views of, in order
    and filling them, as :func:`pack` leaves them; ``ContractError`` otherwise."""
    stores = []
    for views in ([p.data for p in params.values()],
                  [p._grad_view for p in params.values()]):
        store = getattr(views[0], "base", None) if views else None
        offset = 0
        for name, view in zip(params, views):
            if (store is None or store.ndim != 1 or getattr(view, "base", None) is not store
                    or not view.flags.c_contiguous
                    or view.ctypes.data != store.ctypes.data + 8 * offset):
                raise ContractError(f"parameter {name!r} is not the next view of one packed "
                                    "store; pack the parameters with tt.pack first")
            offset += view.size
        if store is None or offset != store.size:
            raise ContractError(f"the parameters fill {offset} elements of a packed store "
                                f"of {0 if store is None else store.size}; pass all of them")
        stores.append(store)
    return stores[0], stores[1]


# Elements per AdamW update block: the block's slices of the parameters, m, v,
# gradients and two scratch arrays (6 x 128 KiB) stay in a core's L2 cache.
ADAMW_BLOCK = 16384


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter collection.

    The parameters must already share one store, in ``params`` order, as
    :func:`pack` leaves them (``AVMambaNet`` packs its own); the optimizer
    updates that store as its ``buffer`` from the gradient store
    ``grad_buffer``, block by block, with ``m`` and ``v`` flat too.
    """

    def __init__(self, params, lr: float = 3e-4, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.buffer, self.grad_buffer = _store_of(self.params)
        size = self.buffer.size
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._scratch = np.empty((2, min(size, ADAMW_BLOCK)))

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"parameter {name!r} has no gradient; run backward first")
            if p.grad is not p._grad_view:  # a gradient that no matmul wrote in place
                p._grad_view[...] = p.grad
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        b1, b2, lr, wd = self.beta1, self.beta2, self.lr, self.weight_decay
        for lo in range(0, self.buffer.size, ADAMW_BLOCK):
            g, m, v, w = (a[lo : lo + ADAMW_BLOCK]
                          for a in (self.grad_buffer, self._m, self._v, self.buffer))
            t1, t2 = (s[: g.size] for s in self._scratch)
            # the per-tensor AdamW expressions in their order, as out= ufuncs,
            # so every element gets the bits a per-tensor loop gives it
            m *= b1
            np.multiply(1.0 - b1, g, out=t1)
            m += t1
            v *= b2
            np.multiply(1.0 - b2, g, out=t1)
            t1 *= g
            v += t1
            np.divide(v, bc2, out=t1)
            np.sqrt(t1, out=t1)
            t1 += self.eps
            np.divide(m, bc1, out=t2)
            np.divide(t2, t1, out=t2)  # the update
            np.multiply(wd, w, out=t1)
            np.add(t2, t1, out=t1)
            np.multiply(lr, t1, out=t1)
            w -= t1

    def zero_grad(self) -> None:
        reset_grads(self.params.values())
