"""Composite references for the fused graph nodes: each builds its node from
primitive ops, as the model did before the node was fused, and
``check_fused_matches_composite`` compares the two."""

import numpy as np

from avparse import tensor as tt
from avparse.model import BCE_EPS
from avparse.tensor import Tensor

GRAD_TOL = 1e-10


def affine(x, w, b):
    return tt.matmul(x, w) + b


def layernorm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = tt.pow_const(var + tt.full(var.shape, eps), -0.5)
    return centered * inv * gain + bias


def softmax(a, axis=-1):
    shifted = tt.sub(a, tt.pool(a, axis=axis, kind="max"))
    e = tt.exp(shifted)
    return tt.div(e, tt.tsum(e, axis=axis % a.data.ndim, keepdims=True))


def bce_sums(prob, target, mask=None):
    p = tt.clamp(prob, BCE_EPS, 1.0 - BCE_EPS)
    y = Tensor(target)
    terms = y * tt.log(p) + (1.0 - y) * tt.log(1.0 - p)
    if mask is not None:
        terms = terms * Tensor(mask[..., None])
    batch = terms.shape[0]
    return tt.tsum(tt.reshape(terms, (batch, terms.size // batch)), axis=1)


def check_fused_matches_composite(fused, composite, arrays, rng) -> None:
    """``fused`` and ``composite`` on leaves holding ``arrays``: the outputs
    must be equal bit for bit, and under the loss ``sum(output * r)`` for a
    random ``r`` each leaf's gradient must agree within ``GRAD_TOL``."""
    leaves = [[Tensor(a, requires_grad=True) for a in arrays] for _ in range(2)]
    outs = [fn(*xs) for fn, xs in zip((fused, composite), leaves)]
    assert np.array_equal(outs[0].data, outs[1].data)
    direction = Tensor(rng.standard_normal(outs[0].shape))
    for out in outs:
        tt.tsum(out * direction).backward()
    for x_fused, x_composite in zip(*leaves):
        np.testing.assert_allclose(x_fused.grad, x_composite.grad, rtol=0, atol=GRAD_TOL)
