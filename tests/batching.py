"""Shared check for the batch axis: an op on a ``[B, ...]`` batch against the
same op run on each record alone."""

import numpy as np

from avparse import tensor as tt
from avparse.tensor import Tensor

GRAD_TOL = 1e-12


def check_batch_matches_records(fn, batched, shared, rng) -> None:
    """``fn(*batched, *shared)`` against ``fn`` on each record's slices of
    ``batched``, with the same ``shared`` arrays.

    The batched output must equal the stack of the records' outputs bit for
    bit. Under the loss ``sum(output * r)`` for a random ``r``, each batched
    input's gradient must equal the records' gradients and each shared
    input's gradient their sum, within ``GRAD_TOL``.
    """
    xs = [Tensor(a, requires_grad=True) for a in batched]
    ws = [Tensor(a, requires_grad=True) for a in shared]
    out = fn(*xs, *ws)
    direction = rng.standard_normal(out.shape)
    tt.tsum(out * Tensor(direction)).backward()
    summed = [np.zeros_like(a) for a in shared]
    for i in range(len(batched[0])):
        xi = [Tensor(a[i], requires_grad=True) for a in batched]
        wi = [Tensor(a, requires_grad=True) for a in shared]
        oi = fn(*xi, *wi)
        assert np.array_equal(out.data[i], oi.data), f"record {i}"
        tt.tsum(oi * Tensor(direction[i])).backward()
        for x, x_alone in zip(xs, xi):
            np.testing.assert_allclose(x.grad[i], x_alone.grad, rtol=0, atol=GRAD_TOL)
        for total, w in zip(summed, wi):
            total += w.grad
    for w, total in zip(ws, summed):
        np.testing.assert_allclose(w.grad, total, rtol=0, atol=GRAD_TOL)
