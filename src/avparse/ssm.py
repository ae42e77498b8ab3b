"""Selective state-space scan kernels and the Mamba-style block.

Each scan is one plain function. :func:`selective_scan` and
:func:`dynamic_mixture` run as single fused graph nodes with hand-derived
adjoints on one sequential kernel, :func:`linear_scan`, and its reverse
sweep :func:`linear_scan_adjoint`; the model trains with them. Both sweeps
run in place in the array they are given and read the decay cyclically, so
the dynamic scan drives its 2T unrolled steps with the period-T decay and
scans inside its own state buffer. Their oracles,
:func:`selective_scan_sequential` and :func:`dynamic_mixture_sequential`,
compose the same scans step by step from primitive autodiff ops. The
backward scan reverses the input; the dynamic scan soft-mixes every cyclic
start position, fused in O(T) on the sequence unrolled twice, or composed
term by term by its oracle. The scans and the block take ``[T, D]`` or
``[B, T, D]``; the fused kernels move time to the front and sweep a batch's
records together, and the oracles take one record.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as tt
from .errors import ContractError, ShapeError
from .layers import LayerNorm, Module, normal_init
from .tensor import Tensor


# -- parameters ---------------------------------------------------------------


class SharedMatrixHandle(Module):
    """One input-projection matrix shared by both modalities' scan branches.

    The mixing scalars are stored pre-sigmoid; ``active=False`` is a hard-off
    switch that bypasses the shared matrix entirely (the private projection is
    used unmodified and no gradient reaches the shared parameters).
    """

    def __init__(self, d_inner: int, d_state: int, rng: np.random.Generator | None,
                 active: bool = True):
        super().__init__()
        self.active = active
        self.w_shared = self._register("w_shared", normal_init(rng, (d_inner, d_state)))
        self.alpha_a = self._register("alpha_a", np.zeros(1))
        self.alpha_v = self._register("alpha_v", np.zeros(1))

    def effective(self, w_private: Tensor, modality: str) -> Tensor:
        if not self.active:
            return w_private
        alpha = self.alpha_a if modality == "a" else self.alpha_v
        s = tt.sigmoid(alpha)
        return (1.0 - s) * w_private + s * self.w_shared


class SsmParams(Module):
    """Parameters of one selective-scan branch.

    The state matrix is stored as ``a_log`` with ``A = -exp(a_log)``, keeping
    every decay strictly inside the unit circle after discretization. The
    timestep projection is low-rank with its bias initialized so softplus
    lands in roughly [0.001, 0.1].
    """

    def __init__(self, d_inner: int, d_state: int, rng: np.random.Generator | None,
                 dt_rank: int, shared: SharedMatrixHandle | None = None,
                 modality: str | None = None):
        super().__init__()
        self.d_inner = d_inner
        self.d_state = d_state
        self.shared = shared  # not registered here; the owning module registers it once
        self.modality = modality
        a_row = np.log(np.arange(1, d_state + 1, dtype=np.float64))
        self.a_log = self._register("a_log", np.tile(a_row, (d_inner, 1)))
        self.w_b = self._register("w_b", normal_init(rng, (d_inner, d_state)))
        self.w_c = self._register("w_c", normal_init(rng, (d_inner, d_state)))
        self.w_dt1 = self._register("w_dt1", normal_init(rng, (d_inner, dt_rank)))
        self.w_dt2 = self._register("w_dt2", normal_init(rng, (dt_rank, d_inner)))
        if rng is None:  # no draws; see normal_init
            b_dt = np.empty(d_inner)
        else:
            b_dt = np.log(np.expm1(np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=d_inner))))
        self.b_dt = self._register("b_dt", b_dt)
        self.d_skip = self._register("d_skip", np.ones(d_inner))

    def effective_b_weight(self) -> Tensor:
        if self.shared is None:
            return self.w_b
        return self.shared.effective(self.w_b, self.modality)

    def project(self, u: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Per-step (delta, B, C) coefficients derived from the input."""
        delta = tt.softplus(tt.matmul(tt.matmul(u, self.w_dt1), self.w_dt2) + self.b_dt)
        b_coef = tt.matmul(u, self.effective_b_weight())
        c_coef = tt.matmul(u, self.w_c)
        return delta, b_coef, c_coef


# -- discretization ------------------------------------------------------------


def discretize(delta: Tensor, a_log: Tensor, b_coef: Tensor) -> tuple[Tensor, Tensor]:
    """Zero-order hold for the state matrix, Euler for the input matrix.

    ``A_bar = exp(delta * A)`` with ``A = -exp(a_log)``; ``B_bar = delta * B``.
    """
    if np.any(delta.data <= 0.0):
        raise ContractError("discretize requires strictly positive delta")
    t_len, d_inner = delta.shape
    d_state = a_log.shape[1]
    a_neg = -tt.exp(a_log)
    delta3 = tt.reshape(delta, (t_len, d_inner, 1))
    a3 = tt.reshape(a_neg, (1, d_inner, d_state))
    a_bar = tt.exp(delta3 * a3)
    b3 = tt.reshape(b_coef, (t_len, 1, d_state))
    b_bar = delta3 * b3
    return a_bar, b_bar


# -- scan kernels ---------------------------------------------------------------


def linear_scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inclusive scan of ``h_t = a_t h_{t-1} + b_t`` along axis 0 (h_{-1} = 0),
    one O(T) sweep in place: ``b`` is overwritten with the states ``h`` and
    returned. The decay is read cyclically, ``a[t % len(a)]``, so a period-T
    decay drives a scan of any length; it broadcasts against ``b`` at every
    step."""
    period = a.shape[0]
    step = np.empty_like(b[0])
    for t in range(1, b.shape[0]):
        np.multiply(a[t % period], b[t - 1], out=step)
        b[t] += step
    return b


def linear_scan_adjoint(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reverse sweep ``dh_t = g_t + a_{t+1} dh_{t+1}``: the gradient of
    :func:`linear_scan`'s input ``b`` given the gradient ``g`` of its output.
    Like the scan it reads ``a`` cyclically and runs in place: ``g`` is
    overwritten with ``dh`` and returned."""
    period = a.shape[0]
    step = np.empty_like(g[0])
    for t in range(g.shape[0] - 2, -1, -1):
        np.multiply(a[(t + 1) % period], g[t + 1], out=step)
        g[t] += step
    return g


def _scan_primitive(u: Tensor, delta: Tensor, b_coef: Tensor, c_coef: Tensor,
                    a_log: Tensor, d_skip: Tensor) -> Tensor:
    """Step-by-step recurrence built from primitive ops (the oracle path)."""
    t_len, d_inner = u.shape
    d_state = a_log.shape[1]
    a_bar, b_bar = discretize(delta, a_log, b_coef)
    h = tt.zeros((d_inner, d_state))
    ys = []
    for t in range(t_len):
        a_t = tt.reshape(tt.narrow(a_bar, 0, t, 1), (d_inner, d_state))
        b_t = tt.reshape(tt.narrow(b_bar, 0, t, 1), (d_inner, d_state))
        u_t = tt.reshape(tt.narrow(u, 0, t, 1), (d_inner, 1))
        c_t = tt.narrow(c_coef, 0, t, 1)  # [1, N]
        h = a_t * h + b_t * u_t
        y_t = tt.tsum(h * c_t, axis=1, keepdims=True)  # [D, 1]
        ys.append(tt.transpose(y_t))
    y = tt.concat(ys, axis=0)
    return y + d_skip * u


def _time_first(x: np.ndarray, axis: int = -2) -> np.ndarray:
    """``x`` with its time axis moved to the front, where the scan loops run;
    the batch axis, if any, follows it. The kernels see at most one batch
    axis, so time is axis 0 or 1 and the move is one swap."""
    if x.ndim + axis == 1:
        x = np.swapaxes(x, 0, 1)
    return np.ascontiguousarray(x)


_time_back = _time_first  # inverse of _time_first: the swap undoes itself


def _decay(dd: np.ndarray, a_log: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """``(A, A_bar)`` for the fused nodes, from the time-first ``[T, ..., D]``
    array of ``delta``."""
    a_neg = -np.exp(a_log.data)  # [D, N]
    da = dd[..., None] * a_neg  # [T, ..., D, N]
    return a_neg, np.exp(da, out=da)


def _b_bar_u(ud: np.ndarray, dd: np.ndarray, bd: np.ndarray, out=None) -> np.ndarray:
    """``B_bar u`` ``[T, ..., D, N]`` from time-first ``u``, ``delta`` and ``B``."""
    return np.multiply((dd * ud)[..., None], bd[..., None, :], out=out)


def _fused_backward(inputs, arrays, a_neg: np.ndarray, gy: np.ndarray, h_read: np.ndarray,
                    skip_w, g_z: np.ndarray, g_bu: np.ndarray) -> None:
    """Chain a fused node's gradients back to ``inputs`` = ``(u, delta, B, C,
    a_log, D)``, whose data ``arrays`` holds time-first: ``C`` reads out
    ``h_read``, ``skip_w`` weights ``D u`` per record, and ``g_z`` / ``g_bu``
    are the gradients w.r.t. the decay exponent ``delta A`` and ``delta B u``.
    Parameter gradients are summed over time and the batch."""
    u, delta, b_coef, c_coef, a_log, d_skip = inputs
    ud, dd, bd = arrays
    dh_b = np.matmul(g_bu, bd[..., None])[..., 0]
    u._accumulate(_time_back(dh_b * dd + skip_w * d_skip.data[None, :] * gy), owned=True)
    delta._accumulate(_time_back(np.einsum("t...dn,dn->t...d", g_z, a_neg) + dh_b * ud),
                      owned=True)
    b_coef._accumulate(_time_back(np.matmul((dd * ud)[..., None, :], g_bu)[..., 0, :]),
                       owned=True)
    c_coef._accumulate(_time_back(np.matmul(gy[..., None, :], h_read)[..., 0, :]), owned=True)
    a_log._accumulate(np.einsum("t...dn,t...d->...dn", g_z, dd) * a_neg, owned=True)
    d_skip._accumulate(skip_w * (gy * ud).sum(0), owned=True)


def _scan_fused(u: Tensor, delta: Tensor, b_coef: Tensor, c_coef: Tensor,
                a_log: Tensor, d_skip: Tensor) -> Tensor:
    """Single graph node: fused-kernel forward, hand-derived adjoint backward.

    ``u`` and ``delta`` are ``[..., T, D]``, ``B`` and ``C`` ``[..., T, N]``.
    """
    inputs = (u, delta, b_coef, c_coef, a_log, d_skip)
    ud, dd, bd, cd = (_time_first(t.data) for t in (u, delta, b_coef, c_coef))
    a_neg, da = _decay(dd, a_log)
    h = linear_scan(da, _b_bar_u(ud, dd, bd))  # [T, ..., D, N]
    y = np.einsum("t...dn,t...n->t...d", h, cd) + d_skip.data[None, :] * ud

    def backward(gy):
        gy = _time_first(gy)
        dh = linear_scan_adjoint(da, gy[..., None] * cd[..., None, :])
        g_z = np.empty_like(h)  # gradient through the exp argument of the decay
        g_z[0] = 0.0
        np.multiply(dh[1:], h[:-1], out=g_z[1:])
        g_z[1:] *= da[1:]
        _fused_backward(inputs, (ud, dd, bd), a_neg, gy, h, 1.0, g_z, dh)

    return tt._make(_time_back(y), inputs, backward)


def _dyn_fused(u: Tensor, delta: Tensor, b_coef: Tensor, c_coef: Tensor,
               probs: Tensor, a_log: Tensor, d_skip: Tensor) -> Tensor:
    """Whole dynamic mixture as one node, O(T) on the sequence unrolled twice.

    On the unrolled length-2T sequence, input ``k`` reaches the state at
    ``t + T`` (``t < T``) from every start in ``(t, k]``, i.e. with weight
    ``CP(k) - CP(t)`` where ``CP`` is the cumulative sum of ``probs``. Hence

        h_dyn(t) = sum_{k in (t, t+T]} A_bar(k -> t+T) B_bar u_k (CP(k) - CP(t))
                 = W2(t) - CP(t) W1(t),   Wi(t) = Hi(t+T) - P_all Hi(t),

    with ``H1``, ``H2`` the prefix scans of ``B_bar u`` and ``CP B_bar u`` over
    the 2T steps and ``P_all = exp(sum_t delta_t A)`` the decay over one cycle.
    The output ``C h_dyn + sum(probs) D u`` is linear in ``probs``, like the
    term-by-term mixture. ``probs`` is ``[..., T]``, one distribution per
    record, so ``CP``, ``P_all`` and the skip weight are per record too.

    The node keeps only the decay, the states ``hs`` and ``h_dyn``: both
    scans run in place in ``hs`` with the period-T decay read cyclically, and
    the backward recomputes ``B_bar u`` and ``W1`` by the forward's
    expressions, so it reads the same bits.
    """
    inputs = (u, delta, b_coef, c_coef, a_log, d_skip)
    ud, dd, bd, cd = (_time_first(t.data) for t in (u, delta, b_coef, c_coef))
    pd = probs.data
    t_len = ud.shape[0]
    a_neg, da = _decay(dd, a_log)
    cp = _time_first(np.cumsum(np.concatenate([pd, pd], axis=-1), axis=-1), -1)  # [2T, ...]
    cp4 = cp[..., None, None]
    cp_t = cp4[:t_len]
    # the scan input [B_bar u; CP B_bar u] of both periods, scanned in place
    hs = np.empty((2 * t_len, 2) + da.shape[1:])  # [2T, 2, ..., D, N]
    _b_bar_u(ud, dd, bd, out=hs[:t_len, 0])
    hs[t_len:, 0] = hs[:t_len, 0]
    np.multiply(cp4, hs[:, 0], out=hs[:, 1])
    linear_scan(da[:, None], hs)
    p_all = np.exp(dd.sum(0)[..., None] * a_neg)  # [..., D, N]

    def window(s: int, out=None) -> np.ndarray:
        """``W1`` (``s = 0``) or ``W2`` (``s = 1``), in ``out`` or a new buffer."""
        w = np.multiply(p_all, hs[:t_len, s], out=out)
        return np.subtract(hs[t_len:, s], w, out=w)

    h_dyn = window(1)
    w = window(0)
    h_dyn -= np.multiply(cp_t, w, out=w)
    skip_w = pd.sum(-1)[..., None]  # [..., 1]
    y = np.einsum("t...dn,t...n->t...d", h_dyn, cd) + skip_w * d_skip.data[None, :] * ud

    def backward(gy):
        gy = _time_first(gy)
        # The adjoint sweep's input [-P_all g_W; g_W] is built in the buffer
        # the sweep overwrites; W1 and g_h pass through its halves first, and
        # B_bar u and the decay gradients share one more buffer.
        dhs = np.empty(hs.shape)
        g_w = dhs[t_len:]
        g_h = np.multiply(gy[..., None], cd[..., None, :], out=g_w[:, 1])  # [T, ..., D, N]
        # probs enter through CP (scan input and window weight) and the skip weight
        g_cp_w = np.einsum("t...dn,t...dn->t...", g_h, window(0, out=dhs[:t_len, 0]))
        np.multiply(-cp_t, g_h, out=g_w[:, 0])
        g_p_all = p_all * -np.einsum("ts...dn,ts...dn->...dn", g_w, hs[:t_len])
        np.multiply(-p_all, g_w, out=dhs[:t_len])
        linear_scan_adjoint(da[:, None], dhs)
        g_a2 = np.empty((2 * t_len,) + hs.shape[2:])
        bu = _b_bar_u(ud, dd, bd, out=g_a2[t_len:])
        g_cp = np.concatenate([np.einsum("k...dn,k...dn->k...", dhs[half, 1], bu)
                               for half in (slice(None, t_len), slice(t_len, None))])
        g_cp[:t_len] -= g_cp_w
        g_cp = np.cumsum(g_cp[::-1], axis=0)[::-1]
        # decay gradients, per step and through P_all (d P_all / d z_t = P_all);
        # a per-step decay is never divided out, as it underflows at large delta
        g_a2[0] = 0.0
        np.einsum("ks...dn,ks...dn->k...dn", dhs[1:], hs[:-1], out=g_a2[1:])
        g_a2[1:t_len] *= da[1:]
        g_a2[t_len:] *= da
        g_z, g_bu = g_a2[:t_len], g_a2[t_len:]  # the upper half takes g_bu once folded
        g_z += g_bu
        g_z += g_p_all
        g_bu2 = dhs[:, 1]  # becomes dhs[:, 0] + CP dhs[:, 1]
        g_bu2 *= cp4
        g_bu2 += dhs[:, 0]
        np.add(g_bu2[:t_len], g_bu2[t_len:], out=g_bu)
        del dhs, g_w, g_h, g_bu2
        g_skip = (gy * d_skip.data[None, :] * ud).sum(axis=(0, -1))
        probs._accumulate(_time_back(g_cp[:t_len] + g_cp[t_len:] + g_skip, -1), owned=True)
        _fused_backward(inputs, (ud, dd, bd), a_neg, gy, h_dyn, skip_w, g_z, g_bu)

    return tt._make(_time_back(y), (u, delta, b_coef, c_coef, probs, a_log, d_skip), backward)


# -- public scan operations -------------------------------------------------------


def _check_scan_input(x: Tensor, params: SsmParams) -> None:
    if x.data.ndim not in (2, 3) or x.shape[-1] != params.d_inner:
        raise ShapeError(f"scan input must be [T, {params.d_inner}] or "
                         f"[B, T, {params.d_inner}], got {x.shape}")


def _check_start_distribution(x: Tensor, probs: Tensor) -> None:
    if probs.shape != x.shape[:-1]:
        raise ShapeError(f"start distribution must have shape {list(x.shape[:-1])}, "
                         f"got {list(probs.shape)}")


def selective_scan(x: Tensor, params: SsmParams) -> Tensor:
    _check_scan_input(x, params)
    delta, b_coef, c_coef = params.project(x)
    return _scan_fused(x, delta, b_coef, c_coef, params.a_log, params.d_skip)


def selective_scan_sequential(x: Tensor, params: SsmParams) -> Tensor:
    """Oracle for :func:`selective_scan` on one ``[T, D]`` record, built from
    primitive ops."""
    _check_scan_input(x, params)
    delta, b_coef, c_coef = params.project(x)
    return _scan_primitive(x, delta, b_coef, c_coef, params.a_log, params.d_skip)


def selective_scan_backward(x: Tensor, params: SsmParams) -> Tensor:
    """Scan in reversed segment order; output restored to input orientation."""
    xr = tt.reverse(x, axis=-2)
    yr = selective_scan(xr, params)
    return tt.reverse(yr, axis=-2)


def dynamic_mixture(x: Tensor, params: SsmParams, probs: Tensor) -> Tensor:
    """Soft mixture of forward scans over all cyclic start positions.

    ``probs`` has one weight per start segment (``[..., T]`` for a
    ``[..., T, D]`` input); start ``s`` rotates the sequence so segment ``s``
    is scanned first, and the scan output is rotated back before weighting.
    The whole mixture is one O(T) fused node on the sequence unrolled twice;
    :func:`dynamic_mixture_sequential` is the oracle it is tested against.
    """
    _check_start_distribution(x, probs)
    _check_scan_input(x, params)
    delta, b_coef, c_coef = params.project(x)
    return _dyn_fused(x, delta, b_coef, c_coef, probs, params.a_log, params.d_skip)


def dynamic_mixture_sequential(x: Tensor, params: SsmParams, probs: Tensor) -> Tensor:
    """Oracle for :func:`dynamic_mixture` on one ``[T, D]`` record: the
    rotated sequential scans, weighted and summed term by term."""
    _check_start_distribution(x, probs)
    total = None
    for s in range(x.shape[0]):
        xs = tt.rotate(x, axis=0, offset=s)
        ys = tt.rotate(selective_scan_sequential(xs, params), axis=0, offset=-s)
        term = ys * tt.narrow(probs, 0, s, 1)
        total = term if total is None else total + term
    return total


def selective_scan_dynamic(x: Tensor, params: SsmParams, start_logits: Tensor) -> Tensor:
    probs = tt.softmax(start_logits, axis=-1)
    return dynamic_mixture(x, params, probs)


# -- full block --------------------------------------------------------------------


def default_dt_rank(d_model: int) -> int:
    return max(1, math.ceil(d_model / 16))


class MambaBlock(Module):
    """Norm -> gated dual-branch -> causal depthwise conv -> selective scan.

    Shape-preserving: ``[..., T, d] -> [..., T, d]`` with a residual
    connection. A
    subclass swaps the scan by overriding :meth:`_register_scan` (called
    between the conv and the output projection) and :meth:`_scan`.
    """

    def __init__(self, d_model: int, rng: np.random.Generator | None, d_state: int = 16,
                 expand: int = 2, d_conv: int = 4):
        super().__init__()
        self.d_model = d_model
        self.d_inner = expand * d_model
        self.norm = self._child("norm", LayerNorm(d_model))
        self.w_in_x = self._register("w_in_x", normal_init(rng, (d_model, self.d_inner)))
        self.w_in_z = self._register("w_in_z", normal_init(rng, (d_model, self.d_inner)))
        self.conv_w = self._register("conv_w", normal_init(rng, (d_conv, self.d_inner)))
        self.conv_b = self._register("conv_b", np.zeros(self.d_inner))
        self._register_scan(rng, d_state)
        self.w_out = self._register("w_out", normal_init(rng, (self.d_inner, d_model)))
        self.b_out = self._register("b_out", np.zeros(d_model))

    def _register_scan(self, rng: np.random.Generator | None, d_state: int) -> None:
        self.ssm = self._child(
            "ssm", SsmParams(self.d_inner, d_state, rng, default_dt_rank(self.d_model)))

    def _scan(self, xc: Tensor) -> Tensor:
        return selective_scan(xc, self.ssm)

    def __call__(self, x: Tensor) -> Tensor:
        u = self.norm(x)
        xm = tt.matmul(u, self.w_in_x)
        z = tt.matmul(u, self.w_in_z)
        xc = tt.silu(tt.conv1d_depthwise(xm, self.conv_w, self.conv_b))
        return tt.affine(self._scan(xc) * tt.silu(z), self.w_out, self.b_out) + x
