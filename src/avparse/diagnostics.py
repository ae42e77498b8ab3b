"""Self-check suites behind the ``scan-check`` and ``grad-check`` commands.

Both suites return structured results so tests can assert on them and the
CLI can print one line per check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ssm
from . import tensor as tt
from .errors import ConfigError
from .layers import LayerNorm, Linear
from .model import AVMambaNet, ModelConfig, _bce_sums, compute_loss
from .tensor import Tensor


@dataclass
class CheckResult:
    name: str
    value: float  # observed deviation (max abs or max rel, see detail)
    tolerance: float
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}: {self.value:.3e} (tol {self.tolerance:.0e}){extra}"


# -- finite differences ----------------------------------------------------------


def fd_check(fn, wrt, rtol: float, h: float = 1e-5, atol: float = 1e-6,
             sample: int | None = None, rng: np.random.Generator | None = None):
    """Compare autodiff gradients of ``fn()`` (scalar Tensor) against central
    finite differences for every tensor in ``wrt``.

    Returns ``(max_rel, ok)``; an entry passes when
    ``|ad - fd| <= rtol * max(|ad|, |fd|) + atol``.
    """
    wrt = list(wrt)
    for t in wrt:
        t.reset_grad()
    out = fn()
    out.backward(params=wrt)
    grads = [t.grad.copy() for t in wrt]
    tt.reset_grads(tt.graph_tensors(out))  # leave no grads behind on shared leaves
    max_rel = 0.0
    ok = True
    with tt.no_grad():  # the probes need values only
        for t, grad in zip(wrt, grads):
            flat_n = t.data.size
            if sample is not None and flat_n > sample:
                assert rng is not None
                indices = rng.choice(flat_n, size=sample, replace=False)
            else:
                indices = range(flat_n)
            flat = t.data.reshape(-1)
            for i in indices:
                i = int(i)
                saved = flat[i]
                flat[i] = saved + h
                f_plus = fn().item()
                flat[i] = saved - h
                f_minus = fn().item()
                flat[i] = saved
                fd = (f_plus - f_minus) / (2.0 * h)
                ad = grad.reshape(-1)[i]
                denom = max(abs(ad), abs(fd))
                diff = abs(ad - fd)
                max_rel = max(max_rel, diff / max(denom, atol))
                if diff > rtol * denom + atol:
                    ok = False
    return max_rel, ok


def _loss_through(op_output: Tensor, direction: np.ndarray) -> Tensor:
    return tt.tsum(op_output * Tensor(direction))


# -- gradient suite -----------------------------------------------------------------


def _op_cases(rng: np.random.Generator):
    """(name, fn, wrt) triples covering every differentiable operation."""
    cases = []

    def leaf(shape, positive=False, scale=1.0):
        data = rng.standard_normal(shape) * scale
        if positive:
            data = np.abs(data) + 0.5
        return Tensor(data, requires_grad=True)

    def direction(shape):
        return rng.standard_normal(shape)

    a = leaf((3, 4))
    b = leaf((3, 4))
    r34 = direction((3, 4))
    cases.append(("add", lambda: _loss_through(a + b, r34), [a, b]))
    cases.append(("sub", lambda: _loss_through(a - b, r34), [a, b]))
    cases.append(("mul", lambda: _loss_through(a * b, r34), [a, b]))
    bpos = leaf((3, 4), positive=True)
    cases.append(("div", lambda: _loss_through(a / bpos, r34), [a, bpos]))
    row = leaf((1, 4))
    cases.append(("broadcast mul", lambda: _loss_through(a * row, r34), [a, row]))

    m1 = leaf((3, 5))
    m2 = leaf((5, 2))
    r32 = direction((3, 2))
    cases.append(("matmul", lambda: _loss_through(tt.matmul(m1, m2), r32), [m1, m2]))

    x = leaf((4, 3))
    r43 = direction((4, 3))
    for name, op in (("sigmoid", tt.sigmoid), ("silu", tt.silu), ("softplus", tt.softplus),
                     ("exp", tt.exp), ("relu", tt.relu)):
        cases.append((name, lambda op=op: _loss_through(op(x), r43), [x]))
    xp = leaf((4, 3), positive=True)
    cases.append(("log", lambda: _loss_through(tt.log(xp), r43), [xp]))
    cases.append(("pow_const", lambda: _loss_through(tt.pow_const(xp, -0.5), r43), [xp]))
    cases.append(("clamp", lambda: _loss_through(tt.clamp(x, -10.0, 10.0), r43), [x]))

    r13 = direction((1, 3))
    r41 = direction((4, 1))
    cases.append(("pool avg", lambda: _loss_through(tt.pool(x, 0, "avg"), r13), [x]))
    cases.append(("pool max", lambda: _loss_through(tt.pool(x, 0, "max"), r13), [x]))
    cases.append(("pool max axis1", lambda: _loss_through(tt.pool(x, 1, "max"), r41), [x]))
    cases.append(("sum", lambda: _loss_through(tt.tsum(x, axis=0, keepdims=True), r13), [x]))
    cases.append(("softmax", lambda: _loss_through(tt.softmax(x, axis=1), r43), [x]))

    c1 = leaf((2, 3))
    c2 = leaf((4, 3))
    r63 = direction((6, 3))
    cases.append(("concat", lambda: _loss_through(tt.concat([c1, c2], axis=0), r63), [c1, c2]))
    cases.append(("reverse", lambda: _loss_through(tt.reverse(x, 0), r43), [x]))
    r34t = direction((3, 4))
    cases.append(("transpose", lambda: _loss_through(tt.transpose(x), r34t), [x]))
    r62 = direction((6, 2))
    cases.append(("reshape", lambda: _loss_through(tt.reshape(x, (6, 2)), r62), [x]))
    cases.append(("rotate", lambda: _loss_through(tt.rotate(x, 0, 1), r43), [x]))
    r23 = direction((2, 3))
    cases.append(("narrow", lambda: _loss_through(tt.narrow(x, 0, 1, 2), r23), [x]))

    xc = leaf((6, 3))
    wc = leaf((4, 3), scale=0.5)
    bc = leaf((3,))
    r63c = direction((6, 3))
    cases.append(("conv1d_depthwise",
                  lambda: _loss_through(tt.conv1d_depthwise(xc, wc, bc), r63c), [xc, wc, bc]))

    ln = LayerNorm(5)
    xl = leaf((3, 5))
    r35 = direction((3, 5))
    ln_params = list(ln.parameters().values())
    cases.append(("layernorm", lambda: _loss_through(ln(xl), r35), [xl, *ln_params]))
    lin = Linear(5, 2, rng)
    r32l = direction((3, 2))
    cases.append(("linear", lambda: _loss_through(lin(xl), r32l),
                  [xl, *lin.parameters().values()]))
    return cases


def _scan_cases(rng: np.random.Generator):
    cases = []
    t_len, d_inner, n_state = 5, 3, 4
    u = Tensor(rng.standard_normal((t_len, d_inner)), requires_grad=True)
    delta = Tensor(rng.uniform(0.05, 0.8, (t_len, d_inner)), requires_grad=True)
    b = Tensor(rng.standard_normal((t_len, n_state)), requires_grad=True)
    c = Tensor(rng.standard_normal((t_len, n_state)), requires_grad=True)
    a_log = Tensor(rng.uniform(-1.0, 1.0, (d_inner, n_state)), requires_grad=True)
    d_skip = Tensor(rng.standard_normal(d_inner), requires_grad=True)
    core_inputs = [u, delta, b, c, a_log, d_skip]
    r = rng.standard_normal((t_len, d_inner))
    for label, core in (("sequential", ssm._scan_primitive), ("fused", ssm._scan_fused)):
        cases.append((f"scan core ({label})",
                      lambda core=core: _loss_through(core(u, delta, b, c, a_log, d_skip), r),
                      core_inputs))

    params = ssm.SsmParams(d_inner, n_state, rng, dt_rank=2)
    xs = Tensor(rng.standard_normal((t_len, d_inner)), requires_grad=True)
    svars = [xs, *params.parameters().values()]
    cases.append(("selective_scan",
                  lambda: _loss_through(ssm.selective_scan(xs, params), r), svars))
    cases.append(("selective_scan_backward",
                  lambda: _loss_through(ssm.selective_scan_backward(xs, params), r), svars))
    logits = Tensor(rng.standard_normal(t_len), requires_grad=True)
    cases.append(("selective_scan_dynamic",
                  lambda: _loss_through(ssm.selective_scan_dynamic(xs, params, logits), r),
                  [*svars, logits]))

    handle = ssm.SharedMatrixHandle(d_inner, n_state, rng, active=True)
    shared_params = ssm.SsmParams(d_inner, n_state, rng, dt_rank=2, shared=handle, modality="a")
    cases.append(("scan with shared B",
                  lambda: _loss_through(ssm.selective_scan(xs, shared_params), r),
                  [xs, *shared_params.parameters().values(), *handle.parameters().values()]))

    block = ssm.MambaBlock(6, rng, d_state=4, expand=2, d_conv=4)
    xb = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    rb = rng.standard_normal((4, 6))
    cases.append(("mamba_block",
                  lambda: _loss_through(block(xb), rb),
                  [xb, *block.parameters().values()]))
    return cases


def _fused_cases(rng: np.random.Generator):
    """The fused nodes on a batched ``[B, T, d]`` input, and the BCE node
    with a partial null mask."""
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    gain = Tensor(rng.standard_normal(4), requires_grad=True)
    shift = Tensor(rng.standard_normal(4), requires_grad=True)
    r5 = rng.standard_normal((2, 3, 5))
    r4 = rng.standard_normal((2, 3, 4))
    prob = Tensor(rng.uniform(0.05, 0.95, (2, 3, 4)), requires_grad=True)
    target = (rng.random((2, 3, 4)) < 0.5).astype(np.float64)
    keep = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    r2 = rng.standard_normal(2)
    return [
        ("affine batched", lambda: _loss_through(tt.affine(x, w, b), r5), [x, w, b]),
        ("layernorm batched",
         lambda: _loss_through(tt.layernorm(x, gain, shift, 1e-5), r4), [x, gain, shift]),
        ("softmax batched time", lambda: _loss_through(tt.softmax(x, axis=-2), r4), [x]),
        ("softmax batched channels", lambda: _loss_through(tt.softmax(x, axis=-1), r4), [x]),
        ("bce_sums with null mask",
         lambda: _loss_through(_bce_sums(prob, target, keep), r2), [prob]),
    ]


def tiny_model_config() -> ModelConfig:
    return ModelConfig(n_segments=4, dim=8, n_classes=3, d_state=4,
                       d_audio_in=5, d_visual_in=7, text_dim=6)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}", field="seed")


def run_grad_checks(seed: int = 0, include_model: bool = True) -> list[CheckResult]:
    """Finite-difference validation of every op (rtol 1e-4) and, optionally,
    the full tiny model end to end (rtol 1e-3, sampled entries per tensor)."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    results = []
    # the fused-node cases draw from their own generator, so the other
    # cases keep their inputs
    cases = _op_cases(rng) + _scan_cases(rng) + _fused_cases(np.random.default_rng([seed, 1]))
    for name, fn, wrt in cases:
        max_rel, ok = fd_check(fn, wrt, rtol=1e-4)
        results.append(CheckResult(f"grad {name}", max_rel, 1e-4, ok, "max rel err"))
    if include_model:
        cfg = tiny_model_config()
        net = AVMambaNet(cfg, seed=seed)
        audio = rng.standard_normal((cfg.n_segments, cfg.d_audio_in))
        visual = rng.standard_normal((cfg.n_segments, cfg.d_visual_in))
        text_a = rng.standard_normal((cfg.n_segments, cfg.text_dim))
        text_v = rng.standard_normal((cfg.n_segments, cfg.text_dim))
        video_label = (rng.random(cfg.n_classes) < 0.5).astype(np.float64)
        pseudo_a = (rng.random((cfg.n_segments, cfg.n_classes)) < 0.3).astype(np.float64)
        pseudo_v = (rng.random((cfg.n_segments, cfg.n_classes)) < 0.3).astype(np.float64)

        def model_loss():
            outputs = net.forward(audio, visual, text_a, text_v)
            return compute_loss(outputs, video_label, pseudo_a, pseudo_v)

        for name, param in net.parameters().items():
            max_rel, ok = fd_check(model_loss, [param], rtol=1e-3, atol=1e-6,
                                   sample=6, rng=rng)
            results.append(CheckResult(f"grad model {name}", max_rel, 1e-3, ok, "max rel err"))
    return results


# -- scan equivalence suite ------------------------------------------------------------


def run_scan_checks(seed: int = 0, cases: int = 100) -> list[CheckResult]:
    """Oracle equivalence for the scan family.

    Fused vs sequential over random shapes, exact backward/one-hot-dynamic
    identities, and the fused dynamic scan against the term-by-term mixture.
    """
    _check_seed(seed)
    if cases < 1:  # zero cases would report the oracle check as passed
        raise ConfigError(f"cases must be >= 1, got {cases}", field="cases")
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(cases):
        t_len = int(rng.integers(1, 65))
        d_inner = int(rng.integers(1, 17))
        n_state = int(rng.integers(1, 17))
        params = ssm.SsmParams(d_inner, n_state, rng, dt_rank=max(1, d_inner // 4))
        x = Tensor(rng.standard_normal((t_len, d_inner)))
        y_seq = ssm.selective_scan_sequential(x, params)
        y_fused = ssm.selective_scan(x, params)
        worst = max(worst, float(np.abs(y_seq.data - y_fused.data).max()))
    results.append(CheckResult(
        f"fused vs sequential ({cases} random cases)", worst, 1e-9, worst < 1e-9,
        "max abs deviation"))

    t_len, d_inner, n_state = 12, 6, 5
    params = ssm.SsmParams(d_inner, n_state, rng, dt_rank=2)
    x = Tensor(rng.standard_normal((t_len, d_inner)))
    y_bwd = ssm.selective_scan_backward(x, params)
    y_ref = tt.reverse(ssm.selective_scan(tt.reverse(x, 0), params), 0)
    dev = float(np.abs(y_bwd.data - y_ref.data).max())
    results.append(CheckResult("backward equals reversed forward-on-reversed",
                               dev, 0.0, dev == 0.0, "exact"))

    one_hot = np.zeros(t_len)
    one_hot[0] = 1.0
    y_dyn0 = ssm.dynamic_mixture_sequential(x, params, Tensor(one_hot))
    y_fwd = ssm.selective_scan_sequential(x, params)
    dev = float(np.abs(y_dyn0.data - y_fwd.data).max())
    results.append(CheckResult("dynamic one-hot start equals forward",
                               dev, 0.0, dev == 0.0, "exact, term-by-term oracle"))
    y_dyn0_fast = ssm.dynamic_mixture(x, params, Tensor(one_hot))
    y_fwd_fast = ssm.selective_scan(x, params)
    dev = float(np.abs(y_dyn0_fast.data - y_fwd_fast.data).max())
    results.append(CheckResult("dynamic one-hot start equals forward (fused kernel)",
                               dev, 1e-12, dev < 1e-12, "max abs deviation"))

    logits = Tensor(rng.standard_normal(t_len))
    y_dyn = ssm.selective_scan_dynamic(x, params, logits)
    shifted = logits.data - logits.data.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    expected = np.zeros((t_len, d_inner))
    for s in range(t_len):
        xs = Tensor(np.roll(x.data, -s, axis=0))
        ys = ssm.selective_scan_sequential(xs, params)
        expected += probs[s] * np.roll(ys.data, s, axis=0)
    dev = float(np.abs(y_dyn.data - expected).max())
    results.append(CheckResult("dynamic matches term-by-term mixture", dev, 1e-12,
                               dev < 1e-12, "max abs deviation"))
    results.append(_batched_scan_check(np.random.default_rng([seed, 1])))
    return results


def _batched_scan_check(rng: np.random.Generator, batch: int = 3) -> CheckResult:
    """The fused forward, backward and dynamic scans on one ``[B, T, D]``
    batch against the sequential oracles run record by record; the start
    distributions are one-hot, uniform and random."""
    t_len, d_inner, n_state = 9, 5, 4
    params = ssm.SsmParams(d_inner, n_state, rng, dt_rank=2)
    x = Tensor(rng.standard_normal((batch, t_len, d_inner)))
    logits = rng.standard_normal((batch, t_len))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    probs[0] = np.eye(t_len)[int(rng.integers(t_len))]
    probs[1] = 1.0 / t_len
    batched = (ssm.selective_scan(x, params), ssm.selective_scan_backward(x, params),
               ssm.dynamic_mixture(x, params, Tensor(probs)))
    worst = 0.0
    for i in range(batch):
        xi = Tensor(x.data[i])
        oracles = (ssm.selective_scan_sequential(xi, params),
                   tt.reverse(ssm.selective_scan_sequential(tt.reverse(xi, 0), params), 0),
                   ssm.dynamic_mixture_sequential(xi, params, Tensor(probs[i])))
        for y, oracle in zip(batched, oracles):
            worst = max(worst, float(np.abs(y.data[i] - oracle.data).max()))
    return CheckResult(f"batched fused scans vs per-record sequential oracles (B={batch})",
                       worst, 1e-9, worst < 1e-9, "fwd, bwd and dynamic, max abs deviation")
