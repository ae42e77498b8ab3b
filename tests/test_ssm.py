"""Selective-scan kernels: discretization, oracle equivalence, block behavior."""

import tracemalloc

import numpy as np
import pytest

from avparse import ssm
from avparse import tensor as tt
from avparse.errors import ContractError, ShapeError
from avparse.tensor import Tensor
from tests.batching import check_batch_matches_records


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_params(rng, d_inner=5, d_state=4, shared=None, modality=None):
    return ssm.SsmParams(d_inner, d_state, rng, dt_rank=2, shared=shared, modality=modality)


class TestDiscretize:
    def test_small_delta_limit(self, rng):
        delta = Tensor(np.full((3, 2), 1e-12))
        a_log = Tensor(rng.uniform(-1, 1, (2, 4)))
        b = Tensor(rng.standard_normal((3, 4)))
        a_bar, b_bar = ssm.discretize(delta, a_log, b)
        assert np.allclose(a_bar.data, 1.0, atol=1e-10)
        assert np.allclose(b_bar.data, 0.0, atol=1e-10)

    def test_scalar_half_life(self):
        # A = -1 (a_log = 0), delta = ln 2 -> decay exp(-ln 2) = 0.5
        delta = Tensor(np.full((1, 1), np.log(2.0)))
        a_bar, _ = ssm.discretize(delta, Tensor(np.zeros((1, 1))), Tensor(np.ones((1, 1))))
        assert a_bar.data.reshape(()) == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct_formula(self, rng):
        t_len, d_inner, d_state = 4, 3, 5
        delta = rng.uniform(0.01, 1.0, (t_len, d_inner))
        a_log = rng.uniform(-2, 1, (d_inner, d_state))
        b = rng.standard_normal((t_len, d_state))
        a_bar, b_bar = ssm.discretize(Tensor(delta), Tensor(a_log), Tensor(b))
        expected_a = np.exp(delta[:, :, None] * (-np.exp(a_log))[None])
        expected_b = delta[:, :, None] * b[:, None, :]
        assert np.abs(a_bar.data - expected_a).max() < 1e-12
        assert np.abs(b_bar.data - expected_b).max() < 1e-12

    def test_nonpositive_delta_rejected(self, rng):
        delta = Tensor(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            ssm.discretize(delta, Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3))))


class TestSequentialScan:
    def test_t1_unrolled(self, rng):
        params = make_params(rng)
        x = Tensor(rng.standard_normal((1, 5)))
        y = ssm.selective_scan_sequential(x, params)
        delta, b, c = params.project(Tensor(x.data))
        a_bar = np.exp(delta.data[0][:, None] * (-np.exp(params.a_log.data)))
        h1 = (delta.data[0][:, None] * b.data[0][None, :]) * x.data[0][:, None]
        del a_bar  # h0 = 0, so the decay never enters at T=1
        expected = (h1 * c.data[0][None, :]).sum(axis=1) + params.d_skip.data * x.data[0]
        assert np.abs(y.data[0] - expected).max() < 1e-12

    def test_integrator_case(self, rng):
        # a_log -> -inf means decay 1: the state is a running sum of B*x
        d_inner, d_state, t_len = 3, 2, 6
        params = make_params(rng, d_inner, d_state)
        params.a_log.data[...] = -60.0  # exp(-60) ~ 0 -> A_bar ~ 1
        params.d_skip.data[...] = 0.0
        x = Tensor(np.abs(rng.standard_normal((t_len, d_inner))) + 0.5)
        y = ssm.selective_scan_sequential(x, params).data
        delta, b, c = params.project(Tensor(x.data))
        contrib = delta.data[:, :, None] * b.data[:, None, :] * x.data[:, :, None]
        running = np.cumsum(contrib, axis=0)
        expected = (running * c.data[:, None, :]).sum(axis=2)
        assert np.abs(y - expected).max() < 1e-9

    def test_matches_hand_unrolled_recurrence(self, rng):
        t_len, d_inner, d_state = 6, 3, 4
        params = make_params(rng, d_inner, d_state)
        x = Tensor(rng.standard_normal((t_len, d_inner)))
        y = ssm.selective_scan_sequential(x, params).data
        delta, b, c = params.project(Tensor(x.data))
        a_neg = -np.exp(params.a_log.data)
        h = np.zeros((d_inner, d_state))
        expected = np.zeros((t_len, d_inner))
        for t in range(t_len):
            a_bar = np.exp(delta.data[t][:, None] * a_neg)
            h = a_bar * h + (delta.data[t][:, None] * b.data[t][None, :]) * x.data[t][:, None]
            expected[t] = (h * c.data[t][None, :]).sum(axis=1) + params.d_skip.data * x.data[t]
        assert np.abs(y - expected).max() < 1e-12


class TestParallelScan:
    def test_equals_sequential_on_random_shapes(self, rng):
        for _ in range(20):
            t_len = int(rng.integers(1, 65))
            d_inner = int(rng.integers(1, 17))
            d_state = int(rng.integers(1, 17))
            params = ssm.SsmParams(d_inner, d_state, rng, dt_rank=max(1, d_inner // 4))
            x = Tensor(rng.standard_normal((t_len, d_inner)))
            y_seq = ssm.selective_scan_sequential(x, params).data
            y_fused = ssm.selective_scan(x, params).data
            assert np.abs(y_seq - y_fused).max() < 1e-9

    def test_t1_exact(self, rng):
        params = make_params(rng)
        x = Tensor(rng.standard_normal((1, 5)))
        y_seq = ssm.selective_scan_sequential(x, params).data
        y_fused = ssm.selective_scan(x, params).data
        assert np.array_equal(y_seq, y_fused)

    def test_prefix_scan_matches_loop(self, rng):
        a = rng.uniform(0.1, 0.99, (9, 1, 3, 4))  # broadcast against b's stack axis
        b = rng.standard_normal((9, 2, 3, 4))
        expected = np.empty_like(b)
        h = np.zeros_like(b[0])
        for t in range(9):
            h = a[t] * h + b[t]
            expected[t] = h
        assert np.array_equal(ssm.linear_scan(a, b.copy()), expected)
        # the adjoint sweep is the transpose: <g, scan(b)> == <adjoint(g), b>
        g = rng.standard_normal(b.shape)
        assert np.sum(g * expected) == pytest.approx(
            np.sum(ssm.linear_scan_adjoint(a, g) * b), rel=1e-12)

    def test_scans_run_in_place(self, rng):
        a = rng.uniform(0.1, 0.99, (6, 3))
        b = rng.standard_normal((6, 3))
        assert ssm.linear_scan(a, b) is b
        assert ssm.linear_scan_adjoint(a, b) is b

    def test_period_t_decay_scans_two_periods(self, rng):
        a = rng.uniform(0.1, 0.99, (5, 1, 3))  # read as a[t % 5]
        b = rng.standard_normal((10, 2, 3))
        expected = np.empty_like(b)
        h = np.zeros_like(b[0])
        for t in range(10):
            h = a[t % 5] * h + b[t]
            expected[t] = h
        assert np.array_equal(ssm.linear_scan(a, b.copy()), expected)

    def test_period_t_decay_adjoint_two_periods(self, rng):
        a = rng.uniform(0.1, 0.99, (5, 1, 3))
        g = rng.standard_normal((10, 2, 3))
        expected = g.copy()
        for t in range(8, -1, -1):
            expected[t] = g[t] + a[(t + 1) % 5] * expected[t + 1]
        assert np.array_equal(ssm.linear_scan_adjoint(a, g.copy()), expected)


class TestDynamicScanMemory:
    """Bounds on what ``_dyn_fused`` allocates, in units of one
    ``[T, B, D, N]`` float64 array, the size of its decay (1 MiB here). The
    kernel before the in-place scans read 14.3 / 11.3 / 18.6 units."""

    T_LEN, BATCH, D_INNER, N_STATE = 32, 2, 128, 16
    UNIT = T_LEN * BATCH * D_INNER * N_STATE * 8

    def inputs(self, rng):
        shape = (self.BATCH, self.T_LEN)
        u, c = (Tensor(rng.standard_normal(shape + (d,)), requires_grad=True)
                for d in (self.D_INNER, self.N_STATE))
        delta = Tensor(rng.uniform(1e-3, 0.1, shape + (self.D_INNER,)), requires_grad=True)
        b = Tensor(rng.standard_normal(shape + (self.N_STATE,)), requires_grad=True)
        probs = Tensor(np.full(shape, 1.0 / self.T_LEN), requires_grad=True)
        a_log = Tensor(rng.standard_normal((self.D_INNER, self.N_STATE)), requires_grad=True)
        d_skip = Tensor(np.ones(self.D_INNER), requires_grad=True)
        return u, delta, b, c, probs, a_log, d_skip

    def traced(self, run) -> tuple[float, float]:
        """``run()``'s peak and retained allocation, in units."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del kept
        return (peak - base) / self.UNIT, (current - base) / self.UNIT

    def test_no_grad_forward_peak(self, rng):
        inputs = self.inputs(rng)

        def run():
            with tt.no_grad():
                return ssm._dyn_fused(*inputs)

        peak, _ = self.traced(run)
        assert peak <= 8.0

    def test_graph_keeps_at_most_seven_units(self, rng):
        inputs = self.inputs(rng)
        _, kept = self.traced(lambda: ssm._dyn_fused(*inputs))
        assert kept <= 7.0

    def test_backward_peak(self, rng):
        inputs = self.inputs(rng)
        probe = Tensor(rng.standard_normal((self.BATCH, self.T_LEN, self.D_INNER)))

        def run():
            tt.tsum(ssm._dyn_fused(*inputs) * probe).backward()

        peak, _ = self.traced(run)
        assert peak <= 14.0


class TestBackwardScan:
    def test_definition(self, rng):
        params = make_params(rng)
        x = Tensor(rng.standard_normal((8, 5)))
        y = ssm.selective_scan_backward(x, params).data
        ref = tt.reverse(ssm.selective_scan(tt.reverse(x, 0), params), 0).data
        assert np.array_equal(y, ref)

    def test_t1_equals_forward(self, rng):
        params = make_params(rng)
        x = Tensor(rng.standard_normal((1, 5)))
        assert np.array_equal(ssm.selective_scan_backward(x, params).data,
                              ssm.selective_scan(x, params).data)

    def test_matches_reversed_sequential_oracle(self, rng):
        params = make_params(rng)
        x = Tensor(rng.standard_normal((7, 5)))
        y = ssm.selective_scan_backward(x, params).data
        x_rev = Tensor(x.data[::-1].copy())
        ref = ssm.selective_scan_sequential(x_rev, params).data[::-1]
        assert np.abs(y - ref).max() < 1e-12


class TestDynamicScan:
    def test_one_hot_equals_forward(self, rng):
        params = make_params(rng)
        x = Tensor(rng.standard_normal((6, 5)))
        probs = np.zeros(6)
        probs[0] = 1.0
        # term-by-term oracle: exact by definition
        y = ssm.dynamic_mixture_sequential(x, params, Tensor(probs)).data
        assert np.array_equal(y, ssm.selective_scan_sequential(x, params).data)
        # fused kernel: same up to summation-order roundoff
        y_fast = ssm.dynamic_mixture(x, params, Tensor(probs)).data
        fwd = ssm.selective_scan(x, params).data
        assert np.abs(y_fast - fwd).max() < 1e-12

    def test_uniform_is_mean_of_rotated_scans(self, rng):
        t_len = 5
        params = make_params(rng)
        x = Tensor(rng.standard_normal((t_len, 5)))
        y = ssm.dynamic_mixture(x, params, Tensor(np.full(t_len, 1.0 / t_len))).data
        terms = []
        for s in range(t_len):
            xs = Tensor(np.roll(x.data, -s, axis=0))
            terms.append(np.roll(ssm.selective_scan_sequential(xs, params).data, s, axis=0))
        assert np.abs(y - np.mean(terms, axis=0)).max() < 1e-12

    @pytest.mark.parametrize("t_len, normalized, delta_scale", [
        (9, False, None),  # probs not summing to 1: skip weighting and probs gradient
        (1, True, None),
        (160, False, 5e-5),  # delta <= 1e-4: P_all -> 1 and the window subtraction cancels
    ])
    def test_fused_matches_oracle_with_gradients(self, rng, t_len, normalized, delta_scale):
        params = make_params(rng, d_inner=2, d_state=2)
        if delta_scale is not None:
            params.b_dt.data[...] = np.log(np.expm1(delta_scale))
            params.w_dt2.data *= 0.05
        x_data = rng.standard_normal((t_len, 2))
        p_data = rng.uniform(0.0, 1.0, t_len)
        if normalized:
            p_data /= p_data.sum()
        r = rng.standard_normal((t_len, 2))
        runs = []
        for mixture in (ssm.dynamic_mixture, ssm.dynamic_mixture_sequential):
            params.reset_grads()
            x = Tensor(x_data.copy(), requires_grad=True)
            probs = Tensor(p_data.copy(), requires_grad=True)
            y = mixture(x, params, probs)
            tt.tsum(y * Tensor(r)).backward()
            grads = {"x": x.grad, "probs": probs.grad}
            grads.update((k, p.grad.copy()) for k, p in params.parameters().items())
            runs.append((y.data, grads))
        (y_fast, g_fast), (y_ref, g_ref) = runs
        if delta_scale is not None:
            delta, _, _ = params.project(Tensor(x_data))
            assert delta.data.max() <= 1e-4
        assert np.abs(y_fast - y_ref).max() <= 1e-12 * np.abs(y_ref).max()
        for name, g in g_ref.items():
            assert np.abs(g_fast[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_random_logits_match_term_by_term_oracle(self, rng):
        t_len = 9
        params = make_params(rng)
        x = Tensor(rng.standard_normal((t_len, 5)))
        logits = rng.standard_normal(t_len)
        y = ssm.selective_scan_dynamic(x, params, Tensor(logits)).data
        shifted = logits - logits.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        expected = np.zeros_like(x.data)
        for s in range(t_len):
            xs = Tensor(np.roll(x.data, -s, axis=0))
            ys = ssm.selective_scan_sequential(xs, params).data
            expected += probs[s] * np.roll(ys, s, axis=0)
        assert np.abs(y - expected).max() < 1e-12


class TestBatchAxis:
    T_LEN, D_INNER, N_STATE = 7, 3, 4

    def scan_inputs(self, rng, batch):
        """Batched (u, delta, B, C) and shared (a_log, D) arrays."""
        shape = (batch, self.T_LEN)
        batched = [rng.standard_normal((*shape, self.D_INNER)),
                   rng.uniform(0.05, 0.8, (*shape, self.D_INNER)),
                   rng.standard_normal((*shape, self.N_STATE)),
                   rng.standard_normal((*shape, self.N_STATE))]
        shared = [rng.uniform(-1.0, 1.0, (self.D_INNER, self.N_STATE)),
                  rng.standard_normal(self.D_INNER)]
        return batched, shared

    @pytest.mark.parametrize("batch", [1, 3])
    def test_fused_scan_batch_equals_records(self, batch):
        rng = np.random.default_rng(12)
        batched, shared = self.scan_inputs(rng, batch)
        check_batch_matches_records(ssm._scan_fused, batched, shared, rng)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_fused_dynamic_batch_equals_records(self, batch):
        rng = np.random.default_rng(13)
        batched, shared = self.scan_inputs(rng, batch)
        probs = rng.random((batch, self.T_LEN)) + 0.1
        probs[0] = np.eye(self.T_LEN)[2]  # one record starts at one segment
        probs /= probs.sum(axis=1, keepdims=True)
        check_batch_matches_records(ssm._dyn_fused, [*batched, probs], shared, rng)

    def test_start_distribution_is_per_record(self, rng):
        params = make_params(rng, d_inner=3)
        x = Tensor(rng.standard_normal((2, 5, 3)))
        with pytest.raises(ShapeError, match="start distribution"):
            ssm.dynamic_mixture(x, params, Tensor(np.full(5, 0.2)))


class TestStabilityAndCausality:
    def test_decays_inside_unit_circle(self, rng):
        params = make_params(rng)
        x = Tensor(rng.standard_normal((5, 5)))
        delta, b, _ = params.project(x)
        a_bar, _ = ssm.discretize(delta, params.a_log, b)
        assert np.all(a_bar.data > 0.0)
        assert np.all(a_bar.data < 1.0)

    def test_bounded_state_for_bounded_input(self, rng):
        params = make_params(rng)
        x = Tensor(np.clip(rng.standard_normal((500, 5)), -1, 1))
        y = ssm.selective_scan(x, params).data
        assert np.all(np.isfinite(y))
        assert np.abs(y).max() < 1e3

    def test_forward_scan_is_causal(self, rng):
        params = make_params(rng)
        base = rng.standard_normal((8, 5))
        perturbed = base.copy()
        perturbed[5:] += 3.0
        y1 = ssm.selective_scan(Tensor(base), params).data
        y2 = ssm.selective_scan(Tensor(perturbed), params).data
        assert np.array_equal(y1[:5], y2[:5])
        assert not np.allclose(y1[5:], y2[5:])


class TestSharedHandle:
    def test_hard_off_ignores_shared_parameters(self, rng):
        handle = ssm.SharedMatrixHandle(5, 4, rng, active=False)
        params = make_params(rng, shared=handle, modality="a")
        x = Tensor(rng.standard_normal((6, 5)))
        y1 = ssm.selective_scan(x, params).data.copy()
        handle.w_shared.data += 100.0  # perturbation must not matter when off
        y2 = ssm.selective_scan(x, params).data
        assert np.array_equal(y1, y2)

    def test_sharing_on_gradients_sum(self, rng):
        handle = ssm.SharedMatrixHandle(5, 4, rng, active=True)
        pa = make_params(rng, shared=handle, modality="a")
        pv = make_params(rng, shared=handle, modality="v")
        xa = Tensor(rng.standard_normal((6, 5)))
        xv = Tensor(rng.standard_normal((6, 5)))

        def reset_all():
            for module in (handle, pa, pv):
                module.reset_grads()

        def loss_a():
            return tt.tsum(ssm.selective_scan(xa, pa))

        def loss_v():
            return tt.tsum(ssm.selective_scan(xv, pv))

        loss_a().backward()
        g_a = handle.w_shared.grad.copy()
        reset_all()
        assert np.abs(g_a).max() > 0  # single-modality loss reaches the shared matrix
        loss_v().backward()
        g_v = handle.w_shared.grad.copy()
        reset_all()
        (loss_a() + loss_v()).backward()
        assert np.abs(handle.w_shared.grad - (g_a + g_v)).max() < 1e-10


class TestMambaBlock:
    def test_shape_preserved(self, rng):
        for t_len, dim in [(1, 4), (7, 6), (10, 2)]:
            block = ssm.MambaBlock(dim, rng, d_state=4)
            x = Tensor(rng.standard_normal((t_len, dim)))
            assert block(x).shape == (t_len, dim)

    def test_zero_input_zero_biases_gives_zero(self, rng):
        block = ssm.MambaBlock(4, rng, d_state=3)
        for name, p in block.parameters().items():
            if name.split(".")[-1] in ("b", "conv_b", "b_out", "b_dt"):
                p.data[...] = 0.0
        x = Tensor(np.zeros((5, 4)))
        assert np.allclose(block(x).data, 0.0)

    def test_engines_agree(self, rng, monkeypatch):
        block = ssm.MambaBlock(6, rng, d_state=4)
        x = Tensor(rng.standard_normal((9, 6)))
        y_fused = block(x).data
        monkeypatch.setattr(ssm, "selective_scan", ssm.selective_scan_sequential)
        y_seq = block(x).data
        assert np.abs(y_fused - y_seq).max() < 1e-10
