"""Tensor core: constructors, ops, autodiff contracts, AdamW."""

import gc
import math
import struct
import weakref

import numpy as np
import pytest

from avparse import tensor as tt
from avparse.data import SynthConfig, make_synthetic
from avparse.errors import ConfigError, ContractError, ShapeError
from avparse.layers import Linear, Stack
from avparse.model import AVMambaNet, ModelConfig, compute_loss
from avparse.tensor import AdamW, Tensor
from avparse.trainer import TextCache, forward_record, forward_records
from tests import composites
from tests.batching import check_batch_matches_records


def fd_scalar(fn, tensor, index, h=1e-5):
    flat = tensor.data.reshape(-1)
    saved = flat[index]
    flat[index] = saved + h
    f_plus = fn().item()
    flat[index] = saved - h
    f_minus = fn().item()
    flat[index] = saved
    return (f_plus - f_minus) / (2.0 * h)


class TestConstructors:
    def test_zeros(self):
        t = tt.zeros([2, 3])
        assert t.shape == (2, 3)
        assert np.all(t.data == 0.0)

    def test_full(self):
        assert np.all(tt.full([4], 2.5).data == 2.5)

    @pytest.mark.parametrize("shape", [[0], [2, 0], [-1, 3]])
    def test_invalid_shape(self, shape):
        with pytest.raises(ShapeError):
            tt.zeros(shape)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 3)))
        assert np.allclose(tt.matmul(a, Tensor(np.eye(3))).data, a.data)

    def test_forced_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert np.array_equal(tt.matmul(a, b).data, [[3.0], [7.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            tt.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)))

        def loss():
            return tt.tsum(tt.matmul(a, b))

        out = loss()
        out.backward()
        for index in range(a.size):
            fd = fd_scalar(loss, a, index)
            ad = a.grad.reshape(-1)[index]
            assert ad == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestElementwise:
    def test_analytic_points(self):
        z = Tensor([0.0])
        assert tt.sigmoid(z).item() == 0.5
        assert tt.silu(z).item() == 0.0
        assert tt.softplus(z).item() == pytest.approx(math.log(2.0), abs=1e-12)
        assert tt.relu(Tensor([-2.0])).item() == 0.0

    def test_sigmoid_gradient_at_one(self):
        x = Tensor([1.0], requires_grad=True)

        def loss():
            return tt.tsum(tt.sigmoid(x))

        loss().backward()
        fd = fd_scalar(loss, x, 0)
        assert x.grad[0] == pytest.approx(fd, rel=1e-6)

    def test_broadcast_trailing(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal((a * b).data, [[1, 2, 3], [1, 2, 3]])

    def test_broadcast_incompatible(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((2, 4)))

    def test_broadcast_gradient_sums(self):
        a = Tensor(np.ones((4, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        tt.tsum(a * b).backward()
        assert np.allclose(b.grad, [4.0, 4.0, 4.0])


class TestPool:
    def test_avg_and_max(self):
        x = Tensor([[1.0, 3.0]])
        assert tt.pool(x, 1, "avg").item() == 2.0
        assert tt.pool(x, 1, "max").item() == 3.0

    def test_avg_gradient_uniform(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        tt.tsum(tt.pool(x, 0, "avg")).backward()
        assert np.allclose(x.grad, 0.25)

    def test_max_gradient_tie_break_lowest_index(self):
        x = Tensor([2.0, 2.0], requires_grad=True)
        tt.tsum(tt.pool(x, 0, "max")).backward()
        assert np.array_equal(x.grad, [1.0, 0.0])

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            tt.pool(Tensor([1.0]), 3, "avg")


class TestShapeOps:
    def test_reverse(self):
        assert np.array_equal(tt.reverse(Tensor([1.0, 2.0, 3.0]), 0).data, [3, 2, 1])

    def test_reverse_involution(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 3)))
        assert np.array_equal(tt.reverse(tt.reverse(x, 0), 0).data, x.data)

    def test_rotate(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(tt.rotate(x, 0, 1).data, [2, 3, 1])
        assert np.array_equal(tt.rotate(x, 0, 3).data, x.data)

    def test_concat_and_gradient_split(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = tt.concat([a, b], axis=0)
        assert out.shape == (5, 2)
        weight = Tensor(np.arange(10.0).reshape(5, 2))
        tt.tsum(out * weight).backward()
        assert np.array_equal(a.grad, weight.data[:2])
        assert np.array_equal(b.grad, weight.data[2:])

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            tt.concat([Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))], axis=0)

    def test_reshape_transpose_roundtrip(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((3, 4)))
        assert np.array_equal(tt.reshape(tt.reshape(x, (12,)), (3, 4)).data, x.data)
        assert np.array_equal(tt.transpose(tt.transpose(x)).data, x.data)

    def test_narrow(self):
        x = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
        seg = tt.narrow(x, 0, 1, 2)
        assert np.array_equal(seg.data, [[2, 3], [4, 5]])
        tt.tsum(seg).backward()
        assert x.grad.sum() == 4.0
        assert np.all(x.grad[0] == 0) and np.all(x.grad[3:] == 0)


class TestConv1d:
    def test_kernel_one_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 3)))
        w = Tensor(np.ones((1, 3)))
        assert np.allclose(tt.conv1d_depthwise(x, w).data, x.data)

    def test_current_step_tap(self):
        x = Tensor(np.random.default_rng(1).standard_normal((6, 2)))
        w = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))  # k=2, only current step
        assert np.allclose(tt.conv1d_depthwise(x, w).data, x.data)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 3))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        out = tt.conv1d_depthwise(Tensor(x), Tensor(w), Tensor(b)).data
        # direct summation oracle with explicit left zero-padding
        k = w.shape[0]
        padded = np.vstack([np.zeros((k - 1, 3)), x])
        expected = np.zeros_like(x)
        for t in range(8):
            for j in range(k):
                expected[t] += w[j] * padded[t + j]
        expected += b
        assert np.abs(out - expected).max() < 1e-10

    def test_causality(self):
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal((6, 2))
        x2 = x1.copy()
        x2[4:] += 10.0  # future change must not affect earlier outputs
        w = Tensor(rng.standard_normal((3, 2)))
        y1 = tt.conv1d_depthwise(Tensor(x1), w).data
        y2 = tt.conv1d_depthwise(Tensor(x2), w).data
        assert np.array_equal(y1[:4], y2[:4])

    def test_bad_kernel(self):
        with pytest.raises(ConfigError):
            tt.conv1d_depthwise(Tensor(np.ones((3, 2))), Tensor(np.ones((0, 2))))


# name -> (op, shapes of its batched inputs without the batch axis, shapes of
# its shared inputs); the op takes the batched inputs first
BATCH_OPS = {
    "matmul": (tt.matmul, [(5, 4)], [(4, 3)]),
    "matmul batched operands": (tt.matmul, [(5, 4), (4, 3)], []),
    "transpose": (tt.transpose, [(5, 4)], []),
    "conv1d_depthwise": (tt.conv1d_depthwise, [(6, 3)], [(4, 3), (3,)]),
    "pool avg time": (lambda x: tt.pool(x, -2, "avg"), [(5, 4)], []),
    "pool max time": (lambda x: tt.pool(x, -2, "max"), [(5, 4)], []),
    "pool avg channels": (lambda x: tt.pool(x, -1, "avg"), [(5, 4)], []),
    "pool max channels": (lambda x: tt.pool(x, -1, "max"), [(5, 4)], []),
    "softmax time": (lambda x: tt.softmax(x, axis=-2), [(5, 4)], []),
    "softmax channels": (lambda x: tt.softmax(x, axis=-1), [(5, 4)], []),
    "concat time": (lambda a, b: tt.concat([a, b], axis=-2), [(2, 3), (4, 3)], []),
    "concat channels": (lambda a, b: tt.concat([a, b], axis=-1), [(4, 2), (4, 3)], []),
}


class TestBatchAxis:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("name", list(BATCH_OPS))
    def test_batch_equals_records(self, name, batch):
        rng = np.random.default_rng(11)
        fn, batched, shared = BATCH_OPS[name]
        check_batch_matches_records(
            fn, [rng.standard_normal((batch, *shape)) for shape in batched],
            [rng.standard_normal(shape) for shape in shared], rng)

    def test_matmul_batch_axes_must_broadcast(self):
        with pytest.raises(ShapeError, match="batch axes"):
            tt.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))


# name -> (fused node, its composite reference, input shapes given the batch
# axes ``lead``)
FUSED_NODES = {
    "affine": (tt.affine, composites.affine,
               lambda lead: [(*lead, 5, 4), (4, 3), (3,)]),
    "layernorm": (lambda x, g, b: tt.layernorm(x, g, b, 1e-5), composites.layernorm,
                  lambda lead: [(*lead, 5, 4), (4,), (4,)]),
    "softmax time": (lambda x: tt.softmax(x, axis=-2), lambda x: composites.softmax(x, -2),
                     lambda lead: [(*lead, 5, 4)]),
    "softmax channels": (lambda x: tt.softmax(x, axis=-1), lambda x: composites.softmax(x, -1),
                         lambda lead: [(*lead, 5, 4)]),
}


class TestFusedNodes:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["[T, d]", "[B, T, d]"])
    @pytest.mark.parametrize("name", list(FUSED_NODES))
    def test_matches_composite(self, name, lead):
        rng = np.random.default_rng(12)
        fused, composite, shapes = FUSED_NODES[name]
        composites.check_fused_matches_composite(
            fused, composite, [rng.standard_normal(shape) * 3.0 for shape in shapes(lead)], rng)

    def test_affine_bias_shape_checked(self):
        with pytest.raises(ShapeError, match="bias"):
            tt.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(5)))


class TestGradientOwnership:
    def test_fan_out_gradients_share_no_memory(self):
        # x feeds every op that hands its input a view of its own gradient
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        h = tt.affine(x, w, b)
        outs = [x + h, x - h, h * x, tt.reshape(x, (4, 3)), tt.transpose(h),
                tt.reverse(x, 0), tt.concat([x, h], axis=0), tt.pool(x, 0, "avg"),
                tt.tsum(x, axis=1, keepdims=True), tt.layernorm(h, b, b, 1e-5),
                tt.softmax(x, axis=0)]
        loss = tt.tsum(tt.concat([tt.reshape(o, (o.size, 1)) for o in outs], axis=0))
        loss.backward()
        grads = [t.grad for t in tt.graph_tensors(loss) if t.grad is not None]
        assert len(grads) > len(outs)
        for i, g in enumerate(grads):
            for other in grads[i + 1:]:
                assert not np.shares_memory(g, other)

    def test_training_graph_gradients_share_no_memory(self):
        config = ModelConfig()
        ds = make_synthetic(SynthConfig(seed=3, n_videos=2, n_val=0))
        net = AVMambaNet(config, seed=0)
        outputs = forward_records(net, ds.train, TextCache(ds.classes, config.text_dim))
        loss = compute_loss(outputs, *(np.stack([getattr(r, name) for r in ds.train])
                                       for name in ("video_label", "pseudo_a", "pseudo_v",
                                                    "null_a", "null_v")))
        loss.backward()
        grads = [t.grad for t in tt.graph_tensors(loss) if t.grad is not None]
        for i, g in enumerate(grads):
            for other in grads[i + 1:]:
                assert not np.may_share_memory(g, other)


class TestBackward:
    def test_square_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x).sum().backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_nonscalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_double_backward_rejected(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).sum().backward()
        with pytest.raises(ContractError):
            (x * x).sum().backward()
        x.reset_grad()
        (x * x).sum().backward()  # fine after reset
        assert x.grad[0] == pytest.approx(4.0)

    def test_disconnected_param_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        unused = Tensor(np.ones(4), requires_grad=True)
        (x * x).sum().backward(params=[x, unused])
        assert np.array_equal(unused.grad, np.zeros(4))

    def test_matrix_chain_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)))

        def loss():
            return tt.tsum(tt.sigmoid(tt.matmul(x, w)))

        loss().backward()
        for index in range(w.size):
            fd = fd_scalar(loss, w, index)
            assert w.grad.reshape(-1)[index] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestGraphLifetime:
    def test_training_graph_leaves_no_cycle(self):
        # desk-scale model: every op and both fused scan nodes are in the graph
        config = ModelConfig()
        ds = make_synthetic(SynthConfig(seed=3, n_videos=1, n_val=0))
        net = AVMambaNet(config, seed=0)
        texts = TextCache(ds.classes, config.text_dim)
        record = ds.train[0]
        gc.collect()
        gc.disable()
        try:
            outputs = forward_record(net, record, texts)
            loss = compute_loss(outputs, record.video_label, record.pseudo_a,
                                record.pseudo_v, record.null_a, record.null_v)
            loss.backward(params=net.parameters().values())
            loss_ref = weakref.ref(loss)
            stage_ref = weakref.ref(outputs.stages["amf_mix"])
            del loss, outputs
            # reference counting alone frees the graph
            assert loss_ref() is None
            assert stage_ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNoGrad:
    def test_ops_record_no_graph(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with tt.no_grad():
            outs = [tt.sigmoid(tt.matmul(w, w) + w), tt.pool(w, axis=0, kind="max"),
                    tt.narrow(w, 0, 1, 1), w * 2.0]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None
        assert (w * w).requires_grad

    def test_same_values_as_graph_building(self):
        w = Tensor(np.random.default_rng(4).standard_normal((3, 3)), requires_grad=True)
        with tt.no_grad():
            quiet = tt.softmax(tt.silu(tt.matmul(w, w)), axis=1)
        assert np.array_equal(quiet.data, tt.softmax(tt.silu(tt.matmul(w, w)), axis=1).data)

    def test_mode_restored_after_nesting_and_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with tt.no_grad():
            with tt.no_grad():
                assert not (w * w).requires_grad
            assert not (w * w).requires_grad
        assert (w * w).requires_grad
        with pytest.raises(ShapeError):
            with tt.no_grad():
                w + Tensor(np.ones(4))
        assert (w * w).requires_grad


class TestAdamW:
    def test_zero_grad_pure_decay(self):
        p = Tensor([2.0], requires_grad=True)
        opt = AdamW(packed({"p": p}), lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))

    def test_first_step_sign_update(self):
        p = Tensor([1.0], requires_grad=True)
        opt = AdamW(packed({"p": p}), lr=0.01, weight_decay=0.0)
        p.grad = np.array([0.3])
        opt.step()
        # bias-corrected moments collapse to g / (|g| + eps) on step one
        assert p.data[0] == pytest.approx(1.0 - 0.01 * (0.3 / (0.3 + 1e-8)), rel=1e-9)

    def test_missing_grad_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        opt = AdamW(packed({"p": p}))
        with pytest.raises(ContractError):
            opt.step()

    def test_converges_on_quadratic(self):
        # scalar reference run: 100 steps on (w - 3)^2 from 0 with lr 0.1
        p = Tensor([0.0], requires_grad=True)
        opt = AdamW(packed({"p": p}), lr=0.1, weight_decay=0.0)
        for _ in range(100):
            opt.zero_grad()
            loss = (p - Tensor([3.0])) * (p - Tensor([3.0]))
            loss.sum().backward()
            opt.step()
        assert abs(p.data[0] - 3.0) < 0.1

    def test_step_counter_increments(self):
        p = Tensor([1.0], requires_grad=True)
        opt = AdamW(packed({"p": p}))
        for expected in (1, 2, 3):
            p.grad = np.array([0.1])
            opt.step()
            assert opt.step_count == expected

    @staticmethod
    def mixed_shapes():
        # after the 1-element tensor, the second straddles the first block
        # edge and the third is larger than a block
        block = tt.ADAMW_BLOCK
        return [(1,), (2, block // 2), (3, block)]

    def test_flat_step_matches_per_tensor_reference(self):
        rng = np.random.default_rng(8)
        shapes = self.mixed_shapes()
        init = [rng.standard_normal(shape) for shape in shapes]
        params = {f"p{i}": Tensor(a, requires_grad=True) for i, a in enumerate(init)}
        lr, (b1, b2), eps, wd = 1e-2, (0.9, 0.999), 1e-8, 0.05
        opt = AdamW(packed(params), lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        # the per-tensor loop AdamW ran before its state went flat
        ref = [a.copy() for a in init]
        ref_m = [np.zeros_like(a) for a in init]
        ref_v = [np.zeros_like(a) for a in init]
        for t in range(1, 21):
            grads = [rng.standard_normal(shape) for shape in shapes]
            for p, g in zip(params.values(), grads):
                p.grad = g.copy()
            opt.step()
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for w, m, v, g in zip(ref, ref_m, ref_v, grads):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + eps)
                w -= lr * (update + wd * w)
        assert np.array_equal(opt._m, np.concatenate([m.ravel() for m in ref_m]))
        assert np.array_equal(opt._v, np.concatenate([v.ravel() for v in ref_v]))
        for p, w in zip(params.values(), ref):
            assert np.array_equal(p.data, w)

    def test_parameters_are_views_of_the_buffer(self):
        rng = np.random.default_rng(9)
        params = {f"p{i}": Tensor(rng.standard_normal(shape), requires_grad=True)
                  for i, shape in enumerate(self.mixed_shapes())}
        before = {name: p.data.copy() for name, p in params.items()}
        store = tt.pack(params.values())
        opt = AdamW(params)
        assert opt.buffer is store
        assert_views_of(params.values(), opt.buffer)
        for name, p in params.items():
            assert np.array_equal(p.data, before[name])
            p.grad = rng.standard_normal(p.shape)
        opt.step()
        assert_views_of(params.values(), opt.buffer)
        opt.buffer[...] = 0.0
        assert all(not p.data.any() for p in params.values())


    def test_pack_without_values_leaves_shapes_and_fills_nothing(self):
        params = [Tensor(np.ones(shape), requires_grad=True) for shape in self.mixed_shapes()]
        store = tt.pack(params, keep_values=False)
        assert_views_of(params, store)
        assert [p.shape for p in params] == self.mixed_shapes()
        store[...] = 2.0
        assert all((p.data == 2.0).all() for p in params)

    @pytest.mark.parametrize("case", ["unpacked", "subset", "reordered", "rebound"])
    def test_unpacked_parameters_rejected(self, case):
        rng = np.random.default_rng(10)
        params = {f"p{i}": Tensor(rng.standard_normal(shape), requires_grad=True)
                  for i, shape in enumerate(self.mixed_shapes())}
        if case != "unpacked":
            tt.pack(params.values())
        if case == "subset":
            del params["p1"]
        elif case == "reordered":
            params = dict(reversed(list(params.items())))
        elif case == "rebound":
            params["p2"].data = params["p2"].data.copy()
        with pytest.raises(ContractError, match="pack"):
            AdamW(params)

    def test_pack_gives_gradient_views_of_one_store_that_adamw_reads(self):
        params = {f"p{i}": Tensor(np.ones(shape), requires_grad=True)
                  for i, shape in enumerate(self.mixed_shapes())}
        store = tt.pack(params.values())
        grads = params["p0"]._grad_view.base
        assert grads is not store and grads.size == store.size
        assert not np.shares_memory(grads, store)
        offset = 0
        for p in params.values():
            assert p._grad_view.base is grads and p._grad_view.shape == p.shape
            assert p._grad_view.ctypes.data == grads[offset:].ctypes.data
            offset += p.size
            assert p.grad is None
        assert AdamW(params).grad_buffer is grads

    def test_matmul_writes_weight_gradients_into_their_views(self, monkeypatch):
        net, twin = AVMambaNet(ModelConfig(), seed=0), AVMambaNet(ModelConfig(), seed=0)
        for p in twin.parameters().values():  # the same net, unpacked
            p.data, p._grad_view = p.data.copy(), None
        reached = set()
        backward = tt._matmul_backward

        def recording(a, b, g):
            if isinstance(b, tt.StackedWeight):
                reached.update(id(m) for m in b.members)
            elif b.data.ndim == 2:
                reached.add(id(b))
            backward(a, b, g)

        monkeypatch.setattr(tt, "_matmul_backward", recording)
        desk_batch_loss(net).backward()
        desk_batch_loss(twin).backward()
        params, twins = net.parameters(), twin.parameters()
        written = [name for name, p in params.items() if p.grad is p._grad_view]
        assert len(written) > 50  # 84 of the 191 parameters at desk scale
        assert written == [name for name, p in params.items() if id(p) in reached]
        for name, p in params.items():
            assert np.array_equal(p.grad, twins[name].grad), name
            assert twins[name].grad is not None
        views = {name: params[name].grad.copy() for name in written}
        with pytest.raises(ContractError):
            desk_batch_loss(net).backward()
        for name in written:  # the refused pass wrote nothing
            assert np.array_equal(params[name].grad, views[name])

    def test_module_slices_of_the_gradient_store_hold_their_gradients(self):
        net = AVMambaNet(ModelConfig(), seed=0)
        opt = AdamW(net.parameters())
        desk_batch_loss(net).backward(params=opt.params.values())
        opt.step()
        modules: dict[str, list] = {}
        for name, p in opt.params.items():
            modules.setdefault(name.split(".")[0], []).append(p.grad.reshape(-1))
        offset = 0
        for module, grads in modules.items():  # in store order: one run per module
            flat = np.concatenate(grads)
            assert np.array_equal(opt.grad_buffer[offset : offset + flat.size], flat), module
            offset += flat.size
        assert offset == opt.grad_buffer.size


def linear_pair(rng, pack: bool) -> list[Linear]:
    """Two ``Linear(5, 3)`` maps, packed into one store (as in a net) or not."""
    pair = [Linear(5, 3, rng) for _ in range(2)]
    if pack:
        tt.pack(p for m in pair for p in m.parameters().values())
    return pair


class TestStackedWeight:
    def test_members_of_one_store_give_views_and_others_copies(self):
        rng = np.random.default_rng(11)
        pair = linear_pair(rng, pack=False)
        copies = [tt.StackedWeight(getattr(m, name) for m in pair) for name in ("w", "b")]
        store = tt.pack(p for m in pair for p in m.parameters().values())
        views = [tt.StackedWeight(getattr(m, name) for m in pair) for name in ("w", "b")]
        for copy, view in zip(copies, views):
            assert np.array_equal(copy.data, view.data)
            assert copy._grad_stack is None and not np.shares_memory(copy.data, store)
            assert np.shares_memory(view.data, store) and view._grad_stack is not None
        assert views[0].shape == (2, 5, 3) and views[1].shape == (2, 1, 3)
        assert views[0]._parents == (pair[0].w, pair[1].w) and views[0]._backward is None
        with pytest.raises(ShapeError, match="differ in shape"):
            tt.StackedWeight([pair[0].w, pair[0].b])

    @pytest.mark.parametrize("pack", [True, False], ids=["view", "copy"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["record", "batch"])
    def test_gradients_equal_the_members_bit_for_bit(self, pack, lead):
        """Given the same upstream gradient, the stack gives each member the
        gradients its own call gives it, and a packed member's weight
        gradient is its view of the gradient store."""
        rng = np.random.default_rng(12)
        pair = linear_pair(rng, pack)
        params = [p for m in pair for p in m.parameters().values()]
        x = rng.standard_normal((*lead, 2, 4, 5))
        direction = rng.standard_normal((*lead, 2, 4, 3))
        ref_out, ref_x, ref_grads = [], [], []
        for s, member in enumerate(pair):
            xs = Tensor(x[..., s, :, :], requires_grad=True)
            out = member(xs)
            tt.tsum(out * Tensor(direction[..., s, :, :])).backward()
            ref_out.append(out.data)
            ref_x.append(xs.grad)
            ref_grads += [p.grad.copy() for p in member.parameters().values()]
        tt.reset_grads(params)
        for p in params:
            if p._grad_view is not None:
                p._grad_view[...] = np.nan  # what the stack does not write stays NaN
        xs = Tensor(x, requires_grad=True)
        out = Stack(*pair)(xs)
        tt.tsum(out * Tensor(direction)).backward()
        for s in range(2):
            assert np.array_equal(out.data[..., s, :, :], ref_out[s])
            assert np.array_equal(xs.grad[..., s, :, :], ref_x[s])
        for p, ref in zip(params, ref_grads):
            assert np.array_equal(p.grad, ref)
        assert all((m.w.grad is m.w._grad_view) is pack for m in pair)

    def test_second_backward_refused_before_it_writes(self):
        rng = np.random.default_rng(13)
        pair = linear_pair(rng, pack=True)
        params = [p for m in pair for p in m.parameters().values()]
        stack = Stack(*pair)
        x = Tensor(rng.standard_normal((2, 4, 5)))
        tt.tsum(stack(x)).backward()
        before = [p.grad.copy() for p in params]
        with pytest.raises(ContractError, match="already populated"):
            tt.tsum(stack(x)).backward()
        for p, grad in zip(params, before):
            assert np.array_equal(p.grad, grad)

    def test_stack_reads_the_members_current_values(self):
        rng = np.random.default_rng(14)
        pair = linear_pair(rng, pack=False)
        stack = Stack(*pair)
        x = Tensor(rng.standard_normal((2, 4, 5)))

        def expected():
            return np.stack([m(Tensor(x.data[s])).data for s, m in enumerate(pair)])

        assert np.array_equal(stack(x).data, expected())
        pair[1].w.data[...] *= 2.0  # a copy is rebuilt on each call
        assert np.array_equal(stack(x).data, expected())
        store = tt.pack(p for m in pair for p in m.parameters().values())  # rebinds data
        store *= 0.5
        assert np.array_equal(stack(x).data, expected())
        store[...] = 0.0  # the view of the store sees writes into it
        assert not stack(x).data.any()


def desk_batch_loss(net: AVMambaNet) -> Tensor:
    """The training loss of ``net`` on a desk-scale batch of two videos."""
    ds = make_synthetic(SynthConfig(seed=3, n_videos=2, n_val=0))
    outputs = forward_records(net, ds.train, TextCache(ds.classes, net.config.text_dim))
    return compute_loss(outputs, *(np.stack([getattr(r, name) for r in ds.train])
                                   for name in ("video_label", "pseudo_a", "pseudo_v",
                                                "null_a", "null_v")))


def packed(params: dict) -> dict:
    """``params`` after ``tt.pack``, which ``AdamW`` requires."""
    tt.pack(params.values())
    return params


def assert_views_of(params, buffer) -> None:
    """Each tensor's data is the next stretch of ``buffer``, which they fill."""
    offset = 0
    for p in params:
        assert p.data.base is buffer
        assert p.data.ctypes.data == buffer[offset:].ctypes.data
        offset += p.size
    assert offset == buffer.size


class TestDeterminism:
    def test_op_chain_bit_identical(self):
        def run():
            x = Tensor(np.random.default_rng(9).standard_normal((6, 5)))
            y = tt.softmax(tt.silu(tt.matmul(x, tt.transpose(x))), axis=1)
            return y.data.tobytes()

        assert run() == run()


class TestCheckpointFormat:
    def test_bit_exact_roundtrip(self, tmp_path):
        from collections import OrderedDict

        from avparse.checkpoint import load_checkpoint, save_checkpoint

        rng = np.random.default_rng(11)
        params = OrderedDict([
            ("block.weight", Tensor(rng.standard_normal((3, 4)), requires_grad=True)),
            ("block.bias", Tensor(rng.standard_normal(4))),
            ("scalar", Tensor(np.array(3.25))),
        ])
        path = tmp_path / "params.mugc"
        save_checkpoint(path, params)
        restored = load_checkpoint(path)
        assert list(restored) == list(params)
        for name, p in params.items():
            assert restored[name].shape == p.data.shape
            assert restored[name].tobytes() == p.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        from avparse.checkpoint import save_checkpoint

        params = {"w": Tensor(np.arange(6.0).reshape(2, 3))}
        save_checkpoint(tmp_path / "a.mugc", params)
        save_checkpoint(tmp_path / "b.mugc", params)
        assert (tmp_path / "a.mugc").read_bytes() == (tmp_path / "b.mugc").read_bytes()

    def test_magic_and_layout(self, tmp_path):
        import struct

        from avparse.checkpoint import save_checkpoint

        path = tmp_path / "m.mugc"
        save_checkpoint(path, {"x": Tensor(np.array([1.5, -2.0]))})
        blob = path.read_bytes()
        assert blob[:4] == b"MUGC"
        version, count = struct.unpack("<II", blob[4:12])
        assert version == 1 and count == 1
        name_len = struct.unpack("<I", blob[12:16])[0]
        assert blob[16:17] == b"x" and name_len == 1
        rank = struct.unpack("<I", blob[17:21])[0]
        dim = struct.unpack("<I", blob[21:25])[0]
        assert rank == 1 and dim == 2
        assert np.frombuffer(blob[25:], dtype="<f8").tolist() == [1.5, -2.0]

    def test_bad_magic_rejected(self, tmp_path):
        from avparse.checkpoint import load_checkpoint
        from avparse.errors import CheckpointError

        path = tmp_path / "bad.mugc"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        from avparse.checkpoint import load_checkpoint, save_checkpoint
        from avparse.errors import CheckpointError

        path = tmp_path / "t.mugc"
        save_checkpoint(path, {"x": Tensor(np.zeros(2))})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry, match", [
        # name bytes that are not UTF-8, then a valid rank-1 entry
        (struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<II", 1, 1) + b"\x00" * 8,
         "UTF-8"),
        # 65536**4 elements: np.prod wraps to 0 in int64, math.prod does not
        (struct.pack("<I", 1) + b"x" + struct.pack("<5I", 4, *[65536] * 4), "truncated"),
    ], ids=["non-utf8-name", "element-count-overflow"])
    def test_malformed_entry_rejected(self, tmp_path, entry, match):
        from avparse.checkpoint import load_checkpoint
        from avparse.errors import CheckpointError

        path = tmp_path / "m.mugc"
        path.write_bytes(b"MUGC" + struct.pack("<II", 1, 1) + entry)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
