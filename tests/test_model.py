"""Network blocks against hand-computed oracles, plus the loss."""

import numpy as np
import pytest

from avparse import ssm
from avparse import tensor as tt
from avparse.errors import ContractError, ShapeError, VocabularyError
from avparse.model import (AVMambaNet, ChannelEnhancement, CrossModalFusion,
                           HybridAttention, MILHead, ModelConfig, ModelOutputs,
                           SemanticConditioning, TemporalSpatialAttention,
                           _bce_sums, compute_loss, embed_label_sets, embed_pseudo_matrix,
                           film_residual, text_vector)
from avparse.tensor import Tensor
from tests import composites


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def modality_stack(x_a, x_v):
    """``x_a`` and ``x_v`` stacked on a modality axis, ``[..., 2, T, d]``: in
    the graph for tensors, as a constant for arrays."""
    if not isinstance(x_a, Tensor):
        return Tensor(np.stack([x_a, x_v], axis=-3))
    shape = (*x_a.shape[:-2], 1, *x_a.shape[-2:])
    return tt.concat([tt.reshape(x_a, shape), tt.reshape(x_v, shape)], axis=-3)


def assert_same_gradients(loss_fns, tensors):
    """Each loss in ``loss_fns`` gives ``tensors`` the same gradients up to
    rounding: a stacked call sums a shared weight's gradient in another order."""
    grads = []
    for loss_fn in loss_fns:
        tt.reset_grads(tensors)
        loss_fn().backward()
        grads.append([t.grad.copy() for t in tensors])
    for new, ref in zip(*grads):
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-14)


def packed(module):
    """``module`` with its parameters in one store, as in a net, so each
    stacked weight is a view of it."""
    tt.pack(module.parameters().values())
    return module


def assert_same_halves(stacked, per_modality, inputs, module, rng):
    """``stacked()`` gives the two halves ``per_modality()`` gives, bit for
    bit. Under the same upstream gradient, the module's parameters get the
    same gradients bit for bit, and ``inputs`` the same up to rounding (the
    stacked stage may sum an input's gradient in another order)."""
    params = list(module.parameters().values())
    directions = None
    runs = []
    for fn in (per_modality, stacked):
        tt.reset_grads([*inputs, *params])
        halves = fn()
        if directions is None:
            directions = [Tensor(rng.standard_normal(h.shape)) for h in halves]
        (tt.tsum(halves[0] * directions[0]) + tt.tsum(halves[1] * directions[1])).backward()
        runs.append(([h.data for h in halves], [t.grad.copy() for t in (*inputs, *params)]))
    (ref_out, ref_grads), (out, grads) = runs
    for half, want in zip(out, ref_out):
        assert half.shape == want.shape and np.array_equal(half, want)
    for got, want in zip(grads[len(inputs):], ref_grads[len(inputs):]):
        assert np.array_equal(got, want)
    for got, want in zip(grads[: len(inputs)], ref_grads[: len(inputs)]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


class TestTemporalSpatialAttention:
    def test_zero_input_zero_biases_gives_zero(self, rng):
        tsa = TemporalSpatialAttention(4, rng, d_state=4, expand=2, d_conv=4)
        for name, p in tsa.parameters().items():
            if name.split(".")[-1] in ("b", "conv_b", "b_out", "b_dt"):
                p.data[...] = 0.0
        out = tsa(Tensor(np.zeros((3, 4))))
        assert np.allclose(out.data, 0.0)

    def test_weights_strictly_in_unit_interval(self, rng):
        tsa = TemporalSpatialAttention(5, rng, d_state=4, expand=2, d_conv=4)
        x = Tensor(rng.standard_normal((6, 5)) * 2)
        w = tsa.channel_weights(x)
        refined = x * w
        s = tsa.temporal_weights(refined)
        assert np.all(w.data > 0) and np.all(w.data < 1)
        assert np.all(s.data > 0) and np.all(s.data < 1)
        # every output entry is strictly shrunk in magnitude
        out = tsa(x)
        assert np.all(np.abs(out.data) <= np.abs(x.data))

    def test_matches_manual_two_stage_application(self, rng):
        tsa = TemporalSpatialAttention(4, rng, d_state=4, expand=2, d_conv=4)
        x = Tensor(rng.standard_normal((3, 4)))
        w = tsa.channel_weights(x).data
        refined = x.data * w
        s = tsa.temporal_weights(Tensor(refined)).data
        assert np.abs(tsa(x).data - refined * s).max() < 1e-12

    @pytest.mark.parametrize("shape", [(6, 8), (3, 6, 8)], ids=["record", "batch"])
    def test_one_channel_block_call_matches_two_bit_for_bit(self, rng, shape):
        # the stacked [avg; max] call against one block call per pool
        tsa = TemporalSpatialAttention(8, rng, d_state=4, expand=2, d_conv=4)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        block = tsa.channel_block

        def two_calls():
            return tt.sigmoid(block(tt.pool(x, axis=-2, kind="avg"))
                              + block(tt.pool(x, axis=-2, kind="max")))

        weights = tsa.channel_weights(x)
        assert weights.shape == shape[:-2] + (1, 8)
        assert np.array_equal(weights.data, two_calls().data)
        r = Tensor(rng.standard_normal(weights.shape))
        assert_same_gradients([lambda: tt.tsum(tsa.channel_weights(x) * r),
                               lambda: tt.tsum(two_calls() * r)],
                              [x, *tsa.channel_block.parameters().values()])


class TestCrossModalFusion:
    def test_output_shapes(self, rng):
        amf = CrossModalFusion(6, rng, d_state=4, expand=2, d_conv=4)
        f_a = Tensor(rng.standard_normal((5, 6)))
        f_v = Tensor(rng.standard_normal((5, 6)))
        out_a, out_v, mix = amf(f_a, f_v)
        assert out_a.shape == out_v.shape == mix.shape == (5, 6)

    def test_hard_off_sharing_ignores_shared_matrices(self, rng):
        amf = CrossModalFusion(4, rng, d_state=3, expand=2, d_conv=4, sharing_active=False)
        f_a = Tensor(rng.standard_normal((4, 4)))
        f_v = Tensor(rng.standard_normal((4, 4)))
        base = [t.data.copy() for t in amf(f_a, f_v)]
        for handle in amf.handles.values():
            handle.w_shared.data += 50.0
        after = [t.data for t in amf(f_a, f_v)]
        for b, a in zip(base, after):
            assert np.array_equal(b, a)

    def test_shared_gradient_is_sum_of_modality_gradients(self, rng):
        amf = CrossModalFusion(4, rng, d_state=3, expand=2, d_conv=4)
        f_a = Tensor(rng.standard_normal((4, 4)))
        f_v = Tensor(rng.standard_normal((4, 4)))
        shared = amf.handles["fwd"].w_shared

        def loss(which):
            out_a, out_v, _ = amf(f_a, f_v)
            if which == "a":
                return tt.tsum(out_a)
            if which == "v":
                return tt.tsum(out_v)
            return tt.tsum(out_a) + tt.tsum(out_v)

        loss("a").backward()
        g_a = shared.grad.copy()
        amf.reset_grads()
        assert np.abs(g_a).max() > 0  # single-modality loss reaches the shared matrix
        loss("v").backward()
        g_v = shared.grad.copy()
        amf.reset_grads()
        loss("both").backward()
        assert np.abs(shared.grad - (g_a + g_v)).max() < 1e-10
        amf.reset_grads()

    def test_stream_is_the_gated_block_with_three_scans(self, rng):
        amf = CrossModalFusion(4, rng, d_state=3, expand=2, d_conv=4)
        stream = amf.stream_a
        assert isinstance(stream, ssm.MambaBlock)
        # names and order are the checkpoint layout
        assert list(stream.parameters()) == [
            "w_in_x", "w_in_z", "conv_w", "conv_b", "w_start", "b_start", "w_out", "b_out",
            "norm.g", "norm.b",
            *(f"ssm_{branch}.{name}" for branch in ("fwd", "bwd", "dyn")
              for name in ("a_log", "w_b", "w_c", "w_dt1", "w_dt2", "b_dt", "d_skip"))]
        x = Tensor(rng.standard_normal((5, 4)))
        u = stream.norm(x)
        xc = tt.silu(tt.conv1d_depthwise(tt.matmul(u, stream.w_in_x), stream.conv_w,
                                         stream.conv_b))
        logits = tt.reshape(tt.matmul(xc, stream.w_start) + stream.b_start, (5,))
        scans = (ssm.selective_scan(xc, stream.ssm_fwd)
                 + ssm.selective_scan_backward(xc, stream.ssm_bwd)
                 + ssm.selective_scan_dynamic(xc, stream.ssm_dyn, logits))
        expected = (tt.matmul(scans * tt.silu(tt.matmul(u, stream.w_in_z)), stream.w_out)
                    + stream.b_out + x)
        assert np.array_equal(stream(x).data, expected.data)


class TestChannelEnhancement:
    def test_zero_inputs_zero_biases(self, rng):
        mfe = ChannelEnhancement(3, rng)
        zero = Tensor(np.zeros((2, 3)))
        out_a, out_v = mfe(zero, zero, zero)
        # e = sigmoid(0) = 0.5 -> factor 1.5, applied to zero features
        assert np.allclose(mfe.factors(zero, zero, zero).data, 1.5)
        assert np.allclose(out_a.data, 0.0) and np.allclose(out_v.data, 0.0)

    def test_factors_strictly_between_one_and_two(self, rng):
        # scale kept moderate: float64 sigmoid saturates exactly past |x|~37
        mfe = ChannelEnhancement(4, rng)
        f_a = Tensor(rng.standard_normal((5, 4)) * 2)
        f_v = Tensor(rng.standard_normal((5, 4)) * 2)
        mix = Tensor(rng.standard_normal((5, 4)))
        e = mfe.factors(f_a, f_v, mix).data
        assert np.all(e > 1.0) and np.all(e < 2.0)

    def test_matches_hand_formula(self, rng):
        mfe = ChannelEnhancement(3, rng)
        f_a = rng.standard_normal((2, 3))
        f_v = rng.standard_normal((2, 3))
        mix = rng.standard_normal((2, 3))
        out_a, out_v = mfe(Tensor(f_a), Tensor(f_v), Tensor(mix))
        p_w, p_b = mfe.p.w.data, mfe.p.b.data
        q_w, q_b = mfe.q.w.data, mfe.q.b.data
        e = sigmoid((f_a * f_v) @ p_w + p_b + mix @ q_w + q_b)
        assert np.abs(out_a.data - f_a * (1 + e)).max() < 1e-12
        assert np.abs(out_v.data - f_v * (1 + e)).max() < 1e-12


class TestTextEmbedding:
    def test_deterministic(self):
        a = text_vector("A photo of", "Violin", 16)
        b = text_vector("A photo of", "Violin", 16)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_memoized_vector_is_fresh_bits_and_read_only(self):
        cached = text_vector("A photo of", "Violin", 16)
        assert text_vector("A photo of", "Violin", 16) is cached
        assert np.array_equal(cached, text_vector.__wrapped__("A photo of", "Violin", 16))
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0

    def test_prefix_distinguishes_modalities(self):
        a = text_vector("this is a sound of", "Violin", 16)
        v = text_vector("A photo of", "Violin", 16)
        assert not np.allclose(a, v)

    def test_empty_set_gives_zero_vector(self):
        out = embed_label_sets([set(), {"Dog"}], "v", ["Dog", "Violin"], 8)
        assert np.array_equal(out[0], np.zeros(8))
        assert np.linalg.norm(out[1]) == pytest.approx(1.0)

    def test_two_category_segment_is_mean(self):
        out = embed_label_sets([["Dog", "Violin"]], "v", ["Dog", "Violin"], 8)
        expected = (text_vector("A photo of", "Dog", 8)
                    + text_vector("A photo of", "Violin", 8)) / 2.0
        assert np.abs(out[0] - expected).max() < 1e-15

    def test_unknown_category_rejected(self):
        with pytest.raises(VocabularyError):
            embed_label_sets([{"Spaceship"}], "a", ["Dog"], 8)

    @pytest.mark.parametrize("modality", ["a", "v"])
    def test_pseudo_matrix_equals_label_set_oracle_bit_for_bit(self, rng, modality):
        vocabulary = [f"class{c}" for c in range(7)]
        every = np.ones((5, 7))
        single = np.zeros((5, 7))
        single[[0, 3], 4] = 1.0
        with_empty_rows = (rng.random((6, 7)) < 0.5).astype(float)
        with_empty_rows[[1, 4]] = 0.0
        matrices = [np.zeros((5, 7)), every, single, with_empty_rows,
                    (rng.random((1, 7)) < 0.5).astype(np.int64)]
        matrices += [rng.random((t, 7)) < density for t, density in
                     ((10, 0.15), (10, 0.5), (3, 0.9), (12, 0.3))]
        matrices.append(np.array([[1.0], [0.0], [1.0]]))  # a one-class vocabulary
        for pseudo in matrices:
            names = vocabulary[: pseudo.shape[1]]
            sets = [[names[c] for c in np.flatnonzero(row)] for row in pseudo]
            expected = embed_label_sets(sets, modality, names, 16)
            got = embed_pseudo_matrix(pseudo, modality, names, 16)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [2, 4])
    def test_pseudo_matrix_of_wrong_width_rejected(self, width):
        with pytest.raises(ShapeError, match="pseudo matrix"):
            embed_pseudo_matrix(np.ones((3, width)), "a", ["Dog", "Violin", "Speech"], 8)


class TestSemanticConditioning:
    def test_film_residual_zero_is_identity(self, rng):
        f = Tensor(rng.standard_normal((3, 4)))
        zeros = Tensor(np.zeros((3, 4)))
        assert np.array_equal(film_residual(f, zeros, zeros).data, f.data)

    def test_film_residual_unit_scale_doubles(self, rng):
        f = Tensor(rng.standard_normal((3, 4)))
        out = film_residual(f, Tensor(np.ones((3, 4))), Tensor(np.zeros((3, 4))))
        assert np.abs(out.data - 2.0 * f.data).max() < 1e-15

    def test_matches_hand_formula(self, rng):
        plsim = SemanticConditioning(3, 5, rng)
        f_a = rng.standard_normal((2, 3))
        f_v = rng.standard_normal((2, 3))
        text_a = rng.standard_normal((2, 5))
        text_v = rng.standard_normal((2, 5))
        out_a, out_v = plsim(modality_stack(f_a, f_v), modality_stack(text_a, text_v)).data

        def mlp(m, x):
            hidden = np.maximum(x @ m.fc1.w.data + m.fc1.b.data, 0.0)
            return hidden @ m.fc2.w.data + m.fc2.b.data

        expected_a = f_a * mlp(plsim.a_scale, text_a) + mlp(plsim.a_bias, text_a) + f_a
        expected_v = f_v * mlp(plsim.v_scale, text_v) + mlp(plsim.v_bias, text_v) + f_v
        assert np.abs(out_a - expected_a).max() < 1e-12
        assert np.abs(out_v - expected_v).max() < 1e-12

    def test_zeroed_mlps_make_stage_identity(self, rng):
        plsim = SemanticConditioning(4, 6, rng)
        for p in plsim.parameters().values():
            p.data[...] = 0.0
        f_a = rng.standard_normal((3, 4))
        f_v = rng.standard_normal((3, 4))
        out_a, out_v = plsim(modality_stack(f_a, f_v),
                             modality_stack(rng.standard_normal((3, 6)),
                                            rng.standard_normal((3, 6)))).data
        assert np.array_equal(out_a, f_a)
        assert np.array_equal(out_v, f_v)

    @pytest.mark.parametrize("shape", [(5, 8), (3, 5, 8)], ids=["record", "batch"])
    def test_stacked_stage_matches_per_modality_stage_bit_for_bit(self, rng, shape):
        plsim = packed(SemanticConditioning(8, 6, rng))
        f_a, f_v = (Tensor(rng.standard_normal(shape), requires_grad=True) for _ in range(2))
        text_a, text_v = (rng.standard_normal((*shape[:-1], 6)) for _ in range(2))

        def per_modality():
            """The stage with one call per MLP, on each modality alone."""
            return [film_residual(f, scale(Tensor(text)), bias(Tensor(text)))
                    for f, text, scale, bias in ((f_a, text_a, plsim.a_scale, plsim.a_bias),
                                                 (f_v, text_v, plsim.v_scale, plsim.v_bias))]

        def stacked():
            out = plsim(modality_stack(f_a, f_v), modality_stack(text_a, text_v))
            return [tt.reshape(tt.narrow(out, -3, m, 1), shape) for m in (0, 1)]

        assert_same_halves(stacked, per_modality, [f_a, f_v], plsim, rng)


class TestHybridAttention:
    def test_attention_rows_sum_to_one(self, rng):
        han = HybridAttention(4, rng)
        f = Tensor(rng.standard_normal((6, 4)))
        _, weights = han.self_a(f, f)
        assert np.abs(weights.data.sum(axis=1) - 1.0).max() < 1e-12

    def test_t1_self_attention_is_value_projection(self, rng):
        han = HybridAttention(4, rng)
        f = Tensor(rng.standard_normal((1, 4)))
        out, _ = han.self_a(f, f)
        expected = f.data @ han.self_a.wv.w.data + han.self_a.wv.b.data
        assert out.shape == (1, 4)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_two_segment_hand_computed(self, rng):
        han = HybridAttention(2, rng)
        attn = han.self_a
        f = np.array([[1.0, 0.5], [-0.5, 2.0]])
        out, _ = attn(Tensor(f), Tensor(f))
        q = f @ attn.wq.w.data + attn.wq.b.data
        k = f @ attn.wk.w.data + attn.wk.b.data
        v = f @ attn.wv.w.data + attn.wv.b.data
        scores = q @ k.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        assert np.abs(out.data - w @ v).max() < 1e-10

    def test_residual_structure(self, rng):
        han = HybridAttention(3, rng)
        f_a = Tensor(rng.standard_normal((4, 3)))
        f_v = Tensor(rng.standard_normal((4, 3)))
        g_a, g_v = han(modality_stack(f_a.data, f_v.data)).data
        self_a = han.self_a(f_a, f_a)[0].data
        cross_a = han.cross_a(f_a, f_v)[0].data
        assert np.abs(g_a - (f_a.data + self_a + cross_a)).max() < 1e-12
        assert g_v.shape == (4, 3)

    @pytest.mark.parametrize("shape", [(5, 8), (3, 5, 8)], ids=["record", "batch"])
    def test_stacked_stage_matches_per_modality_stage_bit_for_bit(self, rng, shape):
        han = packed(HybridAttention(8, rng))
        f_a, f_v = (Tensor(rng.standard_normal(shape), requires_grad=True) for _ in range(2))

        def per_modality():
            """The stage with one call per attention, on each modality alone."""
            return [f_a + han.self_a(f_a, f_a)[0] + han.cross_a(f_a, f_v)[0],
                    f_v + han.self_v(f_v, f_v)[0] + han.cross_v(f_v, f_a)[0]]

        def stacked():
            out = han(modality_stack(f_a, f_v))
            return [tt.reshape(tt.narrow(out, -3, m, 1), shape) for m in (0, 1)]

        assert_same_halves(stacked, per_modality, [f_a, f_v], han, rng)


class TestMILHead:
    def test_symmetric_uniform_attention_reduces_to_mean(self, rng):
        head = MILHead(4, 3, rng)
        for linear in (head.time_score, head.mod_score):
            for p in linear.parameters().values():
                p.data[...] = 0.0  # uniform softmax everywhere
        g = rng.standard_normal((5, 4))
        out = head(modality_stack(g, g))
        expected = out.seg_prob_a.data.mean(axis=0)
        assert np.abs(out.video_prob.data - expected).max() < 1e-12

    def test_video_prob_strictly_inside_unit_interval(self, rng):
        head = MILHead(4, 6, rng)
        out = head(modality_stack(rng.standard_normal((5, 4)) * 3,
                                  rng.standard_normal((5, 4)) * 3))
        assert np.all(out.video_prob.data > 0.0)
        assert np.all(out.video_prob.data < 1.0)

    def test_matches_hand_computed_weighted_sum(self, rng):
        head = MILHead(3, 2, rng)
        g_a = rng.standard_normal((4, 3))
        g_v = rng.standard_normal((4, 3))
        out = head(modality_stack(g_a, g_v))

        def lin(linear, x):
            return x @ linear.w.data + linear.b.data

        def softmax0(x):
            e = np.exp(x - x.max(axis=0, keepdims=True))
            return e / e.sum(axis=0, keepdims=True)

        p_a, p_v = sigmoid(lin(head.classifier, g_a)), sigmoid(lin(head.classifier, g_v))
        wt_a, wt_v = softmax0(lin(head.time_score, g_a)), softmax0(lin(head.time_score, g_v))
        mod = softmax0(np.stack([
            lin(head.mod_score, g_a.mean(axis=0, keepdims=True))[0],
            lin(head.mod_score, g_v.mean(axis=0, keepdims=True))[0],
        ]))
        expected = mod[0] * (wt_a * p_a).sum(axis=0) + mod[1] * (wt_v * p_v).sum(axis=0)
        assert np.abs(out.video_prob.data - expected).max() < 1e-10
        # diagnostics expose the attention distributions
        assert np.abs(out.diagnostics["w_mod"].sum(axis=0) - 1.0).max() < 1e-9

    @staticmethod
    def two_call_head(head, g_a, g_v):
        """The head with one call per modality per shared map, joined by concats."""
        prob_a, prob_v = (tt.sigmoid(head.classifier(g)) for g in (g_a, g_v))
        w_time_a, w_time_v = (tt.softmax(head.time_score(g), axis=-2) for g in (g_a, g_v))
        w_mod = tt.softmax(tt.concat([head.mod_score(tt.pool(g, axis=-2, kind="avg"))
                                      for g in (g_a, g_v)], axis=-2), axis=-2)
        pooled = tt.concat([tt.tsum(w_time_a * prob_a, axis=-2, keepdims=True),
                            tt.tsum(w_time_v * prob_v, axis=-2, keepdims=True)], axis=-2)
        video_prob = tt.tsum(w_mod * pooled, axis=-2)
        return ModelOutputs(prob_a, prob_v, video_prob, {
            "w_time_a": w_time_a.data, "w_time_v": w_time_v.data, "w_mod": w_mod.data})

    @pytest.mark.parametrize("shape", [(5, 8), (3, 5, 8)], ids=["record", "batch"])
    def test_stacked_head_matches_two_call_head_bit_for_bit(self, rng, shape):
        head = MILHead(8, 6, rng)
        g_a, g_v = (Tensor(rng.standard_normal(shape) * 2, requires_grad=True) for _ in range(2))
        out, ref = head(modality_stack(g_a, g_v)), self.two_call_head(head, g_a, g_v)
        for key in ("seg_prob_a", "seg_prob_v", "video_prob"):
            assert getattr(out, key).shape == getattr(ref, key).shape, key
            assert np.array_equal(getattr(out, key).data, getattr(ref, key).data), key
        assert out.diagnostics.keys() == ref.diagnostics.keys()
        for key, values in ref.diagnostics.items():
            assert out.diagnostics[key].shape == values.shape, key
            assert np.array_equal(out.diagnostics[key], values), key
        # both temporal attentions are views of one forward array, not copies
        w_time_a, w_time_v = out.diagnostics["w_time_a"], out.diagnostics["w_time_v"]
        assert w_time_a.base is not None and w_time_a.base is w_time_v.base
        weights = [Tensor(rng.standard_normal(getattr(out, key).shape))
                   for key in ("seg_prob_a", "seg_prob_v", "video_prob")]

        def loss(outputs):
            return (tt.tsum(outputs.seg_prob_a * weights[0])
                    + tt.tsum(outputs.seg_prob_v * weights[1])
                    + tt.tsum(outputs.video_prob * weights[2]))

        assert_same_gradients([lambda: loss(head(modality_stack(g_a, g_v))),
                               lambda: loss(self.two_call_head(head, g_a, g_v))],
                              [g_a, g_v, *head.parameters().values()])


class TestFullModel:
    def make_net(self, **overrides):
        cfg = ModelConfig(n_segments=4, dim=8, n_classes=3, d_state=4,
                          d_audio_in=5, d_visual_in=7, text_dim=6, **overrides)
        return AVMambaNet(cfg, seed=3), cfg

    def test_output_shapes(self, rng):
        net, cfg = self.make_net()
        out = net.forward(rng.standard_normal((4, 5)), rng.standard_normal((4, 7)))
        assert out.seg_prob_a.shape == (4, 3)
        assert out.seg_prob_v.shape == (4, 3)
        assert out.video_prob.shape == (3,)
        assert np.all(out.video_prob.data > 0) and np.all(out.video_prob.data < 1)

    def test_stage_shapes_preserved(self, rng):
        net, cfg = self.make_net()
        stages = net.forward(rng.standard_normal((4, 5)), rng.standard_normal((4, 7))).stages
        for name in ("tsa_out_a", "tsa_out_v", "amf_out_a", "amf_out_v", "amf_mix",
                     "mfe_out_a", "mfe_out_v", "plsim_out_a", "plsim_out_v"):
            stage = stages.get(name)
            assert stage is not None and stage.shape == (4, 8), name

    def test_feature_width_mismatch_rejected(self, rng):
        net, _ = self.make_net()
        with pytest.raises(ShapeError):
            net.forward(rng.standard_normal((4, 9)), rng.standard_normal((4, 7)))

    def test_videos_independent_of_batch_order(self, rng):
        net, _ = self.make_net()
        videos = [(rng.standard_normal((4, 5)), rng.standard_normal((4, 7)))
                  for _ in range(3)]
        first = [net.forward(a, v).video_prob.data.copy() for a, v in videos]
        second = [net.forward(a, v).video_prob.data.copy() for a, v in reversed(videos)]
        for got, expected in zip(reversed(second), first):
            assert np.array_equal(got, expected)

    def test_zeroed_plsim_equals_structurally_ablated_model(self, rng):
        net_full, cfg = self.make_net()
        for name, p in net_full.parameters().items():
            if name.startswith("plsim."):
                p.data[...] = 0.0
        net_ablated = AVMambaNet(
            ModelConfig(n_segments=4, dim=8, n_classes=3, d_state=4, d_audio_in=5,
                        d_visual_in=7, text_dim=6, use_plsim=False), seed=9)
        full_params = net_full.parameters()
        for name, p in net_ablated.parameters().items():
            p.data[...] = full_params[name].data
        audio = rng.standard_normal((4, 5))
        visual = rng.standard_normal((4, 7))
        text = rng.standard_normal((4, 6))
        out_full = net_full.forward(audio, visual, text, text)
        out_ablated = net_ablated.forward(audio, visual)
        assert np.array_equal(out_full.video_prob.data, out_ablated.video_prob.data)
        assert np.array_equal(out_full.seg_prob_a.data, out_ablated.seg_prob_a.data)

    def test_hanbaseline_census_when_everything_disabled(self):
        cfg = ModelConfig(n_segments=4, dim=8, n_classes=3, d_state=4, d_audio_in=5,
                          d_visual_in=7, use_tsa=False, amf_mode="off",
                          use_mfe=False, use_plsim=False)
        net = AVMambaNet(cfg, seed=0)
        prefixes = {name.split(".")[0] for name in net.parameters()}
        assert prefixes == {"proj_a", "proj_v", "han", "mmil"}

    @pytest.mark.parametrize("overrides", [
        {}, {"amf_mode": "private"}, {"use_tsa": False, "amf_mode": "off", "use_mfe": False},
    ], ids=["full", "private", "bare"])
    def test_batch_equals_records_bit_for_bit(self, rng, overrides):
        net, cfg = self.make_net(**overrides)
        inputs = [rng.standard_normal((3, 4, width)) for width in (5, 7, 6, 6)]
        batched = net.forward(*inputs)
        for i in range(3):
            alone = net.forward(*(x[i] for x in inputs))
            for key in ("seg_prob_a", "seg_prob_v", "video_prob"):
                assert np.array_equal(getattr(batched, key).data[i], getattr(alone, key).data)
            for name, stage in alone.stages.items():
                assert np.array_equal(batched.stages[name].data[i], stage.data), name

    def test_desk_scale_batch_equals_records_bit_for_bit(self, rng):
        cfg = ModelConfig()
        net = AVMambaNet(cfg, seed=1)
        audio = rng.standard_normal((2, cfg.n_segments, cfg.d_audio_in))
        visual = rng.standard_normal((2, cfg.n_segments, cfg.d_visual_in))
        batched = net.forward(audio, visual)
        for i in range(2):
            alone = net.forward(audio[i], visual[i])
            assert np.array_equal(batched.seg_prob_a.data[i], alone.seg_prob_a.data)
            assert np.array_equal(batched.video_prob.data[i], alone.video_prob.data)

    def test_batch_shapes_checked(self, rng):
        net, _ = self.make_net()
        with pytest.raises(ShapeError, match="visual features"):
            net.forward(rng.standard_normal((2, 4, 5)), rng.standard_normal((3, 4, 7)))
        with pytest.raises(ShapeError, match="audio features"):
            net.forward(rng.standard_normal((1, 2, 4, 5)), rng.standard_normal((1, 2, 4, 7)))

    def test_paper_scale_parameter_count_band(self):
        net = AVMambaNet(ModelConfig.paper_scale(), seed=0)
        count = net.parameter_count()
        assert 3.8e6 <= count <= 15.2e6, f"parameter count {count} outside band"


class TestLoss:
    def make_outputs(self, rng, t=4, c=3):
        return ModelOutputs(
            seg_prob_a=tt.sigmoid(Tensor(rng.standard_normal((t, c)))),
            seg_prob_v=tt.sigmoid(Tensor(rng.standard_normal((t, c)))),
            video_prob=tt.sigmoid(Tensor(rng.standard_normal(c))),
        )

    @staticmethod
    def bce_reference(p, y, eps=1e-7):
        p = np.clip(p, eps, 1 - eps)
        return -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()

    @pytest.mark.parametrize("shape, mask", [
        ((3, 5), None), ((3, 4, 5), None),
        ((3, 4, 5), np.array([[1.0, 0.0, 1.0, 1.0], [0.0] * 4, [0.0, 1.0, 1.0, 0.0]])),
    ], ids=["[B, n]", "[B, T, C]", "[B, T, C] with null rows"])
    def test_bce_node_matches_composite(self, rng, shape, mask):
        prob = sigmoid(rng.standard_normal(shape) * 3.0)
        prob.reshape(-1)[:3] = (0.0, 1.0, 1e-9)  # clamped entries pass no gradient
        target = (rng.random(shape) < 0.5).astype(np.float64)
        composites.check_fused_matches_composite(
            lambda p: _bce_sums(p, target, mask),
            lambda p: composites.bce_sums(p, target, mask), [prob], rng)

    def test_saturated_predictions_near_zero_loss(self):
        t, c = 4, 3
        label = np.ones(c)
        near_one = np.full((t, c), 1.0 - 1e-12)
        outputs = ModelOutputs(Tensor(near_one), Tensor(near_one),
                               Tensor(np.full(c, 1.0 - 1e-12)))
        loss = compute_loss(outputs, label, np.ones((t, c)), np.ones((t, c)))
        assert loss.item() <= 3.1e-7

    def test_zero_lambdas_reduce_to_video_bce(self, rng):
        out = self.make_outputs(rng)
        label = np.array([1.0, 0.0, 1.0])
        pseudo = np.ones((4, 3))
        loss = compute_loss(out, label, pseudo, pseudo,
                            lambda_audio=0.0, lambda_visual=0.0)
        assert loss.item() == pytest.approx(
            self.bce_reference(out.video_prob.data, label), abs=1e-12)

    def test_matches_independent_reference(self, rng):
        out = self.make_outputs(rng)
        label = np.array([1.0, 0.0, 0.0])
        pseudo_a = (rng.random((4, 3)) < 0.4).astype(float)
        pseudo_v = (rng.random((4, 3)) < 0.4).astype(float)
        loss = compute_loss(out, label, pseudo_a, pseudo_v,
                            lambda_audio=0.7, lambda_visual=1.3)
        expected = (self.bce_reference(out.video_prob.data, label)
                    + 0.7 * self.bce_reference(out.seg_prob_a.data, pseudo_a)
                    + 1.3 * self.bce_reference(out.seg_prob_v.data, pseudo_v))
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_null_segments_masked_out(self, rng):
        out = self.make_outputs(rng)
        label = np.array([1.0, 0.0, 0.0])
        pseudo = (rng.random((4, 3)) < 0.4).astype(float)
        null = np.array([False, True, False, True])
        pseudo_masked = pseudo.copy()
        pseudo_masked[null] = 0.0
        loss = compute_loss(out, label, pseudo_masked, None, null_a=null,
                            lambda_visual=0.0)
        rows = ~null
        expected = (self.bce_reference(out.video_prob.data, label)
                    + self.bce_reference(out.seg_prob_a.data[rows], pseudo_masked[rows]))
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_all_null_pseudo_term_dropped(self, rng):
        out = self.make_outputs(rng)
        label = np.array([1.0, 0.0, 0.0])
        loss = compute_loss(out, label, np.zeros((4, 3)), None,
                            null_a=np.ones(4, dtype=bool), lambda_visual=0.0)
        assert loss.item() == pytest.approx(
            self.bce_reference(out.video_prob.data, label), abs=1e-12)

    def test_nonbinary_labels_rejected(self, rng):
        out = self.make_outputs(rng)
        with pytest.raises(ContractError):
            compute_loss(out, np.array([0.5, 0.0, 1.0]))

    def test_batch_is_mean_of_records(self, rng):
        b, t, c = 3, 4, 3
        logits = [rng.standard_normal(shape) for shape in ((b, t, c), (b, t, c), (b, c))]
        video_label = (rng.random((b, c)) < 0.4).astype(float)
        pseudo_a, pseudo_v = ((rng.random((b, t, c)) < 0.4).astype(float) for _ in range(2))
        null_a = rng.random((b, t)) < 0.3
        null_a[1] = True  # a record with no annotated audio segment
        pseudo_a[null_a] = 0.0
        labels = (video_label, pseudo_a, pseudo_v, null_a, np.zeros((b, t), dtype=bool))

        def loss_of(xs, labels):
            return compute_loss(ModelOutputs(*(tt.sigmoid(x) for x in xs)), *labels,
                                lambda_audio=0.7, lambda_visual=1.3)

        xs = [Tensor(x, requires_grad=True) for x in logits]
        batched = loss_of(xs, labels)
        batched.backward()
        per_record = []
        for i in range(b):
            xi = [Tensor(x[i], requires_grad=True) for x in logits]
            loss = loss_of(xi, [a[i] for a in labels])
            (loss * (1.0 / b)).backward(params=xi)  # an all-null record has no seg-a term
            per_record.append(loss.item())
            for x, x_alone in zip(xs, xi):
                np.testing.assert_allclose(x.grad[i], x_alone.grad, rtol=0, atol=1e-12)
        assert batched.item() == pytest.approx(np.mean(per_record), abs=1e-12)

    def test_batch_parameter_gradients_are_mean_of_records(self, rng):
        cfg = ModelConfig(n_segments=4, dim=8, n_classes=3, d_state=4,
                          d_audio_in=5, d_visual_in=7, text_dim=6)
        net = AVMambaNet(cfg, seed=2)
        params = net.parameters()
        audio, visual = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 4, 7))
        video_label = (rng.random((3, 3)) < 0.5).astype(float)
        pseudo = (rng.random((3, 4, 3)) < 0.3).astype(float)
        null = np.zeros((3, 4), dtype=bool)
        null[2] = True  # a record with no annotated segment
        pseudo[2] = 0.0
        args = (video_label, pseudo, pseudo, null, null)
        batched = compute_loss(net.forward(audio, visual), *args)
        batched.backward(params=params.values())
        grads = {name: p.grad.copy() for name, p in params.items()}
        net.reset_grads()
        mean = 0.0
        for i in range(3):
            loss = compute_loss(net.forward(audio[i], visual[i]), *(a[i] for a in args)) * (1 / 3)
            loss.backward(params=params.values())
            mean += loss.item()
            for name, p in params.items():
                grads[name] -= p.grad
            net.reset_grads()
        assert batched.item() == pytest.approx(mean, abs=1e-12)
        assert max(np.abs(g).max() for g in grads.values()) < 1e-12

    def test_gradient_flows(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = ModelOutputs(tt.sigmoid(x), tt.sigmoid(Tensor(rng.standard_normal((4, 3)))),
                           tt.sigmoid(Tensor(rng.standard_normal(3))))
        loss = compute_loss(out, np.array([1.0, 0.0, 1.0]), np.ones((4, 3)), None)
        loss.backward()
        assert x.grad is not None and np.abs(x.grad).max() > 0
