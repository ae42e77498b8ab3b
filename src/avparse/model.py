"""The audio-visual parsing network and its training loss.

Pipeline: input projections -> temporal-spatial attention per modality ->
cross-modal scan fusion (shared input-projection matrices, forward/backward/
dynamic branches) -> agreement-gated channel enhancement -> text-conditioned
scale/bias residual -> hybrid attention tail -> attentive MIL head.

Every stage is shape-preserving on ``[T, d]`` and can be structurally removed
for ablation studies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .data import check_binary_matrix
from .errors import (NON_NEGATIVE, POSITIVE, ConfigError, ShapeError, VocabularyError,
                     check_fields)
from .layers import MLP, LayerNorm, Linear, Module
from .ssm import (MambaBlock, SharedMatrixHandle, SsmParams, default_dt_rank,
                  selective_scan, selective_scan_backward, selective_scan_dynamic)
from .tensor import Tensor

AUDIO_PREFIX = "this is a sound of"
VISUAL_PREFIX = "A photo of"

AMF_MODES = ("full", "private", "off")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters; the defaults are the desk-scale configuration."""

    n_segments: int = 10
    dim: int = 64
    n_classes: int = 25
    d_state: int = 16
    expand: int = 2
    d_conv: int = 4
    d_audio_in: int = 64
    d_visual_in: int = 64
    text_dim: int = 64
    lambda_audio: float = 1.0
    lambda_visual: float = 1.0
    use_tsa: bool = True
    amf_mode: str = "full"
    use_mfe: bool = True
    use_plsim: bool = True

    def __post_init__(self):
        check_fields(self, POSITIVE, "n_segments", "dim", "n_classes", "d_state", "expand",
                     "d_conv", "d_audio_in", "d_visual_in", "text_dim")
        check_fields(self, NON_NEGATIVE, "lambda_audio", "lambda_visual")
        if self.amf_mode not in AMF_MODES:
            raise ConfigError(f"ModelConfig.amf_mode must be one of {AMF_MODES}, "
                              f"got {self.amf_mode!r}", field="amf_mode")

    @staticmethod
    def paper_scale() -> "ModelConfig":
        return ModelConfig(dim=512, text_dim=512, d_audio_in=128, d_visual_in=512)


@dataclass
class ModelOutputs:
    seg_prob_a: Tensor  # [T, C], strictly in (0, 1)
    seg_prob_v: Tensor
    video_prob: Tensor  # [C]
    diagnostics: dict = field(default_factory=dict)
    # each enabled stage's output in pipeline order, e.g. "tsa_out_a", "amf_mix"
    stages: dict[str, Tensor] = field(default_factory=dict)


# -- text stub -----------------------------------------------------------------


def text_vector(prefix: str, category: str, text_dim: int) -> np.ndarray:
    """Deterministic unit-norm embedding of one (prefix, category) caption."""
    digest = hashlib.sha256(f"{prefix} {category}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(text_dim)
    return v / np.linalg.norm(v)


def embed_label_sets(label_sets, modality: str, vocabulary, text_dim: int) -> np.ndarray:
    """Mean caption embedding per segment; empty label sets give zero vectors."""
    prefix = AUDIO_PREFIX if modality == "a" else VISUAL_PREFIX
    vocab = set(vocabulary)
    out = np.zeros((len(label_sets), text_dim))
    for t, labels in enumerate(label_sets):
        if not labels:
            continue
        for name in labels:
            if name not in vocab:
                raise VocabularyError(f"unknown category {name!r} in segment {t}")
            out[t] += text_vector(prefix, name, text_dim)
        out[t] /= len(labels)
    return out


def embed_pseudo_matrix(pseudo: np.ndarray, modality: str, vocabulary, text_dim: int) -> np.ndarray:
    sets = [[vocabulary[c] for c in np.flatnonzero(row)] for row in pseudo]
    return embed_label_sets(sets, modality, vocabulary, text_dim)


# -- blocks ----------------------------------------------------------------------


class TemporalSpatialAttention(Module):
    """Channel weights from segment-pooled features, then temporal weights
    from channel-pooled maps; both squashed to (0, 1) and applied in sequence."""

    def __init__(self, dim: int, rng: np.random.Generator, d_state: int, expand: int, d_conv: int):
        super().__init__()
        self.channel_block = self._child(
            "channel_block", MambaBlock(dim, rng, d_state=d_state, expand=expand, d_conv=d_conv))
        self.temporal_block = self._child(
            "temporal_block", MambaBlock(2, rng, d_state=d_state, expand=expand, d_conv=d_conv))
        self.temporal_proj = self._child("temporal_proj", Linear(2, 1, rng))

    def channel_weights(self, x: Tensor) -> Tensor:
        avg_c = tt.pool(x, axis=0, kind="avg")
        max_c = tt.pool(x, axis=0, kind="max")
        return tt.sigmoid(self.channel_block(avg_c) + self.channel_block(max_c))

    def temporal_weights(self, x: Tensor) -> Tensor:
        pooled = tt.concat([tt.pool(x, axis=1, kind="avg"), tt.pool(x, axis=1, kind="max")], axis=1)
        return tt.sigmoid(self.temporal_proj(self.temporal_block(pooled)))

    def __call__(self, x: Tensor) -> Tensor:
        refined = x * self.channel_weights(x)
        return refined * self.temporal_weights(refined)


class FusionStream(Module):
    """One modality's gated triple-scan branch inside the fusion block;
    ``handles`` holds the shared matrix of each branch (fwd, bwd, dyn)."""

    def __init__(self, dim: int, rng: np.random.Generator, d_state: int, expand: int,
                 d_conv: int, modality: str, handles: dict[str, SharedMatrixHandle]):
        super().__init__()
        d_inner = expand * dim
        self.d_inner = d_inner
        self.norm = self._child("norm", LayerNorm(dim))
        self.w_in_x = self._register("w_in_x", rng.standard_normal((dim, d_inner)) / np.sqrt(dim))
        self.w_in_z = self._register("w_in_z", rng.standard_normal((dim, d_inner)) / np.sqrt(dim))
        self.conv_w = self._register("conv_w", rng.standard_normal((d_conv, d_inner)) / np.sqrt(d_conv))
        self.conv_b = self._register("conv_b", np.zeros(d_inner))
        rank = default_dt_rank(dim)
        self.ssm_fwd = self._child("ssm_fwd", SsmParams(
            d_inner, d_state, rng, rank, shared=handles["fwd"], modality=modality))
        self.ssm_bwd = self._child("ssm_bwd", SsmParams(
            d_inner, d_state, rng, rank, shared=handles["bwd"], modality=modality))
        self.ssm_dyn = self._child("ssm_dyn", SsmParams(
            d_inner, d_state, rng, rank, shared=handles["dyn"], modality=modality))
        self.w_start = self._register("w_start", rng.standard_normal((d_inner, 1)) / np.sqrt(d_inner))
        self.b_start = self._register("b_start", np.zeros(1))
        self.w_out = self._register("w_out", rng.standard_normal((d_inner, dim)) / np.sqrt(d_inner))
        self.b_out = self._register("b_out", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        t_len = x.shape[0]
        u = self.norm(x)
        xm = tt.matmul(u, self.w_in_x)
        z = tt.matmul(u, self.w_in_z)
        xc = tt.silu(tt.conv1d_depthwise(xm, self.conv_w, self.conv_b))
        y_fwd = selective_scan(xc, self.ssm_fwd)
        y_bwd = selective_scan_backward(xc, self.ssm_bwd)
        logits = tt.reshape(tt.matmul(xc, self.w_start) + self.b_start, (t_len,))
        y_dyn = selective_scan_dynamic(xc, self.ssm_dyn, logits)
        fused = (y_fwd + y_bwd + y_dyn) * tt.silu(z)
        return tt.matmul(fused, self.w_out) + self.b_out + x


class CrossModalFusion(Module):
    """Dual-stream fusion: private scans with shared input-projection matrices
    per branch, plus a channel-concat mixed feature."""

    def __init__(self, dim: int, rng: np.random.Generator, d_state: int, expand: int,
                 d_conv: int, sharing_active: bool = True):
        super().__init__()
        d_inner = expand * dim
        self.handles = {
            name: self._child(f"shared_{name}", SharedMatrixHandle(
                d_inner, d_state, rng, active=sharing_active))
            for name in ("fwd", "bwd", "dyn")
        }
        self.stream_a = self._child("a", FusionStream(
            dim, rng, d_state, expand, d_conv, "a", self.handles))
        self.stream_v = self._child("v", FusionStream(
            dim, rng, d_state, expand, d_conv, "v", self.handles))
        self.mix_proj = self._child("mix", Linear(2 * dim, dim, rng))

    def set_sharing(self, active: bool) -> None:
        for handle in self.handles.values():
            handle.active = active

    def __call__(self, f_a: Tensor, f_v: Tensor):
        out_a = self.stream_a(f_a)
        out_v = self.stream_v(f_v)
        mix = self.mix_proj(tt.concat([out_a, out_v], axis=1))
        return out_a, out_v, mix


class PrivateScanPair(Module):
    """Ablation stand-in for the fusion block: one standard forward-scan
    block per modality running in parallel -- no shared matrices, no
    backward/dynamic branches, no mixed feature."""

    def __init__(self, dim: int, rng: np.random.Generator, d_state: int, expand: int, d_conv: int):
        super().__init__()
        self.a = self._child("a", MambaBlock(dim, rng, d_state=d_state, expand=expand, d_conv=d_conv))
        self.v = self._child("v", MambaBlock(dim, rng, d_state=d_state, expand=expand, d_conv=d_conv))

    def __call__(self, f_a: Tensor, f_v: Tensor):
        return self.a(f_a), self.v(f_v), None


class ChannelEnhancement(Module):
    """Amplify channels where the modalities agree: factor in (1, 2)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.p = self._child("p", Linear(dim, dim, rng))
        self.q = self._child("q", Linear(dim, dim, rng))

    def factors(self, f_a: Tensor, f_v: Tensor, f_mix: Tensor) -> Tensor:
        return 1.0 + tt.sigmoid(self.p(f_a * f_v) + self.q(f_mix))

    def __call__(self, f_a: Tensor, f_v: Tensor, f_mix: Tensor):
        e = self.factors(f_a, f_v, f_mix)
        return f_a * e, f_v * e


def film_residual(f: Tensor, scale: Tensor, bias: Tensor) -> Tensor:
    """Scale/bias conditioning with an identity residual: ``f*scale + bias + f``."""
    return f * scale + bias + f


class SemanticConditioning(Module):
    """Caption-conditioned scale/bias residual per modality.

    Four distinct two-layer MLPs map the text embedding to the audio scale,
    audio bias, visual scale and visual bias. Zeroing all of them makes the
    module an exact identity.
    """

    def __init__(self, dim: int, text_dim: int, rng: np.random.Generator):
        super().__init__()
        self.a_scale = self._child("a_scale", MLP(text_dim, dim, dim, rng))
        self.a_bias = self._child("a_bias", MLP(text_dim, dim, dim, rng))
        self.v_scale = self._child("v_scale", MLP(text_dim, dim, dim, rng))
        self.v_bias = self._child("v_bias", MLP(text_dim, dim, dim, rng))

    def fuse(self, f: Tensor, text: Tensor, scale_mlp: MLP, bias_mlp: MLP) -> Tensor:
        return film_residual(f, scale_mlp(text), bias_mlp(text))

    def __call__(self, f_a: Tensor, f_v: Tensor, text_a: Tensor, text_v: Tensor):
        out_a = self.fuse(f_a, text_a, self.a_scale, self.a_bias)
        out_v = self.fuse(f_v, text_v, self.v_scale, self.v_bias)
        return out_a, out_v


class Attention(Module):
    """Single-head scaled dot-product attention with learned q/k/v maps."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.wq = self._child("wq", Linear(dim, dim, rng))
        self.wk = self._child("wk", Linear(dim, dim, rng))
        self.wv = self._child("wv", Linear(dim, dim, rng))

    def __call__(self, queries: Tensor, keys_values: Tensor) -> tuple[Tensor, Tensor]:
        q = self.wq(queries)
        k = self.wk(keys_values)
        v = self.wv(keys_values)
        scores = tt.matmul(q, tt.transpose(k)) * (1.0 / np.sqrt(self.dim))
        weights = tt.softmax(scores, axis=1)
        return tt.matmul(weights, v), weights


class HybridAttention(Module):
    """Residual self- plus cross-attention, one layer per modality."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.self_a = self._child("self_a", Attention(dim, rng))
        self.cross_a = self._child("cross_a", Attention(dim, rng))
        self.self_v = self._child("self_v", Attention(dim, rng))
        self.cross_v = self._child("cross_v", Attention(dim, rng))

    def __call__(self, f_a: Tensor, f_v: Tensor):
        g_a = f_a + self.self_a(f_a, f_a)[0] + self.cross_a(f_a, f_v)[0]
        g_v = f_v + self.self_v(f_v, f_v)[0] + self.cross_v(f_v, f_a)[0]
        return g_a, g_v


class MILHead(Module):
    """Shared segment classifier with per-class temporal attention and a
    two-way modality attention pooled into one video-level probability."""

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator):
        super().__init__()
        # small head init keeps untrained outputs near 0.5 / uniform attention
        self.classifier = self._child("classifier", Linear(dim, n_classes, rng, init_scale=0.1))
        self.time_score = self._child("time_score", Linear(dim, n_classes, rng, init_scale=0.1))
        self.mod_score = self._child("mod_score", Linear(dim, n_classes, rng, init_scale=0.1))

    def __call__(self, g_a: Tensor, g_v: Tensor) -> ModelOutputs:
        prob_a = tt.sigmoid(self.classifier(g_a))
        prob_v = tt.sigmoid(self.classifier(g_v))
        w_time_a = tt.softmax(self.time_score(g_a), axis=0)
        w_time_v = tt.softmax(self.time_score(g_v), axis=0)
        mod_logits = tt.concat([
            self.mod_score(tt.pool(g_a, axis=0, kind="avg")),
            self.mod_score(tt.pool(g_v, axis=0, kind="avg")),
        ], axis=0)
        w_mod = tt.softmax(mod_logits, axis=0)  # [2, C]
        pooled = tt.concat([
            tt.tsum(w_time_a * prob_a, axis=0, keepdims=True),
            tt.tsum(w_time_v * prob_v, axis=0, keepdims=True),
        ], axis=0)
        video_prob = tt.tsum(w_mod * pooled, axis=0)
        diagnostics = {
            "w_time_a": w_time_a.data.copy(),
            "w_time_v": w_time_v.data.copy(),
            "w_mod": w_mod.data.copy(),
        }
        return ModelOutputs(prob_a, prob_v, video_prob, diagnostics)


# -- the full network -------------------------------------------------------------


class AVMambaNet(Module):
    """End-to-end parser; deterministic given (config, seed)."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        d = config.dim
        self.proj_a = self._child("proj_a", Linear(config.d_audio_in, d, rng))
        self.proj_v = self._child("proj_v", Linear(config.d_visual_in, d, rng))
        if config.use_tsa:
            self.tsa_a = self._child("tsa_a", TemporalSpatialAttention(
                d, rng, config.d_state, config.expand, config.d_conv))
            self.tsa_v = self._child("tsa_v", TemporalSpatialAttention(
                d, rng, config.d_state, config.expand, config.d_conv))
        if config.amf_mode == "full":
            self.amf = self._child("amf", CrossModalFusion(
                d, rng, config.d_state, config.expand, config.d_conv))
        elif config.amf_mode == "private":
            self.amf = self._child("amf", PrivateScanPair(
                d, rng, config.d_state, config.expand, config.d_conv))
        if config.use_mfe:
            self.mfe = self._child("mfe", ChannelEnhancement(d, rng))
        if config.use_plsim:
            self.plsim = self._child("plsim", SemanticConditioning(d, config.text_dim, rng))
        self.han = self._child("han", HybridAttention(d, rng))
        self.mmil = self._child("mmil", MILHead(d, config.n_classes, rng))

    def _check_inputs(self, audio: np.ndarray, visual: np.ndarray,
                      text_a: np.ndarray | None, text_v: np.ndarray | None) -> None:
        cfg = self.config
        t = cfg.n_segments
        if audio.shape != (t, cfg.d_audio_in):
            raise ShapeError(f"audio features must be [{t}, {cfg.d_audio_in}], got {audio.shape}")
        if visual.shape != (t, cfg.d_visual_in):
            raise ShapeError(f"visual features must be [{t}, {cfg.d_visual_in}], got {visual.shape}")
        for name, text in (("audio", text_a), ("visual", text_v)):
            if text is not None and text.shape != (t, cfg.text_dim):
                raise ShapeError(f"{name} text embedding must be [{t}, {cfg.text_dim}], got {text.shape}")

    def forward(self, audio: np.ndarray, visual: np.ndarray,
                text_a: np.ndarray | None = None, text_v: np.ndarray | None = None) -> ModelOutputs:
        cfg = self.config
        audio = np.asarray(audio, dtype=np.float64)
        visual = np.asarray(visual, dtype=np.float64)
        self._check_inputs(audio, visual, text_a, text_v)
        stages: dict[str, Tensor] = {}
        t = cfg.n_segments

        f_a = self.proj_a(Tensor(audio))
        f_v = self.proj_v(Tensor(visual))
        if cfg.use_tsa:
            f_a = self.tsa_a(f_a)
            f_v = self.tsa_v(f_v)
            stages.update(tsa_out_a=f_a, tsa_out_v=f_v)
        mix = None
        if cfg.amf_mode != "off":
            f_a, f_v, mix = self.amf(f_a, f_v)
            stages.update(amf_out_a=f_a, amf_out_v=f_v)
            if mix is not None:
                stages["amf_mix"] = mix
        if cfg.use_mfe:
            if mix is None:
                mix = tt.zeros((t, cfg.dim))
            f_a, f_v = self.mfe(f_a, f_v, mix)
            stages.update(mfe_out_a=f_a, mfe_out_v=f_v)
        if cfg.use_plsim:
            ta = Tensor(text_a if text_a is not None else np.zeros((t, cfg.text_dim)))
            tv = Tensor(text_v if text_v is not None else np.zeros((t, cfg.text_dim)))
            f_a, f_v = self.plsim(f_a, f_v, ta, tv)
            stages.update(plsim_out_a=f_a, plsim_out_v=f_v)
        g_a, g_v = self.han(f_a, f_v)
        outputs = self.mmil(g_a, g_v)
        outputs.stages = stages
        return outputs


# -- loss ---------------------------------------------------------------------------

BCE_EPS = 1e-7


def _bce_mean(prob: Tensor, target: np.ndarray, mask: np.ndarray | None = None) -> Tensor | None:
    """Mean binary cross-entropy; ``mask`` marks segment rows that count."""
    if mask is not None:
        count = float(mask.sum()) * target.shape[1]
        if count == 0:
            return None
    else:
        count = float(target.size)
    p = tt.clamp(prob, BCE_EPS, 1.0 - BCE_EPS)
    y = Tensor(target)
    terms = y * tt.log(p) + (1.0 - y) * tt.log(1.0 - p)
    if mask is not None:
        terms = terms * Tensor(mask[:, None])
    return tt.tsum(terms) * (-1.0 / count)


def compute_loss(outputs: ModelOutputs, video_label: np.ndarray,
                 pseudo_a: np.ndarray | None = None, pseudo_v: np.ndarray | None = None,
                 null_a: np.ndarray | None = None, null_v: np.ndarray | None = None,
                 lambda_audio: float = 1.0, lambda_visual: float = 1.0) -> Tensor:
    """Video-level BCE plus masked segment-level BCE against pseudo-labels.

    Segments flagged unannotated (``null_*`` true) are excluded from the
    corresponding pseudo term.
    """
    video_label = check_binary_matrix(video_label, "video label")
    loss = _bce_mean(tt.reshape(outputs.video_prob, (1, video_label.size)),
                     video_label.reshape(1, -1))
    for prob, pseudo, null, weight in (
        (outputs.seg_prob_a, pseudo_a, null_a, lambda_audio),
        (outputs.seg_prob_v, pseudo_v, null_v, lambda_visual),
    ):
        if pseudo is None or weight == 0.0:
            continue
        pseudo = check_binary_matrix(pseudo, "pseudo label")
        mask = np.ones(pseudo.shape[0]) if null is None else 1.0 - np.asarray(null, dtype=np.float64)
        term = _bce_mean(prob, pseudo, mask)
        if term is not None:
            loss = loss + term * weight
    return loss
