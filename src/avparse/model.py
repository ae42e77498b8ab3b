"""The audio-visual parsing network and its training loss.

Pipeline: input projections -> temporal-spatial attention per modality ->
cross-modal scan fusion (shared input-projection matrices, forward/backward/
dynamic branches) -> agreement-gated channel enhancement -> text-conditioned
scale/bias residual -> hybrid attention tail -> attentive MIL head.

Every stage is shape-preserving on ``[..., T, d]``: one record is ``[T, d]``
and a batch ``[B, T, d]``, run by the same code, and each record of a batch
gets the bits it gets alone. From the text-conditioned stage on (the
hybrid attention when it is off), the two modalities are one stream of
``[..., 2, T, d]``, audio first, and each per-modality map runs once on it.
Every stage can be structurally removed for ablation studies.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .data import check_binary_matrix
from .errors import (NON_NEGATIVE, POSITIVE, ConfigError, ShapeError, VocabularyError,
                     check_fields)
from .layers import MLP, Linear, Module, Stack, normal_init
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
    seg_prob_a: Tensor  # [..., T, C], strictly in (0, 1)
    seg_prob_v: Tensor
    video_prob: Tensor  # [..., C]
    diagnostics: dict = field(default_factory=dict)
    # each enabled stage's output in pipeline order, e.g. "tsa_out_a", "amf_mix"
    stages: dict[str, Tensor] = field(default_factory=dict)

    def record(self, i: int) -> "ModelOutputs":
        """Record ``i`` of a batched forward: its three probabilities only,
        outside any graph."""
        return ModelOutputs(Tensor(self.seg_prob_a.data[i]), Tensor(self.seg_prob_v.data[i]),
                            Tensor(self.video_prob.data[i]))


# -- text stub -----------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def text_vector(prefix: str, category: str, text_dim: int) -> np.ndarray:
    """Deterministic unit-norm embedding of one (prefix, category) caption.

    Memoized: every caller gets the same read-only array.
    """
    digest = hashlib.sha256(f"{prefix} {category}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(text_dim)
    v = v / np.linalg.norm(v)
    v.flags.writeable = False
    return v


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


@functools.lru_cache(maxsize=64)
def _caption_table(modality: str, vocabulary: tuple, text_dim: int) -> np.ndarray:
    """Read-only ``[C, text_dim]`` caption embeddings of ``vocabulary``, one
    row per class, memoized."""
    prefix = AUDIO_PREFIX if modality == "a" else VISUAL_PREFIX
    table = np.stack([text_vector(prefix, name, text_dim) for name in vocabulary])
    table.flags.writeable = False
    return table


def embed_pseudo_matrix(pseudo: np.ndarray, modality: str, vocabulary, text_dim: int) -> np.ndarray:
    """``embed_label_sets`` of each row's nonzero classes, bit for bit.

    Each class present, in ascending order, adds its caption row to the
    segments that carry it, then each labelled row is divided by its label
    count: per row, the oracle's additions in the oracle's order."""
    on = np.asarray(pseudo) != 0
    if on.ndim != 2 or on.shape[1] != len(vocabulary):
        raise ShapeError(f"pseudo matrix must be [T, {len(vocabulary)}], got {list(on.shape)}")
    table = _caption_table(modality, tuple(vocabulary), text_dim)
    out = np.zeros((len(on), text_dim))
    for c in np.flatnonzero(on.any(axis=0)):
        out[on[:, c]] += table[c]
    counts = on.sum(axis=1)
    labelled = counts > 0
    out[labelled] /= counts[labelled, None]
    return out


# -- blocks ----------------------------------------------------------------------


class TemporalSpatialAttention(Module):
    """Channel weights from segment-pooled features, then temporal weights
    from channel-pooled maps; both squashed to (0, 1) and applied in sequence.
    The channel block runs once, on the ``n`` records' avg and max pools
    stacked as ``2n`` one-segment records, and its two halves are summed."""

    def __init__(self, dim: int, rng: np.random.Generator | None, d_state: int, expand: int,
                 d_conv: int):
        super().__init__()
        self.channel_block = self._child(
            "channel_block", MambaBlock(dim, rng, d_state=d_state, expand=expand, d_conv=d_conv))
        self.temporal_block = self._child(
            "temporal_block", MambaBlock(2, rng, d_state=d_state, expand=expand, d_conv=d_conv))
        self.temporal_proj = self._child("temporal_proj", Linear(2, 1, rng))

    def channel_weights(self, x: Tensor) -> Tensor:
        lead, d = x.shape[:-2], x.shape[-1]
        pools = [tt.reshape(tt.pool(x, axis=-2, kind=kind), (int(np.prod(lead)), 1, d))
                 for kind in ("avg", "max")]
        both = self.channel_block(tt.concat(pools, axis=0))  # [2n, 1, d]
        return tt.sigmoid(tt.tsum(tt.reshape(both, (2, *lead, 1, d)), axis=0))

    def temporal_weights(self, x: Tensor) -> Tensor:
        pooled = tt.concat([tt.pool(x, axis=-1, kind="avg"), tt.pool(x, axis=-1, kind="max")],
                           axis=-1)
        return tt.sigmoid(self.temporal_proj(self.temporal_block(pooled)))

    def __call__(self, x: Tensor) -> Tensor:
        refined = x * self.channel_weights(x)
        return refined * self.temporal_weights(refined)


class FusionStream(MambaBlock):
    """One modality's gated block in the fusion block: its scan is the sum of a
    forward, a backward and a dynamic scan, whose shared matrices are in
    ``handles`` (fwd, bwd, dyn)."""

    def __init__(self, dim: int, rng: np.random.Generator | None, d_state: int, expand: int,
                 d_conv: int, modality: str, handles: dict[str, SharedMatrixHandle]):
        self.modality = modality
        self.handles = handles
        super().__init__(dim, rng, d_state=d_state, expand=expand, d_conv=d_conv)

    def _register_scan(self, rng: np.random.Generator | None, d_state: int) -> None:
        d_inner, rank = self.d_inner, default_dt_rank(self.d_model)
        self.ssm_fwd, self.ssm_bwd, self.ssm_dyn = (  # drawn in this order
            self._child(f"ssm_{branch}", SsmParams(d_inner, d_state, rng, rank,
                                                   shared=self.handles[branch],
                                                   modality=self.modality))
            for branch in ("fwd", "bwd", "dyn"))
        self.w_start = self._register("w_start", normal_init(rng, (d_inner, 1)))
        self.b_start = self._register("b_start", np.zeros(1))

    def _scan(self, xc: Tensor) -> Tensor:
        y_fwd = selective_scan(xc, self.ssm_fwd)
        y_bwd = selective_scan_backward(xc, self.ssm_bwd)
        logits = tt.reshape(tt.affine(xc, self.w_start, self.b_start), xc.shape[:-1])
        y_dyn = selective_scan_dynamic(xc, self.ssm_dyn, logits)
        return y_fwd + y_bwd + y_dyn


class CrossModalFusion(Module):
    """Dual-stream fusion: private scans with shared input-projection matrices
    per branch, plus a channel-concat mixed feature."""

    def __init__(self, dim: int, rng: np.random.Generator | None, d_state: int, expand: int,
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
        mix = self.mix_proj(tt.concat([out_a, out_v], axis=-1))
        return out_a, out_v, mix


class PrivateScanPair(Module):
    """Ablation stand-in for the fusion block: one standard forward-scan
    block per modality running in parallel -- no shared matrices, no
    backward/dynamic branches, no mixed feature."""

    def __init__(self, dim: int, rng: np.random.Generator | None, d_state: int, expand: int,
                 d_conv: int):
        super().__init__()
        self.a = self._child("a", MambaBlock(dim, rng, d_state=d_state, expand=expand, d_conv=d_conv))
        self.v = self._child("v", MambaBlock(dim, rng, d_state=d_state, expand=expand, d_conv=d_conv))

    def __call__(self, f_a: Tensor, f_v: Tensor):
        return self.a(f_a), self.v(f_v), None


class ChannelEnhancement(Module):
    """Amplify channels where the modalities agree: factor in (1, 2)."""

    def __init__(self, dim: int, rng: np.random.Generator | None):
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
    """Caption-conditioned scale/bias residual per modality, on features
    ``f`` and caption embeddings ``text`` stacked as ``[..., 2, T, d]`` and
    ``[..., 2, T, text_dim]`` (audio first).

    Four distinct two-layer MLPs map the text embedding to the audio scale,
    audio bias, visual scale and visual bias. The two scale MLPs run as one
    stacked MLP (:class:`~avparse.layers.Stack`), and so do the two bias
    MLPs. Zeroing all of them makes the module an exact identity.
    """

    def __init__(self, dim: int, text_dim: int, rng: np.random.Generator | None):
        super().__init__()
        self.a_scale = self._child("a_scale", MLP(text_dim, dim, dim, rng))
        self.a_bias = self._child("a_bias", MLP(text_dim, dim, dim, rng))
        self.v_scale = self._child("v_scale", MLP(text_dim, dim, dim, rng))
        self.v_bias = self._child("v_bias", MLP(text_dim, dim, dim, rng))
        self.scale = Stack(self.a_scale, self.v_scale)
        self.bias = Stack(self.a_bias, self.v_bias)

    def __call__(self, f: Tensor, text: Tensor) -> Tensor:
        return film_residual(f, self.scale(text), self.bias(text))


class Attention(Module):
    """Single-head scaled dot-product attention with learned q/k/v maps."""

    def __init__(self, dim: int, rng: np.random.Generator | None):
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
        weights = tt.softmax(scores, axis=-1)
        return tt.matmul(weights, v), weights


class HybridAttention(Module):
    """Residual self- plus cross-attention, one layer per modality, on
    features stacked as ``[..., 2, T, d]`` (audio first):
    ``g_m = f_m + self_m(f_m, f_m) + cross_m(f_m, f_other)``.

    The two self-attentions run as one stacked attention
    (:class:`~avparse.layers.Stack`), and so do the two cross-attentions,
    whose keys and values are the modality axis reversed.
    """

    def __init__(self, dim: int, rng: np.random.Generator | None):
        super().__init__()
        self.self_a = self._child("self_a", Attention(dim, rng))
        self.cross_a = self._child("cross_a", Attention(dim, rng))
        self.self_v = self._child("self_v", Attention(dim, rng))
        self.cross_v = self._child("cross_v", Attention(dim, rng))
        self.self_attn = Stack(self.self_a, self.self_v)
        self.cross_attn = Stack(self.cross_a, self.cross_v)

    def __call__(self, f: Tensor) -> Tensor:
        return f + self.self_attn(f, f)[0] + self.cross_attn(f, tt.reverse(f, axis=-3))[0]


class MILHead(Module):
    """Shared segment classifier with per-class temporal attention and a
    two-way modality attention pooled into one video-level probability.
    It takes the features stacked on a modality axis, ``[..., 2, T, d]``
    (audio first), so each linear map runs once and the modality softmax and
    sum run along it."""

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator | None):
        super().__init__()
        # small head init keeps untrained outputs near 0.5 / uniform attention
        self.classifier = self._child("classifier", Linear(dim, n_classes, rng, init_scale=0.1))
        self.time_score = self._child("time_score", Linear(dim, n_classes, rng, init_scale=0.1))
        self.mod_score = self._child("mod_score", Linear(dim, n_classes, rng, init_scale=0.1))

    def __call__(self, g: Tensor) -> ModelOutputs:
        prob = tt.sigmoid(self.classifier(g))  # [..., 2, T, C]
        w_time = tt.softmax(self.time_score(g), axis=-2)
        w_mod = tt.softmax(self.mod_score(tt.pool(g, axis=-2, kind="avg")), axis=-3)
        pooled = tt.tsum(w_time * prob, axis=-2, keepdims=True)  # [..., 2, 1, C], as w_mod
        video_prob = tt.tsum(w_mod * pooled, axis=(-3, -2))
        seg_shape = (*g.shape[:-3], *prob.shape[-2:])
        prob_a, prob_v = (tt.reshape(tt.narrow(prob, -3, m, 1), seg_shape) for m in (0, 1))
        # views of the forward's own arrays; w_mod is [..., 2, C]
        diagnostics = {"w_time_a": w_time.data[..., 0, :, :], "w_time_v": w_time.data[..., 1, :, :],
                       "w_mod": w_mod.data[..., 0, :]}
        return ModelOutputs(prob_a, prob_v, video_prob, diagnostics)


# -- the full network -------------------------------------------------------------


class AVMambaNet(Module):
    """End-to-end parser; deterministic given (config, seed).

    The net owns ``store``, one flat float64 array holding every parameter in
    :meth:`parameters` order (the checkpoint order); each parameter's
    ``data`` is a view of it. The seeded init draws each parameter in
    construction order and is then packed into the store. With
    ``seed=None`` nothing is drawn and the store is left uninitialised, for
    ``load_model`` to read a checkpoint into.
    """

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        super().__init__()
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
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
        self.store = tt.pack(self.parameters().values(), keep_values=rng is not None)

    def _check_inputs(self, audio: np.ndarray, visual: np.ndarray,
                      text_a: np.ndarray | None, text_v: np.ndarray | None) -> tuple[int, ...]:
        """The batch shape: ``()`` for one ``[T, d]`` record, ``(B,)`` for a
        ``[B, T, d]`` batch."""
        cfg = self.config
        if audio.ndim not in (2, 3):
            raise ShapeError(f"audio features must be [T, d] or [B, T, d], got {list(audio.shape)}")
        lead = audio.shape[:-2]
        for name, values, width in (("audio features", audio, cfg.d_audio_in),
                                    ("visual features", visual, cfg.d_visual_in),
                                    ("audio text embedding", text_a, cfg.text_dim),
                                    ("visual text embedding", text_v, cfg.text_dim)):
            want = (*lead, cfg.n_segments, width)
            if values is not None and values.shape != want:
                raise ShapeError(f"{name} must be {list(want)}, got {list(values.shape)}")
        return lead

    def forward(self, audio: np.ndarray, visual: np.ndarray,
                text_a: np.ndarray | None = None, text_v: np.ndarray | None = None) -> ModelOutputs:
        """One record (``[T, d_in]`` inputs) or a batch (``[B, T, d_in]``)."""
        cfg = self.config
        audio = np.asarray(audio, dtype=np.float64)
        visual = np.asarray(visual, dtype=np.float64)
        lead = self._check_inputs(audio, visual, text_a, text_v)
        stages: dict[str, Tensor] = {}
        t = (*lead, cfg.n_segments)

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
                mix = tt.zeros((*t, cfg.dim))
            f_a, f_v = self.mfe(f_a, f_v, mix)
            stages.update(mfe_out_a=f_a, mfe_out_v=f_v)
        stacked = (*lead, 1, cfg.n_segments, cfg.dim)
        f = tt.concat([tt.reshape(f_a, stacked), tt.reshape(f_v, stacked)], axis=-3)
        if cfg.use_plsim:
            text = np.stack([x if x is not None else np.zeros((*t, cfg.text_dim))
                             for x in (text_a, text_v)], axis=-3)
            f = self.plsim(f, Tensor(text))
            # the halves, outside the graph
            stages.update(plsim_out_a=Tensor(f.data[..., 0, :, :]),
                          plsim_out_v=Tensor(f.data[..., 1, :, :]))
        outputs = self.mmil(self.han(f))
        outputs.stages = stages
        return outputs


# -- loss ---------------------------------------------------------------------------

BCE_EPS = 1e-7


def _bce_sums(prob: Tensor, target: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Per-record sums of binary cross-entropy terms, as one node: ``prob``
    is ``[B, n]`` or ``[B, T, C]``; ``mask`` (``[B, T]``) marks segment rows
    that count. Probabilities are clamped to ``[BCE_EPS, 1 - BCE_EPS]``,
    and no gradient flows through a clamped entry."""
    lo, hi = BCE_EPS, 1.0 - BCE_EPS
    p = np.clip(prob.data, lo, hi)
    y = np.asarray(target, dtype=np.float64)
    not_y, not_p = 1.0 - y, 1.0 - p
    weight = None if mask is None else np.asarray(mask, dtype=np.float64)[..., None]
    terms = y * np.log(p) + not_y * np.log(not_p)
    if weight is not None:
        terms = terms * weight
    batch = terms.shape[0]

    def backward(g):
        gp = y / p - not_y / not_p
        gp *= g.reshape((batch,) + (1,) * (gp.ndim - 1))
        if weight is not None:
            gp *= weight
        gp *= (prob.data > lo) & (prob.data < hi)
        prob._accumulate(gp, owned=True)

    return tt._make(terms.reshape(batch, -1).sum(axis=1), (prob,), backward)


def compute_loss(outputs: ModelOutputs, video_label: np.ndarray,
                 pseudo_a: np.ndarray | None = None, pseudo_v: np.ndarray | None = None,
                 null_a: np.ndarray | None = None, null_v: np.ndarray | None = None,
                 lambda_audio: float = 1.0, lambda_visual: float = 1.0) -> Tensor:
    """Video-level BCE plus masked segment-level BCE against pseudo-labels,
    averaged over the records of a batch.

    ``outputs`` is one record's (labels ``[C]``, ``[T, C]``, ``[T]``) or a
    batch's (labels with a leading ``[B]`` axis). Each record's BCE means are
    over its own cells: segments flagged unannotated (``null_*`` true) are
    excluded from the corresponding pseudo term, and a record with no
    annotated segment has no pseudo term.
    """
    lead, (t, c) = outputs.seg_prob_a.shape[:-2], outputs.seg_prob_a.shape[-2:]
    batch = int(np.prod(lead))  # 1 for one record
    video_label = check_binary_matrix(video_label, "video label", (*lead, c))
    loss = _bce_sums(tt.reshape(outputs.video_prob, (batch, c)),
                     video_label.reshape(batch, c)) * (-1.0 / c)
    for prob, pseudo, null, weight in (
        (outputs.seg_prob_a, pseudo_a, null_a, lambda_audio),
        (outputs.seg_prob_v, pseudo_v, null_v, lambda_visual),
    ):
        if pseudo is None or weight == 0.0:
            continue
        pseudo = check_binary_matrix(pseudo, "pseudo label", (*lead, t, c))
        keep = (np.ones((batch, t)) if null is None
                else 1.0 - np.asarray(null, dtype=np.float64).reshape(batch, t))
        counts = keep.sum(axis=1) * c
        if not counts.any():
            continue
        scale = np.divide(-1.0, counts, out=np.zeros(batch), where=counts > 0)
        sums = _bce_sums(tt.reshape(prob, (batch, t, c)), pseudo.reshape(batch, t, c), keep)
        loss = loss + sums * Tensor(scale) * weight
    return tt.tsum(loss) * (1.0 / batch)
