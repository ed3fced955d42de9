"""The fusion network: auxiliary branch encoders, a shallow self-attention
stack on the primary (audio) stream, deep layers that attend into the
auxiliary streams and gate the two augmented results, a shared encoder for
cross-modal embeddings, and a classifier head.

Audio is the primary stream: every layer of the primary stack maps
[T_a x d] -> [T_a x d] regardless of auxiliary sequence lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError
from .layers import Attention, Gru, LayerNorm, Linear, LvcBlock
from .rng import Prng
from .tensor import Tensor

MODALITIES = ("a", "t", "v")

FUSION_MODES = ("per_layer", "concat")


def gated_fuse(first: Tensor, second: Tensor, gate: Linear):
    """Convex per-channel mix of two augmented streams.

    Gate values are sigmoid(gate(first (+) second)), so the result lies
    elementwise between the two inputs. Returns (fused, gate_values).
    """
    if first.shape != second.shape:
        raise ShapeError(f"gated_fuse: shapes {list(first.shape)} and {list(second.shape)} differ")
    gate_vals = gate(T.concat([first, second], axis=-1)).sigmoid()
    fused = gate_vals * first + (gate_vals.scale(-1.0) + 1.0) * second
    return fused, gate_vals


class FeedForward:
    """Two linear maps with tanh between, inner width 4d."""

    def __init__(self, d: int, rng: Prng, dtype=np.float64):
        self.inner = Linear(d, 4 * d, rng.child(0), dtype)
        self.outer = Linear(4 * d, d, rng.child(1), dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.outer(self.inner(x).tanh())

    def named_parameters(self, prefix: str):
        return (self.inner.named_parameters(f"{prefix}.inner")
                + self.outer.named_parameters(f"{prefix}.outer"))


class TransformerEncoderLayer:
    """Self-attention + feed-forward, residuals and layer norm after each."""

    def __init__(self, d: int, heads: int, rng: Prng, dtype=np.float64):
        self.attn = Attention(d, heads, rng.child(0), dtype)
        self.norm_attn = LayerNorm(d, dtype)
        self.ff = FeedForward(d, rng.child(1), dtype)
        self.norm_ff = LayerNorm(d, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.norm_attn(x + self.attn(x))
        return self.norm_ff(h + self.ff(h))

    def named_parameters(self, prefix: str):
        return (self.attn.named_parameters(f"{prefix}.attn")
                + self.norm_attn.named_parameters(f"{prefix}.norm_attn")
                + self.ff.named_parameters(f"{prefix}.ff")
                + self.norm_ff.named_parameters(f"{prefix}.norm_ff"))


@dataclass
class DeepLayerTrace:
    """Intermediates of one deep layer pass (None where a branch was absent)."""
    text_stream: Tensor | None
    visual_stream: Tensor | None
    gate: Tensor | None
    fused: Tensor
    output: Tensor


class GatedCrossModalLayer:
    """Modified transformer layer: the self-attention is replaced by two
    cross-modal attentions (queries from the primary stream, keys/values from
    text and visual respectively) whose results are blended by a learned
    per-channel gate before the usual feed-forward."""

    def __init__(self, d: int, heads: int, rng: Prng, dtype=np.float64):
        self.attn_text = Attention(d, heads, rng.child(0), dtype)
        self.norm_text = LayerNorm(d, dtype)
        self.attn_vis = Attention(d, heads, rng.child(1), dtype)
        self.norm_vis = LayerNorm(d, dtype)
        self.gate = Linear(2 * d, d, rng.child(2), dtype)
        self.ff = FeedForward(d, rng.child(3), dtype)
        self.norm_ff = LayerNorm(d, dtype)

    def cross_text(self, x: Tensor, ctx: Tensor) -> Tensor:
        return self.norm_text(x + self.attn_text(x, ctx))

    def cross_visual(self, x: Tensor, ctx: Tensor) -> Tensor:
        return self.norm_vis(x + self.attn_vis(x, ctx))

    def __call__(self, x: Tensor, aux_text: Tensor | None, aux_vis: Tensor | None):
        text_aug = self.cross_text(x, aux_text) if aux_text is not None else None
        vis_aug = self.cross_visual(x, aux_vis) if aux_vis is not None else None
        gate_vals = None
        if text_aug is not None and vis_aug is not None:
            fused, gate_vals = gated_fuse(text_aug, vis_aug, self.gate)
        elif text_aug is not None:
            fused = text_aug
        elif vis_aug is not None:
            fused = vis_aug
        else:
            # no auxiliaries: degrade to a plain self-attention layer
            fused = self.cross_text(x, x)
        out = self.norm_ff(fused + self.ff(fused))
        return out, DeepLayerTrace(text_aug, vis_aug, gate_vals, fused, out)

    def named_parameters(self, prefix: str):
        return (self.attn_text.named_parameters(f"{prefix}.attn_text")
                + self.norm_text.named_parameters(f"{prefix}.norm_text")
                + self.attn_vis.named_parameters(f"{prefix}.attn_vis")
                + self.norm_vis.named_parameters(f"{prefix}.norm_vis")
                + self.gate.named_parameters(f"{prefix}.gate")
                + self.ff.named_parameters(f"{prefix}.ff")
                + self.norm_ff.named_parameters(f"{prefix}.norm_ff"))


@dataclass
class FusionTrace:
    """Every intermediate of one forward pass, for inspection and testing."""
    mask: tuple
    branch: dict = field(default_factory=dict)        # modality -> encoded sequence
    deep: list = field(default_factory=list)          # DeepLayerTrace per deep layer
    fused_seq: Tensor | None = None                   # final primary-stream sequence
    fused_pooled: Tensor | None = None                # [1 x d] vector fed to the classifier
    pooled: dict = field(default_factory=dict)        # modality -> pooled branch vector
    shared: dict = field(default_factory=dict)        # modality -> shared-encoder embedding
    logits: Tensor | None = None                      # [1 x c]

    def predicted_class(self) -> int:
        return int(np.argmax(self.logits.data))

    def all_values(self):
        """Yield (name, array) for every recorded tensor."""
        for m, t in self.branch.items():
            yield f"branch.{m}", t.data
        for i, tr in enumerate(self.deep):
            for name in ("text_stream", "visual_stream", "gate", "fused", "output"):
                t = getattr(tr, name)
                if t is not None:
                    yield f"deep.{i}.{name}", t.data
        for name in ("fused_seq", "fused_pooled", "logits"):
            t = getattr(self, name)
            if t is not None:
                yield name, t.data
        for m, t in self.pooled.items():
            yield f"pooled.{m}", t.data
        for m, t in self.shared.items():
            yield f"shared.{m}", t.data


def _mean_pool(x: Tensor) -> Tensor:
    """Mean over time: [T x d] -> [1 x d]."""
    t_len = x.shape[0]
    ones = Tensor(np.full((1, t_len), 1.0 / t_len, dtype=x.data.dtype))
    return ones @ x


class WavFusionModel:
    """Gated cross-modal fusion network over up to three modalities.

    ``feature_dims`` maps each available modality ("a", "t", "v") to its raw
    feature width; branches are built only for those. A model instance is
    exclusively owned during a training step; concurrent evaluation requires
    deep-copied parameters.
    """

    def __init__(self, num_classes: int, feature_dims: dict, d: int = 64, heads: int = 4,
                 n_shallow: int = 9, n_deep: int = 3, lvc_centers: int = 8,
                 conv_kernel: int = 3, lvc_enabled: bool = True, fusion_mode: str = "per_layer",
                 seed: int = 0, dtype=np.float64):
        if num_classes < 2:
            raise ConfigError(f"need at least 2 classes; got {num_classes}")
        if fusion_mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion mode {fusion_mode!r}")
        if fusion_mode == "concat" and n_deep != 0:
            raise ConfigError("concat fusion is the zero-deep-layer baseline; set n_deep=0")
        if fusion_mode == "concat" and set(feature_dims) != set(MODALITIES):
            raise ConfigError("concat fusion needs all three modalities")
        unknown = set(feature_dims) - set(MODALITIES)
        if unknown:
            raise ConfigError(f"unknown modalities {sorted(unknown)}")
        if n_shallow < 0 or n_deep < 0 or n_shallow + n_deep < 1:
            raise ConfigError(f"need at least one layer; got shallow={n_shallow} deep={n_deep}")

        self.num_classes = num_classes
        self.feature_dims = dict(feature_dims)
        self.d = d
        self.heads = heads
        self.n_shallow = n_shallow
        self.n_deep = n_deep
        self.lvc_enabled = lvc_enabled
        self.fusion_mode = fusion_mode
        self.dtype = dtype

        rng = Prng(seed)
        if "a" in feature_dims:
            self.audio_proj = Linear(feature_dims["a"], d, rng.child(0), dtype)
        if "t" in feature_dims:
            r = rng.child(1)
            self.text_gru = Gru(feature_dims["t"], d, r.child(0), dtype)
            self.text_attn = Attention(d, heads, r.child(1), dtype)
            self.text_proj = Linear(d, d, r.child(2), dtype)
        if "v" in feature_dims:
            r = rng.child(2)
            self.vis_gru = Gru(feature_dims["v"], d, r.child(0), dtype)
            self.vis_attn = Attention(d, heads, r.child(1), dtype)
            self.lvc = LvcBlock(feature_dims["v"], d, conv_kernel, lvc_centers, r.child(2), dtype)
            self.vis_proj = Linear(2 * d if lvc_enabled else d, d, r.child(3), dtype)
        self.shallow = [TransformerEncoderLayer(d, heads, rng.child(10 + i), dtype)
                        for i in range(n_shallow)]
        self.deep = [GatedCrossModalLayer(d, heads, rng.child(100 + i), dtype)
                     for i in range(n_deep)]
        self.shared_encoder = Linear(d, d, rng.child(3), dtype)
        self.classifier = Linear(d, num_classes, rng.child(4), dtype)
        if fusion_mode == "concat":
            self.concat_head = Linear(3 * d, d, rng.child(5), dtype)

    # -- branch encoders ------------------------------------------------------

    def _as_tensor(self, feats) -> Tensor:
        arr = np.asarray(feats, dtype=self.dtype)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DataError(f"feature sequence must be a non-empty [T x D] matrix; got shape {list(arr.shape)}")
        return Tensor(arr)

    def text_branch(self, feats) -> Tensor:
        x = self._as_tensor(feats)
        return self.text_proj(self.text_attn(self.text_gru(x)))

    def visual_branch(self, feats) -> Tensor:
        x = self._as_tensor(feats)
        global_path = self.vis_attn(self.vis_gru(x))
        if self.lvc_enabled:
            h = T.concat([global_path, self.lvc(x)], axis=-1)
        else:
            h = global_path
        return self.vis_proj(h)

    def audio_stack(self, feats) -> Tensor:
        x = self.audio_proj(self._as_tensor(feats))
        for layer in self.shallow:
            x = layer(x)
        return x

    # -- full forward -----------------------------------------------------------

    def forward(self, sample, mask=None) -> FusionTrace:
        """Run one utterance through the network.

        ``sample`` provides ``features[modality] -> [T x D]``; ``mask`` is an
        iterable of modality letters selecting which branches participate
        (default: every branch this model was built with).
        """
        wanted = set(self.feature_dims) if mask is None else set(mask)
        unknown = wanted - set(MODALITIES)
        if unknown:
            raise DataError(f"unknown modalities in mask: {sorted(unknown)}")
        mask = tuple(m for m in MODALITIES if m in wanted)
        if not mask:
            raise DataError("modality mask is empty")
        for m in mask:
            if m not in self.feature_dims:
                raise ConfigError(f"model has no branch for modality {m!r}")
            if m not in sample.features:
                raise DataError(f"sample {getattr(sample, 'uid', '?')} lacks modality {m!r}")
        if "a" not in mask and len(mask) > 1:
            raise ConfigError(f"multimodal mode {mask} requires the audio stream")

        trace = FusionTrace(mask=mask)
        if "a" in mask:
            trace.branch["a"] = self.audio_stack(sample.features["a"])
        if "t" in mask:
            trace.branch["t"] = self.text_branch(sample.features["t"])
        if "v" in mask:
            trace.branch["v"] = self.visual_branch(sample.features["v"])

        if "a" in mask:
            aux_t = trace.branch.get("t")
            aux_v = trace.branch.get("v")
            if self.fusion_mode == "concat":
                parts = [_mean_pool(trace.branch[m]) for m in MODALITIES]
                trace.fused_seq = trace.branch["a"]
                trace.fused_pooled = self.concat_head(T.concat(parts, axis=-1))
            else:
                state = trace.branch["a"]
                for layer in self.deep:
                    state, layer_trace = layer(state, aux_t, aux_v)
                    trace.deep.append(layer_trace)
                trace.fused_seq = state
                trace.fused_pooled = _mean_pool(state)
        else:
            only = mask[0]
            trace.fused_seq = trace.branch[only]
            trace.fused_pooled = _mean_pool(trace.branch[only])

        trace.logits = self.classifier(trace.fused_pooled)
        return trace

    def shared_encode(self, trace: FusionTrace) -> dict:
        """Mean-pool each unfused branch and push it through the one shared
        linear encoder (same parameters for every modality)."""
        for m, seq in trace.branch.items():
            pooled = _mean_pool(seq)
            trace.pooled[m] = pooled
            trace.shared[m] = self.shared_encoder(pooled)
        return trace.shared

    # -- parameters ----------------------------------------------------------------

    def named_parameters(self) -> list:
        out = []
        if "a" in self.feature_dims:
            out += self.audio_proj.named_parameters("audio_proj")
        if "t" in self.feature_dims:
            out += self.text_gru.named_parameters("text.gru")
            out += self.text_attn.named_parameters("text.attn")
            out += self.text_proj.named_parameters("text.proj")
        if "v" in self.feature_dims:
            out += self.vis_gru.named_parameters("visual.gru")
            out += self.vis_attn.named_parameters("visual.attn")
            out += self.lvc.named_parameters("visual.lvc")
            out += self.vis_proj.named_parameters("visual.proj")
        for i, layer in enumerate(self.shallow):
            out += layer.named_parameters(f"shallow.{i}")
        for i, layer in enumerate(self.deep):
            out += layer.named_parameters(f"deep.{i}")
        out += self.shared_encoder.named_parameters("shared_encoder")
        out += self.classifier.named_parameters("classifier")
        if self.fusion_mode == "concat":
            out += self.concat_head.named_parameters("concat_head")
        return out
