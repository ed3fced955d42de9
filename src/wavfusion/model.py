"""The fusion network: auxiliary branch encoders, a shallow self-attention
stack on the primary (audio) stream, deep layers that attend into the
auxiliary streams and gate the two augmented results, a shared encoder for
cross-modal embeddings, and a classifier head.

Audio is the primary stream: every layer of the primary stack maps
[T_a x d] -> [T_a x d] regardless of auxiliary sequence lengths.

One forward pass takes a whole batch. Each modality's sequences are packed
into one [sum(T) x d] matrix with a ``Segments`` layout (see ``layers``);
pooling turns each into [B x d] rows, one per utterance. A single utterance
is the batch of one. A trimodal model with no deep layer is the concat
baseline (``fusion_mode`` ``concat``); every other fuses in its deep layers.

The model decides once. ``WavFusionModel`` chooses the precision: its layers
build float64 parameters and it casts each of them to its ``dtype``. Its
architecture rules live in ``check_architecture`` and ``check_modalities``;
the config, the constructor and ``forward_batch`` all call them. Every
sample's modalities are checked by ``check_samples``, which ``train`` calls
before it trains and ``forward_batch`` before each pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .layers import Attention, Gru, LayerNorm, Linear, LvcBlock, Module, Segments
from .rng import Prng
from .tensor import Tensor

MODALITIES = ("a", "t", "v")


def check_modalities(modalities) -> tuple:
    """The modality letters in ``MODALITIES`` order. An unknown letter, an
    empty set, or two or more without audio raises ``ConfigError``."""
    wanted = set(modalities)
    mask = tuple(m for m in MODALITIES if m in wanted)
    if not mask or len(mask) != len(wanted):
        raise ConfigError(f"modalities must be a non-empty subset of {MODALITIES}; got {sorted(wanted)}")
    if len(mask) > 1 and "a" not in mask:
        raise ConfigError(f"multimodal mode {''.join(mask)!r} requires the audio stream")
    return mask


def check_samples(samples, mask) -> None:
    """Raise ``DataError`` naming the first sample without features for a
    modality of ``mask``."""
    for sample in samples:
        for m in mask:
            if m not in sample.features:
                raise DataError(f"sample {getattr(sample, 'uid', '?')} lacks modality {m!r}")


def check_architecture(modalities, d: int, heads: int, n_shallow: int, n_deep: int,
                       lvc_centers: int) -> None:
    """Raise ``ConfigError`` unless these settings build a model."""
    Attention.check(d, heads)
    if n_shallow < 0 or n_deep < 0 or n_shallow + n_deep < 1:
        raise ConfigError(f"need layer counts >= 0 and at least one layer; got {n_shallow}+{n_deep}")
    LvcBlock.check(lvc_centers)
    check_modalities(modalities)


def gated_fuse(first: Tensor, second: Tensor, gate: Linear):
    """Convex per-channel mix of two augmented streams.

    Gate values are sigmoid(gate(first (+) second)), so the result lies
    elementwise between the two inputs. Returns (fused, gate_values), the
    gate values as data only. Three graph nodes: ``concat``, the gate's
    ``affine`` and ``tensor.gated_mix``.
    """
    fused, gate_vals = T.gated_mix(gate(T.concat([first, second], axis=-1)), first, second)
    return fused, Tensor(gate_vals)


class FeedForward(Module):
    """Two linear maps with tanh between, inner width 4d: one
    ``tensor.feed_forward`` node."""

    def __init__(self, d: int, rng: Prng):
        self.inner = Linear(d, 4 * d, rng.child(0))
        self.outer = Linear(4 * d, d, rng.child(1))

    def __call__(self, x: Tensor) -> Tensor:
        inner, outer = self.inner, self.outer
        return T.feed_forward(x, inner.weight, inner.bias, outer.weight, outer.bias)


class TransformerEncoderLayer(Module):
    """Self-attention + feed-forward, residuals and layer norm after each."""

    def __init__(self, d: int, heads: int, rng: Prng):
        self.attn = Attention(d, heads, rng.child(0))
        self.norm_attn = LayerNorm(d)
        self.ff = FeedForward(d, rng.child(1))
        self.norm_ff = LayerNorm(d)

    def __call__(self, x: Tensor, seg: Segments) -> Tensor:
        h = self.norm_attn(x, self.attn(x, x, seg, seg))
        return self.norm_ff(h, self.ff(h))


@dataclass
class DeepLayerTrace:
    """Intermediates of one deep layer pass (None where a branch was absent)."""
    text_stream: Tensor | None
    visual_stream: Tensor | None
    gate: Tensor | None
    fused: Tensor
    output: Tensor


class GatedCrossModalLayer(Module):
    """Modified transformer layer: the self-attention is replaced by two
    cross-modal attentions (queries from the primary stream, keys/values from
    text and visual respectively) whose results are blended by a learned
    per-channel gate before the usual feed-forward. The packed layouts of
    ``x`` and of the auxiliaries are required (None only for an absent one)."""

    def __init__(self, d: int, heads: int, rng: Prng):
        self.attn_text = Attention(d, heads, rng.child(0))
        self.norm_text = LayerNorm(d)
        self.attn_vis = Attention(d, heads, rng.child(1))
        self.norm_vis = LayerNorm(d)
        self.gate = Linear(2 * d, d, rng.child(2))
        self.ff = FeedForward(d, rng.child(3))
        self.norm_ff = LayerNorm(d)

    def __call__(self, x: Tensor, aux_text: Tensor | None, aux_vis: Tensor | None,
                 seg: Segments, text_seg: Segments | None, vis_seg: Segments | None):
        text_aug = vis_aug = gate_vals = None
        if aux_text is not None:
            text_aug = self.norm_text(x, self.attn_text(x, aux_text, seg, text_seg))
        if aux_vis is not None:
            vis_aug = self.norm_vis(x, self.attn_vis(x, aux_vis, seg, vis_seg))
        if text_aug is not None and vis_aug is not None:
            fused, gate_vals = gated_fuse(text_aug, vis_aug, self.gate)
        elif text_aug is None and vis_aug is None:
            # no auxiliaries: the text pair attends over x, a plain self-attention layer
            fused = self.norm_text(x, self.attn_text(x, x, seg, seg))
        else:
            fused = vis_aug if text_aug is None else text_aug
        out = self.norm_ff(fused, self.ff(fused))
        return out, DeepLayerTrace(text_aug, vis_aug, gate_vals, fused, out)


@dataclass
class FusionTrace:
    """Every intermediate of one forward pass over a batch of B utterances,
    for inspection and testing. Sequences are packed (see ``segments``)."""
    branch: dict = field(default_factory=dict)        # modality -> encoded packed sequences
    segments: dict = field(default_factory=dict)      # modality -> Segments of its branch
    deep: list = field(default_factory=list)          # DeepLayerTrace per deep layer
    fused_seq: Tensor | None = None                   # final primary-stream sequences
    fused_pooled: Tensor | None = None                # [B x d] rows fed to the classifier
    pooled: dict = field(default_factory=dict)        # modality -> pooled branch rows [B x d]
    shared: dict = field(default_factory=dict)        # modality -> shared-encoder embeddings [B x d]
    logits: Tensor | None = None                      # [B x c]

    def predictions(self) -> list[int]:
        """Argmax class of each utterance."""
        return [int(c) for c in np.argmax(self.logits.data, axis=-1)]

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


def _mean_pool(x: Tensor, seg: Segments) -> Tensor:
    """Mean over each sequence's time steps: [sum(T) x d] -> [B x d]."""
    return Tensor(seg.pooling(x.data.dtype, mean=True)) @ x


class WavFusionModel(Module):
    """Gated cross-modal fusion network over up to three modalities.

    ``feature_dims`` maps each available modality ("a", "t", "v") to its raw
    feature width; branches are built only for those. ``dtype`` is the
    precision of every parameter and activation. A model instance is
    exclusively owned during a training step; concurrent evaluation requires
    deep-copied parameters. The text and visual branches are the ``Module``
    groups ``text`` and ``visual``.
    """

    def __init__(self, num_classes: int, feature_dims: dict, d: int, heads: int,
                 n_shallow: int, n_deep: int, lvc_centers: int,
                 lvc_enabled: bool = True, seed: int = 0, dtype=np.float64):
        if num_classes < 2:
            raise ConfigError(f"need at least 2 classes; got {num_classes}")
        check_architecture(feature_dims, d, heads, n_shallow, n_deep, lvc_centers)

        self.num_classes = num_classes
        self.feature_dims = dict(feature_dims)
        self.d = d
        self.heads = heads
        self.n_shallow = n_shallow
        self.n_deep = n_deep
        self.lvc_enabled = lvc_enabled
        trimodal = self.feature_dims.keys() == set(MODALITIES)
        self.fusion_mode = "concat" if n_deep == 0 and trimodal else "per_layer"
        self.dtype = dtype

        rng = Prng(seed)
        if "a" in feature_dims:
            self.audio_proj = Linear(feature_dims["a"], d, rng.child(0))
        if "t" in feature_dims:
            r = rng.child(1)
            self.text = Module(gru=Gru(feature_dims["t"], d, r.child(0)),
                               attn=Attention(d, heads, r.child(1)), proj=Linear(d, d, r.child(2)))
        if "v" in feature_dims:
            r = rng.child(2)
            self.visual = Module(gru=Gru(feature_dims["v"], d, r.child(0)),
                                 attn=Attention(d, heads, r.child(1)),
                                 lvc=LvcBlock(feature_dims["v"], d, lvc_centers, r.child(2)),
                                 proj=Linear(2 * d if lvc_enabled else d, d, r.child(3)))
        self.shallow = [TransformerEncoderLayer(d, heads, rng.child(10 + i)) for i in range(n_shallow)]
        self.deep = [GatedCrossModalLayer(d, heads, rng.child(100 + i)) for i in range(n_deep)]
        self.shared_encoder = Linear(d, d, rng.child(3))
        self.classifier = Linear(d, num_classes, rng.child(4))
        if self.fusion_mode == "concat":
            self.concat_head = Linear(3 * d, d, rng.child(5))
        if dtype != np.float64:
            # initial values are drawn in float64: each precision starts from the same numbers
            for _, p in self.named_parameters():
                p.data = p.data.astype(dtype)

    # -- branch encoders ------------------------------------------------------

    def text_branch(self, x: Tensor, seg: Segments) -> Tensor:
        """Packed text features [sum(T) x D] with their required layout
        ``seg`` (see ``_pack``) to [sum(T) x d]; likewise the other branches."""
        text = self.text
        h = text.gru(x, seg)
        return text.proj(text.attn(h, h, seg, seg))

    def visual_branch(self, x: Tensor, seg: Segments) -> Tensor:
        visual = self.visual
        h = visual.gru(x, seg)
        h = visual.attn(h, h, seg, seg)
        if self.lvc_enabled:
            h = T.concat([h, visual.lvc(x, seg)], axis=-1)
        return visual.proj(h)

    def audio_stack(self, x: Tensor, seg: Segments) -> Tensor:
        x = self.audio_proj(x)
        for layer in self.shallow:
            x = layer(x, seg)
        return x

    # -- full forward -----------------------------------------------------------

    def _pack(self, samples, m: str) -> tuple[Tensor, Segments]:
        """One modality of a batch: the packed [sum(T) x D] features, in the
        model's precision, and their layout."""
        seqs, width = [], self.feature_dims[m]
        for sample in samples:
            arr = np.asarray(sample.features[m])
            if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != width:
                raise DataError(f"sample {getattr(sample, 'uid', '?')}: {m!r} features must be a "
                                f"non-empty [T x {width}] matrix; got shape {list(arr.shape)}")
            seqs.append(arr)
        # one cast, of the packed rows, to the model's precision
        return Tensor(np.concatenate(seqs, dtype=self.dtype)), Segments([len(a) for a in seqs])

    def forward_batch(self, samples, mask=None) -> FusionTrace:
        """Run a batch of utterances through the network as one packed pass.

        Each sample provides ``features[modality] -> [T x D]``; ``mask`` is
        an iterable of modality letters selecting which branches participate
        (default: every branch this model was built with). Row b of the
        trace's pooled outputs and logits belongs to ``samples[b]``.
        """
        samples = list(samples)
        if not samples:
            raise DataError("forward pass over an empty batch")
        wanted = set(self.feature_dims) if mask is None else set(mask)
        mask = check_modalities(wanted)
        if not wanted <= self.feature_dims.keys():
            raise ConfigError(f"model has no branch for {sorted(wanted - self.feature_dims.keys())}")
        # the primary stream is audio whenever present; a pass without it is
        # one branch straight into the classifier: nothing is fused
        primary = mask[0]
        concat = primary == "a" and self.fusion_mode == "concat"
        if concat and mask != MODALITIES:
            raise ConfigError("concat fusion needs all three modalities")
        check_samples(samples, mask)

        trace = FusionTrace()
        encoders = {"a": self.audio_stack, "t": self.text_branch, "v": self.visual_branch}
        for m in mask:
            x, seg = self._pack(samples, m)
            trace.segments[m] = seg
            trace.branch[m] = encoders[m](x, seg)

        segs, state = trace.segments, trace.branch[primary]
        for layer in self.deep if primary == "a" else ():    # a concat model has none
            state, layer_trace = layer(state, trace.branch.get("t"), trace.branch.get("v"),
                                       segs["a"], segs.get("t"), segs.get("v"))
            trace.deep.append(layer_trace)
        trace.fused_seq = state
        trace.fused_pooled = (self.concat_head(T.concat([_mean_pool(trace.branch[m], segs[m])
                                                         for m in MODALITIES], axis=-1))
                              if concat else _mean_pool(state, segs[primary]))
        trace.logits = self.classifier(trace.fused_pooled)
        return trace

    def forward(self, sample, mask=None) -> FusionTrace:
        """One utterance: the batch of one."""
        return self.forward_batch([sample], mask)

    def shared_encode(self, trace: FusionTrace) -> dict:
        """Mean-pool each unfused branch per utterance and push it through the
        one shared linear encoder (same parameters for every modality)."""
        for m, seq in trace.branch.items():
            pooled = _mean_pool(seq, trace.segments[m])
            trace.pooled[m] = pooled
            trace.shared[m] = self.shared_encoder(pooled)
        return trace.shared
