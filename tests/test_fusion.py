import hashlib
import os
import struct

import numpy as np
import numpy.testing as npt
import pytest

import refops as R
from helpers import make_sample, rand, whole
from test_layers import attention_oracle, self_attention
from wavfusion.ablate import SUITES
from wavfusion import tensor as T
from wavfusion.checkpoint import architecture, load_model, read_records, save_model, write_records
from wavfusion.config import ExperimentConfig
from wavfusion.data import Dataset
from wavfusion.errors import CheckpointError, ConfigError, DataError, FormatError, ShapeError
from wavfusion.gradcheck import synthetic_batch, tiny_config
from wavfusion.layers import Attention, Conv1d, Gru, LayerNorm, Linear, LvcBlock, Segments
from wavfusion.losses import build_triplets, margin_loss
from wavfusion.optim import Adam
from wavfusion.model import (FusionTrace, GatedCrossModalLayer, TransformerEncoderLayer,
                             WavFusionModel, gated_fuse)
from wavfusion.rng import Prng
from wavfusion.tensor import Tensor
from wavfusion.train import batch_objective, build_model, train_step

DIMS = {"a": 6, "t": 5, "v": 4}


def tiny_model(**kw):
    args = dict(num_classes=3, feature_dims=DIMS, d=8, heads=2, n_shallow=2,
                n_deep=1, lvc_centers=3, seed=0)
    args.update(kw)
    return WavFusionModel(**args)


class TestBranches:
    def test_visual_branch_output_width(self):
        model = tiny_model()
        for t_len in (1, 3, 6):
            x = rand((t_len, 4), seed=t_len)
            out = model.visual_branch(Tensor(x), whole(x))
            assert out.shape == (t_len, 8)

    def test_visual_branch_without_lvc(self):
        model = tiny_model(lvc_enabled=False)
        assert model.visual.proj.weight.shape[0] == 8  # reduced input width: global path only
        x = rand((4, 4), seed=1)
        expect = model.visual.proj(self_attention(model.visual.attn,
                                                  model.visual.gru(Tensor(x), whole(x))))
        npt.assert_allclose(model.visual_branch(Tensor(x), whole(x)).data, expect.data, atol=1e-12)

    def test_visual_branch_composition(self):
        model = tiny_model()
        x = rand((5, 4), seed=2)
        global_path = self_attention(model.visual.attn, model.visual.gru(Tensor(x), whole(x)))
        local_path = model.visual.lvc(Tensor(x), whole(x))
        expect = model.visual.proj(T.concat([global_path, local_path], axis=-1))
        npt.assert_allclose(model.visual_branch(Tensor(x), whole(x)).data, expect.data, atol=1e-12)

    def test_text_branch_composition(self):
        model = tiny_model()
        x = rand((4, 5), seed=3)
        expect = model.text.proj(self_attention(model.text.attn, model.text.gru(Tensor(x), whole(x))))
        npt.assert_allclose(model.text_branch(Tensor(x), whole(x)).data, expect.data, atol=1e-12)

    def test_text_branch_single_step(self):
        model = tiny_model()
        x = rand((1, 5), seed=4)
        out = model.text_branch(Tensor(x), whole(x))
        assert out.shape == (1, 8)

    def test_empty_sequence_rejected(self):
        model = tiny_model()
        sample = make_sample(4, DIMS)
        sample.features["t"] = np.zeros((0, 5))
        with pytest.raises(DataError, match="'t' features must be a non-empty"):
            model.forward_batch([make_sample(3, DIMS), sample])


def rows(n, d):
    return Tensor(rand((n, d), seed=n * d))


# each sequence layer and branch on a wrong layout ``bad(n)`` for its n-row
# input, and the primitive that rejects a layout one row short and one row over
LAYOUT_CASES = {
    "conv1d": (lambda bad: Conv1d(3, 4, 3, Prng(0))(rows(6, 3), bad(6)), ("reshape", "take_rows")),
    "gru": (lambda bad: Gru(3, 4, Prng(0))(rows(6, 3), bad(6)), ("gru", "gru")),
    "attention_seg": (lambda bad: Attention(8, 2, Prng(0))(rows(5, 8), rows(3, 8), bad(5),
                                                           Segments([1, 2])),
                      ("attention", "attention")),
    "attention_ctx_seg": (lambda bad: Attention(8, 2, Prng(0))(rows(5, 8), rows(3, 8),
                                                               Segments([2, 3]), bad(3)),
                          ("attention", "attention")),
    "lvc": (lambda bad: LvcBlock(3, 8, 2, Prng(0))(rows(6, 3), bad(6)), ("reshape", "take_rows")),
    "transformer": (lambda bad: TransformerEncoderLayer(8, 2, Prng(0))(rows(5, 8), bad(5)),
                    ("attention", "attention")),
    "gated_cross_modal": (lambda bad: GatedCrossModalLayer(8, 2, Prng(0), "tv")(
        rows(5, 8), rows(3, 8), rows(4, 8), bad(5), Segments([1, 2]), Segments([2, 2])),
        ("attention", "attention")),
    "audio_stack": (lambda bad: tiny_model().audio_stack(rows(5, 6), bad(5)),
                    ("attention", "attention")),
    "text_branch": (lambda bad: tiny_model().text_branch(rows(4, 5), bad(4)), ("gru", "gru")),
    "visual_branch": (lambda bad: tiny_model().visual_branch(rows(4, 4), bad(4)), ("gru", "gru")),
}


class TestLayoutSize:
    """Every sequence layer and branch requires its layout, and a layout that
    does not cover its input's rows fails in the primitive that reads it."""

    @pytest.mark.parametrize("case", LAYOUT_CASES)
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_row_count_raises(self, case, extra):
        call, where = LAYOUT_CASES[case]
        with pytest.raises(ShapeError, match=where[extra > 0]):
            call(lambda n: Segments([1, n - 1 + extra]))


class TestCrossModalAttention:
    def test_uniform_context_rows(self):
        # all context rows identical: every pre-residual output row equals the
        # projection of that single value
        layer = GatedCrossModalLayer(8, 2, Prng(1), "tv")
        x = rand((4, 8), seed=5)
        ctx = np.tile(rand((1, 8), seed=6), (5, 1))
        raw = layer.attn_text(Tensor(x), Tensor(ctx), whole(x), whole(ctx)).data
        npt.assert_allclose(raw, np.tile(raw[:1], (4, 1)), atol=1e-12)
        values = np.concatenate([ctx[:1] @ layer.attn_text.v.data[:, 4 * i:4 * (i + 1)]
                                 for i in range(2)], axis=-1)
        npt.assert_allclose(raw[:1], values @ layer.attn_text.out.data, atol=1e-12)

    def test_single_context_position_weight_is_one(self):
        layer = GatedCrossModalLayer(8, 2, Prng(2), "tv")
        x = Tensor(rand((3, 8), seed=7))
        ctx = Tensor(rand((1, 8), seed=8))
        attn = layer.attn_text
        for w in T.attention(x, ctx, attn.q, attn.k, attn.v, attn.out, attn.heads, whole(x),
                             whole(ctx))[1]:
            npt.assert_array_equal(w, np.ones((3, 1)))

    def test_against_dense_oracle(self):
        layer = GatedCrossModalLayer(8, 2, Prng(3), "tv")
        x = rand((4, 8), seed=9)
        ctx = rand((6, 8), seed=10)
        attn = attention_oracle(x, ctx, layer.attn_text)
        h = x + attn
        mean = h.mean(axis=-1, keepdims=True)
        var = ((h - mean) ** 2).mean(axis=-1, keepdims=True)
        expect = ((h - mean) / np.sqrt(var + LayerNorm.EPS)
                  * layer.norm_text.gain.data + layer.norm_text.bias.data)
        x_t = Tensor(x)
        out = layer.norm_text(x_t, layer.attn_text(x_t, Tensor(ctx), whole(x), whole(ctx)))
        npt.assert_allclose(out.data, expect, atol=1e-10)

    def test_preserves_primary_length(self):
        layer = GatedCrossModalLayer(8, 2, Prng(4), "tv")
        x, text, vis = (Tensor(rand((t_len, 8), seed=11 + i)) for i, t_len in enumerate((5, 9, 2)))
        out, _ = layer(x, text, vis, whole(x), whole(text), whole(vis))
        assert out.shape == (5, 8)


class TestGatedFuse:
    def test_neutral_gate_averages(self):
        gate = Linear(16, 8, Prng(5))
        gate.weight.data = np.zeros((16, 8))
        gate.bias.data = np.zeros(8)
        a = Tensor(rand((3, 8), seed=14))
        b = Tensor(rand((3, 8), seed=15))
        fused, gate_vals = gated_fuse(a, b, gate)
        npt.assert_array_equal(gate_vals.data, np.full((3, 8), 0.5))
        npt.assert_allclose(fused.data, (a.data + b.data) / 2, atol=1e-15)

    def test_equal_inputs_are_fixed_point(self):
        gate = Linear(16, 8, Prng(6))
        a = Tensor(rand((3, 8), seed=16))
        fused, _ = gated_fuse(a, Tensor(a.data.copy()), gate)
        npt.assert_allclose(fused.data, a.data, atol=1e-12)

    def test_formula_and_open_interval(self):
        gate = Linear(16, 8, Prng(7))
        a = Tensor(rand((4, 8), seed=17))
        b = Tensor(rand((4, 8), seed=18))
        fused, gate_vals = gated_fuse(a, b, gate)
        raw = np.concatenate([a.data, b.data], axis=-1) @ gate.weight.data + gate.bias.data
        p = 1.0 / (1.0 + np.exp(-raw))
        npt.assert_allclose(gate_vals.data, p, atol=1e-12)
        npt.assert_allclose(fused.data, p * a.data + (1 - p) * b.data, atol=1e-12)
        assert (gate_vals.data > 0).all() and (gate_vals.data < 1).all()

    def test_convex_combination_bounds(self):
        gate = Linear(16, 8, Prng(8))
        for seed in range(5):
            a = Tensor(rand((3, 8), seed=30 + seed, scale=2.0))
            b = Tensor(rand((3, 8), seed=60 + seed, scale=2.0))
            fused, _ = gated_fuse(a, b, gate)
            lo = np.minimum(a.data, b.data)
            hi = np.maximum(a.data, b.data)
            assert (fused.data >= lo - 1e-12).all() and (fused.data <= hi + 1e-12).all()

    def test_shape_mismatch(self):
        gate = Linear(16, 8, Prng(10))
        with pytest.raises(ShapeError):
            gated_fuse(Tensor(np.zeros((3, 8))), Tensor(np.zeros((4, 8))), gate)


class TestForward:
    def test_audio_only_is_self_attention_stack(self):
        model = tiny_model()
        trace = model.forward(make_sample(1, DIMS), mask="a")
        assert len(trace.deep) == model.n_deep
        layer_trace = trace.deep[0]
        assert layer_trace.text_stream is None and layer_trace.visual_stream is None
        assert layer_trace.gate is None
        assert np.isfinite(trace.logits.data).all()

    def test_bimodal_bypasses_gate(self):
        model = tiny_model()
        sample = make_sample(2, DIMS)
        for mask, which in (("at", "text_stream"), ("av", "visual_stream")):
            trace = model.forward(sample, mask=mask)
            layer_trace = trace.deep[0]
            assert layer_trace.gate is None
            npt.assert_array_equal(layer_trace.fused.data, getattr(layer_trace, which).data)

    def test_unimodal_text_and_visual(self):
        model = tiny_model()
        sample = make_sample(3, DIMS)
        for mask in ("t", "v"):
            trace = model.forward(sample, mask=mask)
            assert set(trace.branch) == {mask}
            assert trace.logits.shape == (1, 3)
            assert np.isfinite(trace.logits.data).all()

    def test_multimodal_without_audio_rejected(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.forward(make_sample(4, DIMS), mask="tv")

    def test_missing_modality_rejected(self):
        model = tiny_model()
        sample = make_sample(5, {"a": 6, "t": 5})
        with pytest.raises(DataError):
            model.forward(sample, mask="avt")

    def test_unknown_mask_letter_rejected(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.forward(make_sample(6, DIMS), mask="ax")

    def test_concat_baseline_formula(self):
        model = tiny_model(n_deep=0, n_shallow=3)
        sample = make_sample(7, DIMS)
        trace = model.forward(sample)
        pools = [trace.branch[m].data.mean(axis=0) for m in ("a", "t", "v")]
        expect = (np.concatenate(pools)[None, :] @ model.concat_head.weight.data
                  + model.concat_head.bias.data)
        npt.assert_allclose(trace.fused_pooled.data, expect, atol=1e-12)
        assert not trace.deep

    def test_concat_pass_fuses_all_three(self):
        model = tiny_model(n_deep=0, n_shallow=1)
        sample = make_sample(7, DIMS)
        for mask in ("at", "a"):
            with pytest.raises(ConfigError, match="concat"):
                model.forward(sample, mask=mask)
        assert model.forward(sample, mask="t").logits.shape == (1, 3)

    def test_trimodal_model_without_deep_layers_is_the_concat_baseline(self):
        model = tiny_model(n_deep=0, n_shallow=1)
        assert hasattr(model, "concat_head")
        assert model.fusion_mode == architecture(model)["fusion_mode"] == "concat"
        assert architecture(tiny_model(n_shallow=1))["fusion_mode"] == "per_layer"

    @pytest.mark.parametrize("mods", ["a", "at", "av"])
    def test_fewer_branches_without_deep_layers_fuse_nothing(self, mods):
        # the audio stack feeds the classifier alone; the other branches reach
        # only the shared encoder
        model = tiny_model(feature_dims={m: DIMS[m] for m in mods}, n_deep=0, n_shallow=1)
        assert not hasattr(model, "concat_head")
        assert architecture(model)["fusion_mode"] == "per_layer"
        sample = make_sample(12, DIMS)
        before = model.forward(sample).logits.data
        for m in mods[1:]:
            sample.features[m] = sample.features[m] + 3.0
        npt.assert_array_equal(model.forward(sample).logits.data, before)

    def test_audio_length_preserved_through_stack(self):
        model = tiny_model(n_deep=2)
        sample = make_sample(8, DIMS, t_lens={"a": 5, "t": 9, "v": 2})
        trace = model.forward(sample)
        assert trace.branch["a"].shape == (5, 8)
        for layer_trace in trace.deep:
            assert layer_trace.output.shape == (5, 8)
        assert trace.fused_seq.shape == (5, 8)

    def test_trimodal_invariant_sweep(self):
        model = tiny_model(n_deep=2)
        for seed in range(5):
            trace = model.forward(make_sample(100 + seed, DIMS))
            model.shared_encode(trace)
            for name, value in trace.all_values():
                assert np.isfinite(value).all(), f"non-finite {name}"
            for layer_trace in trace.deep:
                assert (layer_trace.gate.data > 0).all()
                assert (layer_trace.gate.data < 1).all()

    def test_gradients_finite_on_random_forward(self):
        model = tiny_model()
        trace = model.forward(make_sample(55, DIMS))
        R.sum(trace.logits).backward()
        touched = 0
        for name, p in model.named_parameters():
            if p.grad is not None:
                assert np.isfinite(p.grad).all(), f"non-finite grad {name}"
                touched += 1
        assert touched > 0

    def test_default_sized_audio_only_stack(self):
        cfg = ExperimentConfig()    # default 9 + 3 layers
        model = WavFusionModel(num_classes=4, feature_dims=DIMS, d=8, heads=2,
                               n_shallow=cfg.n_shallow, n_deep=cfg.n_deep, lvc_centers=2, seed=1)
        trace = model.forward(make_sample(56, DIMS), mask="a")
        assert len(trace.deep) == 3
        assert all(t.gate is None for t in trace.deep)
        assert np.isfinite(trace.logits.data).all()

    def test_gate_saturation_recovers_text_stream(self):
        # force gate logits to +20: fused tracks the text-augmented stream
        model = tiny_model()
        layer = model.deep[0]
        layer.gate.weight.data = np.zeros_like(layer.gate.weight.data)
        layer.gate.bias.data = np.full_like(layer.gate.bias.data, 20.0)
        trace = model.forward(make_sample(9, DIMS))
        layer_trace = trace.deep[0]
        npt.assert_allclose(layer_trace.fused.data, layer_trace.text_stream.data, atol=1e-6)

    def test_default_layer_split_sums_to_twelve(self):
        cfg = ExperimentConfig()
        model = WavFusionModel(num_classes=4, feature_dims=DIMS, d=8, heads=2,
                               n_shallow=cfg.n_shallow, n_deep=cfg.n_deep,
                               lvc_centers=cfg.lvc_centers, seed=0)
        assert model.n_shallow + model.n_deep == 12
        assert (model.n_shallow, model.n_deep) == (9, 3)

    def test_forward_deterministic(self):
        sample = make_sample(11, DIMS)
        a = tiny_model().forward(sample).logits.data
        b = tiny_model().forward(sample).logits.data
        npt.assert_array_equal(a, b)


class TestArchitecture:
    ARCH = dict(d=8, heads=2, n_shallow=1, n_deep=1, lvc_centers=3)

    def test_float32_parameters_are_the_float64_ones_cast(self):
        args = dict(num_classes=3, feature_dims=DIMS, seed=4, **self.ARCH)
        wide = WavFusionModel(**args).named_parameters()
        narrow = WavFusionModel(**args, dtype=np.float32).named_parameters()
        assert [name for name, _ in narrow] == [name for name, _ in wide]
        for (name, p), (_, q) in zip(narrow, wide):
            assert p.data.dtype == np.float32, name
            assert p.data.tobytes() == q.data.astype(np.float32).tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_packed_features_are_each_sample_cast(self, dtype):
        # float32 features, as stored, and a float64 and a list sample
        samples = [make_sample(i, DIMS) for i in range(3)]
        for sample in samples[:2]:
            sample.features["a"] = sample.features["a"].astype(np.float32)
        samples[2].features["a"] = samples[2].features["a"].tolist()
        model = WavFusionModel(num_classes=3, feature_dims=DIMS, dtype=dtype, **self.ARCH)
        packed, seg = model._pack(samples, "a")
        expect = np.concatenate([np.asarray(s.features["a"], dtype=dtype) for s in samples])
        assert packed.data.dtype == dtype and packed.data.tobytes() == expect.tobytes()
        assert seg.lengths.tolist() == [len(s.features["a"]) for s in samples]

    @pytest.mark.parametrize("modalities,overrides", [
        ("avt", {"heads": 3}),                             # width divisible by heads
        ("avt", {"heads": 0}),
        ("avt", {"n_shallow": 0, "n_deep": 0}),            # at least one layer
        ("avt", {"n_shallow": -1}),
        ("avt", {"lvc_centers": 0}),                       # codebook size
        # the ids of the rows below stay those they had beside the rows
        # of the fusion-mode and conv-kernel rules, which are gone
        pytest.param("ax", {}, id="ax-overrides10"),       # the modality set
        pytest.param("", {}, id="-overrides11"),
        pytest.param("tv", {}, id="tv-overrides12"),       # fusing needs audio
    ])
    def test_config_and_model_share_each_rule(self, modalities, overrides):
        arch = {**self.ARCH, **overrides}
        with pytest.raises(ConfigError) as from_config:
            ExperimentConfig(modalities=modalities, **arch).validate()
        with pytest.raises(ConfigError) as from_model:
            WavFusionModel(num_classes=3, feature_dims=dict.fromkeys(modalities, 4), **arch)
        assert str(from_model.value) == str(from_config.value)


def listed_parameters(model):
    """The parameters as the model once listed them by hand, layer by layer:
    the reference for the names and order ``named_parameters`` finds."""
    def affine(prefix, layer):
        return [(f"{prefix}.weight", layer.weight), (f"{prefix}.bias", layer.bias)]

    def gru(prefix, g):
        return [(f"{prefix}.w", g.w), (f"{prefix}.u_zr", g.u_zr), (f"{prefix}.u_h", g.u_h),
                (f"{prefix}.b", g.b)]

    def attn(prefix, a):
        return [(f"{prefix}.q", a.q), (f"{prefix}.k", a.k), (f"{prefix}.v", a.v),
                (f"{prefix}.out", a.out)]

    def norm(prefix, n):
        return [(f"{prefix}.gain", n.gain), (f"{prefix}.bias", n.bias)]

    def ff(prefix, f):
        return affine(f"{prefix}.inner", f.inner) + affine(f"{prefix}.outer", f.outer)

    mods = model.feature_dims.keys()
    out = []
    if "a" in mods:
        out += affine("audio_proj", model.audio_proj)
    if "t" in mods:
        out += (gru("text.gru", model.text.gru) + attn("text.attn", model.text.attn)
                + affine("text.proj", model.text.proj))
    if "v" in mods:
        out += gru("visual.gru", model.visual.gru) + attn("visual.attn", model.visual.attn)
        if model.lvc_enabled:
            lvc = model.visual.lvc
            out += (affine("visual.lvc.stem", lvc.stem)
                    + [("visual.lvc.centers", lvc.centers), ("visual.lvc.scales", lvc.scales)]
                    + affine("visual.lvc.proj", lvc.proj))
        out += affine("visual.proj", model.visual.proj)
    # only audio runs the layer stacks; a deep layer holds what its passes run
    for i in range(model.n_shallow if "a" in mods else 0):
        p, layer = f"shallow.{i}", model.shallow[i]
        out += (attn(f"{p}.attn", layer.attn) + norm(f"{p}.norm_attn", layer.norm_attn)
                + ff(f"{p}.ff", layer.ff) + norm(f"{p}.norm_ff", layer.norm_ff))
    for i in range(model.n_deep if "a" in mods else 0):
        p, layer = f"deep.{i}", model.deep[i]
        if "t" in mods or "v" not in mods:      # with no auxiliary: self-attention
            out += attn(f"{p}.attn_text", layer.attn_text) + norm(f"{p}.norm_text", layer.norm_text)
        if "v" in mods:
            out += attn(f"{p}.attn_vis", layer.attn_vis) + norm(f"{p}.norm_vis", layer.norm_vis)
        if "t" in mods and "v" in mods:
            out += affine(f"{p}.gate", layer.gate)
        out += ff(f"{p}.ff", layer.ff) + norm(f"{p}.norm_ff", layer.norm_ff)
    if len(mods) > 1:
        out += affine("shared_encoder", model.shared_encoder)
    out += affine("classifier", model.classifier)
    if model.fusion_mode == "concat":
        out += affine("concat_head", model.concat_head)
    return out


def ablation_model(overrides):
    """``tiny_model`` arguments for one ablation row's config overrides."""
    args = {k: v for k, v in overrides.items() if k in ("lvc_enabled", "n_shallow", "n_deep")}
    return dict(args, feature_dims={m: DIMS[m] for m in overrides["modalities"]})


# the model of every ablation row: each modality set, LVC on and off, and
# each shallow/deep split, concat included (the lambda rows share one model)
ABLATION_MODELS = [ablation_model(overrides) for suite in ("modality", "lvc", "layers")
                   for _, overrides in SUITES[suite][1]]


class TestParameterNames:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("overrides", ABLATION_MODELS)
    def test_names_and_order_are_the_listed_ones(self, overrides, dtype):
        model = tiny_model(**overrides, dtype=dtype)
        found, listed = model.named_parameters(), listed_parameters(model)
        assert [name for name, _ in found] == [name for name, _ in listed]
        assert all(p is q for (_, p), (_, q) in zip(found, listed))

    def test_sizes(self):
        # the count and some shapes of the full three-modality model
        shapes = {name: p.shape for name, p in tiny_model().named_parameters()}
        assert len(shapes) == 76
        assert shapes["visual.lvc.stem.weight"] == (12, 8)
        assert shapes["visual.proj.weight"] == (16, 8)
        assert shapes["deep.0.gate.weight"] == (16, 8)
        assert shapes["shallow.1.ff.inner.weight"] == (8, 32)
        assert shapes["text.gru.u_zr"] == (8, 16)


# model settings of each modality set, LVC on and off
MODEL_SETS = [(mods, lvc) for mods in ("a", "t", "v", "at", "av", "avt") for lvc in (True, False)]

# sha256 over name and bytes of every parameter after three Adam steps of
# ``train_three_steps``, pinned from the code that built every sub-layer for
# every modality set, over the parameters each such model keeps now
KEPT_FINGERPRINTS = {
    ("a", False): "c79174f19121437c", ("t", False): "6087dee35e5581aa",
    ("v", False): "9cf07a69782c892d", ("at", False): "3b6a50e489b6ec70",
    ("av", False): "67d4ced53830d052", ("avt", False): "54e4dd988803861b",
    ("avt", True): "3c0c884a0032c578",
}


def train_three_steps(mods, lvc):
    """A d=8, 2+2 model of ``mods`` after three Adam steps (lr 1e-2,
    balance 1) on batches with every modality."""
    cfg = tiny_config(modalities=mods, lvc_enabled=lvc, n_deep=2)
    model = build_model(cfg, Dataset(samples=[], num_classes=3, feature_dims=DIMS))
    opt = Adam(model.named_parameters(), 1e-2)
    for step in range(3):
        train_step(model, opt, synthetic_batch(step, DIMS, 3, 6), cfg.mask(), cfg, f"step {step}")
    return model


class TestBuildsWhatRuns:
    """A model holds only the sub-layers some pass of it runs, so training
    reaches every parameter; a pass that needs one the model lacks is refused."""

    @pytest.mark.parametrize("mods,lvc", MODEL_SETS)
    def test_every_parameter_gets_a_gradient(self, mods, lvc):
        cfg = tiny_config(modalities=mods, lvc_enabled=lvc, balance=0.5)
        model = build_model(cfg, Dataset(samples=[], num_classes=3, feature_dims=DIMS))
        loss, _, _, _ = batch_objective(model, synthetic_batch(1, DIMS, 3, 6), cfg.mask(),
                                        cfg.alpha, cfg.balance)
        loss.backward()
        assert [name for name, p in model.named_parameters() if p.grad is None] == []

    @pytest.mark.parametrize("mods,lvc", KEPT_FINGERPRINTS)
    def test_kept_parameters_train_bit_for_bit_as_before(self, mods, lvc):
        digest = hashlib.sha256()
        for name, p in train_three_steps(mods, lvc).named_parameters():
            digest.update(name.encode())
            digest.update(p.data.tobytes())
        assert digest.hexdigest()[:16] == KEPT_FINGERPRINTS[mods, lvc]

    @pytest.mark.parametrize("mods,count", [("a", 597_828), ("t", 35_204), ("v", 45_196),
                                            ("at", 636_932), ("av", 646_924), ("avt", 756_172)])
    def test_parameter_counts_at_default_sizes(self, mods, count):
        cfg = ExperimentConfig(modalities=mods)
        model = build_model(cfg, Dataset(samples=[], num_classes=4,
                                         feature_dims={"a": 12, "t": 10, "v": 8}))
        assert sum(p.data.size for _, p in model.named_parameters()) == count

    def test_pass_needing_an_absent_sub_layer_is_refused(self):
        # the av model's deep layers have no self-attention path for mask a
        model = tiny_model(feature_dims={"a": 6, "v": 4})
        sample = make_sample(3, DIMS)
        with pytest.raises(ConfigError, match="^a pass over 'a' runs each deep layer's attn_text "
                                              "and norm_text, which a model of 'av' does not "
                                              "build$"):
            model.forward(sample, mask="a")
        for mask in ("av", "v"):
            assert np.isfinite(model.forward(sample, mask=mask).logits.data).all()
        # without deep layers there is nothing to lack
        model = tiny_model(feature_dims={"a": 6, "v": 4}, n_deep=0)
        assert model.forward(sample, mask="a").logits.shape == (1, 3)
        for mods in ("a", "at"):
            model = tiny_model(feature_dims={m: DIMS[m] for m in mods})
            assert np.isfinite(model.forward(sample, mask="a").logits.data).all()


class TestSharedEncoder:
    def test_weight_sharing(self):
        model = tiny_model()
        x = rand((3, 8), seed=21)
        trace = FusionTrace(branch={"t": Tensor(x), "v": Tensor(x.copy())},
                            segments={"t": whole(x), "v": whole(x)})
        shared = model.shared_encode(trace)
        npt.assert_array_equal(shared["t"].data, shared["v"].data)

    def test_identity_initialization_passthrough(self):
        model = tiny_model()
        model.shared_encoder.weight.data = np.eye(8)
        model.shared_encoder.bias.data = np.zeros(8)
        trace = model.forward(make_sample(12, DIMS))
        model.shared_encode(trace)
        for m in ("a", "t", "v"):
            npt.assert_allclose(trace.shared[m].data, trace.pooled[m].data, atol=1e-15)

    def test_margin_gradient_reaches_shared_encoder(self):
        model = tiny_model()
        entries = []
        embeddings = []
        for seed, label in ((13, 0), (14, 1)):
            trace = model.forward(make_sample(seed, DIMS, label=label))
            model.shared_encode(trace)
            for m in ("a", "t", "v"):
                entries.append((m, label))
                embeddings.append(trace.shared[m])
        loss = margin_loss(embeddings, build_triplets(entries), alpha=0.5)
        loss.backward()
        assert model.shared_encoder.weight.grad is not None
        assert np.abs(model.shared_encoder.weight.grad).sum() > 0


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = tiny_model()
        first = tmp_path / "a.wvfn"
        second = tmp_path / "b.wvfn"
        save_model(first, model)
        assert first.read_bytes()[:4] == b"WVFN"
        other = tiny_model(seed=5)
        load_model(first, other)
        save_model(second, other)
        assert first.read_bytes() == second.read_bytes()
        for (_, p), (_, q) in zip(model.named_parameters(), other.named_parameters()):
            npt.assert_array_equal(p.data.astype(np.float32), q.data.astype(np.float32))

    def test_restored_model_reproduces_logits(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.wvfn"
        save_model(path, model)
        first = tiny_model(seed=9)
        second = tiny_model(seed=31)
        load_model(path, first)
        load_model(path, second)
        sample = make_sample(15, DIMS)
        # two loads agree bit-for-bit; the float32 payload tracks the source
        npt.assert_array_equal(first.forward(sample).logits.data,
                               second.forward(sample).logits.data)
        npt.assert_allclose(first.forward(sample).logits.data,
                            model.forward(sample).logits.data, rtol=1e-4, atol=1e-5)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.wvfn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="offset 0"):
            read_records(path)

    def test_truncation_positioned_error(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.wvfn"
        save_model(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(FormatError, match="offset"):
            read_records(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.wvfn"
        save_model(path, model)
        narrow = tiny_model(d=4, heads=2)
        with pytest.raises(CheckpointError):
            load_model(path, narrow)

    def test_missing_parameter_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.wvfn"
        records = [(name, p.data) for name, p in model.named_parameters()][:-1]
        write_records(path, records, architecture(model))
        with pytest.raises(CheckpointError, match="lacks"):
            load_model(path, tiny_model())

    def test_architecture_mismatch_names_the_key(self, tmp_path):
        # same parameter names and shapes, different head split
        path = tmp_path / "m.wvfn"
        save_model(path, tiny_model(d=8, heads=2))
        other = tiny_model(d=8, heads=4)
        before = [p.data.copy() for _, p in other.named_parameters()]
        with pytest.raises(CheckpointError, match="heads"):
            load_model(path, other)
        for (_, p), old in zip(other.named_parameters(), before):
            npt.assert_array_equal(p.data, old)   # nothing half-loaded

    @pytest.mark.parametrize("key,value", [
        ("num_classes", 3), ("feature_dims", {"a": 6, "t": 5, "v": 5}), ("d", 16),
        ("n_shallow", 2), ("lvc_enabled", False),
    ])
    def test_other_architecture_names_the_differing_setting(self, tmp_path, key, value):
        # each of these settings also changes the parameter names or shapes
        path = tmp_path / "m.wvfn"
        base = dict(num_classes=4, n_shallow=1, n_deep=1)
        save_model(path, tiny_model(**base))
        other = tiny_model(**{**base, key: value})
        before = [p.data.copy() for _, p in other.named_parameters()]
        with pytest.raises(CheckpointError,
                           match=f"^checkpoint {key} = .* but the model has {key} = "):
            load_model(path, other)
        for (_, p), old in zip(other.named_parameters(), before):
            npt.assert_array_equal(p.data, old)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.wvfn"
        path.write_bytes(b"WVFN" + (1).to_bytes(4, "little"))
        with pytest.raises(FormatError, match="unsupported checkpoint version 1 at offset 4"):
            read_records(path)

    def test_truncated_header_positioned_error(self, tmp_path):
        path = tmp_path / "m.wvfn"
        save_model(path, tiny_model())
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        assert b"heads=2\n" in blob[12:12 + header_len]
        for cut, offset in ((10, 8), (12 + header_len // 2, 12)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match=f"header.* at offset {offset},"):
                read_records(path)

    @pytest.mark.parametrize("body,what,offset", [
        (struct.pack("<I", 4) + b"\xff\xfe=\n", "header line", 12),
        (struct.pack("<IH", 0, 2) + b"\xff\xfe", "record name", 14),
    ], ids=["header", "record-name"])
    def test_non_utf8_text_positioned_error(self, tmp_path, body, what, offset):
        path = tmp_path / "m.wvfn"
        path.write_bytes(b"WVFN" + struct.pack("<I", 2) + body)
        with pytest.raises(FormatError, match=f"{what} .* at offset {offset} is not valid UTF-8"):
            read_records(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "m.wvfn"
        model = tiny_model()
        save_model(path, model)
        before = path.read_bytes()

        def records():
            yield from list(model.named_parameters())[:3]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_records(path, ((name, p.data) for name, p in records()), architecture(model))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.wvfn"]
