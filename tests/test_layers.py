import math

import numpy as np
import numpy.testing as npt
import pytest

import refops as R
from helpers import fd_max_rel_error, rand, whole
from wavfusion import tensor as T
from wavfusion.errors import ConfigError, ShapeError
from wavfusion.layers import Attention, Conv1d, Gru, LayerNorm, Linear, LvcBlock, Module
from wavfusion.rng import Prng
from wavfusion.tensor import Tensor


def conv1d_oracle(x, taps, bias):
    """Sliding-window cross-correlation with zero padding, nested loops."""
    t_len, d_in = x.shape
    k = len(taps)
    d_out = taps[0].shape[1]
    pad = (k - 1) // 2
    out = np.zeros((t_len, d_out))
    for t in range(t_len):
        for o in range(k):
            src = t + o - pad
            if 0 <= src < t_len:
                for ci in range(d_in):
                    for co in range(d_out):
                        out[t, co] += x[src, ci] * taps[o][ci, co]
        out[t] += bias
    return out


def head_block(w, i, d_head):
    """Columns of head i in a head-major projection."""
    return w.data[:, i * d_head:(i + 1) * d_head]


def attention_oracle(x, ctx, layer):
    """Dense per-head formula, straight from the definition."""
    outs = []
    for i in range(layer.heads):
        q = x @ head_block(layer.q, i, layer.d_head)
        k = ctx @ head_block(layer.k, i, layer.d_head)
        v = ctx @ head_block(layer.v, i, layer.d_head)
        scores = q @ k.T / math.sqrt(layer.d_head)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        outs.append((e / e.sum(axis=-1, keepdims=True)) @ v)
    return np.concatenate(outs, axis=-1) @ layer.out.data


def lvc_oracle(x, block):
    """Literal loops over positions and codewords."""
    taps = np.split(block.stem.weight.data, block.stem.k)
    stem = conv1d_oracle(x, taps, block.stem.bias.data)
    t_len, d = stem.shape
    centers = block.centers.data
    scales = block.scales.data
    kk = centers.shape[0]
    descriptor = np.zeros(d)
    weights = np.zeros((t_len, kk))
    for i in range(t_len):
        logits = [-scales[k] * float(((stem[i] - centers[k]) ** 2).sum()) for k in range(kk)]
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        z = sum(exps)
        for k in range(kk):
            weights[i, k] = exps[k] / z
            descriptor += weights[i, k] * (stem[i] - centers[k])
    descriptor /= t_len
    gate = 1.0 / (1.0 + np.exp(-(descriptor @ block.proj.weight.data + block.proj.bias.data)))
    return stem * gate, weights, gate


def self_attention(layer, x):
    """``layer`` attending over the one sequence ``x`` (array or Tensor)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    return layer(x, x, whole(x), whole(x))


class TestLinear:
    def test_identity_weight(self):
        layer = Linear(3, 3, Prng(0))
        layer.weight.data = np.eye(3)
        layer.bias.data = np.zeros(3)
        x = rand((4, 3), seed=1)
        npt.assert_array_equal(layer(Tensor(x)).data, x)

    def test_zero_input_gives_bias_rows(self):
        layer = Linear(3, 2, Prng(0))
        layer.bias.data = np.array([0.5, -1.0])
        out = layer(Tensor(np.zeros((4, 3))))
        npt.assert_array_equal(out.data, np.tile([0.5, -1.0], (4, 1)))

    def test_matches_matmul_add(self):
        layer = Linear(5, 4, Prng(2))
        x = rand((6, 5), seed=3)
        npt.assert_allclose(layer(Tensor(x)).data, x @ layer.weight.data + layer.bias.data,
                            atol=1e-14)

    def test_wrong_width(self):
        with pytest.raises(ShapeError):
            Linear(5, 4, Prng(0))(Tensor(np.zeros((2, 3))))

    def test_gradients(self):
        layer = Linear(3, 2, Prng(4))
        x = Tensor(rand((4, 3), seed=5), requires_grad=True)
        params = [x, layer.weight, layer.bias]
        assert fd_max_rel_error(lambda: R.sum(R.mul(layer(x), layer(x))), params) < 1e-6


class TestConv1d:
    def test_pointwise_identity(self):
        conv = Conv1d(3, 3, 1, Prng(0))
        conv.weight.data = np.eye(3)
        conv.bias.data = np.zeros(3)
        x = rand((5, 3), seed=6)
        npt.assert_allclose(conv(Tensor(x), whole(x)).data, x, atol=1e-15)

    def test_zero_input_gives_bias(self):
        conv = Conv1d(2, 4, 3, Prng(1))
        conv.bias.data = np.array([1.0, 2.0, 3.0, 4.0])
        x = Tensor(np.zeros((6, 2)))
        out = conv(x, whole(x))
        npt.assert_array_equal(out.data, np.tile(conv.bias.data, (6, 1)))

    def test_against_sliding_window_oracle(self):
        conv = Conv1d(3, 4, 5, Prng(2))
        x = rand((7, 3), seed=7)
        expect = conv1d_oracle(x, np.split(conv.weight.data, conv.k), conv.bias.data)
        npt.assert_allclose(conv(Tensor(x), whole(x)).data, expect, atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            Conv1d(3, 3, 2, Prng(0))

    def test_gradients(self):
        conv = Conv1d(2, 3, 3, Prng(3))
        x = Tensor(rand((4, 2), seed=8), requires_grad=True)
        params = [x, conv.weight, conv.bias]
        assert fd_max_rel_error(lambda: R.sum(R.mul(conv(x, whole(x)), conv(x, whole(x)))), params) < 1e-6


class TestGru:
    def test_all_zero_weights_fixed_point(self):
        gru = Gru(3, 4, Prng(0))
        for p in (gru.w, gru.u_zr, gru.u_h, gru.b):
            p.data = np.zeros_like(p.data)
        x = rand((5, 3), seed=9)
        out = gru(Tensor(x), whole(x))
        npt.assert_array_equal(out.data, np.zeros((5, 4)))

    def test_single_step_formula(self):
        gru = Gru(3, 4, Prng(1))
        x = rand((1, 3), seed=10)
        # h_0 = 0, so the reset gate cannot matter at step one
        z = 1.0 / (1.0 + np.exp(-(x @ gru.w.data[:, :4] + gru.b.data[:4])))
        cand = np.tanh(x @ gru.w.data[:, 8:] + gru.b.data[8:])
        npt.assert_allclose(gru(Tensor(x), whole(x)).data, z * cand, atol=1e-12)

    def test_output_length_matches_input(self):
        gru = Gru(2, 3, Prng(2))
        for t_len in (1, 2, 7):
            x = rand((t_len, 2), seed=t_len)
            assert gru(Tensor(x), whole(x)).shape == (t_len, 3)

    def test_hidden_values_bounded(self):
        # |h_t| <= max(|h_{t-1}|, 1) componentwise since cand in (-1,1), z in (0,1)
        for seed in range(5):
            gru = Gru(3, 4, Prng(seed))
            x = rand((8, 3), seed=100 + seed, scale=3.0)
            out = gru(Tensor(x), whole(x)).data
            prev = np.zeros(4)
            for t in range(out.shape[0]):
                bound = np.maximum(np.abs(prev), 1.0)
                assert (np.abs(out[t]) <= bound + 1e-12).all()
                prev = out[t]

    def test_gradients_t4_d3(self):
        gru = Gru(2, 3, Prng(3))
        x = Tensor(rand((4, 2), seed=11), requires_grad=True)
        params = [x, gru.w, gru.u_zr, gru.u_h, gru.b]
        assert fd_max_rel_error(lambda: R.sum(R.mul(gru(x, whole(x)), gru(x, whole(x)))), params) < 1e-3

    def test_wrong_width(self):
        with pytest.raises(ShapeError):
            x = Tensor(np.zeros((2, 5)))
            Gru(3, 4, Prng(0))(x, whole(x))


class TestAttention:
    def test_single_position_is_value_projection(self):
        layer = Attention(6, 2, Prng(0))
        x = rand((1, 6), seed=12)
        values = np.concatenate([x @ head_block(layer.v, i, 3) for i in range(2)], axis=-1)
        npt.assert_allclose(self_attention(layer, x).data, values @ layer.out.data, atol=1e-12)

    def test_identical_rows_give_identical_outputs(self):
        layer = Attention(4, 2, Prng(1))
        x = np.tile(rand((1, 4), seed=13), (5, 1))
        out = self_attention(layer, x).data
        npt.assert_allclose(out, np.tile(out[:1], (5, 1)), atol=1e-12)

    def test_permutation_invariance_with_identical_keys(self):
        layer = Attention(4, 2, Prng(2))
        row = rand((1, 4), seed=14)
        ctx = np.tile(row, (6, 1))
        x = rand((3, 4), seed=15)
        base = layer(Tensor(x), Tensor(ctx), whole(x), whole(ctx)).data
        shuffled = ctx[np.array([5, 3, 0, 1, 4, 2])]
        npt.assert_allclose(layer(Tensor(x), Tensor(shuffled), whole(x), whole(ctx)).data, base,
                            atol=1e-12)

    def test_against_dense_oracle(self):
        layer = Attention(6, 3, Prng(3))
        x = rand((5, 6), seed=16)
        ctx = rand((7, 6), seed=17)
        npt.assert_allclose(layer(Tensor(x), Tensor(ctx), whole(x), whole(ctx)).data,
                            attention_oracle(x, ctx, layer), atol=1e-10)

    def test_weights_are_distributions(self):
        layer = Attention(6, 2, Prng(4))
        x = Tensor(rand((4, 6), seed=18))
        for w in T.attention(x, x, layer.q, layer.k, layer.v, layer.out, layer.heads, whole(x),
                             whole(x))[1]:
            npt.assert_allclose(w.sum(axis=-1), np.ones(4), atol=1e-6)
            assert (w >= 0).all()

    def test_head_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Attention(6, 4, Prng(0))

    def test_gradients(self):
        layer = Attention(4, 2, Prng(5))
        x = Tensor(rand((3, 4), seed=19), requires_grad=True)
        params = [x, layer.q, layer.k, layer.v, layer.out]
        assert fd_max_rel_error(
            lambda: R.sum(R.mul(self_attention(layer, x), self_attention(layer, x))), params) < 1e-4


class TestLayerNorm:
    def test_values(self):
        ln = LayerNorm(5)
        ln.gain.data = rand((5,), seed=20) + 2.0
        ln.bias.data = rand((5,), seed=21)
        x = rand((4, 5), seed=22, scale=2.0)
        y = rand((4, 5), seed=24)
        h = x + y
        mean = h.mean(axis=-1, keepdims=True)
        var = ((h - mean) ** 2).mean(axis=-1, keepdims=True)
        expect = (h - mean) / np.sqrt(var + LayerNorm.EPS) * ln.gain.data + ln.bias.data
        npt.assert_allclose(ln(Tensor(x), Tensor(y)).data, expect, atol=1e-12)
        with pytest.raises(ShapeError, match="layer_norm"):
            ln(Tensor(x), Tensor(y[:3]))

    def test_gradients(self):
        ln = LayerNorm(3)
        x = Tensor(rand((4, 3), seed=23), requires_grad=True)
        y = Tensor(rand((4, 3), seed=25), requires_grad=True)
        probe = Tensor(rand((4, 3), seed=26))
        assert fd_max_rel_error(lambda: R.sum(R.mul(ln(x, y), probe)), [x, y, ln.gain, ln.bias]) < 1e-5


def lvc_parts(block, x):
    """The block's output on the one sequence ``x``, with the codeword
    weights [T x K] and the gate [1 x d] that its primitives return; the
    output is checked to be the primitives' own."""
    seg = whole(x)
    stem_out = block.stem(Tensor(x), seg)
    descriptor, weights = T.codebook_pool(stem_out, block.centers, block.scales, seg)
    gated, gate = T.sequence_gate(stem_out, block.proj(descriptor), seg)
    out = block(Tensor(x), seg)
    assert np.array_equal(out.data, gated.data)
    return out, weights, gate


class TestLvcBlock:
    def test_zero_residual_case(self):
        # stem output constant and equal to the single center: descriptor = 0,
        # gate = sigmoid(projection bias)
        block = LvcBlock(3, 4, 1, Prng(0))
        block.stem.weight.data = np.zeros_like(block.stem.weight.data)
        block.stem.bias.data = np.array([0.3, -0.2, 0.9, 0.1])
        block.centers.data = block.stem.bias.data[None, :].copy()
        block.proj.bias.data = np.array([0.5, -0.5, 0.0, 2.0])
        x = rand((5, 3), seed=24)
        out, weights, gate = lvc_parts(block, x)
        npt.assert_allclose(weights, np.ones((5, 1)), atol=1e-12)
        expect_gate = 1.0 / (1.0 + np.exp(-block.proj.bias.data))
        npt.assert_allclose(gate, expect_gate[None, :], atol=1e-12)  # one row per sequence
        npt.assert_allclose(out.data, np.tile(block.stem.bias.data * expect_gate, (5, 1)),
                            atol=1e-12)

    def test_output_shape(self):
        for t_len, d in ((1, 2), (4, 6), (9, 4)):
            block = LvcBlock(3, d, 4, Prng(1))
            x = rand((t_len, 3), seed=t_len)
            assert block(Tensor(x), whole(x)).shape == (t_len, d)

    def test_against_loop_oracle(self):
        block = LvcBlock(3, 5, 4, Prng(2))
        x = rand((6, 3), seed=25)
        out, weights, gate = lvc_parts(block, x)
        expect_out, expect_weights, expect_gate = lvc_oracle(x, block)
        npt.assert_allclose(weights, expect_weights, atol=1e-10)
        npt.assert_allclose(gate, expect_gate[None, :], atol=1e-10)
        npt.assert_allclose(out.data, expect_out, atol=1e-10)

    def test_codeword_weights_normalize(self):
        block = LvcBlock(2, 4, 5, Prng(3))
        for seed in range(4):
            x = rand((5, 2), seed=30 + seed, scale=2.0)
            _, weights, _ = lvc_parts(block, x)
            npt.assert_allclose(weights.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_gate_strictly_inside_unit_interval(self):
        block = LvcBlock(2, 4, 3, Prng(4))
        for seed in range(4):
            x = rand((4, 2), seed=40 + seed, scale=4.0)
            _, _, gate = lvc_parts(block, x)
            assert (gate > 0).all() and (gate < 1).all()

    def test_empty_codebook_rejected(self):
        with pytest.raises(ConfigError):
            LvcBlock(3, 4, 0, Prng(0))

    def test_gradients(self):
        block = LvcBlock(2, 3, 2, Prng(5))
        x = Tensor(rand((3, 2), seed=26), requires_grad=True)
        params = [x, block.centers, block.scales, block.proj.weight, block.proj.bias,
                  block.stem.bias, block.stem.weight]
        assert fd_max_rel_error(lambda: R.sum(R.mul(block(x, whole(x)), block(x, whole(x)))), params) < 1e-4


class TestInputShapes:
    """Each layer leaves its input checks to the primitive it calls, which
    names itself in the error. Sequence layers get each input's one-sequence
    layout after the inputs; a rank-3 input to the convolution reaches
    ``affine`` as a rank-3 window stack."""

    @pytest.mark.parametrize("layer,shapes,where", [
        (Linear(5, 4, Prng(0)), [(2, 1, 5)], "affine"),
        (Conv1d(3, 4, 3, Prng(0)), [(6, 2)], "affine"),
        (Conv1d(3, 4, 3, Prng(0)), [(6, 1, 3)], "affine"),
        (Gru(3, 4, Prng(0)), [(2, 1, 3)], "affine"),
        (Attention(4, 2, Prng(0)), [(3, 6), (3, 6)], "attention"),
        (Attention(4, 2, Prng(0)), [(3, 4), (2, 6)], "attention"),
        (LayerNorm(5), [(4, 3), (4, 3)], "layer_norm"),
        (LvcBlock(3, 4, 2, Prng(0)), [(5, 2)], "affine"),
    ])
    def test_mismatch_raises(self, layer, shapes, where):
        xs = [Tensor(np.zeros(s)) for s in shapes]
        layouts = [] if isinstance(layer, (Linear, LayerNorm)) else [whole(x) for x in xs]
        with pytest.raises(ShapeError, match=where):
            layer(*xs, *layouts)


class TestModule:
    def test_parameters_found_in_attributes(self):
        class Net(Module):
            def __init__(self):
                self.width = 3
                self.first = Linear(2, 3, Prng(0))
                self.frozen = Tensor(np.ones(3))
                self.scale = Tensor(np.ones(3), requires_grad=True)
                self.blocks = [LayerNorm(3), LayerNorm(3)]

        net = Net()
        named = net.named_parameters("net.")
        assert [name for name, _ in named] == [
            "net.first.weight", "net.first.bias", "net.scale", "net.blocks.0.gain",
            "net.blocks.0.bias", "net.blocks.1.gain", "net.blocks.1.bias"]
        assert [p for _, p in named] == [net.first.weight, net.first.bias, net.scale,
                                         net.blocks[0].gain, net.blocks[0].bias,
                                         net.blocks[1].gain, net.blocks[1].bias]
        assert [name for name, _ in net.named_parameters()][:1] == ["first.weight"]

    def test_group_names_its_parts_by_keyword_in_order(self):
        norm, linear = LayerNorm(2), Linear(2, 2, Prng(0))
        group = Module(norm=norm, proj=linear, steps=3)
        assert group.norm is norm and group.proj is linear and group.steps == 3
        assert group.named_parameters("g.") == [
            ("g.norm.gain", norm.gain), ("g.norm.bias", norm.bias),
            ("g.proj.weight", linear.weight), ("g.proj.bias", linear.bias)]
