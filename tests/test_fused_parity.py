"""Float64 parity of the fused attention, GRU and conv layers with the
per-head, per-gate and per-tap layers they replaced, and graph-size bounds.
(The packed batch against per-sample passes is in ``test_packed_parity``.)

The ``Legacy*`` classes are the earlier layers, kept here only as the
reference: one weight per head and role, one per gate, one per tap. Each
fused parameter is the concatenation of the legacy blocks drawn from the
same RNG streams, so both start from the same numbers.
"""

import functools
import math
import operator

import numpy as np
import numpy.testing as npt
import pytest

import refops as R
from helpers import graph_nodes, rand, whole
from wavfusion import tensor as T
from wavfusion.gradcheck import synthetic_batch
from wavfusion.layers import (Attention, Conv1d, Gru, LayerNorm, Linear, LvcBlock, Segments,
                              _param, xavier_uniform)
from wavfusion.losses import cross_entropy
from wavfusion.model import WavFusionModel, gated_fuse
from wavfusion.rng import Prng
from wavfusion.tensor import Tensor
from wavfusion.train import batch_objective


class LegacyConv1d:
    def __init__(self, d_in, d_out, k, rng):
        self.k = k
        self.taps = [_param(xavier_uniform(rng.child(o), k * d_in, d_out, (d_in, d_out)))
                     for o in range(k)]
        self.bias = _param(np.zeros(d_out))

    def __call__(self, x):
        t_len = x.shape[0]
        pad = (self.k - 1) // 2
        zeros = Tensor(np.zeros((pad, x.shape[1])))
        xp = T.concat([zeros, x, zeros], axis=0)
        terms = [xp.take_rows(np.arange(o, o + t_len)) @ tap for o, tap in enumerate(self.taps)]
        return R.add_row(functools.reduce(operator.add, terms), self.bias)


class LegacyGru:
    def __init__(self, d_in, d_h, rng):
        self.d_h = d_h
        gates = ("z", "r", "h")
        self.w = {g: _param(xavier_uniform(rng.child(i), d_in, d_h, (d_in, d_h)))
                  for i, g in enumerate(gates)}
        self.u = {g: _param(xavier_uniform(rng.child(3 + i), d_h, d_h, (d_h, d_h)))
                  for i, g in enumerate(gates)}
        self.b = {g: _param(np.zeros(d_h)) for g in gates}

    def __call__(self, x):
        pre = {g: R.add_row(x @ self.w[g], self.b[g]) for g in ("z", "r", "h")}
        h = Tensor(np.zeros((1, self.d_h)))
        steps = []
        for t in range(x.shape[0]):
            z = R.sigmoid(pre["z"].take_rows(np.arange(t, t + 1)) + h @ self.u["z"])
            r = R.sigmoid(pre["r"].take_rows(np.arange(t, t + 1)) + h @ self.u["r"])
            cand = R.tanh(pre["h"].take_rows(np.arange(t, t + 1)) + R.mul(r, h) @ self.u["h"])
            h = R.mul(R.shift(z.scale(-1.0), 1.0), h) + R.mul(z, cand)
            steps.append(h)
        return T.concat(steps, axis=0)


class LegacyAttention:
    def __init__(self, d, heads, rng):
        self.heads = heads
        self.d_head = d // heads
        self.wq = [_param(xavier_uniform(rng.child(3 * i), d, self.d_head, (d, self.d_head)))
                   for i in range(heads)]
        self.wk = [_param(xavier_uniform(rng.child(3 * i + 1), d, self.d_head, (d, self.d_head)))
                   for i in range(heads)]
        self.wv = [_param(xavier_uniform(rng.child(3 * i + 2), d, self.d_head, (d, self.d_head)))
                   for i in range(heads)]
        self.wo = _param(xavier_uniform(rng.child(3 * heads), d, d, (d, d)))

    def __call__(self, x, ctx=None):
        ctx = x if ctx is None else ctx
        inv = 1.0 / math.sqrt(self.d_head)
        outs = []
        for i in range(self.heads):
            q = x @ self.wq[i]
            k = ctx @ self.wk[i]
            v = ctx @ self.wv[i]
            weights = R.softmax((q @ R.transpose(k)).scale(inv), axis=-1)
            outs.append(weights @ v)
        return T.concat(outs, axis=-1) @ self.wo


def assert_rel_close(actual, expected, tol=1e-12):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= tol * scale


def check_parity(new, old, inputs, pairs):
    """Same output within 1e-12, and the same gradient for every input and
    every (fused parameter, legacy blocks, concatenation axis) pair. ``new``
    calls the fused layer on the inputs, each one sequence."""
    for fused, blocks, axis in pairs:
        npt.assert_array_equal(fused.data, np.concatenate([b.data for b in blocks], axis=axis))
    grads = []
    for layer in (new, old):
        leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        out = layer(*leaves)
        probe = rand(out.shape, seed=99)
        R.probe(out, probe).backward()
        grads.append((out.data, [leaf.grad for leaf in leaves]))
    (out_new, in_new), (out_old, in_old) = grads
    assert float(np.max(np.abs(out_new - out_old))) <= 1e-12
    for g_new, g_old in zip(in_new, in_old):
        assert_rel_close(g_new, g_old)
    for fused, blocks, axis in pairs:
        assert_rel_close(fused.grad, np.concatenate([b.grad for b in blocks], axis=axis))


class TestFusedParity:
    @pytest.mark.parametrize("d,heads", [(16, 2), (64, 4), (8, 1)])
    @pytest.mark.parametrize("cross", [False, True])
    def test_attention(self, d, heads, cross):
        new, old = Attention(d, heads, Prng(d + heads)), LegacyAttention(d, heads, Prng(d + heads))
        inputs = [rand((7, d), seed=1)] + ([rand((5, d), seed=2)] if cross else [])

        def run(x, ctx=None):
            ctx = x if ctx is None else ctx
            return new(x, ctx, whole(x), whole(ctx))
        check_parity(run, old, inputs,
                     [(new.q, old.wq, 1), (new.k, old.wk, 1), (new.v, old.wv, 1),
                      (new.out, [old.wo], 1)])

    @pytest.mark.parametrize("d_in,d_h,t_len", [(10, 16, 8), (8, 64, 5), (3, 4, 1)])
    def test_gru(self, d_in, d_h, t_len):
        new, old = Gru(d_in, d_h, Prng(7)), LegacyGru(d_in, d_h, Prng(7))
        new.b.data = rand((3 * d_h,), seed=8, scale=0.5)   # nonzero biases
        for i, g in enumerate("zrh"):
            old.b[g].data = new.b.data[i * d_h:(i + 1) * d_h].copy()
        check_parity(lambda x: new(x, whole(x)), old, [rand((t_len, d_in), seed=3)],
                     [(new.w, [old.w[g] for g in "zrh"], 1),
                      (new.b, [old.b[g] for g in "zrh"], 0),
                      (new.u_zr, [old.u["z"], old.u["r"]], 1), (new.u_h, [old.u["h"]], 1)])

    @pytest.mark.parametrize("d_in,d_out,k,t_len", [(8, 64, 3, 6), (3, 4, 5, 7), (2, 3, 1, 4)])
    def test_conv1d(self, d_in, d_out, k, t_len):
        new, old = Conv1d(d_in, d_out, k, Prng(11)), LegacyConv1d(d_in, d_out, k, Prng(11))
        check_parity(lambda x: new(x, whole(x)), old, [rand((t_len, d_in), seed=4)],
                     [(new.weight, old.taps, 0), (new.bias, [old.bias], 0)])


class TestGraphSize:
    def test_attention_nodes_independent_of_heads(self):
        # tensor.attention with its projections; three projections, the core
        # and the output map were five nodes, with the composite core 21, and
        # 22 before batches were packed
        counts = []
        for heads in (1, 2, 4):
            x = Tensor(rand((6, 8), seed=5), requires_grad=True)
            ctx = Tensor(rand((4, 8), seed=6))
            counts.append(graph_nodes(Attention(8, heads, Prng(0))(x, ctx, whole(x), whole(ctx))))
            counts.append(graph_nodes(Attention(8, heads, Prng(0))(x, x, whole(x), whole(x))))
        assert counts == [1] * 6

    def test_layer_norm_and_gru_nodes(self):
        # LayerNorm with its residual add was 12 nodes, then 2; the GRU 16
        # per time step plus 5, then 3 (input matmul, bias and recurrence)
        x = Tensor(rand((6, 8), seed=7), requires_grad=True)
        assert graph_nodes(LayerNorm(8)(x, Tensor(rand((6, 8), seed=8)))) == 1
        for lengths in ([6], [1, 2, 3]):
            assert graph_nodes(Gru(8, 4, Prng(0))(x, Segments(lengths))) == 2

    def test_loss_fuse_and_lvc_nodes(self):
        # cross-entropy was 9 nodes, the gated fuse 8 (with its concat and
        # affine) and the LVC block after its stem 24
        for n in (1, 5, 64):
            logits = Tensor(rand((n, 4), seed=n), requires_grad=True)
            assert graph_nodes(cross_entropy(logits, [i % 4 for i in range(n)])) == 1
        a, b = (Tensor(rand((6, 8), seed=s), requires_grad=True) for s in (9, 10))
        assert graph_nodes(gated_fuse(a, b, Linear(16, 8, Prng(1)))[0]) == 3
        block, seg = LvcBlock(3, 8, 4, Prng(2)), Segments([1, 4, 2])
        x = Tensor(rand((7, 3), seed=11), requires_grad=True)
        assert graph_nodes(block(x, seg)) - graph_nodes(block.stem(x, seg)) == 3

    @pytest.mark.parametrize("size,bound", [
        (dict(d=16, heads=2, n_shallow=2, n_deep=1, lvc_centers=4), 45),
        (dict(d=64, heads=4, n_shallow=9, n_deep=3, lvc_centers=8), 91),
    ])
    def test_nodes_per_batch(self, size, bound):
        # one graph per batch of 8: 45 and 91 nodes. Five-node attention
        # built 69 and 159; the composite cross-entropy, gated fuse and LVC
        # gate 103 and 203; two-node Linear, five-node FeedForward, the add before each
        # LayerNorm and the per-row margin loss built 171 and 329; the
        # composite LayerNorm, attention core and GRU 705 and
        # 1,195; a graph per sample 3,932 and 7,940 for the same batch (492
        # and 993 per sample); the per-head, per-gate, per-tap layers 525 and
        # 1,298 per sample
        dims = {"a": 12, "t": 10, "v": 8}
        model = WavFusionModel(num_classes=4, feature_dims=dims, seed=0, **size)
        samples = synthetic_batch(0, dims, 4, 8, t_max=12)
        loss, _, _, _ = batch_objective(model, samples, ("a", "t", "v"), 0.5, 1.0)
        assert graph_nodes(loss) <= bound
