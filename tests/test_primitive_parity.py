"""Float64 parity of the one-node layer primitives (``tensor.layer_norm``,
``tensor.attention_core``, ``tensor.gru``) with the composite graphs they
replaced, and finite differences on each.

The ``composite_*`` functions are the earlier layers, built from the basic
ops, kept here only as the reference. They run the same arithmetic in the
same order, so values agree to the last bit or nearly; the closed-form
adjoints sum in another order, so gradients agree within 1e-12 of their
largest entry. One change from the earlier code: column cuts, which had
their own op, are two transposes around a row gather here; both are exact.
"""

import math

import numpy as np
import pytest

from helpers import fd_max_rel_error, rand
from wavfusion import tensor as T
from wavfusion.gradcheck import synthetic_batch
from wavfusion.layers import Attention, Gru, LayerNorm, Segments
from wavfusion.model import WavFusionModel
from wavfusion.tensor import Tensor
from wavfusion.train import batch_objective


def composite_layer_norm(x, gain, bias, eps):
    n = x.shape[1]
    mean = x.sum_last_keep().scale(1.0 / n)
    centered = x.sub_col(mean)
    var = (centered * centered).sum_last_keep().scale(1.0 / n)
    std = (var + eps).sqrt()
    return centered.div_col(std).mul_row(gain).add_row(bias)


def composite_attention_core(q, k, v, heads, seg, ctx_seg):
    d_head = q.shape[1] // heads

    def blocks(x, s):
        """One zero-padded [T_max x d_head] block per sequence and head."""
        rows = s.padded[:, None, :] * heads + np.arange(heads)[:, None]
        index = np.where(s.valid[:, None, :], rows, -1).reshape(s.count * heads, s.t_max)
        return x.reshape((s.total, heads, d_head)).take_rows(index)

    scores = (blocks(q, seg) @ blocks(k, ctx_seg).transpose()).scale(1.0 / math.sqrt(d_head))
    mask = np.repeat(np.where(ctx_seg.valid, 0.0, -np.inf), heads, axis=0)[:, None, :]
    mask = Tensor(np.broadcast_to(mask, scores.shape).astype(scores.data.dtype))
    out = (scores + mask).softmax(axis=-1) @ blocks(v, ctx_seg)
    back = (seg.ids[:, None] * heads + np.arange(heads)) * seg.t_max + seg.positions[:, None]
    return out.take_rows(back).reshape((seg.total, q.shape[1]))


def columns(x, start, stop):
    return x.transpose().take_rows(np.arange(start, stop)).transpose()


def composite_gru(pre, u_zr, u_h, seg):
    d, b = u_h.shape[0], seg.count
    steps_in = pre.take_rows(seg.time_major)
    pre_zr, pre_h = columns(steps_in, 0, 2 * d), columns(steps_in, 2 * d, 3 * d)
    h = Tensor(np.zeros((b, d), dtype=pre.data.dtype))
    steps = []
    for t in range(seg.t_max):
        rows = (t * b, (t + 1) * b)
        zr = (pre_zr.slice_rows(*rows) + h @ u_zr).sigmoid()
        z, r = columns(zr, 0, d), columns(zr, d, 2 * d)
        cand = (pre_h.slice_rows(*rows) + (r * h) @ u_h).tanh()
        h = (z.scale(-1.0) + 1.0) * h + z * cand
        steps.append(h)
    return T.concat(steps, axis=0).take_rows(seg.from_time_major)


# float32 sums round at ~6e-8; the two paths group them differently
TOL = {np.float64: 1e-12, np.float32: 1e-5}


def assert_rel_close(actual, expected, tol, what):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    err = float(np.max(np.abs(actual - expected)))
    assert err <= tol * scale, f"{what}: differs by {err:.3e} of {scale:.3e}"


def check_parity(fused, composite, shapes, dtype=np.float64, seed=0):
    """Same value and the same gradient for every input, under a random
    linear probe of the output."""
    arrays = [rand(s, seed=seed + i).astype(dtype) for i, s in enumerate(shapes)]
    results = []
    for op in (fused, composite):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*leaves)
        (out * Tensor(rand(out.shape, seed=99).astype(dtype))).sum().backward()
        assert out.data.dtype == dtype
        results.append((out.data, [leaf.grad for leaf in leaves]))
    (value, grads), (ref_value, ref_grads) = results
    assert_rel_close(value, ref_value, TOL[dtype], "value")
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.dtype == dtype
        assert_rel_close(g, ref, TOL[dtype], f"gradient of input {i}")


def check_fd(op, shapes, seed=0):
    leaves = [Tensor(rand(s, seed=seed + i), requires_grad=True) for i, s in enumerate(shapes)]
    probe = None

    def loss():
        nonlocal probe
        out = op(*leaves)
        probe = rand(out.shape, seed=98) if probe is None else probe
        return (out * Tensor(probe)).sum()
    assert fd_max_rel_error(loss, leaves) < 1e-6


# (query lengths, context lengths): one sequence; mixed lengths with
# length-1 sequences; a context longer, then shorter, than its query
LAYOUTS = [([4], [4]), ([1, 5, 3, 1], [2, 1, 4, 3]), ([2, 3], [6, 5]), ([6, 5], [1, 2])]
GRU_LAYOUTS = [[1], [5], [1, 4, 1, 3], [1, 1, 1]]     # T_max = 1 in the first and last


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows,width", [(1, 4), (5, 8)])
    def test_parity(self, rows, width, dtype):
        shapes = [(rows, width), (width,), (width,)]
        check_parity(lambda x, g, b: T.layer_norm(x, g, b, 1e-5),
                     lambda x, g, b: composite_layer_norm(x, g, b, 1e-5), shapes, dtype)

    def test_values_are_bit_identical(self):
        x, g, b = (Tensor(rand(s, seed=i)) for i, s in enumerate(((6, 8), (8,), (8,))))
        np.testing.assert_array_equal(T.layer_norm(x, g, b, 1e-5).data,
                                      composite_layer_norm(x, g, b, 1e-5).data)

    def test_finite_differences(self):
        check_fd(lambda x, g, b: T.layer_norm(x, g, b, 1e-5), [(4, 5), (5,), (5,)])


class TestAttentionCore:
    @staticmethod
    def ops(heads, lengths, ctx_lengths):
        seg, ctx_seg = Segments(lengths), Segments(ctx_lengths)
        return (lambda q, k, v: T.attention_core(q, k, v, heads, seg, ctx_seg),
                lambda q, k, v: composite_attention_core(q, k, v, heads, seg, ctx_seg),
                [(seg.total, 8), (ctx_seg.total, 8), (ctx_seg.total, 8)])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lengths,ctx_lengths", LAYOUTS)
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_parity(self, heads, lengths, ctx_lengths, dtype):
        fused, composite, shapes = self.ops(heads, lengths, ctx_lengths)
        check_parity(fused, composite, shapes, dtype, seed=heads)

    @pytest.mark.parametrize("lengths,ctx_lengths", LAYOUTS[1:])
    def test_finite_differences(self, lengths, ctx_lengths):
        fused, _, shapes = self.ops(2, lengths, ctx_lengths)
        check_fd(fused, shapes)


class TestGru:
    @staticmethod
    def ops(lengths, d=4):
        seg = Segments(lengths)
        return (lambda pre, u_zr, u_h: T.gru(pre, u_zr, u_h, seg),
                lambda pre, u_zr, u_h: composite_gru(pre, u_zr, u_h, seg),
                [(seg.total, 3 * d), (d, 2 * d), (d, d)])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lengths", GRU_LAYOUTS)
    def test_parity(self, lengths, dtype):
        fused, composite, shapes = self.ops(lengths)
        check_parity(fused, composite, shapes, dtype)

    def test_values_are_bit_identical(self):
        fused, composite, shapes = self.ops([3, 1, 5, 2])
        ins = [Tensor(rand(s, seed=i)) for i, s in enumerate(shapes)]
        np.testing.assert_array_equal(fused(*ins).data, composite(*ins).data)

    @pytest.mark.parametrize("lengths", GRU_LAYOUTS[1:3])
    def test_finite_differences(self, lengths):
        fused, _, shapes = self.ops(lengths, d=3)
        check_fd(fused, shapes)


def use_composite_layers(monkeypatch):
    """Route ``LayerNorm``, ``Attention`` and ``Gru`` through the composite graphs."""
    def attention(self, x, ctx=None, seg=None, ctx_seg=None):
        seg = Segments.of(x, seg)
        ctx, ctx_seg = (x, seg) if ctx is None else (ctx, Segments.of(ctx, ctx_seg))
        core = composite_attention_core(x @ self.wq, ctx @ self.wk, ctx @ self.wv, self.heads,
                                        seg, ctx_seg)
        return core @ self.wo

    monkeypatch.setattr(LayerNorm, "__call__",
                        lambda self, x: composite_layer_norm(x, self.gain, self.bias, self.EPS))
    monkeypatch.setattr(Attention, "__call__", attention)
    monkeypatch.setattr(Gru, "__call__", lambda self, x, seg=None: composite_gru(
        (x @ self.w).add_row(self.b), self.u_zr, self.u_h, Segments.of(x, seg)))


# the benchmark's two model configs, batch sizes and longest sequences
WORKLOADS = {
    "paper-b8": (dict(d=64, heads=4, n_shallow=9, n_deep=3, lvc_centers=8), 8, 20),
    "margin-b16": (dict(d=16, heads=2, n_shallow=2, n_deep=1, lvc_centers=4), 16, 10),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_whole_batch_parity(workload, monkeypatch):
    size, batch, t_max = WORKLOADS[workload]
    dims = {"a": 12, "t": 10, "v": 8}
    samples = synthetic_batch(3, dims, 4, batch, t_max=t_max)
    results = []
    for composite in (False, True):
        if composite:
            use_composite_layers(monkeypatch)
        model = WavFusionModel(num_classes=4, feature_dims=dims, seed=5, **size)
        loss, _, _, _ = batch_objective(model, samples, ("a", "t", "v"), 0.5, 1.0)
        loss.backward()
        results.append((float(loss.data), {n: p.grad for n, p in model.named_parameters()}))
    (loss, grads), (ref_loss, ref_grads) = results
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert_rel_close(grads[name], ref, 1e-12, name)
