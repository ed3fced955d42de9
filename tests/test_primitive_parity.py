"""Float64 parity of the one-node primitives (``tensor.affine``,
``tensor.feed_forward``, ``tensor.layer_norm`` with its residual add,
``tensor.attention`` with its projections, ``tensor.gru``, the gated fuse's
``tensor.gated_mix``, the LVC block's ``tensor.codebook_pool`` and
``tensor.sequence_gate``, the margin loss's ``tensor.cosine_margin`` and
cross-entropy's ``tensor.softmax_nll``) with the composite graphs they
replaced, and finite differences on each.

The ``composite_*`` functions are the earlier layers and losses, built from
the reference ops of ``refops``, kept here only as the reference. They run the same
arithmetic in the same order, so values agree to the last bit or nearly;
the closed-form adjoints sum in another order, so gradients agree within
1e-12 of their largest entry. One change from the earlier code: column
cuts, which had their own op, are two transposes around a row gather here;
both are exact.
"""

import math

import numpy as np
import pytest

import refops as R
from helpers import fd_max_rel_error, rand
from wavfusion import tensor as T
from wavfusion import train
from wavfusion.errors import DataError
from wavfusion.gradcheck import synthetic_batch
from wavfusion.layers import Segments
from wavfusion.losses import Embeddings, build_triplets, margin_loss
from wavfusion.model import WavFusionModel
from wavfusion.tensor import Tensor
from wavfusion.train import batch_objective


def composite_affine(x, weight, bias):
    return R.add_row(x @ weight, bias)


def composite_feed_forward(x, w1, b1, w2, b2):
    return composite_affine(R.tanh(composite_affine(x, w1, b1)), w2, b2)


def composite_layer_norm(x, residual, gain, bias, eps):
    x = x + residual
    n = x.shape[1]
    mean = R.sum_last_keep(x).scale(1.0 / n)
    centered = R.sub_col(x, mean)
    var = R.sum_last_keep(R.mul(centered, centered)).scale(1.0 / n)
    std = R.sqrt(R.shift(var, eps))
    return R.add_row(R.mul_row(R.div_col(centered, std), gain), bias)


def composite_attention_core(q, k, v, heads, seg, ctx_seg):
    d_head = q.shape[1] // heads

    def blocks(x, s):
        """One zero-padded [T_max x d_head] block per sequence and head."""
        rows = s.padded[:, None, :] * heads + np.arange(heads)[:, None]
        index = np.where(s.valid[:, None, :], rows, -1).reshape(s.count * heads, s.t_max)
        return x.reshape((s.total, heads, d_head)).take_rows(index)

    scores = (blocks(q, seg) @ R.transpose(blocks(k, ctx_seg))).scale(1.0 / math.sqrt(d_head))
    mask = np.repeat(np.where(ctx_seg.valid, 0.0, -np.inf), heads, axis=0)[:, None, :]
    mask = Tensor(np.broadcast_to(mask, scores.shape).astype(scores.data.dtype))
    weights = R.softmax(scores + mask, axis=-1)
    out = weights @ blocks(v, ctx_seg)
    back = (seg.ids[:, None] * heads + np.arange(heads)) * seg.t_max + seg.positions[:, None]
    return out.take_rows(back).reshape((seg.total, q.shape[1])), weights.data


def composite_attention(x, ctx, wq, wk, wv, wo, heads, seg, ctx_seg):
    """Attention as five nodes before it was one: the three projections,
    the core (here its composite) and the output map; with the weights."""
    out, weights = composite_attention_core(x @ wq, ctx @ wk, ctx @ wv, heads, seg, ctx_seg)
    return out @ wo, weights


def columns(x, start, stop):
    return R.transpose(R.transpose(x).take_rows(np.arange(start, stop)))


def composite_gru(pre, u_zr, u_h, seg):
    d, b = u_h.shape[0], seg.count
    steps_in = pre.take_rows(seg.time_major)
    pre_zr, pre_h = columns(steps_in, 0, 2 * d), columns(steps_in, 2 * d, 3 * d)
    h = Tensor(np.zeros((b, d), dtype=pre.data.dtype))
    steps = []
    for t in range(seg.t_max):
        rows = np.arange(t * b, (t + 1) * b)
        zr = R.sigmoid(pre_zr.take_rows(rows) + h @ u_zr)
        z, r = columns(zr, 0, d), columns(zr, d, 2 * d)
        cand = R.tanh(pre_h.take_rows(rows) + R.mul(r, h) @ u_h)
        h = R.mul(R.shift(z.scale(-1.0), 1.0), h) + R.mul(z, cand)
        steps.append(h)
    return T.concat(steps, axis=0).take_rows(seg.from_time_major)


def composite_margin_loss(embeddings, triplets, alpha, strict=False):
    """The margin loss as a 16-node graph over a list of [1 x d] rows: the
    cosine matrix of the row-normalized batch and two ``gather``s of it at
    the [T x 3] triplet index."""
    if not triplets:
        dtype = embeddings[0].data.dtype if len(embeddings) else np.float64
        return Tensor(np.zeros((), dtype=dtype))
    idx = np.asarray(getattr(triplets, "index", triplets), dtype=np.intp).reshape(-1, 3)
    anchor, positive, negative = idx.T
    e = T.concat(list(embeddings), axis=0)                  # [N x d]
    sq = R.sum_last_keep(R.mul(e, e))                       # [N x 1]
    zero = sq.data == 0.0
    if zero.any() and strict:
        raise DataError(f"zero-norm embedding at index {int(np.argmax(zero))}")
    # zero rows get norm 1 (finite adjoints) and are then masked to exactly 0
    norm = R.sqrt(sq + Tensor(zero.astype(sq.data.dtype)))
    unit = R.mul_col(R.div_col(e, norm), Tensor((~zero).astype(sq.data.dtype)))
    cos = unit @ R.transpose(unit)                          # [N x N]
    hinge = R.relu(R.shift(R.sub(R.gather(cos, anchor, negative), R.gather(cos, anchor, positive)),
                           alpha))
    return R.sum(hinge).scale(1.0 / len(idx))


def composite_softmax_nll(logits, labels):
    """Cross-entropy as 9 nodes: the max-subtracted log-sum-exp of each row
    minus the ``gather``ed label logit."""
    n = len(labels)
    row_max = Tensor(logits.data.max(axis=-1, keepdims=True))
    shifted = R.sub_col(logits, row_max)
    log_norm = R.log(R.sum_last_keep(R.exp(shifted)))          # [N x 1]
    picked = R.gather(shifted, np.arange(n), [int(x) for x in labels]).reshape((n, 1))
    return R.sum(R.sub(log_norm, picked)).scale(1.0 / n)


def composite_gated_mix(pre, a, b):
    """The gated fuse after its affine: sigmoid, two products, a scale, a
    shift and an add."""
    gate = R.sigmoid(pre)
    return R.mul(gate, a) + R.mul(R.shift(gate.scale(-1.0), 1.0), b), gate.data


def composite_codebook_pool(x, centers, scales, seg):
    """The LVC block's soft assignment and aggregation as 20 nodes."""
    dtype = x.data.dtype
    x_sq = R.sum_last_keep(R.mul(x, x))                                 # [T x 1]
    c_sq = R.sum_last_keep(R.mul(centers, centers)).reshape((centers.shape[0],))
    cross = x @ R.transpose(centers)                                    # [T x K]
    dist_sq = R.add_row(R.add_col(cross.scale(-2.0), x_sq), c_sq)
    assign = R.softmax(R.mul_row(dist_sq, scales).scale(-1.0), axis=-1)
    sums = Tensor(seg.pooling(dtype, mean=False))                       # [B x T]
    pooled = sums @ R.mul_col(x, R.sum_last_keep(assign))              # sum_i sum_k w_ik x_i
    center_mass = (sums @ assign) @ centers                             # sum_i sum_k w_ik c_k
    inv_len = Tensor((1.0 / seg.lengths)[:, None].astype(dtype))
    return R.mul_col(R.sub(pooled, center_mass), inv_len), assign.data


def composite_sequence_gate(x, pre, seg):
    gate = R.sigmoid(pre)
    return R.mul(x, gate.take_rows(seg.ids)), gate.data


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
        R.probe(out, rand(out.shape, seed=99)).backward()
        assert out.data.dtype == dtype
        results.append((out.data, [leaf.grad for leaf in leaves]))
    (value, grads), (ref_value, ref_grads) = results
    assert_rel_close(value, ref_value, TOL[dtype], "value")
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.dtype == dtype
        assert_rel_close(g, ref, TOL[dtype], f"gradient of input {i}")


def check_fd(op, shapes, seed=0, eps=1e-4, scale=1.0):
    leaves = [Tensor(rand(s, seed=seed + i, scale=scale), requires_grad=True)
              for i, s in enumerate(shapes)]
    probe = None

    def loss():
        nonlocal probe
        out = op(*leaves)
        probe = rand(out.shape, seed=98) if probe is None else probe
        return R.probe(out, probe)
    assert fd_max_rel_error(loss, leaves, eps) < 1e-6


# (query lengths, context lengths): one sequence; mixed lengths with
# length-1 sequences; a context longer, then shorter, than its query
LAYOUTS = [([4], [4]), ([1, 5, 3, 1], [2, 1, 4, 3]), ([2, 3], [6, 5]), ([6, 5], [1, 2])]
GRU_LAYOUTS = [[1], [5], [1, 4, 1, 3], [1, 1, 1]]     # T_max = 1 in the first and last


class TestAffine:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows,d_in,d_out", [(1, 3, 4), (6, 8, 5)])
    def test_parity(self, rows, d_in, d_out, dtype):
        check_parity(T.affine, composite_affine, [(rows, d_in), (d_in, d_out), (d_out,)], dtype)

    def test_values_are_bit_identical(self):
        ins = [Tensor(rand(s, seed=i)) for i, s in enumerate(((5, 3), (3, 4), (4,)))]
        np.testing.assert_array_equal(T.affine(*ins).data, composite_affine(*ins).data)

    def test_finite_differences(self):
        check_fd(T.affine, [(4, 3), (3, 2), (2,)])


class TestFeedForward:
    SHAPES = [(5, 4), (4, 16), (16,), (16, 4), (4,)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_parity(self, dtype):
        check_parity(T.feed_forward, composite_feed_forward, self.SHAPES, dtype)

    def test_values_are_bit_identical(self):
        ins = [Tensor(rand(s, seed=i)) for i, s in enumerate(self.SHAPES)]
        np.testing.assert_array_equal(T.feed_forward(*ins).data,
                                      composite_feed_forward(*ins).data)

    def test_finite_differences(self):
        check_fd(T.feed_forward, [(3, 2), (2, 5), (5,), (5, 3), (3,)])


class TestLayerNorm:
    """``tensor.layer_norm`` of a residual sum against the add node and the
    composite LayerNorm after it."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows,width", [(1, 4), (5, 8)])
    def test_parity(self, rows, width, dtype):
        shapes = [(rows, width), (rows, width), (width,), (width,)]
        check_parity(lambda x, y, g, b: T.layer_norm(x, y, g, b, 1e-5),
                     lambda x, y, g, b: composite_layer_norm(x, y, g, b, 1e-5), shapes, dtype)

    def test_values_are_bit_identical(self):
        ins = [Tensor(rand(s, seed=i)) for i, s in enumerate(((6, 8), (6, 8), (8,), (8,)))]
        np.testing.assert_array_equal(T.layer_norm(*ins, 1e-5).data,
                                      composite_layer_norm(*ins, 1e-5).data)

    def test_finite_differences(self):
        check_fd(lambda x, y, g, b: T.layer_norm(x, y, g, b, 1e-5), [(4, 5), (4, 5), (5,), (5,)])


class TestAttentionCore:
    """``tensor.attention``, projections and core in one node, against the
    five-node path: across contexts (``test_parity``) and on itself."""

    @staticmethod
    def ops(heads, lengths, ctx_lengths):
        seg = Segments(lengths)
        if ctx_lengths is None:
            return (lambda x, *ws: T.attention(x, x, *ws, heads, seg, seg)[0],
                    lambda x, *ws: composite_attention(x, x, *ws, heads, seg, seg)[0],
                    [(seg.total, 8)] + [(8, 8)] * 4)
        ctx_seg = Segments(ctx_lengths)
        return (lambda x, c, *ws: T.attention(x, c, *ws, heads, seg, ctx_seg)[0],
                lambda x, c, *ws: composite_attention(x, c, *ws, heads, seg, ctx_seg)[0],
                [(seg.total, 8), (ctx_seg.total, 8)] + [(8, 8)] * 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lengths,ctx_lengths", LAYOUTS)
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_parity(self, heads, lengths, ctx_lengths, dtype):
        fused, composite, shapes = self.ops(heads, lengths, ctx_lengths)
        check_parity(fused, composite, shapes, dtype, seed=heads)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lengths", [lengths for lengths, _ in LAYOUTS])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_self_parity(self, heads, lengths, dtype):
        fused, composite, shapes = self.ops(heads, lengths, None)
        check_parity(fused, composite, shapes, dtype, seed=heads)

    # half-scale inputs: at unit scale the scores make near one-hot
    # softmaxes, too curved for differences of 1e-4
    @pytest.mark.parametrize("lengths,ctx_lengths", LAYOUTS[1:])
    def test_finite_differences(self, lengths, ctx_lengths):
        fused, _, shapes = self.ops(2, lengths, ctx_lengths)
        check_fd(fused, shapes, scale=0.5)

    @pytest.mark.parametrize("lengths", [[1, 5, 3, 1], [2, 3]])
    def test_self_finite_differences(self, lengths):
        fused, _, shapes = self.ops(2, lengths, None)
        check_fd(fused, shapes, scale=0.5)


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


class TestSoftmaxNll:
    @staticmethod
    def ops(labels):
        return (lambda x: T.softmax_nll(x, labels), lambda x: composite_softmax_nll(x, labels))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("labels", [[2], [0, 3, 3, 1, 0, 2]])
    def test_parity(self, labels, dtype):
        check_parity(*self.ops(labels), [(len(labels), 4)], dtype)

    def test_values_are_bit_identical(self):
        x = Tensor(rand((6, 5), seed=3, scale=4.0))
        fused, composite = self.ops([4, 0, 1, 1, 3, 2])
        np.testing.assert_array_equal(fused(x).data, composite(x).data)

    def test_finite_differences(self):
        check_fd(self.ops([1, 0, 2, 2])[0], [(4, 3)])


class TestGatedMix:
    @staticmethod
    def node(op):
        return lambda pre, a, b: op(pre, a, b)[0]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows,width", [(1, 4), (6, 8)])
    def test_parity(self, rows, width, dtype):
        check_parity(self.node(T.gated_mix), self.node(composite_gated_mix),
                     [(rows, width)] * 3, dtype)

    def test_values_and_gate_are_bit_identical(self):
        ins = [Tensor(rand((6, 8), seed=i, scale=3.0)) for i in range(3)]
        for got, want in zip(T.gated_mix(*ins), composite_gated_mix(*ins)):
            np.testing.assert_array_equal(getattr(got, "data", got), getattr(want, "data", want))

    def test_finite_differences(self):
        check_fd(self.node(T.gated_mix), [(3, 4)] * 3)


# packed layouts: one sequence of 1 and of 5 rows, mixed lengths with
# length-1 sequences
SEQ_LAYOUTS = [[1], [5], [1, 5, 3, 1], [2, 1]]


class TestLvcPrimitives:
    """``tensor.codebook_pool`` and ``tensor.sequence_gate``, the LVC block
    after its stem but for the projection's ``affine``."""

    @staticmethod
    def ops(name, lengths, d=4, centers=3):
        seg = Segments(lengths)
        if name == "codebook_pool":
            return (lambda x, c, s: T.codebook_pool(x, c, s, seg),
                    lambda x, c, s: composite_codebook_pool(x, c, s, seg),
                    [(seg.total, d), (centers, d), (centers,)])
        return (lambda x, p: T.sequence_gate(x, p, seg),
                lambda x, p: composite_sequence_gate(x, p, seg),
                [(seg.total, d), (seg.count, d)])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lengths", SEQ_LAYOUTS)
    @pytest.mark.parametrize("name", ["codebook_pool", "sequence_gate"])
    def test_parity(self, name, lengths, dtype):
        fused, composite, shapes = self.ops(name, lengths)
        check_parity(lambda *ins: fused(*ins)[0], lambda *ins: composite(*ins)[0], shapes, dtype)

    @pytest.mark.parametrize("name", ["codebook_pool", "sequence_gate"])
    def test_values_are_bit_identical(self, name):
        fused, composite, shapes = self.ops(name, [3, 1, 5, 2], d=6, centers=4)
        ins = [Tensor(rand(s, seed=i)) for i, s in enumerate(shapes)]
        for got, want in zip(fused(*ins), composite(*ins)):
            np.testing.assert_array_equal(getattr(got, "data", got), getattr(want, "data", want))

    @pytest.mark.parametrize("lengths", SEQ_LAYOUTS[2:])
    @pytest.mark.parametrize("name", ["codebook_pool", "sequence_gate"])
    def test_finite_differences(self, name, lengths):
        # the soft assignment curves sharply: a smaller step keeps the
        # central difference's O(eps²) error under the bound
        fused, _, shapes = self.ops(name, lengths, d=3, centers=2)
        check_fd(lambda *ins: fused(*ins)[0], shapes, eps=1e-5)


def margin_batch(samples, seed, dtype=np.float64, d=5):
    """(modality, label) entries of ``samples`` utterances over three
    modalities, labels cycling through 4 classes, and their [3B x d] rows."""
    entries = [(m, b % 4) for b in range(samples) for m in "atv"]
    return entries, rand((len(entries), d), seed=seed).astype(dtype)


class TestMarginLoss:
    """The one-node margin loss over an ``Embeddings`` matrix against the
    16-node gather form over its list of rows."""

    @staticmethod
    def both(entries, rows, strict=False):
        """(value, gradient of the rows) of the fused and the composite loss."""
        triplets = build_triplets(entries)
        results = []
        for fused in (True, False):
            matrix = Tensor(rows.copy(), requires_grad=True)
            embeddings = Embeddings(matrix)
            loss = (margin_loss(embeddings, triplets, 0.5, strict) if fused
                    else composite_margin_loss(list(embeddings), triplets, 0.5, strict))
            if loss._parents:
                loss.backward()
            results.append((loss.data, np.zeros_like(rows) if matrix.grad is None else matrix.grad))
        return results

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("samples", [2, 8, 16, 64])
    def test_parity(self, samples, dtype):
        entries, rows = margin_batch(samples, seed=samples, dtype=dtype)
        (value, grad), (ref_value, ref_grad) = self.both(entries, rows)
        assert value.dtype == grad.dtype == dtype
        assert_rel_close(value, ref_value, TOL[dtype], "value")
        assert_rel_close(grad, ref_grad, TOL[dtype], "gradient")

    def test_zero_norm_row(self):
        entries, rows = margin_batch(8, seed=40)
        rows[4] = 0.0
        (value, grad), (ref_value, ref_grad) = self.both(entries, rows)
        assert_rel_close(value, ref_value, TOL[np.float64], "value")
        assert_rel_close(grad, ref_grad, TOL[np.float64], "gradient")
        np.testing.assert_array_equal(grad[4], 0.0)
        assert np.abs(grad).sum() > 0.0

    def test_strict_mode(self):
        entries, rows = margin_batch(4, seed=41)
        rows[7] = 0.0
        for loss in (margin_loss, composite_margin_loss):
            with pytest.raises(DataError, match="index 7"):
                loss(Embeddings(Tensor(rows)), build_triplets(entries), 0.5, strict=True)

    def test_empty_set(self):
        entries, rows = margin_batch(1, seed=42)
        assert len(build_triplets(entries)) == 0
        (value, grad), (ref_value, ref_grad) = self.both(entries, rows)
        assert value == ref_value == 0.0
        np.testing.assert_array_equal(grad, ref_grad)

    def test_finite_differences(self):
        entries, rows = margin_batch(3, seed=43, d=3)
        triplets = build_triplets(entries)
        leaf = Tensor(rows, requires_grad=True)
        assert fd_max_rel_error(lambda: margin_loss(Embeddings(leaf), triplets, 0.5), [leaf]) < 1e-6


def use_composite_path(monkeypatch):
    """Route every fused primitive and the margin loss through the composite
    graphs: the whole batch objective as it was before they were fused."""
    for name, composite in (("affine", composite_affine), ("feed_forward", composite_feed_forward),
                            ("layer_norm", composite_layer_norm),
                            ("attention", composite_attention), ("gru", composite_gru),
                            ("softmax_nll", composite_softmax_nll),
                            ("gated_mix", composite_gated_mix),
                            ("codebook_pool", composite_codebook_pool),
                            ("sequence_gate", composite_sequence_gate)):
        monkeypatch.setattr(T, name, composite)
    monkeypatch.setattr(train, "margin_loss", composite_margin_loss)


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
            use_composite_path(monkeypatch)
        model = WavFusionModel(num_classes=4, feature_dims=dims, seed=5, **size)
        loss, _, _, _ = batch_objective(model, samples, ("a", "t", "v"), 0.5, 1.0)
        loss.backward()
        results.append((float(loss.data), {n: p.grad for n, p in model.named_parameters()}))
    (loss, grads), (ref_loss, ref_grads) = results
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert_rel_close(grads[name], ref, 1e-12, name)
