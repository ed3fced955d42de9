import re
import threading
import types
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import refops as R
from helpers import fd_max_rel_error, rand
from wavfusion import tensor as T
from wavfusion.errors import GraphError, ShapeError
from wavfusion.layers import Segments
from wavfusion.tensor import Tensor


def matmul_oracle(a, b):
    """Naive triple loop, independent of numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def take(x, cols):
    """One entry per row, as a column: out[i, 0] = x[i, cols[i]]."""
    n = len(cols)
    return R.gather(x, np.arange(n), cols).reshape((n, 1))


class TestMatmul:
    def test_identity(self):
        x = rand((2, 2), seed=3)
        out = Tensor(np.eye(2)) @ Tensor(x)
        npt.assert_array_equal(out.data, x)

    def test_hand_expansion(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
        npt.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        a = rand((5, 4), seed=10)
        b = rand((4, 3), seed=11)
        out = Tensor(a) @ Tensor(b)
        npt.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\[2, 3\].*\[2, 3\]"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_gradients(self):
        a = Tensor(rand((3, 4), seed=1), requires_grad=True)
        b = Tensor(rand((4, 2), seed=2), requires_grad=True)
        assert fd_max_rel_error(lambda: R.sum(a @ b), [a, b]) < 1e-6

    def test_batched_is_one_product_per_leading_index(self):
        a = rand((3, 5, 4), seed=14)
        b = rand((3, 4, 2), seed=15)
        out = Tensor(a) @ Tensor(b)
        assert out.shape == (3, 5, 2)
        for i in range(3):
            npt.assert_allclose(out.data[i], matmul_oracle(a[i], b[i]), atol=1e-12)

    def test_batched_gradients(self):
        a = Tensor(rand((2, 3, 4), seed=16), requires_grad=True)
        b = Tensor(rand((2, 4, 3), seed=17), requires_grad=True)
        w = Tensor(rand((2, 3, 3), seed=18))
        assert fd_max_rel_error(lambda: R.sum(R.mul(a @ b, w)), [a, b]) < 1e-6

    def test_batched_shape_contracts(self):
        for left, right in (((2, 3, 4), (3, 4, 2)),    # batch sizes differ
                            ((2, 3, 4), (2, 3, 2)),    # inner dimensions differ
                            ((2, 3, 4), (4, 2)),       # ranks differ
                            ((1, 2, 3, 4), (1, 2, 4, 3))):
            with pytest.raises(ShapeError, match="matmul"):
                Tensor(np.zeros(left)) @ Tensor(np.zeros(right))

    def test_batched_transpose(self):
        x = Tensor(rand((2, 3, 4), seed=19), requires_grad=True)
        assert R.transpose(x).shape == (2, 4, 3)
        npt.assert_array_equal(R.transpose(x).data, np.swapaxes(x.data, 1, 2))
        w = Tensor(rand((2, 4, 3), seed=20))
        assert fd_max_rel_error(lambda: R.sum(R.mul(R.transpose(x), w)), [x]) < 1e-6
        assert fd_max_rel_error(lambda: R.sum(R.transpose(x) @ x), [x]) < 1e-6
        for shape in ((3,), (1, 2, 3, 4)):
            with pytest.raises(ShapeError, match="transpose"):
                R.transpose(Tensor(np.zeros(shape)))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert float(R.sigmoid(Tensor(0.0)).data) == 0.5

    def test_tanh_at_zero(self):
        assert float(R.tanh(Tensor(0.0)).data) == 0.0

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        R.sigmoid(x).backward()
        assert abs(x.grad - 0.25) < 1e-12
        # central difference with eps 1e-6
        eps = 1e-6
        numeric = (float(R.sigmoid(Tensor(eps)).data) - float(R.sigmoid(Tensor(-eps)).data)) / (2 * eps)
        assert abs(float(x.grad) - numeric) < 1e-9

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = R.sigmoid(Tensor([-1000.0, 1000.0]))
        npt.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_binary_ops_demand_equal_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((3, 2)))
        for op in (lambda: a + b, lambda: R.sub(a, b), lambda: R.mul(a, b), lambda: R.div(a, b)):
            with pytest.raises(ShapeError):
                op()

    def test_scalar_broadcast_is_allowed(self):
        x = Tensor([[1.0, 2.0]])
        npt.assert_array_equal(x.scale(3.0).data, [[3.0, 6.0]])
        npt.assert_array_equal(R.shift(x, 1.0).data, [[2.0, 3.0]])
        npt.assert_array_equal(R.shift(x.scale(-1.0), 2.0).data, [[1.0, 0.0]])

    @pytest.mark.parametrize("make", [
        lambda x: R.sum(R.sigmoid(x)),
        lambda x: R.sum(R.tanh(x)),
        lambda x: R.sum(R.exp(x)),
        lambda x: R.sum(R.mul(x, x)),
        lambda x: R.sum(R.div(x, Tensor(rand((3, 3), seed=77) + 5.0))),
        lambda x: R.sum(R.relu(x)),
        lambda x: R.sum(x.scale(-2.5)),
    ])
    def test_pointwise_gradients(self, make):
        x = Tensor(rand((3, 3), seed=5), requires_grad=True)
        assert fd_max_rel_error(lambda: make(x), [x]) < 1e-6

    def test_log_sqrt_gradients(self):
        x = Tensor(np.abs(rand((3, 3), seed=6)) + 0.5, requires_grad=True)
        assert fd_max_rel_error(lambda: R.sum(R.log(x)), [x]) < 1e-6
        assert fd_max_rel_error(lambda: R.sum(R.sqrt(x)), [x]) < 1e-6


class TestSoftmax:
    def test_uniform_logits(self):
        out = R.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        npt.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_huge_logit_no_overflow(self):
        out = R.softmax(Tensor([1000.0, 0.0, 0.0]))
        assert np.isfinite(out.data).all()
        npt.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_against_extended_precision_oracle(self):
        x = rand((6,), seed=8, scale=3.0)
        expect = np.exp(x.astype(np.longdouble))
        expect = (expect / expect.sum()).astype(np.float64)
        npt.assert_allclose(R.softmax(Tensor(x)).data, expect, atol=1e-9)

    def test_rows_normalize(self):
        for seed in range(5):
            out = R.softmax(Tensor(rand((4, 7), seed=seed, scale=4.0)), axis=-1)
            npt.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_axis_zero(self):
        x = rand((4, 3), seed=9)
        out = R.softmax(Tensor(x), axis=0)
        npt.assert_allclose(out.data.sum(axis=0), np.ones(3), atol=1e-12)

    def test_axis_out_of_bounds(self):
        with pytest.raises(ShapeError):
            R.softmax(Tensor(np.zeros((2, 2))), axis=2)

    def test_gradient(self):
        x = Tensor(rand((3, 4), seed=12), requires_grad=True)
        w = Tensor(rand((3, 4), seed=13))
        assert fd_max_rel_error(lambda: R.sum(R.mul(R.softmax(x, axis=-1), w)), [x]) < 1e-6


class TestConcatSlice:
    def test_shape_arithmetic(self):
        out = T.concat([Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 5)))], axis=-1)
        assert out.shape == (4, 8)

    def test_concat_then_slice_recovers_inputs(self):
        a = rand((3, 4), seed=20)
        b = rand((5, 4), seed=21)
        joined = T.concat([Tensor(a), Tensor(b)], axis=0)
        npt.assert_array_equal(joined.take_rows(np.arange(0, 3)).data, a)
        npt.assert_array_equal(joined.take_rows(np.arange(3, 8)).data, b)

    def test_concat_gradient_is_all_ones(self):
        a = Tensor(rand((4, 3), seed=22), requires_grad=True)
        b = Tensor(rand((4, 5), seed=23), requires_grad=True)
        R.sum(T.concat([a, b], axis=-1)).backward()
        npt.assert_array_equal(a.grad, np.ones((4, 3)))
        npt.assert_array_equal(b.grad, np.ones((4, 5)))

    def test_leading_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.zeros((4, 3))), Tensor(np.zeros((5, 3)))], axis=-1)

    def test_concat_rows_and_slice_rows(self):
        rows = [Tensor(rand((1, 3), seed=s), requires_grad=True) for s in range(3)]
        stacked = T.concat(rows, axis=0)
        assert stacked.shape == (3, 3)
        R.sum(stacked.take_rows(np.arange(1, 2))).backward()
        npt.assert_array_equal(rows[0].grad, np.zeros((1, 3)))
        npt.assert_array_equal(rows[1].grad, np.ones((1, 3)))


class TestNamedBroadcasts:
    def test_values(self):
        x = rand((3, 4), seed=30)
        v = rand((4,), seed=31)
        c = rand((3, 1), seed=32)
        npt.assert_allclose(R.add_row(Tensor(x), Tensor(v)).data, x + v)
        npt.assert_allclose(R.mul_row(Tensor(x), Tensor(v)).data, x * v)
        npt.assert_allclose(R.add_col(Tensor(x), Tensor(c)).data, x + c)
        npt.assert_allclose(R.sub_col(Tensor(x), Tensor(c)).data, x - c)
        npt.assert_allclose(R.mul_col(Tensor(x), Tensor(c)).data, x * c)
        npt.assert_allclose(R.div_col(Tensor(x), Tensor(c + 3.0)).data, x / (c + 3.0))

    def test_gradients(self):
        x = Tensor(rand((3, 4), seed=33), requires_grad=True)
        v = Tensor(rand((4,), seed=34), requires_grad=True)
        c = Tensor(rand((3, 1), seed=35) + 2.0, requires_grad=True)
        checks = [
            lambda: R.sum(R.mul(R.add_row(x, v), R.mul_row(x, v))),
            lambda: R.sum(R.mul(R.add_col(x, c), R.sub_col(x, c))),
            lambda: R.sum(R.mul(R.div_col(R.mul_col(x, c), c), x)),
        ]
        for func in checks:
            x.grad = v.grad = c.grad = None
            assert fd_max_rel_error(func, [x, v, c]) < 1e-6

    def test_shape_contracts(self):
        x = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            R.add_row(x, Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            R.add_col(x, Tensor(np.zeros((4, 1))))


class TestReductionsStructure:
    def test_sum_gradient_all_ones(self):
        w = Tensor(rand((2, 5), seed=40), requires_grad=True)
        R.sum(w).backward()
        npt.assert_array_equal(w.grad, np.ones((2, 5)))

    def test_quadratic_gradient(self):
        w = Tensor(rand((3, 3), seed=41), requires_grad=True)
        R.sum(R.mul(w, w)).backward()
        npt.assert_allclose(w.grad, 2 * w.data, atol=1e-14)

    def test_sum_last_keep(self):
        x = Tensor(rand((3, 4), seed=42), requires_grad=True)
        out = R.sum_last_keep(x)
        assert out.shape == (3, 1)
        npt.assert_allclose(out.data, x.data.sum(axis=-1, keepdims=True))
        assert fd_max_rel_error(lambda: R.sum(R.mul(R.sum_last_keep(x), R.sum_last_keep(x))),
                                [x]) < 1e-6

    def test_transpose_reshape_pad_take(self):
        x = Tensor(rand((3, 4), seed=43), requires_grad=True)
        npt.assert_array_equal(R.transpose(x).data, x.data.T)
        npt.assert_array_equal(x.reshape((4, 3)).data, x.data.reshape(4, 3))
        padded = x.take_rows([-1, 0, 1, 2, -1, -1])
        assert padded.shape == (6, 4)
        npt.assert_array_equal(padded.data[1:4], x.data)
        npt.assert_array_equal(padded.data[0], np.zeros(4))
        picked = take(x, [1, 3, 0])
        npt.assert_array_equal(picked.data[:, 0], x.data[[0, 1, 2], [1, 3, 0]])
        checks = [
            lambda: R.sum(R.transpose(x) @ x),
            lambda: R.sum(R.mul(x.take_rows([-1, 0, 1, 2, -1]), x.take_rows([-1, 0, 1, 2, -1]))),
            lambda: R.sum(R.mul(take(x, [1, 3, 0]), take(x, [0, 0, 2]))),
        ]
        for func in checks:
            x.grad = None
            assert fd_max_rel_error(func, [x]) < 1e-6

    def test_gather(self):
        x = Tensor(rand((3, 4), seed=44), requires_grad=True)
        rows, cols = [0, 2, 2, 0, 1], [1, 3, 3, 1, 0]  # repeats accumulate in the adjoint
        npt.assert_array_equal(R.gather(x, rows, cols).data, x.data[rows, cols])
        other = ([1, 1, 2, 0, 2], [2, 0, 3, 3, 1])
        assert fd_max_rel_error(lambda: R.sum(R.mul(R.gather(x, rows, cols), R.gather(x, *other))),
                                [x]) < 1e-6
        x32 = Tensor(rand((2, 2), seed=45).astype(np.float32), requires_grad=True)
        R.sum(R.sub(R.gather(x32, [0, 1], [1, 1]), R.gather(x32, [1, 0], [0, 1]))).backward()
        assert x32.grad.dtype == np.float32
        npt.assert_array_equal(x32.grad, [[0.0, 0.0], [-1.0, 1.0]])

    def test_take_rows(self):
        x = Tensor(rand((2, 3, 4), seed=46), requires_grad=True)
        rows = x.data.reshape(6, 4)
        index = np.array([[5, 0, -1], [0, 0, 2]])       # repeats, and a zero row
        out = x.take_rows(index)
        assert out.shape == (2, 3, 4)
        npt.assert_array_equal(out.data[0, 0], rows[5])
        npt.assert_array_equal(out.data[1, :2], rows[[0, 0]])
        npt.assert_array_equal(out.data[0, 2], np.zeros(4))
        probe = Tensor(rand((2, 3, 4), seed=47))
        R.sum(R.mul(x.take_rows(index), probe)).backward()
        expect = np.zeros((6, 4))
        np.add.at(expect, index[index >= 0], probe.data[index >= 0])
        npt.assert_allclose(x.grad, expect.reshape(2, 3, 4), rtol=0, atol=1e-15)
        assert fd_max_rel_error(lambda: R.sum(R.mul(x.take_rows(index), x.take_rows(index[::-1]))),
                                [x]) < 1e-6
        x32 = Tensor(rand((3, 2), seed=48).astype(np.float32), requires_grad=True)
        R.sum(x32.take_rows([2, 2, -1])).backward()
        assert x32.grad.dtype == np.float32
        npt.assert_array_equal(x32.grad, [[0, 0], [0, 0], [2, 2]])

    def test_take_rows_shape_contracts(self):
        x = Tensor(np.zeros((3, 4)))
        for index in ([3], [-2], [[0, 1], [2, 5]]):
            with pytest.raises(ShapeError, match="out of range"):
                x.take_rows(index)
        with pytest.raises(ShapeError, match="rank >= 2"):
            Tensor(np.zeros(3)).take_rows([0])

    def test_reshape_is_a_view_of_contiguous_input(self):
        x = Tensor(rand((3, 4), seed=49))
        assert np.shares_memory(x.reshape((2, 6)).data, x.data)
        y = R.transpose(x)   # a copy, contiguous in its own layout
        assert np.shares_memory(y.reshape((12,)).data, y.data)

    def test_gather_shape_contracts(self):
        x = Tensor(np.zeros((3, 4)))
        for rows, cols in (([3], [0]), ([0], [4]), ([-1], [0]), ([0, 1], [0]), ([[0]], [[0]])):
            with pytest.raises(ShapeError):
                R.gather(x, rows, cols)
        with pytest.raises(ShapeError, match="rank-2"):
            R.gather(Tensor(np.zeros(3)), [0], [0])


class TestBackwardContract:
    def test_non_scalar_rejected(self):
        x = Tensor(rand((2, 2), seed=60), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            R.mul(x, x).backward()

    def test_repeat_backward_rejected(self):
        x = Tensor(rand((2, 2), seed=61), requires_grad=True)
        loss = R.sum(R.mul(x, x))
        loss.backward()
        with pytest.raises(GraphError, match="already"):
            loss.backward()

    def test_shared_subgraph_backward_rejected(self):
        x = Tensor(rand((2, 2), seed=62), requires_grad=True)
        mid = R.mul(x, x)
        first = R.sum(mid)
        second = R.sum(R.mul(mid, mid))
        second.backward()
        with pytest.raises(GraphError):
            first.backward()

    def test_fresh_forward_resets(self):
        x = Tensor(rand((2, 2), seed=63), requires_grad=True)
        R.sum(R.mul(x, x)).backward()
        first = x.grad.copy()
        x.grad = None
        R.sum(R.mul(x, x)).backward()
        npt.assert_array_equal(x.grad, first)

    def test_only_leaves_keep_gradients(self):
        x = Tensor(rand((2, 2), seed=66), requires_grad=True)
        mid = R.mul(x, x)
        loss = R.sum(mid)
        loss.backward()
        npt.assert_allclose(x.grad, 2 * x.data, atol=1e-15)
        assert mid.grad is None and loss.grad is None

    def test_first_gradient_is_cast_not_copied(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        x = Tensor(np.array([1.0, 2.0, 3.0]))           # float64: w * x carries float64 adjoints
        R.sum(R.mul(w, x)).backward()
        assert w.grad.dtype == np.float32
        npt.assert_array_equal(w.grad, [1.0, 2.0, 3.0])
        a = Tensor(rand((2, 2), seed=67), requires_grad=True)
        b = Tensor(rand((2, 2), seed=68), requires_grad=True)
        R.sum(a + b).backward()                       # add hands one adjoint to both inputs
        assert np.shares_memory(a.grad, b.grad)

    def test_grad_accumulates_across_uses_in_one_graph(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        (R.mul(x, x) + R.mul(x, x)).backward()
        assert float(x.grad) == 8.0

    def test_no_grad_blocks_recording(self):
        x = Tensor(rand((2, 2), seed=64), requires_grad=True)
        with T.no_grad():
            out = R.sum(R.mul(x, x))
        assert out._parents == ()
        assert out.requires_grad is False
        out.backward()  # constant scalar: nothing flows
        assert x.grad is None

    def test_no_grad_stays_in_its_thread(self):
        inside, built = threading.Event(), threading.Event()
        w = Tensor(rand((2, 2), seed=65), requires_grad=True)
        result = {}

        def holds_no_grad():
            with T.no_grad():
                inside.set()
                built.wait(timeout=10)

        def trains():
            inside.wait(timeout=10)
            loss = R.sum(R.mul(w, w))
            built.set()
            loss.backward()
            result["grad"] = w.grad

        threads = [threading.Thread(target=holds_no_grad), threading.Thread(target=trains)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert inside.is_set() and built.is_set()
        npt.assert_allclose(result["grad"], 2 * w.data, atol=1e-15)


class TestLayerPrimitives:
    """Contracts of the one-node layer ops; their parity with the composite
    graphs they replace is in ``test_primitive_parity``."""

    def test_attention_core_masks_padded_keys(self):
        seg, ctx_seg = Segments([2, 3]), Segments([3, 1])
        x, ctx, *ws = (Tensor(rand(s, seed=14 + i), requires_grad=True)
                       for i, s in enumerate([(5, 4), (4, 4)] + [(4, 4)] * 4))
        full, weights = T.attention(x, ctx, *ws, 2, seg, ctx_seg)
        assert weights.shape == (4, 3, 3)
        npt.assert_array_equal(weights[2:, :, 1:], 0.0)     # sequence 1 has one key
        npt.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        probe = rand((5, 4), seed=17)
        R.probe(full, probe).backward()
        # each sequence alone, with nothing to pad, gives the same rows and
        # gradients, and the weights' gradients add up over the sequences
        weight_grads = np.zeros((4, 4, 4))
        for rows, ctx_rows in ((slice(0, 2), slice(0, 3)), (slice(2, 5), slice(3, 4))):
            parts = [Tensor(t.data[r], requires_grad=True) for t, r in ((x, rows), (ctx, ctx_rows))]
            alone_ws = [Tensor(w.data, requires_grad=True) for w in ws]
            alone = T.attention(*parts, *alone_ws, 2, Segments([len(parts[0].data)]),
                                Segments([len(parts[1].data)]))[0]
            npt.assert_allclose(alone.data, full.data[rows], rtol=0, atol=1e-15)
            R.probe(alone, probe[rows]).backward()
            for part, whole, r in zip(parts, (x, ctx), (rows, ctx_rows)):
                npt.assert_allclose(part.grad, whole.grad[r], rtol=0, atol=1e-14)
            weight_grads += [w.grad for w in alone_ws]
        npt.assert_allclose(weight_grads, [w.grad for w in ws], rtol=0, atol=1e-14)

    def test_cosine_margin_matches_a_loop(self):
        # padded, repeated and overlapping indices, and a zero row
        x = rand((5, 3), seed=18)
        x[3] = 0.0
        pos = [[1, 1, -1], [2, 3, 4], [-1, -1, -1], [0, -1, -1], [1, 0, -1]]
        neg = [[2, 4], [3, -1], [0, 1], [1, 2], [-1, -1]]
        unit = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-300)
        terms = [max(0.0, 0.3 - unit[a] @ unit[p] + unit[a] @ unit[n])
                 for a in range(5) for p in pos[a] if p >= 0 for n in neg[a] if n >= 0]
        leaf = Tensor(x, requires_grad=True)
        value = T.cosine_margin(leaf, pos, neg, 0.3)
        assert abs(float(value.data) - sum(terms) / len(terms)) < 1e-15
        value.backward()
        npt.assert_array_equal(leaf.grad[3], 0.0)
        # a zero row's cosines jump once it moves: differences need nonzero rows
        leaf = Tensor(rand((5, 3), seed=19), requires_grad=True)
        assert fd_max_rel_error(lambda: T.cosine_margin(leaf, pos, neg, 0.3), [leaf]) < 1e-6

    def test_shape_contracts(self):
        x = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="layer_norm"):
            T.layer_norm(x, x, Tensor(np.ones(3)), Tensor(np.zeros(4)), 1e-5)
        with pytest.raises(ShapeError, match="layer_norm"):
            T.layer_norm(x, Tensor(np.zeros((2, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
        w, b = Tensor(np.zeros((4, 2))), Tensor(np.zeros(2))
        assert T.affine(x, w, b).shape == (3, 2)
        with pytest.raises(ShapeError, match="affine"):
            T.affine(x, w, Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match="affine"):
            T.affine(Tensor(np.zeros((3, 2))), w, b)
        assert T.feed_forward(x, w, b, Tensor(np.zeros((2, 5))), Tensor(np.zeros(5))).shape == (3, 5)
        with pytest.raises(ShapeError, match="feed_forward"):
            T.feed_forward(x, w, b, Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        assert T.cosine_margin(x, [[1], [0], [-1]], [[2], [2], [0]], 0.5).shape == ()
        with pytest.raises(ShapeError, match="cosine_margin"):
            T.cosine_margin(x, [[1], [0], [3]], [[2], [2], [0]], 0.5)      # row 3 of 3
        with pytest.raises(ShapeError, match="cosine_margin"):
            T.cosine_margin(x, [[1], [0]], [[2], [2]], 0.5)
        with pytest.raises(ShapeError, match="no .anchor, positive, negative. triple"):
            T.cosine_margin(x, [[1], [0], [-1]], [[-1], [-1], [0]], 0.5)
        w = Tensor(np.zeros((4, 4)))
        seg = Segments([1, 2])
        assert T.attention(x, x, w, w, w, w, 2, seg, seg)[0].shape == (3, 4)
        for bad in ((x, x, w, w, w, w, 3, Segments([3]), Segments([3])),  # 4 % 3 heads
                    (x, Tensor(np.zeros((2, 3))), w, w, w, w, 2, Segments([3]), Segments([2])),
                    (x, x, w, w, Tensor(np.zeros((4, 3))), w, 2, Segments([3]), Segments([3])),
                    (x, x, w, w, w, w, 2, Segments([1, 2]), Segments([3])),
                    (Tensor(np.zeros(4)), Tensor(np.zeros(4)), w, w, w, w, 2, Segments([4]),
                     Segments([4]))):
            with pytest.raises(ShapeError, match="attention"):
                T.attention(*bad)
        u_zr, u_h = Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 2)))
        assert T.gru(Tensor(np.zeros((3, 6))), u_zr, u_h, Segments([3])).shape == (3, 2)
        with pytest.raises(ShapeError, match="gru"):
            T.gru(Tensor(np.zeros((3, 5))), u_zr, u_h, Segments([3]))
        with pytest.raises(ShapeError, match="gru"):
            T.gru(Tensor(np.zeros((3, 6))), u_zr, u_h, Segments([2]))
        assert T.softmax_nll(x, [0, 3, 1]).shape == ()
        for labels in ([0, 1], [[0], [1], [2]], []):
            with pytest.raises(ShapeError, match="softmax_nll"):
                T.softmax_nll(x if labels else Tensor(np.zeros((0, 4))), labels)
        with pytest.raises(ShapeError, match="gated_mix"):
            T.gated_mix(x, x, Tensor(np.zeros((3, 3))))
        seg = Segments([1, 2])
        centers, scales = Tensor(np.zeros((2, 4))), Tensor(np.ones(2))
        assert T.codebook_pool(x, centers, scales, seg)[0].shape == (2, 4)
        for bad in ((x, Tensor(np.zeros((2, 3))), scales, seg), (x, centers, Tensor(np.ones(3)), seg),
                    (x, centers, scales, Segments([3, 1]))):
            with pytest.raises(ShapeError, match="codebook_pool"):
                T.codebook_pool(*bad)
        assert T.sequence_gate(x, Tensor(np.zeros((2, 4))), seg)[0].shape == (3, 4)
        for pre, layout in ((Tensor(np.zeros((3, 4))), seg), (Tensor(np.zeros((2, 4))), Segments([4]))):
            with pytest.raises(ShapeError, match="sequence_gate"):
                T.sequence_gate(x, pre, layout)


# every op, the reference ops of ``refops`` included: name -> (input
# shapes, op); inputs are positive so log, sqrt and division are defined.
# Ops that return (node, values) are taken at the node.
OPS = {
    "add": ([(3, 4), (3, 4)], lambda a, b: a + b),
    "scale": ([(3, 4)], lambda a: a.scale(-2.5)),
    "matmul": ([(3, 4), (4, 2)], lambda a, b: a @ b),
    "matmul_batched": ([(2, 3, 4), (2, 4, 5)], lambda a, b: a @ b),
    "reshape": ([(3, 4)], lambda a: a.reshape((2, 6))),
    # zero-padding rows, the layout packed sequences use
    "pad_rows": ([(3, 4)], lambda a: a.take_rows([-1, 0, 1, 2, -1, -1])),
    "take_rows": ([(2, 3, 4)], lambda a: a.take_rows([[5, 0, -1], [0, 0, 2]])),
    "concat": ([(3, 2), (3, 4), (3, 1)], lambda *ts: T.concat(ts, axis=-1)),
    "affine": ([(3, 4), (4, 2), (2,)], T.affine),
    "feed_forward": ([(3, 4), (4, 5), (5,), (5, 2), (2,)], T.feed_forward),
    "layer_norm": ([(3, 4), (3, 4), (4,), (4,)], lambda x, y, g, b: T.layer_norm(x, y, g, b, 1e-5)),
    # padded index rows; row 2 is an anchor with no triple
    "cosine_margin": ([(4, 3)], lambda x: T.cosine_margin(
        x, [[1, 3], [0, -1], [-1, -1], [2, 1]], [[2, -1], [3, 2], [0, 1], [0, -1]], 1.0)),
    "softmax_nll": ([(3, 4)], lambda x: T.softmax_nll(x, [1, 0, 3])),
    # attention with its projections, two heads: across contexts, where the
    # second sequence's context is padded, so its core masks keys; and self,
    # where x is also the context
    "attention_core": ([(5, 4), (4, 4)] + [(4, 4)] * 4,
                       lambda x, c, *ws: T.attention(x, c, *ws, 2, Segments([2, 3]),
                                                     Segments([3, 1]))[0]),
    "attention_self": ([(5, 4)] + [(4, 4)] * 4,
                       lambda x, *ws: T.attention(x, x, *ws, 2, Segments([2, 3]),
                                                  Segments([2, 3]))[0]),
    "gru": ([(5, 9), (3, 6), (3, 3)],
            lambda pre, u_zr, u_h: T.gru(pre, u_zr, u_h, Segments([1, 4]))),
    "gated_mix": ([(3, 4), (3, 4), (3, 4)], lambda p, a, b: T.gated_mix(p, a, b)[0]),
    "codebook_pool": ([(5, 3), (2, 3), (2,)],
                      lambda x, c, s: T.codebook_pool(x, c, s, Segments([1, 4]))[0]),
    "sequence_gate": ([(5, 3), (2, 3)], lambda x, p: T.sequence_gate(x, p, Segments([1, 4]))[0]),
    **R.OPS,
}


class TestNodeProtocol:
    @staticmethod
    def inputs(name, dtype):
        shapes, _ = OPS[name]
        return [Tensor((np.abs(rand(s, seed=90 + i)) + 0.5).astype(dtype), requires_grad=True)
                for i, s in enumerate(shapes)]

    @staticmethod
    def parents(name, ins):
        """The inputs as the op's node records them: self-attention passes
        x twice, as the queries' input and as the context."""
        return [ins[0], *ins] if name == "attention_self" else ins

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_vjp_returns_one_gradient_per_input(self, name, dtype):
        ins = self.inputs(name, dtype)
        out = OPS[name][1](*ins)
        parents = self.parents(name, ins)
        assert len(out._parents) == len(parents)
        assert all(p is t for p, t in zip(out._parents, parents))
        g = rand(out.shape, seed=99).astype(dtype)
        grads = out._vjp(g)
        assert isinstance(grads, tuple) and len(grads) == len(parents)
        for grad, t in zip(grads, parents):
            assert grad.shape == t.shape and grad.dtype == t.data.dtype

    @staticmethod
    def tensors_in(value):
        """The Tensors in ``value`` and, recursively, in the tuples, lists and
        dicts it holds."""
        if isinstance(value, Tensor):
            return [value]
        if isinstance(value, dict):
            value = [*value.keys(), *value.values()]
        if isinstance(value, (tuple, list)):
            return [t for item in value for t in TestNodeProtocol.tensors_in(item)]
        return []

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_vjp_captures_arrays_only(self, name):
        out = OPS[name][1](*self.inputs(name, np.float64))
        for cell in out._vjp.__closure__ or ():
            assert self.tensors_in(cell.cell_contents) == []

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_vjp_uses_forward_values(self, name):
        # rebinding every input's data between the forward pass and the _vjp
        # call, as checkpoint.load_model does, leaves each gradient unchanged;
        # the new arrays differ in shape and hold no finite value, so a _vjp
        # that reads an input's data at backward time sees either
        ins = self.inputs(name, np.float64)
        g = rand(OPS[name][1](*ins).shape, seed=96)
        expect = OPS[name][1](*ins)._vjp(g)
        out = OPS[name][1](*ins)
        for t in ins:
            t.data = np.full(t.data.size + 1, np.nan)
        for grad, ref in zip(out._vjp(g), expect):
            npt.assert_array_equal(grad, ref)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_no_grad_records_nothing(self, name):
        ins = self.inputs(name, np.float64)
        with T.no_grad():
            out = OPS[name][1](*ins)
        assert out._parents == () and out._vjp is None
        # recording, but no input needs a gradient: no node either
        for t in ins:
            t.requires_grad = False
        out = OPS[name][1](*ins)
        assert out._parents == () and out._vjp is None and not out.requires_grad

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_inputs_and_adjoint_are_never_written(self, name):
        # the contract that lets reshape return a view and a _vjp keep its
        # inputs' arrays: no op writes into an input, its output or its adjoint
        ins = self.inputs(name, np.float64)
        before = [t.data.copy() for t in ins]
        out = OPS[name][1](*ins)
        out_before = out.data.copy()
        g = rand(out.shape, seed=98)
        g_before = g.copy()
        out._vjp(g)
        for t, arr in zip(ins, before):
            npt.assert_array_equal(t.data, arr)
        npt.assert_array_equal(out.data, out_before)
        npt.assert_array_equal(g, g_before)

    @pytest.mark.parametrize("name,frozen", [("matmul", 0), ("matmul", 1), ("matmul_batched", 0),
                                             ("affine", 0), ("affine", 1), ("attention_core", 0),
                                             ("attention_core", 1), ("attention_self", 0)])
    def test_vjp_skips_inputs_without_gradient(self, name, frozen):
        # raw features into a linear map, a pooling matrix, or an attention
        # input: the gradient nobody reads comes back as None, the others
        # bit-identical
        ins = self.inputs(name, np.float64)
        g = rand(OPS[name][1](*ins).shape, seed=97)
        full = OPS[name][1](*ins)._vjp(g)
        ins[frozen].requires_grad = False
        part = OPS[name][1](*ins)._vjp(g)
        for i, (parent, grad, ref) in enumerate(zip(self.parents(name, ins), part, full)):
            if parent is ins[frozen]:
                assert grad is None
            else:
                npt.assert_array_equal(grad, ref)

    def test_gradients_use_forward_values(self):
        w = Tensor(np.abs(rand((3, 3), seed=81)) + 0.5, requires_grad=True)
        x = Tensor(np.abs(rand((3, 3), seed=82)) + 0.5)

        def loss():
            h = R.mul(w @ x, w)
            return R.sum(R.log(h) + R.sqrt(R.mul_col(h, R.sum_last_keep(w))) + R.relu(w))

        loss().backward()
        expect = w.grad
        w.grad = None
        graph = loss()
        w.data = w.data + 1.0       # rebound after the forward pass, as checkpoint.load_model does
        graph.backward()
        npt.assert_array_equal(w.grad, expect)


class TestSurface:
    def test_every_op_has_a_caller_in_src(self):
        # Tensor and the tensor module keep only the ops the program calls;
        # the generic ones the pinned composites are built from are in refops
        src = Path(T.__file__).parent
        text = "".join(p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))
                       if p.name != "tensor.py")
        members = [n for n, v in vars(Tensor).items()
                   if isinstance(v, (property, types.FunctionType))]
        assert sorted(n for n in members if n.startswith("_")) == ["__add__", "__init__",
                                                                    "__matmul__"]
        missing = [n for n in members if not n.startswith("_") and not re.search(rf"\.{n}\b", text)]
        missing += [n for n, f in vars(T).items() if not n.startswith("_") and n != "Tensor"
                    and getattr(f, "__module__", None) == T.__name__
                    and not re.search(rf"\bT\.{n}\(", text)]
        assert missing == []


class TestDeterminism:
    def test_identical_seed_bit_identical_forward(self):
        def run():
            a = Tensor(rand((6, 5), seed=70))
            b = Tensor(rand((5, 4), seed=71))
            return float(R.sum(R.softmax(R.sigmoid(a @ b), axis=-1).scale(2.0)).data)

        assert run() == run()
