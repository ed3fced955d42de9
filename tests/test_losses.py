import functools
import logging
import math
import operator

import numpy as np
import numpy.testing as npt
import pytest

import refops as R
from helpers import fd_max_rel_error, graph_nodes, rand
from wavfusion.errors import DataError, ShapeError
from wavfusion.losses import (Embeddings, Triplet, build_triplets, cross_entropy, margin_loss,
                              metrics, total_loss)
from wavfusion.oracles import cosine_reference, margin_loss_reference
from wavfusion.rng import Prng
from wavfusion.tensor import Tensor


def enumerate_triplets_oracle(batch):
    """Independent nested-loop enumeration of the triplet conditions."""
    found = set()
    for i, (mi, ci) in enumerate(batch):
        for j, (mj, cj) in enumerate(batch):
            for k, (mk, ck) in enumerate(batch):
                if mi != mj and mi == mk and ci == cj and ci != ck:
                    found.add((i, j, k))
    return found


class TestBuildTriplets:
    def test_same_modality_pair_yields_nothing(self):
        assert list(build_triplets([("a", 0), ("a", 1)])) == []

    def test_three_entry_case_matches_enumeration(self):
        batch = [("a", 0), ("t", 0), ("a", 1)]
        got = {(t.anchor, t.positive, t.negative) for t in build_triplets(batch)}
        assert got == enumerate_triplets_oracle(batch)
        assert got == {(0, 1, 2)}

    def test_random_batches_match_enumeration(self):
        rng = Prng(7)
        mods = ("a", "t", "v")
        for trial in range(10):
            r = rng.child(trial)
            batch = [(mods[r.randint(0, 3)], r.randint(0, 3)) for _ in range(8)]
            got = [(t.anchor, t.positive, t.negative) for t in build_triplets(batch)]
            assert set(got) == enumerate_triplets_oracle(batch)
            assert got == sorted(got)  # lexicographic order

    def test_adding_entries_is_monotone(self):
        batch = [("a", 0), ("t", 0), ("a", 1), ("v", 1)]
        before = {(t.anchor, t.positive, t.negative) for t in build_triplets(batch)}
        after = {(t.anchor, t.positive, t.negative) for t in build_triplets(batch + [("t", 0)])}
        assert before <= after


def embed(vec):
    return Tensor(np.asarray(vec, dtype=np.float64)[None, :])


class TestMarginLoss:
    def test_identical_embeddings_yield_alpha(self):
        vecs = [embed([1.0, 2.0, 3.0]) for _ in range(4)]
        batch = [("a", 0), ("t", 0), ("a", 1), ("v", 1)]
        triplets = build_triplets(batch)
        assert triplets
        loss = margin_loss(vecs, triplets, alpha=0.7)
        assert abs(float(loss.data) - 0.7) < 1e-12

    def test_satisfied_margin_is_zero(self):
        # positives parallel to the anchor, negatives orthogonal
        vecs = [embed([1.0, 0.0]), embed([2.0, 0.0]), embed([0.0, 1.0])]
        batch = [("a", 0), ("t", 0), ("a", 1)]
        loss = margin_loss(vecs, build_triplets(batch), alpha=1.0)
        assert float(loss.data) == 0.0

    def test_random_batch_matches_bruteforce(self):
        # 12 embeddings: 3 modalities x 3 classes (+3 repeats)
        rng = Prng(11)
        mods = ("a", "t", "v")
        entries = []
        for i in range(12):
            vec = rng.child(i).normal(5)
            entries.append((mods[i % 3], i % 3 if i < 9 else (i - 9) % 3, list(vec)))
        tagged = [(m, c) for m, c, _ in entries]
        vecs = [embed(v) for _, _, v in entries]
        production = float(margin_loss(vecs, build_triplets(tagged), alpha=0.5).data)
        reference = margin_loss_reference(entries, alpha=0.5)
        assert abs(production - reference) < 1e-10

    def test_scale_invariance(self):
        rng = Prng(12)
        batch = [("a", 0), ("t", 0), ("a", 1), ("v", 1), ("t", 1)]
        vecs = [rng.child(i).normal(4) for i in range(len(batch))]
        triplets = build_triplets(batch)
        base = float(margin_loss([embed(v) for v in vecs], triplets, 0.5).data)
        for factor in (1e-3, 7.0, 1e4):
            scaled = float(margin_loss([embed(v * factor) for v in vecs], triplets, 0.5).data)
            assert abs(scaled - base) < 1e-9

    def test_bounds(self):
        rng = Prng(13)
        batch = [("a", 0), ("t", 0), ("a", 1), ("v", 1)]
        triplets = build_triplets(batch)
        for trial in range(5):
            vecs = [embed(rng.child(10 * trial + i).normal(3)) for i in range(len(batch))]
            value = float(margin_loss(vecs, triplets, 0.5).data)
            assert 0.0 <= value <= 0.5 + 2.0

    def test_empty_set_returns_zero_with_notice(self, caplog):
        with caplog.at_level(logging.INFO, logger="wavfusion.losses"):
            loss = margin_loss([embed([1.0])], [], alpha=0.5)
        assert float(loss.data) == 0.0
        assert any("empty triplet set" in rec.message for rec in caplog.records)

    def test_empty_set_reads_the_matrix_dtype(self, monkeypatch):
        # no row of an Embeddings matrix is built just to read its dtype
        matrix = Tensor(rand((3, 4), seed=5).astype(np.float32))
        monkeypatch.setattr(Tensor, "take_rows", lambda *args: pytest.fail("built a row"))
        loss = margin_loss(Embeddings(matrix), build_triplets([("a", 0), ("t", 1), ("v", 2)]), 0.5)
        assert loss.data.dtype == np.float32 and float(loss.data) == 0.0

    def test_zero_norm_guard_and_strict_mode(self, caplog):
        vecs = [embed([0.0, 0.0]), embed([1.0, 0.0]), embed([0.0, 1.0])]
        batch = [("a", 0), ("t", 0), ("a", 1)]
        triplets = build_triplets(batch)
        with caplog.at_level(logging.WARNING, logger="wavfusion.losses"):
            loss = margin_loss(vecs, triplets, alpha=0.5)
        # both cosines guarded to 0: hinge is just alpha
        assert abs(float(loss.data) - 0.5) < 1e-12
        assert any("zero-norm" in rec.message for rec in caplog.records)
        with pytest.raises(DataError):
            margin_loss(vecs, triplets, alpha=0.5, strict=True)

    def test_gradient_matches_finite_differences(self):
        rng = Prng(14)
        batch = [("a", 0), ("t", 0), ("a", 1), ("v", 1), ("v", 0)]
        triplets = build_triplets(batch)
        vecs = [Tensor(rng.child(i).normal(4)[None, :], requires_grad=True)
                for i in range(len(batch))]
        err = fd_max_rel_error(lambda: margin_loss(vecs, triplets, 0.5), vecs)
        assert err < 1e-3

    def test_cosine_reference_agrees_with_numpy(self):
        rng = Prng(15)
        for i in range(5):
            u = rng.child(2 * i).normal(6)
            v = rng.child(2 * i + 1).normal(6)
            expect = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
            assert abs(cosine_reference(list(u), list(v)) - expect) < 1e-12


def _cosine_per_pair(a, b, na, nb):
    if float(na.data) == 0.0 or float(nb.data) == 0.0:
        return Tensor(np.zeros((), dtype=a.data.dtype))
    return R.div(R.sum(R.mul(a, b)), R.mul(na, nb))


def margin_loss_per_pair(embeddings, triplets, alpha):
    """The margin loss as first written, a few graph nodes per cosine and per
    triplet: the float64 reference for the vectorized one."""
    if not triplets:
        dtype = embeddings[0].data.dtype if embeddings else np.float64
        return Tensor(np.zeros((), dtype=dtype))
    norms = {}
    for idx in {t.anchor for t in triplets} | {t.positive for t in triplets} | {t.negative for t in triplets}:
        e = embeddings[idx]
        norms[idx] = R.sqrt(R.sum(R.mul(e, e)))
    cos_cache = {}

    def cos(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in cos_cache:
            cos_cache[key] = _cosine_per_pair(embeddings[key[0]], embeddings[key[1]],
                                              norms[key[0]], norms[key[1]])
        return cos_cache[key]

    terms = [R.relu(R.shift(R.sub(cos(t.anchor, t.negative), cos(t.anchor, t.positive)), alpha))
             for t in triplets]
    return functools.reduce(operator.add, terms).scale(1.0 / len(terms))


def trimodal_batch(samples, seed, d=5, dtype=np.float64):
    """Entries of ``samples`` utterances over three modalities, labels cycling
    through 4 classes, with seeded random embedding vectors."""
    rng = Prng(seed)
    batch = [(m, b % 4) for b in range(samples) for m in ("a", "t", "v")]
    vectors = [rng.child(i).normal(d).astype(dtype) for i in range(len(batch))]
    return batch, vectors


def loss_and_grads(fn, batch, vectors, alpha=0.5):
    embeddings = [Tensor(v[None, :].copy(), requires_grad=True) for v in vectors]
    loss = fn(embeddings, build_triplets(batch), alpha)
    loss.backward()
    return loss, [np.zeros_like(e.data) if e.grad is None else e.grad for e in embeddings]


class TestMarginLossParity:
    """The vectorized loss against the per-pair one, values and gradients."""

    def assert_parity(self, batch, vectors):
        loss, grads = loss_and_grads(margin_loss, batch, vectors)
        ref_loss, ref_grads = loss_and_grads(margin_loss_per_pair, batch, vectors)
        assert abs(float(loss.data) - float(ref_loss.data)) < 1e-12
        for got, want in zip(grads, ref_grads):
            npt.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        return grads

    @pytest.mark.parametrize("samples", [2, 8, 16])
    def test_random_batches(self, samples):
        batch, vectors = trimodal_batch(samples, seed=30 + samples)
        assert build_triplets(batch)
        self.assert_parity(batch, vectors)

    def test_zero_norm_row(self):
        batch, vectors = trimodal_batch(8, seed=40)
        vectors[4][:] = 0.0
        grads = self.assert_parity(batch, vectors)
        npt.assert_array_equal(grads[4], np.zeros((1, 5)))

    def test_empty_triplet_set(self):
        batch, vectors = trimodal_batch(1, seed=41)
        assert list(build_triplets(batch)) == []
        self.assert_parity(batch, vectors)

    def test_float32_stays_float32(self):
        batch, vectors = trimodal_batch(4, seed=42, dtype=np.float32)
        loss, grads = loss_and_grads(margin_loss, batch, vectors)
        assert loss.data.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads)

    def test_float32_rescaling_below_squared_underflow(self, caplog):
        # entries near 1e-23 square to below float32's smallest subnormal;
        # the norms are taken in float64, so the loss keeps its invariance
        batch, vectors = trimodal_batch(4, seed=42, dtype=np.float32)
        tiny = [v * np.float32(1e-23) for v in vectors]
        with caplog.at_level(logging.WARNING, logger="wavfusion.losses"):
            loss, grads = loss_and_grads(margin_loss, batch, vectors)
            tiny_loss, tiny_grads = loss_and_grads(margin_loss, batch, tiny)
            margin_loss([Tensor(v[None, :]) for v in tiny], build_triplets(batch), 0.5, strict=True)
        assert not caplog.records
        assert abs(float(tiny_loss.data) - float(loss.data)) < 1e-6
        for got, want in zip(tiny_grads, grads):
            npt.assert_allclose(got * 1e-23, want, rtol=1e-4, atol=1e-6)

    def test_float64_rows_below_squared_underflow_count_as_zero(self, caplog):
        # float64 entries below about 1e-162 square to 0, and cosine_margin
        # zeroes such a row: the loss warns of, or in strict mode rejects,
        # exactly those rows, and none above
        batch, vectors = trimodal_batch(4, seed=42, d=8)
        triplets = build_triplets(batch)

        def loss_at(scale, strict=False):
            rows = [Tensor(v[None, :] * scale) for v in vectors]
            return float(margin_loss(rows, triplets, 0.5, strict=strict).data)

        with caplog.at_level(logging.WARNING, logger="wavfusion.losses"):
            assert abs(loss_at(1e-155, strict=True) - loss_at(1.0)) < 1e-12
            assert not caplog.records
            with pytest.raises(DataError, match="zero-norm"):
                loss_at(1e-170, strict=True)
            assert loss_at(1e-170) == 0.5       # every cosine 0: each hinge is alpha
        assert [rec.message for rec in caplog.records] == [
            "margin loss: 12 zero-norm embedding(s); treating their cosines as 0"]

    def test_node_count_is_independent_of_batch_size(self):
        # one node over an Embeddings matrix, plus the concat of a list of
        # rows; the gather form took 16
        counts = []
        for samples in (4, 16, 64):
            batch, vectors = trimodal_batch(samples, seed=43)
            triplets = build_triplets(batch)
            rows = [Tensor(v[None, :], requires_grad=True) for v in vectors]
            matrix = Tensor(np.stack(vectors), requires_grad=True)
            counts.append((graph_nodes(margin_loss(Embeddings(matrix), triplets, 0.5)),
                           graph_nodes(margin_loss(rows, triplets, 0.5), stop=rows)))
        assert counts == [(1, 2)] * 3


def build_triplets_index(batch):
    """The [T x 3] triplet index as built before the group layout was kept:
    each group's (positive, negative) pairs by repeat and tile, then laid out
    anchor by anchor. The reference for ``Triplets.index``."""
    mod = np.array([entry[0] for entry in batch])
    lab = np.array([entry[1] for entry in batch])
    pairs, blocks = {}, []
    for m, c in zip(mod.tolist(), lab.tolist()):
        if (m, c) not in pairs:
            pos = np.flatnonzero((mod != m) & (lab == c))
            neg = np.flatnonzero((mod == m) & (lab != c))
            pairs[m, c] = np.column_stack([np.repeat(pos, len(neg)), np.tile(neg, len(pos))])
        blocks.append(pairs[m, c])
    if not blocks:
        return np.zeros((0, 3), dtype=np.intp)
    anchors = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    return np.column_stack([anchors, np.concatenate(blocks)])


BATCHES = [[], [("a", 0)], [("a", 0), ("a", 1)], [("a", 0), ("t", 0), ("a", 1)],
           trimodal_batch(5, seed=1)[0], [(m, c) for c in (2, 0, 2, 1) for m in "vta"],
           [("t", 1), ("a", 0), ("t", 0), ("v", 1), ("a", 1), ("a", 1)]]


class TestTripletsContract:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_length_is_exact_without_the_index(self, batch):
        triplets = build_triplets(batch)
        count = len(triplets)
        assert triplets._index is None
        assert bool(triplets) == (count > 0)
        assert count == len(triplets.index) == len(enumerate_triplets_oracle(batch))

    @pytest.mark.parametrize("batch", BATCHES)
    def test_index_order_and_equality_are_unchanged(self, batch):
        triplets = build_triplets(batch)
        expect = build_triplets_index(batch)
        npt.assert_array_equal(triplets.index, expect)
        assert triplets.index.dtype == expect.dtype and triplets.index.shape == expect.shape
        listed = [tuple(row) for row in expect.tolist()]
        assert [tuple(t) for t in triplets] == listed
        assert all(isinstance(t, Triplet) for t in triplets)
        assert list(triplets) == listed
        assert list(triplets) == list(build_triplets(batch))
        assert list(triplets) != listed + [(0, 0, 0)]

    def test_list_of_rows_equals_the_matrix(self):
        batch, vectors = trimodal_batch(8, seed=44)
        triplets = build_triplets(batch)
        losses, grads = [], []
        for as_list in (False, True):
            matrix = Tensor(np.stack(vectors), requires_grad=True)
            rows = Embeddings(matrix)
            loss = margin_loss(list(rows) if as_list else rows, triplets, 0.5)
            loss.backward()
            losses.append(loss.data)
            grads.append(matrix.grad)
        npt.assert_array_equal(losses[0], losses[1])
        npt.assert_array_equal(grads[0], grads[1])

    def test_embeddings_rows(self):
        matrix = Tensor(rand((4, 3), seed=45))
        rows = Embeddings(matrix)
        assert len(rows) == 4
        for i, row in enumerate(rows):
            npt.assert_array_equal(row.data, matrix.data[i:i + 1])
        npt.assert_array_equal(rows[-1].data, matrix.data[3:])
        with pytest.raises(IndexError):
            rows[4]
        with pytest.raises(DataError):
            Embeddings(Tensor(np.zeros(3)))


class TestCrossEntropy:
    def test_confident_correct_logits(self):
        logits = Tensor(np.array([[50.0, 0.0, 0.0]]))
        assert float(cross_entropy(logits, [0]).data) < 1e-9

    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 7):
            logits = Tensor(np.zeros((3, c)))
            value = float(cross_entropy(logits, [0, 1, c - 1]).data)
            assert abs(value - math.log(c)) < 1e-12

    def test_against_extended_precision_oracle(self):
        logits = rand((4, 5), seed=16, scale=3.0)
        labels = [0, 2, 4, 1]
        hi = logits.astype(np.longdouble)
        probs = np.exp(hi - hi.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        expect = float(-np.mean([np.log(probs[i, y]) for i, y in enumerate(labels)]))
        got = float(cross_entropy(Tensor(logits), labels).data)
        assert abs(got - expect) < 1e-9

    def test_extreme_logits_stay_finite(self):
        logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
        value = float(cross_entropy(logits, [0, 0]).data)
        assert np.isfinite(value) and value >= 0

    def test_out_of_range_label(self):
        with pytest.raises(DataError, match=r"label 3 outside \[0, 3\)"):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(DataError, match=r"label -1 outside \[0, 3\)"):
            cross_entropy(Tensor(np.zeros((2, 3))), [-1, 0])

    @pytest.mark.parametrize("label", [1.7, float("nan"), "1"])
    def test_label_that_is_not_a_class_index(self, label):
        with pytest.raises(DataError, match="label"):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, label])

    def test_zero_rows(self):
        # the shape rule of the softmax_nll primitive
        with pytest.raises(ShapeError, match="at least one row"):
            cross_entropy(Tensor(np.zeros((0, 3))), [])

    def test_non_negative(self):
        for seed in range(5):
            logits = Tensor(rand((3, 4), seed=20 + seed, scale=4.0))
            assert float(cross_entropy(logits, [0, 1, 2]).data) >= 0.0

    def test_gradient(self):
        logits = Tensor(rand((3, 4), seed=17), requires_grad=True)
        assert fd_max_rel_error(lambda: cross_entropy(logits, [1, 0, 3]), [logits]) < 1e-6


class TestTotalLoss:
    def test_zero_balance_is_task_exactly(self):
        task = Tensor(np.array(1.2345))
        margin = Tensor(np.array(9.9))
        assert float(total_loss(task, margin, 0.0).data) == 1.2345

    @pytest.mark.parametrize("balance", [0.01, 0.1, 1.0, 10.0])
    def test_weighting(self, balance):
        task = Tensor(np.array(2.0))
        margin = Tensor(np.array(0.5))
        expect = 2.0 + balance * 0.5
        assert abs(float(total_loss(task, margin, balance).data) - expect) < 1e-15

    def test_gradient_splits_by_balance(self):
        task = Tensor(np.array(2.0), requires_grad=True)
        margin = Tensor(np.array(0.5), requires_grad=True)
        total_loss(task, margin, 3.0).backward()
        assert float(task.grad) == 1.0
        assert float(margin.grad) == 3.0


def wf1_confusion_oracle(predictions, labels, c):
    """Confusion-matrix recompute, independent of the production code."""
    n = len(labels)
    value = 0.0
    for k in range(c):
        tp = sum(1 for p, y in zip(predictions, labels) if p == k and y == k)
        fp = sum(1 for p, y in zip(predictions, labels) if p == k and y != k)
        fn = sum(1 for p, y in zip(predictions, labels) if p != k and y == k)
        support = tp + fn
        if support == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        value += support / n * f1
    return value


class TestMetrics:
    def test_all_correct(self):
        acc, wf1 = metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert (acc, wf1) == (1.0, 1.0)

    def test_worked_four_sample_example(self):
        # class 0: P=1, R=0.5, F1=2/3; class 1: P=2/3, R=1, F1=0.8
        acc, wf1 = metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert acc == 0.75
        assert abs(wf1 - (0.5 * (2.0 / 3.0) + 0.5 * 0.8)) < 1e-12
        assert abs(wf1 - 0.7333333333333334) < 1e-9
        assert abs(wf1 - wf1_confusion_oracle([0, 1, 1, 1], [0, 0, 1, 1], 2)) < 1e-12

    def test_prediction_of_absent_class(self):
        acc, wf1 = metrics([2, 2, 2, 2], [0, 0, 1, 1], 3)
        assert acc == 0.0
        assert wf1 == 0.0

    def test_wf1_equals_acc_on_symmetric_cases(self):
        # all correct and fully-swapped symmetric misclassification
        for preds, labels in (([0, 1, 0, 1], [0, 1, 0, 1]), ([1, 0, 1, 0], [0, 1, 0, 1])):
            acc, wf1 = metrics(preds, labels, 2)
            assert wf1 == acc == wf1_confusion_oracle(preds, labels, 2)

    def test_random_cases_match_confusion_oracle(self):
        rng = Prng(18)
        for trial in range(10):
            r = rng.child(trial)
            labels = [r.randint(0, 4) for _ in range(12)]
            preds = [r.randint(0, 4) for _ in range(12)]
            acc, wf1 = metrics(preds, labels, 4)
            assert 0.0 <= acc <= 1.0 and 0.0 <= wf1 <= 1.0
            assert abs(wf1 - wf1_confusion_oracle(preds, labels, 4)) < 1e-12
            assert abs(acc - sum(p == y for p, y in zip(preds, labels)) / 12) < 1e-15

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            metrics([], [], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            metrics([0, 1], [0], 2)
