"""Float64 parity of the packed batch forward with one forward per sample.

``per_sample_objective`` is the batch objective as it was before batches
were packed: one ``forward`` and one graph per utterance, the logits and
shared embeddings stitched together afterwards. Both paths must agree
within 1e-12 on the logits, the shared embeddings, the task and margin
losses and every parameter gradient. They need not be bit-identical:
padding adds zeros to some float sums and changes their grouping.
"""

import numpy as np
import pytest

from helpers import graph_nodes
from wavfusion import tensor as T
from wavfusion.data import UtteranceSample
from wavfusion.errors import DataError
from wavfusion.losses import build_triplets, cross_entropy, margin_loss, total_loss
from wavfusion.model import WavFusionModel
from wavfusion.rng import Prng
from wavfusion.tensor import Tensor
from wavfusion.train import batch_objective, evaluate

DIMS = {"a": 6, "t": 5, "v": 4}
TOL = 1e-12


def per_sample_objective(model, samples, mask, alpha, balance):
    """Reference: a full forward pass per sample. Returns (total, task,
    margin, logits, shared embeddings in entry order)."""
    logit_rows, labels, entries, embeddings = [], [], [], []
    for sample in samples:
        trace = model.forward(sample, mask)
        logit_rows.append(trace.logits)
        labels.append(sample.label)
        model.shared_encode(trace)
        for m in mask:
            entries.append((m, sample.label))
            embeddings.append(trace.shared[m])
    logits = T.concat(logit_rows, axis=0) if len(logit_rows) > 1 else logit_rows[0]
    task = cross_entropy(logits, labels)
    if balance != 0.0:
        margin = margin_loss(embeddings, build_triplets(entries), alpha)
    else:
        margin = Tensor(np.zeros((), dtype=model.dtype))
    return total_loss(task, margin, balance), task, margin, logits, embeddings


def make_batch(lengths, seed=0):
    """One sample per entry of ``lengths`` (modality -> length per sample)."""
    count = len(next(iter(lengths.values())))
    rng = Prng(seed, stream=7)
    samples = []
    for b in range(count):
        feats = {m: rng.child(10 * b + i).normal(lengths[m][b] * d).reshape(lengths[m][b], d)
                 for i, (m, d) in enumerate(sorted(DIMS.items()))}
        samples.append(UtteranceSample(f"p{b}", b % 3, feats))
    return samples


MIXED = {"a": [1, 5, 3, 7, 2], "t": [4, 1, 2, 6, 1], "v": [2, 3, 1, 5, 4]}


def grads(model, loss):
    for _, p in model.named_parameters():
        p.grad = None
    loss.backward()
    return {name: None if p.grad is None else p.grad.copy() for name, p in model.named_parameters()}


def assert_close(actual, expected, what):
    """Within 1e-12 relative to the largest entry of ``expected`` (or absolute, below 1)."""
    scale = max(float(np.max(np.abs(expected))), 1.0)
    err = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    assert err <= TOL * scale, f"{what}: differs by {err:.3e}"


def check_parity(model, samples, mask, alpha=0.5, balance=1.0):
    total, task, margin, predictions = batch_objective(model, samples, mask, alpha, balance)
    packed_grads = grads(model, total)
    ref_total, ref_task, ref_margin, ref_logits, ref_shared = per_sample_objective(
        model, samples, mask, alpha, balance)
    ref_grads = grads(model, ref_total)

    assert_close(task.data, ref_task.data, "task loss")
    assert_close(margin.data, ref_margin.data, "margin loss")
    assert_close(total.data, ref_total.data, "total loss")
    with T.no_grad():
        trace = model.forward_batch(samples, mask)
        model.shared_encode(trace)
    assert_close(trace.logits.data, ref_logits.data, "logits")
    packed_shared = [trace.shared[m].data[b] for b in range(len(samples)) for m in mask]
    assert_close(np.stack(packed_shared), np.concatenate([e.data for e in ref_shared]),
                 "shared embeddings")
    assert predictions == [int(np.argmax(row)) for row in ref_logits.data]
    assert evaluate(model, samples, mask)[2] == predictions
    for name, ref in ref_grads.items():
        got = packed_grads[name]
        assert (got is None) == (ref is None), name
        if ref is not None:
            assert_close(got, ref, f"gradient of {name}")
    return packed_grads


def tiny_model(**kw):
    args = dict(num_classes=3, feature_dims=DIMS, d=8, heads=2, n_shallow=2, n_deep=2,
                lvc_centers=3, seed=4)
    args.update(kw)
    return WavFusionModel(**args)


class TestPackedParity:
    def test_single_sample(self):
        model = tiny_model()
        check_parity(model, make_batch({"a": [4], "t": [3], "v": [2]}), ("a", "t", "v"),
                     balance=0.0)

    @pytest.mark.parametrize("mask", ["a", "t", "v", "at", "av", "avt"])
    def test_mixed_lengths(self, mask):
        model = tiny_model()
        got = check_parity(model, make_batch(MIXED, seed=1), tuple(mask))
        assert any(g is not None and np.abs(g).sum() > 0 for g in got.values())

    def test_concat_fusion(self):
        model = tiny_model(n_deep=0)
        check_parity(model, make_batch(MIXED, seed=2), ("a", "t", "v"))

    def test_without_lvc(self):
        model = tiny_model(lvc_enabled=False)
        check_parity(model, make_batch(MIXED, seed=3), ("a", "t", "v"))

    def test_equal_lengths_and_balance_off(self):
        model = tiny_model(heads=4)
        lengths = {m: [3, 3, 3] for m in DIMS}
        check_parity(model, make_batch(lengths, seed=4), ("a", "t", "v"), balance=0.0)

    def test_batch_is_one_graph(self):
        # the packed pass records no per-sample subgraph: its node count
        # grows with the longest sequence, not with the number of samples
        model = tiny_model()

        def nodes(samples):
            return graph_nodes(batch_objective(model, samples, ("a", "t", "v"), 0.5, 1.0)[0])

        few = make_batch({m: [4, 4] for m in DIMS})
        many = make_batch({m: [4] * 8 for m in DIMS})
        # the margin loss reads one [3B x d] matrix, so nothing scales with B
        # (one [1 x d] row per entry did before: 3 * (8 - 2) more nodes)
        assert nodes(many) == nodes(few)

    def test_padding_does_not_leak(self):
        # a sequence's outputs do not depend on its batch-mates
        model = tiny_model()
        batch = make_batch(MIXED, seed=5)
        with T.no_grad():
            alone = model.forward(batch[0]).logits.data
            for other in batch[1:]:
                pair = model.forward_batch([batch[0], other]).logits.data
                assert float(np.max(np.abs(pair[0] - alone[0]))) <= TOL

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError, match="empty batch"):
            tiny_model().forward_batch([])
