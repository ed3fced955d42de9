"""Training objective and evaluation metrics.

The margin loss operates on a batch of (modality, label, embedding) entries:
anchors are pulled toward same-emotion embeddings from other modalities and
pushed from different-emotion embeddings of their own modality. All loss
functions return graph-connected scalars; metrics are plain floats.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import DataError
from .tensor import Tensor

log = logging.getLogger(__name__)


class Triplet(NamedTuple):
    """Indices into a batch of (modality, label, embedding) entries with
    anchor/positive differing in modality, anchor/negative sharing it,
    anchor/positive sharing the label, and anchor/negative differing."""
    anchor: int
    positive: int
    negative: int


class Triplets:
    """Every (anchor, positive, negative) triple of a batch as one [T x 3]
    index array ``index``, in lexicographic order. It has a length and a
    truth value, iterates lazily as ``Triplet``s, and equals a list of the
    same triples."""

    __slots__ = ("index",)

    def __init__(self, index: np.ndarray):
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        return map(Triplet._make, self.index.tolist())

    def __eq__(self, other):
        if isinstance(other, (Triplets, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def build_triplets(batch) -> Triplets:
    """Exhaustively enumerate valid (anchor, positive, negative) triples,
    in lexicographic index order. ``batch`` holds (modality, label) pairs.

    An anchor's positives and negatives depend only on its (modality,
    label) group, so each group's (positive, negative) pairs are built once,
    by repeat and tile, and then laid out anchor by anchor.
    """
    mod = np.array([entry[0] for entry in batch])
    lab = np.array([entry[1] for entry in batch])
    pairs = {}
    blocks = []
    for m, c in zip(mod.tolist(), lab.tolist()):
        if (m, c) not in pairs:
            pos = np.flatnonzero((mod != m) & (lab == c))
            neg = np.flatnonzero((mod == m) & (lab != c))
            pairs[m, c] = np.column_stack([np.repeat(pos, len(neg)), np.tile(neg, len(pos))])
        blocks.append(pairs[m, c])
    if not blocks:
        return Triplets(np.zeros((0, 3), dtype=np.intp))
    anchors = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    return Triplets(np.column_stack([anchors, np.concatenate(blocks)]))


def margin_loss(embeddings, triplets, alpha: float, strict: bool = False) -> Tensor:
    """Mean hinge over the triplet set:
    max(0, alpha - cos(anchor, positive) + cos(anchor, negative)).

    ``embeddings`` are [1 x d] rows indexed by the triplets (``Triplets``,
    or any sequence of index triples). Returns a
    constant 0 (with a logged notice) when the set is empty. Cosine
    similarity makes the loss invariant to positive rescaling of the
    embeddings. A zero-norm embedding has cosine 0 with everything and gets
    a zero gradient (or raises DataError in strict mode).

    The graph has a fixed node count: all N x N cosines come from one
    matmul of the row-normalized [N x d] batch, O(N^2 d + T) work for T
    triplets.
    """
    if not triplets:
        log.info("margin loss: empty triplet set; contributing 0")
        dtype = embeddings[0].data.dtype if embeddings else np.float64
        return Tensor(np.zeros((), dtype=dtype))
    idx = np.asarray(getattr(triplets, "index", triplets), dtype=np.intp).reshape(-1, 3)
    anchor, positive, negative = idx.T
    e = T.concat(embeddings, axis=0)                        # [N x d]
    sq = (e * e).sum_last_keep()                            # [N x 1]
    zero = sq.data == 0.0
    if zero.any():
        if strict:
            raise DataError(f"zero-norm embedding at index {int(np.argmax(zero))}")
        log.warning("margin loss: %d zero-norm embedding(s); treating their cosines as 0",
                    int(zero.sum()))
    # zero rows get norm 1 (finite adjoints) and are then masked to exactly 0
    norm = (sq + Tensor(zero.astype(sq.data.dtype))).sqrt()
    unit = e.div_col(norm).mul_col(Tensor((~zero).astype(sq.data.dtype)))
    cos = unit @ unit.transpose()                           # [N x N]
    hinge = ((cos.gather(anchor, negative) - cos.gather(anchor, positive)) + alpha).relu()
    return hinge.sum().scale(1.0 / len(idx))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over rows of ``logits`` [N x c],
    stabilized through max-subtracted log-sum-exp."""
    labels = list(labels)
    if logits.ndim != 2 or logits.shape[0] != len(labels):
        raise DataError(f"cross_entropy: logits {list(logits.shape)} vs {len(labels)} labels")
    c = logits.shape[1]
    for lab in labels:
        if not 0 <= int(lab) < c:
            raise DataError(f"label {lab} outside [0, {c})")
    row_max = Tensor(logits.data.max(axis=-1, keepdims=True))
    shifted = logits.sub_col(row_max)
    log_norm = shifted.exp().sum_last_keep().log()          # [N x 1]
    n = len(labels)
    picked = shifted.gather(np.arange(n), [int(x) for x in labels]).reshape((n, 1))
    return (log_norm - picked).sum().scale(1.0 / n)


def total_loss(task: Tensor, margin: Tensor, balance: float) -> Tensor:
    """Combined objective: task + balance * margin."""
    return task + margin.scale(float(balance))


def metrics(predictions, labels, num_classes: int):
    """(accuracy, weighted F1). Zero-support classes carry zero weight;
    precision or recall with an empty denominator counts as 0."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise DataError(f"metrics: got {predictions.shape} predictions for {labels.shape} labels")
    n = labels.shape[0]
    if n == 0:
        raise DataError("metrics need at least one sample")
    acc = float((predictions == labels).sum() / n)
    wf1 = 0.0
    for k in range(num_classes):
        support = int((labels == k).sum())
        if support == 0:
            continue
        tp = int(((predictions == k) & (labels == k)).sum())
        pred_k = int((predictions == k).sum())
        precision = tp / pred_k if pred_k else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        wf1 += (support / n) * f1
    return acc, wf1
