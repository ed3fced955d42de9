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
    """Every (anchor, positive, negative) triple of a batch, kept in the
    layout of the (modality, label) groups: anchor i belongs to group
    ``group[i]``, whose positives and negatives are the rows of
    ``positives`` [G x P] and ``negatives`` [G x Q], increasing and padded
    with -1. Its length is exact and costs nothing; the [T x 3] index array
    ``index`` is built, in lexicographic order, only when the triples are
    iterated (as ``Triplet``s)."""

    __slots__ = ("group", "positives", "negatives", "_count", "_index")

    def __init__(self, group: np.ndarray, positives: np.ndarray, negatives: np.ndarray):
        self.group = group
        self.positives = positives
        self.negatives = negatives
        sizes = (positives >= 0).sum(axis=1) * (negatives >= 0).sum(axis=1)
        self._count = int(sizes[group].sum())
        self._index = None

    @property
    def index(self) -> np.ndarray:
        if self._index is None:
            # the valid cells of the [N x P x Q] grid, in C order
            pos, neg = self.positives[self.group], self.negatives[self.group]
            a, i, j = np.nonzero((pos >= 0)[:, :, None] & (neg >= 0)[:, None, :])
            self._index = np.column_stack([a, pos[a, i], neg[a, j]])
        return self._index

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return map(Triplet._make, self.index.tolist())


def build_triplets(batch) -> Triplets:
    """Every valid (anchor, positive, negative) triple of ``batch``, a
    sequence of (modality, label) pairs, as a ``Triplets``. An anchor's
    positives and negatives depend only on its (modality, label) group, so
    they are found once per group, from the group's first entry."""
    mod = np.array([entry[0] for entry in batch])
    lab = np.array([entry[1] for entry in batch])
    ids: dict = {}
    group = np.array([ids.setdefault(key, len(ids)) for key in zip(mod.tolist(), lab.tolist())],
                     dtype=np.intp)
    first = np.unique(group, return_index=True)[1]
    same_mod = mod[first, None] == mod                      # [G x N]
    same_lab = lab[first, None] == lab
    return Triplets(group, _columns(~same_mod & same_lab), _columns(same_mod & ~same_lab))


def _columns(mask: np.ndarray) -> np.ndarray:
    """The True columns of each row of a boolean matrix, increasing, as the
    rows of one index matrix padded with -1."""
    width = int(mask.sum(axis=1).max(initial=0))
    cols = np.argsort(~mask, axis=1, kind="stable")[:, :width]
    return np.where(np.take_along_axis(mask, cols, axis=1), cols, -1)


class Embeddings:
    """The [N x d] embedding matrix of a margin-loss batch, standing in for
    its list of [1 x d] rows: it has a length and iterates (or indexes) as
    rows taken with ``take_rows``, one node per row, while ``margin_loss``
    reads ``matrix`` directly."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Tensor):
        if matrix.ndim != 2:
            raise DataError(f"embeddings must be an [N x d] matrix; got {list(matrix.shape)}")
        self.matrix = matrix

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, i: int) -> Tensor:
        i = range(len(self))[i]
        return self.matrix.take_rows([i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def margin_loss(embeddings, triplets, alpha: float, strict: bool = False) -> Tensor:
    """Mean hinge over the triplet set:
    max(0, alpha - cos(anchor, positive) + cos(anchor, negative)).

    ``embeddings`` is an ``Embeddings`` matrix or a sequence of [1 x d] rows,
    indexed by ``triplets`` (from ``build_triplets``). Returns a constant 0
    (with a logged notice) when the set is empty. Cosine similarity makes
    the loss invariant to positive rescaling of the embeddings (in float64,
    down to entries of about 1e-154, where squares turn subnormal). An
    embedding of squared norm 0 (``tensor._square_norms``) has cosine 0 with
    everything and a zero gradient, with a warning (DataError if strict).

    The loss is one graph node (``tensor.cosine_margin``) over the matrix,
    O(N²·d + T) work for N embeddings and T triplets; a list of rows adds
    one ``concat``.
    """
    is_matrix = isinstance(embeddings, Embeddings)
    if not triplets:
        log.info("margin loss: empty triplet set; contributing 0")
        first = embeddings.matrix if is_matrix else next(iter(embeddings), None)
        return Tensor(np.zeros((), dtype=np.float64 if first is None else first.data.dtype))
    e = embeddings.matrix if is_matrix else T.concat(embeddings, axis=0)
    zero = T._square_norms(e.data) == 0.0       # the rows cosine_margin treats as zero
    if zero.any():
        if strict:
            raise DataError(f"zero-norm embedding at index {int(np.argmax(zero))}")
        log.warning("margin loss: %d zero-norm embedding(s); treating their cosines as 0",
                    int(zero.sum()))
    group = triplets.group
    return T.cosine_margin(e, triplets.positives[group], triplets.negatives[group], alpha)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over rows of ``logits`` [N x c],
    stabilized through max-subtracted log-sum-exp: one
    ``tensor.softmax_nll`` node, which checks the shapes and that each label
    is a whole number in [0, c)."""
    return T.softmax_nll(logits, labels)


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
