"""Correctness checks run beside the timed work, never inside a timed region.

Each returns an error message, or None when the output is right.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

MARGIN_TOLERANCE = 1e-10   # acceptance criterion 2


def finite_loss(value: float):
    return None if math.isfinite(value) else f"non-finite loss {value!r}"


def margin_embeddings(wf, model, chunk, mask):
    """The (modality, label) entries and shared embeddings ``batch_objective``
    feeds the margin loss, recomputed without a graph."""
    entries, embeddings = [], []
    with wf.tensor.no_grad():
        for sample in chunk:
            trace = model.forward(sample, mask)
            model.shared_encode(trace)
            for m in mask:
                entries.append((m, sample.label))
                embeddings.append(trace.shared[m])
    return entries, embeddings


def margin_against_oracle(wf, entries, embeddings, alpha):
    """``losses.margin_loss`` on these embeddings, checked against the
    brute-force ``oracles.margin_loss_reference``. Returns (value, error)."""
    with wf.tensor.no_grad():
        value = float(wf.losses.margin_loss(embeddings, wf.losses.build_triplets(entries),
                                            alpha).data)
    reference = wf.oracles.margin_loss_reference(
        [(m, label, e.data.reshape(-1).tolist()) for (m, label), e in zip(entries, embeddings)],
        alpha)
    if abs(value - reference) > MARGIN_TOLERANCE:
        return value, f"margin loss {value!r} differs from the reference {reference!r}"
    return value, None


def step_margin(step_value: float, checked_value: float):
    """The margin the training step computed equals the checked one."""
    if abs(step_value - checked_value) > MARGIN_TOLERANCE:
        return f"step margin {step_value!r} differs from the checked {checked_value!r}"
    return None


def eval_matches_objective(wf, model, chunk, mask, alpha, predictions):
    """``train.evaluate`` predictions equal the argmax of the
    ``batch_objective`` logits for the same utterances (margin term off: it
    does not touch the logits)."""
    with wf.tensor.no_grad():
        _, _, _, expected = wf.train.batch_objective(model, chunk, mask, alpha, 0.0)
    if list(predictions) != list(expected):
        return f"evaluate predicted {list(predictions)}, batch_objective argmax {list(expected)}"
    return None


def fingerprint(losses) -> str:
    """sha256 of the float64 bytes of a loss trace: equal iff every loss is
    bit-identical."""
    return hashlib.sha256(np.asarray(losses, dtype="<f8").tobytes()).hexdigest()
