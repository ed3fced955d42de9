"""Spans around the program's public calls, recorded from the benchmark's side.

``Tracer.install`` swaps each traced callable (a module function or a class
method) for a wrapper that records a span ``[name, start, end, parent,
step]`` and calls through; ``uninstall`` puts the originals back, so untraced
steps run the unmodified program. Spans stay in memory until ``write``.

While installed the tracer also counts ``Tensor`` constructions and records
garbage collections through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter

NAME, START, END, PARENT, STEP = range(5)


class Tracer:
    """Use as a context manager around the region to trace."""

    def __init__(self, wf):
        self.spans: list = []
        self.gc_events: list = []       # (start, end, generation, step)
        self.tensors = 0
        self.step = None                # step id stamped on new spans
        self.margin_calls: list = []    # (embedding arrays, triplets, alpha) per margin_loss call
        self._stack: list = []
        self._saved: list = []
        self._gc_start = 0.0
        self.deep_index: dict = {}     # id(deep layer) -> position, see ``watch``
        train, data = wf.train, wf.data
        self._targets = [
            (data, "load_dataset", "data.load_dataset"),
            (train, "build_model", "model.build"),
            (train, "batch_objective", "train.batch_objective"),
            (train, "evaluate", "train.evaluate"),
            # the loss functions under the names train.py imported them by,
            # so that the calls batch_objective makes are the ones traced
            (train, "margin_loss", "losses.margin_loss"),
            (train, "build_triplets", "losses.build_triplets"),
            (train, "cross_entropy", "losses.cross_entropy"),
            (wf.WavFusionModel, "audio_stack", "model.audio_stack"),
            (wf.WavFusionModel, "text_branch", "model.text_branch"),
            (wf.WavFusionModel, "visual_branch", "model.visual_branch"),
            (wf.WavFusionModel, "shared_encode", "model.shared_encode"),
            (wf.GatedCrossModalLayer, "__call__",
             lambda layer, *a, **k: f"model.deep.{self.deep_index[id(layer)]}"),
            (wf.LvcBlock, "__call__", "layers.lvc"),
            (wf.Tensor, "backward", "tensor.backward"),
            (wf.Adam, "step", "optim.adam_step"),
        ]
        self._tensor_cls = wf.Tensor

    def watch(self, model):
        """Name deep-layer spans after their position in ``model``."""
        self.deep_index = {id(layer): i for i, layer in enumerate(model.deep)}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- patching ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(*args, **kwargs),
                   clock(), 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
        return traced

    def install(self):
        for owner, attr, name in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrapped = self._wrap(name, original)
            if name == "losses.margin_loss":
                wrapped = self._capture_margin(wrapped)
            setattr(owner, attr, wrapped)
        init = self._tensor_cls.__init__
        self._saved.append((self._tensor_cls, "__init__", init))

        def counting_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)
        self._tensor_cls.__init__ = counting_init
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _capture_margin(self, fn):
        def capture(embeddings, triplets, alpha, *args, **kwargs):
            self.margin_calls.append(([e.data for e in embeddings], triplets, alpha))
            return fn(embeddings, triplets, alpha, *args, **kwargs)
        return capture

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_events.append((self._gc_start, clock(), info["generation"], self.step))

    # -- output -------------------------------------------------------------------

    def write(self, path):
        """One JSON object per span, with its id and self time, then one per gc."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "step": s[STEP],
                                     "self_s": own[i]}) + "\n")
            for start, end, gen, step in self.gc_events:
                fh.write(json.dumps({"gc": gen, "start": start, "end": end, "step": step}) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s[START]
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            lo, hi = max(spans[c][START], cursor), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s[END] - s[START]) - covered)
    return out


def per_step(spans, name, steps, own=None) -> list:
    """Summed duration (or self time, given ``own``) of spans called ``name``
    in each of ``steps``, in seconds; a step without such a span counts 0."""
    total = dict.fromkeys(steps, 0.0)
    for i, s in enumerate(spans):
        if s[NAME] == name and s[STEP] in total:
            total[s[STEP]] += own[i] if own is not None else s[END] - s[START]
    return [total[k] for k in steps]


def active_hinges(vectors, triplets, alpha) -> int:
    """Triplets whose hinge alpha - cos(a, p) + cos(a, n) is positive, with
    the zero-norm-means-zero cosine convention."""
    if not triplets:
        return 0
    e = np.stack([v.reshape(-1) for v in vectors])
    norms = np.sqrt((e * e).sum(axis=1))
    unit = np.divide(e, norms[:, None], out=np.zeros_like(e), where=norms[:, None] > 0)
    cos = unit @ unit.T
    a = np.fromiter((t.anchor for t in triplets), dtype=np.int64, count=len(triplets))
    p = np.fromiter((t.positive for t in triplets), dtype=np.int64, count=len(triplets))
    n = np.fromiter((t.negative for t in triplets), dtype=np.int64, count=len(triplets))
    return int(((alpha - cos[a, p] + cos[a, n]) > 0.0).sum())
