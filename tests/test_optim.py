"""Adam over flat, chunked state against the per-tensor loop it replaced.

``ReferenceAdam`` is that loop, kept as the reference: fresh ``m``, ``v`` and
parameter arrays per tensor and step. The flat optimizer applies the same
operations in the same order to every element, so parameters and moments
must be bit-identical to it, not merely close.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from wavfusion import optim
from wavfusion.checkpoint import load_model, save_model
from wavfusion.model import WavFusionModel
from wavfusion.optim import Adam
from wavfusion.tensor import Tensor

SHAPES = [("shallow.0.w", (6, 5)), ("shallow.0.b", (5,)), ("a.w", (7, 4)), ("a.b", (4,)),
          ("b.w", (40, 3)), ("b.s", ()), ("c.w", (3, 2, 5)), ("c.b", (1,)), ("d.w", (9, 9))]
DIMS = {"a": 4, "t": 3, "v": 3}


class ReferenceAdam:
    """The per-tensor ``Adam.step`` loop, as it was before the flat state."""

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named_params = list(named_params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else 0.0
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def twin_params(dtype, seed=0):
    """Two lists of equal named parameters: one for Adam, one for the reference."""
    rng = np.random.default_rng(seed)
    values = [(name, rng.standard_normal(shape).astype(dtype)) for name, shape in SHAPES]
    return ([(name, Tensor(v.copy(), requires_grad=True)) for name, v in values],
            [(name, Tensor(v.copy(), requires_grad=True)) for name, v in values])


def set_grads(rng, dtype, *param_lists):
    """The same random gradient on the same parameter of each list; about one
    in four is None."""
    for pairs in zip(*param_lists):
        g = None if rng.random() < 0.25 else rng.standard_normal(pairs[0][1].shape).astype(dtype)
        for _, p in pairs:
            p.grad = g


def assert_same_state(opt, ref):
    for (name, p), (_, q) in zip(opt.named_params, ref.named_params):
        assert p.data.dtype == q.data.dtype
        npt.assert_array_equal(p.data, q.data, err_msg=name)
        npt.assert_array_equal(opt.m[name], ref.m[name], err_msg=name)
        npt.assert_array_equal(opt.v[name], ref.v[name], err_msg=name)


class TestParity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("chunk", [optim.CHUNK, 50])
    def test_twenty_steps_bit_identical(self, monkeypatch, dtype, chunk):
        # chunk=50 puts several tensors in one chunk and gives b.w (120 elements) one alone
        monkeypatch.setattr(optim, "CHUNK", chunk)
        mine, theirs = twin_params(dtype)
        opt = Adam(mine, lr=0.01)
        ref = ReferenceAdam(theirs, lr=0.01)
        rng = np.random.default_rng(1)
        for _ in range(20):
            set_grads(rng, dtype, mine, theirs)
            opt.step()
            ref.step()
            assert_same_state(opt, ref)

    def test_mixed_dtypes_rejected(self):
        params = [("a", Tensor(np.zeros(2))), ("b", Tensor(np.zeros(2, np.float32)))]
        with pytest.raises(ValueError, match="dtype"):
            Adam(params)


class TestRebind:
    def test_plain_assignment_is_adopted_and_left_unwritten(self):
        mine, theirs = twin_params(np.float64)
        opt = Adam(mine, lr=0.01)
        ref = ReferenceAdam(theirs, lr=0.01)
        rng = np.random.default_rng(2)
        for step in range(4):
            if step == 2:
                arr = rng.standard_normal((40, 3))
                kept = arr.copy()
                dict(mine)["b.w"].data = arr
                dict(theirs)["b.w"].data = arr.copy()
            set_grads(rng, np.float64, mine, theirs)
            opt.step()
            ref.step()
            assert_same_state(opt, ref)
        npt.assert_array_equal(arr, kept)
        assert dict(mine)["b.w"].data is not arr

    def test_load_model_after_construction(self, tmp_path):
        def model(seed):
            return WavFusionModel(num_classes=2, feature_dims=DIMS, d=8, heads=2, n_shallow=1,
                                  n_deep=1, lvc_centers=2, seed=seed)

        path = tmp_path / "other.wvfn"
        save_model(path, model(seed=5))
        mine, theirs = model(seed=1), model(seed=1)
        opt = Adam(mine.named_parameters(), lr=0.01)
        ref = ReferenceAdam(theirs.named_parameters(), lr=0.01)
        rng = np.random.default_rng(3)
        set_grads(rng, np.float64, opt.named_params, ref.named_params)
        opt.step()
        ref.step()
        load_model(path, mine)
        load_model(path, theirs)
        loaded = {name: p.data for name, p in opt.named_params}
        kept = {name: arr.copy() for name, arr in loaded.items()}
        for _ in range(2):
            set_grads(rng, np.float64, opt.named_params, ref.named_params)
            opt.step()
            ref.step()
            assert_same_state(opt, ref)
        for name, arr in loaded.items():
            npt.assert_array_equal(arr, kept[name], err_msg=name)


class TestMemory:
    def test_step_allocates_at_most_two_chunks(self):
        model = WavFusionModel(num_classes=4, feature_dims=DIMS, d=64, heads=4, n_shallow=9,
                               n_deep=3, lvc_centers=8, seed=0)
        params = model.named_parameters()
        opt = Adam(params)
        nbytes = opt.flat_p.nbytes
        assert nbytes > 5_000_000       # ~6 MB of float64 parameters
        rng = np.random.default_rng(4)
        for _, p in params:
            p.grad = rng.standard_normal(p.data.shape)
        opt.step()                      # warm: first-call allocations are not the step's
        largest = max(p.data.size for _, p in params)
        scratch = 2 * max(optim.CHUNK, largest) * opt.flat_p.itemsize
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= scratch + 64 * 1024, (peak, scratch)
