"""Adaptive moment estimation optimizer (bias-corrected first and second
moments; Kingma & Ba, arXiv:1412.6980). A missing gradient counts as zero, so
a step with no gradients leaves parameters untouched at fresh state.

Every parameter and its moments live in three flat arrays in ``named_params``
order, each parameter's ``data`` a view of its slice. ``step`` updates them in
place, a cache-sized chunk of tensors at a time, with the per-tensor rule's
operations in its order, so the results are bit-identical to it. A parameter
whose ``data`` was rebound (``checkpoint.load_model``) is copied into its slice
at the next step; the rebound array is never written.
"""

from __future__ import annotations

import numpy as np

CHUNK = 32768       # elements: a chunk's five slices (m, v, parameters, two scratch) fit in L2


class Adam:
    def __init__(self, named_params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        dtypes = {p.data.dtype for _, p in self.named_params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs one parameter dtype; got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float64
        ends = np.cumsum([0] + [p.data.size for _, p in self.named_params]).tolist()
        self.flat_p, self.flat_m, self.flat_v = np.zeros((3, ends[-1]), dtype)
        self._chunks = []
        for (_, p), lo, hi in zip(self.named_params, ends, ends[1:]):
            view = self.flat_p[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            if not self._chunks or hi - self._chunks[-1][0] > CHUNK:   # a larger tensor: alone
                self._chunks.append((lo, []))
            start, members = self._chunks[-1]
            members.append((p, view, lo - start, hi - start))
        self._width = max((ms[-1][3] for _, ms in self._chunks), default=0)

    def step(self) -> None:
        self.t += 1
        beta1, beta2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1 = 1.0 - beta1 ** self.t
        c2 = 1.0 - beta2 ** self.t
        scratch = np.empty((2, self._width), self.flat_p.dtype)
        for lo, members in self._chunks:
            hi = lo + members[-1][3]
            g, u = scratch[:, :hi - lo]
            for p, view, a, b in members:
                if p.data is not view:      # rebound since the last step: adopt its values
                    view[...] = p.data
                    p.data = view
                g[a:b].reshape(view.shape)[...] = 0.0 if p.grad is None else p.grad
            m, v, x = self.flat_m[lo:hi], self.flat_v[lo:hi], self.flat_p[lo:hi]
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(beta1, m, out=m)
            np.multiply(1.0 - beta1, g, out=u)
            np.add(m, u, out=m)
            # v = beta2 * v + (1 - beta2) * (g * g); g then holds the update
            np.multiply(g, g, out=g)
            np.multiply(1.0 - beta2, g, out=g)
            np.multiply(beta2, v, out=v)
            np.add(v, g, out=v)
            # x = x - lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=g)
            np.multiply(lr, g, out=g)
            np.divide(v, c2, out=u)
            np.sqrt(u, out=u)
            np.add(u, eps, out=u)
            np.divide(g, u, out=g)
            np.subtract(x, g, out=x)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None
