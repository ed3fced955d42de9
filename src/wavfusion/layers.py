"""Neural building blocks: linear, 1-D convolution, GRU, multi-head
attention, layer normalization, and the learnable-center gating block used
on the visual stream.

Layers own their parameters as ``Tensor``s with ``requires_grad=True`` and
are callable on activation tensors. Parameters are immutable during a
forward/backward pass; updates happen between steps.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .rng import Prng
from .tensor import Tensor


def xavier_uniform(rng: Prng, fan_in: int, fan_out: int, shape, dtype) -> np.ndarray:
    """Symmetric uniform init with bound sqrt(6 / (fan_in + fan_out))."""
    a = math.sqrt(6.0 / (fan_in + fan_out))
    n = int(np.prod(shape, dtype=np.int64))
    return ((rng.uniform(n) * 2.0 - 1.0) * a).astype(dtype).reshape(shape)


def _param(arr: np.ndarray) -> Tensor:
    return Tensor(arr, requires_grad=True)


class Linear:
    """Affine map along the last dimension: y = x W + b."""

    def __init__(self, d_in: int, d_out: int, rng: Prng, dtype=np.float64):
        self.d_in = d_in
        self.d_out = d_out
        self.weight = _param(xavier_uniform(rng, d_in, d_out, (d_in, d_out), dtype))
        self.bias = _param(np.zeros(d_out, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeError(f"linear: input {list(x.shape)} does not end in d_in={self.d_in}")
        return (x @ self.weight).add_row(self.bias)

    def named_parameters(self, prefix: str):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class Conv1d:
    """Same-length 1-D convolution over time (cross-correlation, zero pad).

    The kernel is one [(k*d_in) x d_out] matrix: row block o is the tap that
    acts on input rows shifted by o - (k-1)/2. The forward pass lays the k
    shifted copies of the input side by side (im2col) and does one matmul.
    """

    def __init__(self, d_in: int, d_out: int, k: int, rng: Prng, dtype=np.float64):
        if k < 1 or k % 2 == 0:
            raise ConfigError(f"conv1d kernel width must be odd and positive; got {k}")
        self.d_in = d_in
        self.d_out = d_out
        self.k = k
        fan_in = k * d_in
        self.weight = _param(np.concatenate(
            [xavier_uniform(rng.child(o), fan_in, d_out, (d_in, d_out), dtype) for o in range(k)]))
        self.bias = _param(np.zeros(d_out, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeError(f"conv1d: input {list(x.shape)} does not match d_in={self.d_in}")
        t_len = x.shape[0]
        pad = (self.k - 1) // 2
        xp = x.pad_rows(pad, pad)
        cols = T.concat([xp.slice_rows(o, o + t_len) for o in range(self.k)], axis=-1)
        return (cols @ self.weight).add_row(self.bias)

    def named_parameters(self, prefix: str):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class Gru:
    """Unidirectional single-layer GRU, h_0 = 0, returning every hidden state.

    z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
    r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
    c_t = tanh(x_t W_h + (r_t * h_{t-1}) U_h + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    The three input maps are one weight ``w`` = [W_z | W_r | W_h] with bias
    ``b`` = [b_z | b_r | b_h]; the recurrent ones are ``u_zr`` = [U_z | U_r]
    and ``u_h``, which stays apart because it multiplies r_t * h_{t-1}.
    """

    def __init__(self, d_in: int, d_h: int, rng: Prng, dtype=np.float64):
        self.d_in = d_in
        self.d_h = d_h
        self.dtype = dtype
        self.w = _param(np.concatenate(
            [xavier_uniform(rng.child(i), d_in, d_h, (d_in, d_h), dtype) for i in range(3)], axis=1))
        self.u_zr = _param(np.concatenate(
            [xavier_uniform(rng.child(3 + i), d_h, d_h, (d_h, d_h), dtype) for i in range(2)], axis=1))
        self.u_h = _param(xavier_uniform(rng.child(5), d_h, d_h, (d_h, d_h), dtype))
        self.b = _param(np.zeros(3 * d_h, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeError(f"gru: input {list(x.shape)} does not match d_in={self.d_in}")
        d = self.d_h
        pre = (x @ self.w).add_row(self.b)
        pre_zr, pre_h = pre.slice_last(0, 2 * d), pre.slice_last(2 * d, 3 * d)
        h = Tensor(np.zeros((1, d), dtype=self.dtype))
        steps = []
        for t in range(x.shape[0]):
            zr = (pre_zr.slice_rows(t, t + 1) + h @ self.u_zr).sigmoid()
            z, r = zr.slice_last(0, d), zr.slice_last(d, 2 * d)
            cand = (pre_h.slice_rows(t, t + 1) + (r * h) @ self.u_h).tanh()
            h = (z.scale(-1.0) + 1.0) * h + z * cand
            steps.append(h)
        return T.concat(steps, axis=0)

    def named_parameters(self, prefix: str):
        return [(f"{prefix}.w", self.w), (f"{prefix}.u_zr", self.u_zr),
                (f"{prefix}.u_h", self.u_h), (f"{prefix}.b", self.b)]


class Attention:
    """Scaled dot-product multi-head attention with separate query and
    context inputs; self-attention is the ``ctx is x`` case. No mask.

    Each of ``wq``, ``wk``, ``wv`` and ``wo`` is one [d x d] matrix. The
    columns of the first three are head-major: head i owns columns
    [i*d_head, (i+1)*d_head). Heads run as the leading axis of rank-3
    tensors, so one call costs the same number of graph nodes at any head
    count.
    """

    def __init__(self, d: int, heads: int, rng: Prng, dtype=np.float64):
        if d % heads != 0:
            raise ConfigError(f"model width {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.d_head = d // heads
        # head i of role j (q, k, v) is drawn from rng.child(3i + j)
        self.wq, self.wk, self.wv = (
            _param(np.concatenate([xavier_uniform(rng.child(3 * i + j), d, self.d_head,
                                                  (d, self.d_head), dtype)
                                   for i in range(heads)], axis=1))
            for j in range(3))
        self.wo = _param(xavier_uniform(rng.child(3 * heads), d, d, (d, d), dtype))

    def _split(self, x: Tensor, w: Tensor) -> Tensor:
        """x @ w with its head-major columns split off: [heads x d_head x T]."""
        return (x @ w).transpose().reshape((self.heads, self.d_head, x.shape[0]))

    def _weights(self, x: Tensor, ctx: Tensor) -> Tensor:
        """Attention weights of every head: [heads x T_x x T_ctx]."""
        if x.ndim != 2 or x.shape[1] != self.d or ctx.ndim != 2 or ctx.shape[1] != self.d:
            raise ShapeError(f"attention: inputs {list(x.shape)}, {list(ctx.shape)} need width {self.d}")
        scores = self._split(x, self.wq).transpose() @ self._split(ctx, self.wk)
        return scores.scale(1.0 / math.sqrt(self.d_head)).softmax(axis=-1)

    def __call__(self, x: Tensor, ctx: Tensor | None = None) -> Tensor:
        ctx = x if ctx is None else ctx
        weights = self._weights(x, ctx)
        # per head, (weights @ v) transposed: [heads x d_head x T_x]
        out = self._split(ctx, self.wv) @ weights.transpose()
        return out.reshape((self.d, x.shape[0])).transpose() @ self.wo

    def attention_weights(self, x: Tensor, ctx: Tensor | None = None) -> list[np.ndarray]:
        """Per-head weight matrices of a forward pass (values only)."""
        with T.no_grad():
            return list(self._weights(x, x if ctx is None else ctx).data)

    def named_parameters(self, prefix: str):
        return [(f"{prefix}.q", self.wq), (f"{prefix}.k", self.wk), (f"{prefix}.v", self.wv),
                (f"{prefix}.out", self.wo)]


class LayerNorm:
    """Per-row normalization over the last dimension with learnable gain/bias."""

    EPS = 1e-5

    def __init__(self, d: int, dtype=np.float64):
        self.d = d
        self.gain = _param(np.ones(d, dtype=dtype))
        self.bias = _param(np.zeros(d, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ShapeError(f"layer_norm: input {list(x.shape)} needs width {self.d}")
        n = x.shape[1]
        mean = x.sum_last_keep().scale(1.0 / n)
        centered = x.sub_col(mean)
        var = (centered * centered).sum_last_keep().scale(1.0 / n)
        std = (var + self.EPS).sqrt()
        return centered.div_col(std).mul_row(self.gain).add_row(self.bias)

    def named_parameters(self, prefix: str):
        return [(f"{prefix}.gain", self.gain), (f"{prefix}.bias", self.bias)]


class LvcBlock:
    """Local feature gate built on a learnable codebook.

    A conv1d stem maps the input to [T x d]. Each position is softly assigned
    to K learnable centers with weights softmax_k(-s_k * ||x_i - b_k||^2); the
    weighted residuals are averaged over time into one descriptor, projected,
    and squashed into a per-channel gate in (0, 1) that scales the stem output
    at every time step.
    """

    def __init__(self, d_in: int, d: int, k_conv: int, n_centers: int, rng: Prng, dtype=np.float64):
        if n_centers < 1:
            raise ConfigError(f"codebook needs at least one center; got {n_centers}")
        self.d = d
        self.n_centers = n_centers
        self.stem = Conv1d(d_in, d, k_conv, rng.child(0), dtype)
        self.centers = _param((rng.child(1).normal(n_centers * d) * 0.1).astype(dtype).reshape(n_centers, d))
        self.scales = _param(np.ones(n_centers, dtype=dtype))
        self.proj = Linear(d, d, rng.child(2), dtype)

    def __call__(self, x: Tensor, return_parts: bool = False):
        stem_out = self.stem(x)
        t_len = stem_out.shape[0]
        x_sq = (stem_out * stem_out).sum_last_keep()                    # [T x 1]
        c_sq = (self.centers * self.centers).sum_last_keep().reshape((self.n_centers,))
        cross = stem_out @ self.centers.transpose()                     # [T x K]
        dist_sq = cross.scale(-2.0).add_col(x_sq).add_row(c_sq)
        assign = dist_sq.mul_row(self.scales).scale(-1.0).softmax(axis=-1)

        ones = Tensor(np.ones((1, t_len), dtype=stem_out.data.dtype))
        weight_per_pos = assign.sum_last_keep()                         # [T x 1], ~1
        pooled = ones @ stem_out.mul_col(weight_per_pos)                # sum_i sum_k w_ik x_i
        center_mass = (ones @ assign) @ self.centers                    # sum_i sum_k w_ik b_k
        descriptor = (pooled - center_mass).scale(1.0 / t_len)          # [1 x d]

        gate = self.proj(descriptor).sigmoid().reshape((self.d,))
        out = stem_out.mul_row(gate)
        if return_parts:
            return out, assign, gate
        return out

    def named_parameters(self, prefix: str):
        out = self.stem.named_parameters(f"{prefix}.stem")
        out += [(f"{prefix}.centers", self.centers), (f"{prefix}.scales", self.scales)]
        out += self.proj.named_parameters(f"{prefix}.proj")
        return out
