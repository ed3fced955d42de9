"""Neural building blocks: linear, 1-D convolution, GRU, multi-head
attention, layer normalization, and the learnable-center gating block used
on the visual stream. ``LayerNorm.EPS`` and ``LvcBlock.KERNEL`` are constants.

Layers own their parameters as ``Tensor``s with ``requires_grad=True`` and
are callable on activation tensors; ``Module.named_parameters`` finds those
parameters in a layer's attributes. Parameters are immutable during a
forward/backward pass; updates happen between steps. Layers always build
float64 parameters; the model that owns them chooses its precision once and
casts them (see ``model.WavFusionModel``).

A batch of B sequences travels as one packed [sum(T) x d] matrix, the rows
of each sequence in turn, with a ``Segments`` layout beside it. Row-wise
layers (linear, layer norm) ignore the layout; every sequence layer (the
convolution, the GRU, attention, the codebook block) requires it as ``seg``,
and the primitive that reads it checks it against its input's rows.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .rng import Prng
from .tensor import Tensor


def xavier_uniform(rng: Prng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Symmetric uniform init with bound sqrt(6 / (fan_in + fan_out))."""
    a = math.sqrt(6.0 / (fan_in + fan_out))
    n = int(np.prod(shape, dtype=np.int64))
    return ((rng.uniform(n) * 2.0 - 1.0) * a).reshape(shape)


def _param(arr: np.ndarray) -> Tensor:
    return Tensor(arr, requires_grad=True)


def _named(value, name: str) -> list:
    if isinstance(value, Tensor):
        return [(name, value)] if value.requires_grad else []
    if isinstance(value, Module):
        return value.named_parameters(name + ".")
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in _named(item, f"{name}.{i}")]
    return []


class Module:
    """A layer or model whose parameters are its attributes; ``Module(**parts)``
    is a plain group of parts.

    ``named_parameters`` walks the attributes in assignment order and yields
    each trainable ``Tensor``, the parameters of each ``Module`` attribute,
    and those of each ``Module`` in a list attribute, named by position: a
    parameter's name is its attribute path.
    """

    def __init__(self, **parts):
        vars(self).update(parts)

    def named_parameters(self, prefix: str = "") -> list:
        """``(name, tensor)`` per parameter, each name behind ``prefix``."""
        return [p for attr, value in vars(self).items() for p in _named(value, prefix + attr)]


class Segments:
    """Row layout of B sequences packed into one [sum(T) x d] matrix:
    sequence b owns rows ``offsets[b]:offsets[b + 1]``.

    The index arrays feed ``Tensor.take_rows``, where -1 stands for a zero
    row. ``padded`` [B x T_max] lays each sequence out as one zero-padded
    block; ``time_major`` [T_max * B] does the same with time as the outer
    axis, and ``from_time_major`` [sum(T)] takes the packed rows back.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1:
            raise ShapeError(f"segments need one or more positive lengths; got {lengths.tolist()}")
        self.lengths = lengths
        self.count = lengths.size
        self.offsets = np.concatenate(([0], lengths)).cumsum()
        self.total = int(self.offsets[-1])
        self.t_max = int(lengths.max())
        self.ids = np.repeat(np.arange(self.count), lengths)            # sequence of each row
        self.positions = np.arange(self.total) - self.offsets[self.ids]  # time step of each row
        self.valid = np.arange(self.t_max) < lengths[:, None]            # [B x T_max]
        self.padded = np.where(self.valid, self.offsets[:-1, None] + np.arange(self.t_max), -1)
        self.time_major = self.padded.T.reshape(-1)
        self.from_time_major = self.positions * self.count + self.ids
        self._head_blocks: dict = {}

    def neighbours(self, k: int) -> np.ndarray:
        """[sum(T) x k] index of rows i - (k-1)/2 ... i + (k-1)/2, each kept
        only inside row i's own sequence (-1 outside it)."""
        shift = np.arange(k) - (k - 1) // 2
        pos = self.positions[:, None] + shift
        inside = (pos >= 0) & (pos < self.lengths[self.ids][:, None])
        return np.where(inside, np.arange(self.total)[:, None] + shift, -1)

    def pooling(self, dtype, mean: bool) -> np.ndarray:
        """[B x sum(T)] matrix that sums (or averages) each sequence's rows."""
        weights = 1.0 / self.lengths[self.ids] if mean else np.ones(self.total)
        out = np.zeros((self.count, self.total), dtype=dtype)
        out[self.ids, np.arange(self.total)] = weights
        return out

    def head_blocks(self, heads: int):
        """Index arrays between the packed rows, cut into ``heads`` column
        blocks each (row t*heads + i is block i of packed row t), and one
        padded [T_max x d_head] block per sequence and head; built once per
        head count. Returns ``(into, zero, back, pad)``:

        - ``into`` [B*heads x T_max] indexes those rows. A padding position
          repeats its sequence's last row, so the block holds finite values;
          the caller gives them no weight or drops them.
        - ``zero`` is ``into`` with -1 on the padding, for a gather that
          needs zero rows there.
        - ``back`` [sum(T)*heads] takes the blocks' [B*heads*T_max] rows back.
        - ``pad`` [B*heads x 1 x T_max] is 0 on real rows and -inf on the
          padding, to add to scores over them (None if there is none).
        """
        layout = self._head_blocks.get(heads)
        if layout is None:
            head = np.arange(heads)
            source = np.where(self.valid, self.padded, self.offsets[1:, None] - 1)
            into = source[:, None, :] * heads + head[:, None]
            zero = np.where(self.valid[:, None, :], into, -1)
            back = ((self.ids[:, None] * heads + head) * self.t_max + self.positions[:, None])
            pad = None
            if self.t_max * self.count != self.total:
                pad = np.where(self.valid, 0.0, -np.inf).repeat(heads, axis=0)[:, None, :]
            shape = (self.count * heads, self.t_max)
            layout = self._head_blocks[heads] = (into.reshape(shape), zero.reshape(shape),
                                                 back.reshape(-1), pad)
        return layout


class Linear(Module):
    """Affine map along the last dimension: y = x W + b."""

    def __init__(self, d_in: int, d_out: int, rng: Prng):
        self.weight = _param(xavier_uniform(rng, d_in, d_out, (d_in, d_out)))
        self.bias = _param(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.weight, self.bias)


class Conv1d(Module):
    """Same-length 1-D convolution over time (cross-correlation, zero pad).

    The kernel is one [(k*d_in) x d_out] matrix: row block o is the tap that
    acts on input rows shifted by o - (k-1)/2. The forward pass lays the k
    shifted copies of the input side by side (im2col, one row gather) and
    does one matmul. Each sequence of a packed batch is padded on its own.
    """

    def __init__(self, d_in: int, d_out: int, k: int, rng: Prng):
        if k < 1 or k % 2 == 0:
            raise ConfigError(f"conv kernel width must be odd and positive; got {k}")
        self.k = k
        fan_in = k * d_in
        self.weight = _param(np.concatenate(
            [xavier_uniform(rng.child(o), fan_in, d_out, (d_in, d_out)) for o in range(k)]))
        self.bias = _param(np.zeros(d_out))

    def __call__(self, x: Tensor, seg: Segments) -> Tensor:
        # zero padding at each sequence's ends: no window crosses into a neighbour.
        # A layout of too many rows fails in take_rows, one of too few in reshape.
        cols = x.take_rows(seg.neighbours(self.k)).reshape((*x.shape[:-1], self.k * x.shape[-1]))
        return T.affine(cols, self.weight, self.bias)


class Gru(Module):
    """Unidirectional single-layer GRU, h_0 = 0, returning every hidden state.

    z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
    r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
    c_t = tanh(x_t W_h + (r_t * h_{t-1}) U_h + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    The three input maps are one weight ``w`` = [W_z | W_r | W_h] with bias
    ``b`` = [b_z | b_r | b_h]; the recurrent ones are ``u_zr`` = [U_z | U_r]
    and ``u_h``, which stays apart because it multiplies r_t * h_{t-1}.

    The recurrence is one graph node (``tensor.gru``) on the packed input
    maps x W + b (one ``tensor.affine`` node); it steps one [B x d] state
    over the longest sequence.
    """

    def __init__(self, d_in: int, d_h: int, rng: Prng):
        self.w = _param(np.concatenate(
            [xavier_uniform(rng.child(i), d_in, d_h, (d_in, d_h)) for i in range(3)], axis=1))
        self.u_zr = _param(np.concatenate(
            [xavier_uniform(rng.child(3 + i), d_h, d_h, (d_h, d_h)) for i in range(2)], axis=1))
        self.u_h = _param(xavier_uniform(rng.child(5), d_h, d_h, (d_h, d_h)))
        self.b = _param(np.zeros(3 * d_h))

    def __call__(self, x: Tensor, seg: Segments) -> Tensor:
        return T.gru(T.affine(x, self.w, self.b), self.u_zr, self.u_h, seg)


class Attention(Module):
    """Scaled dot-product multi-head attention from the query rows ``x``
    (layout ``seg``) into the context rows ``ctx`` (layout ``ctx_seg``);
    self-attention passes ``x`` and its layout twice.

    Each of ``q``, ``k``, ``v`` and ``out`` is one [d x d] matrix. The
    columns of the first three are head-major: head i owns columns
    [i*d_head, (i+1)*d_head). A call, projections included, is one
    ``tensor.attention`` node at any head count; it works per sequence and
    head, so the score tensor is [B*heads x T_max x T_ctx_max], never
    [sum(T) x sum(T_ctx)].
    """

    def __init__(self, d: int, heads: int, rng: Prng):
        self.check(d, heads)
        self.heads = heads
        self.d_head = d // heads
        # head i of role j (q, k, v) is drawn from rng.child(3i + j)
        self.q, self.k, self.v = (
            _param(np.concatenate([xavier_uniform(rng.child(3 * i + j), d, self.d_head,
                                                  (d, self.d_head))
                                   for i in range(heads)], axis=1))
            for j in range(3))
        self.out = _param(xavier_uniform(rng.child(3 * heads), d, d, (d, d)))

    @staticmethod
    def check(d: int, heads: int) -> None:
        if d < 1 or heads < 1 or d % heads != 0:
            raise ConfigError(f"model width {d} must be a positive multiple of heads={heads}",
                              ("d", "heads"))

    def __call__(self, x: Tensor, ctx: Tensor, seg: Segments, ctx_seg: Segments) -> Tensor:
        return T.attention(x, ctx, self.q, self.k, self.v, self.out, self.heads, seg, ctx_seg)[0]


class LayerNorm(Module):
    """Per-row normalization of a residual sum x + y over the last
    dimension, with learnable gain/bias: one ``tensor.layer_norm`` node."""

    EPS = 1e-5

    def __init__(self, d: int):
        self.gain = _param(np.ones(d))
        self.bias = _param(np.zeros(d))

    def __call__(self, x: Tensor, y: Tensor) -> Tensor:
        return T.layer_norm(x, y, self.gain, self.bias, self.EPS)


class LvcBlock(Module):
    """Local feature gate built on a learnable codebook.

    A conv1d stem maps the input to [T x d]. Each position is softly assigned
    to K learnable centers with weights softmax_k(-s_k * ||x_i - b_k||^2); the
    weighted residuals are averaged over time into one descriptor, projected,
    and squashed into a per-channel gate in (0, 1) that scales the stem output
    at every time step. A packed batch gets one descriptor and one gate [B x d]
    per sequence. After the stem this is three graph nodes:
    ``tensor.codebook_pool``, the projection's ``affine`` and
    ``tensor.sequence_gate``.
    """

    KERNEL = 3    # width of the conv stem

    def __init__(self, d_in: int, d: int, n_centers: int, rng: Prng):
        self.check(n_centers)
        self.stem = Conv1d(d_in, d, self.KERNEL, rng.child(0))
        self.centers = _param((rng.child(1).normal(n_centers * d) * 0.1).reshape(n_centers, d))
        self.scales = _param(np.ones(n_centers))
        self.proj = Linear(d, d, rng.child(2))

    @staticmethod
    def check(n_centers: int) -> None:
        if n_centers < 1:
            raise ConfigError(f"codebook needs at least one center; got {n_centers}",
                              ("lvc_centers",))

    def __call__(self, x: Tensor, seg: Segments) -> Tensor:
        """The gated stem output."""
        stem_out = self.stem(x, seg)
        descriptor = T.codebook_pool(stem_out, self.centers, self.scales, seg)[0]
        return T.sequence_gate(stem_out, self.proj(descriptor), seg)[0]
