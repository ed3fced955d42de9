"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 or float64); the graph is implicit. Each op
returns ``_result(value, inputs, vjp)``, the one call that makes a node: while
recording, and if some input requires a gradient, it keeps the inputs as
``_parents`` and ``vjp`` as ``_vjp``, else neither. ``vjp`` maps the result's
adjoint to a tuple with one gradient per input; work only it needs is done
inside it. It reads only arrays captured in the forward pass, never its own
output, so rebinding an input's ``data`` before ``backward`` leaves the
gradient unchanged, and a graph holds no reference cycles: dropping the loss
frees it without waiting for the cyclic garbage collector.

``backward`` is the only writer of ``grad``. Over an iteratively-built
topological order (deep graphs never touch the recursion limit) it calls each
``_vjp`` once and sums each gradient into its input, in input order, skipping
inputs that need no gradient; a ``_vjp`` may return None for such an input
instead of computing a gradient nobody reads. The first gradient an input
receives is kept as given, cast only where its dtype differs from the
input's, so a ``grad`` may share memory with an adjoint or another ``grad``,
or be a read-only broadcast view: nothing writes into a gradient.

The ops are a few structural ones (``+``, ``scale``, ``@``, ``reshape``,
``take_rows``, ``concat``) and one node per layer, each
with a closed-form adjoint: ``affine``, ``feed_forward``, ``layer_norm``,
``attention`` (with its projections), ``gru``, ``gated_mix``,
``codebook_pool``, ``sequence_gate`` and the losses ``cosine_margin`` and
``softmax_nll``.
Shape discipline is strict: ``+`` demands equal shapes, there is no
implicit broadcast, and each op checks its inputs and names itself in the
error.

No op writes into its inputs' ``data`` or into the adjoint it is given, and
no caller writes into an activation (an op's output). ``reshape`` returns a
view and each ``_vjp`` captures its inputs' arrays, so both rely on this. A
leaf, such as a parameter, may change in place only while no graph over it
is waiting for ``backward``. In-place arithmetic (``+=``, ``out=``) is only
for arrays the op or its ``_vjp`` allocated in the same call, such as a fresh
matmul result that becomes the output once its bias is added.

``backward`` may run once per graph, clearing each ``_vjp`` it calls (a node
with ``_parents`` and no ``_vjp`` is consumed); a fresh forward rebuilds it.
A graph and its tensors belong to one thread during forward/backward;
independent graphs may run on separate threads, and ``no_grad`` in one
thread leaves recording in the others untouched.
"""

from __future__ import annotations

import math
from contextvars import ContextVar

import numpy as np

from .errors import DataError, GraphError, ShapeError

# per thread (and per asyncio task): one thread's no_grad never reaches another's graph
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph recording (values only) in the
    current thread."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def _shape(t) -> str:
    return str(list(t.data.shape))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp = None

    # -- introspection -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every reachable leaf (a tensor built from
        data, such as a parameter) that requires it. Interior adjoints are
        dropped once passed on to their inputs, so a pass never holds an
        adjoint for every node of the graph at once; so is each ``_vjp``, so
        no graph still holds a parameter's array when an optimizer step
        updates it in place.

        The receiver must be a scalar. Each graph supports exactly one
        backward pass; rebuilding via a fresh forward is the reset.
        """
        if self.data.shape != ():
            raise GraphError(f"backward requires a scalar loss; got shape {_shape(self)}")
        if self._parents and self._vjp is None:
            raise GraphError("backward already ran on this graph; rerun the forward pass")

        # the interior nodes in topological order; leaves need no visit
        topo = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                topo.append(node)
                stack.pop()
            elif id(child) not in visited:
                visited.add(id(child))
                if child._parents:
                    stack.append((child, iter(child._parents)))

        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(topo):
            if not node._parents:
                continue
            vjp, node._vjp = node._vjp, None
            if vjp is None:
                raise GraphError("graph shares nodes with an already-consumed backward pass")
            for parent, g in zip(node._parents, vjp(node.grad)):
                if parent.requires_grad:
                    if parent.grad is not None:
                        parent.grad = parent.grad + g
                    elif g.dtype == parent.data.dtype:
                        parent.grad = g
                    else:
                        parent.grad = g.astype(parent.data.dtype)
            node.grad = None

    # -- arithmetic and linear algebra -------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        _check_same(self, other, "add")
        return _result(self.data + other.data, (self, other), lambda g: (g, g))

    def scale(self, s: float) -> "Tensor":
        return _result(self.data * s, (self,), lambda g: (g * s,))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        """Matrix product of two matrices, or of two equal-size stacks of
        matrices ([n x m x k] @ [n x k x p], one product per leading index)."""
        a, b = self.data, other.data
        if a.ndim != b.ndim or a.ndim not in (2, 3) or a.shape[:-2] != b.shape[:-2]:
            raise ShapeError(f"matmul needs two rank-2 or two equal-batch rank-3 operands; "
                             f"got {_shape(self)} and {_shape(other)}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions of {_shape(self)} and {_shape(other)} disagree")
        need_a, need_b = self.requires_grad, other.requires_grad
        return _result(a @ b, (self, other),
                       lambda g: (g @ _swap(b) if need_a else None, _swap(a) @ g if need_b else None))

    # -- structure -------------------------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        shape = tuple(shape)
        if int(np.prod(shape, dtype=np.int64)) != self.data.size:
            raise ShapeError(f"reshape: {_shape(self)} has {self.data.size} elements, target {list(shape)}")
        before = self.data.shape
        # a view when the layout allows; safe because no op writes into an input
        return _result(self.data.reshape(shape), (self,), lambda g: (g.reshape(before),))

    def take_rows(self, index) -> "Tensor":
        """Rows picked by an integer array of any shape: with the tensor seen
        as [rows x width] (every axis but the last flattened), ``out[i...] =
        rows[index[i...]]``, and a zero row where ``index`` is -1. The result
        has shape ``index.shape + (width,)``. An index may repeat, so the
        adjoint is a scatter-add."""
        x = self.data
        if x.ndim < 2:
            raise ShapeError(f"take_rows needs a tensor of rank >= 2; got {_shape(self)}")
        idx = np.asarray(index, dtype=np.intp)
        rows = x.reshape(-1, x.shape[-1])
        n, width = rows.shape
        if idx.size and (idx.min() < -1 or idx.max() >= n):
            raise ShapeError(f"take_rows: index out of range for {n} rows of {_shape(self)}")

        def vjp(g):
            # -1 (a zero row) scatters into an extra row that is dropped
            flat = (idx.reshape(-1, 1) % (n + 1)) * width + np.arange(width)
            total = np.bincount(flat.reshape(-1), weights=g.reshape(-1), minlength=(n + 1) * width)
            return (total[:n * width].reshape(x.shape).astype(x.dtype, copy=False),)
        return _result(_take(rows, idx), (self,), vjp)


# -- free functions --------------------------------------------------------------


def concat(tensors, axis: int) -> Tensor:
    """Concatenate along ``axis``; adjoint splits the gradient back."""
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ref = tensors[0].data.shape
    ax = axis % max(len(ref), 1)
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(s[i] != ref[i] for i in range(len(ref)) if i != ax):
            raise ShapeError(f"concat(axis={axis}): shapes {[list(x.data.shape) for x in tensors]} disagree")
    arrays = [t.data for t in tensors]

    def vjp(g):
        index = [slice(None)] * g.ndim
        grads, start = [], 0
        for arr in arrays:
            index[ax] = slice(start, start + arr.shape[ax])
            grads.append(g[tuple(index)])
            start += arr.shape[ax]
        return tuple(grads)
    return _result(np.concatenate(arrays, axis=ax), tensors, vjp)


# -- layer primitives: one node each, with a closed-form adjoint --------------------


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x W + b for x [m x n], ``weight`` [n x k] and ``bias`` [k]; the
    adjoint is (g Wᵀ, xᵀ g, the column sums of g)."""
    _check_affine(x.data.shape, weight, bias, "affine")
    a, w = x.data, weight.data
    val = a @ w
    val += bias.data
    need_x, need_w = x.requires_grad, weight.requires_grad
    return _result(val, (x, weight, bias), lambda g: (
        g @ w.T if need_x else None, a.T @ g if need_w else None, np.ones(len(g), g.dtype) @ g))


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """tanh(x W1 + b1) W2 + b2, the position-wise feed-forward block.

    With h the hidden rows and gh = (g W2ᵀ) * (1 - h²), the adjoint is
    dx = gh W1ᵀ, dW1 = xᵀ gh, db1 and db2 the column sums of gh and g, and
    dW2 = hᵀ g. Only h is kept for it.
    """
    _check_affine(x.data.shape, w1, b1, "feed_forward")
    _check_affine((x.data.shape[0], w1.data.shape[1]), w2, b2, "feed_forward")
    a, v1, v2 = x.data, w1.data, w2.data
    h = a @ v1
    h += b1.data
    np.tanh(h, out=h)
    val = h @ v2
    val += b2.data
    need_x = x.requires_grad

    def vjp(g):
        ones = np.ones(len(g), g.dtype)
        gh = g @ v2.T
        slope = h * h
        np.subtract(1.0, slope, out=slope)
        gh *= slope
        return gh @ v1.T if need_x else None, a.T @ gh, ones @ gh, h.T @ g, ones @ g
    return _result(val, (x, w1, b1, w2, b2), vjp)


def layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Each row of the residual sum x + ``residual`` (two [m x n] matrices)
    normalized to zero mean and unit (biased) variance, ``eps`` added under
    the root, then scaled by ``gain`` [n] and shifted by ``bias`` [n].

    The adjoint is the closed form of Ba et al. (arXiv:1607.06450): with
    x̂ the normalized rows and ĝ = g * gain,
    dx = (ĝ - mean(ĝ) - x̂ * mean(ĝ * x̂)) / std, the same for both summands.
    """
    _check_same(x, residual, "layer_norm")
    _check_row(x, gain, "layer_norm")
    _check_row(x, bias, "layer_norm")
    xhat = x.data + residual.data
    inv_n = 1.0 / xhat.shape[1]
    mean = np.add.reduce(xhat, axis=-1, keepdims=True)
    mean *= inv_n
    xhat -= mean
    std = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    std *= inv_n
    std += eps
    np.sqrt(std, out=std)
    xhat /= std
    w = gain.data
    val = xhat * w
    val += bias.data

    def vjp(g):
        # row means and column sums as matrix-vector products, which cost
        # less than .mean and .sum along short rows
        means, ones = np.full(xhat.shape[1], inv_n, xhat.dtype), np.ones(len(g), g.dtype)
        dx = g * w
        part = dx * xhat
        dx -= (dx @ means)[:, None]
        np.multiply(xhat, (part @ means)[:, None], out=part)
        dx -= part
        dx /= std
        np.multiply(g, xhat, out=part)
        return dx, dx, ones @ part, ones @ g
    return _result(val, (x, residual, gain, bias), vjp)


def cosine_margin(x: Tensor, positives, negatives, alpha: float):
    """Mean triplet hinge max(0, alpha - cos(x_a, x_p) + cos(x_a, x_n)) over
    every row a of x [N x d], every p in ``positives[a]`` and every n in
    ``negatives[a]`` (integer [N x P] and [N x Q], padded with -1). A zero
    row (one whose ``_square_norms`` is 0) has cosine 0 with every row and
    gets a zero gradient. Returns the hinge and, as values only, the zero
    rows: a boolean [N x 1] column.

    The rows are normalized (zero rows stay 0) into U and C = U Uᵀ; each
    anchor's hinges are one [P x Q] broadcast of two gathered rows of C, so
    the work is O(N²·d + N·P·Q) with no per-triplet index. The adjoint puts
    -(active negatives) / T on C[a, p] and +(active positives) / T on
    C[a, n] for T triples, then dU = (dC + dCᵀ) U and, per row,
    dx = (dU - u (u · dU)) / |x|.
    """
    a = x.data
    n = a.shape[0] if a.ndim == 2 else -1
    pos = np.asarray(positives, dtype=np.intp)
    neg = np.asarray(negatives, dtype=np.intp)
    if (n < 0 or pos.ndim != 2 or neg.ndim != 2 or pos.shape[0] != n or neg.shape[0] != n
            or any(i.size and (i.min() < -1 or i.max() >= n) for i in (pos, neg))):
        raise ShapeError(f"cosine_margin: indices {list(pos.shape)} and {list(neg.shape)} "
                         f"do not index the rows of {_shape(x)}")
    count = int(((pos >= 0).sum(axis=1) * (neg >= 0).sum(axis=1)).sum())
    if count == 0:
        raise ShapeError("cosine_margin: no (anchor, positive, negative) triple")
    sq = _square_norms(a)
    keep = sq != 0.0
    norm = np.sqrt(sq + ~keep).astype(a.dtype, copy=False)   # 1 on zero rows, masked below
    unit = a / norm
    unit *= keep
    # C in columns 0..N-1; a padded positive reads +inf and a padded
    # negative -inf (columns N and N+1), so its hinge is -inf: inactive
    table = np.empty((n, n + 2), dtype=a.dtype)
    table[:, :n] = unit @ unit.T.copy()
    table[:, n] = np.inf
    table[:, n + 1] = -np.inf
    rows = np.arange(n)[:, None]
    pos = np.where(pos < 0, n, pos)
    neg = np.where(neg < 0, n + 1, neg)
    hinge = table[rows, neg][:, None, :] - table[rows, pos][:, :, None]     # [N x P x Q]
    hinge += alpha
    active = hinge > 0.0

    def vjp(g):
        width = n + 2
        flat = np.concatenate([(rows * width + pos).reshape(-1), (rows * width + neg).reshape(-1)])
        counts = np.concatenate([-active.sum(axis=2).reshape(-1), active.sum(axis=1).reshape(-1)])
        weights = counts * (float(g) * (1.0 / count))
        dc = np.bincount(flat, weights=weights, minlength=n * width).reshape(n, width)[:, :n]
        du = (dc + dc.T).astype(a.dtype, copy=False) @ unit
        du *= keep
        return ((du - unit * (du * unit).sum(axis=-1, keepdims=True)) / norm,)
    return _result(np.maximum(hinge, 0.0, out=hinge).sum() * (1.0 / count), (x,), vjp), ~keep


def softmax_nll(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the class indices ``labels`` [N]
    under the row softmax of ``logits`` [N x c], through the max-subtracted
    log-sum-exp. A label that is not a whole number in [0, c) is a
    DataError. The adjoint is g (softmax - one-hot) / N.
    """
    x = logits.data
    lab = np.asarray(labels)
    if x.ndim != 2 or lab.shape != x.shape[:1] or lab.size == 0:
        raise ShapeError(f"softmax_nll: logits {_shape(logits)} and labels {list(lab.shape)} "
                         f"need one label per row, and at least one row")
    n, c = x.shape
    if lab.dtype.kind not in "iuf":
        raise DataError(f"labels must be class indices; got {lab.dtype} {lab.tolist()[:3]}")
    for bad, what in ((lab != np.round(lab), "is not a class index"),
                      ((lab < 0) | (lab >= c), f"outside [0, {c})")):
        if bad.any():
            raise DataError(f"label {lab[bad][0]} {what}")
    rows, idx = np.arange(n), lab.astype(np.intp)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dx = e / total
        dx[rows, idx] -= 1.0
        dx *= g * (1.0 / n)
        return (dx,)
    return _result((np.log(total) - shifted[rows, idx][:, None]).sum() * (1.0 / n), (logits,), vjp)


def attention(x: Tensor, ctx: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
              heads: int, seg, ctx_seg):
    """Multi-head scaled dot-product attention with its projections, on
    packed rows: per sequence and head, softmax(q kᵀ / sqrt(d_head)) v, and
    the packed result times ``wo``. Returns that and, as values only, the
    weights [B*heads x T_max x T_ctx_max] (block b*heads + i is sequence b's
    head i; rows and columns past a sequence's length are padding).

    The queries are q = x ``wq`` for ``x`` [sum(T) x d] (layout ``seg``), the
    keys and values k = c ``wk`` and v = c ``wv`` for the context c = ``ctx``
    [sum(T_ctx) x d] (layout ``ctx_seg``, both ``layers.Segments``); for
    self-attention ``ctx`` is ``x``, and ``backward`` sums its two gradients.
    The weights are [d x d]; the columns of the first three are head-major,
    head i owning [i*d_head, (i+1)*d_head).

    x is multiplied by wq, scaled by 1 / sqrt(d_head) on the way, and ctx
    once by the stack [wk, wv]. Each sequence and head then gets one padded
    block ([B*heads x T_max x d_head]). Padding repeats a real row, so its
    values are finite; padded keys get a weight of exactly 0 and padded
    query rows are never gathered back. The adjoint gathers the output's
    adjoint into zero-padded blocks, so padded queries pass nothing to the
    keys and values; with W the weights and G = dW, the scores get
    W (G - rowsum(G W)).
    """
    a, c = x.data, ctx.data
    d = a.shape[1] if a.ndim == 2 else -1
    if (d < 0 or c.ndim != 2 or c.shape[1] != d or d % heads
            or not wq.data.shape == wk.data.shape == wv.data.shape == wo.data.shape == (d, d)
            or seg.count != ctx_seg.count or (seg.total, ctx_seg.total) != (a.shape[0], c.shape[0])):
        raise ShapeError(f"attention: x {_shape(x)}, context {_shape(ctx)} and weights "
                         f"{[list(w.data.shape) for w in (wq, wk, wv, wo)]} do not fit {heads} "
                         f"heads and sequences of {seg.lengths.tolist()} and "
                         f"{ctx_seg.lengths.tolist()} rows")
    d_head, dtype, scale = d // heads, a.dtype, 1.0 / math.sqrt(d // heads)
    into_q, zero_q, back_q, _ = seg.head_blocks(heads)
    into_c, _, back_c, pad = ctx_seg.head_blocks(heads)
    w_q = wq.data * scale
    qh = (a @ w_q).reshape(-1, d_head).take(into_q, axis=0)
    # the context's keys and values, role-major: [2 x sum(T_ctx) x d]
    w_kv = np.concatenate([wk.data, wv.data]).reshape(2, d, d)
    kh, vh = np.matmul(c, w_kv).reshape(2, -1, d_head).take(into_c, axis=1)
    weights = _softmax_blocks(qh, kh, pad)
    o = (weights @ vh).reshape(-1, d_head).take(back_q, axis=0).reshape(a.shape)
    w_out = wo.data
    need_x, need_c = x.requires_grad, ctx.requires_grad

    def vjp(g):
        # the output's adjoint as blocks, with a zero row (the last) on the padding
        go = np.empty((a.shape[0] * heads + 1, d_head), dtype)
        go[-1] = 0.0
        np.matmul(g, w_out.T, out=go[:-1].reshape(a.shape))
        go = go.take(zero_q, axis=0)
        gs = go @ np.ascontiguousarray(_swap(vh))
        gs -= ((gs * weights) @ np.ones(kh.shape[1], dtype))[..., None]
        gs *= weights
        d_kv = np.empty((2, *kh.shape), dtype)
        np.matmul(_swap(gs), qh, out=d_kv[0])
        np.matmul(_swap(weights), go, out=d_kv[1])
        d_kv = d_kv.reshape(2, -1, d_head).take(back_c, axis=1).reshape(2, -1, d)
        d_c = np.matmul(d_kv, _swap(w_kv)).sum(axis=0) if need_c else None
        dq = (gs @ kh).reshape(-1, d_head).take(back_q, axis=0).reshape(a.shape)
        d_wq = a.T @ dq
        d_wq *= scale
        return (dq @ w_q.T if need_x else None, d_c, d_wq, *np.matmul(c.T, d_kv), o.T @ g)
    return _result(o @ w_out, (x, ctx, wq, wk, wv, wo), vjp), weights


def gru(pre: Tensor, u_zr: Tensor, u_h: Tensor, seg) -> Tensor:
    """The GRU recurrence over packed sequences, h_0 = 0, returning every
    hidden state as packed rows [sum(T) x d].

    ``pre`` [sum(T) x 3d] holds each row's input map x_t W + b with columns
    [z | r | h]; ``u_zr`` [d x 2d] and ``u_h`` [d x d] are the recurrent
    weights and ``seg`` (``layers.Segments``) the layout:

        [z_t | r_t] = sigmoid(pre_zr_t + h_{t-1} u_zr)
        c_t = tanh(pre_h_t + (r_t * h_{t-1}) u_h)
        h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    One [B x d] state steps time-major over the longest sequence. Steps past
    a sequence's end run on zero input and are dropped on the way back to
    packed rows; they come after every kept state, so never reach one. The
    adjoint is backpropagation through time (Cho et al., arXiv:1406.1078).
    """
    d = u_h.data.shape[0]
    if (pre.data.ndim != 2 or pre.data.shape[1] != 3 * d or u_h.data.shape != (d, d)
            or u_zr.data.shape != (d, 2 * d) or seg.total != pre.data.shape[0]):
        raise ShapeError(f"gru: pre {_shape(pre)}, u_zr {_shape(u_zr)}, u_h {_shape(u_h)} and "
                         f"{seg.total} packed rows do not fit one width d")
    b, time_major, from_time_major = seg.count, seg.time_major, seg.from_time_major
    p = _take(pre.data, time_major)
    w_zr, w_h = u_zr.data, u_h.data
    hs = np.zeros((p.shape[0] + b, d), dtype=p.dtype)    # h_0, h_1, ..., time-major
    zr = np.empty((p.shape[0], 2 * d), dtype=p.dtype)
    c = np.empty((p.shape[0], d), dtype=p.dtype)
    for t in range(seg.t_max):
        rows = slice(t * b, (t + 1) * b)
        h, z, cand = hs[rows], zr[rows, :d], c[rows]
        gates = h @ w_zr
        gates += p[rows, :2 * d]
        _sigmoid(gates, out=zr[rows])
        cand_pre = (zr[rows, d:] * h) @ w_h
        cand_pre += p[rows, 2 * d:]
        np.tanh(cand_pre, out=cand)
        keep = 1.0 - z
        keep *= h
        np.add(keep, z * cand, out=hs[t * b + b:t * b + 2 * b])

    def vjp(g):
        gh = _take(g, time_major)
        h_prev, z, r = hs[:-b], zr[:, :d], zr[:, d:]
        # the factors that do not depend on the running adjoint dh, for all
        # steps at once: dh to the adjoints of pre_z + h u_z and of
        # pre_h + (r h) u_h, and d(r h) to that of pre_r + h u_r
        to_zh = np.empty((len(gh), 2, d), gh.dtype)
        np.multiply((c - h_prev) * z, 1.0 - z, out=to_zh[:, 0])
        np.multiply(z, 1.0 - c * c, out=to_zh[:, 1])
        to_r = h_prev * r * (1.0 - r)
        keep = 1.0 - z
        dpre = np.empty((len(gh), 3, d), dtype=gh.dtype)       # columns z | r | h
        dh = np.zeros((b, d), dtype=gh.dtype)
        for t in reversed(range(len(gh) // b)):
            rows = slice(t * b, (t + 1) * b)
            dh += gh[rows]
            np.multiply(dh[:, None], to_zh[rows], out=dpre[rows, ::2])
            d_rh = dpre[rows, 2] @ w_h.T
            np.multiply(d_rh, to_r[rows], out=dpre[rows, 1])
            dh *= keep[rows]
            d_rh *= r[rows]
            dh += d_rh
            dh += dpre[rows, :2].reshape(b, 2 * d) @ w_zr.T
        dpre = dpre.reshape(len(gh), 3 * d)
        return (dpre[from_time_major], h_prev.T @ dpre[:, :2 * d],
                (r * h_prev).T @ dpre[:, 2 * d:])
    return _result(hs[b:][from_time_major], (pre, u_zr, u_h), vjp)


def gated_mix(pre: Tensor, a: Tensor, b: Tensor):
    """s a + (1 - s) b with the gate s = sigmoid(``pre``), all three [m x n]:
    an entrywise convex mix of two streams. Returns the mix and, as values
    only, the gate s. The adjoint is (g (a - b) s (1 - s), g s, g (1 - s)).
    """
    _check_same(pre, a, "gated_mix")
    _check_same(a, b, "gated_mix")
    s = _sigmoid(pre.data)
    x, y = a.data, b.data

    def vjp(g):
        ds = g * x
        ds -= g * y
        ds *= s
        ds *= 1.0 - s
        return ds, g * s, g * (1.0 - s)
    return _result(s * x + (1.0 - s) * y, (pre, a, b), vjp), s


def codebook_pool(x: Tensor, centers: Tensor, scales: Tensor, seg):
    """The residual encoding of Zhang et al. (arXiv:1803.08904), one
    descriptor per sequence of the packed rows ``x`` [sum(T) x d] (layout
    ``seg``, a ``layers.Segments``). Row i is softly assigned to the K
    ``centers`` c_k [K x d] with weights w_ik = softmax_k(-s_k |x_i - c_k|²)
    for ``scales`` s [K], and a sequence's descriptor is the mean over its
    rows of sum_k w_ik (x_i - c_k): [B x d]. Returns the descriptors and, as
    values only, the weights [sum(T) x K].

    The squared distance is expanded as |x_i|² - 2 x_i·c_k + |c_k|², and the
    descriptor sum as sum_i (sum_k w_ik) x_i - sum_i sum_k w_ik c_k, keeping
    each row's weight sum (1 up to rounding) as computed. With q = s * dy
    for the adjoint dy of the softmax's input, the adjoint of the distances
    is -q, so dx gets 2 (q c - x rowsum(q)) and dc 2 (qᵀ x - c colsum(q)).
    """
    a, c, s = x.data, centers.data, scales.data
    if (a.ndim != 2 or c.ndim != 2 or c.shape[1] != a.shape[1] or s.shape != c.shape[:1]
            or seg.total != a.shape[0]):
        raise ShapeError(f"codebook_pool: x {_shape(x)}, centers {_shape(centers)}, scales "
                         f"{_shape(scales)} and {seg.total} packed rows do not fit")
    dist = (a @ c.T) * -2.0
    dist += (a * a).sum(axis=-1, keepdims=True)
    dist += (c * c).sum(axis=-1)
    weights = _softmax(-(dist * s), -1)
    sums = seg.pooling(a.dtype, mean=False)                 # [B x sum(T)]
    row_mass = weights.sum(axis=-1, keepdims=True)          # [sum(T) x 1], 1 up to rounding
    mass = sums @ weights                                   # [B x K]
    inv_len = (1.0 / seg.lengths)[:, None].astype(a.dtype)
    ids = seg.ids

    def vjp(g):
        gd = g * inv_len
        gx = gd[ids]
        dw = (gx * a).sum(axis=-1, keepdims=True) - (gd @ c.T)[ids]
        dy = weights * (dw - (dw * weights).sum(axis=-1, keepdims=True))
        q = dy * s
        dx = gx * row_mass + 2.0 * (q @ c - a * q.sum(axis=-1, keepdims=True))
        dc = 2.0 * (q.T @ a - c * q.sum(axis=0)[:, None]) - mass.T @ gd
        return dx, dc, -(dy * dist).sum(axis=0)
    return _result((sums @ (a * row_mass) - mass @ c) * inv_len, (x, centers, scales), vjp), weights


def sequence_gate(x: Tensor, pre: Tensor, seg):
    """The packed rows ``x`` [sum(T) x d] (layout ``seg``) scaled entrywise
    by their sequence's gate s = sigmoid(``pre``) ([B x d]). Returns the
    product and, as values only, s. The adjoint is g s for x and, for
    ``pre``, each sequence's column sums of g x, times s (1 - s).
    """
    a, p = x.data, pre.data
    if a.ndim != 2 or seg.total != a.shape[0] or p.shape != (seg.count, a.shape[1]):
        raise ShapeError(f"sequence_gate: x {_shape(x)} and gate {_shape(pre)} do not fit "
                         f"{seg.count} sequences of {seg.total} rows")
    s = _sigmoid(p)
    rows = s[seg.ids]
    starts = seg.offsets[:-1]

    def vjp(g):
        ds = np.add.reduceat(g * a, starts, axis=0)
        ds *= s
        ds *= 1.0 - s
        return g * rows, ds
    return _result(a * rows, (x, pre), vjp), s


# -- internals ---------------------------------------------------------------------


def _result(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """The op's output node. It records ``parents`` and the adjoint ``vjp``
    together, only when gradients are enabled and some parent requires one;
    otherwise neither, and ``vjp`` is dropped uncalled."""
    out = Tensor(data)
    if _grad_enabled.get():
        for p in parents:   # a plain loop: any(genexpr) costs ~5% of a small step
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._vjp = vjp
                break
    return out


def _square_norms(a: np.ndarray) -> np.ndarray:
    """Row squared norms of the matrix ``a`` as a column, summed in float64,
    where no float32 square underflows. ``cosine_margin`` zeroes exactly the
    rows where this is 0 (in float64, entries all below about 1e-162)."""
    return np.square(a, dtype=np.float64).sum(axis=-1, keepdims=True)


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """Logistic function that never takes exp of a positive number:
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below."""
    e = np.exp(np.copysign(x, -1.0))        # -|x|, in one pass
    top = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(top, e, out=out)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_blocks(qh: np.ndarray, kh: np.ndarray, pad) -> np.ndarray:
    """softmax(q kᵀ) of each block pair ([n x T x d_head] and [n x T_ctx x
    d_head]), in place on the scores, with ``pad`` (additive, 0 or -inf;
    None for no padding) on the keys. The row maxima come from a transposed
    copy, where they reduce along the long axis."""
    scores = qh @ np.ascontiguousarray(_swap(kh))
    if pad is not None:
        scores += pad
    rows = scores.reshape(-1, scores.shape[-1])
    rows -= np.ascontiguousarray(rows.T).max(axis=0)[:, None]
    np.exp(scores, out=scores)
    scores /= (scores @ np.ones(scores.shape[-1], scores.dtype))[..., None]
    return scores


def _take(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``rows[index]``, with a zero row where ``index`` is -1."""
    val = rows.take(index, axis=0)
    val[index < 0] = 0.0
    return val


def _swap(x: np.ndarray) -> np.ndarray:
    """View with the last two axes exchanged."""
    return np.swapaxes(x, -1, -2)


def _check_same(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {_shape(a)} and {_shape(b)} differ")


def _check_row(a: Tensor, v: Tensor, op: str):
    if a.data.ndim != 2 or v.data.ndim != 1 or v.data.shape[0] != a.data.shape[1]:
        raise ShapeError(f"{op}: expected [m x n] with [n]; got {_shape(a)} and {_shape(v)}")


def _check_affine(shape: tuple, w: Tensor, b: Tensor, op: str):
    if (len(shape) != 2 or w.data.ndim != 2 or shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeError(f"{op}: expected [m x n] @ [n x k] + [k]; got {list(shape)}, "
                         f"{_shape(w)} and {_shape(b)}")
