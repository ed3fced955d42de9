"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 or float64); the graph is implicit: every
result keeps references to its inputs together with a closure that scatters
its adjoint back to them. ``backward`` walks an iteratively-built topological
order, so deep graphs (long recurrences, wide reductions) never touch the
interpreter recursion limit.

Shape discipline is strict. Binary elementwise operations demand equal
shapes, and the only implicit broadcast is scalar-times-tensor. Row and
column broadcasts exist as separately named operations (``add_row``,
``sub_col``, ...) so no shape mismatch can slip through silently.

``backward`` may run once per graph; a fresh forward pass rebuilds the graph.
Adjoint closures capture input tensors and plain arrays, never their own
output, so a graph holds no reference cycles: dropping the loss frees the
whole graph at once, without waiting for the cyclic garbage collector.
A graph and its tensors belong to one thread during forward/backward;
independent graphs may run on separate threads, and ``no_grad`` in one
thread leaves recording in the others untouched.
"""

from __future__ import annotations

from contextvars import ContextVar

import numpy as np

from .errors import GraphError, ShapeError

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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backprop = None
        self._spent = False

    # -- introspection -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={list(self.data.shape)}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every reachable leaf (a tensor built from
        data, such as a parameter) that requires it. Interior adjoints are
        dropped once passed on to their inputs, so a pass never holds an
        adjoint for every node of the graph at once.

        The receiver must be a scalar. Each graph supports exactly one
        backward pass; rebuilding via a fresh forward is the reset.
        """
        if self.data.shape != ():
            raise GraphError(f"backward requires a scalar loss; got shape {_shape(self)}")
        if self._spent:
            raise GraphError("backward already ran on this graph; rerun the forward pass")

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
                stack.append((child, iter(child._parents)))

        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(topo):
            if node._parents:
                if node._spent:
                    raise GraphError("graph shares nodes with an already-consumed backward pass")
                node._spent = True
            if node._backprop is not None and node.grad is not None:
                node._backprop(node.grad)
                node.grad = None

    # -- arithmetic (equal shapes; python scalars allowed) ---------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            _check_same(self, other, "add")
            out = _result(self.data + other.data, (self, other))
            if out._parents:
                def bp(g, a=self, b=other):
                    _accum(a, g)
                    _accum(b, g)
                out._backprop = bp
            return out
        return self._shift(float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            _check_same(self, other, "sub")
            out = _result(self.data - other.data, (self, other))
            if out._parents:
                def bp(g, a=self, b=other):
                    _accum(a, g)
                    _accum(b, -g)
                out._backprop = bp
            return out
        return self._shift(-float(other))

    def __rsub__(self, other):
        return (-self)._shift(float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _check_same(self, other, "mul")
            out = _result(self.data * other.data, (self, other))
            if out._parents:
                def bp(g, a=self, b=other):
                    _accum(a, g * b.data)
                    _accum(b, g * a.data)
                out._backprop = bp
            return out
        return self.scale(float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            _check_same(self, other, "div")
            out = _result(self.data / other.data, (self, other))
            if out._parents:
                def bp(g, a=self, b=other, o=out.data):
                    _accum(a, g / b.data)
                    _accum(b, -g * o / b.data)
                out._backprop = bp
            return out
        return self.scale(1.0 / float(other))

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, s: float) -> "Tensor":
        out = _result(self.data * s, (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, g * s)
            out._backprop = bp
        return out

    def _shift(self, c: float) -> "Tensor":
        out = _result(self.data + c, (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, g)
            out._backprop = bp
        return out

    # -- pointwise nonlinearities ----------------------------------------------

    def sigmoid(self) -> "Tensor":
        x = self.data
        val = np.empty_like(x)
        pos = x >= 0
        val[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        val[~pos] = ex / (1.0 + ex)
        out = _result(val, (self,))
        if out._parents:
            def bp(g, a=self, s=val):
                _accum(a, g * s * (1.0 - s))
            out._backprop = bp
        return out

    def tanh(self) -> "Tensor":
        val = np.tanh(self.data)
        out = _result(val, (self,))
        if out._parents:
            def bp(g, a=self, t=val):
                _accum(a, g * (1.0 - t * t))
            out._backprop = bp
        return out

    def exp(self) -> "Tensor":
        val = np.exp(self.data)
        out = _result(val, (self,))
        if out._parents:
            def bp(g, a=self, e=val):
                _accum(a, g * e)
            out._backprop = bp
        return out

    def log(self) -> "Tensor":
        out = _result(np.log(self.data), (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, g / a.data)
            out._backprop = bp
        return out

    def sqrt(self) -> "Tensor":
        val = np.sqrt(self.data)
        out = _result(val, (self,))
        if out._parents:
            def bp(g, a=self, r=val):
                _accum(a, g * 0.5 / r)
            out._backprop = bp
        return out

    def relu(self) -> "Tensor":
        # subgradient 0 at the kink
        out = _result(np.maximum(self.data, 0.0), (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, g * (a.data > 0))
            out._backprop = bp
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        """Normalized exponentials along ``axis``, max-subtracted for stability."""
        x = self.data
        if not -x.ndim <= axis < x.ndim:
            raise ShapeError(f"softmax: axis {axis} out of bounds for shape {_shape(self)}")
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        val = e / e.sum(axis=axis, keepdims=True)
        out = _result(val, (self,))
        if out._parents:
            def bp(g, a=self, y=val):
                _accum(a, y * (g - (g * y).sum(axis=axis, keepdims=True)))
            out._backprop = bp
        return out

    # -- linear algebra ---------------------------------------------------------

    def __matmul__(self, other: "Tensor") -> "Tensor":
        """Matrix product of two matrices, or of two equal-size stacks of
        matrices ([n x m x k] @ [n x k x p], one product per leading index)."""
        a, b = self.data, other.data
        if a.ndim != b.ndim or a.ndim not in (2, 3) or a.shape[:-2] != b.shape[:-2]:
            raise ShapeError(f"matmul needs two rank-2 or two equal-batch rank-3 operands; "
                             f"got {_shape(self)} and {_shape(other)}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions of {_shape(self)} and {_shape(other)} disagree")
        out = _result(a @ b, (self, other))
        if out._parents:
            def bp(g, a=self, b=other):
                _accum(a, g @ _swap(b.data))
                _accum(b, _swap(a.data) @ g)
            out._backprop = bp
        return out

    def transpose(self) -> "Tensor":
        """Swap the last two axes of a matrix or a stack of matrices."""
        if self.data.ndim not in (2, 3):
            raise ShapeError(f"transpose needs a rank-2 or rank-3 tensor; got {_shape(self)}")
        out = _result(_swap(self.data).copy(), (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, _swap(g))
            out._backprop = bp
        return out

    # -- reductions ---------------------------------------------------------------

    def sum(self) -> "Tensor":
        out = _result(self.data.sum(), (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, np.broadcast_to(g, a.data.shape))
            out._backprop = bp
        return out

    def sum_last_keep(self) -> "Tensor":
        """Sum over the last axis, keeping it as size 1."""
        out = _result(self.data.sum(axis=-1, keepdims=True), (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, np.broadcast_to(g, a.data.shape))
            out._backprop = bp
        return out

    # -- named broadcasts (matrix with row / column vector) -------------------------

    def add_row(self, v: "Tensor") -> "Tensor":
        _check_row(self, v, "add_row")
        out = _result(self.data + v.data, (self, v))
        if out._parents:
            def bp(g, a=self, b=v):
                _accum(a, g)
                _accum(b, g.sum(axis=0))
            out._backprop = bp
        return out

    def mul_row(self, v: "Tensor") -> "Tensor":
        _check_row(self, v, "mul_row")
        out = _result(self.data * v.data, (self, v))
        if out._parents:
            def bp(g, a=self, b=v):
                _accum(a, g * b.data)
                _accum(b, (g * a.data).sum(axis=0))
            out._backprop = bp
        return out

    def add_col(self, c: "Tensor") -> "Tensor":
        _check_col(self, c, "add_col")
        out = _result(self.data + c.data, (self, c))
        if out._parents:
            def bp(g, a=self, b=c):
                _accum(a, g)
                _accum(b, g.sum(axis=1, keepdims=True))
            out._backprop = bp
        return out

    def sub_col(self, c: "Tensor") -> "Tensor":
        _check_col(self, c, "sub_col")
        out = _result(self.data - c.data, (self, c))
        if out._parents:
            def bp(g, a=self, b=c):
                _accum(a, g)
                _accum(b, -g.sum(axis=1, keepdims=True))
            out._backprop = bp
        return out

    def mul_col(self, c: "Tensor") -> "Tensor":
        _check_col(self, c, "mul_col")
        out = _result(self.data * c.data, (self, c))
        if out._parents:
            def bp(g, a=self, b=c):
                _accum(a, g * b.data)
                _accum(b, (g * a.data).sum(axis=1, keepdims=True))
            out._backprop = bp
        return out

    def div_col(self, c: "Tensor") -> "Tensor":
        _check_col(self, c, "div_col")
        out = _result(self.data / c.data, (self, c))
        if out._parents:
            def bp(g, a=self, b=c, o=out.data):
                _accum(a, g / b.data)
                _accum(b, -(g * o / b.data).sum(axis=1, keepdims=True))
            out._backprop = bp
        return out

    # -- structure -------------------------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        shape = tuple(shape)
        if int(np.prod(shape, dtype=np.int64)) != self.data.size:
            raise ShapeError(f"reshape: {_shape(self)} has {self.data.size} elements, target {list(shape)}")
        out = _result(self.data.reshape(shape).copy(), (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, g.reshape(a.data.shape))
            out._backprop = bp
        return out

    def slice_rows(self, start: int, stop: int) -> "Tensor":
        if self.data.ndim < 1 or not 0 <= start < stop <= self.data.shape[0]:
            raise ShapeError(f"slice_rows[{start}:{stop}] invalid for shape {_shape(self)}")
        out = _result(self.data[start:stop].copy(), (self,))
        if out._parents:
            def bp(g, a=self):
                z = np.zeros_like(a.data)
                z[start:stop] = g
                _accum(a, z)
            out._backprop = bp
        return out

    def slice_last(self, start: int, stop: int) -> "Tensor":
        if self.data.ndim < 1 or not 0 <= start < stop <= self.data.shape[-1]:
            raise ShapeError(f"slice_last[{start}:{stop}] invalid for shape {_shape(self)}")
        out = _result(self.data[..., start:stop].copy(), (self,))
        if out._parents:
            def bp(g, a=self):
                z = np.zeros_like(a.data)
                z[..., start:stop] = g
                _accum(a, z)
            out._backprop = bp
        return out

    def pad_rows(self, top: int, bottom: int) -> "Tensor":
        if self.data.ndim != 2 or top < 0 or bottom < 0:
            raise ShapeError(f"pad_rows({top}, {bottom}) invalid for shape {_shape(self)}")
        m = self.data.shape[0]
        val = np.zeros((m + top + bottom, self.data.shape[1]), dtype=self.data.dtype)
        val[top:top + m] = self.data
        out = _result(val, (self,))
        if out._parents:
            def bp(g, a=self):
                _accum(a, g[top:top + m])
            out._backprop = bp
        return out

    def gather(self, rows, cols) -> "Tensor":
        """Gather scattered entries of a matrix: out[t] = self[rows[t], cols[t]]."""
        if self.data.ndim != 2:
            raise ShapeError(f"gather needs a rank-2 tensor; got {_shape(self)}")
        r = np.asarray(rows, dtype=np.intp)
        c = np.asarray(cols, dtype=np.intp)
        if r.ndim != 1 or r.shape != c.shape:
            raise ShapeError(f"gather: row indices {list(r.shape)} and column indices "
                             f"{list(c.shape)} must be equal-length vectors")
        m, n = self.data.shape
        if r.size and (r.min() < 0 or r.max() >= m or c.min() < 0 or c.max() >= n):
            raise ShapeError(f"gather: index out of range for {_shape(self)}")
        out = _result(self.data[r, c], (self,))
        if out._parents:
            def bp(g, a=self):
                flat = np.bincount(r * n + c, weights=g, minlength=m * n)
                _accum(a, flat.reshape(m, n).astype(a.data.dtype))
            out._backprop = bp
        return out


# -- free functions --------------------------------------------------------------


def concat(tensors, axis: int) -> Tensor:
    """Concatenate along ``axis``; adjoint splits the gradient back."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ref = tensors[0].data.shape
    ax = axis % max(len(ref), 1)
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(s[i] != ref[i] for i in range(len(ref)) if i != ax):
            raise ShapeError(f"concat(axis={axis}): shapes {[list(x.data.shape) for x in tensors]} disagree")
    out = _result(np.concatenate([t.data for t in tensors], axis=ax), tuple(tensors))
    if out._parents:
        offsets = np.cumsum([0] + [t.data.shape[ax] for t in tensors])

        def bp(g, ts=tensors, offs=offsets):
            sl = [slice(None)] * g.ndim
            for t, a, b in zip(ts, offs[:-1], offs[1:]):
                sl[ax] = slice(a, b)
                _accum(t, g[tuple(sl)])
        out._backprop = bp
    return out


# -- internals ---------------------------------------------------------------------


def _result(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _swap(x: np.ndarray) -> np.ndarray:
    """View with the last two axes exchanged."""
    return np.swapaxes(x, -1, -2)


def _accum(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        t.grad = np.array(g, dtype=t.data.dtype) if t.grad is None else t.grad + g


def _check_same(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {_shape(a)} and {_shape(b)} differ")


def _check_row(a: Tensor, v: Tensor, op: str):
    if a.data.ndim != 2 or v.data.ndim != 1 or v.data.shape[0] != a.data.shape[1]:
        raise ShapeError(f"{op}: expected [m x n] with [n]; got {_shape(a)} and {_shape(v)}")


def _check_col(a: Tensor, c: Tensor, op: str):
    if a.data.ndim != 2 or c.data.shape != (a.data.shape[0], 1):
        raise ShapeError(f"{op}: expected [m x n] with [m x 1]; got {_shape(a)} and {_shape(c)}")
