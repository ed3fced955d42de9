"""Reference ops: the elementwise, reduction and broadcast ops that the
pinned composite references in the tests are built from.

The production ``Tensor`` keeps only the ops ``src/`` calls; these are the
generic ones the layers were first written with. They are free functions
on the same node protocol, one call to ``tensor._result(value, inputs,
vjp)`` with an adjoint over captured arrays, so a composite built from them
runs through the production ``backward``.

Shape discipline is strict: binary elementwise ops demand equal shapes,
and row and column broadcasts are separately named ops (``add_row``,
``sub_col``, ...) so no shape mismatch can slip through silently.
"""

import numpy as np

from wavfusion.errors import ShapeError
from wavfusion.tensor import Tensor, _check_row, _check_same, _result, _shape, _sigmoid, _softmax


# -- elementwise (equal shapes) ---------------------------------------------------


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "sub")
    return _result(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "mul")
    x, y = a.data, b.data
    return _result(x * y, (a, b), lambda g: (g * y, g * x))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "div")
    y = b.data
    val = a.data / y
    return _result(val, (a, b), lambda g: (g / y, -g * val / y))


def shift(x: Tensor, c: float) -> Tensor:
    """x + c for a python scalar c."""
    return _result(x.data + c, (x,), lambda g: (g,))


def sigmoid(x: Tensor) -> Tensor:
    val = _sigmoid(x.data)
    return _result(val, (x,), lambda g: (g * val * (1.0 - val),))


def tanh(x: Tensor) -> Tensor:
    val = np.tanh(x.data)
    return _result(val, (x,), lambda g: (g * (1.0 - val * val),))


def exp(x: Tensor) -> Tensor:
    val = np.exp(x.data)
    return _result(val, (x,), lambda g: (g * val,))


def sqrt(x: Tensor) -> Tensor:
    val = np.sqrt(x.data)
    return _result(val, (x,), lambda g: (g * 0.5 / val,))


def log(x: Tensor) -> Tensor:
    a = x.data
    return _result(np.log(a), (x,), lambda g: (g / a,))


def relu(x: Tensor) -> Tensor:
    # subgradient 0 at the kink
    a = x.data
    return _result(np.maximum(a, 0.0), (x,), lambda g: (g * (a > 0),))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``, max-subtracted for stability."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax: axis {axis} out of bounds for shape {_shape(x)}")
    val = _softmax(x.data, axis)
    return _result(val, (x,), lambda g: (val * (g - (g * val).sum(axis=axis, keepdims=True)),))


# -- structure and reductions ---------------------------------------------------------


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes of a matrix or a stack of matrices."""
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"transpose needs a rank-2 or rank-3 tensor; got {_shape(x)}")
    return _result(np.swapaxes(x.data, -1, -2).copy(), (x,), lambda g: (np.swapaxes(g, -1, -2),))


def sum(x: Tensor) -> Tensor:   # noqa: A001 - the op's name
    shape = x.data.shape
    return _result(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, shape),))


def sum_last_keep(x: Tensor) -> Tensor:
    """Sum over the last axis, keeping it as size 1."""
    shape = x.data.shape
    return _result(x.data.sum(axis=-1, keepdims=True), (x,), lambda g: (np.broadcast_to(g, shape),))


def gather(x: Tensor, rows, cols) -> Tensor:
    """Gather scattered entries of a matrix: out[t] = x[rows[t], cols[t]]."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather needs a rank-2 tensor; got {_shape(x)}")
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    if r.ndim != 1 or r.shape != c.shape:
        raise ShapeError(f"gather: row indices {list(r.shape)} and column indices "
                         f"{list(c.shape)} must be equal-length vectors")
    m, n = x.data.shape
    if r.size and (r.min() < 0 or r.max() >= m or c.min() < 0 or c.max() >= n):
        raise ShapeError(f"gather: index out of range for {_shape(x)}")
    dtype = x.data.dtype
    return _result(x.data[r, c], (x,), lambda g: (
        np.bincount(r * n + c, weights=g, minlength=m * n).reshape(m, n).astype(dtype),))


# -- named broadcasts (matrix with row / column vector) -----------------------------------


def _check_col(a: Tensor, c: Tensor, op: str):
    if a.data.ndim != 2 or c.data.shape != (a.data.shape[0], 1):
        raise ShapeError(f"{op}: expected [m x n] with [m x 1]; got {_shape(a)} and {_shape(c)}")


def add_row(x: Tensor, v: Tensor) -> Tensor:
    _check_row(x, v, "add_row")
    return _result(x.data + v.data, (x, v), lambda g: (g, g.sum(axis=0)))


def mul_row(x: Tensor, v: Tensor) -> Tensor:
    _check_row(x, v, "mul_row")
    a, r = x.data, v.data
    return _result(a * r, (x, v), lambda g: (g * r, (g * a).sum(axis=0)))


def add_col(x: Tensor, c: Tensor) -> Tensor:
    _check_col(x, c, "add_col")
    return _result(x.data + c.data, (x, c), lambda g: (g, g.sum(axis=1, keepdims=True)))


def sub_col(x: Tensor, c: Tensor) -> Tensor:
    _check_col(x, c, "sub_col")
    return _result(x.data - c.data, (x, c), lambda g: (g, -g.sum(axis=1, keepdims=True)))


def mul_col(x: Tensor, c: Tensor) -> Tensor:
    _check_col(x, c, "mul_col")
    a, col = x.data, c.data
    return _result(a * col, (x, c), lambda g: (g * col, (g * a).sum(axis=1, keepdims=True)))


def div_col(x: Tensor, c: Tensor) -> Tensor:
    _check_col(x, c, "div_col")
    col = c.data
    val = x.data / col
    return _result(val, (x, c), lambda g: (g / col, -(g * val / col).sum(axis=1, keepdims=True)))


def probe(x: Tensor, weights) -> Tensor:
    """sum(x * weights) for a constant array: a scalar to differentiate."""
    return sum(mul(x, Tensor(np.asarray(weights, dtype=x.data.dtype))))


# the node-protocol table entries of these ops (see ``test_tensor.OPS``):
# name -> (input shapes, op); inputs are positive so log, sqrt and division
# are defined
OPS = {
    "sub": ([(3, 4), (3, 4)], sub),
    "mul": ([(3, 4), (3, 4)], mul),
    "div": ([(3, 4), (3, 4)], div),
    "shift": ([(3, 4)], lambda a: shift(a, 1.5)),
    "sigmoid": ([(3, 4)], sigmoid),
    "tanh": ([(3, 4)], tanh),
    "exp": ([(3, 4)], exp),
    "log": ([(3, 4)], log),
    "sqrt": ([(3, 4)], sqrt),
    "relu": ([(3, 4)], relu),
    "softmax": ([(3, 4)], lambda a: softmax(a, axis=0)),
    "transpose": ([(2, 3, 4)], transpose),
    "sum": ([(3, 4)], sum),
    "sum_last_keep": ([(3, 4)], sum_last_keep),
    "add_row": ([(3, 4), (4,)], add_row),
    "mul_row": ([(3, 4), (4,)], mul_row),
    "add_col": ([(3, 4), (3, 1)], add_col),
    "sub_col": ([(3, 4), (3, 1)], sub_col),
    "mul_col": ([(3, 4), (3, 1)], mul_col),
    "div_col": ([(3, 4), (3, 1)], div_col),
    "gather": ([(3, 4)], lambda a: gather(a, [0, 2, 2], [1, 3, 3])),
}
