"""Shared test utilities: seeded arrays, one-sequence layouts, graph sizes
and finite-difference checking."""

import numpy as np

from wavfusion import tensor as T
from wavfusion.layers import Segments
from wavfusion.rng import Prng


def rand(shape, seed, scale=1.0):
    n = int(np.prod(shape))
    return (Prng(seed).normal(n) * scale).reshape(shape)


def whole(x) -> Segments:
    """The layout that makes all rows of the matrix ``x`` one sequence."""
    return Segments([x.shape[0]])


def make_sample(seed, dims, label=0, t_lens=None):
    from wavfusion.data import UtteranceSample

    rng = Prng(seed, stream=99)
    feats = {}
    for i, (m, d) in enumerate(sorted(dims.items())):
        t_len = (t_lens or {}).get(m) or rng.child(i).randint(2, 7)
        feats[m] = rng.child(10 + i).normal(t_len * d).reshape(t_len, d)
    return UtteranceSample(f"s{seed}", label, feats)


def graph_nodes(loss, stop=()) -> int:
    """Nodes with inputs (leaves excluded) reachable from ``loss`` without
    passing through a tensor in ``stop``."""
    seen = {id(t) for t in stop}
    stack, count = [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += bool(node._parents)
        stack.extend(node._parents)
    return count


def fd_max_rel_error(func, params, eps=1e-4):
    """Max relative error between analytic and central-difference gradients.

    ``func`` maps nothing to a scalar Tensor and must read the current
    ``.data`` of every tensor in ``params`` afresh on each call.
    """
    for p in params:
        p.grad = None
    loss = func()
    loss.backward()
    worst = 0.0
    for p in params:
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        grad_flat = analytic.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            with T.no_grad():
                up = float(func().data)
            flat[i] = orig - eps
            with T.no_grad():
                down = float(func().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            rel = abs(grad_flat[i] - numeric) / (abs(numeric) + 1e-8)
            worst = max(worst, rel)
    return worst
