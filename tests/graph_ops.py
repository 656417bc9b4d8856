"""Per-op autodiff nodes that only the tests' reference graphs use.

The fused nodes of ``storerank`` (attention, layer norm, the tokenizer
step) are proved exact against graphs of small per-op nodes.  Most of
those ops are the library's own; the ones below serve nothing but those
references and the gradient checks on them, so they live here.  Each is
built with ``tensor._result`` exactly as a library op is.
"""

import numpy as np

from storerank import tensor as T


def power(a, p):
    """Elementwise a**p for a scalar exponent (covers square, sqrt, 1/x)."""
    p = float(p)
    out_vals = a.values ** p

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * p * a.values ** (p - 1.0))
    return T._result(out_vals, (a,), bwd)


def exp(a):
    out_vals = np.exp(a.values)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * out_vals)
    return T._result(out_vals, (a,), bwd)


def transpose_last(a):
    """Swap the last two axes (matrix transpose; batch axis untouched)."""
    if a.ndim < 2:
        raise ValueError("transpose_last needs rank >= 2")
    out_vals = np.swapaxes(a.values, -1, -2)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.swapaxes(g, -1, -2))
    return T._result(out_vals, (a,), bwd)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_vals = a.values[idx]

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.values)
            full[idx] = g
            a.accumulate_grad(full)
    return T._result(np.array(out_vals), (a,), bwd)


def unstack(a):
    """The slices ``a[0], a[1], ...`` of a tensor, each a node whose
    backward hands ``a`` a gradient holding its own in that slice and
    -0.0 elsewhere.  -0.0 is addition's identity (x + -0.0 is x for
    every x, +0.0 included), so the parts of all slices sum to each
    slice's gradient, bit for bit."""
    if a.ndim < 1:
        raise ValueError("unstack needs a tensor of rank >= 1")

    def part(i):
        def bwd(g):
            if a.requires_grad:
                full = np.full_like(a.values, -0.0)
                full[i] = g
                a.accumulate_grad(full)
        return T._result(a.values[i], (a,), bwd)
    return [part(i) for i in range(a.shape[0])]


def softmax(a, axis=-1):
    """Stable softmax along one axis; rows of all -inf are rejected.

    -inf entries (additive masks) produce exactly-zero probabilities.
    """
    out_vals = T.softmax_values(a.values, axis)

    def bwd(g):
        if a.requires_grad:
            dot = (g * out_vals).sum(axis=axis, keepdims=True)
            a.accumulate_grad(out_vals * (g - dot))
    return T._result(out_vals, (a,), bwd)


def stop_gradient(a):
    """Identity forward; exactly zero gradient flows to the argument.

    The argument stays linked as a parent so it still counts as part of
    the graph for ``grad``'s reachability check.
    """
    return T.Tensor(a.values, requires_grad=False, _parents=(a,), _backward=None)
