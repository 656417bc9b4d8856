"""Minimal dense-tensor autodiff core.

Define-by-run reverse-mode differentiation over numpy float64 arrays,
restricted to rank 1/2/3 tensors (vectors, matrices, batched matrices).
There is no implicit broadcasting: elementwise ops require identical
shapes, and the explicit ``broadcast_to`` / ``reshape`` ops cover the
few places where shapes must be lifted.  A dense layer's bias row is
added inside ``affine``, one node for ``x @ w + b``; ``mlp`` chains two
of them around a tanh.  ``layer_norm`` is one node too, with or without
a residual summand, bit for bit the graph of elementwise ops it stands
for.

A node whose parents need no gradient keeps no backward (``_result``
drops it), so a forward over leaves built with ``requires_grad=False``
builds no graph to differentiate; fused nodes then skip their
backward-only work and compute in place.  There is no global switch:
whether a gradient is needed is read off the parents.

The one gradient that is not a dense array is that of an embedding
table (a leaf) with more rows than a batch looks up: ``embedding``
hands it back as a ``RowSparse`` (sorted distinct rows plus their
summed values), and ``Adam`` updates only the rows that can move.  It
keeps the moments and values of such a table for just the rows touched
so far, in compact arrays in first-touch order, adds gradient terms to
just the rows a step looks up, and turns the moments dense once every
row is touched or a dense gradient arrives.  It gives
bit for bit what the dense gradient would give, and ``np.asarray`` turns
a ``RowSparse`` into exactly that dense gradient.  The lookups' sums,
dense or row-sparse, are one ``np.bincount``.  The dense moments of
every parameter sit in one flat pair of arrays, which ``Adam`` advances
in one elementwise update on the concatenated gradients.

A node keeps the first gradient a backward closure hands it without a
copy when it is a fresh array (writeable float64, owning its memory);
a view, a read-only or another-dtype array is copied.  A kept array
may be shared (``add`` hands one array to both parents), so a node
sums a later gradient in place only into an array it owns: the copy
it made of a first gradient, or the result of an earlier sum.  It does
so only when both summands are C-ordered arrays of one shape, so the
sum has the layout, and the bits, of the out-of-place one; any other
sum, and any sum with a ``RowSparse``, is made out of place.
Each first gradient sets whether the node owns it, and ``grad`` gives
each parameter an array of its own.

The graph is held alive by ordinary Python references: every op result
keeps a tuple of its parents and a backward closure.  ``grad`` (and
``backward``) may therefore be called repeatedly on the same graph;
each call re-seeds and re-accumulates leaf gradients from zero, so the
graph is reusable and is freed by the garbage collector once the caller
drops the loss tensor.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    """A dense float64 array plus its place in the autodiff graph.

    Leaves are built directly from data (``Tensor(values, requires_grad=True)``
    for trainable parameters, ``requires_grad=False`` for constants such as
    inputs, labels and attention masks).  Interior nodes are produced by the
    module-level ops and carry a backward closure.
    """

    __slots__ = ("values", "requires_grad", "grad", "_owns_grad", "_parents",
                 "_backward")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim > 3:
            raise ValueError(f"rank {arr.ndim} tensor not supported (max rank 3)")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._owns_grad = False
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self):
        return float(self.values)

    def accumulate_grad(self, g):
        if self.grad is None:
            # keep a RowSparse or a fresh array (writeable float64 owning
            # its memory) as handed over, shared perhaps, so not owned;
            # copy a view, a read-only or another-dtype array, and own it
            fresh = isinstance(g, RowSparse) or (
                type(g) is np.ndarray and g.base is None
                and g.dtype == np.float64 and g.flags.writeable)
            self.grad = g if fresh else np.array(g, dtype=np.float64, copy=True)
            self._owns_grad = not fresh
        elif (self._owns_grad and type(g) is np.ndarray
              and g.dtype == np.float64 and g.shape == self.grad.shape
              and g.flags.c_contiguous and self.grad.flags.c_contiguous):
            np.add(self.grad, g, out=self.grad)
        else:
            self.grad = self.grad + g
            self._owns_grad = not isinstance(self.grad, RowSparse)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class RowSparse:
    """Gradient of a table that is exactly zero outside some of its rows.

    ``rows`` holds distinct row indices in ascending order and
    ``values[i]`` is the gradient of row ``rows[i]``.  ``np.asarray``
    gives the dense gradient.  Adding another ``RowSparse`` keeps the
    result row-sparse; adding a dense array gives a dense array.  Both
    round exactly as the sum of the dense gradients would.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows, values, shape):
        self.rows, self.values, self.shape = rows, values, tuple(shape)

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype)
        dense[self.rows] = self.values
        return dense

    def __add__(self, other):
        if not isinstance(other, RowSparse):
            return np.asarray(self) + other
        if np.array_equal(self.rows, other.rows):
            return RowSparse(self.rows, self.values + other.values, self.shape)
        rows = np.union1d(self.rows, other.rows)
        values = np.zeros((rows.size,) + self.shape[1:])
        values[np.searchsorted(rows, self.rows)] += self.values
        values[np.searchsorted(rows, other.rows)] += other.values
        return RowSparse(rows, values, self.shape)


def _result(values, parents, backward):
    needs = any(p.requires_grad for p in parents)
    return Tensor(values, requires_grad=needs, _parents=tuple(parents),
                  _backward=backward if needs else None)


def _check_same_shape(a, b, op):
    if a.values.shape != b.values.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape} "
                         "(no implicit broadcasting; use broadcast_to)")


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b):
    if isinstance(b, (int, float)):
        out_vals = a.values + float(b)

        def bwd(g):
            if a.requires_grad:
                a.accumulate_grad(g)
        return _result(out_vals, (a,), bwd)
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "add")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)
    return _result(a.values + b.values, (a, b), bwd)


def sub(a, b):
    if isinstance(b, (int, float)):
        return add(a, -float(b))
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "sub")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)
    return _result(a.values - b.values, (a, b), bwd)


def mul(a, b):
    if isinstance(b, (int, float)):
        s = float(b)

        def bwd_s(g):
            if a.requires_grad:
                a.accumulate_grad(g * s)
        return _result(a.values * s, (a,), bwd_s)
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "mul")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.values)
        if b.requires_grad:
            b.accumulate_grad(g * a.values)
    return _result(a.values * b.values, (a, b), bwd)


def tanh(a):
    out_vals = np.tanh(a.values)

    def bwd(g):
        if a.requires_grad:
            # g * (1 - out**2) in one array, out's layout, which is the
            # product's own when g shares it
            dt = out_vals ** 2
            np.subtract(1.0, dt, out=dt)
            a.accumulate_grad(np.multiply(
                g, dt, out=dt if g.strides == dt.strides else None))
    return _result(out_vals, (a,), bwd)


def sigmoid(a):
    out_vals = sigmoid_values(a.values)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * out_vals * (1.0 - out_vals))
    return _result(out_vals, (a,), bwd)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape):
    shape = tuple(shape)
    out_vals = a.values.reshape(shape)
    in_shape = a.values.shape

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(in_shape))
    return _result(out_vals, (a,), bwd)


def broadcast_to(a, shape):
    """Explicit broadcast (trailing-dim aligned); backward sums the lifted axes."""
    shape = tuple(shape)
    out_vals = np.broadcast_to(a.values, shape)
    in_shape = a.values.shape

    def bwd(g):
        if not a.requires_grad:
            return
        gg = g
        # collapse prepended axes, then axes that were size 1
        while gg.ndim > len(in_shape):
            gg = gg.sum(axis=0)
        for ax, n in enumerate(in_shape):
            if n == 1 and gg.shape[ax] != 1:
                gg = gg.sum(axis=ax, keepdims=True)
        a.accumulate_grad(gg)
    return _result(np.array(out_vals), (a,), bwd)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    out_vals = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])
    return _result(out_vals, tuple(tensors), bwd)


def embedding(table, indices):
    """Gather rows of a (V, d) table; indices is an integer ndarray (any shape).

    A leaf table with more rows than there are lookups gets a
    ``RowSparse`` gradient over the rows looked up.  Any other table gets
    a dense one: it is no larger than the lookups' gradient, or the table
    is an op result, whose backward takes dense gradients.
    """
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValueError("embedding indices must be integers")
    out_vals = np.take(table.values, indices, axis=0)

    def bwd(g):
        if table.requires_grad:
            lookup_grad(table, indices, g)
    return _result(out_vals, (table,), bwd)


def lookup_grad(table, indices, g):
    """Hand ``table`` the gradient ``g`` of its rows looked up at
    ``indices``, in the form ``embedding`` describes; for fused nodes."""
    n_rows = len(table.values)
    # % folds negative indices onto the rows np.take read them from
    rows = indices % n_rows
    if n_rows <= indices.size or table._backward is not None:
        table.accumulate_grad(_row_sums(rows, g, table.values.shape))
        return
    rows, inv = np.unique(rows, return_inverse=True)
    summed = _row_sums(inv, g, (rows.size,) + table.values.shape[1:])
    table.accumulate_grad(RowSparse(rows, summed, table.values.shape))


def _row_sums(slots, g, shape):
    """A zero array of ``shape`` plus, at row ``slots[i]``, lookup i's
    gradient ``g[i]``, for the lookups in order: bit for bit
    ``np.add.at``, whose per-entry sums run in the same order.  One
    ``np.bincount`` over the flattened (row, column) entries does it."""
    width = math.prod(shape[1:])
    flat = slots.reshape(-1, 1) * width + np.arange(width)
    return np.bincount(flat.ravel(), weights=g.reshape(-1),
                       minlength=math.prod(shape)).reshape(shape)


# ---------------------------------------------------------------------------
# contractions and reductions
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product for (2d,2d), batched (3d,3d) and (3d,2d) operands."""
    na, nb = a.ndim, b.ndim
    if (na, nb) not in ((2, 2), (3, 3), (3, 2)):
        raise ValueError(f"matmul: unsupported ranks {na}@{nb} (reshape explicitly)")
    if a.values.shape[-1] != b.values.shape[-2 if nb > 1 else 0]:
        raise ValueError(f"matmul: inner dims {a.shape} @ {b.shape}")
    if (na, nb) == (3, 3) and a.values.shape[0] != b.values.shape[0]:
        raise ValueError(f"matmul: batch dims {a.shape} @ {b.shape}")
    out_vals = a.values @ b.values

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g @ np.swapaxes(b.values, -1, -2))
        if b.requires_grad:
            if (na, nb) == (3, 2):
                d_in, d_out = b.values.shape
                gb = a.values.reshape(-1, d_in).T @ g.reshape(-1, d_out)
            else:
                gb = np.swapaxes(a.values, -1, -2) @ g
            b.accumulate_grad(gb)
    return _result(out_vals, (a, b), bwd)


def affine(x, w, b):
    """Dense layer ``x @ w + b`` on a (n, d_in) x, as one node.

    Bit for bit ``add(matmul(x, w), broadcast_to(reshape(b, (1, d)),
    (n, d)))``, forward and backward, with one node in place of four.
    """
    if ((x.ndim, w.ndim, b.ndim) != (2, 2, 1) or x.shape[1] != w.shape[0]
            or b.shape[0] != w.shape[1]):
        raise ValueError(f"affine: expected x (n, d_in), w (d_in, d), b (d,); "
                         f"got {x.shape}, {w.shape}, {b.shape}")
    out_vals = x.values @ w.values + b.values

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.values.T)
        if w.requires_grad:
            w.accumulate_grad(x.values.T @ g)
        if b.requires_grad:
            b.accumulate_grad(bias_grad(g))
    return _result(out_vals, (x, w, b), bwd)


def bias_grad(g):
    """The gradient of a bias row added to each row of a (..., n, d)
    output whose gradient is ``g``.  One row passes as is, as in the four
    ops: a sum over one row would turn -0.0 into 0.0."""
    return g.sum(axis=-2) if g.shape[-2] != 1 else g[..., 0, :]


def mlp(x, layer):
    """One-hidden-layer MLP: ``affine``, then tanh, then ``affine``;
    ``layer`` is (w1, b1, w2, b2)."""
    w1, b1, w2, b2 = layer
    return affine(tanh(affine(x, w1, b1)), w2, b2)


def tsum(a, axis=None, keepdims=False):
    out_vals = a.values.sum(axis=axis, keepdims=keepdims)
    in_shape = a.values.shape

    def bwd(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.broadcast_to(g, in_shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(gg, in_shape))
    return _result(out_vals, (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    n = a.values.size if axis is None else a.values.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def softmax_values(x, axis=-1):
    """Stable softmax along one axis of a plain array, for fused nodes:
    -inf entries give exact zeros.  A slice holding a NaN or +inf score
    is refused as non-finite, and an all -inf slice as masked."""
    m = reduce_keepdims(np.maximum, x, axis)
    if not np.all(np.isfinite(m)):
        if np.any(np.isnan(m) | (m == np.inf)):
            raise FloatingPointError("softmax: non-finite scores (NaN or +inf)")
        raise FloatingPointError("softmax: a full slice is masked to -inf")
    e = np.subtract(x, m)
    np.exp(e, out=e)
    e /= reduce_keepdims(np.add, e, axis)
    return e


def reduce_keepdims(ufunc, x, axis=-1):
    """``ufunc.reduce(x, axis, keepdims=True)`` for ``np.add`` or
    ``np.maximum``, bit for bit.

    numpy reduces a short last axis of a C-contiguous array row by row,
    and its per-row loop costs more than the arithmetic.  Below 8
    elements it takes a row in sequence: a sum from 0.0 (a row of -0.0
    sums to 0.0), a maximum from the first element.  Those rows are
    reduced here with one whole-array call per column instead.  Longer
    rows (pairwise sums, SIMD maxima), other axes and other memory
    layouts, whose order numpy may choose differently, keep numpy's
    reduction.
    """
    n = x.shape[axis]
    if axis not in (-1, x.ndim - 1) or not 0 < n < 8 or not x.flags.c_contiguous:
        return ufunc.reduce(x, axis=axis, keepdims=True)
    out = x[..., :1] + 0.0 if ufunc is np.add else x[..., :1].copy()
    for i in range(1, n):
        ufunc(out, x[..., i:i + 1], out=out)
    return out


def sigmoid_values(x):
    """``sigmoid``'s forward on a plain array, stable in both tails: each
    where-branch on the sign of x uses exp(-|x|) <= 1, so none overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def layer_norm(x, gamma, beta, residual=None, eps=1e-5):
    """Per-row (last axis) zero-mean unit-variance of x, or of
    x + residual, then affine gamma/beta, as one node with parents
    (x, gamma, beta) and the residual when there is one.

    gamma/beta are rank-1 of size d = x.shape[-1]; eps guards constant rows.
    Values and gradients are bit for bit those of the composite graph
    (``add(x, residual)``, mean, centre, mean square,
    ``(var + eps) ** -0.5``, scale, then gamma and beta broadcast over
    the leading axes).  The backward replays that graph's products in its
    accumulation order: the centred rows take their normalising part,
    then the variance part twice (one per factor of the square); the sum
    takes the centred gradient plus the mean's share as one array, which
    x and the residual each receive, as from the add; gamma and beta sum
    over each leading axis longer than one, in axis order.

    When no parent needs a gradient the node keeps nothing: it centres,
    scales and shifts one array in place, the sum's when there is one.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"layer_norm: gamma/beta must have shape ({d},)")
    parents = (x, gamma, beta)
    y = x.values
    if residual is not None:
        _check_same_shape(x, residual, "layer_norm")
        parents += (residual,)
        y = y + residual.values
    inv_d = 1.0 / d
    mean = y.sum(axis=-1, keepdims=True) * inv_d
    # the composite's operands are C-ordered full arrays, so its results
    # are too; a row reduction's bits follow its input's layout
    if y is not x.values and y.flags.c_contiguous:
        centered = np.subtract(y, mean, out=y)
    else:
        centered = np.subtract(y, mean, order="C")
    ve = (centered * centered).sum(axis=-1, keepdims=True) * inv_d + float(eps)
    inv_std = ve ** -0.5
    if not any(p.requires_grad for p in parents):
        centered *= inv_std
        centered *= gamma.values
        centered += beta.values
        return _result(centered, parents, None)
    normed = centered * inv_std
    lifted = [ax for ax in range(x.ndim - 1) if x.shape[ax] != 1]
    summands = [p for p in (x, residual) if p is not None and p.requires_grad]

    def bwd(g):
        if summands:
            gn = g * gamma.values
            g_sq = (gn * centered).sum(axis=-1, keepdims=True) * -0.5 \
                * ve ** -1.5 * inv_d
            part = g_sq * centered
            gc = np.multiply(gn, inv_std, order="C")
            gc += part
            gc += part
            # part, g_sq times the C-ordered centred rows, is C-ordered
            # as -gc is, so the row sum's bits are -gc's
            gc += np.negative(gc, out=part).sum(axis=-1, keepdims=True) * inv_d
            for p in summands:
                p.accumulate_grad(gc)
        for p, gp in ((gamma, g * normed), (beta, g)):
            if p.requires_grad:
                for ax in lifted:
                    gp = gp.sum(axis=ax, keepdims=True)
                p.accumulate_grad(gp.reshape(d))
    out = normed * gamma.values
    out += beta.values
    return _result(out, parents, bwd)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def _toposort(root):
    """Reverse-construction-order topological sort (iterative DFS)."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss.

    Visits each graph node exactly once in reverse topological order.
    Gradients of every node reachable from ``loss`` are reset first, so
    repeated calls do not double-count.  Returns the topological order
    (handy for callers that need the reachable set).
    """
    if loss.values.ndim != 0:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return order


def grad(loss, params):
    """Gradient of a scalar loss w.r.t. a list of leaf parameters.

    A parameter that is not reachable in the loss graph is an error, not a
    silent zero.  A parameter that is reachable but receives no gradient
    (a codebook reaches the straight-through sum that way) gets an
    explicit zero.
    A table reached only through ``embedding`` lookups, fewer of them than
    it has rows, gets a ``RowSparse``; ``np.asarray`` of it is the dense
    gradient, bit for bit.  Every other gradient is a dense array.  Each
    parameter gets its own array: one the backward handed to two
    parameters (``add`` does) is copied for the second.
    """
    for i, p in enumerate(params):
        if not p.requires_grad:
            raise ValueError(f"grad: params[{i}] does not have requires_grad set")
    order = backward(loss)
    in_graph = {id(n) for n in order}
    out = []
    for i, p in enumerate(params):
        if id(p) not in in_graph:
            raise ValueError(f"grad: params[{i}] is not part of the loss graph")
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        if any(g is h for h in out):
            g = np.copy(g)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class _RowMoments:
    """Adam moments, and values, of the rows of a table that gradients
    have touched.

    Slot s holds the moments and the value of row ``rows[s]``, for the
    first ``n`` slots, in first-touch order; ``slot[r]`` is row r's
    slot, -1 while r is untouched.  A row's value is read from the table
    when the row gets its slot.  The arrays grow geometrically and are
    zero past ``n``.
    """

    __slots__ = ("slot", "rows", "m", "v", "w", "n")

    def __init__(self, shape):
        self.slot = np.full(shape[0], -1, dtype=np.int64)
        self.rows = np.zeros(0, dtype=np.int64)
        self.m = np.zeros((0,) + shape[1:])
        self.v = np.zeros((0,) + shape[1:])
        self.w = np.zeros((0,) + shape[1:])
        self.n = 0

    def touch(self, rows, table):
        """Give slots to the untouched of ``rows`` (distinct, ascending),
        holding their values in ``table``; return the touched count."""
        new = rows[self.slot[rows] < 0]
        n = self.n + new.size
        if n > self.rows.size:
            cap = max(n, 2 * self.rows.size)
            grown = []
            for a in (self.rows, self.m, self.v, self.w):
                b = np.zeros((cap,) + a.shape[1:], dtype=a.dtype)
                b[:self.n] = a[:self.n]
                grown.append(b)
            self.rows, self.m, self.v, self.w = grown
        self.slot[new] = np.arange(self.n, n)
        self.rows[self.n:n] = new
        self.w[self.n:n] = table[new]
        self.n = n
        return n

    def dense(self, shape):
        """The moments as dense arrays of the table's ``shape``."""
        m, v = np.zeros(shape), np.zeros(shape)
        rows = self.rows[:self.n]
        m[rows], v[rows] = self.m[:self.n], self.v[:self.n]
        return m, v


class Adam:
    """Adam with bias correction; deterministic given the step counter.

    A row whose moments and gradient are zero moves by exactly 0.0 and
    keeps zero moments.  So while a parameter has had only ``RowSparse``
    gradients, its moments are kept for just the rows those touched
    (``_RowMoments``), and ``step`` updates just those rows, giving a row
    absent this step a zero gradient: its moments keep decaying and it
    keeps moving, bit for bit the dense update (unlike a lazy Adam, which
    leaves absent rows alone).  Once every row has been touched, or a
    dense gradient arrives, the moments are scattered into dense arrays
    and the parameter takes the dense update for good.

    The touched rows' step splits present rows (this gradient's) from
    absent ones: every slot's moments decay, only the present ones take
    a gradient term, and ``m += 0.0`` over every slot gives an absent
    row the sign the dense path's ``+ (1-b1)*0`` gives its zero; ``v``
    is never -0.0, so it needs no such term.  The rows' values are kept
    in their slots too, so the decrement is taken there and the rows
    are scattered into the table once.  Those copies stay right only
    while ``step`` is the one writer of the rows: code that writes a
    parameter's rows between steps goes through ``write_rows``.

    The dense moments of all parameters live in one flat pair of arrays,
    each parameter's at its own span, so one ``_advance`` on the
    concatenated gradients updates them all.  The update is elementwise,
    so this is bit for bit a call per parameter.  The arrays are laid
    out again only when a parameter's moments turn dense.
    ``moments(i)`` gives copies of parameter i's moments as dense
    arrays, in either form.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        # per parameter, its moments of touched rows, or None once they
        # are dense; a rank-0 parameter's are dense from the start
        self._rows = [_RowMoments(p.values.shape) if p.ndim else None
                      for p in self.params]
        # (parameter index, start, stop) of each dense parameter's span
        # of the flat moments self._m and self._v
        self._spans = []
        self._m = self._v = np.zeros(0)
        self._lay_out({i: (np.zeros(1), np.zeros(1))
                       for i, rows in enumerate(self._rows) if rows is None})
        self.step_count = 0

    def _lay_out(self, joining):
        """Lay the flat moments out again, adding the dense moments
        ``joining`` maps parameter indices to."""
        moments = {i: (self._m[a:b], self._v[a:b]) for i, a, b in self._spans}
        moments.update(joining)
        stops = np.cumsum([0] + [self.params[i].values.size for i in moments])
        self._spans = list(zip(moments, stops[:-1], stops[1:]))
        self._m, self._v = (np.concatenate([np.zeros(0)] + [
            m[k].ravel() for m in moments.values()]) for k in (0, 1))

    def moments(self, i):
        """Copies of parameter i's first and second moments, dense."""
        shape = self.params[i].values.shape
        rows = self._rows[i]
        if rows is not None:
            return rows.dense(shape)
        a, b = next((a, b) for j, a, b in self._spans if j == i)
        return (self._m[a:b].reshape(shape).copy(),
                self._v[a:b].reshape(shape).copy())

    def write_rows(self, param, rows, values):
        """Set ``param.values[rows] = values`` between steps, and the
        copies ``step`` keeps of the rows it has touched."""
        param.values[rows] = values
        held = self._rows[next(i for i, p in enumerate(self.params)
                               if p is param)]
        if held is not None:
            slots = held.slot[rows]
            present = slots >= 0
            held.w[slots[present]] = param.values[rows[present]]

    def _advance(self, m, v, g, t):
        """Update the moments m, v in place; return the parameter decrement.

        Operation by operation, ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + ((1-b2)*g)*g`` and ``(lr*(m/c1)) / (sqrt(v/c2)+eps)``
        with ``c = 1-b**t``, computed into two scratch arrays.
        """
        a = np.empty_like(g)
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=a)
        a *= g
        v += a
        return self._decrement(m, v, t, a)

    def _decrement(self, m, v, t, a):
        """``_advance``'s decrement from the updated moments, with ``a``
        as scratch."""
        b = np.empty_like(a)
        np.divide(v, 1 - self.beta2 ** t, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, 1 - self.beta1 ** t, out=b)
        b *= self.lr
        b /= a
        return b

    def _advance_rows(self, p, held, g, t):
        """``_advance`` on the touched rows of ``p``, of which ``g``
        (a ``RowSparse``) names the present ones, then the rows'
        decremented values scattered into the table."""
        n = held.n
        m, v, w = held.m[:n], held.v[:n], held.w[:n]
        present = held.slot[g.rows]
        m *= self.beta1
        gm = m[present]
        gm += g.values * (1 - self.beta1)
        m += 0.0        # an absent row's -0.0 turns +0.0, as in the dense path
        m[present] = gm
        v *= self.beta2
        gv = np.multiply(g.values, 1 - self.beta2)
        gv *= g.values
        gv += v[present]
        v[present] = gv
        w -= self._decrement(m, v, t, np.empty_like(m))
        p.values[held.rows[:n]] = w

    def step(self, grads):
        if len(grads) != len(self.params):
            raise ValueError("Adam.step: grads/params length mismatch")
        for p, g in zip(self.params, grads):
            if g.shape != p.values.shape:
                raise ValueError(f"Adam.step: grad shape {g.shape} vs param {p.shape}")
        self.step_count += 1
        t = self.step_count
        joining = {}
        for i, (p, g, held) in enumerate(zip(self.params, grads, self._rows)):
            if held is None:
                continue
            if isinstance(g, RowSparse) and held.touch(g.rows, p.values) < len(p.values):
                self._advance_rows(p, held, g, t)
                continue
            joining[i] = held.dense(p.values.shape)
            self._rows[i] = None
        if joining:
            self._lay_out(joining)
        if not self._spans:
            return
        flat = np.concatenate([np.asarray(grads[i]).ravel()
                               for i, _, _ in self._spans])
        dec = self._advance(self._m, self._v, flat, t)
        for i, a, b in self._spans:
            p = self.params[i]
            p.values -= dec[a:b].reshape(p.values.shape)


# ---------------------------------------------------------------------------
# init helpers
# ---------------------------------------------------------------------------

def glorot(rng, shape):
    """Glorot-uniform leaf parameter."""
    fan_in = shape[0]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros(shape, requires_grad=True):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)
