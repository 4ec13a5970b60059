"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything the models need is built from the primitives here: row-major
contiguous numpy storage, a recorded computation graph, and a topological
backward pass that accumulates gradients into leaves only; intermediate
nodes pass their gradient on and keep none. A graph is backwarded once:
the pass consumes it, dropping each node's parents and closure once its
flow has gone on, so the activations a closure saved are freed as the pass
goes and a training step holds one graph, not two. Leaves keep their
``grad``, so backward over fresh graphs accumulates. ``linear`` and
``layernorm`` (with its affine) are one node each. Every sub-layer of a
Conformer or decoder block is one node with its own backward, the residual
add included: ``ffn`` (layernorm, expand, swish, dropout, project,
dropout, then ``x + c * f``), ``routed_ffn`` (the same for a top-1 routed
layer: its rows sorted by expert, every step but the two matmuls run once
over all rows, the matmuls once per used expert), ``mha`` (layernorm, the
four projections, all heads' attention as batched [H, T, d_head] products,
dropout, residual) and ``conv_module`` (layernorm, expand, GLU, depthwise
convolution, layernorm, swish, project, dropout, residual). Each equals
the bits of the chain of small nodes it replaces, values and gradients:
where that chain had an input feed two of its nodes, the fused node lists
the input twice, so the engine adds the two flows one at a time as before.
A dropout is a mask the caller draws: inside a fused node a ``(keep,
scale)`` pair of a bool array and the one number 1/(1-p), which the node
keeps and turns into the float mask where it multiplies (``_float_mask``);
by ``mul`` that float mask. The members of a level or expert stack share
one rate, so a stack's mask has one scale too.
``add`` and ``mul`` broadcast only a constant: an operand that requires
grad has the output's shape, so its gradient is never summed back down.
A fused node's backward closure keeps only what backward cannot rebuild
elementwise from the node's parents and the arrays it does keep. Its
layernorms keep the mean and 1/std of each row ([n, 1] each); backward
rebuilds the normalized rows from the input, and the affine output where a
weight gradient reads it. Swish keeps the hidden rows and their sigmoid,
not their product or its masked copy; a dropout keeps its bool array and
scale, not a float mask; the GLU keeps its first half and sigmoid, and the
convolution neither its input (their product) nor its padded copy nor its
output before the rows are picked. A routed layer gathers its sorted rows
and their gamma and beta again. What would take a matmul or an ``exp`` to rebuild stays kept:
the feed-forward's hidden rows, every sigmoid, attention's queries, keys,
values, weights and output before its projection, the convolution's output
plus bias, and a routed layer's expert outputs for the gate's gradient.
Rebuilt arrays repeat the forward's operations on the same operands, so
every bit is kept; no forward runs twice.
A training batch is packed into one graph: its utterances' frames are
stacked as consecutive rows, and the ops whose rows interact
(``unfold_time``, ``conv_module``'s convolution, ``mha``'s attention) take
the per-utterance row counts, so no window, tap or attention weight
crosses from one utterance into the next; attention computes each
utterance's own block alone.
Rows may also carry a leading level axis, [L, n, d]: L models of one
shape (the multi-level decoders) on the same rows, each with its own
weights. A level stack is one tensor: ``linear``, ``layernorm``, ``ffn``
and ``mha`` then take each parameter as one [L, ...] tensor, and
``embedding_lookup`` an [L, V, d] table (views of the arena,
``nn.stacked_parameters``); ``gather_last``, ``segment_means`` and
``level_sum`` read the stack as it is. Only ``mha``'s memory is a sequence
of L tensors. One code path serves both forms: reductions run over axis
-2 and transposes are ``swapaxes(-1, -2)``, so a level's products are the
BLAS calls it would get alone and every level keeps its bits.
``routed_ffn`` takes its experts as one [E, ...] leaf per parameter and
adds only its used experts' gradients into those leaves' ``grad``.
64-bit floats throughout so gradient checks and DP oracles are limited by
algorithmic correctness, not precision.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatch",
    "NondeterministicFunction",
    "no_grad",
    "linear",
    "add",
    "mul",
    "reshape",
    "concat_last",
    "softmax_last",
    "log_softmax_last",
    "layernorm",
    "swish",
    "segment_lengths",
    "unfold_time",
    "embedding_lookup",
    "gather_last",
    "segment_means",
    "level_sum",
    "ffn",
    "routed_ffn",
    "mha",
    "conv_module",
    "power",
    "reduce_sum",
    "reduce_mean",
    "finite_diff_check",
]

# Variance floor of every layernorm, fused or not.
LAYERNORM_EPS = 1e-5

_state = threading.local()


def _grad_enabled():
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables graph recording (e.g. for decoding)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible for an op."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = [tuple(s) for s in shapes]
        joined = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {joined}")


class NondeterministicFunction(RuntimeError):
    """Raised when finite_diff_check sees two evaluations disagree."""


class Tensor:
    """A dense float64 array plus an optional gradient accumulator.

    Leaves made with ``requires_grad=True`` own a ``grad`` buffer (an
    allocated ``Parameter``'s is a view into its module tree's arena).
    Tensors produced by ops record their parents and a backward closure but
    have ``grad`` None: ``backward()`` on a scalar loss walks the graph in
    reverse topological order, passes gradients through them, and
    accumulates only into leaves. The walk frees the graph as it goes, so
    each graph is backwarded once and its activations are gone when the
    call returns. Repeated backward calls over fresh graphs without a
    ``zero_grad`` accumulate. A training batch is one graph over the
    packed frames of all its utterances, so one call covers the batch.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        # np.zeros takes fresh zero pages as they are; zeros_like writes them.
        self.grad = np.zeros(self.data.shape) if self.requires_grad else None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        The pass consumes the graph: once a node's flow has gone to its
        parents, the node drops its parents and its backward closure, so
        each saved activation is freed as soon as no pending closure holds
        it and nothing of the graph outlives the call. A graph is therefore
        backwarded once; backward again through any of its nodes, from the
        same loss or another that shares them, raises ``RuntimeError``.
        Leaves are untouched, so backward over fresh graphs accumulates.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        # Iterative post-order topological sort; training graphs get deep
        # enough that recursion would be fragile.
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        # Per-call flow of gradients; node.grad accumulates across calls.
        # Stored flow arrays are never mutated in place, so backward
        # closures may return views. Popping the order leaves each node
        # referenced only by its consumers, which were freed before it.
        flows = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = flows.pop(id(node), None)
            backward, parents = node._backward, node._parents
            if backward is not None:
                node._backward, node._parents = _freed_backward, ()
            if g is None:
                continue
            if node.grad is not None:
                node.grad += g
            if backward is None:
                continue
            for p, pg in zip(parents, backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                acc = flows.get(id(p))
                flows[id(p)] = pg if acc is None else acc + pg


def _freed_backward(g):
    """The backward of a node whose graph an earlier backward consumed."""
    raise RuntimeError("backward through a graph that an earlier backward already freed")


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward, op):
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        # Recorded, but no grad buffer: only leaves accumulate.
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _rows(op, x):
    """`x` as a tensor, ShapeMismatch unless it is rows [n, d] or a level
    stack of rows [L, n, d]."""
    x = _as_tensor(x)
    if x.data.ndim not in (2, 3):
        raise ShapeMismatch(op, x.data.shape)
    return x


def _operands(op, shape, operands, expected, masks=()):
    """Arrays of the tensor operands of a node on rows of `shape`, checked:
    each has its shape in `expected`, led by the level axis of rows [L, n,
    d], and a vector's [L, k] array is returned as [L, 1, k], so it
    broadcasts as a [k] vector does without levels. Each ``(mask, width)``
    pair's mask is None or a ``(keep, scale)`` dropout mask
    (``_float_mask``): a bool array of `shape` with last dimension `width`,
    and one number. ShapeMismatch otherwise.
    The products of a level stack are one per level, the same BLAS calls on
    the same operands, and its column sums run over axis -2 level by level,
    so each level keeps the bits it would have alone.
    """
    lead = tuple(shape[:-2])
    shapes = [t.data.shape if isinstance(t, Tensor) else None for t in operands]
    ok = shapes == [(*lead, *e) for e in expected]
    for m, w in masks:
        ok = ok and (m is None or (np.asarray(m[0]).dtype == bool
                                   and np.shape(m[0]) == (*shape[:-1], w)
                                   and np.ndim(m[1]) == 0))
    if not ok:
        raise ShapeMismatch(op, shape, *[s or () for s in shapes],
                            *[np.shape(m if m is None else m[0]) for m, _ in masks])
    return [t.data[:, None] if lead and t.data.ndim == 2 else t.data for t in operands]


def linear(x, w, b):
    """``(x @ w) + b`` as one node; gradients equal the matmul-then-add
    pair's. A bias of None is ``x @ w``, with no bias operand or gradient.
    `x` may carry a level axis, as ``_operands`` says."""
    x = _rows("linear", x)
    params, d_out = (w, b), w.data.shape[-1]
    if b is None:
        (wd,) = _operands("linear", x.data.shape, (w,), [(x.data.shape[-1], d_out)])
        return _node(x.data @ wd, (x, w), lambda g: (
            g @ wd.swapaxes(-1, -2) if x.requires_grad else None,
            x.data.swapaxes(-1, -2) @ g), "linear")
    w, b = _operands("linear", x.data.shape, params, [(x.data.shape[-1], d_out), (d_out,)])
    out = x.data @ w
    out += b

    def bwd(g):
        return (g @ w.swapaxes(-1, -2) if x.requires_grad else None,
                x.data.swapaxes(-1, -2) @ g, g.sum(axis=-2))

    return _node(out, (x, *params), bwd, "linear")


def _elementwise(op, ufunc, a, b):
    """`a`, `b` as tensors and ``ufunc(a, b)``. A constant may broadcast;
    ShapeMismatch when the shapes do not broadcast or an operand that
    requires grad lacks the output's shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = ufunc(a.data, b.data)
    except ValueError:
        out = None
    if (out is None or (a.requires_grad and a.data.shape != out.shape)
            or (b.requires_grad and b.data.shape != out.shape)):
        raise ShapeMismatch(op, a.data.shape, b.data.shape)
    return a, b, out


def add(a, b):
    """Elementwise sum; only a constant broadcasts (``_elementwise``), so
    each operand's gradient is the upstream one."""
    a, b, out = _elementwise("add", np.add, a, b)
    return _node(out, (a, b), lambda g: (g if a.requires_grad else None,
                                         g if b.requires_grad else None), "add")


def mul(a, b):
    """Elementwise product; only a constant broadcasts (``_elementwise``)."""
    a, b, out = _elementwise("mul", np.multiply, a, b)
    return _node(out, (a, b), lambda g: (g * b.data if a.requires_grad else None,
                                         g * a.data if b.requires_grad else None), "mul")


def reshape(a, shape):
    a = _as_tensor(a)
    out = a.data.reshape(shape).copy()
    orig = a.data.shape
    return _node(out, (a,), lambda g: (g.reshape(orig),), "reshape")


def concat_last(tensors):
    """Concatenate along the last dimension; gradients split back cleanly."""
    tensors = [_as_tensor(t) for t in tensors]
    base = tensors[0].data.shape[:-1]
    for t in tensors[1:]:
        if t.data.shape[:-1] != base:
            raise ShapeMismatch("concat-last-dim", *[t.data.shape for t in tensors])
    out = np.concatenate([t.data for t in tensors], axis=-1)
    widths = [t.data.shape[-1] for t in tensors]

    def bwd(g):
        grads, off = [], 0
        for t, w in zip(tensors, widths):
            grads.append(g[..., off : off + w] if t.requires_grad else None)
            off += w
        return grads

    return _node(out, tuple(tensors), bwd, "concat-last-dim")


def softmax_last(a):
    a = _as_tensor(a)
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _node(p, (a,), bwd, "softmax-last-dim")


def log_softmax_last(a):
    a = _as_tensor(a)
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    p = np.exp(out)

    def bwd(g):
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return _node(out, (a,), bwd, "log-softmax-last-dim")


def _layernorm_rows(x, gamma, beta):
    """Affine layernorm over the last dimension: (output, mean, 1/std). The
    two statistics are [..., n, 1]; ``_normalized`` rebuilds y from them."""
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    y = x - mu
    var = np.add.reduce(y * y, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    y *= inv
    out = y * gamma
    out += beta
    return out, mu, inv


def _normalized(x, mu, inv):
    """The normalized rows y = (x - mean) / std of ``_layernorm_rows``,
    rebuilt bit for bit from its input and statistics."""
    y = x - mu
    y *= inv
    return y


def _affine(y, gamma, beta):
    """``y * gamma + beta``: a layernorm's output rebuilt from its y."""
    n = y * gamma
    n += beta
    return n


def _layernorm_input_grad(gn, y, inv):
    """A layernorm's input gradient from ``gn``, the gradient at y times gamma."""
    d = gn.shape[-1]
    gm = np.add.reduce(gn, axis=-1, keepdims=True) / d
    gy = np.add.reduce(gn * y, axis=-1, keepdims=True) / d
    return inv * (gn - gm - y * gy)


def _layernorm_grads(g, x, mu, inv, gamma):
    """A layernorm's backward from `g`, the gradient at its output: (y, gx,
    ggamma, gbeta), y rebuilt from the input `x` and the statistics of
    ``_layernorm_rows``, the vectors' sums over axis -2 (level by level)."""
    y = _normalized(x, mu, inv)
    return y, _layernorm_input_grad(g * gamma, y, inv), (g * y).sum(axis=-2), g.sum(axis=-2)


def layernorm(a, gamma, beta):
    """Normalize the last dimension to zero mean, unit variance, then apply
    the affine ``(y * gamma) + beta``, all in one node. `a` may carry a
    level axis, as ``_operands`` says.

    A zero-variance row normalizes to all zero (so comes out as ``beta``):
    the variance is floored by ``LAYERNORM_EPS``, which keeps padded or
    constant frames finite.
    """
    a = _rows("layernorm", a)
    d = a.data.shape[-1]
    params = (gamma, beta)
    gamma, beta = _operands("layernorm", a.data.shape, params, [(d,), (d,)])
    out, mu, inv = _layernorm_rows(a.data, gamma, beta)

    def bwd(g):
        return _layernorm_grads(g, a.data, mu, inv, gamma)[1:]

    return _node(out, (a, *params), bwd, "layernorm")


def swish(a):
    a = _as_tensor(a)
    x = a.data
    s = 1.0 / (1.0 + np.exp(-x))
    return _node(x * s, (a,), lambda g: (g * s * (1.0 + x * (1.0 - s)),), "swish")


def segment_lengths(lengths, rows, op):
    """Row counts of the utterances packed into `rows` rows, in order.

    None means one utterance holding every row. Lengths that do not add up
    to `rows` raise ShapeMismatch.
    """
    if lengths is None:
        return [rows]
    lengths = [int(n) for n in lengths]
    if not lengths or min(lengths) < 0 or sum(lengths) != rows:
        raise ShapeMismatch(op, (rows,), tuple(lengths))
    return lengths


def _spans(lengths):
    """(start, end) row span of each of `lengths` consecutive segments."""
    ends = list(itertools.accumulate(lengths))
    return list(zip([0, *ends[:-1]], ends))


def unfold_time(x, kernel, stride, lengths=None):
    """Stack sliding windows of `kernel` frames (valid padding) into rows.

    [T, C] becomes [T_out, kernel*C] with T_out = (T - kernel)//stride + 1.
    A full strided convolution is then just a matmul on the result. With
    `lengths` the rows are consecutive utterances and each is unfolded on
    its own, so no window crosses from one into the next.
    """
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeMismatch("unfold-time", x.data.shape)
    C = x.data.shape[1]
    lengths = segment_lengths(lengths, x.data.shape[0], "unfold-time")
    if min(lengths) < kernel:
        raise ShapeMismatch("unfold-time", x.data.shape, (kernel,))
    starts = np.concatenate([s + stride * np.arange((e - s - kernel) // stride + 1)
                             for s, e in _spans(lengths)])
    # idx[i, k]: source row of tap k of window i
    idx = (starts[:, None] + np.arange(kernel)).reshape(-1)
    out = x.data[idx].reshape(starts.shape[0], kernel * C)

    def bwd(g):
        # np.add.at adds in window order, as a loop over windows would.
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g.reshape(-1, C))
        return (gx,)

    return _node(out, (x,), bwd, "unfold-time")


def embedding_lookup(table, ids):
    """Gather rows of `table` by integer index; duplicate ids accumulate
    grads. `table` is [V, d], or a level stack [L, V, d]: then the rows of
    each level, [L, n, d]."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    shape = table.data.shape
    if ids.ndim != 1 or len(shape) not in (2, 3):
        raise ShapeMismatch("embedding-lookup", shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= shape[-2]):
        raise IndexError(
            f"embedding-lookup: id out of range [0, {shape[-2]}): "
            f"{int(ids.min())}..{int(ids.max())}"
        )
    out = np.take(table.data, ids, axis=-2)

    def bwd(g):
        gt = np.zeros(shape)
        np.add.at(gt, (..., ids, slice(None)), g)
        return (gt,)

    return _node(out, (table,), bwd, "embedding-lookup")


def gather_last(a, ids):
    """Pick one entry per row: out[..., i] = a[..., i, ids[i]]."""
    a = _as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    if a.data.ndim not in (2, 3) or ids.shape != a.data.shape[-2:-1]:
        raise ShapeMismatch("gather-last", a.data.shape, ids.shape)
    rows = np.arange(ids.shape[0])
    out = np.ascontiguousarray(a.data[..., rows, ids])

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (..., rows, ids), g)
        return (ga,)

    return _node(out, (a,), bwd, "gather-last")


def segment_means(a, lengths):
    """The mean of each of `lengths` consecutive segments of the last axis
    of `a`, as one node: [..., n] in, [..., len(lengths)] out.

    Each mean is a row of weights, 1/length on its segment and 0 elsewhere,
    times the column of entries: the matrix-vector product (and, backward,
    the transposed one) that a ``matmul`` of the weights by `a` reshaped to
    a column computed, so values and gradients keep its bits, level by level
    when `a` leads with a level axis.
    """
    a = _as_tensor(a)
    lengths = segment_lengths(lengths, a.data.shape[-1], "segment-means")
    owner = np.repeat(np.arange(len(lengths)), lengths)
    weights = (owner == np.arange(len(lengths))[:, None]) / np.array(lengths)[:, None]
    out = (weights @ a.data[..., None])[..., 0]
    return _node(out, (a,), lambda g: ((weights.T @ g[..., None])[..., 0],), "segment-means")


def level_sum(a):
    """The sum over the level axis of a stack led by the main level: levels
    1, 2, ... add one after another and level 0 last, as ``add`` nodes would."""
    a = _as_tensor(a)
    out = np.add.accumulate(np.roll(a.data, -1, axis=0))[-1]
    return _node(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),), "level-sum")


def _matmul_groups(a, ws, spans):
    """``a[s:e] @ w`` for each group's rows and matrix, into one output."""
    if len(ws) == 1:
        return a @ ws[0]
    out = np.empty((a.shape[0], ws[0].shape[1]))
    for (s, e), w in zip(spans, ws):
        np.matmul(a[s:e], w, out=out[s:e])
    return out


def _float_mask(mask):
    """The float dropout mask a ``(keep, scale)`` pair stands for, or None
    for None. `keep` is a bool array, `scale` the one number 1/(1-p).
    Rebuilt as keep (1.0 or 0.0) times the scale, it has the bits of
    ``keep / (1 - p)``: 0 where dropped, 1/(1-p) where kept."""
    if mask is None:
        return None
    m = mask[0].astype(np.float64)
    m *= mask[1]
    return m


def _ffn_rows(x, spans, w1s, w2s, vectors, mask1, mask2):
    """The pre-norm feed-forward chain over consecutive row groups of `x`.

    Group i owns rows spans[i] = (start, end) and the matrices w1s[i] and
    w2s[i]; `vectors` are gamma, beta, b1 and b2, either one per layer
    (broadcast) or gathered per row; the masks are ``(keep, scale)`` pairs
    (``_float_mask``) and cover all rows (None: no dropout). With a level
    axis (one group), the rows, matrices, vectors and masks all lead with
    it. Only the two matmuls, and in backward their input- and
    weight-gradient products and the vectors' column sums, run per group,
    each on its rows' slice. Returns the output rows and ``backward(g, x,
    gamma, beta, need_x, grads, slots)`` -> input gradient or None, which
    writes group i's six parameter gradients into slot slots[i] of the six
    arrays `grads` (``ffn``'s order). The caller hands `x`, gamma and beta
    back; the closure keeps the layernorm's statistics, the hidden rows h
    and their sigmoid, and rebuilds the layernorm's y and output and the
    masked swish output.
    """
    gamma, beta, b1, b2 = vectors
    n, mu, inv = _layernorm_rows(x, gamma, beta)
    h = _matmul_groups(n, w1s, spans)
    h += b1
    sig = 1.0 / (1.0 + np.exp(-h))

    def swish_rows(m1):
        """The swish output, dropped out by the float mask `m1`."""
        a = h * sig
        if m1 is not None:
            a *= m1
        return a

    out = _matmul_groups(swish_rows(_float_mask(mask1)), w2s, spans)
    out += b2
    if mask2 is not None:
        out *= _float_mask(mask2)

    def backward(g, x, gamma, beta, need_x, grads, slots):
        # Column sums go row by row within each group, as sum(axis=0) adds;
        # np.add.reduceat would add pairwise and change the bits.
        ggamma, gbeta, gw1, gb1, gw2, gb2 = grads
        if mask2 is not None:
            g = g * _float_mask(mask2)
        m1 = _float_mask(mask1)
        a = swish_rows(m1)
        ga = _matmul_groups(g, [w.swapaxes(-1, -2) for w in w2s], spans)
        if m1 is not None:
            ga *= m1
        gh = ga * sig * (1.0 + h * (1.0 - sig))
        y = _normalized(x, mu, inv)
        n = _affine(y, gamma, beta)
        gn = _matmul_groups(gh, [w.swapaxes(-1, -2) for w in w1s], spans)
        gny = gn * y
        for (s, e), i in zip(spans, slots):
            np.matmul(a[..., s:e, :].swapaxes(-1, -2), g[..., s:e, :], out=gw2[i])
            g[..., s:e, :].sum(axis=-2, out=gb2[i])
            np.matmul(n[..., s:e, :].swapaxes(-1, -2), gh[..., s:e, :], out=gw1[i])
            gh[..., s:e, :].sum(axis=-2, out=gb1[i])
            gny[..., s:e, :].sum(axis=-2, out=ggamma[i])
            gn[..., s:e, :].sum(axis=-2, out=gbeta[i])
        return _layernorm_input_grad(gn * gamma, y, inv) if need_x else None

    return out, backward


def _ffn_shapes(d, f):
    """Shapes of ``ffn``'s six parameters at width `d` and hidden width `f`."""
    return [(d,), (d,), (d, f), (f,), (f, d), (d,)]


def _residual(x, f, c=1.0):
    """``x + c * f`` with the bits of a ``mul`` node by the constant `c`
    then an ``add`` node; `f` is a fresh array and is overwritten."""
    if c != 1.0:
        f *= c
    f += x
    return f


def ffn(x, c, gamma, beta, w1, b1, w2, b2, mask1=None, mask2=None):
    """A pre-norm feed-forward with its residual as one node: ``x + c * f``
    where f is ``layernorm(x, gamma, beta)``, ``linear`` by (w1, b1), swish,
    dropout by `mask1` [n, d_ff], ``linear`` by (w2, b2), dropout by `mask2`
    [n, d]; a mask of None is the identity. The six parameters are tensors;
    a mask is a ``(keep, scale)`` pair, as ``_float_mask`` takes it. `x`
    may carry a level axis, as ``_operands`` says; the parameters and masks
    then lead with it too.

    Values and gradients equal the bits of those six nodes, ``mul`` by `c`
    and ``add`` chained. `x` is a parent twice, once for the residual and once
    for the layernorm, so the engine adds its two flows as it did for them.
    """
    x = _rows("ffn", x)
    d, f = x.data.shape[-1], w1.data.shape[-1]
    params = (gamma, beta, w1, b1, w2, b2)
    gamma, beta, w1, b1, w2, b2 = _operands("ffn", x.data.shape, params, _ffn_shapes(d, f),
                                            ((mask1, f), (mask2, d)))
    out, backward = _ffn_rows(x.data, [(0, x.data.shape[-2])], [w1], [w2],
                              (gamma, beta, b1, b2), mask1, mask2)

    def bwd(g):
        grads = [np.empty(t.data.shape) for t in params]
        gx = backward(g * c, x.data, gamma, beta, x.requires_grad, grads, [...])
        return (g, gx, *grads)

    return _node(_residual(x.data, out, c), (x, x, *params), bwd, "ffn")


def routed_ffn(x, c, p, selected, gamma, beta, w1, b1, w2, b2, mask1=None, mask2=None):
    """A top-1 routed feed-forward layer with its residual as one node:
    ``x + c * f`` where row i of f is row i of `x` through expert
    selected[i], scaled by its gate p[i, selected[i]].

    The six parameters are ``ffn``'s, each one [E, ...] tensor whose slice
    e is expert e's. Rows are ordered by expert with a stable sort; the
    masks are ``(keep, scale)`` pairs over the rows in that order, one scale
    for all rows (the experts share a rate). Gamma, beta and the biases are gathered
    per row and the two matmuls run once per used expert; values and
    gradients equal the bits of each used expert's ``ffn`` chain on its
    rows in frame order, scattered back, multiplied by the gate, scaled and
    added to `x`. Like ``ffn``'s, `x` is a parent twice. Backward gathers
    the sorted rows, gamma and beta again rather than keep them, computes
    the parameter gradients of the U used experts only, as [U, ...] arrays,
    and adds them into the stacks' ``grad`` at those experts itself, handing
    the engine no gradient for the stacks: an expert without rows is not
    touched. A stack that requires grad must therefore be a leaf
    (ValueError otherwise).
    """
    x, p = _as_tensor(x), _as_tensor(p)
    selected = np.asarray(selected, dtype=np.int64)
    rows, experts = x.data.shape[0], p.data.shape[-1]
    if (x.data.ndim != 2 or p.data.shape != (rows, experts) or selected.shape != (rows,)
            or not np.all((selected >= 0) & (selected < experts))):
        raise ShapeMismatch("routed-ffn", x.data.shape, p.data.shape, selected.shape)
    d, f = x.data.shape[1], w1.data.shape[-1]
    params = (gamma, beta, w1, b1, w2, b2)
    ga, ba, w1a, b1a, w2a, b2a = _operands("routed-ffn", x.data.shape, params,
                                           [(experts, *s) for s in _ffn_shapes(d, f)],
                                           ((mask1, f), (mask2, d)))
    if any(t.requires_grad and t._backward is not None for t in params):
        raise ValueError("routed-ffn: an expert stack that requires grad must be a leaf")
    counts = np.bincount(selected, minlength=experts)
    used = np.flatnonzero(counts)
    spans = _spans(counts[used].tolist())
    order = np.argsort(selected, kind="stable")
    # each sorted row's expert, to gather gamma, beta, b1 and b2 per row
    owner = selected[order]
    w1s, w2s = [w1a[e] for e in used], [w2a[e] for e in used]
    ys, backward = _ffn_rows(x.data[order], spans, w1s, w2s, [v[owner] for v in (ga, ba, b1a, b2a)],
                             mask1, mask2)
    y = np.empty_like(ys)
    y[order] = ys
    frames = np.arange(rows)
    gate = p.data[frames, selected][:, None]

    def bwd(g):
        gc = g * c
        gp = None
        if p.requires_grad:
            gp = np.zeros_like(p.data)
            np.add.at(gp, (frames, selected), (gc * y).sum(axis=1))
        grads = [np.empty((len(used), *t.data.shape[1:])) for t in params]
        # the sorted rows and their gamma and beta, gathered again
        gxs = backward((gc * gate)[order], x.data[order], ga[owner], ba[owner],
                       x.requires_grad, grads, range(len(used)))
        for t, gr in zip(params, grads):
            if t.requires_grad:
                t.grad[used] += gr
        gx = None
        if gxs is not None:
            gx = np.empty_like(gxs)
            gx[order] = gxs
        return (g, gx, gp, *[None] * len(params))

    return _node(_residual(x.data, y * gate, c), (x, x, p, *params), bwd, "routed-ffn")


def _attention_rows(q, k, v, heads, lengths=None, key_lengths=None, mask=None):
    """Scaled dot-product attention of arrays q [Tq, d] over k and v [Tk,
    d], all heads at once; head h owns the h-th of `heads` equal column
    blocks. With a level axis (q [L, Tq, d], k and v [L, Tk, d]) each level
    attends on its own, the products over all L·H heads at once. Returns
    the output, shaped as q, and ``backward(g)`` -> (gq, gk, gv).

    With `lengths` the rows are packed segments: query segment i (lengths[i]
    rows) sees only key segment i (key_lengths[i] rows, default lengths[i]),
    and only those blocks are computed, each as the call on it alone. A
    bool `mask` [Tq, Tk] is true where a query may not look; a segment
    reads only its own block of it. Hidden weights and their gradients are
    exactly zero while each row keeps one visible key.
    """
    shapes = [q.shape, k.shape, v.shape] + ([] if mask is None else [np.shape(mask)])
    lead = shapes[0][:-2]
    if any(len(s) not in (2, 3) or s[:-2] != lead for s in shapes[:3]):
        raise ShapeMismatch("attention", *shapes)
    (tq, d), tk = shapes[0][-2:], shapes[1][-2]
    if (shapes[1][-1] != d or shapes[2] != shapes[1] or d % heads
            or shapes[3:] not in ([], [(tq, tk)])):
        raise ShapeMismatch("attention", *shapes)
    q_lengths = segment_lengths(lengths, tq, "attention")
    k_lengths = segment_lengths(lengths if key_lengths is None else key_lengths, tk, "attention")
    if len(q_lengths) != len(k_lengths):
        raise ShapeMismatch("attention", tuple(q_lengths), tuple(k_lengths))
    c = 1.0 / np.sqrt(d // heads)

    # Views of rows [..., n, width] as heads [..., H, n, width / H]; a
    # product written into a slice of one fills those rows.
    by_q, by_k = (*lead, tq, heads, d // heads), (*lead, tk, heads, d // heads)
    qh, vh = q.reshape(by_q).swapaxes(-3, -2), v.reshape(by_k).swapaxes(-3, -2)
    # Keys as contiguous [..., H, d_head, Tk]: each segment's slice is the
    # BLAS layout of a per-head q @ k.T, so values and gradients match that
    # form bit for bit.
    kt = np.ascontiguousarray(k.reshape(by_k).swapaxes(-3, -2).swapaxes(-1, -2))
    out = np.empty((*lead, tq, d))
    out_heads = out.reshape(by_q).swapaxes(-3, -2)
    spans = list(zip(_spans(q_lengths), _spans(k_lengths)))
    weights = []
    for (qs, qe), (ks, ke) in spans:
        # Softmax in place on the score buffer; fresh arrays cost as much as the products.
        p = qh[..., qs:qe, :] @ kt[..., ks:ke]
        p *= c
        if mask is not None:
            np.copyto(p, -1e30, where=mask[qs:qe, ks:ke])
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, vh[..., ks:ke, :], out=out_heads[..., qs:qe, :])
        weights.append(p)

    def backward(g):
        gq, gk, gv = (np.empty((*lead, n, d)) for n in (tq, tk, tk))
        gh, gq_heads = g.reshape(by_q).swapaxes(-3, -2), gq.reshape(by_q).swapaxes(-3, -2)
        gk_heads, gv_heads = gk.reshape(by_k).swapaxes(-3, -2), gv.reshape(by_k).swapaxes(-3, -2)
        for ((qs, qe), (ks, ke)), p in zip(spans, weights):
            gp = gh[..., qs:qe, :] @ vh[..., ks:ke, :].swapaxes(-1, -2)
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
            gs *= c
            np.matmul(gs, kt[..., ks:ke].swapaxes(-1, -2), out=gq_heads[..., qs:qe, :])
            np.matmul(gs.swapaxes(-1, -2), qh[..., qs:qe, :], out=gk_heads[..., ks:ke, :])
            np.matmul(p.swapaxes(-1, -2), gh[..., qs:qe, :], out=gv_heads[..., ks:ke, :])
        return gq, gk, gv

    return out, backward


def mha(x, memory, heads, gamma, beta, wq, bq, wk, wv, bv, wo, bo, drop=None, lengths=None,
        key_lengths=None, mask=None):
    """A pre-norm attention sub-layer with its residual as one node:
    ``x + dropout(linear(attention(q, k, v), wo, bo))``.

    q is ``linear(layernorm(x, gamma, beta), wq, bq)``; k is ``src @ wk``
    and v ``linear(src, wv, bv)``, where src is that layernorm output
    (self-attention, `memory` None) or `memory` (cross-attention: only the
    query side is normalized). The rows `x`, each memory's rows and all four
    projections are the one width d. Dropout is by the ``(keep, scale)`` mask
    `drop` (``_float_mask``; None: the identity). `lengths`, `key_lengths`
    and `mask` select the visible keys as ``_attention_rows`` says; with a
    level axis (``_operands``) every level sees the same keys, the
    parameters and `drop`'s keep array lead with the level axis, its scale
    is the levels' one, and `memory` is a sequence of L tensors, one per
    level: not arena data, they are copied into a stack.

    Values and gradients equal the bits of the unfused chain of nodes. The
    flows into the layernorm output add as q, k, v; `x` is a parent twice
    (residual, layernorm) and each memory twice (k, v), so the engine adds
    those flows one at a time, as it did for the nodes they replace.
    """
    x = _rows("mha", x)
    d, lead = x.data.shape[-1], x.data.shape[:-2]
    params = (gamma, beta, wq, bq, wk, wv, bv, wo, bo)
    # one memory tensor, or with levels one per level; each feeds k and v
    memories = (memory,) if isinstance(memory, Tensor) else tuple(memory or ())
    if memory is not None:
        shapes = [np.shape(getattr(m, "data", None)) for m in memories]
        # each memory is rows [n, d], and every level's has the same n
        if (isinstance(memory, Tensor) == bool(lead) or len(shapes) != (lead or (1,))[0]
                or shapes[0][1:] != (d,) or len(set(shapes)) > 1):
            raise ShapeMismatch("mha", x.data.shape, *shapes)
        src = np.array([m.data for m in memories]) if lead else memory.data
    gamma, beta, wq, bq, wk, wv, bv, wo, bo = _operands(
        "mha", x.data.shape, params,
        [(d,), (d,), (d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)], ((drop, d),))
    n, mu, inv = _layernorm_rows(x.data, gamma, beta)
    if not memories:
        src = n
    q = n @ wq
    q += bq
    k = src @ wk
    v = src @ wv
    v += bv
    a, attention_backward = _attention_rows(q, k, v, heads, lengths, key_lengths, mask)
    o = a @ wo
    o += bo
    if drop is not None:
        o *= _float_mask(drop)
    # cross-attention's keys and values read the memory; self-attention's
    # read the layernorm output, which backward rebuilds
    memory_rows = src if memories else None

    def bwd(g):
        go = g if drop is None else g * _float_mask(drop)
        gq, gk, gv = attention_backward(go @ wo.swapaxes(-1, -2))
        gn, gsk, gsv = (gq @ wq.swapaxes(-1, -2), gk @ wk.swapaxes(-1, -2),
                        gv @ wv.swapaxes(-1, -2))
        if not memories:
            gn = gn + gsk + gsv
        y, gx, ggamma, gbeta = _layernorm_grads(gn, x.data, mu, inv, gamma)
        n = _affine(y, gamma, beta)
        src = n if memory_rows is None else memory_rows
        grads = (ggamma, gbeta, n.swapaxes(-1, -2) @ gq, gq.sum(axis=-2),
                 src.swapaxes(-1, -2) @ gk, src.swapaxes(-1, -2) @ gv, gv.sum(axis=-2),
                 a.swapaxes(-1, -2) @ go, go.sum(axis=-2))
        # each memory's flows from k and v, one level after another
        kv = zip(gsk, gsv) if lead else [(gsk, gsv)] if memories else []
        return (g, gx, *grads, *[gm for pair in kv for gm in pair])

    memory_parents = tuple(m for m in memories for _ in "kv")
    return _node(_residual(x.data, o), (x, x, *params, *memory_parents), bwd, "mha")


def _glu(a):
    """Gated linear unit of the array `a` over its last dimension: first
    half x1 times the sigmoid s of the second. Returns x1, s and
    ``backward(g)``; the output is ``x1 * s``, which the caller computes
    and may rebuild from them bit for bit. While a graph is recorded x1 is
    a copy, so a node that keeps it does not keep `a`."""
    width = a.shape[-1]
    if width % 2 != 0:
        raise ShapeMismatch("glu", a.shape)
    half = width // 2
    x1 = a[..., :half].copy() if _grad_enabled() else a[..., :half]
    s = 1.0 / (1.0 + np.exp(-a[..., half:]))

    def backward(g):
        # Added onto zeros, as the unfused graph summed its two zero-padded
        # slice gradients: a -0.0 comes out +0.0 there too.
        ga = np.zeros((*x1.shape[:-1], width))
        ga[..., :half] += g * s
        ga[..., half:] += g * x1 * s * (1.0 - s)
        return ga

    return x1, s, backward


def _depthwise_conv(x, kernel, lengths=None):
    """Per-channel temporal convolution of the array `x` [T, C] with same
    padding; `kernel` [K, C], K odd. Returns the output and
    ``backward(g, x)`` -> (gx, gkernel): the caller hands `x` back, and the
    padded copy is rebuilt from it, so the closure keeps neither.

    With `lengths` the rows are consecutive utterances, each padded on its
    own: a tap that would reach into a neighbour contributes exactly 0.
    """
    if x.ndim != 2 or kernel.ndim != 2 or x.shape[1] != kernel.shape[1] or kernel.shape[0] % 2 == 0:
        raise ShapeMismatch("depthwise-conv1d", x.shape, kernel.shape)
    K = kernel.shape[0]
    lengths = segment_lengths(lengths, x.shape[0], "depthwise-conv1d")
    pad = K // 2
    # Utterance b starts 2*pad*b rows later in the zero-separated layout
    # [pad zeros, utt 0, 2*pad zeros, utt 1, ..., pad zeros]; `rows` picks
    # its outputs back out of the convolution over the whole layout.
    rows = np.arange(x.shape[0]) + np.repeat(2 * pad * np.arange(len(lengths)), lengths)
    T = x.shape[0] + 2 * pad * (len(lengths) - 1)

    def padded(x):
        xp = np.zeros((T + 2 * pad, x.shape[1]))
        xp[rows + pad] = x
        return xp

    xp = padded(x)
    full = np.zeros((T, x.shape[1]))
    for k in range(K):
        full += xp[k : k + T] * kernel[k]

    def backward(g, x):
        xp = padded(x)
        gfull = np.zeros((T, x.shape[1]))
        gfull[rows] = g
        gxp = np.zeros_like(xp)
        for k in range(K):
            gxp[k : k + T] += gfull * kernel[k]
        gk = np.stack([(xp[k : k + T] * gfull).sum(axis=0) for k in range(K)])
        return gxp[rows + pad], gk

    return full[rows], backward


def conv_module(x, gamma, beta, w1, b1, kernel, kernel_bias, gamma2, beta2, w2, b2, drop=None,
                lengths=None):
    """A pre-norm convolution sub-layer with its residual as one node:
    ``x + dropout(linear(swish(layernorm(conv + kernel_bias, gamma2,
    beta2)), w2, b2))``, where conv is the per-channel convolution by
    `kernel` [K, d] of ``glu(linear(layernorm(x, gamma, beta), w1, b1))``,
    each of the packed utterances of `lengths` padded on its own. Every
    channel count is the rows' width d: `w1` is [d, 2d] and `w2` [d, d].
    Dropout is by the ``(keep, scale)`` mask `drop` (``_float_mask``; None:
    the identity).

    Values and gradients equal the bits of the unfused chain of nodes; `x`
    is a parent twice, as ``ffn``'s is.
    """
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeMismatch("conv-module", x.data.shape)
    d, K = x.data.shape[1], kernel.data.shape[0]
    params = (gamma, beta, w1, b1, kernel, kernel_bias, gamma2, beta2, w2, b2)
    gamma, beta, w1, b1, kernel, kernel_bias, gamma2, beta2, w2, b2 = _operands(
        "conv-module", x.data.shape, params,
        [(d,), (d,), (d, 2 * d), (2 * d,), (K, d), (d,), (d,), (d,), (d, d), (d,)], ((drop, d),))
    n, mu, inv = _layernorm_rows(x.data, gamma, beta)
    a = n @ w1
    a += b1
    x1, s1, glu_backward = _glu(a)
    h, conv_backward = _depthwise_conv(x1 * s1, kernel, lengths)
    h += kernel_bias
    n2, mu2, inv2 = _layernorm_rows(h, gamma2, beta2)
    s = 1.0 / (1.0 + np.exp(-n2))
    o = (n2 * s) @ w2
    o += b2
    if drop is not None:
        o *= _float_mask(drop)

    def bwd(g):
        go = g if drop is None else g * _float_mask(drop)
        n2 = _affine(_normalized(h, mu2, inv2), gamma2, beta2)
        gn2 = (go @ w2.T) * s * (1.0 + n2 * (1.0 - s))
        _, gh, ggamma2, gbeta2 = _layernorm_grads(gn2, h, mu2, inv2, gamma2)
        gu, gkernel = conv_backward(gh, x1 * s1)
        ga = glu_backward(gu)
        y, gx, ggamma, gbeta = _layernorm_grads(ga @ w1.T, x.data, mu, inv, gamma)
        return (g, gx, ggamma, gbeta, _affine(y, gamma, beta).T @ ga, ga.sum(axis=0), gkernel,
                gh.sum(axis=0), ggamma2, gbeta2, (n2 * s).T @ go, go.sum(axis=0))

    return _node(_residual(x.data, o), (x, x, *params), bwd, "conv-module")


def power(a, p):
    a = _as_tensor(a)
    p = float(p)
    out = a.data**p
    return _node(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),), "power")


def reduce_sum(a, axis=None):
    """The sum over `axis` (None: every entry)."""
    a = _as_tensor(a)
    out = a.data.sum(axis=axis)

    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _node(out, (a,), bwd, "reduce-sum")


def reduce_mean(a, axis=None):
    """The sum times 1/count as one node, with the bits of ``reduce_sum``
    then ``mul`` by 1/count."""
    a = _as_tensor(a)
    c = 1.0 / (a.data.size if axis is None else a.data.shape[axis])
    out = a.data.sum(axis=axis) * c

    def bwd(g):
        gg = g * c if axis is None else np.expand_dims(g * c, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _node(out, (a,), bwd, "reduce-mean")


def finite_diff_check(f, params, eps=1e-5, max_coords_per_param=None):
    """Compare analytic gradients of ``f(params)`` against central differences.

    ``f`` must be deterministic (eval mode, frozen routing); this is verified
    by evaluating it twice up front. A non-finite value of ``f``, at the
    start or at a perturbed point, raises ValueError: the inputs are
    outside the function's domain. Returns the worst relative error
    ``|analytic - numeric| / (|analytic| + |numeric| + 1e-12)`` over all
    checked coordinates. ``max_coords_per_param`` samples coordinates to keep
    large checks affordable, from one generator seeded 0 and shared by the
    parameters in order.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must be in [1e-7, 1e-3], got {eps}")

    def evaluate():
        out = f(params)
        if out.data.size != 1:
            raise ValueError("finite_diff_check requires a scalar-valued function")
        value = float(out.data)
        if not np.isfinite(value):
            raise ValueError(f"finite_diff_check: f evaluated to non-finite {value!r}")
        return value

    v1, v2 = evaluate(), evaluate()
    if v1 != v2:
        raise NondeterministicFunction(
            f"two evaluations differ: {v1!r} vs {v2!r}; disable dropout and freeze routing"
        )

    for p in params:
        if not p.requires_grad:
            raise ValueError("all checked params must have requires_grad=True")
        p.zero_grad()
    loss = f(params)
    loss.backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    rng = np.random.default_rng(0)
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            coords = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            fp = evaluate()
            flat[i] = orig - eps
            fm = evaluate()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            rel = abs(an_flat[i] - numeric) / (abs(an_flat[i]) + abs(numeric) + 1e-12)
            worst = max(worst, rel)
    return worst
