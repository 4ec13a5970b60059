"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything the models need is built from the primitives here: row-major
contiguous numpy storage, a recorded computation graph, and a topological
backward pass that accumulates gradients into leaves only; intermediate
nodes pass their gradient on and keep none. ``attention`` is one node for
all heads, batched [H, T, d_head] products with their own backward;
``linear``, ``layernorm`` (with its affine) and ``glu`` are one node each;
``matmul`` stays 2-D. A training batch is packed into one graph: its
utterances' frames are stacked as consecutive rows, and the ops whose rows
interact (``unfold_time``, ``depthwise_conv1d``) take the per-utterance
row counts, so no window or tap crosses from one utterance into the next.
64-bit floats throughout so gradient checks and DP oracles are limited by
algorithmic correctness, not precision.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatch",
    "NondeterministicFunction",
    "no_grad",
    "matmul",
    "linear",
    "add",
    "mul",
    "scale",
    "reshape",
    "concat_last",
    "concat_rows",
    "softmax_last",
    "attention",
    "log_softmax_last",
    "layernorm",
    "swish",
    "glu",
    "segment_lengths",
    "depthwise_conv1d",
    "unfold_time",
    "embedding_lookup",
    "gather_last",
    "scatter_rows",
    "dropout",
    "power",
    "reduce_sum",
    "reduce_mean",
    "finite_diff_check",
]

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

    Leaves made with ``requires_grad=True`` (and every ``Parameter``) own a
    ``grad`` buffer. Tensors produced by ops record their parents and a
    backward closure but have ``grad`` None: ``backward()`` on a scalar loss
    walks the graph in reverse topological order, passes gradients through
    them, and accumulates only into leaves. Repeated backward calls without
    a ``zero_grad`` accumulate. A training batch is one graph over the
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``."""
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
        # closures may return views.
        flows = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if node.grad is not None:
                node.grad += g
            if node._backward is None:
                continue
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                acc = flows.get(id(p))
                flows[id(p)] = pg if acc is None else acc + pg


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


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch("matmul", a.data.shape, b.data.shape)
    out = a.data @ b.data

    def bwd(g):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return _node(out, (a, b), bwd, "matmul")


def linear(x, w, b):
    """``(x @ w) + b`` as one node; gradients equal the matmul-then-add pair's."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeMismatch("linear", x.data.shape, w.data.shape, b.data.shape)
    out = x.data @ w.data
    out += b.data

    def bwd(g):
        return (
            g @ w.data.T if x.requires_grad else None,
            x.data.T @ g if w.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _node(out, (x, w, b), bwd, "linear")


def add(a, b):
    """Elementwise sum with numpy broadcasting (used for biases too)."""
    if not isinstance(b, Tensor):
        a = _as_tensor(a)
        out = a.data + float(b)
        return _node(out, (a,), lambda g: (g,), "add")
    a = _as_tensor(a)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeMismatch("add", a.data.shape, b.data.shape) from None

    def bwd(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), bwd, "add")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeMismatch("mul", a.data.shape, b.data.shape) from None

    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), bwd, "mul")


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)
    return _node(a.data * c, (a,), lambda g: (g * c,), "scale")


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


def concat_rows(tensors):
    """Concatenate 2-D tensors along the first (frame) dimension."""
    tensors = [_as_tensor(t) for t in tensors]
    width = tensors[0].data.shape[-1]
    for t in tensors:
        if t.data.ndim != 2 or t.data.shape[-1] != width:
            raise ShapeMismatch("concat-rows", *[t.data.shape for t in tensors])
    out = np.concatenate([t.data for t in tensors], axis=0)
    heights = [t.data.shape[0] for t in tensors]

    def bwd(g):
        grads, off = [], 0
        for t, h in zip(tensors, heights):
            grads.append(g[off : off + h] if t.requires_grad else None)
            off += h
        return grads

    return _node(out, tuple(tensors), bwd, "concat-rows")


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


def attention(q, k, v, heads, mask=None):
    """Scaled dot-product attention of q [Tq, d] over k [Tk, d] and v [Tk, dv],
    all heads in one node; head h owns the h-th of `heads` equal column blocks.

    `mask` [Tq, Tk] is true where a query may not look. Those weights, and
    their gradients, are exactly zero while each row keeps one visible key.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    shapes = [t.data.shape for t in (q, k, v)] + ([] if mask is None else [np.shape(mask)])
    if any(t.data.ndim != 2 for t in (q, k, v)):
        raise ShapeMismatch("attention", *shapes)
    (tq, d), (tk, dv) = q.data.shape, v.data.shape
    if shapes[1] != (tk, d) or d % heads or dv % heads or shapes[3:] not in ([], [(tq, tk)]):
        raise ShapeMismatch("attention", *shapes)
    c = 1.0 / np.sqrt(d // heads)
    qh = q.data.reshape(tq, heads, -1).transpose(1, 0, 2)
    vh = v.data.reshape(tk, heads, -1).transpose(1, 0, 2)
    # Keys as contiguous [H, d_head, Tk]: the BLAS layout of a per-head
    # q @ k.T, so values and gradients match that form bit for bit.
    kt = np.ascontiguousarray(k.data.reshape(tk, heads, -1).transpose(1, 2, 0))
    # Softmax in place on the score buffer; fresh arrays cost as much as the products.
    p = qh @ kt
    p *= c
    if mask is not None:
        np.copyto(p, -1e30, where=np.asarray(mask, dtype=bool))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ vh).transpose(1, 0, 2).reshape(tq, dv)

    def bwd(g):
        gh = g.reshape(tq, heads, -1).transpose(1, 0, 2)
        gp = gh @ vh.transpose(0, 2, 1)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        gs *= c
        return (
            (gs @ kt.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(tq, d),
            (gs.transpose(0, 2, 1) @ qh).transpose(1, 0, 2).reshape(tk, d),
            (p.transpose(0, 2, 1) @ gh).transpose(1, 0, 2).reshape(tk, dv),
        )

    return _node(out, (q, k, v), bwd, "attention")


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


def layernorm(a, gamma, beta, eps=1e-5):
    """Normalize the last dimension to zero mean, unit variance, then apply
    the affine ``(y * gamma) + beta``, all in one node.

    A zero-variance row normalizes to all zero (so comes out as ``beta``):
    the variance is floored by eps, which keeps padded or constant frames
    finite.
    """
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    x = a.data
    if gamma.data.shape != x.shape[-1:] or beta.data.shape != x.shape[-1:]:
        raise ShapeMismatch("layernorm", x.shape, gamma.data.shape, beta.data.shape)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = y * gamma.data
    out += beta.data

    def bwd(g):
        ga = None
        if a.requires_grad:
            gn = g * gamma.data
            gm = gn.mean(axis=-1, keepdims=True)
            gy = (gn * y).mean(axis=-1, keepdims=True)
            ga = inv * (gn - gm - y * gy)
        return (
            ga,
            _unbroadcast(g * y, gamma.data.shape) if gamma.requires_grad else None,
            _unbroadcast(g, beta.data.shape) if beta.requires_grad else None,
        )

    return _node(out, (a, gamma, beta), bwd, "layernorm")


def swish(a):
    a = _as_tensor(a)
    x = a.data
    s = 1.0 / (1.0 + np.exp(-x))
    return _node(x * s, (a,), lambda g: (g * s * (1.0 + x * (1.0 - s)),), "swish")


def glu(a):
    """Gated linear unit over the last dimension: first half times sigmoid of second."""
    a = _as_tensor(a)
    width = a.data.shape[-1]
    if width % 2 != 0:
        raise ShapeMismatch("glu", a.data.shape)
    half = width // 2
    x1, x2 = a.data[..., :half], a.data[..., half:]
    s = 1.0 / (1.0 + np.exp(-x2))

    def bwd(g):
        # Added onto zeros, as the unfused graph summed its two zero-padded
        # slice gradients: a -0.0 comes out +0.0 there too.
        ga = np.zeros_like(a.data)
        ga[..., :half] += g * s
        ga[..., half:] += g * x1 * s * (1.0 - s)
        return (ga,)

    return _node(x1 * s, (a,), bwd, "glu")


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


def depthwise_conv1d(x, kernel, lengths=None):
    """Per-channel temporal convolution with same padding; kernel shape [K, C], K odd.

    With `lengths` the rows are consecutive utterances, each padded on its
    own: a tap that would reach into a neighbour contributes exactly 0.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != 2 or kernel.data.ndim != 2 or x.data.shape[1] != kernel.data.shape[1]:
        raise ShapeMismatch("depthwise-conv1d", x.data.shape, kernel.data.shape)
    K = kernel.data.shape[0]
    if K % 2 == 0:
        raise ShapeMismatch("depthwise-conv1d", kernel.data.shape)
    lengths = segment_lengths(lengths, x.data.shape[0], "depthwise-conv1d")
    pad = K // 2
    # Utterance b starts 2*pad*b rows later in the zero-separated layout
    # [pad zeros, utt 0, 2*pad zeros, utt 1, ..., pad zeros]; `rows` picks
    # its outputs back out of the convolution over the whole layout.
    rows = np.arange(x.data.shape[0]) + np.repeat(2 * pad * np.arange(len(lengths)), lengths)
    T = x.data.shape[0] + 2 * pad * (len(lengths) - 1)
    xp = np.zeros((T + 2 * pad, x.data.shape[1]))
    xp[rows + pad] = x.data
    full = np.zeros((T, x.data.shape[1]))
    for k in range(K):
        full += xp[k : k + T] * kernel.data[k]
    out = full[rows]

    def bwd(g):
        gx = gk = None
        gfull = np.zeros_like(full)
        gfull[rows] = g
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for k in range(K):
                gxp[k : k + T] += gfull * kernel.data[k]
            gx = gxp[rows + pad]
        if kernel.requires_grad:
            gk = np.stack([(xp[k : k + T] * gfull).sum(axis=0) for k in range(K)])
        return (gx, gk)

    return _node(out, (x, kernel), bwd, "depthwise-conv1d")


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
    starts = np.concatenate([
        o + stride * np.arange((n - kernel) // stride + 1)
        for o, n in zip(np.cumsum([0] + lengths[:-1]), lengths)
    ])
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
    """Gather rows of `table` by integer index; duplicate ids accumulate grads."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or table.data.ndim != 2:
        raise ShapeMismatch("embedding-lookup", table.data.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding-lookup: id out of range [0, {table.data.shape[0]}): "
            f"{int(ids.min())}..{int(ids.max())}"
        )
    out = table.data[ids].copy()

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _node(out, (table,), bwd, "embedding-lookup")


def gather_last(a, ids):
    """Pick one entry per row: out[i] = a[i, ids[i]]."""
    a = _as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    n = a.data.shape[0]
    if a.data.ndim != 2 or ids.shape != (n,):
        raise ShapeMismatch("gather-last", a.data.shape, ids.shape)
    rows = np.arange(n)
    out = a.data[rows, ids].copy()

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, ids), g)
        return (ga,)

    return _node(out, (a,), bwd, "gather-last")


def scatter_rows(values, ids, length):
    """Place rows of `values` at positions `ids` of a zero [length, C] output.

    ids must be unique; the MoE dispatch uses this to reassemble per-expert
    outputs into frame order.
    """
    values = _as_tensor(values)
    ids = np.asarray(ids, dtype=np.int64)
    if values.data.ndim != 2 or ids.shape != (values.data.shape[0],):
        raise ShapeMismatch("scatter-rows", values.data.shape, ids.shape)
    out = np.zeros((length, values.data.shape[1]), dtype=np.float64)
    out[ids] = values.data

    return _node(out, (values,), lambda g: (g[ids],), "scatter-rows")


def dropout(a, p, rng, training):
    """Inverted dropout; the identity (same tensor) in eval mode or at p=0."""
    if not training or p <= 0.0:
        return a
    a = _as_tensor(a)
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return _node(a.data * mask, (a,), lambda g: (g * mask,), "dropout")


def power(a, p):
    a = _as_tensor(a)
    p = float(p)
    out = a.data**p
    return _node(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),), "power")


def reduce_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _node(out, (a,), bwd, "reduce-sum")


def reduce_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def finite_diff_check(f, params, eps=1e-5, max_coords_per_param=None, rng=None):
    """Compare analytic gradients of ``f(params)`` against central differences.

    ``f`` must be deterministic (eval mode, frozen routing); this is verified
    by evaluating it twice up front. A non-finite value of ``f``, at the
    start or at a perturbed point, raises ValueError: the inputs are
    outside the function's domain. Returns the worst relative error
    ``|analytic - numeric| / (|analytic| + |numeric| + 1e-12)`` over all
    checked coordinates. ``max_coords_per_param`` samples coordinates to keep
    large checks affordable.
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
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            rng = rng or np.random.default_rng(0)
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
