"""Layer library on top of the autodiff core.

Modules form a named tree; every parameter and dropout draws its random
stream from (seed, crc32 of its full dotted name): ``features.utterance_rng``,
the package's one stream function. Initialization is
therefore a pure function of seed and name: adding or removing unrelated
modules never shifts another parameter's initial values, which is what lets
a single-expert routed model reproduce a dense model's trajectory exactly.

The sub-layers (``FeedForward``, ``MultiHeadAttention`` for self- and
cross-attention, ``ConvModule``) each run as one fused ``tensor`` node that
returns the residual stream plus the sub-layer's output. Their
``LayerNorm``, ``Linear`` and ``Dropout`` children only hold the parameters
and dropout generators under their usual names; each ``Dropout`` draws its
mask from its own stream before the node runs, as a bool keep array and a
scale, which the node keeps instead of a float mask. A ``Dropout`` used on
its own (after the position table) applies its mask as one ``T.mul``.
A sub-layer's node is called from one place, its module's ``forward``,
so its operand order is known only there and in ``tensor``;
``stacked_parameters`` makes a level or expert stack one tensor of views
of the arena, and ``joined_mask`` joins its members' masks into one with
their one scale.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import threading

import numpy as np

from . import tensor as T
from .features import utterance_rng
from .tensor import Tensor


def uniform_init(fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return lambda rng, shape: rng.uniform(-bound, bound, size=shape)


def normal_init(std):
    return lambda rng, shape: rng.normal(0.0, std, size=shape)


def zeros_init():
    return lambda rng, shape: np.zeros(shape)


def ones_init():
    return lambda rng, shape: np.ones(shape)


class Parameter(Tensor):
    """A trainable tensor carrying its own initialization distribution.

    A new parameter has a shape and no storage, so a module tree built only
    to read its shapes (``model.parameter_total`` counts them) costs no
    memory however many parameters it declares. Its ``data`` and ``grad``
    come from an ``Arena``: views into the arena's two flat buffers, bound
    once and only ever written in place.
    """

    __slots__ = ("init_fn", "_shape")

    def __init__(self, shape, init_fn):
        self.requires_grad = True
        self._parents = ()
        self._backward = None
        self._shape = tuple(shape)
        self.init_fn = init_fn

    @property
    def shape(self):
        return self._shape


CHUNK = 32768  # elements per in-place pass over a buffer; small enough to stay in cache
SPAN_CHUNKS = 4  # fewest chunks worth a span, and a thread, of their own


def _cores():
    """The ids of the cores the calling thread may run on, in order (on a
    platform without affinity calls, one stand-in id per core)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


def _usable_cores():
    """The number of cores this process may run on."""
    return len(_cores())


def _pin(cores):
    """Let the calling thread run on `cores` alone, where the platform can
    say so. A kernel that does not balance load (a cpuset with
    ``sched_load_balance`` 0) never moves a thread off the core it started
    on, so an unpinned worker shares its creator's core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cores)


@contextlib.contextmanager
def _pinned(cores):
    """Run the block with the calling thread on `cores` alone, then give the
    thread back its own mask, also when the block raises."""
    mask = _cores()
    _pin(cores)
    try:
        yield
    finally:
        _pin(mask)


def _spans(size, parts):
    """At most `parts` contiguous ``(start, stop)`` spans that cover
    ``range(size)`` once, in order, each starting on a ``CHUNK`` boundary
    and each at least ``SPAN_CHUNKS`` whole chunks long (a shorter buffer is
    one span). The whole chunks are shared out as evenly as they go, and the
    last span takes the remainder."""
    chunks = size // CHUNK
    parts = max(1, min(parts, chunks // SPAN_CHUNKS))
    bounds = [chunks * i // parts * CHUNK for i in range(parts)] + [size]
    return list(zip(bounds[:-1], bounds[1:]))


_pool = None
_pool_lock = threading.Lock()


def _workers():
    """The one process-wide pool of (usable cores - 1) threads for arena
    spans, made at first need; None on one core. Each worker pins itself
    (``_pin``) to its own usable core after the first when it starts, and
    stays there; the first is left for the calling thread
    (``Arena.each_span``). (Imported here: a process that never splits a
    pass, say one that only decodes, does not load ``concurrent.futures``
    and the ``logging`` it brings.)"""
    global _pool
    with _pool_lock:
        if _pool is None and _usable_cores() > 1:
            from concurrent.futures import ThreadPoolExecutor

            others = _cores()[1:]
            cores = iter(others)  # one next() per worker; a list iterator's is atomic
            _pool = ThreadPoolExecutor(len(others), thread_name_prefix="arena",
                                       initializer=lambda: _pin([next(cores)]))
        return _pool


class Arena:
    """One flat float64 ``data`` buffer and one flat ``grad`` buffer for an
    ordered set of parameters, and the one place their layout is decided.

    Each parameter's ``data`` and ``grad`` are views at its element offset
    (``offsets``), back to back in the order given (``named_parameters()``
    order for a module tree). ``data`` is a checkpoint's body. The buffers
    are cut into one contiguous span per usable core (``spans``, from
    ``_spans``), and the passes that write every element (``zero_grad``'s
    fill, the clip's scale, Adam's update) run span by span on the process's
    threads (``each_span``); each is elementwise, so its bits do not depend
    on the span count. Each thread runs on a core of its own (``_workers``,
    ``each_span``): where the kernel does not balance load, two unpinned
    threads share one core and the split gains nothing. Both buffers start
    as zeros on pages mapped for them alone (``_mapped_zeros``): ``data`` is
    written whole at once (initialized or read from a file), and ``grad``
    takes memory only once written, so a model that only decodes holds one
    buffer and starts no thread. A parameter can join only one arena.
    Modules of one shape declared back to back (a layer's experts; the main
    decoder, then the auxiliary ones) lie at a uniform stride, so each of
    their parameters stacks as views (``stacked_parameters``).
    """

    def __init__(self, params):
        self.params = dict(params)
        sizes = [math.prod(p.shape) for p in self.params.values()]
        self.offsets = dict(zip(self.params, np.cumsum([0, *sizes]).tolist()))
        self.data = _mapped_zeros(sum(sizes), populate=True)
        self.grad = _mapped_zeros(sum(sizes), populate=False)
        self.spans = _spans(self.data.size, _usable_cores())
        for (name, p), size in zip(self.params.items(), sizes):
            if not isinstance(p, Parameter) or hasattr(p, "data"):
                raise ValueError(f"{name} is not a parameter without storage")
            start = self.offsets[name]
            p.data = self.data[start : start + size].reshape(p.shape)
            p.grad = self.grad[start : start + size].reshape(p.shape)

    def layout(self, prefix=""):
        """``(name, shape, offset)`` of each parameter under ``prefix`` (say a subtree's
        ``"embedding_net."``), prefix stripped and offsets relative, and that span of ``data``."""
        names = [name for name in self.params if name.startswith(prefix)]
        start = self.offsets[names[0]] if names else 0
        entries = [(n[len(prefix) :], self.params[n].shape, self.offsets[n] - start) for n in names]
        size = sum(math.prod(shape) for _, shape, _ in entries)
        if entries and entries[-1][2] + math.prod(entries[-1][1]) != size:
            raise ValueError(f"parameters under {prefix!r} do not form one span")
        return entries, self.data[start : start + size]

    def each_span(self, fn):
        """Call ``fn(i, span)`` for each of ``spans``, span i as a slice of
        the flat buffers: the process's worker threads (``_workers``), each
        pinned to a usable core after the first, take all but the last, and
        the calling thread takes the last, pinned to the first usable core
        for the length of the pass; its own mask comes back afterwards, also
        when a span raises. Returns once every call has, then raises the
        calling thread's error, else the first worker's. An arena of one
        span, or a process on one core, runs every call on the calling
        thread and pins nothing."""
        jobs = [(i, slice(*span)) for i, span in enumerate(self.spans)]
        pool = _workers() if len(jobs) > 1 else None
        if pool is None:
            for job in jobs:
                fn(*job)
            return
        with _pinned(_cores()[:1]):
            futures = [pool.submit(fn, *job) for job in jobs[:-1]]
            try:
                fn(*jobs[-1])
            finally:
                for future in futures:
                    future.exception()  # waits: no span runs on once the pass is left
        for future in futures:
            future.result()


def _mapped_zeros(n, populate):
    """n float64 zeros on anonymous pages of their own, outside the heap, so
    a model's buffers leave no freed heap pages resident when it goes. The
    kernel zeroes each page when it is first written, or all at once with
    ``populate`` (cheaper than a fault per page, for a buffer to be written
    whole); a buffer nothing writes takes no memory."""
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | (mmap.MAP_POPULATE if populate else 0)
    return np.frombuffer(mmap.mmap(-1, max(n, 1) * 8, flags=flags), np.float64, n)


def stacked_parameters(params):
    """One leaf for K parameters of one shape at a uniform element stride of
    one arena: its ``data`` and ``grad`` are [K, ...] views of the arena's
    buffers, slice k parameter k's, so the engine adds the leaf's gradient
    into the parameters' ``grad``. Nothing is copied; build it once and
    keep it. ValueError for unequal shapes, a stride that is not uniform
    (or overlaps), parameters of more than one arena, or one without
    storage."""
    params = list(params)
    if not params or not all(hasattr(p, "data") for p in params):
        raise ValueError("a stack needs parameters that have storage")
    first = params[0]
    if any(p.shape != first.shape for p in params):
        raise ValueError(f"parameters of unequal shapes: {sorted({p.shape for p in params})}")
    if any(p.data.base is not first.data.base or p.grad.base is not first.grad.base
           for p in params):
        raise ValueError("parameters of more than one arena")
    k = len(params)
    starts = [[getattr(p, kind).ctypes.data for p in params] for kind in ("data", "grad")]
    step = (starts[0][-1] - starts[0][0]) // (k - 1) if k > 1 else first.data.nbytes
    if step < first.data.nbytes or any(s != list(range(s[0], s[0] + k * step, step))
                                       for s in starts):
        raise ValueError("parameters not at a uniform stride of their arena")
    data, grad = (np.lib.stride_tricks.as_strided(a, (k, *a.shape), (step, *a.strides))
                  for a in (first.data, first.grad))
    leaf = Tensor(data)
    leaf.requires_grad, leaf.grad = True, grad
    return leaf


class Module:
    """Base class: children discovered from attribute order, names dotted."""

    def __init__(self):
        self.training = True
        # Set on the root of an allocated tree; subtrees share its buffers.
        self.arena = None

    def _walk(self, prefix, modules, params):
        """Add this subtree's modules and trainable tensors, keyed by dotted
        name in attribute order, to `modules` and `params`; either may be
        None to skip it. One dict is filled down the whole recursion."""
        if modules is not None:
            modules[prefix] = self
        dot = f"{prefix}." if prefix else ""
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                value._walk(dot + attr, modules, params)
            elif isinstance(value, Tensor):
                if params is not None and value.requires_grad:
                    params[dot + attr] = value
            elif isinstance(value, list) and value and all(isinstance(v, Module) for v in value):
                for i, child in enumerate(value):
                    child._walk(f"{dot}{attr}.{i}", modules, params)

    def named_parameters(self):
        out = {}
        self._walk("", None, out)
        return out

    def named_modules(self):
        out = {}
        self._walk("", out, None)
        return out

    def train(self, mode=True):
        for module in self.named_modules().values():
            module.training = mode
        return self

    def eval(self):
        return self.train(False)

    def allocate(self):
        """Give the tree its ``Arena`` (zeros) unless it has one already."""
        if self.arena is None:
            self.arena = Arena(self.named_parameters())
        return self

    def initialize(self, seed):
        """Fill every parameter from its (seed, name) stream; seed dropouts.

        The first call allocates the tree's ``Arena`` (``allocate``): one
        flat ``data`` and one flat ``grad`` buffer, zeros, whose views the
        parameters become. Values are written into those views in place.
        """
        for name, param in self.allocate().arena.params.items():
            param.data[...] = param.init_fn(utterance_rng(seed, name, 0), param.shape)
        self.seed_dropout(seed)
        return self

    def seed_dropout(self, seed):
        for name, module in self.named_modules().items():
            if isinstance(module, Dropout):
                module.rng = utterance_rng(seed, name, 1)
        return self

    def zero_grad(self):
        """Zero every gradient: the arena's flat ``grad`` buffer filled span
        by span (``Arena.each_span``)."""
        grad = self.arena.grad
        self.arena.each_span(lambda _, span: grad[span].fill(0.0))

    def parameter_count(self):
        return sum(math.prod(p.shape) for p in self.named_parameters().values())


class Linear(Module):
    """``x @ weight + bias``, one ``T.linear`` node; ``x @ weight`` without a
    bias (the router; the attention key projection holds its weight for ``T.mha``)."""

    def __init__(self, d_in, d_out, bias=True):
        super().__init__()
        self.weight = Parameter((d_in, d_out), uniform_init(d_in))
        self.bias = Parameter((d_out,), uniform_init(d_in)) if bias else None

    def forward(self, x):
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Last-dim normalization with learned gain and shift, one
    ``T.layernorm`` node."""

    def __init__(self, d):
        super().__init__()
        self.gamma = Parameter((d,), ones_init())
        self.beta = Parameter((d,), zeros_init())

    def forward(self, x):
        return T.layernorm(x, self.gamma, self.beta)


class Dropout(Module):
    """Inverted dropout with a persistent per-name generator.

    The generator must be seeded (Module.initialize or seed_dropout) before
    the first training-mode forward; eval mode never touches it.
    """

    def __init__(self, p):
        super().__init__()
        self.p = float(p)
        self.rng = None

    def forward(self, x):
        """`x` times its mask as one ``T.mul`` node; `x` itself when off."""
        mask = self.mask(x.data.shape)
        return x if mask is None else T.mul(x, Tensor(T._float_mask(mask)))

    def mask(self, shape):
        """The inverted-dropout mask for an input of `shape`, drawn from
        this module's generator, as the pair a fused node keeps: a bool
        array, true where kept, and the scale 1/(1-p). ``keep * scale`` is
        the float mask, 0 where dropped and 1/(1-p) where kept. None in
        eval mode or at p=0."""
        if not self.training or self.p <= 0.0:
            return None
        if self.rng is None:
            raise RuntimeError("dropout used in training mode before seeding")
        return self.rng.random(shape) >= self.p, 1.0 / (1.0 - self.p)


def joined_mask(members, join):
    """One ``(keep, scale)`` mask for the members of a stack, each a
    ``(Dropout, shape)`` pair that draws its mask for rows of that shape;
    `join` joins the keep arrays (``np.array`` for a level stack,
    ``np.concatenate`` for rows in dispatch order). None when no member
    draws one. ValueError when the members differ in rate or in train/eval
    mode: the mask has one scale, and a member that draws none has no keep
    array."""
    modes = {(d.training, d.p) for d, _ in members}
    if len(modes) > 1:
        raise ValueError(f"stack members differ in dropout (train mode, rate): {sorted(modes)}")
    masks = [d.mask(shape) for d, shape in members]
    return None if masks[0] is None else (join([keep for keep, _ in masks]), masks[0][1])


class FeedForward(Module):
    """Pre-norm position-wise FFN with its residual: ``x + c * f(x)``, f
    being LN, expand, swish, project back, all one ``T.ffn`` node.
    ``LayerNorm``, ``Linear`` and ``Dropout`` hold the parameters and
    dropout generators under their usual names."""

    def __init__(self, d, d_ff, dropout=0.0):
        super().__init__()
        self.norm = LayerNorm(d)
        self.w1 = Linear(d, d_ff)
        self.w2 = Linear(d_ff, d)
        self.dropout1 = Dropout(dropout)
        self.dropout2 = Dropout(dropout)

    def forward(self, x, c=1.0):
        """`c`: the residual factor, 0.5 for a macaron half step. The rows
        are axis -2 of `x`, so a decoders' level stand-in runs it on [L, n,
        d] rows, each dropout drawing the levels' masks."""
        rows, (d, d_ff) = x.data.shape[-2], self.w1.weight.shape[-2:]
        return T.ffn(x, c, *self.op_parameters(),
                     self.dropout1.mask((rows, d_ff)), self.dropout2.mask((rows, d)))

    def op_parameters(self):
        """The six parameters in ``T.ffn``'s operand order."""
        return (self.norm.gamma, self.norm.beta, self.w1.weight, self.w1.bias,
                self.w2.weight, self.w2.bias)


class MultiHeadAttention(Module):
    """Scaled dot-product attention over H heads with its projections;
    [T x d] in, [T x d] out. Its pre-norm sub-layer, residual and dropout
    included, runs as one ``T.mha`` node."""

    def __init__(self, d, heads):
        super().__init__()
        if d % heads != 0:
            raise ValueError(f"model width {d} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(d, d)
        # No key bias: scores shift uniformly across keys and softmax ignores
        # the shift, so a key bias would be permanently gradient-dead.
        self.wk = Linear(d, d, bias=False)
        self.wv = Linear(d, d)
        self.wo = Linear(d, d)

    def forward(self, x, memory, norm, dropout, **segments):
        """``x + dropout(attention)`` with queries from ``norm(x)``, and keys
        and values from ``norm(x)`` (self-attention, `memory` None) or from
        `memory` (cross-attention; with levels, one encoder output per
        level). `norm` and `dropout` are the caller's ``LayerNorm`` and
        ``Dropout``; `segments` are ``T.mha``'s lengths, key_lengths and
        mask."""
        return T.mha(x, memory, self.heads, norm.gamma, norm.beta, self.wq.weight,
                     self.wq.bias, self.wk.weight, self.wv.weight, self.wv.bias,
                     self.wo.weight, self.wo.bias, dropout.mask(x.data.shape), **segments)


class SelfAttention(Module):
    """Pre-norm self-attention sub-layer of encoder blocks, residual
    included."""

    def __init__(self, d, heads, dropout=0.0):
        super().__init__()
        self.norm = LayerNorm(d)
        self.mha = MultiHeadAttention(d, heads)
        self.dropout = Dropout(dropout)

    def forward(self, x, lengths=None):
        """`lengths`: rows per utterance of a packed batch (None: one)."""
        return self.mha.forward(x, None, self.norm, self.dropout, lengths=lengths)


class ConvModule(Module):
    """Pre-norm convolution sub-layer, residual included: pointwise expand,
    GLU gate, same-padded depthwise conv, norm, swish, pointwise project,
    all one ``T.conv_module`` node."""

    def __init__(self, d, kernel, dropout=0.0):
        super().__init__()
        if kernel % 2 == 0:
            raise ValueError(f"depthwise kernel must be odd, got {kernel}")
        self.norm = LayerNorm(d)
        self.pw1 = Linear(d, 2 * d)
        self.dw_kernel = Parameter((kernel, d), uniform_init(kernel))
        self.dw_bias = Parameter((d,), uniform_init(kernel))
        self.norm2 = LayerNorm(d)
        self.pw2 = Linear(d, d)
        self.dropout = Dropout(dropout)

    def forward(self, x, lengths=None):
        """`lengths`: rows per utterance of a packed batch (None: one)."""
        return T.conv_module(x, self.norm.gamma, self.norm.beta, self.pw1.weight, self.pw1.bias,
                             self.dw_kernel, self.dw_bias, self.norm2.gamma, self.norm2.beta,
                             self.pw2.weight, self.pw2.bias, self.dropout.mask(x.data.shape),
                             lengths)


_POSITION_TABLES = {}


def sinusoidal_positions(length, d):
    """Absolute sine/cosine position table, [length x d], graph constant.

    A read-only view of one cached table per width, grown on demand: a row
    does not depend on the table's length, so every slice keeps its bits.
    """
    table = _POSITION_TABLES.get(d)
    if table is None or table.shape[0] < length:
        rows = max(length, 2 * table.shape[0] if table is not None else 0)
        pos = np.arange(rows)[:, None]
        dim = np.arange(0, d, 2)[None, :]
        angle = pos / np.power(10000.0, dim / d)
        table = np.zeros((rows, d))
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle[:, : d // 2])
        table.flags.writeable = False
        _POSITION_TABLES[d] = table
    return table[:length]
