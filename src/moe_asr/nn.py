"""Layer library on top of the autodiff core.

Modules form a named tree; every parameter and dropout draws its random
stream from (seed, crc32 of its full dotted name). Initialization is
therefore a pure function of seed and name: adding or removing unrelated
modules never shifts another parameter's initial values, which is what lets
a single-expert routed model reproduce a dense model's trajectory exactly.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from . import tensor as T
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

    ``data`` and ``grad`` are allocated as zeros on first access, so a module
    tree built only to read its names and shapes (``parameter_manifest``)
    costs no memory however many parameters it declares.
    """

    __slots__ = ("init_fn", "_shape")

    def __init__(self, shape, init_fn):
        self.requires_grad = True
        self._parents = ()
        self._backward = None
        self._shape = tuple(shape)
        self.init_fn = init_fn

    def __getattr__(self, name):
        # Reached only while the ``data`` or ``grad`` slot is still empty.
        if name not in ("data", "grad"):
            raise AttributeError(name)
        value = np.zeros(self._shape)
        setattr(self, name, value)
        return value

    @property
    def shape(self):
        return self._shape


def _name_stream(seed, name, lane):
    """Independent generator per (seed, dotted name); lane separates uses."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8")), int(lane)])
    )


class Module:
    """Base class: children discovered from attribute order, names dotted."""

    def __init__(self):
        self.training = True

    def named_parameters(self, prefix=""):
        out = {}
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Tensor) and value.requires_grad:
                out[name] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(name))
            elif isinstance(value, list) and value and all(isinstance(v, Module) for v in value):
                for i, child in enumerate(value):
                    out.update(child.named_parameters(f"{name}.{i}"))
        return out

    def named_modules(self, prefix=""):
        out = {prefix: self} if prefix else {"": self}
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Module):
                out.update(value.named_modules(name))
            elif isinstance(value, list) and value and all(isinstance(v, Module) for v in value):
                for i, child in enumerate(value):
                    out.update(child.named_modules(f"{name}.{i}"))
        return out

    def train(self, mode=True):
        for module in self.named_modules().values():
            module.training = mode
        return self

    def eval(self):
        return self.train(False)

    def initialize(self, seed):
        """Fill every parameter from its (seed, name) stream; seed dropouts."""
        for name, param in self.named_parameters().items():
            if isinstance(param, Parameter):
                param.data[...] = param.init_fn(_name_stream(seed, name, 0), param.data.shape)
            param.zero_grad()
        self.seed_dropout(seed)
        return self

    def seed_dropout(self, seed):
        for name, module in self.named_modules().items():
            if isinstance(module, Dropout):
                module.rng = _name_stream(seed, name, 1)
        return self

    def zero_grad(self):
        for param in self.named_parameters().values():
            param.zero_grad()

    def parameter_count(self):
        return sum(math.prod(p.shape) for p in self.named_parameters().values())


class Linear(Module):
    """``x @ weight + bias``: one ``T.linear`` node, or one ``T.matmul``
    without a bias."""

    def __init__(self, d_in, d_out, bias=True):
        super().__init__()
        self.weight = Parameter((d_in, d_out), uniform_init(d_in))
        self.bias = Parameter((d_out,), uniform_init(d_in)) if bias else None

    def forward(self, x):
        if self.bias is None:
            return T.matmul(x, self.weight)
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
        if not self.training or self.p <= 0.0:
            return x
        if self.rng is None:
            raise RuntimeError("dropout used in training mode before seeding")
        return T.dropout(x, self.p, self.rng, training=True)


class FeedForward(Module):
    """Pre-norm position-wise FFN: LN, expand, swish, project back."""

    def __init__(self, d, d_ff, dropout=0.0):
        super().__init__()
        self.norm = LayerNorm(d)
        self.w1 = Linear(d, d_ff)
        self.w2 = Linear(d_ff, d)
        self.dropout1 = Dropout(dropout)
        self.dropout2 = Dropout(dropout)

    def forward(self, x):
        h = self.dropout1.forward(T.swish(self.w1.forward(self.norm.forward(x))))
        return self.dropout2.forward(self.w2.forward(h))


class MultiHeadAttention(Module):
    """Scaled dot-product attention over H heads; [T x d] in, [T x d] out.
    The projections feed one ``T.attention`` node for all heads."""

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

    def forward(self, query, memory, mask=None):
        q = self.wq.forward(query)
        k = self.wk.forward(memory)
        v = self.wv.forward(memory)
        return self.wo.forward(T.attention(q, k, v, self.heads, mask))


def causal_mask(n):
    """True above the diagonal: position t may not see positions > t."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def block_mask(lengths, key_lengths=None, causal=False):
    """Attention mask over packed rows: true where a query row of one
    utterance would see a key row of another, or, with `causal`, a later
    row. Query utterance i owns lengths[i] rows, key utterance i owns
    key_lengths[i] (default: the same rows, for self-attention).

    None when nothing is masked (one utterance, not causal), so a single
    utterance runs unmasked attention.
    """
    if len(lengths) == 1:
        return causal_mask(lengths[0]) if causal else None
    key_lengths = lengths if key_lengths is None else key_lengths
    q = np.repeat(np.arange(len(lengths)), lengths)
    k = np.repeat(np.arange(len(key_lengths)), key_lengths)
    mask = q[:, None] != k[None, :]
    if causal:
        mask |= causal_mask(q.shape[0])
    return mask


class SelfAttention(Module):
    """Pre-norm self-attention sub-module used by encoder blocks."""

    def __init__(self, d, heads, dropout=0.0):
        super().__init__()
        self.norm = LayerNorm(d)
        self.mha = MultiHeadAttention(d, heads)
        self.dropout = Dropout(dropout)

    def forward(self, x, mask=None):
        h = self.norm.forward(x)
        return self.dropout.forward(self.mha.forward(h, h, mask))


class ConvModule(Module):
    """Pre-norm convolution sub-module: pointwise expand, GLU gate,
    same-padded depthwise conv, norm, swish, pointwise project."""

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
        h = T.glu(self.pw1.forward(self.norm.forward(x)))
        h = T.add(T.depthwise_conv1d(h, self.dw_kernel, lengths), self.dw_bias)
        h = T.swish(self.norm2.forward(h))
        return self.dropout.forward(self.pw2.forward(h))


def sinusoidal_positions(length, d):
    """Absolute sine/cosine position table, [length x d], graph constant."""
    pos = np.arange(length)[:, None]
    dim = np.arange(0, d, 2)[None, :]
    angle = pos / np.power(10000.0, dim / d)
    table = np.zeros((length, d))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : d // 2])
    return table


def segment_positions(lengths, d):
    """Position rows for packed utterances: each counts from 0 again, so
    utterance i gets the first lengths[i] rows of the sinusoidal table."""
    total = sum(lengths)
    starts = np.repeat(np.cumsum([0] + list(lengths[:-1])), lengths)
    return sinusoidal_positions(max(lengths), d)[np.arange(total) - starts]
