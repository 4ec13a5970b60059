"""The attention and convolution sub-layer nodes (``T.mha``,
``T.conv_module``) against the unfused chain in plain numpy, bit for bit,
``T.mha`` also on a level stack (each level against the chain on its
own); the modules that call them; and the number of nodes a Conformer
block and a decoder block record."""

import copy

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.decoder import DecoderBlock
from moe_asr.encoder import ConformerBlock
from moe_asr.nn import ConvModule, SelfAttention
from moe_asr.tensor import Tensor

# ---------------------------------------------------------------------------
# the unfused chains in plain numpy
# ---------------------------------------------------------------------------


def _layernorm(x, gamma, beta, eps=1e-5):
    """An affine layernorm node: its output and ``backward(g)`` -> (gx,
    ggamma, gbeta)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    y = xc * inv

    def backward(g):
        gy = g * gamma
        gx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                    - y * (gy * y).mean(axis=-1, keepdims=True))
        return gx, (g * y).sum(axis=0), g.sum(axis=0)

    return y * gamma + beta, backward


def _mha_chain(x, memory, heads, params, drop, g, segments):
    """The unfused attention sub-layer: layernorm, the q, k, v projections
    (k without bias), the attention body, the output projection, dropout by
    `drop` (1.0 in eval mode) and the residual add, each step as its node
    computed it. Flows add in the engine's order: q, k, v into the
    layernorm output, k then v into the memory, the residual's before the
    layernorm's into x. The attention body is ``T._attention_rows``, checked
    on its own in ``tests/test_tensor.py::TestAttention``.

    Returns the output and the gradients of x, the nine parameters and,
    for cross-attention, the memory."""
    gamma, beta, wq, bq, wk, wv, bv, wo, bo = params
    n, ln_backward = _layernorm(x, gamma, beta)
    src = n if memory is None else memory
    q, k, v = n @ wq + bq, src @ wk, src @ wv + bv
    a, attention_backward = T._attention_rows(q, k, v, heads, **segments)
    o = (a @ wo + bo) * drop
    go = g * drop
    gq, gk, gv = attention_backward(go @ wo.T)
    gn, gsk, gsv = gq @ wq.T, gk @ wk.T, gv @ wv.T
    if memory is None:
        gn = gn + gsk
        gn = gn + gsv
    gx, ggamma, gbeta = ln_backward(gn)
    grads = [g + gx, ggamma, gbeta, n.T @ gq, gq.sum(axis=0), src.T @ gk, src.T @ gv,
             gv.sum(axis=0), a.T @ go, go.sum(axis=0)]
    return x + o, grads + ([] if memory is None else [gsk + gsv])


def _conv_chain(x, params, drop, g, lengths):
    """The unfused convolution sub-layer: layernorm, pointwise expand, GLU,
    depthwise convolution, its bias, layernorm, swish, pointwise project,
    dropout by `drop` and the residual add, each step as its node computed
    it. The GLU and convolution bodies are ``T._glu`` and
    ``T._depthwise_conv``, checked on their own in ``tests/test_tensor.py``.

    Returns the output and the gradients of x and the ten parameters."""
    gamma, beta, w1, b1, kernel, kernel_bias, gamma2, beta2, w2, b2 = params
    n, ln_backward = _layernorm(x, gamma, beta)
    x1, s1, glu_backward = T._glu(n @ w1 + b1)
    u = x1 * s1
    h, conv_backward = T._depthwise_conv(u, kernel, lengths)
    n2, ln2_backward = _layernorm(h + kernel_bias, gamma2, beta2)
    s = 1.0 / (1.0 + np.exp(-n2))
    z = n2 * s
    o = (z @ w2 + b2) * drop
    go = g * drop
    gn2 = (go @ w2.T) * s * (1.0 + n2 * (1.0 - s))
    gh, ggamma2, gbeta2 = ln2_backward(gn2)
    gu, gkernel = conv_backward(gh, u)
    ga = glu_backward(gu)
    gx, ggamma, gbeta = ln_backward(ga @ w1.T)
    return x + o, [g + gx, ggamma, gbeta, n.T @ ga, ga.sum(axis=0), gkernel, gh.sum(axis=0),
                   ggamma2, gbeta2, z.T @ go, go.sum(axis=0)]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _mask(rng, shape, p=0.3):
    """A dropout mask as the fused ops take it: (keep, 1/(1-p))."""
    return rng.random(shape) >= p, 1.0 / (1.0 - p)


def _float(mask):
    """The float mask keep * scale that a chain multiplies by; 1.0 for none."""
    return 1.0 if mask is None else mask[0] * mask[1]


def _tensors(rng, shapes):
    return [Tensor(rng.normal(0.0, 0.4, shape), requires_grad=True) for shape in shapes]


def _mha_params(rng, d=8):
    params = _tensors(rng, [(d,), (d,), (d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)])
    params[0].data += 1.0  # a gain near 1
    return params


def _conv_params(rng, d=8, kernel=3):
    params = _tensors(rng, [(d,), (d,), (d, 2 * d), (2 * d,), (kernel, d), (d,), (d,), (d,),
                            (d, d), (d,)])
    params[0].data += 1.0
    params[6].data += 1.0
    return params


def _trie_mask(parents):
    """True where a row of a prefix trie may not look: every row but
    itself and its ancestors, as ``decoder.rescore`` builds it."""
    sees = np.eye(len(parents), dtype=bool)
    for row in range(1, len(parents)):
        sees[row] |= sees[parents[row]]
    return ~sees


# name -> (query rows per segment, memory rows per segment (None:
# self-attention), ``T.mha``'s segment keywords)
MHA_CASES = {
    "self": ((7,), None, {}),
    "self-segments": ((4, 6, 5), None, {"lengths": [4, 6, 5]}),
    "causal-segments": ((3, 5, 4), None, {"lengths": [3, 5, 4], "causal": True}),
    "trie-mask": ((6,), None, {"mask": _trie_mask([-1, 0, 1, 0, 3, 1])}),
    "cross": ((5,), (7,), {}),
    "cross-segments": ((3, 5, 4), (6, 4, 7), {"lengths": [3, 5, 4], "key_lengths": [6, 4, 7]}),
}


# Each case again on a stack of LEVELS levels: x, each parameter, the
# dropout mask and the upstream gradient lead with the level axis; the
# memory is a list of one tensor per level.
LEVELS = 3
LEVEL_CASES = {f"{case}-levels": case for case in MHA_CASES}


def _mha_inputs(case, train, seed=120, p=0.3):
    levels = LEVELS if case in LEVEL_CASES else None
    lengths, memory_lengths, segments = MHA_CASES[LEVEL_CASES.get(case, case)]
    rng = np.random.default_rng(seed + len(case))
    rows = sum(lengths)
    lead = () if levels is None else (levels,)

    def tensor(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    x = tensor(*lead, rows, 8)
    memory = None
    if memory_lengths is not None:
        memory = (tensor(sum(memory_lengths), 8) if levels is None
                  else [tensor(sum(memory_lengths), 8) for _ in range(levels)])
    drop = _mask(rng, (*lead, rows, 8), p) if train else None
    if drop is not None and levels is not None:  # one scale per level, as the decoders pass it
        drop = (drop[0], np.full((levels, 1, 1), drop[1]))
    params = (_mha_params(rng) if levels is None
              else [Tensor(np.array([t.data for t in ts]), requires_grad=True)
                    for ts in zip(*[_mha_params(rng) for _ in range(levels)])])
    return x, memory, params, drop, rng.normal(size=(*lead, rows, 8)), segments


def _level(inputs, level):
    """Level `level` of ``_mha_inputs``'s memory, dropout mask and upstream
    gradient (None: all of them, without a level axis), as they are."""
    _, memory, _, drop, g, _ = inputs
    if level is None:
        return memory, drop, g
    memory = None if memory is None else memory[level]
    return memory, None if drop is None else (drop[0][level], drop[1][level]), g[level]


def _assert_bits(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# the nodes
# ---------------------------------------------------------------------------


def _assert_mha_matches_chain(inputs, levels):
    """``T.mha`` on ``_mha_inputs``'s `inputs` against ``_mha_chain``, bit
    for bit, level by level if `levels`."""
    x, memory, params, drop, g, segments = inputs
    out = T.mha(x, memory, 2, *params, drop, **segments)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    for level in range(LEVELS) if levels else [None]:
        memory, drop, g = _level(inputs, level)
        at = (lambda a: a) if level is None else (lambda a: a[level])
        ref_out, ref_grads = _mha_chain(
            at(x.data), None if memory is None else memory.data, 2, [at(t.data) for t in params],
            _float(drop), g, segments)
        got = [at(out.data), at(x.grad)]
        got += [at(t.grad) for t in params] + ([] if memory is None else [memory.grad])
        _assert_bits(got, [ref_out, *ref_grads])


class TestFusedAttention:
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("case", sorted(MHA_CASES) + sorted(LEVEL_CASES))
    def test_matches_chain_exactly(self, case, train):
        """On a level stack every level's output and gradients equal the
        chain on that level alone, so they equal a call without levels."""
        _assert_mha_matches_chain(_mha_inputs(case, train), case in LEVEL_CASES)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("case", ["self-segments", "cross-segments-levels",
                                      "causal-segments-levels"])
    def test_dropout_rates_match_chain_exactly(self, case, p):
        """The node keeps a mask as its bool keep array and scale: the bits
        of the float mask at each rate. On a level stack the middle level
        draws no mask, all kept at scale 1, as ``decoder._LevelDropout``
        fills a level whose dropout is off."""
        inputs = _mha_inputs(case, True, p=p)
        if case in LEVEL_CASES:
            keep, scale = inputs[3]
            keep[1], scale[1] = True, 1.0
        _assert_mha_matches_chain(inputs, case in LEVEL_CASES)

    @pytest.mark.parametrize("case", ["causal-segments", "cross-segments",
                                      "causal-segments-levels", "cross-segments-levels"])
    def test_finite_differences(self, case):
        """The trie-mask case is pinned by the chain alone: there some
        query-projection gradients come out near 5e-6, where a central
        difference's truncation error (it shrinks as eps squared) is a
        relative 5e-5."""
        x, memory, params, drop, g, segments = _mha_inputs(case, True)
        memories = [] if memory is None else [memory] if case not in LEVEL_CASES else memory
        leaves = [x, *params, *memories]

        def f(ps):
            mem = None if not memories else ps[10:] if case in LEVEL_CASES else ps[10]
            out = T.mha(ps[0], mem, 2, *ps[1:10], drop, **segments)
            return T.reduce_sum(T.mul(out, Tensor(g)))

        assert T.finite_diff_check(f, leaves, eps=1e-4) < 1e-6

    def test_no_grad_records_nothing(self):
        x, memory, params, drop, _, segments = _mha_inputs("cross-segments", True)
        with T.no_grad():
            out = T.mha(x, memory, 2, *params, drop, **segments)
        assert out._backward is None and out._parents == ()

    def test_shape_mismatch_raises(self):
        x, memory, params, drop, _, _ = _mha_inputs("cross", True)
        with pytest.raises(T.ShapeMismatch):  # a dropout mask for other rows
            T.mha(x, memory, 2, *params, (drop[0][:3], drop[1]))
        with pytest.raises(T.ShapeMismatch):  # a query projection of another width
            T.mha(x, memory, 2, *params[:2], Tensor(np.ones((8, 6))), *params[3:])
        with pytest.raises(T.ShapeMismatch):  # memory narrower than the key projection
            T.mha(x, Tensor(np.ones((7, 6))), 2, *params)
        with pytest.raises(T.ShapeMismatch):  # width not divisible by heads
            T.mha(x, memory, 3, *params)
        with pytest.raises(T.ShapeMismatch):  # two query segments, one key segment
            T.mha(x, memory, 2, *params, lengths=[2, 3], key_lengths=[7])
        x, memory, params, drop, _, _ = _mha_inputs("cross-levels", True)
        with pytest.raises(T.ShapeMismatch):  # a level stack with one level's parameters
            T.mha(x, memory, 2, *[Tensor(t.data[0]) for t in params], drop)
        with pytest.raises(T.ShapeMismatch):  # two levels' parameters for three
            T.mha(x, memory, 2, *[Tensor(t.data[:2]) for t in params], drop)
        with pytest.raises(T.ShapeMismatch):  # one memory for three levels
            T.mha(x, memory[0], 2, *params, drop)
        with pytest.raises(T.ShapeMismatch):  # the memories as one stack, not one per level
            T.mha(x, Tensor(np.array([m.data for m in memory])), 2, *params, drop)
        with pytest.raises(T.ShapeMismatch):  # a dropout mask without the level axis
            T.mha(x, memory, 2, *params, (drop[0][0], drop[1]))


CONV_CASES = {"one": None, "segments": [4, 1, 6, 3]}


def _conv_inputs(case, train, seed=140, p=0.3):
    lengths = CONV_CASES[case]
    rng = np.random.default_rng(seed + len(case))
    rows = 9 if lengths is None else sum(lengths)
    x = Tensor(rng.normal(size=(rows, 8)), requires_grad=True)
    drop = _mask(rng, (rows, 8), p) if train else None
    return x, _conv_params(rng), drop, rng.normal(size=(rows, 8)), lengths


class TestFusedConvolution:
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("case", sorted(CONV_CASES))
    def test_matches_chain_exactly(self, case, train):
        x, params, drop, g, lengths = _conv_inputs(case, train)
        out = T.conv_module(x, *params, drop, lengths)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        ref_out, ref_grads = _conv_chain(x.data, [t.data for t in params],
                                         _float(drop), g, lengths)
        _assert_bits([out.data, x.grad] + [t.grad for t in params], [ref_out, *ref_grads])

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_dropout_rates_match_chain_exactly(self, p):
        x, params, drop, g, lengths = _conv_inputs("segments", True, p=p)
        out = T.conv_module(x, *params, drop, lengths)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        ref_out, ref_grads = _conv_chain(x.data, [t.data for t in params], _float(drop), g,
                                         lengths)
        _assert_bits([out.data, x.grad] + [t.grad for t in params], [ref_out, *ref_grads])

    def test_finite_differences(self):
        x, params, drop, g, lengths = _conv_inputs("segments", True)

        def f(ps):
            return T.reduce_sum(T.mul(T.conv_module(ps[0], *ps[1:], drop, lengths), Tensor(g)))

        assert T.finite_diff_check(f, [x, *params]) < 1e-6

    def test_shape_mismatch_raises(self):
        x, params, drop, _, _ = _conv_inputs("one", True)
        with pytest.raises(T.ShapeMismatch):  # a dropout mask for other rows
            T.conv_module(x, *params, (drop[0][:4], drop[1]))
        with pytest.raises(T.ShapeMismatch):  # an even kernel has no centre tap
            T.conv_module(x, *params[:4], Tensor(np.ones((2, 8))), *params[5:])
        with pytest.raises(T.ShapeMismatch):  # expand not twice the kernel's channels
            T.conv_module(x, *params[:2], Tensor(np.ones((8, 8))), Tensor(np.ones(8)),
                          *params[4:])
        with pytest.raises(T.ShapeMismatch):  # lengths that do not cover the rows
            T.conv_module(x, *params, lengths=[4, 4])


# ---------------------------------------------------------------------------
# the modules: their parameters, dropout streams and segments
# ---------------------------------------------------------------------------


def _params(module, *names):
    return [module.named_parameters()[name] for name in names]


def _attention_params(module, norm, mha):
    return _params(module, f"{norm}.gamma", f"{norm}.beta", f"{mha}.wq.weight", f"{mha}.wq.bias",
                   f"{mha}.wk.weight", f"{mha}.wv.weight", f"{mha}.wv.bias", f"{mha}.wo.weight",
                   f"{mha}.wo.bias")


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_self_attention_module_matches_chain(train):
    module = SelfAttention(8, 2, dropout=0.3).initialize(21).train(train)
    stream = copy.deepcopy(module.dropout.rng)
    rng = np.random.default_rng(150)
    x = Tensor(rng.normal(size=(11, 8)), requires_grad=True)
    g = rng.normal(size=(11, 8))
    out = module.forward(x, [5, 6])
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    params = _attention_params(module, "norm", "mha")
    drop = _float(_mask(stream, (11, 8)) if train else None)
    ref_out, ref_grads = _mha_chain(x.data, None, 2, [t.data for t in params], drop, g,
                                    {"lengths": [5, 6]})
    _assert_bits([out.data, x.grad] + [t.grad for t in params], [ref_out, *ref_grads])


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_conv_module_matches_chain(train):
    module = ConvModule(8, 3, dropout=0.3).initialize(22).train(train)
    stream = copy.deepcopy(module.dropout.rng)
    rng = np.random.default_rng(151)
    x = Tensor(rng.normal(size=(10, 8)), requires_grad=True)
    g = rng.normal(size=(10, 8))
    out = module.forward(x, [3, 7])
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    params = list(module.named_parameters().values())
    drop = _float(_mask(stream, (10, 8)) if train else None)
    ref_out, ref_grads = _conv_chain(x.data, [t.data for t in params], drop, g, [3, 7])
    _assert_bits([out.data, x.grad] + [t.grad for t in params], [ref_out, *ref_grads])


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_decoder_block_matches_chain(train):
    """Causal self-attention under norm1 and dropout1, cross-attention to the
    packed memory under norm2 and dropout2, then the feed-forward node, its
    upstream gradient handed back through the two chains."""
    block = DecoderBlock(8, 12, 2, dropout=0.3).initialize(23).train(train)
    dropouts = [block.dropout1, block.dropout2, block.ffn.dropout1, block.ffn.dropout2]
    streams = [copy.deepcopy(d.rng) for d in dropouts]
    rng = np.random.default_rng(152)
    x = Tensor(rng.normal(size=(7, 8)), requires_grad=True)
    enc = Tensor(rng.normal(size=(9, 8)), requires_grad=True)
    g = rng.normal(size=(7, 8))
    out = block.forward(x, enc, [3, 4], [5, 4])
    T.reduce_sum(T.mul(out, Tensor(g))).backward()

    drops = [_mask(s, (7, w)) if train else None for s, w in zip(streams, (8, 8, 12, 8))]
    self_params = _attention_params(block, "norm1", "self_attn")
    cross_params = _attention_params(block, "norm2", "cross_attn")
    ffn_params = list(block.ffn.named_parameters().values())
    self_segments = {"lengths": [3, 4], "causal": True}
    cross_segments = {"lengths": [3, 4], "key_lengths": [5, 4]}
    arrays = [[t.data for t in ps] for ps in (self_params, cross_params)]
    keep = [_float(d) for d in drops[:2]]
    x1, _ = _mha_chain(x.data, None, 2, arrays[0], keep[0], g, self_segments)
    x2, _ = _mha_chain(x1, enc.data, 2, arrays[1], keep[1], g, cross_segments)
    # the feed-forward node on copies of its parameters, then the chains backward
    x2_leaf = Tensor(x2, requires_grad=True)
    ffn_copies = [Tensor(t.data.copy(), requires_grad=True) for t in ffn_params]
    ref = T.ffn(x2_leaf, 1.0, *ffn_copies, *drops[2:])
    T.reduce_sum(T.mul(ref, Tensor(g))).backward()
    _, cross_grads = _mha_chain(x1, enc.data, 2, arrays[1], keep[1], x2_leaf.grad,
                                cross_segments)
    _, self_grads = _mha_chain(x.data, None, 2, arrays[0], keep[0], cross_grads[0],
                               self_segments)
    got = [out.data, x.grad, enc.grad] + [t.grad for t in self_params + cross_params + ffn_params]
    _assert_bits(got, [ref.data, self_grads[0], cross_grads[-1], *self_grads[1:],
                       *cross_grads[1:-1], *[t.grad for t in ffn_copies]])


# ---------------------------------------------------------------------------
# graph size
# ---------------------------------------------------------------------------


def _recorded(monkeypatch):
    """Start counting the recorded nodes, those with a backward; returns
    the list their op names go to."""
    ops = []
    node = T._node

    def counted(data, parents, backward, op):
        out = node(data, parents, backward, op)
        if out._backward is not None:
            ops.append(op)
        return out

    monkeypatch.setattr(T, "_node", counted)
    return ops


def test_conformer_block_records_five_nodes(monkeypatch):
    """Half-step feed-forward, self-attention, convolution, half-step
    feed-forward and the closing layernorm: one node each."""
    block = ConformerBlock(8, 16, heads=2, kernel=3, dropout=0.1).initialize(24).train()
    x = Tensor(np.random.default_rng(153).normal(size=(9, 8)), requires_grad=True)
    ops = _recorded(monkeypatch)
    block.forward(x, lengths=[4, 5])
    assert ops == ["ffn", "mha", "conv-module", "ffn", "layernorm"]


def test_decoder_block_records_three_nodes(monkeypatch):
    block = DecoderBlock(8, 12, 2, dropout=0.1).initialize(25).train()
    rng = np.random.default_rng(154)
    x = Tensor(rng.normal(size=(7, 8)), requires_grad=True)
    enc = Tensor(rng.normal(size=(9, 8)), requires_grad=True)
    ops = _recorded(monkeypatch)
    block.forward(x, enc, [3, 4], [5, 4])
    assert ops == ["mha", "mha", "ffn"]
