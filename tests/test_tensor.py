"""Autodiff core: forward values against closed forms and loop oracles,
gradients against finite differences."""

import copy
import tracemalloc

import numpy as np
import pytest

from moe_asr import nn
from moe_asr import tensor as T
from moe_asr.tensor import Tensor


def _op(helper, arity, name):
    """A fused op's private `helper` (arrays in; output and backward out)
    as a one-node op on tensors, named `name`: its first `arity` arguments
    are the operands, the rest pass through."""

    def op(*args, **kwargs):
        inputs = [a if isinstance(a, Tensor) else Tensor(a) for a in args[:arity]]
        out, backward = helper(*[t.data for t in inputs], *args[arity:], **kwargs)

        def bwd(g):
            grads = backward(g)
            return grads if isinstance(grads, tuple) else (grads,)

        return T._node(out, inputs, bwd, name)

    op.__name__ = name
    return op


def _glu(a):
    """``T._glu`` as an (output, backward) helper."""
    x1, s, backward = T._glu(a)
    return x1 * s, backward


def _depthwise_conv(x, kernel, lengths=None):
    """``T._depthwise_conv`` as an (output, backward) helper: its backward
    takes the input back."""
    out, backward = T._depthwise_conv(x, kernel, lengths)
    return out, lambda g: backward(g, x)


# The attention, GLU and depthwise convolution bodies of ``T.mha`` and
# ``T.conv_module``, each as its own node.
attention = _op(T._attention_rows, 3, "attention")
glu = _op(_glu, 1, "glu")
depthwise_conv1d = _op(_depthwise_conv, 2, "depthwise_conv1d")


def layernorm(a):
    """``T.layernorm`` under a fixed, non-trivial affine, as a unary op."""
    d = a.data.shape[-1]
    return T.layernorm(a, Tensor(np.linspace(0.5, 1.5, d)), Tensor(np.linspace(-0.2, 0.3, d)))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


class TestForward:
    def test_softmax_uniform_logits(self):
        """softmax([0, 0]) = [0.5, 0.5] exactly."""
        out = T.softmax_last(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], rtol=0, atol=0)

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(scale=8.0, size=(11, 17)))
        p = T.softmax_last(x).data
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(11), atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(5, 9)))
        np.testing.assert_allclose(
            T.log_softmax_last(x).data, np.log(T.softmax_last(x).data), atol=1e-12
        )

    def test_layernorm_constant_row_maps_to_zeros(self):
        """A zero-variance row normalizes to exactly zero output."""
        out = T.layernorm(Tensor([[3.0, 3.0, 3.0, 3.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)

    def test_layernorm_normalizes(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(loc=2.0, scale=3.0, size=(6, 32)))
        y = T.layernorm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        np.testing.assert_allclose(y.mean(axis=-1), np.zeros(6), atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), np.ones(6), atol=1e-4)

    def test_glu_halves_width(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 8))
        out = glu(Tensor(x)).data
        expected = x[:, :4] * (1.0 / (1.0 + np.exp(-x[:, 4:])))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_swish_closed_form(self):
        x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
        out = T.swish(Tensor(x)).data
        np.testing.assert_allclose(out, x / (1.0 + np.exp(-x)), atol=1e-15)

    def test_depthwise_conv_matches_loop_oracle(self):
        """Same-padded per-channel convolution against a nested-loop oracle."""
        rng = np.random.default_rng(11)
        Tn, C, K = 8, 16, 15
        x = rng.normal(size=(Tn, C))
        w = rng.normal(size=(K, C))
        out = depthwise_conv1d(Tensor(x), Tensor(w)).data

        pad = K // 2
        expected = np.zeros_like(x)
        for t in range(Tn):
            for c in range(C):
                acc = 0.0
                for k in range(K):
                    src = t + k - pad
                    if 0 <= src < Tn:
                        acc += x[src, c] * w[k, c]
                expected[t, c] = acc
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_unfold_time_windows(self):
        x = np.arange(14.0).reshape(7, 2)
        out = T.unfold_time(Tensor(x), kernel=3, stride=2).data
        assert out.shape == (3, 6)
        np.testing.assert_allclose(out[0], x[0:3].reshape(-1))
        np.testing.assert_allclose(out[1], x[2:5].reshape(-1))
        np.testing.assert_allclose(out[2], x[4:7].reshape(-1))

    def test_gather_last_picks_per_row(self):
        a = Tensor(np.arange(12.0).reshape(3, 4))
        out = T.gather_last(a, np.array([1, 0, 3]))
        np.testing.assert_allclose(out.data, [1.0, 4.0, 11.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(T.ShapeMismatch):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), None)
        with pytest.raises(T.ShapeMismatch):
            depthwise_conv1d(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("call, error, message", [
        (lambda: T.reduce_sum(Tensor(np.ones((2, 3)), requires_grad=True), axis=0).backward(),
         ValueError, r"^backward requires a scalar loss, got shape \(3,\)"),
        (lambda: T.linear(Tensor(np.ones(4)), Tensor(np.ones((4, 2))), None),
         T.ShapeMismatch, r"^linear: incompatible shapes \(4,\)$"),
        (lambda: T.concat_last([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))]),
         T.ShapeMismatch, r"^concat-last-dim: incompatible shapes \(2, 3\) vs \(3, 3\)$"),
        (lambda: T.unfold_time(Tensor(np.ones(9)), 3, 2),
         T.ShapeMismatch, r"^unfold-time: incompatible shapes \(9,\)$"),
        (lambda: T.unfold_time(Tensor(np.ones((5, 2))), 3, 2, [2, 3]),
         T.ShapeMismatch, r"^unfold-time: incompatible shapes \(5, 2\) vs \(3,\)$"),
        (lambda: T.embedding_lookup(Tensor(np.ones((5, 4))), np.array([[1]])),
         T.ShapeMismatch, r"^embedding-lookup: incompatible shapes \(5, 4\) vs \(1, 1\)$"),
        (lambda: T.embedding_lookup(Tensor(np.ones((5, 4))), np.array([1, 5])),
         IndexError, r"^embedding-lookup: id out of range \[0, 5\): 1\.\.5$"),
        (lambda: T.gather_last(Tensor(np.ones((3, 4))), np.array([0, 1])),
         T.ShapeMismatch, r"^gather-last: incompatible shapes \(3, 4\) vs \(2,\)$"),
        (lambda: attention(Tensor(np.ones((3, 8))), Tensor(np.ones((2, 4, 8))),
                           Tensor(np.ones((2, 4, 8))), 2),
         T.ShapeMismatch, r"^attention: incompatible shapes \(3, 8\) vs \(2, 4, 8\)"),
        (lambda: T.conv_module(Tensor(np.ones((2, 3, 4))), *[None] * 10),
         T.ShapeMismatch, r"^conv-module: incompatible shapes \(2, 3, 4\)$"),
        (lambda: T.finite_diff_check(lambda ps: ps[0], [Tensor(np.ones(3), requires_grad=True)]),
         ValueError, "^finite_diff_check requires a scalar-valued function$"),
        (lambda: T.finite_diff_check(lambda ps: T.reduce_sum(ps[0]), [Tensor(np.ones(3))]),
         ValueError, r"^all checked params must have requires_grad=True$"),
    ], ids=["backward-of-rows", "linear-of-a-vector", "concat-of-unequal-rows",
            "unfold-a-vector", "unfold-short-segment", "lookup-by-id-rows",
            "lookup-id-out-of-range", "gather-by-too-few-ids", "attention-levels-differ",
            "conv-module-on-a-stack", "finite-diff-of-rows", "finite-diff-of-a-constant"])
    def test_bad_operand_named(self, call, error, message):
        """Each refused input raises its own error, naming the op and shapes."""
        with pytest.raises(error, match=message):
            call()


# ---------------------------------------------------------------------------
# gradients: closed forms
# ---------------------------------------------------------------------------


class TestBackwardClosedForm:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.reduce_sum(x).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)), atol=0)

    def test_sum_of_squares_gradient(self):
        """d/dx sum(x*x) = 2x: at [1, 2] the gradient is [2, 4]."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.reduce_sum(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=0)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = T.reduce_sum(T.mul(x, x))
        loss.backward()
        loss2 = T.reduce_sum(T.mul(x, x))
        loss2.backward()
        np.testing.assert_allclose(x.grad, [12.0], atol=0)

    def test_second_backward_of_one_loss_raises(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = T.reduce_sum(T.mul(x, x))
        loss.backward()
        with pytest.raises(RuntimeError, match="^backward through a graph that an earlier"):
            loss.backward()
        np.testing.assert_allclose(x.grad, [6.0], atol=0)

    def test_loss_sharing_a_consumed_subgraph_raises(self):
        """The first backward freed h's closure and its parents; a second
        loss through h raises instead of giving x no gradient through h."""
        x = Tensor(np.array([3.0]), requires_grad=True)
        h = T.mul(x, x)
        T.reduce_sum(h).backward()
        assert h._parents == ()
        with pytest.raises(RuntimeError, match="^backward through a graph that an earlier"):
            T.reduce_sum(T.mul(h, 2.0)).backward()

    def test_shared_node_gradients_sum(self):
        """y = x + x pushes gradient 2 into x through both edges."""
        x = Tensor(np.array([5.0]), requires_grad=True)
        T.reduce_sum(T.add(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0], atol=0)

    def test_only_a_constant_broadcasts(self):
        """``add`` and ``mul`` broadcast a constant onto an operand that
        requires grad, whose gradient is then the upstream one (times the
        constant); an operand that requires grad and would broadcast is
        refused on either side."""
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        row = np.array([1.0, 2.0, 3.0])
        T.reduce_sum(T.add(x, Tensor(row))).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
        x.zero_grad()
        T.reduce_sum(T.mul(Tensor(row), x)).backward()
        np.testing.assert_array_equal(x.grad, np.tile(row, (2, 1)))
        v = Tensor(row, requires_grad=True)
        for op in (T.add, T.mul):
            with pytest.raises(T.ShapeMismatch):
                op(x, v)
            with pytest.raises(T.ShapeMismatch):
                op(v, Tensor(np.ones((2, 3))))
            with pytest.raises(T.ShapeMismatch):  # shapes that do not broadcast
                op(x, Tensor(np.ones(2)))

    def test_concat_no_cross_leak(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        cat = T.concat_last([a, b])
        T.reduce_sum(T.mul(cat, Tensor([1.0, 1.0, 1.0, 0.0, 0.0]))).backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.zeros((2, 2)))

    def test_only_leaves_keep_gradients(self):
        """Intermediate nodes pass their gradient on and keep none; leaves
        get the closed form: for L = (x w)^2, dL/dx = 2 (x w) w^T and
        dL/dw = 2 x^T (x w), with x w = 11 here."""
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        w = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        h = T.linear(x, w, None)
        sq = T.mul(h, h)
        loss = T.reduce_sum(sq)
        loss.backward()
        assert all(t.requires_grad and t.grad is None for t in (h, sq, loss))
        np.testing.assert_allclose(x.grad, [[66.0, 88.0]], rtol=0, atol=0)
        np.testing.assert_allclose(w.grad, [[22.0], [44.0]], rtol=0, atol=0)

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert y._backward is None and not y.requires_grad


# ---------------------------------------------------------------------------
# gradients: finite differences
# ---------------------------------------------------------------------------


TOL = 1e-6

UNARY_OPS = [
    T.softmax_last,
    T.log_softmax_last,
    layernorm,
    T.swish,
    glu,
    lambda a: T.power(T.add(a, Tensor(3.0)), 1.7),
    lambda a: T.reshape(a, (2, 12)),
    lambda a: T.reduce_mean(a, axis=0),
]


class TestFiniteDifferences:
    def test_quadratic_exact(self):
        """f(x) = sum(x^2) has tiny central-difference error at eps=1e-5."""
        x = Tensor(np.array([0.3, -1.1, 2.2]), requires_grad=True)
        err = T.finite_diff_check(lambda ps: T.reduce_sum(T.mul(ps[0], ps[0])), [x])
        assert err < TOL

    @pytest.mark.parametrize("op", UNARY_OPS)
    def test_unary_ops(self, op):
        # Seeded by case index; draws in [-2, 2] keep power's base a + 3 > 0.
        rng = np.random.default_rng(UNARY_OPS.index(op))
        x = Tensor(rng.uniform(-2.0, 2.0, size=(4, 6)), requires_grad=True)

        def f(ps):
            return T.reduce_sum(T.mul(op(ps[0]), Tensor(rng2)))

        rng2 = np.random.default_rng(3).normal(size=np.asarray(op(Tensor(x.data)).data).shape)
        assert T.finite_diff_check(f, [x]) < TOL

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_value_named(self):
        """A value outside the function's domain is reported as such, not
        as two evaluations that disagree."""
        x = Tensor(np.array([[-3.5, 1.0]]), requires_grad=True)
        with pytest.raises(ValueError, match="non-finite nan"):
            T.finite_diff_check(
                lambda ps: T.reduce_sum(T.power(T.add(ps[0], Tensor(3.0)), 1.7)), [x])

    def test_matmul(self):
        """``linear`` without a bias: the product alone, both operands."""
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.linear(ps[0], ps[1], None), Tensor(w))), [a, b]
        )
        assert err < TOL

    def test_depthwise_conv_both_operands(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(6, 5))
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(depthwise_conv1d(ps[0], ps[1]), Tensor(w))),
            [x, k],
        )
        assert err < TOL

    def test_unfold_time(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
        w = rng.normal(size=(4, 9))
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.unfold_time(ps[0], 3, 2), Tensor(w))), [x]
        )
        assert err < TOL

    def test_embedding_with_duplicate_ids(self):
        rng = np.random.default_rng(24)
        table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        ids = np.array([1, 3, 1, 0])
        w = rng.normal(size=(4, 4))
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.embedding_lookup(ps[0], ids), Tensor(w))),
            [table],
        )
        assert err < TOL

    def test_gather_last(self):
        rng = np.random.default_rng(25)
        a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w1 = rng.normal(size=4)
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(
                T.mul(T.gather_last(ps[0], np.array([1, 5, 0, 2])), Tensor(w1))
            ),
            [a],
        )
        assert err < TOL

    def test_three_layer_network(self):
        """A small FFN stack: linear, swish, affine layernorm composed."""
        rng = np.random.default_rng(27)
        w1 = Tensor(rng.normal(scale=0.5, size=(5, 8)), requires_grad=True)
        b1 = Tensor(rng.normal(scale=0.1, size=8), requires_grad=True)
        w2 = Tensor(rng.normal(scale=0.5, size=(8, 8)), requires_grad=True)
        w3 = Tensor(rng.normal(scale=0.5, size=(8, 2)), requires_grad=True)
        gamma = Tensor(rng.normal(loc=1.0, scale=0.2, size=8), requires_grad=True)
        beta = Tensor(rng.normal(scale=0.1, size=8), requires_grad=True)
        x = rng.normal(size=(4, 5))
        tgt = rng.normal(size=(4, 2))

        def f(ps):
            h = T.swish(T.linear(Tensor(x), ps[0], ps[1]))
            h = T.layernorm(T.linear(h, ps[2], None), ps[4], ps[5])
            out = T.linear(h, ps[3], None)
            diff = T.add(out, Tensor(-tgt))
            return T.reduce_sum(T.mul(diff, diff))

        assert T.finite_diff_check(f, [w1, b1, w2, w3, gamma, beta]) < TOL

    def test_nondeterministic_function_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        rng = np.random.default_rng(0)

        def f(ps):
            return T.reduce_sum(T.mul(ps[0], Tensor(rng.normal(size=3))))

        with pytest.raises(T.NondeterministicFunction):
            T.finite_diff_check(f, [x])

    def test_eps_out_of_range_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            T.finite_diff_check(lambda ps: T.reduce_sum(ps[0]), [x], eps=1e-8)

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        drop = nn.Dropout(0.5).eval()
        drop.rng = np.random.default_rng(0)
        out = drop.forward(x)
        assert out is x

    def test_dropout_train_scales_kept_units(self):
        drop = nn.Dropout(0.25)
        drop.rng = np.random.default_rng(5)
        x = Tensor(np.ones((200, 50)))
        out = drop.forward(x).data
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02

    def test_dropout_forward_applies_its_mask(self):
        """On cloned generators, forward is the input times the mask ``mask``
        draws, bit for bit, and the input's gradient is that mask."""
        drop, twin = nn.Dropout(0.3), nn.Dropout(0.3)
        drop.rng = np.random.default_rng(8)
        twin.rng = copy.deepcopy(drop.rng)
        x = Tensor(np.random.default_rng(9).normal(size=(6, 5)), requires_grad=True)
        out = drop.forward(x)
        keep, scale = twin.mask(x.shape)
        mask = keep * scale
        assert out.data.tobytes() == (x.data * mask).tobytes()
        T.reduce_sum(out).backward()
        assert x.grad.tobytes() == mask.tobytes()


# ---------------------------------------------------------------------------
# batched attention against a per-head loop and the masked dense op
# ---------------------------------------------------------------------------


def _per_head_attention(q, k, v, heads, mask=None):
    """Reference: plain numpy, one head at a time, contexts side by side."""
    dq, dv = q.shape[1] // heads, v.shape[1] // heads
    contexts = []
    for h in range(heads):
        qh = np.ascontiguousarray(q[:, h * dq : (h + 1) * dq])
        kt = np.ascontiguousarray(k[:, h * dq : (h + 1) * dq].T)
        vh = np.ascontiguousarray(v[:, h * dv : (h + 1) * dv])
        scores = (qh @ kt) * (1.0 / np.sqrt(dq))
        if mask is not None:
            scores = np.where(mask, -1e30, scores)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        contexts.append((e / e.sum(axis=-1, keepdims=True)) @ vh)
    return np.concatenate(contexts, axis=-1)


def block_mask(lengths, key_lengths, causal):
    """Dense [sum(lengths), sum(key_lengths)] mask over packed rows: true
    where a query row of one segment would see a key row of another, or,
    with `causal`, a later row of its own."""
    q = np.repeat(np.arange(len(lengths)), lengths)
    k = np.repeat(np.arange(len(key_lengths)), key_lengths)
    mask = q[:, None] != k[None, :]
    if causal:
        mask |= np.triu(np.ones(mask.shape, dtype=bool), k=1)
    return mask


# (query rows per segment, key rows per segment, causal): cross-attention
# reads a longer memory; causal self-attention is called with the mask that
# hides every key after the query in its segment (``block_mask``). A single
# segment is called without lengths.
ATTENTION_CASES = {
    "cross": ((5,), (7,), False),
    "causal": ((6,), (6,), True),
    "self-segments": ((4, 6, 5), (4, 6, 5), False),
    "causal-segments": ((3, 5, 4), (3, 5, 4), True),
    "cross-segments": ((3, 5, 4), (6, 4, 7), False),
}
SEGMENT_CASES = sorted(c for c, (lengths, _, _) in ATTENTION_CASES.items() if len(lengths) > 1)


def _attention_inputs(case, seed=40):
    """q, k, v, ``attention``'s keyword arguments for the case, the
    equivalent dense mask, and output weights."""
    lengths, key_lengths, causal = ATTENTION_CASES[case]
    tq, tk = sum(lengths), sum(key_lengths)
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(rng.normal(size=(t, 8)), requires_grad=True) for t in (tq, tk, tk))
    mask = block_mask(lengths, key_lengths, causal)
    segments = {"mask": mask} if causal else {}
    if len(lengths) > 1:
        segments.update(lengths=list(lengths), key_lengths=list(key_lengths))
    return q, k, v, segments, (mask if mask.any() else None), rng.normal(size=(tq, 8))


def _attention_and_grads(q, k, v, heads, w, **kwargs):
    for t in (q, k, v):
        t.zero_grad()
    out = attention(q, k, v, heads, **kwargs)
    T.reduce_sum(T.mul(out, Tensor(w))).backward()
    return [out.data] + [t.grad.copy() for t in (q, k, v)]


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_matches_per_head_loop_exactly(self, case, heads):
        """One segment equals the plain per-head loop bit for bit; packed
        segments leave the masked zeros out of each softmax sum, so they
        agree with it to rounding."""
        q, k, v, segments, mask, _ = _attention_inputs(case)
        out = attention(q, k, v, heads, **segments)
        expected = _per_head_attention(q.data, k.data, v.data, heads, mask)
        if case in SEGMENT_CASES:
            np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(out.data, expected)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("case", SEGMENT_CASES)
    def test_segments_match_masked_dense_op(self, case, heads):
        """Each segment's own block alone gives the values and q/k/v
        gradients of the dense op under the block mask."""
        q, k, v, segments, mask, w = _attention_inputs(case)
        got = _attention_and_grads(q, k, v, heads, w, **segments)
        expected = _attention_and_grads(q, k, v, heads, w, mask=mask)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("case", ["cross", "causal"])
    def test_one_segment_is_the_call_without_lengths(self, case, heads):
        q, k, v, segments, _, w = _attention_inputs(case)
        lengths, key_lengths, _ = ATTENTION_CASES[case]
        got = _attention_and_grads(q, k, v, heads, w, lengths=list(lengths),
                                   key_lengths=list(key_lengths), mask=segments.get("mask"))
        expected = _attention_and_grads(q, k, v, heads, w, **segments)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_finite_differences(self, case, heads):
        q, k, v, segments, _, w = _attention_inputs(case)

        def f(ps):
            return T.reduce_sum(T.mul(attention(ps[0], ps[1], ps[2], heads, **segments),
                                      Tensor(w)))

        # eps 1e-4: the last causal key's gradient is ~1e-5, where the
        # roundoff of a 1e-5 central difference alone is ~1e-6 relative.
        assert T.finite_diff_check(f, [q, k, v], eps=1e-4) < TOL

    def test_segments_cost_their_own_blocks(self):
        """Forward and backward over 8 segments of 150 rows hold scores for
        each segment's block only: the peak stays under four [H, T_i, T_i]
        float64 buffers per segment, where the dense [sum T, sum T] scores
        alone would take eight times that."""
        lengths, heads = [150] * 8, 2
        rng = np.random.default_rng(42)
        q, k, v = (Tensor(rng.normal(size=(sum(lengths), 16)), requires_grad=True)
                   for _ in range(3))
        w = Tensor(rng.normal(size=(sum(lengths), 16)))
        tracemalloc.start()
        try:
            T.reduce_sum(T.mul(attention(q, k, v, heads, lengths), w)).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * heads * sum(n * n for n in lengths) * 8

    def test_masked_keys_get_zero_weight_and_gradient(self):
        """Key 2 is hidden from every query: its weight, and the gradient
        into its key and value rows, are exactly zero."""
        rng = np.random.default_rng(41)
        # each head is tk wide, so its identity block fits the width
        tq, tk, heads = 5, 6, 2
        mask = rng.random((tq, tk)) < 0.5
        mask[:, 0] = False
        mask[:, 2] = True
        q, k = (Tensor(rng.normal(size=(t, heads * tk)), requires_grad=True) for t in (tq, tk))
        v = Tensor(rng.normal(size=(tk, heads * tk)), requires_grad=True)
        w = Tensor(rng.normal(size=(tq, heads * tk)))
        T.reduce_sum(T.mul(attention(q, k, v, heads, mask=mask), w)).backward()
        assert np.all(k.grad[2] == 0.0) and np.all(v.grad[2] == 0.0)
        assert np.all(k.grad[[0, 1, 3, 4, 5]].any(axis=1))
        # Per-head identity values turn each head's context into its weights.
        weights = attention(q.data, k.data, np.tile(np.eye(tk), heads), heads,
                              mask=mask).data
        for head in np.split(weights, heads, axis=1):
            assert np.all(head[mask] == 0.0) and np.all(head[~mask] > 0.0)

    def test_shape_mismatch_raises(self):
        def ones(*shape):
            return Tensor(np.ones(shape))

        with pytest.raises(T.ShapeMismatch):  # query and key widths differ
            attention(ones(3, 8), ones(4, 6), ones(4, 8), 2)
        with pytest.raises(T.ShapeMismatch):  # key and value lengths differ
            attention(ones(3, 8), ones(4, 8), ones(5, 8), 2)
        with pytest.raises(T.ShapeMismatch):  # key and value widths differ
            attention(ones(3, 8), ones(4, 8), ones(4, 6), 2)
        with pytest.raises(T.ShapeMismatch):  # width not divisible by heads
            attention(ones(3, 6), ones(4, 6), ones(4, 6), 4)
        with pytest.raises(T.ShapeMismatch):  # mask not [Tq, Tk]
            attention(ones(3, 8), ones(4, 8), ones(4, 8), 2, mask=np.zeros((4, 3), dtype=bool))
        with pytest.raises(T.ShapeMismatch):  # query lengths do not sum to the rows
            attention(ones(5, 8), ones(5, 8), ones(5, 8), 2, [2, 2])
        with pytest.raises(T.ShapeMismatch):  # key lengths do not sum to the rows
            attention(ones(5, 8), ones(6, 8), ones(6, 8), 2, [2, 3], [3, 2])
        with pytest.raises(T.ShapeMismatch):  # two query segments, three key segments
            attention(ones(5, 8), ones(6, 8), ones(6, 8), 2, [2, 3], [2, 2, 2])


# ---------------------------------------------------------------------------
# fused ops against their unfused forms in plain numpy
# ---------------------------------------------------------------------------


def _unfused_linear(x, w, b, g):
    """A matmul node, then a bias add node: output and input gradients."""
    return x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0)


def _unfused_layernorm(x, gamma, beta, g, eps=1e-5):
    """An affine-free layernorm node, then mul by gamma, then add beta."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    y = xc * inv
    gy = g * gamma
    gx = inv * (gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True))
    return y * gamma + beta, gx, (g * y).sum(axis=0), g.sum(axis=0)


def _unfused_glu(a, g):
    """Two sliced copies, a sigmoid of the second, their product; the two
    slices' zero-padded gradients summed."""
    half = a.shape[-1] // 2
    x1, x2 = a[:, :half].copy(), a[:, half:].copy()
    s = 1.0 / (1.0 + np.exp(-x2))
    g1, g2 = np.zeros_like(a), np.zeros_like(a)
    g1[:, :half] = g * s
    g2[:, half:] = g * x1 * s * (1.0 - s)
    return x1 * s, g1 + g2


# op -> (fused op, input shapes for `rows` rows, output width, reference)
FUSED_OPS = {
    "linear": (T.linear, lambda rows: [(rows, 6), (6, 4), (4,)], 4, _unfused_linear),
    "layernorm": (T.layernorm, lambda rows: [(rows, 6), (6,), (6,)], 6, _unfused_layernorm),
    "glu": (glu, lambda rows: [(rows, 8)], 4, _unfused_glu),
}


# The ops that take a level axis, again on a stack of LEVELS levels: every
# input leads with the level axis, slice l being level l's, and each level
# must equal the unfused graph on its own.
LEVELS = 3
FUSED_OPS.update({f"{name}-levels": FUSED_OPS[name] for name in ("linear", "layernorm")})


def _fused_inputs(name, rows, seed=50):
    op, shapes, width, reference = FUSED_OPS[name]
    rng = np.random.default_rng(seed + rows)
    if not name.endswith("-levels"):
        inputs = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes(rows)]
        return op, inputs, rng.normal(size=(rows, width)), reference
    first, *rest = shapes(rows)
    inputs = [Tensor(rng.normal(size=(LEVELS, *first)), requires_grad=True)]
    inputs += [Tensor(np.array([rng.normal(size=shape) for _ in range(LEVELS)]),
                      requires_grad=True) for shape in rest]
    return op, inputs, rng.normal(size=(LEVELS, rows, width)), reference


class TestFusedOps:
    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("name", sorted(FUSED_OPS))
    def test_matches_unfused_exactly(self, name, rows):
        """Output and every input gradient equal the unfused graph's bits,
        on a level stack level by level."""
        op, inputs, g, reference = _fused_inputs(name, rows)
        out = op(*inputs)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        x, *params = inputs
        for level in range(LEVELS) if name.endswith("-levels") else [None]:
            at = (lambda a: a) if level is None else (lambda a: a[level])
            expected = reference(at(x.data), *[at(t.data) for t in params], at(g))
            got = [at(out.data), at(x.grad)] + [at(t.grad) for t in params]
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                np.testing.assert_allclose(a, b, rtol=0, atol=0)

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("name", sorted(FUSED_OPS))
    def test_finite_differences(self, name, rows):
        op, inputs, g, _ = _fused_inputs(name, rows)
        f = lambda ps: T.reduce_sum(T.mul(op(*ps), Tensor(g)))  # noqa: E731
        assert T.finite_diff_check(f, inputs) < TOL

    def test_shape_mismatch_raises(self):
        def ones(*shape):
            return Tensor(np.ones(shape))

        with pytest.raises(T.ShapeMismatch):  # inner dimensions differ
            T.linear(ones(3, 4), ones(5, 2), ones(2))
        with pytest.raises(T.ShapeMismatch):  # bias not [d_out]
            T.linear(ones(3, 4), ones(4, 2), ones(4))
        with pytest.raises(T.ShapeMismatch):  # gain not [d]
            T.layernorm(ones(3, 4), ones(3), ones(4))
        with pytest.raises(T.ShapeMismatch):  # odd width cannot be halved
            glu(ones(3, 5))
        with pytest.raises(T.ShapeMismatch):  # a level stack needs one weight per level
            T.linear(ones(2, 3, 4), ones(4, 2), ones(2))
        with pytest.raises(T.ShapeMismatch):  # two levels' weights for three levels
            T.linear(ones(3, 3, 4), ones(2, 4, 2), ones(2, 2))
        with pytest.raises(T.ShapeMismatch):  # a sequence of per-level tensors, not one stack
            T.layernorm(ones(2, 3, 4), [ones(4), ones(4)], [ones(4), ones(4)])


# ---------------------------------------------------------------------------
# the level axis of the lookup and loss ops: each level equals its own call
# ---------------------------------------------------------------------------


def _grads_of(op, inputs, g):
    """Value and input gradients of ``sum(op(*inputs) * g)``."""
    for t in inputs:
        t.zero_grad()
    out = op(*inputs)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    return out.data, [t.grad.copy() for t in inputs]


class TestLevelAxis:
    def test_embedding_lookup_equals_each_table(self):
        """Repeated ids accumulate in the same order on every level."""
        rng = np.random.default_rng(61)
        tables = Tensor(np.array([rng.normal(size=(5, 4)) for _ in range(LEVELS)]),
                        requires_grad=True)
        ids = np.array([1, 3, 1, 0, 1])
        g = rng.normal(size=(LEVELS, 5, 4))
        out, (grads,) = _grads_of(lambda ts: T.embedding_lookup(ts, ids), [tables], g)
        for level in range(LEVELS):
            table = Tensor(tables.data[level], requires_grad=True)
            alone, (grad,) = _grads_of(lambda t: T.embedding_lookup(t, ids), [table], g[level])
            np.testing.assert_array_equal(out[level], alone)
            np.testing.assert_array_equal(grads[level], grad)
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.embedding_lookup(ps[0], ids), Tensor(g))), [tables])
        assert err < TOL

    def test_gather_last_equals_each_level(self):
        rng = np.random.default_rng(62)
        a = Tensor(rng.normal(size=(LEVELS, 4, 6)), requires_grad=True)
        ids = np.array([1, 5, 0, 1])
        g = rng.normal(size=(LEVELS, 4))
        out, (grad,) = _grads_of(lambda t: T.gather_last(t, ids), [a], g)
        for level in range(LEVELS):
            alone, (expected,) = _grads_of(lambda t: T.gather_last(t, ids),
                                           [Tensor(a.data[level], requires_grad=True)], g[level])
            np.testing.assert_array_equal(out[level], alone)
            np.testing.assert_array_equal(grad[level], expected)
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.gather_last(ps[0], ids), Tensor(g))), [a])
        assert err < TOL

    @pytest.mark.parametrize("lengths", [[4], [1, 3, 2], [5, 1, 7, 2]])
    def test_segment_means_match_the_matmul_chain(self, lengths):
        """Values and gradients equal a bias-free ``linear`` of the 1/length
        weights by the entries as a column, bit for bit, and on a level stack
        each level equals that chain on its own."""
        rng = np.random.default_rng(63 + len(lengths))
        n, k = sum(lengths), len(lengths)
        a = Tensor(rng.normal(size=(LEVELS, n)), requires_grad=True)
        g = rng.normal(size=(LEVELS, k))
        out, (grad,) = _grads_of(lambda t: T.segment_means(t, lengths), [a], g)
        owner = np.repeat(np.arange(k), lengths)
        weights = (owner == np.arange(k)[:, None]) / np.array(lengths)[:, None]
        for level in range(LEVELS):
            row = Tensor(a.data[level], requires_grad=True)

            def chain(t):
                return T.reshape(T.linear(Tensor(weights), T.reshape(t, (n, 1)), None), (k,))

            value, (expected,) = _grads_of(chain, [row], g[level])
            alone, (alone_grad,) = _grads_of(lambda t: T.segment_means(t, lengths), [row],
                                             g[level])
            for got in (out[level], alone):
                np.testing.assert_array_equal(got, value)
            for got in (grad[level], alone_grad):
                np.testing.assert_array_equal(got, expected)
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.segment_means(ps[0], lengths), Tensor(g))), [a])
        assert err < TOL
        with pytest.raises(T.ShapeMismatch):  # lengths that do not cover the entries
            T.segment_means(a, [n - 1])

    @pytest.mark.parametrize("levels", [1, 3, 4, 9])
    def test_level_sum_adds_the_main_level_last(self, levels):
        """Levels 1, 2, ... have the bits of ``add`` nodes chained in order,
        then level 0 is added; from three levels on that differs in the bits
        from the ``add`` chain in level order. Every level's gradient is the
        upstream one."""
        rng = np.random.default_rng(84 + levels)
        differs = False
        for width in (1, 4):
            for _ in range(50):
                a = Tensor(rng.normal(size=(levels, width)), requires_grad=True)
                chained = Tensor(a.data[1 % levels])
                for row in [*a.data[2:], a.data[0]] if levels > 1 else []:
                    chained = T.add(chained, Tensor(row))
                in_order = Tensor(a.data[0])
                for row in a.data[1:]:
                    in_order = T.add(in_order, Tensor(row))
                total = T.level_sum(a)
                np.testing.assert_array_equal(total.data, chained.data)
                differs |= total.data.tobytes() != in_order.data.tobytes()
                g = rng.normal(size=width)
                T.reduce_sum(T.mul(total, Tensor(g))).backward()
                np.testing.assert_array_equal(a.grad, np.tile(g, (levels, 1)))
        assert differs == (levels > 2), "from three levels on the order shows in the bits"
