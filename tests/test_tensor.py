"""Autodiff core: forward values against closed forms and loop oracles,
gradients against finite differences."""

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.tensor import Tensor


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
        out = T.glu(Tensor(x)).data
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
        out = T.depthwise_conv1d(Tensor(x), Tensor(w)).data

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

    def test_scatter_rows_inverts_gather(self):
        vals = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        out = T.scatter_rows(vals, np.array([2, 0]), length=4)
        expected = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(out.data, expected)

    def test_shape_mismatch_raises(self):
        with pytest.raises(T.ShapeMismatch):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        with pytest.raises(T.ShapeMismatch):
            T.depthwise_conv1d(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3))))


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

    def test_shared_node_gradients_sum(self):
        """y = x + x pushes gradient 2 into x through both edges."""
        x = Tensor(np.array([5.0]), requires_grad=True)
        T.reduce_sum(T.add(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0], atol=0)

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
        h = T.matmul(x, w)
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
    T.glu,
    lambda a: T.power(T.add(a, 3.0), 1.7),
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
            T.finite_diff_check(lambda ps: T.reduce_sum(T.power(T.add(ps[0], 3.0), 1.7)), [x])

    def test_matmul(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.matmul(ps[0], ps[1]), Tensor(w))), [a, b]
        )
        assert err < TOL

    def test_depthwise_conv_both_operands(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(6, 5))
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.depthwise_conv1d(ps[0], ps[1]), Tensor(w))),
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

    def test_gather_scatter(self):
        rng = np.random.default_rng(25)
        a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        ids = np.array([2, 0, 3])
        w1 = rng.normal(size=4)
        w2 = rng.normal(size=(5, 2))
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(
                T.mul(T.gather_last(ps[0], np.array([1, 5, 0, 2])), Tensor(w1))
            ),
            [a],
        )
        assert err < TOL
        err = T.finite_diff_check(
            lambda ps: T.reduce_sum(T.mul(T.scatter_rows(ps[1], ids, 5), Tensor(w2))),
            [a, v],
        )
        assert err < TOL

    def test_three_layer_network(self):
        """A small FFN stack: matmul, bias add, swish, affine layernorm composed."""
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
            h = T.swish(T.add(T.matmul(Tensor(x), ps[0]), ps[1]))
            h = T.layernorm(T.matmul(h, ps[2]), ps[4], ps[5])
            out = T.matmul(h, ps[3])
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
        out = T.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_train_scales_kept_units(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones((200, 50)))
        out = T.dropout(x, 0.25, rng, training=True).data
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02


# ---------------------------------------------------------------------------
# batched attention against a per-head loop
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


# (Tq, Tk, causal): cross-attention reads a longer memory; causal
# self-attention masks every key after the query.
ATTENTION_CASES = {"cross": (5, 7, False), "causal": (6, 6, True)}


def _attention_inputs(case, seed=40):
    tq, tk, causal = ATTENTION_CASES[case]
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(rng.normal(size=(t, 8)), requires_grad=True) for t in (tq, tk, tk))
    mask = np.triu(np.ones((tq, tk), dtype=bool), k=1) if causal else None
    return q, k, v, mask, rng.normal(size=(tq, 8))


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_matches_per_head_loop_exactly(self, case, heads):
        q, k, v, mask, _ = _attention_inputs(case)
        out = T.attention(q, k, v, heads, mask)
        expected = _per_head_attention(q.data, k.data, v.data, heads, mask)
        np.testing.assert_array_equal(out.data, expected)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_finite_differences(self, case, heads):
        q, k, v, mask, w = _attention_inputs(case)

        def f(ps):
            return T.reduce_sum(T.mul(T.attention(ps[0], ps[1], ps[2], heads, mask), Tensor(w)))

        # eps 1e-4: the last causal key's gradient is ~1e-5, where the
        # roundoff of a 1e-5 central difference alone is ~1e-6 relative.
        assert T.finite_diff_check(f, [q, k, v], eps=1e-4) < TOL

    def test_masked_keys_get_zero_weight_and_gradient(self):
        """Key 2 is hidden from every query: its weight, and the gradient
        into its key and value rows, are exactly zero."""
        rng = np.random.default_rng(41)
        tq, tk, heads = 5, 6, 2
        mask = rng.random((tq, tk)) < 0.5
        mask[:, 0] = False
        mask[:, 2] = True
        q, k = (Tensor(rng.normal(size=(t, 8)), requires_grad=True) for t in (tq, tk))
        v = Tensor(rng.normal(size=(tk, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(tq, 8)))
        T.reduce_sum(T.mul(T.attention(q, k, v, heads, mask), w)).backward()
        assert np.all(k.grad[2] == 0.0) and np.all(v.grad[2] == 0.0)
        assert np.all(k.grad[[0, 1, 3, 4, 5]].any(axis=1))
        # Per-head identity values turn each head's context into its weights.
        weights = T.attention(q.data, k.data, np.tile(np.eye(tk), heads), heads, mask).data
        for head in np.split(weights, heads, axis=1):
            assert np.all(head[mask] == 0.0) and np.all(head[~mask] > 0.0)

    def test_shape_mismatch_raises(self):
        def ones(*shape):
            return Tensor(np.ones(shape))

        with pytest.raises(T.ShapeMismatch):  # query and key widths differ
            T.attention(ones(3, 8), ones(4, 6), ones(4, 8), 2)
        with pytest.raises(T.ShapeMismatch):  # key and value lengths differ
            T.attention(ones(3, 8), ones(4, 8), ones(5, 8), 2)
        with pytest.raises(T.ShapeMismatch):  # width not divisible by heads
            T.attention(ones(3, 6), ones(4, 6), ones(4, 6), 4)
        with pytest.raises(T.ShapeMismatch):  # mask not [Tq, Tk]
            T.attention(ones(3, 8), ones(4, 8), ones(4, 8), 2, np.zeros((4, 3), dtype=bool))


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
    "glu": (T.glu, lambda rows: [(rows, 8)], 4, _unfused_glu),
}


def _fused_inputs(name, rows, seed=50):
    op, shapes, width, reference = FUSED_OPS[name]
    rng = np.random.default_rng(seed + rows)
    inputs = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes(rows)]
    return op, inputs, rng.normal(size=(rows, width)), reference


class TestFusedOps:
    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("name", sorted(FUSED_OPS))
    def test_matches_unfused_exactly(self, name, rows):
        """Output and every input gradient equal the unfused graph's bits."""
        op, inputs, g, reference = _fused_inputs(name, rows)
        out = op(*inputs)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        expected = reference(*[t.data for t in inputs], g)
        got = [out.data] + [t.grad for t in inputs]
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
            T.glu(ones(3, 5))
