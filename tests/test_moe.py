"""Routing layer: softmax routes and tie-breaks, top-1 dispatch exactness,
the fused feed-forward and routed ops against the unfused chain in plain
numpy, auxiliary loss formulas against loop oracles, and bound attainment."""

import copy
import math

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.features import utterance_rng
from moe_asr.nn import Dropout, FeedForward, Parameter, joined_mask
from moe_asr.moe import (
    RoutedFFN,
    Router,
    mean_importance_loss,
    moe_loss,
    sparsity_loss,
    utilization_entropy,
)
from moe_asr.tensor import Tensor
from moe_asr.training import Adam, clip_gradients


def _router_with_logit_rows(rows):
    """Router whose logits equal `rows` when fed e_c=[1], o_prev=[0]."""
    n = len(rows[0])
    router = Router(1, 1, n).allocate()
    router.weight.data[...] = 0.0
    return router



def _gates(rec):
    """Each frame's winning probability, read off the record's ``p`` at
    its ``selected`` expert."""
    return rec.p.data[np.arange(len(rec.selected)), rec.selected]


class TestRouter:
    def test_uniform_logits_tie_to_lowest_index(self):
        router = _router_with_logit_rows([[0.0, 0.0]])
        rec = router.route(Tensor([[1.0]]), Tensor([[0.0]]))
        np.testing.assert_allclose(rec.p.data, [[0.5, 0.5]], atol=0)
        assert rec.selected.tolist() == [0]
        assert _gates(rec).tolist() == [0.5]

    def test_analytic_softmax_route(self):
        router = Router(1, 1, 2).allocate()
        router.weight.data[...] = [[math.log(3.0), 0.0], [0.0, 0.0]]
        rec = router.route(Tensor([[1.0]]), Tensor([[0.0]]))
        np.testing.assert_allclose(rec.p.data, [[0.75, 0.25]], atol=1e-12)
        assert rec.selected.tolist() == [0]
        np.testing.assert_allclose(_gates(rec), [0.75], atol=1e-12)

    def test_unequal_row_counts_refused(self):
        """The embedding and the hidden states are concatenated row by row:
        ``concat_last`` refuses row counts that differ."""
        router = Router(1, 1, 2).allocate()
        with pytest.raises(T.ShapeMismatch,
                           match=r"^concat-last-dim: incompatible shapes \(2, 1\) vs \(3, 1\)$"):
            router.route(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_expert_counts_accepted(self, n):
        layer = RoutedFFN(4, 8, n_experts=n, d_emb=2, routed=True).initialize(0)
        layer.eval()
        y, rec = layer.forward(
            Tensor(np.random.default_rng(n).normal(size=(5, 4))),
            e_c=Tensor(np.random.default_rng(n + 1).normal(size=(5, 2))),
        )
        assert y.data.shape == (5, 4)
        assert rec.p.data.shape == (5, n)

    def test_scaling_logits_never_changes_argmax(self):
        rng = np.random.default_rng(50)
        router = Router(3, 4, 8).initialize(1)
        e_c = Tensor(rng.normal(size=(12, 3)))
        o = Tensor(rng.normal(size=(12, 4)))
        base = router.route(e_c, o)
        router.weight.data *= 7.5
        scaled = router.route(e_c, o)
        np.testing.assert_array_equal(base.selected, scaled.selected)
        assert not np.allclose(_gates(base), _gates(scaled))

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(51)
        router = Router(2, 2, 5).initialize(2)
        rec = router.route(Tensor(rng.normal(size=(9, 2))), Tensor(rng.normal(size=(9, 2))))
        np.testing.assert_allclose(rec.p.data.sum(axis=-1), np.ones(9), atol=1e-12)
        np.testing.assert_array_equal(rec.selected, np.argmax(rec.p.data, axis=-1))


class TestDispatch:
    def _layer(self, n=4, d=6, seed=0):
        layer = RoutedFFN(d, 10, n_experts=n, d_emb=3, routed=True).initialize(seed)
        layer.eval()
        return layer

    def test_identical_experts_match_shared_ffn(self):
        """When all experts carry the same weights the winner is irrelevant:
        output equals gate times the shared FFN applied to every frame."""
        layer = self._layer()
        for expert in layer.experts[1:]:
            for name, param in expert.named_parameters().items():
                param.data[...] = layer.experts[0].named_parameters()[name].data
        rng = np.random.default_rng(52)
        x = Tensor(rng.normal(size=(7, 6)))
        e_c = Tensor(rng.normal(size=(7, 3)))
        y, rec = layer.forward(x, e_c)
        shared = layer.experts[0].forward(x).data - x.data
        np.testing.assert_allclose(y.data, x.data + shared * _gates(rec)[:, None], atol=1e-12)

    def test_every_frame_processed_exactly_once(self):
        layer = self._layer(seed=3)
        rng = np.random.default_rng(53)
        x = Tensor(rng.normal(size=(40, 6)))
        e_c = Tensor(rng.normal(size=(40, 3)))
        _, rec = layer.forward(x, e_c)
        util = rec.utilization(4)
        assert util.sum() == 40

    def test_unselected_expert_gradient_exactly_zero(self):
        # Two frames cannot cover three experts, so one is always idle.
        layer = self._layer(n=3, seed=4)
        rng = np.random.default_rng(54)
        x = Tensor(rng.normal(size=(2, 6)))
        e_c = Tensor(rng.normal(size=(2, 3)))
        y, rec = layer.forward(x, e_c)
        T.reduce_sum(y).backward()
        unselected = set(range(3)) - set(rec.selected.tolist())
        assert unselected, "seed must leave at least one expert idle"
        for idx in unselected:
            for param in layer.experts[idx].named_parameters().values():
                assert np.all(param.grad == 0.0)
        selected_grads = [
            np.abs(p.grad).sum()
            for idx in set(rec.selected.tolist())
            for p in layer.experts[idx].named_parameters().values()
        ]
        assert max(selected_grads) > 0

    def test_gradient_check_with_frozen_route(self):
        layer = self._layer(n=3, d=5, seed=5)
        rng = np.random.default_rng(55)
        x = np.random.default_rng(56).normal(size=(4, 5))
        e_c = np.random.default_rng(57).normal(size=(4, 3))
        _, rec = layer.forward(Tensor(x), Tensor(e_c))
        frozen = rec.selected.copy()
        w = rng.normal(size=(4, 5))
        params = list(layer.named_parameters().values())

        def f(ps):
            y, _ = layer.forward(Tensor(x), Tensor(e_c), frozen_selected=frozen)
            return T.reduce_sum(T.mul(y, Tensor(w)))

        assert T.finite_diff_check(f, params, max_coords_per_param=4) < 1e-4

    def test_missing_embedding_rejected(self):
        layer = self._layer()
        with pytest.raises(ValueError, match="embedding"):
            layer.forward(Tensor(np.zeros((3, 6))))

    def test_dense_mode_returns_no_record(self):
        layer = RoutedFFN(6, 10).initialize(0)
        layer.eval()
        y, rec = layer.forward(Tensor(np.random.default_rng(58).normal(size=(4, 6))))
        assert rec is None
        assert y.data.shape == (4, 6)
        assert set(layer.named_parameters()) == {
            n for n in layer.named_parameters() if n.startswith("experts.0.")
        }


# ---------------------------------------------------------------------------
# T.ffn and T.routed_ffn against the unfused chain in plain numpy
# ---------------------------------------------------------------------------


def _ffn_chain(x, gamma, beta, w1, b1, w2, b2, m1, m2, g, eps=1e-5):
    """The six-node chain (layernorm, linear, swish, dropout, linear,
    dropout) in plain numpy, each step as its own node computed it. Returns
    the output and the gradients of x and the six parameters for upstream
    `g`. Masks of 1.0 are eval mode: multiplying by 1.0 changes no bit."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    y = xc * inv
    n = y * gamma + beta
    h = n @ w1 + b1
    s = 1.0 / (1.0 + np.exp(-h))
    a = h * s * m1
    out = (a @ w2 + b2) * m2
    g2 = g * m2
    gh = (g2 @ w2.T) * m1 * s * (1.0 + h * (1.0 - s))
    gn = gh @ w1.T
    gy = gn * gamma
    gx = inv * (gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True))
    return out, [gx, (gn * y).sum(axis=0), gn.sum(axis=0), n.T @ gh, gh.sum(axis=0),
                 a.T @ g2, g2.sum(axis=0)]


def _routed_chain(x, p, selected, experts, g):
    """The unfused routed layer: per used expert an embedding lookup of its
    rows and its chain, the outputs scattered back into frame order, times
    the gate gathered from p. Returns the output and the gradients of x, p
    and each used expert's six parameters."""
    frames = np.arange(x.shape[0])
    gate = p[frames, selected][:, None]
    y, gx, grads = np.zeros_like(x), np.zeros_like(x), []
    for e, arrays in zip(np.unique(selected), experts):
        rows = np.nonzero(selected == e)[0]
        y[rows], (gx[rows], *expert_grads) = _ffn_chain(x[rows], *arrays, (g * gate)[rows])
        grads += expert_grads
    gp = np.zeros_like(p)
    np.add.at(gp, (frames, selected), (g * y).sum(axis=1))
    return y * gate, [gx, gp, *grads]


def _plus_residual(chain, x, c, *args):
    """``x + c * f`` and its gradients from ``chain(x, *args, upstream)``,
    which gives f and f's gradients, x's first; the last of `args` is the
    upstream gradient g. x's two flows add as the engine adds them: the
    residual's g, then f's."""
    *args, g = args
    out, grads = chain(x, *args, g * c)
    return x + out * c, [g + grads[0], *grads[1:]]


def _mask(rng, shape, p=0.3):
    """A dropout mask as the fused ops take it: (keep, 1/(1-p))."""
    return rng.random(shape) >= p, 1.0 / (1.0 - p)


def _join(masks, join):
    """The masks of a stack's members, all at one rate, as one mask: the
    keep arrays joined by `join` (``np.array`` for levels, ``np.concatenate``
    for rows in dispatch order) and their one scale; None for eval mode."""
    return None if masks[0] is None else (join([m[0] for m in masks]), masks[0][1])


def _expert(rng, rows, d=6, d_ff=10, train=True, p=0.3):
    """Six random parameters and, in train mode, two masks at rate `p` for
    `rows` rows."""
    params = [rng.normal(1.0, 0.2, d), rng.normal(0.0, 0.1, d), rng.normal(0.0, 0.4, (d, d_ff)),
              rng.normal(0.0, 0.1, d_ff), rng.normal(0.0, 0.4, (d_ff, d)), rng.normal(0.0, 0.1, d)]
    masks = [_mask(rng, (rows, d_ff), p), _mask(rng, (rows, d), p)] if train else [None, None]
    return [Tensor(a, requires_grad=True) for a in params], masks


def _stacked(groups):
    """The six [K, ...] leaves of K experts' or levels' parameter lists,
    slice k holding group k's values."""
    return [Tensor(np.array([ps[k].data for ps in groups]), requires_grad=True)
            for k in range(6)]


def _expert_stacks(experts, selected, n_experts=4):
    """``T.routed_ffn``'s operands for the used experts' (parameters,
    masks) in ascending index order: the six [E, ...] leaves, each used
    expert at its index and random parameters for an idle one, then the two
    masks over the rows in dispatch order. Returns (leaves, masks, used)."""
    counts = np.bincount(selected, minlength=n_experts)
    used = np.flatnonzero(counts)
    groups = [_expert(np.random.default_rng(200 + e), 0)[0] for e in range(n_experts)]
    for e, (ps, _) in zip(used, experts):
        groups[e] = ps
    masks = [_join([ms[k] for _, ms in experts], np.concatenate) for k in (0, 1)]
    return _stacked(groups), masks, used


def _arrays(params, masks):
    """An expert's plain arrays for the chain; a mask is its float mask
    keep * scale, and a missing one 1.0."""
    return [t.data for t in params] + [1.0 if m is None else m[0] * m[1] for m in masks]


def _assert_bits(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


# selection per frame of 4 experts: a one-row expert and idle experts
# the residual factor per row count: the decoder's 1, a macaron half step
FACTORS = {1: 1.0, 5: 0.5}
SELECTIONS = {
    "one-row-and-idle": [2, 0, 2, 3, 0, 2, 0],
    "all-on-one": [1, 1, 1, 1, 1],
    "single-frame": [3],
    "every-expert": [3, 2, 1, 0, 0, 1, 2, 3, 3],
}


class TestFusedFeedForward:
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_ffn_matches_chain_exactly(self, rows, train):
        rng = np.random.default_rng(70 + rows)
        params, masks = _expert(rng, rows, train=train)
        x = Tensor(rng.normal(size=(rows, 6)), requires_grad=True)
        g = rng.normal(size=(rows, 6))
        out = T.ffn(x, FACTORS[rows], *params, *masks)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        ref_out, ref_grads = _plus_residual(_ffn_chain, x.data, FACTORS[rows],
                                            *_arrays(params, masks), g)
        _assert_bits([out.data, x.grad] + [t.grad for t in params], [ref_out, *ref_grads])

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("case", sorted(SELECTIONS))
    def test_routed_matches_chain_exactly(self, case, train):
        """Values and gradients of x, p and every used expert equal the
        unfused layer's bits. This also covers what the deleted
        ``T.scatter_rows`` was tested for: every row lands back at its own
        frame, and its gradient flows back to that row only."""
        selected = np.array(SELECTIONS[case])
        rng = np.random.default_rng(80 + len(case))
        experts = [_expert(rng, c, train=train) for c in np.bincount(selected) if c]
        x = Tensor(rng.normal(size=(len(selected), 6)), requires_grad=True)
        raw = rng.random((len(selected), 4)) + 0.1
        p = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
        g = rng.normal(size=x.shape)
        stacks, masks, used = _expert_stacks(experts, selected)
        out = T.routed_ffn(x, 0.5, p, selected, *stacks, *masks)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        ref_out, ref_grads = _plus_residual(
            _routed_chain, x.data, 0.5, p.data, selected,
            [_arrays(ps, ms) for ps, ms in experts], g)
        got = [out.data, x.grad, p.grad] + [t.grad[e] for e in used for t in stacks]
        _assert_bits(got, [ref_out, *ref_grads])
        idle = np.setdiff1d(np.arange(4), used)
        assert all(t.grad[idle].tobytes() == bytes(t.grad[idle].nbytes) for t in stacks)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_level_stacked_ffn_matches_each_level_exactly(self, rows, train):
        """x [3, rows, d] with one expert's parameters and masks per level:
        every level's output and gradients equal the chain on its own, so
        they equal a call without levels."""
        rng = np.random.default_rng(75 + rows)
        levels = [_expert(rng, rows, train=train) for _ in range(3)]
        x = Tensor(rng.normal(size=(3, rows, 6)), requires_grad=True)
        g = rng.normal(size=(3, rows, 6))
        masks = [_join([ms[k] for _, ms in levels], np.array) for k in (0, 1)]
        params = _stacked([ps for ps, _ in levels])
        out = T.ffn(x, FACTORS[rows], *params, *masks)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        for level, (ps, ms) in enumerate(levels):
            ref_out, ref_grads = _plus_residual(_ffn_chain, x.data[level], FACTORS[rows],
                                                *_arrays(ps, ms), g[level])
            _assert_bits([out.data[level], x.grad[level]] + [t.grad[level] for t in params],
                         [ref_out, *ref_grads])

    def test_level_stacked_ffn_finite_differences(self):
        rng = np.random.default_rng(96)
        levels = [_expert(rng, 4) for _ in range(2)]
        x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=(2, 4, 6)))
        masks = [_join([ms[k] for _, ms in levels], np.array) for k in (0, 1)]
        leaves = [x] + _stacked([ps for ps, _ in levels])
        f = lambda ps: T.reduce_sum(T.mul(T.ffn(ps[0], 0.5, *ps[1:], *masks), g))  # noqa: E731
        assert T.finite_diff_check(f, leaves) < 1e-6

    @pytest.mark.parametrize("rows", [1, 5])
    def test_ffn_finite_differences(self, rows):
        rng = np.random.default_rng(90 + rows)
        params, masks = _expert(rng, rows)
        x = Tensor(rng.normal(size=(rows, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=(rows, 6)))
        f = lambda ps: T.reduce_sum(T.mul(T.ffn(ps[0], 0.5, *ps[1:], *masks), g))  # noqa: E731
        assert T.finite_diff_check(f, [x, *params]) < 1e-6

    def test_routed_finite_differences(self):
        selected = np.array(SELECTIONS["one-row-and-idle"])
        rng = np.random.default_rng(95)
        experts = [_expert(rng, c) for c in np.bincount(selected) if c]
        x = Tensor(rng.normal(size=(len(selected), 6)), requires_grad=True)
        p = Tensor(rng.random((len(selected), 4)) + 0.1, requires_grad=True)
        g = Tensor(rng.normal(size=x.shape))
        stacks, masks, _ = _expert_stacks(experts, selected)

        def f(ps):
            return T.reduce_sum(T.mul(T.routed_ffn(ps[0], 0.5, ps[1], selected, *ps[2:], *masks),
                                      g))

        assert T.finite_diff_check(f, [x, p] + stacks) < 1e-6

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(96)
        params, masks = _expert(rng, 3)
        x = Tensor(np.ones((3, 6)))
        with pytest.raises(T.ShapeMismatch):  # input width is not the gain's
            T.ffn(Tensor(np.ones((3, 5))), 1.0, *params)
        with pytest.raises(T.ShapeMismatch):  # expand and project disagree
            T.ffn(x, 1.0, *params[:4], Tensor(np.ones((9, 6))), params[5])
        with pytest.raises(T.ShapeMismatch):  # a mask for another row count
            T.ffn(x, 1.0, *params, (masks[0][0][:2], masks[0][1]), None)
        with pytest.raises(T.ShapeMismatch):  # a float mask where the bool one goes
            T.ffn(x, 1.0, *params, (masks[0][0] * masks[0][1], 1.0), None)
        with pytest.raises(T.ShapeMismatch):  # a scale per level, not one number
            T.ffn(x, 1.0, *params, (masks[0][0], np.ones((3, 1, 1))), None)
        with pytest.raises(T.ShapeMismatch):  # a scale per row, not one number
            T.ffn(x, 1.0, *params, (masks[0][0], np.ones((3, 1))), None)
        p = Tensor(np.full((3, 4), 0.25))
        with pytest.raises(T.ShapeMismatch):  # four experts routed, one expert's parameters
            T.routed_ffn(x, 1.0, p, [0, 1, 1], *_stacked([params]))
        stacks = _stacked([params] * 4)
        with pytest.raises(T.ShapeMismatch):  # a mask for another row count
            T.routed_ffn(x, 1.0, p, [0, 0, 2], *stacks, (masks[0][0][:2], masks[0][1]), None)
        with pytest.raises(T.ShapeMismatch):  # an expert that p does not score
            T.routed_ffn(x, 1.0, p, [0, 4, 2], *stacks)
        with pytest.raises(T.ShapeMismatch):  # one expert's parameters where a stack goes
            T.routed_ffn(x, 1.0, p, [0, 0, 2], *params)
        with pytest.raises(ValueError, match="must be a leaf"):  # a stack an op computed
            T.routed_ffn(x, 1.0, p, [0, 0, 2], *stacks[:2], T.mul(stacks[2], 1.0), *stacks[3:])


class TestDropoutRates:
    """A fused node keeps a dropout mask as its bool keep array and one
    scale: values and every gradient keep the bits of the float mask at
    each rate, on a level stack and among routed rows. The members of a
    stack share the rate; a member of another rate or mode is refused."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_level_stack_with_a_level_without_dropout(self, p):
        """``joined_mask`` stacks the levels' masks, each drawn from its own
        stream, with their one scale; a middle level whose dropout is off,
        at rate 0 or in eval mode, is refused rather than filled with kept
        rows."""
        drops = [Dropout(p) for _ in range(3)]
        for level, drop in enumerate(drops):
            drop.seed(110, f"levels.{level}.dropout")
        keep, scale = joined_mask([(d, (5, 10)) for d in drops], np.array)
        streams = [utterance_rng(110, f"levels.{level}.dropout", 1) for level in range(3)]
        np.testing.assert_array_equal(keep, [s.random((5, 10)) >= p for s in streams])
        assert scale == 1.0 / (1.0 - p)
        for off in (Dropout(p).eval(), Dropout(0.0)):
            with pytest.raises(ValueError, match="differ in dropout"):
                joined_mask([(d, (5, 10)) for d in (drops[0], off, drops[2])], np.array)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_routed_with_idle_experts(self, p):
        """Experts 0, 2 and 3 of 4 are used at rate `p`, 1 is idle."""
        selected = np.array(SELECTIONS["one-row-and-idle"])
        rng = np.random.default_rng(111)
        used = np.flatnonzero(np.bincount(selected))
        experts = [_expert(rng, np.sum(selected == e), p=p) for e in used]
        x = Tensor(rng.normal(size=(len(selected), 6)), requires_grad=True)
        raw = rng.random((len(selected), 4)) + 0.1
        gate = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
        g = rng.normal(size=x.shape)
        stacks, masks, used = _expert_stacks(experts, selected)
        out = T.routed_ffn(x, 0.5, gate, selected, *stacks, *masks)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        ref_out, ref_grads = _plus_residual(
            _routed_chain, x.data, 0.5, gate.data, selected,
            [_arrays(ps, ms) for ps, ms in experts], g)
        got = [out.data, x.grad, gate.grad] + [t.grad[e] for e in used for t in stacks]
        _assert_bits(got, [ref_out, *ref_grads])

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_routed_layer_module(self, p):
        """The module's own streams at rate `p`, idle experts included."""
        layer = RoutedFFN(6, 10, n_experts=4, d_emb=3, dropout=p, routed=True)
        layer.initialize(15).train()
        streams = [[copy.deepcopy(e.dropout1.rng), copy.deepcopy(e.dropout2.rng)]
                   for e in layer.experts]
        rng = np.random.default_rng(98)
        x = Tensor(rng.normal(size=(7, 6)), requires_grad=True)
        g = rng.normal(size=(7, 6))
        frozen = [3, 3, 0, 1, 3, 0, 0]
        out, rec = layer.forward(x, Tensor(rng.normal(size=(7, 3))), frozen_selected=frozen, c=0.5)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        counts = np.bincount(frozen, minlength=4)
        experts = [(list(layer.experts[e].named_parameters().values()),
                    [_mask(s, (counts[e], w), p) for s, w in zip(streams[e], (10, 6))])
                   for e in np.flatnonzero(counts)]
        ref_out, ref_grads = _plus_residual(
            _routed_chain, x.data, 0.5, rec.p.data, rec.selected,
            [_arrays(ps, ms) for ps, ms in experts], g)
        assert out.data.tobytes() == ref_out.tobytes()
        _assert_bits([t.grad for ps, _ in experts for t in ps], ref_grads[2:])
        assert np.all(layer.experts[2].w1.weight.grad == 0.0)

    def test_idle_slabs_keep_their_bytes(self):
        """Backward adds only the used experts' gradients into the arena:
        over a sentinel gradient, with signed zeros that an added 0.0 would
        flip, each idle expert's slabs keep their bytes and each used
        expert's hold the sentinel plus its chain's gradient, bit for bit."""
        layer = RoutedFFN(6, 10, n_experts=5, d_emb=3, dropout=0.3, routed=True)
        layer.initialize(16).train()
        streams = [[copy.deepcopy(e.dropout1.rng), copy.deepcopy(e.dropout2.rng)]
                   for e in layer.experts]
        sentinel = np.random.default_rng(17).normal(size=layer.arena.grad.size)
        sentinel[::3] = -0.0
        layer.arena.grad[...] = sentinel
        before = [[t.grad.copy() for t in e.named_parameters().values()] for e in layer.experts]
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(7, 6)), requires_grad=True)
        g = rng.normal(size=(7, 6))
        frozen = [3, 3, 0, 3, 3, 0, 0]
        out, rec = layer.forward(x, Tensor(rng.normal(size=(7, 3))), frozen_selected=frozen, c=0.5)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        counts = np.bincount(frozen, minlength=5)
        used = np.flatnonzero(counts)
        experts = [(list(layer.experts[e].named_parameters().values()),
                    [_mask(s, (counts[e], w)) for s, w in zip(streams[e], (10, 6))])
                   for e in used]
        _, ref_grads = _plus_residual(_routed_chain, x.data, 0.5, rec.p.data, rec.selected,
                                      [_arrays(ps, ms) for ps, ms in experts], g)
        want = [b + r for b, r in zip([b for e in used for b in before[e]], ref_grads[2:])]
        _assert_bits([t.grad for ps, _ in experts for t in ps], want)
        for e in (1, 2, 4):
            for t, b in zip(layer.experts[e].named_parameters().values(), before[e]):
                assert t.grad.tobytes() == b.tobytes()

    @pytest.mark.parametrize("change", ["rate", "mode"])
    def test_routed_layer_refuses_an_expert_of_another_dropout(self, change):
        """A used expert whose dropout is off (rate 0, or eval mode) beside
        experts at rate 0.3 is refused before the node runs; as an idle
        expert it draws nothing and the layer runs."""
        layer = RoutedFFN(6, 10, n_experts=4, d_emb=3, dropout=0.3, routed=True)
        layer.initialize(15).train()
        if change == "rate":
            layer.experts[1].dropout2.p = 0.0
        else:
            layer.experts[1].dropout1.eval()
        rng = np.random.default_rng(99)
        x, e_c = Tensor(rng.normal(size=(7, 6))), Tensor(rng.normal(size=(7, 3)))
        with pytest.raises(ValueError, match="differ in dropout"):
            layer.forward(x, e_c, frozen_selected=[3, 3, 0, 1, 3, 0, 0])
        layer.forward(x, e_c, frozen_selected=[3, 3, 0, 2, 3, 0, 0])


class TestFusedLayers:
    """The modules' wiring: each expert's own parameters and dropout
    streams (cloned before the forward), against the plain-numpy chain."""

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_feed_forward_matches_chain(self, train):
        ffn = FeedForward(6, 10, dropout=0.3).initialize(12).train(train)
        streams = [copy.deepcopy(ffn.dropout1.rng), copy.deepcopy(ffn.dropout2.rng)]
        rng = np.random.default_rng(97)
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        g = rng.normal(size=(5, 6))
        out = ffn.forward(x, 0.5)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        params = list(ffn.named_parameters().values())
        masks = [_mask(s, (5, w)) for s, w in zip(streams, (10, 6))] if train else [None, None]
        ref_out, ref_grads = _plus_residual(_ffn_chain, x.data, 0.5, *_arrays(params, masks), g)
        _assert_bits([out.data, x.grad] + [t.grad for t in params], [ref_out, *ref_grads])

    @pytest.mark.parametrize("frozen", [None, [3, 3, 0, 1, 3, 0, 0]], ids=["live", "frozen"])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_routed_layer_matches_chain(self, train, frozen):
        """A frozen selection (acceptance check 2 pins one) takes the place of
        the router's argmax; idle experts keep an exactly zero gradient."""
        layer = RoutedFFN(6, 10, n_experts=4, d_emb=3, dropout=0.3, routed=True)
        layer.initialize(15).train(train)
        streams = [[copy.deepcopy(e.dropout1.rng), copy.deepcopy(e.dropout2.rng)]
                   for e in layer.experts]
        rng = np.random.default_rng(98)
        x = Tensor(rng.normal(size=(7, 6)), requires_grad=True)
        e_c = Tensor(rng.normal(size=(7, 3)))
        g = rng.normal(size=(7, 6))
        out, rec = layer.forward(x, e_c, frozen_selected=frozen, c=0.5)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        if frozen is not None:
            np.testing.assert_array_equal(rec.selected, frozen)
        counts = np.bincount(rec.selected, minlength=4)
        used = np.flatnonzero(counts)
        assert 0 in counts and 1 in counts, "the seed must leave an expert idle and one with a row"
        experts = []
        for e in used:
            params = list(layer.experts[e].named_parameters().values())
            masks = ([_mask(s, (counts[e], w)) for s, w in zip(streams[e], (10, 6))]
                     if train else [None, None])
            experts.append((params, masks))
        ref_out, ref_grads = _plus_residual(
            _routed_chain, x.data, 0.5, rec.p.data, rec.selected,
            [_arrays(ps, ms) for ps, ms in experts], g)
        # x's last consumer is the router: softmax, then matmul, then concat.
        P, gp = rec.p.data, ref_grads[1]
        g_logits = P * (gp - (gp * P).sum(axis=-1, keepdims=True))
        g_route = (g_logits @ layer.router.weight.data.T)[:, 3:]
        got = [out.data, x.grad] + [t.grad for ps, _ in experts for t in ps]
        _assert_bits(got, [ref_out, ref_grads[0] + g_route, *ref_grads[2:]])
        for e in set(range(4)) - set(used):
            assert not layer.experts[e].arena and all(
                np.all(t.grad == 0.0) for t in layer.experts[e].named_parameters().values())

    def test_idle_expert_never_drifts(self):
        """Backward adds an idle expert's exact zero gradient; the clip and
        an Adam step then leave its parameters and moments bit-unchanged,
        while the used experts move."""
        layer = RoutedFFN(6, 10, n_experts=4, d_emb=3, dropout=0.3, routed=True)
        layer.initialize(16).train()
        rng = np.random.default_rng(100)
        x = Tensor(rng.normal(size=(7, 6)), requires_grad=True)
        out, _ = layer.forward(x, Tensor(rng.normal(size=(7, 3))),
                               frozen_selected=[3, 3, 0, 1, 3, 0, 0], c=0.5)
        T.reduce_sum(T.mul(out, Tensor(rng.normal(size=(7, 6))))).backward()
        entries, _ = layer.arena.layout("experts.2.")
        start = layer.arena.offsets["experts.2." + entries[0][0]]
        idle = slice(start, start + sum(math.prod(shape) for _, shape, _ in entries))
        before, zeros = layer.arena.data.copy(), bytes(8 * (idle.stop - idle.start))
        assert layer.arena.grad[idle].tobytes() == zeros
        assert clip_gradients(layer.arena, 1e-3) > 1e-3  # the clip scales
        opt = Adam(layer.arena)
        opt.step(1e-2)
        assert layer.arena.data[idle].tobytes() == before[idle].tobytes()
        assert opt.m[idle].tobytes() == zeros and opt.v[idle].tobytes() == zeros
        assert (layer.arena.data != before).any()
        # the cached [E, ...] stacks are no parameters of the layer
        params = layer.named_parameters().values()
        assert all(isinstance(t, Parameter) for t in params) and len(params) == 1 + 4 * 6

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_one_expert_layer_is_the_dense_ffn(self, train):
        """Gate 1.0 and one group: output and every gradient equal the dense
        FFN's bits, given the same parameters and dropout streams."""
        routed = RoutedFFN(6, 10, n_experts=1, d_emb=3, dropout=0.3, routed=True)
        routed.initialize(14).train(train)
        dense = FeedForward(6, 10, dropout=0.3).initialize(0).train(train)
        dense.arena.data[...] = routed.arena.layout("experts.0.")[1]
        dense.dropout1.seed(14, "experts.0.dropout1")
        dense.dropout2.seed(14, "experts.0.dropout2")
        rng = np.random.default_rng(99)
        x = rng.normal(size=(6, 6))
        e_c = Tensor(rng.normal(size=(6, 3)))
        g = Tensor(rng.normal(size=(6, 6)))
        xr, xd = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out, rec = routed.forward(xr, e_c, c=0.5)
        ref = dense.forward(xd, 0.5)
        T.reduce_sum(T.mul(out, g)).backward()
        T.reduce_sum(T.mul(ref, g)).backward()
        assert _gates(rec).tolist() == [1.0] * 6
        # experts.0 is the routed arena's tail, after the router weight
        expert_grads = routed.arena.grad[-dense.arena.grad.size:]
        _assert_bits([out.data, xr.grad, expert_grads], [ref.data, xd.grad, dense.arena.grad])


class TestAuxLosses:
    def test_sparsity_one_hot_minimum(self):
        P = Tensor(np.eye(4)[[0, 2, 1, 3, 3]])
        np.testing.assert_allclose(sparsity_loss(P).data, 1.0, atol=1e-12)

    def test_sparsity_uniform_maximum(self):
        P = Tensor(np.full((6, 4), 0.25))
        np.testing.assert_allclose(sparsity_loss(P).data, 2.0, atol=1e-12)

    def test_sparsity_matches_loop_oracle(self):
        rng = np.random.default_rng(60)
        raw = rng.random((11, 5)) + 0.01
        P = raw / raw.sum(axis=1, keepdims=True)
        total = 0.0
        for row in P:
            hat = row / math.sqrt(float((row**2).sum()))
            total += float(np.abs(hat).sum())
        expected = total / P.shape[0]
        np.testing.assert_allclose(sparsity_loss(Tensor(P)).data, expected, atol=1e-12)

    def test_importance_uniform_minimum(self):
        P = Tensor(np.full((8, 4), 0.25))
        np.testing.assert_allclose(mean_importance_loss(P, 4).data, 1.0, atol=1e-12)

    def test_importance_collapse_maximum(self):
        P = Tensor(np.tile([1.0, 0.0, 0.0, 0.0], (9, 1)))
        np.testing.assert_allclose(mean_importance_loss(P, 4).data, 4.0, atol=1e-12)

    def test_importance_matches_loop_oracle(self):
        rng = np.random.default_rng(61)
        raw = rng.random((13, 6)) + 0.01
        P = raw / raw.sum(axis=1, keepdims=True)
        means = [float(P[:, i].mean()) for i in range(6)]
        expected = 6 * sum(m * m for m in means)
        np.testing.assert_allclose(mean_importance_loss(Tensor(P), 6).data, expected, atol=1e-12)

    def test_bounds_hold_on_random_batches(self):
        rng = np.random.default_rng(62)
        for n in (2, 4, 16):
            raw = rng.random((30, n)) + 1e-6
            P = Tensor(raw / raw.sum(axis=1, keepdims=True))
            ls = float(sparsity_loss(P).data)
            lm = float(mean_importance_loss(P, n).data)
            assert 1.0 - 1e-12 <= ls <= math.sqrt(n) + 1e-12
            assert 1.0 - 1e-12 <= lm <= n + 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            sparsity_loss(Tensor(np.zeros((0, 4))))
        with pytest.raises(ValueError):
            mean_importance_loss(Tensor(np.zeros((0, 4))), 4)

    def test_moe_loss_zero_weights(self):
        assert moe_loss(None, None, None, 0.0, 0.0, 0.0).data == 0.0

    def test_moe_loss_default_weights(self):
        out = moe_loss(2.0, 1.0, 10.0, 0.15, 0.15, 0.01)
        np.testing.assert_allclose(out.data, 0.55, atol=1e-12)

    def test_moe_loss_missing_weighted_term_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            moe_loss(None, 1.0, 1.0, 0.15, 0.15, 0.01)

    def test_sparsity_gradient_check(self):
        rng = np.random.default_rng(63)
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)

        def f(ps):
            return sparsity_loss(T.softmax_last(ps[0]))

        assert T.finite_diff_check(f, [logits]) < 1e-4

    def test_importance_gradient_check(self):
        rng = np.random.default_rng(64)
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)

        def f(ps):
            return mean_importance_loss(T.softmax_last(ps[0]), 4)

        assert T.finite_diff_check(f, [logits]) < 1e-4


class TestAggregation:
    def test_utilization_entropy_limits(self):
        assert utilization_entropy([5, 5, 5, 5]) == pytest.approx(math.log(4))
        assert utilization_entropy([0, 0, 0]) == 0.0  # no frames: an empty histogram
        assert utilization_entropy([12, 0, 0, 0]) == 0.0
