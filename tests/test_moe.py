"""Routing layer: softmax routes and tie-breaks, top-1 dispatch exactness,
auxiliary loss formulas against loop oracles, and bound attainment."""

import math

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.moe import (
    RoutedFFN,
    Router,
    mean_importance_loss,
    moe_loss,
    sparsity_loss,
    utilization_entropy,
)
from moe_asr.tensor import Tensor


def _router_with_logit_rows(rows):
    """Router whose logits equal `rows` when fed e_c=[1], o_prev=[0]."""
    n = len(rows[0])
    router = Router(1, 1, n)
    router.weight.data[...] = 0.0
    return router


class TestRouter:
    def test_uniform_logits_tie_to_lowest_index(self):
        router = _router_with_logit_rows([[0.0, 0.0]])
        rec = router.route(Tensor([[1.0]]), Tensor([[0.0]]))
        np.testing.assert_allclose(rec.p.data, [[0.5, 0.5]], atol=0)
        assert rec.selected.tolist() == [0]
        assert rec.gates.tolist() == [0.5]

    def test_analytic_softmax_route(self):
        router = Router(1, 1, 2)
        router.weight.data[...] = [[math.log(3.0), 0.0], [0.0, 0.0]]
        rec = router.route(Tensor([[1.0]]), Tensor([[0.0]]))
        np.testing.assert_allclose(rec.p.data, [[0.75, 0.25]], atol=1e-12)
        assert rec.selected.tolist() == [0]
        np.testing.assert_allclose(rec.gates, [0.75], atol=1e-12)

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
        assert not np.allclose(base.gates, scaled.gates)

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
        expected = layer.experts[0].forward(x).data * rec.gates[:, None]
        np.testing.assert_allclose(y.data, expected, atol=1e-12)

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
        assert utilization_entropy([12, 0, 0, 0]) == 0.0
