"""Encoder stack: subsampling arithmetic, macaron residual structure,
tap recording, and gradient integrity through a full block."""

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.config import ModelConfig
from moe_asr.encoder import (
    MIN_INPUT_FRAMES,
    ConformerBlock,
    EmbeddingNetwork,
    Encoder,
    Subsample,
    subsampled_length,
)
from moe_asr.nn import (
    LayerNorm,
    Linear,
    MultiHeadAttention,
    sinusoidal_positions,
)
from moe_asr.tensor import Tensor


def _zero_linears(module):
    """Zero every parameter except layernorm gains (kept at identity)."""
    for name, param in module.named_parameters().items():
        if not name.endswith(("gamma", "beta")):
            param.data[...] = 0.0


class TestSubsample:
    @pytest.mark.parametrize("t_in,t_out", [(16, 3), (100, 24), (7, 1), (86, 20)])
    def test_length_formula(self, t_in, t_out):
        assert subsampled_length(t_in) == t_out
        sub = Subsample(5, 8).initialize(0)
        out = sub.forward(Tensor(np.zeros((t_in, 5))))
        assert out.data.shape == (t_out, 8)

    def test_min_input_frames_is_the_shortest_with_an_output_frame(self):
        """``MIN_INPUT_FRAMES`` (7) is the smallest t that keeps one frame
        through both kernel-3, stride-2 valid convolutions."""
        assert MIN_INPUT_FRAMES == 7
        assert [t for t in range(1, 20) if subsampled_length(t) >= 1][0] == MIN_INPUT_FRAMES
        assert subsampled_length(MIN_INPUT_FRAMES) == 1

    def test_too_short_names_minimum(self):
        sub = Subsample(5, 8).initialize(0)
        with pytest.raises(ValueError, match="7"):
            sub.forward(Tensor(np.zeros((6, 5))))

    def test_gradient_check(self):
        rng = np.random.default_rng(31)
        sub = Subsample(4, 6).initialize(3)
        sub.eval()
        x = rng.normal(size=(11, 4))
        w = rng.normal(size=(subsampled_length(11), 6))
        params = list(sub.named_parameters().values())

        def f(ps):
            return T.reduce_sum(T.mul(sub.forward(Tensor(x)), Tensor(w)))

        assert T.finite_diff_check(f, params, max_coords_per_param=4) < 1e-4


class TestConformerBlock:
    def _block(self, d=8, seed=0, **kw):
        blk = ConformerBlock(d, 2 * d, heads=2, kernel=3, **kw).initialize(seed)
        blk.eval()
        return blk

    def test_zero_weights_reduce_to_layernorm(self):
        """With every linear map zeroed each sub-module outputs zero, so the
        residual stream passes through untouched until the closing norm."""
        blk = self._block()
        _zero_linears(blk)
        x = np.random.default_rng(32).normal(size=(5, 8))
        y, _ = blk.forward(Tensor(x))
        ln = T.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(y.data, ln.data, rtol=0, atol=0)

    @pytest.mark.parametrize("t", [1, 5, 17])
    def test_shape_preserved(self, t):
        blk = self._block()
        x = np.random.default_rng(33).normal(size=(t, 8))
        y, _ = blk.forward(Tensor(x))
        assert y.data.shape == (t, 8)

    def test_zero_conv_leaves_stream_unchanged(self):
        """Zeroing only the convolution sub-module makes its residual a
        no-op: the block equals the same pipeline with conv skipped."""
        blk = self._block(seed=5)
        _zero_linears(blk.conv)
        x = Tensor(np.random.default_rng(34).normal(size=(6, 8)))

        x1 = blk.ffn1.forward(x, 0.5)
        x2 = blk.attn.forward(x1)
        x3, _ = blk.ffn2.forward(x2, c=0.5)
        expected = blk.norm_out.forward(x3)

        y, _ = blk.forward(x)
        np.testing.assert_allclose(y.data, expected.data, rtol=0, atol=0)

    def test_attention_rows_are_convex(self, monkeypatch):
        # 4 rows: each of the 2 heads is 4 wide, so its identity block fits
        blk = self._block(seed=6)
        x = Tensor(np.random.default_rng(35).normal(size=(4, 8)))
        calls = []
        attention = T._attention_rows

        def capture(q, k, v, heads, lengths=None, key_lengths=None, mask=None):
            calls.append((q, k, heads, (lengths, key_lengths, mask)))
            return attention(q, k, v, heads, lengths, key_lengths, mask)

        # the attention body of the block's one ``T.mha`` node
        monkeypatch.setattr(T, "_attention_rows", capture)
        blk.forward(x)
        ((q, k, heads, segments),) = calls
        assert heads == blk.attn.mha.heads
        # Replayed with per-head identity values, each head's context is its map.
        maps, _ = attention(q, k, np.tile(np.eye(4), heads), heads, *segments)
        attns = np.split(maps, heads, axis=1)
        assert len(attns) == blk.attn.mha.heads
        for attn in attns:
            assert np.all(attn >= 0)
            np.testing.assert_allclose(attn.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_gradient_check_full_block(self):
        rng = np.random.default_rng(36)
        blk = self._block(seed=7)
        x = rng.normal(size=(4, 8))
        w = rng.normal(size=(4, 8))
        params = list(blk.named_parameters().values())

        def f(ps):
            return T.reduce_sum(T.mul(blk.forward(Tensor(x))[0], Tensor(w)))

        assert T.finite_diff_check(f, params, max_coords_per_param=3) < 1e-4


class TestEncoder:
    def _cfg(self, **kw):
        base = dict(vocab_size=5, feat_dim=6, d_att=8, d_ff=16, heads=2, kernel=3, num_blocks=6)
        base.update(kw)
        return ModelConfig(**base)

    def test_taps_six_blocks(self):
        enc = Encoder(self._cfg()).initialize(0)
        enc.eval()
        out = enc.forward(Tensor(np.random.default_rng(37).normal(size=(20, 6))))
        assert sorted(out.taps) == [2, 4]

    def test_taps_twelve_blocks(self):
        assert self._cfg(num_blocks=12).tap_blocks() == [4, 8]

    def test_disabling_levels_changes_nothing_else(self):
        x = np.random.default_rng(38).normal(size=(20, 6))
        multi = Encoder(self._cfg(num_levels=3)).initialize(4)
        single = Encoder(self._cfg(num_levels=1)).initialize(4)
        multi.eval()
        single.eval()
        out_multi = multi.forward(Tensor(x))
        out_single = single.forward(Tensor(x))
        assert out_single.taps == {}
        assert out_multi.final.data.tobytes() == out_single.final.data.tobytes()

    def test_routed_blocks_emit_records(self):
        cfg = self._cfg(num_experts=4)
        enc = Encoder(cfg).initialize(1)
        enc.eval()
        emb = EmbeddingNetwork(cfg).initialize(1)
        emb.eval()
        x = Tensor(np.random.default_rng(39).normal(size=(20, 6)))
        out = enc.forward(x, e_c=emb.embed(x))
        assert [idx for idx, _ in out.records] == [2, 4, 6]
        t_prime = subsampled_length(20)
        for _, record in out.records:
            assert record.selected.shape == (t_prime,)

    def test_time_length_constant_across_blocks(self):
        cfg = self._cfg()
        enc = Encoder(cfg).initialize(2)
        enc.eval()
        out = enc.forward(Tensor(np.random.default_rng(40).normal(size=(26, 6))))
        t_prime = subsampled_length(26)
        assert out.final.data.shape == (t_prime, 8)
        for tap in out.taps.values():
            assert tap.data.shape == (t_prime, 8)


class TestEmbeddingNetwork:
    def test_embed_shape_and_count(self, monkeypatch):
        """One embed call is one embedding forward: the subsampler runs once."""
        cfg = ModelConfig(
            vocab_size=5, feat_dim=6, d_att=8, d_ff=16, heads=2, kernel=3, num_blocks=6
        )
        emb = EmbeddingNetwork(cfg).initialize(0)
        emb.eval()
        calls = []
        subsample = Subsample.forward

        def counted(module, *args):
            calls.append(module)
            return subsample(module, *args)

        monkeypatch.setattr(Subsample, "forward", counted)
        x = Tensor(np.random.default_rng(41).normal(size=(20, 6)))
        e = emb.embed(x)
        assert e.data.shape == (subsampled_length(20), cfg.d_emb)
        assert calls == [emb.subsample]
        lp = emb.ctc_log_probs(e)
        assert lp.data.shape == (subsampled_length(20), cfg.ctc_classes)
        np.testing.assert_allclose(
            np.exp(lp.data).sum(axis=-1), np.ones(lp.data.shape[0]), atol=1e-10
        )


class TestInitNaming:
    def test_same_name_same_init_across_architectures(self):
        """Shared parameter names draw identical values regardless of what
        other modules exist: a dense block and a routed block agree on every
        common parameter for the same seed."""
        dense = ConformerBlock(8, 16, heads=2, kernel=3).initialize(9)
        routed = ConformerBlock(8, 16, heads=2, kernel=3, n_experts=2, d_emb=8).initialize(9)
        dense_params = dense.named_parameters()
        routed_params = routed.named_parameters()
        common = set(dense_params) & set(routed_params)
        assert any(name.startswith("ffn2.experts.0.") for name in common)
        for name in common:
            assert dense_params[name].data.tobytes() == routed_params[name].data.tobytes()
        assert any(name.startswith("ffn2.router.") for name in set(routed_params) - common)

    def test_initialize_is_reproducible(self):
        a = Subsample(4, 6).initialize(5)
        b = Subsample(4, 6).initialize(5)
        for name, pa in a.named_parameters().items():
            assert pa.data.tobytes() == b.named_parameters()[name].data.tobytes()

    def test_mha_rejects_bad_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            MultiHeadAttention(10, 3)

    def test_layernorm_affine_participates(self):
        ln = LayerNorm(4).initialize(0)
        x = Tensor(np.random.default_rng(42).normal(size=(3, 4)))
        T.reduce_sum(ln.forward(x)).backward()
        assert np.any(ln.gamma.grad != 0)
        np.testing.assert_allclose(ln.beta.grad, np.full(4, 3.0))

    def test_linear_no_bias_option(self):
        """A bias-free layer holds only its weight, and its forward is
        ``x @ weight``: the value and the input and weight gradients are the
        product's bits."""
        lin = Linear(3, 2, bias=False).initialize(0)
        assert lin.bias is None
        assert set(lin.named_parameters()) == {"weight"}
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        g = rng.normal(size=(4, 2))
        out = lin.forward(x)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        w = lin.weight.data
        np.testing.assert_array_equal(out.data, x.data @ w)
        np.testing.assert_array_equal(x.grad, g @ w.T)
        np.testing.assert_array_equal(lin.weight.grad, x.data.T @ g)

    def test_parameter_requires_seeding_before_dropout(self):
        from moe_asr.nn import Dropout

        drop = Dropout(0.5)
        with pytest.raises(RuntimeError, match="seed"):
            drop.forward(Tensor(np.ones((2, 2))))


def _fresh_positions(length, d):
    """The position table computed afresh at exactly `length` rows."""
    angle = np.arange(length)[:, None] / np.power(10000.0, np.arange(0, d, 2)[None, :] / d)
    table = np.zeros((length, d))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : d // 2])
    return table


class TestPositions:
    @pytest.mark.parametrize("d", [8, 64, 7])
    def test_cached_slices_equal_fresh_tables(self, d):
        """Growing the cached table keeps every row's bits, in any call order."""
        for length in (5, 1, 40, 17, 300, 3, 0, 1000):
            got = sinusoidal_positions(length, d)
            assert got.shape == (length, d)
            assert got.tobytes() == _fresh_positions(length, d).tobytes()

    def test_slice_is_read_only(self):
        table = sinusoidal_positions(12, 8)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
