"""Decoding, CER scoring, and the cost accountant."""

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.config import ModelConfig
from moe_asr.ctc import prefix_beam_search
from moe_asr.features import synthesize_utterance
from moe_asr.inference import (
    CostReport,
    cost_report,
    count_flops,
    decode_nbest,
    edit_distance,
    format_cost_table,
    score_corpus,
)
from moe_asr.model import SpeechModel, parameter_total
from moe_asr.nn import Module
from moe_asr.tensor import Tensor


def small_model(num_experts=0, seed=0):
    cfg = ModelConfig(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2,
                      kernel=3, num_blocks=3, decoder_blocks=1, dropout=0.1,
                      num_experts=num_experts, d_emb=8, embedding_blocks=1)
    return SpeechModel(cfg).initialize(seed).eval()


def oracle_edit_distance(ref, hyp):
    """Full-matrix Levenshtein, written independently of the scorer."""
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + int(ref[i - 1] != hyp[j - 1]),
            )
    return int(d[n, m])


class TestEditDistance:
    def test_equal_sequences(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0

    def test_single_substitution(self):
        assert edit_distance(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_pure_insertion_and_deletion(self):
        assert edit_distance([1, 2], [1, 2, 3, 4]) == 2
        assert edit_distance([1, 2, 3, 4], [3]) == 3

    def test_empty_hypothesis(self):
        assert edit_distance([5, 6, 7], []) == 3

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            ref = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            hyp = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            assert edit_distance(ref, hyp) == oracle_edit_distance(ref, hyp)


class TestScoreCorpus:
    def test_perfect_hypotheses(self):
        cer, results = score_corpus([("u1", [1, 2], [1, 2]), ("u2", [3], [3])])
        assert cer == 0.0
        assert all(r.distance == 0 for r in results)

    def test_hand_example(self):
        cer, _ = score_corpus([("u1", ["a", "b", "c"], ["a", "x", "c"])])
        assert cer == pytest.approx(1 / 3)

    def test_aggregate_is_length_weighted(self):
        """Corpus CER pools errors over pooled length, not a mean of rates."""
        cer, _ = score_corpus([
            ("short", [1], [2]),
            ("long", [1, 2, 3, 4, 5, 6, 7, 8, 9], [1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ])
        assert cer == pytest.approx(1 / 10)

    def test_empty_reference_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="empty reference"):
            cer, results = score_corpus([("bad", [], [1]), ("ok", [1, 2], [1, 2])])
        assert cer == 0.0
        assert [r.utt_id for r in results] == ["ok"]

    def test_nothing_scorable_rejected(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError):
                score_corpus([("bad", [], [1])])


class TestDecode:
    def _feats(self, seed=3, t=30):
        return Tensor(np.random.default_rng(seed).normal(size=(t, 8)))

    def test_deterministic(self):
        model = small_model(num_experts=2)
        a = decode_nbest(model, self._feats(), beam=6, nbest=4, mu=0.5)
        b = decode_nbest(model, self._feats(), beam=6, nbest=4, mu=0.5)
        assert [h.tokens for h in a] == [h.tokens for h in b]
        assert [h.combined for h in a] == [h.combined for h in b]

    def test_single_hypothesis_cannot_be_reranked(self):
        model = small_model()
        best = decode_nbest(model, self._feats(), beam=6, nbest=1, mu=0.5)[0]
        ctc_only = decode_nbest(model, self._feats(), beam=6, nbest=1, mu=1e9)[0]
        assert best.tokens == ctc_only.tokens

    def test_mu_zero_ranks_by_attention_score(self):
        model = small_model(seed=4)
        hyps = decode_nbest(model, self._feats(seed=5), beam=8, nbest=5, mu=0.0)
        aed = [h.aed_score for h in hyps]
        assert aed == sorted(aed, reverse=True)
        assert all(h.combined == h.aed_score for h in hyps)

    def test_mu_huge_returns_ctc_top1(self):
        model = small_model(seed=6)
        feats = self._feats(seed=7)
        ctc_first = decode_nbest(model, feats, beam=8, nbest=5, mu=1e9)[0]
        by_ctc = max(
            decode_nbest(model, feats, beam=8, nbest=5, mu=0.5),
            key=lambda h: h.ctc_score,
        )
        assert ctc_first.tokens == by_ctc.tokens

    def test_winner_comes_from_the_nbest_list(self):
        model = small_model(seed=8)
        feats = self._feats(seed=9)
        hyps = decode_nbest(model, feats, beam=8, nbest=6, mu=0.5)
        best = decode_nbest(model, feats, beam=8, nbest=6, mu=0.5)[0]
        assert best.tokens in [h.tokens for h in hyps]
        assert best.combined == max(h.combined for h in hyps)

    def test_training_mode_model_decodes_as_in_eval_mode(self):
        feats = self._feats(seed=11)
        trained = small_model(num_experts=2, seed=10).train()
        got = decode_nbest(trained, feats, beam=8, nbest=6, mu=0.5)
        want = decode_nbest(small_model(num_experts=2, seed=10), feats, beam=8, nbest=6, mu=0.5)
        assert not any(m.training for m in trained.named_modules().values())
        assert [h.tokens for h in got] == [h.tokens for h in want]
        assert [h.combined for h in got] == [h.combined for h in want]

    def test_eval_mode_model_is_not_walked_again(self, monkeypatch):
        model = small_model(num_experts=2)
        decode_nbest(model, self._feats(), beam=6, nbest=4, mu=0.5)

        def walked(*_args, **_kwargs):
            raise AssertionError("decode_nbest walked a model already in eval mode")

        monkeypatch.setattr(Module, "train", walked)
        assert decode_nbest(model, self._feats(), beam=6, nbest=4, mu=0.5)


def _reference_nbest(model, feats, beam, nbest, mu):
    """decode_nbest rebuilt from its parts: the CTC beam, then one
    teacher-forced pass per hypothesis, then the stable sort."""
    with T.no_grad():
        out, _ = model.encode(feats)
        hyps = prefix_beam_search(model.ctc_log_probs(out.final).data, beam, nbest)
        ranked = []
        for hyp in hyps:
            targets = list(hyp.tokens) + [model.decoder.sos_eos]
            lp = model.decoder.decode_teacher_forced(out.final, hyp.tokens).data
            aed = float(lp[np.arange(len(targets)), targets].sum())
            ranked.append((list(hyp.tokens), hyp.ctc_score, aed, aed + mu * hyp.ctc_score))
    ranked.sort(key=lambda h: (-h[3], -h[1]))
    return ranked


class TestDecodeContract:
    """decode_nbest against the per-hypothesis reference on utterances
    shaped like the benchmark's: short ones, and long-form ones of 30-50
    tokens on the 16-expert desk model at the default beam and N-best."""

    @pytest.mark.parametrize("num_tokens", [2, 5, 9, 30, 50])
    def test_matches_per_hypothesis_reference(self, num_tokens):
        vocab, feat_dim = 10, 80
        rng = np.random.default_rng(700 + num_tokens)
        model = SpeechModel(ModelConfig.desk_scale(vocab + 1, num_experts=16))
        model.initialize(num_tokens).eval()
        tokens = [int(t) for t in rng.integers(0, vocab, size=num_tokens)]
        feats = Tensor(synthesize_utterance(rng, tokens, vocab, feat_dim))
        got = decode_nbest(model, feats, beam=8, nbest=8, mu=0.5)
        want = _reference_nbest(model, feats, beam=8, nbest=8, mu=0.5)
        assert len(got) > 1
        assert [h.tokens for h in got] == [h[0] for h in want]
        assert [h.ctc_score for h in got] == [h[1] for h in want]
        np.testing.assert_allclose([h.aed_score for h in got], [h[2] for h in want],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose([h.combined for h in got], [h[3] for h in want],
                                   rtol=0, atol=1e-12)


class TestCostAccounting:
    def test_flops_exactly_constant_in_expert_count(self):
        """The whole itemization, not just the total, is expert-count-free."""
        reports = [count_flops(ModelConfig.paper_scale(num_experts=n))
                   for n in (1, 16, 32, 64)]
        assert all(r == reports[0] for r in reports[1:])

    @pytest.mark.parametrize("cfg, want", [
        (ModelConfig.desk_scale(11),
         {"subsample": 2318144, "attention": 5769216, "conv": 3879936, "dense_ffn": 9815040,
          "moe_expert": 0, "router": 0, "embedding_network": 0, "ctc_head": 38592}),
        (ModelConfig.desk_scale(11, num_experts=4),
         {"subsample": 2318144, "attention": 5769216, "conv": 3879936, "dense_ffn": 7372800,
          "moe_expert": 2446848, "router": 18792, "embedding_network": 12050240,
          "ctc_head": 38592}),
        (ModelConfig.paper_scale(16),
         {"subsample": 62585344, "attention": 929691648, "conv": 691200000,
          "dense_ffn": 2728304640, "moe_expert": 909176832, "router": 443448,
          "embedding_network": 2107465216, "ctc_head": 137517360}),
    ], ids=["desk-dense", "desk-4e", "paper-16e"])
    def test_report_is_frozen(self, cfg, want):
        """Values and key order of the itemization, frozen from the closed
        form that counted the embedding network with its own block loop."""
        got = count_flops(cfg)
        assert list(got.items()) == list(want.items())

    def test_dense_model_has_no_routing_cost(self):
        flops = count_flops(ModelConfig.paper_scale(num_experts=0, num_levels=1))
        assert flops["moe_expert"] == 0
        assert flops["router"] == 0
        assert flops["embedding_network"] == 0

    def test_routed_components_present(self):
        flops = count_flops(ModelConfig.paper_scale(num_experts=16))
        for key in ("moe_expert", "router", "embedding_network"):
            assert flops[key] > 0

    def test_total_is_sum_of_parts(self):
        report = cost_report(ModelConfig.paper_scale(num_experts=16))
        assert report.total_flops == sum(report.flops.values())
        assert report.params == parameter_total(ModelConfig.paper_scale(num_experts=16))

    def test_auxiliary_decoders_never_cost_inference_flops(self):
        with_aux = cost_report(ModelConfig.paper_scale(num_experts=16, num_levels=3))
        without = cost_report(ModelConfig.paper_scale(num_experts=16, num_levels=1))
        assert with_aux.flops == without.flops
        assert with_aux.params > without.params

    def test_magnitude_is_production_plausible(self):
        report = cost_report(ModelConfig.paper_scale(num_experts=16))
        assert 1e9 < report.total_flops < 1e11

    def test_conventions_documented_in_report(self):
        report = cost_report(ModelConfig.paper_scale(num_experts=16))
        joined = " ".join(report.conventions)
        assert "multiply-add = 2" in joined
        assert "100 input frames" in joined

    def test_table_layout(self):
        table = format_cost_table("16e", cost_report(ModelConfig.paper_scale(num_experts=16)))
        lines = table.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["model", "params", "flops/s"]
        assert set(lines[1]) == {"-", " "}
        assert "M" in lines[2] and "B" in lines[2]

    def test_desk_scale_row_keeps_three_figures(self):
        """30,627 parameters and 1,439,568 FLOPs/s print as 30.6k and 1.44M,
        not as zero millions and zero billions."""
        cfg = ModelConfig(vocab_size=5, d_att=16, d_ff=24, heads=2, kernel=3, num_blocks=3,
                          decoder_blocks=1, num_experts=2, d_emb=8, embedding_blocks=1)
        report = cost_report(cfg)
        assert (report.params, report.total_flops) == (30627, 1439568)
        row = format_cost_table("2e", report).splitlines()[2]
        assert row.split() == ["2e", "30.6k", "1.44M"]

    @pytest.mark.parametrize("value, text", [
        (0, "0"), (512, "512"), (999, "999"), (1000, "1.00k"), (9995, "10.0k"),
        (999_499, "999k"), (999_999, "1.00M"), (12_345_678_901, "12.3B"),
    ])
    def test_magnitude_suffix_after_rounding(self, value, text):
        report = CostReport(params=value, flops={}, total_flops=value, conventions=[])
        assert format_cost_table("m", report).splitlines()[2].split()[1:] == [text, text]
