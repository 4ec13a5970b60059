"""Packed batches: several utterances stacked as rows of one graph.

A packed forward must give every utterance the losses and gradients of
running it alone, must keep utterances from seeing each other, and must
keep the graph small enough that one batch is not one chain per utterance.
"""

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.config import ModelConfig, TrainConfig
from moe_asr.ctc import ctc_loss
from moe_asr.decoder import multi_level_aed
from moe_asr.features import FeatureSequence
from moe_asr.model import SpeechModel
from moe_asr.tensor import Tensor
from moe_asr.training import batch_losses

LENGTHS = (37, 22, 45, 30)


def _cfg(num_experts, dropout):
    return ModelConfig(vocab_size=6, feat_dim=6, d_att=16, d_ff=24, heads=2, kernel=3,
                       num_blocks=3, decoder_blocks=1, dropout=dropout, d_emb=8,
                       embedding_blocks=1, num_experts=num_experts)


def _batch(seed=0, lengths=LENGTHS):
    rng = np.random.default_rng(seed)
    return [
        FeatureSequence(f"u{i}", rng.normal(size=(n, 6)),
                        [int(t) for t in rng.integers(0, 5, size=1 + i % 3)])
        for i, n in enumerate(lengths)
    ]


def _per_utterance_losses(model, feats, tokens, lengths=None):
    """(ctc, aed over all levels, embedding ctc or None) for one utterance,
    or per-utterance vectors for a packed batch."""
    out, e_c = model.encode(feats, lengths)
    ctc = ctc_loss(model.ctc_log_probs(out.final), tokens, out.lengths)
    aed, _ = multi_level_aed(model.decoder, model.aux_decoders, out, tokens,
                             model.cfg.tap_blocks(), 0.1)
    emb = None
    if model.embedding_net is not None:
        emb = ctc_loss(model.embedding_net.ctc_log_probs(e_c), tokens, out.lengths)
    return ctc, aed, emb


def _packed(batch):
    return (Tensor(np.concatenate([s.feats for s in batch])),
            [s.tokens for s in batch], [s.feats.shape[0] for s in batch])


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("num_experts", [0, 1, 4])
def test_packed_batch_matches_single_utterance_runs(num_experts, dropout):
    """Each per-utterance loss, and every parameter gradient of their sum,
    equals one-utterance runs of the same utterances within 1e-12. Every
    dropout module draws its packed mask as the utterances' masks in order,
    so this holds with dropout on."""
    batch = _batch()
    model = SpeechModel(_cfg(num_experts, dropout)).initialize(4)
    params = model.named_parameters()

    model.zero_grad()
    feats, tokens, lengths = _packed(batch)
    terms = [t for t in _per_utterance_losses(model, feats, tokens, lengths) if t is not None]
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    T.reduce_sum(total).backward()
    packed_losses = [t.data.copy() for t in terms]
    packed_grads = {name: p.grad.copy() for name, p in params.items()}

    model.zero_grad()
    model.seed_dropout(4)
    single_losses = []
    for seq in batch:
        terms = [t for t in _per_utterance_losses(model, Tensor(seq.feats), seq.tokens)
                 if t is not None]
        single_losses.append([float(t.data) for t in terms])
        total = terms[0]
        for term in terms[1:]:
            total = T.add(total, term)
        total.backward()

    np.testing.assert_allclose(np.array(packed_losses).T, single_losses, rtol=0, atol=1e-12)
    for name, p in params.items():
        np.testing.assert_allclose(packed_grads[name], p.grad, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_utterances_in_a_packed_batch_are_isolated():
    """Changing one utterance's features leaves every per-utterance quantity
    of the others bit-identical: encoder rows, taps, router distributions,
    CTC and decoder losses."""
    cfg = ModelConfig(vocab_size=6, feat_dim=6, d_att=16, d_ff=24, heads=2, kernel=5,
                      num_blocks=6, decoder_blocks=1, d_emb=8, embedding_blocks=2,
                      num_experts=4)
    model = SpeechModel(cfg).initialize(8).eval()
    batch = _batch(seed=9)
    feats, tokens, lengths = _packed(batch)

    def run(x):
        out, e_c = model.encode(Tensor(x), lengths)
        ctc, aed, emb = _per_utterance_losses(model, Tensor(x), tokens, lengths)
        rows = {"final": out.final.data, "e_c": e_c.data}
        rows.update({f"tap{i}": h.data for i, h in out.taps.items()})
        rows.update({f"p{i}": r.p.data for i, r in out.records})
        return out.lengths, rows, {"ctc": ctc.data, "aed": aed.data, "emb": emb.data}

    frames, rows, losses = run(feats.data)
    assert set(rows) == {"final", "e_c", "tap2", "tap4", "p2", "p4", "p6"}
    changed = feats.data.copy()
    start, stop = lengths[0], lengths[0] + lengths[1]
    changed[start:stop] = np.random.default_rng(10).normal(size=(lengths[1], 6)) * 3.0
    _, rows2, losses2 = run(changed)

    bounds = np.cumsum([0] + frames)
    kept = [0, 2, 3]
    for name in rows:
        for i in kept:
            a, b = rows[name][bounds[i]:bounds[i + 1]], rows2[name][bounds[i]:bounds[i + 1]]
            assert a.tobytes() == b.tobytes(), f"{name} rows of utterance {i} moved"
        assert not np.array_equal(rows[name][bounds[1]:bounds[2]],
                                  rows2[name][bounds[1]:bounds[2]]), name
    for name in losses:
        assert losses[name][kept].tobytes() == losses2[name][kept].tobytes(), name
        assert losses[name][1] != losses2[name][1], name


def test_short_utterance_named_by_index():
    model = SpeechModel(_cfg(2, 0.0)).initialize(0).eval()
    feats = Tensor(np.zeros((20 + 6 + 20, 6)))
    with pytest.raises(ValueError, match="utterance 1: .*at least 7 input frames, got 6"):
        model.encode(feats, [20, 6, 20])


def test_lengths_must_cover_every_row():
    model = SpeechModel(_cfg(2, 0.0)).initialize(0).eval()
    with pytest.raises(T.ShapeMismatch):
        model.encode(Tensor(np.zeros((41, 6))), [20, 20])
    with pytest.raises(T.ShapeMismatch):
        ctc_loss(np.log(np.full((5, 3), 1.0 / 3)), [[0], [1]], [2, 2])


def test_one_batch_is_one_graph_of_bounded_size(monkeypatch):
    """A 4-utterance batch through a 16-expert desk model records under
    1,000 graph nodes; one chain per utterance recorded about 2,500."""
    rng = np.random.default_rng(3)
    batch = [
        FeatureSequence(f"u{i}", rng.normal(size=(n, 80)), [1, 4, 2, 7, 3])
        for i, n in enumerate((92, 114, 105, 60))
    ]
    model = SpeechModel(ModelConfig.desk_scale(11, num_experts=16)).initialize(3)
    model.train()
    recorded = []
    node = T._node

    def counted(data, parents, backward, op):
        out = node(data, parents, backward, op)
        if out._backward is not None:
            recorded.append(op)
        return out

    monkeypatch.setattr(T, "_node", counted)
    batch_losses(model, batch, TrainConfig(seed=3))
    assert 0 < len(recorded) < 1000, len(recorded)
