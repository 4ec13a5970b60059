"""Attention decoder: normalization, causality, smoothed cross-entropy
against loop oracles, multi-level additivity, the level-stacked pass
against one pass per decoder, rescoring identities, and the prefix forest
against a trie built prefix by prefix."""

import math

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.decoder import (
    LABEL_SMOOTHING,
    TransformerDecoder,
    _prefix_forest,
    aed_loss,
    aed_losses,
    multi_level_aed,
    rescore,
)
from moe_asr.encoder import EncoderOutput
from moe_asr.nn import Module
from moe_asr.tensor import Tensor

V = 6  # five data tokens + shared sos/eos
D = 8


def _decoder(seed=0, blocks=1):
    dec = TransformerDecoder(V, D, 16, heads=2, num_blocks=blocks).initialize(seed)
    dec.eval()
    return dec


def _enc(t=5, seed=1):
    return Tensor(np.random.default_rng(seed).normal(size=(t, D)))


class TestTeacherForcing:
    def test_rows_are_log_distributions(self):
        dec = _decoder()
        lp = dec.decode_teacher_forced(_enc(), [0, 3, 1])
        assert lp.data.shape == (4, V)
        np.testing.assert_allclose(np.exp(lp.data).sum(axis=-1), np.ones(4), atol=1e-10)

    def test_causality_future_tokens_ignored(self):
        """Row t conditions only on tokens before t: rewriting the suffix
        leaves every earlier row bit-identical."""
        dec = _decoder(seed=2)
        enc = _enc(seed=3)
        a = dec.decode_teacher_forced(enc, [0, 1, 2, 3]).data
        b = dec.decode_teacher_forced(enc, [0, 1, 4, 0]).data
        np.testing.assert_allclose(a[:3], b[:3], rtol=0, atol=0)
        assert not np.allclose(a[3], b[3])

    def test_out_of_vocab_rejected(self):
        dec = _decoder()
        with pytest.raises(ValueError, match="vocabulary"):
            dec.decode_teacher_forced(_enc(), [V])

    def test_token_sequences_must_match_the_utterances(self):
        with pytest.raises(ValueError, match="^1 token sequences for 2 utterances$"):
            _decoder().decode_teacher_forced(_enc(), [[0, 1]], [2, 3])

    def test_gradient_check_one_block(self):
        rng = np.random.default_rng(80)
        dec = _decoder(seed=4)
        enc_data = rng.normal(size=(3, D))
        tokens = [1, 2]

        def f(ps):
            lp = dec.decode_teacher_forced(Tensor(enc_data), tokens)
            return aed_loss(lp, tokens)

        params = list(dec.named_parameters().values())
        assert T.finite_diff_check(f, params, max_coords_per_param=3) < 1e-4


class TestAedLoss:
    def test_smoothed_target_gives_the_minimum(self):
        """The cost is the cross-entropy against the smoothed target, so
        log-probabilities equal to that target give its entropy, and moving
        any row away from it costs more."""
        tokens = [2, 0]
        targets = tokens + [V - 1]
        q = np.full((3, V), LABEL_SMOOTHING / V)
        q[np.arange(3), targets] += 1.0 - LABEL_SMOOTHING
        entropy = -(q * np.log(q)).sum(axis=-1).mean()
        loss = float(aed_loss(Tensor(np.log(q)), tokens).data)
        np.testing.assert_allclose(loss, entropy, rtol=0, atol=1e-12)
        for shift in (0.05, -0.05):
            logits = np.log(q)
            logits[1, 0] += shift
            assert float(aed_loss(T.log_softmax_last(Tensor(logits)), tokens).data) > loss

    def test_uniform_logits_give_log_vocab(self):
        lp = T.log_softmax_last(Tensor(np.zeros((4, V))))
        np.testing.assert_allclose(aed_loss(lp, [0, 1, 2]).data, math.log(V), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(81)
        tokens = [3, 1, 4]
        lp = T.log_softmax_last(Tensor(rng.normal(size=(4, V))))
        targets = tokens + [V - 1]
        eps = LABEL_SMOOTHING
        total = 0.0
        for t, y in enumerate(targets):
            row = lp.data[t]
            total += -(1.0 - eps) * row[y] - eps * row.mean()
        expected = total / len(targets)
        np.testing.assert_allclose(aed_loss(lp, tokens).data, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        lp = T.log_softmax_last(Tensor(np.zeros((3, V))))
        with pytest.raises(T.ShapeMismatch):
            aed_loss(lp, [0])


class TestMultiLevel:
    def test_single_level_equals_plain_loss(self):
        dec = _decoder(seed=5)
        enc = EncoderOutput(final=_enc(seed=6))
        tokens = [1, 2]
        total, per_level = multi_level_aed(dec, [], enc, tokens)
        direct = aed_loss(dec.decode_teacher_forced(enc.final, tokens), tokens)
        assert len(per_level) == 1
        np.testing.assert_allclose(total.data, direct.data, atol=0)

    def test_identical_levels_triple_the_loss(self):
        """Same weights and same tap contents at every level: the sum is
        three times one level's loss."""
        *aux, main = _level_decoders(3, 1, False)
        for dec in aux:
            for p, q in zip(main.named_parameters().values(), dec.named_parameters().values()):
                q.data[...] = p.data
        final = _enc(seed=8)
        enc = EncoderOutput(final=final, taps={2: final, 4: final})
        tokens = [0, 4, 2]
        total, per_level = multi_level_aed(main, aux, enc, tokens)
        single = aed_loss(main.decode_teacher_forced(final, tokens), tokens)
        np.testing.assert_allclose(total.data, 3.0 * single.data, atol=1e-12)
        for term in per_level:
            np.testing.assert_allclose(term.data, single.data, atol=0)

    def test_sum_is_exactly_additive(self):
        *aux, main = _level_decoders(3, 1, False)
        enc = EncoderOutput(final=_enc(seed=12), taps={2: _enc(seed=13), 4: _enc(seed=14)})
        tokens = [3, 3, 1]
        total, per_level = multi_level_aed(main, aux, enc, tokens)
        assert abs(float(total.data) - sum(float(t.data) for t in per_level)) < 1e-12

    def test_decoder_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multi_level_aed(_decoder(), [_decoder()], EncoderOutput(final=_enc()), [0])
        with pytest.raises(ValueError):
            multi_level_aed(_decoder(), [], EncoderOutput(final=_enc(), taps={1: _enc()}), [0])

    @pytest.mark.parametrize("num_levels", [2, 3])
    def test_decoders_of_separate_trees_rejected(self, num_levels):
        """The level stack reads one arena at one stride; decoders built
        apart have one arena each, and nothing falls back to a copy."""
        aux = [_decoder(seed=level) for level in range(num_levels - 1)]
        taps = {level + 1: _enc(seed=level) for level in range(num_levels - 1)}
        with pytest.raises(ValueError, match="arena"):
            multi_level_aed(_decoder(seed=9), aux, EncoderOutput(final=_enc(), taps=taps), [0])

    @pytest.mark.parametrize("tokens", [[1, 2, 0], [3, 1, 4, 2], [0]])
    def test_auxiliary_levels_add_before_the_main_level(self, tokens):
        """At four levels the total's bits depend on the order of the adds:
        the auxiliary losses add shallow to deep, then the main one. Among
        these token sequences, adding the main level first, all four in
        reverse, or the auxiliary ones in reverse each changes a total."""
        *aux, main = _level_decoders(4, 1, False)
        memories = [Tensor(m) for m in _memories(4, None)]
        enc = EncoderOutput(final=memories[-1], taps=dict(enumerate(memories[:-1], 1)))
        total, per_level = multi_level_aed(main, aux, enc, tokens)
        chained = per_level[0]
        for term in per_level[1:]:
            chained = T.add(chained, term)
        assert total.data.tobytes() == chained.data.tobytes()


# ---------------------------------------------------------------------------
# the level-stacked pass against one teacher-forced chain per decoder
# ---------------------------------------------------------------------------


# name -> (encoder rows per utterance, token sequences); None: one utterance
BATCHES = {
    "packed": ([5, 9, 3, 7], [[1, 2], [0, 3, 4, 1, 2], [4], []]),
    "single": (None, [3, 1, 4]),
}


class _Levels(Module):
    """Decoders in one module tree, declared as ``SpeechModel`` declares
    them: the main decoder (rate rates[-1]), then the auxiliary ones."""

    def __init__(self, blocks, rates):
        super().__init__()
        self.decoder = TransformerDecoder(V, D, 16, heads=2, num_blocks=blocks, dropout=rates[-1])
        self.aux_decoders = [TransformerDecoder(V, D, 16, heads=2, num_blocks=blocks, dropout=rate)
                             for rate in rates[:-1]]


def _level_decoders(num_levels, blocks, train, rates=None):
    """`num_levels` decoders of one module tree, main last, each with its
    own weights and dropout streams, and dropout rate 0.2 or its own of
    `rates`."""
    tree = _Levels(blocks, rates or [0.2] * num_levels).initialize(60).train(train)
    return [*tree.aux_decoders, tree.decoder]


def _grad(dec):
    """A decoder's gradient: its span of the arena's ``grad``."""
    return np.concatenate([p.grad.ravel() for p in dec.named_parameters().values()])


def _memories(num_levels, lengths, seed=70):
    rng = np.random.default_rng(seed)
    rows = 6 if lengths is None else sum(lengths)
    return [rng.normal(size=(rows, D)) for _ in range(num_levels)]


def _stacked_run(decoders, memories, lengths, tokens, w):
    """``multi_level_aed`` on leaf copies of the memories, then backward of
    the total weighted by `w`; returns the total, the per-level values and
    the memory leaves."""
    leaves = [Tensor(m, requires_grad=True) for m in memories]
    enc = EncoderOutput(final=leaves[-1], taps={i + 1: t for i, t in enumerate(leaves[:-1])},
                        lengths=lengths)
    total, per_level = multi_level_aed(decoders[-1], decoders[:-1], enc, tokens)
    T.reduce_sum(T.mul(total, Tensor(w))).backward()
    return total, per_level, leaves


def _oracle_run(decoders, memories, lengths, tokens, w):
    """The per-decoder chain: each decoder's teacher-forced pass and its
    losses on their own, the levels' losses added one after another."""
    leaves = [Tensor(m, requires_grad=True) for m in memories]
    per_level = []
    for dec, enc in zip(decoders, leaves):
        lp = dec.decode_teacher_forced(enc, tokens, lengths)
        per_level.append(aed_loss(lp, tokens) if lengths is None else aed_losses(lp, tokens))
    total = per_level[0]
    for term in per_level[1:]:
        total = T.add(total, term)
    T.reduce_sum(T.mul(total, Tensor(w))).backward()
    return total, per_level, leaves


def _assert_stacked_matches_oracle(batch, build):
    """Per-level losses, the total, every decoder parameter's gradient and
    every encoder output's gradient of the level-stacked pass over the
    decoders ``build()`` makes keep the bits of one pass per decoder over
    another ``build()``."""
    lengths, tokens = BATCHES[batch]
    stacked, oracle = build(), build()
    memories = _memories(len(stacked), lengths)
    w = np.random.default_rng(71).normal(size=() if lengths is None else len(lengths))
    total, per_level, leaves = _stacked_run(stacked, memories, lengths, tokens, w)
    ref_total, ref_per_level, ref_leaves = _oracle_run(oracle, memories, lengths, tokens, w)
    assert total.data.tobytes() == ref_total.data.tobytes()
    assert len(per_level) == len(stacked)
    for value, ref in zip(per_level, ref_per_level):
        assert value.data.shape == ref.data.shape
        assert value.data.tobytes() == ref.data.tobytes()
    for dec, ref in zip(stacked, oracle):
        assert _grad(dec).tobytes() == _grad(ref).tobytes()
        assert _grad(dec).any()
    for leaf, ref in zip(leaves, ref_leaves):
        assert leaf.grad.tobytes() == ref.grad.tobytes()


class TestLevelStackedPass:
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("num_levels", [1, 2, 3, 4])
    def test_matches_one_chain_per_decoder_exactly(self, num_levels, blocks, batch, train):
        """Per-level losses, the total, every decoder parameter's gradient
        and every encoder output's gradient keep the bits of one pass per
        decoder; in train mode both runs draw the same dropout masks."""
        _assert_stacked_matches_oracle(batch, lambda: _level_decoders(num_levels, blocks, train))

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_a_level_without_dropout_is_rejected(self, batch, p):
        """The levels' masks share one scale: a middle level whose dropout
        is off, at rate 0 or in eval mode, beside levels at rate `p` raises
        ValueError instead of running with that level's rows all kept."""
        lengths, tokens = BATCHES[batch]
        w = np.ones(() if lengths is None else len(lengths))
        decoders = _level_decoders(3, 2, True, rates=[p, 0.0, p])
        with pytest.raises(ValueError, match="differ in dropout"):
            _stacked_run(decoders, _memories(3, lengths), lengths, tokens, w)
        decoders = _level_decoders(3, 2, True, rates=[p, p, p])
        decoders[1].eval()
        with pytest.raises(ValueError, match="differ in dropout"):
            _stacked_run(decoders, _memories(3, lengths), lengths, tokens, w)

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_records_the_same_nodes_at_every_level_count(self, monkeypatch, batch):
        """One node per stage whatever the number of levels: embedding,
        positions, dropout, three per block, the output layernorm, linear
        and log-softmax, the loss's gather, smoothing and per-utterance
        means (six nodes), and the sum over levels; one utterance adds the
        reshape to a scalar."""
        lengths, tokens = BATCHES[batch]
        counts = []
        for num_levels in (1, 2, 3, 4):
            decoders = _level_decoders(num_levels, 2, True)
            leaves = [Tensor(m, requires_grad=True) for m in _memories(num_levels, lengths)]
            enc = EncoderOutput(final=leaves[-1], lengths=lengths,
                                taps={i + 1: t for i, t in enumerate(leaves[:-1])})
            ops = []
            node = T._node

            def counted(data, parents, backward, op, ops=ops, node=node):
                out = node(data, parents, backward, op)
                if out._backward is not None:
                    ops.append(op)
                return out

            monkeypatch.setattr(T, "_node", counted)
            multi_level_aed(decoders[-1], decoders[:-1], enc, tokens)
            monkeypatch.undo()
            counts.append(len(ops))
        assert counts == [counts[0]] * 4
        assert counts[0] == (19 if lengths is not None else 20)

    def test_levels_of_unequal_rows_rejected(self):
        decoders = _level_decoders(2, 1, False)
        enc = EncoderOutput(final=_enc(t=5), taps={1: _enc(t=6)})
        with pytest.raises(T.ShapeMismatch):
            multi_level_aed(decoders[-1], decoders[:-1], enc, [1, 2])


def _oracle_scores(dec, enc, token_seqs):
    """Per-hypothesis reference: one teacher-forced pass per hypothesis and
    a gather of tokens + [eos] from its rows."""
    scores = []
    with T.no_grad():
        for tokens in token_seqs:
            lp = dec.decode_teacher_forced(enc, tokens).data
            targets = [int(t) for t in tokens] + [V - 1]
            scores.append(float(lp[np.arange(len(targets)), targets].sum()))
    return scores


def _hypothesis_set(rng, n, max_len):
    """n hypotheses that branch off one shared stem at random depths, as a
    prefix beam's N-best list does."""
    stem = [int(t) for t in rng.integers(0, V - 1, size=max_len)]
    seqs = []
    for _ in range(n):
        depth = int(rng.integers(0, max_len + 1))
        tail = [int(t) for t in rng.integers(0, V - 1, size=int(rng.integers(0, 6)))]
        seqs.append((stem[:depth] + tail)[:max_len])
    return seqs


class TestRescore:
    def test_empty_hypothesis_scores_eos(self):
        dec = _decoder(seed=15)
        enc = _enc(seed=16)
        score = rescore(dec, enc, [[]])
        lp = dec.decode_teacher_forced(enc, [])
        assert len(score) == 1
        np.testing.assert_allclose(score[0], lp.data[0, V - 1], atol=0)

    def test_equals_gathered_teacher_forced_rows(self):
        dec = _decoder(seed=17)
        enc = _enc(seed=18)
        tokens = [2, 0, 3]
        lp = dec.decode_teacher_forced(enc, tokens).data
        expected = lp[0, 2] + lp[1, 0] + lp[2, 3] + lp[3, V - 1]
        np.testing.assert_allclose(rescore(dec, enc, [tokens])[0], expected, atol=1e-12)

    def test_incremental_extension_identity(self):
        """Causality makes prefix rows shared, so appending token c changes
        the score by lp[L,c] + lp[L+1,eos] - lp[L,eos]."""
        dec = _decoder(seed=19)
        enc = _enc(seed=20)
        base = [1, 4]
        lp_ext = dec.decode_teacher_forced(enc, base + [2]).data
        delta = lp_ext[2, 2] + lp_ext[3, V - 1] - lp_ext[2, V - 1]
        np.testing.assert_allclose(
            rescore(dec, enc, [base + [2]])[0], rescore(dec, enc, [base])[0] + delta, atol=1e-10
        )

    def test_deterministic_in_eval_mode(self):
        dec = _decoder(seed=21)
        enc = _enc(seed=22)
        assert rescore(dec, enc, [[1, 2]]) == rescore(dec, enc, [[1, 2]])

    def test_no_hypotheses_no_scores(self):
        assert rescore(_decoder(), _enc(), []) == []

    @pytest.mark.parametrize("case", range(8))
    def test_trie_pass_matches_per_hypothesis_oracle(self, case):
        """Shared prefixes, a hypothesis that is a prefix of another, the
        empty hypothesis and repeats all score as if each ran alone."""
        rng = np.random.default_rng(900 + case)
        dec = _decoder(seed=23 + case, blocks=2)
        enc = _enc(t=int(rng.integers(3, 40)), seed=40 + case)
        n = 1 if case == 0 else int(rng.integers(2, 9))
        seqs = _hypothesis_set(rng, n, max_len=50)
        if case % 2:
            seqs[-1] = []
        if case >= 2:
            seqs[0] = seqs[1] + [int(t) for t in rng.integers(0, V - 1, size=3)]
        if case == 7:
            seqs[2:4] = [seqs[1], seqs[1]]
        scores = rescore(dec, enc, seqs)
        assert len(scores) == len(seqs)
        np.testing.assert_allclose(scores, _oracle_scores(dec, enc, seqs), rtol=0, atol=1e-12)

    def test_unshared_suffix_change_leaves_other_scores_bit_identical(self):
        """A row sees only its ancestors, so rewriting the last token of one
        hypothesis (a trie leaf no other hypothesis passes through) moves no
        other score, not even in the last bit."""
        dec = _decoder(seed=31, blocks=2)
        enc = _enc(t=12, seed=32)
        seqs = [[1, 2, 3, 4], [1, 2, 0], [1, 2, 3, 0, 0], [3], []]
        changed = [list(seq) for seq in seqs]
        changed[2][-1] = 4
        before, after = rescore(dec, enc, seqs), rescore(dec, enc, changed)
        assert after[2] != before[2]
        assert after[:2] + after[3:] == before[:2] + before[3:]


def _reference_forest(groups, sos):
    """The prefix forest prefix by prefix: per group a root row for the
    empty prefix, then one row per distinct prefix of its sequences in the
    order they first appear, below the row of the prefix one token shorter.
    The mask comes from the parents loop: a row sees itself and whatever
    its parent sees."""
    ids, positions, parents, rows, paths = [], [], [], [], []
    for group in groups:
        start, row_of = len(ids), {(): len(ids)}
        ids.append(sos)
        positions.append(0)
        parents.append(-1)
        for seq in group:
            for t in range(1, len(seq) + 1):
                prefix = tuple(seq[:t])
                if prefix not in row_of:
                    row_of[prefix] = len(ids)
                    ids.append(seq[t - 1])
                    positions.append(t)
                    parents.append(row_of[prefix[:-1]])
            paths.append([row_of[tuple(seq[:t])] for t in range(len(seq) + 1)])
        rows.append(len(ids) - start)
    sees = np.eye(len(ids), dtype=bool)
    for row, parent in enumerate(parents):
        if parent >= 0:
            sees[row] |= sees[parent]
    return ids, positions, rows, ~sees, paths


class TestPrefixForest:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_parents_loop(self, seed):
        """Seeded N-best groups with shared prefixes, the empty hypothesis
        and a duplicate: rows, positions, row counts, mask and paths all
        equal the reference's."""
        rng = np.random.default_rng(950 + seed)
        groups = []
        for _ in range(int(rng.integers(1, 4))):
            seqs = _hypothesis_set(rng, int(rng.integers(2, 9)), max_len=12)
            seqs += [[], list(seqs[0])]
            order = rng.permutation(len(seqs))
            groups.append([seqs[i] for i in order])
        ids, positions, rows, mask, paths = _prefix_forest(groups, V - 1)
        ref_ids, ref_positions, ref_rows, ref_mask, ref_paths = _reference_forest(groups, V - 1)
        assert len(ids) < sum(len(seq) + 1 for group in groups for seq in group)  # shared rows
        assert ids.tolist() == ref_ids
        assert positions.tolist() == ref_positions
        assert rows == ref_rows
        assert paths == ref_paths
        np.testing.assert_array_equal(mask, ref_mask)

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_one_sequence_group_is_the_triangle(self, n):
        """Teacher forcing's group, one sequence: the rows are [sos] +
        tokens at positions 0..n-1 and every later row is hidden."""
        seq = np.random.default_rng(n).integers(0, V - 1, size=n - 1)
        ids, positions, rows, mask, paths = _prefix_forest([[seq]], V - 1)
        np.testing.assert_array_equal(mask, np.triu(np.ones((n, n), bool), 1))
        assert ids.tolist() == [V - 1, *seq.tolist()]
        assert positions.tolist() == list(range(n))
        assert rows == [n] and paths == [list(range(n))]

    def test_groups_lie_back_to_back(self):
        """Group g owns the next rows[g] rows, rooted at a sos row; its
        paths stay inside them, and no row sees another group's rows."""
        groups = [[[1, 2], [1, 3]], [[4]], [[], [0, 0, 0], [0, 0]], []]
        ids, positions, rows, mask, paths = _prefix_forest(groups, V - 1)
        assert rows == [4, 2, 4, 1]
        assert sum(rows) == len(ids) == len(positions) == mask.shape[0] == mask.shape[1]
        starts = np.cumsum([0] + rows[:-1])
        assert ids[starts].tolist() == [V - 1] * 4 and positions[starts].tolist() == [0] * 4
        groups_paths = iter(paths)
        for start, n, group in zip(starts, rows, groups):
            own = np.zeros(len(ids), bool)
            own[start:start + n] = True
            assert mask[np.ix_(own, ~own)].all()
            for seq in group:
                path = next(groups_paths)
                assert path[0] == start and all(start <= r < start + n for r in path)
                assert ids[path[1:]].tolist() == seq
