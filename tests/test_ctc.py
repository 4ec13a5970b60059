"""CTC loss against hand sums and the full-path enumeration oracle kept
here; decoding against exhaustive search and greedy decoding on tiny grids."""

import itertools
import math
import warnings

import numpy as np
import pytest

from moe_asr import ctc
from moe_asr import tensor as T
from moe_asr.tensor import Tensor


def _rand_log_post(rng, t_frames, classes):
    logits = rng.normal(size=(t_frames, classes))
    return np.log(np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True))


def _lse(values):
    """Log-sum-exp over a 1-D array, safe at all -inf: the enumeration
    oracle's max-shifted sum, independent of the log-add the fast paths use."""
    m = np.max(values)
    if m == -np.inf:
        return -np.inf
    return m + np.log(np.sum(np.exp(values - m)))


def _collapse(path):
    """Merge repeats, then drop blanks; classes -> data tokens."""
    out, prev = [], -1
    for c in path:
        if c != prev and c != 0:
            out.append(c - 1)
        prev = c
    return out


def ctc_enumeration_oracle(log_probs, tokens):
    """Brute-force -log P: sum every frame-level path whose collapse equals
    `tokens`. Only viable for tiny grids; guards at 10^6 paths."""
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    tokens = [int(t) for t in tokens]
    t_frames, classes = lp.shape
    if classes**t_frames > 10**6:
        raise ValueError(f"enumeration over {classes}^{t_frames} paths is too large")
    scores = [
        sum(lp[t, c] for t, c in enumerate(path))
        for path in itertools.product(range(classes), repeat=t_frames)
        if _collapse(path) == tokens
    ]
    if not scores:
        raise ctc.InfeasibleLength(f"no path of length {t_frames} collapses to {tokens}")
    return -_lse(np.array(scores))


def greedy_decode(log_probs):
    """Best class per frame, repeats merged, blanks dropped."""
    return _collapse(np.argmax(np.asarray(log_probs), axis=-1))


def _enumerated_occupancy(lp, tokens):
    """Posterior probability of each (frame, class) cell: the normalized
    mass of every path through it that collapses to `tokens`, found by
    listing all classes^T paths."""
    t_frames, classes = lp.shape
    frames = np.arange(t_frames)
    paths = [
        path for path in itertools.product(range(classes), repeat=t_frames)
        if [c - 1 for c, _ in itertools.groupby(path) if c != 0] == tokens
    ]
    scores = np.array([lp[frames, path].sum() for path in paths])
    weights = np.exp(scores - np.logaddexp.reduce(scores))
    occupancy = np.zeros_like(lp)
    for path, w in zip(paths, weights):
        occupancy[frames, path] += w
    return occupancy


# (frames, tokens) over 4 classes: a repeat, a tight repeat, an empty and a
# one-frame utterance, and grids from 1 to 5 frames.
ORACLE_CASES = [(5, [0, 1]), (1, [2]), (3, [1, 1]), (4, []), (5, [2, 0, 2]), (2, [0, 1])]


class TestLossValues:
    def test_single_frame_single_token(self):
        """One frame, P(token)=0.6: the only path is the token itself."""
        post = np.log(np.array([[0.4, 0.6]]))
        loss = ctc.ctc_loss(post, [0])
        assert abs(loss - (-math.log(0.6))) < 1e-12
        assert abs(loss - 0.5108256238) < 1e-9

    def test_two_frames_three_paths(self):
        """T=2, one token: paths (a,a), (blank,a), (a,blank)."""
        pb1, pa1 = 0.3, 0.7
        pb2, pa2 = 0.5, 0.5
        post = np.log(np.array([[pb1, pa1], [pb2, pa2]]))
        expected = -(math.log(pa1 * pa2 + pb1 * pa2 + pa1 * pb2))
        assert abs(ctc.ctc_loss(post, [0]) - expected) < 1e-12

    def test_empty_labels_blank_path(self):
        rng = np.random.default_rng(70)
        post = _rand_log_post(rng, 5, 3)
        expected = -post[:, 0].sum()
        assert abs(ctc.ctc_loss(post, []) - expected) < 1e-12
        assert abs(ctc_enumeration_oracle(post, []) - expected) < 1e-12

    def test_matches_enumeration_oracle(self):
        """Random small grids: DP equals summing every collapsing path."""
        rng = np.random.default_rng(71)
        checked = 0
        while checked < 40:
            t_frames = int(rng.integers(1, 7))
            vocab = int(rng.integers(1, 4))
            n_tok = int(rng.integers(0, 4))
            tokens = rng.integers(0, vocab, size=n_tok).tolist()
            if t_frames < ctc.min_frames(tokens):
                continue
            post = _rand_log_post(rng, t_frames, vocab + 1)
            got = ctc.ctc_loss(post, tokens)
            want = ctc_enumeration_oracle(post, tokens)
            assert abs(got - want) < 1e-10
            checked += 1

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(72)
        post = _rand_log_post(rng, 6, 4)
        assert ctc.ctc_loss(post, [0, 1]) >= 0.0


class TestFeasibility:
    def test_too_many_tokens_rejected(self):
        post = np.log(np.full((2, 3), 1 / 3))
        with pytest.raises(ctc.InfeasibleLength):
            ctc.ctc_loss(post, [0, 1, 0])

    def test_adjacent_repeat_needs_separator_frame(self):
        """[a, a] needs three frames (a, blank, a); two frames permit only
        distinct neighbors."""
        post = np.log(np.full((2, 2), 0.5))
        with pytest.raises(ctc.InfeasibleLength):
            ctc.ctc_loss(post, [0, 0])
        post3 = np.log(np.full((3, 2), 0.5))
        assert np.isfinite(ctc.ctc_loss(post3, [0, 0]))

    def test_single_frame_pair_feasible_when_distinct(self):
        post = np.log(np.full((2, 3), 1 / 3))
        assert np.isfinite(ctc.ctc_loss(post, [0, 1]))

    def test_oracle_reports_infeasible(self):
        post = np.log(np.full((2, 2), 0.5))
        with pytest.raises(ctc.InfeasibleLength):
            ctc_enumeration_oracle(post, [0, 0, 0])

    def test_oracle_size_guard(self):
        post = np.log(np.full((30, 5), 0.2))
        with pytest.raises(ValueError, match="too large"):
            ctc_enumeration_oracle(post, [0])

    def test_out_of_range_token_rejected(self):
        post = np.log(np.full((4, 3), 1 / 3))
        with pytest.raises(ValueError, match="range"):
            ctc.ctc_loss(post, [5])


class TestGradient:
    def test_finite_difference_through_log_softmax(self):
        """Gradient of the DP w.r.t. logits feeding a log-softmax head."""
        rng = np.random.default_rng(73)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        tokens = [1, 0, 2]

        def f(ps):
            return ctc.ctc_loss(T.log_softmax_last(ps[0]), tokens)

        assert T.finite_diff_check(f, [logits]) < 1e-4

    def test_gradient_sums_to_frame_count_property(self):
        """With lp = log-softmax rows, d(-logZ)/d lp sums to -1 per frame
        scaled into token space: total gradient mass equals -T."""
        rng = np.random.default_rng(74)
        lp = Tensor(_rand_log_post(rng, 6, 4), requires_grad=True)
        loss = ctc.ctc_loss(lp, [0, 1])
        loss.backward()
        np.testing.assert_allclose(lp.grad.sum(axis=1), -np.ones(6), atol=1e-10)

    @pytest.mark.parametrize("packed", [False, True])
    def test_gradient_is_minus_enumerated_occupancy(self, packed):
        """d loss / d lp[t, c] is minus the posterior probability that a
        path emits class c at frame t, checked against full enumeration."""
        rng = np.random.default_rng(77)
        grids = [_rand_log_post(rng, n, 4) for n, _ in ORACLE_CASES]
        seqs = [tokens for _, tokens in ORACLE_CASES]
        if packed:
            lp = Tensor(np.concatenate(grids), requires_grad=True)
            T.reduce_sum(ctc.ctc_loss(lp, seqs, [n for n, _ in ORACLE_CASES])).backward()
            grads = np.split(lp.grad, np.cumsum([len(g) for g in grids])[:-1])
        else:
            grads = []
            for grid, tokens in zip(grids, seqs):
                lp = Tensor(grid, requires_grad=True)
                ctc.ctc_loss(lp, tokens).backward()
                grads.append(lp.grad)
        for grid, tokens, grad in zip(grids, seqs, grads):
            want = -_enumerated_occupancy(grid, tokens)
            assert np.max(np.abs(grad - want)) < 1e-12, tokens

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_one_recursion_with_or_without_gradient(self, monkeypatch, requires_grad):
        """The loss runs ``_alpha`` once: with a gradient, the utterances
        reversed are further lattice rows of that one call."""
        calls, alpha = [], ctc._alpha
        monkeypatch.setattr(ctc, "_alpha", lambda *args: calls.append(args) or alpha(*args))
        rng = np.random.default_rng(76)
        lp = Tensor(_rand_log_post(rng, 9, 4), requires_grad=requires_grad)
        ctc.ctc_loss(lp, [[0, 1], [2, 2, 1]], [4, 5])
        assert len(calls) == 1

    def test_no_grad_returns_plain_scalar_tensor(self):
        rng = np.random.default_rng(75)
        lp = Tensor(_rand_log_post(rng, 4, 3))
        out = ctc.ctc_loss(lp, [1])
        assert isinstance(out, Tensor) and out._backward is None


class TestPackedBatch:
    def test_each_utterance_matches_its_own_run_bit_for_bit(self):
        """One padded recursion over utterances of different lengths and
        token counts (empty, repeated, longest) gives every utterance the
        loss and gradient rows of running it alone."""
        rng = np.random.default_rng(76)
        frames = [5, 1, 9, 4, 7]
        seqs = [[0, 0], [], [2, 1, 1, 0, 2], [3], [1, 2, 1]]
        grids = [_rand_log_post(rng, n, 5) for n in frames]
        packed = Tensor(np.concatenate(grids), requires_grad=True)
        g = rng.normal(size=len(frames))
        losses = ctc.ctc_loss(packed, seqs, frames)
        T.reduce_sum(T.mul(losses, Tensor(g))).backward()
        offsets = np.cumsum([0] + frames)
        for i, (grid, seq) in enumerate(zip(grids, seqs)):
            one = Tensor(grid, requires_grad=True)
            loss = ctc.ctc_loss(one, seq)
            T.mul(loss, g[i]).backward()
            assert losses.data[i] == loss.data
            assert packed.grad[offsets[i]:offsets[i + 1]].tobytes() == one.grad.tobytes()
            assert ctc.ctc_loss(grid, seq) == ctc.ctc_loss(np.concatenate(grids), seqs, frames)[i]

    def test_zero_frame_utterance_rejected_by_index(self):
        """An utterance without frames has no lattice; alone it would read
        past the grid and packed it would read its neighbour's rows."""
        lp = np.log(np.full((3, 3), 1.0 / 3))
        with pytest.raises(ValueError, match="utterance 0 has no frames"):
            ctc.ctc_loss(lp[:0], [])
        with pytest.raises(ValueError, match="utterance 0 has no frames"):
            ctc.ctc_loss(lp, [[], [1]], [0, 3])
        with pytest.raises(ValueError, match="utterance 1 has no frames"):
            ctc.ctc_loss(Tensor(lp, requires_grad=True), [[1], [], [0]], [2, 0, 1])

    def test_token_sequences_must_match_the_utterances(self):
        lp = np.log(np.full((4, 3), 1.0 / 3))
        with pytest.raises(ValueError, match="^2 token sequences for 1 utterances$"):
            ctc.ctc_loss(lp, [[1], [2]], [4])
        with pytest.raises(ValueError, match="^1 token sequences for 2 utterances$"):
            ctc.ctc_loss(lp, [[1]], [2, 2])

    def test_token_impossible_on_every_frame_rejected_by_index(self):
        """A token whose class is -inf on every frame leaves no alignment:
        -inf flows through the recursion without a RuntimeWarning and the
        error names the utterance, alone and packed."""
        lp = _rand_log_post(np.random.default_rng(77), 8, 4)
        lp[:, 3] = -np.inf  # token 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ctc.InfeasibleLength, match="^utterance 0 has no alignment"):
                ctc.ctc_loss(lp, [2])
            with pytest.raises(ctc.InfeasibleLength, match="^utterance 1 has no alignment"):
                ctc.ctc_loss(Tensor(lp, requires_grad=True), [[0, 1], [1, 2], [0]], [3, 3, 2])

    def test_token_impossible_on_some_frames_has_a_finite_gradient(self):
        """-inf on some frames of a used token's class: those cells carry no
        occupancy, so loss and gradient are those of a grid holding -1e4
        there, where exp underflows to 0."""
        lp = _rand_log_post(np.random.default_rng(78), 7, 4)
        lp[[1, 4], 2] = -np.inf
        lp[2, 0] = -np.inf
        floored = np.maximum(lp, -1e4)
        grads = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid in (lp, floored):
                x = Tensor(grid, requires_grad=True)
                loss = ctc.ctc_loss(x, [1, 1, 0])
                loss.backward()
                grads.append((loss.data, x.grad))
        assert grads[0][0] == grads[1][0]
        np.testing.assert_allclose(grads[0][1], grads[1][1], rtol=0, atol=1e-12)
        assert np.all(grads[0][1][[1, 4], 2] == 0.0)

    def test_infeasible_utterance_in_batch_rejected(self):
        lp = np.log(np.full((6, 3), 1.0 / 3))
        with pytest.raises(ctc.InfeasibleLength, match="^utterance 1 has no alignment"):
            ctc.ctc_loss(lp, [[0], [1, 1]], [4, 2])

    def test_out_of_range_token_in_batch_rejected_by_index(self):
        lp = np.log(np.full((6, 3), 1.0 / 3))
        for bad in (2, -1):
            with pytest.raises(ValueError, match="^utterance 1: token id out of range"):
                ctc.ctc_loss(lp, [[0], [1, bad], [0]], [2, 2, 2])


class TestGreedy:
    def test_collapse_example(self):
        """Argmax classes blank,a,a,blank,b collapse to [a, b]."""
        post = np.log(
            np.array(
                [
                    [0.8, 0.1, 0.1],
                    [0.1, 0.8, 0.1],
                    [0.1, 0.8, 0.1],
                    [0.8, 0.1, 0.1],
                    [0.1, 0.1, 0.8],
                ]
            )
        )
        assert greedy_decode(post) == [0, 1]

    def test_all_blank_empty(self):
        post = np.log(np.tile([0.9, 0.05, 0.05], (6, 1)))
        assert greedy_decode(post) == []

    def test_peaked_matches_beam_top1(self):
        rng = np.random.default_rng(76)
        for _ in range(10):
            labels = rng.integers(0, 3, size=(8,))
            post = np.full((8, 4), math.log(0.01))
            for t, c in enumerate(labels):
                post[t, c] = math.log(0.97)
            hyps = ctc.prefix_beam_search(post, beam=8, nbest=1)
            assert hyps[0].tokens == greedy_decode(post)


class TestBeamSearch:
    def test_exhaustive_argmax_on_tiny_grid(self):
        """With a beam wider than every reachable prefix, the winner must be
        the true argmax over all label sequences by marginal probability."""
        rng = np.random.default_rng(77)
        for trial in range(8):
            t_frames, vocab = 4, 2
            post = _rand_log_post(rng, t_frames, vocab + 1)

            best_seq, best_lp = None, -np.inf
            seqs = [[]]
            for length in range(1, t_frames + 1):
                import itertools

                seqs += [list(s) for s in itertools.product(range(vocab), repeat=length)]
            for seq in seqs:
                if t_frames < ctc.min_frames(seq):
                    continue
                lp = -ctc_enumeration_oracle(post, seq)
                if lp > best_lp:
                    best_seq, best_lp = seq, lp

            hyps = ctc.prefix_beam_search(post, beam=256, nbest=1)
            assert hyps[0].tokens == best_seq
            assert abs(hyps[0].ctc_score - best_lp) < 1e-10

    def test_blank_dominated_returns_empty(self):
        post = np.log(np.tile([0.95, 0.03, 0.02], (10, 1)))
        hyps = ctc.prefix_beam_search(post, beam=4, nbest=2)
        assert hyps[0].tokens == []
        assert abs(hyps[0].ctc_score - post[:, 0].sum()) < 1e-12

    def test_nbest_sorted_and_distinct(self):
        rng = np.random.default_rng(78)
        post = _rand_log_post(rng, 10, 4)
        hyps = ctc.prefix_beam_search(post, beam=16, nbest=8)
        assert len(hyps) == 8
        scores = [h.ctc_score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert len({tuple(h.tokens) for h in hyps}) == 8

    def test_beam_must_cover_nbest(self):
        post = np.log(np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="beam"):
            ctc.prefix_beam_search(post, beam=2, nbest=4)

    def test_scores_finite_for_positive_posteriors(self):
        rng = np.random.default_rng(79)
        post = _rand_log_post(rng, 24, 11)
        hyps = ctc.prefix_beam_search(post, beam=8, nbest=8)
        assert all(np.isfinite(h.ctc_score) for h in hyps)


def _beam_scores_against_loss(post, beam):
    """(beam ctc_score, exact -ctc_loss or -inf when infeasible) per entry."""
    pairs = []
    for h in ctc.prefix_beam_search(post, beam=beam, nbest=beam):
        try:
            exact = -ctc.ctc_loss(post, h.tokens)
        except ctc.InfeasibleLength:
            exact = -math.inf
        pairs.append((h.ctc_score, exact))
    return pairs


class TestBeamInvariants:
    """The beam's per-prefix masses against `ctc_loss`, the exact reference."""

    @pytest.mark.parametrize("t_frames,vocab", [(1, 3), (3, 2), (4, 3), (5, 2), (6, 2)])
    def test_unbounded_beam_scores_are_exact(self, t_frames, vocab):
        """A beam that keeps every prefix of up to T tokens loses no path, so
        each score is the full CTC mass, and -inf exactly when infeasible."""
        rng = np.random.default_rng(80 + t_frames)
        every_prefix = sum(vocab**n for n in range(t_frames + 1))
        for _ in range(3):
            post = _rand_log_post(rng, t_frames, vocab + 1)
            pairs = _beam_scores_against_loss(post, every_prefix)
            assert len(pairs) == every_prefix
            for got, exact in pairs:
                if exact == -math.inf:
                    assert got == -math.inf
                else:
                    assert abs(got - exact) < 1e-12

    @pytest.mark.parametrize("t_frames,vocab", [(6, 3), (12, 4), (24, 10)])
    @pytest.mark.parametrize("beam", [2, 5, 8])
    def test_pruned_beam_scores_never_exceed_exact(self, t_frames, vocab, beam):
        rng = np.random.default_rng(90 + t_frames + beam)
        for _ in range(3):
            post = _rand_log_post(rng, t_frames, vocab + 1)
            for got, exact in _beam_scores_against_loss(post, beam):
                assert got <= exact + 1e-9

    @pytest.mark.parametrize("t_frames,classes,beam,want", [
        (2, 3, 7, [[0], [1], [], [0, 1], [1, 0], [0, 0], [1, 1]]),
        (3, 3, 10, [[0], [1], [0, 1], [1, 0], [], [0, 0], [0, 1, 0], [1, 0, 1], [1, 1],
                    [0, 0, 0]]),
        (4, 4, 6, [[0, 1], [0, 2], [1, 0], [0], [1], [2]]),
    ])
    def test_equal_masses_rank_in_token_order(self, t_frames, classes, beam, want):
        """Uniform posteriors give exactly tied masses. Ties rank by token
        sequence, whatever order the prefixes were reached in, and so decide
        which tied prefixes survive pruning."""
        post = np.log(np.full((t_frames, classes), 1 / classes))
        hyps = ctc.prefix_beam_search(post, beam=beam, nbest=beam)
        assert [h.tokens for h in hyps] == want
        tied = [(a.tokens, b.tokens) for a, b in zip(hyps, hyps[1:])
                if a.ctc_score == b.ctc_score]
        assert tied and all(a < b for a, b in tied)


def _logadd(a, b):
    """log(exp(a) + exp(b)) on Python floats; exact when either is -inf.

    The arithmetic of `_lse` on a pair: the larger term is factored out.
    """
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log(1.0 + math.exp(b - a))


def _scalar_prefix_beam_search(log_probs, beam, nbest, reentries=None):
    """The reference prefix search: one scalar log-add per (prefix, class).

    With `reentries` (a list), every prefix that enters the beam again
    after leaving it, while one of its children is in the beam, is
    appended to it.
    """
    if not beam >= nbest >= 1:
        raise ValueError(f"need beam >= nbest >= 1, got beam={beam}, nbest={nbest}")
    lp = np.asarray(log_probs)

    def absorb(prefix, slot, p):
        masses = nxt.get(prefix)
        if masses is None:
            masses = nxt[prefix] = [-math.inf, -math.inf]
        masses[slot] = _logadd(masses[slot], p)

    # entries are (-total, prefix, p_b, p_nb), so sorting them ranks by mass
    beams = [(-0.0, (), 0.0, -math.inf)]
    seen = {()}
    for frame in lp.tolist():
        nxt = {}
        for neg_total, prefix, p_b, p_nb in beams:
            p_total = -neg_total
            absorb(prefix, 0, frame[0] + p_total)
            last = prefix[-1] if prefix else 0
            for c in range(1, len(frame)):
                p = frame[c]
                if c == last:
                    # same class again: without a blank it extends the last
                    # emission; after a blank it starts a new token
                    absorb(prefix, 1, p + p_nb)
                    absorb(prefix + (c,), 1, p + p_b)
                else:
                    absorb(prefix + (c,), 1, p + p_total)
        before = {prefix for _, prefix, _, _ in beams}
        beams = sorted((-_logadd(b, nb), prefix, b, nb) for prefix, (b, nb) in nxt.items())
        del beams[beam:]
        if reentries is not None:
            kept = {prefix for _, prefix, _, _ in beams}
            parents = {prefix[:-1] for prefix in kept if prefix}
            reentries += sorted((kept - before) & seen & parents)
            seen |= kept

    return [
        ctc.Hypothesis(tokens=[c - 1 for c in prefix], ctc_score=-neg_total)
        for neg_total, prefix, _, _ in beams[:nbest]
    ]


def _assert_matches_oracle(post, beam, nbest, reentries=None):
    got = ctc.prefix_beam_search(post, beam=beam, nbest=nbest)
    want = _scalar_prefix_beam_search(post, beam, nbest, reentries)
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        if w.ctc_score == -math.inf:
            assert g.ctc_score == -math.inf
        else:
            assert abs(g.ctc_score - w.ctc_score) < 1e-12


def _oracle_grid(rng, t_frames, classes):
    """Random posteriors; some grids get -inf columns or exactly uniform
    rows, whose extensions tie at the beam's cut."""
    post = _rand_log_post(rng, t_frames, classes)
    kind = rng.integers(3)
    if kind == 1 and classes > 2:
        post[:, rng.choice(np.arange(1, classes), size=rng.integers(1, classes - 1),
                           replace=False)] = -np.inf
    elif kind == 2 and t_frames:
        post[rng.random(t_frames) < 0.5] = -math.log(classes)
    return post


class TestBeamOracle:
    """The grid search against the scalar reference search."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_scalar_search(self, seed):
        rng = np.random.default_rng(1100 + seed)
        for _ in range(6):
            classes = int(rng.choice([2, 3, 5, 11, 40, 101, 200]))
            beam = int(rng.integers(1, 17))
            t_frames = int(rng.integers(0, 9 if classes > 100 else 25))
            post = _oracle_grid(rng, t_frames, classes)
            _assert_matches_oracle(post, beam, int(rng.integers(1, beam + 1)))

    @pytest.mark.parametrize("classes", [2, 3, 11, 200])
    def test_one_and_zero_frames(self, classes):
        rng = np.random.default_rng(1200 + classes)
        for t_frames in (0, 1):
            for beam in (1, 4, 16):
                _assert_matches_oracle(_oracle_grid(rng, t_frames, classes), beam, beam)

    def test_beam_wider_than_candidates_keeps_every_prefix(self):
        """2 classes over 3 frames reach 4 prefixes; a beam of 16 keeps all of
        them, the infeasible ones at -inf."""
        rng = np.random.default_rng(1300)
        post = _rand_log_post(rng, 3, 2)
        post[1, 1] = -np.inf
        _assert_matches_oracle(post, 16, 16)
        assert len(ctc.prefix_beam_search(post, beam=16, nbest=16)) == 4

    @pytest.mark.parametrize("t_frames,classes,beam", [(3, 3, 2), (4, 4, 5), (5, 6, 16), (6, 3, 3)])
    def test_uniform_rows_tie_at_the_cut(self, t_frames, classes, beam):
        post = np.log(np.full((t_frames, classes), 1 / classes))
        _assert_matches_oracle(post, beam, beam)

    def test_prefix_reentering_the_beam_merges_with_its_child(self):
        """Over long grids with a narrow beam a prefix can drop out and be
        derived again while its child stays in the beam; the two must still
        merge next frame, which needs the re-derived prefix's old node. Two
        tokens with one peaked class per frame reach this case often."""
        rng = np.random.default_rng(1400)
        reentries = []
        for beam in (1, 2, 3):
            for _ in range(12):
                t_frames = int(rng.integers(60, 90))
                logits = rng.normal(size=(t_frames, 3))
                logits[np.arange(t_frames), rng.integers(3, size=t_frames)] += 2.0
                post = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
                _assert_matches_oracle(post, beam, beam, reentries)
        assert len(reentries) >= 5
