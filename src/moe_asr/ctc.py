"""CTC: alignment-marginalizing loss and prefix beam search for N-best
hypotheses.

Conventions: posterior matrices are [T x (V+1)] log-probabilities with
column 0 the blank; the public API speaks data-token ids (0..V-1) and the
+1 class shift stays inside this module. All dynamic programming runs in
log space with -inf as the additive identity, and every log-space sum is
numpy's ``np.logaddexp``, exact at -inf. The loss takes one utterance
or a packed batch and runs one forward recursion over padded [batch, states]
numpy arrays; its gradient reads the backward variables off the same
recursion run on every utterance reversed. The prefix beam search keeps
its beam as arrays and scores every (prefix, class) extension of a frame in
one [beam x classes] grid, so a frame is a fixed number of numpy calls
whatever the vocabulary size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

NEG_INF = -np.inf


class InfeasibleLength(ValueError):
    """Label sequence cannot be emitted in the available frames."""


def min_frames(tokens):
    """Fewest frames that can realize the sequence: one per token plus one
    separating blank per adjacent repeat."""
    repeats = sum(1 for a, b in zip(tokens, tokens[1:]) if a == b)
    return len(tokens) + repeats


def _extended(tokens):
    """Blank-interleaved class sequence: [0, c1, 0, c2, ..., 0]."""
    ext = np.zeros(2 * len(tokens) + 1, dtype=np.int64)
    ext[1::2] = np.asarray(tokens, dtype=np.int64) + 1
    return ext


def _alpha(lp, rows, seqs):
    """Forward variables of each utterance's CTC lattice.

    Utterance b reads its frame t from grid row rows[t, b]; rows past its
    end may hold any value and are never used. Returns alpha [T, B, S_max],
    the emissions it summed and the blank-interleaved classes ext [B, S_max]
    (padded with blanks). Alpha only flows to higher states and later
    frames, so padded cells never reach real ones.
    """
    batch, s_max = len(seqs), max(2 * len(seq) + 1 for seq in seqs)
    ext = np.zeros((batch, s_max), dtype=np.int64)
    for b, seq in enumerate(seqs):
        ext[b, : 2 * len(seq) + 1] = _extended(seq)
    rows = np.clip(rows, 0, lp.shape[0] - 1)
    emit = lp[rows[:, :, None], ext[None, :, :]]

    # skip[b, s]: an alignment may jump s-2 -> s (new non-blank distinct
    # from the previous non-blank).
    skip = np.zeros((batch, s_max), dtype=bool)
    skip[:, 2:] = (ext[:, 2:] != 0) & (ext[:, 2:] != ext[:, :-2])
    pad = np.full((batch, 2), NEG_INF)

    alpha = np.full((len(rows), batch, s_max), NEG_INF)
    alpha[0, :, :2] = emit[0, :, :2]
    for t in range(1, len(rows)):
        # prev[:, s + 2] is alpha[t-1] at state s; states below 0 are -inf
        prev = np.concatenate([pad, alpha[t - 1]], axis=1)
        stay_step = np.logaddexp(prev[:, 2:], prev[:, 1:-1])
        jump = np.where(skip, prev[:, :-2], NEG_INF)
        alpha[t] = np.logaddexp(stay_step, jump) + emit[t]
    return alpha, emit, ext


def ctc_loss(log_probs, tokens, lengths=None):
    """Negative log-probability of `tokens` under the posterior grid.

    With `lengths` the grid is a packed batch: utterance i owns the next
    lengths[i] rows, `tokens` holds one sequence per utterance, and the
    result is the vector of per-utterance losses. `_alpha` runs over the
    longest utterance on padded [batch, states] arrays, so each utterance's
    values are those of running it alone. Every utterance needs at least
    one frame and token ids within the grid's labels; one with no frames or
    an out-of-range token raises ValueError naming its index, and one that
    no alignment can emit (too few frames, or a token whose class is -inf on
    every frame) raises InfeasibleLength naming it.

    Differentiable: the backward pass uses the full forward/backward
    occupancy, so gradients flow to every frame and class. The backward
    variables are the forward variables of each utterance reversed in time
    with its tokens reversed (Graves et al., 2006), so each starts at its
    own last frame.
    """
    is_tensor = isinstance(log_probs, Tensor)
    lp = log_probs.data if is_tensor else np.asarray(log_probs, dtype=np.float64)
    seqs = [tokens] if lengths is None else tokens
    frames = T.segment_lengths(lengths, lp.shape[0], "ctc-loss")
    seqs = [[int(t) for t in seq] for seq in seqs]
    if len(seqs) != len(frames):
        raise ValueError(f"{len(seqs)} token sequences for {len(frames)} utterances")
    offsets = np.cumsum([0] + frames[:-1])
    classes = lp.shape[1]
    for i, (n, seq) in enumerate(zip(frames, seqs)):
        if n == 0:
            raise ValueError(f"utterance {i} has no frames")
        if any(t < 0 or t + 1 >= classes for t in seq):
            raise ValueError(
                f"utterance {i}: token id out of range for {classes - 1} CTC labels: {seq}"
            )
    batch, n_b = len(seqs), np.array(frames)
    s_b = np.array([2 * len(seq) + 1 for seq in seqs])
    t_col = np.arange(max(frames))[:, None]

    alpha, emit, ext = _alpha(lp, offsets + t_col, seqs)
    log_z = np.array([
        np.logaddexp.reduce(alpha[n_b[b] - 1, b, max(s_b[b] - 2, 0) : s_b[b]])
        for b in range(batch)
    ])
    infeasible = np.flatnonzero(log_z == NEG_INF)
    if len(infeasible):
        raise InfeasibleLength(
            f"utterance {infeasible[0]} has no alignment with positive probability"
        )
    losses = -log_z
    value = losses[0] if lengths is None else losses

    if not (is_tensor and log_probs.requires_grad):
        return Tensor(value) if is_tensor else value

    reverse, _, _ = _alpha(lp, offsets + n_b - 1 - t_col, [seq[::-1] for seq in seqs])

    # occupancy gamma[t,s] = alpha*beta / emit over the real (frame, state)
    # cells, with beta[t, b, s] = reverse[n_b-1-t, b, S_b-1-s];
    # d(-logZ)/d lp[t,c] is minus the summed occupancy of states labeled c,
    # normalized by Z. np.add.at accumulates each (frame, class) cell in
    # state order.
    valid = (t_col[:, :, None] < n_b[None, :, None]) & (
        np.arange(ext.shape[1])[None, None, :] < s_b[None, :, None]
    )
    t_idx, b_idx, s_idx = np.nonzero(valid)
    beta = reverse[n_b[b_idx] - 1 - t_idx, b_idx, s_b[b_idx] - 1 - s_idx]
    # a cell whose emission is -inf has alpha and beta -inf as well, so its
    # occupancy is 0; dividing by 1 there keeps -inf - -inf from forming NaN
    emitted = emit[valid]
    occ = alpha[valid] + beta - np.where(emitted == NEG_INF, 0.0, emitted) - log_z[b_idx]
    occupancy = np.zeros_like(lp)
    np.add.at(occupancy, (offsets[b_idx] + t_idx, ext[b_idx, s_idx]), np.exp(occ))
    row_utt = np.repeat(np.arange(batch), frames)

    def bwd(g):
        return (occupancy * -np.broadcast_to(g, (batch,))[row_utt][:, None],)

    return T._node(value, (log_probs,), bwd, "ctc-loss")


@dataclass
class Hypothesis:
    """One N-best entry; aed_score and combined are filled by rescoring."""

    tokens: list
    ctc_score: float
    aed_score: float = field(default=0.0)
    combined: float = field(default=0.0)


def prefix_beam_search(log_probs, beam, nbest):
    """CTC prefix search over the array `log_probs` [frames x classes],
    keeping (blank-ending, nonblank-ending) log masses per prefix; returns
    the top `nbest` distinct prefixes by total mass.

    The beam is a set of arrays with one entry per prefix, and each prefix
    is a node of an interned trie keyed by (parent node, class), so a
    prefix that leaves the beam and is derived again gets its old node
    back. Each frame scores one [beam x classes] grid: cell (k, c > 0)
    extends entry k by class c, column 0 holds entry k's own next mass.
    An extension that is itself a beam entry (found by matching parent
    nodes) is folded into that entry's nonblank mass and dropped. So a
    frame costs a fixed number of numpy calls at any vocabulary size, and
    Python work bounded by the beam. Ties in total mass break
    lexicographically on the token sequence so results are reproducible;
    prefix tuples are built only for cells tied at the beam's cut and for
    the final N-best.
    """
    if not beam >= nbest >= 1:
        raise ValueError(f"need beam >= nbest >= 1, got beam={beam}, nbest={nbest}")
    lp = np.asarray(log_probs, np.float64)
    classes = lp.shape[1]
    trie, links = {}, [(0, 0)]  # links[n] = (parent node, class) of node n > 0

    def intern(parent, c):
        node = trie.get((parent, c))
        if node is None:
            node = trie[parent, c] = len(links)
            links.append((parent, c))
        return node

    def prefix(node, c=0):
        out = [c] if c else []
        while node:
            node, c = links[node]
            out.append(c)
        return tuple(out[::-1])

    # the beam starts as the empty prefix (node 0, whose parent is none)
    node, parent, last = np.zeros(1, np.int64), np.full(1, -1), np.zeros(1, np.int64)
    p_b, p_nb, total = np.zeros(1), np.full(1, NEG_INF), np.zeros(1)
    entries = np.arange(beam)
    for row in lp:
        grid = total[:, None] + row
        # same class again: after a blank it starts a new token, without
        # one it extends the last emission (the stay's nonblank mass); the
        # empty prefix's cell is column 0, which is rewritten below
        again = row[last]
        grid[entries[: len(last)], last] = again + p_b
        stay_b, stay_nb = row[0] + total, again + p_nb
        child, of = (parent[:, None] == node).nonzero()
        if len(child):
            cell = (of, last[child])
            stay_nb[child] = np.logaddexp(stay_nb[child], grid[cell])
            grid[cell] = np.nan
        grid[:, 0] = np.logaddexp(stay_b, stay_nb)

        pick = _survivors(grid, beam, len(child), lambda k, c: prefix(node[k], c))
        k, c = np.divmod(pick, classes)
        ext = c > 0
        total = grid.ravel()[pick]
        p_b = np.where(ext, NEG_INF, stay_b[k])
        p_nb = np.where(ext, total, stay_nb[k])
        last = np.where(ext, c, last[k])
        parent = np.where(ext, node[k], parent[k])
        node = node[k]
        new = ext.nonzero()[0]
        node[new] = [intern(*pc) for pc in zip(parent[new].tolist(), c[new].tolist())]

    ranked = sorted(zip((-total).tolist(), map(prefix, node.tolist())))
    return [
        Hypothesis(tokens=[c - 1 for c in seq], ctc_score=-neg_total)
        for neg_total, seq in ranked[:nbest]
    ]


def _survivors(grid, beam, dropped, prefix):
    """Flat indices, in no order, of the `beam` best grid cells by (mass
    descending, prefix ascending); NaN cells are not candidates.

    `argpartition` finds the cut. Only when more cells tie at the cut than
    places are left are prefixes built, via `prefix(k, c)`, and then only
    for each row's first tied cells: a row's cells rank in column order,
    since cell (k, 0) is entry k's prefix and (k, c) extends it by c.
    """
    key = -grid.ravel()
    if key.size - dropped <= beam:
        return (~np.isnan(key)).nonzero()[0]
    best = key.argpartition(beam - 1)[:beam]
    cut = key[best[-1]]
    tied = key == cut
    n_tied = np.count_nonzero(tied)
    if n_tied == 1:  # the usual case: only best[-1] sits at the cut
        return best
    above = best[key[best] < cut]
    need = beam - len(above)
    if n_tied == need:
        return best
    tied = tied.reshape(grid.shape)
    tied &= np.cumsum(tied, axis=1) <= need
    cells = tied.ravel().nonzero()[0].tolist()
    cells.sort(key=lambda i: prefix(*divmod(i, grid.shape[1])))
    return np.concatenate([above, cells[:need]])
