"""CTC: alignment-marginalizing loss, exact-enumeration oracle, greedy
decoding, and prefix beam search for N-best hypotheses.

Conventions: posterior matrices are [T x (V+1)] log-probabilities with
column 0 the blank; the public API speaks data-token ids (0..V-1) and the
+1 class shift stays inside this module. All dynamic programming runs in
log space with -inf as the additive identity. The loss takes one utterance
or a packed batch and runs one forward recursion over padded [batch, states]
numpy arrays; its gradient reads the backward variables off the same
recursion run on every utterance reversed. The prefix beam search works on
Python floats with a scalar log-add, since its masses are merged one pair
at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

NEG_INF = -np.inf


class InfeasibleLength(ValueError):
    """Label sequence cannot be emitted in the available frames."""


def _lse(values):
    """Log-sum-exp over a 1-D array, safe at all -inf."""
    m = np.max(values)
    if m == NEG_INF:
        return NEG_INF
    return m + np.log(np.sum(np.exp(values - m)))


def _logadd(a, b):
    """log(exp(a) + exp(b)) on Python floats; exact when either is -inf.

    The arithmetic of `_lse` on a pair: the larger term is factored out.
    """
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log(1.0 + math.exp(b - a))


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


def _check_inputs(lp, tokens):
    t_frames, classes = lp.shape
    if any(t < 0 or t + 1 >= classes for t in tokens):
        raise ValueError(f"token id out of range for {classes - 1} CTC labels: {tokens}")
    need = min_frames(tokens)
    if t_frames < need:
        raise InfeasibleLength(
            f"{len(tokens)} tokens need at least {need} frames, got {t_frames}"
        )


def _logsumexp3(stay, step, jump):
    """Elementwise log(exp(stay) + exp(step) + exp(jump)), -inf where all are."""
    stacked = np.stack([stay, step, jump])
    m = stacked.max(axis=0)
    safe = m != NEG_INF
    tot = np.full(m.shape, NEG_INF)
    tot[safe] = m[safe] + np.log(np.exp(stacked[:, safe] - m[safe]).sum(axis=0))
    return tot


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
    minus_inf = np.full((batch, s_max), NEG_INF)

    alpha = np.full((len(rows), batch, s_max), NEG_INF)
    alpha[0, :, :2] = emit[0, :, :2]
    for t in range(1, len(rows)):
        prev = alpha[t - 1]
        step = minus_inf.copy()
        step[:, 1:] = prev[:, :-1]
        jump = minus_inf.copy()
        jump[:, 2:] = prev[:, : s_max - 2]
        jump[~skip] = NEG_INF
        alpha[t] = _logsumexp3(prev, step, jump) + emit[t]
    return alpha, emit, ext


def ctc_loss(log_probs, tokens, lengths=None):
    """Negative log-probability of `tokens` under the posterior grid.

    With `lengths` the grid is a packed batch: utterance i owns the next
    lengths[i] rows, `tokens` holds one sequence per utterance, and the
    result is the vector of per-utterance losses. `_alpha` runs over the
    longest utterance on padded [batch, states] arrays, so each utterance's
    values are those of running it alone.

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
    for o, n, seq in zip(offsets, frames, seqs):
        _check_inputs(lp[o : o + n], seq)
    batch, n_b = len(seqs), np.array(frames)
    s_b = np.array([2 * len(seq) + 1 for seq in seqs])
    t_col = np.arange(max(frames))[:, None]

    alpha, emit, ext = _alpha(lp, offsets + t_col, seqs)
    log_z = np.array([
        _lse(alpha[n_b[b] - 1, b, max(s_b[b] - 2, 0) : s_b[b]]) for b in range(batch)
    ])
    if np.any(log_z == NEG_INF):
        raise InfeasibleLength("no alignment has positive probability")
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
    occ = alpha[valid] + beta - emit[valid] - log_z[b_idx]
    occupancy = np.zeros_like(lp)
    np.add.at(occupancy, (offsets[b_idx] + t_idx, ext[b_idx, s_idx]), np.exp(occ))
    row_utt = np.repeat(np.arange(batch), frames)

    def bwd(g):
        return (occupancy * -np.broadcast_to(g, (batch,))[row_utt][:, None],)

    return T._node(value, (log_probs,), bwd, "ctc-loss")


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
    target = list(tokens)
    scores = [
        sum(lp[t, c] for t, c in enumerate(path))
        for path in itertools.product(range(classes), repeat=t_frames)
        if _collapse(path) == target
    ]
    if not scores:
        raise InfeasibleLength(f"no path of length {t_frames} collapses to {tokens}")
    return -_lse(np.array(scores))


def greedy_decode(log_probs):
    """Best class per frame, repeats merged, blanks dropped."""
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    return _collapse(np.argmax(lp, axis=-1))


@dataclass
class Hypothesis:
    """One N-best entry; aed_score and combined are filled by rescoring."""

    tokens: list
    ctc_score: float
    aed_score: float = field(default=0.0)
    combined: float = field(default=0.0)


def prefix_beam_search(log_probs, beam, nbest):
    """CTC prefix search keeping (blank-ending, nonblank-ending) log masses
    per prefix; returns the top `nbest` distinct prefixes by total mass.

    The grid is converted to Python floats once and every mass is merged
    with the scalar `_logadd`, so no numpy call runs per prefix or class.
    Each surviving prefix carries its total, computed once per frame: it
    ranks the beam and seeds the prefix's extensions in the next frame.
    Ties in total mass break lexicographically on the token sequence so
    results are reproducible.
    """
    if not beam >= nbest >= 1:
        raise ValueError(f"need beam >= nbest >= 1, got beam={beam}, nbest={nbest}")
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)

    def absorb(prefix, slot, p):
        masses = nxt.get(prefix)
        if masses is None:
            masses = nxt[prefix] = [NEG_INF, NEG_INF]
        masses[slot] = _logadd(masses[slot], p)

    # entries are (-total, prefix, p_b, p_nb), so sorting them ranks by mass
    beams = [(-0.0, (), 0.0, NEG_INF)]
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
        beams = sorted((-_logadd(b, nb), prefix, b, nb) for prefix, (b, nb) in nxt.items())
        del beams[beam:]

    return [
        Hypothesis(tokens=[c - 1 for c in prefix], ctc_score=-neg_total)
        for neg_total, prefix, _, _ in beams[:nbest]
    ]
