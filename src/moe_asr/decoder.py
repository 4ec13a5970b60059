"""Attention decoder: autoregressive transformer over encoder output.

One main decoder serves inference (rescoring); ``num_levels - 1``
auxiliary copies, one per intermediate encoder tap at evenly spaced depths,
contribute train-only losses. The shared start/end symbol is the last
vocabulary id; teacher forcing feeds [sos] + tokens and scores
tokens + [eos].

A block is three graph nodes, each a pre-norm sub-layer with its
residual: causal self-attention, cross-attention (the query side
normalized, keys and values projected from the encoder rows) and the
feed-forward.

Teacher forcing also runs a packed batch in one pass: each utterance's
[sos] + tokens rows are stacked and attention reads their row counts:
self-attention is causal within each utterance, cross-attention sees only
that utterance's encoder rows, and no mask is built.

The L decoders of the multi-level loss run as one level-stacked pass.
They read the same token rows, against encoder outputs with the same row
counts (every tap has as many rows as the final output), so their rows
form a dense [L, rows, d] stack. Each node of the pass covers all levels,
each level through its own decoder's weights, one product per level: the
embedding lookup, each sub-layer, the output layernorm and linear, the
log-softmax and the loss. It runs in arena order, the main decoder on the
final output and then the auxiliary ones on the taps: declared so in one
module tree, the decoders lie at one stride of its arena, and a stand-in
decoder holding [L, ...] views of their parameters runs the code of one
decoder, as rescoring runs it without the level axis. The total adds the
auxiliary levels' losses shallow to deep, then the main level's.

Rescoring runs one pass over the prefix trie of an N-best list. Causality
means row t of a hypothesis depends only on [sos] + tokens[:t], so the
hypotheses share every row of a common prefix: the trie has one row per
distinct prefix, a mask lets a row's self-attention see only itself and
its ancestors, and every row attends to the one encoder output.
"""

from __future__ import annotations

import copy

import numpy as np

from . import tensor as T
from .nn import (
    Dropout,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    Parameter,
    joined_mask,
    normal_init,
    sinusoidal_positions,
    stacked_parameters,
)
from .tensor import Tensor

LABEL_SMOOTHING = 0.1  # the paper recipe's weight of the uniform target in every AED loss


class DecoderBlock(Module):
    """Pre-norm: causal self-attention, cross-attention, feed-forward.
    `rows` and `enc_rows`: token and encoder rows per utterance of a packed
    batch (None: one); a `mask` replaces the causal one and must imply it."""

    def __init__(self, d, d_ff, heads, dropout=0.0):
        super().__init__()
        self.norm1 = LayerNorm(d)
        self.self_attn = MultiHeadAttention(d, heads)
        self.dropout1 = Dropout(dropout)
        self.norm2 = LayerNorm(d)
        self.cross_attn = MultiHeadAttention(d, heads)
        self.dropout2 = Dropout(dropout)
        self.ffn = FeedForward(d, d_ff, dropout)

    def forward(self, x, enc, rows=None, enc_rows=None, mask=None):
        shape, heads = x.data.shape[-2:], self.self_attn.heads
        x = T.mha(x, None, heads, *self.self_attn.operands(self.norm1, self.dropout1, shape),
                  lengths=rows, causal=mask is None, mask=mask)
        x = T.mha(x, enc, heads, *self.cross_attn.operands(self.norm2, self.dropout2, shape),
                  lengths=rows, key_lengths=enc_rows)
        return T.ffn(x, 1.0, *self.ffn.operands(shape[0]))


class TransformerDecoder(Module):
    def __init__(self, vocab_size, d, d_ff, heads, num_blocks, dropout=0.0):
        super().__init__()
        self.vocab_size = vocab_size
        self.sos_eos = vocab_size - 1
        self.embed = Parameter((vocab_size, d), normal_init(1.0 / np.sqrt(d)))
        self.dropout = Dropout(dropout)
        self.blocks = [DecoderBlock(d, d_ff, heads, dropout) for _ in range(num_blocks)]
        self.norm_out = LayerNorm(d)
        self.out = Linear(d, vocab_size)
        # (auxiliary decoders, stand-in) of the last level-stacked pass it led
        self._levels = None

    def decode_teacher_forced(self, enc, tokens, lengths=None):
        """Per-position log-distributions, [len(tokens)+1 x V]; row t
        conditions on sos plus tokens[0..t) and the full encoder output.

        With `lengths` (encoder rows per utterance of a packed batch),
        `tokens` holds one sequence per utterance and the result stacks
        each utterance's rows, computed against its own encoder rows.
        """
        return _teacher_forced(self, enc, [tokens] if lengths is None else tokens, lengths)


# ---------------------------------------------------------------------------
# one decoder, or L of them level-stacked
# ---------------------------------------------------------------------------


class _LevelDropout:
    """L levels' dropouts at one place: the mask for rows of shape [..., n,
    d] is the levels' [n, d] masks, each drawn from its own stream, stacked
    (``joined_mask``); ``forward`` applies it as ``Dropout.forward`` does."""

    def __init__(self, dropouts):
        self.dropouts = dropouts

    def mask(self, shape):
        return joined_mask([(d, shape[-2:]) for d in self.dropouts], np.array)

    forward = Dropout.forward


def _stand_in(modules):
    """One module that runs as the L modules of one shape in `modules`: a
    shallow copy of the first with each parameter the [L, ...] leaf of views
    of theirs, each child the stand-in of theirs and each ``Dropout`` a
    ``_LevelDropout``. ValueError unless they lie at one stride of an arena."""
    if isinstance(modules[0], Dropout):
        return _LevelDropout(modules)
    stand_in = copy.copy(modules[0])
    for attr, value in vars(modules[0]).items():
        values = [vars(m)[attr] for m in modules]
        if isinstance(value, Module):
            setattr(stand_in, attr, _stand_in(values))
        elif isinstance(value, Tensor) and value.requires_grad:
            setattr(stand_in, attr, stacked_parameters(values))
        elif isinstance(value, list) and value and all(isinstance(v, Module) for v in value):
            setattr(stand_in, attr, [_stand_in(list(group)) for group in zip(*values)])
    return stand_in


def _level_stack(decoders):
    """The stand-in of `decoders`, main first, kept on the main decoder with
    the auxiliary ones (not with itself: a cycle would outlive the model)."""
    main, aux = decoders[0], decoders[1:]
    if main._levels is None or main._levels[0] != aux:
        main._levels = None  # not copied into the stand-in
        main._levels = (aux, _stand_in(decoders))
    return main._levels[1]


def _teacher_forced(decoder, memory, seqs, lengths):
    """Log-distributions of [sos] + seq for each token sequence of `seqs`,
    one per utterance of `lengths` encoder rows (None: one utterance),
    stacked by utterance; `decoder` and `memory` as ``_forward_rows``
    takes them."""
    enc = memory if isinstance(memory, Tensor) else memory[0]
    lengths = T.segment_lengths(lengths, enc.data.shape[0], "decode-teacher-forced")
    seqs = [[int(t) for t in seq] for seq in seqs]
    if len(seqs) != len(lengths):
        raise ValueError(f"{len(seqs)} token sequences for {len(lengths)} utterances")
    rows = [len(seq) + 1 for seq in seqs]
    ids = np.concatenate([[decoder.sos_eos] + seq for seq in seqs]).astype(np.int64)
    positions = np.concatenate([np.arange(n) for n in rows])
    return _forward_rows(decoder, memory, ids, positions, rows, lengths)


def _forward_rows(decoder, memory, ids, positions, rows=None, enc_rows=None, mask=None):
    """Log-distributions of token rows `ids` at `positions`: the one block
    loop behind teacher forcing, the multi-level loss and rescoring.

    `decoder` is one decoder reading the encoder rows `memory` ([n, V]
    out), or the stand-in of L decoders (``_level_stack``), level l reading
    memory[l] of L encoder outputs with one row count ([L, n, V] out).
    `rows`, `enc_rows` and `mask` go to each block."""
    vocab = decoder.vocab_size
    if ids.min() < 0 or ids.max() >= vocab:
        bad = sorted({int(t) for t in ids if not 0 <= t < vocab})
        raise ValueError(f"token id outside vocabulary of {vocab}: {bad}")
    x = T.embedding_lookup(decoder.embed, ids)
    table = sinusoidal_positions(int(positions.max()) + 1, x.data.shape[-1])
    x = decoder.dropout.forward(T.add(x, Tensor(table[positions])))
    for block in decoder.blocks:
        x = block.forward(x, memory, rows, enc_rows, mask)
    return T.log_softmax_last(decoder.out.forward(decoder.norm_out.forward(x)))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def aed_losses(log_probs, token_seqs):
    """Per-utterance smoothed cross-entropy of a packed batch, a vector; of
    level-stacked log-probabilities [L, rows, V], one vector per level.

    Utterance i owns the next len(token_seqs[i]) + 1 rows; its loss is the
    mean over those rows of the cost of tokens + [eos]. The smoothed target
    mixes (1-eps) of the true one-hot with eps = ``LABEL_SMOOTHING`` of the
    uniform distribution over the vocabulary.
    """
    vocab = log_probs.data.shape[-1]
    targets = np.concatenate([[int(t) for t in seq] + [vocab - 1] for seq in token_seqs])
    rows = targets.shape[0]
    if log_probs.data.ndim not in (2, 3) or log_probs.data.shape[-2] != rows:
        raise T.ShapeMismatch("aed-loss", log_probs.data.shape, targets.shape)
    cost = T.add(T.scale(T.gather_last(log_probs, targets), LABEL_SMOOTHING - 1.0),
                 T.scale(T.reduce_sum(log_probs, axis=-1), -LABEL_SMOOTHING / vocab))
    return T.segment_means(cost, [len(seq) + 1 for seq in token_seqs])


def aed_loss(log_probs, tokens):
    """Mean smoothed cross-entropy of tokens + [eos] against the rows of
    one utterance; ``aed_losses`` of a batch of one."""
    return T.reshape(aed_losses(log_probs, [tokens]), ())


def multi_level_aed(main_decoder, aux_decoders, enc_output, tokens):
    """Sum of per-level teacher-forced losses: the main decoder on the final
    encoder output plus one auxiliary decoder per intermediate tap, the
    decoders paired with ``enc_output.taps`` in depth order.

    The levels run as one level-stacked pass in arena order and one
    ``aed_losses``; ValueError unless the decoders are declared in one
    module tree, main first, as ``SpeechModel`` declares them. The total
    adds the auxiliary levels' losses one after another, shallow to deep,
    then the main level's.
    Returns (total, per-level values) with levels ordered shallow to deep,
    main decoder last; the per-level values are graph-free, for reporting.
    When ``enc_output.lengths`` is set (a packed batch), `tokens` holds one
    sequence per utterance and every value is a vector of per-utterance
    losses.
    """
    taps = list(enc_output.taps.values())
    if len(aux_decoders) != len(taps):
        raise ValueError(f"{len(aux_decoders)} auxiliary decoders for {len(taps)} encoder taps")
    lengths = enc_output.lengths
    seqs = [tokens] if lengths is None else tokens
    log_probs = _teacher_forced(_level_stack([main_decoder, *aux_decoders]),
                                [enc_output.final, *taps], seqs, lengths)
    levels = aed_losses(log_probs, seqs)
    total = T.level_sum(levels)
    values = np.roll(levels.data, -1, axis=0)  # shallow to deep, main last
    if lengths is None:
        return T.reshape(total, ()), [Tensor(v) for v in values[:, 0]]
    return total, [Tensor(v) for v in values]


def _prefix_trie(token_seqs, sos):
    """Rows of the prefix trie of `token_seqs`, rooted at `sos`.

    Returns (ids, depths, parents, paths): row r holds token ids[r] at
    position depths[r] below its parent row parents[r] (-1 for the root),
    and paths[i] lists the rows of hypothesis i from the root to its last
    token, so row paths[i][t] predicts (tokens + [eos])[t].
    """
    ids, depths, parents, children = [sos], [0], [-1], [{}]
    paths = []
    for seq in token_seqs:
        row, path = 0, [0]
        for token in seq:
            child = children[row].get(token)
            if child is None:
                child = len(ids)
                children[row][token] = child
                ids.append(token)
                depths.append(depths[row] + 1)
                parents.append(row)
                children.append({})
            row = child
            path.append(row)
        paths.append(path)
    return ids, depths, parents, paths


def rescore(decoder, enc, token_seqs):
    """Teacher-forced log-probability of each hypothesis plus its end
    symbol, one float per sequence of `token_seqs`.

    All hypotheses are scored by one decoder pass over their prefix trie:
    a shared prefix is computed once, each row's self-attention sees its
    ancestors and itself (the causal mask of its own path), and every row
    attends to all of `enc`, so cross-attention projects it once per block.
    An empty hypothesis scores log P(eos | sos, encoder output). Pure
    scoring: runs without graph recording.
    """
    seqs = [[int(t) for t in seq] for seq in token_seqs]
    if not seqs:
        return []
    ids, depths, parents, paths = _prefix_trie(seqs, decoder.sos_eos)
    # a row sees itself and its ancestors; parents precede their children
    sees = np.eye(len(ids), dtype=bool)
    for row in range(1, len(ids)):
        sees[row] |= sees[parents[row]]
    with T.no_grad():
        lp = _forward_rows(
            decoder, enc, np.array(ids, dtype=np.int64), np.array(depths), mask=~sees
        ).data
    return [
        float(lp[path, seq + [decoder.sos_eos]].sum()) for path, seq in zip(paths, seqs)
    ]
