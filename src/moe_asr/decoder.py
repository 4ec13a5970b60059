"""Attention decoder: autoregressive transformer over encoder output.

One main decoder serves inference (rescoring); ``num_levels - 1``
auxiliary copies, one per intermediate encoder tap at evenly spaced depths,
contribute train-only losses. The shared start/end symbol is the last
vocabulary id; teacher forcing feeds [sos] + tokens and scores
tokens + [eos].

A block is three graph nodes, each a pre-norm sub-layer with its
residual: self-attention under a key mask, cross-attention (the query side
normalized, keys and values projected from the encoder rows) and the
feed-forward.

Every pass runs the rows of a prefix forest (``_prefix_forest``): one
trie per group of token sequences, each rooted at its own sos row, the
groups' rows back to back. A row's self-attention sees only itself and
its ancestors, so row t of a sequence depends only on [sos] + tokens[:t].
Teacher forcing gives each utterance of a packed batch a group of its one
sequence, whose trie is the path [sos] + tokens and whose mask hides
every later row; attention reads the groups' row counts, so a row sees
only its own utterance's rows and, in cross-attention, its encoder rows.
Rescoring gives an N-best list one group: the hypotheses share every row
of a common prefix, the trie has one row per distinct prefix, and every
row attends to the one encoder output.

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
    """Pre-norm: self-attention, cross-attention, feed-forward, three module
    calls, each one node. `mask` ([rows, rows] bool) is true where a row may
    not look, ``_prefix_forest``'s mask; `rows` and `enc_rows`: token and
    encoder rows per utterance of a packed batch (None: one)."""

    def __init__(self, d, d_ff, heads, dropout=0.0):
        super().__init__()
        self.norm1 = LayerNorm(d)
        self.self_attn = MultiHeadAttention(d, heads)
        self.dropout1 = Dropout(dropout)
        self.norm2 = LayerNorm(d)
        self.cross_attn = MultiHeadAttention(d, heads)
        self.dropout2 = Dropout(dropout)
        self.ffn = FeedForward(d, d_ff, dropout)

    def forward(self, x, enc, mask, rows=None, enc_rows=None):
        x = self.self_attn.forward(x, None, self.norm1, self.dropout1, lengths=rows, mask=mask)
        x = self.cross_attn.forward(x, enc, self.norm2, self.dropout2, lengths=rows,
                                    key_lengths=enc_rows)
        return self.ffn.forward(x)


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
    stacked by utterance: ``_forward_rows`` over a prefix forest of one
    single-sequence group per utterance, `decoder` and `memory` as it
    takes them."""
    enc = memory if isinstance(memory, Tensor) else memory[0]
    lengths = T.segment_lengths(lengths, enc.data.shape[0], "decode-teacher-forced")
    if len(seqs) != len(lengths):
        raise ValueError(f"{len(seqs)} token sequences for {len(lengths)} utterances")
    ids, positions, rows, mask, _ = _prefix_forest([[seq] for seq in seqs], decoder.sos_eos)
    return _forward_rows(decoder, memory, ids, positions, mask, rows, lengths)


def _prefix_forest(groups, sos):
    """Rows of one prefix trie per group of token sequences, each rooted at
    its own `sos` row, the groups' rows back to back.

    Returns (ids, positions, rows, mask, paths): row r holds token ids[r]
    at position positions[r] (its depth); group g owns the next rows[g]
    rows; mask[i, j] is true unless row j is row i or one of its ancestors;
    and paths lists, for each sequence in group order, its rows from the
    root to its last token, so row path[t] predicts (seq + [eos])[t].
    """
    ids, positions, parents, rows, paths = [], [], [], [], []
    for group in groups:
        root, children = len(ids), {}
        ids.append(sos)
        positions.append(0)
        parents.append(-1)
        for seq in group:
            row, path = root, [root]
            for token in map(int, seq):
                child = children.get((row, token))
                if child is None:
                    child = children[row, token] = len(ids)
                    ids.append(token)
                    positions.append(positions[row] + 1)
                    parents.append(row)
                row = child
                path.append(row)
            paths.append(path)
        rows.append(len(ids) - root)
    # a row sees itself and its ancestors; parents precede their children
    sees = np.eye(len(ids), dtype=bool)
    for row, parent in enumerate(parents):
        if parent >= 0:
            sees[row] |= sees[parent]
    return np.array(ids, dtype=np.int64), np.array(positions), rows, ~sees, paths


def _forward_rows(decoder, memory, ids, positions, mask, rows=None, enc_rows=None):
    """Log-distributions of token rows `ids` at `positions`: the one block
    loop behind teacher forcing, the multi-level loss and rescoring.

    `decoder` is one decoder reading the encoder rows `memory` ([n, V]
    out), or the stand-in of L decoders (``_level_stack``), level l reading
    memory[l] of L encoder outputs with one row count ([L, n, V] out).
    `mask`, `rows` and `enc_rows` go to each block."""
    vocab = decoder.vocab_size
    if ids.min() < 0 or ids.max() >= vocab:
        bad = sorted({int(t) for t in ids if not 0 <= t < vocab})
        raise ValueError(f"token id outside vocabulary of {vocab}: {bad}")
    x = T.embedding_lookup(decoder.embed, ids)
    table = sinusoidal_positions(int(positions.max()) + 1, x.data.shape[-1])
    x = decoder.dropout.forward(T.add(x, Tensor(table[positions])))
    for block in decoder.blocks:
        x = block.forward(x, memory, mask, rows, enc_rows)
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
    cost = T.add(T.mul(T.gather_last(log_probs, targets), LABEL_SMOOTHING - 1.0),
                 T.mul(T.reduce_sum(log_probs, axis=-1), -LABEL_SMOOTHING / vocab))
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


def rescore(decoder, enc, token_seqs):
    """Teacher-forced log-probability of each hypothesis plus its end
    symbol, one float per sequence of `token_seqs`.

    All hypotheses are scored by one decoder pass over the prefix forest of
    one group, their trie: a shared prefix is computed once, each row's
    self-attention sees its ancestors and itself (its own path's teacher-
    forcing mask), and every row attends to all of `enc`, so cross-attention
    projects it once per block. An empty hypothesis scores log P(eos | sos,
    encoder output). Pure scoring: runs without graph recording.
    """
    ids, positions, _, mask, paths = _prefix_forest([token_seqs], decoder.sos_eos)
    if not paths:
        return []
    with T.no_grad():
        lp = _forward_rows(decoder, enc, ids, positions, mask).data
    eos = decoder.sos_eos
    return [float(lp[path, [*ids[path[1:]], eos]].sum()) for path in paths]
