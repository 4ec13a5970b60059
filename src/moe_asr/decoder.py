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
log-softmax and the loss. One decoder alone, as in rescoring, runs the
same code without the level axis.

Rescoring runs one pass over the prefix trie of an N-best list. Causality
means row t of a hypothesis depends only on [sos] + tokens[:t], so the
hypotheses share every row of a common prefix: the trie has one row per
distinct prefix, a mask lets a row's self-attention see only itself and
its ancestors, and every row attends to the one encoder output.
"""

from __future__ import annotations

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
    normal_init,
    sinusoidal_positions,
)
from .tensor import Tensor


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
        return _block(self, x, enc, rows, enc_rows, mask)


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


def _first(modules):
    """One module, or the first of a level-stacked list."""
    return modules[0] if isinstance(modules, list) else modules


def _each(modules, get):
    """``get(module)`` for one module, or for each of a level-stacked list."""
    return [get(m) for m in modules] if isinstance(modules, list) else get(modules)


def _across(modules, operands):
    """The node operands ``operands(module)`` lists: for one module as they
    are; for a list of L modules of one shape (one per level) zipped, each
    tensor operand the tuple of its L tensors and each dropout mask, a
    ``(keep, scale)`` pair, the [L, ...] stack of the L keep arrays with
    the [L, 1, 1] scales (all kept with scale 1 for a level that draws
    none, None when none does). Every level's ``Dropout`` draws from its
    own stream."""
    if not isinstance(modules, list):
        return operands(modules)
    zipped = []
    for parts in zip(*[operands(m) for m in modules]):
        drawn = [m for m in parts if m is not None]
        if isinstance(parts[0], Tensor):
            zipped.append(parts)
        elif drawn:
            ones = np.ones(drawn[0][0].shape, dtype=bool)
            zipped.append((np.array([ones if m is None else m[0] for m in parts]),
                           np.array([1.0 if m is None else m[1] for m in parts])[:, None, None]))
        else:
            zipped.append(None)
    return zipped


def _block(blocks, x, memory, rows, enc_rows, mask):
    """One ``DecoderBlock``, or a level-stacked list of them on x [L, n, d]
    with one encoder output per level in `memory`: three nodes either way."""
    shape, heads = x.data.shape[-2:], _first(blocks).self_attn.heads
    x = T.mha(x, None, heads,
              *_across(blocks, lambda b: b.self_attn.operands(b.norm1, b.dropout1, shape)),
              lengths=rows, causal=mask is None, mask=mask)
    x = T.mha(x, memory, heads,
              *_across(blocks, lambda b: b.cross_attn.operands(b.norm2, b.dropout2, shape)),
              lengths=rows, key_lengths=enc_rows)
    return T.ffn(x, 1.0, *_across(blocks, lambda b: b.ffn.operands(shape[0])))


def _teacher_forced(decoders, memory, seqs, lengths):
    """Log-distributions of [sos] + seq for each token sequence of `seqs`,
    one per utterance of `lengths` encoder rows (None: one utterance),
    stacked by utterance; `decoders` and `memory` as ``_forward_rows``
    takes them."""
    enc = memory if isinstance(memory, Tensor) else memory[0]
    lengths = T.segment_lengths(lengths, enc.data.shape[0], "decode-teacher-forced")
    seqs = [[int(t) for t in seq] for seq in seqs]
    if len(seqs) != len(lengths):
        raise ValueError(f"{len(seqs)} token sequences for {len(lengths)} utterances")
    rows = [len(seq) + 1 for seq in seqs]
    sos = _first(decoders).sos_eos
    ids = np.concatenate([[sos] + seq for seq in seqs]).astype(np.int64)
    positions = np.concatenate([np.arange(n) for n in rows])
    return _forward_rows(decoders, memory, ids, positions, rows, lengths)


def _forward_rows(decoders, memory, ids, positions, rows=None, enc_rows=None, mask=None):
    """Log-distributions of token rows `ids` at `positions`: the one block
    loop behind teacher forcing, the multi-level loss and rescoring.

    `decoders` is one decoder reading the encoder rows `memory` ([n, V]
    out), or a list of L decoders of one shape, each reading its own of the
    L encoder outputs listed in `memory` (each with the same row count), run
    as one level-stacked pass ([L, n, V] out). `rows`, `enc_rows` and `mask`
    go to each block."""
    first = _first(decoders)
    vocab = first.vocab_size
    if ids.min() < 0 or ids.max() >= vocab:
        bad = sorted({int(t) for t in ids if not 0 <= t < vocab})
        raise ValueError(f"token id outside vocabulary of {vocab}: {bad}")
    x = T.embedding_lookup(*_across(decoders, lambda dec: (dec.embed,)), ids)
    d = x.data.shape[-1]
    x = T.add(x, Tensor(sinusoidal_positions(int(positions.max()) + 1, d)[positions]))
    (drop,) = _across(decoders, lambda dec: (dec.dropout.mask((len(ids), d)),))
    if drop is not None:
        x = T.mul(x, Tensor(T._float_mask(drop)))
    for i in range(len(first.blocks)):
        x = _block(_each(decoders, lambda dec: dec.blocks[i]), x, memory, rows, enc_rows, mask)
    x = T.layernorm(x, *_across(decoders, lambda dec: (dec.norm_out.gamma, dec.norm_out.beta)))
    return T.log_softmax_last(
        T.linear(x, *_across(decoders, lambda dec: (dec.out.weight, dec.out.bias))))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def aed_losses(log_probs, token_seqs, label_smoothing=0.0):
    """Per-utterance smoothed cross-entropy of a packed batch, a vector; of
    level-stacked log-probabilities [L, rows, V], one vector per level.

    Utterance i owns the next len(token_seqs[i]) + 1 rows; its loss is the
    mean over those rows of the cost of tokens + [eos]. The smoothed target
    mixes (1-eps) of the true one-hot with eps of the uniform distribution
    over the vocabulary.
    """
    vocab = log_probs.data.shape[-1]
    targets = np.concatenate([[int(t) for t in seq] + [vocab - 1] for seq in token_seqs])
    rows = targets.shape[0]
    if log_probs.data.ndim not in (2, 3) or log_probs.data.shape[-2] != rows:
        raise T.ShapeMismatch("aed-loss", log_probs.data.shape, targets.shape)
    cost = T.scale(T.gather_last(log_probs, targets), label_smoothing - 1.0)
    if label_smoothing != 0.0:
        cost = T.add(cost, T.scale(T.reduce_sum(log_probs, axis=-1), -label_smoothing / vocab))
    return T.segment_means(cost, [len(seq) + 1 for seq in token_seqs])


def aed_loss(log_probs, tokens, label_smoothing=0.0):
    """Mean smoothed cross-entropy of tokens + [eos] against the rows of
    one utterance; ``aed_losses`` of a batch of one."""
    return T.reshape(aed_losses(log_probs, [tokens], label_smoothing), ())


def multi_level_aed(main_decoder, aux_decoders, enc_output, tokens, label_smoothing=0.0):
    """Sum of per-level teacher-forced losses: the main decoder on the final
    encoder output plus one auxiliary decoder per intermediate tap, the
    decoders paired with ``enc_output.taps`` in depth order.

    The levels run as one level-stacked pass and one ``aed_losses``; the
    total adds the levels' losses one after another, shallow to deep.
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
    log_probs = _teacher_forced([*aux_decoders, main_decoder], [*taps, enc_output.final], seqs,
                                lengths)
    levels = aed_losses(log_probs, seqs, label_smoothing)
    total = T.reduce_sum(levels, axis=0)
    if lengths is None:
        return T.reshape(total, ()), [Tensor(v) for v in levels.data[:, 0]]
    return total, [Tensor(v) for v in levels.data]


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
