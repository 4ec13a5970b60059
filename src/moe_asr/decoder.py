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

Rescoring runs one pass over the prefix trie of an N-best list. Causality
means row t of a hypothesis depends only on [sos] + tokens[:t], so the
hypotheses share every row of a common prefix: the trie has one row per
distinct prefix, a mask lets a row's self-attention see only itself and
its ancestors, and every row attends to the one encoder output.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        x = self.self_attn.forward(x, self.norm1, self.dropout1, lengths=rows,
                                   causal=mask is None, mask=mask)
        x = self.cross_attn.forward(x, self.norm2, self.dropout2, enc, lengths=rows,
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

    def decode_teacher_forced(self, enc, tokens, lengths=None):
        """Per-position log-distributions, [len(tokens)+1 x V]; row t
        conditions on sos plus tokens[0..t) and the full encoder output.

        With `lengths` (encoder rows per utterance of a packed batch),
        `tokens` holds one sequence per utterance and the result stacks
        each utterance's rows, computed against its own encoder rows.
        """
        seqs = [tokens] if lengths is None else tokens
        lengths = T.segment_lengths(lengths, enc.data.shape[0], "decode-teacher-forced")
        seqs = [[int(t) for t in seq] for seq in seqs]
        if len(seqs) != len(lengths):
            raise ValueError(f"{len(seqs)} token sequences for {len(lengths)} utterances")
        rows = [len(seq) + 1 for seq in seqs]
        ids = np.concatenate([[self.sos_eos] + seq for seq in seqs]).astype(np.int64)
        positions = np.concatenate([np.arange(n) for n in rows])
        return self._forward_rows(enc, ids, positions, rows, lengths)

    def _forward_rows(self, enc, ids, positions, rows=None, enc_rows=None, mask=None):
        """Log-distributions of token rows `ids` at `positions`: the one
        block loop behind teacher forcing and rescoring. `rows`, `enc_rows`
        and `mask` go to each ``DecoderBlock``."""
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            bad = sorted({int(t) for t in ids if not 0 <= t < self.vocab_size})
            raise ValueError(f"token id outside vocabulary of {self.vocab_size}: {bad}")
        x = T.embedding_lookup(self.embed, ids)
        table = sinusoidal_positions(int(positions.max()) + 1, x.data.shape[1])
        x = self.dropout.forward(T.add(x, Tensor(table[positions])))
        for block in self.blocks:
            x = block.forward(x, enc, rows, enc_rows, mask)
        return T.log_softmax_last(self.out.forward(self.norm_out.forward(x)))


def aed_losses(log_probs, token_seqs, label_smoothing=0.0):
    """Per-utterance smoothed cross-entropy of a packed batch, a vector.

    Utterance i owns the next len(token_seqs[i]) + 1 rows; its loss is the
    mean over those rows of the cost of tokens + [eos]. The smoothed target
    mixes (1-eps) of the true one-hot with eps of the uniform distribution
    over the vocabulary.
    """
    vocab = log_probs.data.shape[1]
    targets = np.concatenate([[int(t) for t in seq] + [vocab - 1] for seq in token_seqs])
    rows = targets.shape[0]
    if log_probs.data.shape[0] != rows:
        raise T.ShapeMismatch("aed-loss", log_probs.data.shape, targets.shape)
    cost = T.scale(T.gather_last(log_probs, targets), label_smoothing - 1.0)
    if label_smoothing != 0.0:
        cost = T.add(cost, T.scale(T.reduce_sum(log_probs, axis=1), -label_smoothing / vocab))
    # means[i, r] is 1/(rows of utterance i) on utterance i's rows, else 0
    counts = np.array([len(seq) + 1 for seq in token_seqs])
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    means = (owner == np.arange(counts.shape[0])[:, None]) / counts[:, None]
    per_utt = T.matmul(Tensor(means), T.reshape(cost, (rows, 1)))
    return T.reshape(per_utt, counts.shape)


def aed_loss(log_probs, tokens, label_smoothing=0.0):
    """Mean smoothed cross-entropy of tokens + [eos] against the rows of
    one utterance; ``aed_losses`` of a batch of one."""
    return T.reshape(aed_losses(log_probs, [tokens], label_smoothing), ())


def multi_level_aed(main_decoder, aux_decoders, enc_output, tokens, label_smoothing=0.0):
    """Sum of per-level teacher-forced losses: the main decoder on the final
    encoder output plus one auxiliary decoder per intermediate tap, the
    decoders paired with ``enc_output.taps`` in depth order.

    Returns (total, per-level values) with levels ordered shallow to deep,
    main decoder last. When ``enc_output.lengths`` is set (a packed batch),
    `tokens` holds one sequence per utterance, each decoder runs once on the
    whole batch, and every value is a vector of per-utterance losses.
    """
    lengths = enc_output.lengths
    loss = aed_loss if lengths is None else aed_losses
    levels = list(zip(aux_decoders, enc_output.taps.values(), strict=True))
    levels.append((main_decoder, enc_output.final))
    losses = [
        loss(decoder.decode_teacher_forced(enc, tokens, lengths), tokens, label_smoothing)
        for decoder, enc in levels
    ]
    total = losses[0]
    for term in losses[1:]:
        total = T.add(total, term)
    return total, losses


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
        lp = decoder._forward_rows(
            enc, np.array(ids, dtype=np.int64), np.array(depths), mask=~sees
        ).data
    return [
        float(lp[path, seq + [decoder.sos_eos]].sum()) for path, seq in zip(paths, seqs)
    ]
