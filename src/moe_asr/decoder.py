"""Attention decoder: autoregressive transformer over encoder output.

One main decoder serves inference (rescoring); auxiliary copies attached to
intermediate encoder taps contribute train-only losses. The shared
start/end symbol is the last vocabulary id; teacher forcing feeds
[sos] + tokens and scores tokens + [eos].

Teacher forcing also runs a packed batch in one pass: each utterance's
[sos] + tokens rows are stacked, self-attention is causal within each
utterance, and cross-attention sees only that utterance's encoder rows.
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
    block_mask,
    normal_init,
    segment_positions,
)
from .tensor import Tensor


class DecoderBlock(Module):
    """Pre-norm: causal self-attention, cross-attention, feed-forward."""

    def __init__(self, d, d_ff, heads, dropout=0.0):
        super().__init__()
        self.norm1 = LayerNorm(d)
        self.self_attn = MultiHeadAttention(d, heads)
        self.dropout1 = Dropout(dropout)
        self.norm2 = LayerNorm(d)
        self.cross_attn = MultiHeadAttention(d, heads)
        self.dropout2 = Dropout(dropout)
        self.ffn = FeedForward(d, d_ff, dropout)

    def forward(self, x, enc, mask, memory_mask=None):
        h = self.norm1.forward(x)
        x = T.add(x, self.dropout1.forward(self.self_attn.forward(h, h, mask)))
        h = self.norm2.forward(x)
        x = T.add(x, self.dropout2.forward(self.cross_attn.forward(h, enc, memory_mask)))
        return T.add(x, self.ffn.forward(x))


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
        for seq in seqs:
            if any(t < 0 or t >= self.vocab_size for t in seq):
                raise ValueError(f"token id outside vocabulary of {self.vocab_size}: {seq}")
        rows = [len(seq) + 1 for seq in seqs]
        ids = np.concatenate([[self.sos_eos] + seq for seq in seqs]).astype(np.int64)
        x = T.embedding_lookup(self.embed, ids)
        x = T.add(x, Tensor(segment_positions(rows, x.data.shape[1])))
        x = self.dropout.forward(x)
        mask = block_mask(rows, causal=True)
        memory_mask = block_mask(rows, lengths)
        for block in self.blocks:
            x = block.forward(x, enc, mask, memory_mask)
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


class MissingTap(KeyError):
    """An auxiliary decoder's configured encoder depth was not recorded."""


def multi_level_aed(main_decoder, aux_decoders, enc_output, tokens, tap_indices, label_smoothing=0.0):
    """Sum of per-level teacher-forced losses: the main decoder on the final
    encoder output plus one auxiliary decoder per intermediate tap.

    Returns (total, per-level values) with levels ordered shallow to deep,
    main decoder last. When ``enc_output.lengths`` is set (a packed batch),
    `tokens` holds one sequence per utterance, each decoder runs once on the
    whole batch, and every value is a vector of per-utterance losses.
    """
    if len(aux_decoders) != len(tap_indices):
        raise ValueError(
            f"{len(aux_decoders)} auxiliary decoders but {len(tap_indices)} tap depths"
        )
    lengths = enc_output.lengths
    loss = aed_loss if lengths is None else aed_losses
    levels = []
    for decoder, tap in zip(aux_decoders, tap_indices):
        if tap not in enc_output.taps:
            raise MissingTap(f"encoder depth {tap} was not recorded as a tap")
        levels.append((decoder, enc_output.taps[tap]))
    levels.append((main_decoder, enc_output.final))
    losses = [
        loss(decoder.decode_teacher_forced(enc, tokens, lengths), tokens, label_smoothing)
        for decoder, enc in levels
    ]
    total = losses[0]
    for term in losses[1:]:
        total = T.add(total, term)
    return total, losses


def rescore(decoder, enc, tokens):
    """Teacher-forced log-probability of a hypothesis plus its end symbol.

    Pure scoring: runs without graph recording. An empty hypothesis scores
    log P(eos | sos, encoder output).
    """
    with T.no_grad():
        lp = decoder.decode_teacher_forced(enc, tokens)
        targets = np.array([int(t) for t in tokens] + [decoder.sos_eos], dtype=np.int64)
        return float(lp.data[np.arange(targets.shape[0]), targets].sum())
