"""Conformer encoder: convolutional subsampling, macaron blocks, and the
static embedding network that feeds the routers, which is the same
``Encoder`` built dense, ``d_emb`` wide and ``embedding_blocks`` deep.

Each block computes, in order: half-step feed-forward, self-attention,
convolution, half-step feed-forward (the routed slot), and a closing
layernorm. All sub-modules are pre-norm; the residual stream itself is
never normalized except by that final per-block layernorm. Each sub-module
takes the residual stream and returns it with its output added (times 0.5
for the half steps) as one graph node, so a block records five nodes.

Input is [T x D] features, one utterance, or a packed batch: the
utterances' frames stacked as consecutive rows with `lengths` giving each
one's row count. Every position-wise layer then runs once on all rows.
Only subsampling windows, position tables, self-attention (one block per
utterance, no mask) and the convolution sub-module's depthwise
convolution look at `lengths`, so each utterance's rows come out as if it
had been encoded alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .moe import RoutedFFN
from .nn import (
    ConvModule,
    Dropout,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    SelfAttention,
    sinusoidal_positions,
)
from .tensor import Tensor

MIN_INPUT_FRAMES = 7


def conv_length(t):
    """Frames out of one kernel-3, stride-2, valid convolution over `t`."""
    return (t - 3) // 2 + 1


def subsampled_length(t_in):
    """Frames surviving ``Subsample``'s two convolutions."""
    return conv_length(conv_length(t_in))


class Subsample(Module):
    """Two stride-2 temporal convolutions (via window unfolding) plus a
    linear projection, taking [T x D] features to [T' x d] at T' ~ T/4."""

    def __init__(self, feat_dim, d):
        super().__init__()
        self.conv1 = Linear(3 * feat_dim, d)
        self.conv2 = Linear(3 * d, d)
        self.proj = Linear(d, d)

    def forward(self, feats, lengths=None):
        """`lengths`: input rows per utterance of a packed batch (None:
        one utterance); each utterance is subsampled on its own."""
        lengths = T.segment_lengths(lengths, feats.data.shape[0], "subsample")
        for i, t_in in enumerate(lengths):
            if t_in < MIN_INPUT_FRAMES:
                raise ValueError(
                    f"utterance {i}: subsampling needs at least {MIN_INPUT_FRAMES}"
                    f" input frames, got {t_in}"
                )
        mid = [conv_length(t_in) for t_in in lengths]
        h = T.swish(self.conv1.forward(T.unfold_time(feats, 3, 2, lengths)))
        h = T.swish(self.conv2.forward(T.unfold_time(h, 3, 2, mid)))
        return self.proj.forward(h)


class ConformerBlock(Module):
    """One macaron block; ``n_experts >= 1`` routes the second FFN.

    For a packed batch, `lengths` keeps the convolution and
    self-attention within each utterance.
    """

    def __init__(self, d, d_ff, heads, kernel, dropout=0.0, n_experts=0, d_emb=None):
        super().__init__()
        self.ffn1 = FeedForward(d, d_ff, dropout)
        self.attn = SelfAttention(d, heads, dropout)
        self.conv = ConvModule(d, kernel, dropout)
        self.ffn2 = RoutedFFN(
            d,
            d_ff,
            n_experts=max(n_experts, 1),
            d_emb=d_emb,
            dropout=dropout,
            routed=n_experts >= 1,
        )
        self.norm_out = LayerNorm(d)

    def forward(self, x, e_c=None, lengths=None):
        x = self.ffn1.forward(x, c=0.5)
        x = self.attn.forward(x, lengths)
        x = self.conv.forward(x, lengths)
        x, record = self.ffn2.forward(x, e_c, c=0.5)
        return self.norm_out.forward(x), record


@dataclass
class EncoderOutput:
    """Final and tapped hidden rows, routing records in depth order, and
    the rows per utterance (None when one utterance was encoded)."""

    final: object
    taps: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    lengths: list = None


class Encoder(Module):
    """Subsampling front-end, absolute sinusoidal positions, block stack.

    Intermediate outputs are recorded (pure reads), in depth order, at the
    ``num_levels - 1`` evenly spaced depths of ``cfg.tap_blocks()`` for the
    auxiliary decoders; routed blocks additionally hand back their routing
    records in depth order, one per layer for the whole batch.
    """

    def __init__(self, cfg):
        super().__init__()
        self.cfg = cfg
        self.subsample = Subsample(cfg.feat_dim, cfg.d_att)
        self.dropout = Dropout(cfg.dropout)
        routed = set(cfg.routed_blocks())
        self.blocks = [
            ConformerBlock(
                cfg.d_att,
                cfg.d_ff,
                cfg.heads,
                cfg.kernel,
                cfg.dropout,
                n_experts=cfg.num_experts if i in routed else 0,
                d_emb=cfg.d_emb,
            )
            for i in range(1, cfg.num_blocks + 1)
        ]

    def forward(self, feats, e_c=None, lengths=None):
        h = self.subsample.forward(feats, lengths)
        if lengths is not None:
            lengths = [subsampled_length(t_in) for t_in in lengths]
        # Each utterance's positions count from 0 again.
        rows = lengths or [h.data.shape[0]]
        positions = np.concatenate([np.arange(n) for n in rows])
        h = T.add(h, Tensor(sinusoidal_positions(max(rows), h.data.shape[1])[positions]))
        h = self.dropout.forward(h)
        taps, records = {}, []
        tap_at = set(self.cfg.tap_blocks())
        for index, block in enumerate(self.blocks, start=1):
            h, record = block.forward(h, e_c, lengths)
            if record is not None:
                records.append((index, record))
            if index in tap_at:
                taps[index] = h
        return EncoderOutput(final=h, taps=taps, records=records, lengths=lengths)


class EmbeddingNetwork(Encoder):
    """The shared per-frame embedding e_c: the encoder of the dense model
    that is ``d_emb`` wide and ``embedding_blocks`` deep, with no taps, plus
    a private CTC head for its own loss."""

    def __init__(self, cfg):
        super().__init__(cfg.embedding_encoder())
        self.ctc_head = Linear(cfg.d_emb, cfg.ctc_classes)

    def embed(self, feats, lengths=None):
        """e_c rows for the features (packed when `lengths` is given)."""
        return self.forward(feats, None, lengths).final

    def ctc_log_probs(self, e_c):
        """Log posteriors over blank + vocab from the embedding stream."""
        return T.log_softmax_last(self.ctc_head.forward(e_c))
