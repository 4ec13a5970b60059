"""Conformer encoder: convolutional subsampling, macaron blocks, and the
static embedding stack that feeds the routers.

Each block computes, in order: half-step feed-forward, self-attention,
convolution, half-step feed-forward (the routed slot), and a closing
layernorm. All sub-modules are pre-norm; the residual stream itself is
never normalized except by that final per-block layernorm.
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


def subsampled_length(t_in):
    """Frames surviving two stride-2 kernel-3 valid convolutions."""
    return ((t_in - 1) // 2 - 1) // 2


class Subsample(Module):
    """Two stride-2 temporal convolutions (via window unfolding) plus a
    linear projection, taking [T x D] features to [T' x d] at T' ~ T/4."""

    def __init__(self, feat_dim, d):
        super().__init__()
        self.conv1 = Linear(3 * feat_dim, d)
        self.conv2 = Linear(3 * d, d)
        self.proj = Linear(d, d)

    def forward(self, feats):
        t_in = feats.data.shape[0]
        if t_in < MIN_INPUT_FRAMES:
            raise ValueError(
                f"subsampling needs at least {MIN_INPUT_FRAMES} input frames, got {t_in}"
            )
        h = T.swish(self.conv1.forward(T.unfold_time(feats, 3, 2)))
        h = T.swish(self.conv2.forward(T.unfold_time(h, 3, 2)))
        return self.proj.forward(h)


class ConformerBlock(Module):
    """One macaron block; ``n_experts >= 1`` routes the second FFN."""

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

    def forward(self, x, e_c=None):
        x = T.add(x, T.scale(self.ffn1.forward(x), 0.5))
        x = T.add(x, self.attn.forward(x))
        x = T.add(x, self.conv.forward(x))
        ffn2_out, record = self.ffn2.forward(x, e_c)
        x = T.add(x, T.scale(ffn2_out, 0.5))
        return self.norm_out.forward(x), record


@dataclass
class EncoderOutput:
    final: object
    taps: dict = field(default_factory=dict)
    records: list = field(default_factory=list)


class Encoder(Module):
    """Subsampling front-end, absolute sinusoidal positions, block stack.

    Intermediate outputs are recorded (pure reads) at one-third and
    two-thirds depth for the auxiliary decoders; routed blocks additionally
    hand back their routing records in depth order.
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

    def forward(self, feats, e_c=None):
        h = self.subsample.forward(feats)
        h = T.add(h, Tensor(sinusoidal_positions(h.data.shape[0], h.data.shape[1])))
        h = self.dropout.forward(h)
        taps, records = {}, []
        tap_at = set(self.cfg.tap_blocks())
        for index, block in enumerate(self.blocks, start=1):
            h, record = block.forward(h, e_c)
            if record is not None:
                records.append((index, record))
            if index in tap_at:
                taps[index] = h
        return EncoderOutput(final=h, taps=taps, records=records)


class EmbeddingNetwork(Module):
    """Static (dense) half-depth Conformer mapping features to the shared
    per-frame embedding e_c, with a private CTC head for its own loss."""

    def __init__(self, cfg):
        super().__init__()
        self.subsample = Subsample(cfg.feat_dim, cfg.d_emb)
        self.dropout = Dropout(cfg.dropout)
        self.blocks = [
            ConformerBlock(cfg.d_emb, cfg.d_ff, cfg.heads, cfg.kernel, cfg.dropout)
            for _ in range(cfg.embedding_blocks)
        ]
        self.ctc_head = Linear(cfg.d_emb, cfg.ctc_classes)

    def embed(self, feats):
        h = self.subsample.forward(feats)
        h = T.add(h, Tensor(sinusoidal_positions(h.data.shape[0], h.data.shape[1])))
        h = self.dropout.forward(h)
        for block in self.blocks:
            h, _ = block.forward(h)
        return h

    def ctc_log_probs(self, e_c):
        """Log posteriors over blank + vocab from the embedding stream."""
        return T.log_softmax_last(self.ctc_head.forward(e_c))
