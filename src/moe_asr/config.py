"""Model, training and decoding configuration.

Every dataclass field is a setting, and ``__post_init__`` rejects an
invalid value by name. The command line exposes each field as a flag and as
a key of a ``--config`` section (``cli._resolve`` sets the precedence).
Values the paper's recipe fixes are constants in ``training`` instead: the
Adam moments and epsilon, the gradient clip and the SpecAugment masks.

Token-id conventions used across the package:
  - Data tokens occupy ids 0..vocab_size-2.
  - The last id (vocab_size-1) is the shared start/end-of-sequence symbol,
    used only by the attention decoder.
  - The CTC output layer has vocab_size+1 classes; class 0 is the blank and
    data token t maps to CTC class t+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _require_positive(cfg, names):
    for name in names:
        value = getattr(cfg, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class ModelConfig:
    """Architecture hyper-parameters.

    ``num_experts=0`` builds the dense model: no routers, no embedding
    network, plain feed-forward second macarons. Any value >= 1 routes the
    second macaron FFN of every ``moe_every``-th block (1-based, so
    ``moe_every=2`` routes blocks 2, 4, 6, ...) through that many experts.
    """

    vocab_size: int
    feat_dim: int = 80
    d_att: int = 64
    d_ff: int = 128
    heads: int = 4
    kernel: int = 7
    num_blocks: int = 6
    dropout: float = 0.1
    num_experts: int = 0
    moe_every: int = 2
    d_emb: int = 0
    embedding_blocks: int = 0
    decoder_blocks: int = 2
    decoder_ff: int = 0
    decoder_heads: int = 0
    num_levels: int = 3

    def __post_init__(self):
        if self.d_emb == 0:
            self.d_emb = self.d_att
        if self.embedding_blocks == 0:
            self.embedding_blocks = max(self.num_blocks // 2, 1)
        if self.decoder_ff == 0:
            self.decoder_ff = self.d_ff
        if self.decoder_heads == 0:
            self.decoder_heads = self.heads
        _require_positive(self, ("feat_dim", "d_att", "d_ff", "heads", "kernel", "num_blocks",
                                 "d_emb", "embedding_blocks", "decoder_blocks", "decoder_ff",
                                 "decoder_heads"))
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.d_att % self.heads != 0:
            raise ValueError(f"d_att {self.d_att} not divisible by heads {self.heads}")
        if self.kernel % 2 == 0:
            raise ValueError(f"conv kernel must be odd, got {self.kernel}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must include at least one data token plus sos/eos")
        if self.num_experts < 0 or self.moe_every < 1:
            raise ValueError("num_experts must be >= 0 and moe_every >= 1")
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        if self.num_levels > 1 and self.num_blocks < 3:
            raise ValueError("intermediate tap depths need at least 3 encoder blocks")

    @property
    def routed(self):
        return self.num_experts >= 1

    def routed_blocks(self):
        """1-based indices of blocks whose second FFN is expert-routed."""
        if not self.routed:
            return []
        return [i for i in range(1, self.num_blocks + 1) if i % self.moe_every == 0]

    def tap_blocks(self):
        """1-based encoder depths feeding auxiliary decoders (1/3 and 2/3)."""
        if self.num_levels <= 1:
            return []
        return [self.num_blocks // 3, (2 * self.num_blocks) // 3]

    @property
    def ctc_classes(self):
        return self.vocab_size + 1

    @staticmethod
    def desk_scale(vocab_size, **overrides):
        """Small model sized for single-core property testing."""
        return ModelConfig(vocab_size=vocab_size, **overrides)

    @staticmethod
    def paper_scale(num_experts=16, **overrides):
        """Production-scale shape used by the cost accountant comparisons."""
        base = dict(
            vocab_size=5562,
            feat_dim=80,
            d_att=512,
            d_ff=2048,
            heads=8,
            kernel=15,
            num_blocks=18,
            num_experts=num_experts,
            moe_every=2,
            d_emb=512,
            embedding_blocks=7,
            decoder_blocks=4,
            num_levels=3,
        )
        base.update(overrides)
        return ModelConfig(**base)


@dataclass
class TrainConfig:
    """Objective weights and optimization settings.

    alpha, beta weight the routing sparsity and mean-importance losses,
    gamma the embedding network's own CTC loss, and eta interpolates the
    main CTC loss against the summed attention-decoder losses.
    """

    alpha: float = 0.15
    beta: float = 0.15
    gamma: float = 0.01
    eta: float = 0.3
    label_smoothing: float = 0.1
    peak_lr: float = 2e-3
    warmup_steps: int = 1000
    batch_size: int = 4
    max_steps: int = 3000
    max_epochs: int = 26
    eval_every: int = 250
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        _require_positive(self, ("warmup_steps", "batch_size", "eval_every"))
        # At 1 the smoothed target is uniform and no longer depends on the label.
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must lie in [0, 1), got {self.label_smoothing}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be >= 0")


@dataclass
class DecodeConfig:
    beam: int = 8
    nbest: int = 8
    mu: float = 0.5

    def __post_init__(self):
        if not self.beam >= self.nbest >= 1:
            raise ValueError(f"need beam >= nbest >= 1, got {self.beam}, {self.nbest}")
        # A negative weight would rank a less likely CTC path higher.
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")

