"""Model, training and decoding configuration.

Every dataclass field is a setting, and ``__post_init__`` rejects an
invalid value by name. The command line exposes each field as a flag and as
a key of a ``--config`` section (``cli._resolve`` sets the precedence).
``from_dict`` reads a ``--config`` section and a checkpoint header's config.
Values the paper's recipe fixes are constants instead: the peak learning
rate, the Adam moments and epsilon and the gradient clip in ``training``
(which always trains on SpecAugment's draws), the SpecAugment masks in
``features``, the label smoothing in ``decoder`` and the layernorm epsilon
in ``tensor``; here, ``MOE_EVERY`` spaces the routed blocks.

Token-id conventions used across the package:
  - Data tokens occupy ids 0..vocab_size-2.
  - The last id (vocab_size-1) is the shared start/end-of-sequence symbol,
    used only by the attention decoder.
  - The CTC output layer has vocab_size+1 classes; class 0 is the blank and
    data token t maps to CTC class t+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

# A routed model routes the second macaron FFN of every MOE_EVERY-th block.
MOE_EVERY = 2

# A field's annotation (a string here) to its type, which parses its flag.
FIELD_TYPES = {"int": int, "float": float}


def from_dict(cls, values):
    """``cls(**values)``; ValueError for an unknown key or a value not of its
    field's type: an int field takes an int, a float field an int or a
    float, and neither a bool."""
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(values) - set(types)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    for name, value in values.items():
        kind = types[name]
        if isinstance(value, bool) or not isinstance(value, (int, FIELD_TYPES[kind])):
            article = "an" if kind == "int" else "a"
            raise ValueError(f"{cls.__name__}.{name} must be {article} {kind}, got {value!r}")
    return cls(**values)


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
    second macaron FFN of every ``MOE_EVERY``-th block (1-based: blocks 2,
    4, 6, ...) through that many experts.
    The decoders use ``d_att``, ``d_ff`` and ``heads``; the embedding network
    uses ``d_emb`` (0: ``d_att``), ``embedding_blocks`` (0: half of
    ``num_blocks``) and the shared ``d_ff``, ``heads`` and ``kernel``.
    ``num_levels`` counts the attention decoders: the main one on the final
    encoder output plus ``num_levels - 1`` auxiliary ones, train-only, at the
    evenly spaced depths ``tap_blocks()`` returns.
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
    d_emb: int = 0
    embedding_blocks: int = 0
    decoder_blocks: int = 2
    num_levels: int = 3

    def __post_init__(self):
        if self.d_emb == 0:
            self.d_emb = self.d_att
        if self.embedding_blocks == 0:
            self.embedding_blocks = max(self.num_blocks // 2, 1)
        _require_positive(self, ("feat_dim", "d_att", "d_ff", "heads", "kernel", "num_blocks",
                                 "d_emb", "embedding_blocks", "decoder_blocks"))
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name, width in (("d_att", self.d_att), ("d_emb", self.d_emb)):
            if width % self.heads != 0:
                raise ValueError(f"{name} {width} not divisible by heads {self.heads}")
        if self.kernel % 2 == 0:
            raise ValueError(f"conv kernel must be odd, got {self.kernel}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must include at least one data token plus sos/eos")
        if self.num_experts < 0:
            raise ValueError("num_experts must be >= 0")
        if self.routed and self.num_blocks < MOE_EVERY:
            raise ValueError(
                f"num_experts {self.num_experts} needs num_blocks >= {MOE_EVERY} to route a "
                f"block, got {self.num_blocks}"
            )
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        if self.num_blocks < self.num_levels:
            raise ValueError(f"num_levels {self.num_levels} exceeds num_blocks {self.num_blocks}")

    @property
    def routed(self):
        return self.num_experts >= 1

    def routed_blocks(self):
        """1-based indices of blocks whose second FFN is expert-routed."""
        if not self.routed:
            return []
        return [i for i in range(1, self.num_blocks + 1) if i % MOE_EVERY == 0]

    def tap_blocks(self):
        """1-based encoder depths feeding the auxiliary decoders, shallow to
        deep: ``num_levels - 1`` evenly spaced depths (1/3 and 2/3 at three
        levels, none at one)."""
        return [self.num_blocks * j // self.num_levels for j in range(1, self.num_levels)]

    def embedding_encoder(self):
        """The embedding network's stack: this encoder built dense, ``d_emb``
        wide and ``embedding_blocks`` deep, with no taps."""
        return replace(self, d_att=self.d_emb, num_blocks=self.embedding_blocks,
                       num_experts=0, num_levels=1)

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
            d_emb=512,
            embedding_blocks=7,
            decoder_blocks=4,
            num_levels=3,
        )
        base.update(overrides)
        return ModelConfig(**base)


@dataclass
class TrainConfig:
    """Objective weights and the run's length, batching and seed.

    alpha, beta weight the routing sparsity and mean-importance losses,
    gamma the embedding network's own CTC loss, and eta interpolates the
    main CTC loss against the summed attention-decoder losses. The label
    smoothing (``decoder.LABEL_SMOOTHING``), the peak learning rate
    (``training.PEAK_LR``) and SpecAugment in training are fixed.
    """

    alpha: float = 0.15
    beta: float = 0.15
    gamma: float = 0.01
    eta: float = 0.3
    warmup_steps: int = 1000
    batch_size: int = 4
    max_steps: int = 3000
    max_epochs: int = 26
    eval_every: int = 250
    seed: int = 0

    def __post_init__(self):
        _require_positive(self, ("warmup_steps", "batch_size", "max_steps", "max_epochs",
                                 "eval_every"))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        # `not` catches NaN, which fails every comparison.
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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

