"""The full recognizer: encoder, optional routing machinery, CTC head,
main decoder, and train-only auxiliary decoders.

``parameter_manifest`` and ``parameter_total`` are derived from the module
tree itself: they build an uninitialized ``SpeechModel``, whose parameters
allocate no storage until first touched, so even paper-scale configs cost
almost nothing. The cost accountant relies on them.
"""

from __future__ import annotations

from .decoder import TransformerDecoder
from .encoder import EmbeddingNetwork, Encoder
from .nn import Linear, Module


class SpeechModel(Module):
    def __init__(self, cfg):
        super().__init__()
        self.cfg = cfg
        self.encoder = Encoder(cfg)
        self.embedding_net = EmbeddingNetwork(cfg) if cfg.routed else None
        self.ctc_head = Linear(cfg.d_att, cfg.ctc_classes)
        self.decoder = TransformerDecoder(
            cfg.vocab_size, cfg.d_att, cfg.decoder_ff, cfg.decoder_heads,
            cfg.decoder_blocks, cfg.dropout,
        )
        self.aux_decoders = [
            TransformerDecoder(
                cfg.vocab_size, cfg.d_att, cfg.decoder_ff, cfg.decoder_heads,
                cfg.decoder_blocks, cfg.dropout,
            )
            for _ in range(cfg.num_levels - 1)
        ]

    def encode(self, feats, lengths=None):
        """Run the embedding network (once) and the encoder; returns the
        encoder output plus the shared embedding (None when dense).

        `feats` is one utterance, or with `lengths` (input rows per
        utterance) a packed batch, encoded in one pass.
        """
        e_c = None
        if self.embedding_net is not None:
            e_c = self.embedding_net.embed(feats, lengths)
        return self.encoder.forward(feats, e_c, lengths), e_c

    def ctc_log_probs(self, enc_final):
        from . import tensor as T

        return T.log_softmax_last(self.ctc_head.forward(enc_final))


def parameter_manifest(cfg):
    """(name, shape) for every parameter of SpeechModel(cfg), in tree order."""
    return [(name, p.shape) for name, p in SpeechModel(cfg).named_parameters().items()]


def parameter_total(cfg):
    return SpeechModel(cfg).parameter_count()
