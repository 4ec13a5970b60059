"""The full recognizer: encoder, optional routing machinery, CTC head,
main decoder, and one train-only auxiliary decoder per encoder tap.

``parameter_total`` is derived from the module tree itself: it builds an
uninitialized ``SpeechModel``, whose parameters have shapes but no storage
(no arena is allocated), so even paper-scale configs cost almost nothing.
The cost accountant relies on it.
"""

from __future__ import annotations

from . import tensor as T
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
        decoder_args = (cfg.vocab_size, cfg.d_att, cfg.d_ff, cfg.heads, cfg.decoder_blocks,
                        cfg.dropout)
        self.decoder = TransformerDecoder(*decoder_args)
        self.aux_decoders = [TransformerDecoder(*decoder_args) for _ in cfg.tap_blocks()]

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
        return T.log_softmax_last(self.ctc_head.forward(enc_final))


def parameter_total(cfg):
    return SpeechModel(cfg).parameter_count()
