"""Decoding (CTC N-best + attention rescoring), CER scoring, and the
parameter/FLOPs accountant.

The accountant works entirely from configuration shapes, so production-
scale models are counted without being built. Its conventions are spelled
out in every report (see ``FLOP_CONVENTIONS``); the load-bearing property
is exactness: for fixed widths the FLOPs figure is identical for every
expert count, because exactly one expert runs per frame and the router is
counted on its active path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import tensor as T
from .ctc import prefix_beam_search
from .decoder import rescore
from .encoder import conv_length, subsampled_length
from .model import parameter_total

# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def decode_nbest(model, feats, beam, nbest, mu):
    """CTC N-best hypotheses for one utterance's features (a ``Tensor``),
    rescored by the attention decoder, all of them in one decoder pass over
    their prefix trie.

    Returns hypotheses sorted by combined = aed_score + mu * ctc_score,
    best first; ties keep the CTC beam's own ordering. A model still in
    training mode is put in eval mode; one already there is not walked again.
    """
    if model.training:
        model.eval()
    with T.no_grad():
        out, _ = model.encode(feats)
        log_probs = model.ctc_log_probs(out.final)
        hyps = prefix_beam_search(log_probs.data, beam, nbest)
        scores = rescore(model.decoder, out.final, [hyp.tokens for hyp in hyps])
        for hyp, score in zip(hyps, scores):
            hyp.aed_score = score
            hyp.combined = score + mu * hyp.ctc_score
    # sort is stable, so ties keep the beam's order
    hyps.sort(key=lambda hyp: (-hyp.combined, -hyp.ctc_score))
    return hyps


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def edit_distance(ref, hyp):
    """Levenshtein distance: minimal substitutions + deletions + insertions."""
    ref, hyp = list(ref), list(hyp)
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if r == h else 1),
            )
        prev = cur
    return prev[-1]


@dataclass
class ScoredResult:
    utt_id: str
    reference: list
    hypothesis: list
    distance: int
    ref_len: int

    @property
    def cer(self):
        return self.distance / self.ref_len


def score_corpus(triples):
    """Corpus CER over (utt_id, reference, hypothesis) triples.

    Returns (corpus CER, per-utterance ScoredResults). The corpus figure is
    total edit distance over total reference length, not a mean of rates.
    Empty references are excluded with a warning.
    """
    results = []
    for utt_id, ref, hyp in triples:
        if len(ref) == 0:
            warnings.warn(f"{utt_id}: empty reference excluded from CER")
            continue
        results.append(
            ScoredResult(utt_id, list(ref), list(hyp), edit_distance(ref, hyp), len(ref))
        )
    total_len = sum(r.ref_len for r in results)
    if total_len == 0:
        raise ValueError("no non-empty references to score")
    corpus_cer = sum(r.distance for r in results) / total_len
    return corpus_cer, results


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

FRAMES_PER_SECOND = 100

FLOP_CONVENTIONS = [
    "multiply-add = 2 FLOPs",
    "softmax and layer normalization = 5 FLOPs per element",
    "swish and GLU gates = 4 FLOPs per element; adds, scales, gates = 1",
    "one second = 100 input frames (25 ms window, 10 ms shift)",
    "expert FFNs counted once per frame (top-1 routing); router counted on"
    " its active path: one score dot product plus one normalized gate per"
    " frame, so the figure is exact for every expert count",
    "attention decoders excluded: rescoring cost scales with hypothesis"
    " count, not audio length, and auxiliary decoders never run at"
    " inference",
    "embedding network counted without its pretraining CTC head",
]


def _linear(t, d_in, d_out, bias=True):
    return 2 * t * d_in * d_out + (t * d_out if bias else 0)


def _ln(t, d):
    return 5 * t * d


def _ffn(t, d, d_ff):
    # pre-norm, expand, swish, project, half-step scale, residual add
    return _ln(t, d) + _linear(t, d, d_ff) + 4 * t * d_ff + _linear(t, d_ff, d) + 2 * t * d


def _attention(t, d, heads):
    qkvo = 3 * (_linear(t, d, d)) + _linear(t, d, d, bias=False)
    scores = 2 * t * t * d + heads * t * t          # QK^T plus the 1/sqrt scale
    soft = 5 * heads * t * t
    apply_v = 2 * t * t * d
    return _ln(t, d) + qkvo + scores + soft + apply_v + t * d


def _conv(t, d, kernel):
    return (
        _ln(t, d)
        + _linear(t, d, 2 * d)
        + 4 * t * d                                  # GLU gate
        + 2 * kernel * t * d + t * d                 # depthwise + bias
        + _ln(t, d)
        + 4 * t * d                                  # swish
        + _linear(t, d, d)
        + t * d                                      # residual
    )


def _subsample(t_in, feat_dim, d):
    t1 = conv_length(t_in)
    t2 = conv_length(t1)
    return (
        _linear(t1, 3 * feat_dim, d) + 4 * t1 * d
        + _linear(t2, 3 * d, d) + 4 * t2 * d
        + _linear(t2, d, d)
        + t2 * d                                     # position table add
    )


def _encoder_flops(cfg, t):
    """FLOPs of one encoder stack for one second of audio, itemized."""
    d, ff = cfg.d_att, cfg.d_ff
    flops = {
        "subsample": _subsample(FRAMES_PER_SECOND, cfg.feat_dim, d),
        "attention": 0,
        "conv": 0,
        "dense_ffn": 0,
        "moe_expert": 0,
        "router": 0,
    }
    routed = set(cfg.routed_blocks())
    for i in range(1, cfg.num_blocks + 1):
        flops["attention"] += _attention(t, d, cfg.heads)
        flops["conv"] += _conv(t, d, cfg.kernel)
        flops["dense_ffn"] += _ffn(t, d, ff) + _ln(t, d)   # ffn1 + block's closing norm
        if i in routed:
            flops["moe_expert"] += _ffn(t, d, ff) + t * d  # one expert per frame + gate
            flops["router"] += t * (2 * (cfg.d_emb + d) + 5)
        else:
            flops["dense_ffn"] += _ffn(t, d, ff)
    return flops


def count_flops(cfg):
    """Inference FLOPs for one second of audio, itemized by component; the
    embedding network is the sum of its dense stack's items."""
    t = subsampled_length(FRAMES_PER_SECOND)
    flops = _encoder_flops(cfg, t)
    flops["embedding_network"] = (
        sum(_encoder_flops(cfg.embedding_encoder(), t).values()) if cfg.routed else 0
    )
    flops["ctc_head"] = _linear(t, cfg.d_att, cfg.ctc_classes) + 5 * t * cfg.ctc_classes
    return flops


@dataclass
class CostReport:
    params: int
    flops: dict
    total_flops: int
    conventions: list


def cost_report(cfg):
    """Parameter count and closed-form per-second FLOPs for a config.

    Parameters are counted on the uninitialized module tree, so the figure
    is exactly what a saved model holds (auxiliary decoders included).
    """
    flops = count_flops(cfg)
    return CostReport(
        params=parameter_total(cfg),
        flops=flops,
        total_flops=sum(flops.values()),
        conventions=list(FLOP_CONVENTIONS),
    )


def _human(value):
    """Three significant figures with a k, M or B suffix: 30.6k, 1.44M."""
    value = float(f"{value:.3g}")
    for suffix, unit in (("B", 1e9), ("M", 1e6), ("k", 1e3)):
        if abs(value) >= unit:
            scaled = value / unit
            return f"{scaled:.{2 - math.floor(math.log10(abs(scaled)))}f}{suffix}"
    return f"{value:.0f}"


def format_cost_table(name, report):
    """Aligned text table of one model's name and CostReport."""
    cells = [("model", "params", "flops/s"),
             (name, _human(report.params), _human(report.total_flops))]
    widths = [max(len(row[i]) for row in cells) for i in range(3)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
