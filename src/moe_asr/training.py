"""Objective assembly, the optimizer, and the two training loops (embedding
pretraining and joint training).

The total objective is
    L = L_MoE + L_Joint,
    L_Joint = eta * L_ctc + (1 - eta) * sum_j L_aed_j,
    L_MoE   = alpha * L_s + beta * L_m + gamma * L_e,
with the routing terms present only for routed models and skipped entirely
when their weight is zero. Skipping (rather than multiplying by zero)
keeps a single-expert run's computation graph float-for-float identical to
the dense baseline's, which the degeneration test depends on.

A batch is packed into one graph: its utterances' frames are stacked as
rows, each layer runs once on all of them, and per-utterance row counts
keep every utterance to itself. Loss terms are means over utterances.

Each step walks the flat parameter arena four times: ``zero_grad``'s fill,
the clip's norm and scale, and Adam's update. The fill, the scale and the
update run over the arena's spans, one per usable core, on the calling
thread and one process-wide pool of (cores - 1) threads
(``nn.Arena.each_span``), each thread pinned to a core of its own: where the
kernel does not balance load it never moves a thread off the core it
started on, and two unpinned threads share one core. Each pass is
elementwise, so the bits do not depend on the core count. The norm stays on
the calling thread: it sums dot products over fixed blocks of the flat
gradient, whose bits depend neither on the cores nor on the BLAS threads,
and split across threads it was slower, also with each thread pinned, as
the block dots hand the GIL back and forth.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_pretrained_embedding, save_embedding, save_model
from .ctc import ctc_loss
from .decoder import multi_level_aed
from .features import load_normalized_split, spec_augment, utterance_rng, write_json
from .model import SpeechModel
from .moe import (
    mean_importance_loss,
    moe_loss,
    sparsity_loss,
    utilization_entropy,
)
from .nn import CHUNK
from .tensor import Tensor


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


def learning_rate(step, peak, warmup_steps):
    """Linear warmup to the peak, then inverse-square-root decay."""
    if step < 1:
        raise ValueError(f"step counting starts at 1, got {step}")
    return peak * min(step / warmup_steps, math.sqrt(warmup_steps / step))


# the paper recipe's fixed optimizer settings
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-9  # Adam's moment decays and epsilon
GRAD_CLIP = 5.0  # global gradient-norm threshold
PEAK_LR = 2e-3  # the learning rate at the end of warmup
# Elements per dot product of the gradient norm. OpenBLAS's x86 ddot splits
# a vector longer than 10,000 elements across its threads, and the split
# changes the sum's bits; a shorter one runs on the calling thread alone.
NORM_BLOCK = 8192


class Adam:
    """Adam over one parameter ``Arena``, with ``ADAM_BETA1``, ``ADAM_BETA2``
    and ``ADAM_EPS``.

    The moments ``m`` and ``v`` are two flat buffers laid out like the
    arena's, and each step updates the flat buffers in place, ``nn.CHUNK``
    elements at a time, over the arena's spans (``Arena.each_span``): one
    per usable core, each with a scratch of its own. The update is
    elementwise, so its bits do not depend on how many spans there are.

    A parameter whose gradient has stayed exactly zero has exactly zero
    moment estimates, so its update is exactly zero: untouched parameters
    never drift, whatever the step count.
    """

    def __init__(self, arena):
        self.arena = arena
        self.t = 0
        self.m = np.zeros(arena.data.size)
        self.v = np.zeros(arena.data.size)
        self._scratch = np.empty((len(arena.spans), 2, min(CHUNK, arena.data.size)))

    def step(self, lr):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        self.arena.each_span(lambda i, span: self._update(span, self._scratch[i], lr, c1, c2))

    def _update(self, span, scratch, lr, c1, c2):
        # Elementwise, in the operation order of the textbook expressions
        #   m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,
        #   p -= lr*(m/c1) / (sqrt(v/c2) + eps),
        # so the bits do not depend on the chunking or the spans.
        data, grad = self.arena.data, self.arena.grad
        for start in range(span.start, span.stop, CHUNK):
            chunk = slice(start, start + CHUNK)
            g, m, v = grad[chunk], self.m[chunk], self.v[chunk]
            num, den = scratch[:, : g.size]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=num)
            m += num
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=num)
            num *= g
            v += num
            np.divide(m, c1, out=num)
            num *= lr
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            num /= den
            data[chunk] -= num


def global_grad_norm(arena):
    """The L2 norm of the arena's gradient: the square root of the exactly
    rounded sum (``math.fsum``) of the squares' dot products over fixed
    ``NORM_BLOCK``-element blocks of the flat ``grad`` buffer, on the
    calling thread. The blocks do not depend on the parameters, the spans or
    the core count, and each is short enough for one BLAS thread, so neither
    do the bits. Finite block sums whose total passes the float range give
    ``inf``, as a non-finite gradient does."""
    grad = arena.grad
    blocks = (grad[start : start + NORM_BLOCK] for start in range(0, grad.size, NORM_BLOCK))
    try:
        return math.sqrt(math.fsum(float(np.dot(b, b)) for b in blocks))
    except OverflowError:  # fsum's intermediate overflow
        return math.inf


def clip_gradients(arena, max_norm):
    """Scale the arena's gradient buffer by a common factor if the global
    norm exceeds the threshold; returns the pre-clip norm. Direction is
    always preserved. The scale runs span by span (``Arena.each_span``);
    it is elementwise, so its bits are a serial ``grad * factor``'s. A
    non-finite norm scales nothing: the caller has to stop."""
    norm = global_grad_norm(arena)
    if max_norm < norm < math.inf:
        factor, grad = max_norm / norm, arena.grad

        def rescale(_, span):
            grad[span] *= factor

        arena.each_span(rescale)
    return norm


# ---------------------------------------------------------------------------
# objective assembly
# ---------------------------------------------------------------------------


def joint_loss(l_ctc, aed_losses, eta):
    """eta * L_ctc + (1 - eta) * sum of the per-level decoder losses. Terms
    may be graph tensors or plain numbers (``T.add`` and ``T.mul`` take both)."""
    total_aed = functools.reduce(T.add, aed_losses) if aed_losses else 0.0
    return T.add(T.mul(l_ctc, eta), T.mul(total_aed, 1.0 - eta))


def total_loss(l_moe, l_joint):
    return T.add(l_moe, l_joint)


def _mean(terms):
    return T.mul(functools.reduce(T.add, terms), 1.0 / len(terms))


def _packed(batch):
    """One batch as stacked feature rows, rows per utterance, token lists."""
    feats = Tensor(np.concatenate([seq.feats for seq in batch]))
    return feats, [seq.feats.shape[0] for seq in batch], [seq.tokens for seq in batch]


def batch_losses(model, batch, train_cfg):
    """Forward one packed batch and assemble every objective term.

    Returns (total, metrics dict, routing list or None); metrics values are
    plain floats. Each routed layer's sparsity and importance are computed
    once: routing.jsonl logs them whatever their weight, and a positively
    weighted term averages the same tensors into the objective.
    """
    cfg = model.cfg
    feats, lengths, tokens = _packed(batch)
    out, e_c = model.encode(feats, lengths)
    l_ctc = T.reduce_mean(ctc_loss(model.ctc_log_probs(out.final), tokens, out.lengths))
    aed_total, _ = multi_level_aed(model.decoder, model.aux_decoders, out, tokens)
    l_aed = T.reduce_mean(aed_total)
    l_joint = joint_loss(l_ctc, [l_aed], train_cfg.eta)

    l_s = l_m = l_e = None
    routing = None
    if cfg.routed:
        routing, sparsity, importance = [], [], []
        for idx, record in out.records:
            counts = record.utilization(cfg.num_experts)
            sparsity.append(sparsity_loss(record.p))
            importance.append(mean_importance_loss(record.p, cfg.num_experts))
            routing.append({
                "block": idx,
                "utilization": [int(c) for c in counts],
                "entropy": utilization_entropy(counts),
                "sparsity": float(sparsity[-1].data),
                "importance": float(importance[-1].data),
            })
        if train_cfg.alpha > 0.0:
            l_s = _mean(sparsity)
        if train_cfg.beta > 0.0:
            l_m = _mean(importance)
        if train_cfg.gamma > 0.0:
            l_e = T.reduce_mean(
                ctc_loss(model.embedding_net.ctc_log_probs(e_c), tokens, out.lengths)
            )
        l_moe = moe_loss(l_s, l_m, l_e, train_cfg.alpha, train_cfg.beta, train_cfg.gamma)
        total = total_loss(l_moe, l_joint)
    else:
        total = l_joint

    metrics = {
        "loss": float(total.data),
        "ctc": float(l_ctc.data),
        "aed_sum": float(l_aed.data),
        "sparsity": None if l_s is None else float(l_s.data),
        "importance": None if l_m is None else float(l_m.data),
        "embed_ctc": None if l_e is None else float(l_e.data),
    }
    return total, metrics, routing


# ---------------------------------------------------------------------------
# evaluation and checkpoint selection
# ---------------------------------------------------------------------------


def evaluate_ctc(log_probs_fn, seqs):
    """Mean per-utterance CTC loss (nats/utterance), graph-free."""
    if not seqs:
        raise ValueError("evaluation split is empty")
    total = 0.0
    with T.no_grad():
        for seq in seqs:
            total += float(ctc_loss(log_probs_fn(Tensor(seq.feats)), seq.tokens).data)
    return total / len(seqs)


@dataclass
class CheckpointRecord:
    epoch: int
    step: int
    eval_ctc: float
    path: str


def select_final(records):
    """The record with the lowest evaluation CTC loss; ties go to the
    earliest epoch (then step)."""
    if not records:
        raise ValueError("no checkpoint records to select from")
    return min(records, key=lambda r: (r.eval_ctc, r.epoch, r.step))


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _run_loop(module, train_seqs, dev_seqs, train_cfg, out_dir, step_fn, eval_fn, save_fn):
    """Shared driver: batching, optimization, metrics, periodic evaluation.

    The schedule is arithmetic on the step: with B the batch size and N the
    training split's size, step s trains on ``train_seqs[k % N]`` for k from
    (s - 1)·B to s·B - 1, each under the SpecAugment draw of epoch k // N.
    The epoch after step s, which stops the loop and is logged, is s·B // N.

    ``step_fn(batch)`` returns (total, metrics, routing); ``eval_fn()``
    the dev CTC loss; ``save_fn(path)`` writes a checkpoint. Returns the
    full list of CheckpointRecords.
    """
    if not dev_seqs:
        raise ValueError("evaluation split is empty")
    if not train_seqs:
        raise ValueError("training split is empty")
    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    optimizer = Adam(module.arena)
    n, batch_size = len(train_seqs), train_cfg.batch_size
    records = []

    def checkpoint(step):
        module.eval()
        eval_ctc = eval_fn()
        path = out / "checkpoints" / f"step{step:06d}.ckpt"
        save_fn(path)
        records.append(CheckpointRecord(step * batch_size // n, step, eval_ctc, str(path)))

    # Both logs close, flushed, however the loop ends: a divergence error
    # leaves every step it logged in both files. The embedding network's cfg
    # is its dense stack's: it logs no routing.
    with contextlib.ExitStack() as logs:
        metrics_fh = logs.enter_context(open(out / "metrics.jsonl", "w", encoding="utf-8"))
        routed_log = (logs.enter_context(open(out / "routing.jsonl", "w", encoding="utf-8"))
                      if module.cfg.routed else None)
        # Training mode is set here and after each checkpoint's evaluation,
        # the only code that changes it, rather than on every step.
        module.train()
        step = 0
        while step < train_cfg.max_steps and step * batch_size // n < train_cfg.max_epochs:
            step += 1
            batch = [(train_seqs[k % n], k // n)
                     for k in range((step - 1) * batch_size, step * batch_size)]
            module.zero_grad()
            # every step trains on SpecAugment's draw, keyed by utterance and epoch
            total, metrics, routing = step_fn(
                [spec_augment(seq, utterance_rng(train_cfg.seed, seq.utt_id, epoch))
                 for seq, epoch in batch])
            if not np.isfinite(total.data):
                raise RuntimeError(
                    f"training diverged: non-finite loss {float(total.data)} at step {step}"
                )
            total.backward()
            grad_norm = clip_gradients(module.arena, GRAD_CLIP)
            if not math.isfinite(grad_norm):
                raise RuntimeError(
                    f"training diverged: non-finite gradient norm {grad_norm} at step {step}"
                )
            lr = learning_rate(step, PEAK_LR, train_cfg.warmup_steps)
            optimizer.step(lr)

            line = {"step": step, "epoch": step * batch_size // n}
            line.update(metrics)
            line["grad_norm"] = grad_norm
            line["lr"] = lr
            line["entropy"] = (
                None if routing is None else {str(r["block"]): r["entropy"] for r in routing}
            )
            metrics_fh.write(json.dumps(line) + "\n")
            if routed_log is not None:
                routed_log.write(json.dumps({"step": step, "layers": routing}) + "\n")
            if step % train_cfg.eval_every == 0:
                checkpoint(step)
                module.train()
        if not records or records[-1].step != step:
            checkpoint(step)

    final = select_final(records)
    # records.json keeps every candidate so the selection is auditable.
    write_json(out / "records.json", [dataclasses.asdict(r) for r in records])
    write_json(out / "final.json", dataclasses.asdict(final))
    return records, final


def run_pretraining(net, train_seqs, dev_seqs, model_cfg, train_cfg, out_dir):
    """Train the embedding stack alone under its CTC head; the best
    checkpoint (by dev CTC) is copied to <out_dir>/embedding.ckpt."""

    def step_fn(batch):
        feats, lengths, tokens = _packed(batch)
        out = net.forward(feats, None, lengths)
        l_ctc = T.reduce_mean(ctc_loss(net.ctc_log_probs(out.final), tokens, out.lengths))
        return l_ctc, {"loss": float(l_ctc.data), "ctc": float(l_ctc.data)}, None

    def eval_fn():
        return evaluate_ctc(lambda f: net.ctc_log_probs(net.embed(f)), dev_seqs)

    records, final = _run_loop(
        net, train_seqs, dev_seqs, train_cfg, out_dir,
        step_fn, eval_fn, lambda path: save_embedding(path, net, model_cfg),
    )
    shutil.copyfile(final.path, Path(out_dir) / "embedding.ckpt")
    return records, final


def run_joint_training(model, train_seqs, dev_seqs, train_cfg, out_dir):
    """Joint CTC/AED training with routing losses; the best checkpoint (by
    dev CTC) is copied to <out_dir>/final.ckpt."""

    def eval_fn():
        return evaluate_ctc(
            lambda f: model.ctc_log_probs(model.encode(f)[0].final), dev_seqs
        )

    records, final = _run_loop(
        model, train_seqs, dev_seqs, train_cfg, out_dir,
        lambda batch: batch_losses(model, batch, train_cfg),
        eval_fn, lambda path: save_model(path, model),
    )
    shutil.copyfile(final.path, Path(out_dir) / "final.ckpt")
    return records, final


# ---------------------------------------------------------------------------
# corpus-level entry points
# ---------------------------------------------------------------------------


def joint_model(model_cfg, train_cfg, embedding_ckpt=None):
    """A joint model initialized under the training seed, its embedding
    network loaded from `embedding_ckpt` when one is given."""
    model = SpeechModel(model_cfg).initialize(train_cfg.seed)
    if embedding_ckpt is not None:
        load_pretrained_embedding(model, embedding_ckpt)
    return model


def train_joint(data_dir, out_dir, model_cfg, train_cfg, embedding_ckpt=None):
    train_seqs, dev_seqs = (load_normalized_split(data_dir, s) for s in ("train", "dev"))
    model = joint_model(model_cfg, train_cfg, embedding_ckpt)
    return run_joint_training(model, train_seqs, dev_seqs, train_cfg, out_dir)
