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
"""

from __future__ import annotations

import dataclasses
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
from .encoder import EmbeddingNetwork, subsampled_length
from .features import load_normalized_split, spec_augment, utterance_rng
from .model import SpeechModel
from .moe import (
    mean_importance_loss,
    moe_loss,
    sparsity_loss,
    utilization_entropy,
)
from .tensor import Tensor


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


def learning_rate(step, peak_lr, warmup_steps):
    """Linear warmup to the peak, then inverse-square-root decay."""
    if step < 1:
        raise ValueError(f"step counting starts at 1, got {step}")
    return peak_lr * min(step / warmup_steps, math.sqrt(warmup_steps / step))


class Adam:
    """Adam on a fixed named-parameter set.

    The defaults are the paper recipe's, and the only values training uses.

    A parameter whose gradient has stayed exactly zero has exactly zero
    moment estimates, so its update is exactly zero: untouched parameters
    never drift, whatever the step count.
    """

    def __init__(self, params, beta1=0.9, beta2=0.98, eps=1e-9):
        self.params = dict(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, lr):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        # In place, in the operation order of the textbook expressions
        #   m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,
        #   p -= lr*(m/c1) / (sqrt(v/c2) + eps),
        # so every step gives the same bits with fewer temporaries.
        for name, p in self.params.items():
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            gg = (1.0 - self.beta2) * g
            gg *= g
            v += gg
            num = m / c1
            num *= lr
            den = v / c2
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p.data -= num


GRAD_CLIP = 5.0  # global gradient-norm threshold of the paper's recipe


def global_grad_norm(params):
    total = 0.0
    for p in params.values():
        total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)


def clip_gradients(params, max_norm):
    """Scale all gradients by a common factor if the global norm exceeds the
    threshold; returns the pre-clip norm. Direction is always preserved. A
    non-finite norm scales nothing: the caller has to stop."""
    norm = global_grad_norm(params)
    if max_norm < norm < math.inf:
        factor = max_norm / norm
        for p in params.values():
            p.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# objective assembly
# ---------------------------------------------------------------------------


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(float(x))


def joint_loss(l_ctc, aed_losses, eta):
    """eta * L_ctc + (1 - eta) * sum of the per-level decoder losses."""
    total_aed = None
    for term in aed_losses:
        term = _as_tensor(term)
        total_aed = term if total_aed is None else T.add(total_aed, term)
    if total_aed is None:
        total_aed = Tensor(0.0)
    return T.add(T.scale(_as_tensor(l_ctc), eta), T.scale(total_aed, 1.0 - eta))


def total_loss(l_moe, l_joint):
    return T.add(_as_tensor(l_moe), _as_tensor(l_joint))


def _mean(terms):
    out = terms[0]
    for term in terms[1:]:
        out = T.add(out, term)
    return T.scale(out, 1.0 / len(terms))


def _packed(batch):
    """One batch as stacked feature rows, rows per utterance, token lists."""
    feats = Tensor(np.concatenate([seq.feats for seq in batch]))
    return feats, [seq.feats.shape[0] for seq in batch], [seq.tokens for seq in batch]


def batch_losses(model, batch, train_cfg):
    """Forward one packed batch and assemble every objective term.

    Returns (total, metrics dict, routing list or None); metrics values are
    plain floats. Routing stats are measured outside the graph so that they
    exist even when the routing losses carry zero weight.
    """
    cfg = model.cfg
    feats, lengths, tokens = _packed(batch)
    out, e_c = model.encode(feats, lengths)
    l_ctc = T.reduce_mean(ctc_loss(model.ctc_log_probs(out.final), tokens, out.lengths))
    aed_total, _ = multi_level_aed(
        model.decoder, model.aux_decoders, out, tokens,
        cfg.tap_blocks(), train_cfg.label_smoothing,
    )
    l_aed = T.reduce_mean(aed_total)
    l_joint = joint_loss(l_ctc, [l_aed], train_cfg.eta)

    l_s = l_m = l_e = None
    routing = None
    if cfg.routed:
        records = dict(out.records)
        if train_cfg.alpha > 0.0:
            l_s = _mean([sparsity_loss(r.p) for r in records.values()])
        if train_cfg.beta > 0.0:
            l_m = _mean([mean_importance_loss(r.p, cfg.num_experts) for r in records.values()])
        if train_cfg.gamma > 0.0:
            l_e = T.reduce_mean(
                ctc_loss(model.embedding_net.ctc_log_probs(e_c), tokens, out.lengths)
            )
        routing = []
        with T.no_grad():
            for idx, record in records.items():
                counts = record.utilization(cfg.num_experts)
                routing.append({
                    "block": idx,
                    "utilization": [int(c) for c in counts],
                    "entropy": utilization_entropy(counts),
                    "sparsity": float(sparsity_loss(record.p).data),
                    "importance": float(mean_importance_loss(record.p, cfg.num_experts).data),
                })
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


class _Batcher:
    """Cycles the training list in manifest order. Each utterance's k-th
    visit falls in epoch k, so the epoch seeds its augmentation draw."""

    def __init__(self, seqs, batch_size):
        if not seqs:
            raise ValueError("training split is empty")
        self.seqs = seqs
        self.batch_size = batch_size
        self.cursor = 0
        self.epoch = 0

    def next_batch(self):
        batch = []
        for _ in range(self.batch_size):
            batch.append((self.seqs[self.cursor], self.epoch))
            self.cursor += 1
            if self.cursor == len(self.seqs):
                self.cursor = 0
                self.epoch += 1
        return batch


def _augmented(batch, train_cfg):
    # Two frequency and two time masks of width up to 10, sized for the short
    # synthetic utterances (production-length audio would use the wider
    # spec_augment defaults); a band never spans more than the feature dim.
    if not train_cfg.augment:
        return [seq for seq, _ in batch]
    return [
        spec_augment(
            seq,
            utterance_rng(train_cfg.seed, seq.utt_id, epoch),
            F=min(10, seq.feats.shape[1]),
            T_mask=10,
            n_freq=2,
            n_time=2,
        )
        for seq, epoch in batch
    ]


def _run_loop(module, train_seqs, dev_seqs, train_cfg, out_dir, step_fn, eval_fn, save_fn):
    """Shared driver: batching, optimization, metrics, periodic evaluation.

    ``step_fn(batch)`` returns (total, metrics, routing); ``eval_fn()``
    the dev CTC loss; ``save_fn(path)`` writes a checkpoint. Returns the
    full list of CheckpointRecords.
    """
    if not dev_seqs:
        raise ValueError("evaluation split is empty")
    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    params = module.named_parameters()
    optimizer = Adam(params)
    batcher = _Batcher(train_seqs, train_cfg.batch_size)
    records = []
    routed_log = None

    def checkpoint(step):
        module.eval()
        eval_ctc = eval_fn()
        path = out / "checkpoints" / f"step{step:06d}.ckpt"
        save_fn(path)
        records.append(CheckpointRecord(batcher.epoch, step, eval_ctc, str(path)))

    with open(out / "metrics.jsonl", "w", encoding="utf-8") as metrics_fh:
        step = 0
        while step < train_cfg.max_steps and batcher.epoch < train_cfg.max_epochs:
            step += 1
            batch = batcher.next_batch()
            module.train()
            module.zero_grad()
            total, metrics, routing = step_fn(_augmented(batch, train_cfg))
            if not np.isfinite(total.data):
                raise RuntimeError(
                    f"training diverged: non-finite loss {float(total.data)} at step {step}"
                )
            total.backward()
            grad_norm = clip_gradients(params, GRAD_CLIP)
            if not math.isfinite(grad_norm):
                raise RuntimeError(
                    f"training diverged: non-finite gradient norm {grad_norm} at step {step}"
                )
            lr = learning_rate(step, train_cfg.peak_lr, train_cfg.warmup_steps)
            optimizer.step(lr)

            line = {"step": step, "epoch": batcher.epoch}
            line.update(metrics)
            line["grad_norm"] = grad_norm
            line["lr"] = lr
            line["entropy"] = (
                None if routing is None else {str(r["block"]): r["entropy"] for r in routing}
            )
            metrics_fh.write(json.dumps(line) + "\n")
            if routing is not None:
                if routed_log is None:
                    routed_log = open(out / "routing.jsonl", "w", encoding="utf-8")
                routed_log.write(json.dumps({"step": step, "layers": routing}) + "\n")
            if step % train_cfg.eval_every == 0:
                checkpoint(step)
        if not records or records[-1].step != step:
            checkpoint(step)
    if routed_log is not None:
        routed_log.close()

    final = select_final(records)
    # records.json keeps every candidate so the selection is auditable.
    with open(out / "records.json", "w", encoding="utf-8") as fh:
        json.dump([dataclasses.asdict(r) for r in records], fh, indent=2)
        fh.write("\n")
    with open(out / "final.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(final), fh, indent=2)
        fh.write("\n")
    return records, final


def run_pretraining(net, train_seqs, dev_seqs, model_cfg, train_cfg, out_dir):
    """Train the embedding stack alone under its CTC head; the best
    checkpoint (by dev CTC) is copied to <out_dir>/embedding.ckpt."""

    def step_fn(batch):
        feats, lengths, tokens = _packed(batch)
        log_probs = net.ctc_log_probs(net.embed(feats, lengths))
        frames = [subsampled_length(n) for n in lengths]
        l_ctc = T.reduce_mean(ctc_loss(log_probs, tokens, frames))
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


def pretrain_embedding(data_dir, out_dir, model_cfg, train_cfg):
    train_seqs = load_normalized_split(data_dir, "train")
    dev_seqs = load_normalized_split(data_dir, "dev")
    net = EmbeddingNetwork(model_cfg).initialize(train_cfg.seed)
    return run_pretraining(net, train_seqs, dev_seqs, model_cfg, train_cfg, out_dir)


def train_joint(data_dir, out_dir, model_cfg, train_cfg, embedding_ckpt=None):
    train_seqs = load_normalized_split(data_dir, "train")
    dev_seqs = load_normalized_split(data_dir, "dev")
    model = SpeechModel(model_cfg).initialize(train_cfg.seed)
    if embedding_ckpt is not None:
        load_pretrained_embedding(model, embedding_ckpt)
    return run_joint_training(model, train_seqs, dev_seqs, train_cfg, out_dir)
