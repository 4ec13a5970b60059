"""Outside-in span tracer for the moe-asr benchmark.

The tracer never edits the program. While installed it replaces public
functions (at the module attribute their callers look up) and methods of
the ``Module`` classes with timing wrappers, and ``uninstall`` restores the
originals. Every wrapped call records a span: its layer label, the module
path it ran on (from ``model.named_modules()``, for example
``encoder.blocks.3.ffn2.experts.1``), start, end, parent span, and the trace
id shared by every span of one training step or one decoded utterance.
Spans stay in memory until ``write_spans`` at the end of the run.

A span's self time is its duration minus the durations of its direct child
spans. Attention spans are the exception: they overlap their parent (their
time stays in the caller's self time) and feed only the cross-cutting
``nn.attention_ms``. Under a lumping boundary (embedding network,
rescoring, dev evaluation, checkpoint writes, model construction, corpus
loading) nested spans take the boundary's label, so that work is charged
to the boundary that caused it.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time

from moe_asr import decoder, encoder, features, inference, model, moe, nn, tensor, training

# Top-level calls that make up the workload's measured operations.
OP_KINDS = ("train_joint", "decode_nbest")
STEP = "training.step"
LUMPS = frozenset({
    "encoder.embedding",
    "decoder.rescore",
    "training.eval",
    "checkpoint.save",
    "model.init",
    "features.load",
})
# Labels reported as milliseconds of self time per operation.
PER_OP_LABELS = (
    "tensor.backward",
    "encoder.subsample",
    "encoder.ffn1",
    "encoder.attn",
    "encoder.conv",
    "encoder.ffn2_dense",
    "encoder.embedding",
    "encoder.other",
    "moe.router",
    "moe.experts",
    "moe.dispatch",
    "moe.losses",
    "decoder.teacher_forced",
    "decoder.rescore",
    "ctc.loss",
    "ctc.beam",
    "training.forward",
    "training.optimizer",
    "training.clip",
    "training.zero_grad",
    "training.eval",
    "training.other",
    "features.augment",
    "features.load",
    "checkpoint.save",
    "inference.other",
)
TAIL_PERCENTILE = 80

_BLOCK = r"encoder\.blocks\.\d+"
_MODULE_RULES = (
    (re.compile(r"embedding_net(\..*)?$"), "encoder.embedding"),
    (re.compile(r"encoder\.subsample$"), "encoder.subsample"),
    (re.compile(_BLOCK + r"\.ffn1$"), "encoder.ffn1"),
    (re.compile(_BLOCK + r"\.attn$"), "encoder.attn"),
    (re.compile(_BLOCK + r"\.conv$"), "encoder.conv"),
    (re.compile(_BLOCK + r"\.ffn2\.router$"), "moe.router"),
    (re.compile(r"(decoder|aux_decoders\.\d+)(\..*)?$"), "decoder.teacher_forced"),
    (re.compile(r"$"), "encoder.other"),
)
_FFN2_SLOT = re.compile(r"(" + _BLOCK + r"\.ffn2)(\.experts\.\d+)?$")


def _module_label(path, modules):
    slot = _FFN2_SLOT.match(path)
    if slot:
        if getattr(modules[slot.group(1)], "router", None) is None:
            return "encoder.ffn2_dense"
        return "moe.experts" if slot.group(2) else "moe.dispatch"
    for pattern, label in _MODULE_RULES:
        if pattern.match(path):
            return label
    return "unattributed"


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []      # [trace_id, parent, label, path, t0, t1, overlaps, kind]
        self.stack = []      # indices of open spans that do not overlap their parent
        self.modules = {}    # id(module) -> (path, label)
        self.counters = {}
        self.missing = []
        self._patches = []
        self._ops = 0
        self._steps = 0
        self._in_op = False
        self._step_span = None

    # -- spans ---------------------------------------------------------------

    def open(self, kind, label, path="", overlap=False):
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            trace_id = f"op{self._ops}"
            self._ops += 1
            self._in_op = kind in OP_KINDS
        else:
            up = self.spans[parent]
            trace_id = up[0]
            if up[2] in LUMPS and not overlap:
                label = up[2]
        if kind == STEP:
            trace_id = f"{trace_id}.s{self._steps}"
            self._steps += 1
        self.spans.append([trace_id, parent, label, path, time.perf_counter(), None, overlap, kind])
        index = len(self.spans) - 1
        if not overlap:
            self.stack.append(index)
        return index

    def close(self, index):
        span = self.spans[index]
        span[5] = time.perf_counter()
        if span[6]:
            return
        # An exception may leave inner spans open; they end with this one.
        while self.stack:
            top = self.stack.pop()
            if self.spans[top][5] is None:
                self.spans[top][5] = span[5]
            if top == index:
                break
        if not self.stack:
            self._in_op = False

    def count(self, key, amount=1):
        """Counters accumulate only inside measured operations."""
        if self._in_op:
            self.counters[key] = self.counters.get(key, 0) + amount

    def register(self, root):
        """Attribute every sub-module of a freshly built model to its path."""
        modules = root.named_modules()
        for path, module in modules.items():
            self.modules[id(module)] = (path, _module_label(path, modules))

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        current = getattr(owner, attr, None)
        if current is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, make(current))

    def _span(self, kind, label, path, overlap, fn, args, kwargs):
        index = self.open(kind, label, path, overlap)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap_function(self, namespace, attr, label, after=None):
        def make(fn):
            def traced(*args, **kwargs):
                result = self._span(attr, label, "", False, fn, args, kwargs)
                if after is not None:
                    after(*args)
                return result
            return traced
        self._patch(namespace, attr, make)

    def wrap_method(self, cls, attr, label=None, overlap=False, after=None):
        """``label=None`` labels each call by the module it runs on."""
        kind = f"{cls.__name__}.{attr}"

        def make(fn):
            def traced(module, *args, **kwargs):
                path, own = self.modules.get(id(module), ("", "unattributed"))
                result = self._span(kind, label or own, path, overlap, fn, (module,) + args, kwargs)
                if after is not None:
                    after(own, *args)
                return result
            return traced
        self._patch(cls, attr, make)

    def install(self):
        """Wrap every traced boundary; ``uninstall`` restores the originals."""
        fn = self.wrap_function
        fn(training, "train_joint", "training.other")
        fn(training, "batch_losses", "training.forward")
        fn(training, "spec_augment", "features.augment")
        fn(training, "clip_gradients", "training.clip")
        fn(training, "evaluate_ctc", "training.eval")
        fn(training, "ctc_loss", "ctc.loss")
        fn(training, "load_normalized_split", "features.load")
        for name in ("sparsity_loss", "mean_importance_loss", "batch_distributions"):
            fn(training, name, "moe.losses")
        fn(training, "save_model", "checkpoint.save",
           after=lambda path, *_: self.count("checkpoint_bytes", os.path.getsize(path)))
        for name in ("generate_corpus", "load_normalized_split", "synthesize_utterance",
                     "compute_cmvn", "apply_cmvn"):
            fn(features, name, "features.load")
        fn(inference, "decode_nbest", "inference.other")
        fn(inference, "prefix_beam_search", "ctc.beam",
           after=lambda log_probs, *_: self.count("beam_frames", len(log_probs)))
        fn(inference, "rescore", "decoder.rescore", after=self._count_rescore)

        method = self.wrap_method
        method(tensor.Tensor, "backward", "tensor.backward")
        method(training.Adam, "step", "training.optimizer")
        method(model.SpeechModel, "zero_grad", "training.zero_grad")
        method(model.SpeechModel, "initialize", "model.init")
        method(model.SpeechModel, "encode")
        method(encoder.EmbeddingNetwork, "embed")
        method(encoder.Subsample, "forward")
        method(nn.SelfAttention, "forward")
        method(nn.ConvModule, "forward")
        method(nn.FeedForward, "forward", after=self._count_expert)
        method(nn.MultiHeadAttention, "forward", "nn.attention", overlap=True)
        method(moe.RoutedFFN, "forward")
        method(moe.Router, "route")
        method(decoder.TransformerDecoder, "decode_teacher_forced")
        self._wrap_construction()
        self._wrap_step_boundaries()
        self._wrap_counters()
        return self

    def _count_rescore(self, _decoder, _enc, tokens):
        self.count("rescore_calls")
        self.count("rescore_tokens", len(tokens) + 1)

    def _count_expert(self, label, x, *_):
        lumped = self.stack and self.spans[self.stack[-1]][2] in LUMPS
        if label == "moe.experts" and not lumped:
            self.count("expert_calls")
            self.count("expert_rows", x.data.shape[0])

    def _wrap_construction(self):
        def make(init):
            def traced(module, *args, **kwargs):
                self._span("SpeechModel.__init__", "model.init", "", False,
                           init, (module,) + args, kwargs)
                self.register(module)
                self.counters["models_built"] = self.counters.get("models_built", 0) + 1
            return traced
        self._patch(model.SpeechModel, "__init__", make)

    def _wrap_step_boundaries(self):
        """A training step runs from the model's zero_grad to the end of the
        optimizer step; its span is the parent of everything in between."""

        def make_zero_grad(zero_grad):
            def traced(module):
                if self._in_op and self._step_span is None:
                    self._step_span = self.open(STEP, "training.other")
                return zero_grad(module)
            return traced

        def make_step(step):
            def traced(optimizer, lr):
                try:
                    return step(optimizer, lr)
                finally:
                    if self._step_span is not None:
                        self.close(self._step_span)
                        self._step_span = None
            return traced

        self._patch(model.SpeechModel, "zero_grad", make_zero_grad)
        self._patch(training.Adam, "step", make_step)

    def _wrap_counters(self):
        def make_matmul(matmul):
            def counted(a, b):
                out = matmul(a, b)
                if self._in_op:
                    m, n = out.data.shape
                    self.count("matmul_calls")
                    self.count("matmul_flops", 2 * m * n * getattr(a, "data", a).shape[1])
                return out
            return counted

        def make_node(node):
            def counted(data, parents, backward, op):
                out = node(data, parents, backward, op)
                if out.grad is not None and self._in_op:
                    self.count("graph_nodes")
                    self.count("grad_bytes", out.grad.nbytes)
                return out
            return counted

        self._patch(tensor, "matmul", make_matmul)
        self._patch(tensor, "_node", make_node)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._step_span = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def summarize(self, batch_size):
        """Per-layer metrics over the measured operations, plus self time per
        module path (or label, for spans without a module)."""
        spans = self.spans
        child = [0.0] * len(spans)
        root = [0] * len(spans)
        for i, (_, parent, _, _, t0, t1, overlap, _) in enumerate(spans):
            root[i] = i if parent is None else root[parent]
            if parent is not None and not overlap:
                child[parent] += t1 - t0
        self_s, by_path = {}, {}
        attention = 0.0
        steps, encodes = [], []
        utts = init_s = setup_load_s = saves = 0
        routed_layers = set()
        for i, (_, parent, label, path, t0, t1, overlap, kind) in enumerate(spans):
            in_op = spans[root[i]][7] in OP_KINDS
            own = t1 - t0 - child[i]
            if label == "model.init":
                init_s += own
            if not in_op:
                setup_load_s += own if label == "features.load" else 0.0
                continue
            if overlap:
                attention += t1 - t0
                continue
            self_s[label] = self_s.get(label, 0.0) + own
            key = path or label
            by_path[key] = by_path.get(key, 0.0) + own
            if kind == STEP:
                steps.append(t1 - t0)
            elif kind == "decode_nbest" and parent is None:
                utts += 1
            elif kind == "SpeechModel.encode" and label == "encoder.other":
                encodes.append(t1 - t0)
            elif kind == "save_model":
                saves += 1
            elif label == "moe.dispatch":
                routed_layers.add(path)

        c = self.counters.get
        ops = len(steps) or utts or 1
        per_op = lambda value: value / ops  # noqa: E731
        metrics = {f"{label}_ms": per_op(self_s.get(label, 0.0)) * 1e3 for label in PER_OP_LABELS}
        metrics.update({
            "nn.attention_ms": per_op(attention) * 1e3,
            "tensor.nodes_per_utt": c("graph_nodes", 0) / (len(steps) * batch_size) if steps else 0.0,
            "tensor.grad_mb_per_step": c("grad_bytes", 0) / len(steps) / 2**20 if steps else 0.0,
            "tensor.matmul_calls": per_op(c("matmul_calls", 0)),
            "tensor.matmul_gflop": per_op(c("matmul_flops", 0)) / 1e9,
            "moe.expert_calls_per_layer": per_op(c("expert_calls", 0)) / max(len(routed_layers), 1),
            "moe.frames_per_expert_call": c("expert_rows", 0) / max(c("expert_calls", 0), 1),
            "decoder.rescore_calls_per_utt": c("rescore_calls", 0) / utts if utts else 0.0,
            "decoder.rescore_tokens_per_utt": c("rescore_tokens", 0) / utts if utts else 0.0,
            "ctc.beam_ms_per_frame": self_s.get("ctc.beam", 0.0) * 1e3 / max(c("beam_frames", 0), 1),
            "training.step_ms_p50": statistics.median(steps) * 1e3 if steps else 0.0,
            "training.step_ms_tail": percentile(steps, TAIL_PERCENTILE) * 1e3 if steps else 0.0,
            "checkpoint.bytes": c("checkpoint_bytes", 0) / saves if saves else 0.0,
            "model.init_ms": init_s * 1e3 / max(c("models_built", 0), 1),
            "model.encode_ms": statistics.median(encodes) * 1e3 if encodes else 0.0,
            "features.setup_ms": setup_load_s * 1e3,
        })
        unattributed = self_s.get("unattributed", 0.0)
        return metrics, {
            "operations": ops,
            "steps": len(steps),
            "utterances": utts,
            "spans": len(spans),
            "unattributed_ms_per_op": per_op(unattributed) * 1e3,
            "unhooked": list(self.missing),
            "self_ms_per_op_by_path": {
                k: per_op(v) * 1e3 for k, v in sorted(by_path.items(), key=lambda kv: -kv[1])
            },
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (tid, parent, label, mpath, t0, t1, overlap, kind) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": index, "trace": tid, "parent": parent, "name": kind,
                    "label": label, "path": mpath, "start": t0, "end": t1,
                    "overlaps_parent": overlap,
                }) + "\n")
