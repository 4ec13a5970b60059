"""The benchmark's workloads: set-up from a seed, the closed measurement loop,
and the correctness checks that run outside the timed regions.

Each workload is a fixed list of units (a ``train_joint`` call, or one
utterance for ``decode_nbest``). One caller runs the units in order, one at
a time, and cycles through the list again until the run's measuring time is
used up and enough operations were timed for the tail percentile. The
first pass over the list is checked against the exact references; every
later pass must reproduce it bit for bit.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from moe_asr import features, inference, training
from moe_asr import tensor as T
from moe_asr.checkpoint import load_model
from moe_asr.config import DecodeConfig, ModelConfig, TrainConfig
from moe_asr.ctc import ctc_loss
from moe_asr.model import SpeechModel
from moe_asr.tensor import Tensor

from tracer import TAIL_PERCENTILE, percentile

VOCAB = 10          # corpus token inventory; the model adds the sos/eos id
FEAT_DIM = 80
BATCH_SIZE = 4
SETUP_REPEATS = 5
# Expert counts of the traced run's encode sweep: inference cost should not
# depend on them.
SWEEP_EXPERTS = (1, 16, 64)
SWEEP_REPEATS = 3
FRAMES_PER_SECOND = inference.FRAMES_PER_SECOND  # 100 input frames = 1 s of audio
# A beam's ctc_score is a lower bound on the exact CTC mass of its tokens.
CTC_BOUND_TOLERANCE = 1e-9
# Re-evaluating final.ckpt must reproduce the recorded dev CTC this closely.
EVAL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Scale:
    """Workload sizes; the defaults are the benchmark, tests shrink them."""

    num_experts: int = 16
    corpus_utts: int = 50
    train_corpora: int = 4
    train_steps: int = 10
    decode_utts: int = 100
    decode_models: int = 8
    long_utts: int = 24
    long_tokens: tuple = (30, 50)
    min_ops: int = 60
    sweep_utts: int = 8


def model_config(num_experts):
    return ModelConfig.desk_scale(VOCAB + 1, num_experts=num_experts)


def derived_seed(seed, *keys):
    return int(np.random.SeedSequence([int(seed), *keys]).generate_state(1)[0])


@dataclass
class UnitRun:
    """One timed unit: its outputs, input frames, and its wall time and
    per-operation latencies, both as measured and at the probe's reference
    speed (see SpeedProbe)."""

    attempted: int
    wall: float
    frames: int
    latencies: list
    outputs: object = None
    error: str = ""
    ref_wall: float = 0.0
    ref_latencies: list = field(default_factory=list)


class SpeedProbe:
    """Fixed work that tracks how fast the machine runs.

    Shared machines speed up and slow down by tens of percent within
    seconds, which no run length averages away. The probe runs right before
    and after each operation; the operation's time, divided by the local
    speed, is reported at the reference speed, at which one probe takes
    ``reference_s``. The work shares no code with the program and mirrors
    its hot paths: small numpy calls with tuple keys and dict updates, as in
    beam search and graph building; with ``memory_bound``, also elementwise
    passes over 1 MB arrays and mid-size matmuls, as in the optimizer and
    the backward pass. Decoding is tracked best by the first part alone,
    training by both.
    """

    def __init__(self, memory_bound):
        rng = np.random.default_rng(0)
        self._a, self._b, self._v = rng.random((32, 64)), rng.random((64, 64)), rng.random(12)
        self._m, self._w = rng.random((128, 256)), rng.random((256, 128))
        self._x, self._y = rng.random(131072), rng.random(131072)
        self.memory_bound = memory_bound
        self.reference_s = 0.010 if memory_bound else 0.004
        self.samples, self.spent = [], 0.0
        self.sample()

    def _work(self):
        total, table = 0.0, {}
        for i in range(40):
            x = self._a @ self._b
            for j in range(12):
                pair = np.array([self._v[j], total * 1e-9])
                m = np.max(pair)
                total += float(m + np.log(np.sum(np.exp(pair - m))))
                key = (i % 5,) + (j,)
                table[key] = table.get(key, (0.0, 0))[0] + total, j
            total += float(x[i % 32].sum())
        if not self.memory_bound:
            return total
        for _ in range(4):
            m = 0.9 * self._x + 0.1 * self._y
            v = 0.98 * self._y + 0.02 * m * m
            total += float((m / (np.sqrt(v) + 1e-9))[::4096].sum())
        for _ in range(10):
            total += float((self._m @ self._w)[0, 0])
        return total

    def sample(self):
        start = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        return elapsed

    @property
    def last(self):
        return self.samples[-1]

    def factor_since(self, before):
        """Reference-speed seconds per measured second for an interval that
        began right after the probe sample ``before`` and ends now."""
        return 2 * self.reference_s / (before + self.sample())


@dataclass
class Check:
    failed: int = 0
    notes: list = field(default_factory=list)
    score_gaps: list = field(default_factory=list)

    def fail(self, count, note):
        self.failed += count
        self.notes.append(note)


class StepClock:
    """Times each training step, from the model's zero_grad to the end of
    the optimizer step, and probes the machine's speed between steps unless
    ``probe`` is None."""

    def __init__(self, probe):
        self.probe = probe
        self.laps, self.ref_laps = [], []

    def __enter__(self):
        self._saved = SpeechModel.__dict__.get("zero_grad"), training.Adam.step
        zero_grad, step = SpeechModel.zero_grad, training.Adam.step

        def timed_zero_grad(module):
            self._before = self.probe and self.probe.last
            self._start = time.perf_counter()
            return zero_grad(module)

        def timed_step(optimizer, lr):
            result = step(optimizer, lr)
            lap = time.perf_counter() - self._start
            self.laps.append(lap)
            if self.probe is not None:
                self.ref_laps.append(lap * self.probe.factor_since(self._before))
            return result

        SpeechModel.zero_grad = timed_zero_grad
        training.Adam.step = timed_step
        return self

    def __exit__(self, *exc):
        zero_grad, training.Adam.step = self._saved
        if zero_grad is None:
            del SpeechModel.zero_grad
        else:
            SpeechModel.zero_grad = zero_grad
        return False


class Workload:
    name = ""
    memory_bound = False  # which SpeedProbe tracks this workload

    def __init__(self, seed, scale, workdir):
        self.seed, self.scale, self.workdir = seed, scale, Path(workdir)

    def setup(self, where):
        """Build every input under ``where``; returns the list of units."""
        raise NotImplementedError

    def run(self, unit, probe):
        """Run one unit inside the timed region; returns a UnitRun. With a
        SpeedProbe, also probe the machine's speed around the unit."""
        raise NotImplementedError

    def check(self, unit, result, check):
        """Check a first-pass result against the exact references."""
        raise NotImplementedError

    def quality(self, results):
        """From the first pass: (nats per token, the per-utterance figure
        the workload's users read)."""
        raise NotImplementedError

    def sweep_inputs(self):
        """Feature matrices for the expert-count sweep."""
        raise NotImplementedError


class TrainWorkload(Workload):
    name = "train"
    memory_bound = True

    def setup(self, where):
        s = self.scale
        self.model_cfg = model_config(s.num_experts)
        self.units = []
        for k in range(s.train_corpora):
            corpus_seed = derived_seed(self.seed, 3, k)
            data = Path(where) / f"corpus{k}"
            features.generate_corpus(data, s.corpus_utts, VOCAB, corpus_seed, feat_dim=FEAT_DIM)
            train = features.load_normalized_split(data, "train")
            dev = features.load_normalized_split(data, "dev")
            n = s.train_steps * BATCH_SIZE
            frames = sum(train[i % len(train)].feats.shape[0] for i in range(n))
            cfg = TrainConfig(
                max_steps=s.train_steps, eval_every=s.train_steps,
                warmup_steps=s.train_steps, batch_size=BATCH_SIZE, seed=corpus_seed,
            )
            self.units.append({"k": k, "data": data, "dev": dev, "train": train,
                               "frames": frames, "cfg": cfg})
        return self.units

    def run(self, unit, probe):
        out = self.workdir / f"run{unit['k']}"
        steps = self.scale.train_steps
        first, spent = (len(probe.samples) - 1, probe.spent) if probe else (0, 0.0)
        with StepClock(probe) as clock:
            start = time.perf_counter()
            try:
                _, final = training.train_joint(unit["data"], out, self.model_cfg, unit["cfg"])
                error = ""
            except Exception as exc:  # a failed call fails every step it held
                final, error = None, repr(exc)
            wall = time.perf_counter() - start
        ref_wall = wall
        if probe is not None:
            # The step probes ran inside the call: take their time out, and
            # judge the call's speed by every probe from just before it to
            # just after it.
            inside = probe.spent - spent
            probe.sample()
            ref_wall = (wall - inside) * probe.reference_s / statistics.fmean(probe.samples[first:])
        if final is None:
            return UnitRun(steps, wall, 0, [], None, error, ref_wall, [])
        return UnitRun(steps, wall, unit["frames"], clock.laps, final.eval_ctc, "",
                       ref_wall, clock.ref_laps or clock.laps)

    def check(self, unit, result, check):
        out = self.workdir / f"run{unit['k']}"
        with open(out / "metrics.jsonl", encoding="utf-8") as fh:
            losses = [json_loss(line) for line in fh]
        bad = sum(1 for loss in losses if not math.isfinite(loss))
        if bad or len(losses) != self.scale.train_steps:
            check.fail(max(bad, 1), f"corpus {unit['k']}: {bad} non-finite of {len(losses)} losses")
        model = load_model(out / "final.ckpt").eval()
        again = training.evaluate_ctc(
            lambda f: model.ctc_log_probs(model.encode(f)[0].final), unit["dev"]
        )
        if not abs(again - result.outputs) <= EVAL_TOLERANCE:
            check.fail(1, f"corpus {unit['k']}: final.ckpt re-evaluates to {again!r},"
                          f" training recorded {result.outputs!r}")

    def quality(self, results):
        """Dev CTC per reference token, and per utterance (final.eval_ctc)."""
        done = [(u, r.outputs) for u, r in zip(self.units, results) if r.outputs is not None]
        nats = sum(ctc * len(u["dev"]) for u, ctc in done)
        tokens = sum(len(seq.tokens) for u, _ in done for seq in u["dev"])
        return nats / max(tokens, 1), statistics.fmean([ctc for _, ctc in done] or [0.0])

    def sweep_inputs(self):
        return [seq.feats for seq in self.units[0]["train"][: self.scale.sweep_utts]]


def json_loss(line):
    value = json.loads(line)["loss"]
    return float("nan") if value is None else float(value)


class DecodeWorkload(Workload):
    name = "decode"

    def utterances(self, where):
        data = Path(where) / "corpus"
        features.generate_corpus(data, self.scale.decode_utts, VOCAB, self.seed, feat_dim=FEAT_DIM)
        return (features.load_normalized_split(data, "train")
                + features.load_normalized_split(data, "dev"))

    def setup(self, where):
        s = self.scale
        seqs = self.utterances(where)
        cfg = model_config(s.num_experts)
        models = [SpeechModel(cfg).initialize(derived_seed(self.seed, 2, m))
                  for m in range(s.decode_models)]
        self.decode_cfg = DecodeConfig()
        self.units = [
            {"seq": seq, "feats": Tensor(seq.feats), "model": models[i % len(models)]}
            for i, seq in enumerate(seqs)
        ]
        return self.units

    def run(self, unit, probe):
        d = self.decode_cfg
        before = probe and probe.last
        start = time.perf_counter()
        try:
            hyps = inference.decode_nbest(unit["model"], unit["feats"], d.beam, d.nbest, d.mu)
            error = ""
        except Exception as exc:
            hyps, error = None, repr(exc)
        wall = time.perf_counter() - start
        ref = wall * probe.factor_since(before) if probe else wall
        if hyps is None:
            return UnitRun(1, wall, 0, [], None, error, ref, [])
        outputs = tuple((tuple(h.tokens), h.ctc_score, h.aed_score, h.combined) for h in hyps)
        return UnitRun(1, wall, unit["seq"].feats.shape[0], [wall], outputs, "", ref, [ref])

    def check(self, unit, result, check):
        hyps = result.outputs
        where = unit["seq"].utt_id
        if not hyps:
            check.fail(1, f"{where}: empty N-best list")
            return
        with T.no_grad():
            out, _ = unit["model"].encode(unit["feats"])
            log_probs = unit["model"].ctc_log_probs(out.final).data
        problems = []
        for tokens, ctc_score, aed_score, combined in hyps:
            if not all(math.isfinite(v) for v in (ctc_score, aed_score, combined)):
                problems.append(f"non-finite score for {list(tokens)}")
                continue
            exact = -float(ctc_loss(log_probs, list(tokens)))
            check.score_gaps.append(exact - ctc_score)
            if ctc_score > exact + CTC_BOUND_TOLERANCE:
                problems.append(f"beam ctc_score {ctc_score!r} exceeds exact {exact!r}"
                                f" for {list(tokens)}")
        if hyps[0][3] < max(h[3] for h in hyps):
            problems.append("1-best does not have the highest combined score")
        if problems:
            check.fail(1, f"{where}: " + "; ".join(problems))

    def quality(self, results):
        """Combined cost of the 1-best per output token (its end symbol
        included), and the 1-best's mean combined score per utterance."""
        best = [r.outputs[0] for r in results if r.outputs]
        per_token = -sum(h[3] for h in best) / max(sum(len(h[0]) + 1 for h in best), 1)
        return per_token, statistics.fmean([h[3] for h in best] or [0.0])

    def sweep_inputs(self):
        return [u["seq"].feats for u in self.units[: self.scale.sweep_utts]]


class DecodeLongWorkload(DecodeWorkload):
    name = "decode_long"

    def utterances(self, where):
        """Long-form utterances whose token counts step evenly from the
        lowest to the highest count, so every seed sees the same length mix."""
        s = self.scale
        lo, hi = s.long_tokens
        seqs = []
        for i in range(s.long_utts):
            rng = np.random.default_rng(np.random.SeedSequence([int(self.seed), 1, i]))
            n = lo + (hi - lo) * i // max(s.long_utts - 1, 1)
            tokens = [int(t) for t in rng.integers(0, VOCAB, size=n)]
            feats = features.synthesize_utterance(rng, tokens, VOCAB, FEAT_DIM)
            seqs.append(features.FeatureSequence(f"long{i:03d}", feats, tokens))
        stats = features.compute_cmvn(seqs)
        return [features.apply_cmvn(seq, stats) for seq in seqs]


WORKLOADS = {w.name: w for w in (TrainWorkload, DecodeWorkload, DecodeLongWorkload)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0
    ref_busy: float = 0.0
    frames: int = 0
    latencies: list = field(default_factory=list)
    ref_latencies: list = field(default_factory=list)
    first_pass: list = field(default_factory=list)
    check: Check = field(default_factory=Check)

    def add(self, result):
        self.attempted += result.attempted
        self.busy += result.wall
        self.ref_busy += result.ref_wall
        self.frames += result.frames
        self.latencies.extend(result.latencies)
        self.ref_latencies.extend(result.ref_latencies)


def count_failures(workload, units, result, index, measurement):
    """Count a unit's failures: errors, first-pass checks, or a later pass
    that does not reproduce the first bit for bit."""
    check = measurement.check
    if index < len(units):
        measurement.first_pass.append(result)
    if result.outputs is None:
        check.fail(result.attempted, f"unit {index}: {result.error}")
    elif index < len(units):
        workload.check(units[index], result, check)
    elif result.outputs != measurement.first_pass[index % len(units)].outputs:
        check.fail(1, f"unit {index % len(units)}: repeat differs from the first pass")


def measure(workload, units, seconds, min_ops, probe):
    """Closed loop over the units until ``seconds`` of operation time and
    ``min_ops`` timed operations, and at least one full pass."""
    m = Measurement()
    index = 0
    while index < len(units) or m.busy < seconds or len(m.latencies) < min_ops:
        result = workload.run(units[index % len(units)], probe)
        m.add(result)
        count_failures(workload, units, result, index, m)
        index += 1
    m.failed = m.check.failed
    return m


def one_pass(workload, units, probe):
    """Run every unit once; returns the UnitRuns."""
    return [workload.run(unit, probe) for unit in units]


def timed_setup(workload, probe):
    """Run the set-up SETUP_REPEATS times in fresh directories and keep the
    last; returns the units and each set-up's reference-speed seconds."""
    times, units = [], None
    for r in range(SETUP_REPEATS):
        where = workload.workdir / f"setup{r}"
        units = workload.units = None  # free the previous inputs first
        before = probe.last
        start = time.perf_counter()
        units = workload.setup(where)
        times.append((time.perf_counter() - start) * probe.factor_since(before))
        if r + 1 < SETUP_REPEATS:
            shutil.rmtree(where, ignore_errors=True)
    return units, times


def latency_summary(latencies):
    return (statistics.median(latencies) * 1e3, percentile(latencies, TAIL_PERCENTILE) * 1e3)


def sweep_encode_ms(inputs, seed):
    """Median encode time per utterance for each expert count, interleaved
    so that drift in machine speed hits every count alike."""
    models = {n: SpeechModel(model_config(n)).initialize(seed).eval() for n in SWEEP_EXPERTS}
    feats = [Tensor(x) for x in inputs]
    times = {n: [] for n in SWEEP_EXPERTS}
    with T.no_grad():
        for _ in range(SWEEP_REPEATS):
            for n, mdl in models.items():
                for x in feats:
                    start = time.perf_counter()
                    mdl.encode(x)
                    times[n].append(time.perf_counter() - start)
    return {n: statistics.median(v) * 1e3 for n, v in times.items()}
