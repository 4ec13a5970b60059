"""Optimizer, schedule, objective assembly, and the training loops."""

import gc
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr import training
from moe_asr.checkpoint import load_model, load_pretrained_embedding, save_embedding, save_model
from moe_asr.config import ModelConfig, TrainConfig
from moe_asr.encoder import EmbeddingNetwork
from moe_asr.features import (
    FeatureSequence,
    generate_corpus,
    load_normalized_split,
    spec_augment,
    utterance_rng,
)
from moe_asr.model import SpeechModel
from moe_asr.tensor import Tensor
from moe_asr.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GRAD_CLIP,
    NORM_BLOCK,
    PEAK_LR,
    Adam,
    CheckpointRecord,
    batch_losses,
    clip_gradients,
    evaluate_ctc,
    global_grad_norm,
    joint_loss,
    learning_rate,
    run_joint_training,
    run_pretraining,
    select_final,
    total_loss,
)


def tiny_cfg(**overrides):
    base = dict(vocab_size=5, feat_dim=6, d_att=16, d_ff=24, heads=2, kernel=3,
                num_blocks=3, decoder_blocks=1, dropout=0.1, d_emb=8,
                embedding_blocks=1)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_batch(num=2, t=20, feat_dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FeatureSequence(f"u{i}", rng.normal(size=(t, feat_dim)), [0, 1, 2])
        for i in range(num)
    ]


class TestSchedule:
    def test_peak_reached_at_warmup_boundary(self):
        assert learning_rate(1000, 2e-3, 1000) == pytest.approx(2e-3)

    def test_linear_warmup(self):
        assert learning_rate(250, 2e-3, 1000) == pytest.approx(2e-3 * 0.25)

    def test_inverse_sqrt_decay(self):
        assert learning_rate(4000, 2e-3, 1000) == pytest.approx(2e-3 * 0.5)

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            learning_rate(0, 2e-3, 1000)


def block_norm(grads):
    """Plain-numpy reference norm: the gradients laid end to end in
    parameter order, each fixed ``NORM_BLOCK``-element block's squares
    summed by one dot product, the block sums added exactly."""
    flat = np.concatenate([g.reshape(-1) for g in grads])
    blocks = np.split(flat, range(NORM_BLOCK, flat.size, NORM_BLOCK))
    return math.sqrt(math.fsum(float(np.dot(b, b)) for b in blocks))


def textbook_clip(grads, max_norm):
    """Per-array reference clip on the block norm (``block_norm``)."""
    norm = block_norm(list(grads.values()))
    if max_norm < norm < math.inf:
        grads = {name: g * (max_norm / norm) for name, g in grads.items()}
    return norm, grads


class TextbookAdam:
    """Per-array reference Adam over {name: array}, one step per call."""

    def __init__(self, params, b1=0.9, b2=0.98, eps=1e-9):
        self.p = {name: value.copy() for name, value in params.items()}
        self.m = {name: np.zeros_like(value) for name, value in params.items()}
        self.v = {name: np.zeros_like(value) for name, value in params.items()}
        self.b1, self.b2, self.eps, self.t = b1, b2, eps, 0

    def step(self, grads, lr):
        self.t += 1
        b1, b2, eps = self.b1, self.b2, self.eps
        for name, g in grads.items():
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            self.p[name] = self.p[name] - lr * (m / (1.0 - b1**self.t)) / (
                np.sqrt(v / (1.0 - b2**self.t)) + eps)


def arena_spans(arena):
    """{name: slice} of each parameter in the flat buffers, from the shapes
    in parameter order."""
    spans, start = {}, 0
    for name, p in arena.params.items():
        spans[name] = slice(start, start + math.prod(p.shape))
        start = spans[name].stop
    return spans


def assert_flat_matches_textbook(arena, opt, ref, spans):
    for name, p in arena.params.items():
        np.testing.assert_array_equal(p.data, ref.p[name], err_msg=name)
        np.testing.assert_array_equal(opt.m[spans[name]], ref.m[name].reshape(-1), err_msg=name)
        np.testing.assert_array_equal(opt.v[spans[name]], ref.v[name].reshape(-1), err_msg=name)


def assert_in_arena(module):
    """Every parameter's data and grad are views into the module's arena at
    its own offset, in named_parameters() order, covering it exactly."""
    arena, params = module.arena, module.named_parameters()
    assert list(arena.params) == list(params)
    offset = 0
    for name, p in params.items():
        assert arena.params[name] is p, name
        for view, buf in ((p.data, arena.data), (p.grad, arena.grad)):
            assert view.shape == p.shape and view.flags.c_contiguous, name
            assert np.shares_memory(view, buf), name
            address = view.__array_interface__["data"][0] - buf.__array_interface__["data"][0]
            assert address == 8 * offset, name
        offset += math.prod(p.shape)
    assert offset == arena.data.size == arena.grad.size


class TestAdam:
    def test_zero_gradient_means_zero_update(self):
        """A parameter with an exactly-zero gradient history must not move,
        however many steps pass."""
        from moe_asr.nn import Linear

        layer = Linear(4, 4)
        layer.initialize(0)
        before = layer.weight.data.copy()
        opt = Adam(layer.arena)
        for _ in range(50):
            layer.zero_grad()
            opt.step(1e-2)
        assert (layer.weight.data == before).all()

    def test_in_place_step_matches_textbook_bits(self):
        """Over several steps the parameter equals the textbook update
        exactly, and a parameter whose gradient is always zero stays put."""
        from moe_asr.nn import Arena, Parameter, zeros_init

        rng = np.random.default_rng(12)
        live, dead = Parameter((3, 4), zeros_init()), Parameter((5,), zeros_init())
        arena = Arena({"live": live, "dead": dead})
        live.data[...] = rng.normal(size=(3, 4))
        dead.data[...] = rng.normal(size=5)
        start = dead.data.copy()
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        opt = Adam(arena)
        span = arena_spans(arena)["live"]
        p, m, v = live.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for t in range(1, 9):
            arena.grad.fill(0.0)
            g = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-6, 3)
            live.grad += g
            lr = 1e-3 * t
            opt.step(lr)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            np.testing.assert_array_equal(opt.m[span].reshape(3, 4), m)
            np.testing.assert_array_equal(opt.v[span].reshape(3, 4), v)
            np.testing.assert_array_equal(live.data, p)
        np.testing.assert_array_equal(dead.data, start)

    def test_minimizes_quadratic(self):
        from moe_asr.nn import Arena, Parameter, zeros_init

        x = Parameter((3,), zeros_init())
        opt = Adam(Arena({"x": x}))
        x.data[...] = 10.0
        for _ in range(400):
            x.zero_grad()
            x.grad += 2.0 * (x.data - 3.0)
            opt.step(0.1)
        np.testing.assert_allclose(x.data, 3.0, atol=1e-3)

    def test_mixed_zero_and_live_gradients(self):
        from moe_asr.nn import Arena, Parameter, zeros_init

        live = Parameter((2,), zeros_init())
        dead = Parameter((2,), zeros_init())
        opt = Adam(Arena({"live": live, "dead": dead}))
        dead.data[...] = 7.0
        for _ in range(20):
            live.zero_grad()
            dead.zero_grad()
            live.grad += 1.0
            opt.step(1e-2)
        assert (dead.data == 7.0).all()
        assert (live.data != 0.0).all()

    @staticmethod
    def _clipped_steps_match_textbook(params, arena, opt, seed):
        """Six steps on random gradients of norms near 10, 0.1, 100, 1, 0.01
        and 10, so clipped at some and not at others, each bit-identical to
        the per-array reference."""
        rng = np.random.default_rng(seed)
        arena.data[...] = rng.normal(size=arena.data.size)
        ref = TextbookAdam({n: p.data for n, p in params.items()})
        spans, clipped = arena_spans(arena), 0
        for t, power in enumerate([1, -1, 2, 0, -2, 1], start=1):
            scale = 10.0**power / math.sqrt(arena.grad.size)
            arena.grad[...] = rng.normal(size=arena.grad.size) * scale
            norm, grads = textbook_clip({n: p.grad.copy() for n, p in params.items()}, GRAD_CLIP)
            assert clip_gradients(arena, GRAD_CLIP) == norm
            clipped += norm > GRAD_CLIP
            opt.step(1e-3 * t)
            ref.step(grads, 1e-3 * t)
            assert_flat_matches_textbook(arena, opt, ref, spans)
        assert 0 < clipped < 6

    def test_chunk_boundary_inside_a_parameter(self):
        """A parameter larger than one chunk, in an arena whose size is not
        a multiple of the chunk, steps bit-identically to the per-array
        reference, clipped or not."""
        from moe_asr.nn import CHUNK, Arena, Parameter, zeros_init

        shapes = {"a": (7,), "big": (200, 200), "c": (13, 5), "d": (3,)}
        params = {name: Parameter(shape, zeros_init()) for name, shape in shapes.items()}
        arena = Arena(params)
        assert params["big"].grad.size > CHUNK and arena.data.size % CHUNK != 0
        self._clipped_steps_match_textbook(params, arena, Adam(arena), 31)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_spans_match_textbook_bits(self, parts, monkeypatch):
        """The update cut into 1, 2 or 3 spans, on an arena several minimum
        spans long whose size is not a multiple of the chunk, steps
        bit-identically to the per-array reference, clipped or not. The
        spans cover the arena once, in order, each from a chunk boundary.
        Threads switch every microsecond meanwhile, so a span that wrote
        another's elements or shared a scratch would show; on two cores
        three spans are more than the workers."""
        from moe_asr import nn
        from moe_asr.nn import CHUNK, SPAN_CHUNKS, Arena, Parameter, zeros_init

        split = nn._spans
        monkeypatch.setattr(nn, "_spans", lambda size, _: split(size, parts))
        shapes = {"a": (7,), "big": (640, 700), "c": (13, 5), "d": (3,)}
        params = {name: Parameter(shape, zeros_init()) for name, shape in shapes.items()}
        arena = Arena(params)
        size = arena.data.size
        assert size > 3 * SPAN_CHUNKS * CHUNK and size % CHUNK != 0
        opt = Adam(arena)
        assert len(arena.spans) == parts
        bounds = [start for start, _ in arena.spans] + [arena.spans[-1][1]]
        assert arena.spans == list(zip(bounds[:-1], bounds[1:]))
        assert bounds[0] == 0 and bounds[-1] == size and bounds == sorted(set(bounds))
        assert all(start % CHUNK == 0 for start in bounds[:-1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._clipped_steps_match_textbook(params, arena, opt, 40 + parts)
        finally:
            sys.setswitchinterval(interval)

    def test_a_short_arena_is_one_span(self):
        """Fewer than two minimum spans' worth of chunks stay one span,
        whatever the core count; more go to at most one span per core."""
        from moe_asr.nn import CHUNK, SPAN_CHUNKS, _spans

        short = 2 * SPAN_CHUNKS * CHUNK - 1
        assert _spans(short, 8) == [(0, short)]
        assert _spans(10, 8) == [(0, 10)]
        assert len(_spans(short + 1, 8)) == 2
        assert len(_spans(40 * CHUNK, 3)) == 3


def span_module(size):
    """A module whose arena is one parameter of `size` elements."""
    from moe_asr.nn import Module, Parameter, zeros_init

    class Holder(Module):
        def __init__(self):
            super().__init__()
            self.w = Parameter((size,), zeros_init())

    return Holder().allocate()


class TestArenaSpans:
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_fill_and_scale_keep_serial_bytes(self, parts, monkeypatch):
        """With 1, 2 or 3 spans forced, the clip's scale leaves the bytes of
        a serial ``grad * factor`` (signed zeros included), and
        ``zero_grad`` leaves every byte of +0.0. Threads switch every
        microsecond meanwhile, so a span that missed or overlapped its
        neighbours would show."""
        from moe_asr import nn

        split = nn._spans
        monkeypatch.setattr(nn, "_spans", lambda size, _: split(size, parts))
        module = span_module(3 * nn.SPAN_CHUNKS * nn.CHUNK + 12345)
        arena = module.arena
        assert len(arena.spans) == parts
        # every fifth entry a signed zero, -0.0 and +0.0 in turn: a pass that
        # kept a -0.0 where it should write +0.0, or the reverse, shows
        sentinel = np.random.default_rng(parts).normal(size=arena.grad.size)
        sentinel[::10], sentinel[5::10] = -0.0, 0.0
        arena.grad[...] = sentinel
        norm = global_grad_norm(arena)
        assert norm > 1.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert clip_gradients(arena, 1.0) == norm
            assert arena.grad.tobytes() == (sentinel * (1.0 / norm)).tobytes()
            module.zero_grad()
        finally:
            sys.setswitchinterval(interval)
        assert arena.grad.tobytes() == bytes(8 * arena.grad.size)

    def test_a_worker_error_is_raised_after_every_span(self, monkeypatch):
        """An error in a span run by a worker reaches the caller, and only
        once the caller's own span is done."""
        from moe_asr import nn

        if nn._usable_cores() < 2:
            pytest.skip("one usable core: every span runs on the calling thread")
        split = nn._spans
        monkeypatch.setattr(nn, "_spans", lambda size, _: split(size, 3))
        arena = span_module(3 * nn.SPAN_CHUNKS * nn.CHUNK).arena
        done = []

        def fn(i, span):
            if i == 0:
                raise ArithmeticError("span 0")
            done.append(i)

        with pytest.raises(ArithmeticError, match="span 0"):
            arena.each_span(fn)
        assert sorted(done) == [1, 2]


class TestAdamThreads:
    def test_worker_threads_stay_within_the_usable_cores(self, tmp_path, monkeypatch):
        """Twenty optimizers stepping on an arena that splits, then two joint
        training runs of a 16-expert desk-width model, never leave more than
        one thread per usable core through ``zero_grad``, the clip or the
        step: the workers are one pool for the process, not one per
        optimizer or per pass."""
        from moe_asr import nn, training
        from moe_asr.nn import CHUNK, SPAN_CHUNKS, Module, _usable_cores

        bound = 1 + (_usable_cores() - 1)
        counts = {"zero_grad": [], "clip": [], "step": []}

        def counted(kind, fn):
            def wrapper(*args):
                out = fn(*args)
                counts[kind].append(threading.active_count())
                return out
            return wrapper

        monkeypatch.setattr(Module, "zero_grad", counted("zero_grad", Module.zero_grad))
        monkeypatch.setattr(training, "clip_gradients",
                            counted("clip", training.clip_gradients))
        monkeypatch.setattr(Adam, "step", counted("step", Adam.step))
        module = span_module(2 * SPAN_CHUNKS * CHUNK + 5)
        arena = module.arena
        optimizers = [Adam(arena) for _ in range(20)]
        for opt in optimizers:
            module.zero_grad()
            arena.grad[...] = 1.0
            assert training.clip_gradients(arena, 1.0) > 1.0
            opt.step(1e-3)
        data = tmp_path / "data"
        generate_corpus(data, 12, 4, 0, feat_dim=8)
        cfg = ModelConfig.desk_scale(5, feat_dim=8, num_experts=16)
        tc = TrainConfig(max_steps=2, eval_every=2, seed=1)
        for run in ("a", "b"):
            model = SpeechModel(cfg).initialize(tc.seed)
            assert len(nn._spans(model.arena.data.size, 2)) == 2
            run_joint_training(model, load_normalized_split(data, "train"),
                               load_normalized_split(data, "dev"), tc, tmp_path / run)
        assert {kind: len(c) for kind, c in counts.items()} == dict.fromkeys(counts, 24)
        assert max(max(c) for c in counts.values()) <= bound, counts

    def test_one_core_steps_inline(self, monkeypatch):
        """On one usable core the arena is one span and no pool is made;
        spans forced on it all run on the calling thread, through
        ``zero_grad``, the clip and the step, with the same bits."""
        from moe_asr import nn

        monkeypatch.setattr(nn, "_usable_cores", lambda: 1)
        monkeypatch.setattr(nn, "_pool", None)
        size = 20 * nn.CHUNK + 3
        modules = [span_module(size)]
        assert len(modules[0].arena.spans) == 1
        split = nn._spans
        monkeypatch.setattr(nn, "_spans", lambda size, _: split(size, 3))
        modules.append(span_module(size))
        assert len(modules[1].arena.spans) == 3
        optimizers = [Adam(m.arena) for m in modules]
        grad = np.random.default_rng(8).normal(size=size)
        for module, opt in zip(modules, optimizers):
            module.zero_grad()
            module.arena.grad[...] = grad
            clip_gradients(module.arena, 1.0)
            opt.step(1e-3)
        arenas = [m.arena for m in modules]
        assert arenas[1].data.tobytes() == arenas[0].data.tobytes()
        assert nn._workers() is None and nn._pool is None

    def test_a_decode_process_makes_no_pool(self):
        """A fresh process that builds a 16-expert desk-width model, whose
        arena splits, and decodes one utterance imports no
        ``concurrent.futures`` and starts no thread."""
        code = (
            "import sys, threading, numpy as np\n"
            "from moe_asr.config import ModelConfig\n"
            "from moe_asr.inference import decode_nbest\n"
            "from moe_asr.model import SpeechModel\n"
            "from moe_asr.nn import _spans\n"
            "from moe_asr.tensor import Tensor\n"
            "model = SpeechModel(ModelConfig.desk_scale(5, feat_dim=8, num_experts=16))\n"
            "model.initialize(0)\n"
            "assert len(_spans(model.arena.data.size, 2)) == 2\n"
            "feats = Tensor(np.random.default_rng(0).normal(size=(60, 8)))\n"
            "assert decode_nbest(model, feats, 4, 4, 0.5)\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["False", "1"]

    @pytest.fixture
    def fresh_pool(self, monkeypatch):
        """A pool of the process's own made for the test alone, shut down
        after it; the process's pool is put back."""
        from moe_asr import nn

        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity calls on this platform")
        if nn._usable_cores() < 2:
            pytest.skip("one usable core: every span runs on the calling thread")
        monkeypatch.setattr(nn, "_pool", None)
        yield
        if nn._pool is not None:
            nn._pool.shutdown()

    def test_each_span_runs_on_a_core_of_its_own(self, fresh_pool, monkeypatch):
        """With one span per usable core, run all at once (a barrier), each
        span sees one core as its mask, and no two spans share one: the
        calling thread's span the first usable core, the workers' the
        others. The pinned workers keep their core for a second pass."""
        from moe_asr import nn

        cores = sorted(os.sched_getaffinity(0))
        split = nn._spans
        monkeypatch.setattr(nn, "_spans", lambda size, _: split(size, len(cores)))
        arena = span_module(len(cores) * nn.SPAN_CHUNKS * nn.CHUNK).arena
        assert len(arena.spans) == len(cores)
        for _ in range(2):
            barrier = threading.Barrier(len(cores), timeout=30)
            seen = {}

            def fn(i, span):
                barrier.wait()
                seen[i] = (threading.get_ident(), os.sched_getaffinity(0))

            arena.each_span(fn)
            assert len({ident for ident, _ in seen.values()}) == len(cores)
            assert seen[len(cores) - 1][1] == {cores[0]}
            assert sorted(core for _, (core,) in seen.values()) == cores
        assert os.sched_getaffinity(0) == set(cores)

    @pytest.mark.parametrize("raiser", [None, 0, 1])
    @pytest.mark.parametrize("narrowed", [False, True])
    def test_the_calling_threads_mask_comes_back(self, fresh_pool, monkeypatch, raiser,
                                                   narrowed):
        """After a pass the calling thread has the mask it had before: its
        whole mask, or one narrowed to the last usable core, also when the
        worker's span (0) or its own (1) raises."""
        from moe_asr import nn

        cores = sorted(os.sched_getaffinity(0))
        split = nn._spans
        monkeypatch.setattr(nn, "_spans", lambda size, _: split(size, 2))
        arena = span_module(2 * nn.SPAN_CHUNKS * nn.CHUNK).arena
        arena.each_span(lambda i, span: None)  # the pool starts on the whole mask
        mask = {cores[-1]} if narrowed else set(cores)
        seen = {}

        def fn(i, span):
            seen[i] = os.sched_getaffinity(0)
            if i == raiser:
                raise ArithmeticError(f"span {i}")

        os.sched_setaffinity(0, mask)
        try:
            if raiser is None:
                arena.each_span(fn)
            else:
                with pytest.raises(ArithmeticError, match=f"span {raiser}"):
                    arena.each_span(fn)
            after = os.sched_getaffinity(0)
        finally:
            os.sched_setaffinity(0, cores)
        assert after == mask
        assert seen == {0: {cores[1]}, 1: {min(mask)}}

    def test_no_affinity_calls_split_without_pinning(self, fresh_pool, monkeypatch):
        """On a platform without affinity calls two spans still run on the
        calling thread and an unpinned worker, with the bits of one span."""
        from moe_asr import nn

        split = nn._spans
        size = 2 * nn.SPAN_CHUNKS * nn.CHUNK + 7
        grad = np.random.default_rng(9).normal(size=size)

        def trained(parts):
            monkeypatch.setattr(nn, "_spans", lambda size, _: split(size, parts))
            module = span_module(size)
            module.zero_grad()
            module.arena.grad[...] = grad
            clip_gradients(module.arena, 1.0)
            Adam(module.arena).step(1e-3)
            return module.arena.data.tobytes()

        serial = trained(1)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.delattr(os, "sched_setaffinity")
        assert trained(2) == serial
        assert nn._pool is not None


class TestClipping:
    def test_small_gradients_untouched(self):
        from moe_asr.nn import Arena, Parameter, zeros_init

        p = Parameter((4,), zeros_init())
        arena = Arena({"p": p})
        p.grad[...] = 0.5
        norm = clip_gradients(arena, 5.0)
        assert norm == pytest.approx(1.0)
        assert (p.grad == 0.5).all()

    def test_large_gradients_scaled_to_threshold(self):
        from moe_asr.nn import Arena, Parameter, zeros_init

        p = Parameter((100,), zeros_init())
        arena = Arena({"p": p})
        p.grad[...] = 3.0
        before = p.grad.copy()
        norm = clip_gradients(arena, 5.0)
        assert norm == pytest.approx(30.0)
        after_norm = math.sqrt(float(np.sum(p.grad**2)))
        assert after_norm == pytest.approx(5.0)
        ratio = p.grad / before
        np.testing.assert_allclose(ratio, ratio.flat[0])

    @pytest.mark.parametrize("seed", range(20))
    def test_norm_exact_on_heavy_tailed_gradients(self, seed):
        """The global norm has the bits of the block reference over the
        per-parameter arrays in parameter order (``block_norm``), on
        Cauchy-distributed gradients where a different summation order
        shows."""
        from moe_asr.nn import Arena, Parameter, zeros_init

        shapes = [(37,), (64, 96), (5,), (120, 33), (1,), (9, 9)]
        params = {f"p{i}": Parameter(shape, zeros_init()) for i, shape in enumerate(shapes)}
        arena = Arena(params)
        assert arena.grad.size > NORM_BLOCK
        arena.grad[...] = np.random.default_rng(seed).standard_cauchy(arena.grad.size)
        assert global_grad_norm(arena) == block_norm([p.grad for p in params.values()])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("draw", ["normal", "standard_cauchy"])
    def test_norm_within_1e_15_of_the_exact_sum(self, draw, seed):
        """On a gradient of the 16-expert desk arena's size, the norm lies
        within 1e-15, relative, of the root of the exactly rounded sum of
        all the squares."""
        from moe_asr.nn import Arena, Parameter, zeros_init

        arena = Arena({"w": Parameter((1_699_961,), zeros_init())})
        arena.grad[...] = getattr(np.random.default_rng(seed), draw)(size=arena.grad.size)
        exact = math.sqrt(math.fsum(np.square(arena.grad)))
        assert abs(global_grad_norm(arena) - exact) <= 1e-15 * exact

    def test_block_sums_that_overflow_only_when_added_give_inf(self):
        """Two blocks whose sums of squares are finite but pass the float
        range together: the norm is inf, as for an infinite gradient, and
        the clip scales nothing."""
        from moe_asr.nn import Arena, Parameter, zeros_init

        arena = Arena({"w": Parameter((3 * NORM_BLOCK,), zeros_init())})
        arena.grad[[0, 1, NORM_BLOCK]] = 0.9e154, 0.2e154, 1.2e154
        before = arena.grad.tobytes()
        sums = [float(np.dot(b, b)) for b in np.split(arena.grad, 3)]
        assert all(math.isfinite(x) for x in sums)
        with pytest.raises(OverflowError):
            math.fsum(sums)
        assert global_grad_norm(arena) == math.inf
        assert clip_gradients(arena, GRAD_CLIP) == math.inf
        assert arena.grad.tobytes() == before

    def test_norm_bits_do_not_depend_on_blas_threads(self):
        """The norms of six desk-sized gradients, computed in two processes
        with one and with two BLAS threads, have the same bits. (A dot
        product over more than 10,000 elements splits across OpenBLAS's
        threads, and the split changes its bits.)"""
        from moe_asr.nn import _usable_cores

        if _usable_cores() < 2:
            pytest.skip("one usable core")
        code = (
            "import numpy as np\n"
            "from moe_asr.nn import Arena, Parameter, zeros_init\n"
            "from moe_asr.training import global_grad_norm\n"
            "arena = Arena({'w': Parameter((1_699_961,), zeros_init())})\n"
            "for seed in range(6):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    draw = rng.standard_cauchy if seed % 2 else rng.normal\n"
            "    arena.grad[...] = draw(size=arena.grad.size)\n"
            "    print(global_grad_norm(arena).hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       OPENBLAS_NUM_THREADS=threads)
            outputs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                          capture_output=True, text=True, check=True,
                                          timeout=120).stdout)
        assert len(outputs[0].split()) == 6
        assert outputs[0] == outputs[1]


class TestFlatOptimizerOnModel:
    def test_steps_match_per_array_reference(self):
        """On a seeded routed model, several clipped Adam steps on the flat
        buffers give bit-identical parameters, moments and norms to the
        per-array reference. The tiny model's norms sit near 2.5, so that
        threshold clips some steps and not others."""
        max_norm = 2.5
        model = SpeechModel(tiny_cfg(num_experts=2)).initialize(6)
        params = model.named_parameters()
        opt = Adam(model.arena)
        ref = TextbookAdam({n: p.data for n, p in params.items()})
        spans, norms = arena_spans(model.arena), []
        model.train()
        for step in range(1, 6):
            model.zero_grad()
            total, _, _ = batch_losses(model, tiny_batch(seed=step), TrainConfig(seed=0))
            total.backward()
            norm, grads = textbook_clip({n: p.grad.copy() for n, p in params.items()}, max_norm)
            assert clip_gradients(model.arena, max_norm) == norm
            for name, p in params.items():
                np.testing.assert_array_equal(p.grad, grads[name], err_msg=name)
            lr = learning_rate(step, 1e-2, 2)
            opt.step(lr)
            ref.step(grads, lr)
            assert_flat_matches_textbook(model.arena, opt, ref, spans)
            norms.append(norm)
        assert min(norms) < max_norm < max(norms), norms


class TestArena:
    def _corpus(self, tmp_path):
        data = tmp_path / "data"
        generate_corpus(data, 20, 4, 5, feat_dim=6)
        return data

    def test_initialize_binds_every_parameter(self):
        assert_in_arena(SpeechModel(tiny_cfg(num_experts=2)).initialize(0))

    def test_load_model_binds_every_parameter(self, tmp_path):
        model = SpeechModel(tiny_cfg(num_experts=2)).initialize(1)
        save_model(tmp_path / "m.ckpt", model)
        loaded = load_model(tmp_path / "m.ckpt")
        assert_in_arena(loaded)
        assert loaded.arena.data.tobytes() == model.arena.data.tobytes()

    def test_pretrained_embedding_copies_into_the_views(self, tmp_path):
        cfg = tiny_cfg(num_experts=2)
        save_embedding(tmp_path / "e.ckpt", EmbeddingNetwork(cfg).initialize(2), cfg)
        model = SpeechModel(cfg).initialize(3)
        views = {n: (p.data, p.grad) for n, p in model.named_parameters().items()}
        load_pretrained_embedding(model, tmp_path / "e.ckpt")
        assert_in_arena(model)
        for name, p in model.named_parameters().items():
            assert p.data is views[name][0] and p.grad is views[name][1], name

    def test_uninitialized_model_cannot_take_an_embedding(self, tmp_path):
        cfg = tiny_cfg(num_experts=2)
        save_embedding(tmp_path / "e.ckpt", EmbeddingNetwork(cfg).initialize(2), cfg)
        with pytest.raises(ValueError, match="no parameter storage"):
            load_pretrained_embedding(SpeechModel(cfg), tmp_path / "e.ckpt")

    def test_training_steps_keep_the_views(self, tmp_path, monkeypatch):
        """Two full loop steps, each clipped, update the arena in place."""
        from moe_asr import training

        monkeypatch.setattr(training, "GRAD_CLIP", 1e-3)
        data = self._corpus(tmp_path)
        model = SpeechModel(tiny_cfg(num_experts=2)).initialize(4)
        arena = model.arena
        views = {n: (p.data, p.grad) for n, p in model.named_parameters().items()}
        before = arena.data.copy()
        tc = TrainConfig(max_steps=2, eval_every=10, warmup_steps=5, seed=4)
        run_joint_training(model, load_normalized_split(data, "train"),
                           load_normalized_split(data, "dev"), tc, tmp_path / "run")
        lines = [json.loads(l) for l in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        assert len(lines) == 2 and all(l["grad_norm"] > 1e-3 for l in lines)
        assert model.arena is arena
        assert_in_arena(model)
        for name, p in model.named_parameters().items():
            assert p.data is views[name][0] and p.grad is views[name][1], name
        assert (arena.data != before).any()

    def test_uninitialized_paper_scale_model_allocates_nothing(self):
        model = SpeechModel(ModelConfig.paper_scale(64))
        assert model.arena is None
        for p in model.named_parameters().values():
            assert not hasattr(p, "data") and not hasattr(p, "grad")

    def test_layout_is_the_arena_and_a_subtree_span_its_own(self):
        """The whole tree's layout tiles ``data``; the ``embedding_net.``
        span, prefix stripped and offsets relative, is the layout a
        standalone embedding network gets, over a view of the model's data."""
        cfg = tiny_cfg(num_experts=2)
        model = SpeechModel(cfg).initialize(0)
        layout, data = model.arena.layout()
        assert data.base is model.arena.data and data.size == model.arena.data.size
        assert [n for n, _, _ in layout] == list(model.named_parameters())
        end = 0
        for name, shape, at in layout:
            assert at == end and model.arena.offsets[name] == at, name
            assert np.shares_memory(model.named_parameters()[name].data, data[at:])
            end += math.prod(shape)
        assert end == data.size

        span_layout, span = model.arena.layout("embedding_net.")
        net = EmbeddingNetwork(cfg).allocate()
        assert span_layout == net.arena.layout()[0]
        first = model.arena.offsets["embedding_net." + span_layout[0][0]]
        span[...] = 7.0
        assert (model.arena.data[first : first + span.size] == 7.0).all()
        assert (model.arena.data[:first] != 7.0).any()

    def test_split_prefix_has_no_layout(self):
        model = SpeechModel(tiny_cfg(num_blocks=11)).allocate()
        with pytest.raises(ValueError, match="do not form one span"):
            model.arena.layout("encoder.blocks.1")  # blocks 1 and 10, not 2 to 9

    def test_parameter_joins_one_arena_only(self):
        from moe_asr.nn import Arena, Parameter, zeros_init

        p = Parameter((2,), zeros_init())
        Arena({"p": p})
        with pytest.raises(ValueError, match="without storage"):
            Arena({"p": p})


class TestObjectiveAssembly:
    def test_eta_one_is_pure_ctc(self):
        assert float(joint_loss(Tensor(10.0), [Tensor(2.0)], 1.0).data) == 10.0

    def test_eta_zero_is_pure_aed(self):
        got = joint_loss(Tensor(10.0), [Tensor(2.0), Tensor(3.0)], 0.0)
        assert float(got.data) == pytest.approx(5.0, abs=1e-12)

    def test_interpolation_hand_value(self):
        got = joint_loss(10.0, [2.0, 2.0, 2.0], 0.3)
        assert float(got.data) == pytest.approx(7.2, abs=1e-12)

    def test_total_is_plain_sum(self):
        assert float(total_loss(0.0, Tensor(4.5)).data) == 4.5
        assert float(total_loss(0.0, 0.0).data) == 0.0
        assert float(total_loss(1.25, 2.5).data) == pytest.approx(3.75, abs=1e-15)


class TestSelectFinal:
    def test_argmin_by_eval_loss(self):
        records = [
            CheckpointRecord(1, 100, 3.1, "a"),
            CheckpointRecord(2, 200, 2.7, "b"),
            CheckpointRecord(3, 300, 2.9, "c"),
        ]
        assert select_final(records).path == "b"

    def test_single_record(self):
        only = CheckpointRecord(1, 10, 5.0, "x")
        assert select_final([only]) is only

    def test_tie_goes_to_earliest_epoch(self):
        records = [
            CheckpointRecord(4, 400, 2.0, "later"),
            CheckpointRecord(2, 200, 2.0, "earlier"),
        ]
        assert select_final(records).path == "earlier"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_final([])


class TestBatchLosses:
    def test_dense_model_components(self):
        model = SpeechModel(tiny_cfg()).initialize(0)
        tc = TrainConfig(seed=0)
        total, metrics, routing = batch_losses(model, tiny_batch(), tc)
        assert routing is None
        assert metrics["sparsity"] is None
        assert metrics["importance"] is None
        assert metrics["embed_ctc"] is None
        expected = tc.eta * metrics["ctc"] + (1 - tc.eta) * metrics["aed_sum"]
        assert float(total.data) == pytest.approx(expected, abs=1e-12)

    def test_routed_model_assembly_cross_check(self):
        """The emitted total equals the hand-assembled combination of the
        independently reported components."""
        model = SpeechModel(tiny_cfg(num_experts=2)).initialize(0)
        tc = TrainConfig(seed=0)
        total, metrics, routing = batch_losses(model, tiny_batch(), tc)
        joint = tc.eta * metrics["ctc"] + (1 - tc.eta) * metrics["aed_sum"]
        moe = (tc.alpha * metrics["sparsity"] + tc.beta * metrics["importance"]
               + tc.gamma * metrics["embed_ctc"])
        assert float(total.data) == pytest.approx(joint + moe, abs=1e-12)
        assert [r["block"] for r in routing] == [2]

    def test_routing_utilization_covers_every_frame(self):
        model = SpeechModel(tiny_cfg(num_experts=3)).initialize(1)
        batch = tiny_batch(num=3)
        _, _, routing = batch_losses(model, batch, TrainConfig(seed=0))
        frames = sum(((seq.feats.shape[0] - 1) // 2 - 1) // 2 for seq in batch)
        for layer in routing:
            assert sum(layer["utilization"]) == frames

    def test_zero_weighted_routing_terms_skipped(self):
        model = SpeechModel(tiny_cfg(num_experts=2)).initialize(0)
        tc = TrainConfig(alpha=0.0, beta=0.0, gamma=0.0, seed=0)
        total, metrics, routing = batch_losses(model, tiny_batch(), tc)
        assert metrics["sparsity"] is None and metrics["importance"] is None
        assert metrics["embed_ctc"] is None
        assert routing is not None
        joint = tc.eta * metrics["ctc"] + (1 - tc.eta) * metrics["aed_sum"]
        assert float(total.data) == pytest.approx(joint, abs=1e-15)

    @pytest.mark.parametrize("num_levels", [1, 2, 3, 4])
    def test_every_level_count_runs_one_finite_step(self, num_levels):
        """num_levels - 1 taps, strictly increasing inside [1, num_blocks),
        one auxiliary decoder on each, and a finite step whose gradient
        reaches every auxiliary decoder."""
        cfg = tiny_cfg(num_blocks=4, num_levels=num_levels, num_experts=2)
        taps = cfg.tap_blocks()
        assert len(taps) == num_levels - 1
        assert taps == sorted(set(taps)) and all(1 <= tap < cfg.num_blocks for tap in taps)
        model = SpeechModel(cfg).initialize(0)
        assert len(model.aux_decoders) == len(taps)
        total, metrics, _ = batch_losses(model, tiny_batch(), TrainConfig(seed=0))
        assert all(math.isfinite(v) for v in metrics.values())
        total.backward()
        for decoder in model.aux_decoders:
            assert np.any(decoder.out.weight.grad != 0.0)


def desk_batch():
    """The seeded 4-utterance desk batch of tests/test_packing.py."""
    rng = np.random.default_rng(3)
    return [
        FeatureSequence(f"u{i}", rng.normal(size=(n, 80)), [1, 4, 2, 7, 3])
        for i, n in enumerate((92, 114, 105, 60))
    ]


def desk_model(num_experts):
    return SpeechModel(ModelConfig.desk_scale(11, num_experts=num_experts)).initialize(3).train()


def retaining_backward(loss):
    """The engine as it was before backward consumed the graph: the same
    order and flows, but every node keeps its parents and closure until
    the loss dies. The reference the consuming engine must match bit for
    bit."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    flows = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flows.pop(id(node), None)
        if g is None:
            continue
        if node.grad is not None:
            node.grad += g
        if node._backward is None:
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            acc = flows.get(id(p))
            flows[id(p)] = pg if acc is None else acc + pg


class TestGraphLifetime:
    """Backward consumes the graph it runs over: nothing of a step's graph
    outlives the call, so a training step holds one graph at a time."""

    def test_every_closure_is_dead_when_backward_returns(self, monkeypatch):
        closures = []
        node = T._node

        def recorded(data, parents, backward, op):
            out = node(data, parents, backward, op)
            if out._backward is not None:
                closures.append(weakref.ref(backward))
            return out

        monkeypatch.setattr(T, "_node", recorded)
        model = desk_model(16)
        total, _, _ = batch_losses(model, desk_batch(), TrainConfig(seed=3))
        assert closures and all(ref() is not None for ref in closures)
        total.backward()
        assert [ref() for ref in closures] == [None] * len(closures)
        assert total._parents == ()
        assert np.any(model.arena.grad != 0.0)

    def test_a_trained_model_is_freed_without_the_cycle_collector(self):
        """The level and expert stacks a model caches are views of its arena
        and form no reference cycle, so dropping the model after a step
        frees both arena buffers at once. A cycle through the main decoder
        would keep them until the collector ran."""
        gc.disable()
        try:
            model = desk_model(16)
            total, _, _ = batch_losses(model, desk_batch()[:1], TrainConfig(seed=3))
            total.backward()
            buffers = [weakref.ref(model.arena.data), weakref.ref(model.arena.grad)]
            del model, total
            assert [ref() for ref in buffers] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "single"])
    @pytest.mark.parametrize("num_experts", [16, 0])
    def test_gradients_match_the_retaining_engine_bit_for_bit(self, num_experts, packed):
        batch = desk_batch() if packed else desk_batch()[:1]
        results = []
        for engine in (Tensor.backward, retaining_backward):
            model = desk_model(num_experts)
            total, _, _ = batch_losses(model, batch, TrainConfig(seed=3))
            engine(total)
            results.append((total.data.tobytes(), model.arena.grad.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("num_experts, bound_mb", [(16, 17.7), (0, 12.6)])
    def test_graph_bytes_after_the_forward_stay_bounded(self, num_experts, bound_mb):
        """The traced bytes the seeded desk batch's graph holds once the
        forward returns. A fused node keeps what backward cannot rebuild
        elementwise: layernorm statistics, not their normalized rows or
        affine outputs; bool dropout masks and their scales, not float
        masks; the hidden rows and sigmoids, not the swish outputs; no
        padded convolution copies. That is 17.3 MB at 16 experts and 12.3
        MB at 0; keeping those arrays makes it 28.6 and 20.1 MB."""
        model, batch = desk_model(num_experts), desk_batch()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            total, _, _ = batch_losses(model, batch, TrainConfig(seed=3))
            graph = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert total._backward is not None
        assert graph < bound_mb * 1e6, graph

    def test_a_step_holds_one_graph(self):
        """Three training steps on the tiny routed model: the third step's
        traced peak stays within a quarter graph of the first's. If a
        step's loss kept its graph until the next forward returned, two
        graphs would be alive at once from step 2 on."""
        model = SpeechModel(tiny_cfg(num_experts=2)).initialize(0).train()
        opt = Adam(model.arena)
        tc = TrainConfig(seed=0)
        peaks = []
        tracemalloc.start()
        try:
            for step in range(1, 4):
                tracemalloc.reset_peak()
                model.zero_grad()
                before = tracemalloc.get_traced_memory()[0]
                total, _, _ = batch_losses(model, tiny_batch(seed=step), tc)
                if step == 1:
                    graph = tracemalloc.get_traced_memory()[0] - before
                total.backward()
                clip_gradients(model.arena, GRAD_CLIP)
                opt.step(learning_rate(step, PEAK_LR, tc.warmup_steps))
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert graph > 0
        assert peaks[2] - peaks[0] <= graph / 4, (peaks, graph)


class TestParameterMovement:
    def _one_step(self, model, tc, lr=1e-3):
        model.train()
        model.zero_grad()
        total, _, _ = batch_losses(model, tiny_batch(), tc)
        total.backward()
        clip_gradients(model.arena, GRAD_CLIP)
        Adam(model.arena).step(lr)

    def test_lr_zero_leaves_parameters_unchanged(self):
        model = SpeechModel(tiny_cfg(num_experts=2)).initialize(3)
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        self._one_step(model, TrainConfig(seed=0), lr=0.0)
        for name, p in model.named_parameters().items():
            assert (p.data == before[name]).all(), name

    def test_embedding_keeps_training_under_gamma(self):
        """gamma > 0 drives the embedding stack through its own CTC head."""
        model = SpeechModel(tiny_cfg(num_experts=2)).initialize(3)
        before = {n: p.data.copy()
                  for n, p in model.embedding_net.named_parameters().items()}
        self._one_step(model, TrainConfig(gamma=0.01, seed=0))
        moved = sum(
            float(np.abs(p.data - before[n]).max()) > 0
            for n, p in model.embedding_net.named_parameters().items()
        )
        assert moved > 0

    def test_single_expert_embedding_frozen_without_aux_losses(self):
        """With one expert and zero-weighted routing losses the gate is the
        constant 1, so nothing reaches the embedding stack or router."""
        model = SpeechModel(tiny_cfg(num_experts=1)).initialize(3)
        frozen = {
            n: p.data.copy() for n, p in model.named_parameters().items()
            if n.startswith("embedding_net.") or ".router." in n
        }
        self._one_step(model, TrainConfig(alpha=0.0, beta=0.0, gamma=0.0, seed=0))
        for name, p in model.named_parameters().items():
            if name in frozen:
                assert (p.data == frozen[name]).all(), name


class TestLoops:
    def _corpus(self, tmp_path, num=20, vocab=4, feat_dim=10, seed=5):
        data = tmp_path / "data"
        generate_corpus(data, num, vocab, seed, feat_dim=feat_dim)
        return data

    def _model_cfg(self, **overrides):
        base = dict(vocab_size=5, feat_dim=10, d_att=16, d_ff=24, heads=2,
                    kernel=3, num_blocks=3, decoder_blocks=1, dropout=0.1,
                    d_emb=8, embedding_blocks=1)
        base.update(overrides)
        return ModelConfig(**base)

    def test_joint_run_artifacts_and_determinism(self, tmp_path):
        data = self._corpus(tmp_path)
        train_seqs = load_normalized_split(data, "train")
        dev_seqs = load_normalized_split(data, "dev")
        cfg = self._model_cfg(num_experts=2)
        tc = TrainConfig(max_steps=20, eval_every=7, warmup_steps=50,
                         batch_size=4, seed=1)

        outputs = []
        for run in ("a", "b"):
            model = SpeechModel(cfg).initialize(tc.seed)
            out = tmp_path / run
            records, final = run_joint_training(model, train_seqs, dev_seqs, tc, out)
            assert [r.step for r in records] == [7, 14, 20]
            assert final.eval_ctc == min(r.eval_ctc for r in records)
            assert (out / "final.ckpt").exists()
            assert (out / "final.json").exists()
            outputs.append(
                ((out / "metrics.jsonl").read_text(), (out / "routing.jsonl").read_text())
            )
        assert outputs[0] == outputs[1]

    def test_every_step_trains_on_spec_augment_draws(self, tmp_path):
        """The first step's logged loss is ``batch_losses`` on each
        utterance's SpecAugment draw keyed by (seed, utt_id, epoch 0), not
        on the raw batch."""
        data = self._corpus(tmp_path)
        train_seqs = load_normalized_split(data, "train")
        cfg = self._model_cfg(num_experts=2)
        tc = TrainConfig(max_steps=1, eval_every=1, warmup_steps=50, batch_size=3, seed=6)
        out = tmp_path / "run"
        run_joint_training(SpeechModel(cfg).initialize(tc.seed), train_seqs,
                           load_normalized_split(data, "dev"), tc, out)
        logged = json.loads((out / "metrics.jsonl").read_text())["loss"]

        def first_step_loss(batch):
            model = SpeechModel(cfg).initialize(tc.seed).train()
            return batch_losses(model, batch, tc)[1]["loss"]

        raw = train_seqs[:3]
        drawn = [spec_augment(seq, utterance_rng(tc.seed, seq.utt_id, 0)) for seq in raw]
        assert first_step_loss(drawn) == logged
        assert first_step_loss(raw) != logged

    def test_metrics_lines_are_well_formed(self, tmp_path):
        data = self._corpus(tmp_path)
        cfg = self._model_cfg(num_experts=2)
        tc = TrainConfig(max_steps=5, eval_every=10, warmup_steps=50, seed=2)
        model = SpeechModel(cfg).initialize(tc.seed)
        run_joint_training(
            model, load_normalized_split(data, "train"),
            load_normalized_split(data, "dev"), tc, tmp_path / "run",
        )
        lines = [json.loads(l) for l in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        assert len(lines) == 5
        for i, line in enumerate(lines, start=1):
            assert line["step"] == i
            for key in ("loss", "ctc", "aed_sum", "sparsity", "importance",
                        "embed_ctc", "grad_norm", "lr", "entropy"):
                assert key in line
            assert set(line["entropy"]) == {"2"}
        routing = [json.loads(l) for l in (tmp_path / "run" / "routing.jsonl").read_text().splitlines()]
        assert [r["step"] for r in routing] == [1, 2, 3, 4, 5]
        assert all(set(l) >= {"block", "utilization", "sparsity", "importance"}
                   for r in routing for l in r["layers"])

    def test_dense_run_emits_null_routing_fields(self, tmp_path):
        data = self._corpus(tmp_path)
        tc = TrainConfig(max_steps=3, eval_every=10, warmup_steps=50, seed=3)
        model = SpeechModel(self._model_cfg()).initialize(tc.seed)
        out = tmp_path / "dense"
        run_joint_training(
            model, load_normalized_split(data, "train"),
            load_normalized_split(data, "dev"), tc, out,
        )
        lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert all(l["sparsity"] is None and l["entropy"] is None for l in lines)
        assert not (out / "routing.jsonl").exists()

    def test_pretraining_best_checkpoint_round_trip(self, tmp_path):
        """Reloading the saved best checkpoint reproduces its recorded dev
        loss bit-for-bit."""
        data = self._corpus(tmp_path)
        cfg = self._model_cfg(num_experts=2)
        tc = TrainConfig(max_steps=12, eval_every=4, warmup_steps=50,
                         batch_size=4, seed=4)
        from moe_asr.encoder import EmbeddingNetwork

        net = EmbeddingNetwork(cfg).initialize(tc.seed)
        dev_seqs = load_normalized_split(data, "dev")
        records, final = run_pretraining(
            net, load_normalized_split(data, "train"), dev_seqs, cfg, tc,
            tmp_path / "pre",
        )
        assert (tmp_path / "pre" / "embedding.ckpt").exists()
        model = SpeechModel(cfg).allocate()
        load_pretrained_embedding(model, tmp_path / "pre" / "embedding.ckpt")
        reloaded = model.embedding_net.eval()
        loss = evaluate_ctc(lambda f: reloaded.ctc_log_probs(reloaded.embed(f)), dev_seqs)
        assert loss == final.eval_ctc

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step_diagnostic(self, tmp_path):
        data = self._corpus(tmp_path)
        tc = TrainConfig(max_steps=5, eval_every=10, seed=0)
        model = SpeechModel(self._model_cfg()).initialize(tc.seed)
        model.named_parameters()["ctc_head.weight"].data[...] = np.inf
        with pytest.raises(RuntimeError, match="non-finite loss .* at step 1"):
            run_joint_training(
                model, load_normalized_split(data, "train"),
                load_normalized_split(data, "dev"), tc, tmp_path / "run",
            )

    def test_infinite_gradient_aborts_before_the_update(self, tmp_path, monkeypatch):
        """An inf in one gradient stops the run before clipping's zero
        factor and Adam can write NaN into the parameters, and before the
        step's metrics line (which would hold a non-JSON Infinity)."""
        data = self._corpus(tmp_path)
        tc = TrainConfig(max_steps=5, eval_every=10, seed=0)
        model = SpeechModel(self._model_cfg()).initialize(tc.seed)
        params = model.named_parameters()
        before = {n: p.data.copy() for n, p in params.items()}
        backward = Tensor.backward

        def poisoned(loss):
            backward(loss)
            params["ctc_head.bias"].grad[0] = np.inf

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(RuntimeError, match="non-finite gradient norm inf at step 1"):
            run_joint_training(
                model, load_normalized_split(data, "train"),
                load_normalized_split(data, "dev"), tc, tmp_path / "run",
            )
        for name, p in params.items():
            assert p.data.tobytes() == before[name].tobytes(), name
        assert (tmp_path / "run" / "metrics.jsonl").read_text() == ""

    def test_overflowing_block_sums_abort_like_an_infinite_gradient(self, tmp_path,
                                                                    monkeypatch):
        """Finite block sums of squares whose total passes the float range
        stop the run with the message and step an infinite gradient gives,
        before the update and before the step's metrics line."""
        data = self._corpus(tmp_path)
        tc = TrainConfig(max_steps=5, eval_every=10, seed=0)
        model = SpeechModel(self._model_cfg()).initialize(tc.seed)
        grad = model.arena.grad
        assert grad.size > NORM_BLOCK
        before = model.arena.data.tobytes()
        backward = Tensor.backward

        def poisoned(loss):
            backward(loss)
            grad[[0, NORM_BLOCK]] = 1.2e154

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(RuntimeError, match="non-finite gradient norm inf at step 1"):
            run_joint_training(
                model, load_normalized_split(data, "train"),
                load_normalized_split(data, "dev"), tc, tmp_path / "run",
            )
        assert model.arena.data.tobytes() == before
        assert (tmp_path / "run" / "metrics.jsonl").read_text() == ""

    def test_divergence_leaves_both_logs_closed_and_complete(self, tmp_path, monkeypatch):
        """A run that diverges at step 3 has flushed the two steps it
        logged to both metrics.jsonl and routing.jsonl."""
        data = self._corpus(tmp_path)
        tc = TrainConfig(max_steps=5, eval_every=10, seed=0)
        model = SpeechModel(self._model_cfg(num_experts=2)).initialize(tc.seed)
        backward, calls = Tensor.backward, []

        def poisoned(loss):
            backward(loss)
            calls.append(1)
            if len(calls) == 3:
                model.ctc_head.bias.grad[0] = np.inf

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(RuntimeError, match="non-finite gradient norm inf at step 3") as err:
            run_joint_training(
                model, load_normalized_split(data, "train"),
                load_normalized_split(data, "dev"), tc, tmp_path / "run",
            )
        # Read while the traceback, and with it the loop's frame, is alive.
        metrics = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        routing = (tmp_path / "run" / "routing.jsonl").read_text().splitlines()
        assert len(metrics) == len(routing) == 2 and err.value is not None

    def test_empty_eval_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_ctc(lambda f: f, [])

    def test_empty_dev_split_fails_before_the_first_step(self, tmp_path):
        """No dev utterances is an error before any step is trained or
        logged, not after eval_every steps."""
        data = self._corpus(tmp_path)
        tc = TrainConfig(max_steps=3, eval_every=2, warmup_steps=50, seed=0)
        model = SpeechModel(self._model_cfg()).initialize(tc.seed)
        with pytest.raises(ValueError, match="evaluation split is empty"):
            run_joint_training(model, load_normalized_split(data, "train"), [], tc,
                               tmp_path / "run")
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_empty_train_split_fails_before_the_first_step(self, tmp_path):
        """No training utterances is an error before anything is written."""
        data = self._corpus(tmp_path)
        tc = TrainConfig(max_steps=3, eval_every=2, warmup_steps=50, seed=0)
        model = SpeechModel(self._model_cfg()).initialize(tc.seed)
        with pytest.raises(ValueError, match="training split is empty"):
            run_joint_training(model, [], load_normalized_split(data, "dev"), tc,
                               tmp_path / "run")
        assert not (tmp_path / "run").exists()


class _Batcher:
    """A batch cursor, the schedule's oracle: it cycles the training list
    in manifest order, and each utterance's k-th visit falls in epoch k."""

    def __init__(self, seqs, batch_size):
        self.seqs, self.batch_size = seqs, batch_size
        self.cursor = self.epoch = 0

    def next_batch(self):
        batch = []
        for _ in range(self.batch_size):
            batch.append((self.seqs[self.cursor], self.epoch))
            self.cursor += 1
            if self.cursor == len(self.seqs):
                self.cursor, self.epoch = 0, self.epoch + 1
        return batch


class TestBatchSchedule:
    @pytest.mark.parametrize("n, batch_size", [(11, 5), (11, 11), (3, 4)])
    def test_batches_and_epochs_match_the_cursor(self, tmp_path, monkeypatch, n, batch_size):
        """The utterances each step augments, keyed by (utt_id, epoch), each
        metrics line's epoch and each checkpoint record's epoch equal the
        cursor oracle's, over a run that ``max_epochs`` stops."""
        data = tmp_path / "data"
        generate_corpus(data, 12, 4, 5, feat_dim=10)
        train_seqs = load_normalized_split(data, "train")[:n]
        assert len(train_seqs) == n
        cfg = tiny_cfg(feat_dim=10, num_experts=2)
        tc = TrainConfig(max_steps=50, max_epochs=2, eval_every=2, warmup_steps=50,
                         batch_size=batch_size, seed=7)
        keys, draw = [], training.utterance_rng

        def recording(seed, name, lane):
            keys.append((name, lane))
            return draw(seed, name, lane)

        monkeypatch.setattr(training, "utterance_rng", recording)
        out = tmp_path / "pre"
        records, _ = run_pretraining(EmbeddingNetwork(cfg).initialize(tc.seed), train_seqs,
                                     load_normalized_split(data, "dev"), cfg, tc, out)

        oracle, expected_keys, epochs = _Batcher(train_seqs, batch_size), [], []
        while len(epochs) < tc.max_steps and oracle.epoch < tc.max_epochs:
            expected_keys += [(seq.utt_id, epoch) for seq, epoch in oracle.next_batch()]
            epochs.append(oracle.epoch)
        steps = len(epochs)
        checkpoints = sorted({*range(tc.eval_every, steps + 1, tc.eval_every), steps})
        assert epochs[-1] == tc.max_epochs and steps < tc.max_steps  # the epochs stop it
        assert keys == expected_keys
        lines = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [(line["step"], line["epoch"]) for line in lines] == list(
            zip(range(1, steps + 1), epochs))
        assert [(r.step, r.epoch) for r in records] == [(s, epochs[s - 1]) for s in checkpoints]


class TestOverfitOneUtterance:
    def test_ctc_drops_below_5e_2_within_500_steps(self):
        """Memorizing a single utterance drives its CTC loss to near zero."""
        cfg = ModelConfig(vocab_size=5, feat_dim=6, d_att=16, d_ff=32, heads=2,
                          kernel=3, num_blocks=2, decoder_blocks=1,
                          dropout=0.1, num_levels=1)
        tc = TrainConfig(batch_size=1, warmup_steps=50, seed=0)
        rng = np.random.default_rng(7)
        seq = FeatureSequence("solo", rng.normal(size=(24, 6)), [0, 1, 2, 0])
        model = SpeechModel(cfg).initialize(0)
        opt = Adam(model.arena)
        ctc_value = None
        for step in range(1, 501):
            model.train()
            model.zero_grad()
            total, metrics, _ = batch_losses(model, [seq], tc)
            total.backward()
            clip_gradients(model.arena, GRAD_CLIP)
            opt.step(learning_rate(step, 3e-3, tc.warmup_steps))
            ctc_value = metrics["ctc"]
            if ctc_value < 0.05:
                break
        assert ctc_value < 0.05, f"CTC stuck at {ctc_value}"
