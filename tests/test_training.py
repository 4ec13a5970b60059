"""Optimizer, schedule, objective assembly, and the training loops."""

import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.checkpoint import load_model, load_pretrained_embedding, save_embedding, save_model
from moe_asr.config import ModelConfig, TrainConfig
from moe_asr.encoder import EmbeddingNetwork
from moe_asr.features import generate_corpus, load_normalized_split, FeatureSequence
from moe_asr.model import SpeechModel
from moe_asr.tensor import Tensor
from moe_asr.training import (
    GRAD_CLIP,
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


def textbook_clip(grads, max_norm):
    """Per-array reference clip: sums of squares added in parameter order."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
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
        b1, b2, eps = 0.9, 0.98, 1e-9
        opt = Adam(arena, b1, b2, eps)
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

    def test_chunk_boundary_inside_a_parameter(self):
        """A parameter larger than one chunk, in an arena whose size is not
        a multiple of the chunk, steps bit-identically to the per-array
        reference, clipped or not."""
        from moe_asr.nn import Arena, Parameter, zeros_init
        from moe_asr.training import ADAM_CHUNK

        shapes = {"a": (7,), "big": (200, 200), "c": (13, 5), "d": (3,)}
        params = {name: Parameter(shape, zeros_init()) for name, shape in shapes.items()}
        arena = Arena(params)
        assert params["big"].grad.size > ADAM_CHUNK and arena.data.size % ADAM_CHUNK != 0
        rng = np.random.default_rng(31)
        arena.data[...] = rng.normal(size=arena.data.size)
        opt = Adam(arena)
        ref = TextbookAdam({n: p.data for n, p in params.items()})
        spans, clipped = arena_spans(arena), 0
        for t in range(1, 7):
            arena.grad[...] = rng.normal(size=arena.grad.size) * 10.0 ** rng.integers(-3, 2)
            norm, grads = textbook_clip({n: p.grad.copy() for n, p in params.items()}, GRAD_CLIP)
            assert clip_gradients(arena, GRAD_CLIP) == norm
            clipped += norm > GRAD_CLIP
            opt.step(1e-3 * t)
            ref.step(grads, 1e-3 * t)
            assert_flat_matches_textbook(arena, opt, ref, spans)
        assert 0 < clipped < 6


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
        """The global norm has the bits of per-array sums of squares added
        in parameter order, on Cauchy-distributed gradients where a
        different summation order shows."""
        from moe_asr.nn import Arena, Parameter, zeros_init

        shapes = [(37,), (64, 96), (5,), (120, 33), (1,), (9, 9)]
        params = {f"p{i}": Parameter(shape, zeros_init()) for i, shape in enumerate(shapes)}
        arena = Arena(params)
        arena.grad[...] = np.random.default_rng(seed).standard_cauchy(arena.grad.size)
        want = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params.values()))
        assert global_grad_norm(arena) == want


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
                opt.step(learning_rate(step, tc.peak_lr, tc.warmup_steps))
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


class TestOverfitOneUtterance:
    def test_ctc_drops_below_5e_2_within_500_steps(self):
        """Memorizing a single utterance drives its CTC loss to near zero."""
        cfg = ModelConfig(vocab_size=5, feat_dim=6, d_att=16, d_ff=32, heads=2,
                          kernel=3, num_blocks=2, decoder_blocks=1,
                          dropout=0.1, num_levels=1)
        tc = TrainConfig(batch_size=1, warmup_steps=50, peak_lr=3e-3,
                         augment=False, seed=0)
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
            opt.step(learning_rate(step, tc.peak_lr, tc.warmup_steps))
            ctc_value = metrics["ctc"]
            if ctc_value < 0.05:
                break
        assert ctc_value < 0.05, f"CTC stuck at {ctc_value}"
