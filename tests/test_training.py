"""Optimizer, schedule, objective assembly, and the training loops."""

import json
import math

import numpy as np
import pytest

from moe_asr import tensor as T
from moe_asr.checkpoint import load_pretrained_embedding
from moe_asr.config import ModelConfig, TrainConfig
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


class TestAdam:
    def test_zero_gradient_means_zero_update(self):
        """A parameter with an exactly-zero gradient history must not move,
        however many steps pass."""
        from moe_asr.nn import Linear

        layer = Linear(4, 4)
        layer.initialize(0)
        before = layer.weight.data.copy()
        opt = Adam(layer.named_parameters())
        for _ in range(50):
            layer.zero_grad()
            opt.step(1e-2)
        assert (layer.weight.data == before).all()

    def test_in_place_step_matches_textbook_bits(self):
        """Over several steps the parameter equals the textbook update
        exactly, and a parameter whose gradient is always zero stays put."""
        from moe_asr.nn import Parameter, zeros_init

        rng = np.random.default_rng(12)
        live, dead = Parameter((3, 4), zeros_init()), Parameter((5,), zeros_init())
        live.data[...] = rng.normal(size=(3, 4))
        dead.data[...] = rng.normal(size=5)
        start = dead.data.copy()
        b1, b2, eps = 0.9, 0.98, 1e-9
        opt = Adam({"live": live, "dead": dead}, b1, b2, eps)
        p, m, v = live.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for t in range(1, 9):
            live.zero_grad()
            dead.zero_grad()
            g = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-6, 3)
            live.grad += g
            lr = 1e-3 * t
            opt.step(lr)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            np.testing.assert_array_equal(opt.m["live"], m)
            np.testing.assert_array_equal(opt.v["live"], v)
            np.testing.assert_array_equal(live.data, p)
        np.testing.assert_array_equal(dead.data, start)

    def test_minimizes_quadratic(self):
        from moe_asr.nn import Parameter, zeros_init

        x = Parameter((3,), zeros_init())
        x.data[...] = 10.0
        opt = Adam({"x": x})
        for _ in range(400):
            x.zero_grad()
            x.grad += 2.0 * (x.data - 3.0)
            opt.step(0.1)
        np.testing.assert_allclose(x.data, 3.0, atol=1e-3)

    def test_mixed_zero_and_live_gradients(self):
        from moe_asr.nn import Parameter, zeros_init

        live = Parameter((2,), zeros_init())
        dead = Parameter((2,), zeros_init())
        dead.data[...] = 7.0
        opt = Adam({"live": live, "dead": dead})
        for _ in range(20):
            live.zero_grad()
            dead.zero_grad()
            live.grad += 1.0
            opt.step(1e-2)
        assert (dead.data == 7.0).all()
        assert (live.data != 0.0).all()


class TestClipping:
    def test_small_gradients_untouched(self):
        from moe_asr.nn import Parameter, zeros_init

        p = Parameter((4,), zeros_init())
        p.grad[...] = 0.5
        norm = clip_gradients({"p": p}, 5.0)
        assert norm == pytest.approx(1.0)
        assert (p.grad == 0.5).all()

    def test_large_gradients_scaled_to_threshold(self):
        from moe_asr.nn import Parameter, zeros_init

        p = Parameter((100,), zeros_init())
        p.grad[...] = 3.0
        before = p.grad.copy()
        norm = clip_gradients({"p": p}, 5.0)
        assert norm == pytest.approx(30.0)
        after_norm = math.sqrt(float(np.sum(p.grad**2)))
        assert after_norm == pytest.approx(5.0)
        ratio = p.grad / before
        np.testing.assert_allclose(ratio, ratio.flat[0])


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


class TestParameterMovement:
    def _one_step(self, model, tc, lr=1e-3):
        params = model.named_parameters()
        model.train()
        model.zero_grad()
        total, _, _ = batch_losses(model, tiny_batch(), tc)
        total.backward()
        clip_gradients(params, GRAD_CLIP)
        Adam(params).step(lr)

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
        model = SpeechModel(cfg)
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
        params = model.named_parameters()
        opt = Adam(params)
        ctc_value = None
        for step in range(1, 501):
            model.train()
            model.zero_grad()
            total, metrics, _ = batch_losses(model, [seq], tc)
            total.backward()
            clip_gradients(params, GRAD_CLIP)
            opt.step(learning_rate(step, tc.peak_lr, tc.warmup_steps))
            ctc_value = metrics["ctc"]
            if ctc_value < 0.05:
                break
        assert ctc_value < 0.05, f"CTC stuck at {ctc_value}"
