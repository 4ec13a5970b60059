"""Model assembly, the derived parameter manifest, and checkpoints."""

import dataclasses
import errno
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moe_asr
from moe_asr import checkpoint
from moe_asr import tensor as T
from moe_asr.checkpoint import (
    MAGIC,
    CheckpointError,
    load_embedding,
    load_model,
    load_pretrained_embedding,
    read_params,
    save_embedding,
    save_model,
    strip_auxiliary,
)
from moe_asr.config import ModelConfig
from moe_asr.encoder import EmbeddingNetwork
from moe_asr.model import SpeechModel, parameter_manifest, parameter_total

CONFIG_GRID = [
    dict(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2, kernel=3,
         num_blocks=6, decoder_blocks=1),
    dict(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2, kernel=3,
         num_blocks=6, decoder_blocks=1, num_experts=1),
    dict(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2, kernel=3,
         num_blocks=6, decoder_blocks=1, num_experts=4, d_emb=12),
    dict(vocab_size=9, feat_dim=5, d_att=8, d_ff=10, heads=1, kernel=5,
         num_blocks=9, decoder_blocks=2, num_experts=3, moe_every=3,
         embedding_blocks=2, num_levels=1),
    dict(vocab_size=4, feat_dim=4, d_att=12, d_ff=6, heads=3, kernel=7,
         num_blocks=4, decoder_blocks=1, decoder_ff=20, decoder_heads=2,
         num_levels=2),
]


def desk_cfg(**overrides):
    base = dict(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2, kernel=3,
                num_blocks=6, decoder_blocks=1, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


class TestParameterManifest:
    @pytest.mark.parametrize("spec_kwargs", CONFIG_GRID)
    def test_manifest_matches_built_model(self, spec_kwargs):
        """The derived listing reproduces allocated names, shapes, and order."""
        cfg = ModelConfig(**spec_kwargs)
        model = SpeechModel(cfg)
        built = [(name, p.data.shape) for name, p in model.named_parameters().items()]
        assert parameter_manifest(cfg) == built

    @pytest.mark.parametrize("spec_kwargs", CONFIG_GRID)
    def test_total_matches_parameter_count(self, spec_kwargs):
        cfg = ModelConfig(**spec_kwargs)
        assert parameter_total(cfg) == SpeechModel(cfg).parameter_count()

    def test_manifest_costs_nothing_at_production_scale(self):
        """Listing a 1.4B-parameter shape must not touch its 11 GB of float64
        storage: peak RSS of a fresh process grows by well under 256 MB.
        A 1 GB address-space cap makes eager allocation fail fast instead of
        exhausting the machine."""
        script = (
            "import math, resource\n"
            "from moe_asr.config import ModelConfig\n"
            "from moe_asr.model import parameter_manifest\n"
            "vm = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (vm + 2**30, hard))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "manifest = parameter_manifest(ModelConfig.paper_scale(64, num_levels=3))\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(sum(math.prod(shape) for _, shape in manifest), after - before)\n"
        )
        src = str(Path(moe_asr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        total, grown_kb = map(int, proc.stdout.split())
        assert total > 1e9
        assert grown_kb < 256 * 1024, f"peak RSS grew by {grown_kb // 1024} MB"

    def test_expert_increment_is_constant(self):
        """Each added expert adds one FFN plus one router column per routed
        layer, independent of how many experts are already there."""
        totals = [parameter_total(desk_cfg(num_experts=n)) for n in (1, 2, 3, 4)]
        deltas = {b - a for a, b in zip(totals, totals[1:])}
        assert len(deltas) == 1
        cfg = desk_cfg(num_experts=1)
        ffn = (2 * cfg.d_att) + (cfg.d_att * cfg.d_ff + cfg.d_ff) + (cfg.d_ff * cfg.d_att + cfg.d_att)
        per_layer = ffn + (cfg.d_emb + cfg.d_att)
        assert deltas == {len(cfg.routed_blocks()) * per_layer}

    def test_dense_and_single_expert_share_block_names(self):
        """Routing machinery only adds names; the dense core keeps its own."""
        dense = {n for n, _ in parameter_manifest(desk_cfg())}
        routed = {n for n, _ in parameter_manifest(desk_cfg(num_experts=1))}
        extra = routed - dense
        assert dense <= routed
        assert all(".router." in n or n.startswith("embedding_net.") for n in extra)


class TestSpeechModel:
    def test_dense_model_has_no_embedding_network(self):
        assert SpeechModel(desk_cfg()).embedding_net is None

    def test_encode_embeds_once_per_utterance(self, monkeypatch):
        model = SpeechModel(desk_cfg(num_experts=2)).initialize(0).eval()
        calls = []
        embed = EmbeddingNetwork.embed

        def counted(net, *args):
            calls.append(net)
            return embed(net, *args)

        monkeypatch.setattr(EmbeddingNetwork, "embed", counted)
        feats = T.Tensor(np.random.default_rng(0).normal(size=(20, 8)))
        out, e_c = model.encode(feats)
        assert calls == [model.embedding_net]
        assert e_c is not None
        assert len(out.records) == len(model.cfg.routed_blocks())

    def test_aux_decoder_count_follows_levels(self):
        assert len(SpeechModel(desk_cfg()).aux_decoders) == 2
        assert len(SpeechModel(desk_cfg(num_levels=1)).aux_decoders) == 0

    def test_ctc_log_probs_normalized(self):
        model = SpeechModel(desk_cfg()).initialize(1).eval()
        out, _ = model.encode(T.Tensor(np.random.default_rng(1).normal(size=(16, 8))))
        lp = model.ctc_log_probs(out.final)
        np.testing.assert_allclose(np.exp(lp.data).sum(axis=1), 1.0, atol=1e-12)


class TestCheckpointRoundTrip:
    def _forward_fingerprint(self, model, feats):
        out, _ = model.encode(feats)
        lp = model.ctc_log_probs(out.final)
        dec = model.decoder.decode_teacher_forced(out.final, [1, 2, 0])
        return lp.data, dec.data

    @pytest.mark.parametrize("num_experts", [0, 3])
    def test_bit_exact_round_trip(self, tmp_path, num_experts):
        model = SpeechModel(desk_cfg(num_experts=num_experts)).initialize(7).eval()
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        loaded = load_model(path).eval()
        for name, p in model.named_parameters().items():
            assert (loaded.named_parameters()[name].data == p.data).all(), name

        feats = T.Tensor(np.random.default_rng(2).normal(size=(18, 8)))
        for a, b in zip(self._forward_fingerprint(model, feats),
                        self._forward_fingerprint(loaded, feats)):
            assert (a == b).all()

    def test_header_is_inspectable(self, tmp_path):
        model = SpeechModel(desk_cfg()).initialize(0)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        kind, config, params = read_params(path)
        assert kind == "model"
        assert config["vocab_size"] == 6
        assert set(params) == set(model.named_parameters())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            read_params(path)

    def test_truncated_blob_rejected(self, tmp_path):
        model = SpeechModel(desk_cfg()).initialize(0)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            read_params(path)

    @pytest.mark.parametrize("header", [
        {"format": 1, "kind": "model", "config": {}},
        [1, 2],
        {"format": 1, "kind": "model", "config": {},
         "params": [{"name": "w", "shape": [2], "offset": -8}]},
        {"format": 1, "kind": "model", "config": {},
         "params": [{"name": "w", "shape": [-1], "offset": 0}]},
    ], ids=["no-params", "list", "negative-offset", "negative-dim"])
    def test_malformed_header_rejected(self, tmp_path, header):
        raw = json.dumps(header).encode("utf-8")
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            read_params(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A save that fails partway (here: the disk fills after the header)
        leaves the earlier file byte-identical and no temporary file."""
        path = tmp_path / "model.ckpt"
        save_model(path, SpeechModel(desk_cfg()).initialize(0))
        before = path.read_bytes()

        class FillsAfterHeader:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 3:  # magic, header length, header
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(checkpoint, "open",
                            lambda *a, **k: FillsAfterHeader(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space"):
            save_model(path, SpeechModel(desk_cfg()).initialize(1))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        model = SpeechModel(cfg).initialize(0)
        path = tmp_path / "emb.ckpt"
        save_embedding(path, model.embedding_net, cfg)
        with pytest.raises(CheckpointError, match="expected a model checkpoint"):
            load_model(path)


class TestAuxiliaryStripping:
    def test_strip_removes_only_aux_heads(self, tmp_path):
        model = SpeechModel(desk_cfg(num_experts=2)).initialize(5).eval()
        src, dst = tmp_path / "full.ckpt", tmp_path / "lean.ckpt"
        save_model(src, model)
        strip_auxiliary(src, dst)
        _, config, params = read_params(dst)
        assert config["num_levels"] == 1
        assert not any(k.startswith("aux_decoders.") for k in params)
        full = {k: v for k, v in read_params(src)[2].items()
                if not k.startswith("aux_decoders.")}
        assert set(params) == set(full)
        for k in full:
            assert (params[k] == full[k]).all()

    def test_stripped_model_decodes_identically(self, tmp_path):
        """Dropping train-only heads cannot move a single decoding bit."""
        model = SpeechModel(desk_cfg(num_experts=2)).initialize(5).eval()
        src, dst = tmp_path / "full.ckpt", tmp_path / "lean.ckpt"
        save_model(src, model)
        strip_auxiliary(src, dst)
        lean = load_model(dst).eval()
        assert lean.aux_decoders == []

        feats = T.Tensor(np.random.default_rng(9).normal(size=(22, 8)))
        out_full, _ = model.encode(feats)
        out_lean, _ = lean.encode(feats)
        assert (out_full.final.data == out_lean.final.data).all()
        full_dec = model.decoder.decode_teacher_forced(out_full.final, [1, 3])
        lean_dec = lean.decoder.decode_teacher_forced(out_lean.final, [1, 3])
        assert (full_dec.data == lean_dec.data).all()


class TestEmbeddingCheckpoints:
    def test_embedding_round_trip(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        net = SpeechModel(cfg).initialize(11).embedding_net
        path = tmp_path / "emb.ckpt"
        save_embedding(path, net, cfg)
        loaded_cfg, loaded = load_embedding(path)
        assert dataclasses.asdict(loaded_cfg) == dataclasses.asdict(cfg)
        for name, p in net.named_parameters().items():
            assert (loaded.named_parameters()[name].data == p.data).all()

    def test_pretrained_embedding_loads_into_joint_model(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        donor = SpeechModel(cfg).initialize(21)
        path = tmp_path / "emb.ckpt"
        save_embedding(path, donor.embedding_net, cfg)

        model = SpeechModel(cfg).initialize(22)
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        load_pretrained_embedding(model, path)
        for name, p in model.named_parameters().items():
            if name.startswith("embedding_net."):
                local = name[len("embedding_net."):]
                assert (p.data == donor.embedding_net.named_parameters()[local].data).all()
            else:
                assert (p.data == before[name]).all(), name

    def test_embedding_architecture_mismatch_rejected(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        donor = SpeechModel(cfg).initialize(0)
        path = tmp_path / "emb.ckpt"
        save_embedding(path, donor.embedding_net, cfg)
        other = SpeechModel(desk_cfg(num_experts=2, d_emb=12))
        with pytest.raises(CheckpointError, match="d_emb"):
            load_pretrained_embedding(other, path)

    def test_dense_model_refuses_embedding(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        donor = SpeechModel(cfg).initialize(0)
        path = tmp_path / "emb.ckpt"
        save_embedding(path, donor.embedding_net, cfg)
        with pytest.raises(CheckpointError, match="dense"):
            load_pretrained_embedding(SpeechModel(desk_cfg()), path)
