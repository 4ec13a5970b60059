"""Model assembly, the derived parameter manifest, and checkpoints."""

import dataclasses
import errno
import hashlib
import inspect
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import moe_asr
from moe_asr import checkpoint, nn
from moe_asr import tensor as T
from moe_asr.checkpoint import (
    MAGIC,
    CheckpointError,
    load_model,
    load_pretrained_embedding,
    save_embedding,
    save_model,
    strip_auxiliary,
)
from moe_asr.config import ModelConfig
from moe_asr.decoder import _level_stack
from moe_asr.encoder import EmbeddingNetwork
from moe_asr.features import utterance_rng
from moe_asr.inference import decode_nbest
from moe_asr.model import SpeechModel, parameter_total
from moe_asr.moe import RoutedFFN
from moe_asr.nn import LayerNorm, Linear, Module, stacked_parameters

def read_params(path, kind="model"):
    """A `kind` checkpoint's (ModelConfig, ordered {name: read-only float64
    view}), read through the loaders' own reader into an array sized from
    the entries."""
    with checkpoint._read(path, kind) as (config, entries, read_body):
        body = np.empty(sum(math.prod(e["shape"]) for e in entries))
        read_body(body)
    body.flags.writeable = False
    parts = np.split(body, [e["offset"] // 8 for e in entries[1:]])
    return config, {e["name"]: p.reshape(e["shape"]) for e, p in zip(entries, parts)}


def parameter_manifest(cfg):
    """(name, shape) for every parameter of SpeechModel(cfg), in tree order,
    read off an unallocated module tree."""
    return [(name, p.shape) for name, p in SpeechModel(cfg).named_parameters().items()]


CONFIG_GRID = [
    dict(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2, kernel=3,
         num_blocks=6, decoder_blocks=1),
    dict(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2, kernel=3,
         num_blocks=6, decoder_blocks=1, num_experts=1),
    dict(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2, kernel=3,
         num_blocks=6, decoder_blocks=1, num_experts=4, d_emb=12),
    dict(vocab_size=9, feat_dim=5, d_att=8, d_ff=10, heads=1, kernel=5,
         num_blocks=9, decoder_blocks=2, num_experts=3,
         embedding_blocks=2, num_levels=1),
    dict(vocab_size=4, feat_dim=4, d_att=12, d_ff=6, heads=3, kernel=7,
         num_blocks=4, decoder_blocks=1, num_levels=2),
]


def desk_cfg(**overrides):
    base = dict(vocab_size=6, feat_dim=8, d_att=16, d_ff=24, heads=2, kernel=3,
                num_blocks=6, decoder_blocks=1, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def reference_write(path, kind, config, params):
    """The per-parameter writer the arena-image writer replaced, kept as the
    byte-level reference: each array of an ordered {name: array} mapping
    back to back, at offsets counted here."""
    entries, blobs, offset = [], [], 0
    for name, value in params.items():
        data = np.ascontiguousarray(value, dtype="<f8")
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        blobs.append(data.tobytes())
        offset += data.nbytes
    header = {"format": 1, "kind": kind, "config": dict(config), "params": entries}
    header_bytes = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes
                           + b"".join(blobs))


def arrays(module):
    return {name: p.data for name, p in module.named_parameters().items()}


def rewrite(path, edit):
    """Rewrite a checkpoint in place: `edit(entries, body)` may change the
    header's entries and returns the new body bytes."""
    raw = Path(path).read_bytes()
    (n,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + n])
    body = edit(header["params"], raw[8 + n :])
    head = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(MAGIC + struct.pack("<I", len(head)) + head + body)


class TestParameterManifest:
    @pytest.mark.parametrize("spec_kwargs", CONFIG_GRID)
    def test_manifest_matches_built_model(self, spec_kwargs):
        """The derived listing reproduces allocated names, shapes, and order."""
        cfg = ModelConfig(**spec_kwargs)
        model = SpeechModel(cfg).allocate()
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
            "from moe_asr.model import SpeechModel\n"
            + inspect.getsource(parameter_manifest) +
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


# (count, sha256 of the newline-joined names) of the 16-expert desk tree the
# benchmark decodes with and of the paper-scale tree, frozen from the walk
# that merged one dict per level.
FROZEN_TREES = {
    "desk": (lambda: ModelConfig.desk_scale(11, num_experts=16), {
        "named_modules": (687, "2a1fbd7d5a1f15c2"),
        "named_parameters": (745, "27849f63cd0ba9c4"),
    }),
    "paper": (ModelConfig.paper_scale, {
        "named_modules": (1823, "2cdc0ed5e864bad1"),
        "named_parameters": (1963, "d0f20a5f20c932a5"),
    }),
}


class TestModuleTree:
    @pytest.mark.parametrize("tree", sorted(FROZEN_TREES))
    def test_names_and_order_are_frozen(self, tree):
        make_cfg, frozen = FROZEN_TREES[tree]
        model = SpeechModel(make_cfg())
        for walk, (count, digest) in frozen.items():
            names = list(getattr(model, walk)())
            assert len(names) == count, walk
            assert hashlib.sha256("\n".join(names).encode()).hexdigest()[:16] == digest, walk

    def test_train_and_eval_reach_every_module(self):
        model = SpeechModel(desk_cfg(num_experts=2))
        modules = list(model.named_modules().values())
        model.eval()
        assert not any(m.training for m in modules)
        model.train()
        assert all(m.training for m in modules)


def reference_initial_values(module, seed):
    """Each parameter's initial values drawn afresh from its own
    ``SeedSequence([seed, crc32(name), 0])`` generator, in tree order:
    a LayerNorm's gamma ones and beta zeros, a decoders' ``embed`` [V, d]
    N(0, 1/sqrt(d)), a ``ConvModule``'s ``dw_kernel`` [K, d] and
    ``dw_bias`` U(+-1/sqrt(K)), and every other weight [d_in, d_out] and
    its bias U(+-1/sqrt(d_in))."""
    params = module.named_parameters()
    values = {}
    for name, p in params.items():
        rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode()), 0]))
        prefix, _, leaf = name.rpartition(".")
        # the tensor whose leading dimension is a uniform draw's fan-in
        fan_in = {"weight": "weight", "bias": "weight", "dw_kernel": "dw_kernel",
                  "dw_bias": "dw_kernel"}.get(leaf)
        if leaf == "gamma":
            values[name] = np.ones(p.shape)
        elif leaf == "beta":
            values[name] = np.zeros(p.shape)
        elif leaf == "embed":
            values[name] = rng.normal(0.0, 1.0 / math.sqrt(p.shape[1]), size=p.shape)
        elif fan_in is not None:
            bound = 1.0 / math.sqrt(params[f"{prefix}.{fan_in}" if prefix else fan_in].shape[0])
            values[name] = rng.uniform(-bound, bound, size=p.shape)
        else:
            raise AssertionError(f"no reference distribution for {name}")
    return values


class TestInitialization:
    @pytest.mark.parametrize("build", [
        lambda: SpeechModel(ModelConfig.desk_scale(11)),
        lambda: SpeechModel(ModelConfig.desk_scale(11, num_experts=1)),
        lambda: SpeechModel(ModelConfig.desk_scale(11, num_experts=16)),
        lambda: EmbeddingNetwork(ModelConfig.desk_scale(11, num_experts=16)),
    ], ids=["dense", "e1", "e16", "embedding-network"])
    def test_initial_values_match_the_reference(self, build):
        """``initialize``'s arena is every parameter's reference draw, back
        to back, byte for byte."""
        module = build().initialize(23)
        want = reference_initial_values(module, 23)
        assert module.arena.data.tobytes() == np.concatenate(
            [v.ravel() for v in want.values()]).tobytes()

    @pytest.mark.parametrize("experts, streams", [(0, 251), (16, 505)])
    def test_only_drawn_parameters_make_a_stream(self, monkeypatch, experts, streams):
        """One stream per drawn parameter: a LayerNorm's constants make
        none, and no dropout makes one before it draws."""
        keys, draw = [], nn.utterance_rng
        monkeypatch.setattr(nn, "utterance_rng", lambda *key: keys.append(key) or draw(*key))
        model = SpeechModel(ModelConfig.desk_scale(11, num_experts=experts)).initialize(5)
        assert len(keys) == streams
        assert {lane for _, _, lane in keys} == {0}
        assert [name for _, name, _ in keys] == [
            name for name in model.named_parameters()
            if name.rpartition(".")[2] not in ("gamma", "beta")]

    def test_decoding_makes_no_dropout_stream(self, monkeypatch):
        """A model that only decodes never draws a mask, so it makes no
        lane-1 stream."""
        keys, draw = [], nn.utterance_rng
        monkeypatch.setattr(nn, "utterance_rng", lambda *key: keys.append(key) or draw(*key))
        model = SpeechModel(ModelConfig.desk_scale(11, num_experts=2, feat_dim=8)).initialize(5)
        feats = np.random.default_rng(6).normal(size=(30, 8))
        decode_nbest(model.eval(), T.Tensor(feats), 4, 2, 0.5)
        assert keys and all(lane == 0 for _, _, lane in keys)

    def test_first_training_mask_is_the_named_stream(self):
        """Each dropout's first training-mode mask is the first draw of
        ``utterance_rng(seed, name, 1)``; ``seed_dropout`` after draws
        restarts every stream."""
        model = SpeechModel(ModelConfig.desk_scale(11, num_experts=2)).initialize(8)
        dropouts = {n: m for n, m in model.named_modules().items() if isinstance(m, nn.Dropout)}
        assert dropouts and all(d.p > 0.0 for d in dropouts.values())

        def masks():
            return {n: d.mask((3, 7))[0] for n, d in dropouts.items()}

        first = masks()
        for name, d in dropouts.items():
            want = utterance_rng(8, name, 1).random((3, 7)) >= d.p
            np.testing.assert_array_equal(first[name], want, err_msg=name)
        second = masks()
        assert any(not np.array_equal(first[n], second[n]) for n in dropouts)
        model.seed_dropout(8)
        restarted = masks()
        for name in dropouts:
            np.testing.assert_array_equal(restarted[name], first[name], err_msg=name)


def _assert_views_of(leaf, params):
    """Slice k of the stacked leaf's ``data`` and ``grad`` is params[k]'s:
    they share memory, and a write through the slice lands in it."""
    assert leaf.data.shape == (len(params), *params[0].shape) == leaf.grad.shape
    for k, p in enumerate(params):
        assert np.shares_memory(leaf.data[k], p.data) and np.shares_memory(leaf.grad[k], p.grad)
        before = p.data.copy()
        marker = np.arange(1.0, 1.0 + p.data.size).reshape(p.shape) + k
        leaf.data[k] = marker
        leaf.grad[k] += marker
        assert (p.data == marker).all() and (p.grad == marker).all()
        p.data[...], p.grad[...] = before, 0.0


class _ThreeNorms(Module):
    def __init__(self):
        super().__init__()
        self.a, self.b, self.c = LayerNorm(4), LayerNorm(4), LayerNorm(4)


class TestStackedViews:
    """The experts of a routed layer and the decoders of the multi-level
    loss stack as views of the arena (``nn.stacked_parameters``); there is
    no copying fallback."""

    def test_desk_model_stacks_are_views_of_its_parameters(self):
        model = SpeechModel(ModelConfig.desk_scale(11, num_experts=16)).initialize(0).eval()
        model.encode(T.Tensor(np.random.default_rng(0).normal(size=(40, 80))))
        layers = [m for m in model.named_modules().values()
                  if isinstance(m, RoutedFFN) and m.router is not None]
        assert len(layers) == len(model.cfg.routed_blocks())
        for layer in layers:
            # stack j, slice k is operand j of T.ffn for expert k
            experts = [e.op_parameters() for e in layer.experts]
            assert len(layer._stacked) == 6 and all(len(ps) == 6 for ps in experts)
            for leaf, params in zip(layer._stacked, zip(*experts)):
                _assert_views_of(leaf, params)
        ffn = layers[0].experts[0]
        assert [id(p) for p in ffn.op_parameters()] == [
            id(p) for p in (ffn.norm.gamma, ffn.norm.beta, ffn.w1.weight, ffn.w1.bias,
                            ffn.w2.weight, ffn.w2.bias)]
        decoders = [model.decoder, *model.aux_decoders]
        stand_in = _level_stack(decoders).named_parameters()
        assert list(stand_in) == list(model.decoder.named_parameters())
        for name, leaf in stand_in.items():
            _assert_views_of(leaf, [dec.named_parameters()[name] for dec in decoders])
        assert not model.arena.grad.any()
        # the cached stacks are no parameters of the tree
        params = model.named_parameters()
        assert [id(p) for p in params.values()] == [id(p) for p in model.arena.params.values()]

    def test_a_stack_is_one_arena_at_one_stride(self):
        norms = _ThreeNorms().initialize(0)
        gammas = [norms.a.gamma, norms.b.gamma, norms.c.gamma]
        _assert_views_of(stacked_parameters(gammas), gammas)
        _assert_views_of(stacked_parameters([norms.b.beta]), [norms.b.beta])
        with pytest.raises(ValueError, match="unequal shapes"):
            linear = Linear(4, 3).initialize(0)
            stacked_parameters([linear.weight, linear.bias])
        for params in ([norms.a.gamma, norms.b.gamma, norms.b.beta],  # strides 8 then 4
                       [norms.c.gamma, norms.b.gamma],  # a negative stride
                       [norms.a.gamma, norms.a.gamma]):  # slices that overlap
            with pytest.raises(ValueError, match="stride"):
                stacked_parameters(params)
        with pytest.raises(ValueError, match="arena"):
            stacked_parameters([norms.a.gamma, LayerNorm(4).initialize(0).gamma])
        with pytest.raises(ValueError, match="storage"):
            stacked_parameters([LayerNorm(4).gamma, LayerNorm(4).gamma])


class TestSpeechModel:
    def test_dense_model_has_no_embedding_network(self):
        assert SpeechModel(desk_cfg()).embedding_net is None

    def test_routed_config_without_a_routed_block_rejected(self):
        with pytest.raises(ValueError, match="^num_experts 4 needs num_blocks >= 2"):
            desk_cfg(num_blocks=1, num_levels=1, num_experts=4)
        assert desk_cfg(num_blocks=1, num_levels=1).routed_blocks() == []
        assert desk_cfg(num_blocks=2, num_levels=1, num_experts=4).routed_blocks() == [2]

    @pytest.mark.parametrize("num_blocks", range(1, 8))
    def test_routed_blocks_are_every_second_block(self, num_blocks):
        """Blocks 2, 4, 6, ... route; a routed config of one block has none
        and is refused."""
        if num_blocks == 1:
            with pytest.raises(ValueError, match="needs num_blocks >= 2"):
                desk_cfg(num_blocks=1, num_levels=1, num_experts=2)
            return
        cfg = desk_cfg(num_blocks=num_blocks, num_levels=1, num_experts=2)
        assert cfg.routed_blocks() == list(range(2, num_blocks + 1, 2))

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

    @pytest.mark.parametrize("num_levels, num_blocks", [(4, 3), (3, 2), (2, 1)])
    def test_fewer_blocks_than_levels_rejected_by_name(self, num_levels, num_blocks):
        with pytest.raises(ValueError, match=f"^num_levels {num_levels} "):
            desk_cfg(num_levels=num_levels, num_blocks=num_blocks)

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
        config, params = read_params(path)
        assert config == desk_cfg()
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

    @pytest.mark.parametrize("header, message", [
        ({"format": 1, "kind": "model", "config": {}}, "lacks a config or a params list"),
        ([1, 2], "header is not a JSON object"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [2], "offset": -8}]}, "bad shape"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [-1], "offset": 0}]}, "bad shape"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [1], "offset": 8}]}, "does not start where"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [1], "offset": 0},
                     {"name": "b", "shape": [1], "offset": 0}]}, "does not start where"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [0], "offset": 0},
                     {"name": "b", "shape": [1], "offset": 8}]}, "does not start where"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [1], "offset": 0},
                     {"name": "w", "shape": [1], "offset": 8}]}, "repeats a name"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [1], "offset": 0}]}, "trailing bytes"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": ["w"], "shape": [2], "offset": 0}]}, "bad shape"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [True, 2], "offset": 0}]}, "bad shape"),
        ({"format": 1, "kind": "model", "config": {},
          "params": [{"name": "w", "shape": [2]}]}, "malformed parameter entry"),
        ({"format": 1, "kind": "model", "config": {}, "params": [16]},
         "malformed parameter entry 16"),
    ], ids=["no-params", "list", "negative-offset", "negative-dim", "first-not-at-zero",
            "overlap", "gap", "duplicate-name", "trailing-bytes", "list-name", "bool-dim",
            "entry-without-offset", "entry-not-an-object"])
    def test_malformed_header_rejected(self, tmp_path, header, message):
        """Each header is wrong on its own over a 16-byte body; in particular
        the entries must tile it: from byte 0, each where the previous ends,
        no name twice, and the last ending at the body's end."""
        raw = json.dumps(header).encode("utf-8")
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + b"\x00" * 16)
        with pytest.raises(CheckpointError, match=message):
            read_params(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_format_must_be_the_int_version(self, tmp_path, version):
        """The format is the int 1: not true, nor 1.0, which compare equal
        to it, nor the string "1" or another version."""
        raw = json.dumps({"format": version, "kind": "model", "config": {}, "params": []})
        path = tmp_path / "v.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw.encode("utf-8"))
        with pytest.raises(CheckpointError,
                           match=rf"v\.ckpt: unsupported format {json.loads(raw)['format']}$"):
            read_params(path)

    @pytest.mark.parametrize("head, message", [
        (struct.pack("<I", 64) + b'{"format": 1}', "truncated header"),
        (struct.pack("<I", 9) + b'{"format"', "unreadable header"),
        (struct.pack("<I", 2) + b"\xff\xfe", "unreadable header"),
    ], ids=["short", "cut-json", "not-utf-8"])
    def test_unreadable_header_rejected(self, tmp_path, head, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + head)
        with pytest.raises(CheckpointError, match=rf"bad\.ckpt: {message}"):
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
        """Every loader reads through the one kind check."""
        cfg = desk_cfg(num_experts=2)
        emb_path, model_path = tmp_path / "emb.ckpt", tmp_path / "model.ckpt"
        save_embedding(emb_path, EmbeddingNetwork(cfg).initialize(0), cfg)
        save_model(model_path, SpeechModel(cfg).initialize(0))
        for load in (lambda: load_model(emb_path),
                     lambda: strip_auxiliary(emb_path, tmp_path / "lean.ckpt")):
            with pytest.raises(CheckpointError,
                               match="expected a model checkpoint, found 'embedding'"):
                load()
        with pytest.raises(CheckpointError,
                           match="expected an embedding checkpoint, found 'model'"):
            load_pretrained_embedding(SpeechModel(cfg).allocate(), model_path)
        assert not (tmp_path / "lean.ckpt").exists()

    def test_unknown_config_key_named(self, tmp_path):
        """A header config key ModelConfig does not know, such as the
        decoder widths older checkpoints carry, is named with the file by
        every loader instead of surfacing as a TypeError."""
        cfg = desk_cfg(num_experts=2)
        model = SpeechModel(cfg).initialize(0)
        config = dict(dataclasses.asdict(cfg), decoder_ff=24, decoder_heads=2)
        model_path, emb_path = tmp_path / "old.ckpt", tmp_path / "old-emb.ckpt"
        for path, kind, module in ((model_path, "model", model),
                                   (emb_path, "embedding", model.embedding_net)):
            reference_write(path, kind, config, arrays(module))
        message = r"old(-emb)?\.ckpt: .*\['decoder_ff', 'decoder_heads'\]"
        for load in (lambda: load_model(model_path),
                     lambda: strip_auxiliary(model_path, tmp_path / "lean.ckpt"),
                     lambda: load_pretrained_embedding(SpeechModel(cfg), emb_path)):
            with pytest.raises(CheckpointError, match=message):
                load()
        assert not (tmp_path / "lean.ckpt").exists()

    def test_moe_every_key_named(self, tmp_path):
        """A file whose header config still carries the routing interval,
        a setting the recipe now fixes, is refused with the key named."""
        cfg = desk_cfg(num_experts=2)
        path = tmp_path / "old.ckpt"
        checkpoint._write(path, "model", dict(dataclasses.asdict(cfg), moe_every=2),
                          SpeechModel(cfg).initialize(0))
        with pytest.raises(CheckpointError, match=r"old\.ckpt: .*\['moe_every'\]"):
            load_model(path)

    def test_config_value_of_the_wrong_type_named(self, tmp_path):
        """The header's config is read like a --config section: a float for
        an int field is refused with the file and the field named."""
        cfg = desk_cfg(num_experts=2)
        path = tmp_path / "odd.ckpt"
        checkpoint._write(path, "model", dict(dataclasses.asdict(cfg), d_att=16.0),
                          SpeechModel(cfg).initialize(0))
        with pytest.raises(CheckpointError,
                           match=r"^\S*odd\.ckpt: ModelConfig\.d_att must be an int, got 16\.0$"):
            load_model(path)


class TestAuxiliaryStripping:
    def test_strip_removes_only_aux_heads(self, tmp_path):
        model = SpeechModel(desk_cfg(num_experts=2)).initialize(5).eval()
        src, dst = tmp_path / "full.ckpt", tmp_path / "lean.ckpt"
        save_model(src, model)
        strip_auxiliary(src, dst)
        config, params = read_params(dst)
        assert config == dataclasses.replace(model.cfg, num_levels=1)
        assert not any(k.startswith("aux_decoders.") for k in params)
        full = {k: v for k, v in read_params(src)[1].items()
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
        net = EmbeddingNetwork(cfg).initialize(11)
        path = tmp_path / "emb.ckpt"
        save_embedding(path, net, cfg)
        loaded_cfg, _ = read_params(path, "embedding")
        assert loaded_cfg == cfg
        loaded = SpeechModel(cfg).allocate()
        load_pretrained_embedding(loaded, path)
        for name, p in net.named_parameters().items():
            assert (loaded.embedding_net.named_parameters()[name].data == p.data).all()

    def test_pretrained_embedding_loads_into_joint_model(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        donor = EmbeddingNetwork(cfg).initialize(21)
        path = tmp_path / "emb.ckpt"
        save_embedding(path, donor, cfg)

        model = SpeechModel(cfg).initialize(22)
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        load_pretrained_embedding(model, path)
        for name, p in model.named_parameters().items():
            if name.startswith("embedding_net."):
                local = name[len("embedding_net."):]
                assert (p.data == donor.named_parameters()[local].data).all()
            else:
                assert (p.data == before[name]).all(), name

    def test_embedding_architecture_mismatch_rejected(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        path = tmp_path / "emb.ckpt"
        save_embedding(path, EmbeddingNetwork(cfg).initialize(0), cfg)
        other = SpeechModel(desk_cfg(num_experts=2, d_emb=12))
        with pytest.raises(CheckpointError, match="d_emb"):
            load_pretrained_embedding(other, path)

    def test_dense_model_refuses_embedding(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        path = tmp_path / "emb.ckpt"
        save_embedding(path, EmbeddingNetwork(cfg).initialize(0), cfg)
        with pytest.raises(CheckpointError, match="dense"):
            load_pretrained_embedding(SpeechModel(desk_cfg()), path)


class TestArenaImage:
    """A checkpoint body is the arena's ``data`` buffer: the files equal the
    reference writer's byte for byte, and the reference's files load."""

    @pytest.mark.parametrize("num_experts", [0, 3])
    def test_save_model_matches_reference(self, tmp_path, num_experts):
        cfg = desk_cfg(num_experts=num_experts)
        model = SpeechModel(cfg).initialize(4)
        save_model(tmp_path / "a.ckpt", model)
        reference_write(tmp_path / "b.ckpt", "model", dataclasses.asdict(cfg), arrays(model))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_save_embedding_matches_reference(self, tmp_path):
        cfg = desk_cfg(num_experts=3)
        net = EmbeddingNetwork(cfg).initialize(5)
        save_embedding(tmp_path / "a.ckpt", net, cfg)
        reference_write(tmp_path / "b.ckpt", "embedding", dataclasses.asdict(cfg), arrays(net))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("num_experts", [0, 3])
    def test_strip_auxiliary_matches_reference(self, tmp_path, num_experts):
        cfg = desk_cfg(num_experts=num_experts)
        model = SpeechModel(cfg).initialize(6)
        save_model(tmp_path / "full.ckpt", model)
        strip_auxiliary(tmp_path / "full.ckpt", tmp_path / "lean.ckpt")
        kept = {k: v for k, v in arrays(model).items() if not k.startswith("aux_decoders.")}
        lean_cfg = dataclasses.asdict(dataclasses.replace(cfg, num_levels=1))
        reference_write(tmp_path / "ref.ckpt", "model", lean_cfg, kept)
        assert (tmp_path / "lean.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()

    @pytest.mark.parametrize("num_experts", [0, 3])
    def test_reference_files_load_bit_exactly(self, tmp_path, num_experts):
        """Files laid out by the per-parameter writer still load."""
        cfg = desk_cfg(num_experts=num_experts)
        model = SpeechModel(cfg).initialize(8)
        reference_write(tmp_path / "m.ckpt", "model", dataclasses.asdict(cfg), arrays(model))
        assert load_model(tmp_path / "m.ckpt").arena.data.tobytes() == model.arena.data.tobytes()
        if num_experts:
            net = EmbeddingNetwork(cfg).initialize(9)
            reference_write(tmp_path / "e.ckpt", "embedding", dataclasses.asdict(cfg), arrays(net))
            joint = SpeechModel(cfg).initialize(10)
            load_pretrained_embedding(joint, tmp_path / "e.ckpt")
            _, span = joint.arena.layout("embedding_net.")
            assert span.tobytes() == net.arena.data.tobytes()

    def test_reordered_entries_rejected_by_name(self, tmp_path):
        """Entries that tile the body but in another order than the arena's
        are refused, naming the first entry out of place."""
        cfg = desk_cfg(num_experts=2)
        model, net = SpeechModel(cfg).initialize(0), EmbeddingNetwork(cfg).initialize(0)
        for path, kind, module in ((tmp_path / "m.ckpt", "model", model),
                                   (tmp_path / "e.ckpt", "embedding", net)):
            params = list(arrays(module).items())
            params[3], params[4] = params[4], params[3]
            reference_write(path, kind, dataclasses.asdict(cfg), dict(params))
        first = list(arrays(model))[3]
        for load in (lambda: load_model(tmp_path / "m.ckpt"),
                     lambda: strip_auxiliary(tmp_path / "m.ckpt", tmp_path / "lean.ckpt")):
            with pytest.raises(CheckpointError, match=rf"m\.ckpt: entry 3 should be .*'{first}'"):
                load()
        assert not (tmp_path / "lean.ckpt").exists()
        first = list(arrays(net))[3]
        with pytest.raises(CheckpointError, match=rf"e\.ckpt: entry 3 should be .*'{first}'"):
            load_pretrained_embedding(SpeechModel(cfg).initialize(1), tmp_path / "e.ckpt")

    def test_load_model_reads_the_body_into_the_arena(self, tmp_path):
        """The body goes from the file straight into the new arena: the
        traced peak of ``load_model`` stays below 4 MiB, a quarter of the
        arena, so the file's bytes are never held whole. The arena's two buffers lie on
        pages mapped for them alone, which tracemalloc does not see, so the
        peak is all that ``load_model`` holds beside them."""
        model = SpeechModel(ModelConfig.desk_scale(11, num_experts=16)).initialize(2)
        save_model(tmp_path / "m.ckpt", model)
        expected, arena_bytes = model.arena.data.tobytes(), model.arena.data.nbytes
        del model
        tracemalloc.start()
        try:
            loaded = load_model(tmp_path / "m.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arena_bytes > 3 * (1 << 22)
        assert peak < 1 << 22
        assert loaded.arena.data.tobytes() == expected

    def test_only_a_root_with_an_arena_is_saved(self, tmp_path):
        cfg = desk_cfg(num_experts=2)
        with pytest.raises(ValueError, match="^EmbeddingNetwork has no parameter arena"):
            save_embedding(tmp_path / "e.ckpt", SpeechModel(cfg).initialize(0).embedding_net, cfg)
        with pytest.raises(ValueError, match="^SpeechModel has no parameter arena"):
            save_model(tmp_path / "m.ckpt", SpeechModel(cfg))
        assert os.listdir(tmp_path) == []


def _trailing_bytes(entries, body):
    return body + bytes(64)


def _duplicate_name(entries, body):
    entries[1]["name"] = entries[0]["name"]
    return body


def _beta_on_gamma(entries, body):
    i = next(i for i, e in enumerate(entries) if e["name"].endswith(".beta"))
    assert entries[i - 1]["name"].endswith(".gamma")
    entries[i]["offset"] = entries[i - 1]["offset"]
    return body


class TestTiling:
    """Entries that do not tile the body are refused by every loader, where
    reading them per name loaded silently: trailing bytes, a repeated name
    (two entries collapsing to one key), and a layernorm ``beta`` pointed at
    its ``gamma``."""

    @pytest.mark.parametrize("edit, message", [
        (_trailing_bytes, "trailing bytes"),
        (_duplicate_name, "repeats a name"),
        (_beta_on_gamma, r"\.beta at byte \d+ repeats a name or does not start"),
    ], ids=["trailing-bytes", "duplicate-name", "beta-on-gamma"])
    @pytest.mark.parametrize("loader", ["load_model", "load_pretrained_embedding",
                                        "strip_auxiliary"])
    def test_untiled_body_rejected(self, tmp_path, edit, message, loader):
        cfg = desk_cfg(num_experts=2)
        path, lean = tmp_path / "x.ckpt", tmp_path / "lean.ckpt"
        load = {
            "load_model": lambda: load_model(path),
            "load_pretrained_embedding":
                lambda: load_pretrained_embedding(SpeechModel(cfg).initialize(1), path),
            "strip_auxiliary": lambda: strip_auxiliary(path, lean),
        }[loader]
        if loader == "load_pretrained_embedding":
            save_embedding(path, EmbeddingNetwork(cfg).initialize(0), cfg)
        else:
            save_model(path, SpeechModel(cfg).initialize(0))
        load()  # the file as written is accepted
        lean.unlink(missing_ok=True)
        rewrite(path, edit)
        with pytest.raises(CheckpointError, match=message):
            load()
        assert not lean.exists()
