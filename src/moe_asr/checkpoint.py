"""Checkpoint container: a JSON header plus raw float64 parameter blobs.

Layout: 4-byte magic "3MCK", little-endian u32 header length, UTF-8 JSON
header, then each parameter's float64 little-endian bytes back to back.
The header records the kind ("model" or "embedding"), the architecture
config, and per-parameter name/shape/offset, so a file is self-describing
and loads bit-exactly on any host.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct

import numpy as np

from .config import ModelConfig
from .model import SpeechModel

MAGIC = b"3MCK"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


def write_params(path, kind, config, params):
    """Write an ordered {name: array} mapping under the given kind/config.

    The file appears at ``path`` whole or not at all: it is written to a
    temporary file in the same directory and renamed over the target.
    """
    entries, blobs, offset = [], [], 0
    for name, value in params.items():
        data = np.ascontiguousarray(value, dtype="<f8")
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        blobs.append(data.tobytes())
        offset += data.nbytes
    header = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "config": dict(config),
        "params": entries,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    # Write beside the target and rename over it, so a failed write never
    # leaves a truncated checkpoint where a good one was.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_params(path):
    """Returns (kind, config dict, ordered {name: float64 array})."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (header_len,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format {header.get('format')}")
    entries = header.get("params")
    if not isinstance(entries, list) or not isinstance(header.get("config"), dict):
        raise CheckpointError(f"{path}: header lacks a config or a params list")
    blob = raw[8 + header_len :]
    params = {}
    for entry in entries:
        try:
            name, shape, start = entry["name"], tuple(entry["shape"]), entry["offset"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed parameter entry {entry!r}") from exc
        if not all(_is_count(v) for v in (start, *shape)):
            raise CheckpointError(f"{path}: bad shape {shape} or offset {start} for {name}")
        end = start + 8 * math.prod(shape)
        if end > len(blob):
            raise CheckpointError(f"{path}: truncated data for {name}")
        params[name] = (
            np.frombuffer(blob[start:end], dtype="<f8").astype(np.float64).reshape(shape)
        )
    return header.get("kind"), header["config"], params


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _gather(module):
    return {name: p.data for name, p in module.named_parameters().items()}


def _restore(module, params, context):
    own = module.named_parameters()
    missing = sorted(set(own) - set(params))
    unexpected = sorted(set(params) - set(own))
    if missing or unexpected:
        raise CheckpointError(
            f"{context}: parameter names do not match"
            f" (missing {missing[:5]}, unexpected {unexpected[:5]})"
        )
    for name, param in own.items():
        if param.shape != params[name].shape:
            raise CheckpointError(
                f"{context}: shape mismatch for {name}:"
                f" {param.shape} vs {params[name].shape}"
            )
        param.data[...] = params[name]


def _model_config(path, config):
    """The header's ModelConfig; keys it does not know are named with the file."""
    unknown = sorted(set(config) - {f.name for f in dataclasses.fields(ModelConfig)})
    if unknown:
        raise CheckpointError(f"{path}: config keys unknown to this version: {unknown}")
    return ModelConfig(**config)


def save_model(path, model):
    write_params(path, "model", dataclasses.asdict(model.cfg), _gather(model))


def load_model(path):
    """Rebuild a SpeechModel from a checkpoint; parameters load bit-exactly
    into a freshly allocated arena.

    Dropout generators are left unseeded: call seed_dropout before resuming
    training, or eval() for inference.
    """
    kind, config, params = read_params(path)
    if kind != "model":
        raise CheckpointError(f"{path}: expected a model checkpoint, found {kind!r}")
    model = SpeechModel(_model_config(path, config)).allocate()
    _restore(model, params, path)
    return model


def save_embedding(path, embedding_net, cfg):
    write_params(path, "embedding", dataclasses.asdict(cfg), _gather(embedding_net))


def load_pretrained_embedding(model, path):
    """Overwrite a joint model's embedding network with pretrained weights.

    The checkpoint's architecture must agree with the model's on every field
    the embedding network reads. The weights are copied into the model's
    arena, so the model must be allocated (initialized) first.
    """
    if model.embedding_net is None:
        raise CheckpointError("model is dense; it has no embedding network to load into")
    kind, config, params = read_params(path)
    if kind != "embedding":
        raise CheckpointError(f"{path}: expected an embedding checkpoint, found {kind!r}")
    stored = _model_config(path, config)
    for field in ("feat_dim", "d_emb", "d_ff", "heads", "kernel", "embedding_blocks", "vocab_size"):
        if getattr(stored, field) != getattr(model.cfg, field):
            raise CheckpointError(
                f"{path}: embedding architecture mismatch on {field}:"
                f" {getattr(stored, field)} vs {getattr(model.cfg, field)}"
            )
    if model.arena is None:
        raise ValueError("model has no parameter storage; initialize it before loading")
    _restore(model.embedding_net, params, path)


def strip_auxiliary(src, dst):
    """Copy a model checkpoint without auxiliary decoders (num_levels=1).

    Every surviving parameter is byte-identical to the source; only the
    train-only heads disappear, so decoding behavior cannot change.
    """
    kind, config, params = read_params(src)
    if kind != "model":
        raise CheckpointError(f"{src}: expected a model checkpoint, found {kind!r}")
    config = dataclasses.replace(_model_config(src, config), num_levels=1)
    kept = {k: v for k, v in params.items() if not k.startswith("aux_decoders.")}
    write_params(dst, "model", dataclasses.asdict(config), kept)
