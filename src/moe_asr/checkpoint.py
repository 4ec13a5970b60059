"""Checkpoint container: a JSON header plus the parameter arena's image.

Layout: 4-byte magic "3MCK", little-endian u32 header length, UTF-8 JSON
header (kind "model" or "embedding", architecture config, which a loader
reads with ``config.from_dict``, and each parameter's name/shape/byte offset
as its ``nn.Arena`` lays them out), then the arena's ``data`` buffer as
little-endian float64. The entries tile the body (from byte 0, each where
the last ends, no name twice, to its end), and a loader requires them to
equal its arena's layout before it reads the body from the file straight
into the arena in one read call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import struct

import numpy as np

from .config import ModelConfig, from_dict
from .model import SpeechModel

MAGIC = b"3MCK"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


def _write(path, kind, config, module):
    """Write a root module's arena layout and then, in one write, its body.

    The file appears at ``path`` whole or not at all: it is written to a
    temporary file in the same directory and renamed over the target.
    """
    if module.arena is None:
        raise ValueError(f"{type(module).__name__} has no parameter arena of its own to save")
    layout, body = module.arena.layout()
    entries = _entries(layout)
    header = {"format": FORMAT_VERSION, "kind": kind, "config": dict(config), "params": entries}
    header_bytes = json.dumps(header).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(np.ascontiguousarray(body, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _entries(layout):
    return [{"name": name, "shape": list(shape), "offset": 8 * at} for name, shape, at in layout]


@contextlib.contextmanager
def _read(path, kind):
    """Open a checkpoint of `kind` ("model" or "embedding") and check its
    header, kind included; yields (ModelConfig, entries, read_body). The
    header config is read once, by ``config.from_dict``, and whatever that
    refuses is named with the file. The entries tile the body.
    ``read_body(out)`` reads the body's first ``out.size`` values straight
    into the contiguous float64 array ``out``, so the file's bytes are never
    held a second time."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (header_len,) = struct.unpack("<I", head[4:8])
        raw = fh.read(header_len)
        if len(raw) < header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if type(header.get("format")) is not int or header["format"] != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format {header.get('format')}")
        if header.get("kind") != kind:
            article = "an" if kind == "embedding" else "a"
            raise CheckpointError(f"{path}: expected {article} {kind} checkpoint,"
                                  f" found {header.get('kind')!r}")
        entries = header.get("params")
        if not isinstance(entries, list) or not isinstance(header.get("config"), dict):
            raise CheckpointError(f"{path}: header lacks a config or a params list")
        end, names = 0, set()
        for entry in entries:
            try:
                name, shape, start = entry["name"], tuple(entry["shape"]), entry["offset"]
            except (KeyError, TypeError) as exc:
                raise CheckpointError(f"{path}: malformed parameter entry {entry!r}") from exc
            if type(name) is not str or not all(type(v) is int and v >= 0 for v in (start, *shape)):
                raise CheckpointError(f"{path}: bad shape {shape} or offset {start} for {name!r}")
            if name in names or start != end:
                raise CheckpointError(f"{path}: entry {name} at byte {start} repeats a name or"
                                      f" does not start where the previous one ends ({end})")
            names.add(name)
            end = start + 8 * math.prod(shape)
        size = os.fstat(fh.fileno()).st_size - 8 - header_len
        if end != size:
            raise CheckpointError(f"{path}: {'truncated data' if end > size else 'trailing bytes'}:"
                                  f" the entries end at byte {end}, the body at {size}")
        try:
            config = from_dict(ModelConfig, header["config"])
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc

        def read_body(out):
            # a buffered file's readinto reads until `out` is full or the file ends
            if fh.readinto(memoryview(out).cast("B")) != out.nbytes:
                raise CheckpointError(f"{path}: truncated data")
            if not np.little_endian:
                out.byteswap(inplace=True)

        yield config, entries, read_body


def _span(path, arena, entries, prefix=""):
    """The arena's span under ``prefix``, once the entries equal its layout."""
    layout, data = arena.layout(prefix)
    for i, (want, found) in enumerate(itertools.zip_longest(_entries(layout), entries)):
        if want != found:
            raise CheckpointError(f"{path}: entry {i} should be {want}, found {found}")
    return data


def save_model(path, model):
    _write(path, "model", dataclasses.asdict(model.cfg), model)


def load_model(path):
    """Rebuild a SpeechModel from a checkpoint; the body is read bit-exactly
    straight into a freshly allocated arena, whose layout the entries must
    equal.

    Dropout generators are left unseeded: call seed_dropout before resuming
    training, or eval() for inference.
    """
    with _read(path, "model") as (config, entries, read_body):
        model = SpeechModel(config).allocate()
        read_body(_span(path, model.arena, entries))
    return model


def save_embedding(path, embedding_net, cfg):
    _write(path, "embedding", dataclasses.asdict(cfg), embedding_net)


def load_pretrained_embedding(model, path):
    """Overwrite a joint model's embedding network with pretrained weights.

    CheckpointError when the model is dense (no embedding network) or the
    checkpoint's architecture differs from the model's on a field the
    embedding network reads. The body is read into the model arena's
    ``embedding_net.`` span, so the model must be allocated (initialized)
    first.
    """
    cfg = model.cfg
    if not cfg.routed:
        raise CheckpointError("model is dense; it has no embedding network to load into")
    with _read(path, "embedding") as (stored, entries, read_body):
        for field in ("feat_dim", "d_emb", "d_ff", "heads", "kernel", "embedding_blocks",
                      "vocab_size"):
            if getattr(stored, field) != getattr(cfg, field):
                raise CheckpointError(
                    f"{path}: embedding architecture mismatch on {field}:"
                    f" {getattr(stored, field)} vs {getattr(cfg, field)}"
                )
        if model.arena is None:
            raise ValueError("model has no parameter storage; initialize it before loading")
        read_body(_span(path, model.arena, entries, "embedding_net."))


def strip_auxiliary(src, dst):
    """Copy a model checkpoint without auxiliary decoders (num_levels=1).

    The auxiliary decoders are the arena's tail, so the lean layout must be
    the leading entries, and every surviving parameter is kept byte for byte:
    only the body's leading bytes are read, into the lean model's arena.
    """
    with _read(src, "model") as (config, entries, read_body):
        lean = SpeechModel(dataclasses.replace(config, num_levels=1)).allocate()
        read_body(_span(src, lean.arena, entries[: len(lean.arena.params)]))
    save_model(dst, lean)
