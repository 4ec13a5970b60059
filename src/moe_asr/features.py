"""Feature ingestion and augmentation.

Utterances arrive as precomputed [T x D] feature matrices (log-Mel-like,
D=80 by default) referenced from a JSON-lines manifest. This module owns
the binary feature format, global mean/variance normalization, SpecAugment
masking, and a deterministic synthetic corpus generator so the whole
pipeline runs with no external data.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATS_MAGIC = b"FB01"


class ManifestError(ValueError):
    """Raised for malformed manifest or hyps-file lines or inconsistent
    references."""


@dataclass
class FeatureSequence:
    """One utterance: id, [T x D] float64 features, and token-id transcript."""

    utt_id: str
    feats: np.ndarray
    tokens: list

    def __post_init__(self):
        self.feats = np.asarray(self.feats, dtype=np.float64)
        if self.feats.ndim != 2 or self.feats.shape[0] < 1:
            raise ValueError(f"{self.utt_id}: features must be [T x D] with T >= 1")
        if not np.all(np.isfinite(self.feats)):
            raise ValueError(f"{self.utt_id}: non-finite feature values")
        self.tokens = [int(t) for t in self.tokens]


@dataclass
class CmvnStats:
    """Per-dimension corpus mean and variance plus the frame count behind them."""

    mean: np.ndarray
    var: np.ndarray
    frames: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if self.mean.shape != self.var.shape or self.mean.ndim != 1:
            raise ValueError("mean and var must be matching 1-D arrays")
        if np.any(self.var < 0) or self.frames <= 0:
            raise ValueError("variance must be >= 0 and frame count > 0")


class UtteranceHandle:
    """Lazy manifest entry; the feature matrix is read on first load()."""

    __slots__ = ("utt_id", "feats_path", "tokens")

    def __init__(self, utt_id, feats_path, tokens):
        self.utt_id = utt_id
        self.feats_path = feats_path
        self.tokens = tokens

    def load(self):
        path = Path(self.feats_path)
        if not path.exists():
            raise FileNotFoundError(
                f"utterance {self.utt_id}: feature file missing: {path}"
            )
        return FeatureSequence(self.utt_id, read_feats(path), self.tokens)


def read_json_lines(path, keys):
    """``(line number, object)`` for each non-blank line of the JSON-lines
    file `path` (a manifest, or a hyps file ``score`` reads), in file order.
    A line that is not a JSON object holding every key of `keys`, or whose
    ``tokens`` is not a list of non-negative ints, raises ManifestError
    naming ``path:line``."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict) or not set(keys) <= set(obj):
                raise ManifestError(f"{path}:{lineno}: expected keys {', '.join(keys)}")
            tokens = obj["tokens"]
            if not isinstance(tokens, list) or any(
                not isinstance(t, int) or isinstance(t, bool) or t < 0 for t in tokens
            ):
                raise ManifestError(
                    f"{path}:{lineno}: tokens must be non-negative integers"
                )
            entries.append((lineno, obj))
    return entries


def load_manifest(path):
    """Parse a JSON-lines manifest into lazy utterance handles, in file order."""
    handles, first_line = [], {}
    for lineno, obj in read_json_lines(path, ("utt_id", "feats_path", "tokens")):
        utt_id = str(obj["utt_id"])
        if first_line.setdefault(utt_id, lineno) != lineno:
            first = first_line[utt_id]
            raise ManifestError(f"{path}:{lineno}: utt_id {utt_id!r} repeats line {first}")
        # Relative paths are resolved against the manifest's directory so
        # a corpus can be moved or regenerated elsewhere byte-identically.
        feats_path = Path(str(obj["feats_path"]))
        if not feats_path.is_absolute():
            feats_path = Path(path).parent / feats_path
        handles.append(UtteranceHandle(utt_id, str(feats_path), obj["tokens"]))
    return handles


def write_feats(path, feats):
    """Write a [T x D] matrix as magic + u32 T + u32 D + float32 LE payload."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {feats.shape}")
    T, D = feats.shape
    with open(path, "wb") as fh:
        fh.write(FEATS_MAGIC)
        fh.write(struct.pack("<II", T, D))
        fh.write(feats.astype("<f4").tobytes())


def read_feats(path):
    """Read the binary feature format back as float64."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != FEATS_MAGIC:
            raise ValueError(f"{path}: bad magic {head[:4]!r}, expected {FEATS_MAGIC!r}")
        if len(head) != 12:
            raise ValueError(f"{path}: truncated header ({len(head)} bytes)")
        T, D = struct.unpack("<4xII", head)
        # The header is checked against the file size before anything is
        # read, so a corrupt T or D cannot ask for a giant buffer.
        need, have = 4 * T * D, os.fstat(fh.fileno()).st_size - len(head)
        if need > have:
            raise ValueError(f"{path}: truncated payload ({have} of {need} bytes)")
        return np.frombuffer(fh.read(need), dtype="<f4").astype(np.float64).reshape(T, D)


def compute_cmvn(sequences):
    """Global per-dimension mean/variance over all frames of the given utterances.

    Two-pass (mean first, then centered second moments) so the result matches
    the textbook definition without cancellation error.
    """
    mats = [np.asarray(s.feats, dtype=np.float64) for s in sequences]
    if not mats:
        raise ValueError("cannot compute normalization stats from zero utterances")
    frames = sum(m.shape[0] for m in mats)
    dim = mats[0].shape[1]
    total = np.zeros(dim)
    for m in mats:
        total += m.sum(axis=0)
    mean = total / frames
    sq = np.zeros(dim)
    for m in mats:
        c = m - mean
        sq += (c * c).sum(axis=0)
    var = sq / frames
    return CmvnStats(mean=mean, var=np.maximum(var, 0.0), frames=frames)


def save_cmvn(stats, path):
    write_json(path, {"mean": stats.mean.tolist(), "var": stats.var.tolist(),
                      "frames": stats.frames})


def write_json(path, obj):
    """Every JSON artifact: `obj` indented by 2, then a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_cmvn(path):
    """The stats of a cmvn.json, indented or, as older corpora's, on one line."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return CmvnStats(mean=obj["mean"], var=obj["var"], frames=int(obj["frames"]))


def apply_cmvn(seq, stats):
    """Normalize: out[t,d] = (in[t,d] - mean[d]) / sqrt(var[d] + 1e-9)."""
    if stats.mean.shape[0] != seq.feats.shape[1]:
        raise ValueError(
            f"{seq.utt_id}: stats dimension {stats.mean.shape[0]} != feature dim {seq.feats.shape[1]}"
        )
    scale = 1.0 / np.sqrt(stats.var + 1e-9)
    return FeatureSequence(seq.utt_id, (seq.feats - stats.mean) * scale, seq.tokens)


def load_normalized_split(data_dir, split):
    """Load every utterance of '<split>.jsonl' under a corpus directory and
    apply the corpus CMVN, in manifest order."""
    data_dir = Path(data_dir)
    stats = load_cmvn(data_dir / "cmvn.json")
    return [apply_cmvn(h.load(), stats) for h in load_manifest(data_dir / f"{split}.jsonl")]


MASK_WIDTH = 10  # widest SpecAugment band, sized for the short synthetic utterances


def spec_augment(seq, rng):
    """Zero out two random frequency bands and two time spans (training only).

    Each band is up to ``min(MASK_WIDTH, feature dim)`` dims wide, each span
    up to ``MASK_WIDTH`` frames. Widths are uniform integers inclusive of zero (a
    zero-width draw leaves the input untouched); positions uniform over
    valid offsets. The fill value 0.0 equals the corpus mean after
    normalization. Frequency masks are drawn before time masks so a fixed
    rng gives bit-identical output.
    """
    T, D = seq.feats.shape
    F = min(MASK_WIDTH, D)
    out = seq.feats.copy()
    for _ in range(2):
        w = int(rng.integers(0, F + 1))
        start = int(rng.integers(0, D - w + 1))
        out[:, start : start + w] = 0.0
    for _ in range(2):
        w = min(int(rng.integers(0, MASK_WIDTH + 1)), T)
        start = int(rng.integers(0, T - w + 1))
        out[start : start + w, :] = 0.0
    return FeatureSequence(seq.utt_id, out, seq.tokens)


def utterance_rng(seed, name, lane=0):
    """The one random stream, keyed by (seed, crc32 of `name`, lane):
    SpecAugment's per utterance and epoch, ``nn``'s per dotted name.

    Independent of iteration order, so shuffling or parallel loading cannot
    change which cells a given epoch masks.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8")), int(lane)])
    )


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def _token_pattern(token, vocab_size, dim):
    """Each token owns a contiguous band of feature dimensions at high energy."""
    band = max(dim // vocab_size, 1)
    pattern = np.zeros(dim)
    start = (token * band) % max(dim - band + 1, 1)
    pattern[start : start + band] = 3.0
    return pattern


def synthesize_utterance(rng, tokens, vocab_size, dim):
    """Token-conditioned feature blocks with silence gaps and mild noise.

    Lengths are chosen so a 4x temporal subsampling still leaves enough
    frames for every feasible CTC alignment (tokens plus repeated-token
    blanks) with margin.
    """
    pieces = [np.zeros((int(rng.integers(4, 9)), dim))]
    for i, tok in enumerate(tokens):
        if i > 0:
            pieces.append(np.zeros((int(rng.integers(2, 5)), dim)))
        hold = int(rng.integers(8, 13))
        pieces.append(np.tile(_token_pattern(tok, vocab_size, dim), (hold, 1)))
    pieces.append(np.zeros((int(rng.integers(4, 9)), dim)))
    feats = np.concatenate(pieces, axis=0)
    feats += rng.normal(scale=0.3, size=feats.shape)
    return feats


def generate_corpus(out_dir, num_utts, vocab_size, seed, feat_dim=80):
    """Write a deterministic synthetic corpus: features, manifests, CMVN stats.

    Split is 90/10 by utterance index (every 10th utterance is dev); CMVN
    comes from the train split only. Returns a summary dict which is also
    saved as corpus.json.
    """
    out = Path(out_dir)
    (out / "feats").mkdir(parents=True, exist_ok=True)
    train_rows, dev_rows, train_seqs = [], [], []
    for i in range(num_utts):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        n_tokens = int(rng.integers(3, 9))
        tokens = [int(t) for t in rng.integers(0, vocab_size, size=n_tokens)]
        feats = synthesize_utterance(rng, tokens, vocab_size, feat_dim)
        utt_id = f"utt{i:04d}"
        feats_path = out / "feats" / f"{utt_id}.fb"
        write_feats(feats_path, feats)
        row = {"utt_id": utt_id, "feats_path": f"feats/{utt_id}.fb", "tokens": tokens}
        if i % 10 == 9:
            dev_rows.append(row)
        else:
            train_rows.append(row)
            train_seqs.append(FeatureSequence(utt_id, feats, tokens))

    for name, rows in (("train.jsonl", train_rows), ("dev.jsonl", dev_rows)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    save_cmvn(compute_cmvn(train_seqs), out / "cmvn.json")
    summary = {
        "num_utts": num_utts,
        "vocab_size": vocab_size,
        "feat_dim": feat_dim,
        "seed": seed,
        "train_utts": len(train_rows),
        "dev_utts": len(dev_rows),
    }
    write_json(out / "corpus.json", summary)
    return summary
