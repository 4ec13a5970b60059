"""Command-line surface: prepare, pretrain-embedding, train, decode, score,
flops.

Every config field is also a long flag (underscores become dashes); a
field's value comes from its flag, else the --config file, else (for
vocab_size and feat_dim) the prepared corpus, else its default, and
``config.from_dict`` reads each section. A key or value it refuses, a model
that cannot read the corpus (``_check_fits_corpus``), an --embedding
checkpoint that does not load into it (``load_pretrained_embedding``), a
split that train, pretrain-embedding, decode or score cannot read (its
manifest, the corpus CMVN or a feature file), a hyps file score refuses,
a --config model section given to decode, or an --out holding files
stops a command before it writes anything, so its corrected rerun may use
the same --out. Each command starts its run directory with
``_start_run``: the resolved config sections in config.json (for the
commands that take any) and, when it ends, run_manifest.json. Timestamps
live only in the manifest, so every other artifact is byte-reproducible
from equal inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .checkpoint import load_model
from .config import FIELD_TYPES, DecodeConfig, ModelConfig, TrainConfig, from_dict
from .encoder import EmbeddingNetwork
from .features import (
    generate_corpus,
    load_manifest,
    load_normalized_split,
    read_json_lines,
    write_json,
)
from .inference import cost_report, decode_nbest, format_cost_table, score_corpus
from .tensor import Tensor
from .training import joint_model, run_joint_training, run_pretraining

_CONFIG_SECTIONS = (("model", ModelConfig), ("train", TrainConfig), ("decode", DecodeConfig))


def _add_config_flags(parser, sections):
    for section, cls in _CONFIG_SECTIONS:
        if section not in sections:
            continue
        group = parser.add_argument_group(f"{section} config overrides")
        for field in dataclasses.fields(cls):
            group.add_argument("--" + field.name.replace("_", "-"),
                               type=FIELD_TYPES[field.type], default=None)


def _read_config(path):
    """The sections of a --config file, each checked to be a known section
    holding an object, whether or not the command uses it."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: not a JSON object of config sections")
    known = [section for section, _ in _CONFIG_SECTIONS]
    for section, body in raw.items():
        if section not in known:
            raise ValueError(f"{path}: unknown section {section!r}, expected one of {known}")
        if not isinstance(body, dict):
            raise ValueError(f"{path}: section {section!r} is not a JSON object")
    return raw


def _corpus_defaults(data_dir):
    """Model fields implied by the corpus inventory.

    Model vocabulary = corpus token inventory plus the sos/eos symbol.
    """
    with open(Path(data_dir) / "corpus.json", "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    return {"vocab_size": int(summary["vocab_size"]) + 1, "feat_dim": int(summary["feat_dim"])}


def _check_fits_corpus(model_cfg, data_dir, vocab=True):
    """ValueError, naming the field and both values, unless a model of
    `model_cfg` reads the corpus in data_dir: the same feat_dim and, with
    `vocab`, a vocabulary holding every corpus token plus sos/eos."""
    corpus = _corpus_defaults(data_dir)
    if model_cfg.feat_dim != corpus["feat_dim"]:
        raise ValueError(f"feat_dim {model_cfg.feat_dim} does not match the corpus feat_dim"
                         f" {corpus['feat_dim']}")
    if vocab and model_cfg.vocab_size < corpus["vocab_size"]:
        raise ValueError(f"vocab_size {model_cfg.vocab_size} is below {corpus['vocab_size']},"
                         " the corpus token inventory plus sos/eos")


def _resolve(args, sections, data_dir=None):
    """(ModelConfig, TrainConfig, DecodeConfig), None for a section the
    command does not need.

    Each field takes its value from the first of: its flag, its section of
    the --config file, and, for the model's vocab_size and feat_dim only,
    the corpus in data_dir; the dataclass default otherwise. A --config
    model section for a command that takes no model settings (decode's
    model comes from the checkpoint) could not take effect: an error.
    """
    file = _read_config(args.config)
    if "model" in file and "model" not in sections:
        raise ValueError(f"{args.config}: section 'model' cannot take effect in"
                         f" {args.command}, whose model comes from the checkpoint")
    resolved = []
    for section, cls in _CONFIG_SECTIONS:
        if section not in sections:
            resolved.append(None)
            continue
        values = _corpus_defaults(data_dir) if section == "model" and data_dir else {}
        values.update(file.get(section, {}))
        for field in dataclasses.fields(cls):
            if getattr(args, field.name) is not None:
                values[field.name] = getattr(args, field.name)
        if section == "model" and "vocab_size" not in values:
            raise ValueError("vocab_size is unset: pass --vocab-size, --data with a prepared"
                             " corpus, or model.vocab_size in the --config file")
        resolved.append(from_dict(cls, values))
    return tuple(resolved)


def _start_run(args, config, seed=None):
    """Make the run directory ``args.out``; returns (directory, finish).

    An ``args.out`` holding files would mix two runs: it is refused. The
    dataclass values of `config` are the run's config sections, written
    to config.json when there are any. ``finish(**outputs)`` writes
    run_manifest.json: the command, `config` with each section as written,
    the seed, the start and finish times and `outputs`.
    """
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()):
        raise FileExistsError(f"{out} already holds files: each run needs a new or empty --out")
    out.mkdir(parents=True, exist_ok=True)
    sections = {k: dataclasses.asdict(v) for k, v in config.items() if dataclasses.is_dataclass(v)}
    if sections:
        write_json(out / "config.json", sections)
    body = {"command": args.command, "config": {k: sections.get(k, v) for k, v in config.items()},
            "seed": seed, "started": datetime.now(timezone.utc).isoformat()}

    def finish(**outputs):
        body["finished"] = datetime.now(timezone.utc).isoformat()
        body["outputs"] = outputs
        write_json(out / "run_manifest.json", body)

    return out, finish


def cmd_prepare(args):
    if args.num_utts < 10:
        raise ValueError(f"--num-utts must be >= 10 to fill the dev split, got {args.num_utts}")
    for flag, value, least in (("--vocab-size", args.vocab_size, 1),
                               ("--feat-dim", args.feat_dim, 1), ("--seed", args.seed, 0)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    out, finish = _start_run(args, {"num_utts": args.num_utts, "vocab_size": args.vocab_size,
                                    "feat_dim": args.feat_dim}, args.seed)
    summary = generate_corpus(out, args.num_utts, args.vocab_size, args.seed,
                              feat_dim=args.feat_dim)
    finish(corpus="corpus.json")
    print(f"prepared {summary['train_utts']} train / {summary['dev_utts']} dev utterances"
          f" in {out}")
    return 0


def cmd_pretrain_embedding(args):
    model_cfg, train_cfg, _ = _resolve(args, ("model", "train"), args.data)
    _check_fits_corpus(model_cfg, args.data)
    train_seqs, dev_seqs = (load_normalized_split(args.data, s) for s in ("train", "dev"))
    out, finish = _start_run(args, {"model": model_cfg, "train": train_cfg}, train_cfg.seed)
    net = EmbeddingNetwork(model_cfg).initialize(train_cfg.seed)
    records, final = run_pretraining(net, train_seqs, dev_seqs, model_cfg, train_cfg, out)
    finish(embedding="embedding.ckpt", metrics="metrics.jsonl", checkpoints=len(records))
    print(f"pretraining finished: eval ctc {final.eval_ctc:.4f} nats/utt"
          f" at step {final.step}")
    return 0


def cmd_train(args):
    model_cfg, train_cfg, _ = _resolve(args, ("model", "train"), args.data)
    _check_fits_corpus(model_cfg, args.data)
    train_seqs, dev_seqs = (load_normalized_split(args.data, s) for s in ("train", "dev"))
    model = joint_model(model_cfg, train_cfg, args.embedding)
    out, finish = _start_run(args, {"model": model_cfg, "train": train_cfg}, train_cfg.seed)
    records, final = run_joint_training(model, train_seqs, dev_seqs, train_cfg, out)
    finish(final="final.ckpt", metrics="metrics.jsonl", checkpoints=len(records),
           final_step=final.step)
    print(f"training finished: best eval ctc {final.eval_ctc:.4f} nats/utt"
          f" at step {final.step}")
    return 0


def cmd_decode(args):
    _, _, decode_cfg = _resolve(args, ("decode",))
    model = load_model(args.checkpoint).eval()
    _check_fits_corpus(model.cfg, args.data, vocab=False)
    seqs = load_normalized_split(args.data, args.split)
    out, finish = _start_run(args, {"model": model.cfg, "decode": decode_cfg,
                                    "checkpoint": str(args.checkpoint), "split": args.split})
    with open(out / "nbest.jsonl", "w", encoding="utf-8") as fh:
        for seq in seqs:
            hyps = decode_nbest(model, Tensor(seq.feats), decode_cfg.beam,
                                decode_cfg.nbest, decode_cfg.mu)
            best = hyps[0]
            fh.write(json.dumps({
                "utt_id": seq.utt_id,
                "tokens": best.tokens,
                "ctc_score": best.ctc_score,
                "aed_score": best.aed_score,
                "combined": best.combined,
                "nbest": [dataclasses.asdict(h) for h in hyps],
            }) + "\n")
    finish(nbest="nbest.jsonl", utterances=len(seqs))
    print(f"decoded {len(seqs)} utterances from the {args.split} split")
    return 0


def cmd_score(args):
    references = {h.utt_id: h.tokens for h in
                  load_manifest(Path(args.data) / f"{args.split}.jsonl")}
    triples, scored = [], set()
    for lineno, obj in read_json_lines(args.hyps, ("utt_id", "tokens")):
        utt_id, where = str(obj["utt_id"]), f"{args.hyps}:{lineno}"
        if utt_id not in references:
            raise ValueError(f"{where}: {utt_id} not present in the {args.split} manifest")
        if utt_id in scored:
            raise ValueError(f"{where}: {utt_id} appears more than once")
        scored.add(utt_id)
        triples.append((utt_id, references[utt_id], obj["tokens"]))
    # an utterance the hyps file leaves out counts as decoded to nothing
    missing = sorted(set(references) - scored)
    triples += [(utt_id, references[utt_id], []) for utt_id in missing]
    corpus_cer, results = score_corpus(triples)
    out, finish = _start_run(args, {"hyps": str(args.hyps), "split": args.split})
    write_json(out / "report.json", {
        "corpus_cer": corpus_cer,
        "missing": missing,
        "utterances": [
            {"utt_id": r.utt_id, "reference": r.reference, "hypothesis": r.hypothesis,
             "distance": r.distance, "ref_len": r.ref_len, "cer": r.cer}
            for r in results
        ],
    })
    finish(report="report.json", scored=len(results), missing=len(missing))
    print(f"corpus CER {corpus_cer:.4f} over {len(results)} utterances"
          f" ({len(missing)} missing from the hyps file, scored as empty)")
    return 0


def cmd_flops(args):
    model_cfg, _, _ = _resolve(args, ("model",), args.data)
    report = cost_report(model_cfg)
    name = "dense" if model_cfg.num_experts == 0 else f"{model_cfg.num_experts}e"
    out, finish = _start_run(args, {"model": model_cfg})
    write_json(out / "report.json", dict(dataclasses.asdict(report), model=name))
    finish(report="report.json")
    print(format_cost_table(name, report))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="moe-asr",
        description="Desk-scale mixture-of-experts speech recognizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="generate the synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--num-utts", type=int, required=True,
                   help="at least 10; every 10th utterance goes to the dev split")
    p.add_argument("--vocab-size", type=int, required=True,
                   help="data token inventory (the model adds one sos/eos id)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feat-dim", type=int, default=80)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("pretrain-embedding", help="CTC-pretrain the embedding stack")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_config_flags(p, ("model", "train"))
    p.set_defaults(func=cmd_pretrain_embedding)

    p = sub.add_parser("train", help="joint CTC/AED training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--embedding", default=None,
                   help="pretrained embedding checkpoint to initialize from")
    _add_config_flags(p, ("model", "train"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="CTC N-best + attention rescoring")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="dev")
    p.add_argument("--config", default=None)
    _add_config_flags(p, ("decode",))
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="CER against a reference manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--hyps", required=True, help="nbest.jsonl from decode")
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="dev")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("flops", help="parameter and FLOPs accounting")
    p.add_argument("--out", required=True)
    p.add_argument("--data", default=None,
                   help="corpus directory, used to infer vocab size")
    p.add_argument("--config", default=None)
    _add_config_flags(p, ("model",))
    p.set_defaults(func=cmd_flops)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-parseable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
