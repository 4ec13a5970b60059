"""Subcommand behavior: artifacts, overrides, determinism, failure modes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from moe_asr.cli import build_parser, main
from moe_asr.config import DecodeConfig

TINY_MODEL = [
    "--d-att", "16", "--d-ff", "24", "--heads", "2", "--kernel", "3",
    "--num-blocks", "3", "--decoder-blocks", "1", "--d-emb", "8",
    "--embedding-blocks", "1",
]
TINY_TRAIN = ["--max-steps", "4", "--eval-every", "10", "--warmup-steps", "50"]


def prepare(tmp_path, num=14, vocab=4, seed=3, feat_dim=10):
    data = tmp_path / "data"
    assert main(["prepare", "--out", str(data), "--num-utts", str(num),
                 "--vocab-size", str(vocab), "--seed", str(seed),
                 "--feat-dim", str(feat_dim)]) == 0
    return data


class TestPrepare:
    def test_artifacts_and_split(self, tmp_path):
        data = prepare(tmp_path, num=50, vocab=10)
        for name in ("train.jsonl", "dev.jsonl", "cmvn.json", "corpus.json",
                     "run_manifest.json"):
            assert (data / name).exists(), name
        assert len((data / "train.jsonl").read_text().splitlines()) == 45
        assert len((data / "dev.jsonl").read_text().splitlines()) == 5

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        a = prepare(tmp_path / "a", num=8)
        b = prepare(tmp_path / "b", num=8)
        for rel in ("train.jsonl", "cmvn.json", "feats/utt0000.fb", "feats/utt0003.fb"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestTrain:
    def test_dense_run_artifacts(self, tmp_path):
        data = prepare(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run),
                     *TINY_MODEL, *TINY_TRAIN]) == 0
        for name in ("config.json", "metrics.jsonl", "final.ckpt", "final.json",
                     "run_manifest.json"):
            assert (run / name).exists(), name
        config = json.loads((run / "config.json").read_text())
        assert config["model"]["vocab_size"] == 5  # corpus inventory + sos/eos
        assert not (run / "routing.jsonl").exists()

    def test_routed_run_writes_routing_log(self, tmp_path):
        data = prepare(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run),
                     *TINY_MODEL, *TINY_TRAIN, "--num-experts", "2"]) == 0
        lines = (run / "routing.jsonl").read_text().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert {"block", "utilization", "entropy", "sparsity", "importance"} <= set(
            first["layers"][0]
        )

    def test_eta_flag_zeroes_attention_weight(self, tmp_path):
        """--eta 1.0 leaves the decoder losses reported but unweighted."""
        data = prepare(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run),
                     *TINY_MODEL, *TINY_TRAIN, "--eta", "1.0"]) == 0
        for raw in (run / "metrics.jsonl").read_text().splitlines():
            line = json.loads(raw)
            assert line["loss"] == line["ctc"]
            assert line["aed_sum"] > 0

    def test_config_file_with_flag_override(self, tmp_path):
        data = prepare(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": {"d_att": 16, "d_ff": 24, "heads": 2, "kernel": 3,
                      "num_blocks": 3, "decoder_blocks": 1, "d_emb": 8,
                      "embedding_blocks": 1, "num_experts": 2},
            "train": {"max_steps": 2, "eval_every": 10, "warmup_steps": 50},
        }))
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run),
                     "--config", str(cfg_path), "--num-experts", "0",
                     "--max-steps", "3"]) == 0
        config = json.loads((run / "config.json").read_text())
        assert config["model"]["num_experts"] == 0
        assert config["train"]["max_steps"] == 3
        assert len((run / "metrics.jsonl").read_text().splitlines()) == 3

    def test_default_augmentation_trains_on_narrow_features(self, tmp_path):
        """Frequency masks are capped at the feature dim, so default
        SpecAugment runs on features narrower than its width of 10."""
        data = prepare(tmp_path, feat_dim=8)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run),
                     *TINY_MODEL, *TINY_TRAIN, "--max-steps", "2"]) == 0
        config = json.loads((run / "config.json").read_text())
        assert config["model"]["feat_dim"] == 8 and config["train"]["augment"]
        assert len((run / "metrics.jsonl").read_text().splitlines()) == 2

    def test_reruns_reproduce_everything_but_timestamps(self, tmp_path):
        data = prepare(tmp_path)
        runs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            assert main(["train", "--data", str(data), "--out", str(run),
                         *TINY_MODEL, *TINY_TRAIN, "--num-experts", "2"]) == 0
            runs.append(run)
        for rel in ("metrics.jsonl", "routing.jsonl", "config.json", "final.ckpt"):
            assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes(), rel
        manifests = [json.loads((r / "run_manifest.json").read_text()) for r in runs]
        for m in manifests:
            m.pop("started"), m.pop("finished")
        assert manifests[0] == manifests[1]


class TestPipeline:
    def test_pretrain_decode_score_chain(self, tmp_path):
        data = prepare(tmp_path, num=14)
        pre = tmp_path / "pre"
        assert main(["pretrain-embedding", "--data", str(data), "--out", str(pre),
                     *TINY_MODEL, *TINY_TRAIN]) == 0
        assert (pre / "embedding.ckpt").exists()

        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run),
                     *TINY_MODEL, *TINY_TRAIN, "--num-experts", "2",
                     "--embedding", str(pre / "embedding.ckpt")]) == 0

        dec = tmp_path / "dec"
        assert main(["decode", "--data", str(data),
                     "--checkpoint", str(run / "final.ckpt"), "--out", str(dec),
                     "--split", "dev", "--beam", "4", "--nbest", "2"]) == 0
        lines = [json.loads(l) for l in (dec / "nbest.jsonl").read_text().splitlines()]
        dev_count = len((data / "dev.jsonl").read_text().splitlines())
        assert len(lines) == dev_count
        for line in lines:
            assert {"utt_id", "tokens", "ctc_score", "aed_score", "combined",
                    "nbest"} <= set(line)
            assert len(line["nbest"]) <= 2
            assert line["combined"] == max(h["combined"] for h in line["nbest"])

        sc = tmp_path / "sc"
        assert main(["score", "--data", str(data), "--hyps", str(dec / "nbest.jsonl"),
                     "--out", str(sc), "--split", "dev"]) == 0
        report = json.loads((sc / "report.json").read_text())
        assert 0.0 <= report["corpus_cer"]
        assert len(report["utterances"]) == dev_count


class TestFlops:
    def test_reports_identical_across_expert_counts(self, tmp_path):
        reports = []
        for n in ("16", "64"):
            out = tmp_path / f"n{n}"
            assert main(["flops", "--out", str(out), "--vocab-size", "11",
                         "--d-att", "32", "--d-ff", "48", "--heads", "2",
                         "--kernel", "3", "--num-blocks", "6",
                         "--num-experts", n]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        assert reports[0]["flops"] == reports[1]["flops"]
        assert reports[0]["total_flops"] == reports[1]["total_flops"]
        assert reports[0]["params"] < reports[1]["params"]

    def test_table_printed(self, tmp_path, capsys):
        assert main(["flops", "--out", str(tmp_path / "out"), "--vocab-size", "11",
                     "--d-att", "32", "--d-ff", "48", "--heads", "2",
                     "--kernel", "3", "--num-blocks", "6"]) == 0
        printed = capsys.readouterr().out
        assert "model" in printed and "params" in printed and "dense" in printed


class TestConfigResolution:
    def _flops_model(self, tmp_path, *extra):
        out = tmp_path / "cost"
        assert main(["flops", "--out", str(out), *extra]) == 0
        return json.loads((out / "config.json").read_text())["model"]

    def test_flag_beats_file_beats_corpus(self, tmp_path):
        data = prepare(tmp_path, feat_dim=10)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"feat_dim": 12}}))
        from_corpus = self._flops_model(tmp_path / "a", "--data", str(data))
        from_file = self._flops_model(tmp_path / "b", "--data", str(data),
                                      "--config", str(cfg_path))
        from_flag = self._flops_model(tmp_path / "c", "--data", str(data),
                                      "--config", str(cfg_path), "--feat-dim", "14")
        assert [m["feat_dim"] for m in (from_corpus, from_file, from_flag)] == [10, 12, 14]
        assert {m["vocab_size"] for m in (from_corpus, from_file, from_flag)} == {5}

    def test_removed_training_knob_is_rejected_by_name(self, tmp_path, capsys):
        data = prepare(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"grad_clip": 5.0}}))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path)]) == 1
        assert "grad_clip" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                  "--adam-eps", "1e-8"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command, body, section", [
        ("flops", [1], None),
        ("flops", {"decode": [1]}, "decode"),
        ("flops", {"model": "wide"}, "model"),
        ("train", {"train": None}, "train"),
        ("train", {"training": {"max_steps": 2}}, "training"),
    ])
    def test_malformed_config_file_named(self, tmp_path, capsys, command, body, section):
        data = prepare(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(body))
        assert main([command, "--data", str(data), "--out", str(tmp_path / "out"),
                     "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and str(cfg_path) in err
        if section is not None:
            assert repr(section) in err

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = []
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
            for line in block.replace("\\\n", " ").splitlines():
                if line.startswith("moe-asr "):
                    commands.append(shlex.split(line)[1:])
        assert len(commands) >= 6
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestFailureModes:
    @pytest.mark.parametrize("flag, value, field", [
        ("--eval-every", "0", "eval_every"),
        ("--warmup-steps", "0", "warmup_steps"),
        ("--batch-size", "0", "batch_size"),
        ("--label-smoothing", "1.5", "label_smoothing"),
        ("--dropout", "1.0", "dropout"),
        ("--heads", "0", "heads"),
    ])
    def test_invalid_setting_fails_before_training(self, tmp_path, capsys, flag, value,
                                                   field):
        data = prepare(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     *TINY_TRAIN, "--no-augment", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {field} ")
        assert not (run / "metrics.jsonl").exists()

    @pytest.mark.parametrize("mu", ["-5", "nan", "inf"])
    def test_invalid_mu_rejected(self, tmp_path, capsys, mu):
        with pytest.raises(ValueError, match="^mu "):
            DecodeConfig(mu=float(mu))
        data = prepare(tmp_path, num=10)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     "--max-steps", "1", "--eval-every", "1", "--no-augment"]) == 0
        dec = tmp_path / "dec"
        assert main(["decode", "--data", str(data), "--checkpoint", str(run / "final.ckpt"),
                     "--out", str(dec), "--mu", mu]) == 1
        assert capsys.readouterr().err.startswith("error: ValueError: mu ")
        assert not dec.exists()

    def test_unknown_flag_exits_with_usage(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--data", "x", "--out", "y", "--frobnicate", "1"])
        assert excinfo.value.code == 2

    def test_missing_checkpoint_reports_one_line_error(self, tmp_path, capsys):
        code = main(["decode", "--data", str(tmp_path), "--checkpoint",
                     str(tmp_path / "absent.ckpt"), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_score_rejects_repeated_hyps_id(self, tmp_path, capsys):
        data = prepare(tmp_path, num=10)
        (ref,) = [json.loads(l) for l in (data / "dev.jsonl").read_text().splitlines()]
        hyps = tmp_path / "hyps.jsonl"
        line = json.dumps({"utt_id": ref["utt_id"], "tokens": ref["tokens"]}) + "\n"
        hyps.write_text(line * 2)
        assert main(["score", "--data", str(data), "--hyps", str(hyps),
                     "--out", str(tmp_path / "sc"), "--split", "dev"]) == 1
        assert "more than once" in capsys.readouterr().err

    def test_score_counts_unscored_utterances_as_deletions(self, tmp_path, capsys):
        """One exact transcript out of two dev utterances is not a perfect
        score: the utterance missing from the hyps file counts as empty."""
        data = prepare(tmp_path, num=20)
        refs = [json.loads(l) for l in (data / "dev.jsonl").read_text().splitlines()]
        assert len(refs) == 2
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text(json.dumps({"utt_id": refs[0]["utt_id"], "tokens": refs[0]["tokens"]})
                        + "\n")
        assert main(["score", "--data", str(data), "--hyps", str(hyps),
                     "--out", str(tmp_path / "sc"), "--split", "dev"]) == 0
        printed = capsys.readouterr().out
        assert "corpus CER 0.0000" not in printed
        assert "1 missing" in printed
        report = json.loads((tmp_path / "sc" / "report.json").read_text())
        assert report["missing"] == [refs[1]["utt_id"]]
        missed = report["utterances"][1]
        assert missed["hypothesis"] == [] and missed["distance"] == missed["ref_len"]
        total = len(refs[0]["tokens"]) + len(refs[1]["tokens"])
        assert report["corpus_cer"] == len(refs[1]["tokens"]) / total

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
