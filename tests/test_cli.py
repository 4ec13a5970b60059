"""Subcommand behavior: artifacts, overrides, determinism, failure modes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from moe_asr.cli import build_parser, main
from moe_asr.config import DecodeConfig, ModelConfig, TrainConfig

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
        a = prepare(tmp_path / "a", num=10)
        b = prepare(tmp_path / "b", num=10)
        for rel in ("train.jsonl", "cmvn.json", "feats/utt0000.fb", "feats/utt0003.fb"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_too_few_utterances_for_a_dev_split_rejected(self, tmp_path, capsys):
        """Every 10th utterance is dev, so under 10 would write an empty dev
        split; prepare refuses before it writes anything."""
        data = tmp_path / "data"
        assert main(["prepare", "--out", str(data), "--num-utts", "9",
                     "--vocab-size", "4", "--feat-dim", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: ValueError: --num-utts ")
        assert not data.exists()


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
        assert config["model"]["feat_dim"] == 8
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


    @pytest.mark.parametrize("num_levels", ["2", "4"])
    def test_train_decode_score_at_other_level_counts(self, tmp_path, num_levels):
        data = prepare(tmp_path, num=10)
        run, dec, sc = tmp_path / "run", tmp_path / "dec", tmp_path / "sc"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     "--num-blocks", "4", "--num-levels", num_levels, "--num-experts", "2",
                     "--max-steps", "1", "--eval-every", "1"]) == 0
        assert len((run / "metrics.jsonl").read_text().splitlines()) == 1
        assert main(["decode", "--data", str(data), "--checkpoint", str(run / "final.ckpt"),
                     "--out", str(dec), "--beam", "4", "--nbest", "2"]) == 0
        assert main(["score", "--data", str(data), "--hyps", str(dec / "nbest.jsonl"),
                     "--out", str(sc)]) == 0


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


    def test_missing_vocab_size_named_before_output_dir(self, tmp_path, capsys):
        out = tmp_path / "cost"
        assert main(["flops", "--out", str(out), "--num-experts", "2", "--d-att", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: vocab_size") and "--vocab-size" in err
        assert not out.exists()


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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 10-utterance corpus, an embedding checkpoint and a routed model
    checkpoint trained on it, one step each."""
    root = tmp_path_factory.mktemp("trained")
    data = prepare(root, num=10)
    one_step = [*TINY_MODEL, "--num-experts", "2", "--max-steps", "1", "--eval-every", "1"]
    assert main(["pretrain-embedding", "--data", str(data), "--out", str(root / "pre"),
                 *one_step]) == 0
    assert main(["train", "--data", str(data), "--out", str(root / "run"), *one_step]) == 0
    return data, root / "pre" / "embedding.ckpt", root / "run" / "final.ckpt"


class TestFailureModes:
    @pytest.mark.parametrize("flag, value, field", [
        ("--eval-every", "0", "eval_every"),
        ("--warmup-steps", "0", "warmup_steps"),
        ("--batch-size", "0", "batch_size"),
        ("--dropout", "1.0", "dropout"),
        ("--heads", "0", "heads"),
        ("--d-emb", "9", "d_emb"),
        ("--alpha", "nan", "alpha"),
        ("--max-steps", "0", "max_steps"),
        ("--kernel", "4", "conv kernel"),
        ("--num-experts", "-1", "num_experts"),
        ("--num-levels", "0", "num_levels"),
    ])
    def test_invalid_setting_fails_before_training(self, tmp_path, capsys, flag, value,
                                                   field):
        data = prepare(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     *TINY_TRAIN, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {field} ")
        assert not (run / "metrics.jsonl").exists()

    @pytest.mark.parametrize("flag", [["--label-smoothing", "0.2"], ["--peak-lr", "1e-3"],
                                      ["--no-augment"], ["--moe-every", "3"]],
                             ids=lambda flag: flag[0][2:])
    def test_fixed_setting_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        """The label smoothing, the peak learning rate, SpecAugment in
        training and the routing interval (``config.MOE_EVERY``) are
        constants: their flags are unknown to argparse."""
        data = prepare(tmp_path)
        run = tmp_path / "run"
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL, *TINY_TRAIN,
                  *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("key, value", [("label_smoothing", 0.2), ("peak_lr", 1e-3),
                                            ("augment", False)])
    def test_fixed_setting_in_a_config_file_is_rejected(self, tmp_path, capsys, key, value):
        data = prepare(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {key: value}}))
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL, *TINY_TRAIN,
                     "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: unknown TrainConfig keys: ") and key in err
        assert not run.exists()

    def test_routing_interval_in_a_config_file_is_rejected(self, tmp_path, capsys):
        """Every second block routes (``config.MOE_EVERY``): a model section
        that names the old setting fails in one line before the run
        directory exists."""
        data = prepare(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"num_experts": 2, "moe_every": 2}}))
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL, *TINY_TRAIN,
                     "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: unknown ModelConfig keys: ['moe_every']\n"
        assert not run.exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "max_steps", 2.5, "TrainConfig.max_steps must be an int, got 2.5"),
        ("train", "batch_size", True, "TrainConfig.batch_size must be an int, got True"),
        ("model", "d_att", 16.0, "ModelConfig.d_att must be an int, got 16.0"),
        ("model", "heads", "2", "ModelConfig.heads must be an int, got '2'"),
        ("model", "dropout", "0.1", "ModelConfig.dropout must be a float, got '0.1'"),
    ], ids=["float-for-int", "bool-for-int", "float-width", "str-for-int", "str-for-float"])
    def test_config_value_of_the_wrong_type_is_refused(self, tmp_path, capsys, section, key,
                                                        value, message):
        """A --config value must have its field's type: the one line names
        the class and the field, and no run directory is made. (No flag is
        given: a flag would override the value.)"""
        data = prepare(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({section: {key: value}}))
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run),
                     "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not run.exists()

    def test_whole_number_for_a_float_field_is_accepted(self, tmp_path):
        """JSON writes 1.0 as 1: a float field takes an int as it is."""
        data = prepare(tmp_path, num=10)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"dropout": 0}, "train": {"eta": 1}}))
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     "--max-steps", "1", "--eval-every", "1", "--config", str(cfg_path)]) == 0
        config = json.loads((run / "config.json").read_text())
        assert (config["model"]["dropout"], config["train"]["eta"]) == (0, 1)

    def test_run_into_a_used_out_is_refused(self, tmp_path, capsys):
        """A second run into a directory that holds files exits 1 in one
        line and leaves every file as it was; an empty one is used."""
        data = prepare(tmp_path, num=10)

        def train(out, *extra):
            return main(["train", "--data", str(data), "--out", str(out), *TINY_MODEL,
                         "--max-steps", "1", "--eval-every", "1", *extra])

        run = tmp_path / "run"
        assert train(run) == 0
        before = {f: f.read_bytes() for f in run.rglob("*") if f.is_file()}
        capsys.readouterr()
        assert train(run, "--num-experts", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileExistsError: ") and str(run) in err
        assert len(err.splitlines()) == 1
        assert {f: f.read_bytes() for f in run.rglob("*") if f.is_file()} == before
        empty = tmp_path / "empty"
        empty.mkdir()
        assert train(empty) == 0
        assert (empty / "final.ckpt").exists()

    @pytest.mark.parametrize("command, flag, bad, good, named", [
        ("train", "--seed", "-1", "1", "ValueError: seed must be >= 0, got -1"),
        ("pretrain-embedding", "--seed", "-2", "2", "ValueError: seed must be >= 0, got -2"),
        ("prepare", "--seed", "-1", "1", "ValueError: --seed must be >= 0, got -1"),
        ("train", "--embedding", "{tmp}/nope.ckpt", "{embedding}", "{tmp}/nope.ckpt"),
        ("train", "--embedding", "{model}", "{embedding}",
         "expected an embedding checkpoint, found 'model'"),
        ("decode", "--split", "test", "dev", "{data}/test.jsonl"),
        ("score", "--split", "nosuch", "dev", "{data}/nosuch.jsonl"),
        # a manifest's lines are hyps lines: the train split's ids are not dev's
        ("score", "--hyps", "{data}/train.jsonl", "{data}/dev.jsonl",
         "not present in the dev manifest"),
    ], ids=["train-seed", "pretrain-seed", "prepare-seed", "absent-embedding",
            "model-as-embedding", "absent-split", "score-absent-split", "score-unknown-utt"])
    def test_failing_inputs_leave_no_run_directory(self, tmp_path, capsys, trained, command,
                                                   flag, bad, good, named):
        """A command refused for its own inputs exits 1 with one line naming
        the field or the file and makes no --out, so the corrected command
        then runs into that same --out."""
        data, embedding, model = trained
        paths = {"tmp": tmp_path, "data": data, "embedding": embedding, "model": model}
        out = tmp_path / "out"
        inputs = {"prepare": ["--num-utts", "10", "--vocab-size", "4", "--feat-dim", "10"],
                  "decode": ["--data", str(data), "--checkpoint", str(model)],
                  "score": ["--data", str(data), "--hyps", str(data / "dev.jsonl")]}.get(
            command, ["--data", str(data), *TINY_MODEL, "--num-experts", "2",
                      "--max-steps", "1", "--eval-every", "1"])

        def run(value):
            return main([command, "--out", str(out), *inputs, flag, value.format(**paths)])

        capsys.readouterr()
        assert run(bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named.format(**paths) in err
        assert not out.exists()
        assert run(good) == 0
        assert (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("broken, named", [
        ("dev.jsonl", "dev.jsonl"), ("train.jsonl", "train.jsonl"),
        ("cmvn.json", "cmvn.json"), ("feats/utt0009.fb", "bad magic"),
    ], ids=["no-dev", "no-train", "no-cmvn", "bad-magic"])
    @pytest.mark.parametrize("command", ["train", "pretrain-embedding"])
    def test_unreadable_split_fails_before_the_run_directory(self, tmp_path, capsys, command,
                                                             broken, named):
        """Training commands read both splits, the corpus CMVN and every
        feature file before they make --out: a missing manifest or CMVN, or
        a feature file with a bad magic (here the dev split's one), exits 1
        in one line and makes no --out, so once the corpus is repaired the
        same --out runs."""
        data = prepare(tmp_path, num=10)
        path, out = data / broken, tmp_path / "out"
        kept = path.read_bytes()
        if broken.endswith(".fb"):
            path.write_bytes(b"NOPE" + kept[4:])
        else:
            path.unlink()

        def run():
            return main([command, "--data", str(data), "--out", str(out), *TINY_MODEL,
                         "--num-experts", "2", "--max-steps", "1", "--eval-every", "1"])

        capsys.readouterr()
        assert run() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()
        path.write_bytes(kept)
        assert run() == 0
        assert (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("vocab, feat_dim, flag", [
        ("0", "10", "--vocab-size"), ("4", "0", "--feat-dim"),
    ])
    def test_prepare_rejects_empty_inventory_before_writing(self, tmp_path, capsys, vocab,
                                                            feat_dim, flag):
        data = tmp_path / "data"
        assert main(["prepare", "--out", str(data), "--num-utts", "10",
                     "--vocab-size", vocab, "--feat-dim", feat_dim]) == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {flag} must be >= 1")
        assert not data.exists()

    def test_fewer_blocks_than_levels_fails_before_the_run_directory(self, tmp_path, capsys):
        data = prepare(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     *TINY_TRAIN, "--num-levels", "4", "--num-blocks", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: ValueError: num_levels 4 ")
        assert not run.exists()

    @pytest.mark.parametrize("command", ["train", "pretrain-embedding"])
    @pytest.mark.parametrize("field, value, corpus_value, source", [
        ("feat_dim", 10, 8, "flag"),
        ("feat_dim", 6, 8, "config"),
        ("vocab_size", 3, 5, "flag"),
        ("vocab_size", 4, 5, "config"),
    ])
    def test_model_that_does_not_fit_the_corpus_fails_before_writing(
            self, tmp_path, capsys, command, field, value, corpus_value, source):
        """The corpus has 4 tokens (5 ids with sos/eos) of 8 dims."""
        data = prepare(tmp_path, vocab=4, feat_dim=8)
        if source == "flag":
            override = ["--" + field.replace("_", "-"), str(value)]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"model": {field: value}}))
            override = ["--config", str(cfg_path)]
        run = tmp_path / "run"
        assert main([command, "--data", str(data), "--out", str(run), *TINY_MODEL,
                     *TINY_TRAIN, "--num-experts", "2", *override]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: ValueError: {field} {value} ")
        assert str(corpus_value) in err.split(f"{field} {value} ", 1)[1]
        assert not run.exists()

    def test_larger_vocabulary_than_the_corpus_trains(self, tmp_path):
        data = prepare(tmp_path, vocab=4, feat_dim=8)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     "--max-steps", "1", "--eval-every", "1", "--vocab-size", "7"]) == 0
        assert json.loads((run / "config.json").read_text())["model"]["vocab_size"] == 7

    def test_decode_of_another_feature_dim_fails_before_writing(self, tmp_path, capsys):
        narrow = prepare(tmp_path / "narrow", feat_dim=8)
        wide = prepare(tmp_path / "wide", feat_dim=10)
        run = tmp_path / "run"
        assert main(["train", "--data", str(narrow), "--out", str(run), *TINY_MODEL,
                     "--max-steps", "1", "--eval-every", "1"]) == 0
        dec = tmp_path / "dec"
        assert main(["decode", "--data", str(wide), "--checkpoint", str(run / "final.ckpt"),
                     "--out", str(dec)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ValueError: feat_dim 8 ") and "10" in err
        assert not dec.exists()

    def test_decode_refuses_a_model_section_before_writing(self, tmp_path, capsys):
        """decode's model comes from the checkpoint, so a --config model
        section could not take effect: it is named and refused; a decode
        section alone is read."""
        data = prepare(tmp_path, feat_dim=8)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     "--num-experts", "2", "--max-steps", "1", "--eval-every", "1"]) == 0
        cfg_path = tmp_path / "odd.json"
        cfg_path.write_text(json.dumps({"model": {"feat_dim": 99, "num_experts": 64},
                                        "decode": {"beam": 8, "nbest": 8}}))
        dec = tmp_path / "dec"
        args = ["decode", "--data", str(data), "--checkpoint", str(run / "final.ckpt"),
                "--out", str(dec), "--config", str(cfg_path)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ValueError: ") and "section 'model'" in err
        assert not dec.exists()
        cfg_path.write_text(json.dumps({"decode": {"beam": 8, "nbest": 8}}))
        assert main(args) == 0
        assert json.loads((dec / "config.json").read_text())["decode"]["beam"] == 8

    @pytest.mark.parametrize("field, value", [
        ("beta", "nan"), ("gamma", "nan"), ("gamma", "inf"), ("alpha", "-inf"),
        ("max_epochs", "0"), ("seed", "-1"), ("eta", "1.5"),
    ])
    def test_invalid_train_setting_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            TrainConfig(**{field: float(value)})

    @pytest.mark.parametrize("config, message", [
        (lambda: ModelConfig(vocab_size=1), "^vocab_size must include at least one data token"),
        (lambda: DecodeConfig(beam=2, nbest=4), r"^need beam >= nbest >= 1, got 2, 4$"),
        (lambda: DecodeConfig(beam=2, nbest=0), r"^need beam >= nbest >= 1, got 2, 0$"),
    ], ids=["vocab-of-one", "nbest-above-beam", "nbest-zero"])
    def test_invalid_setting_no_flag_reaches_is_named(self, config, message):
        """The corpus sets the vocabulary, and a decode config file can
        hold a beam narrower than its N-best."""
        with pytest.raises(ValueError, match=message):
            config()

    @pytest.mark.parametrize("mu", ["-5", "nan", "inf"])
    def test_invalid_mu_rejected(self, tmp_path, capsys, mu):
        with pytest.raises(ValueError, match="^mu "):
            DecodeConfig(mu=float(mu))
        data = prepare(tmp_path, num=10)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY_MODEL,
                     "--max-steps", "1", "--eval-every", "1"]) == 0
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
        assert not (tmp_path / "sc").exists()

    @pytest.mark.parametrize("bad, named", [
        ("", None),
        ("   ", None),
        ('{"utt_id": "{utt}"}', ":3: expected keys utt_id, tokens"),
        ("[1, 2]", ":3: expected keys utt_id, tokens"),
        ('{"utt_id": "{utt}", "tokens": "12"}', ":3: tokens must be non-negative integers"),
        ('{"utt_id": "{utt}", "tokens": [1, -1]}', ":3: tokens must be non-negative integers"),
        ('{"utt_id": "{utt}", "tokens": [true]}', ":3: tokens must be non-negative integers"),
        ('{"utt_id": "{utt}", ', ":3: invalid JSON"),
        ('{"utt_id": ["{utt}"], "tokens": [1]}', ":3: ['{utt}'] not present in the dev manifest"),
        ('{"utt_id": "{first}", "tokens": [1]}', ":3: {first} appears more than once"),
    ], ids=["blank", "spaces", "no-tokens", "array", "tokens-string", "negative-token",
            "bool-token", "truncated", "list-utt-id", "repeated-utt-id"])
    def test_score_reads_hyps_like_a_manifest(self, tmp_path, capsys, bad, named):
        """Line 3 of a hyps file after a blank line 2: a blank line is
        skipped, as the manifest reader skips one, and the file scores as
        it does without it; a line that is not an object with utt_id and a
        tokens list of non-negative ints, or whose utt_id (read as a string,
        as the manifest reader reads it) is not in the split or repeats,
        exits 1 with one line naming the file and line, before the run
        directory exists."""
        data = prepare(tmp_path, num=20)
        refs = [json.loads(l) for l in (data / "dev.jsonl").read_text().splitlines()]
        first = json.dumps({"utt_id": refs[0]["utt_id"], "tokens": refs[0]["tokens"]})
        hyps, clean = tmp_path / "hyps.jsonl", tmp_path / "clean.jsonl"
        ids = {"{utt}": refs[1]["utt_id"], "{first}": refs[0]["utt_id"]}
        for key, utt_id in ids.items():
            bad, named = bad.replace(key, utt_id), named and named.replace(key, utt_id)
        hyps.write_text(f"{first}\n\n{bad}\n")
        clean.write_text(f"{first}\n")
        out = tmp_path / "sc"
        code = main(["score", "--data", str(data), "--hyps", str(hyps), "--out", str(out)])
        err = capsys.readouterr().err
        if named is None:
            assert code == 0
            assert main(["score", "--data", str(data), "--hyps", str(clean),
                         "--out", str(tmp_path / "clean")]) == 0
            assert ((out / "report.json").read_bytes()
                    == (tmp_path / "clean" / "report.json").read_bytes())
            return
        assert code == 1
        assert len(err.splitlines()) == 1 and f"{hyps}{named}" in err
        assert not out.exists()

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
