"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced, and that a deliberately broken output
is counted as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads as W  # noqa: E402
from moe_asr import inference  # noqa: E402

TINY = W.Scale(
    num_experts=4, corpus_utts=10, train_corpora=1, train_steps=2, decode_utts=10,
    decode_models=2, long_utts=2, long_tokens=(4, 6), min_ops=3, sweep_utts=1,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, out_dir):
    result = run.run(workload, 0, 0.0, trace, scale=TINY, workdir=out_dir / "work")
    line = result["line"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), m["name"]
    if not trace:
        assert result["named"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
    json.dumps(result)


def test_broken_output_counts_in_error_rate(out_dir, monkeypatch):
    decode_nbest = inference.decode_nbest
    calls = []

    def broken(*args, **kwargs):
        hyps = decode_nbest(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            # A beam score above the exact CTC mass of its tokens.
            hyps[0] = dataclasses.replace(hyps[0], ctc_score=hyps[0].ctc_score + 10.0)
        return hyps

    monkeypatch.setattr(inference, "decode_nbest", broken)
    result = run.run("decode", 0, 0.0, 0, scale=TINY, workdir=out_dir / "work")
    line = result["line"]
    assert not line["correct"] and line["failed"] >= 1
    assert result["named"]["error_rate"]["value"] == line["failed"] / line["attempted"] > 0
    assert any("exceeds exact" in note for note in result["details"]["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "decode", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
