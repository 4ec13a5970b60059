"""moe-asr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {train,decode,decode_long} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with
no tracing; with ``--trace 1`` it runs the workload's fixed work once
untraced and then traced (see ``tracer.py``) and reports the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``. The last line
of standard output is one JSON object; the full result, with run metadata,
goes to ``.perfbench_out/``. The exit code is 1 when any operation failed
and 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import os

# One BLAS thread: on small shared machines more threads only add noise.
# Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def git_sha(root):
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed):
    import numpy as np

    blas = {}
    config = getattr(getattr(np, "__config__", None), "CONFIG", {})
    dep = config.get("Build Dependencies", {}).get("blas", {})
    if dep:
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
        "finished": datetime.now(timezone.utc).isoformat(),
    }


def metric_units(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, seconds):
    import workloads as W

    probe = W.SpeedProbe(workload.memory_bound)
    units, setup_times = W.timed_setup(workload, probe)
    m = W.measure(workload, units, seconds, workload.scale.min_ops, probe)
    p50, tail = W.latency_summary(m.ref_latencies) if m.ref_latencies else (0.0, 0.0)
    frames_per_s = m.frames / m.ref_busy if m.ref_busy else 0.0
    nll, per_utt = workload.quality(m.first_pass)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms_p50": p50,
        "latency_ms_tail": tail,
        "frames_per_s": frames_per_s,
        "nll_per_token": nll,
    }
    # The same figures under the names the workload's users read them by.
    error_rate = m.failed / m.attempted
    if workload.name == "train":
        named = {"train_frames_per_s": (frames_per_s, "1/s"),
                 "train_dev_ctc": (per_utt, "nats")}
    else:
        named = {"decode_ms_p50": (p50, "ms"), "decode_ms_tail": (tail, "ms"),
                 "decode_rtf": (W.FRAMES_PER_SECOND / frames_per_s if frames_per_s else 0.0, "ratio"),
                 "decode_best_score": (per_utt, "nats")}
    named = {"setup_s": (metrics["setup_s"], "s"),
             "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
             "error_rate": (error_rate, "ratio"), **named}
    raw_p50, raw_tail = W.latency_summary(m.latencies) if m.latencies else (0.0, 0.0)
    details = {
        "setup_s_each": setup_times,
        "operations_timed": len(m.latencies),
        "busy_s": m.busy,
        "reference_busy_s": m.ref_busy,
        "probe_reference_s": probe.reference_s,
        "probe_s_median": statistics.median(probe.samples),
        "measured_latency_ms_p50": raw_p50,
        "measured_latency_ms_tail": raw_tail,
        "measured_frames_per_s": m.frames / m.busy if m.busy else 0.0,
        "tail_percentile": W.TAIL_PERCENTILE,
        "score_gap_max": max(m.check.score_gaps, default=0.0),
        "failures": m.check.notes,
    }
    return m.attempted, m.failed, metrics, named, details


def traced(workload, seconds):
    import workloads as W
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        units = workload.setup(workload.workdir / "setup")
    reference = W.one_pass(workload, units, None)
    check = W.Check()
    attempted = sum(r.attempted for r in reference)
    for unit, result in zip(units, reference):
        if result.outputs is None:
            check.fail(result.attempted, f"untraced pass: {result.error}")
        else:
            workload.check(unit, result, check)

    def compare(results, walls):
        nonlocal attempted
        walls.append(sum(r.wall for r in results))
        attempted += sum(r.attempted for r in results)
        for result, before in zip(results, reference):
            if result.outputs is None or result.outputs != before.outputs:
                check.fail(result.attempted, "output differs from the first untraced pass"
                           f" ({result.error or 'different values'})")

    # Traced and untraced passes alternate so that drift in machine speed
    # hits both sides of trace_overhead alike.
    traced_walls, untraced_walls = [], []
    while not traced_walls or sum(traced_walls) < seconds:
        with tracer:
            compare(W.one_pass(workload, units, None), traced_walls)
        compare(W.one_pass(workload, units, None), untraced_walls)
    failed = check.failed

    metrics, details = tracer.summarize(W.BATCH_SIZE)
    metrics["ctc.score_gap"] = statistics.fmean(check.score_gaps) if check.score_gaps else 0.0
    metrics["trace_overhead"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    with tracer:
        sweep = W.sweep_encode_ms(workload.sweep_inputs(), W.derived_seed(workload.seed, 4))
    for n, value in sweep.items():
        metrics[f"model.encode_ms.e{n}"] = value
    details["failures"] = check.notes
    details["untraced_pass_s"] = untraced_walls
    details["traced_pass_s"] = traced_walls
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{workload.seed}.spans.jsonl"
    tracer.write_spans(spans_path)
    details["spans_file"] = spans_path.name
    return attempted, failed, metrics, {}, details


def run(workload_name, seed, seconds, trace, scale=None, workdir=None):
    """Run one workload; returns the result dict (``line`` is the JSON the
    command prints last)."""
    import workloads as W

    own_workdir = workdir is None
    workdir = Path(workdir) if workdir else OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = W.WORKLOADS[workload_name](seed, scale or W.Scale(), workdir)
    try:
        attempted, failed, metrics, named, details = (
            traced if trace else end_to_end)(workload, seconds)
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    units = metric_units("per_layer" if trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {
        "workload": workload_name,
        "trace": bool(trace),
        "seconds": seconds,
        "metadata": metadata(seed),
        "line": line,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "details": details,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "moe_asr").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'moe_asr'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")

    result = run(args.workload, args.seed, args.seconds, args.trace)
    line = result["line"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  attempted {line['attempted']}  failed {line['failed']}")
    for name, entry in {**result["named"], **line["metrics"]}.items():
        print(f"  {name:<34} {entry['value']:>16.6f} {entry['unit']}")
    for note in result["details"].get("failures", [])[:20]:
        print(f"  FAILED: {note}")
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"  result file: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
