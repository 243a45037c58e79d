"""wilfgraph benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload census_classes --seed 1 \
        --seconds 32 --trace 0

Each sample is a fresh interpreter (perfbench/sample.py) that imports
wilfgraph, runs the workload once from cold state and checks its outputs
after the timed region. Samples repeat until the next one would overrun
``--seconds``; every metric is the median over the samples.

Every time is rescaled to a reference host speed: a fixed pure-Python probe
runs from a timer every 25 ms inside each sample (perfbench/speed.py), and a
phase's seconds are divided by how much slower than the reference the probe
ran during that phase. On a shared host this removes most of the drift that
raw seconds of the same code show; the raw medians are printed and kept
with the results.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb).
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics: layer times and counts from the traced samples, the workload's
phase times from the untraced ones, and the tracing overhead as traced minus
untraced wall_s.

Human-readable lines come first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Metadata, every sample
record and the spans go under .bench_build/perfbench/. Exits 1 without a
result when the library is missing or a sample fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYER_METRICS
from speed import REFERENCE_PROBE_S
from workloads import WHY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
# phase times of the untraced samples in a traced run; 0 where a workload
# has no such phase
PHASE_METRICS = ("sweep_w1_s", "sweep_w2_s", "extremal_s", "realize_s",
                 "synthetic_s")
OVERHEAD_METRIC = "trace.overhead_s"
# the run must exit well within 180 s even if one sample hangs
_RUN_LIMIT_S = 170
_IMPORT_PROBES = 1      # import-only interpreters after each sample


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    units.update({name: "s" for name in PHASE_METRICS})
    units[OVERHEAD_METRIC] = "s"
    return units


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def run_sample(args, index, traced, deadline) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run_id = f"{args.workload}-seed{args.seed}-sample{index}"
    cmd = [sys.executable, str(ROOT / "perfbench" / "sample.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(traced)),
           "--run-id", run_id, "--memo", str(memo_path(args))]
    if traced:      # one file per workload and sample keeps disk use bounded
        spans = OUT_DIR / f"spans-{args.workload}-sample{index}.jsonl.gz"
        cmd += ["--spans-out", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"sample {index} did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"sample {index} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def memo_path(args) -> Path:
    return OUT_DIR / f"memo-{args.workload}-seed{args.seed}-{args.size}.json"


def import_time() -> float:
    """setup_s of one fresh interpreter that only imports wilfgraph."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sample.py"),
         "--workload", "census_classes", "--seed", "0", "--import-only"],
        cwd=ROOT, env=env, check=True, timeout=60, capture_output=True,
        text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def collect(args) -> tuple[list[dict], list[float]]:
    """Samples until the next would overrun --seconds; a traced run
    alternates untraced and traced samples and takes at least one of each.

    Import time is noisy next to its 0.2 s, so each sample is followed by
    import-only interpreters whose setup_s joins the samples' own.
    """
    start = time.monotonic()
    deadline = start + _RUN_LIMIT_S
    import_time()       # writes the bytecode cache; not a measurement
    memo_path(args).unlink(missing_ok=True)     # oracle answers of this run
    samples: list[dict] = []
    setups: list[float] = []
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        sample_start = time.monotonic()
        sample = run_sample(args, len(samples), traced, deadline)
        setups.append(sample["setup_s"])
        if not args.trace:
            setups += [import_time() for _ in range(_IMPORT_PROBES)]
        sample["elapsed_s"] = time.monotonic() - sample_start
        samples.append(sample)
        elapsed = time.monotonic() - start
        longest = max(s["elapsed_s"] for s in samples)
        need_both = args.trace and len(samples) < 2
        if not need_both and elapsed + longest > args.seconds:
            return samples, setups


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(args, samples, setups) -> dict[str, float]:
    plain = [s for s in samples if not s["traced"]]
    if not args.trace:
        return {"setup_s": median(setups),
                "wall_s": median([s["wall_s"] for s in plain]),
                "peak_rss_mb": median([s["peak_rss_mb"] for s in plain])}
    traced = [s for s in samples if s["traced"]]
    metrics = {}
    for name in per_layer_units():
        if name == OVERHEAD_METRIC:
            metrics[name] = (median([s["wall_s"] for s in traced])
                             - median([s["wall_s"] for s in plain]))
        elif name in PHASE_METRICS:
            metrics[name] = median([s["phases"].get(name, 0.0)
                                    for s in plain])
        elif all(name in s["layers"] for s in traced):
            metrics[name] = median([s["layers"][name] for s in traced])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the harness self-check's sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wilfgraph" / "__init__.py").is_file():
        print(f"error: no wilfgraph sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        samples, setups = collect(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = summarize(args, samples, setups)
    units = dict(END_TO_END) if not args.trace else per_layer_units()
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    missing = sorted({m for s in samples for m in s.get("missing", ())})
    meta = {
        "workload": args.workload, "why": WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "samples": len(samples),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "missing_layers": missing,
        "reference_probe_us": REFERENCE_PROBE_S * 1e6,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(
         {"meta": meta, "metrics": metrics, "samples": samples,
          "setups": setups}, indent=1))

    print(f"# {args.workload} seed={args.seed} samples={len(samples)} "
          f"nproc={meta['nproc']} python={meta['python']} "
          f"git={meta['git_sha'][:12]}")
    for name, unit in units.items():
        if name in metrics:
            print(f"#   {name:34s} {metrics[name]:14.6f} {unit}")
    print(f"#   {'failed_ops':34s} {failed / attempted:14.6f} share "
          f"({failed} of {attempted})")
    raw_wall = median([s["wall_raw_s"] for s in samples if not s["traced"]])
    raw_setup = median([s["setup_raw_s"] for s in samples])
    probe_us = median([s["probe_us"] for s in samples])
    print(f"#   as measured: wall_s {raw_wall:.6f} s, setup_s "
          f"{raw_setup:.6f} s; probe {probe_us:.1f} us, reference "
          f"{meta['reference_probe_us']:.1f} us")
    if args.trace:
        print("#   self time by layer, median over traced samples:")
        traced = [s for s in samples if s["traced"]]
        for name in sorted({n for s in traced for n in s["self_s"]}):
            self_s = median([s["self_s"].get(name, 0.0) for s in traced])
            print(f"#     {name:32s} {self_s:14.6f} s")
    for label in (f for s in samples for f in s["failures"]):
        print(f"#   FAILED {label}")
    for name in missing:
        print(f"#   layer missing: wrapped name {name} is gone")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
