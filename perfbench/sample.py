"""One benchmark sample: a fresh interpreter that runs one workload once.

Cold state is the point: the interpreter starts with an empty loopy-graph
catalog cache, builds a new census cache and forks a new worker pool, as each
CLI call does. Prints one JSON record as its last stdout line; run.py starts
it with ``src`` on PYTHONPATH. ``--import-only`` stops after the import and
reports only setup_s.

Every time reported is rescaled to the reference host speed by the probe in
perfbench/speed.py, which runs from the first line on; the raw seconds are
kept next to them.
"""

import time

from speed import REFERENCE_PROBE_S, SpeedProbe

_probe = SpeedProbe()
_probe.start(interval_s=0.01)   # the import takes ~0.2 s: probe it densely
_mark = _probe.mark()
_start = time.perf_counter()
import wilfgraph  # noqa: E402,F401  (the import is what setup_s measures)

SETUP_RAW_S = time.perf_counter() - _start
SETUP_S = _probe.normalize(SETUP_RAW_S, _mark)
_probe.start()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from layers import layer_metrics  # noqa: E402
from spans import NullTracer, SpanStats, Tracer  # noqa: E402
from workloads import FULL, TINY, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class Phases:
    """Times the phases of one workload body and opens a span for each.

    ``times`` are at the reference speed, ``raw_times`` as measured. A
    parallel phase runs a fork pool: only its workers probe the host.
    """

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.times: dict[str, float] = {}
        self.raw_times: dict[str, float] = {}
        self.timed: list[str] = []

    @contextmanager
    def phase(self, name, timed=True, parallel=False):
        with self.tracer.span("phase." + name):
            mark = self.probe.mark()
            self.probe.paused = parallel
            start = time.perf_counter()
            try:
                yield
            finally:
                raw = time.perf_counter() - start
                self.probe.paused = False
                self.raw_times[name] = raw
                self.times[name] = self.probe.normalize(raw, mark)
        if timed:
            self.timed.append(name)

    def iterate(self, name, iterator):
        return self.tracer.iterate(name, iterator)

    @property
    def wall_s(self) -> float:
        return sum(self.times[name] for name in self.timed)

    @property
    def wall_raw_s(self) -> float:
        return sum(self.raw_times[name] for name in self.timed)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children are the fork pool's workers
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--run-id", default="sample")
    parser.add_argument("--spans-out", help="gzip JSON-lines file for spans")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--memo", help="JSON file of oracle answers that "
                        "the samples of one run share")
    args = parser.parse_args(argv)
    if args.import_only:
        _probe.stop()
        print(json.dumps({"setup_s": SETUP_S, "setup_raw_s": SETUP_RAW_S}))
        return 0

    lib = SimpleNamespace(
        **{name: importlib.import_module("wilfgraph." + name)
           for name in ("enumeration", "errors", "loopy", "matching",
                        "realize", "semigraph")})
    sys.path.append(str(ROOT / "tests"))     # tests/oracles.py
    workload = WORKLOADS[args.workload]
    size = (FULL if args.size == "full" else TINY)[args.workload]

    tracer = Tracer(args.run_id) if args.trace else NullTracer()
    tracer.install(lib)
    run = Phases(tracer, _probe)
    body_mark = _probe.mark()
    try:
        outputs = workload.body(lib, size, args.seed, run)
        if args.trace and workload.traced_extra is not None:
            workload.traced_extra(lib, size, run)
    finally:
        tracer.uninstall()
        _probe.stop()
    peak_rss_mb = _peak_rss_mb()

    memo_file = Path(args.memo) if args.memo else None
    memo = (json.loads(memo_file.read_text())
            if memo_file and memo_file.exists() else {})
    verdicts, facts = workload.check(lib, size, outputs, memo)
    if memo_file:
        memo_file.write_text(json.dumps(memo))
    record = {
        "setup_s": SETUP_S,
        "setup_raw_s": SETUP_RAW_S,
        "wall_s": run.wall_s,
        "wall_raw_s": run.wall_raw_s,
        "probe_us": _probe.mean_probe_s() * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "phases": run.times,
        "raw_phases": run.raw_times,
        "attempted": len(verdicts),
        "failed": sum(1 for _, ok in verdicts if not ok),
        "failures": [label for label, ok in verdicts if not ok][:5],
        "traced": bool(args.trace),
    }
    if args.trace:
        probes, probe_s, _, _ = _probe.since(body_mark)
        st = SpanStats(tracer.spans, scale=REFERENCE_PROBE_S * probes
                       / probe_s if probes else 1.0)
        record["layers"] = layer_metrics(st, tracer.missing_spans, run.times,
                                         facts)
        record["self_s"] = {name: sum(times)
                            for name, times in st.self_times.items()}
        record["missing"] = tracer.missing
        record["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
