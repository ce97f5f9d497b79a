"""The repo benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0

Runs whole passes over the workload's fixed request set until the next
pass would overrun ``--seconds``, checks every output against the
committed reference, prints a report and, as its last line, one JSON
object: ``correct``, ``attempted`` and ``failed`` requests, and the
metrics.  ``--trace 0`` reports the end-to-end metrics, measured with no
wrapper installed.  ``--trace 1`` alternates untraced and traced passes,
reports the per-layer metrics and the tracing overhead, and writes every
span to ``.bench_build/perfbench/trace-<workload>-seed<seed>.jsonl``.

Seconds are scaled to a nominal CPU speed (see ``calibrate.py``); the
report prints raw seconds beside them.  The program is imported from
``src/`` of the checkout this file sits in; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

from calibrate import Speedometer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

#: Child processes that repeat the whole set-up, besides this one's own;
#: ``setup_s`` is the median of all of them.
SETUP_PROBES = 4

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def probe_setup(args: argparse.Namespace) -> tuple:
    """``(scaled, raw)`` set-up seconds of a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["raw_s"]


def tail_percentile(values: Sequence[float]) -> Optional[tuple]:
    """``(p, value)`` for the highest percentile with at least ten
    samples beyond it (nearest rank), or ``None`` below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def describe(name: str, scaled: Sequence[float], raw: Sequence[float]) -> str:
    """Median and tail of per-pass seconds, scaled (raw in brackets)."""
    tail = tail_percentile(scaled)
    beyond = (f"p{tail[0]} {tail[1]:.4f} s" if tail
              else "no percentile has 10 passes beyond it")
    return (f"{name:12s} {statistics.median(scaled):.4f} s"
            f" [{statistics.median(raw):.4f}]"
            f"  (median of {len(scaled)} passes; {beyond})")


class Pass:
    """One pass over the request set: ``(label, raw seconds, scaled
    seconds, output)`` per request, and each request's speed factor."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.results: List[tuple] = []
        self.scales: Dict[str, float] = {}
        self.errors: List[str] = []
        self.failed = 0

    def seconds(self, scaled: bool = True) -> float:
        """Seconds of the whole pass."""
        return sum(result[2 if scaled else 1] for result in self.results)


def run_pass(workload: Any, rng: random.Random, index: int,
             tracer: Any, speed: Speedometer) -> Pass:
    record = Pass(tracer is not None)
    workload.begin_pass()
    timings = []
    if tracer is not None:
        tracer.install()
    try:
        for label, request in workload.requests(rng):
            request_id = f"{index}:{label}"
            started = time.perf_counter()
            try:
                if tracer is not None:
                    output = tracer.request_span(request_id, request)
                else:
                    output = request()
            except Exception as error:  # counted as a failed request
                output = error
            timings.append((label, request_id, started, time.perf_counter(), output))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for label, request_id, started, ended, output in timings:
        net, scale = speed.measure(started, ended)
        record.scales[request_id] = scale
        record.results.append((label, ended - started, net * scale, output))
    # Checks run untraced, after the pass.
    for label, _, _, output in record.results:
        if isinstance(output, Exception):
            errors = [f"{label}: {type(output).__name__}: {output}"]
        else:
            errors = workload.check(label, output)
        record.failed += bool(errors)
        record.errors.extend(errors)
    pass_errors = workload.end_pass()
    if pass_errors:
        record.failed = max(record.failed, 1)
        record.errors.extend(pass_errors)
    return record


def layer_metrics(tracer: Any, traced: List[Pass], untraced: List[Pass],
                  counts: List[Any],
                  setup_scale: float) -> Dict[str, Any]:
    """Per-layer metrics: counts of the first traced pass; scaled self
    times as medians over traced passes (``faults.instances_s`` adds the
    set-up's enumeration); the tracing overhead in scaled ``wall_s``."""
    import spans

    metrics: Dict[str, Any] = {}
    for name, value in spans.count_metrics(counts[0]).items():
        metrics[name] = (value, "ratio" if name in spans.RATIO_METRICS else "count")
    per_request = spans.layer_self_times(tracer.spans)

    def total(scales: Dict[str, float], name: str) -> float:
        return sum(per_request.get(request, {}).get(name, 0.0) * scale
                   for request, scale in scales.items())

    for name in spans.SELF_TIME_METRICS.values():
        value = statistics.median(total(p.scales, name) for p in traced)
        if name == "faults.instances_s":
            value += total({"setup": setup_scale}, name)
        metrics[name] = (value, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p.seconds() for p in traced)
        - statistics.median(p.seconds() for p in untraced),
        "s",
    )
    return metrics


def set_up(args: argparse.Namespace, tracer: Any, speed: Speedometer) -> tuple:
    """Import the program and build the workload; ``(workload, scaled
    set-up seconds since process start, raw seconds, speed factor)``."""
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r};"
                         f" choose from {', '.join(workloads.WORKLOADS)}\n")
        raise SystemExit(2)
    if tracer is not None:
        tracer.install()
    reference = json.loads((HERE / "reference.json").read_text())
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, reference, args.seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.take_counts()
    ready = time.perf_counter()
    net, scale = speed.measure(START, ready)
    return workload, net * scale, ready - START, scale


def main(argv: Sequence[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per process, and the generator's
        # search order follows set iteration order: without a fixed
        # salt, per-layer counts differ from process to process.
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    speed = Speedometer()
    speed.start()
    try:
        return measure(parse_args(argv), speed)
    finally:
        speed.stop()


def measure(args: argparse.Namespace, speed: Speedometer) -> int:
    # One CPU for the whole run, set-up probes included: the vCPUs of a
    # shared host slow down independently, and the speed samples must
    # come from the CPU the requests run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if args.trace:
        import_program()
        import spans

        tracer = spans.Tracer()
    workload, setup_s, setup_raw, setup_scale = set_up(args, tracer, speed)
    speed.stop()
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw}))
            return 0
        setups = [(setup_s, setup_raw)]
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
        speed.start()
        try:
            passes, counts = run_passes(args, workload, tracer, speed)
        finally:
            speed.stop()
        report(args, workload, tracer, setups, setup_scale, passes, counts)
        return 0
    finally:
        workload.close()


def run_passes(args: argparse.Namespace, workload: Any, tracer: Any,
               speed: Speedometer) -> tuple:
    """Whole passes until the next would overrun ``--seconds``; traced
    runs alternate untraced and traced passes, at least one of each."""
    rng = random.Random(args.seed)
    deadline = time.perf_counter() + args.seconds
    passes: List[Pass] = []
    counts: List[Any] = []
    durations: List[float] = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        began = time.perf_counter()
        record = run_pass(workload, rng, len(passes),
                          tracer if traced else None, speed)
        if traced:
            counts.append(tracer.take_counts())
        passes.append(record)
        durations.append(time.perf_counter() - began)
        # The next pass is assumed as long as the longer of the last two
        # (an untraced and a traced one, in a traced run).
        if len(passes) >= (2 if tracer else 1) and (
            time.perf_counter() + max(durations[-2:]) > deadline
        ):
            return passes, counts


def report(args: argparse.Namespace, workload: Any, tracer: Any,
           setups: List[tuple], setup_scale: float, passes: List[Pass],
           counts: List[Any]) -> None:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    scales = [s for p in passes for s in p.scales.values()]

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f" ({len(traced)} traced)  requests {attempted}")
    print(f"seconds scaled to nominal CPU speed, raw in brackets; speed"
          f" factor median {statistics.median(scales):.3f},"
          f" range {min(scales):.3f}-{max(scales):.3f}")
    print(f"{'setup_s':12s} {statistics.median(s for s, _ in setups):.4f} s"
          f" [{statistics.median(r for _, r in setups):.4f}]"
          f"  (median of {len(setups)} set-ups)")
    print(describe("wall_s", [p.seconds() for p in untraced],
                   [p.seconds(scaled=False) for p in untraced]))
    print(f"{'failed_ratio':12s} {failed / attempted:.4f}"
          f"  ({failed} of {attempted} requests)")
    for line in workload.summary(untraced[-1].results):
        print(line)
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")

    if tracer is None:
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(p.seconds() for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        metrics = layer_metrics(tracer, traced, untraced, counts, setup_scale)
        repeat = all(c == counts[0] for c in counts)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"traced passes {len(traced)}; counts repeat across traced"
              f" passes: {'yes' if repeat else 'NO'}; spans"
              f" {len(tracer.spans)} -> {path.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
