"""Steadiness and comparison runs of the benchmark.

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workloads table3 --runs 5
    python3 perfbench/steady.py --traced 2           # counts repeat exactly?
    python3 perfbench/steady.py --against ../parent  # alternating pairs

Each run is ``perfbench/run.py`` in a fresh process with its own seed
and the run length of ``BENCHMARK.json``.  For every end-to-end metric
the report gives the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, (q3 - q1) / median, against the metric's bound:
``steady`` below a third of it, ``within`` below it, ``WIDE`` above.

``--against DIR`` runs the same seeds on another checkout that holds
the same ``perfbench/`` (for example the parent commit), alternating
which side runs first.  A gain is claimed only when this side wins at
least 9 of 10 pairs and the medians differ by more than the other
side's quartile spread; a metric worse by more than its bound is a
regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> Dict:
    """One benchmark run in a fresh process; its JSON result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited"
                           f" {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect:\n"
                           f"{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: Sequence[float]) -> tuple:
    return tuple(statistics.quantiles(values, n=4))


def spread_report(workload: str, runs: List[Dict], spec: Dict) -> None:
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median
        bound = metric["bound"]
        verdict = ("steady" if spread < bound / 3
                   else "within" if spread <= bound else "WIDE")
        print(f"{workload:13s} {metric['name']:12s} median {median:.4f}"
              f" {metric['unit']:3s} q1 {q1:.4f} q3 {q3:.4f}"
              f" spread {spread:.4f} bound {bound} -> {verdict}")


def traced_report(workload: str, runs: List[Dict], spec: Dict) -> None:
    counted = [m["name"] for m in spec["per_layer"]
               if m["unit"] in ("count", "ratio")]
    differing = [name for name in counted
                 if len({run[name] for run in runs}) > 1]
    overhead = [run["trace.overhead_s"] for run in runs]
    print(f"{workload:13s} traced runs {len(runs)}: counts"
          f" {'repeat exactly' if not differing else 'DIFFER: ' + ', '.join(differing)};"
          f" tracing overhead median {statistics.median(overhead):.4f} s")


def compare_report(workload: str, pairs: List[tuple], spec: Dict) -> None:
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        ours = [p[0][name] for p in pairs]
        theirs = [p[1][name] for p in pairs]
        wins = sum((a < b) if lower else (a > b) for a, b in zip(ours, theirs))
        q1, base, q3 = quartiles(theirs)
        median = statistics.median(ours)
        gap = (base - median) if lower else (median - base)
        claim = wins >= 0.9 * len(pairs) and gap > q3 - q1
        worse = -gap / base
        verdict = ("GAIN" if claim else "REGRESSION" if worse > bound
                   else "no regression")
        print(f"{workload:13s} {name:12s} this {median:.4f} other {base:.4f}"
              f" (iqr {q3 - q1:.4f}) wins {wins}/{len(pairs)}"
              f" worse by {worse:+.2%} bound {bound:.0%} -> {verdict}")


def main(argv: Sequence[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0,
                        help="traced runs per workload instead of spread runs")
    parser.add_argument("--against", type=Path,
                        help="another checkout to pair every run with")
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
        seeds = range(args.first_seed, args.first_seed + (args.traced or args.runs))
        if args.traced:
            runs = [run_once(ROOT, workload, s, args.seconds, 1) for s in seeds]
            traced_report(workload, runs, spec)
        elif args.against:
            pairs = []
            for i, seed in enumerate(seeds):
                sides = [ROOT, args.against.resolve()]
                results = {}
                for side in (sides if i % 2 == 0 else sides[::-1]):
                    results[side] = run_once(side, workload, seed, args.seconds, 0)
                pairs.append((results[sides[0]], results[sides[1]]))
            compare_report(workload, pairs, spec)
        else:
            runs = [run_once(ROOT, workload, s, args.seconds, 0) for s in seeds]
            spread_report(workload, runs, spec)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
