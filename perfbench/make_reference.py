"""Regenerate ``reference.json``, the benchmark's committed expectations.

    python3 perfbench/make_reference.py

The Table 3 complexities are the paper's.  The certify counts are the
number of candidates the exhaustive search grammar holds below each
row's complexity (capped by the 30,000 budget), recorded once.  The
sweep digest is computed with the scalar ``serial`` engine, never the
packed engine the workloads run, so a packed-engine bug cannot agree
with itself.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.faults import FaultList  # noqa: E402
from repro.kernel import SimulationKernel  # noqa: E402
from repro.march.catalog import CATALOG  # noqa: E402

from workloads import verdict_digest  # noqa: E402

TABLE3 = [
    (("SAF",), 4, 30),
    (("SAF", "TF"), 5, 138),
    (("SAF", "TF", "ADF"), 6, 626),
    (("SAF", "TF", "ADF", "CFIN"), 6, 626),
    (("SAF", "TF", "ADF", "CFIN", "CFID"), 10, 30001),
    (("CFIN",), 5, 138),
]

#: The twelve fault models of the base registry (CFRD is an extension).
MODELS = ("SAF", "TF", "ADF", "CFIN", "CFID", "CFST",
          "RDF", "DRDF", "IRF", "WDF", "DRF", "SOF")
SIZE = 16


def main() -> None:
    tests = list(CATALOG)
    cases = FaultList.from_names(*MODELS).instances(SIZE)
    started = time.perf_counter()
    reports = SimulationKernel(backend="serial").simulate_many(
        [CATALOG[name] for name in tests], cases, SIZE
    )
    seconds = time.perf_counter() - started
    reference = {
        "table3": [
            {"faults": list(names), "complexity": complexity,
             "certify_candidates": candidates}
            for names, complexity, candidates in TABLE3
        ],
        "coverage": {
            "models": list(MODELS),
            "size": SIZE,
            "tests": tests,
            "cases": len(cases),
            "lanes": 1 + sum(len(case.variants) for case in cases),
            "verdicts": len(tests) * len(cases),
            "detected": sum(len(r.detected) for r in reports),
            "engine": "serial",
            "digest": verdict_digest(reports),
        },
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {path} (serial sweep {seconds:.1f} s)")


if __name__ == "__main__":
    main()
