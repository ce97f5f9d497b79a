"""The benchmark's own tests: the output checks turn red on a doctored
reference, the tracer's arithmetic and counts hold, and the benchmark
refuses to run without the program's sources.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import repro.core.generator as generator_module  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.kernel import SimulationKernel  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def doctored(edit) -> dict:
    reference = copy.deepcopy(REFERENCE)
    edit(reference)
    return reference


def outputs(workload, label: str):
    for name, request in workload.requests(random.Random(0)):
        if name == label:
            return request()
    raise KeyError(label)


class DoctoredReferenceTurnsRed(unittest.TestCase):
    def test_table3_complexity(self) -> None:
        report = outputs(workloads.Table3(REFERENCE, 0), "SAF")
        self.assertEqual(workloads.Table3(REFERENCE, 0).check("SAF", report), [])

        def edit(reference):
            reference["table3"][0]["complexity"] = 5

        errors = workloads.Table3(doctored(edit), 0).check("SAF", report)
        self.assertTrue(any("paper 5n" in e for e in errors), errors)

    def test_certify_grammar_count(self) -> None:
        result = outputs(workloads.Certify(REFERENCE, 0), "SAF+TF")
        self.assertEqual(workloads.Certify(REFERENCE, 0).check("SAF+TF", result), [])

        def edit(reference):
            reference["table3"][1]["certify_candidates"] = 139

        errors = workloads.Certify(doctored(edit), 0).check("SAF+TF", result)
        self.assertTrue(any("grammar count 139" in e for e in errors), errors)

    def test_sweep_digest(self) -> None:
        coverage = workloads.Coverage(REFERENCE, 7)
        reports = outputs(coverage, "sweep")
        self.assertEqual(coverage.check("sweep", reports), [])

        def edit(reference):
            reference["coverage"]["digest"] = "0" * 64

        errors = workloads.sweep_errors(reports, doctored(edit)["coverage"])
        self.assertTrue(any("digest" in e for e in errors), errors)

    def test_one_flipped_verdict_changes_the_digest(self) -> None:
        coverage = workloads.Coverage(REFERENCE, 3)
        reports = outputs(coverage, "sweep")
        reports[0].missed.append(reports[0].detected.pop())
        self.assertTrue(coverage.check("sweep", reports))

    def test_service_rows(self) -> None:
        workdir = Path(tempfile.mkdtemp(dir=HERE.parent))
        service = workloads.Service(REFERENCE, 1, workdir)
        try:
            self.assertEqual(service.check("write", outputs(service, "write")), [])
            self.assertEqual(service.end_pass(), [])

            def edit(reference):
                reference["coverage"]["verdicts"] = 40513

            service.reference = doctored(edit)["coverage"]
            service.begin_pass()
            self.assertTrue(service.check("write", outputs(service, "write")))
            self.assertTrue(any("rows" in e for e in service.end_pass()))
        finally:
            service.close()
        self.assertFalse(workdir.exists())


    def test_service_warm_read(self) -> None:
        workdir = Path(tempfile.mkdtemp(dir=HERE.parent))
        service = workloads.ServiceRead(REFERENCE, 2, workdir)
        try:
            service.begin_pass()
            self.assertEqual(service.end_pass(), [])
            result = outputs(service, "read")
            self.assertEqual(service.check("read", result), [])

            def edit(reference):
                reference["coverage"]["verdicts"] = 40513

            service.reference = doctored(edit)["coverage"]
            self.assertTrue(any("store hits" in e
                                for e in service.check("read", result)))
        finally:
            service.close()


class TracerWorks(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self) -> None:
        recorded = [
            ("request", 0.0, 10.0, None, "r"),
            ("kernel.verify", 1.0, 9.0, 0, "r"),
            ("simulator.run_variant", 2.0, 5.0, 1, "r"),
            ("simulator.run_variant", 5.0, 6.0, 1, "r"),
        ]
        self.assertEqual(spans.self_times(recorded), [2.0, 4.0, 3.0, 1.0])
        self.assertEqual(spans.layer_self_times(recorded), {"r": {
            "kernel.verify_s": 4.0, "simulator.run_variant_s": 4.0,
        }})

    def test_counts_repeat_and_uninstall_restores(self) -> None:
        originals = (SimulationKernel.verifier, generator_module.solve_path)
        certify = workloads.Certify(REFERENCE, 0)
        tracer = spans.Tracer()
        counts = []
        for _ in range(2):
            tracer.install()
            try:
                tracer.request_span("SAF+TF", lambda: outputs(certify, "SAF+TF"))
            finally:
                tracer.uninstall()
            counts.append(tracer.take_counts())
        self.assertEqual(counts[0], counts[1])
        metrics = spans.count_metrics(counts[0])
        self.assertEqual(metrics["core.exhaustive_candidates"], 138)
        self.assertEqual(metrics["kernel.verify_calls"], 138)
        self.assertEqual(originals,
                         (SimulationKernel.verifier, generator_module.solve_path))


class RunnerWorks(unittest.TestCase):
    def test_tail_percentile(self) -> None:
        self.assertIsNone(run.tail_percentile([1.0] * 10))
        p, value = run.tail_percentile([float(i) for i in range(1, 21)])
        self.assertEqual((p, value), (50, 10.0))

    def test_exits_nonzero_without_sources(self) -> None:
        bare = Path(tempfile.mkdtemp(dir=HERE.parent))
        try:
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "coverage",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
