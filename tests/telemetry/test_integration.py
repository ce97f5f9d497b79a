"""Telemetry threaded through the kernel, campaign, daemon and CLI."""

import json

import pytest

from repro.cli import main
from repro.faults.faultlist import FaultList
from repro.kernel import SimulationKernel
from repro.march.catalog import by_name
from repro.store.campaign import CampaignSpec, run_campaign, \
    normalized_manifest
from repro.store.service import SERVICE_MAGIC, ServiceStore, VerdictService
from repro.telemetry import TELEMETRY_OFF, Telemetry, counter_total

#: One verdict as a lookup group and as a write group of the stores'
#: grouped surface: ``(signature, size, domain, cases[, verdicts])``.
LOOKUP = ("{up(w0)}", 3, "sp", ["SA0@0"])
WRITE = (*LOOKUP, [True])


SPEC = {
    "name": "telemetry-unit",
    "tests": ["MATS", "MarchC-"],
    "faults": ["SAF", "TF"],
    "sizes": [3],
    "backends": ["serial"],
}


class TestKernelTelemetry:
    def simulate(self, telemetry=None, backend="serial"):
        kernel = SimulationKernel(backend=backend, telemetry=telemetry)
        try:
            test = by_name("MarchC-")
            cases = FaultList.from_names("SAF").instances(3)
            kernel.simulate(test, cases, size=3)
        finally:
            kernel.close()
        return kernel

    def test_default_telemetry_is_the_shared_null(self):
        kernel = self.simulate()
        assert kernel.telemetry is TELEMETRY_OFF
        assert kernel.stats.misses > 0  # stats still count without it

    def test_cache_counters_are_adopted_not_copied(self):
        telemetry = Telemetry()
        kernel = self.simulate(telemetry)
        snapshot = telemetry.snapshot()
        # One set of numbers: the registry series ARE the KernelStats
        # counters, so the legacy surface and the snapshot agree.
        assert counter_total(
            snapshot, "repro.kernel.cache.misses"
        ) == kernel.stats.misses
        assert counter_total(
            snapshot, "repro.kernel.cache.batches"
        ) == kernel.stats.batches
        series = snapshot["metrics"]["repro.kernel.cache.hits"]["series"]
        assert series[0]["labels"] == {"tier": "memory"}

    def test_backend_served_rides_a_collector(self):
        telemetry = Telemetry()
        kernel = self.simulate(telemetry)
        assert counter_total(
            telemetry.snapshot(), "repro.backend.served"
        ) == sum(kernel.backend.served.values())

    def test_batches_are_spanned_and_timed(self):
        telemetry = Telemetry()
        self.simulate(telemetry)
        trees = telemetry.span_trees()
        assert trees and all(
            t["name"] == "kernel.detect_batch" for t in trees
        )
        assert all(t["seconds"] >= 0 for t in trees)
        histogram = telemetry.snapshot()["metrics"][
            "repro.backend.detect.seconds"
        ]["series"][0]
        assert histogram["count"] == len(trees)

    def test_single_probe_path_is_spanned_too(self):
        telemetry = Telemetry()
        kernel = SimulationKernel(backend="serial", telemetry=telemetry)
        try:
            test = by_name("MATS")
            case = FaultList.from_names("SAF").instances(3)[0]
            kernel.detects(test, case, size=3)
            kernel.detects(test, case, size=3)  # cache hit: no span
        finally:
            kernel.close()
        trees = telemetry.span_trees()
        # A single probe is a one-case batch on the one verdict path.
        assert [t["name"] for t in trees] == ["kernel.detect_batch"]
        assert trees[0]["attrs"]["tasks"] == 1

    def test_packed_verify_calls_are_spanned_and_counted(self):
        from repro.core import GeneratorConfig, MarchTestGenerator
        from repro.telemetry import flatten_span_trees

        telemetry = Telemetry()
        report = MarchTestGenerator(
            GeneratorConfig(telemetry=telemetry)
        ).generate(FaultList.from_names("SAF", "TF"))
        assert report.verified
        lines = list(flatten_span_trees(telemetry.span_trees()))
        verify = [line for line in lines if line["name"] == "kernel.verify"]
        assert verify
        # Every SAF/TF case packs, so no candidate falls back to per-case
        # probes, which would show up as one-case ``kernel.detect_batch``.
        assert not [
            line for line in lines if line["name"] == "kernel.detect_batch"
        ]
        snapshot = telemetry.snapshot()
        assert counter_total(
            snapshot, "repro.kernel.verify.realizations"
        ) == sum(line["attrs"]["realizations"] for line in verify)
        assert counter_total(
            snapshot, "repro.kernel.verify.segments"
        ) == sum(line["attrs"]["segments"] for line in verify)
        for series in ("table_hits", "table_misses"):
            assert counter_total(
                snapshot, f"repro.kernel.verify.{series}"
            ) == sum(line["attrs"][series] for line in verify)
        assert counter_total(
            snapshot, "repro.kernel.verify.calls"
        ) == len(verify)

    def test_sim_stats_report_the_packed_verifier(self):
        kernel = SimulationKernel(backend="bitparallel")
        verify = kernel.verifier(FaultList.from_names("SAF").instances(2), 2)
        assert verify(by_name("MATS"))
        segments = dict(kernel.stats_segments())
        assert segments["verify"] == (
            "verify: 1 packed calls (1 accepted),"
            " 2 realizations in 6 segment runs,"
            " 0 table hits / 6 misses"
        )
        # The same candidate again: every element step is a table hit.
        assert verify(by_name("MATS"))
        assert dict(kernel.stats_segments())["verify"] == (
            "verify: 2 packed calls (2 accepted),"
            " 4 realizations in 12 segment runs,"
            " 6 table hits / 6 misses"
        )
        kernel.clear()
        assert "verify" not in dict(kernel.stats_segments())

    def test_store_tier_read_write_latency_is_timed(self, tmp_path):
        telemetry = Telemetry()
        kernel = SimulationKernel(
            backend="serial",
            store=str(tmp_path / "dict.sqlite"),
            telemetry=telemetry,
        )
        try:
            test = by_name("MarchC-")
            cases = FaultList.from_names("SAF").instances(3)
            kernel.simulate(test, cases, size=3)
        finally:
            kernel.close()
        metrics = telemetry.snapshot()["metrics"]
        assert metrics["repro.store.read_through.seconds"]["series"][0][
            "count"
        ] > 0
        assert metrics["repro.store.write_through.seconds"]["series"][0][
            "count"
        ] > 0
        assert counter_total(
            telemetry.snapshot(), "repro.store.misses"
        ) == kernel.store.stats.misses

    def test_describe_stats_tier_order_is_canonical(self, tmp_path):
        kernel = SimulationKernel(
            backend="serial", store=str(tmp_path / "dict.sqlite")
        )
        try:
            test = by_name("MATS")
            cases = FaultList.from_names("SAF").instances(3)
            kernel.simulate(test, cases, size=3)
            segments = kernel.stats_segments()
        finally:
            kernel.close()
        names = [name for name, _ in segments]
        assert names == [
            n for n in SimulationKernel.STATS_TIER_ORDER if n in names
        ]
        assert names[0] == "cache"
        assert "store" in names and "backend" in names
        described = kernel.describe_stats()
        assert described.index("cache") < described.index("store")


class TestCampaignTelemetry:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("telemetry") / "dict.sqlite"
        return run_campaign(
            CampaignSpec.from_dict(SPEC), store_path=str(store)
        )

    def test_metrics_reconcile_with_manifest_totals(self, manifest):
        merged = manifest["telemetry"]["metrics"]
        totals = manifest["totals"]
        assert counter_total(
            merged, "repro.backend.served"
        ) == totals["verdicts_simulated"]
        lookups = counter_total(merged, "repro.kernel.cache.hits") + \
            counter_total(merged, "repro.kernel.cache.misses")
        assert lookups == sum(
            job["cache"]["hits"] + job["cache"]["misses"]
            for job in manifest["jobs"]
        )

    def test_jobs_carry_their_own_snapshots_and_spans(self, manifest):
        for job in manifest["jobs"]:
            assert set(job["telemetry"]) == {"metrics", "spans"}
        simulating = [
            job for job in manifest["jobs"]
            if (job["served"] or {}).values()
        ]
        assert any(
            job["telemetry"]["spans"] for job in simulating
        )

    def test_normalized_manifest_strips_telemetry(self, manifest):
        normalized = normalized_manifest(manifest)
        assert "telemetry" not in normalized
        assert all(
            "telemetry" not in job for job in normalized["jobs"]
        )


class TestDaemonTelemetry:
    def test_metrics_op_returns_the_registry_snapshot(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        try:
            with ServiceStore(daemon.url) as client:
                client.put_groups([WRITE])
                client.get_groups([LOOKUP])
                payload = client.metrics()
        finally:
            daemon.stop()
        assert payload["schema"] == 1
        metrics = payload["metrics"]
        requests = {
            entry["labels"]["op"]: entry["value"]
            for entry in metrics["repro.service.requests"]["series"]
        }
        # One-group writes and reads ride the batched wire ops.
        assert requests["put_many"] == 1
        assert requests["get_many"] == 1
        assert metrics["repro.service.request.seconds"]["series"]
        assert counter_total(payload, "repro.store.writes") == 1

    def test_health_folds_in_rows_and_service_time(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        try:
            with ServiceStore(daemon.url) as client:
                client.put_groups([WRITE])
                health = client.health()
        finally:
            daemon.stop()
        assert health["service"] == SERVICE_MAGIC
        assert health["rows"]["rows"] == 1
        assert health["service_time"]["count"] >= 1
        assert health["service_time"]["seconds"] >= 0
        assert "put_many" in health["service_time"]["by_op"]

    def test_telemetry_survives_a_stop_start_cycle(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        try:
            with ServiceStore(daemon.url) as client:
                client.ping()
        finally:
            daemon.stop()
        daemon.start()
        try:
            with ServiceStore(daemon.url) as client:
                payload = client.metrics()
            # Collectors read the daemon's live state, not a captured
            # first-generation store.
            assert counter_total(
                payload["metrics"] and payload, "repro.service.requests"
            ) >= 1
        finally:
            daemon.stop()


class TestCliTelemetry:
    def test_simulate_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        rc = main([
            "simulate", "MarchC-", "SAF",
            "--backend", "serial",
            "--metrics", str(metrics_path),
            "--trace", str(trace_path),
        ])
        capsys.readouterr()
        assert rc == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema"] == 1
        assert counter_total(snapshot, "repro.backend.served") > 0
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert lines and lines[0]["name"] == "kernel.detect_batch"

    def test_campaign_artifacts_derive_from_the_manifest(
        self, tmp_path, capsys
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        manifest_path = tmp_path / "man.json"
        rc = main([
            "campaign", str(spec_path),
            "--manifest", str(manifest_path),
            "--metrics", str(metrics_path),
            "--trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        # Satellite: progress lines carry elapsed time and throughput.
        assert "[1/2]" in out
        assert "jobs/s]" in out
        manifest = json.loads(manifest_path.read_text())
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot == manifest["telemetry"]["metrics"]
        traced = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert traced and {t["depth"] for t in traced} == {0}

    def test_no_flags_leave_no_artifacts(self, tmp_path, capsys):
        rc = main([
            "simulate", "MATS", "SAF", "--backend", "serial",
        ])
        capsys.readouterr()
        assert rc in (0, 1)
        assert list(tmp_path.iterdir()) == []
