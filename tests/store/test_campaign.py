"""The declarative campaign runner and its manifest contract."""

import json

import pytest

from repro.store.campaign import (
    MANIFEST_SCHEMA,
    CampaignSpec,
    CampaignSpecError,
    normalized_manifest,
    run_campaign,
    summarize,
    write_manifest,
)


def normalized_dump(manifest):
    return json.dumps(normalized_manifest(manifest), sort_keys=True)

SPEC = {
    "name": "unit",
    "tests": ["MATS", "MarchC-"],
    "faults": ["SAF", "TF"],
    "sizes": [3],
    "backends": ["bitparallel"],
}


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "dict.sqlite"


class TestSpec:
    def test_from_dict_normalizes_and_validates(self):
        spec = CampaignSpec.from_dict(dict(SPEC, faults=["saf", "tf"]))
        assert spec.faults == ("SAF", "TF")
        assert spec.sizes == (3,)
        assert spec.backends == ("bitparallel",)

    def test_defaults(self):
        spec = CampaignSpec.from_dict(
            {"name": "d", "tests": ["MATS"], "faults": ["SAF"]}
        )
        assert spec.sizes == (3,)
        assert spec.backends == ("bitparallel",)
        assert spec.store is None

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown campaign"):
            CampaignSpec.from_dict(dict(SPEC, typo=1))

    def test_unknown_fault_model_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown fault model"):
            CampaignSpec.from_dict(dict(SPEC, faults=["NOPE"]))

    def test_unknown_backend_rejected(self):
        # Campaign specs share the kernel's validate_backend_name, so
        # the message (and its valid-choices list) is the unified one.
        with pytest.raises(
            CampaignSpecError, match="unknown simulation backend"
        ):
            CampaignSpec.from_dict(dict(SPEC, backends=["gpu"]))

    def test_bad_sizes_rejected(self):
        for sizes in ([], [0], [True], ["3"]):
            with pytest.raises(CampaignSpecError, match="sizes"):
                CampaignSpec.from_dict(dict(SPEC, sizes=sizes))

    def test_missing_required_keys_rejected(self):
        with pytest.raises(CampaignSpecError, match="requires"):
            CampaignSpec.from_dict({"name": "x", "tests": ["MATS"]})

    def test_from_file_and_json_errors(self, tmp_path):
        good = tmp_path / "spec.json"
        good.write_text(json.dumps(SPEC))
        assert CampaignSpec.from_file(good).name == "unit"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CampaignSpecError, match="not valid JSON"):
            CampaignSpec.from_file(bad)

    def test_missing_spec_file_raises_spec_error(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="cannot read"):
            CampaignSpec.from_file(tmp_path / "absent.json")

    def test_non_string_fault_names_rejected(self):
        with pytest.raises(CampaignSpecError, match="must be strings"):
            CampaignSpec.from_dict(dict(SPEC, faults=[3]))

    def test_tests_accept_literal_notation(self):
        spec = CampaignSpec.from_dict(
            dict(SPEC, tests=["MATS", "{up(w0); up(r0)}"])
        )
        resolved = spec.resolved_tests()
        assert resolved[0].name == "MATS"
        assert resolved[1].name == "{up(w0); up(r0)}"
        assert len(resolved[1].elements) == 2

    def test_jobs_iterate_backends_slowest_tests_fastest(self):
        spec = CampaignSpec.from_dict(
            dict(SPEC, sizes=[3, 4], backends=["bitparallel", "serial"])
        )
        assert spec.jobs() == [
            ("bitparallel", 3, "MATS"), ("bitparallel", 3, "MarchC-"),
            ("bitparallel", 4, "MATS"), ("bitparallel", 4, "MarchC-"),
            ("serial", 3, "MATS"), ("serial", 3, "MarchC-"),
            ("serial", 4, "MATS"), ("serial", 4, "MarchC-"),
        ]


class TestRunCampaign:
    def test_manifest_shape_and_verdicts(self, store_path):
        spec = CampaignSpec.from_dict(SPEC)
        manifest = run_campaign(spec, store_path=str(store_path))
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["campaign"] == "unit"
        assert manifest["spec"]["faults"] == ["SAF", "TF"]
        # One job per (test, backend, size) cell of the sweep.
        assert manifest["totals"]["jobs"] == 2
        assert manifest["totals"]["results"] == 2
        assert manifest["totals"]["failed"] == 0
        assert manifest["parallel"]["mode"] == "sequential"
        assert [job["test"] for job in manifest["jobs"]] == [
            "MATS", "MarchC-"
        ]
        rows = {row["test"]: row for row in manifest["results"]}
        # MarchC- covers SAF+TF fully; MATS misses TF cases.
        assert rows["MarchC-"]["coverage"] == 1.0
        assert rows["MarchC-"]["missed"] == []
        assert rows["MATS"]["coverage"] < 1.0
        assert rows["MATS"]["missed"]
        assert rows["MATS"]["detected"] + len(rows["MATS"]["missed"]) == (
            rows["MATS"]["fault_cases"]
        )

    def test_second_campaign_is_pure_store_lookup(self, store_path):
        spec = CampaignSpec.from_dict(SPEC)
        first = run_campaign(spec, store_path=str(store_path))
        second = run_campaign(spec, store_path=str(store_path))
        assert first["totals"]["verdicts_simulated"] > 0
        assert second["totals"]["verdicts_simulated"] == 0
        assert second["totals"]["verdicts_from_store"] > 0
        assert first["results"] == second["results"]

    def test_backends_deduplicate_through_the_store(self, store_path):
        spec = CampaignSpec.from_dict(
            dict(SPEC, backends=["bitparallel", "serial"])
        )
        manifest = run_campaign(spec, store_path=str(store_path))
        packed_jobs = manifest["jobs"][:2]
        serial_jobs = manifest["jobs"][2:]
        assert sum(j["store"]["writes"] for j in packed_jobs) > 0
        assert sum(j["store"]["hits"] for j in serial_jobs) == sum(
            j["store"]["writes"] for j in packed_jobs
        )
        for job in serial_jobs:
            assert job["served"] == {}, "second backend must not simulate"
        # Same verdicts either way.
        by_backend = {}
        for row in manifest["results"]:
            by_backend.setdefault(row["backend"], []).append(
                {k: v for k, v in row.items() if k != "backend"}
            )
        assert by_backend["bitparallel"] == by_backend["serial"]

    def test_campaign_without_store_still_runs(self):
        spec = CampaignSpec.from_dict(SPEC)
        manifest = run_campaign(spec)
        assert manifest["store"] is None
        assert manifest["totals"]["verdicts_from_store"] == 0
        assert manifest["jobs"][0].get("store") is None

    def test_spec_store_field_is_used_and_cli_overrides(self, tmp_path):
        spec_store = tmp_path / "from-spec.sqlite"
        spec = CampaignSpec.from_dict(dict(SPEC, store=str(spec_store)))
        manifest = run_campaign(spec)
        assert manifest["store"] == str(spec_store)
        assert spec_store.exists()
        override = tmp_path / "override.sqlite"
        manifest = run_campaign(spec, store_path=str(override))
        assert manifest["store"] == str(override)
        assert override.exists()

    def test_manifest_writes_and_summarizes(self, store_path, tmp_path):
        spec = CampaignSpec.from_dict(SPEC)
        manifest = run_campaign(spec, store_path=str(store_path))
        path = write_manifest(manifest, tmp_path / "manifest.json")
        reloaded = json.loads(path.read_text())
        assert reloaded["campaign"] == "unit"
        assert reloaded["totals"]["results"] == 2
        text = summarize(manifest)
        assert "campaign 'unit'" in text
        assert "MarchC-" in text and "100.0%" in text


class TestFanOut:
    """The parallel executor: determinism and isolation."""

    SWEEP = dict(SPEC, backends=["bitparallel", "serial"])  # 4 jobs

    def test_parallel_manifest_identical_to_sequential(self, store_path):
        spec = CampaignSpec.from_dict(self.SWEEP)
        sequential = run_campaign(spec, store_path=str(store_path), jobs=1)
        fanned = run_campaign(spec, store_path=str(store_path), jobs=4)
        assert fanned["parallel"] == {"jobs": 4, "mode": "shared"}
        assert normalized_dump(fanned) == normalized_dump(sequential)
        # The normalized form still carries the determinism contract.
        normalized = normalized_manifest(fanned)
        assert [job["test"] for job in normalized["jobs"]] == [
            "MATS", "MarchC-", "MATS", "MarchC-"
        ]
        assert normalized["results"] == fanned["results"]
        assert "seconds" not in normalized["totals"]
        assert "parallel" not in normalized

    def test_parallel_without_store_identical_too(self):
        spec = CampaignSpec.from_dict(self.SWEEP)
        sequential = run_campaign(spec, jobs=1)
        fanned = run_campaign(spec, jobs=3)
        assert normalized_dump(fanned) == normalized_dump(sequential)

    def test_progress_reports_every_job(self, store_path):
        spec = CampaignSpec.from_dict(self.SWEEP)
        events = []
        run_campaign(
            spec, store_path=str(store_path), jobs=2,
            progress=lambda done, total, record: events.append(
                (done, total, record["test"], record["error"])
            ),
        )
        assert len(events) == 4
        assert [done for done, _, _, _ in events] == [1, 2, 3, 4]
        assert all(total == 4 for _, total, _, _ in events)
        assert all(error is None for _, _, _, error in events)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashed_job_is_recorded_and_the_sweep_continues(self, jobs):
        spec = CampaignSpec.from_dict(dict(SPEC, tests=["MATS", "{bogus"]))
        manifest = run_campaign(spec, jobs=jobs)
        assert manifest["totals"]["jobs"] == 2
        assert manifest["totals"]["failed"] == 1
        assert manifest["totals"]["results"] == 1
        healthy, crashed = manifest["jobs"]
        assert healthy["error"] is None
        assert crashed["error"] is not None
        assert "ValueError" in crashed["error"]
        assert crashed["test"] == "{bogus"
        assert manifest["results"][0]["test"] == "MATS"
        text = summarize(manifest)
        assert "FAILED" in text and "ValueError" in text

    def test_crash_isolation_is_deterministic_across_widths(self):
        spec = CampaignSpec.from_dict(dict(
            SPEC, tests=["MATS", "{broken", "MarchC-"],
        ))
        assert normalized_dump(run_campaign(spec, jobs=1)) == (
            normalized_dump(run_campaign(spec, jobs=3))
        )

    def test_bad_jobs_width_rejected(self):
        spec = CampaignSpec.from_dict(SPEC)
        with pytest.raises(CampaignSpecError, match="jobs"):
            run_campaign(spec, jobs=0)

    def test_hard_worker_death_still_yields_a_manifest(self, monkeypatch):
        """A SIGKILLed worker (OOM killer, segfault) breaks the whole
        pool: every live future fails with BrokenProcessPool.  The
        campaign must record every unfinished job as failed and still
        return the manifest -- losing it would cost the record of every
        job that *did* complete."""
        import os
        import signal

        from repro.store import campaign as campaign_module

        real = campaign_module._simulate_job

        def killer(request):
            if request.test_text == "MarchY":
                os.kill(os.getpid(), signal.SIGKILL)
            return real(request)

        # Fork-context workers inherit the patched module, so the kill
        # happens inside a real pool worker, not the test process.
        monkeypatch.setattr(campaign_module, "_simulate_job", killer)
        spec = CampaignSpec.from_dict(dict(
            SPEC, tests=["MATS", "MarchY", "MSCAN", "MarchX"],
        ))
        manifest = run_campaign(spec, jobs=2)
        assert manifest["totals"]["jobs"] == 4
        assert manifest["totals"]["failed"] >= 1
        by_test = {job["test"]: job for job in manifest["jobs"]}
        assert by_test["MarchY"]["error"] is not None
        assert "BrokenProcessPool" in by_test["MarchY"]["error"]
        # No job row is silently dropped: each either carries its
        # result or an error, and the totals reconcile.
        for job in manifest["jobs"]:
            assert (job["error"] is None) == (job["fault_cases"] is not None)
        assert manifest["totals"]["failed"] + manifest["totals"]["results"] \
            == manifest["totals"]["jobs"]
        assert "FAILED" in summarize(manifest)
