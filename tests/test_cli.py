"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestGenerate:
    def test_saf(self, capsys):
        assert main(["generate", "SAF"]) == 0
        out = capsys.readouterr().out
        assert "4n" in out and "verified   : True" in out

    def test_flags(self, capsys):
        code = main([
            "generate", "SAF", "--no-start-constraint", "--no-tighten",
            "--no-polish", "--selection-limit", "1",
        ])
        assert code == 0

    def test_unknown_fault(self):
        with pytest.raises(KeyError):
            main(["generate", "NOPE"])


class TestSimulate:
    def test_catalog_name(self, capsys):
        assert main(["simulate", "MATS", "SAF"]) == 0
        assert "full" in capsys.readouterr().out

    def test_notation_literal(self, capsys):
        assert main(["simulate", "{any(w0); any(r0,w1); any(r1)}", "SAF"]) == 0

    def test_incomplete_coverage_fails(self, capsys):
        assert main(["simulate", "MATS", "TF"]) == 1


class TestStoreFlags:
    def test_simulate_populates_then_reads_the_store(self, capsys, tmp_path):
        store = tmp_path / "dict.sqlite"
        args = ["simulate", "MarchC-", "SAF", "TF",
                "--store", str(store), "--sim-stats"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "writes" in first and store.exists()
        # Second invocation: a brand-new process would behave the same
        # way -- cold LRU, warm store, zero backend tasks.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "served no tasks" in second
        assert ", 0 writes" in second  # anchored: "10 writes" must fail

    def test_store_readonly_missing_file_errors(self, tmp_path):
        from repro.store import StoreError

        with pytest.raises(StoreError, match="does not exist"):
            main(["simulate", "MATS", "SAF",
                  "--store", str(tmp_path / "absent.sqlite"),
                  "--store-readonly"])

    def test_backend_defaults_to_bitparallel(self, capsys):
        assert main(["simulate", "MATS", "SAF", "--sim-stats"]) == 0
        assert "backend [bitparallel]" in capsys.readouterr().out

    def test_serial_backend_still_selectable(self, capsys):
        # generate passes the flag to the generator's own kernel.
        for command in (["simulate", "MATS"], ["generate", "--no-polish"]):
            assert main(command + ["SAF", "--backend", "serial",
                                   "--sim-stats"]) == 0
            assert "backend [serial]" in capsys.readouterr().out

    def test_generate_accepts_store(self, capsys, tmp_path):
        store = tmp_path / "gen.sqlite"
        assert main(["generate", "SAF", "--no-polish",
                     "--store", str(store), "--sim-stats"]) == 0
        assert store.exists()
        assert "store [gen.sqlite]" in capsys.readouterr().out

    def test_generate_store_readonly_writes_no_rows(self, capsys, tmp_path):
        store = tmp_path / "gen.sqlite"
        assert main(["simulate", "MATS", "SAF", "--store", str(store)]) == 0

        def rows():
            capsys.readouterr()
            assert main(["store", "stats", str(store), "--json"]) == 0
            return json.loads(capsys.readouterr().out)["rows"]

        before = rows()
        # The serial verifier resolves every candidate through the
        # cache, so a writable store would grow here.
        assert main(["generate", "SAF", "--no-polish", "--backend", "serial",
                     "--store", str(store), "--store-readonly",
                     "--sim-stats"]) == 0
        assert "skipped: readonly" in capsys.readouterr().out
        assert rows() == before

    def test_generate_writes_metrics_and_trace(self, tmp_path):
        from repro.telemetry import counter_total

        metrics, trace = tmp_path / "m.json", tmp_path / "t.jsonl"
        assert main(["generate", "SAF", "TF", "--no-polish",
                     "--metrics", str(metrics), "--trace", str(trace)]) == 0
        snapshot = json.loads(metrics.read_text())
        assert counter_total(snapshot, "repro.kernel.verify.calls") > 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert "kernel.verify" in names


class TestCampaign:
    def test_campaign_runs_and_writes_manifest(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli-smoke",
            "tests": ["MATS", "MarchC-"],
            "faults": ["SAF", "TF"],
            "sizes": [3],
            "backends": ["bitparallel"],
        }))
        manifest_path = tmp_path / "manifest.json"
        store = tmp_path / "dict.sqlite"
        assert main(["campaign", str(spec), "--store", str(store),
                     "--manifest", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-smoke'" in out
        assert f"wrote {manifest_path}" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["totals"]["results"] == 2
        assert store.exists()

    def test_campaign_rejects_bad_spec(self, tmp_path):
        from repro.store.campaign import CampaignSpecError

        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"name": "x", "tests": ["MATS"]}))
        with pytest.raises(CampaignSpecError):
            main(["campaign", str(spec)])

    def test_campaign_jobs_fans_out_with_live_progress(
        self, capsys, tmp_path
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli-fanout",
            "tests": ["MATS", "MarchC-"],
            "faults": ["SAF"],
            "backends": ["bitparallel", "serial"],
        }))
        manifest_path = tmp_path / "manifest.json"
        assert main(["campaign", str(spec), "--jobs", "2",
                     "--store", str(tmp_path / "dict.sqlite"),
                     "--manifest", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "[4/4]" in out  # live per-job progress lines
        manifest = json.loads(manifest_path.read_text())
        assert manifest["parallel"] == {"jobs": 2, "mode": "shared"}
        assert manifest["totals"]["jobs"] == 4

    def test_campaign_failed_job_sets_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli-crash",
            "tests": ["MATS", "{bogus"],
            "faults": ["SAF"],
        }))
        assert main(["campaign", str(spec),
                     "--manifest", str(tmp_path / "m.json")]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "ValueError" in out


class TestStoreSubcommand:
    def populate(self, tmp_path):
        store = tmp_path / "dict.sqlite"
        assert main(["simulate", "MarchC-", "SAF", "TF",
                     "--store", str(store)]) in (0, 1)
        return store

    def test_stats(self, capsys, tmp_path):
        store = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "schema 2" in out and "rows" in out

    def test_stats_json(self, capsys, tmp_path):
        store = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "stats", str(store), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["rows"] > 0
        assert stats["by_domain"] == {"sp": stats["rows"]}

    def test_compact(self, capsys, tmp_path):
        store = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "compact", str(store),
                     "--max-rows", "5", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["rows_after"] == 5
        assert main(["store", "stats", str(store), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 5

    def test_merge(self, capsys, tmp_path):
        first = self.populate(tmp_path)
        second_dir = tmp_path / "second"
        second_dir.mkdir()
        second = self.populate(second_dir)
        dest = tmp_path / "merged.sqlite"
        capsys.readouterr()
        assert main(["store", "merge", str(dest), str(first),
                     str(second)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 sources" in out
        assert main(["store", "stats", str(dest), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] > 0


class TestListings:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "MATS" in out and "MarchC-" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "SAF" in out and "BFE classes" in out


class TestDot:
    def test_m0(self, capsys):
        assert main(["dot", "m0"]) == 0
        assert capsys.readouterr().out.startswith("digraph M0")

    def test_tpg(self, capsys):
        assert main(["dot", "tpg", "CFIN"]) == 0
        assert "digraph TPG" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_march_c_minus(self, capsys):
        assert main(["analyze", "MarchC-", "SAF", "TF"]) == 0
        out = capsys.readouterr().out
        assert "covers all cases : True" in out
        assert "block analysis" in out

    def test_analyze_flags_redundancy(self, capsys):
        assert main(["analyze", "MarchC", "SAF", "TF", "CFIN", "CFID"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "block analysis   : redundant (6 elementary blocks)" in lines
        assert "redundant blocks : block2[elem3:⇕ op0:r0]" in lines

    @pytest.mark.parametrize("size", ["3", "4"])
    def test_a_read_only_the_descending_realization_needs_is_kept(
        self, capsys, size
    ):
        """CFIN+SOF's generated test: under the ascending realization
        alone (the Coverage Matrix) the ``r0`` of the second element
        looks redundant, but demoting it fails the verifier."""
        test = "{any(w1); any(r1,w0,r0,w1); any(r1)}"
        assert main(["analyze", test, "CFIN", "SOF", "--size", size,
                     "--sim-stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "covers all cases : True" in lines
        assert "block analysis   : non-redundant (3 elementary blocks)" in lines
        assert not [line for line in lines if "redundant blocks" in line]
        (stats,) = [line for line in lines if line.startswith("simulation ")]
        assert "; section 6: " in stats

    def test_a_test_that_misses_faults_has_no_block_verdict(self, capsys):
        assert main(["analyze", "MATS", "SAF", "TF"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "block analysis   : incomplete (2 elementary blocks)" in lines


class TestDiagnose:
    def test_diagnose_saf(self, capsys):
        assert main(["diagnose", "MATS", "SAF"]) == 0
        out = capsys.readouterr().out
        assert "unique resolution  : 100%" in out

    def test_diagnose_reports_misses(self, capsys):
        assert main(["diagnose", "MATS", "TF"]) == 1
        assert "undetected" in capsys.readouterr().out


class TestExport:
    def test_export_asm(self, capsys):
        assert main(["export", "MATS"]) == 0
        assert "FOR a =" in capsys.readouterr().out

    def test_export_csv(self, capsys):
        assert main(["export", "MATS", "--format", "csv", "--size", "2"]) == 0
        assert "index,op,address,data" in capsys.readouterr().out

    def test_export_latex(self, capsys):
        assert main(["export", "MATS", "--format", "latex"]) == 0
        assert r"\Updownarrow" in capsys.readouterr().out


def test_importing_the_package_loads_no_numpy():
    # Every CLI call and campaign worker pays for what these imports
    # pull in; the engines are pure Python.
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.cli, repro.kernel;"
         " assert 'numpy' not in sys.modules"],
        env=env, check=True,
    )
