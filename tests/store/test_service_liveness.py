"""The daemon's liveness surface: idle reaping, the WAL-checkpoint
timer, the ``health`` op and the ``repro store ping`` probe.

The idle-reap and checkpoint-timer tests run on sub-second daemon knobs
and wait fractions of a second, not the defaults.
"""

import time

from grouped import get, put
from repro.cli import main
from repro.kernel import SimKey
from repro.store.service import ServiceStore, VerdictService


def key(signature="{up(w0)}", case="SA0@0", size=3, domain="sp"):
    return SimKey(signature, case, size, domain)


# -- the hardened daemon --------------------------------------------------------


class TestDaemonHardening:
    def test_idle_clients_are_reaped_and_reconnect(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock",
            idle_timeout=0.3, checkpoint_interval=0,
        )
        daemon.start()
        try:
            client = ServiceStore(daemon.url)
            put(client, key(), True)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with ServiceStore(daemon.url) as probe:
                    health = probe.health()
                if health["counters"]["reaped_idle"] >= 1:
                    break
                time.sleep(0.1)
            assert health["counters"]["reaped_idle"] >= 1, (
                "the idle client was never reaped"
            )
            # The reaped client's next request reconnects transparently
            # (the reap looks like any server-side hangup: transient).
            assert get(client, key()) is True
            client.close()
        finally:
            daemon.stop()

    def test_background_checkpoint_timer_runs(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock",
            checkpoint_interval=0.05,
        )
        daemon.start()
        try:
            with ServiceStore(daemon.url) as client:
                put(client, key(), True)
                deadline = time.monotonic() + 10
                checkpoints = 0
                while time.monotonic() < deadline:
                    checkpoints = client.health()["counters"]["checkpoints"]
                    if checkpoints >= 2:
                        break
                    time.sleep(0.05)
            assert checkpoints >= 2
        finally:
            daemon.stop()

    def test_health_reports_liveness(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock",
            idle_timeout=123.0,
        )
        daemon.start()
        try:
            with ServiceStore(daemon.url) as client:
                put(client, key(), True)
                health = client.health()
        finally:
            daemon.stop()
        assert health["uptime_seconds"] >= 0
        assert health["connections"]["active"] >= 1
        assert health["connections"]["total"] >= 1
        assert health["requests"] >= 2  # the put + this health call
        assert health["idle_timeout"] == 123.0
        assert set(health["counters"]) == {
            "reaped_idle", "checkpoints", "errors", "rejected_full",
        }


# -- repro store ping -----------------------------------------------------------


class TestPingCli:
    def test_ping_round_trips_against_a_live_daemon(
        self, tmp_path, capsys
    ):
        import json

        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        try:
            rc = main([
                "store", "ping", "--socket", str(daemon.socket_path),
                "--json",
            ])
            payload = json.loads(capsys.readouterr().out)
            assert rc == 0
            assert payload["service"] == "repro-verdict-service"
            assert payload["store"] == str(daemon.store_path)
            rc = main([
                "store", "ping", "--socket", str(daemon.socket_path),
            ])
            assert rc == 0
            assert "verdict service on" in capsys.readouterr().out
        finally:
            daemon.stop()

    def test_ping_exits_one_when_nothing_answers(self, tmp_path, capsys):
        import json

        rc = main([
            "store", "ping", "--socket", str(tmp_path / "absent.sock"),
            "--timeout", "1",
        ])
        assert rc == 1
        assert "no verdict service" in capsys.readouterr().err
        rc = main([
            "store", "ping", "--socket", str(tmp_path / "absent.sock"),
            "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["ok"] is False

    def test_campaign_against_a_dead_service_is_a_diagnostic(
        self, tmp_path, capsys
    ):
        """The up-front probe failing must be one stderr line and
        exit 1, not a traceback: with no daemon there is no store to
        run against."""
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "dead-service",
            "tests": ["MATS"],
            "faults": ["SAF"],
            "sizes": [3],
            "backends": ["serial"],
        }))
        rc = main([
            "campaign", str(spec),
            "--store", f"repro+unix://{tmp_path / 'absent.sock'}",
            "--manifest", str(tmp_path / "manifest.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err
        assert "no verdict service" in captured.err
        assert not (tmp_path / "manifest.json").exists()
