"""RetryPolicy, DegradingStore, and the hardened daemon surface.

Everything timing-shaped runs on injected clocks/sleeps (the policy
tests never wait) or on sub-second daemon knobs (the idle-reap and
checkpoint-timer tests wait fractions of a second, not the defaults).
"""

import pickle
import threading
import time

import pytest

from repro.cli import main
from repro.kernel import SimKey, SimulationKernel
from repro.store import (
    DegradingStore,
    FaultDictionaryStore,
    RetryExhaustedError,
    RetryPolicy,
    StoreError,
    TransientStoreError,
)
from repro.store.service import (
    ServiceStore,
    ServiceUnavailableError,
    VerdictService,
)


def key(signature="{up(w0)}", case="SA0@0", size=3, domain="sp"):
    return SimKey(signature, case, size, domain)


class FakeTime:
    """An injectable clock+sleep pair that records every sleep."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


# -- RetryPolicy ----------------------------------------------------------------


class TestRetryPolicy:
    def test_retries_transient_until_success(self):
        fake = FakeTime()
        policy = RetryPolicy(
            max_attempts=5, seed=3, clock=fake.clock, sleep=fake.sleep
        )
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientStoreError("boom")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(calls) == 3
        # The two sleeps taken are exactly the schedule's first two.
        assert fake.sleeps == policy.preview(3)

    def test_permanent_errors_fail_fast(self):
        fake = FakeTime()
        policy = RetryPolicy(clock=fake.clock, sleep=fake.sleep)
        calls = []

        def broken():
            calls.append(1)
            raise StoreError("permanent")

        with pytest.raises(StoreError, match="permanent"):
            policy.call(broken)
        assert len(calls) == 1
        assert fake.sleeps == []

    def test_exhaustion_carries_the_bookkeeping(self):
        fake = FakeTime()
        policy = RetryPolicy(
            max_attempts=3, seed=9, clock=fake.clock, sleep=fake.sleep
        )
        retries = []

        def dead():
            raise TransientStoreError("nobody home")

        with pytest.raises(RetryExhaustedError) as caught:
            policy.call(
                dead,
                on_retry=lambda n, d, e: retries.append((n, d)),
            )
        error = caught.value
        assert error.attempts == 3
        assert isinstance(error.last_error, TransientStoreError)
        assert error.__cause__ is error.last_error
        assert len(retries) == 2  # N attempts = N-1 backoffs
        assert len(fake.sleeps) == 2

    def test_schedule_is_seed_deterministic(self):
        a = RetryPolicy(max_attempts=6, seed=42)
        b = RetryPolicy(max_attempts=6, seed=42)
        c = RetryPolicy(max_attempts=6, seed=43)
        assert a.preview() == b.preview()
        assert a.preview() != c.preview()
        # Backoff grows and respects the cap even through jitter.
        flat = RetryPolicy(
            max_attempts=8, jitter=0.0, base_delay=0.05,
            max_delay=0.4, multiplier=2.0,
        )
        assert flat.preview() == [
            0.05, 0.1, 0.2, 0.4, 0.4, 0.4, 0.4
        ]

    def test_deadline_cuts_the_budget_short(self):
        fake = FakeTime()
        policy = RetryPolicy(
            max_attempts=100, base_delay=1.0, multiplier=1.0,
            jitter=0.0, deadline=3.5, clock=fake.clock, sleep=fake.sleep,
        )

        def dead():
            raise TransientStoreError("nope")

        with pytest.raises(RetryExhaustedError, match="deadline"):
            policy.call(dead)
        # 3 sleeps of 1 s fit under 3.5 s; the 4th would cross it.
        assert len(fake.sleeps) == 3

    def test_validation(self):
        for knobs in (
            {"max_attempts": 0},
            {"base_delay": -1},
            {"multiplier": 0.5},
            {"jitter": 2.0},
            {"deadline": 0},
        ):
            with pytest.raises(ValueError):
                RetryPolicy(**knobs)

    def test_policy_is_picklable_for_campaign_workers(self):
        policy = RetryPolicy(max_attempts=7, seed=5)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy
        assert clone.preview() == policy.preview()

    def test_no_retry_fails_on_first_transient(self):
        policy = RetryPolicy.no_retry()
        with pytest.raises(RetryExhaustedError):
            policy.call(lambda: (_ for _ in ()).throw(
                TransientStoreError("x")
            ))


# -- DegradingStore -------------------------------------------------------------


class FlakyPrimary:
    """A store stub that dies transiently after ``survive`` calls."""

    def __init__(self, survive=0):
        self.survive = survive
        self.calls = 0
        self.retries = 4
        self.readonly = False
        self.closed = False

    def _maybe_die(self):
        self.calls += 1
        if self.calls > self.survive:
            raise TransientStoreError("primary gone")

    def get(self, key, default=None):
        self._maybe_die()
        return default

    def get_many(self, keys):
        self._maybe_die()
        return {}

    def put(self, key, value):
        self._maybe_die()

    def put_many(self, pairs):
        self._maybe_die()

    def __contains__(self, key):
        self._maybe_die()
        return False

    def close(self):
        self.closed = True


class TestDegradingStore:
    def test_demotes_on_transient_and_replays_the_failed_call(
        self, tmp_path
    ):
        primary = FlakyPrimary(survive=0)
        spill_path = tmp_path / "spill.sqlite"
        with pytest.warns(RuntimeWarning, match="degrading"):
            with DegradingStore(primary, spill_path) as store:
                # The very first call dies on the primary -- and lands
                # in the spill anyway (the batch is replayed).
                store.put_many([(key(), True), (key(case="SA1@0"), False)])
                assert store.degraded
                assert store.get(key()) is True
                assert key(case="SA1@0") in store
                report = store.resilience()
        assert report == {
            "attempts": 4,
            "degraded": True,
            "spill": str(spill_path),
        }
        assert primary.closed
        # The spill shard is a real store: reopen it directly.
        with FaultDictionaryStore(spill_path, readonly=True) as spill:
            assert spill.get(key()) is True

    def test_passthrough_while_primary_lives(self, tmp_path):
        primary = FlakyPrimary(survive=100)
        store = DegradingStore(primary, tmp_path / "spill.sqlite")
        store.put(key(), True)
        assert store.get(key(), default="miss") == "miss"  # stub store
        assert not store.degraded
        assert store.resilience()["spill"] is None
        assert not (tmp_path / "spill.sqlite").exists(), (
            "no spill file may appear before demotion"
        )
        store.close()

    def test_stats_merge_both_tiers(self, tmp_path):
        primary = FlakyPrimary(survive=0)
        with pytest.warns(RuntimeWarning):
            with DegradingStore(primary, tmp_path / "s.sqlite") as store:
                store.put(key(), True)
                store.get(key())
                assert store.stats.writes == 1
                assert store.stats.hits == 1


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
            client.put(key(), True)
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
            assert client.get(key()) is True
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
                client.put(key(), True)
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
                client.put(key(), True)
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

    def test_merge_op_folds_a_local_store_in(self, tmp_path):
        side = tmp_path / "side.sqlite"
        with FaultDictionaryStore(side) as source:
            source.put(key(), True)
            source.put(key(case="SA1@0"), False)
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        try:
            with ServiceStore(daemon.url) as client:
                merged = client.merge_from(side)
                assert merged["source_rows"] == 2
                assert merged["inserted"] == 2
                assert client.get(key()) is True
                # The ledger invariant survives a merge: stats must
                # not see writes the per-client counters don't hold.
                stats = client.server_stats()
                clients = stats["clients"]
                accounted = clients["retired"]["writes"] + sum(
                    c["writes"] for c in clients["per_client"].values()
                )
                assert stats["store_stats"]["writes"] == accounted
        finally:
            daemon.stop()

    def test_merge_op_refused_readonly_and_validates_source(
        self, tmp_path
    ):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        try:
            with ServiceStore(daemon.url, readonly=True) as client:
                with pytest.raises(StoreError, match="readonly"):
                    client.merge_from(tmp_path / "x.sqlite")
            with ServiceStore(daemon.url) as client:
                with pytest.raises(StoreError, match="source"):
                    client.merge_from("")
        finally:
            daemon.stop()


# -- the retrying client --------------------------------------------------------


class TestServiceStoreRetry:
    def test_rides_out_a_daemon_restart(self, tmp_path):
        store_path = tmp_path / "dict.sqlite"
        sock_path = tmp_path / "verdict.sock"
        first = VerdictService(store_path, sock_path).start()
        client = ServiceStore(
            first.url,
            retry=RetryPolicy(
                max_attempts=40, base_delay=0.02, max_delay=0.2, seed=1
            ),
        )
        client.put(key(), True)
        first.stop()

        second = VerdictService(store_path, sock_path)

        def restart_soon():
            time.sleep(0.3)
            second.start()

        thread = threading.Thread(target=restart_soon, daemon=True)
        thread.start()
        try:
            # Issued while nothing is listening: the retry loop backs
            # off until the restarted daemon answers.
            assert client.get(key()) is True
            assert client.retries >= 1
        finally:
            thread.join(timeout=10)
            client.close()
            second.stop()

    def test_exhaustion_raises_service_unavailable(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        client = ServiceStore(
            daemon.url,
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.001, seed=0
            ),
        )
        client.ping()
        daemon.stop()
        with pytest.raises(
            ServiceUnavailableError, match="after 2 attempt"
        ):
            client.get(key())
        assert isinstance(
            ServiceUnavailableError("x"), TransientStoreError
        ), "exhaustion must stay degradable for DegradingStore"
        client.close()

    def test_kernel_store_retry_reaches_the_client(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        try:
            policy = RetryPolicy(max_attempts=9, seed=2)
            kernel = SimulationKernel(store=daemon.url, store_retry=policy)
            try:
                assert kernel.store.retry == policy
            finally:
                kernel.close()
        finally:
            daemon.stop()


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
        degrade to."""
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
            "--retry-attempts", "1",
            "--manifest", str(tmp_path / "manifest.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err
        assert "no verdict service" in captured.err
        assert not (tmp_path / "manifest.json").exists()
