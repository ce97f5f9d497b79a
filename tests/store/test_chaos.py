"""Chaos acceptance: campaigns survive a faulting infrastructure.

The subsystem's acceptance criteria (ISSUE 7):

* a Table 3 campaign run through a :class:`ChaosProxy` injecting
  seeded disconnects, truncated frames and one mid-campaign daemon
  kill/restart produces a ``normalized_manifest()`` **byte-identical**
  to the direct-store run, with zero failed jobs;
* with retries disabled, the same faults produce ``degraded`` rows
  whose spill shards merge back to an **identical verdict
  population** -- zero verdicts lost, ever.

Fault schedules are seeded, so a failure here reproduces exactly.
"""

import json
import sqlite3
import time
import warnings

import pytest

from chaos import ChaosPlan, ChaosProxy, ServeDaemon
from repro.store.campaign import (
    CampaignSpec,
    normalized_manifest,
    run_campaign,
)
from repro.store.resilience import RetryPolicy
from repro.store.service import VerdictService

#: A Table 3 slice: 2 tests x 2 backends = 4 jobs, small enough for a
#: test suite, wide enough that jobs overlap under --jobs 2.
SPEC = CampaignSpec.from_dict({
    "name": "chaos-table3",
    "tests": ["MATS", "MarchC-"],
    "faults": ["SAF", "TF"],
    "sizes": [3],
    "backends": ["bitparallel", "serial"],
})

#: The --jobs 4 kill sweep: 8 jobs so every worker holds several.
WIDE_SPEC = CampaignSpec.from_dict({
    "name": "chaos-wide",
    "tests": ["MATS", "MATS++", "MarchX", "MarchC-"],
    "faults": ["SAF", "TF"],
    "sizes": [3],
    "backends": ["bitparallel", "serial"],
})


def normalized_dump(manifest):
    return json.dumps(normalized_manifest(manifest), sort_keys=True)


def verdict_population(store_path):
    """Every verdict row, as a set: what must survive any fault."""
    conn = sqlite3.connect(store_path)
    try:
        return set(conn.execute(
            "SELECT signature, case_name, size, domain, verdict"
            " FROM verdicts"
        ))
    finally:
        conn.close()


def reference_run(spec, tmp_path):
    """The ground truth: the same spec against a direct file store."""
    store = tmp_path / "reference.sqlite"
    manifest = run_campaign(spec, store_path=str(store), jobs=1)
    assert manifest["totals"]["failed"] == 0
    assert manifest["totals"]["degraded"] == 0
    return manifest, verdict_population(store)


class TestChaosProxyCampaigns:
    def test_faulty_transport_with_daemon_restart_is_byte_identical(
        self, tmp_path
    ):
        """The tentpole acceptance: seeded drops, truncated frames,
        garbage, delays AND one SIGKILL+restart of the daemon -- and
        the normalized manifest must not flinch."""
        reference, population = reference_run(SPEC, tmp_path)

        store = tmp_path / "chaos.sqlite"
        daemon_sock = tmp_path / "daemon.sock"
        proxy_sock = tmp_path / "proxy.sock"
        plan = ChaosPlan(
            seed=1301,
            drop_rate=0.04,
            truncate_rate=0.02,
            garbage_rate=0.02,
            delay_rate=0.10,
            delay_seconds=0.001,
        )
        daemon = ServeDaemon(store, daemon_sock)
        daemon.start()
        restarted = []

        def restart_once(done, total, record):
            # One real daemon death mid-campaign: SIGKILL (stale
            # socket, unflushed WAL) and a cold restart while the
            # other workers are still writing through the proxy.
            if not restarted:
                restarted.append(done)
                daemon.kill()
                daemon.start()

        try:
            with ChaosProxy(str(daemon_sock), proxy_sock, plan) as proxy:
                manifest = run_campaign(
                    SPEC,
                    store_path=proxy.url,
                    jobs=2,
                    progress=restart_once,
                    retry=RetryPolicy(
                        max_attempts=25,
                        base_delay=0.02,
                        max_delay=0.4,
                        seed=7,
                    ),
                )
                injected = proxy.total_injected()
        finally:
            daemon.stop()

        assert restarted, "the restart hook never fired"
        assert injected > 0, (
            "the chaos plan injected nothing; the run proved nothing"
        )
        assert manifest["totals"]["failed"] == 0
        assert normalized_dump(manifest) == normalized_dump(reference), (
            "infrastructure faults may never change campaign results"
        )
        assert verdict_population(store) == population

    def test_retries_disabled_degrades_and_merges_identically(
        self, tmp_path
    ):
        """Same fault space, zero retry budget: jobs must degrade to
        spill shards (not fail) and the merged population must equal
        the direct run's exactly."""
        reference, population = reference_run(SPEC, tmp_path)

        store = tmp_path / "chaos.sqlite"
        daemon_sock = tmp_path / "daemon.sock"
        proxy_sock = tmp_path / "proxy.sock"
        plan = ChaosPlan(
            seed=99,
            drop_rate=0.15,
            truncate_rate=0.08,
            garbage_rate=0.08,
        )
        daemon = VerdictService(store, daemon_sock, checkpoint_interval=0)
        daemon.start()
        try:
            with ChaosProxy(str(daemon_sock), proxy_sock, plan) as proxy:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    manifest = run_campaign(
                        SPEC,
                        store_path=proxy.url,
                        jobs=2,
                        retry=RetryPolicy.no_retry(seed=5),
                    )
                assert proxy.total_injected() > 0
        finally:
            daemon.stop()

        totals = manifest["totals"]
        assert totals["failed"] == 0, (
            "a transient fault must degrade a job, never fail it"
        )
        assert totals["degraded"] >= 1, (
            "with no retry budget these fault rates must degrade"
            " at least one job"
        )
        spill_merge = manifest["resilience"]["spill_merge"]
        assert spill_merge["spills"] == totals["degraded"]
        assert spill_merge["unmerged"] == []
        degraded_jobs = [
            job for job in manifest["jobs"] if job["degraded"]
        ]
        for job in degraded_jobs:
            assert job["error"] is None
            assert job["spill"], "degraded jobs must name their spill"
        assert normalized_dump(manifest) == normalized_dump(reference)
        assert verdict_population(store) == population, (
            "spill-shard merging lost or altered verdicts"
        )

    def test_sigkill_mid_campaign_degrades_with_zero_lost_verdicts(
        self, tmp_path
    ):
        """The satellite: SIGKILL the daemon under --jobs 4 writers and
        never bring it back.  Workers retry, degrade, and their spill
        shards carry every verdict; the fallback file merge (into the
        store path learned from the opening handshake) recovers all of
        them."""
        reference, population = reference_run(WIDE_SPEC, tmp_path)

        store = tmp_path / "killed.sqlite"
        daemon_sock = tmp_path / "daemon.sock"
        daemon = ServeDaemon(store, daemon_sock)
        daemon.start()
        killed = []

        def kill_once(done, total, record):
            if not killed:
                killed.append(done)
                daemon.kill()

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                manifest = run_campaign(
                    WIDE_SPEC,
                    store_path=daemon.url,
                    jobs=4,
                    progress=kill_once,
                    retry=RetryPolicy(
                        max_attempts=3, base_delay=0.01, seed=3
                    ),
                )
        finally:
            daemon.stop()

        assert killed, "the kill hook never fired"
        totals = manifest["totals"]
        assert totals["failed"] == 0
        assert totals["degraded"] >= 1, (
            "every job that outlived the daemon must have degraded"
        )
        spill_merge = manifest["resilience"]["spill_merge"]
        assert spill_merge["via"] == "file", (
            "with the daemon dead, spills must merge through the"
            " server store file directly"
        )
        assert spill_merge["unmerged"] == []
        assert spill_merge["spills"] == totals["degraded"]
        # Zero lost verdicts: what the daemon committed before SIGKILL
        # (WAL-durable) plus every spill shard equals the full
        # population of a direct run.
        assert verdict_population(store) == population
        assert normalized_dump(manifest) == normalized_dump(reference)

    def test_chaos_schedule_is_deterministic(self, tmp_path):
        """Two proxies with the same plan inject the same faults for
        the same traffic -- the harness itself is reproducible."""
        import socket as socket_module
        import struct

        plan = ChaosPlan(
            seed=4, drop_rate=0.3, truncate_rate=0.2, garbage_rate=0.2
        )
        header = struct.Struct(">I")

        def drive(tag):
            upstream = tmp_path / f"up-{tag}.sock"
            listen = tmp_path / f"chaos-{tag}.sock"
            server = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            server.bind(str(upstream))
            server.listen(8)

            def echo():
                while True:
                    try:
                        conn, _ = server.accept()
                    except OSError:
                        return
                    try:
                        while True:
                            head = conn.recv(header.size)
                            if len(head) < header.size:
                                break
                            (length,) = header.unpack(head)
                            body = b""
                            while len(body) < length:
                                chunk = conn.recv(length - len(body))
                                if not chunk:
                                    break
                                body += chunk
                            conn.sendall(head + body)
                    except OSError:
                        pass
                    finally:
                        conn.close()

            import threading
            thread = threading.Thread(target=echo, daemon=True)
            thread.start()
            events = []
            with ChaosProxy(str(upstream), listen, plan) as proxy:
                for _ in range(12):
                    client = socket_module.socket(
                        socket_module.AF_UNIX, socket_module.SOCK_STREAM
                    )
                    client.settimeout(5)
                    outcome = "ok"
                    try:
                        client.connect(str(listen))
                        for _ in range(4):
                            payload = b'{"n": 1}'
                            client.sendall(
                                header.pack(len(payload)) + payload
                            )
                            echoed = client.recv(4096)
                            if not echoed:
                                outcome = "dead"
                                break
                    except OSError:
                        outcome = "error"
                    finally:
                        client.close()
                    events.append(outcome)
                # Give relay threads a beat to tally their counters.
                time.sleep(0.2)
                counters = dict(proxy.counters)
            # close() alone does not wake the thread blocked in accept().
            server.shutdown(socket_module.SHUT_RDWR)
            server.close()
            thread.join(timeout=5)
            return events, counters

        first_events, first_counters = drive("a")
        second_events, second_counters = drive("b")
        # The client-visible outcome sequence is the contract; the
        # counters are tallied by relay threads and only their totals
        # are asserted (a thread may still be mid-tally at snapshot).
        assert first_events == second_events
        assert sum(
            v for k, v in first_counters.items() if k != "connections"
        ) > 0
        assert sum(
            v for k, v in second_counters.items() if k != "connections"
        ) > 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
