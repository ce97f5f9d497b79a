"""Soak and async-daemon behaviour: the event-loop verdict service.

The acceptance criteria of the PR 9 rework: hundreds of concurrent
clients pipelining mixed read/write batches through the single-threaded
daemon, with zero dropped frames (every frame answered exactly once, in
order) and every verdict byte-identical to a direct-store run; the hot
LRU serving repeat reads without touching SQLite and counting itself in
the metrics registry; the connection cap hanging up transiently; and
``shutdown {"drain": true}`` finishing in-flight batches, checkpointing
the WAL and refusing new connections.
"""

import threading
import time

import pytest

from repro.kernel import SimKey
from repro.store import FaultDictionaryStore, encode_verdict
from repro.store.resilience import RetryPolicy
from repro.store.service import (
    SERVICE_MAGIC,
    ServiceStore,
    ServiceUnavailableError,
    VerdictService,
    batch_frame,
)
from repro.store.store import pair_groups


def key(i, prefix="c"):
    return SimKey("{up(w0)}", f"{prefix}{i}", 3, "sp")


def verdict(i):
    # Mix the two verdict shapes so byte-identity covers both the
    # boolean and the syndrome encoding.
    if i % 3 == 2:
        return frozenset({("r", i % 5, 0), ("w", i % 7, 1)})
    return i % 2 == 0


def put_frame(pairs):
    return batch_frame("put_many", pair_groups(pairs))


def read_frame(keys):
    """A ``get_many`` frame, and a function zipping its aligned
    ``found`` answer back onto the keys (absent keys left out)."""
    # Each group's fifth field holds its own keys, in case order.
    groups = pair_groups((k, k) for k in keys)
    frame = batch_frame("get_many", [group[:4] for group in groups])

    def zip_found(response):
        assert len(response["found"]) == len(groups)
        return {
            k: text
            for group, answer in zip(groups, response["found"])
            for k, text in zip(group[4], answer, strict=True)
            if text is not None
        }

    return frame, zip_found


# -- the soak --------------------------------------------------------------------


SOAK_CLIENTS = 200
KEYS_PER_CLIENT = 10


class TestSoak:
    def test_hundreds_of_pipelined_clients_byte_identical(self, tmp_path):
        """>= 200 concurrent clients, pipelined mixed batches, zero
        dropped frames, byte-identity against the direct store."""
        store_path = tmp_path / "dict.sqlite"
        daemon = VerdictService(
            store_path, tmp_path / "verdict.sock",
            checkpoint_interval=0,
        )
        daemon.start()
        barrier = threading.Barrier(SOAK_CLIENTS)
        failures = []
        served = {}  # SimKey -> encoded row text as served on the wire
        served_lock = threading.Lock()

        def one_client(client_no):
            keys = [
                key(client_no * KEYS_PER_CLIENT + i)
                for i in range(KEYS_PER_CLIENT)
            ]
            values = {
                k: verdict(client_no * KEYS_PER_CLIENT + i)
                for i, k in enumerate(keys)
            }
            half = KEYS_PER_CLIENT // 2
            read, zip_found = read_frame(keys)
            payloads = [
                put_frame([(k, values[k]) for k in keys[:half]]),
                # Pipelined read-after-write on the same connection:
                # the first half must already be visible.
                read,
                put_frame([(k, values[k]) for k in keys[half:]]),
                {"op": "ping"},
                read,
            ]
            try:
                client = ServiceStore(daemon.url)
                try:
                    barrier.wait(timeout=60)
                    responses = client.pipeline(payloads)
                finally:
                    client.close()
                # Zero dropped frames: one answer per frame, in order.
                assert len(responses) == len(payloads)
                for response in responses:
                    assert response.get("ok"), response
                assert responses[0]["written"] == half
                first_read = zip_found(responses[1])
                assert set(first_read) == set(keys[:half])
                assert responses[3]["service"] == SERVICE_MAGIC
                final_read = zip_found(responses[4])
                assert len(final_read) == KEYS_PER_CLIENT
                with served_lock:
                    served.update(final_read)
            except Exception as error:  # noqa: BLE001 - collected below
                failures.append((client_no, repr(error)))

        threads = [
            threading.Thread(target=one_client, args=(n,), daemon=True)
            for n in range(SOAK_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        try:
            assert not failures, failures[:5]
            assert len(served) == SOAK_CLIENTS * KEYS_PER_CLIENT
            health = daemon.health_snapshot()
            assert health["connections"]["total"] >= SOAK_CLIENTS
        finally:
            daemon.stop()
        # Byte-identity: what the service answered on the wire is
        # exactly the canonical encoding the direct store holds.
        with FaultDictionaryStore(store_path) as direct:
            for k, encoded in served.items():
                assert encoded == encode_verdict(direct.get(k))
            assert len(direct) == SOAK_CLIENTS * KEYS_PER_CLIENT


# -- pipelining on one connection ------------------------------------------------


class TestPipelining:
    def test_responses_in_request_order(self, tmp_path):
        with VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        ) as daemon:
            client = ServiceStore(daemon.url)
            try:
                keys = [key(i, prefix="p") for i in range(6)]
                read, zip_found = read_frame(keys)
                payloads = [put_frame([(k, True)]) for k in keys] + [
                    read,
                    {"op": "ping"},
                    {"op": "nonsense"},
                    {"op": "stats"},
                ]
                responses = client.pipeline(payloads)
                assert len(responses) == len(payloads)
                for response in responses[:6]:
                    assert response == {"ok": True, "written": 1}
                assert zip_found(responses[6]) == {
                    k: encode_verdict(True) for k in keys
                }
                assert responses[7]["service"] == SERVICE_MAGIC
                # A refused frame is answered in place -- the pipeline
                # (and the connection) carries on.
                assert responses[8]["ok"] is False
                assert "unknown protocol op" in responses[8]["error"]
                assert responses[9]["ok"] is True
                # The whole pipeline was one connection and the
                # handshake ping + 10 frames all hit one ledger entry.
                per_client = responses[9]["clients"]["per_client"]
                assert max(
                    c["requests"] for c in per_client.values()
                ) == 1 + len(payloads)
            finally:
                client.close()


# -- the hot LRU -----------------------------------------------------------------


class TestHotLru:
    def test_repeat_reads_hit_memory_and_are_counted(self, tmp_path):
        with VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock",
            hot_lru_size=8,
        ) as daemon:
            with ServiceStore(daemon.url) as client:
                k = key(0, prefix="lru")
                client.put(k, True)  # write-through primes the tier
                for _ in range(3):
                    assert client.get(k) is True
                health = client.health()
                hot = health["hot_lru"]
                assert hot["max_entries"] == 8
                assert hot["entries"] == 1
                assert hot["hits"] >= 3
                # The PR 8 registry carries the same counters as
                # repro.service.hot_lru.*.
                metrics = client.metrics()["metrics"]
                assert (
                    metrics["repro.service.hot_lru.hits"]["series"][0]
                    ["value"] >= 3
                )
                assert (
                    metrics["repro.service.hot_lru.entries"]["series"][0]
                    ["value"] == 1
                )
            # SQLite was never consulted for the repeat reads: the
            # store's own hit counter saw none of them.
            assert daemon.store.stats.hits == 0

    def test_eviction_falls_back_to_store_byte_identically(self, tmp_path):
        with VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock",
            hot_lru_size=2,
        ) as daemon:
            with ServiceStore(daemon.url) as client:
                keys = [key(i, prefix="evict") for i in range(5)]
                for i, k in enumerate(keys):
                    client.put(k, verdict(i))
                # Capacity 2 < 5 writes: evictions happened, yet every
                # verdict still round-trips (store fallback).
                for i, k in enumerate(keys):
                    assert client.get(k) == verdict(i)
                assert client.health()["hot_lru"]["evictions"] >= 3

    def test_zero_size_disables_the_tier(self, tmp_path):
        with VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock",
            hot_lru_size=0,
        ) as daemon:
            with ServiceStore(daemon.url) as client:
                k = key(0, prefix="off")
                client.put(k, False)
                assert client.get(k) is False
                hot = client.health()["hot_lru"]
                assert hot["entries"] == 0
                assert hot["max_entries"] == 0
                assert hot["hits"] == 0


# -- the connection cap ----------------------------------------------------------


class TestMaxClients:
    def test_over_cap_connects_are_transient(self, tmp_path):
        with VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock",
            max_clients=2,
        ) as daemon:
            first = ServiceStore(daemon.url)
            second = ServiceStore(daemon.url)
            third = ServiceStore(
                daemon.url, retry=RetryPolicy.no_retry()
            )
            try:
                first.ping()
                second.ping()
                # The cap refuses before the handshake: transient (a
                # retrying client would back off), not permanent.
                with pytest.raises(ServiceUnavailableError):
                    third.ping()
                assert first.health()["counters"]["rejected_full"] >= 1
                # A slot freeing up lets the refused client in.
                second.close()
                patient = ServiceStore(
                    daemon.url,
                    retry=RetryPolicy(
                        max_attempts=20, base_delay=0.05,
                        max_delay=0.2, seed=1,
                    ),
                )
                try:
                    assert patient.ping()["service"] == SERVICE_MAGIC
                finally:
                    patient.close()
            finally:
                first.close()
                second.close()
                third.close()


# -- drain-then-exit -------------------------------------------------------------


class TestDrain:
    def test_drain_finishes_inflight_then_checkpoints(self, tmp_path):
        store_path = tmp_path / "dict.sqlite"
        daemon = VerdictService(
            store_path, tmp_path / "verdict.sock",
            checkpoint_interval=0,
        )
        daemon.start()
        url = daemon.url
        keys = [key(i, prefix="drain") for i in range(20)]
        client = ServiceStore(url)
        try:
            # The shutdown rides *behind* five pipelined batches: drain
            # must answer all of them before the daemon goes away.
            payloads = [
                put_frame(
                    [(k, verdict(i * 4 + j)) for j, k in enumerate(batch)]
                )
                for i, batch in enumerate(
                    keys[n:n + 4] for n in range(0, 20, 4)
                )
            ] + [{"op": "shutdown", "drain": True}]
            responses = client.pipeline(payloads)
            assert len(responses) == len(payloads)
            for response in responses[:-1]:
                assert response == {"ok": True, "written": 4}
            assert responses[-1]["ok"] is True
            assert responses[-1]["drain"] is True
            assert daemon.wait(timeout=10), "drain never stopped the loop"
            # The drain itself checkpointed the WAL, before stop().
            assert daemon._counters["checkpoints"] >= 1
        finally:
            client.close()
            daemon.stop()
        assert not (tmp_path / "verdict.sock").exists()
        assert not store_path.with_name(
            store_path.name + "-wal"
        ).exists()
        # Nothing answers any more: drained means gone.
        refused = ServiceStore(url, retry=RetryPolicy.no_retry())
        with pytest.raises(ServiceUnavailableError):
            refused.ping()
        refused.close()
        # Every in-flight batch landed.
        with FaultDictionaryStore(store_path) as direct:
            for i, k in enumerate(keys):
                assert direct.get(k) == verdict(i)
