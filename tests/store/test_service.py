"""The verdict service: protocol, daemon lifecycle, kernel clients.

The acceptance criteria of the subsystem: verdicts served over the
socket are byte-identical to direct-store and in-memory simulation
(full standard library, sizes 3-6, concurrent multi-client writers);
clients survive a server restart by reconnecting; stale sockets are
reclaimed while live, foreign, or non-socket occupants are refused --
on both the server and the client side; and ``repro campaign --jobs N
--store repro+unix://...`` matches the direct-store manifest without
any client-side SQLite open.
"""

import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import repro
from grouped import get, put
from repro.cli import main
from repro.faults.faultlist import FaultList
from repro.faults.library import MODEL_REGISTRY
from repro.kernel import SimKey, SimulationKernel
from repro.march.catalog import MARCH_C_MINUS, MATS, MATS_PLUS_PLUS
from repro.store import FaultDictionaryStore, StoreError, resolve_store
from repro.store.campaign import (
    CampaignSpec,
    normalized_manifest,
    run_campaign,
)
from repro.store.service import (
    PROTOCOL_VERSION,
    SERVICE_MAGIC,
    ServiceError,
    ServiceStore,
    ServiceUnavailableError,
    VerdictService,
    batch_frame,
    is_service_url,
    service_socket_path,
)

TESTS = [MATS, MATS_PLUS_PLUS, MARCH_C_MINUS]

SPEC = {
    "name": "service-unit",
    "tests": ["MATS", "MarchC-"],
    "faults": ["SAF", "TF"],
    "sizes": [3],
    "backends": ["bitparallel"],
}


@pytest.fixture(scope="module")
def full_library():
    return FaultList.from_names(*MODEL_REGISTRY)


@pytest.fixture
def service(tmp_path):
    daemon = VerdictService(
        tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
    )
    daemon.start()
    yield daemon
    daemon.stop()


def key(signature="{up(w0)}", case="SA0@0", size=3, domain="sp"):
    return SimKey(signature, case, size, domain)


SIG = "{up(w0)}"


def get_frame(asked=None):
    """The ``get_many`` frame a one-key ``get`` sends."""
    asked = asked or key()
    return batch_frame(
        "get_many",
        [(asked.signature, asked.size, asked.domain, [asked.case])],
    )


def fake_listener(tmp_path):
    """A bare listening socket and the handshake answer a fake verdict
    service sends on it."""
    sock_path = tmp_path / "verdict.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(sock_path))
    listener.listen(4)
    hello = {
        "ok": True, "service": SERVICE_MAGIC,
        "protocol": PROTOCOL_VERSION, "pid": 1, "store": "x",
        "schema_version": 2,
    }
    return listener, sock_path, hello


#: Frames the daemon must refuse in-band: ``ok: false``, nothing
#: written, the connection kept.
MALFORMED_FRAMES = {
    "groups-not-a-list": {"op": "get_many", "groups": {SIG: ["c"]}},
    "put-groups-not-a-list": {"op": "put_many", "groups": "c"},
    "group-not-a-list": {"op": "get_many", "groups": [SIG]},
    "get-group-too-narrow": {"op": "get_many", "groups": [[SIG, 3, "sp"]]},
    "get-group-too-wide": {
        "op": "get_many", "groups": [[SIG, 3, "sp", ["c"], ["1"]]],
    },
    "put-group-too-narrow": {
        "op": "put_many", "groups": [[SIG, 3, "sp", ["c"]]],
    },
    "non-str-signature": {"op": "get_many", "groups": [[7, 3, "sp", ["c"]]]},
    "non-str-case": {"op": "get_many", "groups": [[SIG, 3, "sp", ["c", 7]]]},
    "non-int-size": {"op": "get_many", "groups": [[SIG, "3", "sp", ["c"]]]},
    "bool-size": {"op": "get_many", "groups": [[SIG, True, "sp", ["c"]]]},
    "non-str-domain": {"op": "get_many", "groups": [[SIG, 3, None, ["c"]]]},
    "cases-not-a-list": {"op": "get_many", "groups": [[SIG, 3, "sp", "c"]]},
    "fewer-verdicts-than-cases": {
        "op": "put_many", "groups": [[SIG, 3, "sp", ["a", "b"], ["1"]]],
    },
    "more-verdicts-than-cases": {
        "op": "put_many", "groups": [[SIG, 3, "sp", ["a"], ["1", "0"]]],
    },
    # The first group is well formed: refusal is all-or-nothing.
    "second-group-misaligned": {
        "op": "put_many", "groups": [
            [SIG, 3, "sp", ["a"], ["1"]],
            [SIG, 4, "sp", ["a"], []],
        ],
    },
    "non-str-verdict": {
        "op": "put_many", "groups": [[SIG, 3, "sp", ["a"], [1]]],
    },
    "undecodable-verdict": {
        "op": "put_many", "groups": [[SIG, 3, "sp", ["a"], ["maybe"]]],
    },
    "undecodable-syndrome": {
        "op": "put_many", "groups": [[SIG, 3, "sp", ["a"], ["S[1"]]],
    },
    "generation-2-get": {
        "op": "get_many", "keys": [[SIG, "c", 3, "sp"]],
    },
    "generation-2-put": {
        "op": "put_many", "rows": [[SIG, "c", 3, "sp", "1"]],
    },
}


# -- URL scheme ----------------------------------------------------------------


class TestUrls:
    def test_url_scheme_round_trip(self, tmp_path):
        sock = tmp_path / "v.sock"
        url = f"repro+unix://{sock}"
        assert is_service_url(url)
        assert not is_service_url(str(sock))
        assert not is_service_url(None)
        assert service_socket_path(url) == sock
        assert service_socket_path(str(sock)) == sock

    def test_empty_url_is_refused(self):
        with pytest.raises(ServiceError, match="no socket path"):
            service_socket_path("repro+unix://")

    def test_resolve_store_dispatches_urls_to_service_clients(
        self, service
    ):
        client = resolve_store(service.url)
        assert isinstance(client, ServiceStore)
        assert client.socket_path == service.socket_path
        client.close()
        readonly = resolve_store(service.url, readonly=True)
        assert readonly.readonly
        readonly.close()

    def test_resolve_store_passes_ready_clients_through(self, service):
        client = ServiceStore(service.url)
        assert resolve_store(client) is client
        client.close()


# -- the wire protocol ---------------------------------------------------------


class TestProtocol:
    def test_ping_identifies_the_service(self, service):
        with ServiceStore(service.url) as client:
            hello = client.ping()
        assert hello["service"] == SERVICE_MAGIC
        assert hello["protocol"] == PROTOCOL_VERSION
        assert hello["pid"] == os.getpid()
        assert hello["store"] == str(service.store_path)

    def test_verdicts_round_trip(self, service):
        syndrome = frozenset({(0, 1, 2, 0), (1, 0, 0, 1)})
        with ServiceStore(service.url) as client:
            put(client, key(), True)
            client.put_many([
                (key(case="SA1@0"), False),
                (key(domain="syn"), syndrome),
            ])
            assert get(client, key()) is True
            assert get(client, key(case="SA1@0")) is False
            assert get(client, key(domain="syn")) == syndrome
            assert get(client, key(case="absent")) is None
            assert get(client, key(case="absent"), default="x") == "x"
            assert client.stats.hits == 3
            assert client.stats.misses == 2
            assert client.stats.writes == 3

    def test_get_many_and_len(self, service):
        with ServiceStore(service.url) as client:
            client.put_many([(key(case=f"c{i}"), bool(i % 2))
                             for i in range(4)])
            found = client.get_many(
                [key(case=f"c{i}") for i in range(6)]
            )
            assert found == {
                key(case="c0"): False, key(case="c1"): True,
                key(case="c2"): False, key(case="c3"): True,
            }
            assert client.stats.hits == 4
            assert client.stats.misses == 2
            assert len(client) == 4

    def test_readonly_client_skips_writes(self, service):
        with ServiceStore(service.url) as writer:
            put(writer, key(), True)
        with ServiceStore(service.url, readonly=True) as client:
            put(client, key(), False)
            client.put_many([(key(case="x"), True)])
            assert client.stats.writes == 0
            assert client.stats.skipped_writes == 2
            assert get(client, key()) is True  # unchanged
            assert "readonly" in client.describe()
            with pytest.raises(StoreError, match="readonly"):
                client.compact(max_rows=1)
        assert len(service.store) == 1

    def test_unknown_op_is_refused_not_fatal(self, service):
        with ServiceStore(service.url) as client:
            with pytest.raises(ServiceError, match="unknown protocol op"):
                client._request({"op": "explode"})
            # The connection survives a refused request.
            assert client.ping()["service"] == SERVICE_MAGIC

    @pytest.mark.parametrize(
        "frame", MALFORMED_FRAMES.values(), ids=MALFORMED_FRAMES.keys()
    )
    def test_malformed_rows_are_refused(self, service, frame):
        with ServiceStore(service.url) as client:
            client.ping()
            connection = client._sock
            with pytest.raises(ServiceError, match="malformed"):
                client._request(frame)
            # Refused in-band: the same connection carries on.
            assert client.ping()["service"] == SERVICE_MAGIC
            assert client._sock is connection
        assert len(service.store) == 0

    @pytest.mark.parametrize("answer", [
        None,
        [],
        [["1", None]],
        [["1", None], ["0"], []],
        [["1"], ["0"]],
        [["1", None], ["0", "1"]],
        [["1", None], "0"],
        [["1", 1], ["0"]],
    ], ids=[
        "no-found", "no-groups", "too-few-groups", "too-many-groups",
        "short-group", "long-group", "group-not-a-list", "non-str-verdict",
    ])
    def test_misaligned_answers_are_refused(self, tmp_path, answer):
        client = ServiceStore(tmp_path / "never.sock")
        client._request = lambda payload: {"ok": True, "found": answer}
        keys = [key(case="a"), key(case="b"), key(size=4, case="a")]
        with pytest.raises(ServiceError, match="malformed"):
            client.get_many(keys)
        assert client.stats.hits == client.stats.misses == 0

    def test_answers_zip_back_onto_the_asked_keys(self, tmp_path):
        client = ServiceStore(tmp_path / "never.sock")
        client._request = lambda payload: {
            "ok": True, "found": [["1", None], ["0"]],
        }
        keys = [key(case="a"), key(size=4, case="a"), key(case="b")]
        assert client.get_many(keys) == {keys[0]: True, keys[1]: False}
        assert (client.stats.hits, client.stats.misses) == (2, 1)

    def test_stats_op_reports_per_client_counters(self, service):
        with ServiceStore(service.url) as writer:
            writer.put_many([(key(case=f"c{i}"), True) for i in range(3)])
            get(writer, key(case="c0"))
            get(writer, key(case="absent"))
            stats = writer.server_stats()
        assert stats["row_stats"]["rows"] == 3
        assert stats["store_stats"]["writes"] == 3
        assert stats["clients"]["total"] == 1
        (client_record,) = stats["clients"]["per_client"].values()
        assert client_record["writes"] == 3
        assert client_record["hits"] == 1
        assert client_record["misses"] == 1
        # requests: ping (handshake) + put + 2 gets + stats
        assert client_record["requests"] == 5

    def test_compact_through_the_socket(self, service):
        with ServiceStore(service.url) as client:
            client.put_many([(key(case=f"c{i}"), True) for i in range(8)])
            report = client.compact(max_rows=2)
            assert report["rows_before"] == 8
            assert report["rows_after"] == 2
            assert client.row_stats()["rows"] == 2


# -- daemon lifecycle ----------------------------------------------------------


class TestDaemonLifecycle:
    def test_shutdown_op_checkpoints_wal_and_unlinks_socket(
        self, tmp_path
    ):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        with ServiceStore(daemon.url) as client:
            client.put_many([(key(case=f"c{i}"), True) for i in range(5)])
            assert client.shutdown_server()["stopping"] is True
        assert daemon.wait(timeout=10), "shutdown op must flag the stop"
        daemon.stop()
        assert not daemon.socket_path.exists()
        # Graceful shutdown checkpoints the WAL back into the store.
        assert not (tmp_path / "dict.sqlite-wal").exists()
        with FaultDictionaryStore(tmp_path / "dict.sqlite") as store:
            assert len(store) == 5

    def test_a_stopped_daemon_is_freed_without_the_cycle_collector(
        self, tmp_path
    ):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        ).start()
        with ServiceStore(daemon.url) as client:
            client.put_many([(key(case=f"c{i}"), True) for i in range(5)])
            assert client.get_many([key(case="c0")]) == {key(case="c0"): True}
            assert client.metrics()["metrics"]
        daemon.stop()
        alive = weakref.ref(daemon)
        gc.disable()
        try:
            del daemon
            assert alive() is None, "a reference cycle holds the daemon"
        finally:
            gc.enable()

    def test_live_service_socket_is_refused(self, service, tmp_path):
        # The daemon flock fires before any probe: two starters can
        # never both decide a socket is stale and reclaim it.
        rival = VerdictService(
            tmp_path / "other.sqlite", service.socket_path
        )
        with pytest.raises(ServiceError, match="already owns"):
            rival.start()
        # The incumbent keeps working, and a failed start must not
        # unlink anything it did not bind.
        assert service.socket_path.exists()
        with ServiceStore(service.url) as client:
            assert client.ping()["service"] == SERVICE_MAGIC

    def test_draining_daemon_cannot_unlink_its_replacement(
        self, tmp_path
    ):
        # stop() only unlinks a socket the daemon actually bound: a
        # start() that was refused must leave the occupant's socket
        # (and its lock) alone.
        first = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        ).start()
        rival = VerdictService(
            tmp_path / "other.sqlite", tmp_path / "verdict.sock"
        )
        with pytest.raises(ServiceError):
            rival.start()
        rival.stop()  # must be a no-op on the incumbent's socket
        assert (tmp_path / "verdict.sock").exists()
        with ServiceStore(first.url) as client:
            assert client.ping()["service"] == SERVICE_MAGIC
        first.stop()

    def test_client_ledger_is_bounded_by_retirement(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.max_client_ledger = 2
        daemon.start()
        try:
            for i in range(5):
                with ServiceStore(daemon.url) as client:
                    put(client, key(case=f"c{i}"), True)
            # Connection state is pruned with the sockets, and only
            # the 2 newest retirees keep individual ledger rows.
            deadline = time.time() + 10
            while daemon._connections and time.time() < deadline:
                time.sleep(0.05)
            assert not daemon._connections
            stats = daemon.snapshot_stats()
            assert len(stats["clients"]["per_client"]) == 2
            retired = stats["clients"]["retired"]
            assert retired["clients"] == 3
            assert stats["clients"]["total"] == 5
            # The write-accounting invariant survives retirement.
            assert retired["writes"] + sum(
                c["writes"]
                for c in stats["clients"]["per_client"].values()
            ) == stats["store_stats"]["writes"] == 5
        finally:
            daemon.stop()

    def test_stale_socket_is_reclaimed(self, tmp_path):
        sock_path = tmp_path / "verdict.sock"
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(str(sock_path))
        dead.close()  # no unlink: the socket file outlives its server
        assert sock_path.exists()
        daemon = VerdictService(tmp_path / "dict.sqlite", sock_path)
        daemon.start()
        try:
            with ServiceStore(daemon.url) as client:
                assert client.ping()["service"] == SERVICE_MAGIC
        finally:
            daemon.stop()

    def test_non_socket_path_is_refused_and_survives(self, tmp_path):
        sock_path = tmp_path / "verdict.sock"
        sock_path.write_text("precious data, not a socket")
        daemon = VerdictService(tmp_path / "dict.sqlite", sock_path)
        with pytest.raises(ServiceError, match="not a socket"):
            daemon.start()
        assert sock_path.read_text() == "precious data, not a socket"

    def test_foreign_listener_is_refused_by_server_and_client(
        self, tmp_path
    ):
        sock_path = tmp_path / "verdict.sock"
        foreign = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        foreign.bind(str(sock_path))
        foreign.listen(4)

        def babble():
            while True:
                try:
                    conn, _ = foreign.accept()
                except OSError:
                    return
                conn.sendall(b"HTTP/1.1 200 OK\r\n\r\nhello")
                conn.close()

        thread = threading.Thread(target=babble, daemon=True)
        thread.start()
        try:
            with pytest.raises(ServiceError, match="not a verdict service"):
                ServiceStore(sock_path).ping()
            daemon = VerdictService(tmp_path / "dict.sqlite", sock_path)
            with pytest.raises(ServiceError, match="foreign"):
                daemon.start()
            assert sock_path.exists(), "foreign sockets are never unlinked"
        finally:
            # close() alone does not wake the thread blocked in accept().
            foreign.shutdown(socket.SHUT_RDWR)
            foreign.close()
            thread.join(timeout=5)

    def test_client_reconnects_after_server_restart(self, tmp_path):
        store_path = tmp_path / "dict.sqlite"
        sock_path = tmp_path / "verdict.sock"
        first = VerdictService(store_path, sock_path).start()
        client = ServiceStore(first.url)
        put(client, key(), True)
        first.stop()
        # Same socket, same store, brand-new daemon: the client's next
        # request reconnects (and re-handshakes) transparently.
        second = VerdictService(store_path, sock_path).start()
        try:
            assert get(client, key()) is True
            assert client.stats.hits == 1
        finally:
            client.close()
            second.stop()

    def test_framing_error_retries_on_a_fresh_connection(self, tmp_path):
        """A peer that breaks framing *after* a good handshake is a
        corrupted transport, not a foreign listener: the poisoned
        connection is dropped and the same request is sent once more on
        a fresh one (which re-handshakes, re-proving the peer)."""
        import struct

        from repro.store.service import _recv_frame, _send_frame

        listener, sock_path, hello = fake_listener(tmp_path)
        frame = get_frame()
        requests = []

        def half_broken_server():
            # Connection 1: proper handshake, then a bogus oversize
            # header.  Connection 2 (the retry): all proper -- the
            # retried get_many is answered "absent" for every case.
            conn, _ = listener.accept()
            _recv_frame(conn)
            _send_frame(conn, hello)
            requests.append(_recv_frame(conn))
            conn.sendall(struct.pack(">I", 1 << 31))
            conn.close()
            conn, _ = listener.accept()
            _recv_frame(conn)
            _send_frame(conn, dict(hello, pid=2))
            requests.append(_recv_frame(conn))
            _send_frame(
                conn, {"ok": True, "found": [[None]]}
            )
            conn.close()

        thread = threading.Thread(target=half_broken_server, daemon=True)
        thread.start()
        client = ServiceStore(sock_path)
        try:
            assert get(client, key()) is None  # answered on connection 2
            assert client.server["pid"] == 2, "exactly one reconnect"
            assert requests == [frame, frame]
        finally:
            client.close()
            listener.close()
            thread.join(timeout=5)

    def test_second_break_raises(self, tmp_path):
        """The reconnect is the only one: a request whose fresh
        connection breaks too raises, and no third connection is
        opened."""
        from repro.store.service import _recv_frame, _send_frame

        listener, sock_path, hello = fake_listener(tmp_path)
        requests = []

        def hang_up_after_every_request():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:  # shut down: no more clients
                    return
                _recv_frame(conn)
                _send_frame(conn, dict(hello, pid=len(requests) + 1))
                requests.append(_recv_frame(conn))
                conn.close()

        thread = threading.Thread(
            target=hang_up_after_every_request, daemon=True
        )
        thread.start()
        client = ServiceStore(sock_path)
        try:
            with pytest.raises(ServiceUnavailableError, match="closed"):
                get(client, key())
            # Each request is recorded before its connection closes.
            assert requests == [get_frame(), get_frame()]
        finally:
            client.close()
            # close() alone does not wake the thread blocked in accept().
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
            thread.join(timeout=5)

    def test_refused_connect_raises_without_sleeping(
        self, tmp_path, monkeypatch
    ):
        """Nothing listening is not worth a reconnect: the first
        request raises at once, and so does a connected client's next
        request after its daemon went away."""
        def no_sleep(seconds):
            raise AssertionError(f"the client slept {seconds}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        with pytest.raises(ServiceUnavailableError, match="no verdict"):
            ServiceStore(tmp_path / "absent.sock").ping()
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        ).start()
        client = ServiceStore(daemon.url)
        client.ping()
        daemon.stop()
        try:
            with pytest.raises(
                ServiceUnavailableError, match="no verdict"
            ):
                get(client, key())
        finally:
            client.close()

    def test_dead_service_fails_requests_cleanly(self, tmp_path):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        client = ServiceStore(daemon.url)
        client.ping()
        daemon.stop()
        with pytest.raises(ServiceError, match="no verdict service"):
            get(client, key())
        client.close()

    def test_stop_is_idempotent_and_start_validates_the_store(
        self, tmp_path
    ):
        daemon = VerdictService(
            tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        daemon.stop()
        daemon.stop()
        # A bad dictionary fails the daemon at startup, not the first
        # client: here a schema from the future is refused.
        import sqlite3

        conn = sqlite3.connect(tmp_path / "dict.sqlite")
        conn.execute(
            "UPDATE meta SET value='999' WHERE key='schema_version'"
        )
        conn.commit()
        conn.close()
        from repro.store import StoreSchemaError

        with pytest.raises(StoreSchemaError):
            VerdictService(
                tmp_path / "dict.sqlite", tmp_path / "verdict.sock"
            ).start()
        assert not (tmp_path / "verdict.sock").exists()


# -- kernel clients ------------------------------------------------------------


class TestKernelThroughService:
    def test_kernel_accepts_service_urls(self, service, saf_tf_list):
        kernel = SimulationKernel(backend="bitparallel", store=service.url)
        try:
            assert isinstance(kernel.store, ServiceStore)
            report = kernel.simulate_fault_list(MATS, saf_tf_list, 3)
            assert report.detected or report.missed
            assert kernel.store.stats.writes > 0
        finally:
            kernel.close()
        # The kernel owned the client it opened from the URL.
        assert kernel.store._sock is None

    @pytest.mark.parametrize("size", [3, 4, 5, 6])
    def test_concurrent_clients_byte_identical_to_direct_runs(
        self, size, service, full_library
    ):
        """One writer thread per March test, all hammering one daemon:
        the combined matrix must equal the in-memory (and therefore the
        direct-store) verdicts byte for byte."""
        in_memory = SimulationKernel(backend="bitparallel").detection_matrix(
            TESTS, full_library, size
        )
        matrices = {}
        errors = []

        def simulate(test):
            kernel = SimulationKernel(
                backend="bitparallel", store=service.url
            )
            try:
                matrices.update(
                    kernel.detection_matrix([test], full_library, size)
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)
            finally:
                kernel.close()

        threads = [
            threading.Thread(target=simulate, args=(test,))
            for test in TESTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        assert json.dumps(matrices, sort_keys=True) == json.dumps(
            in_memory, sort_keys=True
        )
        # A fresh client answers the whole matrix from the service.
        reader = SimulationKernel(backend="bitparallel", store=service.url)
        try:
            second = reader.detection_matrix(TESTS, full_library, size)
            assert reader.backend.served == {}, (
                "the second client must not simulate"
            )
        finally:
            reader.close()
        assert second == in_memory

    def test_syndromes_round_trip_through_the_service(
        self, service, saf_list
    ):
        writer = SimulationKernel(store=service.url)
        expected = {
            case.name: writer.syndrome(MARCH_C_MINUS, case, 4)
            for case in saf_list.instances(4)
        }
        writer.close()
        reader = SimulationKernel(store=service.url)
        for case in saf_list.instances(4):
            assert reader.syndrome(MARCH_C_MINUS, case, 4) == (
                expected[case.name]
            )
        assert reader.store.stats.hits == len(expected)
        reader.close()


# -- campaigns over the socket -------------------------------------------------


class TestServiceCampaign:
    def test_campaign_through_socket_matches_direct_store(self, tmp_path):
        spec = CampaignSpec.from_dict(
            dict(SPEC, backends=["bitparallel", "serial"])
        )
        direct = run_campaign(
            spec, store_path=str(tmp_path / "direct.sqlite"), jobs=1
        )
        daemon = VerdictService(
            tmp_path / "service.sqlite", tmp_path / "verdict.sock"
        )
        daemon.start()
        try:
            served = run_campaign(spec, store_path=daemon.url, jobs=2)
            stats = daemon.snapshot_stats()
        finally:
            daemon.stop()
        assert json.dumps(
            normalized_manifest(served), sort_keys=True
        ) == json.dumps(normalized_manifest(direct), sort_keys=True)
        # The daemon saw every verdict write; no worker opened SQLite
        # itself -- the only store files are the two created above.
        assert stats["store_stats"]["writes"] > 0
        assert sum(
            c["writes"] for c in stats["clients"]["per_client"].values()
        ) == stats["store_stats"]["writes"]
        sqlite_files = sorted(
            p.name for p in tmp_path.iterdir() if "sqlite" in p.name
        )
        assert sqlite_files == ["direct.sqlite", "service.sqlite"]

    def test_unreachable_service_fails_the_campaign_up_front(
        self, tmp_path
    ):
        spec = CampaignSpec.from_dict(SPEC)
        with pytest.raises(ServiceError, match="no verdict service"):
            run_campaign(
                spec, store_path=f"repro+unix://{tmp_path / 'nope.sock'}"
            )


# -- CLI -----------------------------------------------------------------------


class TestCli:
    def test_store_stats_via_socket(self, service, capsys):
        with ServiceStore(service.url) as client:
            client.put_many([(key(case=f"c{i}"), True) for i in range(3)])
        assert main([
            "store", "stats", "--socket", str(service.socket_path),
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"] == SERVICE_MAGIC
        assert payload["row_stats"]["rows"] == 3
        assert payload["store_stats"]["writes"] == 3
        assert main([
            "store", "stats", "--socket", str(service.socket_path),
        ]) == 0
        human = capsys.readouterr().out
        assert "service [" in human and "3 rows" in human

    def test_store_compact_via_socket(self, service, capsys):
        with ServiceStore(service.url) as client:
            client.put_many([(key(case=f"c{i}"), True) for i in range(5)])
        assert main([
            "store", "compact", "--socket", str(service.socket_path),
            "--max-rows", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows_before"] == 5
        assert payload["rows_after"] == 2

    def test_store_shutdown_via_socket(self, service, capsys):
        assert main([
            "store", "shutdown", "--socket", str(service.socket_path),
        ]) == 0
        assert "stopping" in capsys.readouterr().out
        assert service.wait(timeout=10)

    def test_store_stats_needs_a_path_or_socket(self):
        with pytest.raises(StoreError, match="PATH or --socket"):
            main(["store", "stats"])
        with pytest.raises(StoreError, match="PATH or --socket"):
            main(["store", "compact"])

    def test_store_commands_refuse_path_plus_socket(self, tmp_path):
        # Silent precedence would act on the daemon's store while the
        # operator believes PATH was inspected/compacted.
        for command in (["store", "stats"], ["store", "compact"]):
            with pytest.raises(StoreError, match="not both"):
                main(command + [
                    str(tmp_path / "a.sqlite"), "--socket",
                    str(tmp_path / "v.sock"),
                ])

    def test_serve_cli_round_trip(self, tmp_path):
        """`repro serve` end to end in a real subprocess: simulate
        through the socket, read the ledger, shut down gracefully."""
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        sock = tmp_path / "verdict.sock"
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             str(tmp_path / "dict.sqlite"), "--socket", str(sock)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            for _ in range(150):
                try:
                    with ServiceStore(sock) as probe:
                        probe.ping()
                    break
                except ServiceError:
                    time.sleep(0.1)
            else:
                raise AssertionError(
                    "service never came up: " + daemon.stdout.read()
                )
            simulate = subprocess.run(
                [sys.executable, "-m", "repro", "simulate", "MATS", "SAF",
                 "--store", f"repro+unix://{sock}", "--sim-stats"],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert simulate.returncode == 0, simulate.stdout
            assert "service [" in simulate.stdout
        finally:
            if daemon.poll() is None:
                stats = subprocess.run(
                    [sys.executable, "-m", "repro", "store", "stats",
                     "--socket", str(sock), "--json"],
                    capture_output=True, text=True, env=env, timeout=60,
                )
                shutdown = subprocess.run(
                    [sys.executable, "-m", "repro", "store", "shutdown",
                     "--socket", str(sock)],
                    capture_output=True, text=True, env=env, timeout=60,
                )
                daemon.wait(timeout=30)
        assert daemon.returncode == 0, daemon.stdout.read()
        assert shutdown.returncode == 0
        payload = json.loads(stats.stdout)
        assert payload["store_stats"]["writes"] > 0
        assert not sock.exists()
