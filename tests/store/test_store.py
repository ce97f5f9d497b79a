"""Unit tests of the persistent fault-dictionary store itself.

Covers the durability rules the subsystem guarantees: atomic upserts,
round-trip fidelity of every verdict shape, schema-version refusal,
corrupt-file quarantine-and-rebuild, readonly mode and concurrent
multi-process writers.  The kernel integration (tiered cache, stat
hygiene, verdict equivalence) lives in ``test_tiered_kernel.py``.
"""

import multiprocessing
import sqlite3

import pytest

from grouped import get, put
from repro.kernel.cache import SimKey
from repro.store import (
    SCHEMA_VERSION,
    FaultDictionaryStore,
    StoreError,
    StoreSchemaError,
    decode_verdict,
    encode_verdict,
)
from repro.store.store import get_many_by_groups, pair_groups


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "dict.sqlite"


def key(signature="{up(w0); up(r0)}", case="SA0@0", size=3, domain="sp"):
    return SimKey(signature, case, size, domain)


# -- verdict encoding ----------------------------------------------------------


class TestEncoding:
    def test_booleans_round_trip(self):
        for verdict in (True, False):
            assert decode_verdict(encode_verdict(verdict)) is verdict

    def test_syndromes_round_trip_exactly(self):
        syndrome = frozenset(
            {(0, 1, 2, 1), (1, 0, 0, 0), (2, 2, 1, "-")}
        )
        assert decode_verdict(encode_verdict(syndrome)) == syndrome

    def test_empty_syndrome_round_trips(self):
        assert decode_verdict(encode_verdict(frozenset())) == frozenset()

    def test_encoding_is_canonical(self):
        # Equal syndromes encode to equal rows regardless of set order.
        a = frozenset({(0, 0, 0, 1), (1, 1, 1, 0)})
        b = frozenset({(1, 1, 1, 0), (0, 0, 0, 1)})
        assert encode_verdict(a) == encode_verdict(b)

    def test_unsupported_types_are_refused(self):
        with pytest.raises(StoreError, match="cannot persist"):
            encode_verdict(object())

    def test_garbage_rows_are_refused(self):
        with pytest.raises(StoreError, match="unrecognized"):
            decode_verdict("banana")


# -- basic persistence ---------------------------------------------------------


class TestRoundTrip:
    def test_verdicts_survive_reopen(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(case="SA0@0"), True)
            put(store, key(case="SA1@0"), False)
        with FaultDictionaryStore(store_path) as store:
            assert get(store, key(case="SA0@0")) is True
            assert get(store, key(case="SA1@0")) is False
            assert get(store, key(case="absent")) is None
            assert len(store) == 2

    def test_upsert_overwrites_atomically(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
            put(store, key(), False)
            assert get(store, key()) is False
            assert len(store) == 1

    def test_domains_partition_the_namespace(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(domain="sp"), True)
            put(store, key(domain="2p"), False)
            put(store, key(domain="syn"), frozenset({(0, 0, 0, 1)}))
            assert get(store, key(domain="sp")) is True
            assert get(store, key(domain="2p")) is False
            assert get(store, key(domain="syn")) == frozenset({(0, 0, 0, 1)})

    def test_put_groups_is_one_transaction(self, store_path):
        pairs = [(key(case=f"SA0@{i}"), bool(i % 2)) for i in range(50)]
        with FaultDictionaryStore(store_path) as store:
            store.put_groups(pair_groups(pairs))
            assert len(store) == 50
            found = get_many_by_groups(store, [k for k, _ in pairs])
            assert found == dict(pairs)

    def test_stats_count_hits_misses_writes(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
            get(store, key())
            get(store, key(case="absent"))
            assert store.stats.writes == 1
            assert store.stats.hits == 1
            assert store.stats.misses == 1
            store.stats.reset()
            assert store.stats.writes == store.stats.hits == 0

    def test_close_is_idempotent(self, store_path):
        store = FaultDictionaryStore(store_path)
        store.close()
        store.close()


# -- readonly mode -------------------------------------------------------------


class TestReadonly:
    def test_lookups_work_but_writes_are_counted_noops(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
        with FaultDictionaryStore(store_path, readonly=True) as store:
            assert store.readonly
            assert get(store, key()) is True
            put(store, key(), False)
            store.put_groups(pair_groups([(key(case="x"), True)]))
            store.put_groups(
                [("{up(w0)}", 3, "sp", ["a", "b"], [True, False])]
            )
            assert store.stats.writes == 0
            assert store.stats.skipped_writes == 4
            assert get(store, key()) is True  # unchanged
            assert "readonly" in store.describe()
        with FaultDictionaryStore(store_path) as store:
            assert len(store) == 1

    def test_missing_file_is_refused(self, store_path):
        with pytest.raises(StoreError, match="does not exist"):
            FaultDictionaryStore(store_path, readonly=True)

    def test_vanished_file_is_not_created_by_readonly_open(
        self, store_path, monkeypatch
    ):
        # The exists() pre-check is a TOCTOU: the path can vanish
        # between the check and the connect, and a plain connect would
        # leave a fresh empty database behind.  Model the race by
        # making the pre-check lie; the URI mode=ro open must then
        # refuse instead of creating the file.
        from repro.store import store as store_module

        monkeypatch.setattr(
            store_module.Path, "exists", lambda self: True
        )
        with pytest.raises(StoreError, match="cannot be opened"):
            FaultDictionaryStore(store_path, readonly=True)
        monkeypatch.undo()
        assert not store_path.exists(), (
            "a readonly open must never create the store file"
        )

    def test_readonly_is_enforced_by_sqlite_itself(self, store_path):
        # PRAGMA query_only is defence in depth; the mode=ro URI makes
        # SQLite refuse writes even if a future code path forgot the
        # readonly flag and issued raw SQL.
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
        with FaultDictionaryStore(store_path, readonly=True) as store:
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                store._conn.execute("DELETE FROM verdicts")


# -- schema versioning ---------------------------------------------------------


class TestSchema:
    def test_version_is_stamped_on_creation(self, store_path):
        FaultDictionaryStore(store_path).close()
        row = sqlite3.connect(store_path).execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        assert row == (str(SCHEMA_VERSION),)

    def test_mismatched_version_is_refused_not_rebuilt(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
        conn = sqlite3.connect(store_path)
        conn.execute(
            "UPDATE meta SET value='999' WHERE key='schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError, match="schema 999"):
            FaultDictionaryStore(store_path)
        # Refusal must leave the file untouched: no quarantine, rows
        # intact for whatever build understands them.
        assert store_path.exists()
        assert not list(store_path.parent.glob("*.corrupt-*"))

    def test_foreign_sqlite_database_is_refused(self, store_path):
        conn = sqlite3.connect(store_path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError, match="not a fault-dictionary"):
            FaultDictionaryStore(store_path)


# -- corruption recovery -------------------------------------------------------


class TestCorruptionRecovery:
    def test_garbage_file_is_quarantined_and_rebuilt(self, store_path):
        store_path.write_bytes(b"this is not a database " * 64)
        store = FaultDictionaryStore(store_path)
        assert store.quarantined is not None
        assert store.quarantined.exists()
        assert store.quarantined.name.startswith("dict.sqlite.corrupt-")
        assert store.quarantined.read_bytes().startswith(b"this is not")
        # The rebuilt store is empty but fully functional.
        assert len(store) == 0
        put(store, key(), True)
        assert get(store, key()) is True
        store.close()

    def test_truncated_database_is_quarantined_and_rebuilt(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            store.put_groups(pair_groups(
                [(key(case=f"SA0@{i}"), True) for i in range(200)]
            ))
        # Chop the file mid-page: header stays valid, content does not.
        payload = store_path.read_bytes()
        assert len(payload) > 1024
        store_path.write_bytes(payload[: len(payload) // 2])
        store = FaultDictionaryStore(store_path)
        assert store.quarantined is not None
        assert len(store) == 0
        put(store, key(), False)
        assert get(store, key()) is False
        store.close()

    def test_quarantine_names_do_not_collide(self, store_path):
        for expected in ("dict.sqlite.corrupt-0", "dict.sqlite.corrupt-1"):
            store_path.write_bytes(b"garbage garbage garbage " * 64)
            store = FaultDictionaryStore(store_path)
            assert store.quarantined.name == expected
            store.close()
            store_path.unlink()  # fresh rebuild left behind a valid store

    def test_locked_store_is_refused_not_quarantined(self, store_path):
        """A busy store is not a corrupt store: while another connection
        holds an exclusive lock on a fresh (not yet WAL) store, opening
        retries for ``timeout`` seconds, then raises StoreError and
        leaves the file exactly as it was."""
        holder = sqlite3.connect(store_path, isolation_level=None)
        holder.execute("CREATE TABLE pending (x)")
        before = store_path.read_bytes()
        holder.execute("BEGIN EXCLUSIVE")
        holder.execute("INSERT INTO pending VALUES (1)")
        try:
            with pytest.raises(StoreError, match="cannot be opened") as info:
                FaultDictionaryStore(store_path, timeout=0.2)
            assert not isinstance(info.value, StoreSchemaError)
            assert not list(store_path.parent.glob("*.corrupt-*"))
            assert store_path.read_bytes() == before
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert not list(store_path.parent.glob("*.corrupt-*"))
        assert store_path.read_bytes() == before

    def test_fast_failing_lock_is_retried_within_timeout(
        self, store_path, monkeypatch
    ):
        """SQLite can fail an open step with ``database is locked``
        without waiting (the WAL switch of a racing creator).  That is
        retried, not quarantined, and the store opens once it clears."""
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
        connect = FaultDictionaryStore._connect_and_check
        attempts = []

        def busy_twice(self):
            attempts.append(1)
            if len(attempts) <= 2:
                raise sqlite3.OperationalError("database is locked")
            return connect(self)

        monkeypatch.setattr(
            FaultDictionaryStore, "_connect_and_check", busy_twice
        )
        with FaultDictionaryStore(store_path, timeout=10.0) as store:
            assert store.quarantined is None
            assert get(store, key()) is True
        assert len(attempts) == 3
        assert not list(store_path.parent.glob("*.corrupt-*"))

    def test_readonly_never_quarantines(self, store_path):
        store_path.write_bytes(b"garbage garbage garbage " * 64)
        with pytest.raises(StoreError):
            FaultDictionaryStore(store_path, readonly=True)
        # The damaged evidence is preserved in place.
        assert store_path.read_bytes().startswith(b"garbage")


# -- concurrent multi-process writers ------------------------------------------


def _hammer(path, offset, count, barrier):
    """One writer process: upsert ``count`` distinct keys plus one
    shared contended key, through its own connection."""
    store = FaultDictionaryStore(path)
    barrier.wait()  # maximize write overlap across processes
    for i in range(count):
        put(store, SimKey(f"sig-{offset + i}", "case", 3), bool(i % 2))
    put(store, SimKey("contended", "case", 3), True)
    store.close()


def _race_create(path, offset, barrier):
    """One creator process: open the (initially nonexistent) store at
    the barrier, then write a couple of rows."""
    barrier.wait()  # maximize overlap on schema creation itself
    store = FaultDictionaryStore(path)
    put(store, SimKey(f"sig-{offset}", "case", 3), True)
    store.close()


@pytest.mark.parametrize("workers", [4])
def test_concurrent_creation_of_a_fresh_store_is_safe(store_path, workers):
    """N processes racing to create the same nonexistent store must all
    succeed (a fanned-out campaign's first run does exactly this);
    schema creation serializes on the write lock and losers no-op."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        pytest.skip("fork start method unavailable")
    barrier = context.Barrier(workers)
    processes = [
        context.Process(target=_race_create, args=(store_path, w, barrier))
        for w in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    with FaultDictionaryStore(store_path) as store:
        assert len(store) == workers


@pytest.mark.parametrize("workers", [4])
def test_concurrent_multiprocess_writes_are_all_durable(
    store_path, workers
):
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        pytest.skip("fork start method unavailable")
    per_worker = 50
    barrier = context.Barrier(workers)
    FaultDictionaryStore(store_path).close()  # pre-create the schema
    processes = [
        context.Process(
            target=_hammer,
            args=(store_path, w * per_worker, per_worker, barrier),
        )
        for w in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    with FaultDictionaryStore(store_path) as store:
        assert len(store) == workers * per_worker + 1
        assert get(store, SimKey("contended", "case", 3)) is True
        for w in range(workers):
            for i in range(0, per_worker, 7):
                verdict = get(store,
                    SimKey(f"sig-{w * per_worker + i}", "case", 3)
                )
                assert verdict == bool(i % 2)
    # The database survived the contention healthy.
    check = sqlite3.connect(store_path).execute(
        "PRAGMA quick_check"
    ).fetchone()
    assert check == ("ok",)
