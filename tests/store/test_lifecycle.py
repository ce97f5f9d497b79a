"""Store lifecycle: ``last_used`` tracking, compaction, merging.

The persistent dictionary of PR 3 grew without bound; these tests pin
the lifecycle layer that keeps long-lived stores tractable --
:meth:`FaultDictionaryStore.compact` (LRU-by-``last_used`` pruning),
:meth:`FaultDictionaryStore.merge_from` (``repro store merge``) and
:meth:`FaultDictionaryStore.row_stats` (the ``repro store stats``
report).
"""

import sqlite3

import pytest

from grouped import get, put
from repro.kernel.cache import SimKey
from repro.store import FaultDictionaryStore, StoreError, StoreSchemaError
from repro.store.store import get_many_by_groups, pair_groups


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "dict.sqlite"


def key(case="SA0@0", signature="{up(w0); up(r0)}", size=3, domain="sp"):
    return SimKey(signature, case, size, domain)


def last_used_of(path, case):
    return sqlite3.connect(path).execute(
        "SELECT last_used FROM verdicts WHERE case_name=?", (case,)
    ).fetchone()[0]


def force_last_used(path, case, stamp):
    conn = sqlite3.connect(path)
    conn.execute(
        "UPDATE verdicts SET last_used=? WHERE case_name=?", (stamp, case)
    )
    conn.commit()
    conn.close()


class TestLastUsed:
    def test_writes_stamp_last_used(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
        assert last_used_of(store_path, "SA0@0") > 0

    def test_read_hits_bump_last_used(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
        force_last_used(store_path, "SA0@0", 5)
        with FaultDictionaryStore(store_path) as store:
            assert get(store, key()) is True
        assert last_used_of(store_path, "SA0@0") > 5

    def test_batched_hits_bump_last_used(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            store.put_groups(
                pair_groups([(key(case=f"c{i}"), True) for i in range(4)])
            )
        for i in range(4):
            force_last_used(store_path, f"c{i}", i)
        with FaultDictionaryStore(store_path) as store:
            found = get_many_by_groups(
                store, [key(case="c0"), key(case="c1"), key(case="absent")]
            )
            assert len(found) == 2
        assert last_used_of(store_path, "c0") > 3
        assert last_used_of(store_path, "c1") > 3
        assert last_used_of(store_path, "c2") == 2  # untouched

    def test_readonly_hits_do_not_bump(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
        force_last_used(store_path, "SA0@0", 5)
        with FaultDictionaryStore(store_path, readonly=True) as store:
            assert get(store, key()) is True
        assert last_used_of(store_path, "SA0@0") == 5

    def test_bumps_are_not_counted_as_verdict_writes(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(), True)
            store.stats.reset()
            get(store, key())
            get(store, key())
            assert store.stats.writes == 0
            assert store.stats.hits == 2


class TestCompact:
    def populate(self, store, rows=20):
        store.put_groups(pair_groups(
            [(key(case=f"c{i:03d}"), True) for i in range(rows)]
        ))

    def test_row_cap_prunes_least_recently_used(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            self.populate(store)
        # Distinct recency: c000 oldest ... c019 newest.
        for i in range(20):
            force_last_used(store_path, f"c{i:03d}", 100 + i)
        with FaultDictionaryStore(store_path) as store:
            stats = store.compact(max_rows=5)
            assert stats["rows_before"] == 20
            assert stats["removed_by_cap"] == 15
            assert stats["removed_by_age"] == 0
            assert stats["rows_after"] == 5 == len(store)
            # The five most recently used rows survive.
            for i in range(15, 20):
                assert get(store, key(case=f"c{i:03d}")) is True
            assert get(store, key(case="c000")) is None

    def test_age_cap_prunes_stale_rows(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            self.populate(store, rows=10)
        for i in range(10):
            force_last_used(store_path, f"c{i:03d}", 1000 + i * 100)
        with FaultDictionaryStore(store_path) as store:
            stats = store.compact(max_age=500, now=2000)
            # cutoff 1500: rows stamped 1000..1400 go, 1500+ stay.
            assert stats["removed_by_age"] == 5
            assert stats["rows_after"] == 5
            assert get(store, key(case="c009")) is True
            assert get(store, key(case="c000")) is None

    def test_age_and_cap_compose(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            self.populate(store, rows=10)
        for i in range(10):
            force_last_used(store_path, f"c{i:03d}", 1000 + i * 100)
        with FaultDictionaryStore(store_path) as store:
            stats = store.compact(max_rows=3, max_age=500, now=2000)
            assert stats["removed_by_age"] == 5
            assert stats["removed_by_cap"] == 2
            assert stats["rows_after"] == 3 == len(store)

    def test_compaction_is_deterministic_on_ties(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            self.populate(store, rows=6)
        for i in range(6):
            force_last_used(store_path, f"c{i:03d}", 7)  # all tied
        with FaultDictionaryStore(store_path) as store:
            store.compact(max_rows=3, vacuum=False)
            # Ties break by primary key: lexicographically first go.
            assert get(store, key(case="c000")) is None
            assert get(store, key(case="c005")) is True

    def test_vacuum_reclaims_disk_space(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            store.put_groups(pair_groups(
                [(key(case=f"c{i:05d}"), True) for i in range(3000)]
            ))
            stats = store.compact(max_rows=10)
        assert stats["bytes_after"] < stats["bytes_before"]

    def test_noop_compact_keeps_everything(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            self.populate(store, rows=5)
            stats = store.compact()
            assert stats["rows_after"] == 5
            assert stats["removed_by_age"] == stats["removed_by_cap"] == 0

    def test_readonly_store_refuses_compaction(self, store_path):
        FaultDictionaryStore(store_path).close()
        with FaultDictionaryStore(store_path, readonly=True) as store:
            with pytest.raises(StoreError, match="readonly"):
                store.compact(max_rows=1)

    def test_bad_limits_are_refused(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            with pytest.raises(StoreError, match="max_rows"):
                store.compact(max_rows=-1)
            with pytest.raises(StoreError, match="max_age"):
                store.compact(max_age=-1)


def build_v1_store(path):
    """A PR-3 era store: no last_used column, schema_version 1."""
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE verdicts (
            signature TEXT    NOT NULL,
            case_name TEXT    NOT NULL,
            size      INTEGER NOT NULL,
            domain    TEXT    NOT NULL,
            verdict   TEXT    NOT NULL,
            PRIMARY KEY (signature, case_name, size, domain)
        ) WITHOUT ROWID;
        INSERT INTO meta VALUES ('schema_version', '1');
        INSERT INTO verdicts VALUES
            ('{up(w0); up(r0)}', 'SA0@0', 3, 'sp', '1');
        INSERT INTO verdicts VALUES
            ('{up(w0); up(r0)}', 'SA1@0', 3, 'sp', '0');
        """
    )
    conn.commit()
    conn.close()


class TestV1Upgrade:
    """There is no v1 upgrade: a v1 file is refused like any other
    schema it does not read."""

    @pytest.mark.parametrize("readonly", [False, True],
                             ids=["writable", "readonly"])
    def test_v1_store_is_refused(self, store_path, readonly):
        build_v1_store(store_path)
        with pytest.raises(StoreSchemaError, match="schema 1.*move the file"):
            FaultDictionaryStore(store_path, readonly=readonly)
        # The refusal left the file untouched at v1.
        conn = sqlite3.connect(store_path)
        assert conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone() == ("1",)
        assert conn.execute("SELECT count(*) FROM verdicts").fetchone() == (2,)
        conn.close()

    def test_newer_schema_still_refused(self, store_path):
        build_v1_store(store_path)
        conn = sqlite3.connect(store_path)
        conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError, match="schema 999"):
            FaultDictionaryStore(store_path)


def build_indexed_v2_store(path):
    """A v2 store as older builds wrote it: ``last_used`` indexed."""
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE verdicts (
            signature TEXT    NOT NULL,
            case_name TEXT    NOT NULL,
            size      INTEGER NOT NULL,
            domain    TEXT    NOT NULL,
            verdict   TEXT    NOT NULL,
            last_used INTEGER NOT NULL DEFAULT 0,
            PRIMARY KEY (signature, case_name, size, domain)
        ) WITHOUT ROWID;
        CREATE INDEX verdicts_last_used ON verdicts (last_used);
        INSERT INTO meta VALUES ('schema_version', '2');
        INSERT INTO verdicts VALUES
            ('{up(w0); up(r0)}', 'SA0@0', 3, 'sp', '1', 11);
        INSERT INTO verdicts VALUES
            ('{up(w0); up(r0)}', 'SA1@0', 3, 'sp', '0', 12);
        INSERT INTO verdicts VALUES
            ('{up(w0); up(r0)}', 'T@1', 3, 'syn', 'S[[0,1,2,3]]', 13);
        """
    )
    conn.commit()
    conn.close()


def rows_and_indexes(path):
    conn = sqlite3.connect(path)
    rows = conn.execute(
        "SELECT * FROM verdicts ORDER BY signature, case_name, size, domain"
    ).fetchall()
    indexes = [
        name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='index'"
            " AND name NOT LIKE 'sqlite_autoindex%'"
        )
    ]
    conn.close()
    return rows, indexes


class TestLastUsedIndex:
    def test_fresh_stores_have_no_last_used_index(self, store_path):
        FaultDictionaryStore(store_path).close()
        assert rows_and_indexes(store_path) == ([], [])

    def test_readonly_open_leaves_an_old_index_alone(self, store_path):
        build_indexed_v2_store(store_path)
        before = rows_and_indexes(store_path)
        with FaultDictionaryStore(store_path, readonly=True) as store:
            assert get(store, key()) is True
        assert before[1] == ["verdicts_last_used"]
        assert rows_and_indexes(store_path) == before

    def test_writable_open_drops_an_old_index(self, store_path):
        build_indexed_v2_store(store_path)
        rows, _ = rows_and_indexes(store_path)
        FaultDictionaryStore(store_path).close()
        assert rows_and_indexes(store_path) == (rows, [])
        with FaultDictionaryStore(store_path) as store:
            assert get(store, key()) is True
            assert get(store, key(case="SA1@0")) is False
            put(store, key(case="fresh"), False)
            assert get(store, key(case="fresh")) is False
            assert store.row_stats()["rows"] == 4
            assert store.compact(max_rows=2)["rows_after"] == 2
        assert rows_and_indexes(store_path)[1] == []


class TestMergeFrom:
    def test_disjoint_stores_union(self, tmp_path):
        a_path, b_path = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
        with FaultDictionaryStore(b_path) as b:
            put(b, key(case="only-b"), False)
        with FaultDictionaryStore(a_path) as a:
            put(a, key(case="only-a"), True)
            stats = a.merge_from(b_path)
            assert stats == {"source_rows": 1, "inserted": 1, "merged": 0}
            assert get(a, key(case="only-a")) is True
            assert get(a, key(case="only-b")) is False

    def test_conflicts_resolve_to_newest_last_used(self, tmp_path):
        a_path, b_path = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
        with FaultDictionaryStore(a_path) as a:
            put(a, key(case="newer-here"), True)
            put(a, key(case="newer-there"), True)
        with FaultDictionaryStore(b_path) as b:
            put(b, key(case="newer-here"), False)
            put(b, key(case="newer-there"), False)
        force_last_used(a_path, "newer-here", 200)
        force_last_used(a_path, "newer-there", 100)
        force_last_used(b_path, "newer-here", 100)
        force_last_used(b_path, "newer-there", 200)
        with FaultDictionaryStore(a_path) as a:
            stats = a.merge_from(b_path)
            assert stats == {"source_rows": 2, "inserted": 0, "merged": 2}
            # Destination row was fresher: its verdict survives.
            assert get(a, key(case="newer-here")) is True
            # Source row was fresher: its verdict wins.
            assert get(a, key(case="newer-there")) is False
        # Merged recency is the max of the two sides.
        assert last_used_of(a_path, "newer-here") >= 200
        assert last_used_of(a_path, "newer-there") >= 200

    def test_merge_accepts_open_store_instances(self, tmp_path):
        a_path, b_path = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
        with FaultDictionaryStore(b_path) as b:
            put(b, key(), True)
            with FaultDictionaryStore(a_path) as a:
                assert a.merge_from(b)["inserted"] == 1

    def test_merge_refuses_self_readonly_and_foreign(self, tmp_path):
        a_path = tmp_path / "a.sqlite"
        with FaultDictionaryStore(a_path) as a:
            put(a, key(), True)
            with pytest.raises(StoreError, match="itself"):
                a.merge_from(a_path)
        with FaultDictionaryStore(a_path, readonly=True) as a:
            with pytest.raises(StoreError, match="readonly"):
                a.merge_from(tmp_path / "other.sqlite")
        foreign = tmp_path / "foreign.sqlite"
        conn = sqlite3.connect(foreign)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with FaultDictionaryStore(a_path) as a:
            with pytest.raises(StoreSchemaError):
                a.merge_from(foreign)

    def test_merge_is_atomic_per_source(self, tmp_path):
        """A refused source leaves the destination untouched."""
        a_path = tmp_path / "a.sqlite"
        with FaultDictionaryStore(a_path) as a:
            put(a, key(), True)
            with pytest.raises(StoreError):
                a.merge_from(tmp_path / "absent.sqlite")
            assert len(a) == 1


class TestRowStats:
    def test_population_report(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            put(store, key(case="a"), True)
            put(store, key(case="b", domain="2p"), False)
            put(store, key(case="c", domain="syn"), frozenset())
            stats = store.row_stats()
        assert stats["rows"] == 3
        assert stats["by_domain"] == {"sp": 1, "2p": 1, "syn": 1}
        assert stats["bytes"] > 0
        assert stats["last_used_min"] > 0
        assert stats["last_used_max"] >= stats["last_used_min"]

    def test_empty_store_reports_cleanly(self, store_path):
        with FaultDictionaryStore(store_path) as store:
            stats = store.row_stats()
        assert stats["rows"] == 0
        assert stats["by_domain"] == {}
        assert stats["last_used_min"] is None
