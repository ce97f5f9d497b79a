"""The persistent fault-dictionary store.

PR 1 made one *process* fast: every simulation verdict is memoized in
the kernel's in-memory LRU under a :class:`~repro.kernel.cache.SimKey`.
But the cache dies with the process, so every new CLI invocation
starts cold and re-simulates verdicts computed thousands of times
before.  This module spills the fault dictionary to disk: an SQLite
database (WAL journal, so concurrent readers never block the writer)
whose single ``verdicts`` table is keyed by exactly the four ``SimKey``
fields.  Layered under the LRU as a read-through/write-through second
tier (:class:`~repro.kernel.cache.FaultDictionaryCache`), it makes
repeated CLI invocations -- and many processes hammering one shared
dictionary -- share verdicts instead of re-deriving them.

Verdicts are stored as compact signature-keyed rows, not raw matrices:
a detection verdict is one byte (``"1"``/``"0"``), a diagnosis
syndrome a canonical JSON row.  The row format is versioned
(``SCHEMA_VERSION`` in the ``meta`` table); a store written by a
different schema generation is **refused**, never silently migrated or
overwritten -- the operator decides.

Durability rules
----------------
* every ``put``/``put_many`` is one atomic SQLite transaction (atomic
  upsert: ``INSERT .. ON CONFLICT DO UPDATE``);
* opening runs ``PRAGMA quick_check``; a corrupt or truncated file is
  *quarantined* (renamed to ``<name>.corrupt-N`` next to the store)
  and a fresh store is rebuilt in its place, so a damaged dictionary
  costs a cold start, never a crash or a wrong verdict.  Only a failed
  check or a ``SQLITE_CORRUPT``/``SQLITE_NOTADB`` error counts as
  damage: a store another connection holds locked is retried for up to
  ``timeout`` seconds and then refused with :class:`StoreError`, never
  renamed;
* ``readonly=True`` opens an existing store for lookups only
  (``PRAGMA query_only``): writes become counted no-ops, corruption is
  reported instead of repaired.

Lifecycle
---------
A long-lived dictionary grows without bound, so every row carries a
``last_used`` timestamp (stamped on write, bumped on read hits -- the
bump is a usage-tracking side channel, not a verdict write, so it never
appears in :class:`StoreStats`).  :meth:`FaultDictionaryStore.compact`
prunes by age and/or LRU row cap, :meth:`FaultDictionaryStore.merge_from`
folds another store (e.g. a campaign worker's shard) into this one in
one atomic transaction, and :meth:`FaultDictionaryStore.row_stats`
reports the row population for ``repro store stats``.

Place in the store stack
------------------------
This module is the **bottom layer**: the only code that touches
SQLite.  Everything above composes around it --
:class:`~repro.kernel.cache.FaultDictionaryCache` puts the kernel's LRU
in front, :mod:`repro.store.resilience` adds retry/degrade policies for
remote tiers, and :mod:`repro.store.service` serves one instance to a
fleet of socket clients (wire contract in ``docs/PROTOCOL.md``, runbook
in ``docs/OPERATIONS.md``).  :func:`resolve_store` is the single entry
point that picks the right client for a store reference.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..telemetry import TELEMETRY_OFF

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..kernel.cache import SimKey

#: Generation of the on-disk row format.  Bump when the ``verdicts``
#: schema or the verdict encoding changes incompatibly; unknown
#: generations are refused with :class:`StoreSchemaError` rather than
#: misread.  v2: ``last_used`` column (unix seconds) for LRU
#: compaction.  It is not indexed: only :meth:`compact` orders by it.
SCHEMA_VERSION = 2

#: How long one connection waits on a writer lock before giving up.
BUSY_TIMEOUT_SECONDS = 30.0

#: URL scheme of the verdict service (:mod:`repro.store.service`).
#: :func:`resolve_store` dispatches ``repro+unix:///path/to.sock``
#: targets to a socket client instead of opening an SQLite file.
SERVICE_URL_PREFIX = "repro+unix://"

#: Read hits only rewrite ``last_used`` when the stored stamp is at
#: least this stale.  Compaction ages are hours-to-days, so minute
#: granularity loses nothing while keeping hot read paths free of
#: write-lock traffic (a warm fan-out worker re-reading the same rows
#: bumps each at most once a minute instead of once per lookup).
LAST_USED_RESOLUTION_SECONDS = 60

#: Most case names one grouped lookup binds into its ``IN (...)`` list.
#: SQLite builds may cap a statement at 999 host parameters; the group's
#: signature, size and domain take three, so a longer case list is
#: looked up in chunks of this many.
IN_CHUNK = 996


class StoreError(RuntimeError):
    """The fault-dictionary store cannot serve the request."""


class StoreSchemaError(StoreError):
    """The on-disk store was written by an incompatible schema
    generation (or is a foreign SQLite database)."""


class CorruptStoreError(StoreError):
    """The store file failed SQLite's integrity check and could not be
    quarantined (e.g. readonly mode)."""


# -- verdict encoding ----------------------------------------------------------
#
# The store holds two value shapes: worst-case detection verdicts
# (bool; domains "sp"/"2p") and diagnosis syndromes (frozensets of
# (element, op, address, actual) failure tuples; domain "syn").  Both
# encodings are canonical -- equal values encode to equal rows -- so
# upserts are idempotent and byte-identity survives the round trip.

_TRUE, _FALSE, _SYNDROME = "1", "0", "S"


def encode_verdict(value: Any) -> str:
    if value is True:
        return _TRUE
    if value is False:
        return _FALSE
    if isinstance(value, frozenset):
        rows = sorted(
            (list(failure) for failure in value),
            key=lambda row: row[:3],  # (element, op, address) is unique
        )
        return _SYNDROME + json.dumps(rows, separators=(",", ":"))
    raise StoreError(
        f"cannot persist a verdict of type {type(value).__name__}"
    )


def decode_verdict(text: str) -> Any:
    if text == _TRUE:
        return True
    if text == _FALSE:
        return False
    if text.startswith(_SYNDROME):
        return frozenset(
            tuple(row) for row in json.loads(text[len(_SYNDROME):])
        )
    raise StoreError(f"unrecognized verdict row {text!r}")


# Stores, the wire and the kernel's cache move verdicts in groups of
# cases sharing ``(signature, size, domain)``: ``(signature, size,
# domain, cases)`` to look up, plus one verdict per case to write.  The
# per-key ``get_many``/``put_many`` surface is grouped on its way in.


def pair_groups(pairs: Iterable[Tuple["SimKey", Any]]) -> List[tuple]:
    """``(key, verdict)`` pairs as ``put_groups`` groups: one per
    ``(signature, size, domain)`` in first-seen order, pairs in input
    order within their group."""
    grouped: Dict[Tuple[str, int, str], Tuple[List[str], List[Any]]] = {}
    for key, value in pairs:
        cases, values = grouped.setdefault(
            (key.signature, key.size, key.domain), ([], [])
        )
        cases.append(key.case)
        values.append(value)
    return [(*group, *members) for group, members in grouped.items()]


def get_many_by_groups(
    store: Any, keys: Iterable["SimKey"]
) -> Dict["SimKey", Any]:
    """``store.get_many(keys)`` as one ``store.get_groups`` call: one
    group per ``(signature, size, domain)``; found keys only."""
    grouped: Dict[Tuple[str, int, str], List["SimKey"]] = {}
    for key in keys:
        grouped.setdefault(
            (key.signature, key.size, key.domain), []
        ).append(key)
    answers = store.get_groups([
        (*group, [key.case for key in members])
        for group, members in grouped.items()
    ])
    return {
        key: found[key.case]
        for members, found in zip(grouped.values(), answers)
        for key in members
        if key.case in found
    }


@dataclass
class StoreStats:
    """Lookup/write counters of one store connection.

    ``skipped_writes`` counts puts dropped by readonly mode, so
    ``--sim-stats`` makes a misconfigured read-only campaign visible.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    skipped_writes: int = 0

    def reset(self) -> None:
        self.hits = self.misses = 0
        self.writes = self.skipped_writes = 0

    def __str__(self) -> str:
        text = (
            f"{self.hits} hits / {self.misses} misses,"
            f" {self.writes} writes"
        )
        if self.skipped_writes:
            text += f" ({self.skipped_writes} skipped: readonly)"
        return text


def _error_name(error: sqlite3.Error) -> str:
    """SQLite's primary result code name for ``error``
    (``sqlite_errorname``, Python 3.11+; else read from the message)."""
    name = getattr(error, "sqlite_errorname", None)
    if name:
        return name
    text = str(error)
    if "locked" in text or "busy" in text:
        return "SQLITE_BUSY"
    if "malformed" in text or "not a database" in text:
        return "SQLITE_CORRUPT"
    return "SQLITE_ERROR"


def _is_busy(error: sqlite3.Error) -> bool:
    return _error_name(error).startswith(("SQLITE_BUSY", "SQLITE_LOCKED"))


def _is_corruption(error: Exception) -> bool:
    """Only a failed ``quick_check`` or a CORRUPT/NOTADB result code
    justifies quarantining a store file."""
    if isinstance(error, CorruptStoreError):
        return True
    return _error_name(error).startswith(("SQLITE_CORRUPT", "SQLITE_NOTADB"))


class FaultDictionaryStore:
    """A concurrency-safe, disk-backed fault dictionary.

    One instance owns one SQLite connection.  Any number of processes
    may share the same path: WAL journaling plus per-statement upsert
    transactions keep concurrent writers atomic, and a busy timeout
    absorbs short lock contention.

    >>> import tempfile, pathlib
    >>> from repro.kernel.cache import SimKey
    >>> path = pathlib.Path(tempfile.mkdtemp()) / "dict.sqlite"
    >>> store = FaultDictionaryStore(path)
    >>> key = SimKey("{up(w0)}", "SA0@0", 3)
    >>> store.put(key, True)
    >>> store.get(key)
    True
    >>> store.close()
    """

    def __init__(
        self,
        path: Union[str, Path],
        readonly: bool = False,
        timeout: float = BUSY_TIMEOUT_SECONDS,
    ) -> None:
        self.path = Path(path)
        self.readonly = readonly
        self.timeout = timeout
        self.stats = StoreStats()
        #: Telemetry handle (no-op by default; the verdict daemon
        #: swaps in its live handle so WAL checkpoint timings land in
        #: the ``repro.store.checkpoint.seconds`` histogram).
        self.telemetry = TELEMETRY_OFF
        #: Set to the quarantine path when a corrupt file was set aside.
        self.quarantined: Optional[Path] = None
        self._lock = threading.Lock()
        self._conn = self._open()

    # -- lifecycle --------------------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        if self.readonly and not self.path.exists():
            raise StoreError(
                f"readonly store {self.path} does not exist;"
                " run once without --store-readonly to build it"
            )
        try:
            return self._connect_when_unlocked()
        except StoreSchemaError:
            raise  # refusal, never quarantine: the file is healthy
        except (sqlite3.DatabaseError, CorruptStoreError) as error:
            if not _is_corruption(error):
                # Busy past the timeout, I/O, permissions: the file may
                # be healthy and in use, so never rename it.
                raise StoreError(
                    f"store {self.path} cannot be opened: {error}"
                ) from error
            if self.readonly:
                raise CorruptStoreError(
                    f"readonly store {self.path} is corrupt: {error}"
                ) from error
            self._quarantine()
            return self._connect_when_unlocked()

    def _connect_when_unlocked(self) -> sqlite3.Connection:
        """:meth:`_connect_and_check`, retried while another connection
        holds the database lock, for up to ``timeout`` seconds.

        SQLite's busy handler does not cover every open step (switching
        to WAL can fail fast with ``database is locked``), so a busy
        open is retried here; past the timeout the busy error is
        raised.
        """
        deadline = time.perf_counter() + self.timeout
        delay = 0.005
        while True:
            try:
                return self._connect_and_check()
            except sqlite3.OperationalError as error:
                left = deadline - time.perf_counter()
                if not _is_busy(error) or left <= 0:
                    raise
            time.sleep(min(delay, left))
            delay = min(2 * delay, 0.1)

    def _connect_and_check(self) -> sqlite3.Connection:
        if self.readonly:
            # A readonly open must never create the file: the exists()
            # pre-check in _open is a TOCTOU (the path can vanish
            # between check and connect, and a plain connect would
            # leave a fresh empty database behind).  URI mode=ro makes
            # SQLite itself refuse creation and writes, so PRAGMA
            # query_only below is defence in depth, not the only guard.
            from urllib.parse import quote

            try:
                conn = sqlite3.connect(
                    f"file:{quote(str(self.path), safe='/')}?mode=ro",
                    uri=True,
                    timeout=self.timeout,
                    isolation_level=None,
                    check_same_thread=False,
                )
            except sqlite3.OperationalError as error:
                raise StoreError(
                    f"readonly store {self.path} cannot be opened:"
                    f" {error}"
                ) from error
        else:
            conn = sqlite3.connect(
                str(self.path),
                timeout=self.timeout,
                isolation_level=None,  # autocommit; explicit BEGIN in batches
                check_same_thread=False,
            )
        try:
            conn.execute(
                f"PRAGMA busy_timeout = {int(self.timeout * 1000)}"
            )
            if self.readonly:
                conn.execute("PRAGMA query_only = ON")
            else:
                conn.execute("PRAGMA journal_mode = WAL")
                conn.execute("PRAGMA synchronous = NORMAL")
            check = conn.execute("PRAGMA quick_check").fetchone()
            if check is None or check[0] != "ok":
                raise CorruptStoreError(
                    f"integrity check failed: {check and check[0]}"
                )
            self._check_or_init_schema(conn)
        except BaseException:
            conn.close()
            raise
        return conn

    def _check_or_init_schema(self, conn: sqlite3.Connection) -> None:
        tables = conn.execute("SELECT count(*) FROM sqlite_master").fetchone()
        if tables[0] == 0:
            if self.readonly:  # pragma: no cover - exists() raced away
                raise StoreError(f"readonly store {self.path} is empty")
            # Concurrent processes may race to create the same fresh
            # store (a fanned-out campaign's first run): BEGIN
            # IMMEDIATE serializes the creators on the write lock and
            # IF NOT EXISTS / OR IGNORE make the losers no-ops.  The
            # version check below then validates whatever won.
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute(
                    """
                    CREATE TABLE IF NOT EXISTS meta (
                        key   TEXT PRIMARY KEY,
                        value TEXT NOT NULL
                    )
                    """
                )
                conn.execute(
                    """
                    CREATE TABLE IF NOT EXISTS verdicts (
                        signature TEXT    NOT NULL,
                        case_name TEXT    NOT NULL,
                        size      INTEGER NOT NULL,
                        domain    TEXT    NOT NULL,
                        verdict   TEXT    NOT NULL,
                        last_used INTEGER NOT NULL DEFAULT 0,
                        PRIMARY KEY (signature, case_name, size, domain)
                    ) WITHOUT ROWID
                    """
                )
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value)"
                    " VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone() if self._has_table(conn, "meta") else None
        if row is None or not self._has_table(conn, "verdicts"):
            raise StoreSchemaError(
                f"{self.path} is not a fault-dictionary store"
                " (missing meta/verdicts tables)"
            )
        if row[0] != str(SCHEMA_VERSION):
            raise StoreSchemaError(
                f"{self.path} uses store schema {row[0]},"
                f" this build reads schema {SCHEMA_VERSION};"
                " refusing to touch it (move the file aside to rebuild)"
            )
        if not self.readonly:
            # Stores written before the index was dropped still carry
            # it; every upsert would keep paying to maintain it.
            conn.execute("DROP INDEX IF EXISTS verdicts_last_used")

    @staticmethod
    def _has_table(conn: sqlite3.Connection, name: str) -> bool:
        return conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name=?",
            (name,),
        ).fetchone() is not None

    def _quarantine(self) -> None:
        """Set the damaged file (and WAL droppings) aside, keep going."""
        suffix = 0
        while True:
            target = self.path.with_name(
                f"{self.path.name}.corrupt-{suffix}"
            )
            if not target.exists():
                break
            suffix += 1
        os.replace(self.path, target)
        for dropping in (
            self.path.with_name(self.path.name + "-wal"),
            self.path.with_name(self.path.name + "-shm"),
        ):
            try:
                dropping.unlink()
            except FileNotFoundError:
                pass
        self.quarantined = target

    def checkpoint(self, mode: str = "PASSIVE") -> bool:
        """Fold the WAL back into the main database file, tolerantly.

        ``PASSIVE`` by default so a busy reader never stalls the
        caller (the daemon runs this on a timer).  Returns whether a
        checkpoint actually ran; readonly stores, closed stores and
        SQLite refusals all answer ``False`` rather than raise.
        """
        if self.readonly:
            return False
        if mode not in ("PASSIVE", "FULL", "RESTART", "TRUNCATE"):
            raise ValueError(f"unknown WAL checkpoint mode {mode!r}")
        telemetry = self.telemetry
        started = telemetry.clock() if telemetry.enabled else 0.0
        with self._lock:
            if self._conn is None:
                return False
            try:
                self._conn.execute(f"PRAGMA wal_checkpoint({mode})")
            except sqlite3.Error:
                return False
        if telemetry.enabled:
            telemetry.histogram(
                "repro.store.checkpoint.seconds", mode=mode
            ).observe(telemetry.clock() - started)
        return True

    def close(self) -> None:
        """Checkpoint the WAL and release the connection (idempotent)."""
        conn, self._conn = self._conn, None
        if conn is None:
            return
        if not self.readonly:
            try:
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:  # pragma: no cover - checkpoint is advisory
                pass
        conn.close()

    def __enter__(self) -> "FaultDictionaryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- lookups ----------------------------------------------------------------

    _SELECT = (
        "SELECT verdict, last_used FROM verdicts"
        " WHERE signature=? AND case_name=? AND size=? AND domain=?"
    )

    _TOUCH = (
        "UPDATE verdicts SET last_used=?"
        " WHERE signature=? AND case_name=? AND size=? AND domain=?"
    )

    def _bump(
        self, now: int, rows: Sequence[Tuple[str, str, int, str]]
    ) -> None:
        """Best-effort ``last_used`` refresh for read hits, one
        ``(signature, case, size, domain)`` tuple per row.

        Usage tracking must never fail (or stall) a lookup: when the
        write lock cannot be had -- another worker mid-``put_many``, a
        concurrent compaction holding the file -- the bump is simply
        dropped; the rows keep their previous recency.  Called under
        ``self._lock``.
        """
        rows = [(now, *row) for row in rows]
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError:
            return
        try:
            self._conn.executemany(self._TOUCH, rows)
        except sqlite3.OperationalError:  # pragma: no cover - lock races
            self._conn.execute("ROLLBACK")
            return
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def _needs_bump(self, now: int, last_used: int) -> bool:
        return (
            not self.readonly
            and now - last_used >= LAST_USED_RESOLUTION_SECONDS
        )

    def get(self, key: "SimKey", default: Any = None) -> Any:
        """Look up one verdict as a one-case :meth:`get_groups` group."""
        (found,) = self.get_groups(
            [(key.signature, key.size, key.domain, [key.case])]
        )
        return found.get(key.case, default)

    _SELECT_GROUP = (
        "SELECT case_name, verdict, last_used FROM verdicts"
        " WHERE signature=? AND size=? AND domain=? AND case_name IN ({})"
    )

    def get_groups(
        self, groups: Iterable[Tuple[str, int, str, Sequence[str]]]
    ) -> List[Dict[str, Any]]:
        """Look up groups of cases sharing ``(signature, size, domain)``.

        Takes ``(signature, size, domain, cases)`` groups and returns
        one ``{case: verdict}`` dict per group with the cases found.
        A group is read by one ``SELECT .. case_name IN (..)`` per
        :data:`IN_CHUNK` distinct cases; hits and misses are counted
        per case asked.  Stale hits get their ``last_used`` refreshed
        in one batched, best-effort transaction.

        A hit refreshes the row's ``last_used`` timestamp (skipped in
        readonly mode, rate-limited to
        :data:`LAST_USED_RESOLUTION_SECONDS`, dropped under lock
        contention) so :meth:`compact` can prune least-recently-used
        rows; the bump is usage tracking, not a verdict write, and is
        deliberately absent from :class:`StoreStats`.
        """
        answers: List[Dict[str, Any]] = []
        stale: List[Tuple[str, str, int, str]] = []
        hits = asked = 0
        now = int(time.time())
        with self._lock:
            cursor = self._conn.cursor()
            for signature, size, domain, cases in groups:
                distinct = list(dict.fromkeys(cases))
                found: Dict[str, Any] = {}
                for start in range(0, len(distinct), IN_CHUNK):
                    chunk = distinct[start:start + IN_CHUNK]
                    cursor.execute(
                        self._SELECT_GROUP.format(",".join("?" * len(chunk))),
                        (signature, size, domain, *chunk),
                    )
                    for case, verdict, last_used in cursor:
                        found[case] = decode_verdict(verdict)
                        if self._needs_bump(now, last_used):
                            stale.append((signature, case, size, domain))
                asked += len(cases)
                hits += sum(1 for case in cases if case in found)
                answers.append(found)
            if stale:
                self._bump(now, stale)
            self.stats.hits += hits
            self.stats.misses += asked - hits
        return answers

    def get_many(self, keys: Iterable["SimKey"]) -> Dict["SimKey", Any]:
        """Look up many keys as :meth:`get_groups` groups; absent keys
        are simply not returned."""
        return get_many_by_groups(self, keys)

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT count(*) FROM verdicts"
            ).fetchone()[0]

    def __contains__(self, key: "SimKey") -> bool:
        with self._lock:
            return self._conn.execute(
                self._SELECT, (key.signature, key.case, key.size, key.domain)
            ).fetchone() is not None

    # -- writes -----------------------------------------------------------------

    _UPSERT = (
        "INSERT INTO verdicts"
        " (signature, case_name, size, domain, verdict, last_used)"
        " VALUES (?, ?, ?, ?, ?, ?)"
        " ON CONFLICT (signature, case_name, size, domain)"
        " DO UPDATE SET verdict = excluded.verdict,"
        "               last_used = excluded.last_used"
    )

    def put(self, key: "SimKey", value: Any) -> None:
        """Atomically upsert one verdict (no-op in readonly mode)."""
        self.put_many([(key, value)])

    def put_many(self, pairs: Sequence[Tuple["SimKey", Any]]) -> None:
        """Upsert a batch in one transaction: all land or none do."""
        self.put_groups(pair_groups(pairs))

    def put_groups(
        self,
        groups: Iterable[Tuple[str, int, str, Sequence[str], Sequence[Any]]],
    ) -> None:
        """Upsert ``(signature, size, domain, cases, verdicts)`` groups,
        one verdict per case, in one transaction."""
        groups = list(groups)
        if self.readonly:
            self.stats.skipped_writes += sum(len(g[3]) for g in groups)
            return
        now = int(time.time())
        rows = [
            (signature, case, size, domain, encode_verdict(value), now)
            for signature, size, domain, cases, verdicts in groups
            for case, value in zip(cases, verdicts)
        ]
        if not rows:
            return
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.executemany(self._UPSERT, rows)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        self.stats.writes += len(rows)

    # -- lifecycle maintenance --------------------------------------------------

    def compact(
        self,
        max_rows: Optional[int] = None,
        max_age: Optional[float] = None,
        now: Optional[float] = None,
        vacuum: bool = True,
    ) -> Dict[str, Any]:
        """Prune the dictionary: drop stale rows, cap the population.

        ``max_age`` (seconds) removes every row whose ``last_used`` is
        older than ``now - max_age``; ``max_rows`` then removes
        least-recently-used rows (ties broken by primary key, so
        compaction is deterministic) until at most ``max_rows`` remain.
        Both prunes run in one transaction, each one scan (and sort) of
        the table, since ``last_used`` is not indexed; ``vacuum``
        reclaims the freed pages afterwards.  Returns a stats dict suitable for
        machine-readable reporting (``repro store compact --json``).
        """
        if self.readonly:
            raise StoreError(f"cannot compact readonly store {self.path}")
        if max_rows is not None and max_rows < 0:
            raise StoreError("max_rows must be >= 0")
        if max_age is not None and max_age < 0:
            raise StoreError("max_age must be >= 0 seconds")
        now = time.time() if now is None else now
        with self._lock:
            # Fold the WAL in first so the before/after byte counts
            # describe the whole dictionary, not just the main file.
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            bytes_before = self.path.stat().st_size
            rows_before = self._conn.execute(
                "SELECT count(*) FROM verdicts"
            ).fetchone()[0]
            removed_by_age = removed_by_cap = 0
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                if max_age is not None:
                    removed_by_age = self._conn.execute(
                        "DELETE FROM verdicts WHERE last_used < ?",
                        (int(now - max_age),),
                    ).rowcount
                if max_rows is not None:
                    remaining = rows_before - removed_by_age
                    excess = remaining - max_rows
                    if excess > 0:
                        removed_by_cap = self._conn.execute(
                            "DELETE FROM verdicts WHERE"
                            " (signature, case_name, size, domain) IN ("
                            "   SELECT signature, case_name, size, domain"
                            "   FROM verdicts"
                            "   ORDER BY last_used ASC, signature ASC,"
                            "            case_name ASC, size ASC, domain ASC"
                            "   LIMIT ?)",
                            (excess,),
                        ).rowcount
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            if vacuum:
                self._conn.execute("VACUUM")
            # In WAL mode VACUUM rewrites through the WAL; the main
            # file only shrinks once that WAL is checkpointed back.
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {
            "path": str(self.path),
            "rows_before": rows_before,
            "removed_by_age": removed_by_age,
            "removed_by_cap": removed_by_cap,
            "rows_after": rows_before - removed_by_age - removed_by_cap,
            "bytes_before": bytes_before,
            "bytes_after": self.path.stat().st_size,
        }

    def merge_from(
        self, source: "Union[str, Path, FaultDictionaryStore]"
    ) -> Dict[str, int]:
        """Fold another store's rows into this one, atomically.

        This is the sharded campaign fan-out's join step: each worker
        writes its own shard store, then the parent merges every shard
        into the main dictionary in one transaction per shard.

        Conflict resolution: when both stores hold a row for the same
        ``SimKey``, the row with the **newer** ``last_used`` wins the
        verdict (the incoming row wins ties -- freshly simulated shard
        rows supersede what the main store remembered), and the merged
        ``last_used`` is the maximum of the two.  Returns
        ``{"source_rows", "inserted", "merged"}``.
        """
        if self.readonly:
            raise StoreError(
                f"cannot merge into readonly store {self.path}"
            )
        source_path = Path(
            source.path
            if isinstance(source, FaultDictionaryStore)
            else source
        )
        if source_path.resolve() == self.path.resolve():
            raise StoreError(f"cannot merge {self.path} into itself")
        # Validate the source generation through the normal open path
        # (schema refusal, corruption report) before touching our rows.
        if not isinstance(source, FaultDictionaryStore):
            with FaultDictionaryStore(source_path, readonly=True):
                pass
        with self._lock:
            rows_before = self._conn.execute(
                "SELECT count(*) FROM verdicts"
            ).fetchone()[0]
            self._conn.execute("ATTACH DATABASE ? AS merge_src",
                               (str(source_path),))
            try:
                source_rows = self._conn.execute(
                    "SELECT count(*) FROM merge_src.verdicts"
                ).fetchone()[0]
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    self._conn.execute(
                        "INSERT INTO verdicts"
                        " (signature, case_name, size, domain,"
                        "  verdict, last_used)"
                        " SELECT signature, case_name, size, domain,"
                        "        verdict, last_used"
                        " FROM merge_src.verdicts WHERE true"
                        " ON CONFLICT (signature, case_name, size, domain)"
                        " DO UPDATE SET"
                        "   verdict = CASE"
                        "     WHEN excluded.last_used >= verdicts.last_used"
                        "     THEN excluded.verdict ELSE verdicts.verdict"
                        "   END,"
                        "   last_used = max(verdicts.last_used,"
                        "                   excluded.last_used)"
                    )
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
                self._conn.execute("COMMIT")
                rows_after = self._conn.execute(
                    "SELECT count(*) FROM verdicts"
                ).fetchone()[0]
            finally:
                self._conn.execute("DETACH DATABASE merge_src")
        inserted = rows_after - rows_before
        return {
            "source_rows": source_rows,
            "inserted": inserted,
            "merged": source_rows - inserted,
        }

    def row_stats(self) -> Dict[str, Any]:
        """The row population report behind ``repro store stats``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT count(*) FROM verdicts"
            ).fetchone()[0]
            by_domain = dict(
                self._conn.execute(
                    "SELECT domain, count(*) FROM verdicts"
                    " GROUP BY domain ORDER BY domain"
                ).fetchall()
            )
            used = self._conn.execute(
                "SELECT min(last_used), max(last_used) FROM verdicts"
            ).fetchone()
        return {
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "rows": rows,
            "by_domain": by_domain,
            "bytes": self.path.stat().st_size,
            "last_used_min": used[0],
            "last_used_max": used[1],
        }

    # -- description ------------------------------------------------------------

    def describe(self) -> str:
        mode = " readonly" if self.readonly else ""
        return f"store [{self.path.name}{mode}]: {self.stats}"


def resolve_store(
    store: "Union[str, Path, FaultDictionaryStore, Any, None]",
    readonly: bool = False,
    retry: Optional[Any] = None,
) -> Optional[Any]:
    """Turn a store reference into a ready verdict store.

    Accepts ``None`` (no store); a ready store object -- a
    :class:`FaultDictionaryStore` or a service client -- returned
    as-is; a ``repro+unix://`` verdict-service URL, dispatched to
    :class:`repro.store.service.ServiceStore` (no SQLite file is
    opened client-side); or a filesystem path, opened directly.

    ``retry`` (a :class:`repro.store.resilience.RetryPolicy`) only
    applies to the service-URL case; file stores have no transient
    failure mode worth a policy, and ready objects keep their own.
    """
    if store is None:
        return None
    if isinstance(store, (str, Path)):
        text = str(store)
        if text.startswith(SERVICE_URL_PREFIX):
            from .service import ServiceStore

            return ServiceStore(text, readonly=readonly, retry=retry)
        return FaultDictionaryStore(store, readonly=readonly)
    # A ready store-like instance (FaultDictionaryStore, ServiceStore,
    # or a user-provided tier): the caller owns its lifecycle.
    return store
