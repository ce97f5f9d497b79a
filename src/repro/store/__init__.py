"""Persistent fault-dictionary store + campaign runner subsystem.

* :mod:`repro.store.store` -- the SQLite-backed, concurrency-safe,
  schema-versioned verdict store (WAL, atomic upserts keyed by
  ``SimKey``, corrupt-file quarantine-and-rebuild, readonly mode);
* :mod:`repro.store.service` -- the verdict-service daemon and its
  socket client (import it directly, like the campaign module);
* :mod:`repro.store.campaign` -- the declarative batch runner behind
  ``repro campaign`` (import it directly: it depends on the kernel
  package, which imports *this* package at startup).

The kernel layers a store under its in-memory LRU as a
write-through/read-through second tier of one cache
(:class:`~repro.kernel.cache.FaultDictionaryCache`).  See the README
section "Persistent results & campaigns".
"""

from .store import (
    BUSY_TIMEOUT_SECONDS,
    SCHEMA_VERSION,
    CorruptStoreError,
    FaultDictionaryStore,
    StoreError,
    StoreSchemaError,
    StoreStats,
    decode_verdict,
    encode_verdict,
    resolve_store,
)

__all__ = [
    "BUSY_TIMEOUT_SECONDS",
    "CorruptStoreError",
    "FaultDictionaryStore",
    "SCHEMA_VERSION",
    "StoreError",
    "StoreSchemaError",
    "StoreStats",
    "decode_verdict",
    "encode_verdict",
    "resolve_store",
]
