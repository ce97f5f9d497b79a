"""Declarative simulation campaigns over the persistent store.

A *campaign* is the production shape of the repository's workloads: a
batch job that sweeps ``tests x fault models x sizes x backends``
through the simulation kernel, deduplicating every verdict through the
persistent fault-dictionary store (two jobs probing the same (test,
case, size) pair simulate it once, ever -- even across campaigns and
processes) and emitting a machine-readable *results manifest* that
downstream tooling (CI artifact diffing, dashboards, regression bots)
can consume without scraping CLI output.

The spec is plain JSON (see ``examples/campaign_table3.json``)::

    {
      "name": "table3-sweep",
      "tests": ["MATS", "MarchC-", "{up(w0); up(r0,w1); down(r1)}"],
      "faults": ["SAF", "TF", "ADF"],
      "sizes": [3, 4],
      "backends": ["bitparallel"]
    }

``tests`` accepts catalog names or literal March notation; ``faults``
are fault-model names; ``sizes``/``backends`` default to ``[3]`` /
``["bitparallel"]``.  An optional ``"store"`` field names the
dictionary file -- or a ``repro+unix:///path/to.sock`` verdict-service
URL, in which case every worker becomes a socket client of one
serialized store owner and no worker opens SQLite at all (the CLI
``--store`` flag overrides it).

Execution model
---------------
The unit of work is one **job** = ``(test, backend, size)``; the job
list is the deterministic cross product (backends outermost, then
sizes, then tests, all in spec order).  ``run_campaign(spec, jobs=N)``
fans the jobs out over ``N`` worker processes:

* every job runs on a **fresh** kernel -- cold LRU, its own store
  connection -- so all cross-job deduplication flows through the
  persistent store, exactly like separate CLI invocations would;
* the manifest lists jobs and results in job order no matter which
  worker finished first (deterministic fan-out: a ``--jobs 4`` run is
  byte-identical to ``--jobs 1`` modulo timings and cache counters --
  ``normalized_manifest`` strips exactly those);
* one crashed job is *recorded* (its manifest entry carries an
  ``"error"`` string, ``totals["failed"]`` counts it) and the sweep
  continues -- a 1000-job sweep never dies at job 999;
* with ``shard=True`` each **job** writes its own shard store
  (``<store>.shard-<job index>``) instead of contending on the shared
  WAL file; the shards are merged into the main store atomically at
  the end (:meth:`~repro.store.store.FaultDictionaryStore.merge_from`)
  and deleted.  Shared-WAL mode (the default) deduplicates *during*
  the run; shard mode trades duplicate simulation (and one small
  SQLite file per job) for zero writer contention.

Resilience (verdict-service stores)
-----------------------------------
A service-URL campaign survives its daemon faulting underneath it.
Each worker's :class:`~repro.store.service.ServiceStore` retries
transient socket failures with backoff (the ``retry`` policy rides
along in the job request), and when a policy is exhausted the worker
*degrades* instead of failing: its client is wrapped in a
:class:`~repro.store.resilience.DegradingStore` that demotes to a
per-worker SQLite spill shard (``<socket>.spill-<job index>``) --
the same shard machinery as ``shard=True`` -- so the job finishes
with full write capture.  Surviving spills are merged back at the
end (through the daemon's ``merge`` op when it recovered, directly
into the server's store file otherwise) and the schema-3 manifest
records ``degraded``/``attempts``/``spill`` per job plus a
``resilience`` block, instead of failed rows.  Infrastructure faults
change *where* verdicts land, never *what* they are, so
``normalized_manifest`` strips all of it.

This module depends on :mod:`repro.kernel`, which imports the store
package at startup -- import it as ``repro.store.campaign`` directly,
never from ``repro.store``'s namespace.
"""

from __future__ import annotations

import copy
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from ..faults.faultlist import FaultList
from ..faults.library import MODEL_REGISTRY
from ..kernel import SimulationKernel, validate_backend_name
from ..march.catalog import by_name
from ..march.test import MarchTest, parse_march
from ..telemetry import Telemetry, merge_snapshots
from .resilience import DegradingStore, RetryPolicy
from .service import ServiceStore, is_service_url, service_socket_path
from .store import FaultDictionaryStore, StoreError

#: Generation of the manifest payload layout.  v2: one job per
#: (test, backend, size), per-job ``test``/``error`` fields, the
#: ``parallel`` execution block and ``totals["failed"]``.  v3: the
#: top-level ``resilience`` block, per-job ``degraded``/``attempts``/
#: ``spill`` and ``totals["degraded"]``.  v4: per-job ``telemetry``
#: blocks (metrics snapshot + span trees) and the top-level
#: ``telemetry`` merge -- all run-dependent, all stripped by
#: :func:`normalized_manifest`.
MANIFEST_SCHEMA = 4

DEFAULT_MANIFEST_NAME = "campaign_manifest.json"

#: A progress sink: called with (completed so far, total, job record)
#: as each job finishes, in completion -- not job -- order.
ProgressSink = Callable[[int, int, Dict[str, Any]], None]


class CampaignSpecError(ValueError):
    """The campaign spec is malformed."""


@dataclass(frozen=True)
class CampaignSpec:
    """A validated, immutable campaign description."""

    name: str
    tests: Tuple[str, ...]
    faults: Tuple[str, ...]
    sizes: Tuple[int, ...] = (3,)
    backends: Tuple[str, ...] = ("bitparallel",)
    store: Optional[str] = None

    _KNOWN_KEYS = frozenset(
        {"name", "tests", "faults", "sizes", "backends", "store"}
    )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignSpecError("campaign spec must be a JSON object")
        unknown = set(data) - cls._KNOWN_KEYS
        if unknown:
            raise CampaignSpecError(
                f"unknown campaign spec keys: {sorted(unknown)};"
                f" known: {sorted(cls._KNOWN_KEYS)}"
            )
        try:
            tests = tuple(data["tests"])
            faults = tuple(data["faults"])
        except KeyError as missing:
            raise CampaignSpecError(
                f"campaign spec requires the {missing} key"
            ) from None
        if not tests or not all(isinstance(t, str) for t in tests):
            raise CampaignSpecError("'tests' must be non-empty strings")
        if not faults:
            raise CampaignSpecError("'faults' must name at least one model")
        for model in faults:
            if not isinstance(model, str):
                raise CampaignSpecError(
                    f"fault model names must be strings, got {model!r}"
                )
            if model.upper() not in MODEL_REGISTRY:
                raise CampaignSpecError(
                    f"unknown fault model {model!r};"
                    f" known: {sorted(MODEL_REGISTRY)}"
                )
        sizes = tuple(data.get("sizes", (3,)))
        if not sizes or not all(
            isinstance(s, int) and not isinstance(s, bool) and s > 0
            for s in sizes
        ):
            raise CampaignSpecError("'sizes' must be positive integers")
        backends = tuple(data.get("backends", ("bitparallel",)))
        for backend in backends:
            try:
                validate_backend_name(backend)
            except ValueError as error:
                raise CampaignSpecError(str(error)) from None
        store = data.get("store")
        return cls(
            name=str(data.get("name", "campaign")),
            tests=tests,
            faults=tuple(f.upper() for f in faults),
            sizes=sizes,
            backends=backends,
            store=str(store) if store is not None else None,
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as error:
            raise CampaignSpecError(
                f"cannot read campaign spec {path}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise CampaignSpecError(
                f"campaign spec {path} is not valid JSON: {error}"
            ) from error
        return cls.from_dict(data)

    # -- resolution -------------------------------------------------------------

    def resolved_tests(self) -> List[MarchTest]:
        """Catalog names or literal March notation, in spec order."""
        return [_resolve_test(text) for text in self.tests]

    def jobs(self) -> List[Tuple[str, int, str]]:
        """(backend, size, test) triples, the deterministic job order.

        Backends vary slowest, then sizes, then tests: one backend
        finishes populating the store for every (size, test) before the
        next backend starts, which makes the later backends' jobs pure
        dictionary lookups in a sequential shared-store run.
        """
        return [
            (backend, size, test)
            for backend in self.backends
            for size in self.sizes
            for test in self.tests
        ]


def _resolve_test(text: str) -> MarchTest:
    try:
        return by_name(text)
    except KeyError:
        return parse_march(text, name=text)


# -- the job runner -------------------------------------------------------------
#
# One job = one (test, backend, size) cell of the sweep, executed on a
# fresh kernel in whatever process the scheduler put it.  Everything a
# worker needs crosses the process boundary as this picklable request;
# test resolution happens *inside* the job so a malformed test name (or
# any other per-job explosion) fails that job alone.


@dataclass(frozen=True)
class _JobRequest:
    index: int
    test_text: str
    backend: str
    size: int
    faults: Tuple[str, ...]
    store_path: Optional[str]
    store_readonly: bool
    retry: Optional[RetryPolicy] = None
    degrade: bool = False
    spill_path: Optional[str] = None


def _open_job_store(request: _JobRequest) -> Optional[Any]:
    """Open this job's store tier, with resilience for service URLs.

    File stores (and storeless jobs) keep the historical path-based
    opening inside the kernel and return ``None`` here.  Service URLs
    become an explicit :class:`ServiceStore` carrying the campaign's
    retry policy -- wrapped in a :class:`DegradingStore` over the
    job's private spill shard when degradation is on -- which the
    kernel then layers under its LRU like any caller-provided tier.
    """
    if request.store_path is None or not is_service_url(request.store_path):
        return None
    client = ServiceStore(
        request.store_path,
        readonly=request.store_readonly,
        retry=request.retry,
    )
    if request.degrade and not request.store_readonly \
            and request.spill_path is not None:
        return DegradingStore(client, request.spill_path)
    return client


def _simulate_job(request: _JobRequest) -> Dict[str, Any]:
    started = time.perf_counter()
    store_obj = _open_job_store(request)
    # Every job runs instrumented: the per-batch cost is microseconds
    # against a multi-millisecond job, and it means --metrics/--trace
    # need no extra worker plumbing -- each record carries its own
    # snapshot and span tree, merged campaign-wide by run_campaign.
    telemetry = Telemetry()
    kernel = SimulationKernel(
        backend=request.backend,
        store=store_obj if store_obj is not None else request.store_path,
        store_readonly=request.store_readonly,
        telemetry=telemetry,
    )
    # try/finally around *everything* after kernel construction: a job
    # that blows up mid-simulation must still checkpoint and close its
    # store connection, or a crashing sweep would leak WAL files and
    # drop verdicts its backend already computed.
    try:
        test = _resolve_test(request.test_text)
        cases = FaultList.from_names(*request.faults).instances(request.size)
        report = kernel.simulate(test, cases, request.size)
        seconds = time.perf_counter() - started
        prober = getattr(kernel.store, "resilience", None)
        resilience = (
            prober() if callable(prober)
            else {"attempts": 0, "degraded": False, "spill": None}
        )
        record: Dict[str, Any] = {
            "test": test.name or str(test),
            "notation": str(test),
            "backend": request.backend,
            "size": request.size,
            "fault_cases": len(cases),
            "seconds": seconds,
            "error": None,
            "degraded": resilience["degraded"],
            "attempts": resilience["attempts"],
            "spill": resilience["spill"],
            "cache": {
                "hits": kernel.stats.hits,
                "misses": kernel.stats.misses,
            },
            "served": dict(getattr(kernel.backend, "served", None) or {}),
        }
        if kernel.store is not None:
            record["store"] = {
                "hits": kernel.store.stats.hits,
                "misses": kernel.store.stats.misses,
                "writes": kernel.store.stats.writes,
                "skipped_writes": kernel.store.stats.skipped_writes,
            }
        record["telemetry"] = {
            "metrics": telemetry.snapshot(),
            "spans": telemetry.span_trees(),
        }
        record["result"] = {
            "test": test.name or str(test),
            "notation": str(test),
            "size": request.size,
            "backend": request.backend,
            "fault_cases": len(cases),
            "detected": len(report.detected),
            "missed": list(report.missed),
            "coverage": report.coverage,
        }
        return record
    finally:
        try:
            kernel.close()
        finally:
            # The kernel never owns a caller-provided tier; a
            # service/degrading store opened here is ours to close
            # (flushing the spill's WAL so the merge sees every row).
            if store_obj is not None:
                store_obj.close()


def _execute_job(request: _JobRequest) -> Dict[str, Any]:
    """Top-level worker entry point: never raises for job-level errors.

    A failing job returns an error record instead of propagating, so
    one bad cell of the sweep cannot take down its worker (or, in
    sequential mode, the whole campaign).  Only catastrophic worker
    death (OOM kill, segfault) surfaces to the parent as a broken
    future, which the scheduler also records as a per-job failure.
    """
    try:
        return _simulate_job(request)
    except Exception as error:  # noqa: BLE001 - isolation boundary
        return _error_record(request, error)


def _error_record(request: _JobRequest, error: BaseException) -> Dict[str, Any]:
    return {
        "test": request.test_text,
        "notation": None,
        "backend": request.backend,
        "size": request.size,
        "fault_cases": None,
        "seconds": None,
        "error": f"{type(error).__name__}: {error}",
        "degraded": False,
        "attempts": 0,
        "spill": None,
        "cache": None,
        "served": {},
        "telemetry": None,
        "result": None,
    }


def _pool_context():
    """Prefer fork (cheap, inherits the loaded fault library); fall
    back to the platform default where fork does not exist."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def run_campaign(
    spec: CampaignSpec,
    store_path: Optional[str] = None,
    store_readonly: bool = False,
    jobs: int = 1,
    shard: bool = False,
    progress: Optional[ProgressSink] = None,
    retry: Optional[RetryPolicy] = None,
    degrade: bool = True,
    clock: Optional[Callable[[], float]] = None,
) -> Dict[str, Any]:
    """Execute every job of ``spec``; return the results manifest.

    ``jobs`` is the worker-pool width: 1 (default) runs the jobs
    sequentially in-process, ``N > 1`` fans them out over ``N``
    processes.  Either way the manifest is ordered by the deterministic
    job order of :meth:`CampaignSpec.jobs` and each job's verdicts are
    the kernel's usual byte-identical results, so the fan-out changes
    wall-clock, never content.

    ``shard=True`` (needs a writable *file* store and is pointless
    without one) gives every job a private shard store and merges the
    shards into the main dictionary atomically after the sweep; the
    default writes through the shared WAL store, deduplicating live.
    With a verdict-service URL as the store, workers write through the
    daemon instead -- one serialized WAL owner, no shard-and-merge
    step -- which is the designated substrate for cross-host fan-out.

    ``progress`` is called as each job completes (in completion order)
    with ``(done, total, job_record)``.

    ``retry`` is the per-job :class:`RetryPolicy` for service-URL
    stores (``None`` means the default policy); ``degrade`` controls
    whether exhausted retries demote a worker to a spill shard
    (see the module docstring) or fail the job.  Both are ignored for
    file stores.

    ``clock`` is the wall-clock source for the manifest's
    ``generated_unix`` stamp (default :func:`time.time`), injectable
    for the same reason :class:`RetryPolicy` takes one: tests pin it
    and get a fully deterministic manifest without normalization.  The
    stamp is run metadata either way -- :func:`normalized_manifest`
    strips it before any byte-for-byte comparison.
    """
    if clock is None:
        clock = time.time
    if jobs < 1:
        raise CampaignSpecError("jobs must be >= 1")
    store = store_path if store_path is not None else spec.store
    service = store is not None and is_service_url(str(store))
    policy = retry if retry is not None else RetryPolicy()
    degrade_active = service and degrade and not store_readonly
    if shard:
        if store is None:
            raise CampaignSpecError("shard mode needs --store")
        if store_readonly:
            raise CampaignSpecError(
                "shard mode writes shards; it cannot run --store-readonly"
            )
        if service:
            raise CampaignSpecError(
                "shard mode needs a file store; a verdict service"
                " (repro+unix://) already serializes concurrent writers"
            )

    def shard_path(index: int) -> str:
        return f"{store}.shard-{index}"

    def spill_path(index: int) -> str:
        # Next to the socket, not the daemon's store file: the client
        # may not know (or share a filesystem view of) the store path,
        # but the socket path is its own connection target.
        return f"{service_socket_path(str(store))}.spill-{index}"

    requests = [
        _JobRequest(
            index=index,
            test_text=test,
            backend=backend,
            size=size,
            faults=spec.faults,
            store_path=shard_path(index) if shard else (
                str(store) if store is not None else None
            ),
            store_readonly=store_readonly,
            retry=policy if service else None,
            degrade=degrade_active,
            spill_path=spill_path(index) if degrade_active else None,
        )
        for index, (backend, size, test) in enumerate(spec.jobs())
    ]

    started_campaign = time.perf_counter()
    server_store: Optional[str] = None
    if service:
        # No client-side SQLite open: just handshake with the daemon so
        # an unreachable (or foreign) socket fails the campaign up
        # front instead of failing every job.  The probe always rides
        # the *default* retry policy -- a retries-disabled campaign
        # must still start through a flaky transport -- and the
        # handshake tells us where the daemon's store file lives, the
        # fallback merge target if the daemon never comes back.
        probe = ServiceStore(str(store))
        try:
            hello = probe.ping()
            server_store = hello.get("store")
        finally:
            probe.close()
    elif store is not None and not store_readonly:
        # Pre-create the (shared store / shard-merge target) schema in
        # the parent: workers then only ever open an existing store,
        # and a store problem fails the campaign up front instead of
        # failing every job.
        FaultDictionaryStore(store).close()
    records: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    done = 0

    def record_completion(index: int, record: Dict[str, Any]) -> None:
        nonlocal done
        records[index] = record
        done += 1
        if progress is not None:
            progress(done, len(requests), record)

    if jobs == 1 or len(requests) <= 1:
        for request in requests:
            record_completion(request.index, _execute_job(request))
    else:
        # A hard worker death (SIGKILL, OOM, segfault) marks the whole
        # pool broken: every live future fails with BrokenProcessPool,
        # and submit/wait themselves can raise it if the break lands
        # while jobs are still being scheduled.  None of that may cost
        # the manifest -- completed records are harvested, every
        # unfinished job is written down as failed, the campaign
        # returns (and the CLI exits 1 via totals["failed"]).
        pool_break: Optional[BaseException] = None
        futures: Dict[Any, _JobRequest] = {}
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(requests)),
            mp_context=_pool_context(),
        ) as pool:
            try:
                for request in requests:
                    futures[pool.submit(_execute_job, request)] = request
                pending = set(futures)
                while pending:
                    finished, pending = wait(
                        pending, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        request = futures[future]
                        try:
                            record = future.result()
                        except BaseException as error:  # hard worker crash
                            record = _error_record(request, error)
                        record_completion(request.index, record)
            except BrokenProcessPool as error:
                pool_break = error
                # Harvest whatever still finished cleanly before the
                # pool died: those verdicts are real and already in
                # the store; their records must not be lost.
                for future, request in futures.items():
                    if records[request.index] is not None \
                            or not future.done():
                        continue
                    try:
                        record = future.result()
                    except BaseException as inner:
                        record = _error_record(request, inner)
                    record_completion(request.index, record)
        if pool_break is not None:
            for request in requests:
                if records[request.index] is None:
                    record_completion(
                        request.index, _error_record(request, pool_break)
                    )

    merge_stats: Optional[Dict[str, int]] = None
    if shard:
        merge_stats = _merge_shards(
            store, [shard_path(request.index) for request in requests]
        )
    spill_merge: Optional[Dict[str, Any]] = None
    if degrade_active:
        spill_merge = _merge_spills(
            str(store),
            server_store,
            [spill_path(request.index) for request in requests],
            RetryPolicy(),
        )

    ordered = [record for record in records if record is not None]
    results = [
        record["result"] for record in ordered
        if record.get("result") is not None
    ]
    job_rows = []
    for record in ordered:
        job_rows.append({k: v for k, v in record.items() if k != "result"})
    simulated = sum(
        sum(record["served"].values()) for record in ordered
    )
    store_hits = sum(
        (record.get("store") or {}).get("hits", 0) for record in ordered
    )
    failed = sum(1 for record in ordered if record["error"] is not None)
    degraded = sum(1 for record in ordered if record.get("degraded"))
    mode = (
        "sequential" if jobs == 1
        else ("sharded" if shard else "shared")
    )
    return {
        "schema": MANIFEST_SCHEMA,
        "campaign": spec.name,
        "generated_unix": round(clock(), 3),
        # JSON-native echo of the spec (tuples become lists).
        "spec": {
            field: list(value) if isinstance(value, tuple) else value
            for field, value in asdict(spec).items()
        },
        "store": str(store) if store is not None else None,
        "store_readonly": store_readonly,
        "parallel": {
            "jobs": jobs,
            "mode": mode,
            "shard_merge": merge_stats,
        },
        "resilience": {
            "retry": policy.knobs() if service else None,
            "degrade": degrade_active,
            "spill_merge": spill_merge,
        },
        # The campaign-wide registry view: every job's snapshot folded
        # into one (counters add, gauges max, histograms add
        # bucket-wise).  By construction its route counters reconcile
        # with totals["verdicts_simulated"] and its cache counters
        # with the per-job cache blocks.
        "telemetry": {
            "metrics": merge_snapshots(
                record["telemetry"]["metrics"]
                for record in ordered
                if record.get("telemetry")
            ),
        },
        "jobs": job_rows,
        "results": results,
        "totals": {
            "jobs": len(job_rows),
            "results": len(results),
            "failed": failed,
            "degraded": degraded,
            "verdicts_simulated": simulated,
            "verdicts_from_store": store_hits,
            "seconds": time.perf_counter() - started_campaign,
        },
    }


def _merge_shards(
    store: str, shard_paths: List[str]
) -> Dict[str, int]:
    """Fold every per-job shard into the main store, then delete them.

    One atomic transaction per shard; a shard a failed job never
    created is simply skipped.  The shards' WAL/SHM droppings go with
    them.
    """
    totals = {"shards": 0, "source_rows": 0, "inserted": 0, "merged": 0}
    main = FaultDictionaryStore(store)
    try:
        for shard in shard_paths:
            path = Path(shard)
            if not path.exists():
                continue
            stats = main.merge_from(path)
            totals["shards"] += 1
            for field in ("source_rows", "inserted", "merged"):
                totals[field] += stats[field]
            for dropping in (
                path,
                path.with_name(path.name + "-wal"),
                path.with_name(path.name + "-shm"),
            ):
                try:
                    dropping.unlink()
                except FileNotFoundError:
                    pass
    finally:
        main.close()
    return totals


def _merge_spills(
    store_url: str,
    server_store: Optional[str],
    spill_paths: List[str],
    retry: RetryPolicy,
) -> Dict[str, Any]:
    """Fold surviving degraded-mode spills back into the dictionary.

    A spill exists only where a worker outlived the daemon, so the
    preferred route -- the daemon's ``merge`` op, which needs the
    daemon back up -- may well be gone too.  The fallback merges
    directly into the server's store file (learned from the campaign's
    opening handshake; over a Unix socket that file is same-host by
    construction).  Merged spills are deleted with their WAL/SHM
    droppings; anything unmergeable is *kept* on disk and listed under
    ``"unmerged"`` so the verdicts are never silently dropped.
    """
    totals: Dict[str, Any] = {
        "spills": 0, "source_rows": 0, "inserted": 0, "merged": 0,
        "via": None, "unmerged": [],
    }
    existing = [path for path in spill_paths if Path(path).exists()]
    if not existing:
        return totals

    def merge_via_service(path: str) -> Dict[str, int]:
        client = ServiceStore(store_url, retry=retry)
        try:
            return client.merge_from(path)
        finally:
            client.close()

    def merge_via_file(path: str) -> Dict[str, int]:
        if server_store is None:
            raise StoreError(
                "no server store path known for the fallback merge"
            )
        main = FaultDictionaryStore(server_store)
        try:
            return main.merge_from(path)
        finally:
            main.close()

    service_alive = True  # until a merge op proves otherwise
    for path in existing:
        stats = None
        routes = [("file", merge_via_file)]
        if service_alive:
            routes.insert(0, ("service", merge_via_service))
        for via, folder in routes:
            try:
                stats = folder(path)
            except StoreError:
                if via == "service":
                    # Don't pay the retry budget again per spill: a
                    # daemon that just refused the merge is down for
                    # the rest of this (sub-second) merge pass too.
                    service_alive = False
                continue
            totals["via"] = via if totals["via"] in (None, via) else "mixed"
            break
        if stats is None:
            totals["unmerged"].append(path)
            continue
        totals["spills"] += 1
        for field in ("source_rows", "inserted", "merged"):
            totals[field] += stats[field]
        spill = Path(path)
        for dropping in (
            spill,
            spill.with_name(spill.name + "-wal"),
            spill.with_name(spill.name + "-shm"),
        ):
            try:
                dropping.unlink()
            except FileNotFoundError:
                pass
    return totals


# -- manifest tooling -----------------------------------------------------------


def write_manifest(
    manifest: Dict[str, Any], path: Union[str, Path]
) -> Path:
    """Write the manifest JSON (stable key order) and return its path."""
    path = Path(path)
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return path


#: Manifest fields that legitimately differ between two runs of the
#: same spec: wall-clock, timestamps, cache/store counters (a
#: parallel run races its jobs, so which job *simulated* a shared
#: verdict and which found it in the store is scheduling-dependent --
#: the verdicts themselves are not) and the whole resilience story
#: (retries taken, degradations, spill merges: infrastructure faults
#: change *where* verdicts land, never *what* they are, so a run
#: through a chaos proxy must normalize identically to a direct one).
#: The telemetry blocks are timing observations over those same
#: scheduling-dependent counters, so they normalize away with them.
_RUN_DEPENDENT_TOP = (
    "generated_unix", "store", "store_readonly", "parallel", "resilience",
    "telemetry",
)
_RUN_DEPENDENT_JOB = (
    "seconds", "cache", "served", "store", "degraded", "attempts", "spill",
    "telemetry",
)
_RUN_DEPENDENT_TOTALS = (
    "seconds", "verdicts_simulated", "verdicts_from_store", "degraded",
)


def normalized_manifest(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The manifest minus everything scheduling-dependent.

    Two runs of the same spec -- any ``--jobs`` width, shared or
    sharded store, warm or cold -- must normalize byte-identically
    (``json.dumps(..., sort_keys=True)``); CI's ``campaign-fanout`` job
    enforces exactly that.  What survives is the determinism contract:
    the job list in job order, every verdict count, every missed-case
    list, every coverage figure and every error.
    """
    normalized = copy.deepcopy(manifest)
    for field in _RUN_DEPENDENT_TOP:
        normalized.pop(field, None)
    for job in normalized.get("jobs", ()):
        for field in _RUN_DEPENDENT_JOB:
            job.pop(field, None)
    totals = normalized.get("totals", {})
    for field in _RUN_DEPENDENT_TOTALS:
        totals.pop(field, None)
    return normalized


def summarize(manifest: Dict[str, Any]) -> str:
    """The human-readable campaign summary the CLI prints."""
    lines = []
    totals = manifest["totals"]
    parallel = manifest.get("parallel", {})
    degraded_total = totals.get("degraded", 0)
    degraded_text = (
        f" {degraded_total} degraded," if degraded_total else ""
    )
    lines.append(
        f"campaign '{manifest['campaign']}':"
        f" {totals['jobs']} jobs ({parallel.get('mode', 'sequential')},"
        f" {parallel.get('jobs', 1)} workers),"
        f" {totals['failed']} failed,{degraded_text}"
        f" {totals['verdicts_simulated']} verdicts simulated,"
        f" {totals['verdicts_from_store']} from the store,"
        f" {totals['seconds']:.2f}s"
    )
    for job in manifest["jobs"]:
        if job["error"] is not None:
            lines.append(
                f"  job [{job['backend']} @ size {job['size']}]"
                f" {job['test']:12s} FAILED: {job['error']}"
            )
            continue
        store = job.get("store")
        store_text = (
            f"  store {store['hits']}h/{store['writes']}w"
            if store is not None
            else ""
        )
        degraded_text = (
            f"  DEGRADED after {job['attempts']} retries"
            if job.get("degraded")
            else ""
        )
        lines.append(
            f"  job [{job['backend']} @ size {job['size']}]"
            f" {job['test']:12s}"
            f" {job['fault_cases']} cases {job['seconds'] * 1e3:8.1f} ms"
            f"{store_text}{degraded_text}"
        )
    for row in manifest["results"]:
        lines.append(
            f"  {row['test']:12s} size {row['size']}"
            f" {row['backend']:12s}"
            f" {row['detected']:4d}/{row['fault_cases']:<4d}"
            f" {row['coverage'] * 100:5.1f}%"
        )
    return "\n".join(lines)
