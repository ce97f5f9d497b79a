"""The verdict service: a long-lived daemon wrapping one shared store.

PR 3 gave every process a direct SQLite connection to the shared
fault-dictionary file, and PR 4 fanned campaigns out over worker pools
hammering that one WAL.  Both scale as far as a filesystem scales: every
client needs the file (same host or same network mount), every writer
takes the write lock itself, and cross-host fan-out had to fall back to
ship-a-shard-and-merge.  This module is the next step of the ROADMAP's
store lineage: **one** process owns the writable
:class:`~repro.store.store.FaultDictionaryStore`, and everything else
talks to it over a Unix domain socket -- clients stop opening SQLite
files at all.

Protocol
--------
Length-prefixed JSON frames: a 4-byte big-endian byte count, then one
UTF-8 JSON object.  Requests carry an ``"op"`` field::

    {"op": "ping"}
    {"op": "get_many", "groups": [[signature, size, domain, [case, ...]], ...]}
    {"op": "put_many",
     "groups": [[signature, size, domain, [case, ...], [verdict, ...]], ...]}
    {"op": "stats"}
    {"op": "health"}
    {"op": "metrics"}
    {"op": "compact", "max_rows": N, "max_age": S, "vacuum": true}
    {"op": "shutdown", "drain": true}

Batches travel as *wire groups*: keys sharing ``(signature, size,
domain)`` name those three once and list their cases, so a sweep's
frame carries each test signature once per group, not once per key
(:func:`batch_frame` builds them).  A ``get_many`` answer is aligned
with the request: one ``found`` list per group, one encoded verdict or
``null`` per case.  Responses are JSON objects with ``"ok"``; errors
come back as ``{"ok": false, "error": "..."}`` instead of killing the
connection.
Verdicts cross the wire in the store's canonical row encoding
(:func:`~repro.store.store.encode_verdict`), so detection booleans and
diagnosis syndromes round-trip byte-identically.  ``ping`` doubles as
the handshake: a verdict service always answers with the
:data:`SERVICE_MAGIC` tag and its protocol generation, so a client (or
a second server racing for the socket) can tell a live service from a
stale socket file or a foreign listener -- foreign sockets are refused,
never unlinked.  Requests on one connection may be **pipelined**: a
client may send any number of frames back-to-back without waiting, and
the server answers every frame, in order, exactly once.  The normative
specification of all of this lives in ``docs/PROTOCOL.md``; the
`wire-contract` rule of ``repro lint`` (run by the `static-analysis`
CI job) keeps that document and this module in lockstep.

Topology
--------
* :class:`VerdictService` -- the server (``repro serve STORE --socket
  SOCK``): a **single-threaded selectors event loop** -- non-blocking
  accept/read/write, a per-connection frame buffer feeding a pipelined
  dispatch, the kernel's grouped cache as a hot tier in front of SQLite
  so read-mostly traffic never touches disk, a per-client ledger, and
  drain-then-exit rolling-restart support (``shutdown {"drain":
  true}``).  Every batch still lands on the store
  through the store's own lock, so the concurrency discipline is
  unchanged from the threaded daemon -- there is simply no longer a
  thread per client to schedule or leak.
* :class:`ServiceStore` -- the client: the same
  ``get_groups``/``put_groups`` (and per-key) lookup/write surface as
  :class:`~repro.store.store.FaultDictionaryStore`, so the kernel's
  :class:`~repro.kernel.cache.FaultDictionaryCache` cannot tell the
  difference.  Pass a ``repro+unix:///path/to.sock`` URL anywhere a
  store path is accepted (``--store``, ``GeneratorConfig.store_path``,
  campaign specs) and :func:`~repro.store.store.resolve_store`
  dispatches here.  Connections are lazy and self-healing: transient
  failures (daemon restart, connection reset, timeout, a desynced
  stream after a *successful* handshake) raise
  :class:`ServiceUnavailableError` and are retried with exponential
  backoff under an injectable
  :class:`~repro.store.resilience.RetryPolicy`, while permanent
  errors (protocol mismatch, foreign listener, a refused request)
  fail fast no matter the retry budget.  :meth:`ServiceStore.pipeline`
  exposes the wire protocol's pipelining to callers that want many
  requests in flight on one connection.

Resilience (PR 7)
-----------------
The daemon reaps idle clients (``--idle-timeout``: connections quiet
past the budget are closed and their ledger entries retired; retrying
clients reconnect transparently), checkpoints its WAL on a loop timer
(``--checkpoint-interval``) so a SIGKILL loses at most the last
interval's WAL growth, and answers a ``health`` op (uptime, connection
counts, reaped/checkpoint/error counters) next to ``ping`` -- the
``repro store ping`` liveness probe.  A ``merge`` op folds a
server-local store file (in practice a campaign worker's degraded
spill shard) into the served dictionary without a second writer ever
opening it.  The operator's view of all of this -- start/stop, lock
semantics, tuning, probing, rolling restarts -- is written down in
``docs/OPERATIONS.md``.

``repro campaign --jobs N --store repro+unix://...`` is the designated
cross-host fan-out substrate: N concurrent writers become N socket
clients of one serialized WAL owner, with no shard-and-merge step.

This module depends on :mod:`repro.kernel` (for :class:`SimKey`), which
imports the store package at startup -- import it as
``repro.store.service`` directly, never from ``repro.store``'s
namespace (the same rule as :mod:`repro.store.campaign`).
"""

from __future__ import annotations

import fcntl
import json
import os
import selectors
import socket
import stat
import struct
import threading
import time
import weakref
from itertools import repeat
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..kernel.cache import FaultDictionaryCache, SimKey
from ..telemetry import Telemetry
from .resilience import (
    RetryExhaustedError,
    RetryPolicy,
    TransientStoreError,
)
from .store import (
    SCHEMA_VERSION,
    SERVICE_URL_PREFIX,
    FaultDictionaryStore,
    StoreError,
    StoreStats,
    decode_verdict,
    encode_verdict,
    get_many_by_groups,
    pair_groups,
)

#: Generation of the wire protocol.  Bump on incompatible frame or op
#: changes; a client refuses to talk to a server of another generation.
#: Additive evolution (new ops, new optional request fields, new
#: response fields) stays within a generation -- see docs/PROTOCOL.md.
PROTOCOL_VERSION = 3

#: The handshake tag every ping answer carries.  A listener that does
#: not identify with it is a foreign server: refused, never replaced.
SERVICE_MAGIC = "repro-verdict-service"

#: Every op the daemon dispatches.  The ``wire-contract`` lint rule
#: (``repro lint --rule wire-contract``) asserts this registry, the
#: ``_dispatch`` literals and the op table in docs/PROTOCOL.md agree, so
#: the spec cannot silently drift from the implementation.
SERVICE_OPS = (
    "ping",
    "get_many",
    "put_many",
    "stats",
    "health",
    "metrics",
    "merge",
    "compact",
    "shutdown",
)

#: Hard ceiling on one frame's body.  Real batches are a few megabytes
#: at most; a larger announced length means the peer is not speaking
#: this protocol (e.g. an HTTP client hitting the socket).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Socket send/receive timeout for clients and the server's probe of a
#: possibly-stale socket.  Generous: a ``compact`` VACUUM of a huge
#: dictionary is the slowest legitimate request.
DEFAULT_TIMEOUT_SECONDS = 120.0

#: Per-connection idle budget on the *server* side.  Generous -- a
#: campaign worker legitimately goes quiet for minutes while its
#: backend simulates between store batches -- but finite: one idle (or
#: wedged) client may no longer pin server state forever.  Reaped
#: clients lose only a socket; a retrying :class:`ServiceStore`
#: reconnects transparently on its next request.
DEFAULT_IDLE_TIMEOUT_SECONDS = 900.0

#: Period of the daemon's background WAL checkpoint.  A PASSIVE
#: checkpoint every interval bounds how much committed-but-unfolded
#: WAL a SIGKILL can leave behind (the data is durable either way;
#: this bounds recovery work and WAL file growth).
DEFAULT_CHECKPOINT_INTERVAL_SECONDS = 60.0

#: Verdict cap of the daemon's in-memory hot tier (a kernel
#: :class:`~repro.kernel.cache.FaultDictionaryCache` over the store).
#: The default is sized so a read-mostly campaign's working set is
#: served without touching SQLite at all.  ``0`` disables the tier.
DEFAULT_HOT_LRU_SIZE = 65536

#: Concurrent-connection ceiling.  The event loop itself scales far
#: past this; the cap bounds per-connection buffer memory and gives
#: operators back-pressure they can see (``rejected_full`` counter).
#: Over-cap connects are closed immediately -- a retrying client sees
#: a transient hangup and backs off.
DEFAULT_MAX_CLIENTS = 512

#: How many *disconnected* clients keep an individual entry in the
#: per-client ledger.  A long-lived daemon serves an unbounded client
#: stream (every campaign worker is one connection); beyond this cap
#: the oldest retirees are folded into one ``retired`` aggregate so
#: the ledger -- and the ``stats`` payload -- stays bounded while the
#: write-accounting invariant (per-client + retired == store writes)
#: still holds.
MAX_CLIENT_LEDGER = 4096

_HEADER = struct.Struct(">I")

#: The canonical wire rows of detection verdicts, decoded by one dict
#: lookup; any other row goes through :func:`_decode_wire_verdict`.
_WIRE_BOOLS = {encode_verdict(True): True, encode_verdict(False): False}

#: Selector registration tag for the loop's self-wake pipe.
_WAKE = "wake"


class ServiceError(StoreError):
    """The verdict service (or its socket) cannot serve the request."""


class ServiceUnavailableError(ServiceError, TransientStoreError):
    """Transient service failure: nothing answered, the peer hung up,
    or the connection desynced after a successful handshake.  Worth
    retrying (the :class:`~repro.store.resilience.TransientStoreError`
    marker routes it into :class:`RetryPolicy` backoff and
    :class:`~repro.store.resilience.DegradingStore` demotion); plain
    :class:`ServiceError` stays permanent and fails fast."""


def is_service_url(target: Any) -> bool:
    """True when ``target`` is a ``repro+unix://`` service URL."""
    return isinstance(target, str) and target.startswith(SERVICE_URL_PREFIX)


def service_socket_path(target: Union[str, Path]) -> Path:
    """The socket path behind a service URL (bare paths pass through)."""
    if isinstance(target, Path):
        return target
    if is_service_url(target):
        target = target[len(SERVICE_URL_PREFIX):]
        if not target:
            raise ServiceError(
                f"service URL names no socket path"
                f" (expected {SERVICE_URL_PREFIX}/path/to.sock)"
            )
    return Path(target)


def service_url(socket_path: Union[str, Path]) -> str:
    """The ``repro+unix://`` URL for a socket path."""
    return SERVICE_URL_PREFIX + str(socket_path)


# -- framing ---------------------------------------------------------------------


def _encode_frame(payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def _send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    sock.sendall(_encode_frame(payload))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on a clean EOF."""
    chunks: List[bytes] = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on EOF, :class:`ServiceError` on garbage."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(
            f"peer announced a {length}-byte frame (limit"
            f" {MAX_FRAME_BYTES}); it is not speaking the verdict-service"
            " protocol"
        )
    body = _recv_exact(sock, length)
    if body is None:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(
            f"undecodable verdict-service frame: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise ServiceError("verdict-service frames must be JSON objects")
    return payload


# -- wire groups -----------------------------------------------------------------


def batch_frame(op: str, groups: Iterable[Sequence[Any]]) -> Dict[str, Any]:
    """The ``get_many``/``put_many`` frame of a batch of groups.

    ``get_many`` takes ``(signature, size, domain, cases)`` groups and
    ``put_many`` ``(signature, size, domain, cases, verdicts)`` groups,
    as the stores' ``get_groups``/``put_groups`` do; verdicts are sent
    canonically encoded.  Groups and cases keep their order, so an
    aligned ``found`` answer zips straight back onto them.
    """
    if op == "put_many":
        wire = [
            [signature, size, domain, list(cases),
             [encode_verdict(value) for value in verdicts]]
            for signature, size, domain, cases, verdicts in groups
        ]
    else:
        wire = [
            [signature, size, domain, list(cases)]
            for signature, size, domain, cases in groups
        ]
    return {"op": op, "groups": wire}


def _groups_from_wire(request: Dict[str, Any], width: int) -> List[list]:
    """A request's wire groups, checked: ``width`` 4 for ``get_many``
    (signature, size, domain, cases) and 5 for ``put_many`` (plus one
    verdict per case).  Anything else is refused in-band."""
    groups = request.get("groups")
    if not isinstance(groups, list):
        raise ServiceError(
            f"malformed {request.get('op')} frame: it needs a 'groups'"
            f" list (protocol generation {PROTOCOL_VERSION})"
        )
    for group in groups:
        if not isinstance(group, list) or len(group) != width:
            raise ServiceError(f"malformed wire group {group!r}")
        signature, size, domain, cases = group[:4]
        if not (isinstance(signature, str) and type(size) is int
                and isinstance(domain, str) and isinstance(cases, list)
                and all(map(isinstance, cases, repeat(str)))):
            raise ServiceError(f"malformed wire group {group!r}")
        if width == 5 and not (isinstance(group[4], list)
                               and len(group[4]) == len(cases)):
            raise ServiceError(
                f"malformed wire group {group!r}: one verdict per case"
            )
    return groups


def _decode_wire_verdicts(texts: List[Any]) -> List[Any]:
    """A wire group's verdicts, decoded; a malformed one is refused."""
    try:
        return [_WIRE_BOOLS[text] for text in texts]
    except (KeyError, TypeError):  # a syndrome, or not a verdict row
        return [_decode_wire_verdict(text) for text in texts]


def _decode_wire_verdict(text: Any) -> Any:
    if not isinstance(text, str):
        raise ServiceError(f"malformed wire verdict {text!r}")
    try:
        return decode_verdict(text)
    except (StoreError, ValueError, TypeError) as error:
        raise ServiceError(
            f"malformed wire verdict {text!r}: {error}"
        ) from error


# -- the client ------------------------------------------------------------------


class ServiceStore:
    """A verdict store served over a Unix socket instead of a file.

    Drop-in for :class:`FaultDictionaryStore` wherever the kernel or
    the campaign runner uses one: same lookup/write surface, same
    :class:`StoreStats` counters (this client's view; the server keeps
    its own per-client ledger).  ``readonly=True`` is enforced
    client-side exactly like the file store's readonly mode: puts
    become counted no-ops and ``compact`` is refused.

    >>> client = ServiceStore("repro+unix:///tmp/verdict.sock")  # doctest: +SKIP
    >>> client.get_many(keys)                                    # doctest: +SKIP
    """

    def __init__(
        self,
        target: Union[str, Path],
        readonly: bool = False,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.socket_path = service_socket_path(target)
        self.url = service_url(self.socket_path)
        self.readonly = readonly
        self.timeout = timeout
        #: Transient-failure policy; default rides out a short daemon
        #: restart.  ``RetryPolicy.no_retry()`` restores fail-fast.
        self.retry = retry if retry is not None else RetryPolicy()
        #: How many transient failures this client has retried (each
        #: one cost a backoff sleep and a reconnect).
        self.retries = 0
        self.stats = StoreStats()
        #: The server's last handshake answer (pid, store path, schema).
        self.server: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None

    # -- connection -------------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(str(self.socket_path))
        except OSError as error:
            sock.close()
            raise ServiceUnavailableError(
                f"no verdict service at {self.socket_path}: {error};"
                " start one with `repro serve STORE --socket SOCK`"
            ) from error
        # Connected.  Transient vs permanent is decided by *how* the
        # handshake fails: a peer that hangs up (EOF, reset, timeout)
        # may be a daemon dying or restarting under us -- transient,
        # retried.  A peer that *answers wrongly* (garbage frames, a
        # foreign magic, another protocol generation) is definitely
        # not our service -- permanent, fail fast, never unlinked.
        try:
            _send_frame(sock, {"op": "ping"})
            hello = _recv_frame(sock)
        except ServiceError as error:
            sock.close()
            raise ServiceError(
                f"{self.socket_path} is not a verdict service: {error}"
            ) from error
        except OSError as error:
            sock.close()
            raise ServiceUnavailableError(
                f"the verdict service at {self.socket_path} did not"
                f" complete the handshake ({error}); it may be"
                " restarting"
            ) from error
        if hello is None:
            sock.close()
            raise ServiceUnavailableError(
                f"the listener on {self.socket_path} hung up during"
                " the handshake; it may be a verdict service going"
                " down (or a foreign socket -- retries will tell)"
            )
        if hello.get("service") != SERVICE_MAGIC:
            sock.close()
            raise ServiceError(
                f"the listener on {self.socket_path} is not a verdict"
                " service (it did not answer the handshake); refusing"
                " to talk to it"
            )
        if hello.get("protocol") != PROTOCOL_VERSION:
            sock.close()
            raise ServiceError(
                f"verdict service on {self.socket_path} speaks protocol"
                f" {hello.get('protocol')}, this client speaks"
                f" {PROTOCOL_VERSION}"
            )
        self.server = hello
        return sock

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _attempt_pipeline(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """One pipelined round trip on (at most) one connection.

        All request frames are written back-to-back, then all response
        frames are read in order -- the server guarantees one answer
        per frame, in request order.  Raises
        :class:`ServiceUnavailableError` for everything a fresh
        connection could plausibly cure -- the socket died, the server
        hung up mid-pipeline, or the stream desynced *after* a
        successful handshake (the handshake proved the peer speaks the
        protocol, so mid-stream garbage is transport corruption; the
        reconnect's fresh handshake re-verifies the peer and fails
        fast if it really turned foreign).  Well-framed ``ok: false``
        answers are returned in place, not raised: in a pipeline only
        the caller knows whether one refused request poisons the rest.
        """
        if self._sock is None:
            self._sock = self._connect()
        try:
            blob = bytearray()
            for payload in payloads:
                blob += _encode_frame(payload)
            self._sock.sendall(blob)
            responses: List[Dict[str, Any]] = []
            for _ in payloads:
                response = _recv_frame(self._sock)
                if response is None:
                    # Server went away mid-pipeline (restart, shutdown,
                    # reap).  The whole batch is retried: every op is
                    # idempotent, so at-least-once delivery is safe.
                    self._drop_connection()
                    raise ServiceUnavailableError(
                        f"verdict service at {self.socket_path} closed"
                        f" the connection {len(responses)} frame(s) into"
                        f" a {len(payloads)}-frame pipeline"
                    )
                responses.append(response)
            return responses
        except ServiceError as error:
            if isinstance(error, ServiceUnavailableError):
                raise
            # Broken framing: whatever else sits in the stream is
            # unusable (e.g. the body of an oversize frame).  Drop the
            # connection so the retry starts clean instead of reading
            # mid-body bytes as a header forever.
            self._drop_connection()
            raise ServiceUnavailableError(
                f"verdict-service connection to {self.socket_path}"
                f" desynced mid-stream: {error}"
            ) from error
        except OSError as error:
            self._drop_connection()
            raise ServiceUnavailableError(
                f"lost the verdict service at {self.socket_path}:"
                f" {error}"
            ) from error

    def _attempt(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One round trip; a well-framed ``ok: false`` answer is the
        server refusing the request: permanent, raised as
        :class:`ServiceError`."""
        response = self._attempt_pipeline([payload])[0]
        if not response.get("ok"):
            raise ServiceError(
                response.get("error")
                or "verdict service refused the request"
            )
        return response

    def _call_with_retry(self, attempt: Any) -> Any:
        def on_retry(
            attempt_no: int, delay: float, error: BaseException
        ) -> None:
            self.retries += 1

        with self._lock:
            try:
                return self.retry.call(attempt, on_retry=on_retry)
            except RetryExhaustedError as error:
                raise ServiceUnavailableError(
                    f"verdict service at {self.socket_path} still"
                    f" unavailable after {error.attempts} attempt(s)"
                    f" over {error.elapsed:.2f}s: {error.last_error}"
                ) from error

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request under the retry policy.

        Transient failures (:class:`ServiceUnavailableError`) are
        retried with the policy's backoff -- each retry reconnects and
        re-handshakes -- until the attempt or deadline budget runs
        out; permanent :class:`ServiceError`\\ s propagate on the first
        attempt.  Retrying a write is safe: every ``put_many`` is an
        idempotent batch of canonical upserts, so at-least-once
        delivery cannot corrupt the dictionary.
        """
        return self._call_with_retry(lambda: self._attempt(payload))

    def pipeline(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Send many request payloads down one connection back-to-back
        and return their responses in request order.

        This is the wire protocol's pipelining surface: no waiting
        between frames, one response per frame, order preserved.  The
        whole pipeline is one retry unit -- a transient failure
        anywhere replays *all* frames on a fresh connection (safe:
        every op is idempotent).  Responses are returned raw,
        including any ``{"ok": false}`` refusals; callers inspect per
        frame.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        return self._call_with_retry(
            lambda: self._attempt_pipeline(payloads)
        )

    # -- lookups ----------------------------------------------------------------

    def _lookup(
        self, groups: List[Sequence[Any]]
    ) -> Tuple[List[Dict[str, Any]], int]:
        """One ``get_many`` round trip, no client-side stat effects:
        one ``{case: verdict}`` dict per group with the cases found,
        and how many cases asked (duplicates included) were hits."""
        if not groups:
            return [], 0
        answer = self._request(batch_frame("get_many", groups)).get("found")
        if not isinstance(answer, list) or len(answer) != len(groups):
            raise ServiceError(
                f"malformed get_many answer: {len(groups)} group(s) asked,"
                f" {len(answer) if isinstance(answer, list) else answer!r}"
                " answered"
            )
        answers: List[Dict[str, Any]] = []
        hits = 0
        for group, encoded in zip(groups, answer):
            cases = group[3]
            if not isinstance(encoded, list) or len(encoded) != len(cases):
                raise ServiceError(
                    f"malformed get_many answer: {encoded!r} is not aligned"
                    f" with a {len(cases)}-case group"
                )
            found: Dict[str, Any] = {}
            for case, text in zip(cases, encoded):
                if text is not None:
                    found[case] = _decode_wire_verdict(text)
                    hits += 1
            answers.append(found)
        return answers, hits

    def get(self, key: "SimKey", default: Any = None) -> Any:
        (found,) = self.get_groups(
            [(key.signature, key.size, key.domain, [key.case])]
        )
        return found.get(key.case, default)

    def get_groups(
        self, groups: Iterable[Tuple[str, int, str, Sequence[str]]]
    ) -> List[Dict[str, Any]]:
        """:meth:`FaultDictionaryStore.get_groups` over the socket:
        one ``{case: verdict}`` dict per group with the cases found;
        hits and misses count per case asked."""
        groups = list(groups)
        answers, hits = self._lookup(groups)
        self.stats.hits += hits
        self.stats.misses += sum(len(group[3]) for group in groups) - hits
        return answers

    def get_many(self, keys: Iterable["SimKey"]) -> Dict["SimKey", Any]:
        return get_many_by_groups(self, keys)

    def __contains__(self, key: "SimKey") -> bool:
        (found,), _ = self._lookup(
            [(key.signature, key.size, key.domain, [key.case])]
        )
        return key.case in found

    def __len__(self) -> int:
        return self.row_stats()["rows"]

    # -- writes -----------------------------------------------------------------

    def put(self, key: "SimKey", value: Any) -> None:
        self.put_many([(key, value)])

    def put_many(self, pairs: Sequence[Tuple["SimKey", Any]]) -> None:
        self.put_groups(pair_groups(pairs))

    def put_groups(
        self,
        groups: Iterable[Tuple[str, int, str, Sequence[str], Sequence[Any]]],
    ) -> None:
        """:meth:`FaultDictionaryStore.put_groups` over the socket."""
        groups = list(groups)
        written = sum(len(group[3]) for group in groups)
        if not written:
            return
        if self.readonly:
            self.stats.skipped_writes += written
            return
        self._request(batch_frame("put_many", groups))
        self.stats.writes += written

    # -- service surface --------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Handshake round trip; returns the server's identity frame."""
        response = self._request({"op": "ping"})
        self.server = response
        return response

    def server_stats(self) -> Dict[str, Any]:
        """The server's full ledger: rows, store counters, per-client
        hit/miss/write counters (``repro store stats --socket``)."""
        response = self._request({"op": "stats"})
        return {k: v for k, v in response.items() if k != "ok"}

    def health(self) -> Dict[str, Any]:
        """The daemon's liveness report: uptime, connection counts,
        the resilience counters (idle reaps, checkpoints, errors,
        rejected connects), hot-LRU occupancy, row
        population and service-time summary."""
        response = self._request({"op": "health"})
        return {k: v for k, v in response.items() if k != "ok"}

    def metrics(self) -> Dict[str, Any]:
        """The daemon's full metrics-registry snapshot (op ``metrics``):
        per-op request counters and service-time histograms, store and
        hot-LRU counters, WAL checkpoint timings, connection gauge."""
        return self._request({"op": "metrics"})["metrics"]

    def merge_from(
        self, source: Union[str, Path]
    ) -> Dict[str, int]:
        """Ask the daemon to fold a *server-local* store file into the
        dictionary it owns (``{"source_rows", "inserted", "merged"}``).

        This is how degraded campaign spill shards rejoin the main
        dictionary without a second process ever writing the served
        file.  ``source`` is resolved by the daemon; Unix-socket
        services are same-host by construction, so worker spill paths
        are visible to it.
        """
        if self.readonly:
            raise StoreError(
                "cannot merge through a readonly service client"
            )
        response = self._request(
            {"op": "merge", "source": str(source)}
        )
        return response["merged"]

    def resilience(self) -> Dict[str, Any]:
        """Retry/degradation counters in the shape the campaign
        manifest records per job (a plain client never degrades)."""
        return {
            "attempts": self.retries,
            "degraded": False,
            "spill": None,
        }

    def row_stats(self) -> Dict[str, Any]:
        """Row population of the served store (file-store parity)."""
        return self.server_stats()["row_stats"]

    def compact(
        self,
        max_rows: Optional[int] = None,
        max_age: Optional[float] = None,
        now: Optional[float] = None,
        vacuum: bool = True,
    ) -> Dict[str, Any]:
        """Ask the daemon to compact the store it owns."""
        if self.readonly:
            raise StoreError(
                "cannot compact through a readonly service client"
            )
        response = self._request({
            "op": "compact",
            "max_rows": max_rows,
            "max_age": max_age,
            "now": now,
            "vacuum": vacuum,
        })
        return response["compacted"]

    def shutdown_server(self, drain: bool = False) -> Dict[str, Any]:
        """Ask the daemon to stop gracefully (it checkpoints its WAL).

        ``drain=True`` requests the rolling-restart shutdown: the
        daemon immediately refuses new connections, finishes the
        batches already received from every connected client, flushes
        their responses, checkpoints the WAL, and only then exits --
        see docs/OPERATIONS.md.
        """
        payload: Dict[str, Any] = {"op": "shutdown"}
        if drain:
            payload["drain"] = True
        return self._request(payload)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Drop this client's connection (the server keeps running)."""
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "ServiceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def describe(self) -> str:
        mode = " readonly" if self.readonly else ""
        return f"service [{self.socket_path.name}{mode}]: {self.stats}"


# -- the server ------------------------------------------------------------------


def _tier_counts(tier: Optional[FaultDictionaryCache]) -> Dict[str, int]:
    """The hot tier's ``health``/``metrics`` counts, in verdicts."""
    if tier is None:
        return dict.fromkeys(("entries", "hits", "misses", "evictions"), 0)
    stats = tier.stats
    return {
        "entries": len(tier),
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
    }


class _Connection:
    """One client connection's event-loop state: socket, frame buffers,
    ledger entry, idle clock."""

    __slots__ = (
        "client_id", "sock", "inbuf", "outbuf", "last_activity",
        "counters", "read_closed", "events",
    )

    def __init__(
        self,
        client_id: int,
        sock: socket.socket,
        now: float,
        counters: Dict[str, Any],
    ) -> None:
        self.client_id = client_id
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.last_activity = now
        self.counters = counters
        #: True once this side will read no more frames (drain mode);
        #: the connection closes as soon as ``outbuf`` flushes.
        self.read_closed = False
        self.events = selectors.EVENT_READ


class VerdictService:
    """The daemon behind ``repro serve``: one writable store, many
    socket clients, one thread.

    A single-threaded ``selectors`` event loop owns every socket:
    non-blocking accept/read/write, per-connection frame buffers, and
    pipelined dispatch -- every complete frame in a connection's read
    buffer is answered in order before the loop moves on, so clients
    may stream batches back-to-back without waiting.  Store batches
    still pass through the store's own lock; the loop simply replaced
    the thread-per-client topology (and its scheduling/leak failure
    modes) without changing the concurrency discipline.

    In front of SQLite sits the kernel's own grouped cache, a
    :class:`~repro.kernel.cache.FaultDictionaryCache` over the store
    (the *hot tier*: ``--hot-lru-size``, :data:`DEFAULT_HOT_LRU_SIZE`
    verdicts, ``0`` disables it).  A ``get_many`` is one
    ``get_groups`` through it and a ``put_many`` one ``put_groups``,
    which writes the store in one transaction before filling the
    tier.  Recency is per ``(signature, size, domain)`` group and the
    bound counts verdicts.  Read-mostly traffic is served without
    touching disk, counted as ``repro.service.hot_lru.*`` in the
    metrics registry.  Connections are accounted per client.
    ``--max-clients`` bounds concurrent connections (over-cap connects
    are hung up on: transient to a retrying client).

    Lifecycle: :meth:`start` claims the socket (a *stale* socket file
    left by a dead server is reclaimed; a live verdict service or a
    foreign listener is refused) and opens the store;
    :meth:`request_stop` flags shutdown from a signal handler or the
    ``shutdown`` op; :meth:`stop` tears everything down -- loop thread
    joined, store closed (checkpointing the WAL), socket unlinked.
    ``shutdown {"drain": true}`` instead drains first: the listener
    closes, batches already received are finished and flushed, the WAL
    is checkpointed, and only then does the loop exit -- the
    rolling-restart procedure in docs/OPERATIONS.md.
    ``with VerdictService(...) as service:`` wraps the pair.
    """

    def __init__(
        self,
        store_path: Union[str, Path],
        socket_path: Union[str, Path, None] = None,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT_SECONDS,
        checkpoint_interval: Optional[float] = (
            DEFAULT_CHECKPOINT_INTERVAL_SECONDS
        ),
        hot_lru_size: int = DEFAULT_HOT_LRU_SIZE,
        max_clients: Optional[int] = DEFAULT_MAX_CLIENTS,
    ) -> None:
        self.store_path = Path(store_path)
        self.socket_path = (
            Path(socket_path)
            if socket_path is not None
            else self.store_path.with_name(self.store_path.name + ".sock")
        )
        self.timeout = timeout
        #: Per-connection idle budget; ``None``/``0`` restores the
        #: (leaky) keep-forever behaviour.
        self.idle_timeout = idle_timeout or None
        #: Background WAL-checkpoint period; ``None``/``0`` disables
        #: the timer (graceful shutdown still checkpoints).
        self.checkpoint_interval = checkpoint_interval or None
        #: Concurrent-connection cap; ``None``/``0`` removes it.
        self.max_clients = max_clients or None
        self.store: Optional[FaultDictionaryStore] = None
        self.started = False
        #: Per-instance override of :data:`MAX_CLIENT_LEDGER`.
        self.max_client_ledger = MAX_CLIENT_LEDGER
        #: Verdict cap of the hot tier; ``0`` disables it.
        self.hot_lru_size = max(0, int(hot_lru_size or 0))
        #: The hot tier over the open store, made by start() and
        #: dropped by stop(); like the store's, its counters count
        #: since the last start().
        self._tier: Optional[FaultDictionaryCache] = None
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._wake_r: Optional[int] = None
        self._wake_w: Optional[int] = None
        self._connections: Dict[int, _Connection] = {}
        self._clients: Dict[int, Dict[str, Any]] = {}
        self._retired = {
            "clients": 0, "requests": 0, "hits": 0, "misses": 0,
            "writes": 0,
        }
        self._client_seq = 0
        self._started_monotonic = 0.0
        self._next_checkpoint = 0.0
        #: ``None`` -> running; ``"hard"`` -> stop as soon as the
        #: shutdown requester's ack flushes; ``"drain"`` -> finish
        #: received batches, flush, checkpoint, then stop.
        self._stopping: Optional[str] = None
        self._stop_requester: Optional[int] = None
        self._draining = False
        self._drain_swept = False
        #: Resilience counters (under the state lock): idle clients
        #: reaped, background checkpoints run, error answers sent,
        #: over-cap connects refused.
        self._counters = {
            "reaped_idle": 0, "checkpoints": 0, "errors": 0,
            "rejected_full": 0,
        }
        #: Always-live telemetry: a daemon is a long-running service,
        #: so per-request counters and service-time histograms cost
        #: microseconds against socket round trips and buy the
        #: ``metrics`` op its registry snapshot.  Survives
        #: stop()/start() cycles (counters are cumulative over the
        #: object's lifetime, like the resilience counters above).
        self.telemetry = Telemetry()
        self._state_lock = threading.Lock()
        self._stop = threading.Event()
        self._teardown_lock = threading.Lock()
        self._torn_down = False
        self._lock_fd: Optional[int] = None
        self._owns_socket = False
        self._register_collectors()

    def _register_collectors(self) -> None:
        """Expose the daemon's existing counters through the registry.

        The collectors live in ``self.telemetry``, so none may hold
        ``self``: that cycle would keep a stopped daemon alive until a
        cycle collection.  They capture the counter dicts, which live as
        long as the daemon, and reach the hot tier and the store, which
        start()/stop() replace, through a weak reference.  Sampling
        happens at snapshot time without the state lock: the values are
        plain ints, and a metrics reader tolerates being one increment
        behind.
        """
        # repro-lint: disable-scope=lock-discipline -- collectors sample
        # at snapshot time without the state lock by design (see above);
        # every sampled value is a plain int or len() and may legally be
        # one increment stale
        registry = self.telemetry.registry
        counters = self._counters
        connections = self._connections
        daemon = weakref.ref(self)
        for field in (
            "reaped_idle", "checkpoints", "errors", "rejected_full",
        ):
            registry.collector(
                f"repro.service.{field}",
                lambda field=field: [({}, counters[field])],
            )
        registry.collector(
            "repro.service.connections",
            lambda: [({"state": "active"}, len(connections))],
            kind="gauge",
        )

        def tier_series(field: str) -> List[Tuple[Dict[str, str], int]]:
            tier = getattr(daemon(), "_tier", None)
            return [] if tier is None else [({}, _tier_counts(tier)[field])]

        for field in ("hits", "misses", "evictions"):
            registry.collector(
                f"repro.service.hot_lru.{field}",
                lambda field=field: tier_series(field),
            )
        registry.collector(
            "repro.service.hot_lru.entries",
            lambda: tier_series("entries"),
            kind="gauge",
        )

        def store_series(field: str) -> List[Tuple[Dict[str, str], int]]:
            store = getattr(daemon(), "store", None)
            if store is None:
                return []
            return [({"tier": "store"}, getattr(store.stats, field))]

        for field in ("hits", "misses", "writes", "skipped_writes"):
            registry.collector(
                f"repro.store.{field}",
                lambda field=field: store_series(field),
            )

    @property
    def url(self) -> str:
        """The ``repro+unix://`` URL clients should use."""
        return service_url(self.socket_path)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "VerdictService":
        """Claim the socket, open the store, begin accepting clients."""
        # repro-lint: disable-scope=lock-discipline -- start() is an
        # admin-thread operation: the verdict-loop thread does not exist
        # until the Thread.start() on the last line, and Thread.start()
        # is the happens-before edge publishing every write made here.
        if self.started:
            raise ServiceError("verdict service already started")
        self._acquire_lock()
        try:
            self._claim_socket()
            # The store open enforces the whole store contract up front
            # (schema refusal, corrupt-file quarantine) so a bad
            # dictionary fails the daemon at startup, not the first
            # client.
            self.store = FaultDictionaryStore(self.store_path)
            # WAL checkpoint timings land in the daemon's registry.
            self.store.telemetry = self.telemetry
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(str(self.socket_path))
                listener.listen(128)
            except OSError as error:
                listener.close()
                self.store.close()
                self.store = None
                raise ServiceError(
                    f"cannot bind verdict service to {self.socket_path}:"
                    f" {error}"
                ) from error
        except BaseException:
            self._release_lock()
            raise
        self._owns_socket = True
        listener.setblocking(False)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, None)
        # Self-wake pipe: request_stop() (signal handlers included)
        # writes one byte to pull the loop out of select() immediately.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        # A restarted daemon may serve a different store file; the hot
        # tier starts empty over it.
        self._tier = FaultDictionaryCache(self.hot_lru_size, store=self.store)
        self._torn_down = False
        self._stop.clear()
        self._stopping = None
        self._stop_requester = None
        self._draining = False
        self._drain_swept = False
        self.started = True
        self._started_monotonic = time.monotonic()
        self._next_checkpoint = (
            self._started_monotonic + self.checkpoint_interval
            if self.checkpoint_interval else 0.0
        )
        self._loop_thread = threading.Thread(
            target=self._serve_loop, name="verdict-loop", daemon=True
        )
        self._loop_thread.start()
        return self

    def _acquire_lock(self) -> None:
        """Take the daemon lock for this socket path, for our lifetime.

        An flock on a ``<socket>.lock`` sidecar serializes daemons
        competing for one socket: probe-then-unlink-then-bind is a
        TOCTOU between two starters (both see "stale", both reclaim,
        one ends up serving an unlinked inode), and a draining daemon
        must not unlink a replacement's freshly bound socket.  The
        lock is held until :meth:`stop` and the file is deliberately
        never unlinked -- removing flocked lock files reintroduces the
        race the lock exists to close.
        """
        lock_path = self.socket_path.with_name(
            self.socket_path.name + ".lock"
        )
        fd = os.open(str(lock_path), os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as error:
            os.close(fd)
            raise ServiceError(
                f"a verdict service already owns {self.socket_path}"
                f" (lock {lock_path} is held): {error}"
            ) from error
        self._lock_fd = fd

    def _release_lock(self) -> None:
        fd, self._lock_fd = self._lock_fd, None
        if fd is not None:
            os.close(fd)  # closing drops the flock

    def _claim_socket(self) -> None:
        """Reclaim a stale socket; refuse live or foreign occupants."""
        path = self.socket_path
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            return
        if not stat.S_ISSOCK(mode):
            raise ServiceError(
                f"socket path {path} exists and is not a socket;"
                " refusing to replace it"
            )
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(min(self.timeout, 5.0))
        try:
            probe.connect(str(path))
        except OSError:
            # Nobody listening: the socket file outlived its server.
            probe.close()
            path.unlink()
            return
        try:
            _send_frame(probe, {"op": "ping"})
            hello = _recv_frame(probe)
        except (OSError, ServiceError):
            hello = None
        finally:
            probe.close()
        if hello is not None and hello.get("service") == SERVICE_MAGIC:
            raise ServiceError(
                f"a verdict service (pid {hello.get('pid')}, store"
                f" {hello.get('store')}) is already serving on {path}"
            )
        raise ServiceError(
            f"{path} is busy with a foreign (non-verdict-service)"
            " listener; refusing to replace it"
        )

    def request_stop(self) -> None:
        """Flag shutdown without tearing down (signal-handler safe)."""
        self._stop.set()
        # Single racy read into a local: writing to a torn-down wake fd
        # raises OSError, which is caught right below.
        # repro-lint: disable=lock-discipline -- racy read is tolerated
        wake = self._wake_w
        if wake is not None:
            try:
                os.write(wake, b"\0")
            except OSError:  # pragma: no cover - loop already gone
                pass

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown is requested (signal or shutdown op)."""
        return self._stop.wait(timeout)

    def stop(self) -> None:
        """Tear down: join the loop, checkpoint the store, unlink.

        Idempotent; a concurrent second caller blocks until the first
        teardown finishes, so "stopped" always means "WAL on disk".
        The loop thread closes every connection and the listener on its
        way out; this owner-side half closes the store (checkpointing
        the WAL), unlinks the socket and releases the daemon lock.
        """
        with self._teardown_lock:
            if self._torn_down:
                return
            self._torn_down = True
            self.request_stop()
            current = threading.current_thread()
            thread, self._loop_thread = self._loop_thread, None
            if thread is not None and thread is not current:
                thread.join(timeout=10)
            if self.store is not None:
                self.store.close()  # checkpoints the WAL
                self.store = None
            # Free the hot tier now, not when this daemon is.
            self._tier = None
            if self._owns_socket:
                # Only unlink a socket this daemon bound (never the
                # one a refused start() probed), and only while still
                # holding the lock -- no replacement can have bound it.
                self._owns_socket = False
                try:
                    self.socket_path.unlink()
                except OSError:
                    pass
            self._release_lock()
            wake_w, self._wake_w = self._wake_w, None
            if wake_w is not None:
                try:
                    os.close(wake_w)
                except OSError:  # pragma: no cover - already closed
                    pass
            self.started = False

    def __enter__(self) -> "VerdictService":
        # Admin-thread flag read: start/stop are owner operations and
        # are never called concurrently.
        # repro-lint: disable=lock-discipline -- owner-thread flag read
        if not self.started:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the event loop ---------------------------------------------------------

    def _serve_loop(self) -> None:
        """The daemon: one selectors loop owning every socket."""
        try:
            while not self._stop.is_set():
                try:
                    events = self._selector.select(self._loop_timeout())
                except OSError:  # pragma: no cover - fd torn down under us
                    break
                now = time.monotonic()
                for key, mask in events:
                    data = key.data
                    try:
                        if data is None:
                            self._on_accept(now)
                        elif data is _WAKE:
                            try:
                                os.read(self._wake_r, 4096)
                            except OSError:  # pragma: no cover
                                pass
                        else:
                            conn = data
                            if mask & selectors.EVENT_WRITE:
                                self._flush(conn, now)
                            if (mask & selectors.EVENT_READ
                                    and conn.client_id in self._connections
                                    and not conn.read_closed):
                                self._on_readable(conn, now)
                    except Exception:  # noqa: BLE001 - loop must survive
                        # Loop-plumbing failure on one fd (dispatch
                        # errors are already answered in-band): drop
                        # the connection, count it, keep serving.
                        with self._state_lock:
                            self._counters["errors"] += 1
                        if isinstance(data, _Connection):
                            self._close_connection(data)
                now = time.monotonic()
                self._maybe_checkpoint(now)
                self._reap_idle(now)
                self._check_stop_conditions(now)
        finally:
            self._teardown_loop()

    def _loop_timeout(self) -> float:
        if self._stopping is not None:
            return 0.02
        timeout = 0.5
        if self.checkpoint_interval:
            timeout = min(
                timeout,
                max(0.01, self._next_checkpoint - time.monotonic()),
            )
        if self.idle_timeout:
            timeout = min(timeout, max(0.02, self.idle_timeout / 4.0))
        return timeout

    def _teardown_loop(self) -> None:
        """Loop-thread half of shutdown: close every fd the loop owns."""
        self._stop.set()
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        selector, self._selector = self._selector, None
        if selector is not None:
            try:
                selector.close()
            except OSError:  # pragma: no cover - already closed
                pass
        wake_r, self._wake_r = self._wake_r, None
        if wake_r is not None:
            try:
                os.close(wake_r)
            except OSError:  # pragma: no cover - already closed
                pass

    # -- accept / read / write --------------------------------------------------

    def _on_accept(self, now: float) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if self._stop.is_set() or self._draining:
                sock.close()
                continue
            if (self.max_clients
                    and len(self._connections) >= self.max_clients):
                # Hang up before the handshake: the retrying client
                # sees a transient EOF and backs off; a briefly-full
                # daemon clears on its own.
                with self._state_lock:
                    self._counters["rejected_full"] += 1
                self.telemetry.counter(
                    "repro.service.rejected", reason="max_clients"
                ).inc()
                sock.close()
                continue
            sock.setblocking(False)
            with self._state_lock:
                self._client_seq += 1
                client_id = self._client_seq
                counters = {
                    "connected": True,
                    "requests": 0,
                    "hits": 0,
                    "misses": 0,
                    "writes": 0,
                }
                self._clients[client_id] = counters
                conn = _Connection(client_id, sock, now, counters)
                self._connections[client_id] = conn
            try:
                self._selector.register(sock, selectors.EVENT_READ, conn)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                self._close_connection(conn)

    def _fill_inbuf(self, conn: _Connection) -> str:
        """Pull everything the OS has buffered for this connection.

        Returns ``"open"`` (more may come), ``"eof"`` (peer finished
        writing) or ``"error"`` (dead socket).
        """
        try:
            while True:
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    return "eof"
                conn.inbuf += chunk
                if len(chunk) < (1 << 20):
                    return "open"
        except (BlockingIOError, InterruptedError):
            return "open"
        except OSError:
            return "error"

    def _on_readable(self, conn: _Connection, now: float) -> None:
        state = self._fill_inbuf(conn)
        if state == "error":
            self._close_connection(conn)
            return
        conn.last_activity = now
        if conn.inbuf and not self._process_inbuf(conn):
            # Framing garbage / non-protocol talker: drop it.  One bad
            # client never takes the daemon down.
            self._close_connection(conn)
            return
        if conn.client_id not in self._connections:
            return
        self._flush(conn, now)
        if conn.client_id not in self._connections:
            return
        if state == "eof":
            # Clean disconnect; anything still unflushed has no reader.
            self._close_connection(conn)

    def _process_inbuf(self, conn: _Connection) -> bool:
        """Dispatch every complete frame in the read buffer, in order.

        This is where pipelining happens: a client that wrote N frames
        back-to-back gets N responses appended to its write buffer in
        the same order, with no round-trip gaps.  Returns False on
        framing/JSON garbage (caller closes the connection).
        """
        buf = conn.inbuf
        pos = 0
        size = len(buf)
        while size - pos >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buf, pos)
            if length > MAX_FRAME_BYTES:
                return False
            start = pos + _HEADER.size
            if size - start < length:
                break
            body = bytes(buf[start:start + length])
            pos = start + length
            try:
                request = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return False
            if not isinstance(request, dict):
                return False
            self._handle_request(conn, request)
            if self._stopping == "hard":
                # The ack is the last frame this daemon answers.
                break
        del buf[:pos]
        return True

    def _flush(self, conn: _Connection, now: float) -> None:
        if conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
                if sent:
                    del conn.outbuf[:sent]
                    conn.last_activity = now
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._close_connection(conn)
                return
        if conn.read_closed and not conn.outbuf:
            self._close_connection(conn)
            return
        self._sync_events(conn)

    def _sync_events(self, conn: _Connection) -> None:
        wanted = 0
        if not conn.read_closed:
            wanted |= selectors.EVENT_READ
        if conn.outbuf:
            wanted |= selectors.EVENT_WRITE
        if wanted == 0:
            self._close_connection(conn)
            return
        if wanted != conn.events:
            try:
                self._selector.modify(conn.sock, wanted, conn)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                self._close_connection(conn)
                return
            conn.events = wanted

    def _close_connection(self, conn: _Connection) -> None:
        if self._connections.get(conn.client_id) is not conn:
            return
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._state_lock:
            self._connections.pop(conn.client_id, None)
            conn.counters["connected"] = False
            self._retire_overflow()

    # -- request handling -------------------------------------------------------

    def _handle_request(
        self, conn: _Connection, request: Dict[str, Any]
    ) -> None:
        """Account, dispatch and answer one frame."""
        counters = conn.counters
        op = str(request.get("op"))
        started = time.monotonic()
        with self._state_lock:
            counters["requests"] += 1
        try:
            response = self._dispatch(request, counters)
        except StoreError as error:
            response = {"ok": False, "error": str(error)}
        except Exception as error:  # noqa: BLE001 - protocol boundary
            response = {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }
        elapsed = time.monotonic() - started
        # One state-lock scope for the error counter and the request
        # instruments, so a concurrent metrics/health read never sees
        # a timed request without its error accounted (registry locks
        # are leaves under it).
        with self._state_lock:
            if not response.get("ok"):
                self._counters["errors"] += 1
            self.telemetry.counter(
                "repro.service.requests", op=op
            ).inc()
            self.telemetry.histogram(
                "repro.service.request.seconds", op=op
            ).observe(elapsed)
        conn.outbuf += _encode_frame(response)
        if op == "shutdown" and response.get("ok"):
            # Ack first (the frame is buffered; the loop flushes it
            # before stopping), then flag: the owner of wait()/stop()
            # does the teardown.
            if request.get("drain"):
                self._begin_drain()
            else:
                self._stopping = "hard"
                self._stop_requester = conn.client_id

    def _dispatch(
        self, request: Dict[str, Any], counters: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {
                "ok": True,
                "service": SERVICE_MAGIC,
                "protocol": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "store": str(self.store_path),
                "schema_version": SCHEMA_VERSION,
            }
        if op == "get_many":
            groups = _groups_from_wire(request, 4)
            # The tier lookup (its misses go to the store in one call)
            # and the ledger update are one atomic step under the state
            # lock, so a concurrent stats op can never see store
            # counters ahead of the per-client accounting.  The answer
            # is aligned with the request: one list per group, one
            # encoded verdict or None per case.
            with self._state_lock:
                answers = self._tier.get_groups(groups)
                found_groups = [
                    [
                        encode_verdict(found[case]) if case in found
                        else None
                        for case in cases
                    ]
                    for (_, _, _, cases), found in zip(groups, answers)
                ]
                asked = sum(len(row) for row in found_groups)
                absent = sum(row.count(None) for row in found_groups)
                counters["hits"] += asked - absent
                counters["misses"] += absent
            return {"ok": True, "found": found_groups}
        if op == "put_many":
            groups = [
                (signature, size, domain, cases,
                 _decode_wire_verdicts(verdicts))
                for signature, size, domain, cases, verdicts
                in _groups_from_wire(request, 5)
            ]
            written = sum(len(group[3]) for group in groups)
            # One store transaction, then the tier: a batch the store
            # refused is never served from memory.
            with self._state_lock:
                self._tier.put_groups(groups)
                counters["writes"] += written
            return {"ok": True, "written": written}
        if op == "stats":
            return {"ok": True, **self.snapshot_stats()}
        if op == "health":
            return {"ok": True, **self.health_snapshot()}
        if op == "merge":
            source = request.get("source")
            if not isinstance(source, str) or not source:
                raise ServiceError(
                    f"merge needs a source store path, got {source!r}"
                )
            # merge_from writes rows behind StoreStats' back by design
            # (it is bulk recovery, not cache traffic), so the ledger
            # invariant "per-client + retired == store writes" is
            # untouched: neither side of it moves.
            with self._state_lock:
                merged = self.store.merge_from(source)
                # The merge may have changed rows the hot tier holds.
                self._tier.clear()
            return {"ok": True, "merged": merged}
        if op == "compact":
            # Store swaps happen only in start()/teardown, which
            # bracket the loop's lifetime and cannot race a dispatch.
            # repro-lint: disable=lock-discipline -- loop-thread read
            compacted = self.store.compact(
                max_rows=request.get("max_rows"),
                max_age=request.get("max_age"),
                now=request.get("now"),
                vacuum=request.get("vacuum", True),
            )
            # Compaction pruned rows; drop the hot tier rather than
            # serve entries the store no longer holds (stale verdicts
            # are still *correct* -- verdicts are immutable -- but a
            # pruned-then-hit row would make LRU and store disagree on
            # population).
            with self._state_lock:
                self._tier.clear()
            return {"ok": True, "compacted": compacted}
        if op == "metrics":
            # Full registry snapshot: request counters, service-time
            # histograms, store/daemon/hot-LRU collector samples,
            # checkpoint timings -- the machine-readable superset of
            # health/stats.
            return {
                "ok": True,
                "service": SERVICE_MAGIC,
                "protocol": PROTOCOL_VERSION,
                "metrics": self.telemetry.snapshot(),
            }
        if op == "shutdown":
            return {
                "ok": True,
                "stopping": True,
                "drain": bool(request.get("drain")),
            }
        return {"ok": False, "error": f"unknown protocol op {op!r}"}

    # -- timers, drain, teardown ------------------------------------------------

    def _maybe_checkpoint(self, now: float) -> None:
        if not self.checkpoint_interval or self._stopping is not None:
            return
        if now < self._next_checkpoint:
            return
        self._next_checkpoint = now + self.checkpoint_interval
        # State lock -> store lock is the same acquisition order as
        # every dispatch path, so the timer can never deadlock a batch.
        with self._state_lock:
            store = self.store
            if store is None:  # pragma: no cover - stop() raced us
                return
            if store.checkpoint():
                self._counters["checkpoints"] += 1

    def _reap_idle(self, now: float) -> None:
        if not self.idle_timeout or self._stopping is not None:
            return
        for conn in list(self._connections.values()):
            if now - conn.last_activity >= self.idle_timeout:
                # Idle past the budget.  Retrying clients reconnect
                # transparently on their next request.
                with self._state_lock:
                    self._counters["reaped_idle"] += 1
                self._close_connection(conn)

    def _begin_drain(self) -> None:
        """Enter drain mode: refuse new connections immediately.

        The loop's stop check finishes the drain: one final sweep
        pulls every batch already received (OS-buffered included) into
        the frame buffers, answers them, flushes every connection,
        checkpoints the WAL and only then stops.
        """
        if self._draining:
            return
        self._draining = True
        self._stopping = "drain"
        listener, self._listener = self._listener, None
        if listener is not None:
            if self._selector is not None:
                try:
                    self._selector.unregister(listener)
                except (KeyError, ValueError):  # pragma: no cover
                    pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _check_stop_conditions(self, now: float) -> None:
        if self._stopping == "hard":
            conn = self._connections.get(self._stop_requester)
            if conn is None or not conn.outbuf:
                self._stop.set()
            return
        if self._stopping == "drain":
            if not self._drain_swept:
                # One final read sweep per connection: whatever the OS
                # had buffered when the drain landed is an in-flight
                # batch and gets answered; afterwards nothing more is
                # read.  (This runs at the loop's top level, never
                # inside a connection's own processing pass.)
                self._drain_swept = True
                for conn in list(self._connections.values()):
                    if conn.read_closed:
                        continue
                    state = self._fill_inbuf(conn)
                    if state == "error" or (
                        conn.inbuf and not self._process_inbuf(conn)
                    ):
                        self._close_connection(conn)
                        continue
                    conn.read_closed = True
                    self._flush(conn, now)
            if all(
                not conn.outbuf
                for conn in self._connections.values()
            ):
                for conn in list(self._connections.values()):
                    self._close_connection(conn)
                with self._state_lock:
                    store = self.store
                    if store is not None and store.checkpoint():
                        self._counters["checkpoints"] += 1
                self._stop.set()

    def _retire_overflow(self) -> None:
        """Fold the oldest disconnected clients beyond the ledger cap
        into the ``retired`` aggregate.  Called under the state lock."""
        disconnected = [
            client_id
            for client_id, counters in self._clients.items()
            if not counters["connected"]
        ]
        for client_id in disconnected[:max(
            0, len(disconnected) - self.max_client_ledger
        )]:
            counters = self._clients.pop(client_id)
            self._retired["clients"] += 1
            for field in ("requests", "hits", "misses", "writes"):
                self._retired[field] += counters[field]

    # -- snapshots --------------------------------------------------------------

    def health_snapshot(self) -> Dict[str, Any]:
        """The ``health`` op's payload: liveness plus row population.

        No per-client dump (that stays in ``stats``), but ``rows``
        carries :meth:`FaultDictionaryStore.row_stats` totals so one
        ``repro store ping --json`` round trip can alert on unexpected
        store shrinkage, ``hot_lru`` reports the in-memory tier's
        occupancy and hit counters, and ``service_time`` summarizes
        the per-request service-time histograms (count/seconds per
        op).
        """
        with self._state_lock:
            active = len(self._connections)
            total = len(self._clients) + self._retired["clients"]
            requests = (
                sum(c["requests"] for c in self._clients.values())
                + self._retired["requests"]
            )
            counters = dict(self._counters)
            # Same state-lock -> store-lock order as every dispatch
            # path, so health can never deadlock a batch.
            rows = self.store.row_stats() if self.store is not None else None
            hot = _tier_counts(self._tier)
        by_op: Dict[str, Dict[str, Any]] = {}
        timed = 0
        seconds = 0.0
        for entry in self.telemetry.registry.series(
            "repro.service.request.seconds"
        ):
            op_name = entry["labels"].get("op", "?")
            by_op[op_name] = {
                "count": entry["count"], "seconds": entry["sum"]
            }
            timed += entry["count"]
            seconds += entry["sum"]
        return {
            "service": SERVICE_MAGIC,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "store": str(self.store_path),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "connections": {"active": active, "total": total},
            "requests": requests,
            "counters": counters,
            "rows": rows,
            "hot_lru": {"max_entries": self.hot_lru_size, **hot},
            "service_time": {
                "count": timed, "seconds": seconds, "by_op": by_op
            },
            "idle_timeout": self.idle_timeout,
            "checkpoint_interval": self.checkpoint_interval,
            "max_clients": self.max_clients,
            "draining": self._draining,
        }

    def snapshot_stats(self) -> Dict[str, Any]:
        """The ``stats`` op's payload: rows, store counters, clients."""
        # One state-lock scope for the whole snapshot: per-client rows,
        # the retired aggregate and the store counters are mutated
        # together in the dispatch path, so reading them together is
        # what keeps "per-client + retired == store writes" true even
        # mid-batch.
        with self._state_lock:
            per_client = {
                str(client_id): dict(counters)
                for client_id, counters in self._clients.items()
            }
            retired = dict(self._retired)
            counters = dict(self._counters)
            stats = self.store.stats
            store_stats = {
                "hits": stats.hits,
                "misses": stats.misses,
                "writes": stats.writes,
                "skipped_writes": stats.skipped_writes,
            }
            row_stats = self.store.row_stats()
        return {
            "service": SERVICE_MAGIC,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "socket": str(self.socket_path),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "counters": counters,
            "row_stats": row_stats,
            "store_stats": store_stats,
            "clients": {
                "total": len(per_client) + retired["clients"],
                "active": sum(
                    1 for c in per_client.values() if c["connected"]
                ),
                "per_client": per_client,
                "retired": retired,
            },
        }
