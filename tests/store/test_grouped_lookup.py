"""Grouped lookups against a per-key oracle.

:meth:`FaultDictionaryStore.get_groups` reads one ``SELECT .. case_name
IN (..)`` per ``(signature, size, domain)`` group and chunk.  These
properties pin it, through :func:`~repro.store.store.get_many_by_groups`,
to the plain per-key ``SELECT`` it replaced: the same verdicts found,
the same hit and miss counts (duplicates counted per key asked), the
same rows whose ``last_used`` was bumped, and no bump at all through
a readonly store.  The same draws then go through
a verdict service, with its hot tier off, tiny and at the default
size, whose answers must equal the direct store's.
"""

import dataclasses
import itertools
import sqlite3
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernel.cache import SimKey
from repro.store import FaultDictionaryStore, decode_verdict
from repro.store.service import (
    DEFAULT_HOT_LRU_SIZE,
    ServiceStore,
    VerdictService,
)
from repro.store.store import (
    IN_CHUNK,
    LAST_USED_RESOLUTION_SECONDS,
    get_many_by_groups,
    pair_groups,
)

SIGNATURES = ("{up(w0)}", "{up(w0);dn(r0,w1)}", "{any(w1);up(r1)}")
SIZES = (3, 4, 16)
DOMAINS = ("sp", "2p", "syn")
CASES = tuple(f"c{i}" for i in range(10))

#: A ``last_used`` stamp no lookup can consider stale.
FRESH = int(time.time()) + 10 ** 6


def verdict(domain, bit):
    if domain == "syn":
        return frozenset({(bit, 0, 1, "-")}) if bit else frozenset()
    return bool(bit)


keys = st.builds(
    SimKey,
    st.sampled_from(SIGNATURES),
    st.sampled_from(CASES),
    st.sampled_from(SIZES),
    st.sampled_from(DOMAINS),
)


@st.composite
def scenarios(draw):
    """``(stored, asked)``: stored keys map to ``(bit, stale)``; the
    asked batch mixes stored keys, absent keys and duplicates, and may
    hold one group longer than :data:`IN_CHUNK`."""
    stored = draw(st.dictionaries(
        keys, st.tuples(st.integers(0, 1), st.booleans()), max_size=30
    ))
    asked = draw(st.lists(keys, max_size=30))
    if stored:
        asked += draw(st.lists(st.sampled_from(sorted(
            stored, key=dataclasses.astuple
        )), max_size=30))
    asked = draw(st.permutations(asked)) if len(asked) < 40 else asked
    extra = draw(st.integers(0, 3))
    if extra:
        long_group = [
            SimKey(SIGNATURES[0], f"long{i}", 5, "sp")
            for i in range(IN_CHUNK + extra)
        ]
        # Most of the group is stored, so a case lost at the chunk
        # boundary shows whichever end the group is read from.
        for i, k in enumerate(long_group):
            if i % 5 != 4:
                stored[k] = (i % 2, i % 3 == 0)
        if draw(st.booleans()):
            long_group.reverse()
        asked += long_group + long_group[:extra]
    return stored, asked


def seed(path, stored):
    with FaultDictionaryStore(path) as store:
        store.put_groups(pair_groups(
            [(k, verdict(k.domain, bit)) for k, (bit, _) in stored.items()]
        ))
    stamp(path, stored)


def stamp(path, stored):
    conn = sqlite3.connect(path)
    try:
        conn.executemany(
            "UPDATE verdicts SET last_used=? WHERE signature=?"
            " AND case_name=? AND size=? AND domain=?",
            [
                (0 if stale else FRESH, *dataclasses.astuple(k))
                for k, (_, stale) in stored.items()
            ],
        )
        conn.commit()
    finally:
        conn.close()


def last_used(path):
    conn = sqlite3.connect(path)
    try:
        return {
            SimKey(*row[:4]): row[4]
            for row in conn.execute(
                "SELECT signature, case_name, size, domain, last_used"
                " FROM verdicts"
            )
        }
    finally:
        conn.close()


def oracle(path, asked):
    """Per-key ``SELECT``: found verdicts, hits, misses, stale hits."""
    now = int(time.time())
    conn = sqlite3.connect(path)
    found, hits, stale = {}, 0, set()
    try:
        for k in asked:
            row = conn.execute(
                "SELECT verdict, last_used FROM verdicts WHERE signature=?"
                " AND case_name=? AND size=? AND domain=?",
                dataclasses.astuple(k),
            ).fetchone()
            if row is None:
                continue
            hits += 1
            found[k] = decode_verdict(row[0])
            if now - row[1] >= LAST_USED_RESOLUTION_SECONDS:
                stale.add(k)
    finally:
        conn.close()
    return found, hits, len(asked) - hits, stale


def bumped(before, after):
    return {k for k in after if after[k] != before[k]}


PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@PROPERTY
@given(scenarios())
def test_grouped_get_many_matches_the_per_key_oracle(scenario):
    stored, asked = scenario
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "dict.sqlite"
        seed(path, stored)
        found, hits, misses, stale = oracle(path, asked)
        before = last_used(path)

        with FaultDictionaryStore(path, readonly=True) as readonly:
            assert get_many_by_groups(readonly, asked) == found
            assert (readonly.stats.hits, readonly.stats.misses) == (
                hits, misses
            )
        assert last_used(path) == before, "a readonly store bumped rows"

        with FaultDictionaryStore(path) as store:
            assert get_many_by_groups(store, asked) == found
            assert (store.stats.hits, store.stats.misses) == (hits, misses)
        assert bumped(before, last_used(path)) == stale


@pytest.mark.parametrize(
    "hot_lru_size", [0, 3, DEFAULT_HOT_LRU_SIZE], ids=["off", "3", "default"]
)
def test_grouped_service_lookups_match_the_direct_store(
    tmp_path, hot_lru_size
):
    # One daemon for every draw; each draw gets its own signatures so
    # draws never see each other's rows.  With the hot tier off every
    # read reaches the daemon store's grouped lookup; a 3-verdict tier
    # evicts and reads through on almost every draw; the default one
    # answers from memory.  All three face the same direct-store oracle.
    service = VerdictService(
        tmp_path / "served.sqlite", tmp_path / "verdict.sock",
        hot_lru_size=hot_lru_size, checkpoint_interval=0,
    )
    draws = itertools.count()

    @PROPERTY
    @given(scenarios())
    def check(scenario):
        tag = f"#{next(draws)}"

        def tagged(k):
            return dataclasses.replace(k, signature=tag + k.signature)

        stored, asked = scenario
        stored = {tagged(k): value for k, value in stored.items()}
        asked = [tagged(k) for k in asked]
        pairs = [(k, verdict(k.domain, bit)) for k, (bit, _) in stored.items()]
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "direct.sqlite"
            seed(path, stored)
            with FaultDictionaryStore(path) as direct:
                expected = get_many_by_groups(direct, asked)
                expected_counts = (direct.stats.hits, direct.stats.misses)
        with ServiceStore(service.url) as client:
            client.put_many(pairs)
            assert client.get_many(asked) == expected
            assert (client.stats.hits, client.stats.misses) == (
                expected_counts
            )
        # The answers are aligned with the asked keys, so the served
        # verdicts also agree key by key with the per-key oracle.
        assert expected == {
            k: verdict(k.domain, stored[k][0]) for k in asked if k in stored
        }

    with service:
        check()
