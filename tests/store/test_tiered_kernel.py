"""Kernel + store integration: the tiered fault dictionary.

The acceptance criterion of the subsystem: store-backed verdicts are
byte-identical to in-memory simulation on the full standard fault
library at sizes 3-6, and a second process (modelled as a second
kernel with its own cold LRU and store connection) answers entirely
from the store without touching an execution backend.
"""

import json

import pytest

from repro.faults.faultlist import FaultList
from repro.faults.library import MODEL_REGISTRY
from repro.kernel import FaultDictionaryCache, SimulationKernel
from repro.march.catalog import MARCH_C_MINUS, MATS, MATS_PLUS_PLUS
from repro.store import FaultDictionaryStore, StoreError

TESTS = [MATS, MATS_PLUS_PLUS, MARCH_C_MINUS]


@pytest.fixture(scope="module")
def full_library():
    return FaultList.from_names(*MODEL_REGISTRY)


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "dict.sqlite"


# -- acceptance: byte-identical across the persistence boundary ----------------


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_store_verdicts_byte_identical_to_in_memory(
    size, store_path, full_library
):
    in_memory = SimulationKernel(backend="bitparallel").detection_matrix(
        TESTS, full_library, size
    )
    writer = SimulationKernel(backend="bitparallel", store=store_path)
    first = writer.detection_matrix(TESTS, full_library, size)
    writer.close()
    reader = SimulationKernel(backend="bitparallel", store=store_path)
    second = reader.detection_matrix(TESTS, full_library, size)
    assert reader.backend.served == {}, "second process must not simulate"
    reader.close()
    assert first == in_memory
    assert second == in_memory
    assert json.dumps(second, sort_keys=True) == json.dumps(
        in_memory, sort_keys=True
    )


def test_store_rows_are_backend_agnostic(store_path, full_library):
    # Verdicts written by one backend must serve every other backend:
    # the row is keyed by (signature, case, size, domain) only.
    writer = SimulationKernel(backend="serial", store=store_path)
    serial = writer.detection_matrix(TESTS, full_library, 3)
    writer.close()
    reader = SimulationKernel(backend="bitparallel", store=store_path)
    packed = reader.detection_matrix(TESTS, full_library, 3)
    assert reader.backend.served == {}
    assert packed == serial
    reader.close()


def test_syndromes_round_trip_through_the_store(store_path, full_library):
    writer = SimulationKernel(store=store_path)
    expected = {
        case.name: writer.syndrome(MARCH_C_MINUS, case, 4)
        for case in full_library.instances(4)
    }
    writer.close()
    reader = SimulationKernel(store=store_path)
    for case in full_library.instances(4):
        assert reader.syndrome(MARCH_C_MINUS, case, 4) == expected[case.name]
    assert reader.store.stats.hits == len(expected)
    reader.close()


def test_two_port_verdicts_round_trip_through_the_store(store_path):
    from repro.multiport.faults import weak_fault_cases
    from repro.multiport.march2p import MARCH_2PF

    writer = SimulationKernel(store=store_path)
    expected = [
        writer.detects_2p(MARCH_2PF, case, 3)
        for case in weak_fault_cases(3)
    ]
    writer.close()
    reader = SimulationKernel(store=store_path)
    observed = [
        reader.detects_2p(MARCH_2PF, case, 3)
        for case in weak_fault_cases(3)
    ]
    assert observed == expected
    assert reader.store.stats.hits == len(expected)
    reader.close()


# -- tier mechanics ------------------------------------------------------------


class TestTieredCache:
    """FaultDictionaryCache with a store: the LRU over the SQLite tier."""

    def test_kernel_without_store_has_plain_cache(self):
        kernel = SimulationKernel()
        assert kernel.store is None
        assert kernel.cache.store is None

    def test_store_hits_promote_into_the_lru(self, store_path, saf_list):
        writer = SimulationKernel(store=store_path)
        writer.simulate_fault_list(MATS, saf_list, 3)
        writer.close()
        reader = SimulationKernel(store=store_path)
        reader.simulate_fault_list(MATS, saf_list, 3)
        first_disk_hits = reader.store.stats.hits
        assert first_disk_hits > 0
        reader.simulate_fault_list(MATS, saf_list, 3)
        # The repeat is answered by the promoted LRU entries: the
        # store sees no further traffic.
        assert reader.store.stats.hits == first_disk_hits
        assert reader.stats.hits > 0
        reader.close()

    def test_close_leaves_caller_provided_stores_open(
        self, store_path, saf_list
    ):
        # Two kernels sharing one store instance: closing one kernel
        # must not cut the other's connection.
        store = FaultDictionaryStore(store_path)
        first = SimulationKernel(store=store)
        second = SimulationKernel(store=store)
        first.simulate_fault_list(MATS, saf_list, 3)
        first.close()
        report = second.simulate_fault_list(MATS, saf_list, 3)
        assert report.detected or report.missed
        assert second.store.stats.hits > 0
        second.close()
        store.get_many([])  # still open: the caller owns its lifecycle
        store.close()

    def test_close_closes_stores_opened_from_a_path(
        self, store_path, saf_list
    ):
        kernel = SimulationKernel(store=store_path)
        kernel.simulate_fault_list(MATS, saf_list, 3)
        kernel.close()
        assert kernel.store._conn is None

    def test_write_through_persists_before_process_exit(
        self, store_path, saf_list
    ):
        kernel = SimulationKernel(store=store_path)
        kernel.simulate_fault_list(MATS, saf_list, 3)
        # No close(): simulate a killed process.  WAL keeps the rows.
        with FaultDictionaryStore(store_path) as store:
            assert len(store) == len(saf_list.instances(3))

    def test_readonly_kernel_never_writes(self, store_path, saf_tf_list):
        writer = SimulationKernel(store=store_path)
        writer.simulate_fault_list(MATS, FaultList.from_names("SAF"), 3)
        writer.close()
        rows_before = len(FaultDictionaryStore(store_path))
        reader = SimulationKernel(
            store=store_path, store_readonly=True
        )
        reader.simulate_fault_list(MATS, saf_tf_list, 3)  # TF rows are new
        assert reader.store.stats.skipped_writes > 0
        reader.close()
        assert len(FaultDictionaryStore(store_path)) == rows_before

    def test_get_many_answers_memory_misses_in_one_store_pass(
        self, store_path, saf_list
    ):
        writer = SimulationKernel(store=store_path)
        writer.simulate_fault_list(MATS, saf_list, 3)
        writer.close()
        reader = SimulationKernel(store=store_path)
        from repro.kernel import canonical_signature

        names = [case.name for case in saf_list.instances(3)]
        groups = [
            (canonical_signature(MATS), 3, "sp", names),
            ("absent", 3, "sp", ["case"]),
        ]
        found, absent = reader.cache.get_groups(groups)
        assert set(found) == set(names) and absent == {}
        assert reader.store.stats.hits == len(names)
        # Found cases were promoted: a repeat stays in memory.
        reader.cache.get_groups(groups[:1])
        assert reader.store.stats.hits == len(names)
        reader.close()

    def test_a_refused_store_write_never_reaches_the_lru(self):
        class RefusingStore:
            refuse = False

            def get_groups(self, groups):
                return [{} for _ in groups]

            def put_groups(self, groups):
                if self.refuse:
                    raise StoreError("disk full")

        store = RefusingStore()
        cache = FaultDictionaryCache(8, store=store)
        cache.put_groups([("{up(w0)}", 3, "sp", ["held"], [True])])
        store.refuse = True
        batch = [("{up(w0)}", 3, "sp", ["held", "new"], [False, True])]
        with pytest.raises(StoreError, match="disk full"):
            cache.put_groups(batch)
        # The LRU holds and answers exactly what it did before.
        assert len(cache) == 1
        assert cache.get_groups([("{up(w0)}", 3, "sp", ["held", "new"])]) == [
            {"held": True}
        ]

# -- stat hygiene (the clear()/describe_stats() satellite) ---------------------


class TestStatHygiene:
    def test_describe_stats_reports_the_store_tier(
        self, store_path, saf_list
    ):
        kernel = SimulationKernel(store=store_path)
        kernel.simulate_fault_list(MATS, saf_list, 3)
        description = kernel.describe_stats()
        assert "store [dict.sqlite]" in description
        assert "writes" in description
        kernel.close()

    def test_describe_stats_marks_readonly_stores(
        self, store_path, saf_list
    ):
        SimulationKernel(store=store_path).simulate_fault_list(
            MATS, saf_list, 3
        )
        kernel = SimulationKernel(store=store_path, store_readonly=True)
        assert "readonly" in kernel.describe_stats()
        kernel.close()

    def test_clear_resets_store_counters_but_keeps_rows(
        self, store_path, saf_list
    ):
        kernel = SimulationKernel(store=store_path)
        kernel.simulate_fault_list(MATS, saf_list, 3)
        assert kernel.store.stats.writes > 0
        kernel.clear()
        # Every counter of every tier starts from zero: --sim-stats
        # can never mix numbers from two runs.
        assert kernel.store.stats.writes == 0
        assert kernel.store.stats.hits == kernel.store.stats.misses == 0
        assert kernel.stats.lookups == 0
        assert getattr(kernel.backend, "served", {}) == {}
        # ... but the persistent rows survive: a fresh run is all hits.
        kernel.simulate_fault_list(MATS, saf_list, 3)
        assert kernel.store.stats.hits > 0
        assert kernel.backend.served == {}
        kernel.close()

    def test_without_store_describe_stats_has_no_store_segment(self):
        kernel = SimulationKernel()
        assert "store [" not in kernel.describe_stats()
