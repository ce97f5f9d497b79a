"""Unit tests of the kernel subsystem itself: cache, backends."""

import gc
import weakref

import pytest

from repro.faults.faultlist import FaultList
from repro.faults.instances import case
from repro.kernel import (
    BACKENDS,
    BitParallelBackend,
    EmptyFaultListWarning,
    FaultDictionaryCache,
    SerialBackend,
    SimKey,
    SimulationKernel,
    canonical_signature,
    get_default_kernel,
    resolve_backend,
    set_default_kernel,
)
from repro.march.catalog import MARCH_C_MINUS, MATS, MSCAN
from repro.march.test import parse_march
from repro.memory.array import NullFaultInstance
from repro.simulator import bitengine


@pytest.fixture(scope="module")
def table3_list():
    return FaultList.from_names("SAF", "TF", "ADF", "CFIN", "CFID")


class TestCache:
    def test_hit_miss_accounting(self, saf_list):
        kernel = SimulationKernel()
        cases = saf_list.instances(3)
        kernel.simulate(MATS, cases, 3)
        assert kernel.stats.misses == len(cases)
        assert kernel.stats.hits == 0
        kernel.simulate(MATS, cases, 3)
        assert kernel.stats.hits == len(cases)
        assert kernel.stats.hit_rate == 0.5
        assert "hit rate" in str(kernel.stats)

    def test_signature_shares_verdicts_across_names(self, saf_list):
        # Same notation under a different display name: cached verdicts
        # must be shared (the cache keys the *signature*, not the name).
        kernel = SimulationKernel()
        cases = saf_list.instances(3)
        kernel.simulate(MATS, cases, 3)
        renamed = MATS.renamed("SomethingElse")
        kernel.simulate(renamed, cases, 3)
        assert kernel.stats.hits == len(cases)

    def test_lru_eviction(self):
        cache = FaultDictionaryCache(max_entries=2)
        k1, k2, k3 = (SimKey("t", f"c{i}", 3) for i in range(3))
        cache.put(k1, True)
        cache.put(k2, False)
        cache.put(k3, True)
        assert cache.stats.evictions == 1
        assert k1 not in cache and k2 in cache and k3 in cache
        assert cache.get(k2) is False

    def test_clear_resets_everything(self, saf_list):
        kernel = SimulationKernel()
        kernel.simulate(MATS, saf_list.instances(3), 3)
        assert len(kernel.cache) > 0
        kernel.clear()
        assert len(kernel.cache) == 0
        assert kernel.stats.lookups == 0

    def test_domains_do_not_collide(self):
        cache = FaultDictionaryCache()
        sp = SimKey("{x}", "c", 3, domain="sp")
        syn = SimKey("{x}", "c", 3, domain="syn")
        cache.put(sp, True)
        assert syn not in cache

    def test_rejects_empty_cache(self):
        with pytest.raises(ValueError):
            FaultDictionaryCache(max_entries=0)

    def test_kernel_evicts_under_a_small_bound(self, saf_list):
        # Kernel-level LRU pressure: verdicts must stay correct while
        # the dictionary churns, and the eviction count must surface.
        kernel = SimulationKernel(cache_size=4)
        cases = saf_list.instances(3)
        assert len(cases) > 4
        report = kernel.simulate(MATS, cases, 3)
        assert report.complete
        assert len(kernel.cache) <= 4
        assert kernel.stats.evictions >= len(cases) - 4
        assert "evictions" in str(kernel.stats)
        # Evicted verdicts are recomputed, not lost or corrupted.
        again = kernel.simulate(MATS, cases, 3)
        assert again.detected == report.detected
        assert kernel.stats.misses > len(cases)


class TestBackends:
    def test_registry_contains_all(self):
        assert set(BACKENDS) == {"serial", "bitparallel"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            SimulationKernel(backend="gpu")

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend


class TestBitParallelBackend:
    def test_matches_serial_on_table3(self, table3_list):
        cases = table3_list.instances(3)
        tests = [MATS, MSCAN, MARCH_C_MINUS]
        packed = SimulationKernel(backend="bitparallel").detection_matrix(
            tests, cases, 3
        )
        serial = SimulationKernel().detection_matrix(tests, cases, 3)
        assert packed == serial

    def test_served_counters_split_by_routing(self):
        # SAF packs; an unknown instance type falls back to scalar.
        class CustomInstance(NullFaultInstance):
            pass

        kernel = SimulationKernel(backend="bitparallel")
        saf_cases = FaultList.from_names("SAF").instances(3)
        cases = list(saf_cases) + [case("custom", CustomInstance)]
        report = kernel.simulate(MATS, cases, 3)
        assert kernel.backend.served == {
            "bitparallel": len(saf_cases),
            "serial": 1,
        }
        assert len(report.detected) + len(report.missed) == len(cases)

    def test_describe_stats_reports_routing_and_evictions(self):
        kernel = SimulationKernel(backend="bitparallel")
        kernel.simulate_fault_list(MATS, FaultList.from_names("SAF"), 3)
        description = kernel.describe_stats()
        assert "evictions" in description
        assert "backend [bitparallel]" in description
        assert "bitparallel:" in description
        backend = kernel.backend
        assert description.endswith(
            f", {backend.table_hits.value} table hits"
            f" / {backend.table_misses.value} misses"
        )

    def test_clear_resets_routing_counters_too(self):
        kernel = SimulationKernel(backend="bitparallel")
        kernel.simulate_fault_list(MATS, FaultList.from_names("SAF"), 3)
        assert kernel.backend.served
        kernel.clear()
        assert kernel.backend.served == {}
        assert kernel.backend.table_misses.value == 0
        assert "served no tasks" in kernel.describe_stats()
        assert "table hits" not in kernel.describe_stats()

    def test_lane_plan_cache_is_bounded_and_reused(self, saf_list):
        backend = BitParallelBackend()
        backend.PLAN_CACHE_SIZE = 2
        cases = saf_list.instances(3)
        backend.detect_batch(cases, MATS, 3)
        first = next(iter(backend._plans.values()))
        backend.detect_batch(cases, MARCH_C_MINUS, 3)
        # Same (case names, size) key: the packed plan is reused.
        assert list(backend._plans.values()) == [first]
        # The same case names at another size are another plan.
        probe = [cases[0]]
        backend.detect_batch(probe, MATS, 3)
        backend.detect_batch(probe, MATS, 4)
        (_, at3), (_, at4) = list(backend._plans.values())
        assert (at3.simulation.size, at4.simulation.size) == (3, 4)
        assert at3.simulation.cases == at4.simulation.cases == (cases[0],)
        # A later call on a plan steps through its table: all hits.
        misses = backend.table_misses.value
        backend.detect_batch(probe, MATS, 4)
        assert backend.table_misses.value == misses
        assert backend.table_hits.value >= len(MATS)
        for size in (2, 4, 5):
            backend.detect_batch(saf_list.instances(size), MATS, size)
        assert len(backend._plans) <= 2

    def test_a_batch_with_no_packable_case_builds_no_simulation(
        self, monkeypatch
    ):
        class CustomInstance(NullFaultInstance):
            pass

        built = []
        init = bitengine.PackedSimulation.__init__

        def counted(simulation, *args, **kwargs):
            built.append(simulation)
            init(simulation, *args, **kwargs)

        monkeypatch.setattr(bitengine.PackedSimulation, "__init__", counted)
        backend = BitParallelBackend()
        cases = [case("custom-a", CustomInstance),
                 case("custom-b", CustomInstance)]
        assert backend.detect_batch(cases, MATS, 3) == [False, False]
        assert built == []
        assert list(backend._plans.values()) == [((False, False), None)]
        assert backend.served == {"serial": 2}
        # The verifier keeps its lane-0 simulation: lane 0 rejects a
        # malformed candidate before any scalar run.
        kernel = SimulationKernel(backend="bitparallel")
        verify = kernel.verifier(cases, 3)
        assert len(built) == 1
        assert not verify(parse_march("{up(w0); up(r1)}"))
        assert kernel.backend.served == {}
        assert not verify(MATS)
        assert kernel.backend.served == {"serial": 1}

    def test_a_dead_kernel_frees_its_plan_tables(self, saf_list):
        kernel = SimulationKernel(backend="bitparallel")
        kernel.simulate_many([MATS, MARCH_C_MINUS], saf_list.instances(3), 3)
        ((_, table),) = kernel.backend._plans.values()
        freed = weakref.ref(table)
        del table
        enabled = gc.isenabled()
        gc.disable()
        try:
            del kernel
            # Reference counting alone frees it: no cycle holds a table.
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    def test_a_wide_table_keeps_to_the_bit_bound(self, monkeypatch):
        cases = FaultList.from_names("SAF", "TF").instances(3)
        lanes = 1 + sum(len(fault_case.variants) for fault_case in cases)
        # A bound so small that this simulation counts as wide: four
        # states of 7 words (3 cells) x ``lanes`` bits fit, five do not.
        state_bits = 7 * lanes
        monkeypatch.setattr(
            bitengine, "TRANSITION_TABLE_BITS", 5 * state_bits - 1
        )
        backend = BitParallelBackend()
        serial = SerialBackend()
        for test in (MATS, MSCAN, MARCH_C_MINUS, MATS, MARCH_C_MINUS):
            assert backend.detect_batch(cases, test, 3) == (
                serial.detect_batch(cases, test, 3)
            )
            ((_, table),) = backend._plans.values()
            assert table.limit == 4
            assert len(table.transitions) * state_bits <= (
                bitengine.TRANSITION_TABLE_BITS
            )
        assert backend.table_misses.value > 4  # it filled and started over

    def test_single_probe_batches_work(self, saf_list):
        # The generator's verifier sends batches of one; the packed
        # path must handle them (and benefit from the plan cache).
        kernel = SimulationKernel(backend="bitparallel")
        for fault_case in saf_list.instances(3):
            assert kernel.detects(MATS, fault_case, 3)

    def test_generator_runs_on_bitparallel_backend(self):
        from repro.core import GeneratorConfig, MarchTestGenerator

        config = GeneratorConfig(polish=False, tighten=False,
                                 check_redundancy=False)
        kernel = SimulationKernel(backend="bitparallel")
        report = MarchTestGenerator(config, kernel=kernel).generate(
            FaultList.from_names("SAF")
        )
        assert report.verified


class TestBatchedApis:
    def test_simulate_many_preserves_order(self, table3_list):
        kernel = SimulationKernel()
        tests = [MSCAN, MATS, MARCH_C_MINUS]
        reports = kernel.simulate_many(tests, table3_list.instances(3), 3)
        assert [r.test for r in reports] == tests
        assert reports[2].complete  # March C- covers Table 3 row 5

    def test_detection_matrix_accepts_cases_or_faultlist(self, table3_list):
        kernel = SimulationKernel()
        via_list = kernel.detection_matrix([MATS], table3_list, 3)
        via_cases = kernel.detection_matrix(
            [MATS], table3_list.instances(3), 3
        )
        assert via_list == via_cases

    def test_reports_share_names_and_write_changes_back(self, table3_list):
        kernel = SimulationKernel()
        cases = table3_list.instances(3)
        first, second = kernel.simulate_many([MSCAN, MATS], cases, 3)
        # One name tuple per batch, one flag bit per case.
        assert first.cases is second.cases
        assert isinstance(first.flags, int)
        assert first.flags.bit_length() <= len(cases)
        assert bin(first.flags).count("1") == len(first.detected)
        # The lists behave like the report's own: a change to one, an
        # in-place add or an assignment updates the report.
        detected, missed = list(first.detected), list(first.missed)
        first.missed.append(first.detected.pop())
        assert first.detected == detected[:-1]
        assert first.missed == missed + detected[-1:]
        first.detected += ["extra"]
        assert first.detected == detected[:-1] + ["extra"]
        first.missed = []
        assert first.complete and first.coverage == 1.0
        assert second.detected + second.missed != []
        assert second.cases == tuple(case.name for case in cases)

    def test_sweeps_of_one_case_list_share_one_name_tuple(self, table3_list):
        cases = table3_list.instances(3)
        (first,) = SimulationKernel().simulate_many([MATS], cases, 3)
        (second,) = SimulationKernel(backend="bitparallel").simulate_many(
            [MATS], list(cases), 3
        )
        assert first.cases is second.cases
        # A change to one report leaves the other as it was.
        missed = list(second.missed)
        first.detected = []
        first.missed.append("extra")
        assert not first.detected
        assert second.missed == missed
        assert second.cases == tuple(case.name for case in cases)

    def test_empty_cases_warn(self):
        kernel = SimulationKernel()
        with pytest.warns(EmptyFaultListWarning):
            report = kernel.simulate(MATS, [], 3)
        assert report.coverage == 0.0

    def test_empty_detection_matrix_warns_too(self):
        kernel = SimulationKernel()
        with pytest.warns(EmptyFaultListWarning):
            matrix = kernel.detection_matrix([MATS], [], 3)
        assert matrix == {"MATS": {}}

    def test_single_probes_go_through_the_backend(self, saf_list):
        class CountingBackend(SerialBackend):
            name = "counting"
            calls = 0

            def detect_batch(self, cases, test, size):
                CountingBackend.calls += 1
                return super().detect_batch(cases, test, size)

        kernel = SimulationKernel(backend=CountingBackend())
        case = saf_list.instances(3)[0]
        assert kernel.detects(MATS, case, 3)
        assert CountingBackend.calls == 1
        kernel.detects(MATS, case, 3)  # cached: no second dispatch
        assert CountingBackend.calls == 1


class TestVariantMemo:
    def test_variants_are_memoized_per_instance(self):
        test = parse_march("{any(w0); any(r0,w1); any(r1)}")
        first = test.concrete_order_variants()
        assert test.concrete_order_variants() is first
        assert len(first) == 8

    def test_fresh_instances_get_fresh_memos(self):
        test = parse_march("{any(w0); any(r0)}")
        clone = parse_march("{any(w0); any(r0)}")
        assert test == clone
        assert test.concrete_order_variants() is not (
            clone.concrete_order_variants()
        )


class TestDefaultKernel:
    def test_default_kernel_is_process_wide(self):
        assert get_default_kernel() is get_default_kernel()

    def test_default_kernel_can_be_swapped(self):
        original = get_default_kernel()
        replacement = SimulationKernel()
        try:
            set_default_kernel(replacement)
            assert get_default_kernel() is replacement
        finally:
            set_default_kernel(original)

    def test_canonical_signature_ignores_name(self):
        assert canonical_signature(MATS) == canonical_signature(
            MATS.renamed("other")
        )
