"""Unit tests of the word-packed simulation engine.

The system-level contract (byte-identical detection matrices against
the serial backend over the full standard library) lives in
``tests/kernel/test_equivalence.py``; these tests pin down the engine's
building blocks: the packable/unpackable partition, the MaskTransition
compilation of fault primitives, per-fault-model packed semantics and
the worst-case conjunction across order variants.
"""

import pytest

from repro.faults.faultlist import FaultList
from repro.faults.instances import FaultCase, case
from repro.faults.library import MODEL_REGISTRY
from repro.faults.primitives import (
    Effect,
    FaultPrimitive,
    MaskTransition,
    Sensitization,
    parse_primitive,
)
from repro.kernel import worst_case_detects
from repro.march.catalog import MARCH_C_MINUS, MATS, MATS_PLUS_PLUS
from repro.march.test import parse_march
from repro.memory.array import NullFaultInstance
from repro.simulator.bitengine import (
    PackedSimulation,
    TransitionTable,
    UnpackableFaultError,
    pack_cases,
)


def packed_verdicts(test, cases, size):
    """The engine's worst-case verdicts for lane-packable ``cases``."""
    return TransitionTable(PackedSimulation(cases, size)).worst_case_verdicts(
        test
    )


def packs(fault_case):
    """Whether :func:`pack_cases` routes ``fault_case`` to the engine."""
    return pack_cases([fault_case], 3)[2] == (True,)


def serial_verdicts(test, cases, size):
    """Reference: the scalar worst-case path, one case at a time."""
    variants = test.concrete_order_variants()
    return [worst_case_detects(variants, c.variants, size) for c in cases]


# -- mask-transition compilation -----------------------------------------------


class TestMaskTransitions:
    def test_transition_fault_loses_the_write(self):
        prim = FaultPrimitive(Sensitization.UP, Effect.NO_CHANGE,
                              two_cell=False)
        (rule,) = prim.mask_transitions()
        assert rule == MaskTransition("w", old_value=0, trigger_value=1,
                                      lose_write=True)

    def test_force_matching_the_write_is_not_a_deviation(self):
        prim = parse_primitive("<up,1>")
        assert prim.mask_transitions() == ()

    def test_any_transition_invert_yields_both_rules(self):
        prim = parse_primitive("<^v,~>")
        rules = prim.mask_transitions()
        assert len(rules) == 2
        assert all(r.lose_write for r in rules)
        assert {r.old_value for r in rules} == {0, 1}

    def test_read_force_is_a_destructive_observed_read(self):
        prim = FaultPrimitive(Sensitization.READ, Effect.FORCE_1,
                              two_cell=False)
        (rule,) = prim.mask_transitions()
        assert rule.trigger == "r"
        assert rule.old_value == 0
        assert rule.flip_store and rule.flip_report

    def test_wait_force_decays_the_cell(self):
        prim = FaultPrimitive(Sensitization.WAIT, Effect.FORCE_0,
                              two_cell=False)
        (rule,) = prim.mask_transitions()
        assert rule == MaskTransition("T", old_value=1, flip_store=True)

    def test_state_sensitizations_are_not_lane_local(self):
        prim = parse_primitive("<0,1>")
        assert not prim.lane_packable
        with pytest.raises(ValueError, match="coupling-group"):
            prim.mask_transitions()

    def test_mask_transition_validates_its_shape(self):
        with pytest.raises(ValueError):
            MaskTransition("x", old_value=0)
        with pytest.raises(ValueError):
            MaskTransition("r", old_value=0, trigger_value=1)
        with pytest.raises(ValueError):
            MaskTransition("w", old_value=0)


# -- the packable/unpackable partition -----------------------------------------


class TestPartition:
    def test_every_standard_model_packs(self):
        # Since the per-lane latch word landed, SOF packs too: the
        # whole standard library runs word-packed.
        for name, model_cls in MODEL_REGISTRY.items():
            for fault_case in model_cls().instances(3):
                assert packs(fault_case), (
                    name, fault_case.name,
                )

    def test_unknown_instance_types_are_unpackable(self):
        class CustomInstance(NullFaultInstance):
            pass

        custom = case("custom", CustomInstance)
        assert not packs(custom)

    def test_subclasses_do_not_inherit_the_encoding(self):
        # A subclass may override any hook; exact-type dispatch keeps
        # the fallback honest.
        from repro.faults.instances import StuckAtInstance

        class WeirdStuck(StuckAtInstance):
            def on_read(self, memory, address):
                return "-"

        weird = case("weird", lambda: WeirdStuck(0, 1))
        assert not packs(weird)

    def test_partition_preserves_order(self):
        class CustomInstance(NullFaultInstance):
            pass

        saf = FaultList.from_names("SAF").instances(3)
        custom = [case("custom@0", CustomInstance),
                  case("custom@1", CustomInstance)]
        mixed = [saf[0], custom[0], saf[1], custom[1]]
        simulation, unpackable, routes = pack_cases(mixed, 3)
        assert simulation.cases == (saf[0], saf[1])
        assert unpackable == custom
        assert routes == (True, False, True, False)
        # No packable case: no simulation.
        assert pack_cases(custom, 3) == (None, custom, (False, False))

    def test_packed_simulation_rejects_unpackable_cases(self):
        class CustomInstance(NullFaultInstance):
            pass

        unknown = case("unknown", CustomInstance)
        with pytest.raises(UnpackableFaultError, match="CustomInstance"):
            PackedSimulation([unknown], 3)


# -- per-model packed semantics ------------------------------------------------


MODEL_TESTS = {
    "SAF": MATS,
    "TF": MATS_PLUS_PLUS,
    "RDF": MARCH_C_MINUS,
    "DRDF": parse_march("{up(w0); up(r0,r0,w1); down(r1,r1)}"),
    "IRF": MARCH_C_MINUS,
    "WDF": parse_march("{up(w0); up(w0,r0,w1); down(w1,r1)}"),
    "DRF": parse_march("{up(w0); Del; up(r0,w1); Del; down(r1)}"),
    "SOF": MARCH_C_MINUS,
    "ADF": MARCH_C_MINUS,
    "CFIN": MARCH_C_MINUS,
    "CFID": MARCH_C_MINUS,
    "CFST": MARCH_C_MINUS,
    "CFRD": MARCH_C_MINUS,
}


@pytest.mark.parametrize("model_name", sorted(MODEL_TESTS))
def test_packed_verdicts_match_serial_per_model(model_name):
    """Each packable model agrees with the scalar engine, detected or
    not, on a test chosen to exercise its trigger (including partial
    misses: MATS against TF, MarchC- against everything)."""
    test = MODEL_TESTS[model_name]
    for size in (3, 4):
        cases = FaultList.from_names(model_name).instances(size)
        assert packed_verdicts(test, cases, size) == serial_verdicts(
            test, cases, size
        ), (model_name, size)


class TestStuckOpenLatch:
    """The per-lane sense-amp latch word must mirror the scalar SOF."""

    def test_sof_packed_verdicts_match_serial_across_tests(self):
        tests = [
            MATS,
            MATS_PLUS_PLUS,
            MARCH_C_MINUS,
            # A read of another cell between writing and reading the
            # open cell reloads the latch: the observed value depends
            # on address order, the classic SOF trap.
            parse_march("{up(w0); up(r0); up(w1); down(r1)}"),
            parse_march("{up(w0); down(r0,w1,r1)}"),
        ]
        for size in (3, 4, 5):
            cases = FaultList.from_names("SOF").instances(size)
            for test in tests:
                assert packed_verdicts(test, cases, size) == serial_verdicts(
                    test, cases, size
                ), (str(test), size)

    def test_latch_reload_requires_definite_values(self):
        # Reads of non-initialized ('-') cells must not reload the
        # latch; only the power-up content can be observed.
        test = parse_march("{up(r); up(r0)}")
        cases = FaultList.from_names("SOF").instances(3)
        assert packed_verdicts(test, cases, 3) == serial_verdicts(
            test, cases, 3
        )

    def test_sof_mixes_with_other_packed_models_in_one_word(self):
        cases = FaultList.from_names("SAF", "SOF", "CFID").instances(3)
        assert packed_verdicts(MARCH_C_MINUS, cases, 3) == serial_verdicts(
            MARCH_C_MINUS, cases, 3
        )


def test_packed_partial_detection_is_per_case():
    # MATS misses TF-down but a march with a second read pass catches
    # it; verdicts must differ per case, not per batch.
    cases = FaultList.from_names("TF").instances(3)
    verdicts = packed_verdicts(MATS, cases, 3)
    assert True in verdicts or False in verdicts
    assert verdicts == serial_verdicts(MATS, cases, 3)


# -- engine internals ----------------------------------------------------------


class TestPackedSimulation:
    def test_good_lane_is_silent_on_well_formed_tests(self):
        cases = FaultList.from_names("SAF").instances(3)
        sim = PackedSimulation(cases, 3)
        for variant in MARCH_C_MINUS.concrete_order_variants():
            assert sim.run_variant(variant)[1] & 1 == 0

    def test_good_lane_flags_malformed_expectations(self):
        cases = FaultList.from_names("SAF").instances(3)
        sim = PackedSimulation(cases, 3)
        malformed = parse_march("{up(w1); up(r0)}")
        (variant,) = malformed.concrete_order_variants()
        assert sim.run_variant(variant)[1] & 1 == 1

    def test_worst_case_requires_every_order_variant(self):
        # {any(w0); any(r0,w1); any(r1,w0)} detects TF-up ascending but
        # the worst case must conjoin all realizations.
        test = parse_march("{any(w0); any(r0,w1); any(r1,w0); any(r0)}")
        cases = FaultList.from_names("TF").instances(3)
        assert packed_verdicts(test, cases, 3) == serial_verdicts(
            test, cases, 3
        )

    def test_one_simulation_serves_many_tests(self):
        cases = FaultList.from_names("SAF", "TF").instances(3)
        table = TransitionTable(PackedSimulation(cases, 3))
        for test in (MATS, MATS_PLUS_PLUS, MARCH_C_MINUS):
            assert table.worst_case_verdicts(test) == serial_verdicts(
                test, cases, 3
            )
        # All three start with ⇕(w0) from power-up: one engine run.
        assert table.hits.value >= 2

    def test_non_verifying_reads_still_disturb(self):
        # A plain r read must fire read-disturb side effects without
        # verifying; only the final r0 may detect.
        test = parse_march("{up(w0); up(r); up(r0)}")
        cases = FaultList.from_names("RDF").instances(3)
        assert packed_verdicts(test, cases, 3) == serial_verdicts(
            test, cases, 3
        )

    def test_rejects_empty_memory(self):
        with pytest.raises(ValueError):
            PackedSimulation([], 0)

    def test_case_masks_cover_all_variant_lanes(self):
        cases = FaultList.from_names("ADF").instances(3)  # ADF-C: 4 variants
        sim = PackedSimulation(cases, 3)
        # Lane 0 is the reference; every other lane belongs to one
        # case, and each case's variants take consecutive lanes.
        assert sim.lane_cases[0] == -1
        assert len(sim.lane_cases) == sim.lanes
        assert sim.lane_cases[1:] == [
            index for index, fault_case in enumerate(cases)
            for _ in fault_case.variants
        ]
