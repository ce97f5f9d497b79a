"""The per-lane packed engine, kept as a test oracle.

``LaneReferenceSimulation`` is the lane plan and ``run_variant`` that
:class:`~repro.simulator.bitengine.PackedSimulation` used before its
masks were coalesced per cell and role: every fault lane keeps its own
rule entry (a victim, a target or a trigger with a one-bit mask), and
a march operation walks those entries one by one.  It encodes the
lanes in the same order and speaks the same protocol (``power_up``,
``run_variant(test, words) -> (words, detected)``), so after every
element its detected mask and state words must equal the coalesced
engine's (``tests/simulator/test_lane_reference.py``).
"""

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.faults.instances import (
    CouplingIdempotentInstance,
    CouplingInversionInstance,
    CouplingStateInstance,
    DataRetentionInstance,
    DeadCellInstance,
    FaultCase,
    IncorrectReadInstance,
    MultiCellAccessInstance,
    ReadCouplingInstance,
    ReadDisturbInstance,
    SharedCellAccessInstance,
    StuckAtInstance,
    StuckOpenInstance,
    TransitionFaultInstance,
    WriteDisturbInstance,
    WrongCellAccessInstance,
)
from repro.faults.primitives import (
    Effect,
    FaultPrimitive,
    MaskTransition,
    Sensitization,
)
from repro.march.element import DelayElement, MarchElement
from repro.march.test import MarchTest
from repro.simulator.bitengine import Words

#: Victim-action sentinel: invert the victim instead of forcing a value.
INVERT = -1


class LanePlan:
    """Per-address dispatch tables with one rule entry per lane (only
    the address-decoder redirect and echo tables merge their lanes per
    target)."""

    def __init__(self, size: int, lanes: int) -> None:
        self.size = size
        self.lanes = lanes
        self.full = (1 << lanes) - 1
        n = size
        # Unconditional state masks (applied on every access of the cell).
        self.stuck0 = [0] * n
        self.stuck1 = [0] * n
        self.dead0 = [0] * n
        self.dead1 = [0] * n
        #: Lanes whose write to the cell is unconditionally lost
        #: (dead cells, writes redirected to another cell).
        self.write_lost = [0] * n
        # Conditional single-cell rules compiled from MaskTransition.
        #   write: (mask, trigger_value, old_value, flip_store, lose_write)
        #   read:  (mask, old_value, flip_store, flip_report)
        #   wait:  (cell, mask, old_value)  -- flip_store implied
        self.write_rules: List[List[Tuple[int, int, int, bool, bool]]] = [
            [] for _ in range(n)
        ]
        self.read_rules: List[List[Tuple[int, int, bool, bool]]] = [
            [] for _ in range(n)
        ]
        self.wait_rules: List[Tuple[int, int, int]] = []
        # Coupling groups.  cf_write[a][v]: victims updated when a write
        # of v to a completes an aggressor transition (old == 1-v);
        # action is a forced value or INVERT.
        self.cf_write: List[Tuple[list, list]] = [([], []) for _ in range(n)]
        #: CFst aggressor side: victims forced when a holds the state.
        self.cfst_write: List[Tuple[list, list]] = [([], []) for _ in range(n)]
        #: CFst victim side: (aggressor, state, forced, mask) re-enforced
        #: after any write to the victim cell.
        self.cfst_victim: List[List[Tuple[int, int, int, int]]] = [
            [] for _ in range(n)
        ]
        #: CFrd: victims forced by any read of the aggressor.
        self.cf_read: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
        # Stuck-open sense-amplifier latch: per-lane shared read state.
        #: Lanes whose open cell is ``c``: reads of ``c`` report the
        #: latch word and writes to ``c`` are lost (also in write_lost).
        self.sof_cell = [0] * n
        #: Union of all SOF lanes; a read of any *other* cell reloads
        #: their latch bit with the value the lane observed.
        self.sof_lanes = 0
        #: Power-up latch content per lane (adversarially enumerated).
        self.sof_latch_init = 0
        # Address-decoder rules, one ``{target: mask}`` dict per cell
        # with every lane's mask ORed in (exact: each update is per
        # lane and the lane masks are disjoint).  Writes of the cell
        # land on the target (redirect: ADF-B/D) or also reach it
        # (echo: ADF-C); reads of the cell report the target (ADF-B/D).
        self.write_redirect: List[Dict[int, int]] = [{} for _ in range(n)]
        self.write_echo: List[Dict[int, int]] = [{} for _ in range(n)]
        self.read_redirect: List[Dict[int, int]] = [{} for _ in range(n)]
        self.read_combine: List[List[Tuple[int, str, int]]] = [
            [] for _ in range(n)
        ]

    def add_rule(self, cell: int, mask: int, rule: MaskTransition) -> None:
        """Register a compiled :class:`MaskTransition` for ``mask`` lanes."""
        if rule.trigger == "w":
            self.write_rules[cell].append(
                (mask, rule.trigger_value, rule.old_value, rule.flip_store,
                 rule.lose_write)
            )
        elif rule.trigger == "r":
            self.read_rules[cell].append(
                (mask, rule.old_value, rule.flip_store, rule.flip_report)
            )
        else:
            self.wait_rules.append((cell, mask, rule.old_value))


# -- instance encoders ---------------------------------------------------------
#
# Dispatch is on the *exact* instance type: a subclass may override any
# behavioural hook, so it must fall back to the scalar engine rather
# than silently inherit its base encoding.


def _enc_stuck(inst: StuckAtInstance, plan: LanePlan, m: int) -> None:
    (plan.stuck1 if inst.value else plan.stuck0)[inst.cell] |= m


def _enc_dead(inst: DeadCellInstance, plan: LanePlan, m: int) -> None:
    (plan.dead1 if inst.float_value else plan.dead0)[inst.cell] |= m
    plan.write_lost[inst.cell] |= m


def _enc_transition(inst: TransitionFaultInstance, plan: LanePlan,
                    m: int) -> None:
    sens = Sensitization.UP if inst.rising else Sensitization.DOWN
    primitive = FaultPrimitive(sens, Effect.NO_CHANGE, two_cell=False)
    for rule in primitive.mask_transitions():
        plan.add_rule(inst.cell, m, rule)


def _read_disturb_rule(value: int) -> MaskTransition:
    """RDF as the single-cell ``<r, forced>`` primitive."""
    effect = Effect.FORCE_0 if value else Effect.FORCE_1
    primitive = FaultPrimitive(Sensitization.READ, effect, two_cell=False)
    (rule,) = primitive.mask_transitions()
    return rule


def _enc_read_disturb(inst: ReadDisturbInstance, plan: LanePlan,
                      m: int) -> None:
    rule = _read_disturb_rule(inst.value)
    if inst.deceptive:  # DRDF: the flip happens but the read reports old
        rule = replace(rule, flip_report=False)
    plan.add_rule(inst.cell, m, rule)


def _enc_incorrect_read(inst: IncorrectReadInstance, plan: LanePlan,
                        m: int) -> None:
    # IRF: the wrong value is reported but the cell keeps its state.
    rule = replace(_read_disturb_rule(inst.value), flip_store=False)
    plan.add_rule(inst.cell, m, rule)


def _enc_write_disturb(inst: WriteDisturbInstance, plan: LanePlan,
                       m: int) -> None:
    # Non-transition write flips the cell: no <S,F> sensitization names
    # "a write of v onto v", so the rule is built directly.
    plan.add_rule(
        inst.cell, m,
        MaskTransition("w", old_value=inst.value, trigger_value=inst.value,
                       flip_store=True),
    )


def _enc_retention(inst: DataRetentionInstance, plan: LanePlan,
                   m: int) -> None:
    effect = Effect.FORCE_0 if inst.from_value else Effect.FORCE_1
    primitive = FaultPrimitive(Sensitization.WAIT, effect, two_cell=False)
    for rule in primitive.mask_transitions():
        plan.add_rule(inst.cell, m, rule)


def _enc_stuck_open(inst: StuckOpenInstance, plan: LanePlan, m: int) -> None:
    # SOF: the cell line is open.  Writes to the cell are lost; reads
    # of it report the lane's sense-amplifier latch bit, which every
    # read of a healthy cell reloads with the value it returned.  The
    # freshly-constructed instance's ``latch`` is the power-up content.
    plan.write_lost[inst.cell] |= m
    plan.sof_cell[inst.cell] |= m
    plan.sof_lanes |= m
    if inst.latch:
        plan.sof_latch_init |= m


def _enc_cfid(inst: CouplingIdempotentInstance, plan: LanePlan,
              m: int) -> None:
    written = 1 if inst.rising else 0
    plan.cf_write[inst.aggressor][written].append(
        (inst.victim, inst.force_value, m)
    )


def _enc_cfin(inst: CouplingInversionInstance, plan: LanePlan,
              m: int) -> None:
    written = 1 if inst.rising else 0
    plan.cf_write[inst.aggressor][written].append((inst.victim, INVERT, m))


def _enc_cfst(inst: CouplingStateInstance, plan: LanePlan, m: int) -> None:
    plan.cfst_write[inst.aggressor][inst.agg_state].append(
        (inst.victim, inst.forced_value, m)
    )
    plan.cfst_victim[inst.victim].append(
        (inst.aggressor, inst.agg_state, inst.forced_value, m)
    )


def _enc_cfrd(inst: ReadCouplingInstance, plan: LanePlan, m: int) -> None:
    plan.cf_read[inst.aggressor].append((inst.victim, inst.forced, m))


def _redirect(plan: LanePlan, cell: int, target: int, m: int) -> None:
    """Accesses to ``cell`` land on ``target`` for the ``m`` lanes."""
    plan.write_lost[cell] |= m
    for rules in (plan.write_redirect[cell], plan.read_redirect[cell]):
        rules[target] = rules.get(target, 0) | m


def _enc_wrong_cell(inst: WrongCellAccessInstance, plan: LanePlan,
                    m: int) -> None:
    _redirect(plan, inst.a, inst.b, m)  # ADF-B: accesses to a land on b


def _enc_shared_cell(inst: SharedCellAccessInstance, plan: LanePlan,
                     m: int) -> None:
    _redirect(plan, inst.b, inst.a, m)  # ADF-D: accesses to b land on a


def _enc_multi_cell(inst: MultiCellAccessInstance, plan: LanePlan,
                    m: int) -> None:
    # ADF-C: writes to a also reach b; conflicting reads combine.
    echo = plan.write_echo[inst.a]
    echo[inst.b] = echo.get(inst.b, 0) | m
    plan.read_combine[inst.a].append((inst.b, inst.read_model, m))


_ENCODERS: Dict[Type, Callable[[object, LanePlan, int], None]] = {
    StuckAtInstance: _enc_stuck,
    DeadCellInstance: _enc_dead,
    TransitionFaultInstance: _enc_transition,
    ReadDisturbInstance: _enc_read_disturb,
    IncorrectReadInstance: _enc_incorrect_read,
    WriteDisturbInstance: _enc_write_disturb,
    DataRetentionInstance: _enc_retention,
    StuckOpenInstance: _enc_stuck_open,
    CouplingIdempotentInstance: _enc_cfid,
    CouplingInversionInstance: _enc_cfin,
    CouplingStateInstance: _enc_cfst,
    ReadCouplingInstance: _enc_cfrd,
    WrongCellAccessInstance: _enc_wrong_cell,
    SharedCellAccessInstance: _enc_shared_cell,
    MultiCellAccessInstance: _enc_multi_cell,
}


class LaneReferenceSimulation:
    """The pre-coalescing ``PackedSimulation``: one rule entry per lane."""

    def __init__(self, cases: Sequence[FaultCase], size: int) -> None:
        self.size = size
        self.cases = tuple(cases)
        lane_specs = []
        for case_index, case in enumerate(self.cases):
            for factory in case.variants:
                lane_specs.append((case_index, factory()))
        self.lanes = 1 + len(lane_specs)
        plan = LanePlan(size, self.lanes)
        for bit, (_, instance) in enumerate(lane_specs, start=1):
            _ENCODERS[type(instance)](instance, plan, 1 << bit)
        self.plan = plan
        self.full = plan.full
        self.power_up = (0,) * (2 * size) + (plan.sof_latch_init,)

    def run_variant(
        self, test: MarchTest, words: Optional[Words] = None
    ) -> Tuple[Words, int]:
        """Run one concrete order realization from ``words`` (default
        ``power_up``): ``(end state words, detected mask)``.

        Bit ``L`` of the mask is set when lane ``L`` observed at least
        one verifying read whose definite value differed from the
        expectation -- exactly the scalar engine's ``MarchRun.detected``
        per lane.  Bit 0 (the fault-free reference) only sets for
        malformed tests expecting values the good machine never holds.
        """
        if words is None:
            words = self.power_up
        plan = self.plan
        n = self.size
        full = plan.full
        value = list(words[:n])
        defined = list(words[n:2 * n])
        detected = 0
        stuck0, stuck1 = plan.stuck0, plan.stuck1
        dead0, dead1 = plan.dead0, plan.dead1
        sof_lanes = plan.sof_lanes
        latch = words[-1]
        for element in test.elements:
            if isinstance(element, DelayElement):
                for cell, mask, old in plan.wait_rules:
                    fired = mask & defined[cell] & (
                        value[cell] if old else ~value[cell]
                    )
                    if fired:
                        value[cell] ^= fired
                continue
            assert isinstance(element, MarchElement)
            ops = element.ops
            for a in element.order.addresses(n):
                for op in ops:
                    v = op.value
                    if op.is_write:
                        old_val = value[a]
                        old_def = defined[a]
                        lost = plan.write_lost[a]
                        flip = 0
                        for (mask, trigger, old, flip_store,
                             lose) in plan.write_rules[a]:
                            if trigger != v:
                                continue
                            fired = mask & old_def & (
                                old_val if old else ~old_val
                            )
                            if not fired:
                                continue
                            if lose:
                                lost |= fired
                            elif flip_store:
                                flip |= fired
                        written = full & ~lost
                        value_mask = full if v else 0
                        new_val = (old_val & lost) | (value_mask & written)
                        s0, s1 = stuck0[a], stuck1[a]
                        if s0 or s1:
                            new_val = (new_val & ~s0) | s1
                        if flip:
                            new_val ^= flip
                        value[a] = new_val
                        defined[a] = old_def | written
                        for target, mask in plan.write_redirect[a].items():
                            value[target] = (
                                (value[target] & ~mask) | (value_mask & mask)
                            )
                            defined[target] |= mask
                        for other, mask in plan.write_echo[a].items():
                            value[other] = (
                                (value[other] & ~mask) | (value_mask & mask)
                            )
                            defined[other] |= mask
                        coupled = plan.cf_write[a][v]
                        if coupled:
                            # The aggressor transition completes iff the
                            # old value was the complement of the write.
                            transit = old_def & (old_val if v == 0
                                                 else ~old_val)
                            if transit:
                                for victim, action, mask in coupled:
                                    fired = mask & transit
                                    if not fired:
                                        continue
                                    if action == INVERT:
                                        value[victim] ^= fired & defined[victim]
                                    elif action:
                                        value[victim] |= fired
                                        defined[victim] |= fired
                                    else:
                                        value[victim] &= ~fired
                                        defined[victim] |= fired
                        for victim, forced, mask in plan.cfst_write[a][v]:
                            if forced:
                                value[victim] |= mask
                            else:
                                value[victim] &= ~mask
                            defined[victim] |= mask
                        for (agg, held_state, forced,
                             mask) in plan.cfst_victim[a]:
                            held = mask & defined[agg] & (
                                value[agg] if held_state else ~value[agg]
                            )
                            if not held:
                                continue
                            if forced:
                                value[a] |= held
                            else:
                                value[a] &= ~held
                        continue
                    # -- read ------------------------------------------------
                    raw_val = value[a]
                    raw_def = defined[a]
                    reported = raw_val
                    reported_def = raw_def
                    for mask, old, flip_store, flip_report in plan.read_rules[a]:
                        fired = mask & raw_def & (raw_val if old else ~raw_val)
                        if not fired:
                            continue
                        if flip_store:
                            value[a] ^= fired
                        if flip_report:
                            reported ^= fired
                    s0, s1 = stuck0[a], stuck1[a]
                    d0, d1 = dead0[a], dead1[a]
                    if s0 or s1 or d0 or d1:
                        force0 = s0 | d0
                        force1 = s1 | d1
                        reported = (reported & ~force0) | force1
                        reported_def |= force0 | force1
                    for source, mask in plan.read_redirect[a].items():
                        reported = (reported & ~mask) | (value[source] & mask)
                        reported_def = (
                            (reported_def & ~mask) | (defined[source] & mask)
                        )
                    for other, model, mask in plan.read_combine[a]:
                        if model == "own":
                            sub_val, sub_def = value[a], defined[a]
                        elif model == "other":
                            sub_val, sub_def = value[other], defined[other]
                        elif model == "and":
                            sub_val = value[a] & value[other]
                            sub_def = defined[a] & defined[other]
                        else:  # "or"
                            sub_val = value[a] | value[other]
                            sub_def = defined[a] & defined[other]
                        reported = (reported & ~mask) | (sub_val & mask)
                        reported_def = (reported_def & ~mask) | (sub_def & mask)
                    for victim, forced, mask in plan.cf_read[a]:
                        if forced:
                            value[victim] |= mask
                        else:
                            value[victim] &= ~mask
                        defined[victim] |= mask
                    if sof_lanes:
                        sof_here = plan.sof_cell[a]
                        if sof_here:
                            # Reading the open cell reports the latch
                            # (always a definite binary value).
                            reported = (reported & ~sof_here) | (
                                latch & sof_here
                            )
                            reported_def |= sof_here
                        tracking = sof_lanes & ~sof_here
                        if tracking:
                            # Reading a healthy cell reloads the latch
                            # with the observed value where definite.
                            reloaded = tracking & defined[a]
                            if reloaded:
                                latch = (latch & ~reloaded) | (
                                    value[a] & reloaded
                                )
                    if v is not None:
                        expected = full if v else 0
                        detected |= (reported ^ expected) & reported_def
        return (*value, *defined, latch), detected
