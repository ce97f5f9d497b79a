"""Bit-parallel (word-packed) march-test fault simulation.

The scalar engine (:mod:`repro.simulator.engine`) walks a march test
one address and one fault instance at a time -- O(n) Python operations
per march operation per fault case.  This module packs many simulation
*lanes* into arbitrary-precision Python integers instead: lane 0 is the
fault-free reference machine, lanes 1..k hold one behavioural variant
of one fault case each.  Cell ``c`` of the packed memory is a bitmask
pair ``(value[c], defined[c])`` whose bit ``L`` is lane ``L``'s stored
value and whether that value is a definite binary value rather than
``'-'``.  One march operation then advances *every* lane with a
constant number of bitwise AND/OR/XOR operations on those words, and a
verifying read checks all lanes at once with a single XOR against the
expected-value mask::

    mismatch = (reported ^ expected_mask) & reported_defined

so a size-n memory carrying hundreds of fault instances costs O(ops)
word operations per march element instead of O(ops * n * k) scalar
steps -- the classic bit-parallel fault-simulation trick.

Lane encoding
-------------
A fault instance is *lane-packable* when its behaviour is expressible
as bitwise updates conditioned only on fixed cells of its own lane:

* conditional single-cell faults (TF, RDF, DRDF, IRF, WDF, DRF) compile
  to :class:`~repro.faults.primitives.MaskTransition` rules;
* state faults (SA, the ADF type-A dead cell) become forced-value
  masks applied on every access of their cell;
* coupling faults (CFid, CFin, CFst, CFrd) and address-decoder faults
  B/C/D are *two-cell* lanes: each has one aggressor cell, whose write
  or read triggers it (the accessed cell of an ADF), and one victim
  cell, which it forces, inverts or reads in place of the aggressor;
* the stuck-open fault (SOF) packs through a dedicated per-lane *latch
  word*: each SOF lane carries one bit of shared sense-amplifier state
  that every read of a healthy cell reloads and every read of the open
  cell reports, so the "previous read" coupling that is non-local in
  cell space is still one bit per lane in lane space.

Every lane's bit is ORed straight into the :class:`LanePlan` mask of
its role at the cell it is keyed by: one mask per single-cell rule
shape, and for two-cell lanes one per role of the aggressor (the
write fan-out per written value, the routed read source, the CFrd
forcing) or the victim (the CFst hold).  Each update is per lane and
the lanes of different instances are disjoint, so the merge is exact.
The two-cell lanes follow the SOF latch's idea: during a run the
engine holds every lane's victim cell as one bit of two *lane words*
(value, defined), and a CFst lane's aggressor cell in two more, so a
fan-out, a hold, a routed read or a CFrd forcing is a few operations
on those words however many neighbours the cell has: at size 16 over
the twelve base models a write works through 2 merged rules and 9
role masks and a read through 6 rules and 6 role masks.

Unknown instance types (user-defined faults, composite multi-defect
injections) are conservatively unpackable: a subclass may override any
behavioural hook, so only exactly-known types are encoded.
:func:`pack_cases` routes a case list by that rule and encodes its
packable cases in one pass, and the ``bitparallel`` kernel backend
routes unpackable cases to the scalar serial engine (see
:mod:`repro.kernel.backends`).

Order realizations
------------------
A packed state is one immutable tuple of :data:`Words`: the ``value``
words, the ``defined`` words, then the SOF latch word.
:meth:`PackedSimulation.run_variant` runs a segment from given words
(default :attr:`~PackedSimulation.power_up`) and returns its end words
with its detected mask.

A run is a pure function of the state words and the elements, so a
:class:`TransitionTable` over a simulation memoizes it element by
element and runs the engine only for (state, element) pairs it has
not seen.  Every packed walk goes through one: the verifier steps its
candidates through its table, and the ``bitparallel`` backend keeps
one table per lane plan, which every test of a sweep over that plan
shares.  :meth:`TransitionTable.worst_case_verdicts` walks a test's
``⇕`` realizations as one shared-prefix tree
(:mod:`repro.simulator.ordertree`): fixed-order runs execute once per
tree node, the UP and DOWN branch of a ``⇕`` element start from the
same words, and equal (step, words, detected) nodes merge.  The scalar
engine keeps enumerating every realization as the reference.

Equivalence with the scalar engine over the full standard fault
library is property-tested in ``tests/kernel/test_equivalence.py``;
element by element against the per-lane engine this plan replaced in
``tests/simulator/test_lane_reference.py``; the walk against the
realization enumeration in ``tests/simulator/test_ordertree.py``.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..faults.instances import (
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
from ..faults.primitives import (
    Effect,
    FaultPrimitive,
    MaskTransition,
    Sensitization,
)
from ..march.element import DelayElement, MarchElement
from ..march.test import MarchTest
from ..telemetry.metrics import Counter
from .ordertree import walk_realizations

# Roles of the per-cell role mask lists of a lane plan (list indices).
# A write fan-out forces the victims of the written cell's lanes
# unconditionally, or only for the lanes whose write completes the
# aggressor transition (``old == 1 - v``: CFid forces, CFin inverts a
# definite value).
FORCE1, FORCE0, TRANSIT_FORCE1, TRANSIT_FORCE0, TRANSIT_INVERT = range(5)
#: A read-source role: what a read of the routed cell reports (ADF-B/D
#: and ADF-C "other" report the lane's victim cell, ADF-C "own" the
#: read cell, "and"/"or" the wired combination of both).
OTHER, OWN, AND, OR = range(4)


#: Single-cell rule masks of one cell keyed by rule shape.
_Rules = Dict[Tuple[int, bool, bool], int]

#: The packed state of a run: the ``value`` words of cells ``0..n-1``,
#: their ``defined`` words, then the per-lane SOF latch word.
Words = Tuple[int, ...]


class UnpackableFaultError(TypeError):
    """A fault instance has no word-packed lane encoding."""


class LanePlan:
    """Per-cell bitwise dispatch masks for one packed lane set.

    Single-cell lanes keep masks keyed by their cell and rule shape.
    Every two-cell lane (CFid, CFin, CFst, CFrd, ADF-B/C/D) has exactly
    one aggressor cell, the one whose access triggers it, and one victim
    cell, the one it acts on or reads: :meth:`pair` records them in the
    per-cell :attr:`aggressor` and :attr:`victim` masks, and
    :meth:`check_pairs` refuses a lane named under a second cell of
    either role.  So each role of a
    cell is one mask with the bits of every lane in that role ORed in,
    whichever neighbour the lane's other cell is: a write's fan-out per
    written value, a CFst victim's hold, a read's routed source and its
    CFrd forcing.  The engine keeps every lane's victim cell in one pair
    of lane words during a run, so a march operation costs a constant
    number of word operations per role, however many neighbours and
    lanes the cell has.

    Built once per (fault cases, size) pair and immutable afterwards;
    every order-variant run shares the plan and keeps its own
    ``value``/``defined`` words, so a plan can be cached and reused
    across many candidate tests probing the same cases.
    """

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
        # Conditional single-cell rules compiled from MaskTransition,
        # one mask per rule shape:
        #   write_rules[v][cell]: {(old_value, flip_store, lose_write): mask}
        #   read_rules[cell]:     {(old_value, flip_store, flip_report): mask}
        #   wait_rules:           {(cell, old_value): mask}  -- flip implied
        self.write_rules: Tuple[List[_Rules], ...] = (
            [{} for _ in range(n)], [{} for _ in range(n)]
        )
        self.read_rules: List[_Rules] = [{} for _ in range(n)]
        self.wait_rules: Dict[Tuple[int, int], int] = {}
        #: The two-cell lanes whose aggressor / victim is the cell.
        self.aggressor = [0] * n
        self.victim = [0] * n
        #: fanout[v][cell]: [FORCE1, FORCE0, TRANSIT_FORCE1,
        #: TRANSIT_FORCE0, TRANSIT_INVERT] -- what a write of ``v`` to
        #: the aggressor cell does to the victim: ADF-B/D redirects and
        #: ADF-C echoes (a forced ``v``), CFst aggressors holding ``v``
        #: and CFid/CFin aggressor transitions to ``v``.
        self.fanout: Tuple[List[List[int]], ...] = (
            [[0] * 5 for _ in range(n)], [[0] * 5 for _ in range(n)]
        )
        #: hold[cell]: four CFst masks, index ``2 * held state + forced
        #: value``, re-enforced after any write to the victim cell, and
        #: ``cfst_aggressor[cell]`` the CFst lanes whose aggressor is the
        #: cell.
        self.hold = [[0] * 4 for _ in range(n)]
        self.cfst_aggressor = [0] * n
        #: read_source[cell]: [OTHER, OWN, AND, OR] -- what a read of the
        #: aggressor cell reports on its routed lanes (ADF-B/C/D), and
        #: ``read_routed[cell]`` the union of those lanes.
        self.read_source = [[0] * 4 for _ in range(n)]
        self.read_routed = [0] * n
        #: read_force[cell]: [FORCE1, FORCE0] forced on the victim by any
        #: read of the aggressor cell (CFrd).
        self.read_force = [[0] * 2 for _ in range(n)]
        # Stuck-open sense-amplifier latch: per-lane shared read state.
        #: Lanes whose open cell is ``c``: reads of ``c`` report the
        #: latch word and writes to ``c`` are lost (also in write_lost).
        self.sof_cell = [0] * n
        #: Union of all SOF lanes; a read of any *other* cell reloads
        #: their latch bit with the value the lane observed.
        self.sof_lanes = 0
        #: Power-up latch content per lane (adversarially enumerated).
        self.sof_latch_init = 0

    def add_rule(self, cell: int, mask: int, rule: MaskTransition) -> None:
        """Register a compiled :class:`MaskTransition` for ``mask`` lanes."""
        if rule.trigger == "w":
            rules = self.write_rules[rule.trigger_value][cell]
            key = (rule.old_value, rule.flip_store, rule.lose_write)
        elif rule.trigger == "r":
            rules = self.read_rules[cell]
            key = (rule.old_value, rule.flip_store, rule.flip_report)
        else:
            rules = self.wait_rules
            key = (cell, rule.old_value)
        rules[key] = rules.get(key, 0) | mask

    def pair(self, aggressor: int, victim: int, mask: int) -> None:
        """The ``mask`` lanes are two-cell lanes triggered at
        ``aggressor`` and acting on ``victim`` (:meth:`check_pairs`
        refuses a lane named under a second cell)."""
        self.aggressor[aggressor] |= mask
        self.victim[victim] |= mask

    def check_pairs(self) -> None:
        """Refuse a two-cell lane named under a second aggressor or
        victim cell, or under one cell in both roles.

        A lane may take several roles, but at one aggressor and one
        victim cell: the engine carries each lane's victim cell as one
        bit of its lane words, so any other lane would be silently
        mis-simulated.
        """
        for role, masks in (("aggressor", self.aggressor),
                            ("victim", self.victim)):
            seen = 0
            for cell, mask in enumerate(masks):
                twice = seen & mask
                if twice:
                    raise ValueError(
                        f"lanes {twice:#x} are paired under a second {role}"
                        f" cell ({cell}); a two-cell lane has one aggressor"
                        " and one victim cell"
                    )
                seen |= mask
        for cell, (lanes, victims) in enumerate(
            zip(self.aggressor, self.victim)
        ):
            if lanes & victims:
                raise ValueError(
                    f"lanes {lanes & victims:#x} name cell {cell} as both"
                    " aggressor and victim; a two-cell lane has two cells"
                )

    def route_read(self, cell: int, model: int, mask: int) -> None:
        """Reads of ``cell`` report under ``model`` for the ``mask``
        lanes, already paired with ``cell`` as their aggressor."""
        self.read_source[cell][model] |= mask
        self.read_routed[cell] |= mask


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
    role = TRANSIT_FORCE1 if inst.force_value else TRANSIT_FORCE0
    plan.pair(inst.aggressor, inst.victim, m)
    plan.fanout[written][inst.aggressor][role] |= m


def _enc_cfin(inst: CouplingInversionInstance, plan: LanePlan,
              m: int) -> None:
    written = 1 if inst.rising else 0
    plan.pair(inst.aggressor, inst.victim, m)
    plan.fanout[written][inst.aggressor][TRANSIT_INVERT] |= m


def _enc_cfst(inst: CouplingStateInstance, plan: LanePlan, m: int) -> None:
    # Writing the held state to the aggressor forces the victim at once.
    role = FORCE1 if inst.forced_value else FORCE0
    plan.pair(inst.aggressor, inst.victim, m)
    plan.fanout[inst.agg_state][inst.aggressor][role] |= m
    plan.hold[inst.victim][2 * inst.agg_state + inst.forced_value] |= m
    plan.cfst_aggressor[inst.aggressor] |= m


def _enc_cfrd(inst: ReadCouplingInstance, plan: LanePlan, m: int) -> None:
    plan.pair(inst.aggressor, inst.victim, m)
    plan.read_force[inst.aggressor][FORCE1 if inst.forced else FORCE0] |= m


def _reach(plan: LanePlan, cell: int, target: int, m: int) -> None:
    """Writes to ``cell`` also land on ``target`` for the ``m`` lanes."""
    plan.pair(cell, target, m)
    plan.fanout[1][cell][FORCE1] |= m
    plan.fanout[0][cell][FORCE0] |= m


def _redirect(plan: LanePlan, cell: int, target: int, m: int) -> None:
    """Accesses to ``cell`` land on ``target`` for the ``m`` lanes."""
    plan.write_lost[cell] |= m
    _reach(plan, cell, target, m)
    plan.route_read(cell, OTHER, m)


def _enc_wrong_cell(inst: WrongCellAccessInstance, plan: LanePlan,
                    m: int) -> None:
    _redirect(plan, inst.a, inst.b, m)  # ADF-B: accesses to a land on b


def _enc_shared_cell(inst: SharedCellAccessInstance, plan: LanePlan,
                     m: int) -> None:
    _redirect(plan, inst.b, inst.a, m)  # ADF-D: accesses to b land on a


#: ADF-C read model -> read-source role.
_READ_MODELS = {"other": OTHER, "own": OWN, "and": AND, "or": OR}


def _enc_multi_cell(inst: MultiCellAccessInstance, plan: LanePlan,
                    m: int) -> None:
    # ADF-C: writes to a also reach b; conflicting reads combine.
    _reach(plan, inst.a, inst.b, m)
    plan.route_read(inst.a, _READ_MODELS[inst.read_model], m)


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


def _instances(case: FaultCase) -> List[object]:
    return [factory() for factory in case.variants]


def _packable(instances: Sequence[object]) -> bool:
    return all(type(instance) in _ENCODERS for instance in instances)


def pack_cases(
    cases: Sequence[FaultCase], size: int
) -> Tuple[Optional["PackedSimulation"], List[FaultCase], Tuple[bool, ...]]:
    """Route ``cases`` and pack the lane-packable ones in one pass.

    Returns the simulation of the packable cases (``None`` when there
    are none), the unpackable ones (in order) and each case's route
    (``True``: packed).  Every behavioural variant is instantiated
    once, for both the routing and the encoding.
    """
    packable: List[FaultCase] = []
    lanes: List[List[object]] = []
    unpackable: List[FaultCase] = []
    routes = []
    for case in cases:
        instances = _instances(case)
        packs = _packable(instances)
        routes.append(packs)
        if packs:
            packable.append(case)
            lanes.append(instances)
        else:
            unpackable.append(case)
    simulation = PackedSimulation(packable, size, lanes) if packable else None
    return simulation, unpackable, tuple(routes)


class PackedSimulation:
    """A lane-packed fault-simulation instance for one case set.

    Lane 0 is the fault-free reference machine; lanes ``1..k`` carry
    one behavioural variant of one fault case each.  The plan is
    read-only after construction, so one ``PackedSimulation`` serves
    any number of :meth:`run_variant` calls (different tests, different
    order realizations or segments of one).  It is the engine only: a
    :class:`TransitionTable` over it steps and walks tests.
    """

    def __init__(
        self,
        cases: Sequence[FaultCase],
        size: int,
        instances: Optional[Sequence[Sequence[object]]] = None,
    ) -> None:
        """``instances``, when given, holds each case's variant
        instances, one list per case (:func:`pack_cases` passes the
        ones it routed by), so no variant is instantiated twice."""
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.cases = tuple(cases)
        if instances is None:
            instances = [_instances(case) for case in self.cases]
        self.lanes = 1 + sum(map(len, instances))
        plan = LanePlan(size, self.lanes)
        #: The case index of each lane (the reference lane 0: -1); a
        #: case's variants take consecutive lanes, in case order.
        self.lane_cases = [-1]
        bit = 1
        for case_index, (case, variants) in enumerate(
            zip(self.cases, instances)
        ):
            for instance in variants:
                encoder = _ENCODERS.get(type(instance))
                if encoder is None:
                    raise UnpackableFaultError(
                        f"{type(instance).__name__} (case {case.name!r})"
                        " has no word-packed lane encoding; route it to"
                        " the scalar engine"
                    )
                encoder(instance, plan, 1 << bit)
                bit += 1
            self.lane_cases += [case_index] * len(variants)
        plan.check_pairs()
        self.plan = plan
        self.full = plan.full
        #: The state words of a fresh memory: every cell undefined, the
        #: SOF latches at their power-up content.
        self.power_up: Words = (0,) * (2 * size) + (plan.sof_latch_init,)
        # The cells a run loads into its lane words, with their lanes:
        # every two-cell lane's victim cell and every CFst aggressor.
        self._victim_cells = tuple(
            (cell, mask) for cell, mask in enumerate(plan.victim) if mask
        )
        self._cfst_cells = tuple(
            (cell, mask) for cell, mask in enumerate(plan.cfst_aggressor)
            if mask
        )

    # -- execution --------------------------------------------------------------

    def run_variant(
        self, test: MarchTest, words: Optional[Words] = None
    ) -> Tuple[Words, int]:
        """Run one concrete order realization from ``words`` (default
        :attr:`power_up`): ``(end state words, detected mask)``.

        Bit ``L`` of the mask is set when lane ``L`` observed at least
        one verifying read whose definite value differed from the
        expectation -- exactly the scalar engine's ``MarchRun.detected``
        per lane.  Bit 0 (the fault-free reference) only sets for
        malformed tests expecting values the good machine never holds.
        From a state other than power-up, ``test`` is a segment of a
        realization, and the mask holds only the segment's detections.

        During the run, bit ``L`` of the *lane words* ``vic_val`` /
        ``vic_def`` holds two-cell lane ``L``'s victim cell, and of
        ``agg_val`` / ``agg_def`` a CFst lane's aggressor cell.  A
        fan-out, a CFst hold or a CFrd forcing updates the victim words
        alone; a write to a victim cell updates both its cell words and
        the lane words, so the two differ only after such an effect
        (``touched``), and only then does a read of a victim cell take
        the lane words' bits or the run fold them back at its end.
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
        write_lost = plan.write_lost
        write_rules, read_rules = plan.write_rules, plan.read_rules
        aggressor, victim = plan.aggressor, plan.victim
        fanout, hold = plan.fanout, plan.hold
        cfst_aggressor, cfst_cells = plan.cfst_aggressor, self._cfst_cells
        read_source, read_routed = plan.read_source, plan.read_routed
        read_force = plan.read_force
        sof_lanes = plan.sof_lanes
        latch = words[-1]
        victim_cells = self._victim_cells
        vic_val = vic_def = agg_val = agg_def = 0
        for cell, mask in victim_cells:
            vic_val |= value[cell] & mask
            vic_def |= defined[cell] & mask
        for cell, mask in cfst_cells:
            agg_val |= value[cell] & mask
            agg_def |= defined[cell] & mask
        touched = False
        for element in test.elements:
            if isinstance(element, DelayElement):
                for (cell, old), mask in plan.wait_rules.items():
                    fired = mask & defined[cell] & (
                        value[cell] if old else ~value[cell]
                    )
                    if fired:
                        value[cell] ^= fired
                continue
            assert isinstance(element, MarchElement)
            ops = [(op.kind == "w", op.value) for op in element.ops]
            for a in element.order.addresses(n):
                for is_write, v in ops:
                    if is_write:
                        old_val = value[a]
                        old_def = defined[a]
                        lost = write_lost[a]
                        flip = 0
                        for (old, flip_store, lose), mask in (
                            write_rules[v][a].items()
                        ):
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
                        victims = victim[a]
                        if victims:
                            # No single-cell mask names a lane's victim
                            # cell: the write stores ``v`` there.
                            vic_val = (
                                vic_val | victims if v else vic_val & ~victims
                            )
                            vic_def |= victims
                            if cfst_cells:
                                # CFst: a victim holds the forced value
                                # while its aggressor holds the state.
                                h0f0, h0f1, h1f0, h1f1 = hold[a]
                                agg_inv = ~agg_val
                                one = agg_def & (
                                    (h1f1 & agg_val) | (h0f1 & agg_inv)
                                )
                                zero = agg_def & (
                                    (h1f0 & agg_val) | (h0f0 & agg_inv)
                                )
                                if one or zero:
                                    vic_val = (vic_val | one) & ~zero
                                    touched = True
                        if aggressor[a]:
                            one, zero, t_one, t_zero, t_invert = fanout[v][a]
                            if t_one or t_zero or t_invert:
                                # An aggressor transition completes iff
                                # the old value was the complement of
                                # the write.
                                transit = old_def & (
                                    ~old_val if v else old_val
                                )
                                one |= t_one & transit
                                zero |= t_zero & transit
                                t_invert &= transit & vic_def
                                if t_invert:
                                    vic_val ^= t_invert
                                    touched = True
                            if one or zero:
                                vic_val = (vic_val | one) & ~zero
                                vic_def |= one | zero
                                touched = True
                            holders = cfst_aggressor[a]
                            if holders:
                                agg_val = (
                                    agg_val | holders if v
                                    else agg_val & ~holders
                                )
                                agg_def |= holders
                        continue
                    # -- read ------------------------------------------------
                    raw_val = value[a]
                    raw_def = defined[a]
                    if touched:
                        victims = victim[a]
                        if victims:
                            raw_val ^= (raw_val ^ vic_val) & victims
                            raw_def ^= (raw_def ^ vic_def) & victims
                    reported = raw_val
                    reported_def = raw_def
                    for (old, flip_store, flip_report), mask in (
                        read_rules[a].items()
                    ):
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
                    if aggressor[a]:
                        routed = read_routed[a]
                        if routed:
                            # The routed lanes report their victim cell,
                            # their own cell (after the read-rule flips
                            # above) or the wired AND/OR of both.
                            other, own, both, either = read_source[a]
                            own_val = value[a]
                            own_def = defined[a]
                            got_val = (
                                vic_val & (other | either | (own_val & both))
                            ) | (own_val & (own | either))
                            got_def = (
                                vic_def & (other | (own_def & (both | either)))
                            ) | (own_def & own)
                            routed = ~routed
                            reported = (reported & routed) | got_val
                            reported_def = (reported_def & routed) | got_def
                        one, zero = read_force[a]
                        if one or zero:
                            vic_val = (vic_val | one) & ~zero
                            vic_def |= one | zero
                            touched = True
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
        if touched:
            for cell, mask in victim_cells:
                value[cell] ^= (value[cell] ^ vic_val) & mask
                defined[cell] ^= (defined[cell] ^ vic_def) & mask
        return (*value, *defined, latch), detected


#: Most transitions one :class:`TransitionTable` holds; on reaching it
#: the table starts over empty.  The minimality search below MarchC-'s
#: complexity (30,000 candidates, its budget, stepped down the grammar
#: tree in ~38.5k element steps) needs 1,384 distinct transitions at
#: every memory size from 2 to 6, so this is ~3x headroom, and a
#: verifier fed an unbounded candidate stream stays bounded in memory.
TRANSITION_TABLE_LIMIT = 4096

#: Most state bits one :class:`TransitionTable` holds, counted as one
#: state (``len(power_up)`` words of ``lanes`` bits) per entry: a wide
#: simulation holds fewer entries than :data:`TRANSITION_TABLE_LIMIT`.
#: The size-16 coverage sweep over 4,129 lanes (136k bits a state)
#: may hold 246 entries and needs 44; the verifier's tables at sizes
#: up to 6 stay bound by the entry count.
TRANSITION_TABLE_BITS = 2 ** 25


class TransitionTable:
    """A :class:`PackedSimulation` that runs each (state, element) pair
    once.

    The lane plan is read-only, so running one march element is a pure
    function of the packed state :data:`Words` and the element.  The
    table maps ``(words, element)`` to ``(next words, detected mask)``
    and offers the engine's protocol (``power_up``,
    ``run_variant(segment, words)``, as the walk of
    :mod:`repro.simulator.ordertree` uses it): a segment steps one
    element at a time through :meth:`step`, and only a pair not seen
    before runs the engine, as one :meth:`PackedSimulation.run_variant`
    over that element.  A caller that carries the words itself, like
    the minimality search down its grammar tree, calls :meth:`step`
    directly.

    Every packed walk goes through a table: the verifier's candidates
    collapse into a few hundred states, and the tests of a sweep share
    their prefixes -- every catalog test starts with ``⇕(w0)`` from
    power-up, and most go on with ``⇑(r0,w1)`` or ``⇓(r1,w0)`` -- so
    the twelve catalog tests of the size-16 sweep make 98 element
    steps over 44 distinct pairs.  A table holds at most
    :data:`TRANSITION_TABLE_LIMIT` entries and
    :data:`TRANSITION_TABLE_BITS` state bits, and starts over empty
    when full.
    """

    def __init__(
        self,
        simulation: PackedSimulation,
        hits: Optional[Counter] = None,
        misses: Optional[Counter] = None,
    ) -> None:
        self.simulation = simulation
        self.transitions: Dict[Tuple[Words, object], Tuple[Words, int]] = {}
        #: Element steps answered from the table, and those that ran
        #: the engine (the verifier passes its ``VerifyStats`` series).
        self.hits = hits if hits is not None else Counter()
        self.misses = misses if misses is not None else Counter()
        self.power_up = simulation.power_up
        #: Most entries the table holds before it starts over.
        self.limit = min(
            TRANSITION_TABLE_LIMIT,
            TRANSITION_TABLE_BITS // (len(self.power_up) * simulation.lanes),
        )

    def view(self, hits: Counter, misses: Counter) -> "TransitionTable":
        """A table over the same simulation and transitions that counts
        its steps in ``hits`` and ``misses``."""
        view = copy.copy(self)
        view.hits, view.misses = hits, misses
        return view

    def step(self, words: Words, element: object) -> Tuple[Words, int]:
        """Run ``element`` from the state ``words``: ``(next state
        words, detected mask)``, from the table when the pair was seen
        before."""
        step = self.transitions.get((words, element))
        if step is None:
            return self._miss(words, element)
        self.hits.value += 1
        return step

    def run_variant(
        self, test: MarchTest, words: Optional[Words] = None
    ) -> Tuple[Words, int]:
        """:meth:`PackedSimulation.run_variant`, one :meth:`step` per
        element."""
        if words is None:
            words = self.power_up
        step = self.step
        detected = 0
        for element in test.elements:
            words, found = step(words, element)
            detected |= found
        return words, detected

    def worst_case_verdicts(self, test: MarchTest) -> List[bool]:
        """Worst-case detection verdict per case of the simulation, in
        its case order.

        Matches the scalar kernel's semantics exactly: a case is
        detected only when **every** order realization of ``test``
        detects **every** behavioural variant lane.  The walk stops as
        soon as no fault lane is detected by every leaf so far.
        """
        simulation = self.simulation
        fault_lanes = simulation.full & ~1
        agreed = simulation.full

        def visit(detected: int) -> bool:
            nonlocal agreed
            agreed &= detected
            return not agreed & fault_lanes

        walk_realizations(self, test, visit)
        verdicts = [True] * len(simulation.cases)
        missed = fault_lanes & ~agreed
        if missed:
            # Only the missed lanes are visited: lane L is bit L, index
            # L of the reversed binary string.
            lane_cases = simulation.lane_cases
            find = format(missed, "b")[::-1].find
            lane = find("1")
            while lane >= 0:
                verdicts[lane_cases[lane]] = False
                lane = find("1", lane + 1)
        return verdicts

    def _miss(self, words: Words, element: object) -> Tuple[Words, int]:
        # Through the class attribute, so a wrapped engine (a profiler,
        # a run counter) sees every run the table makes.
        step = PackedSimulation.run_variant(
            self.simulation, MarchTest((element,)), words
        )
        transitions = self.transitions
        if len(transitions) >= self.limit:
            transitions.clear()
        transitions[(words, element)] = step
        self.misses.inc()
        return step
