"""NumPy lane-tiled bit-parallel march-test fault simulation.

The word-packed engine (:mod:`repro.simulator.bitengine`) packs one
simulation lane per bit of arbitrary-precision Python integers.  That
removes the per-fault-instance scalar loop, but every bitwise operation
still walks the whole bignum -- per-op cost grows linearly with the
lane count *through interpreter-level bignum arithmetic*, each op
allocating a fresh ``int``.  This module re-tiles the same lanes onto
fixed-width ``uint64`` NumPy arrays instead:

* the packed memory is a pair of arrays ``value``/``defined`` of shape
  ``(cells, tiles)`` where ``tiles = ceil(lanes / 64)``;
* lane 0 is the fault-free reference machine, lanes ``1..k`` carry one
  behavioural variant of one fault case each (identical lane layout to
  the bignum engine);
* one march operation advances every lane with a constant number of
  *vectorized* bitwise kernels over contiguous memory -- C loops at
  memory bandwidth, no per-op allocation of the whole lane state;
* a verifying read checks all lanes at once by XOR against the
  expected-mask array: ``detected |= (reported ^ expected) & defined``;
* the ``⇕`` realizations of a test are walked as one shared-prefix
  tree (:mod:`repro.simulator.ordertree`), with a :class:`TiledState`
  (value/defined planes plus the SOF latch tiles) copied only where a
  ``⇕`` element forks it -- the same walk as the bignum engine.

The lane *semantics* are not re-implemented: a
:class:`~repro.simulator.bitengine.PackedSimulation` is built first and
its :class:`~repro.simulator.bitengine.LanePlan` -- the per-address
dispatch tables compiled from :class:`~repro.faults.primitives.
MaskTransition`, the coupling/redirect groups and the SOF latch word --
is converted field by field into uint64 tile planes.  Because every
lane carries exactly one fault, the per-lane bit masks of distinct
rules are disjoint, which makes the conversion free to merge rules
that share a target (one vectorized update instead of a Python loop
per rule) without changing any lane's behaviour.

Two physical layouts are chosen automatically per simulation:

* **dense** (small memories): cross-cell effects (coupling victims,
  decoder redirects) are whole ``(cells, tiles)`` mask planes applied
  with full-array ops -- minimal dispatch overhead;
* **compact** (large memories, where dense planes per (cell, value)
  would not fit): the same effects as ``(row, tile, word)`` triples
  applied with fancy-indexed gather/scatter, so memory stays
  proportional to the fault population.

NumPy is an *optional* dependency (the ``[fast]`` extra).  Importing
this module without NumPy succeeds -- :func:`numpy_available` reports
the situation and any attempt to actually construct the engine raises
:class:`NumpyUnavailableError` with installation instructions; the
kernel backend layer degrades to the pure-Python ``bitparallel``
engine with a one-line warning (see :mod:`repro.kernel.backends`).

Equivalence with the bignum engine and the scalar engine over the full
standard fault library is property-tested in
``tests/kernel/test_equivalence.py`` and
``tests/simulator/test_tilengine.py`` (including lane counts that are
not multiples of 64, so the partial last tile is explicitly
exercised).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

try:  # NumPy ships as the optional [fast] extra.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via tests' import block
    _np = None

from ..faults.instances import FaultCase
from ..march.element import DelayElement, MarchElement
from ..march.test import MarchTest
from .bitengine import INVERT, LanePlan, PackedSimulation
from .ordertree import walk_realizations

#: Fixed tile width: one NumPy uint64 word holds 64 lanes.
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1

#: Above this many words per cross-cell mask plane (``cells * tiles``),
#: the conversion switches from dense planes to compact gather/scatter
#: triples: dense planes cost O(cells^2 * tiles) memory across all
#: per-(cell, value) programs, which is fine at size 8 and absurd at
#: size 256.
DENSE_WORD_LIMIT = 4096


class NumpyUnavailableError(ImportError):
    """The lane-tiled engine was requested but NumPy is not installed."""


def numpy_available() -> bool:
    """True when the optional NumPy dependency imported successfully."""
    return _np is not None


def numpy_version() -> Optional[str]:
    """The imported NumPy version, or ``None`` without NumPy."""
    return None if _np is None else _np.__version__


def require_numpy(feature: str = "the lane-tiled 'bitparallel-np' engine"):
    """Return the ``numpy`` module or raise a clear, actionable error."""
    if _np is None:
        raise NumpyUnavailableError(
            f"{feature} requires NumPy, which is not installed;"
            " install the optional extra (pip install 'repro[fast]' or"
            " pip install 'numpy>=1.24') or use the pure-Python"
            " 'bitparallel' backend instead"
        )
    return _np


# -- mask conversion helpers ---------------------------------------------------


def _tiles_of(mask: int, tiles: int):
    """A Python-int lane mask as a ``(tiles,)`` uint64 array."""
    return _np.array(
        [(mask >> (WORD_BITS * t)) & _WORD_MASK for t in range(tiles)],
        dtype=_np.uint64,
    )


def _split_words(mask: int) -> List[Tuple[int, int]]:
    """Non-zero ``(tile_index, word)`` pairs of a Python-int lane mask."""
    out = []
    tile = 0
    while mask:
        word = mask & _WORD_MASK
        if word:
            out.append((tile, word))
        mask >>= WORD_BITS
        tile += 1
    return out


class _Scatter:
    """Cross-cell *update* plane: ``target[row] op= mask`` for many rows.

    ``entries`` is a list of ``(row, python-int mask)`` pairs; rows may
    repeat (masks are OR-merged -- legal because lane masks of distinct
    rules are disjoint).  Dense layout stores one ``(cells, tiles)``
    plane; compact layout stores unique ``(row, tile)`` coordinate
    arrays plus their mask words, applied by fancy-indexed
    gather/scatter (uniqueness makes the read-modify-write safe).
    """

    __slots__ = ("plane", "rows", "tiles", "words")

    def __init__(self, entries, cells: int, tiles: int, dense: bool) -> None:
        merged = {}
        for row, mask in entries:
            if mask:
                merged[row] = merged.get(row, 0) | mask
        if dense:
            plane = _np.zeros((cells, tiles), dtype=_np.uint64)
            for row, mask in merged.items():
                plane[row] |= _tiles_of(mask, tiles)
            self.plane = plane
            self.rows = self.tiles = self.words = None
        else:
            coords = []
            for row, mask in merged.items():
                for tile, word in _split_words(mask):
                    coords.append((row, tile, word))
            self.plane = None
            self.rows = _np.array([c[0] for c in coords], dtype=_np.intp)
            self.tiles = _np.array([c[1] for c in coords], dtype=_np.intp)
            self.words = _np.array([c[2] for c in coords], dtype=_np.uint64)

    def or_into(self, target, gate=None) -> None:
        """``target[row] |= mask [& gate]`` for every entry."""
        if self.plane is not None:
            target |= self.plane if gate is None else self.plane & gate
            return
        words = self.words if gate is None else self.words & gate[self.tiles]
        patch = target[self.rows, self.tiles]
        patch |= words
        target[self.rows, self.tiles] = patch

    def andnot_into(self, target, gate=None) -> None:
        """``target[row] &= ~(mask [& gate])`` for every entry."""
        if self.plane is not None:
            target &= ~(self.plane if gate is None else self.plane & gate)
            return
        words = self.words if gate is None else self.words & gate[self.tiles]
        patch = target[self.rows, self.tiles]
        patch &= ~words
        target[self.rows, self.tiles] = patch

    def xor_defined_into(self, value, defined, gate) -> None:
        """``value[row] ^= mask & gate & defined[row]`` (CFin inversion)."""
        if self.plane is not None:
            value ^= self.plane & gate & defined
            return
        words = self.words & gate[self.tiles]
        words &= defined[self.rows, self.tiles]
        patch = value[self.rows, self.tiles]
        patch ^= words
        value[self.rows, self.tiles] = patch


class _Gather:
    """Cross-cell *read* plane: OR of ``source[row] & mask`` over rows.

    Serves decoder read-redirects and the ADF-C read-combine models:
    ``summed2(state)`` returns the lane-disjoint union of every source
    row's masked contribution over *both* state planes (value and
    defined) as one ``(2, tiles)`` word pair -- one vectorized kernel
    for the pair instead of two, which matters because decoder-heavy
    reads are the hot path of the Table-3 workloads.
    """

    __slots__ = ("plane", "union", "not_union", "_ntiles",
                 "planes2", "rows2", "tiles2", "words2")

    def __init__(self, entries, cells: int, tiles: int, dense: bool) -> None:
        union = 0
        merged = {}
        for row, mask in entries:
            if mask:
                merged[row] = merged.get(row, 0) | mask
                union |= mask
        self.union = _tiles_of(union, tiles)
        self.not_union = ~self.union
        self._ntiles = tiles
        if dense:
            plane = _np.zeros((cells, tiles), dtype=_np.uint64)
            for row, mask in merged.items():
                plane[row] |= _tiles_of(mask, tiles)
            self.plane = plane
            self.planes2 = self.rows2 = self.tiles2 = self.words2 = None
        else:
            coords = []
            for row, mask in merged.items():
                for tile, word in _split_words(mask):
                    coords.append((row, tile, word))
            self.plane = None
            rows = _np.array([c[0] for c in coords], dtype=_np.intp)
            tidx = _np.array([c[1] for c in coords], dtype=_np.intp)
            words = _np.array([c[2] for c in coords], dtype=_np.uint64)
            # Duplicated coordinates addressing both state planes, so
            # one fancy-indexed gather covers value and defined.
            k = len(coords)
            self.planes2 = _np.repeat(_np.arange(2, dtype=_np.intp), k)
            self.rows2 = _np.tile(rows, 2)
            self.tiles2 = _np.tile(tidx, 2)
            self.words2 = _np.tile(words, 2)

    def summed2(self, state):
        """OR over rows of ``state[:, row] & mask`` as ``(2, tiles)``."""
        if self.plane is not None:
            return _np.bitwise_or.reduce(self.plane & state, axis=1)
        out = _np.zeros((2, self._ntiles), dtype=_np.uint64)
        _np.bitwise_or.at(
            out,
            (self.planes2, self.tiles2),
            state[self.planes2, self.rows2, self.tiles2] & self.words2,
        )
        return out


# -- per-address programs ------------------------------------------------------


class _WriteProgram:
    """Everything a ``w<v>`` at one address does, pre-merged and tiled."""

    __slots__ = (
        "rules", "static_lost", "not_stuck0", "stuck1", "set1", "set0",
        "setdef", "cw1", "cw0", "cwi", "cwdef", "cfst_victim", "transit_old",
    )

    def __init__(self) -> None:
        #: Conditional MaskTransition rules: (mask, old, flip_store, lose).
        self.rules: Tuple = ()
        self.static_lost = None
        self.not_stuck0 = None
        self.stuck1 = None
        # Unconditional cross-cell effects (redirect/echo value placement
        # plus CFst aggressor-side forcing), pre-merged by polarity.
        self.set1: Optional[_Scatter] = None
        self.set0: Optional[_Scatter] = None
        self.setdef: Optional[_Scatter] = None
        # Aggressor-transition-gated coupling effects.
        self.cw1: Optional[_Scatter] = None
        self.cw0: Optional[_Scatter] = None
        self.cwi: Optional[_Scatter] = None
        self.cwdef: Optional[_Scatter] = None
        #: CFst victim-side re-enforcement: (aggressor, state, forced, mask).
        self.cfst_victim: Tuple = ()
        #: Aggressor old-value polarity completing a transition for this
        #: written value (old == 1 - v).
        self.transit_old = True


class _ReadProgram:
    """Everything a read at one address does, pre-merged and tiled."""

    __slots__ = (
        "rules", "force_not2", "force_or2", "redirect",
        "combine_own", "combine_own_not", "combine_and", "combine_or",
        "force_set1", "force_set0", "force_setdef", "sof_here",
        "not_sof_here", "sof_tracking",
    )

    def __init__(self) -> None:
        #: Conditional rules: (mask, old, flip_store, flip_report).
        self.rules: Tuple = ()
        #: Stuck/dead forcing as one (2, tiles) pair over the stacked
        #: (value, defined) report: ``rep2 = (rep2 & not2) | or2``.
        self.force_not2 = None
        self.force_or2 = None
        #: Decoder read-redirects + ADF-C "other" model (same formula).
        self.redirect: Optional[_Gather] = None
        #: ADF-C "own" model: report the cell's own content for the lane.
        self.combine_own = None
        self.combine_own_not = None
        #: ADF-C "and"/"or" conflict models.
        self.combine_and: Optional[_Gather] = None
        self.combine_or: Optional[_Gather] = None
        #: CFrd: victims forced by any read of this (aggressor) address.
        self.force_set1: Optional[_Scatter] = None
        self.force_set0: Optional[_Scatter] = None
        self.force_setdef: Optional[_Scatter] = None
        self.sof_here = None
        self.not_sof_here = None
        self.sof_tracking = None


class TiledState:
    """Mutable tiled memory of one run: the stacked ``(2, cells,
    tiles)`` value/defined ``planes`` plus the ``(tiles,)`` SOF latch."""

    __slots__ = ("planes", "latch")

    def __init__(self, planes, latch) -> None:
        self.planes = planes
        self.latch = latch

    def copy(self) -> "TiledState":
        return TiledState(self.planes.copy(), self.latch.copy())

    def key(self, detected) -> bytes:
        """Identity of this state plus a detected mask: a BLAKE2b-256
        digest of the arrays, hashed in place.  A walk then keeps 32
        bytes per node instead of a copy of the planes, which is most
        of the memory at large sizes; two different states merge only
        on a digest collision."""
        digest = hashlib.blake2b(self.planes, digest_size=32)
        digest.update(self.latch)
        digest.update(detected)
        return digest.digest()


class TiledSimulation:
    """A lane-tiled fault-simulation instance for one case set.

    Drop-in equivalent of :class:`~repro.simulator.bitengine.
    PackedSimulation` -- same constructor signature, same
    :meth:`run_variant` / :meth:`worst_case_verdicts` contract, same
    lane layout -- with the packed state held in ``(cells, tiles)``
    uint64 NumPy arrays instead of Python bignums.  The plan is
    read-only after construction, so one instance serves any number of
    runs and can be cached across candidate tests.
    """

    def __init__(
        self,
        cases: Sequence[FaultCase],
        size: int,
        dense_limit: int = DENSE_WORD_LIMIT,
    ) -> None:
        require_numpy()
        # Reuse the bignum engine's whole compilation pipeline: instance
        # encoders, MaskTransition rules, coupling groups, SOF latch.
        packed = PackedSimulation(cases, size)
        self.size = size
        self.cases = packed.cases
        self.lanes = packed.lanes
        self.tiles = max(1, -(-self.lanes // WORD_BITS))
        self._dense = size * self.tiles <= dense_limit
        self._convert(packed.plan)
        self._index_cases()

    # -- plan conversion --------------------------------------------------------

    def _convert(self, plan: LanePlan) -> None:
        n, tiles, dense = self.size, self.tiles, self._dense
        self.full = _tiles_of(plan.full, tiles)
        self.zeros = _np.zeros(tiles, dtype=_np.uint64)
        self.latch_init = _tiles_of(plan.sof_latch_init, tiles)
        self.sof_any = bool(plan.sof_lanes)
        self.wait_rules = tuple(
            (cell, _tiles_of(mask, tiles), bool(old))
            for cell, mask, old in plan.wait_rules
        )
        self.writes = [
            [self._write_program(plan, cell, v) for v in (0, 1)]
            for cell in range(n)
        ]
        self.reads = [self._read_program(plan, cell) for cell in range(n)]

    def _scatter(self, entries) -> Optional[_Scatter]:
        entries = [(row, mask) for row, mask in entries if mask]
        if not entries:
            return None
        return _Scatter(entries, self.size, self.tiles, self._dense)

    def _gather(self, entries) -> Optional[_Gather]:
        entries = [(row, mask) for row, mask in entries if mask]
        if not entries:
            return None
        return _Gather(entries, self.size, self.tiles, self._dense)

    def _write_program(self, plan: LanePlan, cell: int, v: int):
        tiles = self.tiles
        program = _WriteProgram()
        program.transit_old = v == 0  # old == 1 completes a down transition
        merged = {}
        for mask, trigger, old, flip_store, lose in plan.write_rules[cell]:
            if trigger != v:
                continue
            key = (bool(old), bool(flip_store), bool(lose))
            merged[key] = merged.get(key, 0) | mask
        program.rules = tuple(
            (_tiles_of(mask, tiles), old, flip_store, lose)
            for (old, flip_store, lose), mask in merged.items()
        )
        if plan.write_lost[cell]:
            program.static_lost = _tiles_of(plan.write_lost[cell], tiles)
        if plan.stuck0[cell] or plan.stuck1[cell]:
            program.not_stuck0 = ~_tiles_of(plan.stuck0[cell], tiles)
            program.stuck1 = _tiles_of(plan.stuck1[cell], tiles)
        # Unconditional placements: decoder redirect/echo write the
        # written value into other rows; CFst aggressor entry forces
        # victims while the aggressor holds the just-written state.
        placed = plan.write_redirect[cell] + plan.write_echo[cell]
        set1 = [(t, m) for t, m in placed] if v else []
        set0 = [(t, m) for t, m in placed] if not v else []
        setdef = list(placed)
        for victim, forced, mask in plan.cfst_write[cell][v]:
            (set1 if forced else set0).append((victim, mask))
            setdef.append((victim, mask))
        program.set1 = self._scatter(set1)
        program.set0 = self._scatter(set0)
        program.setdef = self._scatter(setdef)
        # Transition-gated coupling (CFid forces, CFin inversions).
        cw1, cw0, cwi, cwdef = [], [], [], []
        for victim, action, mask in plan.cf_write[cell][v]:
            if action == INVERT:
                cwi.append((victim, mask))
            elif action:
                cw1.append((victim, mask))
                cwdef.append((victim, mask))
            else:
                cw0.append((victim, mask))
                cwdef.append((victim, mask))
        program.cw1 = self._scatter(cw1)
        program.cw0 = self._scatter(cw0)
        program.cwi = self._scatter(cwi)
        program.cwdef = self._scatter(cwdef)
        program.cfst_victim = tuple(
            (agg, bool(state), bool(forced), _tiles_of(mask, tiles))
            for agg, state, forced, mask in plan.cfst_victim[cell]
        )
        return program

    def _read_program(self, plan: LanePlan, cell: int):
        tiles = self.tiles
        program = _ReadProgram()
        merged = {}
        for mask, old, flip_store, flip_report in plan.read_rules[cell]:
            key = (bool(old), bool(flip_store), bool(flip_report))
            merged[key] = merged.get(key, 0) | mask
        program.rules = tuple(
            (_tiles_of(mask, tiles), old, flip_store, flip_report)
            for (old, flip_store, flip_report), mask in merged.items()
        )
        force0 = plan.stuck0[cell] | plan.dead0[cell]
        force1 = plan.stuck1[cell] | plan.dead1[cell]
        if force0 or force1:
            # Value plane: clear force0, set force1; defined plane:
            # clear nothing, set force0|force1.
            program.force_not2 = _np.stack(
                [~_tiles_of(force0, tiles), ~self.zeros]
            )
            program.force_or2 = _np.stack(
                [_tiles_of(force1, tiles), _tiles_of(force0 | force1, tiles)]
            )
        redirect = list(plan.read_redirect[cell])
        own = 0
        combine_and, combine_or = [], []
        for other, model, mask in plan.read_combine[cell]:
            if model == "own":
                own |= mask
            elif model == "other":
                redirect.append((other, mask))
            elif model == "and":
                combine_and.append((other, mask))
            else:  # "or"
                combine_or.append((other, mask))
        program.redirect = self._gather(redirect)
        if own:
            program.combine_own = _tiles_of(own, tiles)
            program.combine_own_not = ~program.combine_own
        program.combine_and = self._gather(combine_and)
        program.combine_or = self._gather(combine_or)
        fs1 = [(v, m) for v, forced, m in plan.cf_read[cell] if forced]
        fs0 = [(v, m) for v, forced, m in plan.cf_read[cell] if not forced]
        program.force_set1 = self._scatter(fs1)
        program.force_set0 = self._scatter(fs0)
        program.force_setdef = self._scatter(
            [(v, m) for v, _forced, m in plan.cf_read[cell]]
        )
        if plan.sof_lanes:
            program.sof_here = _tiles_of(plan.sof_cell[cell], tiles)
            program.not_sof_here = ~program.sof_here
            program.sof_tracking = _tiles_of(
                plan.sof_lanes & ~plan.sof_cell[cell], tiles
            )
        return program

    def _index_cases(self) -> None:
        """Per-case contiguous lane ranges for vectorized verdicts."""
        starts, lane = [], 1
        for fault_case in self.cases:
            starts.append(lane - 1)  # relative to the fault-lane array
            lane += len(fault_case.variants)
        self.case_starts = _np.array(starts, dtype=_np.intp)
        fault_lanes = _np.arange(1, self.lanes, dtype=_np.intp)
        self._lane_tile = fault_lanes // WORD_BITS
        self._lane_shift = (fault_lanes % WORD_BITS).astype(_np.uint64)
        self.fault_mask = self.full.copy()
        if self.lanes > 1:
            self.fault_mask[0] &= ~_np.uint64(1)
        else:
            self.fault_mask[0] = _np.uint64(0)

    # -- execution --------------------------------------------------------------

    def new_state(self) -> TiledState:
        """The power-up state: every cell undefined, latches at init."""
        # Stacked packed memory: plane 0 holds values, plane 1 holds
        # definedness, so read-side effects that transform both planes
        # with the same mask run as one (2, tiles) kernel.
        planes = _np.zeros((2, self.size, self.tiles), dtype=_np.uint64)
        return TiledState(planes, self.latch_init.copy())

    def run_variant(self, test: MarchTest,
                    state: Optional[TiledState] = None):
        """One concrete order realization; returns the detected tiles.

        Bit ``L`` (lane ``L``) of the returned ``(tiles,)`` uint64 array
        is set when that lane observed at least one verifying read whose
        definite value differed from the expectation -- identical to
        :meth:`PackedSimulation.run_variant`, word for word, including
        the segment contract of its ``state`` argument.
        """
        if state is None:
            state = self.new_state()
        n = self.size
        full, zeros = self.full, self.zeros
        planes = state.planes
        value = planes[0]
        defined = planes[1]
        detected = _np.zeros(self.tiles, dtype=_np.uint64)
        latch = state.latch
        writes, reads = self.writes, self.reads
        for element in test.elements:
            if isinstance(element, DelayElement):
                for cell, mask, old in self.wait_rules:
                    row = value[cell]
                    fired = mask & defined[cell]
                    fired &= row if old else ~row
                    row ^= fired
                continue
            assert isinstance(element, MarchElement)
            ops = element.ops
            for a in element.order.addresses(n):
                for op in ops:
                    v = op.value
                    if op.is_write:
                        program = writes[a][v]
                        va = value[a]
                        da = defined[a]
                        lost = program.static_lost
                        flip = None
                        for mask, old, flip_store, lose in program.rules:
                            fired = mask & da
                            fired &= va if old else ~va
                            if fired.any():
                                if lose:
                                    lost = fired if lost is None \
                                        else lost | fired
                                elif flip_store:
                                    flip = fired if flip is None \
                                        else flip | fired
                        transit = None
                        if program.cwdef is not None or \
                                program.cwi is not None:
                            transit = da & (
                                va if program.transit_old else ~va
                            )
                            if not transit.any():
                                transit = None
                        if lost is None:
                            written = full
                            new_val = full if v else zeros
                            value[a] = new_val
                        else:
                            written = full & ~lost
                            new_val = va & lost
                            if v:
                                new_val |= written
                            va[:] = new_val
                        if program.not_stuck0 is not None:
                            va &= program.not_stuck0
                            va |= program.stuck1
                        if flip is not None:
                            va ^= flip
                        da |= written
                        if program.setdef is not None:
                            if program.set1 is not None:
                                program.set1.or_into(value)
                            if program.set0 is not None:
                                program.set0.andnot_into(value)
                            program.setdef.or_into(defined)
                        if transit is not None:
                            if program.cw1 is not None:
                                program.cw1.or_into(value, transit)
                            if program.cw0 is not None:
                                program.cw0.andnot_into(value, transit)
                            if program.cwi is not None:
                                program.cwi.xor_defined_into(
                                    value, defined, transit
                                )
                            if program.cwdef is not None:
                                program.cwdef.or_into(defined, transit)
                        for agg, held_state, forced, mask in \
                                program.cfst_victim:
                            agg_val = value[agg]
                            held = mask & defined[agg]
                            held &= agg_val if held_state else ~agg_val
                            if held.any():
                                if forced:
                                    va |= held
                                else:
                                    va &= ~held
                        continue
                    # -- read ------------------------------------------------
                    program = reads[a]
                    va = value[a]
                    da = defined[a]
                    # Private (reported, reported_def) pair: a stored
                    # flip must not leak into the report (DRDF) and a
                    # reported flip must not leak into the cell (IRF),
                    # so the pair detaches from the memory row up front.
                    rep2 = planes[:, a].copy()
                    for mask, old, flip_store, flip_report in program.rules:
                        rep = rep2[0]
                        fired = mask & rep2[1]
                        fired &= rep if old else ~rep
                        if fired.any():
                            if flip_store:
                                va ^= fired
                            if flip_report:
                                rep ^= fired
                    if program.force_not2 is not None:
                        rep2 &= program.force_not2
                        rep2 |= program.force_or2
                    if program.redirect is not None:
                        g = program.redirect
                        rep2 &= g.not_union
                        rep2 |= g.summed2(planes)
                    if program.combine_own is not None:
                        rep2 &= program.combine_own_not
                        rep2 |= planes[:, a] & program.combine_own
                    if program.combine_and is not None:
                        g = program.combine_and
                        masked = planes[:, a] & g.summed2(planes)
                        rep2 &= g.not_union
                        rep2 |= masked
                    if program.combine_or is not None:
                        g = program.combine_or
                        s2 = g.summed2(planes)
                        rep2 &= g.not_union
                        rep2[0] |= (va & g.union) | s2[0]
                        rep2[1] |= da & s2[1]
                    if program.force_setdef is not None:
                        if program.force_set1 is not None:
                            program.force_set1.or_into(value)
                        if program.force_set0 is not None:
                            program.force_set0.andnot_into(value)
                        program.force_setdef.or_into(defined)
                    if program.sof_here is not None:
                        here = program.sof_here
                        if here.any():
                            rep2[0] &= program.not_sof_here
                            rep2[0] |= latch & here
                            rep2[1] |= here
                        reloaded = program.sof_tracking & da
                        if reloaded.any():
                            latch &= ~reloaded
                            latch |= va & reloaded
                    if v is not None:
                        expected = full if v else zeros
                        mismatch = rep2[0] ^ expected
                        mismatch &= rep2[1]
                        detected |= mismatch
        return detected

    def worst_case_verdicts(self, test: MarchTest) -> List[bool]:
        """Worst-case detection verdict per case, in input order.

        Same contract as the bignum engine: a case is detected only when
        **every** order realization of ``test`` detects **every** of its
        behavioural variant lanes.
        """
        agreed = self.full.copy()
        fault_mask = self.fault_mask

        def visit(detected) -> bool:
            nonlocal agreed
            agreed &= detected
            return not (agreed & fault_mask).any()

        walk_realizations(self, test, visit)
        if not self.cases:
            return []
        lane_bits = (agreed[self._lane_tile] >> self._lane_shift) \
            & _np.uint64(1)
        verdicts = _np.bitwise_and.reduceat(lane_bits, self.case_starts)
        return [bool(flag) for flag in verdicts]


def tiled_detects(
    test: MarchTest, cases: Sequence[FaultCase], size: int
) -> List[bool]:
    """One-shot worst-case verdicts for lane-packable ``cases``."""
    return TiledSimulation(cases, size).worst_case_verdicts(test)


def chunk_cases(
    cases: Sequence[FaultCase], chunks: int
) -> List[List[FaultCase]]:
    """Split cases into ``chunks`` contiguous, lane-balanced slices.

    The unit of composition with the process backend: each slice
    becomes its own :class:`TiledSimulation` (own reference lane, own
    contiguous tile range), so workers never share mutable state and
    concatenating the per-slice verdict lists reproduces the
    single-simulation output exactly.
    """
    cases = list(cases)
    chunks = max(1, min(chunks, len(cases)))
    total_lanes = sum(len(c.variants) for c in cases)
    target = total_lanes / chunks
    out: List[List[FaultCase]] = []
    current: List[FaultCase] = []
    current_lanes = 0
    remaining = chunks
    for fault_case in cases:
        boundary = current and current_lanes >= target and remaining > 1
        if boundary:
            out.append(current)
            current, current_lanes = [], 0
            remaining -= 1
        current.append(fault_case)
        current_lanes += len(fault_case.variants)
    out.append(current)
    return out
