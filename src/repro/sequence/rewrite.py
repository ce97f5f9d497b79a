"""Rewrite rules turning a raw GTS into a March-ready symbol stream.

The paper drives this phase with string rewrite rules (Tables 1 and 2)
over the extended regular-expression formalism (terminal, Red and Blue
operators).  The published tables are OCR-corrupted in the only
available full text, so this module implements a reconstruction with
the same mechanics:

* **Reordering** (Section 4.1): setup writes are value-grouped (done at
  GTS construction) and every *observation read* immediately followed
  by an *excitation write on the same cell* is marked Red/Blue -- the
  nucleus ``[r]_R [w]_B`` of a future March element (Table 1, rule M4).
* **Minimization** (Section 4.2): adjacent same-operation symbols are
  merged across cells (a March operation is applied to every cell, so
  ``w_d^i w_d^j`` collapses to a single cell-agnostic ``w_d``;
  Table 2, rules 1-2) and duplicate operations on the same cell are
  dropped (Table 2 diagonal rules), to fixpoint.

Every transformation is semantics-checked downstream: the generated
March test must pass fault simulation (Section 6), exactly as the
paper validates its own output.

The reconstruction alone does not reach the paper's outcomes.  With
the generator's ``tighten`` and ``polish`` off, the six Table 3 rows
come out at 4n/5n/15n/13n/21n/15n against the paper's
4n/5n/6n/6n/10n/5n; the shipped generator reaches the paper's figures
on rows 3-6 only through :mod:`repro.core.optimize`.
"""

from __future__ import annotations

from typing import List

from .gts import Color, GlobalTestSequence, GTSSymbol, Role


def reorder(gts: GlobalTestSequence) -> GlobalTestSequence:
    """The reordering phase: mark element nuclei and finalize symbols.

    Returns a new GTS whose symbols are all terminal, with Red/Blue
    marks on observe/excite adjacencies targeting the same cell.
    """
    symbols = gts.symbols
    out: List[GTSSymbol] = []
    for position, symbol in enumerate(symbols):
        nxt = symbols[position + 1] if position + 1 < len(symbols) else None
        color = symbol.color
        if (
            symbol.role is Role.OBSERVE
            and nxt is not None
            and nxt.role is Role.EXCITE
            and nxt.op.is_write
            and nxt.op.cell == symbol.op.cell
        ):
            color = Color.RED
        elif (
            symbol.role is Role.EXCITE
            and symbol.op.is_write
            and out
            and out[-1].color is Color.RED
            and out[-1].op.cell == symbol.op.cell
        ):
            color = Color.BLUE
        out.append(GTSSymbol(
            symbol.op, symbol.role, symbol.tour_position, color, True,
            symbol.merged,
        ))
    return GlobalTestSequence(out, gts.tour)


def _same_operation(a: GTSSymbol, b: GTSSymbol) -> bool:
    """Same kind and value (ignoring the cell)."""
    return (
        a.op.kind == b.op.kind
        and a.op.value == b.op.value
        and not a.op.is_wait
        and not b.op.is_wait
    )


_ROLE_RANK = {Role.EXCITE: 2, Role.OBSERVE: 1, Role.SETUP: 0}


def _fuse(a: GTSSymbol, b: GTSSymbol) -> GTSSymbol:
    """The one symbol a mergeable pair ``a b`` rewrites to."""
    if a.cell is not None and a.cell == b.cell:
        # Duplicate op on the same concrete cell: stay cell-tagged.
        return a if (a.color or not b.color) else b
    # Table 2 rules 1-2 (w_d^i w_d^j -> w_d ; r_d^i r_d^j -> r_d), or
    # one side already merged: a merged terminal symbol keeping the
    # strongest role and a color.
    keep = a if _ROLE_RANK[a.role] >= _ROLE_RANK[b.role] else b
    return GTSSymbol(
        keep.op, keep.role, keep.tour_position,
        keep.color or a.color or b.color, True, True,
    )


def minimize(gts: GlobalTestSequence) -> GlobalTestSequence:
    """The minimization phase: merge to fixpoint (Section 4.2).

    One left-to-right pass over a stack that never holds a mergeable
    neighbour pair, so the pair of its top and the next symbol is the
    leftmost one: the pass merges exactly what restarting from the
    front after every merge would.  A fused symbol keeps its pair's
    operation, so it cannot merge with the symbol below it.
    """
    out: List[GTSSymbol] = []
    for symbol in gts.symbols:
        if out and _same_operation(out[-1], symbol):
            out[-1] = _fuse(out[-1], symbol)
        else:
            out.append(symbol)
    return GlobalTestSequence(out, gts.tour)


def reorder_and_minimize(gts: GlobalTestSequence) -> GlobalTestSequence:
    """The full Section 4.1 + 4.2 pipeline."""
    return minimize(reorder(gts))
