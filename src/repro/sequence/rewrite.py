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
  dropped (Table 2 diagonal rules).  Passes repeat to fixpoint.

Every transformation is semantics-checked downstream: the generated
March test must pass fault simulation (Section 6), exactly as the
paper validates its own output.

The reconstruction alone does not reach the paper's outcomes.  With
the optimizer's ``tighten``, ``canonicalize_orders`` and ``polish``
off, the six Table 3 rows come out at 4n/5n/15n/13n/21n/15n against
the paper's 4n/5n/6n/6n/10n/5n; the shipped generator reaches the
paper's figures on rows 3-6 only through :mod:`repro.core.optimize`.
"""

from __future__ import annotations

from typing import List, Optional

from .gts import Color, GlobalTestSequence, GTSSymbol, Role


def reorder(gts: GlobalTestSequence) -> GlobalTestSequence:
    """The reordering phase: mark element nuclei and finalize symbols.

    Returns a new GTS whose symbols are all terminal, with Red/Blue
    marks on observe/excite adjacencies targeting the same cell.
    """
    symbols = [s for s in gts.symbols]
    out: List[GTSSymbol] = []
    for position, symbol in enumerate(symbols):
        nxt = symbols[position + 1] if position + 1 < len(symbols) else None
        if (
            symbol.role is Role.OBSERVE
            and nxt is not None
            and nxt.role is Role.EXCITE
            and nxt.op.is_write
            and nxt.op.cell == symbol.op.cell
        ):
            out.append(symbol.colored(Color.RED).as_terminal())
        elif (
            symbol.role is Role.EXCITE
            and symbol.op.is_write
            and out
            and out[-1].color is Color.RED
            and out[-1].op.cell == symbol.op.cell
        ):
            out.append(symbol.colored(Color.BLUE).as_terminal())
        else:
            out.append(symbol.as_terminal())
    return GlobalTestSequence(out, gts.tour)


def _same_operation(a: GTSSymbol, b: GTSSymbol) -> bool:
    """Same kind and value (ignoring the cell)."""
    return (
        a.op.kind == b.op.kind
        and a.op.value == b.op.value
        and not a.op.is_wait
        and not b.op.is_wait
    )


def _merge_pair(a: GTSSymbol, b: GTSSymbol) -> GTSSymbol:
    """Fuse two mergeable symbols, keeping the strongest metadata."""
    role_rank = {Role.EXCITE: 2, Role.OBSERVE: 1, Role.SETUP: 0}
    keep = a if role_rank[a.role] >= role_rank[b.role] else b
    color = a.color or b.color
    merged = keep.as_merged()
    if color is not None and merged.color is None:
        merged = merged.colored(color)
    return merged.as_terminal()


def _minimize_once(symbols: List[GTSSymbol]) -> Optional[List[GTSSymbol]]:
    """Apply the first applicable minimization rule; None at fixpoint."""
    for k in range(len(symbols) - 1):
        a, b = symbols[k], symbols[k + 1]
        if not _same_operation(a, b):
            continue
        if a.cell is not None and b.cell is not None and a.cell != b.cell:
            # Table 2 rules 1-2: w_d^i w_d^j -> w_d ; r_d^i r_d^j -> r_d
            return symbols[:k] + [_merge_pair(a, b)] + symbols[k + 2:]
        if a.cell == b.cell or a.cell is None or b.cell is None:
            # Duplicate op on the same cell (or one already merged):
            # keep one symbol, merged if either side was.
            fused = _merge_pair(a, b)
            if a.cell is not None and b.cell is not None:
                # Same concrete cell on both sides: stay cell-tagged.
                fused = a if (a.color or not b.color) else b
            return symbols[:k] + [fused] + symbols[k + 2:]
    return None


def minimize(gts: GlobalTestSequence) -> GlobalTestSequence:
    """The minimization phase: repeat rules to fixpoint (Section 4.2)."""
    symbols = list(gts.symbols)
    while True:
        step = _minimize_once(symbols)
        if step is None:
            return GlobalTestSequence(symbols, gts.tour)
        symbols = step


def reorder_and_minimize(gts: GlobalTestSequence) -> GlobalTestSequence:
    """The full Section 4.1 + 4.2 pipeline."""
    return minimize(reorder(gts))
