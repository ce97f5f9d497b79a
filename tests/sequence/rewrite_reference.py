"""The restart-from-the-front rewrite, kept as the oracle of
``sequence/rewrite.py``.

``minimize`` applies the leftmost applicable minimization rule and
starts over from position 0 after every merge, until no rule applies;
``reorder`` finalizes each symbol through ``colored`` and
``as_terminal`` copies.  The one-pass versions must produce the same
symbols.
"""

from typing import List, Optional

from repro.sequence.gts import Color, GlobalTestSequence, GTSSymbol, Role


def reorder(gts: GlobalTestSequence) -> GlobalTestSequence:
    symbols = list(gts.symbols)
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
    return (
        a.op.kind == b.op.kind
        and a.op.value == b.op.value
        and not a.op.is_wait
        and not b.op.is_wait
    )


def _merge_pair(a: GTSSymbol, b: GTSSymbol) -> GTSSymbol:
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
            return symbols[:k] + [_merge_pair(a, b)] + symbols[k + 2:]
        if a.cell == b.cell or a.cell is None or b.cell is None:
            fused = _merge_pair(a, b)
            if a.cell is not None and b.cell is not None:
                fused = a if (a.color or not b.color) else b
            return symbols[:k] + [fused] + symbols[k + 2:]
    return None


def minimize(gts: GlobalTestSequence) -> GlobalTestSequence:
    symbols = list(gts.symbols)
    while True:
        step = _minimize_once(symbols)
        if step is None:
            return GlobalTestSequence(symbols, gts.tour)
        symbols = step
