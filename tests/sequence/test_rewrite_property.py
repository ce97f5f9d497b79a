"""The one-pass rewrite against the restart-from-the-front oracle.

``minimize`` merges on a stack in one left-to-right pass and
``reorder`` builds each terminal symbol once; on every drawn symbol
stream (roles, colors, cells, merged and terminal flags, waits) they
must give exactly the symbols of ``rewrite_reference``, which applies
the leftmost rule and starts over after every merge.
"""

from hypothesis import example, given, settings, strategies as st

from repro.memory.operations import read, wait, write
from repro.sequence.gts import Color, GlobalTestSequence, GTSSymbol, Role
from repro.sequence.rewrite import minimize, reorder

import rewrite_reference

cells = st.sampled_from(("i", "j"))
operations = st.one_of(
    st.builds(write, cells, st.sampled_from((0, 1))),
    st.builds(read, cells, st.sampled_from((None, 0, 1))),
    st.just(wait()),
)
symbols = st.builds(
    GTSSymbol,
    operations,
    st.sampled_from(Role),
    st.integers(0, 3),
    st.sampled_from((None, Color.RED, Color.BLUE)),
    st.booleans(),
    st.booleans(),
)
streams = st.builds(
    GlobalTestSequence,
    st.lists(symbols, max_size=24),
    st.lists(st.integers(0, 9), max_size=4).map(tuple),
)

#: A cascade: each merge leaves a symbol the next one merges with.
CASCADE = GlobalTestSequence([
    GTSSymbol(write("i", 0), Role.SETUP, 0),
    GTSSymbol(write("j", 0), Role.EXCITE, 1, Color.BLUE),
    GTSSymbol(write("j", 0), Role.SETUP, 2, merged=True),
    GTSSymbol(write("i", 0), Role.OBSERVE, 3, Color.RED),
    GTSSymbol(wait(), Role.SETUP, 3),
    GTSSymbol(wait(), Role.SETUP, 3),
    GTSSymbol(read("i", 1), Role.OBSERVE, 0),
    GTSSymbol(read("i", 1), Role.OBSERVE, 1, Color.RED),
], (3, 1))


@given(gts=streams)
@example(gts=CASCADE)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_one_pass_minimize_equals_the_restarting_rewrite(gts):
    ours = minimize(gts)
    assert ours.symbols == rewrite_reference.minimize(gts).symbols
    assert ours.tour == gts.tour
    # The pass leaves no mergeable neighbours: a second pass is a no-op.
    assert minimize(ours).symbols == ours.symbols


@given(gts=streams)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_reorder_equals_the_copying_reorder(gts):
    ours = reorder(gts)
    assert ours.symbols == rewrite_reference.reorder(gts).symbols
    assert ours.tour == gts.tour
    assert str(ours) == str(rewrite_reference.reorder(gts))
