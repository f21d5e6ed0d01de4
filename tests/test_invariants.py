"""The ``selfcheck`` invariant registry, run by pytest at full size."""

import importlib

import pytest

from nodaltheta import selfcheck
from nodaltheta.selfcheck import INVARIANTS


@pytest.mark.parametrize("name", INVARIANTS)
def test_invariant(name):
    ok, detail = INVARIANTS[name](False)
    assert ok, detail


def test_entries_independent_of_order():
    # every seeded entry makes its own generator, so its instances do not
    # depend on which entries ran before it
    in_order = {name: (ok, detail) for name, ok, detail, _ in selfcheck.run_selfcheck(True)}
    reverse = {name: INVARIANTS[name](True) for name in reversed(INVARIANTS)}
    # a freshly executed module, in which no other entry has run
    alone = {name: importlib.reload(selfcheck).INVARIANTS[name](True) for name in INVARIANTS}
    assert in_order == reverse == alone
