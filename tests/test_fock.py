"""The solver's matrices at characteristic 0 against the canonical basis
of the level-2 Fock space (``fock.py``): for every column mu, G(mu) - mu
lies in vZ[v], every value at v = 1 is 0 or 1, and the values are the
solver's entries. ``python tests/fock.py`` checks the larger ranges."""

import pytest

from bipblocks.core import Params, bip
from bipblocks.cli import CASES
from fock import (
    a_vector, canonical, catalogue_blocks, ladder, ladder_block, run,
    small_blocks,
)

RANGES = {
    # (blocks, cells, clamped cells) of each range
    "small": (lambda: small_blocks(8, (2, 3, 4)), (368, 11122, 1351)),
    "ladder-e5": (lambda: [ladder_block(5)], (1, 646, 63)),
    "ladder-e7": (lambda: [ladder_block(7)], (1, 4968, 207)),
    # the 34 cases share 26 blocks
    "catalogue": (lambda: catalogue_blocks(CASES.values()),
                  (26, 19270, 1609)),
}


@pytest.mark.parametrize("name", RANGES)
def test_solver_is_the_canonical_basis(name):
    blocks, counts = RANGES[name]
    *totals, problems = run(blocks())
    assert problems == []
    assert tuple(totals) == counts


def test_a_vector_is_not_unitriangular():
    # the reduction is needed: A((2|2,1)) at e = 3, kappa = (0, 0) has
    # 1 + v^2 at mu itself, and G(mu) has 1
    p = Params.make(3, (0, 0))
    mu = bip((2,), (2, 1))
    assert a_vector(mu, p)[mu] == {0: 1, 2: 1}
    assert canonical(mu, p, {})[mu] == {0: 1}


def test_ladder_refuses_an_unrestricted_bipartition():
    # in reading order the 0-signature of (1|-) is "-+", of (-|1) "+-"
    p = Params.make(2, (0, 0))
    assert ladder(bip((), (1,)), p) == [(0, 1)]
    with pytest.raises(ValueError, match="not restricted"):
        ladder(bip((1,), ()), p)
