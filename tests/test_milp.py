"""The covering kernel's values against the MILP oracle in milp.py.

The instances are the ones the kernel's cuts move most: kernel-hard's three
products, P5 x Q3 and C8 x C6, at 35 to 48 vertices, past the brute-force
oracles' reach.
"""

from __future__ import annotations

import pytest

pytest.importorskip("scipy")

from romdom import (  # noqa: E402
    CARTESIAN,
    complete,
    cycle,
    domination_number,
    hypercube,
    path,
    product,
    roman_domination_number,
)

from milp import milp_gamma, milp_gamma_r  # noqa: E402

PRODUCTS = [
    (complete(4), cycle(11)),
    (cycle(6), cycle(7)),
    (hypercube(3), cycle(5)),
    (path(5), hypercube(3)),
    (cycle(8), cycle(6)),
]


@pytest.mark.parametrize("g, h", PRODUCTS, ids=["K4xC11", "C6xC7", "Q3xC5", "P5xQ3", "C8xC6"])
def test_gamma_and_gamma_r_match_the_milp_oracle(g, h):
    prod = product(g, h, CARTESIAN)
    edges = prod.edges()
    assert domination_number(prod).value == milp_gamma(prod.n, edges)
    assert roman_domination_number(prod).value == milp_gamma_r(prod.n, edges)
