"""The covering kernel's values against the MILP oracle in milp.py.

The instances are the ones the kernel's cuts and bounds move most, past the
brute-force oracles' reach: kernel-hard's three products, P5 x Q3 and
C8 x C6, at 35 to 48 vertices, and seeded G(30, 75) graphs, where the
packing bound's fewest-dominators walk prunes most.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("scipy")

from romdom import (  # noqa: E402
    CARTESIAN,
    complete,
    cycle,
    domination_number,
    from_edges,
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


def test_random_graphs_match_the_milp_oracle():
    pairs = [(u, v) for v in range(1, 30) for u in range(v)]
    for seed in range(24):
        edges = random.Random(f"milp:{seed}").sample(pairs, 75)
        g = from_edges(30, edges)
        assert domination_number(g).value == milp_gamma(30, edges), edges
        assert roman_domination_number(g).value == milp_gamma_r(30, edges), edges
