"""The covering kernel's values against the MILP oracle in milp.py.

The instances are the ones the kernel's cuts and bounds move most, past the
brute-force oracles' reach: kernel-hard's three products, P5 x Q3 and
C8 x C6, at 35 to 48 vertices, Cartesian and strong, and seeded G(30, 75)
graphs, where the packing bound's fewest-dominators walk prunes most. The
extremal case of C-RR3, C5 x C5, is checked here as well, and so is every
product of the default corpus up to 48 vertices, as the sweeps solve it.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("scipy")

from romdom import (  # noqa: E402
    CARTESIAN,
    STRONG,
    Graph,
    complete,
    cycle,
    domination_number,
    from_edges,
    hypercube,
    path,
    product,
    roman_domination_number,
)
from romdom.bounds import _pair_product, default_corpus  # noqa: E402

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


@pytest.mark.parametrize(
    "g, h",
    PRODUCTS + [(cycle(5), cycle(5))],
    ids=["K4xC11", "C6xC7", "Q3xC5", "P5xQ3", "C8xC6", "C5xC5"],
)
def test_strong_products_match_the_milp_oracle(g, h):
    prod = product(g, h, STRONG)
    edges = prod.edges()
    assert domination_number(prod).value == milp_gamma(prod.n, edges)
    assert roman_domination_number(prod).value == milp_gamma_r(prod.n, edges)


def test_c_rr3_extremal_values_match_the_milp_oracle():
    # a sweep of the Cartesian class pairs on 2 to 6 vertices found
    # gamma_R(G x H) / (gamma_R(G) gamma_R(H) / 3) smallest at C5 x C5
    # alone: 10 / (16 / 3) = 15/8
    c5 = cycle(5)
    prod = product(c5, c5, CARTESIAN)
    assert domination_number(prod).value == milp_gamma(25, prod.edges()) == 5
    assert roman_domination_number(prod).value == milp_gamma_r(25, prod.edges()) == 10
    assert roman_domination_number(c5).value == milp_gamma_r(5, c5.edges()) == 4


def test_random_graphs_match_the_milp_oracle():
    pairs = [(u, v) for v in range(1, 30) for u in range(v)]
    for seed in range(24):
        edges = random.Random(f"milp:{seed}").sample(pairs, 75)
        g = from_edges(30, edges)
        assert domination_number(g).value == milp_gamma(30, edges), edges
        assert roman_domination_number(g).value == milp_gamma_r(30, edges), edges


def test_default_corpus_products_match_the_milp_oracle():
    # one product per unordered pair of the default corpus's classes, up to
    # 48 vertices, of both kinds: on the canonical graphs, larger first and
    # with the generators lifted from the factors, as Env solves a pair
    classes = {}
    for g in default_corpus():
        classes.setdefault((g.n, g.canonical_form), Graph(g.n, g.canonical_form))
    graphs = list(classes.values())
    checked = 0
    for i, a in enumerate(graphs):
        for b in graphs[i:]:
            if a.n * b.n > 48:
                continue
            first, second = sorted((a, b), key=lambda p: (p.n, p.adj), reverse=True)
            for kind in (CARTESIAN, STRONG):
                prod = _pair_product(kind, first, second)
                edges = prod.edges()
                assert domination_number(prod).value == milp_gamma(prod.n, edges), (a, b, kind)
                assert roman_domination_number(prod).value == milp_gamma_r(prod.n, edges), (a, b, kind)
                checked += 1
    assert checked == 154
