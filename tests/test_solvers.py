"""Exact solvers pinned to the brute-force oracles.

The oracles in bruteforce.py recompute everything from (n, edge list) with
sets and itertools; any disagreement on these small instances is a solver
bug, not a test artifact.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romdom import (
    CARTESIAN,
    BudgetExceeded,
    ParameterError,
    RomanFunction,
    bits,
    complete,
    cycle,
    domination_number,
    efficient_dominating_sets,
    enumerate_optimal_rdfs,
    from_edges,
    hypercube,
    is_roman,
    mask_of,
    path,
    product,
    roman_domination_number,
    roman_function_from_b2,
    star,
    two_packing_number,
    validate_rdf,
)

from bruteforce import (
    all_labeled_graphs,
    brute_codes,
    brute_covers,
    brute_gamma,
    brute_gamma_r,
    brute_gamma_r_subsets,
    brute_p2,
)

SOLVER_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def small_graphs(draw, max_n: int = 7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edges(n, picked)


@given(small_graphs())
@SOLVER_SETTINGS
def test_gamma_matches_oracle(g):
    edges = list(g.edges())
    res = domination_number(g)
    assert res.value == brute_gamma(g.n, edges)[0]
    # the witness must itself dominate and have the optimal size
    covered = 0
    for v in bits(res.witness):
        covered |= g.closed_adj()[v]
    assert covered == g.full_mask
    assert res.witness.bit_count() == res.value


@given(small_graphs())
@SOLVER_SETTINGS
def test_gamma_r_matches_oracle_both_routes(g):
    edges = list(g.edges())
    res = roman_domination_number(g)
    assert res.value == brute_gamma_r(g.n, edges)
    assert res.value == brute_gamma_r_subsets(g.n, edges)
    assert validate_rdf(g, res.witness)
    assert res.witness.weight == res.value


@given(small_graphs())
@SOLVER_SETTINGS
def test_p2_matches_oracle(g):
    res = two_packing_number(g)
    assert res.value == brute_p2(g.n, list(g.edges()))
    assert res.witness.bit_count() == res.value


@given(small_graphs())
@SOLVER_SETTINGS
def test_codes_match_oracle(g):
    got = [tuple(sorted(bits(s))) for s in efficient_dominating_sets(g)]
    assert got == brute_codes(g.n, list(g.edges()))


@given(small_graphs())
@SOLVER_SETTINGS
def test_sandwich_property(g):
    gamma = domination_number(g).value
    gamma_r = roman_domination_number(g).value
    assert gamma <= gamma_r <= 2 * gamma


def test_known_path_values():
    # gamma(P_n) = ceil(n/3)
    for n in range(1, 13):
        assert domination_number(path(n)).value == -(-n // 3)


def test_known_cycle_and_star_values():
    assert domination_number(cycle(6)).value == 2
    assert roman_domination_number(cycle(6)).value == 4
    for r in range(2, 7):
        assert roman_domination_number(star(r)).value == 2
    assert roman_domination_number(complete(5)).value == 2
    assert roman_domination_number(complete(1)).value == 1


def test_two_packing_known_values():
    assert two_packing_number(path(7)).value == 3
    assert two_packing_number(cycle(6)).value == 2
    assert two_packing_number(complete(4)).value == 1
    assert two_packing_number(from_edges(3, [])).value == 3


def test_perfect_codes_known():
    assert efficient_dominating_sets(path(4)) == [mask_of([0, 3])]
    assert efficient_dominating_sets(cycle(4)) == []
    assert efficient_dominating_sets(cycle(6)) == [mask_of([0, 3]), mask_of([1, 4]), mask_of([2, 5])]
    # Q3's codes are exactly the four antipodal pairs
    assert efficient_dominating_sets(hypercube(3)) == [mask_of([0, 7]), mask_of([1, 6]), mask_of([2, 5]), mask_of([3, 4])]


def test_gamma_and_gamma_r_on_every_small_labeled_graph():
    # all 1,099 labeled graphs on at most 5 vertices, against both oracles
    for n, edges in all_labeled_graphs(5):
        g = from_edges(n, edges)
        assert domination_number(g).value == brute_gamma(n, edges)[0], edges
        gamma_r = roman_domination_number(g).value
        assert gamma_r == brute_gamma_r(n, edges) == brute_gamma_r_subsets(n, edges), edges


def test_gamma_and_gamma_r_where_the_packing_bound_prunes():
    # 120 seeded G(n, m) graphs, n in 12..16 with n to 5n/2 edges; the
    # packing bound prunes in their searches, where on graphs of at most 5
    # vertices it never does
    graphs = []
    for n in (12, 14, 16):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        for m in (n, 3 * n // 2, 2 * n, 5 * n // 2):
            for seed in range(10):
                graphs.append((n, random.Random(f"packing:{n}:{m}:{seed}").sample(pairs, m)))
    for n, edges in graphs:
        g = from_edges(n, edges)
        res = domination_number(g)
        closed = [{v} for v in range(n)]
        for u, v in edges:
            closed[u].add(v)
            closed[v].add(u)
        assert res.value == brute_gamma(n, edges)[0] == res.witness.bit_count(), edges
        assert set().union(*(closed[v] for v in bits(res.witness))) == set(range(n)), edges
        res_r = roman_domination_number(g)
        assert res_r.value == brute_gamma_r_subsets(n, edges) == res_r.witness.weight, edges
        assert validate_rdf(g, res_r.witness), edges


def test_gamma_r_of_q6_is_24():
    # Second route: by vertex-transitivity some S with 2|S| + 64 - |N[S]| <= 23
    # would contain vertex 0. |N[S]| <= 7|S| rules out |S| <= 8, |S| >= 12
    # already costs 24, and brute_covers rules out 9 <= |S| <= 11.
    n = 64
    edges = [(u, u | 1 << i) for u in range(n) for i in range(6) if not u >> i & 1]
    g = hypercube(6)
    assert sorted(g.edges()) == sorted(edges)
    for k in (9, 10, 11):
        assert not brute_covers(n, edges, k, 41 + 2 * k), k
    res = roman_domination_number(g, budget=2_000_000)
    labels = res.witness.labels
    assert res.value == sum(labels) == 24
    for v in range(n):
        assert labels[v] or any(labels[v ^ 1 << i] == 2 for i in range(6)), v


def test_efficient_dominating_sets_have_size_gamma():
    for n, edges in all_labeled_graphs(5):
        g = from_edges(n, edges)
        gamma = domination_number(g).value
        assert all(s.bit_count() == gamma for s in efficient_dominating_sets(g)), edges


def test_is_roman_iff_some_optimum_has_no_ones():
    for n, edges in all_labeled_graphs(5):
        g = from_edges(n, edges)
        no_ones = any(f.b1 == 0 for f in enumerate_optimal_rdfs(g))
        assert is_roman(g) == no_ones, edges


def test_is_roman():
    assert is_roman(complete(3))
    assert is_roman(cycle(6))
    assert not is_roman(path(4))
    assert not is_roman(complete(1))


def test_deterministic_witnesses():
    g = cycle(9)
    a = domination_number(g)
    b = domination_number(g)
    assert (a.value, a.witness, a.node_count) == (b.value, b.witness, b.node_count)
    ra = roman_domination_number(g)
    rb = roman_domination_number(g)
    assert ra.witness == rb.witness


def test_budget_exceeded_raises():
    g = hypercube(3)
    with pytest.raises(BudgetExceeded):
        domination_number(g, budget=2)
    with pytest.raises(BudgetExceeded):
        roman_domination_number(g, budget=2)
    with pytest.raises(BudgetExceeded):
        two_packing_number(g, budget=1)


def test_roman_function_validation():
    with pytest.raises(ParameterError):
        RomanFunction((0, 1, 3))
    f = roman_function_from_b2(4, mask_of([1]), mask_of([3]))
    assert f.labels == (0, 2, 0, 1)
    assert f.weight == 3
    assert validate_rdf(path(4), f)
    assert not validate_rdf(path(4), RomanFunction((0, 1, 1, 1)))
    # K1 labeled 0 has no possible defender
    assert not validate_rdf(complete(1), RomanFunction((0,)))


def test_validate_rdf_length_mismatch():
    with pytest.raises(ParameterError):
        validate_rdf(path(3), RomanFunction((0, 2)))


def test_node_counts_are_reported():
    res = domination_number(cycle(12))
    assert res.node_count >= 1
    res_r = roman_domination_number(cycle(12))
    assert res_r.node_count >= 1


# Values and witnesses from before the root symmetry cut, and the exact node
# counts the covering search takes with it and the packing bound, so that any
# change to its branching, bounds or cut shows up here. P4xC5 is not
# transitive: no cut.
ROOT_CUT_CASES = [
    (cycle(6), cycle(7), True, 10, [0, 1, 3, 12, 16, 21, 25, 27, 30, 40], 2222,
     20, "220200000000200020000200020200200000000020", 5484),
    (hypercube(3), cycle(5), True, 8, [0, 2, 5, 18, 28, 31, 34, 36], 1475,
     16, "2020020000000000002000000000200200202000", 1774),
    (path(4), cycle(5), False, 6, [0, 1, 2, 13, 14, 16], 203,
     10, "20010002000000202010", 212),
]


@pytest.mark.parametrize(
    "g, h, transitive, gamma, witness, nodes, gamma_r, labels, nodes_r",
    ROOT_CUT_CASES,
    ids=["C6xC7", "Q3xC5", "P4xC5"],
)
def test_root_cut_keeps_values_and_witnesses(
    g, h, transitive, gamma, witness, nodes, gamma_r, labels, nodes_r
):
    prod = product(g, h, CARTESIAN)
    assert prod.vertex_transitive == transitive
    res = domination_number(prod)
    assert (res.value, sorted(bits(res.witness)), res.node_count) == (gamma, witness, nodes)
    res_r = roman_domination_number(prod)
    got = (res_r.value, "".join(map(str, res_r.witness.labels)), res_r.node_count)
    assert got == (gamma_r, labels, nodes_r)


def test_root_cut_on_k4_c11():
    # 379,267 nodes with neither the cut nor the packing bound, 96,004 with
    # the cut alone
    res = domination_number(product(complete(4), cycle(11), CARTESIAN))
    assert (res.value, sorted(bits(res.witness)), res.node_count) == (11, list(range(11)), 76815)


def test_root_cut_needs_transitivity():
    # C6xC7 with a pendant vertex 0 hung on vertex 1: not transitive, and its
    # first root branch, which takes the pendant, spends over n^2 nodes
    # without reaching the optimum. Some minimum dominating set of C6xC7
    # holds the hub, and some optimal Roman function labels it 2, so both
    # values stay C6xC7's.
    g = product(cycle(6), cycle(7), CARTESIAN)
    h = from_edges(g.n + 1, [(u + 1, v + 1) for u, v in g.edges()] + [(0, 1)])
    assert not h.vertex_transitive
    assert domination_number(h).value == 10
    assert roman_domination_number(h).value == 20
