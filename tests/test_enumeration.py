"""Enumeration of every minimum-weight Roman function."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romdom import (
    BudgetExceeded,
    CapacityError,
    complete,
    cycle,
    enumerate_optimal_rdfs,
    from_edges,
    path,
    roman_domination_number,
    star,
    validate_rdf,
)
from romdom import solvers

from bruteforce import all_labeled_graphs, brute_optimal_rdfs, brute_optimal_rdfs_subsets


@st.composite
def small_graphs(draw, max_n: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edges(n, picked)


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_enumeration_matches_oracle(g):
    got = sorted(f.labels for f in enumerate_optimal_rdfs(g))
    assert got == brute_optimal_rdfs(g.n, list(g.edges()))


def test_enumeration_matches_oracle_on_every_small_graph():
    for n, edges in all_labeled_graphs(5):
        optima = enumerate_optimal_rdfs(from_edges(n, edges))
        assert sorted(f.labels for f in optima) == brute_optimal_rdfs(n, edges), edges
        masks = [f.b2 for f in optima]
        assert masks == sorted(set(masks)), edges


def test_enumeration_where_the_packing_bound_prunes():
    # seeded G(n, m) graphs, n in 10..14 with n to 2n edges, whose collecting
    # searches the packing bound prunes, against the 2^n oracle
    for n in (10, 12, 14):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        for m in (n, 3 * n // 2, 2 * n):
            for seed in range(5):
                edges = random.Random(f"ties:{n}:{m}:{seed}").sample(pairs, m)
                got = [f.labels for f in enumerate_optimal_rdfs(from_edges(n, edges))]
                assert sorted(got) == brute_optimal_rdfs_subsets(n, edges), edges


def test_disjoint_edges_have_three_optima_each():
    # every K2 takes (2, 0), (0, 2) or (1, 1) on its own: 3^k optima on kK2
    for k in range(1, 8):
        edges = [(2 * i, 2 * i + 1) for i in range(k)]
        got = [f.labels for f in enumerate_optimal_rdfs(from_edges(2 * k, edges))]
        assert len(got) == 3**k
        assert sorted(got) == brute_optimal_rdfs_subsets(2 * k, edges)


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_all_enumerated_functions_are_optimal_and_valid(g):
    target = roman_domination_number(g).value
    optima = enumerate_optimal_rdfs(g)
    assert optima
    for f in optima:
        assert f.weight == target
        assert validate_rdf(g, f)


def test_k2_has_three_optima():
    labels = sorted(f.labels for f in enumerate_optimal_rdfs(complete(2)))
    assert labels == [(0, 2), (1, 1), (2, 0)]


def test_p4_has_exactly_two():
    labels = sorted(f.labels for f in enumerate_optimal_rdfs(path(4)))
    assert labels == [(0, 2, 0, 1), (1, 0, 2, 0)]


def test_k1_single_optimum():
    assert [f.labels for f in enumerate_optimal_rdfs(complete(1))] == [(1,)]


def test_star_optima_put_two_on_the_hub():
    optima = enumerate_optimal_rdfs(star(4))
    assert [f.labels for f in optima] == [(2, 0, 0, 0, 0)]


def test_cycle5_mixed_two_set_sizes():
    sizes = {f.b2.bit_count() for f in enumerate_optimal_rdfs(cycle(5))}
    assert sizes == {1, 2}


def test_enumeration_guard(monkeypatch):
    with pytest.raises(CapacityError):
        enumerate_optimal_rdfs(path(27))
    # a lowered guard admits graphs up to it and refuses larger ones
    monkeypatch.setattr(solvers, "DEFAULT_ENUM_GUARD", 5)
    assert enumerate_optimal_rdfs(path(5))
    with pytest.raises(CapacityError):
        enumerate_optimal_rdfs(path(6))


def test_enumeration_counts_subsets_against_the_budget():
    # gamma_R(10K2) = 20 takes one node, but its 3^10 = 59,049 optima take
    # the collecting search 88,573 nodes
    with pytest.raises(BudgetExceeded):
        enumerate_optimal_rdfs(from_edges(20, [(2 * i, 2 * i + 1) for i in range(10)]), budget=1000)
    assert [f.labels for f in enumerate_optimal_rdfs(from_edges(20, []))] == [(1,) * 20]
