"""Graph container, products, and structural predicates."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romdom import (
    CARTESIAN,
    STRONG,
    CapacityError,
    Graph,
    ParameterError,
    bits,
    complete,
    components,
    cycle,
    from_edges,
    hypercube,
    is_connected,
    is_cycle_graph,
    is_path_graph,
    mask_of,
    path,
    product,
    square,
    star,
)

from bruteforce import all_labeled_graphs, brute_canonical_form, brute_vertex_transitive


def test_from_edges_basic():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.degrees()[1] == 2
    assert g.adj[0] >> 1 & 1 and g.adj[1] >> 0 & 1
    assert not g.adj[0] >> 2 & 1
    assert g.edge_count() == 2
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_adjacency_must_be_symmetric():
    with pytest.raises(ParameterError):
        Graph(2, (0b10, 0b00))


def test_loops_rejected():
    with pytest.raises(ParameterError):
        Graph(1, (0b1,))


def test_vertex_out_of_range():
    with pytest.raises(ParameterError):
        from_edges(2, [(0, 2)])


def test_empty_graph_rejected():
    with pytest.raises(ParameterError):
        Graph(0, ())


def test_capacity_guard(monkeypatch):
    monkeypatch.setenv("ROMDOM_MAX_WIDTH", "10")
    with pytest.raises(CapacityError):
        from_edges(11, [])
    monkeypatch.setenv("ROMDOM_MAX_WIDTH", "not-a-number")
    with pytest.raises(ParameterError):
        from_edges(2, [])


def test_bits_and_mask_roundtrip():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert mask_of([]) == 0


def test_closed_neighborhood():
    g = path(3)
    assert g.closed_adj() == [0b011, 0b111, 0b110]


def test_cartesian_product_is_the_grid():
    grid = product(path(2), path(3), CARTESIAN)
    assert grid.n == 6
    # rows {0,1,2} and {3,4,5}; rungs between them
    expected = {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
    assert set(grid.edges()) == expected


def test_strong_product_adds_diagonals():
    k = product(path(2), path(2), STRONG)
    assert k.n == 4
    assert k.edge_count() == 6  # K4


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_product_edge_counts(n1, n2, rng):
    e1 = [(i, j) for j in range(1, n1) for i in range(j) if rng.random() < 0.5]
    e2 = [(i, j) for j in range(1, n2) for i in range(j) if rng.random() < 0.5]
    g = from_edges(n1, e1)
    h = from_edges(n2, e2)
    cart = product(g, h, CARTESIAN)
    strg = product(g, h, STRONG)
    assert cart.edge_count() == n1 * len(e2) + n2 * len(e1)
    assert strg.edge_count() == cart.edge_count() + 2 * len(e1) * len(e2)


def test_product_vertex_numbering_is_row_major():
    g = product(path(3), path(4), CARTESIAN)
    # (i, j) -> 4i + j: vertex (1, 2) = 6 neighbors (0,2)=2, (2,2)=10, (1,1)=5, (1,3)=7
    assert sorted(bits(g.adj[6])) == [2, 5, 7, 10]


def test_product_kind_validated():
    with pytest.raises(ParameterError):
        product(path(2), path(2), "tensor")


def test_square_of_path():
    sq = square(path(4))
    assert set(sq.edges()) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}


def test_components_ordering():
    g = from_edges(5, [(1, 3), (2, 4)])
    comps = components(g)
    assert comps == [0b00001, 0b01010, 0b10100]


def test_connectivity_predicates():
    assert is_connected(path(5))
    assert not is_connected(from_edges(3, [(0, 1)]))
    assert is_path_graph(path(6))
    assert is_path_graph(path(1))
    assert not is_path_graph(cycle(4))
    assert not is_path_graph(star(3))
    assert is_cycle_graph(cycle(3))
    assert not is_cycle_graph(path(3))
    assert not is_cycle_graph(complete(4))


def test_label_does_not_affect_equality():
    assert from_edges(2, [(0, 1)], "a") == from_edges(2, [(0, 1)], "b")


def test_name_falls_back_to_graph6():
    assert from_edges(1, []).name() == "@"
    assert path(4).name() == "P4"


def test_vertex_transitive_matches_oracle():
    for n, edges in all_labeled_graphs(5):
        g = from_edges(n, edges)
        assert g.vertex_transitive == brute_vertex_transitive(n, edges), edges


def _frucht() -> Graph:
    # LCF notation [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    ring = [(v, (v + 1) % 12) for v in range(12)]
    chords = {tuple(sorted((v, (v + s) % 12))) for v, s in enumerate(lcf)}
    return from_edges(12, ring + sorted(chords), "Frucht")


@pytest.mark.parametrize(
    "g",
    [
        product(cycle(6), cycle(7), CARTESIAN),
        product(complete(4), cycle(11), CARTESIAN),
        product(hypercube(3), cycle(5), CARTESIAN),
        product(cycle(5), cycle(5), STRONG),
    ],
    ids=lambda g: g.name(),
)
def test_transitive_products(g):
    assert g.vertex_transitive


@pytest.mark.parametrize(
    "g",
    [
        product(path(4), cycle(5), CARTESIAN),
        product(star(3), star(3), CARTESIAN),
        # regular, but only the C3 vertices lie on a triangle
        from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)], "C3+C4"),
        # regular with equal local invariants: only the search tells them apart
        from_edges(11, [(v, (v + 1) % 5) for v in range(5)]
                   + [(5 + v, 5 + (v + 1) % 6) for v in range(6)], "C5+C6"),
        _frucht(),
    ],
    ids=lambda g: g.name(),
)
def test_intransitive_graphs(g):
    assert not g.vertex_transitive


@pytest.mark.parametrize("g", [complete(64), from_edges(64, [], "64K1")], ids=lambda g: g.name())
def test_vertex_transitive_closes_the_orbit_in_one_search(monkeypatch, g):
    # the root's one cell is a clique or an independent set, so the search
    # stops there: one refinement, and a transposition and the 64-cycle
    from romdom import graphs

    calls = []
    refine = graphs._refine
    monkeypatch.setattr(graphs, "_refine", lambda *args: calls.append(1) or refine(*args))
    assert g.vertex_transitive
    assert len(calls) == 1


# -- canonical forms


def _edges_of(rows: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(v, u) for v, row in enumerate(rows) for u in bits(row) if v < u]


def _relabeled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_form_matches_oracle():
    form_of = {}  # oracle form -> canonical form
    for n, edges in all_labeled_graphs(5):
        form = from_edges(n, edges).canonical_form
        oracle = brute_canonical_form(n, edges)
        # one form per class, and it describes a graph of that class
        assert form_of.setdefault(oracle, form) == form, edges
        assert brute_canonical_form(n, _edges_of(form)) == oracle, edges
    # 1 + 2 + 4 + 11 + 34 classes on 1..5 vertices, each with its own form
    assert len(form_of) == len(set(form_of.values())) == 52


def test_canonical_form_matches_oracle_on_six_vertices():
    rng = random.Random(6)
    pairs = list(itertools.combinations(range(6), 2))
    form_of = {}
    for _ in range(80):
        edges = [e for e in pairs if rng.random() < 0.5]
        form = from_edges(6, edges).canonical_form
        oracle = brute_canonical_form(6, edges)
        assert form_of.setdefault(oracle, form) == form, edges
        assert brute_canonical_form(6, _edges_of(form)) == oracle, edges
    assert len(form_of) == len(set(form_of.values())) > 40


def _petersen() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return from_edges(10, outer + inner + [(v, 5 + v) for v in range(5)], "Petersen")


def _gnm(n: int, m: int, seed: int) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    return from_edges(n, random.Random(seed).sample(pairs, m), f"G({n},{m})")


@pytest.mark.parametrize(
    "g",
    [
        hypercube(3),
        _petersen(),
        product(complete(4), cycle(11), CARTESIAN),
        _gnm(30, 75, 1),
        complete(64),
    ],
    ids=lambda g: g.name(),
)
def test_canonical_form_ignores_labels(g):
    for seed in range(3):
        assert _relabeled(g, seed).canonical_form == g.canonical_form


def _shrikhande() -> Graph:
    # Cayley graph of Z4 x Z4 on +-(0,1), +-(1,0), +-(1,1)
    edges = [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4)
        for b in range(4)
        for da, db in ((0, 1), (1, 0), (1, 1))
    ]
    return from_edges(16, edges, "Shrikhande")


def test_canonical_form_separates_lookalikes():
    # both strongly regular with parameters (16, 6, 2, 2), both transitive
    shrikhande, rook = _shrikhande(), product(complete(4), complete(4), CARTESIAN)
    assert shrikhande.vertex_transitive and rook.vertex_transitive
    assert shrikhande.degrees() == rook.degrees()
    assert shrikhande.canonical_form != rook.canonical_form
    two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], "2C3")
    assert cycle(6).canonical_form != two_triangles.canonical_form
    assert cycle(6).canonical_form == _relabeled(cycle(6), 0).canonical_form
