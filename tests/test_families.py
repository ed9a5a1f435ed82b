"""Named families, the family-string grammar, and the seeded random stream."""

from __future__ import annotations

import itertools

import pytest

from romdom import (
    FamilySpec,
    ParameterError,
    complete,
    cycle,
    hypercube,
    make_family,
    parse_family,
    path,
    random_graph,
    spider,
    splitmix64,
    star,
)

MASK64 = (1 << 64) - 1


def _reference_splitmix64(seed: int):
    # independent restatement of the generator, kept deliberately verbose
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield (z ^ (z >> 31)) & MASK64


def test_splitmix64_matches_reference():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        ours = splitmix64(seed)
        ref = _reference_splitmix64(seed)
        assert [next(ours) for _ in range(20)] == [next(ref) for _ in range(20)]


def test_splitmix64_known_first_value():
    # seed 0: first output of the reference sequence, pinned for stability
    assert next(splitmix64(0)) == 16294208416658607535


def test_path_structure():
    g = path(5)
    assert g.n == 5 and g.edge_count() == 4
    assert set(g.edges()) == {(0, 1), (1, 2), (2, 3), (3, 4)}
    assert path(1).edge_count() == 0


def test_cycle_structure():
    g = cycle(5)
    assert g.edge_count() == 5
    assert g.adj[0] >> 4 & 1
    with pytest.raises(ParameterError):
        cycle(2)


def test_complete_and_star():
    assert complete(4).edge_count() == 6
    s = star(3)
    assert s.n == 4
    assert sorted(s.degrees()) == [1, 1, 1, 3]
    assert s.degrees()[0] == 3  # hub first
    with pytest.raises(ParameterError):
        star(0)


def test_spider_numbering():
    # hub 0, leaves 1..r, subdivision vertices appended in spoke order
    g = spider(3, 0b001)
    assert g.n == 5
    assert g.degrees()[0] == 3
    assert set(g.edges()) == {(0, 2), (0, 3), (0, 4), (1, 4)}
    assert spider(3, 0).n == 4  # no subdivisions: a star
    with pytest.raises(ParameterError):
        spider(2, 0b100)


def test_hypercube():
    q3 = hypercube(3)
    assert q3.n == 8
    assert all(d == 3 for d in q3.degrees())
    assert q3.adj[0b000] >> 0b100 & 1
    assert not q3.adj[0b000] >> 0b110 & 1


def test_random_graph_is_deterministic():
    a = random_graph(6, 1, 2, 42)
    b = random_graph(6, 1, 2, 42)
    assert a == b
    assert a != random_graph(6, 1, 2, 43)


def test_random_graph_probability_edges():
    assert random_graph(5, 0, 1, 7).edge_count() == 0
    assert random_graph(5, 1, 1, 7).edge_count() == 10


def test_random_graph_draw_order_is_lexicographic():
    # pairs scanned (0,1), (0,2), ..., (n-2, n-1); edge iff draw*den < num*2**64
    n, seed = 5, 99
    draws = list(itertools.islice(splitmix64(seed), n * (n - 1) // 2))
    g = random_graph(n, 1, 2, seed)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            expect = draws[k] * 2 < (1 << 64)
            assert bool(g.adj[i] >> j & 1) == expect
            k += 1


def test_parse_family_grammar():
    assert parse_family("path:4") == FamilySpec("path", (4,))
    assert parse_family("spider:3:1") == FamilySpec("spider", (3, 1))
    # probability normalized to an exact numerator/denominator pair
    assert parse_family("random:6:1/2:42") == FamilySpec("random", (6, 1, 2, 42))
    assert parse_family("random:6:0.5:42") == FamilySpec("random", (6, 1, 2, 42))


@pytest.mark.parametrize(
    "bad",
    ["", "path", "path:x", "path:-1", "nosuch:3", "random:6:2:1", "spider:3:8", "cycle:2"],
)
def test_parse_family_rejects(bad):
    with pytest.raises(ParameterError):
        make_family(parse_family(bad))


def test_family_labels():
    assert path(4).label == "P4"
    assert cycle(5).label == "C5"
    assert complete(3).label == "K3"
    assert star(3).label == "K1,3"
    assert spider(3, 1).label == "spider(3;1)"
    assert hypercube(3).label == "Q3"
    assert random_graph(6, 1, 2, 42).label == "R(6,1/2,s42)"


def test_make_family_round_trip():
    for text in ("path:7", "cycle:4", "complete:5", "star:6", "hypercube:2", "spider:4:5"):
        g = make_family(parse_family(text))
        assert g.n >= 1
