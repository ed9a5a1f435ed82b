"""Exact solvers pinned to the brute-force oracles.

The oracles in bruteforce.py recompute everything from (n, edge list) with
sets and itertools; any disagreement on these small instances is a solver
bug, not a test artifact.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romdom import (
    CARTESIAN,
    PRODUCT_KINDS,
    STRONG,
    BudgetExceeded,
    Graph,
    ParameterError,
    RomanFunction,
    bits,
    complete,
    cycle,
    default_corpus,
    domination_number,
    efficient_dominating_sets,
    enumerate_optimal_rdfs,
    exhaustive_corpus,
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
from romdom import solvers
from romdom.graphs import _orbit
from romdom.solvers import _greedy_cover

from bruteforce import (
    all_labeled_graphs,
    brute_codes,
    brute_covers,
    brute_first_optimum,
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


def _packing_graphs() -> list[tuple[int, list[tuple[int, int]]]]:
    """120 seeded G(n, m) graphs, n in 12..16 with n to 5n/2 edges; the
    packing bound prunes in their searches, where on graphs of at most 5
    vertices it never does."""
    graphs = []
    for n in (12, 14, 16):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        for m in (n, 3 * n // 2, 2 * n, 5 * n // 2):
            for seed in range(10):
                graphs.append((n, random.Random(f"packing:{n}:{m}:{seed}").sample(pairs, m)))
    return graphs


def test_gamma_and_gamma_r_where_the_packing_bound_prunes():
    for n, edges in _packing_graphs():
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


def test_gamma_and_gamma_r_where_the_local_bound_is_widest():
    # n + 1 vertices covered by one closed neighborhood: the local bound's
    # shares are scaled by lcm(1..n + 1), and every unresolved vertex is
    # reached from the top level. With a universal vertex n the oracles run
    # as they are; with a star K1,n beside the graph instead, the search
    # carries that top level through every node, and gamma and gamma_R are
    # the graph's plus the star's 1 and 2
    for n, edges in _packing_graphs():
        gamma, gamma_r = brute_gamma(n, edges)[0], brute_gamma_r_subsets(n, edges)
        universal = edges + [(v, n) for v in range(n)]
        beside = edges + [(n, n + 1 + v) for v in range(n)]
        for g, want, want_r in (
            (from_edges(n + 1, universal), brute_gamma(n + 1, universal)[0],
             brute_gamma_r_subsets(n + 1, universal)),
            (from_edges(2 * n + 1, beside), gamma + 1, gamma_r + 2),
        ):
            res = domination_number(g)
            adjc, covered = g.closed_adj(), 0
            for v in bits(res.witness):
                covered |= adjc[v]
            assert (res.value, res.witness.bit_count(), covered) == (want, want, g.full_mask), edges
            res_r = roman_domination_number(g)
            assert res_r.value == res_r.witness.weight == want_r, edges
            assert validate_rdf(g, res_r.witness), edges


@pytest.mark.parametrize("g", [complete(64), star(63)], ids=["K64", "K1,63"])
def test_gamma_and_gamma_r_at_the_largest_scale(g):
    # top = 64, so the shares are scaled by lcm(1..64), a 90-bit integer
    res = domination_number(g)
    assert res.value == 1 and g.closed_adj()[res.witness.bit_length() - 1] == g.full_mask
    res_r = roman_domination_number(g)
    assert res_r.value == res_r.witness.weight == 2
    assert validate_rdf(g, res_r.witness)


def _first_optimum_graphs() -> list[tuple[int, list[tuple[int, int]]]]:
    """150 seeded G(n, m) graphs, n in 6..11 with n - 1 to 2n edges."""
    graphs = []
    for n in range(6, 12):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        for seed in range(25):
            rng = random.Random(f"first:{n}:{seed}")
            graphs.append((n, rng.sample(pairs, rng.randint(n - 1, 2 * n))))
    return graphs


def _symmetric_graphs() -> list[Graph]:
    """13 graphs on at most 12 vertices with many automorphisms, so the
    orbit cut skips candidates in small searches: C12, Q3, products and the
    Petersen graph."""
    k2 = complete(2)
    cartesian = [
        (cycle(3), cycle(4)), (cycle(4), cycle(3)), (k2, cycle(6)), (path(3), path(4)),
        (complete(3), complete(4)), (cycle(5), k2), (product(k2, k2, CARTESIAN), complete(3)),
    ]
    strong = [(k2, cycle(5)), (cycle(3), cycle(4)), (path(3), cycle(4))]
    spokes = [(v, (v + 1) % 5) for v in range(5)] + [(v, 5 + v) for v in range(5)]
    petersen = from_edges(10, spokes + [(5 + v, 5 + (v + 2) % 5) for v in range(5)])
    return [
        cycle(12),
        hypercube(3),
        *(product(g, h, CARTESIAN) for g, h in cartesian),
        *(product(g, h, STRONG) for g, h in strong),
        petersen,
    ]


def test_witnesses_are_the_first_optimum_in_search_order():
    # the kernel's cuts skip branches but never the first optimal leaf, so
    # both witnesses are the oracle's first optimum in path order, on all
    # 1,099 labeled graphs on at most 5 vertices, 150 seeded graphs and 13
    # symmetric ones
    labeled = [(g.n, g.edges()) for g in [*exhaustive_corpus(5), *_symmetric_graphs()]]
    for n, edges in [*labeled, *_first_optimum_graphs()]:
        g = from_edges(n, edges)
        res = domination_number(g)
        assert (res.value, tuple(bits(res.witness))) == brute_first_optimum(n, edges, 1, None), edges
        res_r = roman_domination_number(g)
        value, s = brute_first_optimum(n, edges, 2, 1)
        assert (res_r.value, res_r.witness.b2, res_r.witness.weight) == (value, mask_of(s), value), edges
        assert validate_rdf(g, res_r.witness), edges


def test_greedy_seed_is_a_solution_no_better_than_the_optimum():
    # the covering search's incumbent comes from this greedy pass, so it must
    # be a real dominating set or Roman function, and never beat the oracle
    for n, edges in [*all_labeled_graphs(5), *_packing_graphs()]:
        g = from_edges(n, edges)
        adjc, full = g.closed_adj(), g.full_mask
        smask, ones = _greedy_cover(adjc, full, pick=1, miss=None)
        covered = 0
        for v in bits(smask):
            covered |= adjc[v]
        assert covered == full and not ones, edges
        assert smask.bit_count() >= brute_gamma(n, edges)[0], edges
        f = roman_function_from_b2(n, *_greedy_cover(adjc, full, pick=2, miss=1))
        assert validate_rdf(g, f), edges
        assert f.weight >= brute_gamma_r_subsets(n, edges), edges


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
    # the greedy seed already weighs 24, so the search only proves it; the
    # node pin guards Q6 in hypercube(6)'s labeling (72,876 nodes with the
    # index packing walk alone, 80,872 with the fewest-dominators walk
    # alone, 58,061 with the generators loaded only after n^2 nodes, 56,990
    # with the cut under the generators that move no vertex of S and none of
    # the refused set, 36,516 with every child entered before its screen,
    # 19,262 with the index walk and the fewest-dominators walk alone,
    # 16,024 with four walks and no reduced-cost fixing).
    # The families sweep solves another labeling: ORBIT_CUT_CASES' Q3xQ3
    res = roman_domination_number(g, budget=2_000_000)
    labels = res.witness.labels
    assert (res.value, sum(labels), res.node_count) == (24, 24, 3_340)
    for v in range(n):
        assert labels[v] or any(labels[v ^ 1 << i] == 2 for i in range(6)), v


def test_packing_walks_on_random_graphs():
    # eight seeded G(30, 75) graphs, the size of kernel-hard's random
    # instances: irregular, so the packing bound's fewest-dominators walk
    # prunes where the index walk does not. The index walk alone took 1,504
    # gamma and 2,942 gamma_R nodes to the same values, the index and the
    # fewest-dominators walks 879 and 1,200 with no child screen and 504 and
    # 709 with it, and four walks 384 and 572 with no reduced-cost fixing
    pairs = [(u, v) for v in range(1, 30) for u in range(v)]
    values, nodes, nodes_r = [], 0, 0
    for seed in range(8):
        g = from_edges(30, random.Random(f"nodes:{seed}").sample(pairs, 75))
        res = domination_number(g)
        res_r = roman_domination_number(g)
        assert validate_rdf(g, res_r.witness) and res_r.witness.weight == res_r.value
        values.append((res.value, res_r.value))
        nodes += res.node_count
        nodes_r += res_r.node_count
    assert values == [(6, 12), (6, 12), (6, 11), (7, 12), (6, 11), (7, 12), (6, 12), (6, 11)]
    assert (nodes, nodes_r) == (146, 144)


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


# Values and witnesses from before any symmetry cut, and the exact node counts
# the covering search takes with the greedy seed, the orbit and dominance
# cuts, the packing bound's two walks and the local bound, so that any change
# to its branching, seed, bounds or cuts shows up here. The generators load
# when the first candidate's branch returns, so the cut runs in every one of
# these searches; with the generators loaded only after n^2 nodes, gamma and
# gamma_R took 924 and 1,909 nodes on C6xC7, 532 and 1,267 on Q3xC5, 96 and
# 53 on P4xC5, and 5,268 and 46,861 on Q3xQ3. P5xQ3 is not transitive and
# has 96 automorphisms, and its counts are the same either way. Q3xQ3 is Q6
# as the families sweep solves it, on two canonical Q3s: another tree than
# hypercube(6)'s, which took 5,352 and 62,701 nodes with the index packing
# walk alone. With the cut under the generators that move no vertex of S
# and none of the refused set, gamma_R took 778 nodes on C6xC7 and 277 on
# Q3xC5, and gamma and gamma_R took 2,743 and 9,924 on P5xQ3 and 2,906 and
# 45,587 on Q3xQ3. With every child entered before its screen, gamma and
# gamma_R took 366 and 738 nodes on C6xC7, 165 and 254 on Q3xC5, 52 and 41
# on P4xC5, 1,841 and 7,334 on P5xQ3 and 2,491 and 20,842 on Q3xQ3. With
# the packing walks in index order and fewest dominators first only, they
# took 184 and 465 on C6xC7, 85 and 160 on Q3xC5, 26 and 16 on P4xC5, 774
# and 3,030 on P5xQ3 and 1,653 and 13,478 on Q3xQ3. With four walks and no
# reduced-cost fixing, 103 and 288, 75 and 135, 25 and 14, 741 and 2,797,
# and 1,244 and 8,355.
_CANONICAL_Q3 = Graph(8, hypercube(3).canonical_form)
ORBIT_CUT_CASES = [
    (cycle(6), cycle(7), 10, [0, 1, 3, 12, 16, 21, 25, 27, 30, 40], 45,
     20, "220200000000200020000200020200200000000020", 59),
    (hypercube(3), cycle(5), 8, [0, 2, 5, 18, 28, 31, 34, 36], 36,
     16, "2020020000000000002000000000200200202000", 57),
    (path(4), cycle(5), 6, [0, 1, 2, 13, 14, 16], 10,
     10, "20010002000000202010", 9),
    (path(5), hypercube(3), 9, [0, 1, 14, 15, 16, 27, 29, 32, 38], 365,
     18, "2200000000000022200000000002020020000020", 643),
    (_CANONICAL_Q3, _CANONICAL_Q3, 12, [0, 1, 8, 9, 18, 19, 31, 39, 45, 46, 52, 60], 582,
     24, "2200000022000000002200000000000200000002000002200000200000002000", 2590),
]


@pytest.mark.parametrize(
    "g, h, gamma, witness, nodes, gamma_r, labels, nodes_r",
    ORBIT_CUT_CASES,
    ids=["C6xC7", "Q3xC5", "P4xC5", "P5xQ3", "Q3xQ3"],
)
def test_orbit_cut_keeps_values_and_witnesses(
    g, h, gamma, witness, nodes, gamma_r, labels, nodes_r
):
    prod = product(g, h, CARTESIAN)
    res = domination_number(prod)
    assert (res.value, sorted(bits(res.witness)), res.node_count) == (gamma, witness, nodes)
    res_r = roman_domination_number(prod)
    got = (res_r.value, "".join(map(str, res_r.witness.labels)), res_r.node_count)
    assert got == (gamma_r, labels, nodes_r)


def test_orbit_cut_on_k4_c11():
    # 379,267 nodes with neither a symmetry cut nor the packing bound, 76,815
    # with the packing bound and a cut at the root alone, 15,674 with the
    # orbit cut at every node; the greedy seed is already optimal here, so
    # the tree is the proof, and the local bound and the dominance cut
    # shrink it (3,984 nodes with the generators loaded only after n^2 nodes,
    # 2,640 with every child entered before its screen, 1,890 with two
    # packing walks, 1,525 with four and no reduced-cost fixing)
    prod = product(complete(4), cycle(11), CARTESIAN)
    res = domination_number(prod)
    assert (res.value, sorted(bits(res.witness)), res.node_count) == (11, list(range(11)), 1523)
    # gamma_R took 69,604 nodes with the cut under the generators that move
    # no vertex of S and none of the refused set, 30,742 with no child screen,
    # 25,781 with two packing walks, 23,659 with four and no reduced-cost
    # fixing
    res_r = roman_domination_number(prod)
    got = (res_r.value, "".join(map(str, res_r.witness.labels)), res_r.node_count)
    assert got == (22, "2" * 11 + "0" * 33, 10_304)


def _image(p: list[int], mask: int) -> int:
    return mask_of(p[v] for v in bits(mask))


@pytest.mark.parametrize(
    "g, h",
    [(path(4), cycle(4)), (path(4), path(4)), (cycle(6), cycle(7))],
    ids=lambda g: g.name(),
)
def test_orbit_cut_generators_map_each_nodes_sets_onto_themselves(monkeypatch, g, h):
    # every generator list the cut uses at a node comes from _stabilizing:
    # the root's (nothing added), that of a node made before the generators
    # loaded (its whole S and E added), and each child's (the branch's
    # vertices added). Each must hold exactly those of the given generators
    # that map the node's S and refused set onto themselves, and on each
    # product some list keeps a generator that moves a vertex of those sets
    stabilizing = solvers._stabilizing
    setwise = []

    def checked(perms, smask, excluded, new):
        kept = stabilizing(perms, smask, excluded, new)
        for p in perms:
            assert _image(p, smask & ~new) == smask & ~new
            assert _image(p, excluded & ~new) == excluded & ~new
        assert kept == [
            p for p in perms if _image(p, smask) == smask and _image(p, excluded) == excluded
        ]
        setwise.append(any(p[v] != v for p in kept for v in bits(smask | excluded)))
        return kept

    monkeypatch.setattr(solvers, "_stabilizing", checked)
    for kind in PRODUCT_KINDS:
        prod = product(g, h, kind)
        domination_number(prod)
        roman_domination_number(prod)
    assert any(setwise)


def test_root_cut_needs_transitivity(monkeypatch):
    # C8xC6 with a pendant vertex 0 hung on vertex 1: the orbit of 0 is not
    # all of V. The root's candidates are 0 and 1. The generators load when
    # the search's first branch returns, so the root closes the pendant under
    # them once its own first branch returns; no other node can, since 0 is
    # in S or refused below the root. The recorded closures keep that
    # premise. A dominating set or Roman function of the pendant graph moves
    # whatever it puts on 0 to the hub 1 at no cost, and some optimum of
    # C8xC6, which is vertex-transitive, holds the hub, so both values stay
    # C8xC6's
    g = product(cycle(8), cycle(6), CARTESIAN)
    h = from_edges(g.n + 1, [(u + 1, v + 1) for u, v in g.edges()] + [(0, 1)])
    assert _orbit(h._symmetry[1], 1) != h.full_mask
    closures = []

    def recorded(perms, orbit):
        closures.append(orbit)
        return _orbit(perms, orbit)

    monkeypatch.setattr(solvers, "_orbit", recorded)
    for solve, value in ((domination_number, 12), (roman_domination_number, 22)):
        closures.clear()
        assert solve(h).value == value
        assert any(orbit & 1 for orbit in closures), solve.__name__
        assert solve(g).value == value


def test_default_corpus_products_keep_values_and_witnesses():
    # gamma, its witness, gamma_R and its labels on all 448 products of the
    # default corpus with at most 48 vertices, both kinds, as computed before
    # the orbit cut
    digest = hashlib.sha256()
    corpus = default_corpus()
    for kind in PRODUCT_KINDS:
        for g in corpus:
            for h in corpus:
                if g.n * h.n > 48:
                    continue
                prod = product(g, h, kind)
                res = domination_number(prod)
                res_r = roman_domination_number(prod)
                labels = "".join(map(str, res_r.witness.labels))
                line = f"{prod.name()} {res.value} {res.witness} {res_r.value} {labels}\n"
                digest.update(line.encode())
    assert digest.hexdigest() == "00d5bb6f8c72dc7216d63fbb3b13294fe355ae9cdaa9b9dcc6318f8b2fdc02da"


def _value_only_graphs() -> list[tuple[Graph, bool]]:
    """The 448 default-corpus products of at most 48 vertices, both kinds,
    and 600 seeded random graphs on 4 to 18 vertices, each flagged True
    when it is random and small enough for the oracles."""
    corpus = default_corpus()
    graphs = [
        (product(g, h, kind), False)
        for kind in PRODUCT_KINDS
        for g in corpus
        for h in corpus
        if g.n * h.n <= 48
    ]
    for seed in range(600):
        rng = random.Random(f"value-only:{seed}")
        n = rng.randint(4, 18)
        density = rng.uniform(0.1, 0.6)
        edges = [(u, v) for v in range(1, n) for u in range(v) if rng.random() < density]
        graphs.append((from_edges(n, edges), n <= 12))
    return graphs


def test_value_only_start_keeps_values_and_fixes_its_witness():
    # first=False starts at the greedy seed's weight with the greedy set in
    # place: the value is the default start's, and the witness is the greedy
    # set exactly when the seed is optimal, else the default start's first
    # optimum in search order
    graphs = _value_only_graphs()
    assert len(graphs) == 448 + 600
    for g, small in graphs:
        adjc, full = g.closed_adj(), g.full_mask
        values = []
        for solve, pick, miss in ((domination_number, 1, None), (roman_domination_number, 2, 1)):
            res, fast = solve(g), solve(g, first=False)
            assert fast.value == res.value, (g.name(), solve.__name__)
            smask, ones = _greedy_cover(adjc, full, pick, miss)
            seed = pick * smask.bit_count() + (miss or 0) * ones.bit_count()
            greedy = smask if miss is None else roman_function_from_b2(g.n, smask, ones)
            assert fast.witness == (greedy if seed == res.value else res.witness), g.name()
            values.append(fast.value)
        if small:
            edges = list(g.edges())
            assert values == [brute_gamma(g.n, edges)[0], brute_gamma_r_subsets(g.n, edges)], edges
