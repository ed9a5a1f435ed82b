"""Env solves disconnected factors and products by components: its values
against direct solves of the whole graph and against the brute-force oracles."""

from __future__ import annotations

import random

from romdom import (
    CARTESIAN,
    STRONG,
    Env,
    complete,
    domination_number,
    evaluate,
    exhaustive_corpus,
    from_edges,
    product,
    roman_domination_number,
)

from bruteforce import (
    brute_codes,
    brute_gamma,
    brute_gamma_r_subsets,
    brute_optimal_rdfs_subsets,
    brute_p2,
)


def _classes(max_n: int):
    """One labeled graph per isomorphism class on at most ``max_n`` vertices."""
    seen = {}
    for g in exhaustive_corpus(max_n):
        seen.setdefault(g.canonical_form, g)
    return list(seen.values())


def test_products_match_direct_solves_on_every_class_pair():
    classes = _classes(4)
    assert len(classes) == 18
    memo: dict = {}  # one solve memo, as in a serial sweep
    for i, g in enumerate(classes):
        env = Env(g)
        env._sweep = memo
        k2 = product(g, complete(2), CARTESIAN)
        assert env.gammar_k2() == roman_domination_number(k2).value, g.name()
        for h in classes[i:]:
            for kind in (CARTESIAN, STRONG):
                whole = product(g, h, kind)
                want = (domination_number(whole).value, roman_domination_number(whole).value)
                for a, b in ((g, h), (h, g)):
                    env = Env(a, b)
                    env._sweep = memo
                    got = (env.gamma_prod(kind), env.gammar_prod(kind))
                    assert got == want, (a.name(), b.name(), kind)
    # the disconnected pairs were solved by component pairs
    assert any(key[0] == "part" for key in memo)


def _disjoint_union(seed: int):
    """A seeded union of 2 to 4 random parts, at most 10 vertices in all,
    with its vertices shuffled so that no part is a block of indices."""
    rng = random.Random(f"union:{seed}")
    count = rng.randint(2, 4)
    sizes: list[int] = []
    while len(sizes) < count and sum(sizes) < 10:
        sizes.append(rng.randint(1, min(4, 10 - sum(sizes))))
    order = list(range(sum(sizes)))
    rng.shuffle(order)
    edges, start = [], 0
    for k in sizes:
        block = order[start:start + k]
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:] if rng.random() < 0.6]
        start += k
    return len(order), edges


def test_factor_values_on_disjoint_unions_match_the_oracles():
    memo: dict = {}
    disconnected = 0
    for seed in range(40):
        n, edges = _disjoint_union(seed)
        g = from_edges(n, edges, f"U{seed}")
        env = Env(g)
        env._sweep = memo
        disconnected += not env.connected("g")
        optima = brute_optimal_rdfs_subsets(n, edges)
        want = (
            brute_gamma(n, edges)[0],
            brute_gamma_r_subsets(n, edges),
            brute_p2(n, edges),
            bool(brute_codes(n, edges)),
            max(f.count(2) for f in optima),
            min(f.count(1) for f in optima),
        )
        got = (env.gamma("g"), env.gammar("g"), env.p2("g"), env.in_f("g"), *env.optima("g"))
        assert got == want, (n, edges)
    assert disconnected == 40


def test_disjoint_edges_past_the_enumeration_guard_are_enumerated():
    # 14K2 has 28 vertices, past the 26-vertex guard of a whole-graph
    # enumeration, and 3^14 optimal functions; each component has three
    g = from_edges(28, [(2 * i, 2 * i + 1) for i in range(14)], "14K2")
    env = Env(g)
    assert env.optima("g") == (14, 0)
    assert env.max_b2("g") == (14, "enumerated")
    record = evaluate("L2-B2", g)
    assert (record.status, record.lhs, record.rhs) == ("checked", 14, 14)
