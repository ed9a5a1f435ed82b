"""Independent brute-force oracles used to pin solver results.

Everything here works from (n, edge list) and imports nothing from the
package. Most oracles use plain sets and itertools, deliberately sharing no
representation with the package's bitmask solvers; ``brute_covers``, a
search sized for 64 vertices, and ``brute_optimal_rdfs_subsets``, a table
over all 2^n sets, keep their sets as ints built from the edge list itself.
Exponential in n; callers keep instances small. ``brute_orbits``, a
backtracking search, is exponential only in the worst case and also runs on
the symmetric products of up to 64 vertices that the tests use.
"""

from __future__ import annotations

import itertools
from collections import deque


def _neighbors(n: int, edges) -> list[set[int]]:
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _closed(n: int, edges) -> list[set[int]]:
    nbrs = _neighbors(n, edges)
    return [nbrs[v] | {v} for v in range(n)]


def brute_gamma(n: int, edges) -> tuple[int, tuple[int, ...]]:
    """Smallest dominating set by exhaustive subset search, size ascending."""
    closed = _closed(n, edges)
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            covered = set()
            for v in combo:
                covered |= closed[v]
            if len(covered) == n:
                return size, combo
    raise AssertionError("unreachable")


def brute_gamma_r(n: int, edges) -> int:
    """Minimum Roman weight over all 3^n labelings."""
    nbrs = _neighbors(n, edges)
    best = 2 * n
    for labels in itertools.product((0, 1, 2), repeat=n):
        if any(
            labels[v] == 0 and all(labels[u] != 2 for u in nbrs[v]) for v in range(n)
        ):
            continue
        best = min(best, sum(labels))
    return best


def brute_gamma_r_subsets(n: int, edges) -> int:
    """Second route: min over 2-sets S of 2|S| + number of vertices outside N[S]."""
    closed = _closed(n, edges)
    best = n
    for size in range(n + 1):
        if 2 * size >= best:
            break
        for combo in itertools.combinations(range(n), size):
            covered = set()
            for v in combo:
                covered |= closed[v]
            best = min(best, 2 * size + n - len(covered))
    return best


def brute_first_optimum(n: int, edges, pick: int, miss) -> tuple[int, tuple[int, ...]]:
    """The optimum of pick * |S| + miss * |V minus N[S]| (``miss=None``:
    S must dominate) and the optimal S whose path comes first.

    A set's path: repeatedly take the lowest vertex neither dominated by
    the vertices chosen so far nor missed, and choose the lowest member of
    S in its closed neighborhood, or "miss" when there is none, which sorts
    after every vertex. Paths compare as sequences. With a miss cost the
    empty set, costing miss * n, is returned whenever nothing beats it,
    since that is the answer already in place before any search.
    """
    closed = _closed(n, edges)
    scored = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            covered = set().union(*(closed[v] for v in combo))
            if miss is None and len(covered) < n:
                continue
            scored.append((pick * size + (miss or 0) * (n - len(covered)), combo))
    best = min(cost for cost, _ in scored)
    if miss is not None and best == miss * n:
        return best, ()

    def path(combo: tuple[int, ...]) -> list[int]:
        chosen, missed, steps = set(), set(), []
        while True:
            dominated = set().union(*(closed[v] for v in chosen))
            rest = [v for v in range(n) if v not in dominated and v not in missed]
            if not rest:
                return steps
            v = rest[0]
            hits = [u for u in combo if u in closed[v]]
            if hits:
                chosen.add(hits[0])
                steps.append(hits[0])
            else:
                missed.add(v)
                steps.append(n)

    return best, min((combo for cost, combo in scored if cost == best), key=path)


def brute_covers(n: int, edges, k: int, target: int, root: int = 0) -> bool:
    """Whether some S with root in S and |S| <= k has |N[S]| >= target.

    Max-coverage search: the lowest vertex still outside N[S] is either
    dominated by some member of its closed neighborhood joining S (refused
    to the later siblings) or left out, which spends one of the n - target
    vertices allowed outside. A node dies once the uncovered vertices exceed
    that allowance plus the largest closed neighborhood times the picks left.
    """
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    top = max(c.bit_count() for c in closed)
    full = (1 << n) - 1

    def search(covered: int, refused: int, picks: int, slack: int) -> bool:
        uncovered = full & ~covered
        count = uncovered.bit_count()
        if count <= slack:
            return True
        if count > slack + top * picks:
            return False
        v = (uncovered & -uncovered).bit_length() - 1
        options = closed[v] & ~refused
        while options:
            w = options & -options
            options ^= w
            if search(covered | closed[w.bit_length() - 1], refused, picks - 1, slack):
                return True
            refused |= w
        # v stays outside N[S]: no member of its closed neighborhood joins S
        return slack > 0 and search(covered | 1 << v, refused, picks, slack - 1)

    return search(closed[root], 1 << root, k - 1, n - target)


def brute_optimal_rdfs(n: int, edges) -> list[tuple[int, ...]]:
    """All minimum-weight Roman labelings, sorted."""
    nbrs = _neighbors(n, edges)
    target = brute_gamma_r(n, edges)
    out = []
    for labels in itertools.product((0, 1, 2), repeat=n):
        if sum(labels) != target:
            continue
        if any(
            labels[v] == 0 and all(labels[u] != 2 for u in nbrs[v]) for v in range(n)
        ):
            continue
        out.append(labels)
    return sorted(out)


def brute_optimal_rdfs_subsets(n: int, edges) -> list[tuple[int, ...]]:
    """Second route to every minimum-weight Roman labeling, sorted.

    An optimal labeling puts its 1s exactly outside N[S], S being its 2s
    (a 0 there would be undominated, a 1 inside could drop to 0), so it is
    2 on S, 1 outside N[S] and 0 elsewhere. This tabulates N[S] for all 2^n
    sets S, each from S minus its lowest member, and keeps the cheapest.
    """
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    cover = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        cover[s] = cover[s ^ low] | closed[low.bit_length() - 1]
    cost = [2 * s.bit_count() + n - c.bit_count() for s, c in enumerate(cover)]
    best = min(cost)
    return sorted(
        tuple(2 if s >> v & 1 else 0 if cover[s] >> v & 1 else 1 for v in range(n))
        for s in range(1 << n)
        if cost[s] == best
    )


def all_labeled_graphs(max_n: int):
    """Every labeled graph on 1..max_n vertices, as (n, edge list)."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                yield n, list(edges)


def brute_orbits(n: int, edges) -> list[set[int]]:
    """The orbit of each vertex under the automorphism group.

    v is in the orbit of u when some automorphism maps u to v. A
    backtracking search looks for one: it maps u to v, then extends the map
    one vertex at a time in breadth-first order from u, each component in
    turn, trying every unused image of the same degree that keeps adjacency
    and non-adjacency with every vertex mapped so far. A complete map is
    then a bijection that preserves both, that is, an automorphism. Orbits
    partition the vertices, so each vertex is tried only against the
    smallest vertex of each orbit found before it.
    """
    nbrs = _neighbors(n, edges)

    def bfs_order(root: int) -> list[int]:
        order, seen = [], set()
        for start in [root] + list(range(n)):
            if start in seen:
                continue
            seen.add(start)
            queue = deque([start])
            while queue:
                w = queue.popleft()
                order.append(w)
                for x in sorted(nbrs[w] - seen):
                    seen.add(x)
                    queue.append(x)
        return order

    def extend(order: list[int], image: dict[int, int], used: set[int]) -> bool:
        if len(image) == n:
            return True
        w = order[len(image)]
        mapped = [x for x in nbrs[w] if x in image]
        pool = nbrs[image[mapped[0]]] if mapped else set(range(n))
        for c in sorted(pool - used):
            if len(nbrs[c]) == len(nbrs[w]) and all(
                (y in nbrs[w]) == (image[y] in nbrs[c]) for y in image
            ):
                image[w] = c
                used.add(c)
                if extend(order, image, used):
                    return True
                del image[w]
                used.discard(c)
        return False

    orbits: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        if orbits[u]:
            continue
        order = bfs_order(u)
        orbit = {u} | {
            v
            for v in range(u + 1, n)
            if not orbits[v] and len(nbrs[v]) == len(nbrs[u]) and extend(order, {u: v}, {v})
        }
        for v in orbit:
            orbits[v] = orbit
    return orbits


def brute_canonical_form(n: int, edges) -> tuple[int, tuple[tuple[int, int], ...]]:
    """n and the smallest sorted edge list over all n! relabelings.

    Two graphs get the same pair exactly when some relabeling carries one
    onto the other, that is, when they are isomorphic.
    """
    return n, min(
        tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        for perm in itertools.permutations(range(n))
    )


def bfs_distances(n: int, edges, source: int) -> list[float]:
    nbrs = _neighbors(n, edges)
    dist: list[float] = [float("inf")] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if dist[u] == float("inf"):
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def brute_p2(n: int, edges) -> int:
    """Largest set of vertices pairwise at distance greater than 2."""
    dist = [bfs_distances(n, edges, v) for v in range(n)]
    for size in range(n, 1, -1):
        for combo in itertools.combinations(range(n), size):
            if all(dist[u][v] > 2 for u, v in itertools.combinations(combo, 2)):
                return size
    return 1


def brute_codes(n: int, edges) -> list[tuple[int, ...]]:
    """All perfect codes: subsets meeting every closed neighborhood exactly once."""
    closed = _closed(n, edges)
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            chosen = set(combo)
            if all(len(closed[v] & chosen) == 1 for v in range(n)):
                out.append(combo)
    return sorted(out)


def ref_parse_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Reference graph6 decoder built on explicit bit strings."""
    data = [ord(c) - 63 for c in text]
    assert all(0 <= x < 64 for x in data)
    if data[0] == 63:
        assert data[1] != 63, "the 8-byte form is out of scope here"
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        rest = data[4:]
    else:
        n = data[0]
        rest = data[1:]
    bitstring = "".join(format(x, "06b") for x in rest)
    need = n * (n - 1) // 2
    assert len(bitstring) >= need
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstring[k] == "1":
                edges.add((i, j))
            k += 1
    assert all(c == "0" for c in bitstring[need:])
    return n, edges
