"""Bitset graphs: construction, products, distance-two squares, components.

Vertices are 0..n-1. Vertex sets are Python ints used as bit masks, and
``adj[v]`` is the open-neighborhood mask of v. Graph products number their
vertices row-major: vertex (i, j) of a product of g and h gets index
``i * h.n + j``, so a witness index on a product decodes as
``divmod(index, h.n)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .config import max_width
from .errors import CapacityError, ParameterError

CARTESIAN = "cartesian"
STRONG = "strong"
PRODUCT_KINDS = (CARTESIAN, STRONG)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with bit-mask adjacency."""

    n: int
    adj: tuple[int, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("graph needs at least one vertex")
        width = max_width()
        if self.n > width:
            raise CapacityError(
                f"graph on {self.n} vertices exceeds the configured width {width}"
            )
        if len(self.adj) != self.n:
            raise ParameterError("adjacency row count differs from vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ParameterError(f"neighbor of vertex {v} out of range")
            if row >> v & 1:
                raise ParameterError(f"loop at vertex {v}")
        for v, row in enumerate(self.adj):
            t = row
            while t:
                lsb = t & -t
                t ^= lsb
                u = lsb.bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise ParameterError(f"edge {v}-{u} is not symmetric")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            t = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(t):
                out.append((v, u))
        return out

    def closed_adj(self) -> list[int]:
        return [row | (1 << v) for v, row in enumerate(self.adj)]

    @cached_property
    def vertex_transitive(self) -> bool:
        """Whether automorphisms carry vertex 0 onto every vertex.

        Computed once per graph object. Vertices that differ in degree,
        triangle count or number of vertices at distance two settle it at
        once; otherwise each vertex w outside the orbit of 0 under the
        automorphisms found so far needs an automorphism mapping 0 to w,
        looked for by a paired individualization-refinement search (McKay
        and Piperno, Practical graph isomorphism II, 2014) and checked on
        every edge before it is trusted. The vertices w are tried from n - 1
        down: on a graph whose refined partition of the other vertices is one
        cell (K_n, the empty graph), the first guess for w = n - 1 is then
        the n-cycle, which closes the orbit at once, where w = 1 would find a
        transposition and grow the orbit by one vertex per search.
        """
        if len({_local_invariant(self.adj, v) for v in range(self.n)}) > 1:
            return False
        nbrs = [list(bits(row)) for row in self.adj]
        found: list[list[int]] = []
        orbit = 1
        for w in range(self.n - 1, 0, -1):
            if orbit >> w & 1:
                continue
            a = [0] * self.n
            b = [0] * self.n
            a[0] = b[w] = 1
            sigma = _automorphism(self.adj, nbrs, a, b)
            if sigma is None:
                return False
            found.append(sigma)
            orbit = _orbit(found, orbit)
        return True

    def name(self) -> str:
        """Printable descriptor: the label if set, else a graph6 string."""
        if self.label:
            return self.label
        from .graph6 import write_graph6

        return write_graph6(self)


def _local_invariant(adj: tuple[int, ...], v: int) -> tuple[int, int, int]:
    """Degree, twice the triangles through v, and the vertices at distance two."""
    row = adj[v]
    wedges = 0
    reach = 0
    for u in bits(row):
        wedges += (adj[u] & row).bit_count()
        reach |= adj[u]
    return row.bit_count(), wedges, (reach & ~row & ~(1 << v)).bit_count()


def _refine_pair(
    nbrs: list[list[int]], a: list[int], b: list[int]
) -> Optional[tuple[list[int], list[int]]]:
    """Refine two colorings of one graph in step, to their equitable partitions.

    A vertex's next color names its color together with the multiset of its
    neighbors' colors; names come from the signatures in sorted order, so they
    are shared by both sides and any automorphism carrying a onto b also
    carries the refined a onto the refined b. Returns None as soon as the two
    sides' signature multisets differ, which rules such an automorphism out.
    """
    k = len(set(a))
    while True:
        sa = [(a[v], tuple(sorted([a[u] for u in nb]))) for v, nb in enumerate(nbrs)]
        sb = [(b[v], tuple(sorted([b[u] for u in nb]))) for v, nb in enumerate(nbrs)]
        if sorted(sa) != sorted(sb):
            return None
        names = {sig: i for i, sig in enumerate(sorted(set(sa)))}
        a = [names[sig] for sig in sa]
        b = [names[sig] for sig in sb]
        if len(names) == k:
            return a, b
        k = len(names)


def _automorphism(
    adj: tuple[int, ...], nbrs: list[list[int]], a: list[int], b: list[int]
) -> Optional[list[int]]:
    """An automorphism sigma with b[sigma(v)] == a[v] for all v, or None.

    After refinement, the cheap guess that pairs the members of each color
    class in index order is tried first; failing that, the lowest vertex of
    the first non-singleton class is individualized on the left against each
    vertex of that class on the right in turn. Every automorphism respecting
    the colorings survives some branch, so None means there is none.
    """
    pair = _refine_pair(nbrs, a, b)
    if pair is None:
        return None
    a, b = pair
    n = len(a)
    k = max(a) + 1
    cells_a: list[list[int]] = [[] for _ in range(k)]
    cells_b: list[list[int]] = [[] for _ in range(k)]
    for v in range(n):
        cells_a[a[v]].append(v)
        cells_b[b[v]].append(v)
    sigma = [0] * n
    for ca, cb in zip(cells_a, cells_b):
        for v, w in zip(ca, cb):
            sigma[v] = w
    if all(mask_of(sigma[u] for u in nbrs[v]) == adj[sigma[v]] for v in range(n)):
        return sigma
    if k == n:
        return None
    cell = next(c for c in range(k) if len(cells_a[c]) > 1)
    a[cells_a[cell][0]] = k
    for w in cells_b[cell]:
        b2 = b.copy()
        b2[w] = k
        sigma = _automorphism(adj, nbrs, a, b2)
        if sigma is not None:
            return sigma
    return None


def _orbit(perms: list[list[int]], orbit: int) -> int:
    """Close the vertex mask ``orbit`` under the permutations ``perms``."""
    frontier = orbit
    while frontier:
        reached = 0
        for v in bits(frontier):
            for p in perms:
                reached |= 1 << p[v]
        frontier = reached & ~orbit
        orbit |= reached
    return orbit


def from_edges(n: int, edges: Iterable[tuple[int, int]], label: str = "") -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ParameterError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge {u}-{v} out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), label)


def product(g: Graph, h: Graph, kind: str) -> Graph:
    """Cartesian or strong product with row-major vertex numbering.

    Cartesian edges join pairs that agree in one coordinate and are adjacent
    in the other; the strong product keeps those and adds pairs adjacent in
    both coordinates.
    """
    if kind not in PRODUCT_KINDS:
        raise ParameterError(f"unknown product kind {kind!r}")
    n = g.n * h.n
    width = max_width()
    if n > width:
        raise CapacityError(
            f"product on {n} vertices exceeds the configured width {width}"
        )
    strong = kind == STRONG
    n2 = h.n
    adj = []
    for i in range(g.n):
        base = i * n2
        row_g = g.adj[i]
        for j in range(n2):
            m = h.adj[j] << base
            t = row_g
            while t:
                lsb = t & -t
                t ^= lsb
                ii = lsb.bit_length() - 1
                m |= 1 << (ii * n2 + j)
                if strong:
                    m |= h.adj[j] << (ii * n2)
            adj.append(m)
    label = f"{g.name()} x {h.name()} {kind}"
    return Graph(n, tuple(adj), label)


def square(g: Graph) -> Graph:
    """Graph on the same vertices joining pairs at distance one or two."""
    adj = []
    for v in range(g.n):
        m = g.adj[v]
        t = g.adj[v]
        while t:
            lsb = t & -t
            t ^= lsb
            m |= g.adj[lsb.bit_length() - 1]
        m &= ~(1 << v)
        adj.append(m)
    label = f"square({g.label})" if g.label else ""
    return Graph(g.n, tuple(adj), label)


def components(g: Graph) -> list[int]:
    """Connected components as bit masks, ordered by smallest member vertex."""
    out = []
    remaining = g.full_mask
    while remaining:
        comp = 0
        frontier = remaining & -remaining
        while frontier:
            comp |= frontier
            nxt = 0
            t = frontier
            while t:
                lsb = t & -t
                t ^= lsb
                nxt |= g.adj[lsb.bit_length() - 1]
            frontier = nxt & ~comp
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def is_path_graph(g: Graph) -> bool:
    """True when g is a path on n >= 1 vertices (in any labeling)."""
    if not is_connected(g):
        return False
    if g.edge_count() != g.n - 1:
        return False
    return max(g.degrees()) <= 2


def is_cycle_graph(g: Graph) -> bool:
    """True when g is a cycle on n >= 3 vertices (in any labeling)."""
    if g.n < 3 or not is_connected(g):
        return False
    return all(d == 2 for d in g.degrees())
