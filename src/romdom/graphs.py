"""Bitset graphs: construction, products, distance-two squares, components,
canonical forms and automorphisms.

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
    def _symmetry(self) -> tuple[tuple[int, ...], list[list[int]]]:
        return _individualize_refine(self.adj)

    @property
    def canonical_form(self) -> tuple[int, ...]:
        """Adjacency masks of the canonical relabeling: two graphs get the
        same tuple exactly when they are isomorphic (see ``_individualize_refine``)."""
        return self._symmetry[0]

    @cached_property
    def vertex_transitive(self) -> bool:
        """Whether automorphisms carry vertex 0 onto every vertex.

        Computed once per graph object. Vertices that differ in degree,
        triangle count or number of vertices at distance two settle it at
        once; otherwise it holds when the orbit of 0 under the automorphism
        generators of the canonical-form search is all of V, since those
        generate the whole automorphism group.
        """
        if len({_local_invariant(self.adj, v) for v in range(self.n)}) > 1:
            return False
        return _orbit(self._symmetry[1], 1) == self.full_mask

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


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """The coarsest equitable refinement of the ordered partition ``cells``.

    ``cells`` are vertex masks in order. Each splitter mask S splits every
    cell by the number of neighbors its vertices have in S, the pieces kept in
    place in ascending count order; all pieces but the first largest become
    splitters in turn (their counts fix the largest one's). ``splitters``
    must be enough to make the partition equitable: all of V at the root,
    or the new singleton after individualizing a vertex of an equitable
    partition. Every step reads counts and order only, never a vertex
    index, so relabeling the graph relabels the result the same way.
    """
    cells = list(cells)
    queue = list(splitters)
    n = len(adj)
    for s in queue:
        if len(cells) == n:
            break
        touched = 0
        t = s
        while t:
            lsb = t & -t
            t ^= lsb
            touched |= adj[lsb.bit_length() - 1]
        i = 0
        while i < len(cells):
            c = cells[i]
            i += 1
            if not (c & (c - 1) and c & touched):
                continue
            # only a touched vertex has a neighbor in s
            groups: dict[int, int] = {0: c & ~touched} if c & ~touched else {}
            t = c & touched
            while t:
                lsb = t & -t
                t ^= lsb
                k = (adj[lsb.bit_length() - 1] & s).bit_count()
                groups[k] = groups.get(k, 0) | lsb
            if len(groups) > 1:
                pieces = [groups[k] for k in sorted(groups)]
                cells[i - 1 : i] = pieces
                i += len(pieces) - 1
                big = max(pieces, key=int.bit_count)
                queue += [p for p in pieces if p != big]
    return cells


def _individualize_refine(adj: tuple[int, ...]) -> tuple[tuple[int, ...], list[list[int]]]:
    """Canonical adjacency and automorphism generators, from one search tree.

    An individualization-refinement search (McKay and Piperno, Practical
    graph isomorphism II, 2014). A node is an ordered partition made
    equitable by ``_refine``. Its children individualize each vertex w of
    its first non-singleton cell in turn: w becomes a singleton at the front
    of that cell, and the result is refined again. A leaf is a discrete
    partition; it relabels the graph by position, and the canonical form is
    the largest relabeled adjacency over all leaves. Neither the cell choice
    nor the refinement reads a vertex index, so the leaves of a relabeled
    graph are the relabeled leaves, and the largest one is the same.

    Pruning, each step skipping only a subtree that an automorphism maps
    onto one already searched:

    - A singleton keeps its position in every descendant. So when a leaf
      relabels the graph as the first or the best leaf does, mapping that
      leaf onto this one is an automorphism fixing their common prefix of
      individualized vertices. It is kept as a generator, and the search
      returns to the two leaves' common ancestor.
    - A child whose vertex lies in the orbit of the searched children under
      the generators that fix the node's prefix is skipped.
    - A later child is refined first and paired with the first child, the
      members of each cell in index order; when that pairing is an
      automorphism it is kept as a generator and the child is skipped.
    - A node whose non-singleton cells join each other and themselves
      either completely or not at all (K_n, the empty graph) has one leaf
      up to automorphism: any order within those cells is one. Its cells
      are ordered by index, and on the first path a transposition and a
      cycle per cell are kept as generators.

    On the first path these rules leave, for each vertex the stabilizer of
    a node's prefix can move into its first child's place, a generator
    fixing the prefix that does so. The generators therefore generate the
    whole automorphism group.
    """
    n = len(adj)
    gens: list[list[int]] = []
    leaves: list[tuple[tuple[int, ...], list[int], list[int]]] = []  # first, best

    def at_leaf(order: list[int], prefix: list[int]) -> int:
        """Compare the leaf with the first and best ones; the level to resume at."""
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        cert = []
        for v in order:
            m = 0
            t = adj[v]
            while t:
                lsb = t & -t
                t ^= lsb
                m |= 1 << pos[lsb.bit_length() - 1]
            cert.append(m)
        cert = tuple(cert)
        if not leaves:
            leaves[:] = [(cert, order, prefix)] * 2
            return len(prefix)
        for known, known_order, known_prefix in leaves:
            if cert == known:
                sigma = [0] * n
                for u, v in zip(known_order, order):
                    sigma[u] = v
                gens.append(sigma)
                common = 0
                while prefix[common] == known_prefix[common]:
                    common += 1
                return common
        if cert > leaves[1][0]:
            leaves[1] = (cert, order, prefix)
        return len(prefix)

    def visit(cells: list[int], prefix: list[int]) -> int:
        if len(cells) == n:
            return at_leaf([c.bit_length() - 1 for c in cells], prefix)
        open_cells = [c for c in cells if c & (c - 1)]
        if all(
            not adj[v] & d or adj[v] & d == d & ~(1 << v)
            for c in open_cells
            for v in (c.bit_length() - 1,)
            for d in open_cells
        ):
            for c in open_cells if not leaves else ():
                members = list(bits(c))
                swap, turn = list(range(n)), list(range(n))
                swap[members[0]], swap[members[1]] = members[1], members[0]
                for u, v in zip(members, members[1:] + members[:1]):
                    turn[u] = v
                gens.extend([swap, turn] if len(members) > 2 else [swap])
            return at_leaf([v for c in cells for v in bits(c)], prefix)
        i = next(j for j, c in enumerate(cells) if c & (c - 1))
        cell = cells[i]
        level = len(prefix)
        first: list[int] = []  # the first child's partition
        fixing: list[list[int]] = []  # the generators that fix the prefix
        known = tried = 0  # gens read into fixing; orbit of the searched children
        for w in bits(cell):
            new = [p for p in gens[known:] if all(p[v] == v for v in prefix)]
            known = len(gens)
            if new:
                fixing += new
                tried = _orbit(fixing, tried)
            if tried >> w & 1:
                continue
            child = _refine(adj, cells[:i] + [1 << w, cell ^ 1 << w] + cells[i + 1 :], [1 << w])
            sigma = _paired(adj, first, child) if first else None
            if sigma is not None:
                gens.append(sigma)
            else:
                first = first or child
                back = visit(child, prefix + [w])
                if back < level:
                    return back
            tried = _orbit(fixing, tried | 1 << w)
        return level

    visit(_refine(adj, [(1 << n) - 1], [(1 << n) - 1]), [])
    return leaves[1][0], gens


def _paired(adj: tuple[int, ...], a: list[int], b: list[int]) -> Optional[list[int]]:
    """The permutation pairing the members of each cell of ``a`` with those of
    the same cell of ``b`` in index order, if it is an automorphism."""
    if [c.bit_count() for c in a] != [c.bit_count() for c in b]:
        return None
    sigma = [0] * len(adj)
    for ca, cb in zip(a, b):
        for u, v in zip(bits(ca), bits(cb)):
            sigma[u] = v
    for v, row in enumerate(adj):
        if mask_of(sigma[u] for u in bits(row)) != adj[sigma[v]]:
            return None
    return sigma


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


def induced(g: Graph, mask: int) -> Graph:
    """The subgraph on the vertices of ``mask``, renumbered in ascending order."""
    vertices = list(bits(mask))
    index = {v: i for i, v in enumerate(vertices)}
    adj = tuple(mask_of(index[u] for u in bits(g.adj[v] & mask)) for v in vertices)
    return Graph(len(vertices), adj)


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
