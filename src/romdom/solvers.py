"""Exact solvers for domination-style invariants, on bit-mask graphs.

A Roman function labels vertices 0/1/2 so that every 0 has a neighbor
labeled 2; its weight is the label sum. The searches here lean on one
identity: once the set S of 2-labeled vertices is fixed, the cheapest valid
completion puts a 1 on exactly V minus N[S] (a vertex inside N[S] never needs
its 1, a vertex outside has no 2-neighbor and must take one), so

    gamma_R(G) = min over S of  2|S| + n - |N[S]|.

That shrinks the label search from 3^n labelings to 2^n sets, and the
branch-and-bound below only ever explores sets S.

All searches visit vertices in ascending index order and report the first
optimum they complete, so witnesses are deterministic. Node budgets cap the
search size; running out raises BudgetExceeded rather than returning a guess.

Root symmetry cut. The first root branch of the gamma and gamma_R searches
puts vertex 0 into S. On a vertex-transitive graph some optimum contains 0,
since an automorphism maps any member of an optimal S onto 0; for gamma_R
the only completion with S empty is the all-ones incumbent, in place before
the search starts. So once that branch returns the optimum is reached, and
the root may return after it or after any later branch, skipping the rest
(for gamma_R also the "0 keeps a forced 1" branch). Witnesses do not change:
the incumbent is replaced only on a strict improvement, so it is still the
first optimum in search order. Detecting transitivity
(``Graph.vertex_transitive``, computed once per graph) costs more than a
small search saves, so it is consulted only when a root branch returns and
the search has spent at least n^2 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import DEFAULT_ENUM_GUARD
from .errors import BudgetExceeded, CapacityError, ParameterError
from .graphs import Graph, bits, square


@dataclass(frozen=True)
class RomanFunction:
    """A 0/1/2 labeling; validity against a graph is checked separately."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if any(x not in (0, 1, 2) for x in self.labels):
            raise ParameterError("Roman labels must be 0, 1, or 2")

    @property
    def weight(self) -> int:
        return sum(self.labels)

    def level_mask(self, level: int) -> int:
        m = 0
        for v, x in enumerate(self.labels):
            if x == level:
                m |= 1 << v
        return m

    @property
    def b0(self) -> int:
        return self.level_mask(0)

    @property
    def b1(self) -> int:
        return self.level_mask(1)

    @property
    def b2(self) -> int:
        return self.level_mask(2)


def roman_function_from_b2(n: int, b2: int, b1: int) -> RomanFunction:
    labels = [0] * n
    for v in bits(b2):
        labels[v] = 2
    for v in bits(b1):
        labels[v] = 1
    return RomanFunction(tuple(labels))


@dataclass(frozen=True)
class InvariantResult:
    """Exact value, a deterministic witness, and the search size that found it."""

    value: int
    witness: object
    node_count: int


class _Counter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: Optional[int]):
        self.nodes = 0
        self.limit = limit


def _closed(g: Graph) -> list[int]:
    return [row | (1 << v) for v, row in enumerate(g.adj)]


def _root_cut(g: Graph, ctr: _Counter) -> bool:
    """Whether the root may skip its remaining branches (the root symmetry
    cut in the module docstring).

    Called only at the root, after one of its branches returns, so every
    node counted but the root lies in a finished branch.
    """
    return ctr.nodes - 1 >= g.n * g.n and g.vertex_transitive


def domination_number(g: Graph, budget: Optional[int] = None) -> InvariantResult:
    """Minimum size of a set whose closed neighborhoods cover every vertex.

    Branch on the lowest-index uncovered vertex: some member of its closed
    neighborhood must join the set, and candidates already refused on this
    path stay refused. The bound charges each future pick with the best
    coverage any still-allowed vertex offers.
    """
    n = g.n
    full = g.full_mask
    adjc = _closed(g)
    top = max(m.bit_count() for m in adjc)
    ctr = _Counter(budget)
    best = n + 1
    best_mask = 0

    def dfs(covered: int, excluded: int, size: int, smask: int) -> None:
        nonlocal best, best_mask
        ctr.nodes += 1
        if ctr.limit is not None and ctr.nodes > ctr.limit:
            raise BudgetExceeded(ctr.nodes)
        if covered == full:
            if size < best:
                best = size
                best_mask = smask
            return
        undom = full & ~covered
        allowed = full & ~excluded
        maxc = 0
        t = allowed
        while t:
            lsb = t & -t
            t ^= lsb
            c = (adjc[lsb.bit_length() - 1] & undom).bit_count()
            if c > maxc:
                maxc = c
                if maxc == top:
                    break
        if maxc == 0:
            return
        if size + (undom.bit_count() + maxc - 1) // maxc >= best:
            return
        v = (undom & -undom).bit_length() - 1
        cands = adjc[v] & allowed
        if not cands:
            return
        ex = excluded
        t = cands
        while t:
            lsb = t & -t
            t ^= lsb
            u = lsb.bit_length() - 1
            dfs(covered | adjc[u], ex, size + 1, smask | lsb)
            if not (smask | excluded) and _root_cut(g, ctr):
                return
            ex |= lsb
    dfs(0, 0, 0, 0)
    return InvariantResult(best, best_mask, ctr.nodes)


def roman_domination_number(g: Graph, budget: Optional[int] = None) -> InvariantResult:
    """Minimum Roman weight, searched over 2-label sets S with forced ones.

    Each branch resolves the lowest-index vertex that is neither dominated
    nor already charged a 1: either some allowed member of its closed
    neighborhood joins S (cost 2), or none ever does and the vertex keeps a
    forced 1 (cost 1). The incumbent starts at the all-ones labeling, which
    is the S = empty completion. Bound: an uncovered vertex costs at least
    2/c where c is the best coverage any allowed vertex still offers, and
    never more than its all-ones fallback of 1, giving ceil(2m/c) on m
    uncovered vertices when c >= 2, else m.
    """
    n = g.n
    full = g.full_mask
    adjc = _closed(g)
    top = max(m.bit_count() for m in adjc)
    ctr = _Counter(budget)
    best = n
    best_pair = (0, full)

    def dfs(smask: int, covered: int, ones: int, excluded: int, cost: int) -> None:
        nonlocal best, best_pair
        ctr.nodes += 1
        if ctr.limit is not None and ctr.nodes > ctr.limit:
            raise BudgetExceeded(ctr.nodes)
        if cost >= best:
            return
        allowed = full & ~excluded
        undom = full & ~covered & ~ones
        t = undom
        while t:
            lsb = t & -t
            t ^= lsb
            if not adjc[lsb.bit_length() - 1] & allowed:
                ones |= lsb
                cost += 1
                if cost >= best:
                    return
        undom = full & ~covered & ~ones
        if not undom:
            best = cost
            best_pair = (smask, ones)
            return
        m = undom.bit_count()
        maxc = 0
        t = allowed
        while t:
            lsb = t & -t
            t ^= lsb
            c = (adjc[lsb.bit_length() - 1] & undom).bit_count()
            if c > maxc:
                maxc = c
                if maxc == top:
                    break
        lb = m if maxc <= 2 else (2 * m + maxc - 1) // maxc
        if cost + lb >= best:
            return
        v = (undom & -undom).bit_length() - 1
        cands = adjc[v] & allowed
        ex = excluded
        t = cands
        while t:
            lsb = t & -t
            t ^= lsb
            u = lsb.bit_length() - 1
            dfs(smask | lsb, covered | adjc[u], ones, ex, cost + 2)
            if not (smask | excluded) and _root_cut(g, ctr):
                return
            ex |= lsb
        # no allowed neighbor of v ever takes a 2: v keeps a forced 1
        dfs(smask, covered, ones | (undom & -undom), ex, cost + 1)

    dfs(0, 0, 0, 0, 0)
    b2, b1 = best_pair
    return InvariantResult(best, roman_function_from_b2(n, b2, b1), ctr.nodes)


def enumerate_optimal_rdfs(
    g: Graph,
    guard: Optional[int] = None,
    budget: Optional[int] = None,
) -> list[RomanFunction]:
    """All minimum-weight Roman functions, ordered by ascending 2-set mask.

    Optimal functions correspond one-to-one with sets S whose completion cost
    2|S| + n - |N[S]| equals gamma_R, with the ones forced onto V minus N[S];
    so it suffices to scan subsets of size at most gamma_R / 2.
    """
    limit = DEFAULT_ENUM_GUARD if guard is None else guard
    if g.n > limit:
        raise CapacityError(
            f"enumeration guard: {g.n} vertices exceed the configured bound {limit}"
        )
    n = g.n
    full = g.full_mask
    adjc = _closed(g)
    target = roman_domination_number(g, budget).value
    kmax = target // 2
    found: list[int] = []

    def rec(start: int, smask: int, covered: int, size: int) -> None:
        if 2 * size + n - covered.bit_count() == target:
            found.append(smask)
        if size == kmax:
            return
        for u in range(start, n):
            rec(u + 1, smask | (1 << u), covered | adjc[u], size + 1)

    rec(0, 0, 0, 0)
    found.sort()
    return [roman_function_from_b2(n, s, full & ~_neighborhood(adjc, s)) for s in found]


def _neighborhood(adjc: list[int], smask: int) -> int:
    m = 0
    for v in bits(smask):
        m |= adjc[v]
    return m


def two_packing_number(g: Graph, budget: Optional[int] = None) -> InvariantResult:
    """Largest set with pairwise distance above two.

    Equals the maximum independent set of square(g): two vertices within
    distance two are exactly the neighbors in the square.
    """
    sq = square(g)
    full = sq.full_mask
    adjc = _closed(sq)
    ctr = _Counter(budget)
    best = 0
    best_mask = 0

    def dfs(chosen: int, size: int, cand: int) -> None:
        nonlocal best, best_mask
        ctr.nodes += 1
        if ctr.limit is not None and ctr.nodes > ctr.limit:
            raise BudgetExceeded(ctr.nodes)
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            best_mask = chosen
            return
        lsb = cand & -cand
        v = lsb.bit_length() - 1
        dfs(chosen | lsb, size + 1, cand & ~adjc[v])
        dfs(chosen, size, cand ^ lsb)

    dfs(0, 0, full)
    return InvariantResult(best, best_mask, ctr.nodes)


def efficient_dominating_sets(g: Graph, budget: Optional[int] = None) -> list[int]:
    """All sets whose closed neighborhoods partition the vertex set.

    Exact-cover search: the lowest uncovered vertex picks the set member that
    covers it; closed neighborhoods may not overlap. Every solution has one
    such member, so each is produced exactly once. Any two solutions share
    their size, which equals the domination number (a dominating set meets
    every chosen closed neighborhood, a 2-packing cannot meet one twice).
    """
    full = g.full_mask
    adjc = _closed(g)
    ctr = _Counter(budget)
    out: list[int] = []

    def dfs(covered: int, smask: int) -> None:
        ctr.nodes += 1
        if ctr.limit is not None and ctr.nodes > ctr.limit:
            raise BudgetExceeded(ctr.nodes)
        if covered == full:
            out.append(smask)
            return
        v = ((full & ~covered) & -(full & ~covered)).bit_length() - 1
        t = adjc[v]
        while t:
            lsb = t & -t
            t ^= lsb
            u = lsb.bit_length() - 1
            if not adjc[u] & covered:
                dfs(covered | adjc[u], smask | lsb)

    dfs(0, 0)
    out.sort(key=lambda s: tuple(bits(s)))
    return out


def is_roman(g: Graph, budget: Optional[int] = None) -> bool:
    """Whether the Roman weight equals twice the domination number.

    Equivalently, some optimal Roman function uses no 1-labels at all.
    """
    ga = domination_number(g, budget).value
    gr = roman_domination_number(g, budget).value
    return gr == 2 * ga


def has_full_degree_vertex(g: Graph, budget: Optional[int] = None) -> bool:
    """Whether some vertex has degree n minus the domination number."""
    want = g.n - domination_number(g, budget).value
    return any(d == want for d in g.degrees())
