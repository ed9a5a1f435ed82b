"""Exact solvers for domination-style invariants, on bit-mask graphs.

A Roman function labels vertices 0/1/2 so that every 0 has a neighbor
labeled 2; its weight is the label sum. Once the set S of 2-labeled vertices
is fixed, the cheapest valid completion puts a 1 on exactly V minus N[S] (a
vertex inside N[S] never needs its 1, a vertex outside has no 2-neighbor and
must take one), so

    gamma_R(G) = min over S of  2|S| + n - |N[S]|.

That shrinks the label search from 3^n labelings to 2^n sets.

One covering search. gamma and gamma_R are both the minimum over sets S of

    pick * |S| + miss * |V minus N[S]|,

with pick = 1 and no vertex allowed outside N[S] (miss = None) for gamma,
and pick = 2, miss = 1 for gamma_R. ``_cover_search`` takes the two costs as
parameters and runs one branch-and-bound over S. Each node resolves the
lowest-index vertex v that is neither dominated nor already charged a miss:
either some allowed member of N[v] joins S (cost pick), and is refused to
the later siblings, or none ever does and v is charged miss. When miss is
set, every such vertex with no allowed member of its closed neighborhood is
charged at once; for gamma the node dies only when its branch vertex has
none, since scanning every vertex for gamma cost more time than the nodes it
saved. Bound: with c the best coverage any allowed vertex still offers, each
of the m unresolved vertices costs at least pick / c, and at most miss, so
the rest costs at least ceil(pick * m / c), capped at miss * m. The
incumbent starts at miss * n, the S = empty completion, for gamma_R, and at
n + 1 for gamma.

Packing bound. Any set T of unresolved vertices such that every allowed
vertex dominates at most pick of them is an integral point of the dual of
the covering LP, and the rest costs at least |T|. For gamma (capacity 1)
the members of T need distinct members of S. For gamma_R (capacity 2) a
member of S costs 2 and dominates at most two members of T, and a member
of T outside N[S] pays its miss of 1, so each costs at least 1 again. T
is built greedily in index order, with one mask of the allowed vertices
that dominate at least one member of T and one of those that dominate two;
a vertex joins T unless one of its allowed dominators is saturated (the
first mask for gamma, the second for gamma_R). The node dies as soon as
|T| reaches best - cost. This walk is bit operations only and runs before
the coverage bound, which scans every allowed vertex and is consulted only
when the walk does not prune; both prune only on >= best.

All searches visit vertices in ascending index order and report the first
optimum they complete, so witnesses are deterministic. Node budgets cap the
search size; running out raises BudgetExceeded rather than returning a guess.

Root symmetry cut. The first root branch of the covering search puts vertex
0 into S. On a vertex-transitive graph some optimum contains 0, since an
automorphism maps any member of an optimal S onto 0; for gamma_R the only
completion with S empty is the incumbent, in place before the search
starts. So once that branch returns the optimum is reached, and the root
may return after it or after any later branch, skipping the rest (for
gamma_R also the "0 is charged miss" branch). Witnesses do not change: the
incumbent is replaced only on a strict improvement, so it is still the first
optimum in search order. Detecting transitivity (``Graph.vertex_transitive``,
computed once per graph) costs more than a small search saves, so it is
consulted only when a root branch returns and the search has spent at least
n^2 nodes.

Optimal ties. Given the optimum, the search lists every optimal S instead
(``enumerate_optimal_rdfs``): best stays at the optimum plus one, every
leaf is kept, and the root symmetry cut, sound only when one optimum is
wanted, is skipped. A leaf charges exactly V minus N[S]. Each optimal S is
reached exactly once. Its branch is fixed at every node: the miss branch
when v lies outside N[S], else the pick of the lowest member of S in N[v]
(earlier siblings pick non-members, later ones refuse it, the miss branch
refuses all of N[v]). No bound cuts that path, and it picks every member
u of S: u has a private vertex w of N[S] (else S minus u would cost 2
less), which stays unresolved until u joins, so w becomes a branch vertex
and picks u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .config import DEFAULT_ENUM_GUARD
from .errors import BudgetExceeded, CapacityError, ParameterError
from .graphs import Graph, bits, mask_of, square


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

    @cached_property
    def b0(self) -> int:
        return mask_of(v for v, x in enumerate(self.labels) if x == 0)

    @cached_property
    def b1(self) -> int:
        return mask_of(v for v, x in enumerate(self.labels) if x == 1)

    @cached_property
    def b2(self) -> int:
        return mask_of(v for v, x in enumerate(self.labels) if x == 2)


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


def _root_cut(g: Graph, ctr: _Counter) -> bool:
    """Whether the root may skip its remaining branches (the root symmetry
    cut in the module docstring).

    Called only at the root, after one of its branches returns, so every
    node counted but the root lies in a finished branch.
    """
    return ctr.nodes - 1 >= g.n * g.n and g.vertex_transitive


def _cover_search(
    g: Graph, budget: Optional[int], pick: int, miss: Optional[int], optimum: Optional[int] = None
) -> tuple[int, list[tuple[int, int]], int]:
    """Minimize pick * |S| + miss * |V minus N[S]| over vertex sets S, where
    ``miss=None`` forbids undominated vertices (see the module docstring).

    Returns the optimum, a list of optimal pairs (S, the vertices outside
    N[S], charged ``miss`` each) and the node count: the first optimum in
    search order or, given the ``optimum``, all of them (optimal ties).
    """
    n = g.n
    full = g.full_mask
    adjc = g.closed_adj()
    top = max(m.bit_count() for m in adjc)
    ctr = _Counter(budget)
    if optimum is None:
        best = n + 1 if miss is None else miss * n
        leaves = [(0, full)]
    else:
        best = optimum + 1
        leaves = []

    def dfs(smask: int, covered: int, ones: int, excluded: int, cost: int) -> None:
        nonlocal best
        ctr.nodes += 1
        if ctr.limit is not None and ctr.nodes > ctr.limit:
            raise BudgetExceeded(ctr.nodes)
        if cost >= best:
            return
        allowed = full & ~excluded
        undom = full & ~covered & ~ones
        if miss is not None:
            t = undom
            while t:
                lsb = t & -t
                t ^= lsb
                if not adjc[lsb.bit_length() - 1] & allowed:
                    ones |= lsb
                    undom ^= lsb
                    cost += miss
                    if cost >= best:
                        return
        if not undom:
            if optimum is None:
                best = cost
                leaves[0] = (smask, ones)
            else:
                leaves.append((smask, ones))
            return
        # packing bound (module docstring): the walk counts T down from
        # best - cost; one and two mark the allowed vertices that dominate
        # at least one and two members of T
        need = best - cost
        one = two = 0
        t = undom
        while t:
            lsb = t & -t
            t ^= lsb
            d = adjc[lsb.bit_length() - 1] & allowed
            if not d & (one if pick == 1 else two):
                need -= 1
                if not need:
                    return
                two |= one & d
                one |= d
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
        if maxc == 0:
            return
        lb = (pick * m + maxc - 1) // maxc
        if miss is not None and miss * m < lb:
            lb = miss * m
        if cost + lb >= best:
            return
        v = undom & -undom
        cands = adjc[v.bit_length() - 1] & allowed
        if not cands:
            return
        ex = excluded
        while cands:
            lsb = cands & -cands
            cands ^= lsb
            dfs(smask | lsb, covered | adjc[lsb.bit_length() - 1], ones, ex, cost + pick)
            if not (smask | excluded) and optimum is None and _root_cut(g, ctr):
                return
            ex |= lsb
        if miss is not None:
            # no allowed neighbor of v ever joins S: v is charged miss
            dfs(smask, covered, ones | v, ex, cost + miss)

    dfs(0, 0, 0, 0, 0)
    return best if optimum is None else optimum, leaves, ctr.nodes


def domination_number(g: Graph, budget: Optional[int] = None) -> InvariantResult:
    """Minimum size of a set whose closed neighborhoods cover every vertex."""
    value, [(smask, _)], nodes = _cover_search(g, budget, pick=1, miss=None)
    return InvariantResult(value, smask, nodes)


def roman_domination_number(g: Graph, budget: Optional[int] = None) -> InvariantResult:
    """Minimum Roman weight: 2 per vertex of S, plus a forced 1 on each vertex
    outside N[S]."""
    value, [(smask, ones)], nodes = _cover_search(g, budget, pick=2, miss=1)
    return InvariantResult(value, roman_function_from_b2(g.n, smask, ones), nodes)


def enumerate_optimal_rdfs(g: Graph, budget: Optional[int] = None) -> list[RomanFunction]:
    """All minimum-weight Roman functions, ordered by ascending 2-set mask.

    Optimal functions correspond one-to-one with sets S whose completion cost
    2|S| + n - |N[S]| equals gamma_R, with the ones forced onto V minus N[S]:
    a second covering search, given gamma_R, collects every one of them
    (optimal ties in the module docstring). ``budget`` caps the gamma_R
    solve and, separately, that search.
    """
    _enumeration_guard(g)  # before the gamma_R solve, not after it
    ties = _optimal_ties(g, roman_domination_number(g, budget).value, budget)
    return [roman_function_from_b2(g.n, s, ones) for s, ones in ties]


def _enumeration_guard(g: Graph) -> None:
    if g.n > DEFAULT_ENUM_GUARD:
        raise CapacityError(
            f"enumeration guard: {g.n} vertices exceed the configured bound {DEFAULT_ENUM_GUARD}"
        )


def _optimal_ties(g: Graph, target: int, budget: Optional[int] = None) -> list[tuple[int, int]]:
    """Every optimal Roman function of ``g``, whose weight ``target`` is
    known, as sorted (2-set, 1-set) mask pairs: the collecting run of
    ``enumerate_optimal_rdfs``, for a caller that has solved gamma_R already."""
    _enumeration_guard(g)
    _, ties, _ = _cover_search(g, budget, pick=2, miss=1, optimum=target)
    return sorted(ties)


def two_packing_number(g: Graph, budget: Optional[int] = None) -> InvariantResult:
    """Largest set with pairwise distance above two.

    Equals the maximum independent set of square(g): two vertices within
    distance two are exactly the neighbors in the square.
    """
    sq = square(g)
    full = sq.full_mask
    adjc = sq.closed_adj()
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
    return sorted(_efficient_sets(g, budget), key=lambda s: tuple(bits(s)))


def _efficient_sets(g: Graph, budget: Optional[int] = None) -> Iterator[int]:
    """The sets of ``efficient_dominating_sets``, yielded in search order, so
    a caller asking only whether one exists stops at the first."""
    full = g.full_mask
    adjc = g.closed_adj()
    ctr = _Counter(budget)

    def dfs(covered: int, smask: int) -> Iterator[int]:
        ctr.nodes += 1
        if ctr.limit is not None and ctr.nodes > ctr.limit:
            raise BudgetExceeded(ctr.nodes)
        if covered == full:
            yield smask
            return
        v = ((full & ~covered) & -(full & ~covered)).bit_length() - 1
        t = adjc[v]
        while t:
            lsb = t & -t
            t ^= lsb
            u = lsb.bit_length() - 1
            if not adjc[u] & covered:
                yield from dfs(covered | adjc[u], smask | lsb)

    return dfs(0, 0)


def is_roman_values(gamma: int, gamma_r: int) -> bool:
    """Whether a graph with these domination and Roman domination numbers
    is Roman: its Roman weight is twice its domination number."""
    return gamma_r == 2 * gamma


def is_roman(g: Graph, budget: Optional[int] = None) -> bool:
    """Whether the Roman weight equals twice the domination number.

    Equivalently, some optimal Roman function uses no 1-labels at all.
    """
    return is_roman_values(
        domination_number(g, budget).value, roman_domination_number(g, budget).value
    )
