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
set, the search carries the mask reach of the vertices that still have an
allowed member of their closed neighborhood, and a node charges every
unresolved vertex outside reach at once, with one popcount. reach shrinks
only when a candidate becomes refused: tried, or skipped by the orbit or
dominance cut (below), or when reduced-cost fixing (below) rules vertices
out. Then only members of its closed neighborhood can lose their last
allowed dominator, and those that do drop out. For gamma the node dies when
the local bound's scan (below) or the fixing finds such a vertex.

Greedy seed. Before the search, ``_greedy_cover`` builds one solution with
the classical greedy cover (Johnson 1974; Chvatal 1979): it takes the
vertex whose closed neighborhood covers the most uncovered vertices, lowest
index on ties, until every vertex is covered for gamma, and for gamma_R only
while that vertex covers more than pick / miss = 2 new ones, the rest paying
their miss. Its weight w is an upper bound on the optimum, and best starts
at w + 1 (for gamma_R at most n, which the S = empty completion, the
incumbent in place, already costs). By default the greedy set is never
the incumbent, and best does not start at w: then an optimal greedy set
would prune the path to every optimal leaf. The witness is unchanged:
until the search reaches its first optimal leaf in search order, best is
w + 1 or the cost of a worse leaf, so it stays above the optimum; no bound
prunes the path to that leaf, along which cost plus bound never exceeds the
optimum, and no orbit cut skips it, since the automorphism behind the cut
would map it onto an earlier optimal leaf. The greedy pass is bit
operations outside the tree, not a node.

Value-only start. A caller that reads only the value passes ``first=False``
(``bounds.Env`` does for every solve but one). Then the greedy set is the
incumbent: best starts at w, and the leaf in place is the greedy S with the
vertices outside N[S] charged. Every bound and screen prunes only on
>= best, so the value stays exact, and the search skips the path down to
the first optimal leaf whenever the seed is optimal already, which on the
product sweeps it mostly is. The witness follows a fixed rule. When w is
the optimum, no leaf costs less, best never falls, and the greedy set is
the witness. Otherwise best is at least the optimum plus one until the
search reaches its first optimal leaf, so the argument above still holds,
and the witness is that leaf, as with the default start.

Packing bound. Any set T of unresolved vertices such that every allowed
vertex dominates at most pick of them is an integral point of the dual of
the covering LP, and the rest costs at least |T|. For gamma (capacity 1)
the members of T need distinct members of S. For gamma_R (capacity 2) a
member of S costs 2 and dominates at most two members of T, and a member
of T outside N[S] pays its miss of 1, so each costs at least 1 again. T
is built greedily, with one mask of the allowed vertices that dominate at
least one member of T and one of those that dominate two; a vertex joins T
unless one of its allowed dominators is saturated (the first mask for
gamma, the second for gamma_R). The node dies as soon as |T| reaches
best - cost. Any walk order gives a valid T, so four walks run: the
unresolved vertices in index order and in reverse index order, each as it
is and stably sorted fewest allowed dominators first, the min-degree greedy
for independent sets (Halldorsson & Radhakrishnan, Algorithmica 18, 1997).
The index walk runs first and collects each vertex's allowed dominators;
the other three run only when it does not prune. The orders pack different
vertices, so each walk prunes nodes that the others do not: before
reduced-cost fixing (below), gamma_R(Q6) took 23,702 nodes with the index
walk alone, 19,262 with it and the sorted walk, and 16,024 with all four,
and leaving out any one of the three later walks cost it 1,047 to 2,030
nodes. The walks are bit operations only and run first.

Local bound. When no walk prunes, the node sums a fractional point
of the same dual (the fractional-domination dual; Grinstead & Slater,
Congr. Numer. 71, 1990). Let U be the unresolved vertices, c_u the number
of them that an allowed vertex u dominates, and c(v) the largest c_u over
the allowed dominators u of v. Charging each v in U min(miss, pick / c(v))
(pick / c(v) for gamma) is dual feasible: an allowed u that joins S
dominates at most c_u members of U, each with c(v) >= c_u, so they are
charged at most pick, its cost; a member of U that no member of S
dominates pays its own miss, at least its charge. So the rest costs at
least the sum of the charges. It is never below the global coverage
bound ceil(pick * |U| / max c_u) capped at miss * |U|, since every c(v) is
at most max c_u. The arithmetic is exact in integers scaled by L = lcm(1..top),
top the largest closed neighborhood: share[c] = min(miss * L, pick * L / c)
is built once per search, one pass over the allowed vertices that dominate
a member of U (the index walk collects them; no level reads c_u = 0) ORs
N[u] into bymax[c_u], and a descending pass over c gives each member of U
the share of the highest level that reaches it, one mask AND per level.
The node dies once the shares pass (best - cost - 1) * L, that is once
cost plus the ceiling of the sum reaches best, or, for gamma, when some
member of U has no allowed dominator. Both bounds prune only on >= best.

Reduced-cost fixing. The walks also price each allowed vertex u (Nemhauser
& Wolsey, Integer and Combinatorial Optimization, 1988; for set covering,
Balas & Carrera, Oper. Res. 44, 1996). u dominates at most [u in one] +
[u in two] members of a walk's T, and every other member still costs at
least 1, as above, so every completion that puts u in S costs at least
cost + pick + |T| - [u in one] - [u in two]. When that reaches best for
some walk, u is fixed: it leaves the allowed set for the node's whole
subtree, whose completions are the node's own, and best only falls there.
No walk reaches best - cost, so with gap = best - cost - pick a walk fixes
near minus one when |T| = gap, and near minus two when |T| = gap + 1
(gamma_R only): two mask operations, near being the allowed vertices that
dominate an unresolved one, the only ones that are ever a candidate in the
subtree. Fixed vertices stay out of E, so the generators that the orbit cut
keeps need not map them onto themselves, and the dominance cut's refusers
are unchanged. The orbit cut stays sound: a completion that an
automorphism maps into a finished branch was either explored there or holds
a vertex fixed there, and then costs at least best. reach follows the fixed
set: each time it grows, the unresolved vertices with no dominator left
outside the refused vertices and the fixed ones drop out of reach, and pay
their miss in the children; for gamma, the node dies. Fewer dominators can
pack a larger T, so the node then walks again, in the four orders over each
unresolved vertex's dominators less the fixed ones (sorted again by what is
left), and fixes again with the new walks and the old ones, which keep
their T (a greedy walk over fewer dominators can pack a smaller one), until
nothing new is fixed; a walk that reaches best - cost ends the node. After
a child lowers best, the node fixes again at the new best. The first
optimal leaf costs less than best until the search reaches it, and every
tie of the enumeration run costs best - 1, so neither holds a fixed vertex:
values, witnesses and optimal ties cannot change. gamma_R(Q6) took 16,024
nodes with no fixing and 3,340 with it, and kernel-hard at seed 1 7,396 and
3,541.

Child screening. A node that branches keeps the local bound's levels, each
a share and the members v of U it charges (their y_v), and the scaled sum
Sigma of every y_v. Before the node enters the child of candidate x, it
tests that child's bound. A fixed x is not entered: its completions cost at
least best. The members of U outside N[x] still cost their shares, so the
completions of any other x cost at least cost + pick + ceil((Sigma - sum of
y over N[x] meet U) / L); dual feasibility gives sum of y over N[x] meet U
<= pick * L, so this is never below the node's own bound. Lost vertices pay
a miss of at least their y, so the miss branch, where v is lost, costs at
least cost + miss + ceil((Sigma - y_v) / L). A child whose bound reaches
best is skipped, and a node returns as soon as best <= cost plus its own
bound, the largest of its walks' |T| and ceil(Sigma / L). The tests of a
candidate and of the miss branch keep out every child whose own cost
reaches best, so no node needs to test its cost on entry. Each test reads
the current best, not the best at the node's entry, since an earlier
sibling may have lowered it. A screened candidate
gets exactly the bookkeeping of a branch that returned: the generators
load, the orbit cut closes the tried candidates, and it is refused to the
later siblings and the miss branch, with reach updated. Entered, its branch
would have found no leaf below best, so best and the leaves stay the same.
So skipping keeps the first optimal leaf, which costs less than best until
the search reaches it, and every tie, which costs best - 1 in the
enumeration run, and the tree that is left is a subtree of the unscreened
one. Before reduced-cost fixing, with two walks whose test it applied to
the candidates alone, the screen took kernel-hard's nodes at seed 1 from
16,280 to 9,517 and gamma_R(Q6)'s from 36,516 to 19,262.

All searches visit vertices in ascending index order and report the first
optimum they complete (value-only: the greedy set when it is optimal), so
witnesses are deterministic. Node budgets cap the
search size; running out raises BudgetExceeded rather than returning a guess.

Orbit cut. Let a node have 2-set S and refused set E. Its completions are
the sets T that contain S and miss E, at cost pick * |T| + miss * |V minus
N[T]|. An automorphism sigma that maps S onto S and E onto E maps
completions onto completions at the same cost, since it maps N[T] onto
N[sigma(T)]. (The fixed vertices of reduced-cost fixing need not map onto
themselves: a completion that holds one costs at least best.) Each node
that branches keeps those of its parent's generators that map its own S and
E onto themselves as well.
Only the vertices its branch added need a test. A child adds the picked
candidate x to S (none in the miss branch) and the siblings refused so far,
R, to E. A permutation that maps S onto S maps S + x onto itself exactly
when it fixes x, and one that maps E onto E maps nothing outside E into E,
so it maps E + R onto itself exactly when it maps R into E + R. Each time a
candidate's branch returns, or the child screen skips it, the node closes
the tried candidates under its generators and skips every later candidate
in that orbit, refusing it to the later siblings and the miss branch as
before. That is sound: if such an
automorphism maps the skipped u_k onto an earlier candidate u_j, it maps
every completion of branch k onto a completion that holds u_j at the same
cost, which lies in branches 1..j, so, by induction over the skipped
siblings, branch k cannot strictly improve the incumbent. At the root (S
and E empty) the search also returns once the orbit is all of V: every
completion but S = empty then maps into a finished branch, and for gamma_R
that one is the incumbent in place before the search starts, so the miss
branch is skipped too. With a greedy seed below n the incumbent in place is
the seed's bound instead, and the skip stays sound: S = empty costs n >
seed >= optimum, so it is not optimal, and the finished branches hold an
optimal completion. On a vertex-transitive graph the root thus returns
after its first branch. Witnesses do not change: the incumbent is replaced
only on a strict improvement, so it is still the first optimum in search
order. Each skip rests only on the automorphism behind it, so the cut is
sound under any group of automorphisms. The generators are
``Graph._automorphisms``: the canonical-form search's, cached per graph
object, or, on the products ``bounds.Env`` solves, the factors' own, lifted
(``graphs.lift_automorphisms``): (i, j) -> (p[i], j) and (i, j) -> (i,
q[j]) for each generator p of G and q of H, and (i, j) -> (j, i) when G and
H are one canonical graph. For a Cartesian product of connected factors
with no common prime factor these generate the whole group (Sabidussi,
Math. Z. 72, 1960), else a subgroup; no search runs on the product. A
search that wants one optimum loads them when the first candidate branch
anywhere in its tree returns or is screened. A node made before then tests
its whole S and E once, when its own first candidate does, and every later
node inherits. So a node's list lacks any generator that maps its own sets onto
themselves but not its parent's: it generates a subgroup of the stabilizer,
found with no search per node, and a node that a bound prunes before it
branches tests nothing. The enumeration run (optimal ties) loads none.

Dominance cut. A candidate x of the branch vertex v is skipped when some
refused u in N[v] dominates every unresolved vertex that x dominates: N[x]
meet U lies in N[u], with U the unresolved vertices and the refused set
the node's E plus the siblings already tried or skipped (the subsumption
rule of set cover; Fomin, Grandoni & Kratsch, J. ACM 56(5), 2009). It needs
no automorphism. A skipped x is marked tried, as an orbit skip is, and
refused to the later siblings and the miss branch as before, so the rest of
the tree is unchanged. It is exact. Take a completion S of x's branch and
S' = S - x + u. As u is refused, u is not in S and |S'| = |S|. As x is
allowed, N[x] misses every charged vertex, and its covered part lies in
N[S minus x], so N[S'] contains N[S] and S' costs no more. A set's path is
fixed by the set alone: each node takes the lowest member of S in N[v], or
the miss branch, so leaves come in a fixed order on sets. The path of S'
agrees with that of S down to the node that refused u, as an earlier
sibling or by a miss branch, and there takes an earlier branch, since u
is in S' and in N[v] there. So an optimal S in a skipped branch has an
optimal S' ahead of it in search order, and the first optimal leaf, the
witness, is never skipped; the same holds with orbit skips, each of which
also maps S onto a set ahead of it at the same cost. Values and witnesses
do not change. The refused u matters: for an allowed u, S' may lie in a
later branch, which the same test can skip in turn, and values as well
as witnesses go wrong. The test costs one AND of N[v] with the refused
set, then one AND per vertex of N[x] meet U other than v until no
refused vertex is left.

Optimal ties. Given the optimum, the search lists every optimal S instead
(``enumerate_optimal_rdfs``): best stays at the optimum plus one, every
leaf is kept, and the orbit and dominance cuts, sound only when one
optimum is wanted, are skipped. A leaf charges exactly V minus N[S]. Each
optimal S is reached exactly once. Its branch is fixed at every node: the
miss branch when v lies outside N[S], else the pick of the lowest member
of S in N[v] (earlier siblings pick non-members, later ones refuse it, the
miss branch refuses all of N[v]). No bound cuts that path, and it picks
every member u of S: u has a private vertex w of N[S] (else S minus u
would cost 2 less), which stays unresolved until u joins, so w becomes a
branch vertex and picks u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterator, Optional

from .config import DEFAULT_ENUM_GUARD
from .errors import BudgetExceeded, CapacityError, ParameterError
from .graphs import Graph, _orbit, bits, mask_of, square


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


def _cover_search(
    g: Graph,
    budget: Optional[int],
    pick: int,
    miss: Optional[int],
    optimum: Optional[int] = None,
    *,
    first: bool = True,
) -> tuple[int, list[tuple[int, int]], int]:
    """Minimize pick * |S| + miss * |V minus N[S]| over vertex sets S, where
    ``miss=None`` forbids undominated vertices (see the module docstring).

    Returns the optimum, a list of optimal pairs (S, the vertices outside
    N[S], charged ``miss`` each) and the node count: the first optimum in
    search order or, given the ``optimum``, all of them (optimal ties).
    With ``first=False`` the greedy seed is the incumbent, and the one
    optimum is the greedy set when that is optimal, else the first optimum
    in search order (value-only start, module docstring).
    """
    n = g.n
    full = g.full_mask
    adjc = g.closed_adj()
    top = max(m.bit_count() for m in adjc)
    # the local bound's share of a vertex whose best dominator covers c,
    # scaled by lcm(1..top) so that every share is an integer
    scale = lcm(*range(1, top + 1))
    share = [0] + [pick * scale // c for c in range(1, top + 1)]
    if miss is not None:
        share = [min(miss * scale, x) for x in share]
    ctr = _Counter(budget)
    if optimum is None:
        # the greedy seed (module docstring): one above its weight, so the
        # search still reaches its own first optimum, or, value-only, the
        # incumbent itself
        s, ones = _greedy_cover(adjc, full, pick, miss)
        seed = pick * s.bit_count() + (miss * ones.bit_count() if ones else 0)
        if first:
            best = min(n + 1 if miss is None else miss * n, seed + 1)
            leaves = [(0, full)]
        else:
            best, leaves = seed, [(s, ones)]
    else:
        best = optimum + 1
        leaves = []
    # the automorphism generators, loaded for the orbit cut when the first
    # candidate's branch returns
    gens: Optional[list[list[int]]] = None

    def dfs(
        smask: int, covered: int, ones: int, excluded: int, cost: int, reach: int,
        stab: Optional[list[list[int]]], added: int, fixed: int,
    ) -> None:
        # stab: the parent's generators, each mapping the parent's S and E
        # onto themselves, or None before they load; added: the vertices
        # this branch added to smask and excluded; fixed: the vertices that
        # reduced-cost fixing keeps out of S in this subtree, apart from E
        nonlocal best, gens
        ctr.nodes += 1
        if ctr.limit is not None and ctr.nodes > ctr.limit:
            raise BudgetExceeded(ctr.nodes)
        # cost < best here: the child screen enters no child at or above best
        allowed = full & ~excluded & ~fixed
        undom = full & ~covered & ~ones
        if miss is not None:
            # reach: the vertices with an allowed dominator left
            lost = undom & ~reach
            if lost:
                ones |= lost
                undom ^= lost
                cost += miss * lost.bit_count()
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
        one = two = near = 0
        doms = []  # the allowed dominators of each unresolved vertex, ORed into near
        t = undom
        while t:
            lsb = t & -t
            t ^= lsb
            d = adjc[lsb.bit_length() - 1] & allowed
            doms.append(d)
            near |= d
            if not d & (one if pick == 1 else two):
                need -= 1
                if not need:
                    return
                two |= one & d
                one |= d
        walks = [(best - cost - need, one, two)]  # |T| and its masks, per walk

        def walk(orders) -> bool:
            # the walks after the first, appended to walks; True once one prunes
            for order in orders:
                need = best - cost
                one = two = 0
                for d in order:
                    if not d & (one if pick == 1 else two):
                        need -= 1
                        if not need:
                            return True
                        two |= one & d
                        one |= d
                walks.append((best - cost - need, one, two))
            return False

        # three more walks: fewest allowed dominators first, the reverse
        # index order, and the reverse sorted the same way (a stable sort, so
        # ties keep their order)
        rev = doms[::-1]
        if walk((sorted(doms, key=int.bit_count), rev, sorted(rev, key=int.bit_count))):
            return
        # local bound (module docstring): bymax[c] ORs the closed
        # neighborhoods of the vertices of near (the allowed vertices that
        # dominate an unresolved one) that cover c unresolved ones, and each
        # unresolved vertex pays the share of the highest c that reaches it,
        # out of room = (best - cost - 1) * scale
        bymax = [0] * (top + 1)
        t = near
        while t:
            lsb = t & -t
            t ^= lsb
            nb = adjc[lsb.bit_length() - 1]
            bymax[(nb & undom).bit_count()] |= nb
        room = (best - cost - 1) * scale
        rest = undom
        levels = []  # (share, the unresolved vertices charged it), for the screen
        for c in range(top, 0, -1):
            hit = rest & bymax[c]
            if hit:
                room -= share[c] * hit.bit_count()
                if room < 0:
                    return
                levels.append((share[c], hit))
                rest ^= hit
                if not rest:
                    break
        if rest:
            return  # gamma only: some unresolved vertex has no allowed dominator
        # child screen (module docstring): the scaled dual sum
        dual = (best - cost - 1) * scale - room
        ex = excluded
        floor = 0

        def fix() -> bool:
            # reduced-cost fixing (module docstring): fix each vertex of near
            # that some walk's T rules out, drop from reach the unresolved
            # vertices left with no allowed dominator, and walk again over
            # the dominators left, until nothing new is fixed; then set the
            # node's own lower bound, for the screen; True once a walk prunes
            nonlocal fixed, reach, doms, floor
            gap = best - cost - pick
            while True:
                new = 0
                for size, one, two in walks:
                    if size == gap:
                        new |= near & ~one
                    elif size > gap:
                        new |= near & ~two
                new &= ~fixed
                if not new:
                    floor = cost + max(max(size for size, _, _ in walks), -(-dual // scale))
                    return False
                fixed |= new
                doms = [d & ~new for d in doms]
                if miss is None:
                    if not all(doms):
                        return True  # an unresolved vertex has no allowed dominator
                else:
                    t = undom & reach
                    while t:
                        w = t & -t
                        t ^= w
                        if not adjc[w.bit_length() - 1] & ~ex & ~fixed:
                            reach ^= w
                rev = doms[::-1]
                if walk((doms, sorted(doms, key=int.bit_count), rev, sorted(rev, key=int.bit_count))):
                    return True

        if fix():
            return
        v = undom & -undom
        nv = adjc[v.bit_length() - 1]
        cands = nv & ~excluded
        if stab:
            # the node's own generators, kept only by nodes that branch
            stab = _stabilizing(stab, smask, excluded, added)
        tried = 0  # the orbit of the tried candidates under stab, and dominance skips
        while cands:
            lsb = cands & -cands
            cands ^= lsb
            if not tried & lsb:
                nb = adjc[lsb.bit_length() - 1]
                # dominance cut (module docstring): dom keeps the refused
                # members of N[v] that dominate every unresolved vertex of
                # N[lsb], and lsb is skipped if one is left; they all
                # dominate v, which lies in N[lsb]; a fixed lsb is screened
                # without the test
                dom = nv & ex if optimum is None and not lsb & fixed else 0
                t = (nb & undom) ^ v
                while t and dom:
                    w = t & -t
                    t ^= w
                    dom &= adjc[w.bit_length() - 1]
                if dom:
                    tried |= lsb
                else:
                    if not lsb & fixed:
                        # child screen (module docstring): the child is
                        # entered only if the dual sum less the shares of
                        # the members lsb dominates does not reach gap, what
                        # is left below best past cost + pick
                        slack = dual - (best - cost - pick - 1) * scale
                        if slack <= 0 or slack <= sum(y * (nb & hit).bit_count() for y, hit in levels):
                            # the child adds lsb to S and the earlier siblings to E
                            was = best
                            dfs(smask | lsb, covered | nb, ones, ex, cost + pick, reach, stab,
                                lsb | ex & ~excluded, fixed)
                            if best < was and fix():
                                return  # fixed again at the lower best, a walk pruned
                    if gens is None and optimum is None:
                        gens = g._automorphisms
                    if best <= floor:
                        return  # no completion left here can beat best
                    if gens is not None:
                        if stab is None:
                            stab = _stabilizing(gens, smask, excluded, smask | excluded)
                        new = (ex | lsb) & ~excluded & ~tried
                        tried |= _orbit(stab, new) if stab else new
                        if not smask | excluded and tried == full:
                            return
            ex |= lsb
            if miss is not None:
                # lsb is refused: drop from reach the members of its closed
                # neighborhood that have no allowed dominator left
                t = adjc[lsb.bit_length() - 1] & reach
                while t:
                    w = t & -t
                    t ^= w
                    if not adjc[w.bit_length() - 1] & ~ex & ~fixed:
                        reach ^= w
        if miss is not None:
            # no allowed neighbor of v ever joins S: v is charged miss, and
            # the screen drops its share from the dual sum
            if dual - sum(y for y, hit in levels if hit & v) <= (best - cost - miss - 1) * scale:
                dfs(smask, covered, ones | v, ex, cost + miss, reach, stab, ex & ~excluded, fixed)

    dfs(0, 0, 0, 0, 0, full, None, 0, 0)
    return best if optimum is None else optimum, leaves, ctr.nodes


def _stabilizing(perms: list[list[int]], smask: int, excluded: int, new: int) -> list[list[int]]:
    """The members of ``perms`` that map ``smask`` and ``excluded`` onto
    themselves, given that each maps the two sets less the vertices of
    ``new`` onto themselves: a permutation that does maps each of them
    onto itself exactly when it maps each new vertex into its own set."""
    tests = [(v, smask if smask >> v & 1 else excluded) for v in bits(new)]
    kept = []
    for p in perms:
        for v, into in tests:
            if not into >> p[v] & 1:
                break
        else:
            kept.append(p)
    return kept


def _greedy_cover(adjc: list[int], full: int, pick: int, miss: Optional[int]) -> tuple[int, int]:
    """The greedy seed of ``_cover_search`` (module docstring): a set S and
    the vertices outside N[S], charged ``miss`` each."""
    smask = covered = 0
    while covered != full:
        uncovered = full & ~covered
        most = u = 0
        for w, nb in enumerate(adjc):
            c = (nb & uncovered).bit_count()
            if c > most:
                most, u = c, w
        if miss is not None and most * miss <= pick:
            break
        smask |= 1 << u
        covered |= adjc[u]
    return smask, full & ~covered


def domination_number(
    g: Graph, budget: Optional[int] = None, *, first: bool = True
) -> InvariantResult:
    """Minimum size of a set whose closed neighborhoods cover every vertex.

    The witness is the first minimum set in search order; with
    ``first=False``, for a caller that reads only the value, the search
    starts from the greedy seed as its incumbent and usually takes fewer
    nodes, and the witness is the greedy set when that is optimal (see
    ``_cover_search``)."""
    value, [(smask, _)], nodes = _cover_search(g, budget, pick=1, miss=None, first=first)
    return InvariantResult(value, smask, nodes)


def roman_domination_number(
    g: Graph, budget: Optional[int] = None, *, first: bool = True
) -> InvariantResult:
    """Minimum Roman weight: 2 per vertex of S, plus a forced 1 on each vertex
    outside N[S]. ``first`` is as in ``domination_number``."""
    value, [(smask, ones)], nodes = _cover_search(g, budget, pick=2, miss=1, first=first)
    return InvariantResult(value, roman_function_from_b2(g.n, smask, ones), nodes)


def enumerate_optimal_rdfs(g: Graph, budget: Optional[int] = None) -> list[RomanFunction]:
    """All minimum-weight Roman functions, ordered by ascending 2-set mask.

    Optimal functions correspond one-to-one with sets S whose completion cost
    2|S| + n - |N[S]| equals gamma_R, with the ones forced onto V minus N[S]:
    a second covering search, given gamma_R, collects every one of them
    (optimal ties in the module docstring). ``budget`` caps the gamma_R
    solve and, separately, that search.
    """
    return _optimal_rdfs(g, budget)[0]


def _optimal_rdfs(g: Graph, budget: Optional[int] = None) -> tuple[list[RomanFunction], int]:
    """``enumerate_optimal_rdfs`` with the nodes its two searches spent."""
    _enumeration_guard(g)  # before the gamma_R solve, not after it
    res = roman_domination_number(g, budget)
    ties, nodes = _optimal_ties(g, res.value, budget)
    return [roman_function_from_b2(g.n, s, ones) for s, ones in ties], res.node_count + nodes


def _enumeration_guard(g: Graph) -> None:
    if g.n > DEFAULT_ENUM_GUARD:
        raise CapacityError(
            f"enumeration guard: {g.n} vertices exceed the configured bound {DEFAULT_ENUM_GUARD}"
        )


def _optimal_ties(
    g: Graph, target: int, budget: Optional[int] = None
) -> tuple[list[tuple[int, int]], int]:
    """Every optimal Roman function of ``g``, whose weight ``target`` is
    known, as sorted (2-set, 1-set) mask pairs, and the nodes spent: the
    collecting run of ``enumerate_optimal_rdfs``, for a caller that has
    solved gamma_R already."""
    _enumeration_guard(g)
    _, ties, nodes = _cover_search(g, budget, pick=2, miss=1, optimum=target)
    return sorted(ties), nodes


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
