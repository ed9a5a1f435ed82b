"""Executable upper-bound recipes: build labeled Roman functions on products.

Each construction assembles an explicit Roman function on a product graph
from optimal data of the factors, returning the function together with the
closed-form bound it realizes. Validity never depends on which optimal factor
functions were picked, but the realized weight does, so the free choices are
settled by scanning all optimal Roman functions of a factor and taking the
first maximizer in enumeration order. When a factor is too large to
enumerate, the single solver witness is used instead; the outcome records
which mode applied.

Row-major product numbering throughout: product vertex (u, v) has index
u * h.n + v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CapacityError, ParameterError, RomdomError
from .graphs import CARTESIAN, STRONG, Graph, bits, components, product
from .solvers import (
    RomanFunction,
    domination_number,
    enumerate_optimal_rdfs,
    roman_domination_number,
)


@dataclass(frozen=True)
class ConstructionOutcome:
    rdf: RomanFunction
    claimed_bound: int
    product: Graph
    selection_mode: str


def validate_rdf(g: Graph, f: RomanFunction) -> bool:
    """True iff every 0-labeled vertex has a neighbor labeled 2."""
    if len(f.labels) != g.n:
        raise ParameterError(
            f"labeling on {len(f.labels)} vertices does not fit a graph on {g.n}"
        )
    b2 = f.b2
    for v in bits(f.b0):
        if not g.adj[v] & b2:
            return False
    return True


def _weighed(recipe: str, rdf: RomanFunction, weight: int) -> RomanFunction:
    """Return ``rdf`` once its weight matches the recipe's closed form."""
    if rdf.weight != weight:
        raise RomdomError(
            f"{recipe}: the labeling weighs {rdf.weight}, its closed form gives {weight}"
        )
    return rdf


def _pick(
    g: Graph,
    score: Callable[[RomanFunction], int],
    budget: Optional[int],
) -> tuple[RomanFunction, str]:
    """Best-scoring optimal Roman function, or the solver witness past the guard."""
    try:
        options = enumerate_optimal_rdfs(g, budget=budget)
    except CapacityError:
        return roman_domination_number(g, budget).witness, "solver-witness"
    return max(options, key=score), "enumerated"


def replicate_construction(g: Graph, h: Graph, budget: Optional[int] = None) -> ConstructionOutcome:
    """Copy one factor's optimal function across the other factor's rows.

    Lifting f(u, v) = f2(v) to the Cartesian product stays valid: a 0 at
    (u, v) means f2(v) = 0, so v has a 2-neighbor v' in h and (u, v') is
    adjacent. Weight is n1 * gamma_R(h); the mirror orientation gives
    n2 * gamma_R(g), and the lighter of the two is returned.
    """
    prod = product(g, h, CARTESIAN)
    fg = roman_domination_number(g, budget).witness
    fh = roman_domination_number(h, budget).witness
    by_h = g.n * fh.weight
    by_g = h.n * fg.weight
    if by_h <= by_g:
        labels = tuple(fh.labels[v] for _ in range(g.n) for v in range(h.n))
        mode = "h-replicated"
    else:
        labels = tuple(fg.labels[u] for u in range(g.n) for _ in range(h.n))
        mode = "g-replicated"
    return ConstructionOutcome(RomanFunction(labels), min(by_h, by_g), prod, mode)


def swap_construction(g: Graph, h: Graph, budget: Optional[int] = None) -> ConstructionOutcome:
    """Replicate h's optimal function, then rework the rows over its 1-set.

    With f1 = (A0, A1, A2) optimal on g and f2 = (B0, B1, B2) optimal on h,
    label (u, v) with f2(v) except on the B1 columns, where u in A0 drops to
    0 and u in A2 takes 2. Zeros stay dominated: an A0 row has an A2 neighbor
    in the same column, and a B0 column keeps its 2 from f2 in the same row.
    The weight telescopes to

        n1 * gamma_R(h) - |B1| * (|A0| - |A2|),

    so f1 is picked to maximize |A0| - |A2| and f2 to maximize |B1|. When
    every component of g has at most two vertices the claimed bound is just
    that identity; otherwise |A0| >= |A2| + 1 holds for optimal f1 and the
    claim sharpens to (n1 + 1) * gamma_R(h) - 2 * gamma(h).
    """
    prod = product(g, h, CARTESIAN)
    f1, mode_g = _pick(g, lambda f: f.b0.bit_count() - f.b2.bit_count(), budget)
    f2, mode_h = _pick(h, lambda f: f.b1.bit_count(), budget)
    a0, a2 = f1.b0, f1.b2
    b1 = f2.b1
    labels = []
    for u in range(g.n):
        in_a0 = a0 >> u & 1
        in_a2 = a2 >> u & 1
        for v in range(h.n):
            if b1 >> v & 1:
                labels.append(0 if in_a0 else 2 if in_a2 else 1)
            else:
                labels.append(f2.labels[v])
    weight = g.n * f2.weight - b1.bit_count() * (a0.bit_count() - a2.bit_count())
    rdf = _weighed("swap_construction", RomanFunction(tuple(labels)), weight)
    if any(c.bit_count() > 2 for c in components(g)):
        claimed = (g.n + 1) * f2.weight - 2 * domination_number(h, budget).value
    else:
        claimed = weight
    return ConstructionOutcome(rdf, claimed, prod, f"g:{mode_g},h:{mode_h}")


def cross_construction(g: Graph, h: Graph, budget: Optional[int] = None) -> ConstructionOutcome:
    """Put 2s on a product of dominating sets, 1s on the complementary block.

    With S1, S2 minimum dominating sets, label S1 x S2 with 2 and
    (V1 - S1) x (V2 - S2) with 1. A zero sits in S1 x (V2 - S2) or its
    mirror; either way one coordinate is dominated inside its factor, giving
    an adjacent pair in S1 x S2. Weight is exactly

        2 * gamma(g) * gamma(h) + (n1 - gamma(g)) * (n2 - gamma(h)).
    """
    prod = product(g, h, CARTESIAN)
    s1 = domination_number(g, budget).witness
    s2 = domination_number(h, budget).witness
    labels = []
    for u in range(g.n):
        in1 = s1 >> u & 1
        for v in range(h.n):
            in2 = s2 >> v & 1
            labels.append(2 if in1 and in2 else 1 if not in1 and not in2 else 0)
    k1, k2 = s1.bit_count(), s2.bit_count()
    weight = 2 * k1 * k2 + (g.n - k1) * (h.n - k2)
    rdf = _weighed("cross_construction", RomanFunction(tuple(labels)), weight)
    return ConstructionOutcome(rdf, weight, prod, "gamma-witness")


def case_table_labels(n1: int, n2: int, f1: RomanFunction, f2: RomanFunction) -> RomanFunction:
    """Row-major strong-product labeling: 2 on (A1 x B2) | (A2 x B1) | (A2 x B2),
    1 on (A1 x B1), 0 elsewhere."""
    a1, a2 = f1.b1, f1.b2
    b1, b2 = f2.b1, f2.b2
    labels = []
    for u in range(n1):
        in_a1 = a1 >> u & 1
        in_a2 = a2 >> u & 1
        for v in range(n2):
            in_b1 = b1 >> v & 1
            in_b2 = b2 >> v & 1
            if (in_a1 and in_b2) or (in_a2 and in_b1) or (in_a2 and in_b2):
                labels.append(2)
            elif in_a1 and in_b1:
                labels.append(1)
            else:
                labels.append(0)
    return RomanFunction(tuple(labels))


def strong_case_construction(g: Graph, h: Graph, budget: Optional[int] = None) -> ConstructionOutcome:
    """Case-table labeling on the strong product from two optimal functions.

    Label (u, v) with 2 on (A1 x B2), (A2 x B1), (A2 x B2); with 1 on
    (A1 x B1); 0 elsewhere. Every zero block is dominated through strong
    adjacency: A0 rows reach an A2 row, B0 columns reach a B2 column, and
    both moves combine when needed. The weight collapses to

        gamma_R(g) * gamma_R(h) - 2 * |A2| * |B2|,

    so both factor functions are picked to maximize their 2-sets.
    """
    prod = product(g, h, STRONG)
    f1, mode_g = _pick(g, lambda f: f.b2.bit_count(), budget)
    f2, mode_h = _pick(h, lambda f: f.b2.bit_count(), budget)
    weight = f1.weight * f2.weight - 2 * f1.b2.bit_count() * f2.b2.bit_count()
    rdf = _weighed("strong_case_construction", case_table_labels(g.n, h.n, f1, f2), weight)
    return ConstructionOutcome(rdf, weight, prod, f"g:{mode_g},h:{mode_h}")
