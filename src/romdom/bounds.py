"""Registry of provable bounds and the harness that checks them on instances.

Every check has a stable id, a hypothesis test, and two integer sides to
compare. Checks whose statement divides by 2 or 3 are compared with both
sides scaled by 6, so everything stays in exact integer arithmetic; the
record's ``scale`` field says which convention applies. A failed hypothesis
produces a skipped record, never a vacuous pass, and a solver running out of
its node budget produces a skipped record with the reason, never a guessed
value.

For two-sided statements the record carries the primary inequality in
``lhs``/``rhs`` and folds the companion side into ``holds`` with the numbers
spelled out in ``note``.

Binary checks read their orientation from the argument order: ``g`` plays
the role the statement's hypotheses constrain, ``h`` the other. Run the pair
both ways to cover both orientations; ``run_suite`` does so by walking all
ordered pairs of its corpus.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import json
import multiprocessing
import operator
from contextlib import suppress
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .config import DEFAULT_SUITE_BUDGET
from .constructions import case_table_labels, validate_rdf
from .errors import BudgetExceeded, CapacityError, ParameterError, RomdomError
from .families import complete, cycle, hypercube, path, random_graph, spider, star
from .graph6 import write_graph6
from .graphs import (
    CARTESIAN,
    STRONG,
    Graph,
    components,
    from_edges,
    induced,
    is_connected,
    is_cycle_graph,
    is_path_graph,
    lift_automorphisms,
    product,
)
from .solvers import (
    _efficient_sets,
    _optimal_ties,
    domination_number,
    # not called here: perfbench/probe.py wraps the solver names bounds imports
    efficient_dominating_sets,  # noqa: F401
    enumerate_optimal_rdfs,
    is_roman_values,
    roman_domination_number,
    two_packing_number,
)


# ---------------------------------------------------------------------------
# per-instance lazy invariant cache


def _memoized(memo: dict, key, fn):
    """``fn()`` memoized in ``memo`` under ``key``; a BudgetExceeded or
    CapacityError is memoized too and raised again on lookup."""
    if key in memo:
        value = memo[key]
        if isinstance(value, Exception):
            # a fresh traceback on every raise, so a stored exception does
            # not collect (and keep alive) the frames of each lookup
            raise value.with_traceback(None)
        return value
    try:
        value = fn()
    except (BudgetExceeded, CapacityError) as exc:
        memo[key] = exc
        raise
    memo[key] = value
    return value


_K2 = complete(2)


def _component_classes(g: Graph) -> tuple[Graph, ...]:
    """The canonical graph of each component's class, for a canonical ``g``."""
    masks = components(g)
    if len(masks) == 1:
        return (g,)
    parts = [induced(g, mask) for mask in masks]
    return tuple(Graph(p.n, p.canonical_form) for p in parts)


def _pair_product(kind: str, first: Graph, second: Graph) -> Graph:
    """The product ``Env._component_pair`` solves, its generators lifted from its factors."""
    return lift_automorphisms(product(first, second, kind), first, second)


class Env:
    """Memoized invariants for one instance (a graph, or an ordered pair).

    Every solve goes through the solve memo ``_sweep``: a fresh one per Env,
    or the one its sweep shares (``_run_item`` attaches it). The Env's
    own ``_memo`` keeps the values it has read, keyed by role, for
    ``witness_payload``; failures are kept only in the solve memo.

    Every invariant the checks read is an isomorphism invariant of G, of H
    or of the unordered pair, so every solve runs on canonical graphs
    (``Graph.canonical_form``) and its value or failure is kept under class
    keys alone. Each factor invariant adds over components (``all`` for the
    efficient-domination test), and the components of G x H are the
    products of G's and H's components:

    - A factor invariant is kept per class under ``(name, form)``: on a
      connected class, its canonical graph's value; else the sum of its
      components' class values, the same keys.
    - A pair is the sum, over the pairs of its factors' component classes,
      of ``_component_pair``: each term is kept under ``("part", name,
      kind, classes)`` for its unordered class pair. A connected pair is the
      one-term case. Each solve builds its product afresh (``_pair_product``),
      and no canonical-form search runs on it.

    So every labeling of a class (pair) reads the same values and meets the
    same failures, in every task. Only ``witness_payload`` gives labeled
    objects: the graphs and the products read, as graph6.

    Every gamma and gamma_R solve reads only the value, so it passes
    ``first=False`` and starts from the greedy seed as its incumbent; only
    ``max_b2``'s "solver-witness" fallback reads a witness and keeps the
    default. The solves call the names ``domination_number`` and
    ``roman_domination_number`` of this module, which perfbench's node
    meter and the tests wrap: a solve through any other name would drop
    out of their node counts without saving a node.
    """

    def __init__(self, g: Graph, h: Optional[Graph] = None, budget: Optional[int] = None):
        self.g = g
        self.h = h
        self.budget = budget
        self._memo: dict = {}
        self._sweep: dict = {}

    def graph(self, x: str) -> Graph:
        gr = self.g if x == "g" else self.h
        if gr is None:
            raise ParameterError("binary check evaluated without a second graph")
        return gr

    def _get(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def _parts(self, gr: Graph) -> tuple[Graph, ...]:
        """The canonical graphs of the classes of ``gr``'s components, kept
        per class of ``gr``."""
        form = gr.canonical_form
        key = ("parts", form)
        parts = self._sweep.get(key)
        if parts is None:
            parts = self._sweep[key] = _component_classes(Graph(gr.n, form))
        return parts

    def _factor(self, name: str, x: str, solve, combine=sum):
        return self._get((name, x), lambda: self._by_components(name, self.graph(x), solve, combine))

    def _by_components(self, name: str, gr: Graph, solve, combine=sum):
        """``solve``'s value on ``gr``'s class, kept under ``(name, form)``:
        on a connected class, ``solve`` on its canonical graph, else
        ``combine`` of the components' class values."""

        def by_class():
            parts = self._parts(gr)
            if len(parts) == 1:
                return solve(parts[0])
            return combine(self._by_components(name, p, solve, combine) for p in parts)

        return _memoized(self._sweep, (name, gr.canonical_form), by_class)

    def _product(self, name: str, kind: str, solver):
        return self._get((name, kind), lambda: self._pair_value(name, kind, solver, self.h))

    def _pair_value(self, name: str, kind: str, solver, h: Graph) -> int:
        """``solver``'s value on G x ``h``: the sum over the pairs of G's and
        ``h``'s component classes (see the class docstring)."""
        return sum(
            self._component_pair(name, kind, solver, a, b)
            for a in self._parts(self.g)
            for b in self._parts(h)
        )

    def _component_pair(self, name: str, kind: str, solver, a: Graph, b: Graph) -> int:
        """``solver``'s value on the product of two canonical connected
        graphs; its value or failure is kept under their unordered class
        pair, or, with K1, under the other graph's factor class key."""
        # larger first: fewer nodes than smaller first on the pinned sweeps
        first, second = sorted((a, b), key=lambda p: (p.n, p.adj), reverse=True)
        if second.n == 1:
            # K1 x B is B in both kinds: B's factor class value, under its key
            factor = name.removesuffix("_prod")
            return self._by_components(
                factor, first, lambda gr: solver(gr, self.budget, first=False).value
            )
        return _memoized(
            self._sweep,
            ("part", name, kind, frozenset((a.adj, b.adj))),
            lambda: solver(_pair_product(kind, first, second), self.budget, first=False).value,
        )

    # -- factor invariants

    def nn(self, x: str) -> int:
        return self.graph(x).n

    def edge_count(self, x: str) -> int:
        return self.graph(x).edge_count()

    def gamma(self, x: str) -> int:
        return self._factor(
            "gamma", x, lambda gr: domination_number(gr, self.budget, first=False).value
        )

    def gammar(self, x: str) -> int:
        return self._factor("gammar", x, self._solve_gammar)

    def _solve_gammar(self, gr: Graph) -> int:
        return roman_domination_number(gr, self.budget, first=False).value

    def p2(self, x: str) -> int:
        return self._factor("p2", x, lambda gr: two_packing_number(gr, self.budget).value)

    def in_f(self, x: str) -> bool:
        return self._factor(
            "in_f", x, lambda gr: next(_efficient_sets(gr, self.budget), None) is not None, all
        )

    def roman(self, x: str) -> bool:
        return is_roman_values(self.gamma(x), self.gammar(x))

    def optima(self, x: str) -> tuple[int, int]:
        """Largest |B2| and smallest |B1| over the optimal Roman functions.

        An optimal function is a union of optimal functions on the
        components, so both add over components."""

        def extremes(gr: Graph) -> tuple[int, int]:
            target = self._by_components("gammar", gr, self._solve_gammar)
            ties, _ = _optimal_ties(gr, target, self.budget)
            return max(s.bit_count() for s, _ in ties), min(ones.bit_count() for _, ones in ties)

        return self._factor("optima", x, extremes, lambda pairs: tuple(map(sum, zip(*pairs))))

    def connected(self, x: str) -> bool:
        return is_connected(self.graph(x))

    def comp_gt2(self, x: str) -> bool:
        return any(c.bit_count() > 2 for c in components(self.graph(x)))

    def fulldeg(self, x: str) -> bool:
        want = self.nn(x) - self.gamma(x)
        return any(d == want for d in self.graph(x).degrees())

    def delta(self, x: str) -> int:
        return min(self.graph(x).degrees())

    def regular(self, x: str) -> bool:
        ds = self.graph(x).degrees()
        return min(ds) == max(ds)

    def max_b2(self, x: str) -> tuple[int, str]:
        """Largest |B2| over the optimal Roman functions, "enumerated". Past
        the enumeration guard it is the |B2| of the gamma_R solver's witness,
        "solver-witness": on the canonical graph of each component's class,
        summed, so it is a class invariant too."""
        try:
            return self.optima(x)[0], "enumerated"
        except CapacityError:
            b2 = self._by_components(
                "witness_b2",
                self.graph(x),
                lambda gr: roman_domination_number(gr, self.budget).witness.b2.bit_count(),
            )
            return b2, "solver-witness"

    def max_a2b2(self) -> tuple[int, str]:
        a, mode_a = self.max_b2("g")
        b, mode_b = self.max_b2("h")
        return a * b, f"g:{mode_a},h:{mode_b}"

    # -- product invariants

    def gamma_prod(self, kind: str) -> int:
        return self._product("gamma_prod", kind, domination_number)

    def gammar_prod(self, kind: str) -> int:
        return self._product("gammar_prod", kind, roman_domination_number)

    def gammar_k2(self) -> int:
        """gamma_R(G x K2), the Cartesian pair {G, K2}: it shares its solves
        with ``gammar_prod``."""
        return self._get(
            ("gammar_k2",),
            lambda: self._pair_value("gammar_prod", CARTESIAN, roman_domination_number, _K2),
        )

    def witness_payload(self) -> dict:
        """Serializable snapshot of everything solved so far, for violations:
        the graphs and each product a value was read on, as graph6, and the
        values read."""
        out: dict = {"g": write_graph6(self.g)}
        if self.h is not None:
            out["h"] = write_graph6(self.h)
        products = {f"prod_{k[1]}": (self.h, k[1]) for k in self._memo if k[0].endswith("_prod")}
        if ("gammar_k2",) in self._memo:
            products["prod_k2"] = (_K2, CARTESIAN)
        for name, (h, kind) in products.items():
            with suppress(CapacityError):
                out[name] = write_graph6(product(self.g, h, kind))
        for key, value in self._memo.items():
            if isinstance(value, (int, bool)):
                out["_".join(map(str, key))] = value
        return out


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class TheoremSpec:
    tid: str
    kind: Optional[str]  # None = unary, else the product the check runs on
    scale: int
    statement: str
    hypothesis: Callable[[Env], tuple[bool, str]]
    sides: Callable[[Env], tuple[str, int, int]]
    secondary: Optional[Callable[[Env], tuple[bool, str]]] = None


def _hyp(because: str, *requires) -> Callable[[Env], tuple[bool, str]]:
    """A hypothesis test: ``requires`` are (test, reason when false) pairs,
    tried in order; the first false test gives (False, its reason), and
    (True, ``because``) when all pass."""

    def check(env: Env) -> tuple[bool, str]:
        for test, reason in requires:
            if not test(env):
                return False, reason
        return True, because

    return check


_IN_F = (lambda e: e.in_f("g"), "g has no efficient dominating set")
_H_ROMAN = (lambda e: e.roman("h"), "h is not Roman")
_COMP_GT2 = (lambda e: e.comp_gt2("g"), "every component of g has order <= 2")

_UNCONDITIONAL = _hyp("no hypotheses")
_IF_IN_F = _hyp("g has an efficient dominating set", _IN_F)
_IF_H_ROMAN = _hyp("h is Roman", _H_ROMAN)
_IF_IN_F_H_ROMAN = _hyp("g in F, h Roman", _IN_F, _H_ROMAN)


def _pncn_coefficient(n: int) -> int:
    if n % 3 == 1:
        return (2 * n + 1) // 3
    return 2 * ((n + 2) // 3)


def _registry() -> list[TheoremSpec]:
    specs = [
        TheoremSpec(
            "L1-sandwich",
            None,
            1,
            "gamma(G) <= gamma_R(G) <= 2*gamma(G)",
            _UNCONDITIONAL,
            lambda e: ("<=", e.gammar("g"), 2 * e.gamma("g")),
            lambda e: (
                e.gamma("g") <= e.gammar("g"),
                f"lower side gamma(G)={e.gamma('g')} <= gamma_R(G)={e.gammar('g')}",
            ),
        ),
        TheoremSpec(
            "L2-B2",
            None,
            1,
            "every optimal Roman function has |B2| <= gamma_R(G) - gamma(G)",
            _UNCONDITIONAL,
            lambda e: (
                "<=",
                e.optima("g")[0],
                e.gammar("g") - e.gamma("g"),
            ),
        ),
        TheoremSpec(
            "L2-B1",
            None,
            1,
            "every optimal Roman function has |B1| >= 2*gamma(G) - gamma_R(G)",
            _UNCONDITIONAL,
            lambda e: (
                ">=",
                e.optima("g")[1],
                2 * e.gamma("g") - e.gammar("g"),
            ),
        ),
        TheoremSpec(
            "EQ-chino",
            CARTESIAN,
            1,
            "gamma_R(G x H) >= gamma(G)*gamma(H)",
            _UNCONDITIONAL,
            lambda e: (">=", e.gammar_prod(CARTESIAN), e.gamma("g") * e.gamma("h")),
        ),
        TheoremSpec(
            "T-lower-i",
            CARTESIAN,
            6,
            "gamma_R(G x H) >= 2*gamma(G)*gamma_R(H)/3",
            _UNCONDITIONAL,
            lambda e: (">=", 6 * e.gammar_prod(CARTESIAN), 4 * e.gamma("g") * e.gammar("h")),
        ),
        TheoremSpec(
            "T-lower-ii",
            CARTESIAN,
            6,
            "gamma_R(G x H) >= (gamma(G)*gamma_R(H) + gamma(G x H))/2",
            _UNCONDITIONAL,
            lambda e: (
                ">=",
                6 * e.gammar_prod(CARTESIAN),
                3 * (e.gamma("g") * e.gammar("h") + e.gamma_prod(CARTESIAN)),
            ),
        ),
        TheoremSpec(
            "C-RR3",
            CARTESIAN,
            6,
            "gamma_R(G x H) >= gamma_R(G)*gamma_R(H)/3",
            _UNCONDITIONAL,
            lambda e: (">=", 6 * e.gammar_prod(CARTESIAN), 2 * e.gammar("g") * e.gammar("h")),
        ),
        TheoremSpec(
            "C-gR3",
            CARTESIAN,
            6,
            "gamma(G x H) >= gamma(G)*gamma_R(H)/3",
            _UNCONDITIONAL,
            lambda e: (">=", 6 * e.gamma_prod(CARTESIAN), 2 * e.gamma("g") * e.gammar("h")),
        ),
        TheoremSpec(
            "EQ-casi-vizing",
            CARTESIAN,
            6,
            "gamma(G x H) >= gamma(G)*gamma(H)/2",
            _UNCONDITIONAL,
            lambda e: (">=", 6 * e.gamma_prod(CARTESIAN), 3 * e.gamma("g") * e.gamma("h")),
        ),
        TheoremSpec(
            "R-improved-vizing",
            CARTESIAN,
            6,
            "gamma_R(H) > 3*gamma(H)/2 implies gamma(G x H) >= gamma(G)*gamma(H)/2 + gamma(G)/3",
            _hyp(
                "gamma_R(h) > 3*gamma(h)/2",
                (lambda e: 2 * e.gammar("h") > 3 * e.gamma("h"), "gamma_R(h) <= 3*gamma(h)/2"),
            ),
            lambda e: (
                ">=",
                6 * e.gamma_prod(CARTESIAN),
                3 * e.gamma("g") * e.gamma("h") + 2 * e.gamma("g"),
            ),
        ),
        TheoremSpec(
            "C-roman-i",
            CARTESIAN,
            6,
            "H Roman implies gamma_R(G x H) >= 4*gamma(G)*gamma(H)/3",
            _IF_H_ROMAN,
            lambda e: (">=", 6 * e.gammar_prod(CARTESIAN), 8 * e.gamma("g") * e.gamma("h")),
        ),
        TheoremSpec(
            "C-roman-ii",
            CARTESIAN,
            6,
            "H Roman implies gamma(G x H) >= 2*gamma(G)*gamma(H)/3",
            _IF_H_ROMAN,
            lambda e: (">=", 6 * e.gamma_prod(CARTESIAN), 4 * e.gamma("g") * e.gamma("h")),
        ),
        TheoremSpec(
            "C-F-halfmax",
            CARTESIAN,
            6,
            "g efficiently dominatable implies gamma_R(G x H) >= "
            "max(gamma(G)*(gamma_R(H)+gamma(H)), gamma(H)*(gamma_R(G)+gamma(G)))/2",
            _IF_IN_F,
            lambda e: (
                ">=",
                6 * e.gammar_prod(CARTESIAN),
                3
                * max(
                    e.gamma("g") * (e.gammar("h") + e.gamma("h")),
                    e.gamma("h") * (e.gammar("g") + e.gamma("g")),
                ),
            ),
        ),
        TheoremSpec(
            "T-F-lower",
            CARTESIAN,
            1,
            "g efficiently dominatable implies gamma_R(G x H) >= gamma(G)*gamma_R(H)",
            _IF_IN_F,
            lambda e: (">=", e.gammar_prod(CARTESIAN), e.gamma("g") * e.gammar("h")),
        ),
        TheoremSpec(
            "C-F-roman",
            CARTESIAN,
            1,
            "g efficiently dominatable and H Roman imply gamma_R(G x H) >= 2*gamma(G)*gamma(H)",
            _IF_IN_F_H_ROMAN,
            lambda e: (">=", e.gammar_prod(CARTESIAN), 2 * e.gamma("g") * e.gamma("h")),
        ),
        TheoremSpec(
            "T-superior",
            CARTESIAN,
            1,
            "gamma_R(G x H) <= min(n1*gamma_R(H), n2*gamma_R(G))",
            _UNCONDITIONAL,
            lambda e: (
                "<=",
                e.gammar_prod(CARTESIAN),
                min(e.nn("g") * e.gammar("h"), e.nn("h") * e.gammar("g")),
            ),
        ),
        TheoremSpec(
            "C-superior-2g",
            CARTESIAN,
            1,
            "gamma_R(G x H) <= 2*min(n1*gamma(H), n2*gamma(G))",
            _UNCONDITIONAL,
            lambda e: (
                "<=",
                e.gammar_prod(CARTESIAN),
                2 * min(e.nn("g") * e.gamma("h"), e.nn("h") * e.gamma("g")),
            ),
        ),
        TheoremSpec(
            "T-eldek-i",
            CARTESIAN,
            1,
            "g with a component of order > 2 implies "
            "gamma_R(G x H) <= (n1+1)*gamma_R(H) - 2*gamma(H)",
            _hyp("g has a component of order > 2", _COMP_GT2),
            lambda e: (
                "<=",
                e.gammar_prod(CARTESIAN),
                (e.nn("g") + 1) * e.gammar("h") - 2 * e.gamma("h"),
            ),
        ),
        TheoremSpec(
            "T-eldek-ii",
            CARTESIAN,
            1,
            "g Roman implies gamma_R(G x H) <= "
            "2*n1*(gamma_R(H)-gamma(H)) + 2*gamma(G)*(2*gamma(H)-gamma_R(H))",
            _hyp("g is Roman", (lambda e: e.roman("g"), "g is not Roman")),
            lambda e: (
                "<=",
                e.gammar_prod(CARTESIAN),
                2 * e.nn("g") * (e.gammar("h") - e.gamma("h"))
                + 2 * e.gamma("g") * (2 * e.gamma("h") - e.gammar("h")),
            ),
        ),
        TheoremSpec(
            "C-nonroman",
            CARTESIAN,
            1,
            "g with a component of order > 2 and H not Roman imply "
            "gamma_R(G x H) <= n1*gamma_R(H) - 1",
            _hyp(
                "component > 2, h not Roman", _COMP_GT2, (lambda e: not e.roman("h"), "h is Roman")
            ),
            lambda e: ("<=", e.gammar_prod(CARTESIAN), e.nn("g") * e.gammar("h") - 1),
        ),
        TheoremSpec(
            "P-gamma-plus-1",
            None,
            1,
            "connected G of order >= 2: gamma_R(G) = gamma(G)+1 iff "
            "some vertex has degree n - gamma(G)",
            _hyp(
                "g connected, n >= 2",
                (lambda e: e.connected("g"), "g is not connected"),
                (lambda e: e.nn("g") >= 2, "single vertex"),
            ),
            lambda e: (
                ("==", e.gammar("g"), e.gamma("g") + 1)
                if e.fulldeg("g")
                else (">=", e.gammar("g"), e.gamma("g") + 2)
            ),
        ),
        TheoremSpec(
            "P-corochulo",
            CARTESIAN,
            1,
            "g with a component of order > 2, h connected with a vertex of degree "
            "n2 - gamma(H): gamma_R(G x H) <= n1*(gamma(H)+1) - gamma(H) + 1",
            _hyp(
                "component > 2; h has a degree n2-gamma(h) vertex",
                _COMP_GT2,
                (lambda e: e.connected("h"), "h is not connected"),
                (lambda e: e.fulldeg("h"), "h has no vertex of degree n2 - gamma(h)"),
            ),
            lambda e: (
                "<=",
                e.gammar_prod(CARTESIAN),
                e.nn("g") * (e.gamma("h") + 1) - e.gamma("h") + 1,
            ),
        ),
        TheoremSpec(
            "T-flojito",
            CARTESIAN,
            1,
            "gamma_R(G x H) <= 2*gamma(G)*gamma(H) + (n1-gamma(G))*(n2-gamma(H))",
            _UNCONDITIONAL,
            lambda e: (
                "<=",
                e.gammar_prod(CARTESIAN),
                2 * e.gamma("g") * e.gamma("h")
                + (e.nn("g") - e.gamma("g")) * (e.nn("h") - e.gamma("h")),
            ),
        ),
        TheoremSpec(
            "R-F-regular",
            None,
            1,
            "g efficiently dominatable: gamma(G)*(delta+1) <= n, with equality when regular",
            _IF_IN_F,
            lambda e: (
                "==" if e.regular("g") else "<=",
                e.gamma("g") * (e.delta("g") + 1),
                e.nn("g"),
            ),
        ),
        TheoremSpec(
            "P-F-K2",
            None,
            1,
            "delta-regular efficiently dominatable g: "
            "2*n/(delta+1) <= gamma_R(G x K2) <= 4*n/(delta+1)",
            _hyp("g regular and in F", _IN_F, (lambda e: e.regular("g"), "g is not regular")),
            lambda e: ("<=", e.gammar_k2() * (e.delta("g") + 1), 4 * e.nn("g")),
            lambda e: (
                2 * e.nn("g") <= e.gammar_k2() * (e.delta("g") + 1),
                f"lower side 2n={2 * e.nn('g')} <= "
                f"gamma_R(GxK2)*(delta+1)={e.gammar_k2() * (e.delta('g') + 1)}",
            ),
        ),
        TheoremSpec(
            "T-strong-sandwich",
            STRONG,
            1,
            "max(P2(G)*gamma(H), gamma(G)*P2(H)) <= gamma(G strong H) <= gamma(G)*gamma(H)",
            _UNCONDITIONAL,
            lambda e: (
                "<=",
                max(e.p2("g") * e.gamma("h"), e.gamma("g") * e.p2("h")),
                e.gamma_prod(STRONG),
            ),
            lambda e: (
                e.gamma_prod(STRONG) <= e.gamma("g") * e.gamma("h"),
                f"upper side gamma(product)={e.gamma_prod(STRONG)} <= "
                f"gamma(G)*gamma(H)={e.gamma('g') * e.gamma('h')}",
            ),
        ),
        TheoremSpec(
            "C-strong-F-eq",
            STRONG,
            1,
            "g efficiently dominatable implies gamma(G strong H) = gamma(G)*gamma(H)",
            _IF_IN_F,
            lambda e: ("==", e.gamma_prod(STRONG), e.gamma("g") * e.gamma("h")),
        ),
        TheoremSpec(
            "C-coroloco",
            STRONG,
            1,
            "max(P2(G)*gamma(H), gamma(G)*P2(H)) <= gamma_R(G strong H) <= 2*gamma(G)*gamma(H)",
            _UNCONDITIONAL,
            lambda e: ("<=", e.gammar_prod(STRONG), 2 * e.gamma("g") * e.gamma("h")),
            lambda e: (
                max(e.p2("g") * e.gamma("h"), e.gamma("g") * e.p2("h")) <= e.gammar_prod(STRONG),
                f"lower side max(P2*gamma)={max(e.p2('g') * e.gamma('h'), e.gamma('g') * e.p2('h'))} "
                f"<= gamma_R(product)={e.gammar_prod(STRONG)}",
            ),
        ),
        TheoremSpec(
            "T-strong-minus",
            STRONG,
            1,
            "gamma_R(G strong H) <= gamma_R(G)*gamma_R(H) - 2*|A2|*|B2| "
            "for optimal factor functions; checked with |A2|*|B2| maximized",
            _UNCONDITIONAL,
            lambda e: (
                "<=",
                e.gammar_prod(STRONG),
                e.gammar("g") * e.gammar("h") - 2 * e.max_a2b2()[0],
            ),
            lambda e: (True, f"2-set selection {e.max_a2b2()[1]}"),
        ),
        TheoremSpec(
            "C-strong-minus-2",
            STRONG,
            1,
            "G and H with an edge each imply gamma_R(G strong H) <= gamma_R(G)*gamma_R(H) - 2",
            _hyp(
                "both factors have an edge",
                (
                    lambda e: e.edge_count("g") >= 1 and e.edge_count("h") >= 1,
                    "a factor has no edges",
                ),
            ),
            lambda e: ("<=", e.gammar_prod(STRONG), e.gammar("g") * e.gammar("h") - 2),
        ),
        TheoremSpec(
            "C-strong-pncn",
            STRONG,
            1,
            "G with an edge, H a path or cycle of order n: gamma_R(G strong H) <= "
            "c(n)*gamma_R(G) - 2*floor(n/3) with c(n) = (2n+1)/3 when n = 1 mod 3, "
            "else 2*ceil(n/3)",
            _hyp(
                "g has an edge; h is a path or cycle",
                (lambda e: e.edge_count("g") >= 1, "g has no edges"),
                (
                    lambda e: is_path_graph(e.graph("h")) or is_cycle_graph(e.graph("h")),
                    "h is neither a path nor a cycle",
                ),
            ),
            lambda e: (
                "<=",
                e.gammar_prod(STRONG),
                _pncn_coefficient(e.nn("h")) * e.gammar("g") - 2 * (e.nn("h") // 3),
            ),
        ),
        TheoremSpec(
            "T-strong-F-lower",
            STRONG,
            1,
            "g efficiently dominatable implies gamma_R(G strong H) >= gamma(G)*gamma_R(H)",
            _IF_IN_F,
            lambda e: (">=", e.gammar_prod(STRONG), e.gamma("g") * e.gammar("h")),
        ),
        TheoremSpec(
            "C-strong-roman-closed",
            STRONG,
            1,
            "g efficiently dominatable and H Roman imply G strong H is Roman",
            _IF_IN_F_H_ROMAN,
            lambda e: ("==", e.gammar_prod(STRONG), 2 * e.gamma_prod(STRONG)),
        ),
    ]
    return specs


_SPECS = _registry()
THEOREMS: dict[str, TheoremSpec] = {s.tid: s for s in _SPECS}
THEOREM_ORDER: tuple[str, ...] = tuple(s.tid for s in _SPECS)


def resolve_theorem_ids(tokens: list[str]) -> list[str]:
    """Map exact ids or unambiguous prefixes to registry ids, in registry order."""
    chosen: set[str] = set()
    for token in tokens:
        if token in THEOREMS:
            chosen.add(token)
            continue
        hits = [tid for tid in THEOREM_ORDER if tid.startswith(token)]
        if not hits:
            raise ParameterError(f"unknown theorem id {token!r}")
        if len(hits) > 1:
            raise ParameterError(f"theorem id prefix {token!r} is ambiguous: {', '.join(hits)}")
        chosen.add(hits[0])
    return [tid for tid in THEOREM_ORDER if tid in chosen]


# ---------------------------------------------------------------------------
# evaluation


class BoundRecord(NamedTuple):
    """One check on one instance, as ``evaluate`` and ``sweep_records`` give
    it and every writer takes it; ``run_suite`` returns its ``to_dict``."""

    theorem: str
    kind: str
    g: str
    h: Optional[str]
    status: str  # checked | hypothesis-skipped | budget-skipped
    hypotheses_met: Optional[bool]
    reason: str
    scale: Optional[int] = None
    lhs: Optional[int] = None
    rhs: Optional[int] = None
    relation: Optional[str] = None
    holds: Optional[bool] = None
    tight: Optional[bool] = None
    note: Optional[str] = None
    witnesses: Optional[dict] = None

    def to_dict(self) -> dict:
        """The record as a report dict: a skipped record stops at ``reason``."""
        out = dict(zip(_CSV_COLUMNS, self if self.status == "checked" else self[:7]))
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        return out


# every record field but the witnesses, in field order
_CSV_COLUMNS = BoundRecord._fields[:-1]


def _row(rec: BoundRecord) -> tuple:
    """A record's values but its names ``g`` and ``h``."""
    return rec[:2] + rec[4:]


_REL = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


def _evaluate_env(tid: str, env: Env) -> BoundRecord:
    spec = THEOREMS[tid]
    kind = spec.kind or "unary"
    gname = env.g.name()
    hname = env.h.name() if env.h is not None else None

    def record(status: str, met: Optional[bool], reason: str, *checked) -> BoundRecord:
        return BoundRecord(tid, kind, gname, hname, status, met, reason, *checked)

    met = None
    try:
        met, reason = spec.hypothesis(env)
        if not met:
            return record("hypothesis-skipped", False, reason)
        relation, lhs, rhs = spec.sides(env)
        sec_ok, note = spec.secondary(env) if spec.secondary is not None else (True, None)
    except BudgetExceeded as exc:
        where = f"{reason};" if met else "hypothesis check:"
        return record("budget-skipped", met, f"{where} {exc}")
    except CapacityError as exc:
        return record("budget-skipped", met, f"capacity: {exc}")
    holds = _REL[relation](lhs, rhs) and sec_ok
    witnesses = None if holds else env.witness_payload()
    checked = (spec.scale, lhs, rhs, relation, holds, lhs == rhs, note, witnesses)
    return record("checked", True, reason, *checked)


def evaluate(
    theorem: str,
    g: Graph,
    h: Optional[Graph] = None,
    budget: Optional[int] = None,
) -> BoundRecord:
    """Check one registered bound on one instance.

    Unary checks take only ``g``; product checks take the ordered pair
    (g, h), with g in the role the statement's hypotheses constrain. It is
    a one-item sweep with a solve memo of its own, so its values and
    statuses are those of ``run_suite`` and do not depend on the argument
    labelings.
    """
    ids = resolve_theorem_ids([theorem])
    spec = THEOREMS[ids[0]]
    if spec.kind is None and h is not None:
        raise ParameterError(f"{spec.tid} is a single-graph check")
    if spec.kind is not None and h is None:
        raise ParameterError(f"{spec.tid} needs two graphs")
    return _evaluate_env(spec.tid, Env(g, h, budget))


# ---------------------------------------------------------------------------
# corpora


def default_corpus() -> list[Graph]:
    """Small named families plus one disconnected instance."""
    graphs = [path(n) for n in range(2, 6)]
    graphs += [cycle(n) for n in range(3, 6)]
    graphs += [complete(n) for n in range(2, 5)]
    graphs += [star(2), star(3)]
    graphs += [spider(3, 1), hypercube(3)]
    graphs.append(from_edges(3, [(0, 1)], "K2+K1"))
    return graphs


def exhaustive_corpus(max_n: int) -> list[Graph]:
    """Every labeled graph on 1..max_n vertices, in edge-mask order.

    Edge bit k of the mask is pair (i, j) in graph6 column order: (0,1),
    (0,2), (1,2), (0,3), ...
    """
    if max_n < 1:
        raise ParameterError("exhaustive corpus needs max_n >= 1")
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            out.append(from_edges(n, edges, f"G{n}#{mask}"))
    return out


def random_corpus(count: int, n_low: int, n_high: int, seed: int) -> list[Graph]:
    """``count`` random graphs with orders cycling n_low..n_high, p = 1/2."""
    if count < 1 or n_low < 1 or n_high < n_low:
        raise ParameterError("random corpus needs count >= 1 and 1 <= n_low <= n_high")
    span = n_high - n_low + 1
    return [random_graph(n_low + i % span, 1, 2, seed + i) for i in range(count)]


# ---------------------------------------------------------------------------
# suite runner


@dataclass(frozen=True)
class SuiteSpec:
    graphs: tuple[Graph, ...]
    theorems: tuple[str, ...] = THEOREM_ORDER
    products: tuple[str, ...] = (CARTESIAN, STRONG)
    budget: Optional[int] = DEFAULT_SUITE_BUDGET
    max_product: Optional[int] = None


def _run_item(args, memo: dict) -> tuple[str, Optional[str], tuple]:
    """One item as ``(g's name, h's name, rows)``, its Env solving through
    the solve memo ``memo``: ``rows`` holds each record's row (``_row``, its
    values but ``g`` and ``h``), in registry order (``_records`` rebuilds
    the records).

    Every check reads only class invariants (see ``Env``), so an item is
    evaluated once per ordered class item and its rows kept in ``memo``,
    under its kind (the checks and budget are fixed per kind in a sweep)
    and the two classes in order: every later labeling returns that same
    tuple under its own names. They are kept unless a record carries
    witnesses, which are labeled; then each labeling is evaluated on its
    own and returns rows of its own.

    A check that raises anything but BudgetExceeded or CapacityError (which
    become skipped records, or pass through) is reported as a RomdomError
    naming the check and the item."""
    g, h, ids, budget = args
    gname, hname, hform = g.name(), None, None
    if h is not None:
        hname, hform = h.name(), h.canonical_form
    key = ("records", THEOREMS[ids[0]].kind, g.canonical_form, hform)
    rows = memo.get(key)
    if rows is not None:
        return gname, hname, rows
    env = Env(g, h, budget)
    env._sweep = memo
    records = []
    try:
        for tid in ids:
            records.append(_evaluate_env(tid, env))
    except (BudgetExceeded, CapacityError):
        raise
    except Exception as exc:
        kind = THEOREMS[tid].kind or "unary"
        where = f"g={gname}" if h is None else f"g={gname} h={hname}"
        raise RomdomError(
            f"{kind} item {where}: check {tid} raised {type(exc).__name__}: {exc}"
        ) from exc
    rows = tuple(map(_row, records))
    if all(rec.witnesses is None for rec in records):
        # each row interned: the report has few distinct rows. A column
        # holds one type (bool or int, never both), so equal rows have equal
        # values; True == 1 cannot alias.
        interned = memo.setdefault("rows", {})
        rows = memo[key] = tuple(interned.setdefault(row, row) for row in rows)
    return gname, hname, rows


def _records(g: str, h: Optional[str], rows) -> list[BoundRecord]:
    """The records of the item ``(g, h, rows)`` that ``_run_item`` returns."""
    return [BoundRecord(*row[:2], g, h, *row[2:]) for row in rows]


# the solve memo of a pool worker: set by ``_start_worker`` in each worker
# and never in the parent process
_worker_memo: Optional[dict] = None


def _start_worker() -> None:
    """Pool initializer: give this worker a fresh solve memo for its pool."""
    global _worker_memo
    _worker_memo = {}


def _run_task(items) -> list[tuple]:
    """Each item as ``_run_item`` returns it, all through the worker's solve
    memo, which lasts as long as its pool: one sweep with one budget. The
    labelings of one class item share one rows tuple, and so does their
    pickle."""
    return [_run_item(item, _worker_memo) for item in items]


def _items(spec: SuiteSpec) -> Iterator[tuple]:
    """(task key, item) for each item of the sweep, in report order.

    A task is the unary items of one isomorphism class, or the items of one
    kind on one unordered pair of classes."""
    unary_ids = [t for t in spec.theorems if THEOREMS[t].kind is None]
    if unary_ids:
        for g in spec.graphs:
            yield g.canonical_form, (g, None, unary_ids, spec.budget)
    for kind in (CARTESIAN, STRONG):
        ids = [t for t in spec.theorems if THEOREMS[t].kind == kind]
        if kind not in spec.products or not ids:
            continue
        for g in spec.graphs:
            for h in spec.graphs:
                if spec.max_product is not None and g.n * h.n > spec.max_product:
                    continue
                classes = frozenset((g.canonical_form, h.canonical_form))
                yield (kind, classes), (g, h, ids, spec.budget)


def sweep_items(spec: SuiteSpec, jobs: int = 1) -> Iterator[tuple]:
    """The items of ``run_suite(spec, jobs)`` as ``_run_item`` returns them,
    ``(g's name, h's name, rows)``, yielded in report order as they are
    evaluated; every labeling of a class item that reuses its rows yields
    the same rows tuple.

    Serially every item runs in report order through one solve memo. With
    ``jobs > 1`` the tasks run in a pool of at most ``jobs`` processes, in
    order of first appearance (ordered ``imap``), each worker's tasks
    through one solve memo that lasts as long as the pool, and a task's
    items are yielded when their turn in the report comes. Either way
    each process solves each class once per factor invariant and each class
    pair once per kind (see ``Env``): a value and a failure depend on class
    keys and the sweep's budget only, so neither the order of the items nor
    the worker that runs them changes a record. Each ordered class item is
    evaluated once per process too, bar witnesses (see ``_run_item``).
    """
    if jobs > 1:
        tasks: dict = {}  # task key -> its items, in report order
        for key, item in _items(spec):
            tasks.setdefault(key, []).append(item)
        if len(tasks) > 1:
            yield from _pooled_items(spec, tasks, jobs)
            return
    memo: dict = {}
    for _, item in _items(spec):
        yield _run_item(item, memo)


def sweep_records(spec: SuiteSpec, jobs: int = 1) -> Iterator[BoundRecord]:
    """The records of ``run_suite(spec, jobs)`` as ``BoundRecord``s, yielded
    in report order as they are evaluated: the items of ``sweep_items``,
    flattened."""
    for item in sweep_items(spec, jobs):
        yield from _records(*item)


def _pooled_items(spec: SuiteSpec, tasks: dict, jobs: int) -> Iterator[tuple]:
    """The items of ``tasks`` run in a pool of at most ``jobs`` workers, in
    report order."""
    with multiprocessing.Pool(min(jobs, len(tasks)), _start_worker) as pool:
        done = pool.imap(_run_task, tasks.values(), chunksize=1)
        arrived = iter(tasks)  # the task keys, in the order imap returns them
        waiting: dict = {}  # task key -> its items not yet yielded
        for key, _ in _items(spec):
            # the task of each report position appeared no later than it
            while key not in waiting:
                waiting[next(arrived)] = collections.deque(next(done))
            left = waiting[key]
            yield left.popleft()
            if not left:
                del waiting[key]


def run_suite(spec: SuiteSpec, jobs: int = 1) -> dict:
    """Evaluate the requested checks over the corpus; deterministic output.

    Record order: unary checks per corpus graph, then Cartesian checks per
    ordered pair, then strong checks per ordered pair, each block in corpus
    order and registry order. The report never contains timestamps, and its
    bytes do not depend on ``jobs``. The records come from
    ``sweep_records``: a serial sweep evaluates the items in report order,
    ``jobs > 1`` by task in a process pool. It is the only function that
    returns records as dicts (``BoundRecord.to_dict``).
    """
    records = list(sweep_records(spec, jobs))
    summary = _tally(_summary(), records)
    return {**_header(spec), "records": [rec.to_dict() for rec in records], "summary": summary}


def _header(spec: SuiteSpec) -> dict:
    """The report's keys other than its records and summary."""
    return {
        "suite": {
            "theorems": list(spec.theorems),
            "products": list(spec.products),
            "budget": spec.budget,
            "max_product": spec.max_product,
        },
        "corpus": [g.name() for g in spec.graphs],
    }


def _summary() -> dict:
    return dict.fromkeys(("checked", "held", "tight", "hypothesis_skipped", "budget_skipped"), 0)


def _tally(summary: dict, records: Iterable[BoundRecord]) -> dict:
    """Count ``records`` into ``summary``; return it."""
    for rec in records:
        status = rec.status
        if status == "checked":
            summary["checked"] += 1
            summary["held"] += rec.holds
            summary["tight"] += rec.tight
        else:  # hypothesis-skipped | budget-skipped
            summary[status.replace("-", "_")] += 1
    return summary


def suite_ok(report: dict) -> bool:
    return report["summary"]["held"] == report["summary"]["checked"]


# the blocks write_report keeps before it drops them all: every ordered class
# item of the exhaustive sweep to 4 vertices (666) fits. Under jobs > 1 each
# task's rows arrive as new objects, so a block outlives its task, and a
# corpus of one graph per class reuses no block at all
_KEPT_BLOCKS = 1024


def write_report(fh, spec: SuiteSpec, items: Iterable[tuple]) -> dict:
    """Write the report of ``spec`` with ``items`` (as ``sweep_items`` yields
    them, each with at least one row) to ``fh`` as they arrive, the same
    bytes as ``report_to_json`` of the whole report; return its summary.

    The report's keys in sorted order are ``corpus``, ``records``, ``suite``,
    ``summary``, so each item's records are written when it comes and the
    summary, counted on the way, last.

    Every record is written as its ``g`` and ``h`` entries, the item's
    head, plus its text after those (``_tail``). A record without witnesses
    has that text made once per row, by the C encoder: the exhaustive
    sweep's 152,325 records have 747 rows. ``g`` and ``h`` sort before every
    other column, so that text does not depend on the names; a column holds
    one type (bool or int, never both), so ``True == 1`` cannot alias two
    rows. A record with witnesses is encoded whole.

    An item without witnesses is kept as a block, per rows tuple: its rows'
    texts and its summary counts. Every labeling that yields that tuple
    again is written as one join of its head and the texts, and counted in
    one step. The block holds its rows, so the tuple's ``id`` is not reused
    while the block is kept, and at most ``_KEPT_BLOCKS`` blocks are kept.
    """
    header = _header(spec)
    fh.write('{\n  "corpus": ' + _indented(header["corpus"], 1) + ',\n  "records": ')
    sep = "[\n    "
    tails: dict = {}  # a row -> its text after the "h" entry
    blocks: dict = {}  # id(rows) -> (rows, their texts, their summary counts)
    totals = [0] * len(_summary())
    for g, h, rows in items:
        hname = "null" if h is None else encode_basestring_ascii(h)
        head = f'{{\n      "g": {encode_basestring_ascii(g)},\n      "h": {hname}'
        block = blocks.get(id(rows))
        if block is None:
            records = _records(g, h, rows)
            texts = [_tail(tails, rec, len(head), _report_text) for rec in records]
            block = (rows, texts, tuple(_tally(_summary(), records).values()))
            # rows with witnesses are this item's own (see _run_item)
            if all(rec.witnesses is None for rec in records):
                if len(blocks) == _KEPT_BLOCKS:
                    blocks.clear()
                blocks[id(rows)] = block
        _, texts, counts = block
        fh.write(sep + head + (",\n    " + head).join(texts))
        totals = list(map(operator.add, totals, counts))
        sep = ",\n    "
    summary = dict(zip(_summary(), totals))
    fh.write("[]" if sep.startswith("[") else "\n  ]")
    fh.write(
        ',\n  "suite": ' + _indented(header["suite"], 1)
        + ',\n  "summary": ' + _indented(summary, 1) + "\n}\n"
    )
    return summary


def _tail(tails: dict, rec: BoundRecord, head: int, encode) -> str:
    """``encode(rec)`` after its first ``head`` characters, the record's
    ``g`` and ``h`` entries. Without witnesses that text depends on the
    record's row alone, so it is kept per row in ``tails``; a record with
    witnesses is encoded whole."""
    if rec.witnesses is not None:
        return encode(rec)[head:]
    row = _row(rec)
    tail = tails.get(row)
    if tail is None:
        tail = tails[row] = encode(rec)[head:]
    return tail


def _report_text(rec: BoundRecord) -> str:
    """A record as ``json.dumps(sort_keys=True, indent=2)`` writes it in
    the report's records."""
    if rec.witnesses is not None:
        return _indented(rec.to_dict(), 2)
    return _flat(rec.to_dict(), 2)


def report_to_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)`` plus a newline."""
    return _indented(report, 0) + "\n"


def _indented(value, depth: int) -> str:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` writes it at
    nesting ``depth``. JSON escapes every newline inside a string, so each
    newline is a line break of the layout."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder writing a container of scalars at ``depth`` with its items
    one level deeper, but without the newlines next to its brackets."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


def _flat(value, depth: int) -> str:
    """A non-empty container of scalars at nesting ``depth``, as one string
    from one call of the C encoder (``json.dumps`` with ``indent`` runs the
    pure-Python one)."""
    text = _flat_encoder(depth).encode(value)
    return f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"


def csv_writer(fh) -> Callable[[str, Optional[str], tuple], None]:
    """Write the CSV header to ``fh``; return a function that writes the
    rows of one item ``(g, h, rows)``, as ``sweep_items`` yields it: per
    record every field but the witnesses, None as empty, the bytes
    ``csv.writer`` writes.

    ``csv.writer`` quotes each field on its own, so a line is the text of
    ``theorem`` and ``kind``, then of the names, then of the other fields,
    joined by commas. The text around the names depends on the row alone
    and is made once per row; the names are quoted once per item."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def line(fields) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(fields)
        return buf.getvalue()

    fh.write(line(_CSV_COLUMNS))
    pieces: dict = {}  # a row but its witnesses -> its text before and after the names

    def write_item(g: str, h: Optional[str], rows: tuple) -> None:
        names = line((g, h))[:-1]
        out = []
        for row in rows:
            key = row[:-1]
            piece = pieces.get(key)
            if piece is None:
                piece = pieces[key] = (line(row[:2])[:-1] + ",", "," + line(key[2:]))
            out.append(piece[0] + names + piece[1])
        fh.write("".join(out))

    return write_item


# ---------------------------------------------------------------------------
# the path/cycle 2-set premise


@dataclass(frozen=True)
class PremiseReport:
    kind: str
    n: int
    floor_n3: int
    b2_sizes: tuple[int, ...]
    premise_holds: bool
    violating_labels: Optional[tuple[int, ...]]
    inequality_weight: int
    inequality_rhs: int
    inequality_holds: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_pncn_premise(n: int, kind: str) -> PremiseReport:
    """Probe the claim that optimal path/cycle Roman functions all use
    floor(n/3) twos, separately from the bound that claim was used for.

    The bound itself, gamma_R(K2 strong H) <= c(n)*gamma_R(K2) - 2*floor(n/3),
    is re-derived constructively: take the case-table labeling built from an
    optimal function on H whose 2-set has exactly floor(n/3) vertices, check
    it is a valid Roman function, and compare its exact weight against the
    closed form. A premise violation therefore never silently taints the
    bound check.
    """
    if kind == "path":
        if n < 2:
            raise ParameterError("path premise check needs n >= 2")
        h = path(n)
    elif kind == "cycle":
        if n < 3:
            raise ParameterError("cycle premise check needs n >= 3")
        h = cycle(n)
    else:
        raise ParameterError(f"premise kind must be path or cycle, got {kind!r}")
    optima = enumerate_optimal_rdfs(h)
    floor = n // 3
    sizes = tuple(sorted({f.b2.bit_count() for f in optima}))
    violating = next((f.labels for f in optima if f.b2.bit_count() != floor), None)
    g = complete(2)
    f1 = max(enumerate_optimal_rdfs(g), key=lambda f: f.b2.bit_count())
    f2 = next(f for f in optima if f.b2.bit_count() == floor)
    rdf = case_table_labels(g.n, h.n, f1, f2)
    prod = product(g, h, STRONG)
    rhs = _pncn_coefficient(n) * 2 - 2 * floor
    holds = validate_rdf(prod, rdf) and rdf.weight <= rhs
    return PremiseReport(
        kind,
        n,
        floor,
        sizes,
        sizes == (floor,),
        violating,
        rdf.weight,
        rhs,
        holds,
    )
