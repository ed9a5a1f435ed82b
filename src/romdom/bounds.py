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

import csv
import functools
import io
import json
import multiprocessing
from contextlib import suppress
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

from .config import DEFAULT_SUITE_BUDGET
from .constructions import case_table_labels, validate_rdf
from .errors import BudgetExceeded, CapacityError, ParameterError
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


def _memoized(memo: dict, key, fn, failure_key=None):
    """``fn()`` memoized in ``memo`` under ``key``; a BudgetExceeded or
    CapacityError is memoized under ``failure_key`` (``key`` by default) and
    raised again on lookup. A value under ``key`` is found before a failure
    under ``failure_key``."""
    failure_key = key if failure_key is None else failure_key
    for k in (key, failure_key):
        if k in memo:
            value = memo[k]
            if isinstance(value, Exception):
                # a fresh traceback on every raise, so a stored exception does
                # not collect (and keep alive) the frames of each lookup
                raise value.with_traceback(None)
            return value
    try:
        value = fn()
    except (BudgetExceeded, CapacityError) as exc:
        memo[failure_key] = exc
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


class Env:
    """Memoized invariants for one instance (a graph, or an ordered pair).

    Every solve goes through the solve memo ``_sweep``: a fresh one per Env,
    or the one its sweep task shares (``run_suite`` attaches it). The Env's
    own ``_memo`` keeps the values it has read, keyed by role, for
    ``witness_payload``; failures are kept only in the solve memo.

    Every invariant the checks read is an isomorphism invariant of G, of H
    or of the unordered pair, so the solve memo shares values across
    isomorphism classes (``Graph.canonical_form``). Each factor invariant
    adds over components (``all`` for the efficient-domination test), and
    the components of G x H are the products of G's and H's components, so
    a graph or a pair with a disconnected factor is solved by components:

    - A factor invariant is kept per class under ``(name, form)``: on a
      connected class, its canonical graph's value; else the sum of its
      components' class values, the same keys. Its outcome is the same for
      every labeling and every task; only when it runs out is the labeled
      graph solved whole, its outcome kept under its labeled adjacency.
    - A pair with a disconnected factor is the sum over component pairs.
      Each is solved on the two canonical graphs, the larger first, its
      value and failure kept under ``("part", name, kind, classes)`` for
      its unordered class pair: never a connected pair's key, so its
      outcome depends on its classes alone, whatever the task order.
    - A connected pair is the one-term case, solved on the labeled pair.

    Either way a pair keeps its value under the class pair and a failure
    under the labeled pair, so a labeling that runs out does not stop a
    later one from trying.

    The one labeled object a check reads, the gamma_R witness behind
    ``max_b2``'s fallback, is keyed by labeled graph.
    """

    def __init__(self, g: Graph, h: Optional[Graph] = None, budget: Optional[int] = None):
        self.g = g
        self.h = h
        self.budget = budget
        self._memo: dict = {}
        self._sweep: dict = {}
        self._kinds: set = set()  # product kinds an invariant was read on

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
        """``solve``'s value on ``gr``, kept per class under ``(name, form)``:
        on a connected class, ``solve`` on its canonical graph, else
        ``combine`` of the components' class values. Only when that runs out
        is ``gr`` itself solved, its outcome kept under the labeled graph."""
        form = gr.canonical_form

        def by_class():
            parts = self._parts(gr)
            if len(parts) == 1:
                return solve(parts[0])
            return combine(self._by_components(name, p, solve, combine) for p in parts)

        try:
            return _memoized(self._sweep, (name, form), by_class)
        except (BudgetExceeded, CapacityError):
            if form == gr.adj:
                raise
        return _memoized(self._sweep, (name, gr), lambda: solve(gr))

    def _product(self, name: str, kind: str, solver):
        def outcome():
            self._kinds.add(kind)
            g, h = self.g, self.h
            return self._pair_value(
                name,
                kind,
                solver,
                h,
                (name, kind, frozenset((g.canonical_form, h.canonical_form))),
                (name, kind, frozenset((g, h))),
                lambda: self.prod(kind),
            )

        return self._get((name, kind), outcome)

    def _pair_value(self, name: str, kind: str, solver, h: Graph, key, failure_key, labeled):
        """``solver``'s value on G x ``h``, kept under ``key`` (its class
        pair), a failure under ``failure_key`` (its labeled pair).

        With a disconnected factor it is the sum over component pairs (see
        the class docstring). A connected pair is solved on ``labeled()``,
        G x h itself; G x h and h x G are isomorphic, so when G x h runs out
        and h != G, h x G is solved instead. G is the pair's first
        orientation in report order, and ``run_suite`` keeps every labeled
        pair of a class pair in one task, in report order, so the outcome
        does not depend on ``jobs``. The labeled product is built only for a
        solve; ``witness_payload`` builds it for the report.
        """
        g = self.g

        def solve():
            terms = [(a, b) for a in self._parts(g) for b in self._parts(h)]
            if len(terms) > 1:
                return sum(self._component_pair(name, kind, solver, a, b) for a, b in terms)
            try:
                return solver(labeled(), self.budget).value
            except (BudgetExceeded, CapacityError):
                if h != g:
                    with suppress(BudgetExceeded, CapacityError):
                        return solver(product(h, g, kind), self.budget).value
                raise

        return _memoized(self._sweep, key, solve, failure_key)

    def _component_pair(self, name: str, kind: str, solver, a: Graph, b: Graph) -> int:
        """``solver``'s value on the product of two canonical component graphs."""
        # larger first: fewer nodes than smaller first on the pinned sweeps
        first, second = sorted((a, b), key=lambda p: (p.n, p.adj), reverse=True)
        return _memoized(
            self._sweep,
            ("part", name, kind, frozenset((a.adj, b.adj))),
            lambda: solver(product(first, second, kind), self.budget).value,
        )

    # -- factor invariants

    def nn(self, x: str) -> int:
        return self.graph(x).n

    def edge_count(self, x: str) -> int:
        return self.graph(x).edge_count()

    def gamma(self, x: str) -> int:
        return self._factor("gamma", x, lambda gr: domination_number(gr, self.budget).value)

    def gammar(self, x: str) -> int:
        return self._factor("gammar", x, self._solve_gammar)

    def _solve_gammar(self, gr: Graph) -> int:
        return roman_domination_number(gr, self.budget).value

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
            ties = _optimal_ties(gr, target, self.budget)
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
        """Largest 2-set size over optimal Roman functions, with selection mode."""
        try:
            return self.optima(x)[0], "enumerated"
        except CapacityError:
            gr = self.graph(x)
            fn = self._get(
                ("gammar_fn", x),
                lambda: _memoized(
                    self._sweep,
                    ("gammar_fn", gr),
                    lambda: roman_domination_number(gr, self.budget).witness,
                ),
            )
            return fn.b2.bit_count(), "solver-witness"

    def max_a2b2(self) -> tuple[int, str]:
        a, mode_a = self.max_b2("g")
        b, mode_b = self.max_b2("h")
        return a * b, f"g:{mode_a},h:{mode_b}"

    # -- product invariants

    def prod(self, kind: str) -> Graph:
        return self._get(("prod", kind), lambda: product(self.g, self.h, kind))

    def gamma_prod(self, kind: str) -> int:
        return self._product("gamma_prod", kind, domination_number)

    def gammar_prod(self, kind: str) -> int:
        return self._product("gammar_prod", kind, roman_domination_number)

    def prod_k2(self) -> Graph:
        return self._get(("prod_k2",), lambda: product(self.g, _K2, CARTESIAN))

    def gammar_k2(self) -> int:
        """gamma_R(G x K2), the Cartesian pair {G, K2}: a disconnected G shares
        its component pairs with ``gammar_prod``."""

        def solve() -> int:
            g = self.g
            self.prod_k2()  # in the witnesses whenever gamma_R(G x K2) is read
            return self._pair_value(
                "gammar_prod",
                CARTESIAN,
                roman_domination_number,
                _K2,
                ("gammar_k2", g.canonical_form),
                ("gammar_k2", g),
                self.prod_k2,
            )

        return self._get(("gammar_k2",), solve)

    def witness_payload(self) -> dict:
        """Serializable snapshot of everything solved so far, for violations."""
        out: dict = {"g": write_graph6(self.g)}
        if self.h is not None:
            out["h"] = write_graph6(self.h)
        for kind in self._kinds:
            with suppress(CapacityError):
                self.prod(kind)
        for key, value in sorted(self._memo.items(), key=lambda kv: repr(kv[0])):
            name = "_".join(str(part) for part in key)
            if isinstance(value, Graph):
                out[name] = write_graph6(value)
            elif isinstance(value, (int, bool)):
                out[name] = value
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


@dataclass(frozen=True)
class BoundRecord:
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
        columns = _CSV_COLUMNS if self.status == "checked" else _CSV_COLUMNS[:7]
        out = {col: getattr(self, col) for col in columns}
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        return out


# every record field but the witnesses, in field order
_CSV_COLUMNS = tuple(f.name for f in fields(BoundRecord) if f.name != "witnesses")


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

    def skipped(status: str, met: Optional[bool], reason: str) -> BoundRecord:
        return BoundRecord(tid, kind, gname, hname, status, met, reason)

    met = None
    try:
        met, reason = spec.hypothesis(env)
        if not met:
            return skipped("hypothesis-skipped", False, reason)
        relation, lhs, rhs = spec.sides(env)
        sec_ok, note = spec.secondary(env) if spec.secondary is not None else (True, None)
    except BudgetExceeded as exc:
        where = f"{reason};" if met else "hypothesis check:"
        return skipped("budget-skipped", met, f"{where} {exc}")
    except CapacityError as exc:
        return skipped("budget-skipped", met, f"capacity: {exc}")
    holds = _REL[relation](lhs, rhs) and sec_ok
    witnesses = None if holds else env.witness_payload()
    return BoundRecord(
        tid,
        kind,
        gname,
        hname,
        "checked",
        True,
        reason,
        spec.scale,
        lhs,
        rhs,
        relation,
        holds,
        lhs == rhs,
        note,
        witnesses,
    )


def evaluate(
    theorem: str,
    g: Graph,
    h: Optional[Graph] = None,
    budget: Optional[int] = None,
) -> BoundRecord:
    """Check one registered bound on one instance.

    Unary checks take only ``g``; product checks take the ordered pair
    (g, h), with g in the role the statement's hypotheses constrain. It is
    a one-item sweep: a product invariant that runs out of budget on G x H
    is taken from H x G, as in ``run_suite``.
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
    pairs_by_n = {}
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        pairs_by_n[n] = pairs
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


def _run_item(args, memo: dict) -> list[dict]:
    """One item's records, its Env solving through the solve memo ``memo``."""
    g, h, ids, budget = args
    env = Env(g, h, budget)
    env._sweep = memo
    return [_evaluate_env(tid, env).to_dict() for tid in ids]


def _run_task(items, memo: Optional[dict] = None) -> list[list[dict]]:
    """Each item's records, all through one solve memo (a fresh one by default)."""
    memo = {} if memo is None else memo
    return [_run_item(item, memo) for item in items]


def run_suite(spec: SuiteSpec, jobs: int = 1) -> dict:
    """Evaluate the requested checks over the corpus; deterministic output.

    Record order: unary checks per corpus graph, then Cartesian checks per
    ordered pair, then strong checks per ordered pair, each block in corpus
    order and registry order. The report never contains timestamps, and its
    bytes do not depend on ``jobs``.

    A task is the unary items of one isomorphism class, or the items of one
    kind on one unordered pair of classes, in report order. A serial sweep
    runs all tasks through one solve memo, ``jobs > 1`` each task through
    its own in a process pool; either way each class is solved once per
    factor invariant and each class pair once per kind, while it succeeds
    (see ``Env``).
    """
    unary_ids = [t for t in spec.theorems if THEOREMS[t].kind is None]
    keyed = []  # (task key, item) in report order
    if unary_ids:
        keyed += [(g.canonical_form, (g, None, unary_ids, spec.budget)) for g in spec.graphs]
    for kind in (CARTESIAN, STRONG):
        if kind not in spec.products:
            continue
        ids = [t for t in spec.theorems if THEOREMS[t].kind == kind]
        if not ids:
            continue
        for g in spec.graphs:
            for h in spec.graphs:
                if spec.max_product is not None and g.n * h.n > spec.max_product:
                    continue
                classes = frozenset((g.canonical_form, h.canonical_form))
                keyed.append(((kind, classes), (g, h, ids, spec.budget)))
    tasks: dict = {}  # task key -> its items, in report order
    for key, item in keyed:
        tasks.setdefault(key, []).append(item)
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(jobs) as pool:
            done = pool.map(_run_task, tasks.values(), chunksize=1)
    else:
        memo: dict = {}
        done = [_run_task(items, memo) for items in tasks.values()]
    chunks = {key: iter(task) for key, task in zip(tasks, done)}
    records = [rec for key, _ in keyed for rec in next(chunks[key])]
    summary = {
        "checked": sum(r["status"] == "checked" for r in records),
        "held": sum(r["status"] == "checked" and r["holds"] for r in records),
        "tight": sum(r["status"] == "checked" and r["tight"] for r in records),
        "hypothesis_skipped": sum(r["status"] == "hypothesis-skipped" for r in records),
        "budget_skipped": sum(r["status"] == "budget-skipped" for r in records),
    }
    return {
        "suite": {
            "theorems": list(spec.theorems),
            "products": list(spec.products),
            "budget": spec.budget,
            "max_product": spec.max_product,
        },
        "corpus": [g.name() for g in spec.graphs],
        "records": records,
        "summary": summary,
    }


def suite_ok(report: dict) -> bool:
    return report["summary"]["held"] == report["summary"]["checked"]


def report_to_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, byte for byte.

    ``indent`` sends ``json.dumps`` to the standard library's pure-Python
    encoder, which on a large report is slow and builds millions of small
    chunks. Here each container whose values are all scalars (every record)
    is one call of the C encoder, whose item separator carries the newline
    and indentation; only the containers above those are walked in Python.
    """
    out: list[str] = []
    _encode(report, 0, out)
    out.append("\n")
    return "".join(out)


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder writing a container of scalars at ``depth`` with its items
    one level deeper, but without the newlines next to its brackets."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


def _encode(value, depth: int, out: list[str]) -> None:
    """Append the chunks of ``value`` at nesting ``depth`` to ``out``."""
    if not isinstance(value, _CONTAINERS):
        out.append(_flat_encoder(depth).encode(value))
        return
    is_dict = isinstance(value, dict)
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth
    items = value.values() if is_dict else value
    if not any(isinstance(v, _CONTAINERS) for v in items):
        # one chunk, not five: on a report of small records the chunks' own
        # overhead would otherwise rival the text's size in memory
        text = _flat_encoder(depth).encode(value)
        out.append(f"{text[0]}{inner}{text[1:-1]}{close}{text[-1]}")
        return
    out.append("{" if is_dict else "[")
    sep, comma = inner, "," + inner
    if is_dict:
        for key in sorted(value):
            out += (sep, encode_basestring_ascii(key), ": ")
            _encode(value[key], depth + 1, out)
            sep = comma
    else:
        for item in value:
            out.append(sep)
            _encode(item, depth + 1, out)
            sep = comma
    out += (close, "}" if is_dict else "]")


def report_to_csv(report: dict) -> str:
    """One row per record, witnesses omitted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rec in report["records"]:
        writer.writerow(["" if rec.get(col) is None else rec.get(col) for col in _CSV_COLUMNS])
    return buf.getvalue()


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
