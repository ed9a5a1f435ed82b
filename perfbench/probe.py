"""Wrappers around the names romdom's modules import from each other.

``romdom.bounds`` and ``romdom.cli`` call the solvers, ``product``,
``parse_graph6`` and friends through names bound at import time, so
replacing ``romdom.bounds.domination_number`` (say) intercepts every call
the sweep makes, without touching the package. Calls made inside a module
(``enumerate_optimal_rdfs`` solving gamma_R on its own) stay invisible:
what is measured is the traffic between layers.

Two levels:

* ``Probe(trace=False)`` is the node meter. It wraps only the solvers and
  ``run_suite``, reads no clock per solver call and records no spans. It
  stays on in timed passes so that ``search_nodes`` comes from the pass it
  describes.
* ``Probe(trace=True)`` also records one span per call, with start, end
  and parent, at every boundary listed in ``TRACED``.

Wrappers live in the process that installs them. Worker processes forked by
``run_suite(jobs > 1)`` inherit them but keep their counts, so counts and
spans are read from ``--jobs 1`` passes only.
"""

from __future__ import annotations

import functools
import time

SOLVERS = (
    "domination_number",
    "roman_domination_number",
    "two_packing_number",
    "efficient_dominating_sets",
    "enumerate_optimal_rdfs",
)

# (module, name imported into it) -> span label, for the traced run.
TRACED = {
    **{("bounds", fn): "solvers." + fn for fn in SOLVERS},
    **{("cli", fn): "solvers." + fn for fn in SOLVERS},
    ("bounds", "product"): "graphs.product",
    ("cli", "product"): "graphs.product",
    ("bounds", "_run_item"): "bounds.item",
    ("cli", "run_suite"): "bounds.run_suite",
    ("cli", "report_to_json"): "bounds.report_to_json",
    ("cli", "parse_graph6"): "graph6.parse_graph6",
    ("cli", "default_corpus"): "families.corpus",
    ("cli", "exhaustive_corpus"): "families.corpus",
}


class Span:
    """One call across a layer boundary.

    ``parent`` is the index of the enclosing span, -1 at the top.
    ``graph`` is the first argument of a solver call, ``product`` says
    whether that graph came from ``product``, ``nodes`` is the search size
    the call reported (or spent before ``BudgetExceeded``), ``size`` the
    length of a string result.
    """

    __slots__ = ("label", "start", "end", "parent", "graph", "product", "nodes", "size")

    def __init__(self, label: str, parent: int):
        self.label = label
        self.start = self.end = 0.0
        self.parent = parent
        self.graph = None
        self.product = False
        self.nodes = 0
        self.size = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Probe:
    def __init__(self, romdom, trace: bool, product_g6=()):
        self._romdom = romdom
        self._budget_exc = romdom.BudgetExceeded
        self.trace = trace
        self.nodes = 0
        self.budget_calls = 0
        self.budget_nodes = 0
        self.run_suite_s: list[float] = []
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # id -> graph for every graph that came from product(); the graph is
        # kept alive so its id is never reused while the probe is installed
        self._product_graphs: dict[int, object] = {}
        # graph6 lines that were written from products (kernel-hard's inputs)
        self.product_g6 = set(product_g6)
        self._saved: list[tuple[object, str, object]] = []

    # -- installation

    def install(self) -> "Probe":
        if self.trace:
            targets = TRACED
        else:
            targets = {(m, fn): "solvers." + fn for m in ("bounds", "cli") for fn in SOLVERS}
            targets[("cli", "run_suite")] = "bounds.run_suite"
        for (mod_name, name), label in targets.items():
            module = getattr(self._romdom, mod_name)
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, label))
        return self

    def close(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)
        self._product_graphs.clear()

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    def _wrap(self, fn, label: str):
        if not self.trace:
            if label == "bounds.run_suite":
                return self._timed(fn)
            return self._counted(fn)
        return self._spanned(fn, label)

    def _counted(self, fn):
        probe = self
        budget_exc = self._budget_exc

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except budget_exc as exc:
                probe.budget_calls += 1
                probe.budget_nodes += exc.nodes
                probe.nodes += exc.nodes
                raise
            probe.nodes += getattr(res, "node_count", 0)
            return res

        return counted

    def _timed(self, fn):
        probe = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.run_suite_s.append(time.perf_counter() - t0)

        return timed

    def _spanned(self, fn, label: str):
        probe = self
        budget_exc = self._budget_exc
        solver = label.startswith("solvers.")

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = probe.open(label)
            if solver:
                span.graph = args[0]
                span.product = id(args[0]) in probe._product_graphs
            try:
                res = fn(*args, **kwargs)
            except budget_exc as exc:
                span.nodes = exc.nodes
                probe.budget_calls += 1
                probe.budget_nodes += exc.nodes
                probe.nodes += exc.nodes
                raise
            finally:
                probe.shut(span)
            if solver:
                span.nodes = getattr(res, "node_count", 0)
                probe.nodes += span.nodes
            elif label == "graphs.product":
                probe._product_graphs[id(res)] = res
            elif label == "graph6.parse_graph6" and args[0] in probe.product_g6:
                probe._product_graphs[id(res)] = res
            elif isinstance(res, str):
                span.size = len(res)
            return res

        return spanned

    # -- spans

    def open(self, label: str) -> Span:
        span = Span(label, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def shut(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
