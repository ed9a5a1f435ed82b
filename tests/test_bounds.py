"""Theorem registry, evaluation records, suite runs, premise checks."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import traceback

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romdom import (
    CARTESIAN,
    STRONG,
    BudgetExceeded,
    Env,
    Graph,
    ParameterError,
    SuiteSpec,
    THEOREM_ORDER,
    THEOREMS,
    check_pncn_premise,
    complete,
    cycle,
    default_corpus,
    evaluate,
    exhaustive_corpus,
    from_edges,
    is_connected,
    path,
    random_corpus,
    report_to_csv,
    report_to_json,
    resolve_theorem_ids,
    run_suite,
    spider,
    star,
    suite_ok,
)
from romdom import bounds

UNARY_IDS = [tid for tid in THEOREM_ORDER if THEOREMS[tid].kind is None]
CART_IDS = [tid for tid in THEOREM_ORDER if THEOREMS[tid].kind == CARTESIAN]
STRONG_IDS = [tid for tid in THEOREM_ORDER if THEOREMS[tid].kind == STRONG]


def test_registry_shape():
    assert len(THEOREM_ORDER) == 33
    assert len(UNARY_IDS) == 6
    assert len(CART_IDS) == 19
    assert len(STRONG_IDS) == 8
    scaled = {tid for tid in THEOREM_ORDER if THEOREMS[tid].scale == 6}
    assert scaled == {
        "T-lower-i",
        "T-lower-ii",
        "C-RR3",
        "C-gR3",
        "EQ-casi-vizing",
        "R-improved-vizing",
        "C-roman-i",
        "C-roman-ii",
        "C-F-halfmax",
    }


def test_resolve_prefixes():
    assert resolve_theorem_ids(["L1"]) == ["L1-sandwich"]
    assert resolve_theorem_ids(["L2-B2", "L1-sandwich"]) == ["L1-sandwich", "L2-B2"]
    with pytest.raises(ParameterError):
        resolve_theorem_ids(["NO-SUCH"])
    with pytest.raises(ParameterError):
        resolve_theorem_ids(["T-lower"])  # ambiguous: -i and -ii


def test_arity_is_validated():
    with pytest.raises(ParameterError):
        evaluate("L1-sandwich", path(3), path(3))
    with pytest.raises(ParameterError):
        evaluate("EQ-chino", path(3))


def test_lower_bound_example():
    rec = evaluate("T-F-lower", path(3), star(3))
    assert rec.status == "checked"
    assert rec.hypotheses_met is True
    assert rec.relation == ">="
    assert rec.rhs == 2  # gamma(P3) * gamma_R(K1,3)
    assert rec.lhs == 6
    assert rec.holds and not rec.tight


def test_tight_example():
    rec = evaluate("P-corochulo", path(3), spider(3, 1))
    assert (rec.lhs, rec.rhs, rec.holds, rec.tight) == (8, 8, True, True)


def test_hypothesis_gate_example():
    rec = evaluate("C-strong-F-eq", cycle(4), path(3))
    assert rec.status == "hypothesis-skipped"
    assert rec.hypotheses_met is False
    assert "efficient dominating set" in rec.reason
    assert rec.lhs is None and rec.holds is None


def test_forced_equality_on_c6_c6():
    rec = evaluate("T-strong-sandwich", cycle(6), cycle(6))
    assert rec.lhs == 4 and rec.rhs == 4 and rec.tight
    assert "upper side" in rec.note


def test_unary_records():
    rec = evaluate("L1-sandwich", path(4))
    assert rec.kind == "unary" and rec.h is None
    assert (rec.lhs, rec.rhs) == (3, 4)  # gamma_R vs 2*gamma
    assert "lower side" in rec.note
    b2 = evaluate("L2-B2", path(4))
    assert (b2.lhs, b2.rhs, b2.tight) == (1, 1, True)
    b1 = evaluate("L2-B1", path(4))
    assert (b1.lhs, b1.rhs, b1.relation) == (1, 1, ">=")


def test_gamma_plus_one_branches():
    k1 = evaluate("P-gamma-plus-1", complete(1))
    assert k1.status == "hypothesis-skipped"
    hub = evaluate("P-gamma-plus-1", star(3))
    assert hub.relation == "==" and hub.holds
    ring = evaluate("P-gamma-plus-1", cycle(6))
    assert ring.relation == ">=" and (ring.lhs, ring.rhs) == (4, 4)
    split = evaluate("P-gamma-plus-1", from_edges(3, [(0, 1)]))
    assert split.status == "hypothesis-skipped"


def test_regular_code_graph_equality():
    rec = evaluate("R-F-regular", cycle(6))
    assert rec.relation == "==" and (rec.lhs, rec.rhs) == (6, 6)
    rec2 = evaluate("R-F-regular", path(4))
    assert rec2.relation == "<=" and rec2.holds
    rec3 = evaluate("R-F-regular", cycle(4))
    assert rec3.status == "hypothesis-skipped"


def test_doubled_prism_bound():
    rec = evaluate("P-F-K2", cycle(6))
    assert rec.status == "checked" and rec.holds
    assert "lower side" in rec.note
    skipped = evaluate("P-F-K2", path(4))  # in F but not regular
    assert skipped.status == "hypothesis-skipped"


def test_scaled_sides_are_integers():
    rec = evaluate("T-lower-i", complete(2), complete(2))
    assert rec.scale == 6
    assert (rec.lhs, rec.rhs) == (6 * 3, 4 * 1 * 2)
    assert rec.holds


def test_roman_hypothesis_orientation():
    # C-roman-i constrains h; P4 is not Roman, C3 is
    ok = evaluate("C-roman-i", path(4), cycle(3))
    assert ok.status == "checked"
    gated = evaluate("C-roman-i", cycle(3), path(4))
    assert gated.status == "hypothesis-skipped"


def test_strong_minus_note_reports_selection():
    rec = evaluate("T-strong-minus", path(6), path(6))
    assert rec.status == "checked" and rec.holds
    assert "enumerated" in rec.note
    # gamma_R(P6)=4 with two 2s in every optimum: rhs = 16 - 2*4
    assert rec.rhs == 8


def test_budget_skip_records_reason():
    rec = evaluate("EQ-chino", path(5), path(5), budget=10)
    assert rec.status == "budget-skipped"
    assert "budget" in rec.reason or "nodes" in rec.reason
    assert rec.lhs is None


def test_env_witness_payload_serializes():
    env = Env(path(3), path(3))
    env.gamma("g")
    payload = env.witness_payload()
    assert payload["g"] == "Bg"
    assert payload["gamma_g"] == 1
    assert json.dumps(payload)


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=40, deadline=None)
def test_unary_soundness_fuzz(seed):
    (g,) = random_corpus(1, 1, 6, seed)
    for tid in UNARY_IDS:
        rec = evaluate(tid, g)
        if rec.status == "checked":
            assert rec.holds, (tid, g.name(), rec.lhs, rec.relation, rec.rhs)


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=15, deadline=None)
def test_product_soundness_fuzz(seed):
    g, h = random_corpus(2, 3, 4, seed)
    for tid in CART_IDS + STRONG_IDS:
        rec = evaluate(tid, g, h)
        if rec.status == "checked":
            assert rec.holds, (tid, g.name(), h.name(), rec.lhs, rec.relation, rec.rhs)


def test_exhaustive_corpus_size():
    graphs = exhaustive_corpus(4)
    assert len(graphs) == 1 + 2 + 8 + 64
    assert len({g.name() for g in graphs}) == 75


def test_suite_over_exhaustive_unary():
    spec = SuiteSpec(
        graphs=tuple(exhaustive_corpus(4)),
        theorems=("L1-sandwich", "L2-B2", "L2-B1"),
        products=(),
    )
    report = run_suite(spec)
    assert len(report["records"]) == 225
    assert report["summary"]["checked"] == 225
    assert report["summary"]["held"] == 225
    assert suite_ok(report)


def test_suite_record_order_and_determinism():
    spec = SuiteSpec(
        graphs=(path(3), cycle(3), star(2)),
        theorems=("L1-sandwich", "EQ-chino", "T-strong-sandwich"),
    )
    a = run_suite(spec)
    b = run_suite(spec)
    assert report_to_json(a) == report_to_json(b)
    kinds = [rec["kind"] for rec in a["records"]]
    assert kinds == ["unary"] * 3 + ["cartesian"] * 9 + ["strong"] * 9
    pairs = [(rec["g"], rec["h"]) for rec in a["records"] if rec["kind"] == "cartesian"]
    assert pairs[:3] == [("P3", "P3"), ("P3", "C3"), ("P3", "K1,2")]


def test_suite_parallel_identical():
    spec = SuiteSpec(graphs=tuple(default_corpus()[:6]), products=(CARTESIAN,))
    assert report_to_json(run_suite(spec, jobs=3)) == report_to_json(run_suite(spec, jobs=1))


def test_suite_max_product_filters_pairs():
    spec = SuiteSpec(
        graphs=(path(2), path(5)),
        theorems=("EQ-chino",),
        products=(CARTESIAN,),
        max_product=10,
    )
    report = run_suite(spec)
    pairs = {(rec["g"], rec["h"]) for rec in report["records"]}
    assert pairs == {("P2", "P2"), ("P2", "P5"), ("P5", "P2")}


def test_suite_budget_skips_are_counted():
    spec = SuiteSpec(graphs=(path(5),), theorems=("EQ-chino",), products=(CARTESIAN,), budget=5)
    report = run_suite(spec)
    assert report["summary"]["budget_skipped"] == 1
    assert suite_ok(report)  # nothing checked, nothing violated


def test_report_json_is_canonical():
    spec = SuiteSpec(graphs=(path(2),), theorems=("L1-sandwich",), products=())
    text = report_to_json(run_suite(spec))
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert '"ts"' not in text and "time" not in parsed["suite"]


def test_report_csv_projection():
    spec = SuiteSpec(graphs=(path(3), cycle(4)), theorems=("L1-sandwich", "L2-B2"), products=())
    report = run_suite(spec)
    lines = report_to_csv(report).splitlines()
    assert lines[0].startswith("theorem,kind,g,h,status")
    assert len(lines) == 1 + len(report["records"])
    assert "witness" not in lines[0]


def test_premise_check_values():
    rec = check_pncn_premise(4, "path")
    assert rec.b2_sizes == (1,) and rec.premise_holds
    assert rec.inequality_holds
    c5 = check_pncn_premise(5, "cycle")
    assert c5.b2_sizes == (1, 2)
    assert not c5.premise_holds
    assert c5.violating_labels is not None
    assert c5.inequality_holds
    c6 = check_pncn_premise(6, "cycle")
    assert c6.b2_sizes == (2,) and c6.premise_holds


def test_premise_check_validation():
    with pytest.raises(ParameterError):
        check_pncn_premise(5, "wheel")
    with pytest.raises(ParameterError):
        check_pncn_premise(1, "path")
    with pytest.raises(ParameterError):
        check_pncn_premise(2, "cycle")


def test_default_corpus_contents():
    names = [g.name() for g in default_corpus()]
    assert names == [
        "P2", "P3", "P4", "P5",
        "C3", "C4", "C5",
        "K2", "K3", "K4",
        "K1,2", "K1,3",
        "spider(3;1)", "Q3", "K2+K1",
    ]


# -- the per-sweep solve memo


def _fresh_records(graphs, budget=None):
    """run_suite's records, each item evaluated on its own fresh Env."""
    unary = [t for t in THEOREM_ORDER if THEOREMS[t].kind is None]
    items = [(g, None, unary) for g in graphs]
    for kind in (CARTESIAN, STRONG):
        ids = [t for t in THEOREM_ORDER if THEOREMS[t].kind == kind]
        items += [(g, h, ids) for g in graphs for h in graphs]
    out = []
    for g, h, ids in items:
        env = Env(g, h, budget)
        out += [bounds._evaluate_env(tid, env).to_dict() for tid in ids]
    return out


def _log_solver_calls(monkeypatch, log, products_only):
    """Wrap bounds' gamma and gamma_R solvers so that every call, in any
    forked worker too, appends the solver's name and graph to ``log``."""
    for name in ("domination_number", "roman_domination_number"):
        solve = getattr(bounds, name)

        def logged(g, *args, _solve=solve, _name=name, **kwargs):
            if not products_only or " x " in g.name():
                with open(log, "a", encoding="ascii") as fh:
                    fh.write(f"{_name} {g.name()}\n")
            return _solve(g, *args, **kwargs)

        monkeypatch.setattr(bounds, name, logged)


def _failing(monkeypatch, tid, kind):
    # rhs one below lhs: never holds, so the record carries the Env's witnesses
    spec = THEOREMS[tid]
    monkeypatch.setitem(
        THEOREMS,
        tid,
        dataclasses.replace(
            spec,
            sides=lambda e: ("<=", e.gammar_prod(kind) + e.gamma("g"), e.gammar_prod(kind)),
        ),
    )


def test_sweep_memo_matches_fresh_envs(monkeypatch, tmp_path):
    _failing(monkeypatch, "T-lower-ii", CARTESIAN)
    _failing(monkeypatch, "C-coroloco", STRONG)
    graphs = tuple(exhaustive_corpus(3))
    report = run_suite(SuiteSpec(graphs=graphs))
    assert report["records"] == _fresh_records(graphs)
    assert not suite_ok(report)
    assert any("witnesses" in r and "prod_strong" in r["witnesses"] for r in report["records"])
    # no memo outlives a call: a second sweep makes the same solver calls
    log = tmp_path / "calls.txt"
    _log_solver_calls(monkeypatch, log, products_only=False)
    calls = []
    for _ in range(2):
        run_suite(SuiteSpec(graphs=graphs))
        calls.append(log.read_text())
        log.unlink()
    assert calls[0] == calls[1] and calls[0].count("\n") > len(graphs)


def test_sweep_memo_solves_each_input_once(monkeypatch):
    calls = {}
    for name in (
        "domination_number",
        "roman_domination_number",
        "two_packing_number",
        "_efficient_sets",
        "_optimal_ties",
        "enumerate_optimal_rdfs",
    ):
        solve = getattr(bounds, name)

        def counted(*args, _solve=solve, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    graphs = exhaustive_corpus(3)
    run_suite(SuiteSpec(graphs=tuple(graphs)))
    # the 11 labeled graphs fall into 7 isomorphism classes: K1, 2K1, K2,
    # 3K1, K2+K1, P3, K3; 4 of them connected, with 10 unordered pairs
    classes = {g.canonical_form for g in graphs}
    connected = [form for form in classes if is_connected(Graph(len(form), form))]
    pairs = len(connected) * (len(connected) + 1) // 2
    assert (len(graphs), len(classes), len(connected), pairs) == (11, 7, 4, 10)
    # the disconnected classes 2K1, 3K1 and K2+K1 have components K1 and K2,
    # so their pairs read the 7 unordered component pairs {K1, K2} x {K1, K2,
    # P3, K3}, each solved once per kind apart from the connected pairs
    parts = 7
    assert calls == {
        # one per connected class, plus one per connected pair or component
        # pair and product kind
        "domination_number": len(connected) + 2 * (pairs + parts),
        # ... plus gamma_R(G x K2) for the three connected regular classes
        # with an efficient dominating set, K1, K2 and K3; 2K1 and 3K1 read
        # the component pair {K1, K2} the Cartesian sweep solved
        "roman_domination_number": len(connected) + 2 * (pairs + parts) + 3,
        "two_packing_number": len(connected),
        "_efficient_sets": len(connected),
        # the optimal functions come from one collecting run per connected
        # class, given its memoized gamma_R, never from enumerate_optimal_rdfs
        "_optimal_ties": len(connected),
    }
    assert (calls["domination_number"], calls["roman_domination_number"]) == (38, 41)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the logging wrappers only when forked",
)
def test_workers_solve_each_product_once(monkeypatch, tmp_path):
    # both orientations of a pair go to one task, so the workers solve the
    # serial sweep's products; a component pair of K2+K1 is shared across
    # tasks, so a worker may solve it again, but only it
    spec = SuiteSpec(graphs=tuple(default_corpus()), max_product=12)
    log = tmp_path / "solves.txt"
    _log_solver_calls(monkeypatch, log, products_only=True)
    solves = {}
    for jobs in (1, 2):
        run_suite(spec, jobs=jobs)
        solves[jobs] = log.read_text().splitlines()
        log.unlink()
    assert len(solves[1]) == len(set(solves[1])) > 100
    assert set(solves[2]) == set(solves[1])


# gamma_R(P5 x K4) takes 1,386 nodes and gamma_R(K4 x P5) 576, so at this
# budget only K4 x P5 fits
ORIENTED_BUDGET = 1000


@pytest.mark.parametrize("order", [(path(5), complete(4)), (complete(4), path(5))],
                         ids=["P5-first", "K4-first"])
def test_budget_failure_is_not_shared_across_orientations(monkeypatch, order):
    solved = []
    solve = bounds.roman_domination_number

    def recorded(g, budget=None):
        solved.append(g.name())
        return solve(g, budget)

    monkeypatch.setattr(bounds, "roman_domination_number", recorded)
    spec = SuiteSpec(graphs=order, products=(CARTESIAN,), budget=ORIENTED_BUDGET)
    report = run_suite(spec)
    monkeypatch.undo()
    # P5 x K4 runs out once, if met first; K4 x P5 is then solved for both
    assert solved.count("P5 x K4 cartesian") == (order[0].name() == "P5")
    assert solved.count("K4 x P5 cartesian") == 1
    # a fresh Env follows the same rule, so it gives the sweep's records
    fresh = [r for r in _fresh_records(order, ORIENTED_BUDGET) if r["kind"] != "strong"]
    assert report["records"] == fresh
    p5_k4 = {r["status"] for r in report["records"] if (r["g"], r["h"]) == ("P5", "K4")}
    assert p5_k4 == {"checked", "hypothesis-skipped"}
    assert evaluate("EQ-chino", path(5), complete(4), budget=ORIENTED_BUDGET).status == "checked"
    assert report_to_json(run_suite(spec, jobs=2)) == report_to_json(report)


# P3 and star:2 are one isomorphism class; at this budget some of star:2's
# own solves run out where those on the class's canonical graph do not
CLASS_BUDGET = 4


def test_class_keys_only_add_checked_records(monkeypatch):
    spec = SuiteSpec(graphs=(path(3), star(2)), budget=CLASS_BUDGET)
    report = run_suite(spec)
    with monkeypatch.context() as m:
        # every labeled graph its own class: memo and task keys by labeling
        m.setattr(Graph, "canonical_form", property(lambda self: self.adj))
        labeled = run_suite(spec)
    assert len(labeled["records"]) == len(report["records"])
    pairs = list(zip(labeled["records"], report["records"]))
    assert all(new == old for old, new in pairs if old["status"] == "checked")
    gained = [new for old, new in pairs if old["status"] != new["status"] == "checked"]
    assert {(r["g"], r["kind"]) for r in gained} == {("K1,2", "unary")}
    assert report_to_json(run_suite(spec, jobs=2)) == report_to_json(report)


def test_memoized_failure_keeps_its_traceback_short():
    def traceback_lengths(lookup) -> set[int]:
        lengths = set()
        for _ in range(1000):
            with pytest.raises(BudgetExceeded) as info:
                lookup()
            lengths.add(len(traceback.extract_tb(info.value.__traceback__)))
        return lengths

    env = Env(path(5), budget=1)
    sweep: dict = {}

    def in_sweep():
        # a fresh Env each time, so the failure comes from the sweep's memo
        fresh = Env(path(5), budget=1)
        fresh._sweep = sweep
        fresh.gamma("g")

    for lookup in (lambda: env.gamma("g"), in_sweep):
        with pytest.raises(BudgetExceeded):
            lookup()  # the solve itself
        assert len(traceback_lengths(lookup)) == 1


def test_families_report_bytes_are_pinned():
    # the bytes of `verify --corpus families --max-product 48 --budget 2000000`
    spec = SuiteSpec(graphs=tuple(default_corpus()), budget=2_000_000, max_product=48)
    digest = hashlib.sha256(report_to_json(run_suite(spec)).encode("ascii")).hexdigest()
    assert digest == "73a77d204034d6b692a93bcdaf7de0af7d40609cb8e77091c9a6574bf5bba2b5"


def test_exhaustive_report_bytes_are_pinned():
    # the bytes of `verify --corpus exhaustive --max-n 4 --budget 2000000`
    spec = SuiteSpec(graphs=tuple(exhaustive_corpus(4)), budget=2_000_000)
    digest = hashlib.sha256(report_to_json(run_suite(spec)).encode("ascii")).hexdigest()
    assert digest == "f896d45cc7f4c711514d7c4c1945319f67e44d3c7f7329e1a30898a509bd097a"


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats()
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


@given(_JSON_VALUES)
@example({"b": [{}, [], ()], "a": {"z": [1, {"y": {}}], "\u00e9\n\"": (2**70, -(2**65))}})
@example([[["\u2603", "\t\x00", "", None, True, False]], [float("inf"), float("-inf"), float("nan")]])
@example({"records": [{"b": 1, "a": 2.5, "witnesses": {"z": "Bw", "h": None}}], "corpus": []})
@settings(max_examples=200, deadline=None)
def test_report_to_json_is_indented_json_dumps(value):
    assert report_to_json(value) == _dumps(value)


def test_report_to_json_with_witnesses_is_indented_json_dumps(monkeypatch):
    _failing(monkeypatch, "T-lower-ii", CARTESIAN)
    _failing(monkeypatch, "C-coroloco", STRONG)
    report = run_suite(SuiteSpec(graphs=tuple(exhaustive_corpus(3))))
    assert any("witnesses" in r for r in report["records"])
    assert report_to_json(report) == _dumps(report)
