"""Theorem registry, evaluation records, suite runs, premise checks."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import sys
import traceback
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romdom import (
    CARTESIAN,
    STRONG,
    BoundRecord,
    BudgetExceeded,
    Env,
    Graph,
    ParameterError,
    RomdomError,
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
    hypercube,
    is_connected,
    path,
    product,
    random_corpus,
    report_to_json,
    resolve_theorem_ids,
    run_suite,
    spider,
    star,
    suite_ok,
    sweep_items,
    sweep_records,
    write_report,
)
from romdom import bounds, solvers
from romdom.graphs import _individualize_refine, bits

from bruteforce import brute_first_optimum, brute_gamma, brute_gamma_r, brute_gamma_r_subsets

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


def test_c_rr3_extremal_case_c5_c5():
    # C-RR3, gamma_R(G x H) >= gamma_R(G) gamma_R(H) / 3: a sweep of the
    # Cartesian class pairs on 2 to 6 vertices found it closest to tight at
    # C5 x C5 alone, with ratio 15/8; every value is checked against an
    # oracle (the MILP oracle checks them too, in test_milp.py)
    c5 = cycle(5)
    prod = product(c5, c5, CARTESIAN)
    edges = prod.edges()
    assert solvers.domination_number(prod).value == brute_gamma(25, edges)[0] == 5
    assert solvers.roman_domination_number(prod).value == brute_gamma_r_subsets(25, edges) == 10
    assert solvers.roman_domination_number(c5).value == brute_gamma_r(5, c5.edges()) == 4
    rec = evaluate("C-RR3", c5, c5)
    assert (rec.status, rec.scale, rec.lhs, rec.rhs) == ("checked", 6, 60, 32)
    assert (rec.holds, rec.tight) == (True, False)


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
    rec = evaluate("EQ-chino", path(5), path(5), budget=3)
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
    spec = SuiteSpec(graphs=(path(5),), theorems=("EQ-chino",), products=(CARTESIAN,), budget=3)
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
    buf = io.StringIO()
    write_item = bounds.csv_writer(buf)
    for item in sweep_items(spec):
        write_item(*item)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("theorem,kind,g,h,status")
    assert len(lines) == 1 + len(report["records"])
    assert "witness" not in lines[0]
    # each row is its record's report values, a missing or None value empty
    header, *rows = csv.reader(lines)
    assert rows == [
        ["" if rec.get(col) is None else str(rec[col]) for col in header]
        for rec in report["records"]
    ]


def test_csv_rows_are_csv_writer_rows():
    # labelings under names that csv.writer quotes reuse the first
    # labeling's rows, so each row's text around the names is reused
    graphs = (
        from_edges(3, [(0, 1), (1, 2)]),
        from_edges(3, [(1, 0), (0, 2)], 'a,"b"'),
        from_edges(3, [(0, 2), (2, 1)], "c\nd"),
        cycle(3),
    )
    spec = SuiteSpec(graphs=graphs, products=(CARTESIAN,))
    buf, want = io.StringIO(), io.StringIO()
    write_item = bounds.csv_writer(buf)
    for item in sweep_items(spec):
        write_item(*item)
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(bounds._CSV_COLUMNS)
    writer.writerows(rec[:-1] for rec in sweep_records(spec))
    assert buf.getvalue() == want.getvalue()
    assert '"a,""b"""' in buf.getvalue()


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
    forked worker too, appends the process id, the solver's name and the
    graph to ``log``."""
    for name in ("domination_number", "roman_domination_number"):
        solve = getattr(bounds, name)

        def logged(g, *args, _solve=solve, _name=name, **kwargs):
            if not products_only or " x " in g.name():
                with open(log, "a", encoding="ascii") as fh:
                    fh.write(f"{os.getpid()} {_name} {g.name()}\n")
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


def _serial_records(spec):
    """The records of a serial sweep evaluating every item on its own Env,
    all through one solve memo, in report order."""
    memo: dict = {}
    out = []
    for _, (g, h, ids, budget) in bounds._items(spec):
        env = Env(g, h, budget)
        env._sweep = memo
        out += [bounds._evaluate_env(tid, env) for tid in ids]
    return out


def _mixed_items(spec, records) -> int:
    """How many ordered class items have labelings with different statuses."""
    statuses: dict = {}
    it = iter(records)
    for _, (g, h, ids, _budget) in bounds._items(spec):
        key = (THEOREMS[ids[0]].kind, g.canonical_form, None if h is None else h.canonical_form)
        statuses.setdefault(key, set()).add(tuple(next(it).status for _ in ids))
    return sum(len(seen) > 1 for seen in statuses.values())


def test_reused_records_match_every_labeling_evaluated():
    spec = SuiteSpec(graphs=tuple(exhaustive_corpus(4)), budget=None)
    assert list(sweep_records(spec)) == _serial_records(spec)


def test_reused_records_match_under_budgets():
    mixed = both = 0
    for budget in (1, 2, 4, 8, 20):
        spec = SuiteSpec(graphs=tuple(exhaustive_corpus(3)), budget=budget)
        records = _serial_records(spec)
        assert list(sweep_records(spec)) == records
        assert list(sweep_records(spec, jobs=2)) == records
        mixed += _mixed_items(spec, records)
        statuses = {r.status for r in records}
        both += {"checked", "budget-skipped"} <= statuses
    # every labeling of an ordered class item reads the same class keys, so
    # it gets the same statuses, also where some solves run out
    assert mixed == 0
    assert both > 0


def test_reused_records_match_past_the_enumeration_guard(monkeypatch):
    # past the guard, max_b2 reads the |B2| of the gamma_R solver's witness on
    # P5's canonical graph, so P5 labeled in order and P5' labeled 1-2-0-3-4
    # read the same value
    monkeypatch.setattr(solvers, "DEFAULT_ENUM_GUARD", 4)
    relabeled = from_edges(5, [(1, 2), (2, 0), (0, 3), (3, 4)], "P5'")
    spec = SuiteSpec(graphs=(path(5), relabeled, complete(2)), products=(STRONG,))
    records = _serial_records(spec)
    minus = {r.g: r for r in records if (r.theorem, r.h) == ("T-strong-minus", "K2")}
    assert {g: (r.rhs, r.note) for g, r in minus.items()} == {
        "P5": (4, "2-set selection g:solver-witness,h:enumerated"),
        "P5'": (4, "2-set selection g:solver-witness,h:enumerated"),
        "K2": (2, "2-set selection g:enumerated,h:enumerated"),
    }
    assert minus["P5'"] == minus["P5"]._replace(g="P5'")
    for g in spec.graphs[:2]:
        assert evaluate("T-strong-minus", g, complete(2)) == minus[g.name()]
    assert list(sweep_records(spec, jobs=2)) == records
    assert _streamed(spec, jobs=2) == _streamed(spec)
    # every check runs once per ordered class item: the classes P5 and K2
    evaluated = []
    evaluate_env = bounds._evaluate_env

    def counted(tid, env):
        evaluated.append(tid)
        return evaluate_env(tid, env)

    monkeypatch.setattr(bounds, "_evaluate_env", counted)
    assert list(sweep_records(spec)) == records
    assert len(evaluated) == 2 * len(UNARY_IDS) + 2 * 2 * len(STRONG_IDS)


def test_reused_records_match_with_violation_witnesses(monkeypatch):
    _failing(monkeypatch, "T-lower-ii", CARTESIAN)
    _failing(monkeypatch, "C-coroloco", STRONG)
    spec = SuiteSpec(graphs=tuple(exhaustive_corpus(3)))
    records = _serial_records(spec)
    assert any(r.witnesses is not None for r in records)
    assert list(sweep_records(spec)) == records
    assert list(sweep_records(spec, jobs=2)) == records
    assert _streamed(spec, jobs=2) == _streamed(spec)


def test_reused_records_match_on_random_repeats():
    graphs = tuple(random_corpus(30, 2, 5, 3))
    assert len({g.canonical_form for g in graphs}) < len({g.adj for g in graphs}) < len(graphs)
    spec = SuiteSpec(graphs=graphs)
    assert list(sweep_records(spec)) == _serial_records(spec)
    assert report_to_json(run_suite(spec, jobs=2)) == report_to_json(run_suite(spec))


def test_sweep_memo_solves_each_input_once(monkeypatch):
    calls = {}
    for name in (
        "domination_number",
        "roman_domination_number",
        "two_packing_number",
        "_efficient_sets",
        "_optimal_ties",
        "enumerate_optimal_rdfs",
        "_evaluate_env",
    ):
        solve = getattr(bounds, name)

        def counted(*args, _solve=solve, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    graphs = exhaustive_corpus(3)
    run_suite(SuiteSpec(graphs=tuple(graphs)))
    # the 11 labeled graphs fall into 7 isomorphism classes: K1, 2K1, K2,
    # 3K1, K2+K1, P3, K3; 4 of them connected. The disconnected ones have
    # components K1 and K2, so every pair is a sum over pairs of the 4
    # connected classes; K1 x B is B, so a pair with K1 reads B's factor
    # value, and the 6 unordered pairs of K2, P3 and K3 are solved
    classes = {g.canonical_form for g in graphs}
    connected = [form for form in classes if is_connected(Graph(len(form), form))]
    edged = len(connected) - 1
    pairs = edged * (edged + 1) // 2
    assert (len(graphs), len(classes), len(connected), pairs) == (11, 7, 4, 6)
    assert calls == {
        # one per connected class, plus one per solved pair and product kind
        "domination_number": len(connected) + 2 * pairs,
        # the same: gamma_R(G x K2) reads the Cartesian pairs {G, K2}
        "roman_domination_number": len(connected) + 2 * pairs,
        "two_packing_number": len(connected),
        "_efficient_sets": len(connected),
        # the optimal functions come from one collecting run per connected
        # class, given its memoized gamma_R, never from enumerate_optimal_rdfs
        "_optimal_ties": len(connected),
        # each check runs once per ordered class item: 6 unary checks per
        # class, 19 Cartesian and 8 strong per ordered pair of the 7 classes;
        # the other labelings reuse those records
        "_evaluate_env": len(classes) * 6 + len(classes) ** 2 * (19 + 8),
    }
    assert calls["_evaluate_env"] == 1365
    assert (calls["domination_number"], calls["roman_domination_number"]) == (16, 16)


def test_no_automorphism_search_on_products(monkeypatch):
    # gamma and gamma_R of a class pair each solve the product once, and the
    # orbit cut's generators are lifted from the factors' own searches, so
    # no canonical-form search runs on a product
    searched, solved = [], []

    def counted(adj):
        searched.append(len(adj))
        return _individualize_refine(adj)

    monkeypatch.setattr("romdom.graphs._individualize_refine", counted)
    for name in ("domination_number", "roman_domination_number"):
        solve = getattr(bounds, name)

        def logged(g, *args, _solve=solve, _name=name, **kwargs):
            solved.append((_name, g.n))
            return _solve(g, *args, **kwargs)

        monkeypatch.setattr(bounds, name, logged)
    bounds._run_item((cycle(6), cycle(7), CART_IDS, None), {})
    assert solved.count(("domination_number", 42)) == solved.count(("roman_domination_number", 42)) == 1
    assert 42 not in searched
    assert searched and max(searched) <= 7


# factors with a common prime factor (C4 = K2 x K2, Q3 = K2^3): the lifted
# group needs the swap (K2/K2, C4/C4) or is a proper subgroup of Aut(G x H)
# (C4/K2 gets 16 of Q3's 48 automorphisms, Q3/K2 96 of Q4's 384). Some
# node cuts under a generator that maps its S and refused set onto
# themselves but moves vertices of them on P3/P3 (with the swap; Cartesian
# only), and on C4/P4 and P4/P4 in both kinds
@pytest.mark.parametrize(
    "g, h",
    [
        (complete(2), complete(2)),
        (cycle(4), complete(2)),
        (hypercube(3), complete(2)),
        (cycle(4), cycle(4)),
        (path(3), path(3)),
        (cycle(4), path(4)),
        (path(4), path(4)),
    ],
    ids=lambda g: g.name(),
)
def test_lifted_products_match_bruteforce(monkeypatch, g, h):
    solved = []
    for name in ("domination_number", "roman_domination_number"):
        solve = getattr(bounds, name)

        def logged(gr, *args, _solve=solve, _name=name, **kwargs):
            solved.append((_name, gr))
            return _solve(gr, *args, **kwargs)

        monkeypatch.setattr(bounds, name, logged)
    env = Env(g, h)
    for kind in (CARTESIAN, STRONG):
        prod = product(g, h, kind)
        assert env.gamma_prod(kind) == brute_gamma(prod.n, prod.edges())[0]
        assert env.gammar_prod(kind) == brute_gamma_r_subsets(prod.n, prod.edges())
    # Env's solves are value-only; the default solve of each product Env
    # solved (the same graph object, its generators lifted from the
    # factors) gives the first optimum in search order, as with no orbit
    # cut at all
    solved = [(name, gr) for name, gr in solved if gr.n == g.n * h.n]
    assert len(solved) == 4
    for name, gr in solved:
        res = getattr(solvers, name)(gr)
        if name == "domination_number":
            want = brute_first_optimum(gr.n, gr.edges(), 1, None)
            assert (res.value, tuple(bits(res.witness))) == want
        else:
            want = brute_first_optimum(gr.n, gr.edges(), 2, 1)
            assert (res.value, tuple(bits(res.witness.b2))) == want


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the logging wrappers only when forked",
)
def test_workers_solve_each_product_once(monkeypatch, tmp_path):
    # the workers solve the serial sweep's products, and each worker solves
    # each at most once: its solve memo lasts as long as the pool. A class
    # pair read by tasks of both workers (a component pair of K2+K1, or
    # {G, K2} for gamma_R(G x K2)) is solved once in each, so --jobs 2 makes
    # between 85 and twice that, as the tasks fall: 93 to 106 in 12 runs
    spec = SuiteSpec(graphs=tuple(default_corpus()), max_product=12)
    log = tmp_path / "solves.txt"
    _log_solver_calls(monkeypatch, log, products_only=True)
    solves = {}
    for jobs in (1, 2):
        run_suite(spec, jobs=jobs)
        solves[jobs] = [tuple(line.split(" ", 1)) for line in log.read_text().splitlines()]
        log.unlink()
    assert len(solves[1]) == len({solve for _, solve in solves[1]}) == 85
    assert len(solves[2]) == len(set(solves[2]))
    assert {solve for _, solve in solves[2]} == {solve for _, solve in solves[1]}


# gamma_R(P5 x K4) on the product Env solves (the canonical graphs, P5
# first, generators lifted from the factors), value-only as Env solves it,
# takes 28 nodes (31 from the default start; 91 with no child screen, 72
# with two packing walks, 64 with four and no reduced-cost fixing); the
# test checks that premise first
CLASS_PAIR_NODES = 28


@pytest.mark.parametrize("budget", [CLASS_PAIR_NODES - 1, CLASS_PAIR_NODES], ids=["short", "exact"])
@pytest.mark.parametrize("order", [(path(5), complete(4)), (complete(4), path(5))],
                         ids=["P5-first", "K4-first"])
def test_budget_outcome_is_shared_across_orientations(monkeypatch, order, budget):
    p5, k4 = (Graph(g.n, g.canonical_form) for g in (path(5), complete(4)))
    prod = bounds._pair_product(CARTESIAN, p5, k4)
    nodes = solvers.roman_domination_number(prod, first=False).node_count
    assert nodes == CLASS_PAIR_NODES
    solved = []
    solve = bounds.roman_domination_number

    def recorded(g, *args, **kwargs):
        solved.append(g.n)
        return solve(g, *args, **kwargs)

    monkeypatch.setattr(bounds, "roman_domination_number", recorded)
    spec = SuiteSpec(graphs=order, products=(CARTESIAN,), budget=budget)
    report = run_suite(spec)
    monkeypatch.undo()
    # both orientations read the one solve of their class pair
    assert solved.count(20) == 1
    want = "checked" if budget == CLASS_PAIR_NODES else "budget-skipped"
    chino = {(r["g"], r["h"]): r["status"] for r in report["records"] if r["theorem"] == "EQ-chino"}
    assert chino[("P5", "K4")] == chino[("K4", "P5")] == want
    for g, h in ((path(5), complete(4)), (complete(4), path(5))):
        assert evaluate("EQ-chino", g, h, budget=budget).status == want
    # a fresh Env follows the same rule, so it gives the sweep's records
    fresh = [r for r in _fresh_records(order, budget) if r["kind"] != "strong"]
    assert report["records"] == fresh
    assert report_to_json(run_suite(spec, jobs=2)) == report_to_json(report)


def test_worker_memo_ends_with_its_pool():
    # two pooled sweeps back to back, the first one node short of the class
    # pair's gamma_R: a worker memo that outlived its pool would carry that
    # BudgetExceeded, kept under a class key, into the second sweep
    specs = [
        SuiteSpec(graphs=(path(5), complete(4)), products=(CARTESIAN,), budget=budget)
        for budget in (CLASS_PAIR_NODES - 1, CLASS_PAIR_NODES)
    ]
    pooled = [report_to_json(run_suite(spec, jobs=2)) for spec in specs]
    serial = [run_suite(spec) for spec in specs]
    assert pooled == [report_to_json(report) for report in serial]
    skipped = [
        {(r["g"], r["h"]) for r in report["records"] if r["status"] == "budget-skipped"}
        for report in serial
    ]
    assert skipped[0] - skipped[1] == {("P5", "K4"), ("K4", "P5")}


def test_pool_has_no_more_workers_than_tasks(monkeypatch):
    requested = []
    pool = multiprocessing.Pool

    def recorded(processes, *args, **kwargs):
        requested.append(processes)
        return pool(processes, *args, **kwargs)

    monkeypatch.setattr(bounds.multiprocessing, "Pool", recorded)
    # two tasks: the unary items of P3's class and the Cartesian pair {P3, P3}
    spec = SuiteSpec(graphs=(path(3), from_edges(3, [(0, 2), (2, 1)], "P3'")), products=(CARTESIAN,))
    assert len({key for key, _ in bounds._items(spec)}) == 2
    report = run_suite(spec, jobs=4)
    assert requested == [2]
    assert report_to_json(report) == report_to_json(run_suite(spec))


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


def test_exhaustive_report_bytes_are_pinned(monkeypatch):
    # the bytes of `verify --corpus exhaustive --max-n 4 --budget 2000000`,
    # and the nodes its serial covering searches spend, so that a kernel
    # change that gives nodes back shows here (880 from the default start,
    # before Env's solves went value-only; 1,884 with no child screen, 1,190
    # with two packing walks, 1,079 with four and no reduced-cost fixing)
    nodes = []
    search = solvers._cover_search

    def counted(*args, **kwargs):
        out = search(*args, **kwargs)
        nodes.append(out[2])
        return out

    monkeypatch.setattr(solvers, "_cover_search", counted)
    spec = SuiteSpec(graphs=tuple(exhaustive_corpus(4)), budget=2_000_000)
    digest = hashlib.sha256(report_to_json(run_suite(spec)).encode("ascii")).hexdigest()
    assert digest == "f896d45cc7f4c711514d7c4c1945319f67e44d3c7f7329e1a30898a509bd097a"
    assert (len(nodes), sum(nodes)) == (210, 441)


def test_products_sweep_search_nodes_are_pinned(monkeypatch):
    # the nodes the serial covering searches of the sweep-products
    # benchmark's sweep spend: the 448 default-corpus products of at most 48
    # vertices and their factors (2,776 from the default start, before Env's
    # solves went value-only)
    nodes = []
    search = solvers._cover_search

    def counted(*args, **kwargs):
        out = search(*args, **kwargs)
        nodes.append(out[2])
        return out

    monkeypatch.setattr(solvers, "_cover_search", counted)
    run_suite(SuiteSpec(default_corpus(), products=(CARTESIAN, STRONG), max_product=48))
    assert (len(nodes), sum(nodes)) == (296, 1899)


def test_env_solves_are_value_only_and_metered(monkeypatch):
    # Env reads only values, so every gamma and gamma_R solve passes
    # first=False, but for max_b2's "solver-witness" fallback, which reads a
    # witness (the enumeration guard is lowered to 4, so P5 reaches it). And
    # every covering search but the optimal-tie runs goes through the
    # bounds names that perfbench's node meter wraps, so a meter there sees
    # all of their nodes
    monkeypatch.setattr(solvers, "DEFAULT_ENUM_GUARD", 4)
    fallback = {c for c in Env.max_b2.__code__.co_consts if isinstance(c, types.CodeType)}
    calls, searched = [], []
    for name in ("domination_number", "roman_domination_number"):
        solve = getattr(bounds, name)

        def metered(g, *args, _solve=solve, **kwargs):
            res = _solve(g, *args, **kwargs)
            calls.append((kwargs, sys._getframe(1).f_code in fallback, res.node_count))
            return res

        monkeypatch.setattr(bounds, name, metered)
    search = solvers._cover_search

    def counted(*args, **kwargs):
        out = search(*args, **kwargs)
        if kwargs.get("optimum") is None:
            searched.append(out[2])
        return out

    monkeypatch.setattr(solvers, "_cover_search", counted)
    # K2+K1 makes component pairs, K1 x K2 among them
    graphs = (path(5), cycle(4), complete(2), from_edges(3, [(0, 1)], "K2+K1"))
    run_suite(SuiteSpec(graphs=graphs))
    assert any(fb for _, fb, _ in calls)
    assert all(kwargs == ({} if fb else {"first": False}) for kwargs, fb, _ in calls)
    assert sum(nodes for *_, nodes in calls) == sum(searched) > 0


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


def _streamed(spec, jobs=1) -> str:
    buf = io.StringIO()
    summary = write_report(buf, spec, sweep_items(spec, jobs))
    assert summary == json.loads(buf.getvalue())["summary"]
    return buf.getvalue()


def test_streamed_report_with_witnesses_is_indented_json_dumps(monkeypatch):
    _failing(monkeypatch, "T-lower-ii", CARTESIAN)
    _failing(monkeypatch, "C-coroloco", STRONG)
    spec = SuiteSpec(graphs=tuple(exhaustive_corpus(3)))
    report = run_suite(spec)
    assert any("witnesses" in r for r in report["records"])
    assert _streamed(spec) == _dumps(report)


@pytest.mark.parametrize(
    "spec",
    [
        SuiteSpec(graphs=(path(3),), theorems=("EQ-chino",), products=()),
        SuiteSpec(graphs=(path(3),), theorems=("EQ-chino",), max_product=2),
        SuiteSpec(graphs=()),
    ],
    ids=["no-products", "all-filtered", "no-graphs"],
)
def test_streamed_report_without_records_is_indented_json_dumps(spec):
    report = run_suite(spec)
    assert report["records"] == []
    assert _streamed(spec) == _dumps(report)


_NAMES = st.text(max_size=3) | st.sampled_from(['a"b\\c', "\u00e9", "\x00\x1f\n", "\u2603\U0001f600"])
_OPTIONAL_INTS = st.none() | st.integers(-2, 2) | st.integers(min_value=2**64, max_value=2**70)


@st.composite
def _rows(draw) -> BoundRecord:
    """A record without names: each column drawn from its BoundRecord type,
    from small domains, so that rows often differ in one column alone."""
    status = draw(st.sampled_from(["checked", "hypothesis-skipped", "budget-skipped"]))
    checked = status == "checked"
    return BoundRecord(
        theorem=draw(st.sampled_from(["L1", "EQ-chino"]) | st.text(max_size=2)),
        kind=draw(st.sampled_from(["unary", CARTESIAN, STRONG])),
        g="",
        h=None,
        status=status,
        hypotheses_met=draw(st.none() | st.booleans()),
        reason=draw(_NAMES),
        scale=draw(_OPTIONAL_INTS),
        lhs=draw(_OPTIONAL_INTS),
        rhs=draw(_OPTIONAL_INTS),
        relation=draw(st.none() | st.sampled_from(["<=", ">=", "=="])),
        holds=draw(st.booleans()) if checked else None,
        tight=draw(st.booleans()) if checked else None,
        note=draw(st.none() | _NAMES),
    )


_WITNESSES = st.dictionaries(
    st.text(max_size=3), st.none() | st.booleans() | st.integers() | _NAMES, max_size=3
)


@st.composite
def _item_streams(draw) -> list[tuple]:
    """Items as ``sweep_items`` yields them: a few rows tuples of one to four
    rows, each reused by several items under different names, and items of
    their own whose rows may carry witnesses."""
    rows_tuples = st.lists(_rows(), min_size=1, max_size=4).map(
        lambda recs: tuple(map(bounds._row, recs))
    )
    blocks = draw(st.lists(rows_tuples, min_size=1, max_size=4))
    items = []
    for _ in range(draw(st.integers(0, 12))):
        rows = draw(st.sampled_from(blocks))
        if draw(st.booleans()):
            rows = tuple(row[:-1] + (draw(st.none() | _WITNESSES),) for row in rows)
        items.append((draw(_NAMES), draw(st.none() | _NAMES), rows))
    return items


def _one_column_apart() -> list[tuple]:
    """A checked row, then for each column but g and h a row that differs
    from it in that column alone, each as an item under its own names, which
    JSON escapes; then all of them again as one item, whose names are
    escaped too, and that item reused."""
    base = BoundRecord("L1", "unary", "", None, "checked", True, "r", 6, 1, 2, "<=", True, False, "n")
    changed = {
        "theorem": "L2", "kind": STRONG, "status": "budget-skipped", "hypotheses_met": None,
        "reason": "s", "scale": 1, "lhs": 2, "rhs": 1, "relation": ">=", "holds": False,
        "tight": True, "note": None,
    }
    items = [("G", "H", (bounds._row(base),))]
    for i, (col, value) in enumerate(changed.items()):
        h = None if i % 2 else f"\u00e9{i}\x00"
        items.append((f'a"b\\c{i}', h, (bounds._row(base._replace(**{col: value})),)))
    rows = tuple(row for _, _, (row,) in items)
    return items + [('a"b\\c', "\u00e9\x00", rows), ("G", None, rows)]


def _escaped_witness_items() -> list[tuple]:
    """Items whose rows carry witnesses, beside a row without, under names
    that JSON escapes: each item's head is longer than its raw names."""
    base = BoundRecord("L1", "unary", "", None, "checked", True, "r", 1, 2, 1, "<=", False, False, None)
    plain = bounds._row(base)
    witnessed = bounds._row(base._replace(witnesses={"g": 'a"b', "prod_strong": "\u00e9"}))
    return [
        ('a"b\\c', "\u00e9\x00", (witnessed, plain)),
        ("\u2603", None, (plain, witnessed, witnessed)),
        ("G", "\n", (witnessed,)),
    ]


@given(_item_streams())
@example(_one_column_apart())
@example(_escaped_witness_items())
@settings(max_examples=300, deadline=None)
def test_streamed_writer_is_indented_json_dumps(items):
    records = [BoundRecord(*row[:2], g, h, *row[2:]) for g, h, rows in items for row in rows]
    summary = dict.fromkeys(("checked", "held", "tight", "hypothesis_skipped", "budget_skipped"), 0)
    for rec in records:
        if rec.status == "checked":
            summary["checked"] += 1
            summary["held"] += rec.holds
            summary["tight"] += rec.tight
        else:
            summary[rec.status.replace("-", "_")] += 1
    spec = SuiteSpec(graphs=(path(2),))
    report = {
        **bounds._header(spec), "records": [rec.to_dict() for rec in records], "summary": summary
    }
    buf = io.StringIO()
    assert write_report(buf, spec, iter(items)) == summary
    assert buf.getvalue() == _dumps(report)


def test_record_columns_hold_one_type_and_names_sort_first():
    # write_report keys a record's text after its g and h entries by its
    # other values: that holds while g and h sort first and no column mixes
    # bool and int (True == 1)
    assert sorted(bounds._CSV_COLUMNS)[:2] == ["g", "h"]
    types: dict = {}
    for budget in (None, 3):
        for rec in sweep_records(SuiteSpec(graphs=tuple(exhaustive_corpus(3)), budget=budget)):
            for col, value in rec._asdict().items():
                if value is not None:
                    types.setdefault(col, set()).add(type(value))
    assert {col: len(seen) for col, seen in types.items()} == dict.fromkeys(types, 1)
    assert types["holds"] == {bool} and types["lhs"] == {int}


def test_streamed_sweep_with_reuse_and_escaped_labels(monkeypatch):
    # three labelings each of P3 and C4: later ones reuse the first's records
    graphs = (
        from_edges(3, [(0, 1), (1, 2)]),
        from_edges(3, [(1, 0), (0, 2)]),
        from_edges(3, [(0, 2), (2, 1)], 'a"b\\c'),
        from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)], "\u00e9"),
        from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]),
    )
    spec = SuiteSpec(graphs=graphs)
    report = run_suite(spec)
    rows = {tuple(v for k, v in rec.items() if k not in ("g", "h")) for rec in report["records"]}
    assert len(rows) < len(report["records"])  # the writer's row texts are reused
    assert {'a"b\\c', "\u00e9"} <= {rec["g"] for rec in report["records"]}
    for jobs in (1, 2):
        assert _streamed(spec, jobs) == _dumps(report)
    # the writer drops its blocks when it keeps too many, and builds them again
    monkeypatch.setattr(bounds, "_KEPT_BLOCKS", 1)
    assert _streamed(spec) == _dumps(report)


def test_serial_sweep_yields_before_the_last_item(monkeypatch):
    evaluated = []
    run_item = bounds._run_item

    def counted(item, memo):
        evaluated.append(item)
        return run_item(item, memo)

    monkeypatch.setattr(bounds, "_run_item", counted)
    spec = SuiteSpec(graphs=tuple(exhaustive_corpus(3)), products=(CARTESIAN,))
    records = sweep_records(spec)
    first = next(records)
    assert first.kind == "unary" and len(evaluated) == 1
    rest = list(records)
    # 11 unary items and 121 ordered Cartesian pairs
    assert len(evaluated) == 11 + 11 * 11
    assert [rec.to_dict() for rec in (first, *rest)] == run_suite(spec)["records"]


def test_failing_item_names_itself(monkeypatch):
    def broken(g, budget=None, **kwargs):
        raise ZeroDivisionError("broken solver")

    monkeypatch.setattr(bounds, "roman_domination_number", broken)
    spec = SuiteSpec(graphs=(path(3), cycle(4)), theorems=("EQ-chino",), products=(CARTESIAN,))
    with pytest.raises(RomdomError) as info:
        run_suite(spec)
    assert str(info.value).startswith("cartesian item g=P3 h=P3: check EQ-chino raised")
    assert "ZeroDivisionError: broken solver" in str(info.value)
    assert isinstance(info.value.__cause__, ZeroDivisionError)
