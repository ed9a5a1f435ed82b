"""Upper-bound constructions: validity, exact weight identities, spec'd modes.

The final test is informational: it scans enumerated optimal functions for
the zero-set-versus-two-set margin question on small connected graphs and
prints anything interesting instead of asserting, because the claim's scope
is an open question.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import romdom.constructions
from romdom import (
    CARTESIAN,
    RomanFunction,
    RomdomError,
    complete,
    components,
    cross_construction,
    cycle,
    enumerate_optimal_rdfs,
    from_edges,
    path,
    product,
    replicate_construction,
    roman_domination_number,
    spider,
    star,
    strong_case_construction,
    swap_construction,
    validate_rdf,
)

CORPUS = [path(2), path(3), path(4), path(5), cycle(3), cycle(4), cycle(5),
          complete(2), complete(3), star(2), star(3), spider(3, 1)]


@st.composite
def small_graphs(draw, max_n: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edges(n, picked)


# --- replicate ---------------------------------------------------------------


def test_replicate_p3_star():
    out = replicate_construction(path(3), star(3))
    assert out.claimed_bound == 6
    assert out.rdf.weight <= 6
    assert validate_rdf(out.product, out.rdf)


def test_replicate_degenerates_on_k1():
    h = cycle(5)
    out = replicate_construction(complete(1), h)
    assert out.rdf.weight == roman_domination_number(h).value
    assert validate_rdf(out.product, out.rdf)


def test_replicate_p4_p4_has_slack():
    out = replicate_construction(path(4), path(4))
    assert out.claimed_bound == 12
    assert out.rdf.weight == 12
    exact = roman_domination_number(out.product).value
    assert exact == 8
    assert exact <= out.rdf.weight


def test_replicate_orientation_choice_is_the_lighter_one():
    out = replicate_construction(path(5), complete(2))
    # row-replication costs n2*gammar(g)=2*4, column-replication n1*gammar(h)=5*2
    assert out.rdf.weight == 8
    assert out.selection_mode.endswith("replicated")


# --- swap --------------------------------------------------------------------


def test_swap_p3_p4_weight_identity():
    out = swap_construction(path(3), path(4))
    assert out.rdf.weight == 3 * 3 - 1 * (2 - 1)
    assert out.claimed_bound == (3 + 1) * 3 - 2 * 2
    assert validate_rdf(out.product, out.rdf)


def test_swap_small_component_falls_back_to_raw_weight():
    out = swap_construction(complete(2), path(4))
    assert max(c.bit_count() for c in components(complete(2))) == 2
    assert out.claimed_bound == out.rdf.weight


def test_swap_c3_p4_matches_roman_factor_bound():
    out = swap_construction(cycle(3), path(4))
    bound_ii = 2 * 3 * (3 - 2) + 2 * 1 * (2 * 2 - 3)
    assert bound_ii == 8
    assert out.rdf.weight <= bound_ii
    assert validate_rdf(out.product, out.rdf)


# --- cross -------------------------------------------------------------------


def test_cross_p4_p5():
    out = cross_construction(path(4), path(5))
    assert out.rdf.weight == 14
    assert out.claimed_bound == 14
    assert validate_rdf(out.product, out.rdf)


def test_cross_complete_pairs():
    for n in (2, 3, 4):
        out = cross_construction(complete(n), complete(n))
        assert out.rdf.weight == 2 + (n - 1) ** 2


def test_cross_beats_replicate_on_p4_p5():
    cross = cross_construction(path(4), path(5)).rdf.weight
    repl = replicate_construction(path(4), path(5)).claimed_bound
    assert (cross, repl) == (14, 15)


# --- strong case table -------------------------------------------------------


def test_strong_case_universal_vertex_pair():
    out = strong_case_construction(complete(3), complete(3))
    assert out.rdf.weight == 2
    assert validate_rdf(out.product, out.rdf)


def test_strong_case_c6_star():
    out = strong_case_construction(cycle(6), star(3))
    assert out.rdf.weight == 4 * 2 - 2 * 2 * 1
    assert roman_domination_number(out.product).value == 4
    assert validate_rdf(out.product, out.rdf)


def test_strong_case_k1_degenerates():
    h = path(5)
    out = strong_case_construction(complete(1), h)
    assert out.rdf.weight == roman_domination_number(h).value


@given(small_graphs(), small_graphs())
@settings(max_examples=60, deadline=None)
def test_strong_case_minus_two_whenever_both_have_edges(g, h):
    out = strong_case_construction(g, h)
    if g.edge_count() and h.edge_count():
        limit = roman_domination_number(g).value * roman_domination_number(h).value - 2
        assert out.rdf.weight <= limit


# --- shared properties -------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [replicate_construction, swap_construction, cross_construction, strong_case_construction],
    ids=["replicate", "swap", "cross", "strong-case"],
)
def test_every_construction_is_valid_and_above_exact(build):
    for g, h in itertools.product(CORPUS, repeat=2):
        out = build(g, h)
        assert validate_rdf(out.product, out.rdf), (g.name(), h.name())
        assert out.rdf.weight <= out.claimed_bound
        exact = roman_domination_number(out.product).value
        assert exact <= out.rdf.weight


def test_outcome_reports_selection_mode():
    out = swap_construction(path(3), path(4))
    assert "enumerated" in out.selection_mode


def test_weight_mismatch_names_the_recipe(monkeypatch):
    # a labeling that disagrees with the closed form must fail loudly
    monkeypatch.setattr(romdom.constructions, "case_table_labels",
                        lambda n1, n2, f1, f2: RomanFunction((1,) * (n1 * n2)))
    with pytest.raises(RomdomError, match="strong_case_construction"):
        strong_case_construction(path(3), cycle(4))


def test_package_has_no_assert_statements():
    # python -O strips asserts, so none may carry runtime behaviour
    src = Path(romdom.constructions.__file__).parent
    for module in sorted(src.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), module.name


# --- open-question scan (informational) ---------------------------------------


def test_report_zero_margin_over_corpus(capsys):
    findings = []
    for g in CORPUS:
        if max(c.bit_count() for c in components(g)) <= 2:
            continue
        for f in enumerate_optimal_rdfs(g):
            if f.b0.bit_count() < f.b2.bit_count() + 1:
                findings.append((g.name(), f.labels))
    print(f"zero-margin counterexamples: {findings or 'none'}")
    # no assertion: the margin claim's scope is an open question
