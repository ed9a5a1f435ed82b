"""graph6 encoding against an independent bit-string reference decoder."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romdom import Graph6Error, complete, cycle, from_edges, parse_graph6, path, write_graph6

from bruteforce import ref_parse_graph6


def _random_graph_strategy(max_n: int):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return from_edges(n, picked)

    return build()


@given(_random_graph_strategy(12))
@settings(max_examples=200, deadline=None)
def test_round_trip(g):
    assert parse_graph6(write_graph6(g)) == g


@given(_random_graph_strategy(12))
@settings(max_examples=200, deadline=None)
def test_writer_agrees_with_reference_decoder(g):
    n, edges = ref_parse_graph6(write_graph6(g))
    assert n == g.n
    assert edges == set(g.edges())


def test_known_encodings():
    assert write_graph6(complete(1)) == "@"
    assert write_graph6(path(2)) == "A_"
    assert write_graph6(from_edges(2, [])) == "A?"
    assert write_graph6(complete(4)) == "C~"
    # C5 bits: column-major upper triangle 1,01,001,1001 -> 101001 100100
    assert write_graph6(cycle(5)) == "Dhc"


def test_parse_known_strings():
    assert parse_graph6("A_") == path(2)
    assert parse_graph6("Dhc") == cycle(5)
    assert parse_graph6("C~") == complete(4)


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<A_") == path(2)


def test_extended_header_round_trip():
    g = path(63)
    text = write_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g
    n, edges = ref_parse_graph6(text)
    assert n == 63 and edges == set(g.edges())


def test_empty_input_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_bad_character_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A ")
    assert exc.value.offset == 1


def test_truncated_body():
    with pytest.raises(Graph6Error):
        parse_graph6("D")  # n=5 needs ending bytes


def test_trailing_garbage_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("A__")


def test_nonzero_padding_rejected():
    # P2 body uses 1 of 6 bits; the other 5 must be zero
    good = write_graph6(path(2))
    bad = good[0] + chr(ord(good[1]) + 1)
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_noncanonical_extended_header_rejected():
    # n = 2 written in the 4-byte form is not canonical graph6
    with pytest.raises(Graph6Error):
        parse_graph6("~??B?")
