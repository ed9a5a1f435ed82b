"""Named graph families, plus a seeded random family.

Vertex numbering is fixed per family so that solver witnesses are comparable
across runs and implementations:

* ``path(n)``: 0-1-2-...-(n-1).
* ``cycle(n)``: path plus the edge (n-1, 0).
* ``complete(n)``: every pair adjacent.
* ``star(r)``: center 0, leaves 1..r.
* ``spider(r, subdivided)``: star(r) in which every spoke s named by the
  ``subdivided`` bit mask is split by a fresh vertex. Subdivision vertices are
  appended after the leaves, in ascending spoke order, so spoke s runs either
  0-(1+s) or 0-w-(1+s).
* ``hypercube(d)``: vertex u adjacent to v iff u xor v is a power of two.
* ``random(n, num, den, seed)``: each pair (i, j), scanned in row-major order
  (0,1), (0,2), ..., (n-2, n-1), consumes one splitmix64 draw x and is an edge
  iff x * den < num * 2**64. Probabilities are exact rationals; no floating
  point is involved, so any implementation of splitmix64 reproduces the graph.

The splitmix64 sequence from a 64-bit seed is, with all arithmetic mod 2**64:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output  z ^ (z >> 31)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import ParameterError
from .graphs import Graph, from_edges

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """Yield the splitmix64 stream for ``seed`` (taken mod 2**64)."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path needs n >= 1")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)], f"P{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return from_edges(n, edges, f"C{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return from_edges(n, edges, f"K{n}")


def star(r: int) -> Graph:
    if r < 1:
        raise ParameterError("star needs r >= 1 leaves")
    return from_edges(r + 1, [(0, i) for i in range(1, r + 1)], f"K1,{r}")


def spider(r: int, subdivided: int) -> Graph:
    if r < 1:
        raise ParameterError("spider needs r >= 1 spokes")
    if subdivided < 0 or subdivided >> r:
        raise ParameterError(f"subdivision mask {subdivided:#b} names a spoke outside 0..{r - 1}")
    edges = []
    w = r + 1
    for s in range(r):
        leaf = 1 + s
        if subdivided >> s & 1:
            edges.append((0, w))
            edges.append((w, leaf))
            w += 1
        else:
            edges.append((0, leaf))
    return from_edges(w, edges, f"spider({r};{subdivided})")


def hypercube(d: int) -> Graph:
    if d < 1:
        raise ParameterError("hypercube needs dimension >= 1")
    n = 1 << d
    adj = []
    for u in range(n):
        m = 0
        for b in range(d):
            m |= 1 << (u ^ (1 << b))
        adj.append(m)
    return Graph(n, tuple(adj), f"Q{d}")


def random_graph(n: int, num: int, den: int, seed: int) -> Graph:
    if n < 1:
        raise ParameterError("random graph needs n >= 1")
    if den < 1 or num < 0 or num > den:
        raise ParameterError(f"edge probability {num}/{den} is not in [0, 1]")
    stream = splitmix64(seed)
    threshold_scale = num << 64
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if next(stream) * den < threshold_scale:
                edges.append((i, j))
    return from_edges(n, edges, f"R({n},{num}/{den},s{seed})")


_BUILDERS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "spider": spider,
    "hypercube": hypercube,
    "random": random_graph,
}

FAMILY_KINDS = tuple(_BUILDERS)


@dataclass(frozen=True)
class FamilySpec:
    """Parsed family descriptor; ``params`` meaning depends on ``kind``."""

    kind: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        return ":".join([self.kind, *map(str, self.params)])


def parse_family(text: str) -> FamilySpec:
    """Parse the ``kind:params`` mini-grammar.

    Examples: ``path:4``, ``star:3``, ``spider:3:1``, ``hypercube:3``,
    ``random:6:0.5:42``. The random probability may be a decimal or a
    fraction like ``1/2``; it is kept exact either way.
    """
    parts = text.split(":")
    kind = parts[0]
    args = parts[1:]
    if kind not in FAMILY_KINDS:
        raise ParameterError(f"unknown family kind {kind!r}")
    try:
        if kind == "random":
            if len(args) != 3:
                raise ParameterError("random takes n:probability:seed")
            n = int(args[0])
            p = Fraction(args[1])
            seed = int(args[2])
            return FamilySpec("random", (n, p.numerator, p.denominator, seed))
        if kind == "spider":
            if len(args) != 2:
                raise ParameterError("spider takes r:subdivision-mask")
            return FamilySpec("spider", (int(args[0]), int(args[1])))
        if len(args) != 1:
            raise ParameterError(f"{kind} takes exactly one parameter")
        return FamilySpec(kind, (int(args[0]),))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad family spec {text!r}: {exc}") from None


def make_family(spec: FamilySpec) -> Graph:
    builder = _BUILDERS.get(spec.kind)
    if builder is None:
        raise ParameterError(f"unknown family kind {spec.kind!r}")
    return builder(*spec.params)
