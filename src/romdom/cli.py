"""Command-line front end.

One subcommand per invocation:

    solve          invariants of a single graph
    product        build a product graph, emit graph6
    construct      run an upper-bound construction, emit the labeling
    verify         run a bound-checking suite, emit/write a JSON report
    families       emit graph6 lines for a parameter range of one family
    premise-check  probe the path/cycle 2-set premise

stdout carries only machine-readable payload (JSON, JSONL, or graph6
lines); everything else goes to stderr. Exit codes: 0 success, 1 a checked
bound failed to hold, 2 usage, parse, capacity, or budget errors.

Graph sources: ``--g6 <text>`` (one graph6 string), ``--file <path>``
(graph6 lines, one result line each), ``--family <spec>`` with the
mini-grammar ``kind:params``, e.g. ``path:4``, ``cycle:5``, ``star:3``,
``spider:3:1``, ``hypercube:3``, ``random:6:1/2:42``. Where a flag takes a
single graph (``--a``/``--b``), pass a family spec or ``g6:<text>``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from contextlib import ExitStack, closing, contextmanager, suppress
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Optional

from .bounds import (
    THEOREM_ORDER,
    SuiteSpec,
    _records,
    _tail,
    check_pncn_premise,
    csv_writer,
    default_corpus,
    exhaustive_corpus,
    random_corpus,
    # not called here: perfbench/probe.py wraps these names in this module
    report_to_json,  # noqa: F401
    resolve_theorem_ids,
    run_suite,  # noqa: F401
    suite_ok,
    sweep_items,
    write_report,
)
from .config import DEFAULT_SUITE_BUDGET
from .constructions import (
    cross_construction,
    replicate_construction,
    strong_case_construction,
    swap_construction,
)
from .errors import ParameterError, RomdomError
from .families import make_family, parse_family
from .graph6 import parse_graph6, write_graph6
from .graphs import CARTESIAN, PRODUCT_KINDS, STRONG, Graph, bits, product
from .solvers import (
    _optimal_rdfs,
    domination_number,
    efficient_dominating_sets,
    # not called here: perfbench/probe.py wraps this name in this module
    enumerate_optimal_rdfs,  # noqa: F401
    is_roman_values,
    roman_domination_number,
    two_packing_number,
)

_CONSTRUCTIONS = {
    "superior": replicate_construction,
    "eldek": swap_construction,
    "flojito": cross_construction,
    "strong": strong_case_construction,
}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _graph_arg(text: str) -> Graph:
    if text.startswith("g6:"):
        return parse_graph6(text[3:])
    return make_family(parse_family(text))


def _solve_sources(args) -> list[Graph]:
    given = [s for s in ("g6", "file", "family") if getattr(args, s.replace("-", "_")) is not None]
    if len(given) != 1:
        raise ParameterError("give exactly one of --g6, --file, --family")
    if args.g6 is not None:
        return [parse_graph6(args.g6)]
    if args.family is not None:
        return [make_family(parse_family(args.family))]
    graphs = []
    try:
        with open(args.file, encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    graphs.append(parse_graph6(line))
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{args.file}: byte {exc.object[exc.start]:#04x} is not ASCII") from None
    if not graphs:
        raise ParameterError(f"no graph6 lines in {args.file}")
    return graphs


def _solve_one(g: Graph, invariant: str, budget: Optional[int]) -> dict:
    value: object
    witness: object
    node_count: Optional[int]
    if invariant == "gamma":
        res = domination_number(g, budget)
        value, witness, node_count = res.value, sorted(bits(res.witness)), res.node_count
    elif invariant == "gamma-r":
        res = roman_domination_number(g, budget)
        value, witness, node_count = res.value, list(res.witness.labels), res.node_count
    elif invariant == "p2":
        res = two_packing_number(g, budget)
        value, witness, node_count = res.value, sorted(bits(res.witness)), res.node_count
    elif invariant == "codes":
        codes = efficient_dominating_sets(g, budget)
        value, witness, node_count = len(codes), [sorted(bits(c)) for c in codes], None
    elif invariant == "roman":
        # no witness printed: both solves value-only
        gamma = domination_number(g, budget, first=False)
        gamma_r = roman_domination_number(g, budget, first=False)
        value, witness = is_roman_values(gamma.value, gamma_r.value), None
        node_count = gamma.node_count + gamma_r.node_count
    else:  # enumerate-rdfs
        optima, node_count = _optimal_rdfs(g, budget)
        value, witness = len(optima), [list(f.labels) for f in optima]
    return {
        "graph": g.name(),
        "invariant": invariant,
        "value": value,
        "witness": witness,
        "node_count": node_count,
    }


def _cmd_solve(args) -> int:
    for g in _solve_sources(args):
        _emit(_solve_one(g, args.invariant, args.budget))
    return 0


def _cmd_product(args) -> int:
    prod = product(_graph_arg(args.a), _graph_arg(args.b), args.kind)
    sys.stdout.write(write_graph6(prod) + "\n")
    return 0


def _cmd_construct(args) -> int:
    fn = _CONSTRUCTIONS[args.theorem]
    outcome = fn(_graph_arg(args.a), _graph_arg(args.b), budget=args.budget)
    _emit(
        {
            "labels": list(outcome.rdf.labels),
            "weight": outcome.rdf.weight,
            "claimed_bound": outcome.claimed_bound,
            "selection_mode": outcome.selection_mode,
        }
    )
    return 0


# each corpus's own options and their defaults; the options of a corpus not
# chosen are a usage error, not silently ignored
_CORPUS_OPTIONS = {
    "families": {"family": None},
    "exhaustive": {"max_n": 4},
    "random": {"count": 20, "n_min": 4, "n_max": 6, "seed": 0},
}


def _verify_corpus(args) -> list[Graph]:
    for corpus, options in _CORPUS_OPTIONS.items():
        for dest, default in options.items():
            if corpus == args.corpus:
                if getattr(args, dest) is None:
                    setattr(args, dest, default)
            elif getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                raise ParameterError(f"{flag} needs --corpus {corpus}, not --corpus {args.corpus}")
    if args.corpus == "exhaustive":
        return exhaustive_corpus(args.max_n)
    if args.corpus == "random":
        return random_corpus(args.count, args.n_min, args.n_max, args.seed)
    if args.family:
        return [make_family(parse_family(spec)) for spec in args.family]
    return default_corpus()


@contextmanager
def _replacing(path: str):
    """A new file that takes ``path``'s place when the block succeeds and is
    removed when it fails, so ``path`` never holds a partial output.

    Only a regular file, or a path that does not exist yet, is replaced. A
    device, a pipe or a symlink (``/dev/null``, ``/dev/stdout``) is written
    in place: replacing it would put a regular file where it was."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="ascii")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _also_written(items, csv_fh, log_fh, ts: str):
    """``items`` (``sweep_items``), each item's records written as CSV rows
    and log lines as it passes; the text around a row's names is kept per
    row (``bounds.csv_writer``, ``bounds._tail``)."""
    write_item = csv_writer(csv_fh) if csv_fh is not None else None
    tails: dict = {}  # a row -> its log line after the "h" entry

    def line(rec) -> str:
        return json.dumps({"ts": ts, "record": rec.to_dict()}, sort_keys=True) + "\n"

    for g, h, rows in items:
        if write_item is not None:
            write_item(g, h, rows)
        if log_fh is not None:
            records = _records(g, h, rows)
            hname = "null" if h is None else encode_basestring_ascii(h)
            head = f'{{"record": {{"g": {encode_basestring_ascii(g)}, "h": {hname}'
            log_fh.write(head + head.join(_tail(tails, rec, len(head), line) for rec in records))
        yield g, h, rows


def _cmd_verify(args) -> int:
    theorems = (
        tuple(resolve_theorem_ids(args.theorems.split(",")))
        if args.theorems
        else THEOREM_ORDER
    )
    requested = args.products.split(",")
    for kind in requested:
        if kind not in PRODUCT_KINDS:
            raise ParameterError(f"unknown product kind {kind!r}")
    # like the theorems: each kind once, in PRODUCT_KINDS order
    products = tuple(kind for kind in PRODUCT_KINDS if kind in requested)
    spec = SuiteSpec(
        graphs=tuple(_verify_corpus(args)),
        theorems=theorems,
        products=products,
        budget=args.budget,
        max_product=args.max_product,
    )
    with ExitStack() as stack:
        # every output is opened before the sweep, so a bad path fails at once;
        # the report and the CSV appear only once the sweep has finished
        report_fh = stack.enter_context(_replacing(args.report)) if args.report else sys.stdout
        csv_fh = stack.enter_context(_replacing(args.csv)) if args.csv else None
        log_fh = stack.enter_context(open(args.log, "a", encoding="ascii")) if args.log else None
        # the items are written as they are evaluated; the log's one
        # timestamp is the start of the sweep
        ts = datetime.now(timezone.utc).isoformat()
        items = stack.enter_context(closing(sweep_items(spec, jobs=args.jobs)))
        if csv_fh is not None or log_fh is not None:
            # records are built only for these outputs
            items = _also_written(items, csv_fh, log_fh, ts)
        summary = write_report(report_fh, spec, items)
    sys.stderr.write(
        "checked={checked} held={held} tight={tight} "
        "hypothesis_skipped={hypothesis_skipped} budget_skipped={budget_skipped}\n".format(
            **summary
        )
    )
    return 0 if suite_ok({"summary": summary}) else 1


def _cmd_families(args) -> int:
    if args.end is not None and args.end < args.start:
        raise ParameterError("--end must be >= --start")
    end = args.end if args.end is not None else args.start
    for param in range(args.start, end + 1):
        g = make_family(parse_family(f"{args.kind}:{param}"))
        sys.stdout.write(write_graph6(g) + "\n")
    return 0


def _cmd_premise_check(args) -> int:
    report = check_pncn_premise(args.n, args.kind)
    _emit(report.to_dict())
    return 0 if report.inequality_holds else 1


def _budget(text: str) -> Optional[int]:
    """Parse ``--budget``: a node cap per solver call, 0 meaning unlimited (None)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a node count >= 0, got {text!r}")
    return int(text) or None


def _jobs(text: str) -> int:
    """Parse ``--jobs``: a worker count >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a worker count >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romdom",
        description="Exact Roman domination invariants and bound checking "
        "on Cartesian and strong graph products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument(
            "--budget",
            type=_budget,
            default=DEFAULT_SUITE_BUDGET,
            help=f"solver node cap per call; 0 = unlimited (default {DEFAULT_SUITE_BUDGET})",
        )

    p_solve = sub.add_parser("solve", help="compute one invariant of one or more graphs")
    p_solve.add_argument("--g6", help="graph6 string")
    p_solve.add_argument("--file", help="path to a file of graph6 lines (JSONL output)")
    p_solve.add_argument("--family", help="family spec, e.g. path:4 or random:6:1/2:42")
    p_solve.add_argument(
        "--invariant",
        required=True,
        choices=["gamma", "gamma-r", "p2", "codes", "roman", "enumerate-rdfs"],
    )
    add_budget(p_solve)
    p_solve.set_defaults(fn=_cmd_solve)

    p_prod = sub.add_parser("product", help="emit a product graph as graph6")
    p_prod.add_argument("--a", required=True, help="family spec or g6:<text>")
    p_prod.add_argument("--b", required=True, help="family spec or g6:<text>")
    p_prod.add_argument("--kind", required=True, choices=[CARTESIAN, STRONG])
    p_prod.set_defaults(fn=_cmd_product)

    p_con = sub.add_parser("construct", help="run an upper-bound construction")
    p_con.add_argument("--theorem", required=True, choices=sorted(_CONSTRUCTIONS))
    p_con.add_argument("--a", required=True, help="family spec or g6:<text>")
    p_con.add_argument("--b", required=True, help="family spec or g6:<text>")
    add_budget(p_con)
    p_con.set_defaults(fn=_cmd_construct)

    p_ver = sub.add_parser("verify", help="run a bound-checking suite")
    p_ver.add_argument(
        "--corpus", choices=["families", "exhaustive", "random"], default="families"
    )
    p_ver.add_argument(
        "--family",
        action="append",
        help="with --corpus families: replace the default corpus (repeatable)",
    )
    exh, rnd = _CORPUS_OPTIONS["exhaustive"], _CORPUS_OPTIONS["random"]
    p_ver.add_argument("--max-n", type=int, help=f"exhaustive corpus order cap ({exh['max_n']})")
    p_ver.add_argument("--count", type=int, help=f"random corpus size ({rnd['count']})")
    p_ver.add_argument("--n-min", type=int, help=f"random corpus smallest order ({rnd['n_min']})")
    p_ver.add_argument("--n-max", type=int, help=f"random corpus largest order ({rnd['n_max']})")
    p_ver.add_argument("--seed", type=int, help=f"random corpus first seed ({rnd['seed']})")
    p_ver.add_argument("--theorems", help="comma-separated ids or unambiguous prefixes")
    p_ver.add_argument(
        "--products",
        default=f"{CARTESIAN},{STRONG}",
        help="comma-separated product kinds to sweep",
    )
    p_ver.add_argument("--max-product", type=int, help="skip pairs whose product exceeds this order")
    add_budget(p_ver)
    p_ver.add_argument("--jobs", type=_jobs, default=1, help="parallel workers; output is identical")
    p_ver.add_argument("--report", help="write the JSON report here instead of stdout")
    p_ver.add_argument("--csv", help="also write a CSV projection here")
    p_ver.add_argument("--log", help="append timestamped JSONL record lines here")
    p_ver.set_defaults(fn=_cmd_verify)

    p_fam = sub.add_parser("families", help="emit graph6 lines for a family parameter range")
    p_fam.add_argument(
        "--kind", required=True, choices=["path", "cycle", "complete", "star", "hypercube"]
    )
    p_fam.add_argument("--start", type=int, required=True)
    p_fam.add_argument("--end", type=int)
    p_fam.set_defaults(fn=_cmd_families)

    p_pre = sub.add_parser("premise-check", help="probe the path/cycle 2-set premise")
    p_pre.add_argument("--n", type=int, required=True)
    p_pre.add_argument("--kind", required=True, choices=["path", "cycle"])
    p_pre.set_defaults(fn=_cmd_premise_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its codes.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (RomdomError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
