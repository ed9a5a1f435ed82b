#!/usr/bin/env python3
"""Benchmark romdom's exact kernels and bound sweeps through its command line.

    python3 perfbench/run.py --workload kernel-hard --seed 1 --seconds 28 --trace 0

Workloads: kernel-hard, sweep-products, sweep-exhaustive (see README.md).
The package is imported from the ``src/`` directory next to this one; without
it the benchmark exits 2. Scratch files (graph6 inputs, reports) live in
``.perfbench_work/`` at the checkout root and are removed on exit.

A run:

1. times ``SETUP_RUNS`` cold set-ups, each in a fresh interpreter;
2. repeats untraced passes of the workload until ``--seconds`` have passed
   (at least one), with the node meter on;
3. runs one more untraced pass with the other ``--jobs`` value, to check
   that the report bytes do not depend on it: sweep-products always (its
   ``--jobs 1`` pass also gives ``search_nodes``), sweep-exhaustive only
   with ``--trace 1``;
4. with ``--trace 1``, runs one traced pass with ``--jobs 1``.

Every pass's output is checked. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from probe import SOLVERS, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Cold set-ups per run; the median is reported. One more runs first to
# compile bytecode, and is not counted.
SETUP_RUNS = 11

# The solvers whose results carry InvariantResult.node_count.
NODE_SOLVERS = SOLVERS[:3]
# The solvers the registry ever calls on a product graph.
PRODUCT_SOLVERS = SOLVERS[:2]


@dataclass
class Pass:
    jobs: int
    wall: float
    cpu: float
    # Meter nodes; worker processes keep theirs, so only jobs == 1 counts.
    nodes: int
    run_suite_s: Optional[float]
    outcome: object


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def run_pass(cli, wl, inputs: dict, jobs: int, probe) -> Pass:
    out, err = io.StringIO(), io.StringIO()
    nodes0, suites0 = probe.nodes, len(probe.run_suite_s)
    codes = []
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        for argv in wl.calls(inputs, jobs):
            span = probe.open("cli.main") if probe.trace else None
            codes.append(cli.main(argv))
            if span is not None:
                probe.shut(span)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    suites = probe.run_suite_s[suites0:]
    outcome = wl.check(inputs, codes, out.getvalue(), err.getvalue())
    return Pass(jobs, wall, cpu, probe.nodes - nodes0, suites[0] if suites else None, outcome)


def setup_seconds(wl, seed: int, work: Path) -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed), str(work / "setup")]
    times = []
    for _ in range(SETUP_RUNS + 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout))
    return statistics.median(times[1:])


def measure(args, romdom, workloads) -> dict:
    import romdom.cli as cli

    wl = workloads.WORKLOADS[args.workload]
    work = args.work
    setup_s = setup_seconds(wl, args.seed, work)
    inputs = wl.setup(args.seed, work / "inputs")

    with Probe(romdom, trace=False) as meter:
        timed: list[Pass] = []
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < args.seconds:
            timed.append(run_pass(cli, wl, inputs, wl.jobs, meter))
        peak = peak_rss_mb()
        # A --jobs 1 comparison pass also yields search_nodes, so it runs every
        # time; a --jobs 2 one only checks bytes and costs a whole sweep, so
        # only traced runs make it.
        checks = []
        if wl.check_jobs == 1 or (wl.check_jobs and args.trace):
            checks.append(run_pass(cli, wl, inputs, wl.check_jobs, meter))

    tracer = traced = None
    if args.trace:
        tracer = Probe(romdom, trace=True, product_g6=inputs.get("product_g6", ()))
        with tracer:
            if not wl.corpus_in_pass:
                span = tracer.open("families.corpus")
                wl.corpus(args.seed)
                tracer.shut(span)
            traced = run_pass(cli, wl, inputs, 1, tracer)

    passes = timed + checks + ([traced] if traced else [])
    errors = [e for p in passes for e in p.outcome.errors]
    if len({p.outcome.fingerprint for p in passes}) != 1:
        errors.append("output bytes differ between passes or between --jobs values")
    serial = [p for p in passes if p.jobs == 1]
    if len({p.nodes for p in serial}) != 1:
        errors.append(f"search nodes differ between passes: {sorted({p.nodes for p in serial})}")
    if hasattr(wl, "check_report"):
        report = wl.check_report(inputs)
        errors += report.errors
        attempted, failed = report.attempted * len(passes), report.failed * len(passes)
    else:
        attempted = sum(p.outcome.attempted for p in passes)
        failed = sum(p.outcome.failed for p in passes)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        kernel = [(name, inv) for name, _, _, invs in workloads.KernelHard.PRODUCTS for inv in invs]
        metrics = layer_metrics(tracer, traced, timed, checks, kernel)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p.wall for p in timed), "s"),
            "cpu_s": (statistics.median(p.cpu for p in timed), "s"),
            "peak_rss_mb": (peak, "MB"),
            "search_nodes": (serial[0].nodes, "count"),
            "solved_share": (1 - failed / attempted if attempted else 0.0, "share"),
        }
    return {
        "correct": not errors and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _under(spans, i: int, label: str) -> bool:
    """Whether span i has an ancestor with this label."""
    j = spans[i].parent
    while j >= 0:
        if spans[j].label == label:
            return True
        j = spans[j].parent
    return False


def layer_metrics(tracer, traced: Pass, timed: list, checks: list, kernel: list) -> dict:
    """Per-layer metrics of the traced pass; ``kernel`` lists kernel-hard's
    (product instance, invariant) pairs, reported on every workload."""
    spans = tracer.spans

    def total(label: str) -> float:
        return sum(s.seconds for s in spans if s.label == label)

    m: dict = {}
    for fn in SOLVERS:
        for kind in ("factor", "product") if fn in PRODUCT_SOLVERS else ("factor",):
            mine = [
                s for s in spans
                if s.label == "solvers." + fn and s.product == (kind == "product")
            ]
            key = f"solvers.{fn}.{kind}"
            m[key + ".calls"] = (len(mine), "count")
            m[key + ".s"] = (sum(s.seconds for s in mine), "s")
            if fn in NODE_SOLVERS:
                m[key + ".nodes"] = (sum(s.nodes for s in mine), "count")
    searched = [s for s in spans if s.label in {"solvers." + fn for fn in NODE_SOLVERS}]
    search_s = sum(s.seconds for s in searched)
    m["solvers.nodes_per_s"] = (sum(s.nodes for s in searched) / search_s if search_s else 0.0, "nodes/s")
    m["solvers.budget_exceeded.calls"] = (tracer.budget_calls, "count")
    m["solvers.budget_exceeded.nodes"] = (tracer.budget_nodes, "count")

    m["families.corpus_s"] = (total("families.corpus"), "s")
    m["graphs.product.calls"] = (sum(s.label == "graphs.product" for s in spans), "count")
    m["graphs.product.s"] = (total("graphs.product"), "s")

    nodes = traced.outcome.nodes
    for name, inv in kernel:
        m[f"kernel.{name}.{inv}.nodes"] = (nodes.get(f"{name}.{inv}", 0), "count")
    for inv in ("gamma", "gamma-r"):
        m[f"kernel.random.{inv}.nodes"] = (
            sum(v for k, v in nodes.items() if k.startswith("R") and k.endswith("." + inv)),
            "count",
        )

    inside = sum(
        s.seconds
        for i, s in enumerate(spans)
        if (s.label.startswith("solvers.") or s.label == "graphs.product")
        and _under(spans, i, "bounds.run_suite")
    )
    m["bounds.self_s"] = (total("bounds.run_suite") - inside, "s")
    factor = [s for s in spans if s.label.startswith("solvers.") and not s.product]
    distinct = {(s.label, s.graph.n, s.graph.adj) for s in factor}
    m["bounds.factor_useful_share"] = (len(distinct) / len(factor) if factor else 0.0, "share")
    items = [1000 * s.seconds for s in spans if s.label == "bounds.item"]
    m["bounds.item_ms.p50"] = (statistics.median(items) if items else 0.0, "ms")
    m["bounds.item_ms.max"] = (max(items, default=0.0), "ms")
    m["bounds.pool.efficiency"] = (pool_efficiency(timed + checks), "share")
    m["bounds.report_to_json.s"] = (total("bounds.report_to_json"), "s")
    m["bounds.report_to_json.bytes"] = (
        sum(s.size for s in spans if s.label == "bounds.report_to_json"), "bytes")

    m["graph6.parse_graph6.s"] = (total("graph6.parse_graph6"), "s")
    cli_self = 0.0
    for i, s in enumerate(spans):
        if s.label == "cli.main":
            cli_self += s.seconds - sum(c.seconds for c in spans if c.parent == i)
    m["cli.self_s"] = (cli_self, "s")
    untraced = statistics.median(p.wall for p in timed + checks if p.jobs == 1)
    m["trace.overhead_s"] = (traced.wall - untraced, "s")
    return m


def pool_efficiency(passes: list) -> float:
    """Serial run_suite time over (jobs x parallel run_suite time)."""
    serial = [p.run_suite_s for p in passes if p.jobs == 1 and p.run_suite_s]
    parallel = [(p.jobs, p.run_suite_s) for p in passes if p.jobs > 1 and p.run_suite_s]
    if not serial or not parallel:
        return 0.0
    jobs = parallel[0][0]
    return statistics.median(serial) / (jobs * statistics.median(t for _, t in parallel))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument(
        "--workload", required=True, choices=["kernel-hard", "sweep-products", "sweep-exhaustive"]
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "romdom" / "__init__.py").is_file():
        print(f"error: no romdom sources at {SRC / 'romdom'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import romdom

    if Path(romdom.__file__).resolve().parent != SRC / "romdom":
        print(f"error: imported romdom from {romdom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    args.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, romdom, workloads)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        try:
            args.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
