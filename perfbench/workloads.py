"""The three workloads: their inputs, their command lines, their output checks.

Every pass goes through ``romdom.cli.main`` with ``--budget 2000000``, so a
regression that blows up a search fails the pass instead of hanging it.
Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import romdom

BUDGET = "2000000"
DEFAULT_SEED = 1
HELD_OUT_SEED = 17

PINNED = Path(__file__).resolve().parent / "expected.json"

# The record fields the seed report carries; the digest covers only these, so
# a record that gains new fields (node counts, say) still matches.
SEED_FIELDS = (
    "theorem",
    "kind",
    "g",
    "h",
    "status",
    "hypotheses_met",
    "reason",
    "scale",
    "lhs",
    "rhs",
    "relation",
    "holds",
    "tight",
    "note",
)


@dataclass
class Outcome:
    """What one pass produced, as far as the checks are concerned.

    ``fingerprint`` hashes the pass's full output; it must be the same for
    every pass of a run and for every ``--jobs`` value.
    """

    attempted: int = 0
    failed: int = 0
    fingerprint: str = ""
    nodes: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


@dataclass
class Instance:
    name: str
    graph: object
    invariants: tuple
    product: bool


def _family(spec: str):
    return romdom.make_family(romdom.parse_family(spec))


def _gnm(n: int, m: int, seed: int, i: int):
    """Seeded G(n, m) graph; a fixed edge count keeps its search size steadier
    across seeds than G(n, p) does."""
    rng = random.Random(f"kernel-hard:{seed}:{i}")
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return romdom.from_edges(n, rng.sample(pairs, m), f"R{i}")


class KernelHard:
    """Single exact solves: ``romdom solve --file <g6> --invariant gamma|gamma-r``."""

    name = "kernel-hard"
    # No pool: every pass runs in this process.
    jobs = 1
    check_jobs = None
    corpus_in_pass = False

    PRODUCTS = (
        ("K4xC11", "complete:4", "cycle:11", ("gamma",)),
        ("C6xC7", "cycle:6", "cycle:7", ("gamma", "gamma-r")),
        ("Q3xC5", "hypercube:3", "cycle:5", ("gamma", "gamma-r")),
    )
    # Many small random graphs rather than a few large ones: their total
    # search size then varies little from seed to seed.
    RANDOM_COUNT = 48
    RANDOM_N = 30
    RANDOM_M = 75
    INVARIANTS = ("gamma", "gamma-r")

    def corpus(self, seed: int) -> list[Instance]:
        out = [
            Instance(name, romdom.product(_family(a), _family(b), "cartesian"), invs, True)
            for name, a, b, invs in self.PRODUCTS
        ]
        out += [
            Instance(f"R{i}", _gnm(self.RANDOM_N, self.RANDOM_M, seed, i), self.INVARIANTS, False)
            for i in range(self.RANDOM_COUNT)
        ]
        return out

    def setup(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        instances = self.corpus(seed)
        g6 = {id(inst): romdom.write_graph6(inst.graph) for inst in instances}
        files = {}
        for inv in self.INVARIANTS:
            path = work / f"{inv}.g6"
            path.write_text(
                "".join(g6[id(inst)] + "\n" for inst in instances if inv in inst.invariants),
                encoding="ascii",
            )
            files[inv] = path
        return {
            "seed": seed,
            "instances": instances,
            "files": files,
            "product_g6": {g6[id(inst)] for inst in instances if inst.product},
        }

    def calls(self, inputs: dict, jobs: int) -> list[list[str]]:
        return [
            ["solve", "--file", str(inputs["files"][inv]), "--invariant", inv, "--budget", BUDGET]
            for inv in self.INVARIANTS
        ]

    def expected(self, seed: int) -> dict:
        """(instance, invariant) -> pinned value, where the seed is pinned."""
        pinned = json.loads(PINNED.read_text())[self.name]
        out = {
            (name, inv): value
            for name, values in pinned["products"].items()
            for inv, value in values.items()
        }
        for i, pair in enumerate(pinned["random"].get(str(seed), "").split()):
            out[(f"R{i}", "gamma")], out[(f"R{i}", "gamma-r")] = map(int, pair.split("/"))
        return out

    def check(self, inputs: dict, codes: list[int], stdout: str, stderr: str) -> Outcome:
        out = Outcome(fingerprint=hashlib.sha256(stdout.encode()).hexdigest())
        expected = self.expected(inputs["seed"])
        lines = iter(stdout.splitlines())
        values: dict = {}
        for inv, code in zip(self.INVARIANTS, codes):
            todo = [inst for inst in inputs["instances"] if inv in inst.invariants]
            out.attempted += len(todo)
            if code != 0:
                out.errors.append(f"solve --invariant {inv} exited {code}: {stderr.strip()}")
            for inst in todo:
                line = next(lines, None)
                if line is None:
                    out.failed += 1
                    continue
                row = json.loads(line)
                values[inst.name, inv] = row["value"]
                out.nodes[f"{inst.name}.{inv}"] = row["node_count"]
                out.errors += _check_solve(inst, inv, row, expected.get((inst.name, inv)))
        if next(lines, None) is not None:
            out.errors.append("solve printed more lines than it was given graphs")
        for inst in inputs["instances"]:
            if len(inst.invariants) == 2 and all((inst.name, i) in values for i in self.INVARIANTS):
                gamma, gamma_r = values[inst.name, "gamma"], values[inst.name, "gamma-r"]
                if not gamma <= gamma_r <= 2 * gamma:
                    out.errors.append(f"{inst.name}: gamma={gamma}, gamma_R={gamma_r} break gamma <= gamma_R <= 2 gamma")
        return out


def _check_solve(inst: Instance, inv: str, row: dict, want) -> list[str]:
    g = inst.graph
    value, witness = row["value"], row["witness"]
    where = f"{inst.name} {inv}"
    errors = []
    if row["invariant"] != inv:
        errors.append(f"{where}: answered for invariant {row['invariant']}")
    if want is not None and value != want:
        errors.append(f"{where}: value {value}, pinned {want}")
    if inv == "gamma":
        covered = 0
        for v in witness:
            covered |= g.adj[v] | 1 << v
        if covered != g.full_mask or len(set(witness)) != value:
            errors.append(f"{where}: witness {witness} is not a dominating set of size {value}")
    else:
        try:
            rdf = romdom.RomanFunction(tuple(witness))
            valid = romdom.validate_rdf(g, rdf) and rdf.weight == value
        except romdom.ParameterError:
            valid = False
        if not valid:
            errors.append(f"{where}: witness is not a Roman function of weight {value}")
    return errors


class Sweep:
    """``romdom verify`` over a corpus, report written to a file."""

    corpus_in_pass = True

    def __init__(self, name: str, args: tuple, jobs: int, check_jobs: int, corpus):
        self.name = name
        self.args = args
        self.jobs = jobs
        self.check_jobs = check_jobs
        self._corpus = corpus

    def corpus(self, seed: int) -> list:
        return self._corpus()

    def setup(self, seed: int, work: Path) -> dict:
        # The corpus is built here so that setup_s covers it; the CLI builds
        # its own copy in every pass.
        work.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "corpus": self.corpus(seed), "report": work / f"{self.name}.json"}

    def calls(self, inputs: dict, jobs: int) -> list[list[str]]:
        return [
            ["verify", *self.args, "--budget", BUDGET, "--jobs", str(jobs),
             "--report", str(inputs["report"])]
        ]

    def check(self, inputs: dict, codes: list[int], stdout: str, stderr: str) -> Outcome:
        """Per pass: exit code and a hash of the report bytes. The report's
        contents are checked once per run by ``check_report``, which is
        enough because every pass must produce the same bytes."""
        out = Outcome()
        if codes != [0]:
            out.errors.append(f"verify exited {codes[0]}: {stderr.strip()}")
        if not inputs["report"].is_file():
            out.errors.append("verify wrote no report")
            return out
        digest = hashlib.sha256()
        with open(inputs["report"], "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        out.fingerprint = digest.hexdigest()
        return out

    def check_report(self, inputs: dict) -> Outcome:
        if not inputs["report"].is_file():
            return Outcome(errors=["verify wrote no report"])
        with open(inputs["report"], encoding="ascii") as fh:
            report = json.load(fh)
        records = report["records"]
        summary = report["summary"]
        want = json.loads(PINNED.read_text())[self.name]
        out = Outcome(attempted=len(records), failed=summary["budget_skipped"])
        if not romdom.suite_ok(report):
            out.errors.append(f"suite not ok: {summary}")
        if len(records) != want["records"]:
            out.errors.append(f"{len(records)} records, seed had {want['records']}")
        digest = records_digest(records)
        if digest != want["digest"]:
            out.errors.append(f"record digest {digest} differs from the seed's {want['digest']}")
        return out


def records_digest(records: list) -> str:
    digest = hashlib.sha256()
    for rec in records:
        digest.update(json.dumps([rec.get(k) for k in SEED_FIELDS]).encode() + b"\n")
    return digest.hexdigest()


WORKLOADS = {
    wl.name: wl
    for wl in (
        KernelHard(),
        # The realistic sweep, and the only one whose timed passes use the
        # worker pool.
        Sweep(
            "sweep-products",
            ("--corpus", "families", "--products", "cartesian,strong", "--max-product", "48"),
            jobs=2,
            check_jobs=1,
            corpus=romdom.default_corpus,
        ),
        # Many tiny instances: per-call overhead, Env and JSON dominate.
        Sweep(
            "sweep-exhaustive",
            ("--corpus", "exhaustive", "--max-n", "4"),
            jobs=1,
            check_jobs=2,
            corpus=lambda: romdom.exhaustive_corpus(4),
        ),
    )
}
