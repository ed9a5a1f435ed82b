"""Regenerate expected.json, the values every pass is checked against.

    python3 perfbench/pin.py
    python3 perfbench/pin.py --nodes 1 17

Pins kernel-hard's product values, its random-graph values for seeds
0..PINNED_SEEDS-1, and each sweep's record count and seed-field digest. Run
it only when the values are meant to change; the benchmark's checks exist to
catch every other change to them.

With ``--nodes`` it instead prints kernel-hard's exact search nodes per
instance and invariant for the given seeds, the numbers ``baseline.json``
records. Node counts are not pinned: a faster search may lower them.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import romdom  # noqa: E402
import romdom.cli  # noqa: E402
from workloads import BUDGET, WORKLOADS, records_digest  # noqa: E402

PINNED_SEEDS = 64
BUDGET_NODES = int(BUDGET)
KERNEL = WORKLOADS["kernel-hard"]
SOLVE = {"gamma": romdom.domination_number, "gamma-r": romdom.roman_domination_number}


def kernel_values() -> dict:
    products = {
        inst.name: {inv: SOLVE[inv](inst.graph, BUDGET_NODES).value for inv in inst.invariants}
        for inst in KERNEL.corpus(0)
        if inst.product
    }
    random = {}
    for seed in range(PINNED_SEEDS):
        # "gamma/gamma_R" per random graph, in instance order
        random[str(seed)] = " ".join(
            "/".join(str(SOLVE[inv](inst.graph, BUDGET_NODES).value) for inv in KERNEL.INVARIANTS)
            for inst in KERNEL.corpus(seed)
            if not inst.product
        )
    return {"products": products, "random": random}


def kernel_nodes(seed: int) -> dict:
    return {
        f"{inst.name}.{inv}": SOLVE[inv](inst.graph, BUDGET_NODES).node_count
        for inst in KERNEL.corpus(seed)
        for inv in inst.invariants
    }


def sweep_values(name: str) -> dict:
    wl = WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        inputs = wl.setup(0, Path(tmp))
        with redirect_stderr(io.StringIO()):
            code = romdom.cli.main(wl.calls(inputs, 1)[0])
        if code != 0:
            raise SystemExit(f"{name}: verify exited {code}")
        records = json.loads(inputs["report"].read_text())["records"]
    return {"records": len(records), "digest": records_digest(records)}


def main() -> None:
    if sys.argv[1:2] == ["--nodes"]:
        nodes = {seed: kernel_nodes(int(seed)) for seed in sys.argv[2:]}
        print(json.dumps(nodes, indent=1))
        return
    pinned = {"kernel-hard": kernel_values()}
    for name in ("sweep-products", "sweep-exhaustive"):
        pinned[name] = sweep_values(name)
    (HERE / "expected.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
