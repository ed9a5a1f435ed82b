"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py --workload sweep-products --seeds 1-10 --trace 0 --out bench.json

Runs ``run.py`` once per seed, one after another, and writes for every
metric its values, median, quartiles and spread (quartile distance over
median). Two such files, one per commit, are the comparison a performance
claim rests on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", default="28")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args()
    summary = {}
    for name in args.workload:
        runs, elapsed = [], []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            t0 = time.perf_counter()
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            elapsed.append(time.perf_counter() - t0)
            if res.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {res.returncode}\n{res.stderr}")
            runs.append(json.loads(res.stdout.splitlines()[-1])["metrics"])
        summary[name] = {
            metric: {"unit": runs[0][metric]["unit"],
                     **summarise([r[metric]["value"] for r in runs])}
            for metric in runs[0]
        }
        summary[name]["run_seconds"] = {"unit": "s", **summarise(elapsed)}
        for metric, s in summary[name].items():
            print(f"{name:17} {metric:45} median {s['median']:<14.6g} spread {s['spread']:.3f}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
