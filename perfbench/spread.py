"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
every end-to-end metric its values, median, and quartile distance as a share
of the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  A benchmark is steady when each spread is well below its
bound.  The last line is a JSON object with the same figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    failed = 0
    for seed in seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += last["failed"]
        print(f"seed {seed}: correct={last['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()),
              flush=True)
        for name, metric in last["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    report = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                        "bound": bounds.get(name)}
        print(f"{name:40s} median {med:.6g}  spread {share:.2%}  bound {bounds.get(name)}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "failed_checks": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
