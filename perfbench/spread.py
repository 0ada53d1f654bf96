"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]

For each workload and metric it prints the median over the runs and the
quartile spread, (Q3 - Q1) / median with ``statistics.quantiles(n=4)``, next
to the metric's bound in BENCHMARK.json.  The calibration time of each run
(the median of a fixed loop timed between ops) and the ratio of ``op_s.p50``
to it are summarised the same way, so that a spread can be told apart from
machine drift.  Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        calibration = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, check=True,
            ).stdout.splitlines()
            result = json.loads(out[-1])
            meta = json.loads(next(line for line in out if line.startswith("run "))[4:])
            calibration.append(meta["calibration_s"]["median"])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed ops")
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
            ) + f" calibration_s={calibration[-1]:.4g}", flush=True)
        print(f"== {name}, seeds {args.seeds[0]}-{args.seeds[-1]}")
        extra = [("calibration_s", calibration)]
        if "op_s.p50" in values:
            # a code change moves this ratio; machine drift moves both its terms
            extra.append(("op_s.p50 / calibration_s",
                          [a / b for a, b in zip(values["op_s.p50"], calibration)]))
        for k, vs in [*values.items(), *extra]:
            print(f"  {k:42s} median {statistics.median(vs):<12.5g} "
                  f"spread {spread(vs):.3f}  bound {bounds.get(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
