"""Quick self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
exact counts repeat between two traced runs of one seed, that no span has a
negative self time, that the gate counts a wrong result as a failure (the
radial control is not regular, so expecting all-regular must fail) and a
report with missing fields as a failure rather than a crash, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run
from tracing import EXACT_COUNTS, Span, self_times

SEED = 7


def _check_units(result: dict, declared: list[dict], where: str) -> list[str]:
    problems = []
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got['unit']!r} != {m['unit']!r}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    run.SETUP_REPEATS = 1   # each repeat is a fresh interpreter; one keeps this quick
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / f"selftest-{os.getpid()}"
    work.mkdir()
    try:
        for w in run.WORKLOADS.values():
            tiny = replace(w, size=run.TINY_SIZE[w.command])
            res, _ = run.benchmark(tiny, SEED, 0.1, False, work)
            problems += _check_units(res, spec["end_to_end"], f"{w.name} trace 0")
            if res["failed"]:
                problems.append(f"{w.name}: {res['failed']} failed ops at HEAD")
            counts = []
            for _ in range(2):
                res, rec = run.benchmark(tiny, SEED, 0.1, True, work)
                problems += _check_units(res, spec["per_layer"], f"{w.name} trace 1")
                counts.append({k: res["metrics"][k]["value"] for k in EXACT_COUNTS})
                spans = [Span(*row) for row in rec["spans"]]
                if not spans or min(self_times(spans).values()) < 0:
                    problems.append(f"{w.name}: no spans or a negative self time")
            if counts[0] != counts[1]:
                problems.append(f"{w.name}: exact counts differ {counts}")
            print(f"{w.name}: checked", flush=True)

        radial = run.Workload("radial-control", ("--preset", "radial", "--m", "2"),
                              "verify", 200, workers=1)
        res, _ = run.benchmark(radial, SEED, 0.1, False, work)
        if not (res["failed"] == res["attempted"] >= 1 and res["correct"] is False):
            problems.append(f"gate passed the radial control: {res}")
        print("radial control: checked", flush=True)

        class EmptyReportCli:
            """Exits 0 but writes a report with none of the expected fields."""

            @staticmethod
            def main(argv):
                Path(argv[argv.index("--report") + 1]).write_text("{}")
                return 0

        for w in run.WORKLOADS.values():
            _, _, found = run.run_op(EmptyReportCli, w,
                                     run._command_argvs(w, work / "e.json", SEED, work),
                                     1.0)
            if not found:
                problems.append(f"{w.name}: gate passed an empty report")
        print("empty report: checked", flush=True)

        bare = work / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-ar",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if out.returncode == 0 or '"correct"' in out.stdout:
            problems.append("the benchmark ran without the program's sources")
        print("bare directory: checked", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
