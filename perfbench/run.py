"""crsphere benchmark: the CLI commands users wait on, run in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op calls ``crsphere.cli.main`` exactly as the ``crsphere`` command would,
on embedding files written by ``crsphere construct``, and every op's output
is checked.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and prints the per-layer metrics, timed
from outside by wrapping each module's public functions (see tracing.py).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run, with
the spans of a traced run, is written to ``.perfbench/`` in the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import astuple, dataclass, replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One process, at most nproc threads: the sweep's own pool supplies the
# parallelism, so BLAS/OpenMP pools are pinned to one thread unless set.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

VERDICT_ALL_REGULAR = "all-regular (sampled)"
SIGMA_FLOOR = 1e3         # acceptance criterion 2: min_sigma > 1e3*tol*sigma_max
AR_GAP_MAX = 1e-6         # acceptance criterion 6
SCAN_POINTS = 2048        # the minimizer's coarse scan; the harness re-scans it
SETUP_REPEATS = 5
TINY_SIZE = {"verify": 200, "minimize": 1}   # warm-up and self-test sizes


@dataclass(frozen=True)
class Workload:
    """One CLI command on one preset (BENCHMARK.json says why each exists)."""

    name: str
    preset: tuple[str, ...]   # `crsphere construct` arguments
    command: str              # "verify" or "minimize"
    size: int                 # --samples for verify, --restarts for minimize
    workers: int | None = None
    identity_check: bool = False

    @property
    def work_unit(self) -> str:
        return "samples" if self.command == "verify" else "restarts"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-ar", ("--preset", "ar"), "verify", 100_000, workers=1,
            identity_check=True,
        ),
        Workload(
            "verify-block-n3", ("--preset", "q-block", "--n", "3"), "verify",
            100_000, workers=2,
        ),
        # 16, not the 64 restarts users run, so that a run holds 20-30 ops and
        # its median rests on more than a handful of them; the cost per restart
        # (certify.nfev_per_restart) scales the figure to 64
        Workload(
            "minimize-ar", ("--preset", "ar"), "minimize", 16,
        ),
    )
}

# A fresh interpreter pays this on every CLI call: import plus writing inputs.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import crsphere.cli
crsphere.cli.main(["construct", *sys.argv[3:], "--out", sys.argv[2]])
print(time.perf_counter() - t0)
"""


# -- inputs and the reference value --------------------------------------------

def _reference_sigma_min_sq(embedding: dict, Z) -> float:
    """min over Z of sigma_min^2 of the independence matrix [z; df/dzbar(z)].

    Evaluated straight from the JSON terms, sharing no code with crsphere's
    evaluators, so the minimize gate does not trust the code it checks.
    """
    import numpy as np

    m = embedding["m"]
    rows = [Z]
    for f in embedding["f"]:
        grad = np.zeros_like(Z)
        for t in f["terms"]:
            c = complex(float(Fraction(t["re"])), float(Fraction(t["im"])))
            alpha, beta = np.array(t["alpha"]), np.array(t["beta"])
            for k in range(m):
                if beta[k]:
                    b = beta.copy()
                    b[k] -= 1
                    grad[:, k] += (
                        c * beta[k] * np.prod(Z**alpha, axis=1)
                        * np.prod(np.conj(Z) ** b, axis=1)
                    )
        rows.append(grad)
    s = np.linalg.svd(np.stack(rows, axis=1), compute_uv=False)
    return float(np.min(s[:, -1] ** 2))


# -- one op and its gate ------------------------------------------------------------

def _command_argvs(w: Workload, embedding: Path, seed: int, work: Path):
    """(argv, report path) of each CLI call that makes up one op."""
    calls = []
    if w.identity_check:
        calls.append((["identity-check", "--report", str(work / "identity.json")],
                      work / "identity.json"))
    report = work / f"{w.command}.json"
    argv = [w.command, str(embedding), "--seed", str(seed), "--report", str(report)]
    if w.command == "verify":
        argv += ["--samples", str(w.size), "--workers", str(w.workers)]
    else:
        argv += ["--restarts", str(w.size)]
    calls.append((argv, report))
    return calls


def check_report(w: Workload, argv: list[str], code: int, report: dict | None,
                 reference: float | None) -> list[str]:
    """Problems with one CLI call's result; empty when it is correct."""
    if code != 0:
        return [f"{argv[0]} exited {code}, expected 0"]
    if report is None:
        return [f"{argv[0]} wrote no report"]
    if argv[0] == "identity-check":
        return [] if report.get("holds") is True else ["identity does not hold"]
    problems = []
    if report.get("verdict") != VERDICT_ALL_REGULAR:
        problems.append(f"verdict {report.get('verdict')!r}")
    if argv[0] == "verify":
        eq = report["extras"]["equivalence"]
        if eq["disagreements"]:
            problems.append(f"{len(eq['disagreements'])} criterion disagreements")
        if eq["spot_checks"] != w.size // 100:
            problems.append(f"{eq['spot_checks']} spot checks, expected {w.size // 100}")
        floor = SIGMA_FLOOR * report["tol"] * report["sigma_max_at_argmin"]
        if not report["min_sigma"] > floor:
            problems.append(f"min_sigma {report['min_sigma']:.3e} <= floor {floor:.3e}")
    else:
        best = report.get("best_value")
        # the relative slack covers rounding between two evaluation routes
        if best is None or not 0 < best <= reference * (1 + 1e-9):
            problems.append(f"best_value {best} not in (0, {reference:.6e}]")
        if w.preset == ("--preset", "ar"):
            gap = report["extras"].get("ar_cross_check", {}).get("gap")
            if gap is None or not gap <= AR_GAP_MAX:
                problems.append(f"ar_cross_check gap {gap}")
    return problems


def run_op(cli, w: Workload, calls, reference) -> tuple[float, float, list[str]]:
    """Run one op; returns (wall seconds, CPU seconds, problems)."""
    for _, report in calls:
        report.unlink(missing_ok=True)
    codes, captured = [], io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        for argv, _ in calls:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception as exc:  # a crash is a failed op, not a dead benchmark
                print(f"{type(exc).__name__}: {exc}")
                codes.append(None)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    problems = []
    for (argv, report), code in zip(calls, codes):
        try:
            data = json.loads(report.read_text()) if report.exists() else None
            problems += check_report(w, argv, code, data, reference)
        except (KeyError, TypeError, ValueError) as exc:  # a malformed report fails
            problems.append(f"{argv[0]} report malformed: {type(exc).__name__} {exc}")
    if problems:
        problems.append("output: " + captured.getvalue()[-400:])
    return wall, cpu, problems


# -- the run ----------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, str]:
    """The highest sample with ten samples beyond it.

    With fewer than 21 samples that would fall below the median, so the
    median sample is used instead.
    """
    xs = sorted(values)
    n = len(xs)
    beyond = min(10, (n - 1) // 2)
    return xs[n - 1 - beyond], f"{beyond} of {n} samples beyond it"


def calibration_s() -> float:
    """Time of a fixed interpreter loop (~20 ms); shows machine drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - t0


def measure_setup(w: Workload, work: Path, repeats: int) -> list[float]:
    times = []
    for i in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(work / f"setup{i}.json"),
             *w.preset],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_metadata(w: Workload, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or sha
    return {
        "workload": w.name, "seed": seed, "trace": trace, "git_sha": sha,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": w.workers, "size": w.size, "work_unit": w.work_unit,
    }


def benchmark(w: Workload, seed: int, seconds: float, trace: bool,
              work: Path) -> tuple[dict, dict]:
    """Set up, measure for ``seconds`` and gate every op; returns (result, record)."""
    setup = measure_setup(w, work, SETUP_REPEATS)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crsphere.cli as cli
    from crsphere.certify import sample_sphere
    from tracing import LAYER_UNITS, SPAN_FIELDS, Tracer, layer_metrics, median_metrics

    embedding = work / "embedding.json"
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["construct", *w.preset, "--out", str(embedding)]) != 0:
            raise RuntimeError(f"construct {w.preset} failed")
    emb = json.loads(embedding.read_text())
    reference = None
    if w.command == "minimize":
        reference = _reference_sigma_min_sq(emb, sample_sphere(emb["m"], SCAN_POINTS, seed))
    calls = _command_argvs(w, embedding, seed, work)

    # lazy imports and first-call set-up, at a size too small to matter
    tiny = replace(w, size=TINY_SIZE[w.command])
    run_op(cli, tiny, _command_argvs(tiny, embedding, seed, work), float("inf"))

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    cpus, calibration, failures, per_op, attempted = [], [], [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        calibration.append(calibration_s())
        traced = trace and attempted % 2 == 1
        if traced:
            tracer.begin_op(attempted)
            tracer.install()
        try:
            wall, cpu, problems = run_op(cli, w, calls, reference)
        finally:
            if traced:
                tracer.remove()
        if traced:
            counts = tracer.end_op()
            per_op.append(layer_metrics([s for s in tracer.spans if s.op == attempted],
                                        counts))
        attempted += 1
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        if problems:
            failures.append({"op": attempted - 1, "problems": problems})
        done = walls[False] + walls[True]
        if time.perf_counter() + statistics.median(done) > deadline and (
            not trace or attempted >= 2
        ):
            break

    meta = run_metadata(w, seed, trace)
    meta["calibration_s"] = {"median": statistics.median(calibration),
                             "first": calibration[0], "last": calibration[-1]}
    untraced = walls[False]
    if trace:
        layers = median_metrics(per_op)
        layers["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(untraced))
        metrics = {k: (v, LAYER_UNITS[k]) for k, v in layers.items()}
    else:
        p50 = statistics.median(untraced)
        tail_s, tail_note = tail(untraced)
        meta["op_s.tail"] = tail_note
        meta["work_per_s"] = f"{w.work_unit} per second"
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s.p50": (p50, "s"),
            "op_s.tail": (tail_s, "s"),
            "cpu_s.p50": (statistics.median(cpus), "s"),
            "work_per_s": (w.size / p50, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB"),
            "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        }
    meta["ops"] = {"attempted": attempted, "failed": len(failures),
                   "fail_ratio": len(failures) / attempted,
                   "untraced": len(untraced), "traced": len(walls[True])}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "meta": meta, "result": result, "failures": failures,
        "setup_s": setup, "op_s": {"untraced": untraced, "traced": walls[True]},
        "cpu_s": cpus, "calibration_s": calibration,
        "span_fields": SPAN_FIELDS,
        "spans": [list(astuple(s)) for s in tracer.spans] if trace else [],
    }
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "crsphere" / "cli.py").is_file():
        print(f"error: no crsphere sources at {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result, record = benchmark(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n"
    )

    print("run " + json.dumps(record["meta"], sort_keys=True))
    for f in record["failures"]:
        print(f"FAILED op {f['op']}: " + "; ".join(f["problems"]))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
