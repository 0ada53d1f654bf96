"""Command-line entry point: construct embeddings, check the exact identity,
verify regularity by sampling, and hunt degeneracies by minimization.

Exit codes: 0 success/verified, 1 identity failure, 2 regularity failure or
marginal verdict from verify or minimize (the witness point is printed),
3 internal criterion disagreement, 64 usage errors (among them --tol outside
(0, 0.1) and --workers outside [1, 64]), 65 unreadable or malformed input files
and embeddings whose values overflow a float, 70 internal faults (the
traceback goes to standard error), 71 out of memory (a run too large to
allocate), 73 an output file that cannot be written.

Human-readable summaries go to standard output; machine artifacts (embedding
files, reports, histograms) go to files.  The file named by ``--out`` or
``--report`` has a sidecar ``<name>.manifest.json`` recording the command,
every parsed flag, input hashes, tool version and wall time; ``main`` writes
it after any normal return.  The ``--hist`` CSV gets no sidecar of its own:
the report's manifest records its path under ``hist``.  The report itself
stays byte-reproducible for identical flags, whatever the worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .catalog import (
    GraphEmbedding,
    NEGATIVE_CONTROL_KINDS,
    ar_embedding,
    block_sum_embedding,
    make_negative_control,
    verify_ar_identity,
)
from .certify import (
    ConfigError,
    MinimizeOptions,
    OBJECTIVE_DET_SQ,
    OBJECTIVE_SIGMA_MIN_SQ,
    SweepConfig,
    VERDICT_ALL_REGULAR,
    ar_det_sq_of_t,
    histogram_csv,
    is_ar_embedding,
    multistart_minimize_many,
    sigma_histogram,
    sweep,
)
from .wirtinger import NonFiniteError, WPolynomial

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_REGULARITY_FAILURE = 2
EXIT_CRITERION_DISAGREEMENT = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70
EXIT_OSERR = 71
EXIT_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors in the 64 class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def manifest_path_for(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".manifest.json")


def _sha256(path: Path) -> str:
    import hashlib  # only a manifest with an input file needs it

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path, text: str) -> None:
    """Write an output file; a failure exits 73 (EX_CANTCREAT), not as a fault."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_CANTCREAT, f"cannot write {path}: {exc}") from exc


def _write_manifest(args, wall_time_s: float) -> None:
    """The reproducibility sidecar of the command's output file, if it wrote one."""
    out = getattr(args, "out", None) or getattr(args, "report", None)
    if out is None:
        return
    out = Path(out)
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    embedding = getattr(args, "embedding", None)
    payload = {
        "command": args.command,
        "config": config,
        "inputs": {embedding: _sha256(Path(embedding))} if embedding else {},
        "tool_version": __version__,
        "wall_time_s": wall_time_s,
        "for": out.name,
    }
    _write(manifest_path_for(out), json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_embedding(path: str) -> GraphEmbedding:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read embedding file {path}: {exc}")
    # ValueError covers bad UTF-8 and bad JSON; RecursionError, JSON nested too deeply
    try:
        return GraphEmbedding.loads(data.decode("utf-8"))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CliError(EXIT_DATA, f"malformed embedding file {path}: {exc}")


class CliError(Exception):
    """Internal control-flow error carrying an exit code and message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- construct ---------------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.preset == "ar":
        E = ar_embedding()
    elif args.preset == "q-block":
        if args.n is None:
            raise CliError(EXIT_USAGE, "--preset q-block needs --n")
        E = block_sum_embedding(args.n)
    else:  # a negative control, one of NEGATIVE_CONTROL_KINDS behind argparse choices
        if args.m is None:
            raise CliError(EXIT_USAGE, f"--preset {args.preset} needs --m")
        E = make_negative_control(args.preset, args.m)
    out = Path(args.out)
    _write(out, E.dumps() + "\n")
    print(f"wrote {E.label}: S^{2 * E.m - 1} -> C^{E.m + E.q} ({out})")
    return EXIT_OK


# -- identity-check -----------------------------------------------------------------

def cmd_identity_check(args) -> int:
    perturbation = None
    if args.inject_fault:
        # nudge one coefficient of the closed form; the check must catch it
        perturbation = WPolynomial.monomial(
            2, (0, 2), (0, 2), Fraction(1, 1_000_000)
        )
    result = verify_ar_identity(rhs_perturbation=perturbation)
    print(f"lhs ({len(result.lhs)} terms):      {result.lhs}")
    print(f"rhs ({len(result.rhs)} terms):      {result.rhs}")
    print(f"residual ({len(result.residual)} terms): {result.residual}")
    print("identity holds" if result.holds else "IDENTITY FAILED")
    if args.report:  # the result's fields, each polynomial in its file format
        text = json.dumps(
            vars(result), default=WPolynomial.to_json_dict, sort_keys=True, indent=2
        )
        _write(args.report, text + "\n")
    return EXIT_OK if result.holds else EXIT_IDENTITY_FAILURE


def _finish(args, report, summary: str, disagreement=None) -> int:
    """Write the report, print the summary; exit 3 on a disagreement, else by verdict."""
    report.extras["manifest_file"] = manifest_path_for(Path(args.report)).name
    _write(args.report, report.dumps() + "\n")
    print(summary)
    if disagreement is not None:
        print(f"INTERNAL INCONSISTENCY at z = {disagreement.z}")
        return EXIT_CRITERION_DISAGREEMENT
    if report.verdict == VERDICT_ALL_REGULAR:
        return EXIT_OK
    print(f"witness point: {list(report.argmin_z)}")
    return EXIT_REGULARITY_FAILURE


# -- verify --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = SweepConfig(
        samples=args.samples, seed=args.seed, tol=args.tol, workers=args.workers
    )
    E = _load_embedding(args.embedding)
    report = sweep(E, cfg)  # with the spot checks on its first samples

    spot = len(report.spot_checks)
    disagreements = [r for r in report.spot_checks if not r.agree]
    report.extras["equivalence"] = {
        "spot_checks": spot,
        "disagreements": [r.to_json_dict() for r in disagreements],
    }

    if args.hist:  # before the report, so a failed write leaves neither
        edges, counts = sigma_histogram(report.sigma_min_samples)
        _write(args.hist, histogram_csv(edges, counts))

    summary = (
        f"{E.label}: verdict {report.verdict}; min sigma_min "
        f"{report.min_sigma:.6e} over {cfg.samples} samples; "
        f"{spot} equivalence spot checks, {len(disagreements)} disagreements"
    )
    return _finish(args, report, summary, disagreements[0] if disagreements else None)


# -- minimize -------------------------------------------------------------------------

def cmd_minimize(args) -> int:
    objective = OBJECTIVE_DET_SQ if args.objective == "det" else OBJECTIVE_SIGMA_MIN_SQ
    opts = MinimizeOptions(objective=objective, tol=args.tol)
    E = _load_embedding(args.embedding)
    ar = is_ar_embedding(E)
    # on ar the |det|^2 cross-check's starts descend in the same batch as the
    # main objective's; with --objective det the main run is the cross-check
    runs = [opts]
    if ar and objective != OBJECTIVE_DET_SQ:
        runs.append(replace(opts, objective=OBJECTIVE_DET_SQ))
    reports = multistart_minimize_many(E, args.restarts, args.seed, runs)
    report = reports[0]

    if ar:
        det_report = reports[-1]
        # on the sphere |det|^2 = ar_det_sq_of_t(|z1|^2) exactly, minimal at t = 1/3
        t_star = 1 / 3
        profile_min = float(ar_det_sq_of_t(t_star))
        report.extras["ar_cross_check"] = {
            "best_det_sq": det_report.best_value,
            "profile_min": profile_min,
            "profile_argmin_t": t_star,
            "gap": abs(det_report.best_value - profile_min),
        }

    lines = [
        f"{E.label}: best {objective} = {report.best_value:.6e} at "
        f"{list(report.argmin_z)}; verdict {report.verdict}"
    ]
    for rep, which in zip(reports, ("", "|det|^2 cross-check ")):
        unconverged = rep.extras["unconverged_restarts"]
        if unconverged:
            lines.append(f"warning: {unconverged} {which}restart(s) did not converge "
                         "(iteration cap or stalled step)")
    if "ar_cross_check" in report.extras:
        cc = report.extras["ar_cross_check"]
        lines.append(
            f"1-D profile cross-check: best |det|^2 {cc['best_det_sq']:.9e} vs "
            f"profile {cc['profile_min']:.9e} (gap {cc['gap']:.3e})"
        )
    return _finish(args, report, "\n".join(lines))


# -- wiring ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="crsphere",
        description="Construct and certify CR regular sphere graph embeddings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a preset embedding to a JSON file")
    p.add_argument(
        "--preset",
        required=True,
        choices=("ar", "q-block") + NEGATIVE_CONTROL_KINDS,
    )
    p.add_argument("--n", type=int, default=None, help="block count for q-block")
    p.add_argument("--m", type=int, default=None, help="dimension for controls")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "identity-check", help="exact determinant identity self-check"
    )
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="perturb one coefficient of the closed form (detection self-test)",
    )
    p.add_argument("--report", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("verify", help="sampling sweep plus criterion spot checks")
    p.add_argument("embedding", help="embedding JSON file")
    p.add_argument("--samples", type=int, default=SweepConfig.samples)
    p.add_argument("--seed", type=int, default=SweepConfig.seed)
    p.add_argument("--tol", type=float, default=SweepConfig.tol)
    p.add_argument("--workers", type=int, default=SweepConfig.workers)
    p.add_argument("--report", required=True)
    p.add_argument("--hist", default=None, help="optional sigma_min histogram CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minimize", help="multistart degeneracy minimization")
    p.add_argument("embedding", help="embedding JSON file")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=MinimizeOptions.tol)
    p.add_argument(
        "--objective", choices=("sigma", "det"), default="sigma",
        help="sigma: smallest singular value squared; det: |det|^2 (square case)",
    )
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_minimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
        _write_manifest(args, time.perf_counter() - t0)
        return code
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: --{exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"error: {exc}: the embedding cannot be evaluated in floating point",
              file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_OSERR
    except Exception:
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
