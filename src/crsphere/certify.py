"""Global evidence that the independence matrix stays full rank on the sphere.

Two complementary tools: seeded uniform sampling sweeps that evaluate the
rank criterion at many points, and multistart derivative-free minimization of
the squared smallest singular value (or of the squared determinant modulus in
the square case) to hunt for degeneracies.  Both are deterministic given
their seeds: samples come from one counter-based stream, work is split into
fixed-size chunks whose results do not depend on the worker count, and
reductions are performed in sample order.

A sampling sweep is evidence, not proof; the verdict vocabulary says
"all-regular (sampled)" deliberately.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .catalog import GraphEmbedding, make_ar_polynomial, require_on_sphere
from .verifier import (
    DEFAULT_RANK_TOL,
    IndependenceEvaluator,
    _is_marginal,
    numerical_rank,
    point_report,
)

VERDICT_ALL_REGULAR = "all-regular (sampled)"
VERDICT_MARGINAL = "marginal"
VERDICT_FAILURE = "failure-found"

# fixed chunk size: results must not depend on how chunks are scheduled
_CHUNK = 4096

# size of the coarse scan whose argmin seeds multistart runs
_COARSE_SCAN = 2048

# Nelder-Mead iteration cap (function evaluations are capped at four times
# it) and step tolerance of each local minimization
_MAX_ITER = 2000
_STEP_TOL = 1e-10

OBJECTIVE_SIGMA_MIN_SQ = "sigma_min_sq"
OBJECTIVE_DET_SQ = "det_sq"


def worker_count(explicit: int | None = None) -> int:
    """Resolve the parallelism hint: the explicit value, else the CPU count."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"worker count must be >= 1, got {explicit}")
        return explicit
    return os.cpu_count() or 1


def sample_sphere(m: int, count: int, seed: int) -> np.ndarray:
    """Uniform points on the unit sphere of C^m, shape (count, m).

    Normalized standard Gaussians in R^{2m}, drawn from a counter-based
    Philox stream keyed by the seed; the sequence is a pure function of
    (m, count, seed) and slicing it gives deterministic sub-streams.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal((count, 2 * m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x[:, :m] + 1j * x[:, m:]


@dataclass(frozen=True)
class SweepConfig:
    samples: int = 100_000
    seed: int = 42
    tol: float = DEFAULT_RANK_TOL
    workers: int | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass
class CertificateReport:
    """Summary of a sweep or a multistart minimization run."""

    label: str
    samples: int
    seed: int
    tol: float
    restarts: int
    min_sigma: float
    sigma_max_at_argmin: float
    argmin_z: tuple[complex, ...]
    converged_minima: tuple[tuple[tuple[complex, ...], float], ...]
    verdict: str
    objective: str | None = None
    best_value: float | None = None
    extras: dict = field(default_factory=dict)
    # raw per-sample singular values, kept for histograms; not serialized
    sigma_min_samples: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )
    sigma_max_samples: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "restarts": self.restarts,
            "min_sigma": self.min_sigma,
            "sigma_max_at_argmin": self.sigma_max_at_argmin,
            "argmin_z": [[w.real, w.imag] for w in self.argmin_z],
            "converged_minima": [
                {"z": [[w.real, w.imag] for w in z], "value": value}
                for z, value in self.converged_minima
            ],
            "verdict": self.verdict,
            "objective": self.objective,
            "best_value": self.best_value,
            "extras": self.extras,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "CertificateReport":
        return CertificateReport(
            label=str(data["label"]),
            samples=int(data["samples"]),
            seed=int(data["seed"]),
            tol=float(data["tol"]),
            restarts=int(data["restarts"]),
            min_sigma=float(data["min_sigma"]),
            sigma_max_at_argmin=float(data["sigma_max_at_argmin"]),
            argmin_z=tuple(complex(re, im) for re, im in data["argmin_z"]),
            converged_minima=tuple(
                (tuple(complex(re, im) for re, im in entry["z"]), float(entry["value"]))
                for entry in data["converged_minima"]
            ),
            verdict=str(data["verdict"]),
            objective=data.get("objective"),
            best_value=data.get("best_value"),
            extras=dict(data.get("extras", {})),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def loads(text: str) -> "CertificateReport":
        return CertificateReport.from_json_dict(json.loads(text))


def _verdict(any_failure: bool, any_marginal: bool) -> str:
    if any_failure:
        return VERDICT_FAILURE
    if any_marginal:
        return VERDICT_MARGINAL
    return VERDICT_ALL_REGULAR


# -- sampling sweep ---------------------------------------------------------------

def sweep(E: GraphEmbedding, cfg: SweepConfig) -> CertificateReport:
    """Evaluate the rank criterion at every sample; record the global margin.

    The samples are ``sample_sphere(E.m, cfg.samples, cfg.seed)``.  The
    result is deterministic for a fixed config, independent of the worker
    count.
    """
    Z = sample_sphere(E.m, cfg.samples, cfg.seed)
    ev = IndependenceEvaluator(E)
    full_rank = E.q + 1

    chunks = [Z[i : i + _CHUNK] for i in range(0, len(Z), _CHUNK)]

    def work(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = ev.singular_values_many(chunk)
        return s[:, -1], s[:, 0], numerical_rank(s, cfg.tol)

    w = worker_count(cfg.workers)
    if w > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=w) as pool:
            parts = list(pool.map(work, chunks))
    else:
        parts = [work(c) for c in chunks]

    smin = np.concatenate([p[0] for p in parts])
    smax = np.concatenate([p[1] for p in parts])
    ranks = np.concatenate([p[2] for p in parts])

    gidx = int(np.argmin(smin))  # first occurrence: deterministic reduction
    verdict = _verdict(
        bool(np.any(ranks < full_rank)),
        bool(np.any(_is_marginal(smin, smax, cfg.tol))),
    )

    return CertificateReport(
        label=E.label,
        samples=cfg.samples,
        seed=cfg.seed,
        tol=cfg.tol,
        restarts=0,
        min_sigma=float(smin[gidx]),
        sigma_max_at_argmin=float(smax[gidx]),
        argmin_z=tuple(complex(x) for x in Z[gidx]),
        converged_minima=(),
        verdict=verdict,
        objective=None,
        best_value=None,
        sigma_min_samples=smin,
        sigma_max_samples=smax,
    )


# -- local and multistart minimization ----------------------------------------------

@dataclass(frozen=True)
class MinimizeOptions:
    objective: str = OBJECTIVE_SIGMA_MIN_SQ
    tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        if self.objective not in (OBJECTIVE_SIGMA_MIN_SQ, OBJECTIVE_DET_SQ):
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class LocalMinimum:
    z: tuple[complex, ...]
    value: float
    converged: bool
    nfev: int
    start_value: float


def _objective_values(
    ev: IndependenceEvaluator, objective: str, Z: np.ndarray
) -> np.ndarray:
    """The degeneracy measure at each point, shape (n, m) -> (n,).

    ``np.hypot`` and ``np.float_power`` round like the scalar ``abs`` and
    ``** 2`` of a single point (``np.abs`` and ``** 2`` on arrays take SIMD
    kernels that can differ in the last bit), so a point's value, and the
    Nelder-Mead path it steers, does not depend on the batch it is in.
    """
    M = ev.matrix_many(Z)
    if objective == OBJECTIVE_DET_SQ:
        if ev.q + 1 != ev.m:
            raise ValueError(
                "det_sq objective needs a square independence matrix (q+1 == m)"
            )
        det = np.linalg.det(M)
        r = np.hypot(det.real, det.imag)
    else:
        r = np.linalg.svd(M, compute_uv=False)[:, -1]
    return np.float_power(r, 2)


def local_minimize(
    E: GraphEmbedding, z0: Sequence[complex], opts: MinimizeOptions = MinimizeOptions()
) -> LocalMinimum:
    """Nelder-Mead descent of the degeneracy measure, re-normalized to the sphere.

    Works in the real chart x in R^{2m} with the objective evaluated at
    x/||x||; the singular-value objective is non-smooth at crossings, which
    is why the method is derivative-free.  The returned value never exceeds
    the starting value; hitting the iteration cap returns the best point so
    far flagged unconverged.
    """
    # the only scipy user: imported here so the CLI's other commands load without it
    from scipy.optimize import minimize

    z0v = require_on_sphere(z0, E.m)
    ev = IndependenceEvaluator(E)

    def chart_objective(x: np.ndarray) -> float:
        n = math.sqrt(x.dot(x))  # np.linalg.norm's arithmetic, without its overhead
        if n < 1e-12:
            return np.inf
        z = (x[: E.m] + 1j * x[E.m :]) / n
        return float(_objective_values(ev, opts.objective, z[None, :])[0])

    x0 = np.concatenate([z0v.real, z0v.imag])
    start_value = chart_objective(x0)
    res = minimize(
        chart_objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": _MAX_ITER,
            "maxfev": 4 * _MAX_ITER,
            "xatol": _STEP_TOL,
            "fatol": np.inf,
        },
    )
    x = res.x / np.linalg.norm(res.x)
    z = x[: E.m] + 1j * x[E.m :]
    return LocalMinimum(
        z=tuple(complex(w) for w in z),
        value=float(res.fun),
        converged=bool(res.success),
        nfev=int(res.nfev),
        start_value=start_value,
    )


def multistart_minimize(
    E: GraphEmbedding,
    restarts: int,
    seed: int,
    opts: MinimizeOptions = MinimizeOptions(),
) -> CertificateReport:
    """Local minimization from seeded starts plus a coarse-scan argmin.

    Starts are the argmin of a fixed-size coarse objective scan over seeded
    sphere samples, then the first ``restarts`` samples of the same stream.
    Deterministic for fixed (restarts, seed).
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    n_scan = max(_COARSE_SCAN, restarts)
    Z = sample_sphere(E.m, n_scan, seed)
    scan_values = _objective_values(IndependenceEvaluator(E), opts.objective, Z)
    coarse_start = Z[int(np.argmin(scan_values))]

    starts = [coarse_start] + [Z[i] for i in range(restarts)]
    minima = [local_minimize(E, s, opts) for s in starts]
    values = [lm.value for lm in minima]
    best_idx = int(np.argmin(values))
    best = minima[best_idx]

    rep = point_report(E, np.asarray(best.z), opts.tol)

    return CertificateReport(
        label=E.label,
        samples=n_scan,
        seed=seed,
        tol=opts.tol,
        restarts=restarts,
        min_sigma=rep.sigma_min,
        sigma_max_at_argmin=rep.sigma_max,
        argmin_z=best.z,
        converged_minima=tuple(
            (lm.z, lm.value) for lm in minima if lm.converged
        ),
        verdict=_verdict(not rep.cr_regular, rep.marginal),
        objective=opts.objective,
        best_value=best.value,
        extras={
            "unconverged_restarts": sum(1 for lm in minima if not lm.converged),
        },
    )


# -- 1-D oracle for the totally real S^3 embedding -----------------------------------

def ar_det_sq_of_t(t: np.ndarray) -> np.ndarray:
    """|det|^2 of the S^3 independence matrix as a function of t = |z1|^2.

    On the unit sphere the determinant modulus of the Ahern-Rudin
    independence matrix depends only on t, giving the closed profile
    (1-t)^2 (1-3t)^2 + t^2 (3t-2)^2.
    """
    t = np.asarray(t, dtype=float)
    return (1 - t) ** 2 * (1 - 3 * t) ** 2 + t**2 * (3 * t - 2) ** 2


def ar_determinant_profile(resolution: int = 1_000_000) -> tuple[float, float]:
    """Dense 1-D scan of the determinant profile; returns (argmin t, min value).

    Serves as the brute-force oracle for optimizer acceptance in the square
    case, where |det| equals the product of the singular values.
    """
    if resolution < 1_000:
        raise ValueError(f"resolution must be >= 1000, got {resolution}")
    t = np.linspace(0.0, 1.0, resolution + 1)
    v = ar_det_sq_of_t(t)
    i = int(np.argmin(v))
    return float(t[i]), float(v[i])


def is_ar_embedding(E: GraphEmbedding) -> bool:
    """Structural test for the stock totally real S^3 embedding."""
    return E.m == 2 and E.q == 1 and E.f[0] == make_ar_polynomial()


# -- histogram export ------------------------------------------------------------------

def sigma_histogram(
    values: np.ndarray, bins: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram (edges, counts) of per-sample smallest singular values."""
    values = np.asarray(values, dtype=float)
    hi = float(values.max()) if len(values) else 1.0
    counts, edges = np.histogram(values, bins=bins, range=(0.0, max(hi, 1e-300)))
    return edges, counts


def write_histogram_csv(path, edges: np.ndarray, counts: np.ndarray) -> None:
    """CSV with columns bin_left, bin_right, count."""
    lines = ["bin_left,bin_right,count"]
    for i, c in enumerate(counts):
        lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
