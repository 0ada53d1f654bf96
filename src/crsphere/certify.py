"""Global evidence that the independence matrix stays full rank on the sphere.

Two complementary tools: seeded uniform sampling sweeps that evaluate the
rank criterion at many points, and multistart Riemannian gradient descent on
the sphere of the squared smallest singular value (or of the squared
determinant modulus in the square case) to hunt for degeneracies.  Both are
deterministic given their seeds: samples come from one counter-based stream,
work is split into fixed-size chunks whose results do not depend on the
worker count, reductions are performed in sample order, and the descent moves
all starts of a run as one batch.

A sampling sweep is evidence, not proof; the verdict vocabulary says
"all-regular (sampled)" deliberately.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from math import inf
from typing import Sequence

import numpy as np

from .catalog import GraphEmbedding, make_ar_polynomial, require_on_sphere
from .verifier import (
    DEFAULT_RANK_TOL,
    ConfigError,
    IndependenceEvaluator,
    _check_tol,
    _is_marginal,
    complex_pairs,
    numerical_rank,
    point_report,
)
from .wirtinger import CompiledEvaluator

VERDICT_ALL_REGULAR = "all-regular (sampled)"
VERDICT_MARGINAL = "marginal"
VERDICT_FAILURE = "failure-found"

# fixed chunk size: results must not depend on how chunks are scheduled
_CHUNK = 4096

# size of the coarse scan whose argmin seeds multistart runs
_COARSE_SCAN = 2048

# the descent: iteration cap, Armijo's sufficient-decrease fraction, the
# Riemannian gradient norm below which a start is stationary, and the
# shortest move still worth a step
_MAX_ITER = 2000
_ARMIJO = 1e-4
_GRAD_TOL = 1e-7
_MIN_MOVE = 1e-15
# a stationary start is probed this far along each tangent axis; a probe that
# lowers the value by _PROBE_DROP * _PROBE_STEP**2 marks a saddle or maximum
_PROBE_STEP = 1e-3
_PROBE_DROP = 1e-2

OBJECTIVE_SIGMA_MIN_SQ = "sigma_min_sq"
OBJECTIVE_DET_SQ = "det_sq"


# the range [low, high] of each integer run setting; a sweep worker is a thread
_RANGES = {"samples": (1, inf), "seed": (0, inf), "workers": (1, 64), "restarts": (1, inf)}


def _check_range(name: str, value: int | None) -> None:
    low, high = _RANGES[name]
    if value is not None and not low <= value <= high:
        raise ConfigError(name, f"must lie in [{low}, {high}], got {value}")


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
        _check_range("samples", self.samples)
        _check_range("seed", self.seed)
        _check_tol(self.tol)
        _check_range("workers", self.workers)


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
        """Every compared field, with points as lists of ``[re, im]`` pairs."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        data["argmin_z"] = complex_pairs(self.argmin_z)
        data["converged_minima"] = [
            {"z": complex_pairs(z), "value": value} for z, value in self.converged_minima
        ]
        return data

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _verdict(any_failure: bool, any_marginal: bool) -> str:
    if any_failure:
        return VERDICT_FAILURE
    if any_marginal:
        return VERDICT_MARGINAL
    return VERDICT_ALL_REGULAR


# -- sampling sweep ---------------------------------------------------------------

def sweep(E: GraphEmbedding, cfg: SweepConfig) -> CertificateReport:
    """Evaluate the rank criterion at every sample; record the global margin.

    The samples are ``sample_sphere(E.m, cfg.samples, cfg.seed)``, taken in
    fixed-size chunks by ``cfg.workers`` threads (one per CPU if None).  The
    result is deterministic for a fixed config, independent of the worker count.
    """
    Z = sample_sphere(E.m, cfg.samples, cfg.seed)
    ev = IndependenceEvaluator(E)

    chunks = [Z[i : i + _CHUNK] for i in range(0, len(Z), _CHUNK)]
    with ThreadPoolExecutor(max_workers=cfg.workers or os.cpu_count() or 1) as pool:
        s = np.concatenate(list(pool.map(ev.singular_values_many, chunks)))
    smin, smax = s[:, -1], s[:, 0]

    gidx = int(np.argmin(smin))  # first occurrence: deterministic reduction
    verdict = _verdict(
        bool(np.any(numerical_rank(s, cfg.tol) < E.q + 1)),
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
            raise ConfigError("objective", f"unknown objective {self.objective!r}")
        _check_tol(self.tol)


@dataclass(frozen=True)
class LocalMinimum:
    z: tuple[complex, ...]
    value: float
    converged: bool
    nfev: int
    start_value: float


def _objective_values(objective: str, s: np.ndarray) -> np.ndarray:
    """The degeneracy measure from singular values (n, q+1), descending.

    ``sigma_min^2`` is the last one squared, ``|det|^2`` the product of the
    squares.  The coarse scan and the descent both take their values here.
    """
    sq = s * s
    return np.prod(sq, axis=1) if objective == OBJECTIVE_DET_SQ else sq[:, -1]


def _value_and_gradient(E: GraphEmbedding, objective: str):
    """The objective and its Riemannian gradient on the sphere, batched over points.

    One ``CompiledEvaluator`` gives ``g = df/dzbar`` and its Jacobians
    ``dg/dz`` and ``dg/dzbar`` (second Wirtinger derivatives of f).  From the
    SVD ``M = U diag(s) V^H`` of the independence matrix,
    ``W = conj(U diag(p) V^H)`` gives ``d value = 2 Re sum(W * dM)``: for
    ``sigma_min^2`` (a simple smallest singular value) p is ``s_min`` on the
    last triple and 0 elsewhere; for ``|det|^2``, Jacobi's formula
    ``d det = tr(adj(M) dM)`` with ``conj(det) adj(M) = V diag(p) U^H`` gives
    ``p_i = s_i prod_{j != i} s_j^2``.  By the chain rule
    ``d value = 2 Re(a . dz + b . dzbar)`` with ``a = W_0 + sum_jk W_jk dg_jk/dz``
    and ``b = sum_jk W_jk dg_jk/dzbar``, so the Euclidean gradient
    (``2 d value/dzbar``) is ``G = 2 (conj(a) + b)``; its projection
    ``G - Re<G, z> z`` onto the tangent space is returned.
    """
    if objective == OBJECTIVE_DET_SQ and E.q + 1 != E.m:
        raise ConfigError(
            "objective", f"det_sq needs a square matrix (q+1 == m), got q={E.q}, m={E.m}"
        )
    m, qm = E.m, E.q * E.m
    g = [fj.d_zbar(k) for fj in E.f for k in range(m)]
    jacobians = [p.d_z(l) for p in g for l in range(m)] + [
        p.d_zbar(l) for p in g for l in range(m)
    ]
    ev = CompiledEvaluator(g + jacobians)

    def evaluate(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(Z)
        out = ev(Z)
        M = np.concatenate([Z[:, None, :], out[:, :qm].reshape(n, E.q, m)], axis=1)
        U, s, Vh = np.linalg.svd(M, full_matrices=False)
        if objective == OBJECTIVE_DET_SQ:
            sq = s * s
            p = s * np.stack(
                [np.prod(np.delete(sq, i, axis=1), axis=1) for i in range(m)], axis=1
            )
        else:
            p = np.zeros_like(s)
            p[:, -1] = s[:, -1]
        W = np.conj((U * p[:, None, :]) @ Vh)
        # rows d/dz, d/dzbar; columns the entries of g in M's row-major order
        ab = W[:, 1:, :].reshape(n, 1, 1, qm) @ out[:, qm:].reshape(n, 2, qm, m)
        G = 2 * (np.conj(W[:, 0, :] + ab[:, 0, 0]) + ab[:, 1, 0])
        grad = G - np.real(np.sum(G * np.conj(Z), axis=1))[:, None] * Z
        return _objective_values(objective, s), grad

    return evaluate


def _probes(Z: np.ndarray) -> np.ndarray:
    """Points _PROBE_STEP away from each point, along ± each projected axis.

    The 2m real axes (e_k and i e_k), projected onto the tangent space at z,
    span it; shape (n, m) -> (n * 4m, m), not yet normalised.
    """
    n, m = Z.shape
    if not n:
        return Z
    axes = np.concatenate([np.eye(m), 1j * np.eye(m)])
    D = axes - np.real(axes @ np.conj(Z)[:, :, None]) * Z[:, None, :]
    return (Z[:, None, :] + _PROBE_STEP * np.concatenate([D, -D], axis=1)).reshape(-1, m)


def _descend(evaluate, starts: np.ndarray) -> list[LocalMinimum]:
    """Riemannian steepest descent on the unit sphere from every start at once.

    The starts move in lock-step as one (n, m) array, so each iteration makes
    one evaluator call.  A step moves against the Riemannian gradient and
    retracts to the sphere by normalising; Armijo backtracking with a step size
    per start doubles it after an accepted step and halves it after a
    rejected one.  Once a start's gradient norm is below _GRAD_TOL, one probe
    round (see ``_probes``) tells a minimum from a saddle or maximum: a probe
    that lowers the value by _PROBE_DROP * _PROBE_STEP^2 restarts the descent
    there, otherwise the start has converged.  A start stops unconverged when
    a step could no longer move it, or at _MAX_ITER iterations.  Values never
    increase, and ``nfev`` counts the points evaluated for a start, probes
    included.
    """
    n, m = starts.shape
    Z = starts.copy()
    value, grad = evaluate(Z)
    start_value = value.copy()
    gnorm = np.linalg.norm(grad, axis=1)
    step = np.ones(n)
    nfev = np.ones(n, dtype=int)
    active = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    for _ in range(_MAX_ITER):
        probing = active & (gnorm < _GRAD_TOL)
        d, p = np.flatnonzero(active & ~probing), np.flatnonzero(probing)
        if not (d.size or p.size):
            break
        C = np.concatenate([Z[d] - step[d, None] * grad[d], _probes(Z[p])])
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        v, g = evaluate(C)
        nfev[d] += 1
        nfev[p] += 4 * m

        # probing starts: the best probe, taken only if it lowers the value enough
        best = len(d) + 4 * m * np.arange(len(p))
        best += np.argmin(v[len(d):].reshape(-1, 4 * m), axis=1)
        escape = v[best] <= value[p] - _PROBE_DROP * _PROBE_STEP**2
        converged[p[~escape]] = True
        active[p[~escape]] = False
        step[p[escape]] = 1.0

        ok = v[: len(d)] <= value[d] - _ARMIJO * step[d] * gnorm[d] ** 2
        step[d] *= np.where(ok, 2.0, 0.5)
        active[d[~ok & (step[d] * gnorm[d] < _MIN_MOVE)]] = False

        moved = np.concatenate([d[ok], p[escape]])
        rows = np.concatenate([np.flatnonzero(ok), best[escape]])
        Z[moved], value[moved], grad[moved] = C[rows], v[rows], g[rows]
        gnorm[moved] = np.linalg.norm(g[rows], axis=1)
    return [
        LocalMinimum(
            z=tuple(complex(w) for w in Z[i]),
            value=float(value[i]),
            converged=bool(converged[i]),
            nfev=int(nfev[i]),
            start_value=float(start_value[i]),
        )
        for i in range(n)
    ]


def local_minimize(
    E: GraphEmbedding, z0: Sequence[complex], opts: MinimizeOptions = MinimizeOptions()
) -> LocalMinimum:
    """Riemannian gradient descent of the degeneracy measure from one start.

    The single-start case of the batched descent ``multistart_minimize``
    runs.  The returned value never exceeds the starting value; hitting the
    iteration cap returns the best point so far flagged unconverged.
    """
    z0v = require_on_sphere(z0, E.m)
    return _descend(_value_and_gradient(E, opts.objective), z0v[None, :])[0]


def multistart_minimize(
    E: GraphEmbedding,
    restarts: int,
    seed: int,
    opts: MinimizeOptions = MinimizeOptions(),
) -> CertificateReport:
    """Riemannian descent from seeded starts plus a coarse-scan argmin.

    Starts are the argmin of a fixed-size coarse objective scan over seeded
    sphere samples, then the first ``restarts`` samples of the same stream;
    all of them descend together in one batch (``_descend``).
    Deterministic for fixed (restarts, seed).
    """
    _check_range("restarts", restarts)
    _check_range("seed", seed)
    evaluate = _value_and_gradient(E, opts.objective)
    n_scan = max(_COARSE_SCAN, restarts)
    Z = sample_sphere(E.m, n_scan, seed)
    s = IndependenceEvaluator(E).singular_values_many(Z)
    scan_values = _objective_values(opts.objective, s)
    starts = np.concatenate([Z[[int(np.argmin(scan_values))]], Z[:restarts]])
    minima = _descend(evaluate, starts)
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
    (1-t)^2 (1-3t)^2 + t^2 (3t-2)^2 = 1/9 + 18 (t - 1/3)^2 (t - 2/3)^2,
    which ``verify_ar_identity`` proves exactly; its minimum 1/9 is at
    t = 1/3 and t = 2/3.
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


def histogram_csv(edges: np.ndarray, counts: np.ndarray) -> str:
    """CSV text with columns bin_left, bin_right, count."""
    lines = ["bin_left,bin_right,count"]
    for i, c in enumerate(counts):
        lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}")
    return "\n".join(lines) + "\n"
