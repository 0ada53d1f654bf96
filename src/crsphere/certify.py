"""Global evidence that the independence matrix stays full rank on the sphere.

Two complementary tools: seeded uniform sampling sweeps that evaluate the
rank criterion at many points, and multistart Riemannian gradient descent on
the sphere of the squared smallest singular value (or of the squared
determinant modulus in the square case) to hunt for degeneracies.  Both are
deterministic given their seeds: samples come from one counter-based stream,
drawn chunk by chunk in stream order, the rank layer gives each point the same
bits in any chunk and on any thread, whatever the worker count, reductions are
performed in sample order, and the descent moves all starts of a run as one
batch.  A sweep streams: its calling thread draws the chunks, its pool's tasks
normalise and rank one chunk each, and the equivalence spot checks run as one
more task beside them, so no full array of sample points is built.  With a
single worker the calling thread also ranks the chunks it draws while the spot
checks hold that worker.

A sampling sweep is evidence, not proof; the verdict vocabulary says
"all-regular (sampled)" deliberately.
"""

from __future__ import annotations

import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from math import inf
from typing import Sequence

from ._lazy import LazyNumpy
from .catalog import GraphEmbedding, make_ar_polynomial, require_on_sphere
from .verifier import (
    DEFAULT_RANK_TOL,
    ConfigError,
    IndependenceEvaluator,
    _check_tol,
    _is_marginal,
    complex_pairs,
    equivalence_check_many,
)
from .wirtinger import CompiledEvaluator

np = LazyNumpy(__name__)

VERDICT_ALL_REGULAR = "all-regular (sampled)"
VERDICT_MARGINAL = "marginal"
VERDICT_FAILURE = "failure-found"

# sampling chunk size: it bounds the temporaries and decides no bits
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


def _check_range(name: str, value: int) -> int:
    """The setting as a Python int, so a numpy integer never reaches a report."""
    low, high = _RANGES[name]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(name, f"must lie in [{low}, {high}], got {value}")
    return int(value)


def _normal_chunks(m: int, count: int, seed: int):
    """The sample stream: ``count`` standard normals in R^{2m}, as (rows, 2m) chunks.

    One counter-based Philox stream keyed by the seed, drawn _CHUNK rows at a
    time in stream order; the last chunk may be shorter.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    for i in range(0, count, _CHUNK):
        yield rng.standard_normal((min(_CHUNK, count - i), 2 * m))


def sample_sphere(m: int, count: int, seed: int) -> np.ndarray:
    """Uniform points on the unit sphere of C^m, shape (count, m).

    The normalised chunks of ``_normal_chunks``; the sequence is a pure
    function of (m, count, seed) and slicing it gives deterministic
    sub-streams.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    Z = np.empty((count, m), dtype=np.complex128)
    for i, x in enumerate(_normal_chunks(m, count, seed)):
        _to_sphere(x, Z[i * _CHUNK : i * _CHUNK + len(x)])
    return Z


def _to_sphere(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Normalise standard normals x (n, 2m) in place into the points out (n, m).

    Successive draws continue one stream and each row is normalised alone, so
    drawing in chunks gives the bits of one whole draw.
    """
    m = out.shape[1]
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    out.real, out.imag = x[:, :m], x[:, m:]
    return out


@dataclass(frozen=True)
class SweepConfig:
    samples: int = 100_000
    seed: int = 42
    tol: float = DEFAULT_RANK_TOL
    workers: int | None = None

    def __post_init__(self):
        settings = {
            "samples": _check_range("samples", self.samples),
            "seed": _check_range("seed", self.seed),
            "tol": _check_tol(self.tol),
        }
        if self.workers is not None:
            settings["workers"] = _check_range("workers", self.workers)
        for name, value in settings.items():  # Python numbers, as checked
            object.__setattr__(self, name, value)


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
    # a sweep's equivalence spot checks; verify reports them in its extras
    spot_checks: list | None = field(default=None, compare=False, repr=False)

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


def _verdict(s: np.ndarray, tol: float) -> str:
    """The verdict on the singular values s (n, q+1), descending, of n points.

    Failure if any rank is below q+1, else marginal if any sigma_min is in the
    band.  In descending order the rank is q+1 exactly where the last value
    exceeds ``tol * sigma_max``: this is ``numerical_rank(s, tol) == q + 1``
    without counting every column, and a NaN never exceeds it.
    """
    if not np.all(s[:, -1] > tol * s[:, 0]):
        return VERDICT_FAILURE
    if np.any(_is_marginal(s[:, -1], s[:, 0], tol)):
        return VERDICT_MARGINAL
    return VERDICT_ALL_REGULAR


# -- sampling sweep ---------------------------------------------------------------

def _default_workers() -> int:
    """The CPUs this process may run on, where the platform tells them; at most
    the top of ``--workers``'s range, since each worker is a thread."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _RANGES["workers"][1])


def sweep(E: GraphEmbedding, cfg: SweepConfig) -> CertificateReport:
    """Evaluate the rank criterion at every sample; record the global margin.

    The samples are ``sample_sphere(E.m, cfg.samples, cfg.seed)``.  The
    calling thread draws them chunk by chunk from ``_normal_chunks`` and
    submits each chunk to a pool of ``cfg.workers`` threads (one per
    available CPU if None); a task normalises and ranks its chunk and writes
    its singular values into one (samples, q+1) array, and only the lowest
    point of each chunk is kept.  At most ``cfg.workers`` chunks are in
    flight: the next chunk is drawn before the sweep waits on the oldest.
    The equivalence spot checks of the first ``max(1, samples // 100)``
    samples are one more task of the pool, submitted first so they overlap
    the chunks.  With one worker the spot checks would leave the pool no
    thread for the chunks, so until they finish the calling thread ranks
    each chunk it draws itself; these chunks all precede the pooled ones.
    The result is deterministic for a fixed config, independent of the
    worker count: the first-occurrence argmin of sigma_min is also the first
    occurrence of its chunk's minimum.  Results are taken in chunk order, so
    the earliest failed chunk is raised, before any failure of the spot
    checks; at most ``cfg.workers`` further chunks are drawn before it
    surfaces, and fewer of them are ranked.
    """
    n, m = cfg.samples, E.m
    s = np.empty((n, E.q + 1))
    chunk_argmin = np.empty((-(-n // _CHUNK), m), dtype=np.complex128)
    ev = IndependenceEvaluator(E)

    def rank_chunk(i: int, x: np.ndarray) -> None:
        Z = _to_sphere(x, np.empty((len(x), m), dtype=np.complex128))
        si = ev.singular_values_many(Z)
        s[i * _CHUNK : i * _CHUNK + len(si)] = si
        chunk_argmin[i] = Z[np.argmin(si[:, -1])]

    spot = max(1, n // 100)  # samples that get all three criteria
    workers = cfg.workers or _default_workers()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        checks = pool.submit(
            lambda: equivalence_check_many(E, sample_sphere(m, spot, cfg.seed), cfg.tol)
        )
        tasks = deque()
        for i, x in enumerate(_normal_chunks(m, n, cfg.seed)):
            if workers == 1 and not checks.done():
                rank_chunk(i, x)  # the spot checks hold the only worker
                continue
            if len(tasks) == workers:
                tasks.popleft().result()
            tasks.append(pool.submit(rank_chunk, i, x))
        for task in tasks:
            task.result()
    smin, smax = s[:, -1], s[:, 0]

    gidx = int(np.argmin(smin))  # first occurrence: deterministic reduction

    return CertificateReport(
        label=E.label,
        samples=cfg.samples,
        seed=cfg.seed,
        tol=cfg.tol,
        restarts=0,
        min_sigma=float(smin[gidx]),
        sigma_max_at_argmin=float(smax[gidx]),
        argmin_z=tuple(complex(x) for x in chunk_argmin[gidx // _CHUNK]),
        converged_minima=(),
        verdict=_verdict(s, cfg.tol),
        objective=None,
        best_value=None,
        sigma_min_samples=smin,
        sigma_max_samples=smax,
        spot_checks=checks.result(),
    )


# -- local and multistart minimization ----------------------------------------------

@dataclass(frozen=True)
class MinimizeOptions:
    objective: str = OBJECTIVE_SIGMA_MIN_SQ
    tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        if self.objective not in (OBJECTIVE_SIGMA_MIN_SQ, OBJECTIVE_DET_SQ):
            raise ConfigError("objective", f"unknown objective {self.objective!r}")
        object.__setattr__(self, "tol", _check_tol(self.tol))


@dataclass(frozen=True)
class LocalMinimum:
    z: tuple[complex, ...]
    value: float
    converged: bool
    nfev: int
    start_value: float


def _is_det(E: GraphEmbedding, objective: str) -> bool:
    """Whether the objective is ``|det|^2``, which needs a square matrix."""
    if objective == OBJECTIVE_DET_SQ and E.q + 1 != E.m:
        raise ConfigError(
            "objective", f"det_sq needs a square matrix (q+1 == m), got q={E.q}, m={E.m}"
        )
    return objective == OBJECTIVE_DET_SQ


def _objective_values(s: np.ndarray, det) -> np.ndarray:
    """The degeneracy measure from singular values (n, q+1), descending.

    ``sigma_min^2`` is the last one squared, ``|det|^2`` the product of the
    squares; ``det`` (one bool, or one per row) picks ``|det|^2``.  The
    coarse scan and the descent both take their values here.
    """
    sq = s * s
    return np.where(det, np.prod(sq, axis=1), sq[:, -1])


def _value_and_gradient(E: GraphEmbedding):
    """The objectives and their Riemannian gradients on the sphere, batched over points.

    The returned ``evaluate(Z, det)`` takes points Z (n, m) and a bool per
    row, True where the row's objective is ``|det|^2`` (see ``_is_det``),
    False for ``sigma_min^2``.  One ``CompiledEvaluator`` gives, as coordinate
    rows, ``g = df/dzbar`` and its Jacobians ``dg/dz`` and ``dg/dzbar``
    (second Wirtinger derivatives of f).  The Jacobians are copied into a
    contiguous (n, 2, qm, m) stack: the batched complex product picks its
    kernel by the operand's strides, and a strided view would round the
    gradient differently.  From the SVD ``M = U diag(s) V^H`` of the
    independence matrix, ``W = conj(U diag(p) V^H)`` gives
    ``d value = 2 Re sum(W * dM)``: for ``sigma_min^2`` (a simple smallest
    singular value) p is ``s_min`` on the last triple and 0 elsewhere; for
    ``|det|^2``, Jacobi's formula ``d det = tr(adj(M) dM)`` with
    ``conj(det) adj(M) = V diag(p) U^H`` gives ``p_i = s_i prod_{j != i} s_j^2``.
    By the chain rule ``d value = 2 Re(a . dz + b . dzbar)`` with
    ``a = W_0 + sum_jk W_jk dg_jk/dz`` and ``b = sum_jk W_jk dg_jk/dzbar``, so
    the Euclidean gradient (``2 d value/dzbar``) is ``G = 2 (conj(a) + b)``;
    its projection ``G - Re<G, z> z`` onto the tangent space is returned.
    Every step works row by row, so a row gets the same bits in any batch.
    """
    m, qm = E.m, E.q * E.m
    g = [fj.d_zbar(k) for fj in E.f for k in range(m)]
    jacobians = [p.d_z(l) for p in g for l in range(m)] + [
        p.d_zbar(l) for p in g for l in range(m)
    ]
    ev = CompiledEvaluator(g + jacobians)
    others = [[j for j in range(m) if j != i] for i in range(m)]  # row i: all j != i

    def evaluate(Z: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(Z)
        out = ev.rows(Z)
        M = np.concatenate([Z[:, None, :], out[:qm].T.reshape(n, E.q, m)], axis=1)
        U, s, Vh = np.linalg.svd(M, full_matrices=False)
        p = np.zeros_like(s)
        p[:, -1] = s[:, -1]
        if det.any():  # only a square matrix has det rows, and m singular values
            sd = s[det]
            p[det] = sd * np.multiply.reduce((sd * sd)[:, others], axis=2)
        W = np.conj((U * p[:, None, :]) @ Vh)
        # rows d/dz, d/dzbar; columns the entries of g in M's row-major order
        J = np.ascontiguousarray(out[qm:].T).reshape(n, 2, qm, m)
        ab = W[:, 1:, :].reshape(n, 1, 1, qm) @ J
        G = 2 * (np.conj(W[:, 0, :] + ab[:, 0, 0]) + ab[:, 1, 0])
        grad = G - np.real(np.sum(G * np.conj(Z), axis=1))[:, None] * Z
        return _objective_values(s, det), grad

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


def _descend(evaluate, starts: np.ndarray, det: np.ndarray) -> list[LocalMinimum]:
    """Riemannian steepest descent on the unit sphere from every start at once.

    The starts move in lock-step as one (n, m) array, so each iteration makes
    one evaluator call, whatever objective each start minimises: ``det``
    holds one bool per start, passed to ``evaluate`` (see
    ``_value_and_gradient``) with the start's trial point and with each of its
    probes.  A step moves against the Riemannian gradient and retracts to the
    sphere by normalising; each start keeps its own step size under an Armijo
    test.  After an accepted step the next trial step is the Barzilai-Borwein
    ratio ``<s, y> / <y, y>`` (Barzilai & Borwein 1988; the Riemannian form of
    Iannazzo & Porcelli 2018), with ``s`` the move and ``y`` the change of the
    projected gradient, both in ambient C^m and paired by ``Re`` of the
    Hermitian product (normalising is a retraction and projection a vector
    transport); where ``<s, y> <= 0`` or the ratio is not finite the step
    doubles instead.  A rejected step halves it.  Once a start's gradient norm
    is below _GRAD_TOL, one probe round (see ``_probes``) tells a minimum from
    a saddle or maximum: a probe that lowers the value by
    _PROBE_DROP * _PROBE_STEP^2 restarts the descent there with a step of 1,
    otherwise the start has converged.  A start stops unconverged when a step
    could no longer move it, or at _MAX_ITER iterations.  Values never
    increase, and ``nfev`` counts the points evaluated for a start, probes
    included.  Every operation works row by row, so a start follows the same
    trajectory, bit for bit, in any batch as alone.
    """
    n, m = starts.shape
    Z = starts.copy()
    value, grad = evaluate(Z, det)
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
        v, g = evaluate(C, np.concatenate([det[d], np.repeat(det[p], 4 * m)]))
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
        acc, rows_ok = d[ok], np.flatnonzero(ok)
        s, y = C[rows_ok] - Z[acc], g[rows_ok] - grad[acc]
        sy = np.real(np.sum(s * np.conj(y), axis=1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bb = sy / np.real(np.sum(y * np.conj(y), axis=1))
        step[acc] = np.where((sy > 0) & np.isfinite(bb), bb, 2.0 * step[acc])
        step[d[~ok]] *= 0.5
        active[d[~ok & (step[d] * gnorm[d] < _MIN_MOVE)]] = False

        moved = np.concatenate([acc, p[escape]])
        rows = np.concatenate([rows_ok, best[escape]])
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
    det = np.array([_is_det(E, opts.objective)])
    return _descend(_value_and_gradient(E), z0v[None, :], det)[0]


def multistart_minimize(
    E: GraphEmbedding,
    restarts: int,
    seed: int,
    opts: MinimizeOptions = MinimizeOptions(),
) -> CertificateReport:
    """Riemannian descent from seeded starts plus a coarse-scan argmin.

    The one-objective case of ``multistart_minimize_many``.
    """
    return multistart_minimize_many(E, restarts, seed, [opts])[0]


def multistart_minimize_many(
    E: GraphEmbedding,
    restarts: int,
    seed: int,
    runs: Sequence[MinimizeOptions],
) -> list[CertificateReport]:
    """One multistart report per options in ``runs``, from one batched descent.

    The starts of a run are the argmin of its objective over a fixed-size
    coarse scan of seeded sphere samples, then the first ``restarts`` samples
    of the same stream.  One ``IndependenceEvaluator`` ranks the scan once
    for every run, and the starts of every run, run after run, descend
    together in one batch (``_descend``) on one evaluator.  Each start
    follows the trajectory it takes alone, so a run's report does not depend
    on the other runs in the batch.  The same evaluator ranks each run's best
    point, and ``_verdict`` decides on that point's singular values, as a
    sweep's on all of its samples.  Deterministic for fixed (restarts, seed).
    """
    restarts, seed = _check_range("restarts", restarts), _check_range("seed", seed)
    dets = [_is_det(E, opts.objective) for opts in runs]
    evaluate = _value_and_gradient(E)
    ev = IndependenceEvaluator(E)
    n_scan = max(_COARSE_SCAN, restarts)
    Z = sample_sphere(E.m, n_scan, seed)
    s_scan = ev.singular_values_many(Z)
    per_run = restarts + 1
    starts = np.concatenate(
        [Z[np.r_[np.argmin(_objective_values(s_scan, det)), :restarts]] for det in dets]
    )
    minima = _descend(evaluate, starts, np.repeat(dets, per_run))
    minima = [minima[k * per_run : (k + 1) * per_run] for k in range(len(runs))]
    bests = [run[int(np.argmin([lm.value for lm in run]))] for run in minima]
    s = ev.singular_values_many(np.array([best.z for best in bests]))  # the verdicts' points
    return [
        CertificateReport(
            label=E.label,
            samples=n_scan,
            seed=seed,
            tol=opts.tol,
            restarts=restarts,
            min_sigma=float(si[-1]),
            sigma_max_at_argmin=float(si[0]),
            argmin_z=best.z,
            converged_minima=tuple((lm.z, lm.value) for lm in run if lm.converged),
            verdict=_verdict(si[None, :], opts.tol),
            objective=opts.objective,
            best_value=best.value,
            extras={
                "unconverged_restarts": sum(1 for lm in run if not lm.converged),
            },
        )
        for opts, run, best, si in zip(runs, minima, bests, s)
    ]


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
