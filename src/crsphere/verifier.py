"""Pointwise CR-regularity checks for sphere graph embeddings.

Three routes to the same verdict at a sphere point z:

* rank of the (q+1) x m independence matrix whose rows are z and the
  antiholomorphic gradients df_j/dzbar(z);
* non-vanishing of the wedge of the 2q+1 holomorphic differentials of the
  real defining functions of the graph, evaluated at the image point;
* the tangent-space count dim_C(T ∩ JT) for the pushed-forward sphere
  tangent T, computed by brute-force real linear algebra.

The embedding is CR regular at z exactly when the matrix has full rank q+1,
when the wedge is nonzero, and when the tangent count equals m-q-1.  The
first two routes evaluate their polynomials with ``CompiledEvaluator``; the
third takes its Jacobians from the scalar ``WPolynomial.eval``, shares no
evaluation code with the first two and serves as an independent oracle.
``equivalence_check_many`` runs all three on a batch of points and reports
any disagreement as an internal inconsistency.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .catalog import GraphEmbedding, norm_sq, require_on_sphere
from .wirtinger import CompiledEvaluator, WPolynomial

DEFAULT_RANK_TOL = 1e-8

# points with sigma_min within this factor of the rank threshold (either side)
# are flagged as numerically suspicious
MARGINAL_FACTOR = 10.0


class RankToleranceError(RuntimeError):
    """Raised when a rank decision is numerically inconsistent."""


def numerical_rank(singular_values: np.ndarray, tol: float) -> np.ndarray | np.integer:
    """Number of singular values above tol * sigma_max, over the last axis.

    Singular values are non-negative and come in descending order, so
    sigma_max is the first and sigma_max == 0 gives rank 0.
    """
    s = np.asarray(singular_values, dtype=float)
    return np.sum(s > tol * s[..., :1], axis=-1)


def _is_marginal(sigma_min, sigma_max, tol: float):
    """Whether sigma_min lies within MARGINAL_FACTOR of the rank threshold."""
    threshold = tol * np.asarray(sigma_max)
    return (threshold / MARGINAL_FACTOR < sigma_min) & (
        sigma_min < threshold * MARGINAL_FACTOR
    )


# -- differential forms at a point ---------------------------------------------
# A (1,0)-form sum_j c_j dz_j is its coefficient vector c; a 2-form
# sum_{i<j} c_ij dz_i ^ dz_j is its antisymmetric coefficient matrix.

def wedge(a: Sequence[complex], b: Sequence[complex]) -> np.ndarray:
    """Wedge product of two (1,0)-forms, as the antisymmetric coefficient matrix."""
    outer = np.outer(a, b)
    return outer - outer.T


def del_form(rho: WPolynomial, w: Sequence[complex]) -> np.ndarray:
    """Holomorphic differential of a real polynomial at a point, as its coefficients."""
    if not rho.is_real():
        raise ValueError("del_form requires a real polynomial")
    wv = np.asarray(w, dtype=np.complex128)
    if len(wv) != rho.m:
        raise ValueError(f"point has length {len(wv)}, expected {rho.m}")
    return np.array([rho.d_z(j).eval(wv) for j in range(rho.m)])


def wedge_nonzero(forms, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Whether the wedge of k (1,0)-forms is nonzero, via the rank of their coefficients.

    ``forms`` holds one coefficient row per form: a list of vectors or a 2-D array.
    """
    M = np.asarray(forms, dtype=np.complex128)
    if M.ndim != 2 or not len(M):
        raise ValueError(f"need a non-empty stack of coefficient rows, got shape {M.shape}")
    if len(M) > M.shape[1]:
        raise ValueError(f"{len(M)} forms cannot be independent in dimension {M.shape[1]}")
    s = np.linalg.svd(M, compute_uv=False)
    return bool(numerical_rank(s, tol) == len(M))


# -- criterion 1: the independence matrix ---------------------------------------

class IndependenceEvaluator:
    """Precompiled evaluator for the independence matrix of one embedding."""

    def __init__(self, E: GraphEmbedding):
        self.m = E.m
        self.q = E.q
        # d/dzbar_k f_j in row-major (j, k) order
        self._dzbar = CompiledEvaluator(
            [fj.d_zbar(k) for fj in E.f for k in range(E.m)]
        )

    def matrix_many(self, points: np.ndarray) -> np.ndarray:
        """Stack of independence matrices, shape (n, q+1, m)."""
        Z = np.asarray(points, dtype=np.complex128)
        grads = self._dzbar(Z).reshape(Z.shape[0], self.q, self.m)
        return np.concatenate([Z[:, None, :], grads], axis=1)

    def singular_values_many(self, points: np.ndarray) -> np.ndarray:
        """Singular values (descending) per point, shape (n, q+1).

        For q = 1 they come in closed form from the rows z and g of the 2 x m
        matrix.  ``sigma_max^2 + sigma_min^2 = |z|^2 + |g|^2``, and
        ``sigma_max^2 sigma_min^2 = D``, the Gram determinant, which Lagrange's
        identity gives as the sum over i < j of ``|z_i g_j - z_j g_i|^2``.  D is
        summed from these minors, never as ``|z|^2 |g|^2 - |<z, g>|^2``, whose
        cancellation leaves sigma_min near 1e-8, not 0, where g is parallel to
        z.  The discriminant of the quadratic for ``sigma_max^2`` is written as
        the sum of squares ``(|z|^2 - |g|^2)^2 + 4 |<z, g>|^2``, not as
        ``tr^2 - 4D``, so ``sigma_max`` keeps full precision where the two
        values nearly meet; then ``sigma_min^2 = D / sigma_max^2``.  For q > 1
        a batched SVD.
        """
        M = self.matrix_many(points)
        if self.q > 1:
            return np.linalg.svd(M, compute_uv=False)
        z, g = M[:, 0], M[:, 1]
        D = np.zeros(len(M))
        # a plain loop over the pairs beats gathering them with triu_indices
        for i in range(self.m):
            for j in range(i + 1, self.m):
                minor = z[:, i] * g[:, j] - z[:, j] * g[:, i]
                D += minor.real**2 + minor.imag**2
        zz = np.sum(z.real**2 + z.imag**2, axis=1)
        gg = np.sum(g.real**2 + g.imag**2, axis=1)
        zg = np.abs(np.sum(z * np.conj(g), axis=1))
        smax_sq = (zz + gg + np.hypot(zz - gg, 2 * zg)) / 2
        smin_sq = np.divide(D, smax_sq, out=np.zeros_like(D), where=smax_sq > 0)
        return np.sqrt(np.stack([smax_sq, smin_sq], axis=1))


def independence_matrix(E: GraphEmbedding, z: Sequence[complex]) -> np.ndarray:
    """Rows: z, then df_j/dzbar(z) for each graph function.  Shape (q+1, m)."""
    zv = require_on_sphere(z, E.m)
    return IndependenceEvaluator(E).matrix_many(zv[None, :])[0]


@dataclass(frozen=True)
class IndependenceReport:
    """Rank verdict for the independence matrix at one sphere point."""

    z: tuple[complex, ...]
    sigma_min: float
    sigma_max: float
    rank: int
    cr_regular: bool
    marginal: bool
    tol: float


def point_report(
    E: GraphEmbedding, z: Sequence[complex], tol: float = DEFAULT_RANK_TOL
) -> IndependenceReport:
    """Singular-value rank test of the independence matrix at z."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    zv = require_on_sphere(z, E.m)
    s = IndependenceEvaluator(E).singular_values_many(zv[None, :])[0]
    rank = int(numerical_rank(s, tol))
    return IndependenceReport(
        z=tuple(complex(w) for w in zv),
        sigma_min=float(s[-1]),
        sigma_max=float(s[0]),
        rank=rank,
        cr_regular=rank == E.q + 1,
        marginal=bool(_is_marginal(s[-1], s[0], tol)),
        tol=tol,
    )


# -- criterion 2: defining functions and their wedge ------------------------------

def defining_functions(E: GraphEmbedding) -> list[WPolynomial]:
    """The 2q+1 real polynomials in m+q variables cutting out the embedded graph.

    First the sphere equation |z|^2 - 1, then for each graph function the
    exact real and imaginary parts of z_{m+j} - f_j.
    """
    mq = E.m + E.q
    rhos = [(norm_sq(E.m) - WPolynomial.constant(E.m, 1)).shifted(mq, 0)]
    for j, fj in enumerate(E.f):
        g = WPolynomial.variable(mq, E.m + j) - fj.shifted(mq, 0)
        rhos.extend(g.real_imag())
    return rhos


# -- criterion 3: brute-force tangent-space count ----------------------------------

def _tangent_cr_dims(E: GraphEmbedding, Z: np.ndarray, tol: float) -> np.ndarray:
    """dim_C(T ∩ JT) at each point of Z, for T the pushforward of the sphere tangent.

    The holomorphic / antiholomorphic Jacobians of the graph functions come
    from the scalar ``WPolynomial.eval``.  The rest works in real coordinates
    on the whole stack: T is spanned by the pushforwards of an orthonormal real
    basis of the sphere tangent, J acts as multiplication by i, and the
    intersection dimension comes from dim(T) + dim(JT) - rank([T; JT]).
    """
    n, m = Z.shape
    dz = [fj.d_z(k) for fj in E.f for k in range(m)]
    dzbar = [fj.d_zbar(k) for fj in E.f for k in range(m)]
    A = np.array([[p.eval(z) for p in dz] for z in Z], dtype=np.complex128)
    B = np.array([[p.eval(z) for p in dzbar] for z in Z], dtype=np.complex128)
    A = A.reshape(n, E.q, m).transpose(0, 2, 1)
    B = B.reshape(n, E.q, m).transpose(0, 2, 1)
    x = np.concatenate([Z.real, Z.imag], axis=1)
    # rows 1.. of V^H from the SVD of the 1 x 2m matrix x: an orthonormal
    # basis of the sphere tangent, shape (n, 2m-1, 2m)
    basis = np.linalg.svd(x[:, None, :])[2][:, 1:, :]
    W = basis[:, :, :m] + 1j * basis[:, :, m:]        # tangent vectors as rows
    V = np.concatenate([W, W @ A + np.conj(W) @ B], axis=2)  # with their pushforwards
    T = np.concatenate([V.real, V.imag], axis=2)
    JT = np.concatenate([-V.imag, V.real], axis=2)
    s = np.linalg.svd(np.concatenate([T, JT], axis=1), compute_uv=False)
    total = 2 * (2 * m - 1) - numerical_rank(s, tol)
    odd = np.flatnonzero(total % 2)
    if odd.size:
        i = odd[0]
        raise RankToleranceError(
            f"tangent intersection has odd real dimension {total[i]} at "
            f"z = {Z[i].tolist()}; singular values near threshold: {s[i].tolist()}"
        )
    return total // 2


def cr_dim_at(
    E: GraphEmbedding, z: Sequence[complex], tol: float = DEFAULT_RANK_TOL
) -> int:
    """Complex dimension of T ∩ JT at z, for T the pushed-forward sphere tangent.

    Equals m - q - 1 exactly at CR regular points.  This is the brute-force
    oracle: it never touches the independence matrix or the defining
    functions.
    """
    zv = require_on_sphere(z, E.m)
    return int(_tangent_cr_dims(E, zv[None, :], tol)[0])


# -- the two-form identity behind the defining-function route ----------------------

def two_form_identity_check(f: WPolynomial, w: Sequence[complex]) -> float:
    """Residual of du ^ dv = (i/2) df ^ conj(dbar f) at a point, in max modulus.

    u and v are the real and imaginary parts of f, extracted exactly;
    conj(dbar f) is represented as the (1,0)-form with coefficients
    conj(df/dzbar_j).
    """
    wv = np.asarray(w, dtype=np.complex128)
    if len(wv) != f.m:
        raise ValueError(f"point has length {len(wv)}, expected {f.m}")
    u, v = f.real_imag()
    lhs = wedge(del_form(u, wv), del_form(v, wv))
    df = [f.d_z(j).eval(wv) for j in range(f.m)]
    dbar_conj = np.conj([f.d_zbar(j).eval(wv) for j in range(f.m)])
    return float(np.abs(lhs - 0.5j * wedge(df, dbar_conj)).max())


# -- agreement of all three criteria -----------------------------------------------

def complex_pairs(z: Sequence[complex]) -> list[list[float]]:
    """A point's coordinates as the ``[re, im]`` pairs that reports write."""
    return [[w.real, w.imag] for w in z]


@dataclass(frozen=True)
class EquivalenceResult:
    """Verdicts of the three criteria at one point, plus their agreement."""

    z: tuple[complex, ...]
    tol: float
    rank_pass: bool
    wedge_pass: bool
    tangent_pass: bool
    cr_dim: int
    expected_cr_dim: int
    sigma_min: float

    @property
    def agree(self) -> bool:
        return self.rank_pass == self.wedge_pass == self.tangent_pass

    @property
    def all_pass(self) -> bool:
        return self.rank_pass and self.wedge_pass and self.tangent_pass

    def to_json_dict(self) -> dict:
        return {**asdict(self), "z": complex_pairs(self.z), "agree": self.agree}


def equivalence_check_many(
    E: GraphEmbedding, points: np.ndarray, tol: float = DEFAULT_RANK_TOL
) -> list[EquivalenceResult]:
    """All three criteria at a batch of points, each route batched over the points."""
    Z = require_on_sphere(points, E.m)
    if Z.ndim != 2:
        raise ValueError(f"expected shape (n, {E.m}), got {Z.shape}")

    # an SVD, not singular_values_many: this route cross-checks the closed form
    s = np.linalg.svd(IndependenceEvaluator(E).matrix_many(Z), compute_uv=False)
    rank_pass = numerical_rank(s, tol) == E.q + 1

    rhos = defining_functions(E)
    mq = E.m + E.q
    image = np.concatenate([Z, CompiledEvaluator(E.f)(Z)], axis=1)
    forms = CompiledEvaluator([r.d_z(j) for r in rhos for j in range(mq)])(image)
    forms = forms.reshape(len(Z), len(rhos), mq)
    wedge_pass = numerical_rank(np.linalg.svd(forms, compute_uv=False), tol) == len(rhos)

    cr_dims = _tangent_cr_dims(E, Z, tol)
    expected = E.m - E.q - 1
    return [
        EquivalenceResult(
            z=tuple(z),
            tol=tol,
            rank_pass=r,
            wedge_pass=w,
            tangent_pass=cd == expected,
            cr_dim=cd,
            expected_cr_dim=expected,
            sigma_min=smin,
        )
        for z, r, w, cd, smin in zip(
            Z.tolist(), rank_pass.tolist(), wedge_pass.tolist(), cr_dims.tolist(),
            s[:, -1].tolist(),
        )
    ]
