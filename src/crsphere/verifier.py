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
third takes its Jacobians from ``WPolynomial.eval``, term by term over the
whole batch, shares no evaluation code with the first two and serves as an
independent oracle.  ``equivalence_check_many`` runs all three on a batch of
points, with ``IndependenceEvaluator.singular_values_many`` (the one rank
layer behind every verdict) as its rank route, and reports any disagreement
as an internal inconsistency.  A fault shared by all three goes unseen.

For one graph function (q = 1) the matrix has rows z and g = df/dzbar, and
it drops rank exactly where the section ``v = g - (<g, z> / |z|^2) z``, g's
part orthogonal to z, vanishes.  The rank layer forms v in O(m) work a point
and takes the Gram determinant as ``|z|^2 |v|^2``.  Unlike
``|z|^2 |g|^2 - |<z, g>|^2`` this does not cancel, so sigma_min reaches 0
where g is parallel to z, not 1e-8.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from ._lazy import LazyNumpy
from .catalog import ConfigError, GraphEmbedding, norm_sq, require_on_sphere
from .wirtinger import CompiledEvaluator, NonFiniteError, WPolynomial

np = LazyNumpy(__name__)

DEFAULT_RANK_TOL = 1e-8

# points with sigma_min within this factor of the rank threshold (either side)
# are flagged as numerically suspicious
MARGINAL_FACTOR = 10.0


class RankToleranceError(RuntimeError):
    """Raised when a rank decision is numerically inconsistent."""


def _check_tol(tol: float) -> float:
    """The tolerance as a Python float, so a numpy scalar never reaches a report."""
    # sigma_min <= sigma_max, so at tol >= 1/MARGINAL_FACTOR every full-rank
    # matrix lies in the marginal band and no run can end all-regular
    if not 0 < tol < 1 / MARGINAL_FACTOR:  # NaN too
        raise ConfigError("tol", f"must lie in (0, {1 / MARGINAL_FACTOR}), got {tol}")
    return float(tol)


def numerical_rank(singular_values: np.ndarray, tol: float) -> np.ndarray | np.integer:
    """Number of singular values above tol * sigma_max, over the last axis.

    Singular values are non-negative and come in descending order, so
    sigma_max is the first and sigma_max == 0 gives rank 0.
    """
    _check_tol(tol)
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


def wedge_nonzero(forms, tol: float = DEFAULT_RANK_TOL) -> bool | np.ndarray:
    """Whether the wedge of k (1,0)-forms is nonzero, via the rank of their coefficients.

    ``forms`` holds one coefficient row per form, shape (k, d), and gives a
    bool; a stack of such sets, shape (n, k, d), gives one bool per set.
    """
    _check_tol(tol)
    M = np.asarray(forms, dtype=np.complex128)
    if M.ndim not in (2, 3) or not M.shape[-2]:
        raise ValueError(f"need a non-empty stack of coefficient rows, got shape {M.shape}")
    k, d = M.shape[-2:]
    if k > d:
        raise ValueError(f"{k} forms cannot be independent in dimension {d}")
    independent = numerical_rank(np.linalg.svd(M, compute_uv=False), tol) == k
    return bool(independent) if M.ndim == 2 else independent


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
        grads = self._dzbar.rows(Z).T.reshape(Z.shape[0], self.q, self.m)
        return np.concatenate([Z[:, None, :], grads], axis=1)

    def singular_values_many(self, points: np.ndarray) -> np.ndarray:
        """Singular values (descending) per point, shape (n, q+1).

        For q = 1 they come in closed form from the rows z and g of the 2 x m
        matrix, taken as coordinate rows: z from the points, g straight from
        the evaluator, so no (n, 2, m) stack is built.
        ``sigma_max^2 + sigma_min^2 = |z|^2 + |g|^2``, and
        ``sigma_max^2 sigma_min^2 = D``, the Gram determinant.  D comes from
        the section ``v = g - (<g, z> / |z|^2) z``, g's part orthogonal to z,
        with ``<g, z> = sum_k g_k conj(z_k)``: ``D = |z|^2 |v|^2``, O(m) work
        a point.  It is never taken as ``|z|^2 |g|^2 - |<z, g>|^2``, whose
        cancellation leaves an error of a rounding unit of ``|z|^2 |g|^2`` in
        D, so sigma_min near 1e-8, not 0, where g is parallel to z.  Each
        component of v is off by a few rounding units of |g| at most, so
        sigma_min is off by a few units of sigma_max, however small v is.  The
        discriminant of the quadratic for ``sigma_max^2`` is written as the sum
        of squares ``(|z|^2 - |g|^2)^2 + 4 |<z, g>|^2``, not as ``tr^2 - 4D``,
        so ``sigma_max`` keeps full precision where the two values nearly meet;
        then ``sigma_min^2 = D / sigma_max^2``.  v and the sums are formed in
        real arithmetic on the real and imaginary parts, each sum accumulated
        coordinate by coordinate, so every point rounds the same alone as in
        any batch.  A sum that overflows a float raises ``NonFiniteError``.
        For q > 1 a batched SVD.
        """
        Z = np.asarray(points, dtype=np.complex128)
        if self.q > 1:
            return np.linalg.svd(self.matrix_many(Z), compute_uv=False)
        g = self._dzbar.rows(Z)
        zr, zi = np.ascontiguousarray(Z.real.T), np.ascontiguousarray(Z.imag.T)
        gr, gi = g.real.copy(), g.imag.copy()
        t, u = np.empty_like(zr), np.empty_like(zr)  # reused for every product

        def sum_of(a, b, c, d, combine=np.add):
            """The sum over coordinates of ``combine(a * b, c * d)``."""
            return _sum_rows(combine(np.multiply(a, b, out=t), np.multiply(c, d, out=u), out=t))

        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            zz = sum_of(zr, zr, zi, zi)
            gg = sum_of(gr, gr, gi, gi)
            pr = sum_of(zr, gr, zi, gi)  # <g, z> = pr + i pi
            pi = sum_of(zr, gi, zi, gr, np.subtract)
            smax_sq = (zz + gg + np.hypot(zz - gg, 2 * np.sqrt(pr**2 + pi**2))) / 2
            # v = g - c z with c = <g, z> / |z|^2, formed in place over g
            cr, ci = pr / zz, pi / zz
            gr -= np.multiply(cr, zr, out=t)
            gr += np.multiply(ci, zi, out=t)
            gi -= np.multiply(cr, zi, out=t)
            gi -= np.multiply(ci, zr, out=t)
            D = zz * sum_of(gr, gr, gi, gi)
            smin_sq = np.divide(D, smax_sq, out=np.zeros_like(D), where=smax_sq > 0)
            s = np.stack([smax_sq, smin_sq], axis=1)
        if not np.isfinite(s).all():
            z = Z[np.argmin(np.isfinite(s).all(axis=1))].tolist()
            raise NonFiniteError(f"singular values overflow a float at z = {z}")
        return np.sqrt(s)


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """The sum over the first axis, row by row in order.

    ``np.sum`` over that axis would switch to pairwise summation along it
    when a batch holds one point, and round that point differently.
    """
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


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
    _check_tol(tol)
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
    from ``WPolynomial.eval``, one call per derivative over the whole stack.
    The rest also works on the whole stack, in real coordinates: T is spanned
    by the pushforwards of an orthonormal real basis of the sphere tangent, J
    acts as multiplication by i, and the intersection dimension comes from
    dim(T) + dim(JT) - rank([T; JT]).
    """
    n, m = Z.shape
    dz = [fj.d_z(k) for fj in E.f for k in range(m)]
    dzbar = [fj.d_zbar(k) for fj in E.f for k in range(m)]
    # A[:, k, j] = d f_j / dz_k, B[:, k, j] = d f_j / dzbar_k
    A = np.stack([p.eval(Z) for p in dz], axis=-1).reshape(n, E.q, m).transpose(0, 2, 1)
    B = np.stack([p.eval(Z) for p in dzbar], axis=-1).reshape(n, E.q, m).transpose(0, 2, 1)
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
    _check_tol(tol)
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
    _check_tol(tol)
    Z = require_on_sphere(points, E.m, stack=True)

    s = IndependenceEvaluator(E).singular_values_many(Z)
    rank_pass = numerical_rank(s, tol) == E.q + 1

    rhos = defining_functions(E)
    mq = E.m + E.q
    image = np.concatenate([Z, CompiledEvaluator(E.f).rows(Z).T], axis=1)
    forms = CompiledEvaluator([r.d_z(j) for r in rhos for j in range(mq)]).rows(image)
    wedge_pass = wedge_nonzero(forms.T.reshape(len(Z), len(rhos), mq), tol)

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
