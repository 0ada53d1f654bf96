"""Shared helpers for the test suite: seeded random polynomials and points."""

from fractions import Fraction

import numpy as np

from crsphere import GaussianRational, GraphEmbedding, IndependenceEvaluator, WPolynomial

UNIT_COEFFS = (
    GaussianRational.of(1),
    GaussianRational.of(-1),
    GaussianRational.of(0, 1),
    GaussianRational.of(0, -1),
)


def random_unit(rng, m):
    """Uniform random point on the unit sphere of C^m."""
    x = rng.standard_normal(2 * m)
    x /= np.linalg.norm(x)
    return x[:m] + 1j * x[m:]


def random_wpoly(rng, m, max_degree=4, n_terms=6, unit_coeffs=True):
    """Random sparse polynomial of total degree <= max_degree.

    With unit_coeffs the coefficients are drawn from {1, -1, i, -i};
    otherwise they are small random Gaussian rationals.
    """
    terms = {}
    for _ in range(n_terms):
        deg = int(rng.integers(0, max_degree + 1))
        exps = [0] * (2 * m)
        for _ in range(deg):
            exps[int(rng.integers(0, 2 * m))] += 1
        key = (tuple(exps[:m]), tuple(exps[m:]))
        if unit_coeffs:
            coeff = UNIT_COEFFS[int(rng.integers(0, 4))]
        else:
            coeff = GaussianRational.of(
                Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))),
                Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))),
            )
        terms[key] = coeff
    return WPolynomial(m, terms)


def random_embedding(seed, m, q):
    """Graph embedding of q seeded random polynomials in m variables."""
    rng = np.random.default_rng(seed)
    fs = tuple(random_wpoly(rng, m) for _ in range(q))
    return GraphEmbedding(m, q, fs, f"random-m{m}-q{q}")


def minor_singular_values(E, Z):
    """Reference singular values (n, 2) of a q = 1 embedding from its 2 x 2 minors.

    The Gram determinant D is summed pair by pair from the minors
    ``z_i g_j - z_j g_i`` (Lagrange's identity), then
    ``sigma_max^2 = (|z|^2 + |g|^2 + hypot(|z|^2 - |g|^2, 2 |<z, g>|)) / 2``
    and ``sigma_min^2 = D / sigma_max^2``, in real arithmetic on coordinate
    rows.  O(m^2) work a point; the rank layer forms the section instead.
    """
    g = IndependenceEvaluator(E).matrix_many(Z)[:, 1, :]
    zr, zi, gr, gi = Z.real.T, Z.imag.T, g.real.T, g.imag.T
    D = np.zeros(len(Z))
    for i in range(E.m - 1):  # the minors (i, j) for all j > i at once
        j = slice(i + 1, None)
        re = (zr[i] * gr[j] - zi[i] * gi[j]) - (zr[j] * gr[i] - zi[j] * gi[i])
        im = (zr[i] * gi[j] + zi[i] * gr[j]) - (zr[j] * gi[i] + zi[j] * gr[i])
        for minor_sq in re * re + im * im:
            D += minor_sq
    zz = _sum_rows(zr * zr + zi * zi)
    gg = _sum_rows(gr * gr + gi * gi)
    zg = np.sqrt(_sum_rows(zr * gr + zi * gi) ** 2 + _sum_rows(zi * gr - zr * gi) ** 2)
    smax_sq = (zz + gg + np.hypot(zz - gg, 2 * zg)) / 2
    smin_sq = np.divide(D, smax_sq, out=np.zeros_like(D), where=smax_sq > 0)
    return np.sqrt(np.stack([smax_sq, smin_sq], axis=1))


def _sum_rows(rows):
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total
