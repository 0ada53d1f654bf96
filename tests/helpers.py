"""Shared helpers for the test suite: seeded random polynomials and points."""

from fractions import Fraction

import numpy as np

from crsphere import GaussianRational, GraphEmbedding, WPolynomial

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
