"""Catalog of polynomial graph embeddings of odd spheres.

The unit sphere S^{2m-1} sits in C^m; a graph embedding sends z on the sphere
to (z, f_1(z), ..., f_q(z)) in C^{m+q}.  This module builds the classical
Ahern-Rudin quartic that makes S^3 totally real in C^3, its block-sum
extension that makes S^{4n-1} CR regular in C^{2n+1}, and a few engineered
negative controls whose graphs fail the regularity criterion at every point.
It also performs, in exact arithmetic, the determinant identity check that
underlies the Ahern-Rudin construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from ._lazy import LazyNumpy
from .wirtinger import GR_I, MAX_VARIABLES, WPolynomial, json_int

np = LazyNumpy(__name__)

SPHERE_TOL = 1e-12

NEGATIVE_CONTROL_KINDS = ("holomorphic", "zero", "radial")


class ConfigError(ValueError):
    """A setting out of its range; ``name`` is the parameter, also its CLI flag."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"{name}: {reason}")
        self.name = name


def sphere_defect(z: Sequence[complex]) -> float | np.ndarray:
    """| ||z|| - 1 | of a point of C^m, or of each point of a stack (last axis)."""
    return np.abs(np.linalg.norm(np.asarray(z, dtype=np.complex128), axis=-1) - 1.0)


def require_on_sphere(z: Sequence[complex], m: int, stack: bool = False) -> np.ndarray:
    """The point of C^m, or with ``stack`` the points (n, m), as a complex array.

    Raises ValueError if the shape is not (m,), or (n, m) with ``stack``, or
    any point is off the unit sphere by more than SPHERE_TOL.
    """
    zv = np.asarray(z, dtype=np.complex128)
    if zv.ndim != 1 + stack or zv.shape[-1] != m:
        expected = f"an (n, {m}) stack of points" if stack else "one point"
        raise ValueError(f"expected {expected} of length {m}, got shape {zv.shape}")
    defect = float(np.max(sphere_defect(zv), initial=0.0))
    if defect > SPHERE_TOL:
        raise ValueError(
            f"point is off the unit sphere: | ||z|| - 1 | = {defect:.3e} > {SPHERE_TOL:.1e}"
        )
    return zv


@dataclass(frozen=True)
class GraphEmbedding:
    """Graph embedding of S^{2m-1} into C^{m+q} via q polynomial graph functions."""

    m: int
    q: int
    f: tuple[WPolynomial, ...]
    label: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.f) != self.q:
            raise ValueError(f"q={self.q} but {len(self.f)} graph functions given")
        if not 1 <= self.q <= self.m - 1:
            raise ValueError(f"need 1 <= q <= m-1, got q={self.q}, m={self.m}")
        for j, fj in enumerate(self.f):
            if fj.m != self.m:
                raise ValueError(
                    f"graph function {j} has {fj.m} variables, expected {self.m}"
                )

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "q": self.q,
            "label": self.label,
            "f": [fj.to_json_dict() for fj in self.f],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "GraphEmbedding":
        label = data["label"]
        if type(label) is not str:
            raise ValueError(f"label must be a string, got {label!r}")
        label.encode("utf-8")  # a lone surrogate cannot be printed: UnicodeEncodeError
        return GraphEmbedding(
            m=json_int(data["m"], "m"),
            q=json_int(data["q"], "q"),
            f=tuple(WPolynomial.from_json_dict(d) for d in data["f"]),
            label=label,
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def loads(text: str) -> "GraphEmbedding":
        return GraphEmbedding.from_json_dict(json.loads(text))


def make_ar_polynomial() -> WPolynomial:
    """The Ahern-Rudin quartic  z2*zb1*zb2^2 + i*z1*zb1^2*zb2  in two variables."""
    return WPolynomial(
        2,
        {
            ((0, 1), (1, 2)): 1,
            ((1, 0), (2, 1)): GR_I,
        },
    )


def make_block_sum(n: int) -> WPolynomial:
    """Sum of Ahern-Rudin quartics over n disjoint coordinate pairs (2n variables)."""
    if n < 1:
        raise ValueError(f"block count must be >= 1, got {n}")
    P = make_ar_polynomial()
    return sum((P.shifted(2 * n, 2 * k) for k in range(n)), WPolynomial.zero(2 * n))


def norm_sq(m: int) -> WPolynomial:
    """|z|^2 = sum_k z_k zbar_k in m variables."""
    return sum(
        (WPolynomial.variable(m, k) * WPolynomial.conj_variable(m, k) for k in range(m)),
        WPolynomial.zero(m),
    )


def make_graph_embedding(
    m: int, fs: Sequence[WPolynomial], label: str = "custom"
) -> GraphEmbedding:
    """Validated graph embedding with graph functions ``fs`` (1 <= len(fs) <= m-1)."""
    return GraphEmbedding(m=m, q=len(fs), f=tuple(fs), label=label)


def ar_embedding() -> GraphEmbedding:
    """The totally real S^3 -> C^3 graph embedding of the Ahern-Rudin quartic."""
    return make_graph_embedding(2, [make_ar_polynomial()], label="ahern-rudin")


def block_sum_embedding(n: int) -> GraphEmbedding:
    """The CR regular S^{4n-1} -> C^{2n+1} embedding graphing the n-block quartic sum.

    n lies in [1, MAX_VARIABLES // 2], so that the embedding file loads.
    """
    if not 1 <= n <= MAX_VARIABLES // 2:
        raise ConfigError("n", f"the block count must lie in [1, {MAX_VARIABLES // 2}], "
                               f"got {n}")
    return make_graph_embedding(2 * n, [make_block_sum(n)], label=f"block-sum-n{n}")


def make_negative_control(kind: str, m: int) -> GraphEmbedding:
    """Engineered single-function graphs that fail the regularity criterion everywhere.

    ``holomorphic``: f = z_1^2, so df/dzbar vanishes identically.
    ``zero``:        f = 0.
    ``radial``:      f = sum_k z_k zbar_k, so df/dzbar = z, parallel to the base row.

    m lies in [2, MAX_VARIABLES], so that the embedding file loads.
    """
    if not 2 <= m <= MAX_VARIABLES:
        raise ConfigError("m", f"controls need m >= 2 and at most {MAX_VARIABLES} "
                               f"variables, got m={m}")
    if kind == "holomorphic":
        f = WPolynomial.monomial(m, (2,) + (0,) * (m - 1), (0,) * m, 1)
    elif kind == "zero":
        f = WPolynomial.zero(m)
    elif kind == "radial":
        f = norm_sq(m)
    else:
        raise ValueError(
            f"unknown control kind {kind!r}; expected one of {NEGATIVE_CONTROL_KINDS}"
        )
    return make_graph_embedding(m, [f], label=f"{kind}-control-m{m}")


def eval_embedding(E: GraphEmbedding, z: Sequence[complex]) -> np.ndarray:
    """Image point (z, f_1(z), ..., f_q(z)); input must lie on the unit sphere."""
    zv = require_on_sphere(z, E.m)
    return np.concatenate([zv, np.array([fj.eval(zv) for fj in E.f])])


@dataclass(frozen=True)
class ArIdentityResult:
    """Outcome of the exact quartic determinant identity check."""

    lhs: WPolynomial
    rhs: WPolynomial
    residual: WPolynomial
    holds: bool


def verify_ar_identity(rhs_perturbation: WPolynomial | None = None) -> ArIdentityResult:
    """Exact check that z2*dP/dzbar1 - z1*dP/dzbar2 equals its closed quartic form.

    The left side is computed from the Ahern-Rudin quartic P by formal
    differentiation; the right side is |z2|^2(|z2|^2 - 2|z1|^2)
    - i|z1|^2(|z1|^2 - 2|z2|^2) expanded with |z_k|^2 -> z_k*zbar_k so the
    comparison is equality of canonical forms, with no tolerances.  An
    optional perturbation can be added to the right side for fault-injection
    self-tests.
    """
    P = make_ar_polynomial()
    z1 = WPolynomial.variable(2, 0)
    z2 = WPolynomial.variable(2, 1)
    lhs = z2 * P.d_zbar(0) - z1 * P.d_zbar(1)

    r1 = WPolynomial.monomial(2, (1, 0), (1, 0), 1)  # |z1|^2
    r2 = WPolynomial.monomial(2, (0, 1), (0, 1), 1)  # |z2|^2
    rhs = r2 * (r2 - 2 * r1) - GR_I * (r1 * (r1 - 2 * r2))
    if rhs_perturbation is not None:
        rhs = rhs + rhs_perturbation
    residual = lhs - rhs
    return ArIdentityResult(lhs=lhs, rhs=rhs, residual=residual, holds=residual.is_zero)


def block_support_ok(p: WPolynomial, n: int) -> bool:
    """True iff every term of ``p`` involves variables of a single pair {2k, 2k+1}."""
    if p.m != 2 * n:
        raise ValueError(f"expected {2 * n} variables, got {p.m}")
    for alpha, beta in p.terms:
        blocks = {
            k // 2
            for k in range(2 * n)
            if alpha[k] > 0 or beta[k] > 0
        }
        if len(blocks) > 1:
            return False
    return True


def restrict_to_block(p: WPolynomial, n: int, k: int) -> WPolynomial:
    """Set all variables outside pair k to zero and reindex the survivors to (z1, z2)."""
    if p.m != 2 * n:
        raise ValueError(f"expected {2 * n} variables, got {p.m}")
    if not 0 <= k < n:
        raise ValueError(f"block index {k} out of range for n={n}")
    keep = (2 * k, 2 * k + 1)
    terms = {}
    for (alpha, beta), c in p.terms.items():
        outside = any(
            (alpha[i] > 0 or beta[i] > 0) for i in range(2 * n) if i not in keep
        )
        if outside:
            continue
        key = ((alpha[keep[0]], alpha[keep[1]]), (beta[keep[0]], beta[keep[1]]))
        terms[key] = c
    return WPolynomial(2, terms)
