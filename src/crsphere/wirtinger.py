"""Exact sparse polynomials in z_1..z_m and their conjugates zbar_1..zbar_m.

A polynomial is stored as a map from monomials to Gaussian-rational
coefficients:

    terms: Dict[(alpha, beta), GaussianRational]

where ``alpha`` and ``beta`` are length-m tuples of non-negative integer
exponents, the monomial being  z^alpha * zbar^beta.  z_j and zbar_j are
treated as independent commuting variables, so the formal partial
derivatives ``d_z`` / ``d_zbar`` realize the Wirtinger operators on this
class.  Coefficients are exact (pairs of ``fractions.Fraction``), which makes
polynomial identity checks plain equality of canonical forms.  Floating-point
arithmetic enters only at evaluation time.

The zero polynomial is the empty term map.  Terms are kept in canonical form
(no zero coefficients), and the canonical term order is graded lexicographic
on the concatenated exponent vector alpha+beta; it fixes the evaluation and
serialization order.

All values are immutable after construction; every operation returns a new
polynomial, so values can be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

RationalLike = Union[int, Fraction]
Key = tuple[tuple[int, ...], tuple[int, ...]]

# bounds on a polynomial read from JSON: variable count, total degree and term count
MAX_VARIABLES = 64
MAX_DEGREE = 64
MAX_TERMS = 4096
# a coefficient string's decimal exponent: Fraction expands 10**e exactly, so
# "1e10000000" alone takes seconds to parse
MAX_DECIMAL_EXPONENT = 9999
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Exact complex number re + im*i with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: RationalLike = 0, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    @staticmethod
    def coerce(value: "GaussianRational | RationalLike") -> "GaussianRational":
        g = _as_gaussian(value)
        if g is None:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return g

    def __add__(self, other: "GaussianRational | RationalLike"):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational | RationalLike"):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational | RationalLike"):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{istr})"


def _as_gaussian(value) -> GaussianRational | None:
    """An int, Fraction or GaussianRational as a GaussianRational; None otherwise."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    return None


GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


def _term_order(key: Key) -> tuple[int, tuple[int, ...]]:
    """Graded lexicographic order on the concatenated exponent vector."""
    alpha, beta = key
    return (sum(alpha) + sum(beta), alpha + beta)


class WPolynomial:
    """Sparse exact polynomial in z_1..z_m, zbar_1..zbar_m."""

    __slots__ = ("m", "_terms")

    def __init__(
        self,
        m: int,
        terms: Mapping[Key, GaussianRational | RationalLike]
        | Iterable[tuple[Key, GaussianRational | RationalLike]] = (),
    ):
        if m < 1:
            raise ValueError(f"variable count must be >= 1, got {m}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon: dict[Key, GaussianRational] = {}
        for (alpha, beta), coeff in items:
            alpha = tuple(alpha)
            beta = tuple(beta)
            if len(alpha) != m or len(beta) != m:
                raise ValueError(
                    f"exponent vectors must have length m={m}, "
                    f"got alpha={alpha}, beta={beta}"
                )
            if any(e < 0 for e in alpha) or any(e < 0 for e in beta):
                raise ValueError(f"negative exponent in ({alpha}, {beta})")
            _accumulate(canon, (alpha, beta), GaussianRational.coerce(coeff))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", canon)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int) -> "WPolynomial":
        return WPolynomial(m)

    @staticmethod
    def constant(m: int, value: GaussianRational | RationalLike) -> "WPolynomial":
        zeros = (0,) * m
        return WPolynomial(m, {(zeros, zeros): value})

    @staticmethod
    def variable(m: int, j: int) -> "WPolynomial":
        """The polynomial z_j (0-based index)."""
        _check_index(m, j)
        alpha = tuple(1 if k == j else 0 for k in range(m))
        return WPolynomial(m, {(alpha, (0,) * m): 1})

    @staticmethod
    def conj_variable(m: int, j: int) -> "WPolynomial":
        """The polynomial zbar_j (0-based index)."""
        _check_index(m, j)
        beta = tuple(1 if k == j else 0 for k in range(m))
        return WPolynomial(m, {((0,) * m, beta): 1})

    @staticmethod
    def monomial(
        m: int,
        alpha: Sequence[int],
        beta: Sequence[int],
        coeff: GaussianRational | RationalLike = 1,
    ) -> "WPolynomial":
        return WPolynomial(m, {(tuple(alpha), tuple(beta)): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Key, GaussianRational]:
        """Canonical term map.  Treat as read-only."""
        return self._terms

    def sorted_terms(self) -> list[tuple[Key, GaussianRational]]:
        """Terms in canonical (graded lexicographic) order."""
        return sorted(self._terms.items(), key=lambda kv: _term_order(kv[0]))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(a) + sum(b) for a, b in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WPolynomial):
            return NotImplemented
        return self.m == other.m and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (alpha, beta), c in self.sorted_terms():
            factors = [f"z{k + 1}" + (f"^{e}" if e > 1 else "")
                       for k, e in enumerate(alpha) if e > 0]
            factors += [f"zb{k + 1}" + (f"^{e}" if e > 1 else "")
                        for k, e in enumerate(beta) if e > 0]
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == GR_ONE:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"WPolynomial(m={self.m}, {self})"

    # -- ring operations ---------------------------------------------------

    def _require_same_m(self, other: "WPolynomial") -> None:
        if self.m != other.m:
            raise ValueError(
                f"variable count mismatch: {self.m} vs {other.m}"
            )

    def __add__(self, other: "WPolynomial") -> "WPolynomial":
        if not isinstance(other, WPolynomial):
            return NotImplemented
        self._require_same_m(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            _accumulate(out, key, c)
        return _raw(self.m, out)

    def __sub__(self, other: "WPolynomial") -> "WPolynomial":
        if not isinstance(other, WPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "WPolynomial":
        return _raw(self.m, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "WPolynomial | GaussianRational | RationalLike"):
        if isinstance(other, WPolynomial):
            self._require_same_m(other)
            out: dict[Key, GaussianRational] = {}
            for (a1, b1), c1 in self._terms.items():
                for (a2, b2), c2 in other._terms.items():
                    key = (
                        tuple(x + y for x, y in zip(a1, a2)),
                        tuple(x + y for x, y in zip(b1, b2)),
                    )
                    _accumulate(out, key, c1 * c2)
            return _raw(self.m, out)
        scalar = GaussianRational.coerce(other)
        if not scalar:
            return WPolynomial.zero(self.m)
        return _raw(self.m, {k: c * scalar for k, c in self._terms.items()})

    def __rmul__(self, other: "GaussianRational | RationalLike") -> "WPolynomial":
        return self.__mul__(other)

    # -- conjugation and Wirtinger derivatives ------------------------------

    def conj(self) -> "WPolynomial":
        """Complex conjugate: swaps z- and zbar-exponents, conjugates coefficients."""
        return _raw(
            self.m,
            {(b, a): c.conjugate() for (a, b), c in self._terms.items()},
        )

    def is_real(self) -> bool:
        """True iff the polynomial equals its own conjugate."""
        return self.conj() == self

    def real_imag(self) -> tuple["WPolynomial", "WPolynomial"]:
        """The real polynomials u = (p + conj p)/2 and v = (p - conj p)/(2i), so p = u + i*v."""
        c = self.conj()
        u = (self + c) * Fraction(1, 2)
        v = (self - c) * GaussianRational.of(0, Fraction(-1, 2))  # 1/(2i)
        return u, v

    def d_z(self, j: int) -> "WPolynomial":
        """Formal partial derivative with respect to z_j (0-based)."""
        return self._derivative(j, 0)

    def d_zbar(self, j: int) -> "WPolynomial":
        """Formal partial derivative with respect to zbar_j (0-based)."""
        return self._derivative(j, 1)

    def _derivative(self, j: int, side: int) -> "WPolynomial":
        """d/dz_j (side 0) or d/dzbar_j (side 1): lower that exponent, scale by it."""
        _check_index(self.m, j)
        out: dict[Key, GaussianRational] = {}
        for (alpha, beta), c in self._terms.items():
            exps = beta if side else alpha
            e = exps[j]
            if e:
                lowered = exps[:j] + (e - 1,) + exps[j + 1:]
                _accumulate(out, (alpha, lowered) if side else (lowered, beta), c * e)
        return _raw(self.m, out)

    # -- evaluation ---------------------------------------------------------

    def eval(self, z) -> "complex | np.ndarray":
        """Value at one point of C^m, shape (m,), or at each point of a stack (..., m).

        The terms are summed in canonical order, each one a numpy product over
        the whole stack.  One point gives a Python complex, a stack an array of
        shape ``z.shape[:-1]``.  A coefficient or a value that is not a finite
        float raises ``NonFiniteError``.
        """
        Z = np.asarray(z, dtype=np.complex128)
        if Z.shape[-1:] != (self.m,):
            raise ValueError(f"points must have length {self.m} on the last axis, "
                             f"got shape {Z.shape}")
        # real arithmetic on the real and imaginary parts: numpy fuses complex
        # products (FMA) in some of its loops and not in others, so complex
        # arrays could give a point other bits alone than in a stack.  Each
        # term is rounded as Python's scalar complex arithmetic rounds
        # c * z_1**a_1 * ... * zbar_m**b_m.
        stack = Z.reshape(-1, self.m)
        x, y = stack.real.T, stack.imag.T
        factors = ((x, y), (x, -y))  # z and zbar, one row per coordinate
        total = np.zeros(len(stack), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            for (alpha, beta), c in self.sorted_terms():
                try:
                    c = complex(c)
                except OverflowError:
                    raise NonFiniteError("a coefficient overflows a float") from None
                re, im = np.full(len(stack), c.real), np.full(len(stack), c.imag)
                for (zr, zi), exps in zip(factors, (alpha, beta)):
                    for k, e in enumerate(exps):
                        if e:
                            pr, pi = _power(zr[k], zi[k], e)
                            re, im = re * pr - im * pi, re * pi + im * pr
                total.real += re
                total.imag += im
        if not np.isfinite(total).all():
            z = stack[np.argmin(np.isfinite(total))].tolist()
            raise NonFiniteError(f"polynomial value is not finite at z = {z}")
        return complex(total[0]) if Z.ndim == 1 else total.reshape(Z.shape[:-1])

    # -- reshaping -----------------------------------------------------------

    def shifted(self, m_new: int, offset: int) -> "WPolynomial":
        """The same polynomial over m_new variables, z_k becoming z_{k+offset}."""
        if not 0 <= offset <= m_new - self.m:
            raise ValueError(
                f"offset {offset} out of range for {self.m} variables among {m_new}"
            )
        lead = (0,) * offset
        tail = (0,) * (m_new - self.m - offset)
        return _raw(
            m_new,
            {(lead + a + tail, lead + b + tail): c for (a, b), c in self._terms.items()},
        )

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {
                    "alpha": list(alpha),
                    "beta": list(beta),
                    "re": str(c.re),
                    "im": str(c.im),
                }
                for (alpha, beta), c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "WPolynomial":
        """Parse the serialized form strictly; malformed or oversized terms raise ValueError."""
        m = json_int(data["m"], "m")
        if m > MAX_VARIABLES:
            raise ValueError(f"{m} variables exceed the limit {MAX_VARIABLES}")
        terms = [
            (
                (_json_exponents(t["alpha"]), _json_exponents(t["beta"])),
                GaussianRational(_json_rational(t["re"]), _json_rational(t["im"])),
            )
            for t in data["terms"]
        ]
        # constructor merges duplicates and drops zeros
        p = WPolynomial(m, terms)
        if p.degree > MAX_DEGREE:
            raise ValueError(f"degree {p.degree} exceeds the limit {MAX_DEGREE}")
        if len(p) > MAX_TERMS:
            raise ValueError(f"{len(p)} terms exceed the limit {MAX_TERMS}")
        for c in p.terms.values():
            try:  # a first derivative scales a coefficient by at most the degree
                complex(c * MAX_DEGREE)
            except OverflowError:
                raise ValueError(
                    f"coefficient {c} is too large: {MAX_DEGREE} times it overflows a float"
                ) from None
        return p


def _power(x: np.ndarray, y: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (x + iy)**e, e >= 1, by binary powering.

    The squarings and products are those of Python's ``complex ** int``, so
    the roundings are too.
    """
    rx, ry = 1.0, 0.0
    while True:
        if e & 1:
            rx, ry = rx * x - ry * y, rx * y + ry * x
        e >>= 1
        if not e:
            return rx, ry
        x, y = x * x - y * y, x * y + y * x


def _accumulate(out: dict[Key, GaussianRational], key: Key, c: GaussianRational) -> None:
    """Add c to the coefficient of ``key`` in ``out``, dropping the term if it becomes zero."""
    acc = out.get(key)
    s = c if acc is None else acc + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _raw(m: int, terms: dict[Key, GaussianRational]) -> WPolynomial:
    """Build from an already-canonical term dict, skipping validation."""
    p = WPolynomial.__new__(WPolynomial)
    object.__setattr__(p, "m", m)
    object.__setattr__(p, "_terms", terms)
    return p


def json_int(value, name: str) -> int:
    """A field that must be a JSON integer (not a float, string or boolean)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_exponents(values: Sequence) -> tuple[int, ...]:
    return tuple(json_int(e, "exponents") for e in values)


def _json_rational(text) -> Fraction:
    """A coefficient part; it must parse as a fraction with a decimal exponent within bounds."""
    exponent = _DECIMAL_EXPONENT.search(text) if isinstance(text, str) else None
    if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"bad coefficient {text!r}: decimal exponent beyond "
                         f"±{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad coefficient {text!r}: {exc}") from None


def _check_index(m: int, j: int) -> None:
    if not 0 <= j < m:
        raise ValueError(f"variable index {j} out of range for m={m}")


# -- batched evaluation -------------------------------------------------------

class NonFiniteError(ArithmeticError):
    """A polynomial evaluated to inf or nan: its values overflow a float."""


class CompiledEvaluator:
    """Several polynomials in the same m variables, evaluated together at many points.

    The union of their monomials (K of them) is stored as exponent arrays and
    their coefficients as a (K, outputs) complex matrix, so a call forms the
    (n, K) monomial matrix from power tables of Z and conj(Z) and does one
    matmul.  The tables hold only the exponents that occur, so their size
    follows the term count, not the degree.  A coefficient or a value that is
    not a finite float raises ``NonFiniteError`` rather than reaching a rank
    decision or a descent.  ``WPolynomial.eval``, which sums term by term, is
    the reference it is tested against.
    """

    def __init__(self, polys: Sequence[WPolynomial]):
        if not polys:
            raise ValueError("need at least one polynomial")
        m = polys[0].m
        if any(p.m != m for p in polys):
            raise ValueError("polynomials must share one variable count")
        keys = sorted({key for p in polys for key in p.terms}, key=_term_order)
        index = {key: i for i, key in enumerate(keys)}
        coeffs = np.zeros((len(keys), len(polys)), dtype=np.complex128)
        for j, p in enumerate(polys):
            for key, c in p.terms.items():
                try:
                    coeffs[index[key], j] = complex(c)
                except OverflowError:
                    raise NonFiniteError("a coefficient overflows a float") from None
        alpha = np.array([a for a, _ in keys], dtype=np.intp).reshape(-1, m)
        beta = np.array([b for _, b in keys], dtype=np.intp).reshape(-1, m)
        exps = np.unique(np.concatenate([[0], alpha.ravel(), beta.ravel()]))
        self.m = m
        self._steps = np.diff(exps).tolist()  # from one table column to the next
        self._alpha = np.searchsorted(exps, alpha)  # exponents as table columns
        self._beta = np.searchsorted(exps, beta)
        self._coeffs = coeffs

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape (n, m) -> (n, outputs)."""
        Z = np.asarray(points, dtype=np.complex128)
        if Z.ndim != 2 or Z.shape[1] != self.m:
            raise ValueError(f"expected point array of shape (n, {self.m}), got {Z.shape}")
        powers = np.empty((Z.shape[0], self.m, len(self._steps) + 1), dtype=np.complex128)
        powers[:, :, 0] = 1.0
        for k, step in enumerate(self._steps, 1):
            powers[:, :, k] = powers[:, :, k - 1] * (Z if step == 1 else Z**step)
        conj_powers = np.conj(powers)
        mono = np.ones((Z.shape[0], len(self._coeffs)), dtype=np.complex128)
        for j in range(self.m):
            mono *= powers[:, j, self._alpha[:, j]]
            mono *= conj_powers[:, j, self._beta[:, j]]
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            values = mono @ self._coeffs
        if not np.isfinite(values).all():
            z = Z[np.argmin(np.isfinite(values).all(axis=1))].tolist()
            raise NonFiniteError(f"polynomial value is not finite at z = {z}")
        return values


# -- finite-difference oracle ---------------------------------------------------

def wirtinger_fd(
    f: "WPolynomial | Callable[[np.ndarray], complex]",
    z: Sequence[complex],
    j: int,
    h: float = 1e-5,
    kind: str = "zbar",
) -> complex:
    """Central-difference estimate of a Wirtinger derivative at a point.

    ``kind="zbar"`` estimates df/dzbar_j = (df/dx_j + i df/dy_j)/2,
    ``kind="z"``    estimates df/dz_j    = (df/dx_j - i df/dy_j)/2.
    Error is O(h^2) for polynomial f.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if kind not in ("zbar", "z"):
        raise ValueError(f"kind must be 'z' or 'zbar', got {kind!r}")
    fn = f.eval if isinstance(f, WPolynomial) else f
    z0 = np.asarray(z, dtype=np.complex128)
    _check_index(len(z0), j)
    e = np.zeros_like(z0)
    e[j] = 1.0
    dx = (fn(z0 + h * e) - fn(z0 - h * e)) / (2 * h)
    dy = (fn(z0 + 1j * h * e) - fn(z0 - 1j * h * e)) / (2 * h)
    if kind == "zbar":
        return 0.5 * (dx + 1j * dy)
    return 0.5 * (dx - 1j * dy)
