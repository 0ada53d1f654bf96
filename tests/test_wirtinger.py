"""Exact polynomial ring, Wirtinger derivatives, evaluation, serialization."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from crsphere import (
    GR_I,
    CompiledEvaluator,
    GaussianRational,
    WPolynomial,
    ar_embedding,
    block_sum_embedding,
    defining_functions,
    make_ar_polynomial,
    wirtinger_fd,
)
from crsphere.wirtinger import (
    MAX_DECIMAL_EXPONENT,
    MAX_DEGREE,
    MAX_TERMS,
    MAX_VARIABLES,
    NonFiniteError,
)
from helpers import random_unit, random_wpoly

GR = GaussianRational.of


class TestGaussianRational:
    def test_field_ops_exact(self):
        a = GR(Fraction(1, 3), Fraction(-2, 5))
        b = GR(Fraction(2, 7), Fraction(1, 2))
        assert (a + b) - b == a
        assert a * b == b * a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_conjugation_involution(self):
        a = GR(3, -4)
        assert a.conjugate().conjugate() == a

    def test_complex_conversion(self):
        assert complex(GR(Fraction(1, 2), Fraction(-3, 4))) == 0.5 - 0.75j

    def test_zero_is_falsy(self):
        assert not GR(0, 0)
        assert GR(0, 1)


class TestConstruction:
    def test_duplicate_terms_merge(self):
        p = WPolynomial(1, [(((1,), (0,)), 1), (((1,), (0,)), 2)])
        assert p.terms == {((1,), (0,)): GR(3)}

    def test_zero_coefficients_dropped(self):
        p = WPolynomial(1, [(((1,), (0,)), 1), (((1,), (0,)), -1)])
        assert p.is_zero
        assert len(p) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            WPolynomial(2, {((1,), (0, 0)): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            WPolynomial(1, {((-1,), (0,)): 1})

    def test_degree_of_zero_is_minus_one(self):
        assert WPolynomial.zero(3).degree == -1
        assert WPolynomial.variable(3, 0).degree == 1


class TestArithmetic:
    def test_add_cancels_to_zero(self):
        z1 = WPolynomial.variable(2, 0)
        assert (z1 + (-z1)).is_zero

    def test_monomial_product(self):
        p = WPolynomial.monomial(1, (1,), (1,), 1)  # z1*zb1
        sq = p * p
        assert sq.terms == {((2,), (2,)): GR(1)}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            WPolynomial.variable(2, 0) + WPolynomial.variable(3, 0)
        with pytest.raises(ValueError, match="mismatch"):
            WPolynomial.variable(2, 0) * WPolynomial.variable(3, 0)

    def test_identity_combination_expansion(self):
        # z2 * dP/dzbar1 - z1 * dP/dzbar2 for the Ahern-Rudin quartic;
        # expected terms frozen from an independent symbolic expansion
        P = make_ar_polynomial()
        z1 = WPolynomial.variable(2, 0)
        z2 = WPolynomial.variable(2, 1)
        combo = z2 * P.d_zbar(0) - z1 * P.d_zbar(1)
        assert combo.terms == {
            ((0, 2), (0, 2)): GR(1),
            ((1, 1), (1, 1)): GR(-2, 2),
            ((2, 0), (2, 0)): GR(0, -1),
        }

    def test_add_commutes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_wpoly(rng, 3)
            b = random_wpoly(rng, 3)
            assert a + b == b + a

    def test_sub_add_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_wpoly(rng, 2)
            b = random_wpoly(rng, 2)
            assert (a - b) + b == a

    def test_scalar_multiplication(self):
        z1 = WPolynomial.variable(1, 0)
        assert (GR_I * z1).terms == {((1,), (0,)): GR(0, 1)}
        assert (Fraction(1, 2) * z1).terms == {((1,), (0,)): GR(Fraction(1, 2))}
        assert (0 * z1).is_zero


class TestConjugation:
    def test_conj_variable(self):
        z1 = WPolynomial.variable(2, 0)
        assert z1.conj() == WPolynomial.conj_variable(2, 0)

    def test_conj_termwise_rule(self):
        # conj(i * z1 * zb2^2) = -i * zb1 * z2^2
        p = WPolynomial.monomial(2, (1, 0), (0, 2), GR_I)
        assert p.conj() == WPolynomial.monomial(2, (0, 2), (1, 0), GR(0, -1))

    def test_conj_of_ar_polynomial(self):
        # frozen by applying the term-wise rule by hand
        P = make_ar_polynomial()
        assert P.conj().terms == {
            ((1, 2), (0, 1)): GR(1),
            ((2, 1), (1, 0)): GR(0, -1),
        }

    def test_involution(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_wpoly(rng, 3, unit_coeffs=False)
            assert p.conj().conj() == p
            u, v = p.real_imag()
            assert u + GR_I * v == p
            assert u.is_real() and v.is_real()

    def test_is_real(self):
        assert WPolynomial.monomial(1, (1,), (1,), 1).is_real()
        assert not WPolynomial.variable(1, 0).is_real()
        # -1 + z1*zb1 + z2*zb2
        rho = WPolynomial(
            2,
            {
                ((0, 0), (0, 0)): -1,
                ((1, 0), (1, 0)): 1,
                ((0, 1), (0, 1)): 1,
            },
        )
        assert rho.is_real()


class TestDerivatives:
    def test_formal_rule(self):
        p = WPolynomial.monomial(1, (1,), (1,), 1)  # z1*zb1
        assert p.d_zbar(0) == WPolynomial.variable(1, 0)
        assert p.d_z(0) == WPolynomial.conj_variable(1, 0)

    def test_ar_antiholomorphic_derivatives(self):
        # frozen by hand differentiation of the quartic
        P = make_ar_polynomial()
        assert P.d_zbar(0).terms == {
            ((0, 1), (0, 2)): GR(1),
            ((1, 0), (1, 1)): GR(0, 2),
        }
        assert P.d_zbar(1).terms == {
            ((0, 1), (1, 1)): GR(2),
            ((1, 0), (2, 0)): GR(0, 1),
        }

    def test_index_out_of_range(self):
        p = WPolynomial.variable(2, 0)
        with pytest.raises(ValueError, match="out of range"):
            p.d_z(2)
        with pytest.raises(ValueError, match="out of range"):
            p.d_zbar(-1)
        for offset in (-1, 1):
            with pytest.raises(ValueError, match="out of range"):
                p.shifted(2, offset)

    def test_leibniz_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = random_wpoly(rng, 2, max_degree=3, unit_coeffs=False)
            b = random_wpoly(rng, 2, max_degree=3, unit_coeffs=False)
            j = int(rng.integers(0, 2))
            assert (a * b).d_zbar(j) == a.d_zbar(j) * b + a * b.d_zbar(j)

    def test_conj_derivative_commutation(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            p = random_wpoly(rng, 3, unit_coeffs=False)
            j = int(rng.integers(0, 3))
            assert p.d_z(j).conj() == p.conj().d_zbar(j)


def _random_polys(m):
    rng = np.random.default_rng(17)
    return [random_wpoly(rng, m, unit_coeffs=False) for _ in range(5)]


def _defining_differentials(E):
    rhos = defining_functions(E)
    return [r.d_z(j) for r in rhos for j in range(r.m)]


def _python_eval(p, z):
    """p at one point in Python's scalar complex arithmetic, term by term."""
    zv = [complex(w) for w in z]
    zc = [w.conjugate() for w in zv]
    total = 0j
    for (alpha, beta), c in p.sorted_terms():
        term = complex(c)
        for k, e in enumerate(alpha):
            if e:
                term *= zv[k] ** e
        for k, e in enumerate(beta):
            if e:
                term *= zc[k] ** e
        total += term
    return total


class TestEvaluation:
    def test_ar_axis_values(self):
        P = make_ar_polynomial()
        assert P.eval([1, 0]) == 0
        assert P.eval([0, 1]) == 0

    def test_ar_diagonal_value(self):
        P = make_ar_polynomial()
        s = 1 / math.sqrt(2)
        assert abs(P.eval([s, s]) - (0.25 + 0.25j)) < 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_ar_polynomial().eval([1, 0, 0])
        with pytest.raises(ValueError, match="length"):
            make_ar_polynomial().eval(np.zeros((4, 3)))

    def test_stack_equals_points_exactly(self):
        # 20,000 points: numpy computes in place into temporaries of 256 KiB or
        # more, and its in-place complex products round differently
        rng = np.random.default_rng(21)
        Z = rng.standard_normal((20_000, 3)) + 1j * rng.standard_normal((20_000, 3))
        some = rng.choice(len(Z), 100, replace=False)
        for p in _random_polys(3) + [make_ar_polynomial().shifted(3, 1)]:
            values = p.eval(Z)
            assert values.shape == (20_000,)
            assert values[some].tolist() == [p.eval(Z[i]) for i in some]

    def test_rounds_as_python_complex_arithmetic(self):
        rng = np.random.default_rng(23)
        for m in (1, 2, 3):
            Z = rng.standard_normal((40, m)) + 1j * rng.standard_normal((40, m))
            for _ in range(10):
                p = random_wpoly(rng, m, max_degree=9, n_terms=8, unit_coeffs=False)
                assert p.eval(Z).tolist() == [_python_eval(p, z) for z in Z]

    def test_one_point_gives_a_complex(self):
        s = 1 / math.sqrt(2)
        for p in (make_ar_polynomial(), WPolynomial.zero(2), WPolynomial.constant(2, 3)):
            assert type(p.eval([s, s])) is complex

    def test_zero_and_constant_keep_the_stack_shape(self):
        Z = np.ones((5, 2), dtype=complex)
        assert np.array_equal(WPolynomial.zero(2).eval(Z), np.zeros(5))
        assert np.array_equal(WPolynomial.constant(2, GR(3, -1)).eval(Z), np.full(5, 3 - 1j))

    def test_stack_shape(self):
        rng = np.random.default_rng(22)
        Z = np.vstack([random_unit(rng, 2) for _ in range(6)]).reshape(2, 3, 2)
        values = make_ar_polynomial().eval(Z)
        assert values.shape == (2, 3)
        assert values[1, 2] == make_ar_polynomial().eval(Z[1, 2])

    def test_overflow_raises_non_finite(self):
        big_power = WPolynomial.monomial(1, (40,), (0,))
        with pytest.raises(NonFiniteError, match="not finite"):
            big_power.eval([1e10])
        with pytest.raises(NonFiniteError, match="not finite"):
            big_power.eval([[1.0], [1e10]])
        with pytest.raises(NonFiniteError, match="coefficient"):
            WPolynomial.constant(1, 10**400).eval([1.0])

    def test_evaluation_homomorphism(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            a = random_wpoly(rng, 2, max_degree=3)
            b = random_wpoly(rng, 2, max_degree=3)
            z = random_unit(rng, 2)
            lhs = (a * b).eval(z)
            rhs = a.eval(z) * b.eval(z)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    @pytest.mark.parametrize(
        "polys",
        [
            pytest.param(_random_polys(3), id="random"),
            pytest.param([WPolynomial.zero(2), WPolynomial.constant(2, GR(3, -1))],
                         id="zero-and-constant"),
            pytest.param([WPolynomial.zero(3)] * 4, id="all-zero"),
            pytest.param([WPolynomial.monomial(2, (3, 0), (0, 7), GR(1, 1))
                          + WPolynomial.monomial(2, (0, 1), (2, 0), 2)],
                         id="exponent-gaps"),
            pytest.param(_defining_differentials(ar_embedding()), id="rho-dz-ar"),
            pytest.param(_defining_differentials(block_sum_embedding(2)), id="rho-dz-n2"),
        ],
    )
    def test_compiled_evaluator_matches_eval(self, polys):
        rng = np.random.default_rng(18)
        m = polys[0].m
        Z = np.vstack([random_unit(rng, m) for _ in range(32)])
        batch = CompiledEvaluator(polys)(Z)
        assert batch.shape == (32, len(polys))
        for i, z in enumerate(Z):
            for j, p in enumerate(polys):
                ref = p.eval(z)
                assert abs(batch[i, j] - ref) <= 1e-13 * max(1.0, abs(ref))


class TestFiniteDifferenceOracle:
    def test_antiholomorphic_linear(self):
        zb1 = WPolynomial.conj_variable(2, 0)
        rng = np.random.default_rng(18)
        z = random_unit(rng, 2)
        assert abs(wirtinger_fd(zb1, z, 0) - 1) < 1e-9

    def test_holomorphic_linear(self):
        z1 = WPolynomial.variable(2, 0)
        rng = np.random.default_rng(19)
        z = random_unit(rng, 2)
        assert abs(wirtinger_fd(z1, z, 0)) < 1e-9

    def test_matches_symbolic_on_ar(self):
        P = make_ar_polynomial()
        s = 1 / math.sqrt(2)
        z = np.array([s, s], dtype=complex)
        sym = P.d_zbar(0).eval(z)
        fd = wirtinger_fd(P, z, 0)
        assert abs(fd - sym) <= 1e-6 * (1 + abs(sym))

    def test_agreement_random(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            p = random_wpoly(rng, 3, max_degree=4, unit_coeffs=True)
            z = random_unit(rng, 3)
            j = int(rng.integers(0, 3))
            sym = p.d_zbar(j).eval(z)
            fd = wirtinger_fd(p, z, j, h=1e-5)
            assert abs(fd - sym) <= 1e-6 * (1 + abs(sym))

    def test_callable_input(self):
        fd = wirtinger_fd(lambda z: z[0] * np.conj(z[0]), [0.6 + 0.8j], 0)
        assert abs(fd - (0.6 + 0.8j)) < 1e-9

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            wirtinger_fd(WPolynomial.variable(1, 0), [1.0], 0, h=0.0)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = random_wpoly(rng, 3, unit_coeffs=False)
            assert WPolynomial.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p

    def test_canonical_term_order(self):
        p = WPolynomial(
            2,
            {
                ((2, 0), (0, 0)): 1,
                ((0, 0), (0, 0)): 5,
                ((1, 0), (0, 1)): 2,
            },
        )
        degrees = [sum(t["alpha"]) + sum(t["beta"]) for t in p.to_json_dict()["terms"]]
        assert degrees == sorted(degrees)

    def test_deserialization_recanonicalizes(self):
        data = {
            "m": 1,
            "terms": [
                {"alpha": [1], "beta": [0], "re": "1/2", "im": "0"},
                {"alpha": [1], "beta": [0], "re": "1/2", "im": "0"},
                {"alpha": [0], "beta": [1], "re": "0", "im": "0"},
            ],
        }
        p = WPolynomial.from_json_dict(data)
        assert p.terms == {((1,), (0,)): GR(1)}

    def test_fraction_strings(self):
        p = WPolynomial.monomial(1, (1,), (0,), GR(Fraction(-1, 3), Fraction(2, 7)))
        term = p.to_json_dict()["terms"][0]
        assert term["re"] == "-1/3"
        assert term["im"] == "2/7"

    def test_size_bounds(self):
        assert WPolynomial.from_json_dict({"m": MAX_VARIABLES, "terms": []}).m == MAX_VARIABLES
        with pytest.raises(ValueError, match="variables exceed"):
            WPolynomial.from_json_dict({"m": MAX_VARIABLES + 1, "terms": []})
        at_bound = [{"alpha": [MAX_DEGREE], "beta": [0], "re": "1", "im": "0"}]
        assert WPolynomial.from_json_dict({"m": 1, "terms": at_bound}).degree == MAX_DEGREE
        exps = itertools.islice(itertools.product(range(17), repeat=3), MAX_TERMS + 1)
        terms = [{"alpha": [a, b], "beta": [c, 0], "re": "1", "im": "0"} for a, b, c in exps]
        with pytest.raises(ValueError, match="terms exceed"):
            WPolynomial.from_json_dict({"m": 2, "terms": terms})
        terms[-1] = terms[0]  # duplicates merge before the count
        assert len(WPolynomial.from_json_dict({"m": 2, "terms": terms})) == MAX_TERMS
        # each part times MAX_DEGREE is finite, their merged sum times MAX_DEGREE is not
        dup = [{"alpha": [0], "beta": [2], "re": "2e306", "im": "0"}] * MAX_DEGREE
        with pytest.raises(ValueError, match="too large"):
            WPolynomial.from_json_dict({"m": 1, "terms": dup})
        tiny = [{"alpha": [1], "beta": [0], "re": f"1e-{MAX_DECIMAL_EXPONENT}", "im": "0"}]
        assert len(WPolynomial.from_json_dict({"m": 1, "terms": tiny})) == 1
        tiny[0]["re"] = f"1e-{MAX_DECIMAL_EXPONENT + 1}"
        with pytest.raises(ValueError, match="decimal exponent"):
            WPolynomial.from_json_dict({"m": 1, "terms": tiny})
