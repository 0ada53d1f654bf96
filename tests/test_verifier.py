"""Pointwise criteria: independence matrix, defining functions, tangent oracle."""

import numpy as np
import pytest

from crsphere import (
    CompiledEvaluator,
    GaussianRational,
    IndependenceEvaluator,
    WPolynomial,
    ar_embedding,
    block_sum_embedding,
    cr_dim_at,
    defining_functions,
    del_form,
    equivalence_check_many,
    eval_embedding,
    independence_matrix,
    local_minimize,
    two_form_identity_check,
    make_ar_polynomial,
    make_graph_embedding,
    make_negative_control,
    point_report,
    sample_sphere,
    wedge,
    wedge_nonzero,
)
from crsphere import verifier
from helpers import random_embedding, random_unit, random_wpoly

GR = GaussianRational.of
CONTROLS = ("holomorphic", "zero", "radial")


class TestIndependenceMatrix:
    def test_ar_at_first_axis(self):
        M = independence_matrix(ar_embedding(), [1, 0])
        assert np.allclose(M, [[1, 0], [0, 1j]], atol=1e-15)

    def test_ar_at_second_axis(self):
        M = independence_matrix(ar_embedding(), [0, 1])
        assert np.allclose(M, [[0, 1], [1, 0]], atol=1e-15)

    def test_zero_control_has_zero_row(self):
        C = make_negative_control("zero", 2)
        rng = np.random.default_rng(41)
        M = independence_matrix(C, random_unit(rng, 2))
        assert np.all(M[1] == 0)

    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError, match="off the unit sphere"):
            independence_matrix(ar_embedding(), [0.5, 0])


@pytest.mark.parametrize(
    "check", [independence_matrix, cr_dim_at, eval_embedding, local_minimize],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("point", [[1.0], [1.0, 0.0, 0.0]], ids=["short", "long"])
def test_wrong_length_point_rejected(check, point):
    with pytest.raises(ValueError, match="length"):
        check(ar_embedding(), point)


def _svd_singular_values(E, Z):
    return np.linalg.svd(IndependenceEvaluator(E).matrix_many(Z), compute_uv=False)


class TestClosedFormSingularValues:
    """q = 1: the closed form from the 2 x 2 minors against a batched SVD."""

    @pytest.mark.parametrize(
        "E",
        [ar_embedding(), *(block_sum_embedding(n) for n in (1, 2, 3)),
         *(random_embedding(60 + m, m, 1) for m in (2, 3, 4, 6))],
        ids=lambda E: f"{E.label}-m{E.m}",
    )
    def test_matches_svd(self, E):
        Z = sample_sphere(E.m, 20_000, 10)
        s = IndependenceEvaluator(E).singular_values_many(Z)
        ref = _svd_singular_values(E, Z)
        assert s.shape == ref.shape == (len(Z), 2)
        assert np.all(np.abs(s - ref) <= 1e-12 * ref)

    def test_precise_where_the_singular_values_meet(self):
        # on the axes of ar both singular values are 1; the discriminant
        # tr^2 - 4D would lose half the digits near them (8e-11 at 1e-7 away)
        E = ar_embedding()
        for eps in (1e-3, 1e-5, 1e-7, 1e-9):
            z = np.array([1, eps * (1 + 1j)])
            Z = np.array([z, z[::-1]]) / np.linalg.norm(z)
            s = IndependenceEvaluator(E).singular_values_many(Z)
            ref = _svd_singular_values(E, Z)
            assert np.all(np.abs(s - ref) <= 1e-12 * ref)

    @pytest.mark.parametrize("m", [2, 3, 6])
    @pytest.mark.parametrize("kind", CONTROLS)
    def test_controls(self, kind, m):
        Z = sample_sphere(m, 2_000, 11)
        s = IndependenceEvaluator(make_negative_control(kind, m)).singular_values_many(Z)
        if kind == "radial":
            assert np.all(s[:, -1] < 1e-12)
        else:
            assert np.all(s[:, -1] == 0)

    @pytest.mark.parametrize(
        "E", [ar_embedding(), block_sum_embedding(3), make_negative_control("radial", 3)],
        ids=lambda E: E.label,
    )
    def test_equivalence_rank_route_stays_an_svd(self, E):
        # the spot checks cross-check the closed form only while they use an SVD
        Z = sample_sphere(E.m, 500, 12)
        sigma_min = [r.sigma_min for r in equivalence_check_many(E, Z)]
        assert sigma_min == _svd_singular_values(E, Z)[:, -1].tolist()

    def test_q_above_one_uses_the_svd(self):
        E = random_embedding(6, 4, 2)
        Z = sample_sphere(E.m, 1000, 13)
        s = IndependenceEvaluator(E).singular_values_many(Z)
        assert np.array_equal(s, _svd_singular_values(E, Z))


class TestPointReport:
    def test_ar_axis_report(self):
        rep = point_report(ar_embedding(), [1, 0])
        assert rep.z == (1, 0)
        assert abs(rep.sigma_min - 1) < 1e-14
        assert rep.rank == 2
        assert rep.cr_regular and not rep.marginal

    def test_holomorphic_rank_one(self):
        C = make_negative_control("holomorphic", 2)
        rng = np.random.default_rng(42)
        rep = point_report(C, random_unit(rng, 2))
        assert rep.rank == 1 and not rep.cr_regular

    def test_radial_parallel_rows(self):
        C = make_negative_control("radial", 2)
        rep = point_report(C, [1, 0])
        assert rep.rank == 1 and not rep.cr_regular

    def test_scaling_graph_function_preserves_verdict(self):
        rng = np.random.default_rng(43)
        E = ar_embedding()
        for scalar in (GR(3, -2), GR(0, 5), GaussianRational.of(1, 0) * 7):
            scaled = make_graph_embedding(2, [E.f[0] * scalar], label="scaled")
            for _ in range(20):
                z = random_unit(rng, 2)
                assert point_report(scaled, z).cr_regular == point_report(E, z).cr_regular
        C = make_negative_control("radial", 2)
        scaled = make_graph_embedding(2, [C.f[0] * GR(2, 1)], label="scaled-control")
        z = random_unit(rng, 2)
        assert point_report(scaled, z).cr_regular == point_report(C, z).cr_regular is False

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, 0.1])
    def test_tol_out_of_range_is_config_error(self, tol):
        # a NaN tol once gave rank 0 here, and three failing routes that "agreed"
        E = ar_embedding()
        z = [2**-0.5, 2**-0.5]
        for call in (lambda: point_report(E, z, tol),
                     lambda: equivalence_check_many(E, [z], tol=tol)):
            with pytest.raises(verifier.ConfigError, match="tol") as exc:
                call()
            assert exc.value.name == "tol"


class TestDefiningFunctions:
    def test_sphere_equation(self):
        rhos = defining_functions(ar_embedding())
        assert len(rhos) == 3
        assert rhos[0].terms == {
            ((0, 0, 0), (0, 0, 0)): GR(-1),
            ((1, 0, 0), (1, 0, 0)): GR(1),
            ((0, 1, 0), (0, 1, 0)): GR(1),
        }

    def test_real_imaginary_split_reassembles(self):
        rhos = defining_functions(ar_embedding())
        g = rhos[1] + GaussianRational.of(0, 1) * rhos[2]
        expected = WPolynomial.variable(3, 2) - make_ar_polynomial().shifted(3, 0)
        assert g == expected

    def test_all_real(self):
        for rho in defining_functions(block_sum_embedding(2)):
            assert rho.is_real()

    def test_vanish_on_graph(self):
        rng = np.random.default_rng(44)
        E = ar_embedding()
        rhos = defining_functions(E)
        for _ in range(20):
            w = eval_embedding(E, random_unit(rng, 2))
            for rho in rhos:
                assert abs(rho.eval(w)) < 1e-12


class TestForms:
    def test_del_form_of_sphere_equation(self):
        rhos = defining_functions(ar_embedding())
        rng = np.random.default_rng(45)
        w = np.append(random_unit(rng, 2), 0.3 + 0.1j)
        form = del_form(rhos[0], w)
        assert np.allclose(form, [np.conj(w[0]), np.conj(w[1]), 0])

    def test_del_form_simple(self):
        rho = WPolynomial.monomial(2, (1, 0), (1, 0), 1)  # z1*zb1
        form = del_form(rho, [1, 0])
        assert np.allclose(form, [1, 0])

    def test_del_form_constant_is_zero(self):
        rho = WPolynomial.constant(2, 5)
        assert np.all(del_form(rho, [1, 0]) == 0)

    def test_del_form_rejects_non_real(self):
        with pytest.raises(ValueError, match="real"):
            del_form(WPolynomial.variable(2, 0), [1, 0])

    def test_wedge_nonzero_basis(self):
        assert wedge_nonzero([[1, 0, 0], [0, 1, 0]])
        assert wedge_nonzero(np.eye(3)[:2])

    def test_wedge_parallel_is_zero(self):
        assert not wedge_nonzero([[1, 0], [2, 0]])

    def test_wedge_of_ar_defining_forms(self):
        E = ar_embedding()
        w = eval_embedding(E, [1, 0])
        forms = [del_form(r, w) for r in defining_functions(E)]
        assert wedge_nonzero(forms)

    def test_too_many_forms_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            wedge_nonzero([[1, 0]] * 3)

    def test_wedge_is_antisymmetric(self):
        rng = np.random.default_rng(46)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(wedge(a, b), -wedge(b, a))
        assert np.array_equal(wedge(a, b), -wedge(a, b).T)


class TestTwoFormIdentity:
    def test_holomorphic_both_sides_vanish(self):
        f = WPolynomial.monomial(2, (2, 0), (0, 0), 1)  # z1^2
        rng = np.random.default_rng(47)
        assert two_form_identity_check(f, random_unit(rng, 2)) < 1e-15

    def test_two_term_case(self):
        # f = z1 + zb2
        f = WPolynomial.variable(2, 0) + WPolynomial.conj_variable(2, 1)
        rng = np.random.default_rng(48)
        for _ in range(10):
            assert two_form_identity_check(f, random_unit(rng, 2)) <= 1e-12

    def test_ar_polynomial_at_many_points(self):
        P = make_ar_polynomial()
        rng = np.random.default_rng(49)
        for _ in range(100):
            assert two_form_identity_check(P, random_unit(rng, 2)) <= 1e-10

    def test_random_polynomials(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            f = random_wpoly(rng, m, max_degree=4)
            assert two_form_identity_check(f, random_unit(rng, m)) <= 1e-10


class TestTangentOracle:
    def test_ar_is_totally_real_at_axis(self):
        assert cr_dim_at(ar_embedding(), [1, 0]) == 0

    def test_block_embedding_dimension_count(self):
        E = block_sum_embedding(2)
        rng = np.random.default_rng(51)
        for _ in range(5):
            assert cr_dim_at(E, random_unit(rng, 4)) == 2

    def test_holomorphic_graph_keeps_complex_tangent(self):
        C = make_negative_control("holomorphic", 2)
        rng = np.random.default_rng(52)
        for _ in range(5):
            assert cr_dim_at(C, random_unit(rng, 2)) == 1

    def test_matches_rank_criterion(self):
        rng = np.random.default_rng(53)
        for E in (ar_embedding(), block_sum_embedding(2)):
            for _ in range(25):
                z = random_unit(rng, E.m)
                if point_report(E, z).cr_regular:
                    assert cr_dim_at(E, z) == E.m - E.q - 1

    def test_shares_no_code_with_the_other_routes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the tangent oracle must not use this")

        monkeypatch.setattr(CompiledEvaluator, "__call__", refuse)
        monkeypatch.setattr(IndependenceEvaluator, "matrix_many", refuse)
        monkeypatch.setattr(verifier, "defining_functions", refuse)
        rng = np.random.default_rng(54)
        assert cr_dim_at(ar_embedding(), [1, 0]) == 0
        assert cr_dim_at(block_sum_embedding(2), random_unit(rng, 4)) == 2
        assert cr_dim_at(make_negative_control("holomorphic", 2), random_unit(rng, 2)) == 1


class TestEquivalence:
    def test_ar_all_agree_pass(self):
        Z = sample_sphere(2, 100, 7)
        results = equivalence_check_many(ar_embedding(), Z)
        assert all(r.agree and r.all_pass for r in results)

    def test_controls_all_agree_fail(self):
        Z = sample_sphere(2, 100, 8)
        for kind in CONTROLS:
            results = equivalence_check_many(make_negative_control(kind, 2), Z)
            assert all(r.agree and not r.all_pass for r in results)

    def test_radial_at_axis(self):
        r = equivalence_check_many(make_negative_control("radial", 2), [[1, 0]])[0]
        assert r.agree and not r.all_pass

    @pytest.mark.parametrize(
        "E",
        [ar_embedding(), block_sum_embedding(2), make_negative_control("radial", 2),
         random_embedding(6, 4, 2)],
        ids=lambda E: E.label,
    )
    def test_batch_matches_per_point_routes(self, E):
        Z = sample_sphere(E.m, 1000, 9)
        results = equivalence_check_many(E, Z)
        assert all(r.agree for r in results)
        for z, r in zip(Z[:50], results):
            rep = point_report(E, z)
            forms = [del_form(rho, eval_embedding(E, z)) for rho in defining_functions(E)]
            assert r.z == tuple(z)
            assert r.rank_pass == rep.cr_regular
            assert r.sigma_min == pytest.approx(rep.sigma_min, rel=1e-12, abs=1e-15)
            assert r.wedge_pass == wedge_nonzero(forms)
            assert r.cr_dim == cr_dim_at(E, z)
            assert r.expected_cr_dim == E.m - E.q - 1
            assert r.tangent_pass == (r.cr_dim == r.expected_cr_dim)

    def test_off_sphere_point_rejected(self):
        Z = sample_sphere(2, 10, 3)
        Z[4] *= 1.001
        with pytest.raises(ValueError, match="off the unit sphere"):
            equivalence_check_many(ar_embedding(), Z)

    def test_result_serializes(self):
        r = equivalence_check_many(ar_embedding(), [[1, 0]])[0]
        d = r.to_json_dict()
        assert d["agree"] is True and d["cr_dim"] == 0
        assert d["z"] == [[1.0, 0.0], [0.0, 0.0]]


class TestBlockProperties:
    def test_block_permutation_preserves_sigma_min(self):
        E = block_sum_embedding(2)
        rng = np.random.default_rng(54)
        perm = [2, 3, 0, 1]  # swap the two coordinate pairs
        for _ in range(20):
            z = random_unit(rng, 4)
            s1 = point_report(E, z).sigma_min
            s2 = point_report(E, z[perm]).sigma_min
            assert abs(s1 - s2) < 1e-12

    def test_largest_block_gives_rank_two_submatrix(self):
        # at every point some pair is nonzero, and the 2x2 slice of
        # [z; dQ/dzbar] through the largest pair is already nonsingular
        rng = np.random.default_rng(55)
        for n in (1, 2, 3):
            E = block_sum_embedding(n)
            dzbar = [E.f[0].d_zbar(k) for k in range(2 * n)]
            Z = sample_sphere(2 * n, 10_000 // n, 56 + n)
            for z in Z[: 10_000 // n]:
                norms = [abs(z[2 * k]) ** 2 + abs(z[2 * k + 1]) ** 2 for k in range(n)]
                k = int(np.argmax(norms))
                assert norms[k] > 0
                sub = np.array(
                    [
                        [z[2 * k], z[2 * k + 1]],
                        [dzbar[2 * k].eval(z), dzbar[2 * k + 1].eval(z)],
                    ]
                )
                s = np.linalg.svd(sub, compute_uv=False)
                assert s[-1] > 1e-8 * s[0]
