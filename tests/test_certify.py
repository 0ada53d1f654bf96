"""Sampling sweeps, multistart minimization, determinism, and the 1-D oracle."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from crsphere import certify
from crsphere import (
    CertificateReport,
    GaussianRational,
    IndependenceEvaluator,
    MinimizeOptions,
    OBJECTIVE_DET_SQ,
    SweepConfig,
    VERDICT_ALL_REGULAR,
    VERDICT_FAILURE,
    VERDICT_MARGINAL,
    WPolynomial,
    ar_det_sq_of_t,
    ar_determinant_profile,
    ar_embedding,
    block_sum_embedding,
    histogram_csv,
    is_ar_embedding,
    local_minimize,
    make_ar_polynomial,
    make_negative_control,
    multistart_minimize,
    point_report,
    sample_sphere,
    sigma_histogram,
    sweep,
    verify_ar_identity,
)
from helpers import random_embedding

# best value Nelder-Mead reached for block-sum-n3 with 64 restarts and seed 42
BLOCK_N3_SIGMA_MIN_SQ = 0.010975459345

# global minimum of the squared smallest singular value over the sphere for
# the stock S^3 embedding, established by a dense 1-D scan of the closed-form
# Gram profile (the quantity depends only on t = |z1|^2) plus Brent polish
AR_SIGMA_MIN_SQ_GLOBAL = 0.051161515941589464
AR_SIGMA_MIN_SQ_ARGMIN_T = 0.3376527658234197


def _ar_sigma_min_sq_profile(t):
    """Independent Gram-based profile of sigma_min^2 for the S^3 embedding.

    Entries of M M^*: a = 1, d = t^3 + (1-t)^3 + 4t(1-t),
    |b|^2 = 9 t (1-t) (t^2 + (1-t)^2); the smaller eigenvalue is the profile.
    Derived by hand from the quartic's antiholomorphic gradient; shares no
    code with the optimizer path.
    """
    t = np.asarray(t, dtype=float)
    d = t**3 + (1 - t) ** 3 + 4 * t * (1 - t)
    b2 = 9 * t * (1 - t) * (t**2 + (1 - t) ** 2)
    return (1 + d) / 2 - np.sqrt(((1 - d) / 2) ** 2 + b2)


class TestSampleSphere:
    def test_unit_norm(self):
        Z = sample_sphere(3, 1000, 1)
        assert np.max(np.abs(np.linalg.norm(Z, axis=1) - 1)) < 1e-14

    def test_deterministic(self):
        a = sample_sphere(2, 500, 42)
        b = sample_sphere(2, 500, 42)
        assert np.array_equal(a, b)

    def test_prefix_stable(self):
        # slicing the stream gives the same points as drawing fewer samples
        assert np.array_equal(sample_sphere(2, 1000, 9)[:100], sample_sphere(2, 100, 9))

    def test_empirical_mean_small(self):
        Z = sample_sphere(2, 1_000_000, 123)
        assert np.max(np.abs(Z.mean(axis=0))) <= 5e-3

    def test_count_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            sample_sphere(2, 0, 1)


class TestSweep:
    def test_ar_all_regular(self):
        rep = sweep(ar_embedding(), SweepConfig(samples=10_000, seed=42))
        assert rep.verdict == VERDICT_ALL_REGULAR
        assert rep.min_sigma > 0.2

    def test_min_matches_samples(self):
        rep = sweep(ar_embedding(), SweepConfig(samples=5_000, seed=3))
        assert rep.min_sigma == float(rep.sigma_min_samples.min())
        idx = int(np.argmin(rep.sigma_min_samples))
        Z = sample_sphere(2, 5_000, 3)
        assert np.array_equal(np.asarray(rep.argmin_z), Z[idx])

    def test_controls_fail(self):
        for kind in ("holomorphic", "zero", "radial"):
            rep = sweep(make_negative_control(kind, 2), SweepConfig(samples=1000, seed=42))
            assert rep.verdict == VERDICT_FAILURE
            assert rep.min_sigma < 1e-12

    def test_worker_count_does_not_change_report(self):
        E = block_sum_embedding(2)
        r1 = sweep(E, SweepConfig(samples=9_000, seed=5, workers=1))
        r4 = sweep(E, SweepConfig(samples=9_000, seed=5, workers=4))
        assert r1.dumps() == r4.dumps()

    @pytest.mark.parametrize(
        "E", [block_sum_embedding(3), random_embedding(31, 3, 1)], ids=lambda E: E.label
    )
    def test_worker_count_does_not_change_report_with_many_minors(self, E):
        # 15 and 3 minors per point, and a last chunk shorter than the others
        samples = 9_001
        assert samples % certify._CHUNK
        r1 = sweep(E, SweepConfig(samples=samples, seed=5, workers=1))
        r2 = sweep(E, SweepConfig(samples=samples, seed=5, workers=2))
        assert r1.dumps() == r2.dumps()
        assert np.array_equal(r1.sigma_min_samples, r2.sigma_min_samples)
        assert np.array_equal(r1.sigma_max_samples, r2.sigma_max_samples)

    def test_threshold_near_margin_is_marginal(self):
        E = ar_embedding()
        first = sweep(E, SweepConfig(samples=2_000, seed=42))
        tol = 0.5 * first.min_sigma / first.sigma_max_at_argmin
        rep = sweep(E, SweepConfig(samples=2_000, seed=42, tol=tol))
        assert rep.verdict == VERDICT_MARGINAL
        assert point_report(E, rep.argmin_z, tol).marginal

    def test_config_validation(self):
        nan = float("nan")
        for config, kwargs, name in [
            (SweepConfig, {"samples": 0}, "samples"),
            (SweepConfig, {"seed": -1}, "seed"),
            (SweepConfig, {"tol": 0.0}, "tol"),
            (SweepConfig, {"tol": 0.1}, "tol"),
            (SweepConfig, {"tol": 0.5}, "tol"),
            (SweepConfig, {"tol": 1.0}, "tol"),
            (SweepConfig, {"tol": nan}, "tol"),
            (SweepConfig, {"workers": 0}, "workers"),
            (SweepConfig, {"workers": 65}, "workers"),
            (MinimizeOptions, {"tol": 0.0}, "tol"),
            (MinimizeOptions, {"tol": 0.1}, "tol"),
            (MinimizeOptions, {"tol": 0.5}, "tol"),
            (MinimizeOptions, {"tol": 1.0}, "tol"),
            (MinimizeOptions, {"tol": nan}, "tol"),
        ]:
            # a ValueError to library callers, naming the setting (its CLI flag)
            with pytest.raises(certify.ConfigError, match=name) as exc:
                config(**kwargs)
            assert isinstance(exc.value, ValueError) and exc.value.name == name
        SweepConfig(workers=64)


class TestWorkerCount:
    def test_invalid_explicit(self):
        for workers in (0, -3):
            with pytest.raises(certify.ConfigError, match="workers") as exc:
                SweepConfig(workers=workers)
            assert exc.value.name == "workers"


class TestLocalMinimize:
    def test_descent_from_axis(self):
        lm = local_minimize(ar_embedding(), [1, 0])
        assert lm.value <= lm.start_value
        assert abs(lm.start_value - 1.0) < 1e-12  # sigma_min((1,0)) = 1

    def test_holomorphic_control_floor(self):
        lm = local_minimize(make_negative_control("holomorphic", 2), [1, 0])
        assert lm.value <= 1e-20

    def test_point_stays_on_sphere(self):
        lm = local_minimize(ar_embedding(), [0, 1])
        assert abs(np.linalg.norm(lm.z) - 1) < 1e-10

    def test_off_sphere_start_rejected(self):
        with pytest.raises(ValueError, match="off the unit sphere"):
            local_minimize(ar_embedding(), [2, 0])

    def test_det_objective_requires_square(self):
        E = block_sum_embedding(2)  # 2 x 4 matrix
        with pytest.raises(ValueError, match="square"):
            local_minimize(E, [1, 0, 0, 0], MinimizeOptions(objective=OBJECTIVE_DET_SQ))

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            MinimizeOptions(objective="gradient")

    def test_stationary_start_escapes_to_global_minimum(self):
        # (1, 0) is a maximum of both objectives along |z1|^2, so the gradient
        # vanishes there; the probe round must move the descent off it
        for objective, oracle in (
            ("sigma_min_sq", AR_SIGMA_MIN_SQ_GLOBAL), (OBJECTIVE_DET_SQ, 1 / 9),
        ):
            lm = local_minimize(ar_embedding(), [1, 0], MinimizeOptions(objective=objective))
            assert lm.converged
            assert abs(lm.value - oracle) < 1e-12

    def test_iteration_cap_returns_best_so_far(self, monkeypatch):
        monkeypatch.setattr(certify, "_MAX_ITER", 5)
        lm = local_minimize(ar_embedding(), [1, 0])
        assert not lm.converged
        assert lm.value <= lm.start_value


class TestDescentGradient:
    @pytest.mark.parametrize(
        "E, objective",
        [
            (ar_embedding(), "sigma_min_sq"),
            (ar_embedding(), OBJECTIVE_DET_SQ),
            (block_sum_embedding(2), "sigma_min_sq"),
            (random_embedding(5, 3, 1), "sigma_min_sq"),
            (random_embedding(6, 4, 2), "sigma_min_sq"),
        ],
        ids=["ar-sigma", "ar-det", "block-sum-n2", "random-m3-q1", "random-m4-q2"],
    )
    def test_matches_central_differences_along_tangents(self, E, objective):
        evaluate = certify._value_and_gradient(E, objective)
        rng = np.random.default_rng(31)
        h = 1e-5
        for z in sample_sphere(E.m, 5, 32):
            _, grad = evaluate(z[None, :])
            grad = grad[0]
            assert np.linalg.norm(grad) > 1e-3
            assert abs(np.vdot(z, grad).real) < 1e-12  # tangent to the sphere
            for _ in range(4):
                d = rng.standard_normal(E.m) + 1j * rng.standard_normal(E.m)
                d -= np.vdot(z, d).real * z
                d /= np.linalg.norm(d)
                # along the great circle through z with unit tangent d
                ends = np.array([np.cos(h) * z + np.sin(h) * d, np.cos(h) * z - np.sin(h) * d])
                v = evaluate(ends)[0]
                fd = (v[0] - v[1]) / (2 * h)
                assert abs(fd - np.vdot(grad, d).real) <= 1e-6 * np.linalg.norm(grad)


class TestMultistart:
    def test_reaches_global_sigma_min(self):
        rep = multistart_minimize(ar_embedding(), 16, 42)
        assert abs(rep.best_value - AR_SIGMA_MIN_SQ_GLOBAL) < 1e-6
        assert rep.verdict == VERDICT_ALL_REGULAR
        # the argmin profile parameter is |z1|^2
        t = abs(rep.argmin_z[0]) ** 2
        assert min(abs(t - AR_SIGMA_MIN_SQ_ARGMIN_T), abs(1 - t - AR_SIGMA_MIN_SQ_ARGMIN_T)) < 1e-3

    def test_matches_independent_gram_profile(self):
        t = np.linspace(0, 1, 200_001)
        oracle = float(_ar_sigma_min_sq_profile(t).min())
        assert abs(oracle - AR_SIGMA_MIN_SQ_GLOBAL) < 1e-10
        rep = multistart_minimize(ar_embedding(), 16, 7)
        assert abs(rep.best_value - oracle) < 1e-6

    def test_det_objective_reaches_oracle(self):
        rep = multistart_minimize(
            ar_embedding(), 16, 42, MinimizeOptions(objective=OBJECTIVE_DET_SQ)
        )
        _, oracle = ar_determinant_profile(100_000)
        assert abs(rep.best_value - oracle) < 1e-6

    def test_block_sum_n3_reaches_nelder_mead_value(self):
        rep = multistart_minimize(block_sum_embedding(3), 64, 42)
        assert abs(rep.best_value - BLOCK_N3_SIGMA_MIN_SQ) <= 1e-9 * BLOCK_N3_SIGMA_MIN_SQ
        assert rep.extras["unconverged_restarts"] == 0

    def test_radial_control_hits_zero(self):
        rep = multistart_minimize(make_negative_control("radial", 2), 1, 42)
        assert rep.best_value <= 1e-20
        assert rep.verdict == VERDICT_FAILURE

    def test_best_below_sweep_min(self):
        E = ar_embedding()
        sw = sweep(E, SweepConfig(samples=20_000, seed=42))
        ms = multistart_minimize(E, 16, 42)
        assert ms.best_value <= sw.min_sigma**2 + 1e-15

    def test_deterministic(self):
        a = multistart_minimize(ar_embedding(), 4, 11)
        b = multistart_minimize(ar_embedding(), 4, 11)
        assert a.dumps() == b.dumps()

    def test_capped_restarts_counted_not_listed(self, monkeypatch):
        monkeypatch.setattr(certify, "_MAX_ITER", 5)
        rep = multistart_minimize(ar_embedding(), 2, 42)
        # the coarse-scan start plus two restarts, none within the cap
        assert rep.extras["unconverged_restarts"] == 3
        assert rep.converged_minima == ()

    def test_restart_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            multistart_minimize(ar_embedding(), 0, 42)


class TestSquareCaseCrossChecks:
    def test_det_equals_product_of_singular_values(self):
        E = ar_embedding()
        ev = IndependenceEvaluator(E)
        Z = sample_sphere(2, 1000, 77)
        M = ev.matrix_many(Z)
        det_sq = np.abs(np.linalg.det(M)) ** 2
        s = np.linalg.svd(M, compute_uv=False)
        prod_sq = (s[:, 0] * s[:, 1]) ** 2
        assert np.max(np.abs(det_sq - prod_sq) / (1 + prod_sq)) < 1e-10

    def test_det_matches_profile_of_t(self):
        E = ar_embedding()
        ev = IndependenceEvaluator(E)
        Z = sample_sphere(2, 1000, 78)
        det_sq = np.abs(np.linalg.det(ev.matrix_many(Z))) ** 2
        t = np.abs(Z[:, 0]) ** 2
        assert np.max(np.abs(det_sq - ar_det_sq_of_t(t))) < 1e-10

    def test_phase_invariance(self):
        E = ar_embedding()
        ev = IndependenceEvaluator(E)
        rng = np.random.default_rng(79)
        Z = sample_sphere(2, 200, 80)
        for z in Z[:50]:
            theta = rng.uniform(0, 2 * np.pi, 2)
            zr = z * np.exp(1j * theta)
            d1 = abs(np.linalg.det(ev.matrix_many(z[None])[0]))
            d2 = abs(np.linalg.det(ev.matrix_many(zr[None])[0]))
            assert abs(d1 - d2) < 1e-10


class TestProfile:
    def test_endpoint_value(self):
        assert ar_det_sq_of_t(np.array(0.0)) == 1.0

    def test_one_third_value(self):
        assert abs(ar_det_sq_of_t(np.array(1 / 3)) - 1 / 9) < 1e-15

    def test_global_minimum(self):
        t_star, vmin = ar_determinant_profile(1_000_000)
        assert abs(vmin - 1 / 9) < 1e-10
        assert min(abs(t_star - 1 / 3), abs(t_star - 2 / 3)) < 1e-5

    def test_profile_derived_from_exact_identity(self):
        # the determinant of the independence matrix (z; dP/dzbar) is minus the
        # left side of the Ahern-Rudin identity, so |det|^2 = |rhs|^2 exactly
        P = make_ar_polynomial()
        z1, z2 = WPolynomial.variable(2, 0), WPolynomial.variable(2, 1)
        identity = verify_ar_identity()
        assert identity.holds
        assert z1 * P.d_zbar(1) - z2 * P.d_zbar(0) == -identity.lhs
        rhs = identity.rhs
        # every term of rhs is |z1|^(2 a1) |z2|^(2 a2): a function of t = |z1|^2 on the sphere
        assert all(alpha == beta for alpha, beta in rhs.terms)
        # |rhs|^2 and the sum of squares are quartics in t: equal at 6 points, equal everywhere
        for t in map(Fraction, ("0", "1/4", "1/3", "1/2", "2/3", "1")):
            value = sum(
                (c * (t**a1 * (1 - t) ** a2) for ((a1, a2), _), c in rhs.terms.items()),
                GaussianRational.of(0),
            )
            det_sq = value.re**2 + value.im**2
            third = Fraction(1, 3)
            assert det_sq == third**2 + 18 * (t - third) ** 2 * (t - 2 * third) ** 2
            assert abs(float(det_sq) - ar_det_sq_of_t(float(t))) <= 1e-15

    def test_resolution_validated(self):
        with pytest.raises(ValueError, match="resolution"):
            ar_determinant_profile(100)


def _assert_json_holds_every_compared_field(rep: CertificateReport) -> None:
    data = json.loads(rep.dumps())
    compared = [f.name for f in dataclasses.fields(CertificateReport) if f.compare]
    assert sorted(data) == sorted(compared)
    assert data == rep.to_json_dict()
    assert tuple(complex(*w) for w in data["argmin_z"]) == rep.argmin_z
    assert tuple(
        (tuple(complex(*w) for w in entry["z"]), entry["value"])
        for entry in data["converged_minima"]
    ) == rep.converged_minima


class TestReportSerialization:
    def test_sweep_report_round_trips(self):
        _assert_json_holds_every_compared_field(
            sweep(ar_embedding(), SweepConfig(samples=500, seed=2)))

    def test_multistart_report_round_trips(self):
        _assert_json_holds_every_compared_field(multistart_minimize(ar_embedding(), 2, 2))

    def test_is_ar_embedding_detector(self):
        assert is_ar_embedding(ar_embedding())
        assert is_ar_embedding(block_sum_embedding(1))
        assert not is_ar_embedding(block_sum_embedding(2))
        assert not is_ar_embedding(make_negative_control("radial", 2))


class TestHistogram:
    def test_counts_cover_all_samples(self):
        rep = sweep(ar_embedding(), SweepConfig(samples=2_000, seed=4))
        edges, counts = sigma_histogram(rep.sigma_min_samples)
        assert counts.sum() == 2_000
        assert len(edges) == len(counts) + 1

    def test_csv_round_trip(self):
        edges, counts = sigma_histogram(np.array([0.1, 0.2, 0.3]), bins=4)
        lines = histogram_csv(edges, counts).strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 5
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 3
