"""Sampling sweeps, multistart minimization, determinism, and the 1-D oracle."""

import dataclasses
import hashlib
import json
import sys
import threading
from concurrent.futures import wait
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crsphere import certify, verifier
from crsphere import (
    CertificateReport,
    GaussianRational,
    GraphEmbedding,
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
from helpers import random_embedding, random_wpoly

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

    @pytest.mark.parametrize("m, digest", [
        (3, "613f94b4db8797c3502a94f0c3a422b6bc2cca6368c20520bed399aabb11980a"),
        (6, "feebe4b065656070730d024dd3c10b43a9e7b705736e0dbfdb6bea4bb6619191"),
    ])
    def test_stream_pinned(self, m, digest):
        # every report depends on these bits, signs of zeros included
        assert hashlib.sha256(sample_sphere(m, 1000, 7).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("m, digest", [
        (3, "3f919cddd13e88780fe4291290eb1f367a0886c5f229999381c5526b46b9624b"),
        (6, "9f38cbb3a38604b71cc7412952d875af3e0e6b65ddcb16b7376120d1a81bbacc"),
    ])
    def test_stream_pinned_across_chunk_joins(self, m, digest):
        # drawn chunk by chunk, the points keep the bits of one whole draw
        Z = sample_sphere(m, 2 * certify._CHUNK + 5, 7)
        assert hashlib.sha256(Z.tobytes()).hexdigest() == digest


def _rank_then_band_verdict(s, q, tol):
    """The verdict rule by the numerical rank of every row, then the band."""
    if np.any(verifier.numerical_rank(s, tol) < q + 1):
        return VERDICT_FAILURE
    if np.any(verifier._is_marginal(s[:, -1], s[:, 0], tol)):
        return VERDICT_MARGINAL
    return VERDICT_ALL_REGULAR


@st.composite
def _singular_value_rows(draw):
    """(tol, q, s): descending rows s (n, q+1), sigma_min often on an edge of the rules."""
    tol, q = draw(st.sampled_from([1e-8, 1e-3, 0.05])), draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        smax = draw(st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0, 1e6))
        threshold = tol * smax
        smin = draw(st.sampled_from([
            0.0, threshold, np.nextafter(threshold, 0), np.nextafter(threshold, 1),
            threshold / verifier.MARGINAL_FACTOR, threshold * verifier.MARGINAL_FACTOR,
        ]) | st.floats(0, smax))
        smin = min(smin, smax)
        middle = draw(st.lists(st.floats(smin, smax), min_size=q - 1, max_size=q - 1))
        rows.append([smax, *sorted(middle, reverse=True), smin])
    s = np.array(rows)
    s[draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))] = np.nan
    return tol, q, s


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_singular_value_rows())
def test_verdict_is_the_rank_then_band_rule(case):
    # full rank as sigma_min > tol * sigma_max is numerical_rank == q + 1 for
    # descending rows, zero and NaN rows and the band's edges included
    tol, q, s = case
    assert certify._verdict(s, tol) == _rank_then_band_verdict(s, q, tol)


def _hold_spot_checks(monkeypatch) -> threading.Event:
    """Make a sweep's spot checks hold their worker until the returned event is
    set; they fail after 10 s without it, so a sweep that waits on them ends."""
    release, check = threading.Event(), certify.equivalence_check_many

    def held(*args):
        assert release.wait(10), "no chunk was ranked while the spot checks ran"
        return check(*args)

    monkeypatch.setattr(certify, "equivalence_check_many", held)
    return release


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
        # m = 6 and m = 3 coordinate rows per point, and a last chunk shorter
        # than the others
        samples = 9_001
        assert samples % certify._CHUNK
        r1 = sweep(E, SweepConfig(samples=samples, seed=5, workers=1))
        r2 = sweep(E, SweepConfig(samples=samples, seed=5, workers=2))
        assert r1.dumps() == r2.dumps()
        assert np.array_equal(r1.sigma_min_samples, r2.sigma_min_samples)
        assert np.array_equal(r1.sigma_max_samples, r2.sigma_max_samples)

    @pytest.mark.parametrize(
        "E", [ar_embedding(), random_embedding(31, 3, 1)], ids=lambda E: E.label
    )
    def test_argmin_past_the_first_chunk_is_the_streams_point(self, E):
        samples, seed = 3 * certify._CHUNK + 17, 3
        reports = [
            sweep(E, SweepConfig(samples=samples, seed=seed, workers=workers))
            for workers in (1, 2, 3)
        ]
        idx = int(np.argmin(reports[0].sigma_min_samples))
        assert idx >= certify._CHUNK
        Z = sample_sphere(E.m, samples, seed)
        for rep in reports:
            assert np.array_equal(np.asarray(rep.argmin_z), Z[idx])
            assert rep.dumps() == reports[0].dumps()

    @pytest.mark.parametrize("m", [2, 3])
    def test_ties_at_zero_give_the_streams_first_point(self, m):
        # sigma_min is 0 at every sample of the radial control
        E, samples = make_negative_control("radial", m), 3 * certify._CHUNK + 17
        first = sample_sphere(m, 1, 11)[0]
        for workers in (1, 2, 3):
            rep = sweep(E, SweepConfig(samples=samples, seed=11, workers=workers))
            assert not rep.sigma_min_samples.any()
            assert np.array_equal(np.asarray(rep.argmin_z), first)

    @pytest.mark.parametrize("samples", [50, 250, 9001])
    def test_spot_checks_cover_the_first_hundredth(self, samples):
        E = block_sum_embedding(2)
        rep = sweep(E, SweepConfig(samples=samples, seed=6, workers=2))
        spot = max(1, samples // 100)
        assert len(rep.spot_checks) == spot
        Z = np.array([r.z for r in rep.spot_checks])
        assert np.array_equal(Z, sample_sphere(E.m, samples, 6)[:spot])
        sigma_min = np.array([r.sigma_min for r in rep.spot_checks])
        assert sigma_min.tobytes() == rep.sigma_min_samples[:spot].tobytes()

    def test_many_threads_write_every_row(self):
        # more workers than CPUs, switching threads as often as the interpreter
        # allows: a lost or misplaced chunk would change the singular values
        E, samples = ar_embedding(), 40 * certify._CHUNK + 3
        s = IndependenceEvaluator(E).singular_values_many(sample_sphere(2, samples, 8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = sweep(E, SweepConfig(samples=samples, seed=8, workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert rep.sigma_min_samples.tobytes() == s[:, -1].tobytes()
        assert rep.sigma_max_samples.tobytes() == s[:, 0].tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_earliest_failed_chunk_is_raised(self, monkeypatch, workers):
        # every batch fails, the spot checks' too; the sweep reports chunk 0,
        # and a failed chunk stops the drawing of further ones
        batches = []

        def failing(self, points):
            batches.append(len(points))
            raise RuntimeError(f"{len(points)} {points[0]}")

        monkeypatch.setattr(IndependenceEvaluator, "singular_values_many", failing)
        samples = 3 * certify._CHUNK + 17
        with pytest.raises(RuntimeError) as exc:
            sweep(ar_embedding(), SweepConfig(samples=samples, seed=2, workers=workers))
        assert str(exc.value) == f"{certify._CHUNK} {sample_sphere(2, 1, 2)[0]}"
        assert sorted(batches) == [samples // 100] + [certify._CHUNK] * len(batches[1:])
        assert len(batches) <= 1 + workers

    def test_one_worker_ranks_on_the_calling_thread_during_the_spot_checks(self, monkeypatch):
        # the spot checks hold the only worker until the calling thread has
        # ranked two chunks itself; once they are done the pool ranks the rest
        E, samples, seed = ar_embedding(), 4 * certify._CHUNK + 17, 9
        expected = sweep(E, SweepConfig(samples=samples, seed=seed, workers=2))
        release = _hold_spot_checks(monkeypatch)
        caller, rank = threading.get_ident(), IndependenceEvaluator.singular_values_many
        batches, futures = [], []

        class Recording(certify.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        def recording(self, points):
            s = rank(self, points)
            batches.append((threading.get_ident(), len(points)))
            if batches == [(caller, certify._CHUNK)] * 2:
                release.set()
                wait(futures[:1], timeout=10)  # the spot checks, submitted first
            return s

        monkeypatch.setattr(certify, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(IndependenceEvaluator, "singular_values_many", recording)
        rep = sweep(E, SweepConfig(samples=samples, seed=seed, workers=1))
        pool = [size for thread, size in batches if thread != caller]
        assert batches[:2] == [(caller, certify._CHUNK)] * 2
        assert pool == [samples // 100, certify._CHUNK, certify._CHUNK, 17]
        assert rep.dumps() == expected.dumps()
        assert np.array_equal(rep.sigma_min_samples, expected.sigma_min_samples)
        assert np.array_equal(rep.sigma_max_samples, expected.sigma_max_samples)

    def test_a_chunk_failed_on_the_calling_thread_is_raised(self, monkeypatch):
        # with one worker, chunk 1 fails on the calling thread while the spot
        # checks hold the worker; they fail next, and chunk 1's error is raised
        samples, seed = 3 * certify._CHUNK + 17, 2
        release = _hold_spot_checks(monkeypatch)
        caller, rank = threading.get_ident(), IndependenceEvaluator.singular_values_many
        stream, drawn, batches = certify._normal_chunks, [], []

        def counting(m, count, seed):
            for x in stream(m, count, seed):
                drawn.append(count)
                yield x

        def failing_from_chunk_1(self, points):
            batches.append((threading.get_ident() == caller, len(points)))
            if batches == [(True, certify._CHUNK)]:
                return rank(self, points)
            release.set()
            raise RuntimeError(f"{len(points)} {points[0]}")

        monkeypatch.setattr(certify, "_normal_chunks", counting)
        monkeypatch.setattr(IndependenceEvaluator, "singular_values_many", failing_from_chunk_1)
        with pytest.raises(RuntimeError) as exc:
            sweep(ar_embedding(), SweepConfig(samples=samples, seed=seed, workers=1))
        chunk_1 = sample_sphere(2, certify._CHUNK + 1, seed)[certify._CHUNK]
        assert str(exc.value) == f"{certify._CHUNK} {chunk_1}"
        assert batches == [(True, certify._CHUNK)] * 2 + [(False, samples // 100)]
        assert drawn.count(samples) <= 2 + 1

    def test_the_calling_thread_draws_every_chunk_in_order(self, monkeypatch):
        # pool tasks only rank: the sweep's stream is drawn by its caller alone,
        # one chunk after another (the spot checks draw their own short copy)
        samples, seed = 3 * certify._CHUNK + 17, 4
        stream, draws = certify._normal_chunks, []

        def recording(m, count, seed):
            for x in stream(m, count, seed):
                draws.append((count, threading.get_ident(), x.copy()))
                yield x

        monkeypatch.setattr(certify, "_normal_chunks", recording)
        sweep(ar_embedding(), SweepConfig(samples=samples, seed=seed, workers=3))
        drawn = [(thread, x) for count, thread, x in draws if count == samples]
        expected = list(stream(2, samples, seed))
        assert len(drawn) == len(expected) == 4
        for (thread, x), y in zip(drawn, expected):
            assert thread == threading.get_ident()
            assert np.array_equal(x, y)

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
            (SweepConfig, {"seed": False}, "seed"),
            (SweepConfig, {"workers": 2.5}, "workers"),
            (SweepConfig, {"samples": 100.0}, "samples"),
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
        with pytest.raises(certify.ConfigError, match="restarts"):
            multistart_minimize(ar_embedding(), True, 1)
        SweepConfig(workers=64)
        SweepConfig(samples=np.int64(100), seed=np.uint8(3), workers=np.int32(2))
        # numpy scalars are kept as Python numbers, so reports dump as with them
        E, tol32 = ar_embedding(), np.float32(1e-8)
        for with_numpy, with_python in [
            (SweepConfig(samples=np.int64(100), seed=np.int64(3)), SweepConfig(samples=100, seed=3)),
            (SweepConfig(samples=100, tol=tol32, workers=np.int32(2)),
             SweepConfig(samples=100, tol=float(tol32), workers=2)),
        ]:
            assert [type(getattr(with_numpy, f)) for f in ("samples", "seed", "tol", "workers")] == [
                int, int, float, type(with_python.workers)
            ]
            assert sweep(E, with_numpy).dumps() == sweep(E, with_python).dumps()
        assert type(MinimizeOptions(tol=tol32).tol) is float
        for with_numpy, with_python in [
            (MinimizeOptions(), MinimizeOptions()),
            (MinimizeOptions(tol=tol32), MinimizeOptions(tol=float(tol32))),
        ]:
            rep = multistart_minimize(E, np.int64(2), np.int64(3), with_numpy)
            assert rep.dumps() == multistart_minimize(E, 2, 3, with_python).dumps()


class TestWorkerCount:
    def test_invalid_explicit(self):
        for workers in (0, -3):
            with pytest.raises(certify.ConfigError, match="workers") as exc:
                SweepConfig(workers=workers)
            assert exc.value.name == "workers"

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class Recording(certify.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(certify, "ThreadPoolExecutor", Recording)
        return sizes

    def test_default_is_the_cpus_the_process_may_use(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(certify.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(certify.os, "cpu_count", lambda: 2)
        sweep(ar_embedding(), SweepConfig(samples=100))
        assert pool_sizes == [1]

    def test_default_without_an_affinity_mask(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(certify.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(certify.os, "cpu_count", lambda: 3)
        sweep(ar_embedding(), SweepConfig(samples=100))
        assert pool_sizes == [3]

    def test_default_is_capped_like_the_flag(self, monkeypatch):
        monkeypatch.setattr(certify.os, "sched_getaffinity", lambda pid: set(range(128)),
                            raising=False)
        assert certify._default_workers() == 64
        monkeypatch.delattr(certify.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(certify.os, "cpu_count", lambda: 128)
        assert certify._default_workers() == 64


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


def _one_objective(E, objective):
    """The batched value and gradient with every row on one objective."""
    evaluate = certify._value_and_gradient(E)
    return lambda Z: evaluate(Z, np.full(len(Z), objective == OBJECTIVE_DET_SQ))


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
        evaluate = _one_objective(E, objective)
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


class TestDescentCost:
    @pytest.mark.parametrize(
        "E, objective, oracle, max_nfev",
        [
            (ar_embedding(), "sigma_min_sq", AR_SIGMA_MIN_SQ_GLOBAL, 40),
            (ar_embedding(), OBJECTIVE_DET_SQ, 1 / 9, 40),
            (block_sum_embedding(3), "sigma_min_sq", BLOCK_N3_SIGMA_MIN_SQ, 100),
        ],
        ids=["ar-sigma", "ar-det", "block-sum-n3"],
    )
    def test_evaluations_per_start_bounded(self, E, objective, oracle, max_nfev):
        # Barzilai-Borwein trial steps take at most 25, 24 and 73 evaluations
        # here; a step that only doubles and halves takes 70, 127 and 213
        evaluate = certify._value_and_gradient(E)
        minima = certify._descend(evaluate, sample_sphere(E.m, 64, 42),
                                  np.full(64, objective == OBJECTIVE_DET_SQ))
        assert all(lm.converged for lm in minima)
        assert max(lm.nfev for lm in minima) <= max_nfev
        assert abs(min(lm.value for lm in minima) - oracle) < 1e-12


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
        monkeypatch.setattr(certify, "_MAX_ITER", 2)
        rep = multistart_minimize(ar_embedding(), 2, 42)
        # the coarse-scan start plus two restarts, none within the cap
        assert rep.extras["unconverged_restarts"] == 3
        assert rep.converged_minima == ()

    def test_odd_m_graphs_are_never_all_regular(self):
        # the theorem: every q = 1 graph at odd m has CR singular points; at
        # seed 42 one of these runs ends marginal, so failure-found is not asserted
        rng = np.random.default_rng(11)
        for i in range(10):
            E = GraphEmbedding(3, 1, (random_wpoly(rng, 3),), f"random-m3-{i}")
            rep = multistart_minimize(E, 16, 1)
            assert rep.extras["unconverged_restarts"] == 0
            assert rep.verdict != VERDICT_ALL_REGULAR

    def test_restart_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            multistart_minimize(ar_embedding(), 0, 42)


class TestBatchedObjectives:
    """Starts of several objectives in one descent keep their own trajectories."""

    RUNS = [MinimizeOptions(), MinimizeOptions(objective=OBJECTIVE_DET_SQ)]

    @pytest.mark.parametrize("restarts", [16, 64])
    @pytest.mark.parametrize("seed", [1, 3, 42])
    def test_ar_batch_equals_separate_runs(self, seed, restarts):
        self._batch_equals_separate_runs(ar_embedding(), restarts, seed)

    def test_square_q2_batch_equals_separate_runs(self):
        self._batch_equals_separate_runs(random_embedding(7, 3, 2), 16, 3)

    def _batch_equals_separate_runs(self, E, restarts, seed):
        batch = certify.multistart_minimize_many(E, restarts, seed, self.RUNS)
        assert [rep.objective for rep in batch] == ["sigma_min_sq", OBJECTIVE_DET_SQ]
        for rep, opts in zip(batch, self.RUNS):
            assert rep.dumps() == multistart_minimize(E, restarts, seed, opts).dumps()

    def test_local_minimize_equals_its_row_of_the_batch(self):
        E = ar_embedding()
        starts = sample_sphere(2, 8, 5)
        det = np.arange(8) % 2 == 1
        minima = certify._descend(certify._value_and_gradient(E), starts, det)
        for z, is_det, lm in zip(starts, det, minima):
            opts = self.RUNS[int(is_det)]
            assert local_minimize(E, z, opts) == lm

    def test_det_run_on_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="square"):
            certify.multistart_minimize_many(block_sum_embedding(2), 2, 1, self.RUNS)


_AGREEMENT_CASES = [
    pytest.param(ar_embedding, id="ar"),
    pytest.param(lambda: block_sum_embedding(3), id="block-sum-n3"),
    pytest.param(lambda: make_negative_control("radial", 3), id="radial-m3"),
    pytest.param(lambda: make_negative_control("holomorphic", 2), id="holomorphic-m2"),
]


class TestSearchesAgreeWithPointReport:
    """Both searches rank their argmin as ``point_report`` does, bit for bit."""

    @pytest.mark.parametrize("make", _AGREEMENT_CASES)
    def test_multistart(self, make):
        self._multistart_agrees(make(), MinimizeOptions())

    def test_multistart_det_objective(self):
        self._multistart_agrees(ar_embedding(), MinimizeOptions(objective=OBJECTIVE_DET_SQ))

    @staticmethod
    def _multistart_agrees(E, opts):
        rep = multistart_minimize(E, 4, 3, opts)
        pr = point_report(E, rep.argmin_z, rep.tol)
        assert (pr.sigma_min, pr.sigma_max) == (rep.min_sigma, rep.sigma_max_at_argmin)
        if not pr.cr_regular:
            assert rep.verdict == VERDICT_FAILURE
        elif pr.marginal:
            assert rep.verdict == VERDICT_MARGINAL
        else:
            assert rep.verdict == VERDICT_ALL_REGULAR

    @pytest.mark.parametrize("make", _AGREEMENT_CASES)
    def test_sweep(self, make):
        # a sweep's verdict covers every sample, so only its argmin's values are compared
        E = make()
        rep = sweep(E, SweepConfig(samples=5_000, seed=3))
        pr = point_report(E, rep.argmin_z, rep.tol)
        assert (pr.sigma_min, pr.sigma_max) == (rep.min_sigma, rep.sigma_max_at_argmin)


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
