"""Embedding catalog: stock constructions, the exact identity, controls, JSON."""

import math

import numpy as np
import pytest

from crsphere import (
    GR_I,
    GaussianRational,
    GraphEmbedding,
    WPolynomial,
    ar_embedding,
    block_sum_embedding,
    block_support_ok,
    eval_embedding,
    make_ar_polynomial,
    make_block_sum,
    make_graph_embedding,
    make_negative_control,
    restrict_to_block,
    verify_ar_identity,
)
from crsphere import verifier
from crsphere.catalog import ConfigError
from crsphere.wirtinger import MAX_VARIABLES
from helpers import random_unit, random_wpoly

GR = GaussianRational.of
CATALOG = [ar_embedding()] + [block_sum_embedding(n) for n in (1, 2, 3)]


class TestArPolynomial:
    def test_exact_terms(self):
        P = make_ar_polynomial()
        assert P.terms == {
            ((0, 1), (1, 2)): GR(1),
            ((1, 0), (2, 1)): GR_I,
        }

    def test_term_count_and_degrees(self):
        P = make_ar_polynomial()
        assert len(P) == 2
        assert all(sum(a) + sum(b) == 4 for a, b in P.terms)

    def test_vanishes_on_axes(self):
        assert make_ar_polynomial().eval([1, 0]) == 0


class TestBlockSum:
    def test_single_block_is_ar(self):
        assert make_block_sum(1) == make_ar_polynomial()

    def test_two_blocks(self):
        Q = make_block_sum(2)
        assert len(Q) == 4
        assert block_support_ok(Q, 2)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            make_block_sum(0)

    @pytest.mark.parametrize("n", [0, -1, MAX_VARIABLES // 2 + 1])
    def test_embedding_block_count_out_of_range_is_config_error(self, n):
        with pytest.raises(ConfigError, match="block count") as exc:
            block_sum_embedding(n)
        assert exc.value.name == "n"
        assert verifier.ConfigError is ConfigError  # re-exported where it was
        assert block_sum_embedding(MAX_VARIABLES // 2).m == MAX_VARIABLES

    def test_block_substitution_numeric(self):
        Q = make_block_sum(2)
        P = make_ar_polynomial()
        rng = np.random.default_rng(31)
        for _ in range(10):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            padded = np.array([z[0], z[1], 0, 0])
            assert abs(Q.eval(padded) - P.eval(z)) < 1e-12

    def test_block_support_exact(self):
        for n in range(1, 5):
            assert block_support_ok(make_block_sum(n), n)

    def test_block_restriction_identity_exact(self):
        for n in range(1, 5):
            Q = make_block_sum(n)
            for k in range(n):
                assert restrict_to_block(Q, n, k) == make_ar_polynomial()
                P = random_wpoly(np.random.default_rng(n + k), 2)
                assert restrict_to_block(P.shifted(2 * n, 2 * k), n, k) == P

    def test_mixed_term_fails_support_check(self):
        bad = WPolynomial.monomial(4, (1, 0, 1, 0), (0, 0, 0, 0), 1)
        assert not block_support_ok(bad, 2)


class TestGraphEmbedding:
    def test_ar_embedding_shape(self):
        E = ar_embedding()
        assert (E.m, E.q) == (2, 1)
        assert E.f[0] == make_ar_polynomial()

    def test_block_embedding_shape(self):
        E = block_sum_embedding(2)
        assert (E.m, E.q) == (4, 1)

    def test_too_many_graph_functions_rejected(self):
        p = make_ar_polynomial()
        with pytest.raises(ValueError, match="q"):
            make_graph_embedding(2, [p, p])

    def test_variable_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="variables"):
            make_graph_embedding(3, [make_ar_polynomial()])

    def test_eval_on_axis(self):
        E = ar_embedding()
        out = eval_embedding(E, [1, 0])
        assert np.allclose(out, [1, 0, 0])

    def test_eval_on_diagonal(self):
        E = ar_embedding()
        s = 1 / math.sqrt(2)
        out = eval_embedding(E, [s, s])
        assert np.allclose(out, [s, s, 0.25 + 0.25j])

    def test_eval_high_dim_axis(self):
        E = block_sum_embedding(2)
        out = eval_embedding(E, [1, 0, 0, 0])
        assert np.allclose(out, [1, 0, 0, 0, 0])

    def test_off_sphere_rejected_with_distance(self):
        E = ar_embedding()
        with pytest.raises(ValueError, match=r"\|\|z\|\| - 1"):
            eval_embedding(E, [1.0, 1.0])


class TestArIdentity:
    def test_residual_is_exactly_zero(self):
        result = verify_ar_identity()
        assert result.holds
        assert result.residual.is_zero

    def test_lhs_endpoint_values(self):
        lhs = verify_ar_identity().lhs
        assert lhs.eval([1, 0]) == -1j
        assert lhs.eval([0, 1]) == 1

    def test_lhs_has_three_terms(self):
        assert len(verify_ar_identity().lhs) == 3

    def test_perturbation_detected_as_one_term_residual(self):
        bump = WPolynomial.monomial(2, (0, 2), (0, 2), GR(1, 0))
        result = verify_ar_identity(rhs_perturbation=bump)
        assert not result.holds
        assert len(result.residual) == 1


class TestNegativeControls:
    def test_holomorphic_has_no_antiholomorphic_part(self):
        C = make_negative_control("holomorphic", 2)
        assert C.f[0].d_zbar(0).is_zero
        assert C.f[0].d_zbar(1).is_zero

    def test_radial_gradient_is_position(self):
        C = make_negative_control("radial", 2)
        assert C.f[0].d_zbar(0) == WPolynomial.variable(2, 0)
        assert C.f[0].d_zbar(1) == WPolynomial.variable(2, 1)

    def test_zero_control_is_zero(self):
        C = make_negative_control("zero", 3)
        assert C.f[0].is_zero

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown control kind"):
            make_negative_control("linear", 2)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError, match="m >= 2"):
            make_negative_control("zero", 1)

    @pytest.mark.parametrize("m", [1, MAX_VARIABLES + 1])
    def test_m_out_of_range_is_config_error(self, m):
        with pytest.raises(ConfigError) as exc:
            make_negative_control("radial", m)
        assert exc.value.name == "m"
        assert make_negative_control("radial", MAX_VARIABLES).m == MAX_VARIABLES


class TestSerialization:
    def test_catalog_round_trips(self):
        for E in CATALOG:
            assert GraphEmbedding.loads(E.dumps()) == E

    def test_controls_round_trip(self):
        for kind in ("holomorphic", "zero", "radial"):
            E = make_negative_control(kind, 3)
            assert GraphEmbedding.loads(E.dumps()) == E

    def test_schema_fields(self):
        d = ar_embedding().to_json_dict()
        assert set(d) == {"m", "q", "label", "f"}
        assert d["label"] == "ahern-rudin"

    def test_loads_validates(self):
        # 2 graph functions in C^2 violate q <= m-1 and must be rejected on read
        p = make_ar_polynomial().to_json_dict()
        bad = {"m": 2, "q": 2, "label": "bad", "f": [p, p]}
        import json

        with pytest.raises(ValueError):
            GraphEmbedding.loads(json.dumps(bad))


def test_catalog_labels_distinct():
    labels = [E.label for E in CATALOG]
    assert len(labels) == len(set(labels))


def test_embedding_images_satisfy_sphere_equation():
    rng = np.random.default_rng(32)
    E = block_sum_embedding(2)
    for _ in range(5):
        z = random_unit(rng, 4)
        out = eval_embedding(E, z)
        assert abs(np.linalg.norm(out[:4]) - 1) < 1e-12
