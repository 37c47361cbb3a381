"""Unit tests for the sharp-radius calculators."""

import math

import numpy as np
import pytest

from bohrlab.radii import (
    ANALYTIC_THRESHOLD_A,
    UNIVERSAL_RADIUS,
    RadiusResult,
    classical_radius,
    odd_bohr_radius,
    p_symmetric_radius,
    quadratic_residual,
    theorem5_radius,
    theorem6_radius,
    theorem6_threshold,
)

from oracles import sign_change_brackets


def odd_quartic(r):
    return 8 * r**4 + r**2 - 6 * r + 1


class TestClassical:
    def test_value(self):
        assert classical_radius().value == 1 / 3

    def test_specializes_p_symmetric(self):
        assert classical_radius().value == p_symmetric_radius(1).value

    def test_result_is_frozen_and_serializable(self):
        res = classical_radius()
        with pytest.raises(AttributeError):
            res.value = 0.5
        assert res.as_dict()["value"] == 1 / 3


class TestPSymmetric:
    def test_small_p_values(self):
        assert p_symmetric_radius(1).value == pytest.approx(1 / 3, abs=0)
        # pow(3, -1/2) sits within one ulp of 1/sqrt(3)
        assert p_symmetric_radius(2).value == pytest.approx(0.5773502691896258, abs=1e-15)
        assert p_symmetric_radius(2).value == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_cube_root_against_exponential_form(self):
        assert p_symmetric_radius(3).value == pytest.approx(math.exp(-math.log(3) / 3), abs=1e-15)
        assert p_symmetric_radius(3).value == pytest.approx(0.6933612743506347, abs=1e-15)

    def test_monotone_in_p(self):
        values = [p_symmetric_radius(p).value for p in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            p_symmetric_radius(0)

    def test_rejects_non_integer_p(self):
        # 2.5 gave 3^(-0.4), and 2.0 the radius of p = 2
        for p in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="^p must be an integer"):
                p_symmetric_radius(p)
        assert p_symmetric_radius(np.int64(2)).value == p_symmetric_radius(2).value


class TestOddRadius:
    def test_printed_value(self):
        assert odd_bohr_radius().value == pytest.approx(0.789991, abs=1e-6)

    def test_residual(self):
        res = odd_bohr_radius()
        assert abs(res.residual) <= 1e-12
        assert abs(odd_quartic(res.value)) <= 1e-12

    def test_against_companion_matrix_roots(self):
        roots = np.roots([8, 0, 1, -6, 1])
        real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-10 and 0 < r.real < 1)
        assert len(real) == 2
        assert odd_bohr_radius().value == pytest.approx(real[-1], abs=1e-12)

    def test_sign_scan_confirms_two_positive_roots(self):
        brackets = sign_change_brackets(odd_quartic, 1e-4, 1.0, 1e-4)
        assert len(brackets) == 2
        value = odd_bohr_radius().value
        assert brackets[0][1] < 0.2          # smaller root near 0.17
        assert brackets[1][0] < value < brackets[1][1] + 1e-12

    def test_location(self):
        value = odd_bohr_radius().value
        assert 0.78 < value < 0.79
        assert value > 3 ** -0.5


class TestTheorem5Radius:
    def test_at_zero(self):
        assert theorem5_radius(0.0).value == 0.5

    def test_at_threshold_hits_cap(self):
        res = theorem5_radius(ANALYTIC_THRESHOLD_A)
        assert res.value == pytest.approx(1 / 3, abs=1e-12)
        assert res.cap_binds is True

    def test_limit_at_one_is_universal_radius(self):
        assert theorem5_radius(1.0).value == pytest.approx(UNIVERSAL_RADIUS, abs=1e-12)

    def test_strictly_decreasing(self):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        values = [theorem5_radius(float(a)).value for a in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_cap_binds_iff_above_threshold(self):
        for a in np.linspace(0, 0.99, 100):
            res = theorem5_radius(float(a))
            assert res.cap_binds == (a >= ANALYTIC_THRESHOLD_A)
            if a >= ANALYTIC_THRESHOLD_A:
                assert res.value <= 1 / 3 + 1e-12
            else:
                assert res.value > 1 / 3 - 1e-12

    def test_root_of_quadratic_oracle(self):
        for a in (0.1, 0.4641, 0.5, 0.8, 0.99):
            root = max(
                r.real for r in np.roots([a * a, 2 * a + 2, -1.0]) if abs(r.imag) < 1e-12
            ) if a > 0 else 0.5
            assert theorem5_radius(a).value == pytest.approx(root, abs=1e-12)
            assert abs(theorem5_radius(a).residual) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            theorem5_radius(-0.1)
        with pytest.raises(ValueError):
            theorem5_radius(1.1)


class TestTheorem6Threshold:
    def test_endpoints(self):
        assert theorem6_threshold(0.0) == pytest.approx(ANALYTIC_THRESHOLD_A, abs=1e-15)
        assert theorem6_threshold(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_range_and_monotone(self):
        ks = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        values = [theorem6_threshold(float(k)) for k in ks]
        assert all(0.0 <= v <= ANALYTIC_THRESHOLD_A + 1e-15 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            theorem6_threshold(-0.2)
        with pytest.raises(ValueError):
            theorem6_threshold(1.2)


class TestTheorem6Radius:
    def test_k_zero_reduction(self):
        for a in np.linspace(0, 0.99, 100):
            assert theorem6_radius(float(a), 0.0).value == pytest.approx(
                theorem5_radius(float(a)).value, abs=1e-12
            )

    def test_degenerate_a_zero(self):
        for k in (0.0, 0.3, 1.0):
            assert theorem6_radius(0.0, k).value == pytest.approx(1 / (k + 2), abs=1e-15)

    def test_threshold_fixed_point(self):
        for k in (0.0, 0.25, 0.5, 0.75, 1.0):
            alpha = theorem6_threshold(k)
            assert theorem6_radius(alpha, k).value == pytest.approx(1 / 3, abs=1e-10)

    def test_cap_binds_iff_above_threshold(self):
        for k in (0.0, 0.25, 0.5, 0.75, 1.0):
            alpha = theorem6_threshold(k)
            for a in np.linspace(0, 0.99, 40):
                res = theorem6_radius(float(a), k)
                assert res.cap_binds == (a >= alpha)
                if a >= alpha:
                    assert res.value <= 1 / 3 + 1e-12

    def test_residual_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, k = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            assert abs(theorem6_radius(a, k).residual) <= 1e-12

    def test_rationalized_matches_difference_form_away_from_zero(self):
        for a in (0.2, 0.5, 0.9):
            for k in (0.1, 0.6, 1.0):
                b = math.sqrt(
                    a * a * (k * k + 8 * k + 8)
                    + 2 * a * (k * k + 6 * k + 4)
                    + (k + 2) ** 2
                )
                difference_form = (b - (k + 2) * (1 + a)) / (2 * a * a * (k + 1) + 2 * a * k)
                assert theorem6_radius(a, k).value == pytest.approx(difference_form, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            theorem6_radius(-0.1, 0.5)
        with pytest.raises(ValueError):
            theorem6_radius(0.5, 1.5)


class TestQuadraticResidual:
    def test_boundary_point(self):
        assert quadratic_residual("eq9", 0.0, 0.0, 0.5) == 0.0

    def test_root_residual(self):
        r = theorem5_radius(0.5).value
        assert abs(quadratic_residual("eq9", 0.5, 0.0, r)) <= 1e-12

    def test_unknown_label(self):
        for label in ("eq11", "eq12"):
            with pytest.raises(ValueError, match="expected eq9 or eq10$"):
                quadratic_residual(label, 0.1, 0.1, 0.1)


class TestRadiusResult:
    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            RadiusResult(value=1.5)

    def test_rejects_large_residual(self):
        with pytest.raises(ValueError):
            RadiusResult(value=0.5, residual=1e-6)
