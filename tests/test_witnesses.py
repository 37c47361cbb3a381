"""Unit tests for witness generators and extremal families."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohrlab

from bohrlab.functionals import bohr_sum, theorem3_lhs, theorem6_lhs
from bohrlab import series, witnesses
from bohrlab.series import (
    BlaschkeSpec,
    _spec_columns,
    blaschke_series,
    compose,
    convolve_rows,
    derivative,
    eval_blaschke,
    evaluate,
    integrate,
    majorant_eval,
    make_series,
    mobius_series,
    mul,
    scale,
)
from bohrlab.witnesses import (
    DrawnSpec,
    bounded_from_spec,
    bounded_rows,
    build_quasi_triple,
    draw_blaschke_spec,
    draw_polynomial,
    draw_polynomials,
    draw_specs,
    extremal_corollary2,
    extremal_theorem3,
    extremal_theorem5,
    harmonic_rows,
    harmonic_witness,
    odd_rows,
    p_symmetric_lift,
    quasi_rows,
    random_schwarz,
    schwarz_from_spec,
    schwarz_rows,
)

from oracles import (
    mobius_by_long_division,
    per_object_blaschke,
    per_object_polynomial,
    per_object_spec,
    quasi_convolution,
)


class TestRandomSchwarz:
    def test_reproducible(self):
        a = random_schwarz(123)
        b = random_schwarz(123)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = random_schwarz(124)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_vanishes_at_origin(self):
        for seed in range(10):
            assert random_schwarz(seed).coeffs[0] == 0

    def test_odd_draws_have_zero_even_coefficients(self):
        for seed in range(10):
            w = random_schwarz(seed, odd=True)
            assert np.max(np.abs(w.coeffs[0::2])) < 1e-14

    def test_zero_free_draw_is_rotation_of_z(self):
        # seed chosen so the zero count comes out 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            if rng.integers(0, 5) == 0:
                w = random_schwarz(seed)
                assert abs(abs(w.coeffs[1]) - 1.0) < 1e-15
                assert np.max(np.abs(w.coeffs[2:])) == 0
                break
        else:
            pytest.fail("no zero-free seed found in range")

    def test_coefficient_majorant_stays_sane(self):
        # |omega| <= 1 forces every Taylor coefficient modulus <= 1
        for seed in range(5):
            assert np.max(np.abs(random_schwarz(seed).coeffs)) <= 1 + 1e-12


class TestBuildQuasiTriple:
    def test_subordination_degenerate(self):
        g = make_series([0.3, 1.0, 0.25j], 16)
        phi = make_series([1.0], 16)
        omega = make_series([0, 1], 16)
        triple = build_quasi_triple(g, phi, omega)
        assert np.allclose(triple.f.coeffs, g.coeffs, atol=1e-15)

    def test_majorization_degenerate(self):
        g = make_series([0.3, 1.0], 16)
        phi = bounded_from_spec(BlaschkeSpec(zeros=(0.3,)), 16)
        omega = make_series([0, 1], 16)
        triple = build_quasi_triple(g, phi, omega)
        oracle = np.convolve(phi.coeffs, g.coeffs)[:17]
        assert np.allclose(triple.f.coeffs, oracle, atol=1e-14)

    def test_coefficients_match_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = draw_polynomial(rng, 32)
            phi = bounded_from_spec(draw_blaschke_spec(rng), 32)
            omega = schwarz_from_spec(draw_blaschke_spec(rng), order=32)
            triple = build_quasi_triple(g, phi, omega)
            oracle = quasi_convolution(
                list(g.coeffs), list(phi.coeffs), list(omega.coeffs), g.exact_degree, 33
            )
            assert np.max(np.abs(np.array(oracle) - triple.f.coeffs)) < 1e-12

    def test_requires_polynomial_outer(self):
        g = mobius_series(0.5, 16)  # infinite family, exact_degree unset
        with pytest.raises(ValueError, match="polynomial"):
            build_quasi_triple(g, make_series([1], 16), make_series([0, 1], 16))

    def test_requires_vanishing_inner(self):
        g = make_series([0, 1], 16)
        with pytest.raises(ValueError, match="vanish"):
            build_quasi_triple(g, make_series([1], 16), make_series([0.2, 1], 16))

    def test_inner_with_tiny_constant_refused(self):
        # compose refuses an inner whose constant is not exactly zero, 1e-16
        # included, so no such triple reaches the identity check
        rng = np.random.default_rng(5)
        g = draw_polynomial(rng, 24)
        omega = schwarz_from_spec(draw_blaschke_spec(rng), order=24) + make_series([1e-16], 24)
        with pytest.raises(ValueError, match="vanish at the origin"):
            build_quasi_triple(g, bounded_from_spec(draw_blaschke_spec(rng), 24), omega)

    def test_identity_check_rejects_f_off_by_1e9(self):
        rng = np.random.default_rng(11)
        g, degrees = draw_polynomials([np.random.default_rng((11, i)) for i in range(6)])
        phi = bounded_rows([draw_blaschke_spec(rng) for _ in range(6)], 24)
        omega = schwarz_rows([draw_blaschke_spec(rng) for _ in range(6)], 24)
        f = quasi_rows(g, degrees, phi, omega)
        for row, index in [(0, 0), (3, 7), (5, 24)]:
            spoiled = f.copy()
            spoiled[row, index] += 1e-9
            expected = f"by {shifted_identity_gap(g, phi, omega, spoiled):.3e};"
            assert expected == "by 1.000e-09;"
            with pytest.raises(AssertionError, match=expected):
                witnesses._check_convolution_identity(g, phi, omega, spoiled)
        assert shifted_identity_gap(g, phi, omega, f) <= witnesses.CONVOLUTION_CHECK_TOL
        witnesses._check_convolution_identity(g, phi, omega, f)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_identity_check_rejects_each_spoiled_row_of_every_degree(self, copies):
        # one outer of each degree 0..8 (two of each: 18 rows, past
        # _MATMUL_ROWS), so that every row meets a different live set of
        # powers of omega; each row is spoiled at index 0, at its degree
        # and at N
        g, degrees, phi, omega = every_degree_block(copies, 24)
        f = quasi_rows(g, degrees, phi, omega)
        witnesses._check_convolution_identity(g, phi, omega, f)
        for row, degree in enumerate(degrees):
            for index in (0, degree, 24):
                spoiled = f.copy()
                spoiled[row, index] += 1e-9
                with pytest.raises(AssertionError, match="by 1.000e-09;"):
                    witnesses._check_convolution_identity(g, phi, omega, spoiled)

    def test_identity_check_forms_omega_powers_for_live_rows_only(self, monkeypatch):
        # omega^d is formed for the 9 - d rows of degree d and up, omega^1 is
        # omega itself, and then phi * b is one call for every row
        g, degrees, phi, omega = every_degree_block(1, 24)
        f = quasi_rows(g, degrees, phi, omega)
        calls, real = [], witnesses.convolve_rows

        def counting(a, b):
            calls.append(len(a))
            return real(a, b)

        monkeypatch.setattr(witnesses, "convolve_rows", counting)
        witnesses._check_convolution_identity(g, phi, omega, f)
        assert calls == [7, 6, 5, 4, 3, 2, 1, 9]
        calls.clear()
        low = degrees <= 1
        witnesses._check_convolution_identity(g[low], phi[low], omega[low], f[low])
        assert calls == [2]

    def test_majorant_domination_property(self):
        rng = np.random.default_rng(19)
        grid = np.linspace(1e-3, 1 / 3, 12)
        for _ in range(25):
            g = draw_polynomial(rng, 48)
            phi = bounded_from_spec(draw_blaschke_spec(rng), 48)
            omega = schwarz_from_spec(draw_blaschke_spec(rng), order=48)
            triple = build_quasi_triple(g, phi, omega)
            for r in grid:
                assert bohr_sum(triple.f, r) <= bohr_sum(g, r) + 1e-9


def every_degree_block(copies, order):
    """(g, degrees, phi, omega) of a quasi_rows block with ``copies`` outers
    of each degree 0..8, every coefficient up to the degree nonzero."""
    rng = np.random.default_rng(copies)
    degrees = np.tile(np.arange(9), copies)
    g = rng.uniform(0.5, 2.0, (degrees.size, 9)) * np.exp(2j * np.pi * rng.random((degrees.size, 9)))
    g[np.arange(9) > degrees[:, None]] = 0.0
    phi = bounded_rows([draw_blaschke_spec(rng) for _ in degrees], order)
    omega = schwarz_rows([draw_blaschke_spec(rng) for _ in degrees], order)
    return g, degrees, phi, omega


def shifted_identity_gap(g_rows, phi_rows, omega_rows, f_rows):
    """The gap the convolution identity check measured before it formed full
    powers of omega: for inners that vanish exactly at the origin, only the
    entries of omega^d from index d on, which drops exact zeros alone."""
    n = f_rows.shape[1]
    b = np.zeros_like(f_rows)
    w_pow = np.zeros_like(f_rows)
    w_pow[:, 0] = 1.0
    lo = 0
    for d in range(g_rows.shape[1]):
        if d:
            w_pow, lo = convolve_rows(w_pow, omega_rows[:, : n - lo])[:, 1:], lo + 1
        b[:, lo:] += g_rows[:, d, None] * w_pow
    return float(np.max(np.abs(convolve_rows(phi_rows, b) - f_rows)))


class TestExtremals:
    def test_corollary2_matches_long_division(self):
        f = extremal_corollary2(0.5, 10)
        assert np.allclose(f.coeffs, mobius_by_long_division(0.5, 11), atol=1e-14)

    def test_corollary2_identity_map_at_zero(self):
        assert np.array_equal(extremal_corollary2(0.0, 6).coeffs, [0, 1, 0, 0, 0, 0, 0])

    def test_theorem5_at_zero_is_minus_z(self):
        assert np.array_equal(extremal_theorem5(0.0, 6).coeffs, [0, -1, 0, 0, 0, 0, 0])

    def test_theorem5_coefficient_table(self):
        f = extremal_theorem5(0.5, 8)
        assert np.allclose(
            f.coeffs[:4], [0.5, -0.75, -0.375, -0.1875], atol=1e-15
        )

    def test_theorem5_rational_value_matches_series(self):
        a0 = 0.4 + 0.3j
        f = extremal_theorem5(a0, 64)
        for z in (0.2, -0.3j, 0.25 + 0.1j):
            rational = (a0 - z) / (1 - np.conj(a0) * z)
            assert abs(complex(evaluate(f, z)) - rational) < 1e-12
            assert abs(f.tag.value_at(z) - rational) < 1e-15

    def test_theorem3_lambda_zero_collapses(self):
        pair = extremal_theorem3(0.5, 0.0, 16)
        assert np.array_equal(pair.h.coeffs, extremal_corollary2(0.5, 16).coeffs)
        assert np.all(pair.g.coeffs == 0)
        assert pair.k == 0.0

    def test_theorem3_tail_is_scaled_h_tail(self):
        pair = extremal_theorem3(0.6, 0.7, 16)
        assert np.allclose(pair.g.coeffs[1:], 0.7 * pair.h.coeffs[1:], atol=1e-15)
        assert pair.g.coeffs[0] == 0

    def test_theorem3_identity_through_functional(self):
        pair = extremal_theorem3(0.45, 0.8, 32)
        for r in (0.1, 0.3, 1 / 3):
            assert theorem3_lhs(pair, 0.45, r) == pytest.approx(1.0, abs=1e-12)

    def test_full_scale_display_value(self):
        a, r = 0.5, 0.25
        pair = extremal_theorem3(a, 1.0, 32)
        expected = (r + a) / (1 + a * r) + 2 * r * (1 - a * a) / (1 - r * a)
        assert theorem6_lhs(pair, r) == pytest.approx(expected, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            extremal_theorem5(1.0)
        with pytest.raises(ValueError):
            extremal_theorem3(0.5, 1.2)


class TestHarmonicWitness:
    def test_zero_dilatation_gives_zero_tail(self):
        h = bounded_from_spec(BlaschkeSpec(zeros=(0.5,)), 16)
        pair = harmonic_witness(h, 0.0, make_series([1.0], 16))
        assert np.all(pair.g.coeffs == 0)

    def test_unit_multiplier_scales_tail(self):
        # omega_tilde = 1 makes g' = k h', so g is the k-scaled tail of h
        h = mobius_series(0.4, 24)
        pair = harmonic_witness(h, 0.6, make_series([1.0], 24))
        assert np.allclose(pair.g.coeffs[1:], 0.6 * h.coeffs[1:], rtol=5e-16, atol=0)
        assert pair.g.coeffs[0] == 0

    def test_derivative_majorant_domination(self):
        rng = np.random.default_rng(71)
        r = 1 / 3
        for _ in range(20):
            h = bounded_from_spec(draw_blaschke_spec(rng, min_zeros=1), 64)
            omega_tilde = bounded_from_spec(draw_blaschke_spec(rng), 64)
            k = float(rng.uniform(0, 1))
            pair = harmonic_witness(h, k, omega_tilde)
            lhs = majorant_eval(derivative(pair.g), r)
            rhs = majorant_eval(derivative(pair.h), r)
            assert lhs <= k * rhs + 1e-9

    def test_integrated_majorant_domination(self):
        rng = np.random.default_rng(72)
        r = 1 / 3
        for _ in range(20):
            h = bounded_from_spec(draw_blaschke_spec(rng, min_zeros=1), 64)
            omega_tilde = bounded_from_spec(draw_blaschke_spec(rng), 64)
            k = float(rng.uniform(0, 1))
            pair = harmonic_witness(h, k, omega_tilde)
            lhs = majorant_eval(pair.g, r, skip_constant=True)
            rhs = majorant_eval(pair.h, r, skip_constant=True)
            assert lhs <= k * rhs + 1e-9

    def test_rejects_bad_k(self):
        h = make_series([0, 1], 8)
        with pytest.raises(ValueError):
            harmonic_witness(h, -0.1, make_series([1], 8))

    def test_rejects_order_mismatch(self):
        with pytest.raises(ValueError, match="truncation order mismatch: 8 vs 16"):
            harmonic_witness(make_series([0, 1], 8), 0.5, make_series([1], 16))

    @pytest.mark.parametrize(
        "h, omega_tilde",
        [
            (make_series([0.5, 1.0, 0.25j], 8), make_series([0.3, 0.2], 8)),
            (make_series([0.5], 8), make_series([1.0], 8)),
            (make_series([0.0, 0.5, 0.25, 0.1, 0.2, 0.3], 8), make_series([0.1, 0.2, 0.3, 0.4], 8)),
            (make_series([0.0, 1.0], 8), bounded_from_spec(BlaschkeSpec(zeros=(0.5,)), 8)),
        ],
    )
    def test_exact_degree_follows_the_series_operations(self, h, omega_tilde):
        # degrees 3, 1, 8 and truncated: g = integral of k * omega_tilde * h'
        expected = integrate(scale(mul(omega_tilde, derivative(h)), 0.5))
        got = harmonic_witness(h, 0.5, omega_tilde).g
        assert got.coeffs.tobytes() == expected.coeffs.tobytes()
        assert got.exact_degree == expected.exact_degree


class TestStackedBuilders:
    """The stacked builders give each row the bytes of an independent
    per-row reference, on both sides of the row count at which
    convolve_rows switches from per-row np.convolve to one matmul per
    output, and of the per-spec builders, their one-row calls."""

    @pytest.mark.parametrize("order", [1, 2, 8, 64, 256])
    @pytest.mark.parametrize("rows", [1, 11, series._MATMUL_ROWS - 1, series._MATMUL_ROWS, 40])
    def test_rows_match_per_spec_builders(self, order, rows):
        rng = np.random.default_rng(7 * order + rows)
        specs = [draw_blaschke_spec(rng, min_zeros=i % 5, max_zeros=i % 5) for i in range(rows)]
        specs_tilde = [draw_blaschke_spec(rng) for _ in range(rows)]
        a0s = [complex(a * np.exp(1j * p)) for a, p in zip(rng.uniform(0, 0.95, rows), rng.uniform(0, 6.3, rows))]
        ks = rng.uniform(0.0, 1.0, rows)
        ks[0] = 1.0

        omega = schwarz_rows(specs, order)
        omega_tilde = bounded_rows(specs_tilde, order)
        for got, specs_of, vanish, one_row in (
            (omega, specs, True, lambda s: schwarz_from_spec(s, order=order)),
            (omega_tilde, specs_tilde, False, lambda s: bounded_from_spec(s, order)),
        ):
            expected = np.stack([per_object_blaschke(s.zeros, s.rotation, order, vanish) for s in specs_of])
            assert got.tobytes() == expected.tobytes()
            assert got.tobytes() == np.stack([one_row(s).coeffs for s in specs_of]).tobytes()

        hs = [compose(mobius_series(a0, order), schwarz_from_spec(s, order=order)) for a0, s in zip(a0s, specs)]
        tildes = [bounded_from_spec(t, order) for t in specs_tilde]
        # g = integral of k * omega_tilde * h', one series operation at a time
        expected = np.stack([integrate(scale(mul(t, derivative(h)), k)).coeffs for h, k, t in zip(hs, ks, tildes)])
        g_rows = harmonic_rows(np.stack([h.coeffs for h in hs]), ks, omega_tilde)
        assert g_rows.tobytes() == expected.tobytes()
        pairs = [harmonic_witness(h, k, t) for h, k, t in zip(hs, ks, tildes)]
        assert g_rows.tobytes() == np.stack([p.g.coeffs for p in pairs]).tobytes()

    def test_harmonic_rows_rejects_bad_k(self):
        h = np.zeros((2, 5), dtype=complex)
        with pytest.raises(ValueError, match="k must lie"):
            harmonic_rows(h, [0.5, 1.2], h)

    def test_harmonic_rows_reject_non_finite_block(self):
        h = np.zeros((3, 5), dtype=complex)
        h[:, 1] = 1.0
        omega_tilde = np.ones((3, 5), dtype=complex)
        omega_tilde[2, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite coefficient at index 2 of row 2"):
            harmonic_rows(h, [0.5, 0.5, 0.5], omega_tilde)


class TestColumnarDraws:
    """Columnar draws give every row the bits of the per-object draw it
    replaces and leave each generator where that draw left it."""

    KEYS = [(7, 1, t) for t in range(400)]

    @staticmethod
    def _rngs(keys):
        return [np.random.default_rng(key) for key in keys]

    def test_specs_match_per_object_draws(self):
        rngs, refs = self._rngs(self.KEYS), self._rngs(self.KEYS)
        counts = set()
        for lo, hi in [(0, 4), (1, 4), (0, 0), (4, 4), (2, 3)]:
            for spec, ref in zip(draw_specs(rngs, lo, hi), refs):
                zeros, rotation = per_object_spec(ref, lo, hi)
                assert spec.zeros.tobytes() == zeros.tobytes()
                assert np.complex128(spec.rotation).tobytes() == np.complex128(rotation).tobytes()
                counts.add(len(zeros))
        assert counts == {0, 1, 2, 3, 4}
        # an integer draw after a run of doubles reads the same buffered state
        assert [int(r.integers(0, 1000)) for r in rngs] == [int(r.integers(0, 1000)) for r in refs]

    @pytest.mark.parametrize("max_degree, coeff_cap", [(8, 2.0), (3, 2.0), (5, 0.7)])
    def test_polynomials_match_per_object_draws(self, max_degree, coeff_cap):
        rngs, refs = self._rngs(self.KEYS), self._rngs(self.KEYS)
        for _ in range(2):  # the second round starts after a run of doubles
            rows, degrees = draw_polynomials(rngs, max_degree, coeff_cap)
            assert rows.shape == (len(self.KEYS), max_degree + 1)
            for row, degree, ref in zip(rows, degrees, refs):
                coeffs = per_object_polynomial(ref, max_degree, coeff_cap)
                assert row[: degree + 1].tobytes() == coeffs.tobytes() and not np.any(row[degree + 1 :])
            assert set(degrees) == set(range(max_degree + 1))
        assert [float(r.random()) for r in rngs] == [float(r.random()) for r in refs]

    def test_one_row_draws_match_per_object_draws(self):
        for key in self.KEYS[:50]:
            rng, ref = np.random.default_rng(key), np.random.default_rng(key)
            g = draw_polynomial(rng, 12)
            spec = draw_blaschke_spec(rng, min_zeros=1)
            coeffs = per_object_polynomial(ref)
            assert g.coeffs.tobytes() == make_series(coeffs, 12).coeffs.tobytes()
            assert g.exact_degree == len(coeffs) - 1
            assert spec == BlaschkeSpec(*per_object_spec(ref, 1))

    def test_drawn_coefficients_checked_finite(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite coefficient"):
            draw_polynomials(self._rngs(self.KEYS[:3]), 2, coeff_cap=np.inf)

    def test_empty_draws(self):
        assert draw_specs([]) == []
        rows, degrees = draw_polynomials([], 3)
        assert rows.shape == (0, 4) and list(degrees) == []


class TestOddRows:
    """t2's row-built outers z*q(z^2) and inners z*B(z^2) equal the
    per-series constructions at odd and even orders, signed zeros included."""

    @pytest.mark.parametrize("order", [7, 8, 64, 65])
    def test_outer_rows_match_mul_of_lift(self, order):
        rng = np.random.default_rng(order)
        q = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
        q[0, 1] = complex(-0.0, 0.5)
        q[1, 2] = complex(0.3, -0.0)
        q[2, 3] = complex(-0.0, -0.0)
        q[3, 2:] = 0.0
        z = make_series([0.0, 1.0], order)
        expected = [mul(z, p_symmetric_lift(make_series(row, order // 2), 2, order=order)).coeffs for row in q]
        got = odd_rows(q, order)
        assert got.tobytes() == np.stack(expected).tobytes()
        assert np.signbit(q[0, 1].real) and not np.signbit(got[0, 3].real)

    @pytest.mark.parametrize("order", [7, 8, 64, 65, 256])
    def test_inner_rows_match_schwarz_from_spec(self, order):
        specs = [draw_blaschke_spec(np.random.default_rng((order, i)), i % 5, i % 5) for i in range(10)]
        specs.append(BlaschkeSpec(zeros=(complex(0.5, -0.0), complex(-0.0, 0.25)), rotation=complex(-1.0, 0.0)))
        expected = np.stack([schwarz_from_spec(s, odd=True, order=order).coeffs for s in specs])
        assert schwarz_rows(specs, order, odd=True).tobytes() == expected.tobytes()

    # the odd inner used to be built as mul(z, p_symmetric_lift(B, 2)) of B
    # expanded at order // 2; odd_rows now builds it
    @pytest.mark.parametrize("order", [2, 7, 8, 64, 65])
    def test_odd_schwarz_matches_mul_of_lift(self, order):
        specs = [draw_blaschke_spec(np.random.default_rng((order, i)), i % 5, i % 5) for i in range(10)]
        specs.append(BlaschkeSpec(zeros=(complex(0.5, -0.0), complex(-0.0, 0.25))))
        specs.append(BlaschkeSpec(rotation=complex(-1.0, 0.0)))
        z = make_series([0.0, 1.0], order)
        for spec in specs:
            expected = mul(z, p_symmetric_lift(blaschke_series(spec, order // 2), 2, order=order))
            got = schwarz_from_spec(spec, odd=True, order=order)
            assert got.coeffs.tobytes() == expected.coeffs.tobytes()
            assert got.exact_degree == expected.exact_degree == (None if spec.zeros else 1)

    def test_odd_inner_at_order_one_is_z_times_b0(self):
        # B was expanded at order 1 // 2 = 0, which blaschke_series refused
        spec = BlaschkeSpec(zeros=(0.5j, -0.25), rotation=-1.0)
        expected = np.array([0.0, blaschke_series(spec, 1).coeffs[0] + 0.0])
        assert schwarz_from_spec(spec, odd=True, order=1).coeffs.tobytes() == expected.tobytes()
        assert schwarz_rows([spec], 1, odd=True)[0].tobytes() == expected.tobytes()

    def test_odd_tripwire_runs_on_every_spec(self, monkeypatch):
        real = witnesses._boundary_moduli
        broken = DrawnSpec(np.array([0.5 + 0.0j]), 1.0 + 0.0j)
        specs = [DrawnSpec(np.array([], dtype=complex), 1.0 + 0.0j), broken]
        def broken_moduli(zeros, counts, rotations, z):
            return np.where((zeros[:, :1] == 0.5) & (counts[:, None] == 1), 2.0, real(zeros, counts, rotations, z))

        monkeypatch.setattr(witnesses, "_boundary_moduli", broken_moduli)
        with pytest.raises(AssertionError, match="exceeds modulus one"):
            schwarz_rows(specs, 8, odd=True)


class TestBoundaryTripwire:
    """The stacked tripwire reads the moduli eval_blaschke gives and checks
    every spec it is handed."""

    @staticmethod
    def _specs(key, rows):
        """rows drawn specs, then eight zero-free and eight four-zero ones."""
        specs = draw_specs([np.random.default_rng((key, i)) for i in range(rows)])
        specs += draw_specs([np.random.default_rng((key, rows, i)) for i in range(8)], 0, 0)
        return specs + draw_specs([np.random.default_rng((key, rows + 1, i)) for i in range(8)], 4, 4)

    @pytest.mark.parametrize("inner, odd", [(False, False), (True, False), (True, True)])
    def test_worst_modulus_matches_eval_blaschke(self, inner, odd):
        specs = self._specs(3, 200)
        assert {len(s.zeros) for s in specs} == {0, 1, 2, 3, 4}
        sample = witnesses._BOUNDARY_SAMPLE
        z = sample**2 if odd else sample
        moduli = witnesses._boundary_moduli(*_spec_columns(specs), z)
        got = np.max(moduli * np.abs(sample) if inner else moduli, axis=1)
        for worst, spec in zip(got, specs):
            values = eval_blaschke(spec, z)
            assert abs(worst - np.max(np.abs(sample * values if inner else values))) <= 1e-15

    # 130 specs span three chunks of the tripwire; the spec the broken
    # evaluator reports over one sits at each chunk's first and last row.
    @pytest.mark.parametrize("position", [0, 1, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("build", ["bounded", "schwarz", "odd"])
    def test_one_broken_row_raises(self, monkeypatch, position, build):
        specs = [DrawnSpec(np.array([0.005 * i + 0.0j]), 1.0 + 0.0j) for i in range(130)]
        real = witnesses._boundary_moduli
        def broken_moduli(zeros, counts, rotations, z):
            moduli = real(zeros, counts, rotations, z)
            moduli[zeros[:, 0] == specs[position].zeros[0], 7] = 2.0
            return moduli

        monkeypatch.setattr(witnesses, "_boundary_moduli", broken_moduli)
        call = {
            "bounded": lambda: bounded_rows(specs, 8),
            "schwarz": lambda: schwarz_rows(specs, 8),
            "odd": lambda: schwarz_rows(specs, 8, odd=True),
        }[build]
        with pytest.raises(AssertionError, match="exceeds modulus one on the boundary sample"):
            call()

    # An inner witness z*B(z) is bounded by 0.95 |B| on the sample, so a
    # modulus of B up to 1/0.95 passes there and fails for B itself.
    def test_inner_witness_carries_the_factor_z(self, monkeypatch):
        monkeypatch.setattr(witnesses, "_boundary_moduli", lambda zeros, counts, rotations, z: np.full((counts.size, z.size), 1.05))
        schwarz_rows([BlaschkeSpec()], 8)
        schwarz_rows([BlaschkeSpec()], 8, odd=True)
        with pytest.raises(AssertionError, match="boundary sample: 1.05"):
            bounded_rows([BlaschkeSpec()], 8)

    def test_nan_modulus_raises(self, monkeypatch):
        monkeypatch.setattr(witnesses, "_boundary_moduli", lambda zeros, counts, rotations, z: np.full((counts.size, z.size), np.nan))
        with pytest.raises(AssertionError, match="boundary sample: nan"):
            bounded_rows([BlaschkeSpec()], 8)



# The stacked builders, each called with the specs it builds from.
_STACKED_BUILDERS = {
    "bounded": lambda specs: bounded_rows(specs, 8),
    "schwarz": lambda specs: schwarz_rows(specs, 8),
    "odd": lambda specs: schwarz_rows(specs, 8, odd=True),
}


class TestSpecColumnsOnce:
    """A stacked builder forms its spec columns, and makes BlaschkeSpec's
    checks, once a call: the tripwire and the expansion read the same
    columns, and a bad spec is refused before any tripwire arithmetic."""

    GOOD = DrawnSpec(np.array([0.5j]), 1.0 + 0.0j)

    @pytest.mark.parametrize("build", list(_STACKED_BUILDERS))
    def test_columns_formed_once_per_call(self, monkeypatch, build):
        specs = [BlaschkeSpec(), BlaschkeSpec(zeros=(0.5j, -0.3)), self.GOOD]
        expected = _STACKED_BUILDERS[build](specs)
        # counted in both namespaces that hold it, so a call from either
        # module is seen
        calls = []
        real = series._spec_columns

        def counting(specs):
            calls.append(len(specs))
            return real(specs)

        monkeypatch.setattr(series, "_spec_columns", counting)
        monkeypatch.setattr(witnesses, "_spec_columns", counting)
        assert _STACKED_BUILDERS[build](specs).tobytes() == expected.tobytes()
        assert calls == [3]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (DrawnSpec(np.array([0.95 + 0.0j]), 1.0 + 0.0j), "zero with modulus 0.9500 exceeds cap 0.9"),
            (DrawnSpec(np.full(5, 0.1 + 0.0j), 1.0 + 0.0j), "at most 4 zeros"),
            (DrawnSpec(np.array([], dtype=complex), 1.0 + 1e-13 + 0.0j), "rotation must be unimodular"),
            (DrawnSpec(np.array([0.5, complex(np.nan, 0.1)]), 1.0 + 0.0j), "zero with modulus nan"),
            (DrawnSpec(np.array([0.5 + 0.0j]), complex(np.nan, 0.0)), "rotation must be unimodular .modulus nan."),
        ],
    )
    @pytest.mark.parametrize("build", list(_STACKED_BUILDERS))
    def test_bad_spec_refused_before_the_tripwire(self, monkeypatch, build, bad, message):
        def unreached(zeros, counts, rotations, z):
            raise AssertionError("tripwire arithmetic ran on unchecked specs")

        monkeypatch.setattr(witnesses, "_boundary_moduli", unreached)
        with pytest.raises(ValueError, match=message):
            _STACKED_BUILDERS[build]([self.GOOD, bad, self.GOOD])


class TestPSymmetricLift:
    def test_z_to_z_squared(self):
        lifted = p_symmetric_lift(make_series([0, 1], 4), 2)
        assert np.array_equal(lifted.coeffs, [0, 0, 1, 0, 0, 0, 0, 0, 0])

    def test_mobius_lift_support(self):
        base = mobius_series(0.5, 16)
        lifted = p_symmetric_lift(base, 2)
        assert np.all(lifted.coeffs[1::2] == 0)
        assert np.array_equal(lifted.coeffs[0::2], base.coeffs)

    def test_majorant_substitution_identity(self):
        base = mobius_series(0.6, 16)
        for p in (1, 2, 3):
            lifted = p_symmetric_lift(base, p)
            for r in (0.2, 0.5, 0.9):
                assert majorant_eval(lifted, r) == pytest.approx(
                    majorant_eval(base, r**p), rel=1e-12
                )

    def test_explicit_order_and_overflow(self):
        base = make_series([1, 1, 1], 2)
        lifted = p_symmetric_lift(base, 2, order=8)
        assert lifted.order == 8
        with pytest.raises(ValueError, match="overflow"):
            p_symmetric_lift(base, 5, order=8)


class TestOddStructure:
    def test_odd_composition_has_zero_even_coefficients(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            q = draw_polynomial(rng, 16, max_degree=3)
            g = make_series([0, 1], 32) * p_symmetric_lift(q, 2, order=32)
            omega = schwarz_from_spec(draw_blaschke_spec(rng), odd=True, order=32)
            f = compose(g, omega)
            assert np.max(np.abs(f.coeffs[0::2])) < 1e-14

    def test_partial_sum_domination_each_length(self):
        rng = np.random.default_rng(100)
        cap = 3 ** -0.5
        for _ in range(10):
            q = draw_polynomial(rng, 32, max_degree=3)
            g = make_series([0, 1], 64) * p_symmetric_lift(q, 2, order=64)
            omega = schwarz_from_spec(draw_blaschke_spec(rng), odd=True, order=64)
            f = compose(g, omega)
            for r in (0.2, 0.5, cap):
                powers = r ** np.arange(1, 65, 2)
                f_cum = np.cumsum(np.abs(f.coeffs[1::2]) * powers)
                g_cum = np.cumsum(np.abs(g.coeffs[1::2]) * powers)
                assert np.all(f_cum <= g_cum + 1e-9)


# Each construction check is broken on purpose and must still raise under -O,
# which strips plain assert statements.
_OPTIMIZED_CHECKS = """
import sys
import numpy as np
from bohrlab import series, witnesses
from bohrlab.series import BlaschkeSpec, make_series

print(sys.flags.optimize)

def rejected(call):
    try:
        call()
    except AssertionError as exc:
        return str(exc)
    return "accepted"

witnesses._boundary_moduli = lambda zeros, counts, rotations, z: np.full((counts.size, z.size), 2.0)
print(rejected(lambda: witnesses.bounded_from_spec(BlaschkeSpec(), 8)))

witnesses.compose = lambda g, w: g
print(rejected(lambda: witnesses.build_quasi_triple(
    make_series([0.0, 1.0], 8), make_series([1.0], 8), make_series([0.0, 0.5], 8))))

series.mul = lambda f, g: make_series([1.0], f.order)
print(rejected(lambda: series.power(make_series([0.0, 1.0], 8), 2)))
"""


# The boundary tripwire of the stacked builders checks every spec through
# _boundary_moduli looked up at call time, so breaking it for one spec must
# raise under -O.
_OPTIMIZED_STACKED_CHECKS = """
import sys
import numpy as np
from bohrlab import witnesses
from bohrlab.series import BlaschkeSpec

print(sys.flags.optimize)

def rejected(call):
    try:
        call()
    except AssertionError as exc:
        return str(exc)
    return "accepted"

real = witnesses._boundary_moduli
broken = BlaschkeSpec(zeros=(0.5,))
witnesses._boundary_moduli = lambda zeros, counts, rotations, z: np.where(
    zeros[:, :1] == 0.5, 2.0, real(zeros, counts, rotations, z))
specs = [BlaschkeSpec(), broken, BlaschkeSpec(zeros=(0.2j,))]
print(rejected(lambda: witnesses.bounded_rows(specs, 8)))
print(rejected(lambda: witnesses.schwarz_rows(specs, 8)))
"""


# The stacked quasi-triple builder runs the same convolution identity check
# once per block, with compose_rows looked up at call time.
_OPTIMIZED_STACKED_IDENTITY = """
import sys
import numpy as np
from bohrlab import witnesses

print(sys.flags.optimize)

g = np.zeros((3, 9), dtype=complex)
g[:, :2] = [0.3, 1.0]
phi = np.zeros((3, 9), dtype=complex)
phi[:, 0] = 1.0
omega = np.zeros((3, 9), dtype=complex)
omega[:, 1] = [1.0, 0.5, 0.5j]
real = witnesses.compose_rows

def spoiled(g_rows, w_rows, tops):
    out = real(g_rows, w_rows, tops)
    out[2, 3] += 1e-9
    return out

witnesses.compose_rows = spoiled
try:
    witnesses.quasi_rows(g, [1, 1, 1], phi, omega)
except AssertionError as exc:
    print(exc)
else:
    print("accepted")
"""


class TestChecksUnderOptimization:
    def test_broken_constructions_rejected_under_dash_O(self):
        src = str(Path(bohrlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr
        optimize, tripwire, identity, low_order = done.stdout.splitlines()
        assert optimize == "1"
        assert tripwire.startswith("witness exceeds modulus one on the boundary sample")
        assert identity.startswith("convolution identity violated")
        assert low_order == "power of origin-vanishing series leaked low-order terms"

    def test_broken_stacked_constructions_rejected_under_dash_O(self):
        src = str(Path(bohrlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-O", "-c", _OPTIMIZED_STACKED_CHECKS],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr
        optimize, bounded, schwarz = done.stdout.splitlines()
        assert optimize == "1"
        assert bounded.startswith("witness exceeds modulus one on the boundary sample")
        assert schwarz.startswith("witness exceeds modulus one on the boundary sample")

    def test_broken_stacked_identity_rejected_under_dash_O(self):
        src = str(Path(bohrlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-O", "-c", _OPTIMIZED_STACKED_IDENTITY],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr
        optimize, identity = done.stdout.splitlines()
        assert optimize == "1"
        assert identity.startswith("convolution identity violated by 1.000e-09")
