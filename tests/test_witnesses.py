"""Unit tests for witness generators and extremal families."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohrlab

from bohrlab.functionals import bohr_sum, theorem3_lhs, theorem6_lhs
from bohrlab.series import (
    BlaschkeSpec,
    compose,
    derivative,
    evaluate,
    majorant_eval,
    make_series,
    mobius_series,
)
from bohrlab.witnesses import (
    bounded_from_spec,
    bounded_rows,
    build_quasi_triple,
    draw_blaschke_spec,
    draw_polynomial,
    extremal_corollary2,
    extremal_theorem3,
    extremal_theorem5,
    harmonic_rows,
    harmonic_witness,
    p_symmetric_lift,
    random_schwarz,
    schwarz_from_spec,
    schwarz_rows,
)

from oracles import mobius_by_long_division, quasi_convolution


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

    def test_inner_with_tiny_constant_passes_identity(self):
        # compose accepts an inner constant up to 1e-15; the identity check
        # then forms every entry of each power of omega
        rng = np.random.default_rng(5)
        g = draw_polynomial(rng, 24)
        omega = schwarz_from_spec(draw_blaschke_spec(rng), order=24) + make_series([1e-16], 24)
        triple = build_quasi_triple(g, bounded_from_spec(draw_blaschke_spec(rng), 24), omega)
        assert triple.f.order == 24

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


class TestStackedBuilders:
    """The stacked builders give each row the bytes of the per-spec builders."""

    @pytest.mark.parametrize("order", [1, 2, 8, 64, 256])
    @pytest.mark.parametrize("rows", [1, 11])
    def test_rows_match_per_spec_builders(self, order, rows):
        rng = np.random.default_rng(7 * order + rows)
        specs = [draw_blaschke_spec(rng, min_zeros=i % 5, max_zeros=i % 5) for i in range(rows)]
        specs_tilde = [draw_blaschke_spec(rng) for _ in range(rows)]
        a0s = [complex(a * np.exp(1j * p)) for a, p in zip(rng.uniform(0, 0.95, rows), rng.uniform(0, 6.3, rows))]
        ks = rng.uniform(0.0, 1.0, rows)
        ks[0] = 1.0

        omega = schwarz_rows(specs, order)
        omega_tilde = bounded_rows(specs_tilde, order)
        assert omega.tobytes() == np.stack([schwarz_from_spec(s, order=order).coeffs for s in specs]).tobytes()
        assert omega_tilde.tobytes() == np.stack([bounded_from_spec(s, order).coeffs for s in specs_tilde]).tobytes()

        hs = [compose(mobius_series(a0, order), schwarz_from_spec(s, order=order)) for a0, s in zip(a0s, specs)]
        pairs = [harmonic_witness(h, k, bounded_from_spec(t, order)) for h, k, t in zip(hs, ks, specs_tilde)]
        h_rows = np.stack([h.coeffs for h in hs])
        g_rows = harmonic_rows(h_rows, ks, omega_tilde)
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

witnesses.eval_blaschke = lambda spec, z: np.full(np.shape(z), 2.0 + 0.0j)
print(rejected(lambda: witnesses.bounded_from_spec(BlaschkeSpec(), 8)))

witnesses.compose = lambda g, w: g
print(rejected(lambda: witnesses.build_quasi_triple(
    make_series([0.0, 1.0], 8), make_series([1.0], 8), make_series([0.0, 0.5], 8))))

series.mul = lambda f, g: make_series([1.0], f.order)
print(rejected(lambda: series.power(make_series([0.0, 1.0], 8), 2)))
"""


# The boundary tripwire of the stacked builders runs per spec through
# eval_blaschke looked up at call time, so breaking it must raise under -O.
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

real = witnesses.eval_blaschke
broken = BlaschkeSpec(zeros=(0.5,))
witnesses.eval_blaschke = lambda spec, z: np.full(np.shape(z), 2.0 + 0.0j) if spec is broken else real(spec, z)
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
