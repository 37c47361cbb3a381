"""Unit tests for the inequality functionals."""

import numpy as np
import pytest

from bohrlab.functionals import (
    HarmonicPair,
    bohr_sum,
    corollary2_lhs,
    lemma2_bound,
    schwarz_pick_bound,
    sharp_lhs,
    theorem3_lhs,
    theorem5_lhs,
    theorem5_rows,
    theorem6_lhs,
    theorem6_rows,
)
import bohrlab.functionals as functionals
from bohrlab.series import (
    BlaschkeSpec,
    TruncatedSeries,
    _schwarz_polynomials,
    _spec_columns,
    compose,
    evaluate,
    make_series,
    mobius_series,
)
from bohrlab.verify import _automorphisms
from bohrlab.witnesses import (
    DrawnSpec,
    bounded_from_spec,
    extremal_corollary2,
    extremal_theorem3,
    extremal_theorem5,
    harmonic_witness,
    schwarz_from_spec,
)

from oracles import geometric_tail


class TestBohrSum:
    def test_identity_function(self):
        assert bohr_sum(make_series([0, 1], 8), 1 / 3) == pytest.approx(1 / 3)

    def test_mobius_half(self):
        assert bohr_sum(mobius_series(0.5, 64), 1 / 3) == pytest.approx(0.8, abs=1e-14)

    def test_mobius_family_below_one_at_third(self):
        for a in np.linspace(0, 0.99, 34):
            assert bohr_sum(mobius_series(float(a), 64), 1 / 3) <= 1 + 1e-12

    def test_tagged_matches_term_sum(self):
        f = mobius_series(0.7, 64)
        oracle = 0.7 + geometric_tail(0.7, 0.3)
        assert bohr_sum(f, 0.3) == pytest.approx(oracle, abs=1e-14)

    def test_tagged_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            bohr_sum(mobius_series(0.5, 8), 1.0)


class TestCorollary2:
    def test_mobius_extremal_is_identically_one(self):
        f = mobius_series(0.5, 64)
        assert corollary2_lhs(f, 0.5, 1 / 3) == pytest.approx(1.0, abs=1e-12)
        for a in (0.0, 0.25, 0.8, 0.95):
            f = mobius_series(a, 64)
            for r in (0.0, 0.1, 0.25, 1 / 3):
                assert corollary2_lhs(f, a, r) == pytest.approx(1.0, abs=1e-12)

    def test_zero_function(self):
        f = make_series([], 8)
        assert corollary2_lhs(f, 0.0, 1 / 3) == pytest.approx(2 / 3)

    def test_beyond_cap_is_allowed(self):
        f = mobius_series(0.5, 64)
        value = corollary2_lhs(f, 0.5, 0.4)  # informational region, no claim
        assert np.isfinite(value)

    def test_domain_checks(self):
        f = make_series([], 8)
        with pytest.raises(ValueError):
            corollary2_lhs(f, 1.0, 0.1)
        with pytest.raises(ValueError):
            corollary2_lhs(f, 0.5, 1.0)


class TestTheorem3:
    def test_sharp_family_is_identically_one(self):
        for a in (0.0, 0.3, 0.7):
            for k in (0.0, 0.5, 1.0):
                pair = extremal_theorem3(a, k)
                for r in (0.05, 0.2, 1 / 3):
                    assert theorem3_lhs(pair, a, r) == pytest.approx(1.0, abs=1e-12)

    def test_k_zero_reduces_to_analytic_functional(self):
        h = bounded_from_spec(BlaschkeSpec(zeros=(0.4, -0.2j)), 32)
        zero = make_series([], 32)
        pair = HarmonicPair(h=h, g=zero, k=0.0)
        a = abs(complex(h.coeffs[0]))
        for r in (0.1, 0.3):
            assert theorem3_lhs(pair, a, r) == pytest.approx(corollary2_lhs(h, a, r), abs=1e-15)

    def test_zero_pair_with_full_dilatation(self):
        zero = make_series([], 8)
        pair = HarmonicPair(h=zero, g=zero, k=1.0)
        assert theorem3_lhs(pair, 0.0, 1 / 3) == pytest.approx(1 / 3)


class TestTheorem5:
    def test_extremal_closed_form(self):
        for a in (0.5, 0.65, 0.8):
            f = extremal_theorem5(a)
            for r in (0.1, 0.25, 1 / 3):
                expected = (r + a) / (1 + a * r) + r * (1 - a * a) / (1 - a * r)
                assert theorem5_lhs(f, -r) == pytest.approx(expected, abs=1e-13)

    def test_two_forms_of_the_boundary_value_agree(self):
        for a in np.linspace(0.0, 0.95, 20):
            for r in np.linspace(0.05, 0.45, 9):
                split = (r + a) / (1 + a * r) + r * (1 - a * a) / (1 - a * r)
                merged = 2 * (1 - a * a) * r / (1 - a * a * r * r) + a
                assert split == pytest.approx(merged, abs=1e-12)
                assert theorem5_lhs(extremal_theorem5(float(a), 16), -r) == pytest.approx(
                    merged, abs=1e-12
                )

    def test_identity_witness(self):
        f = make_series([0, 1], 8)
        assert theorem5_lhs(f, 0.2) == pytest.approx(0.4)

    def test_rejects_points_outside_disk(self):
        with pytest.raises(ValueError):
            theorem5_lhs(make_series([0, 1], 8), 1.0)

    def test_untagged_composition_is_conservative(self):
        # random bounded witness: truncated functional must respect the bound
        f = compose(extremal_theorem5(0.6, 64), schwarz_from_spec(BlaschkeSpec(zeros=(0.5j,)), order=64))
        r = 0.3
        for phase in np.exp(2j * np.pi * np.linspace(0, 1, 8, endpoint=False)):
            assert theorem5_lhs(f, r * phase) <= 1 + 1e-9


class TestTheorem6:
    def test_full_scale_display(self):
        for a in (0.2, 0.5, 0.8):
            pair = extremal_theorem3(a, 1.0)
            for r in (0.1, 0.3):
                expected = (r + a) / (1 + a * r) + 2 * r * (1 - a * a) / (1 - r * a)
                assert theorem6_lhs(pair, r) == pytest.approx(expected, abs=1e-13)

    def test_degenerate_pair_matches_analytic_functional(self):
        h = extremal_theorem5(0.55, 32)
        zero = make_series([], 32)
        pair = HarmonicPair(h=h, g=zero, k=0.0)
        for z in (0.2, -0.1 + 0.2j):
            assert theorem6_lhs(pair, z) == pytest.approx(theorem5_lhs(h, z), abs=1e-15)

    def test_identity_pair(self):
        pair = HarmonicPair(h=make_series([0, 1], 8), g=make_series([], 8), k=0.0)
        assert theorem6_lhs(pair, 0.1) == pytest.approx(0.2)


class TestLemma2Bound:
    def test_point_values(self):
        assert lemma2_bound(0.0, 1.0, 0.3) == pytest.approx(0.6)
        assert lemma2_bound(0.5, 0.0, 1 / 3) == pytest.approx(0.3, abs=1e-15)

    def test_k_zero_equals_mobius_tail(self):
        for a in (0.1, 0.5, 0.9):
            for r in (0.05, 0.2, 1 / 3):
                f = mobius_series(a, 64)
                assert lemma2_bound(a, 0.0, r) == pytest.approx(
                    f.tag.majorant(r, skip_constant=True), abs=1e-15
                )

    def test_dominates_measured_tails(self):
        rng = np.random.default_rng(101)
        r = 1 / 3
        for _ in range(25):
            zeros = tuple(
                rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
                for _ in range(rng.integers(1, 5))
            )
            h = bounded_from_spec(BlaschkeSpec(zeros=zeros), 64)
            omega_tilde = bounded_from_spec(
                BlaschkeSpec(zeros=(rng.uniform(0, 0.9),)), 64
            )
            k = float(rng.uniform(0, 1))
            pair = harmonic_witness(h, k, omega_tilde)
            measured = sum(
                abs(c) * r**n
                for n, c in enumerate(pair.h.coeffs)
                if n >= 1
            ) + sum(abs(c) * r**n for n, c in enumerate(pair.g.coeffs) if n >= 1)
            assert measured <= lemma2_bound(float(abs(h.coeffs[0])), k, r) + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            lemma2_bound(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            lemma2_bound(0.5, 1.5, 0.1)
        with pytest.raises(ValueError):
            lemma2_bound(0.5, 0.5, 0.4)


class TestSchwarzPick:
    def test_zero_center_reduces_to_radius(self):
        for r in (0.0, 0.3, 0.9):
            assert schwarz_pick_bound(0.0, r) == pytest.approx(r)

    def test_point_value(self):
        assert schwarz_pick_bound(0.5, 1 / 3) == pytest.approx(5 / 7)

    def test_dominates_bounded_witnesses(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            a = float(rng.uniform(0, 0.9))
            phase = np.exp(2j * np.pi * rng.uniform())
            omega = schwarz_from_spec(
                BlaschkeSpec(zeros=(rng.uniform(0, 0.9) * phase,)), order=64
            )
            f = compose(mobius_series(a, 64), omega)
            r = float(rng.uniform(0, 0.5))
            zs = r * np.exp(2j * np.pi * np.linspace(0, 1, 24, endpoint=False))
            vals = np.abs(np.polynomial.polynomial.polyval(zs, f.coeffs))
            assert np.max(vals) <= schwarz_pick_bound(a, r) + 1e-9

    def test_range(self):
        assert 0.5 <= schwarz_pick_bound(0.5, 0.2) < 1.0

    def test_bound_is_the_checked_rational(self):
        rng = np.random.default_rng(56)
        a, r = rng.uniform(0.0, 1.0, (2, 300))
        assert schwarz_pick_bound(a, r).tobytes() == functionals.schwarz_pick_rational(a, r).tobytes()

    @pytest.mark.parametrize(
        "a, r, message",
        [(1.0, 0.2, r"a must lie in \[0, 1\)"), (0.5, float("nan"), r"r must lie in \[0, 1\)")],
    )
    def test_bound_checks_its_inputs(self, a, r, message):
        with pytest.raises(ValueError, match=message):
            schwarz_pick_bound(a, r)


class TestHarmonicPair:
    def test_rejects_nonzero_co_analytic_constant(self):
        with pytest.raises(ValueError, match="constant"):
            HarmonicPair(h=make_series([0, 1], 4), g=make_series([0.5], 4), k=0.5)

    def test_rejects_bad_dilatation(self):
        zero = make_series([], 4)
        with pytest.raises(ValueError):
            HarmonicPair(h=zero, g=zero, k=1.5)


class TestSharpLhs:
    """sharp_lhs gives the bits of the tagged scalar functionals at the
    extremal witnesses, on a 200 x 100 grid of (a, r) per functional."""

    A = np.concatenate([[0.0, 0.5, 0.999], np.random.default_rng(71).uniform(0.0, 1.0, 197)])
    R = np.concatenate([[0.0, 1 / 3, 0.999], np.random.default_rng(72).uniform(0.0, 1.0, 97)])

    @staticmethod
    def _scalar(name, a, k):
        if name in ("bohr", "cor2"):
            f = extremal_corollary2(a, 8)
            return (lambda r: bohr_sum(f, r)) if name == "bohr" else (lambda r: corollary2_lhs(f, a, r))
        if name == "t5":
            f = extremal_theorem5(a, 8)
            return lambda r: theorem5_lhs(f, -r)
        pair = extremal_theorem3(a, k, 8)
        return (lambda r: theorem3_lhs(pair, a, r)) if name == "t3" else (lambda r: theorem6_lhs(pair, r))

    @pytest.mark.parametrize(
        "name, k",
        [("bohr", 0.0), ("cor2", 0.0), ("t5", 0.0), ("t3", 0.0), ("t3", 1.0), ("t3", 0.37),
         ("t6", 0.0), ("t6", 1.0), ("t6", 0.37)],
    )
    def test_matches_tagged_scalar_bits(self, name, k):
        got = sharp_lhs(name, self.A[:, None], self.R, k)
        expected = np.array([[value(r) for r in self.R] for value in (self._scalar(name, a, k) for a in self.A)])
        assert got.shape == (200, 100)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["bohr", "cor2", "t3", "t5", "t6"])
    def test_one_range_check_per_input(self, monkeypatch, name):
        # t5 and t6 checked a and r a second time through schwarz_pick_bound
        checked = []
        real = functionals.unit_interval

        def counting(label, value, closed=False):
            checked.append(label)
            return real(label, value, closed)

        monkeypatch.setattr(functionals, "unit_interval", counting)
        sharp_lhs(name, 0.5, np.array([0.1, 0.2]), 0.5)
        assert checked == ["a", "r", "k"]

    def test_k_broadcasts_elementwise(self):
        ks = np.array([0.0, 0.25, 1.0])
        got = sharp_lhs("t6", 0.6, 0.3, ks)
        assert got.tobytes() == np.array([sharp_lhs("t6", 0.6, 0.3, k) for k in ks]).tobytes()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"a": -0.5}, r"a must lie in \[0, 1\)"),
            ({"a": 1.0}, r"a must lie in \[0, 1\)"),
            ({"a": float("nan")}, r"a must lie in \[0, 1\)"),
            ({"rs": [0.2, 1.0]}, r"r must lie in \[0, 1\)"),
            ({"rs": float("nan")}, r"r must lie in \[0, 1\)"),
            ({"k": 1.5}, r"k must lie in \[0, 1\]"),
            ({"k": [0.5, float("nan")]}, r"k must lie in \[0, 1\]"),
            ({"name": "t9"}, "unknown functional"),
        ],
    )
    def test_refuses_out_of_range(self, kwargs, message):
        args = {"name": "t6", "a": 0.5, "rs": 0.2, "k": 0.5, **kwargs}
        with pytest.raises(ValueError, match=message):
            sharp_lhs(**args)


class TestPointwiseRows:
    """theorem5_rows and theorem6_rows take the largest value over 16 phases
    of the scalar functionals at each radius, |h| coming from the rational
    form num / den of the witness."""

    @staticmethod
    def _witnesses(specs, a0, order):
        """Rows, num and den of (z*B(z) + a0) / (1 + a0 z*B(z)) for each spec."""
        zp, q = _schwarz_polynomials(*_spec_columns(specs))
        rows = np.stack([compose(mobius_series(a0, order), schwarz_from_spec(s, order=order)).coeffs for s in specs])
        return rows, zp + a0 * q, q + a0 * zp

    def test_rows_bound_the_scalar_values_at_the_phases(self):
        rng = np.random.default_rng(8)
        specs = [BlaschkeSpec(zeros=(complex(rng.uniform(0, 0.9)),)) for _ in range(3)]
        h, num, den = self._witnesses(specs, 0.6, 32)
        series = [TruncatedSeries(row) for row in h]
        pairs = [harmonic_witness(f, 0.5, bounded_from_spec(specs[0], 32)) for f in series]
        rs = np.array([0.1, 0.3])
        five = theorem5_rows(h, num, den, rs)
        six = theorem6_rows(h, num, den, np.stack([p.g.coeffs for p in pairs]), rs)
        phases = np.exp(2j * np.pi * np.arange(16) / 16.0)
        for i, (f, pair) in enumerate(zip(series, pairs)):
            for j, r in enumerate(rs):
                assert five[i, j] == pytest.approx(max(theorem5_lhs(f, r * z) for z in phases), abs=1e-15)
                assert six[i, j] == pytest.approx(max(theorem6_lhs(pair, r * z) for z in phases), abs=1e-15)

    def test_grid_per_row_has_the_bytes_of_one_row_calls(self):
        rng = np.random.default_rng(9)
        specs = [BlaschkeSpec(zeros=tuple(complex(z) for z in rng.uniform(0, 0.9, n))) for n in (0, 1, 2, 4)]
        h, num, den = self._witnesses(specs, 0.7, 24)
        g = 0.3 * np.roll(h, 1, axis=1)
        rs = rng.uniform(0.05, 0.5, (4, 3))
        five, six = theorem5_rows(h, num, den, rs), theorem6_rows(h, num, den, g, rs)
        for i in range(4):
            one = slice(i, i + 1)
            assert five[i].tobytes() == theorem5_rows(h[one], num[one], den[one], rs[i]).tobytes()
            assert six[i].tobytes() == theorem6_rows(h[one], num[one], den[one], g[one], rs[i]).tobytes()

    @pytest.mark.parametrize("kind", ["minus", "plus"])
    def test_modulus_is_the_untruncated_witness_value(self, kind):
        """At order 16 the truncation drops more than 1e-14 of |h| near the
        t5/t6 radii; the rows' |h| is within 1e-14 of a 50-digit value of
        the rational witness itself, max over the same 16 phases."""
        mpmath = pytest.importorskip("mpmath")
        a0s = [0.95, 0.8j, -0.5 + 0.3j]
        zeros = [0.9 * np.exp(0.01j * j) for j in range(4)]
        specs = [DrawnSpec(np.array(zeros[: i + 2]), np.exp(0.4j * i)) for i in range(len(a0s))]
        rows, num, den = _automorphisms(a0s, _spec_columns(specs), 16, kind)
        rs = np.array([0.2, 0.3, 1 / 3])
        got = functionals._max_modulus_rows(num, den, rs)
        truncated = np.array([[np.abs(evaluate(TruncatedSeries(row), r * functionals._PHASES)).max() for r in rs] for row in rows])
        assert np.max(np.abs(truncated - got)) > 1e-14
        sign = 1 if kind == "plus" else -1
        with mpmath.workdps(50):
            for i, (a0, spec) in enumerate(zip(a0s, specs)):
                a0 = mpmath.mpc(complex(a0).real, complex(a0).imag)

                def h(z):
                    b = mpmath.mpc(spec.rotation.real, spec.rotation.imag)
                    for w in spec.zeros.tolist():
                        w = mpmath.mpc(w.real, w.imag)
                        b *= (z - w) / (1 - mpmath.conj(w) * z)
                    return (a0 + sign * z * b) / (1 + sign * mpmath.conj(a0) * z * b)

                for j, r in enumerate(rs.tolist()):
                    points = [mpmath.mpf(r) * mpmath.expjpi(mpmath.mpf(2 * p) / 16) for p in range(16)]
                    assert abs(got[i, j] - float(max(abs(h(z)) for z in points))) <= 1e-14
