"""50-digit cross-checks of the sharp radii and of the admissibility
quadratics' residuals.

Each defining equation is solved again in mpmath at 50 significant digits,
from the float parameters taken exactly, on a grid of a and k in [0, 1]
that holds both endpoints and the admissibility thresholds.  The closed
forms agree to 1e-15, the odd radius to half an ulp (correctly rounded), and
every residual a RadiusResult or quadratic_residual reports at a float root
to 1e-15.
"""

import math

import numpy as np
import pytest

from bohrlab.radii import (
    ANALYTIC_THRESHOLD_A,
    odd_bohr_radius,
    quadratic_residual,
    theorem5_radius,
    theorem6_radius,
    theorem6_threshold,
)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

K_GRID = np.linspace(0.0, 1.0, 11).tolist()
A_GRID = sorted(set(np.linspace(0.0, 1.0, 41).tolist() + [ANALYTIC_THRESHOLD_A] + [theorem6_threshold(k) for k in K_GRID]))


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


def positive_root(quad, lin, const):
    """The one non-negative root of quad x^2 + lin x + const with quad >= 0,
    lin > 0 and const <= 0, at the working precision."""
    if quad == 0:
        return -const / lin
    return (-lin + mp.sqrt(lin * lin - 4 * quad * const)) / (2 * quad)


def eq9(a, r):
    return r * r * a * a + 2 * r * a + 2 * r - 1


def eq10(a, k, r):
    return a * (a + k + k * a) * r * r + (k + 2) * (a + 1) * r - 1


def eq11(a, k, r):
    return r * r * (k + 1) * a * a + r * (k * r + k + 2) * a + r * (k + 2) - 1


def theorem5_root(a):
    a = mp.mpf(a)
    return positive_root(a * a, 2 * a + 2, mp.mpf(-1))


def theorem6_root(a, k):
    a, k = mp.mpf(a), mp.mpf(k)
    return positive_root(a * (a + k + k * a), (k + 2) * (a + 1), mp.mpf(-1))


def threshold_root(k):
    """The a at which eq11 holds at r = 1/3: (1 + k) a^2 + (4k + 6) a + 3k - 3
    is nine times eq11 there."""
    k = mp.mpf(k)
    return positive_root(1 + k, 4 * k + 6, 3 * k - 3)


class TestRadiiAgainstFiftyDigits:
    def test_roots_solve_their_equations(self):
        # the 50-digit roots themselves, before any float is compared to them
        for a in A_GRID:
            assert abs(eq9(mp.mpf(a), theorem5_root(a))) < mp.mpf(10) ** -45
            for k in K_GRID:
                assert abs(eq10(mp.mpf(a), mp.mpf(k), theorem6_root(a, k))) < mp.mpf(10) ** -45
        for k in K_GRID:
            assert abs(eq11(threshold_root(k), mp.mpf(k), mp.mpf(1) / 3)) < mp.mpf(10) ** -45

    def test_odd_radius_within_its_bracket(self):
        roots = mp.polyroots([8, 0, 1, -6, 1], maxsteps=200, extraprec=200)
        real = [mp.re(x) for x in roots if abs(mp.im(x)) < mp.mpf(10) ** -40 and 0 < mp.re(x) < 1]
        assert len(real) == 2
        result = odd_bohr_radius()
        assert abs(result.value - max(real)) <= math.ulp(result.value) / 2
        assert abs(result.residual) <= 1e-15
        r = mp.mpf(result.value)
        assert abs(result.residual - (8 * r**4 + r**2 - 6 * r + 1)) <= 1e-15

    @pytest.mark.parametrize("a", A_GRID)
    def test_theorem5_radius(self, a):
        assert abs(theorem5_radius(a).value - theorem5_root(a)) <= 1e-15

    @pytest.mark.parametrize("k", K_GRID)
    def test_theorem6_radius_and_threshold(self, k):
        assert abs(theorem6_threshold(k) - threshold_root(k)) <= 1e-15
        for a in A_GRID:
            assert abs(theorem6_radius(a, k).value - theorem6_root(a, k)) <= 1e-15

    @pytest.mark.parametrize("k", K_GRID)
    def test_residuals_at_the_float_roots(self, k):
        for a in A_GRID:
            r = theorem5_radius(a).value
            assert abs(quadratic_residual("eq9", a, k, r) - eq9(mp.mpf(a), mp.mpf(r))) <= 1e-15
            r = theorem6_radius(a, k).value
            exact = eq10(mp.mpf(a), mp.mpf(k), mp.mpf(r))
            assert abs(quadratic_residual("eq10", a, k, r) - exact) <= 1e-15
            assert abs(quadratic_residual("eq11", a, k, r) - eq11(mp.mpf(a), mp.mpf(k), mp.mpf(r))) <= 1e-15
