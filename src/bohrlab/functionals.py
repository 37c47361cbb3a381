"""Majorant functionals for bounded analytic functions and harmonic pairs.

Each function returns the left-hand side of one of the inequalities the
package verifies.  Series carrying a Mobius closed-form tag are summed
exactly; untagged series fall back to the truncated majorant, which is a
lower bound of the true sum, so the verification suites stay conservative.

The rational-term functionals are claimed only up to r = 1/3 (the classical
cap); evaluating them beyond that radius is permitted for scans, but the
result is informational, not a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radii import CLASSICAL_CAP
from .series import TruncatedSeries, evaluate, majorant_eval, mobius_tail


@dataclass(frozen=True, eq=False)
class HarmonicPair:
    """Harmonic mapping h + conj(g) with a dilatation bound |g'/h'| <= k."""

    h: TruncatedSeries
    g: TruncatedSeries
    k: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.k <= 1.0:
            raise ValueError("dilatation bound k must lie in [0, 1]")
        if self.h.order != self.g.order:
            raise ValueError("analytic and co-analytic parts must share a truncation order")
        if abs(self.g.coeffs[0]) > 1e-15:
            raise ValueError("co-analytic part must have zero constant term")

    @property
    def quasiconformal_K(self) -> float:
        """Distortion constant (1 + k) / (1 - k); infinite at k = 1."""
        if self.k >= 1.0:
            return float("inf")
        return (1.0 + self.k) / (1.0 - self.k)


def _tail_sum(f: TruncatedSeries, r: float) -> float:
    """sum_{n>=1} |c_n| r^n, via the closed form when a tag is present."""
    if f.tag is not None:
        return f.tag.majorant(r, skip_constant=True)
    return majorant_eval(f, r, skip_constant=True)


def _abs_value(f: TruncatedSeries, z: complex) -> float:
    if f.tag is not None:
        return abs(f.tag.value_at(z))
    return float(np.abs(evaluate(f, z)))


def bohr_sum(f: TruncatedSeries, r: float) -> float:
    """Classical majorant sum |c_0| + sum |c_k| r^k."""
    if f.tag is not None:
        if not 0.0 <= r < 1.0:
            raise ValueError("radius must lie in [0, 1)")
        return f.tag.majorant(r)
    return majorant_eval(f, r)


def corollary2_lhs(f: TruncatedSeries, a0_mod: float, r: float) -> float:
    """Exact-form functional for a function bounded by one with |f(0)| = a0_mod.

    Returns (1 - (1 + a - a^2) r) / (1 - a r) plus the constant-free
    majorant sum of f.  The bound by one is claimed for r <= 1/3 only.
    """
    if not 0.0 <= a0_mod < 1.0:
        raise ValueError("|f(0)| must lie in [0, 1)")
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    a = a0_mod
    rational = (1.0 - (1.0 + a - a * a) * r) / (1.0 - a * r)
    return rational + _tail_sum(f, r)


def theorem3_lhs(pair: HarmonicPair, a0_mod: float, r: float) -> float:
    """Harmonic variant of the exact-form functional.

    Rational first term (1 - r(a + (k+1)(1 - a^2))) / (1 - r a) plus the
    constant-free majorant sums of both parts; claimed <= 1 for r <= 1/3.
    """
    if not 0.0 <= a0_mod < 1.0:
        raise ValueError("|h(0)| must lie in [0, 1)")
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    return theorem3_rational(a0_mod, pair.k, r) + _tail_sum(pair.h, r) + _tail_sum(pair.g, r)


def theorem3_rational(a, k, r):
    """Rational first term (1 - r(a + (k+1)(1 - a^2))) / (1 - r a) of theorem3_lhs.

    Plain arithmetic without validation, so it applies elementwise to arrays
    of a, k and r with the same rounding as a scalar call.
    """
    return (1.0 - r * (a + (k + 1.0) * (1.0 - a * a))) / (1.0 - r * a)


def theorem5_lhs(f: TruncatedSeries, z: complex) -> float:
    """Pointwise-plus-tail functional |f(z)| + sum_{k>=1} |a_k| |z|^k.

    |f(z)| comes from the exact rational form when f carries a tag,
    otherwise from Horner evaluation of the stored coefficients (the
    geometric decay of every witness family keeps the dropped tail far
    below the verification tolerance at the radii in play).
    """
    z = complex(z)
    r = abs(z)
    if r >= 1.0:
        raise ValueError("evaluation point must lie in the open unit disk")
    return _abs_value(f, z) + _tail_sum(f, r)


def theorem6_lhs(pair: HarmonicPair, z: complex) -> float:
    """Harmonic pointwise-plus-tails functional |h(z)| + both majorant tails."""
    z = complex(z)
    r = abs(z)
    if r >= 1.0:
        raise ValueError("evaluation point must lie in the open unit disk")
    return _abs_value(pair.h, z) + _tail_sum(pair.h, r) + _tail_sum(pair.g, r)


def lemma2_bound(a: float, k: float, r: float) -> float:
    """Closed-form dominating bound (1 + k) r (1 - a^2) / (1 - r a).

    Dominates the combined tail sums of any admissible harmonic pair with
    |h(0)| = a for r <= 1/3.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError("a must lie in [0, 1)")
    if not 0.0 <= k <= 1.0:
        raise ValueError("k must lie in [0, 1]")
    if not 0.0 <= r <= CLASSICAL_CAP + 1e-12:
        raise ValueError("the bound is only claimed for r in [0, 1/3]")
    return mobius_tail(a, r, 1.0 + k)


def schwarz_pick_bound(a: float, r: float) -> float:
    """Pointwise bound (r + a) / (1 + a r) for |f| <= 1 with |f(0)| = a."""
    if not 0.0 <= a < 1.0:
        raise ValueError("a must lie in [0, 1)")
    if not 0.0 <= r < 1.0:
        raise ValueError("r must lie in [0, 1)")
    return (r + a) / (1.0 + a * r)
