"""Sharp radii and admissibility thresholds in closed or root-found form."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .series import unit_interval

# Minimal |f(0)| for which the pointwise-plus-tail radius drops to 1/3.
ANALYTIC_THRESHOLD_A = 2.0 * math.sqrt(3.0) - 3.0

# Radius below which the pointwise-plus-tail bound holds for every |f(0)| < 1.
UNIVERSAL_RADIUS = math.sqrt(5.0) - 2.0

# Caps on r of the classical claims and of the odd-pair claim.
CLASSICAL_CAP = 1.0 / 3.0
ODD_CAP = 3.0 ** -0.5


@dataclass(frozen=True)
class RadiusResult:
    """A radius value with its admissibility metadata.

    ``threshold_a`` is the minimal |f(0)| for which the radius claim
    applies, ``binding_cap`` the external cap (1/3 where relevant) and
    ``cap_binds`` whether the parameters put the radius at or under that
    cap.  ``residual`` is the defining polynomial's value at the returned
    root (identically zero for closed forms).
    """

    value: float
    threshold_a: float | None = None
    binding_cap: float | None = None
    residual: float = 0.0
    cap_binds: bool | None = None

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise ValueError("radius must lie in (0, 1)")
        if abs(self.residual) > 1e-12:
            raise ValueError(f"root residual {self.residual:.3e} exceeds 1e-12")

    def as_dict(self) -> dict:
        return asdict(self)


def classical_radius() -> RadiusResult:
    """The unimprovable constant 1/3 for functions bounded by one."""
    return RadiusResult(value=CLASSICAL_CAP)


def p_symmetric_radius(p: int) -> RadiusResult:
    """Radius 3^(-1/p) for series supported on exponents divisible by p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return RadiusResult(value=3.0 ** (-1.0 / p))


def _odd_quartic(r: float) -> float:
    return ((8.0 * r * r + 1.0) * r - 6.0) * r + 1.0


def odd_bohr_radius() -> RadiusResult:
    """Maximal positive root of 8 r^4 + r^2 - 6 r + 1 = 0.

    Newton's method from r = 1, stopped at the first step that does not
    lower the iterate.  The quartic is convex (its second derivative
    96 r^2 + 2 is positive) and positive and increasing at 1, so every
    Newton step from the right of the largest root stays to its right and
    lowers the iterate, and the smaller root near 0.17 is never approached.
    The loop stops once rounding no longer lowers the iterate, which for
    this quartic is at the double nearest the root.
    """
    root = 1.0
    while (lower := root - _odd_quartic(root) / ((32.0 * root * root + 2.0) * root - 6.0)) < root:
        root = lower
    return RadiusResult(value=root, residual=_odd_quartic(root))


def theorem5_radius(a: float) -> RadiusResult:
    """Largest r keeping |f(z)| + tail at or below one for |f(0)| = a.

    Uses the rationalized root 1 / (sqrt((1+a)^2 + a^2) + 1 + a) of the
    admissibility quadratic, which is exact at a = 0 and free of the
    small-a cancellation of the difference form.  a = 1 is accepted as the
    continuous limit, where the value equals the universal radius
    sqrt(5) - 2.
    """
    unit_interval("a", a, closed=True)
    value = 1.0 / (math.sqrt((1.0 + a) ** 2 + a * a) + 1.0 + a)
    return RadiusResult(
        value=value,
        threshold_a=ANALYTIC_THRESHOLD_A,
        binding_cap=CLASSICAL_CAP,
        residual=quadratic_residual("eq9", a, 0.0, value),
        cap_binds=bool(a >= ANALYTIC_THRESHOLD_A),
    )


def theorem6_threshold(k: float) -> float:
    """Minimal |h(0)| for which the harmonic radius stays at or under 1/3."""
    unit_interval("k", k, closed=True)
    return (math.sqrt(k * k + 12.0 * k + 12.0) - (2.0 * k + 3.0)) / (k + 1.0)


def theorem6_radius(a: float, k: float) -> RadiusResult:
    """Harmonic analogue of theorem5_radius for dilatation bound k.

    Positive root of the quadratic a(a + k + ka) r^2 + (k+2)(a+1) r - 1,
    returned in the rationalized form 2 / (B + (k+2)(1+a)) with
    B = sqrt(a^2(k^2+8k+8) + 2a(k^2+6k+4) + (k+2)^2).  The rationalized
    quotient is algebraically identical to the difference form and
    degenerates gracefully to the linear root 1/(k+2) at a = 0.
    """
    unit_interval("a", a, closed=True)
    unit_interval("k", k, closed=True)
    b = math.sqrt(
        a * a * (k * k + 8.0 * k + 8.0) + 2.0 * a * (k * k + 6.0 * k + 4.0) + (k + 2.0) ** 2
    )
    value = 2.0 / (b + (k + 2.0) * (1.0 + a))
    threshold = theorem6_threshold(k)
    return RadiusResult(
        value=value,
        threshold_a=threshold,
        binding_cap=CLASSICAL_CAP,
        residual=quadratic_residual("eq10", a, k, value),
        cap_binds=bool(a >= threshold),
    )


def quadratic_residual(which: str, a: float, k: float, r: float) -> float:
    """Signed residual of one of the admissibility quadratics.

    ``eq9``  - r^2 a^2 + 2 r a + 2 r - 1          (analytic case; ignores k)
    ``eq10`` - a(a + k + ka) r^2 + (k+2)(a+1) r - 1  (harmonic, powers of r)
    ``eq11`` - r^2(k+1) a^2 + r(kr + k + 2) a + r(k+2) - 1  (same, powers of a)

    A value <= 0 marks the admissible region.
    """
    if which == "eq9":
        return r * r * a * a + 2.0 * r * a + 2.0 * r - 1.0
    if which == "eq10":
        return a * (a + k + k * a) * r * r + (k + 2.0) * (a + 1.0) * r - 1.0
    if which == "eq11":
        return r * r * (k + 1.0) * a * a + r * (k * r + k + 2.0) * a + r * (k + 2.0) - 1.0
    raise ValueError(f"unknown quadratic {which!r}; expected eq9, eq10 or eq11")
