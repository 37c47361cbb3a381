"""Majorant functionals for bounded analytic functions and harmonic pairs.

Each function returns the left-hand side of one of the inequalities the
package verifies.  Series carrying a Mobius closed-form tag are summed
exactly; untagged series fall back to the truncated majorant, which is a
lower bound of the true sum, so it can hide a violation in the dropped
tail: a value at or below the bound holds for the truncation only.

The stacked forms serve sweeps, certificates and suites: ``sharp_lhs``
sums the sharp witnesses in closed form, with the bits of the tagged
scalar call, and the ``theorem*_rows`` functions evaluate stacked
untagged rows over a radius grid, shared or one per row, their majorant
sums with the bits of per-row evaluation.  theorem5_rows and
theorem6_rows take |f(z)| from each row's rational form num / den, so it
is the value of the untruncated function, where theorem5_lhs of an
untagged series evaluates its stored coefficients.

The rational-term functionals are claimed only up to r = 1/3 (the classical
cap); evaluating them beyond that radius is permitted for scans, but the
result is informational, not a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radii import CLASSICAL_CAP
from .series import (
    TruncatedSeries,
    _polyval_rows,
    evaluate,
    majorant_eval,
    majorant_rows,
    mobius_tail,
    unit_interval,
)

# The sharp functionals and the parameters each requires: every one reads
# |f(0)| = a, and the harmonic ones also the dilatation bound k.
SHARP_PARAMETERS = {"bohr": ("a",), "cor2": ("a",), "t3": ("a", "k"), "t5": ("a",), "t6": ("a", "k")}

# theorem5_rows and theorem6_rows maximise over these points of |z| = r.
_PHASES = np.exp(2j * np.pi * np.arange(16) / 16.0)


@dataclass(frozen=True, eq=False)
class HarmonicPair:
    """Harmonic mapping h + conj(g) with a dilatation bound |g'/h'| <= k."""

    h: TruncatedSeries
    g: TruncatedSeries
    k: float = 1.0

    def __post_init__(self):
        unit_interval("dilatation bound k", self.k, closed=True)
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


def bohr_sum(f: TruncatedSeries, r: float) -> float:
    """Classical majorant sum |c_0| + sum |c_k| r^k."""
    if f.tag is not None:
        unit_interval("radius", r)
        return f.tag.majorant(r)
    return majorant_eval(f, r)


def theorem1_rows(f_rows, g_rows, rs) -> np.ndarray:
    """Majorant domination gaps sum |a_k| r^k - sum |b_k| r^k of stacked rows
    f and outers g over a radius grid, with the bits of per-row majorant_eval."""
    return majorant_rows(f_rows, rs) - majorant_rows(g_rows, rs)


def theorem2_rows(f_rows, g_rows, r: float) -> np.ndarray:
    """Partial-sum domination gaps of stacked odd pairs at one radius: entry
    [..., m] is sum_{j<=m} |a_(2j+1)| r^(2j+1) minus the same sum over g."""
    powers = r ** np.arange(1, f_rows.shape[-1], 2)
    f_sums = np.cumsum(np.abs(f_rows[..., 1::2]) * powers, axis=-1)
    return f_sums - np.cumsum(np.abs(g_rows[..., 1::2]) * powers, axis=-1)


def corollary2_lhs(f: TruncatedSeries, a0_mod: float, r: float) -> float:
    """Exact-form functional for a function bounded by one with |f(0)| = a0_mod.

    Returns (1 - (1 + a - a^2) r) / (1 - a r) plus the constant-free
    majorant sum of f.  The bound by one is claimed for r <= 1/3 only.
    """
    unit_interval("|f(0)|", a0_mod)
    unit_interval("radius", r)
    return corollary2_rational(a0_mod, r) + _tail_sum(f, r)


def corollary2_rational(a, r):
    """Rational first term of corollary2_lhs; plain arithmetic, like theorem3_rational."""
    return (1.0 - (1.0 + a - a * a) * r) / (1.0 - a * r)


def theorem3_lhs(pair: HarmonicPair, a0_mod: float, r: float) -> float:
    """Harmonic variant of the exact-form functional.

    Rational first term (1 - r(a + (k+1)(1 - a^2))) / (1 - r a) plus the
    constant-free majorant sums of both parts; claimed <= 1 for r <= 1/3.
    """
    unit_interval("|h(0)|", a0_mod)
    unit_interval("radius", r)
    return theorem3_rational(a0_mod, pair.k, r) + _tail_sum(pair.h, r) + _tail_sum(pair.g, r)


def theorem3_rational(a, k, r):
    """Rational first term (1 - r(a + (k+1)(1 - a^2))) / (1 - r a) of theorem3_lhs.

    Plain arithmetic without validation, so it applies elementwise to arrays
    of a, k and r with the same rounding as a scalar call.
    """
    return (1.0 - r * (a + (k + 1.0) * (1.0 - a * a))) / (1.0 - r * a)


def theorem3_rows(h_rows, index, g_rows, a, k, rs) -> np.ndarray:
    """theorem3_lhs of stacked untagged pairs (h_rows[index[i]], g_rows[i])
    with |h(0)| = a[i] and bound k[i] (a scalar applies to every row) over a
    radius grid; entry [i, j] has the bits of the scalar call at rs[j].  An
    h row shared by several pairs is summed once."""
    rs = np.asarray(rs)
    rational = theorem3_rational(np.asarray(a)[..., None], np.asarray(k)[..., None], rs)
    h_tails, g_tails = _paired_tails(h_rows, g_rows, rs)
    return rational + h_tails[index] + g_tails


def _paired_tails(f_rows, g_rows, rs) -> tuple:
    """(f tails, g tails): the constant-free majorant_rows sums of two stacks
    over rs, made in one Horner pass over their stacked magnitudes.  Horner
    works element by element, so each entry has the bits of its own
    majorant_rows call.  rs is one grid for every row, or one grid per row
    of f and of g alike."""
    split = len(f_rows)
    if rs.ndim == 2:
        rs = np.concatenate([rs, rs])
    # magnitudes rather than the complex rows: half the bytes of the stack
    mags = np.empty((split + len(g_rows), f_rows.shape[1]))
    np.abs(f_rows, out=mags[:split])
    np.abs(g_rows, out=mags[split:])
    tails = majorant_rows(mags, rs, skip_constant=True)
    return tails[:split], tails[split:]


def theorem5_lhs(f: TruncatedSeries, z: complex) -> float:
    """Pointwise-plus-tail functional |f(z)| + sum_{k>=1} |a_k| |z|^k.

    |f(z)| comes from the exact rational form when f carries a tag,
    otherwise from Horner evaluation of the stored coefficients, which
    drops the tail past the truncation order (see the module docstring).
    """
    z = complex(z)
    r = abs(z)
    if r >= 1.0:
        raise ValueError("evaluation point must lie in the open unit disk")
    value = abs(f.tag.value_at(z)) if f.tag is not None else float(np.abs(evaluate(f, z)))
    return value + _tail_sum(f, r)


def theorem6_lhs(pair: HarmonicPair, z: complex) -> float:
    """Harmonic pointwise-plus-tails functional |h(z)| + both majorant tails:
    theorem5_lhs of h plus the tail of g."""
    return theorem5_lhs(pair.h, z) + _tail_sum(pair.g, abs(complex(z)))


def _max_modulus_rows(num, den, rs: np.ndarray) -> np.ndarray:
    """Largest |num / den| of each row of (rows, k) polynomial coefficients
    over the _PHASES points of each circle of its radius grid (rs as in
    majorant_rows), the phases taken one at a time: np.maximum is exact, so
    the bits are those of the maximum over one (rows, m, 16) table."""
    rs = rs if rs.ndim == 2 else rs[None]
    out = np.zeros((len(num), rs.shape[1]))
    for phase in _PHASES:
        z = rs * phase
        np.maximum(out, np.abs(_polyval_rows(z, num) / _polyval_rows(z, den)), out=out)
    return out


def theorem5_rows(f_rows, num, den, rs) -> np.ndarray:
    """theorem5_lhs of stacked untagged series, each the Taylor rows of its
    rational form num / den, maximised over 16 equally spaced phases: entry
    [i, j] is the largest |f_i(z)| + sum_{k>=1} |a_k| r^k on the circle
    |z| = r, r being rs[j], or rs[i, j] when rs holds one grid per row.
    |f_i(z)| is the value of the untruncated function, from num and den;
    the tail sums the stored coefficients, as theorem5_lhs does."""
    rs = np.asarray(rs)
    return _max_modulus_rows(num, den, rs) + majorant_rows(f_rows, rs, skip_constant=True)


def theorem6_rows(h_rows, num, den, g_rows, rs) -> np.ndarray:
    """theorem6_lhs of stacked untagged pairs, h_i with rational form num /
    den, maximised and evaluated as in theorem5_rows; the tails are summed
    before |h| is added, so bits may differ from it."""
    rs = np.asarray(rs)
    h_tails, g_tails = _paired_tails(h_rows, g_rows, rs)
    return _max_modulus_rows(num, den, rs) + (h_tails + g_tails)


def sharp_lhs(name: str, a, rs, k=0.0):
    """Left-hand side of functional ``name`` at its sharp witness, in closed
    form: the automorphism (z + a)/(1 + a z) for ``bohr`` and ``cor2``, the
    pair extremal_theorem3(a, k) for ``t3`` and ``t6`` (at z = r), and
    (a - z)/(1 - a z) at z = -r for ``t5``.  a, rs and k broadcast; each
    entry has the bits of the tagged scalar call, and no series is built.
    a and r must lie in [0, 1), k in [0, 1]."""
    if name not in SHARP_PARAMETERS:
        raise ValueError(f"unknown functional {name!r}; expected one of {', '.join(SHARP_PARAMETERS)}")
    a, rs, k = unit_interval("a", a), unit_interval("r", rs), unit_interval("k", k, closed=True)
    tail = mobius_tail(a, rs)
    if name == "bohr":
        return a + tail
    if name == "cor2":
        return corollary2_rational(a, rs) + tail
    if name == "t3":
        return theorem3_rational(a, k, rs) + tail + mobius_tail(a, rs, k)
    if name == "t5":
        return schwarz_pick_rational(a, rs) + tail
    return schwarz_pick_rational(a, rs) + tail + mobius_tail(a, rs, k)


def lemma2_bound(a: float, k: float, r: float) -> float:
    """Closed-form dominating bound (1 + k) r (1 - a^2) / (1 - r a).

    Dominates the combined tail sums of any admissible harmonic pair with
    |h(0)| = a for r <= 1/3.
    """
    unit_interval("a", a)
    unit_interval("k", k, closed=True)
    if not 0.0 <= r <= CLASSICAL_CAP + 1e-12:
        raise ValueError("the bound is only claimed for r in [0, 1/3]")
    return mobius_tail(a, r, 1.0 + k)


def schwarz_pick_bound(a, r):
    """Pointwise bound (r + a) / (1 + a r) for |f| <= 1 with |f(0)| = a,
    elementwise over arrays of a and r."""
    return schwarz_pick_rational(unit_interval("a", a), unit_interval("r", r))


def schwarz_pick_rational(a, r):
    """(r + a) / (1 + a r) of schwarz_pick_bound; plain arithmetic, like theorem3_rational."""
    return (r + a) / (1.0 + a * r)
