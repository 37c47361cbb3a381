"""Witness generators: random and extremal functions for every hypothesis class.

Boundedness of random witnesses is certified structurally - they are built
from finite Blaschke products, whose modulus cannot exceed one on the disk.
A 360-point boundary sample of the rational form at |z| = 0.95 is kept as a
tripwire on every draw; it raises AssertionError, also under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import HarmonicPair
from .series import (
    DEFAULT_ORDER,
    BlaschkeSpec,
    MobiusTag,
    TruncatedSeries,
    blaschke_rows,
    blaschke_series,
    compose,
    compose_rows,
    convolve_rows,
    derivative,
    eval_blaschke,
    finite_rows,
    integrate,
    make_series,
    mobius_series,
    mul,
    scale,
)

# Tolerance of the construction-time convolution identity; any excess marks
# an arithmetic bug, not a truncation artifact.
CONVOLUTION_CHECK_TOL = 1e-12

_BOUNDARY_SAMPLE = 0.95 * np.exp(2j * np.pi * np.arange(360) / 360.0)


@dataclass(frozen=True, eq=False)
class QuasiTriple:
    """Multiplier phi, inner omega, polynomial outer g and the product f."""

    g: TruncatedSeries
    phi: TruncatedSeries
    omega: TruncatedSeries
    f: TruncatedSeries


def build_quasi_triple(
    g: TruncatedSeries, phi: TruncatedSeries, omega: TruncatedSeries
) -> QuasiTriple:
    """Assemble f = phi * g(omega) and cross-check the coefficient identity.

    The outer series must be polynomial-exact (so comparison sums against it
    are exact) and omega must vanish at the origin.  Construction verifies
    that the Horner-composed product matches the direct expansion
    a_k = sum_{m+j=k} phi_m B_j with B_j = sum_{n<=j} g_n alpha_j^(n),
    where alpha^(n) are the coefficients of omega^n.
    """
    if g.exact_degree is None:
        raise ValueError("outer series must be polynomial-exact (exact_degree set)")
    f = mul(phi, compose(g, omega))
    _check_convolution_identity(
        g.coeffs[None, : g.exact_degree + 1], phi.coeffs[None], omega.coeffs[None], f.coeffs[None]
    )
    return QuasiTriple(g=g, phi=phi, omega=omega, f=f)


def quasi_rows(g_rows, tops, phi_rows, omega_rows) -> np.ndarray:
    """Stacked build_quasi_triple: the rows f = phi * g(omega) of (rows, N+1)
    stacks phi and omega, bit for bit, checked finite and cross-checked by
    the same convolution identity.  ``g_rows`` holds the outers'
    coefficients 0..D (D <= N) and ``tops`` their exact degrees; every
    inner row must vanish exactly at the origin (see compose_rows)."""
    outer = np.zeros_like(phi_rows)
    outer[:, : g_rows.shape[1]] = g_rows
    inner = compose_rows(outer, omega_rows, tops)
    del outer  # a block's arrays dominate peak memory; keep few alive at once
    f_rows = finite_rows(convolve_rows(phi_rows, inner))
    del inner
    _check_convolution_identity(g_rows, phi_rows, omega_rows, f_rows)
    return f_rows


def _check_convolution_identity(g_rows, phi_rows, omega_rows, f_rows):
    """Raise AssertionError unless every row of f_rows is within
    CONVOLUTION_CHECK_TOL of phi * sum_n g_n omega^n expanded from the powers
    of omega.  ``g_rows`` holds outer coefficients 0..D; a coefficient past
    a row's degree is zero and adds nothing.  When every inner vanishes
    exactly at the origin, omega^d vanishes below index d, so only its
    entries from d on are formed, which drops exact zeros alone."""
    n = f_rows.shape[1]
    b = np.zeros_like(f_rows)
    w_pow = np.zeros_like(f_rows)
    w_pow[:, 0] = 1.0
    shift = not np.any(omega_rows[:, 0])
    lo, last = 0, g_rows.shape[1] - 1  # w_pow holds entries lo..N of omega^d
    for d in range(last + 1):
        # form omega^(d+1) before w_pow is scaled in place to g_d omega^d
        w_next = convolve_rows(w_pow, omega_rows[:, : n - lo]) if d < last else None
        w_pow *= g_rows[:, d, None]
        b[:, lo:] += w_pow
        if d < last:
            w_pow, lo = (w_next[:, 1:], lo + 1) if shift else (w_next, lo)
    del w_pow, w_next
    direct = convolve_rows(phi_rows, b)
    del b
    direct -= f_rows
    gap = float(np.max(np.abs(direct)))
    if not gap <= CONVOLUTION_CHECK_TOL:
        raise AssertionError(
            f"convolution identity violated by {gap:.3e}; series arithmetic is inconsistent"
        )


def draw_blaschke_spec(rng: np.random.Generator, min_zeros: int = 0, max_zeros: int = 4) -> BlaschkeSpec:
    """Draw zeros (count uniform on [min_zeros, max_zeros], moduli uniform on
    [0, 0.9), phases uniform) and a uniform rotation."""
    count = int(rng.integers(min_zeros, max_zeros + 1))
    moduli = rng.uniform(0.0, 0.9, count)
    phases = rng.uniform(0.0, 2.0 * np.pi, count)
    zeros = tuple(moduli * np.exp(1j * phases))
    rotation = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return BlaschkeSpec(zeros=zeros, rotation=rotation)


def draw_polynomial(
    rng: np.random.Generator, order: int, max_degree: int = 8, coeff_cap: float = 2.0
) -> TruncatedSeries:
    """Random polynomial with complex coefficients of modulus below coeff_cap."""
    degree = int(rng.integers(0, max_degree + 1))
    moduli = rng.uniform(0.0, coeff_cap, degree + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, degree + 1)
    return make_series(moduli * np.exp(1j * phases), order)


def _boundary_tripwire(values: np.ndarray):
    worst = float(np.max(np.abs(values)))
    if not worst <= 1.0 + 1e-9:
        raise AssertionError(f"witness exceeds modulus one on the boundary sample: {worst}")


def bounded_from_spec(spec: BlaschkeSpec, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Series of the bounded analytic witness defined by a Blaschke product."""
    _boundary_tripwire(eval_blaschke(spec, _BOUNDARY_SAMPLE))
    return blaschke_series(spec, order)


def schwarz_from_spec(spec: BlaschkeSpec, odd: bool = False, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Inner function z*B(z) (or z*B(z^2) when odd) from a Blaschke spec."""
    if odd:
        base = blaschke_series(spec, order // 2)
        lifted = p_symmetric_lift(base, 2, order=order)
        out = mul(make_series([0.0, 1.0], order), lifted)
        _boundary_tripwire(_BOUNDARY_SAMPLE * eval_blaschke(spec, _BOUNDARY_SAMPLE**2))
    else:
        out = blaschke_series(spec, order, vanish_at_origin=True)
        _boundary_tripwire(_BOUNDARY_SAMPLE * eval_blaschke(spec, _BOUNDARY_SAMPLE))
    return out


def bounded_rows(specs, order: int) -> np.ndarray:
    """Stacked bounded_from_spec coefficients, one row per spec, bit for bit;
    the boundary tripwire runs on every spec."""
    for spec in specs:
        _boundary_tripwire(eval_blaschke(spec, _BOUNDARY_SAMPLE))
    return blaschke_rows(specs, order)


def schwarz_rows(specs, order: int) -> np.ndarray:
    """Stacked schwarz_from_spec coefficients (z*B(z)), one row per spec, bit
    for bit; the boundary tripwire runs on every spec."""
    for spec in specs:
        _boundary_tripwire(_BOUNDARY_SAMPLE * eval_blaschke(spec, _BOUNDARY_SAMPLE))
    return blaschke_rows(specs, order, vanish_at_origin=True)


def random_schwarz(seed: int, odd: bool = False, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Seeded random inner function; odd draws have the form z*B(z^2)."""
    rng = np.random.default_rng(seed)
    return schwarz_from_spec(draw_blaschke_spec(rng), odd=odd, order=order)


def extremal_corollary2(a0: complex, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Disk automorphism witness attaining the exact-form functional's bound."""
    return mobius_series(a0, order)


def extremal_theorem5(a0: complex, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Expansion of (a0 - z)/(1 - conj(a0) z): the pointwise-sharp witness.

    Coefficient 0 is a0 and coefficient k is -(1 - |a0|^2) conj(a0)^(k-1).
    """
    a0 = complex(a0)
    if abs(a0) >= 1.0:
        raise ValueError("witness parameter must satisfy |a0| < 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = a0
    out[1:] = -(1.0 - abs(a0) ** 2) * a0.conjugate() ** np.arange(order)
    degree = 1 if a0 == 0 else None
    return TruncatedSeries(out, exact_degree=degree, tag=MobiusTag(a0, "minus"))


def extremal_theorem3(a0: complex, lam: float, order: int = DEFAULT_ORDER) -> HarmonicPair:
    """Sharp harmonic pair: h a disk automorphism, co-analytic part lam * (h - h(0)).

    The co-analytic constant never enters any majorant sum, so it is
    dropped; the pair's dilatation bound is exactly lam.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    h = mobius_series(a0, order)
    tail = np.array(h.coeffs * lam)
    tail[0] = 0.0
    g = TruncatedSeries(
        tail,
        exact_degree=h.exact_degree,
        tag=MobiusTag(complex(a0), "tail", scale=lam),
    )
    return HarmonicPair(h=h, g=g, k=lam)


def harmonic_witness(h: TruncatedSeries, k: float, omega_tilde: TruncatedSeries) -> HarmonicPair:
    """Pair with co-analytic part g = integral of k * omega_tilde * h'.

    omega_tilde must come from a modulus-bounded family (its constant term
    may be nonzero), which makes |g'| <= k |h'| hold by construction.
    """
    if not 0.0 <= k <= 1.0:
        raise ValueError("k must lie in [0, 1]")
    g = integrate(scale(mul(omega_tilde, derivative(h)), k))
    return HarmonicPair(h=h, g=g, k=k)


def harmonic_rows(h_rows, ks, omega_tilde_rows, index=None) -> np.ndarray:
    """Stacked harmonic_witness: the co-analytic rows g = integral of
    k * omega_tilde * h' of (rows, N+1) stacks, bit for bit, checked finite.
    With ``index``, row i of the result pairs ks[i] with row index[i] of h
    and omega_tilde, so rows shared by several k are convolved once."""
    ks = np.asarray(ks, dtype=np.float64)
    if not np.all((ks >= 0.0) & (ks <= 1.0)):
        raise ValueError("k must lie in [0, 1]")
    n = np.shape(h_rows)[1]
    slopes = np.zeros_like(h_rows)
    slopes[:, :-1] = h_rows[:, 1:] * np.arange(1, n)
    products = convolve_rows(omega_tilde_rows, slopes)
    del slopes
    if index is not None:
        products = products[index]
    scaled = products * ks.astype(np.complex128)[:, None]
    del products
    g_rows = np.zeros_like(scaled)
    g_rows[:, 1:] = scaled[:, :-1] / np.arange(1, n)
    return finite_rows(g_rows)


def p_symmetric_lift(base: TruncatedSeries, p: int, order: int | None = None) -> TruncatedSeries:
    """Substitute z^p for the variable: coefficient p*k of the result is base
    coefficient k.  The output order defaults to p times the base order."""
    if p < 1:
        raise ValueError("p must be >= 1")
    n_out = p * base.order if order is None else order
    if p * base.order > n_out:
        raise ValueError(f"lift by p={p} overflows output order {n_out}")
    out = np.zeros(n_out + 1, dtype=np.complex128)
    out[0 : p * base.order + 1 : p] = base.coeffs
    degree = None if base.exact_degree is None else p * base.exact_degree
    return TruncatedSeries(out, exact_degree=degree)
