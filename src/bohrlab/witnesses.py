"""Witness generators: random and extremal functions for every hypothesis class.

Boundedness of random witnesses is certified structurally - they are built
from finite Blaschke products, whose modulus cannot exceed one on the disk.
A 360-point boundary sample of the rational form at |z| = 0.95 is kept as a
tripwire on every draw; it raises AssertionError, also under ``python -O``,
when a witness exceeds modulus 1 + 1e-9 there.  It checks the specs of a
call together, 64 at a time, multiplying squared factor moduli in real
arithmetic; its worst modulus per spec is eval_blaschke's to 1e-15.  A
stacked builder forms the spec columns (series._spec_columns, which makes
BlaschkeSpec's checks) once per call and hands them to the tripwire and to
the Blaschke expansion, so a bad spec is refused before either runs.  The
extremal automorphisms come from series._automorphism, the one home of
their exact-degree rule.

Each construction rule has one row kernel: bounded_rows and schwarz_rows
for the bounded and inner functions of Blaschke specs, harmonic_rows for
the pairs g' = k * omega_tilde * h', quasi_rows for f = phi * g(omega).
The per-object builders are their one-row calls, which add the
TruncatedSeries and its exact degree; build_quasi_triple makes the same
one-row call through compose and mul.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .functionals import HarmonicPair
from .series import (
    BLASCHKE_ZERO_CAP,
    DEFAULT_ORDER,
    MAX_BLASCHKE_ZEROS,
    BlaschkeSpec,
    MobiusTag,
    TruncatedSeries,
    _automorphism,
    _blaschke_expansion,
    _require_same_order,
    _spec_columns,
    compose,
    compose_rows,
    convolve_rows,
    finite_rows,
    make_series,
    mobius_series,
    mul,
    unit_interval,
)

# Tolerance of the construction-time convolution identity; any excess marks
# an arithmetic bug, not a truncation artifact.
CONVOLUTION_CHECK_TOL = 1e-12

_BOUNDARY_SAMPLE = 0.95 * np.exp(2j * np.pi * np.arange(360) / 360.0)

# Specs the boundary tripwire checks at once; its (rows, 360) arrays of
# this many rows keep a block's peak memory where per-spec checks left it.
_TRIPWIRE_ROWS = 64


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
    are exact) and omega must vanish exactly at the origin.  Construction
    verifies that the Horner-composed product matches the direct expansion
    a_k = sum_{m+j=k} phi_m B_j with B_j = sum_{n<=j} g_n alpha_j^(n),
    where alpha^(n) are the coefficients of omega^n.  quasi_rows for one
    witness: it composes and multiplies through compose and mul, the
    one-row forms of quasi_rows' kernels, and runs the same check.
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
    a row's degree is zero and adds nothing, so omega^d is formed only for
    the rows whose outer has a nonzero coefficient at d or above, and
    omega^1 is omega itself: outers of degree <= 1 take no power product."""
    b = np.zeros_like(f_rows)
    b[:, 0] = g_rows[:, 0]
    # live[:, d] marks the rows that need omega^d; it shrinks as d grows.
    live = np.logical_or.accumulate(g_rows[:, ::-1] != 0, axis=1)[:, ::-1]
    w_pow, prev = omega_rows, np.ones(len(b), dtype=bool)
    for d in range(1, g_rows.shape[1]):
        rows = live[:, d]
        if not rows.any():
            break
        w_pow = w_pow[rows[prev]]
        if d > 1:
            w_pow = convolve_rows(w_pow, omega_rows[rows])
        b[rows] += g_rows[rows, d, None] * w_pow
        prev = rows
    del w_pow
    direct = convolve_rows(phi_rows, b)
    del b
    direct -= f_rows
    gap = float(np.max(np.abs(direct)))
    if not gap <= CONVOLUTION_CHECK_TOL:
        raise AssertionError(
            f"convolution identity violated by {gap:.3e}; series arithmetic is inconsistent"
        )


class DrawnSpec(NamedTuple):
    """A drawn Blaschke spec: its zeros as a 1-D array and its rotation.
    It is not checked when drawn; series._spec_columns makes BlaschkeSpec's
    checks on every spec the builders expand."""

    zeros: np.ndarray
    rotation: complex


def _polar_runs(rngs, lo: int, hi: int, extra: int, tail: int, width: int) -> tuple:
    """One draw from each generator in turn: a count n uniform on [lo, hi],
    then one run of 2 (n + extra) + tail doubles uniform on [0, 1), read as
    n + extra modulus fractions, as many phase fractions and ``tail`` more.
    Returns (counts, moduli, phases, tails) with (rows, width) moduli and
    phases, zero past each row's n + extra, and (rows, tail) tails.

    Generator.uniform(0, c, m) is c times the next m doubles of the stream,
    so reading a run from one random() call and scaling it keeps the bits
    and the order of the generator calls that per-object draws made.
    """
    counts, runs = [], []
    for rng in rngs:
        n = int(rng.integers(lo, hi + 1))
        counts.append(n)
        runs.append(rng.random(2 * (n + extra) + tail))
    used = np.array(counts, dtype=np.intp) + extra
    starts = np.cumsum(2 * used + tail) - (2 * used + tail)
    flat = np.concatenate(runs) if runs else np.empty(0)
    cols = np.arange(width)
    mask = cols < used[:, None]
    moduli = np.zeros((used.size, width))
    phases = np.zeros((used.size, width))
    moduli[mask] = flat[(starts[:, None] + cols)[mask]]
    phases[mask] = flat[((starts + used)[:, None] + cols)[mask]]
    tails = flat[(starts + 2 * used)[:, None] + np.arange(tail)]
    return counts, moduli, phases, tails


def draw_specs(rngs, min_zeros: int = 0, max_zeros: int = MAX_BLASCHKE_ZEROS) -> list:
    """One spec from each generator, as draw_blaschke_spec draws it, with the
    zeros and rotations of all generators formed at once."""
    counts, moduli, phases, turns = _polar_runs(rngs, min_zeros, max_zeros, 0, 1, max_zeros)
    zeros = (BLASCHKE_ZERO_CAP * moduli) * np.exp(1j * ((2.0 * np.pi) * phases))
    rotations = np.exp(1j * ((2.0 * np.pi) * turns[:, 0]))
    return [DrawnSpec(row[:n], rot) for row, n, rot in zip(zeros, counts, rotations.tolist())]


def draw_polynomials(rngs, max_degree: int = 8, coeff_cap: float = 2.0) -> tuple:
    """(coefficient rows, degrees) of one polynomial from each generator, as
    draw_polynomial draws it: the rows have max_degree + 1 columns, zero
    past each degree, and are checked finite."""
    degrees, moduli, phases, _ = _polar_runs(rngs, 0, max_degree, 1, 0, max_degree + 1)
    coeffs = (coeff_cap * moduli) * np.exp(1j * ((2.0 * np.pi) * phases))
    return finite_rows(coeffs), degrees


def draw_blaschke_spec(rng: np.random.Generator, min_zeros: int = 0, max_zeros: int = 4) -> BlaschkeSpec:
    """Draw zeros (count uniform on [min_zeros, max_zeros], moduli uniform on
    [0, 0.9), phases uniform) and a uniform rotation.  A one-row draw_specs
    call."""
    [spec] = draw_specs([rng], min_zeros, max_zeros)
    return BlaschkeSpec(zeros=tuple(spec.zeros), rotation=spec.rotation)


def draw_polynomial(
    rng: np.random.Generator, order: int, max_degree: int = 8, coeff_cap: float = 2.0
) -> TruncatedSeries:
    """Random polynomial with complex coefficients of modulus below coeff_cap.
    A one-row draw_polynomials call."""
    coeffs, [degree] = draw_polynomials([rng], max_degree, coeff_cap)
    return make_series(coeffs[0, : degree + 1], order)


def _boundary_moduli(zeros, counts, rotations, z) -> np.ndarray:
    """(rows, points) moduli |B(z)| of the Blaschke product of each row of
    spec columns (series._spec_columns) on the 1-D points z, in real
    arithmetic: the squared factor moduli |z - a|^2 / |1 - conj(a) z|^2
    multiplied, the root scaled by |rotation|.  The denominator is formed
    as |z - a|^2 + (1 - |a|^2)(1 - |z|^2), an identity of two positive
    terms."""
    x, y = z.real, z.imag
    rest = 1.0 - (x * x + y * y)
    squares = np.ones((counts.size, z.size))
    for i in range(int(counts.max(initial=0))):
        rows = np.flatnonzero(counts > i)
        a = zeros[rows, i]
        ar, ai = a.real[:, None], a.imag[:, None]
        near = (x - ar) ** 2 + (y - ai) ** 2
        squares[rows] *= near / (near + (1.0 - (ar * ar + ai * ai)) * rest)
    return np.sqrt(squares) * np.abs(rotations)[:, None]


def _boundary_tripwire(zeros, counts, rotations, inner: bool = False, odd: bool = False):
    """Raise AssertionError unless the witness of every spec of the columns
    zeros, counts and rotations (series._spec_columns, which has made
    BlaschkeSpec's checks), its Blaschke product B or, when ``inner``,
    z*B(z) (z*B(z^2) when odd), stays within modulus one (up to 1e-9) on
    the boundary sample.  Specs are checked _TRIPWIRE_ROWS at a time,
    through _boundary_moduli looked up when called."""
    sample = _BOUNDARY_SAMPLE**2 if odd else _BOUNDARY_SAMPLE
    for start in range(0, counts.size, _TRIPWIRE_ROWS):
        rows = slice(start, start + _TRIPWIRE_ROWS)
        moduli = _boundary_moduli(zeros[rows], counts[rows], rotations[rows], sample)
        worst = np.max(moduli * np.abs(_BOUNDARY_SAMPLE) if inner else moduli, axis=1)
        over = np.flatnonzero(~(worst <= 1.0 + 1e-9))
        if over.size:
            raise AssertionError(f"witness exceeds modulus one on the boundary sample: {float(worst[over[0]])}")


def bounded_from_spec(spec: BlaschkeSpec, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Series of the bounded analytic witness defined by a Blaschke product:
    a one-row bounded_rows call, exact of degree 0 when B has no zeros."""
    return TruncatedSeries(bounded_rows([spec], order)[0], exact_degree=None if len(spec.zeros) else 0)


def schwarz_from_spec(spec: BlaschkeSpec, odd: bool = False, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Inner function z*B(z) (or z*B(z^2) when odd) from a Blaschke spec: a
    one-row schwarz_rows call, exact of degree 1 when B has no zeros."""
    return TruncatedSeries(schwarz_rows([spec], order, odd)[0], exact_degree=None if len(spec.zeros) else 1)


def bounded_rows(specs, order: int) -> np.ndarray:
    """Stacked bounded_from_spec coefficients, one row per spec, bit for bit;
    the boundary tripwire runs on every spec.  One _spec_columns pass feeds
    the tripwire and the expansion."""
    columns = _spec_columns(specs)
    _boundary_tripwire(*columns)
    return _blaschke_expansion(*columns, order)


def schwarz_rows(specs, order: int, odd: bool = False) -> np.ndarray:
    """Stacked schwarz_from_spec coefficients, z*B(z) or, when odd, z*B(z^2),
    one row per spec, bit for bit; the boundary tripwire runs on every spec.
    One _spec_columns pass feeds the tripwire and the expansion."""
    columns = _spec_columns(specs)
    _boundary_tripwire(*columns, inner=True, odd=odd)
    if odd:
        return odd_rows(_blaschke_expansion(*columns, max(order // 2, 1)), order)
    return _blaschke_expansion(*columns, order, vanish_at_origin=True)


def odd_rows(base_rows, order: int) -> np.ndarray:
    """Rows of z * b(z^2) at the given order, one per row b of a stack, bit
    for bit as mul(z, p_symmetric_lift(b, 2, order=order)): base
    coefficients that land past the order drop out, and the +0.0 that
    np.convolve's sum adds to each shifted coefficient turns a -0.0 part
    into +0.0."""
    base_rows = np.asarray(base_rows, dtype=np.complex128)
    out = np.zeros((base_rows.shape[0], order + 1), dtype=np.complex128)
    m = min(base_rows.shape[1], (order + 1) // 2)
    out[:, 1 : 2 * m : 2] = base_rows[:, :m] + 0.0
    return out


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
    The "minus" series._automorphism, which refuses |a0| >= 1.
    """
    return _automorphism(a0, order, "minus")


def extremal_theorem3(a0: complex, lam: float, order: int = DEFAULT_ORDER) -> HarmonicPair:
    """Sharp harmonic pair: h a disk automorphism, co-analytic part lam * (h - h(0)).

    The co-analytic constant never enters any majorant sum, so it is
    dropped; the pair's dilatation bound is exactly lam.
    """
    unit_interval("lam", lam, closed=True)
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
    may be nonzero), which makes |g'| <= k |h'| hold by construction.  A
    one-row harmonic_rows call; g is exact when h and omega_tilde are and
    its degree, deg omega_tilde + max(deg h - 1, 0) + 1, fits the order.
    """
    _require_same_order(h, omega_tilde)
    g = harmonic_rows(h.coeffs[None], [k], omega_tilde.coeffs[None])[0]
    degree = None
    if h.exact_degree is not None and omega_tilde.exact_degree is not None:
        d = omega_tilde.exact_degree + max(h.exact_degree - 1, 0) + 1
        if d <= h.order:
            degree = d
    return HarmonicPair(h=h, g=TruncatedSeries(g, exact_degree=degree), k=k)


def harmonic_rows(h_rows, ks, omega_tilde_rows, index=None) -> np.ndarray:
    """Stacked harmonic_witness: the co-analytic rows g = integral of
    k * omega_tilde * h' of (rows, N+1) stacks, bit for bit, checked finite.
    With ``index``, row i of the result pairs ks[i] with row index[i] of h
    and omega_tilde, so rows shared by several k are convolved once."""
    ks = unit_interval("k", ks, closed=True)
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
