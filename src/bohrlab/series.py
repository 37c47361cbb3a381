"""Truncated complex power series on the unit disk.

A series is stored as a fixed-length coefficient vector c[0..N] (index =
power of z) together with an optional ``exact_degree`` marker: when set to
d, every coefficient beyond index d is identically zero and the vector
represents the function exactly rather than as a truncation.  All
operations are pure and never mutate their inputs, so values can be shared
freely across threads.

Each construction rule has one kernel, which works on stacked (rows, N+1)
coefficient rows, and the per-series function of the rule is its one-row
call, adding only the TruncatedSeries, its exact degree and its tag:
convolve_rows multiplies, its per-row path being mul's np.convolve, and
_compose_block composes for compose and compose_rows.  convolve_rows
takes each row through np.convolve below _matmul_rows rows, a count that
grows with the row length, and makes one np.matmul per kept output for
the whole block from there on, with the same bits either way;
_compose_block runs each row's later Horner steps, from the row's own
start, through np.convolve.  A first step whose accumulator holds one
coefficient, a Horner start or a Blaschke rotation, computes one product
per output, which _lead_products forms directly for a whole block at
once.  The kernels run with numpy's overflow and invalid-value warnings
off: an overflow leaves inf or nan in the rows, which finite_rows refuses
wherever it happened.  Blaschke rows are expanded by _blaschke_expansion
from spec columns (zeros, counts, rotations), which _spec_columns forms
from spec objects unchecked: the stacked builders of bohrlab.witnesses,
bounded_rows and schwarz_rows, take a block's columns, make
BlaschkeSpec's checks (the bound of every Blaschke witness) on all of
them at once through _checked_columns and hand them to the expansion,
and blaschke_series is its one-row call.
Every disk automorphism series, mobius_series and
witnesses.extremal_theorem5, is a one-row mobius_rows call made by
_automorphism, and the automorphism parameters of mobius_rows and of
bohrlab.verify's t5/t6 witnesses pass one check,
_automorphism_parameters.  A rational function whose denominator has
constant term 1, such as a disk automorphism of z*B(z) (whose zP and Q
_schwarz_polynomials forms), is expanded by rational_rows.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ORDER = 64

ROTATION_TOL = 1e-15
BLASCHKE_ZERO_CAP = 0.9
MAX_BLASCHKE_ZEROS = 4


def mobius_tail(a, r, scale=1.0):
    """Constant-free majorant scale * r * (1 - a^2) / (1 - r a) of a Mobius
    series with |a0| = a.  Plain arithmetic, so it applies elementwise to
    arrays with the same rounding as a scalar call."""
    return scale * r * (1.0 - a * a) / (1.0 - r * a)


def unit_interval(name: str, value, closed: bool = False) -> np.ndarray:
    """``value`` as a float array once every entry lies in [0, 1) ([0, 1] when
    ``closed``); otherwise, nan included, a ValueError naming the parameter."""
    arr = np.asarray(value, dtype=np.float64)
    if not ((arr >= 0.0) & ((arr <= 1.0) if closed else (arr < 1.0))).all():
        raise ValueError(f"{name} must lie in [0, 1{']' if closed else ')'}")
    return arr


def integer(name: str, value) -> int:
    """``value`` as an int when operator.index takes it (numpy integers
    included); otherwise, 2.5 and 2.0 alike, a ValueError naming the
    parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


def refuse_unread(where: str, given: dict, read) -> None:
    """Refuse every entry of ``given`` (name -> value, None when absent) whose
    name ``where`` does not read, so mistyped or misplaced input is never
    silently ignored."""
    unread = [name for name, value in given.items() if value is not None and name not in read]
    if unread:
        raise ValueError(f"{where} does not read {', '.join(unread)}")


@dataclass(frozen=True)
class MobiusTag:
    """Closed-form certificate carried by disk-automorphism series.

    ``kind`` selects the generating function:

    * ``"plus"``   -- (z + a0) / (1 + conj(a0) z)
    * ``"minus"``  -- (a0 - z) / (1 - conj(a0) z)
    * ``"tail"``   -- scale * ((z + a0)/(1 + conj(a0) z) - a0), i.e. the
      constant-free tail of the "plus" automorphism.

    All three share the coefficient-modulus pattern
    |c_k| = scale * (1 - |a0|^2) |a0|^(k-1) for k >= 1, which gives the
    geometric closed form used by the majorant helpers.
    """

    a0: complex
    kind: str = "plus"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("plus", "minus", "tail"):
            raise ValueError(f"unknown Mobius tag kind {self.kind!r}")
        if abs(self.a0) >= 1.0:
            raise ValueError("Mobius tag requires |a0| < 1")

    @property
    def a(self) -> float:
        return abs(self.a0)

    def majorant(self, r: float, skip_constant: bool = False) -> float:
        """Exact value of sum_k |c_k| r^k, bypassing truncation."""
        a = self.a
        tail = mobius_tail(a, r, self.scale)
        if skip_constant or self.kind == "tail":
            return tail
        return a + tail

    def value_at(self, z: complex) -> complex:
        """Exact value of the generating function at a point of the disk."""
        a0 = self.a0
        plus = (z + a0) / (1.0 + a0.conjugate() * z)
        if self.kind == "plus":
            return plus
        if self.kind == "minus":
            return (a0 - z) / (1.0 - a0.conjugate() * z)
        return self.scale * (plus - a0)


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficient vector of length order+1 with optional exactness marker."""

    coeffs: np.ndarray
    exact_degree: int | None = None
    tag: MobiusTag | None = field(default=None, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coefficient vector must be one-dimensional and non-empty")
        # the first bad index is sought only once the cheap test fails
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite coefficient at index {int(np.flatnonzero(~np.isfinite(arr))[0])}")
        if self.exact_degree is not None:
            d = integer("exact_degree", self.exact_degree)
            if not 0 <= d <= arr.size - 1:
                raise ValueError("exact_degree out of range")
            # any() counts -0.0 as zero, as the comparison != 0 does
            if arr[d + 1 :].any():
                raise ValueError("exact_degree set but trailing coefficients are nonzero")
            object.__setattr__(self, "exact_degree", d)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return add(self, scale(other, -1.0))

    def __neg__(self) -> "TruncatedSeries":
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __repr__(self):
        head = np.array2string(self.coeffs[: min(5, self.coeffs.size)], precision=6)
        return (
            f"TruncatedSeries(order={self.order}, exact_degree={self.exact_degree}, "
            f"coeffs={head}...)"
        )


def make_series(coeffs, order: int) -> TruncatedSeries:
    """Build a polynomial-exact series, zero-padded to the given order.

    An empty coefficient list yields the zero series (exact_degree 0 by
    convention).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    arr = np.asarray(list(coeffs), dtype=np.complex128)
    if arr.size > order + 1:
        raise ValueError(f"{arr.size} coefficients exceed order {order}")
    out = np.zeros(order + 1, dtype=np.complex128)
    out[: arr.size] = arr
    degree = max(arr.size - 1, 0)
    return TruncatedSeries(out, exact_degree=degree)


def _require_same_order(f: TruncatedSeries, g: TruncatedSeries):
    if f.order != g.order:
        raise ValueError(f"truncation order mismatch: {f.order} vs {g.order}")


def scale(f: TruncatedSeries, c: complex) -> TruncatedSeries:
    """Multiply every coefficient by a finite scalar."""
    c = complex(c)
    if not (cmath.isfinite(c)):
        raise ValueError("scale factor must be finite")
    return TruncatedSeries(f.coeffs * c, exact_degree=f.exact_degree)


def add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise sum of two series with equal truncation order."""
    _require_same_order(f, g)
    degree = None
    if f.exact_degree is not None and g.exact_degree is not None:
        degree = max(f.exact_degree, g.exact_degree)
    return TruncatedSeries(f.coeffs + g.coeffs, exact_degree=degree)


def mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order.

    Coefficient k of the result is sum_{m+j=k} f_m g_j; entries beyond the
    truncation order are discarded.
    """
    _require_same_order(f, g)
    n = f.order + 1
    out = np.convolve(f.coeffs, g.coeffs)[:n]
    degree = None
    if f.exact_degree is not None and g.exact_degree is not None:
        d = f.exact_degree + g.exact_degree
        if d <= f.order:
            degree = d
    return TruncatedSeries(out, exact_degree=degree)


def compose(g: TruncatedSeries, w: TruncatedSeries) -> TruncatedSeries:
    """Composition g(w(z)) for an inner series with w(0) exactly zero.

    Because w(0) = 0, the k-th power of w starts at z^k, so the first
    order+1 coefficients of the result are exact given the stored
    coefficients of g and w.  A one-row call of compose_rows' block kernel,
    Horner from g's exact degree when known; the result is exact of degree
    deg g * deg w when both are known and it fits the order.
    """
    _require_same_order(g, w)
    if w.coeffs[0] != 0:
        raise ValueError(f"inner series must vanish at the origin (|w(0)| = {abs(w.coeffs[0]):.3e})")
    top = g.exact_degree if g.exact_degree is not None else g.order
    degree = None
    if g.exact_degree is not None and w.exact_degree is not None:
        d = g.exact_degree * w.exact_degree
        if d <= g.order:
            degree = d
    return TruncatedSeries(_compose_block(g.coeffs[None], w.coeffs[None], np.array([top]))[0], exact_degree=degree)


def finite_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` itself, after the finiteness check TruncatedSeries makes per
    series.  The stacked builders skip it on intermediate blocks and make it
    once on each block a witness leaves them with."""
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        row, index = bad[0]
        raise ValueError(f"non-finite coefficient at index {int(index)} of row {int(row)}")
    return rows


@np.errstate(over="ignore", invalid="ignore")
def _lead_products(x0, y) -> np.ndarray:
    """Row-wise np.convolve(x[i], y[i])[:L] of a (rows, L) stack y and a stack
    x that is zero past its first column x0, bit for bit: the first step of
    a kernel whose accumulator holds one coefficient.

    Output j of that convolution is one BLAS dot whose one nonzero product
    is x0[i] * y[i, j]; every other product is a signed zero added to a sum
    that starts at +0.0.  That dot's rounding is formed in real arithmetic,
    element by element, so one row and a block of any size get the same
    bits: each real product rounded once and added to +0.0, then
    re = rr - ii and im = ri + ir.  numpy's complex x * y is not used: it
    may fuse a multiply with the subtraction, and it rounds most such
    products to other bits (tests/test_series.py, TestFirstStep).
    """
    out = np.empty_like(y)
    xr, xi = x0.real[:, None], x0.imag[:, None]
    yr, yi = y.real, y.imag
    out.real = (xr * yr + 0.0) - (xi * yi + 0.0)
    out.imag = (xr * yi + 0.0) + (xi * yr + 0.0)
    return out


def _matmul_rows(n: int) -> int:
    """Row count from which convolve_rows makes one np.matmul per kept output
    for a block of rows of n coefficients; below it, each row goes through
    np.convolve, whose per-call cost is far lower than a matmul's.  Both
    give every row the same bits.  Measured on a 2-core x86 VM with numpy
    2.4.6, the per-row loop wins below about 8, 14, 23, 30 and 35 rows at
    9, 17, 33, 65 and 129 to 257 coefficients; the rule is within four
    rows of each."""
    return min(8 + n // 2, 32)


@np.errstate(over="ignore", invalid="ignore")
def convolve_rows(a, b) -> np.ndarray:
    """Row-wise np.convolve(a[i], b[i])[:L] of two (rows, L) stacks, bit for bit.

    Below _matmul_rows(L) rows each row is that np.convolve call.  From it
    on, one np.matmul per kept output serves the whole block, and the
    outputs past L are never formed: np.convolve forms output j as one BLAS
    dot of a[0:j+1] with b[j::-1], and np.matmul of the (rows, 1, j+1) stack
    of a[:, :j+1] by the (rows, j+1, 1) stack of b[:, j::-1] sends each row
    to the same dot over the same elements.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape != b.shape or a.shape[1] < 1:
        raise ValueError("convolve_rows needs two non-empty (rows, L) stacks of one shape")
    rows, n = a.shape
    out = np.empty_like(a)
    if rows < _matmul_rows(n):
        for i in range(rows):
            out[i] = np.convolve(a[i], b[i])[:n]
    else:
        rev = np.ascontiguousarray(b[:, ::-1])
        for j in range(n):
            np.matmul(a[:, None, : j + 1], rev[:, n - 1 - j :, None], out=out[:, j, None, None])
    return out


def compose_rows(g_rows, w_rows, tops) -> np.ndarray:
    """Row-wise compose(g, w) of (rows, N+1) stacks, bit for bit.

    Every inner row must vanish exactly at the origin, so each Horner step
    runs _compose_block's truncation window.  ``tops`` gives the Horner
    start of each row, an integer: the outer's exact degree, or N for a
    truncated outer.  The whole block is one _compose_block call.  The
    inputs are checked finite, so that no product of an infinity meets an
    exact zero, and so is the result, which may overflow.
    """
    g_rows = np.asarray(g_rows, dtype=np.complex128)
    w_rows = np.asarray(w_rows, dtype=np.complex128)
    if g_rows.ndim != 2 or g_rows.shape != w_rows.shape or g_rows.shape[1] < 2:
        raise ValueError("compose_rows needs two (rows, N+1) stacks of one shape with N >= 1")
    if np.any(w_rows[:, 0] != 0):
        raise ValueError("inner rows must vanish exactly at the origin")
    finite_rows(g_rows)
    finite_rows(w_rows)
    rows, n = g_rows.shape
    tops = np.asarray(tops)
    if tops.shape != (rows,) or not np.all((tops >= 0) & (tops <= n - 1) & (np.floor(tops) == tops)):
        raise ValueError(f"Horner starts must be integers in [0, {n - 1}], one per row")
    return finite_rows(_compose_block(g_rows, w_rows, tops.astype(np.intp)))


def _compose_block(g: np.ndarray, w: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Horner composition of stacked rows, row i from its own start tops[i]
    and every inner row vanishing exactly at the origin; the kernel of
    compose and compose_rows.

    Truncation window: the step that adds g_k is multiplied by w k more
    times, so its output at index m reaches only result indices m + k and
    up, and the step convolves just the first n - k coefficients of the
    accumulator and of w.  This keeps every bit of the full-length product:
    np.convolve forms output m as one dot over the same m + 1 pairs whatever
    the input lengths, and the one pair that differs pairs a not-yet-refreshed
    accumulator entry with w(0), so it adds a signed zero to a sum that
    starts at +0.0 and therefore never changes it.

    The first step's accumulator holds g_top alone, so every row takes that
    step in one _lead_products call of its g_top and w.  Each row then sets
    its entries from n - top + 1 on, past the step's window, to the zero
    its accumulator holds there (a later step pairs such an entry with
    w(0), and a product there that overflowed would turn the pair into
    nan), and runs its later steps on its own accumulator with np.convolve;
    a row with top 0 is [g_0, 0, ...].
    That set-up is per row: as block-wide masks it made each one-row call
    (compose, and so every t2 witness) about 8 us dearer at order 64.
    """
    rows, n = g.shape
    out = _lead_products(g[np.arange(rows), tops], w)
    for acc, g_row, w_row, top in zip(out, g, w, tops.tolist()):
        if top == 0:
            acc[:] = 0.0
            acc[0] = g_row[0]
            continue
        acc[n - top + 1 :] = 0.0
        acc[0] += g_row[top - 1]
        for k in range(top - 2, -1, -1):
            acc[: n - k] = np.convolve(acc[: n - k], w_row[: n - k])[: n - k]
            acc[0] += g_row[k]
    return out


@np.errstate(over="ignore", invalid="ignore")
def rational_rows(num_rows, den_rows, order: int) -> np.ndarray:
    """Row-wise Taylor coefficients 0..order of num / den, for (rows, k) stacks
    of polynomial coefficients whose denominators have constant term 1.

    Coefficient n is num_n - sum_{j=1..d} den_j h_{n-j}, the forward
    recurrence of den * h = num, one step per n for the whole block: O(dN)
    work per row, where compose_rows spends O(N^3) on a rational outer of a
    rational inner.  Every mode of the recurrence decays when den has no
    zero in the closed unit disk, but rounding errors grow where its zeros
    crowd together near the circle: for the t5/t6 witnesses with |a0| =
    0.95 and four zeros of B clustered at modulus 0.9, the rows at order
    256 stay within 1e-12 of a 50-digit expansion, where compose_rows
    stays within 2e-16 (tests/test_series.py, TestRationalRows).
    """
    num = np.asarray(num_rows, dtype=np.complex128)
    den = np.asarray(den_rows, dtype=np.complex128)
    if num.ndim != 2 or den.ndim != 2 or num.shape[0] != den.shape[0] or den.shape[1] < 1:
        raise ValueError("rational_rows needs two (rows, k) stacks with one row count")
    if np.any(den[:, 0] != 1):
        raise ValueError("denominator rows must have constant term 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    d, n = den.shape[1] - 1, order + 1
    # One column per row and d leading zeros, so step n reads h_{n-d..n-1}
    # as one contiguous (d, rows) slice.
    h = np.zeros((d + n, num.shape[0]), dtype=np.complex128)
    m = min(num.shape[1], n)
    h[d : d + m] = num[:, :m].T
    taps = den[:, :0:-1].T
    for k in range(d, d + n):
        h[k] -= (taps * h[k - d : k]).sum(axis=0)
    return np.ascontiguousarray(h[d:].T)


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; the top slot is zero-padded."""
    n = f.order + 1
    out = np.zeros(n, dtype=np.complex128)
    out[:-1] = f.coeffs[1:] * np.arange(1, n)
    if f.exact_degree is None:
        degree = None
    else:
        degree = max(f.exact_degree - 1, 0)
    return TruncatedSeries(out, exact_degree=degree)


def integrate(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise antiderivative with zero constant; the top input slot is dropped."""
    n = f.order + 1
    out = np.zeros(n, dtype=np.complex128)
    out[1:] = f.coeffs[:-1] / np.arange(1, n)
    degree = None
    if f.exact_degree is not None and f.exact_degree + 1 <= f.order:
        degree = f.exact_degree + 1
    return TruncatedSeries(out, exact_degree=degree)


def majorant_eval(f: TruncatedSeries, r: float, skip_constant: bool = False) -> float:
    """Truncated majorant sum: sum_k |c_k| r^k over the stored coefficients.

    Exact when exact_degree is set; otherwise a lower bound on the full
    majorant sum of the represented function.  A one-row majorant_rows call.
    """
    return float(majorant_rows(f.coeffs[None], [r], skip_constant)[0, 0])


def evaluate(f: TruncatedSeries, z):
    """Horner evaluation of the stored coefficients at one or many points."""
    return np.polynomial.polynomial.polyval(z, f.coeffs)


def majorant_rows(coeff_rows, rs, skip_constant: bool = False) -> np.ndarray:
    """Truncated majorant sums of stacked coefficient vectors over radius grids.

    ``coeff_rows`` has shape (rows, N+1).  ``rs`` is one grid for every row,
    giving a (rows, len(rs)) result, or a (rows, m) array holding one grid
    per row, giving a (rows, m) result.  Horner runs the same floating-point
    operations element by element as np.polynomial.polynomial.polyval of
    each row at each of its radii.
    """
    rs = unit_interval("radius", rs)
    mags = np.abs(np.asarray(coeff_rows))
    total = _polyval_rows(rs if rs.ndim == 2 else rs[None], mags)
    if skip_constant:
        return total - mags[:, :1]
    return total


def _polyval_rows(x: np.ndarray, coeff_rows: np.ndarray) -> np.ndarray:
    """Row i of the result is np.polynomial.polynomial.polyval(x[i],
    coeff_rows[i]), where the points x have a leading axis of length rows,
    or of length one for points shared by every row; the result has shape
    (rows,) + x.shape[1:].

    The same Horner operations in the same order, element by element, but
    on one accumulator updated in place rather than two new temporaries a
    step, which keeps a large block's memory at one result array.
    """
    c = coeff_rows.reshape(coeff_rows.shape + (1,) * (x.ndim - 1))
    acc = c[:, -1] + x * 0
    for i in range(2, c.shape[1] + 1):
        np.multiply(acc, x, out=acc)
        np.add(c[:, -i], acc, out=acc)
    return acc


def mobius_series(a0: complex, order: int) -> TruncatedSeries:
    """Expansion of the disk automorphism (z + a0) / (1 + conj(a0) z).

    Coefficient 0 is a0 and coefficient k is
    (-1)^(k-1) (1 - |a0|^2) conj(a0)^(k-1) for k >= 1, so the moduli form
    the geometric family (1 - |a0|^2) |a0|^(k-1).  The result carries a
    closed-form tag used by the functional layer.  The "plus" _automorphism.
    """
    return _automorphism(a0, order, "plus")


def _automorphism(a0, order: int, kind: str) -> TruncatedSeries:
    """The disk automorphism of ``kind`` at a0 as a tagged series: a one-row
    mobius_rows call, which refuses |a0| >= 1, with its MobiusTag.  It is
    exact of degree 1 at a0 = 0, where it is the polynomial z or -z, and a
    truncation elsewhere."""
    a0 = complex(a0)
    row = mobius_rows([a0], order, kind)[0]
    return TruncatedSeries(row, exact_degree=1 if a0 == 0 else None, tag=MobiusTag(a0, kind))


def _unit_gaps(values) -> np.ndarray:
    """1 - |a|^2 for each a of a 1-D sequence, the scale of the coefficients
    of a Mobius or Blaschke factor, formed one a at a time with Python's abs
    and ``**``.  np.abs rounds differently from abs of a Python complex
    about a third of the time, and ``**`` goes through libm's pow, which
    differs from the rounded product x * x for about one a in a thousand,
    so every builder of these coefficients forms the scale here."""
    values = np.asarray(values, dtype=np.complex128).tolist()
    return np.array([1.0 - abs(a) ** 2 for a in values], dtype=np.float64)


def _automorphism_parameters(a0s) -> np.ndarray:
    """``a0s`` as a complex array once every entry lies in the open unit
    disk, the parameters of disk automorphisms; otherwise, nan included, a
    ValueError.  |a0| is formed by np.hypot, which rounds as abs() of a
    Python complex does."""
    a0s = np.asarray(a0s, dtype=np.complex128)
    if not np.all(np.hypot(a0s.real, a0s.imag) < 1.0):
        raise ValueError("automorphism parameter must satisfy |a0| < 1")
    return a0s


def mobius_rows(a0s, order: int, kind: str = "plus") -> np.ndarray:
    """Coefficient rows, one per a0 of a 1-D array, of the disk automorphism
    (z + a0) / (1 + conj(a0) z) (``kind`` "plus", as mobius_series) or
    (a0 - z) / (1 - conj(a0) z) ("minus", whose coefficient k >= 1 is
    -(1 - |a0|^2) conj(a0)^(k-1)).  Each row has the bits of the one-row
    call; an a0 of 0 gives a polynomial of degree 1.
    """
    if kind not in ("plus", "minus"):
        raise ValueError(f"unknown automorphism kind {kind!r}")
    a0s = _automorphism_parameters(a0s)
    if order < 1:
        raise ValueError("order must be >= 1")
    k = np.arange(order)
    signs = (-1.0) ** k if kind == "plus" else np.full(order, -1.0)
    scales = _unit_gaps(a0s)[:, None]
    out = np.empty((a0s.size, order + 1), dtype=np.complex128)
    out[:, 0] = a0s
    out[:, 1:] = signs * scales * np.conj(a0s)[:, None] ** k
    return out


@dataclass(frozen=True)
class BlaschkeSpec:
    """Zeros and rotation defining a finite Blaschke product.

    Zeros are capped at modulus 0.9 and at most four per product so the
    expansion coefficients stay well conditioned at the default order.
    """

    zeros: tuple = ()
    rotation: complex = 1.0 + 0.0j

    def __post_init__(self):
        zeros = tuple(complex(z) for z in self.zeros)
        rot = complex(self.rotation)
        _check_blaschke(len(zeros), [abs(z) for z in zeros], abs(rot))
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "rotation", rot)


def _check_blaschke(counts, zero_moduli, rotation_moduli):
    """BlaschkeSpec's checks, on one spec or on columns of many: at most
    MAX_BLASCHKE_ZEROS zeros, none of modulus above BLASCHKE_ZERO_CAP, and
    a unimodular rotation.  Each check asks that the good comparison hold,
    so a NaN zero or rotation, for which no comparison holds, is refused.

    They are what bounds every witness built from a spec; no witness is
    evaluated on the boundary.  Each zero a has modulus at most
    BLASCHKE_ZERO_CAP + 1e-12 < 1, so each factor |z - a| / |1 - conj(a) z|
    is at most 1 on the closed disk, and the rotation has modulus within
    ROTATION_TOL (1e-15) of 1, so |B| <= 1 + 1e-15 there, and so are
    |z B(z)| and |z B(z^2)|."""
    if np.any(np.asarray(counts) > MAX_BLASCHKE_ZEROS):
        raise ValueError(f"at most {MAX_BLASCHKE_ZEROS} zeros per Blaschke product")
    zero_moduli = np.asarray(zero_moduli, dtype=np.float64)
    bad = ~(zero_moduli <= BLASCHKE_ZERO_CAP + 1e-12)
    if np.any(bad):
        modulus = zero_moduli[bad][0]
        if np.isnan(modulus):
            raise ValueError("zero with modulus nan: every Blaschke zero must be a number")
        raise ValueError(f"zero with modulus {modulus:.4f} exceeds cap {BLASCHKE_ZERO_CAP}")
    rotation_moduli = np.asarray(rotation_moduli, dtype=np.float64)
    bad = ~(np.abs(rotation_moduli - 1.0) <= ROTATION_TOL)
    if np.any(bad):
        raise ValueError(f"rotation must be unimodular (modulus {rotation_moduli[bad][0]:.17g})")


def _checked_columns(zeros, counts, rotations) -> tuple:
    """(zeros, counts, rotations) themselves once every spec they hold has
    passed BlaschkeSpec's checks, made on the whole block at once: row i
    holds the spec whose counts[i] zeros lead row i of the (rows, width)
    array zeros, whatever follows them, and whose rotation is
    rotations[i]."""
    live = np.arange(zeros.shape[1]) < counts[:, None]
    _check_blaschke(counts, np.abs(zeros[live]), np.abs(rotations))
    return zeros, counts, rotations


def _spec_columns(specs) -> tuple:
    """(zeros, counts, rotations) of a sequence of specs, each an object with
    ``zeros`` and ``rotation`` as BlaschkeSpec has: zeros holds the zeros of
    each spec in order and zero after them, in MAX_BLASCHKE_ZEROS columns or
    as many as the longest spec has.  No check is made here: the builders
    that expand the columns make BlaschkeSpec's checks (_checked_columns)."""
    counts = np.array([len(spec.zeros) for spec in specs], dtype=np.intp)
    rotations = np.array([spec.rotation for spec in specs], dtype=np.complex128)
    flat = np.concatenate([np.empty(0, dtype=np.complex128), *(spec.zeros for spec in specs)])
    zeros = np.zeros((counts.size, max(MAX_BLASCHKE_ZEROS, int(counts.max(initial=0)))), dtype=np.complex128)
    zeros[np.arange(zeros.shape[1]) < counts[:, None]] = flat
    return zeros, counts, rotations


def eval_blaschke(spec: BlaschkeSpec, z):
    """Evaluate the rational Blaschke product itself (no truncation error)."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.full(z.shape, spec.rotation, dtype=np.complex128)
    for zero in spec.zeros:
        out = out * (z - zero) / (1.0 - np.conj(zero) * z)
    return out


def blaschke_series(spec: BlaschkeSpec, order: int, vanish_at_origin: bool = False) -> TruncatedSeries:
    """Expand a finite Blaschke product to the given truncation order, times
    z when ``vanish_at_origin`` (a valid inner function for composition): a
    one-row _blaschke_expansion call, exact of degree 0 (1 with the factor
    z) when the spec has no zeros.  The spec's one row of columns is formed
    here, not by _spec_columns, whose stacking of a sequence of specs would
    add about a fifth to a call at order 16; BlaschkeSpec made its checks
    when built."""
    zeros = np.array([spec.zeros], dtype=np.complex128)
    rotations = np.array([spec.rotation], dtype=np.complex128)
    row = _blaschke_expansion(zeros, np.array([zeros.shape[1]]), rotations, order, vanish_at_origin)[0]
    return TruncatedSeries(row, exact_degree=None if zeros.size else int(vanish_at_origin))


def _blaschke_expansion(zeros, counts, rotations, order: int, vanish_at_origin: bool = False) -> np.ndarray:
    """Coefficient rows 0..order of the Blaschke products whose spec columns
    are zeros, counts and rotations, one row per spec; the kernel of
    blaschke_series and of the stacked builders of bohrlab.witnesses.

    The factor (z - a)/(1 - conj(a) z) of every zero a of the block is
    expanded in closed form at once, -a and then (1 - |a|^2) conj(a)^(k-1).
    Factor 0 meets the rotation alone, so it is _lead_products of the
    rotation and the factor; factor i >= 1 is then convolved in one
    convolve_rows call for every spec with more than i zeros.  Specs with
    fewer zeros are left out of a step, so a block whose largest zero count
    is c >= 1 makes c - 1 convolve_rows calls.  With ``vanish_at_origin``
    every row is shifted by one place: the factor z.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = order + 1
    # live[i] marks the specs with more than i zeros, and the factors are
    # formed in that order, so factor i of those specs is one slice.  Each
    # factor row is written in place: a block's factors are its largest
    # temporary.
    live = np.arange(zeros.shape[1])[:, None] < counts
    zero = zeros.T[live]
    factors = np.empty((zero.size, n), dtype=np.complex128)
    factors[:, 0] = -zero
    np.power(np.conj(zero)[:, None], np.arange(order), out=factors[:, 1:])
    np.multiply(_unit_gaps(zero)[:, None], factors[:, 1:], out=factors[:, 1:])
    acc = np.zeros((counts.size, n), dtype=np.complex128)
    acc[:, 0] = rotations
    stop = 0
    for i, (rows, size) in enumerate(zip(live, live.sum(axis=1).tolist())):
        if not size:
            break
        start, stop = stop, stop + size
        if i == 0:
            acc[rows] = _lead_products(rotations[rows], factors[:stop])
        elif size == counts.size:
            acc = convolve_rows(acc, factors[start:stop])
        else:
            acc[rows] = convolve_rows(acc[rows], factors[start:stop])
    if vanish_at_origin:
        acc[:, 1:] = acc[:, :-1].copy()
        acc[:, 0] = 0.0
    return acc


def _schwarz_polynomials(zeros, counts, rotations) -> tuple:
    """(zP, Q) of the inner function z*B(z) = zP(z) / Q(z) of each row of
    spec columns (zeros, counts, rotations), P = rotation * prod(z - a_i) and
    Q = prod(1 - conj(a_i) z), as (rows, MAX_BLASCHKE_ZEROS + 2) stacks of
    polynomial coefficients; Q has constant term 1."""
    rows, width = counts.size, MAX_BLASCHKE_ZEROS + 2
    zp = np.zeros((rows, width), dtype=np.complex128)
    q = np.zeros((rows, width), dtype=np.complex128)
    zp[:, 1] = rotations
    q[:, 0] = 1.0
    for i in range(int(counts.max(initial=0))):
        sel = np.flatnonzero(counts > i)
        zero = zeros[sel, i, None]
        zp[sel, 1:] = zp[sel, :-1] - zero * zp[sel, 1:]
        q[sel, 1:] = q[sel, 1:] - np.conj(zero) * q[sel, :-1]
    return zp, q
