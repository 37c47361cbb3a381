"""Truncated complex power series on the unit disk.

A series is stored as a fixed-length coefficient vector c[0..N] (index =
power of z) together with an optional ``exact_degree`` marker: when set to
d, every coefficient beyond index d is identically zero and the vector
represents the function exactly rather than as a truncation.  All
operations are pure and never mutate their inputs, so values can be shared
freely across threads.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ORDER = 64

# Constant-term slack for inner series of a composition.  Witnesses build
# the inner function with an exactly zero constant term, so anything above
# this indicates a construction bug rather than roundoff.
COMPOSE_CONSTANT_TOL = 1e-15

ROTATION_TOL = 1e-15
BLASCHKE_ZERO_CAP = 0.9
MAX_BLASCHKE_ZEROS = 4


def mobius_tail(a, r, scale=1.0):
    """Constant-free majorant scale * r * (1 - a^2) / (1 - r a) of a Mobius
    series with |a0| = a.  Plain arithmetic, so it applies elementwise to
    arrays with the same rounding as a scalar call."""
    return scale * r * (1.0 - a * a) / (1.0 - r * a)


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
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"non-finite coefficient at index {int(bad[0])}")
        if self.exact_degree is not None:
            d = int(self.exact_degree)
            if not 0 <= d <= arr.size - 1:
                raise ValueError("exact_degree out of range")
            if d < arr.size - 1 and np.any(arr[d + 1 :] != 0):
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
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"non-finite coefficient at index {int(bad[0])}")
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
    """Composition g(w(z)) for an inner series with zero constant term.

    Because w(0) = 0, the k-th power of w starts at z^k, so the first
    order+1 coefficients of the result are exact given the stored
    coefficients of g and w.  Computed by Horner accumulation over the
    coefficients of g (down from its exact degree when known).

    Truncation window: the step that adds g_k is multiplied by w k more
    times, so when w(0) == 0 its output at index m reaches only result
    indices m + k and up, and the step convolves just the first n - k
    coefficients of the accumulator and of w (n = order + 1).  This keeps
    every bit of the full-length product: np.convolve forms output m as
    one dot over the same m + 1 pairs whatever the input lengths, and the
    one pair that differs pairs a not-yet-refreshed accumulator entry
    with w(0), so it adds a signed zero to a sum that starts at +0.0 and
    therefore never changes it.  An inner with a tiny nonzero constant
    (up to COMPOSE_CONSTANT_TOL) is composed at full length.
    """
    _require_same_order(g, w)
    if abs(w.coeffs[0]) > COMPOSE_CONSTANT_TOL:
        raise ValueError(
            f"inner series must vanish at the origin (|w(0)| = {abs(w.coeffs[0]):.3e})"
        )
    n = g.order + 1
    top = g.exact_degree if g.exact_degree is not None else g.order
    windowed = w.coeffs[0] == 0
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = g.coeffs[top]
    for k in range(top - 1, -1, -1):
        m = n - k if windowed else n
        acc[:m] = np.convolve(acc[:m], w.coeffs[:m])[:m]
        acc[0] += g.coeffs[k]
    degree = None
    if g.exact_degree is not None and w.exact_degree is not None:
        d = g.exact_degree * w.exact_degree
        if d <= g.order:
            degree = d
    return TruncatedSeries(acc, exact_degree=degree)


def finite_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` itself, after the finiteness check TruncatedSeries makes per
    series.  The stacked builders skip it on intermediate blocks and make it
    once on each block a witness leaves them with."""
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        row, index = bad[0]
        raise ValueError(f"non-finite coefficient at index {int(index)} of row {int(row)}")
    return rows


def _prefix_stacks(a: np.ndarray, m: int) -> tuple:
    """Views of the (rows, n) array ``a`` for outputs j < m of a row-wise
    convolution: the (rows, 1, j+1) stacks of a[:, :j+1] and the (rows, 1, 1)
    slots of column j."""
    return [a[:, None, : j + 1] for j in range(m)], [a[:, j, None, None] for j in range(m)]


def _reversed_prefixes(b: np.ndarray) -> list:
    """For each j < L, the (rows, j+1, 1) stack of b[:, j::-1] of a (rows, L) array."""
    rev = np.ascontiguousarray(b[:, ::-1])
    last = b.shape[1] - 1
    return [rev[:, last - j :, None] for j in range(last + 1)]


def _convolve_into(lhs: list, rhs: list, out: list, m: int):
    """Outputs j < m of a row-wise convolution, one np.matmul per output.

    np.convolve of two equal-length vectors forms output j as one BLAS dot
    of a[0:j+1] with b[j::-1]; np.matmul of a (rows, 1, j+1) stack by a
    (rows, j+1, 1) stack sends each row to the same dot over the same
    elements, so every row gets the bits np.convolve gives it.
    """
    for j in range(m):
        np.matmul(lhs[j], rhs[j], out=out[j])


def convolve_rows(a, b) -> np.ndarray:
    """Row-wise np.convolve(a[i], b[i])[:L] of two (rows, L) stacks, bit for bit.

    One np.matmul per kept output serves the whole block, and the outputs
    past L are never formed.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape != b.shape or a.shape[1] < 1:
        raise ValueError("convolve_rows needs two non-empty (rows, L) stacks of one shape")
    n = a.shape[1]
    out = np.empty_like(a)
    _convolve_into(_prefix_stacks(a, n)[0], _reversed_prefixes(b), _prefix_stacks(out, n)[1], n)
    return out


def compose_rows(g_rows, w_rows, tops) -> np.ndarray:
    """Row-wise compose(g, w) of (rows, N+1) stacks, bit for bit.

    Every inner row must vanish exactly at the origin, so each Horner step
    runs compose's truncation window: the step that adds g_k keeps outputs
    j < N+1-k, and output j is the same BLAS dot as in compose.  ``tops``
    gives the Horner start of each row: the outer's exact degree, or N for
    a truncated outer.  Rows that share a start run as one stack.
    """
    g_rows = np.asarray(g_rows, dtype=np.complex128)
    w_rows = np.asarray(w_rows, dtype=np.complex128)
    if g_rows.ndim != 2 or g_rows.shape != w_rows.shape or g_rows.shape[1] < 2:
        raise ValueError("compose_rows needs two (rows, N+1) stacks of one shape with N >= 1")
    if np.any(w_rows[:, 0] != 0):
        raise ValueError("inner rows must vanish exactly at the origin")
    rows, n = g_rows.shape
    tops = np.asarray(tops)
    if tops.shape != (rows,) or np.any((tops < 0) | (tops > n - 1)):
        raise ValueError(f"Horner starts must lie in [0, {n - 1}], one per row")
    starts = np.unique(tops)
    if starts.size == 1:
        return finite_rows(_compose_block(g_rows, w_rows, int(starts[0])))
    out = np.empty((rows, n), dtype=np.complex128)
    for top in starts:
        sel = tops == top
        out[sel] = _compose_block(g_rows[sel], w_rows[sel], int(top))
    return finite_rows(out)


def _compose_block(g: np.ndarray, w: np.ndarray, top: int) -> np.ndarray:
    """compose's windowed Horner loop on stacked rows with a shared start.

    Two buffers alternate as the accumulator, so a step reads the previous
    step's outputs from one while writing its own to the other.  Entry
    m - 1 of the buffer a step of window m reads has never been written,
    so it holds the zero compose's accumulator holds there.
    """
    rows, n = g.shape
    rhs = _reversed_prefixes(w)
    bufs = (np.zeros((rows, n), dtype=np.complex128), np.zeros((rows, n), dtype=np.complex128))
    stacks = [_prefix_stacks(buf, n) for buf in bufs]
    cur = 0
    bufs[cur][:, 0] = g[:, top]
    for k in range(top - 1, -1, -1):
        _convolve_into(stacks[cur][0], rhs, stacks[1 - cur][1], n - k)
        cur = 1 - cur
        bufs[cur][:, 0] += g[:, k]
    return bufs[cur]


def power(w: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-th power by repeated multiplication; w**0 is the constant one."""
    if k < 0:
        raise ValueError("exponent must be >= 0")
    out = make_series([1.0], w.order)
    for _ in range(k):
        out = mul(out, w)
    if w.coeffs[0] == 0:
        low = min(k, w.order + 1)
        if not np.all(out.coeffs[:low] == 0):
            raise AssertionError("power of origin-vanishing series leaked low-order terms")
    return out


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
    majorant sum of the represented function.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    mags = np.abs(f.coeffs)
    total = float(np.polynomial.polynomial.polyval(r, mags))
    if skip_constant:
        return total - float(mags[0])
    return total


def evaluate(f: TruncatedSeries, z):
    """Horner evaluation of the stored coefficients at one or many points."""
    return np.polynomial.polynomial.polyval(z, f.coeffs)


def majorant_rows(coeff_rows, rs, skip_constant: bool = False) -> np.ndarray:
    """Truncated majorant sums of stacked coefficient vectors over a radius grid.

    ``coeff_rows`` has shape (rows, N+1) and the result (rows, len(rs)).
    Horner runs the same floating-point operations element by element as
    ``majorant_eval``, so entry [i, j] equals majorant_eval of row i at
    rs[j] bit for bit.
    """
    rs = np.asarray(rs, dtype=np.float64)
    if not np.all((rs >= 0.0) & (rs < 1.0)):
        raise ValueError("radius must lie in [0, 1)")
    mags = np.abs(np.asarray(coeff_rows))
    total = _polyval_rows(rs, mags)
    if skip_constant:
        return total - mags[:, :1]
    return total


def evaluate_rows(coeff_rows, zs) -> np.ndarray:
    """Horner evaluation of stacked coefficient vectors at the same points.

    ``coeff_rows`` has shape (rows, N+1); the result has shape
    (rows,) + shape(zs), and row i equals ``evaluate`` of row i bit for bit.
    """
    return _polyval_rows(np.asarray(zs), np.asarray(coeff_rows))


def _polyval_rows(x: np.ndarray, coeff_rows: np.ndarray) -> np.ndarray:
    """np.polynomial.polynomial.polyval(x, coeff_rows.T), shape (rows,) + x.shape.

    The same Horner operations in the same order, element by element, but
    on one accumulator updated in place rather than two new temporaries a
    step, which keeps a large block's memory at one result array.
    """
    c = coeff_rows.reshape(coeff_rows.shape + (1,) * x.ndim)
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
    closed-form tag used by the functional layer.
    """
    a0 = complex(a0)
    if abs(a0) >= 1.0:
        raise ValueError("automorphism parameter must satisfy |a0| < 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = a0
    k = np.arange(order)
    out[1:] = (-1.0) ** k * (1.0 - abs(a0) ** 2) * a0.conjugate() ** k
    degree = 1 if a0 == 0 else None
    return TruncatedSeries(out, exact_degree=degree, tag=MobiusTag(a0, "plus"))


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
        if len(zeros) > MAX_BLASCHKE_ZEROS:
            raise ValueError(f"at most {MAX_BLASCHKE_ZEROS} zeros per Blaschke product")
        for z in zeros:
            if abs(z) > BLASCHKE_ZERO_CAP + 1e-12:
                raise ValueError(f"zero with modulus {abs(z):.4f} exceeds cap {BLASCHKE_ZERO_CAP}")
        rot = complex(self.rotation)
        if abs(abs(rot) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation must be unimodular")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "rotation", rot)


def eval_blaschke(spec: BlaschkeSpec, z):
    """Evaluate the rational Blaschke product itself (no truncation error)."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.full(z.shape, spec.rotation, dtype=np.complex128)
    for zero in spec.zeros:
        out = out * (z - zero) / (1.0 - np.conj(zero) * z)
    return out


def blaschke_series(spec: BlaschkeSpec, order: int, vanish_at_origin: bool = False) -> TruncatedSeries:
    """Expand a finite Blaschke product to the given truncation order.

    Each factor (z - z_i)/(1 - conj(z_i) z) is expanded in closed form
    (geometric series), the factors are convolved together, and an extra
    factor z is appended when ``vanish_at_origin`` so the result is a valid
    inner function for composition.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = order + 1
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = spec.rotation
    for zero in spec.zeros:
        factor = np.zeros(n, dtype=np.complex128)
        factor[0] = -zero
        factor[1:] = (1.0 - abs(zero) ** 2) * np.conj(zero) ** np.arange(order)
        acc = np.convolve(acc, factor)[:n]
    if vanish_at_origin:
        acc = np.concatenate(([0.0], acc[:-1]))
    if spec.zeros:
        degree = None
    else:
        degree = 1 if vanish_at_origin else 0
    return TruncatedSeries(acc, exact_degree=degree)


def blaschke_rows(specs, order: int, vanish_at_origin: bool = False) -> np.ndarray:
    """Stacked blaschke_series coefficients, one row per spec, bit for bit.

    Factor i of every spec with more than i zeros is expanded and convolved
    in one convolve_rows call; specs with fewer zeros are left out of it,
    as blaschke_series never convolves them.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = order + 1
    acc = np.zeros((len(specs), n), dtype=np.complex128)
    acc[:, 0] = [spec.rotation for spec in specs]
    counts = np.array([len(spec.zeros) for spec in specs])
    powers = np.arange(order)
    for i in range(int(counts.max(initial=0))):
        sel = np.flatnonzero(counts > i)
        zeros = [specs[row].zeros[i] for row in sel]
        factor = np.empty((sel.size, n), dtype=np.complex128)
        factor[:, 0] = [-zero for zero in zeros]
        scales = np.array([1.0 - abs(zero) ** 2 for zero in zeros])[:, None]
        factor[:, 1:] = scales * np.conj(np.array(zeros))[:, None] ** powers
        acc[sel] = convolve_rows(acc[sel], factor)
    if vanish_at_origin:
        acc[:, 1:] = acc[:, :-1].copy()
        acc[:, 0] = 0.0
    return acc
