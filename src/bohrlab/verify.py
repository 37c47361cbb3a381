"""Seeded property-verification suites, sharpness certificates and scans.

Every suite draws its witnesses from per-trial PCG64 streams seeded with
(suite id, seed, trial ...), the streams np.random.default_rng(key) gives,
drawn a chunk of keys at a time by bohrlab.streams, so reports are
reproducible bit for bit and a longer run extends a shorter one without
disturbing earlier trials.  Each trial is evaluated once, at the suite's
truncation order.

Residuals are "most positive value of LHS - RHS observed"; a suite passes
when the maximum stays at or below the tolerance.  Left-hand sides are
either exact (closed forms, polynomial outers) or truncated lower bounds of
the true sums.  A truncated left-hand side can hide a violation that lives
in the dropped tail, so a pass is not a certificate for the untruncated
functions.  Nor would a failure clear at a higher order: coefficients 0..N
of every witness do not depend on N, every left-hand side is an
N-independent part plus sums of non-negative terms over those
coefficients, and t2's partial sums at 2N include those at N, so up to
rounding a higher order can only raise a residual.

Each suite draws its trials a chunk at a time and column by column: the
polynomial coefficients, Blaschke zeros and rotations of a chunk are formed
as arrays from one integer and one run of doubles per trial and spec,
each drawn for the whole chunk by one call of its streams, with the bits
and the stream order of per-object Generator draws, and a chunk stays a
tuple of columns (trial index, parameters, coefficient rows and degrees,
and spec columns (zeros, counts, rotations)).  All five suites, listed
once in SUITES, share one driver, _run_suite, which cuts each chunk into
blocks of rows, and to which each hands one function that builds the
witnesses of a block as stacked (rows, N+1) arrays, through the row
kernels of series and witnesses, one per construction rule, whose one-row
calls are the per-series functions, and returns their residual column.
The builders check a block's spec columns once.  Every check reaches the
tracker in one form: a residual array and the functions that name its
entries.  The tracker takes the first non-finite entry, which it refuses
by name, or else the first largest, and keeps the worst item; the report
forms the one record of that item.  The driver makes one update per block
with its residual column, an entry being named by its row of the block's
own columns, sliced to a block of one row, and the dict that locates its
residual, and recorded by the suite's record function (_t1_record,
_t2_record, _t3_record or the suite's own), which reads that one-row
block.  A trial so stays its row of the suite's columns from draw to
record, and a record maps back to a one-row block that the suite's
residuals function evaluates again.  t5 and t6 then hand over their
closed-form checks as tables of one sharp_lhs call each, in group order:
t5 its (group x 9) table of the sharp witness on each group's grid and
just beyond its radius, then its universal-radius sweep; t6 its (pair x 5)
table of the ladder scales and the exact scale at the radius and beyond
it, whose failing checks form a (pair, check) mask.  Subordination, majorization and the identity
inner are the Blaschke product with no zeros: t1 and t2 mask such a
trial's row of its phi or omega spec columns to the zero-free product
(witnesses._zero_free).  t2 builds its outers and inners as rows and only
composes each witness on its own, through series.compose, the one-row
call of compose_rows' kernel, whose calls perfbench's traced run counts.
A t5 or t6 witness, a disk automorphism of z*B(z), is a rational function
of degree at most 5, which _automorphisms expands by its denominator's
recurrence (series.rational_rows) rather than composing, and whose
numerator and denominator it hands on, so that |h| is the untruncated
witness's value.  Every left-hand side comes from bohrlab.functionals:
its theorem*_rows functions evaluate a block in one pass, the majorant
sums with the bits of per-witness, per-radius evaluation, each t5 or t6
row on its own group's radius grid, and sharp_lhs sums the sharp
witnesses of t3, t5, t6 and the certificates in closed form without
building a series.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .functionals import (
    SHARP_PARAMETERS,
    sharp_lhs,
    theorem1_rows,
    theorem2_rows,
    theorem3_rows,
    theorem5_rows,
    theorem6_rows,
)
from .radii import (
    ANALYTIC_THRESHOLD_A,
    CLASSICAL_CAP,
    ODD_CAP,
    UNIVERSAL_RADIUS,
    theorem5_radius,
    theorem6_radius,
    theorem6_threshold,
)
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    _automorphism_parameters,
    _checked_columns,
    _schwarz_polynomials,
    compose,
    finite_rows,
    integer,
    rational_rows,
    refuse_unread,
    unit_interval,
)
from .streams import _keyed_draws
from .witnesses import (
    _zero_free,
    bounded_rows,
    draw_polynomials,
    draw_specs,
    harmonic_rows,
    odd_rows,
    quasi_rows,
    schwarz_rows,
)

TOLERANCE = 1e-9
CERT_TOLERANCE = 1e-8
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 42

# The suites in report order: the stream id that opens each trial key and
# the name of the check function, which the CLI looks up when called.
SUITES = {
    "t1": (1, "check_theorem1"),
    "t2": (2, "check_theorem2_odd"),
    "t3": (3, "check_theorem3"),
    "t5": (5, "check_theorem5"),
    "t6": (6, "check_theorem6"),
}

_LADDER = (0.9, 0.99, 0.999)

# The t5 and t6 suites and certificates evaluate each sharp witness this far
# beyond its radius, where it must exceed one.
_BEYOND_STEP = 1e-3

# Largest degree of t1's random outer and of t2's even lift base; the
# suites need an order that holds t1's outer and t2's outer z*q(z^2).
_T1_OUTER_DEGREE = 8
_T2_BASE_DEGREE = 3

# Suites build and evaluate max(1, _COEFF_BUDGET // (order + 1)) witnesses
# per block (252 at order 64, 63 at order 256), which keeps memory flat in
# the trial count and the order.  Stacked construction pays one numpy call
# per convolution output for the whole block, so t5 and t6 blocks are cut
# by this budget alone and may span parameter groups.
_COEFF_BUDGET = 2 ** 14

def _sine_fractions(n: int) -> tuple:
    """n fractions in (0, 1], sine-spaced so points cluster near 1, ending at 1."""
    xs = np.sin(np.pi * np.arange(1, n + 1) / (2.0 * n))
    xs[-1] = 1.0
    return tuple(float(x) for x in xs)


def radius_grid(r_max: float, n: int) -> tuple:
    """n radii in (0, r_max], sine-spaced so points cluster at the endpoint,
    with the endpoint included exactly."""
    if integer("n", n) < 1 or not 0.0 < r_max < 1.0:
        raise ValueError("need n >= 1 and r_max in (0, 1)")
    return tuple(r_max * x for x in _sine_fractions(n))


@dataclass
class VerificationReport:
    """Outcome of one suite run; reproducible from (suite, seed, trials, r_grid)."""

    suite: str
    trials: int
    seed: int
    r_grid: tuple
    max_residual: float
    worst_witness: dict
    verdict: str
    informational: bool = False
    tolerance: float = TOLERANCE
    beyond_radius: dict | None = None

    def as_dict(self) -> dict:
        return asdict(self)


class _Tracker:
    """Keeps the largest residual and the item that produced it, and forms
    that item's record only for the report.

    An update hands in a 1-D residual array and the functions that name its
    entries: item(j), the item of entry j, formed once per update for the
    entry kept, and record(item), its witness dict, which the report forms.
    The entry kept is the first non-finite one, which is refused with its
    witness named, or else the first largest; of equal residuals across
    updates the first is kept."""

    def __init__(self):
        self.max_residual = float("-inf")
        self.worst = ({}, dict)  # (item, record)

    def update(self, residuals: np.ndarray, item, record):
        if not len(residuals):
            return
        bad = np.flatnonzero(~np.isfinite(residuals))
        j = int(bad[0]) if len(bad) else int(np.argmax(residuals))
        kept = item(j)
        if len(bad):
            raise ValueError(f"non-finite residual {float(residuals[j])} at {record(kept)}")
        if residuals[j] > self.max_residual:
            self.max_residual = float(residuals[j])
            self.worst = (kept, record)

    def report(self, suite, trials, seed, r_grid, tolerance=TOLERANCE, informational=False, beyond=None):
        verdict = "pass" if self.max_residual <= tolerance else "fail"
        item, record = self.worst
        return VerificationReport(
            suite=suite,
            trials=trials,
            seed=seed,
            r_grid=tuple(r_grid),
            max_residual=self.max_residual,
            worst_witness=record(item),
            verdict=verdict,
            informational=informational,
            tolerance=tolerance,
            beyond_radius=beyond,
        )


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _spec_dict(columns) -> dict:
    """The record of one-row spec columns (zeros, counts, rotations)."""
    zeros, counts, rotations = columns
    return {"zeros": [_pair(z) for z in zeros[0, : counts[0]].tolist()], "rotation": _pair(rotations[0])}


def _poly_dict(coeffs: np.ndarray, degrees: np.ndarray) -> list:
    """The record of a one-row coefficient column up to its degree."""
    return [_pair(c) for c in coeffs[0, : degrees[0] + 1].tolist()]


def _suite_arguments(trials, seed, order) -> tuple:
    """(trials, seed, order) of a suite call as ints (series.integer), with
    trials >= 1 and order >= 2, the CLI's floor, checked: at order 0 every
    tail term is dropped, so no random witness could fail."""
    trials, seed, order = integer("trials", trials), integer("seed", seed), integer("order", order)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if order < 2:
        raise ValueError("order must be >= 2")
    return trials, seed, order


def _trial_params(suite: str, draw, trials: int, seed: int):
    """The chunks draw(streams, keys) of the trial keys (suite id, seed, t)."""
    return _keyed_draws(((SUITES[suite][0], seed, t) for t in range(trials)), draw)


def _groups(suite: str, trials: int, seed: int, radii) -> list:
    """radius_grid(r, 8) and the trial keys (suite id, seed, g, j) of each
    group g with sharp radius radii[g]; the first trials % len(radii) groups
    take one witness more than the others."""
    if not radii:
        raise ValueError("the parameter grid is empty")
    share, extra = divmod(trials, len(radii))
    return [
        (radius_grid(r, 8), [(SUITES[suite][0], seed, g, j) for j in range(share + (g < extra))])
        for g, r in enumerate(radii)
    ]


def _columns(fn, columns):
    """fn of each array of a nested tuple of arrays, as a nested tuple of
    the same shape."""
    return tuple(_columns(fn, c) for c in columns) if isinstance(columns, tuple) else fn(columns)


def _block_rows(order: int) -> int:
    """The rows of a block at truncation order ``order``."""
    return max(1, _COEFF_BUDGET // (order + 1))


def _run_suite(chunks, residuals, record, order: int) -> _Tracker:
    """A _Tracker updated once per block of rows of the column ``chunks``
    (nested tuples of arrays, the first 1-D): residuals(block, order)
    builds the block's witnesses and returns (residual column, dict of
    columns locating each), and the update takes that column, naming row j
    by its one-row block, the block's columns sliced to j:j+1, and the row's
    location ``where``, and recording it as {**record(row), **where}.  A
    block holds _block_rows(order) rows of a chunk, and each is evaluated
    once, at ``order``."""
    tracker = _Tracker()
    rows = _block_rows(order)

    def located(entry):
        row, where = entry
        return {**record(row), **where}

    for block in (_columns(lambda a: a[i : i + rows], c) for c in chunks for i in range(0, len(c[0]), rows)):
        res, where = residuals(block, order)
        tracker.update(res, lambda j: (_columns(lambda a: a[j : j + 1], block), _row(where, j)), located)
    return tracker


def _update_at(tracker: _Tracker, table: np.ndarray, mask: np.ndarray, record):
    """One update of ``tracker`` with the entries of a closed-form table
    marked in ``mask``, in row-major order, entry (i, c) recorded as
    record(i, c)."""
    rows, cols = np.nonzero(mask)
    tracker.update(table[rows, cols], lambda j: (int(rows[j]), int(cols[j])), lambda at: record(*at))


def _row(where: dict, j: int) -> dict:
    """Entry j of each column of ``where``, as a Python number."""
    return {name: column[j].item() for name, column in where.items()}


def _row_max(table: np.ndarray, points) -> tuple:
    """(residuals, {"r": radii}): the largest entry of each row of ``table``
    and the point of its column, the columns belonging to ``points``, one
    grid for every row or one per row.  np.argmax keeps the first of equal
    entries, and the first nan, as the tracker's strict comparison does."""
    rows = np.arange(len(table))
    cols = np.argmax(table, axis=1)
    points = np.broadcast_to(np.asarray(points, dtype=np.float64), table.shape)
    return table[rows, cols], {"r": points[rows, cols]}


def _pointwise_draws(groups, a_values, specs: int):
    """The draws of each group in turn as column chunks (group, trial, phase,
    a0, ``specs`` spec columns): each stream gives the phase, then the specs."""

    def draw(streams, keys):
        phases = (2.0 * np.pi) * streams.random(1)[:, 0]
        drawn = [draw_specs(streams) for _ in range(specs)]
        group = np.array([key[2] for key in keys])
        a0s = np.asarray(a_values)[group] * np.exp(1j * phases)
        return group, np.array([key[3] for key in keys]), phases, a0s, *drawn

    return _keyed_draws((key for _, keys in groups for key in keys), draw)


def _automorphisms(a0s, specs, order: int, kind: str) -> tuple:
    """(rows, num, den) of the disk automorphism of ``kind``
    (series.MobiusTag) at each a0 of ``a0s`` composed with the inner z*B(z)
    = zP/Q of its row of the spec columns ``specs``, once checked: the rational
    function num / den, (a0 Q - zP) / (Q - conj(a0) zP) ("minus") or
    (zP + a0 Q) / (Q + conj(a0) zP) ("plus"), of degree at most 5, and its
    Taylor rows 0..order (rational_rows).  The denominator has no zero in
    the closed disk while |a0| (1 + 1e-15) < 1: there |zB| <= 1 + 1e-15."""
    a0s = _automorphism_parameters(a0s)
    zp, q = _schwarz_polynomials(*_checked_columns(*specs))
    sign = 1.0 if kind == "plus" else -1.0
    num = a0s[:, None] * q + sign * zp
    den = q + sign * np.conj(a0s)[:, None] * zp
    return finite_rows(rational_rows(num, den, order)), num, den


def _sharp_radius(theorem: str, a: float, k: float = 0.0) -> float:
    """The sharp radius of t5, or of t6 with dilatation bound k, at a in
    [0, 1) where it binds (RadiusResult.cap_binds); other a are refused."""
    unit_interval("a", a)
    result = theorem5_radius(a) if theorem == "t5" else theorem6_radius(a, k)
    if not result.cap_binds:
        where = f"a={a}" if theorem == "t5" else f"(a={a}, k={k})"
        raise ValueError(f"{where} is inadmissible: below the admissibility threshold {result.threshold_a:.7f}")
    return result.value


def _group_worst(block, grids: np.ndarray, lhs_rows, *stacks) -> tuple:
    """_row_max of lhs_rows(*stacks, rs) - 1 of a block of draws, row i of rs
    being the radius grid of draw i's group: a block may span groups."""
    rs = grids[block[0]]
    return _row_max(lhs_rows(*stacks, rs) - 1.0, rs)


# ----------------------------------------------------------------------
# Suite 1: quasi-multiplied composition never beats its outer function's
# majorant for r <= 1/3.


def _t1_draws(streams, keys) -> tuple:
    """The t1 trials keyed by ``keys`` as columns (trial, g, degree, phi,
    omega): each stream gives g, then phi, then omega."""
    g, degrees = draw_polynomials(streams, _T1_OUTER_DEGREE)
    return np.array([key[-1] for key in keys]), g, degrees, draw_specs(streams), draw_specs(streams)


def _t1_record(row) -> dict:
    """The record of a one-row block of t1 trials; the trial index gives
    its variant."""
    trial, g, degrees, phi, omega = row
    t = trial[0].item()
    return {
        "trial": t,
        "variant": ("general", "subordination", "majorization")[t % 3],
        "g": _poly_dict(g, degrees),
        "phi": _spec_dict(phi),
        "omega": _spec_dict(omega),
    }


def _t1_witness(block, order: int) -> tuple:
    """(f rows, g rows) of a block of t1 trials: the composition
    f = phi * g(omega) and the coefficients 0..8 of its outer g.  A
    subordination trial's phi is masked to the constant one and a
    majorization trial's omega to z (_zero_free); its record keeps the
    drawn specs.  A majorant sum over g's 9 columns has the bits of one
    over its order-N series: Horner keeps +0.0 through zero tops."""
    trial, g, degrees, phi, omega = block
    phi = bounded_rows(_zero_free(phi, trial % 3 == 1), order)
    omega = schwarz_rows(_zero_free(omega, trial % 3 == 2), order)
    return quasi_rows(g, degrees, phi, omega), g


def check_theorem1(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Majorant domination for random multiplier/inner/outer triples.

    Trials cycle through the general case and the two degenerate regimes
    (multiplier identically one; inner equal to z), all on a 12-point grid
    of (0, 1/3].
    """
    trials, seed, order = _suite_arguments(trials, seed, order)
    if order < _T1_OUTER_DEGREE:
        raise ValueError(f"t1 needs order >= {_T1_OUTER_DEGREE}, the degree of its random outers")
    draws = _trial_params("t1", _t1_draws, trials, seed)
    grid = radius_grid(CLASSICAL_CAP, 12)

    def residuals(block, n):
        return _row_max(theorem1_rows(*_t1_witness(block, n), grid), grid)

    tracker = _run_suite(draws, residuals, _t1_record, order)
    return tracker.report("t1", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 2: odd composition pairs, including partial-sum domination.


def _t2_draws(streams, keys) -> tuple:
    """The t2 trials keyed by ``keys`` as columns (trial, q, degree, omega):
    each stream gives q, then omega's spec."""
    q, degrees = draw_polynomials(streams, _T2_BASE_DEGREE)
    return np.array([key[-1] for key in keys]), q, degrees, draw_specs(streams)


def _t2_record(row) -> dict:
    """The record of a one-row block of t2 trials; the trial index tells
    whether the inner is z."""
    trial, q, degrees, omega = row
    t = trial[0].item()
    return {
        "trial": t,
        "q": _poly_dict(q, degrees),
        "omega": _spec_dict(omega),
        "identity_inner": t % 5 == 0,
    }


def _t2_rows(block, order: int) -> tuple:
    """(f rows, g rows) of a block of t2 trials: the outers g = z*q(z^2) and
    the inners z*B(z^2), z for an identity-inner trial (_zero_free), are
    built as rows, and each odd composition f = g(omega) through compose."""
    trial, q, degrees, omega = block
    g = odd_rows(q, order)
    omega = schwarz_rows(_zero_free(omega, trial % 5 == 0), order, odd=True)
    f = [
        compose(TruncatedSeries(outer, exact_degree=2 * d + 1), TruncatedSeries(inner)).coeffs
        for d, outer, inner in zip(degrees.tolist(), g, omega)
    ]
    return np.stack(f), g


def _t2_residual(f: np.ndarray, g: np.ndarray, grid) -> tuple:
    """(residuals, where) of (rows, N+1) stacks of odd pairs f and g: per
    row, the largest excess of a partial majorant sum of f over g's on the
    grid, or f's even-coefficient leak when that is larger, located by the
    columns "r", "partial_sum_length" and "even_leak".  The first of equal
    excesses in (radius, length) order is kept; the table is formed one
    radius at a time to keep a block's memory small."""
    leak = np.max(np.abs(f[:, 0::2]), axis=1)
    lengths, tops = [], []
    for r in grid:
        gaps = theorem2_rows(f, g, r)
        lengths.append(np.argmax(gaps, axis=1))
        tops.append(np.max(gaps, axis=1))
    tops, lengths = np.stack(tops, axis=1), np.stack(lengths, axis=1)
    i, rows = np.argmax(tops, axis=1), np.arange(len(f))
    worst = tops[rows, i]
    where = {"r": np.asarray(grid)[i], "partial_sum_length": lengths[rows, i] + 1, "even_leak": leak}
    return np.where(leak > worst, leak, worst), where  # max(worst, leak), the first of equals


def check_theorem2_odd(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Odd-pair domination on (0, 1/sqrt(3)] for every partial-sum length.

    The outer is z times a random even lift, the inner z*B(z^2); both are
    odd by construction, and any even-coefficient leak of the composition
    is folded into the residual.
    """
    trials, seed, order = _suite_arguments(trials, seed, order)
    if order < 2 * _T2_BASE_DEGREE + 1:
        raise ValueError(f"t2 needs order >= {2 * _T2_BASE_DEGREE + 1}, the degree of its outers z*q(z^2)")
    draws = _trial_params("t2", _t2_draws, trials, seed)
    grid = radius_grid(ODD_CAP, 12)
    tracker = _run_suite(draws, lambda block, n: _t2_residual(*_t2_rows(block, n), grid), _t2_record, order)
    return tracker.report("t2", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 3: harmonic pairs with dilatation bound k.


def _t3_draws(streams, keys) -> tuple:
    """The t3 trials keyed by ``keys`` as columns (trial, h, omega_tilde,
    a_extremal): each stream gives h's spec (at least one zero),
    omega_tilde's, then a_extremal uniform on [0, 0.95)."""
    hs = draw_specs(streams, min_zeros=1)
    omega_tildes = draw_specs(streams)
    return np.array([key[-1] for key in keys]), hs, omega_tildes, 0.95 * streams.random(1)[:, 0]


def _by_k(chunks, k_grid, rows: int):
    """The t3 columns of each chunk of trials with a row per (trial, k),
    trial by trial, and the column of the rows' k last, formed ``rows``
    rows at a time (a block), so a long k grid does not multiply the rows
    held at once."""
    ks = np.array(k_grid)
    for chunk in chunks:
        for start in range(0, len(chunk[0]) * len(ks), rows):
            index = np.arange(start, min(start + rows, len(chunk[0]) * len(ks)))
            yield (*_columns(lambda a: a[index // len(ks)], chunk), ks[index % len(ks)])


def _t3_record(row) -> dict:
    """The record of a one-row block of t3 rows (_by_k): a trial with one k."""
    trial, h, omega_tilde, a_extremal, k = row
    return {
        "trial": trial[0].item(),
        "h": _spec_dict(h),
        "omega_tilde": _spec_dict(omega_tilde),
        "a_extremal": a_extremal[0].item(),
        "k": k[0].item(),
    }


def _t3_witness(block, order: int) -> tuple:
    """(h rows, row of h per item, g rows, |h(0)|, k, a_extremal) of a block
    of t3 rows (_by_k), one per item (trial, k).  Each trial's h and
    omega_tilde are expanded, and omega_tilde * h' convolved, once per
    block for all its k values; g is the co-analytic part of the random
    pair of each item."""
    trial, hs, omega_tildes, a_extremal, ks = block
    starts = np.diff(trial, prepend=-1) != 0
    first, index = np.flatnonzero(starts), np.cumsum(starts) - 1
    expanded = bounded_rows(tuple(np.concatenate((a[first], b[first])) for a, b in zip(hs, omega_tildes)), order)
    h = finite_rows(expanded[: len(first)].copy())
    g = harmonic_rows(h, ks, expanded[len(first) :], index)
    del expanded
    # np.hypot rounds as abs() of a Python complex does; np.abs may not
    a0_mods = np.hypot(h[index, 0].real, h[index, 0].imag)
    return h, index, g, a0_mods, ks, a_extremal


def _t3_residuals(witnesses, grid) -> np.ndarray:
    """theorem3_lhs - 1 of the random pairs on the grid, then |theorem3_lhs - 1|
    of the sharp pairs (extremal_theorem3(a_extremal, k)) on the same grid."""
    h, index, g, a0_mods, ks, a_extremal = witnesses
    random = theorem3_rows(h, index, g, a0_mods, ks, grid) - 1.0
    sharp = np.abs(sharp_lhs("t3", a_extremal[:, None], grid, ks[:, None]) - 1.0)
    return np.hstack([random, sharp])


def check_theorem3(
    trials: int = 500,
    seed: int = DEFAULT_SEED,
    k_grid=(0.0, 0.5, 1.0),
    order: int = DEFAULT_ORDER,
) -> VerificationReport:
    """Harmonic exact-form bound for random bounded parts and derived tails.

    Each trial draws one bounded analytic part and one dilatation witness
    and checks every k in k_grid; the sharp family (co-analytic scale equal
    to k) must sit at one to within tolerance on the same grid.
    """
    trials, seed, order = _suite_arguments(trials, seed, order)
    draws = _trial_params("t3", _t3_draws, trials, seed)
    k_grid = tuple(float(k) for k in k_grid)
    if not k_grid:
        raise ValueError("k_grid must not be empty")
    unit_interval("k_grid values", k_grid, closed=True)
    grid = radius_grid(CLASSICAL_CAP, 12)

    def residuals(block, n):
        return _row_max(_t3_residuals(_t3_witness(block, n), grid), grid + grid)

    tracker = _run_suite(_by_k(draws, k_grid, _block_rows(order)), residuals, _t3_record, order)
    return tracker.report("t3", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 5: pointwise value plus tail for bounded analytic functions.


def _t5_witness(block, order: int) -> tuple:
    """(f rows, num, den) of a block of draws: the sharp witness at each
    draw's a0 composed with the Schwarz function of its spec, with its
    rational form num / den."""
    _, _, _, a0s, specs = block
    return _automorphisms(a0s, specs, order, "minus")


def check_theorem5(
    a_grid=None,
    trials: int = 400,
    seed: int = DEFAULT_SEED,
    order: int = DEFAULT_ORDER,
) -> VerificationReport:
    """Pointwise-plus-tail bound at and below the sharp radius.

    ``trials`` is the exact number of random witnesses, split over the
    a-grid as evenly as it goes (the first ``trials % len(a_grid)`` values
    of a take one more); the a-grid must not be empty, and every a must sit
    at or above the admissibility threshold.  A value of a left without
    random witnesses still runs its sharp-witness and beyond-radius checks.
    The sharp witness is evaluated on the same grid, the universal-radius
    sweep runs over a 100-point grid of [0, 1), and the expected violation
    just beyond the radius is recorded as informational beyond-radius data.
    """
    trials, seed, order = _suite_arguments(trials, seed, order)
    if a_grid is None:
        a_grid = (ANALYTIC_THRESHOLD_A, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95)
    a_grid = tuple(float(a) for a in a_grid)
    groups = _groups("t5", trials, seed, [_sharp_radius("t5", a) for a in a_grid])
    grids = np.array([rs for rs, _ in groups])
    tracker = _run_suite(
        _pointwise_draws(groups, a_grid, 1),
        lambda block, n: _group_worst(block, grids, theorem5_rows, *_t5_witness(block, n)),
        lambda row: {"a": a_grid[row[0][0]], "trial": row[1][0].item(), "phase": row[2][0].item(), "omega": _spec_dict(row[4])},
        order,
    )
    # the sharp witness on each group's grid and _BEYOND_STEP past its
    # radius, where only a left-hand side at or below one is a failure
    rs = np.hstack([grids, grids[:, -1:] + _BEYOND_STEP])
    lhs = sharp_lhs("t5", np.array(a_grid)[:, None], rs)
    beyond = lhs[:, -1] <= 1.0
    residuals = np.hstack([lhs[:, :-1] - 1.0, np.ones_like(lhs[:, -1:])])

    def closed_form(g, c):
        if c < grids.shape[1]:
            return {"a": a_grid[g], "r": float(rs[g, c]), "witness": "extremal"}
        return {"a": a_grid[g], "witness": "extremal-beyond", "lhs": float(lhs[g, c])}

    _update_at(tracker, residuals, np.hstack([np.ones(grids.shape, dtype=bool), beyond[:, None]]), closed_form)
    a_sweep = np.linspace(0.0, 0.99, 100)
    tracker.update(
        sharp_lhs("t5", a_sweep, UNIVERSAL_RADIUS) - 1.0,
        lambda j: j,
        lambda j: {"a": float(a_sweep[j]), "r": UNIVERSAL_RADIUS, "witness": "universal-sweep"},
    )
    points = [{"a": a, "r": r, "lhs": v} for a, r, v in zip(a_grid, rs[:, -1].tolist(), lhs[:, -1].tolist())]
    return tracker.report(
        "t5",
        trials,
        seed,
        _sine_fractions(8),
        informational=True,
        beyond={"kind": "sharp-witness just beyond its radius", "points": points},
    )


# ----------------------------------------------------------------------
# Suite 6: harmonic pointwise value plus tails.


def _t6_witness(block, order: int, ks) -> tuple:
    """(h rows, num, den, g rows) of a block of draws with dilatation bounds
    ks: h is the disk automorphism at the draw's a0 composed with the
    Schwarz function of its first spec, num / den its rational form, and g
    the co-analytic part built with the bounded function of its second."""
    _, _, _, a0s, specs, tilde_specs = block
    h, num, den = _automorphisms(a0s, specs, order, "plus")
    return h, num, den, harmonic_rows(h, ks, bounded_rows(tilde_specs, order))


def check_theorem6(
    a_grid=None,
    k_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    trials: int = 400,
    seed: int = DEFAULT_SEED,
    order: int = DEFAULT_ORDER,
) -> VerificationReport:
    """Harmonic pointwise-plus-tails bound at and below the sharp radius.

    Parameter pairs take each k with four a-values spanning [alpha_k, 0.95]
    unless an explicit a-grid is supplied (then every (a, k) pair must be
    admissible), and there must be at least one pair.  At the radius, the
    sharp family is approached through co-analytic scales 0.9k, 0.99k,
    0.999k (monotone from below) and its exact-scale closed form must attain
    one to within 1e-8; the expected violation just beyond the radius is
    recorded.  ``trials`` is the exact number of random witnesses, split over
    the (a, k) pairs as evenly as it goes (the first ``trials % len(pairs)``
    pairs take one more); a pair left without random witnesses still runs
    its ladder, attainment and beyond-radius checks.
    """
    trials, seed, order = _suite_arguments(trials, seed, order)
    k_grid = tuple(float(k) for k in k_grid)
    pairs = []
    for k in k_grid:
        alpha = theorem6_threshold(k)
        if a_grid is None:
            a_values = tuple(alpha + (0.95 - alpha) * j / 3.0 for j in range(4))
        else:
            a_values = tuple(float(a) for a in a_grid)
        pairs.extend((a, k) for a in a_values)
    groups = _groups("t6", trials, seed, [_sharp_radius("t6", a, k) for a, k in pairs])
    grids, ks = np.array([rs for rs, _ in groups]), np.array([k for _, k in pairs])
    tracker = _run_suite(
        _pointwise_draws(groups, [a for a, _ in pairs], 2),
        lambda block, n: _group_worst(block, grids, theorem6_rows, *_t6_witness(block, n, ks[block[0]])),
        lambda row: {"a": pairs[row[0][0]][0], "k": pairs[row[0][0]][1], "trial": row[1][0].item(), "phase": row[2][0].item()},
        order,
    )
    # per pair: the ladder scales and the exact scale k at the radius and
    # k _BEYOND_STEP past it; only the failing checks reach the tracker
    a_col, k_col = np.array(pairs).T[:, :, None]
    rs = np.hstack([np.repeat(grids[:, -1:], 4, axis=1), grids[:, -1:] + _BEYOND_STEP])
    lhs = sharp_lhs("t6", a_col, rs, np.hstack([np.array(_LADDER) * k_col, k_col, k_col]))
    ladder, ones, deviation = lhs[:, :4], np.ones(len(pairs)), np.abs(lhs[:, 3] - 1.0)
    fails = [(ladder[:, :-1] > ladder[:, 1:] + 1e-12).any(axis=1), ladder[:, 2] > 1.0 + 1e-12, deviation > CERT_TOLERANCE]
    checks = ("ladder-monotonicity", "ladder-above-one", "sharp-family-attainment", "extremal-beyond")

    def closed_form(i, c):
        beyond = {"lhs": float(lhs[i, 4])} if c == 3 else {}
        return {"a": pairs[i][0], "k": pairs[i][1], "witness": checks[c], **beyond}

    _update_at(tracker, np.stack([ones, ones, deviation, ones], 1), np.stack([*fails, lhs[:, 4] <= 1.0], 1), closed_form)
    points = [{"a": a, "k": k, "r": r, "lhs": v} for (a, k), r, v in zip(pairs, rs[:, 4].tolist(), lhs[:, 4].tolist())]
    return tracker.report(
        "t6",
        trials,
        seed,
        _sine_fractions(8),
        informational=True,
        beyond={"kind": "sharp-family just beyond its radius", "points": points},
    )


# ----------------------------------------------------------------------
# Sharpness certificates.


def sharpness_certificate(theorem: str, params: dict) -> VerificationReport:
    """Certify a sharpness claim with the named extremal witness.

    Radius-type claims (``t5``, ``t6``) require the closed-form left-hand
    side to attain one at the radius (within 1e-8) and to exceed one at
    radius + 1e-3.  Equality-type claims (``cor2``, ``t3``) require the
    extremal to sit at one across the whole claimed r-interval.  The
    odd-function radius (``odd``) has no generated extremal witness here
    and is refused.  ``params`` gives a, and k for ``t3`` and ``t6``; a
    missing key, or one the target does not read, is refused (a key whose
    value is None counts as absent).
    """
    if theorem == "odd":
        raise ValueError(
            "no extremal witness is generated for the odd-function radius; "
            "its sharpness is not certified by this laboratory"
        )
    if theorem not in ("cor2", "t3", "t5", "t6"):
        raise ValueError(f"unknown certificate target {theorem!r}")
    read = SHARP_PARAMETERS[theorem]
    refuse_unread(f"sharpness_certificate {theorem}", params, read)
    missing = [key for key in read if params.get(key) is None]
    if missing:
        raise ValueError(f"sharpness_certificate {theorem} requires {' and '.join(missing)}")
    worst = {key: float(params[key]) for key in read}
    a, k = worst["a"], worst.get("k", 0.0)

    beyond = None
    if theorem in ("cor2", "t3"):
        grid = radius_grid(CLASSICAL_CAP, 25)
        residual = float(np.max(np.abs(sharp_lhs(theorem, a, grid, k) - 1.0)))
        worst["kind"] = "equality-on-interval"
    else:
        radius = _sharp_radius(theorem, a, k)
        grid = (radius,)
        r_beyond = radius + _BEYOND_STEP
        attained, lhs_beyond = (float(x) for x in sharp_lhs(theorem, a, [radius, r_beyond], k))
        residual = abs(attained - 1.0)
        if lhs_beyond <= 1.0:
            residual = max(residual, 1.0 + (1.0 - lhs_beyond))
        beyond = {"r": r_beyond, "lhs": lhs_beyond}
        worst.update(radius=float(radius), attained=attained, kind="radius")

    tracker = _Tracker()
    tracker.update(np.array([residual]), lambda j: worst, dict)
    return tracker.report(
        f"sharpness_{theorem}", 1, 0, grid, tolerance=CERT_TOLERANCE, beyond=beyond
    )
