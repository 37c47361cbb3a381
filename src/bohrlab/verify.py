"""Seeded property-verification suites, sharpness certificates and scans.

Every suite draws its witnesses from per-trial PCG64 streams seeded with
(suite id, seed, trial ...), so reports are reproducible bit for bit and a
longer run extends a shorter one without disturbing earlier trials.  Any
trial whose residual exceeds the tolerance is re-evaluated once at doubled
truncation order before being reported, so a truncation artifact does not
fail a suite.

Every stream is the one np.random.default_rng(key) gives, but the
generators of a chunk of trials are seeded together: numpy's SeedSequence
hash of each key (every field as little-endian 32-bit words, 0 as one
word; the entropy mix into a pool of four words; generate_state(4,
np.uint64)) is formed with uint32 arrays for the whole chunk, and each
trial's PCG64 starts from its four words.  A chunk with a key that is not
a tuple of non-negative ints, a negative seed say, is seeded by
default_rng itself, which refuses such a key with its own error.

Residuals are "most positive value of LHS - RHS observed"; a suite passes
when the maximum stays at or below the tolerance.  Left-hand sides are
either exact (closed forms, polynomial outers) or truncated lower bounds of
the true sums.  A truncated left-hand side can hide a violation that lives
in the dropped tail, and the doubled-order retry guards only against false
failures, so a pass is not a certificate for the untruncated functions.

Each suite draws its trials a chunk at a time and column by column: the
polynomial coefficients, Blaschke zeros and rotations of a chunk are formed
as arrays from one run of doubles per trial and spec, with the bits and the
generator calls of per-object draws.  All five suites, listed once in
SUITES, share one driver, _run_suite, to which each hands one function
that builds the witnesses of a block as stacked (rows, N+1) arrays,
through the row kernels of series and witnesses, one per construction
rule, whose one-row calls are the per-series functions, and returns their
residuals.
The driver fills the report's tracker with every random witness in trial
order.  t5 and t6 then add each group's closed-form checks to that tracker
in group order, and t5 its universal-radius sweep last; the tracker keeps
the first of equal maxima.  Subordination, majorization and the identity
inner are the Blaschke product with no zeros: t1 and t2 expand the
zero-free spec _ZERO_FREE in place of such a trial's drawn phi or omega.
t2 builds its outers and inners as rows and only composes each witness on
its own, through series.compose, the one-row call of compose_rows' kernel,
whose calls perfbench's traced run counts.  A t5 or t6 witness, a disk
automorphism of z*B(z), is a rational function of degree at most 5, which
_automorphisms expands by its denominator's recurrence
(series.rational_rows) rather than composing, and whose numerator and
denominator it hands on, so that |h| is the untruncated witness's value.
Every left-hand side comes from bohrlab.functionals: its theorem*_rows
functions evaluate a block in one pass, the majorant sums with the bits
of per-witness, per-radius evaluation, each t5 or t6 row on its own
group's radius grid, and sharp_lhs sums the sharp witnesses of t3, t5,
t6 and the certificates in closed form without building a series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

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
    _schwarz_polynomials,
    _spec_columns,
    compose,
    finite_rows,
    rational_rows,
    refuse_unread,
    unit_interval,
)
from .witnesses import (
    DrawnSpec,
    _boundary_tripwire,
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

# The Blaschke spec without zeros, of rotation one: its bounded function is
# the constant one and its inner z*B(z), like z*B(z^2), the identity.  t1's
# subordination and majorization trials and t2's identity-inner trials
# expand it in place of the drawn phi or omega.
_ZERO_FREE = DrawnSpec(np.empty(0, dtype=np.complex128), 1 + 0j)

# Trials are drawn this many at a time; a trial's draws do not depend on
# the chunk it falls in, so the count bounds only the draws held at once.
_DRAW_ROWS = 256

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its pool
# of four 32-bit words, the entropy and state hashes and the pool mix.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _sine_fractions(n: int) -> tuple:
    """n fractions in (0, 1], sine-spaced so points cluster near 1, ending at 1."""
    xs = np.sin(np.pi * np.arange(1, n + 1) / (2.0 * n))
    xs[-1] = 1.0
    return tuple(float(x) for x in xs)


def radius_grid(r_max: float, n: int) -> tuple:
    """n radii in (0, r_max], sine-spaced so points cluster at the endpoint,
    with the endpoint included exactly."""
    if n < 1 or not 0.0 < r_max < 1.0:
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
    """Keeps the largest residual and the witness that produced it."""

    def __init__(self):
        self.max_residual = float("-inf")
        self.worst = {}

    def update(self, residual: float, witness: dict):
        if not math.isfinite(residual):
            raise ValueError(f"non-finite residual {residual} at {witness}")
        if residual > self.max_residual:
            self.max_residual = float(residual)
            self.worst = witness

    def report(self, suite, trials, seed, r_grid, tolerance=TOLERANCE, informational=False, beyond=None):
        verdict = "pass" if self.max_residual <= tolerance else "fail"
        return VerificationReport(
            suite=suite,
            trials=trials,
            seed=seed,
            r_grid=tuple(r_grid),
            max_residual=self.max_residual,
            worst_witness=self.worst,
            verdict=verdict,
            informational=informational,
            tolerance=tolerance,
            beyond_radius=beyond,
        )


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _spec_dict(spec: DrawnSpec) -> dict:
    return {"zeros": [_pair(z) for z in spec.zeros.tolist()], "rotation": _pair(spec.rotation)}


def _poly_dict(coeffs: np.ndarray, degree: int) -> list:
    return [_pair(c) for c in coeffs[: degree + 1].tolist()]


class _SeedWords:
    """The seed of one PCG64: the four 64-bit words that SeedSequence(key)
    generates for it, hashed with the rest of its chunk by _seed_states.
    _generators registers the class as a
    numpy.random.bit_generator.ISeedSequence, the interface PCG64 reads."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a PCG64 seed holds four uint64 words only")
        return self.words


def _entropy_words(key):
    """The 32-bit words SeedSequence assembles from a tuple of non-negative
    Python ints, each field little-endian and 0 as one word; None for any
    other key."""
    if type(key) is not tuple:
        return None
    words = []
    for n in key:
        if type(n) is not int or n < 0:
            return None
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


def _seed_states(entropy) -> np.ndarray:
    """(rows, 4) uint64 words, row i being
    SeedSequence(key).generate_state(4, np.uint64) for the entropy words
    entropy[i] of a key, hashed for all rows at once with numpy's uint32
    arithmetic, which wraps as SeedSequence's does."""
    lengths = np.array([len(words) for words in entropy], dtype=np.intp)
    table = np.zeros((lengths.size, max(_POOL_SIZE, int(lengths.max()))), dtype=np.uint32)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(entropy), dtype=np.uint32, count=int(lengths.sum())
    )
    const = _INIT_A  # advanced by every hashmix, the same for every row

    def hashmix(values):
        nonlocal const
        values = values ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        values = values * np.uint32(const)
        return values ^ (values >> 16)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> 16)

    # a key of fewer words than the pool hashes zeros in their place
    pool = [hashmix(table[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, table.shape[1]):
        longer = lengths > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(longer, mix(pool[dst], hashmix(table[:, src])), pool[dst])
    const = _INIT_B
    state = np.empty((lengths.size, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> 16)
    # word 2j is the low half of 64-bit word j, as in numpy's little-endian view
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


def _generators(chunk) -> list:
    """np.random.default_rng(key) for each key of a chunk, bit for bit, with
    the SeedSequence hash of all keys formed at once.  A chunk holding a key
    that is not a tuple of non-negative Python ints goes to default_rng
    itself, which reads it or refuses it as it always has."""
    entropy = [_entropy_words(key) for key in chunk]
    if None in entropy:
        return [np.random.default_rng(key) for key in chunk]
    # registered here, not at import, since numpy loads numpy.random on
    # first use; registering again is a no-op
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return [np.random.Generator(np.random.PCG64(_SeedWords(words))) for words in _seed_states(entropy)]


def _keyed_draws(keys, draw):
    """The items of draw(rngs, chunk) over consecutive chunks of ``keys``, in
    order, where rngs[i] is the PCG64 stream keyed by chunk[i], as
    np.random.default_rng(chunk[i]) seeds it."""
    keys = iter(keys)
    while chunk := list(itertools.islice(keys, _DRAW_ROWS)):
        yield from draw(_generators(chunk), chunk)


def _trial_params(suite: str, draw, trials: int, seed: int):
    """The items of draw(rngs, keys) over the trial keys (suite id, seed, t)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _keyed_draws(((SUITES[suite][0], seed, t) for t in range(trials)), draw)


def _groups(suite: str, trials: int, seed: int, radii) -> list:
    """radius_grid(r, 8) and the trial keys (suite id, seed, g, j) of each
    group g with sharp radius radii[g]; the first trials % len(radii) groups
    take one witness more than the others."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not radii:
        raise ValueError("the parameter grid is empty")
    share, extra = divmod(trials, len(radii))
    return [
        (radius_grid(r, 8), [(SUITES[suite][0], seed, g, j) for j in range(share + (g < extra))])
        for g, r in enumerate(radii)
    ]


def _run_suite(items, residuals, record, order: int) -> _Tracker:
    """A _Tracker updated with (residual, record) for each item, in item
    order, one block at a time.

    ``residuals(block, order)`` builds the witnesses of a list of items at
    the given truncation order and returns one (residual, where) pair per
    item, ``where`` being a dict that locates the residual (its radius,
    say).  A block holds max(1, _COEFF_BUDGET // (order + 1)) items.  An
    item whose residual exceeds the tolerance is rebuilt and re-evaluated
    at doubled order as a block of one and tagged
    {"reevaluated_order": 2 * order}.  The record is
    ``{**record(item), **where}``.
    """
    tracker = _Tracker()
    rows = max(1, _COEFF_BUDGET // (order + 1))
    items = iter(items)
    while block := list(itertools.islice(items, rows)):
        for item, (res, where) in zip(block, residuals(block, order)):
            if res > TOLERANCE:
                [(res, where)] = residuals([item], 2 * order)
                where = {**where, "reevaluated_order": 2 * order}
            tracker.update(res, {**record(item), **where})
    return tracker


def _row_worst(table: np.ndarray, points) -> list:
    """(residual, {"r": point}) at the largest entry of each row of ``table``,
    whose columns belong to ``points``: one grid for every row, or one per
    row.  np.argmax keeps the first of equal residuals, as the tracker's
    strict comparison does."""
    rows = np.arange(len(table))
    cols = np.argmax(table, axis=1)
    points = np.broadcast_to(np.asarray(points, dtype=np.float64), table.shape)
    return [(res, {"r": r}) for res, r in zip(table[rows, cols].tolist(), points[rows, cols].tolist())]


class _Draw(NamedTuple):
    """One random t5/t6 witness: its group, trial index, phase, rotated
    a0 = a * exp(i * phase) and Blaschke specs."""

    group: int
    trial: int
    phase: float
    a0: complex
    specs: tuple


def _pointwise_draws(groups, a_values, specs: int):
    """The draws of each group in turn: the trial's stream gives the phase
    first, then ``specs`` Blaschke specs."""

    def draw(rngs, keys):
        phases = (2.0 * np.pi) * np.array([rng.random() for rng in rngs])
        drawn = [draw_specs(rngs) for _ in range(specs)]
        a0s = np.array([a_values[key[2]] for key in keys]) * np.exp(1j * phases)
        return [
            _Draw(key[2], key[3], phase, a0, tuple(row))
            for key, phase, a0, *row in zip(keys, phases.tolist(), a0s.tolist(), *drawn)
        ]

    return _keyed_draws((key for _, keys in groups for key in keys), draw)


def _automorphisms(block, order: int, kind: str) -> tuple:
    """(rows, num, den) of the disk automorphism of ``kind``
    (series.MobiusTag) at the a0 of each draw of a block composed with the
    inner function z*B(z) = zP/Q of the draw's first spec, after the spec
    checks and the boundary tripwire schwarz_rows makes.  The composition
    is the rational function num / den, (a0 Q - zP) / (Q - conj(a0) zP)
    ("minus") or (zP + a0 Q) / (Q + conj(a0) zP) ("plus"), of degree at
    most 5; rows are its Taylor coefficients 0..order, expanded by
    rational_rows.  The denominator has no zero in the closed disk, where
    |zB| <= 1 < 1 / |a0|."""
    a0s = _automorphism_parameters([draw.a0 for draw in block])
    columns = _spec_columns([draw.specs[0] for draw in block])
    _boundary_tripwire(*columns, inner=True)
    zp, q = _schwarz_polynomials(*columns)
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


def _probe_beyond(tracker: _Tracker, theorem: str, where: dict, radius: float) -> dict:
    """The beyond-radius point of the sharp witness of t5 or t6 at ``where``
    (its a, and k for t6): the left-hand side _BEYOND_STEP past ``radius``,
    which must exceed one.  The tracker takes 1.0 where it does not."""
    r = radius + _BEYOND_STEP
    lhs = float(sharp_lhs(theorem, where["a"], r, where.get("k", 0.0)))
    if lhs <= 1.0:
        tracker.update(1.0, {**where, "witness": "extremal-beyond", "lhs": lhs})
    return {**where, "r": r, "lhs": lhs}


def _group_worst(block, grids: np.ndarray, lhs_rows, *stacks) -> list:
    """(residual, where) of each draw of a block, the residual being the
    left-hand side lhs_rows(*stacks, rs) less one, where row i of rs is the
    radius grid grids[g] of the group g of draw i: a block that spans
    groups is one call."""
    rs = grids[[draw.group for draw in block]]
    return _row_worst(lhs_rows(*stacks, rs) - 1.0, rs)


# ----------------------------------------------------------------------
# Suite 1: quasi-multiplied composition never beats its outer function's
# majorant for r <= 1/3.


class _T1Draw(NamedTuple):
    """One t1 trial: its index, variant, the coefficients 0..8 of its
    polynomial outer g and g's degree, and the Blaschke specs of phi and
    omega.  _run_suite builds its record (_t1_record) when it hands the
    trial's residual to the tracker, which it does for every trial, so a
    block holds only the drawn objects."""

    trial: int
    variant: str
    g: np.ndarray
    degree: int
    phi: DrawnSpec
    omega: DrawnSpec


def _t1_draws(rngs, keys) -> list:
    """The t1 trials keyed by ``keys``: each stream gives g, then phi, then omega."""
    g, degrees = draw_polynomials(rngs, _T1_OUTER_DEGREE)
    phis, omegas = draw_specs(rngs), draw_specs(rngs)
    variants = ("general", "subordination", "majorization")
    return [
        _T1Draw(key[-1], variants[key[-1] % 3], *drawn)
        for key, *drawn in zip(keys, g, degrees, phis, omegas)
    ]


def _t1_record(d: _T1Draw) -> dict:
    return {
        "trial": d.trial,
        "variant": d.variant,
        "g": _poly_dict(d.g, d.degree),
        "phi": _spec_dict(d.phi),
        "omega": _spec_dict(d.omega),
    }


def _t1_witness(block, order: int) -> tuple:
    """(f rows, g rows) of a block of t1 trials: the composition
    f = phi * g(omega) and the coefficients 0..8 of its outer g.  A
    subordination trial expands the zero-free spec _ZERO_FREE in place of
    its phi (the constant one) and a majorization trial in place of its
    omega (the identity z); the drawn specs stay in the trial's record.  A
    majorant sum over g's 9 columns has the bits of one over its order-N
    series: Horner keeps +0.0 through zero tops."""
    phi = bounded_rows([_ZERO_FREE if d.variant == "subordination" else d.phi for d in block], order)
    omega = schwarz_rows([_ZERO_FREE if d.variant == "majorization" else d.omega for d in block], order)
    g = np.stack([d.g for d in block])
    return quasi_rows(g, [d.degree for d in block], phi, omega), g


def check_theorem1(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Majorant domination for random multiplier/inner/outer triples.

    Trials cycle through the general case and the two degenerate regimes
    (multiplier identically one; inner equal to z), all on a 12-point grid
    of (0, 1/3].
    """
    if order < _T1_OUTER_DEGREE:
        raise ValueError(f"t1 needs order >= {_T1_OUTER_DEGREE}, the degree of its random outers")
    draws = _trial_params("t1", _t1_draws, trials, seed)
    grid = radius_grid(CLASSICAL_CAP, 12)

    def residuals(block, n):
        return _row_worst(theorem1_rows(*_t1_witness(block, n), grid), grid)

    tracker = _run_suite(draws, residuals, _t1_record, order)
    return tracker.report("t1", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 2: odd composition pairs, including partial-sum domination.


class _T2Draw(NamedTuple):
    """One t2 trial: its index, the coefficients 0..3 of its base q and q's
    degree, the Blaschke spec of its inner and whether the inner is z."""

    trial: int
    q: np.ndarray
    degree: int
    omega: DrawnSpec
    identity_inner: bool


def _t2_draws(rngs, keys) -> list:
    """The t2 trials keyed by ``keys``: each stream gives q, then omega's spec."""
    q, degrees = draw_polynomials(rngs, _T2_BASE_DEGREE)
    omegas = draw_specs(rngs)
    return [
        _T2Draw(key[-1], *drawn, key[-1] % 5 == 0) for key, *drawn in zip(keys, q, degrees, omegas)
    ]


def _t2_record(d: _T2Draw) -> dict:
    return {
        "trial": d.trial,
        "q": _poly_dict(d.q, d.degree),
        "omega": _spec_dict(d.omega),
        "identity_inner": d.identity_inner,
    }


def _t2_rows(block, order: int) -> tuple:
    """(f rows, g rows) of a block of t2 trials: the outers g = z*q(z^2) and
    the inners z*B(z^2) are built as rows, an identity-inner trial
    expanding the zero-free spec _ZERO_FREE (whose inner is z) in place of
    its drawn one, and each odd composition f = g(omega) through compose."""
    g = odd_rows(np.stack([d.q for d in block]), order)
    omega = schwarz_rows([_ZERO_FREE if d.identity_inner else d.omega for d in block], order, odd=True)
    f = [
        compose(TruncatedSeries(outer, exact_degree=2 * d.degree + 1), TruncatedSeries(inner)).coeffs
        for d, outer, inner in zip(block, g, omega)
    ]
    return np.stack(f), g


def _t2_residual(f: np.ndarray, g: np.ndarray, grid) -> list:
    """One (residual, where) pair per row of (rows, N+1) stacks of odd pairs
    f and g: the largest excess of a partial majorant sum of f over g's on
    the grid, or f's even-coefficient leak when that is larger.  ``where``
    maps "r", "partial_sum_length" and "even_leak" to Python numbers.  The
    first of equal excesses in (radius, length) order is kept, as np.argmax
    over one pair's flattened table does; the table is formed one radius at
    a time to keep a block's memory small."""
    leak = np.max(np.abs(f[:, 0::2]), axis=1)
    lengths, tops = [], []
    for r in grid:
        gaps = theorem2_rows(f, g, r)
        lengths.append(np.argmax(gaps, axis=1))
        tops.append(np.max(gaps, axis=1))
    tops, lengths = np.stack(tops, axis=1), np.stack(lengths, axis=1)
    i, rows = np.argmax(tops, axis=1), np.arange(len(f))
    columns = zip(tops[rows, i].tolist(), np.asarray(grid)[i].tolist(), (lengths[rows, i] + 1).tolist(), leak.tolist())
    return [(max(worst, lk), {"r": r, "partial_sum_length": m, "even_leak": lk}) for worst, r, m, lk in columns]


def check_theorem2_odd(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Odd-pair domination on (0, 1/sqrt(3)] for every partial-sum length.

    The outer is z times a random even lift, the inner z*B(z^2); both are
    odd by construction, and any even-coefficient leak of the composition
    is folded into the residual.
    """
    if order < 2 * _T2_BASE_DEGREE + 1:
        raise ValueError(f"t2 needs order >= {2 * _T2_BASE_DEGREE + 1}, the degree of its outers z*q(z^2)")
    draws = _trial_params("t2", _t2_draws, trials, seed)
    grid = radius_grid(ODD_CAP, 12)
    tracker = _run_suite(draws, lambda block, n: _t2_residual(*_t2_rows(block, n), grid), _t2_record, order)
    return tracker.report("t2", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 3: harmonic pairs with dilatation bound k.


class _T3Draw(NamedTuple):
    """One t3 trial: its record and the Blaschke specs of h and omega_tilde."""

    record: dict
    h: DrawnSpec
    omega_tilde: DrawnSpec


def _t3_draws(rngs, keys) -> list:
    """The t3 trials keyed by ``keys``: each stream gives h's spec (at least
    one zero), omega_tilde's, then a_extremal uniform on [0, 0.95)."""
    hs = draw_specs(rngs, min_zeros=1)
    omega_tildes = draw_specs(rngs)
    a_extremal = 0.95 * np.array([rng.random() for rng in rngs])
    return [
        _T3Draw({"trial": key[-1], "h": _spec_dict(h), "omega_tilde": _spec_dict(w), "a_extremal": a}, h, w)
        for key, h, w, a in zip(keys, hs, omega_tildes, a_extremal.tolist())
    ]


def _t3_witness(block, order: int) -> tuple:
    """(h rows, row of h per item, g rows, |h(0)|, k, a_extremal) of a block
    of t3 items (trial, k).  Each trial's h and omega_tilde are expanded,
    and omega_tilde * h' convolved, once per block for all its k values; g
    is the co-analytic part of the random pair of each item."""
    trials, index = [], []
    for trial, _ in block:
        if not trials or trial is not trials[-1]:
            trials.append(trial)
        index.append(len(trials) - 1)
    expanded = bounded_rows([t.h for t in trials] + [t.omega_tilde for t in trials], order)
    h = finite_rows(expanded[: len(trials)].copy())
    ks = np.array([k for _, k in block])
    g = harmonic_rows(h, ks, expanded[len(trials) :], index)
    del expanded
    # np.hypot rounds as abs() of a Python complex does; np.abs may not
    a0_mods = np.hypot(h[index, 0].real, h[index, 0].imag)
    a_extremal = np.array([trial.record["a_extremal"] for trial, _ in block])
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
    draws = _trial_params("t3", _t3_draws, trials, seed)
    k_grid = tuple(float(k) for k in k_grid)
    if not k_grid:
        raise ValueError("k_grid must not be empty")
    unit_interval("k_grid values", k_grid, closed=True)
    grid = radius_grid(CLASSICAL_CAP, 12)
    tracker = _run_suite(
        ((params, k) for params in draws for k in k_grid),
        lambda block, n: _row_worst(_t3_residuals(_t3_witness(block, n), grid), grid + grid),
        lambda item: {**item[0].record, "k": item[1]},
        order,
    )
    return tracker.report("t3", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 5: pointwise value plus tail for bounded analytic functions.


def _t5_witness(block, order: int) -> tuple:
    """(f rows, num, den) of a block of draws: the sharp witness at each
    draw's a0 composed with the Schwarz function of its spec, with its
    rational form num / den."""
    return _automorphisms(block, order, "minus")


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
    if a_grid is None:
        a_grid = (ANALYTIC_THRESHOLD_A, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95)
    a_grid = tuple(float(a) for a in a_grid)
    groups = _groups("t5", trials, seed, [_sharp_radius("t5", a) for a in a_grid])
    grids = np.array([rs for rs, _ in groups])
    tracker = _run_suite(
        _pointwise_draws(groups, a_grid, 1),
        lambda block, n: _group_worst(block, grids, theorem5_rows, *_t5_witness(block, n)),
        lambda d: {"a": a_grid[d.group], "trial": d.trial, "phase": d.phase, "omega": _spec_dict(d.specs[0])},
        order,
    )
    beyond = []
    for a, (rs, _) in zip(a_grid, groups):
        for r, lhs in zip(rs, sharp_lhs("t5", a, rs)):
            tracker.update(lhs - 1.0, {"a": a, "r": r, "witness": "extremal"})
        beyond.append(_probe_beyond(tracker, "t5", {"a": a}, rs[-1]))
    a_sweep = np.linspace(0.0, 0.99, 100)
    for a, lhs in zip(a_sweep, sharp_lhs("t5", a_sweep, UNIVERSAL_RADIUS)):
        tracker.update(lhs - 1.0, {"a": float(a), "r": UNIVERSAL_RADIUS, "witness": "universal-sweep"})
    return tracker.report(
        "t5",
        trials,
        seed,
        _sine_fractions(8),
        informational=True,
        beyond={"kind": "sharp-witness just beyond its radius", "points": beyond},
    )


# ----------------------------------------------------------------------
# Suite 6: harmonic pointwise value plus tails.


def _t6_witness(block, order: int, ks) -> tuple:
    """(h rows, num, den, g rows) of a block of draws with dilatation bounds
    ks: h is the disk automorphism at the draw's a0 composed with the
    Schwarz function of its first spec, num / den its rational form, and g
    the co-analytic part built with the bounded function of its second."""
    h, num, den = _automorphisms(block, order, "plus")
    return h, num, den, harmonic_rows(h, ks, bounded_rows([draw.specs[1] for draw in block], order))


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
    grids = np.array([rs for rs, _ in groups])
    tracker = _run_suite(
        _pointwise_draws(groups, [a for a, _ in pairs], 2),
        lambda block, n: _group_worst(
            block, grids, theorem6_rows, *_t6_witness(block, n, [pairs[d.group][1] for d in block])
        ),
        lambda d: {"a": pairs[d.group][0], "k": pairs[d.group][1], "trial": d.trial, "phase": d.phase},
        order,
    )
    beyond = []
    for (a, k), (rs, _) in zip(pairs, groups):
        r_ak = rs[-1]
        *ladder, attained = sharp_lhs("t6", a, r_ak, [mu * k for mu in _LADDER] + [k])
        for lo, hi in zip(ladder, ladder[1:] + [attained]):
            if lo > hi + 1e-12:
                tracker.update(1.0, {"a": a, "k": k, "witness": "ladder-monotonicity"})
        if ladder[-1] > 1.0 + 1e-12:
            tracker.update(1.0, {"a": a, "k": k, "witness": "ladder-above-one"})
        deviation = abs(attained - 1.0)
        if deviation > CERT_TOLERANCE:
            tracker.update(deviation, {"a": a, "k": k, "witness": "sharp-family-attainment"})
        beyond.append(_probe_beyond(tracker, "t6", {"a": a, "k": k}, r_ak))
    return tracker.report(
        "t6",
        trials,
        seed,
        _sine_fractions(8),
        informational=True,
        beyond={"kind": "sharp-family just beyond its radius", "points": beyond},
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
    tracker.update(residual, worst)
    return tracker.report(
        f"sharpness_{theorem}", 1, 0, grid, tolerance=CERT_TOLERANCE, beyond=beyond
    )
