"""Seeded property-verification suites, sharpness certificates and scans.

Every suite draws its witnesses from per-trial PCG64 streams seeded with
(suite id, seed, trial ...), so reports are reproducible bit for bit and a
longer run extends a shorter one without disturbing earlier trials.  Any
trial whose residual exceeds the tolerance is re-evaluated once at doubled
truncation order before being reported, so a truncation artifact does not
fail a suite.

Residuals are "most positive value of LHS - RHS observed"; a suite passes
when the maximum stays at or below the tolerance.  Left-hand sides are
either exact (closed forms, polynomial outers) or truncated lower bounds of
the true sums.  A truncated left-hand side can hide a violation that lives
in the dropped tail, and the doubled-order retry guards only against false
failures, so a pass is not a certificate for the untruncated functions.

All five suites share one driver that builds and evaluates witnesses a
block at a time.  t5 and t6 build a block as stacked (rows, N+1) arrays
(series.blaschke_rows, series.compose_rows, witnesses.harmonic_rows) whose
every coefficient is the one the per-series functions give; a t5 or t6
block may span parameter groups.  t1, t2 and t3 build a block one witness
at a time.  For t1, t3, t5 and t6 evaluation is one stacked Horner pass
(series.majorant_rows, series.evaluate_rows) that runs the same
floating-point operations as per-witness, per-radius evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .functionals import (
    corollary2_lhs,
    schwarz_pick_bound,
    theorem3_lhs,
    theorem3_rational,
    theorem5_lhs,
    theorem6_lhs,
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
    BlaschkeSpec,
    compose,
    compose_rows,
    evaluate_rows,
    majorant_rows,
    make_series,
    mobius_series,
    mul,
)
from .witnesses import (
    bounded_from_spec,
    bounded_rows,
    build_quasi_triple,
    draw_blaschke_spec,
    draw_polynomial,
    extremal_corollary2,
    extremal_theorem3,
    extremal_theorem5,
    harmonic_rows,
    harmonic_witness,
    p_symmetric_lift,
    schwarz_from_spec,
    schwarz_rows,
)

TOLERANCE = 1e-9
CERT_TOLERANCE = 1e-8
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 42

_SUITE_IDS = {"t1": 1, "t2": 2, "t3": 3, "t5": 5, "t6": 6}

_PHASES = np.exp(2j * np.pi * np.arange(16) / 16.0)

_LADDER = (0.9, 0.99, 0.999)

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
    if n < 1 or not 0.0 < r_max < 1.0:
        raise ValueError("need n >= 1 and r_max in (0, 1)")
    fractions = _sine_fractions(n)
    return tuple(r_max * x for x in fractions[:-1]) + (r_max,)


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

    def extend(self, results):
        """update() with each (residual, witness) pair of ``results``, in order."""
        for residual, witness in results:
            self.update(residual, witness)

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


def _spec_dict(spec: BlaschkeSpec) -> dict:
    return {"zeros": [_pair(z) for z in spec.zeros], "rotation": _pair(spec.rotation)}


def _spec_from_dict(d: dict) -> BlaschkeSpec:
    return BlaschkeSpec(
        zeros=tuple(complex(re, im) for re, im in d["zeros"]),
        rotation=complex(d["rotation"][0], d["rotation"][1]),
    )


def _poly_dict(poly) -> list:
    return [_pair(complex(c)) for c in poly.coeffs[: poly.exact_degree + 1]]


def _poly_from_dict(entries, order):
    return make_series([complex(re, im) for re, im in entries], order)


def _trial_params(suite: str, draw, trials: int, seed: int):
    """draw(rng, t) for each trial t, rng keyed by (suite id, seed, t)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return (draw(np.random.default_rng((_SUITE_IDS[suite], seed, t)), t) for t in range(trials))


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
        (radius_grid(r, 8), [(_SUITE_IDS[suite], seed, g, j) for j in range(share + (g < extra))])
        for g, r in enumerate(radii)
    ]


def _run_suite(items, build, evaluate, record, order: int):
    """Yield (residual, record) for each item, in item order, one block at a time.

    ``build(block, order)`` constructs the witnesses of a list of items and
    ``evaluate(block, witnesses)`` returns one (residual, where) pair per
    item, ``where`` being a dict that locates the residual (its radius,
    say).  A block holds max(1, _COEFF_BUDGET // (order + 1)) items.  An
    item whose residual exceeds the tolerance is rebuilt at doubled order
    as a block of one, re-evaluated and tagged
    {"reevaluated_order": 2 * order}.  The record is
    ``{**record(item), **where}``.
    """
    rows = max(1, _COEFF_BUDGET // (order + 1))
    items = iter(items)
    while block := list(itertools.islice(items, rows)):
        for item, (res, where) in zip(block, evaluate(block, build(block, order))):
            if res > TOLERANCE:
                [(res, where)] = evaluate([item], build([item], 2 * order))
                where = {**where, "reevaluated_order": 2 * order}
            yield res, {**record(item), **where}


def _each(witness):
    """build(block, order) that builds the items of a block one at a time."""
    return lambda block, order: [witness(item, order) for item in block]


def _row_worst(table: np.ndarray, points) -> list:
    """(residual, {"r": point}) at the largest entry of each row of ``table``,
    whose columns belong to ``points``.  np.argmax keeps the first of equal
    residuals, as the tracker's strict comparison does."""
    cols = np.argmax(table, axis=1)
    return [(float(row[col]), {"r": float(points[col])}) for row, col in zip(table, cols)]


def _stack(witnesses, index: int) -> np.ndarray:
    """(rows, N+1) array of the coefficient vectors at ``index`` of each witness tuple."""
    return np.stack([w[index] for w in witnesses])


def _pointwise_residuals(h_rows, rs, g_rows=None) -> np.ndarray:
    """theorem5_lhs (or theorem6_lhs with ``g_rows``) minus one for stacked
    untagged series, maximising |h| over 16 phases at each radius."""
    rs = np.asarray(rs)
    tails = majorant_rows(h_rows, rs, skip_constant=True)
    if g_rows is not None:
        tails = tails + majorant_rows(g_rows, rs)
    values = np.abs(evaluate_rows(h_rows, rs[:, None] * _PHASES)).max(axis=-1)
    return values + tails - 1.0


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
    for g, (a, (_, keys)) in enumerate(zip(a_values, groups)):
        for key in keys:
            rng = np.random.default_rng(key)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            a0 = complex(a * np.exp(1j * phase))
            yield _Draw(g, key[-1], phase, a0, tuple(draw_blaschke_spec(rng) for _ in range(specs)))


def _stacked_outers(build, block, order: int) -> tuple:
    """(coefficient rows, Horner starts) of the outers build(a0, order) at the
    a0 of each draw of a block; an outer starts Horner at its exact degree,
    as in compose, or at the order when it is a truncation."""
    outers = [build(draw.a0, order) for draw in block]
    tops = [order if g.exact_degree is None else g.exact_degree for g in outers]
    return np.stack([g.coeffs for g in outers]), tops


def _group_worst(block, groups, table) -> list:
    """(residual, where) of each draw of a block; the rows of a run of draws
    from one group g are evaluated as one stack, table(rows, rs), on that
    group's radius grid rs = groups[g][0]."""
    out, start = [], 0
    for g, run in itertools.groupby(draw.group for draw in block):
        stop = start + sum(1 for _ in run)
        rs = groups[g][0]
        out += _row_worst(table(slice(start, stop), rs), rs)
        start = stop
    return out


# ----------------------------------------------------------------------
# Suite 1: quasi-multiplied composition never beats its outer function's
# majorant for r <= 1/3.


def _draw_t1_params(rng: np.random.Generator, trial: int) -> dict:
    variant = ("general", "subordination", "majorization")[trial % 3]
    g = _poly_dict(draw_polynomial(rng, _T1_OUTER_DEGREE))
    phi = _spec_dict(draw_blaschke_spec(rng))
    omega = _spec_dict(draw_blaschke_spec(rng))
    return {"trial": trial, "variant": variant, "g": g, "phi": phi, "omega": omega}


def _t1_witness(params: dict, order: int) -> tuple:
    """Coefficients of the composition f = phi * g(omega) and of its outer g."""
    g = _poly_from_dict(params["g"], order)
    if params["variant"] == "subordination":
        phi = make_series([1.0], order)
    else:
        phi = bounded_from_spec(_spec_from_dict(params["phi"]), order)
    if params["variant"] == "majorization":
        omega = make_series([0.0, 1.0], order)
    else:
        omega = schwarz_from_spec(_spec_from_dict(params["omega"]), order=order)
    return build_quasi_triple(g, phi, omega).f.coeffs, g.coeffs


def check_theorem1(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Majorant domination for random multiplier/inner/outer triples.

    Trials cycle through the general case and the two degenerate regimes
    (multiplier identically one; inner equal to z), all on a 12-point grid
    of (0, 1/3].
    """
    if order < _T1_OUTER_DEGREE:
        raise ValueError(f"t1 needs order >= {_T1_OUTER_DEGREE}, the degree of its random outers")
    draws = _trial_params("t1", _draw_t1_params, trials, seed)
    grid = radius_grid(CLASSICAL_CAP, 12)

    def evaluate(_, witnesses):
        table = majorant_rows(_stack(witnesses, 0), grid) - majorant_rows(_stack(witnesses, 1), grid)
        return _row_worst(table, grid)

    tracker = _Tracker()
    tracker.extend(_run_suite(draws, _each(_t1_witness), evaluate, lambda params: params, order))
    return tracker.report("t1", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 2: odd composition pairs, including partial-sum domination.


def _draw_t2_params(rng: np.random.Generator, trial: int) -> dict:
    q = _poly_dict(draw_polynomial(rng, _T2_BASE_DEGREE, max_degree=_T2_BASE_DEGREE))
    omega = _spec_dict(draw_blaschke_spec(rng))
    identity_inner = trial % 5 == 0
    return {"trial": trial, "q": q, "omega": omega, "identity_inner": identity_inner}


def _t2_witness(params: dict, order: int) -> tuple:
    """Coefficients of the odd composition f = g(omega) and of its outer g."""
    q = _poly_from_dict(params["q"], order // 2)
    g = mul(make_series([0.0, 1.0], order), p_symmetric_lift(q, 2, order=order))
    if params["identity_inner"]:
        omega = make_series([0.0, 1.0], order)
    else:
        omega = schwarz_from_spec(_spec_from_dict(params["omega"]), odd=True, order=order)
    return compose(g, omega).coeffs, g.coeffs


def _t2_residual(f: np.ndarray, g: np.ndarray, grid) -> tuple:
    """(residual, where) of one odd pair: the largest excess of a partial
    majorant sum of f over g's on the grid, or f's even-coefficient leak
    when that is larger."""
    leak = float(np.max(np.abs(f[0::2])))
    rs = np.asarray(grid)
    pow_grid = rs[:, None] ** np.arange(1, len(f), 2)
    f_cum = np.cumsum(np.abs(f[1::2])[None, :] * pow_grid, axis=1)
    g_cum = np.cumsum(np.abs(g[1::2])[None, :] * pow_grid, axis=1)
    gaps = f_cum - g_cum
    i, m = np.unravel_index(np.argmax(gaps), gaps.shape)
    where = {"r": float(rs[i]), "partial_sum_length": int(m + 1), "even_leak": leak}
    return max(float(gaps[i, m]), leak), where


def check_theorem2_odd(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Odd-pair domination on (0, 1/sqrt(3)] for every partial-sum length.

    The outer is z times a random even lift, the inner z*B(z^2); both are
    odd by construction, and any even-coefficient leak of the composition
    is folded into the residual.
    """
    if order < 2 * _T2_BASE_DEGREE + 1:
        raise ValueError(f"t2 needs order >= {2 * _T2_BASE_DEGREE + 1}, the degree of its outers z*q(z^2)")
    draws = _trial_params("t2", _draw_t2_params, trials, seed)
    grid = radius_grid(ODD_CAP, 12)
    tracker = _Tracker()
    tracker.extend(
        _run_suite(
            draws,
            _each(_t2_witness),
            lambda _, ws: [_t2_residual(f, g, grid) for f, g in ws],
            lambda params: params,
            order,
        )
    )
    return tracker.report("t2", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 3: harmonic pairs with dilatation bound k.


def _draw_t3_params(rng: np.random.Generator, trial: int) -> dict:
    h = _spec_dict(draw_blaschke_spec(rng, min_zeros=1))
    omega_tilde = _spec_dict(draw_blaschke_spec(rng))
    a_extremal = float(rng.uniform(0.0, 0.95))
    return {"trial": trial, "h": h, "omega_tilde": omega_tilde, "a_extremal": a_extremal}


def _t3_builder():
    """build(block, order) for t3 items (params, k): (h, g, |h(0)|, k) of the
    random harmonic pair, then the sharp pair at a_extremal.  A trial's h
    and omega_tilde are expanded once per order and shared by its k values."""
    expanded = {}

    def build(block, order):
        out = []
        for params, k in block:
            if expanded.get(order, (None,))[0] is not params:
                h = bounded_from_spec(_spec_from_dict(params["h"]), order)
                omega_tilde = bounded_from_spec(_spec_from_dict(params["omega_tilde"]), order)
                expanded[order] = params, h, omega_tilde
            _, h, omega_tilde = expanded[order]
            pair = harmonic_witness(h, k, omega_tilde)
            extremal = extremal_theorem3(params["a_extremal"], k, order)
            a0_mod = float(abs(h.coeffs[0]))
            out.append((pair.h.coeffs, pair.g.coeffs, a0_mod, k, extremal, params["a_extremal"]))
        return out

    return build


def _t3_residuals(witnesses, grid) -> np.ndarray:
    """theorem3_lhs - 1 of the random pairs on the grid, then |theorem3_lhs - 1|
    of the sharp pairs (closed-form tails) on the same grid."""
    rs = np.asarray(grid)
    a0_mods = np.array([w[2] for w in witnesses])[:, None]
    ks = np.array([w[3] for w in witnesses])[:, None]
    random = (
        theorem3_rational(a0_mods, ks, rs)
        + majorant_rows(_stack(witnesses, 0), rs, skip_constant=True)
        + majorant_rows(_stack(witnesses, 1), rs, skip_constant=True)
        - 1.0
    )
    sharp = [
        np.abs(
            theorem3_rational(a, pair.k, rs)
            + pair.h.tag.majorant(rs, skip_constant=True)
            + pair.g.tag.majorant(rs, skip_constant=True)
            - 1.0
        )
        for *_, pair, a in witnesses
    ]
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
    draws = _trial_params("t3", _draw_t3_params, trials, seed)
    k_grid = tuple(float(k) for k in k_grid)
    if not k_grid:
        raise ValueError("k_grid must not be empty")
    for k in k_grid:
        if not 0.0 <= k <= 1.0:
            raise ValueError("k_grid values must lie in [0, 1]")
    grid = radius_grid(CLASSICAL_CAP, 12)
    tracker = _Tracker()
    tracker.extend(
        _run_suite(
            ((params, k) for params in draws for k in k_grid),
            _t3_builder(),
            lambda _, ws: _row_worst(_t3_residuals(ws, grid), grid + grid),
            lambda item: {**item[0], "k": item[1]},
            order,
        )
    )
    return tracker.report("t3", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 5: pointwise value plus tail for bounded analytic functions.


def _t5_witness(block, order: int) -> np.ndarray:
    """f rows of a block of draws: the sharp witness at each draw's a0
    composed with the Schwarz function of its spec."""
    outer, tops = _stacked_outers(extremal_theorem5, block, order)
    return compose_rows(outer, schwarz_rows([draw.specs[0] for draw in block], order), tops)


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
    for a in a_grid:
        if a < ANALYTIC_THRESHOLD_A - 1e-12 or a >= 1.0:
            raise ValueError(f"a={a} below the admissibility threshold {ANALYTIC_THRESHOLD_A:.7f}")
    groups = _groups("t5", trials, seed, [theorem5_radius(a).value for a in a_grid])
    results = _run_suite(
        _pointwise_draws(groups, a_grid, 1),
        _t5_witness,
        lambda block, f: _group_worst(block, groups, lambda rows, rs: _pointwise_residuals(f[rows], rs)),
        lambda d: {"a": a_grid[d.group], "trial": d.trial, "phase": d.phase, "omega": _spec_dict(d.specs[0])},
        order,
    )
    tracker = _Tracker()
    beyond = []
    for a, (rs, keys) in zip(a_grid, groups):
        tracker.extend(itertools.islice(results, len(keys)))
        sharp = extremal_theorem5(a)
        for r in rs:
            tracker.update(theorem5_lhs(sharp, -r) - 1.0, {"a": a, "r": r, "witness": "extremal"})
        r_beyond = rs[-1] + 1e-3
        lhs_beyond = theorem5_lhs(sharp, -r_beyond)
        beyond.append({"a": a, "r": r_beyond, "lhs": float(lhs_beyond)})
        if lhs_beyond <= 1.0:
            tracker.update(1.0, {"a": a, "witness": "extremal-beyond", "lhs": float(lhs_beyond)})
    for a in np.linspace(0.0, 0.99, 100):
        lhs = theorem5_lhs(extremal_theorem5(float(a)), -UNIVERSAL_RADIUS)
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
    """(h rows, g rows) of a block of draws with dilatation bounds ks: h is
    the disk automorphism at the draw's a0 composed with the Schwarz
    function of its first spec, g the co-analytic part built with the
    bounded function of its second."""
    outer, tops = _stacked_outers(mobius_series, block, order)
    h = compose_rows(outer, schwarz_rows([draw.specs[0] for draw in block], order), tops)
    del outer  # a block's arrays dominate peak memory; keep few alive at once
    return h, harmonic_rows(h, ks, bounded_rows([draw.specs[1] for draw in block], order))


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
            for a in a_values:
                if a < alpha - 1e-12 or a >= 1.0:
                    raise ValueError(f"(a={a}, k={k}) is inadmissible: a must be >= {alpha:.7f}")
        pairs.extend((a, k) for a in a_values)
    groups = _groups("t6", trials, seed, [theorem6_radius(a, k).value for a, k in pairs])
    results = _run_suite(
        _pointwise_draws(groups, [a for a, _ in pairs], 2),
        lambda block, n: _t6_witness(block, n, [pairs[d.group][1] for d in block]),
        lambda block, hg: _group_worst(
            block, groups, lambda rows, rs: _pointwise_residuals(hg[0][rows], rs, hg[1][rows])
        ),
        lambda d: {"a": pairs[d.group][0], "k": pairs[d.group][1], "trial": d.trial, "phase": d.phase},
        order,
    )
    tracker = _Tracker()
    beyond = []
    for (a, k), (rs, keys) in zip(pairs, groups):
        tracker.extend(itertools.islice(results, len(keys)))

        r_ak = rs[-1]
        tail = r_ak * (1.0 - a * a) / (1.0 - r_ak * a)
        point = schwarz_pick_bound(a, r_ak)
        ladder = [point + (1.0 + mu * k) * tail for mu in _LADDER]
        attained = point + (1.0 + k) * tail
        for lo, hi in zip(ladder, ladder[1:] + [attained]):
            if lo > hi + 1e-12:
                tracker.update(1.0, {"a": a, "k": k, "witness": "ladder-monotonicity"})
        if ladder[-1] > 1.0 + 1e-12:
            tracker.update(1.0, {"a": a, "k": k, "witness": "ladder-above-one"})
        deviation = abs(attained - 1.0)
        if deviation > CERT_TOLERANCE:
            tracker.update(deviation, {"a": a, "k": k, "witness": "sharp-family-attainment"})

        pair_sharp = extremal_theorem3(a, k)
        r_beyond = r_ak + 1e-3
        lhs_beyond = theorem6_lhs(pair_sharp, r_beyond)
        beyond.append({"a": a, "k": k, "r": r_beyond, "lhs": float(lhs_beyond)})
        if lhs_beyond <= 1.0:
            tracker.update(1.0, {"a": a, "k": k, "witness": "extremal-beyond", "lhs": float(lhs_beyond)})
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


def sharpness_certificate(theorem: str, params: dict, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Certify a sharpness claim with the named extremal witness.

    Radius-type claims (``t5``, ``t6``) require the closed-form left-hand
    side to attain one at the radius (within 1e-8) and to exceed one at
    radius + 1e-3.  Equality-type claims (``cor2``, ``t3``) require the
    extremal to sit at one across the whole claimed r-interval.  The
    odd-function radius (``odd``) has no generated extremal witness here
    and is refused.
    """
    if theorem == "odd":
        raise ValueError(
            "no extremal witness is generated for the odd-function radius; "
            "its sharpness is not certified by this laboratory"
        )
    if theorem not in ("cor2", "t3", "t5", "t6"):
        raise ValueError(f"unknown certificate target {theorem!r}")
    a = float(params["a"])
    worst = {"a": a}
    if theorem == "cor2":
        f = extremal_corollary2(a, order)
        lhs = lambda r: corollary2_lhs(f, a, r)
    elif theorem == "t3":
        k = worst["k"] = float(params["k"])
        pair = extremal_theorem3(a, k, order)
        lhs = lambda r: theorem3_lhs(pair, a, r)
    elif theorem == "t5":
        if a < ANALYTIC_THRESHOLD_A - 1e-12:
            raise ValueError(f"a={a} is below the admissibility threshold {ANALYTIC_THRESHOLD_A:.7f}")
        radius = theorem5_radius(a).value
        f = extremal_theorem5(a, order)
        lhs = lambda r: theorem5_lhs(f, -r)
    else:
        k = worst["k"] = float(params["k"])
        alpha = theorem6_threshold(k)
        if a < alpha - 1e-12:
            raise ValueError(f"(a={a}, k={k}) is inadmissible: a must be >= {alpha:.7f}")
        radius = theorem6_radius(a, k).value
        pair = extremal_theorem3(a, k, order)
        lhs = lambda r: theorem6_lhs(pair, r)

    beyond = None
    if theorem in ("cor2", "t3"):
        grid = radius_grid(CLASSICAL_CAP, 25)
        residual = max(abs(lhs(r) - 1.0) for r in grid)
        worst["kind"] = "equality-on-interval"
    else:
        grid = (radius,)
        attained, lhs_beyond = lhs(radius), lhs(radius + 1e-3)
        residual = abs(attained - 1.0)
        if lhs_beyond <= 1.0:
            residual = max(residual, 1.0 + (1.0 - lhs_beyond))
        beyond = {"r": float(radius + 1e-3), "lhs": float(lhs_beyond)}
        worst.update(radius=float(radius), attained=float(attained), kind="radius")

    tracker = _Tracker()
    tracker.update(residual, worst)
    return tracker.report(
        f"sharpness_{theorem}", 1, 0, grid, tolerance=CERT_TOLERANCE, beyond=beyond
    )
