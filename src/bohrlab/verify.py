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

All five suites share one driver that builds witnesses one trial at a time
and evaluates them a block at a time; for t1, t3, t5 and t6 a block is one
stacked Horner pass (series.majorant_rows, series.evaluate_rows) that runs
the same floating-point operations as per-witness, per-radius evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

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
    evaluate_rows,
    majorant_rows,
    make_series,
    mobius_series,
    mul,
)
from .witnesses import (
    bounded_from_spec,
    build_quasi_triple,
    draw_blaschke_spec,
    draw_polynomial,
    extremal_corollary2,
    extremal_theorem3,
    extremal_theorem5,
    harmonic_witness,
    p_symmetric_lift,
    schwarz_from_spec,
)

TOLERANCE = 1e-9
CERT_TOLERANCE = 1e-8
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 42

_SUITE_IDS = {"t1": 1, "t2": 2, "t3": 3, "t5": 5, "t6": 6}

_PHASES = np.exp(2j * np.pi * np.arange(16) / 16.0)

_LADDER = (0.9, 0.99, 0.999)

# Suites evaluate max(1, _COEFF_BUDGET // (order + 1)) witnesses per block,
# which keeps memory flat in the trial count and the order.
_COEFF_BUDGET = 2 ** 11


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


def _run_suite(tracker: _Tracker, items, build, evaluate, record, order: int):
    """Feed ``tracker`` the worst residual of each item's witness, in item order.

    ``build(item, order)`` constructs one witness; ``evaluate(witnesses)``
    returns one (residual, where) pair per witness, ``where`` being a dict
    that locates the residual (its radius, say).  Witnesses are built one
    at a time and evaluated a block at a time.  A witness whose residual
    exceeds the tolerance is rebuilt at doubled order, re-evaluated as a
    block of one and tagged {"reevaluated_order": 2 * order}.  The tracker
    sees ``{**record(item, witness), **where}``.
    """
    rows = max(1, _COEFF_BUDGET // (order + 1))
    items = iter(items)
    while block := list(itertools.islice(items, rows)):
        witnesses = [build(item, order) for item in block]
        for item, witness, (res, where) in zip(block, witnesses, evaluate(witnesses)):
            if res > TOLERANCE:
                witness = build(item, 2 * order)
                [(res, where)] = evaluate([witness])
                where = {**where, "reevaluated_order": 2 * order}
            tracker.update(res, {**record(item, witness), **where})


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


# ----------------------------------------------------------------------
# Suite 1: quasi-multiplied composition never beats its outer function's
# majorant for r <= 1/3.


def _draw_t1_params(rng: np.random.Generator, trial: int) -> dict:
    variant = ("general", "subordination", "majorization")[trial % 3]
    g = _poly_dict(draw_polynomial(rng, 8))
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
    draws = _trial_params("t1", _draw_t1_params, trials, seed)
    grid = radius_grid(CLASSICAL_CAP, 12)

    def evaluate(witnesses):
        table = majorant_rows(_stack(witnesses, 0), grid) - majorant_rows(_stack(witnesses, 1), grid)
        return _row_worst(table, grid)

    tracker = _Tracker()
    _run_suite(tracker, draws, _t1_witness, evaluate, lambda params, _: params, order)
    return tracker.report("t1", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 2: odd composition pairs, including partial-sum domination.


def _draw_t2_params(rng: np.random.Generator, trial: int) -> dict:
    q = _poly_dict(draw_polynomial(rng, 3, max_degree=3))
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
    draws = _trial_params("t2", _draw_t2_params, trials, seed)
    grid = radius_grid(ODD_CAP, 12)
    tracker = _Tracker()
    _run_suite(
        tracker,
        draws,
        _t2_witness,
        lambda ws: [_t2_residual(f, g, grid) for f, g in ws],
        lambda params, _: params,
        order,
    )
    return tracker.report("t2", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 3: harmonic pairs with dilatation bound k.


def _draw_t3_params(rng: np.random.Generator, trial: int) -> dict:
    h = _spec_dict(draw_blaschke_spec(rng, min_zeros=1))
    omega_tilde = _spec_dict(draw_blaschke_spec(rng))
    a_extremal = float(rng.uniform(0.0, 0.95))
    return {"trial": trial, "h": h, "omega_tilde": omega_tilde, "a_extremal": a_extremal}


def _t3_witness(item: tuple, order: int) -> tuple:
    """(h, g, |h(0)|, k) of the random harmonic pair, then the sharp pair at a_extremal."""
    params, k = item
    h = bounded_from_spec(_spec_from_dict(params["h"]), order)
    omega_tilde = bounded_from_spec(_spec_from_dict(params["omega_tilde"]), order)
    pair = harmonic_witness(h, k, omega_tilde)
    extremal = extremal_theorem3(params["a_extremal"], k, order)
    return pair.h.coeffs, pair.g.coeffs, float(abs(h.coeffs[0])), k, extremal, params["a_extremal"]


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
    _run_suite(
        tracker,
        ((params, k) for params in draws for k in k_grid),
        _t3_witness,
        lambda ws: _row_worst(_t3_residuals(ws, grid), grid + grid),
        lambda item, _: {**item[0], "k": item[1]},
        order,
    )
    return tracker.report("t3", trials, seed, grid)


# ----------------------------------------------------------------------
# Suite 5: pointwise value plus tail for bounded analytic functions.


def _t5_witness(a: float, trial_key, order: int) -> tuple:
    """(f, omega spec, phase) of the sharp witness at a rotated a0, composed with a random omega."""
    rng = np.random.default_rng(trial_key)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    a0 = a * np.exp(1j * phase)
    spec = draw_blaschke_spec(rng)
    omega = schwarz_from_spec(spec, order=order)
    f = compose(extremal_theorem5(complex(a0), order), omega)
    return f.coeffs, _spec_dict(spec), float(phase)


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
    tracker = _Tracker()
    beyond = []
    for a, (rs, keys) in zip(a_grid, groups):
        _run_suite(
            tracker,
            keys,
            lambda key, n: _t5_witness(a, key, n),
            lambda ws: _row_worst(_pointwise_residuals(_stack(ws, 0), rs), rs),
            lambda key, w: {"a": a, "trial": key[-1], "phase": w[2], "omega": w[1]},
            order,
        )
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


def _t6_witness(a: float, k: float, trial_key, order: int) -> tuple:
    """(h, g, phase) of a random harmonic pair whose analytic part has |h(0)| = a."""
    rng = np.random.default_rng(trial_key)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    a0 = a * np.exp(1j * phase)
    omega = schwarz_from_spec(draw_blaschke_spec(rng), order=order)
    omega_tilde = bounded_from_spec(draw_blaschke_spec(rng), order)
    h = compose(mobius_series(complex(a0), order), omega)
    pair = harmonic_witness(h, k, omega_tilde)
    return pair.h.coeffs, pair.g.coeffs, float(phase)


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
    tracker = _Tracker()
    beyond = []
    for (a, k), (rs, keys) in zip(pairs, groups):
        _run_suite(
            tracker,
            keys,
            lambda key, n: _t6_witness(a, k, key, n),
            lambda ws: _row_worst(_pointwise_residuals(_stack(ws, 0), rs, _stack(ws, 1)), rs),
            lambda key, w: {"a": a, "k": k, "trial": key[-1], "phase": w[2]},
            order,
        )

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
