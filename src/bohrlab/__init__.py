"""Numerical laboratory for Bohr-type majorant inequalities on the unit disk.

The package has four layers: truncated power-series arithmetic
(:mod:`bohrlab.series`), inequality functionals (:mod:`bohrlab.functionals`),
sharp radii (:mod:`bohrlab.radii`) and seeded verification suites over
random and extremal witnesses (:mod:`bohrlab.witnesses`,
:mod:`bohrlab.verify`).  A small CLI (:mod:`bohrlab.cli`) exposes radius
tables, CSV sweeps, extremal dumps and verification runs.
"""

from .series import (
    DEFAULT_ORDER,
    BlaschkeSpec,
    MobiusTag,
    TruncatedSeries,
    add,
    blaschke_series,
    compose,
    derivative,
    eval_blaschke,
    evaluate,
    evaluate_rows,
    integrate,
    majorant_eval,
    majorant_rows,
    make_series,
    mobius_series,
    mul,
    power,
    scale,
)
from .functionals import (
    HarmonicPair,
    bohr_sum,
    corollary2_lhs,
    lemma2_bound,
    schwarz_pick_bound,
    sharp_lhs,
    theorem3_lhs,
    theorem5_lhs,
    theorem6_lhs,
)
from .radii import (
    ANALYTIC_THRESHOLD_A,
    UNIVERSAL_RADIUS,
    RadiusResult,
    classical_radius,
    odd_bohr_radius,
    p_symmetric_radius,
    quadratic_residual,
    theorem5_radius,
    theorem6_radius,
    theorem6_threshold,
)
from .witnesses import (
    QuasiTriple,
    build_quasi_triple,
    draw_blaschke_spec,
    draw_polynomial,
    extremal_corollary2,
    extremal_theorem3,
    extremal_theorem5,
    harmonic_witness,
    p_symmetric_lift,
    random_schwarz,
    schwarz_from_spec,
    bounded_from_spec,
)
from .verify import (
    VerificationReport,
    check_theorem1,
    check_theorem2_odd,
    check_theorem3,
    check_theorem5,
    check_theorem6,
    radius_grid,
    sharpness_certificate,
)

__version__ = "0.1.0"
