"""Harmonic pairs: the functional, the sharp family, and certificates.

A harmonic mapping h + conj(g) with |h| <= 1 and |g'| <= k |h'| satisfies
the exact-form bound up to r = 1/3 and the pointwise-plus-tails bound up
to r_{a,k}.  The matched-scale family h + k*conj(h - h(0)) attains both;
scaling the co-analytic part below k approaches the bound monotonically.
"""

import numpy as np

from bohrlab import (
    draw_blaschke_spec,
    bounded_from_spec,
    harmonic_witness,
    lemma2_bound,
    sharp_lhs,
    sharpness_certificate,
    theorem3_lhs,
    theorem6_radius,
)
from bohrlab.functionals import theorem3_rational

print("=== random admissible pairs respect the exact-form bound ===")
rng = np.random.default_rng(13)
r = 1 / 3
for trial in range(4):
    h = bounded_from_spec(draw_blaschke_spec(rng, min_zeros=1), 64)
    omega_tilde = bounded_from_spec(draw_blaschke_spec(rng), 64)
    k = float(rng.uniform(0, 1))
    pair = harmonic_witness(h, k, omega_tilde)
    a = float(abs(h.coeffs[0]))
    value = theorem3_lhs(pair, a, r)
    tails = value - theorem3_rational(a, k, r)
    print(f"  trial {trial}: k={k:.3f} |h(0)|={a:.3f}"
          f"  LHS={value:.6f} <= 1;  tails {tails:.6f} <= bound {lemma2_bound(a, k, r):.6f}")

print()
print("=== the matched-scale family sits exactly at one ===")
a, k = 0.55, 0.6
radii = (0.1, 0.25, 1 / 3)
for rr, value in zip(radii, sharp_lhs("t3", a, radii, k)):
    print(f"  r={rr:.4f}: LHS = {value:.15f}")

print()
print("=== approaching the sharp scale from below at the radius ===")
r_ak = theorem6_radius(a, k).value
print(f"a={a}, k={k}, radius r_ak = {r_ak:.10f}")
for fraction in (0.9, 0.99, 0.999, 1.0):
    lam = fraction * k
    print(f"  co-analytic scale {lam:.4f}: pointwise LHS = {sharp_lhs('t6', a, r_ak, lam):.10f}")
print("only the full scale k attains one; beyond the radius it breaks:")
print(f"  at r_ak + 0.001 the LHS is {sharp_lhs('t6', a, r_ak + 1e-3, k):.10f} > 1")

print()
print("=== certificates ===")
for name, params in (("cor2", {"a": 0.5}), ("t3", {"a": a, "k": k}),
                     ("t5", {"a": 0.6}), ("t6", {"a": a, "k": k})):
    rep = sharpness_certificate(name, params)
    print(f"  {rep.suite}: {rep.verdict} (max deviation {rep.max_residual:.2e})")
try:
    sharpness_certificate("odd", {})
except ValueError as exc:
    print(f"  sharpness_odd: refused - {exc}")
