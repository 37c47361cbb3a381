"""Independent oracles used by the test suite.

Everything here is deliberately written with plain Python loops (no
numpy.convolve, no closed forms shared with the library) so each test pins
its expectation through a second, independent route.  The exception is the
last section: the per-object draws and closed forms that the stacked code
replaced, kept as they were so tests can pin the stacked bits to them.
"""

import numpy as np


def divide_series(num, den, n):
    """Coefficients of num/den to order n-1 by long division (den[0] != 0)."""
    num = list(num) + [0j] * n
    den = list(den) + [0j] * n
    out = []
    for k in range(n):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def mobius_by_long_division(a0, n):
    """(z + a0) / (1 + conj(a0) z) expanded to order n-1."""
    return divide_series([a0, 1.0], [1.0, a0.conjugate() if isinstance(a0, complex) else a0], n)


def geometric_mobius(a0, n):
    """Same expansion via (z + a0) * sum_k (-conj(a0) z)^k, term by term."""
    a0 = complex(a0)
    c = [0j] * n
    for k in range(n):
        geom = (-a0.conjugate()) ** k
        if k + 1 < n:
            c[k + 1] += geom
        c[k] += a0 * geom
    return c


def py_convolve(a, b, n):
    """Truncated Cauchy product with explicit double loop."""
    out = []
    for k in range(n):
        acc = 0j
        for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
            acc += a[i] * b[k - i]
        out.append(acc)
    return out


def quasi_convolution(g_coeffs, phi_coeffs, omega_coeffs, degree, n):
    """Direct coefficient expansion of phi * g(omega) through the identity
    a_k = sum_{m+j=k} phi_m B_j, B_j = sum_{v<=j} g_v alpha_j^(v)."""
    powers = [[1.0 + 0j] + [0j] * (n - 1)]
    for _ in range(degree):
        powers.append(py_convolve(powers[-1], list(omega_coeffs), n))
    b = [0j] * n
    for v in range(degree + 1):
        for j in range(n):
            b[j] += g_coeffs[v] * powers[v][j]
    return py_convolve(list(phi_coeffs), b, n)


def sign_change_brackets(f, lo, hi, step):
    """All [x, x+step] brackets over which f changes sign, scanning upward."""
    brackets = []
    x = lo
    fx = f(x)
    while x + step <= hi + 1e-15:
        y = x + step
        fy = f(y)
        if fx == 0.0 or (fx < 0.0) != (fy < 0.0):
            brackets.append((x, y))
        x, fx = y, fy
    return brackets


def horner_eval(coeffs, z):
    acc = 0j
    for c in reversed(list(coeffs)):
        acc = acc * z + c
    return acc


def rational_mobius_value(a0, z):
    """Exact value of (z + a0)/(1 + conj(a0) z)."""
    a0 = complex(a0)
    return (z + a0) / (1.0 + a0.conjugate() * z)


def geometric_tail(a, r, scale=1.0):
    """Geometric tail sum_k scale*(1-a^2) a^(k-1) r^k summed term by term."""
    total = 0.0
    term_base = scale * (1.0 - a * a)
    k = 1
    while True:
        term = term_base * a ** (k - 1) * r**k
        total += term
        if term < 1e-18 and k > 4:
            return total
        k += 1


def assert_close(x, y, tol, label=""):
    if abs(x - y) > tol:
        raise AssertionError(f"{label}: |{x} - {y}| = {abs(x - y)} > {tol}")


# ----------------------------------------------------------------------
# Per-object references of the stacked draws and closed forms.


def per_object_spec(rng, min_zeros=0, max_zeros=4):
    """(zeros, rotation) of one Blaschke spec, one uniform call per run."""
    count = int(rng.integers(min_zeros, max_zeros + 1))
    moduli = rng.uniform(0.0, 0.9, count)
    phases = rng.uniform(0.0, 2.0 * np.pi, count)
    zeros = moduli * np.exp(1j * phases)
    rotation = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return zeros, rotation


def per_object_polynomial(rng, max_degree=8, coeff_cap=2.0):
    """Coefficients 0..degree of one random polynomial."""
    degree = int(rng.integers(0, max_degree + 1))
    moduli = rng.uniform(0.0, coeff_cap, degree + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, degree + 1)
    return moduli * np.exp(1j * phases)


def per_object_mobius(a0, order, kind="plus"):
    """Coefficients of (z + a0)/(1 + conj(a0) z) ("plus") or
    (a0 - z)/(1 - conj(a0) z) ("minus") as one expansion each."""
    a0 = complex(a0)
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = a0
    if kind == "plus":
        k = np.arange(order)
        out[1:] = (-1.0) ** k * (1.0 - abs(a0) ** 2) * a0.conjugate() ** k
    else:
        out[1:] = -(1.0 - abs(a0) ** 2) * a0.conjugate() ** np.arange(order)
    return out
