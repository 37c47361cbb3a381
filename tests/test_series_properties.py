"""Property checks of the series arithmetic on random series of orders 1-80."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from bohrlab.series import TruncatedSeries, compose, derivative, integrate, make_series, mul  # noqa: E402

# Parts below 1e-100 are flushed to zero, so no product of three
# coefficients and no quotient by an index up to 81 leaves the normal range,
# where rounding is relative.
_PARTS = st.floats(-1e3, 1e3, allow_nan=False).map(lambda x: x if abs(x) >= 1e-100 else 0.0)
_SETTINGS = settings(max_examples=100, deadline=None)


def _coeffs(order: int):
    return arrays(np.float64, (2, order + 1), elements=_PARTS).map(lambda parts: parts[0] + 1j * parts[1])


@st.composite
def _series(draw, count: int, vanish: bool = False):
    """``count`` series of one drawn order; with ``vanish`` they vanish at 0."""
    order = draw(st.integers(1, 80))
    out = []
    for _ in range(count):
        coeffs = draw(_coeffs(order))
        if vanish:
            coeffs[0] = 0.0
        out.append(TruncatedSeries(coeffs))
    return out


@_SETTINGS
@given(_series(3))
def test_mul_associative_within_majorant_product(fgh):
    f, g, h = fgh
    left = mul(mul(f, g), h).coeffs
    right = mul(f, mul(g, h)).coeffs
    a, b, c = (TruncatedSeries(np.abs(s.coeffs)) for s in fgh)
    majorant = mul(mul(a, b), c).coeffs.real
    assert np.all(np.abs(left - right) <= 1e-13 * majorant)


@_SETTINGS
@given(_series(1), _series(1, vanish=True))
def test_compose_with_identity_is_exact(gs, ws):
    (g,), (w,) = gs, ws
    assert np.array_equal(compose(g, make_series([0.0, 1.0], g.order)).coeffs, g.coeffs)
    assert np.array_equal(compose(make_series([0.0, 1.0], w.order), w).coeffs, w.coeffs)


@_SETTINGS
@given(_series(1))
def test_derivative_undoes_integrate_below_top(fs):
    (f,) = fs
    back = derivative(integrate(f)).coeffs
    assert np.all(np.abs(back[:-1] - f.coeffs[:-1]) <= 1e-15 * np.abs(f.coeffs[:-1]))
    assert back[-1] == 0
