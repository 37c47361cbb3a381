"""Property checks of the series arithmetic on random series of orders 1-80."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bohrlab.series import (  # noqa: E402
    _MATMUL_ROWS,
    TruncatedSeries,
    compose,
    compose_rows,
    convolve_rows,
    derivative,
    integrate,
    make_series,
    mul,
)

_SETTINGS = settings(max_examples=100, deadline=None)


def _coeffs(rng, order: int) -> np.ndarray:
    """order + 1 coefficients whose parts lie in [-1e3, 1e3]: uniform, and
    for about a quarter of them of log-uniform magnitude from 1e-110.  Parts
    below 1e-100 are flushed to zero, so no product of three coefficients
    and no quotient by an index up to 81 leaves the normal range, where
    rounding is relative."""
    parts = rng.uniform(-1e3, 1e3, (2, order + 1))
    tiny = rng.random(parts.shape) < 0.25
    parts[tiny] = np.copysign(10.0 ** rng.uniform(-110, 3, int(tiny.sum())), parts[tiny])
    parts[np.abs(parts) < 1e-100] = 0.0
    return parts[0] + 1j * parts[1]


@st.composite
def _series(draw, count: int, vanish: bool = False):
    """``count`` series of one drawn order from 1 to 80, their coefficients
    drawn by numpy from a seed hypothesis draws; with ``vanish`` they vanish
    at 0."""
    order = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(count):
        coeffs = _coeffs(rng, order)
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


@st.composite
def _blocks(draw):
    """(a, b, tops): two (rows, N+1) stacks of seeded normal parts, rows on
    both sides of the row count at which convolve_rows switches paths, b
    vanishing at the origin, and one Horner start per row, shared by every
    row half of the time."""
    rows = draw(st.integers(1, 2 * _MATMUL_ROWS + 8))
    order = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.normal(size=(2, rows, order + 1)) + 1j * rng.normal(size=(2, rows, order + 1))
    b[:, 0] = 0.0
    if draw(st.booleans()):
        tops = [draw(st.integers(0, order))] * rows
    else:
        tops = draw(st.lists(st.integers(0, order), min_size=rows, max_size=rows))
    return a, b, tops


@_SETTINGS
@given(_blocks())
def test_block_rows_have_the_bytes_of_one_row_calls(block):
    a, b, tops = block
    convolved, composed = convolve_rows(a, b), compose_rows(a, b, tops)
    for i, top in enumerate(tops):
        assert convolved[i].tobytes() == convolve_rows(a[i : i + 1], b[i : i + 1]).tobytes()
        assert composed[i].tobytes() == compose_rows(a[i : i + 1], b[i : i + 1], [top]).tobytes()
