"""Unit tests for the truncated-series engine."""

import numpy as np
import pytest

from bohrlab import series, witnesses
from bohrlab.series import (
    BlaschkeSpec,
    _blaschke_expansion,
    _checked_columns,
    _lead_products,
    _matmul_rows,
    _spec_columns,
    MobiusTag,
    TruncatedSeries,
    add,
    blaschke_series,
    compose,
    compose_rows,
    convolve_rows,
    derivative,
    eval_blaschke,
    evaluate,
    integrate,
    majorant_eval,
    majorant_rows,
    make_series,
    mobius_rows,
    mobius_series,
    mul,
    rational_rows,
    scale,
    unit_interval,
)
from bohrlab.verify import _automorphisms
from bohrlab.witnesses import (
    DrawnSpec,
    bounded_rows,
    draw_blaschke_spec,
    extremal_theorem5,
    schwarz_from_spec,
    schwarz_rows,
)

from oracles import (
    divide_series,
    geometric_mobius,
    mobius_by_long_division,
    per_object_blaschke,
    per_object_mobius,
    py_convolve,
    rational_mobius_value,
)


def rand_series(rng, order, scale_cap=2.0, degree=None):
    d = order if degree is None else degree
    moduli = rng.uniform(0, scale_cap, d + 1)
    phases = rng.uniform(0, 2 * np.pi, d + 1)
    return make_series(moduli * np.exp(1j * phases), order)


class TestUnitInterval:
    @pytest.mark.parametrize("closed", [False, True])
    def test_accepts_and_returns_float_array(self, closed):
        got = unit_interval("x", [0, 0.5, -0.0], closed=closed)
        assert got.dtype == np.float64 and got.tolist() == [0.0, 0.5, 0.0]
        assert unit_interval("x", 0.25).shape == ()
        assert unit_interval("x", 1.0, closed=True) == 1.0

    @pytest.mark.parametrize(
        "value, closed, message",
        [
            (1.0, False, r"^x must lie in \[0, 1\)$"),
            ([0.5, -1e-300], False, r"^x must lie in \[0, 1\)$"),
            (float("nan"), False, r"^x must lie in \[0, 1\)$"),
            ([0.5, float("nan")], True, r"^x must lie in \[0, 1\]$"),
            (np.nextafter(1.0, 2.0), True, r"^x must lie in \[0, 1\]$"),
        ],
    )
    def test_refuses_by_name(self, value, closed, message):
        with pytest.raises(ValueError, match=message):
            unit_interval("x", value, closed=closed)


class TestMakeSeries:
    def test_identity_function(self):
        s = make_series([0, 1], 4)
        assert s.order == 4
        assert s.exact_degree == 1
        assert np.array_equal(s.coeffs, [0, 1, 0, 0, 0])

    def test_empty_is_zero_series(self):
        s = make_series([], 4)
        assert np.all(s.coeffs == 0)
        assert s.exact_degree == 0

    def test_mobius_prefix_matches_long_division(self):
        prefix = [0.5, 0.75, -0.375]
        s = make_series(prefix, 8)
        oracle = mobius_by_long_division(0.5, 3)
        assert np.allclose(s.coeffs[:3], oracle, atol=1e-15)
        assert np.all(s.coeffs[3:] == 0)

    def test_nonfinite_rejected_with_index(self):
        with pytest.raises(ValueError, match="index 2"):
            make_series([1.0, 2.0, np.nan], 4)
        with pytest.raises(ValueError, match="index 1"):
            make_series([1.0, np.inf], 4)

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            make_series([1, 2, 3], 1)

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_exact_degree_checks_every_trailing_coefficient(self, degree):
        # the first, a middle and the last coefficient past the degree,
        # each in either part; signed zeros count as zeros
        for index in sorted({degree + 1, 4, 5}):
            for value in (1e-300, 1e-300j):
                coeffs = np.zeros(6, dtype=np.complex128)
                coeffs[index] = value
                with pytest.raises(ValueError, match="^exact_degree set but trailing coefficients are nonzero$"):
                    TruncatedSeries(coeffs, exact_degree=degree)
        signed = np.array([1.0, 2.0, 3.0, 4.0, complex(-0.0, 0.0), complex(0.0, -0.0)])
        assert TruncatedSeries(signed, exact_degree=3).exact_degree == 3

    def test_non_integer_exact_degree_refused(self):
        # 1.7 was stored as 1
        coeffs = np.array([1.0, 2.0, 0.0, 0.0])
        for degree in (1.7, 1.0, "1"):
            with pytest.raises(ValueError, match="^exact_degree must be an integer"):
                TruncatedSeries(coeffs, exact_degree=degree)
        kept = TruncatedSeries(coeffs, exact_degree=np.int64(1)).exact_degree
        assert kept == 1 and type(kept) is int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)])
    def test_first_non_finite_index_named(self, bad):
        coeffs = np.ones(6, dtype=np.complex128)
        coeffs[2] = coeffs[4] = bad
        with pytest.raises(ValueError, match="^non-finite coefficient at index 2$"):
            TruncatedSeries(coeffs)

    def test_instances_are_immutable(self):
        s = make_series([1, 2], 4)
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0
        with pytest.raises(Exception):
            s.exact_degree = 3


class TestAdd:
    def test_z_plus_z(self):
        z = make_series([0, 1], 4)
        assert np.array_equal(add(z, z).coeffs, [0, 2, 0, 0, 0])

    def test_additive_identity(self):
        rng = np.random.default_rng(3)
        f = rand_series(rng, 10)
        zero = make_series([], 10)
        assert np.array_equal(add(f, zero).coeffs, f.coeffs)

    def test_opposite_mobius_sum_against_geometric_oracle(self):
        n = 12
        f = mobius_series(0.5, n)
        g = mobius_series(-0.5, n)
        total = add(f, g)
        oracle = np.array(geometric_mobius(0.5, n + 1)) + np.array(geometric_mobius(-0.5, n + 1))
        assert np.allclose(total.coeffs, oracle, atol=1e-15)
        # spec pattern: zeros at even indices, 1.5 then halving at odd ones
        assert np.allclose(total.coeffs[[0, 2, 4]], 0, atol=1e-15)
        assert np.allclose(total.coeffs[[1, 3]], [1.5, 0.375], atol=1e-15)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            add(make_series([1], 3), make_series([1], 4))

    def test_exact_degree_is_max_when_both_set(self):
        f = make_series([1, 1], 8)
        g = make_series([1, 0, 0, 1], 8)
        assert add(f, g).exact_degree == 3


class TestMul:
    def test_z_squared(self):
        z = make_series([0, 1], 4)
        assert np.array_equal(mul(z, z).coeffs, [0, 0, 1, 0, 0])

    def test_difference_of_squares(self):
        f = make_series([1, 1], 4)
        g = make_series([1, -1], 4)
        assert np.array_equal(mul(f, g).coeffs, [1, 0, -1, 0, 0])

    def test_first_coefficient_of_product(self):
        phi = mobius_series(0.5, 6)
        b = make_series([0.5, 0.75], 6)
        prod = mul(phi, b)
        assert prod.coeffs[1] == pytest.approx(0.5 * 0.75 + 0.75 * 0.5)

    def test_against_double_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = rand_series(rng, 24)
            g = rand_series(rng, 24)
            oracle = py_convolve(list(f.coeffs), list(g.coeffs), 25)
            assert np.allclose(mul(f, g).coeffs, oracle, atol=1e-12)

    def test_exact_degree_sum_and_truncation(self):
        f = make_series([0, 1], 4)       # degree 1
        g = make_series([0, 0, 1], 4)    # degree 2
        assert mul(f, g).exact_degree == 3
        h = make_series([0, 0, 0, 1], 4)
        assert mul(g, h).exact_degree is None  # degree 5 exceeds order 4


class TestCompose:
    def test_inner_power(self):
        g = make_series([0, 1], 6)
        w = make_series([0, 0, 1], 6)
        assert np.array_equal(compose(g, w).coeffs, [0, 0, 1, 0, 0, 0, 0])

    def test_binomial_expansion(self):
        g = make_series([0, 0, 1], 6)
        w = make_series([0, 1, 1], 6)
        assert np.array_equal(compose(g, w).coeffs, [0, 0, 1, 2, 1, 0, 0])

    def test_order_zero_returns_the_outer(self):
        g = make_series([3.0 + 1.0j], 0)
        out = compose(g, make_series([0.0], 0))
        assert out.coeffs.tobytes() == g.coeffs.tobytes()
        assert out.exact_degree == 0

    def test_rejects_nonzero_constant(self):
        g = make_series([0, 1], 6)
        w = make_series([0.5, 1], 6)
        with pytest.raises(ValueError, match="vanish"):
            compose(g, w)

    def test_majorant_contraction_under_inner_composition(self):
        # composing with an inner function cannot raise the majorant at 1/3
        g = mobius_series(0.5, 32)
        w = blaschke_series(BlaschkeSpec(zeros=(0.3,)), 32, vanish_at_origin=True)
        gw = compose(g, w)
        assert majorant_eval(gw, 1 / 3) <= majorant_eval(g, 1 / 3) + 1e-12

    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(5)
        g = rand_series(rng, 40, degree=6)
        w = blaschke_series(BlaschkeSpec(zeros=(0.4 + 0.2j,)), 40, vanish_at_origin=True)
        gw = compose(g, w)
        for z in [0.1, 0.2j, -0.15 + 0.1j]:
            direct = evaluate(g, complex(evaluate(w, z)))
            assert abs(complex(evaluate(gw, z)) - complex(direct)) < 1e-10

    def test_exact_degree_for_polynomial_pair(self):
        g = make_series([0, 0, 1], 10)
        w = make_series([0, 1, 1], 10)
        assert compose(g, w).exact_degree == 4
        w_trunc = blaschke_series(BlaschkeSpec(zeros=(0.5,)), 10, vanish_at_origin=True)
        assert compose(g, w_trunc).exact_degree is None


def full_length_compose(g, w):
    """Horner composition with a full-length convolution at every step: the
    reference for compose's truncation window."""
    n = g.order + 1
    top = g.exact_degree if g.exact_degree is not None else g.order
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = g.coeffs[top]
    for k in range(top - 1, -1, -1):
        acc = np.convolve(acc, w.coeffs)[:n]
        acc[0] += g.coeffs[k]
    return acc


class TestComposeWindow:
    """compose convolves only the prefix that can reach a kept coefficient;
    the result must equal full-length Horner bit for bit.  An inner whose
    constant is not exactly zero is refused, however small it is."""

    @pytest.mark.parametrize("order", [1, 2, 8, 64, 256])
    def test_bytes_equal_full_length_horner(self, order):
        rng = np.random.default_rng(order + 11)
        a0 = complex(0.7 * np.exp(1.3j))
        outers = [
            mobius_series(a0, order),
            extremal_theorem5(a0, order),
            rand_series(rng, order, degree=min(6, order)),
            TruncatedSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)),
        ]
        spec = draw_blaschke_spec(rng, min_zeros=2)
        tiny_constant = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        tiny_constant[0] = 1e-16
        inners = [
            schwarz_from_spec(spec, order=order),
            make_series([0.0, 1.0], order),
            schwarz_from_spec(spec, odd=True, order=order),
        ]
        for g in outers:
            for w in inners:
                assert compose(g, w).coeffs.tobytes() == full_length_compose(g, w).tobytes()
            with pytest.raises(ValueError, match=r"vanish at the origin \(\|w\(0\)\| = 1\.000e-16\)"):
                compose(g, TruncatedSeries(tiny_constant))


def mixed_specs(rng, rows):
    """Blaschke specs whose zero counts run through 0..4 within one block."""
    return [draw_blaschke_spec(rng, min_zeros=i % 5, max_zeros=i % 5) for i in range(rows)]


def straddling(orders, rows):
    """(rows, order) pairs: each row count at each order, and the two row
    counts on either side of convolve_rows' switch to one matmul per output
    at that order, _matmul_rows(order + 1)."""
    return [(r, o) for o in orders for r in sorted({*rows, _matmul_rows(o + 1) - 1, _matmul_rows(o + 1)})]


class TestRowKernels:
    """The stacked kernels give each row the bytes of an independent
    per-row reference, on both sides of the row count at which convolve_rows
    switches from per-row np.convolve to one matmul per output (compose,
    compose_rows' one-row call, meets the same reference in
    TestComposeWindow)."""

    ORDERS = [1, 2, 8, 64, 256]
    ROWS = straddling(ORDERS, [1, 13, 15, 16, 40])

    @pytest.mark.parametrize("rows, order", ROWS)
    def test_convolve_rows_matches_np_convolve(self, order, rows):
        rng = np.random.default_rng(order + rows)
        n = order + 1
        a = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        b = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        expected = np.stack([np.convolve(a[i], b[i])[:n] for i in range(rows)])
        assert convolve_rows(a, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows, order", ROWS)
    def test_blaschke_rows_match_blaschke_series(self, order, rows):
        """The Blaschke rows of bounded_rows (B) and schwarz_rows (z*B) have
        the bytes of the per-factor chain and of blaschke_series."""
        specs = mixed_specs(np.random.default_rng(order + 3 * rows), rows)
        for build, vanish in ((bounded_rows, False), (schwarz_rows, True)):
            expected = np.stack([per_object_blaschke(s.zeros, s.rotation, order, vanish) for s in specs])
            one_row = np.stack([blaschke_series(s, order, vanish_at_origin=vanish).coeffs for s in specs])
            got = build(_spec_columns(specs), order)
            assert got.tobytes() == expected.tobytes() == one_row.tobytes()

    @pytest.mark.parametrize("rows, order", ROWS)
    def test_compose_rows_matches_compose(self, order, rows):
        rng = np.random.default_rng(order + 5 * rows)
        specs = mixed_specs(rng, rows)
        a0s = [complex(a * np.exp(1j * p)) for a, p in zip(rng.uniform(0, 0.95, rows), rng.uniform(0, 6.3, rows))]
        a0s[-1] = 0j  # an exact outer of degree one, Horner from 1
        outers = [mobius_series(a0, order) for a0 in a0s]
        inners = [schwarz_from_spec(spec, order=order) for spec in specs]
        tops = [g.exact_degree if g.exact_degree is not None else order for g in outers]
        got = compose_rows([g.coeffs for g in outers], schwarz_rows(_spec_columns(specs), order), tops)
        expected = np.stack([full_length_compose(g, w) for g, w in zip(outers, inners)])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", ORDERS)
    def test_compose_rows_truncated_and_polynomial_outers(self, order):
        rng = np.random.default_rng(order)
        outers = [TruncatedSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) for _ in range(3)]
        outers.append(rand_series(rng, order, degree=min(3, order)))
        inners = [schwarz_from_spec(spec, order=order) for spec in mixed_specs(rng, 4)]
        tops = [order] * 3 + [outers[-1].exact_degree]
        got = compose_rows([g.coeffs for g in outers], [w.coeffs for w in inners], tops)
        expected = np.stack([full_length_compose(g, w) for g, w in zip(outers, inners)])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("rows", [1, 15, 16, 40])
    def test_compose_rows_mixes_every_start(self, order, rows):
        """One block whose Horner starts run through 0..min(8, N), unsorted
        and repeated, with signed zeros among the outers' coefficients and
        inners z*B(z) and odd z*B(z^2): every row has the bytes of
        full-length Horner, and a row with start 0 is [g_0, +0.0, ...]."""
        rng = np.random.default_rng(order + 17 * rows)
        n = order + 1
        tops = rng.permutation(np.arange(rows) % (min(8, order) + 1))
        g = with_signed_zeros(rng, rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n)))
        g[np.arange(n) > tops[:, None]] = 0.0
        specs = TestFirstStep.specs(rng, rows)
        odd = np.arange(rows) % 2 == 1
        w = np.where(odd[:, None], schwarz_rows(_spec_columns(specs), order, odd=True), schwarz_rows(_spec_columns(specs), order))
        got = compose_rows(g, w, tops)
        for row, outer, inner, top in zip(got, g, w, tops):
            expected = full_length_compose(TruncatedSeries(outer, exact_degree=top), TruncatedSeries(inner))
            assert row.tobytes() == expected.tobytes()
            if top == 0:
                constant = np.zeros(n, dtype=np.complex128)
                constant[0] = outer[0]
                assert row.tobytes() == constant.tobytes()

    @pytest.mark.parametrize("tops", [[0], [5], [0, 0, 0], [8, 8, 8], [3, 0, 8, 1, 8, 2, 0] * 6])
    def test_compose_rows_takes_every_first_step_at_once(self, monkeypatch, tops):
        """A block makes one _lead_products call, whatever its mix of
        starts; counted through the module global compose_rows' kernel looks
        up when called."""
        rng = np.random.default_rng(len(tops))
        g = rng.normal(size=(len(tops), 9)) + 1j * rng.normal(size=(len(tops), 9))
        w = schwarz_rows(_spec_columns(mixed_specs(rng, len(tops))), 8)
        made, real = [], series._lead_products

        def counting(x0, y):
            made.append(len(y))
            return real(x0, y)

        monkeypatch.setattr(series, "_lead_products", counting)
        compose_rows(g, w, tops)
        assert made == [len(tops)]

    def test_compose_rows_refuses_inner_off_the_origin(self):
        g = np.zeros((2, 5), dtype=complex)
        w = np.zeros((2, 5), dtype=complex)
        w[1, 0] = 1e-17  # compose would accept it; the stacked window cannot
        with pytest.raises(ValueError, match="vanish exactly at the origin"):
            compose_rows(g, w, [4, 4])

    def test_compose_rows_refuses_bad_starts(self):
        g = np.zeros((2, 5), dtype=complex)
        with pytest.raises(ValueError, match="Horner starts"):
            compose_rows(g, g, [1, 5])
        # a start of 2.7 would run from 2 and drop g_3 unseen
        g = make_series([1, 2, 3, 4], 8).coeffs[None]
        w = make_series([0, 1, 0.5], 8).coeffs[None]
        with pytest.raises(ValueError, match="Horner starts"):
            compose_rows(g, w, [2.7])
        assert compose_rows(g, w, [3]).real[0, :4].tolist() == [1, 2, 4, 7]

    def test_non_finite_block_rejected(self):
        # compose_rows checks its inputs and the block it returns; the
        # internal steps (convolve_rows, the Blaschke expansion) leave that
        # to it.  An infinite Horner start is refused, not multiplied into
        # the exact zeros of w, at any start.
        g = np.ones((3, 4), dtype=complex)
        g[2, 0] = np.inf
        w = np.zeros((3, 4), dtype=complex)
        w[:, 1] = 1.0
        for tops in ([3, 3, 3], [3, 3, 0]):
            with pytest.raises(ValueError, match="non-finite coefficient at index 0 of row 2"):
                compose_rows(g, w, tops)
        g[2] = [1.0, 1.0, 1.0, np.inf]
        with pytest.raises(ValueError, match="non-finite coefficient at index 3 of row 2"):
            compose_rows(g, w, [3, 3, 3])
        with pytest.raises(ValueError, match="non-finite coefficient"):
            compose_rows(np.full((2, 4), np.nan), np.zeros((2, 4)), [3, 3])

    # Finite blocks whose composition overflows: in the first step
    # (_lead_products, a numpy product that would warn), in a later
    # np.convolve step (which never warns), and in the first step of complex
    # parts, whose inf - inf is nan.  Each is refused as non-finite, also
    # where RuntimeWarnings are errors.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "g, w, top",
        [
            ([1e300] * 4, [0, 1e300, 1e300, 1e300], 3),
            ([1e300, 1e300, 0, 0], [0, 1e10, 0, 0], 1),
            ([0, 0, 0, 1], [0, 1e150, 0, 0], 3),
            ([(1 + 1j) * 1e300] * 4, [0] + [(1 + 1j) * 1e300] * 3, 3),
        ],
    )
    def test_overflow_refused_as_non_finite(self, g, w, top):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            compose_rows(np.array([g], dtype=complex), np.array([w], dtype=complex), [top])

    # The kernels whose rows their callers check, on either convolve_rows
    # path, leave an overflow to finite_rows too.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows", [1, 40])
    def test_overflowing_kernels_leave_their_rows_to_finite_rows(self, rows):
        big = np.full((rows, 4), (1 + 1j) * 1e300)
        den = big.copy()
        den[:, 0] = 1.0
        for block in (convolve_rows(big, big), rational_rows(big, den, 8)):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                series.finite_rows(block)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_step_products_past_the_window_never_reach_the_result(self):
        """g(w) with g = z + 1e10 z^3 and w = z + 1e300 z^8 at order 8 is
        z + 1e10 z^3 + 1e300 z^8.  The first step forms g_3 * w_8 = inf, past
        the row's first window, without a warning; the accumulator must hold
        a zero there, or the last step pairs that inf with w(0) = 0 and
        returns nan."""
        g = make_series([0, 1, 0, 1e10], 8).coeffs[None]
        w = make_series([0, 1, 0, 0, 0, 0, 0, 0, 1e300], 8).coeffs[None]
        got = compose_rows(g, w, [3])
        assert got.tobytes() == make_series([0, 1, 0, 1e10, 0, 0, 0, 0, 1e300], 8).coeffs[None].tobytes()

    def test_convolve_rows_refuses_mismatched_shapes(self):
        with pytest.raises(ValueError):
            convolve_rows(np.ones((2, 4)), np.ones((2, 5)))

    @pytest.mark.parametrize("order", ORDERS)
    def test_mobius_rows_match_per_object_expansions(self, order):
        # 1 - |a0|^2 goes through libm's pow, which differs from x * x for
        # about one a0 in a thousand: 3000 a0 meet such cases
        rng = np.random.default_rng(order + 29)
        a0s = rng.uniform(0, 0.999, 3000) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3000))
        a0s[:4] = [0j, 0.5, -0.5j, complex(0.3, -0.0)]
        for kind in ("plus", "minus"):
            expected = np.stack([per_object_mobius(a0, order, kind) for a0 in a0s])
            assert mobius_rows(a0s, order, kind).tobytes() == expected.tobytes()
        for a0 in a0s[:8]:
            for series in (mobius_series(a0, order), extremal_theorem5(a0, order)):
                assert series.coeffs.tobytes() == per_object_mobius(a0, order, series.tag.kind).tobytes()
                assert series.exact_degree == (1 if a0 == 0 else None)

    def test_mobius_rows_refuse_parameters_off_the_disk(self):
        for a0s in ([0.5, 1.0], [complex(np.nan, 0.0)]):
            with pytest.raises(ValueError, match=r"\|a0\| < 1"):
                mobius_rows(a0s, 8)
        with pytest.raises(ValueError, match="order must be >= 1"):
            mobius_rows([0.5], 0)


def with_signed_zeros(rng, values):
    """A copy of the complex array ``values`` with about a quarter of its
    real and of its imaginary parts set to +0.0 or -0.0 at random."""
    out = np.array(values, dtype=np.complex128)
    for part in (out.real, out.imag):
        hit = rng.random(part.shape) < 0.25
        part[hit] = np.where(rng.random(part.shape) < 0.5, 0.0, -0.0)[hit]
    return out


def full_first_step(x0, y):
    """The first step of a row kernel as it was taken before _lead_products:
    the full np.convolve of each row of y with a row holding x0[i] and then
    zeros."""
    x = np.zeros_like(y)
    x[:, 0] = x0
    return np.stack([np.convolve(x[i], y[i])[: y.shape[1]] for i in range(len(y))])


class TestFirstStep:
    """The first step of each row kernel, whose accumulator holds one
    coefficient (the rotation of a Blaschke expansion, the top coefficient
    of a Horner composition), is series._lead_products: the one product per
    output that the step computes, formed directly.  Every kernel keeps the
    bytes of the full first-step convolution, per_object_blaschke's and
    full_length_compose's, on both sides of _matmul_rows and with signed
    zeros on either side of the product."""

    ORDERS = [1, 2, 64, 256]
    ROWS = straddling(ORDERS, [1, 15, 16, 40])

    # Zero counts of the specs in turn: a block of one count takes every row
    # through the first step at once, the mixed one leaves rows out of it.
    COUNTS = [(4,), (1,), (4, 1, 0)]

    @staticmethod
    def specs(rng, rows, counts=(4, 1, 0)):
        """Specs with the given zero counts in turn, rotations of exactly 1
        (and 1 - 0j) among drawn ones, signed zeros in the zeros' parts."""
        rotations = [1.0 + 0.0j, complex(1.0, -0.0), None]
        specs = []
        for i in range(rows):
            count = counts[i % len(counts)]
            zeros = 0.9 * rng.random(count) * np.exp(2j * np.pi * rng.random(count))
            rotation = rotations[(i // 3) % 3]
            if rotation is None:
                rotation = complex(np.exp(2j * np.pi * rng.random()))
            specs.append(DrawnSpec(with_signed_zeros(rng, zeros), rotation))
        return specs

    @pytest.mark.parametrize("rows, order", ROWS)
    def test_lead_products_match_the_full_convolution(self, order, rows):
        rng = np.random.default_rng(order + 7 * rows)
        x0 = with_signed_zeros(rng, rng.normal(size=rows) + 1j * rng.normal(size=rows))
        x0[0] = 1.0
        y = with_signed_zeros(rng, rng.normal(size=(rows, order + 1)) + 1j * rng.normal(size=(rows, order + 1)))
        assert _lead_products(x0, y).tobytes() == full_first_step(x0, y).tobytes()

    def test_lead_products_match_on_many_rows(self):
        # numpy's complex x * y rounds 3000 such products differently from
        # the dot in most rows; the real-arithmetic form must in none
        rng = np.random.default_rng(3000)
        x0 = rng.normal(size=3000) + 1j * rng.normal(size=3000)
        y = rng.normal(size=(3000, 2)) + 1j * rng.normal(size=(3000, 2))
        assert _lead_products(x0, y).tobytes() == full_first_step(x0, y).tobytes()

    @pytest.mark.parametrize("rows, order", ROWS)
    @pytest.mark.parametrize("counts", COUNTS)
    def test_expansion_matches_the_full_first_step(self, order, rows, counts):
        specs = self.specs(np.random.default_rng(order + 11 * rows), rows, counts)
        columns = _spec_columns(specs)
        for vanish in (False, True):
            expected = np.stack([per_object_blaschke(s.zeros, s.rotation, order, vanish) for s in specs])
            assert _blaschke_expansion(*columns, order, vanish).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows, order", ROWS)
    @pytest.mark.parametrize("top", [0, 1, 8])
    def test_compose_matches_the_full_first_step(self, order, rows, top):
        """Outers of one top (at most the order), with signed zeros among
        their coefficients; inners z*B(z) and odd z*B(z^2), whose even
        coefficients are exact zeros."""
        rng = np.random.default_rng(order + 13 * rows + top)
        n = order + 1
        tops = np.full(rows, min(top, order))
        g = with_signed_zeros(rng, rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n)))
        g[np.arange(n) > tops[:, None]] = 0.0
        specs = self.specs(rng, rows)
        odd = np.arange(rows) % 2 == 1
        w = np.where(odd[:, None], schwarz_rows(_spec_columns(specs), order, odd=True), schwarz_rows(_spec_columns(specs), order))
        outers = [TruncatedSeries(row, exact_degree=tops[0]) for row in g]
        expected = np.stack([full_length_compose(outer, TruncatedSeries(row)) for outer, row in zip(outers, w)])
        assert compose_rows(g, w, tops).tobytes() == expected.tobytes()
        one_row = np.stack([compose(outer, TruncatedSeries(row)).coeffs for outer, row in zip(outers, w)])
        assert one_row.tobytes() == expected.tobytes()


class TestConvolveCalls:
    """Work pins of the Blaschke expansion, counted through the module
    global series.convolve_rows that it looks up when called (the row
    kernels make no call the benchmark's coefficient count sees).  Factor 0
    meets the rotation alone and costs no convolution."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Row counts of the convolve_rows calls made from bohrlab.series."""
        made, real = [], series.convolve_rows

        def counting(a, b):
            made.append(len(a))
            return real(a, b)

        monkeypatch.setattr(series, "convolve_rows", counting)
        return made

    @pytest.mark.parametrize("rows", [1, 40])
    def test_one_zero_specs_expand_without_a_convolution(self, calls, rows):
        rng = np.random.default_rng(rows)
        specs = [draw_blaschke_spec(rng, min_zeros=1, max_zeros=1) for _ in range(rows)]
        bounded_rows(_spec_columns(specs), 64)
        schwarz_rows(_spec_columns(specs), 64)
        schwarz_rows(_spec_columns(specs), 64, odd=True)
        blaschke_series(specs[0], 64)
        assert calls == []

    @pytest.mark.parametrize("most", [1, 2, 3, 4])
    def test_block_makes_one_call_per_zero_past_the_first(self, calls, most):
        rng = np.random.default_rng(most)
        counts = [i % (most + 1) for i in range(40)]
        bounded_rows(_spec_columns([draw_blaschke_spec(rng, min_zeros=c, max_zeros=c) for c in counts]), 64)
        assert calls == [sum(c > i for c in counts) for i in range(1, most)]


class TestRationalRows:
    """rational_rows expands num / den by its forward recurrence, and the t5/t6
    witnesses it builds (verify._automorphisms, the disk automorphism of the
    inner function z*B(z) as one rational function) stay within rounding of
    the composition they replace."""

    ORDERS = [1, 2, 8, 64, 256]

    @pytest.mark.parametrize("order", [0, 1, 8, 64])
    def test_matches_long_division(self, order):
        rng = np.random.default_rng(order + 41)
        num = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        den = np.concatenate([np.ones((3, 1)), 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))], axis=1)
        got = rational_rows(num, den, order)
        assert got.shape == (3, order + 1)
        for row, p, q in zip(got, num, den):
            assert np.allclose(row, divide_series(p, q, order + 1), rtol=0, atol=1e-12)

    def test_polynomial_denominator_one_is_the_truncated_numerator(self):
        num = np.arange(1, 7, dtype=complex)[None]
        assert np.array_equal(rational_rows(num, np.ones((1, 1)), 3), num[:, :4])
        assert np.array_equal(rational_rows(num, np.ones((1, 1)), 8), np.concatenate([num, np.zeros((1, 3))], axis=1))

    def test_refuses_bad_denominators_and_shapes(self):
        with pytest.raises(ValueError, match="constant term 1"):
            rational_rows(np.ones((2, 3)), [[1.0, 0.5], [1.0 + 1e-16j, 0.5]], 4)
        with pytest.raises(ValueError, match="row count"):
            rational_rows(np.ones((2, 3)), np.ones((3, 2)), 4)
        with pytest.raises(ValueError, match="order"):
            rational_rows(np.ones((2, 3)), np.ones((2, 2)), -1)

    @staticmethod
    def _composed(a0s, specs, order, kind):
        """The rows the t5/t6 witnesses had before: compose_rows of the Mobius
        rows by z*B(z), Horner from degree 1 at a0 = 0."""
        tops = [1 if a0 == 0 else order for a0 in a0s]
        return compose_rows(mobius_rows(a0s, order, kind), schwarz_rows(_spec_columns(specs), order), tops)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("kind", ["minus", "plus"])
    def test_automorphism_rows_match_composition(self, order, kind):
        rng = np.random.default_rng(order + 17)
        specs = mixed_specs(rng, 14)
        specs[-1] = DrawnSpec(np.empty(0, dtype=complex), complex(np.exp(0.7j)))
        a0s = list(rng.uniform(0, 0.95, 14) * np.exp(1j * rng.uniform(0, 2 * np.pi, 14)))
        a0s[0] = a0s[-2] = 0j
        got, _, _ = _automorphisms(a0s, _spec_columns(specs), order, kind)
        assert np.max(np.abs(got - self._composed(a0s, specs, order, kind))) <= 1e-14

    def test_automorphism_parameter_off_the_disk_refused(self):
        spec = DrawnSpec(np.array([0.5j]), 1 + 0j)
        with pytest.raises(ValueError, match=r"\|a0\| < 1"):
            _automorphisms([0.5, -1.0], _spec_columns([spec, spec]), 8, "minus")

    @pytest.mark.parametrize("a0", [0.95, 0.95j])
    @pytest.mark.parametrize("kind", ["minus", "plus"])
    def test_clustered_zeros_against_mpmath(self, kind, a0):
        """Accuracy where it is worst: |a0| = 0.95 and four zeros clustered
        at modulus 0.9 put the denominator's zeros within 1e-3 of the unit
        circle.  That is the trade for the recurrence's speed: here its rows
        are within 3.2e-13 of a 50-digit expansion at order 256, where
        compose_rows is within 1.4e-16, and a scan of 480 such a0 phases,
        zero spreads and both kinds found at most 9.4e-13."""
        mpmath = pytest.importorskip("mpmath")
        order = 256
        zeros = [complex(0.9 * np.exp(0.01j * j)) for j in range(4)]
        spec = DrawnSpec(np.array(zeros), 1 + 0j)
        got = _automorphisms([complex(a0)], _spec_columns([spec]), order, kind)[0][0]
        sign = 1 if kind == "plus" else -1
        with mpmath.workdps(50):
            w0, *ws = (mpmath.mpc(z.real, z.imag) for z in [complex(a0), *zeros])
            zp, q = [0, 1], [1]  # z*P and Q of z*B(z) = zP/Q, P = prod(z - w)
            for w in ws:
                zp = [(zp[k - 1] if k else 0) - w * (zp[k] if k < len(zp) else 0) for k in range(len(zp) + 1)]
                q = [(q[k] if k < len(q) else 0) - mpmath.conj(w) * (q[k - 1] if k else 0) for k in range(len(q) + 1)]
            q += [0] * (len(zp) - len(q))
            num = [w0 * b + sign * p for b, p in zip(q, zp)]
            den = [b + sign * mpmath.conj(w0) * p for b, p in zip(q, zp)]
            exact = np.array([complex(c) for c in divide_series(num, den, order + 1)])
        assert np.max(np.abs(got - exact)) <= 1e-12


# The zero cap with its slack, and the largest doubles within ROTATION_TOL =
# 1e-15 of 1 on either side; a modulus of 1 + 1e-15 itself rounds to
# 1 + 5 * 2**-52, which is 1.1e-15 off the circle.
_CAP = series.BLASCHKE_ZERO_CAP + 1e-12
_EPS = np.finfo(np.float64).eps


class TestBlaschkeRowChecks:
    """The stacked builders make BlaschkeSpec's checks on every spec they
    expand, drawn specs included, before expanding any: a bad spec is
    refused with the expansion patched to fail the test if it is reached.
    Those checks are all that bounds a Blaschke witness, so each bound is
    pinned on both sides: zeros of modulus up to 0.9 + 1e-12 and rotations
    within 1e-15 of the unit circle pass, and the next double out is
    refused."""

    BUILDERS = [
        lambda specs, order: bounded_rows(_spec_columns(specs), order),
        lambda specs, order: schwarz_rows(_spec_columns(specs), order),
        lambda specs, order: schwarz_rows(_spec_columns(specs), order, odd=True),
    ]

    GOOD = DrawnSpec(np.array([0.5j]), 1.0 + 0.0j)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (DrawnSpec(np.array([0.95 + 0.0j]), 1.0 + 0.0j), "zero with modulus 0.9500 exceeds cap 0.9"),
            (DrawnSpec(np.full(5, 0.1 + 0.0j), 1.0 + 0.0j), "at most 4 zeros"),
            (DrawnSpec(np.array([], dtype=complex), 1.0 + 1e-13 + 0.0j), "rotation must be unimodular"),
            (DrawnSpec(np.array([0.5, complex(np.nan, 0.1)]), 1.0 + 0.0j), "zero with modulus nan"),
            (DrawnSpec(np.array([0.5 + 0.0j]), complex(np.nan, 0.0)), "rotation must be unimodular .modulus nan."),
            (DrawnSpec(np.array([0.5, np.nextafter(_CAP, 1.0)]), 1.0 + 0.0j), "zero with modulus 0.9000 exceeds cap"),
            (DrawnSpec(np.array([1j * (0.9 + 2e-12)]), 1.0 + 0.0j), "zero with modulus 0.9000 exceeds cap"),
            (DrawnSpec(np.array([], dtype=complex), 1.0 + 5 * _EPS + 0.0j), "unimodular .modulus 1.0000000000000011."),
            (DrawnSpec(np.array([], dtype=complex), 1j * (1.0 - 5 * _EPS)), "unimodular .modulus 0.99999999999999889."),
            (DrawnSpec(np.array([], dtype=complex), 1.0 + 2e-15 + 0.0j), "unimodular .modulus 1.000000000000002."),
        ],
    )
    def test_bad_spec_refused(self, monkeypatch, bad, message):
        def unreached(*args, **kwargs):
            raise AssertionError("expansion ran on unchecked specs")

        monkeypatch.setattr(series, "_blaschke_expansion", unreached)
        monkeypatch.setattr(witnesses, "_blaschke_expansion", unreached)
        for build in self.BUILDERS:
            with pytest.raises(ValueError, match=message):
                build([self.GOOD, bad, self.GOOD], 8)
        with pytest.raises(ValueError, match=message):
            _checked_columns(*_spec_columns([self.GOOD, bad]))
        with pytest.raises(ValueError, match=message):
            BlaschkeSpec(zeros=tuple(bad.zeros), rotation=bad.rotation)

    def test_specs_at_the_bounds_pass(self):
        # moduli exact: real and imaginary zeros and rotations
        specs = [DrawnSpec(np.array([_CAP, -1j * _CAP, 0.5]), 1.0 + 0.0j)]
        specs += [DrawnSpec(np.array([], dtype=complex), complex(r * f)) for r in (1.0 + 4 * _EPS, 1.0 - 4.5 * _EPS) for f in (1, 1j)]
        for build in self.BUILDERS:
            assert np.all(np.isfinite(build(specs, 8)))
        _checked_columns(*_spec_columns(specs))
        for spec in specs:
            BlaschkeSpec(zeros=tuple(spec.zeros), rotation=spec.rotation)

    def test_specs_and_drawn_specs_stack_alike(self):
        rng = np.random.default_rng(4)
        specs = mixed_specs(rng, 7)
        drawn = [DrawnSpec(np.array(s.zeros, dtype=complex), s.rotation) for s in specs]
        for build in self.BUILDERS:
            assert build(drawn, 16).tobytes() == build(specs, 16).tobytes()
            assert build([], 16).shape == (0, 17)


class TestCalculus:
    def test_derivative_of_square(self):
        s = make_series([0, 0, 1], 4)
        assert np.array_equal(derivative(s).coeffs, [0, 2, 0, 0, 0])

    def test_derivative_of_constant(self):
        s = make_series([3.5], 4)
        assert np.all(derivative(s).coeffs == 0)

    def test_derivative_at_origin_matches_difference_quotient(self):
        s = derivative(mobius_series(0.5, 16))
        h = 1e-6
        quotient = (rational_mobius_value(0.5, h) - rational_mobius_value(0.5, -h)) / (2 * h)
        assert s.coeffs[0] == pytest.approx(0.75)
        assert abs(s.coeffs[0] - quotient) < 1e-9

    def test_integral_examples(self):
        assert np.array_equal(integrate(make_series([0, 2], 4)).coeffs, [0, 0, 1, 0, 0])
        assert np.all(integrate(make_series([], 4)).coeffs == 0)

    def test_round_trip_on_zero_constant_series(self):
        s = make_series([0, 1, 0, 1], 8)
        back = integrate(derivative(s))
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_round_trip_random(self):
        # multiply-then-divide by n costs two roundings, so allow 2 ulps
        rng = np.random.default_rng(29)
        coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
        coeffs[0] = 0.0
        s = make_series(coeffs, 11)
        assert np.allclose(integrate(derivative(s)).coeffs, s.coeffs, rtol=5e-16, atol=0)


class TestMajorant:
    def test_single_term(self):
        assert majorant_eval(make_series([0, 1], 4), 0.3) == pytest.approx(0.3)

    def test_mobius_tail_closed_form(self):
        f = mobius_series(0.5, 64)
        got = majorant_eval(f, 1 / 3, skip_constant=True)
        assert got == pytest.approx((1 / 3) * 0.75 / (1 - 0.5 / 3), abs=1e-12)
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_mobius_with_constant(self):
        assert majorant_eval(mobius_series(0.5, 64), 1 / 3) == pytest.approx(0.8, abs=1e-12)

    def test_domain(self):
        f = make_series([1], 4)
        for r in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                majorant_eval(f, r)

    def test_monotone_in_r_and_value_at_zero(self):
        rng = np.random.default_rng(31)
        f = rand_series(rng, 20)
        rs = np.linspace(0, 0.99, 50)
        vals = [majorant_eval(f, r) for r in rs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(abs(f.coeffs[0]))
        assert majorant_eval(f, 0.0, skip_constant=True) == 0.0


class TestStackedKernels:
    """The stacked kernels must reproduce the per-series, per-radius results
    bit for bit, so the verify reports do not depend on how witnesses are
    blocked."""

    @pytest.mark.parametrize("order", [8, 64, 256])
    def test_majorant_rows_equal_majorant_eval(self, order):
        rng = np.random.default_rng(order)
        series = [rand_series(rng, order) for _ in range(5)]
        rows = np.stack([f.coeffs for f in series])
        rs = np.sort(rng.uniform(0.0, 0.99, 12))
        for skip in (False, True):
            got = majorant_rows(rows, rs, skip_constant=skip)
            want = [[majorant_eval(f, float(r), skip_constant=skip) for r in rs] for f in series]
            assert got.shape == (5, 12)
            assert np.array_equal(got, np.array(want))

    def test_single_row_and_domain(self):
        f = mobius_series(0.5, 64)
        assert majorant_rows(f.coeffs[None, :], [1 / 3])[0, 0] == majorant_eval(f, 1 / 3)
        for r in (-0.1, 1.0):
            with pytest.raises(ValueError):
                majorant_rows(f.coeffs[None, :], [0.2, r])


class TestMobiusSeries:
    # Both automorphisms come from one builder; each keeps its kind's bits,
    # exact degree 1 only at a0 = 0 (also at order 1, where a truncation has
    # degree 1 too) and a tag of its kind.
    @pytest.mark.parametrize("order", [1, 8, 64])
    @pytest.mark.parametrize("a0, degree", [(0.0, 1), (-0.0, 1), (0.5, None), (0.3 + 0.4j, None)])
    def test_automorphisms_keep_bytes_degree_and_tag(self, a0, degree, order):
        for build, kind in ((mobius_series, "plus"), (extremal_theorem5, "minus")):
            s = build(a0, order)
            assert s.coeffs.tobytes() == per_object_mobius(a0, order, kind).tobytes()
            assert s.exact_degree == degree
            assert s.tag == MobiusTag(complex(a0), kind)
            assert np.complex128(s.tag.a0).tobytes() == np.complex128(a0).tobytes()

    def test_identity_automorphism(self):
        s = mobius_series(0.0, 6)
        assert np.array_equal(s.coeffs, [0, 1, 0, 0, 0, 0, 0])
        assert s.exact_degree == 1

    def test_half_against_long_division(self):
        s = mobius_series(0.5, 10)
        oracle = mobius_by_long_division(0.5, 11)
        assert np.allclose(s.coeffs, oracle, atol=1e-14)
        assert np.allclose(
            s.coeffs[:5], [0.5, 0.75, -0.375, 0.1875, -0.09375], atol=1e-15
        )

    def test_complex_parameter_against_long_division(self):
        a0 = 0.3 - 0.4j
        s = mobius_series(a0, 12)
        oracle = mobius_by_long_division(a0, 13)
        assert np.allclose(s.coeffs, oracle, atol=1e-14)

    def test_modulus_pattern(self):
        a0 = 0.6 * np.exp(0.7j)
        s = mobius_series(a0, 20)
        k = np.arange(1, 21)
        expected = (1 - 0.36) * 0.6 ** (k - 1)
        assert np.allclose(np.abs(s.coeffs[1:]), expected, atol=1e-14)

    def test_tagged_tail_matches_closed_form(self):
        s = mobius_series(0.5, 64)
        for r in (0.1, 1 / 3, 0.6):
            closed = r * 0.75 / (1 - 0.5 * r)
            assert s.tag.majorant(r, skip_constant=True) == pytest.approx(closed, abs=1e-15)

    def test_rejects_boundary_parameter(self):
        with pytest.raises(ValueError):
            mobius_series(1.0, 8)


class TestBlaschke:
    def test_no_zeros_vanishing_is_z(self):
        s = blaschke_series(BlaschkeSpec(), 5, vanish_at_origin=True)
        assert np.array_equal(s.coeffs, [0, 1, 0, 0, 0, 0])
        assert s.exact_degree == 1

    def test_single_zero_table(self):
        s = blaschke_series(BlaschkeSpec(zeros=(0.3,)), 3)
        assert np.allclose(s.coeffs, [-0.3, 0.91, 0.273, 0.0819], atol=1e-15)

    def test_boundary_modulus_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            count = rng.integers(0, 5)
            zeros = tuple(
                rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform()) for _ in range(count)
            )
            spec = BlaschkeSpec(zeros=zeros, rotation=np.exp(2j * np.pi * rng.uniform()))
            zs = 0.95 * np.exp(2j * np.pi * np.arange(360) / 360)
            assert np.max(np.abs(eval_blaschke(spec, zs))) <= 1 + 1e-9

    def test_series_tracks_rational_form_inside_disk(self):
        spec = BlaschkeSpec(zeros=(0.5, -0.2 + 0.3j), rotation=1j)
        s = blaschke_series(spec, 64)
        for z in (0.1, 0.25j, -0.3 + 0.1j):
            assert abs(complex(evaluate(s, z)) - complex(eval_blaschke(spec, z))) < 1e-12

    def test_factor_scale_rounds_as_python_abs_and_pow(self):
        # 1 - |z|^2 is formed with Python's abs and **: np.abs differs from
        # abs for about a third of these zeros, and for the last three
        # 1 - x * x differs from 1 - x ** 2
        rng = np.random.default_rng(61)
        zeros = rng.uniform(0, 0.9, 500) * np.exp(2j * np.pi * rng.uniform(size=500))
        pow_cases = [0.28913086537829197 + 0.804863892294941j, 0.608663498096065 - 0.578642626732383j,
                     -0.7141710867428176 - 0.3422441696417266j]
        zeros = np.append(zeros, pow_cases)
        mods = [abs(z) for z in zeros.tolist()]
        assert np.any(np.abs(zeros) != mods)
        assert all(1.0 - m**2 != 1.0 - m * m for m in mods[-3:])
        gaps = np.array([1.0 - m**2 for m in mods])
        rows = bounded_rows(_spec_columns([DrawnSpec(np.array([z]), 1.0 + 0.0j) for z in zeros]), 2)
        assert rows[:, 1].real.tobytes() == gaps.tobytes()
        for z, gap in zip(zeros.tolist(), gaps):
            assert blaschke_series(BlaschkeSpec(zeros=(z,)), 2).coeffs[1].real == gap
            assert mobius_series(z, 2).coeffs[1].real == gap

    def test_zero_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            BlaschkeSpec(zeros=(0.95,))

    def test_zero_count_cap(self):
        with pytest.raises(ValueError, match="at most"):
            BlaschkeSpec(zeros=(0.1, 0.2, 0.3, 0.4, 0.5))

    def test_rotation_must_be_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            BlaschkeSpec(rotation=0.9)

    def test_nan_zero_and_rotation_refused(self):
        # NaN fails every comparison, so each check must ask for the good case
        with pytest.raises(ValueError, match="zero with modulus nan"):
            BlaschkeSpec(zeros=(float("nan"),))
        with pytest.raises(ValueError, match="rotation must be unimodular"):
            BlaschkeSpec(rotation=float("nan"))


class TestDunders:
    def test_arithmetic_sugar(self):
        z = make_series([0, 1], 4)
        assert np.array_equal((z + z).coeffs, [0, 2, 0, 0, 0])
        assert np.array_equal((2.0 * z).coeffs, [0, 2, 0, 0, 0])
        assert np.array_equal((z - z).coeffs, np.zeros(5))
        assert np.array_equal((-z).coeffs, [0, -1, 0, 0, 0])
        assert np.array_equal((z * z).coeffs, mul(z, z).coeffs)

    def test_scale_keeps_exactness(self):
        s = scale(make_series([1, 2], 6), 3.0)
        assert s.exact_degree == 1
        assert np.array_equal(s.coeffs, [3, 6, 0, 0, 0, 0, 0])
