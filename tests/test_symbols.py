import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momsym.spectra as spectra
import momsym.symbols as symbols
from momsym import (CoefficientScaling, LaurentSymbol, MomentarySymbol,
                    NumericError, ParseError, block_reinterpret,
                    distribution_test, eig_general_small, eig_hermitian, evaluate_symbol,
                    fourier_coefficients, interlacing_check, load_symbol,
                    momentary_evaluate, momentary_mul, parse_scaling,
                    symbol_add, symbol_hermitian, symbol_mul,
                    symmetrize_tridiagonal, tau_matrix, toeplitz)
from momsym.symbols import _tensor_grid


def second_diff():
    return LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0})


def rising_bidiag():
    # 2 + e^{i theta}
    return LaurentSymbol({0: 2.0, 1: 1.0})


def random_symbol(rng, d=1, s=1, r=1, deg=3):
    coeffs = {}
    for k in np.ndindex(*([2 * deg + 1] * d)):
        key = tuple(int(v) - deg for v in k)
        m = rng.normal(size=(s, r)) + 1j * rng.normal(size=(s, r))
        coeffs[key] = m
    return LaurentSymbol(coeffs, d=d, s=s, r=r)


def sample_broadcast(f, thetas):
    """LaurentSymbol.sample as one (npts, s, r) broadcast product per key."""
    pts = np.asarray(thetas, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    out = np.zeros((pts.shape[0], f.s, f.r), dtype=complex)
    for k, m in f.coeffs.items():
        phase = np.exp(1j * (pts @ np.asarray(k, dtype=float)))
        out += phase[:, None, None] * m
    return out


# coefficient entries: signed zeros, zero and nonzero parts mixed, and nonzero noise
_ENTRY_PARTS = st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-3.0, 3.0)


@st.composite
def sampled_symbols(draw):
    """(symbol, points): d in 1..3, s and r in 1..3; key components may be non-integer
    (the constructor truncates them); points from a midpoint grid or drawn freely."""
    d, s, r = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    component = st.integers(-5, 5) | st.floats(-5.9, 5.9)
    keys = draw(st.lists(st.tuples(*[component] * d), min_size=1, max_size=6))
    coeffs = {k: np.array(draw(st.lists(st.builds(complex, _ENTRY_PARTS, _ENTRY_PARTS),
                                        min_size=s * r, max_size=s * r))).reshape(s, r)
              for k in keys}
    if draw(st.booleans()):
        n = draw(st.integers(1, 24))
        pts = _tensor_grid([-math.pi + 2 * math.pi * (np.arange(n) + 0.5) / n] * d)
    else:
        pts = np.array(draw(st.lists(st.tuples(*[st.floats(-8.0, 8.0)] * d),
                                     min_size=1, max_size=60)))
    return LaurentSymbol(coeffs, d=d, s=s, r=r), pts


class TestEvaluate:
    def test_second_difference_values(self):
        f = second_diff()
        assert f(0.0) == pytest.approx(0.0, abs=1e-15)
        assert f(math.pi) == pytest.approx(4.0, abs=1e-15)

    def test_interpolation_symbol_at_zero(self):
        p = LaurentSymbol({0: [[1.0], [2.0]], 1: [[1.0], [0.0]]})
        assert np.allclose(evaluate_symbol(p, 0.0), [[2.0], [2.0]], atol=1e-15)

    def test_theta_arity_mismatch(self):
        f = LaurentSymbol({(0, 0): 1.0})
        with pytest.raises(ValueError):
            f.eval([0.1])

    def test_periodicity(self):
        f = second_diff()
        for theta in (0.3, 1.7, -2.2):
            assert f(theta) == pytest.approx(f(theta + 2 * math.pi), abs=1e-12)

    def test_zero_coefficients_pruned(self):
        f = LaurentSymbol({0: 2.0, 3: 0.0})
        assert f.support() == [(0,)]

    def test_coefficients_immutable(self):
        f = second_diff()
        with pytest.raises(ValueError):
            f.coeff(0)[0, 0] = 99.0

    @settings(deadline=None, max_examples=300)
    @given(sampled_symbols(), st.sampled_from([spectra._QUAD_CHUNK]) | st.integers(2, 40))
    def test_sample_matches_broadcast_bitwise(self, case, chunk):
        # whole, and in the even parts of at least two points that distribution_test
        # samples (one point of a scalar symbol alone is rounded as scalar arithmetic)
        f, pts = case
        want = sample_broadcast(f, pts)
        got = f.sample(pts)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        parts = np.array_split(np.arange(len(pts)), max(1, len(pts) // chunk))
        for part in parts:
            assert f.sample(pts[part]).tobytes() == want[part].tobytes()


# axis values: signed zeros and nonzero ones
_AXIS_VALUES = st.sampled_from([0.0, -0.0]) | st.floats(-8.0, 8.0)


@st.composite
def grid_symbols(draw, d, s, r):
    """A symbol whose keys have every zero pattern, the all-zero key and |k_i| >= 3
    included, with entries that may be -0.0."""
    keys = []
    for _ in range(draw(st.integers(1, 6))):
        moves = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        keys.append(tuple(draw(st.integers(-6, 6).filter(bool)) if m else 0 for m in moves))
    coeffs = {k: np.array(draw(st.lists(st.builds(complex, _ENTRY_PARTS, _ENTRY_PARTS),
                                        min_size=s * r, max_size=s * r))).reshape(s, r)
              for k in keys}
    return LaurentSymbol(coeffs, d=d, s=s, r=r)


@st.composite
def grid_axes(draw, d):
    """d axes of length 0, 1 or more in any position; sometimes a one-point grid."""
    one_point = draw(st.booleans())
    sizes = st.just(1) if one_point else st.sampled_from([0, 1, 2]) | st.integers(3, 20)
    return [np.array(draw(st.lists(_AXIS_VALUES, min_size=n, max_size=n)), dtype=float)
            for n in draw(st.lists(sizes, min_size=d, max_size=d))]


@st.composite
def grid_cases(draw):
    d, s, r = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [draw(grid_symbols(d, s, r)) for _ in range(2)], draw(grid_axes(d))


class TestSampleGrid:
    """sample_grid(axes) has the bytes of sample(_tensor_grid(axes))."""

    @staticmethod
    def _same(got, want):
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(grid_cases())
    def test_matches_point_array_bitwise(self, case):
        (f, _), axes = case
        self._same(f.sample_grid(axes), f.sample(_tensor_grid(axes)))

    @settings(deadline=None, max_examples=150)
    @given(grid_cases(), st.integers(1, 40), st.sampled_from([-0.0, 0.5, -3.0]) |
           st.floats(-4.0, 4.0))
    def test_momentary_matches_point_array_bitwise(self, case, n, value):
        (f, g), axes = case
        table = CoefficientScaling.table({(n,): value})
        product = CoefficientScaling.inverse_power(2).multiply(table)
        assert product.to_json()["form"] == "product"
        m = MomentarySymbol([(table, f), (product, g), (CoefficientScaling.one(), f)])
        self._same(m.sample_grid(axes, (n,)), m.sample(_tensor_grid(axes), (n,)))

    def test_one_variable_keys_build_no_point_array(self, monkeypatch):
        rng = np.random.default_rng(5)
        f = LaurentSymbol({(0, 0, 0): [[1.0, -0.0]], (3, 0, 0): [[0.5j, 2.0]],
                           (0, -1, 0): [[1.0 - 1j, 0.25]], (0, 0, 4): [[-2.0, 1j]]})
        m = MomentarySymbol([(CoefficientScaling.one(), f),
                             (CoefficientScaling.inverse_power(1), f.scale(0.5))])
        axes = [rng.uniform(-4, 4, 7), np.array([-0.0]), rng.uniform(-4, 4, 5)]
        want = f.sample(_tensor_grid(axes)), m.sample(_tensor_grid(axes), (9,))
        monkeypatch.setattr(symbols, "_tensor_grid", mock.Mock(side_effect=AssertionError))
        self._same(f.sample_grid(axes), want[0])
        self._same(m.sample_grid(axes, (9,)), want[1])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="must have 2 components"):
            LaurentSymbol({(1, 0): 1.0}).sample_grid([np.zeros(3)])


class TestFourierCoefficients:
    def test_second_difference_recovery(self):
        got = fourier_coefficients(lambda t: 2 - 2 * math.cos(t), 2, 16)
        assert got.support() == [(-1,), (0,), (1,)]
        assert got.allclose(second_diff(), tol=1e-13)

    def test_constant(self):
        got = fourier_coefficients(lambda t: 1.0, 3)
        assert got.support() == [(0,)]
        assert got.coeff(0)[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_one_sided_exponential(self):
        got = fourier_coefficients(lambda t: 2 + np.exp(1j * t), 1, 8)
        assert got.allclose(rising_bidiag(), tol=1e-13)

    def test_roundtrip_on_random_polynomials(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_symbol(rng, deg=3)
            got = fourier_coefficients(lambda t: f.eval(t), 3, 16)
            assert got.allclose(f, tol=1e-12)

    def test_matrix_valued_roundtrip(self):
        rng = np.random.default_rng(12)
        f = random_symbol(rng, s=2, r=2, deg=2)
        got = fourier_coefficients(lambda t: f.eval(t), 2, 12)
        assert got.allclose(f, tol=1e-12)

    def test_bivariate_roundtrip(self):
        rng = np.random.default_rng(13)
        f = random_symbol(rng, d=2, deg=1)
        got = fourier_coefficients(lambda t: f.eval(t), [(-1, 1), (-1, 1)], 8)
        assert got.allclose(f, tol=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fourier_coefficients(lambda t: 1.0, 4, 6)

    def test_non_finite_output(self):
        with pytest.raises(NumericError):
            fourier_coefficients(lambda t: float("nan"), 1, 8)

    @pytest.mark.parametrize("k_range", [-2, [-2]], ids=["scalar", "list"])
    def test_negative_bound_is_an_empty_range(self, k_range):
        with pytest.raises(ValueError, match="^empty coefficient range$"):
            fourier_coefficients(lambda t: 1.0, k_range)

    def test_empty_range_list_is_refused(self):
        with pytest.raises(ValueError, match=r"^k_range \[\] names no coefficient range$"):
            fourier_coefficients(lambda t: 1.0, [])

    @settings(deadline=None)
    @given(st.data())
    def test_inverts_laurent_symbol(self, data):
        d, s, r, K = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)),
                      data.draw(st.integers(1, 2)), data.draw(st.integers(0, 3)))
        keys = data.draw(st.lists(st.tuples(*[st.integers(-K, K)] * d),
                                  min_size=1, max_size=6, unique=True))
        parts = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
        f = LaurentSymbol({k: np.array(data.draw(st.lists(
            st.builds(complex, parts, parts), min_size=s * r, max_size=s * r))).reshape(s, r)
            for k in keys}, d=d, s=s, r=r)
        got = fourier_coefficients(lambda t: f.eval(t), [K] * d)
        assert got.support() == f.support()
        assert got.allclose(f, tol=1e-12)

    @pytest.mark.parametrize("d, pts", [(1, 8), (2, 6)])
    def test_callable_called_once_per_node(self, d, pts):
        calls = []

        def f(t):
            calls.append(t)
            return 1.0

        fourier_coefficients(f, [(-1, 1)] * d, pts)
        assert len(calls) == pts ** d

    def test_value_shape_change_rejected(self):
        calls = []

        def f(t):
            calls.append(t)
            return 3 * np.eye(2) if len(calls) == 1 else 1.0

        with pytest.raises(ValueError):
            fourier_coefficients(f, 1)

    @pytest.mark.parametrize("value", ["lots", "600"])
    def test_quadrature_ignores_environment(self, monkeypatch, value):
        f = LaurentSymbol({(0, 0): 3.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -0.5j, (0, -1): 0.5j})
        spec = eig_hermitian(toeplitz(second_diff(), 8))

        def run():
            return (fourier_coefficients(lambda t: f.eval(t), [2, 2]).to_json(),
                    distribution_test(spec, second_diff(), f_id="abs_power_2"))

        monkeypatch.delenv("MOMSYM_QUAD_POINTS", raising=False)
        want = run()
        monkeypatch.setenv("MOMSYM_QUAD_POINTS", value)
        assert run() == want


class TestAlgebra:
    def test_gram_symbol(self):
        f = rising_bidiag()
        g = symbol_mul(symbol_hermitian(f), f)
        assert g.allclose(LaurentSymbol({0: 5.0, 1: 2.0, -1: 2.0}), tol=1e-15)

    def test_add_zero_identity(self):
        f = second_diff()
        assert symbol_add(f, LaurentSymbol.zero()) == f

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            symbol_add(second_diff(), LaurentSymbol({0: np.eye(2)}))

    def test_mul_inner_dimension_mismatch(self):
        a = LaurentSymbol({0: np.ones((2, 2))})
        b = LaurentSymbol({0: np.ones((1, 2))})
        with pytest.raises(ValueError):
            symbol_mul(a, b)

    def test_hermitian_evaluation_property(self):
        rng = np.random.default_rng(21)
        for s, r in ((1, 1), (2, 3)):
            f = random_symbol(rng, s=s, r=r, deg=2)
            for theta in rng.uniform(-math.pi, math.pi, size=20):
                want = f.eval(theta).conj().T
                assert np.allclose(symbol_hermitian(f).eval(theta), want, atol=1e-13)

    def test_mul_matches_pointwise_product(self):
        rng = np.random.default_rng(22)
        a = random_symbol(rng, s=2, r=3, deg=2)
        b = random_symbol(rng, s=3, r=2, deg=2)
        ab = symbol_mul(a, b)
        for theta in rng.uniform(-math.pi, math.pi, size=200):
            want = a.eval(theta) @ b.eval(theta)
            assert np.allclose(ab.eval(theta), want, atol=1e-12)

    def test_scalar_scaling(self):
        f = second_diff()
        assert (2.0 * f).coeff(0)[0, 0] == 4.0
        assert (f * 0.5).coeff(1)[0, 0] == -0.5


class TestMomentary:
    def test_diverging_plus_constant_evaluation(self):
        # (n+1)^2 (2 - 2cos theta) + 1 at n=3, theta=pi: 16*4 + 1
        m = MomentarySymbol([
            (CoefficientScaling.inverse_power(-2, "n+1"), second_diff()),
            (CoefficientScaling.one(), LaurentSymbol({0: 1.0})),
        ])
        got = momentary_evaluate(m, [math.pi], 3)[0, 0]
        assert got == pytest.approx(65.0, abs=1e-12)
        assert m.has_diverging

    def test_shifted_bidiagonal_evaluation(self):
        m = MomentarySymbol([
            (CoefficientScaling.one(), rising_bidiag()),
            (CoefficientScaling.inverse_power(1, "n"), LaurentSymbol({0: 1.0})),
        ])
        got = momentary_evaluate(m, [0.0], 10)[0, 0]
        assert got == pytest.approx(3.1, abs=1e-12)

    def test_constant_scalings_size_independent(self):
        m = MomentarySymbol([
            (CoefficientScaling.one(), second_diff()),
            (CoefficientScaling.one(), LaurentSymbol({0: 1.0})),
        ])
        v5 = m.eval([1.2], 5)
        v500 = m.eval([1.2], 500)
        assert np.array_equal(v5, v500)
        assert m.glt_symbol().allclose(LaurentSymbol({0: 3.0, 1: -1.0, -1: -1.0}))

    def test_scaling_arity_errors(self):
        with pytest.raises(ValueError):
            CoefficientScaling.inverse_power(2, "n")((3, 4))
        with pytest.raises(ValueError):
            CoefficientScaling.ratio_N_over_n2()(5)

    def test_mul_distributes_over_terms(self):
        f1, f2 = second_diff(), LaurentSymbol({0: 1.0})
        left = MomentarySymbol([
            (CoefficientScaling.one(), f1),
            (CoefficientScaling.inverse_power(1, "n"), f2),
        ])
        right = MomentarySymbol.constant(f1)
        prod = momentary_mul(left, right)
        assert len(prod.terms) == 2
        tags = sorted(g.class_tag for g, _ in prod.terms)
        assert tags == ["constant", "decaying"]

    def test_gram_of_shifted_bidiagonal(self):
        m = MomentarySymbol([
            (CoefficientScaling.one(), rising_bidiag()),
            (CoefficientScaling.inverse_power(1, "n"), LaurentSymbol({0: 1.0})),
        ])
        g = momentary_mul(m.hermitian(), m)
        for n in (4, 10):
            h = 1.0 / n
            fixed = g.fixed_size(n)
            assert fixed.coeff(0)[0, 0] == pytest.approx(1 + (2 + h) ** 2, abs=1e-14)
            assert fixed.coeff(1)[0, 0] == pytest.approx(2 + h, abs=1e-14)
            assert fixed.coeff(-1)[0, 0] == pytest.approx(2 + h, abs=1e-14)
        assert g.glt_symbol().allclose(LaurentSymbol({0: 5.0, 1: 2.0, -1: 2.0}))

    def test_add_merges_equal_scalings(self):
        m = MomentarySymbol.constant(second_diff())
        total = m + MomentarySymbol.constant(second_diff())
        assert len(total.terms) == 1
        assert total.terms[0][1].coeff(0)[0, 0] == 4.0

    def test_term_shape_mismatch(self):
        with pytest.raises(ValueError):
            MomentarySymbol([
                (CoefficientScaling.one(), second_diff()),
                (CoefficientScaling.one(), LaurentSymbol({0: np.eye(2)})),
            ])


class TestScalingAlgebra:
    def test_same_base_products_sum_exponents(self):
        a = CoefficientScaling.inverse_power(1, "n")
        b = CoefficientScaling.inverse_power(2, "n")
        prod = a.multiply(b)
        assert prod.form == "inverse_power" and prod.p == 3
        assert prod(4) == pytest.approx(4.0 ** -3)

    def test_cancellation_gives_one(self):
        a = CoefficientScaling.inverse_power(-2, "n+1")
        b = CoefficientScaling.inverse_power(2, "n+1")
        assert a.multiply(b).form == "one"
        assert a.class_tag == "diverging" and b.class_tag == "decaying"

    def test_unlike_forms_become_lazy_table(self):
        a = CoefficientScaling.inverse_power(1, "n")
        b = CoefficientScaling.table({(8,): 0.125})
        prod = a.multiply(b)
        assert prod.form == "table"
        assert prod(8) == pytest.approx(0.125 / 8)

    @pytest.mark.parametrize("g", [
        CoefficientScaling.inverse_power(-400, "n"),
        CoefficientScaling.inverse_power(-200, "n").multiply(
            CoefficientScaling.inverse_power(-200, "n+1")),
    ], ids=["power", "product"])
    def test_overflow_is_numeric_error(self, g):
        # 7^400 raises OverflowError and 7^200 * 8^200 is inf; both are refused alike
        with pytest.raises(NumericError, match="not finite at size 7"):
            g(7)
        assert math.isfinite(g(1))  # the same scaling stays finite at a small size

    @pytest.mark.parametrize("call, at", [
        (lambda: CoefficientScaling.inverse_power(2)((0,)), "(0,)"),
        (lambda: CoefficientScaling.inverse_power(2, "n+1")((-1,)), "(-1,)"),
        (lambda: CoefficientScaling.ratio_N_over_n2()((3, 0)), "(3, 0)"),
        (lambda: MomentarySymbol([(CoefficientScaling.inverse_power(2), second_diff())])
         .fixed_size(0), "0"),
    ], ids=["power", "power_n+1", "ratio", "fixed_size"])
    def test_zero_size_is_numeric_error(self, call, at):
        # a division by a zero size is refused like an overflow, not as ZeroDivisionError
        with pytest.raises(NumericError, match=re.escape(f"is not finite at size {at}")):
            call()

    @pytest.mark.parametrize("g, size, want", [
        (CoefficientScaling.ratio_N_over_n2(), (1, 10 ** 200), 0.0),
        (CoefficientScaling.ratio_N_over_n2(), (10 ** 300, 10 ** 200), 1e-100),
        (CoefficientScaling.inverse_power(1), (10 ** 400,), 0.0),
        (CoefficientScaling.inverse_power(10 ** 9), (10 ** 400,), 0.0),
        (CoefficientScaling.inverse_power(10 ** 400), (1,), 1.0),
    ], ids=["ratio_zero", "ratio", "power", "huge_power", "power_of_one"])
    def test_in_range_value_past_the_float_range_on_the_way(self, g, size, want):
        # float(n) ** 2, float(10**400) or the float of p overflows; the exact value does not
        assert g(size) == want

    @pytest.mark.parametrize("g, size", [
        (CoefficientScaling.inverse_power(-1), (10 ** 400,)),
        (CoefficientScaling.inverse_power(-10 ** 9), (7,)),
        (CoefficientScaling.ratio_N_over_n2(), (10 ** 400, 1)),
    ], ids=["power", "huge_power", "ratio"])
    def test_diverging_value_is_numeric_error(self, g, size):
        # 7 ** 10**9 is never computed: its bit length alone shows that it overflows
        with pytest.raises(NumericError, match="is not finite at size"):
            g(size)

    @pytest.mark.parametrize("call, error", [
        (lambda: CoefficientScaling.inverse_power(-1)((10 ** 5000,)),
         (NumericError, "(<integer of 5001 digits>,)")),
        (lambda: CoefficientScaling.inverse_power(-1)(-10 ** 4300),
         (NumericError, "(-<integer of 4301 digits>,)")),
        (lambda: CoefficientScaling.ratio_N_over_n2()((10 ** 5000, 0)),
         (NumericError, "(<integer of 5001 digits>, 0)")),
        (lambda: CoefficientScaling.inverse_power(-1).multiply(
            CoefficientScaling.table({(10 ** 5000,): 2.0}))((10 ** 5000,)),
         (NumericError, "(<integer of 5001 digits>,)")),
        (lambda: CoefficientScaling.table({(1,): 1.0})((10 ** 5000,)),
         (ValueError, "size (<integer of 5001 digits>,) not present in scaling table")),
        (lambda: CoefficientScaling.ratio_N_over_n2()([1 - 10 ** 4300, 0]),
         (NumericError, f"[{1 - 10 ** 4300}, 0]")),
    ], ids=["power", "negative_int", "ratio", "product_factor", "table", "at_the_limit"])
    def test_size_past_the_str_digit_limit_is_named_by_digit_count(self, call, error):
        # str() of an int past 4300 digits raises ValueError; the refusal names its length
        kind, text = error
        with pytest.raises(kind) as got:
            call()
        assert type(got.value) is kind and str(got.value).endswith(text)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 2 ** 1200) | st.sampled_from(
        [10 ** 400, 2 ** 1024, 2 ** 1024 - 2 ** 970, 2 ** 512, 3 ** 700]), st.integers(-40, 40))
    def test_inverse_power_is_the_float_formula_or_the_exact_value(self, n, p):
        # the float formula wherever it does not overflow, else the exact value rounded once
        try:
            want = float(n) ** -p
        except OverflowError:
            try:
                want = float(Fraction(n) ** -p)
            except OverflowError:
                with pytest.raises(NumericError):
                    CoefficientScaling.inverse_power(p)((n,))
                return
        assert CoefficientScaling.inverse_power(p)((n,)) == want

    def test_ratio_form(self):
        g = CoefficientScaling.ratio_N_over_n2()
        assert g((3, 4)) == pytest.approx(3 / 16)
        assert g.class_tag == "decaying"

    def test_table_missing_size(self):
        g = CoefficientScaling.table({(8,): 0.125})
        with pytest.raises(ValueError):
            g(9)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(st.booleans(), st.sampled_from([
        CoefficientScaling.inverse_power(3, "n"), CoefficientScaling.inverse_power(-2, "n+1"),
        CoefficientScaling.table({(7,): 0.3, (9,): 1e300}), CoefficientScaling.one(),
        CoefficientScaling.table({(7,): -2.5, (9,): 1e10}, class_tag="diverging")])),
        min_size=1, max_size=12))
    def test_product_tree_folds_like_the_recursive_definitions(self, steps):
        # each step multiplies the tree so far by a factor, on the left or the right
        g = CoefficientScaling.one()
        for on_left, factor in steps:
            g = factor.multiply(g) if on_left else g.multiply(factor)

        def call(h, size):
            # the recursive __call__ the fold replaced: every product checks its value
            if h._factors is None:
                return h(size)
            key = (size,) if isinstance(size, int) else size
            value = call(h._factors[0], key) * call(h._factors[1], key)
            if not math.isfinite(value):
                raise NumericError(f"scaling {h._json_text()} is not finite at size {size}")
            return value

        def to_json(h):
            if h._factors is None:
                return h.to_json()
            return {"form": "product", "factors": [to_json(f) for f in h._factors]}

        assert g.to_json() == to_json(g)
        assert g._json_text() == json.dumps(to_json(g), sort_keys=True)
        assert CoefficientScaling.from_json(g.to_json()) == g
        for size in (7, 9):
            try:
                want = call(g, size)
            except NumericError as exc:
                with pytest.raises(NumericError) as got:
                    g(size)
                assert str(got.value) == str(exc)
            else:
                got = g(size)
                assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_parse_scaling_inline_and_roundtrip(self):
        g = parse_scaling('{"form":"inverse_power","p":2,"base":"n+1"}')
        assert g(7) == pytest.approx(1 / 64)
        again = CoefficientScaling.from_json(g.to_json())
        assert again == g
        t = parse_scaling('{"form":"table","values":{"8":0.125}}')
        assert t(8) == pytest.approx(0.125)

    @pytest.mark.parametrize("g, sizes", [
        (CoefficientScaling.one(), [4, 9]),
        (CoefficientScaling.inverse_power(2, "n"), [4, 9]),
        (CoefficientScaling.inverse_power(-1, "n+1"), [4, 9]),
        (CoefficientScaling.ratio_N_over_n2(), [(3, 4), (8, 5)]),
        (CoefficientScaling.table({4: 0.5, 9: 0.25}), [4, 9]),
        (CoefficientScaling.table({4: 2.0, 9: 3.0}, class_tag="constant"), [4, 9]),
        (CoefficientScaling.table({4: 5.0}, class_tag="diverging"), [4]),
        (CoefficientScaling.inverse_power(1, "n").multiply(
            CoefficientScaling.inverse_power(-1, "n+1")), [4, 9]),
        (CoefficientScaling.table({4: 2.0, 9: 3.0}, class_tag="constant").multiply(
            CoefficientScaling.inverse_power(1, "n")).multiply(
            CoefficientScaling.inverse_power(2, "n+1")), [4, 9]),
        ((MomentarySymbol([(CoefficientScaling.ratio_N_over_n2(), second_diff())])
          * MomentarySymbol([(CoefficientScaling.table({(3, 4): 2.0}), second_diff())])
          ).terms[0][0], [(3, 4)]),
    ], ids=["one", "inverse_power", "inverse_power_n+1", "ratio", "table",
            "constant_table", "diverging_table", "product", "nested_product",
            "momentary_product"])
    def test_json_roundtrip_every_form(self, g, sizes):
        text = json.dumps(g.to_json())
        back = CoefficientScaling.from_json(json.loads(text))
        assert back == g
        assert back.class_tag == g.class_tag
        for size in sizes:
            assert back(size) == g(size)
        # serialisation does not depend on which sizes were evaluated
        assert json.dumps(g.to_json()) == text

    def test_parse_scaling_bad_json(self):
        with pytest.raises(ParseError):
            parse_scaling('{"form":"wobble"}')

    @pytest.mark.parametrize("text, key", [
        ('{"form":"inverse_power","p":2,"p":3,"base":"n"}', "p"),
        ('{"form":"table","values":{"7":1.0,"7":5.0}}', "7"),
        ('{"form":"product","factors":[{"form":"one","form":"one"}]}', "form"),
    ], ids=["p", "table_size", "nested"])
    def test_parse_scaling_refuses_repeated_key(self, text, key):
        with pytest.raises(ParseError, match=f"^bad scaling JSON: repeated key '{key}'$"):
            parse_scaling(text)

    def test_load_symbol_refuses_repeated_key(self, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"d": 2, "d": 1, "s": 1, "r": 1, "coeffs": []}')
        with pytest.raises(ParseError, match=re.escape(
                f"cannot read symbol file {path}: repeated key 'd'")):
            load_symbol(path)

    @pytest.mark.parametrize("obj, message", [
        ({"terms": 5}, "bad momentary symbol JSON: 'int' object is not iterable"),
        ({"terms": [{"symbol": {}}]}, "bad momentary symbol JSON: 'scaling'"),
        ({"terms": [{"scaling": {"form": "wobble"}, "symbol": {}}]},
         "bad scaling JSON: unknown scaling form 'wobble'"),
        ({"terms": [{"scaling": {"form": "one"}, "symbol": {"d": 1}}]},
         "bad symbol JSON: 's'"),
    ], ids=["terms_int", "no_scaling", "nested_scaling", "nested_symbol"])
    def test_momentary_from_json_refuses_with_one_prefix(self, obj, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            MomentarySymbol.from_json(obj)

    @pytest.mark.parametrize("value", ["1.5", True, None, [1.0]])
    def test_table_values_must_be_numbers(self, value):
        with pytest.raises(ValueError, match="table values must be numbers"):
            CoefficientScaling.table({7: value})

    def test_table_values_take_numpy_numbers(self):
        g = CoefficientScaling.table({7: np.float64(0.5), 8: np.int64(2)})
        assert (g(7), g(8)) == (0.5, 2.0)

    def test_tag_is_part_of_identity(self):
        const = CoefficientScaling.table({4: 2.0}, "constant")
        decaying = CoefficientScaling.table({4: 2.0}, "decaying")
        assert const != decaying
        total = (MomentarySymbol([(const, LaurentSymbol({0: 1.0}))])
                 + MomentarySymbol([(decaying, LaurentSymbol({0: 5.0}))]))
        assert len(total.terms) == 2
        assert total.glt_symbol() == LaurentSymbol({0: 1.0})

    @pytest.mark.parametrize("g, tag", [
        (CoefficientScaling.inverse_power(-2, "n").multiply(
            CoefficientScaling.inverse_power(1, "n+1")), "diverging"),
        (CoefficientScaling.inverse_power(-1, "n+1").multiply(
            CoefficientScaling.inverse_power(1, "n")), "constant"),
        (CoefficientScaling.inverse_power(1, "n").multiply(
            CoefficientScaling.table({4: 4.0}, "diverging")), "constant"),
        (CoefficientScaling.table({4: 4.0}, "diverging").multiply(
            CoefficientScaling.table({4: 4.0}, "diverging")).multiply(
            CoefficientScaling.table({4: 0.25})), "diverging"),
        (CoefficientScaling.table({4: 4.0}, "diverging").multiply(
            CoefficientScaling.inverse_power(1, "n+1")).multiply(
            CoefficientScaling.inverse_power(1, "n")), "constant"),
    ], ids=["n2_over_n1", "n1_over_n", "n_inverse_times_diverging",
            "diverging_table_kept_in_nested_product", "factor_order_does_not_matter"])
    def test_product_tag(self, g, tag):
        assert g.class_tag == tag

    @pytest.mark.parametrize("a, b, equal", [
        (CoefficientScaling.table({4: 2.0}), CoefficientScaling.table({(4,): 2}), True),
        # -0.0 and 0.0 write different JSON, so these tables differ (a dict compare would not)
        (CoefficientScaling.table({4: -0.0}), CoefficientScaling.table({4: 0.0}), False),
        (CoefficientScaling.inverse_power(1, "n").multiply(CoefficientScaling.ratio_N_over_n2()),
         CoefficientScaling.inverse_power(1, "n").multiply(CoefficientScaling.ratio_N_over_n2()),
         True),
    ], ids=["int_key_and_value", "signed_zero", "product"])
    def test_equal_scalings_hash_alike(self, a, b, equal):
        assert (a == b) is equal
        assert a != b or hash(a) == hash(b)

    @pytest.mark.parametrize("make", [
        lambda: CoefficientScaling.table([1, 2]),
        lambda: CoefficientScaling.table({4: float("nan")}),
        lambda: CoefficientScaling.table({4: float("inf")}, "diverging"),
        lambda: CoefficientScaling.table({4: 1.0}, "wobble"),
        lambda: CoefficientScaling.inverse_power(1.5),
        lambda: CoefficientScaling.inverse_power(True),
        lambda: CoefficientScaling.inverse_power("2"),
        lambda: CoefficientScaling("one", class_tag="decaying"),
    ], ids=["values_list", "nan", "inf", "tag", "p_float", "p_bool", "p_string",
            "tag_of_one"])
    def test_constructor_rejects(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("obj", [
        {"form": "product", "factors": [{"form": "one"}], "_factors": []},
        {"form": "table", "values": {"4": 1.0}, "_factors": [{"form": "one"}]},
    ], ids=["product", "table"])
    def test_json_cannot_set_factors(self, obj):
        with pytest.raises(ParseError, match="takes no key '_factors'"):
            CoefficientScaling.from_json(obj)

    @pytest.mark.parametrize("values,key,text", [
        ({"7": 1.0, "07": 2.0}, "07", "7"),
        ({"07": 2.0, "7": 1.0}, "07", "7"),
        ({" 7": 1.0}, " 7", "7"),
        ({"+7": 1.0}, "+7", "7"),
        ({"-0": 1.0}, "-0", "0"),
        ({"7_0": 1.0}, "7_0", "70"),
        ({"3, 4": 1.0}, "3, 4", "3,4"),
    ], ids=["repeat", "repeat_first", "space", "plus", "minus_zero", "underscore", "pair_space"])
    def test_table_key_must_be_size_text(self, values, key, text):
        with pytest.raises(ParseError, match=re.escape(
                f"bad scaling JSON: table key {key!r} is not written as {text!r}")):
            CoefficientScaling.from_json({"form": "table", "values": values})

    def test_table_keys_as_written_are_read(self):
        g = CoefficientScaling.from_json({"form": "table", "values": {"7": 1.0, "3,4": 2.0}})
        assert g.values == {(7,): 1.0, (3, 4): 2.0}


# nested pairwise products of inverse powers, as (p, base) leaves and [a, b] pairs
_power_trees = st.recursive(
    st.tuples(st.integers(-3, 3), st.sampled_from(["n", "n+1"])),
    lambda children: st.lists(children, min_size=2, max_size=2), max_leaves=8)


def _build(tree):
    if isinstance(tree, list):
        return _build(tree[0]).multiply(_build(tree[1]))
    return CoefficientScaling.inverse_power(*tree)


def _exponents(tree):
    """Summed exponent per base, {"n": .., "n+1": ..}."""
    if isinstance(tree, list):
        a, b = (_exponents(t) for t in tree)
        return {base: a[base] + b[base] for base in a}
    p, base = tree
    return {"n": 0, "n+1": 0, base: p}


@settings(deadline=None)
@given(_power_trees, st.integers(1, 60))
def test_inverse_power_products(tree, n):
    g = _build(tree)
    sums = _exponents(tree)
    total = sums["n"] + sums["n+1"]
    assert g.class_tag == {-1: "diverging", 0: "constant", 1: "decaying"}[int(np.sign(total))]
    back = CoefficientScaling.from_json(json.loads(json.dumps(g.to_json())))
    assert back == g and hash(back) == hash(g)
    want = float(n) ** -sums["n"] * float(n + 1) ** -sums["n+1"]
    assert g(n) == pytest.approx(want, rel=1e-12)


class TestSymmetrize:
    def test_one_sided_collapses_to_constant(self):
        f = symmetrize_tridiagonal(rising_bidiag())
        assert f.support() == [(0,)]
        assert f.coeff(0)[0, 0] == 2.0

    def test_symmetric_unchanged(self):
        f = LaurentSymbol({0: 2.0, 1: 1.0, -1: 1.0})
        assert symmetrize_tridiagonal(f).allclose(f, tol=1e-15)

    def test_unbalanced_off_diagonals(self):
        f = LaurentSymbol({1: 4.0, -1: 1.0})
        sym = symmetrize_tridiagonal(f)
        assert sym.coeff(1)[0, 0] == pytest.approx(2.0, abs=1e-15)
        # same spectrum both routes: 4cos(j pi / 9) against the non-Hermitian build
        raw = eig_general_small(toeplitz(f, 8)).values.real
        balanced = eig_hermitian(toeplitz(sym, 8)).values
        oracle = np.sort(4 * np.cos(np.arange(1, 9) * math.pi / 9))
        assert np.allclose(np.sort(raw), balanced, atol=1e-10)
        assert np.allclose(balanced, oracle, atol=1e-12)

    def test_negative_product_rejected(self):
        with pytest.raises(ValueError):
            symmetrize_tridiagonal(LaurentSymbol({1: 1.0, -1: -1.0}))


TRIDIAGONAL_CALLERS = {
    "tau_matrix": lambda f: tau_matrix(f, 0, 0, 8),
    "interlacing_check": lambda f: interlacing_check(f, 8),
    "symmetrize_tridiagonal": symmetrize_tridiagonal,
}
# rejected by every caller
NOT_TRIDIAGONAL = {
    "wide_support": LaurentSymbol({0: 1.0, 2: 1.0, -2: 1.0}),
    "matrix_valued": LaurentSymbol({0: 2 * np.eye(2), 1: np.eye(2), -1: np.eye(2)}),
    "bivariate": LaurentSymbol({(0, 0): 2.0, (1, 0): 1.0, (-1, 0): 1.0}),
}
# rejected by the callers that need a real symmetric symbol
NOT_REAL_SYMMETRIC = {
    "asymmetric": LaurentSymbol({0: 2.0, 1: 1.0, -1: 0.5}),
    "hermitian_complex": LaurentSymbol({0: 2.0, 1: 1j, -1: -1j}),
    "complex_symmetric": LaurentSymbol({0: 2.0, 1: 1 + 1j, -1: 1 + 1j}),
}


@pytest.mark.parametrize("caller, case", [
    *[(c, b) for c in TRIDIAGONAL_CALLERS for b in NOT_TRIDIAGONAL],
    *[(c, b) for c in ("tau_matrix", "interlacing_check") for b in NOT_REAL_SYMMETRIC],
])
def test_tridiagonal_callers_reject(caller, case):
    bad = {**NOT_TRIDIAGONAL, **NOT_REAL_SYMMETRIC}[case]
    with pytest.raises(ValueError):
        TRIDIAGONAL_CALLERS[caller](bad)


class TestBlockReinterpret:
    def test_halfweighting_symbol(self):
        g = LaurentSymbol({0: 2.0, 1: 1.0, -1: 1.0})
        g2 = block_reinterpret(g, 2)
        assert np.array_equal(g2.coeff(0), [[2, 1], [1, 2]])
        assert np.array_equal(g2.coeff(1), [[0, 1], [0, 0]])
        assert np.array_equal(g2.coeff(-1), [[0, 0], [1, 0]])

    def test_constant_becomes_identity_blocks(self):
        g3 = block_reinterpret(LaurentSymbol({0: 1.0}), 3)
        assert g3.support() == [(0,)]
        assert np.array_equal(g3.coeff(0), np.eye(3))

    def test_matrix_identity_specific(self):
        f = second_diff()
        assert np.array_equal(toeplitz(f, 12), toeplitz(block_reinterpret(f, 3), 4))

    def test_matrix_identity_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = random_symbol(rng, deg=3)
            if rng.uniform() < 0.5:
                f = LaurentSymbol({k: m.real for k, m in f.coeffs.items()})
            for s in (2, 3):
                for n in range(2, 7):
                    assert np.array_equal(toeplitz(f, n * s),
                                          toeplitz(block_reinterpret(f, s), n))

    def test_block_symbol_times_cut_is_interpolation_symbol(self):
        g = LaurentSymbol({0: 2.0, 1: 1.0, -1: 1.0})
        f_cut = LaurentSymbol({0: [[0.0], [1.0]]})
        p = LaurentSymbol({0: [[1.0], [2.0]], 1: [[1.0], [0.0]]})
        assert (block_reinterpret(g, 2) * f_cut) == p

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError):
            block_reinterpret(LaurentSymbol({(0, 0): 1.0}), 2)


class TestSerialization:
    def test_documented_schema_parses(self):
        obj = {"d": 1, "s": 1, "r": 1,
               "coeffs": [{"k": [0], "m": [[[2.0, 0.0]]]},
                          {"k": [1], "m": [[[-1.0, 0.0]]]}]}
        f = LaurentSymbol.from_json(obj)
        assert f.coeff(0)[0, 0] == 2.0 and f.coeff(1)[0, 0] == -1.0

    def test_roundtrip_random(self):
        rng = np.random.default_rng(41)
        f = random_symbol(rng, d=2, s=2, r=3, deg=1)
        assert LaurentSymbol.from_json(f.to_json()) == f

    def test_momentary_roundtrip(self):
        m = MomentarySymbol([
            (CoefficientScaling.one(), second_diff()),
            (CoefficientScaling.inverse_power(2, "n+1"), LaurentSymbol({0: 1.0})),
        ])
        again = MomentarySymbol.from_json(m.to_json())
        assert again.eval([0.7], 9)[0, 0] == pytest.approx(m.eval([0.7], 9)[0, 0], abs=1e-15)

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            LaurentSymbol.from_json({"d": 1, "coeffs": "nope"})

    @pytest.mark.parametrize("changes, message", [
        ({"d": 1.5}, "d, s and r must be integers, got 1.5, 1, 1"),
        ({"s": True}, "d, s and r must be integers, got 1, True, 1"),
        ({"coeffs": [{"k": [0], "m": [[[2.0, 0.0]]]}, {"k": [0.7], "m": [[[-1.0, 0.0]]]}]},
         r"each k must be new and hold integers, got \[0.7\]"),
        ({"coeffs": [{"k": [True], "m": [[[2.0, 0.0]]]}]},
         r"each k must be new and hold integers, got \[True\]"),
        ({"coeffs": [{"k": [1], "m": [[[2.0, 0.0]]]}, {"k": [1], "m": [[[-1.0, 0.0]]]}]},
         r"each k must be new and hold integers, got \[1\]"),
        ({"coeffs": [{"k": [0], "m": [[[True, False]]]}]},
         "coefficient entries must be numbers, got True"),
        ({"coeffs": [{"k": [0], "m": [[[2.0, "0"]]]}]},
         "coefficient entries must be numbers, got '0'"),
    ], ids=["d_float", "s_bool", "k_float", "k_bool", "k_twice", "m_bool", "m_string"])
    def test_non_integer_or_repeated_index_rejected(self, changes, message):
        obj = {"d": 1, "s": 1, "r": 1, "coeffs": [{"k": [0], "m": [[[2.0, 0.0]]]}], **changes}
        with pytest.raises(ParseError, match="^bad symbol JSON: " + message):
            LaurentSymbol.from_json(obj)

    def test_coefficient_beyond_float_range_rejected(self):
        obj = {"d": 1, "s": 1, "r": 1, "coeffs": [{"k": [0], "m": [[[10 ** 400, 0.0]]]}]}
        with pytest.raises(ParseError, match="^bad symbol JSON: int too large"):
            LaurentSymbol.from_json(obj)

    @pytest.mark.parametrize("terms", [
        [],
        [{"scaling": {"form": "one"}, "symbol": {"d": 1, "s": 1, "r": 1, "coeffs": []}},
         {"scaling": {"form": "one"}, "symbol": {"d": 2, "s": 1, "r": 1, "coeffs": []}}],
    ], ids=["no_terms", "mixed_arity"])
    def test_momentary_inconsistent_rejected(self, terms):
        with pytest.raises(ParseError, match="bad momentary symbol JSON"):
            MomentarySymbol.from_json({"terms": terms})

    def test_momentary_keeps_term_message(self):
        bad = {"d": 1, "s": 0, "r": 0, "coeffs": []}
        with pytest.raises(ParseError, match="^bad symbol JSON: d, s and r must be positive"):
            MomentarySymbol.from_json({"terms": [{"scaling": {"form": "one"}, "symbol": bad}]})
