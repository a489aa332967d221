import math
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hmclass.coeffs import RatFuncY, poly_str, rat, ratio_text
from hmclass.genera import _inverse, compose_scale, mul
from hmclass.milnor import PolynomialityError
import rat_parity
from oracles import (ProjRing, RingElement, coeffs,
                     poly_division_oracle, series_inverse_by_recursion)

Y = sympy.symbols("y")


def to_sympy(value: RatFuncY):
    num = sum(sympy.Rational(c.numerator, c.denominator) * Y ** i
              for i, c in enumerate(coeffs(value)))
    return num / (1 + Y) ** value.k


def random_value(rng, max_k=3):
    return RatFuncY([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))],
                    rng.randint(0, max_k))


def random_unit(rng):
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return RatFuncY([c], rng.randint(0, 3)) * RatFuncY.ONE_PLUS_Y ** rng.randint(0, 3)


class TestRatFunc:
    def test_identity_division(self):
        one_plus_y = RatFuncY([1, 1])
        assert one_plus_y * one_plus_y.inverse() == RatFuncY.ONE

    def test_simple_sum(self):
        assert RatFuncY([0, 1]) + RatFuncY([1]) == RatFuncY([1, 1])

    def test_division_against_long_division_oracle(self):
        # (y + y^2) / (1 + y) = y
        got = RatFuncY([0, 1, 1]) * RatFuncY([1, 1]).inverse()
        expected = poly_division_oracle([0, 1, 1], [1, 1])
        assert got.is_polynomial()
        assert list(coeffs(got)) == expected
        assert RatFuncY([0, 1, 1], 1) == got

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFuncY.ZERO.inverse()
        with pytest.raises(ZeroDivisionError):
            RatFuncY.ZERO ** -1

    def test_mul_div_round_trip(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_value(rng)
            b = random_unit(rng)
            assert (a * b) * b.inverse() == a
            assert (a * b) * b ** -1 == a

    def test_normalization_idempotent(self):
        # 2y (1+y)^2 (2 + 5y + y^2) / (1+y)^3 = 2y (2 + 5y + y^2) / (1+y)
        g = RatFuncY([2, 5, 1])
        num = RatFuncY([0, 2]) * RatFuncY.ONE_PLUS_Y ** 2 * g
        a = RatFuncY(coeffs(num), 3)
        b = RatFuncY(coeffs(a), a.k)
        assert (coeffs(a), a.k) == (coeffs(b), b.k)
        assert a.k == 1 and a == RatFuncY(coeffs(RatFuncY([0, 2]) * g), 1)
        assert RatFuncY(coeffs(a))(-1) != 0  # no (1+y) left to cancel

    def test_denominator_positive_leading_normalized(self):
        a = RatFuncY([-2, -2]).inverse()
        assert a.k == 1
        assert coeffs(a) == (Fraction(-1, 2),)

    def test_evaluation_and_pole(self):
        a = RatFuncY([1], 1)
        assert a(1) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            a(-1)

    def test_rat_parse_and_str(self):
        assert rat("-3/4") == (-3, 4)
        assert rat("5") == (5, 1)
        assert str(Fraction(7, 2)) == "7/2"

    def test_rat_rejects_bool(self):
        with pytest.raises(TypeError):
            rat(True)

    def test_rat_reads_decimals_and_rejects_exponents(self):
        # a decimal costs what its length costs; an exponent does not
        assert rat(" 0.25 ") == (1, 4)
        for text in ("1e3000000", "1E5", "2.5e-3"):
            with pytest.raises(ValueError, match="exponent notation"):
                rat(text)

    def test_rat_rejects_underscores_on_every_version(self):
        # Fraction reads "1_000" from Python 3.11 on and refuses it before
        for text in ("1_000", "1_0/3", "0.2_5", "_1"):
            with pytest.raises(ValueError) as info:
                rat(text)
            assert str(info.value) == f"underscore in {text!r}"

    def test_rat_refuses_digits_past_the_limit_on_every_version(self):
        # int and Fraction word their refusal differently by version;
        # Python's default limit is 4300 digits
        long = "7" * 4300
        assert rat(long) == (int(long), 1)
        assert rat(f" -{long}/{long} ") == (-1, 1)
        assert rat(f"{long}.{long}") == (int(long) + Fraction(
            int(long), 10 ** 4300)).as_integer_ratio()
        for text, digits in (("7" * 4301, 4301), ("1/" + "7" * 4301, 4301),
                             ("7" * 5000 + "/3", 5000),
                             ("0." + "7" * 4301, 4301),
                             (" -" + "7" * 4301 + " ", 4301)):
            with pytest.raises(ValueError) as info:
                rat(text)
            assert str(info.value) == (f"integer text of {digits} digits "
                                       f"exceeds the limit of 4300 digits")

    def test_rat_reads_pythons_digit_limit_when_called(self):
        # PYTHONINTMAXSTRDIGITS and -X int_max_str_digits set the limit a
        # run starts with, and sys.set_int_max_str_digits the one it has
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(1000)
            assert rat("7" * 1000) == (int("7" * 1000), 1)
            for text in ("7" * 1001, "1/" + "7" * 1001, "0." + "7" * 1001):
                with pytest.raises(ValueError) as info:
                    rat(text)
                assert str(info.value) == ("integer text of 1001 digits "
                                           "exceeds the limit of 1000 digits")
            sys.set_int_max_str_digits(0)  # no limit
            assert rat("7" * 5000 + "/7") == (int("1" * 5000), 1)
        finally:
            sys.set_int_max_str_digits(default)

    def test_rat_agrees_with_fraction(self):
        # the seeded texts of tests/rat_parity.py, which CI runs on each
        # Python version
        assert rat_parity.main() == 0

    def test_against_sympy_randomized(self):
        rng = random.Random(2013)
        for _ in range(80):
            a, b, u = random_value(rng), random_value(rng), random_unit(rng)
            sa, sb, su = to_sympy(a), to_sympy(b), to_sympy(u)
            assert sympy.cancel(to_sympy(a + b) - (sa + sb)) == 0
            assert sympy.cancel(to_sympy(a - b) - (sa - sb)) == 0
            assert sympy.cancel(to_sympy(a * b) - sa * sb) == 0
            assert sympy.cancel(to_sympy(u.inverse()) - 1 / su) == 0
            n = rng.randint(1, 3)
            assert sympy.cancel(to_sympy(u ** -n) - su ** -n) == 0
            y0 = Fraction(rng.choice([-5, -2, 0, 1, 2, 4]), rng.choice([1, 3]))
            assert a(y0) == Fraction(str(sa.subs(Y, sympy.Rational(str(y0)))))

    def test_equal_values_have_equal_normal_form(self):
        rng = random.Random(29)
        for _ in range(80):
            a, b = random_value(rng, 2), random_value(rng, 2)
            # the same value presented over a higher power of (1+y)
            d = rng.randint(0, 3)
            lifted = RatFuncY(coeffs(RatFuncY(coeffs(a))
                                     * RatFuncY.ONE_PLUS_Y ** d), a.k + d)
            assert (coeffs(lifted), lifted.k) == (coeffs(a), a.k)
            if sympy.cancel(to_sympy(a) - to_sympy(b)) == 0:
                assert (coeffs(a), a.k) == (coeffs(b), b.k)
                assert hash(a) == hash(b)
            else:
                assert a != b

    def test_scalars_hash_like_their_value(self):
        for c in (0, 1, -3, Fraction(2, 3)):
            assert RatFuncY([c]) == c
            assert len({RatFuncY([c]), c}) == 1

    def test_inverse_of_non_unit_raises(self):
        for value in (RatFuncY([0, 1]), RatFuncY([1, 0, 1]), RatFuncY([2, 1], 3)):
            with pytest.raises(ZeroDivisionError):
                value.inverse()
            with pytest.raises(ZeroDivisionError):
                value ** -2

    def test_as_poly_checks_polynomiality(self):
        assert RatFuncY([1, 2, 1], 2).as_poly() == RatFuncY.ONE
        with pytest.raises(ValueError):
            RatFuncY([1], 1).as_poly()

    def test_str_of_non_polynomial(self):
        # the denominator is printed expanded, as a monic polynomial
        assert str(RatFuncY([1], 2)) == "(1)/(1 + 2y + y^2)"
        assert str(RatFuncY([0, -1], 1)) == "(-y)/(1 + y)"
        assert str(PolynomialityError("P_{12}", RatFuncY([Fraction(1, 2), 3], 3))) == \
            "stratum P_{12}: non-polynomial contribution " \
            "(1/2 + 3y)/(1 + 3y + 3y^2 + y^3)"


def random_rational_value(rng):
    """A value with mixed denominators among its coefficients."""
    return RatFuncY([Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
                     for _ in range(rng.randint(0, 4))], rng.randint(0, 2))


def assert_normal(value: RatFuncY):
    """The integer kernel's normal form."""
    num, den, k = value.num, value.den, value.k
    assert type(num) is tuple and all(type(c) is int for c in num)
    assert type(den) is int and den > 0
    assert math.gcd(den, *num) == 1
    if not num:
        assert (den, k) == (1, 0)
        return
    assert num[-1] != 0
    if k:  # no factor 1 + y left to cancel
        assert sum(c * (-1) ** i for i, c in enumerate(num)) != 0


class TestIntegerKernel:
    def test_normal_form_invariants(self):
        rng = random.Random(41)
        for _ in range(150):
            a, b = random_rational_value(rng), random_rational_value(rng)
            for value in (a, b, a + b, a - b, a * b, -a, a * 3,
                          a * Fraction(2, 3), a ** 2):
                assert_normal(value)
                assert RatFuncY(coeffs(value), value.k) == value
                assert coeffs(value) == tuple(Fraction(c, value.den)
                                              for c in value.num)
                assert all(type(c) is Fraction for c in coeffs(value))

    def test_one_plus_y_cancels_under_a_denominator(self):
        # (1/2 + y/2) / (1+y) = 1/2
        v = RatFuncY([Fraction(1, 2), Fraction(1, 2)], 1)
        assert (v.num, v.den, v.k) == ((1,), 2, 0)
        # (y/3) (1+y)^2 / (1+y)^3 = (y/3) / (1+y)
        w = RatFuncY([0, Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)], 3)
        assert (w.num, w.den, w.k) == ((0, 1), 3, 1)
        # (2/3) / (1+y) times (3/4) (1+y)
        u = RatFuncY([Fraction(2, 3)], 1) * RatFuncY([Fraction(3, 4)] * 2)
        assert (u.num, u.den, u.k) == ((1,), 2, 0)
        assert u.is_polynomial() and u == Fraction(1, 2)
        # a sum whose denominators cancel with the 1 + y factor
        t = RatFuncY([Fraction(1, 6)], 1) + RatFuncY([Fraction(1, 3), Fraction(1, 2)], 1)
        assert (t.num, t.den, t.k) == ((1,), 2, 0)

    def test_zero_normal_form(self):
        for z in (RatFuncY(), RatFuncY([0, 0], 2), RatFuncY([Fraction(1, 2)]) - Fraction(1, 2),
                  RatFuncY([1, 1], 1) * 0, RatFuncY([Fraction(1, 3)], 2) * RatFuncY.ZERO):
            assert (z.num, z.den, z.k) == ((), 1, 0)
            assert z == 0 and hash(z) == hash(0)

    def test_arithmetic_against_sympy_with_fast_paths(self):
        # zero, int and Fraction operands are coerced; the RatFuncY ones
        # are zero, a constant, a constant over 1 + y, and 1/2 + (1/3)y
        # with mixed denominators
        operands = [0, 1, -1, 5, Fraction(1, 2), Fraction(-3, 4), RatFuncY.ZERO,
                    RatFuncY([Fraction(2, 3)]), RatFuncY([-2], 1),
                    RatFuncY([Fraction(1, 2), Fraction(1, 3)])]
        rng = random.Random(1312)
        for _ in range(15):
            a = random_rational_value(rng)
            sa = to_sympy(a)
            for b in rng.sample(operands, 4) + [random_rational_value(rng)]:
                sb = to_sympy(RatFuncY._coerce(b))
                for got, want in ((a + b, sa + sb), (b + a, sb + sa),
                                  (a - b, sa - sb), (b - a, sb - sa),
                                  (a * b, sa * sb), (b * a, sb * sa)):
                    assert isinstance(got, RatFuncY)
                    assert_normal(got)
                    assert sympy.cancel(to_sympy(got) - want) == 0
            y0 = Fraction(rng.choice([-5, -2, 0, 1, 2, 4]), rng.choice([1, 3]))
            assert a(y0) == Fraction(str(sa.subs(Y, sympy.Rational(str(y0)))))


class TestCoefficientText:
    """The text the writers print for a coefficient, built from the
    integers alone, against str of its Fraction."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(-60, 60) | st.sampled_from([0, -360, 720]),
                    max_size=5),
           st.integers(1, 12), st.integers(-60, 60), st.integers(1, 3))
    def test_text_is_the_fraction_text(self, num, den, c, k):
        value = RatFuncY.from_ints(num, den)
        want = [str(Fraction(x, den)) for x in num]
        while want and want[-1] == "0":  # the normal form strips them
            want.pop()
        assert value.as_strings() == want
        # the text of an integer pair, in lowest terms or not, as the
        # writer prints a constant
        for x in num + [0]:
            assert ratio_text(x, den) == str(Fraction(x, den))
        with pytest.raises(ValueError):
            RatFuncY.from_ints([c or 1], den, k).as_strings()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30),
           st.integers(1, 10 ** 30)
           | st.sampled_from([sys.hash_info.modulus,
                              3 * sys.hash_info.modulus]))
    def test_scalar_hashes_as_its_fraction(self, c, den):
        # equal values hash alike, so a constant hashes as the Fraction
        # it equals, a multiple of the hash modulus as denominator included
        value = RatFuncY.from_ints([c], den)
        assert value == Fraction(c, den)
        assert hash(value) == hash(Fraction(c, den))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(-60, 60), max_size=5), st.integers(1, 12),
           st.integers(0, 3),
           st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5,
                                             max_denominator=7))
    def test_value_text_is_the_fraction_text(self, num, den, k, y0):
        # the value at y0, from Horner's rule on the integers, against the
        # sum of the Fraction coefficients; a y0 below -1 gives an odd
        # power of 1 + y a negative value
        value = RatFuncY.from_ints(num, den, k)
        if value.k and y0 == -1:
            with pytest.raises(ZeroDivisionError):
                value.text_at(y0)
            return
        y = Fraction(y0)
        want = (sum(c * y ** i for i, c in enumerate(coeffs(value)))
                / (1 + y) ** value.k)
        top, bottom = value.value_at(y0)
        assert bottom > 0 and Fraction(top, bottom) == want
        assert value.text_at(y0) == str(want)
        assert value(y0) == want and type(value(y0)) is Fraction


def poly_str_by_fractions(p: RatFuncY) -> str:
    """poly_str written from the Fraction coefficients."""
    if p.is_zero():
        return "0"
    pieces = []
    for k, c in enumerate(coeffs(p.as_poly())):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            suffix = "y" if k == 1 else f"y^{k}"
            if mag == 1:
                body = suffix
            elif mag.denominator == 1:
                body = f"{mag}{suffix}"
            else:
                body = f"({mag}){suffix}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


class TestPolyString:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(-60, 60) | st.sampled_from([0, 1, -1, 6]),
                    max_size=6), st.sampled_from([1, 1, 2, 3, 6, 12]))
    def test_matches_the_text_of_the_fractions(self, num, den):
        value = RatFuncY.from_ints(num, den)
        assert poly_str(value) == poly_str_by_fractions(value)

    def test_integer_poly(self):
        assert poly_str(RatFuncY([2, -20, 2])) == "2 - 20y + 2y^2"

    def test_unit_coefficients(self):
        assert poly_str(RatFuncY([1, -7, 1])) == "1 - 7y + y^2"
        assert poly_str(RatFuncY([0, -1])) == "-y"

    def test_fractional(self):
        assert poly_str(RatFuncY([Fraction(-1, 2), Fraction(7, 2)])) == "-1/2 + (7/2)y"

    def test_zero(self):
        assert poly_str(RatFuncY()) == "0"


def series(coeffs, order):
    """The truncated power series with the given leading coefficients, as
    the tuple of its order + 1 coefficients."""
    cs = list(coeffs) + [0] * (order + 1 - len(coeffs))
    return tuple(RatFuncY._coerce(c) for c in cs)


def random_coefficient(rng):
    """A random element of Q[y, 1/(1+y)], zero one time in four."""
    if rng.random() < 0.25:
        return RatFuncY.ZERO
    num = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
           for _ in range(rng.randint(1, 3))]
    return RatFuncY(num, rng.randint(0, 2))


def random_series_unit(rng):
    """A random unit c (1+y)^j of Q[y, 1/(1+y)]."""
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
    return RatFuncY([c]) * RatFuncY.ONE_PLUS_Y ** rng.randint(-2, 2)


class TestSeries:
    """Truncated power series are tuples of their coefficients; the order
    mismatch, interning and length tests check the oracles' ProjRing."""

    def test_product_truncation(self):
        a = series([1, 1, 0], 2)
        b = series([1, -1, 0], 2)
        assert mul(a, b) == series([1, 0, -1], 2)

    def test_geometric_inverse(self):
        # 1/(1+a) = 1 - a + a^2 - ...: geometric oracle
        order = 6
        got = _inverse(series([1, 1], order))
        oracle = series([(-1) ** k for k in range(order + 1)], order)
        assert got == oracle

    def test_compose_scale(self):
        alpha = series([0, 1], 3)
        scaled = compose_scale(alpha, RatFuncY([1, 1]))
        assert scaled[1] == RatFuncY([1, 1])
        assert scaled[0].is_zero() and scaled[2].is_zero()

    def test_invert_requires_unit(self):
        with pytest.raises(ZeroDivisionError):
            _inverse(series([0, 1], 1))

    def test_order_mismatch(self):
        # the oracles' ring refuses to mix orders
        with pytest.raises(ValueError):
            RingElement(ProjRing(0), [1]) + RingElement(ProjRing(1), [1, 1])

    def test_mul_assoc_comm_randomized(self):
        rng = random.Random(11)
        for _ in range(25):
            coeffs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            a, b, c = (series(cs, 3) for cs in coeffs)
            assert mul(a, b) == mul(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_proj_ring_built_once(self):
        # the oracles' interned ring is validated and built once: later
        # calls return it as it is, and a negative dimension is refused
        # every time without leaving an instance behind
        assert ProjRing(2) is ProjRing(2)
        assert ProjRing(2).names is ProjRing(2).names
        assert ProjRing(2).names == ("1", "h", "h^2")
        for _ in range(2):
            with pytest.raises(ValueError, match="dimension"):
                ProjRing(-1)
        assert -1 not in ProjRing._cache

    def test_length_invariant(self):
        ring = ProjRing(4)
        for coeffs in ([1], [1] * 4, [1] * 6):
            with pytest.raises(ValueError, match="ring basis"):
                RingElement(ring, coeffs)
        assert len(RingElement(ring, [1] * 5).coeffs) == 5

    @pytest.mark.parametrize("order", range(9))
    def test_inverse_matches_recursion(self, order):
        rng = random.Random(900 + order)
        for _ in range(6):
            s = (random_series_unit(rng),
                 *(random_coefficient(rng) for _ in range(order)))
            got = _inverse(s)
            assert got == series_inverse_by_recursion(s)
            assert mul(s, got) == series([1], order)
