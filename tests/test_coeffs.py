import random
from fractions import Fraction

import pytest

from hmclass.coeffs import PolyY, RatFuncY, SeriesA, poly_str, rat
from oracles import poly_division_oracle


def rf(num, den=(1,)):
    return RatFuncY(PolyY(num), PolyY(den))


class TestRatFunc:
    def test_identity_division(self):
        one_plus_y = rf([1, 1])
        assert one_plus_y / one_plus_y == RatFuncY.ONE

    def test_simple_sum(self):
        assert rf([0, 1]) + rf([1]) == rf([1, 1])

    def test_division_against_long_division_oracle(self):
        # (y + y^2) / (1 + y) = y
        got = rf([0, 1, 1]) / rf([1, 1])
        expected = poly_division_oracle([0, 1, 1], [1, 1])
        assert got.is_polynomial()
        assert list(got.num.coeffs) == expected

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rf([1]) / RatFuncY.ZERO

    def test_mul_div_round_trip(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rf([rng.randint(-3, 3) for _ in range(3)],
                   [rng.randint(-3, 3) for _ in range(2)] + [1])
            b = rf([rng.randint(-3, 3) for _ in range(3)],
                   [rng.randint(-3, 3) for _ in range(2)] + [1])
            if b.is_zero():
                continue
            assert (a * b) / b == a

    def test_normalization_idempotent(self):
        g = PolyY([2, 5, 1])
        a = RatFuncY(PolyY([0, 2]) * g, PolyY([4, 4]) * g)
        b = RatFuncY(a.num, a.den)
        assert (a.num, a.den) == (b.num, b.den)
        assert a.den.coeffs[-1] == 1  # monic

    def test_denominator_positive_leading_normalized(self):
        a = RatFuncY(PolyY([1]), PolyY([-2, -2]))
        assert a.den == PolyY([1, 1])
        assert a.num == PolyY([Fraction(-1, 2)])

    def test_evaluation_and_pole(self):
        a = RatFuncY(PolyY([1]), PolyY([1, 1]))
        assert a(1) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            a(-1)

    def test_rat_parse_and_str(self):
        assert rat("-3/4") == Fraction(-3, 4)
        assert str(rat("5")) == "5"
        assert str(Fraction(7, 2)) == "7/2"


class TestPolyString:
    def test_integer_poly(self):
        assert poly_str(PolyY([2, -20, 2])) == "2 - 20y + 2y^2"

    def test_unit_coefficients(self):
        assert poly_str(PolyY([1, -7, 1])) == "1 - 7y + y^2"
        assert poly_str(PolyY([0, -1])) == "-y"

    def test_fractional(self):
        assert poly_str(PolyY([Fraction(-1, 2), Fraction(7, 2)])) == "-1/2 + (7/2)y"

    def test_zero(self):
        assert poly_str(PolyY()) == "0"


class TestSeries:
    def test_product_truncation(self):
        a = SeriesA([1, 1, 0], 2)
        b = SeriesA([1, -1, 0], 2)
        assert a * b == SeriesA([1, 0, -1], 2)

    def test_geometric_inverse(self):
        # 1/(1+a) = 1 - a + a^2 - ...: geometric oracle
        order = 6
        got = SeriesA([1, 1], order).invert()
        oracle = SeriesA([(-1) ** k for k in range(order + 1)], order)
        assert got == oracle

    def test_compose_scale(self):
        alpha = SeriesA([0, 1], 3)
        scaled = alpha.compose_scale(rf([1, 1]))
        assert scaled.coeff(1) == rf([1, 1])
        assert scaled.coeff(0).is_zero() and scaled.coeff(2).is_zero()

    def test_invert_requires_unit(self):
        with pytest.raises(ZeroDivisionError):
            SeriesA([0, 1], 1).invert()

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            SeriesA([1], 0) + SeriesA([1, 1], 1)

    def test_mul_assoc_comm_randomized(self):
        rng = random.Random(11)
        for _ in range(25):
            coeffs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            a, b, c = (SeriesA(cs, 3) for cs in coeffs)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_length_invariant(self):
        s = SeriesA([1], 4)
        assert len(s.coeffs) == 5
