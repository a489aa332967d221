import random
from fractions import Fraction

import pytest

from hmclass import genera
from hmclass.coeffs import RatFuncY
from hmclass.genera import hirzebruch_series, verify_identity_qr
from oracles import (ChernData, ProjRing, chern_to_ch, class_from_roots,
                     graded_part, lambda_y, lambda_y_virtual, q_series_oracle,
                     tanh_quotient_oracle, todd_from_chern,
                     todd_series_oracle)


class TestSeries:
    def test_one_series_per_kind_and_order(self):
        # kept per process, so every caller shares one immutable tuple
        q = hirzebruch_series("Q", 7)
        assert hirzebruch_series("Q", 7) is q
        assert isinstance(q, tuple) and len(q) == 8
        assert hirzebruch_series("Q", 6) is not q
        assert hirzebruch_series("R", 7) is not q

    def test_q_constant_term(self):
        assert hirzebruch_series("Q", 6)[0] == RatFuncY.ONE

    def test_q_specializes_to_chern_at_minus_one(self):
        coeffs = [c(-1) for c in hirzebruch_series("Q", 12)]
        assert coeffs == [1, 1] + [0] * 11

    def test_q_specializes_to_todd_at_zero(self):
        coeffs = [c(0) for c in hirzebruch_series("Q", 12)]
        assert coeffs == todd_series_oracle(12)

    def test_q_specializes_to_signature_series_at_one(self):
        coeffs = [c(1) for c in hirzebruch_series("Q", 10)]
        assert coeffs == tanh_quotient_oracle(10)

    def test_q_against_symbolic_oracle(self):
        oracle = q_series_oracle(8)
        q = hirzebruch_series("Q", 8)
        for k in range(9):
            assert q[k] == RatFuncY(oracle[k])

    def test_quadratic_coefficient(self):
        # (1+y)^2 / 12
        expected = RatFuncY([Fraction(1, 12), Fraction(1, 6), Fraction(1, 12)])
        assert hirzebruch_series("Q", 2)[2] == expected

    def test_r_series_shape(self):
        r = hirzebruch_series("R", 5)
        assert r[0].is_zero()
        assert r[1] == RatFuncY.ONE

    @pytest.mark.parametrize("order", [0, 8, 12])
    def test_identity_report(self, order):
        assert verify_identity_qr(order)["ok"]

    def test_todd_matches_y_zero(self):
        todd = genera._todd_series(9)
        q0 = [c(0) for c in hirzebruch_series("Q", 9)]
        assert [c(0) for c in todd] == q0


class TestClassFromRoots:
    def test_two_roots_chern_specialization(self):
        ring = ProjRing(2)
        cls = class_from_roots(ring, [ring.h, ring.h], "Q")
        at_chern = [c(-1) for c in cls.coeffs]
        assert at_chern == [1, 2, 1]  # (1+h)^2

    def test_empty_roots(self):
        ring = ProjRing(3)
        assert class_from_roots(ring, [], "Q") == ring.one()

    def test_todd_of_plane_tangent(self):
        ring = ProjRing(2)
        cls = class_from_roots(ring, [ring.h] * 3, "Todd")
        assert [c(0) for c in cls.coeffs] == [1, Fraction(3, 2), 1]

    def test_specialization_chain_matches_direct_formulas(self):
        # y = -1 gives the total Chern class, y = 0 the Todd class, both
        # computed here by direct independent expressions in the roots.
        ring = ProjRing(3)
        roots = [ring.h, ring.h * 2, ring.h * 3]
        cls = class_from_roots(ring, roots, "Q")
        chern = ring.one()
        for r in roots:
            chern = chern * (ring.one() + r)
        todd = class_from_roots(ring, roots, "Todd")
        assert [c(-1) for c in cls.coeffs] == [c(0) for c in chern.coeffs]
        assert [c(0) for c in cls.coeffs] == [c(0) for c in todd.coeffs]


class TestLambdaY:
    def test_trivial_line_bundle(self):
        ring = ProjRing(1)
        got = lambda_y(ChernData(1, (ring.zero(),)), ring)
        assert got == ring.one() * RatFuncY.ONE_PLUS_Y

    def test_cotangent_line_of_projective_line(self):
        ring = ProjRing(1)
        got = lambda_y(ChernData(1, (ring.h * (-2),)), ring)
        # 1 + y * ch(O(-2)) = (1+y) - 2y h
        assert got.coeff(0) == RatFuncY.ONE_PLUS_Y
        assert got.coeff(1) == RatFuncY([0, -2])

    def test_virtual_rank_series(self):
        ring = ProjRing(2)
        cotangent = ChernData(2, (ring.h * (-3), ring.h * ring.h * 3))
        conormal = ChernData(1, (ring.h * (-2), ring.zero()))
        got = lambda_y_virtual(cotangent, conormal, ring)
        assert got.coeff(0) == RatFuncY.ONE_PLUS_Y  # (1+y)^2/(1+y)

    def test_multiplicative_on_split_bundles(self):
        ring = ProjRing(3)
        rng = random.Random(3)
        for _ in range(12):
            slopes = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
            total = ring.one()
            product = ring.one()
            for a in slopes:
                line = ChernData(1, (ring.h * a, ring.zero(), ring.zero()))
                product = product * lambda_y(line, ring)
                total = total * (ring.one() + ring.h * a)
            split = ChernData(len(slopes),
                              tuple(graded_part(total, i) for i in (1, 2, 3)))
            assert lambda_y(split, ring) == product


class TestChernData:
    def test_chern_to_ch_line_bundle(self):
        ring = ProjRing(3)
        ch = chern_to_ch(ChernData(1, (ring.h, ring.zero(), ring.zero())), ring)
        assert [c(0) for c in ch.coeffs] == [1, 1, Fraction(1, 2), Fraction(1, 6)]

    def test_todd_from_chern_matches_series_route(self):
        ring = ProjRing(2)
        tangent = ChernData(2, (ring.h * 3, ring.h * ring.h * 3))
        direct = todd_from_chern(tangent, ring)
        via_roots = class_from_roots(ring, [ring.h] * 3, "Todd")
        assert [c(0) for c in direct.coeffs] == [c(0) for c in via_roots.coeffs]
