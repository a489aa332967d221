import pytest

from hmclass.ambient import MAX_AMBIENT, virtual_genus, virtual_pushed
from hmclass.coeffs import RatFuncY
from oracles import (ChernData, ProjRing, RingElement, class_from_roots,
                     coeff_list, euler_via_chern, graded_part, lambda_y,
                     td_transform, ty_class_pn)


def polys(gc):
    return [c.as_poly() for c in coeff_list(gc)]


class TestHirzebruchClassOfPn:
    def test_line(self):
        assert polys(ty_class_pn(1)) == [RatFuncY([1, -1]), RatFuncY([1])]

    def test_plane_trace(self):
        assert ty_class_pn(2).coeff(2) == RatFuncY([1, -1, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_arithmetic_genus_normalization(self, n):
        assert ty_class_pn(n).coeff(n).as_poly()(0) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_lambda_y_route(self, n):
        # independent route: scaled Todd transformation of the lambda_y
        # class of the cotangent bundle
        ring = ProjRing(n)
        cotangent_total = (ring.one() - ring.h) ** (n + 1)
        cd = ChernData(n, tuple(graded_part(cotangent_total, i)
                                for i in range(1, n + 1)))
        ch = lambda_y(cd, ring)
        todd = class_from_roots(ring, [ring.h] * (n + 1), "Todd")
        got = td_transform(ch, todd)
        assert got == ty_class_pn(n)


class TestVirtualClasses:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_degree_one_is_smooth_hyperplane(self, n):
        pushed = virtual_pushed(1, n)  # h^(n-k) in homology degree k
        inner = ty_class_pn(n - 1)
        for k in range(n - 1 + 1):
            assert pushed[n - k] == coeff_list(inner)[k]
        assert pushed[0].is_zero()

    def test_quadric_surface_trace(self):
        assert virtual_genus(2, 3) == RatFuncY([1, -2, 1])

    def test_quartic_surface_trace(self):
        assert virtual_genus(4, 3) == RatFuncY([2, -20, 2])

    def test_conic_and_cubic(self):
        assert virtual_genus(2, 2) == RatFuncY([1, -1])
        assert virtual_genus(3, 3) == RatFuncY([1, -7, 1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_degree_one_genus(self, n):
        assert virtual_genus(1, n) == RatFuncY([(-1) ** p for p in range(n)])

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3),
                                     (5, 3), (2, 4), (3, 4)])
    def test_coefficients_polynomial_and_leading(self, d, n):
        gc = virtual_pushed(d, n)
        for c in gc:
            assert c.is_polynomial()
        assert gc[1] == RatFuncY([d])  # homology degree n - 1

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                                     (4, 3), (5, 3), (3, 4)])
    def test_euler_against_chern_integral(self, d, n):
        assert virtual_genus(d, n)(-1) == euler_via_chern(d, n)

    # a hypersurface is the complete intersection of one degree
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("ds", [(d,) for d in range(1, 6)])
    def test_complete_intersection_against_roots(self, ds, n):
        # Q on n+1 copies of h times R on d*h, evaluated root by root
        ring = ProjRing(n)
        expected = (class_from_roots(ring, [ring.h] * (n + 1), "Q")
                    * class_from_roots(ring, [ring.h * d for d in ds], "R"))
        assert RingElement(ring, virtual_pushed(*ds, n)) == expected

    @pytest.mark.parametrize("ds", [(1,), (3,), (2,)])
    def test_order_past_the_limit(self, ds):
        with pytest.raises(ValueError, match=f"ambient dimension "
                           f"{MAX_AMBIENT + 1} exceeds the limit"):
            virtual_pushed(*ds, MAX_AMBIENT + 1)


class TestSpecialize:
    def test_chern_class_of_line(self):
        got = [c(-1) for c in coeff_list(ty_class_pn(1))]
        assert got == [2, 1]

    def test_todd_of_line(self):
        got = [c(0) for c in coeff_list(ty_class_pn(1))]
        assert got == [1, 1]
