import random
from collections import Counter
from fractions import Fraction

import pytest

from hmclass import corpus
from hmclass.arrangement import ArrangementError, build, sigma_strata
from hmclass.coeffs import RatFuncY
from hmclass.strata import (Label, LabelSchema, StrataError,
                            StratumDimensionError, build_labels, chow_dims,
                            compactify, homology_weight_dims, push_to_sigma,
                            specializations, trace)
from models import (build_model, deligne_residues, power_identity_holds,
                    residues)
from oracles import (basis_class, by_codegree, deligne_vector, log_chern,
                     model_class, model_ring, vector_to_json)

F = Fraction


def stratum_of(arr, key):
    for s in sigma_strata(arr):
        if s.key == key:
            return s
    raise KeyError(key)


def deligne_class(model, k):
    """The k-th Deligne-extension class as a class in the model ring."""
    return model_class(model, deligne_vector(model, k))


def pushed(schema, model, elem):
    """A class of the model ring pushed to the labeled Chow basis, by
    codegree."""
    return push_to_sigma(schema, model.stratum,
                         by_codegree(model, elem.coeffs))


def two_planes():
    return build(3, [((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1)])


def double_plane_crossed(k):
    """Plane with multiplicity two crossed by k other generic planes."""
    hyps = [((0, 0, 0, 1), 2)]
    others = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)]
    for cov in others[:k]:
        hyps.append((cov, 1))
    return build(3, hyps)


def double_plane_pencil():
    """Plane with multiplicity two meeting a pencil of three planes; the
    induced lines are concurrent, so one blow-up is forced."""
    return build(3, [((0, 0, 0, 1), 2), ((1, 0, 0, 0), 1),
                     ((0, 1, 0, 0), 1), ((1, 1, 0, 0), 1)])


class TestCompactify:
    def test_line_of_two_planes(self):
        arr = two_planes()
        model = build_model(arr, stratum_of(arr, "1,2"))
        assert model.kind == "curve"
        assert [c.name for c in model.boundary] == ["infinity"]

    def test_double_line(self):
        arr = corpus.load("doubleline")
        model = build_model(arr, stratum_of(arr, "1"))
        assert model.kind == "curve"
        assert [c.source for c in model.boundary] == ["infinity"]

    def test_generic_crossed_surface_has_no_blowups(self):
        arr = double_plane_crossed(3)
        model = build_model(arr, stratum_of(arr, "1"))
        assert model.kind == "surface"
        assert model.blown_points == ()
        sources = [c.source for c in model.boundary]
        assert sources.count("edge") == 3 and sources.count("infinity") == 1

    def test_pencil_crossed_surface_blows_up_the_center(self):
        arr = double_plane_pencil()
        model = build_model(arr, stratum_of(arr, "1"))
        assert model.kind == "surface"
        assert model.blown_points == ("1,2,3,4",)
        ring = model_ring(model)
        eps = basis_class(ring, "eps_1,2,3,4")
        for comp in model.boundary:
            cls = model_class(model, comp.cls)
            if comp.source == "edge":
                assert cls == basis_class(ring, "e") - eps
            elif comp.source == "exceptional":
                assert cls == eps
            else:
                assert cls == basis_class(ring, "e")

    def test_point_stratum(self):
        arr = corpus.load("triangle3")
        model = build_model(arr, sigma_strata(arr)[0])
        assert model.kind == "point" and model.boundary == ()

    def test_dimension_cap(self):
        arr = build(4, [((1, 0, 0, 0, 0), 2)])
        with pytest.raises(StratumDimensionError,
                           match="unsupported stratum dimension"):
            build_model(arr, sigma_strata(arr)[0])


class TestWalk:
    """compactify's one walk of a stratum's lattice row, as positions."""

    def keys(self, arr, stratum):
        edges = arr.lattice.edges
        lines, blown = compactify(arr, stratum)
        return ([edges[j].key for j in lines],
                {edges[i].key: t for i, t in blown.items()})

    def test_curve_reads_its_whole_row(self):
        arr = corpus.load("fourplanes")
        assert self.keys(arr, stratum_of(arr, "1,2")) == (
            ["1,2,3", "1,2,4"], {})

    def test_point_has_no_boundary(self):
        arr = corpus.load("triangle3")
        assert compactify(arr, sigma_strata(arr)[0]) == ((), {})

    def test_generic_crossed_surface_has_no_blown_point(self):
        arr = double_plane_crossed(3)
        assert self.keys(arr, stratum_of(arr, "1")) == (
            ["1,2", "1,3", "1,4"], {})

    def test_pencil_center_is_blown_with_its_lines(self):
        arr = double_plane_pencil()
        assert self.keys(arr, stratum_of(arr, "1")) == (
            ["1,2", "1,3", "1,4"], {"1,2,3,4": 3})

    def test_blown_points_in_lattice_order_with_t(self):
        # a double plane x0 with the pencil x1, x2, x1 + x2, x1 - x2
        # through [0:0:0:1] and x1, x3, x1 + x3 through [0:0:1:0]
        arr = build(3, [((1, 0, 0, 0), 2), ((0, 1, 0, 0), 1),
                        ((0, 0, 1, 0), 1), ((0, 1, 1, 0), 1),
                        ((0, 1, -1, 0), 1), ((0, 0, 0, 1), 1),
                        ((0, 1, 0, 1), 1)])
        lines, blown = compactify(arr, stratum_of(arr, "1"))
        assert len(lines) == 6
        assert sorted(blown) == list(blown)
        assert sorted(blown.values()) == [3, 4]

    def test_dimension_cap(self):
        arr = build(4, [((1, 0, 0, 0, 0), 2)])
        with pytest.raises(StratumDimensionError,
                           match="unsupported stratum dimension"):
            compactify(arr, sigma_strata(arr)[0])


class TestResidues:
    def test_double_line_infinity_residue_vanishes(self):
        arr = corpus.load("doubleline")
        model = build_model(arr, stratum_of(arr, "1"))
        assert residues(model) == {"infinity": 0}

    def test_fourplanes_line_boundary(self):
        arr = corpus.load("fourplanes")
        model = build_model(arr, stratum_of(arr, "1,2"))
        got = residues(model)
        assert got == {"1,2,3": 1, "1,2,4": 1, "infinity": 0}

    def test_divisible_total_degree(self):
        # m_s | m forces a vanishing infinity residue
        arr = corpus.load("pencil3planes")
        model = build_model(arr, stratum_of(arr, "1,2,3"))
        assert residues(model)["infinity"] == 0

    @pytest.mark.parametrize("name", list(corpus.ALL_NAMES))
    def test_windows(self, name):
        arr = corpus.load(name)
        for s in sigma_strata(arr):
            model = build_model(arr, s)
            for v in residues(model).values():
                assert 0 <= v < model.m_s


class TestDeligne:
    def degree(self, model, elem):
        # divisor degree on a curve model
        return elem.coeff(1).as_poly()(0)

    def test_double_line_nontrivial_character(self):
        arr = corpus.load("doubleline")
        model = build_model(arr, stratum_of(arr, "1"))
        cls = deligne_class(model, 1)
        assert self.degree(model, cls) == -1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pencil_every_character(self, k):
        arr = corpus.load("pencil3planes")
        model = build_model(arr, stratum_of(arr, "1,2,3"))
        assert self.degree(model, deligne_class(model, k)) == -1

    def test_point_model_trivial(self):
        arr = corpus.load("triangle3")
        model = build_model(arr, sigma_strata(arr)[0])
        assert deligne_class(model, model.m_s).is_zero()

    def test_k_range(self):
        arr = corpus.load("doubleline")
        model = build_model(arr, stratum_of(arr, "1"))
        with pytest.raises(StrataError):
            deligne_class(model, 0)
        with pytest.raises(StrataError):
            deligne_class(model, 3)

    @pytest.mark.parametrize("name", list(corpus.ALL_NAMES))
    def test_residue_window_default_mode(self, name):
        arr = corpus.load(name)
        for s in sigma_strata(arr):
            model = build_model(arr, s)
            for k in range(1, model.m_s + 1):
                for v in deligne_residues(model, k).values():
                    assert 0 < v <= 1

    def test_residue_window_other_mode(self):
        arr = corpus.load("fourplanes")
        for s in sigma_strata(arr):
            model = build_model(arr, s)
            for k in range(0, model.m_s):
                for v in deligne_residues(model, k, "res_[0,1)").values():
                    assert 0 <= v < 1

    @pytest.mark.parametrize("name", list(corpus.ALL_NAMES))
    def test_tensor_power_identity(self, name):
        arr = corpus.load(name)
        for s in sigma_strata(arr):
            assert power_identity_holds(build_model(arr, s))

    def test_tensor_power_identity_on_blown_surface(self):
        arr = double_plane_pencil()
        assert power_identity_holds(build_model(arr, stratum_of(arr, "1")))

    def test_base_class_of_fourplanes_line(self):
        arr = corpus.load("fourplanes")
        model = build_model(arr, stratum_of(arr, "1,2"))
        base = model_class(model, model.deligne_base_vector)
        assert self.degree(model, base) == -1


class TestLogChern:
    def test_curve_with_two_boundary_points(self):
        arr = two_planes()
        model = build_model(arr, stratum_of(arr, "1,2"))
        assert len(model.boundary) == 1
        # doubleline in the plane also has one boundary point; use the
        # fourplanes line for three
        arr4 = corpus.load("fourplanes")
        model4 = build_model(arr4, stratum_of(arr4, "1,2"))
        cd = log_chern(model4, 1)
        assert cd.c(1).coeff(1).as_poly()(0) == 1  # -2 + 3

    def test_curve_degree_formula(self):
        arr = corpus.load("pencil3planes")
        model = build_model(arr, stratum_of(arr, "1,2,3"))
        cd = log_chern(model, 1)
        assert cd.c(1).coeff(1).as_poly()(0) == -1  # -2 + 1

    def test_surface_top_power_three_boundary_lines(self):
        # plane with multiplicity two crossed by two generic planes: the
        # boundary is two induced lines plus the generic one, so the top
        # logarithmic power is trivial
        arr = double_plane_crossed(2)
        model = build_model(arr, stratum_of(arr, "1"))
        cd = log_chern(model, 2)
        assert cd.c(1).is_zero()

    def test_surface_middle_power(self):
        arr = corpus.load("doubleplane3")
        model = build_model(arr, stratum_of(arr, "1"))
        cd = log_chern(model, 1)
        ring = model_ring(model)
        assert cd.rank == 2
        assert cd.c(1) == basis_class(ring, "e")
        assert cd.c(2) == basis_class(ring, "pt")

    def test_q_out_of_range(self):
        arr = corpus.load("doubleline")
        model = build_model(arr, stratum_of(arr, "1"))
        with pytest.raises(StrataError):
            log_chern(model, 2)


class TestSurfaceRing:
    def test_proper_transform_intersections(self):
        arr = double_plane_pencil()
        model = build_model(arr, stratum_of(arr, "1"))
        ring = model_ring(model)
        line_a, line_b = [model_class(model, c.cls) for c in model.boundary
                          if c.source == "edge"][:2]
        infinity = [model_class(model, c.cls) for c in model.boundary
                    if c.source == "infinity"][0]

        def deg(elem):
            return elem.coeffs[-1].as_poly()(0)

        # both induced lines pass through the blown point
        assert deg(line_a * line_b) == 0
        # the generic line misses it
        assert deg(line_a * infinity) == 1
        assert deg(infinity * infinity) == 1

    def test_exceptional_self_intersection(self):
        arr = double_plane_pencil()
        model = build_model(arr, stratum_of(arr, "1"))
        eps = basis_class(model_ring(model), "eps_1,2,3,4")
        assert eps * eps == -basis_class(model_ring(model), "pt")

    def test_rings_are_not_interned(self):
        # each surface model owns its oracle ring: one model's classes mix
        # when read twice, two models' classes do not
        arr = double_plane_pencil()
        a = build_model(arr, stratum_of(arr, "1"))
        b = build_model(arr, stratum_of(arr, "1"))
        assert model_ring(a) is model_ring(a)
        assert model_ring(a) is not model_ring(b)
        with pytest.raises(ValueError):
            basis_class(model_ring(a), "e") + basis_class(model_ring(b), "e")
        with pytest.raises(ValueError):
            (basis_class(model_ring(a), "eps_1,2,3,4")
             * basis_class(model_ring(b), "eps_1,2,3,4"))


class TestPushAndLabels:
    def test_line_stratum_own_label(self):
        arr = corpus.load("fourplanes")
        schema = build_labels(arr)
        model = build_model(arr, stratum_of(arr, "1,2"))
        vec = pushed(schema, model, model_ring(model).one())
        assert vec["L_{12}"] == RatFuncY.ONE
        assert trace(schema, vec).is_zero()

    def test_point_class_shared_label(self):
        arr = corpus.load("fourplanes")
        schema = build_labels(arr)
        model = build_model(arr, stratum_of(arr, "1,2"))
        pt = model_ring(model).basis_element(1)
        vec = pushed(schema, model, pt)
        assert vec["Q_{0}"] == RatFuncY.ONE

    def test_exceptional_class_contracts(self):
        arr = double_plane_pencil()
        schema = build_labels(arr)
        model = build_model(arr, stratum_of(arr, "1"))
        eps = basis_class(model_ring(model), "eps_1,2,3,4")
        vec = pushed(schema, model, eps)
        assert vec == {}
        assert vector_to_json(schema, vec) == {
            name: [] for name in schema.names()}

    def test_push_respects_point_degree(self):
        arr = corpus.load("doubleplane3")
        schema = build_labels(arr)
        model = build_model(arr, stratum_of(arr, "1"))
        elem = basis_class(model_ring(model), "pt") * 7 + basis_class(model_ring(model), "e") * 3
        vec = pushed(schema, model, elem)
        assert trace(schema, vec) == RatFuncY([7])

    def test_codim2_edge_inside_multiple_hyperplane_shares(self):
        arr = corpus.load("doubleplane3")
        schema = build_labels(arr)
        model = build_model(arr, stratum_of(arr, "1,2"))
        vec = pushed(schema, model, model_ring(model).one())
        assert vec["Q_{1}"] == RatFuncY.ONE

    def test_label_inventory(self):
        schema = build_labels(corpus.load("doubleplane3"))
        assert schema.names() == ["H_{1}", "L_{23}", "L_{24}", "L_{34}",
                                  "Q_{1}", "Q_{0}"]

    @pytest.mark.parametrize("name", corpus.ALL_NAMES)
    def test_fundamental_labels_cover_sigma_strata(self, name):
        arr = corpus.load(name)
        assert (list(build_labels(arr).fundamental)
                == [s.key for s in sigma_strata(arr)])

    def test_smooth_arrangement_has_no_labels(self):
        arr = build(2, [((1, 0, 0), 1)])
        assert build_labels(arr).labels == ()

    def test_label_past_the_envelope_is_refused(self):
        # a codimension-2 edge that owns a label is named by its dimension,
        # which the models cap at 2; a multiple hyperplane is named H
        # whatever its dimension
        arr = build(5, [((1, 0, 0, 0, 0, 0), 1), ((0, 1, 0, 0, 0, 0), 1)])
        with pytest.raises(StratumDimensionError) as raised:
            build_labels(arr)
        assert str(raised.value) == ("unsupported stratum dimension 3 "
                                     "(cap is 2)")
        arr = build(5, [((1, 0, 0, 0, 0, 0), 2)])
        assert build_labels(arr).names() == ["H_{1}", "Q_{3}", "Q_{2}",
                                             "Q_{1}", "Q_{0}"]


def repeated(*groups) -> tuple:
    """(schema, vector) on point labels P_{1}, P_{2}, ... and one line
    label H_{1}: each group (count, value) puts value on count point
    labels in turn, and the line label holds the first group's value,
    which the trace must skip."""
    names, values = [], {}
    for count, value in groups:
        for _ in range(count):
            names.append(f"P_{{{len(names) + 1}}}")
            values[names[-1]] = value
    values["H_{1}"] = groups[0][1]
    labels = tuple(Label(name, 0) for name in names) + (Label("H_{1}", 1),)
    return LabelSchema(labels, {}, {}), values


class TestTraceAndSpecializations:
    # each distinct coefficient is added, or evaluated, once for all the
    # labels holding it; the sums below are written out label by label
    half = RatFuncY([F(1, 2), F(-3, 2)])  # (1 - 3y)/2
    negative = RatFuncY([-1, 0, 1])  # -1 + y^2

    def test_trace_counts_each_label(self):
        schema, vec = repeated((4, self.half), (2, self.negative),
                               (1, self.half))
        a, b = self.half, self.negative
        want = a + a + a + a + b + b + a
        assert want == RatFuncY([F(1, 2), F(-15, 2), 2])
        assert trace(schema, vec) == want

    def test_trace_cancels_to_zero(self):
        # 4 (1 - y)/2 + 2 (-1 + y) = 0, and 3 a + 3 (-a) = 0
        schema, vec = repeated((4, RatFuncY([F(1, 2), F(-1, 2)])),
                               (2, RatFuncY([-1, 1])))
        assert trace(schema, vec).is_zero()
        schema, vec = repeated((3, self.half), (3, -self.half))
        assert trace(schema, vec) == RatFuncY.ZERO

    def test_trace_of_repeated_fractions_in_y(self):
        # 3 y/(1 + y) + 3/(1 + y) = 3
        schema, vec = repeated((3, RatFuncY([0, 1], 1)),
                               (3, RatFuncY([1], 1)))
        assert trace(schema, vec) == RatFuncY([3])
        schema, vec = repeated((5, RatFuncY([F(1, 2)], 1)))
        assert trace(schema, vec) == RatFuncY([F(5, 2)], 1)

    def test_three_specializations(self):
        schema, vec = repeated((4, self.half), (2, self.negative),
                               (1, self.half))
        at = specializations(vec)
        assert list(at) == [-1, 0, 1]
        at_minus1, at0, at1 = at.values()
        a_labels = ["P_{1}", "P_{2}", "P_{3}", "P_{4}", "P_{7}", "H_{1}"]
        b_labels = ["P_{5}", "P_{6}"]
        # (1 - 3y)/2 is 2, 1/2, -1 and -1 + y^2 is 0, -1, 0 at y = -1, 0, 1,
        # each an integer pair in lowest terms
        assert at_minus1 == dict.fromkeys(a_labels, (2, 1))
        assert at0 == {**dict.fromkeys(a_labels, (1, 2)),
                       **dict.fromkeys(b_labels, (-1, 1))}
        assert at1 == dict.fromkeys(a_labels, (-1, 1))
        # the trace at each point: 5 * 2, 5/2 - 2 and -5
        assert [sum(F(*v[label.name]) for label in schema.labels
                    if label.degree == 0 and label.name in v)
                for v in (at_minus1, at0, at1)] == [10, F(1, 2), -5]


    def test_zero_value_is_refused_by_its_label(self):
        with pytest.raises(ValueError) as info:
            specializations({"P_{1}": self.half, "x": RatFuncY()})
        assert str(info.value) == "zero value stored at label x"


class TestDimensionTables:
    def test_lines_in_the_plane(self):
        dims = chow_dims(corpus.load("triangle3"))
        assert dims["CH_X"] == {1: 3, 0: 1}
        assert dims["CH_Sigma"] == {1: 0, 0: 3}

    def test_fourplanes(self):
        dims = chow_dims(corpus.load("fourplanes"))
        assert dims["CH_Sigma"] == {2: 0, 1: 6, 0: 1}
        assert dims["CH_X"] == {2: 4, 1: 1, 0: 1}

    def test_doubleplane(self):
        dims = chow_dims(corpus.load("doubleplane3"))
        assert dims["CH_Sigma"] == {2: 1, 1: 4, 0: 1}

    def test_smooth(self):
        dims = chow_dims(build(3, [((1, 0, 0, 0), 1)]))
        assert all(v == 0 for v in dims["CH_Sigma"].values())

    def test_sigma_ranks_count_the_schema_labels(self):
        # chow_dims names no label: its CH_Sigma ranks are the per-degree
        # counts of the labels build_labels names, on every corpus file and
        # on seeded draws in P^2 to P^4, some with multiple hyperplanes
        rng = random.Random(12)
        arrs = [corpus.load(name) for name in corpus.ALL_NAMES]
        for n, k in [(2, 5), (2, 8), (3, 5), (3, 7), (4, 6), (4, 7)] * 4:
            while True:
                hyps = [([rng.choice((-1, 0, 0, 1, 2)) for _ in range(n + 1)],
                         rng.choice((1, 1, 1, 2))) for _ in range(k)]
                try:
                    arrs.append(build(n, hyps))
                    break
                except ArrangementError:
                    pass
        assert sum(max(a.mults) > 1 for a in arrs) >= 10
        for arr in arrs:
            counts = Counter(l.degree for l in build_labels(arr).labels)
            assert chow_dims(arr)["CH_Sigma"] == {
                d: counts[d] for d in range(arr.n - 1, -1, -1)}

    @pytest.mark.parametrize("name,r", [("triangle3", 3), ("quad6a", 6),
                                        ("fourplanes", 4)])
    def test_weight_dims(self, name, r):
        arr = corpus.load(name)
        dims = homology_weight_dims(arr)
        n = arr.n
        assert dims[2 * n - 2] == r
        for k in range(2 * n - 2):
            assert dims[k] == (1 if k % 2 == 0 else 0)
