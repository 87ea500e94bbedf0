"""Exponential sums/integrals, local counting, and the identity harness."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mucone import geometry
from mucone.complement import (
    FlagMap,
    InnerProductMap,
    RayTableMap,
    diaconis_fulton_map,
    standard_inner_product,
)
from mucone.errors import DirectionDegenerateError, NotFullDimError, NotGenericError
from mucone.geometry import Polytope, in_convex_hull, normal_cone, supporting_cone
from mucone.interp import (
    MuTable,
    MuValue,
    clear_mu_cache,
    mu,
    mu_on_line,
    mu_table,
)
from mucone.linalg import Matrix, Vector, dot
from mucone.series import LaurentSeries, restrict_to_direction
from mucone.valuations import (
    Direction,
    _half_open_cone_series,
    brion_vertex_decomposition_check,
    certify_direction,
    count_breakdown,
    count_via_local_formula,
    i_face_series,
    s_series,
    sample_direction,
    verify_interpolator,
)
from oracles import (
    exp_sum_series,
    face_for,
    half_open_cell_series_by_inverse,
    i_face_series_in_fractions,
    s_series_in_fractions,
    whole_face,
)
from test_acceptance import make_polytope_corpus


def V(*xs):
    return Vector(xs)


IP1 = standard_inner_product(1)
IP2 = standard_inner_product(2)
IP3 = standard_inner_product(3)


def triangle(t):
    return Polytope([V(0, 0), V(t, 0), V(0, t)], name=f"triangle-{t}")


def segment(m):
    return Polytope([V(0), V(m)], name=f"segment-{m}")


VERTICES = {
    "unit-square": [(0, 0), (1, 0), (0, 1), (1, 1)],
    "unit-cube": [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    "triangle-1": [(0, 0), (1, 0), (0, 1)],
    "tri-skew": [(0, 0), (3, 1), (1, 4)],
    "diamond": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "pyramid": [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)],
}


def fresh_polytope(name: str) -> Polytope:
    return Polytope([V(*v) for v in VERTICES[name]], name=name)


@cache
def polytope(name: str) -> Polytope:
    """The named polytope, built on first use: a slip in polytope geometry
    then fails the tests that read it, not the collection of this module."""
    return fresh_polytope(name)


class TestDirections:
    def test_certify_rejects_orthogonal(self):
        with pytest.raises(DirectionDegenerateError):
            certify_direction(V(1, 0), [V(0, 5)])

    def test_sampling_deterministic(self):
        d1, log1 = sample_direction(2, [V(1, 1)], seed=5)
        d2, log2 = sample_direction(2, [V(1, 1)], seed=5)
        assert d1.y0 == d2.y0 and log1 == log2

    def test_retry_on_degenerate_magnitudes(self):
        # both sign patterns of magnitudes (2,3) hit one of these
        avoid = [V(3, 2), V(3, -2)]
        d, log = sample_direction(2, avoid, seed=0)
        assert log[0]["rejected"] is not None
        assert all(d.y0.dot(v) != 0 for v in avoid)

    def test_zero_vectors_in_avoid_are_dropped(self):
        # every direction annihilates a zero vector: it constrains nothing
        d, log = sample_direction(2, [V(0, 0), V(1, 1), (0, 0)], seed=5)
        plain, plain_log = sample_direction(2, [V(1, 1)], seed=5)
        assert d.y0 == plain.y0 and log == plain_log
        assert [v for v, _ in d.certificate] == [V(1, 1)]

    def test_exhaustion(self):
        # kill every sign pattern of magnitude pairs (2,3), (3,5), (5,7)
        avoid = [V(3, 2), V(3, -2), V(5, 3), V(5, -3), V(7, 5), V(7, -5)]
        with pytest.raises(DirectionDegenerateError):
            sample_direction(2, avoid, retries=3)


@st.composite
def polytopes_under_gram_maps(draw, dims):
    """A full-dimensional lattice polytope in R^n, n drawn from dims, the
    hull of a few points with coordinates in [-1, 2], and a random
    positive-definite Gram map B^T B + I with B's entries in [-2, 2]."""
    n = draw(st.sampled_from(dims))
    pts = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * n),
                        min_size=n + 1, max_size=n + 3, unique=True))
    pts = [x for i, x in enumerate(pts) if not in_convex_hull(x, pts[:i] + pts[i + 1:])]
    p = Polytope(pts)
    assume(p.is_full_dimensional)
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    gram = [[sum(r[i] * r[j] for r in b) + (i == j) for j in range(n)] for i in range(n)]
    return p, InnerProductMap(Matrix(gram))


class TestSSeries:
    def test_origin_point(self):
        s = s_series(Polytope([V(0, 0)]), V(2, 3), 4)
        assert s.coefficient(0) == 1
        assert all(s.coefficient(r) == 0 for r in (1, 2, 3, 4))

    def test_segment_02(self):
        s = s_series(segment(2), V(1), 3)
        assert s.coefficient(0) == 3
        assert s.coefficient(1) == -3
        assert s.coefficient(2) == Fraction(5, 2)

    def test_t0_is_count(self):
        for p in [triangle(2), polytope("unit-square"), polytope("unit-cube"), segment(5)]:
            y0 = V(*range(2, 2 + p.ambient))
            assert s_series(p, y0, 0).coefficient(0) == len(p.lattice_points())

    def test_triangle_linear_term(self):
        s = s_series(triangle(1), V(2, 3), 2)
        assert s.coefficient(1) == -5

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(polytopes_under_gram_maps((1, 2, 3)), st.integers(0, 6), st.data())
    def test_power_sums_match_running_terms(self, case, q, data):
        p = case[0]
        entry = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6))
        y = Vector(data.draw(st.lists(entry, min_size=p.ambient, max_size=p.ambient)))
        s = s_series(p, y, q)
        assert s == exp_sum_series(p.lattice_points(), y, q)
        # exact: a float anywhere in the sums would have rounded some coefficient
        assert all(type(c) is Fraction for c in s.coeffs)


class TestIFaceSeries:
    def test_vertex(self):
        p = Polytope([V(1, 2), V(3, 2), V(1, 4), V(3, 4)])
        f = face_for(p, {0})
        s = i_face_series(f, V(2, 3), 3)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == -8
        assert s.coefficient(2) == 32
        # a vertex v contributes e^(-<y,v> t), for integer and rational y
        for p in make_polytope_corpus():
            n = p.ambient
            for y in (V(*(2 * i + 3 for i in range(n))),
                      V(*(Fraction(1 - 2 * i, i + 2) for i in range(n)))):
                for f in p.faces_of_dim(0):
                    (v,) = f.vertices
                    assert i_face_series(f, y, 5) == LaurentSeries.exp_taylor(-y.dot(v), 5)

    def test_unit_segment(self):
        p = segment(1)
        s = i_face_series(whole_face(p), V(1), 3)
        assert [s.coefficient(r) for r in range(4)] == [
            1, Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 24)]

    def test_t0_is_normalized_volume(self):
        from mucone.geometry import normalized_volume
        for p in [triangle(3), polytope("unit-cube"), polytope("unit-square")]:
            y0 = V(*range(2, 2 + p.ambient))
            for f in p.faces:
                s = i_face_series(f, y0, 1)
                assert s.coefficient(0) == normalized_volume(f)

    def test_box_product_rule(self):
        y0 = V(2, 3)
        q = 5
        square = polytope("unit-square")
        bottom = i_face_series(face_for(square, {0, 1}), y0, q)
        left = i_face_series(face_for(square, {0, 2}), y0, q)
        whole = i_face_series(whole_face(square), y0, q)
        assert (bottom * left).agrees_with(whole, through=q)

    def test_hypotenuse_scaling(self):
        p = triangle(4)
        hyp = face_for(p, {1, 2})
        s = i_face_series(hyp, V(2, 3), 0)
        assert s.coefficient(0) == 4


@cache
def _corpus():
    return make_polytope_corpus()


@st.composite
def corpus_and_direction(draw):
    """A polytope of the acceptance corpus and a direction with rational,
    non-integral entries (denominator s > 1 once cleared) and a negative one."""
    p = draw(st.sampled_from(_corpus()))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    non_integral = st.builds(Fraction, st.integers(1, 9), st.integers(2, 7)).filter(
        lambda c: c.denominator > 1)
    y = draw(st.lists(entry, min_size=p.ambient, max_size=p.ambient))
    y[draw(st.integers(0, p.ambient - 1))] = -draw(non_integral)
    return p, Vector(y)


class TestValuationsInIntegers:
    """s_series and i_face_series, whose numerators are ints over one
    denominator per series, against the Fraction sums they replaced."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(corpus_and_direction(), st.integers(0, 6))
    def test_match_fraction_sums(self, case, q):
        p, y = case
        assert any(c < 0 for c in y) and any(c.denominator > 1 for c in y)
        assert s_series(p, y, q) == s_series_in_fractions(p, y, q)
        for f in p.faces:
            assert i_face_series(f, y, q) == i_face_series_in_fractions(f, y, q)


class TestCounting:
    def test_triangles(self):
        for t, want in [(1, 3), (2, 6), (3, 10), (5, 21)]:
            assert count_via_local_formula(triangle(t), IP2) == want

    def test_point(self):
        assert count_via_local_formula(Polytope([V(7, -3)]), IP2) == 1

    def test_segments(self):
        for m in range(1, 11):
            assert count_via_local_formula(segment(m), IP1) == m + 1

    def test_cube_and_square(self):
        assert count_via_local_formula(polytope("unit-cube"), IP3) == 8
        assert count_via_local_formula(polytope("unit-square"), IP2) == 4
        big = Polytope([V(x, y) for x in (0, 3) for y in (0, 2)])
        assert count_via_local_formula(big, IP2) == 12

    def test_matches_brute_force(self):
        shapes = [
            triangle(4),
            Polytope([V(0, 0), V(1, 0), V(1, 2)]),
            Polytope([V(0, 0), V(2, 0), V(1, 3), V(0, 2)]),
            Polytope([V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]),
        ]
        for p in shapes:
            assert count_via_local_formula(p, standard_inner_product(p.ambient)) \
                == len(p.lattice_points())

    def test_breakdown_rows(self):
        total, rows = count_breakdown(triangle(2), IP2)
        assert total == 6
        assert len(rows) == 7


class TestVerifyInterpolator:
    def test_point(self):
        r = verify_interpolator(Polytope([V(3, 4)]), IP2, order=4)
        assert r.passed and r.q == 4
        # both sides are e^(-<y,v> t): one lattice point, mu of the zero cone 1
        for v in [(5,), (-1, 3), (2, 0, -4)]:
            p, n = Polytope([v]), len(v)
            for cmap in (standard_inner_product(n), GRAM[n]):
                for order, cross_validate in [(0, False), (3, False), (2, True)]:
                    r = verify_interpolator(p, cmap, order=order, cross_validate=cross_validate)
                    want = LaurentSeries.exp_taylor(-r.direction.y0.dot(v), order)
                    assert r.passed and r.q == order and r.left == r.right == want

    def test_triangle_fixed_direction(self):
        r = verify_interpolator(triangle(1), IP2, y0=V(2, 3), order=6)
        assert r.passed
        assert r.q == 4
        assert r.residual.is_zero

    def test_square_flag_map(self):
        m = FlagMap([V(1, 2), V(1, 0)])
        r = verify_interpolator(polytope("unit-square"), m, order=6)
        assert r.passed

    def test_q0_still_reads_the_full_subsets_psi(self):
        # at q = 0 each line is reduced through t^1, not t^0, so a table whose
        # vectors pair singularly with the vertex cone at the origin is still
        # refused, as when the lines were reduced through order
        cmap = RayTableMap([(V(1, 0), V(1, 1)), (V(0, 1), V(1, 1)),
                            (V(-1, 0), V(-1, 0)), (V(0, -1), V(0, -1))], ambient=2)
        square = polytope("unit-square")
        corner = dict(square.normal_cones)[square.faces_of_dim(0)[0]]
        assert mu_on_line(corner, cmap, V(3, 5), 0).coefficient(0) == Fraction(1, 12)
        with pytest.raises(NotGenericError, match="does not pair invertibly"):
            verify_interpolator(square, cmap, order=2)

    def test_triangle_df_map(self):
        r = verify_interpolator(triangle(1), diaconis_fulton_map(2), order=6)
        assert r.passed

    def test_nonstandard_gram(self):
        m = InnerProductMap(Matrix([[2, 1], [1, 3]]))
        r = verify_interpolator(triangle(2), m, order=5)
        assert r.passed

    def test_index_two_vertex_cone(self):
        p = Polytope([V(0, 0), V(1, 0), V(1, 2)])
        r = verify_interpolator(p, IP2, order=6)
        assert r.passed

    def test_cube(self):
        r = verify_interpolator(polytope("unit-cube"), IP3, order=5)
        assert r.passed and r.q == 2

    def test_corrupted_table_fails(self):
        p = triangle(1)
        table = mu_table(p, IP2, order=6)
        broken = []
        for i, (f, v) in enumerate(table.entries):
            if i == 0:
                v = MuValue(v.cone, v.map_key, v.order, v.series.scale(2),
                            v.provenance)
            broken.append((f, v))
        bad = MuTable(p, table.map_key, table.order, broken)
        r = verify_interpolator(p, IP2, y0=V(2, 3), order=6, table=bad)
        assert not r.passed
        assert not r.residual.is_zero

    def test_table_of_lower_order_fails(self):
        # a table known through t^1 leaves the identity open from t^2 on
        tri = triangle(1)
        r = verify_interpolator(tri, IP2, order=6, table=mu_table(tri, IP2, 1))
        assert r.q == 4 and r.achieved == 1
        assert not r.passed

    def test_report_json(self):
        r = verify_interpolator(triangle(1), IP2, order=6, seed=11)
        data = r.to_json()
        assert data["passed"] is True
        assert data["seed"] == 11
        assert data["q"] == 4 and data["achieved_order"] >= 4
        assert data["residual"]["coefficients"] == []

    def test_degenerate_direction_rejected(self):
        with pytest.raises(DirectionDegenerateError):
            verify_interpolator(polytope("unit-square"), IP2, y0=V(1, 0), order=6)

    def test_translation_invariance(self):
        p = triangle(2)
        shifted = Polytope([Vector(v) + V(5, -1) for v in p.vertices], name="shifted")
        t1 = mu_table(p, IP2, order=2)
        t2 = mu_table(shifted, IP2, order=2)
        for (f1, v1), (f2, v2) in zip(t1.entries, t2.entries):
            assert v1.series == v2.series
        assert verify_interpolator(shifted, IP2, order=6).passed


GRAM2 = InnerProductMap(Matrix([[2, 1], [1, 3]]))
GRAM3 = InnerProductMap(Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]]))
GRAM = {1: InnerProductMap(Matrix([[3]])), 2: GRAM2, 3: GRAM3}


def flag_map(n):
    return FlagMap([V(*(Fraction(p) ** e for e in range(n)))
                    for p in (2, 3, 5, 7)[:n]])


class TestMuOnLine:
    """mu computed in the line ring equals the restricted full mu."""

    @pytest.mark.parametrize("name, cmap", [
        ("tri-skew", IP2), ("tri-skew", GRAM2),
        ("diamond", IP2), ("diamond", GRAM2), ("diamond", flag_map(2)),
        ("unit-cube", IP3), ("unit-cube", GRAM3), ("unit-cube", flag_map(3)),
        ("octahedron", IP3), ("octahedron", GRAM3),
        ("pyramid", IP3), ("pyramid", GRAM3),
        ("triangle-1", diaconis_fulton_map(2)),
    ], ids=lambda x: x if isinstance(x, str) else x.describe())
    def test_agrees_with_restricted_full_mu(self, name, cmap):
        p = polytope(name)
        rep = verify_interpolator(p, cmap, order=6)
        assert rep.passed
        y0 = rep.direction.y0
        for f, v in mu_table(p, cmap, 6).entries:
            line = mu_on_line(v.cone, cmap, y0, 6)
            full = restrict_to_direction(v.series, y0)
            assert line.known_to == full.known_to == 6
            for r in range(7):
                assert line.coefficient(r) == full.coefficient(r), (f, r)

    @pytest.mark.parametrize("name", ["tri-skew", "octahedron", "pyramid"])
    def test_refuses_where_full_mu_refuses(self, name):
        p = polytope(name)
        # the flag map is not generic on some normal cones of these
        cmap = flag_map(p.ambient)
        y0 = V(*(2, -3, 5)[:p.ambient])

        def outcome(compute):
            try:
                compute()
            except NotGenericError:
                return "not generic"
            return "ok"

        seen = []
        for f in p.faces:
            if f.dim == p.dim:
                continue
            nc = normal_cone(p, f)
            full = outcome(lambda: mu(nc, cmap, 2))
            assert outcome(lambda: mu_on_line(nc, cmap, y0, 2)) == full
            seen.append(full)
        assert "not generic" in seen

    @pytest.mark.parametrize("cross_validate", [False, True])
    def test_verify_leaves_mu_cache_multivariate(self, cross_validate):
        p = Polytope([V(0, 0), V(1, 0), V(1, 2)], name="index-two")
        clear_mu_cache()
        assert verify_interpolator(p, IP2, order=6,
                                   cross_validate=cross_validate).passed
        after = [v.series for _, v in
                 mu_table(p, IP2, 6, cross_validate).entries]
        clear_mu_cache()
        fresh = [v.series for _, v in
                 mu_table(p, IP2, 6, cross_validate).entries]
        assert all(s.nvars == p.ambient for s in after)
        assert after == fresh


class TestCellsKeptOnPolytope:
    def test_each_normal_cone_subdivided_once(self, monkeypatch):
        calls = Counter()
        subdivide = geometry.subdivide_to_basic

        def counting(cone):
            calls[cone] += 1
            return subdivide(cone)

        monkeypatch.setattr(geometry, "subdivide_to_basic", counting)
        p = fresh_polytope("pyramid")
        reports = [verify_interpolator(p, cmap, order=6) for cmap in (IP3, GRAM3)]
        assert brion_vertex_decomposition_check(p, q=4)
        nonbasic = [nc for _, nc in p.normal_cones if not nc.is_basic]
        assert nonbasic
        # Brion subdivides each non-basic tangent cone once
        tangent = [supporting_cone(p, v)[1] for v in p.faces_of_dim(0)]
        assert calls == Counter(nonbasic + [c for c in tangent if not c.is_basic])
        # nothing that depends on the map is kept with the cells
        for cmap, rep in zip((IP3, GRAM3), reports):
            assert rep.passed
            fresh = fresh_polytope("pyramid")
            assert verify_interpolator(fresh, cmap, order=6).to_json() == rep.to_json()

    def test_count_reads_the_normal_fan(self, monkeypatch):
        # under both maps: one normal_cone per face, one subdivision per
        # non-basic normal cone
        cones, subdivided = Counter(), Counter()
        normal, subdivide = geometry.normal_cone, geometry.subdivide_to_basic

        def counting_normal(p, f):
            cones[f] += 1
            return normal(p, f)

        def counting_subdivide(cone):
            subdivided[cone] += 1
            return subdivide(cone)

        monkeypatch.setattr(geometry, "normal_cone", counting_normal)
        monkeypatch.setattr(geometry, "subdivide_to_basic", counting_subdivide)
        clear_mu_cache()
        p = fresh_polytope("pyramid")
        counts = {count_via_local_formula(p, cmap) for cmap in (IP3, GRAM3)}
        assert counts == {len(p.lattice_points())}
        assert cones == Counter(p.faces)
        nonbasic = [nc for _, nc in p.normal_cones if not nc.is_basic]
        assert nonbasic and subdivided == Counter(nonbasic)

    def test_count_does_geometry_once_per_face(self, monkeypatch):
        # under both maps: one triangulation per face; facets are listed only
        # for the normal cones that are subdivided, once for their extreme
        # rays and, when not simplicial, once more by the pulling triangulation
        p = fresh_polytope("pyramid")
        triangulated, listed = Counter(), Counter()
        simplices, facets = geometry.lattice_simplices, geometry.cone_facets

        def counting_simplices(f):
            triangulated[f] += 1
            return simplices(f)

        def counting_facets(rays):
            listed[frozenset(rays)] += 1
            return facets(rays)

        monkeypatch.setattr(geometry, "lattice_simplices", counting_simplices)
        monkeypatch.setattr(geometry, "cone_facets", counting_facets)
        clear_mu_cache()
        counts = {count_via_local_formula(p, cmap) for cmap in (IP3, GRAM3)}
        assert counts == {len(p.lattice_points())}
        assert triangulated == Counter(p.faces)
        nonbasic = [nc for _, nc in p.normal_cones if not nc.is_basic]
        assert any(not nc.is_simplicial for nc in nonbasic)
        assert listed == Counter({frozenset(nc.generators): 1 + (not nc.is_simplicial)
                                  for nc in nonbasic})


class TestBrion:
    def test_unit_segment(self):
        assert brion_vertex_decomposition_check(segment(1), y0=V(1), q=6)

    def test_segment_3(self):
        assert brion_vertex_decomposition_check(segment(3), q=6)

    def test_triangle(self):
        assert brion_vertex_decomposition_check(triangle(1), y0=V(2, 3), q=5)
        assert brion_vertex_decomposition_check(triangle(3), q=4)

    def test_unit_square(self):
        assert brion_vertex_decomposition_check(polytope("unit-square"), q=5)

    def test_nonbasic_vertex_cone(self):
        p = Polytope([V(0, 0), V(1, 0), V(1, 2)])
        assert brion_vertex_decomposition_check(p, q=5)

    def test_cube(self):
        assert brion_vertex_decomposition_check(polytope("unit-cube"), q=4)

    def test_point(self):
        assert brion_vertex_decomposition_check(Polytope([V(2, 2)]), q=3)
        for v in [(5,), (-1, 3), (2, 0, -4)]:
            p = Polytope([v])
            y = V(*(Fraction(2 * i + 1, 3) for i in range(len(v))))
            for seed in (1, 7):
                assert brion_vertex_decomposition_check(p, q=4, seed=seed)
            assert brion_vertex_decomposition_check(p, y0=y, q=4)
            assert brion_vertex_decomposition_check(p, y0=Direction(y), q=4)

    def test_random_polygons(self):
        # the direction must avoid the rays of the vertex cones' basic cells,
        # which the corner data of P (edges, normal fan) need not hold
        rng = random.Random(0)
        polygons = 0
        while polygons < 20:
            pts = list(dict.fromkeys((rng.randint(-6, 6), rng.randint(-6, 6))
                                     for _ in range(rng.randint(3, 6))))
            pts = [x for i, x in enumerate(pts) if not in_convex_hull(x, pts[:i] + pts[i + 1:])]
            p = Polytope(pts)
            if not p.is_full_dimensional:
                continue
            polygons += 1
            for seed in range(3):
                assert brion_vertex_decomposition_check(p, q=2, seed=seed), (pts, seed)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_cell_series_matches_inverse_route(self, data):
        # a random basic cell of k <= n rays in R^n, a direction off its
        # rays, an apex and a set of open facets
        n = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(0, n))
        ray = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
        rays = [data.draw(ray) for _ in range(k)]
        assume(not rays or Matrix(rays).rank() == k)
        cell = geometry.Cone(rays, ambient=n)
        assume(cell.is_basic)
        y = Vector(data.draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                                      min_size=n, max_size=n)))
        assume(all(y.dot(b) for b in cell.generators))
        apex = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        open_facets = data.draw(st.sets(st.integers(0, k - 1))) if k else set()
        q = data.draw(st.integers(0, 5))
        got = _half_open_cone_series(apex, cell, open_facets, y, q)
        want = half_open_cell_series_by_inverse(apex, cell, open_facets, y, q)
        assert got.known_to == q
        assert got.agrees_with(want, through=q)

    def test_coefficients_are_fractions(self):
        # an int c would make c ** (r - 1) a float at r = 0, whose Fraction is inexact
        for p in [triangle(2), polytope("unit-square"), Polytope([V(0, 0), V(1, 0), V(1, 2)])]:
            y = V(2, 3)
            for vert in p.faces_of_dim(0):
                apex, scone = supporting_cone(p, vert)
                for cell in scone.basic_cells:
                    for open_facets in [set(), set(range(len(cell.generators)))]:
                        piece = _half_open_cone_series(apex, cell, open_facets, y, 4)
                        assert piece.coeffs and all(type(c) is Fraction for c in piece.coeffs)
            rep = verify_interpolator(p, IP2, y0=y, order=4)
            for side in (rep.left, rep.right):
                assert side.coeffs and all(type(c) is Fraction for c in side.coeffs)

    def test_lower_dimensional_raises_for_every_direction_form(self):
        # the segment (0,0)-(2,0) in R^2: given a Direction, the check used to
        # skip the normal fan and pass; every form of y0 now raises up front
        p = Polytope([V(0, 0), V(2, 0)])
        for y0 in (Direction(V(1, 3)), V(1, 3), None):
            with pytest.raises(NotFullDimError, match="Brion check"):
                brion_vertex_decomposition_check(p, y0=y0, q=4)


def _random_lattice_polytope(rng: random.Random, n: int) -> Polytope:
    """A full-dimensional lattice polytope in R^n, the hull of a few points
    with coordinates in [-2, 2], given by its extreme points (in_convex_hull)."""
    while True:
        pts = list(dict.fromkeys(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n + 3)))
        pts = [x for i, x in enumerate(pts) if not in_convex_hull(x, pts[:i] + pts[i + 1:])]
        p = Polytope([Vector(x) for x in pts])
        if p.is_full_dimensional:
            return p


class TestEhrhart:
    """The local formula's face sums are the Ehrhart coefficients.

    c_k, the sum of mu0 * vol over the k-faces (rows of count_breakdown), is
    the t^k coefficient of L_P(t) = #(tP lattice points), since the normal
    fan does not change under dilation and vol scales by t^k.  Reciprocity
    gives L_P(-t) = (-1)^d #(interior lattice points of tP), interior being
    strict on every facet inequality.  The check adds no library code."""

    @pytest.mark.parametrize("n, seed", [(2, s) for s in range(6)] + [(3, s) for s in range(4)])
    def test_coefficients_and_reciprocity(self, n, seed):
        p = _random_lattice_polytope(random.Random(seed), n)
        self.check(p, [standard_inner_product(n), GRAM2 if n == 2 else GRAM3])

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(polytopes_under_gram_maps((2, 3)))
    def test_coefficients_and_reciprocity_under_random_maps(self, case):
        p, cmap = case
        self.check(p, [standard_inner_product(p.ambient), cmap])

    @staticmethod
    def check(p, cmaps):
        n = p.ambient
        coeffs = set()
        for cmap in cmaps:
            c = [Fraction(0)] * (n + 1)
            for f, mu0, vol in count_breakdown(p, cmap)[1]:
                c[f.dim] += mu0 * vol
            coeffs.add(tuple(c))
        assert len(coeffs) == 1  # the polynomial does not depend on the map
        for t in range(1, n + 2):
            tp = Polytope([[t * a for a in v] for v in p.vertices])
            points, facets = tp.lattice_points(), tp.facet_normals()
            inside = [x for x in points if all(dot(a, x) > b for a, b, _ in facets)]
            assert sum(ck * t ** k for k, ck in enumerate(c)) == len(points), (p, t)
            assert sum(ck * (-t) ** k for k, ck in enumerate(c)) == (-1) ** n * len(inside), (p, t)


class TestRandomPolytopes:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(polytopes_under_gram_maps((2, 3)))
    def test_local_count_equals_brute_force(self, case):
        # brute force: every point of the bounding box, by in_convex_hull
        p, cmap = case
        box = product(*(range(min(c), max(c) + 1) for c in zip(*p.vertices)))
        assert count_via_local_formula(p, cmap) == sum(in_convex_hull(x, p.vertices) for x in box)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(polytopes_under_gram_maps((1, 2)))
    def test_verify_interpolator_passes(self, case):
        p, cmap = case
        report = verify_interpolator(p, cmap, order=p.dim + 2)
        assert report.passed and report.achieved == report.q == 2


def _verify_corpus_reports(bench_workloads, shifts):
    """(op, report) for each operation of the benchmark's verify-corpus
    set-up at the given workload seeds, in set-up order."""
    workloads, m = bench_workloads
    for shift in shifts:
        for op in workloads.VerifyCorpus.setup(m, workloads.Seeds(shift=shift)):
            yield op, workloads.VerifyCorpus.call(m, op)


class TestVerifyCorpusDigests:
    """The benchmark's verify-corpus results, pinned byte for byte; a change
    meant to move one updates its constant here."""

    def test_sides_and_line_mu(self, bench_workloads):
        # both sides of each report, and mu of every normal cone on the
        # report's direction, at workload seeds 0 and 1
        workloads, _ = bench_workloads
        digest = hashlib.sha256()
        for (p, cmap, _), rep in _verify_corpus_reports(bench_workloads, (0, 1)):
            line_mu = [mu_on_line(nc, cmap, rep.direction.y0, workloads.VERIFY_ORDER).to_json()
                       for _, nc in p.normal_cones]
            digest.update(json.dumps({"left": rep.left.to_json(), "right": rep.right.to_json(),
                                      "mu": line_mu}, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "5c396b07e0bd9c9c4fbd3ee6c9eb8e7abb86d5cda560d94d41db1e7dad863cb4")

    def test_identity_reports(self, bench_workloads):
        # each whole report at workload seeds 0, 1 and 2
        digest = hashlib.sha256()
        for _, rep in _verify_corpus_reports(bench_workloads, (0, 1, 2)):
            digest.update(json.dumps(rep.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "0783951ee15042dc908e912f8762cd3eb2daa567a6c851a53ba47b3042651cca")


class TestCountDilatesDigest:
    """The benchmark's count-dilates breakdowns, pinned byte for byte."""

    def test_count_breakdowns(self, bench_workloads):
        # count_breakdown of every count-dilates operation at workload seed 0
        workloads, m = bench_workloads
        digest = hashlib.sha256()
        for p, cmap, _ in workloads.CountDilates.setup(m, workloads.Seeds(0)):
            total, rows = count_breakdown(p, cmap)
            digest.update(json.dumps(
                [total, [[sorted(f.indices), str(mu0), str(vol)] for f, mu0, vol in rows]],
                sort_keys=True).encode())
        assert digest.hexdigest() == (
            "06d440be3d46369f56421de4aaee3f1417e55ce995cf05db0e317ffda4ca2008")
