"""Cones, polytopes, face lattices, subdivisions.

Frozen values: triangle/square/cube face counts and lattice counts were
derived by hand (brute-force convex-hull reasoning); the two stellar
subdivision examples were computed by hand from the half-open
parallelepiped points ((1,1) for Cone((1,0),(1,2)); (1,2) then (1,1) for
Cone((1,0),(1,3))).
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mucone import geometry
from mucone.errors import (
    DependentGeneratorsError,
    DimensionTooLargeError,
    InternalInconsistencyError,
    NotExtremeError,
    NotIntegralError,
    NotFullDimError,
    NotPointedError,
    NotSimplicialError,
    TooLargeError,
)
from mucone.geometry import (
    Cone,
    Polytope,
    Subdivision,
    _half_open_parallelepiped_points,
    in_convex_hull,
    normal_cone,
    normalized_volume,
    subdivide_to_basic,
    supporting_cone,
    triangulate_face,
    zero_cone,
)
from mucone.linalg import Matrix, Vector, cone_index, dot, dual_rows, rank
from oracles import (cofactor_det, cone_contains, dual_basis, face_for, is_pointed_by_scan,
                     matvec, saturation_basis, saturation_index, saturation_route_points,
                     star_subdivision_cells, whole_face)
from test_acceptance import make_polytope_corpus


def V(*xs):
    return Vector(xs)


def triangle(t):
    return Polytope([V(0, 0), V(t, 0), V(0, t)], name=f"triangle-{t}")


@st.composite
def ray_sets(draw):
    """1-5 nonzero rays in R^1..R^4 with entries in [-2, 2]; some sets add
    the negative of one ray (a line), the generators of a coordinate
    half-space, or the negatives of all rays (their whole span)."""
    n = draw(st.integers(1, 4))
    ray = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(tuple)
    rays = draw(st.lists(ray, min_size=1, max_size=5))
    kind = draw(st.sampled_from(["plain", "line", "half-space", "span"]))
    if kind == "line":
        rays.append(tuple(-x for x in draw(st.sampled_from(rays))))
    elif kind == "half-space":
        i = draw(st.integers(0, n - 1))
        unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        rays += [unit[i]] + [tuple(s * x for x in unit[j])
                             for j in range(n) if j != i for s in (1, -1)]
    elif kind == "span":
        rays += [tuple(-x for x in r) for r in rays]
    return draw(st.permutations(rays))


class TestCone:
    def test_primitivize_and_dedup(self):
        c = Cone([V(2, 0), V(1, 0), V(3, 6)])
        assert c.generators == ((1, 0), (1, 2))

    def test_basic_flags(self):
        assert Cone([V(1, 0), V(1, 1)]).is_basic
        c = Cone([V(1, 0), V(1, 2)])
        assert c.is_simplicial and c.index == 2 and not c.is_basic

    def test_zero_cone(self):
        z = zero_cone(2)
        assert z.dim == 0 and z.is_zero and z.is_basic
        assert z.contains(V(0, 0)) and not z.contains(V(1, 0))

    def test_not_pointed_rejected(self):
        with pytest.raises(NotPointedError):
            Cone([V(1, 0), V(-1, 0)])
        with pytest.raises(NotPointedError):
            Cone([V(1, 0), V(0, 1), V(-1, -1)])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ray_sets())
    def test_not_pointed_exactly_when_scan_finds_a_dependency(self, rays):
        if is_pointed_by_scan(rays):
            assert Cone(rays).is_pointed
        else:
            with pytest.raises(NotPointedError):
                Cone(rays)

    def test_dim_cap(self):
        with pytest.raises(DimensionTooLargeError):
            Cone([Vector([1, 0, 0, 0, 0])])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Cone([[0.5, 1], [1, 0]])
        with pytest.raises(TypeError):
            Cone([(1, 0), (1.0, 1)])

    def test_non_simplicial_index_rejected(self):
        square_cone = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 0, 1), V(0, 1, 1)])
        assert not square_cone.is_simplicial
        with pytest.raises(NotSimplicialError):
            square_cone.index

    def test_membership(self):
        c = Cone([V(1, 0), V(1, 2)])
        assert c.contains(V(1, 1)) and c.contains(V(5, 3))
        assert not c.contains(V(0, 1)) and not c.contains(V(-1, 0))
        assert c.contains(V(0, 0))
        # dimension 1: no facets, the ray itself is the inequality
        ray = Cone([V(1, 2, 0)])
        assert ray.contains(V(2, 4, 0)) and ray.contains(V(0, 0, 0))
        assert not ray.contains(V(-1, -2, 0)) and not ray.contains(V(1, 0, 0))

    def test_contains_point_of_wrong_length(self):
        for cone, x in [(zero_cone(0), (1,)), (zero_cone(0), (0,)),
                        (Cone([V(1, 0), V(1, 2)]), (1, 1, 0)), (Cone([V(1, 0)]), (1,))]:
            with pytest.raises(ValueError, match=f"point of length {len(x)} in dimension"):
                cone.contains(x)
        assert zero_cone(0).contains(())

    def test_extreme_rays_prune(self):
        c = Cone([V(1, 0), V(1, 1), V(0, 1)])
        assert set(c.extreme_rays()) == {(1, 0), (0, 1)}
        for n in range(4):
            assert zero_cone(n).extreme_ray_indices == () and zero_cone(n).extreme_rays() == []
        for ray in [(1,), (-3,), (0, 1), (2, -4), (1, -1, 2), (0, 0, -5)]:
            c = Cone([ray])
            assert c.extreme_ray_indices == (0,) and c.extreme_rays() == [c.generators[0]]

    def test_json_roundtrip(self):
        c = Cone([V(1, 0), V(1, 2)])
        assert Cone.from_json(c.to_json()) == c

    def test_non_simplicial_cone_lists_its_facets_once(self, monkeypatch):
        # the pointedness check, the extreme rays and the inequalities all
        # read the one cached facet list
        listed = []
        facets = geometry.cone_facets

        def counting_facets(rays):
            listed.append(rays)
            return facets(rays)

        monkeypatch.setattr(geometry, "cone_facets", counting_facets)
        square = Cone([V(1, 0, 1), V(-1, 0, 1), V(0, 1, 1), V(0, -1, 1)])
        assert len(square.facets) == 4 and len(square.inequalities) == 4
        assert square.extreme_rays() == list(square.generators)
        assert len(listed) == 1


class TestSubdivision:
    def test_basic_cone_trivial(self):
        cones = [Cone([V(1, 0), V(0, 1)])] + [zero_cone(n) for n in range(4)] + [
            Cone([V(-1)]), Cone([V(0, 1)]), Cone([V(1, 1, 0)]), Cone([V(1, 0), V(1, 1)]),
            Cone([V(1, 0, 0), V(1, 1, 2)]), Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)])]
        for c in cones:
            assert c.is_basic and list(subdivide_to_basic(c)) == [c], c

    def test_index_two_cone(self):
        sub = subdivide_to_basic(Cone([V(1, 0), V(1, 2)]))
        got = {frozenset(ch.generators) for ch in sub}
        assert got == {
            frozenset({(1, 0), (1, 1)}),
            frozenset({(1, 1), (1, 2)}),
        }
        assert all(ch.is_basic for ch in sub)

    def test_index_three_cone(self):
        sub = subdivide_to_basic(Cone([V(1, 0), V(1, 3)]))
        assert len(sub) == 3
        assert all(ch.is_basic for ch in sub)
        got = {frozenset(ch.generators) for ch in sub}
        assert got == {
            frozenset({(1, 0), (1, 1)}),
            frozenset({(1, 1), (1, 2)}),
            frozenset({(1, 2), (1, 3)}),
        }

    def test_non_simplicial_parent(self):
        c = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 0, 1), V(0, 1, 1)])
        sub = subdivide_to_basic(c)
        assert len(sub) >= 2 and all(ch.is_basic for ch in sub)

    def test_certify_rejects_bad_cells(self):
        quadrant = Cone([V(1, 0), V(0, 1)])
        for children, message in [
            ([Cone([V(1, 0)]), Cone([V(0, 1)])], "cell not simplicial of full dimension"),
            ([Cone([V(1, 0), V(-1, 1)]), Cone([V(-1, 1), V(0, 1)])],
             r"cell ray Vector\(-1, 1\) outside parent"),
            ([Cone([V(1, 0), V(1, 1)])], r"parent ray Vector\(0, 1\) not covered"),
            ([quadrant, Cone([V(1, 0), V(1, 1)])],
             r"facet \(\(1, 0\),\) appears 2 times, expected 1"),
        ]:
            with pytest.raises(InternalInconsistencyError, match=message):
                Subdivision(quadrant, children)
        # a gap: the square cone over (+-1, 0, 1), (0, +-1, 1), fanned around (0, 0, 1):
        # every ray stays covered without one of the four cells, but the
        # walls it shared with its neighbours are then seen once
        square = [V(1, 0, 1), V(0, 1, 1), V(-1, 0, 1), V(0, -1, 1)]
        parent = Cone(square)
        cells = [Cone([square[i], square[(i + 1) % 4], V(0, 0, 1)]) for i in range(4)]
        assert len(Subdivision(parent, cells)) == 4
        for gap in range(4):
            with pytest.raises(InternalInconsistencyError,
                               match=r"appears 1 times, expected 2"):
                Subdivision(parent, cells[:gap] + cells[gap + 1:])

    def test_trusted_cells_equal_checked_cones(self, bench_workloads):
        # subdivide_to_basic builds each cell once, trusted, with the index
        # its star step computed: the cone Cone() builds and checks from the
        # same rays, over the acceptance corpus and the benchmark's polytopes
        workloads, m = bench_workloads
        corpus = make_polytope_corpus() + [
            p for shift in (0, 1, 2)
            for p in workloads.polytope_corpus(m, workloads.Seeds(shift=shift))]
        cells = [cell for p in corpus for _, nc in p.normal_cones if not nc.is_basic
                 for cell in nc.basic_cells]
        assert len(cells) > 1000
        for cell in cells:
            ref = Cone(cell.generators, cell.ambient)
            assert ((cell.generators, cell.dim, cell.index, cell.is_basic, cell.is_pointed)
                    == (ref.generators, ref.dim, ref.index, ref.is_basic, ref.is_pointed))

    def test_dependent_cell_never_reaches_the_trusted_build(self, monkeypatch):
        # a triangulation cell with dependent rays: cone_index raises on it,
        # so no cell is built with the rank its ray count would claim
        square = Cone([V(1, 0, 1), V(0, 1, 1), V(-1, 0, 1), V(0, -1, 1)])
        built = []
        monkeypatch.setattr(geometry, "_pulling_triangulation", lambda rays: [(0, 1, 1)])
        monkeypatch.setattr(Cone, "_trusted", classmethod(lambda cls, *args: built.append(args)))
        with pytest.raises(DependentGeneratorsError, match="linearly dependent"):
            subdivide_to_basic(square)
        assert built == []

    def test_random_cones_sampling(self):
        rng = random.Random(20260816)
        for _ in range(12):
            n = rng.choice([2, 3])
            while True:
                gens = [Vector([rng.randint(-4, 4) for _ in range(n)])
                        for _ in range(n + rng.randint(0, 1))]
                try:
                    c = Cone([g for g in gens if not g.is_zero or True], ambient=n)
                except Exception:
                    continue
                if c.dim == n and c.is_pointed:
                    break
            sub = subdivide_to_basic(c)
            assert all(ch.is_basic for ch in sub)
            # sampled points of the parent land in some child; a point in
            # two children must sit on a shared child facet
            for _ in range(15):
                coeffs = [Fraction(rng.randint(0, 9), rng.randint(1, 4))
                          for _ in c.generators]
                x = Vector([0] * n)
                for cf, g in zip(coeffs, c.generators):
                    x = x + cf * Vector(g)
                owners = [ch for ch in sub if ch.contains(x)]
                assert owners, f"{x} lost by subdivision of {c}"
                if len(owners) > 1 and not x.is_zero:
                    assert any(x.dot(h) == 0 for ch in owners for h, _ in ch.facets)


@st.composite
def star_cones(draw):
    """A pointed cone of dimension d <= n with 1-4 small integer rays in
    R^2 or R^3: for d < n the rays are images under an integer n x d
    matrix of rank d, so the cone is lower-dimensional."""
    n = draw(st.sampled_from([3, 2]))
    d = draw(st.sampled_from(range(n, 0, -1)))
    nonzero = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    if d == n:
        embed = Matrix.identity(n)
    else:
        embed = Matrix([[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(n)])
        assume(embed.rank() == d)
    rays = [matvec(embed, Vector(draw(nonzero)))
            for _ in range(draw(st.sampled_from([3, 4, 2, 1])))]
    try:
        cone = Cone(rays, ambient=n)
    except NotPointedError:
        assume(False)
    assume(cone.dim == d)
    return cone


class TestStarStep:
    """The star step by ray sets against solving for each cell's coordinates,
    and containment by each cell's dual rows against cone membership."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(star_cones(), st.data())
    def test_matches_solving_oracle(self, cone, data):
        sub = subdivide_to_basic(cone)
        cells = [list(ch.generators) for ch in sub]
        assert cells == star_subdivision_cells(cone)
        assert all(ch.is_basic and saturation_index(ch.generators) == 1 for ch in sub)
        lattice = saturation_basis(list(cone.generators))

        def point(basis):
            cs = data.draw(st.lists(st.integers(-6, 6), min_size=len(basis),
                                    max_size=len(basis)))
            return sum((c * Vector(b) for c, b in zip(cs, basis)), Vector([0] * cone.ambient))

        simplicial = list(sub) + [cone] * (cone.is_simplicial and not cone.is_basic)
        for ch in simplicial:
            rows = dual_rows(ch.generators)
            # lattice points of the span, and combinations of the cell's rays,
            # which often land on its boundary
            points = [point(lattice) for _ in range(4)]
            points += [point(ch.generators) for _ in range(4)]
            for x in points:
                by_rows = all(sum(a * b for a, b in zip(h, x)) >= 0 for h in rows)
                assert by_rows == cone_contains(ch.generators, x), (ch, x)

    def test_acceptance_corpus_cells_pinned(self):
        assert _cell_lists_digest(make_polytope_corpus()) == (
            "3e730cd2a55d6888ea10bba015c3be17397550099ecc1af4983ea2a14accb1ab")

    def test_bench_corpus_cells_pinned(self, bench_workloads):
        # the benchmark's polytope corpus at workload seeds 0, 1 and 2, in
        # one digest
        workloads, m = bench_workloads
        corpus = [p for shift in (0, 1, 2)
                  for p in workloads.polytope_corpus(m, workloads.Seeds(shift=shift))]
        assert _cell_lists_digest(corpus) == (
            "939b458056e6a749787e39d5f26e6d505a31ddb965c03749a11948ada5ffe0fe")


def _cell_lists_digest(polytopes) -> str:
    """SHA-256 over every normal cone's basic cells, per face: face indices,
    then normal-cone generators, then cell generators."""
    digest = hashlib.sha256()
    for p in polytopes:
        for f, nc in p.normal_cones:
            digest.update(json.dumps([
                sorted(f.indices), [[int(x) for x in g] for g in nc.generators],
                [[[int(x) for x in g] for g in c.generators] for c in nc.basic_cells],
            ]).encode())
    return digest.hexdigest()


@st.composite
def simplicial_rays(draw):
    """k <= n independent small integer rays in R^2 or R^3 with index > 1:
    k = n is full-dimensional, k < n lies in a plane or on a line."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.sampled_from(range(n, 0, -1)))
    rays = [tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
            for _ in range(k)]
    assume(Matrix([list(r) for r in rays]).rank() == k)
    assume(cone_index(rays) > 1)
    return rays


class TestParallelepipedPoints:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(simplicial_rays())
    def test_matches_saturation_route(self, rays):
        # full- and lower-dimensional cells alike read their cosets off one
        # Hermite form; the oracle searches a box in a saturation basis that
        # two integer kernels find
        got = _half_open_parallelepiped_points(rays)
        index = cone_index(rays)
        assert sorted((point, Vector([Fraction(a, index) for a in num]))
                      for point, num in got) == saturation_route_points(rays)
        assert len(got) == index - 1


class TestHullHelpers:
    def test_in_convex_hull(self):
        pts = [V(0, 0), V(2, 0), V(0, 2)]
        assert in_convex_hull(V(1, 1), pts)
        assert in_convex_hull(V(0, 0), pts)
        assert not in_convex_hull(V(2, 1), pts)

    @pytest.mark.parametrize("dim, trials", [(1, 40), (2, 40), (3, 16), (4, 0)])
    def test_polytope_agrees_with_hull_oracle(self, dim, trials):
        """Polytope finds vertices and facets through the cone over P;
        in_convex_hull decides the same questions by brute force. In R^4
        a triangle and a square: the rays (1, v) have five coordinates."""
        rng = random.Random(1000 + dim)
        drawn = []
        for _ in range(trials):
            pts = [Vector([rng.randint(0, 6) for _ in range(dim)])
                   for _ in range(rng.randint(1, dim + 3))]
            if dim > 1 and rng.random() < 0.3:
                # a flat set: the last coordinate copies the first
                pts = [Vector(list(p)[:-1] + [p[0]]) for p in pts]
            drawn.append(pts)
        if dim == 4:
            drawn += [[Vector(v) for v in [(1, 0, 2, 0), (3, 1, 2, 1), (1, 2, 0, 1)]],
                      [Vector(v) for v in [(0, 0, 0, 1), (1, 0, 1, 1), (1, 1, 2, 2), (0, 1, 1, 2)]]]
        for pts in drawn:
            uniq = list(dict.fromkeys(pts))
            inside = [p for i, p in enumerate(uniq)
                      if in_convex_hull(p, uniq[:i] + uniq[i + 1:])]
            if inside:
                with pytest.raises(NotExtremeError) as err:
                    Polytope(pts)
                assert str(err.value) == f"input point {inside[0]} is not a vertex"
                continue
            poly = Polytope(pts)
            assert list(poly.vertices) == [tuple(p) for p in uniq]
            box = [range(int(min(c)), int(max(c)) + 1) for c in zip(*uniq)]
            for xs in itertools.product(*box):
                x = Vector(xs)
                assert poly.contains_point(x) == in_convex_hull(x, uniq), (uniq, x)

    def test_cone_extreme_rays_agree_with_membership(self):
        """A ray is extreme exactly when the other rays do not generate it."""
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            n = rng.choice([2, 3])
            gens = [Vector([rng.randint(-3, 3) for _ in range(n)])
                    for _ in range(rng.randint(1, n + 3))]
            try:
                c = Cone([g for g in gens if not g.is_zero], ambient=n)
            except NotPointedError:
                continue
            rays = c.generators
            want = tuple(i for i, g in enumerate(rays)
                         if not cone_contains(rays[:i] + rays[i + 1:], g))
            assert c.extreme_ray_indices == want, rays
            checked += 1


class TestPolytope:
    def test_validation(self):
        with pytest.raises(NotIntegralError):
            Polytope([Vector([Fraction(1, 2), Fraction(0)]), V(1, 1)])
        with pytest.raises(NotExtremeError):
            Polytope([V(0, 0), V(1, 0), V(2, 0)])
        with pytest.raises(DimensionTooLargeError):
            Polytope([Vector([0] * 5)])
        with pytest.raises(TypeError):
            Polytope([[0.0], [2.0]])
        with pytest.raises(TypeError):
            Polytope([(0, 0), (2, 0), (0, 2.5)])

    def test_segment_faces(self):
        seg = Polytope([V(0), V(2)])
        assert len(seg.faces) == 3
        assert [f.dim for f in seg.faces] == [0, 0, 1]

    def test_triangle_faces(self):
        p = triangle(2)
        assert len(p.faces) == 7
        assert [f.dim for f in p.faces] == [0, 0, 0, 1, 1, 1, 2]

    def test_square_faces(self):
        p = Polytope([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
        assert len(p.faces) == 9

    def test_cube_faces(self):
        verts = [Vector(b) for b in itertools.product([0, 1], repeat=3)]
        p = Polytope(verts)
        dims = [f.dim for f in p.faces]
        assert dims.count(0) == 8 and dims.count(1) == 12
        assert dims.count(2) == 6 and dims.count(3) == 1

    def test_point_polytope(self):
        p = Polytope([V(3, 4)])
        assert p.dim == 0 and len(p.faces) == 1
        assert p.contains_point(V(3, 4)) and not p.contains_point(V(3, 5))

    def test_contains_lower_dim(self):
        seg = Polytope([V(0, 0), V(2, 2)])
        assert seg.contains_point(V(1, 1))
        assert not seg.contains_point(V(1, 0))
        assert not seg.contains_point(V(3, 3))

    def test_contains_point_of_wrong_length(self):
        for p in (triangle(2), Polytope([V(0, 0), V(2, 2)]), Polytope([V(3, 4)]),
                  Polytope([()])):
            for x in (V(1), V(1, 1, 0)):
                with pytest.raises(ValueError):
                    p.contains_point(x)

    def test_facet_normals_pinned(self):
        # (a, b, on) of every polytope of the acceptance corpus, all of them
        # full-dimensional, in facet_normals() order
        digest = hashlib.sha256()
        for p in make_polytope_corpus():
            assert p.is_full_dimensional
            digest.update(json.dumps([p.name, [[list(a), b, sorted(on)]
                                               for a, b, on in p.facet_normals()]]).encode())
        assert digest.hexdigest() == (
            "8f43c91ab291b8bbfd1de09a5c4ebad0446a628681bb0db7c22346d20400c4df")

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_h_description(self, data):
        """Flat or not: every facet (a, b, on) has a primitive int normal a
        and an int b, and min <a, v> over the vertices is b, attained
        exactly on `on`; every vertex satisfies every equation, and there
        are ambient - dim of them."""
        n = data.draw(st.integers(1, 4))
        pts = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1,
                                 max_size=n + 2, unique=True))
        if n > 1 and data.draw(st.booleans()):
            pts = list(dict.fromkeys(p[:-1] + (p[0],) for p in pts))
        assume(not any(in_convex_hull(p, pts[:i] + pts[i + 1:]) for i, p in enumerate(pts)))
        poly = Polytope(pts)
        for a, b, on in poly._facets:
            assert all(type(x) is int for x in a) and math.gcd(*a) == 1
            assert type(b) is int
            vals = [dot(a, v) for v in poly.vertices]
            assert min(vals) == b
            assert on == {i for i, x in enumerate(vals) if x == b}
        assert len(poly._equations) == poly.ambient - poly.dim
        assert all(dot(z, v) == c for z, c in poly._equations for v in poly.vertices)

    def test_lattice_points(self):
        assert len(Polytope([V(0, 0), V(1, 0), V(0, 1), V(1, 1)]).lattice_points()) == 4
        assert len(triangle(2).lattice_points()) == 6
        assert len(triangle(5).lattice_points()) == 21
        cube = Polytope([Vector(b) for b in itertools.product([0, 1], repeat=3)])
        assert len(cube.lattice_points()) == 8

    def test_lattice_points_cap(self):
        # its bounding box holds 301^3 points, above LATTICE_POINT_CAP
        big = Polytope([V(0, 0, 0), V(300, 0, 0), V(0, 300, 0), V(0, 0, 300)])
        with pytest.raises(TooLargeError):
            big.lattice_points()

    def test_json_roundtrip(self):
        p = triangle(2)
        q = Polytope.from_json(p.to_json())
        assert q.vertices == p.vertices


class TestDerivedCones:
    def test_normal_cone_triangle(self):
        p = triangle(2)
        v00 = face_for(p, [0])
        assert normal_cone(p, v00) == Cone([V(0, 1), V(1, 0)])
        hyp = next(f for f in p.faces_of_dim(1)
                   if f.indices == frozenset({1, 2}))
        assert normal_cone(p, hyp) == Cone([V(-1, -1)])
        assert normal_cone(p, whole_face(p)).is_zero

    def test_normal_cones_match_checked_cones(self):
        """normal_cone builds its cones unchecked; the checked constructor
        gives the same generators, their rank is the stored dim and the
        subset scan finds them pointed, on the acceptance corpus and on
        random full-dimensional polytopes in R^2 to R^4."""
        polytopes = [p for p in make_polytope_corpus() if p.is_full_dimensional]
        rng = random.Random(20261020)
        for n, wanted in [(2, 8), (3, 6), (4, 3)]:
            drawn = 0
            while drawn < wanted:
                pts = [tuple(rng.randint(0, 3) for _ in range(n))
                       for _ in range(rng.randint(n + 1, n + 3))]
                try:
                    p = Polytope(pts)
                except NotExtremeError:
                    continue
                if p.is_full_dimensional:
                    polytopes.append(p)
                    drawn += 1
        for p in polytopes:
            for f, nc in p.normal_cones:
                checked = Cone(nc.generators, ambient=p.ambient)
                assert nc.generators == checked.generators, (p, f)
                assert nc.dim == rank(nc.generators) == checked.dim == p.ambient - f.dim
                assert is_pointed_by_scan(nc.generators), (p, f)

    def test_normal_cone_needs_full_dim(self):
        seg = Polytope([V(0, 0), V(2, 2)])
        with pytest.raises(NotFullDimError):
            seg.facet_normals()

    def test_supporting_cone(self):
        p = triangle(2)
        apex, c = supporting_cone(p, face_for(p, [1]))
        assert apex == (2, 0)
        assert frozenset(c.generators) == frozenset({(-1, 0), (-1, 1)})
        seg = Polytope([V(0), V(2)])
        apex, c = supporting_cone(seg, face_for(seg, [1]))
        assert apex == (2,) and c.generators == ((-1,),)

    def test_normal_vs_tangent_pairing(self):
        # a normal-cone generator of F is minimized over P on all of F
        cube = Polytope([Vector(b) for b in itertools.product([0, 1], repeat=3)])
        for p in (triangle(3), cube):
            for f in p.faces:
                for w in normal_cone(p, f).generators:
                    low = min(dot(w, v) for v in p.vertices)
                    assert all(dot(w, v) == low for v in f.vertices)

    def test_duality_face_correspondence(self):
        rng = random.Random(7)
        mats = [
            [[1, 0], [0, 1]],
            [[1, 2], [0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        ]
        for _ in range(6):
            n = rng.choice([2, 3])
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            d = cofactor_det(rows)
            if abs(d) == 1:
                mats.append(rows)
        for rows in mats:
            ws = [Vector(r) for r in rows]
            vs = dual_basis(ws)
            n = len(ws)
            for size in range(n + 1):
                for g_idx in itertools.combinations(range(n), size):
                    co = [vs[j] for j in range(n) if j not in g_idx]
                    # the dual face K ∩ G⊥: generators of K pairing to 0
                    # with every generator of G, and nothing else joins it
                    for v in co:
                        assert all(ws[i].dot(v) == 0 for i in g_idx)
                    for j in g_idx:
                        assert any(ws[i].dot(vs[j]) != 0 for i in g_idx)
                    if co:
                        assert Cone(co, ambient=n).dim == n - size


class TestVolumesAndTriangulation:
    def test_vertex_volume(self):
        p = triangle(2)
        assert normalized_volume(face_for(p, [0])) == 1
        points = [Polytope([v]) for v in [(4,), (1, -2), (0, 3, -1)]]
        for p in make_polytope_corpus() + points:
            assert all(normalized_volume(f) == 1 for f in p.faces_of_dim(0)), p

    def test_hypotenuse_volume(self):
        for t in (2, 5):
            p = triangle(t)
            hyp = next(f for f in p.faces_of_dim(1)
                       if f.indices == frozenset({1, 2}))
            assert normalized_volume(hyp) == t

    def test_triangle_area(self):
        assert normalized_volume(whole_face(triangle(2))) == 2
        assert normalized_volume(whole_face(triangle(5))) == Fraction(25, 2)

    def test_cube_volumes(self):
        cube = Polytope([Vector(b) for b in itertools.product([0, 1], repeat=3)])
        assert normalized_volume(whole_face(cube)) == 1
        for f in cube.faces_of_dim(2):
            assert normalized_volume(f) == 1

    def test_triangulation_covers(self):
        cube = Polytope([Vector(b) for b in itertools.product([0, 1], repeat=3)])
        cells = triangulate_face(whole_face(cube))
        assert all(len(c) == 4 for c in cells)
        total = Fraction(0)
        for cell in cells:
            vs = [cube.vertices[i] for i in cell]
            total += abs(cofactor_det([[a - b for a, b in zip(v, vs[0])] for v in vs[1:]]))
        assert total == 6  # 3! times the unit volume

    def test_simplex_volume_is_det_over_factorial(self):
        p = Polytope([V(0, 0), V(3, 1), V(1, 2)])
        d = abs(cofactor_det([[3, 1], [1, 2]]))
        assert normalized_volume(whole_face(p)) == Fraction(d, 2)
