"""The integer lattice layer: its type boundary and lattice equivariance.

Lattice data are int tuples.  A slide back to Fractions changes no value
(1 == Fraction(1)), so only a type check sees it: TestTypeBoundary walks
the verify corpus, its normal cones and basic cells, and the
projective-space fans.

Everything the library computes is equivariant under the lattice
automorphisms x -> A x + b (A in GL_n(Z), b integral).  TestEquivariance
checks this on inputs that no fixed corpus holds, with no oracle: the
local count and the identity on moved corpus polytopes, and mu on moved
random cones under the moved Gram map A^-T G A^-1 and under flag maps
whose basis moves by A^-T.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mucone.complement import (FlagMap, InnerProductMap, projective_fan_cones,
                               standard_inner_product)
from mucone.errors import NotGenericError, NotPointedError
from mucone.geometry import (
    Cone,
    Polytope,
    _half_open_parallelepiped_points,
    subdivide_to_basic,
    supporting_cone,
)
from mucone.interp import mu
from mucone.linalg import Matrix, Vector
from mucone.series import compose_multivariate
from mucone.valuations import count_via_local_formula, verify_interpolator
from oracles import inverse, matmul, matvec
from test_acceptance import _gram_maps, make_polytope_corpus


@cache
def _corpus():
    """The verify corpus, built on first use: a slip in polytope geometry
    then fails the tests that read it, not the collection of this module."""
    return make_polytope_corpus()


CORPUS_POLYTOPES = st.deferred(lambda: st.sampled_from(_corpus()))


def _is_point(v) -> bool:
    return type(v) is tuple and all(type(x) is int for x in v)


def _cone_is_int(c: Cone) -> bool:
    return (all(map(_is_point, c.generators))
            and all(_is_point(h) for h, _ in c.facets)
            and all(map(_is_point, c._annihilator)))


class TestTypeBoundary:
    def test_corpus_polytopes_cones_and_cells(self):
        for p in _corpus():
            assert all(map(_is_point, p.vertices)), p
            assert all(_is_point(a) and type(b) is int for a, b, _ in p._facets), p
            assert all(_is_point(a) and type(b) is int for a, b, _ in p.facet_normals()), p
            assert all(map(_is_point, p.lattice_points())), p
            for f, nc in p.normal_cones:
                assert _cone_is_int(nc), (p, f)
                assert all(_cone_is_int(cell) for cell in nc.basic_cells), (p, f)
            for v in p.faces_of_dim(0):
                apex, tangent = supporting_cone(p, v)
                assert _is_point(apex) and _cone_is_int(tangent), (p, v)

    def test_projective_fans(self):
        for n in (2, 3):
            for c in projective_fan_cones(n):
                assert _cone_is_int(c), c
                assert all(_cone_is_int(cell) for cell in subdivide_to_basic(c)), c

    def test_parallelepiped_points_and_cells(self):
        c = Cone([(1, 0, 0), (1, 2, 0), (1, 1, 3)])
        points = _half_open_parallelepiped_points(c.generators)
        assert points and all(_is_point(w) and _is_point(num) for w, num in points)
        assert all(_cone_is_int(cell) for cell in subdivide_to_basic(c))

    def test_entry_points_convert_once(self):
        """Vectors, Fractions and 'p/q' strings become int tuples."""
        c = Cone([Vector([Fraction(1, 2), 1]), [Fraction(2), Fraction(0)]])
        assert c.generators == ((1, 2), (1, 0)) and _cone_is_int(c)
        assert _cone_is_int(Cone.from_json({"generators": [["1/3", "1"], ["0", "2"]]}))
        p = Polytope([Vector([0, 0]), [Fraction(2), Fraction(0)], ["0", "2"]])
        assert p.vertices == ((0, 0), (2, 0), (0, 2)) and all(map(_is_point, p.vertices))
        assert all(map(_is_point, Polytope.from_json(p.to_json()).vertices))


# -- lattice equivariance ----------------------------------------------------


@st.composite
def lattice_maps(draw, n):
    """(A, b): A a signed permutation times at most 3 elementary shears."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    a = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    b = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return a, b


def _apply(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _moved(p: Polytope, a, b) -> Polytope:
    return Polytope([tuple(x + y for x, y in zip(_apply(a, v), b)) for v in p.vertices],
                    name=f"moved {p.name}")


@st.composite
def moved_polytopes(draw):
    p = draw(CORPUS_POLYTOPES)
    a, b = draw(lattice_maps(p.ambient))
    return p, _moved(p, a, b)


@st.composite
def moved_cones(draw):
    """A seeded random pointed cone in R^2 or R^3 that is not basic, with at
    most six basic cells, and a lattice map A (b plays no part in a cone)."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = rng.choice([2, 3])
    rays = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + rng.randint(0, 1))]
    try:
        cone = Cone([r for r in rays if any(r)], ambient=n)
    except NotPointedError:
        assume(False)
    assume(not cone.is_basic and len(subdivide_to_basic(cone)) <= 6)
    a, _ = draw(lattice_maps(n))
    return cone, a


class TestEquivariance:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(moved_polytopes())
    def test_local_count(self, case):
        p, q = case
        want = len(p.lattice_points())
        for g in _gram_maps(p.ambient):
            assert count_via_local_formula(q, g) == count_via_local_formula(p, g) == want

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(moved_polytopes())
    def test_identity(self, case):
        _, q = case
        assert verify_interpolator(q, standard_inner_product(q.ambient)).passed

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(moved_cones())
    def test_mu(self, case):
        """mu(A C, A^-T G A^-1)(v) = mu(C, G)(A^-1 v): the pivot vectors of
        A C under the moved map are A^-T u, and <A^-T u, v> = <u, A^-1 v>."""
        cone, a = case
        n = cone.ambient
        ainv = inverse(Matrix(a))
        for g in _gram_maps(n):
            moved_gram = matmul(matmul(ainv.transpose(), g.gram), ainv)
            moved = Cone([_apply(a, w) for w in cone.generators])
            got = mu(moved, InnerProductMap(moved_gram), 4).series
            want = compose_multivariate(mu(cone, g, 4).series, list(map(Vector, ainv.rows)), 4)
            assert got == want

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(moved_cones(), st.data())
    def test_mu_flag(self, case, data):
        """mu(A C, flag(A^-T b))(v) = mu(C, flag(b))(A^-1 v): psi of a moved
        ray subset is A^-T times psi of the subset, so the pivots move as
        under a Gram map.  A flag that is not generic on C is not generic
        on A C either."""
        cone, a = case
        n = cone.ambient
        rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        assume(Matrix(rows).rank() == n)
        ainv = inverse(Matrix(a))
        flag = FlagMap([Vector(r) for r in rows])
        moved_flag = FlagMap([matvec(ainv.transpose(), Vector(r)) for r in rows])
        moved = Cone([_apply(a, w) for w in cone.generators])
        try:
            want = compose_multivariate(mu(cone, flag, 4).series, list(map(Vector, ainv.rows)), 4)
        except NotGenericError:
            with pytest.raises(NotGenericError):
                mu(moved, moved_flag, 4)
            return
        assert mu(moved, moved_flag, 4).series == want
