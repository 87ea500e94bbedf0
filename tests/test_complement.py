"""Complement-map families: subspaces, genericity, u-vector solves."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucone import complement, geometry, linalg
from mucone.complement import (
    ComplementMap,
    FlagMap,
    InnerProductMap,
    RayTableMap,
    consecutive_mod,
    diaconis_fulton_map,
    map_from_json,
    projective_fan_cones,
    projective_fan_rays,
    standard_inner_product,
)
from mucone.errors import NotGenericError, UnknownRayError
from mucone.geometry import Cone, Polytope
from mucone.interp import mu_basic
from mucone.linalg import Matrix, Vector, dot
from oracles import (
    cofactor_det,
    is_generic,
    matvec,
    psi_by_dual_rows,
    psi_contains,
    rational_kernel,
    span_route_duals,
)


def V(*xs):
    return Vector(xs)


def _sylvester(rows) -> bool:
    """Positive definiteness of a symmetric matrix: every leading principal
    minor, by cofactor expansion, is positive."""
    return all(cofactor_det([r[:k] for r in rows[:k]]) > 0 for k in range(1, len(rows) + 1))


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n (n <= 4) integer or rational matrices, a random
    multiple of the identity added so that both verdicts are common."""
    n = draw(st.integers(0, 4))
    entries = st.one_of(st.integers(-3, 3),
                        st.fractions(min_value=-3, max_value=3, max_denominator=4))
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    shift = draw(st.integers(0, 8))
    return [[upper[min(i, j), max(i, j)] + shift * (i == j) for j in range(n)]
            for i in range(n)]


_NOT_POSITIVE_DEFINITE = "Gram matrix must be positive definite"


class TestInnerProduct:
    def test_validation(self):
        with pytest.raises(ValueError):
            InnerProductMap(Matrix([[1, 2], [0, 1]]))  # not symmetric
        with pytest.raises(ValueError):
            InnerProductMap(Matrix([[1, 2], [2, 1]]))  # not positive definite

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(symmetric_matrices())
    def test_positive_definite_check_is_sylvester(self, rows):
        if _sylvester(rows):
            assert InnerProductMap(Matrix(rows)).ambient == len(rows)
            return
        with pytest.raises(ValueError) as exc:
            InnerProductMap(Matrix(rows))
        assert str(exc.value) == _NOT_POSITIVE_DEFINITE

    @pytest.mark.parametrize("rows", [
        [[1, 1], [1, 1]],
        [[1, 2], [2, 1]],
        [[0, 0], [0, 1]],
        [[-1]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
    ], ids=["semidefinite", "indefinite", "zero-first-minor", "negative", "singular-3x3"])
    def test_rejects_what_sylvester_rejects(self, rows):
        assert not _sylvester(rows)
        with pytest.raises(ValueError) as exc:
            InnerProductMap(Matrix(rows))
        assert str(exc.value) == _NOT_POSITIVE_DEFINITE

    def test_psi_standard_singleton(self):
        m = standard_inner_product(2)
        sub = m.psi([V(0, 1)])
        assert psi_contains(sub, V(0, 1)) and not psi_contains(sub, V(1, 0))

    def test_solve_u_pair(self):
        m = standard_inner_product(2)
        rays = (V(1, 0), V(1, 2))
        u = m.solve_u(rays, 0)
        assert u == Vector([1, Fraction(-1, 2)])
        assert rays[0].dot(u) == 1 and rays[1].dot(u) == 0

    def test_solve_u_one_elimination_per_subset(self, monkeypatch):
        m = InnerProductMap(Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]]))
        rays = (V(1, 0, 0), V(1, 1, 0), V(1, 1, 1))
        # every elimination in the library is linalg.eliminate, called inside
        # linalg or through the names geometry and complement import, so one
        # count over the three names covers both claims: one per ray subset,
        # and no other (no rank, span or solve) on the psi path
        eliminations = []
        real_eliminate = linalg.eliminate
        for module in (linalg, geometry, complement):
            monkeypatch.setattr(module, "eliminate",
                                lambda rows: eliminations.append(1) or real_eliminate(rows))
        m.psi(rays)
        us = [m.solve_u(rays, i) for i in (2, 0, 1)]
        assert len(eliminations) == 1
        m.psi(rays)
        assert [m.solve_u(rays, i) for i in (2, 0, 1)] == us
        assert len(eliminations) == 1
        m.solve_u(rays[:2], 0)
        assert len(eliminations) == 2
        for i, u in zip((2, 0, 1), us):
            assert [w.dot(u) for w in rays] == [int(j == i) for j in range(3)]
        with pytest.raises(ValueError):
            m.solve_u(rays, 3)

    def test_integer_pivot_vectors(self):
        # the cleared pairing [[1, 0], [3, -2]] eliminates to d = -2
        m = FlagMap([V(1, 0), V(0, -1)])
        rays = (V(1, 0), V(Fraction(1, 2), Fraction(1, 3)))
        sub = m.psi(rays)
        assert sub.denominator > 0
        assert all(isinstance(x, int) for u in sub.numerators for x in u)
        for j, u in enumerate(sub.numerators):
            got = m.solve_u(rays, j)
            assert got == Vector([Fraction(x, sub.denominator) for x in u])
            assert [w.dot(got) for w in rays] == [int(i == j) for i in range(2)]

    def test_solve_u_singleton_formula(self):
        m = standard_inner_product(2)
        w = V(1, 2)
        assert m.solve_u((w,), 0) == Vector([Fraction(1, 5), Fraction(2, 5)])
        g = InnerProductMap(Matrix([[2, 1], [1, 3]]))
        w = V(1, 0)
        u = g.solve_u((w,), 0)
        qw = matvec(g.gram, w)
        assert u == Vector([e / w.dot(qw) for e in qw])

    def test_always_generic(self):
        m = standard_inner_product(3)
        rng = random.Random(11)
        for _ in range(10):
            gens = [Vector([rng.randint(-3, 3) for _ in range(3)]) for _ in range(3)]
            try:
                c = Cone([g for g in gens if not g.is_zero], ambient=3)
            except Exception:
                continue
            assert is_generic(m, c)

    def test_set_not_order_dependence(self):
        m = standard_inner_product(2)
        a, b = V(1, 0), V(1, 2)
        assert m.solve_u((a, b), 0) == m.solve_u((b, a), 1)
        assert m.solve_u((a, b), 1) == m.solve_u((b, a), 0)


class TestFlag:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlagMap([V(1, 0), V(2, 0)])

    def test_explicit_generic_and_not(self):
        m = FlagMap([V(1, 0), V(0, 1)])
        assert is_generic(m, Cone([V(1, 0)]))
        # psi(Cone((0,1))) = span{e1} coincides with the ray's annihilator
        assert not is_generic(m, Cone([V(0, 1)]))
        with pytest.raises(NotGenericError):
            m.psi([V(0, 1)])

    @pytest.mark.parametrize("rays", [
        [V(0, 1)],
        [V(1, 0), V(0, 1), V(1, 1)],
    ], ids=["singular-pairing", "more-rays-than-steps"])
    def test_not_generic_message(self, rays):
        with pytest.raises(NotGenericError) as exc:
            FlagMap([V(1, 0), V(0, 1)]).psi(rays)
        assert str(exc.value) == (f"complement subspace for {rays} does not pair "
                                  "invertibly with the rays")

    def test_solve_u_in_flag_step(self):
        m = FlagMap([V(1, 1), V(0, 1)])
        u = m.solve_u((V(2, 1),), 0)
        assert u == Vector([Fraction(1, 3), Fraction(1, 3)])


class TestRayTable:
    def test_zero_pairing_rejected(self):
        with pytest.raises(ValueError):
            RayTableMap([(V(1, 0), V(0, 1))])

    def test_unknown_ray(self):
        m = diaconis_fulton_map(2)
        with pytest.raises(UnknownRayError):
            m.psi([V(1, 1)])

    def test_df_psi_single(self):
        m = diaconis_fulton_map(2)
        sub = m.psi([V(1, 0)])
        assert psi_contains(sub, V(1, -1))
        assert not psi_contains(sub, V(1, 0))

    def test_df_pairing_pattern(self):
        for n in (1, 2, 3, 4):
            m = diaconis_fulton_map(n)
            rays = projective_fan_rays(n)
            k = n + 1
            for i, r in enumerate(rays):
                u = m.table[r]
                for j, s in enumerate(rays):
                    want = 1 if j == i else (-1 if (j - i) % k == 1 else 0)
                    assert u.dot(s) == want

    def test_df_generic_on_fan(self):
        for n in (1, 2, 3, 4):
            m = diaconis_fulton_map(n)
            for c in projective_fan_cones(n):
                assert is_generic(m, c), f"fan cone {c} not generic, n={n}"

    def test_consecutive_mod(self):
        assert consecutive_mod(0, 1, 3) and consecutive_mod(3, 0, 3)
        assert not consecutive_mod(0, 2, 3)
        assert consecutive_mod(2, 1, 4)


def _random_maps(rng, n):
    yield standard_inner_product(n)
    g = Matrix.identity(n)
    rows = [list(r) for r in g.rows]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(1, 2)
    yield InnerProductMap(Matrix(rows))
    primes = [2, 3, 5, 7]
    yield FlagMap([Vector([Fraction(p) ** e for e in range(n)]) for p in primes[:n]])


class TestSharedInvariants:
    def test_empty_ray_set(self):
        for m in (standard_inner_product(2), FlagMap([V(1, 0), V(0, 1)]),
                  diaconis_fulton_map(2)):
            sub = m.psi(())
            assert (sub.numerators, sub.denominator) == ((), 1)

    def test_monotonicity_and_complementarity(self):
        rng = random.Random(23)
        for n in (2, 3):
            for m in _random_maps(rng, n):
                for _ in range(8):
                    gens = []
                    while Matrix(gens).rank() < n:
                        gens = [Vector([rng.randint(-3, 3) for _ in range(n)])
                                for _ in range(n)]
                        gens = [g for g in gens if not g.is_zero]
                    try:
                        Cone(gens, ambient=n)
                    except Exception:
                        continue
                    try:
                        small = m.psi(tuple(gens[:1]))
                        large = m.psi(tuple(gens))
                    except NotGenericError:
                        continue
                    for b in small.basis:
                        assert psi_contains(large, b)
                    perp = rational_kernel(Matrix([list(g) for g in gens]))
                    assert Matrix(list(large.basis) + perp).rank() == n

    def test_solve_u_postconditions(self):
        rng = random.Random(31)
        for n in (2, 3):
            for m in _random_maps(rng, n):
                for _ in range(6):
                    gens = [Vector([rng.randint(-3, 3) for _ in range(n)])
                            for _ in range(n)]
                    if Matrix(gens).rank() != n:
                        continue
                    try:
                        Cone(gens, ambient=n)
                        sub = m.psi(tuple(gens))
                    except Exception:
                        continue
                    for t in range(n):
                        u = m.solve_u(tuple(gens), t)
                        assert psi_contains(sub, u)
                        for j, w in enumerate(gens):
                            assert w.dot(u) == (1 if j == t else 0)


@st.composite
def maps_and_rays(draw):
    """A Gram, flag or ray-table map on R^n (n <= 4) and 0..n+1 small
    nonzero rays, so that dependent rays, flag steps that pair singularly
    and flag steps shorter than the ray set all occur."""
    n = draw(st.integers(1, 4))
    small = st.integers(-1, 1)
    vec = st.lists(small, min_size=n, max_size=n).map(Vector)
    k = draw(st.integers(0, n + 1))
    rays = draw(st.lists(vec.filter(lambda v: not v.is_zero), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["gram", "flag", "table"]))
    if kind == "gram":
        a = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                          min_size=n, max_size=n))
        gram = [[sum(a[r][i] * a[r][j] for r in range(n)) + int(i == j)
                 for j in range(n)] for i in range(n)]
        return InnerProductMap(Matrix(gram)), rays
    if kind == "flag":
        flag = draw(st.lists(vec, min_size=n, max_size=n)
                    .filter(lambda b: Matrix(b).rank() == n))
        if 0 < k < n and draw(st.booleans()):
            # a last ray orthogonal to flag step k: the step pairs singularly
            step = Matrix([list(f) for f in flag[:k]])
            rays[-1] = rational_kernel(step)[0]
        return FlagMap(flag), rays
    table = []
    for w in rays:
        u = draw(vec)
        table.append((w, u if w.dot(u) else w))
    return RayTableMap(table, ambient=n), rays


@st.composite
def rational_maps_and_rays(draw):
    """As maps_and_rays, with rational Gram entries, flag vectors, table
    vectors and rays, and a sign flip of one flag or table vector so that
    pairings of negative determinant occur."""
    n = draw(st.integers(1, 4))
    small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4))
    vec = st.lists(small, min_size=n, max_size=n).map(Vector)
    k = draw(st.integers(0, n + 1))
    rays = draw(st.lists(vec.filter(lambda v: not v.is_zero), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["gram", "flag", "table"]))
    if kind == "gram":
        a = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                          min_size=n, max_size=n))
        gram = [[sum(a[r][i] * a[r][j] for r in range(n)) + Fraction(int(i == j), 3)
                 for j in range(n)] for i in range(n)]
        return InnerProductMap(Matrix(gram)), rays
    flip = draw(st.booleans())
    if kind == "flag":
        flag = draw(st.lists(vec, min_size=n, max_size=n)
                    .filter(lambda b: Matrix(b).rank() == n))
        if flip:
            flag[0] = -flag[0]
        if 0 < k < n and draw(st.booleans()):
            step = Matrix([list(f) for f in flag[:k]])
            rays[-1] = rational_kernel(step)[0]
        return FlagMap(flag), rays
    table = []
    for w in rays:
        u = draw(vec)
        u = u if w.dot(u) else w
        table.append((w, -u if flip else u))
    return RayTableMap(table, ambient=n), rays


class TestSpanRoute:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(maps_and_rays())
    def test_one_elimination_matches_span_route(self, case):
        self.check(*case)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(rational_maps_and_rays())
    def test_rational_inputs_match_span_route(self, case):
        self.check(*case)

    @staticmethod
    def check(cmap, rays):
        try:
            want = span_route_duals(cmap, rays)
        except NotGenericError:
            with pytest.raises(NotGenericError):
                cmap.psi(rays)
            return
        sub = cmap.psi(rays)
        assert sub.denominator > 0
        assert [cmap.solve_u(rays, j) for j in range(len(rays))] == want
        if isinstance(cmap, InnerProductMap):
            # raw_basis works on a scaled integer Gram matrix; the span is G's
            assert all(psi_contains(sub, matvec(cmap.gram, w)) for w in rays)


class TestDualRowsRoute:
    """psi's one elimination of [P^T | B] against the dual-rows route it
    replaced: the same (numerators, denominator), or the same
    NotGenericError.  A Gram map's basis is given to the oracle as the
    Fraction images G w, not through the map's cache of integer images."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.one_of(maps_and_rays(), rational_maps_and_rays()))
    def test_matches_dual_rows_route(self, case):
        self.check(*case)

    @pytest.mark.parametrize("cmap", [
        InnerProductMap(Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])),
        FlagMap([V(1, 0, 0), V(1, 1, 0), V(0, 1, 1)]),
        RayTableMap([(V(1, 1, 0), V(1, 0, 0)), (V(2, 0, 1), V(0, 0, 1)),
                     (V(3, 1, 1), V(0, 1, 0))])])
    def test_dependent_rays(self, cmap):
        # k <= n rays with (3, 1, 1) = (1, 1, 0) + (2, 0, 1): never generic
        for rays in [(V(1, 1, 0), V(2, 0, 1), V(3, 1, 1)),
                     (V(3, 1, 1), V(1, 1, 0), V(2, 0, 1))]:
            with pytest.raises(NotGenericError):
                psi_by_dual_rows(tuple(map(tuple, rays)), cmap.raw_basis(rays))
            self.check(cmap, list(rays))

    @staticmethod
    def check(cmap, rays):
        rays = tuple(tuple(w) for w in rays)
        basis = ([matvec(cmap.gram, Vector(w)) for w in rays]
                 if isinstance(cmap, InnerProductMap) else cmap.raw_basis(rays))
        try:
            want = psi_by_dual_rows(rays, basis)
        except NotGenericError as exc:
            with pytest.raises(NotGenericError) as got:
                cmap.psi(rays)
            assert str(got.value) == str(exc)
            return
        sub = cmap.psi(rays)
        assert (sub.numerators, sub.denominator) == want


class TestGramImages:
    def test_each_ray_imaged_once_per_map(self, monkeypatch):
        # the octahedron's normal cones share their rays among their cells
        # and subsets; each ray's Gram image is built once per map
        built = Counter()
        real = InnerProductMap._image
        monkeypatch.setattr(InnerProductMap, "_image",
                            lambda self, w: built.update([(id(self), w)]) or real(self, w))
        octahedron = Polytope([V(1, 0, 0), V(-1, 0, 0), V(0, 1, 0), V(0, -1, 0),
                               V(0, 0, 1), V(0, 0, -1)])
        maps = [standard_inner_product(3),
                InnerProductMap(Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]]))]
        for m in maps:
            for _, nc in octahedron.normal_cones:
                mu_basic(nc, m, 2)
        rays = {g for _, nc in octahedron.normal_cones for cell in nc.basic_cells
                for g in cell.generators}
        assert built == Counter({(id(m), w): 1 for m in maps for w in rays})
        assert all(len(m._psi_cache) > len(rays) for m in maps)
        # a cached image is the ray's own: G w up to a positive scale
        for m in maps:
            for w in rays:
                (img,) = m.raw_basis((w,))
                want = matvec(m.gram, Vector(w))
                assert Matrix([img, want]).rank() == 1 and dot(img, want) > 0


class TestJson:
    def test_roundtrips(self):
        maps = [
            standard_inner_product(2),
            InnerProductMap(Matrix([[2, 1], [1, 3]])),
            FlagMap([V(1, 1), V(0, 1)]),
            diaconis_fulton_map(2),
        ]
        for m in maps:
            m2 = map_from_json(m.to_json())
            assert m2.key() == m.key()

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            map_from_json({"type": "nope"})


def _leaves(key):
    for x in key:
        if isinstance(x, tuple):
            yield from _leaves(x)
        else:
            yield x


class TestKeys:
    """The mu cache hashes a map's key on every lookup: it is built once, at
    construction, and holds ints and strings only."""

    MAPS = {
        "standard": lambda: standard_inner_product(3),
        "gram": lambda: InnerProductMap(Matrix([[2, 1], [1, 3]])),
        "rational-gram": lambda: InnerProductMap(Matrix([[Fraction(1, 2), Fraction(1, 3)],
                                                         [Fraction(1, 3), Fraction(5, 2)]])),
        "flag": lambda: FlagMap([V(1, 1), V(0, 1)]),
        "rational-flag": lambda: FlagMap([V(Fraction(1, 2), 3, 0), V(0, Fraction(-2, 3), 1),
                                          V(0, 0, 7)]),
        "df2": lambda: diaconis_fulton_map(2),
        "df3": lambda: diaconis_fulton_map(3),
        "rational-table": lambda: RayTableMap([((2, 0), V(Fraction(1, 3), 0)),
                                               ((0, 1), V(1, Fraction(-1, 2)))]),
    }

    @pytest.mark.parametrize("name", MAPS)
    def test_equal_maps_have_equal_keys(self, name):
        make = self.MAPS[name]
        m = make()
        assert m.key() is m.key()
        assert all(type(x) in (int, str) for x in _leaves(m.key()))
        for other in (make(), map_from_json(m.to_json())):
            assert other.key() == m.key() and hash(other.key()) == hash(m.key())

    def test_different_maps_have_different_keys(self):
        grams = [[[2, 1], [1, 3]], [[2, 1], [1, 4]], [[1, 0], [0, 2]],
                 [[Fraction(1, 2), 0], [0, 1]], [[1, 0], [0, 1]]]
        keys = {InnerProductMap(Matrix(g)).key() for g in grams}
        keys |= {FlagMap([V(1, 1), V(0, 1)]).key(), FlagMap([V(1, 0), V(0, 1)]).key()}
        keys |= {RayTableMap([((1, 0), V(1, 0))]).key(),
                 RayTableMap([((1, 0), V(2, 0))]).key()}
        assert len(keys) == len(grams) + 4
