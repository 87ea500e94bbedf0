"""Complement-map families: subspaces, genericity, u-vector solves."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mucone.geometry import Cone, _rank_of
from mucone.linalg import Matrix, Vector, rational_kernel
from oracles import is_generic, psi_contains, span_route_duals


def V(*xs):
    return Vector(xs)


class TestInnerProduct:
    def test_validation(self):
        with pytest.raises(ValueError):
            InnerProductMap(Matrix([[1, 2], [0, 1]]))  # not symmetric
        with pytest.raises(ValueError):
            InnerProductMap(Matrix([[1, 2], [2, 1]]))  # not positive definite

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
        calls = []
        real = Matrix.rref
        monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(1) or real(self))
        m.psi(rays)
        us = [m.solve_u(rays, i) for i in (2, 0, 1)]
        assert len(calls) == 1
        m.psi(rays)
        assert [m.solve_u(rays, i) for i in (2, 0, 1)] == us
        assert len(calls) == 1
        for i, u in zip((2, 0, 1), us):
            assert [w.dot(u) for w in rays] == [int(j == i) for j in range(3)]
        with pytest.raises(ValueError):
            m.solve_u(rays, 3)

    def test_solve_u_singleton_formula(self):
        m = standard_inner_product(2)
        w = V(1, 2)
        assert m.solve_u((w,), 0) == Vector([Fraction(1, 5), Fraction(2, 5)])
        g = InnerProductMap(Matrix([[2, 1], [1, 3]]))
        w = V(1, 0)
        u = g.solve_u((w,), 0)
        qw = g.gram.matvec(w)
        assert u == Vector([e / g.inner(w, w) for e in qw])

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
                    assert s.dot(u) == want

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
    def test_monotonicity_and_complementarity(self):
        rng = random.Random(23)
        for n in (2, 3):
            for m in _random_maps(rng, n):
                for _ in range(8):
                    gens = []
                    while _rank_of(gens) < n:
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
                    assert _rank_of(list(large.basis) + perp) == n

    def test_solve_u_postconditions(self):
        rng = random.Random(31)
        for n in (2, 3):
            for m in _random_maps(rng, n):
                for _ in range(6):
                    gens = [Vector([rng.randint(-3, 3) for _ in range(n)])
                            for _ in range(n)]
                    if _rank_of(gens) != n:
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
                    .filter(lambda b: _rank_of(b) == n))
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


class TestSpanRoute:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(maps_and_rays())
    def test_one_elimination_matches_span_route(self, case):
        cmap, rays = case
        try:
            want = span_route_duals(cmap, rays)
        except NotGenericError:
            with pytest.raises(NotGenericError):
                cmap.psi(rays)
            return
        assert [cmap.solve_u(rays, j) for j in range(len(rays))] == want


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
