"""Acceptance suite: the eight release gates, each with a time budget.

Every check is exact rational equality; the budgets are wall-clock. One
summary line per criterion is printed in the terminal summary block.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from mucone.cli import pn_demo
from mucone.complement import (
    FlagMap,
    InnerProductMap,
    diaconis_fulton_map,
    projective_fan_cones,
    standard_inner_product,
)
from mucone.geometry import (
    Cone,
    Polytope,
    in_convex_hull,
    normalized_volume,
    subdivide_to_basic,
)
from mucone.errors import NotExtremeError
from mucone.interp import (
    mu,
    mu_basic,
    mu_explicit,
    mu_table,
)
from mucone.linalg import Matrix, Vector, primitive
from mucone.series import MultiSeries, t_series, todd_univariate
from mucone.valuations import (
    brion_vertex_decomposition_check,
    count_via_local_formula,
    verify_interpolator,
)
from oracles import (FullRingReducer, check_walk, evaluation_map, ideal_generators,
                     line_reducer, matvec, normal_form, reduce_monomial)


def V(*xs):
    return Vector(list(xs))


# -- deterministic corpora ----------------------------------------------------


def _random_hull(rng, dim, npts, name):
    while True:
        pts = [V(*(rng.randint(0, 6) for _ in range(dim)))
               for _ in range(npts)]
        uniq = []
        for p in pts:
            if p not in uniq:
                uniq.append(p)
        ext = [p for i, p in enumerate(uniq)
               if not in_convex_hull(p, uniq[:i] + uniq[i + 1:])]
        if len(ext) < dim + 1:
            continue
        try:
            poly = Polytope(ext, name=name)
        except NotExtremeError:
            continue
        if poly.dim == dim:
            return poly


@pytest.fixture(scope="module")
def polytope_corpus():
    return make_polytope_corpus()


def make_polytope_corpus():
    rng = random.Random(20260816)
    ps = [
        Polytope([V(0), V(1)], name="seg-1"),
        Polytope([V(0), V(5)], name="seg-5"),
        Polytope([V(-3), V(2)], name="seg-neg"),
        Polytope([V(0, 0), V(1, 0), V(0, 1)], name="tri-1"),
        Polytope([V(0, 0), V(2, 0), V(0, 2)], name="tri-2"),
        Polytope([V(0, 0), V(3, 1), V(1, 4)], name="tri-skew"),
        Polytope([V(0, 0), V(1, 0), V(1, 1), V(0, 1)], name="square"),
        Polytope([V(0, 0), V(3, 0), V(3, 2), V(0, 2)], name="rect-3x2"),
        Polytope([V(1, 0), V(0, 1), V(-1, 0), V(0, -1)], name="diamond"),
        _random_hull(rng, 2, 7, "hull2-a"),
        _random_hull(rng, 2, 8, "hull2-b"),
        Polytope([V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)],
                 name="simplex3-1"),
        Polytope([V(0, 0, 0), V(2, 0, 0), V(0, 2, 0), V(0, 0, 2)],
                 name="simplex3-2"),
        Polytope([V(x, y, z) for x in (0, 1) for y in (0, 1)
                  for z in (0, 1)], name="cube"),
        Polytope([V(x, y, z) for x in (0, 2) for y in (0, 1)
                  for z in (0, 3)], name="box-2x1x3"),
        Polytope([V(1, 0, 0), V(-1, 0, 0), V(0, 1, 0), V(0, -1, 0),
                  V(0, 0, 1), V(0, 0, -1)], name="octahedron"),
        Polytope([V(0, 0, 0), V(2, 0, 0), V(0, 2, 0), V(2, 2, 0),
                  V(1, 1, 2)], name="pyramid"),
        _random_hull(rng, 3, 7, "hull3-a"),
        _random_hull(rng, 3, 8, "hull3-b"),
        Polytope([V(0, 0), V(4, 0), V(5, 3), V(2, 5)], name="quad"),
    ]
    assert len(ps) >= 20
    assert {p.dim for p in ps} == {1, 2, 3}
    assert all(p.dim == p.ambient for p in ps)
    assert all(all(abs(int(c)) <= 6 for v in p.vertices for c in v)
               for p in ps)
    return ps


def _unimodular_cone(rng, n, shears):
    gens = [V(*(1 if i == j else 0 for j in range(n))) for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        gens[i] = gens[i] + rng.choice((-2, -1, 1, 2)) * gens[j]
    return Cone(gens)


@pytest.fixture(scope="module")
def basic_cone_corpus():
    return make_basic_cone_corpus()


def make_basic_cone_corpus():
    rng = random.Random(97)
    cones = [
        Cone([V(1)]),
        Cone([V(-1)]),
        Cone([V(1, 0)]),
        Cone([V(2, 3)]),
        Cone([V(0, 1, 0)]),
        Cone([V(1, 0), V(0, 1)]),
        Cone([V(1, 0), V(1, 1)]),
        Cone([V(-1, -1), V(0, 1)]),
        Cone([V(2, 1), V(3, 2)]),
        Cone([V(1, 0, 0), V(0, 1, 0)]),
        Cone([V(1, 1, 0), V(0, 0, 1)]),
        Cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]),
        Cone([V(1, 0, 0), V(1, 1, 0), V(1, 1, 1)]),
        Cone([V(2, 1, 0), V(1, 1, 0), V(3, 2, 1)]),
    ]
    cones.extend(_unimodular_cone(rng, 2, 3) for _ in range(3))
    cones.append(_unimodular_cone(rng, 3, 3))
    cones.extend(projective_fan_cones(2))
    cones.extend(projective_fan_cones(3))
    assert all(c.is_basic for c in cones)
    return cones


def _gram_maps(n):
    second = {
        1: [[2]],
        2: [[2, 1], [1, 3]],
        3: [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
    }[n]
    return [standard_inner_product(n),
            InnerProductMap(Matrix(second))]


_FLAG_PRIMES = (2, 3, 5, 7)


def _flag_map(n):
    basis = [V(*(Fraction(p) ** e for e in range(n))) for p in _FLAG_PRIMES[:n]]
    return FlagMap(basis)


# -- the eight criteria --------------------------------------------------------


def test_criterion_1_todd_coefficients(acceptance):
    t0 = time.time()
    td = todd_univariate(6)
    ok = td == [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
                Fraction(-1, 720), Fraction(0), Fraction(1, 30240)]
    ok = ok and t_series(3) == [Fraction(1, 2), Fraction(1, 12), Fraction(0),
                                Fraction(-1, 720)]
    acceptance(1, "todd-coefficients", ok, time.time() - t0, 1)


def test_criterion_2_triangle_golden(acceptance):
    t0 = time.time()
    ip2 = standard_inner_product(2)
    ok = True
    tri = Polytope([V(0, 0), V(1, 0), V(0, 1)], name="tri")
    table = mu_table(tri, ip2, order=0)
    by_dim = {0: [], 1: [], 2: []}
    for f, v in table.entries:
        by_dim[f.dim].append(v.mu0)
    ok = ok and sorted(by_dim[0]) == [Fraction(1, 4), Fraction(3, 8),
                                      Fraction(3, 8)]
    ok = ok and by_dim[1] == [Fraction(1, 2)] * 3
    ok = ok and by_dim[2] == [Fraction(1)]
    for t in range(1, 21):
        p = Polytope([V(0, 0), V(t, 0), V(0, t)], name=f"tri-{t}")
        got = count_via_local_formula(p, ip2)
        expect = Fraction(t * t, 2) + Fraction(3 * t, 2) + 1
        ok = ok and got == expect == len(p.lattice_points())
        if not ok:
            break
    acceptance(2, "triangle-golden", ok, time.time() - t0, 5)


def test_criterion_3_2d_closed_form(acceptance):
    t0 = time.time()
    rng = random.Random(321)
    grams = [Matrix([[1, 0], [0, 1]]), Matrix([[2, 1], [1, 3]]),
             Matrix([[1, 0], [0, 5]])]
    cones = []
    while len(cones) < 25:
        c = _unimodular_cone(rng, 2, rng.randint(1, 4))
        if len(c.generators) == 2:
            cones.append(c)
    ok = True
    for c in cones:
        w1, w2 = c.generators
        for g in grams:
            pair = matvec(g, w2).dot(w1)
            n11 = matvec(g, w1).dot(w1)
            n22 = matvec(g, w2).dot(w2)
            expect = Fraction(1, 4) - Fraction(1, 12) * (
                pair / n11 + pair / n22)
            got = mu_basic(c, InnerProductMap(g), order=0).mu0
            ok = ok and got == expect
        if not ok:
            break
    acceptance(3, "2d-closed-form", ok, time.time() - t0, 10)


def _flag_generic_on(cone, fl):
    from itertools import combinations
    gens = cone.generators
    for r in range(1, len(gens) + 1):
        for subset in combinations(gens, r):
            try:
                fl.psi(list(subset))
            except Exception:
                return False
    return True


def test_criterion_4_pipeline_cross_validation(acceptance, basic_cone_corpus):
    t0 = time.time()
    ok = True
    checked = 0
    flag_covered = 0
    for c in basic_cone_corpus:
        maps = list(_gram_maps(c.ambient))
        fl = _flag_map(c.ambient)
        if _flag_generic_on(c, fl):
            maps.append(fl)
            flag_covered += 1
        for m in maps:
            a = mu_basic(c, m, order=6)
            b = mu_explicit(c, m, order=6)
            ok = ok and a.series == b.series
            checked += 1
        if not ok:
            break
    if ok:
        df = {2: diaconis_fulton_map(2), 3: diaconis_fulton_map(3)}
        for n in (2, 3):
            for c in projective_fan_cones(n):
                a = mu_basic(c, df[n], order=6)
                b = mu_explicit(c, df[n], order=6)
                ok = ok and a.series == b.series
                checked += 1
            if not ok:
                break
    ok = ok and checked >= 60 and flag_covered >= 10
    acceptance(4, "pipeline-cross-validation", ok, time.time() - t0, 60)


def test_criterion_5_additivity(acceptance):
    t0 = time.time()
    rng = random.Random(555)
    ip = {2: standard_inner_product(2), 3: standard_inner_product(3)}
    ok = True
    for trial in range(50):
        n = 2 if trial % 5 < 3 else 3
        parent = _unimodular_cone(rng, n, rng.randint(0, 3))
        gens = [Vector(g) for g in parent.generators]
        coeffs = [rng.randint(1, 3) for _ in range(n)]
        w = gens[0] * coeffs[0]
        for c, g in zip(coeffs[1:], gens[1:]):
            w = w + c * g
        w = primitive(w)
        children = [Cone(gens[:i] + gens[i + 1:] + [w]) for i in range(n)]
        total = MultiSeries.zero(n, 6)
        for ch in children:
            total = total + mu(ch, ip[n], 6).series
        ok = ok and total == mu(parent, ip[n], 6).series
        if not ok:
            break
    acceptance(5, "additivity", ok, time.time() - t0, 60)


def test_criterion_6_interpolator_identity(acceptance, polytope_corpus):
    t0 = time.time()
    ok = True
    for p in polytope_corpus:
        for m in _gram_maps(p.ambient):
            rep = verify_interpolator(p, m, order=6)
            ok = ok and rep.passed and rep.q == 6 - p.dim
            if not ok:
                break
        if not ok:
            break
    acceptance(6, "interpolator-identity", ok, time.time() - t0, 300)


def test_criterion_7_projective_fan(acceptance):
    # the pn-demo checks at degree 6: 1/2 per ray, 1/3 and 1/4 per pair,
    # and each pair's full series against its closed form
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        report = pn_demo(n, 6)
        kinds = Counter(c["kind"].rsplit("-", 1)[-1] for c in report["checks"])
        pairs = comb(n + 1, 2)
        ok = ok and report["all_checks_passed"]
        ok = ok and kinds == {"ray": n + 1, "pair": pairs, "series": pairs}
        if not ok:
            break
    acceptance(7, "projective-fan-constants", ok, time.time() - t0, 30)


def test_criterion_8_property_suites(acceptance, polytope_corpus):
    t0 = time.time()
    rng = random.Random(888)
    ok = True

    # confluence: identical normal forms under permuted pivot orders
    ip2, ip3 = standard_inner_product(2), standard_inner_product(3)
    stations = []
    for _ in range(6):
        c = _unimodular_cone(rng, 2, rng.randint(0, 3))
        stations.append((c, ip2, [(0, 1), (1, 0)]))
    for _ in range(4):
        c = _unimodular_cone(rng, 3, rng.randint(0, 3))
        orders = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
        stations.append((c, ip3, orders))
    elements = 0
    for c, m, orders in stations:
        k = len(c.generators)
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                expo = tuple(rng.randint(0, 2) for _ in range(k))
                terms[expo] = Fraction(rng.randint(-3, 3))
            base = normal_form(terms, c, m, 4, orders[0])
            elements += 1
            for po in orders[1:]:
                ok = ok and normal_form(terms, c, m, 4, po) == base
        if not ok:
            break
    ok = ok and elements >= 200

    # support growth: every output monomial keeps the input support
    if ok:
        c = Cone([V(1, 0, 0), V(1, 1, 0), V(1, 1, 1)])
        red, lines = line_reducer(c, ip3, 4)
        reference = FullRingReducer(c, ip3, 4)
        for _ in range(40):
            expo = tuple(rng.randint(0, 2) for _ in range(3))
            support = frozenset(i for i, e in enumerate(expo) if e)
            for subset in reduce_monomial(red, expo):
                ok = ok and support <= subset
            check_walk(reference, red, lines, expo)

    # locality: coefficients on face subsets match the face computation
    if ok:
        big = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)])
        face = Cone([V(1, 0, 0), V(0, 1, 0)])
        for expo_small in [(1, 1), (2, 0), (2, 1), (0, 2)]:
            eb = normal_form({expo_small + (0,): 1}, big, ip3, 4)
            es = normal_form({expo_small: 1}, face, ip3, 4)
            for s, c in es.items():
                ok = ok and eb.get(s) == c
            for s in eb:
                if s <= frozenset({0, 1}):
                    ok = ok and s in es

    # kernel annihilation under the evaluation map
    if ok:
        pairs = [
            (Cone([V(1, 0), V(1, 1)]), ip2),
            (Cone([V(2, 1), V(3, 2)]), ip2),
            (Cone([V(1, 0), V(0, 1)]), diaconis_fulton_map(2)),
            (Cone([V(1, 0), V(0, 1)]), _flag_map(2)),
            (Cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]), ip3),
            (Cone([V(1, 0, 0), V(1, 1, 0), V(1, 1, 1)]), ip3),
        ]
        for c, m in pairs:
            for g in ideal_generators(c, m, order=4):
                num, _ = evaluation_map(g, c, 4)
                ok = ok and num.is_zero

    # independent decomposition check over the whole polytope corpus
    if ok:
        for p in polytope_corpus:
            ok = ok and brion_vertex_decomposition_check(p)
            if not ok:
                break

    acceptance(8, "property-suites", ok, time.time() - t0, 120)
