"""Normal-form reduction, the explicit chain formula, and mu tables."""

import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mucone
from mucone import interp
from mucone.complement import (
    FlagMap,
    InnerProductMap,
    RayTableMap,
    diaconis_fulton_map,
    projective_fan_cones,
    projective_fan_rays,
    standard_inner_product,
)
from mucone.errors import (
    InconsistentExplicitFormulaError,
    InternalInconsistencyError,
    MuconeError,
    NotGenericError,
    UnknownRayError,
)
from mucone.geometry import Cone, Polytope, subdivide_to_basic, zero_cone
from mucone.interp import (
    MuValue,
    SquarefreeReducer,
    clear_mu_cache,
    mu,
    mu_basic,
    mu_explicit,
    mu_on_line,
    mu_table,
)
from mucone.linalg import Matrix, Vector
from mucone.series import (
    LaurentSeries,
    MultiSeries,
    compose_linear,
    divide_by_linear_form,
    restrict_to_direction,
    t_series,
    todd_univariate,
)
from oracles import (
    FullRingReducer,
    VectorNotInSubspaceError,
    as_ring_element,
    chain_sum,
    chain_sum_on_line,
    check_walk,
    evaluation_map,
    ideal_generators,
    lattice_lines,
    laurent_inverse,
    line_reducer,
    linear_relation,
    matvec,
    mu_explicit_combined,
    mu_on_line_cell_by_cell,
    nodes_by_full_scan,
    normal_form,
    pivot_vector,
    psi_failures,
    reduce_monomial,
    row,
    td_element,
    value_at,
    walk_values,
)
from test_acceptance import _flag_generic_on, _flag_map, _gram_maps, make_basic_cone_corpus


def V(*xs):
    return Vector(xs)


IP2 = standard_inner_product(2)
IP3 = standard_inner_product(3)

# the running worked example: both generators lean on each other
SLANT = Cone([V(-1, -1), V(0, 1)])


def t_of(form: Vector, order: int) -> MultiSeries:
    return compose_linear(t_series(order), form, order)


class TestLinearRelation:
    def test_1d(self):
        c = Cone([V(1)])
        rel = linear_relation(c, standard_inner_product(1), (0,), V(1), order=3)
        assert rel[(2,)] == 1
        assert rel[(1,)] == MultiSeries.from_linear(V(-1), 3)

    def test_df_ray_relation(self):
        m = diaconis_fulton_map(2)
        c = Cone([V(1, 0), V(0, 1)])  # fan rays 1 and 2
        u = V(1, -1)
        rel = linear_relation(c, m, (0,), u, order=2)
        # D1(D1 - D2 - u1)
        assert rel[(2, 0)] == 1
        assert rel[(1, 1)] == -1
        assert rel[(1, 0)] == MultiSeries.from_linear(-u, 2)

    def test_zero_vector(self):
        assert linear_relation(SLANT, IP2, (0, 1), V(0, 0)) == {}

    def test_not_in_subspace(self):
        with pytest.raises(VectorNotInSubspaceError):
            linear_relation(Cone([V(1, 0), V(0, 1)]), IP2, (0,), V(0, 1))


def _reducer_td(cap):
    """The univariate Todd series the reducer's factors read, as constants."""
    tdn, d = interp._todd_over_integers(cap)
    return [Fraction(c, d) for c in tdn]


class TestTdElement:
    def test_k1(self):
        td = td_element(Cone([V(1)]), order=1)
        assert td[(0,)] == 1
        assert td[(1,)] == Fraction(1, 2)
        assert td[(2,)] == Fraction(1, 12)
        assert max(map(sum, td)) == 1 + 1
        assert _reducer_td(2) == todd_univariate(2) == [td[(m,)] for m in range(3)]

    def test_k0(self):
        assert td_element(zero_cone(2), order=4) == {(): 1}
        assert _reducer_td(4) == todd_univariate(4)

    def test_k2_degree2_part(self):
        td = td_element(Cone([V(1, 0), V(0, 1)]), order=3)
        assert td[(1, 1)] == Fraction(1, 4)
        assert td[(2, 0)] == Fraction(1, 12)
        assert td[(0, 2)] == Fraction(1, 12)
        assert max(map(sum, td)) == 2 + 3
        tdu = _reducer_td(5)
        assert tdu == todd_univariate(5)
        assert td == {e: tdu[e[0]] * tdu[e[1]] for e in td}

    def test_shared_read_only_value(self):
        # built once per (k, order) or cap: the reductions read it and leave it as it was
        c = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)])
        first = td_element(c, order=4)
        snapshot = dict(first)
        reducer_first = interp._todd_over_integers(7)
        reducer_snapshot = tuple(reducer_first[0])
        mu_basic(c, IP3, 4)
        mu_on_line(c, IP3, V(2, 3, 5), 4)
        FullRingReducer(c, IP3, 4).reduce()
        second = td_element(Cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]), order=4)
        assert second is first
        assert second == snapshot
        assert interp._todd_over_integers(7) is reducer_first
        assert reducer_first[0] == reducer_snapshot
        with pytest.raises(TypeError):
            first[(0, 0, 0)] = 2
        with pytest.raises(TypeError):
            reducer_first[0][0] = 2
        assert td_element(c, order=3) != snapshot


class TestReduction:
    def test_1d_square(self):
        c = Cone([V(1)])
        expr = normal_form({(2,): 1}, c, standard_inner_product(1), 3)
        assert set(expr) == {frozenset({0})}
        assert expr[frozenset({0})] == MultiSeries.from_linear(V(1), 3)

    def test_already_squarefree(self):
        c = Cone([V(1)])
        expr = normal_form({(1,): 1}, c, standard_inner_product(1), 2)
        assert expr[frozenset({0})] == MultiSeries.constant(1, 1, 2)

    def test_shear_example(self):
        # one rewrite: D1^2 = u D1 - <w2,u> D1D2 with u = (1,0), <w2,u> = 1
        c = Cone([V(1, 0), V(1, 1)])
        expr = normal_form({(2, 0): 1}, c, IP2, 2)
        assert expr[frozenset({0})] == MultiSeries.from_linear(V(1, 0), 2)
        assert expr[frozenset({0, 1})] == MultiSeries.constant(-1, 2, 2)

    def test_slant_example(self):
        # u = (-1/2,-1/2), <w2,u> = -1/2: D1^2 = u D1 + (1/2) D1D2
        expr = normal_form({(2, 0): 1}, SLANT, IP2, 2)
        u = V(Fraction(-1, 2), Fraction(-1, 2))
        assert expr[frozenset({0})] == MultiSeries.from_linear(u, 2)
        assert expr[frozenset({0, 1})] == MultiSeries.constant(Fraction(1, 2), 2, 2)

    def test_confluence_under_pivot_order(self):
        c = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)])
        td = td_element(c, order=3)
        base = None
        for po in permutations(range(3)):
            expr = normal_form(td, c, IP3, 3, pivot_order=po)
            if base is None:
                base = expr
            else:
                assert expr == base

    def test_support_growth(self):
        c = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)])
        red, lines = line_reducer(c, IP3, order=4)
        reference = FullRingReducer(c, IP3, order=4)
        for expo in [(3, 1, 0), (2, 2, 1), (4, 0, 0), (2, 0, 2)]:
            mono_support = frozenset(i for i, e in enumerate(expo) if e)
            for s in reduce_monomial(red, expo):
                assert mono_support <= s
            check_walk(reference, red, lines, expo)

    def test_locality(self):
        big = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)])
        small = Cone([V(1, 0, 0), V(0, 1, 0)])
        expr_big = normal_form({(2, 1, 0): 1}, big, IP3, 4)
        expr_small = normal_form({(2, 1): 1}, small, IP3, 4)
        inside = frozenset({0, 1})
        for s, c in expr_small.items():
            assert expr_big.get(s) == c
        for s in expr_big:
            if s <= inside:
                assert s in expr_small


@st.composite
def unimodular_cases(draw):
    """A unimodular basic cone of dimension k <= n in ambient n = 1..3 and a
    positive-definite Gram map."""
    n = draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    gens = [Vector([int(i == j) for j in range(n)]) for i in range(n)]
    if n > 1:
        for i, j, a in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                               st.integers(0, n - 1), small),
                                     max_size=4)):
            if i != j:
                gens[i] = gens[i] + a * gens[j]
    k = draw(st.integers(1, n))
    b = Matrix([[draw(small) for _ in range(n)] for _ in range(n)])
    gram = [[row(b, i).dot(row(b, j)) + int(i == j) for j in range(n)] for i in range(n)]
    return Cone(gens[:k], ambient=n), InnerProductMap(Matrix(gram))


@st.composite
def graded_cases(draw):
    """A case of unimodular_cases and an integer line no pivot annihilates."""
    cone, cmap = draw(unimodular_cases())
    k = len(cone.generators)
    line = Vector([draw(st.integers(-5, 5)) for _ in range(cone.ambient)])
    for size in range(1, k + 1):
        for s in combinations(range(k), size):
            assume(all(line.dot(pivot_vector(cone, cmap, s, i)) for i in s))
    return cone, cmap, line


@st.composite
def any_line_cases(draw):
    """A case of unimodular_cases and a rational line, which may annihilate
    pivots or be zero."""
    cone, cmap = draw(unimodular_cases())
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    return cone, cmap, Vector([draw(coord) for _ in range(cone.ambient)])


@st.composite
def partial_map_cases(draw):
    """A unimodular basic cone, a flag map that need not be generic on it or
    a ray table that may lack some of its rays, and an integer line."""
    cone, _ = draw(unimodular_cases())
    n = cone.ambient
    vec = st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(Vector)
    if draw(st.booleans()):
        cmap = FlagMap(draw(st.lists(vec, min_size=n, max_size=n)
                            .filter(lambda b: Matrix(b).rank() == n)))
    else:
        table = []
        for w in cone.generators:
            u = draw(vec)
            if draw(st.integers(0, 3)):
                table.append((w, u if u.dot(w) else Vector(w)))
        cmap = RayTableMap(table, ambient=n)
    return cone, cmap, draw(vec)


@st.composite
def multicell_partial_map_cases(draw):
    """A pointed cone in R^2 or R^3 that is not basic, with at most six basic
    cells, a flag map that need not be generic on the cells or a ray table
    that may lack some of their rays, and an integer line."""
    n = draw(st.sampled_from([2, 3]))
    vec = st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(Vector)
    ray = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(Vector)
    try:
        cone = Cone(draw(st.lists(ray, min_size=n, max_size=n + 1)), ambient=n)
    except MuconeError:
        assume(False)
    assume(not cone.is_basic)
    cells = subdivide_to_basic(cone).children
    assume(len(cells) <= 6)
    if draw(st.booleans()):
        cmap = FlagMap(draw(st.lists(vec, min_size=n, max_size=n)
                            .filter(lambda b: Matrix(b).rank() == n)))
    else:
        table = []
        for w in sorted({w for cell in cells for w in cell.generators}):
            u = draw(vec)
            if draw(st.integers(0, 3)):
                table.append((w, u if u.dot(w) else Vector(w)))
        cmap = RayTableMap(table, ambient=n)
    return cone, cmap, Vector([draw(st.integers(-2, 2)) for _ in range(n)])


@st.composite
def truncation_cases(draw):
    """A case of multicell_partial_map_cases, its map swapped half the time
    for a positive-definite Gram map."""
    cone, cmap, line = draw(multicell_partial_map_cases())
    if draw(st.booleans()):
        n = cone.ambient
        b = Matrix([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)])
        cmap = InnerProductMap(Matrix([[row(b, i).dot(row(b, j)) + int(i == j)
                                        for j in range(n)] for i in range(n)]))
    return cone, cmap, line


def _outcome(route):
    try:
        return route()
    except MuconeError as exc:
        return type(exc), str(exc)


def _check_against_reference(got, want, failures):
    """got, the library's outcome, is the reference's value want when psi
    fails on no subset the reduction rewrites; else got is psi's error on
    the first failing subset, and want is psi's error on some failing one."""
    if failures:
        assert got == failures[0] and want in failures, (got, want, failures)
    else:
        assert got == want


class TestGradedRoute:
    ORDER = 4

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(graded_cases())
    def test_line_and_full_ring_agree(self, case):
        cone, cmap, line = case
        full = mu_basic(cone, cmap, self.ORDER).series
        assert mu_on_line(cone, cmap, line, self.ORDER) == restrict_to_direction(full, line)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(any_line_cases())
    def test_agree_on_any_rational_line(self, case):
        cone, cmap, line = case
        full = mu_basic(cone, cmap, self.ORDER).series
        assert mu_on_line(cone, cmap, line, self.ORDER) == restrict_to_direction(full, line)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(partial_map_cases())
    def test_line_route_raises_what_full_route_raises(self, case):
        # the line route reads every subset's psi up front and raises the
        # first failure; the full-ring reference raises where a rewrite needs
        # a failing subset, which it does exactly when there is one
        cone, cmap, line = case
        for order in range(7):
            full = _outcome(lambda: restrict_to_direction(
                FullRingReducer(cone, cmap, order).reduce(), line))
            _check_against_reference(_outcome(lambda: mu_on_line(cone, cmap, line, order)),
                                     full, psi_failures([cone], cmap, order))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(multicell_partial_map_cases())
    def test_batched_line_route_matches_cell_by_cell(self, case):
        # one batch serves all cells; its set-up reads psi cell by cell, so
        # the error is the first failing cell's own
        cone, cmap, line = case
        for order in range(7):
            want = _outcome(lambda: mu_on_line_cell_by_cell(cone, cmap, line, order))
            assert _outcome(lambda: mu_on_line(cone, cmap, line, order)) == want

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(truncation_cases())
    def test_lower_order_is_a_truncation(self, case):
        # no M_i lowers the t-degree, so reducing through q >= 1 gives the
        # first q + 1 coefficients of the reduction through a higher order,
        # and reads the same psi subsets in the same order: the same error
        cone, cmap, line = case
        order = 6
        full = _outcome(lambda: mu_on_line(cone, cmap, line, order))
        for q in range(1, order + 1):
            want = full
            if isinstance(full, LaurentSeries):
                want = LaurentSeries.from_taylor([full.coefficient(r) for r in range(q + 1)], q)
            assert _outcome(lambda: mu_on_line(cone, cmap, line, q)) == want

    def test_batch_raises_the_first_failing_cells_error(self):
        # a later cell needs the ray (1, 1), which the table lacks; the first
        # cell's own rays (1, 2), (1, 3) are not generic, and the batch's
        # set-up meets that first
        cone = Cone([V(1, -2), V(1, 3)])
        cmap = RayTableMap([(V(1, -2), V(-1, 0)), (V(1, -1), V(0, -1)), (V(1, 0), V(1, 0)),
                            (V(1, 2), V(1, 0)), (V(1, 3), V(-1, 0))])
        line, order = V(0, 0), 3
        cells = subdivide_to_basic(cone).children
        failures = psi_failures(cells, cmap, order)
        assert {UnknownRayError, NotGenericError} <= {kind for kind, _ in failures}
        want = _outcome(lambda: mu_on_line_cell_by_cell(cone, cmap, line, order))
        assert want == failures[0] and want[0] is NotGenericError
        assert _outcome(lambda: SquarefreeReducer(cells, [line], cmap, order)) == want
        assert _outcome(lambda: mu_on_line(cone, cmap, line, order)) == want

    def test_spill_that_vanishes_in_one_cell_only(self):
        # the batch keeps the spill target and stores 0 for the cell whose
        # <w_j,u> vanishes
        cone = Cone([V(1, 0), V(-1, 2)])
        cmap = RayTableMap([(V(-1, 2), V(1, 0)), (V(0, 1), V(0, 1)), (V(1, 0), V(1, 0))])
        line, order = V(1, -2), 3
        cells = subdivide_to_basic(cone).children
        red = SquarefreeReducer(cells, [line], cmap, order)
        red.reduce()
        assert any(0 in w and any(w) for _, spill in red._rewrites.values() for _, w in spill)
        got = mu_on_line(cone, cmap, line, order)
        assert got == mu_on_line_cell_by_cell(cone, cmap, line, order)
        assert got == restrict_to_direction(mu(cone, cmap, order).series, line)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(graded_cases(), st.lists(st.integers(0, 6), min_size=3, max_size=3))
    def test_full_ring_coefficients_homogeneous(self, case, raw):
        # the reducer's value of each coefficient on the line t*2y is 2^degree
        # times its value on t*y, and the reference's is a homogeneous series
        cone, cmap, _ = case
        expo = tuple(raw[:len(cone.generators)])
        lines = lattice_lines(cone.ambient, self.ORDER)
        doubled = [tuple(2 * a for a in y) for y in lines]
        red, _ = line_reducer(cone, cmap, self.ORDER, lines=lines + doubled)
        reference = FullRingReducer(cone, cmap, self.ORDER)
        for s, vals in walk_values(red, expo).items():
            degree = sum(expo) - len(s)
            assert degree <= self.ORDER
            at_y, at_2y = vals[:len(lines)], vals[len(lines):]
            assert at_2y == [2 ** degree * v for v in at_y], (expo, s)
            c = reference.reduce_monomial(expo)[s]
            assert all(sum(m) == degree for m in c.coeffs), (expo, s, c)
            assert at_y == [value_at(c, y) for y in lines], (expo, s)

    def test_direction_length_checked(self):
        for cone in (Cone([V(1, 0), V(1, 1)]), zero_cone(2)):
            with pytest.raises(ValueError):
                mu_on_line(cone, IP2, V(1, 2, 3))


class TestOperators:
    """Multiplication by D_i as the linear map M_i on squarefree monomials."""

    ORDER = 3

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.one_of(graded_cases(), partial_map_cases()))
    def test_operators_commute(self, case):
        # on every basis vector (S, r): M_i M_j = M_j M_i, and no M_i shrinks
        # S or lowers r.  This is the uniqueness of the normal form.
        cone, cmap, line = case
        k = len(cone.generators)
        assume(not psi_failures([cone], cmap, self.ORDER))
        red = SquarefreeReducer([cone], [line], cmap, self.ORDER)

        def nonzero(vec):
            return {key: c for key, c in vec.items() if any(c)}

        for size in range(k + 1):
            for s in map(frozenset, combinations(range(k), size)):
                for r in range(self.ORDER + 1):
                    for i in range(k):
                        assert all(s <= t and r <= q for t, q in red._apply({(s, r): [1]}, i))
                        for j in range(i):
                            assert (nonzero(red._apply(red._apply({(s, r): [1]}, i), j))
                                    == nonzero(red._apply(red._apply({(s, r): [1]}, j), i)))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.one_of(unimodular_cases(), partial_map_cases().map(lambda case: case[:2])))
    def test_factor_orders_agree(self, case):
        # the reducer takes the Todd factors in generator order, so permuting
        # the generators runs every order of the factors: each gives the same
        # rows on the lattice lines, or psi's error on its own first failing subset
        cone, cmap = case
        cones = [Cone(gens, ambient=cone.ambient) for gens in permutations(cone.generators)]
        for order in (0, 1, self.ORDER):
            lines = lattice_lines(cone.ambient, order)
            rows = []
            for perm in cones:
                failures = psi_failures([perm], cmap, order)
                got = _outcome(lambda: SquarefreeReducer([perm], lines, cmap, order).reduce())
                if failures:
                    assert got == failures[0], (perm, got, failures)
                else:
                    rows.append(got)
            assert rows == [] or rows == [rows[0]] * len(cones), rows

    def test_slant_cube(self):
        # D1^3 on the slant cone, from D_1 by two applications of M_1
        red, lines = line_reducer(SLANT, IP2, 2)
        q = Fraction(1, 4)
        want = {frozenset({0}): MultiSeries(2, 2, {(2, 0): q, (1, 1): 2 * q, (0, 2): q}),
                frozenset({0, 1}): MultiSeries(2, 1, {(1, 0): -3 * q, (0, 1): -q})}
        assert walk_values(red, (3, 0)) == {
            s: [value_at(c, y) for y in lines] for s, c in want.items()}


class TestBatchedCells:
    CONE = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 3)])  # index 3

    def test_full_ring_batch_is_per_cell(self):
        # every cell on every lattice line in one batch: each line's row is
        # the sum over the cells of each cell's own mu on that line, as
        # integer numerators over one positive denominator
        cells = subdivide_to_basic(self.CONE).children
        assert len(cells) == 5
        lines = lattice_lines(3, 4)
        got = SquarefreeReducer(cells, lines, IP3, 4).reduce()
        assert len(got) == len(lines)
        assert all(len(nums) == 5 and type(den) is int and den > 0 for nums, den in got)
        per_cell = [[restrict_to_direction(FullRingReducer(cell, IP3, 4).reduce(), y)
                     for y in lines] for cell in cells]
        want = [sum(col, LaurentSeries.zero(4)) for col in zip(*per_cell)]
        assert [LaurentSeries.from_taylor([Fraction(x, den) for x in nums], 4)
                for nums, den in got] == want
        assert per_cell == [[restrict_to_direction(mu_basic(cell, IP3, 4).series, y)
                             for y in lines] for cell in cells]


class TestMuBasic:
    def test_zero_cone(self):
        v = mu_basic(zero_cone(2), IP2, order=3)
        assert v.series == MultiSeries.constant(1, 2, 3)
        # R^0 has no lines to reduce on
        v = mu_basic(zero_cone(0), standard_inner_product(0), order=3)
        assert v.series == MultiSeries.constant(1, 0, 3)

    def test_1d_is_t_series(self):
        v = mu_basic(Cone([V(1)]), standard_inner_product(1), order=5)
        ts = t_series(5)
        for m in range(6):
            assert v.series.coefficient((m,)) == ts[m]

    def test_1d_in_ambient_2(self):
        v = mu_basic(Cone([V(0, 1)]), IP2, order=4)
        assert v.series == t_of(V(0, 1), 4)

    def test_mu0_quadrant(self):
        assert mu_basic(Cone([V(0, 1), V(1, 0)]), IP2, order=2).mu0 == Fraction(1, 4)

    def test_mu0_slant(self):
        assert mu_basic(SLANT, IP2, order=2).mu0 == Fraction(3, 8)
        assert mu_basic(Cone([V(-1, -1), V(1, 0)]), IP2, order=2).mu0 == Fraction(3, 8)

    def test_mu0_orthant_3d(self):
        assert mu_basic(Cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]), IP3,
                        order=0).mu0 == Fraction(1, 8)

    def test_mu0_closed_form_2d(self):
        rng = random.Random(7)
        grams = [Matrix.identity(2), Matrix([[2, 1], [1, 3]]),
                 Matrix([[1, 0], [0, 5]])]
        tried = 0
        while tried < 8:
            w1 = V(rng.randint(-3, 3), rng.randint(-3, 3))
            w2 = V(rng.randint(-3, 3), rng.randint(-3, 3))
            if w1.is_zero or w2.is_zero or _rank2(w1, w2) < 2:
                continue
            c = Cone([w1, w2])
            if not c.is_basic:
                continue
            tried += 1
            a, b = c.generators
            for g in grams:
                m = InnerProductMap(g)
                u1 = m.solve_u((a,), 0)
                u2 = m.solve_u((b,), 0)
                want = Fraction(1, 4) - Fraction(1, 12) * (u1.dot(b) + u2.dot(a))
                assert mu_basic(c, m, order=0).mu0 == want

    def test_psi_read_once_per_subset(self, monkeypatch):
        # one reduction over all lattice lines reads psi once per generator subset
        cmap, calls = standard_inner_product(3), []
        psi = cmap.psi
        monkeypatch.setattr(cmap, "psi", lambda rays: calls.append(rays) or psi(rays))
        rays = [V(1, 0, 0), V(1, 1, 0), V(1, 1, 1)]
        for order in (0, 3, 6):
            for gens in permutations(rays):
                calls.clear()
                mu_basic(Cone(gens), cmap, order)
                assert len(calls) == 7, (order, gens, len(lattice_lines(3, order)))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.one_of(unimodular_cases(), partial_map_cases().map(lambda case: case[:2])))
    def test_equals_full_ring_reference(self, case):
        # under Gram maps, flag maps and ray tables with missing rays, against
        # the reference at every pivot order: the same series, or an error from
        # both routes, the library's being psi's on the first failing subset
        cone, cmap = case
        for order in range(7):
            failures = psi_failures([cone], cmap, order)
            got = _outcome(lambda: mu_basic(cone, cmap, order).series)
            for po in permutations(range(len(cone.generators))):
                want = _outcome(lambda: FullRingReducer(cone, cmap, order, po).reduce())
                _check_against_reference(got, want, failures)

    @pytest.mark.parametrize("route", [mu_basic, mu_explicit], ids=lambda f: f.__name__)
    def test_corpus_digest(self, route):
        # both routes' series over the criterion-4 pairs, pinned byte for byte
        digest = hashlib.sha256()
        for c, m in _criterion_4_pairs():
            digest.update(json.dumps(route(c, m, 5).series.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "a724fc991f801186551af05a28a98806d65827b13e48f2c37dad50502f88a5ab")

    @pytest.mark.parametrize("route", [mu_basic, mu_explicit], ids=lambda f: f.__name__)
    def test_mu_crossval_digest(self, route, bench_workloads):
        # both routes' series over the benchmark's mu-crossval operations at
        # workload seeds 0 and 1, in set-up order, pinned byte for byte
        workloads, m = bench_workloads
        digest = hashlib.sha256()
        for shift in (0, 1):
            for c, cmap, _ in workloads.MuCrossval.setup(m, workloads.Seeds(shift=shift)):
                series = route(c, cmap, workloads.MU_ORDER).series
                digest.update(json.dumps(series.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "18ab2e177c575350ef279eb09ea73db7337a59e7b4054e007e32f0bf67786271")


def _rank2(a, b):
    return Matrix([list(a), list(b)]).rank()


class TestLambdaEqualsFaceMu:
    def test_slant(self):
        expr = normal_form(td_element(SLANT, 4), SLANT, IP2, 4)
        for s, c in expr.items():
            face = Cone([SLANT.generators[i] for i in sorted(s)], ambient=2)
            assert c == mu(face, IP2, order=4).series

    def test_df_cone(self):
        m = diaconis_fulton_map(2)
        c = Cone([V(1, 0), V(0, 1)])
        expr = normal_form(td_element(c, 3), c, m, 3)
        for s, coeff in expr.items():
            face = Cone([c.generators[i] for i in sorted(s)], ambient=2)
            assert coeff == mu(face, m, order=3).series


class TestEvaluation:
    def test_monomials(self):
        c = Cone([V(1, 0), V(0, 1)])
        num, duals = evaluation_map({(2, 1): 1}, c, 3)
        assert duals == (V(1, 0), V(0, 1))
        v1 = MultiSeries.from_linear(V(1, 0), 3)
        want = v1 * v1 * MultiSeries.from_linear(V(0, 1), 3)
        assert num.agrees_with(want, through=3)

    def test_kernel_annihilation(self):
        cones_maps = [
            (Cone([V(1, 0), V(1, 1)]), IP2),
            (SLANT, IP2),
            (Cone([V(1, 0), V(0, 1)]), diaconis_fulton_map(2)),
            (Cone([V(1, 0), V(0, 1)]), FlagMap([V(1, 2), V(1, 0)])),
            (Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)]), IP3),
        ]
        for c, m in cones_maps:
            for g in ideal_generators(c, m, order=4):
                num, _ = evaluation_map(g, c, 4)
                assert num.is_zero, f"nonzero image for {c!r} / {m.describe()}"

    def test_td_identity(self):
        # the Todd element and its normal form agree under evaluation
        for c, m in [
            (Cone([V(1, 0), V(1, 1)]), IP2),
            (SLANT, IP2),
            (Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)]), IP3),
        ]:
            d = 3
            td = td_element(c, d)
            expr = normal_form(td, c, m, d)
            lhs, _ = evaluation_map(td, c, d)
            rhs, _ = evaluation_map(as_ring_element(expr, len(c.generators)), c, d)
            assert lhs.agrees_with(rhs, through=d)


class TestChainSum:
    def _laurent(self, term, y0, through):
        num = restrict_to_direction(term.numerator, y0)
        den = None
        for f in term.denominator:
            le = restrict_to_direction(MultiSeries.from_linear(f, through + 2), y0)
            den = le if den is None else den * le
        return num * laurent_inverse(den)

    def test_full_subset(self):
        c = Cone([V(1, 0), V(0, 1)])
        term = chain_sum(c, IP2, {0, 1}, {0, 1}, order=4)
        got = self._laurent(term, V(2, 3), 4)
        # 1/(v1 v2) restricted to t(2,3) is t^-2/6
        assert got.coefficient(-2) == Fraction(1, 6)
        assert got.coefficient(-1) == 0 and got.coefficient(0) == 0

    def test_singleton_and_empty(self):
        c = Cone([V(1, 0), V(0, 1)])
        t1 = self._laurent(chain_sum(c, IP2, {0, 1}, {0}, order=4), V(2, 3), 4)
        assert t1.coefficient(-2) == Fraction(-1, 6)
        t0 = self._laurent(chain_sum(c, IP2, {0, 1}, frozenset(), order=4), V(2, 3), 4)
        # -1/(v1v2) + 1/(u1v2) + 1/(u2v1) at u=v=e_i: 1/(v1v2)
        assert t0.coefficient(-2) == Fraction(1, 6)

    def test_slant_empty_subset(self):
        # u1 = (-1/2,-1/2), u2 = (0,1), v1 = (-1,0), v2 = (-1,1), y0 = (2,3):
        # -1/(v1v2) + 1/(u1v2) + 1/(u2v1): -1/(-2*1) + 1/((-5/2)*1) + 1/(3*-2)
        t0 = self._laurent(chain_sum(SLANT, IP2, {0, 1}, frozenset(), order=4),
                           V(2, 3), 4)
        assert t0.coefficient(-2) == Fraction(1, 2) - Fraction(2, 5) - Fraction(1, 6)


class TestMuExplicit:
    def test_1d_matches(self):
        c = Cone([V(2, 1)])
        a = mu_basic(c, IP2, order=4)
        b = mu_explicit(c, IP2, order=4)
        assert a.series == b.series

    def test_2d_matches_across_maps(self):
        cones = [Cone([V(1, 0), V(0, 1)]), Cone([V(1, 0), V(1, 1)]), SLANT,
                 Cone([V(2, 1), V(3, 2)])]
        maps = [IP2, InnerProductMap(Matrix([[2, 1], [1, 3]])),
                FlagMap([V(1, 2), V(1, 0)])]
        for c in cones:
            for m in maps:
                assert mu_basic(c, m, order=3).series == mu_explicit(c, m, order=3).series

    def test_2d_correction_term_form(self):
        d = 5
        v1 = pivot_vector(SLANT, IP2, {0, 1}, 0)
        v2 = pivot_vector(SLANT, IP2, {0, 1}, 1)
        u1 = pivot_vector(SLANT, IP2, {0}, 0)
        u2 = pivot_vector(SLANT, IP2, {1}, 1)
        assert (v1, v2) == (V(-1, 0), V(-1, 1))
        big = d + 2
        t = lambda f: compose_linear(t_series(big), f, big)
        want = (t(v1) * t(v2)
                + divide_by_linear_form(t(v1) - t(u1), v2)
                + divide_by_linear_form(t(v2) - t(u2), v1))
        got = mu_explicit(SLANT, IP2, order=d)
        assert got.series.agrees_with(want, through=d)
        assert got.mu0 == Fraction(3, 8)

    @pytest.mark.parametrize("n", range(4))
    def test_zero_cones_match(self, n):
        # R^0 has no lines for the chain sum to run on; both routes give 1
        z, cmap = zero_cone(n), standard_inner_product(n)
        for order in (0, 2, 5):
            a, b = mu_basic(z, cmap, order), mu_explicit(z, cmap, order)
            assert a.series == b.series == MultiSeries.constant(1, n, order)
            assert (a.provenance, b.provenance) == ("reduction", "explicit")

    def test_3d_matches(self):
        c = Cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)])
        assert mu_basic(c, IP3, order=2).series == mu_explicit(c, IP3, order=2).series

    def test_4_generators_fan_cones(self):
        df = diaconis_fulton_map(4)
        cones = [c for c in projective_fan_cones(4) if len(c.generators) == 4]
        assert cones
        for c in cones:
            for order in (1, 2):
                assert mu_explicit(c, df, order).series == mu_basic(c, df, order).series, c

    def test_4_generators_gram(self):
        c = Cone([V(1, 0, 0, 0), V(-1, 1, 0, 0), V(0, 2, 1, 0), V(1, 0, -1, 1)])
        m = InnerProductMap(Matrix([[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1], [0, 0, 1, 3]]))
        assert c.is_basic
        for order in (1, 2):
            assert mu_explicit(c, m, order).series == mu_basic(c, m, order).series


CONE3 = Cone([V(2, 1, 0), V(1, 1, 0), V(3, 2, 1)])
BY_K = {2: (SLANT, IP2), 3: (CONE3, IP3)}  # a k-generator cone and its map


class TestExplicitChecks:
    """The exactness checks of the explicit route fire on broken input."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_duplicated_step_raises(self, monkeypatch, k):
        # a step counted twice adds g_T' / prod <u,y> once more to g_T, so
        # the chain sum keeps a pole
        cone, cmap = BY_K[k]
        real = interp._explicit_terms
        _, _, plan = real(cone, cmap)
        where = [(t, i) for t, steps in enumerate(plan) for i in range(len(steps))]
        assert len(where) == 3 ** k - 2 ** k
        for t, i in where:
            def doubled(*args, t=t, i=i):
                forms, own, steps = real(*args)
                steps = [list(s) for s in steps]
                steps[t].append(steps[t][i])
                return forms, own, steps

            monkeypatch.setattr(interp, "_explicit_terms", doubled)
            with pytest.raises(InconsistentExplicitFormulaError, match="pole"):
                mu_explicit(cone, cmap, order=2)
        monkeypatch.setattr(interp, "_explicit_terms", real)
        assert mu_explicit(cone, cmap, order=2).series == mu_basic(cone, cmap, 2).series

    @staticmethod
    def _perturb(monkeypatch, node, entry):
        """Move one integer numerator of the node-th output row of the batch
        by 1, after the pole check; returns the list of batches made."""
        real = interp._chain_sums
        calls = []

        def perturbed(*args):
            rows = real(*args)
            if node < len(rows):
                rows[node][0][entry] += 1
            calls.append(rows)
            return rows

        monkeypatch.setattr(interp, "_chain_sums", perturbed)
        return calls

    @pytest.mark.parametrize("k, node, degree", [
        (2, 0, 0), (2, 0, 3), (2, 3, 2), (2, 4, 3),
        (3, 0, 0), (3, 0, 3), (3, 7, 1), (3, 14, 3),
    ])
    def test_one_perturbed_node_raises(self, monkeypatch, k, node, degree):
        # the pole check cannot see it, only the spare lattice level can
        cone, cmap = BY_K[k]
        calls = self._perturb(monkeypatch, node, k + degree)
        with pytest.raises(InconsistentExplicitFormulaError, match="not a polynomial"):
            mu_explicit(cone, cmap, order=3)
        assert len(calls) == 1 and len(calls[0]) > node

    @pytest.mark.parametrize("node", [0, 1])
    def test_n1_second_point(self, monkeypatch, node):
        # node 1 is the second point y = 2, appended to the one lattice node
        calls = self._perturb(monkeypatch, node, 1 + 2)
        with pytest.raises(InconsistentExplicitFormulaError, match="homogeneous"):
            mu_explicit(Cone([V(-3)]), InnerProductMap(Matrix([[2]])), order=4)
        assert len(calls) == 1 and len(calls[0]) == 2


def _criterion_4_pairs():
    """The (cone, map) pairs of acceptance criterion 4."""
    pairs = []
    for c in make_basic_cone_corpus():
        maps = list(_gram_maps(c.ambient))
        fl = _flag_map(c.ambient)
        if _flag_generic_on(c, fl):
            maps.append(fl)
        pairs.extend((c, m) for m in maps)
    for n in (2, 3):
        pairs.extend((c, diaconis_fulton_map(n)) for c in projective_fan_cones(n))
    return pairs


class TestNodes:
    def test_first_shift_matches_full_scan(self):
        # the chain sum's nodes over the criterion-4 pairs at order 5: the
        # shift and value columns of a scan that evaluates every form at every
        # node of each shift; some pairs reject shift 1, which _nodes leaves early
        rejected = 0
        for c, m in _criterion_4_pairs():
            args = (interp._explicit_terms(c, m)[0], c.ambient - 1, 5 + 1)
            shift, cols = nodes_by_full_scan(*args)
            assert interp._nodes(*args) == (interp._lattice(*args[1:], shift), cols), (c, m)
            rejected += shift > 1
        assert rejected


def _g_at(own, steps, pq):
    """g_T per subset T at one node, in Fractions: g_S = 1 and
    g_T = -sum over T' of g_T' / prod_(c in T' - T) p_c / q_c."""
    g = [None] * (len(own) - 1) + [Fraction(1)]
    for t in reversed(range(len(own) - 1)):
        g[t] = -sum(g[j] / prod(Fraction(*pq[f]) for f in forms) for j, forms in steps[t])
    return g


def _assert_chain_sums_match_oracle(own, steps, cols, qs, k, order):
    """_chain_sums against the per-node oracle, node by node, as Fractions:
    a node's denominator may differ where some g_T is 0 there and not at
    every node, its values may not."""
    rows = interp._chain_sums(own, steps, cols, qs, k, order)
    assert len(rows) == len(cols[0])
    for v, (nums, den) in enumerate(rows):
        want, w = chain_sum_on_line(own, steps, [(col[v], q) for col, q in zip(cols, qs)],
                                    k, order)
        assert den > 0 and len(nums) == len(want) == k + order + 1
        assert [Fraction(x, den) for x in nums] == [Fraction(x, w) for x in want], v


class TestChainSums:
    """The batched chain sum equals the per-node oracle at every node."""

    def test_criterion_4_pairs(self):
        for c, m in _criterion_4_pairs():
            forms, own, steps = interp._explicit_terms(c, m)
            for order in range(6):
                _, cols = interp._nodes(forms, c.ambient - 1, order + 1)
                _assert_chain_sums_match_oracle(own, steps, cols, [q for _, q in forms],
                                                len(c.generators), order)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(unimodular_cases(), st.integers(0, 4))
    def test_unimodular_cases(self, case, order):
        cone, cmap = case
        forms, own, steps = interp._explicit_terms(cone, cmap)
        _, cols = interp._nodes(forms, cone.ambient - 1, order + 1)
        _assert_chain_sums_match_oracle(own, steps, cols, [q for _, q in forms],
                                        len(cone.generators), order)

    def test_g_vanishing_at_some_nodes(self):
        # on a cone g_T is a constant over a product of pivot forms, so it
        # vanishes at no node; values chosen by hand make g_empty
        # = 1/(p_S1 p_0) + 1/(p_S0 p_1) - 1/(p_S0 p_S1) vanish at node 0 only
        _, own, steps = interp._explicit_terms(SLANT, IP2)
        cols, qs = [(2, 1, 3), (2, 1, -5), (1, 1, 2), (3, 1, 7)], [1, 1, 1, 3]
        g = [_g_at(own, steps, [(col[v], q) for col, q in zip(cols, qs)]) for v in range(3)]
        assert g[0][0] == 0 and g[1][0] and g[2][0]
        for order in range(4):
            _assert_chain_sums_match_oracle(own, steps, cols, qs, 2, order)


class TestExplicitRoutes:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(unimodular_cases(), st.integers(0, 4))
    def test_explicit_equals_reduction(self, case, order):
        cone, cmap = case
        assert mu_explicit(cone, cmap, order).series == mu_basic(cone, cmap, order).series

    def test_matches_combined_oracle(self):
        # the oracle combines the chain sum over one common denominator and
        # divides it out
        pairs = _criterion_4_pairs()
        assert len(pairs) >= 60
        for c, m in pairs:
            assert mu_explicit(c, m, 4).series == mu_explicit_combined(c, m, 4).series, (c, m)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(partial_map_cases().map(lambda case: case[:2]))
    @example((Cone([V(1, 0, 0), V(0, 1, 0)]), FlagMap([V(1, 0, 0), V(0, 0, 1), V(0, 1, 0)])))
    def test_raises_psis_first_error_in_size_order(self, case):
        # flag maps and ray tables that lack rays.  At orders >= 1 both routes
        # read psi on every subset, so they give the same series or raise the
        # same error.  At order 0 the explicit route still reads the full
        # subset: psi's own error on the first failing subset by size, then
        # by subset, else the reduction's series.  In the example {1} and
        # {0, 1} fail, and {1} comes first
        cone, cmap = case
        for order in (1, 2, 3):
            assert (_outcome(lambda: mu_explicit(cone, cmap, order).series)
                    == _outcome(lambda: mu_basic(cone, cmap, order).series)), order
        failures = psi_failures([cone], cmap, 1)
        got = _outcome(lambda: mu_explicit(cone, cmap, 0).series)
        if failures:
            assert got == failures[0], (got, failures)
        else:
            assert got == mu_basic(cone, cmap, 0).series


class TestMu:
    def test_cross_validate(self):
        v = mu(SLANT, IP2, order=3, cross_validate=True)
        assert v.provenance == "reduction"
        assert v.mu0 == Fraction(3, 8)

    def test_cross_validate_needs_the_full_subsets_psi_at_order_0(self):
        # at order 0 the reduction never reads the full subset's psi, but the
        # explicit route needs its pivots, so the cross-check is refused
        cone = Cone([V(1, 0, 0), V(0, 1, 0)])
        cmap = FlagMap([V(-1, -1, -1), V(-1, -1, 0), V(-1, 0, -1)])
        assert mu_basic(cone, cmap, 0).mu0 == Fraction(1, 12)
        assert mu(cone, cmap, 0).mu0 == Fraction(1, 12)
        with pytest.raises(NotGenericError, match="does not pair invertibly with the rays"):
            mu(cone, cmap, 0, cross_validate=True)

    def test_additivity_split(self):
        # additive over the top cells of a subdivision, no boundary correction
        whole = mu(Cone([V(1, 0), V(0, 1)]), IP2, order=4).series
        left = mu(Cone([V(1, 0), V(1, 1)]), IP2, order=4).series
        right = mu(Cone([V(1, 1), V(0, 1)]), IP2, order=4).series
        assert left + right == whole

    def test_non_basic_subdivides(self):
        v = mu(Cone([V(1, 0), V(1, 2)]), IP2, order=3)
        assert v.provenance == "subdivision-sum"
        child1 = mu(Cone([V(1, 0), V(1, 1)]), IP2, order=3).series
        child2 = mu(Cone([V(1, 1), V(1, 2)]), IP2, order=3).series
        assert v.series == child1 + child2
        assert mu_basic(Cone([V(1, 0), V(1, 2)]), IP2, 3).provenance == "subdivision-sum"

    def test_non_basic_cone_builds_one_reducer(self, monkeypatch):
        # all basic cells in one reduction; the cross-check adds one per cell
        built = []

        class Counting(SquarefreeReducer):
            def __init__(self, cells, *args):
                built.append(len(cells))
                super().__init__(cells, *args)

        monkeypatch.setattr(interp, "SquarefreeReducer", Counting)
        cone = TestBatchedCells.CONE
        cells = len(cone.basic_cells)
        clear_mu_cache()
        assert mu(cone, IP3, 3).provenance == "subdivision-sum"
        assert built == [cells]
        built.clear()
        mu(cone, IP3, 3, cross_validate=True)
        assert built == [1] * cells + [cells]
        clear_mu_cache()

    def test_cross_check_names_the_disagreeing_cell(self, monkeypatch):
        # negative control: an explicit value moved on any one cell of a
        # non-basic cone raises, and the message names that cell
        cone = TestBatchedCells.CONE
        explicit = interp.mu_explicit
        for bad in cone.basic_cells:
            def perturbed(cell, cmap, order, bad=bad):
                val = explicit(cell, cmap, order)
                if cell is bad:
                    val.series = val.series + MultiSeries.constant(Fraction(1, 7), 3, order)
                return val

            monkeypatch.setattr(interp, "mu_explicit", perturbed)
            clear_mu_cache()
            with pytest.raises(InternalInconsistencyError,
                               match=re.escape(f"explicit formula disagree: cone={bad!r} ")):
                mu(cone, IP3, 2, cross_validate=True)
        clear_mu_cache()

    def test_line_cross_check_catches_a_wrong_full_mu(self, monkeypatch):
        # negative control: with the full mu of a non-basic cone moved, the
        # line route's cross-check raises
        cone, line = TestBatchedCells.CONE, V(2, -3, 5)
        assert mu_on_line(cone, IP3, line, 3, cross_validate=True) == (
            restrict_to_direction(mu(cone, IP3, 3).series, line))
        full = interp.mu

        def perturbed(c, cmap, order, cross_validate=False):
            val = full(c, cmap, order, cross_validate)
            return MuValue(c, val.map_key, order,
                           val.series + MultiSeries.constant(Fraction(1, 7), 3, order),
                           val.provenance)

        monkeypatch.setattr(interp, "mu", perturbed)
        with pytest.raises(InternalInconsistencyError, match="line and full reduction disagree"):
            mu_on_line(cone, IP3, line, 3, cross_validate=True)

    def test_df_projective_constants_2d(self):
        # consecutive pairs 1/3; the lone non-consecutive pair in the
        # projective-plane fan does not exist, so go to 3-space
        m3 = diaconis_fulton_map(3)
        rays = projective_fan_rays(3)
        nonconsec = mu(Cone([rays[1], rays[3]]), m3, order=0)
        assert nonconsec.mu0 == Fraction(1, 4)
        consec = mu(Cone([rays[1], rays[2]]), m3, order=0)
        assert consec.mu0 == Fraction(1, 3)
        m2 = diaconis_fulton_map(2)
        for c in projective_fan_cones(2):
            if len(c.generators) == 1:
                assert mu(c, m2, order=0).mu0 == Fraction(1, 2)


class TestZeroCones:
    """mu of the zero cone is 1, the empty Todd product, in every R^n, by
    every route and with or without the cross-check."""

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("cross_validate", [False, True])
    def test_mu_and_mu_on_line(self, n, cross_validate):
        z, cmap = zero_cone(n), standard_inner_product(n)
        line = Vector([Fraction(3 - 2 * i, i + 1) for i in range(n)])
        for order in (0, 1, 3):
            v = mu(z, cmap, order, cross_validate)
            assert v.series == MultiSeries.constant(1, n, order)
            assert v.mu0 == 1 and v.provenance == "reduction" and v.cone == z
            got = mu_on_line(z, cmap, line, order, cross_validate)
            assert got == LaurentSeries.from_taylor([1], order)


class TestMuTable:
    def test_triangle(self):
        t = Polytope([V(0, 0), V(1, 0), V(0, 1)])
        table = mu_table(t, IP2, order=2)
        got = {tuple(sorted(f.indices)): v.mu0 for f, v in table.entries}
        assert got[(0,)] == Fraction(1, 4)
        assert got[(1,)] == Fraction(3, 8)
        assert got[(2,)] == Fraction(3, 8)
        for edge in [(0, 1), (0, 2), (1, 2)]:
            assert got[edge] == Fraction(1, 2)
        assert got[(0, 1, 2)] == 1

    def test_point(self):
        p = Polytope([V(3, 4)])
        table = mu_table(p, IP2, order=1)
        assert len(table.entries) == 1
        assert table.entries[0][1].mu0 == 1

    def test_unit_square(self):
        sq = Polytope([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
        table = mu_table(sq, IP2, order=0)
        for f, v in table.entries:
            if f.dim == 0:
                assert v.mu0 == Fraction(1, 4)
            elif f.dim == 1:
                assert v.mu0 == Fraction(1, 2)
            else:
                assert v.mu0 == 1

    def test_json_shape(self):
        t = Polytope([V(0, 0), V(1, 0), V(0, 1)])
        data = mu_table(t, IP2, order=1).to_json()
        assert len(data) == 7
        assert data[0]["mu0"] in ("1/4", "3/8")
        assert set(data[0]) == {"face_vertex_indices", "normal_cone_generators",
                                "mu_series", "mu0", "provenance"}


class TestMuCache:
    def test_output_independent_of_call_history(self):
        # the cache key ignores generator order; the value must not carry
        # the generator order of whichever cone filled it
        tri = Polytope([V(0, 0), V(2, 0), V(0, 2)])
        clear_mu_cache()
        fresh = mu_table(tri, IP2, order=2).to_json()
        clear_mu_cache()
        mu(Cone([V(1, 0), V(0, 1)]), IP2, order=2)
        assert mu_table(tri, IP2, order=2).to_json() == fresh
        assert fresh[0]["normal_cone_generators"] == [["0", "1"], ["1", "0"]]


class TestRayTableConsistency:
    def test_ip_as_ray_table(self):
        # a ray table built from the inner-product images must reproduce mu
        cones = [Cone([V(1, 0), V(1, 1)]), SLANT]
        for c in cones:
            table = [(w, matvec(IP2.gram, w)) for w in c.generators]
            rt = RayTableMap(table)
            assert mu(c, rt, order=4).series == mu(c, IP2, order=4).series


def test_public_names_resolve():
    for name in mucone.__all__:
        assert hasattr(mucone, name), name
