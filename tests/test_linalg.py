import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mucone.errors import (
    DependentGeneratorsError,
    ParseError,
    ZeroVectorError,
)
from mucone.linalg import (
    Matrix,
    Vector,
    cleared,
    cone_index,
    dot,
    dual_rows,
    eliminate,
    format_rational,
    kernel,
    lower_form,
    parse_rational,
    primitive,
    solve_linear,
)
from oracles import (
    NotUnimodularError,
    cofactor_det,
    dual_basis,
    dual_rows_by_minors,
    express_in_basis,
    from_columns,
    hermite_normal_form,
    integer_kernel,
    inverse,
    matmul,
    minor_gcd,
    rref,
    saturation_basis,
    saturation_index,
)


def V(*xs):
    return Vector(xs)


def test_parse_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational(7) == Fraction(7)
    assert format_rational(Fraction(6, -4)) == "-3/2"
    assert format_rational(Fraction(5)) == "5"
    with pytest.raises(ParseError):
        parse_rational("x")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_vector_arithmetic():
    a, b = V(1, 2), V(3, -1)
    assert a + b == V(4, 1)
    assert a - b == V(-2, 3)
    assert 2 * a == V(2, 4)
    assert a.dot(b) == 1
    assert (-a).entries == (-1, -2)
    assert not a.is_zero and V(0, 0).is_zero
    assert V(Fraction(1, 2), 1).is_integral is False


def test_solve_linear_unique():
    # hand back-substitution: second row forces x2 = 1, first then x1 = 0
    a = Matrix([[1, 1], [0, 2]])
    assert solve_linear(a, V(1, 2)) == V(0, 1)


def test_solve_linear_no_solution():
    a = Matrix([[1, 1], [1, 1]])
    assert solve_linear(a, V(0, 1)) is None
    # but consistent rhs works
    assert solve_linear(a, V(2, 2)) is not None


def test_hnf_identity():
    h, u = map(Matrix, hermite_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert h == Matrix.identity(3)
    assert u == Matrix.identity(3)


def test_hnf_example():
    a = Matrix([[1, 1], [0, 2]])
    h, u = map(Matrix, hermite_normal_form([[1, 1], [0, 2]]))
    assert h == Matrix([[1, 0], [0, 2]])
    assert matmul(a, u) == h
    assert abs(cofactor_det(u.rows)) == 1


def _random_int_rows(rng, nr, nc, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_hnf_properties_random():
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = _random_int_rows(rng, nr, nc)
        a = Matrix(rows)
        h, u = map(Matrix, hermite_normal_form(rows))
        assert matmul(a, u) == h
        assert abs(cofactor_det(u.rows)) == 1
        # column echelon: pivots positive, entries to their left reduced
        pc = 0
        for i in range(nr):
            if pc < nc and h.rows[i][pc] != 0:
                piv = h.rows[i][pc]
                assert piv > 0
                for j in range(pc):
                    assert 0 <= h.rows[i][j] < piv
                for j in range(pc + 1, nc):
                    assert h.rows[i][j] == 0
                pc += 1


def test_integer_kernel():
    ker = integer_kernel([[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert V(1, 2, 3).dot(v) == 0
        assert all(type(x) is int for x in v)
    # kernel lattice is saturated: (3, 0, -1) must be an integer combination
    target = V(3, 0, -1)
    c = express_in_basis(ker, target)
    assert c is not None and c.is_integral


def test_saturation_basis():
    sat = saturation_basis([(2, 0), (0, 3)])
    assert len(sat) == 2
    sat = saturation_basis([(2, 2, 0)])
    assert len(sat) == 1
    # (1,1,0) generates the saturation of span{(2,2,0)}
    assert sat[0] in ((1, 1, 0), (-1, -1, 0))


def test_cone_index():
    assert cone_index([(1, 0), (1, 2)]) == 2
    assert cone_index([(1, 0), (0, 1)]) == 1
    # 1D: saturated lattice of the span is generated by (1,0)
    assert cone_index([(2, 0)]) == 2
    assert cone_index([]) == 1
    with pytest.raises(DependentGeneratorsError):
        cone_index([(1, 1), (2, 2)])


def test_cone_index_matches_hnf_diagonal():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        while True:
            gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
            if Matrix([list(g) for g in gens]).rank() == m:
                break
        sat = saturation_basis(gens)
        cols = [[int(x) for x in express_in_basis(sat, g)] for g in gens]
        h, _ = hermite_normal_form(list(zip(*cols)))
        prod = 1
        for i in range(m):
            prod *= h[i][i]
        assert cone_index(gens) == abs(prod)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_cone_index_is_minor_gcd(data):
    """The product of lower_form's diagonal is the gcd of the k x k minors,
    and the index found through a saturation basis (two integer kernels)."""
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    gens = [tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
            for _ in range(k)]
    assume(Matrix([list(g) for g in gens]).rank() == k)
    assert cone_index(gens) == minor_gcd(gens)
    assert cone_index(gens) == saturation_index(gens)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_lower_form_is_saturated_coordinates(data):
    """L is lower triangular with a positive diagonal, and its rows are the
    generators' coordinates in a basis of the saturated lattice: the
    first k rows of U^-1, which span the generators over Q."""
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    gens = [tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
            for _ in range(k)]
    assume(Matrix([list(g) for g in gens]).rank() == k)
    low = lower_form(gens)
    assert all(low[i][i] > 0 and not any(low[i][i + 1:]) for i in range(k))
    _, u = hermite_normal_form(gens)
    basis = inverse(Matrix(u)).rows[:k]
    assert [tuple(sum(c * b[j] for c, b in zip(row, basis)) for j in range(n))
            for row in low] == gens


@pytest.mark.parametrize("gens", [
    [(1, 1), (2, 2)],
    [(1, 0), (0, 1), (1, 1)],
    [(0, 0)],
    [(1, 0, 0), (0, 0, 0)],
    [()],
    [(1, Fraction(1, 2))],
    [(1, 0), (0, 1.0)],
], ids=["dependent", "k-above-n", "zero-row", "zero-second-row", "empty-row",
        "fraction-entry", "float-entry"])
def test_cone_index_errors_match_minor_gcd(gens):
    with pytest.raises(Exception) as got:
        cone_index(gens)
    with pytest.raises(Exception) as want:
        minor_gcd(gens)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_cone_index_lower_dimensional():
    # two rays spanning a plane of R^3; the saturation of the span is
    # generated by (1, 0, 0), (0, 1, 0) and by (1, 0, 1), (0, 1, 0)
    assert cone_index([(1, 1, 0), (1, -1, 0)]) == 2
    assert cone_index([(1, 0, 1), (1, 3, 1)]) == 3
    assert cone_index([(1, 0, 1), (0, 1, 0)]) == 1
    with pytest.raises(DependentGeneratorsError):
        cone_index([(1, 2, 3), (2, 4, 6)])
    with pytest.raises(DependentGeneratorsError):
        cone_index([(1, 0), (0, 1), (1, 1)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_lower_form_is_the_oracle_hermite_form(data):
    """lower_form runs the oracle's column operations on G alone: L is the
    first k columns of H, and G is rejected exactly when H lacks a pivot in
    one of its k rows (dependent rows, k > n included)."""
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n + 1))
    gens = [tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
            for _ in range(k)]
    h, _ = hermite_normal_form(gens)
    if k > n or not all(row[i] for i, row in enumerate(h)):
        with pytest.raises(DependentGeneratorsError):
            lower_form(gens)
    else:
        assert lower_form(gens) == [row[:k] for row in h]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_dual_rows_inverts_square_matrices(data):
    """For a square A, h_j is column j of d A^-1 with d = |det A| > 0; a
    singular A raises DependentGeneratorsError, and n = 0 gives no rows."""
    # small entries make singular matrices and zero leading pivots common
    n = data.draw(st.integers(0, 5))
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    det = cofactor_det(rows)
    if det == 0:
        with pytest.raises(DependentGeneratorsError):
            dual_rows(rows)
        return
    got = dual_rows(rows)
    if not n:
        assert got == []
        return
    d = dot(got[0], rows[0])
    assert d == abs(det)
    assert from_columns([[Fraction(x, d) for x in h] for h in got]) == inverse(Matrix(rows))


_ENTRIES = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_eliminate_matches_fraction_rref(data):
    """eliminate() on the cleared rows against the Fraction Gauss-Jordan
    oracle, on rectangular and rank-deficient matrices; rank, kernel and
    solve read the same elimination and must agree with the oracle's."""
    nc = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(_ENTRIES, min_size=nc, max_size=nc), max_size=4))
    if len(rows) >= 2 and data.draw(st.booleans()):
        # a row that depends on two others
        i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2))
        a, b = data.draw(_ENTRIES), data.draw(_ENTRIES)
        rows[data.draw(st.integers(0, len(rows) - 1))] = [
            a * x + b * y for x, y in zip(rows[i], rows[j])]
    a = Matrix(rows)
    want, pivots = rref(a)
    ints = [cleared(row)[0] for row in a.rows]
    red, d, got_pivots = eliminate(ints)
    assert got_pivots == pivots
    assert all(isinstance(x, int) for row in red for x in row)
    assert all(red[r][c] == d for r, c in enumerate(pivots))
    assert Matrix([[Fraction(x, d) for x in row] for row in red]) == want
    assert a.rank() == len(pivots)

    want_kernel = []
    for f in (j for j in range(a.ncols) if j not in pivots):
        x = [int(j == f) for j in range(a.ncols)]
        for r, c in enumerate(pivots):
            x[c] = -want.rows[r][f]
        want_kernel.append(Vector(x))
    # the integer kernel vectors are d times the rational ones
    assert [Vector(x) for x in kernel(ints, a.ncols)] == [d * v for v in want_kernel]

    b = Vector(data.draw(st.lists(_ENTRIES, min_size=a.nrows, max_size=a.nrows)))
    aug, aug_pivots = rref(Matrix([list(row) + [x] for row, x in zip(a.rows, b)]))
    x = solve_linear(a, b)
    if a.ncols in aug_pivots:
        assert x is None
    else:
        assert x == Vector(aug.rows[aug_pivots.index(j)][-1] if j in aug_pivots else 0
                           for j in range(a.ncols))


def _outcome(f, gens):
    try:
        return f(gens)
    except (DependentGeneratorsError, ValueError) as exc:
        return type(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_dual_rows_matches_minor_scan(data):
    """One elimination of [G | I] gives the rows (or the error) that the
    scan of k x k minors in lexicographic order gives."""
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n + 1))
    gens = [tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
            for _ in range(k)]
    if data.draw(st.integers(0, 9)) == 0:
        gens[0] = tuple(Fraction(x, 2) for x in gens[0])
    got = _outcome(dual_rows, gens)
    assert got == _outcome(dual_rows_by_minors, gens)
    if isinstance(got, list):
        d = Vector(got[0]).dot(gens[0])
        assert d > 0
        assert [[Vector(h).dot(g) for g in gens] for h in got] == [
            [d if i == j else 0 for j in range(k)] for i in range(k)]


def test_dot():
    assert dot((1, -2, 3), (4, 5, 6)) == 12
    assert dot((), ()) == 0
    assert dot([Fraction(1, 2), 1], (3, Fraction(1, 3))) == Fraction(11, 6)
    for a, b in [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))]:
        with pytest.raises(ValueError):
            dot(a, b)


def test_primitive():
    assert primitive(V(4, -2)) == (2, -1)
    assert primitive((4, -2)) == (2, -1)
    assert primitive(V(Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive(V(0, -5, 0)) == (0, -1, 0)
    assert all(type(x) is int for x in primitive(V(6, 4)))
    with pytest.raises(ZeroVectorError):
        primitive(V(0, 0))
    with pytest.raises(ZeroVectorError):
        primitive((0, 0))


def test_floats_rejected():
    """A float's binary value is not the decimal it was written as, so
    exact entries refuse it instead of silently converting 0.1."""
    with pytest.raises(TypeError):
        Vector([0.1])
    with pytest.raises(TypeError):
        Vector([1, 2.0])
    with pytest.raises(TypeError):
        Matrix([[1, 0], [0, 0.5]])
    with pytest.raises(TypeError):
        2.0 * V(1, 2)
    with pytest.raises(TypeError):
        primitive([0.5, 1])


def test_dual_basis():
    dual = dual_basis([V(1, 0), V(1, 1)])
    assert dual == [V(1, -1), V(0, 1)]
    with pytest.raises(NotUnimodularError):
        dual_basis([V(1, 0), V(0, 2)])


def test_dual_basis_involution():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        # random unimodular matrix from elementary operations
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    m[i][k] += c * m[j][k]
        basis = [Vector(row) for row in m]
        dual = dual_basis(basis)
        for i, w in enumerate(basis):
            for j, v in enumerate(dual):
                assert w.dot(v) == (1 if i == j else 0)
        # dual of the dual recovers the original basis
        assert dual_basis(dual) == list(basis)


def test_matrix_basics():
    a = Matrix([[1, 2], [3, 4]])
    assert cofactor_det(a.rows) == -2
    assert matmul(inverse(a), a) == Matrix.identity(2)
    assert a.rank() == 2
    assert Matrix([[1, 2], [2, 4]]).rank() == 1
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 2], [2, 4]]))
