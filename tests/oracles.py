"""Reference oracles and helpers that only the tests use.

The ideal generators D_S (l_v - v), the evaluation map that substitutes
each D variable by its dual linear form (the ideal's kernel must vanish
under it, and a Todd element must keep its value through reduction), the
Todd element as constants, the squarefree normal form in the full ring
of MultiSeries coefficients (FullRingReducer, the reference the library's
integer reduction on lines is checked against at the nodes of an
interpolation lattice, and which normal_form extends to a whole D-expansion
by linearity), psi's error on each failing generator subset, the
strictly increasing subset chains and their pivot keys (the library sums
the chains by a recursion over subsets and never lists them), the
alternating chain sum for one subset pair, and the whole chain-sum mu as
multivariate rational functions over one common denominator.  A
D-expansion is a plain dict from exponent tuples to coefficients
(Fractions or MultiSeries).  Also here: the library reducer's form of
one monomial, the integer kernel and the saturation basis (two integer
kernels), the star step and the lattice index by linear solves in a
saturation basis, the lattice index as the gcd of the k x k minors, the
half-open parallelepiped's lattice points in a saturation basis, the
complement map's pivot vectors by way of a span basis, one pivot as a
Vector by ComplementMap.solve_u and the chain terms' pivot keys read as
such Vectors, the line-restricted mu cell by cell, the reduced row
echelon form by Gauss-Jordan over fractions, the determinant by cofactor
expansion, the column Hermite form H = A U with its unimodular U, dual
rows by a scan of minors, a rational span and kernel basis, coordinates
in a basis by a linear solve, the exponential sum over lattice points
term by term, cone membership, pointedness by a scan of minimal
dependent ray subsets, the inverse of a Laurent series and a half-open
Brion cell's series built on it, a polytope's face by its vertex indices,
a matrix from its columns, rows and columns as Vectors, the chain-sum
interpolation nodes by a full scan of every shift tried, psi's pivot
vectors by the dual rows of the cleared pairing (the route the library's
one elimination of [P^T | B] replaced), the lattice-point sum and the
face integral series in Fractions (the routes the library's integer
numerators replaced), the identity's right side as a sum of LaurentSeries
products (the route verify_interpolator's one integer sum replaced), and
small linear-algebra and genericity checks the library never calls.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import factorial, gcd, lcm, prod
from types import MappingProxyType

from mucone.complement import RayTableMap
from mucone.errors import (
    DependentGeneratorsError,
    InconsistentExplicitFormulaError,
    InternalInconsistencyError,
    MuconeError,
    NotFullDimError,
    NotGenericError,
    UnknownRayError,
)
from mucone.geometry import (
    Cone,
    Face,
    Polytope,
    _half_open_parallelepiped_points,
    _pulling_triangulation,
    lattice_simplices,
    subdivide_to_basic,
)
from mucone.interp import (
    DEFAULT_ORDER,
    MuValue,
    SquarefreeReducer,
    _lattice,
    _todd_over_integers,
    mu_on_line,
)
from mucone.linalg import (
    Matrix,
    Vector,
    _require_ints,
    cleared,
    dot,
    dual_rows,
    eliminate_cleared,
    kernel,
    primitive,
    rank,
    solve_linear,
)
from mucone.series import (
    LaurentSeries,
    MultiSeries,
    RationalFunctionTerm,
    combine_over_common_denominator,
    compose_linear,
    denominator_union,
    divide_by_linear_form,
    restrict_to_direction,
    todd_univariate,
)


class VectorNotInSubspaceError(MuconeError):
    """Vector expected to lie in the complement subspace of a face."""


class NotUnimodularError(MuconeError):
    """A lattice basis was required (determinant +-1)."""


def whole_face(p: Polytope) -> Face:
    """The polytope as its own face: the last of its faces."""
    return p.faces[-1]


def face_for(p: Polytope, indices) -> Face:
    """The face of p with the given vertex indices."""
    key = frozenset(indices)
    for f in p.faces:
        if f.indices == key:
            return f
    raise KeyError(f"no face with vertex indices {sorted(key)}")


def exp_sum_series(points, y: Vector, q: int) -> LaurentSeries:
    """Taylor series in t of the sum of e^(-<y,x> t) over the points x, one
    running term c^r / r! per point, each from the one before."""
    coeffs = [Fraction(0)] * (q + 1)
    for x in points:
        c = -y.dot(x)
        term = Fraction(1)
        coeffs[0] += 1
        for r in range(1, q + 1):
            term = term * c / r
            coeffs[r] += term
    return LaurentSeries.from_taylor(coeffs, q)


def cone_contains(rays, x) -> bool:
    """Exact membership of x in the pointed cone spanned by the rays."""
    return Cone(rays, ambient=len(x)).contains(x)


def is_pointed_by_scan(rays) -> bool:
    """Whether the nonzero rays span a pointed cone, by a scan of subsets.

    Pointed iff no nontrivial nonnegative dependency among the rays
    (primitivized and deduplicated, as Cone keeps them); it suffices to
    scan minimal dependent subsets (1-dim kernels), and independent rays
    have no dependency at all.
    """
    rays = list(dict.fromkeys(map(primitive, rays)))
    r = rank(rays)
    if r == len(rays):
        return True
    for size in range(2, r + 2):
        for subset in combinations(rays, size):
            ker = kernel(list(zip(*subset)), size)
            if len(ker) != 1:
                continue
            k = ker[0]
            if all(c >= 0 for c in k) or all(c <= 0 for c in k):
                return False
    return True


def from_columns(cols) -> Matrix:
    """The matrix with the given columns."""
    cols = [tuple(c) for c in cols]
    return Matrix(zip(*cols)) if cols else Matrix([])


def row(a: Matrix, i: int) -> Vector:
    return Vector(a.rows[i])


def column(a: Matrix, j: int) -> Vector:
    return Vector(r[j] for r in a.rows)


def dual_basis(basis) -> list[Vector]:
    """For a lattice basis w_1..w_n, the dual basis v_1..v_n with <w_i, v_j> = delta_ij."""
    mat = Matrix([list(w) for w in basis])
    if mat.nrows != mat.ncols:
        raise NotUnimodularError("dual basis needs n vectors in dimension n")
    d = cofactor_det(mat.rows)
    if abs(d) != 1:
        raise NotUnimodularError(f"not a lattice basis (determinant {d})")
    inv = inverse(mat)
    return [column(inv, j) for j in range(mat.ncols)]


def cofactor_det(rows):
    """Determinant of a small square matrix given by its rows, by cofactor
    expansion along the first row: exact, and an int for integer entries."""
    rows = [tuple(r) for r in rows]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if not rows:
        return 1
    return sum((-1) ** j * a * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns, by
    Gauss-Jordan elimination over fractions."""
    m = [list(r) for r in a.rows]
    nr, nc = len(m), (len(m[0]) if m else 0)
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(m), pivots


def inverse(a: Matrix) -> Matrix:
    n = a.nrows
    if n != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    aug = Matrix([list(a.rows[i]) + [1 if j == i else 0 for j in range(n)]
                  for i in range(n)])
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix([row[n:] for row in red.rows])


def dual_rows_by_minors(generators) -> list[tuple[int, ...]]:
    """linalg.dual_rows by a scan of the k x k minors of the generator
    matrix in lexicographic order of coordinates: d times the inverse of
    the first nonsingular one (d its |det|), padded by zeros."""
    gens = list(generators)
    if any(type(e) is not int for g in gens for e in g):
        raise ValueError("integer generators required")
    k, n = len(gens), len(gens[0])
    for coords in combinations(range(n), k):
        sub = Matrix([[g[c] for g in gens] for c in coords])
        det = cofactor_det(sub.rows)
        if det:
            break
    else:
        raise DependentGeneratorsError("generators are linearly dependent")
    inv, at = inverse(sub), {c: j for j, c in enumerate(coords)}
    return [tuple(int(abs(det) * row[at[c]]) if c in at else 0 for c in range(n))
            for row in inv.rows]


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite normal form of an integer matrix A (its rows):
    H = A * U with U unimodular, both as lists of int rows.

    H is in column echelon form with positive pivots; in each pivot row the
    entries left of the pivot are reduced into [0, pivot). Zero columns of H
    (if A is rank-deficient) come last, and the matching columns of U are a
    basis of the integer kernel of A.  linalg.lower_form runs the same
    column operations on the rows of A alone.
    """
    _require_ints(rows)
    nr, nc = len(rows), (len(rows[0]) if rows else 0)
    h = [list(row) for row in rows]
    u = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    both = h + u  # a column operation acts on the rows of H and of U alike
    pc = 0
    for i in range(nr):
        if pc >= nc:
            break
        hi = h[i]
        j0 = pc
        while j0 < nc and not hi[j0]:
            j0 += 1
        if j0 == nc:
            continue
        if j0 != pc:
            for r in both:
                r[pc], r[j0] = r[j0], r[pc]
        for j in range(pc + 1, nc):
            bb = hi[j]
            if not bb:
                continue
            aa = hi[pc]
            g, x, y = extended_gcd(aa, bb)
            # unimodular 2-column mix sending (aa, bb) -> (g, 0)
            p, q = aa // g, bb // g
            for r in both:
                a, b = r[pc], r[j]
                r[pc], r[j] = x * a + y * b, p * b - q * a
        if hi[pc] < 0:
            for r in both:
                r[pc] = -r[pc]
        piv = hi[pc]
        for j in range(pc):
            c = hi[j] // piv
            if c:
                for r in both:
                    r[j] -= c * r[pc]
        pc += 1
    return h, u


def integer_kernel(rows) -> list[tuple[int, ...]]:
    """Basis of the lattice {x integer : A x = 0}, A given by its integer
    rows (at least one): the columns of U over the zero columns of the
    Hermite form A U = H.  Always saturated."""
    h, u = hermite_normal_form(rows)
    return [tuple(r[j] for r in u) for j in range(len(rows[0]))
            if all(hr[j] == 0 for hr in h)]


def saturation_basis(vectors) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice Z^n  intersect  span_Q(vectors), for
    integral vectors, by two integer kernels: the kernel of the kernel.
    Any integer point of the span has integer coordinates in it."""
    if not vectors:
        return []
    orth = integer_kernel(vectors)
    if not orth:  # full rank
        n = len(vectors[0])
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return integer_kernel(orth)


def minor_gcd(generators) -> int:
    """cone_index by the Smith normal form: the gcd of the k x k minors of
    the generator matrix (|det| if k = n)."""
    gens = list(generators)
    if not gens:
        return 1
    if any(type(e) is not int for g in gens for e in g):
        raise ValueError("integer entries required")
    g = 0
    for sub in combinations(zip(*gens), len(gens)):
        g = gcd(g, cofactor_det(sub))
    if g == 0:
        raise DependentGeneratorsError("generators are linearly dependent")
    return g


def saturation_index(generators) -> int:
    """Index of the lattice of independent integer generators in the
    saturated lattice of their span: |det| of their coordinates in a
    saturation basis, that basis found by two integer kernels (HNF)."""
    gens = list(generators)
    if not gens:
        return 1
    if Matrix([list(g) for g in gens]).rank() != len(gens):
        raise DependentGeneratorsError("generators are linearly dependent")
    sat = saturation_basis(gens)
    cols = []
    for g in gens:
        c = express_in_basis(sat, g)
        assert c is not None and c.is_integral
        cols.append([int(x) for x in c])
    h, _ = hermite_normal_form(list(zip(*cols)))
    d = 1
    for i in range(len(gens)):
        d *= h[i][i]
    assert d == abs(cofactor_det(zip(*cols)))
    return d


def star_subdivision_cells(cone: Cone) -> list[list[tuple[int, ...]]]:
    """The ray lists of subdivide_to_basic's cells, by the star step that
    solves one linear system per cell and round for the new ray's
    coordinates, with indices from saturation_index."""
    if cone.is_zero or cone.is_basic:
        return [list(cone.generators)]
    rays = sorted(cone.extreme_rays())
    cells = [[rays[i] for i in cell] for cell in _pulling_triangulation(rays)]

    indices: dict[tuple, int] = {}

    def cell_det(cell: list[tuple[int, ...]]) -> int:
        key = tuple(cell)
        if key not in indices:
            indices[key] = saturation_index(cell)
        return indices[key]

    rounds = 0
    while True:
        rounds += 1
        if rounds > 10_000:
            raise InternalInconsistencyError("stellar subdivision did not terminate")
        victim = None
        for cell in cells:
            if cell_det(cell) != 1:
                victim = cell
                break
        if victim is None:
            break
        points = _half_open_parallelepiped_points(victim)
        w, _ = min(points, key=lambda pc: (sum(pc[1]), pc[1]))
        new_cells: list[list[tuple[int, ...]]] = []
        for cell in cells:
            coords = solve_linear(from_columns([list(r) for r in cell]), w)
            if coords is None or any(c < 0 for c in coords):
                new_cells.append(cell)
                continue
            # cell contains w: replace each positively-weighted ray by w
            for i, ci in enumerate(coords):
                if ci > 0:
                    child = list(cell)
                    child[i] = w
                    new_cells.append(child)
        cells = new_cells
    return cells


def saturation_route_points(rays) -> list[tuple[tuple[int, ...], Vector]]:
    """The lattice points of {sum c_i r_i : 0 <= c_i < 1} minus the origin,
    as (int point, coefficients) pairs sorted by point, in the lattice of a
    saturation basis of the rays' span (two integer kernels, one solve per
    ray), by brute force: every integer coordinate vector in the
    parallelepiped's bounding box whose coefficients lie in [0, 1)."""
    sat = saturation_basis(list(rays))
    cols = [express_in_basis(sat, r) for r in rays]
    assert all(c is not None and c.is_integral for c in cols)
    inv = inverse(from_columns([list(c) for c in cols]))
    box = [range(int(sum(min(0, c[i]) for c in cols)), int(sum(max(0, c[i]) for c in cols)) + 1)
           for i in range(len(sat))]
    out = []
    for x in product(*box):
        coeffs = matvec(inv, Vector(x))
        if any(x) and all(0 <= c < 1 for c in coeffs):
            out.append((tuple(dot(x, col) for col in zip(*sat)), coeffs))
    return sorted(out, key=lambda pc: pc[0])


def express_in_basis(basis, v) -> Vector | None:
    """Coordinates of v in the given basis (columns), or None if outside the span."""
    return solve_linear(from_columns([list(b) for b in basis]), v)


def rational_kernel(a: Matrix) -> list[Vector]:
    """Basis over Q of {x : A x = 0} with a 1 at each free column."""
    red, d, pivots = eliminate_cleared(a.rows)
    basis = []
    for f in (j for j in range(a.ncols) if j not in pivots):
        x = [Fraction(int(j == f)) for j in range(a.ncols)]
        for row, c in zip(red, pivots):
            x[c] = Fraction(-row[f], d)
        basis.append(Vector(x))
    return basis


def span_basis(vectors) -> list[Vector]:
    """Rational basis of the linear span: the nonzero rows of the RREF."""
    red, d, pivots = eliminate_cleared(vectors)
    return [Vector(Fraction(x, d) for x in row) for row in red[:len(pivots)]]


def matvec(a: Matrix, v: Vector) -> Vector:
    return Vector(Vector(r).dot(v) for r in a.rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = [column(b, j) for j in range(b.ncols)]
    return Matrix([[Vector(r).dot(c) for c in cols] for r in a.rows])


def pole_order(s: LaurentSeries) -> int:
    return max(0, -s.valuation) if s.coeffs else 0


def laurent_inverse(s: LaurentSeries) -> LaurentSeries:
    """Multiplicative inverse; requires a known nonzero leading coefficient."""
    if s.is_zero:
        raise ZeroDivisionError("inverse of a (known-)zero Laurent series")
    nu = s.valuation
    unit = s.coeffs  # unit[0] != 0 after canonicalization
    m = s.known_to - nu  # unit known through degree m
    inv = [1 / unit[0]]
    for r in range(1, m + 1):
        acc = Fraction(0)
        for j in range(1, r + 1):
            uj = unit[j] if j < len(unit) else Fraction(0)
            acc += uj * inv[r - j]
        inv.append(-acc / unit[0])
    return LaurentSeries(-nu, inv, s.known_to - 2 * nu)


def half_open_cell_series_by_inverse(apex, cell: Cone, open_facets, y0: Vector,
                                     q: int) -> LaurentSeries:
    """A half-open basic cell's exponential sum, shifted to the apex: per ray
    b, with c = <y0, b>, the geometric series 1/(1 - e^(-ct)) inverted by
    laurent_inverse, times e^(-ct) when the facet opposite b is open."""
    pad = q + 2 * len(cell.generators) + 2
    total = LaurentSeries.exp_taylor(-y0.dot(apex), pad)
    for i, b in enumerate(cell.generators):
        c = y0.dot(b)
        geom = laurent_inverse(LaurentSeries.from_taylor([1], pad)
                               - LaurentSeries.exp_taylor(-c, pad))
        if i in open_facets:
            geom = geom * LaurentSeries.exp_taylor(-c, pad)
        total = total * geom
    return total


def psi_contains(sub, v: Vector) -> bool:
    """Whether v (a Vector or an int tuple, as PsiSubspace.basis holds) lies
    in the complement subspace `sub` (a PsiSubspace)."""
    return not any(v) or Matrix(list(sub.basis) + [v]).rank() == len(sub.basis)


def span_route_duals(cmap, rays) -> list[Vector]:
    """The pivot vectors of `rays` under `cmap` by a second route: a
    rational basis of the raw basis' span, a check that it has the rays'
    rank and pairs invertibly with them, then the inverse pairing by its
    own elimination of [pairing | I].  Raises NotGenericError when the
    subset is not generic."""
    rays = tuple(rays)
    k = len(rays)
    basis = span_basis(cmap.raw_basis(rays))
    if len(basis) != k:
        raise NotGenericError(f"complement subspace for {list(rays)} has "
                              f"dimension {len(basis)}, expected {k}")
    pairing = Matrix([[b.dot(w) for b in basis] for w in rays])
    if k and pairing.rank() < k:
        raise NotGenericError(f"complement subspace for {list(rays)} meets "
                              "the rays' annihilator nontrivially")
    inv = inverse(pairing) if k else Matrix([])
    return [sum((b * inv.rows[i][j] for i, b in enumerate(basis)),
                Vector([0] * len(rays[0])))
            for j in range(k)]


def psi_by_dual_rows(rays, basis) -> tuple[tuple[tuple[int, ...], ...], int]:
    """psi's (numerators, denominator) by the dual rows of the pairing.

    With rays w_i = W_i / a_i and basis vectors cleared to ints B_j, h_j is
    column j of d P^-1 for the square integer pairing P[i][j] = <W_i, B_j>
    (linalg.dual_rows, d > 0), and u_j = a_j sum_i h_j[i] B_i / d, reduced
    to one positive denominator.  Raises NotGenericError with psi's message
    when P is not square or is singular."""
    def integral(v):
        return (tuple(v), 1) if all(type(x) is int for x in v) else cleared(v)

    scaled = [integral(w) for w in rays]
    cols = [integral(b)[0] for b in basis]
    pairing = [[dot(w, b) for b in cols] for w, _ in scaled]
    try:
        duals = dual_rows(pairing) if len(cols) == len(scaled) else None
    except DependentGeneratorsError:
        duals = None
    if duals is None:
        raise NotGenericError(
            f"complement subspace for {list(map(Vector, rays))} does not pair "
            "invertibly with the rays")
    d = dot(duals[0], pairing[0]) if duals else 1
    nums = [[a * dot(h, coord) for coord in zip(*cols)] for h, (_, a) in zip(duals, scaled)]
    g = gcd(d, *(x for u in nums for x in u))
    return tuple(tuple(x // g for x in u) for u in nums), d // g


def s_series_in_fractions(p: Polytope, y: Vector, q: int) -> LaurentSeries:
    """The lattice-point sum's series along t*y as Fraction power sums of
    -<y,x>, each over r!."""
    values = [-y.dot(x) for x in p.lattice_points()]
    return LaurentSeries.from_taylor(
        [sum((c ** r for c in values), Fraction(0)) / factorial(r) for r in range(q + 1)], q)


def i_face_series_in_fractions(f: Face, y: Vector, q: int) -> LaurentSeries:
    """The face integral's series along t*y, summed in Fractions: per simplex
    of the lattice triangulation, (-1)^r |det| h_r(c_0..c_m) / (m+r)! at
    t^r, with the c_j = <y, v_j> and h_r their complete homogeneous sums."""
    m, coeffs = f.dim, [Fraction(0)] * (q + 1)
    for simplex, det in lattice_simplices(f):
        h = [Fraction(1)] + [Fraction(0)] * q
        for c in (y.dot(f.polytope.vertices[i]) for i in simplex):
            for r in range(1, q + 1):
                h[r] += c * h[r - 1]
        for r in range(q + 1):
            coeffs[r] += (-1) ** r * det * h[r] / factorial(m + r)
    return LaurentSeries.from_taylor(coeffs, q)


def right_side_by_series(p: Polytope, cmap, y: Vector, order: int, table=None,
                         cross_validate: bool = False) -> LaurentSeries:
    """The identity's right side through t^(order - dim) as verify_interpolator
    summed it in Fractions: per face, mu_on_line through t^max(q, 1) (through
    order with cross_validate), or the table's series restricted to the line,
    times the face integral's series, added as LaurentSeries."""
    q = order - p.dim
    if table is None:
        through = order if cross_validate else max(q, 1)
        lines = [(f, mu_on_line(nc, cmap, y, through, cross_validate))
                 for f, nc in p.normal_cones]
    else:
        lines = [(f, restrict_to_direction(v.series, y)) for f, v in table.entries]
    right = LaurentSeries.zero(q)
    for f, line in lines:
        right = right + line * i_face_series_in_fractions(f, y, q)
    return right


def pivot_vector(cone: Cone, cmap, subset, i: int) -> Vector:
    """u with <w_i,u> = 1 and <w_j,u> = 0 for the other j in the subset, as a
    Vector read through ComplementMap.solve_u."""
    idx = sorted(subset)
    return cmap.solve_u(tuple(cone.generators[j] for j in idx), idx.index(i))


def _chains_between(lo: frozenset, hi: frozenset):
    """Strictly increasing subset chains from lo to hi, inclusive ends."""
    if lo == hi:
        yield (lo,)
        return
    rest = sorted(hi - lo)
    for r in range(1, len(rest) + 1):
        for extra in combinations(rest, r):
            for tail in _chains_between(lo | frozenset(extra), hi):
                yield (lo,) + tail


def _chain_terms(S: frozenset, T: frozenset):
    """(sign, pivot keys) for each chain from T to S.

    A key (subset, i) names the pivot of position i inside the subset, so
    the terms are combinatorics of positions and a cone enters only through
    the pivots the keys name.  A chain's keys are T's own |T| pivots plus,
    per step, those of the newly added positions inside the enlarged
    subset: |S| denominator forms per term.
    """
    out = []
    for chain in _chains_between(T, S):
        keys = [(T, t) for t in sorted(T)]
        for lo, hi in zip(chain, chain[1:]):
            keys += [(hi, c) for c in sorted(hi - lo)]
        out.append(((-1) ** (len(chain) - 1), keys))
    return out


def chain_forms(cone: Cone, cmap, S, T) -> list[tuple[int, list[Vector]]]:
    """The chain terms from T to S with each pivot key (subset, i) read as
    its pivot Vector: (sign, denominator forms) per chain."""
    return [(sign, [pivot_vector(cone, cmap, s, i) for s, i in keys])
            for sign, keys in _chain_terms(frozenset(S), frozenset(T))]


def mu_on_line_cell_by_cell(cone: Cone, cmap, line: Vector,
                            order: int = DEFAULT_ORDER) -> LaurentSeries:
    """mu_on_line of each basic cell of the cone on its own, summed in the
    subdivision's order: one reduction per cell, and the error of the first
    cell whose reduction fails."""
    return sum((mu_on_line(cell, cmap, line, order) for cell in subdivide_to_basic(cone).children),
               LaurentSeries.zero(order))


def psi_failures(cells, cmap, order: int) -> list[tuple[type, str]]:
    """(type, message) of psi's error on each generator subset of each basic
    cell where it fails, by calling cmap.psi directly, in the order of cell,
    subset size and subset.  The full subset is left out at order 0, where no
    reduction rewrites it."""
    out = []
    for cell in cells:
        k = len(cell.generators)
        for size in range(1, k + (order > 0)):
            for subset in combinations(cell.generators, size):
                try:
                    cmap.psi(subset)
                except (NotGenericError, UnknownRayError) as exc:
                    out.append((type(exc), str(exc)))
    return out


def is_generic(cmap, cone: Cone) -> bool:
    """Every generator subset of every cell of the canonical basic
    subdivision admits a complement subspace.  For a non-basic cone this is
    conservative: only that one subdivision is examined."""
    cells = [cone] if cone.is_basic else subdivide_to_basic(cone).children
    try:
        for cell in cells:
            for size in range(1, len(cell.generators) + 1):
                for subset in combinations(cell.generators, size):
                    cmap.psi(subset)
    except (NotGenericError, UnknownRayError):
        return False
    return True


@cache
def _td_element(k: int, order: int) -> Mapping[tuple[int, ...], Fraction]:
    cap = k + order
    td = todd_univariate(cap)
    terms = {(0,) * k: Fraction(1)}
    for i in range(k):
        terms = {expo[:i] + (m,) + expo[i + 1:]: c * td[m]
                 for expo, c in terms.items() for m in range(cap - sum(expo) + 1) if td[m]}
    return MappingProxyType(terms)


def td_element(cone: Cone, order: int = DEFAULT_ORDER) -> Mapping[tuple[int, ...], Fraction]:
    """The Todd element prod_i td(D_i) as {exponent: constant}, D-degree <= k + order.
    Built once per (k, order) and shared read-only."""
    return _td_element(len(cone.generators), order)


class FullRingReducer:
    """The squarefree normal form over one basic cone with MultiSeries
    coefficients: D_i D_S = u D_S - sum_{j not in S} <w_j,u> D_j D_S with
    u = pivot_vector(cone, cmap, S, i), i the first position of pivot_order
    whose exponent is >= 2.  An entry of D_S in the form of D^e has degree
    |e| - |S| and is dropped above `order`.  Every expansion stays memoized,
    and its entries come in the order reduce_monomial makes them on the
    library's reducer.  A map that fails on some subset fails at the first rewrite that
    needs one, which may name another subset than psi_failures lists first."""

    def __init__(self, cone: Cone, cmap, order: int = DEFAULT_ORDER, pivot_order=None):
        self.cone, self.cmap, self.order = cone, cmap, order
        self.k = len(cone.generators)
        if not cone.is_basic:
            raise ValueError("reduction is defined over basic cones")
        self.pivot_order = tuple(range(self.k) if pivot_order is None else pivot_order)
        if sorted(self.pivot_order) != list(range(self.k)):
            raise ValueError("pivot_order must permute the generator positions")
        self.memo: dict[tuple[int, ...], dict[frozenset[int], MultiSeries]] = {}

    def reduce_monomial(self, expo) -> dict[frozenset[int], MultiSeries]:
        expo = tuple(expo)
        if expo not in self.memo:
            self.memo[expo] = self._expand(expo)
        return self.memo[expo]

    def _expand(self, expo: tuple[int, ...]) -> dict[frozenset[int], MultiSeries]:
        n, order = self.cone.ambient, self.order
        if all(e <= 1 for e in expo):
            return {frozenset(i for i, e in enumerate(expo) if e): MultiSeries.constant(1, n, order)}
        i = next(j for j in self.pivot_order if expo[j] >= 2)
        inner = expo[:i] + (expo[i] - 1,) + expo[i + 1:]
        zero = MultiSeries.zero(n, order)
        out: dict[frozenset[int], MultiSeries] = {}
        for s, c in self.reduce_monomial(inner).items():
            u = pivot_vector(self.cone, self.cmap, s, i)
            if len(s) >= sum(expo) - order:
                out[s] = out.get(s, zero) + c * MultiSeries.from_linear(u, order)
            for j in range(self.k):
                a = 0 if j in s else u.dot(self.cone.generators[j])
                if a:
                    out[s | {j}] = out.get(s | {j}, zero) - a * c
        return out

    def reduce(self) -> MultiSeries:
        """mu: the full-subset coefficient of the Todd element's normal form."""
        full = frozenset(range(self.k))
        total = MultiSeries.zero(self.cone.ambient, self.order)
        for expo, a in td_element(self.cone, self.order).items():
            c = self.reduce_monomial(expo).get(full)
            if c is not None:
                total = total + a * c
        return total


def lattice_lines(n: int, order: int) -> list[tuple[int, ...]]:
    """mu_basic's lines in R^n: y = (1, x) at the nodes x of the principal
    lattice on which homogeneous polynomials of degree <= order are
    determined by their values."""
    return [(1,) + x for x in _lattice(n - 1, order, 1).coords]


def nodes_by_full_scan(forms, m: int, levels: int) -> tuple[int, list]:
    """The least shift = 1, 2, ... such that no form (numerators, q)
    vanishes at any point y = (1, x) of _lattice(m, levels, shift), and per
    form the tuple of its values p (p/q its value) at the points: every form
    is evaluated at every node of each shift tried, then the shift is judged."""
    shift = 1
    while True:
        cols = [tuple(sum(a * b for a, b in zip(u, (1,) + x))
                      for x in _lattice(m, levels, shift).coords) for u, _ in forms]
        if all(p for col in cols for p in col):
            return shift, cols
        shift += 1


def chain_sum_on_line(own, steps, pq, k: int, order: int) -> tuple[list[int], int]:
    """t^k times the chain sum on the line t*y, through t^(k + order), as
    integer numerators over one positive denominator.

    pq[j] = (p, q), q > 0, with <form j, y> = p/q nonzero.  Splitting each
    chain from T to the full set S at its first step T < T' gives T's chain
    sum without T's own forms as g_S = 1 and
    g_T = -sum over T' of g_T' / prod_(c in T' - T) <u_(T',c), y>,
    so the chain sum over T is c_T = g_T / prod_(t in T) <u_(T,t), y>.  On
    the line the whole sum is t^-k sum_T c_T num_T(t), num_T(t) the product
    of td(<u,y> t) over T's pivots u.  Where mu is a power series, the
    coefficients of t^0..t^(k-1) cancel and the t^(k+r) coefficient is
    p_r(y), the degree-r part of mu at y.

    g runs on integer pairs, one gcd per T.  The products run in integers:
    with <u,y> = p/q, d*q^cap * td(<u,y> t) has the integer coefficients
    (d td_m) p^m q^(cap-m), of which only the nonzero ones are multiplied.
    """
    cap = k + order
    tdn, d = _todd_over_integers(cap)
    todd = [(m, c) for m, c in enumerate(tdn) if c]  # td_m = 0 at odd m >= 3
    total, terms = [0] * (cap + 1), []  # terms: (num_T, den_T) per T with g_T != 0
    last = len(own) - 1
    g = [None] * last + [(1, 1)]  # g_S
    for t in reversed(range(len(own))):
        if t < last:  # g_T = -a / b
            a, b = 0, 1
            for j, forms in steps[t]:
                ga, gb = g[j]
                if ga:
                    p = gb * prod(pq[f][0] for f in forms)
                    a = a * p + ga * prod(pq[f][1] for f in forms) * b
                    b *= p
            r = gcd(a, b)
            g[t] = (-a // r, b // r)
        a, b = g[t]
        if not a:
            continue
        num, den = [a * prod(pq[j][1] for j in own[t])], b * prod(pq[j][0] for j in own[t])
        for j in own[t]:
            p, q = pq[j]
            factor = [(m, c * p ** m * q ** (cap - m)) for m, c in todd]
            out = [0] * (cap + 1)
            for i, x in enumerate(num):
                for m, c in factor:
                    if x and i + m <= cap:
                        out[i + m] += x * c
            num = out
            den *= d * q ** cap
        terms.append((num, den))
    common = lcm(*(den for _, den in terms))
    for num, den in terms:
        scale = common // den
        for i, x in enumerate(num):
            total[i] += x * scale
    return total, common


def line_reducer(cone: Cone, cmap, order: int, lines=None) -> tuple[SquarefreeReducer, list]:
    """The library's reducer with the cone once on each line (by default
    lattice_lines), and the lines."""
    lines = lattice_lines(cone.ambient, order) if lines is None else list(lines)
    return SquarefreeReducer([cone], lines, cmap, order), lines


def reduce_monomial(red: SquarefreeReducer, expo) -> dict[frozenset[int], list[int]]:
    """The library reducer's form of D^expo, one int N per pair for
    N / L^|expo| times t^(|expo| - |S|): its M_i (red._apply) applied
    e_i - 1 times to D_supp(e), i from the last generator to the first, the
    path of peeling the first i with e_i >= 2."""
    supp = frozenset(i for i, e in enumerate(expo) if e)
    vec = {(supp, 0): [L ** len(supp) for L in red._scales]}
    for i in reversed(range(red.k)):
        for _ in range(expo[i] - 1):
            vec = red._apply(vec, i)
    return {s: c for (s, _), c in vec.items()}


def walk_values(red: SquarefreeReducer, expo) -> dict[frozenset[int], list[Fraction]]:
    """reduce_monomial(red, expo) read as values: per subset S, the coefficient
    of D_S (homogeneous of degree |e| - |S|) at each pair's line y, t = 1."""
    m = sum(expo)  # red._scales holds each pair's L: an entry N stands for N / L^|e|
    return {s: [Fraction(c, L ** m) for c, L in zip(col, red._scales)]
            for s, col in reduce_monomial(red, expo).items()}


def value_at(series: MultiSeries, y) -> Fraction:
    """The polynomial `series` at the point y."""
    total = Fraction(0)
    for expo, c in series.coeffs.items():
        for a, e in zip(y, expo):
            c *= a ** e
        total += c
    return total


def check_walk(reference: FullRingReducer, red: SquarefreeReducer, lines, expo) -> None:
    """The library's form of D^expo (reduce_monomial on its reducer, whose one
    path is the reference's in generator order) has the reference's subsets in
    its order, and each coefficient's value on each line is the reference's there."""
    want, got = reference.reduce_monomial(expo), walk_values(red, expo)
    assert list(got) == list(want), (expo, list(got), list(want))
    for s, vals in got.items():
        assert vals == [value_at(want[s], y) for y in lines], (expo, s)


def normal_form(terms: dict, cone: Cone, cmap, order: int,
                pivot_order=None) -> dict[frozenset[int], MultiSeries]:
    """sum of coeff * reduce_monomial(e) over constant-coefficient terms by
    the full-ring reference in pivot_order, each coefficient as a series
    through `order`, after check_walk of the library's reducer (its one walk)
    against that reference at lattice_lines: equal values at those nodes mean
    equal polynomials of degree <= order."""
    reference = FullRingReducer(cone, cmap, order, pivot_order)
    red, lines = line_reducer(cone, cmap, order)
    zero = MultiSeries.zero(cone.ambient, order)
    out: dict[frozenset[int], MultiSeries] = {}
    for expo, a in terms.items():
        check_walk(reference, red, lines, expo)
        for s, c in reference.reduce_monomial(expo).items():
            out[s] = out.get(s, zero) + a * c
    return {s: c for s, c in out.items() if not c.is_zero}


def as_ring_element(expr: dict, k: int) -> dict:
    """A normal form read back as a D-expansion with 0/1 exponents."""
    return {tuple(int(i in s) for i in range(k)): c for s, c in expr.items()}


def linear_relation(cone: Cone, cmap, subset, v: Vector,
                    order: int = DEFAULT_ORDER) -> dict:
    """The ideal generator D_S (l_v - v), for v in the complement of S."""
    k = len(cone.generators)
    idx = sorted({int(i) for i in subset})
    if idx and (idx[0] < 0 or idx[-1] >= k):
        raise ValueError(f"subset {idx} out of range for {k} generators")
    if v.is_zero:
        return {}
    if not idx or not psi_contains(cmap.psi(tuple(cone.generators[i] for i in idx)), v):
        raise VectorNotInSubspaceError(
            f"{v} is not in the complement subspace of subset {idx}")
    base = tuple(1 if i in idx else 0 for i in range(k))
    terms = {base: MultiSeries.from_linear(-v, order)}
    for j, w in enumerate(cone.generators):
        a = v.dot(w)
        if a:
            e = list(base)
            e[j] += 1
            terms[tuple(e)] = a
    return terms


def ideal_generators(cone: Cone, cmap, order: int = DEFAULT_ORDER) -> list[dict]:
    """Generators of the rewriting ideal for this cone and map.

    Ray-table maps carry one relation per ray; the other families take the
    face-level relations D_S (l_v - v) with v over a basis of each
    complement subspace.
    """
    k = len(cone.generators)
    gens = []
    if isinstance(cmap, RayTableMap):
        for i in range(k):
            v = cmap.solve_u((cone.generators[i],), 0)
            gens.append(linear_relation(cone, cmap, (i,), v, order))
        return gens
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            sub = cmap.psi(tuple(cone.generators[i] for i in subset))
            for v in sub.basis:  # int tuples under an inner product
                gens.append(linear_relation(cone, cmap, subset, Vector(v), order))
    return gens


def evaluation_map(terms: dict, cone: Cone, order: int):
    """Substitute each D variable by its dual-basis linear form, through `order`.

    Returns (numerator, dual forms): the element represents
    numerator / product(dual forms).  Needs a full-dimensional basic cone,
    where the duals exist.
    """
    k = len(cone.generators)
    if cone.ambient != k or not cone.is_basic:
        raise NotFullDimError("evaluation needs a full-dimensional basic cone")
    duals = dual_basis(cone.generators)
    forms = [MultiSeries.from_linear(v, order) for v in duals]
    num = MultiSeries.zero(cone.ambient, order)
    for expo, coeff in terms.items():
        term = MultiSeries.constant(1, cone.ambient, order)
        for i, e in enumerate(expo):
            for _ in range(e):
                term = term * forms[i]
        num = num + (coeff * term).truncate(order)
    return num, tuple(duals)


def chain_sum(cone: Cone, cmap, S, T, order: int = DEFAULT_ORDER) -> RationalFunctionTerm:
    """The alternating chain sum for the subset pair T <= S, as one fraction."""
    S = frozenset(int(i) for i in S)
    T = frozenset(int(i) for i in T)
    k = len(cone.generators)
    if not (T <= S <= frozenset(range(k))):
        raise ValueError("need T <= S <= generator positions")
    raw = chain_forms(cone, cmap, S, T)
    bound = order + len(denominator_union(forms for _, forms in raw))
    terms = [RationalFunctionTerm(MultiSeries.constant(sign, cone.ambient, bound), forms)
             for sign, forms in raw]
    num, den = combine_over_common_denominator(terms, order)
    return RationalFunctionTerm(num, den)


def mu_explicit_combined(cone: Cone, cmap, order: int = DEFAULT_ORDER) -> MuValue:
    """The chain-sum formula as multivariate rational functions: every term
    goes over one common denominator, and the combined numerator must
    divide out exactly."""
    k = len(cone.generators)
    n = cone.ambient
    full = frozenset(range(k))
    raw = []
    for size in range(k + 1):
        for T in combinations(range(k), size):
            T = frozenset(T)
            for sign, forms in chain_forms(cone, cmap, full, T):
                raw.append((T, sign, forms))
    target = order + len(denominator_union(forms for _, _, forms in raw))
    tdc = todd_univariate(target)
    numerators: dict[frozenset, MultiSeries] = {}
    for T, _, _ in raw:
        if T not in numerators:
            prod = MultiSeries.constant(1, n, target)
            for i in sorted(T):
                prod = prod * compose_linear(tdc, pivot_vector(cone, cmap, T, i), target)
            numerators[T] = prod
    terms = [RationalFunctionTerm(numerators[T].scale(sign), forms)
             for T, sign, forms in raw]
    series, den = combine_over_common_denominator(terms, order)
    try:
        for f in den:
            series = divide_by_linear_form(series, f)
    except ValueError as exc:
        raise InconsistentExplicitFormulaError(
            f"chain-sum numerator not divisible by its denominator: "
            f"cone={cone!r} map={cmap.describe()}") from exc
    return MuValue(cone, cmap.key(), order, series.truncate(order), "explicit")
