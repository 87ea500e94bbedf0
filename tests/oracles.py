"""Reference oracles and helpers that only the tests use.

The ideal generators D_S (l_v - v), the evaluation map that substitutes
each D variable by its dual linear form (the ideal's kernel must vanish
under it, and a Todd element must keep its value through reduction), the
squarefree normal form of a whole D-expansion by linearity, the
alternating chain sum for one subset pair, and the whole chain-sum mu as
multivariate rational functions over one common denominator.  A
D-expansion is a plain dict from exponent tuples to coefficients
(Fractions or MultiSeries).  Also here: the star step and the lattice
index by linear solves and the Hermite normal form, the complement
map's pivot vectors by way of a span basis, and small linear-algebra and
genericity checks the library never calls.
"""

from __future__ import annotations

from itertools import combinations

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
    _half_open_parallelepiped_points,
    _pulling_triangulation,
    _rank_of,
    _span_basis,
    subdivide_to_basic,
)
from mucone.interp import (
    DEFAULT_ORDER,
    MuValue,
    SquarefreeReducer,
    _chain_terms,
    pivot_vector,
)
from mucone.linalg import (
    Matrix,
    Vector,
    express_in_basis,
    hermite_normal_form,
    saturation_basis,
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
    todd_univariate,
)


class VectorNotInSubspaceError(MuconeError):
    """Vector expected to lie in the complement subspace of a face."""


class NotUnimodularError(MuconeError):
    """A lattice basis was required (determinant +-1)."""


def dual_basis(basis) -> list[Vector]:
    """For a lattice basis w_1..w_n, the dual basis v_1..v_n with <w_i, v_j> = delta_ij."""
    mat = Matrix([list(w) for w in basis])
    if mat.nrows != mat.ncols:
        raise NotUnimodularError("dual basis needs n vectors in dimension n")
    d = mat.det()
    if abs(d) != 1:
        raise NotUnimodularError(f"not a lattice basis (determinant {d})")
    inv = inverse(mat)
    return [inv.column(j) for j in range(mat.ncols)]


def inverse(a: Matrix) -> Matrix:
    n = a.nrows
    if n != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    aug = Matrix([list(a.rows[i]) + [1 if j == i else 0 for j in range(n)]
                  for i in range(n)])
    red, pivots = aug.rref()
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix([row[n:] for row in red.rows])


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
        cols.append(list(c))
    h, _ = hermite_normal_form(Matrix.from_columns(cols))
    d = 1
    for i in range(len(gens)):
        d *= int(h.rows[i][i])
    assert d == abs(Matrix.from_columns(cols).det())
    return d


def star_subdivision_cells(cone: Cone) -> list[list[Vector]]:
    """The ray lists of subdivide_to_basic's cells, by the star step that
    solves one linear system per cell and round for the new ray's
    coordinates, with indices from saturation_index."""
    if cone.is_zero or cone.is_basic:
        return [list(cone.generators)]
    rays = sorted(cone.extreme_rays(), key=lambda r: r.entries)
    cells = [[rays[i] for i in cell] for cell in _pulling_triangulation(rays)]

    indices: dict[tuple[Vector, ...], int] = {}

    def cell_det(cell: list[Vector]) -> int:
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
        w, _ = min(points, key=lambda pc: (sum(pc[1].entries), pc[1].entries))
        new_cells: list[list[Vector]] = []
        for cell in cells:
            coords = solve_linear(Matrix.from_columns([list(r) for r in cell]), w)
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


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = [b.column(j) for j in range(b.ncols)]
    return Matrix([[Vector(r).dot(c) for c in cols] for r in a.rows])


def pole_order(s: LaurentSeries) -> int:
    return max(0, -s.valuation) if s.coeffs else 0


def psi_contains(sub, v: Vector) -> bool:
    """Whether v lies in the complement subspace `sub` (a PsiSubspace)."""
    return v.is_zero or _rank_of(list(sub.basis) + [v]) == len(sub.basis)


def span_route_duals(cmap, rays) -> list[Vector]:
    """The pivot vectors of `rays` under `cmap` by a second route: a
    rational basis of the raw basis' span, a check that it has the rays'
    rank and pairs invertibly with them, then the inverse pairing by its
    own elimination of [pairing | I].  Raises NotGenericError when the
    subset is not generic."""
    rays = tuple(rays)
    k = len(rays)
    basis = _span_basis(cmap.raw_basis(rays))
    if len(basis) != k:
        raise NotGenericError(f"complement subspace for {list(rays)} has "
                              f"dimension {len(basis)}, expected {k}")
    pairing = Matrix([[w.dot(b) for b in basis] for w in rays])
    if k and pairing.rank() < k:
        raise NotGenericError(f"complement subspace for {list(rays)} meets "
                              "the rays' annihilator nontrivially")
    inv = inverse(pairing) if k else Matrix([])
    return [sum((b * inv.rows[i][j] for i, b in enumerate(basis)),
                Vector([0] * len(rays[0])))
            for j in range(k)]


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


def normal_form(terms: dict, cone: Cone, cmap, order: int,
                pivot_order=None) -> dict[frozenset[int], MultiSeries]:
    """sum of coeff * reduce_monomial(e) over constant-coefficient terms,
    each coefficient as a series through `order`."""
    red = SquarefreeReducer(cone, cmap, order, pivot_order)
    zero = MultiSeries.zero(cone.ambient, order)
    out: dict[frozenset[int], MultiSeries] = {}
    for expo, a in terms.items():
        for s, c in red.reduce_monomial(expo).items():
            out[s] = out.get(s, zero) + a * MultiSeries(cone.ambient, order, c.coeffs)
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
        a = w.dot(v)
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
            for v in sub.basis:
                gens.append(linear_relation(cone, cmap, subset, v, order))
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
    raw = _chain_terms(cone, cmap, S, T)
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
            for sign, forms in _chain_terms(cone, cmap, full, T):
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
