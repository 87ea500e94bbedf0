"""Cones, polytopes, face lattices, and exact subdivisions.

Cones are given by primitive integer ray generators and may live in any
ambient dimension up to the configured cap. Polytopes are given by their
exact vertex sets (every input point must be a lattice point and extreme).
Everything here is brute-force exact arithmetic; the intended ambient
dimensions are small (up to 4).

All lattice data are tuples of Python ints: ray generators, vertices,
facet normals with their int offsets, the rays of every subdivision cell
and the lattice points of a polytope. The geometry runs on those ints
(linalg's eliminate, kernel, dot and primitive) and builds no Fraction;
only a normalized volume is a Fraction. Cone(), Polytope() and their
from_json take Vectors, or sequences of ints, Fractions or "p/q" strings,
and convert once; points passed to contains() and contains_point() may be
rational. Error messages print lattice points as Vectors.

One routine, cone_facets, finds facets: a polytope's facets are those of
the cone over it. One closure, _face_sets, gives a polytope's faces, and
one rule, {i} is a face, its vertices and a cone's extreme rays. A
polytope has one H-description, in ambient coordinates (span equations,
facet inequalities), and a cone one inequality list.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DimensionTooLargeError,
    InternalInconsistencyError,
    NotExtremeError,
    NotFullDimError,
    NotIntegralError,
    NotPointedError,
    NotSimplicialError,
    TooLargeError,
)
from .linalg import (
    Matrix,
    Vector,
    cone_index,
    dot,
    dual_rows,
    eliminate,
    format_rational,
    kernel,
    lower_form,
    parse_rational,
    primitive,
    rank,
    solve_linear,
)

Point = tuple[int, ...]

MAX_AMBIENT_DIM = 4
LATTICE_POINT_CAP = 2_000_000
PARALLELEPIPED_CAP = 100_000


def cone_facets(rays: Sequence[Point]) -> list[tuple[Point, frozenset[int]]]:
    """Facets of the cone spanned by the integer rays.

    Returns (inner normal, indices of rays on the facet) pairs. The normal
    is a primitive integer vector in the linear span of the cone:
    nonnegative on every ray, zero exactly on the facet. Cones of
    dimension <= 1 have no facets in this sense. The cone need not be
    pointed: its facets then all contain its lineality space, so their
    normals span less than the dual of the span (none for a whole span).
    """
    red, _, pivots = eliminate(rays)
    k = len(pivots)
    if k <= 1:
        return []
    span = red[:k]  # integer rows spanning the rays' span
    pairing = [[dot(s, r) for s in span] for r in rays]
    found: dict[Point, frozenset[int]] = {}
    for subset in itertools.combinations(range(len(rays)), k - 1):
        # rays on a known facet span at most its hyperplane: nothing new
        if any(on.issuperset(subset) for on in found.values()):
            continue
        # normal h = sum_l z_l span_l with <h, r> = 0 for r in the subset;
        # the pairing with the span rows has the subset's rank, so a
        # one-dimensional kernel means k - 1 independent rays
        ker = kernel([pairing[i] for i in subset], k)
        if len(ker) != 1:
            continue
        h = primitive([dot(ker[0], col) for col in zip(*span)])
        vals = [dot(h, r) for r in rays]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            h = tuple(-x for x in h)
            vals = [-v for v in vals]
        else:
            continue
        found[h] = frozenset(i for i, v in enumerate(vals) if v == 0)
    return sorted(found.items())


def _face_sets(count: int, facet_sets: Sequence[frozenset[int]]) -> set[frozenset[int]]:
    """The faces as index sets: range(count) and every nonempty
    intersection of the facets' index sets.

    i is extreme exactly when {i} is a face. This presumes the indexed
    points are distinct (rays: distinct primitive generators) and that
    every proper face is an intersection of facets, which holds for a
    pointed cone of any dimension and for any polytope. With no facets the
    only face is the whole set, so the zero cone has no extreme ray, and a
    one-ray cone and a point polytope keep index 0.
    """
    sets = {frozenset(range(count))}
    new = set(facet_sets)
    while new:
        sets |= new
        # each intersection of facets extends one found in the round before
        new = {a & b for a in new for b in facet_sets} - sets
        new.discard(frozenset())
    return sets


class Cone:
    """Pointed rational cone, stored by primitive ray generators (int tuples).

    Pointedness is an invariant: construction raises NotPointedError when
    the generators admit a nontrivial nonnegative dependency. Simplicial
    generators are pointed; otherwise the cone is pointed when its dimension
    d is at least 2 and its facet normals have rank d. Normal cones and
    subdivision cells are pointed by construction and built without the
    check (_trusted). Generators are primitivized and deduplicated at
    construction but otherwise kept in the given order. Equality and
    hashing use the generator set, so two descriptions of the same cone by
    the same irredundant rays coincide.
    """

    def __init__(self, generators: Iterable[Sequence], ambient: int | None = None):
        gens = list(dict.fromkeys(map(primitive, generators)))
        if ambient is None:
            if not gens:
                raise ValueError("ambient dimension required for the zero cone")
            ambient = len(gens[0])
        if any(len(g) != ambient for g in gens):
            raise ValueError("mixed ambient dimensions")
        if ambient > MAX_AMBIENT_DIM:
            raise DimensionTooLargeError(
                f"ambient dimension {ambient} above cap {MAX_AMBIENT_DIM}")
        self.generators: tuple[Point, ...] = tuple(gens)
        self.ambient = ambient
        if not self.is_pointed:
            raise NotPointedError(f"cone is not pointed: {list(map(Vector, gens))}")

    @classmethod
    def _trusted(cls, generators: tuple[Point, ...], ambient: int, dim: int) -> "Cone":
        """Internal constructor for cones that are pointed by construction.

        The caller guarantees what __init__ would check and compute: distinct
        primitive int generators of length ambient <= MAX_AMBIENT_DIM, a
        pointed cone, and dim their rank.
        """
        self = object.__new__(cls)
        self.generators = generators
        self.ambient = ambient
        self.dim = dim
        self.is_pointed = True
        return self

    @cached_property
    def dim(self) -> int:
        return rank(self.generators)

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_simplicial(self) -> bool:
        return len(self.generators) == self.dim

    @cached_property
    def index(self) -> int:
        if not self.is_simplicial:
            raise NotSimplicialError("index of a non-simplicial cone")
        return cone_index(self.generators)

    @property
    def is_basic(self) -> bool:
        return self.is_simplicial and self.index == 1

    @cached_property
    def basic_cells(self) -> tuple["Cone", ...]:
        """The cone itself when basic, else the cells of its basic subdivision.
        They depend only on the cone, so every map and direction shares them."""
        return (self,) if self.is_basic else subdivide_to_basic(self).children

    @cached_property
    def is_pointed(self) -> bool:
        # more rays than the dimension d: pointed iff d >= 2 and the facet
        # normals span the dual of the span (a lineality space lies in every
        # facet)
        if self.is_simplicial:
            return True
        return self.dim > 1 and rank([h for h, _ in self.facets]) == self.dim

    @cached_property
    def facets(self) -> list[tuple[Point, frozenset[int]]]:
        return cone_facets(self.generators)

    @cached_property
    def extreme_ray_indices(self) -> tuple[int, ...]:
        """Positions i of the extreme rays: {i} is a face."""
        faces = _face_sets(len(self.generators), [on for _, on in self.facets])
        return tuple(i for i in range(len(self.generators)) if frozenset({i}) in faces)

    def extreme_rays(self) -> list[Point]:
        return [self.generators[i] for i in self.extreme_ray_indices]

    @cached_property
    def _annihilator(self) -> list[Point]:
        return kernel(self.generators, self.ambient)

    @cached_property
    def inequalities(self) -> list[Point]:
        """Rows h with <h, x> >= 0 cutting the cone out of its span: the
        facet normals, or the generators when a cone of dimension <= 1 has
        no facets (its one ray, or none for the zero cone)."""
        return [h for h, _ in self.facets] or list(self.generators)

    def contains(self, x: Sequence) -> bool:
        """Exact membership of an integer or rational point: x is orthogonal
        to the annihilator (the vectors orthogonal to every ray) and on the
        inner side of every inequality."""
        if len(x) != self.ambient:
            raise ValueError(f"point of length {len(x)} in dimension {self.ambient}")
        return (not any(dot(z, x) for z in self._annihilator)
                and all(dot(h, x) >= 0 for h in self.inequalities))

    def __eq__(self, other):
        return (isinstance(other, Cone)
                and self.ambient == other.ambient
                and frozenset(self.generators) == frozenset(other.generators))

    def __hash__(self):
        return hash((self.ambient, frozenset(self.generators)))

    def __repr__(self):
        return "Cone[%s]" % ", ".join(repr(list(g)) for g in self.generators)

    def canonical_key(self) -> tuple:
        return (self.ambient, tuple(sorted(self.generators)))

    def to_json(self) -> dict:
        return {"ambient": self.ambient,
                "generators": [list(map(format_rational, g)) for g in self.generators]}

    @classmethod
    def from_json(cls, data: dict) -> "Cone":
        gens = [[parse_rational(e) for e in g] for g in data["generators"]]
        return cls(gens, ambient=int(data["ambient"]) if "ambient" in data else None)


def zero_cone(ambient: int) -> Cone:
    return Cone([], ambient=ambient)


# -- subdivisions ----------------------------------------------------------


class Subdivision:
    """A cone subdivision: simplicial cells of full dimension in the parent.

    Construction certifies, exactly: every cell has the parent's dimension,
    every cell ray lies in the parent, the parent's extreme rays are
    covered, and the cells meet face-to-face (every cell facet either lies
    on the parent's boundary and appears once, or is shared by exactly two
    cells). Failures raise InternalInconsistencyError since cells are
    produced by construction, never parsed from input.
    """

    def __init__(self, parent: Cone, children: Sequence[Cone]):
        self.parent = parent
        self.children = tuple(children)
        self._certify()

    def _certify(self):
        parent, children = self.parent, self.children
        if not children:
            raise InternalInconsistencyError("empty subdivision")
        d = parent.dim
        for cell in children:
            if not cell.is_simplicial or cell.dim != d:
                raise InternalInconsistencyError("cell not simplicial of full dimension")
        rays = dict.fromkeys(g for cell in children for g in cell.generators)
        for g in rays:
            if not parent.contains(g):
                raise InternalInconsistencyError(f"cell ray {Vector(g)} outside parent")
        for r in parent.extreme_rays():
            if r not in rays:
                raise InternalInconsistencyError(f"parent ray {Vector(r)} not covered")
        counts: dict[tuple, int] = {}
        for cell in children:
            gens = cell.generators
            for drop in range(len(gens)):
                key = tuple(sorted(g for j, g in enumerate(gens) if j != drop))
                counts[key] = counts.get(key, 0) + 1
        for key, cnt in counts.items():
            # on the parent's boundary when all its rays lie on one wall
            on_boundary = any(all(dot(h, g) == 0 for g in key)
                              for h in parent.inequalities)
            want = 1 if on_boundary else 2
            if cnt != want:
                raise InternalInconsistencyError(
                    f"facet {key} appears {cnt} times, expected {want}")

    def __iter__(self):
        return iter(self.children)

    def __len__(self):
        return len(self.children)


def _half_open_parallelepiped_points(rays: Sequence[Point]) -> list[tuple[Point, Point]]:
    """Lattice points of {sum c_i r_i : 0 <= c_i < 1} minus the origin.

    The lattice is the saturation of the span, so the points returned are
    honest integer vectors. Returns (point, numerators) pairs: c_i is
    numerators[i] / index, with index = cone_index(rays).
    """
    low = lower_form(rays)
    diag = [row[i] for i, row in enumerate(low)]
    index = math.prod(diag)
    if index > PARALLELEPIPED_CAP:
        raise TooLargeError(f"parallelepiped with {index} lattice points")
    # in the saturated lattice the rays are the rows of L, so the digit boxes
    # z are the cosets of their lattice, with coefficients z L^-1, that is
    # (dual_rows(L) . z mod index) / index
    inv = dual_rows(low)
    out = []
    for digits in itertools.product(*(range(dd) for dd in diag)):
        num = tuple(dot(row, digits) % index for row in inv)
        if not any(num):
            continue
        point = [dot(num, col) for col in zip(*rays)]
        assert all(x % index == 0 for x in point)
        out.append((tuple(x // index for x in point), num))
    return out


def _pulling_triangulation(rays: list[Point]) -> list[tuple[int, ...]]:
    """Triangulate a pointed cone given by its extreme rays; index tuples.

    Recursive pulling construction: cone the lex-min ray over the
    triangulated facets that do not contain it. Face-to-face by
    construction, deterministic because rays are scanned in lex order.
    """
    def rec(idx: tuple[int, ...]) -> list[tuple[int, ...]]:
        sub = [rays[i] for i in idx]
        if len(idx) == rank(sub):
            return [tuple(sorted(idx))]
        star = min(idx, key=lambda i: rays[i])
        cells: list[tuple[int, ...]] = []
        for _, fset in cone_facets(sub):
            face_idx = tuple(idx[j] for j in sorted(fset))
            if star in face_idx:
                continue
            for cell in rec(face_idx):
                cells.append(tuple(sorted(cell + (star,))))
        return cells

    return rec(tuple(range(len(rays))))


def subdivide_to_basic(cone: Cone) -> Subdivision:
    """Subdivide a pointed cone into basic (unimodular simplicial) cones.

    First a pulling triangulation of the extreme rays, then repeated star
    subdivisions at the minimal-coefficient-sum lattice point w of the
    half-open parallelepiped of some non-basic cell. The star step is
    applied fan-wide (every cell containing w splits), which keeps the
    subdivision face-to-face; each affected cell's index strictly drops,
    so the loop terminates. Containment is decided by ray sets: w lies in
    the relative interior of the victim's face spanned by the rays tau
    with a positive coefficient, so in a face-to-face fan the cells that
    contain w are those whose rays include tau, and tau are exactly their
    positively weighted rays. Cells are built once, trusted: cone_index
    raised on dependent rays (dim = ray count), extreme rays are primitive,
    and so is w, or w/c (c >= 2) would have a smaller coefficient sum.
    """
    if cone.is_basic:
        return Subdivision(cone, [cone])

    rays = sorted(cone.extreme_rays())
    cells = [(gens, cone_index(gens))
             for gens in ([rays[i] for i in c] for c in _pulling_triangulation(rays))]

    rounds = 0
    while True:
        rounds += 1
        if rounds > 10_000:
            raise InternalInconsistencyError("stellar subdivision did not terminate")
        victim = next((gens for gens, index in cells if index != 1), None)
        if victim is None:
            break
        points = _half_open_parallelepiped_points(victim)
        w, num = min(points, key=lambda pc: (sum(pc[1]), pc[1]))
        tau = {r for r, x in zip(victim, num) if x}
        new_cells = []
        for gens, index in cells:
            if not tau.issubset(gens):
                new_cells.append((gens, index))
                continue
            # cell contains w: replace each ray of tau by w
            for i, r in enumerate(gens):
                if r in tau:
                    child = list(gens)
                    child[i] = w
                    new_cells.append((child, cone_index(child)))
        cells = new_cells

    children = [Cone._trusted(tuple(gens), cone.ambient, len(gens)) for gens, _ in cells]
    for child, (_, index) in zip(children, cells):
        child.index = index
    return Subdivision(cone, children)


# -- polytopes -------------------------------------------------------------


def in_convex_hull(p: Sequence, points: Sequence[Sequence]) -> bool:
    """Exact test whether p lies in the convex hull of the points.

    Scans every affinely independent subset of up to n + 1 points: a slow
    oracle, independent of the facet route that Polytope takes.
    """
    n = len(p)
    pts = list(points)
    if not pts:
        return False
    for k in range(1, min(len(pts), n + 1) + 1):
        for subset in itertools.combinations(pts, k):
            a = Matrix([[1] * k] + [[q[i] for q in subset] for i in range(n)])
            if a.rank() != k:
                continue  # affinely dependent: a smaller subset covers this
            lam = solve_linear(a, Vector([1] + list(p)))
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


class Face:
    """A face of a polytope, identified by its vertex index set."""

    __slots__ = ("polytope", "indices", "dim", "_det_sum")

    def __init__(self, polytope: "Polytope", indices: frozenset[int], dim: int):
        self.polytope = polytope
        self.indices = indices
        self.dim = dim
        self._det_sum: int | None = None  # set by normalized_volume

    @property
    def vertices(self) -> list[Point]:
        return [self.polytope.vertices[i] for i in sorted(self.indices)]

    def __repr__(self):
        return f"Face(dim={self.dim}, vertices={sorted(self.indices)})"


def _lattice_point(p: Sequence) -> Point:
    """A polytope's input point as ints; NotIntegralError off the lattice."""
    if all(type(x) is int for x in p):
        return tuple(p)
    v = Vector(p)
    if not v.is_integral:
        raise NotIntegralError(f"vertex {v} is not a lattice point")
    return tuple(e.numerator for e in v)


class Polytope:
    """Integral polytope given by its exact vertex set.

    Every input point must be integral and extreme. One H-description, in
    ambient coordinates, is computed at construction: equations (z, c)
    with <z, x> = c on the affine span and facets (a, b, on) with
    <a, x> >= b on P. The facets are those of the cone over P
    (_compute_facets), and the faces their intersections (_face_sets): an
    input point is a vertex when it alone is a face.
    """

    def __init__(self, points: Iterable[Sequence], name: str | None = None):
        pts = list(points)
        if not pts:
            raise ValueError("a polytope needs at least one vertex")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("mixed ambient dimensions")
        if n > MAX_AMBIENT_DIM:
            raise DimensionTooLargeError(f"ambient dimension {n} above cap {MAX_AMBIENT_DIM}")
        uniq = list(dict.fromkeys(map(_lattice_point, pts)))
        self.vertices: tuple[Point, ...] = tuple(uniq)
        self.ambient = n
        self.name = name or "polytope"
        # the affine span: <z, x> = <z, v0> for z orthogonal to every v - v0
        v0 = uniq[0]
        self._equations = [(z, dot(z, v0)) for z in kernel(
            [tuple(a - b for a, b in zip(v, v0)) for v in uniq[1:]], n)]
        self.dim = n - len(self._equations)
        self._facets = self._compute_facets()
        sets = _face_sets(len(uniq), [on for _, _, on in self._facets])
        for i, p in enumerate(uniq):
            if frozenset({i}) not in sets:
                raise NotExtremeError(f"input point {Vector(p)} is not a vertex")
        faces = []
        for s in sets:
            pts = [uniq[i] for i in s]
            d = rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]])
            faces.append(Face(self, s, d))
        faces.sort(key=lambda f: (f.dim, sorted(f.indices)))
        self.faces = faces

    def _compute_facets(self) -> list[tuple[Point, int, frozenset[int]]]:
        """Facets (a, b, vertex indices on it) with <a, x> >= b on P.

        P's facets are the facets of the cone over P, spanned by the rays
        (1, v): a facet normal h of that cone reads <h[1:], x> >= -h[0] on
        P, and a is h[1:] made primitive (for a flat P, a direction in its
        span). Sorted by (a, b).
        """
        facets = []
        for h, on in cone_facets([(1, *v) for v in self.vertices]):
            a = primitive(h[1:])
            facets.append((a, dot(a, self.vertices[min(on)]), on))
        return sorted(facets, key=lambda f: (f[0], f[1]))

    # -- queries ----------------------------------------------------------

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient

    def faces_of_dim(self, d: int) -> list[Face]:
        return [f for f in self.faces if f.dim == d]

    def facet_normals(self) -> list[tuple[Point, int, frozenset[int]]]:
        """Primitive inner normals (a, b, on) with <a, x> >= b on P.

        Only available for full-dimensional polytopes, where facet normals
        are unique up to positive scale.
        """
        if not self.is_full_dimensional:
            raise NotFullDimError("facet normals need a full-dimensional polytope")
        return list(self._facets)

    @cached_property
    def normal_cones(self) -> tuple[tuple[Face, Cone], ...]:
        """(face, normal cone) for every face, in face order: the normal fan,
        built once per polytope (full-dimensional only, as normal_cone)."""
        return tuple((f, normal_cone(self, f)) for f in self.faces)

    def contains_point(self, x: Sequence) -> bool:
        """Whether the integer or rational point x lies in P: on the affine
        span (every equation) and on the inner side of every facet."""
        if len(x) != self.ambient:
            raise ValueError(f"point of length {len(x)} in dimension {self.ambient}")
        return (all(dot(z, x) == c for z, c in self._equations)
                and all(dot(a, x) >= b for a, b, _ in self._facets))

    def lattice_points(self) -> list[Point]:
        box = [range(min(c), max(c) + 1) for c in zip(*self.vertices)]
        count = math.prod(map(len, box))
        if count > LATTICE_POINT_CAP:
            raise TooLargeError(f"bounding box holds {count} points, cap {LATTICE_POINT_CAP}")
        return [x for x in itertools.product(*box) if self.contains_point(x)]

    def to_json(self) -> dict:
        return {"vertices": [list(map(format_rational, v)) for v in self.vertices],
                "name": self.name}

    @classmethod
    def from_json(cls, data: dict) -> "Polytope":
        pts = [[parse_rational(e) for e in v] for v in data["vertices"]]
        return cls(pts, name=data.get("name"))

    def __repr__(self):
        return f"Polytope({self.name}: {len(self.vertices)} vertices, dim {self.dim})"


# -- derived cones ---------------------------------------------------------


def normal_cone(p: Polytope, f: Face) -> Cone:
    """Inner-normal cone of P along the face F (full-dimensional P only).

    P itself lies on no facet, so its normal cone is the zero cone, for a
    polytope of any dimension. Otherwise the generators are the primitive,
    distinct normals of the facets through F, in facet order, and the cone
    is pointed of dimension n - dim F, so it is built unchecked.
    """
    if f.dim == p.dim:
        return zero_cone(p.ambient)
    if not p.is_full_dimensional:
        raise NotFullDimError("normal cones need a full-dimensional polytope")
    gens = tuple(a for a, b, on in p._facets if f.indices <= on)
    return Cone._trusted(gens, p.ambient, p.ambient - f.dim)


def supporting_cone(p: Polytope, f: Face) -> tuple[Point, Cone]:
    """(apex, edge-direction cone) at a vertex: P looks like apex + cone locally."""
    if f.dim != 0:
        raise ValueError("supporting cones are taken at vertices")
    (vi,) = f.indices
    apex = p.vertices[vi]
    dirs = []
    for e in p.faces_of_dim(1):
        if vi in e.indices:
            (other,) = [j for j in e.indices if j != vi]
            dirs.append(tuple(a - b for a, b in zip(p.vertices[other], apex)))
    return apex, Cone(dirs, ambient=p.ambient)


# -- triangulation and volume ----------------------------------------------


def triangulate_face(f: Face) -> list[tuple[int, ...]]:
    """Pulling triangulation of a face into simplices (vertex index tuples).

    Pulls the lex-min vertex over the triangulations of the facets of the
    face that miss it. Simplices have f.dim + 1 vertices each.
    """
    p = f.polytope

    def rec(face: Face) -> list[tuple[int, ...]]:
        idx = sorted(face.indices)
        if len(idx) == face.dim + 1:
            return [tuple(idx)]
        star = min(idx, key=lambda i: p.vertices[i])
        out = []
        for g in p.faces:
            if g.dim == face.dim - 1 and g.indices < face.indices and star not in g.indices:
                for cell in rec(g):
                    out.append(tuple(sorted(cell + (star,))))
        return out

    return rec(f)


def lattice_simplices(f: Face) -> list[tuple[tuple[int, ...], int]]:
    """(simplex, |det|) over the pulling triangulation of a face.

    |det| is taken in a basis of the lattice induced on the face's affine
    span, so it is dim(F)! times the simplex's normalized volume: it is the
    index of the lattice of the simplex's edges in that lattice.  A vertex
    is its own simplex, |det| 1.
    """
    out = []
    for simplex in triangulate_face(f):
        z = [f.polytope.vertices[i] for i in simplex]
        out.append((simplex, cone_index([tuple(a - b for a, b in zip(zz, z[0]))
                                         for zz in z[1:]])))
    return out


def normalized_volume(f: Face) -> Fraction:
    """Lattice-normalized volume of a face within its affine span.

    The unit is the fundamental cell of the lattice induced on the span;
    a point has volume 1, a primitive segment volume 1. The int sum of
    |det| is kept on the face, so each face is triangulated once.
    """
    if f._det_sum is None:
        f._det_sum = sum(det for _, det in lattice_simplices(f))
    return Fraction(f._det_sum, math.factorial(f.dim))
