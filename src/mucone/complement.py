"""Complement maps: assignments of dual-side subspaces to cones.

A complement map picks, for a cone spanned by rays w_s, a subspace of the
dual space V of the same dimension that is complementary to the
annihilator of the rays' span. Three families are implemented: inner
products (total), complete flags (partial), and explicit per-ray tables
such as the cyclic-difference map on the projective-space fan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotGenericError, ParseError, UnknownRayError
from .geometry import Cone, _rank_of
from .linalg import Matrix, Vector, parse_rational, primitive, unit_vector


class PsiSubspace:
    """The complement subspace assigned to a set of rays, with its pivot vectors.

    `basis` spans the assigned subspace. One elimination of [pairing | I],
    with pairing[i][j] = <rays[i], basis[j]>, decides genericity and solves
    for every pivot vector at once. The I block gives the elimination k
    pivots, so they are the basis columns exactly when the pairing is
    square and invertible, which is complementarity with the rays'
    annihilator; otherwise the subset is not generic. Then duals[j] is the
    unique u in the subspace with <rays[i], u> = 1 if i = j, else 0.
    """

    __slots__ = ("rays", "basis", "duals")

    def __init__(self, rays: Sequence[Vector], basis: Sequence[Vector]):
        self.rays = tuple(rays)
        self.basis = tuple(basis)
        k = len(self.rays)
        aug = Matrix([[w.dot(b) for b in self.basis] + [int(i == j) for j in range(k)]
                      for i, w in enumerate(self.rays)])
        red, pivots = aug.rref()
        if pivots != list(range(len(self.basis))):
            raise NotGenericError(
                f"complement subspace for {list(self.rays)} does not pair "
                "invertibly with the rays")
        # column j of the inverse pairing holds the coefficients of u_j
        inv = [row[k:] for row in red.rows]
        basis = [b.entries for b in self.basis]
        n = len(self.rays[0]) if k else 0
        self.duals = tuple(
            Vector([sum((inv[i][j] * b[c] for i, b in enumerate(basis)), Fraction(0))
                    for c in range(n)])
            for j in range(k))


class ComplementMap:
    """Base class; subclasses provide raw_basis() for a set of rays."""

    ambient: int

    def raw_basis(self, rays: Sequence[Vector]) -> list[Vector]:
        raise NotImplementedError

    def psi(self, rays: Sequence[Vector]) -> PsiSubspace:
        """The complement subspace and pivot vectors for the rays; raises NotGeneric."""
        rays = tuple(rays)
        cached = self._psi_cache.get(rays)
        if cached is None:
            cached = PsiSubspace(rays, self.raw_basis(rays))
            self._psi_cache[rays] = cached
        return cached

    def solve_u(self, rays: Sequence[Vector], target: int) -> Vector:
        """The unique u in psi(rays) pairing to 1 with rays[target], 0 with the rest."""
        duals = self.psi(rays).duals
        if not 0 <= target < len(duals):
            raise ValueError(f"target {target} out of range for {len(duals)} rays")
        return duals[target]

    def key(self) -> tuple:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def _init_caches(self):
        self._psi_cache: dict = {}


class InnerProductMap(ComplementMap):
    """psi(S) = the pairing image of span{w_s} under a positive-definite Gram matrix.

    Total: every pointed cone is generic.
    """

    def __init__(self, gram: Matrix):
        n = gram.nrows
        if gram.ncols != n:
            raise ValueError("Gram matrix must be square")
        if gram.transpose().rows != gram.rows:
            raise ValueError("Gram matrix must be symmetric")
        for k in range(1, n + 1):
            minor = Matrix([row[:k] for row in gram.rows[:k]])
            if minor.det() <= 0:
                raise ValueError("Gram matrix must be positive definite")
        self.gram = gram
        self.ambient = n
        self._init_caches()

    def raw_basis(self, rays: Sequence[Vector]) -> list[Vector]:
        return [self.gram.matvec(w) for w in rays]

    def inner(self, a: Vector, b: Vector) -> Fraction:
        return a.dot(self.gram.matvec(b))

    def key(self) -> tuple:
        return ("inner_product", tuple(self.gram.rows))

    def describe(self) -> str:
        if self.gram == Matrix.identity(self.ambient):
            return "inner_product(standard)"
        return "inner_product"

    def to_json(self) -> dict:
        return {"type": "inner_product",
                "gram": [[str(e) for e in row] for row in self.gram.rows]}


def standard_inner_product(n: int) -> InnerProductMap:
    return InnerProductMap(Matrix.identity(n))


class FlagMap(ComplementMap):
    """psi(S) = the first |S| steps of a fixed complete flag of V.

    Partial: a cone is generic only when each flag step pairs invertibly
    with the corresponding ray subsets.
    """

    def __init__(self, basis: Sequence[Vector]):
        basis = [v if isinstance(v, Vector) else Vector(v) for v in basis]
        n = len(basis)
        if any(len(v) != n for v in basis):
            raise ValueError("flag basis must be square")
        if _rank_of(basis) != n:
            raise ValueError("flag basis must be linearly independent")
        self.basis = tuple(basis)
        self.ambient = n
        self._init_caches()

    def raw_basis(self, rays: Sequence[Vector]) -> list[Vector]:
        return list(self.basis[: len(rays)])

    def key(self) -> tuple:
        return ("flag", tuple(v.entries for v in self.basis))

    def describe(self) -> str:
        return "flag"

    def to_json(self) -> dict:
        return {"type": "flag", "basis": [v.to_json() for v in self.basis]}


class RayTableMap(ComplementMap):
    """psi(S) = span of explicitly tabulated vectors, one per known ray."""

    def __init__(self, entries: dict[Vector, Vector] | Iterable[tuple[Vector, Vector]],
                 ambient: int | None = None):
        table: dict[Vector, Vector] = {}
        pairs = entries.items() if isinstance(entries, dict) else entries
        for ray, u in pairs:
            ray = primitive(ray)
            if ray.dot(u) == 0:
                raise ValueError(f"table vector for ray {ray} pairs to zero")
            table[ray] = u
        if not table and ambient is None:
            raise ValueError("ambient dimension required for an empty table")
        self.table = table
        self.ambient = ambient if ambient is not None else len(next(iter(table)))
        if any(len(ray) != self.ambient for ray in table):
            raise ValueError(f"table rays must all have dimension {self.ambient}")
        self._init_caches()

    def raw_basis(self, rays: Sequence[Vector]) -> list[Vector]:
        out = []
        for r in rays:
            r = primitive(r)
            if r not in self.table:
                raise UnknownRayError(f"no table entry for ray {r}")
            out.append(self.table[r])
        return out

    def key(self) -> tuple:
        return ("ray_table",
                tuple(sorted((r.entries, u.entries) for r, u in self.table.items())))

    def describe(self) -> str:
        return "ray_table"

    def to_json(self) -> dict:
        return {"type": "ray_table",
                "entries": [{"ray": r.to_json(), "u": u.to_json()}
                            for r, u in sorted(self.table.items(),
                                               key=lambda it: it[0].entries)]}


def _vectors(value, what: str) -> list[Vector]:
    """A JSON list of coordinate lists as Vectors; ParseError for any other shape."""
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ParseError(f"{what} must be coordinate lists")
    return [Vector([parse_rational(e) for e in v]) for v in value]


def map_from_json(data: dict) -> ComplementMap:
    if not isinstance(data, dict):
        raise ParseError("a complement map must be a JSON object")
    kind = data.get("type")
    if kind == "inner_product":
        return InnerProductMap(Matrix(_vectors(data["gram"], "'gram' rows")))
    if kind == "flag":
        return FlagMap(_vectors(data["basis"], "'basis' vectors"))
    if kind == "ray_table":
        items = data["entries"]
        if not isinstance(items, list) or not all(isinstance(it, dict) for it in items):
            raise ParseError("'entries' must be a list of objects with 'ray' and 'u'")
        rays = _vectors([it["ray"] for it in items], "'ray' entries")
        us = _vectors([it["u"] for it in items], "'u' entries")
        return RayTableMap(list(zip(rays, us)))
    raise ValueError(f"unknown complement map type: {kind!r}")


# -- the projective-space fan and its cyclic-difference map -----------------


def projective_fan_rays(n: int) -> list[Vector]:
    """Rays of the n-dimensional projective-space fan: e_1..e_n and -sum(e_i).

    Index 0 holds the negative-sum ray; 1..n the basis rays, so that rays
    i and i+1 (cyclically mod n+1) span a 2D cone of the fan.
    """
    rays = [Vector([-1] * n)]
    rays.extend(unit_vector(n, i) for i in range(n))
    return rays


def projective_fan_cones(n: int) -> list[Cone]:
    """All nonzero cones of the projective-space fan (proper ray subsets)."""
    rays = projective_fan_rays(n)
    out = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n + 1), size):
            out.append(Cone([rays[i] for i in subset], ambient=n))
    return out


def diaconis_fulton_map(n: int) -> RayTableMap:
    """The cyclic-difference ray table on the projective-space fan.

    Each ray gets the dual vector pairing to 1 with itself and -1 with the
    cyclically next ray: for the basis rays u_i = v_i - v_{i+1} (v = dual
    basis, v_{n+1} read as 0), and u_0 = -v_1 for the negative-sum ray.
    """
    rays = projective_fan_rays(n)
    entries = []
    entries.append((rays[0], -unit_vector(n, 0)))
    for i in range(1, n + 1):
        if i < n:
            u = unit_vector(n, i - 1) - unit_vector(n, i)
        else:
            u = unit_vector(n, n - 1)
        entries.append((rays[i], u))
    return RayTableMap(entries)


def consecutive_mod(i: int, j: int, n: int) -> bool:
    """Whether fan ray indices i, j are cyclically adjacent mod n+1."""
    return (j - i) % (n + 1) == 1 or (i - j) % (n + 1) == 1
