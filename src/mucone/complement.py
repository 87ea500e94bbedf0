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
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import NotGenericError, ParseError, UnknownRayError
from .geometry import Cone
from .linalg import (Matrix, Vector, cleared, dot, eliminate, format_rational, parse_rational,
                     primitive, unit_vector)


def _pairs(entries: Sequence[Fraction]) -> tuple[tuple[int, int], ...]:
    """Fraction entries as int (numerator, denominator) pairs, for map keys."""
    return tuple((e.numerator, e.denominator) for e in entries)


def _integral(row: Sequence) -> tuple[Sequence[int], int]:
    """(integer entries, scale) with row = entries / scale; an int row as it is."""
    return (row, 1) if all(type(x) is int for x in row) else cleared(row)


class PsiSubspace:
    """The complement subspace assigned to a set of rays, with its pivot vectors.

    `rays` are int tuples (cone generators) or rational tuples, and `basis`
    spans the assigned subspace (int tuples for an InnerProductMap, else
    Vectors).  With each basis vector cleared to ints B_j (the subspace is
    the same) and each ray w_i = W_i / a_i, u_j, the unique u in the subspace
    with <rays[i], u> = 1 if i = j, else 0, is a_j times row j of P^-T B,
    P[i][j] = <W_i, B_j>.  So one fraction-free elimination of the integer
    k x (k + n) matrix [P^T | B], ending at [d I | d P^-T B], decides
    genericity (pivots exactly 0..k-1: P is square and invertible) and solves
    for every pivot vector: u_j is numerators[j] / denominator, one positive
    denominator for all j.
    `ComplementMap.solve_u` reads one as a Vector.
    """

    __slots__ = ("rays", "basis", "numerators", "denominator")

    def __init__(self, rays: Sequence[Sequence], basis: Sequence[Sequence]):
        self.rays = tuple(rays)
        self.basis = tuple(basis)
        scaled = [_integral(w) for w in self.rays]  # w = ints / scale
        k = len(scaled)  # psi checked each ray against the map: all pairings are of one length
        rows = [[sum(map(mul, w, b)) for w, _ in scaled] + list(b)
                for b in (_integral(v)[0] for v in self.basis)]
        red, d, pivots = eliminate(rows)
        if len(rows) != k or pivots != list(range(k)):
            raise NotGenericError(
                f"complement subspace for {list(map(Vector, self.rays))} does not pair "
                "invertibly with the rays")
        nums = [[a * x for x in row[k:]] for row, (_, a) in zip(red, scaled)]
        # g takes d's sign, so the denominator d // g is positive
        g = gcd(d, *itertools.chain.from_iterable(nums)) * (1 if d > 0 else -1)
        self.numerators = tuple(tuple(x // g for x in u) for u in nums)
        self.denominator = d // g


class ComplementMap:
    """Base class; subclasses provide raw_basis() for a set of rays and set
    _key, built once from ints so that the mu cache hashes no Fraction."""

    ambient: int
    _key: tuple

    def raw_basis(self, rays: Sequence[Sequence]) -> list[Sequence]:
        """Vectors (or int tuples) spanning the subspace assigned to the rays."""
        raise NotImplementedError

    def psi(self, rays: Sequence[Sequence]) -> PsiSubspace:
        """The complement subspace and pivot vectors for the rays (int tuples
        such as cone generators, or Vectors); raises NotGeneric, and ValueError
        for a ray of another dimension than the map's.  Keyed by the rays as
        given: a Vector subset has its own entry."""
        rays = tuple(rays)
        cached = self._psi_cache.get(rays)
        if cached is None:
            for w in rays:
                if len(w) != self.ambient:
                    raise ValueError(f"ray of dimension {len(w)} for a map on R^{self.ambient}")
            cached = PsiSubspace(rays, self.raw_basis(rays))
            self._psi_cache[rays] = cached
        return cached

    def solve_u(self, rays: Sequence[Sequence], target: int) -> Vector:
        """The unique u in psi(rays) pairing to 1 with rays[target], 0 with the rest."""
        sub = self.psi(rays)
        if not 0 <= target < len(sub.numerators):
            raise ValueError(f"target {target} out of range for {len(sub.numerators)} rays")
        return Vector([Fraction(x, sub.denominator) for x in sub.numerators[target]])

    def key(self) -> tuple:
        return self._key

    def describe(self) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


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
        ints = cleared(itertools.chain.from_iterable(gram.rows))[0]
        self._gram_ints = [ints[i * n:(i + 1) * n] for i in range(n)]
        # Sylvester's criterion on the scaled Gram matrix.  With minors 1..k-1
        # positive, eliminating the leading k x k block swaps no row, so its
        # last pivot d is minor k (fewer than k pivots: minor k is 0).
        for k in range(1, n + 1):
            _, d, pivots = eliminate([row[:k] for row in self._gram_ints[:k]])
            if len(pivots) < k or d <= 0:
                raise ValueError("Gram matrix must be positive definite")
        self.gram = gram
        self.ambient = n
        self._key = ("inner_product", tuple(map(_pairs, gram.rows)))
        self._psi_cache: dict = {}
        self._images: dict = {}

    def raw_basis(self, rays: Sequence[Sequence]) -> list[tuple[int, ...]]:
        # the integer Gram images, each up to a positive scale that psi does not
        # see, built once per ray: the subsets of a fan share their rays
        for w in rays:
            if w not in self._images:
                self._images[w] = self._image(w)
        return [self._images[w] for w in rays]

    def _image(self, w: Sequence) -> tuple[int, ...]:
        ints = _integral(w)[0]
        return tuple(dot(row, ints) for row in self._gram_ints)

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
        if Matrix(basis).rank() != n:
            raise ValueError("flag basis must be linearly independent")
        self.basis = tuple(basis)
        self.ambient = n
        self._key = ("flag", tuple(_pairs(v.entries) for v in self.basis))
        self._psi_cache: dict = {}

    def raw_basis(self, rays: Sequence[Sequence]) -> list[Vector]:
        return list(self.basis[: len(rays)])

    def describe(self) -> str:
        return "flag"

    def to_json(self) -> dict:
        return {"type": "flag", "basis": [v.to_json() for v in self.basis]}


class RayTableMap(ComplementMap):
    """psi(S) = span of explicitly tabulated vectors, one per known ray.

    The table maps primitive int rays to rational Vectors."""

    def __init__(self, entries: dict | Iterable[tuple[Sequence, Vector]],
                 ambient: int | None = None):
        table: dict[tuple[int, ...], Vector] = {}
        pairs = entries.items() if isinstance(entries, dict) else entries
        for ray, u in pairs:
            ray = primitive(ray)
            if u.dot(ray) == 0:
                raise ValueError(f"table vector for ray {Vector(ray)} pairs to zero")
            table[ray] = u
        if not table and ambient is None:
            raise ValueError("ambient dimension required for an empty table")
        self.table = table
        self.ambient = ambient if ambient is not None else len(next(iter(table)))
        if any(len(ray) != self.ambient for ray in table):
            raise ValueError(f"table rays must all have dimension {self.ambient}")
        self._key = ("ray_table",
                     tuple(sorted((r, _pairs(u.entries)) for r, u in table.items())))
        self._psi_cache: dict = {}

    def raw_basis(self, rays: Sequence[Sequence]) -> list[Vector]:
        out = []
        for r in map(primitive, rays):
            if r not in self.table:
                raise UnknownRayError(f"no table entry for ray {Vector(r)}")
            out.append(self.table[r])
        return out

    def describe(self) -> str:
        return "ray_table"

    def to_json(self) -> dict:
        return {"type": "ray_table",
                "entries": [{"ray": list(map(format_rational, r)), "u": u.to_json()}
                            for r, u in sorted(self.table.items(), key=lambda it: it[0])]}


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


def projective_fan_rays(n: int) -> list[tuple[int, ...]]:
    """Rays of the n-dimensional projective-space fan: e_1..e_n and -sum(e_i).

    Index 0 holds the negative-sum ray; 1..n the basis rays, so that rays
    i and i+1 (cyclically mod n+1) span a 2D cone of the fan.
    """
    return [(-1,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]


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
