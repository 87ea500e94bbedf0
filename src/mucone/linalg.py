"""Exact linear algebra: integer lattice kernels and rational vectors.

Lattice data (ray generators, vertices, facet normals, the rows of a
subdivision cell) are tuples of Python ints, and the lattice routines here
take and return ints: eliminate, rank, kernel, primitive, dot, dual_rows
and lower_form, the column Hermite form that answers every lattice-index
question (cone_index, a cell's cosets, its saturated lattice). Rational data
(directions, pivot vectors, Gram and flag data, solutions of linear
systems) are Vectors and Matrices of fractions.Fraction entries. No floats
anywhere: a float entry raises TypeError. One fraction-free elimination of
integer rows, eliminate(), gives every rank, kernel, solution, span basis,
scaled inverse (dual_rows) and leading principal minor (the Gram check):
rational rows have their denominators cleared first.
The dual pairing between a cone's ambient space and the space its
polytopes live in is the coordinate dot product throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DependentGeneratorsError,
    ParseError,
    ZeroVectorError,
)


def parse_rational(s) -> Fraction:
    """Parse an int, or a "p" / "p/q" string, into a Fraction."""
    if isinstance(s, bool):
        raise ParseError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, Fraction):
        return s
    if isinstance(s, str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational string {s!r}") from exc
    raise ParseError(f"not a rational: {s!r}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" with positive denominator."""
    return str(Fraction(q))


def _exact(e) -> Fraction:
    """An entry as a Fraction; a float is refused, since its binary value is
    not the decimal it was written as (0.1 is 3602879701896397/2^55)."""
    if isinstance(e, float):
        raise TypeError(f"float entry {e!r}: use an int, a Fraction or a 'p/q' string")
    return e if type(e) is Fraction else Fraction(e)


class Vector:
    """Immutable exact rational vector. Entries are Fractions (ints normalize)."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries: Iterable):
        self.entries = tuple(map(_exact, entries))
        self._hash = hash(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Vector(%s)" % (", ".join(format_rational(e) for e in self.entries))

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(a + b for a, b in zip(self.entries, other.entries, strict=True))

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(a - b for a, b in zip(self.entries, other.entries, strict=True))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.entries)

    def __mul__(self, c) -> "Vector":
        c = _exact(c)
        return Vector(a * c for a in self.entries)

    __rmul__ = __mul__

    def dot(self, other: Sequence) -> Fraction:
        """Coordinate pairing <w, v> = sum_i w_i v_i, v a Vector or an int tuple."""
        return dot(self.entries, other)

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    @property
    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

    def to_json(self) -> list:
        return [format_rational(e) for e in self.entries]


def unit_vector(n: int, i: int) -> Vector:
    return Vector([1 if j == i else 0 for j in range(n)])


def dot(a: Sequence, b: Sequence):
    """Coordinate pairing of two equal-length sequences, e.g. of ints."""
    if len(a) != len(b):
        raise ValueError(f"dot of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def cleared(entries: Iterable[Fraction]) -> tuple[list[int], int]:
    """(integer numerators, least common denominator) of rational entries."""
    entries = list(entries)
    den = math.lcm(*(e.denominator for e in entries))
    return [e.numerator * (den // e.denominator) for e in entries], den


def primitive(v: Sequence) -> tuple[int, ...]:
    """The primitive integer vector (gcd 1) on the ray of a nonzero vector.

    Int entries are divided by their gcd; rational entries (a Vector, or
    Fractions, or "p/q" strings) have their denominators cleared first.
    """
    if not all(type(x) is int for x in v):
        v = cleared(Vector(v))[0]
    g = math.gcd(*v)
    if not g:
        raise ZeroVectorError("primitive() of the zero vector")
    return tuple(v) if g == 1 else tuple(x // g for x in v)


class Matrix:
    """Immutable exact rational matrix, stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(tuple(map(_exact, row)) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix(%r)" % [list(map(str, r)) for r in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows)) if self.rows else Matrix([])

    def rank(self) -> int:
        return len(eliminate_cleared(self.rows)[2])


def _require_ints(rows: Sequence[Sequence]):
    if not all(type(x) is int for row in rows for x in row):
        raise ValueError("integer entries required")


def eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int, list[int]]:
    """(d * R, d, pivots) for an integer matrix with reduced row echelon
    form R: fraction-free Gauss-Jordan elimination, each step divided
    exactly by the previous pivot, so every entry stays an integer (a minor
    of the input) and every pivot ends at the same d (d = 1 with no pivot).
    Rows below the rank end at zero; pivot rows are the first nonzero ones."""
    m = [list(row) for row in rows]
    nr, nc = len(m), (len(m[0]) if m else 0)
    pivots: list[int] = []
    d = 1
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        p = next((i for i in range(r, nr) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top, piv = m[r], m[r][c]
        m = [row if i == r else [(piv * x - row[c] * y) // d for x, y in zip(row, top)]
             for i, row in enumerate(m)]
        d = piv
        pivots.append(c)
    return m, d, pivots


def eliminate_cleared(rows: Iterable[Iterable]) -> tuple[list[list[int]], int, list[int]]:
    """eliminate() on rational rows, each row's denominators cleared first:
    scaling a row changes neither the RREF, nor the rank, nor the solutions."""
    return eliminate([cleared(row)[0] for row in rows])


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows."""
    return len(eliminate(rows)[2])


def kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Integer vectors spanning {x : rows . x = 0} over Q, one per free
    column f of the elimination: d at f, -(d R)[i][f] at the i-th pivot."""
    red, d, pivots = eliminate(rows)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        x = [0] * ncols
        x[f] = d
        for row, c in zip(red, pivots):
            x[c] = -row[f]
        basis.append(tuple(x))
    return basis


def solve_linear(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution x of a x = b, or None if b is outside the column span.

    Free variables (if any) are set to 0, so the solution is unique exactly
    when a has full column rank.
    """
    nc = a.ncols
    red, d, pivots = eliminate_cleared(row + (b[i],) for i, row in enumerate(a.rows))
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for row, c in zip(red, pivots):
        x[c] = Fraction(row[nc], d)
    return Vector(x)


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
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


def lower_form(generators: Sequence[Sequence[int]]) -> list[list[int]]:
    """L from the column Hermite form G U = [L | 0] of independent integer
    generators (the k rows of G): k x k, lower triangular, with a positive
    diagonal, each row's entries left of the diagonal reduced into
    [0, diagonal).  U is unimodular, so it maps Z^n  intersect  span(G)
    onto Z^k + 0: the rows of L are the generators' coordinates in a basis
    of the saturated lattice of their span.  The column operations act on
    G alone (U is never formed); a row with no pivot, as for dependent
    rows and k > n, raises DependentGeneratorsError."""
    _require_ints(generators)
    h = [list(row) for row in generators]
    k, n = len(h), len(h[0])
    for i, hi in enumerate(h):
        j0 = next((j for j in range(i, n) if hi[j]), None)
        if j0 is None:
            raise DependentGeneratorsError("generators are linearly dependent")
        # rows above i are zero from column i on, so the column operations
        # below leave them as they are
        rest = h[i:]
        if j0 != i:
            for r in rest:
                r[i], r[j0] = r[j0], r[i]
        for j in range(i + 1, n):
            bb = hi[j]
            if not bb:
                continue
            aa = hi[i]
            g, x, y = _extgcd(aa, bb)
            # unimodular 2-column mix sending (aa, bb) -> (g, 0)
            p, q = aa // g, bb // g
            for r in rest:
                a, b = r[i], r[j]
                r[i], r[j] = x * a + y * b, p * b - q * a
        if hi[i] < 0:
            for r in rest:
                r[i] = -r[i]
        piv = hi[i]
        for j in range(i):
            c = hi[j] // piv
            if c:
                for r in rest:
                    r[j] -= c * r[i]
    return [row[:k] for row in h]


def cone_index(generators: Sequence[Sequence[int]]) -> int:
    """Index of the sublattice spanned by independent integer generators
    inside the saturated lattice of their span: the product of
    lower_form's diagonal, |det L| (U keeps the gcd of the k x k minors)."""
    gens = list(generators)
    if not gens:
        return 1
    return math.prod(row[i] for i, row in enumerate(lower_form(gens)))


def dual_rows(generators: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Integer rows h_1..h_k for independent integer generators g_1..g_k,
    with h_i . g_j = 0 for j != i and h_i . g_i = d, one d > 0 for all i
    (no rows for no generators).  For a square G, h_j is column j of
    d G^-1.

    On the span of the generators h_i . w / d is the i-th coordinate of w
    in the generator basis: a point w of the span lies in the cone exactly
    when every h_i . w >= 0, and its coordinates have the signs of the
    h_i . w.  The elimination of [G | I], generators as the rows of G,
    ends at [d R | d E] with E G = R: on the pivot columns (the first
    coordinates whose minor is nonzero) R is the identity, so E inverts G
    there, and the columns of d E, padded by zeros, are the rows.
    """
    _require_ints(generators)
    if not generators:
        return []
    k, n = len(generators), len(generators[0])
    red, d, pivots = eliminate([list(row) + [int(i == j) for j in range(k)]
                                for i, row in enumerate(generators)])
    if pivots[-1] >= n:
        raise DependentGeneratorsError("generators are linearly dependent")
    sign, at = (1 if d > 0 else -1), {c: i for i, c in enumerate(pivots)}
    return [tuple(sign * red[at[c]][n + j] if c in at else 0 for c in range(n))
            for j in range(k)]
