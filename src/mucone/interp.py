"""Squarefree normal forms over a basic cone and the local coefficients mu.

A basic pointed cone with generators w_1..w_k and a complement map supply,
for each generator subset S and each position i in S, a pivot vector u
with <w_i,u> = 1 and <w_j,u> = 0 for the other j in S.  The relation

    D_i D_S = u * D_S - sum over j outside S of <w_j,u> D_j D_S

rewrites any repeated variable; supports only grow, so rewriting reaches
the unique squarefree normal form.  mu is the coefficient of the full
product D_1...D_k in the normal form of the Todd element, and is computed
a second, independent way from an explicit alternating sum over chains of
subsets.

Grading: with each D_i and each coordinate v_i of degree 1 the relation
is homogeneous, so the coefficient of D_S in the normal form of D^e is a
homogeneous polynomial of degree |e| - |S|, and every coefficient of the
Todd element is a constant.  The degree of an entry never falls under a
rewrite and supports only grow, so the reducer drops every entry with
|e| - |S| > order: it cannot reach the full subset at degree <= order.
The degree-r part of mu collects the monomials with |e| = k + r.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import combinations
from types import MappingProxyType

from .errors import InconsistentExplicitFormulaError, InternalInconsistencyError
from .geometry import Cone, Polytope, normal_cone, subdivide_to_basic
from .linalg import Vector, format_rational
from .series import (
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

DEFAULT_ORDER = 6


def pivot_vector(cone: Cone, cmap, subset, i: int) -> Vector:
    """u with <w_i,u> = 1 and <w_j,u> = 0 for the other j in the subset."""
    idx = sorted(subset)
    rays = tuple(cone.generators[j] for j in idx)
    return cmap.solve_u(rays, idx.index(i))


class SquarefreeReducer:
    """Memoized rewriting of D-monomials into squarefree normal form.

    reduce_monomial(e) maps each subset S to the coefficient of D_S, which
    is homogeneous of degree |e| - |S| (see the module docstring).  With
    line=None it is a MultiSeries of that order in the ambient coordinates;
    on a line it is one Fraction c standing for c * t^(|e| - |S|).  The
    two rings differ only in how a pivot u and the unit embed, fixed here
    once: u as sum u_i v_i or as <u, line>.
    """

    def __init__(self, cone: Cone, cmap, order: int = DEFAULT_ORDER,
                 pivot_order=None, line: Vector | None = None):
        if not cone.is_basic:
            raise ValueError("reduction is defined over basic cones")
        self.cone = cone
        self.cmap = cmap
        self.order = order
        self.rays = cone.generators
        self.k = len(self.rays)
        self.full = frozenset(range(self.k))
        if pivot_order is None:
            pivot_order = range(self.k)
        pivot_order = tuple(int(i) for i in pivot_order)
        if sorted(pivot_order) != list(range(self.k)):
            raise ValueError("pivot_order must permute the generator positions")
        self.pivot_order = pivot_order
        if line is None:
            n = cone.ambient
            self._unit = MultiSeries.constant(1, n, 0)
            self._embed = lambda u: MultiSeries.from_linear(u, 1)
            self._finish = lambda parts: MultiSeries(
                n, order, {m: x for p in parts.values() for m, x in p.coeffs.items()})
        else:
            self._unit = Fraction(1)
            self._embed = line.dot
            self._finish = lambda parts: [parts.get(r, Fraction(0))
                                          for r in range(order + 1)]
        self._memo: dict[tuple[int, ...], dict] = {}
        self._rewrites: dict[tuple[frozenset[int], int], tuple] = {}

    def _rewrite(self, s: frozenset[int], i: int):
        """D_i D_S = u D_S - sum_{j not in S} <w_j,u> D_j D_S, as the pair
        (u embedded in the coefficient ring, [(S + j, -<w_j,u>), ...])."""
        got = self._rewrites.get((s, i))
        if got is None:
            u = pivot_vector(self.cone, self.cmap, s, i)
            spill = []
            for j in range(self.k):
                if j not in s:
                    w = self.rays[j].dot(u)
                    if w:
                        spill.append((s | {j}, -w))
            got = self._rewrites[(s, i)] = (self._embed(u), spill)
        return got

    def reduce_monomial(self, expo) -> dict[frozenset[int], object]:
        expo = tuple(int(e) for e in expo)
        got = self._memo.get(expo)
        if got is not None:
            return got
        out: dict[frozenset[int], object] = {}
        if all(e <= 1 for e in expo):
            out[frozenset(i for i, e in enumerate(expo) if e)] = self._unit
            self._memo[expo] = out
            return out
        # D^e = D_i * D^(e - e_i), rewriting every term that repeats D_i
        i = next(j for j in self.pivot_order if expo[j] >= 2)
        inner = list(expo)
        inner[i] -= 1
        low = sum(expo) - self.order  # the drop rule: keep |S| >= |e| - order

        def bump(s, c):
            got = out.get(s)
            out[s] = c if got is None else got + c

        for s, c in self.reduce_monomial(tuple(inner)).items():
            if i not in s:
                bump(s | {i}, c)
                continue
            u, spill = self._rewrite(s, i)
            if len(s) >= low:
                bump(s, c * u)
            for t, w in spill:
                bump(t, w * c)
        self._memo[expo] = out
        return out

    def reduce(self, td: Mapping[tuple[int, ...], Fraction]):
        """Full-subset coefficient of sum_e td[e] D^e, which has degree
        |e| - k per term: a MultiSeries, or on a line its Taylor
        coefficients through t^order."""
        parts: dict[int, object] = {}
        for expo, a in td.items():
            c = self.reduce_monomial(expo).get(self.full)
            if c is not None:
                r = sum(expo) - self.k
                got = parts.get(r)
                parts[r] = a * c if got is None else got + a * c
        return self._finish(parts)


def td_element(cone: Cone, order: int = DEFAULT_ORDER) -> Mapping[tuple[int, ...], Fraction]:
    """The Todd element prod_i td(D_i) as {exponent: constant}, D-degree <= k + order.
    Built once per (k, order) and shared read-only."""
    return _td_element(len(cone.generators), order)


@cache
def _td_element(k: int, order: int) -> Mapping[tuple[int, ...], Fraction]:
    cap = k + order
    td = todd_univariate(cap)
    terms = {(0,) * k: Fraction(1)}
    for i in range(k):
        terms = {expo[:i] + (m,) + expo[i + 1:]: c * td[m]
                 for expo, c in terms.items()
                 for m in range(cap - sum(expo) + 1) if td[m]}
    return MappingProxyType(terms)


class MuValue:
    """A computed local coefficient with its provenance."""

    __slots__ = ("cone", "map_key", "order", "series", "provenance")

    def __init__(self, cone: Cone, map_key, order: int, series: MultiSeries,
                 provenance: str):
        if provenance not in ("reduction", "explicit", "subdivision-sum"):
            raise ValueError(f"unknown provenance {provenance!r}")
        self.cone = cone
        self.map_key = map_key
        self.order = order
        self.series = series.truncate(order)
        self.provenance = provenance

    @property
    def mu0(self) -> Fraction:
        return self.series.coefficient((0,) * self.cone.ambient)

    def to_json(self) -> dict:
        return {
            "cone": self.cone.to_json(),
            "order": self.order,
            "series": self.series.to_json(),
            "mu0": format_rational(self.mu0),
            "provenance": self.provenance,
        }

    def __repr__(self):
        return (f"MuValue(mu0={self.mu0}, provenance={self.provenance}, "
                f"cone={self.cone!r})")


def mu_basic(cone: Cone, cmap, order: int = DEFAULT_ORDER,
             pivot_order=None) -> MuValue:
    """mu of a generic basic cone: full-subset coefficient of the Todd element."""
    series = SquarefreeReducer(cone, cmap, order, pivot_order).reduce(td_element(cone, order))
    return MuValue(cone, cmap.key(), order, series, "reduction")


# -- explicit chain-sum route ------------------------------------------------


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


def _chain_terms(cone: Cone, cmap, S: frozenset, T: frozenset):
    """(sign, denominator forms) for each chain from T to S.

    The forms of one chain are the |T| pivots of T itself plus, per step,
    the pivots of the newly added positions inside the enlarged subset;
    every term carries exactly |S| linear forms.
    """
    out = []
    for chain in _chains_between(T, S):
        r = len(chain) - 1
        forms = [pivot_vector(cone, cmap, T, t) for t in sorted(T)]
        for lvl in range(1, r + 1):
            cur = chain[lvl]
            for c in sorted(cur - chain[lvl - 1]):
                forms.append(pivot_vector(cone, cmap, cur, c))
        out.append((Fraction((-1) ** r), forms))
    return out


def mu_explicit(cone: Cone, cmap, order: int = DEFAULT_ORDER) -> MuValue:
    """mu assembled from the closed chain-sum formula: sum over subsets T of
    td(pivots of T) times the alternating chain sum from T to the full set.

    All fractions go over one common denominator; the combined numerator
    must divide out exactly, or the run aborts as an internal inconsistency.
    """
    k = len(cone.generators)
    n = cone.ambient
    full = frozenset(range(k))
    raw: list[tuple[frozenset, Fraction, list[Vector]]] = []
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
    num, den = combine_over_common_denominator(terms, order)
    series = num
    try:
        for f in den:
            series = divide_by_linear_form(series, f)
    except ValueError as exc:
        raise InconsistentExplicitFormulaError(
            f"chain-sum numerator not divisible by its denominator: "
            f"cone={cone!r} map={cmap.describe()}") from exc
    return MuValue(cone, cmap.key(), order, series.truncate(order), "explicit")


# -- the full mu, any pointed generic cone ------------------------------------


_MU_CACHE: dict[tuple, MuValue] = {}


def clear_mu_cache():
    _MU_CACHE.clear()


def mu(cone: Cone, cmap, order: int = DEFAULT_ORDER,
       cross_validate: bool = False) -> MuValue:
    """mu of a pointed generic cone: by reduction when basic, else summed
    over a basic subdivision.  cross_validate reruns basic cones through
    the explicit formula and aborts on any mismatch.
    """
    if cone.is_zero:
        return MuValue(cone, cmap.key(), order,
                       MultiSeries.constant(1, cone.ambient, order), "reduction")
    key = (cone.canonical_key(), cmap.key(), order, bool(cross_validate))
    got = _MU_CACHE.get(key)
    if got is not None:
        # the key ignores generator order; report the caller's cone
        return MuValue(cone, got.map_key, order, got.series, got.provenance)
    if cone.is_basic:
        val = mu_basic(cone, cmap, order)
        if cross_validate:
            other = mu_explicit(cone, cmap, order)
            if val.series != other.series:
                raise InternalInconsistencyError(
                    "reduction and explicit formula disagree: "
                    f"cone={cone!r} map={cmap.describe()} "
                    f"reduction={val.series!r} explicit={other.series!r}")
    else:
        total = MultiSeries.zero(cone.ambient, order)
        for child in subdivide_to_basic(cone).children:
            total = total + mu(child, cmap, order, cross_validate).series
        val = MuValue(cone, cmap.key(), order, total, "subdivision-sum")
    _MU_CACHE[key] = val
    return val


def mu_on_line(cone: Cone, cmap, line: Vector, order: int = DEFAULT_ORDER,
               cells=None, cross_validate: bool = False) -> LaurentSeries:
    """mu of a pointed generic cone restricted to the line t*line.

    Equals restrict_to_direction(mu(cone, cmap, order).series, line)
    exactly, but runs the reduction with scalar coefficients on the line
    and sums the cells' Taylor coefficients.  Values depend on the line,
    so nothing is cached.  `cells` is the cone's basic subdivision when
    the caller already has it.  cross_validate also computes each basic
    cell's full mu by both pipelines (see mu) and aborts unless its
    restriction matches the line value.
    """
    if len(line) != cone.ambient:
        raise ValueError("direction dimension mismatch")
    if cone.is_zero:
        return LaurentSeries.from_taylor([1], order)
    if cells is None:
        cells = subdivide_to_basic(cone).children
    total = [Fraction(0)] * (order + 1)
    for cell in cells:
        val = SquarefreeReducer(cell, cmap, order, line=line).reduce(td_element(cell, order))
        if cross_validate:
            full = mu(cell, cmap, order, cross_validate=True).series
            if restrict_to_direction(full, line) != LaurentSeries.from_taylor(val, order):
                raise InternalInconsistencyError(
                    "line and full reduction disagree: "
                    f"cone={cell!r} map={cmap.describe()} line={line}")
        total = [a + b for a, b in zip(total, val)]
    return LaurentSeries.from_taylor(total, order)


class MuTable:
    """mu of the normal cone of every face of a polytope."""

    __slots__ = ("polytope", "map_key", "order", "entries")

    def __init__(self, polytope: Polytope, map_key, order: int, entries):
        self.polytope = polytope
        self.map_key = map_key
        self.order = order
        self.entries = tuple(entries)  # (Face, MuValue), face-lattice order

    def to_json(self) -> list:
        out = []
        for f, v in self.entries:
            out.append({
                "face_vertex_indices": sorted(f.indices),
                "normal_cone_generators": [list(map(format_rational, g))
                                           for g in v.cone.generators],
                "mu_series": v.series.to_json(),
                "mu0": format_rational(v.mu0),
                "provenance": v.provenance,
            })
        return out

    def __repr__(self):
        cells = ", ".join(f"{sorted(f.indices)}: {v.mu0}" for f, v in self.entries)
        return f"MuTable({cells})"


def mu_table(polytope: Polytope, cmap, order: int = DEFAULT_ORDER,
             cross_validate: bool = False) -> MuTable:
    """mu over the whole face lattice; faces ordered by (dim, vertex set)."""
    entries = [(f, mu(normal_cone(polytope, f), cmap, order, cross_validate))
               for f in polytope.faces]
    return MuTable(polytope, cmap.key(), order, entries)

