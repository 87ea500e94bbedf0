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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

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


class CoefficientRing:
    """The ring the D-expansion coefficients live in, truncated at `order`.

    The reduction only ever embeds pivot vectors u as linear forms and
    multiplies, scales and adds the results, so the ring is fixed by how u
    embeds.  The full ring (line=None) keeps series in the ambient
    coordinates and embeds u as sum u_i v_i.  The line ring keeps
    one-variable series in t and embeds u as <u, line> t: that is the full
    ring followed by v_i |-> t*line_i, a ring homomorphism commuting with
    every step of the reduction and the subdivision sum, so line-ring
    results are exactly the restrictions of full-ring ones.
    """

    __slots__ = ("nvars", "order", "line")

    def __init__(self, ambient: int, order: int, line: Vector | None = None):
        if line is not None and len(line) != ambient:
            raise ValueError("direction dimension mismatch")
        self.nvars = ambient if line is None else 1
        self.order = order
        self.line = line

    def constant(self, c) -> MultiSeries:
        return MultiSeries.constant(c, self.nvars, self.order)

    def zero(self) -> MultiSeries:
        return MultiSeries.zero(self.nvars, self.order)

    def linear(self, u: Vector) -> MultiSeries:
        if self.line is not None:
            u = Vector([u.dot(self.line)])
        return MultiSeries.from_linear(u, self.order)


class RingElement:
    """Finite D-expansion with truncated power-series coefficients.

    `terms` maps a length-k exponent tuple to its coefficient series; the
    exponent total degree never exceeds `cap`, and coefficients are kept at
    total degree `order` in the ambient coordinates.  Exponents of degree
    above the cap are dropped at construction: by the weight argument in
    SquarefreeReducer they cannot reach any squarefree coefficient within
    the tracked degree.
    """

    __slots__ = ("k", "nvars", "order", "cap", "terms")

    def __init__(self, k: int, nvars: int, order: int, cap: int, terms=None):
        self.k = k
        self.nvars = nvars
        self.order = order
        self.cap = cap
        self.terms: dict[tuple[int, ...], MultiSeries] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != k or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent vector {expo}")
                if sum(expo) > cap:
                    continue
                c = coeff.truncate(order)
                if not c.is_zero:
                    self.terms[expo] = c

    def coefficient(self, expo) -> MultiSeries:
        got = self.terms.get(tuple(expo))
        return got if got is not None else MultiSeries.zero(self.nvars, self.order)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def d_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join(f"D{i+1}" + (f"^{x}" if x > 1 else "")
                            for i, x in enumerate(e) if x)
            bits.append(f"({self.terms[e]!r})" + (f"*{mono}" if mono else ""))
        return f"RingElement({' + '.join(bits) or '0'})"


class SquarefreeExpr:
    """Normal form: map from generator index subsets to coefficient series."""

    __slots__ = ("cone", "order", "nvars", "coeffs")

    def __init__(self, cone: Cone, order: int, coeffs, nvars: int | None = None):
        self.cone = cone
        self.order = order
        self.nvars = cone.ambient if nvars is None else nvars
        self.coeffs: dict[frozenset[int], MultiSeries] = {}
        for s, c in coeffs.items():
            c = c.truncate(order)
            if not c.is_zero:
                self.coeffs[frozenset(s)] = c

    def coefficient(self, subset) -> MultiSeries:
        got = self.coeffs.get(frozenset(subset))
        return got if got is not None else MultiSeries.zero(self.nvars, self.order)

    def support(self) -> set[frozenset[int]]:
        return set(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, SquarefreeExpr)
                and self.cone == other.cone
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.cone, frozenset(self.coeffs)))

    def __repr__(self):
        bits = [f"{sorted(s)}: {c!r}" for s, c in
                sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]
        return f"SquarefreeExpr({'; '.join(bits) or '0'})"


def pivot_vector(cone: Cone, cmap, subset, i: int) -> Vector:
    """u with <w_i,u> = 1 and <w_j,u> = 0 for the other j in the subset."""
    idx = sorted(subset)
    rays = tuple(cone.generators[j] for j in idx)
    return cmap.solve_u(rays, idx.index(i))


class SquarefreeReducer:
    """Memoized rewriting of D-monomials into squarefree normal form.

    Each rewrite of D_i D_S trades one D-degree for at most one coefficient
    degree and never lowers either, so a monomial of D-degree m only
    reaches the subset S with coefficient degree m - |S|.  Monomials above
    D-degree k + order are therefore irrelevant to any tracked coefficient.
    Coefficients live in CoefficientRing(cone.ambient, order, line).
    """

    def __init__(self, cone: Cone, cmap, order: int = DEFAULT_ORDER,
                 pivot_order=None, line: Vector | None = None):
        if not cone.is_basic:
            raise ValueError("reduction is defined over basic cones")
        self.cone = cone
        self.cmap = cmap
        self.order = order
        self.ring = CoefficientRing(cone.ambient, order, line)
        self.rays = cone.generators
        self.k = len(self.rays)
        if pivot_order is None:
            pivot_order = range(self.k)
        pivot_order = tuple(int(i) for i in pivot_order)
        if sorted(pivot_order) != list(range(self.k)):
            raise ValueError("pivot_order must permute the generator positions")
        self.pivot_order = pivot_order
        self._memo: dict[tuple[int, ...], dict[frozenset[int], MultiSeries]] = {}
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
            got = self._rewrites[(s, i)] = (self.ring.linear(u), spill)
        return got

    def reduce_monomial(self, expo) -> dict[frozenset[int], MultiSeries]:
        expo = tuple(int(e) for e in expo)
        got = self._memo.get(expo)
        if got is not None:
            return got
        if all(e <= 1 for e in expo):
            out = {frozenset(i for i, e in enumerate(expo) if e):
                   self.ring.constant(1)}
            self._memo[expo] = out
            return out
        i = next(j for j in self.pivot_order if expo[j] >= 2)
        inner = list(expo)
        inner[i] -= 1
        out: dict[frozenset[int], MultiSeries] = {}

        def bump(s, c):
            c = c.truncate(self.order)
            got = out.get(s)
            out[s] = c if got is None else got + c

        for s, c in self.reduce_monomial(tuple(inner)).items():
            if i not in s:
                bump(s | {i}, c)
                continue
            u, spill = self._rewrite(s, i)
            bump(s, c * u)
            for t, w in spill:
                bump(t, c.scale(w))
        out = {s: c for s, c in out.items() if not c.is_zero}
        self._memo[expo] = out
        return out

    def reduce(self, elem: RingElement) -> SquarefreeExpr:
        acc: dict[frozenset[int], MultiSeries] = {}
        for expo in sorted(elem.terms):
            coeff = elem.terms[expo]
            for s, c in self.reduce_monomial(expo).items():
                add = (coeff * c).truncate(self.order)
                got = acc.get(s)
                acc[s] = add if got is None else got + add
        return SquarefreeExpr(self.cone, self.order, acc, self.ring.nvars)


def td_element(cone: Cone, order: int = DEFAULT_ORDER,
               line: Vector | None = None) -> RingElement:
    """Product of univariate Todd series, one per generator, D-degree <= k + order.

    Coefficients live in CoefficientRing(cone.ambient, order, line).
    """
    k = len(cone.generators)
    ring = CoefficientRing(cone.ambient, order, line)
    cap = k + order
    td = todd_univariate(cap)
    terms = {(0,) * k: ring.constant(1)}
    for i in range(k):
        nxt: dict[tuple[int, ...], MultiSeries] = {}
        for expo, c in terms.items():
            room = cap - sum(expo)
            for m in range(room + 1):
                if td[m] == 0:
                    continue
                e = list(expo)
                e[i] += m
                e = tuple(e)
                add = c.scale(td[m])
                got = nxt.get(e)
                nxt[e] = add if got is None else got + add
        terms = nxt
    return RingElement(k, ring.nvars, order, cap, terms)


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


def _reduced_mu(cone: Cone, cmap, order: int, line: Vector | None = None,
                pivot_order=None) -> MultiSeries:
    """Full-subset coefficient of the Todd element of a generic basic cone."""
    reducer = SquarefreeReducer(cone, cmap, order, pivot_order, line)
    expr = reducer.reduce(td_element(cone, order, line))
    return expr.coefficient(range(len(cone.generators)))


def mu_basic(cone: Cone, cmap, order: int = DEFAULT_ORDER,
             pivot_order=None) -> MuValue:
    """mu of a generic basic cone: full-subset coefficient of the Todd element."""
    series = _reduced_mu(cone, cmap, order, pivot_order=pivot_order)
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
    exactly, but runs the reduction and the subdivision sum in the
    one-variable line ring (see CoefficientRing).  Values depend on the
    line, so nothing is cached.  `cells` is the cone's basic subdivision
    when the caller already has it.  cross_validate also computes each
    basic cell's full mu by both pipelines (see mu) and aborts unless its
    restriction matches the line value.
    """
    ring = CoefficientRing(cone.ambient, order, line)
    if cone.is_zero:
        total = ring.constant(1)
    else:
        if cells is None:
            cells = subdivide_to_basic(cone).children
        total = ring.zero()
        for cell in cells:
            val = _reduced_mu(cell, cmap, order, line)
            if cross_validate:
                full = mu(cell, cmap, order, cross_validate=True).series
                if restrict_to_direction(full, line) != _taylor(val):
                    raise InternalInconsistencyError(
                        "line-ring and full reduction disagree: "
                        f"cone={cell!r} map={cmap.describe()} line={line}")
            total = total + val
    return _taylor(total)


def _taylor(series: MultiSeries) -> LaurentSeries:
    """A one-variable series as a Taylor series in t."""
    return LaurentSeries.from_taylor(
        [series.coefficient((r,)) for r in range(series.order + 1)],
        series.order)


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

