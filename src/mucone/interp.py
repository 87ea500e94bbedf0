"""Squarefree normal forms over a basic cone and the local coefficients mu.

A basic pointed cone with generators w_1..w_k and a complement map supply,
for each generator subset S and each position i in S, a pivot vector u
with <w_i,u> = 1 and <w_j,u> = 0 for the other j in S.  The relation

    D_i D_S = u * D_S - sum over j outside S of <w_j,u> D_j D_S

rewrites any repeated variable into squarefree terms, so multiplication by
D_i is a linear map M_i on the squarefree monomials.  The normal form is
unique, so the M_i commute, and the Todd element's form is
Td(M_1)...Td(M_k) applied to 1.  mu is the coefficient of the full product
D_1...D_k in it, and is computed a second, independent way from an
explicit alternating sum over chains of subsets, run as a recursion over
subsets.  Both routes read psi in one order, _subsets, and raise its first
failure in it.

Grading: with each D_i and each coordinate v_i of degree 1 the relation
is homogeneous, so the coefficient of D_S in the normal form of D^e is a
homogeneous polynomial of degree r = |e| - |S|, and every coefficient of
the Todd element is a constant.  No M_i lowers r or shrinks S, so the
reducer drops every entry with r > order: it cannot reach the full subset
at degree <= order.  On a line t*y the coefficient is a scalar times t^r,
so the reduction runs in one ring, ints on lines (SquarefreeReducer).  mu
is additive over basic cells, so the reducer sums a cone's cells on each
line: mu_on_line reduces on one line, and mu_basic on the lines of an
interpolation lattice, whose values determine the series.  Both line
kernels give integer Taylor numerators over one positive denominator per
line, which _interpolate takes as they are.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import factorial, gcd, lcm, prod

from .errors import (InconsistentExplicitFormulaError, InternalInconsistencyError,
                     NotGenericError, UnknownRayError)
from .geometry import Cone, Polytope
from .linalg import Vector, cleared, dot, format_rational
from .series import LaurentSeries, MultiSeries, restrict_to_direction, todd_univariate

DEFAULT_ORDER = 6


class SquarefreeReducer:
    """The squarefree normal form of the Todd element, on lines, as commuting
    operators.

    Multiplication by D_i is a linear map M_i on the squarefree monomials:
    D_i D_S = D_(S+i) for i outside S, else the rewrite of the module
    docstring, whose right side is squarefree.  The normal form is unique,
    so the M_i commute and the Todd element's form is Td(M_1)...Td(M_k) 1,
    one factor per position of pivot_order.  A vector maps (S, r) to one int
    N per pair of a basic cell (k generators each) and a line t*y,
    cell-major, for N / L^(|S| + r) times t^r.  L is the line's denominator
    times the lcm m of the cell's pivot denominators (PsiSubspace.denominator,
    read once per subset and cell), so L*<u,y> and L*<w_j,u> are integers.
    A psi failure raises at set-up, in the order of cell, subset size and
    subset, except on the full subset at order 0, which is never rewritten.
    """

    def __init__(self, cells, lines, cmap, order: int = DEFAULT_ORDER, pivot_order=None):
        self.order = order
        self.k = k = len(cells[0].generators)
        if not all(c.is_basic and len(c.generators) == k for c in cells):
            raise ValueError("reduction is defined over basic cones with equally many generators")
        self.pivot_order = tuple(range(k) if pivot_order is None else map(int, pivot_order))
        if sorted(self.pivot_order) != list(range(k)):
            raise ValueError("pivot_order must permute the generator positions")
        self._rewrites = {}
        self._cells = []  # (rays, psi per subset, m)
        self._sorted = {s: tuple(sorted(s)) for s in _subsets(k)}
        for cell in cells:
            rays, subs = cell.generators, {}
            for s, idx in self._sorted.items():
                try:
                    subs[s] = cmap.psi(tuple(rays[j] for j in idx))
                except (NotGenericError, UnknownRayError):
                    if len(s) < k or order:
                        raise
            self._cells.append((rays, subs, lcm(*(p.denominator for p in subs.values()))))
        self._lines = [cleared(line) for line in lines]  # (y, q)
        self._scales = [m * q for _, _, m in self._cells for _, q in self._lines]

    def _pivot(self, cell, s: frozenset[int], i: int, rest: list[int]):
        """L<u,y> and [-L<w_j,u> for j in rest] per line, in one cell."""
        rays, subs, m = cell
        sub = subs[s]
        u, per = sub.numerators[self._sorted[s].index(i)], m // sub.denominator
        spill = [-per * dot(rays[j], u) for j in rest]
        return [(per * dot(u, y), [q * w for w in spill]) for y, q in self._lines]

    def _rewrite(self, s: frozenset[int], i: int):
        """D_i D_S = u D_S - sum_{j not in S} <w_j,u> D_j D_S, as the pair (u per
        pair, [(S + j, -<w_j,u> per pair) if any is nonzero, ...])."""
        got = self._rewrites.get((s, i))
        if got is None:
            rest = [j for j in range(self.k) if j not in s]
            us, spills = zip(*(pair for cell in self._cells
                               for pair in self._pivot(cell, s, i, rest)))
            got = self._rewrites[(s, i)] = (
                us, [(s | {j}, col) for j, col in zip(rest, zip(*spills)) if any(col)])
        return got

    def _apply(self, vec: dict, i: int) -> dict:
        """M_i vec, without the entries of t-degree above order.  Empties vec
        as it reads it, so each column is let go once read."""
        out: dict[tuple[frozenset[int], int], list[int]] = {}
        for s, r in list(vec):
            c = vec.pop((s, r))
            if i not in s:
                _bump(out, (s | {i}, r), [x * L for x, L in zip(c, self._scales)])
            elif r < self.order or len(s) < self.k:  # else nothing of it survives
                u, spill = self._rewrite(s, i)
                if r < self.order:
                    _bump(out, (s, r + 1), [x * y for x, y in zip(c, u)])
                for t, w in spill:
                    _bump(out, (t, r), [x * y for x, y in zip(w, c)])
        return out

    def reduce(self) -> list[tuple[list[int], int]]:
        """Per line, the full-subset coefficient of the Todd element through
        t^order summed over the cells, as ([sum of N_r (Q/L)^(k + r) Q^(order - r)
        for r <= order], d^k Q^(k + order)) for each cell's stored (full, r) =
        N_r / (d^k L^(k + r)), Q the lcm of the line's L.  The factor of i maps
        vec to the sum of tdn[m] M_i^m vec over its power chain, tdn = d*td as
        in _todd_over_integers, and the last factor keeps only the full subset.
        Rescaling only here keeps each cell's walk on its own, smaller L."""
        k, order, full = self.k, self.order, frozenset(range(self.k))
        tdn, d = _todd_over_integers(k + order)
        vec = {(frozenset(), 0): [1] * len(self._scales)}
        for n, i in enumerate(self.pivot_order, 1):
            power, vec = vec, {}
            for m, a in enumerate(tdn):
                if a:
                    for (s, r), c in power.items():
                        if n < k or s == full:
                            _bump(vec, (s, r), [a * x for x in c])
                if m == k + order or not power:
                    break
                power = self._apply(power, i)
        tops = [vec.get((full, r)) for r in range(order + 1)]
        n, rows = len(self._lines), []
        for y in range(n):
            scales = self._scales[y::n]  # the line's L, cell by cell
            Q = lcm(*scales)
            one = len(scales) == 1  # Q = L: no rescale, no walk over the cells
            rows.append(([(top[y] if one else sum(top[c * n + y] * (Q // L) ** (k + r)
                                                  for c, L in enumerate(scales)))
                          * Q ** (order - r) if top else 0 for r, top in enumerate(tops)],
                         d ** k * Q ** (k + order)))
        return rows


def _bump(out: dict, key, c: list):
    got = out.get(key)
    out[key] = c if got is None else [x + y for x, y in zip(got, c)]


@cache
def _subsets(k: int) -> tuple[frozenset[int], ...]:
    """The nonempty subsets of range(k) by size, then by subset: the order
    both mu routes read psi in, so both raise psi's first failure in it."""
    return tuple(frozenset(s) for m in range(1, k + 1) for s in combinations(range(k), m))


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


def mu_basic(cone: Cone, cmap, order: int = DEFAULT_ORDER, pivot_order=None) -> MuValue:
    """mu of a pointed generic cone: the full-subset coefficient of the Todd element,
    summed over the cone's basic cells.  Its degree-r part is homogeneous of degree
    r, so one reduction walk of all the cells on the lines t*(1, x), x over the
    lattice nodes for degrees <= order, determines it (_interpolate); a Newton
    coefficient above degree r is an internal inconsistency.  Provenance
    "reduction" when the cone is basic, else "subdivision-sum"."""
    kind = "reduction" if cone.is_basic else "subdivision-sum"
    if not cone.ambient:  # R^0 has no lines; its one cone is zero
        return MuValue(cone, cmap.key(), order, MultiSeries.constant(1, 0, order), kind)
    lattice = _lattice(cone.ambient - 1, order, 1)
    lines = [(1,) + x for x in lattice.coords]
    rows = SquarefreeReducer(cone.basic_cells, lines, cmap, order, pivot_order).reduce()

    def fail(r: int):
        raise InternalInconsistencyError(f"reduction: degree-{r} part of mu is not a polynomial "
                                         f"of degree {r}: cone={cone!r} map={cmap.describe()}")

    return MuValue(cone, cmap.key(), order, _interpolate(lattice, rows, order, fail), kind)


# -- explicit chain-sum route ------------------------------------------------


class _Lattice:
    """The principal lattice of interpolation nodes in the chart y_1 = 1.

    Axis d (0-based, over the coordinates y_2..y_n) has the equally spaced
    nodes x_s = s*h_d + shift**(d + 1) with h_d = d + 2, s = 0..levels; the
    points are the node tuples `coords` of the multi-indices alpha with
    |alpha| <= levels.  `lines[d]` lists, per line along axis d, the point
    positions in increasing alpha_d.  On equally spaced nodes the Newton
    coefficient of alpha is the forward difference D^alpha f over
    prod_d alpha_d! h_d^alpha_d, so `newton[p]` expands the basis polynomial
    prod_d prod_{s < alpha_d} (x_d - x_s) over that weight into (exponent,
    integer) pairs, all over the one common `denominator`.
    """

    __slots__ = ("points", "coords", "lines", "newton", "denominator")

    def __init__(self, m: int, levels: int, shift: int):
        steps = [d + 2 for d in range(m)]
        axes = [[s * h + shift ** (d + 1) for s in range(levels + 1)]
                for d, h in enumerate(steps)]
        self.points = [a for a in product(range(levels + 1), repeat=m) if sum(a) <= levels]
        self.coords = [tuple(xs[a] for xs, a in zip(axes, alpha)) for alpha in self.points]
        self.lines = []
        for d in range(m):
            lines: dict[tuple, list[int]] = {}
            for pos, alpha in enumerate(self.points):  # lexicographic: alpha_d increases
                lines.setdefault(alpha[:d] + alpha[d + 1:], []).append(pos)
            self.lines.append(list(lines.values()))
        # per axis, prod_{s < a} (x - x_s) as a coefficient list, for a = 0..levels
        basis = []
        for xs in axes:
            polys = [[1]]
            for x in xs:
                p = polys[-1] + [0]
                polys.append([(p[i - 1] if i else 0) - x * p[i] for i in range(len(p))])
            basis.append(polys)
        weights = [prod(factorial(a) * h ** a for a, h in zip(alpha, steps))
                   for alpha in self.points]
        self.denominator = lcm(*weights)
        self.newton = []
        for alpha, w in zip(self.points, weights):
            terms = [((), self.denominator // w)]
            for polys, a in zip(basis, alpha):
                terms = [(beta + (b,), c * e) for beta, c in terms
                         for b, e in enumerate(polys[a]) if e]
            self.newton.append(terms)


@cache
def _lattice(m: int, levels: int, shift: int) -> _Lattice:
    return _Lattice(m, levels, shift)


def _explicit_terms(cone: Cone, cmap):
    """The chain sum for the full subset as a recursion over subsets.

    Over the subsets T in the order of the empty set, then _subsets(k),
    returns (forms, own, steps): psi's integer pivot (numerators,
    denominator) per subset and position, read subset by subset in that
    order, so a failing map raises psi's error on the first failing subset;
    per T, the positions in forms of T's own pivots; and per T, one step
    (index of T', positions of the pivots of T' - T inside T') for each T'
    strictly containing T.  The full set comes last and has no steps.
    """
    gens, subsets = cone.generators, (frozenset(),) + _subsets(len(cone.generators))
    forms, own = [], []
    for T in subsets:
        idx = sorted(T)
        own.append({t: len(forms) + n for n, t in enumerate(idx)})
        if idx:
            sub = cmap.psi(tuple(gens[j] for j in idx))
            forms += [(u, sub.denominator) for u in sub.numerators]
    steps = [[(j, [own[j][c] for c in sorted(hi - lo)]) for j, hi in enumerate(subsets) if lo < hi]
             for lo in subsets]
    return forms, [list(o.values()) for o in own], steps


@cache
def _todd_over_integers(cap: int) -> tuple[tuple[int, ...], int]:
    """((d*td_0, ..., d*td_cap), d) with d the least common denominator."""
    tdn, d = cleared(todd_univariate(cap))
    return tuple(tdn), d


def _chain_sum_on_line(own, steps, pq, k: int, order: int) -> tuple[list[int], int]:
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


def _nodes(forms, m: int, levels: int):
    """The lattice with the least shift = 1, 2, ... on which no form
    (numerators, q) vanishes, each shift left at its first node where one does,
    and the forms' values at its points y = (1, x) as integer pairs (p, q).
    Terminates: a form that vanishes at a node for infinitely many shifts is zero."""
    shift = 1
    while True:
        lattice, rows = _lattice(m, levels, shift), []
        for x in lattice.coords:
            rows.append([(dot(u, (1,) + x), q) for u, q in forms])
            if not all(p for p, _ in rows[-1]):
                break
        else:
            return lattice, rows
        shift += 1


def mu_explicit(cone: Cone, cmap, order: int = DEFAULT_ORDER) -> MuValue:
    """mu assembled from the closed chain-sum formula: sum over subsets T of
    td(pivots of T) times the alternating chain sum from T to the full set,
    the chains summed by splitting each at its first step (_chain_sum_on_line).

    The degree-r part p_r of mu is a homogeneous polynomial.  The chain sum
    is evaluated on lines t*y with y = (1, x) at the points x of a
    principal lattice one level deeper than any degree needs, and
    _interpolate rebuilds the series.  A pole on any line,
    a nonzero Newton coefficient of p_r above degree r, or (for n = 1) a
    mismatch at the second point y = 2 aborts the run as an internal
    inconsistency.
    """
    if not cone.ambient:  # R^0 has no lines; its one cone is zero
        return MuValue(cone, cmap.key(), order, MultiSeries.constant(1, 0, order), "explicit")
    k = len(cone.generators)
    n = cone.ambient
    forms, own, steps = _explicit_terms(cone, cmap)

    def fail(what: str):
        raise InconsistentExplicitFormulaError(
            f"{what}: cone={cone!r} map={cmap.describe()}")

    def taylor(row):
        line, den = _chain_sum_on_line(own, steps, row, k, order)
        if any(line[:k]):
            fail("chain sum has a pole on a line")
        return line[k:], den

    lattice, rows = _nodes(forms, n - 1, order + 1)
    values = [taylor(row) for row in rows]
    if n == 1:  # b_r / B == 2^r a_r / A, cross-multiplied
        (first, A), (second, B) = values[0], taylor([(2 * p, q) for p, q in rows[0]])
        if any(b * A != a * 2 ** r * B for r, (a, b) in enumerate(zip(first, second))):
            fail("chain sum is not homogeneous on the line")
    series = _interpolate(lattice, values, order, lambda r: fail(
        f"degree-{r} part of the chain sum is not a polynomial of degree {r}"))
    return MuValue(cone, cmap.key(), order, series, "explicit")


def _interpolate(lattice: _Lattice, rows, order: int, fail) -> MultiSeries:
    """The series whose homogeneous degree-r part p_r has p_r(1, x) = N_r / q
    at the p-th lattice point x, rows[p] = ([N_0, ..., N_order], q), q > 0:
    differences axis by axis give p_r's Newton coefficients in the chart
    y_1 = 1, which expand to monomials and homogenize.  A nonzero Newton
    coefficient of p_r above degree r calls fail(r), which raises, so the
    series is built unchecked: every exponent is (r - |beta|,) + beta with
    |beta| <= |alpha| <= r <= order, beta a monomial of alpha's Newton basis
    polynomial, and zero sums are dropped."""
    # forward differences, in integers over the common denominator
    den = lcm(*(q for _, q in rows))
    diffs = [[x * (den // q) for x in nums] for nums, q in rows]
    for lines in lattice.lines:
        for line in lines:
            for j in range(1, len(line)):
                for i in range(len(line) - 1, j - 1, -1):
                    diffs[line[i]] = [a - b for a, b in zip(diffs[line[i]], diffs[line[i - 1]])]
    coeffs: dict[tuple[int, ...], int] = {}
    for alpha, newton, row in zip(lattice.points, lattice.newton, diffs):
        for r, c in enumerate(row):
            if not c:
                continue
            if sum(alpha) > r:
                fail(r)
            for beta, e in newton:
                expo = (r - sum(beta),) + beta
                coeffs[expo] = coeffs.get(expo, 0) + c * e
    den *= lattice.denominator
    n = len(lattice.points[0]) + 1
    return MultiSeries._trusted(n, order, {e: Fraction(c, den) for e, c in coeffs.items() if c})


# -- the full mu, any pointed generic cone ------------------------------------


_MU_CACHE: dict[tuple, MuValue] = {}


def clear_mu_cache():
    _MU_CACHE.clear()


def mu(cone: Cone, cmap, order: int = DEFAULT_ORDER,
       cross_validate: bool = False) -> MuValue:
    """mu of a pointed generic cone (the zero cone among them, with mu 1):
    one mu_basic reduction of all its basic cells, cached.  cross_validate
    first reruns each basic cell, in order, through the reduction and the
    explicit formula and aborts on any mismatch.  That formula reads psi on
    the full subset at every order, so at order 0 it may raise
    NotGenericError on a cone whose reduction never reads that psi.
    """
    key = (cone.canonical_key(), cmap.key(), order, bool(cross_validate))
    got = _MU_CACHE.get(key)
    if got is not None:
        # the key ignores generator order; report the caller's cone
        return MuValue(cone, got.map_key, order, got.series, got.provenance)
    if cross_validate:
        for cell in cone.basic_cells:
            val, other = mu_basic(cell, cmap, order), mu_explicit(cell, cmap, order)
            if val.series != other.series:
                raise InternalInconsistencyError(
                    "reduction and explicit formula disagree: "
                    f"cone={cell!r} map={cmap.describe()} "
                    f"reduction={val.series!r} explicit={other.series!r}")
    if not (cross_validate and cone.is_basic):  # else val reduced its one cell, itself
        val = mu_basic(cone, cmap, order)
    _MU_CACHE[key] = val
    return val


def mu_on_line(cone: Cone, cmap, line: Vector, order: int = DEFAULT_ORDER,
               cross_validate: bool = False) -> LaurentSeries:
    """mu of a pointed generic cone restricted to the line t*line.

    Equals restrict_to_direction(mu(cone, cmap, order).series, line)
    exactly: one reduction of all the basic cells on the line, with psi
    failures raised at its set-up in the first failing cell, as a
    cell-by-cell run would raise them.  Values depend on the line, so
    nothing is cached.  cross_validate then computes the cone's full mu
    with the cross-check (see mu) and aborts unless its restriction matches.
    """
    if len(line) != cone.ambient:
        raise ValueError("direction dimension mismatch")
    [(nums, den)] = SquarefreeReducer(cone.basic_cells, [line], cmap, order).reduce()
    got = LaurentSeries.from_taylor([Fraction(x, den) for x in nums], order)
    if cross_validate and restrict_to_direction(mu(cone, cmap, order, True).series, line) != got:
        raise InternalInconsistencyError("line and full reduction disagree: "
                                         f"cone={cone!r} map={cmap.describe()} line={line}")
    return got


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
    entries = [(f, mu(nc, cmap, order, cross_validate)) for f, nc in polytope.normal_cones]
    return MuTable(polytope, cmap.key(), order, entries)

