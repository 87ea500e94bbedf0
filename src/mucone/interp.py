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
explicit alternating sum over chains of subsets, a recursion over subsets
run on all interpolation nodes at once.  Both routes read psi in one
order, _subsets, and raise its first failure in it.

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
from operator import mul

from .errors import (InconsistentExplicitFormulaError, InternalInconsistencyError,
                     NotGenericError, UnknownRayError)
from .geometry import Cone, Polytope
from .linalg import Vector, cleared, format_rational
from .series import LaurentSeries, MultiSeries, restrict_to_direction, todd_univariate

DEFAULT_ORDER = 6


class SquarefreeReducer:
    """The squarefree normal form of the Todd element, on lines, as commuting
    operators.

    Multiplication by D_i is a linear map M_i on the squarefree monomials:
    D_i D_S = D_(S+i) for i outside S, else the rewrite of the module
    docstring, whose right side is squarefree.  The normal form is unique,
    so the M_i commute and the Todd element's form is Td(M_1)...Td(M_k) 1,
    one factor per generator, in generator order.  A vector maps (S, r) to one int
    N per pair of a basic cell (k generators each) and a line t*y,
    cell-major, for N / L^(|S| + r) times t^r.  L is the line's denominator
    times the lcm m of the cell's pivot denominators (PsiSubspace.denominator,
    read once per subset and cell), so L*<u,y> and L*<w_j,u> are integers.
    A psi failure raises at set-up, in the order of cell, subset size and
    subset, except on the full subset at order 0, which is never rewritten.
    """

    def __init__(self, cells, lines, cmap, order: int = DEFAULT_ORDER):
        self.order = order
        self.k = k = len(cells[0].generators)
        if not all(c.is_basic and len(c.generators) == k for c in cells):
            raise ValueError("reduction is defined over basic cones with equally many generators")
        if any(len(line) != cells[0].ambient for line in lines):
            raise ValueError("direction dimension mismatch")
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
        """L<u,y> and [-L<w_j,u> for j in rest] per line, in one cell (all of the
        ambient length: psi checks the rays, __init__ the lines)."""
        rays, subs, m = cell
        sub = subs[s]
        u, per = sub.numerators[self._sorted[s].index(i)], m // sub.denominator
        spill = [-per * sum(map(mul, rays[j], u)) for j in rest]
        return [(per * sum(map(mul, u, y)), [q * w for w in spill]) for y, q in self._lines]

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
        for i in range(k):
            power, vec = vec, {}
            for m, a in enumerate(tdn):
                if a:
                    for (s, r), c in power.items():
                        if i < k - 1 or s == full:
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


def mu_basic(cone: Cone, cmap, order: int = DEFAULT_ORDER) -> MuValue:
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
    rows = SquarefreeReducer(cone.basic_cells, lines, cmap, order).reduce()

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


def _chain_sums(own, steps, cols, qs, k: int, order: int) -> list[tuple[list[int], int]]:
    """Per node y, t^k times the chain sum on the line t*y, through
    t^(k + order), as integer numerators over one positive denominator.

    cols[j][v] / qs[j] = <form j, y> at node v, nonzero, qs[j] > 0.  Splitting
    each chain from T to the full set S at its first step T < T' gives T's
    chain sum without T's own forms as g_S = 1 and
    g_T = -sum over T' of g_T' / prod_(c in T' - T) <u_(T',c), y>,
    so the chain sum over T is c_T = g_T / prod_(t in T) <u_(T,t), y>.  On
    the line the whole sum is t^-k sum_T c_T num_T(t), num_T(t) the product
    of td(<u,y> t) over T's pivots u.  Where mu is a power series, the
    coefficients of t^0..t^(k-1) cancel and the t^(k+r) coefficient is
    p_r(y), the degree-r part of mu at y.

    Each value is a list over the nodes, g a pair of integer lists with one
    gcd per T and node.  With <u,y> = p/q, d*q^cap * td(<u,y> t) has the
    integer coefficients (d td_m) p^m q^(cap-m).  T is left out only where g_T
    is 0 at every node; the terms are summed over each node's lcm of their
    denominators, and the products formed one output coefficient at a time.
    """
    cap = k + order
    tdn, d = _todd_over_integers(cap)
    todd = [(m, c) for m, c in enumerate(tdn) if c]  # td_m = 0 at odd m >= 3
    ones, terms = [1] * len(cols[0]), []  # terms: (num_T, den_T), None a zero coefficient
    last = len(own) - 1
    g = [None] * last + [(ones, ones)]  # g_S
    for t in reversed(range(len(own))):
        if t < last:  # g_T = -a / b
            a, b = [0] * len(ones), ones
            for j, forms in steps[t]:
                ga, gb = g[j]
                p = [prod(v) for v in zip(gb, *(cols[f] for f in forms))]
                q = prod(qs[f] for f in forms)
                a = [x * y + z * q * w for x, y, z, w in zip(a, p, ga, b)]
                b = [x * y for x, y in zip(b, p)]
            r = list(map(gcd, a, b))
            g[t] = [-x // y for x, y in zip(a, r)], [x // y for x, y in zip(b, r)]
        a, b = g[t]
        if not any(a):
            continue
        q = prod(qs[j] for j in own[t])
        num = [[x * q for x in a]] + [None] * cap
        q = prod(d * qs[j] ** cap for j in own[t])  # d*q^cap: one per form
        den = [prod(v) * q for v in zip(b, *(cols[j] for j in own[t]))]
        for j in own[t]:
            factor = [(m, c * qs[j] ** (cap - m)) for m, c in todd]  # q^(cap-m): one per form
            factor = [(m, [c * x ** m for x in cols[j]]) for m, c in factor]
            out = []
            for i in range(cap + 1):
                acc = None
                for m, f in factor:
                    xs = num[i - m] if m <= i else None
                    if xs is not None:
                        acc = ([x * y for x, y in zip(xs, f)] if acc is None
                               else [z + x * y for z, x, y in zip(acc, xs, f)])
                out.append(acc)
            num = out
        terms.append((num, den))
    common = [lcm(*ds) for ds in zip(*(den for _, den in terms))]
    total = [[0] * len(ones) for _ in range(cap + 1)]
    for num, den in terms:
        ratio = [c // x for c, x in zip(common, den)]
        total = [z if xs is None else [a + x * s for a, x, s in zip(z, xs, ratio)]
                 for z, xs in zip(total, num)]
    return [(list(row), c) for row, c in zip(zip(*total), common)]


def _nodes(forms, m: int, levels: int):
    """The lattice with the least shift = 1, 2, ... on which no form
    (numerators, q) vanishes, each shift left at its first node where one does,
    and per form the tuple of its integer values <u, y> at its points y = (1, x).
    Terminates: a form that vanishes at a node for infinitely many shifts is zero."""
    shift = 1
    while True:
        lattice, rows = _lattice(m, levels, shift), []
        for x in lattice.coords:
            rows.append([sum(map(mul, u, (1,) + x)) for u, _ in forms])
            if not all(rows[-1]):
                break
        else:
            return lattice, list(zip(*rows))
        shift += 1


def mu_explicit(cone: Cone, cmap, order: int = DEFAULT_ORDER) -> MuValue:
    """mu assembled from the closed chain-sum formula: sum over subsets T of
    td(pivots of T) times the alternating chain sum from T to the full set,
    the chains summed by splitting each at its first step (_chain_sums).

    The degree-r part p_r of mu is a homogeneous polynomial.  The chain sum
    is evaluated on lines t*y with y = (1, x) at the points x of a
    principal lattice one level deeper than any degree needs, all nodes in
    one batch (for n = 1 with the second point y = 2 as one more node), and
    _interpolate rebuilds the series.  A pole on any line, a nonzero Newton
    coefficient of p_r above degree r, or (for n = 1) a mismatch at y = 2
    aborts the run as an internal inconsistency.
    """
    k, n = len(cone.generators), cone.ambient
    if not k:  # the zero cone, the only cone of R^0: the empty Todd product, 1
        return MuValue(cone, cmap.key(), order, MultiSeries.constant(1, n, order), "explicit")
    forms, own, steps = _explicit_terms(cone, cmap)

    def fail(what: str):
        raise InconsistentExplicitFormulaError(
            f"{what}: cone={cone!r} map={cmap.describe()}")

    lattice, cols = _nodes(forms, n - 1, order + 1)
    if n == 1:  # y = 2: every value doubled
        cols = [col + (2 * col[0],) for col in cols]
    rows = _chain_sums(own, steps, cols, [q for _, q in forms], k, order)
    if any(any(line[:k]) for line, _ in rows):
        fail("chain sum has a pole on a line")
    values = [(line[k:], den) for line, den in rows]
    if n == 1:  # b_r / B == 2^r a_r / A, cross-multiplied
        (first, A), (second, B) = values
        if any(b * A != a * 2 ** r * B for r, (a, b) in enumerate(zip(first, second))):
            fail("chain sum is not homogeneous on the line")
        values = values[:1]
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


def _line_row(cone: Cone, cmap, line: Vector, order: int,
              cross_validate: bool) -> tuple[list[int], int]:
    """mu_on_line's Taylor numerators through t^order over one positive
    denominator, as the reduction yields them; verify_interpolator reads it."""
    [(nums, den)] = SquarefreeReducer(cone.basic_cells, [line], cmap, order).reduce()
    if cross_validate:
        full = restrict_to_direction(mu(cone, cmap, order, True).series, line)
        if any(full.coefficient(r) * den != x for r, x in enumerate(nums)):
            raise InternalInconsistencyError("line and full reduction disagree: "
                                             f"cone={cone!r} map={cmap.describe()} line={line}")
    return nums, den


def mu_on_line(cone: Cone, cmap, line: Vector, order: int = DEFAULT_ORDER,
               cross_validate: bool = False) -> LaurentSeries:
    """mu of a pointed generic cone restricted to the line t*line.

    Equals restrict_to_direction(mu(cone, cmap, order).series, line)
    exactly: one reduction of all the basic cells on the line (_line_row),
    with psi failures raised at its set-up in the first failing cell, as a
    cell-by-cell run would raise them.  Values depend on the line, so
    nothing is cached.  cross_validate then computes the cone's full mu
    with the cross-check (see mu) and aborts unless its restriction matches.
    """
    nums, den = _line_row(cone, cmap, line, order, cross_validate)
    return LaurentSeries.from_taylor([Fraction(x, den) for x in nums], order)


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

