"""Exponential sums and integrals along a ray, counting, and verification.

Everything here is a univariate Laurent/Taylor series in t after pairing
the ambient coordinates with a fixed rational direction y0.  The discrete
sum over lattice points is always produced by direct enumeration; the
vertex-cone decomposition check re-derives it by a second, independent
route so the two can disagree loudly if either is wrong.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm

from .errors import (
    DirectionDegenerateError,
    NonIntegerResultError,
    NotFullDimError,
)
from .geometry import (
    Cone,
    Face,
    Polytope,
    lattice_simplices,
    normalized_volume,
    supporting_cone,
)
from .interp import DEFAULT_ORDER, MuTable, _line_row, mu_table
from .linalg import Vector, cleared, dot, dual_rows, format_rational
from .series import LaurentSeries, restrict_to_direction, todd_univariate

DEFAULT_SEED = 1729

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


class Direction:
    """A rational direction with its checked nonzero pairings."""

    __slots__ = ("y0", "certificate")

    def __init__(self, y0: Vector, certificate=()):
        self.y0 = y0
        self.certificate = tuple(certificate)

    def to_json(self) -> dict:
        return {
            "y0": self.y0.to_json(),
            "checked_pairings": [
                {"vector": list(map(format_rational, v)), "value": format_rational(a)}
                for v, a in self.certificate
            ],
        }

    def __repr__(self):
        return f"Direction({self.y0!r}, {len(self.certificate)} checked)"


def certify_direction(y0: Vector, avoid) -> Direction:
    """Check <y0, v> = <Y, v>/s != 0 for every v (int tuple) in avoid; raise naming it."""
    Y, s = cleared(y0)
    cert = []
    for v in avoid:
        a = dot(Y, v)
        if a == 0:
            raise DirectionDegenerateError(f"direction {y0} annihilates {Vector(v)}")
        cert.append((v, Fraction(a, s)))
    return Direction(y0, cert)


def sample_direction(ambient: int, avoid,
                     seed: int = DEFAULT_SEED) -> tuple[Direction, list[dict]]:
    """Draw a generic direction: fixed prime magnitudes, seeded signs.

    Returns (direction, attempt log).  Every attempt is logged with the
    vector tried and the constraint it violated, so reports can replay the
    search; runs out after 32 draws.
    """
    avoid = [v for v in avoid if any(v)]
    rng = random.Random(seed)
    log: list[dict] = []
    for attempt in range(32):
        mags = [_PRIMES[(attempt + i) % len(_PRIMES)] for i in range(ambient)]
        y0 = Vector([m * rng.choice((1, -1)) for m in mags])
        try:
            direction = certify_direction(y0, avoid)
        except DirectionDegenerateError as exc:
            log.append({"attempt": attempt, "y0": y0.to_json(),
                        "rejected": str(exc)})
            continue
        log.append({"attempt": attempt, "y0": y0.to_json(), "rejected": None})
        return direction, log
    raise DirectionDegenerateError(
        f"no generic direction found in 32 attempts (seed {seed})")


# -- the two sides of the identity -------------------------------------------


def s_series(p: Polytope, y: Vector, q: int) -> LaurentSeries:
    """Taylor series in t of the lattice-point exponential sum along t*y:
    the power sum of -<y,x> over the lattice points x, over r!, at t^r.  With
    y = Y/s, it is N_r / (r! s^r), N_r the power sum of the ints -<Y,x>."""
    Y, s = cleared(y)
    values = [-dot(Y, x) for x in p.lattice_points()]
    return LaurentSeries.from_taylor(
        [Fraction(sum(c ** r for c in values), factorial(r) * s ** r) for r in range(q + 1)], q)


def _homogeneous_sums(values, q: int) -> list[int]:
    """Complete homogeneous symmetric sums h_0..h_q of the given ints."""
    h = [1] + [0] * q
    for c in values:
        for r in range(1, q + 1):
            h[r] += c * h[r - 1]
    return h


def _face_row(f: Face, Y, s: int, q: int) -> tuple[list[int], int]:
    """i_face_series(f, Y/s, q)'s Taylor numerators over the one denominator
    s^q (m+q)!: N_r s^(q-r) (m+q)!/(m+r)! at t^r, N_r as in i_face_series."""
    p, m = f.polytope, f.dim
    nums = [0] * (q + 1)
    for simplex, det in lattice_simplices(f):
        h = _homogeneous_sums([dot(Y, p.vertices[i]) for i in simplex], q)
        nums = [n + det * x for n, x in zip(nums, h)]
    top = factorial(m + q)
    return ([(-1) ** r * n * s ** (q - r) * (top // factorial(m + r)) for r, n in enumerate(nums)],
            s ** q * top)


def i_face_series(f: Face, y: Vector, q: int) -> LaurentSeries:
    """Taylor series of the exponential integral over a face along t*y.

    The measure is normalized to the lattice induced on the face's affine
    span.  Each simplex of a lattice triangulation contributes
    (-1)^r |det| h_r(c_0..c_m) / (m+r)!  at t^r, where the c_j pair y
    with the simplex vertices and |det| is taken in a basis of the induced
    lattice.  A vertex v is its own simplex with |det| 1, so it gives
    (-<y,v>)^r / r!, the series of e^(-<y,v> t).  With y = Y/s, h_r(c) =
    h_r(C) / s^r for the ints C_j = <Y, v_j>, so t^r gets N_r / ((m+r)! s^r)
    with N_r the int sum of (-1)^r |det| h_r(C) over the simplices (_face_row).
    """
    Y, s = cleared(y)
    nums, den = _face_row(f, Y, s, q)
    return LaurentSeries.from_taylor([Fraction(n, den) for n in nums], q)


# -- counting -----------------------------------------------------------------


def count_breakdown(p: Polytope, cmap):
    """(total, rows): per-face (face, mu0, normalized volume) and their sum,
    an int; NonIntegerResultError when the sum is not an integer. Only the
    constant terms enter, so mu is taken at order 0."""
    table = mu_table(p, cmap, 0)
    total = Fraction(0)
    rows = []
    for f, v in table.entries:
        vol, m0 = normalized_volume(f), v.mu0
        rows.append((f, m0, vol))
        total += m0 * vol
    if total.denominator != 1:
        raise NonIntegerResultError(
            f"local count {total} of {p.name} is not an integer")
    return int(total), rows


def count_via_local_formula(p: Polytope, cmap) -> int:
    """Lattice-point count as sum over faces of mu0 times normalized volume."""
    return count_breakdown(p, cmap)[0]


# -- identity verification ----------------------------------------------------


class IdentityReport:
    """Outcome of one interpolator-identity check."""

    __slots__ = ("polytope", "map_description", "direction", "seed", "order",
                 "q", "achieved", "left", "right", "residual", "passed",
                 "attempts")

    def __init__(self, polytope, map_description, direction, seed, order, q,
                 left, right, attempts):
        self.polytope = polytope
        self.map_description = map_description
        self.direction = direction
        self.seed = seed
        self.order = order
        self.q = q
        self.left = left
        self.right = right
        self.residual = left - right
        self.achieved = min(q, self.residual.known_to)
        self.passed = (self.achieved >= q
                       and all(self.residual.coefficient(r) == 0
                               for r in range(q + 1)))
        self.attempts = attempts

    def to_json(self) -> dict:
        return {
            "polytope": self.polytope.name,
            "map": self.map_description,
            "direction": self.direction.to_json(),
            "seed": self.seed,
            "order": self.order,
            "q": self.q,
            "achieved_order": self.achieved,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "residual": self.residual.to_json(),
            "passed": self.passed,
            "direction_attempts": self.attempts,
        }

    def __repr__(self):
        word = "pass" if self.passed else "FAIL"
        return (f"IdentityReport({word}: {self.polytope.name}, "
                f"{self.map_description}, q={self.q})")


def _corner_data_vectors(p: Polytope) -> list[tuple[int, ...]]:
    """Integer vectors a verification direction must not annihilate: edge
    directions plus every generator in every normal-cone subdivision."""
    avoid = []
    for e in p.faces_of_dim(1):
        a, b = e.vertices
        avoid.append(tuple(y - x for x, y in zip(a, b)))
    for _, nc in p.normal_cones:
        avoid.extend(nc.generators)
        for cell in nc.basic_cells:
            avoid.extend(cell.generators)
    return list(dict.fromkeys(avoid))


def _choose_direction(ambient: int, avoid, y0, seed: int) -> tuple[Direction, list[dict]]:
    """(direction, attempt log): y0 (a Direction as its y0, a sequence as a Vector)
    certified or (y0 None) a seeded draw, both against the vectors in avoid."""
    if isinstance(y0, Direction):
        y0 = y0.y0
    if y0 is None:
        return sample_direction(ambient, avoid, seed)
    return certify_direction(Vector(y0), avoid), []


def verify_interpolator(p: Polytope, cmap, y0=None, order: int = DEFAULT_ORDER,
                        seed: int = DEFAULT_SEED, table: MuTable | None = None,
                        cross_validate: bool = False) -> IdentityReport:
    """Check the sum = weighted-integrals identity through order q = order - dim.

    The left side is the enumerated exponential sum; the right side pairs
    each face's integral series with mu of its normal cone restricted to
    the chosen direction, computed directly on that line (mu_on_line's
    integer row) through t^max(q, 1): no M_i lowers the t-degree, and at
    order 0 the reduction would skip the full subset's psi.  cross_validate
    reduces through order.  A precomputed (possibly corrupted) MuTable can be
    injected for negative controls; its full series are restricted instead.
    Either way the products of integer mu and face-integral rows are summed
    over one lcm, known through q or the least order of a mu row (each
    integral's t^0 coefficient, a volume, is nonzero).
    """
    q = order - p.dim
    if q < 0:
        raise ValueError(f"order {order} below polytope dimension {p.dim}")
    direction, attempts = _choose_direction(p.ambient, _corner_data_vectors(p), y0, seed)
    y = direction.y0
    if table is None:
        through = order if cross_validate else max(q, 1)
        mu_rows = [(f, *_line_row(nc, cmap, y, through, cross_validate), through)
                   for f, nc in p.normal_cones]
    else:
        lines = [(f, restrict_to_direction(v.series, y)) for f, v in table.entries]
        mu_rows = [(f, *cleared(map(line.coefficient, range(line.known_to + 1))), line.known_to)
                   for f, line in lines]
    left = s_series(p, y, q)
    (Y, s), known = cleared(y), min([q] + [k for *_, k in mu_rows])
    rows = [(a, da, *_face_row(f, Y, s, q)) for f, a, da, _ in mu_rows]
    common = lcm(*(da * db for _, da, _, db in rows))
    right = LaurentSeries.from_taylor(
        [Fraction(sum(common // (da * db) * sum(a[i] * b[r - i] for i in range(r + 1))
                      for a, da, b, db in rows), common) for r in range(known + 1)], known)
    return IdentityReport(p, cmap.describe(), direction, seed, order, q,
                          left, right, attempts)


# -- independent decomposition check ------------------------------------------


def _half_open_cone_series(apex: tuple[int, ...], cell: Cone, open_facets, y0: Vector,
                           q: int) -> LaurentSeries:
    """Exponential sum over apex + the half-open basic cell, known through t^q:
    the corner e^(-<y0, apex + the open rays> t) (n_i >= 1 where the facet
    opposite ray b_i is open) times 1/(1 - e^(-ct)) = td(ct)/(ct) per ray,
    c = <y0, b_i>, each factor known through t^(pad - 1) with pad = q + k."""
    pad = q + len(cell.generators)
    td = todd_univariate(pad)
    corner = [sum(x) for x in zip(apex, *(cell.generators[i] for i in open_facets))]
    total = LaurentSeries.exp_taylor(-y0.dot(corner), pad)
    for b in cell.generators:
        c = y0.dot(b)
        if c == 0:
            raise DirectionDegenerateError(f"direction annihilates ray {b}")
        total = total * LaurentSeries(-1, [t * c ** (r - 1) for r, t in enumerate(td)], pad - 1)
    return total


def _interior_probe(parent: Cone, cells, seed: int) -> tuple[tuple[int, ...], list]:
    """An integer point interior to the parent and off every cell's facet
    hyperplanes.

    Returns the point together with each cell's dual rows, which the
    half-open selection reuses.
    """
    duals = [dual_rows(cell.generators) for cell in cells]
    rng = random.Random(seed)
    rays = parent.extreme_rays()
    for _ in range(64):
        weights = [rng.randint(1, 97) for _ in rays]
        probe = tuple(dot(weights, col) for col in zip(*rays))
        if all(dot(h, probe) for rows in duals for h in rows):
            return probe, duals
    raise DirectionDegenerateError("no interior probe avoided all facet planes")


def brion_vertex_decomposition_check(p: Polytope, y0=None, q: int = 6,
                                     seed: int = DEFAULT_SEED) -> bool:
    """Re-derive the exponential sum from shifted vertex cones and compare.

    Each vertex cone is subdivided into basic cells, the cells are made
    half-open against a common interior probe so their lattice points
    partition the cone, and each half-open basic cell contributes a
    closed-form product of geometric series.  Vertex cones need a
    full-dimensional polytope, so any other polytope but a point raises
    NotFullDimError up front, whatever y0 is.  A point's vertex cone is the
    zero cone: one cell, no rays, and the piece e^(-<y0,v> t). The
    direction also avoids every cell ray: the pieces divide by its pairing.
    """
    if p.dim and not p.is_full_dimensional:
        raise NotFullDimError("the Brion check needs a full-dimensional polytope")
    corners = [supporting_cone(p, vert) for vert in p.faces_of_dim(0)]
    rays = [g for _, scone in corners for cell in scone.basic_cells for g in cell.generators]
    direction, _ = _choose_direction(p.ambient, _corner_data_vectors(p) + rays, y0, seed)
    y = direction.y0
    total = None
    for apex, scone in corners:
        cells = scone.basic_cells
        probe, duals = _interior_probe(scone, cells, seed)
        for cell, rows in zip(cells, duals):
            open_facets = {i for i, h in enumerate(rows) if dot(h, probe) < 0}
            piece = _half_open_cone_series(apex, cell, open_facets, y, q)
            total = piece if total is None else total + piece
    return total.agrees_with(s_series(p, y, q), through=q)
