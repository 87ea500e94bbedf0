"""The benchmark's three workloads: inputs, one pass, and output checks.

Each workload is built from a freshly imported `mucone` (see `load_mucone`),
so the module-level mu cache is empty and every complement map is a new
object with empty psi/u caches: a pass costs what it costs in a fresh
`mucone` process.

Every check compares against a value computed here, apart from the
library (Pick's formula, closed-form Ehrhart polynomials, closed forms
for the constant term of mu), or against a property the method must have
(exact agreement of two independent pipelines, zero residual).  None of
them compares against recorded output of the program.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path
from types import SimpleNamespace

MODULES = ("linalg", "series", "geometry", "complement", "interp", "valuations")

VERIFY_ORDER = 6
# Order 5, not the acceptance suite's 6: at order 6 a mu-crossval pass took
# 40 s on a slow 2-core host, about twice a run's length.
MU_ORDER = 5
DILATES = 20         # count-dilates: t = 1..DILATES


@dataclass(frozen=True)
class Seeds:
    """The seeds a run draws its inputs from, all set by the workload seed s.

    Seed 0 gives the acceptance suite's corpora (polytope seed 20260816,
    cone seed 97) and the library's default direction seed 1729.  Seed s
    shifts the direction seed and the seed of the planar random inputs by s.
    The 3D random hulls and cones are drawn at the fixed corpus seeds for
    every s: each of them sets a large share of a pass' work, so drawing them
    anew would turn seed-to-seed spread into noise.  Planar inputs cost a few
    percent of a pass, so they can vary with s.
    """

    shift: int = 0
    polytopes = 20260816
    cones = 97

    @property
    def direction(self) -> int:
        return 1729 + self.shift

    def planar_rng(self, base: int, fixed: random.Random) -> random.Random:
        """The generator planar draws take: `fixed` itself at s = 0, else fresh."""
        return fixed if self.shift == 0 else random.Random(base + self.shift)


def load_mucone(src: Path) -> SimpleNamespace:
    """Import `mucone` from `src` afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "mucone" or n.startswith("mucone.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("mucone")
    if Path(pkg.__file__).resolve().parent != (src / "mucone").resolve():
        raise ImportError(f"mucone imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(pkg=pkg, **{name: importlib.import_module(f"mucone.{name}")
                                       for name in MODULES})


# -- independent lattice-point counts ----------------------------------------


def _hull_order(points):
    """Vertices of a convex lattice polygon in counter-clockwise order."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def pick_count(points) -> int:
    """Lattice points of a convex lattice polygon: A + B/2 + 1 (Pick)."""
    ring = _hull_order([tuple(int(c) for c in p) for p in points])
    twice_area = boundary = 0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
        twice_area += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
    return (abs(twice_area) + boundary) // 2 + 1


def simplex_count(dim: int, t: int) -> int:
    """Lattice points of t times the standard simplex: C(t + dim, dim)."""
    return comb(t + dim, dim)


def box_count(sides, t: int) -> int:
    """Lattice points of t times [0,a1] x ... x [0,an]: prod(a_i t + 1)."""
    out = 1
    for a in sides:
        out *= a * t + 1
    return out


def cross_polytope3_count(t: int) -> int:
    """Lattice points of t times the 3D cross-polytope: (2t+1)(2t^2+2t+3)/3."""
    return (2 * t + 1) * (2 * t * t + 2 * t + 3) // 3


def segment_count(points) -> int:
    (a,), (b,) = points
    return abs(int(b) - int(a)) + 1


# -- shared inputs ------------------------------------------------------------


def _second_gram(n):
    return {1: [[2]], 2: [[2, 1], [1, 3]], 3: [[2, 1, 0], [1, 3, 1], [0, 1, 4]]}[n]


def gram_maps(m, n):
    """The standard inner product and a second positive-definite Gram map."""
    return [m.complement.standard_inner_product(n),
            m.complement.InnerProductMap(m.linalg.Matrix(_second_gram(n)))]


def _random_hull(m, rng, dim, npts, name):
    """Seeded random lattice polytope in [0,6]^dim (the acceptance corpus' recipe)."""
    V = m.linalg.Vector
    while True:
        pts = [V([rng.randint(0, 6) for _ in range(dim)]) for _ in range(npts)]
        uniq = []
        for p in pts:
            if p not in uniq:
                uniq.append(p)
        ext = [p for i, p in enumerate(uniq)
               if not m.geometry.in_convex_hull(p, uniq[:i] + uniq[i + 1:])]
        if len(ext) < dim + 1:
            continue
        try:
            poly = m.geometry.Polytope(ext, name=name)
        except m.pkg.NotExtremeError:
            continue
        if poly.dim == dim:
            return poly


def _cube(sides):
    a, b, c = sides
    return [(x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)]


def _count_for(p):
    """The benchmark's own lattice-point count of a corpus polytope, or None."""
    verts = sorted(tuple(int(c) for c in v) for v in p.vertices)
    if p.dim == 1:
        return segment_count(verts)
    if p.dim == 2:
        return pick_count(verts)
    for t in range(1, 7):
        if verts == sorted([(0, 0, 0), (t, 0, 0), (0, t, 0), (0, 0, t)]):
            return simplex_count(3, t)
    lo = [min(v[i] for v in verts) for i in range(3)]
    sides = [max(v[i] for v in verts) - lo[i] for i in range(3)]
    box = sorted(tuple(a + b for a, b in zip(v, lo)) for v in _cube(sides))
    if verts == box:
        return box_count(sides, 1)
    if verts == sorted(v for i in range(3) for s in (1, -1)
                       for v in [tuple(s if j == i else 0 for j in range(3))]):
        return cross_polytope3_count(1)
    return None


# -- the workloads --------------------------------------------------------------


class Workload:
    """A named set of inputs: `setup` builds the operations of one pass,
    `call` runs one, `check` returns a message when its output is wrong.
    A timed run makes at least `min_passes` passes."""

    name: str
    why: str
    min_passes = 1

    @staticmethod
    def setup(m, seeds) -> list:
        raise NotImplementedError

    @staticmethod
    def call(m, op):
        raise NotImplementedError

    @staticmethod
    def check(op, out) -> str | None:
        raise NotImplementedError

    @classmethod
    def check_pass(cls, ops, outputs) -> list[str]:
        """Messages for every wrong output of a pass; None outputs had failed."""
        return [msg for op, out in zip(ops, outputs) if out is not None
                for msg in [cls.check(op, out)] if msg]


# -- verify-corpus ------------------------------------------------------------


def polytope_corpus(m, seeds):
    """The 20 polytopes of dimensions 1 to 3 that the identity is checked on."""
    P = m.geometry.Polytope
    V = m.linalg.Vector
    rng = random.Random(seeds.polytopes)
    planar = seeds.planar_rng(seeds.polytopes, rng)
    if planar is not rng:
        # the fixed stream must still reach the 3D draws at the same state
        _random_hull(m, rng, 2, 7, "hull2-a")
        _random_hull(m, rng, 2, 8, "hull2-b")

    def poly(pts, name):
        return P([V(list(p)) for p in pts], name=name)

    return [
        poly([(0,), (1,)], "seg-1"),
        poly([(0,), (5,)], "seg-5"),
        poly([(-3,), (2,)], "seg-neg"),
        poly([(0, 0), (1, 0), (0, 1)], "tri-1"),
        poly([(0, 0), (2, 0), (0, 2)], "tri-2"),
        poly([(0, 0), (3, 1), (1, 4)], "tri-skew"),
        poly([(0, 0), (1, 0), (1, 1), (0, 1)], "square"),
        poly([(0, 0), (3, 0), (3, 2), (0, 2)], "rect-3x2"),
        poly([(1, 0), (0, 1), (-1, 0), (0, -1)], "diamond"),
        _random_hull(m, planar, 2, 7, "hull2-a"),
        _random_hull(m, planar, 2, 8, "hull2-b"),
        poly([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], "simplex3-1"),
        poly([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)], "simplex3-2"),
        poly(_cube((1, 1, 1)), "cube"),
        poly(_cube((2, 1, 3)), "box-2x1x3"),
        poly([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
             "octahedron"),
        poly([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)], "pyramid"),
        _random_hull(m, rng, 3, 7, "hull3-a"),
        _random_hull(m, rng, 3, 8, "hull3-b"),
        poly([(0, 0), (4, 0), (5, 3), (2, 5)], "quad"),
    ]


class VerifyCorpus(Workload):
    name = "verify-corpus"
    why = ("the sum = weighted-integrals identity on 20 polytopes under two Gram "
           "maps: line-ring reduction and basic subdivision")

    @staticmethod
    def setup(m, seeds):
        maps = {n: gram_maps(m, n) for n in (1, 2, 3)}
        return [(p, cmap, seeds.direction)
                for p in polytope_corpus(m, seeds)
                for cmap in maps[p.ambient]]

    @staticmethod
    def call(m, op):
        p, cmap, direction_seed = op
        return m.valuations.verify_interpolator(p, cmap, order=VERIFY_ORDER, seed=direction_seed)

    @staticmethod
    def check(op, rep):
        p = op[0]
        name = f"{p.name} under {rep.map_description}"
        q = VERIFY_ORDER - p.dim
        if rep.q != q or rep.achieved != q:
            return f"{name}: identity reached q={rep.achieved} of {q}"
        if not rep.passed or any(rep.residual.coefficient(r) != 0 for r in range(q + 1)):
            return f"{name}: nonzero residual {rep.residual!r}"
        count = _count_for(p)
        if count is not None:
            left, right = rep.left.coefficient(0), rep.right.coefficient(0)
            if not left == right == count:
                return f"{name}: t^0 coefficients {left}, {right}, lattice count {count}"
        return None


# -- mu-crossval --------------------------------------------------------------


def _unimodular_cone(m, rng, n, shears):
    V = m.linalg.Vector
    gens = [V([1 if i == j else 0 for j in range(n)]) for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        gens[i] = gens[i] + rng.choice((-2, -1, 1, 2)) * gens[j]
    return m.geometry.Cone(gens)


def basic_cone_corpus(m, seeds):
    """The basic cones both mu pipelines are compared on."""
    C = m.geometry.Cone
    V = m.linalg.Vector

    def cone(*gens):
        return C([V(list(g)) for g in gens])

    rng = random.Random(seeds.cones)
    planar = seeds.planar_rng(seeds.cones, rng)
    if planar is not rng:
        # the fixed stream must still reach the 3D draw at the same state
        for _ in range(3):
            _unimodular_cone(m, rng, 2, 3)
    cones = [
        cone((1,)), cone((-1,)), cone((1, 0)), cone((2, 3)), cone((0, 1, 0)),
        cone((1, 0), (0, 1)), cone((1, 0), (1, 1)), cone((-1, -1), (0, 1)),
        cone((2, 1), (3, 2)),
        cone((1, 0, 0), (0, 1, 0)), cone((1, 1, 0), (0, 0, 1)),
        cone((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        cone((1, 0, 0), (1, 1, 0), (1, 1, 1)),
        cone((2, 1, 0), (1, 1, 0), (3, 2, 1)),
    ]
    cones.extend(_unimodular_cone(m, planar, 2, 3) for _ in range(3))
    cones.append(_unimodular_cone(m, rng, 3, 3))
    cones.extend(m.complement.projective_fan_cones(2))
    cones.extend(m.complement.projective_fan_cones(3))
    return cones


_FLAG_PRIMES = (2, 3, 5, 7)


def flag_map(m, n):
    V = m.linalg.Vector
    return m.complement.FlagMap(
        [V([Fraction(p) ** e for e in range(n)]) for p in _FLAG_PRIMES[:n]])


def _flag_generic_on(m, cone, fl):
    gens = cone.generators
    for r in range(1, len(gens) + 1):
        for subset in combinations(gens, r):
            try:
                fl.psi(list(subset))
            except m.pkg.NotGenericError:
                return False
    return True


def mu0_closed_form(cone, cmap, standard):
    """mu0 of a basic cone where a closed form is known, else None.

    One ray: 1/2.  Two rays in the plane under a Gram map G:
    1/4 - (1/12)(<w1,w2>/|w1|^2 + <w1,w2>/|w2|^2).  Coordinate orthant
    spanned by k unit vectors under the standard inner product: 1/2^k.
    """
    gens = [tuple(g) for g in cone.generators]
    if len(gens) == 1:
        return Fraction(1, 2)
    gram = getattr(cmap, "gram", None)
    if gram is None:
        return None
    g = [[Fraction(e) for e in row] for row in gram.rows]

    def inner(a, b):
        return sum(a[i] * g[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))

    if len(gens) == 2 and cone.ambient == 2:
        w1, w2 = gens
        pair = inner(w1, w2)
        return Fraction(1, 4) - Fraction(1, 12) * (pair / inner(w1, w1) + pair / inner(w2, w2))
    if standard and all(sorted(w) == [0] * (len(w) - 1) + [1] for w in gens):
        return Fraction(1, 2 ** len(gens))
    return None


class MuCrossval(Workload):
    name = "mu-crossval"
    why = ("both mu pipelines on basic cones under Gram, flag and Diaconis-Fulton "
           "maps: full multivariate series kernels, no polytopes")

    @staticmethod
    def setup(m, seeds):
        maps = {n: gram_maps(m, n) for n in (1, 2, 3)}
        flags = {n: flag_map(m, n) for n in (1, 2, 3)}
        ops = []
        for c in basic_cone_corpus(m, seeds):
            n = c.ambient
            # genericity is tested on a throwaway map, so the timed map starts cold
            cone_maps = [(cmap, i == 0) for i, cmap in enumerate(maps[n])]
            if _flag_generic_on(m, c, flag_map(m, n)):
                cone_maps.append((flags[n], False))
            ops.extend((c, cmap, standard) for cmap, standard in cone_maps)
        for n in (2, 3):
            df = m.complement.diaconis_fulton_map(n)
            ops.extend((c, df, False) for c in m.complement.projective_fan_cones(n))
        return ops

    @staticmethod
    def call(m, op):
        c, cmap, _ = op
        return (m.interp.mu_basic(c, cmap, order=MU_ORDER),
                m.interp.mu_explicit(c, cmap, order=MU_ORDER))

    @staticmethod
    def check(op, out):
        c, cmap, standard = op
        a, b = out
        name = f"{c!r} under {cmap.describe()}"
        if a.series != b.series:
            return f"{name}: reduction and chain sum disagree"
        want = mu0_closed_form(c, cmap, standard)
        if want is not None and a.mu0 != want:
            return f"{name}: mu0 {a.mu0}, closed form {want}"
        return None


# -- count-dilates ------------------------------------------------------------


_POLYGON = [(0, 0), (3, 1), (1, 4)]      # tri-skew; its dilates are checked by Pick
_BOX = (2, 1, 3)


def dilate_families(seeds):
    """(name, vertices of the dilate t, closed-form count) for each family.

    The seeded polygon always has 5 vertices, so its share of the work
    does not change with the seed.
    """
    rng = random.Random(seeds.polytopes + seeds.shift)
    hull = []
    while len(hull) != 5:
        hull = _hull_order([(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(7)])
    return [
        ("triangle", lambda t: [(0, 0), (t, 0), (0, t)],
         lambda t: (t + 1) * (t + 2) // 2),
        ("tri-skew", lambda t: [(t * x, t * y) for x, y in _POLYGON],
         lambda t: pick_count([(t * x, t * y) for x, y in _POLYGON])),
        ("hull2", lambda t: [(t * x, t * y) for x, y in hull],
         lambda t: pick_count([(t * x, t * y) for x, y in hull])),
        ("simplex3", lambda t: [(0, 0, 0), (t, 0, 0), (0, t, 0), (0, 0, t)],
         lambda t: simplex_count(3, t)),
        ("box-2x1x3", lambda t: _cube(tuple(t * a for a in _BOX)),
         lambda t: box_count(_BOX, t)),
        ("cross-polytope", lambda t: [tuple(s * t if j == i else 0 for j in range(3))
                                      for i in range(3) for s in (1, -1)],
         cross_polytope3_count),
    ]


class CountDilates(Workload):
    name = "count-dilates"
    why = ("local-formula counts of dilates t=1..20: geometry-bound, and mu is "
           "read from the cache after the first dilate")
    # a pass takes about 7 s, short enough for the host's speed swings to
    # show in one pass; two passes damp them and fit in a run's length
    min_passes = 2

    @staticmethod
    def setup(m, seeds):
        V = m.linalg.Vector
        maps = {n: gram_maps(m, n) for n in (2, 3)}
        ops = []
        for name, verts, count in dilate_families(seeds):
            for t in range(1, DILATES + 1):
                p = m.geometry.Polytope([V(list(v)) for v in verts(t)], name=f"{name}-{t}")
                ops.extend((p, cmap, count(t)) for cmap in maps[p.ambient])
        return ops

    @staticmethod
    def call(m, op):
        return m.valuations.count_via_local_formula(op[0], op[1])

    @staticmethod
    def check(op, got):
        p, cmap, want = op
        if got != want:
            return f"{p.name} under {cmap.describe()}: count {got}, closed form {want}"
        return None

    @classmethod
    def check_pass(cls, ops, outputs):
        """Each count's own check, and the same count under both maps."""
        by_poly: dict[int, set] = {}
        for op, out in zip(ops, outputs):
            if out is not None:
                by_poly.setdefault(id(op[0]), set()).add(out)
        return super().check_pass(ops, outputs) + [
            f"counts differ between maps: {sorted(v)}" for v in by_poly.values() if len(v) > 1]


WORKLOADS = {w.name: w for w in (VerifyCorpus, MuCrossval, CountDilates)}


def run_pass(m, workload, ops):
    """Call every operation; (outputs, errors) with None outputs for failures."""
    outputs, errors = [], []
    for op in ops:
        try:
            outputs.append(workload.call(m, op))
        except Exception as exc:  # one failed operation must not end the pass
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return outputs, errors
