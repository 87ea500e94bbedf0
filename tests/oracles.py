"""Reference oracles on the reduction and the chain-sum formula.

Only the tests use these: the ideal generators D_S (l_v - v), the
evaluation map that substitutes each D variable by its dual linear form
(the ideal's kernel must vanish under it, and a Todd element must keep its
value through reduction), and the alternating chain sum for one subset pair.
"""

from __future__ import annotations

from itertools import combinations

from mucone.complement import RayTableMap
from mucone.errors import NotFullDimError, VectorNotInSubspaceError
from mucone.geometry import Cone
from mucone.interp import (
    DEFAULT_ORDER,
    RingElement,
    SquarefreeExpr,
    SquarefreeReducer,
    _chain_terms,
)
from mucone.linalg import Vector, dual_basis
from mucone.series import (
    MultiSeries,
    RationalFunctionTerm,
    combine_over_common_denominator,
    denominator_union,
)


def normal_form(elem: RingElement, cone: Cone, cmap, pivot_order=None) -> SquarefreeExpr:
    """The squarefree normal form of elem, at elem's own order."""
    return SquarefreeReducer(cone, cmap, elem.order, pivot_order).reduce(elem)


def as_ring_element(expr: SquarefreeExpr) -> RingElement:
    """A normal form read back as a D-expansion with 0/1 exponents."""
    k = len(expr.cone.generators)
    terms = {tuple(1 if i in s else 0 for i in range(k)): c
             for s, c in expr.coeffs.items()}
    return RingElement(k, expr.nvars, expr.order, k + expr.order, terms)


def linear_relation(cone: Cone, cmap, subset, v: Vector,
                    order: int = DEFAULT_ORDER) -> RingElement:
    """The ideal generator D_S (l_v - v), for v in the complement of S."""
    k = len(cone.generators)
    n = cone.ambient
    idx = sorted({int(i) for i in subset})
    if idx and (idx[0] < 0 or idx[-1] >= k):
        raise ValueError(f"subset {idx} out of range for {k} generators")
    if v.is_zero:
        return RingElement(k, n, order, k + order)
    if not idx or not cmap.psi(tuple(cone.generators[i] for i in idx)).contains(v):
        raise VectorNotInSubspaceError(
            f"{v} is not in the complement subspace of subset {idx}")
    base = tuple(1 if i in idx else 0 for i in range(k))
    terms: dict[tuple[int, ...], MultiSeries] = {
        base: MultiSeries.from_linear(-v, order)
    }
    for j, w in enumerate(cone.generators):
        a = w.dot(v)
        if a:
            e = list(base)
            e[j] += 1
            terms[tuple(e)] = MultiSeries.constant(a, n, order)
    return RingElement(k, n, order, k + order, terms)


def ideal_generators(cone: Cone, cmap, order: int = DEFAULT_ORDER) -> list[RingElement]:
    """Generators of the rewriting ideal for this cone and map.

    Ray-table maps carry one relation per ray; the other families take the
    face-level relations D_S (l_v - v) with v over a basis of each
    complement subspace.
    """
    k = len(cone.generators)
    gens = []
    if isinstance(cmap, RayTableMap):
        for i in range(k):
            v = cmap.solve_u((cone.generators[i],), 0)
            gens.append(linear_relation(cone, cmap, (i,), v, order))
        return gens
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            sub = cmap.psi(tuple(cone.generators[i] for i in subset))
            for v in sub.basis:
                gens.append(linear_relation(cone, cmap, subset, v, order))
    return gens


def evaluation_map(elem: RingElement, cone: Cone):
    """Substitute each D variable by its dual-basis linear form.

    Returns (numerator, dual forms): the element represents
    numerator / product(dual forms).  Needs a full-dimensional basic cone,
    where the duals exist.
    """
    k = len(cone.generators)
    if cone.ambient != k or not cone.is_basic:
        raise NotFullDimError("evaluation needs a full-dimensional basic cone")
    duals = dual_basis(cone.generators)
    target = elem.order + elem.cap
    forms = [MultiSeries.from_linear(v, target) for v in duals]
    num = MultiSeries.zero(cone.ambient, elem.order)
    for expo, coeff in elem.terms.items():
        term = MultiSeries.constant(1, cone.ambient, target)
        for i, e in enumerate(expo):
            for _ in range(e):
                term = term * forms[i]
        num = num + (coeff * term).truncate(elem.order)
    return num, tuple(duals)


def chain_sum(cone: Cone, cmap, S, T, order: int = DEFAULT_ORDER) -> RationalFunctionTerm:
    """The alternating chain sum for the subset pair T <= S, as one fraction."""
    S = frozenset(int(i) for i in S)
    T = frozenset(int(i) for i in T)
    k = len(cone.generators)
    if not (T <= S <= frozenset(range(k))):
        raise ValueError("need T <= S <= generator positions")
    raw = _chain_terms(cone, cmap, S, T)
    bound = order + len(denominator_union(forms for _, forms in raw))
    terms = [RationalFunctionTerm(MultiSeries.constant(sign, cone.ambient, bound), forms)
             for sign, forms in raw]
    num, den = combine_over_common_denominator(terms, order)
    return RationalFunctionTerm(num, den)
