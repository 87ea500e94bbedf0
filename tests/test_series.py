import random
from fractions import Fraction
from math import factorial

import pytest

from mucone.errors import ZeroDenominatorFormError
from mucone.linalg import Vector
from mucone.series import (
    LaurentSeries,
    MultiSeries,
    RationalFunctionTerm,
    _sign_canonical,
    combine_over_common_denominator,
    compose_linear,
    compose_multivariate,
    divide_by_linear_form,
    restrict_to_direction,
    t2_series,
    t_series,
    todd_univariate,
)
from oracles import laurent_inverse, pole_order

F = Fraction

# frozen oracle values: Bernoulli-number route and brute-force inversion of
# (1 - e^-z)/z agree on these
TD_COEFFS = [
    F(1), F(1, 2), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240),
    F(0), F(-1, 1209600), F(0), F(1, 47900160),
]


def test_todd_univariate_frozen():
    assert todd_univariate(10) == TD_COEFFS
    assert todd_univariate(6) == TD_COEFFS[:7]


def test_todd_inverts_its_denominator():
    # td(z) * (1 - e^-z)/z == 1, checked by exact convolution
    n = 12
    td = todd_univariate(n)
    g = [F((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
    for m in range(n + 1):
        conv = sum(td[j] * g[m - j] for j in range(m + 1))
        assert conv == (1 if m == 0 else 0)


def test_t_series_frozen():
    assert t_series(6) == [F(1, 2), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240), F(0)]


def test_t2_series():
    t2 = t2_series(6)
    assert t2.coefficient((0, 0)) == F(1, 12)
    # setting z2 = 0 recovers the derivative of T
    t = t_series(8)
    deriv = [(i + 1) * t[i + 1] for i in range(7)]
    assert deriv[:5] == [F(1, 12), F(0), F(-1, 240), F(0), F(1, 6048)]
    for a in range(7):
        assert t2.coefficient((a, 0)) == deriv[a]
    # definition check: z2 * T2(z1,z2) == T(z1+z2) - T(z1) through degree 6
    z1 = Vector([1, 0])
    z2 = Vector([0, 1])
    lhs = MultiSeries.from_linear(z2, 7) * compose_multivariate(t2, [z1, z2], 6)
    rhs = compose_linear(t_series(7), z1 + z2, 7) - compose_linear(t_series(7), z1, 7)
    assert lhs.agrees_with(rhs, through=6)


def _random_series(rng, nvars, order, max_terms=6):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, order)):
            expo[rng.randrange(nvars)] += 1
        if sum(expo) <= order:
            coeffs[tuple(expo)] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiSeries(nvars, order, coeffs)


def test_multiseries_ring_axioms():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = _random_series(rng, n, 6)
        b = _random_series(rng, n, 6)
        c = _random_series(rng, n, 6)
        assert (a + b).agrees_with(b + a)
        assert (a * b).agrees_with(b * a)
        assert ((a + b) * c).agrees_with(a * c + b * c)
        assert ((a * b) * c).agrees_with(a * (b * c))
        one = MultiSeries.constant(1, n, 6)
        assert (a * one).agrees_with(a)
        assert (a - a).is_zero


def test_truncation_is_a_ring_map():
    rng = random.Random(23)
    for _ in range(20):
        a = _random_series(rng, 2, 6)
        b = _random_series(rng, 2, 6)
        ab = a * b
        low = a.truncate(3) * b.truncate(3)
        assert ab.agrees_with(low, through=min(3, low.order))


def test_compose_linear_exp_example():
    # exp(-(v1+v2)) through degree 2
    exp_coeffs = [F((-1) ** r, factorial(r)) for r in range(3)]
    s = compose_linear(exp_coeffs, Vector([1, 1]), 2)
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((1, 0)) == -1
    assert s.coefficient((0, 1)) == -1
    assert s.coefficient((2, 0)) == F(1, 2)
    assert s.coefficient((1, 1)) == 1
    assert s.coefficient((0, 2)) == F(1, 2)


def test_compose_linear_additive_in_exponents():
    # z^a * z^b |-> ell^(a+b)
    ell = Vector([2, -1])
    a = compose_linear([0, 1], ell, 5)  # ell itself
    sq = compose_linear([0, 0, 1], ell, 5)
    assert (a * a).agrees_with(sq, through=5)


def test_divide_by_linear_form_roundtrip():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        s = _random_series(rng, n, 5)
        form = Vector([rng.randint(-3, 3) for _ in range(n)])
        if form.is_zero:
            continue
        prod = MultiSeries.from_linear(form, 6) * s
        q = divide_by_linear_form(MultiSeries(n, 6, prod.coeffs), form)
        assert q.agrees_with(s, through=5)


def test_divide_by_linear_form_rejects_nondivisible():
    one = MultiSeries.constant(1, 2, 4)
    with pytest.raises(ValueError):
        divide_by_linear_form(one, Vector([1, 1]))
    with pytest.raises(ZeroDenominatorFormError):
        divide_by_linear_form(one, Vector([0, 0]))


def test_restrict_to_direction_example():
    s = MultiSeries(2, 4, {(1, 0): 1, (0, 2): 1})  # v1 + v2^2
    r = restrict_to_direction(s, Vector([2, 3]))
    assert r.coefficient(0) == 0
    assert r.coefficient(1) == 2
    assert r.coefficient(2) == 9
    assert r.known_to == 4


def test_restrict_to_direction_is_multiplicative():
    rng = random.Random(37)
    for _ in range(25):
        a = _random_series(rng, 2, 5)
        b = _random_series(rng, 2, 5)
        y0 = Vector([rng.randint(-3, 3), rng.randint(-3, 3)])
        left = restrict_to_direction(a * b, y0)
        right = restrict_to_direction(a, y0) * restrict_to_direction(b, y0)
        assert left.agrees_with(right)
        assert restrict_to_direction(a + b, y0).agrees_with(
            restrict_to_direction(a, y0) + restrict_to_direction(b, y0)
        )


def test_combine_simple():
    d = 3
    one = MultiSeries.constant(1, 2, d + 1)
    t1 = RationalFunctionTerm(one, [Vector([1, 0])])
    t2 = RationalFunctionTerm(one, [Vector([0, 1])])
    num, denom = combine_over_common_denominator([t1, t2], d)
    assert denom == (Vector([0, 1]), Vector([1, 0]))
    assert num.agrees_with(
        MultiSeries(2, d + 2, {(1, 0): 1, (0, 1): 1}), through=d + 2
    )


def test_combine_normalizes_scales():
    d = 2
    one = MultiSeries.constant(1, 2, d + 1)
    half = MultiSeries.constant(F(1, 2), 2, d + 1)
    a = RationalFunctionTerm(one, [Vector([2, 0])])       # 1/(2 v1)
    b = RationalFunctionTerm(half, [Vector([1, 0])])      # (1/2)/v1
    na, da = combine_over_common_denominator([a], d)
    nb, db = combine_over_common_denominator([b], d)
    assert da == db == (Vector([1, 0]),)
    assert na.agrees_with(nb)


def test_combine_roundtrip_random():
    rng = random.Random(41)
    pool = [Vector([1, 0]), Vector([0, 1]), Vector([1, 1]), Vector([1, -1])]
    d = 3
    for _ in range(20):
        terms = []
        for _ in range(rng.randint(1, 4)):
            forms = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
            num = _random_series(rng, 2, d + len(forms))
            terms.append(RationalFunctionTerm(num, forms))
        num, union = combine_over_common_denominator(terms, d)
        # recompute the numerator the slow way: full products first
        total = MultiSeries.zero(2, num.order)
        for t in terms:
            remaining = list(union)
            for f in t.denominator:
                remaining.remove(f)  # pool forms are already canonical
            prod = MultiSeries.constant(1, 2, num.order)
            for f in remaining:
                prod = prod * MultiSeries.from_linear(f, num.order)
            scaled = prod * t.numerator
            total = total + MultiSeries(2, num.order, scaled.coeffs)
        assert num.agrees_with(total, through=num.order)


def test_rational_function_term_rejects_zero_form():
    one = MultiSeries.constant(1, 2, 3)
    with pytest.raises(ZeroDenominatorFormError):
        RationalFunctionTerm(one, [Vector([0, 0])])


def test_laurent_basics():
    e = LaurentSeries.exp_taylor(-1, 4)
    assert e.coefficient(0) == 1
    assert e.coefficient(1) == -1
    assert e.coefficient(3) == F(-1, 6)
    s = e + LaurentSeries.from_taylor([1], 4)
    assert s.coefficient(0) == 2
    with pytest.raises(ValueError):
        e.coefficient(5)


def test_laurent_inverse_gives_todd():
    # 1/(1 - e^-t) = td(t)/t: coefficients of td shifted down once
    q = 8
    one = LaurentSeries.from_taylor([1], q)
    f = one - LaurentSeries.exp_taylor(-1, q)
    inv = laurent_inverse(f)
    assert pole_order(inv) == 1
    td = todd_univariate(q)
    for k in range(q):
        assert inv.coefficient(k - 1) == td[k]
    assert (f * inv).agrees_with(LaurentSeries.from_taylor([1], q - 2))


def test_laurent_mul_pole_accounting():
    q = 6
    f = LaurentSeries(-1, [1, 1], q)        # t^-1 + 1
    g = LaurentSeries(-2, [2], q)           # 2 t^-2
    p = f * g
    assert pole_order(p) == 3
    assert p.coefficient(-3) == 2
    assert p.coefficient(-2) == 2
    assert p.known_to == q - 2


def test_laurent_scale_sub_zero():
    q = 5
    f = LaurentSeries.from_taylor([1, 2, 3], q)
    assert (f - f).is_zero
    z = LaurentSeries.zero(q)
    assert (f * z).is_zero


def test_sign_canonical_divides_exactly():
    """gamma is a Fraction even when form and p are both integral: int / int
    would be a float, and the union's divisibility checks would fail."""
    for form, p, gamma in [((-3, 6), (1, -2), -3), ((0, 4, 2), (0, 2, 1), 2),
                           (Vector([F(1, 2), F(1, 3)]), (3, 2), F(1, 6))]:
        got_p, got_gamma = _sign_canonical(form)
        assert got_p == Vector(p) and got_gamma == gamma
        assert type(got_gamma) is Fraction
