"""Truncated exact power series.

MultiSeries is a sparse multivariate power series over Fraction, truncated
by total degree; the truncation order rides along through arithmetic with
the usual accounting (a product is known only as far as its factors allow).
LaurentSeries is a one-variable series with a finite pole, used for the
specialization of everything onto a sampled direction.

There is deliberately no general series division. Quotients appear either
as RationalFunctionTerm values (numerator plus a list of linear denominator
forms) or through exact division by a single linear form, which fails
loudly whenever the dividend is not a multiple.  Neither is on the path
that computes mu any more: the explicit chain sum is evaluated on lines
and interpolated (interp.mu_explicit).  RationalFunctionTerm,
combine_over_common_denominator and divide_by_linear_form remain for the
test oracle that combines the chain sum over one common denominator; the
last two also stay because the benchmark's tracer (bench/tracing.py)
wraps them by name.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ZeroDenominatorFormError
from .linalg import Vector, format_rational, parse_rational, primitive


def _degree(expo: tuple[int, ...]) -> int:
    return sum(expo)


class MultiSeries:
    """Sparse exact power series in nvars variables, truncated at total degree `order`."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: dict | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.nvars = nvars
        self.order = order
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo} for {nvars} variables")
            c = Fraction(c)
            if c != 0 and _degree(expo) <= order:
                clean[expo] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, nvars: int, order: int, coeffs: dict) -> "MultiSeries":
        """Internal constructor for arithmetic results.

        The caller guarantees what __init__ would check: exponent tuples of
        length nvars, nonzero Fraction values, total degrees <= order.
        """
        self = object.__new__(cls)
        self.nvars = nvars
        self.order = order
        self.coeffs = coeffs
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c, nvars: int, order: int) -> "MultiSeries":
        return cls(nvars, order, {(0,) * nvars: Fraction(c)})

    @classmethod
    def zero(cls, nvars: int, order: int) -> "MultiSeries":
        return cls(nvars, order, {})

    @classmethod
    def from_linear(cls, form: Vector, order: int) -> "MultiSeries":
        """Embed a vector as the degree-1 series in the coordinate variables."""
        n = len(form)
        coeffs = {}
        for i, c in enumerate(form):
            if c != 0:
                expo = [0] * n
                expo[i] = 1
                coeffs[tuple(expo)] = c
        return cls(n, order, coeffs)

    # -- bookkeeping ----------------------------------------------------

    @property
    def valuation(self) -> int:
        """Least total degree with a nonzero known coefficient.

        For a series with no known nonzero term this returns order + 1, a
        lower bound on the true valuation.
        """
        if not self.coeffs:
            return self.order + 1
        return min(_degree(e) for e in self.coeffs)

    def truncate(self, order: int) -> "MultiSeries":
        """The series through total degree `order`; ValueError above self.order."""
        if order >= self.order:
            if order == self.order:
                return self
            raise ValueError(
                f"series known only to degree {self.order}, need {order}")
        return MultiSeries._trusted(
            self.nvars, order,
            {e: c for e, c in self.coeffs.items() if _degree(e) <= order})

    def coefficient(self, expo: Iterable[int]) -> Fraction:
        return self.coeffs.get(tuple(expo), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, MultiSeries)
            and self.nvars == other.nvars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.order, tuple(sorted(self.coeffs.items()))))

    def agrees_with(self, other: "MultiSeries", through: int | None = None) -> bool:
        """Coefficientwise equality through min(orders) (or `through`)."""
        if self.nvars != other.nvars:
            return False
        r = min(self.order, other.order)
        if through is not None:
            r = min(r, through)
        for e in set(self.coeffs) | set(other.coeffs):
            if _degree(e) <= r and self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return False
        return True

    def __repr__(self):
        if not self.coeffs:
            return f"MultiSeries(0; order={self.order})"
        bits = []
        for e in sorted(self.coeffs, key=lambda e: (_degree(e), e)):
            mono = "*".join(
                f"v{i+1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k > 0
            )
            bits.append(f"{self.coeffs[e]}" + (f"*{mono}" if mono else ""))
        return f"MultiSeries({' + '.join(bits)}; order={self.order})"

    # -- arithmetic -----------------------------------------------------

    def _check_compatible(self, other: "MultiSeries"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return MultiSeries._trusted(
            self.nvars, order,
            {e: c for e, c in out.items() if c and _degree(e) <= order})

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries._trusted(self.nvars, self.order,
                                    {e: -c for e, c in self.coeffs.items()})

    def scale(self, c) -> "MultiSeries":
        c = Fraction(c)
        if c == 0:
            return MultiSeries.zero(self.nvars, self.order)
        return MultiSeries._trusted(self.nvars, self.order,
                                    {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        # the product is known through min(K_f + val_g, K_g + val_f)
        order = min(self.order + other.valuation, other.order + self.valuation)
        right = sorted(((_degree(e), e, c) for e, c in other.coeffs.items()),
                       key=lambda t: t[0])
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            room = order - _degree(e1)
            for d2, e2, c2 in right:
                if d2 > room:
                    break
                e = tuple(map(operator.add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiSeries._trusted(self.nvars, order,
                                    {e: c for e, c in out.items() if c})

    def __rmul__(self, c) -> "MultiSeries":
        """c * series for a rational scalar c."""
        return self.scale(c)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        terms = [
            {"exponents": list(e), "coefficient": format_rational(c)}
            for e, c in sorted(self.coeffs.items(), key=lambda kv: (_degree(kv[0]), kv[0]))
        ]
        return {"nvars": self.nvars, "order": self.order, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "MultiSeries":
        coeffs = {
            tuple(t["exponents"]): parse_rational(t["coefficient"])
            for t in data["terms"]
        }
        return cls(int(data["nvars"]), int(data["order"]), coeffs)


def compose_linear(coeffs: Sequence, form: Vector, order: int) -> MultiSeries:
    """Substitute the linear form into a univariate series: sum_r c_r * form^r."""
    series = MultiSeries(1, order, {(r,): c for r, c in enumerate(coeffs)})
    return compose_multivariate(series, [form], order)


def compose_multivariate(series: MultiSeries, forms: Sequence[Vector], order: int) -> MultiSeries:
    """Substitute one linear form per variable of `series`."""
    if len(forms) != series.nvars:
        raise ValueError("need one form per variable")
    nvars = len(forms[0]) if forms else 0
    # powers of each form, computed on demand
    powers: list[list[MultiSeries]] = [
        [MultiSeries.constant(1, nvars, order)] for _ in forms
    ]

    def power(i: int, k: int) -> MultiSeries:
        while len(powers[i]) <= k:
            nxt = powers[i][-1] * MultiSeries.from_linear(forms[i], order)
            powers[i].append(nxt.truncate(order))
        return powers[i][k]

    out = MultiSeries.zero(nvars, order)
    for expo, c in series.coeffs.items():
        if _degree(expo) > order:
            continue
        term = MultiSeries.constant(c, nvars, order)
        for i, k in enumerate(expo):
            if k:
                term = term * power(i, k)
        out = out + term.truncate(order)
    return out


def divide_by_linear_form(series: MultiSeries, form: Vector) -> MultiSeries:
    """Exact division by a nonzero linear form; ValueError when not divisible.

    Works degree by degree: within each homogeneous piece, the division
    algorithm with the pivot variable taken as most significant terminates
    because every rewrite strictly lowers the pivot exponent of the leading
    monomial it removes.
    """
    if form.is_zero:
        raise ZeroDenominatorFormError("division by the zero form")
    if len(form) != series.nvars:
        raise ValueError("variable count mismatch")
    p = next(i for i, c in enumerate(form) if c != 0)
    ap = form[p]
    others = [(i, c) for i, c in enumerate(form) if c != 0 and i != p]
    quotient: dict[tuple[int, ...], Fraction] = {}
    for r in range(series.order + 1):
        piece = {e: c for e, c in series.coeffs.items() if _degree(e) == r}
        while piece:
            m = max(piece, key=lambda e: (e[p], e))
            if m[p] == 0:
                raise ValueError("series is not divisible by the form")
            c = piece.pop(m)
            q = list(m)
            q[p] -= 1
            q = tuple(q)
            qc = c / ap
            quotient[q] = quotient.get(q, Fraction(0)) + qc
            for i, fc in others:
                e = list(q)
                e[i] += 1
                e = tuple(e)
                nv = piece.get(e, Fraction(0)) - qc * fc
                if nv == 0:
                    piece.pop(e, None)
                else:
                    piece[e] = nv
    return MultiSeries(series.nvars, series.order - 1, quotient)


# -- classical series -----------------------------------------------------


def todd_univariate(order: int) -> list[Fraction]:
    """Coefficients of z/(1 - e^-z) through z^order, by exact series inversion."""
    g = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)]
    td = [Fraction(1)]
    for m in range(1, order + 1):
        td.append(-sum(g[j] * td[m - j] for j in range(1, m + 1)))
    return td


def t_series(order: int) -> list[Fraction]:
    """Coefficients of (td(z) - 1)/z through z^order."""
    return todd_univariate(order + 1)[1:]


def t2_series(order: int) -> MultiSeries:
    """The two-variable quotient (T(z1+z2) - T(z1))/z2 through total degree `order`.

    Closed form per coefficient: [z1^a z2^b] = C(a+b+1, b+1) * T_{a+b+1}.
    """
    t = t_series(order + 1)
    coeffs = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            c = math.comb(a + b + 1, b + 1) * t[a + b + 1]
            if c != 0:
                coeffs[(a, b)] = c
    return MultiSeries(2, order, coeffs)


# -- Laurent series in one variable ---------------------------------------


class LaurentSeries:
    """Exact series c_p t^p + ... + c_q t^q with integer p (possibly negative).

    Coefficients above known_to are unknown, not zero.
    """

    __slots__ = ("shift", "coeffs", "known_to")

    def __init__(self, shift: int, coeffs: Sequence, known_to: int):
        coeffs = [Fraction(c) for c in coeffs]
        # canonical: no leading/trailing zeros inside the window
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            shift += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) > known_to - shift + 1:
            raise ValueError("coefficients extend past known_to")
        if not coeffs:
            shift = 0
        self.shift = shift
        self.coeffs = coeffs
        self.known_to = known_to

    @classmethod
    def zero(cls, known_to: int) -> "LaurentSeries":
        return cls(0, [], known_to)

    @classmethod
    def from_taylor(cls, coeffs: Sequence, known_to: int) -> "LaurentSeries":
        return cls(0, list(coeffs), known_to)

    @classmethod
    def exp_taylor(cls, c, known_to: int) -> "LaurentSeries":
        """e^(c t) as a Taylor series."""
        c = Fraction(c)
        return cls(0, [c ** r / math.factorial(r) for r in range(known_to + 1)], known_to)

    def coefficient(self, e: int) -> Fraction:
        if e > self.known_to:
            raise ValueError(f"coefficient of t^{e} unknown (known to {self.known_to})")
        i = e - self.shift
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def valuation(self) -> int:
        """Least exponent with a known nonzero coefficient (known_to + 1 if none)."""
        return self.shift if self.coeffs else self.known_to + 1

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.shift == other.shift
            and self.coeffs == other.coeffs
            and self.known_to == other.known_to
        )

    def __repr__(self):
        if not self.coeffs:
            return f"LaurentSeries(0; known_to={self.known_to})"
        bits = [
            f"{c}*t^{self.shift + i}"
            for i, c in enumerate(self.coeffs) if c != 0
        ]
        return f"LaurentSeries({' + '.join(bits)}; known_to={self.known_to})"

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        known = min(self.known_to, other.known_to)
        lo = min(self.valuation, other.valuation, known)
        out = [Fraction(0)] * (known - lo + 1)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                e = s.shift + i
                if e <= known:
                    out[e - lo] += c
        return LaurentSeries(lo, out, known)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.shift, [-c for c in self.coeffs], self.known_to)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scale(self, c) -> "LaurentSeries":
        c = Fraction(c)
        if c == 0:
            return LaurentSeries.zero(self.known_to)
        return LaurentSeries(self.shift, [c * x for x in self.coeffs], self.known_to)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        known = min(self.known_to + other.valuation, other.known_to + self.valuation)
        lo = self.valuation + other.valuation
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(known)
        out = [Fraction(0)] * (known - lo + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            e1 = self.shift + i
            for j, b in enumerate(other.coeffs):
                e = e1 + other.shift + j
                if b != 0 and e <= known:
                    out[e - lo] += a * b
        return LaurentSeries(lo, out, known)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse; requires a known nonzero leading coefficient."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of a (known-)zero Laurent series")
        nu = self.valuation
        unit = self.coeffs  # unit[0] != 0 after canonicalization
        m = self.known_to - nu  # unit known through degree m
        inv = [1 / unit[0]]
        for r in range(1, m + 1):
            s = Fraction(0)
            for j in range(1, r + 1):
                uj = unit[j] if j < len(unit) else Fraction(0)
                s += uj * inv[r - j]
            inv.append(-s / unit[0])
        return LaurentSeries(-nu, inv, self.known_to - 2 * nu)

    def agrees_with(self, other: "LaurentSeries", through: int | None = None) -> bool:
        r = min(self.known_to, other.known_to)
        if through is not None:
            r = min(r, through)
        lo = min(self.valuation, other.valuation, r)
        return all(self.coefficient(e) == other.coefficient(e) for e in range(lo, r + 1))

    def to_json(self) -> dict:
        return {
            "shift": self.shift,
            "known_to": self.known_to,
            "coefficients": [format_rational(c) for c in self.coeffs],
        }


def restrict_to_direction(series: MultiSeries, y0: Vector) -> LaurentSeries:
    """Specialize a series on V to the line t*y0 in the dual: v_i |-> t*y0_i."""
    if len(y0) != series.nvars:
        raise ValueError("direction dimension mismatch")
    out = [Fraction(0)] * (series.order + 1)
    for expo, c in series.coeffs.items():
        val = c
        for i, k in enumerate(expo):
            if k:
                val *= y0[i] ** k
        out[_degree(expo)] += val
    return LaurentSeries.from_taylor(out, series.order)


# -- rational function terms ----------------------------------------------


class RationalFunctionTerm:
    """numerator / product of linear forms, denominators in canonical sorted order."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: MultiSeries, denominator: Iterable[Vector]):
        denom = []
        for f in denominator:
            if f.is_zero:
                raise ZeroDenominatorFormError("zero linear form in denominator")
            if len(f) != numerator.nvars:
                raise ValueError("denominator form dimension mismatch")
            denom.append(f)
        self.numerator = numerator
        self.denominator = tuple(sorted(denom, key=lambda v: v.entries))

    def __repr__(self):
        return f"RationalFunctionTerm({self.numerator!r} / {list(self.denominator)!r})"


def _sign_canonical(form: Vector) -> tuple[Vector, Fraction]:
    """Write form = gamma * p with p primitive integer, first nonzero entry > 0."""
    p = primitive(form)
    lead = next(c for c in p if c != 0)
    if lead < 0:
        p = -p
    # gamma solves form = gamma * p at the first nonzero slot
    i = next(i for i, c in enumerate(p) if c != 0)
    return p, form[i] / p[i]


def denominator_union(form_lists: Iterable[Iterable[Vector]]) -> tuple[Vector, ...]:
    """Canonical multiset union of several lists of denominator forms.

    Each form is made primitive with positive leading entry; a form occurs
    as often as in the list that holds it most often. Sorted.
    """
    union: Counter = Counter()
    for forms in form_lists:
        union |= Counter(_sign_canonical(f)[0] for f in forms)
    return tuple(sorted(union.elements(), key=lambda v: v.entries))


def combine_over_common_denominator(
    terms: Sequence[RationalFunctionTerm], d: int
) -> tuple[MultiSeries, tuple[Vector, ...]]:
    """Sum the terms into a single fraction over the multiset union of denominators.

    The returned numerator is computed through total degree d + (number of
    denominator factors), enough to recover a quotient through degree d.
    Denominator forms are normalized as in denominator_union; the scale
    factors move into the numerator.
    """
    if not terms:
        raise ValueError("no terms")
    nvars = terms[0].numerator.nvars
    union = denominator_union(t.denominator for t in terms)
    need = Counter(union)
    target = d + len(union)

    total = MultiSeries.zero(nvars, target)
    for t in terms:
        gamma = Fraction(1)
        have: Counter = Counter()
        for f in t.denominator:
            p, g = _sign_canonical(f)
            gamma *= g
            have[p] += 1
        scaled = t.numerator.scale(1 / gamma)
        for p, k in need.items():
            for _ in range(k - have[p]):
                scaled = scaled * MultiSeries.from_linear(p, target)
        total = total + scaled.truncate(target)
    return total, union
