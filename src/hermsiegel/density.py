"""Local Siegel series polynomials and derived densities.

Den(X, L) is computed as the weighted overlattice sum

    Den(X, L) = sum over integral L' >= L of X^(2 length(L'/L)) * m(t(L'); X)

with weight factors m(a; X) = prod_{i=0}^{a-1} (1 - (-q)^i X).

The sum only needs the (length, type) histogram of the integral overlattices,
and that histogram is memoized once per isometry class, keyed on
(p, eps, sorted fundamental invariants).  The key is exact: over the
unramified F/F0 every unit of Z_p is a norm from O_F, so each Jordan
component is determined by its scale and rank, and the invariants determine
L up to isometry (Jacobowitz).  Den(X, L), its central derivative and the
weighted sums of the decomposition layer all read that one entry; different
bases or ambient spaces of the same class share it.

All closed low-rank forms are implemented with exact geometric-series
expansions so that no rational-function arithmetic is ever approximate; the
single division by (1 + X) in the rank-3 closed form is performed exactly and
audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EvenValuation,
    HermSiegelError,
    OddValuation,
    PreconditionViolated,
    RemainderNonzero,
)
from .lattice import EmbeddedLattice, HermSpace, from_generators, mat
from .overlat import DEFAULT_BUDGET, overlattice_profiles

# ---------------------------------------------------------------------------
# dense polynomial helpers (ascending coefficients, exact integers/Fractions)


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_neg(a):
    return [-x for x in a]

def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_scale(c, a):
    return _trim([c * x for x in a])


def poly_shift(a, k):
    """Multiply by X^k."""
    return _trim([0] * k + list(a))


def poly_eval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_deriv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


def poly_compose_scale(a, c):
    """a(c * X) for a scalar c."""
    return _trim([a[i] * c**i for i in range(len(a))])


def poly_divmod_exact(a, b):
    """Quotient and remainder of a by b with exact coefficient arithmetic."""
    a = [Fraction(x) for x in a]
    b = _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        q[i] = c
        if c:
            for j in range(len(b)):
                a[i + j] -= c * b[j]
    return _trim(q), _trim(a)


def poly_to_string(a, var="X") -> str:
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = f"{mag}"
        elif i == 1:
            term = f"{var}" if mag == 1 else f"{mag}*{var}"
        else:
            term = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# weight factors


def weight_m(a: int, q: int):
    """m(a; X) = prod_{i=0}^{a-1} (1 - (-q)^i X); m(0; X) = 1."""
    if a < 0:
        raise PreconditionViolated("weight index must be >= 0")
    out = [1]
    for i in range(a):
        out = poly_mul(out, [1, -((-q) ** i)])
    return out


def weight_m_der(a: int, q: int) -> int:
    """m(a) = -d/dX|_{X=1} m(a; X) = prod_{i=1}^{a-1} (1 - (-q)^i); m(0) = 0, m(1) = 1."""
    if a < 0:
        raise PreconditionViolated("weight index must be >= 0")
    if a == 0:
        return 0
    out = 1
    for i in range(1, a):
        out *= 1 - (-q) ** i
    return out


# ---------------------------------------------------------------------------
# the density polynomial


@dataclass(frozen=True)
class DensityPoly:
    """Normalized local Siegel series: integer coefficients, ascending in X."""

    coeffs: tuple
    q: int
    val_parity: int

    def __post_init__(self):
        if any(int(c) != c for c in self.coeffs):
            raise HermSiegelError("density polynomial must have integer coefficients")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        return poly_eval(self.coeffs, Fraction(x))

    def derivative_at_one(self) -> Fraction:
        return poly_eval(poly_deriv(self.coeffs), Fraction(1))

    def is_zero(self) -> bool:
        return not self.coeffs

    def functional_equation_holds(self, val: int) -> bool:
        """Den(X) == (-X)^val * Den(1/X) as an exact polynomial identity."""
        c = list(self.coeffs)
        if not c:
            return True
        if len(c) - 1 > val:
            return False
        sign = (-1) ** val
        flipped = [0] * (val + 1)
        for i, x in enumerate(c):
            flipped[val - i] = sign * x
        return _trim(flipped) == _trim(c)

    def __str__(self):
        return poly_to_string(self.coeffs)

    def to_json(self):
        return {"coeffs": list(self.coeffs), "q": self.q, "val": self.val_parity}


@dataclass
class _ClassEntry:
    """What the density layer knows about one isometry class."""

    histogram: tuple  # sorted ((length, type), number of integral overlattices)
    poly: DensityPoly
    derivative: Fraction | None = None  # verified -Den'(1), odd valuation only


# memo of class entries, keyed on (p, eps, sorted fundamental invariants)
_den_cache: dict = {}


def _class_entry(fld, invs: tuple, member, budget) -> _ClassEntry:
    """The memo entry of the class (fld, invs); on a miss `member()` builds a
    lattice of that class, whose overlattices are enumerated once."""
    key = (fld.p, fld.eps, invs)
    entry = _den_cache.get(key)
    if entry is None:
        counts = {}
        if all(a >= 0 for a in invs):
            for length, type_t, _ in overlattice_profiles(member(), budget):
                counts[length, type_t] = counts.get((length, type_t), 0) + 1
        hist = tuple(sorted(counts.items()))
        acc = []
        for (length, type_t), n in hist:
            acc = poly_add(acc, poly_scale(n, poly_shift(weight_m(type_t, fld.q), 2 * length)))
        entry = _ClassEntry(hist, DensityPoly(tuple(acc), fld.q, sum(invs) % 2))
        _den_cache[key] = entry
    return entry


def _entry_of(L: EmbeddedLattice, budget) -> _ClassEntry:
    return _class_entry(L.field, tuple(L.invariants()), lambda: L, budget)


def overlattice_histogram(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> tuple:
    """Sorted ((length, type), count) pairs over the integral overlattices of
    L, memoized on the isometry class; empty when L is not integral."""
    return _entry_of(L, budget).histogram


def den_poly(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> DensityPoly:
    """Den(X, L), memoized on the isometry class of L."""
    return _entry_of(L, budget).poly


def derived_den(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Central derivative -d/dX|_{X=1} Den(X, L), defined for odd val(L).

    Cross-computed two ways (polynomial derivative and the weighted lattice
    count sum of m(t(L')) over a second, independent enumeration) which must
    agree exactly; the agreed value is kept with the class.
    """
    if not L.is_integral():
        raise PreconditionViolated("derived density requires an integral lattice")
    if L.val() % 2 == 0:
        raise EvenValuation("central derivative needs odd valuation; use the central value instead")
    entry = _entry_of(L, budget)
    if entry.derivative is None:
        q = L.field.q
        via_poly = -entry.poly.derivative_at_one()
        via_weights = sum(weight_m_der(type_t, q) for _, type_t, _ in overlattice_profiles(L, budget))
        if via_poly != via_weights:
            raise HermSiegelError("internal disagreement between derivative paths")
        entry.derivative = Fraction(via_weights)
    return entry.derivative


def den_value(L: EmbeddedLattice, x, budget: int = DEFAULT_BUDGET) -> Fraction:
    return den_poly(L, budget)(Fraction(x))


def den_central(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Den(1, L): the number of self-dual overlattices of L."""
    return den_value(L, 1, budget)


def functional_eq_check(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> bool:
    if not L.is_integral():
        raise PreconditionViolated("functional equation check requires an integral lattice")
    return den_poly(L, budget).functional_equation_holds(L.val())


# ---------------------------------------------------------------------------
# rank induction


def induction_check(Lflat: EmbeddedLattice, x, budget: int = DEFAULT_BUDGET) -> bool:
    """Check Den(X, L) = X^2 Den(X, L') + (1 - X) Den(-qX, Lflat) with
    L = Lflat + <x>, L' = Lflat + <x/p>, for x perpendicular to Lflat with
    val(x) > e_max(Lflat)."""
    space = Lflat.space
    fld = space.params
    for j in range(Lflat.rank):
        if not space.pair(x, Lflat.column(j)).is_zero():
            raise PreconditionViolated("x must be exactly perpendicular to the flat")
    if space.vector_val(x) <= Lflat.invariants().e_max:
        raise PreconditionViolated("val(x) must exceed the largest invariant")
    pinv = fld.elem(Fraction(1, fld.p))
    L = from_generators(space, Lflat.columns() + [x])
    Lp = from_generators(space, Lflat.columns() + [tuple(pinv * c for c in x)])
    q = fld.q
    lhs = list(den_poly(L, budget).coeffs)
    rhs = poly_add(
        poly_shift(list(den_poly(Lp, budget).coeffs), 2),
        poly_mul([1, -1], poly_compose_scale(list(den_poly(Lflat, budget).coeffs), -q)),
    )
    return lhs == rhs


# ---------------------------------------------------------------------------
# closed low-rank forms


def rank1_closed(a: int, q: int) -> DensityPoly:
    """Den(X, <p^a>) = sum_{i=0}^{a} (-X)^i."""
    if a < 0:
        raise PreconditionViolated("a must be >= 0")
    return DensityPoly(tuple((-1) ** i for i in range(a + 1)), q, a % 2)


def _geom(base, lo, hi):
    """sum_{l=lo}^{hi-1} base^l as a polynomial in X, base a monomial [c, k]."""
    c, k = base
    out = []
    for l in range(lo, hi):
        out = poly_add(out, poly_shift([c**l], k * l))
    return out


def sankaran_rank2(a: int, b: int, q: int) -> DensityPoly:
    """Closed form for the almost-self-dual density of diag(p^a, p^b), a <= b,
    a + b even; expanded with exact geometric series, one exact division.

    The two invariants enter the closed form with exchanged roles (A = b is
    the larger one); keeping them in the written order produces a polynomial
    with negative central derivative already at (0, 2), which no density
    satisfies, while the exchanged form matches the overlattice enumeration
    and the rank induction identity on the whole test triangle.
    """
    if not (0 <= a <= b):
        raise PreconditionViolated("need 0 <= a <= b")
    if (a + b) % 2 != 0:
        raise PreconditionViolated("a + b must be even")
    A, B = b, a
    eps = B % 2
    one_minus_x = [1, -1]
    head = poly_scale(1, one_minus_x)
    if eps:
        head = poly_mul(one_minus_x, [1, -(q * q - q), 1])
    # geometric pieces: all denominators expand into finite sums
    # ((qX)^B - (qX)^eps) / (qX - 1) = sum_{l=eps}^{B-1} (qX)^l
    g1 = _geom((q, 1), eps, B)
    t1 = poly_mul(poly_scale(q * (1 - q), [0, 1]), g1)
    # (X^(2B) - X^(2eps)) / (X^2 - 1) = sum X^(2l), l = eps..B-1
    g2 = []
    for l in range(eps, B):
        g2 = poly_add(g2, poly_shift([1], 2 * l))
    t2 = poly_mul(poly_mul([0, 0, 1], poly_sub([q], poly_scale(Fraction(1, q), [0, 1]))), g2)
    # (X^(A+1) - X^(B+1)) / (X^2 - 1) = sum_{l=0}^{(A-B)/2-1} X^(B+1+2l)
    g3 = []
    for l in range((A - B) // 2):
        g3 = poly_add(g3, poly_shift([1], B + 1 + 2 * l))
    bracket = poly_add(poly_scale(-(q ** (B + 1)), [-1, 1]), poly_sub(poly_shift([q], B + 1), poly_scale(Fraction(1, q), poly_shift([1], B + 2))))
    t3 = poly_mul(bracket, g3)
    braces = poly_add(poly_add(t1, t2), t3)
    num = poly_mul(one_minus_x, braces)
    quot, rem = poly_divmod_exact(num, [1, Fraction(-1, q)])
    if rem:
        raise RemainderNonzero("rank-2 closed form: division by (1 - X/q) not exact")
    total = poly_add(head, quot)
    coeffs = []
    for c in total:
        f = Fraction(c)
        if f.denominator != 1:
            raise RemainderNonzero("rank-2 closed form produced non-integer coefficients")
        coeffs.append(f.numerator)
    return DensityPoly(tuple(_trim(coeffs)), q, (a + b + 1) % 2)


def terstiege_rank3(a: int, b: int, q: int) -> DensityPoly:
    """Closed form for Den(X, diag(p^a, p^b, p)), a <= b, a + b even; the
    division by (1 + X) is exact and audited.  The invariants enter with
    exchanged roles, as in sankaran_rank2."""
    if not (0 <= a <= b):
        raise PreconditionViolated("need 0 <= a <= b")
    if (a + b) % 2 != 0:
        raise PreconditionViolated("a + b must be even")
    A, B = b, a
    braces = []
    for l in range(B + 2):
        term = poly_sub(poly_shift([q**l], l), poly_shift([q ** (1 + B - l)], l + A + 1))
        braces = poly_add(braces, term)
    for l in range(B):
        term = poly_sub(poly_shift([q ** (2 + l)], 1 + l), poly_shift([q ** (1 + B - l)], l + A + 2))
        braces = poly_sub(braces, term)
    quot, rem = poly_divmod_exact(braces, [1, 1])
    if rem:
        raise RemainderNonzero("rank-3 closed form: division by (1 + X) not exact")
    coeffs = []
    for c in quot:
        f = Fraction(c)
        if f.denominator != 1:
            raise RemainderNonzero("rank-3 closed form produced non-integer coefficients")
        coeffs.append(f.numerator)
    return DensityPoly(tuple(_trim(coeffs)), q, (a + b + 1) % 2)


# ---------------------------------------------------------------------------
# almost self-dual variant


def adjoin_uniformizer_line(L: EmbeddedLattice) -> EmbeddedLattice:
    """L # = L orthogonal-sum <u0> with (u0, u0) = p, in an extended ambient."""
    fld = L.field
    n = L.dim
    g = [[fld.zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            g[i][j] = L.space.gram[i][j]
    g[n][n] = fld.uniformizer
    bigspace = HermSpace(fld, mat(g))
    basis = [[fld.zero] * (L.rank + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(L.rank):
            basis[i][j] = L.basis[i][j]
    basis[n][L.rank] = fld.one
    return EmbeddedLattice(bigspace, mat(basis), _check=False)


def den_lambda_poly(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> DensityPoly:
    """Density polynomial relative to an almost self-dual reference lattice:
    Den_Lambda(X, L) = Den(X, L # <p>).  The class of L # <p> has the
    invariants of L plus one 1, so a memo hit builds no lattice."""
    if not L.is_integral():
        return DensityPoly((), L.field.q, (L.val() + 1) % 2)
    invs = tuple(sorted(tuple(L.invariants()) + (1,)))
    return _class_entry(L.field, invs, lambda: adjoin_uniformizer_line(L), budget).poly


def derived_den_lambda(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> Fraction:
    if L.val() % 2 != 0:
        raise OddValuation("almost-self-dual derivative needs even valuation")
    pol = den_lambda_poly(L, budget)
    return -pol.derivative_at_one()


# ---------------------------------------------------------------------------
# local Whittaker normalization factors


@dataclass(frozen=True)
class WhittakerFactors:
    """Rational factors of the local Whittaker value and derivative; the
    symbolic transcendental factor of the derivative is recorded as a label
    and never evaluated."""

    value: Fraction
    derivative: Fraction | None
    log_unit: str


def whittaker_factors(L: EmbeddedLattice, level: str, budget: int = DEFAULT_BUDGET) -> WhittakerFactors:
    q = L.field.q
    n = L.rank
    if level == "selfdual":
        prod = Fraction(1)
        for i in range(1, n + 1):
            prod *= 1 - Fraction(-q) ** (-i)
        if L.val() % 2 == 1:
            return WhittakerFactors(Fraction(0), derived_den(L, budget) * prod, "log q^2")
        return WhittakerFactors(den_central(L, budget) * prod, None, "log q^2")
    if level == "almost_selfdual":
        prod = Fraction(-q) ** (-n)
        for i in range(1, n):
            prod *= 1 - Fraction(-q) ** (-i)
        if L.val() % 2 == 0:
            return WhittakerFactors(Fraction(0), derived_den_lambda(L, budget) * prod, "log q^2")
        return WhittakerFactors(den_lambda_poly(L, budget)(1) * prod, None, "log q^2")
    raise PreconditionViolated(f"unknown level {level!r}")
