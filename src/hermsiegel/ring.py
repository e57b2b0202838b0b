"""Exact arithmetic in F0 = Q_p (p odd), F = F0(t) with t^2 = eps, and O_F/p^k.

Elements of F are a + b*t with a, b exact rationals, i.e. the subfield Q(t)
sitting densely in F; every prime other than p is a unit, so p-adic
valuations and residue reductions are exact.  An element is kept as one
integer triple (n, m, d) over the least common denominator, a = n/d and
b = m/d, which is canonical, so arithmetic is integer arithmetic with one
gcd per result.  Conjugation sends t to -t.  The extension is unramified, so
p itself is a uniformizer of F and val(a + b*t) = min(val_p(a), val_p(b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import HermSiegelError, NonIntegralElement

INF = math.inf


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod p (p an odd prime)."""
    squares = {(x * x) % p for x in range(1, p)}
    for r in range(2, p):
        if r % p not in squares:
            return r
    raise HermSiegelError(f"no quadratic non-residue mod {p}")


def val_p(r: Fraction | int, p: int):
    """p-adic valuation of a rational, +inf for 0."""
    if r == 0:
        return INF
    if not isinstance(r, int):
        r = Fraction(r)
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class Field:
    """Parameters of the local field pair (F0, F): an odd prime p and a
    non-residue eps with F = F0(sqrt(eps)).  The residue size q equals p."""

    p: int
    eps: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise HermSiegelError(f"p = {self.p} is not an odd prime")
        sq = {(x * x) % self.p for x in range(1, self.p)}
        if self.eps % self.p in sq or self.eps % self.p == 0:
            raise HermSiegelError(f"eps = {self.eps} is a square mod {self.p}")

    @property
    def q(self) -> int:
        return self.p

    def elem(self, a, b=0) -> "FElem":
        if type(a) is int and type(b) is int:
            return _felem(self, a, b, 1)
        return FElem(self, a, b)

    @property
    def zero(self) -> "FElem":
        return self.elem(0)

    @property
    def one(self) -> "FElem":
        return self.elem(1)

    @property
    def t(self) -> "FElem":
        return self.elem(0, 1)

    @property
    def uniformizer(self) -> "FElem":
        return self.elem(self.p)

    def ppow(self, k: int) -> "FElem":
        """p^k for any integer k, built as its canonical triple."""
        if k >= 0:
            return _felem(self, self.p**k, 0, 1)
        return _felem(self, 1, 0, self.p**-k)

    def residue_ring(self, k: int) -> "ResidueRing":
        return ResidueRing(self, k)


def field(p: int, eps: int | None = None) -> Field:
    """Field for the given p, with eps defaulting to the smallest non-residue."""
    return Field(p, smallest_nonresidue(p) if eps is None else eps)


class FElem:
    """An element a + b*t of F, exact.

    Stored as three Python ints (n, m, d) with a = n/d, b = m/d, d > 0 and
    gcd(n, m, d) = 1.  Every element has exactly one such triple: a common
    denominator d > 0 with no factor shared by all three is the least one, so
    equality is equality of triples and the hash is the hash of the triple.
    Arithmetic runs on the ints, with one gcd per result, and builds no
    Fraction; `a` and `b` are Fractions built on demand.  Since gcd(n, m, d)
    = 1, val = -v_p(d) when p divides d, and min(v_p(n), v_p(m)) otherwise.
    """

    __slots__ = ("field", "n", "m", "d")

    def __init__(self, fld: Field, a, b):
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        _set_field(self, fld)
        _set_n(self, a.numerator * (d // a.denominator))
        _set_m(self, b.numerator * (d // b.denominator))
        _set_d(self, d)

    def __setattr__(self, *args):
        raise AttributeError("FElem is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self.n, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.m, self.d)

    def _coerce(self, other) -> "FElem":
        if isinstance(other, FElem):
            if other.field is not self.field and other.field != self.field:
                raise HermSiegelError("mixed fields")
            return other
        if isinstance(other, int):
            return _felem(self.field, other, 0, 1)
        if isinstance(other, Fraction):
            return _felem(self.field, other.numerator, 0, other.denominator)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _canonical(self.field, self.n + o.n, self.m + o.m, d1)
        return _canonical(self.field, self.n * d2 + o.n * d1, self.m * d2 + o.m * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _felem(self.field, -self.n, -self.m, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _canonical(self.field, self.n - o.n, self.m - o.m, d1)
        return _canonical(self.field, self.n * d2 - o.n * d1, self.m * d2 - o.m * d1, d1 * d2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n1, m1, n2, m2 = self.n, self.m, o.n, o.m
        return _canonical(self.field, n1 * n2 + self.field.eps * m1 * m2, n1 * m2 + m1 * n2, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "FElem":
        # 1/((n + m t)/d) = d (n - m t) / (n^2 - eps m^2)
        n, m, d = self.n, self.m, self.d
        nrm = n * n - self.field.eps * m * m
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in F")
        if nrm < 0:
            nrm, d = -nrm, -d
        return _canonical(self.field, d * n, -d * m, nrm)

    def conjugate(self) -> "FElem":
        return _felem(self.field, self.n, -self.m, self.d)

    def valuation(self):
        n, m, d = self.n, self.m, self.d
        if not n and not m:
            return INF
        p = self.field.p
        v = 0
        if d % p == 0:
            while d % p == 0:
                d //= p
                v -= 1
            return v
        while n % p == 0 and m % p == 0:
            n //= p
            m //= p
            v += 1
        return v

    def norm(self) -> Fraction:
        """Norm to F0: x * conjugate(x), a rational."""
        return Fraction(self.n * self.n - self.field.eps * self.m * self.m, self.d * self.d)

    def trace(self) -> Fraction:
        return Fraction(2 * self.n, self.d)

    def is_zero(self) -> bool:
        return not self.n and not self.m

    def is_integral(self) -> bool:
        return self.d % self.field.p != 0

    def __eq__(self, other):
        if isinstance(other, FElem):
            return (
                self.n == other.n
                and self.m == other.m
                and self.d == other.d
                and (self.field is other.field or self.field == other.field)
            )
        if isinstance(other, int):
            return self.n == other and not self.m and self.d == 1
        if isinstance(other, Fraction):
            return self.n == other.numerator and not self.m and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.m, self.d, self.field.p, self.field.eps))

    def __repr__(self):
        if self.m == 0:
            return f"{self.a}"
        if self.n == 0:
            return f"{self.b}*t"
        return f"{self.a} + {self.b}*t"

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    @staticmethod
    def from_json(fld: Field, obj) -> "FElem":
        if isinstance(obj, dict):
            return fld.elem(Fraction(obj["a"]), Fraction(obj.get("b", "0")))
        return fld.elem(Fraction(str(obj)))


_new = object.__new__
_set_field = FElem.field.__set__
_set_n = FElem.n.__set__
_set_m = FElem.m.__set__
_set_d = FElem.d.__set__


def _felem(fld: Field, n: int, m: int, d: int) -> FElem:
    """The element (n + m t)/d of a triple already in canonical form."""
    x = _new(FElem)
    _set_field(x, fld)
    _set_n(x, n)
    _set_m(x, m)
    _set_d(x, d)
    return x


def _canonical(fld: Field, n: int, m: int, d: int) -> FElem:
    """The element (n + m t)/d for any d > 0, brought to canonical form."""
    if d != 1:
        g = math.gcd(n, m, d)
        if g != 1:
            n //= g
            m //= g
            d //= g
    return _felem(fld, n, m, d)


@lru_cache(maxsize=None)
def _inv_mod(x: int, m: int) -> int:
    return pow(x, -1, m)


@dataclass(frozen=True)
class ResidueRing:
    """The finite ring O_F / p^k = (Z/p^k)[t] / (t^2 - eps)."""

    field: Field
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise HermSiegelError("precision must be non-negative")

    @property
    def modulus(self) -> int:
        return self.field.p ** self.k

    def elem(self, a: int, b: int = 0) -> "ResidueElem":
        m = self.modulus
        return ResidueElem(self, a % m, b % m)

    @property
    def zero(self) -> "ResidueElem":
        return self.elem(0)

    @property
    def one(self) -> "ResidueElem":
        return self.elem(1)

    def units(self):
        """Iterator over the units (elements not divisible by p)."""
        p, m = self.field.p, self.modulus
        for a in range(m):
            for b in range(m):
                if a % p != 0 or b % p != 0:
                    yield ResidueElem(self, a, b)


class ResidueElem:
    """An element a + b*t of O_F/p^k, residues stored in [0, p^k)."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: ResidueRing, a: int, b: int):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *args):
        raise AttributeError("ResidueElem is immutable")

    def _coerce(self, other) -> "ResidueElem":
        if isinstance(other, ResidueElem):
            if other.ring != self.ring:
                raise HermSiegelError("mixed residue rings")
            return other
        if isinstance(other, int):
            return self.ring.elem(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        m = self.ring.modulus
        return ResidueElem(self.ring, (self.a + o.a) % m, (self.b + o.b) % m)

    __radd__ = __add__

    def __neg__(self):
        m = self.ring.modulus
        return ResidueElem(self.ring, (-self.a) % m, (-self.b) % m)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        m = self.ring.modulus
        eps = self.ring.field.eps
        return ResidueElem(
            self.ring,
            (self.a * o.a + eps * self.b * o.b) % m,
            (self.a * o.b + self.b * o.a) % m,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "ResidueElem":
        m = self.ring.modulus
        return ResidueElem(self.ring, self.a, (-self.b) % m)

    def norm(self) -> int:
        return (self.a * self.a - self.ring.field.eps * self.b * self.b) % self.ring.modulus

    def valuation(self):
        """min(v_p(a), v_p(b)), capped at k (the valuation of 0)."""
        p, k = self.ring.field.p, self.ring.k
        v = 0
        a, b = self.a, self.b
        while v < k and a % p == 0 and b % p == 0:
            a //= p
            b //= p
            v += 1
        return v

    def is_unit(self) -> bool:
        p = self.ring.field.p
        return self.a % p != 0 or self.b % p != 0

    def inverse(self) -> "ResidueElem":
        if not self.is_unit():
            raise ZeroDivisionError("not a unit in O_F/p^k")
        m = self.ring.modulus
        n = (self.a * self.a - self.ring.field.eps * self.b * self.b) % m
        ninv = _inv_mod(n, m) if m > 1 else 0
        return ResidueElem(self.ring, (self.a * ninv) % m, (-self.b * ninv) % m)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.a == other % self.ring.modulus and self.b == 0
        if not isinstance(other, ResidueElem):
            return NotImplemented
        return self.ring == other.ring and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.ring.k, self.ring.field.p))

    def __repr__(self):
        return f"({self.a} + {self.b}*t mod {self.ring.field.p}^{self.ring.k})"

    def lift(self) -> FElem:
        return self.ring.field.elem(self.a, self.b)


def reduce(x: FElem, k: int) -> ResidueElem:
    """Reduction O_F -> O_F/p^k.  Raises NonIntegralElement below valuation 0.

    This is the one reduction of a p-integral element to an integer pair: the
    residue of (n + m t)/d is (n/d, m/d) mod p^k, with one inverse of d."""
    if not x.is_integral():
        raise NonIntegralElement(f"{x} has negative valuation")
    ring = x.field.residue_ring(k)
    m = ring.modulus
    if m == 1:
        return ring.elem(0)
    dinv = _inv_mod(x.d % m, m)
    return ring.elem(x.n * dinv, x.m * dinv)


def norm_solve(ring: ResidueRing, c: int) -> ResidueElem:
    """Some z in O_F/p^k with norm(z) = c, for c a unit mod p (Hensel lift).

    Norms are x^2 - eps*y^2; every unit of Z/p^k is a norm since the residue
    norm map is surjective and p is odd.
    """
    p, k = ring.field.p, ring.k
    eps = ring.field.eps
    c = c % ring.modulus
    if k == 0:
        return ring.zero
    if c % p == 0:
        raise HermSiegelError("norm_solve requires a unit target")
    x0 = y0 = None
    for x in range(p):
        for y in range(p):
            if (x * x - eps * y * y - c) % p == 0:
                x0, y0 = x, y
                break
        if x0 is not None:
            break
    if x0 is None:
        raise HermSiegelError("no residue solution; eps is not a non-residue?")
    x, y = x0, y0
    for j in range(1, k):
        mod = p ** (j + 1)
        r = (x * x - eps * y * y - c) % mod
        if r == 0:
            continue
        # one of the partial derivatives 2x, -2*eps*y is a unit
        if x % p != 0:
            x = (x - r * _inv_mod((2 * x) % mod, mod)) % mod
        else:
            y = (y + r * _inv_mod((2 * eps * y) % mod, mod)) % mod
    return ring.elem(x, y)
