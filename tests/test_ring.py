import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermsiegel import ring
from hermsiegel.errors import HermSiegelError, NonIntegralElement
from hermsiegel.ring import INF, FElem, field, norm_solve, reduce, smallest_nonresidue, val_p


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


def test_valuation_examples(F3):
    assert F3.one.valuation() == 0
    assert (F3.uniformizer * F3.t).valuation() == 1
    assert F3.elem(Fraction(1, 3), 1).valuation() == -1
    assert F3.zero.valuation() == INF


small_rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=27
)


@settings(max_examples=60, deadline=None)
@given(a=small_rationals, b=small_rationals, c=small_rationals, d=small_rationals)
def test_valuation_laws(a, b, c, d):
    F = field(3)
    x = F.elem(a, b)
    y = F.elem(c, d)
    if not x.is_zero() and not y.is_zero():
        assert (x * y).valuation() == x.valuation() + y.valuation()
    s = x + y
    if not s.is_zero():
        assert s.valuation() >= min(x.valuation(), y.valuation())
        if x.valuation() != y.valuation():
            assert s.valuation() == min(x.valuation(), y.valuation())
    assert x.conjugate().valuation() == x.valuation()


@settings(max_examples=40, deadline=None)
@given(a=small_rationals, b=small_rationals)
def test_trace_and_norm_land_downstairs(a, b):
    F = field(5)
    x = F.elem(a, b)
    tr = x + x.conjugate()
    assert tr.b == 0
    nm = x * x.conjugate()
    assert nm.b == 0
    assert nm.a == x.norm()


def test_conjugation_involution(F3):
    x = F3.elem(2, 5)
    assert x.conjugate().conjugate() == x
    assert F3.elem(4, 0).conjugate() == F3.elem(4, 0)
    assert F3.t.conjugate() == -F3.t


def test_field_inverse(F3):
    x = F3.elem(Fraction(7, 2), Fraction(-1, 3))
    assert x * x.inverse() == F3.one
    with pytest.raises(ZeroDivisionError):
        F3.zero.inverse()


def test_reduce_examples(F3):
    assert reduce(F3.elem(9), 2) == 0
    r = reduce(F3.elem(1, 1), 1)
    assert (r.a, r.b) == (1, 1)
    with pytest.raises(NonIntegralElement):
        reduce(F3.elem(Fraction(1, 3)), 2)


def test_reduce_is_ring_hom(F3, rng):
    k = 3
    for _ in range(30):
        x = F3.elem(rng.randint(-40, 40), rng.randint(-40, 40))
        y = F3.elem(rng.randint(-40, 40), rng.randint(-40, 40))
        assert reduce(x * y, k) == reduce(x, k) * reduce(y, k)
        assert reduce(x + y, k) == reduce(x, k) + reduce(y, k)
        assert reduce(x.conjugate(), k) == reduce(x, k).conjugate()


def test_residue_units_invertible(F3):
    R = F3.residue_ring(2)
    count = 0
    for u in R.units():
        assert (u * u.inverse()) == 1
        count += 1
    assert count == 81 - 9  # q^4 minus the non-units


def test_norm_solve_hits_target():
    for p in (3, 5, 7):
        F = field(p)
        for k in (1, 2, 4):
            R = F.residue_ring(k)
            for c in range(1, min(p**k, 30)):
                if c % p == 0:
                    continue
                z = norm_solve(R, c)
                assert z.norm() == c % R.modulus


def test_val_p():
    assert val_p(Fraction(9, 5), 3) == 2
    assert val_p(Fraction(5, 27), 3) == -3
    assert val_p(0, 3) == INF


# The Fraction pair (a, b) is the reference for the integer triple (n, m, d):
# every operation below is checked against its formula on the pair.

def _val(r: Fraction, p: int):
    if r == 0:
        return INF
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _assert_pair(x, a, b):
    assert (x.a, x.b) == (a, b)
    assert x.d > 0 and math.gcd(x.n, x.m, x.d) == 1
    assert (Fraction(x.n, x.d), Fraction(x.m, x.d)) == (a, b)


# denominators with and without factors of 3 and of 5
mixed_rationals = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 5, 7, 9, 10, 25, 27, 45, 75])
)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([3, 5]), a=mixed_rationals, b=mixed_rationals, c=mixed_rationals, d=mixed_rationals)
def test_triple_matches_fraction_pair(p, a, b, c, d):
    F = field(p)
    eps = F.eps
    x, y = F.elem(a, b), F.elem(c, d)
    _assert_pair(x, a, b)
    _assert_pair(x + y, a + c, b + d)
    _assert_pair(x - y, a - c, b - d)
    _assert_pair(x * y, a * c + eps * b * d, a * d + b * c)
    _assert_pair(x.conjugate(), a, -b)
    _assert_pair(-x, -a, -b)
    ny = c * c - eps * d * d
    if ny != 0:
        _assert_pair(y.inverse(), c / ny, -d / ny)
        _assert_pair(x / y, (a * c - eps * b * d) / ny, (b * c - a * d) / ny)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    assert x.valuation() == min(_val(a, p), _val(b, p))
    assert x.norm() == a * a - eps * b * b
    assert x.trace() == 2 * a
    assert x.is_zero() == (a == 0 and b == 0)
    assert (x == y) == ((a, b) == (c, d))
    assert (x == a) == (b == 0) and (x == a.numerator) == (b == 0 and a.denominator == 1)
    assert x + field(p).one == x + 1
    with pytest.raises(HermSiegelError):
        x + field(7).one
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    assert FElem(F, a, b) == x and hash(FElem(F, a, b)) == hash(x)
    if min(_val(a, p), _val(b, p)) >= 0:
        for k in (1, 3):
            mod = p**k
            r = reduce(x, k)
            assert (r.a, r.b) == tuple(f.numerator * pow(f.denominator, -1, mod) % mod for f in (a, b))
    else:
        with pytest.raises(NonIntegralElement):
            reduce(x, 2)


def test_integer_arithmetic_builds_no_fraction(monkeypatch):
    F = field(5)
    x, y = F.elem(3, -2), F.elem(10, 15)

    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction built on the integer path")

    monkeypatch.setattr(ring, "Fraction", no_fraction)
    prod, total, diff = x * y, x + y, x - y
    shifted = prod + F.uniformizer.inverse()
    inv = shifted.inverse()
    conj = inv.conjugate()
    facts = (
        inv.valuation(),
        y.valuation(),
        prod.is_zero(),
        (x - x).is_zero(),
        inv * shifted == F.one,
        x == 3,
        x == F.elem(3, -2),
    )
    monkeypatch.undo()
    eps = F.eps
    _assert_pair(prod, 3 * 10 + eps * -2 * 15, 3 * 15 + -2 * 10)
    _assert_pair(total, 13, 13)
    _assert_pair(diff, -7, -17)
    s0, s1 = prod.a + Fraction(1, 5), prod.b
    ns = s0 * s0 - eps * s1 * s1
    _assert_pair(inv, s0 / ns, -s1 / ns)
    _assert_pair(conj, s0 / ns, s1 / ns)
    assert facts == (min(_val(s0 / ns, 5), _val(s1 / ns, 5)), 1, False, True, True, False, True)


@pytest.mark.parametrize("p", [3, 5])
def test_ppow_matches_fraction_power(p):
    F = field(p)
    for k in range(-6, 7):
        x = F.ppow(k)
        assert x == F.elem(Fraction(p) ** k) and hash(x) == hash(F.elem(Fraction(p) ** k))
        assert (x.n, x.m, x.d) == ((p**k, 0, 1) if k >= 0 else (1, 0, p**-k))
        assert x.valuation() == k
