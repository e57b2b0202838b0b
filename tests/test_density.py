from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_invariants, random_lattice
from hermsiegel import density
from hermsiegel.decomp import _weighted_sum_full
from hermsiegel.errors import EvenValuation, HermSiegelError, OddValuation, PreconditionViolated
from hermsiegel.density import (
    adjoin_uniformizer_line,
    den_central,
    den_lambda_poly,
    den_poly,
    den_value,
    derived_den,
    derived_den_lambda,
    functional_eq_check,
    induction_check,
    poly_eval,
    rank1_closed,
    sankaran_rank2,
    terstiege_rank3,
    weight_m,
    weight_m_der,
    whittaker_factors,
)
from hermsiegel.lattice import (
    flat_from_invariants,
    lattice_from_invariants,
    lattice_in_standard_space,
    random_unimodular,
    rebased,
)
from hermsiegel.overlat import DEFAULT_BUDGET, integral_overlattices, overlattice_profiles


def test_weight_factor_conventions():
    q = 3
    assert weight_m(0, q) == [1]
    assert weight_m_der(0, q) == 0
    assert weight_m_der(1, q) == 1
    assert weight_m(2, q) == [1, q - 1, -q]  # (1 - X)(1 + qX)
    assert weight_m_der(2, q) == 1 + q
    for t in range(6):
        assert poly_eval(weight_m(t, q), Fraction(-q)) == weight_m_der(t + 1, q)


def test_rank1_closed_form(F3):
    for a in range(6):
        L = lattice_from_invariants(F3, (a,))
        assert den_poly(L).coeffs == rank1_closed(a, 3).coeffs
        assert den_poly(L).coeffs == tuple((-1) ** i for i in range(a + 1))


def test_selfdual_density_is_one(F3):
    for r in (1, 2, 3):
        assert den_poly(lattice_from_invariants(F3, (0,) * r)).coeffs == (1,)


def test_nonintegral_density_is_zero(F3):
    L = lattice_from_invariants(F3, (1,)).dual()
    assert den_poly(L).is_zero()


def test_functional_equation_random(F3, F5, rng):
    for fld in (F3, F5):
        for _ in range(20):
            L = random_lattice(fld, rng, max_rank=3, max_val=5)
            assert functional_eq_check(L)


def test_derived_den_examples(F3):
    assert derived_den(lattice_from_invariants(F3, (3,))) == 2
    assert derived_den(lattice_from_invariants(F3, (0, 1))) == 1
    assert derived_den(lattice_from_invariants(F3, (0, 3))) == 2
    with pytest.raises(EvenValuation):
        derived_den(lattice_from_invariants(F3, (2,)))


def test_derived_den_rank1_law(F3):
    for k in range(4):
        assert derived_den(lattice_from_invariants(F3, (2 * k + 1,))) == k + 1


def test_central_value_counts_selfdual_overs(F3, rng):
    L = lattice_from_invariants(F3, (1, 1))
    assert den_central(L) == 4  # q + 1
    for _ in range(8):
        L = random_lattice(F3, rng, max_rank=3, max_val=4)
        recs = integral_overlattices(L)
        assert den_central(L) == sum(1 for r in recs if r.type_t == 0)


def test_isotropic_line_count(F3, F5):
    for fld in (F3, F5):
        q = fld.q
        for n in (2, 3):
            L = lattice_from_invariants(fld, (0,) * (n - 1) + (1, 1))
            assert den_central(L) == q + 1


def test_value_at_minus_q(F3, rng):
    q = 3
    for _ in range(8):
        L = random_lattice(F3, rng, max_rank=3, max_val=4)
        recs = integral_overlattices(L)
        lhs = den_value(L, -q)
        rhs = sum(q ** (2 * r.length) * weight_m_der(r.type_t + 1, q) for r in recs)
        assert lhs == rhs
        # value form of the functional equation
        assert lhs == den_value(L, Fraction(-1, q)) / L.vol()


def test_value_at_one_over_minus_q(F3, rng):
    q = 3
    for _ in range(6):
        L = random_lattice(F3, rng, max_rank=3, max_val=4)
        recs = integral_overlattices(L)
        lhs = den_value(L, Fraction(-1, q)) / L.vol()
        rhs = sum(1 for r in recs if r.type_t == 0) + sum(
            (1 + Fraction(1, q)) / r.lattice.vol() for r in recs if r.type_t == 1
        )
        assert lhs == rhs


def test_induction_formula(F3):
    for invs, kind, extra in [((0,), "split", 0), ((0,), "split", 1), ((1,), "nonsplit", 0), ((0, 1), "nonsplit", 0), ((1, 2), "split", 0)]:
        Lf, w = flat_from_invariants(F3, invs, kind)
        v0 = int(Lf.space.vector_val(w))
        e = max(invs)
        vx = e + 1 if (e + 1 - v0) % 2 == 0 else e + 2
        vx += 2 * extra
        x = tuple(F3.elem(Fraction(3) ** ((vx - v0) // 2)) * c for c in w)
        assert induction_check(Lf, x)


def test_induction_precondition(F3):
    Lf, w = flat_from_invariants(F3, (2,), "split")
    with pytest.raises(PreconditionViolated):
        induction_check(Lf, w)  # val(w) = 0 not above e_max


def test_closed_form_values():
    assert sankaran_rank2(0, 0, 3).coeffs == (1, -1)
    assert sankaran_rank2(1, 1, 3).coeffs == (1, -7, 7, -1)
    assert terstiege_rank3(0, 0, 5).coeffs == (1, -1)
    with pytest.raises(PreconditionViolated):
        sankaran_rank2(1, 2, 3)
    with pytest.raises(PreconditionViolated):
        terstiege_rank3(2, 1, 3)


def test_closed_form_triangle_small(F3):
    q = 3
    for a, b in [(0, 0), (1, 1), (0, 2), (2, 2), (1, 3)]:
        s = sankaran_rank2(a, b, q)
        t = terstiege_rank3(a, b, q)
        dl = den_lambda_poly(lattice_from_invariants(F3, (a, b)))
        assert s.coeffs == t.coeffs == dl.coeffs


def test_derived_den_lambda_rank1_law(F3):
    q = 3
    for k in range(4):
        L = lattice_from_invariants(F3, (2 * k,))
        assert derived_den_lambda(L) == 1 + (q + 1) * k
    with pytest.raises(OddValuation):
        derived_den_lambda(lattice_from_invariants(F3, (1,)))


def test_den_lambda_selfdual(F3):
    for n in (1, 2, 3):
        L = lattice_from_invariants(F3, (0,) * n)
        assert den_lambda_poly(L).coeffs == (1, -1)


def _histogram(L):
    return Counter((length, type_t) for length, type_t in overlattice_profiles(L))


def test_invariant_dependence(F3, F5, rng):
    # the overlattice histogram, which the density memo keys on (p, eps,
    # invariants), depends only on the fundamental invariants: different bases
    # and different ambient realizations agree, and so do their extensions by
    # a norm-p line; enumerated directly, bypassing the memo
    for fld, max_rank, max_val in ((F3, 3, 4), (F5, 2, 3)):
        for _ in range(5):
            invs = random_invariants(rng, max_rank, max_val)
            L1 = lattice_from_invariants(fld, invs)
            L2 = rebased(L1, random_unimodular(fld, L1.rank, rng))
            L3 = lattice_in_standard_space(fld, invs)
            for ext in (lambda L: L, adjoin_uniformizer_line):
                h1, h2, h3 = (_histogram(ext(L)) for L in (L1, L2, L3))
                assert h1 == h2 == h3


def _count_enumerations(monkeypatch):
    """Start from an empty density memo and record every enumeration it makes."""
    calls = []
    enumerate_profiles = density.overlattice_profiles

    def counted(L, budget=DEFAULT_BUDGET):
        calls.append(L)
        return enumerate_profiles(L, budget)

    monkeypatch.setattr(density, "overlattice_profiles", counted)
    monkeypatch.setattr(density, "_den_cache", {})
    return calls


def test_memo_enumerates_once_per_class(F3, rng, monkeypatch):
    calls = _count_enumerations(monkeypatch)
    invs = (1, 1, 2)
    L1 = lattice_from_invariants(F3, invs)
    L2 = rebased(L1, random_unimodular(F3, L1.rank, rng))
    L3 = lattice_in_standard_space(F3, invs)
    assert den_poly(L1).coeffs == den_poly(L2).coeffs == den_poly(L3).coeffs
    assert den_central(L2) == den_poly(L1)(1) and den_value(L3, -3) == den_poly(L1)(-3)
    assert len(calls) == 1


def test_derived_den_cross_checks_once_per_class(F3, rng, monkeypatch):
    calls = _count_enumerations(monkeypatch)
    L = lattice_from_invariants(F3, (0, 1, 2))
    d = derived_den(L)
    assert len(calls) == 2  # the polynomial, then the same search again for the weighted count
    assert d == -den_poly(L).derivative_at_one()
    assert derived_den(rebased(L, random_unimodular(F3, L.rank, rng))) == d
    assert derived_den(lattice_in_standard_space(F3, (0, 1, 2))) == d
    assert len(calls) == 2
    # den_poly first: the derivative still runs its own second enumeration
    L = lattice_from_invariants(F3, (1, 2))
    den_poly(L)
    assert len(calls) == 3
    derived_den(L)
    assert len(calls) == 4


def test_derived_den_cross_check_catches_a_disagreement(F3, monkeypatch):
    calls = _count_enumerations(monkeypatch)
    L = lattice_from_invariants(F3, (1, 2))
    den_poly(L)
    enumerate_profiles = overlattice_profiles

    def drop_one(L, budget):
        # a type-0 profile has derived weight 0, so drop one of positive type
        profiles = enumerate_profiles(L, budget)
        i = next(i for i, (_, type_t) in enumerate(profiles) if type_t > 0)
        return profiles[:i] + profiles[i + 1 :]

    monkeypatch.setattr(density, "overlattice_profiles", drop_one)
    with pytest.raises(HermSiegelError):
        derived_den(L)
    assert len(calls) == 1


def test_den_lambda_hit_skips_the_extension(F3, monkeypatch):
    monkeypatch.setattr(density, "_den_cache", {})
    L = lattice_from_invariants(F3, (1, 3))
    first = den_lambda_poly(L)

    def refuse(_):
        raise AssertionError("a memo hit built L # <p>")

    monkeypatch.setattr(density, "adjoin_uniformizer_line", refuse)
    assert den_lambda_poly(lattice_in_standard_space(F3, (1, 3))) == first
    assert derived_den_lambda(L) == -first.derivative_at_one()
    monkeypatch.setattr(density, "_den_cache", {})
    assert den_poly(adjoin_uniformizer_line(L)).coeffs == first.coeffs


def test_weighted_sum_full_reads_the_class_histogram(F3, F5, rng):
    for fld, invs in ((F3, (2,)), (F3, (1, 2)), (F3, (0, 2, 2)), (F3, (1, 1, 3)), (F5, (1, 1)), (F5, (0, 3))):
        L = rebased(lattice_from_invariants(fld, invs), random_unimodular(fld, len(invs), rng))
        direct = sum(weight_m_der(t, fld.q) for _, t in overlattice_profiles(L))
        assert _weighted_sum_full(L, DEFAULT_BUDGET) == direct
        if sum(invs) % 2:
            assert direct == derived_den(L)
    # at even valuation the sum is not the central derivative: <p^2> has the
    # overlattices <p^2> (type 1) and <1> (type 0), but Den = 1 - X + X^2
    L = lattice_from_invariants(F3, (2,))
    assert _weighted_sum_full(L, DEFAULT_BUDGET) == 1
    assert -den_poly(L).derivative_at_one() == -1


def test_cancellation_under_unimodular_extension(F3, rng):
    for _ in range(6):
        invs = random_invariants(rng, 2, 5)
        if sum(invs) % 2 == 0:
            invs = invs[:-1] + (invs[-1] + 1,)
        base = derived_den(lattice_from_invariants(F3, invs))
        for r in (1, 2):
            ext = lattice_from_invariants(F3, (0,) * r + invs)
            assert derived_den(ext) == base


def test_whittaker_factors(F3):
    q = 3
    L = lattice_from_invariants(F3, (1,))
    wf = whittaker_factors(L, "selfdual")
    assert wf.value == 0 and wf.derivative == Fraction(q + 1, q)
    assert wf.log_unit == "log q^2"
    L0 = lattice_from_invariants(F3, (0,))
    wf0 = whittaker_factors(L0, "selfdual")
    assert wf0.value == Fraction(q + 1, q) and wf0.derivative is None
    wfa = whittaker_factors(L0, "almost_selfdual")
    # empty product and the single factor (-q)^(-1)
    assert wfa.derivative == derived_den_lambda(L0) * Fraction(-1, q)
    wfo = whittaker_factors(L, "almost_selfdual")
    assert wfo.derivative is None and wfo.value == den_lambda_poly(L)(1) * Fraction(-1, q)
