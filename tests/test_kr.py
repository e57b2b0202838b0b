from fractions import Fraction

import pytest

from hermsiegel.decomp import flat_coset_grid, perp_generator
from hermsiegel.density import derived_den, derived_den_lambda
from hermsiegel.errors import NotInVert3, WrongAmbientParity, WrongParity
from hermsiegel.kr import (
    eisenstein_ratio_check,
    horizontal_degree,
    int_almost_selfdual,
    int_prime,
    int_rank1_closed,
    int_rank2_closed,
    int_selfdual,
    mult_vertical,
    vertical_identity_n3,
    vertical_sum,
    vertical_sum_reference,
    vertical_terms,
)
from hermsiegel.lattice import (
    flat_from_invariants,
    lattice_from_invariants,
    random_unimodular,
    rebased,
)
from hermsiegel.overlat import vertex_overlattices
from hermsiegel.ring import field


def test_int_selfdual_rank1(F3):
    for k in range(4):
        L = lattice_from_invariants(F3, (2 * k + 1,))
        assert int_selfdual(L).value == k + 1


def test_int_selfdual_examples(F3):
    assert int_selfdual(lattice_from_invariants(F3, (0, 1))).value == 1
    L0 = lattice_from_invariants(F3, (3,))
    for r in (1, 2):
        L = lattice_from_invariants(F3, (0,) * r + (3,))
        assert int_selfdual(L).value == int_selfdual(L0).value


def test_int_parity_guards(F3):
    with pytest.raises(WrongAmbientParity):
        int_selfdual(lattice_from_invariants(F3, (2,)))
    with pytest.raises(WrongParity):
        int_almost_selfdual(lattice_from_invariants(F3, (1,)))
    with pytest.raises(WrongParity):
        int_prime(lattice_from_invariants(F3, (1,)))


def test_int_asd_and_prime_rank1(F3):
    q = 3
    for k in range(4):
        L = lattice_from_invariants(F3, (2 * k,))
        asd = int_almost_selfdual(L).value
        assert asd == Fraction(1 + (q + 1) * k, q + 1)
        assert asd * (q + 1) == derived_den_lambda(L)
        assert int_prime(L).value == k


def test_int_prime_selfdual_zero(F3):
    for n in (1, 2, 3):
        L = lattice_from_invariants(F3, (0,) * n)
        assert int_prime(L).value == 0
        assert int_almost_selfdual(L).value == Fraction(1, 4)


def test_int_prime_integral_grid(F3):
    import itertools

    for r in (1, 2, 3):
        for invs in itertools.combinations_with_replacement(range(0, 5), r):
            if sum(invs) % 2 or sum(invs) > 4:
                continue
            v = int_prime(lattice_from_invariants(F3, invs)).value
            assert v.denominator == 1, (invs, v)


def test_int_prime_negative_counterexample(F3):
    # the relative derivative of diag(p, p) is 2 - q^2 + q = -4 (its density
    # polynomial is (1 - X)(X^2 - (q^2 - q)X + 1)), and the central value is
    # q + 1, so this blow-up intersection number is genuinely negative
    q = 3
    L = lattice_from_invariants(F3, (1, 1))
    assert derived_den_lambda(L) == 2 - q * q + q
    assert int_prime(L).value == -2
    assert int_almost_selfdual(L).value == -1


def test_basis_independence(F3, rng):
    L = lattice_from_invariants(F3, (1, 2))
    base = int_selfdual(L).value
    for _ in range(4):
        assert int_selfdual(rebased(L, random_unimodular(F3, 2, rng))).value == base


def test_mult_vertical_minuscule(F3):
    Lf, _ = flat_from_invariants(F3, (1, 1), "nonsplit")
    (lam,) = vertex_overlattices(Lf, 3)
    assert mult_vertical(Lf, lam) == 1
    with pytest.raises(NotInVert3):
        mult_vertical(Lf, lattice_from_invariants(F3, (0, 1, 1)))


def test_vertical_identity_small(F3):
    for invs in [(1, 1), (2, 2)]:
        Lf, _ = flat_from_invariants(F3, invs, "nonsplit")
        assert vertical_identity_n3(Lf)


@pytest.mark.parametrize("invs", [(1, 1), (2, 2)])
def test_vertical_sum_matches_reference(F3, invs):
    # the closed right-hand side of the identity against the full
    # vertical-cycle functions, inside and outside the support set
    Lf, _ = flat_from_invariants(F3, invs, "nonsplit")
    grid = flat_coset_grid(Lf, perp_generator(Lf), range(-1, 3))
    terms = vertical_terms(Lf)
    assert [vertical_sum(terms, x) for x in grid] == vertical_sum_reference(terms, grid)


def test_vertical_identity_values_at_lattice_points(F3):
    # minuscule case: both sides equal 1 - q^2 on the vertex lattice
    q = 3
    Lf, w = flat_from_invariants(F3, (1, 1), "nonsplit")
    (lam,) = vertex_overlattices(Lf, 3)
    from hermsiegel.decomp import FlatPair, pden_vertical

    x = lam.column(2)
    if Lf.coords(x) is not None:
        x = lam.column(0)
    assert pden_vertical(FlatPair(Lf, x)) == 1 - q * q


def test_horizontal_degree(F3):
    q = 3
    assert horizontal_degree(lattice_from_invariants(F3, (0,))) == 1
    assert horizontal_degree(lattice_from_invariants(F3, (1,))) == q + 1
    horizontal_degree(lattice_from_invariants(F3, (0, 3)))
    horizontal_degree(lattice_from_invariants(F3, (1, 2)))


def test_eisenstein_ratio(F3, F5):
    assert eisenstein_ratio_check(2, F3)
    assert eisenstein_ratio_check(3, F3)
    assert eisenstein_ratio_check(2, F5)


@pytest.mark.parametrize("p", [3, 5])
def test_rank1_closed_form_matches_derived_density(p):
    # Gross: Int(<p^a>) = (a + 1)/2, a value the density code never computes
    F = field(p)
    for a in (1, 3, 5, 7):
        assert int_selfdual(lattice_from_invariants(F, (a,))).value == int_rank1_closed(a), a


@pytest.mark.parametrize("p", [3, 5])
def test_rank2_closed_form_matches_derived_density(p):
    # Kudla-Rapoport's rank-2 formula on every 0 <= a <= b with a <= 3,
    # b <= 6 and a + b odd: 10 classes for each p
    F = field(p)
    classes = [(a, b) for a in range(4) for b in range(a, 7) if (a + b) % 2]
    assert len(classes) == 10
    for a, b in classes:
        assert int_selfdual(lattice_from_invariants(F, (a, b))).value == int_rank2_closed(a, b, p), (a, b)


def test_closed_forms_reject_their_parity():
    with pytest.raises(WrongParity):
        int_rank1_closed(2)
    with pytest.raises(WrongParity):
        int_rank2_closed(1, 3, 3)
