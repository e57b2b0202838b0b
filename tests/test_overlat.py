import pytest

from conftest import random_lattice
from hermsiegel import overlat
from hermsiegel.errors import BudgetExceeded, NotContained
from hermsiegel.lattice import flat_from_invariants, lattice_from_invariants, random_unimodular, rebased
from hermsiegel.overlat import (
    DEFAULT_BUDGET,
    _overlattice_family,
    _submodules,
    count_intermediate,
    cyclic_overlattices,
    integral_overlattices,
    overlattice_profiles,
    submodule_count,
    vertex_overlattices,
)


def test_selfdual_has_only_itself(F3):
    recs = integral_overlattices(lattice_from_invariants(F3, (0, 0)))
    assert len(recs) == 1 and recs[0].length == 0 and recs[0].type_t == 0


def test_rank1_uniformizer(F3):
    recs = integral_overlattices(lattice_from_invariants(F3, (1,)))
    assert [(r.length, r.type_t) for r in recs] == [(0, 1)]


def test_rank1_square(F3):
    recs = integral_overlattices(lattice_from_invariants(F3, (2,)))
    assert sorted((r.length, r.type_t) for r in recs) == [(0, 1), (1, 0)]


def test_diag_pp_cyclic(F3):
    q = 3
    L = lattice_from_invariants(F3, (1, 1))
    cyc = cyclic_overlattices(L)
    # the lattice itself plus the q + 1 self-dual overlattices
    assert sorted((r.length, r.type_t) for r in cyc) == [(0, 2)] + [(1, 0)] * (q + 1)
    assert all(r.cyclic_flag for r in cyc)


def test_record_invariants(F3, rng):
    for _ in range(6):
        L = random_lattice(F3, rng, max_rank=3, max_val=5)
        Ld = L.dual()
        for rec in integral_overlattices(L):
            Lp = rec.lattice
            assert Lp.contains_lattice(L)
            assert Lp.dual().contains_lattice(Lp)  # integral
            assert Ld.contains_lattice(Lp)  # inside the dual
            assert Lp.val() == L.val() - 2 * rec.length
            assert (Lp.val() - L.val()) % 2 == 0
            assert rec.type_t == Lp.type_t()


def test_count_intermediate(F3):
    L = lattice_from_invariants(F3, (1, 1))
    assert count_intermediate(L, L) == 1
    L1 = lattice_from_invariants(F3, (1,))
    assert count_intermediate(L1, L1.dual()) == 2  # quotient O/p: 0 and all
    chain2 = lattice_from_invariants(F3, (2,))
    assert count_intermediate(chain2, chain2.dual()) == 3  # chain O/p^2
    # quotient (O/p)^2: all subspaces over the residue field F_(q^2)
    assert count_intermediate(L, L.dual()) == 1 + (3**2 + 1) + 1
    with pytest.raises(NotContained):
        count_intermediate(L.dual(), L)


def _subgroup_count_cyclic_pair(Q, a, b):
    """Closed formula for the number of subgroups of Z/Q^a x Z/Q^b (a <= b);
    independent oracle for the submodule enumeration (the residue field of F
    plays the role of the prime)."""
    num = (b - a + 1) * Q ** (a + 2) - (b - a - 1) * Q ** (a + 1) - (a + b + 3) * Q + (a + b + 1)
    assert num % (Q - 1) ** 2 == 0
    return num // (Q - 1) ** 2


def test_submodule_count_matches_closed_formula(F3):
    # residue field of F has size q^2
    Q = 9
    for a in range(0, 4):
        for b in range(a, 4):
            got = submodule_count((a, b), 3, F3.eps)
            want = _subgroup_count_cyclic_pair(Q, a, b)
            assert got == want, (a, b, got, want)


def _residue(x, p):
    return tuple(c.numerator * pow(c.denominator, -1, p) % p for c in (x.a, x.b))


def _unpruned_family(L):
    """(H, length, type, Gram mod p, valuation) of every integral overlattice,
    found by lifting every submodule H of L^v/L to a lattice and testing its
    Gram matrix in field arithmetic; independent of the modular checks that
    `_overlattice_family` makes while it fills H."""
    fld = L.field
    a = tuple(sorted(L.invariants().seq))
    _, build, _ = _overlattice_family(L, DEFAULT_BUDGET)
    out = []
    for kvals, H, _ in _submodules(a, fld.p, fld.eps, DEFAULT_BUDGET, [0]):
        lam = build(H)
        if lam.is_integral():
            # the family's Gram is conjugate-linear in its first index, the
            # lattice's in its second
            g = tuple(tuple(_residue(lam.gram[j][i], fld.p) for j in range(len(a))) for i in range(len(a)))
            out.append((tuple(map(tuple, H)), sum(a) - sum(kvals), lam.type_t(), g, lam.val()))
    return out


@pytest.mark.parametrize(
    "p, invs",
    [
        (3, (1,)),
        (3, (3,)),
        (3, (0, 2)),
        (3, (1, 1)),
        (3, (2, 2)),
        (3, (1, 3)),
        (3, (3, 3)),
        (3, (0, 1, 1)),
        (3, (0, 0, 2)),
        (3, (1, 1, 1)),
        (3, (1, 1, 2)),
        (3, (0, 2, 2)),
        (3, (1, 2, 2)),
        (3, (1, 2, 3)),
        (5, (0, 3)),
        (5, (1, 1)),
        (5, (1, 2)),
        (5, (2, 2)),
        (5, (2, 3)),
    ],
)
def test_family_matches_unpruned_search(p, invs, F3, F5, rng):
    fld = {3: F3, 5: F5}[p]
    L = rebased(lattice_from_invariants(fld, invs), random_unimodular(fld, len(invs), rng))
    ref = _unpruned_family(L)
    for val_target in [None, *range(sum(invs) + 1)]:
        fam, _, _ = _overlattice_family(L, DEFAULT_BUDGET, val_target=val_target)
        got = sorted((tuple(map(tuple, H)), length, type_t, tuple(map(tuple, g))) for H, length, type_t, _, g in fam)
        want = sorted(row[:4] for row in ref if val_target in (None, row[4]))
        assert got == want, (invs, val_target)


def _candidates(monkeypatch, fld, invs):
    """Submodule candidates generated by one overlattice enumeration."""
    counters = []
    enumerate_submodules = overlat._submodules

    def recorded(a, p, eps, budget, counter, *args, **kwargs):
        counters.append(counter)
        return enumerate_submodules(a, p, eps, budget, counter, *args, **kwargs)

    monkeypatch.setattr(overlat, "_submodules", recorded)
    overlattice_profiles(lattice_from_invariants(fld, invs))
    assert len(counters) == 1
    return counters[0][0]


def test_candidate_counts(F3, F5, monkeypatch):
    # an entry is rejected as soon as the Gram block it completes is not
    # integral; the search without that check generated 11,132, 24,319 and
    # 10,225 candidates on these classes
    assert _candidates(monkeypatch, F3, (1, 1, 1, 1)) == 3636
    assert _candidates(monkeypatch, F3, (2, 2, 2)) == 16526
    assert _candidates(monkeypatch, F5, (1, 2, 2)) == 5280


def test_parity_preserved(F3, rng):
    L = random_lattice(F3, rng, max_rank=3, max_val=4)
    for rec in integral_overlattices(L):
        assert (rec.lattice.val() - L.val()) % 2 == 0


def test_budget_exceeded(F3):
    L = lattice_from_invariants(F3, (2, 2, 2))
    with pytest.raises(BudgetExceeded):
        integral_overlattices(L, budget=5)


def test_vertex_minuscule(F3):
    Lf, _ = flat_from_invariants(F3, (1, 1), "nonsplit")
    vs = vertex_overlattices(Lf, 3)
    assert len(vs) == 1
    assert tuple(vs[0].invariants()) == (1, 1, 1)
    assert vs[0].contains_lattice(Lf)


def test_vertex_type1_of_selfdual(F3):
    Lf, _ = flat_from_invariants(F3, (0, 0), "nonsplit")
    vs = vertex_overlattices(Lf, 1)
    assert len(vs) == 1
    assert vs[0].is_vertex(1)


def test_vertex_window_widening(F3):
    # widening the generator-valuation window must not produce new lattices
    for invs in [(1, 1), (1, 3), (2, 2)]:
        Lf, _ = flat_from_invariants(F3, invs, "nonsplit")
        base = {v.key() for v in vertex_overlattices(Lf, 3)}
        widened = {v.key() for v in vertex_overlattices(Lf, 3, widen=1)}
        assert base == widened, invs


def test_vertex_postconditions(F3):
    Lf, _ = flat_from_invariants(F3, (1, 3), "nonsplit")
    for lam in vertex_overlattices(Lf, 3):
        assert lam.is_vertex(3)
        assert lam.contains_lattice(Lf)
