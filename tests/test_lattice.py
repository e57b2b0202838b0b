from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from conftest import random_lattice
from hermsiegel.errors import DegenerateLattice, UsageError
from hermsiegel.ring import field
from hermsiegel.lattice import (
    EmbeddedLattice,
    HermSpace,
    coset_representatives,
    flat_from_invariants,
    from_generators,
    intersect_lattices,
    intersect_with_hyperplane,
    lattice_from_invariants,
    lattice_from_json,
    lattice_in_standard_space,
    lattice_to_json,
    mat,
    mident,
    quotient_divisors,
    random_unimodular,
    rebased,
    standard_space,
    sum_lattices,
    with_valuation,
)


def test_invariants_examples(F3):
    assert tuple(lattice_from_invariants(F3, (0, 0, 0)).invariants()) == (0, 0, 0)
    assert tuple(lattice_from_invariants(F3, (1, 3)).invariants()) == (1, 3)
    # hyperbolic plane: self-dual, invariants (0, 0)
    gram = mat([[F3.zero, F3.one], [F3.one, F3.zero]])
    L = EmbeddedLattice(HermSpace(F3, gram), mident(F3, 2))
    assert tuple(L.invariants()) == (0, 0)
    assert L.dual() == L


def test_invariants_basis_independent(F3, rng):
    for _ in range(12):
        L = random_lattice(F3, rng, max_rank=3, max_val=5)
        U = random_unimodular(F3, L.rank, rng)
        assert tuple(rebased(L, U).invariants()) == tuple(L.invariants())


def test_orthogonal_sum_additivity(F3):
    # block sum inside a diagonal model
    L = lattice_from_invariants(F3, (0, 1, 2, 3))
    assert tuple(L.invariants()) == (0, 1, 2, 3)
    assert L.val() == 6
    assert L.type_t() == 3


def test_form_scaling_shifts_invariants(F3):
    L = lattice_from_invariants(F3, (0, 2, 3))
    scaled_space = L.space.scale_form(F3.uniformizer)
    Ls = EmbeddedLattice(scaled_space, L.basis)
    assert tuple(Ls.invariants()) == tuple(a + 1 for a in L.invariants())


def test_dual_laws(F3, rng):
    for _ in range(8):
        L = random_lattice(F3, rng, max_rank=3, max_val=4)
        D = L.dual()
        assert tuple(D.invariants()) == tuple(-a for a in reversed(tuple(L.invariants())))
        assert D.dual() == L
    one = lattice_from_invariants(F3, (1,))
    assert tuple(one.dual().invariants()) == (-1,)


def test_dual_of_dual_is_the_lattice(F3, rng):
    for _ in range(6):
        L = random_lattice(F3, rng, max_rank=3, max_val=4)
        D = L.dual()
        assert D.dual() is L
        # the dual of D's basis, inverted afresh, is the same lattice
        assert EmbeddedLattice(D.space, D.basis).dual().key() == L.key()


def test_vol(F3):
    assert lattice_from_invariants(F3, (0, 0)).vol() == 1
    L = lattice_from_invariants(F3, (1, 3))
    assert L.vol() == Fraction(1, 81)
    assert L.dual().vol() == 81


def test_hnf_idempotent_and_module_invariant(F3, rng):
    for _ in range(10):
        L = random_lattice(F3, rng, max_rank=3, max_val=4)
        H = L.hnf()
        assert H.hnf() is H or H.hnf() == H
        U = random_unimodular(F3, L.rank, rng)
        assert rebased(L, U).hnf().key() == H.key()
    L = random_lattice(F3, rng, max_rank=2, max_val=3)
    assert sum_lattices(L, L) == L.hnf()


def test_standard_spaces(F3):
    assert standard_space("split", 2, F3).split_flag
    ns = standard_space("nonsplit", 1, F3)
    assert not ns.split_flag
    assert ns.gram[0][0] == F3.uniformizer
    with pytest.raises(UsageError):
        standard_space("weird", 2, F3)


def test_sum_intersection_duality(F3, rng):
    V = standard_space("split", 2, F3)
    for _ in range(10):
        L1 = rebased(EmbeddedLattice(V, mident(F3, 2)), random_unimodular(F3, 2, rng))
        scale = mat([[F3.elem(F3.p ** rng.randint(0, 2)), F3.zero], [F3.zero, F3.elem(F3.p ** rng.randint(0, 2))]])
        from hermsiegel.lattice import mmul

        L2 = EmbeddedLattice(V, mmul(scale, random_unimodular(F3, 2, rng)))
        S = sum_lattices(L1, L2)
        I = intersect_lattices(L1, L2)
        assert S.contains_lattice(L1) and S.contains_lattice(L2)
        assert L1.contains_lattice(I) and L2.contains_lattice(I)
        assert I.vol() * S.vol() == L1.vol() * L2.vol()
        assert I.dual() == sum_lattices(L1.dual(), L2.dual())
    L = lattice_from_invariants(F3, (1, 2))
    assert sum_lattices(L, L.dual()) == L.dual().hnf()
    assert intersect_lattices(L, L) == L.hnf()


def test_hyperplane_section(F3):
    # orthogonal sum: section along the flat recovers the flat
    Lf, w = flat_from_invariants(F3, (1, 1), "nonsplit")
    full = from_generators(Lf.space, Lf.columns() + [w])
    sect = intersect_with_hyperplane(full, Lf.columns())
    assert sect == Lf.hnf()
    assert tuple(sect.invariants()) == (1, 1)
    # lattice contained in the hyperplane comes back unchanged
    sect2 = intersect_with_hyperplane(Lf, Lf.columns())
    assert sect2 == Lf.hnf()


def test_quotient_divisors(F3):
    L = lattice_from_invariants(F3, (1, 3))
    assert quotient_divisors(L, L.dual()) == (3, 1)
    assert quotient_divisors(L, L) == (0, 0)


def test_coset_representatives_count(F3):
    L = lattice_from_invariants(F3, (1, 2))
    reps = coset_representatives(L.dual(), L)
    assert len(reps) == 3 ** (2 * 3)
    # distinctness modulo L: check a sample pairwise by difference membership
    for i in range(0, 30, 7):
        for j in range(i + 1, 30, 7):
            d = tuple(a - b for a, b in zip(reps[i], reps[j]))
            assert not L.contains(d)


def test_vertex_predicate(F3):
    assert lattice_from_invariants(F3, (0, 1, 1)).is_vertex(2)
    assert not lattice_from_invariants(F3, (0, 2)).is_vertex()
    assert lattice_from_invariants(F3, (0, 0)).is_vertex(0)


def test_integrality(F3, rng):
    assert lattice_from_invariants(F3, (0, 2)).is_integral()
    assert not lattice_from_invariants(F3, (0, 2)).dual().is_integral()
    # integral iff all invariants non-negative iff the Gram matrix is integral
    for _ in range(6):
        L = random_lattice(F3, rng, max_rank=3, max_val=4)
        cand = L if rng.random() < 0.5 else L.dual()
        assert cand.is_integral() == all(a >= 0 for a in cand.invariants())


def test_standard_space_embedding_matches_diag_model():
    """Every sorted tuple of rank <= 5 and sum <= 9 at p = 3, 5, 7, 11: the
    written-down basis lives in the standard space of its parity, has a
    diagonal Gram whose entry i has valuation a_i, and a wrong explicit kind
    is refused."""
    for p, r in product((3, 5, 7, 11), range(1, 6)):
        fld = field(p)
        for invs in combinations_with_replacement(range(10), r):
            if sum(invs) > 9:
                continue
            kind = "nonsplit" if sum(invs) % 2 else "split"
            L = lattice_in_standard_space(fld, invs)
            assert L.space == standard_space(kind, r, fld)
            G = L.gram
            assert all(G[i][j].is_zero() for i in range(r) for j in range(r) if i != j)
            assert [G[i][i].valuation() for i in range(r)] == list(invs)
            assert L.is_integral()
            assert tuple(L.invariants()) == invs
            wrong = "split" if kind == "nonsplit" else "nonsplit"
            with pytest.raises(UsageError):
                lattice_in_standard_space(fld, invs, wrong)


def test_flat_construction(F3):
    for invs, kind in [((1, 1), "nonsplit"), ((0, 2), "split"), ((1, 2), "split"), ((1, 2), "nonsplit")]:
        Lf, w = flat_from_invariants(F3, invs, kind)
        assert tuple(Lf.invariants()) == tuple(sorted(invs))
        assert Lf.space.split_flag == (kind == "split")
        for j in range(Lf.rank):
            assert Lf.space.pair(w, Lf.column(j)).is_zero()
        assert Lf.space.vector_val(w) in (0, 1)


def test_lattice_json_roundtrip(F3, rng):
    L = random_lattice(F3, rng, max_rank=3, max_val=4)
    obj = lattice_to_json(L)
    L2 = lattice_from_json(obj)
    assert L2 == L.hnf() or L2 == L  # same module
    assert tuple(L2.invariants()) == tuple(L.invariants())


def test_degenerate_rejected(F3):
    V = standard_space("split", 2, F3)
    with pytest.raises(DegenerateLattice):
        EmbeddedLattice(V, mat([[F3.one, F3.one], [F3.one, F3.one]]))


def test_with_valuation_both_parities(F3):
    # the generator w of the orthogonal line has valuation 1 in the split
    # space and 0 in the nonsplit one; a target of the other parity is
    # rounded up by one
    for kind, v0 in (("split", 1), ("nonsplit", 0)):
        Lf, w = flat_from_invariants(F3, (1, 2), kind)
        assert Lf.space.vector_val(w) == v0
        for v in range(-3, 5):
            x = with_valuation(Lf.space, w, v)
            want = v if (v - v0) % 2 == 0 else v + 1
            assert Lf.space.vector_val(x) == want
            scale = F3.ppow((want - v0) // 2)
            assert x == tuple(scale * c for c in w)
