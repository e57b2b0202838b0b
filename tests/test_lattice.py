import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_lattice
from hermsiegel.errors import DegenerateLattice, UsageError
from hermsiegel.ring import field
from hermsiegel import lattice
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


def _random_columns(rng, fld, n, m, rank):
    """m columns in F^n spanning a space of dimension `rank`, with entries of
    denominators 2, 7, p, p^2 and 3p."""
    p = fld.p

    def entry():
        if rng.random() < 0.25:
            return fld.zero
        d = rng.choice([1, 2, 7, p, p * p, 3 * p])
        a, b = (rng.randint(-(p**3), p**3) * p ** rng.randint(0, 3) for _ in range(2))
        return fld.elem(Fraction(a, d), Fraction(b, d))

    cols = [[entry() for _ in range(n)] for _ in range(rank)]
    for _ in range(m - rank):
        # a combination of the first `rank` columns
        coeffs = [entry() for _ in range(rank)]
        cols.append([sum((a * c[i] for a, c in zip(coeffs, cols[:rank])), start=fld.zero) for i in range(n)])
    return [c for c in cols if any(not x.is_zero() for x in c)]


def _echelon_mod_at(fld, cols, n, K):
    shift, ints = lattice._cleared(fld.p, cols)
    out = lattice._hnf_mod(fld.p, fld.eps, lattice._residues(fld.p, ints, K), n, K)
    return None if out is None else [[lattice._canonical(fld, a, b, fld.p**shift) for a, b in c] for c in out]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_echelon_matches_exact(p):
    # every answer the integer elimination certifies, at every precision
    # from 1 up, is the exact echelon form; the precision hnf_columns picks
    # certifies every one of these full-rank sets
    fld = field(p)
    rng = random.Random(p)
    accepted = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        cols = _random_columns(rng, fld, n, rng.randint(n, n + 3), n)
        if not cols:
            continue
        rows, exact = lattice._hnf_exact(fld, [list(c) for c in cols], n)
        if len(rows) < n:
            continue
        assert lattice.hnf_columns(fld, cols, n) == (rows, exact)
        shift, ints = lattice._cleared(p, cols)
        assert lattice._with_precision(lambda K: lattice._hnf_mod(p, fld.eps, lattice._residues(p, ints, K), n, K), p, ints)
        for K in range(1, 16):
            got = _echelon_mod_at(fld, cols, n, K)
            if got is not None:
                assert got == exact, (cols, K)
                accepted += 1
    assert accepted > 300


@pytest.mark.parametrize("p", [3, 5])
def test_rank_deficient_columns_take_the_exact_path(p):
    fld = field(p)
    rng = random.Random(10 + p)
    for _ in range(30):
        n = rng.randint(2, 4)
        cols = _random_columns(rng, fld, n, rng.randint(n, n + 2), rng.randint(1, n - 1))
        if not cols:
            continue
        for K in (1, 2, 4, 8, 16, 32):
            assert _echelon_mod_at(fld, cols, n, K) is None, (cols, K)
        rows, out = lattice.hnf_columns(fld, cols, n)
        assert len(rows) < n and (rows, out) == lattice._hnf_exact(fld, [list(c) for c in cols], n)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.lists(st.integers(-2, 5), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 11]),
)
def test_rebasing_keeps_key_and_invariants(p, invs, seed, d):
    # a random unimodular change of basis, times a unit of denominator d:
    # the echelon key is the exact path's and the parent's, and the
    # elementary-divisor invariants are those of the exact orthogonal basis
    fld = field(p)
    L = lattice_from_invariants(fld, invs)
    rng = random.Random(seed)
    u = fld.elem(Fraction(rng.randrange(1, p), d), rng.randrange(p))
    R = EmbeddedLattice(L.space, lattice.mscale(u, rebased(L, random_unimodular(fld, L.rank, rng)).basis), _check=False)
    assert R.key() == L.key()
    rows, exact = lattice._hnf_exact(fld, [list(c) for c in R.columns()], R.dim)
    assert R.key() == tuple(tuple((x.n, x.m, x.d) for x in row) for row in zip(*exact))
    assert tuple(R.invariants()) == tuple(sorted(invs))
    assert tuple(R.invariants()) == tuple(R._orthogonalize()[1])


@pytest.mark.parametrize("p", [3, 5])
def test_smith_exponents_match_minors(p):
    # elementary divisors of random square matrices over O_F, not hermitian,
    # against the valuations of their minors: e_1 + ... + e_k is the least
    # valuation of a k x k minor
    from itertools import combinations

    fld = field(p)
    rng = random.Random(100 + p)
    for _ in range(40):
        r = rng.randint(1, 3)
        M = mat([[fld.elem(rng.randrange(p**3), rng.randrange(p**3)) * fld.ppow(rng.randint(0, 2)) for _ in range(r)] for _ in range(r)])
        least = [0]
        for k in range(1, r + 1):
            least.append(min(lattice.mdet(mat([[M[i][j] for j in cs] for i in rs])).valuation() for rs in combinations(range(r), k) for cs in combinations(range(r), k)))
        if least[-1] == float("inf"):
            continue
        want = [least[k] - least[k - 1] for k in range(1, r + 1)]
        shift, ints = lattice._cleared(p, M)
        assert lattice._smith_mod(p, fld.eps, lattice._residues(p, ints, 12), 12) == want, M


def test_singular_gram_raises_from_invariants(F3):
    # an isotropic line (diagonal Gram [0]) and a plane with Gram [[1, 1],
    # [1, 1]], spanned by a + e3 and e3 for a = (1, 1 + t, 0) of norm
    # 1 + N(1 + t) = 1 - 1 = 0 in the split space of dimension 3
    hyperbolic = HermSpace(F3, mat([[F3.zero, F3.one], [F3.one, F3.zero]]))
    line = EmbeddedLattice(hyperbolic, mat([[F3.one], [F3.zero]]))
    one, z = F3.one, F3.elem(1, 1)
    plane = EmbeddedLattice(standard_space("split", 3, F3), mat([[one, F3.zero], [z, F3.zero], [one, one]]))
    assert plane.gram == mat([[one, one], [one, one]])
    for L in (line, plane):
        assert lattice._gram_exponents(F3, L.gram) is None
        with pytest.raises(DegenerateLattice):
            L.invariants()


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
