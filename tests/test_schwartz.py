import random
from fractions import Fraction
from itertools import product

import pytest

from hermsiegel import schwartz
from hermsiegel.decomp import FlatPair, flat_coset_grid, in_support_N, perp_generator
from hermsiegel.errors import BudgetExceeded, NotVertexType3
from hermsiegel.lattice import (
    EmbeddedLattice,
    coset_representatives,
    flat_from_invariants,
    from_generators,
    lattice_from_invariants,
    mscale,
    random_unimodular,
    rebased,
)
from hermsiegel.overlat import integral_overlattices, vertex_overlattices
from hermsiegel.ring import field
from hermsiegel.schwartz import (
    LatticeFunction,
    evaluate,
    fourier,
    functions_equal,
    functions_equal_reference,
    int_v_lambda,
    int_v_lambda_at,
    local_modularity_check,
    type1_overlattices,
)


def test_fourier_selfdual_fixed(F3):
    L = lattice_from_invariants(F3, (0, 0))
    f = LatticeFunction.indicator(L)
    assert fourier(f) == f


def test_fourier_vertex_weight(F3):
    Lam = lattice_from_invariants(F3, (0, 1, 1))
    f = fourier(LatticeFunction.indicator(Lam))
    (c, lat), = f.terms
    assert c == Fraction(1, 9)  # q^(-t), t = 2
    assert lat == Lam.dual().hnf()


def test_fourier_involution_random(F3, rng):
    from conftest import random_lattice

    for _ in range(8):
        L = random_lattice(F3, rng, max_rank=2, max_val=3)
        if L.rank != L.dim:
            continue
        f = LatticeFunction.make([(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), L.hnf())])
        assert fourier(fourier(f)) == f


def test_evaluate_basics(F3):
    L = lattice_from_invariants(F3, (1, 1))
    f = LatticeFunction.indicator(L)
    zero = tuple(F3.zero for _ in range(2))
    assert evaluate(f, zero) == 1
    outside = tuple(F3.elem(Fraction(1, 9)) * c for c in L.dual().column(0))
    assert evaluate(f, outside) == 0
    # linearity
    g = LatticeFunction.indicator(L.dual().hnf())
    h = f.scale(2) + g.scale(Fraction(-1, 3))
    x = L.column(0)
    assert evaluate(h, x) == 2 * evaluate(f, x) - Fraction(1, 3) * evaluate(g, x)


def test_type1_overlattice_count(F3, F5):
    for fld in (F3, F5):
        Lam = lattice_from_invariants(fld, (1, 1, 1))
        assert len(type1_overlattices(Lam)) == fld.q**3 + 1


@pytest.mark.parametrize("p, count", [(3, 28), (5, 126), (7, 344)])
def test_type1_overlattices_match_vertex_filter(p, count):
    # the filter on the records (type 1 at valuation 1) keeps the lattices
    # that the invariants of every built overlattice call type-1 vertices
    fld = field(p)
    Lam = lattice_from_invariants(fld, (1, 1, 1))
    for lam in (Lam, rebased(Lam, random_unimodular(fld, 3, random.Random(p)))):
        want = [rec.lattice.key() for rec in integral_overlattices(lam) if rec.lattice.is_vertex(1)]
        assert [t.key() for t in type1_overlattices(lam)] == want
        assert len(want) == count


def test_int_v_lambda_values(F3):
    q = 3
    Lam = lattice_from_invariants(F3, (1, 1, 1))
    f = int_v_lambda(Lam)
    assert evaluate(f, Lam.column(0)) == 1 - q * q
    dual = Lam.dual()
    vals = {}
    for x in coset_representatives(dual, Lam):
        if Lam.contains(x):
            continue
        v = Lam.space.vector_val(x)
        got = evaluate(f, x)
        if v >= 0:
            assert got == 1
        else:
            assert got == 0
        vals[v >= 0] = got
    assert set(vals) == {True, False}
    outside = tuple(F3.elem(Fraction(1, 9)) * c for c in dual.column(0))
    assert evaluate(f, outside) == 0


CLOSED_FORM_FLATS = [(3, (1, 1)), (3, (1, 3)), (3, (2, 2)), (5, (1, 1)), (5, (1, 2))]


def closed_form_matches_evaluate(p, invs, every):
    """int_v_lambda_at against evaluate(int_v_lambda(lam), x) for every
    type-3 vertex lattice lam of the flat, on a coset grid that reaches past
    the support set at both ends of the perpendicular valuations: at every
    grid point in lam^v, where the three values occur, and at every
    `every`-th other point, where both sides are 0."""
    fld = field(p)
    Lf, _ = flat_from_invariants(fld, invs, "nonsplit")
    w = perp_generator(Lf)
    v0 = int(Lf.space.vector_val(w))
    grid = flat_coset_grid(Lf, w, range(-2, (max(invs) + 2 - v0) // 2 + 2))
    assert not all(in_support_N(FlatPair(Lf, x)) for x in grid)
    values = set()
    for lam in vertex_overlattices(Lf, 3):
        f = int_v_lambda(lam)
        inside = [lam.dual().contains(x) for x in grid]
        points = [x for i, x in enumerate(grid) if inside[i] or i % every == 0]
        for x in points:
            got = int_v_lambda_at(lam, x)
            assert got == evaluate(f, x), (lam, x)
            values.add(got)
    assert values == {1 - p * p, 1, 0}


@pytest.mark.parametrize("p, invs", CLOSED_FORM_FLATS)
def test_int_v_lambda_at_matches_evaluate(p, invs):
    closed_form_matches_evaluate(p, invs, every=25)


def test_membership_counts_behind_the_transform(F3):
    # the four-case analysis: counts of type-1 overlattices containing x
    q = 3
    Lam = lattice_from_invariants(F3, (1, 1, 1))
    t1 = type1_overlattices(Lam)
    dual = Lam.dual()
    counts = set()
    for x in coset_representatives(dual, Lam):
        c = sum(1 for lam1 in t1 if lam1.dual().contains(x))
        if Lam.contains(x):
            assert c == q**3 + 1
        elif dual.contains(x) and Lam.space.vector_val(x) >= 0:
            assert c == 1
        else:
            assert c == q + 1
        counts.add(c)
    assert counts == {q**3 + 1, 1, q + 1}


def test_local_modularity(F3, F5):
    assert local_modularity_check(lattice_from_invariants(F3, (1, 1, 1)))
    assert local_modularity_check(lattice_from_invariants(F5, (1, 1, 1)))


def test_modularity_negative_control(F3):
    f = int_v_lambda(lattice_from_invariants(F3, (1, 1, 1)))
    assert not functions_equal(fourier(f), f)


def test_functions_equal_relation(F3):
    # indicator relation: sum over index-(q^2) sublattices through the lines
    # of the residue plane equals 1_L + q^2 1_(pL)
    q = 3
    L = lattice_from_invariants(F3, (0, 0))
    from hermsiegel.overlat import integral_overlattices

    pL = lattice_from_invariants(F3, (0, 0))
    from hermsiegel.lattice import EmbeddedLattice, mat

    scale = F3.uniformizer
    pL = EmbeddedLattice(L.space, mat([[scale * x for x in row] for row in L.basis]))
    # sublattices of index q^2 containing pL <-> lines in L/pL
    subs = []
    for rec in integral_overlattices(pL):
        if rec.length == 1:
            subs.append(rec.lattice)
    assert len(subs) == q**2 + 1
    lhs = LatticeFunction.make([(1, s) for s in subs])
    rhs = LatticeFunction.make([(1, L.hnf()), (q**2, pL.hnf())])
    assert functions_equal(lhs, rhs)
    assert not functions_equal(lhs, rhs.scale(2))


def test_random_point_agreement_after_equality(F3, rng):
    # redundant safety: functions declared equal also agree at random points
    q = 3
    Lam = lattice_from_invariants(F3, (1, 1, 1))
    f = int_v_lambda(Lam)
    g = fourier(f).scale(-1)
    assert functions_equal(f, g)
    dual = Lam.dual()
    for _ in range(100):
        x = tuple(
            sum((F3.elem(rng.randint(-4, 4), rng.randint(-4, 4)) * dual.basis[i][j] for j in range(3)), start=F3.zero)
            for i in range(3)
        )
        assert evaluate(f, x) == evaluate(g, x)


def test_vertex_type_guard(F3):
    with pytest.raises(NotVertexType3):
        int_v_lambda(lattice_from_invariants(F3, (0, 1, 1)))
    with pytest.raises(NotVertexType3):
        int_v_lambda(lattice_from_invariants(F3, (1, 1)))


# ---------------------------------------------------------------------------
# the coset scatter against the direct coset-by-term reference


def _scaled(M, c):
    return EmbeddedLattice(M.space, mscale(c, M.basis), _check=False)


def line_relation(M, extra=0):
    """sum over the N lines l of M/pM of 1_(pM + l), minus 1_M + (N - 1 +
    extra) 1_(pM): the zero function when extra = 0, since a point of pM lies
    in all N lattices and a point of M outside pM in exactly one."""
    fld = M.field
    p, r = fld.p, M.rank
    pM = _scaled(M, fld.uniformizer)
    residues = [fld.elem(a, b) for a in range(p) for b in range(p)]
    lines = []
    for lead in range(r):
        for tail in product(residues, repeat=r - lead - 1):
            coef = [fld.zero] * lead + [fld.one] + list(tail)
            v = tuple(sum((coef[j] * M.basis[i][j] for j in range(r)), start=fld.zero) for i in range(M.dim))
            lines.append(from_generators(M.space, pM.columns() + [v]))
    N = (p ** (2 * r) - 1) // (p * p - 1)
    assert len(lines) == N
    return LatticeFunction.make([(1, line) for line in lines] + [(-1, M), (-(N - 1 + extra), pM)])


def overlattice_pool(fld, invs, rng):
    """The integral overlattices of a randomly rebased lattice with the given
    invariants, and their duals."""
    L = lattice_from_invariants(fld, invs)
    L = rebased(L, random_unimodular(fld, L.rank, rng))
    lats = [rec.lattice for rec in integral_overlattices(L)]
    return lats + [lat.dual() for lat in lats]


def random_combination(lats, rng, k):
    return LatticeFunction.make([(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice(lats)) for _ in range(k)])


def scatter_matches_reference(p, invs, rng, rounds):
    """Both equality tests agree on random combinations, on line relations
    added to them (equal), on the relation with N in place of N - 1 and on f
    against -f (unequal).  Returns the number of equal verdicts."""
    lats = overlattice_pool(field(p), invs, rng)
    equal = 0
    for _ in range(rounds):
        f = random_combination(lats, rng, 3)
        g = random_combination(lats, rng, 2)
        M = rng.choice(lats)
        cases = [
            (f, g, None),
            (f, f + line_relation(M).scale(rng.randint(1, 3)), True),
            (f + g, f + g + line_relation(M, extra=1), False),
        ]
        if not f.is_formally_zero():
            cases.append((f, -f, False))
        for a, b, want in cases:
            got = functions_equal(a, b)
            assert got == functions_equal_reference(a, b), (p, invs)
            assert want is None or got == want, (p, invs, want)
            equal += got
    return equal


SCATTER_CASES = [(3, (1, 2)), (3, (2, 2)), (3, (0, 1, 2)), (3, (1, 3)), (3, (2, 3)), (3, (1, 1, 2)), (5, (1, 2))]


@pytest.mark.parametrize("p, invs", SCATTER_CASES)
def test_functions_equal_matches_reference(p, invs):
    assert scatter_matches_reference(p, invs, random.Random(f"{p} {invs}"), rounds=1) >= 1


def test_local_modularity_larger_cases():
    assert local_modularity_check(lattice_from_invariants(field(7), (1, 1, 1)))
    assert local_modularity_check(lattice_from_invariants(field(5), (0, 0, 1, 1, 1)))


def test_modularity_negative_control_p7():
    f = int_v_lambda(lattice_from_invariants(field(7), (1, 1, 1)))
    assert not functions_equal(fourier(f), f)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used before the budget refusal")


@pytest.mark.parametrize("equal", [functions_equal, functions_equal_reference])
def test_coset_cap_refuses_before_numpy(F3, monkeypatch, equal):
    f = int_v_lambda(lattice_from_invariants(F3, (1, 1, 1)))
    monkeypatch.setattr(schwartz, "np", _NoNumpy())
    with pytest.raises(BudgetExceeded):
        equal(fourier(f), f.scale(-1), cap=100)


def test_int64_bound_refuses_before_numpy(F3, monkeypatch):
    # S/I = L/p^10 L: 3^40 cosets are within the cap, but residues modulo
    # p^20 would overflow int64 products
    L = lattice_from_invariants(F3, (0, 0))
    f = LatticeFunction.indicator(L) - LatticeFunction.indicator(_scaled(L, F3.ppow(10)))
    monkeypatch.setattr(schwartz, "np", _NoNumpy())
    with pytest.raises(BudgetExceeded):
        functions_equal(f, LatticeFunction(()), cap=10**40)
