import itertools

import pytest

from conftest import random_lattice
from hermsiegel import overlat
from hermsiegel.errors import BudgetExceeded, NotContained
from hermsiegel.lattice import flat_from_invariants, lattice_from_invariants, quotient_divisors, random_unimodular, rebased
from hermsiegel.overlat import (
    DEFAULT_BUDGET,
    _bordered_rank,
    _leading_block,
    _overlattice_family,
    _overlattice_search,
    _pair_rank_mod_p,
    _submodules,
    count_intermediate,
    cyclic_overlattices,
    integral_overlattices,
    overlattice_profiles,
    submodule_count,
    vertex_overlattices,
)
from hermsiegel.ring import field


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


@pytest.mark.parametrize("p, a, count", [(3, (2, 2, 2), 23299), (5, (1, 2, 2), 35106)])
def test_submodules_contain_l(p, a, count):
    # each column m of cvec expresses p^(a_m) e_m in the columns of H, so the
    # submodule contains L: H cvec[m] = p^(a_m) e_m exactly, in integer pairs
    eps = field(p).eps
    r = len(a)
    seen = 0
    for _, H, cvec in _submodules(a, p, eps, DEFAULT_BUDGET, [0]):
        for m in range(r):
            for i in range(r):
                x = y = 0
                for (hx, hy), (cx, cy) in zip(H[i], cvec[m]):
                    x += hx * cx + eps * hy * cy
                    y += hx * cy + hy * cx
                assert (x, y) == ((p ** a[m] if i == m else 0), 0), (H, cvec, m, i)
        seen += 1
    assert seen == count


def _residue(x, p):
    return tuple(c.numerator * pow(c.denominator, -1, p) % p for c in (x.a, x.b))


def _unpruned_family(L):
    """(H, length, type, Gram mod p, valuation) of every integral overlattice,
    found by lifting every submodule H of L^v/L to a lattice and testing its
    Gram matrix in field arithmetic; independent of the modular checks that
    `_overlattice_search` makes while it fills H."""
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
        # zero invariants with ties, gaps of at least 2 below row 0, and p = 7
        (3, (0, 0, 2, 2)),
        (3, (1, 4)),
        (3, (0, 2, 4)),
        (7, (1, 2)),
        (7, (0, 1, 3)),
    ],
)
def test_family_matches_unpruned_search(p, invs, rng):
    fld = field(p)
    L = rebased(lattice_from_invariants(fld, invs), random_unimodular(fld, len(invs), rng))
    ref = _unpruned_family(L)
    for val_target in [None, *range(sum(invs) + 1)]:
        search, _, _ = _overlattice_search(L, DEFAULT_BUDGET, val_target)
        got = sorted((tuple(map(tuple, H)), length, type_t, tuple(map(tuple, g))) for length, type_t, H, _, g in search)
        want = sorted(row[:4] for row in ref if val_target in (None, row[4]))
        assert got == want, (invs, val_target)
    fam, _, _ = _overlattice_family(L, DEFAULT_BUDGET)
    got = sorted((tuple(map(tuple, H)), type_t, tuple(map(tuple, g))) for H, type_t, g in fam)
    assert got == sorted((row[0], row[2], row[3]) for row in ref), invs


@pytest.mark.parametrize("p, invs", [(3, (0, 0, 2, 2)), (3, (1, 2, 3)), (5, (0, 1, 3)), (7, (0, 1, 3))])
def test_search_order_matches_unpruned_search(p, invs, rng):
    # each entry's solutions are sorted, so the overlattices come out in the
    # order of the enumeration that tries every residue
    fld = field(p)
    L = rebased(lattice_from_invariants(fld, invs), random_unimodular(fld, len(invs), rng))
    want = [row[0] for row in _unpruned_family(L)]
    search, _, _ = _overlattice_search(L, DEFAULT_BUDGET)
    assert [tuple(map(tuple, H)) for _, _, H, _, _ in search] == want
    fam, _, _ = _overlattice_family(L, DEFAULT_BUDGET)
    assert [tuple(map(tuple, H)) for H, _, _ in fam] == want


def _brute(p, k, x, e, conds, T, t=None):
    """The h in [0, p^k)^2 with h = x mod p^e, c h = beta mod p^T for each
    (c, beta), and, unless t is None, N(h) = t mod p^T; by trying them all."""
    pe, pT, eps = p**e, p**T, field(p).eps
    return [
        (hx, hy)
        for hx in range(x[0], p**k, pe)
        for hy in range(x[1], p**k, pe)
        if all(
            (cx * hx + eps * cy * hy - bx) % pT == 0 == (cx * hy + cy * hx - by) % pT
            for (cx, cy), (bx, by) in conds
        )
        and (t is None or (hx * hx - eps * hy * hy - t) % pT == 0)
    ]


def _coefficients(p, T, rng):
    """Two units, a non-unit of each valuation from 1 to T, and zero."""
    unit = (rng.randrange(1, p), rng.randrange(p))
    return [unit, (rng.randrange(p), rng.randrange(1, p))] + [
        (p**v * rng.randrange(1, p), p**v * rng.randrange(p)) for v in range(1, T + 1)
    ] + [(0, 0)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_linear_congruence_matches_brute_force(p, rng):
    eps = field(p).eps
    for T in (1, 2, 3):
        coefficients = _coefficients(p, T, rng)
        # at p^T = 343 a brute force tries 117,649 residues: a unit, a
        # non-unit and zero are enough there
        for c in coefficients if p**T < 343 else [coefficients[0], coefficients[2], (0, 0)]:
            for beta in [(0, 0), (rng.randrange(p**T), rng.randrange(p**T)), (p * rng.randrange(p), 0)]:
                sol = overlat._solve_linear(c, beta, T, p, eps)
                got = [] if sol is None else overlat._lift(*sol, T, p)
                assert got == _brute(p, T, (0, 0), 0, [(c, beta)], T), (c, beta, T)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_entry_solutions_match_brute_force(p, rng):
    # the merged congruences and the digit-by-digit norm filter give the same
    # residues, in the same order, as testing every h in [0, p^k)^2
    eps = field(p).eps
    cases = 0
    for k in (1, 2, 3):
        for T in range(1, 4):
            for _ in range({3: 12, 5: 4, 7: 2}[p] if k == 3 else 12):
                e = rng.randrange(k + 1)
                x = (rng.randrange(p**e), rng.randrange(p**e))
                coefficients = _coefficients(p, T, rng)
                conds = [(c, (rng.randrange(p**T), rng.randrange(p**T))) for c in rng.sample(coefficients, 2)]
                # solvable right-hand sides too: beta = c h0 for a random h0
                h0 = (rng.randrange(p**k), rng.randrange(p**k))
                conds += [(c, overlat._pmul(c, h0, eps)) for c in rng.sample(coefficients, rng.randrange(2))]
                for t in (rng.randrange(p**T), p * rng.randrange(p), h0[0] ** 2 - eps * h0[1] ** 2):
                    counter = [0]
                    got = overlat._entry_solutions(k, x, e, conds, t % p**T, T, p, eps, counter)
                    assert got == _brute(p, k, x, e, conds, T, t), (k, x, e, conds, t, T)
                    cases += 1
    assert cases > 50
    # every branch of the digit walk, without linear conditions: digit 0 from
    # the root table, later digits of a unit h (linear, solved for ux or, when
    # hx = 0 mod p, for uy) and of h = 0 mod p (one test), targets t = 0 mod p,
    # and a last digit checked mod p^T past p^(d+1) (d + 1 = k < T)
    seen = set()
    for k in (1, 2, 3):
        for T in range(1, 5):
            for e in range(k + 1):
                if p ** (2 * (k - e)) > 3000:
                    continue
                for h0 in (
                    (rng.randrange(1, p), rng.randrange(p**k)),
                    (p * rng.randrange(p ** (k - 1)), rng.randrange(1, p) + p * rng.randrange(p ** (k - 1))),
                    (p * rng.randrange(p ** (k - 1)), p * rng.randrange(p ** (k - 1))),
                ):
                    x = (h0[0] % p**e, h0[1] % p**e)
                    n0 = h0[0] ** 2 - eps * h0[1] ** 2
                    for t in {n0 % p**T, (n0 + p ** (T - 1) * rng.randrange(1, p)) % p**T, p * rng.randrange(p**T) % p**T, 0}:
                        got = overlat._entry_solutions(k, x, e, [], t, T, p, eps, [0])
                        assert got == _brute(p, k, x, e, [], T, t), (k, x, e, t, T)
                        if not got:
                            continue
                        # the walk's first step is at digit d = e, from h = x
                        if e < min(k, T):
                            kind = "digit 0" if e == 0 else "unit" if x[0] % p else "unit hy" if x[1] % p else "0 mod p"
                            seen.add((kind, t % p == 0, e + 1 == k < T))
    # (first step, t = 0 mod p, its digit the last, checked mod p^T); a unit h
    # has a unit norm, and an h = 0 mod p at d >= 1 a norm 0 mod p
    want = {("digit 0", zero, last) for zero in (False, True) for last in (False, True)}
    want |= {(kind, False, last) for kind in ("unit", "unit hy") for last in (False, True)}
    want |= {("0 mod p", True, last) for last in (False, True)}
    assert seen == want, seen


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_norm_root_table(p):
    # N(u) = t mod p has p + 1 roots for a unit t and only u = 0 for t = 0;
    # the tables of all t hold each u in [0, p)^2 once, under its own norm
    eps = field(p).eps
    everything = []
    for t in range(p):
        roots = overlat._norm_roots(p, eps, t)
        assert len(roots) == (p + 1 if t else 1)
        assert list(roots) == sorted(roots)
        assert all((ux * ux - eps * uy * uy - t) % p == 0 for ux, uy in roots)
        everything += roots
    assert sorted(everything) == [(ux, uy) for ux in range(p) for uy in range(p)]


def _candidates(monkeypatch, fld, invs):
    """Residues tested (the budget counter) by one overlattice enumeration."""
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
    # residues tested, digit tests included: each entry is solved for from the
    # congruences the Gram conditions put on it, and no digit step tries all
    # p^2 digits.  Trying all p^2 at each digit tested 1,760, 4,945 and 5,465
    # on these classes; trying every residue and rejecting it once the Gram
    # block it completes is not integral, 3,636, 16,526 and 5,280; and
    # without that check the search generated 11,132, 24,319 and 10,225
    assert _candidates(monkeypatch, F3, (1, 1, 1, 1)) == 1201
    assert _candidates(monkeypatch, F3, (2, 2, 2)) == 2566
    assert _candidates(monkeypatch, F5, (1, 2, 2)) == 1755


def test_budget_counts_digit_tests(F3, monkeypatch):
    # (4, 6) solves its row-0 entries one norm digit at a time; the budget
    # counts every residue tested, so it is exactly the candidate count
    count = _candidates(monkeypatch, F3, (4, 6))
    monkeypatch.undo()
    L = lattice_from_invariants(F3, (4, 6))
    with pytest.raises(BudgetExceeded):
        overlattice_profiles(L, budget=count - 1)
    assert len(overlattice_profiles(L, budget=count)) == 432


def test_profiles_rank_once_per_overlattice(F3, monkeypatch):
    # the type costs one bordered rank update per integral overlattice, and
    # one full elimination each time the leading block of the Gram mod p
    # (all its columns but the last) is complete; the density sums and the
    # horizontal sum do not read the cyclicity, so neither the profiles nor
    # the family records pay a rank for it (the family paid 785).  A full
    # elimination per overlattice made 393 here
    calls = {"full": 0, "lead": 0, "border": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(overlat, "_pair_rank_mod_p", counted("full", overlat._pair_rank_mod_p))
    monkeypatch.setattr(overlat, "_leading_block", counted("lead", overlat._leading_block))
    monkeypatch.setattr(overlat, "_bordered_rank", counted("border", overlat._bordered_rank))
    L = lattice_from_invariants(F3, (1, 1, 1, 1))
    profiles = overlattice_profiles(L)
    assert len(profiles) == 393
    assert calls == {"full": 0, "lead": 29, "border": 393}
    calls.update(full=0, lead=0, border=0)
    fam, _, _ = _overlattice_family(L, DEFAULT_BUDGET)
    assert len(fam) == 393
    assert calls == {"full": 0, "lead": 29, "border": 393}


def _kernel_size(M, p, eps):
    """Number of vectors v over F_(q^2) with M v = 0, by enumeration."""
    elems = [(x, y) for x in range(p) for y in range(p)]
    count = 0
    for v in itertools.product(elems, repeat=len(M[0])):
        for row in M:
            sa = sum(u[0] * w[0] + eps * u[1] * w[1] for u, w in zip(row, v))
            sb = sum(u[0] * w[1] + u[1] * w[0] for u, w in zip(row, v))
            if sa % p or sb % p:
                break
        else:
            count += 1
    return count


def _random_pair_matrix(n, m, p, rng):
    return [[(rng.randint(-2 * p, 2 * p), rng.randint(-2 * p, 2 * p)) for _ in range(m)] for _ in range(n)]


def _hermitian_pair_matrix(n, p, rng):
    M = _random_pair_matrix(n, n, p, rng)
    for i in range(n):
        M[i][i] = (M[i][i][0], p * M[i][i][1])
        for j in range(i):
            M[i][j] = (M[j][i][0], -M[j][i][1])
    return M


def _deficient_pair_matrix(n, k, p, eps, rng):
    """A product of n x k and k x n matrices, so of rank at most k."""
    A, B = _random_pair_matrix(n, k, p, rng), _random_pair_matrix(k, n, p, rng)
    return [
        [
            (
                sum(A[i][l][0] * B[l][j][0] + eps * A[i][l][1] * B[l][j][1] for l in range(k)),
                sum(A[i][l][0] * B[l][j][1] + A[i][l][1] * B[l][j][0] for l in range(k)),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize("p, max_n", [(3, 3), (5, 2)])
def test_pair_rank_matches_kernel_count(p, max_n, F3, F5, rng):
    # a matrix has rank rho iff its kernel has q^(2(n - rho)) vectors
    eps = {3: F3, 5: F5}[p].eps
    for n in range(1, max_n + 1):
        for _ in range(8):
            for M in (
                _random_pair_matrix(n, n, p, rng),
                _hermitian_pair_matrix(n, p, rng),
                _deficient_pair_matrix(n, rng.randrange(n), p, eps, rng),
            ):
                assert _kernel_size(M, p, eps) == p ** (2 * (n - _pair_rank_mod_p(M, p, eps))), M


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pair_rank_tables_match_plain_elimination(p, rng):
    eps = field(p).eps
    assert 11 * p * p - 5 <= overlat._TABLE_CAP
    for n in range(1, 5):
        for _ in range(10):
            for M in (
                _random_pair_matrix(n, n, p, rng),
                _random_pair_matrix(n, n + 1, p, rng),
                _hermitian_pair_matrix(n, p, rng),
                _deficient_pair_matrix(n, rng.randrange(n), p, eps, rng),
                [[(p * x, p * y) for x, y in row] for row in _random_pair_matrix(n, n, p, rng)],
            ):
                assert _pair_rank_mod_p(M, p, eps) == overlat._pair_rank_plain(M, p, eps), M


def _conj(u):
    return u[0], -u[1]


def _bordered(M, p, eps):
    """The rank of M through `_leading_block` of all but its last row and
    column, bordered by them."""
    n = len(M) - 1
    lead = _leading_block([row[:n] for row in M[:n]], p, eps)
    assert lead[0] == _pair_rank_mod_p([row[:n] for row in M[:n]], p, eps)
    return _bordered_rank(lead, [row[n] for row in M[:n]], M[n][n], p, eps)


def test_bordered_rank_on_every_hermitian_3x3_over_f9(F3):
    # every hermitian 3 x 3 matrix over F_9: 3^3 diagonals in F_3 times 9^3
    # upper triangles
    p, eps = 3, F3.eps
    elems = [(x, y) for x in range(p) for y in range(p)]
    count = 0
    for d0, d1, a01 in itertools.product(range(p), range(p), elems):
        A = [[(d0, 0), a01], [_conj(a01), (d1, 0)]]
        lead = _leading_block(A, p, eps)
        assert lead[0] == _pair_rank_mod_p(A, p, eps)
        for a02, a12, d2 in itertools.product(elems, elems, range(p)):
            M = [A[0] + [a02], A[1] + [a12], [_conj(a02), _conj(a12), (d2, 0)]]
            assert _bordered_rank(lead, [a02, a12], (d2, 0), p, eps) == _pair_rank_mod_p(M, p, eps), M
            count += 1
    assert count == 19683


def _low_rank_hermitian(n, k, p, eps, rng):
    """X^H D X for a random k x n matrix X over F_(q^2) and a diagonal D over
    F_q, so hermitian of rank at most k."""
    X = [[(rng.randrange(p), rng.randrange(p)) for _ in range(n)] for _ in range(k)]
    D = [rng.randrange(p) for _ in range(k)]
    M = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            x = y = 0
            for row, dl in zip(X, D):
                u, v = overlat._pmul(_conj(row[i]), row[j], eps)
                x, y = x + dl * u, y + dl * v
            M[i][j] = (x % p, y % p)
    return M


@pytest.mark.parametrize("p", [5, 7])
def test_bordered_rank_matches_full_elimination(p, rng):
    # random hermitian matrices up to 5 x 5, of every rank, and borders b
    # inside and outside the image of the leading block
    eps = field(p).eps
    grew = set()
    for n in range(1, 6):
        for _ in range(40):
            M = _low_rank_hermitian(n, rng.randrange(n + 1), p, eps, rng)
            if rng.randrange(3) == 0:
                # a border outside im A when A is singular, and a free corner
                b = [(rng.randrange(p), rng.randrange(p)) for _ in range(n - 1)]
                for i in range(n - 1):
                    M[i][n - 1], M[n - 1][i] = b[i], _conj(b[i])
                M[n - 1][n - 1] = (rng.randrange(p), 0)
            full = _pair_rank_mod_p(M, p, eps)
            assert _bordered(M, p, eps) == full, M
            grew.add(full - _pair_rank_mod_p([row[: n - 1] for row in M[: n - 1]], p, eps))
    assert grew == {0, 1, 2}


@pytest.mark.parametrize("p, invs, count", [(3, (1, 1, 1, 1), 393), (3, (2, 2, 2), 1024), (3, (0, 1, 1, 1), 29), (5, (1, 2, 2), 778)])
def test_bordered_type_matches_full_elimination(p, invs, count, rng):
    # the search's type, from the bordered rank, against a full elimination of
    # each overlattice's Gram mod p (whose unimodular diagonal has full rank)
    fld = field(p)
    L = rebased(lattice_from_invariants(fld, invs), random_unimodular(fld, len(invs), rng))
    search, _, _ = _overlattice_search(L, DEFAULT_BUDGET)
    seen = 0
    for _, type_t, _, _, g in search:
        assert type_t == len(invs) - _pair_rank_mod_p(g, p, fld.eps), g
        seen += 1
    assert seen == count


def _pair_det(M, p, eps):
    """Determinant over F_(q^2) by the Leibniz sum, reduced mod p."""
    total = (0, 0)
    for perm in itertools.permutations(range(len(M))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = (1 - 2 * (inversions % 2), 0)
        for i, j in enumerate(perm):
            term = overlat._pmul(term, M[i][j], eps)
        total = (total[0] + term[0], total[1] + term[1])
    return total[0] % p, total[1] % p


def _minor_rank(M, p, eps):
    """The largest k with a non-zero k x k minor."""
    for k in range(min(len(M), len(M[0])), 0, -1):
        for rows in itertools.combinations(range(len(M)), k):
            for cols in itertools.combinations(range(len(M[0])), k):
                if _pair_det([[M[i][j] for j in cols] for i in rows], p, eps) != (0, 0):
                    return k
    return 0


def test_pair_rank_above_table_cap(rng):
    # at p = 1009 the tables would hold 11 p^2 - 5 > 10^7 entries, so the
    # rank is taken by plain elimination, checked here against minors
    p = 1009
    eps = field(p).eps
    assert 11 * p * p - 5 > overlat._TABLE_CAP
    built = overlat._residue_tables.cache_info().currsize
    for n in range(1, 4):
        for _ in range(10):
            for M in (
                _random_pair_matrix(n, n, p, rng),
                _random_pair_matrix(n, n + 1, p, rng),
                _hermitian_pair_matrix(n, p, rng),
                _deficient_pair_matrix(n, rng.randrange(n), p, eps, rng),
            ):
                assert _pair_rank_mod_p(M, p, eps) == _minor_rank(M, p, eps), M
    assert overlat._residue_tables.cache_info().currsize == built


def test_residue_generator_candidate_count(monkeypatch):
    # the search for a generator of F_(q^2)^x tries a handful of candidates,
    # none of them in F_p^x, and raises each to n / r only
    tried = []
    ppow = overlat._ppow

    def counted(g, e, p, eps):
        if g not in tried:
            tried.append(g)
        return ppow(g, e, p, eps)

    monkeypatch.setattr(overlat, "_ppow", counted)
    counts = {}
    for p in (3, 5, 7, 101, 211, 1009):
        tried.clear()
        g = overlat._residue_generator(p, field(p).eps)
        assert tried[-1] == g and all(y != 0 for _, y in tried)
        counts[p] = len(tried)
    assert counts == {3: 2, 5: 3, 7: 2, 101: 3, 211: 3, 1009: 8}
    monkeypatch.undo()
    for p in (3, 5, 7, 101):
        # order n, by listing the powers
        eps = field(p).eps
        g = x = overlat._residue_generator(p, eps)
        order = 1
        while x != (1, 0):
            x = overlat._pmul(x, g, eps)
            x = (x[0] % p, x[1] % p)
            order += 1
        assert order == p * p - 1


@pytest.mark.parametrize("p, invs", [(3, (2, 2)), (3, (1, 1, 2)), (3, (0, 2, 2)), (3, (1, 3)), (5, (2, 2)), (5, (1, 1, 2))])
def test_cyclic_flag_matches_quotient_divisors(p, invs, F3, F5, rng):
    # L'/L is cyclic iff at most one of its elementary divisors is positive
    fld = {3: F3, 5: F5}[p]
    L = rebased(lattice_from_invariants(fld, invs), random_unimodular(fld, len(invs), rng))
    recs = integral_overlattices(L)
    for rec in recs:
        assert rec.cyclic_flag == (sum(1 for d in quotient_divisors(L, rec.lattice) if d > 0) <= 1)
    # cyclic_overlattices is that filter, in the same order
    want = [(r.lattice.key(), r.length, r.type_t, r.cyclic_flag) for r in recs if r.cyclic_flag]
    assert [(r.lattice.key(), r.length, r.type_t, r.cyclic_flag) for r in cyclic_overlattices(L)] == want


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
