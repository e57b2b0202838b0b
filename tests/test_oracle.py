import itertools
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from hermsiegel import oracle
from hermsiegel.density import den_poly
from hermsiegel.errors import BudgetExceeded, PreconditionViolated, UnsupportedShape
from hermsiegel.lattice import lattice_from_invariants, random_unimodular, rebased
from hermsiegel.oracle import (
    cancellation_oracle_check,
    count_rep,
    count_rep_naive,
    den_oracle,
)
from hermsiegel.ring import field


def lat(F, *invs):
    return lattice_from_invariants(F, tuple(invs))


def test_norm_one_count(F3):
    # unit sphere in the rank-1 unimodular module: q + 1 solutions mod p
    assert count_rep(lat(F3, 0), lat(F3, 0), 1) == 4


def test_structured_matches_naive_precision_one(F3):
    cases = [
        ((0,), (0,)),
        ((0, 0), (0,)),
        ((0, 0), (1,)),
        ((0, 0), (0, 0)),
        ((0, 0, 0), (1,)),
        ((0, 1), (1,)),
        ((0, 1), (0,)),
        ((0, 0), (1, 1)),
        ((0, 0, 0), (1, 1)),
        ((0, 1), (0, 1)),
        ((0, 0), (0, 1)),
        ((0, 0, 0), (1, 2)),
        ((0, 0, 1), (0, 1)),
    ]
    for Minv, Linv in cases:
        M, L = lat(F3, *Minv), lat(F3, *Linv)
        assert count_rep(M, L, 1) == count_rep_naive(M, L, 1), (Minv, Linv)


def test_structured_matches_naive_precision_two(F3):
    cases = [((0,), (0,)), ((0, 0), (0,)), ((0, 0), (1,)), ((0, 0), (2,)), ((0, 1), (1,)), ((0, 1), (2,)), ((0,), (2,))]
    # ambient forms with non-unit diagonal entries
    cases += [((0, 1), (3,)), ((0, 2), (0,)), ((1,), (1,)), ((1,), (2,)), ((1,), (3,))]
    for Minv, Linv in cases:
        M, L = lat(F3, *Minv), lat(F3, *Linv)
        assert count_rep(M, L, 2) == count_rep_naive(M, L, 2), (Minv, Linv)


def test_permutation_and_basis_invariance(F3, rng):
    M = lat(F3, 0, 0)
    L = lat(F3, 1, 1)
    base = count_rep(M, L, 2)
    for _ in range(3):
        L2 = rebased(L, random_unimodular(F3, 2, rng))
        M2 = rebased(M, random_unimodular(F3, 2, rng))
        assert count_rep(M2, L2, 2) == base


def test_eq_iden(F3):
    # Den(<1>^(n+k), <1>^n) interpolates prod (1 - (-q)^(-i) X) at X = (-q)^(-k)
    q = 3
    for n in (1, 2, 3):
        for k in (0, 1):
            rc = den_oracle(lat(F3, *(0,) * (n + k)), lat(F3, *(0,) * n))
            want = Fraction(1)
            for i in range(1, n + 1):
                want *= 1 - Fraction(-q) ** (-i) * Fraction(-q) ** (-k)
            assert rc.stabilized and rc.normalized == want, (n, k)


def test_selfdual_stabilizes_immediately(F3):
    for invs in [(0,), (0, 0)]:
        L = lat(F3, *invs)
        rc = den_oracle(lat(F3, *invs), L)
        assert rc.stabilized


def test_norm_zero_fiber(F3):
    # solutions of norm(a) = 0 mod 3: only a = 0
    assert count_rep_naive(lat(F3, 0), lat(F3, 1), 1) == 1


def test_oracle_vs_den_poly_rank1(F3):
    q = 3
    for a in (0, 1, 2):
        L = lat(F3, a)
        for k in (0, 1):
            M = lat(F3, *(0,) * (1 + k))
            num = den_oracle(M, L)
            den = den_oracle(M, lat(F3, 0))
            assert num.stabilized and den.stabilized
            assert num.normalized / den.normalized == den_poly(L)(Fraction(-q) ** (-k))


def test_oracle_vs_den_poly_rank2(F3):
    q = 3
    for invs in [(0, 0), (0, 1), (1, 1), (0, 2), (2, 2)]:
        L = lat(F3, *invs)
        for k in (0, 1):
            M = lat(F3, *(0,) * (2 + k))
            num = den_oracle(M, L)
            den = den_oracle(M, lat(F3, 0, 0))
            assert num.stabilized and den.stabilized
            assert num.normalized / den.normalized == den_poly(L)(Fraction(-q) ** (-k)), (invs, k)


def test_cancellation_oracle_instances(F3):
    for invs in [(0,), (2,), (0, 1)]:
        assert cancellation_oracle_check(lat(F3, *invs), 0)


def test_preconditions(F3):
    with pytest.raises(PreconditionViolated):
        count_rep(lat(F3, 0), lat(F3, 0, 0), 1)  # rank too large
    with pytest.raises(PreconditionViolated):
        count_rep(lat(F3, 0), lat(F3, 0), 0)  # precision
    with pytest.raises(PreconditionViolated):
        count_rep(lat(F3, 0), lat(F3, 1).dual(), 1)  # non-integral


def test_naive_budget(F3):
    with pytest.raises(BudgetExceeded):
        count_rep_naive(lat(F3, 0, 0, 0), lat(F3, 1, 1), 4, budget=10**4)


def test_normalization_exponent(F3):
    # dimension exponent n(2m - n): rank-1 in rank-2, N = 1: q^(1*3)
    L, M = lat(F3, 0), lat(F3, 0, 0)
    rc = den_oracle(M, L)
    c = count_rep(M, L, rc.N)
    assert rc.normalized == Fraction(c, 3 ** (rc.N * 3))



# ---------------------------------------------------------------------------
# count tables on valuation classes against full-length residue tables


def _full_norm_table(fld, N, coeff):
    """counts[c] = #{z in O/p^N : coeff * norm(z) = c (mod p^N)}, by residues."""
    m = fld.p**N
    xs = np.arange(m, dtype=np.int64)
    sq = (xs * xs) % m
    nrm = ((sq[:, None] - (fld.eps % m) * sq[None, :]) % m).reshape(-1)
    return np.bincount((nrm * (coeff % m)) % m, minlength=m)


def _full_sphere_dist(fld, N, dvals):
    """Distribution of sum_k d_k norm(z_k) over (O/p^N)^m as a length-p^N
    array, by circular convolution of the one-variable tables."""
    m = fld.p**N
    dist = np.zeros(m, dtype=np.int64)
    dist[0] = 1
    for v, u in dvals:
        coeff = (pow(fld.p, v, m) * u) % m if v < N else 0
        full = np.convolve(dist, _full_norm_table(fld, N, coeff))
        dist = full[:m].copy()
        dist[: len(full) - m] += full[m:]
    return dist


@pytest.mark.parametrize("p, max_N", [(3, 4), (5, 3)])
def test_class_sphere_counts_match_full_tables(p, max_N):
    fld = field(p)
    for N in range(1, max_N + 1):
        slots = [(v, u) for v in range(N + 2) for u in range(1, p)]
        for m in (1, 2, 3):
            for dvals in itertools.combinations_with_replacement(slots, m):
                ref = _full_sphere_dist(fld, N, dvals)
                got = [oracle._sphere_count(fld, N, dvals, c) for c in range(p**N)]
                assert got == ref.tolist(), (p, N, dvals)


@pytest.mark.parametrize("p, max_N", [(3, 4), (5, 3)])
def test_class_structure_constants(p, max_N):
    for N in range(1, max_N + 1):
        pN = p**N
        C = oracle._class_structure(p, N)
        for k in range(N + 1):
            c = pow(p, k, pN)
            want = {}
            for s in range(pN):
                ij = (oracle._val_class(s, p, N), oracle._val_class(c - s, p, N))
                want[ij] = want.get(ij, 0) + 1
            assert C[k] == want, (p, N, k)


@pytest.mark.parametrize("p, max_N", [(3, 4), (5, 3)])
def test_coset_norm_classes_match_residues(p, max_N):
    fld = field(p)
    for N in range(1, max_N + 1):
        pN = p**N
        for s in range(N + 1):
            ks = p ** (N - s) * np.arange(p**s, dtype=np.int64)
            nrm = ((ks[:, None] ** 2 - fld.eps * ks[None, :] ** 2) % pN).reshape(-1)
            ref = np.bincount(nrm, minlength=pN)
            classes = oracle._coset_norm_classes(p, N, s)
            assert [classes[oracle._val_class(c, p, N)] for c in range(pN)] == ref.tolist(), (p, N, s)


@pytest.mark.parametrize("invs, k", [((4,), 0), ((3,), 0), ((3,), 1), ((3,), 2), ((0, 3), 0), ((0, 0, 3), 0)])
def test_former_known_limits_at_p5(F5, invs, k):
    start = time.perf_counter()
    M = lat(F5, *(0,) * (len(invs) + k))
    num = den_oracle(M, lat(F5, *invs))
    den = den_oracle(M, lat(F5, *(0,) * len(invs)))
    assert num.stabilized and num.normalized / den.normalized == den_poly(lat(F5, *invs))(Fraction(-5) ** (-k))
    assert time.perf_counter() - start < 1.0


# shapes the table count refused (p = 3) or that the OS killed first (p = 5)
FORMERLY_REFUSED = [(3, (1, 2), 10**5), (5, (2, 2), 10**6)]


@pytest.mark.parametrize("p, invs, budget", FORMERLY_REFUSED)
def test_formerly_refused_shapes_match_den_poly(p, invs, budget):
    fld = field(p)
    M = lat(fld, 0, 0, 0)
    num = den_oracle(M, lat(fld, *invs), budget=budget)
    den = den_oracle(M, lat(fld, 0, 0), budget=budget)
    assert num.stabilized and num.normalized / den.normalized == den_poly(lat(fld, *invs))(Fraction(-p) ** (-1))


def test_stratum_walk_refused_before_it_starts(F3):
    # L = (40, 40) at N = 40 has c1 = 0, so the contents s >= 20 walk every
    # norm mod p^(N-s): 3^20 representatives at s = 20 alone
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="stratum representatives"):
        count_rep(lat(F3, 0, 0, 0), lat(F3, 40, 40), 40, budget=10**6)
    assert time.perf_counter() - start < 1.0


def test_stratum_walk_size():
    for p, N, c1 in [(3, 4, 0), (3, 5, 0), (3, 5, 3), (3, 5, 9), (5, 4, 25), (5, 4, 7), (7, 3, 0)]:
        seen = sum(p**s if 2 * s < N else p ** (N - s) for s, _ in oracle._two_nonunit_strata(p, N, c1))
        assert oracle._strata_walk(p, N, c1) == seen, (p, N, c1)


@pytest.mark.parametrize(
    "p, invs, k",
    [(5, invs, k) for invs in [(1, 2), (2, 2)] for k in (0, 1)]
    + [(7, invs, k) for invs in [(1, 1), (1, 2), (2, 2)] for k in (0, 1)],
)
def test_oracle_vs_den_poly_two_nonunit(p, invs, k):
    start = time.perf_counter()
    fld = field(p)
    M = lat(fld, *(0,) * (2 + k))
    num = den_oracle(M, lat(fld, *invs))
    den = den_oracle(M, lat(fld, 0, 0))
    assert num.stabilized and num.normalized / den.normalized == den_poly(lat(fld, *invs))(Fraction(-p) ** (-k))
    assert time.perf_counter() - start < 1.0


slow = pytest.mark.skipif(not os.environ.get("HERMSIEGEL_SLOW"), reason="set HERMSIEGEL_SLOW=1 to run")


@pytest.mark.parametrize("p, N_lo, N_hi", [(3, 1, 4), (5, 1, 3), (7, 1, 2), pytest.param(3, 5, 5, marks=slow)])
def test_pair_count_closed_form_matches_tables(p, N_lo, N_hi):
    # every content s, every non-unit norm tau0 mod p^(N-s) and both unit
    # classes of d1; the second column's target c2 runs over one value per
    # class, next to a unimodular rest of rank 0, 1 and 2
    fld = field(p)
    for N in range(N_lo, N_hi + 1):
        C = oracle._class_structure(p, N)
        for s in range(N):
            for tau0 in range(0, p ** (N - s), p):
                for d1 in (1, 2):
                    ref = oracle._pair_classes_tables(fld, N, s, tau0, d1, 1)
                    assert oracle._pair_classes(p, N, s, tau0) == ref, (p, N, s, tau0, d1)
                    for rest in range(3):
                        mdiag = [(0, d1), (0, 1)] + [(0, 1)] * rest
                        sphere = oracle._sphere_classes(p, N, (0,) * rest)
                        for k in range(N + 1):
                            got = oracle._inner_count(fld, N, s, tau0, mdiag, p**k % p**N)
                            assert got == oracle._class_conv_at(ref, sphere, C, k), (p, N, s, tau0, d1, rest, k)


# shapes the structured count does not cover: two non-unit columns in a
# non-unimodular ambient form, and rank 3 left after peeling the unit columns
UNSUPPORTED = [((0, 1), (1, 1)), ((0, 0, 0, 0), (1, 1, 1))]


@pytest.mark.parametrize("m_invs, l_invs", UNSUPPORTED)
def test_unsupported_shape_is_not_a_budget_refusal(F3, m_invs, l_invs):
    M, L = lat(F3, *m_invs), lat(F3, *l_invs)
    with pytest.raises(UnsupportedShape):
        count_rep(M, L, 2, budget=10**15)
    with pytest.raises(UnsupportedShape):
        den_oracle(M, L, budget=10**15)
