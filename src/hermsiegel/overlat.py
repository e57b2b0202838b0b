"""Enumeration of integral overlattices of an integral hermitian lattice.

Every integral L' containing L sits between L and L^v, so the search space is
the finite module L^v/L = (+) O_F/p^(a_i), with a_0 <= ... <= a_(r-1).
Submodules are enumerated without duplication through canonical triangular
matrices H over O_F/p^k whose pivots are powers of p; the containment
congruences are solved exactly entry by entry, so only genuine submodules are
ever generated.  H is filled column by column, left to right, and each column
bottom-up.  L' is integral iff its Gram matrix W = H^H D H, with D the diagonal
Gram of the dual basis scaled by p^(a_(r-1)), vanishes mod p^(a_(r-1)).
Because H is upper triangular, W[j][m] for j <= m depends on columns j and m
only, so a candidate is rejected as soon as a column makes its Gram block
non-integral, and inside a column as soon as the rows set so far fix a
non-zero residue of W (see `_overlattice_search`).  Both checks are exact:
the enumeration yields the same set as lifting every submodule and testing
its integrality.

Each integral overlattice costs one rank over the residue field F_(q^2), read
off arithmetic tables: its type is r minus the rank of its Gram mod p.  The
search streams the overlattices; `overlattice_profiles` keeps only their
(length, type) pairs, which is all the density sums need.  Only the records
of `integral_overlattices` and `cyclic_overlattices` pay a second rank, for
the cyclicity of L'/L.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import BudgetExceeded, PreconditionViolated
from .lattice import (
    EmbeddedLattice,
    from_generators,
    mat,
    perp_line,
    quotient_divisors,
    with_valuation,
)
from .ring import reduce

# candidate budget: the largest acceptance instance, diag(p^4, p^4, p) at
# q = 5, generates 653,457 submodule candidates, so the default leaves ample room
DEFAULT_BUDGET = 10**8

# the a-priori estimate overcounts (it ignores congruence failures), so the
# early-refusal gate allows it some slack over the live candidate budget
_ESTIMATE_SLACK = 64


@dataclass(frozen=True)
class OverlatticeRecord:
    lattice: EmbeddedLattice
    length: int
    type_t: int
    cyclic_flag: bool


# ---------------------------------------------------------------------------
# integer-pair arithmetic for the submodule search (elements of O_F as x + y*t)


def _pmul(u, v, eps):
    return (u[0] * v[0] + eps * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _padd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _pdivides(pk, u):
    return u[0] % pk == 0 and u[1] % pk == 0


def _submodules(a, p, eps, budget, counter, entry_ok=None, ksum_target=None):
    """Yield (kvals, H, cvec) for all submodules of (+)_i O/p^(a_i).  The
    lists are live: the next step of the search overwrites them, so a caller
    copies what it keeps.

    H is upper triangular with H[i][i] = p^(k_i) and H[i][m] reduced mod
    p^(k_i) above the diagonal; its columns generate the submodule.  H is
    filled column by column, left to right, and each column bottom-up: the
    pivot H[m][m], then H[m-1][m], ..., H[0][m].  Containing p^(a_m) e_m is a
    condition on column m alone: the solve c = cvec[m] of H c = p^(a_m) e_m is
    supported on rows <= m, and its row-i equation
    p^(k_i) c_i = -(H[i][i+1] c_(i+1) + ... + H[i][m] c_m) is a congruence on
    H[i][m] mod p^(k_i) whose other terms are already set.  So the set of H
    yielded is the canonical one, whatever the order of the entries.
    `counter` is a single-cell list accumulating generated off-diagonal
    entries, and `entry_ok(i, m, H)` may reject a branch right after H[i][m]
    is set (i = m for the pivot).  When `ksum_target` is set, only pivot
    vectors with that total are visited.
    """
    r = len(a)
    if r == 0:
        yield [], [], []
        return
    suffix_max = [0] * (r + 1)
    for i in reversed(range(r)):
        suffix_max[i] = suffix_max[i + 1] + a[i]
    H = [[(0, 0)] * r for _ in range(r)]
    kvals = [0] * r
    cvec = [[(0, 0)] * r for _ in range(r)]

    def entries(i, m):
        """Enumerate H[i][m], ..., H[0][m], then the columns right of m."""
        if i < 0:
            yield from column(m + 1)
            return
        c = cvec[m]
        pk = p ** kvals[i]
        g = a[m] - kvals[m]
        pg = p**g
        s = (0, 0)
        for l in range(i + 1, m):
            s = _padd(s, _pmul(H[i][l], c[l], eps))
        # congruence: s + H[i][m] * p^g == 0 mod p^(k_i)
        if g >= kvals[i]:
            if not _pdivides(pk, s):
                return
            choices = [(x, y) for x in range(pk) for y in range(pk)]
        else:
            if not _pdivides(pg, s):
                return
            step = p ** (kvals[i] - g)
            base = (-(s[0] // pg) % step, -(s[1] // pg) % step)
            choices = [(base[0] + step * x, base[1] + step * y) for x in range(pg) for y in range(pg)]
        for h in choices:
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceeded(f"submodule enumeration exceeded budget {budget}")
            H[i][m] = h
            if entry_ok is not None and not entry_ok(i, m, H):
                continue
            c[i] = (-((s[0] + h[0] * pg) // pk), -((s[1] + h[1] * pg) // pk))
            yield from entries(i - 1, m)

    def column(m):
        if m == r:
            yield None
            return
        done = sum(kvals[:m])
        for k in range(a[m] + 1):
            if ksum_target is not None:
                # columns m+1.. can still contribute at most suffix_max[m + 1]
                if done + k > ksum_target or done + k + suffix_max[m + 1] < ksum_target:
                    continue
            kvals[m] = k
            H[m][m] = (p**k, 0)
            cvec[m][m] = (p ** (a[m] - k), 0)
            if entry_ok is not None and not entry_ok(m, m, H):
                continue
            yield from entries(m - 1, m)

    for _ in column(0):
        yield kvals, H, cvec


def _estimate(a, q):
    """Upper bound for the candidate count: each entry H[i][j] admits at most
    q^(2 min(k_i, a_j - k_j)) choices, summed over all pivot vectors."""
    from itertools import product as iproduct

    r = len(a)
    est = 0
    for kv in iproduct(*[range(ai + 1) for ai in a]):
        term = 1
        for i in range(r):
            for j in range(i + 1, r):
                term *= q ** (2 * min(kv[i], a[j] - kv[j]))
        est += term
    return est


def submodule_count(a, p, eps, budget=DEFAULT_BUDGET) -> int:
    """Number of O_F-submodules of (+) O/p^(a_i) (direct enumeration)."""
    counter = [0]
    return sum(1 for _ in _submodules(tuple(a), p, eps, budget, counter))


# ---------------------------------------------------------------------------
# rank over the residue field


# the log/antilog tables of F_(q^2) have 11 q^2 - 5 entries; above this many,
# a rank is taken by plain elimination (p = 953 is the largest prime below)
_TABLE_CAP = 10**7


def _ppow(g, e, p, eps):
    """g^e in F_(q^2), by squaring."""
    acc = (1, 0)
    while e:
        if e & 1:
            acc = _pmul(acc, g, eps)
            acc = (acc[0] % p, acc[1] % p)
        g = _pmul(g, g, eps)
        g = (g[0] % p, g[1] % p)
        e >>= 1
    return acc


def _prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _residue_generator(p, eps):
    """The first generator x + y*t of F_(q^2)^x, trying y = 1, 2, ... and
    x = 0, 1, ... in turn: g generates iff g^(n/r) != 1 for every prime r
    dividing n = q^2 - 1.  Candidates with y = 0 lie in F_p^x, whose order
    p - 1 is smaller than n, so none of them is tried."""
    n = p * p - 1
    cofactors = [n // r for r in _prime_factors(n)]
    for y in range(1, p):
        for x in range(p):
            if all(_ppow((x, y), c, p, eps) != (1, 0) for c in cofactors):
                return x, y
    raise AssertionError(f"F_({p}^2)^x has no generator")


@functools.cache
def _residue_tables(p, eps):
    """Arithmetic tables of the residue field F_(q^2) = F_p[t]/(t^2 - eps).

    An element x + y*t is coded as x + 2p*y (0 <= x, y < p), so the sum of two
    codes carries no digit and `red` reduces it back to a code.  Products go
    through discrete logarithms to a generator g: `log[c]` for a code, and
    `nexp[k]` = the code of -g^k for k < 3n (n = q^2 - 1).  Zero has the
    logarithm 3n, and `nexp` reads 0 from index 3n on, so u - f*v/w is
    red[u + nexp[log f + (n - log w) + log v]] without a branch for zero.
    Every table has O(q^2) entries, 11 q^2 - 5 in all."""
    P = 2 * p
    n = p * p - 1

    def code(x, y):
        return x % p + P * (y % p)

    g = _residue_generator(p, eps)
    powers = [(1, 0)]
    for _ in range(n - 1):
        x, y = _pmul(powers[-1], g, eps)
        powers.append((x % p, y % p))
    log = [3 * n] * (P * p)
    for k, (x, y) in enumerate(powers):
        log[code(x, y)] = k
    nexp = [code(-x, -y) for x, y in powers] * 3 + [0] * (2 * n)
    red = [code(c % P, c // P) for c in range(P * P)]
    return P, n, log, nexp, red


def _pair_rank_mod_p(rows, p, eps):
    """Rank over the residue field F_(q^2) of a matrix of integer pairs.

    Forward elimination below each pivot, on the codes of `_residue_tables`
    while those fit under `_TABLE_CAP`, and in plain pair arithmetic mod p
    above it."""
    if 11 * p * p - 5 > _TABLE_CAP:
        return _pair_rank_plain(rows, p, eps)
    P, n, log, nexp, red = _residue_tables(p, eps)
    M = [[x % p + P * (y % p) for x, y in row] for row in rows]
    nrows = len(M)
    rank = 0
    for c in range(len(M[0]) if nrows else 0):
        for piv in range(rank, nrows):
            if M[piv][c]:
                break
        else:
            continue
        prow = M[piv]
        M[piv] = M[rank]
        M[rank] = prow
        ilog = n - log[prow[c]]  # log of the pivot's inverse
        lp = [log[v] for v in prow[c + 1 :]]
        for i in range(rank + 1, nrows):
            row = M[i]
            if row[c]:
                lf = log[row[c]] + ilog
                row[c + 1 :] = [red[u + nexp[lf + lv]] for u, lv in zip(row[c + 1 :], lp)]
        rank += 1
    return rank


def _pair_rank_plain(rows, p, eps):
    """`_pair_rank_mod_p` without tables: the pivot x + y*t is inverted as
    (x - y*t) / (x^2 - eps*y^2) mod p."""
    M = [[(x % p, y % p) for x, y in row] for row in rows]
    nrows = len(M)
    rank = 0
    for c in range(len(M[0]) if nrows else 0):
        for piv in range(rank, nrows):
            if M[piv][c] != (0, 0):
                break
        else:
            continue
        prow = M[piv]
        M[piv] = M[rank]
        M[rank] = prow
        x, y = prow[c]
        ninv = pow((x * x - eps * y * y) % p, -1, p)
        pinv = (x * ninv % p, -y * ninv % p)
        for i in range(rank + 1, nrows):
            row = M[i]
            if row[c] != (0, 0):
                f = _pmul(row[c], pinv, eps)
                row[c + 1 :] = [
                    ((u[0] - w[0]) % p, (u[1] - w[1]) % p)
                    for u, w in zip(row[c + 1 :], (_pmul(f, v, eps) for v in prow[c + 1 :]))
                ]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# lifting submodules to lattices


def _overlattice_search(L: EmbeddedLattice, budget, val_target=None):
    """Set up the search for the integral lattices L' with L <= L' <= L^v.

    Returns (search, build, dual_cols): `search` yields (length, type, H, cvec,
    Gram mod p) per overlattice, with H, cvec and the Gram live (overwritten
    by the next step, see `_submodules`), `build(H)` lifts H to the lattice,
    and dual_cols are the dual-basis columns H is written in.  The
    integrality and type checks run in modular integer arithmetic, val(z) >= c
    being decided exactly by z mod p^c, and integrality is checked entry by
    entry while H is filled.  With `val_target` set, only overlattices of that
    valuation are enumerated.  The estimate gate refuses a search before it
    starts."""
    fld = L.field
    diag = L.orthogonal_basis()
    a = [int(diag.gram[i][i].valuation()) for i in range(diag.rank)]
    order = sorted(range(len(a)), key=lambda i: a[i])
    a_sorted = [a[i] for i in order]
    cols = [diag.column(i) for i in order]
    if any(x < 0 for x in a_sorted):
        raise PreconditionViolated("overlattice enumeration requires an integral lattice")
    est = _estimate(a_sorted, fld.q)
    if est > _ESTIMATE_SLACK * budget:
        raise BudgetExceeded(f"estimated submodule count {est} exceeds budget {budget}")
    r = len(a_sorted)
    p, eps = fld.p, fld.eps
    amax = a_sorted[-1] if a_sorted else 0
    mod = p ** (amax + 1)
    pam = p**amax
    # dual-basis columns f_i / p^(a_i); in these coordinates L = diag(p^(a_i)) O^r
    scales = [fld.ppow(-ai) for ai in a_sorted]
    dual_cols = [tuple(scales[i] * x for x in cols[i]) for i in range(r)]
    units = [diag.gram[order[i]][order[i]] * scales[i] for i in range(r)]
    # scaled diagonal p^(amax) * gdiag_l = p^(amax - a_l) * unit_l, mod p^(amax+1)
    vdiag = []
    for l in range(r):
        u = reduce(units[l], amax + 1)
        vdiag.append((u.a * p ** (amax - a_sorted[l]) % mod, u.b * p ** (amax - a_sorted[l]) % mod))

    def build(H):
        Hf = [[fld.elem(H[i][j][0], H[i][j][1]) for j in range(r)] for i in range(r)]
        basis = mat(
            [[sum((dual_cols[l][i] * Hf[l][j] for l in range(r)), start=fld.zero) for j in range(r)] for i in range(L.dim)]
        )
        return EmbeddedLattice(L.space, basis, _check=False)

    ksum_target = None
    if val_target is not None:
        if (sum(a_sorted) - val_target) % 2 != 0 or val_target > sum(a_sorted):
            return iter(()), build, dual_cols
        ksum_target = (sum(a_sorted) + val_target) // 2

    # W = H^H diag(p^amax * gdiag) H mod p^(amax+1), integral iff W == 0 mod
    # p^amax.  W[j][m] (j <= m) depends on columns j and m only, and row l
    # adds conj(H[l][j]) V_l H[l][m], a multiple of p^(amax - a_l).  With a
    # sorted, the rows above i add multiples of depth[i] = p^(amax - a_(i-1)),
    # so once rows i..m of column m are set, rows i..j of every W[j][m] must
    # vanish mod depth[i]; at i = 0 they are all of W[j][m], due mod p^amax.
    depth = [pam] + [p ** (amax - a_sorted[i - 1]) for i in range(1, r)]
    # acc[m][i][j]: the rows i..j of W[j][m]
    acc = [[[(0, 0)] * r for _ in range(r)] for _ in range(r)]
    gmodp = [[(0, 0)] * r for _ in range(r)]

    def entry_ok(i, m, H):
        va, vb = vdiag[i]
        hx, hy = H[i][m]
        ta = va * hx + eps * vb * hy  # V_i H[i][m]
        tb = va * hy + vb * hx
        row, below, pt = acc[m][i], acc[m][i + 1] if i < m else None, depth[i]
        # the norm entry W[m][m] first: it rejects most candidates
        for j in range(m, i - 1, -1):
            gx, gy = H[i][j]
            wa = gx * ta - eps * gy * tb  # conj(H[i][j]) V_i H[i][m]
            wb = gx * tb - gy * ta
            if j > i:
                wa += below[j][0]
                wb += below[j][1]
            wa %= mod
            wb %= mod
            if wa % pt or wb % pt:
                return False
            row[j] = (wa, wb)
        if i == 0:
            for j in range(m + 1):
                wa, wb = row[j]
                gmodp[j][m] = (wa // pam, wb // pam)
                gmodp[m][j] = (wa // pam, -(wb // pam) % p)
        return True

    def search():
        total = sum(a_sorted)
        for kvals, H, cvec in _submodules(tuple(a_sorted), p, eps, budget, [0], entry_ok, ksum_target):
            # type: number of positive invariants = r - rank of the Gram mod p
            yield total - sum(kvals), r - _pair_rank_mod_p(gmodp, p, eps), H, cvec, gmodp

    return search(), build, dual_cols


def _overlattice_family(L: EmbeddedLattice, budget):
    """All integral lattices L' with L <= L' <= L^v, as records
    (H, type, Gram mod p) with a lazy builder and the dual-basis columns; see
    `_overlattice_search`."""
    search, build, dual_cols = _overlattice_search(L, budget)
    fam = [([row[:] for row in H], type_t, [row[:] for row in gmodp]) for _, type_t, H, _, gmodp in search]
    return fam, build, dual_cols


def _classified(L: EmbeddedLattice, budget):
    """(length, type, H, cyclic) per integral overlattice, sorted, and the builder."""
    search, build, _ = _overlattice_search(L, budget)
    p, eps, r = L.field.p, L.field.eps, L.rank
    out = []
    for length, type_t, H, cvec, _ in search:
        # cyclicity of L'/L, which is 0 or O_F/p at length <= 1; beyond, the vectors cvec[m]
        # express L in L'-coordinates, so L'/L is cyclic iff they have rank >= r - 1 mod p
        cyclic = length <= 1 or r - _pair_rank_mod_p(cvec, p, eps) <= 1
        out.append((length, type_t, [row[:] for row in H], cyclic))
    out.sort(key=lambda rec: rec[:3])
    return out, build


def overlattice_profiles(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET):
    """(length, type) pairs of all integral overlattices, without
    constructing the lattices or keeping their matrices; this is what the
    density sums consume."""
    search, _, _ = _overlattice_search(L, budget)
    return [(length, type_t) for length, type_t, _, _, _ in search]


def integral_overlattices(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET):
    """Complete duplicate-free list of integral lattices L' >= L, with data.

    The canonical triangular enumeration visits every intermediate module
    exactly once, so no deduplication pass is needed.
    """
    recs, build = _classified(L, budget)
    return [OverlatticeRecord(build(H), length, type_t, cyclic) for length, type_t, H, cyclic in recs]


def cyclic_overlattices(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET):
    """Integral overlattices whose quotient by L is a cyclic O_F-module."""
    recs, build = _classified(L, budget)
    return [OverlatticeRecord(build(H), length, type_t, cyclic) for length, type_t, H, cyclic in recs if cyclic]


def count_intermediate(L: EmbeddedLattice, Lpp: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> int:
    """Number of lattices L' with L <= L' <= Lpp, endpoints included."""
    divs = quotient_divisors(L, Lpp)  # raises NotContained when violated
    a = tuple(sorted(d for d in divs))
    return submodule_count(a, L.field.p, L.field.eps, budget)


# ---------------------------------------------------------------------------
# vertex overlattices of a corank-one sublattice


def _generator_window(val_flat: int, t: int, n: int, widen: int = 0):
    if t == n:
        lo, hi = 1, max(1, val_flat - 1)
    else:
        lo, hi = max(0, t - val_flat), max(1, val_flat + 1)
    return lo, hi + widen


def vertex_overlattices(Lflat: EmbeddedLattice, t: int, budget: int = DEFAULT_BUDGET, widen: int = 0):
    """All full-rank vertex lattices of type t containing the corank-1 lattice.

    Candidates are integral overlattices of Lflat + <p^j w> for w spanning the
    orthogonal line, with val(p^j w) running over a finite window; the window
    is certified empirically by the widening regression test.
    """
    space = Lflat.space
    n = space.dim
    if Lflat.rank != n - 1:
        raise PreconditionViolated("vertex_overlattices expects a corank-one lattice")
    if not Lflat.is_integral():
        raise PreconditionViolated("flat lattice must be integral")
    if t > n:
        raise PreconditionViolated("type cannot exceed the ambient dimension")
    w0 = perp_line(space, Lflat)
    v0 = int(space.vector_val(w0))
    val_flat = Lflat.val()
    lo, hi = _generator_window(val_flat, t, n, widen)
    found = {}
    for v in range(lo + (lo - v0) % 2, hi + 1, 2):
        cand = from_generators(space, Lflat.columns() + [with_valuation(space, w0, v)])
        if cand.rank != n or not cand.is_integral():
            continue
        # vertex lattices of type t have valuation t, which pins the pivot sum;
        # type t at valuation t in turn forces every invariant into {0, 1}
        search, build, _ = _overlattice_search(cand, budget, val_target=t)
        for _, type_t, H, _, _ in search:
            if type_t != t:
                continue
            lam = build(H)
            if lam.contains_lattice(Lflat):
                found.setdefault(lam.key(), lam)
    return [found[k] for k in sorted(found)]
