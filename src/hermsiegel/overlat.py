"""Enumeration of integral overlattices of an integral hermitian lattice.

Every integral L' containing L sits between L and L^v, so the search space is
the finite module L^v/L = (+) O_F/p^(a_i), with a_0 <= ... <= a_(r-1).
Submodules are enumerated without duplication through canonical triangular
matrices H over O_F/p^k whose pivots are powers of p.  A zero invariant adds
O_F/p^0 = 0 to L^v/L, so the unimodular part splits off: its rows and columns
of H are the identity, and the search runs over the positive invariants only.
H is filled column by column, left to right, and each column bottom-up.
L' is integral iff its Gram matrix W = H^H D H, with D the diagonal Gram of
the dual basis scaled by p^(a_(r-1)), vanishes mod p^(a_(r-1)).  Because H is
upper triangular, W[j][m] for j <= m depends on columns j and m only, and
each condition that the rows set so far put on W is a congruence on the next
entry: linear in H[i][m] for j < m, and on the norm of H[i][m] for j = m.
So each entry is solved for, not tried: the containment and linear
congruences merge into one residue class, and the norm condition is met one
p-adic digit at a time, about p tests per digit (see `_entry_solutions` and
`_overlattice_search`).  The solutions are exact: the enumeration yields the
same set, in the same order, as lifting every submodule and testing its
integrality.

An overlattice's type is the number of positive invariants minus the rank
over the residue field F_(q^2) of their block of the Gram mod p.  Sibling
overlattices share all of that block but its last column, so the leading
block is eliminated once each time its last column is set, and each
overlattice pays one bordered rank update (`_leading_block`,
`_bordered_rank`).  The search streams the overlattices;
`overlattice_profiles` keeps only their (length, type) pairs, which is all
the density sums need.  Only the records of `integral_overlattices` and
`cyclic_overlattices` pay a full rank, read off arithmetic tables, for the
cyclicity of L'/L.
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

# budget of residues tested: the largest acceptance instance, diag(p^4, p^4, p)
# at q = 5, tests 86,963 (digit tests included; 260,278 when each digit tried
# all p^2 residues, 653,457 when every residue was tried), so the default
# leaves ample room
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


def _lift(x, e, k, p):
    """The h in [0, p^k)^2 with h = x mod p^e (x reduced mod p^e), in
    lexicographic order."""
    pk = p**k
    if e >= k:
        return [x] if x[0] < pk and x[1] < pk else []
    pe, n = p**e, p ** (k - e)
    return [(x[0] + pe * u, x[1] + pe * v) for u in range(n) for v in range(n)]


def _solve_linear(c, beta, T, p, eps):
    """The solutions h of c h = beta mod p^T, as (y, f): they are the h with
    h = y mod p^f, y reduced mod p^f; None if there are none.  With
    c = p^v c' and c' a unit, h = (beta / p^v) conj(c') / N(c') mod p^(T - v)."""
    cx, cy = c
    bx, by = beta
    v, pv = 0, 1
    while v < T and cx % p == 0 and cy % p == 0:
        if bx % p or by % p:
            return None
        cx, cy, bx, by = cx // p, cy // p, bx // p, by // p
        v, pv = v + 1, pv * p
    if v == T:
        return (0, 0), 0
    pf = p ** (T - v)
    ninv = pow((cx * cx - eps * cy * cy) % pf, -1, pf)
    return ((bx * cx - eps * by * cy) * ninv % pf, (by * cx - bx * cy) * ninv % pf), T - v


@functools.cache
def _norm_roots(p, eps, t):
    """The u in [0, p)^2 with N(u) = ux^2 - eps uy^2 = t mod p, in
    lexicographic order: p + 1 of them for a unit t, and only 0 for t = 0,
    since eps is not a square mod p."""
    sqrt = [[] for _ in range(p)]
    for y in range(p):
        sqrt[y * y % p].append(y)
    einv = pow(eps, -1, p)
    return tuple((ux, uy) for ux in range(p) for uy in sqrt[(ux * ux - t) * einv % p])


def _entry_solutions(k, x, e, conds, t, T, p, eps, counter):
    """The h in [0, p^k)^2 with h = x mod p^e, c h = beta mod p^T for each
    (c, beta) in `conds`, and N(h) = t mod p^T, in lexicographic order.

    The linear congruences merge with h = x mod p^e into one residue class
    h = x mod p^E.  N(h) mod p^d reads only the p-adic digits of h below d, so
    h is then built one digit at a time from digit E, keeping the partial
    solutions whose norm is right mod p^(d+1), and the complete h mod p^T; the
    digits from T on are free.  No step tries all p^2 digits: digit 0 is read
    off a table of the roots of N(u) = t mod p; past it the condition is
    linear in the digit of a unit h, with p solutions, and reads no digit of
    an h = 0 mod p, one test for all p^2.  The candidates for the last digit
    of h are then checked mod p^T when that reaches past p^(d+1).  Each
    candidate and each test adds one to `counter[0]`; the complete solutions
    the walk returns are counted by the caller."""
    for c, beta in conds:
        sol = _solve_linear(c, beta, T, p, eps)
        if sol is None:
            return []
        y, f = sol
        # two classes h = x mod p^e and h = y mod p^f meet iff they agree mod p^min(e, f)
        pmin = p ** min(e, f)
        if (x[0] - y[0]) % pmin or (x[1] - y[1]) % pmin:
            return []
        if f > e:
            x, e = y, f
    pT = p**T
    if e >= k:
        return [h for h in _lift(x, e, k, p) if (h[0] * h[0] - eps * h[1] * h[1] - t) % pT == 0]
    if e:
        counter[0] += 1
        if (x[0] * x[0] - eps * x[1] * x[1] - t) % p ** min(e, T):
            return []
    partial, d = [x], e
    while d < k and d < T:
        pd, p1 = p**d, p ** (d + 1)
        # the complete h (d + 1 = k) is checked mod p^T
        pm = p1 if d + 1 < k else pT
        nxt = []
        for hx, hy in partial:
            if d == 0:
                # no digit is set yet (h = 0): the digit is a root of N(u) = t mod p
                cands = _norm_roots(p, eps, t % p)
                counter[0] += len(cands)
            else:
                # N(h + p^d u) = N(h) + p^d Tr(conj(h) u) mod p^(d+1), and
                # N(h) = t mod p^d already: the digit u must meet
                # Tr(conj(h) u) = 2 (hx ux - eps hy uy) = -delta mod p
                delta = (hx * hx - eps * hy * hy - t) // pd % p
                if hx % p:
                    # a unit h: the condition is linear in u, one ux per uy
                    f = pow(2 * hx, -1, p)
                    u0, du = -delta * f, 2 * eps * hy * f
                    cands = [(hx + pd * ((u0 + du * uy) % p), hy + pd * uy) for uy in range(p)]
                    counter[0] += p
                elif hy % p:
                    # hx = 0 mod p: the condition fixes uy and leaves ux free
                    ay = hy + pd * (delta * pow(2 * eps * hy, -1, p) % p)
                    cands = [(hx + pd * ux, ay) for ux in range(p)]
                    counter[0] += p
                else:
                    # h = 0 mod p: the condition reads no digit, so all p^2
                    # digits pass or none
                    counter[0] += 1
                    if delta:
                        continue
                    cands = [(hx + pd * ux, hy + pd * uy) for ux in range(p) for uy in range(p)]
            if pm > p1:
                # the last digit of h is checked mod p^T, past the linear term
                counter[0] += len(cands)
                cands = [(cx, cy) for cx, cy in cands if (cx * cx - eps * cy * cy - t) % pm == 0]
            nxt += cands
        partial, d = nxt, d + 1
    if d < k:
        pd, n = p**d, p ** (k - d)
        partial = [(hx + pd * u, hy + pd * v) for hx, hy in partial for u in range(n) for v in range(n)]
    partial.sort()
    return partial


def _submodules(a, p, eps, budget, counter, entry_ok=None, ksum_target=None, solve=None):
    """Yield (kvals, H, cvec) for all submodules of (+)_i O/p^(a_i).  The
    lists are live: the next step of the search overwrites them, so a caller
    copies what it keeps.

    H is upper triangular with H[i][i] = p^(k_i) and H[i][m] reduced mod
    p^(k_i) above the diagonal; its columns generate the submodule.  Leading
    zero invariants have k_i = 0 and entries reduced mod 1, so their rows and
    columns are set to the identity once and the search runs over the rest.
    H is filled column by column, left to right, and each column bottom-up:
    the pivot H[m][m], then H[m-1][m], ..., H[0][m], walking these slots in
    one loop with a stack of choice lists.  Containing p^(a_m) e_m is a
    condition on column m alone: the solve c = cvec[m] of H c = p^(a_m) e_m
    is supported on rows <= m, and its row-i equation
    p^(k_i) c_i = -(H[i][i+1] c_(i+1) + ... + H[i][m] c_m) is a congruence
    H[i][m] = x mod p^e whose other terms are already set.  So the set of H
    yielded is the canonical one, whatever the order of the entries.

    `solve(i, m, H, k_i, x, e)` may narrow that class to the sorted entries
    worth trying; by default every residue in it is tried.  `counter` is a
    single-cell list accumulating the residues tried (and any that `solve`
    tests), and `entry_ok(i, m, H)` may reject a branch right after H[i][m]
    is set (i = m for the pivot).  When `ksum_target` is set, only pivot
    vectors with that total are visited.
    """
    r = len(a)
    z = 0
    while z < r and a[z] == 0:
        z += 1
    H = [[(0, 0)] * r for _ in range(r)]
    kvals = [0] * r
    cvec = [[(0, 0)] * r for _ in range(r)]
    for l in range(z):
        H[l][l] = cvec[l][l] = (1, 0)
    slots = [(i, m) for m in range(z, r) for i in range(m, z - 1, -1)]
    last = len(slots) - 1
    if last < 0:
        yield kvals, H, cvec
        return
    suffix_max = [0] * (r + 1)
    for i in reversed(range(r)):
        suffix_max[i] = suffix_max[i + 1] + a[i]

    def options(pos):
        """The choices for slot `pos` and, off the diagonal, the (s_x, s_y, p^g,
        p^(k_i)) of its containment congruence s + H[i][m] p^g = 0 mod p^(k_i)."""
        i, m = slots[pos]
        if i == m:
            ks = range(a[m] + 1)
            if ksum_target is not None:
                # columns m+1.. can still contribute at most suffix_max[m + 1]
                done = sum(kvals[:m])
                ks = [k for k in ks if done + k <= ksum_target <= done + k + suffix_max[m + 1]]
            return ks, None
        c, Hi, ki = cvec[m], H[i], kvals[i]
        pk, g = p**ki, a[m] - kvals[m]
        pg = p**g
        sx = sy = 0
        for l in range(i + 1, m):
            (hx, hy), (cx, cy) = Hi[l], c[l]
            sx += hx * cx + eps * hy * cy
            sy += hx * cy + hy * cx
        if g >= ki:
            if sx % pk or sy % pk:
                return (), None
            x, e = (0, 0), 0
        else:
            if sx % pg or sy % pg:
                return (), None
            e = ki - g
            step = p**e
            x = (-(sx // pg) % step, -(sy // pg) % step)
        hs = _lift(x, e, ki, p) if solve is None else solve(i, m, H, ki, x, e)
        counter[0] += len(hs)
        if counter[0] > budget:
            raise BudgetExceeded(f"submodule enumeration exceeded budget {budget}")
        return hs, (sx, sy, pg, pk)

    choices, congruence = [None] * (last + 1), [None] * (last + 1)
    at = [0] * (last + 1)
    choices[0], congruence[0] = options(0)
    pos = 0
    while pos >= 0:
        opts, n = choices[pos], at[pos]
        if n == len(opts):
            pos -= 1
            continue
        at[pos] = n + 1
        i, m = slots[pos]
        if i == m:
            k = opts[n]
            kvals[m] = k
            H[m][m] = (p**k, 0)
            cvec[m][m] = (p ** (a[m] - k), 0)
        else:
            H[i][m] = h = opts[n]
        if entry_ok is not None and not entry_ok(i, m, H):
            continue
        if i < m:
            sx, sy, pg, pk = congruence[pos]
            cvec[m][i] = (-((sx + h[0] * pg) // pk), -((sy + h[1] * pg) // pk))
        if pos == last:
            yield kvals, H, cvec
            continue
        pos += 1
        choices[pos], congruence[pos] = options(pos)
        at[pos] = 0


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


def _leading_block(A, p, eps):
    """Gauss-Jordan elimination of a square matrix A of integer pairs over
    F_(q^2): (rho, pivots, E) with E invertible and E A reduced mod p in
    reduced row echelon form, rho = rank A, its row k < rho with a 1 in
    column pivots[k] and its rows from rho on zero."""
    n = len(A)
    M = [[(x % p, y % p) for x, y in row] + [(1, 0) if l == i else (0, 0) for l in range(n)] for i, row in enumerate(A)]
    pivots = []
    for c in range(n):
        rank = len(pivots)
        for piv in range(rank, n):
            if M[piv][c] != (0, 0):
                break
        else:
            continue
        M[piv], M[rank] = M[rank], M[piv]
        x, y = M[rank][c]
        ninv = pow((x * x - eps * y * y) % p, -1, p)
        pinv = (x * ninv % p, -y * ninv % p)
        prow = M[rank] = [(u % p, v % p) for u, v in (_pmul(pinv, w, eps) for w in M[rank])]
        for i in range(n):
            if i != rank and M[i][c] != (0, 0):
                f = M[i][c]
                M[i] = [((u[0] - w[0]) % p, (u[1] - w[1]) % p) for u, w in zip(M[i], (_pmul(f, v, eps) for v in prow))]
        pivots.append(c)
    return len(pivots), pivots, [row[n:] for row in M]


def _bordered_rank(lead, b, c, p, eps):
    """Rank over F_(q^2) of the hermitian matrix [[A, b], [b^H, c]], given
    `lead` = `_leading_block(A)` of its hermitian leading block A.

    With A y = b solvable (y supported on the pivot columns), subtracting A y
    from the last column and conj(y)^T times the rows of A from the last row
    leaves [[A, 0], [0, c - conj(y).b]]: rank rho + [c != conj(y).b].
    Otherwise a kernel vector v of A has conj(v).b != 0, and the rank is
    rho + 2.  E b decides it: b lies in im A iff its rows from rho on vanish,
    and then y[pivots[k]] = (E b)[k]."""
    rho, pivots, E = lead
    for row in E[rho:]:
        sx = sy = 0
        for (ex, ey), (bx, by) in zip(row, b):
            sx += ex * bx + eps * ey * by
            sy += ex * by + ey * bx
        if sx % p or sy % p:
            return rho + 2
    dx, dy = c
    for row, col in zip(E, pivots):
        yx = yy = 0
        for (ex, ey), (bx, by) in zip(row, b):
            yx += ex * bx + eps * ey * by
            yy += ex * by + ey * bx
        bx, by = b[col]
        # conj(y) b = (yx - yy t)(bx + by t)
        dx -= yx * bx - eps * yy * by
        dy -= yx * by - yy * bx
    return rho + (dx % p != 0 or dy % p != 0)


# ---------------------------------------------------------------------------
# lifting submodules to lattices


def _overlattice_search(L: EmbeddedLattice, budget, val_target=None):
    """Set up the search for the integral lattices L' with L <= L' <= L^v.

    Returns (search, build, dual_cols): `search` yields (length, type, H, cvec,
    Gram mod p) per overlattice, with H, cvec and the Gram live (overwritten
    by the next step, see `_submodules`), `build(H)` lifts H to the lattice,
    and dual_cols are the dual-basis columns H is written in.  Integrality is
    decided in modular integer arithmetic, val(z) >= c being decided exactly
    by z mod p^c: each entry of H is solved for from the congruences that the
    Gram conditions of the rows set so far put on it, and `entry_ok` checks
    the full conditions and accumulates W.  The unimodular part splits off:
    its block of H is the identity and its block of the Gram mod p the unit
    diagonal.  With `val_target` set, only overlattices of that valuation are
    enumerated.  The estimate gate refuses a search before it starts."""
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
    z = sum(1 for x in a_sorted if x == 0)
    p, eps = fld.p, fld.eps
    amax = a_sorted[-1] if a_sorted else 0
    mod = p ** (amax + 1)
    pam = p**amax
    # dual-basis columns f_i / p^(a_i); in these coordinates L = diag(p^(a_i)) O^r
    scales = [fld.ppow(-ai) for ai in a_sorted]
    dual_cols = [tuple(scales[i] * x for x in cols[i]) for i in range(r)]
    units = [diag.gram[order[i]][order[i]] * scales[i] for i in range(r)]
    # scaled diagonal V_l = p^(amax) * gdiag_l = p^(amax - a_l) * unit_l, mod
    # p^(amax+1); unit_l lies in Q_p, the diagonal of a hermitian form
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

    # W = H^H diag(V) H mod p^(amax+1), integral iff W == 0 mod p^amax.
    # W[j][m] (j <= m) depends on columns j and m only, and row l adds
    # conj(H[l][j]) V_l H[l][m], a multiple of p^(amax - a_l).  With a sorted,
    # the rows above i add multiples of depth[i] = p^(amax - a_(i-1)), so once
    # rows i..m of column m are set, rows i..j of every W[j][m] must vanish
    # mod depth[i]; at the first positive row z they are all of W[j][m], due
    # mod p^amax.  The zero rows add nothing to a positive column.
    depth = [pam] * (z + 1) + [p ** (amax - a_sorted[i - 1]) for i in range(z + 1, r)]
    # acc[m][i][j]: the rows i..j of W[j][m]
    acc = [[[(0, 0)] * r for _ in range(r)] for _ in range(r)]
    gmodp = [[(0, 0)] * r for _ in range(r)]
    # the leading block of the positive part, rows and columns z..r-2 of the
    # Gram mod p, eliminated (`_leading_block`) each time its last column is
    # set; empty when one invariant is positive
    lead = [(0, [], [])]
    for l in range(z):
        gmodp[l][l] = (vdiag[l][0] // pam, -(vdiag[l][1] // pam) % p)

    def entry_ok(i, m, H):
        va, vb = vdiag[i]
        hx, hy = H[i][m]
        ta = va * hx + eps * vb * hy  # V_i H[i][m]
        tb = va * hy + vb * hx
        row, below, pt = acc[m][i], acc[m][i + 1] if i < m else None, depth[i]
        # off the diagonal `solve` has met these conditions already; checking
        # them again costs little and keeps a wrong solution from passing
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
        if i == z:
            for j in range(z, m + 1):
                wa, wb = row[j]
                gmodp[j][m] = (wa // pam, wb // pam)
                gmodp[m][j] = (wa // pam, -(wb // pam) % p)
            if m == r - 2:
                # the leading block of the type rank is complete; every
                # overlattice below borders it with the last column
                lead[0] = _leading_block([row[z : r - 1] for row in gmodp[z : r - 1]], p, eps)
        return True

    # Row i (i < m) of column m must make conj(H[i][j]) V_i H[i][m] + below[j]
    # vanish mod depth[i] for j = i..m, below[j] being the rows i+1..j of
    # W[j][m], which vanish mod depth[i+1] = p^w, w = val(V_i), since row i+1
    # (or the pivot) was checked.  With V_i = p^w u_i and depth[i] = p^(w + T),
    # T = a_i - a_(i-1) (a_z for the first positive row), this is
    # conj(H[i][j]) h = -u_i^-1 below[j] / p^w mod p^T for j < m, linear in
    # h = H[i][m], and N(h) = -u_i^-1 below[m] / p^w mod p^T for j = m.  Inside
    # a block of equal invariants T = 0: no condition reads h.
    texp = [0] * z + [a_sorted[i] - (a_sorted[i - 1] if i > z else 0) for i in range(z, r)]
    pw = [p ** (amax - ai) for ai in a_sorted]
    uinv = [0] * z + [pow(vdiag[i][0] // pw[i], -1, p ** (a_sorted[i] + 1)) for i in range(z, r)]
    counter = [0]

    def solve(i, m, H, k, x, e):
        T = texp[i]
        if T == 0:
            return _lift(x, e, k, p)
        below, pwi, ui, pT = acc[m][i + 1], pw[i], uinv[i], p**T
        conds = [((p**k, 0), (0, 0))]
        for j in range(i + 1, m):
            gx, gy = H[i][j]
            bx, by = below[j]
            conds.append(((gx, -gy), (-(bx // pwi) * ui % pT, -(by // pwi) * ui % pT)))
        return _entry_solutions(k, x, e, conds, -(below[m][0] // pwi) * ui % pT, T, p, eps, counter)

    def search():
        total = sum(a_sorted)
        for kvals, H, cvec in _submodules(tuple(a_sorted), p, eps, budget, counter, entry_ok, ksum_target, solve):
            # type: the positive invariants, r - z, less the rank of their
            # block of the Gram mod p, the leading block bordered by column r-1
            rank = 0
            if r > z:
                rank = _bordered_rank(lead[0], [row[r - 1] for row in gmodp[z : r - 1]], gmodp[r - 1][r - 1], p, eps)
            yield total - sum(kvals), r - z - rank, H, cvec, gmodp

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
