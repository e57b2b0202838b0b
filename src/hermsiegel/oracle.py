"""Definition-level counting of hermitian matrix equations over O_F/p^N.

count_rep(M, L, N) is the number of m x n matrices A over O_F/p^N with
A^H Gram(M) A = Gram(L); den_oracle normalizes by q^(N n (2m - n)) and checks
stabilization.  This is the independent ground truth against which the
overlattice formula for Den(X, L) is validated.

The solution sets are far too large to visit element by element (they grow
like q^(N n (2m-n))), so the counts are aggregated exactly:

  * sphere counts (single column) depend on the target only through its
    valuation.  F/F0 is unramified, so the norm O_F^x -> Z_p^x is onto, and
    #{z : p^v u norm(z) = c mod p^N} is the same for every unit u and every c
    of one valuation.  Count tables are therefore (N+1)-vectors on the
    valuation classes V_0, ..., V_N of Z/p^N (V_N = {0}): the one-variable
    norm counts have a closed form, and the table of a sum of variables is a
    class convolution through the exact structure constants
    #{s in V_i : c - s in V_j};
  * a column of unit norm splits off: the remaining columns range over its
    orthogonal complement, whose Gram is computed exactly and whose isometry
    class does not depend on the chosen column (Witt cancellation over
    O_F/p^N, p odd);
  * two non-unit columns over a unimodular diagonal form are counted by
    stratifying the first column by its content s and norm, a complete orbit
    invariant for the unitary group of the form (Witt extension); scaling the
    column by a unit of O_F shows that each stratum's count depends on the
    norm only through its valuation, so one representative per valuation is
    evaluated.  A unit norm leaves a closed-form class count.  A non-unit
    norm tau0 spans, with an isotropic partner, a hyperbolic-like plane
    [[tau0, 1], [1, 0]]; in that basis the orthogonality condition is linear
    and the second column's norm is -tau0 norm(x) plus a uniform trace term,
    which again gives a closed-form class count (`_count_two_nonunit`).

Each of these reductions is an elementary change-of-variables bijection, the
surjectivity of the norm and trace, or a classical orbit statement about
finite chain rings; none of them uses the density identities under test.  All
reductions are cross-checked against the naive definitional enumeration
count_rep_naive at small precision in the test suite, and the non-unit
two-column class count against a residue-table count,
`_pair_classes_tables`, that only the tests call.  The counts are exact
integers throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceeded, HermSiegelError, PreconditionViolated, UnsupportedShape
from .lattice import EmbeddedLattice
from .ring import Field, norm_solve, reduce as reduce_mod

DEFAULT_NODE_BUDGET = 10**9


@dataclass(frozen=True)
class RepCount:
    N: int
    count: int
    normalized: Fraction
    stabilized: bool


# ---------------------------------------------------------------------------
# residues of diagonal Gram entries


def _diag_residues(L: EmbeddedLattice, N: int):
    """Diagonal Gram values of an orthogonalized lattice, as residues mod p^N,
    plus their exact valuations."""
    diag = L.orthogonal_basis()
    fld = L.field
    out = []
    for i in range(diag.rank):
        d = diag.gram[i][i]
        v = int(d.valuation())
        if v < 0:
            raise PreconditionViolated("oracle requires integral lattices")
        unit = d * fld.ppow(-v)
        r = reduce_mod(unit, N)
        if r.b != 0:
            raise HermSiegelError("diagonal Gram entry is not in F0")
        out.append((min(v, N), r.a))
    return out


# ---------------------------------------------------------------------------
# count tables on valuation classes
#
# A class vector f of length N + 1 is a function on Z/p^N that is constant on
# each V_k = {c : val(c) = k} (V_N = {0}); f[k] is its value at one element.
# The residue size q of F0 equals p.


def _val_class(c: int, p: int, N: int) -> int:
    """Index k of the class V_k of Z/p^N containing c."""
    c %= p**N
    if c == 0:
        return N
    k = 0
    while c % p == 0:
        c //= p
        k += 1
    return k


def _norm_classes(p: int, N: int):
    """#{z in O/p^N : norm(z) = c}: (q + 1) q^(N - 1) for a unit multiple of
    an even power p^k, k < N, none at odd k, and q^(2 floor(N/2)) at c = 0
    (then val(z) >= ceil(N/2))."""
    out = [(p + 1) * p ** (N - 1) if k % 2 == 0 else 0 for k in range(N)]
    out.append(p ** (2 * (N // 2)))
    return out


def _scaled_norm_classes(p: int, N: int, v: int):
    """#{z in O/p^N : p^v u norm(z) = c} for any unit u, v <= N: zero below
    V_v, then the counts at precision N - v, each solution mod p^(N - v)
    lifting to q^(2v) residues mod p^N."""
    return [0] * v + [p ** (2 * v) * x for x in _norm_classes(p, N - v)]


@lru_cache(maxsize=None)
def _class_structure(p: int, N: int):
    """C[k] = {(i, j): #{s in V_i : c - s in V_j}} for any c in V_k, nonzero
    entries only.  For i != k the ultrametric inequality forces
    val(c - s) = min(i, k); for i = k < N, c - s runs over every class above
    k once and the rest of V_k falls back into V_k."""
    size = [(p - 1) * p ** (N - 1 - k) for k in range(N)] + [1]
    C = []
    for k in range(N + 1):
        entries = {(i, min(i, k)): size[i] for i in range(N + 1) if i != k}
        if k < N:
            entries.update({(k, j): size[j] for j in range(k + 1, N + 1)})
            entries[(k, k)] = size[k] - p ** (N - 1 - k)
        else:
            entries[(N, N)] = 1
        C.append(entries)
    return C


def _class_conv_at(f, g, C, k: int) -> int:
    """(f * g)(c) = sum_s f(s) g(c - s) for c in V_k."""
    return sum(f[i] * g[j] * n for (i, j), n in C[k].items() if f[i] and g[j])


_norm_cache: dict = {}


def _sphere_classes(p: int, N: int, vals: tuple):
    """Class vector of #{z in (O/p^N)^m : sum_k p^(v_k) u_k norm(z_k) = c}
    for the sorted valuations vals = (v_1, ..., v_m), v_k <= N; by
    surjectivity of the norm it does not depend on the units u_k."""
    key = (p, N, vals)
    hit = _norm_cache.get(key)
    if hit is None:
        if vals:
            head = _sphere_classes(p, N, vals[:-1])
            tail = _scaled_norm_classes(p, N, vals[-1])
            C = _class_structure(p, N)
            hit = [_class_conv_at(head, tail, C, k) for k in range(N + 1)]
        else:
            hit = [0] * N + [1]
        _norm_cache[key] = hit
    return hit


def _class_vals(dvals, N: int) -> tuple:
    return tuple(sorted(min(v, N) for v, _ in dvals))


def _sphere_count(fld: Field, N: int, dvals, target: int) -> int:
    """#{z in (O/p^N)^m : sum_k d_k norm(z_k) = target mod p^N}."""
    if N == 0:
        return 1
    return _sphere_classes(fld.p, N, _class_vals(dvals, N))[_val_class(target, fld.p, N)]


def _sphere_prim_count(fld: Field, N: int, dvals, target: int) -> int:
    """Spheres restricted to primitive vectors (not divisible by p)."""
    if N <= 0:
        raise HermSiegelError("primitive spheres need N >= 1")
    m = len(dvals)
    p = fld.p
    total = _sphere_count(fld, N, dvals, target)
    # non-primitive a = p a' contribute p^2 (a', a'); their count at precision
    # N reduces to a sphere at precision N - 2 with a free top digit
    if N == 1:
        return total - (1 if target % p == 0 else 0)
    if target % (p * p):
        return total
    if N == 2:
        return total - p ** (2 * m)
    return total - p ** (2 * m) * _sphere_count(fld, N - 2, dvals, (target // (p * p)) % p ** (N - 2))


def _coset_norm_classes(p: int, N: int, s: int):
    """#{b in p^(N-s) O / p^N : u norm(b) = c} for any unit u.  With
    b = p^(N-s) w, w in O/p^s, u norm(b) = p^v u norm(w) for v = 2(N - s);
    the condition fixes norm(w) mod p^(N - v), and each solution mod
    p^(N - v) lifts to q^(2(s - N + v)) = q^v residues mod p^s."""
    v = 2 * (N - s)
    if v >= N:
        return [0] * N + [p ** (2 * s)]
    return [0] * v + [p**v * x for x in _norm_classes(p, N - v)]


# ---------------------------------------------------------------------------
# structured counting


def _count_unit_peel(fld: Field, mdiag, ldiag, N: int, budget) -> int:
    """First L-column has a unit norm target c1: the column's solutions form
    the sphere of norm c1, and for a diagonal-aligned representative z e_i
    (D_i a unit) the remaining columns range over its orthogonal complement,
    which is exactly the other diagonal slots.  Witt cancellation over O/p^N
    makes the complement class independent of the chosen solution."""
    v0, u0 = ldiag[0]
    assert v0 == 0
    sphere = _sphere_count(fld, N, mdiag, u0)
    if sphere == 0:
        return 0
    if len(ldiag) == 1:
        return sphere
    unit_slot = next((i for i, (v, _) in enumerate(mdiag) if v == 0), None)
    if unit_slot is None:
        # every norm in this form has positive valuation; the sphere of a unit
        # target would have been empty
        return 0
    rest = mdiag[:unit_slot] + mdiag[unit_slot + 1 :]
    return sphere * _count_structured(fld, rest, ldiag[1:], N, budget)


def _two_nonunit_strata(p: int, N: int, c1: int):
    """The strata of the first column a = p^s a0 with norm c1, as
    (s, {val class of tau0: (representative tau0, multiplicity)}) where tau0
    runs over the norms of a0 mod p^(N-s) compatible with
    p^(2s) tau0 = c1 mod p^N."""
    strata = []
    for s in range(N):
        Np = N - s
        if 2 * s >= N:
            if c1 != 0:
                continue
            taus = range(p**Np)
        else:
            if c1 % p ** (2 * s) != 0:
                continue
            gamma = (c1 // p ** (2 * s)) % p ** (N - 2 * s)
            taus = [(gamma + lift * p ** (N - 2 * s)) % p**Np for lift in range(p**s)]
        classes: dict = {}
        for tau0 in taus:
            k = _val_class(tau0, p, Np)
            rep, mult = classes.get(k, (tau0, 0))
            classes[k] = (rep, mult + 1)
        strata.append((s, classes))
    return strata


def _strata_walk(p: int, N: int, c1: int) -> int:
    """How many norm representatives `_two_nonunit_strata` visits: p^s lifts
    for each content s with 2s < N that p^(2s) divides c1, and, when c1 = 0,
    every norm mod p^(N-s) for each s with 2s >= N."""
    total = 0
    for s in range(N):
        if 2 * s >= N:
            total += p ** (N - s) if c1 == 0 else 0
        elif c1 % p ** (2 * s) == 0:
            total += p**s
    return total


def _count_two_nonunit(fld: Field, mdiag, ldiag, N: int, budget) -> int:
    """n = 2, both diagonal targets of positive valuation, M unimodular diagonal.

    The first column a is stratified by its content s (a = p^s a0, a0
    primitive) together with the norm tau0 of a0 mod p^(N-s); this pair is a
    complete orbit invariant for the unitary group of the standard form, so
    the count of second columns is evaluated once per stratum on an explicit
    representative supported in the first two coordinates.  Replacing a by
    lambda a for a unit lambda of O_F keeps the second columns orthogonal to
    it and multiplies tau0 by norm(lambda), any unit of Z_p: both the number
    of first columns and the count of second columns depend on tau0 only
    through its valuation.  The walk over the stratum representatives is
    sized before it starts, and the count is refused when it exceeds the
    budget.

    Second columns of a non-unit stratum, in closed form (`_pair_classes`).
    The representative a0 = (z, 1, 0, ...) is primitive, with
    (a0, a0) = tau0 in pZ_p, and lies in the unimodular plane P of the first
    two coordinates.  Because p is odd, P holds an f with (f, a0) = 1 and
    (f, f) = 0: take any f0 in P with (f0, a0) = 1, solve
    2 lam + tau0 lam^2 = -(f0, f0) in Z_p by Hensel (the derivative
    2 + 2 tau0 lam is a unit), and rescale f0 + lam a0 by the unit
    1 + lam tau0 of Z_p.  The Gram matrix of {a0, f} is [[tau0, 1], [1, 0]],
    of unit determinant, so {a0, f} is a basis of P.  Write the part of b in
    P as x a0 + y f.  Then (a0, b) = conj(x) tau0 + conj(y), so
    (a, b) in p^N O reads y = -tau0 x + p^(N-s) e with e in O/p^s, and
    (x, e) runs once over the pairs in P that satisfy it.  Its norm is
    -tau0 norm(x) + p^(N-s) Tr(x conj(e)).

    Take x of valuation v < N and put w = min(v, s).  Since the trace of O
    onto Z_p is onto, p^(N-s) Tr(x conj(e)) runs uniformly over
    p^(N-s+w) Z/p^N, each value p^(s+w) times, and the norms of the units
    mod p^(N-v) run uniformly over the unit classes.  With j = N - v,
    n_v = q^(2j) - q^(2j-2) such x, M = N - s + w and
    e_v = 2v + val(tau0 mod p^N), the class vector is

      D[k] = q^(2s) [k = N] + sum_{v<N} q^(s+w) c_v(k),

    where c_v(k) is n_v when e_v >= M and k >= M, is
    n_v / ((q - 1) q^(M-e_v-1)) when e_v < M and k = e_v, and is 0
    otherwise.  The first term is x = 0, which leaves every e.
    """
    p = fld.p
    pN = p**N
    mrank = len(mdiag)
    if any(v != 0 for v, _ in mdiag):
        raise UnsupportedShape("structured two-column count needs a unimodular ambient form")
    if mrank < 2:
        return 0
    (v1, u1), (v2, u2) = ldiag
    c1 = (pow(p, v1, pN) * u1) % pN if v1 < N else 0
    c2 = (pow(p, v2, pN) * u2) % pN if v2 < N else 0
    walk = _strata_walk(p, N, c1)
    if walk > budget:
        raise BudgetExceeded(f"two-column count walks {walk} stratum representatives, over the budget of {budget}")
    total = 0
    # stratum a = 0: the cross constraint is vacuous (L is diagonal), the
    # second column is a plain sphere
    if c1 == 0:
        total += _sphere_count(fld, N, mdiag, c2)
    for s, classes in _two_nonunit_strata(p, N, c1):
        Np = N - s
        mdiag_Np = [(v if v < Np else Np, u % p**Np) for v, u in mdiag]
        for tau0, mult in classes.values():
            R = _sphere_prim_count(fld, Np, mdiag_Np, tau0)
            if R == 0:
                continue
            total += mult * R * _inner_count(fld, N, s, tau0, mdiag, c2)
    return total


def _pair_classes(p: int, N: int, s: int, tau0: int):
    """Class vector of #{(b1, b2) in (O/p^N)^2 : (a0, b) in p^(N-s) O,
    (b, b) = c} over the first two coordinates, for a primitive a0 there of
    non-unit norm tau0; the closed form derived in `_count_two_nonunit`."""
    t = _val_class(tau0, p, N)
    D = [0] * N + [p ** (2 * s)]
    for v in range(N):
        j = N - v
        n_v = p ** (2 * j) - p ** (2 * j - 2)
        w = min(v, s)
        M = N - s + w
        e_v = 2 * v + t
        if e_v >= M:
            for k in range(M, N + 1):
                D[k] += p ** (s + w) * n_v
        else:
            D[e_v] += p ** (s + w) * n_v // ((p - 1) * p ** (M - e_v - 1))
    return D


def _pair_classes_tables(fld: Field, N: int, s: int, tau0: int, d1: int, d2: int):
    """`_pair_classes` on the form d1 N(b1) + d2 N(b2), counted residue by
    residue: a0 = (z, 1) with d1 norm(z) = tau0 - d2, and every (b1, b2) in
    int64 tables of p^(2N) cells.  The reference for the closed form; no
    library code calls it."""
    import numpy as np

    p = fld.p
    pN = p**N
    # z is solved past the precision N, then reduced
    K = N + 4
    pK = p**K
    t = (tau0 - d2) % pK
    if t % p == 0:
        raise HermSiegelError("stratum representative construction failed")
    z = norm_solve(fld.residue_ring(K), t * pow(d1, -1, pK) % pK)
    zr = reduce_mod(z.lift(), N)
    d1, d2 = d1 % pN, d2 % pN
    # u := d1 conj(z) b1 + d2 b2 must lie in p^(N-s) O; (b1, u) <-> (b1, b2)
    xs_all = np.arange(pN, dtype=np.int64)
    b1x = np.repeat(xs_all, pN)
    b1y = np.tile(xs_all, pN)
    norm_b1 = (d1 * (b1x * b1x - (fld.eps % pN) * b1y * b1y)) % pN
    ca = (d1 * zr.a) % pN
    cb = (-d1 * zr.b) % pN
    cb1x = (ca * b1x + fld.eps * cb * b1y) % pN
    cb1y = (ca * b1y + cb * b1x) % pN
    del b1x, b1y
    d2inv = pow(d2, -1, pN)
    T = np.zeros(pN, dtype=object)
    step = [p ** (N - s) * k for k in range(p**s)]
    for ux, uy in itertools.product(step, repeat=2):
        wx = ((ux - cb1x) * d2inv) % pN
        wy = ((uy - cb1y) * d2inv) % pN
        norm_b2 = (wx * wx - (fld.eps % pN) * wy * wy) % pN
        T += np.bincount((norm_b1 + d2 * norm_b2) % pN, minlength=pN).astype(object)
    # T is a class function: b -> lambda b keeps the linear condition
    return [int(T[pow(p, k, pN)]) for k in range(N + 1)]


def _inner_count(fld, N, s, tau0, mdiag, c2):
    """#{b : (a, b) = 0, (b, b) = c2} for the standard representative a =
    p^s a0 of the stratum with norm(a0) = tau0 mod p^(N-s).

    The linear condition confines the pinned coordinates of b to a p-power
    coset; the remaining coordinates contribute a norm-sum distribution.
    """
    p = fld.p
    C = _class_structure(p, N)
    k2 = _val_class(c2, p, N)
    if tau0 % p != 0:
        # pattern A: a0 = (z, 0, ...) with d1 norm(z) = tau0 (a unit)
        # condition on b: d1 conj(z) b1 in p^(N-s) O, i.e. b1 in p^(N-s) O
        rest = _sphere_classes(p, N, _class_vals(mdiag[1:], N))
        return _class_conv_at(_coset_norm_classes(p, N, s), rest, C, k2)
    # pattern B: a0 = (z, 1, 0, ...) with d1 norm(z) = tau0 - d2 (a unit)
    rest = _sphere_classes(p, N, _class_vals(mdiag[2:], N))
    return _class_conv_at(_pair_classes(p, N, s, tau0), rest, C, k2)


def _count_structured(fld: Field, mdiag, ldiag, N: int, budget) -> int:
    """Dispatch on the diagonalized shape of L."""
    if not ldiag:
        return 1
    if len(ldiag) > len(mdiag):
        return 0
    ldiag = sorted(ldiag, key=lambda t: t[0])
    if ldiag[0][0] == 0:
        return _count_unit_peel(fld, mdiag, ldiag, N, budget)
    if len(ldiag) == 1:
        v, u = ldiag[0]
        return _sphere_count(fld, N, mdiag, fld.p**v * u)
    if len(ldiag) == 2:
        return _count_two_nonunit(fld, mdiag, ldiag, N, budget)
    raise UnsupportedShape("structured oracle supports rank <= 2 after unit peeling")


def count_rep(M: EmbeddedLattice, L: EmbeddedLattice, N: int, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """#{A in (O_F/p^N)^(m x n) : A^H Gram(M) A = Gram(L)}.

    Both Grams are diagonalized first (an exact change of basis on either side
    permutes solutions bijectively).
    """
    if N < 1:
        raise PreconditionViolated("precision must be >= 1")
    if L.rank > M.rank:
        raise PreconditionViolated("cannot represent a lattice of larger rank")
    if not (M.is_integral() and L.is_integral()):
        raise PreconditionViolated("oracle requires integral lattices")
    mdiag = _diag_residues(M, N)
    ldiag = _diag_residues(L, N)
    return _count_structured(fld=M.field, mdiag=mdiag, ldiag=ldiag, N=N, budget=budget)


def count_rep_naive(M: EmbeddedLattice, L: EmbeddedLattice, N: int, budget: int = 10**8) -> int:
    """Definitional enumeration: scan columns with early constraint pruning.

    Exponential; used as ground truth for the structured count at small sizes.
    """
    fld = M.field
    pN = fld.p**N
    m, n = M.rank, L.rank
    gm = [[reduce_mod(M.gram[i][j], N) for j in range(m)] for i in range(m)]
    gl = [[reduce_mod(L.gram[i][j], N) for j in range(n)] for i in range(n)]
    ring = fld.residue_ring(N)
    elems = [ring.elem(x, y) for x in range(pN) for y in range(pN)]
    space_size = (pN * pN) ** m
    if space_size * max(1, n) > budget:
        raise BudgetExceeded(f"naive column scan needs {space_size} nodes per column")

    def herm(u, v):
        acc = ring.zero
        for i in range(m):
            for j in range(m):
                if gm[i][j].a or gm[i][j].b:
                    acc = acc + gm[i][j] * u[i] * v[j].conjugate()
        return acc

    def extend(cols, j):
        if j == n:
            return 1
        total = 0
        for cand in itertools.product(elems, repeat=m):
            ok = True
            for i in range(j):
                if herm(cols[i], cand) != gl[i][j]:
                    ok = False
                    break
            if ok and herm(cand, cand) == gl[j][j]:
                total += extend(cols + [cand], j + 1)
        return total

    return extend([], 0)


# ---------------------------------------------------------------------------
# normalized densities and stabilization


def _dim_exponent(m: int, n: int) -> int:
    return n * (2 * m - n)


def den_oracle(M: EmbeddedLattice, L: EmbeddedLattice, budget: int = DEFAULT_NODE_BUDGET) -> RepCount:
    """Normalized representation density with an explicit stabilization check
    at N0 = val(L) + 1 and N0 + 1."""
    q = L.field.q
    n, m = L.rank, M.rank
    N0 = max(1, L.val() + 1)
    # the finer precision first: a count over the budget there is refused
    # before the coarser one spends anything
    counts = {N: count_rep(M, L, N, budget) for N in (N0 + 1, N0)}
    vals = [Fraction(counts[N], q ** (N * _dim_exponent(m, n))) for N in (N0, N0 + 1)]
    return RepCount(N=N0 + 1, count=counts[N0 + 1], normalized=vals[1], stabilized=vals[0] == vals[1])


def cancellation_oracle_check(L: EmbeddedLattice, k: int, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Counting-level cancellation: representing L by <1>^(n-1+k) + <p> equals
    representing L + <p> by <1>^(n+1+k) divided by representing <p> there.

    The underlying count identity is exact at every precision N >= 2, so it is
    checked as exact integer identities at two precisions.
    """
    from .density import adjoin_uniformizer_line
    from .lattice import lattice_from_invariants

    fld = L.field
    n = L.rank
    M = lattice_from_invariants(fld, (0,) * (n - 1 + k) + (1,))
    Mt = lattice_from_invariants(fld, (0,) * (n + 1 + k))
    Lsharp = adjoin_uniformizer_line(L)
    ell = lattice_from_invariants(fld, (1,))
    ok = True
    for N in (max(2, L.val() + 1), max(2, L.val() + 1) + 1):
        lhs = count_rep(Mt, Lsharp, N, budget)
        rhs = count_rep(M, L, N, budget) * count_rep(Mt, ell, N, budget)
        ok = ok and lhs == rhs
    return ok
