"""Hermitian spaces and embedded lattices over O_F.

A lattice is carried as an n x r basis matrix inside an ambient hermitian
space; the hermitian form is (x, y) = sum_{k,l} G[k][l] * x_k * conj(y_l),
linear in the first argument.  Lattice identity is decided by a canonical
Hermite-type echelon basis over the valuation ring (pivots are powers of p,
residues reduced to canonical integer pairs), which is what makes all the
enumeration modules exact and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    DegenerateLattice,
    DegenerateSubspace,
    HermSiegelError,
    NotContained,
    UsageError,
)
from .ring import INF, FElem, Field, _canonical, field, norm_solve, reduce as reduce_mod, val_p

Matrix = tuple  # tuple of row tuples of FElem


# ---------------------------------------------------------------------------
# small exact matrix helpers


def mat(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mident(fld: Field, n: int) -> Matrix:
    return mat([[fld.one if i == j else fld.zero for j in range(n)] for i in range(n)])


def mmul(A: Matrix, B: Matrix) -> Matrix:
    """Exact product; zero factors are skipped (bases and Grams are sparse)."""
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    zero = A[0][0].field.zero

    def entry(i, j):
        terms = (A[i][l] * B[l][j] for l in range(k) if not (A[i][l].is_zero() or B[l][j].is_zero()))
        return sum(terms, start=zero)

    return mat([[entry(i, j) for j in range(m)] for i in range(n)])


def mconj(A: Matrix) -> Matrix:
    return mat([[x.conjugate() for x in row] for row in A])


def mT(A: Matrix) -> Matrix:
    return mat([[A[i][j] for i in range(len(A))] for j in range(len(A[0]))])


def mscale(c: FElem, A: Matrix) -> Matrix:
    return mat([[c * x for x in row] for row in A])


def mdet(A: Matrix) -> FElem:
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(A)
    fld = A[0][0].field
    M = [list(row) for row in A]
    det = fld.one
    for c in range(n):
        piv = None
        for r in range(c, n):
            if not M[r][c].is_zero():
                piv = r
                break
        if piv is None:
            return fld.zero
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c]
        inv = M[c][c].inverse()
        for r in range(c + 1, n):
            f = M[r][c] * inv
            if f.is_zero():
                continue
            for j in range(c, n):
                M[r][j] = M[r][j] - f * M[c][j]
    return det


def minv(A: Matrix) -> Matrix:
    n = len(A)
    fld = A[0][0].field
    M = [list(row) + list(irow) for row, irow in zip(A, mident(fld, n))]
    for c in range(n):
        piv = None
        for r in range(c, n):
            if not M[r][c].is_zero():
                piv = r
                break
        if piv is None:
            raise DegenerateLattice("singular matrix")
        M[c], M[piv] = M[piv], M[c]
        inv = M[c][c].inverse()
        M[c] = [x * inv for x in M[c]]
        for r in range(n):
            if r != c and not M[r][c].is_zero():
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return mat([row[n:] for row in M])


def rref(A: Matrix):
    """Reduced row echelon form over F; returns (R, pivot column list)."""
    if not A:
        return A, []
    M = [list(row) for row in A]
    n, m = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, n):
            if not M[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][c].inverse()
        M[r] = [x * inv for x in M[r]]
        for i in range(n):
            if i != r and not M[i][c].is_zero():
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return mat(M), pivots


def nullspace(A: Matrix) -> Matrix:
    """Columns spanning the kernel of A (over F); m x d for A n x m."""
    fld = A[0][0].field
    R, pivots = rref(A)
    m = len(A[0])
    free = [c for c in range(m) if c not in pivots]
    cols = []
    for fcol in free:
        v = [fld.zero] * m
        v[fcol] = fld.one
        for i, pcol in enumerate(pivots):
            v[pcol] = -R[i][fcol]
        cols.append(v)
    return mat([[cols[j][i] for j in range(len(cols))] for i in range(m)])


# ---------------------------------------------------------------------------
# hermitian spaces


@dataclass(frozen=True)
class HermSpace:
    """Nondegenerate hermitian space: field parameters, dimension, Gram matrix."""

    params: Field
    gram: Matrix

    def __post_init__(self):
        n = len(self.gram)
        for i in range(n):
            if len(self.gram[i]) != n:
                raise HermSiegelError("gram matrix must be square")
            for j in range(n):
                if self.gram[j][i] != self.gram[i][j].conjugate():
                    raise HermSiegelError("gram matrix is not hermitian")
        if mdet(self.gram).is_zero():
            raise DegenerateSubspace("degenerate hermitian space")

    @property
    def dim(self) -> int:
        return len(self.gram)

    @property
    def split_flag(self) -> bool:
        return mdet(self.gram).valuation() % 2 == 0

    def pair(self, x, y) -> FElem:
        """Hermitian pairing of coordinate vectors (linear in x)."""
        fld = self.params
        acc = fld.zero
        for k in range(self.dim):
            if x[k].is_zero():
                continue
            row = self.gram[k]
            for l in range(self.dim):
                if not y[l].is_zero():
                    acc = acc + row[l] * x[k] * y[l].conjugate()
        return acc

    def norm(self, x) -> FElem:
        return self.pair(x, x)

    def vector_val(self, x):
        """val(x) := val((x, x)), the paper-free normalization used throughout."""
        return self.norm(x).valuation()

    def scale_form(self, c: FElem) -> "HermSpace":
        if c.conjugate() != c:
            raise HermSiegelError("form scaling must come from F0")
        return HermSpace(self.params, mscale(c, self.gram))

    def __hash__(self):
        return hash((self.params, tuple(tuple((x.n, x.m, x.d) for x in row) for row in self.gram)))


def standard_space(kind: str, n: int, fld: Field) -> HermSpace:
    """The standard split (identity Gram) or nonsplit (diag(1,..,1,p)) space."""
    if n < 1:
        raise UsageError("dimension must be >= 1")
    g = [[fld.one if i == j else fld.zero for j in range(n)] for i in range(n)]
    if kind == "nonsplit":
        g[n - 1][n - 1] = fld.uniformizer
    elif kind != "split":
        raise UsageError(f"unknown space kind {kind!r}")
    return HermSpace(fld, mat(g))


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class Invariants:
    """Sorted fundamental invariants (a_1 <= ... <= a_r)."""

    seq: tuple

    def __post_init__(self):
        if tuple(sorted(self.seq)) != tuple(self.seq):
            raise HermSiegelError("invariants must be non-decreasing")

    @property
    def val(self) -> int:
        return sum(self.seq)

    @property
    def type_t(self) -> int:
        if self.seq and self.seq[0] < 0:
            raise HermSiegelError("type is defined only for integral lattices")
        return sum(1 for a in self.seq if a > 0)

    @property
    def e_max(self) -> int:
        return self.seq[-1]

    def __iter__(self):
        return iter(self.seq)

    def __len__(self):
        return len(self.seq)

    def __getitem__(self, i):
        return self.seq[i]


# ---------------------------------------------------------------------------
# canonical Hermite echelon form over O_F


# the largest precision K of the computations in O_F/p^K; past it the exact
# code decides
_K_CAP = 64


def _canonical_residue(x: FElem, k: int) -> FElem:
    """Canonical representative of x mod p^k with integer coordinates in [0, p^k)."""
    if k <= 0:
        return x.field.zero
    r = reduce_mod(x, k)
    return x.field.elem(r.a, r.b)


def hnf_columns(fld: Field, cols, n: int):
    """Canonical echelon basis of the O_F-module spanned by `cols` in F^n.

    Returns (pivot_rows, columns): pivot entry at row i_j of column j is an
    exact power of p, entries above each pivot vanish, entries of earlier
    columns in a pivot row are canonically reduced modulo the pivot.

    A module of full rank n is first put in echelon form in integer pairs
    mod p^K (`_hnf_mod`), which certifies its answer; the exact elimination
    (`_hnf_exact`) runs when it cannot, and for every module of lower rank.
    """
    cols = [list(c) for c in cols if any(not x.is_zero() for x in c)]
    if not cols:
        return [], []
    if len(cols) >= n:
        shift, ints = _cleared(fld.p, cols)
        out = _with_precision(lambda K: _hnf_mod(fld.p, fld.eps, _residues(fld.p, ints, K), n, K), fld.p, ints)
        if out is not None:
            d = fld.p**shift
            return list(range(n)), [[_canonical(fld, a, b, d) for a, b in c] for c in out]
    return _hnf_exact(fld, cols, n)


def _cleared(p: int, vectors):
    """(s, rows) with s >= 0 least such that p^s clears every denominator's
    power of p, and each entry x of p^s * vectors as an exact integer triple
    (n, m, d), x = (n + m t)/d, with d prime to p."""
    shift = 0
    split = []
    for vec in vectors:
        row = []
        for x in vec:
            d, e = x.d, 0
            while d % p == 0:
                d //= p
                e += 1
            shift = max(shift, e)
            row.append((x.n, x.m, d, e))
        split.append(row)
    return shift, [[(n * p ** (shift - e), m * p ** (shift - e), d) for n, m, d, e in row] for row in split]


def _residues(p: int, rows, K: int):
    """The triples of `_cleared` as pairs of residues mod p^K."""
    P = p**K
    out = []
    for row in rows:
        res = []
        for n, m, d in row:
            if d != 1:
                dinv = pow(d, -1, P)
                n, m = n * dinv, m * dinv
            res.append((n % P, m % P))
        out.append(res)
    return out


def _pair_val(p: int, a: int, b: int, cap: int) -> int:
    """min(v_p(a), v_p(b), cap) for integers a, b not both 0."""
    v = 0
    while v < cap and a % p == 0 and b % p == 0:
        a //= p
        b //= p
        v += 1
    return v


def _with_precision(attempt, p: int, rows):
    """attempt(K) at a K read off the entries (rows of `_cleared` triples),
    then, if it returns None, at twice it, both at most _K_CAP: the answer,
    or None.  A module or matrix of lower rank therefore costs at most two
    attempts before the exact code runs."""
    top = max(_pair_val(p, n, m, _K_CAP) for row in rows for n, m, _ in row if n or m)
    K = min(_K_CAP, len(rows[0]) * (top + 1) + 1)
    out = attempt(K)
    if out is None and K < _K_CAP:
        out = attempt(min(2 * K, _K_CAP))
    return out


def _hnf_mod(p: int, eps: int, cols, n: int, K: int):
    """`_hnf_exact`'s elimination on columns of integer pairs (x, y) = x + y t
    mod p^K: row by row, the least valuation pivots (first column on ties),
    the pivot scaled to p^v, rows below eliminated, earlier columns reduced
    to canonical residues.  Returns the n columns, or None when a row has
    no certified pivot.

    Dividing by a pivot p^v costs v digits: after pivots v_0..v_i the entries
    below are right mod p^(K - v_0 - ... - v_i).  A pivot is accepted only
    when its valuation is below the digits still right, so that its choice,
    and every residue reduced modulo it, are those of the exact elimination.
    n accepted pivots leave a lower-triangular basis in which each entry is
    a pivot, a zero or such a residue: the exact echelon form."""
    P = p**K
    active = [list(c) for c in cols]
    fixed = []
    prec = K
    for i in range(n):
        best, bestv = None, prec
        for idx, c in enumerate(active):
            a, b = c[i]
            if a or b:
                v = _pair_val(p, a, b, bestv)
                if v < bestv:
                    best, bestv = idx, v
        if best is None:
            return None
        prec -= bestv
        pv = p**bestv
        piv = active.pop(best)
        ua, ub = piv[i][0] // pv, piv[i][1] // pv
        ninv = pow((ua * ua - eps * ub * ub) % P, -1, P)
        ia, ib = ua * ninv % P, -ub * ninv % P
        for r in range(i + 1, n):
            x, y = piv[r]
            piv[r] = ((x * ia + eps * y * ib) % P, (x * ib + y * ia) % P)
        piv[i] = (pv, 0)
        for c in active:
            fa, fb = c[i]
            if fa or fb:
                fa, fb = fa // pv, fb // pv
                for r in range(i + 1, n):
                    x, y = piv[r]
                    a, b = c[r]
                    c[r] = ((a - fa * x - eps * fb * y) % P, (b - fa * y - fb * x) % P)
                c[i] = (0, 0)
        for c in fixed:
            a, b = c[i]
            za, zb = a // pv, b // pv
            if za or zb:
                for r in range(i + 1, n):
                    x, y = piv[r]
                    ca, cb = c[r]
                    c[r] = ((ca - za * x - eps * zb * y) % P, (cb - za * y - zb * x) % P)
                c[i] = (a % pv, b % pv)
        fixed.append(piv)
    return fixed


def _smith_mod(p: int, eps: int, M, K: int):
    """Elementary-divisor exponents, non-decreasing, of the square matrix M
    of integer pairs mod p^K, or None when a block left is zero mod p^K.

    The entry of least valuation divides every other, so clearing its row
    and column by invertible operations over O_F/p^K leaves the exponent of
    its valuation and the Smith form of the block left.  Over O_F/p^K the
    exponents are min(e, K) for the exponents e over O_F, so exponents below
    K are exact."""
    P = p**K
    M = [list(row) for row in M]
    exps = []
    while M:
        bi, bj, bv = None, None, K
        for i, row in enumerate(M):
            for j, (a, b) in enumerate(row):
                if a or b:
                    v = _pair_val(p, a, b, bv)
                    if v < bv:
                        bi, bj, bv = i, j, v
        if bi is None:
            return None
        pv = p**bv
        prow = M.pop(bi)
        ua, ub = prow[bj][0] // pv, prow[bj][1] // pv
        ninv = pow((ua * ua - eps * ub * ub) % P, -1, P)
        rest = prow[:bj] + prow[bj + 1 :]
        for row in M:
            a, b = row.pop(bj)
            if a or b:
                # f = row[bj] / prow[bj] = (a + b t)/p^v * conj(u) / N(u)
                a, b = a // pv, b // pv
                fa, fb = (a * ua - eps * b * ub) * ninv % P, (b * ua - a * ub) * ninv % P
                for j, (x, y) in enumerate(rest):
                    ra, rb = row[j]
                    row[j] = ((ra - fa * x - eps * fb * y) % P, (rb - fa * y - fb * x) % P)
        exps.append(bv)
    return exps


def _gram_exponents(fld: Field, G: Matrix):
    """The invariants of a lattice with Gram matrix G, as the elementary
    divisor exponents of G computed mod p^K; None when the precision runs out
    (always for a singular G).

    Over the unramified F/F0 with p odd every lattice has an orthogonal
    basis: G = U D conj(U)^T with U in GL_r(O_F) and D diagonal, so the
    elementary divisors of G are those of D, the valuations of its entries.
    A diagonal G is such a D already."""
    r = len(G)
    if all(G[i][j].is_zero() for i in range(r) for j in range(r) if i != j):
        vals = sorted(G[i][i].valuation() for i in range(r))
        return None if vals[-1] == INF else [int(v) for v in vals]
    shift, ints = _cleared(fld.p, G)
    exps = _with_precision(lambda K: _smith_mod(fld.p, fld.eps, _residues(fld.p, ints, K), K), fld.p, ints)
    return None if exps is None else [e - shift for e in exps]


def _hnf_exact(fld: Field, cols, n: int):
    """The echelon form of `hnf_columns` in exact field arithmetic, for
    non-zero columns: the path of modules of lower rank, and the reference of
    `_hnf_mod`."""
    shift = 0
    mv = min(min(x.valuation() for x in c) for c in cols)
    if mv < 0:
        shift = -int(mv)
        scale = fld.ppow(shift)
        cols = [[scale * x for x in c] for c in cols]
    fixed = []  # list of (pivot_row, pivot_val, column)
    active = cols
    for i in range(n):
        if not active:
            break
        best, bestv = None, INF
        for idx, c in enumerate(active):
            v = c[i].valuation()
            if v < bestv:
                best, bestv = idx, v
        if bestv == INF:
            continue
        piv = active.pop(best)
        pw = fld.ppow(int(bestv))
        uinv = (piv[i] / pw).inverse()
        piv = [uinv * x for x in piv]
        for c in active:
            if c[i].is_zero():
                continue
            f = c[i] / pw
            for r in range(i, n):
                c[r] = c[r] - f * piv[r]
        for _, pv, c in fixed:
            res = _canonical_residue(c[i], int(bestv))
            z = (c[i] - res) / pw
            if not z.is_zero():
                for r in range(i, n):
                    c[r] = c[r] - z * piv[r]
        fixed.append((i, bestv, piv))
    if shift:
        inv = fld.ppow(-shift)
        fixed = [(i, v, [inv * x for x in c]) for i, v, c in fixed]
    return [f[0] for f in fixed], [f[2] for f in fixed]


# ---------------------------------------------------------------------------
# embedded lattices


class EmbeddedLattice:
    """An O_F-lattice given by an n x r basis matrix inside a hermitian space."""

    __slots__ = ("space", "basis", "_cache")

    def __init__(self, space: HermSpace, basis: Matrix, _check: bool = True):
        self.space = space
        self.basis = mat(basis)
        self._cache = {}
        if _check and self.rank:
            R, piv = rref(mT(self.basis))
            if len(piv) != self.rank:
                raise DegenerateLattice("basis columns are F-linearly dependent")

    @property
    def field(self) -> Field:
        return self.space.params

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    @property
    def gram(self) -> Matrix:
        g = self._cache.get("gram")
        if g is None:
            g = mmul(mT(self.basis), mmul(self.space.gram, mconj(self.basis)))
            self._cache["gram"] = g
        return g

    # -- canonical form -----------------------------------------------------

    def hnf(self) -> "EmbeddedLattice":
        h = self._cache.get("hnf")
        if h is None:
            rows, cols = hnf_columns(self.field, [self.column(j) for j in range(self.rank)], self.dim)
            if len(cols) != self.rank:
                raise DegenerateLattice("basis columns are F-linearly dependent")
            h = EmbeddedLattice(self.space, mat([[cols[j][i] for j in range(len(cols))] for i in range(self.dim)]), _check=False)
            h._cache["hnf"] = h
            self._cache["hnf"] = h
        return h

    def key(self):
        k = self._cache.get("key")
        if k is None:
            h = self.hnf()
            k = tuple(tuple((x.n, x.m, x.d) for x in row) for row in h.basis)
            self._cache["key"] = k
        return k

    def __eq__(self, other):
        if not isinstance(other, EmbeddedLattice):
            return NotImplemented
        return self.space == other.space and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"EmbeddedLattice(rank {self.rank} in dim {self.dim}, inv {tuple(self.invariants())})"

    # -- basic data ----------------------------------------------------------

    def column(self, j: int):
        return tuple(self.basis[i][j] for i in range(self.dim))

    def columns(self):
        return [self.column(j) for j in range(self.rank)]

    def invariants(self) -> Invariants:
        """The elementary divisor exponents of the Gram matrix (or those of
        an orthogonal basis already computed); `_orthogonalize` decides when
        the precision runs out, and raises DegenerateLattice for a singular
        Gram matrix."""
        inv = self._cache.get("inv")
        if inv is None:
            ortho = self._cache.get("ortho")
            seq = ortho[1] if ortho is not None else _gram_exponents(self.field, self.gram)
            if seq is None:
                seq = self._orthogonalize()[1]
            inv = Invariants(tuple(seq))
            self._cache["inv"] = inv
        return inv

    def _orthogonalize(self):
        """Orthogonal basis certificate: (U, vals, D) with gram(B*U) = D
        diagonal and val(D_ii) = vals_i non-decreasing.  Greedy
        minimal-valuation pivoting; an off-diagonal minimum is moved onto the
        diagonal by e_i += u*e_j with u in {1, t}, which works because p is
        odd."""
        cached = self._cache.get("ortho")
        if cached is not None:
            return cached
        fld = self.field
        r = self.rank
        G = [list(row) for row in self.gram]
        U = [list(row) for row in mident(fld, r)]

        def add_col(dst, src, coef):
            # e_dst += coef * e_src, updating U and G
            for i in range(r):
                U[i][dst] = U[i][dst] + coef * U[i][src]
            for l in range(r):
                G[dst][l] = G[dst][l] + coef * G[src][l]
            cc = coef.conjugate()
            for l in range(r):
                G[l][dst] = G[l][dst] + cc * G[l][src]

        def swap_cols(i, j):
            for k in range(r):
                U[k][i], U[k][j] = U[k][j], U[k][i]
            G[i], G[j] = G[j], G[i]
            for k in range(r):
                G[k][i], G[k][j] = G[k][j], G[k][i]

        vals = []
        for step in range(r):
            bi = bj = None
            bv = INF
            for i in range(step, r):
                for j in range(step, r):
                    v = G[i][j].valuation()
                    if v < bv or (v == bv and bi is not None and i == j and bi != bj):
                        bi, bj, bv = i, j, v
            if bv == INF:
                raise DegenerateLattice("gram matrix is singular")
            if bi != bj:
                g = G[bi][bj]
                u = fld.one if val_p(g.n, fld.p) <= val_p(g.m, fld.p) else fld.t
                add_col(bi, bj, u)
                assert G[bi][bi].valuation() == bv
            if bi != step:
                swap_cols(bi, step)
            piv = G[step][step]
            pinv = piv.inverse()
            for l in range(step + 1, r):
                if not G[l][step].is_zero():
                    add_col(l, step, -(G[l][step] * pinv))
            vals.append(int(piv.valuation()))
        # the column operations kept G equal to gram(B*U) exactly
        result = (mat(U), vals, mat(G))
        self._cache["ortho"] = result
        return result

    def orthogonal_basis(self) -> "EmbeddedLattice":
        """Same lattice, re-based so that the Gram matrix is diagonal."""
        d = self._cache.get("orthobasis")
        if d is None:
            U, _, D = self._orthogonalize()
            d = EmbeddedLattice(self.space, mmul(self.basis, U), _check=False)
            d._cache["gram"] = D
            self._cache["orthobasis"] = d
        return d

    def val(self) -> int:
        return self.invariants().val

    def type_t(self) -> int:
        return self.invariants().type_t

    def vol(self) -> Fraction:
        return Fraction(self.field.q) ** (-self.val())

    def is_integral(self) -> bool:
        return all(x.valuation() >= 0 for row in self.gram for x in row)

    def is_vertex(self, t: int | None = None) -> bool:
        seq = self.invariants().seq
        ok = all(a in (0, 1) for a in seq)
        if t is None:
            return ok
        return ok and sum(seq) == t

    # -- duality and membership ----------------------------------------------

    def dual(self) -> "EmbeddedLattice":
        """Dual lattice within the F-span of this lattice."""
        d = self._cache.get("dual")
        if d is None:
            d = EmbeddedLattice(self.space, mmul(self.basis, minv(mconj(self.gram))), _check=False)
            d._cache["dual"] = self  # the dual of the dual is this lattice
            self._cache["dual"] = d
        return d

    def coords(self, x):
        """Solve basis * c = x over F; None if x is outside the span."""
        fld = self.field
        if self.rank == self.dim:
            binv = self._cache.get("binv")
            if binv is None:
                binv = minv(self.basis)
                self._cache["binv"] = binv
            return tuple(
                sum((binv[i][k] * x[k] for k in range(self.dim) if not x[k].is_zero()), start=fld.zero)
                for i in range(self.dim)
            )
        aug = mat([list(self.basis[i]) + [x[i]] for i in range(self.dim)])
        R, piv = rref(aug)
        r = self.rank
        if r in piv:
            return None
        c = [fld.zero] * r
        for i, pcol in enumerate(piv):
            c[pcol] = R[i][r]
        return tuple(c)

    def contains(self, x) -> bool:
        c = self.coords(x)
        return c is not None and all(y.valuation() >= 0 for y in c)

    def contains_lattice(self, other: "EmbeddedLattice") -> bool:
        return all(self.contains(other.column(j)) for j in range(other.rank))


# ---------------------------------------------------------------------------
# sums, intersections, hyperplane sections


def _require_same_space(L1: EmbeddedLattice, L2: EmbeddedLattice):
    if L1.space != L2.space:
        raise AmbientMismatch("lattices live in different ambient spaces")


def from_generators(space: HermSpace, cols) -> EmbeddedLattice:
    rows, out = hnf_columns(space.params, cols, space.dim)
    return EmbeddedLattice(space, mat([[out[j][i] for j in range(len(out))] for i in range(space.dim)]), _check=False)


def sum_lattices(L1: EmbeddedLattice, L2: EmbeddedLattice) -> EmbeddedLattice:
    _require_same_space(L1, L2)
    return from_generators(L1.space, L1.columns() + L2.columns())


def intersect_lattices(L1: EmbeddedLattice, L2: EmbeddedLattice) -> EmbeddedLattice:
    """Intersection via duality: (L1 cap L2) = (L1^v + L2^v)^v for full-rank lattices."""
    _require_same_space(L1, L2)
    if L1.rank != L1.dim or L2.rank != L2.dim:
        raise HermSiegelError("intersection requires full-rank lattices")
    return sum_lattices(L1.dual(), L2.dual()).dual().hnf()


def preimage_lattice(A: Matrix) -> Matrix:
    """Basis W (d x d) of {f in F^d : A f in O_F^m}, A of full column rank d."""
    fld = A[0][0].field
    d = len(A[0])
    rows = [tuple(A[i][j] for j in range(d)) for i in range(len(A))]
    _, basis_cols = hnf_columns(fld, rows, d)
    if len(basis_cols) != d:
        raise DegenerateLattice("rows do not span")
    G = mat([[basis_cols[j][i] for j in range(d)] for i in range(d)])
    return minv(mT(G))


def left_annihilator(space: HermSpace, cols) -> Matrix:
    """Rows spanning {v : v . c = 0 for all given columns c} (plain bilinear)."""
    A = mat([[c[i] for c in cols] for i in range(space.dim)])
    K = nullspace(mT(A))
    return mT(K)


def intersect_with_hyperplane(Lp: EmbeddedLattice, H_cols) -> EmbeddedLattice:
    """The lattice Lp cap span_F(H_cols); requires the subspace nondegenerate."""
    space = Lp.space
    h = len(H_cols)
    gram_h = mat([[space.pair(c1, c2) for c2 in H_cols] for c1 in H_cols])
    if mdet(gram_h).is_zero():
        raise DegenerateSubspace("hyperplane section of a degenerate subspace")
    Q = left_annihilator(space, H_cols)
    if not Q:
        return Lp.hnf()
    M = mmul(Q, Lp.basis)
    K = nullspace(M)
    if not K or not K[0]:
        raise DegenerateLattice("empty hyperplane section")
    W = preimage_lattice(K)
    basis = mmul(Lp.basis, mmul(K, W))
    return EmbeddedLattice(space, basis).hnf()


def quotient_divisors(L_sub: EmbeddedLattice, L_sup: EmbeddedLattice):
    """Elementary divisor exponents of L_sup / L_sub (same rank, nested).

    Computed from minimal minor valuations of the transition matrix; returns a
    non-increasing tuple (d_1 >= d_2 >= ... >= 0).
    """
    _require_same_space(L_sub, L_sup)
    if L_sub.rank != L_sup.rank:
        raise NotContained("ranks differ")
    coords = [L_sup.coords(L_sub.column(j)) for j in range(L_sub.rank)]
    if any(c is None for c in coords):
        raise NotContained("sublattice is not inside the overlattice's span")
    T = mat([[coords[j][i] for j in range(len(coords))] for i in range(L_sup.rank)])
    if any(x.valuation() < 0 for row in T for x in row):
        raise NotContained("not a sublattice")
    r = len(T)
    from itertools import combinations

    mins = [0]
    for k in range(1, r + 1):
        best = INF
        for rs in combinations(range(r), k):
            for cs in combinations(range(r), k):
                sub = mat([[T[i][j] for j in cs] for i in rs])
                v = mdet(sub).valuation()
                if v < best:
                    best = v
        mins.append(int(best) if best != INF else None)
        if mins[-1] is None:
            raise NotContained("degenerate transition matrix")
    divs = [mins[k] - mins[k - 1] for k in range(1, r + 1)]
    return tuple(sorted(divs, reverse=True))


def coset_representatives(L_sup: EmbeddedLattice, L_sub: EmbeddedLattice, cap: int | None = None):
    """Vectors representing L_sup / L_sub (nested full-rank-in-common-span pair)."""
    _require_same_space(L_sup, L_sub)
    fld = L_sup.field
    sup = L_sup.hnf()
    coords = [sup.coords(L_sub.column(j)) for j in range(L_sub.rank)]
    if any(c is None for c in coords):
        raise NotContained("sublattice outside span")
    T = mat([[coords[j][i] for j in range(len(coords))] for i in range(sup.rank)])
    rows, cols = hnf_columns(fld, [tuple(T[i][j] for i in range(len(T))) for j in range(len(T[0]))], len(T))
    if len(cols) != len(T):
        raise NotContained("sublattice has smaller rank")
    kvals = [int(cols[idx][row].valuation()) for idx, row in enumerate(rows)]
    total = fld.q ** (2 * sum(kvals))
    if cap is not None and total > cap:
        raise BudgetExceeded(f"{total} cosets exceed cap {cap}")
    residue_sets = []
    for k in kvals:
        m = fld.p**k
        residue_sets.append([fld.elem(a, b) for a in range(m) for b in range(m)])
    B = sup.basis
    reps = []
    for combo in product(*residue_sets):
        vec = [fld.zero] * sup.dim
        for idx, row in enumerate(rows):
            c = combo[idx]
            if c.is_zero():
                continue
            for i in range(sup.dim):
                vec[i] = vec[i] + c * B[i][row]
        reps.append(tuple(vec))
    return reps


# ---------------------------------------------------------------------------
# construction helpers


def orthogonal_complement_in(space: HermSpace, cols) -> Matrix:
    """Columns spanning {y : (y, c) = 0 for all given c} in ambient coordinates."""
    if not cols:
        return mident(space.params, space.dim)
    A = mat([[sum((space.gram[k][l] * cols[j][l].conjugate() for l in range(space.dim)), start=space.params.zero) for k in range(space.dim)] for j in range(len(cols))])
    return nullspace(A)


def perp_line(space: HermSpace, L: EmbeddedLattice):
    """A basis vector of the orthogonal line to a corank-1 sublattice's span."""
    K = orthogonal_complement_in(space, L.columns())
    if not K or len(K[0]) != 1:
        raise DegenerateSubspace("orthogonal complement is not a line")
    return tuple(K[i][0] for i in range(space.dim))


def with_valuation(space: HermSpace, w, v: int):
    """p^j w with j = ceil((v - val w) / 2): a vector of valuation v, or of
    v + 1 when the parity of val w rules v out."""
    s = space.params.ppow((v - int(space.vector_val(w)) + 1) // 2)
    return tuple(s * c for c in w)


def _diag_space(fld: Field, vals) -> HermSpace:
    n = len(vals)
    g = [[fld.ppow(int(v)) if i == j else fld.zero for j in range(n)] for i, v in enumerate(vals)]
    return HermSpace(fld, mat(g))


def lattice_from_invariants(fld: Field, invs, kind: str | None = None) -> EmbeddedLattice:
    """Full-rank lattice with the given fundamental invariants.

    Realized in the diagonal model: ambient Gram diag(p^(a_i)) with the
    identity basis.  A space is split or nonsplit according to the parity of
    val(det), so this model represents the same isometry class as the
    standard space of matching parity; `kind` is validated when given.
    """
    invs = tuple(sorted(int(a) for a in invs))
    parity = sum(invs) % 2
    if kind is not None:
        want = 1 if kind == "nonsplit" else 0
        if want != parity:
            raise UsageError(f"invariants {invs} have parity {parity}, incompatible with a {kind} ambient of equal rank")
    space = _diag_space(fld, invs)
    return EmbeddedLattice(space, mident(fld, len(invs)), _check=False)


def flat_from_invariants(fld: Field, invs, kind: str) -> tuple[EmbeddedLattice, tuple]:
    """Corank-one lattice with given invariants in a dim-(rank+1) space of the
    requested kind, plus the normalized generator (valuation 0 or 1) of its
    orthogonal line."""
    invs = tuple(sorted(int(a) for a in invs))
    n = len(invs) + 1
    want = 1 if kind == "nonsplit" else 0
    delta = (want - sum(invs)) % 2
    space = _diag_space(fld, list(invs) + [delta])
    basis = mat([[fld.one if i == j else fld.zero for j in range(n - 1)] for i in range(n)])
    L = EmbeddedLattice(space, basis, _check=False)
    w = tuple(fld.one if i == n - 1 else fld.zero for i in range(n))
    return L, w


def lattice_in_standard_space(fld: Field, invs, kind: str | None = None) -> EmbeddedLattice:
    """Same invariants realized inside the literal standard space (identity or
    diag(1,..,1,p) Gram), with column i of norm valuation a_i and a diagonal
    Gram.

    Written down directly: an even a takes a coordinate of its own as
    p^(a/2) e_s; in the nonsplit space one odd a takes the last coordinate as
    p^((a-1)/2) e_n; the other odd invariants pair up on two coordinates as
    p^((a_i-1)/2) (e_s + z e_t) and p^((a_j-1)/2) (-conj(z) e_s + e_t), which
    are orthogonal, with N(z) = p - 1 mod p^2 so that 1 + N(z) is p times a
    unit.
    """
    invs = tuple(sorted(int(a) for a in invs))
    parity = sum(invs) % 2
    if kind is None:
        kind = "nonsplit" if parity else "split"
    n = len(invs)
    space = standard_space(kind, n, fld)
    if (kind == "nonsplit") != parity:
        raise UsageError(f"invariants {invs} cannot fill a {kind} space of the same rank")
    entries = [None] * n  # column i as {coordinate: entry}
    coords = iter(range(n - 1 if parity else n))
    odd = [i for i, a in enumerate(invs) if a % 2]
    if parity:
        i = odd.pop()
        entries[i] = {n - 1: fld.ppow((invs[i] - 1) // 2)}
    for i, a in enumerate(invs):
        if a % 2 == 0:
            entries[i] = {next(coords): fld.ppow(a // 2)}
    if odd:
        z = norm_solve(fld.residue_ring(2), fld.p - 1).lift()
        for i, j in zip(odd[::2], odd[1::2]):
            s, t = next(coords), next(coords)
            ci, cj = fld.ppow((invs[i] - 1) // 2), fld.ppow((invs[j] - 1) // 2)
            entries[i] = {s: ci, t: ci * z}
            entries[j] = {s: -(cj * z.conjugate()), t: cj}
    L = EmbeddedLattice(space, mat([[col.get(r, fld.zero) for col in entries] for r in range(n)]), _check=False)
    # the invariants share no code with the construction above
    assert tuple(L.invariants()) == invs
    return L


def random_unimodular(fld: Field, r: int, rng: random.Random) -> Matrix:
    """A random element of GL_r(O_F) built from elementary operations."""
    U = [list(row) for row in mident(fld, r)]
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        c = fld.elem(rng.randrange(-fld.p**2, fld.p**2), rng.randrange(-fld.p**2, fld.p**2))
        for k in range(r):
            U[k][i] = U[k][i] + c * U[k][j]
    perm = list(range(r))
    rng.shuffle(perm)
    U = [[U[i][perm[j]] for j in range(r)] for i in range(r)]
    # unit diagonal twist
    for j in range(r):
        u = fld.elem(rng.randrange(1, fld.p), rng.randrange(fld.p))
        if u.valuation() != 0:
            u = fld.one
        for k in range(r):
            U[k][j] = U[k][j] * u
    return mat(U)


def rebased(L: EmbeddedLattice, U: Matrix) -> EmbeddedLattice:
    return EmbeddedLattice(L.space, mmul(L.basis, U), _check=False)


# ---------------------------------------------------------------------------
# JSON input

def space_to_json(space: HermSpace) -> dict:
    return {
        "p": space.params.p,
        "eps": space.params.eps,
        "gram": [[x.to_json() for x in row] for row in space.gram],
    }


def lattice_to_json(L: EmbeddedLattice) -> dict:
    return {
        "space": space_to_json(L.space),
        "basis": [[x.to_json() for x in row] for row in L.basis],
    }


def space_from_json(obj: dict) -> HermSpace:
    fld = field(int(obj["p"]), int(obj["eps"]) if "eps" in obj else None)
    if "kind" in obj:
        return standard_space(obj["kind"], int(obj["dim"]), fld)
    gram = mat([[FElem.from_json(fld, x) for x in row] for row in obj["gram"]])
    return HermSpace(fld, gram)


def lattice_from_json(obj: dict) -> EmbeddedLattice:
    """The lattice of a {"space": ..., "basis": rows} document; a basis that
    is not a dim x r matrix with r >= 1 raises ValueError."""
    space = space_from_json(obj["space"])
    fld = space.params
    basis = mat([[FElem.from_json(fld, x) for x in row] for row in obj["basis"]])
    if len(basis) != space.dim or not basis[0] or any(len(row) != len(basis[0]) for row in basis):
        raise ValueError(f"basis must be a {space.dim} x r matrix with r >= 1")
    return EmbeddedLattice(space, basis)
