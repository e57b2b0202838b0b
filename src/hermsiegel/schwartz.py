"""Exact calculus of rational combinations of lattice indicator functions.

The Fourier transform acts termwise, 1_L -> vol(L) 1_(L dual), with
vol(L) = q^(-val(L)).  Distinct formal combinations can represent the same
function (indicator functions of lattices satisfy counting relations), so
equality is decided semantically.  A difference of two combinations is
invariant under translation by the intersection I of all its lattices and
supported in their sum S, so it is determined by its values on the finitely
many cosets of S/I.  `functions_equal` scatters each term over its own cosets:
the cosets of L_i/I are enumerated from an echelon basis of L_i, reduced into
one fixed box of representatives of S/I, and counted there, which costs
sum_i [L_i : I] cosets.  `functions_equal_reference` decides the same question
the direct way, testing every coset of S/I against every term; it is kept as
the independent check of the scatter and no library code calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import AmbientMismatch, BudgetExceeded, HermSiegelError, NotVertexType3
from .lattice import (
    EmbeddedLattice,
    from_generators,
    hnf_columns,
    intersect_lattices,
    minv,
    mmul,
    sum_lattices,
)
from .overlat import DEFAULT_BUDGET, integral_overlattices
from .ring import reduce

WEIL_SIGN = -1  # eigenvalue of the transform on the vertical-cycle functions

_COSET_CAP = 10**6
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class LatticeFunction:
    """Canonical finite sum of coeff * 1_lattice, lattices full rank."""

    terms: tuple  # tuple of (Fraction, EmbeddedLattice), canonically sorted

    @staticmethod
    def make(terms) -> "LatticeFunction":
        merged = {}
        space = None
        for coeff, lat in terms:
            if space is None:
                space = lat.space
            elif lat.space != space:
                raise AmbientMismatch("lattice function terms in different spaces")
            if lat.rank != lat.dim:
                raise HermSiegelError("lattice function terms must be full rank")
            key = lat.key()
            if key in merged:
                c, _ = merged[key]
                merged[key] = (c + Fraction(coeff), lat)
            else:
                merged[key] = (Fraction(coeff), lat)
        out = tuple((c, lat) for key, (c, lat) in sorted(merged.items()) if c != 0)
        return LatticeFunction(out)

    @staticmethod
    def indicator(lat: EmbeddedLattice) -> "LatticeFunction":
        return LatticeFunction.make([(Fraction(1), lat)])

    def __add__(self, other: "LatticeFunction") -> "LatticeFunction":
        return LatticeFunction.make(list(self.terms) + list(other.terms))

    def __neg__(self) -> "LatticeFunction":
        return LatticeFunction(tuple((-c, lat) for c, lat in self.terms))

    def __sub__(self, other: "LatticeFunction") -> "LatticeFunction":
        return self + (-other)

    def scale(self, c) -> "LatticeFunction":
        c = Fraction(c)
        if c == 0:
            return LatticeFunction(())
        return LatticeFunction(tuple((c * co, lat) for co, lat in self.terms))

    def is_formally_zero(self) -> bool:
        return not self.terms


def fourier(f: LatticeFunction) -> LatticeFunction:
    """Termwise transform (c, L) -> (c q^(-val L), L dual); an involution."""
    out = []
    for c, lat in f.terms:
        q = lat.field.q
        out.append((c * Fraction(q) ** (-lat.val()), lat.dual()))
    return LatticeFunction.make(out)


def evaluate(f: LatticeFunction, x) -> Fraction:
    acc = Fraction(0)
    for c, lat in f.terms:
        if len(x) != lat.dim:
            raise AmbientMismatch("vector dimension does not match the ambient space")
        if lat.contains(x):
            acc += c
    return acc


def _residue_grid(fld, kvals):
    """All vectors of canonical residues mod p^(k_i), as int arrays of shape
    (count, r) for the two components of x + y t."""
    p = fld.p
    axes = [p**k for k in kvals for _ in range(2)]
    if not axes:
        return np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
    mesh = np.meshgrid(*[np.arange(m, dtype=np.int64) for m in axes], indexing="ij")
    flat = [g.reshape(-1) for g in mesh]
    ZX = np.stack(flat[0::2], axis=1)
    ZY = np.stack(flat[1::2], axis=1)
    return ZX, ZY


def _membership_mask(lat: EmbeddedLattice, supB, ZX, ZY):
    """Boolean mask: which residue vectors z (coordinates in the basis supB)
    give points of lat.  Exact: integrality of M z is decided mod p^v."""
    fld = lat.field
    p, eps = fld.p, fld.eps
    M = mmul(minv(lat.basis), supB)
    v = 0
    for row in M:
        for x in row:
            xv = x.valuation()
            if xv < 0:
                v = max(v, -int(xv))
    if v == 0:
        return np.ones(ZX.shape[0], dtype=bool)
    mod = p**v
    if mod > 2**28:
        raise BudgetExceeded("membership modulus too large for batched testing")
    R = [[reduce(x * mod, v) for x in row] for row in M]
    A = np.array([[y.a for y in row] for row in R], dtype=np.int64)
    B = np.array([[y.b for y in row] for row in R], dtype=np.int64)
    # (A + B t)(zx + zy t) = (A zx + eps B zy) + (A zy + B zx) t, all mod p^v
    re = (ZX @ A.T % mod + (eps % mod) * (ZY @ B.T % mod)) % mod
    im = (ZY @ A.T % mod + ZX @ B.T % mod) % mod
    return ((re == 0) & (im == 0)).all(axis=1)


def _echelon_in(binv, lat: EmbeddedLattice):
    """Echelon basis of a full-rank lattice in the coordinates of the basis
    whose inverse is binv: column j has its pivot p^(v_j) in row j and zeros
    above it."""
    T = mmul(binv, lat.basis)
    n = len(T)
    _, cols = hnf_columns(lat.field, [tuple(T[i][j] for i in range(n)) for j in range(n)], n)
    return cols


def _residue_matrix(cols, K: int):
    """The entries of the columns mod p^K as integer arrays (A, B), entry
    (i, j) of column j being A[i, j] + B[i, j] t."""
    n = len(cols)
    R = [[reduce(cols[j][i], K) for j in range(n)] for i in range(n)]
    A = np.array([[x.a for x in row] for row in R], dtype=np.int64)
    B = np.array([[x.b for x in row] for row in R], dtype=np.int64)
    return A, B


def functions_equal(f: LatticeFunction, g: LatticeFunction, cap: int = _COSET_CAP) -> bool:
    """Semantic equality on the cosets of S/I, S the sum and I the
    intersection of all lattices of f - g, visiting only the cosets each term
    is supported on.

    In the echelon coordinates of S, I has a lower-triangular basis H with
    pivots p^(k_j), so the box of vectors with x_j + y_j t, 0 <= x_j, y_j <
    p^(k_j), holds one representative of each coset of S/I.  A term L_i with
    echelon basis B_i (pivots p^(v_j)) covers the cosets B_i z for z in the
    box of the exponents k_j - v_j, each once.  Each such vector is reduced
    into the box row by row, subtracting multiples of H's columns, modulo
    p^K with K = sum k_j (p^K S lies in I), then coded in mixed radix; the
    codes of the terms that share an integer coefficient are counted with one
    bincount.  f = g iff every coset's weighted count is zero.  Refuses with
    BudgetExceeded, before any array is built, beyond `cap` cosets or when
    int64 arithmetic modulo p^K could overflow."""
    diff = f - g
    if diff.is_formally_zero():
        return True
    lats = [lat for _, lat in diff.terms]
    space = lats[0].space
    fld = space.params
    n = space.dim
    S = from_generators(space, [c for lat in lats for c in lat.columns()])
    I = from_generators(space, [c for lat in lats for c in lat.dual().columns()]).dual()
    binv = minv(S.basis)
    H = _echelon_in(binv, I)
    kvals = [int(H[j][j].valuation()) for j in range(n)]
    K = sum(kvals)
    total = fld.q ** (2 * K)
    if total > cap:
        raise BudgetExceeded(f"{total} cosets exceed cap {cap}")
    P = fld.p**K
    e = fld.eps % P
    # residues lie below P: a matrix product sums n products of two of them,
    # a reduction step two products and e times a residue
    if (n + 2 + e) * P * P > _INT64_SAFE:
        raise BudgetExceeded(f"cosets modulo p^{K} exceed int64 arithmetic")
    HA, HB = _residue_matrix(H, K)
    steps = [fld.p**k for k in kvals]
    strides = [1] * n
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * steps[j + 1] ** 2
    denom = lcm(*[c.denominator for c, _ in diff.terms])
    groups = {}
    for c, lat in diff.terms:
        B = _echelon_in(binv, lat)
        BA, BB = _residue_matrix(B, K)
        ZX, ZY = _residue_grid(fld, [k - int(B[j][j].valuation()) for j, k in enumerate(kvals)])
        # (A + B t)(zx + zy t) = (A zx + eps B zy) + (A zy + B zx) t, mod p^K
        X = (ZX @ BA.T % P + e * (ZY @ BB.T % P)) % P
        Y = (ZY @ BA.T % P + ZX @ BB.T % P) % P
        code = np.zeros(X.shape[0], dtype=np.int64)
        for j in range(n):
            qa, X[:, j] = np.divmod(X[:, j], steps[j])
            qb, Y[:, j] = np.divmod(Y[:, j], steps[j])
            if j + 1 < n:
                qa, qb = qa[:, None], qb[:, None]
                ha, hb = HA[j + 1 :, j], HB[j + 1 :, j]
                X[:, j + 1 :] = (X[:, j + 1 :] - qa * ha - e * (qb * hb % P)) % P
                Y[:, j + 1 :] = (Y[:, j + 1 :] - qa * hb - qb * ha) % P
            code += (X[:, j] * steps[j] + Y[:, j]) * strides[j]
        groups.setdefault(int(c * denom), []).append(code)
    acc = np.zeros(total, dtype=object)
    for coeff, codes in groups.items():
        acc += np.bincount(np.concatenate(codes), minlength=total).astype(object) * coeff
    return not np.any(acc != 0)


def functions_equal_reference(f: LatticeFunction, g: LatticeFunction, cap: int = _COSET_CAP) -> bool:
    """Semantic equality by testing every coset of (sum of all lattices)
    modulo (intersection of all lattices) against every term, the membership
    tests batched in modular integer arithmetic.  The independent reference
    for `functions_equal`."""
    diff = f - g
    if diff.is_formally_zero():
        return True
    lats = [lat for _, lat in diff.terms]
    S = lats[0]
    I = lats[0]
    for lat in lats[1:]:
        S = sum_lattices(S, lat)
        I = intersect_lattices(I, lat)
    fld = S.field
    sup = S.hnf()
    coords = [sup.coords(I.column(j)) for j in range(I.rank)]
    T = [tuple(coords[j][i] for j in range(len(coords))) for i in range(sup.rank)]
    rows, cols = hnf_columns(fld, [tuple(T[i][j] for i in range(len(T))) for j in range(len(T[0]))], len(T))
    kvals = [0] * sup.rank
    for idx, row in enumerate(rows):
        kvals[row] = int(cols[idx][row].valuation())
    total = fld.q ** (2 * sum(kvals))
    if total > cap:
        raise BudgetExceeded(f"{total} cosets exceed cap {cap}")
    ZX, ZY = _residue_grid(fld, kvals)
    denom = lcm(*[c.denominator for c, _ in diff.terms])
    acc = np.zeros(ZX.shape[0], dtype=object)
    for c, lat in diff.terms:
        mask = _membership_mask(lat, sup.basis, ZX, ZY)
        acc = acc + mask.astype(object) * int(c * denom)
    return not np.any(acc != 0)


# ---------------------------------------------------------------------------
# the vertical-cycle function of a type-3 vertex lattice


def type1_overlattices(Lambda: EmbeddedLattice, budget: int = DEFAULT_BUDGET):
    """The vertex overlattices of type 1: type 1 at valuation 1, read off the
    records (an overlattice of length l has valuation val(Lambda) - 2 l)."""
    val = Lambda.val()
    recs = integral_overlattices(Lambda, budget)
    return [rec.lattice for rec in recs if rec.type_t == 1 and val - 2 * rec.length == 1]


def _require_vertex3(Lambda: EmbeddedLattice):
    if not Lambda.is_vertex(3) or Lambda.rank != Lambda.dim:
        raise NotVertexType3("expected a full-rank vertex lattice of type 3")
    # val(Lambda) = 3 is odd, so the space of a full-rank Lambda is nonsplit
    if Lambda.dim < 3 or Lambda.dim % 2 == 0:
        raise NotVertexType3("ambient space must be nonsplit of odd dimension >= 3")


def int_v_lambda(Lambda: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> LatticeFunction:
    """The vertical-cycle intersection function of a type-3 vertex lattice:
    -q^2 (1 + q) 1_Lambda + sum of 1_Lambda' over type-1 overlattices."""
    _require_vertex3(Lambda)
    q = Lambda.field.q
    terms = [(Fraction(-q * q * (1 + q)), Lambda)]
    for lam1 in type1_overlattices(Lambda, budget):
        terms.append((Fraction(1), lam1))
    return LatticeFunction.make(terms)


def int_v_lambda_at(Lambda: EmbeddedLattice, x) -> Fraction:
    """evaluate(int_v_lambda(Lambda), x) in closed form, building no
    overlattice: 1 - q^2 on Lambda, 1 on the x of Lambda^v outside Lambda
    with (x, x) integral, 0 elsewhere.

    Lambda^v/Lambda is a non-degenerate hermitian space of dimension 3 over
    F_(q^2), with the form p (x, y) mod p.  A type-1 overlattice of Lambda is
    Lambda plus a lift of one of its q^3 + 1 isotropic lines, and it lies in
    Lambda^v.  So x outside Lambda^v lies in none of them; x in Lambda lies in
    all of them, -q^2 (1 + q) + q^3 + 1 = 1 - q^2; any other x of Lambda^v
    lies in one when its image is isotropic, that is when (x, x) is
    integral, and in none otherwise."""
    _require_vertex3(Lambda)
    if len(x) != Lambda.dim:
        raise AmbientMismatch("vector dimension does not match the ambient space")
    if not Lambda.dual().contains(x):
        return Fraction(0)
    if Lambda.contains(x):
        q = Lambda.field.q
        return Fraction(1 - q * q)
    return Fraction(1) if Lambda.space.norm(x).valuation() >= 0 else Fraction(0)


def local_modularity_check(Lambda: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> bool:
    """fourier(Int_V) = -Int_V, exactly, as functions."""
    f = int_v_lambda(Lambda, budget)
    return functions_equal(fourier(f), f.scale(WEIL_SIGN))
