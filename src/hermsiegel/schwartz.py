"""Exact calculus of rational combinations of lattice indicator functions.

The Fourier transform acts termwise, 1_L -> vol(L) 1_(L dual), with
vol(L) = q^(-val(L)).  Distinct formal combinations can represent the same
function (indicator functions of lattices satisfy counting relations), so
equality is decided semantically: a difference of two combinations is
invariant under translation by the intersection of all involved lattices and
supported in their sum, hence determined by finitely many coset values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import AmbientMismatch, BudgetExceeded, HermSiegelError, NotVertexType3
from .lattice import (
    EmbeddedLattice,
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


def functions_equal(f: LatticeFunction, g: LatticeFunction, cap: int = _COSET_CAP) -> bool:
    """Semantic equality via coset representatives of (sum of all lattices)
    modulo (intersection of all lattices); membership tests are batched in
    modular integer arithmetic."""
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
    return [rec.lattice for rec in integral_overlattices(Lambda, budget) if rec.lattice.is_vertex(1)]


def int_v_lambda(Lambda: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> LatticeFunction:
    """The vertical-cycle intersection function of a type-3 vertex lattice:
    -q^2 (1 + q) 1_Lambda + sum of 1_Lambda' over type-1 overlattices."""
    if not Lambda.is_vertex(3) or Lambda.rank != Lambda.dim:
        raise NotVertexType3("expected a full-rank vertex lattice of type 3")
    if Lambda.space.split_flag or Lambda.dim < 3 or Lambda.dim % 2 == 0:
        raise NotVertexType3("ambient space must be nonsplit of odd dimension >= 3")
    q = Lambda.field.q
    terms = [(Fraction(-q * q * (1 + q)), Lambda)]
    for lam1 in type1_overlattices(Lambda, budget):
        terms.append((Fraction(1), lam1))
    return LatticeFunction.make(terms)


def local_modularity_check(Lambda: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> bool:
    """fourier(Int_V) = -Int_V, exactly, as functions."""
    f = int_v_lambda(Lambda, budget)
    return functions_equal(fourier(f), f.scale(WEIL_SIGN))
