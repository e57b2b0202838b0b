"""Intersection numbers realized through their density identities.

The geometric quantities are not desk-computable; this module exposes them
through the proven equalities: the self-dual case equals the central
derivative of the density, the almost-self-dual case equals the relative
derivative divided by q + 1, and the blow-up variant subtracts the central
value.  The rank-2 vertical multiplicity formula and its pointwise identity
in dimension 3 tie the decomposition, enumeration and indicator-function
modules together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomp import FlatPair, flat_coset_grid, in_support_N, pden_vertical, perp_generator
from .density import den_central, den_value, derived_den, derived_den_lambda
from .errors import (
    HermSiegelError,
    NotInVert3,
    PreconditionViolated,
    WrongAmbientParity,
    WrongParity,
)
from .lattice import EmbeddedLattice, intersect_with_hyperplane, lattice_from_invariants
from .overlat import DEFAULT_BUDGET, count_intermediate, overlattice_profiles, vertex_overlattices
from .schwartz import evaluate, int_v_lambda, int_v_lambda_at


@dataclass(frozen=True)
class IntResult:
    value: Fraction
    theorem_tag: str
    invariants: tuple
    q: int


def int_selfdual(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> IntResult:
    """Intersection number at self-dual level: equals the derived density."""
    if L.rank != L.dim:
        raise PreconditionViolated("full-rank lattice required")
    if L.space.split_flag:
        raise WrongAmbientParity("self-dual intersection numbers live in a nonsplit space")
    return IntResult(derived_den(L, budget), "main", tuple(L.invariants()), L.field.q)


def int_almost_selfdual(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> IntResult:
    """Almost-self-dual level: the relative derived density over q + 1."""
    if L.rank != L.dim:
        raise PreconditionViolated("full-rank lattice required")
    if L.val() % 2 != 0:
        raise WrongParity("almost-self-dual intersection numbers need even valuation")
    q = L.field.q
    return IntResult(derived_den_lambda(L, budget) / (q + 1), "main2", tuple(L.invariants()), q)


def int_prime(L: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> IntResult:
    """Blow-up variant: (relative derivative minus central value) over q + 1."""
    if L.rank != L.dim:
        raise PreconditionViolated("full-rank lattice required")
    if L.val() % 2 != 0:
        raise WrongParity("this intersection number needs even valuation")
    q = L.field.q
    val = (derived_den_lambda(L, budget) - den_central(L, budget)) / (q + 1)
    return IntResult(val, "main2prime", tuple(L.invariants()), q)


def int_rank1_closed(a: int) -> Fraction:
    """Int(<p^a>) = (a + 1)/2 for odd a (Gross's quasi-canonical liftings):
    a value from the geometric side, shared with no density code."""
    if a < 1 or a % 2 == 0:
        raise WrongParity("the rank-1 closed form needs an odd a >= 1")
    return Fraction(a + 1, 2)


def int_rank2_closed(a: int, b: int, q: int) -> Fraction:
    """Int(diag(p^a, p^b)) = 1/2 sum_{l=0}^{a} q^l (a + b + 1 - 2l) for
    0 <= a <= b with a + b odd (Kudla-Rapoport, Invent. Math. 184 (2011),
    Thm. 1.1): a value from the geometric side, shared with no density code."""
    if not 0 <= a <= b:
        raise PreconditionViolated("the rank-2 closed form needs 0 <= a <= b")
    if (a + b) % 2 == 0:
        raise WrongParity("the rank-2 closed form needs a + b odd")
    return Fraction(sum(q**l * (a + b + 1 - 2 * l) for l in range(a + 1)), 2)


def mult_vertical(Lflat: EmbeddedLattice, Lam: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> int:
    """Multiplicity of the vertical-cycle component attached to a type-3
    vertex overlattice of a rank-2 flat: the number of lattices between the
    flat and the hyperplane part of the vertex lattice, endpoints included."""
    if Lflat.rank != 2 or Lflat.dim != 3:
        raise PreconditionViolated("multiplicities are defined for rank-2 flats in dimension 3")
    if not (Lam.is_vertex(3) and Lam.contains_lattice(Lflat)):
        raise NotInVert3("lattice is not a type-3 vertex overlattice of the flat")
    hyper = intersect_with_hyperplane(Lam, Lflat.columns())
    return count_intermediate(Lflat, hyper, budget)


def vertical_terms(Lflat: EmbeddedLattice, budget: int = DEFAULT_BUDGET):
    """The type-3 vertex overlattices of a rank-2 flat in a nonsplit space
    of dimension 3, each with its multiplicity: [(m(Lambda), Lambda)]."""
    if Lflat.rank != 2 or Lflat.dim != 3:
        raise PreconditionViolated("the identity is checked for rank-2 flats in dimension 3")
    if Lflat.space.split_flag:
        raise PreconditionViolated("ambient space must be nonsplit")
    return [(mult_vertical(Lflat, lam, budget), lam) for lam in vertex_overlattices(Lflat, 3, budget)]


def vertical_identity_n3(
    Lflat: EmbeddedLattice,
    grid=None,
    budget: int = DEFAULT_BUDGET,
    j_values=None,
) -> bool:
    """Pointwise identity in dimension 3: the vertical part of the derived
    density equals the multiplicity-weighted sum of vertical-cycle functions
    over all type-3 vertex overlattices, each read in closed form
    (`int_v_lambda_at`).

    Each indicator on the right-hand side is of an integral lattice that
    contains the flat, so it vanishes outside the support set, and the
    identity only needs checking there.  The lattices are the vertex
    lattices Lambda, checked below, and their type-1 overlattices, which
    contain Lambda and are integral: each is Lambda + <x> with x in Lambda^v
    and (x, x) integral, and (a x + l, b x + l') = a conj(b) (x, x) +
    a (x, l') + conj(b) (l, x) + (l, l') is integral for l, l' in Lambda."""
    terms = vertical_terms(Lflat, budget)
    for _, lam in terms:
        if not (lam.is_integral() and lam.contains_lattice(Lflat)):
            raise HermSiegelError("vertical-cycle term fails the support containment")
    if grid is None:
        w = perp_generator(Lflat)
        v0 = int(Lflat.space.vector_val(w))
        e = Lflat.invariants().e_max
        if j_values is None:
            # perpendicular valuations from -2 (vanishing margin) up to the
            # local-constancy threshold e_max + 2
            j_values = range(-1, (e + 2 - v0) // 2 + 1)
        grid = flat_coset_grid(Lflat, w, list(j_values))
    for x in grid:
        fp = FlatPair(Lflat, x)
        if not in_support_N(fp):
            continue
        if pden_vertical(fp, budget) != vertical_sum(terms, x):
            return False
    return True


def vertical_sum(terms, x) -> Fraction:
    """The right-hand side of `vertical_identity_n3` at x: sum of
    m(Lambda) Int_Lambda(x) over the terms of `vertical_terms`, each
    vertical-cycle function read in closed form."""
    return sum((m * int_v_lambda_at(lam, x) for m, lam in terms), start=Fraction(0))


def vertical_sum_reference(terms, points, budget: int = DEFAULT_BUDGET):
    """`vertical_sum` at each point from the full vertical-cycle functions:
    every type-1 overlattice built and every term evaluated.  The reference
    for the closed form; no library code calls it."""
    pieces = [(m, int_v_lambda(lam, budget)) for m, lam in terms]
    return [sum((m * evaluate(f, x) for m, f in pieces), start=Fraction(0)) for x in points]


def horizontal_degree(Lflat: EmbeddedLattice, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Weighted count of the low-type overlattices of the flat:
    1 per self-dual overlattice and q^val (1 + 1/q) per type-1 overlattice;
    equals the density value at -q."""
    if not Lflat.is_integral():
        raise PreconditionViolated("flat must be integral")
    q = Lflat.field.q
    total = Fraction(0)
    for length, type_t in overlattice_profiles(Lflat, budget):
        if type_t == 0:
            total += 1
        elif type_t == 1:
            val = Lflat.val() - 2 * length
            total += Fraction(q) ** val * (1 + Fraction(1, q))
    expected = den_value(Lflat, -q, budget)
    if total != expected:
        raise HermSiegelError("horizontal degree does not match the density value")
    return total


def eisenstein_ratio_check(n: int, fld, budget: int = DEFAULT_BUDGET) -> bool:
    """The reference almost-self-dual lattice extended by one uniformizer line
    has exactly q + 1 self-dual overlattices, and the almost-self-dual
    intersection number is the relative derivative over q + 1 on a sample."""
    q = fld.q
    lam_sharp = lattice_from_invariants(fld, (0,) * (n - 1) + (1, 1))
    if den_central(lam_sharp, budget) != q + 1:
        return False
    for invs in [(0,) * n, (0,) * (n - 1) + (2,)]:
        L = lattice_from_invariants(fld, invs)
        if int_almost_selfdual(L, budget).value * (q + 1) != derived_den_lambda(L, budget):
            return False
    return True
