"""Derived-density functions attached to a corank-one lattice: the full,
horizontal and vertical parts, their difference identities, the finite
Fourier-transform formulas at perpendicular vectors of negative valuation,
and support diagnostics.

All three functions are realized through the weighted overlattice sums

    f_full(x)       = sum over integral L' >= Lflat + <x> of m(t(L')),
    f_horizontal(x) = same sum restricted to t(L' cap span(Lflat)) <= 1,

which make sense for either parity of val(Lflat + <x>); at odd valuation the
full sum is the central derivative of the density polynomial.  The vertical
part is their difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateLattice,
    EvenValuation,
    HermSiegelError,
    PreconditionViolated,
)
from .lattice import (
    EmbeddedLattice,
    from_generators,
    intersect_with_hyperplane,
    left_annihilator,
    with_valuation,
)
from .overlat import (
    DEFAULT_BUDGET,
    _overlattice_family,
    _pair_rank_mod_p,
    cyclic_overlattices,
    overlattice_profiles,
)
from .density import den_value, overlattice_histogram, weight_m_der
from .ring import norm_solve, reduce


@dataclass(frozen=True)
class FlatPair:
    """A corank-one integral lattice with nondegenerate span, and a vector
    outside the span."""

    lflat: EmbeddedLattice
    x: tuple

    def __post_init__(self):
        L = self.lflat
        if L.rank != L.dim - 1:
            raise PreconditionViolated("flat lattice must have corank one")
        if not L.is_integral():
            raise PreconditionViolated("flat lattice must be integral")

    @property
    def space(self):
        return self.lflat.space

    def full_lattice(self) -> EmbeddedLattice:
        L = from_generators(self.space, self.lflat.columns() + [self.x])
        if L.rank != self.lflat.rank + 1:
            raise PreconditionViolated("x lies in the span of the flat")
        return L


@dataclass(frozen=True)
class FlatAux:
    """The enlargement M(Lflat) = Lflat + <u> by the shortest admissible
    perpendicular vector."""

    e_max: int
    m_of_flat: EmbeddedLattice
    u_val: int


def perp_generator(Lflat: EmbeddedLattice):
    from .lattice import perp_line

    return perp_line(Lflat.space, Lflat)


def m_of_flat(Lflat: EmbeddedLattice) -> FlatAux:
    """Lflat + <u> with u perpendicular of valuation e_max or e_max + 1,
    whichever the determinant parity of the ambient space allows."""
    e = Lflat.invariants().e_max
    u = with_valuation(Lflat.space, perp_generator(Lflat), e)
    M = from_generators(Lflat.space, Lflat.columns() + [u])
    return FlatAux(e_max=e, m_of_flat=M, u_val=int(Lflat.space.vector_val(u)))


# ---------------------------------------------------------------------------
# the three weighted sums


def _weighted_sum_full(L: EmbeddedLattice, budget) -> int:
    """sum of m(t(L')) over integral overlattices, read off the class
    histogram that the density memo keeps."""
    q = L.field.q
    return sum(n * weight_m_der(t, q) for (_, t), n in overlattice_histogram(L, budget))


def _section_weighted_sum(Lflat: EmbeddedLattice, L: EmbeddedLattice, budget) -> int:
    """sum of m(t(L')) over integral overlattices L' of L whose intersection
    with span(Lflat) has type <= 1.

    The section type is read off in residue arithmetic: if rho is a functional
    cutting out the span, the kernel of rho on L' has the integral basis
    e_j - (rho_j / rho_j*) e_j* (j* of minimal valuation), and its Gram mod p
    is assembled from the overlattice's Gram mod p.
    """
    fld = L.field
    p, eps = fld.p, fld.eps
    q = fld.q
    phi_rows = left_annihilator(L.space, Lflat.columns())
    if len(phi_rows) != 1:
        raise DegenerateLattice("flat span is not a hyperplane")
    phi = phi_rows[0]
    fam, _, dual_cols = _overlattice_family(L, budget)
    r = L.rank
    # rho entries for candidate H: rho_j = sum_l phi(dual_col_l) H[l][j];
    # computed modulo a sufficient p-power in integer pairs
    phiD = [sum((phi[i] * dual_cols[l][i] for i in range(L.dim)), start=fld.zero) for l in range(r)]
    m0 = max(0, -min(int(min(x.valuation() for x in phiD)), 0))
    amax = max((a for a in L.invariants()), default=0)
    B = m0 + amax + 4
    modB = p**B

    pm0 = fld.ppow(m0)
    phiDint = [(r.a, r.b) for r in (reduce(pm0 * x, B) for x in phiD)]
    total = 0
    for H, type_t, gmodp in fam:
        rho = []
        for j in range(r):
            ra = rb = 0
            for l in range(r):
                hx, hy = H[l][j]
                if hx or hy:
                    fa, fb = phiDint[l]
                    ra += fa * hx + eps * fb * hy
                    rb += fa * hy + fb * hx
            rho.append((ra % modB, rb % modB))
        vals = []
        for ra, rb in rho:
            v = 0
            while v < B and ra % p == 0 and rb % p == 0:
                ra //= p
                rb //= p
                v += 1
            vals.append(v)
        best = min(vals)
        if best >= B - 1:
            raise HermSiegelError("hyperplane functional precision exhausted")
        jstar = vals.index(best)
        ps = p**best
        pa, pb = rho[jstar][0] // ps, rho[jstar][1] // ps
        nrm = (pa * pa - eps * pb * pb) % p
        ninv = pow(nrm, -1, p)
        iva, ivb = (pa * ninv) % p, (-pb * ninv) % p
        # kernel basis K: columns e_j - (rho_j / rho_j*) e_j*, j != j*
        ratios = []
        for j in range(r):
            if j == jstar:
                continue
            ta, tb = rho[j][0] // ps, rho[j][1] // ps
            ratios.append((j, (ta * iva + eps * tb * ivb) % p, (ta * ivb + tb * iva) % p))
        # Gram of the section mod p: K^H gmodp K over the residue field
        d = r - 1
        gs = [[(0, 0)] * d for _ in range(d)]
        for aa in range(d):
            ja, rxa, rya = ratios[aa]
            for bb in range(d):
                jb, rxb, ryb = ratios[bb]
                # (e_ja - ra e_j*)^H G (e_jb - rb e_j*)
                g1 = gmodp[ja][jb]
                g2 = gmodp[jstar][jb]
                g3 = gmodp[ja][jstar]
                g4 = gmodp[jstar][jstar]
                # conj(ra) = (rxa, -rya)
                t2 = ((rxa * g2[0] + eps * (-rya) * g2[1]) % p, (rxa * g2[1] + (-rya) * g2[0]) % p)
                t3 = ((rxb * g3[0] + eps * ryb * g3[1]) % p, (rxb * g3[1] + ryb * g3[0]) % p)
                c4 = ((rxa * g4[0] + eps * (-rya) * g4[1]) % p, (rxa * g4[1] + (-rya) * g4[0]) % p)
                t4 = ((rxb * c4[0] + eps * ryb * c4[1]) % p, (rxb * c4[1] + ryb * c4[0]) % p)
                gs[aa][bb] = ((g1[0] - t2[0] - t3[0] + t4[0]) % p, (g1[1] - t2[1] - t3[1] + t4[1]) % p)
        sect_type = d - _pair_rank_mod_p(gs, p, eps)
        if sect_type <= 1:
            total += weight_m_der(type_t, q)
    return total


_horiz_cache: dict = {}


def _pden_sum_full(fp: FlatPair, budget) -> Fraction:
    L = fp.full_lattice()
    if not L.is_integral():
        return Fraction(0)
    return Fraction(_weighted_sum_full(L, budget))


def _pden_sum_horizontal(fp: FlatPair, budget) -> Fraction:
    L = fp.full_lattice()
    if not L.is_integral():
        return Fraction(0)
    key = (fp.lflat.space, fp.lflat.key(), L.key())
    hit = _horiz_cache.get(key)
    if hit is None:
        hit = Fraction(_section_weighted_sum(fp.lflat, L, budget))
        _horiz_cache[key] = hit
    return hit


def pden_horizontal_reference(fp: FlatPair, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Direct implementation via exact hyperplane sections; used to validate
    the residue-arithmetic fast path."""
    from .overlat import integral_overlattices

    L = fp.full_lattice()
    if not L.is_integral():
        return Fraction(0)
    q = L.field.q
    total = 0
    for rec in integral_overlattices(L, budget):
        sect = intersect_with_hyperplane(rec.lattice, fp.lflat.columns())
        if sect.type_t() <= 1:
            total += weight_m_der(rec.type_t, q)
    return Fraction(total)


# ---------------------------------------------------------------------------
# public functions with the documented parity policy


def _parity_gate(fp: FlatPair, budget):
    L = fp.full_lattice()
    if L.is_integral() and L.val() % 2 == 0:
        raise EvenValuation("the derived density is defined at odd valuation")
    return L


def pden_x(fp: FlatPair, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Derived density of Lflat + <x>; zero when that lattice is not integral."""
    _parity_gate(fp, budget)
    return _pden_sum_full(fp, budget)


def pden_horizontal(fp: FlatPair, budget: int = DEFAULT_BUDGET) -> Fraction:
    _parity_gate(fp, budget)
    return _pden_sum_horizontal(fp, budget)


def pden_vertical(fp: FlatPair, budget: int = DEFAULT_BUDGET) -> Fraction:
    _parity_gate(fp, budget)
    return _pden_sum_full(fp, budget) - _pden_sum_horizontal(fp, budget)


# ---------------------------------------------------------------------------
# identities


def _check_perp(fp: FlatPair):
    space = fp.space
    for j in range(fp.lflat.rank):
        if not space.pair(fp.x, fp.lflat.column(j)).is_zero():
            raise PreconditionViolated("x must be exactly perpendicular to the flat")


def diff_identity_check(fp: FlatPair, budget: int = DEFAULT_BUDGET):
    """Both difference identities at a perpendicular x with val(x) >= e_max + 1:

        f_full(x) - f_full(x/p)       = Den(-q, Lflat)
        f_horiz(x) - f_horiz(x/p)     = vol(Lflat)^(-1) Den((-q)^(-1), Lflat)

    Returns (full_ok, horizontal_ok).
    """
    _check_perp(fp)
    space = fp.space
    fld = space.params
    if space.vector_val(fp.x) < fp.lflat.invariants().e_max + 1:
        raise PreconditionViolated("val(x) must be at least e_max + 1")
    q = fld.q
    pinv = fld.ppow(-1)
    fp2 = FlatPair(fp.lflat, tuple(pinv * c for c in fp.x))
    lhs_full = _pden_sum_full(fp, budget) - _pden_sum_full(fp2, budget)
    rhs_full = den_value(fp.lflat, -q, budget)
    lhs_h = _pden_sum_horizontal(fp, budget) - _pden_sum_horizontal(fp2, budget)
    rhs_h = den_value(fp.lflat, Fraction(-1, q), budget) / fp.lflat.vol()
    return (lhs_full == rhs_full, lhs_h == rhs_h)


def fourier_pden_perp(fp: FlatPair, budget: int = DEFAULT_BUDGET):
    """Fourier transforms of the full and horizontal functions at a
    perpendicular x of negative valuation, via the finite expansions:

        hat f_full(x)  = C q^(val x) [ q^(-2) vol(Lf) Den(-q, Lf)
                          + (1 - q^(-2)) sum over cyclic overlattices M of
                            vol(M) Den(-q, M) ]
        hat f_horiz(x) = C q^(val x) [ sum_(t=0) 1 + sum_(t=1) (1 + 1/q) ]

    with C = (1 - q^(-2))^(-1); both are exact rationals.  The vanishing
    theorem for the vertical part is the statement that they agree.
    """
    _check_perp(fp)
    space = fp.space
    fld = space.params
    q = fld.q
    vx = space.vector_val(fp.x)
    if vx >= 0:
        raise PreconditionViolated("fourier_pden_perp needs val(x) < 0")
    Lf = fp.lflat
    pref = Fraction(q) ** int(vx) / (1 - Fraction(1, q * q))
    t_full = Fraction(1, q * q) * Lf.vol() * den_value(Lf, -q, budget)
    for rec in cyclic_overlattices(Lf, budget):
        t_full += (1 - Fraction(1, q * q)) * rec.lattice.vol() * den_value(rec.lattice, -q, budget)
    t_h = Fraction(0)
    for _, type_t in overlattice_profiles(Lf, budget):
        if type_t == 0:
            t_h += 1
        elif type_t == 1:
            t_h += 1 + Fraction(1, q)
    return (pref * t_full, pref * t_h)


def in_support_N(fp: FlatPair) -> bool:
    """Whether <x> + Lflat is integral (membership in the support set)."""
    space = fp.space
    if not space.norm(fp.x).is_integral():
        return False
    return all(space.pair(fp.x, fp.lflat.column(j)).is_integral() for j in range(fp.lflat.rank))


def support_bound_check(fp: FlatPair, budget: int = DEFAULT_BUDGET) -> bool:
    """The sum of the first (n-1) invariants of Lflat + <x> is at least
    val(Lflat) exactly when x lies in M(Lflat)."""
    L = fp.full_lattice()
    inv = sorted(L.invariants())
    lhs = sum(inv[:-1]) >= fp.lflat.val()
    aux = m_of_flat(fp.lflat)
    rhs = aux.m_of_flat.contains(fp.x)
    return lhs == rhs


# ---------------------------------------------------------------------------
# evaluation grids


def norm_class_reps(fld, a: int):
    """Representatives of O/p^a modulo scaling by norm-one units: zero, and
    p^v z0 with z0 a unit realizing each unit norm class mod p^(a-v)."""
    reps = [fld.zero]
    p = fld.p
    for v in range(a):
        j = a - v
        ring = fld.residue_ring(j)
        scale = fld.ppow(v)
        for nu in range(1, p**j):
            if nu % p == 0:
                continue
            z0 = norm_solve(ring, nu).lift()
            reps.append(scale * z0)
    return reps


def flat_coset_grid(Lflat: EmbeddedLattice, w, j_values, compress: bool = True):
    """Grid x = v + p^j w with v running over dual(Lflat)/Lflat and j over
    j_values.  When the flat basis is orthogonal the v-part is compressed to
    one representative per orbit of coordinatewise norm-one unit scalings,
    which are isometries fixing the flat and both sides of every identity
    evaluated on the grid."""
    fld = Lflat.field
    space = Lflat.space
    diag_ok = all(
        Lflat.gram[i][j].is_zero() for i in range(Lflat.rank) for j in range(Lflat.rank) if i != j
    )
    if compress and diag_ok:
        invs = [int(Lflat.gram[i][i].valuation()) for i in range(Lflat.rank)]
        axis_reps = [norm_class_reps(fld, a) for a in invs]
        scaled_cols = []
        for i in range(Lflat.rank):
            s = fld.ppow(-invs[i])
            scaled_cols.append(tuple(s * c for c in Lflat.column(i)))
        from itertools import product

        vparts = []
        for combo_idx in product(*[range(len(reps)) for reps in axis_reps]):
            # coordinates with equal invariants may be swapped by an isometry
            # of the flat; keep only index-sorted tuples within equal groups
            if any(invs[i] == invs[i - 1] and combo_idx[i] < combo_idx[i - 1] for i in range(1, len(invs))):
                continue
            v = [fld.zero] * space.dim
            for i, k in enumerate(combo_idx):
                z = axis_reps[i][k]
                if z.is_zero():
                    continue
                col = scaled_cols[i]
                for kk in range(space.dim):
                    v[kk] = v[kk] + z * col[kk]
            vparts.append(tuple(v))
    else:
        from .lattice import coset_representatives

        vparts = coset_representatives(Lflat.dual(), Lflat)
    out = []
    for j in j_values:
        pw = fld.ppow(int(j))
        xw = tuple(pw * c for c in w)
        for v in vparts:
            out.append(tuple(v[k] + xw[k] for k in range(space.dim)))
    return out
