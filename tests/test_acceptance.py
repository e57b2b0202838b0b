"""Acceptance criteria, one test per criterion, exact arithmetic throughout
(tolerance zero everywhere).  Each test prints one pass/fail line; run with
`pytest tests/test_acceptance.py -v -s` to see them.

Criterion 13's non-negativity sub-claim is implemented faithfully and fails
on a genuine counterexample (see tests/test_kr.py and the analysis in the
reviewer notes): the relative derived density of diag(p, p) is 2 - q^2 + q,
so the blow-up intersection number is -2 < 0 at q = 3.
"""

import itertools
import random
from fractions import Fraction

from conftest import random_invariants, random_lattice
from hermsiegel.decomp import FlatPair, diff_identity_check, fourier_pden_perp
from hermsiegel.density import (
    den_central,
    den_lambda_poly,
    den_poly,
    den_value,
    derived_den,
    functional_eq_check,
    induction_check,
    sankaran_rank2,
    terstiege_rank3,
    weight_m_der,
)
from hermsiegel.kr import (
    eisenstein_ratio_check,
    horizontal_degree,
    int_prime,
    vertical_identity_n3,
)
from hermsiegel.lattice import (
    coset_representatives,
    flat_from_invariants,
    lattice_from_invariants,
)
from hermsiegel.oracle import cancellation_oracle_check, den_oracle
from hermsiegel.overlat import overlattice_profiles
from hermsiegel.ring import field
from hermsiegel.schwartz import evaluate, int_v_lambda, local_modularity_check


def _line(tag, ok):
    print(f"{tag}: {'pass' if ok else 'FAIL'}")


def _grid(max_rank, max_val, parity=None):
    out = []
    for r in range(1, max_rank + 1):
        for invs in itertools.combinations_with_replacement(range(0, max_val + 1), r):
            if sum(invs) > max_val:
                continue
            if parity is not None and sum(invs) % 2 != parity:
                continue
            out.append(tuple(invs))
    return out


def _perp_scaled(fld, Lf, w, vx):
    v0 = int(Lf.space.vector_val(w))
    assert (vx - v0) % 2 == 0
    return tuple(fld.elem(Fraction(fld.p) ** ((vx - v0) // 2)) * c for c in w)


def _flat_with_perp_val(fld, invs, vx):
    """Choose the ambient kind so that the perpendicular line reaches vx."""
    for kind in ("split", "nonsplit"):
        want = 1 if kind == "nonsplit" else 0
        if (want - sum(invs)) % 2 == vx % 2:
            Lf, w = flat_from_invariants(fld, invs, kind)
            return Lf, _perp_scaled(fld, Lf, w, vx)
    raise AssertionError("unreachable parity")


def test_ac01_functional_equation():
    rng = random.Random(1001)
    ok = True
    for q in (3, 5):
        fld = field(q)
        for _ in range(100):
            L = random_lattice(fld, rng, max_rank=4, max_val=6)
            ok = ok and functional_eq_check(L)
    _line("AC-1 functional equation (200 random lattices, q in {3,5})", ok)
    assert ok


def test_ac02_oracle_equivalence():
    fld = field(3)
    q = 3
    ok = True
    for r in (1, 2):
        for invs in itertools.combinations_with_replacement(range(0, 3), r):
            if sum(invs) > 2:
                continue
            L = lattice_from_invariants(fld, tuple(invs))
            n = len(invs)
            for k in (0, 1):
                M = lattice_from_invariants(fld, (0,) * (n + k))
                num = den_oracle(M, L)
                den = den_oracle(M, lattice_from_invariants(fld, (0,) * n))
                good = (
                    num.stabilized
                    and den.stabilized
                    and num.normalized / den.normalized == den_poly(L)(Fraction(-q) ** (-k))
                )
                ok = ok and good
    _line("AC-2 oracle equivalence (rank <= 2, val <= 2, k <= 1, p = 3)", ok)
    assert ok


def test_ac03_closed_form_triangle():
    ok = True
    for q in (3, 5):
        fld = field(q)
        for a in range(0, 5):
            for b in range(a, 5):
                if (a + b) % 2:
                    continue
                s = sankaran_rank2(a, b, q)
                t = terstiege_rank3(a, b, q)
                dl = den_lambda_poly(lattice_from_invariants(fld, (a, b)))
                df = den_poly(lattice_from_invariants(fld, tuple(sorted((a, b, 1)))))
                ok = ok and s.coeffs == t.coeffs == dl.coeffs == df.coeffs
    _line("AC-3 closed-form triangle (0 <= a <= b <= 4, q in {3,5})", ok)
    assert ok


def test_ac04_induction_formula():
    rng = random.Random(1004)
    fld = field(3)
    ok = True
    for _ in range(50):
        invs = random_invariants(rng, 3, 4)
        e = max(invs)
        for vx in (e + 1, e + 2):
            Lf, x = _flat_with_perp_val(fld, invs, vx)
            ok = ok and induction_check(Lf, x)
    _line("AC-4 induction formula (50 seeded instances, both offsets)", ok)
    assert ok


def test_ac05_rank1_law():
    fld = field(3)
    ok = True
    for k in range(4):
        L = lattice_from_invariants(fld, (2 * k + 1,))
        # derived_den cross-computes the polynomial derivative and the
        # weighted lattice count internally and insists they agree
        ok = ok and derived_den(L) == k + 1
    _line("AC-5 rank-1 derived density law (both paths)", ok)
    assert ok


def test_ac06_local_modularity():
    ok = True
    for q, n in ((3, 3), (3, 5), (5, 3)):
        fld = field(q)
        lam = lattice_from_invariants(fld, (0,) * (n - 3) + (1, 1, 1))
        ok = ok and local_modularity_check(lam)
    # pointwise value table in dimension 3 at q = 3
    fld = field(3)
    q = 3
    lam = lattice_from_invariants(fld, (1, 1, 1))
    f = int_v_lambda(lam)
    ok = ok and evaluate(f, lam.column(0)) == 1 - q * q
    dual = lam.dual()
    for x in coset_representatives(dual, lam):
        if lam.contains(x):
            continue
        want = 1 if lam.space.vector_val(x) >= 0 else 0
        ok = ok and evaluate(f, x) == want
    outside = tuple(fld.elem(Fraction(1, q * q)) * c for c in dual.column(0))
    ok = ok and evaluate(f, outside) == 0
    _line("AC-6 local modularity and pointwise values", ok)
    assert ok


def test_ac07_vertical_identity_n3():
    ok = True
    for p, flats in [(3, [(1, 1), (1, 3), (2, 2), (3, 3), (1, 5)]), (5, [(1, 2), (2, 2)])]:
        for invs in flats:
            Lf, _ = flat_from_invariants(field(p), invs, "nonsplit")
            ok = ok and vertical_identity_n3(Lf)
    _line("AC-7 dimension-3 vertical identity on the coset grids", ok)
    assert ok


def test_ac08_vanishing_theorem():
    fld = field(3)
    ok = True
    for invs in _grid(3, 4):
        for vx in (-1, -2):
            Lf, x = _flat_with_perp_val(fld, invs, vx)
            hf, hh = fourier_pden_perp(FlatPair(Lf, x))
            ok = ok and hf == hh
    _line("AC-8 vanishing of the vertical transform (val x in {-1,-2})", ok)
    assert ok


def test_ac09_difference_identities():
    rng = random.Random(1009)
    fld = field(3)
    ok = True
    for _ in range(50):
        invs = random_invariants(rng, 3, 4)
        e = max(invs)
        vx = e + 1 + rng.randint(0, 1)
        Lf, x = _flat_with_perp_val(fld, invs, vx)
        ok = ok and diff_identity_check(FlatPair(Lf, x)) == (True, True)
    _line("AC-9 difference identities (50 seeded instances)", ok)
    assert ok


def test_ac10_special_values():
    fld = field(3)
    q = 3
    ok = True
    for invs in _grid(3, 6):
        L = lattice_from_invariants(fld, invs)
        profiles = overlattice_profiles(L)
        selfdual = sum(1 for _, t in profiles if t == 0)
        ok = ok and den_central(L) == selfdual
        dmq = den_value(L, -q)
        ok = ok and dmq == sum(q ** (2 * length) * weight_m_der(t + 1, q) for length, t in profiles)
        lhs = den_value(L, Fraction(-1, q)) / L.vol()
        rhs = Fraction(0)
        for length, t in profiles:
            if t == 0:
                rhs += 1
            elif t == 1:
                rhs += (1 + Fraction(1, q)) * Fraction(q) ** (L.val() - 2 * length)
        ok = ok and lhs == rhs and dmq == lhs
    _line("AC-10 special values (rank <= 3, val <= 6 grid)", ok)
    assert ok


def test_ac11_horizontal_degree():
    fld = field(3)
    q = 3
    ok = True
    for invs in _grid(3, 6):
        L = lattice_from_invariants(fld, invs)
        ok = ok and horizontal_degree(L) == den_value(L, -q)
    _line("AC-11 horizontal degree equals the density at -q", ok)
    assert ok


def test_ac12_cancellation():
    fld = field(3)
    ok = True
    for invs in _grid(3, 5, parity=1):
        base = derived_den(lattice_from_invariants(fld, invs))
        for r in (1, 2):
            ext = lattice_from_invariants(fld, (0,) * r + invs)
            ok = ok and derived_den(ext) == base
    for invs in [(0,), (2,), (0, 1)]:
        ok = ok and cancellation_oracle_check(lattice_from_invariants(fld, invs), 0)
    _line("AC-12 cancellation (density grid and counting oracle)", ok)
    assert ok


def test_ac13_int_prime_values():
    fld = field(3)
    values_ok = True
    for k in range(4):
        values_ok = values_ok and int_prime(lattice_from_invariants(fld, (2 * k,))).value == k
    integral_ok = True
    nonneg_violations = []
    for invs in _grid(3, 6, parity=0):
        v = int_prime(lattice_from_invariants(fld, invs)).value
        integral_ok = integral_ok and v.denominator == 1
        if v < 0:
            nonneg_violations.append((invs, v))
    ok = values_ok and integral_ok and not nonneg_violations
    _line("AC-13 blow-up intersection values, integrality, non-negativity", ok)
    if nonneg_violations:
        print("  non-negativity violations (genuine; see reviewer notes):")
        for invs, v in nonneg_violations:
            print(f"    invariants {invs}: value {v}")
    assert values_ok, "rank-1 value law failed"
    assert integral_ok, "integrality failed"
    assert not nonneg_violations, (
        f"non-negativity fails on the split-space grid at {nonneg_violations}; "
        "this is a genuine property of the relative derived density "
        "(e.g. diag(p,p) gives 2 - q^2 + q = -4, hence value -2) and is "
        "documented as an expected red criterion"
    )


def test_ac14_eisenstein_ratio():
    ok = True
    for q in (3, 5):
        fld = field(q)
        for n in (2, 3):
            ok = ok and eisenstein_ratio_check(n, fld)
            lam_sharp = lattice_from_invariants(fld, (0,) * (n - 1) + (1, 1))
            ok = ok and den_central(lam_sharp) == q + 1
    _line("AC-14 reference-lattice self-dual count q + 1", ok)
    assert ok
