"""Expensive cross-validations, enabled with HERMSIEGEL_SLOW=1.

These pin the structured oracle's orbit-stratification path against the
definitional enumeration at precision 2, re-certify the vertex-window choice
on the heaviest acceptance flats, the coset scatter of
`schwartz.functions_equal` against its reference on a larger grid and the
closed vertical-cycle function on every point of its grids, and check
the overlattice search through `den_poly` against Terstiege's rank-3 closed
form, which shares no code with it.  They run in a few minutes and are kept
out of the default suite.
"""

import os
import random

import pytest

from hermsiegel.density import den_poly, terstiege_rank3
from hermsiegel.lattice import flat_from_invariants, lattice_from_invariants
from hermsiegel.oracle import count_rep, count_rep_naive
from hermsiegel.overlat import vertex_overlattices
from hermsiegel.ring import field

slow = pytest.mark.skipif(not os.environ.get("HERMSIEGEL_SLOW"), reason="set HERMSIEGEL_SLOW=1 to run")


@slow
def test_two_column_stratification_vs_naive_precision_two():
    F = field(3)
    M = lattice_from_invariants(F, (0, 0))
    L = lattice_from_invariants(F, (1, 1))
    assert count_rep(M, L, 2) == count_rep_naive(M, L, 2, budget=10**9)


@slow
def test_two_column_mixed_targets_vs_naive():
    F = field(3)
    M = lattice_from_invariants(F, (0, 0))
    for invs in [(1, 2), (2, 2)]:
        L = lattice_from_invariants(F, invs)
        assert count_rep(M, L, 2) == count_rep_naive(M, L, 2, budget=10**9), invs


@slow
def test_vertex_window_widening_heavy_flats():
    F = field(3)
    for invs in [(3, 3), (1, 5)]:
        Lf, _ = flat_from_invariants(F, invs, "nonsplit")
        base = {v.key() for v in vertex_overlattices(Lf, 3)}
        widened = {v.key() for v in vertex_overlattices(Lf, 3, widen=1)}
        assert base == widened, invs


@slow
def test_coset_scatter_matches_reference_larger_grid():
    from test_schwartz import SCATTER_CASES, scatter_matches_reference

    grid = SCATTER_CASES + [(3, (3, 3)), (3, (1, 4)), (3, (0, 2, 2)), (3, (1, 2, 2)), (5, (2, 2)), (5, (0, 1, 2)), (5, (1, 1, 1))]
    for p, invs in grid:
        assert scatter_matches_reference(p, invs, random.Random(f"slow {p} {invs}"), rounds=4) >= 4, (p, invs)


@slow
def test_int_v_lambda_at_on_every_grid_point():
    # the 11,823 (lattice, point) pairs of the five flats, none skipped
    from test_schwartz import CLOSED_FORM_FLATS, closed_form_matches_evaluate

    for p, invs in CLOSED_FORM_FLATS:
        closed_form_matches_evaluate(p, invs, every=1)


@slow
@pytest.mark.parametrize("q, top", [(3, 7), (5, 5), (7, 4)])
def test_den_poly_matches_terstiege_rank3(q, top):
    fld = field(q)
    for a in range(top + 1):
        for b in range(a, top + 1, 2):
            L = lattice_from_invariants(fld, tuple(sorted((a, b, 1))))
            assert den_poly(L).coeffs == terstiege_rank3(a, b, q).coeffs, (q, a, b)
