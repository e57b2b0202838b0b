#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the exact answers the benchmark checks
den-stream and den-cold requests against.

    python3 perfbench/make_reference.py

Every answer is computed in the diagonal model and cross-checked, before it
is written, against the closed low-rank forms where their shapes apply
(rank1_closed, sankaran_rank2, terstiege_rank3), against the functional
equation, and against the intersection-number definitions.  Any disagreement
aborts without writing.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from hermsiegel import density, kr  # noqa: E402
from hermsiegel.lattice import lattice_from_invariants  # noqa: E402
from hermsiegel.ring import field  # noqa: E402

import workloads as wl  # noqa: E402


class CrossCheckFailed(AssertionError):
    pass


def _check(ok, what, p, invs):
    if not ok:
        raise CrossCheckFailed(f"{what} fails at p = {p}, invariants {invs}")


def _closed_form_checks(p, invs, pol, lam_pol):
    q = p
    val = sum(invs)
    _check(pol.functional_equation_holds(val), "functional equation", p, invs)
    if lam_pol is not None:
        _check(lam_pol.functional_equation_holds(val + 1), "functional equation of Den_Lambda", p, invs)
    if len(invs) == 1:
        _check(pol.coeffs == density.rank1_closed(invs[0], q).coeffs, "rank1_closed", p, invs)
    if len(invs) == 2 and val % 2 == 0:
        _check(lam_pol.coeffs == density.sankaran_rank2(invs[0], invs[1], q).coeffs, "sankaran_rank2", p, invs)
    if len(invs) == 3 and 1 in invs:
        rest = list(invs)
        rest.remove(1)
        if sum(rest) % 2 == 0:
            _check(pol.coeffs == density.terstiege_rank3(rest[0], rest[1], q).coeffs, "terstiege_rank3", p, invs)


def reference_rows(p, invs, kinds):
    """Reference rows for one (p, invariants), for the requested kinds."""
    fld = field(p)
    q = fld.q
    L = lattice_from_invariants(fld, invs)
    pol = density.den_poly(L)
    odd = sum(invs) % 2 == 1
    lam_pol = None if odd else density.den_lambda_poly(L)
    _closed_form_checks(p, invs, pol, lam_pol)
    if odd:
        dd = density.derived_den(L)
        _check(dd == -pol.derivative_at_one(), "derivative", p, invs)
        ints = {"row-selfdual": kr.int_selfdual(L).value}
        _check(ints["row-selfdual"] == dd, "int_selfdual = derived density", p, invs)
    else:
        dd = density.derived_den_lambda(L)
        _check(dd == -lam_pol.derivative_at_one(), "relative derivative", p, invs)
        ints = {"row-asd": kr.int_almost_selfdual(L).value, "row-prime": kr.int_prime(L).value}
        _check(ints["row-asd"] == dd / (q + 1), "int_almost_selfdual", p, invs)
        _check(ints["row-prime"] == (dd - pol(1)) / (q + 1), "int_prime", p, invs)
    base = {"p": p, "invariants": list(invs), "den": list(pol.coeffs), "derived": str(Fraction(dd))}
    rows = []
    for kind in kinds:
        row = dict(base, kind=kind)
        if kind != "cold":
            row["int"] = str(Fraction(ints[kind]))
        rows.append(row)
    return rows


def main():
    wanted = {}
    for p, invs in wl.stream_catalogue():
        wanted.setdefault((p, invs), set()).update(["row-selfdual"] if sum(invs) % 2 else ["row-asd", "row-prime"])
    for p, invs in wl.COLD_CATALOGUE:
        wanted.setdefault((p, invs), set()).add("cold")
    rows = []
    for (p, invs), kinds in sorted(wanted.items()):
        rows += reference_rows(p, invs, sorted(kinds))
        print(f"p = {p} {invs}: {', '.join(sorted(kinds))}", flush=True)
    out = {"generated_by": "perfbench/make_reference.py", "rows": rows}
    wl.REFERENCE_PATH.write_text(json.dumps(out, indent=0) + "\n")
    print(f"{len(rows)} rows written to {wl.REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
