"""Re-runnable mutants for the overlattice search, the closed vertical-cycle
function, the integer echelon form and invariants, and the oracle's closed
count of two non-unit columns.

Each mutant names a source file, an exact text in it, the text that replaces
it and the tests that must fail once it is replaced.  The script copies the
repository to a temporary directory, applies one mutant at a time there and
runs only its tests, so the checkout itself is never touched:

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py --list       # names only
    python3 scripts/mutants.py NAME ...     # the named mutants

It exits 1 if a mutant survives (its tests pass), if its tests cannot run,
or if its old text does not occur exactly once in its file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


OVERLAT = "src/hermsiegel/overlat.py"
FAMILY = "tests/test_overlat.py::test_family_matches_unpruned_search"
ORDER = "tests/test_overlat.py::test_search_order_matches_unpruned_search"
COUNTS = "tests/test_overlat.py::test_candidate_counts"
SOLVER = "tests/test_overlat.py::test_entry_solutions_match_brute_force"
LINEAR = "tests/test_overlat.py::test_linear_congruence_matches_brute_force"
RANK = "tests/test_overlat.py::test_pair_rank_matches_kernel_count"
CONTAINS = "tests/test_overlat.py::test_submodules_contain_l"
BORDER = "tests/test_overlat.py::test_bordered_rank_on_every_hermitian_3x3_over_f9"
BORDER_RANDOM = "tests/test_overlat.py::test_bordered_rank_matches_full_elimination"
TYPE = "tests/test_overlat.py::test_bordered_type_matches_full_elimination"
SCHWARTZ = "src/hermsiegel/schwartz.py"
LATTICE = "src/hermsiegel/lattice.py"
CLOSED = "tests/test_schwartz.py::test_int_v_lambda_at_matches_evaluate"
VSUM = "tests/test_kr.py::test_vertical_sum_matches_reference"
ECHELON = "tests/test_lattice.py::test_integer_echelon_matches_exact"
DEFICIENT = "tests/test_lattice.py::test_rank_deficient_columns_take_the_exact_path"
REBASING = "tests/test_lattice.py::test_rebasing_keeps_key_and_invariants"
SMITH = "tests/test_lattice.py::test_smith_exponents_match_minors"
ORACLE = "src/hermsiegel/oracle.py"
PAIR = "tests/test_oracle.py::test_pair_count_closed_form_matches_tables"

MUTANTS = (
    Mutant(
        "depth one invariant too deep",
        OVERLAT,
        "[p ** (amax - a_sorted[i - 1]) for i in range(z + 1, r)]",
        "[p ** (amax - a_sorted[i - 1] + 1) for i in range(z + 1, r)]",
        (FAMILY,),
    ),
    Mutant(
        "Gram mod p left unconjugated",
        OVERLAT,
        "gmodp[m][j] = (wa // pam, -(wb // pam) % p)",
        "gmodp[m][j] = (wa // pam, wb // pam)",
        (FAMILY,),
    ),
    Mutant(
        "rows below not summed",
        OVERLAT,
        "            if j > i:\n                wa += below[j][0]\n",
        "            if j > i:\n                pass\n",
        (FAMILY,),
    ),
    Mutant(
        "pivot inverse dropped from the rank",
        OVERLAT,
        "ilog = n - log[prow[c]]",
        "ilog = log[prow[c]]",
        (RANK,),
    ),
    Mutant(
        "wrong digit modulus",
        OVERLAT,
        "delta = (hx * hx - eps * hy * hy - t) // pd % p",
        "delta = (hx * hx - eps * hy * hy - t) // p1 % p",
        (SOLVER, COUNTS),
    ),
    Mutant(
        "conj dropped from the linear coefficient",
        OVERLAT,
        "conds.append(((gx, -gy),",
        "conds.append(((gx, gy),",
        # only ties of three or more equal invariants reach it; (1,1,1,1) then
        # loses 32 of its 393 overlattices
        ("tests/test_overlat.py::test_profiles_rank_once_per_overlattice",),
    ),
    Mutant(
        "linear solution without the norm inverse",
        OVERLAT,
        "ninv = pow((cx * cx - eps * cy * cy) % pf, -1, pf)",
        "ninv = 1",
        (LINEAR, SOLVER, FAMILY),
    ),
    Mutant(
        "norm target without the unit inverse",
        OVERLAT,
        "-(below[m][0] // pwi) * ui % pT, T, p, eps, counter)",
        "-(below[m][0] // pwi) % pT, T, p, eps, counter)",
        (FAMILY,),
    ),
    Mutant(
        "identity block left out of H",
        OVERLAT,
        "H[l][l] = cvec[l][l] = (1, 0)",
        "cvec[l][l] = (1, 0)",
        (FAMILY,),
    ),
    Mutant(
        "unit diagonal left out of the Gram mod p",
        OVERLAT,
        "gmodp[l][l] = (vdiag[l][0] // pam, -(vdiag[l][1] // pam) % p)",
        "pass",
        (FAMILY,),
    ),
    Mutant(
        "solutions left unsorted",
        OVERLAT,
        "    partial.sort()\n",
        "",
        (SOLVER, ORDER),
    ),
    Mutant(
        "containment residue with the wrong sign",
        OVERLAT,
        "x = (-(sx // pg) % step, -(sy // pg) % step)",
        "x = ((sx // pg) % step, (sy // pg) % step)",
        (CONTAINS, COUNTS),
    ),
    Mutant(
        "conj dropped in conj(y) b",
        OVERLAT,
        "        dx -= yx * bx - eps * yy * by\n        dy -= yx * by - yy * bx\n",
        "        dx -= yx * bx + eps * yy * by\n        dy -= yx * by + yy * bx\n",
        (BORDER, BORDER_RANDOM, TYPE),
    ),
    Mutant(
        "border outside the image of the leading block not seen",
        OVERLAT,
        "            return rho + 2\n",
        "            pass\n",
        (BORDER, BORDER_RANDOM, TYPE),
    ),
    Mutant(
        "leading block left stale",
        OVERLAT,
        "            if m == r - 2:\n",
        "            if m == r - 2 and lead[0][2] == []:\n",
        (TYPE, FAMILY),
    ),
    Mutant(
        "factor 2 dropped from the linear digit step",
        OVERLAT,
        "f = pow(2 * hx, -1, p)",
        "f = pow(hx, -1, p)",
        (SOLVER, FAMILY),
    ),
    Mutant(
        "digit of a unit hy solved with the wrong sign",
        OVERLAT,
        "ay = hy + pd * (delta * pow(2 * eps * hy, -1, p) % p)",
        "ay = hy + pd * (-delta * pow(2 * eps * hy, -1, p) % p)",
        (SOLVER,),
    ),
    Mutant(
        "non-unit shortcut applied when the last digit is due mod p^T",
        OVERLAT,
        "            if pm > p1:\n",
        "            if pm > p1 and (hx % p or hy % p):\n",
        (SOLVER,),
    ),
    Mutant(
        "1 - q in place of 1 - q^2 on the vertex lattice",
        SCHWARTZ,
        "return Fraction(1 - q * q)",
        "return Fraction(1 - q)",
        (CLOSED, VSUM),
    ),
    Mutant(
        "value 1 without the integrality of (x, x)",
        SCHWARTZ,
        "return Fraction(1) if Lambda.space.norm(x).valuation() >= 0 else Fraction(0)",
        "return Fraction(1)",
        (CLOSED,),
    ),
    Mutant(
        "echelon pivot accepted at the precision left",
        LATTICE,
        "        best, bestv = None, prec\n",
        "        best, bestv = None, prec + 1\n",
        (ECHELON,),
    ),
    Mutant(
        "echelon form accepted with fewer than n pivots",
        LATTICE,
        "        if best is None:\n            return None\n",
        "        if best is None:\n            continue\n",
        (DEFICIENT,),
    ),
    Mutant(
        "conjugate dropped from the unit inverse of the invariants",
        LATTICE,
        "fa, fb = (a * ua - eps * b * ub) * ninv % P, (b * ua - a * ub) * ninv % P",
        "fa, fb = (a * ua + eps * b * ub) * ninv % P, (b * ua + a * ub) * ninv % P",
        # a Gram matrix mostly pivots on its diagonal, whose entries are in
        # F0, where the conjugate changes nothing
        (SMITH, REBASING),
    ),
    Mutant(
        "trace term spread by the valuation of x, not min(v, s)",
        ORACLE,
        "        w = min(v, s)\n",
        "        w = v\n",
        (PAIR,),
    ),
    Mutant(
        "x = 0 term dropped from the pair count",
        ORACLE,
        "D = [0] * N + [p ** (2 * s)]",
        "D = [0] * (N + 1)",
        (PAIR,),
    ),
    Mutant(
        "unit classes counted without the factor q - 1",
        ORACLE,
        "n_v // ((p - 1) * p ** (M - e_v - 1))",
        "n_v // p ** (M - e_v - 1)",
        (PAIR,),
    ),
)


def check_texts(mutants=MUTANTS, root=ROOT):
    """The mutants whose old text does not occur exactly once, with its count."""
    bad = []
    for mut in mutants:
        n = (root / mut.file).read_text().count(mut.old)
        if n != 1:
            bad.append((mut, n))
    return bad


def _run(mut, copy):
    """Apply `mut` in `copy`, run its tests there and restore the file.
    Returns 'killed', 'survived' or 'error'."""
    path = copy / mut.file
    text = path.read_text()
    path.write_text(text.replace(mut.old, mut.new))
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mut.tests],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
        )
    finally:
        path.write_text(text)
    # pytest exits 1 when tests ran and some failed, 0 when all passed, and
    # with another code when they could not be collected or run
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="run only these mutants")
    ap.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = ap.parse_args(argv)
    if args.list:
        for mut in MUTANTS:
            print(mut.name)
        return 0
    unknown = set(args.names) - {mut.name for mut in MUTANTS}
    if unknown:
        ap.error(f"no mutant named {', '.join(sorted(unknown))}")
    chosen = [mut for mut in MUTANTS if not args.names or mut.name in args.names]
    bad = check_texts(chosen)
    for mut, n in bad:
        print(f"{mut.name}: old text occurs {n} times in {mut.file}, expected once")
    if bad:
        return 1
    failed = 0
    with tempfile.TemporaryDirectory(prefix="hermsiegel-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".perfbench-out", ".pytest_cache")
        shutil.copytree(ROOT, copy, ignore=skip)
        for mut in chosen:
            outcome = _run(mut, copy)
            failed += outcome != "killed"
            print(f"{outcome:8} {mut.name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
