#!/usr/bin/env python3
"""Compare the counting oracle against the overlattice formula on a small
grid and report the exact normalized counts and stabilization flags.

Usage: python scripts/oracle_report.py [--p 3] [--max-val 2] [--max-rank 2]
"""

import argparse
import itertools
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hermsiegel.density import den_poly
from hermsiegel.errors import UnsupportedShape
from hermsiegel.lattice import lattice_from_invariants
from hermsiegel.oracle import den_oracle
from hermsiegel.ring import field


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--max-rank", type=int, default=2)
    ap.add_argument("--max-val", type=int, default=2)
    args = ap.parse_args()
    fld = field(args.p)
    q = fld.q
    for r in range(1, args.max_rank + 1):
        for invs in itertools.combinations_with_replacement(range(args.max_val + 1), r):
            if sum(invs) > args.max_val:
                continue
            L = lattice_from_invariants(fld, invs)
            for k in (0, 1):
                t0 = time.time()
                M = lattice_from_invariants(fld, (0,) * (r + k))
                try:
                    num = den_oracle(M, L)
                    den = den_oracle(M, lattice_from_invariants(fld, (0,) * r))
                except UnsupportedShape:
                    print(f"inv {str(invs):<10} k={k}  unsupported  ({time.time()-t0:.2f}s)")
                    continue
                ratio = num.normalized / den.normalized
                expected = den_poly(L)(Fraction(-q) ** (-k))
                status = "ok" if ratio == expected and num.stabilized else "MISMATCH"
                print(
                    f"inv {str(invs):<10} k={k}  ratio {str(ratio):<12} "
                    f"formula {str(expected):<12} stabilized={num.stabilized} "
                    f"{status}  ({time.time()-t0:.2f}s)"
                )


if __name__ == "__main__":
    main()
