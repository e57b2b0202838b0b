"""Command-line front end.

Exit codes: 0 success, 1 verification failure or another library error
(an oracle shape the structured count does not support among them), 2 usage
error, 3 budget exceeded.  All numeric output is exact; fractions print as
"a/b".
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import decomp, density, kr, oracle, overlat, schwartz
from .config import RunConfig
from .errors import BudgetExceeded, HermSiegelError, UsageError
from .lattice import (
    EmbeddedLattice,
    FElem,
    flat_from_invariants,
    lattice_from_invariants,
    lattice_from_json,
    random_unimodular,
    rebased,
    with_valuation,
)
from .ring import field


def _fr(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not JSON: {exc}") from exc


# what building an object from a JSON document of the wrong shape raises: a
# missing key, a value of the wrong type, an empty list or a bad number
_SHAPE_ERRORS = (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError)


def _from_json(path, build):
    """build(document) for the JSON file at path; a document of the wrong
    shape is a usage error."""
    obj = _read_json(path)
    try:
        return build(obj)
    except _SHAPE_ERRORS as exc:
        raise UsageError(f"{path} has the wrong shape: {type(exc).__name__}: {exc}") from exc


def _parse_inv(text):
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"bad invariants list {text!r}") from exc


def _load_lattice(args, cfg) -> EmbeddedLattice:
    if getattr(args, "lattice", None):
        return _from_json(args.lattice, lattice_from_json)
    if getattr(args, "gram", None):
        fld = field(cfg.p, cfg.eps)
        from .lattice import HermSpace, mat, mident

        def build(obj):
            gram = mat([[FElem.from_json(fld, x) for x in row] for row in obj["gram"]])
            space = HermSpace(fld, gram)
            return EmbeddedLattice(space, mident(fld, space.dim))

        return _from_json(args.gram, build)
    if getattr(args, "inv", None):
        fld = field(cfg.p, cfg.eps)
        kind = None
        if getattr(args, "nonsplit", False):
            kind = "nonsplit"
        elif getattr(args, "split", False):
            kind = "split"
        return lattice_from_invariants(fld, _parse_inv(args.inv), kind)
    raise UsageError("provide --lattice FILE, --gram FILE or --inv LIST")


def _load_flat(args, cfg):
    if getattr(args, "flat", None):
        L = _from_json(args.flat, lattice_from_json)
        from .decomp import perp_generator

        return L, perp_generator(L)
    if getattr(args, "flat_inv", None):
        fld = field(cfg.p, cfg.eps)
        kind = "split" if getattr(args, "split", False) else "nonsplit"
        return flat_from_invariants(fld, _parse_inv(args.flat_inv), kind)
    raise UsageError("provide --flat FILE or --flat-inv LIST")


def _load_vector(args, space):
    if getattr(args, "x", None):
        return _from_json(args.x, lambda obj: tuple(FElem.from_json(space.params, c) for c in obj))
    raise UsageError("provide --x FILE")


# ---------------------------------------------------------------------------
# subcommands


def cmd_invariants(args, cfg):
    L = _load_lattice(args, cfg)
    inv = tuple(L.invariants())
    if args.json:
        print(json.dumps({"invariants": list(inv), "val": sum(inv), "vol": _fr(L.vol())}))
    else:
        print(" ".join(str(a) for a in inv))
    return 0


def cmd_den(args, cfg):
    L = _load_lattice(args, cfg)
    budget = cfg.enum_budget
    if args.almost_self_dual:
        pol = density.den_lambda_poly(L, budget)
    else:
        pol = density.den_poly(L, budget)
    if args.what == "poly":
        if args.json:
            print(json.dumps(pol.to_json()))
        else:
            print(str(pol))
    elif args.what == "derived":
        val = density.derived_den_lambda(L, budget) if args.almost_self_dual else density.derived_den(L, budget)
        print(json.dumps({"derived": _fr(val)}) if args.json else _fr(val))
    elif args.what == "value":
        try:
            x = Fraction(args.at)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --at value {args.at!r}") from exc
        val = pol(x)
        print(json.dumps({"value": _fr(val), "at": _fr(x)}) if args.json else _fr(val))
    return 0


def cmd_oracle(args, cfg):
    fld = field(cfg.p, cfg.eps)
    M = lattice_from_invariants(fld, _parse_inv(args.M))
    L = lattice_from_invariants(fld, _parse_inv(args.L))
    if args.what == "count":
        c = oracle.count_rep(M, L, args.N, cfg.oracle_budget)
        print(json.dumps({"N": args.N, "count": c}) if args.json else str(c))
    else:
        rc = oracle.den_oracle(M, L, cfg.oracle_budget)
        out = {"N": rc.N, "count": rc.count, "normalized": _fr(rc.normalized), "stabilized": rc.stabilized}
        print(json.dumps(out) if args.json else f"{_fr(rc.normalized)} (stabilized: {rc.stabilized})")
    return 0


def cmd_overlat(args, cfg):
    L = _load_lattice(args, cfg)
    recs = overlat.integral_overlattices(L, cfg.enum_budget)
    if args.cyclic:
        recs = [r for r in recs if r.cyclic_flag]
    if args.type is not None:
        recs = [r for r in recs if r.type_t == args.type]
    out = [
        {
            "invariants": list(r.lattice.invariants()),
            "length": r.length,
            "type": r.type_t,
            "cyclic": r.cyclic_flag,
        }
        for r in recs
    ]
    print(json.dumps(out))
    return 0


def cmd_decomp(args, cfg):
    Lf, w = _load_flat(args, cfg)
    if getattr(args, "x_val", None) is not None:
        v0 = int(Lf.space.vector_val(w))
        if (args.x_val - v0) % 2:
            raise UsageError(f"perpendicular valuations have parity {v0 % 2} in this space")
        x = with_valuation(Lf.space, w, args.x_val)
    else:
        x = _load_vector(args, Lf.space)
    fp = decomp.FlatPair(Lf, x)
    budget = cfg.enum_budget
    if args.what == "eval":
        out = {
            "pden": _fr(decomp.pden_x(fp, budget)),
            "horizontal": _fr(decomp.pden_horizontal(fp, budget)),
            "vertical": _fr(decomp.pden_vertical(fp, budget)),
        }
        print(json.dumps(out))
        return 0
    if args.what == "fourier-check":
        hf, hh = decomp.fourier_pden_perp(fp, budget)
        ok = hf == hh
        print(json.dumps({"hat_full": _fr(hf), "hat_horizontal": _fr(hh), "equal": ok}))
        return 0 if ok else 1
    if args.what == "diff-check":
        ok_full, ok_h = decomp.diff_identity_check(fp, budget)
        print(json.dumps({"full": ok_full, "horizontal": ok_h}))
        return 0 if (ok_full and ok_h) else 1
    raise UsageError(f"unknown decomp action {args.what!r}")


def cmd_schwartz(args, cfg):
    if getattr(args, "lam", None):
        Lam = _from_json(args.lam, lattice_from_json)
    else:
        fld = field(cfg.p, cfg.eps)
        n = args.dim
        Lam = lattice_from_invariants(fld, (0,) * (n - 3) + (1, 1, 1))
    ok = schwartz.local_modularity_check(Lam, cfg.enum_budget)
    print(json.dumps({"modular": ok}))
    return 0 if ok else 1


def cmd_kr(args, cfg):
    budget = cfg.enum_budget
    if args.what == "int":
        L = _load_lattice(args, cfg)
        if args.case == "selfdual":
            res = kr.int_selfdual(L, budget)
        elif args.case == "asd":
            res = kr.int_almost_selfdual(L, budget)
        elif args.case == "prime":
            res = kr.int_prime(L, budget)
        else:
            raise UsageError(f"unknown case {args.case!r}")
        if args.json:
            print(json.dumps({"value": _fr(res.value), "tag": res.theorem_tag, "invariants": list(res.invariants)}))
        else:
            print(_fr(res.value))
        return 0
    if args.what == "verify-n3":
        Lf, w = _load_flat(args, cfg)
        ok = kr.vertical_identity_n3(Lf, budget=budget)
        print(json.dumps({"identity": ok}))
        return 0 if ok else 1
    if args.what == "table":
        return cmd_kr_table(args, cfg)
    raise UsageError(f"unknown kr action {args.what!r}")


def cmd_kr_table(args, cfg):
    grid = _from_json(args.inv_grid, lambda spec: [tuple(sorted(int(a) for a in invs)) for invs in spec["invariants"]])
    fld = field(cfg.p, cfg.eps)
    rows = []
    for invs in grid:
        L = lattice_from_invariants(fld, invs)
        pol = density.den_poly(L, cfg.enum_budget)
        if sum(invs) % 2 == 1:
            dd = density.derived_den(L, cfg.enum_budget)
            iv = kr.int_selfdual(L, cfg.enum_budget).value
        else:
            dd = density.derived_den_lambda(L, cfg.enum_budget)
            iv = kr.int_almost_selfdual(L, cfg.enum_budget).value
        rows.append({"invariants": list(invs), "den": str(pol), "derived": _fr(dd), "int": _fr(iv)})
    fmt = args.out
    if fmt == "json":
        print(json.dumps(rows))
    elif fmt == "csv":
        print("invariants,den,derived,int")
        for r in rows:
            print(f"\"{' '.join(map(str, r['invariants']))}\",\"{r['den']}\",{r['derived']},{r['int']}")
    elif fmt == "latex":
        print("\\begin{tabular}{llll}")
        print("invariants & density polynomial & derivative & intersection \\\\")
        for r in rows:
            inv = "(" + ", ".join(map(str, r["invariants"])) + ")"
            print(f"${inv}$ & ${r['den']}$ & ${r['derived']}$ & ${r['int']}$ \\\\")
        print("\\end{tabular}")
    else:
        raise UsageError(f"unknown table format {fmt!r}")
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _random_invariants(rng, max_rank, max_val):
    r = rng.randint(1, max_rank)
    while True:
        invs = sorted(rng.randint(0, max_val) for _ in range(r))
        if sum(invs) <= max_val:
            return tuple(invs)


def _random_lattice(fld, rng, max_rank=4, max_val=6):
    invs = _random_invariants(rng, max_rank, max_val)
    L = lattice_from_invariants(fld, invs)
    return rebased(L, random_unimodular(fld, L.rank, rng))


def suite_functional_eq(cfg, rng, count=50):
    fld = field(cfg.p, cfg.eps)
    for _ in range(count):
        L = _random_lattice(fld, rng)
        if not density.functional_eq_check(L, cfg.enum_budget):
            return False
    return True


def suite_special_values(cfg, rng, count=25):
    fld = field(cfg.p, cfg.eps)
    q = fld.q
    for _ in range(count):
        L = _random_lattice(fld, rng, max_rank=3, max_val=5)
        recs = overlat.integral_overlattices(L, cfg.enum_budget)
        if density.den_central(L, cfg.enum_budget) != sum(1 for r in recs if r.type_t == 0):
            return False
        dmq = density.den_value(L, -q, cfg.enum_budget)
        if dmq != sum(q ** (2 * r.length) * density.weight_m_der(r.type_t + 1, q) for r in recs):
            return False
        if dmq != density.den_value(L, Fraction(-1, q), cfg.enum_budget) / L.vol():
            return False
    return True


def suite_induction(cfg, rng, count=20):
    fld = field(cfg.p, cfg.eps)
    for _ in range(count):
        invs = _random_invariants(rng, 3, 4)
        kind = rng.choice(["split", "nonsplit"])
        Lf, w = flat_from_invariants(fld, invs, kind)
        x = with_valuation(Lf.space, w, max(invs) + 1)
        if not density.induction_check(Lf, x, cfg.enum_budget):
            return False
    return True


def suite_diff(cfg, rng, count=20):
    fld = field(cfg.p, cfg.eps)
    for _ in range(count):
        invs = _random_invariants(rng, 3, 4)
        kind = rng.choice(["split", "nonsplit"])
        Lf, w = flat_from_invariants(fld, invs, kind)
        x = with_valuation(Lf.space, w, max(invs) + 1)
        if decomp.diff_identity_check(decomp.FlatPair(Lf, x), cfg.enum_budget) != (True, True):
            return False
    return True


def suite_vanishing(cfg, rng, count=20):
    fld = field(cfg.p, cfg.eps)
    for _ in range(count):
        invs = _random_invariants(rng, 3, 4)
        kind = rng.choice(["split", "nonsplit"])
        Lf, w = flat_from_invariants(fld, invs, kind)
        x = with_valuation(Lf.space, w, -2)
        hf, hh = decomp.fourier_pden_perp(decomp.FlatPair(Lf, x), cfg.enum_budget)
        if hf != hh:
            return False
    return True


def suite_modularity(cfg, rng):
    fld = field(cfg.p, cfg.eps)
    for n in (3, 5):
        Lam = lattice_from_invariants(fld, (0,) * (n - 3) + (1, 1, 1))
        if not schwartz.local_modularity_check(Lam, cfg.enum_budget):
            return False
    return True


def suite_cancellation(cfg, rng, count=10):
    fld = field(cfg.p, cfg.eps)
    for _ in range(count):
        invs = _random_invariants(rng, 2, 5)
        if sum(invs) % 2 == 0:
            invs = invs[:-1] + (invs[-1] + 1,)
        L0 = lattice_from_invariants(fld, invs)
        base = density.derived_den(L0, cfg.enum_budget)
        for r in (1, 2):
            L = lattice_from_invariants(fld, (0,) * r + invs)
            if density.derived_den(L, cfg.enum_budget) != base:
                return False
    return True


def suite_horizontal_degree(cfg, rng, count=15):
    fld = field(cfg.p, cfg.eps)
    for _ in range(count):
        invs = _random_invariants(rng, 3, 5)
        L = lattice_from_invariants(fld, invs)
        kr.horizontal_degree(L, cfg.enum_budget)  # raises on mismatch
    return True


def suite_eisenstein(cfg, rng):
    fld = field(cfg.p, cfg.eps)
    return kr.eisenstein_ratio_check(2, fld, cfg.enum_budget) and kr.eisenstein_ratio_check(3, fld, cfg.enum_budget)


def suite_oracle_tiny(cfg, rng):
    fld = field(cfg.p, cfg.eps)
    q = fld.q
    for invs in [(0,), (1,), (2,), (0, 1), (1, 1)]:
        L = lattice_from_invariants(fld, invs)
        n = len(invs)
        for k in (0, 1):
            M = lattice_from_invariants(fld, (0,) * (n + k))
            num = oracle.den_oracle(M, L, cfg.oracle_budget)
            den = oracle.den_oracle(M, lattice_from_invariants(fld, (0,) * n), cfg.oracle_budget)
            if not (num.stabilized and den.stabilized):
                return False
            if num.normalized / den.normalized != density.den_poly(L, cfg.enum_budget)(Fraction(-q) ** (-k)):
                return False
    return True


def suite_vertical(cfg, rng, count=3):
    # rank-2 flats in the nonsplit space of dimension 3, invariant sum <= 4
    fld = field(cfg.p, cfg.eps)
    for _ in range(count):
        a = rng.randint(0, 2)
        Lf, _ = flat_from_invariants(fld, (a, rng.randint(a, 4 - a)), "nonsplit")
        if not kr.vertical_identity_n3(Lf, budget=cfg.enum_budget):
            return False
    return True


def suite_closed_forms(cfg, rng):
    # Gross's rank-1 and Kudla-Rapoport's rank-2 values against the derived
    # density, on every class with a <= 3 and b <= 6
    fld = field(cfg.p, cfg.eps)
    for a in range(1, 7, 2):
        if kr.int_selfdual(lattice_from_invariants(fld, (a,)), cfg.enum_budget).value != kr.int_rank1_closed(a):
            return False
    for a in range(4):
        for b in range(a + 1, 7, 2):
            L = lattice_from_invariants(fld, (a, b))
            if kr.int_selfdual(L, cfg.enum_budget).value != kr.int_rank2_closed(a, b, fld.q):
                return False
    return True


SUITES = {
    "functional-eq": suite_functional_eq,
    "special-values": suite_special_values,
    "induction": suite_induction,
    "diff": suite_diff,
    "vanishing": suite_vanishing,
    "modularity": suite_modularity,
    "cancellation": suite_cancellation,
    "horizontal-degree": suite_horizontal_degree,
    "eisenstein": suite_eisenstein,
    "oracle-tiny": suite_oracle_tiny,
    "vertical": suite_vertical,
    "closed-forms": suite_closed_forms,
}


def cmd_verify(args, cfg):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rng = random.Random(cfg.seed)
    failed = []
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        ok = SUITES[name](cfg, rng)
        print(f"{name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=3)
    common.add_argument("--eps", type=int, default=None)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--seed", type=int, default=0)

    top = argparse.ArgumentParser(prog="hermsiegel", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    def lattice_opts(sp):
        sp.add_argument("--lattice")
        sp.add_argument("--gram")
        sp.add_argument("--inv")
        sp.add_argument("--split", action="store_true")
        sp.add_argument("--nonsplit", action="store_true")
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("invariants", parents=[common])
    lattice_opts(sp)

    sp = sub.add_parser("den", parents=[common])
    sp.add_argument("what", choices=["poly", "derived", "value"])
    sp.add_argument("--almost-self-dual", action="store_true")
    sp.add_argument("--at", default="1")
    lattice_opts(sp)

    sp = sub.add_parser("oracle", parents=[common])
    sp.add_argument("what", choices=["count", "den"])
    sp.add_argument("--M", required=True, help="invariants of the representing lattice")
    sp.add_argument("--L", required=True, help="invariants of the represented lattice")
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("overlat", parents=[common])
    sp.add_argument("what", choices=["list"])
    sp.add_argument("--cyclic", action="store_true")
    sp.add_argument("--type", type=int, default=None)
    lattice_opts(sp)

    sp = sub.add_parser("decomp", parents=[common])
    sp.add_argument("what", choices=["eval", "fourier-check", "diff-check"])
    sp.add_argument("--flat")
    sp.add_argument("--flat-inv")
    sp.add_argument("--x")
    sp.add_argument("--x-val", type=int, default=None)
    sp.add_argument("--split", action="store_true")
    sp.add_argument("--nonsplit", action="store_true")

    sp = sub.add_parser("schwartz", parents=[common])
    sp.add_argument("what", choices=["modularity"])
    sp.add_argument("--lambda", dest="lam")
    sp.add_argument("--dim", type=int, default=3)

    sp = sub.add_parser("kr", parents=[common])
    sp.add_argument("what", choices=["int", "verify-n3", "table"])
    sp.add_argument("--case", choices=["selfdual", "asd", "prime"], default="selfdual")
    sp.add_argument("--flat")
    sp.add_argument("--flat-inv")
    sp.add_argument("--inv-grid")
    sp.add_argument("--out", choices=["csv", "json", "latex"], default="json")
    lattice_opts(sp)

    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("--suite", default="all")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "invariants": cmd_invariants,
        "den": cmd_den,
        "oracle": cmd_oracle,
        "overlat": cmd_overlat,
        "decomp": cmd_decomp,
        "schwartz": cmd_schwartz,
        "kr": cmd_kr,
        "verify": cmd_verify,
    }
    try:
        cfg = RunConfig(p=args.p, eps=args.eps, seed=args.seed)
        if args.budget is not None:
            cfg.enum_budget = args.budget
            cfg.oracle_budget = args.budget
        return handlers[args.cmd](args, cfg)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HermSiegelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
