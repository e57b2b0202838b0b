"""Workload definitions for the hermsiegel benchmark.

Every workload is a seeded stream of requests, generated in set-up as plain
data (p, invariants, presentation, unimodular seed, ...), and organised in
passes.  A pass of den-stream is a round of fixed composition, a pass of
den-cold is its catalogue of distinct keys, and a pass of oracle-crosscheck
or identity-sweep is its whole grid.  A run is a whole number of passes (see
`pass_count`), so every run covers the same mix of work whatever the seed.
Each pass of den-cold and identity-sweep runs in a fresh process of its
own, so that every pass starts with empty memos.  Each request builds its own
lattice inside the timed region and checks its answer exactly, against the
reference table or against the identity it evaluates.

The request functions reach the library only through the `api` namespace that
`bind_api` returns, so that the traced run can wrap every entry call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("den-stream", "den-cold", "oracle-crosscheck", "identity-sweep")
PRESENTATIONS = ("diag", "rebased", "standard")

# ---------------------------------------------------------------------------
# catalogues


def _invariant_grid(max_rank, max_val, min_rank=1):
    for r in range(min_rank, max_rank + 1):
        for invs in itertools.combinations_with_replacement(range(max_val + 1), r):
            if sum(invs) <= max_val:
                yield tuple(invs)


# Table rows whose cold memo entries cost more than about 0.3 s on the parent
# commit; the almost-self-dual derivative of (2,2,2) at p = 3 alone takes 12 s
# and that of (1,1,2) at p = 5 takes 17 s.  The heavy rows belong to den-cold.
# Here a cold first round that fills half a run would let the memo-filling
# cost drown the repeats this workload is for.
_STREAM_EXCLUDED = {
    (3, (1, 1, 2)), (3, (1, 1, 4)), (3, (1, 2, 3)), (3, (2, 2, 2)), (3, (3, 3)),
    (5, (0, 2, 2)), (5, (1, 1, 2)), (5, (2, 2)),
}


def stream_catalogue():
    """(p, invariants) of the den-stream catalogue, most popular first."""
    items = [(3, invs) for invs in _invariant_grid(3, 6)]
    items += [(3, invs) for invs in _invariant_grid(4, 3, min_rank=4)]
    items += [(5, invs) for invs in _invariant_grid(3, 4)]
    items = [it for it in items if it not in _STREAM_EXCLUDED]
    # popularity falls with valuation, then rank: small lattices are the
    # common requests
    return sorted(items, key=lambda it: (sum(it[1]), len(it[1]), it[0], it[1]))


# The heavy end of den_poly plus its derivative, each 0.05-1.5 s cold on the
# parent commit and about 9 s in all; heavier shapes are listed under known
# limits in perfbench/README.md.  The median latency falls among several
# entries of 0.14-0.18 s, not in a gap between clusters of cost.  No even-valuation entry L has its extension
# L + <p> (what derived_den_lambda enumerates) in the catalogue, so no request
# reuses another's memo entry.
COLD_CATALOGUE = (
    (3, (3, 5)), (3, (3, 8)), (3, (3, 10)), (3, (4, 5)), (3, (4, 6)),
    (3, (0, 2, 2)), (3, (0, 2, 4)), (3, (0, 3, 3)), (3, (0, 3, 5)), (3, (0, 4, 5)),
    (3, (1, 1, 2)), (3, (1, 1, 4)), (3, (1, 1, 5)), (3, (1, 1, 7)), (3, (1, 2, 2)),
    (3, (1, 2, 4)), (3, (1, 3, 3)), (3, (1, 4, 4)),
    (3, (0, 0, 2, 2)), (3, (0, 0, 2, 4)), (3, (0, 0, 3, 3)), (3, (0, 1, 1, 2)),
    (5, (1, 7)), (5, (2, 2)), (5, (2, 4)),
    (5, (0, 1, 3)), (5, (0, 1, 7)), (5, (0, 2, 2)), (5, (0, 2, 4)), (5, (1, 1, 1)),
    (5, (1, 1, 3)), (5, (1, 1, 5)), (5, (0, 0, 1, 3)), (5, (0, 0, 1, 5)), (5, (0, 1, 1, 1)),
)

# Oracle grid: p = 3 with rank <= 2, val <= 3, k <= 2, and p = 5 entries
# under about 1 s on the parent commit.  (3,) at p = 5 with k = 0 builds the
# largest numpy tables of the grid.
ORACLE_GRID = tuple(
    [(3, invs, k) for invs in _invariant_grid(2, 3) for k in (0, 1, 2)]
    + [(5, invs, k) for invs in ((0,), (1,), (2,), (0, 0), (0, 1), (0, 0, 0), (0, 0, 1)) for k in (0, 1, 2)]
    + [(5, (3,), 0), (5, (0, 2), 0), (5, (0, 2), 1), (5, (1, 1), 0), (5, (1, 1), 1)]
    + [(5, (0, 0, 0, 0), 0)]
)

# identity-sweep checks at p = 3 (modularity also at p = 5), each under
# about 1.5 s cold on the parent commit except modularity at p = 5 (5-7 s).
# The Fourier checks at a perpendicular of valuation -2 are cheap; with them
# the median latency falls among many checks of similar cost, not in a gap.
VERTICAL_FLATS = ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2))
DIFF_FLATS = ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (0, 1, 1), (0, 1, 2), (0, 0, 3))
FOURIER_FLATS = DIFF_FLATS + ((2, 2), (1, 1, 1), (1, 1, 2))
MODULARITY_PRIMES = (3, 5)


def identity_checks():
    out = [("vertical", 3, invs, None) for invs in VERTICAL_FLATS]
    for invs in DIFF_FLATS:
        out += [("diff", 3, invs, max(invs) + d) for d in (1, 2)]
    out += [("fourier", 3, invs, -1) for invs in FOURIER_FLATS]
    out += [("fourier", 3, invs, -2) for invs in DIFF_FLATS]
    out += [("modularity", p, (1, 1, 1), None) for p in MODULARITY_PRIMES]
    return out


# Typical pass times on the parent commit.  A run makes the smallest number
# of passes that lasts --seconds at these times.  The number that fits before a
# deadline would change with the machine's speed, and each extra pass would
# shift the mix and the tail by a step; in den-stream it would also shift the
# share of the cold first round, so throughput would fall faster than the
# machine slows.
PASS_SECONDS = {"den-stream": 2.5, "den-cold": 9.0, "oracle-crosscheck": 6.0, "identity-sweep": 13.0}

# Workloads whose every pass must start with empty memos, so each pass runs in
# a fresh process of its own.  den-cold has no repeats by design; in a second
# identity-sweep pass in the same process most checks would be memo hits.
FRESH_PROCESS_PASSES = ("den-cold", "identity-sweep")


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes a run of `workload` makes in `seconds`."""
    return max(1, math.ceil(seconds / PASS_SECONDS[workload]))


# ---------------------------------------------------------------------------
# request generation (plain data only)

# With the top entry this popular, the cheap rank-1 rows are 40% of a round
# and the cold first round a small share of a run.
_STREAM_TOP_COUNT = 60


def stream_round_counts():
    """Requests per catalogue item in one den-stream round: Zipf weights
    1/rank scaled so the most popular item appears _STREAM_TOP_COUNT times,
    every item at least once."""
    cat = stream_catalogue()
    return [(it, max(1, round(_STREAM_TOP_COUNT / (i + 1)))) for i, it in enumerate(cat)]


def stream_round():
    """One den-stream round as (p, invariants, presentation, kind), the same
    multiset for every seed: the j-th copy of the i-th catalogue item takes
    presentation i + j and, at even valuation, kind i + j, cycling, so the
    lattices and answers a round needs do not depend on the seed."""
    out = []
    for i, ((p, invs), count) in enumerate(stream_round_counts()):
        for j in range(i, i + count):
            kind = "selfdual" if sum(invs) % 2 else ("asd", "prime")[j % 2]
            out.append((p, invs, PRESENTATIONS[j % 3], kind))
    return out


def iter_passes(workload: str, seed: int):
    """Endless seeded passes (lists) of request tuples for `workload`.

    The first pass runs in one fixed order whatever the seed: requests share
    memo entries, and the order decides which request pays for them.  So
    does every pass of a workload whose passes each start with empty memos
    (FRESH_PROCESS_PASSES).  The seed orders the other passes and draws the
    bases of `rebased` presentations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    fixed_order = f"{workload}:first-pass"
    order = random.Random(fixed_order)
    if workload == "den-stream":
        base = [("row", p, invs, pres, None, kind) for p, invs, pres, kind in stream_round()]
    elif workload == "den-cold":
        base = [("cold", p, invs, PRESENTATIONS[i % 3], None, None) for i, (p, invs) in enumerate(COLD_CATALOGUE)]
    elif workload == "oracle-crosscheck":
        base = [("oracle", p, invs, "diag", 0, k) for p, invs, k in ORACLE_GRID]
    else:
        base = [(kind, p, invs, "diag", 0, arg) for kind, p, invs, arg in identity_checks()]
    while True:
        reqs = [(kind, p, invs, pres, rng.randrange(2**31) if useed is None else useed, arg)
                for kind, p, invs, pres, useed, arg in base]
        order.shuffle(reqs)
        order = random.Random(fixed_order) if workload in FRESH_PROCESS_PASSES else rng
        yield reqs


def repeat_shares(requests):
    """Shares of requests whose (p, invariants), and whose exact lattice,
    appeared earlier.  `diag` and `rebased` present the same lattice (a
    unimodular change of basis); `standard` is a different lattice in another
    ambient space, the same for every request with those invariants."""
    seen_class, seen_lattice = set(), set()
    hits_class = hits_lattice = 0
    for req in requests:
        _, p, invs, pres = req[:4]
        cls = (p, invs)
        lat = (p, invs, "standard" if pres == "standard" else "model")
        hits_class += cls in seen_class
        hits_lattice += lat in seen_lattice
        seen_class.add(cls)
        seen_lattice.add(lat)
    n = max(1, len(requests))
    return hits_class / n, hits_lattice / n


# ---------------------------------------------------------------------------
# the library entry points


def bind_api(wrap=None):
    """The library functions the requests call, each passed through `wrap`
    (the tracer's entry wrapper) when given."""
    from hermsiegel import decomp, density, kr, lattice, oracle, ring, schwartz

    fns = {
        "field": ring.field,
        "lattice_from_invariants": lattice.lattice_from_invariants,
        "lattice_in_standard_space": lattice.lattice_in_standard_space,
        "flat_from_invariants": lattice.flat_from_invariants,
        "random_unimodular": lattice.random_unimodular,
        "rebased": lattice.rebased,
        "den_poly": density.den_poly,
        "derived_den": density.derived_den,
        "derived_den_lambda": density.derived_den_lambda,
        "int_selfdual": kr.int_selfdual,
        "int_almost_selfdual": kr.int_almost_selfdual,
        "int_prime": kr.int_prime,
        "vertical_identity_n3": kr.vertical_identity_n3,
        "den_oracle": oracle.den_oracle,
        "FlatPair": decomp.FlatPair,
        "diff_identity_check": decomp.diff_identity_check,
        "fourier_pden_perp": decomp.fourier_pden_perp,
        "local_modularity_check": schwartz.local_modularity_check,
    }
    if wrap is not None:
        fns = {name: (fn if name == "FlatPair" else wrap(fn)) for name, fn in fns.items()}
    return SimpleNamespace(**fns)


def load_reference(path=REFERENCE_PATH):
    """{(p, invariants, kind): expected answer} from the reference table."""
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    return {(r["p"], tuple(r["invariants"]), r["kind"]): r for r in rows}


def _build(api, p, invs, pres, useed):
    fld = api.field(p)
    if pres == "standard":
        return fld, api.lattice_in_standard_space(fld, invs)
    L = api.lattice_from_invariants(fld, invs)
    if pres == "rebased":
        L = api.rebased(L, api.random_unimodular(fld, len(invs), random.Random(useed)))
    return fld, L


def _fr(x: Fraction) -> str:
    return str(Fraction(x))


def row_answer(api, L, kind):
    """The table-row answer (den coefficients, derivative, intersection)."""
    pol = api.den_poly(L)
    if kind == "selfdual":
        dd = api.derived_den(L)
        iv = api.int_selfdual(L).value
    else:
        dd = api.derived_den_lambda(L)
        iv = (api.int_almost_selfdual if kind == "asd" else api.int_prime)(L).value
    return {"den": list(pol.coeffs), "derived": _fr(dd), "int": _fr(iv)}


def cold_answer(api, L, odd):
    pol = api.den_poly(L)
    dd = api.derived_den(L) if odd else api.derived_den_lambda(L)
    return {"den": list(pol.coeffs), "derived": _fr(dd)}


def _flat_with_perp_val(api, fld, invs, vx):
    """A flat with the given invariants and a perpendicular x of valuation
    vx, in the ambient kind whose determinant parity allows it."""
    kind = "nonsplit" if (sum(invs) + vx) % 2 else "split"
    Lf, w = api.flat_from_invariants(fld, invs, kind)
    v0 = int(Lf.space.vector_val(w))
    scale = fld.elem(Fraction(fld.p) ** ((vx - v0) // 2))
    return api.FlatPair(Lf, tuple(scale * c for c in w))


def run_request(api, ref, req) -> bool:
    """Execute one request and return whether its answer is exactly right."""
    kind, p, invs, pres, useed, arg = req
    if kind == "row":
        _, L = _build(api, p, invs, pres, useed)
        return row_answer(api, L, arg) == _expected(ref, p, invs, "row-" + arg)
    if kind == "cold":
        _, L = _build(api, p, invs, pres, useed)
        return cold_answer(api, L, sum(invs) % 2 == 1) == _expected(ref, p, invs, "cold")
    fld = api.field(p)
    if kind == "oracle":
        q = fld.q
        L = api.lattice_from_invariants(fld, invs)
        M = api.lattice_from_invariants(fld, (0,) * (len(invs) + arg))
        num = api.den_oracle(M, L)
        den = api.den_oracle(M, api.lattice_from_invariants(fld, (0,) * len(invs)))
        return num.stabilized and num.normalized / den.normalized == api.den_poly(L)(Fraction(-q) ** (-arg))
    if kind == "vertical":
        Lf, _ = api.flat_from_invariants(fld, invs, "nonsplit")
        return api.vertical_identity_n3(Lf) is True
    if kind == "diff":
        return api.diff_identity_check(_flat_with_perp_val(api, fld, invs, arg)) == (True, True)
    if kind == "fourier":
        full, horizontal = api.fourier_pden_perp(_flat_with_perp_val(api, fld, invs, arg))
        return full == horizontal
    if kind == "modularity":
        return api.local_modularity_check(api.lattice_from_invariants(fld, invs)) is True
    raise ValueError(f"unknown request kind {kind!r}")


def _expected(ref, p, invs, kind):
    row = ref.get((p, tuple(invs), kind))
    if row is None:
        raise KeyError(f"no reference answer for {(p, invs, kind)}")
    return {k: row[k] for k in ("den", "derived", "int") if k in row}
