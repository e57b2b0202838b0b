"""Span tracer for the hermsiegel benchmark.

`Tracer.install` replaces, in every hermsiegel module, each function bound
from another hermsiegel module with a timing wrapper, so a call that crosses a
module boundary becomes a span of the callee's layer.  Calls inside one module
are not split; they count in that module's self time.  `Tracer.entry` wraps
the benchmark's own calls into the library the same way.

A span records name, layer, start, end, parent span and request id.  Spans
stay in memory and are written out by `write_spans` when the run ends;
per-layer totals are accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
import types

LAYERS = ("ring", "lattice", "overlat", "density", "oracle", "schwartz", "decomp", "kr")

# FElem arithmetic is counted in its callers' self time; only these free
# functions of ring are spans
RING_SPANS = ("field", "reduce", "norm_solve")

# Boundaries that must exist, as (module, name bound there, callee layer).
# They carry every layer on the benchmark's workloads; a rename in the library
# makes install() fail instead of silently dropping a layer.
EXPECTED_BOUNDARIES = (
    ("lattice", "field", "ring"),
    ("lattice", "reduce_mod", "ring"),
    ("lattice", "norm_solve", "ring"),
    ("overlat", "from_generators", "lattice"),
    ("overlat", "perp_line", "lattice"),
    ("density", "overlattice_profiles", "overlat"),
    ("density", "from_generators", "lattice"),
    ("oracle", "reduce_mod", "ring"),
    ("oracle", "norm_solve", "ring"),
    ("schwartz", "integral_overlattices", "overlat"),
    ("schwartz", "intersect_lattices", "lattice"),
    ("decomp", "overlattice_profiles", "overlat"),
    ("decomp", "_overlattice_family", "overlat"),
    ("decomp", "cyclic_overlattices", "overlat"),
    ("decomp", "den_value", "density"),
    ("decomp", "norm_solve", "ring"),
    ("kr", "derived_den", "density"),
    ("kr", "derived_den_lambda", "density"),
    ("kr", "den_central", "density"),
    ("kr", "pden_vertical", "decomp"),
    ("kr", "flat_coset_grid", "decomp"),
    ("kr", "vertex_overlattices", "overlat"),
    ("kr", "count_intermediate", "overlat"),
    ("kr", "int_v_lambda", "schwartz"),
    ("kr", "evaluate", "schwartz"),
)

# Functions other modules import inside a function body: those imports read
# the home module's attribute at call time, so the wrapper goes there.
LAZY_IMPORTS = (
    ("lattice", "perp_line"),
    ("lattice", "coset_representatives"),
    ("overlat", "integral_overlattices"),
)

# How many lattices each overlat function that other layers call returns (or,
# for count_intermediate, counts); None for a helper that returns no lattices.
# install() refuses an overlat boundary that
# is missing here, and a result of another shape raises in the traced request,
# which then counts as failed, so a change of return type cannot make
# overlat.lattices undercount.


def _records(res):
    if not isinstance(res, list):
        raise TypeError(f"overlat returned {type(res).__name__}, expected a list")
    return len(res)


def _family(res):
    fam, _build, _dual_cols = res
    return _records(fam)


def _counted(res):
    if not isinstance(res, int):
        raise TypeError(f"overlat returned {type(res).__name__}, expected a count")
    return res


OVERLAT_RESULTS = {
    "overlattice_profiles": _records,
    "integral_overlattices": _records,
    "cyclic_overlattices": _records,
    "vertex_overlattices": _records,
    "_overlattice_family": _family,
    "count_intermediate": _counted,
    "_pair_rank_mod_p": None,  # a rank mod p
}

# Evaluations of the full and horizontal derived-density functions at a point;
# every pden_* function and both difference identities go through these.
DECOMP_POINTS = ("_pden_sum_full", "_pden_sum_horizontal")


class BoundaryMissing(RuntimeError):
    """An expected layer boundary is no longer where the tracer looks for it."""


class LayerStats:
    __slots__ = ("calls", "busy", "self")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0


class Tracer:
    """Collects spans and per-layer totals for one run (single-threaded)."""

    def __init__(self):
        self.spans = []  # (id, name, layer, start, end, parent id, request id)
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.request = -1
        self.overlat_lattices = 0
        self.decomp_points = 0
        self.density_enumerations = {}  # request id -> overlat calls from density
        self.request_self = {}  # request id -> summed self time of its spans
        self._stack = []  # open spans, innermost last
        self._depth = {layer: 0 for layer in LAYERS}
        self._patched = []
        self._ids = itertools.count()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, layer, count_points=False):
        name = fn.__name__
        stack, depth, stats, ids = self._stack, self._depth, self.stats, self._ids
        lattices_of = OVERLAT_RESULTS[name] if layer == "overlat" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = next(ids)
            frame = [sid, layer, 0.0]  # span id, layer, time covered by children
            stack.append(frame)
            depth[layer] += 1
            if count_points:
                self.decomp_points += 1
            if layer == "overlat" and parent is not None and parent[1] == "density":
                req = self.request
                self.density_enumerations[req] = self.density_enumerations.get(req, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                own = dur - frame[2]
                st = stats[layer]
                st.calls += 1
                st.self += own
                if depth[layer] == 0:
                    st.busy += dur
                if parent is not None:
                    parent[2] += dur
                req = self.request
                self.request_self[req] = self.request_self.get(req, 0.0) + own
                self.spans.append((sid, name, layer, start, end, parent[0] if parent else -1, req))
            # a call from inside overlat is part of its caller's enumeration
            if lattices_of is not None and (parent is None or parent[1] != "overlat"):
                self.overlat_lattices += lattices_of(result)
            return result

        return traced

    def entry(self, fn):
        """Wrap one of the benchmark's own calls into the library."""
        layer = _layer_of(fn)
        if layer is None:
            raise BoundaryMissing(f"{fn.__module__}.{fn.__name__} is not in a traced layer")
        return self.wrap(fn, layer)

    def install(self):
        """Wrap every cross-module function binding in the library."""
        modules = {name: importlib.import_module(f"hermsiegel.{name}") for name in LAYERS}
        for mod_name, name, layer in EXPECTED_BOUNDARIES:
            fn = getattr(modules[mod_name], name, None)
            if not isinstance(fn, types.FunctionType) or _layer_of(fn) != layer:
                raise BoundaryMissing(f"hermsiegel.{mod_name} no longer binds {name} from {layer}")
        for mod_name, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and _layer_of(obj) == "overlat"
                    and mod_name != "overlat"
                    and obj.__name__ not in OVERLAT_RESULTS
                ):
                    raise BoundaryMissing(f"hermsiegel.{mod_name} binds overlat.{obj.__name__}, whose lattices are not counted")
        for mod_name, name in LAZY_IMPORTS + tuple(("decomp", n) for n in DECOMP_POINTS):
            if not isinstance(getattr(modules[mod_name], name, None), types.FunctionType):
                raise BoundaryMissing(f"hermsiegel.{mod_name}.{name} is missing")
        for mod_name, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                layer = _layer_of(obj)
                if layer is None or layer == mod_name:
                    continue
                if layer == "ring" and obj.__name__ not in RING_SPANS:
                    continue
                self._patch(mod, name, self.wrap(obj, layer))
        for mod_name, name in LAZY_IMPORTS:
            mod = modules[mod_name]
            self._patch(mod, name, self.wrap(getattr(mod, name), mod_name))
        decomp = modules["decomp"]
        for name in DECOMP_POINTS:
            self._patch(decomp, name, self.wrap(getattr(decomp, name), "decomp", count_points=True))

    def _patch(self, mod, name, new):
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, new)

    def uninstall(self):
        for mod, name, old in reversed(self._patched):
            setattr(mod, name, old)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, n_requests: int, overhead_s: float):
        """Per-layer metrics in the benchmark's naming, as (name, value, unit)."""
        out = []
        for layer in LAYERS:
            st = self.stats[layer]
            out += [
                (f"{layer}.calls", st.calls, "count"),
                (f"{layer}.busy_s", st.busy, "s"),
                (f"{layer}.self_s", st.self, "s"),
            ]
        ov = self.stats["overlat"]
        out += [
            ("overlat.lattices", self.overlat_lattices, "count"),
            ("overlat.lattices_per_s", self.overlat_lattices / ov.self if ov.self > 0 else 0.0, "1/s"),
            (
                "density.enumerations_per_request",
                sum(self.density_enumerations.values()) / max(1, n_requests),
                "count",
            ),
            ("decomp.points", self.decomp_points, "count"),
            ("trace.overhead_s", overhead_s, "s"),
        ]
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tname\tlayer\tstart\tend\tparent\trequest\n")
            for sid, name, layer, start, end, parent, req in self.spans:
                fh.write(f"{sid}\t{name}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{req}\n")


def _layer_of(fn):
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("hermsiegel."):
        return None
    layer = mod.split(".", 1)[1]
    return layer if layer in LAYERS else None

