#!/usr/bin/env python3
"""The hermsiegel benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload den-stream --seed 1 --seconds 15 --trace 0

Each invocation is one fresh, single-threaded process with one closed-loop
client: it sends the next request only after the previous one has completed.
`--workload all` runs every workload, each in its own fresh process.  A run
makes the smallest whole number of passes over its workload's requests that
lasts `--seconds` on the parent commit; each den-cold and identity-sweep pass
runs in a fresh process, so that it starts with empty memos.

With `--trace 0` the run is untraced and reports the end-to-end metrics; with
`--trace 1` it wraps the library's layer boundaries (see tracer.py), reports
the per-layer metrics, and writes its spans under `.perfbench-out/`.  Every
metric prints as `metric <name> <value> <unit>`, and the last line is a JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one thread per process: numpy's BLAS pools must not start workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 11
# once a run has lasted this many times --seconds, the requests it has not run
# are abandoned and count as failed, so a pathological slowdown still ends
# within the time limit and cannot pass as a smaller, correct run
HARD_STOP_FACTOR = 4
MIN_TAIL_BEYOND = 10
# between requests, at most this often, the run moves to the fastest CPU
REPICK_SECONDS = 1.0


def _probe_loop():
    """A fixed loop of Fraction arithmetic and dict stores, like the
    library's own work; about 5 ms."""
    t0 = time.perf_counter()
    x, d = Fraction(1, 3), {}
    for i in range(600):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
        d[i % 97] = x
    return time.perf_counter() - t0


class CpuPicker:
    """Keeps the process on the allowed CPU that currently runs a fixed probe
    loop fastest.  On a shared host the CPUs of a machine slow down and speed
    up, each on its own, by up to 2x over seconds, and a process left where
    the scheduler put it runs at whichever speed that CPU has.  `spent` is
    the time taken by probing, which the run leaves out of its timed wall."""

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.due = 0.0
        self.spent = 0.0

    def repick(self):
        now = time.perf_counter()
        if len(self.cpus) < 2 or now < self.due:
            return
        speeds = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = min(_probe_loop() for _ in range(2))
        os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
        end = time.perf_counter()
        self.spent += end - now
        self.due = end + REPICK_SECONDS


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def setup(workload: str, seed: int, tracer=None, first_pass=0):
    """Import the library, load the reference table and prepare the seeded
    request passes, from pass number `first_pass` on.  Returns (api, passes,
    reference, seconds taken)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hermsiegel  # noqa: F401

    if tracer is not None:
        tracer.install()
    api = wl.bind_api(tracer.entry if tracer is not None else None)
    ref = wl.load_reference()
    passes = itertools.islice(wl.iter_passes(workload, seed), first_pass, None)
    first = next(passes)
    return api, itertools.chain([first], passes), ref, time.perf_counter() - t0


def run_timed(api, ref, passes, n_passes, stop_after, max_requests=None, tracer=None, picker=None):
    """Closed loop over `n_passes` whole passes of the workload, or exactly
    `max_requests` requests when that is given.  Once `stop_after` seconds
    have passed, the requests still scheduled (the rest of the pass in flight
    and every remaining pass) are not run; they count as failed.  Between
    requests, `picker` may move the process to a faster CPU; the time that
    takes is not part of the returned wall.  Returns (latencies, oks,
    requests, abandoned, wall)."""
    picker = picker or CpuPicker()
    spent_before = picker.spent
    lat, oks, done = [], [], []
    abandoned = 0
    t_start = time.perf_counter()
    hard_stop = t_start + stop_after
    errors_shown = 0
    for i, reqs in enumerate(passes):
        if max_requests is None:
            if i == n_passes:
                break
            if abandoned or time.perf_counter() > hard_stop:
                # every pass of a workload has one length
                abandoned += len(reqs) * (n_passes - i)
                break
        for j, req in enumerate(reqs):
            if len(lat) == max_requests:
                break
            if max_requests is None and time.perf_counter() > hard_stop:
                abandoned = len(reqs) - j
                break
            picker.repick()
            if tracer is not None:
                tracer.request = len(lat)
            t0 = time.perf_counter()
            try:
                ok = wl.run_request(api, ref, req)
            except Exception:  # a failing request is counted, and the loop goes on
                ok = False
                if errors_shown < 3:
                    errors_shown += 1
                    print(f"request {req} raised:\n{traceback.format_exc()}", file=sys.stderr)
            lat.append(time.perf_counter() - t0)
            oks.append(bool(ok))
            done.append(req)
        if len(lat) == max_requests:
            break
    return lat, oks, done, abandoned, time.perf_counter() - t_start - (picker.spent - spent_before)


def tail_latency(lat):
    """(value, percentile, samples beyond): the highest percentile that still
    has at least MIN_TAIL_BEYOND samples beyond it (the maximum when the run
    has too few samples)."""
    xs = sorted(lat)
    n = len(xs)
    if n <= MIN_TAIL_BEYOND:
        return xs[-1], 100.0, 0
    idx = n - MIN_TAIL_BEYOND - 1
    return xs[idx], 100.0 * (idx + 1) / n, n - idx - 1


def _self_cmd(workload, seed, seconds, trace, *extra):
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        *extra,
    ]


def _child(cmd, timeout=170):
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=str(ROOT))
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return res.stdout


def _child_value(stdout, key):
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == key:
            return float(parts[1])
    raise RuntimeError(f"child printed no {key}")


def setup_samples(workload, seed):
    """Set-up times of SETUP_SAMPLES fresh processes that only set up.  The
    import is most of the set-up and happens once per process, so a run
    cannot repeat it in its own process."""
    cmd = _self_cmd(workload, seed, 1, 0, "--setup-only")
    return [_child_value(_child(cmd), "setup_s") for _ in range(SETUP_SAMPLES)]


def _metric_line(name, value, unit):
    print(f"metric {name} {value:.6g} {unit}")
    return name, {"value": value, "unit": unit}


def fresh_pass(args, index):
    """Pass number `index` of the workload, run in a fresh child process:
    (latencies, oks, requests, abandoned, wall)."""
    out = _child(_self_cmd(args.workload, args.seed, args.seconds, 0, "--only-pass", str(index)))
    res = json.loads(out.strip().splitlines()[-1])
    done = [tuple(tuple(x) if isinstance(x, list) else x for x in req) for req in res["requests"]]
    return res["latencies"], res["oks"], done, res["abandoned"], res["wall"]


def run_one(args) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    picker = CpuPicker()
    picker.repick()
    api, passes, ref, setup_s = setup(args.workload, args.seed, tracer, args.only_pass or 0)
    if args.setup_only:
        print(f"setup_s {setup_s!r}")
        return 0

    n_passes = wl.pass_count(args.workload, args.seconds)
    fresh = args.workload in wl.FRESH_PROCESS_PASSES
    here = 1 if fresh else n_passes
    stop_after = HARD_STOP_FACTOR * args.seconds * here / n_passes
    lat, oks, done, abandoned, wall = run_timed(api, ref, passes, here, stop_after, args.requests, tracer, picker)
    if args.only_pass is not None:
        print(json.dumps({"latencies": lat, "oks": oks, "requests": done, "abandoned": abandoned, "wall": wall}))
        return 0
    if tracer is not None:
        tracer.uninstall()
    # a memo lives in one process, so repeats are counted per process
    processes = [done]
    if fresh and tracer is None and args.requests is None:
        for index in range(1, n_passes):
            p_lat, p_oks, p_done, p_abandoned, p_wall = fresh_pass(args, index)
            lat, oks, abandoned, wall = lat + p_lat, oks + p_oks, abandoned + p_abandoned, wall + p_wall
            processes.append(p_done)
        done = [req for reqs in processes for req in reqs]
    if abandoned:
        print(f"perfbench: {abandoned} requests not run after {HARD_STOP_FACTOR}x --seconds", file=sys.stderr)
    attempted = len(lat) + abandoned
    failed = attempted - sum(oks)
    shares = [wl.repeat_shares(reqs) for reqs in processes]
    share_class = sum(len(r) * s[0] for r, s in zip(processes, shares)) / max(1, len(done))
    share_lattice = sum(len(r) * s[1] for r, s in zip(processes, shares)) / max(1, len(done))
    print(f"workload {args.workload} seed {args.seed} clients 1 closed-loop")
    print(f"timed_wall_s {wall!r}")
    print(f"requests {attempted} failed {failed} abandoned {abandoned}")
    print(f"repeat_share.invariants {share_class:.4f}")
    print(f"repeat_share.lattice {share_lattice:.4f}")
    metrics = {}
    if tracer is None:
        samples = setup_samples(args.workload, args.seed)
        print("setup_s samples " + " ".join(f"{x!r}" for x in samples))
        tail, pct, beyond = tail_latency(lat)
        print(f"latency_tail percentile p{pct:.2f} samples {len(lat)} beyond {beyond}")
        for name, value, unit in (
            ("requests_per_s", sum(oks) / wall, "1/s"),
            ("latency_p50_ms", 1000 * statistics.median(lat), "ms"),
            ("latency_tail_ms", 1000 * tail, "ms"),
            ("setup_s", statistics.median(samples), "s"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        ):
            k, v = _metric_line(name, value, unit)
            metrics[k] = v
        _metric_line("fail_ratio", failed / attempted, "ratio")
    else:
        untraced = _child(_self_cmd(args.workload, args.seed, args.seconds, 0, "--requests", str(len(lat))))
        overhead = wall - _child_value(untraced, "timed_wall_s")
        for name, value, unit in tracer.layer_metrics(len(lat), overhead):
            k, v = _metric_line(name, value, unit)
            metrics[k] = v
        _report_trace_checks(tracer, done, lat)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(path)
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _report_trace_checks(tracer, done, lat):
    """Per-request trace facts: the gap between a request's wall time and the
    self time of its spans, and the overlat calls made from density on
    odd-valuation density requests."""
    gaps = [lat[i] - tracer.request_self.get(i, 0.0) for i in range(len(lat))]
    print(f"trace.request_gap_s max {max(gaps):.6f} min {min(gaps):.6f}")
    odd = [
        tracer.density_enumerations.get(i, 0)
        for i, req in enumerate(done)
        if req[0] in ("row", "cold") and sum(req[2]) % 2 == 1
    ]
    if odd:
        print(f"density.enumerations_per_request odd-valuation min {min(odd)} max {max(odd)} requests {len(odd)}")


def run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        out = _child(_self_cmd(workload, args.seed, args.seconds, args.trace), timeout=600)
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=None, help="run exactly this many requests, ignoring --seconds")
    ap.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    ap.add_argument("--only-pass", type=int, default=None, help="run only this pass and print its raw result")
    args = ap.parse_args(argv)
    if "HERMSIEGEL_BUDGET" in os.environ:
        return _fail("HERMSIEGEL_BUDGET is set; the benchmark runs with the default budgets only")
    if not (SRC / "hermsiegel" / "__init__.py").is_file():
        return _fail(f"no hermsiegel sources under {SRC}; run from the root of a checkout")
    if args.seconds <= 0 or (args.requests is not None and args.requests < 1):
        return _fail("--seconds and --requests must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
