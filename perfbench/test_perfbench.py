"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

Most cases run the benchmark on a tiny seeded request count; the whole file
takes under two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# requests per workload: the first requests of each first pass, which runs in
# one fixed order, all well under a second on the parent commit
TINY = {"den-stream": 40, "den-cold": 3, "oracle-crosscheck": 8, "identity-sweep": 6}


def _run(workload, trace, requests, cwd=ROOT, env=None):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    cmd = [sys.executable if c == "python3" else c for c in cmd]
    return subprocess.run(
        [*cmd, "--requests", str(requests)], cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


def _printed_metrics(stdout):
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def _check_result(res, names):
    assert res.returncode == 0, res.stderr
    printed = _printed_metrics(res.stdout)
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    for m in names:
        assert m["name"] in printed, f"{m['name']} not printed"
        assert printed[m["name"]][1] == m["unit"]
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(last["metrics"]) == {m["name"] for m in names}
    return printed


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    res = _run(workload, 0, TINY[workload])
    printed = _check_result(res, SPEC["end_to_end"])
    assert printed["fail_ratio"] == (0.0, "ratio")
    for m in SPEC["end_to_end"]:
        assert printed[m["name"]][0] > 0


@pytest.mark.parametrize("workload", ["den-stream", "den-cold"])
def test_traced_run_accounts_for_request_time(workload):
    res = _run(workload, 1, TINY[workload])
    printed = _check_result(res, SPEC["per_layer"])
    overhead = printed["trace.overhead_s"][0]
    gaps = next(line.split() for line in res.stdout.splitlines() if line.startswith("trace.request_gap_s"))
    gap_max, gap_min = float(gaps[2]), float(gaps[4])
    # the layer self times of each request sum to its wall time, up to the
    # benchmark's own code between spans, which tracing overhead bounds
    assert gap_min >= 0
    assert gap_max <= max(abs(overhead), 1e-3)


def test_every_odd_valuation_den_cold_request_enumerates_twice():
    # the whole den-cold pass, so every odd-valuation entry of the catalogue
    res = _run("den-cold", 1, len(wl.COLD_CATALOGUE))
    printed = _check_result(res, SPEC["per_layer"])
    assert printed["density.enumerations_per_request"][0] == 2
    line = next(ln.split() for ln in res.stdout.splitlines() if ln.startswith("density.enumerations_per_request odd"))
    lo, hi, n = int(line[3]), int(line[5]), int(line[7])
    assert lo == hi == 2
    assert n == sum(1 for _, invs in wl.COLD_CATALOGUE if sum(invs) % 2 == 1)


def test_setup_s_is_the_median_of_its_samples():
    res = _run("den-stream", 0, 1)
    printed = _check_result(res, SPEC["end_to_end"])
    line = next(ln.split() for ln in res.stdout.splitlines() if ln.startswith("setup_s samples"))
    samples = [float(x) for x in line[2:]]
    assert len(samples) == run.SETUP_SAMPLES
    assert all(x > 0 for x in samples)
    assert printed["setup_s"][0] == pytest.approx(statistics.median(samples), rel=1e-5)


def test_den_cold_runs_each_pass_in_a_fresh_process():
    # two passes: the run's own process makes the first and a child process
    # the second, and the run pools the requests of both
    seconds = 2 * wl.PASS_SECONDS["den-cold"]
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "den-cold", "--seed", "7", "--seconds", str(seconds)]
    res = subprocess.run([*cmd, "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    _check_result(res, SPEC["end_to_end"])
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert last["attempted"] == 2 * len(wl.COLD_CATALOGUE)
    assert "repeat_share.invariants 0.0000" in res.stdout


def test_cpu_picker_pins_to_one_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    picker = run.CpuPicker()
    try:
        picker.repick()
        if len(allowed) > 1:
            assert len(os.sched_getaffinity(0)) == 1 and os.sched_getaffinity(0) <= allowed
            assert picker.spent > 0
    finally:
        os.sched_setaffinity(0, allowed)


def test_requests_past_the_hard_stop_count_as_failed():
    api = wl.bind_api()
    ref = wl.load_reference()
    n_passes = 2
    passes = wl.iter_passes("identity-sweep", 1)
    lat, oks, _, abandoned, _ = run.run_timed(api, ref, passes, n_passes, 0.0)
    assert abandoned > 0 and all(oks)
    assert len(lat) + abandoned == n_passes * len(wl.identity_checks())


def test_den_cold_catalogue_has_no_hidden_repeats():
    cat = wl.COLD_CATALOGUE
    assert len(set(cat)) == len(cat)
    for p, invs in cat:
        if sum(invs) % 2 == 0:
            assert (p, tuple(sorted(invs + (1,)))) not in cat


def test_every_catalogue_answer_is_in_the_reference():
    ref = wl.load_reference()
    for p, invs in wl.stream_catalogue():
        kinds = ["row-selfdual"] if sum(invs) % 2 else ["row-asd", "row-prime"]
        assert all((p, invs, k) in ref for k in kinds)
    assert all((p, invs, "cold") in ref for p, invs in wl.COLD_CATALOGUE)


def test_a_wrong_answer_counts_as_failed():
    api = wl.bind_api()
    ref = wl.load_reference()
    req = next(iter(next(wl.iter_passes("den-cold", 1))))
    assert wl.run_request(api, ref, req)
    key = (req[1], req[2], "cold")
    bad = dict(ref)
    bad[key] = dict(ref[key], derived="0")
    assert not wl.run_request(api, bad, req)


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    from hermsiegel import density

    monkeypatch.delattr(density, "overlattice_profiles")
    with pytest.raises(tr.BoundaryMissing):
        tr.Tracer().install()


def test_tracer_refuses_an_overlat_boundary_it_cannot_count(monkeypatch):
    from hermsiegel import kr, overlat

    monkeypatch.setattr(kr, "submodule_count", overlat.submodule_count, raising=False)
    with pytest.raises(tr.BoundaryMissing):
        tr.Tracer().install()


def test_refuses_to_run_with_a_budget_override():
    env = dict(os.environ, HERMSIEGEL_BUDGET="1000")
    res = _run("den-stream", 0, 1, env=env)
    assert res.returncode != 0 and not res.stdout


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("den-stream", 0, 1, cwd=tmp_path)
    assert res.returncode != 0 and not res.stdout
