"""The report scripts run end to end on their smallest grids."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_oracle_report_rows_ok():
    rows = _run("oracle_report.py", "--max-rank", "1", "--max-val", "1")
    assert len(rows) == 4  # invariants (0,) and (1,), each at k = 0 and 1
    for row in rows:
        # a row ends in its status, then the time it took
        assert row.rsplit("(", 1)[0].split()[-1] == "ok", row


def test_oracle_report_p5_rank2_rows_ok():
    # two non-unit columns at p = 5, which the residue tables could not reach
    rows = _run("oracle_report.py", "--p", "5", "--max-rank", "2", "--max-val", "4")
    assert len(rows) == 28  # 5 rank-1 and 9 rank-2 invariants, each at k = 0 and 1
    for row in rows:
        assert row.rsplit("(", 1)[0].split()[-1] == "ok", row


def test_make_tables_runs():
    rows = _run("make_tables.py", "--max-rank", "1", "--max-val", "2")
    assert [row.split()[0] for row in rows] == ["(0,)", "(1,)", "(2,)"]


def test_mutant_table_matches_the_source():
    # scripts/mutants.py runs only by hand; here each mutant's old text must
    # still occur exactly once, and each test it names must still exist
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) >= 26
    assert mutants.check_texts() == []
    for mut in mutants.MUTANTS:
        assert mut.file.startswith("src/"), mut.name
        for test in mut.tests:
            path, name = test.split("::")
            assert f"def {name}(" in (mutants.ROOT / path).read_text(), (mut.name, test)
