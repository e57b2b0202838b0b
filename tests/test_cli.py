import json

import pytest

from hermsiegel.cli import main
from hermsiegel.lattice import lattice_from_invariants, lattice_to_json


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out.strip()
    return rc, out


def test_den_poly_text(capsys):
    rc, out = run(capsys, "den", "poly", "--nonsplit", "--inv", "3", "--p", "3")
    assert rc == 0 and out == "1 - X + X^2 - X^3"


def test_kr_int_prime(capsys):
    rc, out = run(capsys, "kr", "int", "--case", "prime", "--split", "--inv", "4", "--p", "3")
    assert rc == 0 and out == "2"


def test_oracle_den_json(capsys):
    rc, out = run(capsys, "oracle", "den", "--M", "0 0", "--L", "1", "--json", "--p", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["stabilized"] is True
    assert obj["normalized"] == "32/27"


def test_oracle_count(capsys):
    rc, out = run(capsys, "oracle", "count", "--M", "0", "--L", "0", "--N", "1", "--p", "3")
    assert rc == 0 and out == "4"


def test_invariants_roundtrip_file(tmp_path, capsys, F3):
    L = lattice_from_invariants(F3, (1, 2))
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lattice_to_json(L)))
    rc, out = run(capsys, "invariants", "--lattice", str(path))
    assert rc == 0 and out == "1 2"


def test_overlat_list(capsys):
    rc, out = run(capsys, "overlat", "list", "--inv", "1,1", "--p", "3", "--type", "0")
    assert rc == 0
    recs = json.loads(out)
    assert len(recs) == 4 and all(r["type"] == 0 for r in recs)


def test_decomp_eval(capsys):
    rc, out = run(capsys, "decomp", "eval", "--flat-inv", "0", "--nonsplit", "--x-val", "1", "--p", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"pden": "1", "horizontal": "1", "vertical": "0"}


def test_decomp_fourier_check(capsys):
    rc, out = run(capsys, "decomp", "fourier-check", "--flat-inv", "1", "--nonsplit", "--x-val", "-2", "--p", "3")
    assert rc == 0
    assert json.loads(out)["equal"] is True


def test_decomp_diff_check(capsys):
    rc, out = run(capsys, "decomp", "diff-check", "--flat-inv", "0,2", "--split", "--x-val", "4", "--p", "3")
    assert rc == 0
    assert json.loads(out) == {"full": True, "horizontal": True}


def test_schwartz_modularity(capsys):
    rc, out = run(capsys, "schwartz", "modularity", "--dim", "3", "--p", "3")
    assert rc == 0 and json.loads(out)["modular"] is True


def test_usage_errors(capsys):
    rc, _ = run(capsys, "den", "poly", "--inv", "1", "--split", "--p", "3")
    assert rc == 2
    rc, _ = run(capsys, "den", "poly", "--p", "3")
    assert rc == 2


def test_budget_exit_code(capsys):
    rc, _ = run(capsys, "den", "poly", "--inv", "2,3,3,4", "--p", "3", "--budget", "5")
    assert rc == 3


@pytest.mark.parametrize("m_invs, l_invs", [("0 1", "1 1"), ("0 0 0 0", "1 1 1")])
def test_oracle_unsupported_shape_exit_code(capsys, m_invs, l_invs):
    rc = main(["oracle", "den", "--M", m_invs, "--L", l_invs, "--p", "3", "--budget", str(10**15)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and "budget" not in err


def test_verify_suite(capsys):
    rc, out = run(capsys, "verify", "--suite", "eisenstein", "--p", "3", "--seed", "42")
    assert rc == 0 and "eisenstein: ok" in out


def test_verify_functional_eq_seeded(capsys):
    rc, out = run(capsys, "verify", "--suite", "functional-eq", "--p", "3", "--seed", "42")
    assert rc == 0


def test_kr_table_formats(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"invariants": [[1], [0, 1], [2]]}))
    rc, out = run(capsys, "kr", "table", "--inv-grid", str(grid), "--out", "csv", "--p", "3")
    assert rc == 0 and out.splitlines()[0] == "invariants,den,derived,int"
    rc, out = run(capsys, "kr", "table", "--inv-grid", str(grid), "--out", "latex", "--p", "3")
    assert rc == 0 and out.startswith("\\begin{tabular}")
    rc, out = run(capsys, "kr", "table", "--inv-grid", str(grid), "--out", "json", "--p", "3")
    rows = json.loads(out)
    assert rows[0]["den"] == "1 - X"


def test_determinism(capsys):
    rc1, out1 = run(capsys, "overlat", "list", "--inv", "1,1", "--p", "3")
    rc2, out2 = run(capsys, "overlat", "list", "--inv", "1,1", "--p", "3")
    assert (rc1, out1) == (rc2, out2)


def test_env_budget_override(monkeypatch):
    from hermsiegel.config import RunConfig

    monkeypatch.setenv("HERMSIEGEL_BUDGET", "12345")
    cfg = RunConfig()
    assert cfg.enum_budget == 12345 and cfg.oracle_budget == 12345


def test_env_budget_malformed(monkeypatch, capsys):
    from hermsiegel.config import RunConfig
    from hermsiegel.errors import UsageError

    for raw in ("12x", "", "0", "-5"):
        monkeypatch.setenv("HERMSIEGEL_BUDGET", raw)
        with pytest.raises(UsageError):
            RunConfig()
        rc = main(["den", "poly", "--inv", "1", "--p", "3"])
        assert rc == 2 and "HERMSIEGEL_BUDGET" in capsys.readouterr().err
