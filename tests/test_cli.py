import json
from fractions import Fraction

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


def test_overlat_list_cyclic(capsys):
    # (2,2) has a non-cyclic overlattice, p^-1 L, whose quotient is (O/p)^2
    rc, out = run(capsys, "overlat", "list", "--inv", "2,2", "--p", "3")
    assert rc == 0
    recs = json.loads(out)
    rc, out = run(capsys, "overlat", "list", "--inv", "2,2", "--p", "3", "--cyclic")
    assert rc == 0
    cyclic = json.loads(out)
    assert cyclic == [r for r in recs if r["cyclic"]]
    assert 0 < len(cyclic) < len(recs)


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


def test_missing_gram_file_is_usage_error(tmp_path, capsys):
    rc = main(["den", "poly", "--gram", str(tmp_path / "absent.json"), "--p", "3"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("usage error:") and "absent.json" in err


def test_non_json_inv_grid_is_usage_error(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text("invariants: 1 2\n")
    rc = main(["kr", "table", "--inv-grid", str(path), "--p", "3"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("usage error:") and "not JSON" in err


def test_bad_den_value_point_is_usage_error(capsys):
    rc = main(["den", "value", "--inv", "1", "--at", "abc", "--p", "3"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("usage error:") and "abc" in err


def _shape_error(tmp_path, capsys, option, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    rc = main(["den", "poly", "--p", "3", option, str(path)])
    err = capsys.readouterr().err
    return rc, err


def test_gram_file_without_gram_is_usage_error(tmp_path, capsys):
    rc, err = _shape_error(tmp_path, capsys, "--gram", {"foo": 1})
    assert rc == 2 and err.startswith("usage error:") and "KeyError" in err


def test_gram_file_with_scalar_gram_is_usage_error(tmp_path, capsys):
    rc, err = _shape_error(tmp_path, capsys, "--gram", {"gram": 5})
    assert rc == 2 and err.startswith("usage error:") and "TypeError" in err


def test_lattice_file_without_space_gram_is_usage_error(tmp_path, capsys):
    rc, err = _shape_error(tmp_path, capsys, "--lattice", {"space": {"p": 3}, "basis": []})
    assert rc == 2 and err.startswith("usage error:") and "KeyError" in err


@pytest.mark.parametrize(
    "space, basis",
    [
        ({"p": 3, "gram": [["1"]]}, []),  # no columns
        ({"p": 3, "gram": [["1"]]}, [[]]),  # a row with no columns
        ({"p": 3, "gram": [["1", "0"], ["0", "1"]]}, [["1", "0"], ["1"]]),  # ragged rows
        ({"p": 3, "gram": [["1", "0"], ["0", "1"]]}, [["1", "0"]]),  # one row in a plane
    ],
)
def test_lattice_file_with_basis_of_wrong_shape_is_usage_error(tmp_path, capsys, space, basis):
    rc, err = _shape_error(tmp_path, capsys, "--lattice", {"space": space, "basis": basis})
    assert rc == 2 and err.startswith("usage error:") and "wrong shape" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decomp", "eval", "--flat", "FILE", "--x-val", "1"],
        ["decomp", "eval", "--flat-inv", "0", "--nonsplit", "--x", "FILE"],
        ["schwartz", "modularity", "--lambda", "FILE"],
        ["kr", "table", "--inv-grid", "FILE"],
    ],
)
def test_other_input_files_of_wrong_shape_are_usage_errors(tmp_path, capsys, argv):
    # every JSON input file goes through one shape check; this document has
    # none of the keys the loaders read, and read as a vector its entry "foo"
    # is not a number
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"foo": {"bar": 1}}))
    rc = main([str(path) if a == "FILE" else a for a in argv] + ["--p", "3"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("usage error:") and "wrong shape" in err


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


def test_verify_vertical_suite(capsys, monkeypatch):
    from hermsiegel import kr

    rc, out = run(capsys, "verify", "--suite", "vertical", "--p", "3", "--seed", "0")
    assert rc == 0 and out == "vertical: ok"
    # the suite sees a wrong value on the vertex lattice
    closed = kr.int_v_lambda_at
    monkeypatch.setattr(kr, "int_v_lambda_at", lambda lam, x: closed(lam, x) + (1 if lam.contains(x) else 0))
    rc, out = run(capsys, "verify", "--suite", "vertical", "--p", "3", "--seed", "0")
    assert rc == 1 and out == "vertical: FAIL"


def test_verify_closed_forms_suite(capsys, monkeypatch):
    from hermsiegel import kr

    for p in ("3", "5"):
        rc, out = run(capsys, "verify", "--suite", "closed-forms", "--p", p)
        assert rc == 0 and out == "closed-forms: ok"
    # q^(l+1) in place of q^l in the rank-2 closed form
    monkeypatch.setattr(kr, "int_rank2_closed", lambda a, b, q: Fraction(sum(q ** (l + 1) * (a + b + 1 - 2 * l) for l in range(a + 1)), 2))
    rc, out = run(capsys, "verify", "--suite", "closed-forms", "--p", "3")
    assert rc == 1 and out == "closed-forms: FAIL"


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
