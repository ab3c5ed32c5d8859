"""Command-line surface: dispatch, formats, exit codes, determinism."""

from __future__ import annotations

import importlib.resources
import io
import json
import pathlib

import pytest

import kalmanvar.cli as cli
from kalmanvar.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    RunConfig,
    build_parser,
    main,
)
from kalmanvar.enumerative import degrees_table_csv
from kalmanvar.polycore import a_universe, parse_polynomial, x_universe
from kalmanvar.veronese import sym_power
from kalmanvar.polymatrix import PolyMatrix


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- config --------------------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(subcommand="degrees", n=0, d=1, f=None, seed=0, trials=1, format="text")
    with pytest.raises(ValueError):
        RunConfig(subcommand="degrees", n=2, d=2, f=None, seed=0, trials=1, format="yaml")
    with pytest.raises(ValueError):
        RunConfig(subcommand="degrees", n=2, d=2, f=None, seed=0, trials=0, format="text")
    cfg = RunConfig(subcommand="degrees", n=2, d=2, f=None, seed=0, trials=1, format="text")
    assert cfg.extras == {}


def test_build_parser_smoke():
    p = build_parser()
    ns = p.parse_args(["sympower", "--n", "3", "--d", "2"])
    assert ns.cmd == "sympower" and ns.n == 3 and ns.d == 2


# -- sympower ------------------------------------------------------------------


def test_sympower_text_roundtrip(capsys):
    rc, out, _ = run(capsys, ["sympower", "--n", "3", "--d", "2"])
    assert rc == EXIT_OK
    u = a_universe(3)
    R = sym_power(PolyMatrix.generic(3), 2)
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for i, line in enumerate(lines):
        entries = [parse_polynomial(s.strip(), u) for s in line.split("|")]
        assert entries == list(R.rows[i])


def test_sympower_json(capsys):
    rc, out, _ = run(capsys, ["sympower", "--n", "2", "--d", "2", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["n"] == 2 and obj["d"] == 2 and obj["N"] == 3
    assert obj["matrix"][0][0] == "a11^2"


def test_sympower_byte_identical_reruns(capsys):
    rc1, out1, _ = run(capsys, ["sympower", "--n", "3", "--d", "2", "--format", "json"])
    rc2, out2, _ = run(capsys, ["sympower", "--n", "3", "--d", "2", "--format", "json"])
    assert rc1 == rc2 == EXIT_OK and out1 == out2


# -- kalman subcommands -----------------------------------------------------------


def test_kalman_matrix_text(capsys):
    rc, out, _ = run(capsys, ["kalman-matrix", "--f", "x1^2-x2^2"])
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 3  # N x N for p = 1
    assert lines[0].split("|")[0].strip() == "1"


def test_kalman_det_matches_library(capsys):
    from kalmanvar.kalman import kalman_det

    rc, out, _ = run(capsys, ["kalman-det", "--f", "x1^2-x2^2"])
    assert rc == EXIT_OK
    u = a_universe(2)
    det = parse_polynomial(out.strip(), u)
    expect = kalman_det(parse_polynomial("x1^2-x2^2", x_universe(2)))
    assert det == expect


def test_kalman_det_json(capsys):
    rc, out, _ = run(capsys, ["kalman-det", "--f", "x1^2-x2^2", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["degree"] == 6
    assert obj["n"] == 2 and obj["d"] == 2


# -- salmon -------------------------------------------------------------------------


def test_salmon_conic_report(capsys):
    rc, out, _ = run(capsys, ["salmon", "--conic", "x2^2-x1*x3", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["g1"] == "a13^2"
    assert obj["g2_terms"] == 138
    assert obj["g2_degree_matrix_entries"] == 6


def test_salmon_text_mentions_factors(capsys):
    rc, out, _ = run(capsys, ["salmon", "--conic", "x2^2-x1*x3"])
    assert rc == EXIT_OK
    assert "a13^2" in out and "138" in out


# -- audit --------------------------------------------------------------------------


def test_audit_passes_and_validates_schema(capsys):
    rc, out, _ = run(
        capsys,
        ["audit", "--f", "x1^2-x2^2", "--trials", "3", "--seed", "5", "--format", "json"],
    )
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["status"] == "pass"

    import jsonschema

    schema_text = (
        importlib.resources.files("kalmanvar") / "schemas" / "audit_report.schema.json"
    ).read_text()
    jsonschema.validate(obj, json.loads(schema_text))


def test_audit_byte_identical_for_fixed_seed(capsys):
    argv = ["audit", "--f", "x2^2-x1*x3", "--trials", "2", "--seed", "9", "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == EXIT_OK and out1 == out2


def test_audit_failure_exit_code(capsys, monkeypatch):
    fake = {
        "n": 2, "d": 2, "f": "x1^2 - x2^2", "seed": 0, "trials": 1,
        "assertions": [
            {"assertion": "degree_budget", "status": "fail",
             "witness_seed": None, "certificate": {}},
        ],
        "status": "fail",
    }
    monkeypatch.setattr(cli, "factorization_audit", lambda *a, **k: fake)
    rc, out, err = run(capsys, ["audit", "--f", "x1^2-x2^2"])
    assert rc == EXIT_CHECK_FAILED
    assert "fail" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli, "factorization_audit", boom)
    rc, out, err = run(capsys, ["audit", "--f", "x1^2-x2^2"])
    assert rc == EXIT_INTERNAL
    assert "synthetic fault" in err


# -- degrees ---------------------------------------------------------------------------


def test_degrees_report(capsys):
    rc, out, _ = run(capsys, ["degrees", "--n", "3", "--d", "2", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["values"]["deg_det_K_d"] == 30


def test_degrees_table_csv_matches_fixture(capsys):
    rc, out, _ = run(capsys, ["degrees", "--table"])
    assert rc == EXIT_OK
    golden = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "degrees_table.csv"
    assert out == golden.read_text()
    assert out == degrees_table_csv()


# -- chow ------------------------------------------------------------------------------


def test_chow_ctilde(capsys):
    rc, out, _ = run(capsys, ["chow", "--n", "3", "--s", "3", "--ctilde"])
    assert rc == EXIT_OK
    assert out.strip() == "6"


def test_chow_class_roundtrip(capsys):
    rc, out, _ = run(capsys, ["chow", "--n", "2", "--s", "2", "--w", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["n"] == 2 and obj["s"] == 2 and obj["class"] == "W_2"
    from kalmanvar.chow import class_W

    expect = class_W(2, 2)
    assert obj["terms"] == expect.to_json_obj()["terms"]
    assert obj["text"] == expect.to_text()


def test_chow_partition_class(capsys):
    rc, out, _ = run(
        capsys, ["chow", "--n", "3", "--s", "3", "--partition", "1,2|3", "--format", "text"]
    )
    assert rc == EXIT_OK
    from kalmanvar.chow import SetPartition, class_WsP

    expect = class_WsP(3, 3, SetPartition.of([[1, 2], [3]]))
    assert out.strip() == expect.to_text()


def test_chow_e3_fixture(capsys):
    rc, out, _ = run(capsys, ["chow", "--n", "3", "--s", "3", "--e3"])
    assert rc == EXIT_OK
    from kalmanvar.chow import fixture_E3

    assert out.strip() == fixture_E3().to_text()


# -- witness -----------------------------------------------------------------------------


def test_witness_mu_json_deterministic(capsys):
    argv = ["witness", "--f", "x2^2-x1*x3", "--mu", "1,1", "--seed", "12", "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["certificate"]["checks"]["polarization_value"] == "0"


def test_witness_special_locus(capsys):
    rc, out, _ = run(
        capsys,
        ["witness", "--n", "3", "--kind", "rank_deficient", "--seed", "4", "--format", "json"],
    )
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["certificate"]["checks"]["det_zero"] is True


# -- error paths ---------------------------------------------------------------------------


def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, ["kalman-det", "--f", "x1^^2"])
    assert rc == EXIT_PARSE
    assert err


def test_unknown_subcommand(capsys):
    rc, _, _ = run(capsys, ["transmogrify"])
    assert rc == EXIT_PARSE


def test_missing_subcommand(capsys):
    rc, _, _ = run(capsys, [])
    assert rc == EXIT_PARSE


def test_csv_rejected_outside_table(capsys):
    rc, _, err = run(capsys, ["sympower", "--n", "2", "--d", "2", "--format", "csv"])
    assert rc == EXIT_PARSE


def test_inhomogeneous_form_rejected(capsys):
    rc, _, err = run(capsys, ["kalman-det", "--f", "x1^2+x2"])
    assert rc == EXIT_PARSE


def test_degrees_rejects_n_below_two(capsys):
    rc, out, err = run(capsys, ["degrees", "--n", "1", "--d", "2"])
    assert rc == EXIT_PARSE == 2
    assert not out
    assert "n must be at least 2" in err
