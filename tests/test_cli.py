"""Command-line surface: dispatch, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import kalmanvar.cli as cli
from kalmanvar.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SIGPIPE,
    build_parser,
    main,
)
from kalmanvar.enumerative import NonIntegralDegree, degrees_table_csv
from kalmanvar.kalman import KalmanInstance, kalman_matrix
from kalmanvar.polycore import UniverseMismatch, a_universe, parse_polynomial, x_universe
from kalmanvar.veronese import sym_power
from kalmanvar.polymatrix import PolyMatrix


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def validate_audit_report(obj):
    import jsonschema

    schema_text = (
        importlib.resources.files("kalmanvar") / "schemas" / "audit_report.schema.json"
    ).read_text()
    jsonschema.validate(obj, json.loads(schema_text))


# -- argument checks -----------------------------------------------------------


def test_run_config_validation(capsys):
    for argv, flag in [
        (["degrees", "--n", "0", "--d", "1"], "--n"),
        (["degrees", "--n", "2", "--d", "0"], "--d"),
        (["audit", "--f", "x1^2-x2^2", "--trials", "0"], "--trials"),
    ]:
        rc, out, err = run(capsys, argv)
        assert rc == EXIT_PARSE
        assert not out
        assert f"argument {flag}: expects a positive integer, got '0'" in err
    rc, out, _ = run(capsys, ["degrees", "--n", "2", "--d", "2", "--format", "yaml"])
    assert rc == EXIT_PARSE
    assert not out


def test_chow_rejects_nonpositive_s(capsys):
    rc, out, err = run(capsys, ["chow", "--n", "3", "--s", "0"])
    assert rc == EXIT_PARSE
    assert not out
    assert "argument --s: expects a positive integer, got '0'" in err


# the flags each subcommand reads; every other flag is rejected at parse time
DECLARED = {
    "sympower": {"--n", "--d", "--format"},
    "kalman-matrix": {"--f", "--n", "--format"},
    "kalman-det": {"--f", "--n", "--format"},
    "salmon": {"--conic", "--format"},
    "audit": {"--f", "--n", "--seed", "--trials", "--format"},
    "degrees": {"--n", "--d", "--table", "--format"},
    "chow": {"--n", "--s", "--w", "--e3", "--ctilde", "--partition", "--format"},
    "witness": {"--n", "--f", "--seed", "--mu", "--kind", "--format"},
}

# a minimal accepted invocation of each subcommand
VALID = {
    "sympower": ["sympower", "--n", "2", "--d", "2"],
    "kalman-matrix": ["kalman-matrix", "--f", "x1^2-x2^2"],
    "kalman-det": ["kalman-det", "--f", "x1^2-x2^2"],
    "salmon": ["salmon", "--conic", "x2^2-x1*x3"],
    "audit": ["audit", "--f", "x1^2-x2^2"],
    "degrees": ["degrees", "--n", "3", "--d", "2"],
    "chow": ["chow", "--n", "3", "--s", "3"],
    "witness": ["witness", "--f", "x2^2-x1*x3"],
}


def test_each_subcommand_declares_exactly_the_flags_it_reads():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    declared = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                for name, p in subparsers.choices.items()}
    assert declared == DECLARED
    assert sum(map(len, declared.values())) == 33


REMOVED = [
    ("sympower", "--seed"), ("sympower", "--trials"),
    ("kalman-matrix", "--d"), ("kalman-matrix", "--seed"), ("kalman-matrix", "--trials"),
    ("kalman-det", "--d"), ("kalman-det", "--seed"), ("kalman-det", "--trials"),
    ("audit", "--d"),
    ("salmon", "--n"), ("salmon", "--d"), ("salmon", "--seed"), ("salmon", "--trials"),
    ("salmon", "--f"),
    ("degrees", "--seed"), ("degrees", "--trials"),
    ("chow", "--d"), ("chow", "--seed"), ("chow", "--trials"),
    ("witness", "--d"), ("witness", "--trials"),
]


@pytest.mark.parametrize("cmd,flag", REMOVED, ids=lambda v: v)
def test_unread_flag_is_rejected_at_parse_time(capsys, cmd, flag):
    assert flag not in DECLARED[cmd]
    value = "x2^2-x1*x3" if flag == "--f" else "3"
    rc, out, err = run(capsys, VALID[cmd] + [flag, value])
    assert rc == EXIT_PARSE
    assert not out
    assert f"unrecognized arguments: {flag} {value}" in err


def test_flags_are_not_abbreviated(capsys):
    # `--f` would otherwise abbreviate `--format`, and `--tab` `--table`
    for argv in (["salmon", "--f", "json"], ["degrees", "--tab"]):
        rc, out, err = run(capsys, argv)
        assert rc == EXIT_PARSE
        assert not out
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("first,second", [
    (["--w"], ["--ctilde"]),
    (["--partition", "1|2"], ["--w"]),
    (["--e3"], ["--partition", "1|2"]),
    (["--ctilde"], ["--e3"]),
])
def test_chow_modes_are_exclusive(capsys, first, second):
    rc, out, err = run(capsys, ["chow", "--n", "3", "--s", "2"] + first + second)
    assert rc == EXIT_PARSE
    assert not out
    assert f"argument {second[0]}: not allowed with argument {first[0]}" in err


@pytest.mark.parametrize("base,flag,value", [
    (["sympower", "--d", "2"], "--n", "0"),
    (["sympower", "--n", "2"], "--d", "-1"),
    (["kalman-det", "--f", "x1^2-x2^2"], "--n", "0"),
    (["kalman-matrix", "--f", "x1^2-x2^2"], "--n", "-2"),
    (["audit", "--f", "x1^2-x2^2"], "--n", "0"),
    (["audit", "--f", "x1^2-x2^2"], "--trials", "-5"),
    (["degrees", "--n", "2"], "--d", "-3"),
    (["chow", "--s", "2"], "--n", "0"),
    (["chow", "--n", "3", "--ctilde"], "--s", "-1"),
    (["witness", "--kind", "rank_deficient"], "--n", "0"),
])
def test_nonpositive_counts_are_rejected_at_parse_time(capsys, base, flag, value):
    rc, out, err = run(capsys, base + [flag, value])
    assert rc == EXIT_PARSE
    assert not out
    assert f"argument {flag}: expects a positive integer, got '{value}'" in err


def test_build_parser_smoke():
    p = build_parser()
    ns = p.parse_args(["sympower", "--n", "3", "--d", "2"])
    assert ns.cmd == "sympower" and ns.n == 3 and ns.d == 2


@pytest.fixture
def unbuilt_parser():
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def test_main_builds_one_parser_tree(unbuilt_parser, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (VALID["degrees"], ["degrees", "--bogus"], VALID["chow"] + ["--ctilde"]):
        run(capsys, argv)
    # the root parser and one per subcommand, once
    assert built == ["kalmanvar"] + [f"kalmanvar {cmd}" for cmd in DECLARED]


def test_import_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import kalmanvar.cli as c; print(c.build_parser.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "0\n"


# valid, undeclared flag, nonpositive count, handler error, help, help, valid
SEQUENCE = [
    VALID["degrees"],
    VALID["degrees"] + ["--seed", "1"],
    VALID["degrees"][:2] + ["--n", "0"],
    ["salmon", "--conic", "x1^2"],
    ["chow", "-h"],
    ["-h"],
    VALID["chow"] + ["--format", "json"],
]


def test_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    shared = [run(capsys, argv) for argv in SEQUENCE]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)  # a new tree per call
    fresh = [run(capsys, argv) for argv in SEQUENCE]
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 2, 2, 2, 0, 0, 0]
    assert "degenerate conic" in shared[3][2]


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


# sha256 of the stdout of `kalman-det --f F`, recorded while det K was
# still the cofactor expansion of the plain Krylov matrix
KALMAN_DET_DIGESTS = {
    "x1^3 + 2*x1*x2^2 - x2^3": "1fd8e10d3d7f079f82338a5016fde7fb66216ea6c71a75fb325fa50b6bd2b0a4",
    "x1^4 + 2*x1*x2^3 - x2^4": "19f702f74edd7076ca48770e47a104dc5835b0ac8a4cbe2d40766b36a10c11ae",
    "x1^5 + 2*x1*x2^4 - x2^5": "a6cc59c8b68533ddbb3533c902a99016d6b663f0ef878edad20abecae8bf3732",
    "x1^5 - 7*x1^2*x2^3 - 5*x2^5": "1babd8df2efd5325460d2fd4594275e8428fd0d75b5af03b6b63a8af62cb480c",
    "x1^2-x2^2": "fecf061219fcc0818ed1d5c0c9a1841cd7ff969056ecf71ff8d5d1f0f6bd20d0",
}


@pytest.mark.parametrize("form", sorted(KALMAN_DET_DIGESTS))
def test_kalman_det_stdout_is_pinned(capsys, form):
    rc, out, _ = run(capsys, ["kalman-det", "--f", form])
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == KALMAN_DET_DIGESTS[form]


def test_kalman_matrix_json(capsys):
    rc, out, _ = run(capsys, ["kalman-matrix", "--f", "x1^2-x2^2", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert (obj["n"], obj["d"], obj["p"], obj["N"], obj["shape"]) == (2, 2, 1, 3, [3, 3])
    inst = KalmanInstance.from_form(parse_polynomial("x1^2-x2^2", x_universe(2)))
    assert obj["matrix"] == kalman_matrix(inst, PolyMatrix.generic(2)).to_json_obj()


@pytest.mark.parametrize("form,N", [("x1^7 + x2^7", 8), ("x1^2 + x2^2 + x3^2 + x4^2", 10)])
def test_kalman_det_beyond_size_limit_is_input_error(capsys, form, N):
    start = time.perf_counter()
    rc, out, err = run(capsys, ["kalman-det", "--f", form])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_PARSE
    assert not out
    assert f"size N = {N}; the limit is MAX_DET_N = 7" in err


@pytest.mark.parametrize("argv,limit", [
    (["chow", "--n", "20", "--s", "10", "--w"], "the limits are MAX_CLASS_TERMS = 1000000"),
    (["chow", "--n", "1000", "--s", "2", "--partition", "1|2"],
     "and MAX_CLASS_BITS = 100000000"),
    (["sympower", "--n", "12", "--d", "3"], "the limit is n <= 10"),
    (["kalman-matrix", "--f", "x11 + x1"], "the limit is n <= 10"),
    (["degrees", "--n", "80", "--d", "80"], "the limit is MAX_PARTITIONS = 100000"),
    (["degrees", "--n", "2", "--d", "1000000000"], "the limit is MAX_PARTITIONS = 100000"),
    (["sympower", "--n", "6", "--d", "6"], "the limit is MAX_SYM_POWER_SIZE = 100000"),
    (["kalman-matrix", "--f", "x1^3 + x2^3 - x3^3 + x1*x2*x3"],
     "the limit is MAX_KALMAN_TERMS = 20000000"),
    (["kalman-matrix", "--f", "x1^2 + x2^2 + x3^2 + x4^2"],
     "the limit is MAX_KALMAN_TERMS = 20000000"),
    (["kalman-matrix", "--f", "x1^12 + x2^12"], "product exponent would exceed 7-bit field"),
    (["witness", "--n", "200", "--kind", "rank_deficient"], "the limit is MAX_SPECIAL_N = 30"),
    (["audit", "--f", "x1^40 + x10^40"], "the limit is MAX_AUDIT_WORK = 100000000"),
])
def test_size_limits_are_input_errors(capsys, argv, limit):
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_PARSE
    assert not out
    assert limit in err


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
    validate_audit_report(obj)


@pytest.mark.parametrize("form,errors", [
    ("x1^3 + 2*x2^3 + 4*x3^3", [[3]]),
    ("x1^4 - x2^4 + x1*x2^3", [[4], [2, 2]]),
])
def test_audit_witness_errors_exit_check_failed(capsys, form, errors):
    rc, out, err = run(capsys, ["audit", "--f", form, "--trials", "2", "--format", "json"])
    assert rc == EXIT_CHECK_FAILED
    assert not out
    obj = json.loads(err)
    validate_audit_report(obj)
    assert obj["status"] == "error"
    cases = obj["assertions"][1]["certificate"]["cases"]
    assert sorted(c["mu"] for c in cases if c["status"] == "error") == sorted(errors)
    rc, out, err = run(capsys, ["audit", "--f", form, "--trials", "2"])
    assert rc == EXIT_CHECK_FAILED
    assert err.splitlines()[2:] == ["  mu_witness_vanishing: error",
                                    "  collision_vanishing: pass",
                                    "  generic_nonvanishing: pass",
                                    "overall: error"]


def test_audit_byte_identical_for_fixed_seed(capsys):
    argv = ["audit", "--f", "x2^2-x1*x3", "--trials", "2", "--seed", "9", "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == EXIT_OK and out1 == out2


def test_audit_prints_det_values_past_the_int_digit_limit(capsys):
    # det_value reaches about 1200 digits; 640 is the lowest limit Python sets
    argv = ["audit", "--f", "x1^3+x2^3+x3^3+x4^3", "--trials", "1", "--format", "json"]
    rc, unlimited, _ = run(capsys, argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc_limited, out, _ = run(capsys, argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc == rc_limited == EXIT_OK
    values = [c["det_value"] for a in json.loads(out)["assertions"]
              for c in a["certificate"].get("cases", [])]
    assert max(len(part) for v in values for part in v.split("/")) > 640
    # the same text as str() of the determinant, where str() has no limit
    assert out == unlimited


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


@pytest.mark.parametrize("fault", [
    UniverseMismatch("('x1', 'x2') vs ('x1', 'x2', 'x3')"),
    NonIntegralDegree("deg_p_(2) = 3/2 is not an integer"),
])
def test_internal_value_errors_exit_internal(capsys, monkeypatch, fault):
    # ValueError subclasses that signal a fault, not bad input
    def boom(*a, **k):
        raise fault

    monkeypatch.setattr(cli, "factorization_audit", boom)
    rc, out, err = run(capsys, ["audit", "--f", "x1^2-x2^2"])
    assert rc == EXIT_INTERNAL
    assert not out
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


# -- degrees ---------------------------------------------------------------------------


def test_degrees_report(capsys):
    rc, out, _ = run(capsys, ["degrees", "--n", "3", "--d", "2", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["values"]["deg_det_K_d"] == 30


def test_degrees_text_matches_readme(capsys):
    readme = (ROOT / "README.md").read_text().splitlines()
    start = readme.index("$ kalmanvar degrees --n 3 --d 2") + 1
    block = readme[start:readme.index("```", start)]
    rc, out, _ = run(capsys, ["degrees", "--n", "3", "--d", "2"])
    assert rc == EXIT_OK
    assert out.splitlines() == block


def test_degrees_table_csv_matches_fixture(capsys):
    rc, out, _ = run(capsys, ["degrees", "--table"])
    assert rc == EXIT_OK
    golden = ROOT / "fixtures" / "degrees_table.csv"
    assert out == golden.read_text()
    assert out == degrees_table_csv()


# -- chow ------------------------------------------------------------------------------


def test_chow_ctilde(capsys):
    rc, out, _ = run(capsys, ["chow", "--n", "3", "--s", "3", "--ctilde"])
    assert rc == EXIT_OK
    assert out.strip() == "6"


@pytest.mark.parametrize("s", [1, 2, 3])
def test_chow_ctilde_rejects_n_below_two(capsys, s):
    rc, out, err = run(capsys, ["chow", "--n", "1", "--s", str(s), "--ctilde"])
    assert rc == EXIT_PARSE
    assert not out
    assert err == "error: n must be at least 2\n"


def test_chow_ctilde_huge_s_is_fast(capsys):
    start = time.perf_counter()
    rc, out, _ = run(capsys, ["chow", "--n", "3", "--s", "1000000000", "--ctilde"])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_OK
    assert out == "0\n"


def test_chow_ctilde_json(capsys):
    rc, out, _ = run(capsys, ["chow", "--n", "3", "--s", "3", "--ctilde", "--format", "json"])
    assert rc == EXIT_OK
    assert json.loads(out) == {"n": 3, "s": 3, "ctilde": 6}


@pytest.mark.parametrize("s", [2, 3])
def test_chow_default_class_text(capsys, s):
    from kalmanvar.chow import class_Wtilde, fixture_Wtilde3

    rc, out, _ = run(capsys, ["chow", "--n", "3", "--s", str(s)])
    assert rc == EXIT_OK
    expect = fixture_Wtilde3() if s == 3 else class_Wtilde(3, s)
    assert out == expect.to_text() + "\n"


def test_chow_class_roundtrip(capsys):
    rc, out, _ = run(capsys, ["chow", "--n", "2", "--s", "2", "--w", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["n"] == 2 and obj["s"] == 2 and obj["class"] == "W_2"
    from kalmanvar.chow import class_W

    expect = class_W(2, 2)
    assert obj["terms"] == expect.to_json_obj()["terms"]
    assert obj["text"] == expect.to_text()


def test_chow_json_sorts_the_terms_once(capsys, monkeypatch):
    from kalmanvar.chow import TruncatedClass, class_W

    calls = []
    graded_keys = TruncatedClass.graded_keys
    monkeypatch.setattr(TruncatedClass, "graded_keys",
                        lambda self: calls.append(self) or graded_keys(self))
    rc, out, _ = run(capsys, ["chow", "--n", "3", "--s", "2", "--w", "--format", "json"])
    assert rc == EXIT_OK and len(calls) == 1
    expect = class_W(3, 2)
    obj = expect.to_json_obj()
    obj["class"] = "W_2"
    obj["text"] = expect.to_text()
    assert out == json.dumps(obj, indent=2) + "\n"


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


# sha256 of the stdout of `witness --f F --mu M --seed S --format FMT`,
# recorded while the witness still carried the matrix A it prints
WITNESS_MU_DIGESTS = {
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", "1,1", 12, "json"):
        "3072c9ebd867f86c798d4a4ee818b722ae7fe4bb4f727152065c969f34470e06",
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", "1,1", 12, "text"):
        "44caca2166d0bf00173d52d56aefb46a53031ddfbfbaac2c4038e432a562c69b",
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", "1,1", 3, "json"):
        "c1a7934a5d165ce7686c223e665d7a5695e8b8e3e1ff88421d6d379c2d472658",
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", "1,1", 3, "text"):
        "8f2e97f7da3521f62011bee49b3e404b8a2bc79d46f41f3ff8ee9264ebb8437f",
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", "2", 12, "json"):
        "bd9cafe83b5f60ff4db4dc5dc05acbe3bc0467a53df5752ba99e4719bc582bc7",
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", "2", 12, "text"):
        "b85f04293eacaaa4a6a51bbba473ee528925c80c475cbe28f85ebfbec177ef60",
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", "2", 3, "json"):
        "d49ab02d543bf6c47af513ab9fcce54afff98c3070ba56c8e5ed24d65ebb78d0",
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", "2", 3, "text"):
        "4f9ed0c51a49a4c553201853f53ac90d73b33cb60c8ead7577582cd557d983a4",
    ("x1^2 - 3*x1*x2 + 2*x2^2", "1,1", 12, "json"):
        "88c610dfb5085de01cb835947163ff9fda095e5564557ed380203db6dd455fa9",
    ("x1^2 - 3*x1*x2 + 2*x2^2", "1,1", 12, "text"):
        "0bafbe9180b4aa705ec87b104b19ebb68ea465fd62771cd36f8d7f2be7c64825",
    ("x1^2 - 3*x1*x2 + 2*x2^2", "1,1", 3, "json"):
        "b645cb945c477339506ae118a77ac167f256d9e0d93647774e1ffeb581e34e24",
    ("x1^2 - 3*x1*x2 + 2*x2^2", "1,1", 3, "text"):
        "59156d0e6e1f3ff11e51bd1dd66615fc6b4cdc14e1583a35fbcd58d23f2b5eb2",
    ("x1^2 - 3*x1*x2 + 2*x2^2", "2", 12, "json"):
        "f3442197f03a72aab883adabcb5e24c1452868790f0fbe8a3263ff5295b258cb",
    ("x1^2 - 3*x1*x2 + 2*x2^2", "2", 12, "text"):
        "7d1ceed9149581e8319554c6b98dc2f8d7b2681c6e9d3cb38431db7c8d4673f0",
    ("x1^2 - 3*x1*x2 + 2*x2^2", "2", 3, "json"):
        "321c37b93d326940489a18e17e5d3fe3f6610c66d4d81178d594c158774c52fb",
    ("x1^2 - 3*x1*x2 + 2*x2^2", "2", 3, "text"):
        "a5b8d12f4b88e2cbedda26104e4ebd9d9cb43ff4e35ef8d96b156e7375ca30c4",
    ("x2^2 - x1*x3", "1,1", 12, "json"):
        "f47bb67b50fceb5908e97b1d96f68b97c1f381e8e25d9db4d864105c47bb9134",
    ("x2^2 - x1*x3", "1,1", 12, "text"):
        "95051f355b7db88acfda434c78ff3e1246be1a8445ac19d24090147ec1774087",
    ("x2^2 - x1*x3", "1,1", 3, "json"):
        "fd7524e907415fe172c9c6bcb1ce912d444b99352a1f2e73e1910dbab371e0b6",
    ("x2^2 - x1*x3", "1,1", 3, "text"):
        "bce632d1b7fbefceaa4cba02d71c59a5a85205b2053dd2ce13f3810b5065b166",
    ("x2^2 - x1*x3", "2", 12, "json"):
        "7927ac96e69f42bc72e855581012784fad92f307b0859777fd2dbecc7fdd298c",
    ("x2^2 - x1*x3", "2", 12, "text"):
        "cf028a3d250012ec7fd67a136a69b806f2185ff211dcc5fd22153950ef971c15",
    ("x2^2 - x1*x3", "2", 3, "json"):
        "2b9df5b1eb2cf5eaab262045ac5172378040d57f86febe1a89e6a076b0ecc8f2",
    ("x2^2 - x1*x3", "2", 3, "text"):
        "513a70739add31d44e1d8f1b43e13d9c50e3c753673f545401a1689288a37833",
}


@pytest.mark.parametrize("form,mu,seed,fmt", sorted(WITNESS_MU_DIGESTS))
def test_witness_mu_stdout_is_pinned(capsys, form, mu, seed, fmt):
    rc, out, _ = run(capsys, ["witness", "--f", form, "--mu", mu, "--seed", str(seed),
                              "--format", fmt])
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == WITNESS_MU_DIGESTS[form, mu, seed, fmt]


def test_witness_point_text(capsys):
    rc, out, _ = run(capsys, ["witness", "--f", "x2^2-x1*x3", "--seed", "7"])
    assert rc == EXIT_OK
    assert out == ("f = -x1*x3 + x2^2\n"
                   "seed = 7\n"
                   "point = ['-887364/691', '942', '-691']\n"
                   "value = 0\n")


def test_witness_point_by_integer_search(capsys):
    # no linear variable and not a binary form: the box search
    rc, out, _ = run(capsys, ["witness", "--f", "x1^2 + x2^2 - x3^2", "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["value"] == "0"
    assert any(int(x) for x in obj["point"])


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


def test_closed_stdout_exits_141_quietly():
    # the reader leaves after one line of a 344 kB matrix
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "kalmanvar.cli", "sympower", "--n", "3",
                             "--d", "8"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_SIGPIPE == 141
    assert err == b""


def test_unknown_subcommand(capsys):
    rc, _, _ = run(capsys, ["transmogrify"])
    assert rc == EXIT_PARSE


def test_missing_subcommand(capsys):
    rc, _, _ = run(capsys, [])
    assert rc == EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ["sympower", "--n", "2", "--d", "2"],
    ["kalman-matrix", "--f", "x1^2-x2^2"],
    ["kalman-det", "--f", "x1^2-x2^2"],
    ["salmon", "--conic", "x2^2-x1*x3"],
    ["audit", "--f", "x1^2-x2^2"],
    ["degrees", "--n", "3", "--d", "2"],
    ["chow", "--n", "3", "--s", "3"],
    ["witness", "--f", "x2^2-x1*x3"],
], ids=lambda argv: argv[0])
def test_csv_rejected_outside_table(capsys, argv):
    rc, out, err = run(capsys, argv + ["--format", "csv"])
    assert rc == EXIT_PARSE
    assert not out
    if argv[0] == "degrees":
        assert err == "error: csv output is only available for `degrees --table`\n"
    else:  # only `degrees` declares csv
        assert "argument --format: invalid choice: 'csv'" in err


@pytest.mark.parametrize("argv, message", [
    (["witness", "--f", "x2^2-x1*x3", "--mu", "1,,1"],
     "--mu expects comma-separated integers, got '1,,1'"),
    (["witness", "--f", "x2^2-x1*x3", "--mu", "1,x"],
     "--mu expects comma-separated integers, got '1,x'"),
    (["chow", "--n", "3", "--s", "3", "--partition", "1,a|2,3"],
     "--partition expects comma-separated integers, got '1,a'"),
])
def test_integer_list_flags_name_the_flag(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == EXIT_PARSE
    assert not out
    assert err == f"error: {message}\n"


def test_inhomogeneous_form_rejected(capsys):
    rc, _, err = run(capsys, ["kalman-det", "--f", "x1^2+x2"])
    assert rc == EXIT_PARSE


def test_degrees_rejects_n_below_two(capsys):
    rc, out, err = run(capsys, ["degrees", "--n", "1", "--d", "2"])
    assert rc == EXIT_PARSE == 2
    assert not out
    assert "n must be at least 2" in err


def test_exponent_beyond_field_is_input_error(capsys):
    rc, out, err = run(capsys, ["kalman-det", "--f", "x1^300"])
    assert rc == EXIT_PARSE == 2
    assert not out
    assert "exponent 300 out of range for 8-bit fields" in err


def test_product_exponent_beyond_field_is_input_error(capsys):
    rc, out, err = run(capsys, ["sympower", "--n", "2", "--d", "200"])
    assert rc == EXIT_PARSE == 2
    assert not out
    assert "product exponent would exceed 7-bit field" in err


@pytest.mark.parametrize("form,message", [
    ("x2^200*x2^100", "exponent 300 out of range for 8-bit fields"),
    ("x1^128*x1^128", "exponent 256 out of range for 8-bit fields"),
    ("1/0*x1^2", "zero denominator in '1/0*x1^2'"),
])
def test_malformed_form_is_input_error(capsys, form, message):
    rc, out, err = run(capsys, ["kalman-det", "--f", form])
    assert rc == EXIT_PARSE == 2
    assert not out
    assert message in err
