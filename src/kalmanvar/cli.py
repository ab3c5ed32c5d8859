"""Command-line interface.

Subcommands
  sympower       symbolic symmetric power of the generic matrix
  kalman-matrix  stacked observability-style matrix for a form
  kalman-det     its determinant (single-form, square case)
  salmon         resultant pipeline for ternary conics: the extraneous
                 factor and the eigenpoint-locus equation
  audit          randomized-but-seeded factorization audit
  degrees        enumerative degree formulas (single report or full table)
  chow           truncated intersection classes and their coefficients
  witness        exact eigenstructure witnesses and hypersurface points

Exit codes: 0 success, 1 a requested check failed, 2 parse/validation
error or an input beyond a size limit, 3 internal invariant breach, 141
stdout closed by its reader.  Output is deterministic for a fixed seed;
every printed polynomial re-parses to the identical canonical value.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .chow import (
    SetPartition,
    class_W,
    class_WsP,
    class_Wtilde,
    coeff_ctilde,
    fixture_E3,
)
from .enumerative import NonIntegralDegree, degrees_table_csv, discriminant_budget
from .kalman import (KalmanInstance, check_kalman_matrix_size, factorization_audit, kalman_det,
                     kalman_matrix)
from .polycore import (
    Polynomial,
    PolynomialParseError,
    UniverseMismatch,
    parse_polynomial,
    x_universe,
)
from .polymatrix import PolyMatrix
from .salmon import g1_factor, kalman_conic_equation
from .veronese import basis_size, check_sym_power_size, sym_power
from .witness import (
    mu_witness,
    sample_on_hypersurface,
    special_locus_matrix,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_SIGPIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left


class CheckFailed(RuntimeError):
    """A check the user requested reported failure."""


def _json(obj) -> str:
    return json.dumps(obj, indent=2, default=str)


def _report(args: argparse.Namespace, obj: dict) -> str:
    """obj as indented JSON, or one `key = value` line per entry."""
    if args.format == "json":
        return _json(obj)
    return "\n".join(f"{k} = {v}" for k, v in obj.items())


_VAR_INDEX = re.compile(r"x(\d+)")


def _parse_form(args: argparse.Namespace) -> Polynomial:
    if not args.f:
        raise ValueError("this subcommand requires a form via --f")
    n = args.n
    if n is None:
        idx = [int(m) for m in _VAR_INDEX.findall(args.f)]
        if not idx:
            raise PolynomialParseError(f"no variables x1..xn found in {args.f!r}")
        n = max(idx)
    return parse_polynomial(args.f, x_universe(n))


def _int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers; the error names the flag and the text."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(
            f"{flag} expects comma-separated integers, got {text!r}") from None


# -- subcommands ---------------------------------------------------------------


def _cmd_sympower(args: argparse.Namespace) -> str:
    check_sym_power_size(args.n, args.d)
    M = sym_power(PolyMatrix.generic(args.n), args.d)
    if args.format == "json":
        return _json({
            "n": args.n,
            "d": args.d,
            "N": basis_size(args.n, args.d),
            "matrix": M.to_json_obj(),
        })
    return M.to_text()


def _cmd_kalman_matrix(args: argparse.Namespace) -> str:
    f = _parse_form(args)
    inst = KalmanInstance.from_form(f, args.n, args.d)
    check_kalman_matrix_size(inst)
    K = kalman_matrix(inst, PolyMatrix.generic(inst.n))
    if args.format == "json":
        return _json({
            "n": inst.n,
            "d": inst.d,
            "p": inst.p,
            "N": inst.N,
            "shape": [K.nrows, K.ncols],
            "matrix": K.to_json_obj(),
        })
    return K.to_text()


def _cmd_kalman_det(args: argparse.Namespace) -> str:
    f = _parse_form(args)
    det = kalman_det(f, args.n, args.d)
    if args.format == "json":
        return _json({
            "n": f.u.nvars,
            "d": f.is_homogeneous(),
            "f": f.to_text(),
            "degree": det.degree(),
            "terms": det.term_count(),
            "det": det.to_text(),
        })
    return det.to_text()


def _cmd_salmon(args: argparse.Namespace) -> str:
    f = None
    if args.conic:
        f = parse_polynomial(args.conic, x_universe(3))
    g1 = g1_factor(f)
    g2 = kalman_conic_equation(f)
    a_names = tuple(nm for nm in g2.u.names if nm.startswith("a"))
    b_names = tuple(nm for nm in g2.u.names if nm.startswith("b"))
    info = {
        "conic": f.to_text() if f is not None else "generic",
        "g1": g1.to_text(),
        "g1_terms": g1.term_count(),
        "g2_terms": g2.term_count(),
        "g2_degree_matrix_entries": g2.degree_in(a_names),
        "g2_degree_conic_coefficients": g2.degree_in(b_names),
    }
    if args.format == "json":
        info["g2"] = g2.to_text()
    return _report(args, info)


def _cmd_audit(args: argparse.Namespace) -> str:
    f = _parse_form(args)
    report = factorization_audit(f, args.n, args.d, trials=args.trials, seed=args.seed)
    if args.format == "json":
        out = _json(report)
    else:
        lines = [f"audit n={report['n']} d={report['d']} f={report['f']} "
                 f"seed={report['seed']} trials={report['trials']}"]
        for a in report["assertions"]:
            lines.append(f"  {a['assertion']}: {a['status']}")
        lines.append(f"overall: {report['status']}")
        out = "\n".join(lines)
    if report["status"] != "pass":
        raise CheckFailed(out)
    return out


def _cmd_degrees(args: argparse.Namespace) -> str:
    if args.format == "csv" and not args.table:
        raise ValueError("csv output is only available for `degrees --table`")
    if args.table:
        if args.format == "json":
            raise ValueError("the degree table is emitted as csv or text")
        return degrees_table_csv().rstrip("\n")
    if args.n is None or args.d is None:
        raise ValueError("degrees requires --n and --d (or --table)")
    rep = discriminant_budget(args.n, args.d)
    if args.format == "json":
        return _json(rep.to_json_obj())
    lines = [f"degrees n={args.n} d={args.d}"]
    for kk, vv in rep.values.items():
        lines.append(f"  {kk} = {vv}")
    for flag in rep.flags:
        lines.append(f"  note: {flag}")
    return "\n".join(lines)


def _parse_partition(text: str) -> SetPartition:
    blocks = []
    for blk in text.split("|"):
        blk = blk.strip()
        if not blk:
            raise ValueError(f"empty block in partition {text!r}")
        blocks.append(_int_list(blk, "--partition"))
    return SetPartition.of(blocks)


def _cmd_chow(args: argparse.Namespace) -> str:
    s = args.s
    if args.ctilde:
        value = coeff_ctilde(args.n, s)
        if args.format == "json":
            return _json({"n": args.n, "s": s, "ctilde": value})
        return str(value)
    if args.partition:
        cls = class_WsP(args.n, s, _parse_partition(args.partition))
        name = f"W_({s},{args.partition})"
    elif args.w:
        cls = class_W(args.n, s)
        name = f"W_{s}"
    elif args.e3:
        cls = fixture_E3(args.n)
        name = "E_3"
    else:
        cls = class_Wtilde(args.n, s)
        name = f"W~_{s}"
    if args.format == "json":
        keys = cls.graded_keys()
        obj = cls.to_json_obj(keys)
        obj["class"] = name
        obj["text"] = cls.to_text(keys)
        return _json(obj)
    return cls.to_text()


def _cmd_witness(args: argparse.Namespace) -> str:
    if args.kind:
        if args.n is None:
            raise ValueError("witness --kind requires --n")
        res = special_locus_matrix(args.kind, args.n, seed=args.seed)
        return _report(args, {"kind": args.kind, "n": args.n, "seed": args.seed,
                              "A": [[str(x) for x in row] for row in res["A"]],
                              "certificate": res["certificate"]})
    f = _parse_form(args)
    if args.mu:
        mu = _int_list(args.mu, "--mu")
        w = mu_witness(f, mu, f.u.nvars, seed=args.seed)
        return _report(args, {"f": f.to_text(), "mu": mu, "seed": args.seed,
                              "A": [[str(x) for x in row] for row in w.A],
                              "eigenvalues": [str(x) for x in w.eigenvalues],
                              "vectors": [[str(x) for x in v] for v in w.vectors],
                              "certificate": w.certificate})
    pt = sample_on_hypersurface(f, seed=args.seed)
    value = f.evaluate(pt)
    obj = {"f": f.to_text(), "seed": args.seed,
           "point": [str(x) for x in pt], "value": str(value)}
    if value != 0:  # pragma: no cover - sampling is exact
        raise CheckFailed(_json(obj))
    return _report(args, obj)


def _positive(text: str) -> int:
    """argparse type of a count; the parser's message names the flag."""
    try:
        value = int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text!r}")
    return value


_FLAGS = {
    "n": dict(type=_positive, help="number of variables"),
    "d": dict(type=_positive, help="form degree"),
    "f": dict(help="form in the text grammar, e.g. 'x2^2-x1*x3'"),
    "s": dict(type=_positive, help="eigenvector factor count"),
    "seed": dict(type=int, default=0, help="RNG seed"),
    "trials": dict(type=_positive, default=20, help="trial count"),
    "conic": dict(help="ternary conic (defaults to the generic one)"),
    "table": dict(action="store_true", help="emit the full golden degree table as csv"),
    "mu": dict(help="eigenvalue partition, e.g. '1,1'"),
    "kind": dict(choices=("rank_deficient", "repeated_eigenvalue_jordan"),
                 help="special-locus matrix kind"),
    "w": dict(action="store_true", help="full incidence class"),
    "e3": dict(action="store_true", help="two-dimensional-eigenspace fixture class"),
    "ctilde": dict(action="store_true", help="print the shared coefficient value only"),
    "partition": dict(help="set partition, e.g. '1,2|3'"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one input contract: each subcommand declares exactly the flags
    its handler reads, with their types, defaults and formats.  Built on
    the first call and shared by every later one: parsing leaves no state
    in it."""
    parser = argparse.ArgumentParser(
        prog="kalmanvar",
        description="Exact computer algebra for eigenpoint varieties of "
                    "polynomial observation systems.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, run, summary, flags, required=(), formats=("text", "json")):
        # no abbreviations: `salmon --f json` must not become `--format json`
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(f"--{flag}", required=flag in required, **_FLAGS[flag])
        p.add_argument("--format", choices=formats, default="text", help="output format")
        return p

    command("sympower", _cmd_sympower, "symbolic symmetric power", ["n", "d"],
            required=("n", "d"))
    command("kalman-matrix", _cmd_kalman_matrix, "stacked block matrix", ["n", "d", "f"],
            required=("f",))
    command("kalman-det", _cmd_kalman_det, "its determinant (p = 1)", ["n", "d", "f"],
            required=("f",))
    command("salmon", _cmd_salmon, "ternary-conic resultant pipeline", ["conic"])
    command("audit", _cmd_audit, "factorization audit", ["n", "d", "f", "seed", "trials"],
            required=("f",))
    command("degrees", _cmd_degrees, "enumerative degree formulas", ["n", "d", "table"],
            formats=("text", "json", "csv"))
    modes = command("chow", _cmd_chow, "truncated intersection classes", ["n", "s"],
                    required=("n", "s")).add_mutually_exclusive_group()
    for flag in ("w", "e3", "ctilde", "partition"):
        modes.add_argument(f"--{flag}", **_FLAGS[flag])
    command("witness", _cmd_witness, "exact witnesses and points",
            ["n", "f", "seed", "mu", "kind"])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    try:
        out = args.run(args)
        if out:
            print(out)
            sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull so
        # that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_SIGPIPE
    except CheckFailed as e:
        print(str(e), file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (UniverseMismatch, NonIntegralDegree) as e:
        # ValueErrors that no command-line input can raise: internal faults
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (PolynomialParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
