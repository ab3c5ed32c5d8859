"""The four benchmark workloads: seeded job lists and their result checks.

A job is one request a user would make, with the inputs fixed at set-up.
`run` is the timed call and returns what the user would read: the printed
text of a polynomial or the captured output of a CLI invocation.  `check`
runs afterwards, outside the timed region, and returns None when the
output is right or a one-line reason when it is not.  Checks go through
`oracles` (own parser, own arithmetic) and, where they need a reference
value, through the scalar path (`kalman_matrix_at` + `qmat_det`), never
through the symbolic code that produced the output.

Call the library only through module attributes at call time
(`kv.kalman_det`, `kv_cli.main`), so that the traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import kalmanvar as kv
import kalmanvar.cli as kv_cli

import oracles as orc

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # text the user reads; its sha256 is recorded per job
    text: Callable[[object], str]
    # a documented defect: the check's reason for failing contains this
    known: str | None = None
    # turns a right output into a wrong one, for the benchmark's self-check
    corrupt: Callable[[object], object] | None = None


def _drop_last_term(text: str) -> str:
    head, _, _ = text.rpartition(" ")
    return head.rpartition(" ")[0]


# -- determinant checks ----------------------------------------------------------


def _rational(rng: random.Random):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _matrix(rng, n: int, fixed: dict[tuple[int, int], int] | None = None):
    """A seeded rational n x n matrix, with `fixed` entries held at their values."""
    fixed = fixed or {}
    return [[fixed[i, j] if (i, j) in fixed else _rational(rng) for j in range(n)]
            for i in range(n)]


def _a_point(M) -> dict:
    return {f"a{i + 1}{j + 1}": x for i, row in enumerate(M) for j, x in enumerate(row)}


def _det_reason(det_terms, form: str, n: int, rng: random.Random,
                fixed: dict[tuple[int, int], int] | None = None) -> tuple[str | None, list]:
    """The printed determinant must agree with qmat_det(kalman_matrix_at(A))
    at two seeded points, up to the one constant that canonical form divides
    out.  Points where K(A) is singular (A singular, colliding eigenvalues of
    rho_d(A), ...) are drawn again.  Returns the reason and the points."""
    f = kv.parse_polynomial(form, kv.x_universe(n))
    inst = kv.KalmanInstance.from_form(f)
    mats, refs = [], []
    for _ in range(50):
        M = _matrix(rng, n, fixed)
        ref = orc.to_mod(kv.qmat_det(kv.kalman_matrix_at(inst, M)))
        if ref:
            mats.append(M)
            refs.append(ref)
            if len(mats) == 2:
                break
    else:
        return "K(A) was singular at 50 seeded points", mats
    vals = orc.eval_mod(det_terms, [_a_point(M) for M in mats])
    if not vals[0]:
        return "printed determinant vanishes where K(A) is invertible", mats
    if vals[1] * refs[0] % orc.P61 != vals[0] * refs[1] % orc.P61:
        return "printed determinant disagrees with qmat_det(kalman_matrix_at(A))", mats
    return None, mats


def _binary_det_job(label: str, form: str, seed: int) -> Job:
    def run():
        f = kv.parse_polynomial(form, kv.x_universe(2))
        return kv.kalman_det(f).to_text()

    def check(text):
        return _det_reason(orc.parse_terms(text), form, 2, random.Random(f"{seed}:{label}"))[0]

    return Job(label, run, check, text=str, corrupt=_drop_last_term)


# -- conic_det ---------------------------------------------------------------------


def _relabelled_conic(rng: random.Random) -> str:
    """x2^2 - x1*x3 under a seeded permutation of x1..x3."""
    s = rng.sample((1, 2, 3), 3)
    return f"x{s[1]}^2 - x{s[0]}*x{s[2]}"


def conic_det(seed: int) -> list[Job]:
    """det K_2 of the conic x2^2 - x1*x3 under a seeded relabelling of
    x1..x3, with the two diagonal entries of A that belong to the x1*x3
    term held at 1, then exact division by the conic's eigenvector
    equation g2 (specialized the same way) and the printed text of both.

    Holding two entries at 1 dehomogenizes the degree-30 determinant
    (688,296 terms) to 124,815 terms: the same cofactor DP, the same
    numpy large-product path and the same exact division, at about a
    seventh of the cost.  A relabelling maps the instance to an isomorphic
    one, so every seed costs the same.
    """
    form = _relabelled_conic(random.Random(seed))
    # the variables of the x1*x3 term, after relabelling
    i, k = (int(x) - 1 for x in re.findall(r"x(\d)", form.split(" - ")[1]))
    fixed = {(i, i): 1, (k, k): 1}
    spec = {f"a{i + 1}{j + 1}": v for (i, j), v in fixed.items()}
    label = f"conic_det {form} with {sorted(spec)}=1"

    def run():
        f = kv.parse_polynomial(form, kv.x_universe(3))
        u = kv.a_universe(3)
        generic = kv.PolyMatrix.generic(3)
        rows = [[kv.Polynomial.const(u, fixed[i, j]) if (i, j) in fixed else generic.rows[i][j]
                 for j in range(3)] for i in range(3)]
        inst = kv.KalmanInstance.from_form(f.canonical())
        det = kv.kalman_matrix(inst, kv.PolyMatrix(u, rows)).det().canonical()
        g2 = kv.kalman_conic_equation(f).convert(u).specialize(spec)
        q = det.exact_div(g2)
        return {"det": det.to_text(), "g2": g2.to_text(), "quotient": q.to_text()}

    def check(out):
        det = orc.parse_terms(out["det"])
        reason, mats = _det_reason(det, form, 3, random.Random(f"{seed}:{label}"), fixed)
        if reason:
            return reason
        pts = [_a_point(M) for M in mats]
        lhs = [g * q % orc.P61 for g, q in zip(orc.eval_mod(orc.parse_terms(out["g2"]), pts),
                                               orc.eval_mod(orc.parse_terms(out["quotient"]), pts))]
        if lhs != orc.eval_mod(det, pts):
            return "g2 * quotient differs from det at a check point"
        return None

    def corrupt(out):
        return dict(out, det=_drop_last_term(out["det"]))

    def text(out):
        return out["det"] + "\n" + out["quotient"]

    return [Job(label, run, check, text, corrupt=corrupt)]


# -- ladder_det --------------------------------------------------------------------


def ladder_det(seed: int) -> list[Job]:
    """kalman_det of the binary ladder x1^d + 2*x1*x2^(d-1) - x2^d for
    d = 3..5, then one seeded quintic x1^5 + 7*x1^2*x2^3 - 5*x2^5 with
    seeded signs and variable order.  Its coefficients push 5 of the 93
    large products past the int64 certificate, so the pure-Python product
    loop does real work here.  The d = 6 rung (277 s) is left out."""
    rng = random.Random(seed)
    jobs = [_binary_det_job(f"ladder d={d}", f"x1^{d} + 2*x1*x2^{d - 1} - x2^{d}", seed)
            for d in (3, 4, 5)]
    s1, s2 = rng.choice("+-"), rng.choice("+-")
    a, b = rng.sample(("x1", "x2"), 2)
    form = f"{a}^5 {s1} 7*{a}^2*{b}^3 {s2} 5*{b}^5"
    jobs.append(_binary_det_job(f"quintic {form}", form, seed))
    return jobs


# -- audit -------------------------------------------------------------------------

# Documented defects (the witness gap): mu = (3) has no sampling strategy
# for the cubic although (1, -1, 0) lies on it, and no strategy finds a
# point on the conic although (3, 4, 5) lies on it.
WITNESS_GAP_AUDIT = "x1^3 + x2^3 - x3^3 + x1*x2*x3"
WITNESS_GAP_SAMPLE = "x1^2 + x2^2 - x3^2"

AUDIT_FORMS = (
    "x1^3 - x2*x3^2 + x4^3",
    "x2^3 - x1^2*x3",
    "x2^2 - x1*x3",
    "x1^2 + x2*x3 - x4^2",
    WITNESS_GAP_AUDIT,
)


def _nvars(form: str) -> int:
    return max(int(m) for m in re.findall(r"x(\d+)", form))


def _audit_reason(form: str, report: dict) -> str | None:
    """Status `pass`, and every mu-witness certificate re-verified: V's
    columns are eigenvectors of V diag(D) V^-1, and K(A) is singular there."""
    if report["status"] != "pass":
        return f"audit status {report['status']}"
    f = kv.parse_polynomial(form, kv.x_universe(_nvars(form)))
    inst = kv.KalmanInstance.from_form(f)
    mu_cases = next(a for a in report["assertions"] if a["assertion"] == "mu_witness_vanishing")
    for case in mu_cases["certificate"]["cases"]:
        cert = case["certificate"]
        A = orc.from_eigen(cert["V"], cert["D"])
        for v, lam in zip(cert["points"], cert["D"]):
            v = orc.fmat([v])[0]
            if orc.fvec(A, v) != [orc.to_fraction(lam) * x for x in v]:
                return f"mu={case['mu']}: certificate point is not an eigenvector"
        if kv.qmat_det(kv.kalman_matrix_at(inst, A)) != 0:
            return f"mu={case['mu']}: det K(A) is nonzero at the witness"
    return None


def audit(seed: int) -> list[Job]:
    """factorization_audit(trials=20) of five forms, each at an audit seed
    drawn from the workload seed.  Scalar Fraction linear algebra only."""
    rng = random.Random(seed)
    jobs = []
    for form in AUDIT_FORMS:
        audit_seed = rng.randrange(1 << 31)

        def run(form=form, audit_seed=audit_seed):
            f = kv.parse_polynomial(form, kv.x_universe(_nvars(form)))
            return kv.factorization_audit(f, trials=20, seed=audit_seed)

        jobs.append(Job(
            f"audit {form} seed={audit_seed}", run,
            check=lambda report, form=form: _audit_reason(form, report),
            text=lambda report: json.dumps(report, sort_keys=True),
            known="audit status error" if form == WITNESS_GAP_AUDIT else None,
            corrupt=lambda report: dict(report, status="fail"),
        ))
    return jobs


# -- queries -------------------------------------------------------------------------


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kv_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_job(argv: list[str], check: Callable[[str], str | None], known: str | None = None,
             corrupt: Callable[[str], str] | None = None) -> Job:
    def checked(res):
        code, out, err = res
        if code != 0:
            return f"exit {code}: {err.strip()[-120:]}"
        return check(out)

    return Job(
        "kalmanvar " + " ".join(argv), lambda: _cli(argv), checked,
        text=lambda res: f"{res[0]}\n{res[1]}{res[2]}", known=known,
        corrupt=None if corrupt is None else lambda res: (res[0], corrupt(res[1]), res[2]),
    )


def _check_degrees(n: int, d: int):
    def check(out):
        vals = dict(re.findall(r"^\s+(\S+) = (\S+)$", out, re.M))
        N = int(vals["N"])
        deg = int(vals["deg_det_K_d"])
        if N != math.comb(n - 1 + d, d) or deg != orc.kalman_det_degree(n, d):
            return f"N={N} deg_det_K_d={deg} against the closed forms"
        if int(vals["deg_sqrt_Delta_d_sat"]) + int(vals["sum_mu_deg_p_mu"]) != deg:
            return "degree budget does not add up to deg_det_K_d"
        return None
    return check


def _check_table(out):
    golden = (ROOT / "fixtures" / "degrees_table.csv").read_text()
    if out.rstrip("\n") != golden.rstrip("\n"):
        return "degree table differs from the fixture"
    return None


def _check_class(n: int, s: int):
    def check(out):
        terms = orc.parse_terms(out)
        if orc.term_degrees(terms) != {s * (n - 1)} or any(c <= 0 for c, _ in terms):
            return f"class is not a positive form of degree {s * (n - 1)}"
        return None
    return check


def _check_ctilde(n: int, s: int):
    return lambda out: None if int(out) == orc.ctilde(n, s) else f"ctilde {out.strip()}"


def _check_sympower(n: int, d: int, rng: random.Random):
    M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    v = [rng.randint(-5, 5) for _ in range(n)]

    def check(out):
        R = [[orc.eval_exact(t, _a_point(M)) for t in row] for row in orc.parse_matrix(out)]
        if orc.fvec(R, orc.mon(v, d)) != orc.mon(orc.fvec(M, v), d):
            return "rho_d(M) mon(v) != mon(M v)"
        return None
    return check


def _check_kalman_matrix(form: str, rng: random.Random):
    n = _nvars(form)
    M = _matrix(rng, n)

    def check(out):
        f = kv.parse_polynomial(form, kv.x_universe(n))
        ref = kv.kalman_matrix_at(kv.KalmanInstance.from_form(f), M)
        got = [[orc.eval_exact(t, _a_point(M)) for t in row] for row in orc.parse_matrix(out)]
        return None if got == ref else "K(A) differs from kalman_matrix_at at a check point"
    return check


def _check_kalman_det(form: str, rng: random.Random):
    check_seed = rng.random()
    return lambda out: _det_reason(orc.parse_terms(out), form, 2, random.Random(check_seed))[0]


def _check_salmon_generic(out):
    vals = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    want = {"g1_terms": "3", "g2_terms": "2832", "g2_degree_matrix_entries": "6",
            "g2_degree_conic_coefficients": "3"}
    bad = [k for k, v in want.items() if vals.get(k) != v]
    return f"generic conic: {bad} differ from the paper's counts" if bad else None


# conics with a rational parametrization t -> point on the conic
CONICS = (
    ("x2^2 - x1*x3", lambda t: (1, t, t * t)),
    ("x1^2 + x2^2 - x3^2", lambda t: (1 - t * t, 2 * t, 1 + t * t)),
    ("x1*x2 - x3^2", lambda t: (1, t * t, t)),
)


def _check_salmon_conic(param, rng: random.Random):
    """g2 vanishes at a matrix with an eigenvector on the conic and not at
    a generic matrix."""
    V = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    for i, x in enumerate(param(rng.randint(2, 9))):
        V[i][0] = x
    on = orc.from_eigen(V, rng.sample(range(-20, 20), 3))
    off = _matrix(rng, 3)

    def check(out):
        g2 = orc.parse_terms(json.loads(out)["g2"])
        if orc.eval_exact(g2, _a_point(on)) != 0:
            return "g2 is nonzero at a matrix with an eigenvector on the conic"
        if orc.eval_exact(g2, _a_point(off)) == 0:
            return "g2 vanishes at a generic matrix"
        return None
    return check


def _check_witness_mu(form: str):
    def check(out):
        w = json.loads(out)
        A = orc.fmat(w["A"])
        vecs = orc.fmat(w["vectors"])
        for v, lam in zip(vecs, w["eigenvalues"]):
            if orc.fvec(A, v) != [orc.to_fraction(lam) * x for x in v]:
                return "a witness vector is not an eigenvector of A"
        if orc.frank(vecs) != len(vecs):
            return "witness vectors are dependent"
        f = kv.parse_polynomial(form, kv.x_universe(_nvars(form)))
        if kv.qmat_det(kv.kalman_matrix_at(kv.KalmanInstance.from_form(f), A)) != 0:
            return "det K(A) is nonzero at the witness"
        return None
    return check


def _check_sample(form: str):
    def check(out):
        point = json.loads(out)["point"]
        at = {f"x{i + 1}": x for i, x in enumerate(point)}
        if orc.eval_exact(orc.parse_terms(form), at) != 0:
            return "sampled point is not on the hypersurface"
        return None
    return check


def _check_special(kind: str, n: int):
    def check(out):
        res = json.loads(out)
        A = orc.fmat(res["A"])
        if kind == "rank_deficient":
            ok = orc.fdet(A) == 0 and orc.frank(A) == n - 1
        else:
            lam = orc.to_fraction(res["certificate"]["D"][0])
            B = [[x - (lam if i == j else 0) for j, x in enumerate(r)] for i, r in enumerate(A)]
            ok = orc.frank(B) == n - 1 and orc.frank(orc.fmul(B, B)) == n - 2
        return None if ok else f"matrix is not {kind}"
    return check


def _check_audit_cli(out):
    return None if out.rstrip().endswith("overall: pass") else "audit did not pass"


def _binary_form(c: int, d: int) -> str:
    tail = "x2" if d == 2 else f"x2^{d - 1}"
    return f"x1^{d} + {c}*x1*{tail} - x2^{d}"


def _query_round(rng: random.Random, det_coefs: dict[int, int]) -> list[Job]:
    """One of each kind of request, in fixed counts; each kind draws its
    parameters without replacement.  Requests whose cost depends on the
    form use a relabelled conic or a given coefficient, so that every seed
    asks for the same amount of work."""
    jobs: list[Job] = []

    for n, d in rng.sample([(n, d) for n in (2, 3, 4, 5) for d in (1, 2, 3, 4)], 4):
        jobs.append(_cli_job(["degrees", "--n", str(n), "--d", str(d)], _check_degrees(n, d)))
    jobs.append(_cli_job(["degrees", "--table", "--format", "csv"], _check_table,
                         corrupt=lambda out: out.replace(",6,", ",7,", 1)))

    for n, s in rng.sample([(n, s) for n in (2, 3, 4) for s in (1, 2, 3)], 2):
        jobs.append(_cli_job(["chow", "--n", str(n), "--s", str(s), "--w"], _check_class(n, s)))
    for n, part in rng.sample([(n, p) for n in (2, 3, 4)
                               for p in ("1,2", "1|2", "1,2|3", "1|2,3", "1,3|2")], 2):
        s = max(int(x) for x in re.findall(r"\d", part))
        jobs.append(_cli_job(["chow", "--n", str(n), "--s", str(s), "--partition", part],
                             _check_class(n, s)))
    for n, s in rng.sample([(n, s) for n in (2, 3, 4, 5) for s in (1, 2, 3)], 2):
        jobs.append(_cli_job(["chow", "--n", str(n), "--s", str(s), "--ctilde"],
                             _check_ctilde(n, s)))

    for n, d in rng.sample([(n, d) for n in (2, 3) for d in (1, 2, 3)], 2):
        jobs.append(_cli_job(["sympower", "--n", str(n), "--d", str(d)],
                             _check_sympower(n, d, rng)))

    for form in (_binary_form(rng.randint(1, 5), rng.choice((2, 3))), _relabelled_conic(rng)):
        jobs.append(_cli_job(["kalman-matrix", "--f", form], _check_kalman_matrix(form, rng)))

    for d, c in det_coefs.items():
        form = _binary_form(c, d)
        jobs.append(_cli_job(["kalman-det", "--f", form], _check_kalman_det(form, rng),
                             corrupt=_drop_last_term))

    jobs.append(_cli_job(["salmon"], _check_salmon_generic))
    conic, param = rng.choice(CONICS)
    jobs.append(_cli_job(["salmon", "--conic", conic, "--format", "json"],
                         _check_salmon_conic(param, rng)))

    for mu in ("1,1", "2"):
        form = rng.choice(("x2^2 - x1*x3", "x1^2 - x2^2", "x1*x2 - x3^2"))
        jobs.append(_cli_job(["witness", "--f", form, "--mu", mu, "--seed",
                              str(rng.randrange(1000)), "--format", "json"],
                             _check_witness_mu(form)))
    form = rng.choice(("x2^2 - x1*x3", "x1^2 - x2^2", "x1*x2 - x3^2"))
    jobs.append(_cli_job(["witness", "--f", form, "--seed", str(rng.randrange(1000)),
                          "--format", "json"], _check_sample(form)))
    kind = rng.choice(("rank_deficient", "repeated_eigenvalue_jordan"))
    n = rng.choice((2, 3))
    jobs.append(_cli_job(["witness", "--n", str(n), "--kind", kind, "--seed",
                          str(rng.randrange(1000)), "--format", "json"], _check_special(kind, n)))
    jobs.append(_cli_job(["witness", "--f", WITNESS_GAP_SAMPLE, "--format", "json"],
                         _check_sample(WITNESS_GAP_SAMPLE), known="no point"))

    for form in ("x2^2 - x1*x3", "x1*x2 - x3^2"):
        jobs.append(_cli_job(["audit", "--f", form, "--trials", "5", "--seed",
                              str(rng.randrange(1000))], _check_audit_cli))
    return jobs


def queries(seed: int) -> list[Job]:
    """A seeded stream of small CLI requests: two rounds of every kind, then
    three requests repeated verbatim, so that kalman_det's cache and the
    enumerative memo tables serve part of the stream."""
    rng = random.Random(seed)
    # distinct determinant requests in the two rounds: the repeats are the three below
    coefs = {d: rng.sample(range(1, 6), 2) for d in (2, 3, 4)}
    jobs = [job for r in range(2) for job in _query_round(rng, {d: c[r] for d, c in coefs.items()})]
    first = {}
    for job in jobs:
        first.setdefault(job.label.split()[1], job)
    return jobs + [first[k] for k in ("kalman-det", "degrees", "chow")]


WORKLOADS = {
    "conic_det": conic_det,
    "ladder_det": ladder_det,
    "audit": audit,
    "queries": queries,
}
