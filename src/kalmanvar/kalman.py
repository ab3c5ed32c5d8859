"""Kalman matrices of polynomial observation systems, exactly.

For an n x n matrix A acting on degree-d forms through its symmetric power
rho_d(A), and a p x N coefficient matrix C of observed forms
(N = C(n-1+d, d)), the order-d Kalman matrix stacks the row blocks

    C, C rho_d(A), C rho_d(A)^2, ..., C rho_d(A)^{N-p}

into a p(N-p+1) x N matrix.  Its maximal minors vanish on every matrix
with an eigenvector lying on the common zero locus of the observed forms,
which makes the square (p = 1) determinant a single equation certifying
eigenpoint membership.

This module constructs these matrices symbolically and numerically,
computes the hypersurface determinant, measures vanishing orders of the
determinant and of spectral discriminants along rational lines, and runs
a randomized-but-seeded audit of the determinant's factorization into a
saturated-discriminant square root times one factor per eigenvalue
partition.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .enumerative import discriminant_budget, partitions
from .polycore import (
    Polynomial,
    ProblemTooLarge,
    Scalar,
    ZeroPolynomial,
    _demote,
    a_universe,
    lru,
    root_multiplicity_at_zero,
    t_universe,
    univariate_discriminant,
)
from .polymatrix import (
    DimensionMismatch,
    PolyMatrix,
    char_poly_coeffs,
    _integer_rows,
    qmat_det,
    qmat_rank,
)
from .veronese import (
    basis_size,
    coeff_matrix,
    coeff_row,
    polarize,
    sym_power,
    sym_power_scalar,
)
from .witness import (
    RETRY_BUDGET,
    EigenSpec,
    NoStrategy,
    RetryExhausted,
    UnsupportedPartition,
    collision_eigenvalues,
    derive_seed,
    matrix_with_eigenvectors,
    mu_witness,
    random_invertible,
    rho_simple_eigenvalues,
)


class RankDeficientC(ValueError):
    """The observation coefficient matrix does not have full row rank."""


class LineRestrictionZero(ArithmeticError):
    """The target polynomial restricts to zero on the whole sampled line,
    so no vanishing order at the base point is defined; retry with fresh
    randomness."""


def _infer_nd(f: Polynomial, n: int | None, d: int | None) -> tuple[int, int]:
    hd = f.is_homogeneous()
    if hd is None or hd < 1:
        raise ValueError("a nonzero homogeneous form of positive degree is required")
    if d is None:
        d = hd
    elif d != hd:
        raise ValueError(f"form has degree {hd}, not the requested d={d}")
    if n is None:
        n = f.u.nvars
    elif n != f.u.nvars:
        raise ValueError(f"form lives in {f.u.nvars} variables, not n={n}")
    return n, d


@dataclass(frozen=True)
class KalmanInstance:
    """Dimension n, form degree d, and an exact p x N coefficient matrix C
    of full row rank (rows = coefficient vectors of observed degree-d
    forms in the graded-lex monomial basis)."""

    n: int
    d: int
    C: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        N = basis_size(self.n, self.d)
        p = len(self.C)
        if p == 0 or p > N:
            raise ValueError(f"C must have between 1 and {N} rows")
        if any(len(r) != N for r in self.C):
            raise ValueError(f"C must have exactly N={N} columns")
        if qmat_rank([list(r) for r in self.C]) < p:
            raise RankDeficientC("C must have full row rank")

    @property
    def p(self) -> int:
        return len(self.C)

    @property
    def N(self) -> int:
        return basis_size(self.n, self.d)

    @classmethod
    def from_form(cls, f: Polynomial, n: int | None = None,
                  d: int | None = None) -> "KalmanInstance":
        """Single-form (p = 1) instance; n and d are inferred from f when
        omitted and cross-checked when given."""
        n, d = _infer_nd(f, n, d)
        return cls(n=n, d=d, C=(tuple(coeff_row(f, n, d)),))

    @classmethod
    def from_generators(cls, generators: Sequence[Polynomial]) -> "KalmanInstance":
        """Instance for several forms: d is the lcm of their degrees, each
        generator is raised to degree d, and dependent rows are dropped so
        C has full row rank."""
        rows, d = coeff_matrix(generators)
        n = generators[0].u.nvars
        return cls(n=n, d=d, C=tuple(tuple(r) for r in rows))


def kalman_matrix(inst: KalmanInstance, A: PolyMatrix) -> PolyMatrix:
    """The stacked matrix with row blocks C * rho_d(A)^i, i = 0..N-p.

    A may be any square matrix of polynomials of size n (the generic
    matrix of indeterminates, or a pencil A0 + t*A1 restricted to a line).
    Block i has entries homogeneous of degree d*i in the entries of A.
    """
    if not A.is_square() or A.nrows != inst.n:
        raise DimensionMismatch(f"A must be {inst.n}x{inst.n}")
    R = sym_power(A, inst.d)
    block = PolyMatrix.from_scalars(A.u, inst.C)
    rows = [list(r) for r in block.rows]
    for _ in range(inst.N - inst.p):
        block = block * R
        rows.extend(list(r) for r in block.rows)
    return PolyMatrix(A.u, rows)


# The largest symbolic Kalman matrix of the generic n x n matrix, as a bound
# on its terms: block i holds N entries of degree d*i in the n^2 entries of
# A, so at most N * C(n^2+d*i-1, d*i) terms.  On a 2-core Xeon the binary
# d = 11 (bound 1.2e7, the largest accepted) took 3.1 s; the plane cubic
# (4.1e8) took 24 s and 1.06 GB, and the quaternary quadric (1.4e10) gave
# no result in 40 s.
MAX_KALMAN_TERMS = 2 * 10 ** 7


def check_kalman_matrix_size(inst: KalmanInstance) -> None:
    """Raise, before any work, when the Kalman matrix of `inst` at the
    generic matrix may hold more than MAX_KALMAN_TERMS terms, or its names
    or exponents (d*(N-p) in the last block) do not fit `a_universe(n)`."""
    n, d, N = inst.n, inst.d, inst.N
    a_universe(n).check_product_exponent(d * (N - inst.p))
    bound = sum(N * math.comb(n * n + d * i - 1, d * i) for i in range(N - inst.p + 1))
    if bound > MAX_KALMAN_TERMS:
        raise ProblemTooLarge(
            f"K_{d} of a form in {n} variables may hold {bound} terms; "
            f"the limit is MAX_KALMAN_TERMS = {MAX_KALMAN_TERMS}")


def kalman_matrix_at(inst: KalmanInstance, A0: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """kalman_matrix evaluated at a rational matrix, computed in integer
    arithmetic throughout (no symbolic detour).

    With c the lcm of the denominators of A0, rho_d(c A0) = c^d rho_d(A0)
    has integer entries, and so do the rows of C once each is multiplied by
    the lcm s_j of its denominators.  Block i is iterated as the integer
    rows s_j C_j rho_d(c A0)^i and divided back by s_j c^(d i), so entries
    are the exact values of C rho_d(A0)^i (integral ones as ints).
    """
    if len(A0) != inst.n or any(len(r) != inst.n for r in A0):
        raise DimensionMismatch(f"A0 must be {inst.n}x{inst.n}")
    c = math.lcm(*(x.denominator for r in A0 for x in r))
    cols = list(zip(*sym_power_scalar(
        [[x.numerator * (c // x.denominator) for x in r] for r in A0], inst.d)))
    block, scales = _integer_rows(inst.C)
    rows = [list(r) for r in inst.C]
    cd = c ** inst.d
    for _ in range(inst.N - inst.p):
        block = [[sum(map(operator.mul, r, col)) for col in cols] for r in block]
        scales = [s * cd for s in scales]
        for r, s in zip(block, scales):
            rows.append(r if s == 1 else [_demote(Fraction(x, s)) for x in r])
    return rows


# The largest N whose symbolic det K_d is computed: the binary sextic
# (N = 7) took 53-63 s on a 2-core Xeon, 50-60 s of it in two kernel calls
# on exact Python ints, and nothing larger has ever finished.
MAX_DET_N = 7

# Least-recently-used determinants; one entry can hold ~700k terms (the
# full conic det K_2), so only a few are kept.
_DET_CACHE_SIZE = 8
_DET_CACHE: OrderedDict[tuple, Polynomial] = OrderedDict()


def kalman_det(f: Polynomial, n: int | None = None, d: int | None = None) -> Polynomial:
    """Determinant of the square (single-form) Kalman matrix at the generic
    matrix of indeterminates a11..ann, canonically normalized (integer
    coefficients, positive leading coefficient).

    Homogeneous of total degree d*C(N,2) whenever no structural
    cancellation occurs (generic full-support forms).  Raises
    `ProblemTooLarge`, before any work, when N exceeds MAX_DET_N.
    """
    n, d = _infer_nd(f, n, d)
    N = basis_size(n, d)
    if N > MAX_DET_N:
        raise ProblemTooLarge(
            f"det K_{d} of a form in {n} variables has size N = {N}; "
            f"the limit is MAX_DET_N = {MAX_DET_N}")
    fc = f.canonical()
    key = (fc.u.names, fc.to_text(), n, d)

    def det():
        K = kalman_matrix(KalmanInstance.from_form(fc, n, d), PolyMatrix.generic(n))
        return K.det().canonical()

    return lru(_DET_CACHE, _DET_CACHE_SIZE, key, det)


def membership_necessary(inst: KalmanInstance, A0: Sequence[Sequence[Scalar]]) -> bool:
    """True iff the Kalman matrix at A0 drops rank below N — a necessary
    condition for A0 to have an eigenvector on the observed zero locus
    (for p = 1 this is exactly the vanishing of the determinant)."""
    return qmat_rank(kalman_matrix_at(inst, A0)) < inst.N


# -- spectral discriminants ---------------------------------------------------


def delta_at(A0: Sequence[Sequence[Scalar]]) -> Scalar:
    """Discriminant of the characteristic polynomial of A0 — the product of
    squared eigenvalue differences; zero iff an eigenvalue repeats."""
    return univariate_discriminant(char_poly_coeffs(A0))


def delta_d_at(A0: Sequence[Sequence[Scalar]], d: int) -> Scalar:
    """Discriminant of the characteristic polynomial of the d-th symmetric
    power of A0."""
    return univariate_discriminant(char_poly_coeffs(sym_power_scalar(A0, d)))


# -- vanishing orders along lines ---------------------------------------------


def _line_matrix(A0: Sequence[Sequence[Scalar]], A1: Sequence[Sequence[Scalar]]) -> PolyMatrix:
    """The pencil A0 + t*A1 as a matrix of univariate polynomials in t."""
    n = len(A0)
    if any(len(r) != n for r in A0) or len(A1) != n or any(len(r) != n for r in A1):
        raise DimensionMismatch("A0 and A1 must be square of equal size")
    ut = t_universe()
    rows = []
    for r0, r1 in zip(A0, A1):
        rows.append([
            Polynomial.const(ut, a) + Polynomial.var(ut, "t", 1, b)
            for a, b in zip(r0, r1)
        ])
    return PolyMatrix(ut, rows)


def _order_at_zero(p: Polynomial) -> int:
    try:
        return root_multiplicity_at_zero(p)
    except ZeroPolynomial:
        raise LineRestrictionZero("restriction identically zero") from None


def factor_order_along_line(target: str, A0: Sequence[Sequence[Scalar]],
                            A1: Sequence[Sequence[Scalar]], *,
                            f: Polynomial | None = None,
                            d: int | None = None) -> int:
    """Vanishing order at t = 0 of a target polynomial restricted to the
    line A0 + t*A1.

    Targets:
      "det"      determinant of the Kalman matrix of the form f (required);
      "delta_d"  discriminant of the characteristic polynomial of the d-th
                 symmetric power (d required);
      "delta"    discriminant of the characteristic polynomial itself.

    For A0 generic on a degeneration locus and A1 generic, the order equals
    the multiplicity of the corresponding factor of the target.  Raises
    LineRestrictionZero when the restriction vanishes identically (a
    non-generic line; the caller should retry with fresh randomness).
    """
    At = _line_matrix(A0, A1)
    if target == "det":
        if f is None:
            raise ValueError('target "det" requires the form f')
        inst = KalmanInstance.from_form(f, len(A0), d)
        restricted = kalman_matrix(inst, At).det()
    elif target == "delta_d":
        if d is None:
            raise ValueError('target "delta_d" requires d')
        restricted = univariate_discriminant(sym_power(At, d).char_poly())
    elif target == "delta":
        restricted = univariate_discriminant(At.char_poly())
    else:
        raise ValueError(f"unknown target {target!r}")
    return _order_at_zero(restricted)


# -- factorization audit ------------------------------------------------------

_RANK = {"pass": 0, "error": 1, "fail": 2}


def _worst(statuses) -> str:
    """The most severe of the statuses; "pass" when there are none."""
    return max(statuses, key=_RANK.__getitem__, default="pass")


def _tuple_values_nonzero(polarizations: Sequence[tuple[int, Polynomial]],
                          cols: Sequence[Sequence[Scalar]]) -> bool:
    """True iff every partition polarization f_mu, given with its number of
    blocks s, is nonzero on every ordered tuple of s distinct eigenvector
    columns — the draw then lies on no component of the determinant's
    vanishing locus."""
    n = len(cols)
    for s, fmu in polarizations:
        for idx in itertools.permutations(range(n), s):
            if fmu.evaluate([x for i in idx for x in cols[i]]) == 0:
                return False
    return True


def _generic_draw(rng: random.Random, n: int, d: int,
                  polarizations: Sequence[tuple[int, Polynomial]]):
    """Eigenvalues and an eigenvector matrix V whose columns avoid every
    partition's polarization locus, by rejection sampling."""
    for _ in range(RETRY_BUDGET):
        lams = rho_simple_eigenvalues(rng, n, d)
        V = random_invertible(rng, n)
        if _tuple_values_nonzero(polarizations, list(zip(*V))):
            return lams, V
    raise RetryExhausted("rejection sampling found no generic draw")


def _det_case(case: dict, inst: KalmanInstance, A, vanishes: bool) -> dict:
    """case with det K(A) recorded; it passes when the determinant vanishes
    exactly as `vanishes` says."""
    val = qmat_det(kalman_matrix_at(inst, A))
    case["status"] = "pass" if (val == 0) == vanishes else "fail"
    case["det_value"] = str(val)
    return case


def _case_assertion(name: str, witness_seed: int, cases: list[dict]) -> dict:
    """An assertion over cases, as severe as its worst case."""
    return {"assertion": name, "status": _worst(c["status"] for c in cases),
            "witness_seed": witness_seed, "certificate": {"cases": cases}}


def factorization_audit(f: Polynomial, n: int | None = None, d: int | None = None,
                        *, trials: int = 20, seed: int = 0) -> dict:
    """Randomized-but-seeded audit of the factorization structure of the
    Kalman determinant of f.  Four assertions:

      degree_budget            deg det = deg sqrt(saturated discriminant)
                               + sum of the per-partition factor degrees
      mu_witness_vanishing     det vanishes at an exact witness matrix for
                               every eigenvalue partition of d into at most
                               n parts
      collision_vanishing      det vanishes at matrices whose symmetric
                               power has a repeated eigenvalue while the
                               matrix spectrum stays simple
      generic_nonvanishing     det is nonzero at `trials` diagonalizable
                               matrices drawn to avoid every factor's locus

    All evaluations are numeric-exact (the symbolic determinant is never
    expanded).  Witness construction failures are reported per case, not
    fatal.  The report is deterministic for a fixed seed and JSON-safe.
    """
    n, d = _infer_nd(f, n, d)
    inst = KalmanInstance.from_form(f, n, d)
    mus = partitions(d, n)
    assertions: list[dict] = []

    # degree budget
    try:
        rep = discriminant_budget(n, d)
        cert = {k: (str(v) if isinstance(v, Fraction) else v)
                for k, v in rep.values.items()}
        assertions.append({"assertion": "degree_budget", "status": "pass",
                           "witness_seed": None, "certificate": cert})
    except AssertionError as e:  # pragma: no cover - formulas are consistent
        assertions.append({"assertion": "degree_budget", "status": "fail",
                           "witness_seed": None,
                           "certificate": {"error": str(e)}})

    # vanishing at one exact witness per partition
    cases = []
    for k, mu in enumerate(mus):
        ws = derive_seed(seed, 1_000_000 + k)
        case: dict = {"mu": list(mu.parts), "witness_seed": ws}
        try:
            w = mu_witness(f, mu, n, seed=ws)
        except (UnsupportedPartition, NoStrategy, RetryExhausted) as e:
            cases.append(dict(case, status="error", reason=str(e)))
            continue
        cases.append(dict(_det_case(case, inst, w.A, vanishes=True),
                          certificate=w.certificate))
    assertions.append(_case_assertion("mu_witness_vanishing",
                                      derive_seed(seed, 1_000_000), cases))

    # vanishing on the repeated-symmetric-power-eigenvalue locus
    if d < 2:
        assertions.append({
            "assertion": "collision_vanishing", "status": "pass",
            "witness_seed": None,
            "certificate": {"note": "the saturated discriminant factor is "
                                    "constant for d = 1; nothing to check"},
        })
    else:
        cases = []
        for j in range(trials):
            ws = derive_seed(seed, 2_000_000 + j)
            rng = random.Random(ws)
            case = {"trial": j, "witness_seed": ws}
            try:
                lams = collision_eigenvalues(rng, n, d)
                V = random_invertible(rng, n)
            except RetryExhausted as e:  # pragma: no cover - ample retries
                cases.append(dict(case, status="error", reason=str(e)))
                continue
            A = matrix_with_eigenvectors(EigenSpec(tuple(map(tuple, V)), tuple(lams)))
            case["eigenvalues"] = [str(l) for l in lams]
            cases.append(_det_case(case, inst, A, vanishes=True))
        assertions.append(_case_assertion("collision_vanishing",
                                          derive_seed(seed, 2_000_000), cases))

    # nonvanishing at generic diagonalizable matrices away from all factors
    polarizations = [(mu.s, polarize(f, mu)) for mu in mus]
    cases = []
    for j in range(trials):
        ws = derive_seed(seed, 3_000_000 + j)
        case = {"trial": j, "witness_seed": ws}
        try:
            lams, V = _generic_draw(random.Random(ws), n, d, polarizations)
        except RetryExhausted as e:  # pragma: no cover - ample retries
            cases.append(dict(case, status="error", reason=str(e)))
            continue
        A = matrix_with_eigenvectors(EigenSpec(tuple(map(tuple, V)), tuple(lams)))
        case["eigenvalues"] = [str(l) for l in lams]
        cases.append(_det_case(case, inst, A, vanishes=False))
    assertions.append(_case_assertion("generic_nonvanishing",
                                      derive_seed(seed, 3_000_000), cases))

    return {
        "n": n,
        "d": d,
        "f": f.to_text(),
        "seed": seed,
        "trials": trials,
        "assertions": assertions,
        "status": _worst(a["status"] for a in assertions),
    }
