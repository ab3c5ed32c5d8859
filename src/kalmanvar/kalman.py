"""Kalman matrices of polynomial observation systems, exactly.

For an n x n matrix A acting on degree-d forms through its symmetric power
rho_d(A), and a p x N coefficient matrix C of observed forms
(N = C(n-1+d, d)), the order-d Kalman matrix stacks the row blocks

    C, C rho_d(A), C rho_d(A)^2, ..., C rho_d(A)^{N-p}

into a p(N-p+1) x N matrix.  Its maximal minors vanish on every matrix
with an eigenvector lying on the common zero locus of the observed forms,
which makes the square (p = 1) determinant a single equation certifying
eigenpoint membership.

This module constructs these matrices symbolically and at rational
matrices (det K(A0) is qmat_det of `kalman_matrix_at`), computes the
hypersurface determinant, measures vanishing orders of the determinant
and of spectral discriminants along rational lines, and runs a
randomized-but-seeded audit of the determinant's factorization into a
saturated-discriminant square root times one factor per eigenvalue
partition, by an eigen-product identity (`_eigen_det`).  Everything is
exact rational arithmetic.
"""

from __future__ import annotations

import math
import operator
import random
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .enumerative import discriminant_budget, partition_count, partitions
from .polycore import (
    Polynomial,
    ProblemTooLarge,
    Scalar,
    ZeroPolynomial,
    _demote,
    a_universe,
    lru,
    root_multiplicity_at_zero,
    sum_of_products,
    t_universe,
    univariate_discriminant,
)
from .polymatrix import (
    DimensionMismatch,
    NonSquareMatrix,
    PolyMatrix,
    char_poly_coeffs,
    qmat_det,
    qmat_rank,
)
from .veronese import (
    basis_size,
    coeff_matrix,
    coeff_row,
    monomial_basis,
    sym_power,
    sym_power_scalar,
)
from .witness import (
    RETRY_BUDGET,
    NoStrategy,
    RetryExhausted,
    SingularV,
    UnsupportedPartition,
    collision_eigenvalues,
    derive_seed,
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


def _form_nd(f: Polynomial) -> tuple[int, int]:
    """(n, d) of a nonzero homogeneous form f of positive degree; else ValueError."""
    d = f.is_homogeneous()
    if d is None or d < 1:
        raise ValueError("a nonzero homogeneous form of positive degree is required")
    return f.u.nvars, d


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
    def from_form(cls, f: Polynomial) -> "KalmanInstance":
        """Single-form (p = 1) instance; n and d are read from f (`_form_nd`)."""
        n, d = _form_nd(f)
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
    C = PolyMatrix.from_scalars(A.u, inst.C)
    return PolyMatrix(A.u, C.rows + _krylov_rows(C, sym_power(A, inst.d), inst.N - inst.p))


def _krylov_rows(block: PolyMatrix, M: PolyMatrix, count: int) -> list[list[Polynomial]]:
    """The rows of the blocks block * M^i, i = 1..count."""
    rows = []
    for _ in range(count):
        block = block * M
        rows += block.rows
    return rows


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
    """kalman_matrix evaluated at a rational matrix, in integer arithmetic
    throughout, integral entries as ints.  With c the lcm of the
    denominators of A0, rho_d(c A0) = c^d rho_d(A0) is integral: the rows of
    C, cleared of denominators, are iterated as v <- v rho_d(c A0), and row
    block i is v / den, den reduced by the common factor of den and v.
    """
    if len(A0) != inst.n or any(len(r) != inst.n for r in A0):
        raise DimensionMismatch(f"A0 must be {inst.n}x{inst.n}")
    c = math.lcm(*(x.denominator for r in A0 for x in r))
    cols = list(zip(*sym_power_scalar(
        [[x.numerator * (c // x.denominator) for x in r] for r in A0], inst.d)))
    den = math.lcm(*(x.denominator for r in inst.C for x in r))
    block = [[x.numerator * (den // x.denominator) for x in r] for r in inst.C]
    rows = [list(r) for r in inst.C]
    for _ in range(inst.N - inst.p):
        block = [[sum(map(operator.mul, v, col)) for col in cols] for v in block]
        den *= c ** inst.d
        g = math.gcd(den, *(x for v in block for x in v))
        if g > 1:
            block, den = [[x // g for x in v] for v in block], den // g
        rows += block if den == 1 else [[_demote(Fraction(x, den)) for x in v] for v in block]
    return rows


def _form_at_columns(inst: KalmanInstance, V: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    """C rho_d(V) of a single-form instance: the coefficients of
    f(x_1 v_1 + ... + x_n v_n), v_j the columns of V, in the basis order."""
    return [sum(map(operator.mul, inst.C[0], col)) for col in zip(*sym_power_scalar(V, inst.d))]


def _eigen_det(inst: KalmanInstance, V: Sequence[Sequence[Scalar]], lams: Sequence[Scalar],
               cw: Sequence[Scalar] | None = None) -> Scalar:
    """det K(A) at A = V diag(lams) V^-1 of a single-form instance, equal to
    qmat_det(kalman_matrix_at(inst, A)) in value and type, without forming
    A or K.  `cw`, when given, is `_form_at_columns(inst, V)`.

    rho_d is multiplicative and sends diag(lams) to diag(mu), with
    mu_alpha = lams^alpha over the basis monomials alpha.  So with
    W = rho_d(V), rho_d(A)^i = W diag(mu)^i W^-1, and row block i of K is
    C rho_d(A)^i = (C W) diag(mu)^i W^-1.  Hence K = P diag(C W) W^-1, with
    P[i][alpha] = mu_alpha^i a Vandermonde matrix, and det rho_d(V) =
    det(V)^k with k = d N / n = C(n+d-1, d-1):

        det K(A) = prod_alpha (C W)_alpha * prod_{a<b} (mu_b - mu_a) / det(V)^k.

    (C W)_alpha is the coefficient of x^alpha in f(x_1 v_1 + ... + x_n v_n).
    Put the columns that alpha picks in the order of their exponents, which
    then form a partition mu of d: the coefficient is d!/(mu_1! ... mu_s!)
    times the polarization f_mu (`veronese.polarize`) at those columns.
    Every ordered tuple of s distinct columns arises this way, once for
    each partition with s parts, so all(C W) holds exactly when every f_mu
    is nonzero on every ordered tuple of distinct columns of V.

    Raises NonSquareMatrix for p > 1, DimensionMismatch unless V is n x n
    with n eigenvalues, and SingularV for a singular V.
    """
    if inst.p != 1:
        raise NonSquareMatrix(
            f"K has {inst.p * (inst.N - inst.p + 1)} rows and {inst.N} columns; "
            "its determinant needs a single form")
    n, d, N = inst.n, inst.d, inst.N
    if len(V) != n or len(lams) != n:
        raise DimensionMismatch(f"V must be {n}x{n} with {n} eigenvalues")
    det_v = qmat_det(V)
    if det_v == 0:
        raise SingularV("eigenvector matrix is singular")
    if cw is None:
        cw = _form_at_columns(inst, V)
    mus = [math.prod(l ** e for l, e in zip(lams, alpha)) for alpha in monomial_basis(n, d)]
    vand = math.prod(mus[b] - mus[a] for a in range(N) for b in range(a + 1, N))
    return _demote(Fraction(math.prod(cw) * vand) / Fraction(det_v) ** (d * N // n))


# The largest N whose symbolic det K_d is computed.  At N = 7 (binary
# sextics) the time depends on the form's support: on a 2-core Xeon the
# 3-term x1^6 + 2*x1*x2^5 - 3*x2^6 takes 0.4-0.7 s and the 5-term
# x1^6 + 2*x1^5*x2 - 3*x1^3*x2^3 + x1*x2^5 - 5*x2^6 0.9-1.3 s and 65 MB
# peak RSS.  N = 8 stays out however fast it would run: det K_7 of a
# binary septic has degree 7 * C(8, 2) = 196, past the 7-bit exponent
# field; with the limit lifted, x1^7 + 2*x1*x2^6 - 3*x2^7 raised
# ExponentOverflow after 71 s.
MAX_DET_N = 7

# Least-recently-used determinants; one entry can hold ~700k terms (the
# full conic det K_2), so only a few are kept.
_DET_CACHE_SIZE = 8
_DET_CACHE: OrderedDict[tuple, Polynomial] = OrderedDict()


def _inverse_split(n: int, d: int) -> tuple[int, int, int]:
    """(k, E, sigma) of the identity in `kalman_det` for degree-d forms in
    n variables: k maximizes E, since E(k + 1) - E(k) = d*(N/n - k - 1),
    capped at N - 1; for d = 1, k = 1 would give E = 0, so k = 0."""
    N = basis_size(n, d)
    k = 0 if d == 1 else min(N // n, N - 1)
    E = k * math.comb(n + d - 1, d - 1) - d * k * (k + 1) // 2
    sigma = -1 if (k * (k - 1) // 2 + k * (N - k)) % 2 else 1
    return k, E, sigma


def _adjugate(A: PolyMatrix) -> PolyMatrix:
    """adj A, the transposed matrix of cofactors: n^2 determinants of
    order n - 1."""
    n = A.nrows

    def cofactor(i: int, j: int) -> Polynomial:
        minor = PolyMatrix(A.u, [[e for c, e in enumerate(r) if c != j]
                                 for r_i, r in enumerate(A.rows) if r_i != i]).det()
        return -minor if (i + j) % 2 else minor

    return PolyMatrix(A.u, [[cofactor(j, i) for j in range(n)] for i in range(n)])


def _kalman_det_of(inst: KalmanInstance, A: PolyMatrix) -> Polynomial:
    """det kalman_matrix(inst, A) of a single-form instance at any square
    A of size n, not normalized, by the identity in `kalman_det`."""
    n, d, N = inst.n, inst.d, inst.N
    k, E, sigma = _inverse_split(n, d)
    C = PolyMatrix.from_scalars(A.u, inst.C)
    rows = C.rows + _krylov_rows(C, sym_power(A, d), N - 1 - k)
    if k:
        adj = _adjugate(A)
        rows += _krylov_rows(C, sym_power(adj, d), k)
    det = PolyMatrix(A.u, rows).det()
    if k:
        det_a = sum_of_products(A.u, [(1, A[0, j], adj[j, 0]) for j in range(n)])
        det = det * det_a ** E
    return -det if sigma < 0 else det


def kalman_det(f: Polynomial) -> Polynomial:
    """Determinant of the square (single-form) Kalman matrix at the generic
    matrix of indeterminates a11..ann, canonically normalized (integer
    coefficients, positive leading coefficient).

    Homogeneous of total degree d*C(N,2) whenever no structural
    cancellation occurs (generic full-support forms).  Raises
    `ProblemTooLarge`, before any work, when N exceeds MAX_DET_N.

    The top Krylov rows C R^i, of degree d*i, are traded for low powers of
    S = rho_d(adj A), by the polynomial identity

        det K_d(A) = sigma * det(A)^E * det K^,
        K^ = [C; C R; ...; C R^(N-1-k); C S; C S^2; ...; C S^k],
        R = rho_d(A),  E = k*C(n+d-1, d-1) - d*k*(k+1)/2,
        sigma = (-1)^(k*(k-1)/2 + k*(N-k)),

    with k from `_inverse_split`: k = min(floor(N/n), N - 1) for d >= 2,
    and k = 0 for d = 1.  It holds for every square A because it holds
    wherever A is invertible.  There rho_d is multiplicative, so
    det R = det(A)^C(n+d-1, d-1) and C R^-j = C S^j / det(A)^(d*j), since
    A^-1 = adj A / det A.  Then det K = det(R)^k * det(K R^-k), the rows of
    K R^-k are C R^(i-k) for i = 0..N-1, and clearing det(A)^(d*j) from the
    row C R^-j, j = 1..k, leaves det(A)^E.  Moving those k rows, in the
    order C S^k, ..., C S, below the other N - k and reversing them gives
    sigma.
    """
    n, d = _form_nd(f)
    N = basis_size(n, d)
    if N > MAX_DET_N:
        raise ProblemTooLarge(
            f"det K_{d} of a form in {n} variables has size N = {N}; "
            f"the limit is MAX_DET_N = {MAX_DET_N}")
    fc = f.canonical()
    key = (fc.u.names, fc.to_text())

    def det():
        return _kalman_det_of(KalmanInstance.from_form(fc), PolyMatrix.generic(n)).canonical()

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


# The largest restrictions factor_order_along_line computes, in units of N
# times the target's degree in t: d*C(N, 2) for "det", d*N*(N-1) for
# "delta_d" ("delta" is d = 1).  On a 2-core Xeon "det" took 5.5 s at 4410
# ((n, d) = (21, 1)) and 8.3 s at 6050 ((2, 10)); "delta_d" 7.7 s at 3150
# ((15, 1)) and 23 s at 5184 ((2, 8)).
MAX_LINE_DET_WORK = 5000
MAX_LINE_DELTA_WORK = 3200


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
    Raises `ProblemTooLarge`, before any work, past MAX_LINE_DET_WORK or
    MAX_LINE_DELTA_WORK.
    """
    At = _line_matrix(A0, A1)
    if target == "det":
        if f is None:
            raise ValueError('target "det" requires the form f')
        if d is not None:
            raise ValueError('target "det" takes its degree from f, not d')
        n, fd = _form_nd(f)
        N = basis_size(n, fd)
        work = N * fd * math.comb(N, 2)
        if work > MAX_LINE_DET_WORK:
            raise ProblemTooLarge(f"det K_{fd} on a line takes {work} units of work; "
                                  f"the limit is MAX_LINE_DET_WORK = {MAX_LINE_DET_WORK}")
        restricted = kalman_matrix(KalmanInstance.from_form(f), At).det()
    elif target in ("delta_d", "delta"):
        if target == "delta_d" and d is None:
            raise ValueError('target "delta_d" requires d')
        k = d if target == "delta_d" else 1
        N = basis_size(At.nrows, k)
        work = N * k * N * (N - 1)
        if work > MAX_LINE_DELTA_WORK:
            raise ProblemTooLarge(f"Delta_{k} on a line takes {work} units of work; "
                                  f"the limit is MAX_LINE_DELTA_WORK = {MAX_LINE_DELTA_WORK}")
        M = sym_power(At, d) if target == "delta_d" else At
        restricted = univariate_discriminant(M.char_poly())
    else:
        raise ValueError(f"unknown target {target!r}")
    try:
        return root_multiplicity_at_zero(restricted)
    except ZeroPolynomial:
        raise LineRestrictionZero("restriction identically zero") from None


# -- factorization audit ------------------------------------------------------

_RANK = {"pass": 0, "error": 1, "fail": 2}


def _worst(statuses) -> str:
    """The most severe of the statuses; "pass" when there are none."""
    return max(statuses, key=_RANK.__getitem__, default="pass")


def _generic_draw(rng: random.Random, inst: KalmanInstance):
    """Eigenvalues, an eigenvector matrix V whose columns avoid every
    partition's polarization locus, and C rho_d(V), by rejection sampling:
    a draw is kept when every entry of C rho_d(V) is nonzero (`_eigen_det`)."""
    for _ in range(RETRY_BUDGET):
        lams = rho_simple_eigenvalues(rng, inst.n, inst.d)
        V = random_invertible(rng, inst.n)
        cw = _form_at_columns(inst, V)
        if all(cw):
            return lams, V, cw
    raise RetryExhausted("rejection sampling found no generic draw")


# digits per str() call: below 640, the lowest limit Python can set on the
# digits of an int that str() converts
_DECIMAL_CHUNK = 600


def _decimal(v: Scalar) -> str:
    """str(v) at any length, an int or a Fraction: str() itself raises past
    sys.get_int_max_str_digits() digits."""
    if type(v) is Fraction:
        den = v.denominator
        return _decimal(v.numerator) + ("" if den == 1 else "/" + _decimal(den))
    sign, v = ("-", -v) if v < 0 else ("", v)
    base = 10 ** _DECIMAL_CHUNK
    parts = []
    while v >= base:
        v, r = divmod(v, base)
        parts.append(str(r).zfill(_DECIMAL_CHUNK))
    return sign + str(v) + "".join(reversed(parts))


def _det_case(inst: KalmanInstance, case: dict, V, lams, vanishes: bool, cw=None) -> dict:
    """case, with det K(A) at A = V diag(lams) V^-1 (`_eigen_det`) as its
    det_value; it passes when the determinant vanishes exactly as
    `vanishes` says."""
    val = _eigen_det(inst, V, lams, cw)
    case.update(status="pass" if (val == 0) == vanishes else "fail", det_value=_decimal(val))
    return case


def _case_assertion(name: str, witness_seed: int, cases: list[dict]) -> dict:
    """An assertion over cases, as severe as its worst case."""
    return {"assertion": name, "status": _worst(c["status"] for c in cases),
            "witness_seed": witness_seed, "certificate": {"cases": cases}}


# The largest audit, as a bound on its work: each case (a witness per
# partition, 2*trials draws) costs 4096 units for its draws, n*d*N^2 for
# rho_d(V), and (d*C(N, 2))^2 / 1024 for the Vandermonde product, whose
# cost grows with the square of its length.  On a 2-core Xeon, limit
# lifted, (n, d, trials): units, time were (2, 2, 1000) 8.3e6 0.26 s;
# (3, 3, 500) 5.0e6 0.42 s; (4, 4, 20) 1.3e6 0.10 s; (5, 4, 20) 8.7e6
# 0.53 s; (3, 10, 20) 3.2e7 1.7 s; (5, 5, 20) 9.0e7 3.1 s; refused:
# (10, 3, 20) 2.8e8 9.3 s; (4, 8, 20) 6.8e8 23 s; (3, 15, 20) 1.3e9 36 s.
MAX_AUDIT_WORK = 10 ** 8


def _trial_assertion(name: str, inst: KalmanInstance, seed: int, base: int, trials: int,
                     draw, vanishes: bool) -> dict:
    """An assertion over `trials` seeded draws (lams, V, cw) = draw(rng),
    each a case of det K at A = V diag(lams) V^-1 (`_det_case`)."""
    cases = []
    for j in range(trials):
        ws = derive_seed(seed, base + j)
        case = {"trial": j, "witness_seed": ws}
        try:
            lams, V, cw = draw(random.Random(ws))
        except RetryExhausted as e:  # pragma: no cover - ample retries
            cases.append(dict(case, status="error", reason=str(e)))
            continue
        case["eigenvalues"] = [str(l) for l in lams]
        cases.append(_det_case(inst, case, V, lams, vanishes, cw))
    return _case_assertion(name, derive_seed(seed, base), cases)


def factorization_audit(f: Polynomial, *, trials: int = 20, seed: int = 0) -> dict:
    """Randomized-but-seeded audit of the factorization structure of the
    Kalman determinant of the form f, n and d read from f.  Four assertions:

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

    All evaluations are numeric-exact: each det K(A) is `_eigen_det` at
    the eigenvectors and eigenvalues the case drew, so neither the symbolic
    determinant nor a Kalman matrix is formed.  Witness construction
    failures are reported per case, not fatal.  The report is
    deterministic for a fixed seed and JSON-safe.  Raises
    `ProblemTooLarge`, before any work, when its work (in the units of
    MAX_AUDIT_WORK) exceeds MAX_AUDIT_WORK.
    """
    n, d = _form_nd(f)
    N = basis_size(n, d)
    cases = partition_count(d, n) + 2 * trials
    work = cases * (4096 + n * d * N * N + (d * math.comb(N, 2)) ** 2 // 1024)
    if work > MAX_AUDIT_WORK:
        raise ProblemTooLarge(
            f"an audit of {trials} trials of a degree-{d} form in {n} variables "
            f"(N = {N}) may take {work} units of work; the limit is "
            f"MAX_AUDIT_WORK = {MAX_AUDIT_WORK}")
    inst = KalmanInstance.from_form(f)
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
            w = mu_witness(f, mu, seed=ws)
        except (UnsupportedPartition, NoStrategy, RetryExhausted) as e:
            cases.append(dict(case, status="error", reason=str(e)))
            continue
        _det_case(inst, case, w.V, w.eigenvalues, vanishes=True)
        case["certificate"] = w.certificate
        cases.append(case)
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
        assertions.append(_trial_assertion(
            "collision_vanishing", inst, seed, 2_000_000, trials,
            lambda rng: (collision_eigenvalues(rng, n, d), random_invertible(rng, n), None),
            vanishes=True))

    # nonvanishing at generic diagonalizable matrices away from all factors
    assertions.append(_trial_assertion(
        "generic_nonvanishing", inst, seed, 3_000_000, trials,
        lambda rng: _generic_draw(rng, inst), vanishes=False))

    return {
        "n": n,
        "d": d,
        "f": f.to_text(),
        "seed": seed,
        "trials": trials,
        "assertions": assertions,
        "status": _worst(a["status"] for a in assertions),
    }
