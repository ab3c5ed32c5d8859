"""Exact rational witnesses: matrices with prescribed eigenstructure and
points on hypersurfaces / polarization loci.

Every construction is exact (Fraction arithmetic), seeded, and returns a
certificate of the checks performed; nothing here is approximate.  Random
integer draws are uniform in [-999, 999]; eigenvalues are distinct small
integers (|lambda| <= 99) whose degree-d monomials are also pairwise
distinct, so symmetric powers keep simple spectra.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polycore import Polynomial, ProblemTooLarge, Scalar, univariate_coeffs
from .polymatrix import (
    SingularMatrixError,
    qmat_det,
    qmat_identity,
    qmat_inv,
    qmat_mul,
    qmat_rank,
    qmat_vec,
)
from .veronese import PartitionType, monomial_basis, polarize

RETRY_BUDGET = 16
ENTRY_BOUND = 999
EIGENVALUE_BOUND = 99
# The largest special-locus matrix: on a 2-core Xeon n = 30 took 1.2-2 s,
# n = 40 7 s and n = 50 29 s, and past 2*EIGENVALUE_BOUND + 1 no spectrum
# of distinct eigenvalues exists.
MAX_SPECIAL_N = 30
SEARCH_HEIGHT = 3
SEARCH_MAX_VARS = 5


class SingularV(ValueError):
    """The prescribed eigenvector matrix V is not invertible."""


class NoStrategy(ValueError):
    """No exact sampling strategy applies to the given hypersurface."""


class RetryExhausted(RuntimeError):
    """The retry budget was consumed without producing a valid witness."""


class UnsupportedPartition(ValueError):
    """No exact construction is available for this partition shape."""


def derive_seed(seed: int, index: int) -> int:
    """Fixed splitting rule for per-trial seeds."""
    return (seed * 1_000_003 + index) % (1 << 63)


def _fmt_matrix(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _rand_int(rng: random.Random) -> int:
    return rng.randint(-ENTRY_BOUND, ENTRY_BOUND)


def _rand_vector(rng: random.Random, n: int) -> list[int]:
    for _ in range(RETRY_BUDGET):
        v = [_rand_int(rng) for _ in range(n)]
        if any(v):
            return v
    raise RetryExhausted("could not draw a nonzero vector")


# eigenstructure ------------------------------------------------------------


def matrix_with_eigenvectors(V: Sequence[Sequence[Scalar]], D: Sequence[Scalar]) -> list[list[Scalar]]:
    """A = V diag(D) V^{-1}; column i of V is an exact eigenvector for D[i].
    Raises ValueError unless V is square with one column per eigenvalue."""
    n = len(D)
    if len(V) != n or any(len(r) != n for r in V):
        raise ValueError("V must be square with one column per eigenvalue")
    try:
        vinv = qmat_inv(V)
    except SingularMatrixError as e:
        raise SingularV("eigenvector matrix is singular") from e
    vd = [[V[i][j] * D[j] for j in range(n)] for i in range(n)]
    a = qmat_mul(vd, vinv)
    for j in range(n):
        col = [V[i][j] for i in range(n)]
        if qmat_vec(a, col) != [D[j] * x for x in col]:  # pragma: no cover
            raise AssertionError("eigen-equation failed; construction fault")
    return a


def rho_simple_eigenvalues(rng: random.Random, n: int, d: int,
                           forced: Sequence[Scalar] = ()) -> list[Scalar]:
    """n pairwise-distinct integer eigenvalues whose degree-d monomials are
    also pairwise distinct.  `forced` entries are kept and completed."""
    exps = monomial_basis(n, d)
    for _ in range(RETRY_BUDGET):
        lams: list[Scalar] = list(forced)
        pool = [x for x in range(-EIGENVALUE_BOUND, EIGENVALUE_BOUND + 1)
                if x not in lams]
        rng.shuffle(pool)
        lams += pool[: n - len(lams)]
        if len(set(lams)) != n:
            continue
        monomials = [math.prod(l ** e for l, e in zip(lams, alpha))
                     for alpha in exps]
        if len(set(monomials)) == len(monomials):
            return lams
    raise RetryExhausted("no simple symmetric-power spectrum found")


def collision_eigenvalues(rng: random.Random, n: int, d: int) -> list[int]:
    """Distinct integer eigenvalues whose degree-d monomial multiset has a
    repeat - the locus where the symmetric power acquires a repeated
    eigenvalue while the matrix itself keeps a simple spectrum.

    n = 2 uses (c, -c) (then c^2 appears twice for d >= 2); n >= 3 embeds a
    geometric triple (a, aq, aq^2) so a*(aq^2) = (aq)^2.
    """
    if d < 2:
        raise ValueError("the symmetric power is the matrix itself for d < 2")
    for _ in range(RETRY_BUDGET):
        if n == 2:
            c = rng.randint(1, EIGENVALUE_BOUND)
            lams = [c, -c]
        else:
            a = rng.choice([1, 2, 3]) * rng.choice([-1, 1])
            q = rng.choice([2, 3, 4])
            lams = [a, a * q, a * q * q]
            pool = [x for x in range(-EIGENVALUE_BOUND, EIGENVALUE_BOUND + 1)
                    if x not in lams]
            rng.shuffle(pool)
            lams += pool[: n - 3]
        if len(set(lams)) == n:
            return lams
    raise RetryExhausted("no collision spectrum found")  # pragma: no cover


def random_invertible(rng: random.Random, n: int,
                      fixed_columns: Sequence[Sequence[Scalar]] = ()) -> list[list[Scalar]]:
    """Random integer matrix with prescribed leading columns, det != 0."""
    for _ in range(RETRY_BUDGET):
        cols = [list(c) for c in fixed_columns]
        cols += [_rand_vector(rng, n) for _ in range(n - len(cols))]
        v = [[cols[j][i] for j in range(n)] for i in range(n)]
        if qmat_det(v) != 0:
            return v
    raise RetryExhausted("could not draw an invertible matrix")


# hypersurface sampling ------------------------------------------------------


def _solve_linear_variable(f: Polynomial, rng: random.Random) -> list[Scalar] | None:
    """A linear solve in a variable of exponent exactly 1 everywhere in f,
    the other coordinates drawn at random."""
    nm = next((nm for nm in f.u.names if f.degree_in([nm]) == 1), None)
    if nm is None:
        return None
    n = f.u.nvars
    i = f.u.index[nm]
    # f = x_i * g + h with g, h free of x_i
    g = f.derivative(nm)
    h = f.specialize({nm: 0})
    for _ in range(RETRY_BUDGET):
        others = _rand_vector(rng, n)
        others[i] = 0
        gv = g.evaluate(others)
        if gv == 0:
            continue
        pt: list[Scalar] = list(others)
        pt[i] = Fraction(-h.evaluate(others), gv)
        if any(pt) and f.evaluate(pt) == 0:
            return pt
    raise RetryExhausted("linear solve kept hitting degenerate draws")


def _binary_root_point(f: Polynomial, rng: random.Random) -> list[Scalar] | None:
    """One of the rational projective zeros of a binary form, drawn at
    random: the roots of the x2 = 1 dehomogenization, then (1, 0) when x2
    divides the form."""
    if f.u.nvars != 2:
        return None
    x2 = f.u.names[1]
    pts: list[tuple[Fraction, Fraction]] = []
    g = f.specialize({x2: 1})
    if not g.is_zero():
        pts += [(r, Fraction(1)) for r in sorted(set(_rational_roots(univariate_coeffs(g))))]
    if f.specialize({x2: 0}).is_zero():
        pts.append((Fraction(1), Fraction(0)))
    if not pts:
        return None
    pt = list(pts[rng.randrange(len(pts))])
    if f.evaluate(pt) != 0:  # pragma: no cover
        raise AssertionError("root finder returned a non-zero; fault")
    return pt


def _small_integer_point(f: Polynomial, rng: random.Random) -> list[Scalar] | None:
    """One of the nonzero integer zeros with every |x_i| <= SEARCH_HEIGHT,
    drawn at random from the full list of them.  The box has
    (2*SEARCH_HEIGHT + 1)^n points, so forms in more than SEARCH_MAX_VARS
    variables are not searched."""
    if f.u.nvars > SEARCH_MAX_VARS:
        return None
    box = range(-SEARCH_HEIGHT, SEARCH_HEIGHT + 1)
    pts = [list(p) for p in itertools.product(box, repeat=f.u.nvars)
           if any(p) and f.evaluate(p) == 0]
    return rng.choice(pts) if pts else None


# tried in order; each returns None when it does not apply to the form
_SAMPLERS = (_solve_linear_variable, _binary_root_point, _small_integer_point)


def sample_on_hypersurface(f: Polynomial, seed: int = 0,
                           rng: random.Random | None = None) -> list[Scalar]:
    """A nonzero rational point v with f(v) = 0, found exactly.

    The constructions in `_SAMPLERS` are tried in order, and the first
    that applies gives the point: a linear solve in a variable of
    exponent 1, the rational-root theorem on a two-variable form, then a
    search of the integer points with every |x_i| <= SEARCH_HEIGHT (forms
    in at most SEARCH_MAX_VARS variables).
    One that applies but keeps failing raises `RetryExhausted`; when none
    applies, `NoStrategy` is raised.
    """
    rng = rng if rng is not None else random.Random(seed)
    if f.is_zero():
        raise NoStrategy("the zero polynomial does not define a hypersurface")
    for sampler in _SAMPLERS:
        pt = sampler(f, rng)
        if pt is not None:
            return pt
    raise NoStrategy(
        "no linear variable, no rational root, "
        f"no integer zero with every |x_i| <= {SEARCH_HEIGHT} "
        f"(searched up to {SEARCH_MAX_VARS} variables)")


# mu-witnesses ---------------------------------------------------------------


@dataclass
class MuWitness:
    """A matrix A = V diag(eigenvalues) V^-1 whose first s eigenvector
    columns of V, `vectors`, kill the polarization."""

    A: list[list[Scalar]]
    V: list[list[Scalar]]
    vectors: list[list[Scalar]]
    eigenvalues: list[Scalar]
    certificate: dict = field(default_factory=dict)


def _divisors(x: int) -> list[int]:
    """Positive divisors via trial-division factorization."""
    x = abs(x)
    factors: dict[int, int] = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    divs = [1]
    for prime, e in factors.items():
        divs = [d * prime ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _rational_roots(coeffs: list[Scalar]) -> list[Fraction]:
    """All rational roots of a univariate polynomial given by ascending
    exact coefficients (rational-root theorem on the cleared-denominator
    integer form)."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    lcm = 1
    for c in coeffs:
        if isinstance(c, Fraction):
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ic = [int(c * lcm) for c in coeffs]
    shift = 0
    while ic[shift] == 0:
        shift += 1
    roots = [Fraction(0)] if shift else []
    ic = ic[shift:]
    if len(ic) == 1:
        return roots
    seen = set(roots)
    for p in _divisors(ic[0]):
        for q in _divisors(ic[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                acc = 0
                for c in reversed(ic):
                    acc = acc * cand + c
                if acc == 0:
                    seen.add(cand)
                    roots.append(cand)
    return roots


def _independent(vectors: list[list[Scalar]]) -> bool:
    return qmat_rank([list(v) for v in vectors]) == len(vectors)


def mu_witness(f: Polynomial, mu: PartitionType | Sequence[int], *,
               seed: int = 0) -> MuWitness:
    """A rational matrix A of f's size with independent eigenvectors v_1,
    ..., v_s such that the mu-polarization of f (`polarize`, which rejects
    an f not of degree |mu|) vanishes exactly there.

    Supported shapes: mu = (d) (a point on the hypersurface from
    `sample_on_hypersurface`, which raises `NoStrategy` when none of its
    constructions applies) and smallest part 1 (linear solve for v_1);
    every other shape raises `UnsupportedPartition`.
    """
    if not isinstance(mu, PartitionType):
        mu = PartitionType(mu)
    n = f.u.nvars
    if mu.s > n:
        raise ValueError("partition has more parts than the dimension")
    if mu.s > 1 and mu.parts[0] >= 2:
        raise UnsupportedPartition(
            f"partition {mu.parts}: no exact construction when the smallest "
            "part is >= 2")

    rng = random.Random(seed)
    fmu = polarize(f, mu)
    for _ in range(RETRY_BUDGET):
        vectors = _draw_mu_vectors(f, fmu, mu, n, rng)
        if vectors is None:
            continue
        if not _independent(vectors):
            continue
        value = _polar_value(fmu, vectors)
        if value != 0:  # pragma: no cover - solved exactly, should not happen
            continue
        cols = [list(v) for v in vectors]
        try:
            V = random_invertible(rng, n, fixed_columns=cols)
            lams = rho_simple_eigenvalues(rng, n, mu.d)
        except RetryExhausted:
            continue
        A = matrix_with_eigenvectors(V, lams)
        cert = {
            "seed": seed,
            "mu": list(mu.parts),
            "V": _fmt_matrix(V),
            "D": [str(l) for l in lams],
            "points": _fmt_matrix(vectors),
            "checks": {
                "polarization_value": "0",
                "vector_rank": len(vectors),
                "eigenvalues_distinct": True,
            },
        }
        return MuWitness(A=A, V=V, vectors=[list(v) for v in vectors],
                         eigenvalues=lams, certificate=cert)
    raise RetryExhausted(f"no witness for mu={mu.parts} within budget")


def _polar_value(fmu: Polynomial, vectors) -> Scalar:
    """The polarization fmu = polarize(f, mu) at a tuple of vectors."""
    return fmu.evaluate([x for v in vectors for x in v])


def _draw_mu_vectors(f, fmu, mu, n, rng):
    """One attempt at vectors (v_1, ..., v_s) with fmu(v) = 0, fmu the
    mu-polarization of f; None to retry.  mu is (d) or has smallest part 1."""
    if mu.parts == (mu.d,):
        try:
            return [sample_on_hypersurface(f, rng=rng)]
        except RetryExhausted:
            return None

    # fmu is linear in v_1: draw v_2..v_s, then solve for v_1
    rest = [_rand_vector(rng, n) for _ in range(mu.s - 1)]
    if not _independent(rest):
        return None
    basis = qmat_identity(n)
    coeffs = [_polar_value(fmu, [basis[j]] + rest) for j in range(n)]
    if all(c == 0 for c in coeffs):
        v1 = _rand_vector(rng, n)
        return [v1] + rest
    pivot = next(j for j, c in enumerate(coeffs) if c != 0)
    w = _rand_vector(rng, n)
    lam = Fraction(sum(c * x for c, x in zip(coeffs, w)), coeffs[pivot])
    v1: list[Scalar] = list(w)
    v1[pivot] = w[pivot] - lam
    if not any(v1):
        return None
    return [v1] + rest


# special loci ---------------------------------------------------------------


def special_locus_matrix(kind: str, n: int, seed: int = 0) -> dict:
    """A rational matrix generic on a designated degeneration locus.

      rank_deficient            V diag(0, distinct nonzero) V^{-1}
      repeated_eigenvalue_jordan V (J_2(lam) + distinct diag) V^{-1}

    Returns {"A": matrix, "certificate": {...}}.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_SPECIAL_N:
        raise ProblemTooLarge(
            f"a special-locus matrix of size n = {n}; the limit is MAX_SPECIAL_N = {MAX_SPECIAL_N}")
    rng = random.Random(seed)
    V = random_invertible(rng, n)
    if kind == "rank_deficient":
        lams = rho_simple_eigenvalues(rng, n, 1, forced=[0])
        nz = [l for l in lams if l != 0]
        lams = [0] + nz  # eigenvalue 0 first, prescribed
        A = matrix_with_eigenvectors(V, lams)
        cert = {
            "seed": seed, "kind": kind,
            "V": _fmt_matrix(V), "D": [str(l) for l in lams],
            "checks": {"det_zero": qmat_det(A) == 0,
                       "rank": qmat_rank(A)},
        }
        if not cert["checks"]["det_zero"] or cert["checks"]["rank"] != n - 1:
            raise AssertionError("rank-deficient construction fault")  # pragma: no cover
        return {"A": A, "certificate": cert}
    if kind == "repeated_eigenvalue_jordan":
        lams = rho_simple_eigenvalues(rng, n - 1, 1)
        lam = lams[0]
        B = [[0] * n for _ in range(n)]
        B[0][0] = B[1][1] = lam
        B[0][1] = 1
        for i in range(2, n):
            B[i][i] = lams[i - 1]
        A = qmat_mul(qmat_mul(V, B), qmat_inv(V))
        shifted = [[A[i][j] - (lam if i == j else 0) for j in range(n)]
                   for i in range(n)]
        cert = {
            "seed": seed, "kind": kind,
            "V": _fmt_matrix(V), "D": [str(lam)] + [str(l) for l in lams[1:]],
            "checks": {
                "eigenspace_rank": qmat_rank(shifted),
                "not_diagonalizable": qmat_rank(shifted) == n - 1,
            },
        }
        if not cert["checks"]["not_diagonalizable"]:
            raise AssertionError("Jordan construction fault")  # pragma: no cover
        return {"A": A, "certificate": cert}
    raise ValueError(f"unknown kind {kind!r}")
