"""Exact rational witnesses: matrices with prescribed eigenstructure and
points on hypersurfaces / polarization loci.

Every construction is exact (Fraction arithmetic), seeded, and returns a
certificate of the checks performed; nothing here is approximate.  Random
integer draws are uniform in [-999, 999]; eigenvalues are distinct small
integers (|lambda| <= 99) whose degree-d monomials are also pairwise
distinct, so symmetric powers keep simple spectra.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .polycore import Polynomial, Scalar, t_universe, univariate_coeffs
from .polymatrix import (
    SingularMatrixError,
    qmat_det,
    qmat_identity,
    qmat_inv,
    qmat_mul,
    qmat_rank,
    qmat_vec,
)
from .veronese import PartitionType, monomial_basis, polarize_value

RETRY_BUDGET = 16
ENTRY_BOUND = 999
EIGENVALUE_BOUND = 99


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


@dataclass(frozen=True)
class EigenSpec:
    """Prescribed eigenvectors (columns of V) and eigenvalues (diagonal D)."""

    V: tuple[tuple[Scalar, ...], ...]
    D: tuple[Scalar, ...]

    def __post_init__(self):
        n = len(self.D)
        if len(self.V) != n or any(len(r) != n for r in self.V):
            raise ValueError("V must be square with one column per eigenvalue")


def matrix_with_eigenvectors(spec: EigenSpec) -> list[list[Scalar]]:
    """A = V diag(D) V^{-1}; column i of V is an exact eigenvector for D[i]."""
    n = len(spec.D)
    try:
        vinv = qmat_inv([list(r) for r in spec.V])
    except SingularMatrixError as e:
        raise SingularV("eigenvector matrix is singular") from e
    vd = [[spec.V[i][j] * spec.D[j] for j in range(n)] for i in range(n)]
    a = qmat_mul(vd, vinv)
    for j in range(n):
        col = [spec.V[i][j] for i in range(n)]
        if qmat_vec(a, col) != [spec.D[j] * x for x in col]:  # pragma: no cover
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
        monomials = [math.prod(Fraction(l) ** e for l, e in zip(lams, alpha))
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

_PARAMETRIZATIONS: dict[str, Callable] = {}


def _param_key(f: Polynomial) -> str:
    return "|".join(f.u.names) + "::" + f.canonical().to_text()


def register_parametrization(f: Polynomial, fn: Callable) -> None:
    """Register t -> point(t) with f(point(t)) = 0 identically; fn must be
    polynomial in t (it is also called on symbolic t)."""
    _PARAMETRIZATIONS[_param_key(f)] = fn


def parametrization_for(f: Polynomial) -> Callable | None:
    return _PARAMETRIZATIONS.get(_param_key(f))


def _solvable_variable(f: Polynomial) -> str | None:
    """A variable occurring in f with exponent exactly 1 everywhere."""
    for nm in f.u.names:
        dg = f.degree_in([nm])
        if dg == 1:
            return nm
    return None


def _binary_points(f: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """All rational projective zeros of a nonzero binary form: roots of the
    x2 = 1 dehomogenization, plus (1, 0) when x2 divides the form."""
    u = f.u
    pts: list[tuple[Fraction, Fraction]] = []
    g = f.specialize({u.names[1]: 1})
    if not g.is_zero():
        for r in sorted(set(_rational_roots(univariate_coeffs(g)))):
            pts.append((r, Fraction(1)))
    if f.specialize({u.names[1]: 0}).is_zero():
        pts.append((Fraction(1), Fraction(0)))
    return pts


def sample_on_hypersurface(f: Polynomial, strategy: str = "auto",
                           seed: int = 0, rng: random.Random | None = None,
                           point: Sequence[Scalar] | None = None) -> list[Scalar]:
    """A nonzero rational point v with f(v) = 0, found exactly.

    Strategies: `user_point` verifies a supplied point; `solvable_variable`
    does a linear solve in a variable of exponent 1; `parametrization` uses
    a registered rational curve; `binary_roots` factors a two-variable form
    by the rational-root theorem.  `auto` picks the first applicable in
    that order.
    """
    rng = rng if rng is not None else random.Random(seed)
    n = f.u.nvars
    if f.is_zero():
        raise NoStrategy("the zero polynomial does not define a hypersurface")

    if strategy == "auto":
        if point is not None:
            strategy = "user_point"
        elif _solvable_variable(f) is not None:
            strategy = "solvable_variable"
        elif parametrization_for(f) is not None:
            strategy = "parametrization"
        elif n == 2 and _binary_points(f):
            strategy = "binary_roots"
        else:
            raise NoStrategy(
                "no linear variable, no registered parametrization, "
                "no rational root, no point")

    if strategy == "user_point":
        if point is None:
            raise NoStrategy("user_point requires a point")
        pt = [Fraction(x) for x in point]
        if not any(pt):
            raise ValueError("point must be nonzero")
        if f.evaluate(pt) != 0:
            raise ValueError("supplied point does not lie on the hypersurface")
        return pt

    if strategy == "solvable_variable":
        nm = _solvable_variable(f)
        if nm is None:
            raise NoStrategy("no variable occurs with exponent exactly 1")
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

    if strategy == "parametrization":
        fn = parametrization_for(f)
        if fn is None:
            raise NoStrategy("no parametrization registered for this form")
        for _ in range(RETRY_BUDGET):
            t = Fraction(_rand_int(rng))
            pt = [Fraction(x) for x in fn(t)]
            if any(pt) and f.evaluate(pt) == 0:
                return pt
        raise RetryExhausted("parametrization produced no usable point")

    if strategy == "binary_roots":
        if n != 2:
            raise NoStrategy("root sampling needs exactly two variables")
        pts = _binary_points(f)
        if not pts:
            raise NoStrategy("the binary form has no rational zero")
        pt = list(pts[rng.randrange(len(pts))])
        if f.evaluate(pt) != 0:  # pragma: no cover
            raise AssertionError("root finder returned a non-zero; fault")
        return pt

    raise ValueError(f"unknown strategy {strategy!r}")


# mu-witnesses ---------------------------------------------------------------


@dataclass
class MuWitness:
    """A matrix with s independent eigenvectors killing the polarization."""

    A: list[list[Scalar]]
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


def mu_witness(f: Polynomial, mu: PartitionType | Sequence[int], n: int,
               seed: int = 0) -> MuWitness:
    """A rational matrix A with independent eigenvectors v_1, ..., v_s such
    that the mu-polarization of f vanishes exactly at (v_1, ..., v_s).

    Supported shapes: mu = (d) (a point on the hypersurface), smallest part
    1 (linear solve for v_1), or any shape when f has a registered
    parametrization (rational-root search along the curve).
    """
    if not isinstance(mu, PartitionType):
        mu = PartitionType(mu)
    d = f.is_homogeneous()
    if d is None or d != mu.d:
        raise ValueError(f"form must be homogeneous of degree {mu.d}")
    if mu.s > n:
        raise ValueError("partition has more parts than the dimension")
    s = mu.s
    rng = random.Random(seed)

    linear_first = mu.parts[0] == 1 and s > 1
    parametrized = parametrization_for(f) is not None
    if not (mu.parts == (d,) or linear_first or parametrized):
        raise UnsupportedPartition(
            f"partition {mu.parts}: smallest part >= 2 and no parametrization "
            "is registered for the form")

    for _ in range(RETRY_BUDGET):
        vectors = _draw_mu_vectors(f, mu, n, rng, linear_first, parametrized)
        if vectors is None:
            continue
        if not _independent(vectors):
            continue
        value = polarize_value(f, mu, vectors)
        if value != 0:  # pragma: no cover - solved exactly, should not happen
            continue
        cols = [list(v) for v in vectors]
        try:
            V = random_invertible(rng, n, fixed_columns=cols)
            lams = rho_simple_eigenvalues(rng, n, d)
        except RetryExhausted:
            continue
        A = matrix_with_eigenvectors(
            EigenSpec(tuple(map(tuple, V)), tuple(lams)))
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
        return MuWitness(A=A, vectors=[list(v) for v in vectors],
                         eigenvalues=lams, certificate=cert)
    raise RetryExhausted(f"no witness for mu={mu.parts} within budget")


def _draw_mu_vectors(f, mu, n, rng, linear_first, parametrized):
    """One attempt at vectors (v_1, ..., v_s) with f_mu(v) = 0; None to retry."""
    s = mu.s
    if mu.parts == (mu.d,):
        try:
            return [sample_on_hypersurface(f, rng=rng)]
        except RetryExhausted:
            return None

    if linear_first:
        rest = [_rand_vector(rng, n) for _ in range(s - 1)]
        if s > 1 and not _independent(rest):
            return None
        basis = qmat_identity(n)
        coeffs = [polarize_value(f, mu, [basis[j]] + rest) for j in range(n)]
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

    # parametrized curve: solve for the first parameter by rational roots
    # (small parameters keep the root-candidate factorizations cheap)
    fn = parametrization_for(f)
    ts = []
    while len(ts) < s - 1:
        t = Fraction(rng.randint(-9, 9))
        if t not in ts:
            ts.append(t)
    rest = [[Fraction(x) for x in fn(t)] for t in ts]
    ut = t_universe()
    tvar = Polynomial.var(ut, "t")
    sym = [c if isinstance(c, Polynomial) else Polynomial.const(ut, c)
           for c in fn(tvar)]
    g = polarize_value(f, mu, [sym] + rest)
    if not isinstance(g, Polynomial):
        return None if g != 0 else [[Fraction(x) for x in fn(Fraction(_rand_int(rng)))]] + rest
    if g.is_zero():
        return [[Fraction(x) for x in fn(Fraction(_rand_int(rng)))]] + rest
    for root in _rational_roots(univariate_coeffs(g)):
        if root in ts:
            continue
        v1 = [Fraction(x) for x in fn(root)]
        if any(v1):
            return [v1] + rest
    return None


# special loci ---------------------------------------------------------------


def special_locus_matrix(kind: str, n: int, seed: int = 0,
                         rng: random.Random | None = None) -> dict:
    """A rational matrix generic on a designated degeneration locus.

      rank_deficient            V diag(0, distinct nonzero) V^{-1}
      repeated_eigenvalue_jordan V (J_2(lam) + distinct diag) V^{-1}

    Returns {"A": matrix, "certificate": {...}}.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = rng if rng is not None else random.Random(seed)
    V = random_invertible(rng, n)
    if kind == "rank_deficient":
        lams = rho_simple_eigenvalues(rng, n, 1, forced=[0])
        nz = [l for l in lams if l != 0]
        lams = [0] + nz  # eigenvalue 0 first, prescribed
        A = matrix_with_eigenvectors(EigenSpec(tuple(map(tuple, V)), tuple(lams)))
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


# default registrations -------------------------------------------------------


def _register_defaults():
    from .polycore import parse_polynomial, x_universe

    conic = parse_polynomial("x2^2-x1*x3", x_universe(3))
    register_parametrization(conic, lambda t: (1, t, t * t))


_register_defaults()
