"""Degree-d monomial bases, symmetric powers of matrices, coefficient rows,
and block polarization of forms.

The degree-d basis of n variables is ordered lex-descending with
x1 > x2 > ... > xn, so for n=3, d=2 it reads
(x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2).

The symmetric power rho_d(A) is the N x N matrix whose row indexed by a
basis monomial m holds the coefficients of m(A*x) in that basis; it
satisfies rho_d(A) * mon_vector(v, d) = mon_vector(A*v, d), and f(v) =
coeff_row(f) . mon_vector(v, d).  It is built up from rho_0(A) = [[1]]: for
a basis monomial m whose first variable is x_i, m(A*x) = (A*x)_i *
(m/x_i)(A*x), so

    rho_d(A)[m, g] = sum over j with g_j > 0 of a_ij * rho_{d-1}(A)[m/x_i, g/x_j].

The block polarization f_mu expands f(v_1 + ... + v_s) with Polynomial
arithmetic and keeps the terms of block degrees mu, scaled by
mu_1! ... mu_s!/d!.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .polycore import Polynomial, ProblemTooLarge, Scalar, Universe, _demote, a_universe, x_universe
from .polymatrix import NonSquareMatrix, PolyMatrix, qmat_rank


class InhomogeneousInput(ValueError):
    """A homogeneous form of the stated degree was required."""


def basis_size(n: int, d: int) -> int:
    """N = C(n-1+d, d)."""
    return math.comb(n - 1 + d, d)


def monomial_basis(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree d in n variables, lex descending."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(reverse=True)
    return out


def mon_vector(v: Sequence[Scalar], d: int) -> list[Scalar]:
    """Vector of all degree-d monomials of v, in basis order."""
    n = len(v)
    out = []
    for exps in monomial_basis(n, d):
        val: Scalar = 1
        for x, e in zip(v, exps):
            if e:
                val *= x ** e
        out.append(_demote(val))
    return out


def _sym_power_rows(A, d: int, zero, one) -> list[list]:
    """rho_d(A) for a square list of ring elements, by the recurrence on d
    stated in the module docstring; `zero` and `one` are the ring's."""
    n = len(A)
    rows = [[one]]
    for k in range(1, d + 1):
        index = {g: r for r, g in enumerate(monomial_basis(n, k - 1))}
        # for each degree-k basis monomial g, the pairs (j, row index of g/x_j)
        # with j ascending: the first pair is g's first variable
        down = [[(j, index[g[:j] + (g[j] - 1,) + g[j + 1:]]) for j in range(n) if g[j]]
                for g in monomial_basis(n, k)]
        new_rows = []
        for m_pairs in down:
            i, first = m_pairs[0]
            a, prev = A[i], rows[first]
            row = []
            for pairs in down:
                acc = None
                for j, r in pairs:
                    if a[j] and prev[r]:
                        t = a[j] * prev[r]
                        acc = t if acc is None else acc + t
                row.append(acc if acc else zero)
            new_rows.append(row)
        rows = new_rows
    return rows


def sym_power(A: PolyMatrix, d: int) -> PolyMatrix:
    """rho_d(A) for a square matrix with polynomial entries.

    Raises ExponentOverflow before the recurrence when d times the largest
    exponent of a variable in an entry exceeds the field: the entry
    rho_d(A)[x_i^d, x_j^d] = a_ij^d holds that exponent, and no entry holds a
    larger one.
    """
    if not A.is_square():
        raise NonSquareMatrix("symmetric power needs a square matrix")
    u = A.u
    top = max((e for row in A.rows for a in row for e in a.var_maxes()), default=0)
    u.check_product_exponent(d * top)
    return PolyMatrix(u, _sym_power_rows(A.rows, d, Polynomial.zero(u), Polynomial.const(u, 1)))


# The largest symbolic rho_d of the generic n x n matrix, as the larger of
# its term count C(n^2+d-1, d) and n*N^2, the entry products of the
# recurrence's last step.  On a 2-core Xeon the largest accepted sizes took
# under 3 s (n = 6, d = 4: 95,256, 2.8 s); n = 10, d = 3 (484,000) took
# 13 s, and n = 6, d = 6 (4.5M terms) gave no result in 60 s.
MAX_SYM_POWER_SIZE = 100_000


def check_sym_power_size(n: int, d: int) -> None:
    """Raise, before any work, when rho_d of the generic n x n matrix is
    past MAX_SYM_POWER_SIZE, or its names or exponents do not fit
    `a_universe(n)`."""
    a_universe(n).check_product_exponent(d)
    N = basis_size(n, d)
    size = max(math.comb(n * n + d - 1, d), n * N * N)
    if size > MAX_SYM_POWER_SIZE:
        raise ProblemTooLarge(
            f"rho_{d} of the generic {n} x {n} matrix has size {size}; "
            f"the limit is MAX_SYM_POWER_SIZE = {MAX_SYM_POWER_SIZE}")


def sym_power_scalar(A: Sequence[Sequence[Scalar]], d: int) -> list[list[Scalar]]:
    """rho_d(A) for a rational matrix, staying in scalar arithmetic."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise NonSquareMatrix("symmetric power needs a square matrix")
    return _sym_power_rows(A, d, 0, 1)


def coeff_row(f: Polynomial, n: int, d: int) -> list[Scalar]:
    """Coefficient vector of a degree-d form in the basis order, satisfying
    coeff_row(f) . mon_vector(v, d) = f(v)."""
    ux = x_universe(n)
    if f.u != ux:
        f = f.convert(ux)
    hdeg = f.is_homogeneous()
    if hdeg not in (-1, d):
        raise InhomogeneousInput(f"expected a homogeneous form of degree {d}")
    return [f.terms.get(ux.pack(e), 0) for e in monomial_basis(n, d)]


def coeff_matrix(generators: Sequence[Polynomial]) -> tuple[list[list[Scalar]], int]:
    """Rows spanning <coeff_row(f_i^(d/d_i))> for d = lcm of the degrees.

    Returns (C, d) where C keeps the linearly independent generators' rows
    (exact row reduction), so C has full row rank.
    """
    if not generators:
        raise ValueError("empty generator list")
    degs = []
    n = generators[0].u.nvars
    for f in generators:
        if f.is_zero():
            raise ValueError("zero generator")
        hd = f.is_homogeneous()
        if hd is None:
            raise InhomogeneousInput("generators must be homogeneous")
        degs.append(hd)
    d = math.lcm(*degs)
    rows = []
    for f, df in zip(generators, degs):
        rows.append(coeff_row(f ** (d // df), n, d))
    keep: list[list[Scalar]] = []
    for r in rows:
        if qmat_rank(keep + [r]) > len(keep):
            keep.append(r)
    return keep, d


# -- partitions --------------------------------------------------------------


class PartitionType:
    """A partition of d with parts listed non-decreasingly.

    `parts` is the tuple (mu_1 <= ... <= mu_s); `mults[i]` is the number of
    parts equal to i (1-indexed dict).
    """

    __slots__ = ("parts", "d", "s", "mults")

    def __init__(self, parts: Sequence[int]):
        parts = tuple(sorted(parts))
        if not parts or any(p < 1 for p in parts):
            raise ValueError("parts must be positive integers")
        self.parts = parts
        self.d = sum(parts)
        self.s = len(parts)
        mults: dict[int, int] = {}
        for p in parts:
            mults[p] = mults.get(p, 0) + 1
        self.mults = mults

    def mult_factorial(self) -> int:
        """m_1! * m_2! * ... over the part multiplicities."""
        out = 1
        for m in self.mults.values():
            out *= math.factorial(m)
        return out

    def __eq__(self, other):
        return isinstance(other, PartitionType) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"PartitionType({self.parts})"

    def __iter__(self):
        return iter(self.parts)


def polarize(f: Polynomial, mu: PartitionType | Sequence[int]) -> Polynomial:
    """Block polarization f_mu over variables x{i}_{k} (block k, original i).

    f_mu(v_1, ..., v_s) = (mu_1! ... mu_s!/d!) * [t^mu] f(sum t_k v_k);
    for mu = (d) this returns f itself re-expressed over the block universe.
    """
    if not isinstance(mu, PartitionType):
        mu = PartitionType(mu)
    n = f.u.nvars
    d = f.is_homogeneous()
    if d is None or d != mu.d:
        raise InhomogeneousInput(f"form must be homogeneous of degree {mu.d}")
    s = mu.s
    ub = Universe(tuple(f"x{i}_{k}" for k in range(1, s + 1) for i in range(1, n + 1)), 8)
    block_sums = [sum(Polynomial.var(ub, f"x{i}_{k}") for k in range(1, s + 1))
                  for i in range(1, n + 1)]
    expanded = f.evaluate(block_sums)
    scalar = Fraction(math.prod(math.factorial(p) for p in mu.parts), math.factorial(d))
    terms = {}
    for key, c in expanded.terms.items():
        exps = ub.unpack(key)
        if all(sum(exps[k * n:(k + 1) * n]) == p for k, p in enumerate(mu.parts)):
            terms[key] = _demote(c * scalar)
    return Polynomial(ub, terms)
