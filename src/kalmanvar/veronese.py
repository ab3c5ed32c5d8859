"""Degree-d monomial bases, symmetric powers of matrices, coefficient rows,
and block polarization of forms.

The degree-d basis of n variables is ordered lex-descending with
x1 > x2 > ... > xn, so for n=3, d=2 it reads
(x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2).

The symmetric power rho_d(A) is the N x N matrix whose row indexed by a
basis monomial m holds the coefficients of m(A*x) in that basis; it
satisfies rho_d(A) * mon_vector(v, d) = mon_vector(A*v, d), and f(v) =
coeff_row(f) . mon_vector(v, d).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .polycore import (
    Polynomial,
    Scalar,
    Universe,
    UniverseMismatch,
    _demote,
    x_universe,
)
from .polymatrix import DimensionMismatch, NonSquareMatrix, PolyMatrix, qmat_rank


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


# -- polynomials with a separate x-block ------------------------------------
# Represented as dicts mapping packed x-keys to coefficients in an arbitrary
# exact ring (scalars or Polynomials).  Used to expand m(A*x) without ever
# forming a combined variable universe.


def _xp_mul(p: dict, q: dict, is_zero) -> dict:
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            v = c1 * c2
            if k in out:
                out[k] = out[k] + v
            else:
                out[k] = v
    return {k: c for k, c in out.items() if not is_zero(c)}


def _sym_power_rows(entry, n: int, d: int, zero, one, is_zero):
    """Shared core of sym_power: `entry(i, j)` yields the (i,j) ring element."""
    ux = x_universe(n)
    basis = monomial_basis(n, d)
    keys = [ux.pack(e) for e in basis]
    linear_forms = []
    for i in range(n):
        L = {}
        for j in range(n):
            c = entry(i, j)
            if not is_zero(c):
                L[ux.var_key(f"x{j + 1}")] = c
        linear_forms.append(L)
    # cache powers of each linear form up to the max exponent used
    maxe = [max(e[i] for e in basis) for i in range(n)]
    powers = []
    for i in range(n):
        rows = [{0: one}]
        for _ in range(maxe[i]):
            rows.append(_xp_mul(rows[-1], linear_forms[i], is_zero))
        powers.append(rows)
    out_rows = []
    for exps in basis:
        cur = {0: one}
        for i in range(n):
            if exps[i]:
                cur = _xp_mul(cur, powers[i][exps[i]], is_zero)
        out_rows.append([cur.get(k, zero) for k in keys])
    return out_rows


def sym_power(A: PolyMatrix, d: int) -> PolyMatrix:
    """rho_d(A) for a square matrix with polynomial entries."""
    if not A.is_square():
        raise NonSquareMatrix("symmetric power needs a square matrix")
    n = A.nrows
    u = A.u
    zero = Polynomial.zero(u)
    one = Polynomial.const(u, 1)
    rows = _sym_power_rows(lambda i, j: A.rows[i][j], n, d, zero, one, lambda p: p.is_zero())
    return PolyMatrix(u, rows)


def sym_power_scalar(A: Sequence[Sequence[Scalar]], d: int) -> list[list[Scalar]]:
    """rho_d(A) for a rational matrix, staying in scalar arithmetic."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise NonSquareMatrix("symmetric power needs a square matrix")
    return _sym_power_rows(lambda i, j: A[i][j], n, d, 0, 1, lambda c: c == 0)


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
    names = tuple(f"x{i}_{k}" for k in range(1, s + 1) for i in range(1, n + 1))
    ub = Universe(names, 8)
    scalar = Fraction(1, math.factorial(d))
    for p in mu.parts:
        scalar *= math.factorial(p)
    ux = f.u
    m = ux._mask
    acc: dict[int, Scalar] = {}

    def distribute(i: int, alpha: tuple[int, ...], remaining: list[int], beta_cols: list[list[int]], multi: int):
        """Distribute alpha_i over s blocks; remaining = open column budgets."""
        if i == n:
            if all(r == 0 for r in remaining):
                exps = [0] * (s * n)
                for k in range(s):
                    for ii in range(n):
                        exps[k * n + ii] = beta_cols[k][ii]
                key = ub.pack(exps)
                acc[key] = acc.get(key, 0) + cval * multi
            return
        ai = alpha[i]
        # compositions of ai into s parts bounded by remaining budgets;
        # mult_acc accumulates the multinomial C(ai; beta_i1..beta_is)
        def comp(k: int, left: int, mult_acc: int):
            if k == s - 1:
                if left <= remaining[s - 1]:
                    beta_cols[s - 1][i] = left
                    remaining[s - 1] -= left
                    distribute(i + 1, alpha, remaining, beta_cols, multi * mult_acc)
                    remaining[s - 1] += left
                    beta_cols[s - 1][i] = 0
                return
            for take in range(min(left, remaining[k]) + 1):
                beta_cols[k][i] = take
                remaining[k] -= take
                comp(k + 1, left - take, mult_acc * math.comb(left, take))
                remaining[k] += take
                beta_cols[k][i] = 0

        comp(0, ai, 1)

    for key, c in f.terms.items():
        alpha = tuple((key >> sh) & m for sh in ux._shifts)
        cval = c
        distribute(0, alpha, list(mu.parts), [[0] * n for _ in range(s)], 1)

    out = {k: _demote(v * scalar) for k, v in acc.items() if v}
    return Polynomial(ub, {k: v for k, v in out.items() if v})


def polarize_value(f: Polynomial, mu: PartitionType | Sequence[int], vectors: Sequence[Sequence[Scalar]]) -> Scalar:
    """f_mu evaluated at a tuple of rational vectors."""
    if not isinstance(mu, PartitionType):
        mu = PartitionType(mu)
    fmu = polarize(f, mu)
    point: list[Scalar] = []
    for v in vectors:
        point.extend(v)
    return fmu.evaluate(point)
