"""Matrices with polynomial entries, plus exact rational linear algebra.

Every exact elimination runs through one fraction-free core, `bareiss`
(Bareiss 1968): polynomial determinants with effectively univariate
entries, and the scalar determinant, rank and inverse.  Multivariate
polynomial determinants use a memoized cofactor expansion over column
subsets instead, because Bareiss' minor cross-products balloon there long
before the division.  The test suite cross-checks the two.

Scalar (rational) matrices are handled by the `qmat_*` helpers working on
plain lists of lists of int/Fraction.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

from .polycore import (
    Fraction,
    NotDivisible,
    Polynomial,
    Scalar,
    Universe,
    UniverseMismatch,
    _demote,
    parse_polynomial,
)


class DimensionMismatch(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class NonSquareMatrix(ValueError):
    """Operation requires a square matrix."""


class PolyMatrix:
    """Dense rectangular matrix of Polynomials over a shared universe."""

    __slots__ = ("u", "nrows", "ncols", "rows")

    def __init__(self, u: Universe, rows: Sequence[Sequence[Polynomial]]):
        self.u = u
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged rows")
            for e in r:
                if not isinstance(e, Polynomial) or e.u != u:
                    raise UniverseMismatch("entry universe mismatch")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_scalars(u: Universe, rows: Sequence[Sequence[Scalar]]) -> "PolyMatrix":
        return PolyMatrix(u, [[Polynomial.const(u, c) for c in r] for r in rows])

    @staticmethod
    def zero(u: Universe, nrows: int, ncols: int) -> "PolyMatrix":
        z = Polynomial.zero(u)
        return PolyMatrix(u, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(u: Universe, n: int) -> "PolyMatrix":
        z = Polynomial.zero(u)
        one = Polynomial.const(u, 1)
        return PolyMatrix(u, [[one if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def generic(n: int) -> "PolyMatrix":
        """The symbolic n x n matrix with entries a11..ann."""
        from .polycore import a_universe

        u = a_universe(n)
        return PolyMatrix(
            u,
            [[Polynomial.var(u, f"a{i}{j}") for j in range(1, n + 1)] for i in range(1, n + 1)],
        )

    # -- basics -----------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.u == other.u
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))
        )

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols} over {self.u.names})"

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.u, [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def map(self, fn: Callable[[Polynomial], Polynomial]) -> "PolyMatrix":
        return PolyMatrix(self.u, [[fn(e) for e in r] for r in self.rows])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return PolyMatrix(
            self.u,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return PolyMatrix(
            self.u,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def scale(self, c) -> "PolyMatrix":
        return self.map(lambda e: e * c)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            if self.u != other.u:
                raise UniverseMismatch("matrix product universe mismatch")
            bt = other.transpose().rows
            out = []
            for ra in self.rows:
                row = []
                for cb in bt:
                    acc = None
                    for a, b in zip(ra, cb):
                        if a.terms and b.terms:
                            p = a * b
                            acc = p if acc is None else acc + p
                    row.append(acc if acc is not None else Polynomial.zero(self.u))
                out.append(row)
            return PolyMatrix(self.u, out)
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.scale(other)
        return NotImplemented

    def stack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.ncols:
            raise DimensionMismatch("column count mismatch in stack")
        return PolyMatrix(self.u, self.rows + other.rows)

    def evaluate(self, point: Sequence[Scalar]) -> list[list[Scalar]]:
        return [[e.evaluate(point) for e in r] for r in self.rows]

    def total_terms(self) -> int:
        return sum(e.term_count() for r in self.rows for e in r)

    # -- determinants -----------------------------------------------------

    def det(self) -> Polynomial:
        """Exact determinant of a square polynomial matrix."""
        if not self.is_square():
            raise NonSquareMatrix(f"{self.nrows}x{self.ncols}")
        if self.nrows == 0:
            return Polynomial.const(self.u, 1)
        # Bareiss excels on scalar-like entries (constants, one
        # variable); on multivariate polynomial entries its minor
        # cross-products balloon long before the division, so the
        # memoized cofactor expansion runs there.
        used = [0] * self.u.nvars
        for r in self.rows:
            for e in r:
                for i, v in enumerate(e.var_maxes()):
                    if v:
                        used[i] = 1
        if sum(used) > 1:
            return self._det_cofactor_dp()
        return bareiss_det([list(r) for r in self.rows], Polynomial.zero(self.u))

    def _det_cofactor_dp(self) -> Polynomial:
        """Memoized cofactor expansion: process rows sparsest-first and keep
        minors indexed by column subsets.  Division-free."""
        n = self.nrows
        u = self.u
        order = sorted(range(n), key=lambda i: sum(len(e.terms) for e in self.rows[i]))
        # parity of the row permutation
        perm_sign = 1
        seen = list(order)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                perm_sign = -perm_sign
        level: dict[int, Polynomial] = {0: Polynomial.const(u, 1)}
        for r_pos in range(n):
            row = self.rows[order[r_pos]]
            nxt: dict[int, Polynomial] = {}
            for mask, minor in level.items():
                if not minor.terms:
                    continue
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        continue
                    e = row[j]
                    if not e.terms:
                        continue
                    # sign: (-1)^(r_pos + rank of j within mask|bit)
                    pos = bin(mask & (bit - 1)).count("1")
                    contrib = minor * e
                    if (r_pos + pos) % 2:
                        contrib = -contrib
                    newmask = mask | bit
                    cur = nxt.get(newmask)
                    nxt[newmask] = contrib if cur is None else cur + contrib
            level = nxt
            if not level:
                return Polynomial.zero(u)
        d = level.get((1 << n) - 1, Polynomial.zero(u))
        return d if perm_sign > 0 else -d

    def char_poly(self) -> list[Polynomial]:
        """Coefficients [c_0, ..., c_N] (ascending, monic) of det(lambda*I - M);
        see `char_poly_coeffs`."""
        coeffs = char_poly_coeffs(self.rows)
        coeffs[-1] = Polynomial.const(self.u, 1)
        return coeffs

    def rank_at(self, point: Sequence[Scalar]) -> int:
        """Exact rank of the scalar matrix obtained by evaluation."""
        return qmat_rank(self.evaluate(point))

    # -- text and JSON forms ----------------------------------------------

    def to_text(self) -> str:
        return "\n".join(" | ".join(e.to_text() for e in r) for r in self.rows)

    def to_json_obj(self) -> list[list[str]]:
        return [[e.to_text() for e in r] for r in self.rows]

    @staticmethod
    def from_json_obj(u: Universe, obj: Sequence[Sequence[str]]) -> "PolyMatrix":
        return PolyMatrix(u, [[parse_polynomial(s, u) for s in r] for r in obj])


def parse_matrix(text: str, u: Universe) -> PolyMatrix:
    """Parse the row-per-line, `|`-delimited matrix text format."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([parse_polynomial(cell, u) for cell in line.split("|")])
    if not rows:
        raise ValueError("empty matrix text")
    return PolyMatrix(u, rows)


# -- exact scalar linear algebra -------------------------------------------


def qmat_mul(A: Sequence[Sequence[Scalar]], B: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    if len(A[0]) != len(B):
        raise DimensionMismatch("scalar matrix product shape mismatch")
    cols = list(zip(*B))
    return [[_demote(sum(a * b for a, b in zip(row, col))) for col in cols] for row in A]


def qmat_vec(A: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> list[Scalar]:
    return [_demote(sum(a * x for a, x in zip(row, v))) for row in A]


def qmat_identity(n: int) -> list[list[Scalar]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def bareiss(rows: list[list], ncols: int | None = None) -> tuple[int, int]:
    """Fraction-free Gaussian elimination (Bareiss 1968) of `rows`, in place.

    Entries belong to an exact ring and support `*`, `-`, truthiness and
    exact division: ints (divided with `//`) or Polynomials (`exact_div`).
    Columns 0..ncols-1 (default: all) are eliminated in turn.  Each pivots
    on its first nonzero entry at or below the current row, swapping rows
    only; a column without one is skipped.  Every entry right of the pivot
    column is updated, so extra columns ride along.

    Returns the number of pivots (the rank of the eliminated columns) and
    the sign of the row permutation.  Right of its pivot, row r then holds
    (r+1) x (r+1) minors of the row-permuted matrix, so every division is
    exact, and the last pivot of a nonsingular square matrix is its
    determinant up to that sign.  Entries left of a row's pivot are not
    cleared; callers read only the echelon part.
    """
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    r = 0
    sign = 1
    prev = div = None
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        rk = rows[r]
        pv = rk[c]
        tail = rk[c + 1:]
        for i in range(r + 1, nrows):
            ri = rows[i]
            a = ri[c]
            new = [pv * x - a * y for x, y in zip(ri[c + 1:], tail)]
            if prev is not None:
                new = [div(v, prev) for v in new]
            ri[c + 1:] = new
        prev = pv
        div = Polynomial.exact_div if isinstance(pv, Polynomial) else operator.floordiv
        r += 1
    return r, sign


def bareiss_det(rows: list[list], zero):
    """Determinant of a nonempty square matrix by `bareiss`, consuming
    `rows`; `zero` is returned when the matrix is singular."""
    rank, sign = bareiss(rows)
    if rank < len(rows):
        return zero
    d = rows[-1][-1]
    return d if sign > 0 else -d


def _integer_rows(A: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], list[int]]:
    """The rows of A, each multiplied by the lcm of its denominators, and
    those multipliers."""
    rows, scales = [], []
    for r in A:
        m = math.lcm(*(x.denominator for x in r))
        rows.append([x.numerator * (m // x.denominator) for x in r])
        scales.append(m)
    return rows, scales


def qmat_rank(A: Sequence[Sequence[Scalar]]) -> int:
    # scaling a row by a nonzero integer leaves the rank unchanged
    return bareiss(_integer_rows(A)[0])[0]


def qmat_det(A: Sequence[Sequence[Scalar]]) -> Scalar:
    n = len(A)
    if any(len(r) != n for r in A):
        raise NonSquareMatrix("scalar determinant needs a square matrix")
    if n == 0:
        return 1
    rows, scales = _integer_rows(A)
    return _demote(Fraction(bareiss_det(rows, 0), math.prod(scales)))


class SingularMatrixError(ZeroDivisionError):
    """Inverse of a singular matrix requested."""


def qmat_inv(A: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    n = len(A)
    if any(len(r) != n for r in A):
        raise NonSquareMatrix("inverse needs a square matrix")
    # with D the row multipliers, (D A) X = D has the solution X = A^-1
    rows, scales = _integer_rows(A)
    aug = [r + [m if i == j else 0 for j in range(n)] for i, (r, m) in enumerate(zip(rows, scales))]
    if bareiss(aug, n)[0] < n:
        raise SingularMatrixError("matrix is singular")
    # back-substitution on the upper triangle [U | B] that `bareiss` left
    inv: list = [None] * n
    for i in reversed(range(n)):
        row = aug[i]
        inv[i] = [Fraction(row[n + k] - sum(row[j] * inv[j][k] for j in range(i + 1, n)), row[i])
                  for k in range(n)]
    return [[_demote(x) for x in row] for row in inv]


def qmat_solve(A: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> list[Scalar]:
    """Solve A x = b exactly (A square invertible)."""
    inv = qmat_inv(A)
    return qmat_vec(inv, b)


def char_poly_coeffs(A: Sequence[Sequence]) -> list:
    """Ascending coefficients [c_0, ..., c_m] of det(x*I - A), monic with
    c_m = Fraction(1), by the trace recursion (exact in characteristic zero).

    Entries may be scalars or Polynomials: the recursion only adds,
    multiplies and scales by 1/k.
    """
    m = len(A)
    if any(len(r) != m for r in A):
        raise NonSquareMatrix("characteristic polynomial needs a square matrix")
    desc = [Fraction(1)]
    AM = A
    for k in range(1, m + 1):
        c = sum(AM[i][i] for i in range(m)) * Fraction(-1, k)
        desc.append(c)
        if k < m:
            AM = qmat_mul(A, [[AM[i][j] + c if i == j else AM[i][j] for j in range(m)]
                              for i in range(m)])
    desc.reverse()
    return desc
