"""Independent result checks for the benchmark.

Nothing here imports kalmanvar.  The checks read what the program printed
(polynomial and matrix text), parse it with their own parser and evaluate
it with their own arithmetic: exact Fractions for small objects and
arithmetic modulo the Mersenne prime 2^61 - 1 for large ones.  A wrong
coefficient or a dropped term changes a modular value with probability
about 1 - 1e-18 per point.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

P61 = (1 << 61) - 1

_SPLIT = re.compile(r" ([+-]) ")


def to_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def to_mod(x) -> int:
    """A rational number as a residue modulo P61."""
    x = to_fraction(x)
    return x.numerator % P61 * pow(x.denominator % P61, -1, P61) % P61


# -- polynomial text ---------------------------------------------------------


def parse_terms(text: str) -> list[tuple[int | Fraction, list[tuple[str, int]]]]:
    """Terms of a polynomial printed as `c*x^e*y - z + ...`.

    Returns (coefficient, [(variable, exponent), ...]) per term, with an
    int coefficient unless the text has a fraction.  Raises
    ValueError on text that is not in that grammar.
    """
    text = text.strip()
    if text == "0":
        return []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _SPLIT.split(text)
    out = []
    for i in range(0, len(pieces), 2):
        if i:
            sign = -1 if pieces[i - 1] == "-" else 1
        coef = sign
        factors = []
        for tok in pieces[i].split("*"):
            if tok[0].isdigit():
                coef *= Fraction(tok) if "/" in tok else int(tok)
            else:
                name, _, e = tok.partition("^")
                if not name.isidentifier():
                    raise ValueError(f"bad factor {tok!r}")
                factors.append((name, int(e) if e else 1))
        out.append((coef, factors))
    return out


def term_degrees(terms) -> set[int]:
    return {sum(e for _, e in fs) for _, fs in terms}


def eval_exact(terms, point: dict) -> Fraction:
    total = Fraction(0)
    for c, fs in terms:
        v = c
        for name, e in fs:
            v *= to_fraction(point[name]) ** e
        total += v
    return total


def eval_mod(terms, points: list[dict]) -> list[int]:
    """Values of one parsed polynomial at several rational points, mod P61."""
    res = [0] * len(points)
    pts = [{k: to_mod(v) for k, v in p.items()} for p in points]
    powers = [{} for _ in points]
    for c, fs in terms:
        cm = to_mod(c)
        for j, p in enumerate(pts):
            v = cm
            pw = powers[j]
            for f in fs:
                x = pw.get(f)
                if x is None:
                    x = pw[f] = pow(p[f[0]], f[1], P61)
                v = v * x % P61
            res[j] = (res[j] + v) % P61
    return res


def parse_matrix(text: str) -> list[list[list]]:
    """A matrix printed one row per line with cells split by ` | `."""
    return [[parse_terms(cell) for cell in line.split(" | ")]
            for line in text.strip().splitlines()]


# -- small exact linear algebra -------------------------------------------------


def fmat(rows) -> list[list[Fraction]]:
    return [[to_fraction(x) for x in r] for r in rows]


def fmul(A, B):
    return [[sum(a * b for a, b in zip(r, c)) for c in zip(*B)] for r in A]


def fvec(A, v):
    return [sum(a * x for a, x in zip(r, v)) for r in A]


def frank(A) -> int:
    rows = [list(r) for r in fmat(A)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                q = rows[i][col] / rows[rank][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fdet(A) -> Fraction:
    """Determinant by expansion along permutations (n <= 4 here)."""
    A = fmat(A)
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inv % 2 else 1)
        for i, j in enumerate(perm):
            term *= A[i][j]
            if not term:
                break
        total += term
    return total


def finv(A) -> list[list[Fraction]]:
    """Inverse by the adjugate formula."""
    A = fmat(A)
    n = len(A)
    d = fdet(A)
    if not d:
        raise ZeroDivisionError("singular matrix")
    def minor(i, j):
        return [[A[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
    return [[(-1) ** (i + j) * fdet(minor(j, i)) / d for j in range(n)] for i in range(n)]


def from_eigen(V, D) -> list[list[Fraction]]:
    """V diag(D) V^-1, with the eigenvectors as the columns of V."""
    V = fmat(V)
    VD = [[V[i][j] * to_fraction(D[j]) for j in range(len(D))] for i in range(len(V))]
    return fmul(VD, finv(V))


# -- symmetric powers and closed forms --------------------------------------


def monomial_basis(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree d in n variables, lexicographically descending."""
    return sorted((e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d),
                  reverse=True)


def mon(v, d: int) -> list[Fraction]:
    return [math.prod(to_fraction(x) ** e for x, e in zip(v, exps))
            for exps in monomial_basis(len(v), d)]


def kalman_det_degree(n: int, d: int) -> int:
    """d * C(N, 2) with N = C(n - 1 + d, d)."""
    return d * math.comb(math.comb(n - 1 + d, d), 2)


def ctilde(n: int, s: int) -> int:
    """C(n, 2) times the falling factorial (n - 1)(n - 2)...(n - s + 1)."""
    return math.comb(n, 2) * math.prod(range(n - s + 1, n))
