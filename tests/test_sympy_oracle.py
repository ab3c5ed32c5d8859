"""Differential tests against sympy, an oracle that shares no code with the
fraction-free elimination core: scalar determinant, rank and inverse,
resultants and discriminants, both branches of PolyMatrix.det, and exact
multivariate division."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

import kalmanvar.polymatrix as polymatrix
from conftest import U3
from kalmanvar.polycore import (
    Polynomial,
    parse_polynomial,
    sylvester_resultant,
    t_universe,
    univariate_discriminant,
)
from kalmanvar.polymatrix import PolyMatrix, SingularMatrixError, qmat_det, qmat_inv, qmat_rank

SEEDS = range(6)


def _rand_scalar(rng: random.Random):
    if rng.random() < 0.3:
        return 0
    c = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5, 7]))
    return c.numerator if c.denominator == 1 else c


def _rand_matrix(rng: random.Random, nr: int, nc: int, rank: int | None = None):
    """A random nr x nc rational matrix; with `rank`, a product of random
    nr x rank and rank x nc factors, so its rank is at most `rank`."""
    if rank is None:
        return [[_rand_scalar(rng) for _ in range(nc)] for _ in range(nr)]
    left = _rand_matrix(rng, nr, rank)
    right = _rand_matrix(rng, rank, nc)
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(nc)]
            for i in range(nr)]


def _sym(x):
    return sympy.Rational(x.numerator, x.denominator)


def _sym_matrix(A):
    return sympy.Matrix([[_sym(x) for x in row] for row in A])


def _sym_poly(p):
    if not isinstance(p, Polynomial):
        return _sym(p)
    return sympy.sympify(p.to_text().replace("^", "**"))


def _cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        for n in range(1, 6):
            yield _rand_matrix(rng, n, n)
            yield _rand_matrix(rng, n, n, rank=rng.randint(0, n - 1))  # singular


@pytest.mark.parametrize("seed", SEEDS)
def test_qmat_det_rank_match_sympy(seed):
    rng = random.Random(seed)
    for n in range(1, 7):
        for rank in (None, rng.randint(0, n - 1)):
            A = _rand_matrix(rng, n, n, rank)
            M = _sym_matrix(A)
            d = qmat_det(A)
            assert _sym(d) == M.det()
            assert type(d) is (int if d.denominator == 1 else Fraction)
            assert qmat_rank(A) == M.rank()
    for _ in range(10):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        A = _rand_matrix(rng, nr, nc, rng.randint(0, min(nr, nc)))
        assert qmat_rank(A) == _sym_matrix(A).rank()


def test_qmat_inv_matches_sympy():
    for A in _cases():
        M = _sym_matrix(A)
        if M.det() == 0:
            with pytest.raises(SingularMatrixError):
                qmat_inv(A)
            continue
        inv = qmat_inv(A)
        assert _sym_matrix(inv) == M.inv()
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for row in inv for x in row)


@pytest.mark.parametrize("seed", SEEDS)
def test_resultant_and_discriminant_match_sympy(seed):
    rng = random.Random(seed)
    x = sympy.Symbol("x")
    for _ in range(8):
        u = [_rand_scalar(rng) for _ in range(rng.randint(2, 5))] + [rng.randint(1, 4)]
        v = [_rand_scalar(rng) for _ in range(rng.randint(1, 4))] + [-rng.randint(1, 4)]
        su = sum(_sym(c) * x**i for i, c in enumerate(u))
        sv = sum(_sym(c) * x**i for i, c in enumerate(v))
        assert _sym(sylvester_resultant(u, v)) == sympy.resultant(su, sv, x)
        assert _sym(univariate_discriminant(u)) == sympy.discriminant(su, x)


def test_symbolic_resultant_and_discriminant_match_sympy():
    x = sympy.Symbol("x")
    P = lambda s: parse_polynomial(s, U3)
    u = [P("x1"), P("x2 - 1"), P("1/2*x3"), 1]
    v = [P("x3^2"), 2, P("x1 - x2")]
    su = sum(_sym_poly(c) * x**i for i, c in enumerate(u))
    sv = sum(_sym_poly(c) * x**i for i, c in enumerate(v))
    assert sympy.expand(_sym_poly(sylvester_resultant(u, v)) - sympy.resultant(su, sv, x)) == 0
    assert sympy.expand(_sym_poly(univariate_discriminant(u)) - sympy.discriminant(su, x)) == 0


def _rand_poly_matrix(rng: random.Random, u, names, n: int):
    """A random n x n matrix whose entries use only the variables `names`."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            p = Polynomial.zero(u)
            for _ in range(rng.randint(0, 2)):
                p = p + Polynomial.var(u, rng.choice(names), rng.randint(1, 2), rng.randint(-3, 3))
            row.append(p + rng.randint(-2, 2))
        rows.append(row)
    return rows


@pytest.mark.parametrize("names,branch", [
    (("t",), "bareiss"),
    (("x2",), "bareiss"),
    (("x1", "x2", "x3"), "cofactor"),
])
def test_polymatrix_det_branches_match_sympy(monkeypatch, names, branch):
    calls = []
    core = polymatrix.bareiss_det
    monkeypatch.setattr(polymatrix, "bareiss_det", lambda *a: calls.append(1) or core(*a))
    u = t_universe() if names == ("t",) else U3
    rng = random.Random(len(names))
    for n in range(1, 5):
        for _ in range(4):
            rows = _rand_poly_matrix(rng, u, names, n)
            if branch == "cofactor":
                rows[0][0] = rows[0][0] + parse_polynomial("x1*x2", u)
            m = PolyMatrix(u, rows)
            calls.clear()
            d = m.det()
            assert bool(calls) == (branch == "bareiss")
            expected = sympy.Matrix([[_sym_poly(e) for e in r] for r in rows]).det().expand()
            assert sympy.expand(_sym_poly(d) - expected) == 0


def _rand_poly(rng: random.Random, nterms: int) -> Polynomial:
    return Polynomial.from_exponents(
        U3, {tuple(rng.randint(0, 3) for _ in range(3)): _rand_scalar(rng) for _ in range(nterms)})


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_div_matches_sympy_div(seed):
    rng = random.Random(seed)
    gens = sympy.symbols("x1 x2 x3")
    done = 0
    while done < 4:
        g, h = _rand_poly(rng, rng.randint(2, 6)), _rand_poly(rng, rng.randint(1, 6))
        # divisors whose terms differ in two or more variables take the recursion
        if sum(len(set(col)) > 1 for col in zip(*map(U3.unpack, g.terms))) < 2 or not h:
            continue
        p = g * h
        quotient, remainder = sympy.div(_sym_poly(p), _sym_poly(g), *gens)
        assert remainder == 0
        assert sympy.expand(_sym_poly(p.exact_div(g)) - quotient) == 0
        done += 1
