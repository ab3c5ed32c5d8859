"""Symmetric powers, monomial vectors, coefficient rows, polarization."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SYM_POWER_3X3_D2,
    U2,
    U3,
    fractions,
    homogeneous,
    matrices,
    vectors,
)
from kalmanvar.enumerative import partitions
from kalmanvar.polycore import (ExponentOverflow, Polynomial, ProblemTooLarge, a_universe,
                                parse_polynomial, x_universe)
from kalmanvar.polymatrix import PolyMatrix, qmat_det, qmat_mul, qmat_vec
from kalmanvar.veronese import (
    MAX_SYM_POWER_SIZE,
    InhomogeneousInput,
    PartitionType,
    basis_size,
    check_sym_power_size,
    coeff_matrix,
    coeff_row,
    mon_vector,
    monomial_basis,
    polarize,
    sym_power,
    sym_power_scalar,
)

# -- basis ------------------------------------------------------------------


def test_monomial_basis_order_3_2():
    assert monomial_basis(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def test_monomial_basis_order_2_3():
    assert monomial_basis(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_basis_size_matches_enumeration(n, d):
    assert basis_size(n, d) == len(monomial_basis(n, d)) == math.comb(n - 1 + d, d)


def test_mon_vector_oracle():
    assert mon_vector((Fraction(2), Fraction(3)), 2) == [4, 6, 9]
    assert mon_vector((Fraction(1), Fraction(2), Fraction(3)), 1) == [1, 2, 3]


# -- symmetric powers ----------------------------------------------------------


def test_sym_power_3x3_d2_entry_for_entry():
    A = PolyMatrix.generic(3)
    R = sym_power(A, 2)
    assert R.nrows == R.ncols == 6
    for i in range(6):
        for j in range(6):
            expect = parse_polynomial(SYM_POWER_3X3_D2[i][j], A.u)
            assert R.rows[i][j] == expect, (i, j)


def test_sym_power_d1_is_identity_functor():
    A = PolyMatrix.generic(3)
    assert sym_power(A, 1).rows == A.rows


def test_sym_power_scalar_matches_symbolic():
    A = PolyMatrix.generic(2)
    vals = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
    flat = (Fraction(1), Fraction(2), Fraction(3), Fraction(5))
    sym = sym_power(A, 3)
    num = sym_power_scalar(vals, 3)
    assert [[e.evaluate(flat) for e in row] for row in sym.rows] == num


@settings(max_examples=40, deadline=None)
@given(matrices(3), vectors(3), st.integers(min_value=1, max_value=3))
def test_intertwining(A, v, d):
    # rho_d(A) . mon(v) == mon(A v)
    R = sym_power_scalar(A, d)
    left = qmat_vec(R, mon_vector(v, d))
    right = mon_vector(qmat_vec(A, v), d)
    assert left == right


@settings(max_examples=30, deadline=None)
@given(matrices(2), matrices(2), st.integers(min_value=1, max_value=4))
def test_multiplicativity(A, B, d):
    left = sym_power_scalar(qmat_mul(A, B), d)
    right = qmat_mul(sym_power_scalar(A, d), sym_power_scalar(B, d))
    assert left == right


@settings(max_examples=30, deadline=None)
@given(matrices(3), st.integers(min_value=1, max_value=3))
def test_det_power_law(A, d):
    N = basis_size(3, d)
    expo = d * N // 3
    assert qmat_det(sym_power_scalar(A, d)) == qmat_det(A) ** expo


def test_sym_power_rejects_nonsquare():
    m = PolyMatrix.from_scalars(U3, [[1, 2, 3]])
    with pytest.raises(Exception):
        sym_power(m, 2)


def test_sym_power_exponent_limit_is_exact(monkeypatch):
    # rho_d(A)[x1^d, x1^d] = a11^(2d) in a 7-bit field: d = 63 fits, d = 64 does not
    u = a_universe(2)
    zero = Polynomial.zero(u)
    A = PolyMatrix(u, [[parse_polynomial("a11^2", u), zero], [zero, parse_polynomial("a22^2", u)]])
    R = sym_power(A, 63)
    assert R.rows[0][0] == parse_polynomial("a11^126", u)
    assert R.rows[-1][-1] == parse_polynomial("a22^126", u)

    def no_product(self, other):
        raise AssertionError("the recurrence started")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    with pytest.raises(ExponentOverflow, match="product exponent would exceed 7-bit field"):
        sym_power(A, 64)


def _expanded_rows(A, d):
    """Row m holds the coefficients of m(A*x), expanded with Polynomial
    arithmetic over x1..xn, in the basis order."""
    n = len(A)
    u = x_universe(n)
    lin = [sum(Polynomial.var(u, f"x{j + 1}", coeff=a) for j, a in enumerate(row)) for row in A]
    rows = []
    for m in monomial_basis(n, d):
        p = Polynomial.const(u, 1)
        for L, e in zip(lin, m):
            p = p * L ** e
        rows.append([p.terms.get(u.pack(g), 0) for g in monomial_basis(n, d)])
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sym_power_scalar_matches_expansion(n):
    rng = random.Random(n)
    for d in range(4):
        ints = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        fracs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        zero_row = [[0] * n] + ints[1:]
        for A in (ints, fracs, zero_row):
            assert sym_power_scalar(A, d) == _expanded_rows(A, d), (A, d)
        assert all(type(c) is int for row in sym_power_scalar(ints, d) for c in row)


def test_sym_power_scalar_cancelled_entry_is_int_zero():
    h = Fraction(1, 2)
    R = sym_power_scalar([[h, h], [h, -h]], 2)
    # row x1*x2 is (x1 + x2)(x1 - x2)/4: its x1*x2 coefficient cancels
    assert R[1][1] == 0 and type(R[1][1]) is int


# -- coefficient rows -------------------------------------------------------------


def test_coeff_row_oracle():
    f = parse_polynomial("x2^2 - x1*x3", U3)
    assert coeff_row(f, 3, 2) == [0, 0, -1, 1, 0, 0]


def test_coeff_row_rejects_inhomogeneous():
    with pytest.raises(InhomogeneousInput):
        coeff_row(parse_polynomial("x1^2 + x2", U3), 3, 2)


def test_coeff_row_rejects_wrong_degree():
    with pytest.raises(InhomogeneousInput):
        coeff_row(parse_polynomial("x1^3", U3), 3, 2)


@settings(max_examples=60, deadline=None)
@given(homogeneous(U3, 3), vectors(3))
def test_coeff_row_pairing(f, v):
    # <coeff_row(f), mon(v)> = f(v)
    row = coeff_row(f, 3, 3)
    pair = sum(c * m for c, m in zip(row, mon_vector(v, 3)))
    assert pair == f.evaluate(tuple(v))


def test_coeff_matrix_independent_rows():
    f1 = parse_polynomial("x1^2", U3)
    f2 = parse_polynomial("x1^2 + x2^2", U3)
    rows, d = coeff_matrix([f1, f2])
    assert d == 2
    assert len(rows) == 2 and len(rows[0]) == 6
    rows2, d2 = coeff_matrix([f1, f1])
    assert d2 == 2 and len(rows2) == 1


def test_coeff_matrix_mixed_degrees_lift_to_lcm():
    lin = parse_polynomial("x1", U3)
    quad = parse_polynomial("x2^2", U3)
    rows, d = coeff_matrix([lin, quad])
    assert d == 2
    assert rows[0] == coeff_row(parse_polynomial("x1^2", U3), 3, 2)
    assert rows[1] == coeff_row(quad, 3, 2)


# -- partitions -------------------------------------------------------------------


def test_partition_type_normalizes_and_validates():
    mu = PartitionType((2, 1))
    assert mu.parts == (1, 2)
    assert mu.d == 3 and mu.s == 2
    assert PartitionType((2, 2, 1)).mults == {1: 1, 2: 2}
    assert PartitionType((2, 2, 1)).mult_factorial() == 2
    with pytest.raises(ValueError):
        PartitionType((0, 1))
    with pytest.raises(ValueError):
        PartitionType(())


# -- polarization -----------------------------------------------------------------


def test_polarize_oracles():
    f = parse_polynomial("x1^2", U2)
    p11 = polarize(f, (1, 1))
    assert p11.to_text() == "x1_1*x1_2"
    g = parse_polynomial("x1*x2", U2)
    p = polarize(g, (1, 1))
    assert p == parse_polynomial("1/2*x1_1*x2_2 + 1/2*x2_1*x1_2", p.u)


def test_polarize_trivial_partition_returns_f():
    f = parse_polynomial("x2^2 - x1*x3", U3)
    p = polarize(f, (2,))
    assert p == parse_polynomial("x2_1^2 - x1_1*x3_1", p.u)


def test_polarize_rejects_inhomogeneous():
    with pytest.raises(InhomogeneousInput):
        polarize(parse_polynomial("x1 + 1", U3), (1,))
    with pytest.raises(InhomogeneousInput):
        polarize(parse_polynomial("x1^2", U3), (1, 1, 1))


@settings(max_examples=40, deadline=None)
@given(homogeneous(U3, 3), vectors(3))
def test_polarize_diagonal_recovers_f(f, v):
    # f_mu(v, v, ..., v) = f(v) for every partition shape
    for mu in [(3,), (2, 1), (1, 1, 1)]:
        assert polarize(f, mu).evaluate(v * len(mu)) == f.evaluate(tuple(v))


@settings(max_examples=40, deadline=None)
@given(vectors(3), vectors(3), fractions)
def test_polarize_block_homogeneity(v, w, c):
    # parts are kept sorted ascending, so block 1 has degree 1, block 2
    # has degree 2
    f12 = polarize(parse_polynomial("x2^3 - x1^2*x3", U3), (1, 2))
    base = f12.evaluate(v + w)
    assert f12.evaluate([c * x for x in v] + w) == c * base
    assert f12.evaluate(v + [c * x for x in w]) == c ** 2 * base


@settings(max_examples=40, deadline=None)
@given(vectors(3), vectors(3))
def test_polarize_equal_blocks_symmetric(v, w):
    f22 = polarize(parse_polynomial("x1^2*x2^2 - x3^4", U3), (2, 2))
    assert f22.evaluate(v + w) == f22.evaluate(w + v)


POLARIZE_FORMS = (
    "x1^3 - x2*x3^2 + x4^3",
    "x2^3 - x1^2*x3",
    "x2^2 - x1*x3",
    "x1^2 + x2*x3 - x4^2",
    "x1^3 + x2^3 - x3^3 + x1*x2*x3",
    "3/2*x1^2*x2 - 5/7*x2^3 + x1*x2*x3",
)


@pytest.mark.parametrize("text", POLARIZE_FORMS)
def test_polarize_matches_sympy(text):
    sympy = pytest.importorskip("sympy")
    n = max(int(m) for m in re.findall(r"x(\d+)", text))
    f = parse_polynomial(text, x_universe(n))
    d = f.is_homogeneous()
    xs = sympy.symbols(f"x1:{n + 1}")
    fs = sympy.sympify(text.replace("^", "**"))
    for mu in partitions(d, d):
        s = mu.s
        ts = sympy.symbols(f"t1:{s + 1}")
        v = [[sympy.Symbol(f"x{i}_{k}") for i in range(1, n + 1)] for k in range(1, s + 1)]
        sub = {xs[i]: sum(ts[k] * v[k][i] for k in range(s)) for i in range(n)}
        expr = sympy.Poly(sympy.expand(fs.subs(sub, simultaneous=True)), *ts)
        coeff = expr.as_dict().get(mu.parts, 0) * sympy.Rational(
            math.prod(math.factorial(p) for p in mu.parts), math.factorial(d))
        fmu = polarize(f, mu)
        want = sympy.Poly(coeff, *[sympy.Symbol(nm) for nm in fmu.u.names]).as_dict()
        got = {fmu.u.unpack(k): sympy.Rational(c.numerator, c.denominator)
               for k, c in fmu.terms.items()}
        assert got == {k: c for k, c in want.items() if c}, (text, mu.parts)


@pytest.mark.parametrize("n,d,size", [
    (6, 4, 95_256),  # n*N^2 = 6 * 126^2
    (6, 5, 658_008),  # C(40, 5) terms
    (7, 3, 49_392),
    (8, 3, 115_200),
    (4, 6, 54_264),
    (4, 7, 170_544),
    (2, 82, 98_770),  # C(85, 3) terms
    (2, 83, 102_340),
])
def test_sym_power_size_limit_edge(n, d, size):
    if size <= MAX_SYM_POWER_SIZE:
        check_sym_power_size(n, d)
    else:
        with pytest.raises(ProblemTooLarge, match=f"has size {size}; "
                                                  "the limit is MAX_SYM_POWER_SIZE = 100000"):
            check_sym_power_size(n, d)


def test_sym_power_size_check_keeps_the_name_and_field_limits():
    with pytest.raises(ProblemTooLarge, match="the limit is n <= 10"):
        check_sym_power_size(12, 3)
    with pytest.raises(ExponentOverflow, match="7-bit field"):
        check_sym_power_size(2, 200)
