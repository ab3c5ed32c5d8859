"""Polynomial and rational matrices: determinants, rank, char poly."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import U3, invertible_matrices, matrices, polynomials, vectors
from kalmanvar.polycore import Polynomial, parse_polynomial
from kalmanvar.polymatrix import (
    DimensionMismatch,
    NonSquareMatrix,
    PolyMatrix,
    SingularMatrixError,
    bareiss_det,
    qmat_det,
    qmat_identity,
    qmat_inv,
    qmat_mul,
    qmat_rank,
    qmat_vec,
)


def PM(text: str, u=U3) -> PolyMatrix:
    """A matrix from text with one row per line and ` | ` between entries."""
    return PolyMatrix(u, [[parse_polynomial(e, u) for e in r.split("|")] for r in text.splitlines()])


# -- construction and IO -----------------------------------------------------


def test_parse_and_print_roundtrip():
    m = PM("x1 | x2\nx3 | 0")
    assert m.nrows == 2 and m.ncols == 2
    assert PM(m.to_text()).rows == m.rows


def test_from_scalars_and_identity():
    m = PolyMatrix.from_scalars(U3, [[1, 2], [3, 4]])
    assert m.rows[0][1] == Polynomial.const(U3, Fraction(2))
    i = PolyMatrix.from_scalars(U3, qmat_identity(3))
    assert i.det() == Polynomial.const(U3, Fraction(1))


def test_generic_matrix_names():
    from kalmanvar.polycore import a_universe

    u = a_universe(2)
    g = PolyMatrix.generic(2)
    assert g.u is u
    assert g.rows[0][0] == parse_polynomial("a11", u)
    assert g.rows[1][0] == parse_polynomial("a21", u)


def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        PolyMatrix(U3, [[Polynomial.zero(U3)], [Polynomial.zero(U3), Polynomial.zero(U3)]])


def test_nonsquare_det_rejected():
    m = PM("x1 | x2 | x3")
    with pytest.raises(NonSquareMatrix):
        m.det()


# -- determinants --------------------------------------------------------------


def test_det_2x2_symbolic_oracle():
    m = PM("x1 | x2\nx3 | x1")
    assert m.det() == parse_polynomial("x1^2 - x2*x3", U3)


def test_det_3x3_symbolic_oracle():
    # det of the generic 2x2-in-corner matrix against the cofactor hand expansion
    m = PM("x1 | x2 | 0\nx3 | x1 | x2\n0 | x3 | x1")
    assert m.det() == parse_polynomial("x1^3 - 2*x1*x2*x3", U3)


def test_det_methods_named():
    m = PM("x1 | x2\nx3 | x1")
    d = m.det()
    assert bareiss_det([list(r) for r in m.rows], Polynomial.zero(U3)) == d
    assert m._det_cofactor_dp() == d


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(
        st.lists(polynomials(U3, max_exp=2, max_terms=2), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
))
def test_bareiss_equals_cofactor(rows):
    m = PolyMatrix(U3, rows)
    assert bareiss_det([list(r) for r in rows], Polynomial.zero(U3)) == m._det_cofactor_dp()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(polynomials(U3, max_exp=1, max_terms=2), min_size=k, max_size=k), min_size=k, max_size=k),
        st.lists(st.lists(polynomials(U3, max_exp=1, max_terms=2), min_size=k, max_size=k), min_size=k, max_size=k),
    )
))
def test_det_is_multiplicative(pair):
    a, b = (PolyMatrix(U3, rows) for rows in pair)
    assert (a * b).det() == a.det() * b.det()


@settings(max_examples=50, deadline=None)
@given(matrices(3), vectors(3))
def test_det_evaluate_commutes(rows, v):
    m = PolyMatrix.from_scalars(U3, rows)
    assert m.det().evaluate(tuple(v)) == qmat_det(rows)


# -- characteristic polynomial -----------------------------------------------------


def test_char_poly_oracle_2x2():
    m = PolyMatrix.from_scalars(U3, [[1, 2], [3, 4]])
    # lambda^2 - 5 lambda - 2, ascending coefficients
    assert m.char_poly() == [
        Polynomial.const(U3, Fraction(-2)),
        Polynomial.const(U3, Fraction(-5)),
        Polynomial.const(U3, Fraction(1)),
    ]


def test_char_poly_constant_term_is_signed_det():
    m = PM("x1 | x2\nx3 | x1")
    coeffs = m.char_poly()
    n = m.nrows
    assert coeffs[0] == m.det().scale(Fraction((-1) ** n))
    assert coeffs[-1] == Polynomial.const(U3, Fraction(1))


@settings(max_examples=30, deadline=None)
@given(matrices(3))
def test_cayley_hamilton(rows):
    m = PolyMatrix.from_scalars(U3, rows)
    coeffs = m.char_poly()
    acc = [[Fraction(0)] * 3 for _ in range(3)]
    power = qmat_identity(3)
    for c in coeffs:
        cval = c.constant_value()
        for i in range(3):
            for j in range(3):
                acc[i][j] += cval * power[i][j]
        power = qmat_mul(power, rows)
    assert all(x == 0 for row in acc for x in row)


def test_char_poly_symbolic_trace():
    from kalmanvar.polycore import a_universe

    u = a_universe(2)
    g = PolyMatrix.generic(2)
    coeffs = g.char_poly()
    assert coeffs[1] == parse_polynomial("-a11 - a22", u)
    assert coeffs[0] == parse_polynomial("a11*a22 - a12*a21", u)


# -- exact rational matrices --------------------------------------------------------


def test_qmat_oracles():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert qmat_det(a) == 1
    assert qmat_rank(a) == 2
    inv = qmat_inv(a)
    assert qmat_mul(a, inv) == qmat_identity(2)
    assert qmat_vec(a, [Fraction(1), Fraction(0)]) == [2, 1]


def test_qmat_rank_deficient():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert qmat_rank(a) == 1
    assert qmat_det(a) == 0
    with pytest.raises(SingularMatrixError):
        qmat_inv(a)


@settings(max_examples=50, deadline=None)
@given(invertible_matrices(3))
def test_qmat_inverse_roundtrip(a):
    assert qmat_mul(a, qmat_inv(a)) == qmat_identity(3)


@settings(max_examples=50, deadline=None)
@given(matrices(3), matrices(3))
def test_qmat_det_multiplicative(a, b):
    assert qmat_det(qmat_mul(a, b)) == qmat_det(a) * qmat_det(b)


def test_dimension_mismatch_in_mul():
    with pytest.raises(DimensionMismatch):
        qmat_mul([[Fraction(1)]], [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])


def test_json_roundtrip():
    m = PM("x1 | x2\nx3 | 0")
    again = PolyMatrix(U3, [[parse_polynomial(e, U3) for e in r] for r in m.to_json_obj()])
    assert again.rows == m.rows
