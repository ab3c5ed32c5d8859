"""Polynomial kernel: parsing, arithmetic, division, discriminants."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import U2, U3, nonzero_fractions, polynomials, vectors
from kalmanvar.polycore import (
    DivisionByZeroPolynomial,
    NotDivisible,
    Polynomial,
    PolynomialParseError,
    Universe,
    UniverseMismatch,
    ZeroPolynomial,
    a_universe,
    parse_polynomial,
    root_multiplicity_at_zero,
    sylvester_resultant,
    t_universe,
    univariate_coeffs,
    univariate_discriminant,
    x_universe,
)


def P(text: str, u: Universe = U3) -> Polynomial:
    return parse_polynomial(text, u)


# -- universes ---------------------------------------------------------------


def test_universe_basics():
    u = x_universe(3)
    assert u.names == ("x1", "x2", "x3")
    assert u.nvars == 3
    assert u.index["x2"] == 1
    key = u.pack((2, 0, 1))
    assert u.unpack(key) == (2, 0, 1)
    assert u.key_degree(key) == 3


def test_a_universe_names():
    u = a_universe(3)
    assert u.names[:3] == ("a11", "a12", "a13")
    assert u.names[-1] == "a33"
    assert u.nvars == 9


def test_t_universe_single_variable():
    u = t_universe()
    assert u.names == ("t",)


# -- parsing and printing -----------------------------------------------------


@pytest.mark.parametrize(
    "text,expect",
    [
        ("x1^2 - x2^2", "x1^2 - x2^2"),
        ("x2^2-x1*x3", "-x1*x3 + x2^2"),
        ("3*x1 + 2*x1", "5*x1"),
        ("x1*x1*x1", "x1^3"),
        ("-x1 + x1", "0"),
        ("1/2*x1 + 1/3*x2", "1/2*x1 + 1/3*x2"),
        ("7", "7"),
        ("0", "0"),
        ("-2/3", "-2/3"),
    ],
)
def test_parse_then_print(text, expect):
    assert P(text).to_text() == expect


def test_print_parse_roundtrip_examples():
    for text in ["x1^3 - 3*x1*x2*x3 + x3^3", "2/7*x2^2 - x1*x3 + 5"]:
        p = P(text)
        assert parse_polynomial(p.to_text(), U3) == p


@pytest.mark.parametrize("bad", ["x1 +", "x4", "x1^^2", "x1**2", "(", "x1 x2", ""])
def test_parse_errors(bad):
    with pytest.raises(PolynomialParseError):
        P(bad)


def test_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        P("x1", U2) + P("x1", U3)


# -- arithmetic ----------------------------------------------------------------


def test_arithmetic_oracle():
    x1, x2 = P("x1"), P("x2")
    assert (x1 + x2) * (x1 - x2) == P("x1^2 - x2^2")
    assert (x1 + x2) ** 3 == P("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3")
    assert x1 * Polynomial.zero(U3) == Polynomial.zero(U3)
    assert (x1 - x1).is_zero()


def test_scale_and_const():
    p = P("x1 + x2")
    assert p.scale(Fraction(3, 2)) == P("3/2*x1 + 3/2*x2")
    assert Polynomial.const(U3, Fraction(5)).constant_value() == 5


def test_degree_and_homogeneity():
    assert P("x1^2*x2 + x3^3").degree() == 3
    assert P("x1^2*x2 + x3^3").is_homogeneous() == 3
    assert P("x1 + 1").is_homogeneous() is None
    assert Polynomial.zero(U3).is_homogeneous() == -1
    assert P("x1^2*x2").degree_in(["x2"]) == 1
    assert P("x1^2*x2 + x2^4").degree_in(["x1", "x2"]) == 4


def test_derivative():
    assert P("x1^3 + x1*x2").derivative("x1") == P("3*x1^2 + x2")
    assert P("5").derivative("x1").is_zero()


def test_specialize_and_evaluate():
    p = P("x1^2 - x2*x3")
    assert p.specialize({"x3": Fraction(2)}) == P("x1^2 - 2*x2")
    assert p.evaluate((Fraction(3), Fraction(1), Fraction(2))) == 7
    assert p.evaluate((Fraction(1), Fraction(1), Fraction(1))) == 0


def test_convert_between_universes():
    p = P("x1^2 - x2^2", U2)
    q = p.convert(U3)
    assert q.u is U3 and q == P("x1^2 - x2^2", U3)


def test_canonical_normalizes():
    p = P("1/2*x1^2 - 1/3*x2^2")
    c = p.canonical()
    assert c == P("3*x1^2 - 2*x2^2")
    assert P("-6*x1^2 + 4*x2^2").canonical() == c


def test_leading_and_term_count():
    p = P("x1 + 4*x2^3")
    assert p.term_count() == 2
    assert p.leading() != 0


# -- exact division -------------------------------------------------------------


def test_exact_div_oracle():
    num = P("x1^3 - x2^3")
    den = P("x1 - x2")
    assert num.exact_div(den) == P("x1^2 + x1*x2 + x2^2")
    assert den.divides(num)


def test_exact_div_not_divisible():
    with pytest.raises(NotDivisible):
        P("x1^2 + 1").exact_div(P("x1 + 1"))
    assert not P("x1 + 1").divides(P("x1^2 + 1"))


def test_exact_div_by_zero():
    with pytest.raises(DivisionByZeroPolynomial):
        P("x1").exact_div(Polynomial.zero(U3))


@settings(max_examples=120, deadline=None)
@given(polynomials(U3, allow_zero=False), polynomials(U3, allow_zero=False))
def test_mul_then_div_roundtrip(p, q):
    prod = p * q
    assert prod.exact_div(q) == p
    assert prod.exact_div(p) == q


# -- ring axioms (property) ------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(polynomials(U3), polynomials(U3), polynomials(U3))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero(U3) == p
    assert (p - p).is_zero()


@settings(max_examples=80, deadline=None)
@given(polynomials(U3), polynomials(U3), vectors(3))
def test_evaluate_is_ring_hom(p, q, v):
    v = tuple(v)
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)


@settings(max_examples=60, deadline=None)
@given(polynomials(U3, allow_zero=False), polynomials(U3, allow_zero=False))
def test_degree_of_product_adds(p, q):
    assert (p * q).degree() == p.degree() + q.degree()


@settings(max_examples=60, deadline=None)
@given(polynomials(U3, allow_zero=False), nonzero_fractions)
def test_canonical_ignores_scaling(p, c):
    assert p.scale(c).canonical() == p.canonical()


# -- univariate helpers --------------------------------------------------------------


def test_univariate_coeffs():
    t = t_universe()
    p = parse_polynomial("3*t^2 - t + 5", t)
    assert univariate_coeffs(p) == [5, -1, 3]
    assert univariate_coeffs(parse_polynomial("7", t)) == [7]


def test_univariate_coeffs_rejects_multivariate():
    with pytest.raises(ValueError):
        univariate_coeffs(P("x1 + x2"))


def test_root_multiplicity_at_zero():
    t = t_universe()
    assert root_multiplicity_at_zero(parse_polynomial("t^3 + t^4", t)) == 3
    assert root_multiplicity_at_zero(parse_polynomial("5", t)) == 0
    with pytest.raises(ZeroPolynomial):
        root_multiplicity_at_zero(Polynomial.zero(t))


# -- resultants and discriminants ------------------------------------------------------


def test_sylvester_resultant_oracle():
    # res((x-1)(x+1), (x-2)(x+2)) = prod of pairwise root differences = 9
    assert sylvester_resultant([-1, 0, 1], [-4, 0, 1]) == 9
    # shared root => 0
    assert sylvester_resultant([2, -3, 1], [6, -5, 1]) == 0


def test_sylvester_resultant_symbolic():
    # res_t(t - x1, t - x2) over the x-universe is x2 - x1 up to sign
    x1 = P("x1")
    x2 = P("x2")
    one = Polynomial.const(U3, Fraction(1))
    r = sylvester_resultant([-x1, one], [-x2, one])
    assert r in (x2 - x1, x1 - x2)


def test_discriminant_quadratic_cubic():
    # b^2 - 4c for x^2 + bx + c
    assert univariate_discriminant([Fraction(6), Fraction(-5), Fraction(1)]) == 1
    # (x-1)(x-2)(x-3): squared root differences 1*4*1 = 4
    assert univariate_discriminant([Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]) == 4


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=4, unique=True))
def test_discriminant_equals_squared_root_products(roots):
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    disc = univariate_discriminant(coeffs)
    expect = Fraction(1)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            expect *= Fraction(roots[i] - roots[j]) ** 2
    assert disc == expect


def test_discriminant_degenerate_inputs():
    with pytest.raises(ValueError):
        univariate_discriminant([Fraction(1)])  # constant


# -- json -----------------------------------------------------------------------------


def test_polynomial_json_obj_roundtrip():
    p = P("x1^2 - 1/3*x2*x3")
    assert parse_polynomial(p.to_text(), U3) == p
