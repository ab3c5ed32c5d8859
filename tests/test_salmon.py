"""Resultant-of-three-quadrics pipeline and the conic eigenpoint equation."""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction

import pytest

from kalmanvar import salmon
from kalmanvar.polycore import parse_polynomial, x_universe
from kalmanvar.salmon import (
    AB_UNIVERSE,
    FULL_UNIVERSE,
    TernaryQuadricTriple,
    conic_minor_quadrics,
    conic_triple,
    g1_factor,
    generic_conic,
    jacobian_poly,
    kalman_conic_equation,
    salmon_matrix,
    salmon_resultant,
    to_full,
)
from kalmanvar.witness import EigenSpec, matrix_with_eigenvectors

U3 = x_universe(3)
CONIC = parse_polynomial("x2^2 - x1*x3", U3)


def x_form(text: str):
    return to_full(parse_polynomial(text, U3))


# -- inputs -------------------------------------------------------------------


def test_generic_conic_shape():
    g = generic_conic()
    assert g.term_count() == 6
    assert g == parse_polynomial(
        "b200*x1^2 + b110*x1*x2 + b101*x1*x3 + b020*x2^2 + b011*x2*x3 + b002*x3^2",
        FULL_UNIVERSE,
    )


def test_conic_minor_quadrics_vanish_on_eigenvectors():
    f1, f2 = conic_minor_quadrics()
    A = [[Fraction(2), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(3), Fraction(1)],
         [Fraction(0), Fraction(0), Fraction(5)]]
    flat = [x for row in A for x in row]
    # (1,0,0) is an eigenvector of the triangular A
    v = [Fraction(1), Fraction(0), Fraction(0)]
    point = tuple(flat + [Fraction(0)] * 6 + v)
    assert f1.evaluate(point) == 0 and f2.evaluate(point) == 0
    # (0,1,0) is not an eigenvector
    w = [Fraction(0), Fraction(1), Fraction(0)]
    point_w = tuple(flat + [Fraction(0)] * 6 + w)
    assert (f1.evaluate(point_w), f2.evaluate(point_w)) != (0, 0)


def test_triple_validation():
    with pytest.raises(ValueError):
        TernaryQuadricTriple(x_form("x1^2"), x_form("x2^2"), to_full(parse_polynomial("a11", AB_UNIVERSE)))


def test_conic_triple_carries_f():
    t = conic_triple(CONIC)
    assert t.f3 == to_full(CONIC)


# -- jacobian and resultant -----------------------------------------------------


def test_jacobian_oracle():
    t = TernaryQuadricTriple(x_form("x1^2"), x_form("x2^2"), x_form("x3^2"))
    assert jacobian_poly(t) == x_form("8*x1*x2*x3")


def test_salmon_matrix_shape():
    B = salmon_matrix(conic_triple(CONIC))
    assert B.nrows == 6 and B.ncols == 6
    assert B.u is AB_UNIVERSE


def test_resultant_vanishes_iff_common_zero():
    # common projective zero (0,0,1)
    t0 = TernaryQuadricTriple(x_form("x1^2"), x_form("x1*x2"), x_form("x2^2"))
    assert salmon_resultant(t0).is_zero()
    # no common zero
    t1 = TernaryQuadricTriple(x_form("x1^2"), x_form("x2^2"), x_form("x3^2"))
    r = salmon_resultant(t1)
    assert not r.is_zero() and r.is_constant()


# -- the two conic factors ---------------------------------------------------------


def test_g1_specializes_to_a13_squared():
    assert g1_factor(CONIC) == parse_polynomial("a13^2", AB_UNIVERSE)


def test_g1_generic_three_terms():
    g1 = g1_factor()
    assert g1 == parse_polynomial("b002*a12^2 - b011*a12*a13 + b020*a13^2", AB_UNIVERSE)


def test_g1_degenerate_conic_rejected():
    # a conic with no x2^2, x2x3, x3^2 monomials kills g1 identically
    with pytest.raises(ValueError):
        kalman_conic_equation(parse_polynomial("x1^2", U3))


def test_g2_cache_is_lru(monkeypatch):
    # mirrors test_kalman_det_cache_is_lru
    monkeypatch.setattr(salmon, "_G2_CACHE", OrderedDict())
    size = salmon._G2_CACHE_SIZE
    others = [parse_polynomial(f"x2^2 - x1*x3 + {k}*x3^2", U3) for k in range(1, 2 * size + 1)]
    first = kalman_conic_equation(CONIC)
    for g in others[:size - 1]:
        kalman_conic_equation(g)
    assert kalman_conic_equation(CONIC) is first  # a hit makes CONIC the most recent entry
    kalman_conic_equation(others[size - 1])
    assert len(salmon._G2_CACHE) == size
    assert kalman_conic_equation(CONIC) is first
    for g in others[size:]:
        kalman_conic_equation(g)
    assert len(salmon._G2_CACHE) == size
    again = kalman_conic_equation(CONIC)
    assert again is not first and again == first


def test_degenerate_conic_raises_every_time_and_is_not_cached(monkeypatch):
    monkeypatch.setattr(salmon, "_G2_CACHE", OrderedDict())
    kalman_conic_equation(CONIC)
    before = list(salmon._G2_CACHE.items())
    for _ in range(2):
        with pytest.raises(ValueError, match="degenerate conic"):
            kalman_conic_equation(parse_polynomial("x1^2", U3))
    assert list(salmon._G2_CACHE.items()) == before


def test_generic_and_specific_g2_are_cached_apart(monkeypatch):
    monkeypatch.setattr(salmon, "_G2_CACHE", OrderedDict())
    generic, specific = kalman_conic_equation(), kalman_conic_equation(CONIC)
    assert list(salmon._G2_CACHE) == [None, (U3.names, CONIC.to_text())]
    assert generic.term_count() == 2832 and specific.term_count() == 138
    assert kalman_conic_equation(None) is generic
    assert kalman_conic_equation(parse_polynomial("-x1*x3 + x2^2", U3)) is specific


def test_g2_term_count_specialized():
    g2 = kalman_conic_equation(CONIC)
    assert g2.term_count() == 138
    # degree 6 and homogeneous in the a-variables
    assert g2.is_homogeneous() == 6


def test_resultant_factors_exactly():
    res = salmon_resultant(conic_triple(CONIC))
    g1 = g1_factor(CONIC)
    g2 = kalman_conic_equation(CONIC)
    assert (g1 * g2).canonical() == res.canonical()


def test_generic_g2_specializes_to_conic_g2():
    g2_gen = kalman_conic_equation()
    vals = {"b200": Fraction(0), "b110": Fraction(0), "b101": Fraction(-1),
            "b020": Fraction(1), "b011": Fraction(0), "b002": Fraction(0)}
    specialized = g2_gen.specialize(vals).canonical()
    direct = kalman_conic_equation(CONIC).convert(AB_UNIVERSE).canonical()
    assert specialized == direct


def test_g2_vanishes_on_conic_eigenpoint_matrices():
    g2 = kalman_conic_equation(CONIC)
    # eigenvectors are the COLUMNS of V; column 1 = (1,1,1) lies on
    # V(x2^2 - x1*x3)
    spec = EigenSpec(V=((1, 1, 0), (1, 2, 0), (1, 0, 1)), D=(2, 3, 5))
    A = matrix_with_eigenvectors(spec)
    flat = tuple(Fraction(x) for row in A for x in row) + (Fraction(0),) * 6
    assert g2.evaluate(flat) == 0


def test_g2_nonzero_off_locus():
    g2 = kalman_conic_equation(CONIC)
    # columns (1,1,0), (1,2,0), (1,0,1) all avoid the conic
    spec = EigenSpec(V=((1, 1, 1), (1, 2, 0), (0, 0, 1)), D=(2, 3, 5))
    A = matrix_with_eigenvectors(spec)
    flat = tuple(Fraction(x) for row in A for x in row) + (Fraction(0),) * 6
    assert g2.evaluate(flat) != 0
