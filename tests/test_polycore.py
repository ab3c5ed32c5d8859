"""Polynomial kernel: parsing, arithmetic, division, discriminants."""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
import tracemalloc
from collections import OrderedDict
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import U2, U3, nonzero_fractions, nonzero_ints, polynomials, vectors
import kalmanvar
from kalmanvar import kalman, polycore
from kalmanvar.polycore import (
    DivisionByZeroPolynomial,
    ExponentOverflow,
    NotDivisible,
    Polynomial,
    PolynomialParseError,
    ProblemTooLarge,
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


def test_a_universe_name_limit():
    # from n = 11 on a1,11 and a11,1 would both be named a111
    assert len(set(a_universe(10).names)) == 100
    with pytest.raises(ProblemTooLarge, match="the limit is n <= 10"):
        a_universe(11)
    assert kalman.ProblemTooLarge is kalmanvar.ProblemTooLarge is ProblemTooLarge


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


def _reference_text(p: Polynomial, keys=None) -> str:
    """The text grammar, spelled out term by term, in the order of `keys`
    (by default descending)."""
    parts = []
    for k in sorted(p.terms, reverse=True) if keys is None else keys:
        c = p.terms[k]
        factors = [nm if e == 1 else f"{nm}^{e}" for nm, e in zip(p.u.names, p.u.unpack(k)) if e]
        shown = [] if abs(c) == 1 and factors else [str(abs(c))]
        sign = (" - " if c < 0 else " + ") if parts else ("-" if c < 0 else "")
        parts.append(sign + "*".join(shown + factors))
    return "".join(parts) or "0"


@pytest.mark.parametrize("seed,u", [
    *(pytest.param(seed, a_universe(3), id=str(seed)) for seed in range(8)),
    *(pytest.param(seed, x_universe(n), id=f"{n} vars-{seed}")
      for n in (3, 4, 5, 7, 10) for seed in range(8)),
])
def test_to_text_matches_reference_formatter(seed, u):
    # monomials are printed two variables at a time; 3, 5 and 7 variables
    # and the nine of a_universe(3) leave a last group of one
    rng = random.Random(seed)
    coeffs = [1, -1, 3, -17, 10**20, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 9)]
    terms = {tuple(rng.choice([0, 0, 0, 1, 2, 11, 127]) for _ in range(u.nvars)): rng.choice(coeffs)
             for _ in range(rng.randint(1, 60))}
    terms[(0,) * u.nvars] = rng.choice(coeffs)  # a constant term
    for p in (Polynomial.from_exponents(u, terms), Polynomial.const(u, terms[(0,) * u.nvars])):
        assert p.to_text() == _reference_text(p)
    assert Polynomial.zero(u).to_text() == "0"


B = polycore._TEXT_BLOCK
# the ways keys are read for their text: with numpy at any size, one at a
# time at any size, and without numpy
READINGS = {"numpy": {"_NP_MIN_KEYS": 1}, "pure": {"_NP_MIN_KEYS": math.inf},
            "no numpy": {"_np": None}}


def _by_reading(text) -> dict[str, str]:
    """text() under each of READINGS."""
    out = {}
    for reading, attrs in READINGS.items():
        with pytest.MonkeyPatch.context() as mp:
            for name, value in attrs.items():
                mp.setattr(polycore, name, value)
            out[reading] = text()
    return out


@pytest.mark.parametrize("first_negative", [True, False], ids=["first -", "first +"])
@pytest.mark.parametrize("count", [1, B - 1, B, B + 1, 3 * B + 5])
def test_format_terms_block_seams(count, first_negative):
    # terms are joined a block of B at a time; every block's first term is
    # negative, and so, or not, is the first term of the text; each reading
    # of the keys gives the same text
    u = x_universe(2)
    keys = sorted((u.pack((i // 128, i % 128)) for i in range(count)), reverse=True)
    coeffs = [(-1) ** i * (1 + i % 7) for i in range(count)]
    for start in range(0, count, B):
        coeffs[start] = -abs(coeffs[start])
    coeffs[0] = -1 if first_negative else 1
    p = Polynomial(u, dict(zip(keys, coeffs)))
    texts = _by_reading(lambda: polycore.format_terms(u, keys, coeffs))
    assert set(texts.values()) == {_reference_text(p)}
    assert p.to_text() == _reference_text(p)


def _text_case(case: str) -> tuple[Polynomial, list[int]]:
    """A polynomial of a few hundred terms and its keys in printing order."""
    if case == "chow":
        cls = kalmanvar.chow.class_W(6, 3)  # 216 terms, 7-bit fields, graded order
        return cls.poly, cls.graded_keys()
    u = {"x": x_universe(5), "a3": a_universe(3), "t": t_universe(), "a4": a_universe(4)}[case]
    rng = random.Random(case)

    def exponent():
        return rng.randint(0, 10**9) if case == "t" else rng.choice([0, 0, 1, 2, 11, 127])

    coeffs = [1, -1, 3, -17, 10**20, -(10**30), Fraction(1, 2), Fraction(-5, 3)]
    p = Polynomial.from_exponents(u, {tuple(exponent() for _ in range(u.nvars)): rng.choice(coeffs)
                                      for _ in range(300)})
    return p, sorted(p.terms, reverse=True)


@pytest.mark.parametrize("case", ["x", "a3", "t", "chow", "a4"])
def test_block_reading_matches_the_pure_reading(case):
    # 32-bit fields (t), an odd last group of variables (x1..x5, a11..a33)
    # and keys of 128 bits (a_universe(4)), which only the pure reading takes
    p, keys = _text_case(case)
    assert len(keys) >= 128
    texts = _by_reading(lambda: polycore.format_terms(p.u, keys, map(p.terms.__getitem__, keys)))
    assert set(texts.values()) == {_reference_text(p, keys)}
    if case == "a4":
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polycore, "_NP_MIN_KEYS", 1)
            mp.setattr(polycore, "_np", _NoNumpy())
            assert polycore.format_terms(p.u, keys, map(p.terms.__getitem__, keys)) == texts["pure"]


def test_small_texts_take_the_pure_reading():
    p = P("x1 + x2 + x3 - 1/2") ** 5  # 56 terms, below _NP_MIN_KEYS
    assert len(p.terms) < polycore._NP_MIN_KEYS
    expect = _reference_text(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_np", _NoNumpy())
        assert p.to_text() == expect


@pytest.mark.parametrize("bad", ["x1 +", "x4", "x1^^2", "x1**2", "(", "x1 x2", ""])
def test_parse_errors(bad):
    with pytest.raises(PolynomialParseError):
        P(bad)


def test_repeated_factors_add_exponents():
    assert P("x2^3*x1*x2^2") == P("x1*x2^5")
    for text, e in [("x2^200*x2^100", 300), ("x2^255*x2", 256), ("x1^128*x1^128", 256)]:
        with pytest.raises(ExponentOverflow, match=f"exponent {e} out of range for 8-bit fields"):
            P(text)


def test_zero_denominator_is_parse_error():
    with pytest.raises(PolynomialParseError, match=r"zero denominator in '1/0\*x1\^2'"):
        P("1/0*x1^2")


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


def test_evaluate_value_types():
    p = P("x1^2 - x2*x3")
    assert type(p.evaluate((2, 1, 3))) is int
    assert type(p.evaluate((Fraction(2), Fraction(1, 3), Fraction(3)))) is int
    assert p.evaluate((Fraction(1, 2), 0, 0)) == Fraction(1, 4)


def test_evaluate_builds_only_the_powers_that_occur():
    # every power of 3/2 up to the 20000th, tabulated, would take ~70 MB
    p = P("x1^20000*x2 + 1", Universe(("x1", "x2"), 16))
    tracemalloc.start()
    try:
        value = p.evaluate((Fraction(3, 2), 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == Fraction(3 ** 20000 + 2 ** 20000, 2 ** 20000)
    assert peak < 4_000_000


def test_convert_between_universes():
    p = P("x1^2 - x2^2", U2)
    q = p.convert(U3)
    assert q.u is U3 and q == P("x1^2 - x2^2", U3)


def test_canonical_normalizes():
    p = P("1/2*x1^2 - 1/3*x2^2")
    c = p.canonical()
    assert c == P("3*x1^2 - 2*x2^2")
    assert P("-6*x1^2 + 4*x2^2").canonical() == c


def _reference_canonical(p: Polynomial) -> dict:
    """Denominators cleared, content divided out and the leading coefficient
    made positive, one coefficient at a time."""
    den = math.lcm(*(Fraction(c).denominator for c in p.terms.values()))
    ints = {k: int(c * den) for k, c in p.terms.items()}
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return {k: c // g for k, c in ints.items()}


@pytest.mark.parametrize("text,expect", [
    ("x1 - 2*x2", "x1 - 2*x2"),
    ("-x1 + x2", "x1 - x2"),
    ("6*x1^2 - 4*x2", "3*x1^2 - 2*x2"),
    ("-6*x1^2 + 4*x2", "3*x1^2 - 2*x2"),
    ("1/2*x1 - 1/3*x2", "3*x1 - 2*x2"),
    ("-4/3*x1 + 2*x2", "2*x1 - 3*x2"),
    ("7", "1"),
    ("-6", "1"),
    ("-2/3", "1"),
])
def test_canonical_cases(text, expect):
    p = P(text)
    c = p.canonical()
    assert c.terms == _reference_canonical(p) == P(expect).terms
    assert c.canonical() is c


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                       st.one_of(nonzero_ints, st.integers(-10**20, 10**20), nonzero_fractions)
                       .filter(bool), min_size=1, max_size=6),
       st.one_of(nonzero_ints, nonzero_fractions), st.booleans())
def test_canonical_matches_general_path(terms, content, lone_constant):
    # integer polynomials, content > 1 and negative leading coefficients
    # come from the scaling; rational ones from the fractions
    if lone_constant:
        terms = {(0, 0, 0): next(iter(terms.values()))}
    p = Polynomial.from_exponents(U3, terms).scale(content)
    before = dict(p.terms)
    c = p.canonical()
    assert c.terms == _reference_canonical(p)
    assert p.terms == before
    assert all(type(x) is int for x in c.terms.values())
    assert c.var_maxes() == p.var_maxes()
    assert c.canonical() is c


def test_lru_keeps_the_most_recent_entries_and_stores_no_error():
    cache, made = OrderedDict(), []

    def get(key):
        return polycore.lru(cache, 2, key, lambda: made.append(key) or key.upper())

    assert (get("a"), get("b"), get("a")) == ("A", "B", "A")
    assert get("c") == "C"  # drops b, the least recently used
    assert list(cache) == ["a", "c"] and made == ["a", "b", "c"]
    with pytest.raises(ZeroDivisionError):
        polycore.lru(cache, 2, "d", lambda: 1 // 0)
    assert list(cache) == ["a", "c"]


def test_leading_and_term_count():
    p = P("x1 + 4*x2^3")
    assert p.term_count() == 2
    assert p.leading() != 0


# -- exact division -------------------------------------------------------------


def test_exact_div_oracle():
    num = P("x1^3 - x2^3")
    den = P("x1 - x2")
    assert num.exact_div(den) == P("x1^2 + x1*x2 + x2^2")


def test_exact_div_not_divisible():
    with pytest.raises(NotDivisible):
        P("x1^2 + 1").exact_div(P("x1 + 1"))


def test_exact_div_by_zero():
    with pytest.raises(DivisionByZeroPolynomial):
        P("x1").exact_div(Polynomial.zero(U3))


@settings(max_examples=120, deadline=None)
@given(polynomials(U3, allow_zero=False), polynomials(U3, allow_zero=False))
def test_mul_then_div_roundtrip(p, q):
    prod = p * q
    assert prod.exact_div(q) == p
    assert prod.exact_div(p) == q


def _varying(g: Polynomial) -> int:
    """How many variables g's terms differ in."""
    exps = [g.u.unpack(k) for k in g.terms]
    return sum(len({e[i] for e in exps}) > 1 for i in range(g.u.nvars))


def _dividends(u: Universe, coeffs):
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * u.nvars)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=6).map(
        lambda m: Polynomial.from_exponents(u, m))


DIV_COEFFS = {"int": nonzero_ints, "fraction": nonzero_fractions}
U4 = x_universe(4)


@pytest.mark.parametrize("kind", sorted(DIV_COEFFS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_recursive_division_recovers_the_cofactor(kind, data):
    polys = _dividends(U4, DIV_COEFFS[kind])
    g = data.draw(polys.filter(lambda g: _varying(g) >= 2))
    h = data.draw(polys)
    q = (g * h).exact_div(g)
    assert q.terms == h.terms
    assert all(type(c) is type(h.terms[k]) for k, c in q.terms.items())


def _free_of_x1(coeffs):
    exps = st.tuples(st.just(0), *[st.integers(min_value=0, max_value=2)] * 3)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=5).map(
        lambda m: Polynomial.from_exponents(U4, m))


@pytest.mark.parametrize("kind", sorted(DIV_COEFFS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lazy_division_forms_every_remainder_slice(kind, data):
    # g = m + g0, m = c*x1*(a monomial) and g0 free of x1: long division in
    # x1 by the one-term lead slice m/x1, c not a unit, so quotients are
    # Fractions unless c divides.  h = t*(m - g0) + w*x1^3 makes g*h's x1^3
    # slice cancel against the product w*x1^3 owes it, and leaves g*h no
    # x1 slice for the owed -t*g0*m to meet.
    coeffs = DIV_COEFFS[kind]
    c = data.draw(coeffs.filter(lambda c: abs(c) != 1))
    m = Polynomial.from_exponents(U4, {(1, *data.draw(st.tuples(*[st.integers(0, 2)] * 3))): c})
    g0 = data.draw(_free_of_x1(coeffs).filter(lambda g0: _varying(m + g0) >= 2))
    t, w = data.draw(_free_of_x1(coeffs)), data.draw(_free_of_x1(coeffs))
    x1 = P("x1", U4)
    h = t * (m - g0) + w * x1 ** 3
    g = m + g0
    p = g * h
    assert not any(U4.unpack(k)[0] == 1 for k in p.terms)
    sums, spy_sum = [], polycore.sum_of_products

    def spied_sum(u, triples):
        r = spy_sum(u, triples)
        sums.append(({sign for sign, _, _ in triples}, r))
        return r

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_KERNEL_MIN_PAIRS", 1)  # the kernel's route at any size
        mp.setattr(polycore, "sum_of_products", spied_sum)
        q = p.exact_div(g)
    assert q.terms == h.terms
    assert all(type(cq) is type(h.terms[k]) for k, cq in q.terms.items())
    # a slice with terms of p that cancels, and a nonzero one of owed products alone
    assert any(1 in signs and not r.terms for signs, r in sums)
    assert any(signs == {-1} and r.terms for signs, r in sums)


def test_lazy_division_sums_once_per_remainder_slice(dehomogenized_conic, monkeypatch):
    det, g2 = dehomogenized_conic
    u = det.u
    # long division in the first variable g2 varies in; its lead slice is one term
    i = next(i for i in range(u.nvars) if len({u.unpack(k)[i] for k in g2.terms}) > 1)
    top = max(u.unpack(k)[i] for k in g2.terms)
    assert sum(u.unpack(k)[i] == top for k in g2.terms) == 1
    depth, sums = [0], []
    divide, spy_sum = polycore._divide, polycore.sum_of_products

    def spied_divide(p, q, box):
        depth[0] += 1
        try:
            return divide(p, q, box)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(polycore, "_divide", spied_divide)
    monkeypatch.setattr(polycore, "sum_of_products",
                        lambda u, triples: sums.append(depth[0]) or spy_sum(u, triples))
    monkeypatch.setattr(polycore, "_add_into", lambda a, b: pytest.fail("_add_into in a division"))
    quotient = det.exact_div(g2)
    monkeypatch.undo()
    assert quotient * g2 == det
    # the remainder's slices are the x_i-degrees of quotient * g2: one sum
    # each, at the top level, and none at the termwise level below it
    degrees = {a + b for a in {u.unpack(k)[i] for k in quotient.terms}
               for b in {u.unpack(k)[i] for k in g2.terms}}
    assert sums == [1] * len(degrees)


# a dividend whose quotient box allows minutes of long division; the lead
# terms reject it at once
FOUND_G = parse_polynomial("-7/2*x1^2*x2^2*x3^2 - 14/5*x1*x2^2*x3 - 15/7*x1*x2 + x1*x3"
                           " + 7/12*x1 - 8*x2^2*x3^2", U3)
FOUND_H = parse_polynomial("10/11*x1^2", U3)
DIV_ANY = _dividends(U3, st.one_of(*DIV_COEFFS.values()))


@settings(max_examples=100, deadline=None)
@given(g=DIV_ANY.filter(lambda g: _varying(g) >= 2), h=DIV_ANY,
       # a monomial, low or near the top of the 8-bit fields: g divides no monomial
       e=st.tuples(*[st.one_of(st.integers(0, 4), st.integers(200, 255))] * 3),
       c=nonzero_ints)
@example(g=FOUND_G, h=FOUND_H, e=(244, 228, 200), c=-4)
def test_non_divisible_raises_not_divisible(g, h, e, c):
    m = Polynomial.from_exponents(U3, {e: c})
    with pytest.raises(NotDivisible):
        (g * h + m).exact_div(g)


def test_non_divisible_found_input_fails_fast(monkeypatch):
    p = FOUND_G * FOUND_H + parse_polynomial("-4*x1^244*x2^228*x3^200", U3)
    start = time.perf_counter()
    with pytest.raises(NotDivisible):
        p.exact_div(FOUND_G)
    assert time.perf_counter() - start < 1.0
    # the numpy reading of the keys rejects it too
    box = tuple(a - b for a, b in zip(p.var_maxes(), FOUND_G.var_maxes()))
    monkeypatch.setattr(polycore, "_KERNEL_MIN_PAIRS", 1)
    assert polycore._leads_leave_box(p, FOUND_G, box)


@settings(max_examples=100, deadline=None)
@given(p=DIV_ANY, e=st.tuples(*[st.integers(0, 2)] * 3), c=st.one_of(*DIV_COEFFS.values()))
def test_term_division_checks_every_key(p, e, c):
    # a one-term divisor: p's terms shifted and divided one by one, or
    # NotDivisible when some term has an exponent below the divisor's
    g = Polynomial.from_exponents(U3, {e: c})
    expect = {}
    for k, pc in p.terms.items():
        f = tuple(a - b for a, b in zip(U3.unpack(k), e))
        expect[f] = Fraction(pc) / c
    if min(min(f) for f in expect) < 0:
        with pytest.raises(NotDivisible):
            p.exact_div(g)
    else:
        q = p.exact_div(g)
        assert q == Polynomial.from_exponents(U3, expect)
        assert all(type(qc) is (int if Fraction(qc).denominator == 1 else Fraction)
                   for qc in q.terms.values())
        assert q.var_maxes() == tuple(map(max, zip(*map(U3.unpack, q.terms))))


def test_lead_terms_never_reject_a_product(monkeypatch):
    # 300 seeded true products, by the Python and then the numpy reading of
    # the keys
    rng = random.Random(0)

    def draw(u):
        return Polynomial.from_exponents(u, {
            tuple(rng.randint(0, 3) for _ in range(u.nvars)): rng.choice([-3, -1, 1, 2, 7])
            for _ in range(rng.randint(1, 8))})

    cases = []
    for u in (t_universe(), U2, U3, U4, a_universe(3), a_universe(4)):
        for _ in range(50):
            q, h = draw(u), draw(u)
            p = q * h
            cases.append((p, q, tuple(a - b for a, b in zip(p.var_maxes(), q.var_maxes()))))
    for p, q, box in cases:
        assert not polycore._leads_leave_box(p, q, box)
    monkeypatch.setattr(polycore, "_KERNEL_MIN_PAIRS", 1)
    for p, q, box in cases:
        assert not polycore._leads_leave_box(p, q, box)


@pytest.mark.parametrize("u", [Universe(("a", "b", "c"), bits=2), x_universe(2), t_universe(),
                               a_universe(4)], ids=["2-bit", "8-bit", "32-bit", "128-bit"])
def test_packed_comparison_matches_the_exponents(u):
    # some field of a larger than b's, read from packed keys, with the
    # extreme exponents 0 and the field mask drawn often
    low = sum(1 << sh for sh in u._shifts[:-1])
    rng = random.Random(u.bits)
    edges = [0, 1, u._mask - 1, u._mask]
    for _ in range(2000):
        a, b = (tuple(rng.choice(edges + [rng.randint(0, u._mask)]) for _ in range(u.nvars))
                for _ in range(2))
        assert polycore._exceeds(u.pack(a), u.pack(b), low) == any(map(operator.gt, a, b))


def test_division_routes_by_the_divisor_variables(monkeypatch):
    routes = []
    for name in ("_heap_divide", "_term_divide"):
        monkeypatch.setattr(polycore, name, lambda p, q, box, name=name, fn=getattr(polycore, name):
                            routes.append((name, q)) or fn(p, q, box))
    h = P("x1*x2 + x3^2 - 1/2")
    g = P("x1^3 - 2*x1 + 5")  # univariate: the heap loop takes the whole division
    assert (g * h).exact_div(g) == h
    assert routes == [("_heap_divide", g)]
    routes.clear()
    g = P("x1^2*x2 - x2*x3 + 3*x3^2 + x1")
    # three variables, but 11 x 4 term pairs, too few for the kernel: the heap loop
    assert (g * h).exact_div(g) == h
    assert routes == [("_heap_divide", g)]
    routes.clear()
    h = P("x1 + x2 + x3 - 1/2") ** 14  # 1061 x 4 term pairs: recursion first
    assert (g * h).exact_div(g) == h
    # g's leading x1-slice is the one term x2: each quotient slice is termwise
    assert routes and {r for r, _ in routes} == {"_term_divide"}
    assert all(q == P("x2") for _, q in routes)
    routes.clear()
    g = P("x1^2*x2 - 2*x1^2*x3 - x2*x3 + 3*x3^2 + x1")
    # a leading x1-slice x2 - 2*x3 of two terms, too few pairs for the
    # kernel with any slice: the heap loop divides by it
    assert (g * h).exact_div(g) == h
    assert routes and set(routes) == {("_heap_divide", P("x2 - 2*x3"))}
    routes.clear()
    g = P("-3*x1*x2^2")  # one term: shifted and divided termwise, at any size
    assert (g * h).exact_div(g) == h
    assert routes == [("_term_divide", g)]


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


# -- product kernel against the dict loop ---------------------------------------------

# coefficient magnitudes: int64 sums; int64 limbs (every product below 2**62,
# the sums not certified); exact Python ints (products past 2**62)
KERNEL_COEFFS = {
    "int64": (1, 9),
    "limbs": (2**30, 2**31 - 1),
    "object": (2**40 - 2**20, 2**40),
}


def _int_polynomials(u: Universe, lo: int, hi: int):
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * u.nvars)
    coeff = st.tuples(st.integers(min_value=lo, max_value=hi), st.sampled_from([1, -1]))
    return st.dictionaries(exps, coeff.map(lambda t: t[0] * t[1]), min_size=4, max_size=24).map(
        lambda m: Polynomial.from_exponents(u, m)
    )


def _dict_loop_product(p: Polynomial, q: Polynomial) -> Polynomial:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_np", None)
        return p * q


def _dict_loop_sum(triples) -> Polynomial:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_np", None)
        return polycore.sum_of_products(triples[0][1].u, triples)


def _norms(triples) -> tuple[int, int]:
    """The certificate sum of min(l1_p*linf_q, linf_p*l1_q) over triples,
    and the largest linf_p*linf_q."""
    cert = largest = 0
    for _, p, q in triples:
        (l1p, lip, _), (l1q, liq, _) = p._norm_info(), q._norm_info()
        cert += min(l1p * liq, lip * l1q)
        largest = max(largest, lip * liq)
    return cert, largest


def _spy_kernel(mp) -> list:
    """Patch the kernel to record, per call, how many relations it found
    and how many cells the box they compact has (both None when it declined
    before `_relations`), and whether the kernel ran (False: it declined)."""
    seen = []
    relations, kernel = polycore._relations, polycore._np_mul

    def spy_relations(operands, dims):
        out = relations(operands, dims)
        dropped = {j for j, _, _ in out}
        seen[-1].relations = len(out)
        seen[-1].cells = math.prod(d for i, d in enumerate(dims) if i not in dropped)
        return out

    def spy_kernel(triples):
        seen.append(SimpleNamespace(relations=None, cells=None, ran=False))
        out = kernel(triples)
        seen[-1].ran = out is not None
        return out

    mp.setattr(polycore, "_relations", spy_relations)
    mp.setattr(polycore, "_np_mul", spy_kernel)
    return seen


@pytest.mark.parametrize("kind", sorted(KERNEL_COEFFS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_np_mul_matches_dict_loop(kind, data):
    ints = _int_polynomials(U3, *KERNEL_COEFFS[kind])
    signs = st.sampled_from([1, -1])
    triples = [(data.draw(signs), data.draw(ints), data.draw(ints))
               for _ in range(data.draw(st.integers(min_value=1, max_value=6)))]
    cancel = data.draw(st.booleans())
    if cancel:
        # -sign*p*(q + r) cancels every term of sign*p*q that p*r does not hold
        sign, p, q = triples[0]
        triples.append((-sign, p, q + data.draw(ints)))
    triples = [t for t in triples if t[2]]
    if not cancel:
        cert, largest = _norms(triples)
        assert (cert < 2**62) == (kind == "int64")
        assert (largest < 2**62) == (kind != "object")
    pairs = sum(len(p.terms) * len(q.terms) for _, p, q in triples)
    chunk = data.draw(st.integers(min_value=1, max_value=pairs))
    # a bound of 1 also declines sums that the module's bound takes
    bound = data.draw(st.sampled_from([1, polycore._CELLS_PER_PAIR]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_CHUNK", chunk)
        mp.setattr(polycore, "_CELLS_PER_PAIR", bound)
        seen = _spy_kernel(mp)
        out = polycore._np_mul(triples)
        # the same sum without the sampled rank bound reaches `_relations`
        mp.setattr(polycore, "_box_past", lambda *args: False)
        polycore._np_mul(triples)
    # the kernel runs exactly when the compacted box is within the bound,
    # and the rank bound declines only sums that `_relations` declines
    early, call = seen
    assert call.ran == (call.cells <= bound * pairs)
    assert early.ran == call.ran
    assert early.cells in (None, call.cells)
    if not call.ran:
        return
    assert out.terms == _dict_loop_sum(triples).terms
    assert all(type(c) is int for c in out.terms.values())
    assert out.var_maxes() == Polynomial(U3, out.terms).var_maxes()


@pytest.mark.parametrize("u", [x_universe(9), a_universe(4)], ids=["72-bit", "128-bit"])
def test_np_mul_keys_wider_than_64_bits(u):
    # every fourth variable, and the last one in q, span the keys' first and
    # last fields, and keep the box within the kernel's bound
    base = parse_polynomial(" + ".join(u.names[::4]) + " + 1", u) ** 3
    p, q = base * 3 - 1, base + parse_polynomial(u.names[-1], u)
    out = polycore._np_mul([(1, p, q)])
    assert out is not None and out.terms == _dict_loop_product(p, q).terms
    assert out.var_maxes() == Polynomial(u, out.terms).var_maxes()
    out = polycore._np_mul([(1, p, q), (-1, q, base)])
    assert out is not None and out == _dict_loop_product(p, q) - _dict_loop_product(q, base)


def _kernel_peak(triples) -> tuple[int, int]:
    """The traced peak of one kernel call, and what its output keeps."""
    tracemalloc.start()
    try:
        out = polycore._np_mul(triples)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is not None
    return peak, kept


def test_np_mul_sum_takes_no_larger_chunks_than_one_product():
    # 84 x 286 pairs per product, 969 output terms: the chunk arrays dominate
    p, q = P("x1 + x2 + x3 + 1") ** 6, P("x1 + x2 + x3 + 1") ** 10
    one, _ = _kernel_peak([(1, p, q)])
    five, _ = _kernel_peak([(1, p.scale(k), q) for k in range(1, 6)])
    assert five <= 1.25 * one


class _Allocations:
    """numpy, recording the element count of every array that `empty` and
    `zeros` make."""

    def __init__(self):
        self.numpy = polycore._np
        self.sizes = {"empty": [], "zeros": []}

    def __getattr__(self, name):
        make = getattr(self.numpy, name)
        if name not in self.sizes:
            return make

        def recorded(shape, *args, **kwargs):
            self.sizes[name].append(math.prod(shape) if isinstance(shape, tuple) else shape)
            return make(shape, *args, **kwargs)
        return recorded


# p scaled so that the certificate picks each value form for p * q
BUFFER_SCALES = {"int64": 1, "limbs": 2**27, "object": 2**30}


@pytest.mark.parametrize("chunk", [None, 331], ids=["module chunk", "331"])
@pytest.mark.parametrize("form", sorted(BUFFER_SCALES))
def test_kernel_buffers_are_bounded_by_the_chunk(form, chunk):
    # 286 x 455 = 130,130 pairs, past one chunk of 2**16; 331 is less than one
    # stripe's row of q, so the outer products are split mid-row
    base = P("x1 + x2 + x3 + 1")
    p, q = (base ** 10).scale(BUFFER_SCALES[form]), base ** 12
    cert, largest = _norms([(1, p, q)])
    assert (cert < 2**62) == (form == "int64")
    assert (largest < 2**62) == (form != "object")
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(polycore, "_CHUNK", chunk)
        numpy = _Allocations()
        mp.setattr(polycore, "_np", numpy)
        limit = polycore._CHUNK
        out = polycore._np_mul([(1, p, q)])
    assert out.terms == _dict_loop_product(p, q).terms
    pairs = len(p.terms) * len(q.terms)
    assert pairs > limit
    # the pair buffers are full chunks, and nothing else grows with the pairs:
    # the other arrays are the accumulator (23**3 cells, one or two limbs),
    # the operands' indices and the output's keys
    assert max(numpy.sizes["empty"]) == limit
    assert max(numpy.sizes["zeros"]) <= 2 * 23**3 < pairs // 2


def test_kernel_peak_is_bounded_by_its_output_and_accumulator():
    # every monomial of degree <= 20 times every one of degree <= 22 over
    # x1..x3: 1771 x 2300 = 4,073,300 pairs into the 43**3 cells of one
    # stripe, 14,190 output terms.  Chunks of 2**21 pairs took 32 MB.
    p, q = (Polynomial.from_exponents(U3, {e: 1 for e in itertools.product(range(d + 1), repeat=3)
                                           if sum(e) <= d}) for d in (20, 22))
    assert len(p.terms) * len(q.terms) >= 2**20
    peak, kept = _kernel_peak([(1, p, q)])
    assert peak < 2 * kept + 8 * 43**3


class _NoNumpy:
    """Stands in for numpy where the kernel must decline before any array work."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def _declined_operands(kind: str) -> tuple[Polynomial, Polynomial]:
    base = P("x1 + x2 + x3 + 1") ** 6  # 84 terms: 7056 pairs, past the 4096 threshold
    if kind == "fraction":
        return base.scale(Fraction(1, 3)), base
    # the same terms with every exponent times 2**14: about 2**53 cells for
    # 7056 pairs, and no relation to compact them
    wide = Universe(("x1", "x2", "x3"), bits=21)
    spread = Polynomial.from_exponents(
        wide, {tuple(e << 14 for e in U3.unpack(k)): c for k, c in base.terms.items()}
    )
    return spread, spread + 1


@pytest.mark.parametrize("kind", ["fraction", "wide box"])
def test_np_mul_declines_before_any_array(kind):
    """Fractions decline before any array.  A wide box declines on the rank
    of a few sampled keys' exponent differences, before any array."""
    p, q = _declined_operands(kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_np", _NoNumpy())
        assert polycore._np_mul([(1, p, q)]) is None
        # one declining triple declines the whole sum
        assert polycore._np_mul([(1, q, q), (-1, p, q)]) is None
    assert p * q == _dict_loop_product(p, q)


# -- the dense reduction ---------------------------------------------------------------

U4 = x_universe(4)
# the weights w whose value w.e is the same on every exponent of an operand
DENSE_RELATIONS = {
    "none": [],
    "homogeneous": [(1, 1, 1, 1)],
    "torus": [(2, -1, 0, 1)],
    "two": [(1, 1, 1, 1), (1, -1, 0, 0)],
}
# x1 the widest variable, so that relations drop it ahead of kept digits
DENSE_BOX = [range(6), range(4), range(4), range(4)]


def _relation_classes(ws) -> list[list[tuple[int, ...]]]:
    """The exponent vectors of DENSE_BOX grouped by their values under ws,
    largest group first."""
    classes: dict[tuple, list] = {}
    for e in itertools.product(*DENSE_BOX):
        classes.setdefault(tuple(sum(a * b for a, b in zip(w, e)) for w in ws), []).append(e)
    return sorted(classes.values(), key=lambda c: (-len(c), c))


def _dense_triples(kind: str, form: str, rng: random.Random):
    """Three triples whose pair sums keep the relations of `kind`: each
    operand's support is most of one class, the classes swapped between
    triples so that every pair sum lies in the sum of the two.  "unequal"
    has homogeneous operands whose pair sums differ in degree, so only the
    base sums of the triples show that total degree is no relation."""
    lo, hi = KERNEL_COEFFS[form]

    def operand(support):
        picked = rng.sample(support, max(1, 3 * len(support) // 4))
        return Polynomial.from_exponents(U4, {e: rng.randint(lo, hi) * rng.choice([1, -1])
                                              for e in picked})

    if kind == "unequal":
        by_degree = {d: [e for e in itertools.product(*DENSE_BOX) if sum(e) == d]
                     for d in (3, 4)}
        pairs = [(3, 3), (3, 4), (4, 3)]
        return [(rng.choice([1, -1]), operand(by_degree[a]), operand(by_degree[b]))
                for a, b in pairs]
    classes = _relation_classes(DENSE_RELATIONS[kind])
    a, b = classes[0], classes[1 if len(classes) > 1 else 0]
    return [(rng.choice([1, -1]), operand(x), operand(y)) for x, y in ((a, b), (b, a), (a, b))]


# odd chunks: 61 is shorter than q's rows when the box is one stripe, so the
# outer products split mid-row, and 1001 holds no whole number of rows;
# 2**21 takes every sum in one chunk
@pytest.mark.parametrize("chunk", [61, 64, 1001, 1 << 21])
@pytest.mark.parametrize("cells", [4, 7, 49, 1 << 20])
@pytest.mark.parametrize("form", ["int64", "limbs", "object"])
@pytest.mark.parametrize("kind", [*DENSE_RELATIONS, "unequal"])
def test_dense_reduction_matches_dict_loop(kind, form, cells, chunk):
    rng = random.Random(f"{kind}:{form}:{cells}:{chunk}")
    triples = _dense_triples(kind, form, rng)
    cert, largest = _norms(triples)
    assert (cert < 2**62) == (form == "int64")
    assert (largest < 2**62) == (form != "object")
    expected = len(DENSE_RELATIONS.get(kind, []))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_DENSE_CELLS", cells)
        mp.setattr(polycore, "_CHUNK", chunk)
        seen = _spy_kernel(mp)
        out = polycore._np_mul(triples)
        # the negated sum cancels every term
        zero = polycore._np_mul(triples + [(-s, p, q) for s, p, q in triples])
    # the last digit has 7 values: it fits a stripe of 7 cells, not one of 4
    runs = cells >= 7
    assert [(c.relations, c.ran) for c in seen] == [(expected, runs)] * 2
    if not runs:
        return
    assert out.terms == _dict_loop_sum(triples).terms
    assert list(out.terms) == sorted(out.terms)
    assert all(type(c) is int for c in out.terms.values())
    assert out.var_maxes() == Polynomial(U4, out.terms).var_maxes()
    assert zero.terms == {} and zero.var_maxes() == (0,) * 4


def test_kernel_takes_a_ladder_like_sum_and_declines_a_sparse_one():
    ladder = P("x1 + 2*x2 - 3*x3 + x4", U4)
    p, q = ladder ** 10, ladder ** 12 - P("x2^12", U4)  # 286 x 455 pairs, homogeneous
    rng = random.Random(3)
    sparse = [Polynomial.from_exponents(U4, {tuple(rng.randrange(60) for _ in range(4)): 1 + k
                                             for k in range(300)}) for _ in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_kernel(mp)
        dense_out, sparse_out = p * q, sparse[0] * sparse[1]
        # the sparse sum declines on sampled keys, before `_relations`;
        # without that bound, `_relations` finds its box past the bound
        mp.setattr(polycore, "_box_past", lambda *args: False)
        assert polycore._np_mul([(1, *sparse)]) is None
    assert [(c.relations, c.ran) for c in seen] == [(1, True), (None, False), (0, False)]
    assert dense_out == _dict_loop_product(p, q)
    pairs = len(sparse[0].terms) * len(sparse[1].terms)
    assert seen[2].cells > polycore._CELLS_PER_PAIR * pairs
    assert sparse_out == _dict_loop_product(*sparse)


def test_rank_bound_counts_the_narrowest_digits():
    # homogeneous of degree 20 over x1..x4, x1 at most 1: a box of
    # 3 x 41 x 41 x 41 cells, past 16 per pair, and total degree drops one
    # 41-wide digit, leaving 3 x 41 x 41 within it.  A bound that dropped
    # the widest digits the sampled rank allows, not the narrowest, would
    # decline this sum.
    rng = random.Random(5)
    mons = [e for e in itertools.product(range(2), range(21), range(21), range(21)) if sum(e) == 20]
    ends = [(0, 20, 0, 0), (0, 0, 20, 0), (0, 0, 0, 20), (1, 19, 0, 0)]
    p, q = (Polynomial.from_exponents(U4, {e: rng.randint(1, 9) for e in ends + rng.sample(mons, 46)})
            for _ in range(2))
    pairs = len(p.terms) * len(q.terms)
    assert 3 * 41**2 <= polycore._CELLS_PER_PAIR * pairs < 41**3
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_kernel(mp)
        out = polycore._np_mul([(1, p, q)])
    assert [(c.relations, c.cells, c.ran) for c in seen] == [(1, 3 * 41**2, True)]
    assert out.terms == _dict_loop_product(p, q).terms


def test_dense_reduction_with_keys_wider_than_64_bits():
    u = a_universe(4)  # 128-bit keys
    base = parse_polynomial("a11 + a23 - 3*a44 + 2*a12", u)
    p, q = base ** 10, base ** 11 - parse_polynomial("a44^11", u)  # 286 x 364 pairs
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_kernel(mp)
        out = p * q
    assert [(c.relations, c.ran) for c in seen] == [(1, True)]
    assert out.terms == _dict_loop_product(p, q).terms
    assert list(out.terms) == sorted(out.terms)
    assert out.var_maxes() == Polynomial(u, out.terms).var_maxes()


def test_dense_accumulator_is_bounded_by_the_cell_cap():
    # p*q - q*p over a 32^4 box: 2**21 pairs and 2**20 cells, so a whole-box
    # accumulator would take 8 MB; 4096 cells take 32 KB
    p = Polynomial.from_exponents(U4, {(a, b, 0, 0): 1 + a + 3 * b for a in range(32) for b in range(32)})
    q = Polynomial.from_exponents(U4, {(0, 0, c, d): 1 + c + 2 * d for c in range(32) for d in range(32)})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_DENSE_CELLS", 1 << 12)
        mp.setattr(polycore, "_CHUNK", 1 << 12)
        seen = _spy_kernel(mp)
        peak, _ = _kernel_peak([(1, p, q), (-1, q, p)])
    assert [(c.relations, c.ran) for c in seen] == [(0, True)]
    assert peak < 8 * 32**4 // 8


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
    assert root_multiplicity_at_zero(P("x2^5 - 2*x2^2")) == 2
    with pytest.raises(ZeroPolynomial):
        root_multiplicity_at_zero(Polynomial.zero(t))
    with pytest.raises(ValueError, match="not univariate"):
        root_multiplicity_at_zero(P("x1*x2 + x1"))


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
