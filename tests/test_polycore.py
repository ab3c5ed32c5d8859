"""Polynomial kernel: parsing, arithmetic, division, discriminants."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


def _reference_text(p: Polynomial) -> str:
    """The text grammar, spelled out term by term."""
    parts = []
    for k in sorted(p.terms, reverse=True):
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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_non_divisible_raises_not_divisible(data):
    polys = _dividends(U3, st.one_of(*DIV_COEFFS.values()))
    g = data.draw(polys.filter(lambda g: _varying(g) >= 2))
    h = data.draw(polys)
    # a monomial, low or near the top of the 8-bit fields: g divides no monomial
    e = data.draw(st.tuples(*[st.one_of(st.integers(0, 4), st.integers(200, 255))] * 3))
    m = Polynomial.from_exponents(U3, {e: data.draw(nonzero_ints)})
    with pytest.raises(NotDivisible):
        (g * h + m).exact_div(g)


def test_division_routes_by_the_divisor_variables(monkeypatch):
    divisors = []
    heap = polycore._heap_divide
    monkeypatch.setattr(polycore, "_heap_divide",
                        lambda p, q, box: divisors.append(q) or heap(p, q, box))
    h = P("x1*x2 + x3^2 - 1/2")
    g = P("x1^3 - 2*x1 + 5")  # univariate: the heap loop takes the whole division
    assert (g * h).exact_div(g) == h
    assert divisors == [g]
    divisors.clear()
    g = P("x1^2*x2 - x2*x3 + 3*x3^2 + x1")  # three variables: recursion first
    assert (g * h).exact_div(g) == h
    assert divisors and g not in divisors
    assert all(_varying(q) <= 1 for q in divisors)


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_CHUNK_I64", chunk)
        mp.setattr(polycore, "_CHUNK_OBJ", chunk)
        out = polycore._np_mul(triples)
    assert out is not None
    assert out.terms == _dict_loop_sum(triples).terms
    assert all(type(c) is int for c in out.terms.values())
    assert out.var_maxes() == Polynomial(U3, out.terms).var_maxes()


@pytest.mark.parametrize("u", [x_universe(9), a_universe(4)], ids=["72-bit", "128-bit"])
def test_np_mul_keys_wider_than_64_bits(u):
    base = parse_polynomial(" + ".join(u.names[::2]) + " + 1", u) ** 3
    p, q = base * 3 - 1, base + parse_polynomial(u.names[-1], u)
    out = polycore._np_mul([(1, p, q)])
    assert out is not None and out.terms == _dict_loop_product(p, q).terms
    assert out.var_maxes() == Polynomial(u, out.terms).var_maxes()
    out = polycore._np_mul([(1, p, q), (-1, q, base)])
    assert out is not None and out == _dict_loop_product(p, q) - _dict_loop_product(q, base)


def _kernel_peak(triples) -> int:
    tracemalloc.start()
    try:
        out = polycore._np_mul(triples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is not None
    return peak


def test_np_mul_sum_takes_no_larger_chunks_than_one_product():
    # 84 x 286 pairs per product, 969 output terms: the chunk arrays dominate
    p, q = P("x1 + x2 + x3 + 1") ** 6, P("x1 + x2 + x3 + 1") ** 10
    one = _kernel_peak([(1, p, q)])
    five = _kernel_peak([(1, p.scale(k), q) for k in range(1, 6)])
    assert five <= 1.25 * one


class _NoNumpy:
    """Stands in for numpy where the kernel must decline before any array work."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def _declined_operands(kind: str) -> tuple[Polynomial, Polynomial]:
    base = P("x1 + x2 + x3 + 1") ** 6  # 84 terms: 7056 pairs, past the 4096 threshold
    if kind == "fraction":
        return base.scale(Fraction(1, 3)), base
    # the same terms with every exponent times 2**14: the box needs about 53
    # bits and the positions 13
    wide = Universe(("x1", "x2", "x3"), bits=21)
    spread = Polynomial.from_exponents(
        wide, {tuple(e << 14 for e in U3.unpack(k)): c for k, c in base.terms.items()}
    )
    return spread, spread + 1


@pytest.mark.parametrize("kind", ["fraction", "wide box"])
def test_np_mul_declines_before_any_array(kind):
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


def _spy_dense(mp) -> list:
    """Patch the dense reduction to record, per call, the relations found and
    whether it ran (False: the sort ran)."""
    seen = []
    relations, dense = polycore._relations, polycore._dense_sum

    def spy_relations(*args):
        out = relations(*args)
        seen.append([len(out), False])
        return out

    def spy_dense(*args):
        out = dense(*args)
        seen[-1][1] = out is not None
        return out

    mp.setattr(polycore, "_relations", spy_relations)
    mp.setattr(polycore, "_dense_sum", spy_dense)
    return seen


@pytest.mark.parametrize("chunk", [64, 1 << 21])
@pytest.mark.parametrize("cells", [4, 7, 49, 1 << 20])
@pytest.mark.parametrize("form", ["int64", "limbs"])
@pytest.mark.parametrize("kind", [*DENSE_RELATIONS, "unequal"])
def test_dense_reduction_matches_dict_loop(kind, form, cells, chunk):
    rng = random.Random(f"{kind}:{form}:{cells}:{chunk}")
    triples = _dense_triples(kind, form, rng)
    cert, _ = _norms(triples)
    assert (cert < 2**62) == (form == "int64")
    expected = len(DENSE_RELATIONS.get(kind, []))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_DENSE_MIN_PAIRS", 0)
        mp.setattr(polycore, "_DENSE_CELLS", cells)
        mp.setattr(polycore, "_CHUNK_I64", chunk)
        seen = _spy_dense(mp)
        out = polycore._np_mul(triples)
        # the negated sum cancels every term
        zero = polycore._np_mul(triples + [(-s, p, q) for s, p, q in triples])
    # the last digit has 7 values: it fits a stripe of 7 cells, not one of 4
    dense = kind != "unequal" and cells >= 7
    assert seen == [[expected, dense], [expected, dense]]
    assert out.terms == _dict_loop_sum(triples).terms
    assert list(out.terms) == sorted(out.terms)  # the sort's order
    assert all(type(c) is int for c in out.terms.values())
    assert out.var_maxes() == Polynomial(U4, out.terms).var_maxes()
    assert zero.terms == {} and zero.var_maxes() == (0,) * 4


def test_kernel_takes_dense_on_a_ladder_like_sum_and_sort_on_a_sparse_one():
    ladder = P("x1 + 2*x2 - 3*x3 + x4", U4)
    p, q = ladder ** 10, ladder ** 12 - P("x2^12", U4)  # 286 x 455 pairs, homogeneous
    rng = random.Random(3)
    sparse = [Polynomial.from_exponents(U4, {tuple(rng.randrange(60) for _ in range(4)): 1 + k
                                             for k in range(300)}) for _ in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_dense(mp)
        dense_out, sparse_out = p * q, sparse[0] * sparse[1]
    assert seen == [[1, True], [0, False]]
    assert dense_out == _dict_loop_product(p, q)
    assert sparse_out == _dict_loop_product(*sparse)


def test_dense_reduction_with_keys_wider_than_64_bits():
    u = a_universe(4)  # 128-bit keys
    base = parse_polynomial("a11 + a23 - 3*a44 + 2*a12", u)
    p, q = base ** 10, base ** 11 - parse_polynomial("a44^11", u)  # 286 x 364 pairs
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_dense(mp)
        out = p * q
    assert seen == [[1, True]]
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
        mp.setattr(polycore, "_CHUNK_I64", 1 << 12)
        seen = _spy_dense(mp)
        peak = _kernel_peak([(1, p, q), (-1, q, p)])
    assert seen == [[0, True]]
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
