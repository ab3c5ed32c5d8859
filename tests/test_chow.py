"""Truncated intersection classes of eigenvector incidence loci."""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kalmanvar.polycore as polycore
from kalmanvar.chow import (
    MAX_CLASS_BITS,
    MAX_CLASS_TERMS,
    SetPartition,
    TruncatedClass,
    TruncationError,
    UnsupportedClass,
    class_W,
    class_WsP,
    class_Wtilde,
    coeff_ctilde,
    deg_mu_from_chow,
    elementary_symmetric,
    fixture_E3,
    fixture_Wtilde3,
)
from kalmanvar.enumerative import ctilde, deg_mu_kalman, falling_factorial, partitions
from kalmanvar.polycore import ProblemTooLarge


def H(n, s, i):
    return TruncatedClass.h(n, s, i)


def classes(n: int, s: int) -> st.SearchStrategy[TruncatedClass]:
    exps = st.tuples(
        st.integers(min_value=0, max_value=n * n - 1),
        *[st.integers(min_value=0, max_value=n - 1)] * s,
    )
    term = st.tuples(exps, st.integers(min_value=-6, max_value=6))

    def build(terms):
        acc = TruncatedClass.zero(n, s)
        for e, c in terms:
            acc = acc + TruncatedClass(n, s, {tuple(e): c})
        return acc

    return st.lists(term, max_size=4).map(build)


# -- ring structure ----------------------------------------------------------


def test_truncation_in_products():
    # h0^{n^2} = 0 and h_i^n = 0
    assert (H(2, 1, 0) ** 4).is_zero()
    assert not (H(2, 1, 0) ** 3).is_zero()
    assert (H(2, 1, 1) ** 2).is_zero()
    assert (H(3, 2, 2) ** 3).is_zero()


def test_constructor_validates_exponents():
    with pytest.raises(TruncationError):
        TruncatedClass(2, 1, {(4, 0): 1})
    with pytest.raises(TruncationError):
        TruncatedClass(2, 1, {(0, 2): 1})
    with pytest.raises(TruncationError):
        TruncatedClass(2, 1, {(0, 0, 0): 1})


def test_zero_one_and_drop():
    z = TruncatedClass.zero(3, 1)
    assert z.is_zero() and z.to_text() == "0"
    one = TruncatedClass.one(3, 1)
    assert one.coefficient((0, 0)) == 1
    assert TruncatedClass(3, 1, {(1, 0): 0}).is_zero()


def test_to_text_format():
    c = H(3, 2, 0) * H(3, 2, 1) + TruncatedClass(3, 2, {(0, 0, 2): 3})
    assert c.to_text() == "3*h2^2 + h0*h1"


@settings(max_examples=40, deadline=None)
@given(classes(2, 2), classes(2, 2), classes(2, 2))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * TruncatedClass.one(2, 2) == a
    assert (a - a).is_zero()
    assert a.scale(3) == a + a + a


@settings(max_examples=30, deadline=None)
@given(classes(2, 2), st.integers(min_value=0, max_value=3))
def test_pow_matches_repeated_mul(a, k):
    acc = TruncatedClass.one(2, 2)
    for _ in range(k):
        acc = acc * a
    assert a ** k == acc


def reference_product(a: dict, b: dict, n: int) -> dict:
    """Truncated product on exponent tuples, pair by pair."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if e[0] < n * n and all(x < n for x in e[1:]):
                out[e] = out.get(e, 0) + ca * cb
    return out


def term_dicts(n: int, s: int, low: bool, max_size: int = 12):
    # low exponents are at most half a cap, so no product of two reaches one
    top0, top = (n * n - 1, n - 1) if not low else ((n * n - 1) // 2, (n - 1) // 2)
    exps = st.tuples(st.integers(0, top0), *[st.integers(0, top)] * s)
    return st.dictionaries(exps, st.integers(-9, 9), max_size=max_size)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 2)]), st.booleans())
def test_product_matches_reference(data, ns, low):
    n, s = ns
    a = data.draw(term_dicts(n, s, low))
    b = data.draw(term_dicts(n, s, low or data.draw(st.booleans())))
    got = TruncatedClass(n, s, a) * TruncatedClass(n, s, b)
    assert got == TruncatedClass(n, s, reference_product(a, b, n))


def test_dense_product_matches_reference():
    # enough term pairs for the numpy kernel, with truncation
    n, s = 4, 2
    a = {(e0, e1, e2): (e0 + 3 * e1 - 5 * e2) % 11 - 5
         for e0 in range(16) for e1 in range(4) for e2 in range(4)}
    b = {e: c * c - 7 for e, c in a.items()}
    ca, cb = TruncatedClass(n, s, a), TruncatedClass(n, s, b)
    assert ca.poly.term_count() * cb.poly.term_count() >= 4096
    assert ca * cb == TruncatedClass(n, s, reference_product(a, b, n))


def test_ring_edge_behaviour():
    one = TruncatedClass.one(3, 2)
    with pytest.raises(TruncationError):
        TruncatedClass.h(3, 2, 1, -1)
    assert TruncatedClass.h(3, 2, 1, 3).is_zero() and TruncatedClass.h(3, 2, 0, 9).is_zero()
    with pytest.raises(ValueError):
        TruncatedClass.h(3, 2, 3)
    with pytest.raises(TypeError):
        one + 1
    with pytest.raises(ValueError):
        one ** -1
    # out-of-range tuples have coefficient 0, whatever the field width
    for e in [(0, 0), (0, 0, 0, 0), (-1, 0, 0), (9, 0, 0), (0, 3, 0), (0, 0, 1 << 40)]:
        assert one.coefficient(e) == 0
    assert TruncatedClass.__hash__ is None
    assert 2 * one == one.scale(2) == one + one


def test_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        H(2, 1, 0) + H(2, 2, 0)
    with pytest.raises(ValueError):
        H(2, 1, 0) * H(3, 1, 0)


# -- elementary symmetric -------------------------------------------------------


def test_elementary_symmetric_oracles():
    e1 = elementary_symmetric(3, 3, (1, 2, 3), 1)
    assert e1 == H(3, 3, 1) + H(3, 3, 2) + H(3, 3, 3)
    e3 = elementary_symmetric(3, 3, (1, 2, 3), 3)
    assert e3 == H(3, 3, 1) * H(3, 3, 2) * H(3, 3, 3)
    assert elementary_symmetric(3, 3, (1, 2), 0) == TruncatedClass.one(3, 3)
    assert elementary_symmetric(3, 3, (1, 2), 3).is_zero()


# -- set partitions ----------------------------------------------------------------


def test_set_partition_canonicalization():
    p = SetPartition.of([[3], [2, 1]])
    assert p.blocks == ((1, 2), (3,))
    assert p.minima == (1, 3)
    assert p.k == 2 and p.s == 3


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition.of([[1, 1], [2]])
    with pytest.raises(ValueError):
        SetPartition.of([[1], [3]])  # gap: 2 missing


@pytest.mark.parametrize("s,bell", [(1, 1), (2, 2), (3, 5), (4, 15)])
def test_all_partitions_bell_counts(s, bell):
    parts = SetPartition.all_partitions(s)
    assert len(parts) == bell
    assert len(set(p.blocks for p in parts)) == bell


# -- the W classes -----------------------------------------------------------------


@pytest.mark.parametrize("n,s", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 2)])
def test_class_W_top_coefficient(n, s):
    # coefficient of h0 * h_1^{n-2} * h_2^{n-1} ... h_s^{n-1} is C(n,2)*n^{s-1}
    exps = (1, n - 2) + (n - 1,) * (s - 1)
    assert class_W(n, s).coefficient(exps) == math.comb(n, 2) * n ** (s - 1)


def test_class_Wtilde_s1_is_class_W():
    for n in (2, 3, 4):
        assert class_Wtilde(n, 1) == class_W(n, 1)


def test_class_Wtilde_s3_unsupported_points_to_fixture():
    # (n, s) = (3, 3) is the expanded fixture; no other s >= 3 has an expansion
    assert class_Wtilde(3, 3) == fixture_Wtilde3()
    with pytest.raises(UnsupportedClass, match="W~_3 is available for s <= 2"):
        class_Wtilde(4, 3)
    with pytest.raises(UnsupportedClass):
        class_WsP(4, 3, SetPartition.of([[1], [2], [3]]))


def test_class_WsP_singletons_is_Wtilde():
    for n in (2, 3):
        p = SetPartition.of([[1], [2]])
        assert class_WsP(n, 2, p) == class_Wtilde(n, 2)


# -- frozen expansions for n = 3, s = 3 ------------------------------------------------


def E(l):
    return elementary_symmetric(3, 3, (1, 2, 3), l)


def B(l, ij):
    return elementary_symmetric(3, 3, ij, l)


def T0(k):
    return H(3, 3, 0) ** k


def test_fixture_Wtilde3_expansion():
    expect = (
        E(3) * E(3)
    ).scale(6) + (E(2) * E(3) * T0(1)).scale(6) + (
        (E(2) * E(2) + (E(1) * E(3)).scale(2)) * T0(2)
    ).scale(2) + ((E(1) * E(2) + E(3)) * T0(3)).scale(3) + (
        (E(1) * E(1) + E(2).scale(3)) * T0(4)
    ) + (E(1) * T0(5)).scale(2) + T0(6)
    assert fixture_Wtilde3() == expect


def test_fixture_E3_expansion():
    expect = (E(3) * T0(3)).scale(6) + (E(2) * T0(4)).scale(3) + E(1) * T0(5)
    assert fixture_E3() == expect


@pytest.mark.parametrize("i,j,k", [(1, 2, 3), (1, 3, 2), (2, 3, 1)])
def test_pair_partition_expansion(i, j, k):
    tk = H(3, 3, k)
    b1, b2 = B(1, (i, j)), B(2, (i, j))
    expect = (
        (E(3) * E(3)).scale(6)
        + (E(2) * E(3) * T0(1)).scale(6)
        + ((b2 * b2 + (b1 * b2 * tk).scale(4) + (b1 * b1 - b2) * tk * tk) * T0(2)).scale(2)
        + ((b1 * b2 + (b1 * b1 - b2) * tk) * T0(3)).scale(3)
        + (b1 * b1 - b2) * T0(4)
    )
    assert class_WsP(3, 3, SetPartition.of([[i, j], [k]])) == expect


def test_triple_partition_expansion():
    expect = (E(3) * E(3)).scale(3) + (E(2) * E(3) * T0(1)).scale(3) + (
        E(2) * E(2) - E(1) * E(3)
    ) * T0(2)
    assert class_WsP(3, 3, SetPartition.of([[1, 2, 3]])) == expect


def test_decomposition_identity_s3():
    total = TruncatedClass.zero(3, 3)
    for p in SetPartition.all_partitions(3):
        total = total + class_WsP(3, 3, p)
    assert total + fixture_E3() == class_W(3, 3)


# -- coefficient extraction -------------------------------------------------------------


def test_coeff_ctilde_matches_closed_form():
    for n in range(2, 8):
        for s in (1, 2):
            assert coeff_ctilde(n, s) == ctilde(n, s)
    assert coeff_ctilde(3, 3) == 6 == ctilde(3, 3)


def test_coeff_ctilde_formula_only_cases():
    # where no class expansion is available the closed form still answers
    assert coeff_ctilde(4, 3) == math.comb(4, 2) * falling_factorial(3, 2)
    with pytest.raises(ValueError):
        coeff_ctilde(4, 0)


# -- size limits -----------------------------------------------------------------------


class _Reached(Exception):
    pass


def _builders(n, s):
    P = SetPartition.of([[1], list(range(2, s + 1))] if s > 1 else [[1]])
    out = [lambda: class_W(n, s), lambda: class_WsP(n, s, P)]
    return out + [lambda: class_Wtilde(n, s)] if s <= 2 else out


@pytest.mark.parametrize("n,s,accepted", [
    (10, 6, True), (10, 7, False),  # n^s against MAX_CLASS_TERMS
    (2, 19, True), (2, 20, False),
    (368, 2, True), (369, 2, False),  # n^s * n*s against MAX_CLASS_BITS
    (10 ** 4, 1, True), (10 ** 4 + 1, 1, False),
])
def test_class_size_limit_edge(monkeypatch, n, s, accepted):
    # a size within both limits reaches a product; one past either is
    # rejected before any
    assert MAX_CLASS_TERMS == 10 ** 6 and MAX_CLASS_BITS == 10 ** 8
    assert (n ** s <= MAX_CLASS_TERMS and n ** s * n * s <= MAX_CLASS_BITS) == accepted

    def product(*args):
        raise _Reached

    monkeypatch.setattr(polycore, "sum_of_products", product)
    for build in _builders(n, s):
        if accepted:
            with pytest.raises(_Reached):
                build()
        else:
            with pytest.raises(ProblemTooLarge, match=f"MAX_CLASS_TERMS = {MAX_CLASS_TERMS} "
                               f"and MAX_CLASS_BITS = {MAX_CLASS_BITS}"):
                build()


def test_closed_forms_answer_past_the_class_limit(monkeypatch):
    def product(*args):
        raise _Reached

    monkeypatch.setattr(polycore, "sum_of_products", product)
    assert coeff_ctilde(369, 2) == ctilde(369, 2)
    assert coeff_ctilde(20, 10) == ctilde(20, 10)
    mu = partitions(2, 400)[-1]
    assert deg_mu_from_chow(400, 2, mu.parts) == deg_mu_kalman(400, 2, mu)


# -- golden outputs ----------------------------------------------------------------------


def golden_classes():
    for n in range(2, 6):
        for s in range(1, 5):
            yield class_W(n, s)
            if s <= 2:
                yield class_Wtilde(n, s)
            for p in SetPartition.all_partitions(s):
                if p.k <= 2 or (n, p.k) == (3, 3):
                    yield class_WsP(n, s, p)
    yield fixture_E3()
    yield fixture_Wtilde3()
    yield (class_W(3, 2) + TruncatedClass.h(3, 2, 0, 2, -5)) ** 3


def test_golden_class_digest():
    # text and JSON of 94 classes, then closed-form values through the class
    # checks; the digest was taken from the exponent-tuple implementation
    h = hashlib.sha256()
    for cls in golden_classes():
        h.update(cls.to_text().encode() + b"\n")
        h.update(json.dumps(cls.to_json_obj()).encode() + b"\n")
    for n in range(2, 8):
        for s in range(1, 5):
            h.update(f"{coeff_ctilde(n, s)}\n".encode())
    for n, d in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        for mu in partitions(d, n):
            h.update(f"{deg_mu_from_chow(n, d, mu.parts)}\n".encode())
    assert h.hexdigest() == "c79b086c3dd1aa39ad3ed6e94675bf53acfe178e19c889311753640ea6278373"


# -- degrees through the class pairing ----------------------------------------------------


@pytest.mark.parametrize(
    "n,d",
    [(2, 2), (3, 2), (3, 3)],
)
def test_deg_mu_from_chow_matches_combinatorial(n, d):
    for mu in partitions(d, n):
        assert deg_mu_from_chow(n, d, mu.parts) == deg_mu_kalman(n, d, mu)


def test_deg_mu_from_chow_validation():
    with pytest.raises(ValueError):
        deg_mu_from_chow(2, 2, (1, 1, 1))
