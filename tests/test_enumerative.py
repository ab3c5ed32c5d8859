"""Partition enumeration and closed-form degree formulas."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kalmanvar.enumerative as enumerative
from kalmanvar.enumerative import (
    MAX_PARTITIONS,
    DegreeReport,
    ctilde,
    ctilde_stirling_form,
    deg_kalman,
    deg_mu_kalman,
    degrees_table,
    degrees_table_csv,
    detA_multiplicity,
    discriminant_budget,
    falling_factorial,
    grassmannian_quadric_note,
    multinomial_budget_term,
    partition_count,
    partitions,
    sing_degrees,
    stirling2,
)
from kalmanvar.polycore import ProblemTooLarge
from kalmanvar.veronese import PartitionType

# -- helpers ------------------------------------------------------------------


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(3, 4) == 0  # runs past zero


def test_falling_factorial_matches_the_plain_loop():
    for a in range(-6, 9):
        for b in range(0, 12):
            expect = 1
            for i in range(b):
                expect *= a - i
            assert falling_factorial(a, b) == expect, (a, b)


def test_falling_factorial_stops_at_a_zero_factor():
    start = time.perf_counter()
    assert falling_factorial(2, 10**9) == 0
    assert ctilde(3, 10**9) == 0
    assert time.perf_counter() - start < 0.1


def test_stirling2_oracle():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 5) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=8))
def test_stirling2_row_sums_are_bell(s):
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert sum(stirling2(s, k) for k in range(s + 1)) == bell[s]


# -- partitions -----------------------------------------------------------------


def test_partitions_oracle():
    parts = [mu.parts for mu in partitions(4, 2)]
    assert parts == [(4,), (1, 3), (2, 2)]
    parts3 = [mu.parts for mu in partitions(3, 3)]
    assert parts3 == [(3,), (1, 2), (1, 1, 1)]


def test_partitions_validation():
    with pytest.raises(ValueError):
        partitions(0, 2)
    with pytest.raises(ValueError):
        partitions(2, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=10))
def test_partition_count_matches_enumeration(d, n):
    assert partition_count(d, n) == len(partitions(d, n))


@pytest.mark.parametrize("d", [500, 5000])
def test_partition_count_large_d(d):
    # beyond the depth a recursion on d would reach
    assert partition_count(d, 2) == d // 2 + 1


class _Reached(Exception):
    pass


@pytest.mark.parametrize("n,d,count", [
    (2, 2 * MAX_PARTITIONS - 1, MAX_PARTITIONS),
    (2, 2 * MAX_PARTITIONS, MAX_PARTITIONS + 1),
    (3, 1092, 99919),  # round((d + 3)^2 / 12)
    (3, 1093, 100101),
    (45, 45, 89134),  # p(45) and p(46)
    (10**9, 46, 105558),
])
def test_partition_limit_edge(monkeypatch, n, d, count):
    # at most MAX_PARTITIONS partitions reach the enumeration; more are
    # rejected first
    def enumerate_(*args):
        raise _Reached

    monkeypatch.setattr(enumerative, "partitions", enumerate_)
    if count <= MAX_PARTITIONS:
        with pytest.raises(_Reached):
            discriminant_budget(n, d)
    else:
        with pytest.raises(ProblemTooLarge, match="the limit is MAX_PARTITIONS = 100000"):
            discriminant_budget(n, d)


@pytest.mark.parametrize("n,d", [(2, 10**9), (10**9, 10**9), (3, 2 * MAX_PARTITIONS - 2),
                                 (10**9, 2 * MAX_PARTITIONS - 2), (80, 80)])
def test_partition_limit_answers_fast(n, d):
    start = time.perf_counter()
    with pytest.raises(ProblemTooLarge):
        discriminant_budget(n, d)
    assert time.perf_counter() - start < 0.5


# -- degree formulas ---------------------------------------------------------------


def test_deg_kalman_oracle():
    rep = deg_kalman(3, 1, 1)
    assert rep == {"degree": 1 * math.comb(3, 0), "codimension": 2}
    assert deg_kalman(4, 2, 3) == {"degree": 3 * 4, "codimension": 2}
    with pytest.raises(ValueError):
        deg_kalman(3, 3, 1)


@pytest.mark.parametrize(
    "n,d,mu,expect",
    [
        (5, 9, (1, 2, 2, 4), 1080),
        (3, 2, (2,), 6),
        (3, 2, (1, 1), 6),
        (3, 3, (3,), 9),
        (3, 3, (1, 2), 18),
        (3, 3, (1, 1, 1), 3),
        (2, 2, (2,), 2),
        (2, 2, (1, 1), 1),
    ],
)
def test_deg_mu_oracle(n, d, mu, expect):
    assert deg_mu_kalman(n, d, mu) == expect


def test_deg_mu_validation():
    with pytest.raises(ValueError):
        deg_mu_kalman(2, 3, (1, 1, 1))  # more parts than n
    with pytest.raises(ValueError):
        deg_mu_kalman(3, 3, (1, 1))  # wrong total


def test_deg_mu_both_forms_agree_sweep():
    # the formula evaluates two independent closed forms and raises if
    # they ever disagree; sweep everything up to n, d <= 8
    for n in range(2, 9):
        for d in range(1, 9):
            for mu in partitions(d, n):
                deg_mu_kalman(n, d, mu)


def test_multinomial_budget_term():
    assert multinomial_budget_term(3, PartitionType((2,))) == 3
    assert multinomial_budget_term(3, PartitionType((1, 1))) == 3
    assert multinomial_budget_term(2, PartitionType((1, 1))) == 1


# -- discriminant budget ---------------------------------------------------------------


def test_budget_3_2_values():
    rep = discriminant_budget(3, 2)
    assert rep.values["N"] == 6
    assert rep.values["deg_det_K_d"] == 30
    assert rep.values["deg_Delta_d"] == 60
    assert rep.values["k_multiplicity_of_Delta"] == 4
    assert rep.values["deg_sqrt_Delta_d_sat"] == 18
    assert rep.values["sum_mu_deg_p_mu"] == 12
    assert rep.values["deg_p_(2)"] == 6
    assert rep.values["deg_p_(1,1)"] == 6
    assert rep.values["detA_multiplicity"] == 3


def test_budget_2_2_values():
    rep = discriminant_budget(2, 2)
    assert rep.values["deg_det_K_d"] == 6
    assert rep.values["deg_sqrt_Delta_d_sat"] == 3
    assert rep.values["deg_p_(2)"] == 2
    assert rep.values["deg_p_(1,1)"] == 1


def test_budget_3_3_values():
    rep = discriminant_budget(3, 3)
    assert rep.values["deg_det_K_d"] == 135
    assert rep.values["deg_sqrt_Delta_d_sat"] == 105
    assert rep.values["sum_mu_deg_p_mu"] == 30


def test_budget_identities_sweep():
    # the constructor itself asserts the budget identity and the
    # monomial-count identity; sweep the advertised range
    for n in range(2, 7):
        for d in range(1, 7):
            rep = discriminant_budget(n, d)
            vals = rep.values
            assert vals["deg_det_K_d"] == vals["deg_sqrt_Delta_d_sat"] + vals["sum_mu_deg_p_mu"]
            assert vals["sum_mu_multinomial"] == vals["N"]


def test_detA_multiplicity_values():
    assert detA_multiplicity(2, 2) == 1
    assert detA_multiplicity(3, 2) == 3
    # n = 3 closed form 3*C(d+3,5)
    for d in range(1, 8):
        assert detA_multiplicity(3, d) == 3 * math.comb(d + 3, 5)



def test_detA_multiplicity_matches_the_double_sum():
    def double_sum(n, d):
        b = [math.comb(d - t + n - 2, d - t) for t in range(d + 1)]
        return sum(b[t] * (Fraction(t, 2) * (b[t] - 1) + sum(b[i] * i for i in range(1, t)))
                   for t in range(1, d + 1))

    for n in range(2, 7):
        for d in range(1, 12):
            assert detA_multiplicity(n, d) == double_sum(n, d), (n, d)


# -- singular locus degrees ----------------------------------------------------------------


def test_sing_degrees_oracles():
    assert sing_degrees("hyperplane_union", 3, d=2).values["degree"] == 11
    assert sing_degrees("smooth_hypersurface", 3, d=2).values["degree"] == 10
    for d in range(1, 9):
        assert sing_degrees("smooth_hypersurface", 3, d=d).values["degree"] == d * (4 * d - 3)
    assert sing_degrees("smooth_hypersurface", 6, d=2).values["degree"] == 335


def test_sing_degrees_general_formulas():
    assert sing_degrees("pairwise", 3).values["degree"] == 8
    assert sing_degrees("pairwise", 4, deg_x1=2, deg_x2=3).values["degree"] == (36 - 4) * 6
    assert sing_degrees("self", 3).values["degree"] == 1
    assert sing_degrees("self", 4).values["degree"] == 7


def test_sing_degrees_integrality_sweep():
    for n in range(3, 13):
        for kind in ("pairwise", "self"):
            assert isinstance(sing_degrees(kind, n).values["degree"], int)
        for d in range(1, 7):
            for kind in ("hyperplane_union", "smooth_hypersurface"):
                assert isinstance(sing_degrees(kind, n, d=d).values["degree"], int)


def test_sing_degrees_codimension_flag():
    rep = sing_degrees("self", 5)
    assert rep.values["codimension"] == 2


def test_sing_degrees_validation():
    with pytest.raises(ValueError):
        sing_degrees("hyperplane_union", 3)  # missing d
    with pytest.raises(ValueError):
        sing_degrees("no-such-kind", 3, d=1)


# -- chow coefficient forms ---------------------------------------------------------


def test_ctilde_values():
    assert ctilde(3, 1) == 3
    assert ctilde(3, 2) == 6
    assert ctilde(3, 3) == 6
    assert ctilde(2, 1) == 1
    assert ctilde(2, 2) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=12))
def test_ctilde_forms_agree(n, s):
    if s > n:
        return
    lhs = ctilde(n, s)
    assert lhs == ctilde_stirling_form(n, s)
    assert lhs == math.comb(n, 2) * falling_factorial(n - 1, s - 1)


def test_grassmannian_quadric_note():
    rep = grassmannian_quadric_note()
    assert isinstance(rep, DegreeReport)
    assert rep.values  # carries at least one named value


# -- reports and table ---------------------------------------------------------------


def test_degree_report_json():
    rep = discriminant_budget(2, 2)
    obj = rep.to_json_obj()
    assert obj["params"] == {"n": 2, "d": 2}
    assert obj["values"]["deg_det_K_d"] == 6


def test_degrees_table_covers_cited_values():
    table = degrees_table()
    vals = {(r["family"], r["case"], r["params"]): r["value"] for r in table}
    assert vals[("mu_degree", "(1,2,2,4)", "n=5;d=9")] == 1080
    assert vals[("mu_degree", "(1,1)", "n=3;d=2")] == 6
    assert vals[("mu_degree", "(2)", "n=3;d=2")] == 6
    assert vals[("budget", "deg_det_K_d", "n=3;d=2")] == 30
    assert vals[("budget", "deg_sqrt_Delta_d_sat", "n=3;d=2")] == 18
    assert vals[("budget", "k_multiplicity_of_Delta", "n=2;d=2")] == 3
    assert vals[("budget", "k_multiplicity_of_Delta", "n=3;d=2")] == 4
    assert vals[("budget", "k_multiplicity_of_Delta", "n=2;d=3")] == 6
    assert vals[("sing_degree", "two_lines", "n=3;d=2")] == 11
    assert vals[("sing_degree", "smooth_conic", "n=3;d=2")] == 10
    assert vals[("sing_degree", "quadric_P5", "n=6;d=2")] == 335
    assert vals[("ctilde", "s3_n3", "n=3;s=3")] == 6
    assert vals[("conic_equation", "g2_terms", "f=x2^2-x1*x3")] == 138
    assert vals[("conic_equation", "g2_generic_terms", "f=generic")] == 2832
    assert vals[("conic_equation", "g2_generic_a_degree", "f=generic")] == 6
    assert vals[("conic_equation", "g2_generic_b_degree", "f=generic")] == 3
    assert vals[("spectral", "Delta_2_at_diag_1_2", "n=2;d=2")] == 36


def test_degrees_table_csv_parses_back():
    import csv
    import io

    text = degrees_table_csv()
    assert text.splitlines()[0] == "family,case,value,params"
    rows = list(csv.DictReader(io.StringIO(text)))
    table = degrees_table()
    assert len(rows) == len(table)
    for got, want in zip(rows, table):
        assert got["family"] == want["family"]
        assert got["case"] == want["case"]
        assert int(got["value"]) == want["value"]


def test_degrees_table_csv_golden():
    import pathlib

    golden = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "degrees_table.csv"
    assert golden.read_text() == degrees_table_csv()
