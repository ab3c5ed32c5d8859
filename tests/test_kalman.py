"""Kalman matrices, determinants, vanishing orders, factorization audit."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kalmanvar.kalman as kalman
import kalmanvar.polycore as polycore
from conftest import generic_with, matrices
from kalmanvar.enumerative import detA_multiplicity, discriminant_budget, partitions
from kalmanvar.kalman import (
    MAX_AUDIT_WORK,
    MAX_DET_N,
    MAX_KALMAN_TERMS,
    MAX_LINE_DELTA_WORK,
    MAX_LINE_DET_WORK,
    KalmanInstance,
    LineRestrictionZero,
    ProblemTooLarge,
    RankDeficientC,
    check_kalman_matrix_size,
    delta_at,
    delta_d_at,
    factor_order_along_line,
    factorization_audit,
    kalman_det,
    kalman_matrix,
    kalman_matrix_at,
    membership_necessary,
)
from kalmanvar.polycore import Polynomial, a_universe, parse_polynomial, x_universe
from kalmanvar.polymatrix import (DimensionMismatch, NonSquareMatrix, PolyMatrix, qmat_det, qmat_mul,
                                  qmat_rank)
from kalmanvar.salmon import kalman_conic_equation
from kalmanvar.veronese import basis_size, polarize, sym_power_scalar
from kalmanvar.witness import (
    NoStrategy,
    SingularV,
    UnsupportedPartition,
    collision_eigenvalues,
    derive_seed,
    matrix_with_eigenvectors,
    mu_witness,
    random_invertible,
    rho_simple_eigenvalues,
    special_locus_matrix,
)

F22 = parse_polynomial("x1^2 - x2^2", x_universe(2))
F32 = parse_polynomial("x2^2 - x1*x3", x_universe(3))
F23 = parse_polynomial("x1^3 - x2^3", x_universe(2))


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


# -- instance validation ------------------------------------------------------


def test_instance_from_form():
    inst = KalmanInstance.from_form(F32)
    assert (inst.n, inst.d, inst.p, inst.N) == (3, 2, 1, 6)
    assert inst.C == ((0, 0, -1, 1, 0, 0),)


def test_instance_from_generators():
    f1 = parse_polynomial("x1^2", x_universe(3))
    f2 = parse_polynomial("x2^2", x_universe(3))
    inst = KalmanInstance.from_generators([f1, f2])
    assert inst.p == 2 and inst.N == 6


def test_instance_validation_errors():
    with pytest.raises(RankDeficientC):
        KalmanInstance(2, 2, ((1, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        KalmanInstance(2, 2, ((1, 0),))  # wrong width
    with pytest.raises(ValueError):
        KalmanInstance(2, 1, ((1, 0), (0, 1), (1, 1)))  # p > N


# -- matrix structure ----------------------------------------------------------


def test_kalman_matrix_shape_and_blocks():
    inst = KalmanInstance.from_form(F32)
    A = PolyMatrix.generic(3)
    K = kalman_matrix(inst, A)
    assert K.nrows == 6 and K.ncols == 6
    # block i is homogeneous of degree d*i in the matrix entries
    for i in range(6):
        h = K.rows[i][0].is_homogeneous() if not K.rows[i][0].is_zero() else None
        degs = {
            e.is_homogeneous() for e in K.rows[i] if not e.is_zero()
        }
        assert degs <= {2 * i}, (i, degs)


def test_kalman_matrix_first_block_is_C():
    inst = KalmanInstance.from_form(F22)
    A = PolyMatrix.generic(2)
    K = kalman_matrix(inst, A)
    assert [e.constant_value() for e in K.rows[0]] == list(inst.C[0])


def test_kalman_matrix_rectangular():
    f1 = parse_polynomial("x1^2", x_universe(3))
    f2 = parse_polynomial("x2^2", x_universe(3))
    inst = KalmanInstance.from_generators([f1, f2])
    A = PolyMatrix.generic(3)
    K = kalman_matrix(inst, A)
    # p(N - p + 1) x N
    assert K.nrows == 2 * 5 and K.ncols == 6


@settings(max_examples=25, deadline=None)
@given(matrices(2))
def test_symbolic_matches_numeric(A0):
    inst = KalmanInstance.from_form(F22)
    A = PolyMatrix.generic(2)
    K = kalman_matrix(inst, A)
    flat = tuple(x for row in A0 for x in row)
    sym_vals = [[e.evaluate(flat) for e in row] for row in K.rows]
    _assert_same_entries(kalman_matrix_at(inst, A0), sym_vals)


def _assert_same_entries(got, want):
    assert got == want
    assert [[type(x) for x in r] for r in got] == [[type(x) for x in r] for r in want]


def _kalman_matrix_at_fractions(inst, A0):
    """Reference: the rational product loop block <- block * rho_d(A0)."""
    R = sym_power_scalar(A0, inst.d)
    block = [list(r) for r in inst.C]
    rows = [list(r) for r in block]
    for _ in range(inst.N - inst.p):
        block = qmat_mul(block, R)
        rows.extend(list(r) for r in block)
    return rows


def _test_matrices(rng, n):
    """An integer matrix, a rational one whose entries have pairwise
    different denominators, and a singular rational one."""
    ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    dens = rng.sample(range(2, n * n + 2), n * n)
    fracs = []
    for i in range(n):
        row = []
        for j in range(n):
            den = dens[i * n + j]
            num = rng.choice([k for k in range(-9, 10) if math.gcd(k, den) == 1])
            row.append(Fraction(num, den))
        fracs.append(row)
    singular = [list(r) for r in fracs]
    singular[-1] = [Fraction(-3, 2) * x for x in singular[0]]
    assert qmat_det(singular) == 0
    return ints, fracs, singular


def _random_instance(rng, n, d):
    """The single-form instance of four random terms minus x_n^d."""
    terms = " + ".join(f"{rng.randint(1, 9)}*" + "*".join(f"x{rng.randint(1, n)}" for _ in range(d))
                       for _ in range(4))
    return KalmanInstance.from_form(parse_polynomial(f"{terms} - x{n}^{d}", x_universe(n)))


SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]


@pytest.mark.parametrize("n,d", SIZES)
def test_kalman_matrix_at_matches_fraction_products(n, d):
    rng = random.Random(100 * n + d)
    inst = _random_instance(rng, n, d)
    for A0 in _test_matrices(rng, n):
        _assert_same_entries(kalman_matrix_at(inst, A0), _kalman_matrix_at_fractions(inst, A0))


# the forms of the benchmark's audit workload (perfbench/workloads.py)
AUDIT_FORMS = [
    ("x1^3 - x2*x3^2 + x4^3", 4),
    ("x2^3 - x1^2*x3", 3),
    ("x2^2 - x1*x3", 3),
    ("x1^2 + x2*x3 - x4^2", 4),
    ("x1^3 + x2^3 - x3^3 + x1*x2*x3", 3),
]


@pytest.mark.parametrize("form,n", [
    ("x1^2 - 3*x1*x2 + 2*x2^2", 2),
    ("x1^3 + 2*x1*x2^2 - x2^3", 2),
    ("x1^3 - x2^3 + x1*x2*x3", 3),
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", 3),
] + AUDIT_FORMS)
def test_kalman_det_at_matches_eigen_product(form, n):
    # _eigen_det's closed form against the determinant of the Kalman matrix
    # at A = V diag(lams) V^-1, value and type: generic draws with integer V
    # and with a column over 7, collision spectra and every mu-witness (whose
    # V holds the Fraction columns of its vectors)
    f = parse_polynomial(form, x_universe(n))
    inst = KalmanInstance.from_form(f)
    d = inst.d
    rng = random.Random(inst.N)
    generic = []
    for k in range(4):
        V = random_invertible(rng, n)
        if k % 2:
            V = [[Fraction(x, 7) if j == 0 else x for j, x in enumerate(r)] for r in V]
        generic.append((V, rho_simple_eigenvalues(rng, n, d)))
    vanishing = [(random_invertible(rng, n), collision_eigenvalues(rng, n, d)) for _ in range(2)]
    witnesses = []
    for mu in partitions(d, n):
        try:
            w = mu_witness(f, mu, seed=inst.N)
        except (UnsupportedPartition, NoStrategy):
            continue
        witnesses.append((w.V, w.eigenvalues))
    assert any(type(x) is Fraction for V, _ in witnesses for r in V for x in r)
    values = []
    for V, lams in generic + vanishing + witnesses:
        want = qmat_det(kalman_matrix_at(inst, matrix_with_eigenvectors(V, lams)))
        got = kalman._eigen_det(inst, V, lams)
        assert got == want and type(got) is type(want)
        assert kalman._eigen_det(inst, V, lams, kalman._form_at_columns(inst, V)) == want
        values.append(want)
    assert sum(v != 0 for v in values[:len(generic)]) >= 3
    assert values[len(generic):] == [0] * (len(vanishing) + len(witnesses))


def test_eigen_det_rejects_singular_v_and_two_forms():
    inst = KalmanInstance.from_form(F32)
    with pytest.raises(SingularV, match="singular"):
        kalman._eigen_det(inst, [[1, 2, 3], [2, 4, 6], [0, 0, 1]], [1, 2, 5])
    with pytest.raises(DimensionMismatch):
        kalman._eigen_det(inst, [[1, 0], [0, 1]], [1, 2])
    u = x_universe(3)
    two = KalmanInstance.from_generators([parse_polynomial("x1^2 - x2*x3", u),
                                          parse_polynomial("x1*x2 + 3/2*x3^2", u)])
    with pytest.raises(NonSquareMatrix, match="needs a single form"):
        kalman._eigen_det(two, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 5])


def _polarizations_nonzero(f, V) -> bool:
    """The generic-draw test the audit ran before it read C rho_d(V): every
    partition polarization f_mu is nonzero on every ordered tuple of s
    distinct columns of V."""
    n = len(V)
    cols = list(zip(*V))
    for mu in partitions(f.is_homogeneous(), n):
        fmu = polarize(f, mu)
        for idx in itertools.permutations(range(n), mu.s):
            if fmu.evaluate([x for i in idx for x in cols[i]]) == 0:
                return False
    return True


@pytest.mark.parametrize("form,n", [
    ("x1^2 - x2^2", 2),
    ("x1^4 - x2^4 + x1*x2^3", 2),
    ("3/2*x1^2 - x2*x3 + 1/3*x3^2", 3),
] + AUDIT_FORMS)
def test_generic_draw_test_matches_polarizations(form, n):
    # all(C rho_d(V)) decides a draw exactly as the polarizations do; the
    # draws with a witness's columns, in a shuffled order, lie on the locus,
    # and small entries hit it by chance
    f = parse_polynomial(form, x_universe(n))
    inst = KalmanInstance.from_form(f)
    rng = random.Random(n * inst.d)
    draws = [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in range(40)]
    draws += [random_invertible(rng, n) for _ in range(5)]
    for k, mu in enumerate(partitions(inst.d, n)):
        try:
            V = mu_witness(f, mu, seed=k).V
        except (UnsupportedPartition, NoStrategy):
            continue
        order = rng.sample(range(n), n)
        draws.append([[r[j] for j in order] for r in V])
    outcomes = [all(kalman._form_at_columns(inst, V)) for V in draws]
    assert outcomes == [_polarizations_nonzero(f, V) for V in draws]
    assert True in outcomes and False in outcomes


def test_kalman_matrix_at_matches_fraction_products_two_forms():
    u = x_universe(3)
    inst = KalmanInstance.from_generators([parse_polynomial("x1^2 - x2*x3", u),
                                           parse_polynomial("x1*x2 + 3/2*x3^2", u)])
    assert inst.p == 2 and any(isinstance(x, Fraction) for x in inst.C[1])
    for A0 in _test_matrices(random.Random(7), 3):
        _assert_same_entries(kalman_matrix_at(inst, A0), _kalman_matrix_at_fractions(inst, A0))


# -- determinant ----------------------------------------------------------------


def test_kalman_det_2_2_degree_and_budget():
    det = kalman_det(F22)
    budget = discriminant_budget(2, 2)
    assert det.is_homogeneous() == budget.values["deg_det_K_d"] == 6


def test_kalman_det_via_dimensions():
    # n is the size of the form's universe and d its degree; neither is
    # passed
    assert kalman._form_nd(F22) == (2, 2)
    assert kalman._form_nd(parse_polynomial("x1^2 - x2^2", x_universe(3))) == (3, 2)
    assert kalman_det(F22).u == a_universe(2)
    with pytest.raises(TypeError):
        kalman_det(F22, 2, 2)


def test_kalman_det_cache_is_lru(monkeypatch):
    monkeypatch.setattr(kalman, "_DET_CACHE", OrderedDict())
    size = kalman._DET_CACHE_SIZE
    others = [parse_polynomial(f"x1^2 + {k}*x1*x2 - x2^2", x_universe(2))
              for k in range(1, 2 * size + 1)]
    first = kalman_det(F22)
    for g in others[:size - 1]:
        kalman_det(g)
    assert kalman_det(F22) is first  # a hit makes F22 the most recent entry
    kalman_det(others[size - 1])
    assert len(kalman._DET_CACHE) == size
    assert kalman_det(F22) is first
    for g in others[size:]:
        kalman_det(g)
    assert len(kalman._DET_CACHE) == size
    again = kalman_det(F22)
    assert again is not first and again == first


@pytest.mark.parametrize("form", [
    "x1^4 + 300*x1*x2^3 - 200*x2^4",  # uncertified products split into int64 limbs
    "x1^4 + 500*x1*x2^3 - 400*x2^4",  # products past 2**62: exact Python ints
])
def test_kalman_det_uncertified_products_match_dict_loop(monkeypatch, form):
    f = parse_polynomial(form, x_universe(2))
    uncertified = []
    kernel = polycore._np_mul

    def counted(triples):
        bound = 0
        for _, p, q in triples:
            (l1p, lip, _), (l1q, liq, _) = p._norm_info(), q._norm_info()
            bound += min(l1p * liq, lip * l1q)
        out = kernel(triples)
        uncertified.append(bound >= 2**62 and out is not None)
        return out

    # the plain Krylov determinant: kalman_det's route has no uncertified
    # sum on the first form
    inst, A = KalmanInstance.from_form(f), PolyMatrix.generic(2)
    monkeypatch.setattr(polycore, "_np_mul", counted)
    with_numpy = kalman_matrix(inst, A).det()
    assert any(uncertified)
    monkeypatch.setattr(polycore, "_np", None)
    assert kalman_matrix(inst, A).det() == with_numpy


def test_portable_path_matches_numpy_on_a_dehomogenized_conic(monkeypatch):
    # K_2 of x2^2 - x1*x3 with diag(A) = (1, -1, 1) and a12 = 2: five variables
    # left, so the cofactor DP runs, and the division by g2 recurses
    f = parse_polynomial("x2^2 - x1*x3", x_universe(3))
    u = a_universe(3)
    fixed = {"a11": 1, "a22": -1, "a33": 1, "a12": 2}
    K = kalman_matrix(KalmanInstance.from_form(f), generic_with(fixed))
    g2 = kalman_conic_equation(f).convert(u).specialize(fixed)
    kernel_sums = []
    kernel = polycore._np_mul
    monkeypatch.setattr(polycore, "_np_mul", lambda triples: kernel_sums.append(len(triples))
                        or kernel(triples))
    det = K.det()
    quotient = det.exact_div(g2)
    assert max(kernel_sums) > 1  # the DP summed several products in one kernel call
    monkeypatch.setattr(polycore, "_np", None)
    portable = K.det()
    assert portable.terms == det.terms
    assert all(type(c) is int for c in portable.terms.values())
    assert portable.exact_div(g2).terms == quotient.terms
    assert g2 * quotient == det


def test_dehomogenized_conic_det_peak_memory():
    # the benchmark's conic: K_2 of x2^2 - x1*x3 with a11 = a33 = 1, whose
    # determinant (124,815 terms, 11.9 MB traced) ends in one 57M-pair kernel
    # call.  Its traced peak is 29.5 MB with pair buffers of 2**16 pairs;
    # buffers of 2**21 pairs took it to 70.1 MB.  40 MB leaves a third over
    # the measured peak.
    f = parse_polynomial("x2^2 - x1*x3", x_universe(3))
    fixed = {"a11": 1, "a33": 1}
    K = kalman_matrix(KalmanInstance.from_form(f), generic_with(fixed))
    tracemalloc.start()
    try:
        det = K.det()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(det.terms) == 124815
    assert peak < 40 * 2**20


def test_dehomogenized_conic_division_work_and_peak_memory(dehomogenized_conic, monkeypatch):
    # dividing that determinant by g2 forms each remainder slice once, from
    # its dividend slice and the products it is owed: the kernel takes at
    # most the pairs of quotient * g2 plus one pair per dividend term, and
    # the count repeats exactly.  Traced peaks: 12.5 MB for the division
    # (14.3 MB with the slices edited in place) and 13.7 MB for printing,
    # of which the text is 4.9 MB.  16 and 17 MB leave a quarter over them;
    # an exponent matrix of the whole dividend adds 9 MB, and a list of
    # every term's text about as much.
    det, g2 = dehomogenized_conic
    pairs = []
    kernel = polycore._np_mul
    monkeypatch.setattr(polycore, "_np_mul", lambda triples: pairs.append(
        sum(len(p.terms) * len(q.terms) for _, p, q in triples)) or kernel(triples))
    quotient = det.exact_div(g2)
    first, pairs[:] = sum(pairs), []
    tracemalloc.start()
    try:
        assert det.exact_div(g2) == quotient
        division_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        det.to_text()
        text_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(pairs) == first <= len(quotient.terms) * len(g2.terms) + len(det.terms)
    assert division_peak < 16 * 2**20
    assert text_peak < 17 * 2**20


class _Reached(Exception):
    pass


@pytest.mark.parametrize("text,n,N", [
    ("x1^6 + 2*x1*x2^5 - 3*x2^6", 2, 7),
    ("x1^7 + 2*x1*x2^6 - 3*x2^7", 2, 8),
    ("x1 + x2 + x3 + x4 + x5 + x6 - x7", 7, 7),
    ("x1 + x2 + x3 + x4 + x5 + x6 + x7 - x8", 8, 8),
    ("x1^2 + x2^2 + x3^2 + x4^2", 4, 10),
])
def test_kalman_det_size_limit_edge(monkeypatch, text, n, N):
    # N <= MAX_DET_N reaches the Krylov-row build; a larger N is rejected first
    def build(*args):
        raise _Reached

    monkeypatch.setattr(kalman, "_krylov_rows", build)
    f = parse_polynomial(text, x_universe(n))
    if N <= MAX_DET_N:
        with pytest.raises(_Reached):
            kalman_det(f)
    else:
        with pytest.raises(ProblemTooLarge, match=f"N = {N}; the limit is MAX_DET_N = 7"):
            kalman_det(f)


@pytest.mark.parametrize("text,n,bound", [
    ("x1^11 + 2*x1*x2^10 - x2^11", 2, 12_346_500),  # the largest accepted
    ("x1 + x2 + x3 + x4 + x5 + x6", 6, 4_496_388),
    ("x2^2 - x1*x3", 3, 361_032),
    ("x1 + x2 + x3 + x4 + x5 + x6 + x7", 7, 202_927_725),  # the smallest rejected
    ("x1^3 + x2^3 - x3^3 + x1*x2*x3", 3, 405_523_030),
])
def test_kalman_matrix_size_limit_edge(text, n, bound):
    inst = KalmanInstance.from_form(parse_polynomial(text, x_universe(n)))
    if bound <= MAX_KALMAN_TERMS:
        check_kalman_matrix_size(inst)
    else:
        with pytest.raises(ProblemTooLarge, match=f"may hold {bound} terms; "
                                                  "the limit is MAX_KALMAN_TERMS = 20000000"):
            check_kalman_matrix_size(inst)


@pytest.mark.parametrize("trials,work", [
    (22, 97_667_499),  # the most trials accepted
    (23, 101_497_597),  # the fewest rejected
])
def test_audit_size_limit_edge(monkeypatch, trials, work):
    # the quinary quintic: N = 126, d = 5 and 7 partitions, so the work is
    # (7 + 2 * trials) * (4096 + 5 * 5 * 126^2 + (5 * C(126, 2))^2 // 1024)
    def budget(*args):
        raise _Reached

    monkeypatch.setattr(kalman, "discriminant_budget", budget)
    f = parse_polynomial("x1^5 + x2^5 + x3^5 + x4^5 + x5^5", x_universe(5))
    if work <= MAX_AUDIT_WORK:
        with pytest.raises(_Reached):
            factorization_audit(f, trials=trials)
    else:
        with pytest.raises(ProblemTooLarge, match=f"may take {work} units of work; "
                                                  "the limit is MAX_AUDIT_WORK = 100000000"):
            factorization_audit(f, trials=trials)


def test_kalman_matrix_exponents_checked_up_front():
    # the last block of K_12 of a binary form has degree 12 * 12 = 144 > 127
    inst = KalmanInstance.from_form(parse_polynomial("x1^12 + x2^12", x_universe(2)))
    with pytest.raises(polycore.ExponentOverflow, match="7-bit field"):
        check_kalman_matrix_size(inst)


def test_accepted_determinants_fit_the_exponent_field():
    # N grows with n and d, so for n >= 2 every accepted (n, d) lies in the
    # box below; for n = 1, N = 1 and the determinant is constant
    assert basis_size(2, MAX_DET_N) > MAX_DET_N
    assert basis_size(MAX_DET_N + 1, 1) > MAX_DET_N
    accepted = [(n, d) for n in range(1, MAX_DET_N + 1) for d in range(1, MAX_DET_N + 1)
                if basis_size(n, d) <= MAX_DET_N]
    assert (2, 6) in accepted and (3, 2) in accepted and (7, 1) in accepted
    for n, d in accepted:
        # deg det K_d = d * C(N, 2) bounds every exponent of every minor
        a_universe(n).check_product_exponent(d * math.comb(basis_size(n, d), 2))


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "portable"])
@pytest.mark.parametrize("form,n,fixed,k", [
    ("x1 + 2*x2 - 3*x3", 3, None, 0),
    ("x1^2 - 3*x1*x2 + 2*x2^2", 2, None, 1),
    ("x1^3 + 2*x1*x2^2 - x2^3", 2, None, 2),
    ("x1^4 + 300*x1*x2^3 - 200*x2^4", 2, None, 2),
    ("x2^2 - x1*x3", 3, {"a11": 1, "a22": -1, "a33": 1, "a12": 2}, 2),
    ("x1^5 + 2*x1*x2^4 - x2^5", 2, None, 3),
])
def test_kalman_det_identity_matches_the_krylov_determinant(monkeypatch, form, n, fixed, k, numpy):
    # det K from k rows of rho_d(adj A) and det(A)^E, before normalization so
    # that a sign slip shows, against the plain Krylov determinant (numpy)
    inst = KalmanInstance.from_form(parse_polynomial(form, x_universe(n)))
    assert kalman._inverse_split(n, inst.d)[0] == k
    A = PolyMatrix.generic(n) if fixed is None else generic_with(fixed)
    want = kalman_matrix(inst, A).det()
    if not numpy:
        monkeypatch.setattr(polycore, "_np", None)
    assert kalman._kalman_det_of(inst, A) == want


def test_kalman_det_of_a_univariate_form_is_one():
    # n = 1: N = 1 and K = [C], so k is capped at N - 1 = 0
    f = parse_polynomial("2*x1^3", x_universe(1))
    assert kalman._inverse_split(1, 3) == (0, 0, 1)
    assert kalman_det(f) == Polynomial.const(a_universe(1), 1)


def test_identity_power_of_det_a_is_at_most_its_multiplicity():
    # det(A)^E divides det K, so E is at most the multiplicity of det A as a
    # factor of det K; k maximizes E over 0..N-1
    accepted = [(n, d) for n in range(1, MAX_DET_N + 1) for d in range(1, MAX_DET_N + 1)
                if basis_size(n, d) <= MAX_DET_N]
    for n, d in accepted:
        N = basis_size(n, d)
        E = kalman._inverse_split(n, d)[1]
        assert E == max(j * math.comb(n + d - 1, d - 1) - d * j * (j + 1) // 2
                        for j in range(N))
        if n == 1:
            assert E == 0  # the multiplicity formula needs n >= 2
        else:
            assert E <= detA_multiplicity(n, d)
    assert kalman._inverse_split(2, 6) == (3, 27, -1)


def test_kalman_det_reaches_the_five_term_binary_sextic():
    # det K_6 (N = 7, degree 126) against the determinant of the Kalman
    # matrix at three seeded rational points M / c, M integral: det K is
    # homogeneous, so its value there is its value at M over c^126
    f = parse_polynomial("x1^6 + 2*x1^5*x2 - 3*x1^3*x2^3 + x1*x2^5 - 5*x2^6", x_universe(2))
    det = kalman_det(f)
    inst = KalmanInstance.from_form(f)
    rng = random.Random(6)
    ratios = set()
    for _ in range(3):
        M = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
        c = rng.randint(2, 5)
        value = Fraction(det.evaluate([x for r in M for x in r]), c ** 126)
        assert value != 0
        ratios.add(qmat_det(kalman_matrix_at(inst, [[Fraction(x, c) for x in r] for r in M])) / value)
    assert len(ratios) == 1 and 0 not in ratios  # the canonical constant


def test_kalman_det_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        kalman_det(parse_polynomial("x1^2 + x2", x_universe(2)))


def test_kalman_det_vanishes_on_eigenpoint_witness():
    # an eigenvector on V(f) forces the determinant to vanish
    det = kalman_det(F22)
    A = matrix_with_eigenvectors([[1, 1], [2, 1]], [3, 5])  # (1,1) lies on V(x1^2-x2^2)
    flat = tuple(x for row in A for x in row)
    assert det.evaluate(flat) == 0


def test_kalman_det_nonzero_at_generic_point():
    det = kalman_det(F22)
    A = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
    flat = tuple(x for row in A for x in row)
    # eigenvectors of A avoid V(f): value must be nonzero
    assert det.evaluate(flat) != 0


# -- membership test ---------------------------------------------------------------


def test_membership_necessary():
    inst = KalmanInstance.from_form(F22)
    assert membership_necessary(inst, frac_rows(matrix_with_eigenvectors([[1, 1], [2, 1]], [3, 5])))
    generic = frac_rows([[1, 2], [3, 5]])
    assert not membership_necessary(inst, generic)


def test_membership_necessary_pencil():
    f1 = parse_polynomial("x1^2", x_universe(3))
    f2 = parse_polynomial("x2^2", x_universe(3))
    inst = KalmanInstance.from_generators([f1, f2])
    # eigenvector (0,0,1) lies on V(x1^2, x2^2)
    V = [[0, 0, 1], [0, 1, 1], [1, 1, 1]]
    assert membership_necessary(inst, frac_rows(matrix_with_eigenvectors(V, [2, 3, 5])))


# -- spectral discriminants ----------------------------------------------------------


def test_delta_oracles():
    assert delta_at(frac_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])) == 4
    assert delta_at(frac_rows([[1, 1], [0, 1]])) == 0
    assert delta_d_at(frac_rows([[1, 0], [0, 2]]), 2) == 36


@settings(max_examples=30, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_delta2_identity_n2(l1, l2):
    # Delta_2 = Delta^3 * (l1*l2*(l1+l2))^2 on diagonal 2x2 matrices
    A = frac_rows([[l1, 0], [0, l2]])
    delta = delta_at(A)
    assert delta_d_at(A, 2) == delta ** 3 * Fraction(l1 * l2 * (l1 + l2)) ** 2


# -- vanishing orders along lines ------------------------------------------------------


def _line_through(kind: str, n: int, seed: int):
    loc = special_locus_matrix(kind, n, seed=seed)
    rng = random.Random(seed + 77)
    return frac_rows(loc["A"]), frac_rows(random_invertible(rng, n))


@pytest.mark.parametrize(
    "n,d,k",
    [(2, 2, 3), (3, 2, 4), (2, 3, 6)],
)
def test_multiplicity_of_delta_in_delta_d(n, d, k):
    A0, A1 = _line_through("repeated_eigenvalue_jordan", n, seed=5)
    assert factor_order_along_line("delta", A0, A1) == 1
    assert factor_order_along_line("delta_d", A0, A1, d=d) == k


def test_det_order_at_rank_deficient():
    A0, A1 = _line_through("rank_deficient", 3, seed=9)
    ord_det = factor_order_along_line("det", A0, A1, f=F32)
    assert ord_det == detA_multiplicity(3, 2) == 3


def test_det_order_at_rank_deficient_n2():
    A0, A1 = _line_through("rank_deficient", 2, seed=3)
    assert factor_order_along_line("det", A0, A1, f=F22) == detA_multiplicity(2, 2) == 1


def _linear_form(n: int) -> str:
    return " + ".join(f"x{i}" for i in range(1, n + 1))


@pytest.mark.parametrize("text,n,work", [
    ("x2^2 - x1*x3", 3, 180),
    ("x1^9 + x2^9", 2, 4050),
    (_linear_form(21), 21, 4410),  # the largest accepted
    (_linear_form(22), 22, 5082),  # the smallest rejected
    ("x1^10 + x2^10", 2, 6050),
])
def test_line_det_size_limit_edge(monkeypatch, text, n, work):
    # work N * d*C(N, 2) <= MAX_LINE_DET_WORK reaches the matrix build
    def build(*args):
        raise _Reached

    monkeypatch.setattr(kalman, "kalman_matrix", build)
    f = parse_polynomial(text, x_universe(n))
    A = frac_rows([[int(i == j) for j in range(n)] for i in range(n)])
    if work <= MAX_LINE_DET_WORK:
        with pytest.raises(_Reached):
            factor_order_along_line("det", A, A, f=f)
    else:
        with pytest.raises(ProblemTooLarge, match=f"takes {work} units of work; "
                                                  "the limit is MAX_LINE_DET_WORK = 5000"):
            factor_order_along_line("det", A, A, f=f)


@pytest.mark.parametrize("target,n,d,work", [
    ("delta_d", 3, 2, 360),
    ("delta_d", 2, 7, 3136),
    ("delta", 15, None, 3150),  # the largest accepted
    ("delta_d", 15, 1, 3150),
    ("delta", 16, None, 3840),  # the smallest rejected
    ("delta_d", 2, 8, 5184),
    ("delta_d", 5, 2, 6300),
])
def test_line_delta_size_limit_edge(monkeypatch, target, n, d, work):
    # work N * d*N*(N-1) <= MAX_LINE_DELTA_WORK reaches the characteristic polynomial
    def char_poly(self):
        raise _Reached

    monkeypatch.setattr(PolyMatrix, "char_poly", char_poly)
    A = frac_rows([[int(i == j) for j in range(n)] for i in range(n)])
    if work <= MAX_LINE_DELTA_WORK:
        with pytest.raises(_Reached):
            factor_order_along_line(target, A, A, d=d)
    else:
        with pytest.raises(ProblemTooLarge, match=f"takes {work} units of work; "
                                                  "the limit is MAX_LINE_DELTA_WORK = 3200"):
            factor_order_along_line(target, A, A, d=d)


def test_line_restriction_zero():
    # the pencil (1+t) I has identically vanishing discriminant
    I2 = frac_rows([[1, 0], [0, 1]])
    with pytest.raises(LineRestrictionZero):
        factor_order_along_line("delta", I2, I2)


def test_factor_order_validation():
    I2 = frac_rows([[1, 0], [0, 1]])
    J = frac_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        factor_order_along_line("det", I2, J)  # missing f
    with pytest.raises(ValueError):
        factor_order_along_line("det", I2, J, f=F22, d=2)  # d is f's degree
    with pytest.raises(ValueError):
        factor_order_along_line("delta_d", I2, J)  # missing d
    with pytest.raises(ValueError):
        factor_order_along_line("no-such-target", I2, J)


# -- factorization audit ----------------------------------------------------------------


def test_audit_passes_2_2():
    rep = factorization_audit(F22, trials=5, seed=11)
    assert rep["status"] == "pass"
    assert [a["assertion"] for a in rep["assertions"]] == [
        "degree_budget",
        "mu_witness_vanishing",
        "collision_vanishing",
        "generic_nonvanishing",
    ]
    assert all(a["status"] == "pass" for a in rep["assertions"])
    assert rep["n"] == 2 and rep["d"] == 2 and rep["trials"] == 5


def test_audit_deterministic():
    a = factorization_audit(F22, trials=4, seed=123)
    b = factorization_audit(F22, trials=4, seed=123)
    assert a == b


def test_audit_seed_changes_witnesses():
    a = factorization_audit(F22, trials=4, seed=1)
    b = factorization_audit(F22, trials=4, seed=2)
    assert a["seed"] != b["seed"]


def test_audit_passes_3_2():
    rep = factorization_audit(F32, trials=5, seed=7)
    assert rep["status"] == "pass"


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_audit_passes_cubic_without_linear_variable(seed):
    # mu = (3) needs a point on the cubic; only the integer search finds one
    f = parse_polynomial("x1^3 + x2^3 - x3^3 + x1*x2*x3", x_universe(3))
    assert factorization_audit(f, trials=20, seed=seed)["status"] == "pass"


NO_POINT = ("no linear variable, no rational root, no integer zero with every "
            "|x_i| <= 3 (searched up to 5 variables)")


@pytest.mark.parametrize("text,n,errors", [
    ("x1^3 + 2*x2^3 + 4*x3^3", 3, {(3,): NO_POINT}),
    ("x1^4 - x2^4 + x1*x2^3", 2, {
        (4,): NO_POINT,
        (2, 2): "partition (2, 2): no exact construction when the smallest part is >= 2",
    }),
])
def test_audit_reports_witness_errors(text, n, errors):
    rep = factorization_audit(parse_polynomial(text, x_universe(n)), trials=2, seed=0)
    statuses = {a["assertion"]: a["status"] for a in rep["assertions"]}
    assert statuses == {"degree_budget": "pass", "mu_witness_vanishing": "error",
                        "collision_vanishing": "pass", "generic_nonvanishing": "pass"}
    assert rep["status"] == "error"
    cases = rep["assertions"][1]["certificate"]["cases"]
    assert len(cases) > len(errors)
    for k, case in enumerate(cases):
        mu = tuple(case["mu"])
        if mu in errors:
            assert case == {"mu": list(mu), "witness_seed": derive_seed(0, 1_000_000 + k),
                            "status": "error", "reason": errors[mu]}
        else:
            assert list(case) == ["mu", "witness_seed", "status", "det_value", "certificate"]
            assert case["status"] == "pass" and case["det_value"] == "0"


def test_audit_d1_collision_note():
    f = parse_polynomial("x1 + x2", x_universe(2))
    rep = factorization_audit(f, trials=3, seed=0)
    assert rep["status"] == "pass"
    coll = [a for a in rep["assertions"] if a["assertion"] == "collision_vanishing"][0]
    assert coll["status"] == "pass"


# sha256 of the indented JSON report (as `audit --format json` prints it) of
# factorization_audit(f, trials=3, seed=seed), recorded before the audit's
# trial loops were merged and n and d were read from the form alone
AUDIT_DIGESTS = {
    ("x1^2 - x2^2", 2, 0): "42241c0e7d7938662929c2ec975be36bf01d29965452ce52e8255b255e17d162",
    ("x1^2 - x2^2", 2, 7): "84fb7cd8341c47f7c81b74a37676cdb235c6466697f640ad97ca15cb3d84ec97",
    ("x1^2 - x2^2", 2, 12345): "50e5877ab0958b71351f4bba434cc7473b360430483f06456532b2714d18d812",
    ("x2^2 - x1*x3", 3, 0): "d34fbcce7de3ce45b58ff21825b990e725bb2c643e40ab4ed42635fa4991547a",
    ("x2^2 - x1*x3", 3, 7): "cd60e82257142bffcf72327a59f7309f34057a0584bbb1cd74745e9ed6ffa552",
    ("x2^2 - x1*x3", 3, 12345): "001114f20ce2312472f4dad12a53e4c7e61981ed705203e17e5ed14f23f16dda",
    ("x1^3 - x2^3", 2, 0): "450b38e7a08cf9daa36dd62821dd99cd01d4f6521402e1472309c8a723e9f00a",
    ("x1^3 - x2^3", 2, 7): "88c4712d9a12e7a7f6e3ada82780276e828db87185b7571908d2b7b2684008b6",
    ("x1^3 - x2^3", 2, 12345): "a328daa070dd90985daeeb10ff85faca48b7ebaf7d17fe5fca90cb8de4b87e3a",
    ("x1^3 + x2^3 - x3^3 + x1*x2*x3", 3, 0): "5413fe5afb309a2513d3cd21e992189c6c2a5c5e66fd4f6ea2f0e62d9f3f5d6e",
    ("x1^3 + x2^3 - x3^3 + x1*x2*x3", 3, 7): "e0d104d6a05d36839f7bbccde762f70c56e035b309c902d5b10ad50f7cf60d0f",
    ("x1^3 + x2^3 - x3^3 + x1*x2*x3", 3, 12345): "768e1586611f38a0b52f66e09bde96fc63b4980fd08c2ad0c388f0307c1fa8d6",
    ("x1^4 - x2^4 + x1*x2^3", 2, 0): "e7fa04bd888845010928158ac124e7eb4d7e98d4e3e12bd6283570b1767397a2",
    ("x1^4 - x2^4 + x1*x2^3", 2, 7): "d261d36b4f906623bb25c6980ad2dd13e02c8b67b47066ff2feb48ee33b67460",
    ("x1^4 - x2^4 + x1*x2^3", 2, 12345): "0eef694d483f23fc54ab92931ccc25db73a766fa891ce2d2a04f7e0c570625e9",
    ("x1 + x2", 2, 0): "44538052d16bd155ad39aebd5329c1f8410207943e23c115ec608992ea12f5b6",
    ("x1 + x2", 2, 7): "c7248513d855e44ed924d2063bfc65cb702e37749f906e8ce4857a1ee39f2e1e",
    ("x1 + x2", 2, 12345): "196903e30ef95677c77d28b81503bd6257bff72f874df4e39f81a9838ee3c254",
}


@pytest.mark.parametrize("text,n,seed", list(AUDIT_DIGESTS))
def test_audit_report_is_byte_identical(text, n, seed):
    rep = factorization_audit(parse_polynomial(text, x_universe(n)), trials=3, seed=seed)
    digest = hashlib.sha256(json.dumps(rep, indent=2).encode()).hexdigest()
    assert digest == AUDIT_DIGESTS[text, n, seed]


def test_generic_draw_rejects_a_v_on_the_locus(monkeypatch):
    # the first V has the (1, 1)-witness columns, so C rho_2(V) has a zero
    on_locus = mu_witness(F32, (1, 1), seed=0).V
    generic = [[1, 2, 0], [0, 1, 3], [4, 0, 1]]
    draws = iter([on_locus, generic])
    monkeypatch.setattr(kalman, "random_invertible", lambda rng, n: next(draws))
    lams, V, cw = kalman._generic_draw(random.Random(0), KalmanInstance.from_form(F32))
    assert V == generic and cw == [-4, -8, -1, 1, 4, 9]
    assert len(set(lams)) == 3


# sha256 of json.dumps(report, sort_keys=True), as the benchmark hashes it,
# of factorization_audit(f, seed=seed) at the default 20 trials, recorded
# while each determinant was still a Krylov-row elimination
AUDIT_FORM_DIGESTS = {
    ("x1^3 - x2*x3^2 + x4^3", 0): "dc41c581c5d4a4826fbc6605593b5d4d3fa23d1beefb243a69914aa06f5cc238",
    ("x1^3 - x2*x3^2 + x4^3", 5): "9b80d921547f8713708612332831dc4e3b524708357163154fd8f6773f89d637",
    ("x2^3 - x1^2*x3", 0): "e62dbc918e6cad2d59d4bef8a37314d899c96b688571cea9c91270377afb3986",
    ("x2^3 - x1^2*x3", 5): "abb6e97778f004b9f28ea35d67c747818453825a391350c8ce0e8770febaaafd",
    ("x2^2 - x1*x3", 0): "cb74a18febbacac0f9a4be5946f0595b7d8de0d880f1fbb74af1e670d6a9d26a",
    ("x2^2 - x1*x3", 5): "9bc36c842dca8f4e327c9abb734088d11d8887b7183857b4d7dd55ae63a30c76",
    ("x1^2 + x2*x3 - x4^2", 0): "20df853ab396efdde3d78b1c4ae8bf29e31f3df8cda494d9db7858340d882484",
    ("x1^2 + x2*x3 - x4^2", 5): "3c0c5b260ed4717bc7575013ba3849df8911e6b293b479b71803e39c21acbe0a",
    ("x1^3 + x2^3 - x3^3 + x1*x2*x3", 0): "06feea6b3fe6876190f702588d3ba697bdd7d7bd8c052dce9ad110be7d3d31da",
    ("x1^3 + x2^3 - x3^3 + x1*x2*x3", 5): "961a51eae93b78c6b03f9cb93cbf0ad71bd64ef71a6b79264b0f085c38fcefbc",
}


@pytest.mark.parametrize("form,n", AUDIT_FORMS)
@pytest.mark.parametrize("seed", [0, 5])
def test_benchmark_audit_reports_are_byte_identical(form, n, seed):
    rep = factorization_audit(parse_polynomial(form, x_universe(n)), seed=seed)
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == AUDIT_FORM_DIGESTS[form, seed]


def test_audit_runs_no_kalman_matrix_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("the audit formed a Kalman matrix")

    monkeypatch.setattr(kalman, "kalman_matrix_at", refuse)
    f = parse_polynomial("x1^3 - x2*x3^2 + x4^3", x_universe(4))
    rep = factorization_audit(f, trials=3, seed=0)
    assert rep["status"] == "pass" and len(rep["assertions"]) == 4


# -- special locus matrices ---------------------------------------------------------------


def test_special_locus_rank_deficient():
    loc = special_locus_matrix("rank_deficient", 3, seed=2)
    A = frac_rows(loc["A"])
    assert qmat_det(A) == 0
    assert qmat_rank(A) == 2


def test_special_locus_jordan():
    loc = special_locus_matrix("repeated_eigenvalue_jordan", 2, seed=2)
    A = frac_rows(loc["A"])
    assert delta_at(A) == 0
