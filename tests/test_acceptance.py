"""End-to-end acceptance checks.

One test per headline requirement, each timed against its stated wall-clock
budget (enforced via ``record_criterion``).  Everything is exact rational
arithmetic — there are no numeric tolerances anywhere.  A summary table is
printed at the end of the pytest run.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from conftest import SYM_POWER_3X3_D2, record_criterion
from kalmanvar.chow import (
    SetPartition,
    TruncatedClass,
    class_W,
    class_WsP,
    coeff_ctilde,
    fixture_E3,
)
from kalmanvar.enumerative import (
    ctilde,
    deg_mu_kalman,
    discriminant_budget,
    falling_factorial,
    multinomial_budget_term,
    partitions,
    sing_degrees,
)
from kalmanvar.kalman import (
    delta_at,
    delta_d_at,
    factor_order_along_line,
    factorization_audit,
    kalman_det,
)
from kalmanvar.polycore import Polynomial, a_universe, parse_polynomial, x_universe
from kalmanvar.polymatrix import (
    PolyMatrix,
    bareiss_det,
    qmat_det,
    qmat_identity,
    qmat_mul,
    qmat_vec,
)
from kalmanvar.salmon import A_NAMES, B_NAMES, g1_factor, kalman_conic_equation
from kalmanvar.veronese import basis_size, mon_vector, sym_power, sym_power_scalar
from kalmanvar.witness import random_invertible, special_locus_matrix

U2 = x_universe(2)
U3 = x_universe(3)
CONIC = parse_polynomial("x2^2 - x1*x3", U3)


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _rand_qmatrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [[_rand_fraction(rng) for _ in range(n)] for _ in range(n)]


def _rand_poly(rng: random.Random, u, max_terms: int = 4):
    mapping = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in range(u.nvars))
        mapping[exps] = mapping.get(exps, 0) + _rand_fraction(rng)
    return Polynomial.from_exponents(u, mapping)


# -- criterion 1: symmetric square of a symbolic 3x3 matrix -------------------


def test_criterion_1_symmetric_square_display():
    t0 = time.perf_counter()
    A = PolyMatrix.generic(3)
    R = sym_power(A, 2)
    assert R.nrows == R.ncols == 6
    for i in range(6):
        for j in range(6):
            assert R.rows[i][j] == parse_polynomial(SYM_POWER_3X3_D2[i][j], A.u), (i, j)
    record_criterion(1, "degree-2 symmetric power of generic 3x3 matrix, "
                        "entry-for-entry", time.perf_counter() - t0, budget=1.0)


# -- criterion 2: conic eigenvector equation ----------------------------------


def test_criterion_2_conic_equation_specialized():
    t0 = time.perf_counter()
    g1 = g1_factor(CONIC)
    g2 = kalman_conic_equation(CONIC)
    assert g1 == parse_polynomial("a13^2", g1.u)
    assert g2.term_count() == 138
    assert g2.is_homogeneous() == 6
    record_criterion(2, "f = x2^2 - x1*x3: g1 = a13^2 and g2 has 138 terms",
                     time.perf_counter() - t0, budget=10.0)


def test_criterion_2_conic_equation_generic():
    t0 = time.perf_counter()
    g2 = kalman_conic_equation()
    assert g2.term_count() == 2832
    assert g2.degree_in(A_NAMES) == 6
    assert g2.degree_in(B_NAMES) == 3
    # bidegree (6, 3) holds term-by-term, not just as a maximum
    a_idx = [g2.u.index[name] for name in A_NAMES]
    b_idx = [g2.u.index[name] for name in B_NAMES]
    for key in g2.terms:
        exps = g2.u.unpack(key)
        assert sum(exps[i] for i in a_idx) == 6
        assert sum(exps[i] for i in b_idx) == 3
    record_criterion(2, "generic conic: g2 bidegree (6,3) with 2832 terms",
                     time.perf_counter() - t0, budget=300.0)


# -- criterion 3: determinant for the conic at n = 3 ---------------------------


def test_criterion_3_conic_determinant_factorization():
    t0 = time.perf_counter()
    det = kalman_det(CONIC)
    assert det.is_homogeneous() == 30

    g2 = kalman_conic_equation(CONIC).convert(a_universe(3))
    quotient = det.exact_div(g2)  # raises NotDivisible on failure
    assert quotient.is_homogeneous() == 24

    # order 3 along a generic line through a generic rank-2 matrix
    locus = special_locus_matrix("rank_deficient", 3, seed=11)
    direction = random_invertible(random.Random(12), 3)
    assert factor_order_along_line("det", locus["A"], direction, f=CONIC) == 3

    rep = discriminant_budget(3, 2)
    assert rep.values["deg_det_K_d"] == 30
    assert rep.values["deg_sqrt_Delta_d_sat"] == 18
    assert rep.values["deg_p_(2)"] == 6
    assert rep.values["deg_p_(1,1)"] == 6
    assert 30 == 18 + 6 + 6
    record_criterion(3, "det K_2 (n=3 conic): degree 30 = 18 + 6 + 6, "
                        "g2 divides exactly, rank-2 line order 3",
                     time.perf_counter() - t0, budget=120.0)


# -- criterion 4: discriminant multiplicities ----------------------------------


def test_criterion_4_discriminant_multiplicities():
    t0 = time.perf_counter()
    for case, (n, d) in enumerate([(2, 2), (2, 3), (3, 2)]):
        k = math.comb(n + d - 1, d - 1)
        locus = special_locus_matrix("repeated_eigenvalue_jordan", n,
                                     seed=40 + case)
        direction = random_invertible(random.Random(50 + case), n)
        assert factor_order_along_line("delta", locus["A"], direction) == 1
        assert factor_order_along_line("delta_d", locus["A"], direction, d=d) == k

    assert delta_d_at([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]], 2) == 36
    # Delta_2 = Delta^3 * (l1*l2*(l1+l2))^2 on 2x2 diagonal matrices
    for l1, l2 in [(1, 2), (3, 5), (-2, 7), (Fraction(1, 2), Fraction(5, 3))]:
        A = [[Fraction(l1), Fraction(0)], [Fraction(0), Fraction(l2)]]
        assert delta_d_at(A, 2) == delta_at(A) ** 3 * (l1 * l2 * (l1 + l2)) ** 2
    record_criterion(4, "multiplicity k = C(n+d-1, d-1) of Delta in Delta_d "
                        "certified by line orders; Delta_2(diag(1,2)) = 36",
                     time.perf_counter() - t0)


# -- criterion 5: eigenvector-locus degree formula ------------------------------


def test_criterion_5_partition_degree_formula():
    t0 = time.perf_counter()
    assert deg_mu_kalman(5, 9, (1, 2, 2, 4)) == 1080
    assert deg_mu_kalman(3, 2, (1, 1)) == 6
    assert deg_mu_kalman(3, 2, (2,)) == 6
    # deg_mu_kalman itself asserts its two closed forms agree on every call
    for n in range(2, 9):
        for d in range(1, 9):
            for mu in partitions(d, n):
                deg_mu_kalman(n, d, mu)
    record_criterion(5, "partition-locus degrees: 1080 and 6/6 cases; both "
                        "closed forms agree for d <= 8, n <= 8",
                     time.perf_counter() - t0, budget=1.0)


# -- criterion 6: degree-budget identity ---------------------------------------


def test_criterion_6_degree_budget_identity():
    t0 = time.perf_counter()
    for n in range(2, 7):
        for d in range(1, 7):
            rep = discriminant_budget(n, d)  # asserts its own identity too
            mus = partitions(d, n)
            total = 0
            for mu in mus:
                tag = ",".join(map(str, mu.parts))
                total += rep.values[f"deg_p_({tag})"]
            assert total == rep.values["sum_mu_deg_p_mu"]
            assert rep.values["deg_det_K_d"] == (
                rep.values["deg_sqrt_Delta_d_sat"] + total
            )
            N = basis_size(n, d)
            assert sum(multinomial_budget_term(n, mu) for mu in mus) == N
    record_criterion(6, "deg det = deg sqrt(sat. discriminant) + sum of "
                        "factor degrees, and multinomials sum to N, for "
                        "d <= 6, n <= 6", time.perf_counter() - t0, budget=1.0)


# -- criterion 7: intersection-class suite --------------------------------------


def test_criterion_7_class_coefficients_and_decomposition():
    t0 = time.perf_counter()
    for n in range(2, 8):
        for s in (1, 2):
            assert coeff_ctilde(n, s) == math.comb(n, 2) * falling_factorial(n - 1, s - 1)
    assert coeff_ctilde(3, 3) == 6 == ctilde(3, 3)

    total = TruncatedClass.zero(3, 3)
    for p in SetPartition.all_partitions(3):
        total = total + class_WsP(3, 3, p)
    assert total + fixture_E3() == class_W(3, 3)
    record_criterion(7, "coefficient c~_s = C(n,2)(n-1)_(s-1) closed forms and "
                        "n=3 extraction; s=3 class decomposition identity",
                     time.perf_counter() - t0, budget=5.0)


# -- criterion 8: singular-locus degrees ----------------------------------------


def test_criterion_8_singular_locus_degrees():
    t0 = time.perf_counter()
    assert sing_degrees("hyperplane_union", 3, d=2).values["degree"] == 11
    assert sing_degrees("smooth_hypersurface", 3, d=2).values["degree"] == 10
    for d in range(1, 9):
        assert sing_degrees("smooth_hypersurface", 3, d=d).values["degree"] == d * (4 * d - 3)
    assert sing_degrees("smooth_hypersurface", 6, d=2).values["degree"] == 335

    # general formulas stay integral (and carry codimension 2) over a sweep
    for n in range(3, 13):
        assert sing_degrees("pairwise", n).values["codimension"] == 2
        assert sing_degrees("self", n).values["codimension"] == 2
        for d in range(1, 7):
            for kind in ("hyperplane_union", "smooth_hypersurface"):
                rep = sing_degrees(kind, n, d=d)  # raises NonIntegralDegree
                assert rep.values["degree"] >= 0
    record_criterion(8, "singular-locus degrees 11, 10, d(4d-3), 335 and "
                        "integral general formulas",
                     time.perf_counter() - t0, budget=1.0)


# -- criterion 9: property suites ------------------------------------------------


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(90)

    # intertwining, multiplicativity, determinant power
    for n, d in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        N = basis_size(n, d)
        exponent, rem = divmod(d * N, n)
        assert rem == 0
        for _ in range(20):
            A = _rand_qmatrix(rng, n)
            B = _rand_qmatrix(rng, n)
            v = [_rand_fraction(rng) for _ in range(n)]
            SA, SB = sym_power_scalar(A, d), sym_power_scalar(B, d)
            assert qmat_vec(SA, mon_vector(v, d)) == mon_vector(qmat_vec(A, v), d)
            assert sym_power_scalar(qmat_mul(A, B), d) == qmat_mul(SA, SB)
            assert qmat_det(SA) == qmat_det(A) ** exponent

    # fraction-free and cofactor determinants agree on polynomial matrices
    for trial in range(20):
        rows = [[_rand_poly(rng, U2) for _ in range(3)] for _ in range(3)]
        m = PolyMatrix(U2, rows)
        assert bareiss_det([list(r) for r in rows], Polynomial.zero(U2)) == m._det_cofactor_dp(), trial

    # every rational matrix satisfies its own characteristic polynomial
    for trial in range(20):
        A = _rand_qmatrix(rng, 3)
        coeffs = PolyMatrix.from_scalars(U3, A).char_poly()
        acc = [[Fraction(0)] * 3 for _ in range(3)]
        power = qmat_identity(3)
        for c in coeffs:
            cval = c.constant_value()
            for i in range(3):
                for j in range(3):
                    acc[i][j] += cval * power[i][j]
            power = qmat_mul(power, A)
        assert all(x == 0 for row in acc for x in row), trial

    # witness vanishing for every partition, and non-vanishing at
    # full-support non-members, via the seeded factorization audit
    forms = {
        (2, 2): parse_polynomial("x1^2 - x2^2", U2),
        (3, 2): CONIC,
        (2, 3): parse_polynomial("x1^3 - x2^3", U2),
        (3, 3): parse_polynomial("x2^3 - x1^2*x3", U3),
    }
    for (n, d), f in forms.items():
        report = factorization_audit(f, n, d, trials=20, seed=900 + 10 * n + d)
        assert report["status"] == "pass", report
        names = [a["assertion"] for a in report["assertions"]]
        assert names == ["degree_budget", "mu_witness_vanishing",
                         "collision_vanishing", "generic_nonvanishing"]
        assert all(a["status"] == "pass" for a in report["assertions"])
    record_criterion(9, "intertwining / multiplicativity / det-power / "
                        "determinant oracle / char-poly identity / witness "
                        "audits at four (n, d) pairs, 20 seeded trials each",
                     time.perf_counter() - t0, budget=120.0)
