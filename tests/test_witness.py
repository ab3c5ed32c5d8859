"""Exact rational witnesses: prescribed eigenstructure, points on
hypersurfaces, polarization-vanishing certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import U2, U3
from kalmanvar.enumerative import partitions
from kalmanvar.kalman import KalmanInstance, kalman_det, membership_necessary
from kalmanvar import witness
from kalmanvar.polycore import ProblemTooLarge, parse_polynomial, x_universe
from kalmanvar.polymatrix import qmat_det, qmat_rank, qmat_vec
from kalmanvar.veronese import polarize
from kalmanvar.witness import (
    MAX_SPECIAL_N,
    SEARCH_HEIGHT,
    SEARCH_MAX_VARS,
    NoStrategy,
    SingularV,
    UnsupportedPartition,
    collision_eigenvalues,
    derive_seed,
    matrix_with_eigenvectors,
    mu_witness,
    random_invertible,
    rho_simple_eigenvalues,
    sample_on_hypersurface,
    special_locus_matrix,
)

F22 = parse_polynomial("x1^2 - x2^2", U2)
F32 = parse_polynomial("x2^2 - x1*x3", U3)
F23 = parse_polynomial("x1^3 - x2^3", U2)
F33 = parse_polynomial("x2^3 - x1^2*x3", U3)


# -- seeds --------------------------------------------------------------------


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)
    assert derive_seed(8, 3) != derive_seed(7, 3)
    assert 0 <= derive_seed(2**62, 99) < 2**63


# -- eigenstructure -----------------------------------------------------------


def test_matrix_with_eigenvectors_exact():
    V, D = [[1, 2], [3, 4]], [5, 7]
    A = matrix_with_eigenvectors(V, D)
    for j, lam in enumerate(D):
        col = [Fraction(V[i][j]) for i in range(2)]
        assert qmat_vec(A, col) == [lam * x for x in col]


def test_matrix_with_eigenvectors_singular_v():
    with pytest.raises(SingularV):
        matrix_with_eigenvectors([[1, 2], [2, 4]], [1, 2])


def test_matrix_with_eigenvectors_shape():
    with pytest.raises(ValueError):
        matrix_with_eigenvectors([[1, 2]], [1, 2])  # not square
    with pytest.raises(ValueError):
        matrix_with_eigenvectors([[1, 2], [3, 4]], [1, 2, 3])  # 2 x 2 V, 3 eigenvalues


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_invertible_is_invertible(seed):
    rng = random.Random(seed)
    A = random_invertible(rng, 3)
    assert qmat_det(A) != 0


def test_random_invertible_keeps_fixed_columns():
    rng = random.Random(5)
    fixed = [[Fraction(1), Fraction(2), Fraction(3)]]
    V = random_invertible(rng, 3, fixed_columns=fixed)
    assert [V[i][0] for i in range(3)] == fixed[0]
    assert qmat_det(V) != 0


def test_rho_simple_eigenvalues_monomials_distinct():
    rng = random.Random(11)
    for d in (1, 2, 3):
        lams = rho_simple_eigenvalues(rng, 3, d)
        assert len(set(lams)) == 3
        monos = set()
        from kalmanvar.veronese import monomial_basis

        for e in monomial_basis(3, d):
            m = 1
            for li, ei in zip(lams, e):
                m *= li**ei
            assert m not in monos
            monos.add(m)


def test_rho_simple_eigenvalues_forced():
    rng = random.Random(3)
    lams = rho_simple_eigenvalues(rng, 3, 2, forced=(4,))
    assert lams[0] == 4 and len(set(lams)) == 3


def test_collision_eigenvalues_collide_in_power():
    rng = random.Random(9)
    for n, d in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        lams = collision_eigenvalues(rng, n, d)
        assert len(set(lams)) == n  # simple spectrum downstairs
        from kalmanvar.veronese import monomial_basis

        monos = []
        for e in monomial_basis(n, d):
            m = 1
            for li, ei in zip(lams, e):
                m *= li**ei
            monos.append(m)
        assert len(set(monos)) < len(monos)  # repeated upstairs


def test_collision_eigenvalues_rejects_d1():
    with pytest.raises(ValueError):
        collision_eigenvalues(random.Random(0), 2, 1)


# -- points on hypersurfaces -------------------------------------------------------


def test_sample_solvable_variable():
    # x3 appears linearly: solvable directly
    v = sample_on_hypersurface(F33, seed=4)
    assert F33.evaluate(tuple(v)) == 0
    assert any(v)


def test_sample_binary_roots():
    for seed in range(5):
        v = sample_on_hypersurface(F22, seed=seed)
        assert F22.evaluate(tuple(v)) == 0
        w = sample_on_hypersurface(F23, seed=seed)
        assert F23.evaluate(tuple(w)) == 0


def test_sample_conic():
    v = sample_on_hypersurface(F32, seed=2)
    assert F32.evaluate(tuple(v)) == 0


def test_sample_no_strategy():
    # ternary cubic: no linear variable, n > 2, no nonzero rational zero
    f = parse_polynomial("x1^3 + 2*x2^3 + 4*x3^3", U3)
    with pytest.raises(NoStrategy):
        sample_on_hypersurface(f, seed=0)


@pytest.mark.parametrize("text", ["x1^3 + x2^3 - x3^3 + x1*x2*x3", "x1^2 + x2^2 - x3^2"])
def test_sample_small_integer_point(text):
    f = parse_polynomial(text, U3)
    for seed in (0, 7, 12345):
        v = sample_on_hypersurface(f, seed=seed)
        assert any(v) and f.evaluate(v) == 0
        assert all(type(x) is int and abs(x) <= SEARCH_HEIGHT for x in v)


def test_sample_integer_search_variable_limit():
    # (1, 0, ..., 0, 1) is a zero, but the form has more than
    # SEARCH_MAX_VARS variables, so the box is not searched
    n = SEARCH_MAX_VARS + 1
    text = " + ".join(f"x{i}^2" for i in range(1, n)) + f" - x{n}^2"
    with pytest.raises(NoStrategy):
        sample_on_hypersurface(parse_polynomial(text, x_universe(n)), seed=0)


def test_sample_flipped_conic():
    f = parse_polynomial("x1*x3 - x2^2", U3)  # same conic, flipped sign
    v = sample_on_hypersurface(f, seed=8)
    assert f.evaluate(tuple(v)) == 0


def test_sample_deterministic_by_seed():
    a = sample_on_hypersurface(F32, seed=13)
    b = sample_on_hypersurface(F32, seed=13)
    assert a == b


# -- mu witnesses -------------------------------------------------------------------


CASES = [
    (F22, 2, 2),
    (F32, 3, 2),
    (F23, 2, 3),
    (F33, 3, 3),
]


@pytest.mark.parametrize("f,n,d", CASES)
def test_mu_witness_all_partitions(f, n, d):
    for mu in partitions(d, n):
        for trial in range(3):
            w = mu_witness(f, mu.parts, seed=derive_seed(42, trial))
            # polarization vanishes exactly at the witness vectors
            assert polarize(f, mu).evaluate([x for v in w.vectors for x in v]) == 0
            assert w.certificate["checks"]["polarization_value"] == "0"
            assert w.certificate["mu"] == list(mu.parts)


def test_mu_witness_vectors_are_eigenvectors():
    w = mu_witness(F32, (2,), seed=1)
    A = matrix_with_eigenvectors(w.V, w.eigenvalues)
    v = w.vectors[0]
    lam = w.eigenvalues[0]
    assert qmat_vec(A, v) == [lam * x for x in v]


def test_mu_witness_trivial_partition_point_on_hypersurface():
    w = mu_witness(F22, (2,), seed=5)
    assert F22.evaluate(tuple(w.vectors[0])) == 0
    inst = KalmanInstance.from_form(F22)
    assert membership_necessary(inst, matrix_with_eigenvectors(w.V, w.eigenvalues))


def test_mu_witness_deterministic():
    a = mu_witness(F32, (1, 1), seed=99)
    b = mu_witness(F32, (1, 1), seed=99)
    assert a.V == b.V and a.eigenvalues == b.eigenvalues and a.vectors == b.vectors


def test_mu_witness_unsupported_partition():
    f = parse_polynomial("x1^4 - x2^4 + x1*x2^3", U2)
    with pytest.raises(UnsupportedPartition) as e:
        mu_witness(f, (2, 2), seed=0)
    assert str(e.value) == ("partition (2, 2): no exact construction when the "
                            "smallest part is >= 2")


def test_mu_witness_unsupported_exactly_when_smallest_part_exceeds_one():
    f = parse_polynomial("x1*x2^3 - x3^4", U3)
    for mu in partitions(4, 3):
        if mu.s > 1 and mu.parts[0] >= 2:
            with pytest.raises(UnsupportedPartition):
                mu_witness(f, mu, seed=1)
        else:
            w = mu_witness(f, mu, seed=1)
            assert polarize(f, mu).evaluate([x for v in w.vectors for x in v]) == 0


def test_mu_witness_validation():
    with pytest.raises(ValueError):
        mu_witness(F22, (1, 1, 1), seed=0)  # more parts than n
    with pytest.raises(ValueError):
        mu_witness(F22, (3,), seed=0)  # wrong degree
    with pytest.raises(TypeError):
        mu_witness(F22, (2,), 5)  # the seed is keyword-only


def test_mu_witness_kalman_det_vanishes():
    det = kalman_det(F22)
    for mu in [(2,), (1, 1)]:
        for trial in range(3):
            w = mu_witness(F22, mu, seed=derive_seed(7, trial))
            flat = tuple(x for row in matrix_with_eigenvectors(w.V, w.eigenvalues) for x in row)
            assert det.evaluate(flat) == 0, mu


def test_mu_witness_nontrivial_partition_avoids_hypersurface():
    # for mu = (1,1) with generic data the witness eigenpoints do NOT lie
    # on the hypersurface itself: the component is genuinely different
    hits = 0
    for trial in range(6):
        w = mu_witness(F22, (1, 1), seed=derive_seed(100, trial))
        if any(F22.evaluate(tuple(v)) == 0 for v in w.vectors):
            hits += 1
    assert hits < 6


# -- special loci ---------------------------------------------------------------------


def test_special_locus_rank_deficient_certificate():
    out = special_locus_matrix("rank_deficient", 3, seed=21)
    A = [[Fraction(x) for x in row] for row in out["A"]]
    assert qmat_det(A) == 0 and qmat_rank(A) == 2
    assert out["certificate"]["kind"] == "rank_deficient"


def test_special_locus_jordan_not_diagonalizable():
    from kalmanvar.kalman import delta_at

    out = special_locus_matrix("repeated_eigenvalue_jordan", 2, seed=21)
    A = [[Fraction(x) for x in row] for row in out["A"]]
    assert delta_at(A) == 0
    # not diagonalizable: (A - lambda I) has rank 1, eigenspace dim 1 < 2
    lam = Fraction(out["certificate"]["D"][0])
    B = [[A[i][j] - (lam if i == j else 0) for j in range(2)] for i in range(2)]
    assert qmat_rank(B) == 1
    assert out["certificate"]["checks"]["not_diagonalizable"] is True


def test_special_locus_deterministic():
    a = special_locus_matrix("rank_deficient", 3, seed=33)
    b = special_locus_matrix("rank_deficient", 3, seed=33)
    assert a == b


class _Sampled(Exception):
    pass


@pytest.mark.parametrize("kind", ["rank_deficient", "repeated_eigenvalue_jordan"])
def test_special_locus_size_limit_edge(monkeypatch, kind):
    # n <= MAX_SPECIAL_N reaches the sampling; a larger n is rejected first
    def sample(*args):
        raise _Sampled

    monkeypatch.setattr(witness, "random_invertible", sample)
    assert MAX_SPECIAL_N == 30
    with pytest.raises(_Sampled):
        special_locus_matrix(kind, MAX_SPECIAL_N)
    with pytest.raises(ProblemTooLarge, match="n = 31; the limit is MAX_SPECIAL_N = 30"):
        special_locus_matrix(kind, MAX_SPECIAL_N + 1)


def test_special_locus_unknown_kind():
    with pytest.raises(ValueError):
        special_locus_matrix("unitary", 3, seed=0)
