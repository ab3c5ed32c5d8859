"""Shared strategies and helpers for the test suite.

Everything random is routed through hypothesis or through explicitly
seeded random.Random instances so that every failure is reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from kalmanvar.polycore import Polynomial, Universe, a_universe, parse_polynomial, x_universe
from kalmanvar.polymatrix import PolyMatrix


# -- scalar strategies ------------------------------------------------------

small_ints = st.integers(min_value=-9, max_value=9)
nonzero_ints = small_ints.filter(bool)
fractions = st.builds(
    Fraction,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=12),
)
nonzero_fractions = fractions.filter(bool)


def polynomials(
    u: Universe,
    *,
    max_exp: int = 3,
    max_terms: int = 5,
    allow_zero: bool = True,
) -> st.SearchStrategy[Polynomial]:
    """Random sparse polynomials over `u` with bounded exponents."""
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * u.nvars)
    term = st.tuples(exps, fractions)
    min_terms = 0 if allow_zero else 1

    def build(terms):
        p = Polynomial.zero(u)
        for e, c in terms:
            p = p + Polynomial.from_exponents(u, {tuple(e): c})
        return p

    strat = st.lists(term, min_size=min_terms, max_size=max_terms).map(build)
    if not allow_zero:
        strat = strat.filter(lambda p: not p.is_zero())
    return strat


def homogeneous(u: Universe, d: int, *, max_terms: int = 4,
                allow_zero: bool = False) -> st.SearchStrategy[Polynomial]:
    """Random homogeneous degree-d forms over `u`."""
    from kalmanvar.veronese import monomial_basis

    basis = monomial_basis(u.nvars, d)
    term = st.tuples(st.sampled_from(basis), fractions)

    def build(terms):
        p = Polynomial.zero(u)
        for e, c in terms:
            p = p + Polynomial.from_exponents(u, {e: c})
        return p

    strat = st.lists(term, min_size=1, max_size=max_terms).map(build)
    if not allow_zero:
        strat = strat.filter(lambda p: not p.is_zero())
    return strat


def vectors(n: int, *, nonzero: bool = False) -> st.SearchStrategy[list[Fraction]]:
    base = st.lists(fractions, min_size=n, max_size=n)
    if nonzero:
        base = base.filter(lambda v: any(v))
    return base


def matrices(n: int) -> st.SearchStrategy[list[list[Fraction]]]:
    return st.lists(vectors(n), min_size=n, max_size=n)


def invertible_matrices(n: int) -> st.SearchStrategy[list[list[Fraction]]]:
    from kalmanvar.polymatrix import qmat_det

    return matrices(n).filter(lambda A: qmat_det(A) != 0)


U2 = x_universe(2)
U3 = x_universe(3)


# Hand expansion of the degree-2 symmetric power of a symbolic 3x3 matrix
# over the monomial basis (x1^2, x1x2, x1x3, x2^2, x2x3, x3^2): row (i,j)
# holds the coefficients of (ai1x1+ai2x2+ai3x3)(aj1x1+aj2x2+aj3x3).
SYM_POWER_3X3_D2 = [
    ["a11^2", "2*a11*a12", "2*a11*a13", "a12^2", "2*a12*a13", "a13^2"],
    ["a11*a21", "a12*a21 + a11*a22", "a13*a21 + a11*a23", "a12*a22",
     "a13*a22 + a12*a23", "a13*a23"],
    ["a11*a31", "a12*a31 + a11*a32", "a13*a31 + a11*a33", "a12*a32",
     "a13*a32 + a12*a33", "a13*a33"],
    ["a21^2", "2*a21*a22", "2*a21*a23", "a22^2", "2*a22*a23", "a23^2"],
    ["a21*a31", "a22*a31 + a21*a32", "a23*a31 + a21*a33", "a22*a32",
     "a23*a32 + a22*a33", "a23*a33"],
    ["a31^2", "2*a31*a32", "2*a31*a33", "a32^2", "2*a32*a33", "a33^2"],
]


def generic_with(fixed: dict[str, int]) -> PolyMatrix:
    """The generic 3 x 3 matrix a11..a33 with the entries named in `fixed` held at their values."""
    u = a_universe(3)
    return PolyMatrix(u, [[Polynomial.const(u, fixed[a]) if a in fixed else Polynomial.var(u, a)
                           for a in (f"a{i}{j}" for j in range(1, 4))] for i in range(1, 4)])


@pytest.fixture(scope="session")
def dehomogenized_conic() -> tuple[Polynomial, Polynomial]:
    """The benchmark's conic: det K_2 of x2^2 - x1*x3 with a11 = a33 = 1
    (124,815 terms), and its eigenvector equation g2 specialized the same
    way, which divides it."""
    from kalmanvar.kalman import KalmanInstance, kalman_matrix
    from kalmanvar.salmon import kalman_conic_equation

    f = parse_polynomial("x2^2 - x1*x3", x_universe(3))
    fixed = {"a11": 1, "a33": 1}
    det = kalman_matrix(KalmanInstance.from_form(f), generic_with(fixed)).det()
    return det, kalman_conic_equation(f).convert(a_universe(3)).specialize(fixed)


# -- acceptance reporting ----------------------------------------------------

_CRITERIA_RESULTS: list[tuple[int, str, float, float | None]] = []


def record_criterion(number: int, summary: str, elapsed: float,
                     budget: float | None = None) -> None:
    """Log one acceptance-criterion outcome for the terminal summary; when a
    budget (seconds) is given the elapsed time is asserted against it."""
    _CRITERIA_RESULTS.append((number, summary, elapsed, budget))
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} exceeded its runtime budget: "
            f"{elapsed:.2f}s >= {budget:.0f}s"
        )


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, summary, elapsed, budget in sorted(_CRITERIA_RESULTS):
        budget_note = f" < {budget:.0f}s" if budget is not None else ""
        terminalreporter.write_line(
            f"criterion {number} PASS ({elapsed:.2f}s{budget_note}): {summary}"
        )
