"""Resultant of three ternary quadrics by the Jacobian method, and the
closed-form equation of the eigenpoint locus of a plane conic.

The resultant of quadrics f1, f2, f3 in x1, x2, x3 is obtained (up to a
scalar) as the 6x6 determinant of the coefficient matrix B of the six
quadrics (dJ/dx1, dJ/dx2, dJ/dx3, f1, f2, f3), where J is the Jacobian
determinant of the triple - a classical elimination shortcut that stays
inside exact polynomial arithmetic.

For a conic f, the triple (f1, f2, f) with f1, f2 the (1,2)- and (1,3)-row
2x2 minors of [A*x | x] eliminates x and yields Res = g1 * g2, with g1 an
explicit 3-term factor and g2 the degree-6 equation of the matrices having
an eigenpoint on the conic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .polycore import NotDivisible, Polynomial, Scalar, _cached, lru, parse_polynomial
from .polymatrix import PolyMatrix
from .veronese import monomial_basis

A_NAMES = tuple(f"a{i}{j}" for i in range(1, 4) for j in range(1, 4))
B_NAMES = ("b200", "b110", "b101", "b020", "b011", "b002")
X_NAMES = ("x1", "x2", "x3")

# 4-bit fields: per-variable exponents in this pipeline stay <= 10.
AB_UNIVERSE = _cached(A_NAMES + B_NAMES, 4)
FULL_UNIVERSE = _cached(A_NAMES + B_NAMES + X_NAMES, 4)


@dataclass(frozen=True)
class TernaryQuadricTriple:
    """Three homogeneous degree-2 forms in x1, x2, x3 (coefficients may
    involve the a/b parameter block)."""

    f1: Polynomial
    f2: Polynomial
    f3: Polynomial

    def __post_init__(self):
        for f in (self.f1, self.f2, self.f3):
            if f.u != FULL_UNIVERSE:
                raise ValueError("triple must live over the salmon universe")
            if any(sum(f.u.unpack(k)[-3:]) != 2 for k in f.terms):
                raise ValueError("each form must be homogeneous of degree 2 in x")

    def __iter__(self):
        return iter((self.f1, self.f2, self.f3))


def to_full(p: Polynomial) -> Polynomial:
    """Lift a polynomial in any subset of the salmon variables."""
    return p.convert(FULL_UNIVERSE)


def generic_conic() -> Polynomial:
    """b200*x1^2 + b110*x1*x2 + b101*x1*x3 + b020*x2^2 + b011*x2*x3 + b002*x3^2."""
    u = FULL_UNIVERSE
    out = Polynomial.zero(u)
    coeffs = zip(B_NAMES, ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"])
    for b, mono in coeffs:
        out = out + parse_polynomial(f"{b}*{mono}", u)
    return out


def conic_minor_quadrics() -> tuple[Polynomial, Polynomial]:
    """f1, f2 = the (1,2)- and (1,3)-row 2x2 minors of [A*x | x]."""
    u = FULL_UNIVERSE
    ax = []
    for i in range(1, 4):
        ax.append(parse_polynomial("+".join(f"a{i}{j}*x{j}" for j in range(1, 4)), u))
    x = [Polynomial.var(u, nm) for nm in X_NAMES]
    f1 = ax[0] * x[1] - ax[1] * x[0]
    f2 = ax[0] * x[2] - ax[2] * x[0]
    return f1, f2


def conic_triple(f: Polynomial | None = None) -> TernaryQuadricTriple:
    """The Salmon input triple for a conic: (f1, f2, f).

    `f` is a conic over the x variables (rational coefficients); None means
    the generic conic with symbolic b-coefficients.
    """
    f1, f2 = conic_minor_quadrics()
    f3 = generic_conic() if f is None else to_full(f)
    return TernaryQuadricTriple(f1, f2, f3)


def jacobian_poly(triple: TernaryQuadricTriple) -> Polynomial:
    """Determinant of the 3x3 matrix of x-partials; degree 3 in x."""
    rows = [[f.derivative(nm) for nm in X_NAMES] for f in triple]
    return PolyMatrix(FULL_UNIVERSE, rows).det()


def _x_coeff_row(p: Polynomial) -> list[Polynomial]:
    """Coefficients of a degree-2-in-x form in the x-basis order, as
    polynomials in the a/b block."""
    basis = monomial_basis(3, 2)
    pos = {e: i for i, e in enumerate(basis)}
    buckets: list[dict[int, Scalar]] = [dict() for _ in basis]
    for k, c in p.terms.items():
        e = p.u.unpack(k)  # the x variables come last
        i = pos.get(e[-3:])
        if i is None:
            raise ValueError("form is not homogeneous of degree 2 in x")
        buckets[i][AB_UNIVERSE.pack(e[:-3])] = c
    return [Polynomial(AB_UNIVERSE, b) for b in buckets]


def salmon_matrix(triple: TernaryQuadricTriple) -> PolyMatrix:
    """The 6x6 coefficient matrix B of (dJ/dx1, dJ/dx2, dJ/dx3, f1, f2, f3)."""
    J = jacobian_poly(triple)
    rows = [_x_coeff_row(J.derivative(nm)) for nm in X_NAMES]
    rows += [_x_coeff_row(f) for f in triple]
    return PolyMatrix(AB_UNIVERSE, rows)


def salmon_resultant(triple: TernaryQuadricTriple) -> Polynomial:
    """det B, canonically normalized; vanishes exactly on triples with a
    common projective zero."""
    return salmon_matrix(triple).det().canonical()


def g1_factor(f: Polynomial | None = None) -> Polynomial:
    """The 3-term factor b002*a12^2 - b011*a12*a13 + b020*a13^2, with the
    b-coefficients specialized when a concrete conic is given."""
    g1 = parse_polynomial("b002*a12^2-b011*a12*a13+b020*a13^2", AB_UNIVERSE)
    if f is None:
        return g1
    ff = to_full(f)
    u = FULL_UNIVERSE
    vals: dict[str, Scalar] = {}
    for b, mono in zip(B_NAMES, ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"]):
        key = parse_polynomial(mono, u).leading()[0]
        vals[b] = ff.terms.get(key, 0)
    return g1.specialize(vals)


# Least-recently-used g2 by conic (None for the generic one, 2832 terms).
_G2_CACHE_SIZE = 8
_G2_CACHE: OrderedDict[tuple | None, Polynomial] = OrderedDict()


def kalman_conic_equation(f: Polynomial | None = None) -> Polynomial:
    """g2 = Res(f1, f2, f) / g1: the canonical degree-6 equation (in the
    a-variables) of the matrices with an eigenpoint on the conic V(f).

    None asks for the generic conic (g2 then has bidegree (6,3) in (a, b)).
    The last few results are kept; a degenerate conic raises every time.
    """
    key = None if f is None else (f.u.names, f.to_text())

    def g2():
        res = salmon_resultant(conic_triple(f))
        g1 = g1_factor(f)
        if g1.is_zero():
            raise ValueError("degenerate conic: the g1 factor vanishes identically")
        try:
            quotient = res.exact_div(g1)
        except NotDivisible as e:  # pragma: no cover - would signal a pipeline fault
            raise NotDivisible("g1 does not divide the resultant; pipeline fault") from e
        return quotient.canonical()

    return lru(_G2_CACHE, _G2_CACHE_SIZE, key, g2)
