"""Closed-form combinatorics of eigenpoint loci: partition enumeration,
degrees of Kalman and mu-Kalman varieties, discriminant multiplicity
bookkeeping, and degrees of singular loci.

Everything here is exact integer/rational arithmetic; formulas with
fractional coefficients (such as (3n-5)/4) are evaluated in Fractions and
asserted integral before being reported.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .polycore import ProblemTooLarge, parse_polynomial, x_universe
from .veronese import PartitionType, basis_size


class NonIntegralDegree(ValueError):
    """A degree formula produced a non-integer outside its domain of validity."""


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise NonIntegralDegree(f"{what} = {x} is not an integer")
    return int(x)


def falling_factorial(a: int, b: int) -> int:
    """a(a-1)...(a-b+1), with (a)_0 = 1; 0 at once when a factor is 0."""
    if b > a >= 0:
        return 0
    out = 1
    for i in range(b):
        out *= a - i
    return out


def stirling2(s: int, k: int) -> int:
    """Stirling numbers of the second kind S(s, k)."""
    if k == 0:
        return 1 if s == 0 else 0
    if k > s:
        return 0
    row = [1] + [0] * k
    for _ in range(s):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            new[j] = row[j - 1] + j * row[j]
        row = new
        row[0] = 0
    return row[k]


# partitions ---------------------------------------------------------------


def partitions(d: int, n: int) -> list[PartitionType]:
    """All partitions of d into at most n parts, ordered lexicographically
    on the non-increasing part lists (e.g. (4) < (3,1) < (2,2) is False:
    the order is (4), (3,1), (2,2))."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, max_part: int, parts: tuple[int, ...]):
        if remaining == 0:
            out.append(parts)
            return
        slots = n - len(parts)
        for p in range(min(max_part, remaining), 0, -1):
            if p * slots < remaining:
                break  # no parts of at most p fill the slots left
            rec(remaining - p, p, parts + (p,))

    rec(d, d, ())
    # rec emits non-increasing lists in descending-lex order already:
    # (4), (3,1), (2,2), ... ; sort defensively to pin the contract
    out.sort(key=lambda t: t, reverse=True)
    return [PartitionType(t) for t in out]


def _partition_counts(d: int, n: int):
    """Yield, for k = 1 .. min(n, d), the number of partitions of d into
    parts of size at most k, which by conjugation is the number into at
    most k parts (each k adds part size k to a bottom-up count)."""
    ways = [1] + [0] * d
    for k in range(1, min(n, d) + 1):
        for j in range(k, d + 1):
            ways[j] += ways[j - k]
        yield ways[d]


def partition_count(d: int, n: int) -> int:
    """Number of partitions of d into at most n parts, counted bottom-up
    (independent of the enumerator)."""
    count = 0
    for count in _partition_counts(d, n):
        pass
    return count


# degree formulas ----------------------------------------------------------


def deg_kalman(n: int, m: int, deg_x: int) -> dict:
    """Degree and codimension of the locus of n x n matrices with an
    eigenpoint on a fixed irreducible m-dimensional-cone variety X of
    degree deg_x in P^{n-1}: degree deg_x * C(n, m-1), codimension n - m.
    """
    if not 1 <= m <= n - 1:
        raise ValueError("m must satisfy 1 <= m <= n-1")
    return {
        "degree": deg_x * math.comb(n, m - 1),
        "codimension": n - m,
    }


def deg_mu_kalman(n: int, d: int, mu: PartitionType | tuple) -> int:
    """Degree of the mu-eigenpoint locus hypersurface.

    Two equivalent closed forms are evaluated and asserted equal:
      d * C(n,2) * (n-1)_{s-1} / (m_1! ... m_d!)
      ((n-1)d/2) * n! / ((n-s)! m_1! ... m_d!)
    where s = #parts and m_i = multiplicity of part size i in mu.
    """
    mu = PartitionType(tuple(mu)) if not isinstance(mu, PartitionType) else mu
    if mu.d != d:
        raise ValueError(f"partition {mu.parts} does not sum to d={d}")
    if mu.s > n:
        raise ValueError(f"partition {mu.parts} has more than n={n} parts")
    s = mu.s
    mf = mu.mult_factorial()
    first = Fraction(d * math.comb(n, 2) * falling_factorial(n - 1, s - 1), mf)
    second = Fraction((n - 1) * d, 2) * Fraction(math.perm(n, s), mf)
    if first != second:
        raise AssertionError(
            f"degree formulas disagree at n={n}, d={d}, mu={mu.parts}: "
            f"{first} vs {second}"
        )
    return _as_int(first, f"deg K_mu(n={n}, d={d}, mu={mu.parts})")


def multinomial_budget_term(n: int, mu: PartitionType) -> int:
    """n! / ((n-s)! m_1! ... m_d!) - the number of eigenvalue monomials of
    shape mu; these sum to N over all mu with at most n parts."""
    return math.perm(n, mu.s) // mu.mult_factorial()


@dataclass
class DegreeReport:
    """Named exact integer values produced by one formula family."""

    params: dict
    values: dict[str, int | Fraction] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        vals = {
            k: (str(v) if isinstance(v, Fraction) else v) for k, v in self.values.items()
        }
        obj = {"params": self.params, "values": vals}
        if self.flags:
            obj["flags"] = self.flags
        return obj


def detA_multiplicity(n: int, d: int) -> int:
    """Multiplicity s of det(A) as a factor of the order-d Kalman
    determinant: the double sum

      s = sum_t C(d-t+n-2, d-t) * [ t/2 * (C(d-t+n-2, d-t) - 1)
                                    + sum_{i<t} C(d-i+n-2, d-i) * i ].

    For n = 3 this collapses to 3*C(d+3, 5), asserted below.
    """
    twice = 0
    earlier = 0  # the running inner sum over i < t
    for t in range(1, d + 1):
        bt = math.comb(d - t + n - 2, d - t)
        twice += bt * (t * (bt - 1) + 2 * earlier)
        earlier += bt * t
    val = _as_int(Fraction(twice, 2), f"detA multiplicity(n={n}, d={d})")
    if n == 3:
        assert val == 3 * math.comb(d + 3, 5), (n, d, val)
    return val


# a report costs ~34 us per partition of d into at most n parts: 3.0 s at
# (n, d) = (45, 45), 89,134 partitions, on a 2-core Xeon
MAX_PARTITIONS = 100_000


def discriminant_budget(n: int, d: int) -> DegreeReport:
    """Degree bookkeeping for the factorization of det K_d(f):

      det K_d(f) = sqrt(Delta_d^sat) * prod_mu p_mu   (up to a scalar)

    with deg det = d*C(N,2), deg Delta_d = d*N*(N-1), multiplicity
    k = C(n+d-1, d-1) of Delta inside Delta_d, and
    deg sqrt(Delta_d^sat) = d*C(N,2) - d*N*(n-1)/2.  Asserts the budget
    identity and the monomial count sum_mu multinomial = N.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    # n >= 2 gives d at least floor(d/2) + 1 partitions, so a huge d is
    # rejected before the bottom-up count, which stops past the limit
    if d // 2 + 1 > MAX_PARTITIONS or any(c > MAX_PARTITIONS for c in _partition_counts(d, n)):
        raise ProblemTooLarge(
            f"d = {d} has more than {MAX_PARTITIONS} partitions into at most n = {n} parts; "
            f"the limit is MAX_PARTITIONS = {MAX_PARTITIONS}")
    N = basis_size(n, d)
    mus = partitions(d, n)
    deg_det = d * math.comb(N, 2)
    deg_delta_d = d * N * (N - 1)
    k = math.comb(n + d - 1, d - 1)
    deg_sqrt_sat = _as_int(
        Fraction(deg_det) - Fraction(d * N * (n - 1), 2), "deg sqrt(Delta_d^sat)"
    )
    mu_degrees = {mu.parts: deg_mu_kalman(n, d, mu) for mu in mus}
    multinomials = {mu.parts: multinomial_budget_term(n, mu) for mu in mus}
    if deg_det != deg_sqrt_sat + sum(mu_degrees.values()):
        raise AssertionError(
            f"degree budget fails at n={n}, d={d}: "
            f"{deg_det} != {deg_sqrt_sat} + {sorted(mu_degrees.values())}"
        )
    if sum(multinomials.values()) != N:
        raise AssertionError(f"monomial count fails at n={n}, d={d}")
    rep = DegreeReport(params={"n": n, "d": d})
    rep.values["N"] = N
    rep.values["deg_det_K_d"] = deg_det
    rep.values["deg_Delta_d"] = deg_delta_d
    rep.values["k_multiplicity_of_Delta"] = k
    rep.values["deg_sqrt_Delta_d_sat"] = deg_sqrt_sat
    rep.values["sum_mu_deg_p_mu"] = sum(mu_degrees.values())
    rep.values["sum_mu_multinomial"] = sum(multinomials.values())
    rep.values["detA_multiplicity"] = detA_multiplicity(n, d)
    for mu in mus:
        tag = ",".join(map(str, mu.parts))
        rep.values[f"deg_p_({tag})"] = mu_degrees[mu.parts]
    return rep


# singular-locus degrees ----------------------------------------------------


def sing_degrees(kind: str, n: int, *, d: int | None = None,
                 deg_x1: int = 1, deg_x2: int = 1) -> DegreeReport:
    """Degrees of the singular locus of an eigenpoint-locus hypersurface
    (all carry a codimension-2 annotation):

      pairwise            (C(n,2)^2 - C(n,3)) * deg_x1 * deg_x2
                          - matrices with eigenpoints on both of two
                            transversal hypersurfaces X1, X2
      self                (3n-5)/4 * C(n,3)
                          - two distinct eigenpoints on one hyperplane
      hyperplane_union    C(d,2)*C(n,2)^2 + d*(3n-5)/4*C(n,3)
      smooth_hypersurface C(d,2)*C(n,2)^2 + d*(3n-5)/4*C(n,3) - C(d,2)*C(n,3)
    """
    c2, c3 = math.comb(n, 2), math.comb(n, 3)
    rep = DegreeReport(params={"kind": kind, "n": n})
    rep.values["codimension"] = 2
    if kind == "pairwise":
        rep.params.update({"deg_x1": deg_x1, "deg_x2": deg_x2})
        rep.values["degree"] = (c2 * c2 - c3) * deg_x1 * deg_x2
        return rep
    if kind == "self":
        rep.values["degree"] = _as_int(
            Fraction(3 * n - 5, 4) * c3, f"self-pair degree(n={n})"
        )
        return rep
    if d is None:
        raise ValueError(f"kind {kind!r} requires d")
    rep.params["d"] = d
    base = math.comb(d, 2) * c2 * c2 + _as_int(
        d * Fraction(3 * n - 5, 4) * c3, f"union degree part(n={n}, d={d})"
    )
    if kind == "hyperplane_union":
        rep.values["degree"] = base
        return rep
    if kind == "smooth_hypersurface":
        rep.values["degree"] = base - math.comb(d, 2) * c3
        return rep
    raise ValueError(f"unknown kind {kind!r}")


def grassmannian_quadric_note() -> DegreeReport:
    """The Plücker quadric G(1,3) in P^5 (n = 6): its eigenpoint locus is a
    hypersurface of degree 12, which the generic-hypersurface degree formula
    (here 2*C(6,4) = 30) does NOT reproduce - the quadric's eigenpoint
    structure is special.  The value 12 is recorded as a flagged observation,
    not asserted; the singular-locus degree 335 does follow the smooth-
    hypersurface formula and is asserted elsewhere.
    """
    rep = DegreeReport(params={"case": "plucker_quadric_G13", "n": 6, "m": 5, "deg_x": 2})
    rep.values["formula_degree"] = deg_kalman(6, 5, 2)["degree"]
    rep.values["observed_degree"] = 12
    rep.values["sing_degree"] = sing_degrees("smooth_hypersurface", 6, d=2).values["degree"]
    rep.flags.append(
        "degree formula not asserted for this case: the generic-hypersurface "
        "value 30 differs from the observed hypersurface degree 12"
    )
    return rep


# identities used as property checks ---------------------------------------


def ctilde(n: int, s: int) -> int:
    """C(n,2) * (n-1)_{s-1}: the shared coefficient of the distinguished
    monomial family in the top intersection class."""
    return math.comb(n, 2) * falling_factorial(n - 1, s - 1)


def ctilde_stirling_form(n: int, s: int) -> int:
    """Equivalent inclusion-exclusion form
    C(n,2) * (n^{s-1} - sum_k S(s,k) C(n-1,k-1) (k-1)!)."""
    total = n ** (s - 1)
    total -= sum(
        stirling2(s, k) * math.comb(n - 1, k - 1) * math.factorial(k - 1)
        for k in range(1, s)
    )
    return math.comb(n, 2) * total


# table generation ----------------------------------------------------------


def degrees_table() -> list[dict]:
    """Every numeric degree value exercised by the acceptance suite, as a
    flat list of rows for CSV emission."""
    rows: list[dict] = []

    def row(family: str, case: str, value, **params):
        rows.append({"family": family, "case": case, "value": value,
                     "params": ";".join(f"{k}={v}" for k, v in params.items())})

    row("kalman_degree", "plane_conic", deg_kalman(3, 2, 2)["degree"], n=3, m=2, degX=2)
    row("kalman_degree", "point_in_plane", deg_kalman(3, 1, 1)["degree"], n=3, m=1, degX=1)
    row("mu_degree", "(1,2,2,4)", deg_mu_kalman(5, 9, (1, 2, 2, 4)), n=5, d=9)
    row("mu_degree", "(1,1)", deg_mu_kalman(3, 2, (1, 1)), n=3, d=2)
    row("mu_degree", "(2)", deg_mu_kalman(3, 2, (2,)), n=3, d=2)
    for (n, d) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        rep = discriminant_budget(n, d)
        for key in ("N", "deg_det_K_d", "k_multiplicity_of_Delta",
                    "deg_sqrt_Delta_d_sat", "detA_multiplicity"):
            row("budget", key, rep.values[key], n=n, d=d)
    row("sing_degree", "two_lines",
        sing_degrees("hyperplane_union", 3, d=2).values["degree"], n=3, d=2)
    row("sing_degree", "smooth_conic",
        sing_degrees("smooth_hypersurface", 3, d=2).values["degree"], n=3, d=2)
    for d in range(2, 6):
        row("sing_degree", f"plane_curve_d{d}",
            sing_degrees("smooth_hypersurface", 3, d=d).values["degree"], n=3, d=d)
    row("sing_degree", "quadric_P5",
        sing_degrees("smooth_hypersurface", 6, d=2).values["degree"], n=6, d=2)
    note = grassmannian_quadric_note()
    row("flagged", "plucker_quadric_formula", note.values["formula_degree"], n=6, m=5)
    row("flagged", "plucker_quadric_observed", note.values["observed_degree"], n=6, m=5)
    for s in range(1, 5):
        row("ctilde", f"s{s}_n3", ctilde(3, s), n=3, s=s)

    # term counts and degrees of the conic eigenpoint equation, and the
    # spot value of the order-2 spectral discriminant; imported locally so
    # the table stays loadable without dragging the heavy modules in at
    # import time (kalman imports this module)
    from .kalman import delta_d_at
    from .salmon import A_NAMES, B_NAMES, kalman_conic_equation

    g2 = kalman_conic_equation(parse_polynomial("x2^2 - x1*x3", x_universe(3)))
    row("conic_equation", "g2_terms", g2.term_count(), f="x2^2-x1*x3")
    row("conic_equation", "g2_degree", g2.is_homogeneous(), f="x2^2-x1*x3")
    g2g = kalman_conic_equation()
    row("conic_equation", "g2_generic_terms", g2g.term_count(), f="generic")
    row("conic_equation", "g2_generic_a_degree", g2g.degree_in(A_NAMES), f="generic")
    row("conic_equation", "g2_generic_b_degree", g2g.degree_in(B_NAMES), f="generic")
    row("spectral", "Delta_2_at_diag_1_2",
        delta_d_at([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]], 2),
        n=2, d=2)
    return rows


def degrees_table_csv() -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=["family", "case", "value", "params"],
                       lineterminator="\n")
    w.writeheader()
    for r in degrees_table():
        w.writerow(r)
    return buf.getvalue()
