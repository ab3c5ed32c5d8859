"""Truncated intersection-class calculator for eigenvector incidence loci.

The ambient ring is Z[h_0, h_1, ..., h_s] / (h_0^{n^2}, h_1^n, ..., h_s^n):
h_0 is the hyperplane class of the projectivized matrix space, h_i the
hyperplane class of the i-th eigenvector factor.  A class is a
`Polynomial` in h0..hs with every exponent below its truncation bound; a
product drops the monomials at or past a bound.  Every class built here is
homogeneous, with at most n^s terms, and is size-checked before any product.

Implemented classes, for the locus W_s of matrices with s prescribed
eigenvector factors:

  class_W(n, s)        product formula for the full incidence class [W_s]
  class_Wtilde(n, s)   the distinct-eigenvector component, closed form for
                       s <= 2; the (n, s) = (3, 3) instance is an
                       explicitly expanded fixture
  class_WsP(n, s, P)   the component where eigenvectors collide along the
                       blocks of a set partition P: a substitution of
                       class_Wtilde(|P|) times one complete-homogeneous
                       pairing factor per non-minimal block element
  fixture_E3()         the two-dimensional-eigenspace component at
                       (n, s) = (3, 3)

plus the coefficient extraction coeff_ctilde(n, s) = C(n,2)(n-1)_{s-1}
(the shared coefficient of h_0 * h_1^{n-1} ... h_i^{n-2} ... h_s^{n-1},
the same for every i) and the degree bridge deg_mu_from_chow, which
re-derives each eigenvalue-partition factor degree from the classes and
cross-asserts it against the combinatorial formula.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .enumerative import ctilde, deg_mu_kalman
from .polycore import Polynomial, ProblemTooLarge, Universe, format_terms
from .veronese import PartitionType

# Limits on the n^s terms of a class and on n^s * n*s, their coefficient
# bits (coefficients are below 2^(n s), so at most 3011 digits).  On a 2-core
# Xeon class_W(10, 6) builds in 0.7 s and prints in 4.5 s at 360 MB, while
# class_Wtilde(1000, 2), 10^6 terms of ~2000 bits, takes 18 s and 1.3 GB.
MAX_CLASS_TERMS = 10 ** 6
MAX_CLASS_BITS = 10 ** 8


class TruncationError(ValueError):
    """Exponent tuple outside the ring truncation bounds."""


class UnsupportedClass(ValueError):
    """No expansion of the requested class is available."""


@functools.cache
def _universe(n: int, s: int) -> Universe:
    """h0..hs, with fields wide enough for the product of two reduced
    classes (exponents up to 2n^2 - 2)."""
    return Universe([f"h{i}" for i in range(s + 1)], (2 * n * n - 2).bit_length())


def _check_size(n: int, s: int) -> None:
    # n^s is only evaluated below the limit's bit length, where it is small;
    # n < 2 is left to TruncatedClass
    if n > 1 and (s >= MAX_CLASS_TERMS.bit_length() or n ** s > MAX_CLASS_TERMS
                  or n ** s * n * s > MAX_CLASS_BITS):
        raise ProblemTooLarge(
            f"a class at (n, s) = ({n}, {s}) has up to n^s terms of n*s bits; the limits "
            f"are MAX_CLASS_TERMS = {MAX_CLASS_TERMS} and MAX_CLASS_BITS = {MAX_CLASS_BITS}")


class TruncatedClass:
    """Element of Z[h_0..h_s]/(h_0^{n^2}, h_i^n), held as `poly`, a
    Polynomial in h0..hs whose exponents are below the bounds."""

    __slots__ = ("n", "s", "poly")

    def __init__(self, n: int, s: int, terms: Mapping[tuple, int] | None = None):
        if n < 2:
            raise ValueError("n must be at least 2")
        if s < 1:
            raise ValueError("s must be at least 1")
        self.n = n
        self.s = s
        exps: dict[tuple[int, ...], int] = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != s + 1:
                raise TruncationError(f"exponent tuple {e} must have length {s + 1}")
            if not self._reduced(e):
                raise TruncationError(f"exponent tuple {e} outside truncation")
            exps[e] = exps.get(e, 0) + int(c)
        self.poly = Polynomial.from_exponents(_universe(n, s), exps)

    @staticmethod
    def _of(n: int, s: int, poly: Polynomial) -> "TruncatedClass":
        """The class of `poly`, whose exponents are known to be reduced."""
        res = object.__new__(TruncatedClass)
        res.n, res.s, res.poly = n, s, poly
        return res

    def _reduced(self, e: tuple[int, ...]) -> bool:
        """Whether e is an exponent tuple of this ring below the bounds."""
        n = self.n
        return (len(e) == self.s + 1 and 0 <= e[0] < n * n
                and all(0 <= x < n for x in e[1:]))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n: int, s: int) -> "TruncatedClass":
        return TruncatedClass(n, s, {})

    @staticmethod
    def one(n: int, s: int) -> "TruncatedClass":
        return TruncatedClass(n, s, {(0,) * (s + 1): 1})

    @staticmethod
    def h(n: int, s: int, i: int, exp: int = 1, coeff: int = 1) -> "TruncatedClass":
        """coeff * h_i^exp (reduced: a zero class if exp hits truncation)."""
        if i < 0 or i > s:
            raise ValueError(f"variable index {i} out of range 0..{s}")
        cap = n * n if i == 0 else n
        if exp >= cap:
            return TruncatedClass.zero(n, s)
        e = [0] * (s + 1)
        e[i] = exp
        return TruncatedClass(n, s, {tuple(e): coeff})

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "TruncatedClass") -> None:
        if not isinstance(other, TruncatedClass):
            raise TypeError("expected a TruncatedClass")
        if (self.n, self.s) != (other.n, other.s):
            raise ValueError("ring mismatch")

    def __add__(self, other: "TruncatedClass") -> "TruncatedClass":
        self._check(other)
        return self._of(self.n, self.s, self.poly + other.poly)

    def __neg__(self) -> "TruncatedClass":
        return self._of(self.n, self.s, -self.poly)

    def __sub__(self, other: "TruncatedClass") -> "TruncatedClass":
        self._check(other)
        return self._of(self.n, self.s, self.poly - other.poly)

    def scale(self, c: int) -> "TruncatedClass":
        return self._of(self.n, self.s, self.poly.scale(c))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        a, b = self.poly, other.poly
        prod = a * b
        u = prod.u
        caps = (self.n * self.n,) + (self.n,) * self.s
        reach = [i for i, (x, y) in enumerate(zip(a.var_maxes(), b.var_maxes()))
                 if x + y >= caps[i]]
        if reach:
            # each exponent has its own bit field: h_i's exponent reaches its
            # cap iff the key's bits in that field reach those of h_i^cap
            full = (1 << u.bits) - 1
            fields = [(u.var_key(u.names[i], full), u.var_key(u.names[i], caps[i]))
                      for i in reach]
            prod = Polynomial(u, {k: c for k, c in prod.terms.items()
                                  if all(k & f < cap for f, cap in fields)})
        return self._of(self.n, self.s, prod)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedClass":
        if k < 0:
            raise ValueError("negative power")
        res = TruncatedClass.one(self.n, self.s)
        for _ in range(k):
            res = res * self
        return res

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def coefficient(self, exponents: Sequence[int]) -> int:
        e = tuple(int(x) for x in exponents)
        return self.poly.terms.get(self.poly.u.pack(e), 0) if self._reduced(e) else 0

    def __eq__(self, other):
        return (isinstance(other, TruncatedClass)
                and (self.n, self.s) == (other.n, other.s)
                and self.poly == other.poly)

    __hash__ = None

    def __repr__(self):
        return f"TruncatedClass(n={self.n}, s={self.s}, {self.poly.term_count()} terms)"

    def graded_keys(self) -> list[int]:
        """Term keys by degree, then by key: exponents ascending (the
        second sort is stable)."""
        return sorted(sorted(self.poly.terms), key=self.poly.u.key_degree)

    def to_text(self, keys: list[int] | None = None) -> str:
        """Graded, order-sorted monomial listing (degree, then exponents).
        `keys` is `graded_keys()`, for a caller that already has it."""
        if self.is_zero():
            return "0"
        if keys is None:
            keys = self.graded_keys()
        return format_terms(self.poly.u, keys, map(self.poly.terms.__getitem__, keys))

    def to_json_obj(self, keys: list[int] | None = None) -> dict:
        unpack, terms = self.poly.u.unpack, self.poly.terms
        return {
            "n": self.n,
            "s": self.s,
            "terms": [{"exponents": list(unpack(k)), "coefficient": terms[k]}
                      for k in (self.graded_keys() if keys is None else keys)],
        }


def elementary_symmetric(n: int, s: int, indices: Sequence[int], l: int) -> TruncatedClass:
    """e_l of the variables {h_i : i in indices}, as a class."""
    idx = list(indices)
    if l < 0 or l > len(idx):
        return TruncatedClass.zero(n, s)
    out: dict[tuple[int, ...], int] = {}
    for chosen in itertools.combinations(idx, l):
        e = [0] * (s + 1)
        for i in chosen:
            e[i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return TruncatedClass(n, s, out)


# -- set partitions -----------------------------------------------------------


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1, ..., s} into disjoint nonempty blocks, stored with
    each block sorted and blocks ordered by their minima."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(b)) for b in self.blocks),
                             key=lambda b: b[0] if b else 0))
        object.__setattr__(self, "blocks", canon)
        elems = [x for b in canon for x in b]
        if not elems:
            raise ValueError("a set partition needs at least one block")
        s = len(elems)
        if sorted(elems) != list(range(1, s + 1)):
            raise ValueError(f"blocks must partition 1..{s}: got {canon}")

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        return cls(tuple(tuple(b) for b in blocks))

    @property
    def s(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def minima(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.blocks)

    @staticmethod
    def all_partitions(s: int) -> list["SetPartition"]:
        """All set partitions of {1, ..., s}, canonically ordered."""
        if s < 1:
            raise ValueError("s must be at least 1")
        parts: list[list[list[int]]] = [[[1]]]
        for x in range(2, s + 1):
            nxt = []
            for p in parts:
                for i in range(len(p)):
                    nxt.append([b + [x] if j == i else list(b)
                                for j, b in enumerate(p)])
                nxt.append([list(b) for b in p] + [[x]])
            parts = nxt
        out = [SetPartition.of(p) for p in parts]
        out.sort(key=lambda sp: (sp.k, sp.blocks))
        return out


# -- the classes --------------------------------------------------------------


def _w1_factor(n: int, s: int, i: int) -> TruncatedClass:
    """sum_j C(n,j) h_0^{n-1-j} h_i^j — the one-eigenvector incidence class
    written in the variables (h_0, h_i) of the s-factor ring."""
    out: dict[tuple[int, ...], int] = {}
    binom = 1  # C(n, j), one exact step at a time
    for j in range(n):
        e = [0] * (s + 1)
        e[0] = n - 1 - j
        e[i] = j
        out[tuple(e)] = binom
        binom = binom * (n - j) // (j + 1)
    return TruncatedClass(n, s, out)


def _pairing_factor(n: int, s: int, q: int, p: int) -> TruncatedClass:
    """sum_r h_q^{n-1-r} h_p^r — the class forcing factors q and p to share
    an eigenvector (complete homogeneous of degree n-1 in h_q, h_p)."""
    out: dict[tuple[int, ...], int] = {}
    for r in range(n):
        e = [0] * (s + 1)
        e[q] = n - 1 - r
        e[p] = r
        out[tuple(e)] = 1
    return TruncatedClass(n, s, out)


def class_W(n: int, s: int) -> TruncatedClass:
    """[W_s] = prod_{i=1}^s sum_j C(n,j) h_0^{n-1-j} h_i^j."""
    _check_size(n, s)
    res = TruncatedClass.one(n, s)
    for i in range(1, s + 1):
        res = res * _w1_factor(n, s, i)
    return res


def class_Wtilde(n: int, s: int) -> TruncatedClass:
    """Distinct-eigenvector component class, closed form for s <= 2:
    [W~_1] = [W_1]; [W~_2] = [W_2] - [W_{2,{{1,2}}}], which factors as
    sum_j C(n,j) h_0^{n-1-j} h_1^j * sum_r (C(n,r) h_0^{n-1-r} - h_1^{n-1-r}) h_2^r.
    At (n, s) = (3, 3) it is fixture_Wtilde3(); UnsupportedClass anywhere
    else."""
    if (n, s) == (3, 3):
        return fixture_Wtilde3()
    if s not in (1, 2):
        raise UnsupportedClass(
            f"the {s}-factor distinct-eigenvector class W~_{s} is available "
            f"for s <= 2 and at (n, s) = (3, 3), not at n = {n}")
    _check_size(n, s)
    if s == 1:
        return class_W(n, 1)
    out: dict[tuple[int, ...], int] = {}
    for r in range(n):
        out[(n - 1 - r, 0, r)] = math.comb(n, r)
        key = (0, n - 1 - r, r)
        out[key] = out.get(key, 0) - 1
    second = TruncatedClass(n, 2, out)
    return _w1_factor(n, 2, 1) * second


def _e3(l: int) -> TruncatedClass:
    return elementary_symmetric(3, 3, (1, 2, 3), l)


def _t0_pow(k: int) -> TruncatedClass:
    return TruncatedClass.h(3, 3, 0, k)


def fixture_Wtilde3() -> TruncatedClass:
    """The (n, s) = (3, 3) distinct-eigenvector class, expanded from its
    elementary-symmetric shorthand (e_l in h_1, h_2, h_3):

      6 e_3^2 + 6 e_2 e_3 t_0 + 2(e_2^2 + 2 e_1 e_3) t_0^2
      + 3(e_1 e_2 + e_3) t_0^3 + (e_1^2 + 3 e_2) t_0^4 + 2 e_1 t_0^5 + t_0^6
    """
    e1, e2, e3 = _e3(1), _e3(2), _e3(3)
    return (e3 * e3 * 6
            + e2 * e3 * 6 * _t0_pow(1)
            + (e2 * e2 + e1 * e3 * 2) * 2 * _t0_pow(2)
            + (e1 * e2 + e3) * 3 * _t0_pow(3)
            + (e1 * e1 + e2 * 3) * _t0_pow(4)
            + e1 * 2 * _t0_pow(5)
            + _t0_pow(6))


def fixture_E3(n: int = 3) -> TruncatedClass:
    """The (n, s) = (3, 3) class of the locus where the matrix has a
    two-dimensional eigenspace: 6 e_3 t_0^3 + 3 e_2 t_0^4 + e_1 t_0^5."""
    if n != 3:
        raise ValueError("this class is only available for n = 3")
    return (_e3(3) * 6 * _t0_pow(3)
            + _e3(2) * 3 * _t0_pow(4)
            + _e3(1) * _t0_pow(5))


def class_WsP(n: int, s: int, P) -> TruncatedClass:
    """Class of the component of W_s where the eigenvectors of the factors
    in each block of P coincide: substitute h_i -> h_{q_i} (block minima)
    into the |P|-factor distinct-eigenvector class, then multiply one
    pairing factor sum_r h_{q_i}^{n-1-r} h_p^r per non-minimal block
    element p (empty product for singleton blocks)."""
    if not isinstance(P, SetPartition):
        P = SetPartition.of(P)
    if P.s != s:
        raise ValueError(f"partition covers 1..{P.s}, expected 1..{s}")
    _check_size(n, s)
    wt = class_Wtilde(n, P.k).poly
    # the same keys read with h_i renamed to h_{q_i}, re-expressed in h0..hs
    renamed = Universe(["h0"] + [f"h{q}" for q in P.minima], wt.u.bits)
    res = TruncatedClass._of(n, s, Polynomial(renamed, wt.terms).convert(_universe(n, s)))
    for block in P.blocks:
        q = block[0]
        for p in block[1:]:
            res = res * _pairing_factor(n, s, q, p)
    return res


# -- coefficient extraction and the degree bridge ------------------------------


def coeff_ctilde(n: int, s: int) -> int:
    """The common coefficient of h_0 * h_1^{n-1} ... h_i^{n-2} ... h_s^{n-1}
    (one exponent dropped to n-2, the same value for every i) in the
    s-factor distinct-eigenvector class: C(n,2) * (n-1)_{s-1}.

    Whenever class_Wtilde builds the class, the coefficient is extracted
    from it for every i and asserted equal to the closed form.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if n < 2:
        raise ValueError("n must be at least 2")
    formula = ctilde(n, s)
    try:
        wt = class_Wtilde(n, s)
    except (UnsupportedClass, ProblemTooLarge):
        return formula
    for i in range(1, s + 1):
        got = wt.coefficient((1,) + (n - 1,) * (i - 1) + (n - 2,) + (n - 1,) * (s - i))
        if got != formula:
            raise AssertionError(
                f"coefficient at i={i} is {got}, formula gives {formula}")
    return formula


def deg_mu_from_chow(n: int, d: int, mu: PartitionType | Sequence[int]) -> int:
    """Degree of the eigenvalue-partition factor, derived from the classes:
    pair the s-factor distinct-eigenvector class with sum_i mu_i h_i (the
    coefficient of h_0 * h_1^{n-1} ... h_s^{n-1} in the product is then
    d * coeff_ctilde) and divide by the part-multiplicity factorials.
    Asserted equal to the combinatorial degree formula."""
    if not isinstance(mu, PartitionType):
        mu = PartitionType(tuple(mu))
    if mu.d != d:
        raise ValueError(f"partition {mu.parts} does not sum to d={d}")
    if mu.s > n:
        raise ValueError(f"partition {mu.parts} has more than n={n} parts")
    s = mu.s
    ct = coeff_ctilde(n, s)
    try:
        wt = class_Wtilde(n, s)
    except (UnsupportedClass, ProblemTooLarge):
        wt = None
    if wt is not None:
        lin = TruncatedClass(n, s, {(0,) * i + (1,) + (0,) * (s - i): part
                                    for i, part in enumerate(mu.parts, start=1)})
        top = (wt * lin).coefficient((1,) + (n - 1,) * s)
        if top != ct * d:
            raise AssertionError(f"class pairing gives {top}, expected {ct * d}")
    val = Fraction(ct * d, mu.mult_factorial())
    if val.denominator != 1:
        raise AssertionError(f"non-integral degree {val} for mu={mu.parts}")
    combinatorial = deg_mu_kalman(n, d, mu)
    if int(val) != combinatorial:
        raise AssertionError(
            f"class route gives {val}, degree formula gives {combinatorial}")
    return int(val)
