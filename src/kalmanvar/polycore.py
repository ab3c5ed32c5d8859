"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are stored as dicts mapping packed monomial keys to nonzero
coefficients (Python ints, or Fractions when genuinely rational).  Exponent
vectors are packed into a single integer with a fixed number of bits per
variable, the *first* variable occupying the most significant field.  Two
consequences drive the whole design:

  * integer comparison of keys is exactly lexicographic-descending order
    with var[0] > var[1] > ... ;
  * monomial multiplication is integer addition of keys.

Coefficient arithmetic stays in plain ints on pure-integer inputs, which is
the common case for every determinant in this package.  Products are sums
of products: `sum_of_products` takes `(sign, p, q)` triples, `p * q` is one
triple, and the cofactor determinant builds each minor from one call.
Integer sums of 4096 or more term pairs go to one numpy kernel (`_np_mul`).
Its l1*linf coefficient certificate picks how values are held (int64, two
int64 limbs, or exact Python ints in object arrays), and it has one
reduction for all three: the exponent box is compacted by the exact linear
relations all the sum's exponents keep (total degree, torus weights), and
pairs are scatter-added into an accumulator of at most `_DENSE_CELLS`
cells, one stripe of the box at a time, through buffers of at most
`_CHUNK` pairs whatever the value form.  It gives the dict loop's terms, in
ascending key order.  A sum whose compacted box has more than
`_CELLS_PER_PAIR` cells per pair is too sparse for it and declines, most
such sums on a few sampled keys.  The dict loop that accumulates every pair
of every triple is the portable path: it serves rational coefficients,
sparse sums, small sums and runs without numpy.

Exact division is recursive: long division in the divisor's most
significant varying variable, each slice of the quotient an exact division
by the divisor's leading slice.  Each quotient slice owes its products
with the divisor's other slices to lower slices of the remainder, and a
remainder slice is formed only when it is the top one, by one
`sum_of_products` of its dividend slice and the products it is owed.  A
one-term divisor divides termwise; a divisor whose terms differ in at most
one variable, and a division too small for the kernel, take a heap loop.
Keys are read with numpy, not one at a time, from `_NP_MIN_KEYS` keys on.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
import re
from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar, Union

try:  # optional accelerator; guarded so the package stays dependency-free
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

Scalar = Union[int, Fraction]
T = TypeVar("T")


class UniverseMismatch(ValueError):
    """Operands live over different variable universes."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class DivisionByZeroPolynomial(ZeroDivisionError):
    """Division by the zero polynomial."""


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class PolynomialParseError(ValueError):
    """Input text does not conform to the polynomial grammar."""


class ExponentOverflow(ValueError):
    """An exponent does not fit the universe's per-variable bit field."""


class ProblemTooLarge(ValueError):
    """The input is beyond the size the system can finish."""


def _demote(c: Scalar) -> Scalar:
    """Collapse integral Fractions to plain ints."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class Universe:
    """An ordered tuple of variable names plus the packed-key encoding.

    `bits` is the field width per variable.  All exponents handled under
    this universe must stay below 2**bits; multiplication checks this.
    """

    __slots__ = ("names", "bits", "nvars", "index", "_shifts", "_mask")

    def __init__(self, names: Sequence[str], bits: int = 8):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.bits = bits
        self.nvars = len(names)
        self.index = {nm: i for i, nm in enumerate(names)}
        # first variable most significant
        self._shifts = tuple(bits * (self.nvars - 1 - i) for i in range(self.nvars))
        self._mask = (1 << bits) - 1

    def __eq__(self, other):
        return (
            self is other
            or (isinstance(other, Universe) and self.names == other.names and self.bits == other.bits)
        )

    def __hash__(self):
        return hash((self.names, self.bits))

    def __repr__(self):
        return f"Universe({self.names!r}, bits={self.bits})"

    def pack(self, exponents: Sequence[int]) -> int:
        if len(exponents) != self.nvars:
            raise ValueError("exponent vector length mismatch")
        key = 0
        for e, sh in zip(exponents, self._shifts):
            if e < 0 or e > self._mask:
                raise ExponentOverflow(f"exponent {e} out of range for {self.bits}-bit fields")
            key |= e << sh
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        m = self._mask
        return tuple([(key >> sh) & m for sh in self._shifts])

    def key_degree(self, key: int) -> int:
        m = self._mask
        return sum([(key >> sh) & m for sh in self._shifts])

    def var_key(self, name: str, exp: int = 1) -> int:
        return self.pack(tuple(exp if i == self.index[name] else 0 for i in range(self.nvars)))

    def check_product_exponent(self, e: int) -> None:
        """Raise ExponentOverflow when a product would hold exponent `e`."""
        if e > self._mask:
            raise ExponentOverflow(
                f"product exponent would exceed {self.bits}-bit field; use a wider universe"
            )


# interned universes -----------------------------------------------------

_UCACHE: dict[tuple, Universe] = {}


def _cached(names: tuple[str, ...], bits: int) -> Universe:
    key = (names, bits)
    u = _UCACHE.get(key)
    if u is None:
        u = _UCACHE[key] = Universe(names, bits)
    return u


def x_universe(n: int) -> Universe:
    """x1..xn."""
    return _cached(tuple(f"x{i}" for i in range(1, n + 1)), 8)


def a_universe(n: int) -> Universe:
    """a11..ann, row-major.  7-bit fields keep 9-variable keys within 63 bits.
    From n = 11 on the names collide (a1,11 and a11,1 are both a111)."""
    if n > 10:
        raise ProblemTooLarge(
            f"the entry names a{{i}}{{j}} of a {n} x {n} matrix collide; the limit is n <= 10")
    names = tuple(f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    return _cached(names, 7 if n * n <= 9 else 8)


def t_universe() -> Universe:
    """The single line parameter t, with a wide field for high degrees."""
    return _cached(("t",), 32)


def lru(cache: OrderedDict, size: int, key, make: Callable[[], T]) -> T:
    """cache[key], made by make() on a miss and kept as the most recent
    entry; past `size` entries the least recently used one is dropped.  An
    error in make() propagates and stores nothing."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = make()
    if len(cache) > size:
        cache.popitem(last=False)
    return value


class Polynomial:
    """Immutable-by-convention sparse polynomial over a Universe.

    `terms` maps packed keys to nonzero scalars.  Do not mutate after
    construction; an operation that changes nothing (`canonical` of a
    canonical value) may return its operand itself.
    """

    __slots__ = ("u", "terms", "_deg", "_vmax", "_norms")

    def __init__(self, u: Universe, terms: dict[int, Scalar]):
        self.u = u
        self.terms = terms
        self._deg = None
        self._vmax = None
        self._norms = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(u: Universe) -> "Polynomial":
        return Polynomial(u, {})

    @staticmethod
    def const(u: Universe, c: Scalar) -> "Polynomial":
        c = _demote(c)
        return Polynomial(u, {0: c} if c else {})

    @staticmethod
    def var(u: Universe, name: str, exp: int = 1, coeff: Scalar = 1) -> "Polynomial":
        if name not in u.index:
            raise UniverseMismatch(f"unknown variable {name!r}")
        coeff = _demote(coeff)
        if not coeff:
            return Polynomial(u, {})
        return Polynomial(u, {u.var_key(name, exp): coeff})

    @staticmethod
    def from_exponents(u: Universe, mapping: dict[tuple[int, ...], Scalar]) -> "Polynomial":
        terms = {}
        for exps, c in mapping.items():
            c = _demote(c)
            if c:
                k = u.pack(exps)
                terms[k] = terms.get(k, 0) + c
        return Polynomial(u, {k: c for k, c in terms.items() if c})

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError("not a constant polynomial")

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self._deg is None:
            kd = self.u.key_degree
            self._deg = max((kd(k) for k in self.terms), default=-1)
        return self._deg

    def degree_in(self, names: Iterable[str]) -> int:
        """Max total degree in a subset of variables; -1 for zero."""
        idxs = [self.u.index[nm] for nm in names]
        shifts = [self.u._shifts[i] for i in idxs]
        m = self.u._mask
        return max((sum((k >> sh) & m for sh in shifts) for k in self.terms), default=-1)

    def var_maxes(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over all terms."""
        if self._vmax is None:
            u, keys = self.u, self.terms.keys()
            if _reads_keys(u, len(keys)):
                keys = _np.fromiter(keys, dtype=_np.uint64, count=len(keys))
                self._vmax = tuple(int((keys & (u._mask << sh)).max()) >> sh for sh in u._shifts)
            else:
                self._vmax = tuple(max(map((u._mask << sh).__and__, keys), default=0) >> sh
                                   for sh in u._shifts)
        return self._vmax

    def _norm_info(self):
        """(l1, linf, all_int) over coefficients."""
        if self._norms is None:
            l1 = 0
            linf = 0
            allint = True
            for c in self.terms.values():
                if type(c) is not int:
                    allint = False
                a = -c if c < 0 else c
                l1 += a
                if a > linf:
                    linf = a
            self._norms = (l1, linf, allint)
        return self._norms

    def is_homogeneous(self):
        """Total degree if homogeneous (zero counts as homogeneous of any
        degree -> returns -1), else None."""
        if not self.terms:
            return -1
        kd = self.u.key_degree
        it = iter(self.terms)
        d = kd(next(it))
        for k in it:
            if kd(k) != d:
                return None
        return d

    def leading(self) -> tuple[int, Scalar]:
        """(key, coeff) of the largest monomial in the declared order."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        k = max(self.terms)
        return k, self.terms[k]

    def term_count(self) -> int:
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.u == other.u and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.u.names, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.u != other.u:
            raise UniverseMismatch(f"{self.u.names} vs {other.u.names}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.u, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(self.u, _add_into(dict(a), b))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.u, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.u, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) - c
            if v:
                out[k] = v if type(v) is int else _demote(v)
            else:
                out.pop(k, None)
        return Polynomial(self.u, out)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "Polynomial":
        c = _demote(c)
        if not c:
            return Polynomial(self.u, {})
        if c == 1:
            return self
        return Polynomial(self.u, {k: _demote(v * c) for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return sum_of_products(self.u, [(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = Polynomial.const(self.u, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def exact_div(self, q: "Polynomial") -> "Polynomial":
        """Return h with q*h == self exactly, else raise NotDivisible."""
        if isinstance(q, (int, Fraction)):
            q = Polynomial.const(self.u, q)
        self._check(q)
        if q.is_zero():
            raise DivisionByZeroPolynomial("division by zero polynomial")
        if self.is_zero():
            return Polynomial(self.u, {})
        # deg_x(q*h) = deg_x(q) + deg_x(h) in every variable x
        box = tuple(a - b for a, b in zip(self.var_maxes(), q.var_maxes()))
        if min(box, default=0) < 0:
            raise NotDivisible("remainder nonzero")
        return _divide(self, q, box)

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Exact value at a rational point (one scalar per variable)."""
        if len(point) != self.u.nvars:
            raise ValueError("point length mismatch")
        if not self.terms:
            return 0
        u = self.u
        m = u._mask
        # only the powers that occur, each computed once
        pows: list[dict[int, Scalar]] = [{} for _ in point]
        total: Scalar = 0
        for k, c in self.terms.items():
            val = c
            for v, row, sh in zip(point, pows, u._shifts):
                e = (k >> sh) & m
                if e:
                    p = row.get(e)
                    if p is None:
                        p = row[e] = v ** e
                    val = val * p
            total += val
        return _demote(total)

    def specialize(self, assignment: dict[str, Scalar]) -> "Polynomial":
        """Substitute scalars for a subset of variables (same universe)."""
        u = self.u
        idx = [(u.index[nm], v) for nm, v in assignment.items()]
        out: dict[int, Scalar] = {}
        m = u._mask
        for k, c in self.terms.items():
            val = c
            kk = k
            for i, v in idx:
                sh = u._shifts[i]
                e = (kk >> sh) & m
                if e:
                    val = val * (v ** e)
                    kk &= ~(m << sh)
            if val:
                vv = out.get(kk, 0) + val
                if vv:
                    out[kk] = _demote(vv)
                else:
                    out.pop(kk, None)
        return Polynomial(u, out)

    def convert(self, new_u: Universe) -> "Polynomial":
        """Re-express over another universe matching variables by name.

        Variables absent from `new_u` must not occur in the polynomial.
        """
        u = self.u
        if u == new_u:
            return self
        m = u._mask
        pos = []
        for i, nm in enumerate(u.names):
            pos.append(new_u.index.get(nm))
        out: dict[int, Scalar] = {}
        for k, c in self.terms.items():
            exps = [0] * new_u.nvars
            for i, sh in enumerate(u._shifts):
                e = (k >> sh) & m
                if e:
                    j = pos[i]
                    if j is None:
                        raise UniverseMismatch(
                            f"variable {u.names[i]!r} not present in target universe"
                        )
                    exps[j] = e
            kk = new_u.pack(exps)
            out[kk] = out.get(kk, 0) + c
        return Polynomial(new_u, {k: c for k, c in out.items() if c})

    def derivative(self, name: str) -> "Polynomial":
        u = self.u
        i = u.index[name]
        sh = u._shifts[i]
        m = u._mask
        out: dict[int, Scalar] = {}
        for k, c in self.terms.items():
            e = (k >> sh) & m
            if e:
                out[k - (1 << sh)] = _demote(c * e)
        return Polynomial(u, out)

    # -- canonical form ---------------------------------------------------

    def canonical(self) -> "Polynomial":
        """Scalar-normalized representative: denominators cleared, integer
        content removed, leading coefficient positive."""
        if not self.terms:
            return self
        try:
            # past content 1, math.gcd only checks that the rest are ints
            g = math.gcd(*self.terms.values())
            ints = self.terms
        except TypeError:  # a Fraction coefficient: clear denominators
            den = 1
            for c in self.terms.values():
                if type(c) is Fraction:
                    den = den * c.denominator // math.gcd(den, c.denominator)
            ints = {k: int(c * den) for k, c in self.terms.items()}
            g = math.gcd(*ints.values())
        if ints[max(ints)] < 0:
            g = -g
        if g == 1:
            if ints is self.terms:
                return self
            out = Polynomial(self.u, ints)
        elif g == -1:
            out = Polynomial(self.u, {k: -c for k, c in ints.items()})
        else:
            out = Polynomial(self.u, {k: c // g for k, c in ints.items()})
        out._vmax = self._vmax  # same keys
        return out

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, reverse=True)
        return format_terms(self.u, keys, map(self.terms.__getitem__, keys))


def format_terms(u: Universe, keys: Sequence[int], coeffs: Iterable[Scalar]) -> str:
    """The text of a nonzero polynomial over `u` from its keys and their
    coefficients, printed in the order given.

    Monomials are printed two variables at a time, from one lazily filled
    table per pair read at (k >> sh) & m; tables of three variables miss
    on almost every term of a large determinant.  Terms are made and joined
    a block of `_TEXT_BLOCK` at a time, so the text of every term is never
    held at once; with numpy (`_reads_keys`), each block's table indices
    are read by one shift and mask per pair."""
    groups = []
    for i in range(0, u.nvars, 2):
        names = u.names[i:i + 2]
        groups.append((_Factors(names, u.bits).__getitem__, u._shifts[i + len(names) - 1],
                       (1 << u.bits * len(names)) - 1))
    vectorized = _reads_keys(u, len(keys))
    coeffs = iter(coeffs)
    blocks = []
    for a in range(0, len(keys), _TEXT_BLOCK):
        block = keys[a:a + _TEXT_BLOCK]
        if vectorized:
            block = _np.array(block, dtype=_np.uint64)
            cols = [map(tab, ((block >> sh) & m).tolist()) for tab, sh, m in groups]
        else:
            cols = [map(tab, map(m.__and__, map(sh.__rrshift__, block))) for tab, sh, m in groups]
        blocks.append("".join(_term_texts(map("".join, zip(*cols)), coeffs)))
    # every term was printed with its separator: the first one's is its sign
    blocks[0] = blocks[0][3:] if blocks[0][1] == "+" else "-" + blocks[0][3:]
    return "".join(blocks)


# terms per block of text
_TEXT_BLOCK = 4096


def _term_texts(monos: Iterable[str], coeffs: Iterable[Scalar]) -> Iterable[str]:
    """Each term as " + body" or " - body", from its monomial's text (the
    factors, each with a trailing "*") and its coefficient, as many as
    there are monomials."""
    for mono, c in zip(monos, coeffs):
        neg = c < 0
        a = -c if neg else c
        mono = mono[:-1]
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        yield (" - " if neg else " + ") + body


class _Factors(dict):
    """The text factors of a group of consecutive variables by their packed
    exponents, each factor "name*" or "name^e*", made on first use."""

    def __init__(self, names: Sequence[str], bits: int):
        super().__init__()
        self.names = names
        self.bits = bits

    def __missing__(self, key: int) -> str:
        m = (1 << self.bits) - 1
        factors = []
        for j, name in enumerate(self.names):
            e = key >> self.bits * (len(self.names) - 1 - j) & m
            if e:
                factors.append(f"{name}*" if e == 1 else f"{name}^{e}*")
        s = self[key] = "".join(factors)
        return s


def _clean_terms(acc: dict[int, Scalar]) -> dict[int, Scalar]:
    return {k: _demote(c) for k, c in acc.items() if c}


def _add_into(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
    """a += b termwise, in place, dropping the terms that cancel; a."""
    for k, c in b.items():
        v = a.get(k, 0) + c
        if v:
            a[k] = v if type(v) is int else _demote(v)
        else:
            del a[k]
    return a


# exact division ----------------------------------------------------------


def _leads_leave_box(p: Polynomial, q: Polynomial, box: tuple[int, ...]) -> bool:
    """True when no h with every exponent in [0, box] has q*h = p, as the
    lead terms of 2n + 2 orders show.

    Order (i, s), for each variable i and sign s, compares exponent vectors
    by s*e_i first, then by -s*e_j for every other j in universe order.  It
    is total and compatible with addition, so lead(q*h) = lead(q) + lead(h)
    (Ostrowski): p is not divisible when lead(p) - lead(q) leaves the box.
    The lead under (i, 1) is the smallest key of those with the largest
    e_i, and under (i, -1) the largest key of those with the smallest e_i.
    The key order itself (lex) and its reverse are two more such orders,
    with the largest and the smallest key as leads; they are also the
    orders (i, -1) and (i, 1) of every variable in which neither p nor q
    varies, which so cost nothing.  Each distinct pair of leads is checked
    once, on the packed keys (`_exceeds`).  Divisions large enough for the kernel (`_KERNEL_MIN_PAIRS`) read
    the keys with numpy, as many variables at once as keep the exponents
    read within `_CHUNK`; the rest sort each operand's keys once and read
    in pure Python only the variables in which p or q varies, none when
    just one does.
    """
    u = p.u
    if _np is not None and len(p.terms) * len(q.terms) >= _KERNEL_MIN_PAIRS:
        kdt = "uint64" if u.bits * u.nvars <= 64 else object
        shifts = _np.array(u._shifts, dtype=kdt)[:, None]
        leads = []
        for terms in (p.terms, q.terms):
            keys = _np.fromiter(terms, dtype=kdt, count=len(terms))
            lo, hi = keys.min(), keys.max()
            top, bottom = [], []
            # one row per variable, as many rows as fit `_CHUNK` exponents
            step = max(1, _CHUNK // len(keys))
            for i in range(0, u.nvars, step):
                e = (keys >> shifts[i:i + step]) & u._mask
                top += _np.where(e == e.max(axis=1, keepdims=True), keys, hi).min(axis=1).tolist()
                bottom += _np.where(e == e.min(axis=1, keepdims=True), keys, lo).max(axis=1).tolist()
            leads.append([int(lo), int(hi), *top, *bottom])
        pairs = set(zip(*leads))
    else:
        kp, kq = sorted(p.terms), sorted(q.terms)
        pairs = {(kp[0], kq[0]), (kp[-1], kq[-1])}
        # the bits in which some keys differ, so the fields that vary
        varies = 0
        for keys in (kp, kq):
            varies |= functools.reduce(operator.or_, keys) ^ functools.reduce(operator.and_, keys)
        fields = [u._mask << sh for sh in u._shifts if varies >> sh & u._mask]
        # when one variable varies, its orders are lex and its reverse
        for field in fields if len(fields) > 1 else ():
            ep, eq = list(map(field.__and__, kp)), list(map(field.__and__, kq))
            pairs.add((kp[ep.index(max(ep))], kq[eq.index(max(eq))]))
            pairs.add((kp[~ep[::-1].index(min(ep))], kq[~eq[::-1].index(min(eq))]))
    low, reach = _low_bits(u), u.pack(box)
    # lead(q) + reach has no field past the mask: lead(q)_i + box_i <= vmax_p_i
    return any(_exceeds(lq, lp, low) or _exceeds(lp, lq + reach, low) for lp, lq in pairs)


def _exceeds(a: int, b: int, low: int) -> bool:
    """True when some exponent field of packed key a is larger than b's.

    Then b - a borrows out of the lowest such field, and out of no field
    below it, and a borrow out of a field is a borrow into the lowest bit
    of the next (`low` holds those bits), or b < a for the first field.  A
    borrow into bit k shows as bit k of (b - a) ^ a ^ b."""
    d = b - a
    return d < 0 or bool((d ^ a ^ b) & low)


def _divide(p: Polynomial, q: Polynomial, box: tuple[int, ...]) -> Polynomial:
    """p / q for nonzero p and q, or NotDivisible, as soon as the remainder
    shows it or a quotient term leaves `box` (per-variable exponent bounds).

    A one-term q divides termwise.  When q's terms differ in at most one
    variable, or p and q have fewer term pairs than a sum needs to take the
    kernel (`_KERNEL_MIN_PAIRS`), the heap loop runs.  Otherwise, once the
    lead terms allow a quotient in the box: long division in x, the most
    significant variable in which q's terms differ.  Each quotient slice h
    owes -h times each other slice of q to a lower slice of the remainder.
    A remainder slice (its coefficient of one power of x) is formed only
    when it is the top one, by one `sum_of_products` of its slice of p and
    the products it is owed, which all came from higher slices; a nonzero
    one is divided by q's leading slice, recursively.
    """
    if len(q.terms) == 1:
        return _term_divide(p, q, box)
    u = p.u
    m = u._mask
    varying = [i for i, sh in enumerate(u._shifts)
               if len(set(map((m << sh).__and__, q.terms))) > 1]
    if len(varying) < 2 or len(p.terms) * len(q.terms) < _KERNEL_MIN_PAIRS:
        return _heap_divide(p, q, box)
    if _leads_leave_box(p, q, box):
        raise NotDivisible("remainder nonzero")
    i = varying[0]
    field = m << u._shifts[i]
    s_max = box[i] << u._shifts[i]
    qs = _slices(q, field)
    top = max(qs)
    lead = qs.pop(top)
    rest = [(e - top, t) for e, t in qs.items()]
    one = Polynomial.const(u, 1)
    owed = {e: [(1, t, one)] for e, t in _slices(p, field).items()}
    out: dict[int, Scalar] = {}
    while owed:
        e = max(owed)
        r = sum_of_products(u, owed.pop(e))
        if not r.terms:
            continue
        s = e - top
        if s < 0 or s > s_max:
            raise NotDivisible("remainder nonzero")
        h = _divide(r, lead, box)
        out.update({k + s: c for k, c in h.terms.items()})
        for de, t in rest:
            owed.setdefault(e + de, []).append((-1, h, t))
    return Polynomial(u, out)


def _slices(p: Polynomial, field: int) -> dict[int, Polynomial]:
    """p's terms grouped by the value of one exponent field, which each
    slice has cleared, with their `var_maxes` set."""
    out: dict[int, dict[int, Scalar]] = {}
    for k, c in p.terms.items():
        e = k & field
        t = out.get(e)
        if t is None:
            t = out[e] = {}
        t[k ^ e] = c
    slices = {e: Polynomial(p.u, t) for e, t in out.items()}
    for t in slices.values():
        t.var_maxes()
    return slices


def _quotient(c: Scalar, qc: Scalar) -> Scalar:
    """c / qc, an int when it is one."""
    if type(c) is int and type(qc) is int:
        d, r = divmod(c, qc)
        return d if r == 0 else Fraction(c, qc)
    return _demote(Fraction(c) / qc)


def _low_bits(u: Universe) -> int:
    """The lowest bit of every exponent field but the last (`_exceeds`)."""
    return sum(1 << sh for sh in u._shifts[:-1])


def _term_divide(p: Polynomial, q: Polynomial, box: tuple[int, ...]) -> Polynomial:
    """p / q for a one-term q: every key shifted down by q's, every
    coefficient divided by q's, and NotDivisible when a quotient term
    leaves `box`."""
    u = p.u
    (qk, qc), = q.terms.items()
    low = _low_bits(u)
    # every key within q's key plus the box, field by field
    if _exceeds(u.pack(p.var_maxes()), qk + u.pack(box), low):
        raise NotDivisible("remainder nonzero")
    out: dict[int, Scalar] = {}
    for k, c in p.terms.items():
        s = k - qk
        if s < 0 or (s ^ k ^ qk) & low:  # _exceeds(qk, k, low)
            raise NotDivisible("remainder nonzero")
        out[s] = c
    if qc != 1:
        out = {k: _quotient(c, qc) for k, c in out.items()}
    h = Polynomial(u, out)
    h._vmax = tuple(map(operator.sub, p.var_maxes(), u.unpack(qk)))
    return h


def _heap_divide(p: Polynomial, q: Polynomial, box: tuple[int, ...]) -> Polynomial:
    """p / q by leading terms, the remainder's largest key taken from a heap.

    A quotient term outside `box` raises NotDivisible.  A divisible p is
    done within |p| + |q| pops in most cases; past them, the lead terms
    are checked once (`_leads_leave_box`), so that a dividend whose box
    allows minutes of work fails after little."""
    u = p.u
    qk, qc = q.leading()
    low = _low_bits(u)
    hi = qk + u.pack(box)
    q_rest = [(k, c) for k, c in q.terms.items() if k != qk]
    r = dict(p.terms)
    heap = [-k for k in r]
    heapq.heapify(heap)
    out: dict[int, Scalar] = {}
    pops = len(p.terms) + len(q.terms)
    while r:
        while True:
            k = -heap[0]
            if k in r:
                break
            heapq.heappop(heap)
        c = r.pop(k)
        s = k - qk
        # the quotient term s must have every exponent in [0, box]
        if s < 0 or (s ^ k ^ qk) & low or _exceeds(k, hi, low):
            raise NotDivisible("remainder nonzero")
        pops -= 1
        if not pops and _leads_leave_box(p, q, box):
            raise NotDivisible("remainder nonzero")
        cc = out[s] = _quotient(c, qc)
        for k2, c2 in q_rest:
            kk = s + k2
            if kk in r:
                v = r[kk] - cc * c2
                if v:
                    r[kk] = _demote(v)
                else:
                    del r[kk]
            else:
                # fresh key: one heap entry is enough; keys that later
                # cancel and reappear are re-pushed on reappearance
                r[kk] = _demote(-cc * c2)
                heapq.heappush(heap, -kk)
    return Polynomial(u, out)


# sums of products ----------------------------------------------------------

# the fewest term pairs of a sum that takes the numpy kernel
_KERNEL_MIN_PAIRS = 4096
# the fewest keys that are read with numpy rather than one at a time
_NP_MIN_KEYS = 128


def _reads_keys(u: Universe, n: int) -> bool:
    """Whether n keys of `u` are read with numpy: it is there, there are
    `_NP_MIN_KEYS` or more, and they fit in 64 bits."""
    return _np is not None and n >= _NP_MIN_KEYS and u.bits * u.nvars <= 64


def sum_of_products(u: Universe,
                    triples: Sequence[tuple[int, Polynomial, Polynomial]]) -> Polynomial:
    """The exact sum of sign*p*q over `(sign, p, q)` triples, sign 1 or -1.

    The exponent field is checked on the largest exponent the sum can hold
    before any work.  With numpy, integer sums of `_KERNEL_MIN_PAIRS` or
    more term pairs go to `_np_mul`.  The portable path, which also serves
    every sum the kernel declines, accumulates every pair of every triple
    into one dict.
    """
    top = pairs = 0
    live = []
    for t in triples:
        _, p, q = t
        if p.terms and q.terms:
            live.append(t)
            top = max(top, 0, *map(operator.add, p.var_maxes(), q.var_maxes()))
            pairs += len(p.terms) * len(q.terms)
    u.check_product_exponent(top)
    if _np is not None and pairs >= _KERNEL_MIN_PAIRS:
        out = _np_mul(live)
        if out is not None:
            return out
    acc: dict[int, Scalar] = {}
    get = acc.get
    for sign, p, q in live:
        a, b = p.terms, q.terms
        if len(a) > len(b):
            a, b = b, a
        bi = list(b.items())
        for k1, c1 in a.items():
            if sign < 0:
                c1 = -c1
            for k2, c2 in bi:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return Polynomial(u, _clean_terms(acc))


# numpy product kernel -----------------------------------------------------

_I64_SAFE = 1 << 62
# an int64 product split into a signed high limb and a low limb of 31 bits
_LIMB = 31
# term pairs per chunk, for every value form: a chunk's keys and values
# stay in L2 between the outer product that writes them and `np.add.at`
_CHUNK = 1 << 16
# cells of the accumulator, per limb
_DENSE_CELLS = 1 << 20
# a sum whose compacted box has more cells than this per pair takes the
# dict loop.  Every cell of a stripe is scanned (~3.4 ns for int64), so on
# sparse random sums the dict loop wins past ~50-100 cells per pair for
# int64 values, ~30 for limbs and ~20 for exact ints; 16 is below all three.
# The products of the determinants have at most 6 cells per pair.
_CELLS_PER_PAIR = 16
# the rank of sampled exponent differences is taken mod this prime
_RANK_PRIME = (1 << 61) - 1


def _np_mul(triples: Sequence[tuple[int, Polynomial, Polynomial]]):
    """The sum of sign*p*q over nonempty triples by one kernel, as a
    Polynomial with its `var_maxes` set, or None when it declines.

    The certificate picks how values are held.  Every output coefficient is
    a sum of products whose absolute values total at most the sum over
    triples of min(l1_p*linf_q, linf_p*l1_q): below 2**62 the sums are
    int64.  Failing that, when every product is below 2**62 and there are
    fewer than 2**31 pairs, each product is split into two int64 limbs
    (v >> 31, v & (2**31-1)) whose sums stay below 2**62, and the limbs are
    joined as Python ints per output term.  Otherwise the values are exact
    Python ints in object arrays.

    The exponent box has dims_i = max over triples of vp_i + vq_i, plus 1,
    the first variable most significant.  `_relations` drops one digit of
    the box per exact linear relation that every pair sum's exponents keep,
    and the kept digits index the compacted box.  The kernel declines when
    that box has more than `_CELLS_PER_PAIR` cells per pair, or when its
    last digit alone is wider than `_DENSE_CELLS`; `_box_past` sees most
    such sparse sums from a few keys, before the coefficient norms or any
    exponent row.  It declines on non-integer coefficients before building
    any array.

    Pairs are scatter-added into the compacted box, one stripe at a time.
    The trailing kept digits whose box fits `_DENSE_CELLS` index a stripe's
    accumulator, and the leading ones pick the stripe.  Each operand's rows
    are grouped by their leading index; a stripe takes the group pairs whose
    leading indices add to it, in blocks of their outer products, and
    scatter-adds them with `np.add.at` into one array per limb.  Every value
    form buffers at most `_CHUNK` pairs (fewer when no single product has
    that many), so the buffers stay in cache and fusing products does not
    grow them; limbs are split into one more such buffer.  The cells a
    stripe touched are read with `flatnonzero` and zeroed.  The buffers and
    the accumulator are freed before the output is built.  Dropped digits
    are rebuilt from the kept ones by exact division, and the terms equal
    the dict loop's, in ascending key order.
    """
    ops = [(sign, p, q) if len(p.terms) <= len(q.terms) else (sign, q, p)
           for sign, p, q in triples]
    pairs = sum(len(p.terms) * len(q.terms) for _, p, q in ops)
    u = ops[0][1].u
    dims = [1] * u.nvars
    for _, p, q in ops:
        dims = [max(d, x + y + 1) for d, x, y in zip(dims, p.var_maxes(), q.var_maxes())]
    digits = [(i, sh, d) for i, (sh, d) in enumerate(zip(u._shifts, dims)) if d > 1]
    if _box_past(ops, digits, u._mask, _CELLS_PER_PAIR * pairs):
        return None
    bound = 0
    products_fit = True
    for _, p, q in ops:
        l1p, lip, aip = p._norm_info()
        l1q, liq, aiq = q._norm_info()
        if not (aip and aiq):
            return None
        bound += min(l1p * liq, lip * l1q)
        products_fit = products_fit and lip * liq < _I64_SAFE
    if bound < _I64_SAFE:
        vdt, limbs = "int64", 1
    elif products_fit and pairs < _I64_SAFE >> _LIMB:
        vdt, limbs = "int64", 2
    else:
        vdt, limbs = object, 1
    cap = min(_CHUNK, max(len(p.terms) * len(q.terms) for _, p, q in ops))
    kdt = "uint64" if u.bits * u.nvars <= 64 else object

    def operand(terms, sign=1):
        """One int64 row of exponents per digit, and the values."""
        keys = _np.fromiter(terms.keys(), dtype=kdt, count=len(terms))
        exps = _np.array([(keys >> sh) & u._mask for _, sh, _ in digits],
                         dtype=_np.int64).reshape(len(digits), len(terms))
        vals = terms.values() if sign > 0 else map(operator.neg, terms.values())
        return exps, _np.fromiter(vals, dtype=vdt, count=len(terms))

    operands = [(*operand(p.terms, sign), *operand(q.terms)) for sign, p, q in ops]
    rels = _relations(operands, [d for *_, d in digits])
    dropped = {j for j, _, _ in rels}
    kept = [i for i in range(len(digits)) if i not in dropped]
    kdims = [digits[i][2] for i in kept]
    cells = math.prod(kdims)
    if cells > _CELLS_PER_PAIR * pairs:
        return None
    lead, inner = len(kept), 1
    while lead and inner * kdims[lead - 1] <= _DENSE_CELLS:
        lead -= 1
        inner *= kdims[lead]
    if inner == 1 and kept:
        return None  # the last digit alone is wider than a stripe
    stripes = cells // inner
    kstrides = [math.prod(kdims[i + 1:]) for i in range(len(kept))]
    reach = _np.arange(stripes + 1)  # the bounds of Q's rows by leading index
    groups = []
    for pe, pv, qe, qv in operands:
        sides = []
        for e, v in ((pe, pv), (qe, qv)):
            idx = _np.zeros(e.shape[1], dtype=_np.int64)
            for i, s in zip(kept, kstrides):
                idx += e[i] * s
            order = _np.argsort(idx // inner, kind="stable")
            idx = idx[order]
            sides.append((idx // inner, idx % inner, v[order]))
        (pl, pr, pv), (ql, qr, qv) = sides
        heads, starts = _np.unique(pl, return_index=True)
        # P's leading indices with their rows, Q's rows by leading index,
        # and the range of Q's leading indices
        groups.append((heads.tolist(), [*starts.tolist(), len(pl)],
                       _np.searchsorted(ql, reach).tolist(), int(ql[0]), int(ql[-1]),
                       pr, pv, qr, qv))
    # the exponent rows are spent: freeing them lowers the peak
    del operands, pe, qe, e
    key = _np.empty(cap, dtype=_np.int64)
    val = _np.empty(cap, dtype=vdt)
    limb = _np.empty(cap, dtype=vdt) if limbs == 2 else None
    acc = _np.zeros((limbs, inner), dtype=vdt)
    low = (1 << _LIMB) - 1

    def scatter(n):
        if limbs == 1:
            _np.add.at(acc[0], key[:n], val[:n])
        else:
            _np.add.at(acc[0], key[:n], _np.right_shift(val[:n], _LIMB, out=limb[:n]))
            _np.add.at(acc[1], key[:n], _np.bitwise_and(val[:n], low, out=limb[:n]))

    found_cells, found_vals = [], []
    for stripe in range(stripes):
        at = 0
        for heads, rows, qb, qlo, qhi, pr, pv, qr, qv in groups:
            for g in range(bisect.bisect_left(heads, stripe - qhi),
                           bisect.bisect_right(heads, stripe - qlo)):
                r0, r1 = rows[g], rows[g + 1]
                q0, q1 = qb[stripe - heads[g]], qb[stripe - heads[g] + 1]
                # blocks of at most cap columns, and as many rows as fit
                for c0 in range(q0, q1, cap):
                    c1 = min(c0 + cap, q1)
                    step = cap // (c1 - c0)
                    for r in range(r0, r1, step):
                        shape = (min(step, r1 - r), c1 - c0)
                        if at + shape[0] * shape[1] > cap:
                            scatter(at)
                            at = 0
                        end = at + shape[0] * shape[1]
                        _np.add(pr[r:r + shape[0], None], qr[c0:c1], out=key[at:end].reshape(shape))
                        _np.multiply(pv[r:r + shape[0], None], qv[c0:c1], out=val[at:end].reshape(shape))
                        at = end
        if not at:
            continue
        scatter(at)
        hit = _np.flatnonzero(acc[0] if limbs == 1 else acc.any(axis=0))
        found_cells.append(hit + stripe * inner)
        found_vals.append(acc[:, hit])
        acc[:, hit] = 0
    # the scratch is spent before the output is built
    del key, val, limb, acc, groups
    cell = _np.concatenate(found_cells)
    del found_cells
    acc_v = _np.concatenate(found_vals, axis=1)
    del found_vals
    vals = acc_v[0]
    if limbs == 2:
        vals = (vals.astype(object) << _LIMB) + acc_v[1].astype(object)
    del acc_v
    nz = vals != 0
    cell, vals = cell[nz], vals[nz]
    # keys digit by digit: the kept ones, then each dropped one from its relation
    keys = _np.zeros(len(cell), dtype=kdt)
    vmax = [0] * u.nvars
    rest = [_np.full(len(cell), c, dtype=_np.int64) for _, _, c in rels]
    for i, s, d in zip(kept, kstrides, kdims):
        e = (cell // s) % d
        for (_, w, _), t in zip(rels, rest):
            if w[i]:
                t -= e * w[i]
        _put_digit(keys, vmax, digits[i], e, kdt)
    for (j, w, _), t in zip(rels, rest):
        t //= w[j]
        _put_digit(keys, vmax, digits[j], t, kdt)
    order = _np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    del cell, nz, rest, order
    out = Polynomial(u, _terms_of(keys, vals))
    out._vmax = tuple(vmax)
    return out


def _terms_of(keys, vals) -> dict[int, Scalar]:
    """The dict of two arrays' elements as Python ints, made a block at a
    time, so no whole list of either is held beside it."""
    terms: dict[int, Scalar] = {}
    for a in range(0, len(keys), _CHUNK):
        terms.update(zip(keys[a:a + _CHUNK].tolist(), vals[a:a + _CHUNK].tolist()))
    return terms


def _box_past(ops, digits, mask: int, limit: int) -> bool:
    """True when the box that `_relations` compacts is sure to have more
    than `limit` cells, from a few keys of each operand.

    Relations are orthogonal to every exponent difference within an
    operand and between the triples' base sums.  The differences among
    about k + 2 keys of each operand and between the triples' first-key
    sums span part of that space, so their rank r (mod a prime, which can
    only lower it) leaves room for at most k - r relations over the k
    digits.  Each relation drops one digit, so the compacted box keeps at
    least the product of the r narrowest.  Nothing is sampled when the
    whole box is within `limit`.
    """
    widths = sorted(d for *_, d in digits)
    if math.prod(widths) <= limit:
        return False
    shifts = [sh for _, sh, _ in digits]
    span = len(shifts) + 1

    def exps(key):
        return [(key >> sh) & mask for sh in shifts]

    def differences():
        base0 = None
        for _, p, q in ops:
            firsts = []
            for terms in (p.terms, q.terms):
                keys = itertools.islice(terms, 0, None, max(1, len(terms) // span))
                e0 = exps(next(keys))
                firsts.append(e0)
                for k in keys:
                    yield [a - b for a, b in zip(exps(k), e0)]
            base = list(map(operator.add, *firsts))
            if base0 is None:
                base0 = base
            else:
                yield [a - b for a, b in zip(base, base0)]

    basis: list[tuple[int, list[int]]] = []  # (pivot, row): 1 at its pivot, 0 at earlier ones
    floor = 1
    for v in differences():
        for c, row in basis:
            if v[c]:
                f = v[c]
                v = [(x - f * y) % _RANK_PRIME for x, y in zip(v, row)]
        c = next((i for i, x in enumerate(v) if x % _RANK_PRIME), None)
        if c is None:
            continue
        inv = pow(v[c], -1, _RANK_PRIME)
        basis.append((c, [x * inv % _RANK_PRIME for x in v]))
        floor *= widths[len(basis) - 1]
        if floor > limit:
            return True
    return False


def _relations(operands, dims: list[int]) -> list[tuple[int, list[int], int]]:
    """The exact linear relations w.e = c that every pair sum's exponent
    vector e satisfies, over the kernel's digits (`dims` their sizes), as
    (j, w, c): w is an integer vector, nonzero at j, and zero at every
    other relation's j, so e_j = (c - w.e + w_j*e_j) / w_j exactly.

    w is orthogonal to every exponent difference within an operand and to
    every difference between the triples' base sums e_p0 + e_q0; that
    nullspace is the nullspace of their Gram matrix, found by fraction-free
    Gauss-Jordan elimination.  Columns are taken narrowest first, so the
    digits left without a pivot, the ones the relations drop, are the
    widest the relations allow.  When the Gram entries could pass 2**62
    there are no relations.
    """
    k = len(dims)
    rows = sum(pe.shape[1] + qe.shape[1] for pe, _, qe, _ in operands)
    if not k or (rows + len(operands)) * max(dims) ** 2 >= _I64_SAFE:
        return []
    gram = _np.zeros((k, k), dtype=_np.int64)
    for pe, _, qe, _ in operands:
        for e in (pe, qe):
            delta = e - e[:, :1]
            gram += delta @ delta.T
    base = [pe[:, 0] + qe[:, 0] for pe, _, qe, _ in operands]
    for e in base[1:]:
        gram += _np.outer(e - base[0], e - base[0])
    order = sorted(range(k), key=lambda i: (dims[i], i))
    m = [[int(gram[r, c]) for c in order] for r in range(k)]
    pivots: list[int] = []
    for c in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, k) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(k):
            if i != r and m[i][c]:
                a, f = m[r][c], m[i][c]
                row = [a * x - f * y for x, y in zip(m[i], m[r])]
                g = math.gcd(*row) or 1
                m[i] = [x // g for x in row]
        pivots.append(c)
    out = []
    for c in range(k):
        if c in pivots:
            continue
        lcm = math.lcm(*(m[r][p] for r, p in enumerate(pivots)))
        w = [0] * k
        w[order[c]] = lcm
        for r, p in enumerate(pivots):
            w[order[p]] = -m[r][c] * lcm // m[r][p]
        g = math.gcd(*w)
        w = [x // g for x in w]
        # keeps w.e within int64 for every e in the box
        if max(map(abs, w)) * sum(dims) < _I64_SAFE:
            out.append((order[c], w, sum(x * int(e) for x, e in zip(w, base[0]))))
    return out


def _put_digit(keys, vmax: list[int], digit, e, kdt) -> None:
    """Or one digit's exponents `e` into `keys`, and note their maximum."""
    i, sh, _ = digit
    if len(e):
        vmax[i] = int(e.max())
    keys |= e.astype(kdt) << sh


# univariate helpers ------------------------------------------------------


def univariate_coeffs(p: Polynomial) -> list[Scalar]:
    """Coefficient list [c_0, ..., c_deg] of a polynomial that uses at most
    one variable."""
    u = p.u
    if not p.terms:
        return [0]
    m = u._mask
    used = [i for i, e in enumerate(p.var_maxes()) if e]
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    if not used:
        return [p.terms.get(0, 0)]
    sh = u._shifts[used[0]]
    deg = p.var_maxes()[used[0]]
    out: list[Scalar] = [0] * (deg + 1)
    for k, c in p.terms.items():
        out[(k >> sh) & m] = c
    return out


def root_multiplicity_at_zero(p: Polynomial) -> int:
    """Largest e such that t^e divides the univariate polynomial."""
    if not p.terms:
        raise ZeroPolynomial("multiplicity undefined for the zero polynomial")
    return next(i for i, c in enumerate(univariate_coeffs(p)) if c)


def sylvester_resultant(u_coeffs: list, v_coeffs: list):
    """Resultant of two univariate polynomials given by coefficient lists
    (ascending degree, entries scalars or Polynomials), via the Sylvester
    matrix determinant."""
    from .polymatrix import bareiss_det, qmat_det  # polymatrix imports this module

    while len(u_coeffs) > 1 and not u_coeffs[-1]:
        u_coeffs = u_coeffs[:-1]
    while len(v_coeffs) > 1 and not v_coeffs[-1]:
        v_coeffs = v_coeffs[:-1]
    m = len(u_coeffs) - 1
    n = len(v_coeffs) - 1
    if m < 1 or n < 1:
        raise ValueError("resultant needs two polynomials of positive degree")
    size = m + n
    poly_mode = any(isinstance(c, Polynomial) for c in u_coeffs + v_coeffs)
    if poly_mode:
        uu = next(c.u for c in u_coeffs + v_coeffs if isinstance(c, Polynomial))
        lift = lambda c: c if isinstance(c, Polynomial) else Polynomial.const(uu, c)
        zero = Polynomial(uu, {})
        u_coeffs = [lift(c) for c in u_coeffs]
        v_coeffs = [lift(c) for c in v_coeffs]
    else:
        zero = 0
    rows = []
    ud = list(reversed(u_coeffs))  # descending degree
    vd = list(reversed(v_coeffs))
    for i in range(n):
        rows.append([zero] * i + ud + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + vd + [zero] * (size - n - 1 - i))
    return bareiss_det(rows, zero) if poly_mode else qmat_det(rows)


def univariate_discriminant(u_coeffs):
    """disc(u) = (-1)^(m(m-1)/2) * Res(u, u') / lc(u).

    `u_coeffs` is either a Polynomial in a single variable or an
    ascending-degree coefficient list (scalars and/or Polynomials).
    """
    if isinstance(u_coeffs, Polynomial):
        u_coeffs = univariate_coeffs(u_coeffs)
    coeffs = list(u_coeffs)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs = coeffs[:-1]
    m = len(coeffs) - 1
    if m < 2:
        raise ValueError("discriminant needs degree >= 2")
    dcoeffs = [c * (i + 1) if isinstance(c, Polynomial) else _demote(c * (i + 1))
               for i, c in enumerate(coeffs[1:])]
    res = sylvester_resultant(coeffs, dcoeffs)
    lc = coeffs[-1]
    val = res.exact_div(lc) if isinstance(res, Polynomial) else _demote(Fraction(res) / lc)
    if (m * (m - 1) // 2) % 2:
        val = -val
    return val


# text grammar ------------------------------------------------------------

_TERM_SPLIT = re.compile(r"(?<!\^)([+-])")
_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")
_NUMBER = re.compile(r"^\d+(?:/\d+)?$")


def parse_polynomial(text: str, u: Universe) -> Polynomial:
    """Parse the canonical text grammar: signed terms of the form
    [coeff '*'] var['^'exp] ['*' var['^'exp] ...], coefficients `p` or `p/q`.
    Repeated factors of a variable add their exponents (`ExponentOverflow`
    when the sum does not fit the field)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise PolynomialParseError("empty input")
    if s == "0":
        return Polynomial.zero(u)
    pieces = _TERM_SPLIT.split(s)
    # pieces: [lead, sep, term, sep, term, ...] with lead possibly ''
    terms_text: list[tuple[int, str]] = []
    if pieces[0]:
        terms_text.append((1, pieces[0]))
    i = 1
    while i < len(pieces):
        sign = -1 if pieces[i] == "-" else 1
        body = pieces[i + 1] if i + 1 < len(pieces) else ""
        if not body:
            raise PolynomialParseError(f"dangling sign in {text!r}")
        terms_text.append((sign, body))
        i += 2
    acc: dict[int, Scalar] = {}
    for sign, body in terms_text:
        coeff: Scalar = sign
        exps = [0] * u.nvars
        for factor in body.split("*"):
            if not factor:
                raise PolynomialParseError(f"empty factor in {text!r}")
            if _NUMBER.match(factor):
                if "/" in factor:
                    num, den = factor.split("/")
                    if int(den) == 0:
                        raise PolynomialParseError(f"zero denominator in {text!r}")
                    coeff = coeff * Fraction(int(num), int(den))
                else:
                    coeff = coeff * int(factor)
                continue
            mm = _FACTOR.match(factor)
            if not mm:
                raise PolynomialParseError(f"bad factor {factor!r}")
            name, exp = mm.group(1), int(mm.group(2) or 1)
            if name not in u.index:
                raise PolynomialParseError(f"unknown variable {name!r}")
            exps[u.index[name]] += exp
        key = u.pack(exps)
        v = acc.get(key, 0) + coeff
        if v:
            acc[key] = _demote(v)
        else:
            acc.pop(key, None)
    return Polynomial(u, acc)
