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
the common case for every determinant in this package.  An optional numpy
fast path accelerates large products; it is only taken when a certified
coefficient bound proves int64 accumulation cannot overflow, so results are
bit-identical to the portable path.
"""

from __future__ import annotations

import heapq
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

try:  # optional accelerator; guarded so the package stays dependency-free
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

Scalar = Union[int, Fraction]


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
                raise OverflowError(f"exponent {e} out of range for {self.bits}-bit fields")
            key |= e << sh
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        m = self._mask
        return tuple((key >> sh) & m for sh in self._shifts)

    def key_degree(self, key: int) -> int:
        m = self._mask
        return sum((key >> sh) & m for sh in self._shifts)

    def var_key(self, name: str, exp: int = 1) -> int:
        return self.pack(tuple(exp if i == self.index[name] else 0 for i in range(self.nvars)))


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
    """a11..ann, row-major.  7-bit fields keep 9-variable keys within 63 bits."""
    names = tuple(f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    return _cached(names, 7 if n * n <= 9 else 8)


def t_universe() -> Universe:
    """The single line parameter t, with a wide field for high degrees."""
    return _cached(("t",), 32)


class Polynomial:
    """Immutable-by-convention sparse polynomial over a Universe.

    `terms` maps packed keys to nonzero scalars.  Do not mutate after
    construction; every operation returns a fresh value.
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
            m = self.u._mask
            out = [0] * self.u.nvars
            for k in self.terms:
                for i, sh in enumerate(self.u._shifts):
                    e = (k >> sh) & m
                    if e > out[i]:
                        out[i] = e
            self._vmax = tuple(out)
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

    def terms_sorted(self) -> Iterator[tuple[int, Scalar]]:
        for k in sorted(self.terms, reverse=True):
            yield k, self.terms[k]

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
        out = dict(a)
        for k, c in b.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = _demote(v)
            else:
                out.pop(k, None)
        return Polynomial(self.u, out)

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
                out[k] = _demote(v)
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
        if not self.terms or not other.terms:
            return Polynomial(self.u, {})
        # overflow guard on exponent fields
        u = self.u
        va, vb = self.var_maxes(), other.var_maxes()
        cap = u._mask
        for x, y in zip(va, vb):
            if x + y > cap:
                raise OverflowError(
                    f"product exponent would exceed {u.bits}-bit field; "
                    "use a wider universe"
                )
        if _np is not None and len(self.terms) * len(other.terms) >= 4096:
            out = _np_mul(self, other)
            if out is not None:
                return Polynomial(u, out)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[int, Scalar] = {}
        get = acc.get
        bi = list(b.items())
        for k1, c1 in a.items():
            for k2, c2 in bi:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return Polynomial(u, _clean_terms(acc))

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
        u = self.u
        qk, qc = q.leading()
        qfields = u.unpack(qk)
        q_rest = [(k, c) for k, c in q.terms.items() if k != qk]
        r = dict(self.terms)
        heap = [-k for k in r]
        heapq.heapify(heap)
        out: dict[int, Scalar] = {}
        unpack = u.unpack
        qc_is_int = type(qc) is int
        while r:
            while True:
                k = -heap[0]
                if k in r:
                    break
                heapq.heappop(heap)
            c = r.pop(k)
            kf = unpack(k)
            if any(x < y for x, y in zip(kf, qfields)):
                raise NotDivisible("remainder nonzero")
            s = k - qk
            if qc_is_int and type(c) is int:
                d, mrem = divmod(c, qc)
                cc = d if mrem == 0 else Fraction(c, qc)
            else:
                cc = _demote(Fraction(c) / qc if not isinstance(c, Fraction) else c / qc)
            out[s] = cc
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
        return Polynomial(u, {k: c for k, c in out.items() if c})

    def divides(self, p: "Polynomial") -> bool:
        try:
            p.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Exact value at a rational point (one scalar per variable)."""
        if len(point) != self.u.nvars:
            raise ValueError("point length mismatch")
        if not self.terms:
            return 0
        u = self.u
        m = u._mask
        vm = self.var_maxes()
        pows: list[list[Scalar]] = []
        for v, e in zip(point, vm):
            row = [1] * (e + 1)
            acc = 1
            for i in range(1, e + 1):
                acc *= v
                row[i] = acc
            pows.append(row)
        total: Scalar = 0
        shifts = u._shifts
        for k, c in self.terms.items():
            val = c
            for i, sh in enumerate(shifts):
                e = (k >> sh) & m
                if e:
                    val = val * pows[i][e]
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
        den = 1
        for c in self.terms.values():
            if type(c) is Fraction:
                den = den * c.denominator // math.gcd(den, c.denominator)
        g = 0
        ints = {}
        for k, c in self.terms.items():
            ci = int(c * den) if den != 1 or type(c) is Fraction else c
            ints[k] = ci
            g = math.gcd(g, ci)
        lead = max(ints)
        sign = 1 if ints[lead] > 0 else -1
        g *= sign
        return Polynomial(self.u, {k: c // g for k, c in ints.items()})

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        u = self.u
        m = u._mask
        parts = []
        for k, c in self.terms_sorted():
            neg = c < 0
            a = -c if neg else c
            factors = []
            for i, sh in enumerate(u._shifts):
                e = (k >> sh) & m
                if e == 1:
                    factors.append(u.names[i])
                elif e > 1:
                    factors.append(f"{u.names[i]}^{e}")
            if not factors:
                body = str(a)
            elif a == 1:
                body = "*".join(factors)
            else:
                body = str(a) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)


def _clean_terms(acc: dict[int, Scalar]) -> dict[int, Scalar]:
    return {k: _demote(c) for k, c in acc.items() if c}


# numpy fast path ---------------------------------------------------------

_I64_SAFE = 1 << 62


def _np_mul(p: Polynomial, q: Polynomial):
    """Exact int64 product, or None when exactness cannot be certified.

    Certificate: every output coefficient is a sum of at most min(T_p, T_q)
    products |c1*c2| <= linf_a * l1_b (for either pairing), so when
    min(l1_p*linf_q, linf_p*l1_q) < 2**62 no intermediate or final value
    can leave the int64 range.  Keys must fit in 63 bits.
    """
    u = p.u
    if u.bits * u.nvars > 63:
        return None
    l1p, lip, aip = p._norm_info()
    l1q, liq, aiq = q._norm_info()
    if not (aip and aiq):
        return None
    if min(l1p * liq, lip * l1q) >= _I64_SAFE:
        return None
    pk = _np.fromiter(p.terms.keys(), dtype=_np.int64, count=len(p.terms))
    pv = _np.fromiter(p.terms.values(), dtype=_np.int64, count=len(p.terms))
    qk = _np.fromiter(q.terms.keys(), dtype=_np.int64, count=len(q.terms))
    qv = _np.fromiter(q.terms.values(), dtype=_np.int64, count=len(q.terms))
    if len(pk) > len(qk):
        pk, pv, qk, qv = qk, qv, pk, pv
    # chunk the outer product and fold each chunk into a running
    # accumulator so working memory stays ~ |result| + one chunk
    budget = 1 << 22
    step = max(1, budget // max(len(qk), 1))
    acc_k = acc_v = None
    for i in range(0, len(pk), step):
        kk = (pk[i : i + step, None] + qk[None, :]).ravel()
        vv = (pv[i : i + step, None] * qv[None, :]).ravel()
        kk, vv = _np_reduce(kk, vv)
        if acc_k is None:
            acc_k, acc_v = kk, vv
        else:
            acc_k, acc_v = _np_reduce(
                _np.concatenate([acc_k, kk]), _np.concatenate([acc_v, vv])
            )
    return {int(k): c for k, c in zip(acc_k.tolist(), acc_v.tolist()) if c}


def _np_reduce(keys, vals):
    """Sum values over equal keys (sorted-unique + reduceat)."""
    order = _np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    if len(keys) == 0:
        return keys, vals
    starts = _np.flatnonzero(_np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = _np.add.reduceat(vals, starts)
    return keys[starts], sums


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
    u = p.u
    m = u._mask
    used = [i for i, e in enumerate(p.var_maxes()) if e]
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    if not used:
        return 0
    sh = u._shifts[used[0]]
    return min((k >> sh) & m for k in p.terms)


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
    [coeff '*'] var['^'exp] ['*' var['^'exp] ...], coefficients `p` or `p/q`."""
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
        key = 0
        for factor in body.split("*"):
            if not factor:
                raise PolynomialParseError(f"empty factor in {text!r}")
            if _NUMBER.match(factor):
                if "/" in factor:
                    num, den = factor.split("/")
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
            key += u.var_key(name, exp)
        v = acc.get(key, 0) + coeff
        if v:
            acc[key] = _demote(v)
        else:
            acc.pop(key, None)
    return Polynomial(u, acc)
