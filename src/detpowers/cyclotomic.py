"""Exact scalar arithmetic: cyclotomic fields Q(w).

A `Cyc` is an element of Q[x]/(Phi_n) where Phi_n is the n-th cyclotomic
polynomial, stored as an integer numerator vector over the power basis
1, w, ..., w^(phi(n)-1) together with one positive common denominator.
Because Phi_n is irreducible over Q this is a field, so equality with zero
is simply "all numerators zero" and every nonzero element has an inverse.
No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer polynomials, dense little-endian coefficient tuples


def _poly_divmod_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Divide integer polynomials known to divide exactly (den monic)."""
    num_l = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(out) - 1, -1, -1):
        c = num_l[k + dn]
        out[k] = c
        if c:
            for i, di in enumerate(den):
                num_l[k + i] -= c * di
    if any(num_l):
        raise ArithmeticError("polynomial division left a remainder")
    return tuple(out)


@functools.cache
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of the order-th cyclotomic polynomial, constant term first.

    Computed by exact integer division of x^order - 1 by the cyclotomic
    polynomials of all proper divisors.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    num = tuple([-1] + [0] * (order - 1) + [1])  # x^order - 1
    for e in range(1, order):
        if order % e == 0:
            num = _poly_divmod_exact(num, cyclotomic_polynomial(e))
    return num


class _FieldData:
    """Cached per-order tables used by Cyc arithmetic."""

    __slots__ = ("order", "phi", "modulus", "reduction")

    def __init__(self, order: int):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.phi = len(self.modulus) - 1
        # reduction[k] = coefficients of x^(phi+k) reduced mod Phi
        rows: list[tuple[int, ...]] = []
        # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1}), Phi monic
        cur = [-c for c in self.modulus[:-1]]
        rows.append(tuple(cur))
        for _ in range(self.phi - 2):
            shifted = [0] + cur[:-1]
            lead = cur[-1]
            if lead:
                for i in range(self.phi):
                    shifted[i] += lead * rows[0][i]
            cur = shifted
            rows.append(tuple(cur))
        self.reduction = tuple(rows)


@functools.cache
def _field(order: int) -> _FieldData:
    return _FieldData(order)


# ---------------------------------------------------------------------------
# cyclotomic field elements


class Cyc:
    """An exact element of the cyclotomic field of the given root order."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple[int, ...], den: int = 1):
        if den == 0:
            raise ValueError("denominator must be nonzero")
        phi = _field(order).phi
        if len(num) != phi:
            raise ValueError(f"expected {phi} basis coefficients, got {len(num)}")
        canonical = Cyc._make(order, list(num), den)
        self.order = order
        self.num = canonical.num
        self.den = canonical.den

    # construction -----------------------------------------------------------

    @staticmethod
    def _make(order: int, num: list[int], den: int) -> "Cyc":
        """Normalize and build without re-validating lengths."""
        if den < 0:
            den = -den
            num = [-c for c in num]
        if den != 1:
            g = den
            for c in num:
                if c:
                    g = math.gcd(g, c)
            if g > 1:
                den //= g
                num = [c // g for c in num]
            if all(c == 0 for c in num):
                den = 1
        out = Cyc.__new__(Cyc)
        out.order = order
        out.num = tuple(num)
        out.den = den
        return out

    @classmethod
    def zero(cls, order: int) -> "Cyc":
        return _int_cyc(order, 0)

    @classmethod
    def one(cls, order: int) -> "Cyc":
        return _int_cyc(order, 1)

    @classmethod
    def from_int(cls, order: int, n: int) -> "Cyc":
        return _int_cyc(order, n)

    @classmethod
    def from_fraction(cls, order: int, value: Fraction | int) -> "Cyc":
        f = Fraction(value)
        phi = _field(order).phi
        return cls._make(order, [f.numerator] + [0] * (phi - 1), f.denominator)

    # predicates and views ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def rational(self) -> Fraction | None:
        """The value as a Fraction if it lies in Q, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def root_power(self) -> int | None:
        """If this value equals w^k for some k in [0, order), return k."""
        return _root_power_table(self.order).get((self.num, self.den))

    # arithmetic --------------------------------------------------------------

    def _coerce(self, other) -> "Cyc | None":
        if isinstance(other, Cyc):
            if other.order != self.order:
                raise ValueError(
                    f"mixed root orders {self.order} and {other.order}")
            return other
        if isinstance(other, int):
            return _int_cyc(self.order, other)
        if isinstance(other, Fraction):
            return Cyc.from_fraction(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == 1 and o.den == 1:
            out = Cyc.__new__(Cyc)
            out.order = self.order
            out.num = tuple(a + b for a, b in zip(self.num, o.num))
            out.den = 1
            return out
        d = math.lcm(self.den, o.den)
        ma, mb = d // self.den, d // o.den
        return Cyc._make(self.order,
                         [a * ma + b * mb for a, b in zip(self.num, o.num)], d)

    __radd__ = __add__

    def __neg__(self):
        out = Cyc.__new__(Cyc)
        out.order = self.order
        out.num = tuple(-c for c in self.num)
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fd = _field(self.order)
        phi = fd.phi
        a, b = self.num, o.num
        conv = [0] * (2 * phi - 1) if phi > 1 else [a[0] * b[0]]
        if phi > 1:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            conv[i + j] += ai * bj
        out = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = fd.reduction[k - phi]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        den = self.den * o.den
        if den == 1:
            res = Cyc.__new__(Cyc)
            res.order = self.order
            res.num = tuple(out)
            res.den = 1
            return res
        return Cyc._make(self.order, out, den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse, by the extended Euclidean algorithm
        against the cyclotomic modulus over Q[x]."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        fd = _field(self.order)
        # r0 = modulus, r1 = self; track s only (coefficients on self)
        r0 = [Fraction(c) for c in fd.modulus]
        r1 = [Fraction(c, self.den) for c in self.num]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_sub(s0, _frac_mul(q, s1))
        # r0 is a nonzero constant gcd; s0 * self == r0 (mod modulus)
        g = next(c for c in reversed(r0) if c)
        inv = [c / g for c in s0]
        inv += [Fraction(0)] * (fd.phi - len(inv))
        den = math.lcm(*(f.denominator for f in inv)) if inv else 1
        return Cyc._make(self.order, [int(f * den) for f in inv[:fd.phi]], den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.inverse())

    def __pow__(self, exponent: int) -> "Cyc":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyc.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # hashing / comparison ----------------------------------------------------

    def __eq__(self, other):
        # the Cyc test comes first: Fraction's ABC instance check is slow
        if not isinstance(other, Cyc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        return (self.order == other.order and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            coeff = str(Fraction(c, self.den))
            if k == 0:
                terms.append(coeff)
            else:
                power = "w" if k == 1 else f"w^{k}"
                terms.append(power if coeff == "1"
                             else f"-{power}" if coeff == "-1"
                             else f"{coeff}*{power}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"Cyc({self.order}: {body})"


@functools.cache
def _int_cyc(order: int, n: int) -> Cyc:
    phi = _field(order).phi
    out = Cyc.__new__(Cyc)
    out.order = order
    out.num = tuple([n] + [0] * (phi - 1))
    out.den = 1
    return out


@functools.cache
def _omega_power_vectors(order: int) -> tuple[tuple[int, ...], ...]:
    """Numerator vectors of w^0, w^1, ..., w^(order-1), built by repeated
    multiplication by x with reduction mod the cyclotomic modulus."""
    fd = _field(order)
    phi = fd.phi
    vecs = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(order):
        vecs.append(tuple(cur))
        lead = cur[-1]
        nxt = ([0] + cur[:-1]) if phi > 1 else [0]
        if lead:
            row = fd.reduction[0]
            for i in range(phi):
                if row[i]:
                    nxt[i] += lead * row[i]
        cur = nxt
    return tuple(vecs)


@functools.cache
def omega(order: int, power: int = 1) -> Cyc:
    """The root of unity w^power as a field element (power taken mod order)."""
    vec = _omega_power_vectors(order)[power % order]
    out = Cyc.__new__(Cyc)
    out.order = order
    out.num = vec
    out.den = 1
    return out


@functools.cache
def _root_power_table(order: int) -> dict[tuple[tuple[int, ...], int], int]:
    return {(omega(order, k).num, 1): k for k in range(order)}


@functools.cache
def _omega_power_columns(order: int) -> tuple[tuple[int, ...], ...]:
    """Column i holds coordinate i of w^0, w^1, ..., w^(order-1)."""
    return tuple(zip(*_omega_power_vectors(order)))


def from_root_coefficients(order: int, coeffs, den: int = 1) -> Cyc:
    """sum over k of coeffs[k] * w^k / den, for integer coeffs[0..order-1]:
    the image in Q(w) of an element of the group ring Z[C_order], divided
    by den."""
    if not any(coeffs):
        return _int_cyc(order, 0)
    num = [sum(map(operator.mul, coeffs, column))
           for column in _omega_power_columns(order)]
    if den != 1:
        return Cyc._make(order, num, den)
    out = Cyc.__new__(Cyc)
    out.order = order
    out.num = tuple(num)
    out.den = 1
    return out


# fraction-polynomial helpers for the inverse ---------------------------------


def _frac_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _frac_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    b = _frac_trim(list(b))
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / lead
        if c:
            q[k] = c
            for i, bi in enumerate(b):
                a[k + i] -= c * bi
    return q, _frac_trim(a)


def _frac_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _frac_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]

