"""Exact scalar arithmetic: cyclotomic fields Q(w).

A `Cyc` is an element of Q[x]/(Phi_n) where Phi_n is the n-th cyclotomic
polynomial, stored as an integer numerator vector over the power basis
1, w, ..., w^(phi(n)-1) together with one positive common denominator.
Because Phi_n is irreducible over Q this is a field, so equality with zero
is simply "all numerators zero" and every nonzero element has an inverse.
No floating point is used anywhere.

Each order keeps one table, the numerator vectors of w^0, ..., w^(n-1):
it reduces products (w^n = 1), projects group-ring coefficients, and with
signs gives the lookup of +-w^k. The inverse is taken by the norm: the
product of an element's other Galois conjugates, over their product with
the element, a nonzero rational.
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


@functools.cache
def _powers(order: int) -> tuple[tuple[int, ...], ...]:
    """Numerator vectors of w^0, w^1, ..., w^(order-1), each the one before
    times x, with x^phi reduced by the monic Phi_order."""
    modulus = cyclotomic_polynomial(order)
    top = [-c for c in modulus[:-1]]  # x^phi
    cur = [1] + [0] * (len(top) - 1)
    vecs = []
    for _ in range(order):
        vecs.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [c + lead * t for c, t in zip(cur, top)]
    return tuple(vecs)


@functools.cache
def _columns(order: int) -> tuple[tuple[int, ...], ...]:
    """``_powers(order)`` transposed: column i holds basis coefficient i of
    w^0, ..., w^(order-1)."""
    return tuple(zip(*_powers(order)))


@functools.cache
def _signed_roots(order: int) -> dict:
    """(num, den) -> (sign, k) for every sign * w^k; where -w^j is itself a
    power of w, at even orders, the unsigned (1, k) is kept."""
    table = {}
    for sign in (-1, 1):
        for k, vec in enumerate(_powers(order)):
            table[tuple(sign * x for x in vec), 1] = (sign, k)
    return table


# ---------------------------------------------------------------------------
# cyclotomic field elements


class Cyc:
    """An exact element of the cyclotomic field of the given root order."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple[int, ...], den: int = 1):
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if any(type(c) is not int for c in (*num, den)):
            raise ValueError(f"numerator and denominator must be ints, got "
                             f"{num} and {den}")
        phi = len(_powers(order)[0])
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
        if not isinstance(value, (int, Fraction)):
            raise ValueError(f"expected an int or a Fraction, got {value!r}")
        f = Fraction(value)
        phi = len(_powers(order)[0])
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
        unit = _signed_roots(self.order).get((self.num, self.den))
        return unit[1] if unit is not None and unit[0] == 1 else None

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
        phi = len(self.num)
        a, b = self.num, o.num
        conv = [0] * (2 * phi - 1) if phi > 1 else [a[0] * b[0]]
        if phi > 1:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            conv[i + j] += ai * bj
        out = conv[:phi]
        powers = _powers(self.order)
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = powers[k % self.order]  # x^k = w^k, and w^order = 1
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
        """Multiplicative inverse by the norm: the product P of the Galois
        conjugates sigma_k(self), k a unit mod order other than 1, times
        self is the norm N, a nonzero rational, so 1/self = P / N."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        order = self.order
        product = _int_cyc(order, 1)
        for k in range(2, order):
            if math.gcd(k, order) == 1:
                # sigma_k sends w^i to w^(i*k)
                coeffs = [0] * order
                for i, c in enumerate(self.num):
                    coeffs[i * k % order] = c
                product = product * from_root_coefficients(order, coeffs,
                                                           self.den)
        norm = self * product  # rational: its numerator is (n, 0, ..., 0)
        return Cyc._make(order, [c * norm.den for c in product.num],
                         product.den * norm.num[0])

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
    out = Cyc.__new__(Cyc)
    out.order = order
    out.num = tuple(n * c for c in _powers(order)[0])
    out.den = 1
    return out


@functools.cache
def omega(order: int, power: int = 1) -> Cyc:
    """The root of unity w^power as a field element (power taken mod order)."""
    out = Cyc.__new__(Cyc)
    out.order = order
    out.num = _powers(order)[power % order]
    out.den = 1
    return out


def from_root_coefficients(order: int, coeffs, den: int = 1) -> Cyc:
    """sum over k of coeffs[k] * w^k / den, for integer coeffs[0..order-1]:
    the image in Q(w) of an element of the group ring Z[C_order], divided
    by den."""
    if not any(coeffs):
        return _int_cyc(order, 0)
    num = [sum(map(operator.mul, coeffs, column))
           for column in _columns(order)]
    if den != 1:
        return Cyc._make(order, num, den)
    out = Cyc.__new__(Cyc)
    out.order = order
    out.num = tuple(num)
    out.den = 1
    return out
