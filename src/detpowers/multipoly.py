"""Sparse multivariate polynomials in the matrix entries x[i,j].

Variables are 1-based (row, col) pairs. A monomial is a canonical sorted
tuple of (row, col, exponent) triples with strictly positive exponents, so
it is hashable and cheap to compare; polynomials are hash maps from
monomials to nonzero cyclotomic coefficients. A linear form is stored as
its sorted support, the ((row, col), scalar) pairs with nonzero scalars;
no dense grid is kept. ``expand_power`` expands a power of a linear form
with Cyc products, by the multinomial theorem over weak compositions; no
command calls it (``verify``'s expansion engine takes no Cyc product), and
it stays as the tests' reference expansion and as a function the benchmark
counts calls of. At points whose coordinates are roots of unity or zero, a
polynomial is evaluated by counting phases in the group ring
(``PhaseEvaluator``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from operator import itemgetter

from .cyclotomic import Cyc, from_root_coefficients

Var = tuple[int, int]
Monomial = tuple[tuple[int, int, int], ...]

MONO_ONE: Monomial = ()


def monomial(exponents: Mapping[Var, int] | Iterable[tuple[Var, int]]) -> Monomial:
    """Canonical monomial from a {(row, col): exponent} mapping."""
    items = exponents.items() if isinstance(exponents, Mapping) else exponents
    merged: dict[Var, int] = {}
    for var, e in items:
        if e < 0:
            raise ValueError(f"negative exponent {e} for variable {var}")
        if e:
            merged[var] = merged.get(var, 0) + e
    return tuple((i, j, e) for (i, j), e in sorted(merged.items()))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two canonical monomials (merge of sorted triple lists)."""
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[int, int, int]] = []
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        ra, ca, ea = a[ia]
        rb, cb, eb = b[ib]
        if (ra, ca) == (rb, cb):
            out.append((ra, ca, ea + eb))
            ia += 1
            ib += 1
        elif (ra, ca) < (rb, cb):
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def multinomial(total: int, parts: Iterable[int]) -> int:
    """total! / prod(part!) for a weak composition of `total`."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != total:
        raise ValueError(f"parts {parts} do not sum to {total}")
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def weak_compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `length` nonnegative ints summing to `total`."""
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in weak_compositions(total - first, length - 1):
            yield (first,) + rest


class SparsePoly:
    """A polynomial stored as {monomial: coefficient} with no zero values."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Mapping[Monomial, Cyc] | None = None):
        self.order = order
        self.terms: dict[Monomial, Cyc] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    @classmethod
    def zero(cls, order: int) -> "SparsePoly":
        return cls(order)

    @classmethod
    def constant(cls, order: int, value: Cyc | int | Fraction) -> "SparsePoly":
        c = _as_cyc(order, value)
        return cls(order, {MONO_ONE: c})

    @classmethod
    def variable(cls, order: int, var: Var) -> "SparsePoly":
        return cls(order, {monomial({var: 1}): Cyc.one(order)})

    # views -------------------------------------------------------------------

    def coefficient(self, m: Monomial) -> Cyc:
        return self.terms.get(m, Cyc.zero(self.order))

    def monomials(self) -> list[Monomial]:
        return sorted(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # arithmetic --------------------------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed root orders {self.order} and {other.order}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            cur = out.get(m)
            if cur is None:
                out[m] = c
            else:
                s = cur + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        res = SparsePoly.__new__(SparsePoly)
        res.order = self.order
        res.terms = out
        return res

    def __neg__(self) -> "SparsePoly":
        res = SparsePoly.__new__(SparsePoly)
        res.order = self.order
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            self._check(other)
            out: dict[Monomial, Cyc] = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    m = mono_mul(ma, mb)
                    c = ca * cb
                    cur = out.get(m)
                    if cur is None:
                        out[m] = c
                    else:
                        s = cur + c
                        if s:
                            out[m] = s
                        else:
                            del out[m]
            res = SparsePoly.__new__(SparsePoly)
            res.order = self.order
            res.terms = out
            return res
        if isinstance(other, (Cyc, int, Fraction)):
            c = _as_cyc(self.order, other)
            if not c:
                return SparsePoly.zero(self.order)
            res = SparsePoly.__new__(SparsePoly)
            res.order = self.order
            res.terms = {m: v * c for m, v in self.terms.items()}
            return res
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return f"SparsePoly({self.order}: 0)"
        parts = []
        for m in self.monomials()[:6]:
            vars_txt = "*".join(
                f"x[{i},{j}]" + (f"^{e}" if e > 1 else "") for i, j, e in m)
            parts.append(f"({self.terms[m]!r})*{vars_txt}" if m else repr(self.terms[m]))
        more = "" if len(self.terms) <= 6 else f" + ... ({len(self.terms)} terms)"
        return f"SparsePoly({self.order}: " + " + ".join(parts) + more + ")"


class PhaseEvaluator:
    """A polynomial lifted once for exact evaluation at root-of-unity points.

    A point is a mapping {var: k}: its coordinate at var is w^k, and every
    missing coordinate is zero. A monomial with every variable present is
    w^s at the point, s the exponent-weighted sum of the k, and contributes
    its coefficient rotated by s. Each coefficient's numerator over 1, w,
    ..., w^(phi-1), times L / den for one common denominator L, lifts it to
    the group ring Z[C_order], where rotation by s is a shift of indices;
    the sum of the shifted lifts is projected to Q(w) once, divided by L.
    No Cyc product is taken.
    """

    __slots__ = ("order", "den", "terms")

    def __init__(self, poly: SparsePoly):
        self.order = poly.order
        self.den = math.lcm(*(c.den for c in poly.terms.values()))
        self.terms = tuple(
            (tuple(((i, j), e) for i, j, e in m),
             tuple((s, x * (self.den // c.den))
                   for s, x in enumerate(c.num) if x))
            for m, c in poly.terms.items())

    def __call__(self, phases: Mapping[Var, int]) -> Cyc:
        order = self.order
        ring = [0] * order
        for factors, lift in self.terms:
            shift = 0
            for var, e in factors:
                k = phases.get(var)
                if k is None:
                    break
                shift += e * k
            else:
                for s, x in lift:
                    ring[(s + shift) % order] += x
        return from_root_coefficients(order, ring, self.den)


def covered_values(polys: list[SparsePoly],
                   points: list[Mapping[Var, int]]) -> list[dict[int, Cyc]]:
    """Each polynomial's value at every point, given as a phase map (see
    ``PhaseEvaluator``), that covers one of its monomials, as {point
    position: value}; the polynomial is exactly 0 at every other point.

    A monomial is nonzero at a point only when all its variables are in the
    point's support, and a polynomial with no such monomial is a sum of
    exact zeros. The covering points come from an integer support index:
    for every variable, the bit set of the points where it is nonzero; a
    monomial's covering set is the intersection over its variables. Only
    covered pairs are evaluated.
    """
    holders: dict[Var, int] = {}
    for c, point in enumerate(points):
        for var in point:
            holders[var] = holders.get(var, 0) | (1 << c)
    everyone = (1 << len(points)) - 1
    out = []
    for poly in polys:
        covering = 0
        for mono in poly.terms:
            bits = everyone
            for i, j, _ in mono:
                bits &= holders.get((i, j), 0)
            covering |= bits
        values = {}
        at = PhaseEvaluator(poly)
        while covering:
            low = covering & -covering
            c = low.bit_length() - 1
            values[c] = at(points[c])
            covering ^= low
        out.append(values)
    return out


def _as_cyc(order: int, value) -> Cyc:
    if isinstance(value, Cyc):
        if value.order != order:
            raise ValueError(f"mixed root orders {order} and {value.order}")
        return value
    if isinstance(value, int):
        return Cyc.from_int(order, value)
    if isinstance(value, Fraction):
        return Cyc.from_fraction(order, value)
    raise TypeError(f"cannot coerce {value!r} to a cyclotomic scalar")


class LinForm:
    """A linear form sum c[i,j] * x[i,j], stored as its support: the
    ((row, col), scalar) pairs with nonzero scalars, in row-major order.
    ``coeffs`` is a {var: scalar} mapping or an iterable of (var, scalar)
    pairs. A pair whose scalar is already a nonzero Cyc of the form's order
    is kept as given, so many forms can share one pair; int and Fraction
    scalars are coerced, and zeros dropped."""

    __slots__ = ("order", "d", "_support")

    def __init__(self, order: int, d: int, coeffs):
        pairs = []
        for pair in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            (i, j), c = pair
            if not (1 <= i <= d and 1 <= j <= d):
                raise ValueError(f"variable index {(i, j)} out of range for d={d}")
            if not (type(c) is Cyc and c.order == order
                    and type(pair) is tuple and type(pair[0]) is tuple):
                pair = ((i, j), _as_cyc(order, c))
            if any(pair[1].num):
                pairs.append(pair)
        pairs.sort(key=itemgetter(0))
        if len({var for var, _ in pairs}) < len(pairs):
            raise ValueError(f"repeated variable in {[v for v, _ in pairs]}")
        self.order = order
        self.d = d
        self._support = tuple(pairs)

    @classmethod
    def _of_support(cls, order: int, d: int, support: tuple) -> "LinForm":
        """The form with ``support`` stored as given, unchecked. The caller
        holds the invariants ``__init__`` checks: nonzero Cyc scalars of
        ``order``, (var, scalar) tuple pairs in row-major order, distinct
        variables in [1, d]."""
        form = cls.__new__(cls)
        form.order = order
        form.d = d
        form._support = support
        return form

    def support(self) -> tuple[tuple[Var, Cyc], ...]:
        """Nonzero coefficients in row-major variable order."""
        return self._support

    def as_poly(self) -> SparsePoly:
        return SparsePoly(self.order, {
            monomial({var: 1}): c for var, c in self._support})

    def __eq__(self, other):
        if not isinstance(other, LinForm):
            return NotImplemented
        return (self.order, self.d, self._support) == \
            (other.order, other.d, other._support)

    def __hash__(self):
        return hash((self.order, self.d, self._support))

    def __repr__(self):
        body = " + ".join(f"({c!r})*x[{i},{j}]" for (i, j), c in self._support)
        return f"LinForm({self.order}: {body or '0'})"


def expand_power(form: LinForm, exponent: int) -> SparsePoly:
    """(linear form)^exponent via the multinomial theorem.

    One pass over the weak compositions of the exponent across the form's
    support; coefficient powers are precomputed per variable, so each
    composition costs a handful of scalar multiplications.

    Nothing in the package calls it. It is the tests' reference expansion,
    and ``perfbench/runner.py`` names it in ``PROFILED_CALLS`` when it is
    imported, so it stays a plain function here while the benchmark counts
    its calls.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    order = form.order
    support = form.support()
    if not support:
        return SparsePoly.zero(order)
    svars = [var for var, _ in support]
    powers: list[list[Cyc]] = []
    for _, c in support:
        row = [Cyc.one(order)]
        for _ in range(exponent):
            row.append(row[-1] * c)
        powers.append(row)
    fact = [math.factorial(k) for k in range(exponent + 1)]
    top = fact[exponent]
    terms: dict[Monomial, Cyc] = {}
    for comp in weak_compositions(exponent, len(support)):
        coeff_int = top
        val: Cyc | None = None
        mono: list[tuple[int, int, int]] = []
        for k, e in enumerate(comp):
            if not e:
                continue
            coeff_int //= fact[e]
            p = powers[k][e]
            val = p if val is None else val * p
            i, j = svars[k]
            mono.append((i, j, e))
        terms[tuple(mono)] = val * coeff_int if coeff_int != 1 else val
    return SparsePoly(order, terms)


def perm_sign(images: tuple[int, ...]) -> int:
    """Sign of the permutation with one-line images ``images``, by counting
    inversions."""
    inv = 0
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if images[a] > images[b]:
                inv += 1
    return -1 if inv & 1 else 1


def determinant_poly(d: int, order: int = 1) -> SparsePoly:
    """The generic d x d determinant as a sparse polynomial (d! terms, +-1)."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    terms: dict[Monomial, Cyc] = {}
    plus, minus = Cyc.from_int(order, 1), Cyc.from_int(order, -1)
    for images in itertools.permutations(range(1, d + 1)):
        m = tuple((i, images[i - 1], 1) for i in range(1, d + 1))
        terms[m] = plus if perm_sign(images) > 0 else minus
    return SparsePoly(order, terms)


def permanent_poly(rows: tuple[int, ...], cols: tuple[int, ...],
                   order: int = 1) -> SparsePoly:
    """Permanent of the submatrix with the given rows and columns."""
    if len(rows) != len(cols):
        raise ValueError(f"permanent needs equally many rows and columns, "
                         f"got {len(rows)} and {len(cols)}")
    one = Cyc.from_int(order, 1)
    terms: dict[Monomial, Cyc] = {}
    for assignment in itertools.permutations(cols):
        m = monomial({(r, c): 1 for r, c in zip(rows, assignment)})
        cur = terms.get(m)
        terms[m] = one if cur is None else cur + one
    return SparsePoly(order, terms)


def diagonal_product_poly(d: int, order: int = 1) -> SparsePoly:
    """The monomial x[1,1] x[2,2] ... x[d,d] as a polynomial."""
    m = tuple((i, i, 1) for i in range(1, d + 1))
    return SparsePoly(order, {m: Cyc.from_int(order, 1)})
