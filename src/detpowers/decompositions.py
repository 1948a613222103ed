"""Power-sum decompositions of the determinant and the rank bounds table.

Each scheme writes scale * target as a signed sum of d-th powers of linear
forms in the matrix entries:

* ``main``      - d*d! forms with root-of-unity coefficients, indexed by a
                  permutation and a phase exponent.
* ``classical`` - 2^(d-1)*d! forms with +-1 coefficients, one sign vector
                  per permutation.
* ``gurvits``   - (d+1)*d! forms with 0/1 coefficients: per permutation the
                  full diagonal sum and d sums each omitting one entry.
* ``monomial``  - 2^(d-1) forms decomposing the single diagonal monomial.

Each scheme is written once, as a numbered table of its closed-form terms:
the builders materialize it, and streaming verification decodes the terms
it is given against it.

The ``krishna-makam`` object is different in kind: five products of three
linear forms summing to the 3x3 determinant exactly, over the integers.

Schemes valid over the integers carry order-1 (i.e. rational) scalars; only
the main scheme needs genuine cyclotomic coefficients.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import getitem
from typing import Iterator

from .cyclotomic import Cyc, omega
from .multipoly import (
    LinForm,
    SparsePoly,
    determinant_poly,
    diagonal_product_poly,
)

TARGET_DETERMINANT = "determinant"
TARGET_DIAGONAL = "diagonal-product"

SCHEMES = ("main", "classical", "gurvits", "monomial")


@dataclasses.dataclass(frozen=True, slots=True)
class PowerTerm:
    """One signed d-th power of a linear form.

    ``index`` identifies the term within its scheme:
    main -> (sigma images, j); classical -> (sigma images, sign vector);
    gurvits -> (sigma images, omitted row or None); monomial -> (sign vector,).
    """
    index: tuple
    coeff: Cyc
    form: LinForm
    exponent: int


@dataclasses.dataclass(frozen=True)
class PowerDecomposition:
    """scale * target == sum of coeff * form^exponent, to be verified exactly."""
    d: int
    scheme: str
    scale: int
    target: str
    order: int
    terms: tuple[PowerTerm, ...]

    def __post_init__(self):
        expected = expected_term_count(self.scheme, self.d)
        if expected is not None and len(self.terms) != expected:
            raise ValueError(
                f"{self.scheme} at d={self.d} must have {expected} terms, "
                f"got {len(self.terms)}")
        for t in self.terms:
            if t.exponent != self.d:
                raise ValueError("every term must be a d-th power")
            if not t.coeff.order == t.form.order == self.order:
                raise ValueError(
                    f"term {t.index} mixes root orders {t.coeff.order} "
                    f"and {t.form.order} into order {self.order}")
            if t.form.d != self.d:
                raise ValueError(f"term {t.index} has a form in "
                                 f"{t.form.d}x{t.form.d} variables")
            # gurvits(1) omits its one entry; X -> aXb keeps that form zero
            if not t.form.support() and not (
                    self.scheme in ("gurvits", "conjugated") and self.d == 1):
                raise ValueError("zero form inside a decomposition")

    def target_poly(self) -> SparsePoly:
        if self.target == TARGET_DETERMINANT:
            return determinant_poly(self.d, order=self.order)
        if self.target == TARGET_DIAGONAL:
            return diagonal_product_poly(self.d, order=self.order)
        raise ValueError(f"unknown target {self.target!r}")


def expected_term_count(scheme: str, d: int) -> int | None:
    if scheme == "main":
        return d * math.factorial(d)
    if scheme == "classical":
        return 2 ** (d - 1) * math.factorial(d)
    if scheme == "gurvits":
        return (d + 1) * math.factorial(d)
    if scheme == "monomial":
        return 2 ** (d - 1)
    return None  # conjugated and other derived tags validated by their builders


def sign_vectors(d: int) -> Iterator[tuple[int, ...]]:
    """Sign vectors of length d with first entry +1, +1 ordered before -1."""
    for rest in itertools.product((1, -1), repeat=d - 1):
        yield (1,) + rest


# --- the schemes' own terms, by number --------------------------------------
#
# Each scheme is defined once, by a table (order, count, decode,
# closed_form, index) of its terms n = 0, 1, ..., count - 1, whose scalars
# have root order ``order``. ``closed_form(n)`` is term n's coefficient
# sign, one row per matrix row listing the shared pairs ((i, s), scalar) by
# column s, and the column of each row of its support; ``index(n)`` is its
# ``PowerTerm.index``. ``decode(support)`` proposes the number a given
# support would have, read from its columns and scalars, or None; streaming
# verification takes a given term as term n only when its coefficient and
# whole support equal term n's. The builders materialize every term in
# order. Tables are cached per d, so the forms built at d and streaming's
# checks of them share one pair object per (entry, scalar).


@lru_cache(maxsize=None)
def _permutations(d: int):
    """The permutations of 1..d, each its one-line image tuple, in
    lexicographic order, and their signs by rank. The Lehmer codes run
    through the mixed radix (d, d-1, ..., 1) in the same order, and a
    code's digit sum counts the permutation's inversions. Both lists are
    cached and shared by every caller, which must not mutate them."""
    perms = list(itertools.permutations(range(1, d + 1)))
    codes = itertools.product(*(range(n) for n in range(d, 0, -1)))
    return perms, [-1 if sum(code) & 1 else 1 for code in codes]


@lru_cache(maxsize=None)
def _ranks(d: int) -> dict:
    """The rank of each permutation of 1..d; built on the first decode, as
    the builders never need it."""
    return {sigma: r for r, sigma in enumerate(_permutations(d)[0])}


def _pair_row(d: int, i: int, c: Cyc) -> tuple:
    """Row i's pairs ((i, s), c), listed by column s; slot 0 is unused."""
    return (None,) + tuple(((i, s), c) for s in range(1, d + 1))


@lru_cache(maxsize=None)
def _main_table(d: int) -> tuple:
    """main: term r * d + j - 1, index (sigma, j), is sgn sigma *
    (-1)^((d+1)j) times (sum_i w^(ij) x[i, sigma i])^d, sigma of rank r.
    A support names sigma by its columns and j by row 1's root power."""
    perms, signs = _permutations(d)
    rows = range(1, d + 1)
    roots = [omega(d, k) for k in range(d)]
    phase = {w.num: k for k, w in enumerate(roots)}
    tables = [tuple(_pair_row(d, i, roots[i * j % d]) for i in rows)
              for j in rows]
    parity = [(-1) ** ((d + 1) * j) for j in rows]

    def decode(support):
        if len(support) != d:
            return None
        r = _ranks(d).get(tuple([s for (_, s), _ in support]))
        k = phase.get(support[0][1].num)
        return None if r is None or k is None else r * d + (k or d) - 1

    def closed_form(n):
        r, j = divmod(n, d)
        return signs[r] * parity[j], tables[j], perms[r]

    def index(n):
        r, j = divmod(n, d)
        return perms[r], j + 1

    return d, len(perms) * d, decode, closed_form, index


def _signed_table(d: int, perms, signs, rank) -> tuple:
    """classical: term r * 2^(d-1) + t, index (sigma, eps), is sgn sigma *
    prod eps times (sum_i eps_i x[i, sigma i])^d, sigma of rank r among
    ``perms`` (``rank`` maps columns to r, or None) and eps the t-th of
    ``sign_vectors(d)``. A form with eps_1 = -1 names no term."""
    units = {e: Cyc.from_int(1, e) for e in (1, -1)}
    unit = {c.num: e for e, c in units.items()}
    rows = {e: [_pair_row(d, i, c) for i in range(1, d + 1)]
            for e, c in units.items()}
    vectors = list(sign_vectors(d))
    eps_rank = {eps: t for t, eps in enumerate(vectors)}
    eps_sign = [math.prod(eps) for eps in vectors]
    eps_rows = [tuple(rows[e][i] for i, e in enumerate(eps))
                for eps in vectors]
    block = len(vectors)

    def decode(support):
        if len(support) != d:
            return None
        r = rank(tuple([s for (_, s), _ in support]))
        t = eps_rank.get(tuple([unit.get(c.num) for _, c in support]))
        return None if r is None or t is None else r * block + t

    def closed_form(n):
        r, t = divmod(n, block)
        return signs[r] * eps_sign[t], eps_rows[t], perms[r]

    def index(n):
        r, t = divmod(n, block)
        return perms[r], vectors[t]

    return 1, len(perms) * block, decode, closed_form, index


@lru_cache(maxsize=None)
def _classical_table(d: int) -> tuple:
    return _signed_table(d, *_permutations(d),
                         lambda cols: _ranks(d).get(cols))


@lru_cache(maxsize=None)
def _monomial_table(d: int) -> tuple:
    """monomial: classical's terms of the identity permutation alone, with
    index (eps,)."""
    diagonal = tuple(range(1, d + 1))
    *table, index = _signed_table(d, [diagonal], [1], {diagonal: 0}.get)
    return (*table, lambda n: index(n)[1:])


@lru_cache(maxsize=None)
def _gurvits_table(d: int) -> tuple:
    """gurvits: term r * (d + 1), index (sigma, None), is sgn sigma times
    (sum_i x[i, sigma i])^d, sigma of rank r, and term r * (d + 1) + m,
    index (sigma, m), m = 1..d, is -sgn sigma times the same power without
    row m. A support of d - 1 entries names the missing row and column."""
    perms, signs = _permutations(d)
    one = Cyc.from_int(1, 1)
    full = tuple(_pair_row(d, i, one) for i in range(1, d + 1))
    tables = [full] + [full[:m - 1] + full[m:] for m in range(1, d + 1)]
    total = d * (d + 1) // 2

    def decode(support):
        cols = tuple([s for (_, s), _ in support])
        if len(cols) == d:
            omit = 0
        elif len(cols) == d - 1:
            omit = total - sum([i for (i, _), _ in support])
            if not 1 <= omit <= d:
                return None
            cols = cols[:omit - 1] + (total - sum(cols),) + cols[omit - 1:]
        else:
            return None
        r = _ranks(d).get(cols)
        return None if r is None else r * (d + 1) + omit

    def closed_form(n):
        r, omit = divmod(n, d + 1)
        sigma = perms[r]
        if omit:
            return -signs[r], tables[omit], sigma[:omit - 1] + sigma[omit:]
        return signs[r], full, sigma

    def index(n):
        r, omit = divmod(n, d + 1)
        return perms[r], omit or None

    return 1, len(perms) * (d + 1), decode, closed_form, index


def _materialize(d: int, scheme: str, scale: int, target: str,
                 table: tuple) -> PowerDecomposition:
    """Every term of ``table``, in its numbered order. A table's rows hold
    shared nonzero pairs of its order, one per row in row order, and a term
    takes them at distinct columns, so its forms skip ``LinForm``'s checks."""
    order, count, _, closed_form, index = table
    units = {e: Cyc.from_int(order, e) for e in (1, -1)}
    terms = []
    for n in range(count):
        sign, rows, cols = closed_form(n)
        form = LinForm._of_support(order, d, tuple(map(getitem, rows, cols)))
        terms.append(PowerTerm(index(n), units[sign], form, d))
    return PowerDecomposition(d, scheme, scale, target, order, tuple(terms))


def main_decomposition(d: int) -> PowerDecomposition:
    """d * d! * det = sum over (sigma, j) of signed d-th powers of forms
    whose (i, sigma(i)) coefficient is w^(i*j)."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return _materialize(d, "main", d * math.factorial(d), TARGET_DETERMINANT,
                        _main_table(d))


def classical_decomposition(d: int) -> PowerDecomposition:
    """2^(d-1) * d! * det, one +-1 sign vector per permutation."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return _materialize(d, "classical", 2 ** (d - 1) * math.factorial(d),
                        TARGET_DETERMINANT, _classical_table(d))


def gurvits_decomposition(d: int) -> PowerDecomposition:
    """d! * det = sum over sigma of the full power minus the d powers that
    each omit one matrix entry of the permutation diagonal."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return _materialize(d, "gurvits", math.factorial(d), TARGET_DETERMINANT,
                        _gurvits_table(d))


def monomial_power_decomposition(d: int) -> PowerDecomposition:
    """2^(d-1) * d! * x[1,1]...x[d,d] as a signed sum of 2^(d-1) powers."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return _materialize(d, "monomial", 2 ** (d - 1) * math.factorial(d),
                        TARGET_DIAGONAL, _monomial_table(d))


SCHEME_BUILDERS = {
    "main": main_decomposition,
    "classical": classical_decomposition,
    "gurvits": gurvits_decomposition,
    "monomial": monomial_power_decomposition,
}


# ---------------------------------------------------------------------------
# the five-term product decomposition of the 3x3 determinant


@dataclasses.dataclass(frozen=True)
class ProductDecomposition:
    """det = sum of sign * (product of d linear forms), over the integers."""
    d: int
    scheme: str
    terms: tuple[tuple[int, tuple[LinForm, ...]], ...]

    def expanded_terms(self) -> list[SparsePoly]:
        out = []
        for sign, forms in self.terms:
            poly = SparsePoly.constant(1, sign)
            for f in forms:
                poly = poly * f.as_poly()
            out.append(poly)
        return out


def krishna_makam_det3() -> ProductDecomposition:
    """The five-term product formula for the 3x3 determinant."""
    def lf(coeffs):
        return LinForm(1, 3, coeffs)

    terms = (
        (1, (lf({(1, 1): 1}),
             lf({(2, 2): 1, (2, 3): 1}),
             lf({(3, 1): 1, (3, 3): 1}))),
        (1, (lf({(1, 2): 1, (1, 3): 1}),
             lf({(2, 1): 1}),
             lf({(3, 2): 1}))),
        (-1, (lf({(1, 1): 1, (1, 3): 1}),
              lf({(2, 2): 1}),
              lf({(3, 1): 1}))),
        (-1, (lf({(1, 2): 1}),
              lf({(2, 1): 1, (2, 3): 1}),
              lf({(3, 2): 1, (3, 3): 1}))),
        (1, (lf({(1, 2): 1, (1, 1): -1}),
             lf({(2, 3): 1}),
             lf({(3, 1): 1, (3, 2): 1, (3, 3): 1}))),
    )
    return ProductDecomposition(3, "krishna-makam", terms)


# ---------------------------------------------------------------------------
# bounds table


@dataclasses.dataclass(frozen=True)
class BoundsRow:
    d: int
    classical: int
    derksen: int
    gurvits: int
    cglv: int | None
    new: int
    lower: int


def bounds_table(d_max: int) -> list[BoundsRow]:
    """Known upper/lower bounds on the power-sum rank of the determinant.

    The Derksen column is (5/6)^floor(d/3) * 2^(d-1) * d!, computed as an
    exact rational and checked to be integral. The lower bound column is
    binom(2d, d) - binom(2d-2, d-1), except d=3 where 17 is known.
    """
    if not 2 <= d_max <= 20:
        raise ValueError(f"d_max must be in [2, 20], got {d_max}")
    rows = []
    for d in range(2, d_max + 1):
        classical = 2 ** (d - 1) * math.factorial(d)
        derksen_exact = Fraction(5, 6) ** (d // 3) * classical
        if derksen_exact.denominator != 1:
            raise ArithmeticError(f"Derksen bound is not integral at d={d}")
        lower = math.comb(2 * d, d) - math.comb(2 * d - 2, d - 1)
        rows.append(BoundsRow(
            d=d,
            classical=classical,
            derksen=int(derksen_exact),
            gurvits=(d + 1) * math.factorial(d),
            cglv=18 if d == 3 else None,
            new=d * math.factorial(d),
            lower=17 if d == 3 else lower,
        ))
    return rows
