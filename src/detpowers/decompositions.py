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
from typing import Iterator

from .cyclotomic import Cyc, omega
from .multipoly import (
    LinForm,
    SparsePoly,
    determinant_poly,
    diagonal_product_poly,
    perm_sign,
)

TARGET_DETERMINANT = "determinant"
TARGET_DIAGONAL = "diagonal-product"

SCHEMES = ("main", "classical", "gurvits", "monomial")


class Perm:
    """A permutation of {1..d} stored by its one-line image tuple."""

    __slots__ = ("images", "_sign")

    def __init__(self, images: tuple[int, ...]):
        d = len(images)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of 1..{d}: {images}")
        self.images = tuple(images)
        self._sign: int | None = None

    @classmethod
    def identity(cls, d: int) -> "Perm":
        return cls(tuple(range(1, d + 1)))

    @classmethod
    def transposition(cls, d: int, a: int, b: int) -> "Perm":
        images = list(range(1, d + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @staticmethod
    def all_perms(d: int) -> Iterator["Perm"]:
        """All permutations in lexicographic one-line order."""
        for images in itertools.permutations(range(1, d + 1)):
            yield Perm(images)

    @property
    def d(self) -> int:
        return len(self.images)

    @property
    def sign(self) -> int:
        if self._sign is None:
            self._sign = perm_sign(self.images)
        return self._sign

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def then(self, other: "Perm") -> "Perm":
        """Composition: apply self first, then other."""
        if other.d != self.d:
            raise ValueError("mixed permutation sizes")
        return Perm(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> "Perm":
        out = [0] * self.d
        for i, v in enumerate(self.images, start=1):
            out[v - 1] = i
        return Perm(tuple(out))

    def __eq__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"


@dataclasses.dataclass(frozen=True)
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
            if not t.form.support() and not (self.scheme == "gurvits" and self.d == 1):
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


def main_decomposition(d: int) -> PowerDecomposition:
    """d * d! * det = sum over (sigma, j) of signed d-th powers of forms
    whose (i, sigma(i)) coefficient is w^(i*j)."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    rows = range(1, d + 1)
    # row i of cells[j] maps s to the one shared ((i, s), w^(ij)) pair
    cells = {j: [{s: ((i, s), omega(d, i * j)) for s in rows} for i in rows]
             for j in rows}
    terms = []
    for sigma in Perm.all_perms(d):
        for j in rows:
            sign = sigma.sign * (-1) ** ((d + 1) * j)
            form = LinForm(d, d, [row[s] for row, s in
                                  zip(cells[j], sigma.images)])
            terms.append(PowerTerm((sigma.images, j), Cyc.from_int(d, sign),
                                   form, d))
    return PowerDecomposition(d, "main", d * math.factorial(d),
                              TARGET_DETERMINANT, d, tuple(terms))


def _unit_pairs(d: int) -> dict[tuple[int, int, int], tuple]:
    """One ((i, s), +-1) pair per (i, s, sign), shared by the forms."""
    rows = range(1, d + 1)
    return {(i, s, e): ((i, s), Cyc.from_int(1, e))
            for i in rows for s in rows for e in (1, -1)}


def classical_decomposition(d: int) -> PowerDecomposition:
    """2^(d-1) * d! * det, one +-1 sign vector per permutation."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    pair = _unit_pairs(d)
    terms = []
    for sigma in Perm.all_perms(d):
        for eps in sign_vectors(d):
            coeff = sigma.sign * math.prod(eps)
            form = LinForm(1, d, [pair[i, sigma(i), eps[i - 1]]
                                  for i in range(1, d + 1)])
            terms.append(PowerTerm((sigma.images, eps),
                                   Cyc.from_int(1, coeff), form, d))
    return PowerDecomposition(d, "classical", 2 ** (d - 1) * math.factorial(d),
                              TARGET_DETERMINANT, 1, tuple(terms))


def gurvits_decomposition(d: int) -> PowerDecomposition:
    """d! * det = sum over sigma of the full power minus the d powers that
    each omit one matrix entry of the permutation diagonal."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    pair = _unit_pairs(d)
    terms = []
    for sigma in Perm.all_perms(d):
        full = [pair[i, sigma(i), 1] for i in range(1, d + 1)]
        terms.append(PowerTerm((sigma.images, None),
                               Cyc.from_int(1, sigma.sign),
                               LinForm(1, d, full), d))
        for omit in range(1, d + 1):
            partial = full[:omit - 1] + full[omit:]
            terms.append(PowerTerm((sigma.images, omit),
                                   Cyc.from_int(1, -sigma.sign),
                                   LinForm(1, d, partial), d))
    return PowerDecomposition(d, "gurvits", math.factorial(d),
                              TARGET_DETERMINANT, 1, tuple(terms))


def monomial_power_decomposition(d: int) -> PowerDecomposition:
    """2^(d-1) * d! * x[1,1]...x[d,d] as a signed sum of 2^(d-1) powers."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    pair = _unit_pairs(d)
    terms = []
    for eps in sign_vectors(d):
        form = LinForm(1, d, [pair[i, i, eps[i - 1]] for i in range(1, d + 1)])
        terms.append(PowerTerm((eps,), Cyc.from_int(1, math.prod(eps)), form, d))
    return PowerDecomposition(d, "monomial", 2 ** (d - 1) * math.factorial(d),
                              TARGET_DIAGONAL, 1, tuple(terms))


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
