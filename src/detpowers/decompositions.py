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

Each scheme is written once, by its terms at sigma = identity: they build
its terms, and streaming verification decodes given terms against their
numbering and reads its class factors from the same rows.

``phase_codes`` reads a decomposition's terms as integer phase codes, once,
for the structure layers (``symmetry`` and ``independence``).

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
from typing import NamedTuple

from .cyclotomic import Cyc, _signed_roots, omega
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
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
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


# --- the schemes' own terms, by number --------------------------------------
#
# A scheme's rows at d are (order, families, label). A family is a sign and,
# for each matrix row i in order, either the tuple of choices (sign, scalar)
# for the entry x[i, i] or None, the row left out (at most one per family). Its
# terms are the products of one choice per kept row, in ``itertools.product``
# order: the family's sign times the choices' signs, times the d-th power of
# the sum of the chosen scalars times their entries. Every scalar is +-w^k.
# ``label(family, choice signs)`` is the term's part of its index. ``main``,
# ``classical`` and ``gurvits`` repeat these terms at every sigma, moving
# row i's entry to x[i, sigma i] and multiplying by sgn sigma; ``monomial``
# takes sigma = identity alone.


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


def _main_rows(d: int) -> tuple:
    """main: family j = 1..d is (-1)^((d+1)j) with the one choice w^(ij) in
    row i; its label is j."""
    rows = range(1, d + 1)
    roots = [omega(d, k) for k in range(d)]
    families = [((-1) ** ((d + 1) * j),
                 [((1, roots[i * j % d]),) for i in rows]) for j in rows]
    return d, families, lambda family, signs: family + 1


def _sign_rows(d: int) -> tuple:
    """classical and monomial: one family, the choice +1 in row 1 and +1 or
    -1, each its own sign, in every other row; the label is the sign vector."""
    one, minus = Cyc.from_int(1, 1), Cyc.from_int(1, -1)
    rows = [((1, one),)] + [((1, one), (-1, minus))] * (d - 1)
    return 1, [(1, rows)], lambda family, signs: signs


def _gurvits_rows(d: int) -> tuple:
    """gurvits: family 0 is +1 with the choice 1 in every row; family
    m = 1..d is -1 and leaves row m out. Its label is None or m."""
    one = ((1, Cyc.from_int(1, 1)),)
    families = [(1, [one] * d)] + [
        (-1, [None if i == m else one for i in range(1, d + 1)])
        for m in range(1, d + 1)]
    return 1, families, lambda family, signs: family or None


# each scheme's rows and whether they repeat at every sigma, bound by name so
# that no edit of the mutable SCHEME_BUILDERS reaches streaming's reference
_SCHEME_ROWS = {
    "main": (_main_rows, True),
    "classical": (_sign_rows, True),
    "gurvits": (_gurvits_rows, True),
    "monomial": (_sign_rows, False),
}


class _Numbering:
    """A scheme's terms at d, numbered: term r * len(block) + t is term t at
    sigma = identity moved to sigma = ``perms[r]``, its sign times
    ``signs[r]``. ``block[t]`` is (sign, pair rows, cut, label): per kept
    row its shared pairs ((i, s), scalar) by column s, the place of the row
    left out or None, and its part of the ``PowerTerm.index``, (sigma,
    label) when ``over_sigma``, else (label,). ``decode(support)`` proposes
    the number of a term with that support, or None; ``term(n)`` is term
    n's coefficient, one of ``units``, and support. It holds lists, so it
    hashes by identity, as the caches keyed on it need."""
    __slots__ = ("order", "over_sigma", "families", "perms", "signs",
                 "block", "units", "decode", "term")

    def __init__(self, order, over_sigma, families, perms, signs, block,
                 units, decode, term):
        self.order, self.over_sigma = order, over_sigma
        self.families, self.perms, self.signs = families, perms, signs
        self.block, self.units = block, units
        self.decode, self.term = decode, term


@lru_cache(maxsize=None)
def _numbering(scheme: str, d: int) -> _Numbering | None:
    """The numbering of ``scheme``'s terms at d, or None for a name without
    rows. Cached per d, so the forms built at d and streaming's checks of
    them share one pair object per (entry, scalar)."""
    if scheme not in _SCHEME_ROWS:
        return None
    rows_of, over_sigma = _SCHEME_ROWS[scheme]
    order, families, label = rows_of(d)
    perms, signs = (_permutations(d) if over_sigma
                    else ([tuple(range(1, d + 1))], [1]))
    pair_rows, block, scalars = {}, [], []
    for family, (sign, rows) in enumerate(families):
        cut = next((i for i, row in enumerate(rows) if row is None), None)
        # each kept row's choices, each with row i's pairs ((i, col), c)
        # listed by column (slot 0 unused), shared by every family
        kept = [[(s, c, pair_rows.setdefault((i, c), (None, *(
            ((i, col), c) for col in range(1, d + 1))))) for s, c in row]
            for i, row in enumerate(rows, 1) if row is not None]
        for picks in itertools.product(*kept):
            choice_signs = tuple(s for s, _, _ in picks)
            block.append((sign * math.prod(choice_signs),
                          tuple(pairs for _, _, pairs in picks), cut,
                          label(family, choice_signs)))
            scalars.append((cut, tuple(c.num for _, c, _ in picks)))
    # the fewest leading scalars that, with the row left out, tell the terms
    # at sigma = identity apart
    lead = next((n for n in range(d) if len(
        {(cut, nums[:n]) for cut, nums in scalars}) == len(scalars)), d)
    # keys[cut][num_1]...[num_lead] = t, one level per leading scalar
    keys: dict = {}
    for t, (cut, nums) in enumerate(scalars):
        *path, last = cut, *nums[:lead]
        node = keys
        for key in path:
            node = node.setdefault(key, {})
        node[last] = t
    size, total = len(block), d * (d + 1) // 2
    units = {e: Cyc.from_int(order, e) for e in (1, -1)}
    # filled on the first decode, as the builders never need it
    rank = {}

    def decode(support):
        cols = tuple([s for (_, s), _ in support])
        cut = None
        if len(cols) == d - 1:
            # the row left out, and its column, complete 1..d
            cut = total - sum([i for (i, _), _ in support]) - 1
            if not 0 <= cut < d:
                return None
            cols = cols[:cut] + (total - sum(cols),) + cols[cut:]
        if not rank:
            rank.update((sigma, r) for r, sigma in enumerate(perms))
        r = rank.get(cols)
        t = keys.get(cut)
        for _, c in support[:lead]:
            t = t and t.get(c.num)
        return r * size + t if r is not None and type(t) is int else None

    def term(n):
        r, t = divmod(n, size)
        sign, rows, cut, _ = block[t]
        sigma = perms[r]
        cols = sigma if cut is None else sigma[:cut] + sigma[cut + 1:]
        return units[signs[r] * sign], tuple(map(getitem, rows, cols))

    return _Numbering(order, over_sigma, families, perms, signs, block, units,
                      decode, term)


# the slot setters of PowerTerm's fields, in field order: ``_materialize``
# fills a term through them, as the frozen class's generated __init__ would
_TERM_SETTERS = (PowerTerm.index.__set__, PowerTerm.coeff.__set__,
                 PowerTerm.form.__set__, PowerTerm.exponent.__set__)


def _materialize(d: int, scheme: str, scale: int,
                 target: str) -> PowerDecomposition:
    """Every term of the scheme's numbering, in order. Its pair rows hold
    shared nonzero pairs of its order, one per row in row order, and a term
    takes them at distinct columns, so its forms skip ``LinForm``'s checks.
    Each term is made by ``PowerTerm.__new__`` and its slot setters,
    without the frozen ``__init__``'s ``object.__setattr__`` calls."""
    numbering = _numbering(scheme, d)
    order, over_sigma, units = (numbering.order, numbering.over_sigma,
                                numbering.units)
    new, of_support = PowerTerm.__new__, LinForm._of_support
    set_index, set_coeff, set_form, set_exponent = _TERM_SETTERS
    terms = []
    for sigma, sigma_sign in zip(numbering.perms, numbering.signs):
        for sign, rows, cut, label in numbering.block:
            cols = sigma if cut is None else sigma[:cut] + sigma[cut + 1:]
            term = new(PowerTerm)
            set_index(term, (sigma, label) if over_sigma else (label,))
            set_coeff(term, units[sigma_sign * sign])
            set_form(term, of_support(order, d,
                                      tuple(map(getitem, rows, cols))))
            set_exponent(term, d)
            terms.append(term)
    return PowerDecomposition(d, scheme, scale, target, order, tuple(terms))


def _unit_code(c: Cyc) -> int | None:
    """The phase code of +-w^k, else None: k for w^k, as ``Cyc.root_power``
    reads it, and order + k for -w^k at an odd order. At an even order -w^k
    is w^(k + order/2), so every code is below the order."""
    unit = _signed_roots(c.order).get((c.num, c.den))
    return None if unit is None else unit[1] + (c.order if unit[0] < 0 else 0)


def phase_codes(dec: PowerDecomposition) -> list:
    """Per term, (columns, codes): each row's column, 0 for a row without
    an entry, and each entry's ``_unit_code``, in row order. A term with an
    entry off +-w^k, or two entries in one row, reads None. Each pair
    object is looked up once, by its id, as builders share pairs."""
    codes, out = {}, []
    for term in dec.terms:
        cols, entry = [0] * dec.d, []
        for pair in term.form.support():
            (i, j), c = pair
            if id(pair) not in codes:
                codes[id(pair)] = _unit_code(c)
            entry.append(codes[id(pair)])
            if entry[-1] is None or cols[i - 1]:
                out.append(None)
                break
            cols[i - 1] = j
        else:
            out.append((tuple(cols), tuple(entry)))
    return out


def main_decomposition(d: int) -> PowerDecomposition:
    """d * d! * det = sum over (sigma, j) of signed d-th powers of forms
    whose (i, sigma(i)) coefficient is w^(i*j)."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return _materialize(d, "main", d * math.factorial(d), TARGET_DETERMINANT)


def classical_decomposition(d: int) -> PowerDecomposition:
    """2^(d-1) * d! * det, one +-1 sign vector per permutation."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return _materialize(d, "classical", 2 ** (d - 1) * math.factorial(d),
                        TARGET_DETERMINANT)


def gurvits_decomposition(d: int) -> PowerDecomposition:
    """d! * det = sum over sigma of the full power minus the d powers that
    each omit one matrix entry of the permutation diagonal."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return _materialize(d, "gurvits", math.factorial(d), TARGET_DETERMINANT)


def monomial_power_decomposition(d: int) -> PowerDecomposition:
    """2^(d-1) * d! * x[1,1]...x[d,d] as a signed sum of 2^(d-1) powers."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return _materialize(d, "monomial", 2 ** (d - 1) * math.factorial(d),
                        TARGET_DIAGONAL)


SCHEME_BUILDERS = {
    "main": main_decomposition,
    "classical": classical_decomposition,
    "gurvits": gurvits_decomposition,
    "monomial": monomial_power_decomposition,
}


# ---------------------------------------------------------------------------
# the five-term product decomposition of the 3x3 determinant


class ProductDecomposition(NamedTuple):
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


class BoundsRow(NamedTuple):
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
