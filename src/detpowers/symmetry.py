"""Symmetries of the main decomposition.

The set M of monomial matrices w^k D^j P_sigma (D = diag(w, w^2, ..., w^d))
has a canonical normal form (sigma, k, j). Maps X -> w^m D^n P_pi X P_sigma
with pi affine permute M, hence permute the decomposition's terms; the
subgroup H of such maps that additionally preserve the determinant
multiplier acts by sign-preserving term bijections. The module provides the
normal form, membership testing, the affine characterization and its sign
formulas, subgroup enumeration with order bookkeeping, the term action, the
transpose closure test, and conjugation by arbitrary unimodular pairs.

Orders are counted by characters, not by walking elements. The multiplier
w^(dm) det(D)^n sgn(pi) sgn(sigma) is a product of three factors, each
evaluated once: per (m, n), per affine pi and per sigma. Because each factor
is +-1, the number of preserving tuples is a sum of products of the factor
tallies, which equals the walk's count exactly (the tests keep the walk).

The signed term set S is a dict {(sigma images, j): coefficient}, with
(sigma, j) read once per decomposition from its integer phase codes
(``decompositions.phase_codes``): sigma is a term's column tuple, and j is
solved once per distinct tuple of entry codes. Membership in M is decided
on integer exponent tuples: rows 1 and 2 fix the only candidate (k, j). An
element's image of S is the same values re-keyed: d row solves give the
image j of every term, and the image permutation is built once per source
sigma.

The action check is a proof from generators, one dict comparison each:
the image of S under generator g must equal chi(g) S. The term action is a
group action and the determinant multiplier chi is a character, so every
element then maps S to chi(h) S. chi(g) is read as an integer: the phase
sign of (m, n) times the cycle signs of pi and sigma.
"""

from __future__ import annotations

import collections
import math
from typing import NamedTuple

from .cyclotomic import Cyc, omega
from .decompositions import (
    TARGET_DETERMINANT,
    PowerDecomposition,
    PowerTerm,
    _permutations,
    main_decomposition,
    phase_codes,
)
from .multipoly import LinForm

# value printed for |H| in the source table, per dimension
PRINTED_SUBGROUP_ORDERS = {2: 8, 3: 162, 4: 1536, 5: 37500, 6: 15552}


def euler_totient(d: int) -> int:
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def cycle_sign(images: tuple[int, ...]) -> int:
    """Parity of the permutation with one-line ``images`` from its cycle
    decomposition: (-1)^(d - number of cycles)."""
    d = len(images)
    seen = [False] * d
    cycles = 0
    for start in range(1, d + 1):
        if seen[start - 1]:
            continue
        cycles += 1
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = images[i - 1]
    return -1 if (d - cycles) & 1 else 1


# ---------------------------------------------------------------------------
# monomial matrices and their normal form


def _solve_row_exponents(d: int, exponents) -> tuple[int, int] | None:
    """The (k, j) with k + i*j = exponents[i-1] (mod d) for every row i, or
    None. Rows 1 and 2 fix j = e2 - e1 and k = e1 - j, so no other pair can
    fit; every row after the first is then checked."""
    j = (exponents[1] - exponents[0]) % d if len(exponents) > 1 else 0
    k = (exponents[0] - j) % d
    if all((k + i * j) % d == t
           for i, t in enumerate(exponents[1:], start=2)):
        return k, j
    return None


def mono_membership(d: int, support) -> tuple | None:
    """The normal form (sigma images, k, j), k and j reduced mod d, of the
    d x d matrix with the given support (a linear form's ((row, col),
    scalar) pairs in row-major order) if it is w^k D^j P_sigma: row r holds
    the r-th pair alone, the columns form a permutation, and the entries
    are powers of w whose exponents fit k + i*j. None otherwise."""
    images = []
    exponents = []
    for r, ((i, col), c) in enumerate(support, start=1):
        power = c.root_power()
        if i != r or power is None:
            return None
        images.append(col)
        exponents.append(power)
    if sorted(images) != list(range(1, d + 1)):
        return None
    solved = _solve_row_exponents(d, exponents)
    return None if solved is None else (tuple(images), *solved)


# ---------------------------------------------------------------------------
# affine permutations


class _AffineFields(NamedTuple):
    a: int
    b: int
    d: int


class AffinePerm(_AffineFields):
    """The permutation i -> a*i + b mod d, with values taken in [1, d]."""
    __slots__ = ()

    def __new__(cls, a: int, b: int, d: int):
        if not (0 <= a < d and 0 <= b < d):
            raise ValueError("a and b must be reduced mod d")
        if math.gcd(a, d) != 1:
            raise ValueError(f"a = {a} is not a unit mod {d}")
        return super().__new__(cls, a, b, d)

    def __call__(self, i: int) -> int:
        return (self.a * i + self.b - 1) % self.d + 1

    def perm(self) -> tuple[int, ...]:
        """The one-line image tuple."""
        return tuple(self(i) for i in range(1, self.d + 1))


def affine_group(d: int) -> list[AffinePerm]:
    """All d*phi(d) affine permutations, ordered by (a, b)."""
    return [AffinePerm(a, b, d)
            for a in range(d) if math.gcd(a, d) == 1
            for b in range(d)]


def check_affine_characterization(d: int) -> bool:
    """P_pi * D lies in M exactly when pi is affine; and for affine
    sigma: i -> ai+b the identity P_sigma D = w^b D^a P_sigma holds."""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    affine_images = {aff.perm() for aff in affine_group(d)}
    for pi in _permutations(d)[0]:
        # P_pi * D has entry w^(pi i) at (i, pi i)
        solved = _solve_row_exponents(d, [p % d for p in pi])
        if (solved is not None) != (pi in affine_images):
            return False
    return all(_solve_row_exponents(d, [s % d for s in aff.perm()])
               == (aff.b, aff.a) for aff in affine_group(d))


def check_sign_formulas(d: int) -> bool:
    """Shift parity (-1)^(b(d+1)) and multiplication parity (the Jacobi
    symbol for odd d, (-1)^((d/2+1)(a-1)/2) for even d), both against the
    cycle-decomposition sign."""
    if not 2 <= d <= 12:
        raise ValueError(f"d must be in [2, 12], got {d}")
    for b in range(d):
        shift = AffinePerm(1, b, d).perm()
        if cycle_sign(shift) != (-1) ** (b * (d + 1)):
            return False
    for a in range(1, d):
        if math.gcd(a, d) != 1:
            continue
        mult = AffinePerm(a, 0, d).perm()
        if d % 2 == 1:
            expected = jacobi_symbol(a, d)
        else:
            expected = (-1) ** ((d // 2 + 1) * (a - 1) // 2)
        if cycle_sign(mult) != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# the symmetry group


class SymElement(NamedTuple):
    """The map X -> w^m D^n P_pi X P_sigma."""
    m: int
    n: int
    pi: AffinePerm
    sigma: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.sigma)


class SymmetryEnumeration(NamedTuple):
    d: int
    full_order: int          # |H~|, all (m, n, pi, sigma)
    preserving_order: int    # |H|, multiplier +1
    reversing_order: int
    formula_order: int       # d^3 phi(d) d! / 2
    printed_order: int | None
    faithful: bool

    @property
    def matches_formula(self) -> bool:
        return self.preserving_order == self.formula_order

    @property
    def matches_printed(self) -> bool | None:
        if self.printed_order is None:
            return None
        return self.preserving_order == self.printed_order


def check_faithfulness(d: int) -> bool:
    """No two tuples (m, n, pi, sigma) induce the same variable map.

    The image entry (r, c) is w^(m + n*r) X[pi r, sigma^-1 c]: the map
    carries pi and sigma^-1 verbatim, so two tuples can only induce the
    same map when their pi and sigma agree. It then suffices that distinct
    (m, n) give distinct phase sequences (m + n*r mod d), r = 1..d, which
    is what is checked; no permutation is enumerated.
    """
    phases = {tuple((m + n * r) % d for r in range(1, d + 1))
              for m in range(d) for n in range(d)}
    return len(phases) == d * d


def _phase_signs(d: int) -> dict:
    """The phase factor w^(dm) det(D)^n of the determinant multiplier as an
    integer sign per (m, n), computed honestly from det(D) = w^(1+2+...+d).
    The multiplier of (m, n, pi, sigma) is this sign times the cycle signs
    of pi and sigma, so it is +-1 exactly when the phase factor is; any
    other phase factor raises."""
    det_d = math.comb(d + 1, 2)
    one = Cyc.one(d)
    minus_one = Cyc.from_int(d, -1)
    phase = {}
    for m in range(d):
        for n in range(d):
            value = omega(d, d * m) * omega(d, n * det_d)
            if value == one:
                phase[(m, n)] = 1
            elif value == minus_one:
                phase[(m, n)] = -1
            else:
                raise ArithmeticError(f"multiplier {value!r} is not a sign")
    return phase


def _multiplier_sign(h: SymElement, phase: dict) -> int:
    """chi(h), det of the image over det of the source, as an int: the
    phase sign of (m, n) times the cycle signs of pi and sigma."""
    return phase[h.m, h.n] * cycle_sign(h.pi.perm()) * cycle_sign(h.sigma)


def enumerate_symmetries(d: int) -> SymmetryEnumeration:
    """Count all (m, n, pi, sigma) by determinant multiplier, and compare
    |H| against both the closed formula and the printed table.

    The counts come from tallies of the factor signs: a phase sign a and a
    pi sign b pair with every sigma of sign a*b to give multiplier +1, so
    |H| = sum over a, b of #phases(a) * #pi(b) * #sigma(a*b), and every
    other tuple reverses.
    """
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    phase_count = collections.Counter(_phase_signs(d).values())
    pi_count = collections.Counter(cycle_sign(pi.perm())
                                   for pi in affine_group(d))
    sigma_count = collections.Counter(_permutations(d)[1])
    preserving = sum(phase_count[a] * pi_count[b] * sigma_count[a * b]
                     for a in (1, -1) for b in (1, -1))
    total = d * d * pi_count.total() * sigma_count.total()
    return SymmetryEnumeration(
        d=d, full_order=total, preserving_order=preserving,
        reversing_order=total - preserving,
        formula_order=d ** 3 * euler_totient(d) * math.factorial(d) // 2,
        printed_order=PRINTED_SUBGROUP_ORDERS.get(d),
        faithful=check_faithfulness(d))


# ---------------------------------------------------------------------------
# action on the decomposition


def _signed_terms(dec: PowerDecomposition) -> dict:
    """The signed term set S of a main decomposition, as {(sigma images, j):
    coefficient} with (sigma, j) read from each term's phase codes
    (``phase_codes``): sigma is the column tuple, and j is solved once per
    distinct tuple of entry codes, d of them for ``main``.

    A term's form must be w^k D^j P_sigma for the (sigma images, j) of its
    index (k is free: w^k dies in the d-th power); any other form raises
    ValueError, so the action never trusts an index its form contradicts,
    and so does an index met twice.
    """
    if dec.scheme != "main":
        raise ValueError(
            "the symmetry action is defined for the main scheme")
    d = dec.d
    permutations = set(_permutations(d)[0])
    terms, solved = {}, {}
    for term, view in zip(dec.terms, phase_codes(dec)):
        read = None
        if view is not None and view[0] in permutations:
            cols, codes = view
            if codes not in solved:
                # a code past the order is -w^k, at an odd order no power
                # of w
                solved[codes] = None if max(codes) >= dec.order \
                    else _solve_row_exponents(d, codes)
            if solved[codes] is not None:
                read = (cols, solved[codes][1] or d)
        if read != term.index:
            raise ValueError(f"term {term.index} has a form that reads "
                             f"as {read}")
        if read in terms:
            raise ValueError(f"term {read} is met twice")
        terms[read] = term.coeff
    return terms


def _image(h: SymElement, terms: dict) -> dict:
    """The image of ``terms`` under X -> w^m D^n P_pi X P_sigma: each value
    moved to its term's image index, j = None when the image leaves M.

    A term's matrix has entry w^(j * pi r) at (pi r, source(pi r)), so the
    image row r holds w^(m + nr + j*pi r) at column sigma(source(pi r)); the
    w^k scalar dies in the d-th power. The image j depends only on the
    term's j, so d row solves serve every term, and the image permutation
    only on its source, so it is built once per source. Two terms with one
    image leave the dict shorter than ``terms``.
    """
    d = h.d
    pi_images, sigma_images = h.pi.perm(), h.sigma
    image_j = {}
    for j in range(1, d + 1):
        solved = _solve_row_exponents(
            d, [(h.m + h.n * r + j * p) % d
                for r, p in enumerate(pi_images, start=1)])
        image_j[j] = None if solved is None else solved[1] or d
    image_of = {source: tuple(sigma_images[source[p - 1] - 1]
                              for p in pi_images)
                for source in {source for source, _ in terms}}
    return {(image_of[source], image_j[j]): value
            for (source, j), value in terms.items()}


def symmetry_generators(d: int) -> list[SymElement]:
    """Generators of every (m, n, pi, sigma): the m-shift and the n-shift,
    pi: x -> x+1 and x -> ax for every unit a other than 1, and sigma =
    (1 2) and (1 2 ... d)."""
    one_pi, one_sigma = AffinePerm(1, 0, d), tuple(range(1, d + 1))
    pis = [AffinePerm(1, 1, d)] + [AffinePerm(a, 0, d) for a in range(2, d)
                                   if math.gcd(a, d) == 1]
    sigmas = [(2, 1) + one_sigma[2:], one_sigma[1:] + (1,)]
    return ([SymElement(1, 0, one_pi, one_sigma),
             SymElement(0, 1, one_pi, one_sigma)]
            + [SymElement(0, 0, pi, one_sigma) for pi in pis]
            + [SymElement(0, 0, one_pi, sigma) for sigma in sigmas])


def check_symmetry_action(d: int) -> bool:
    """Every element of H acts as a sign-preserving term bijection.

    Each generator g must map the signed term set S to chi(g) S, chi the
    determinant multiplier: its image dict must equal S or -S. The action
    is a group action and chi a character, so every element h then maps S
    to chi(h) S, which for h in H (chi(h) = 1) is the claim.
    """
    terms = _signed_terms(main_decomposition(d))
    scaled = {1: terms, -1: {index: -c for index, c in terms.items()}}
    phase = _phase_signs(d)
    return all(_image(g, terms) == scaled[_multiplier_sign(g, phase)]
               for g in symmetry_generators(d))


# ---------------------------------------------------------------------------
# transpose closure and conjugation


def transpose_closure(d: int) -> tuple[bool, list[tuple[int, tuple[int, ...]]]]:
    """Is M closed under transposition? Returns the verdict and the list of
    (j, sigma images) whose transpose leaves M (k is irrelevant: it scales
    the whole matrix and survives transposition unchanged)."""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    witnesses = []
    for sigma in _permutations(d)[0]:
        inv = [0] * d
        for i, s in enumerate(sigma, start=1):
            inv[s - 1] = i
        for j in range(d):
            # transpose of D^j P_sigma has entry w^(j * inv(r)) at (r, inv r)
            exponents = [j * i % d for i in inv]
            if _solve_row_exponents(d, exponents) is None:
                witnesses.append((j, sigma))
    return not witnesses, witnesses


def matrix_product(a, b, order: int):
    """a * b for square matrices over Q(w), skipping every product with a
    zero factor."""
    zero = Cyc.zero(order)
    out = []
    for a_row in a:
        row = [zero] * len(a)
        for x, b_row in zip(a_row, b):
            if x:
                for c, y in enumerate(b_row):
                    if y:
                        row[c] = row[c] + x * y
        out.append(tuple(row))
    return tuple(out)


def matrix_determinant(m, order: int) -> Cyc:
    total = Cyc.zero(order)
    for perm, sign in zip(*_permutations(len(m))):
        prod = Cyc.one(order)
        for row, col in zip(m, perm):
            prod = prod * row[col - 1]
        total = total + prod * sign
    return total


def conjugate_decomposition(a, b, dec: PowerDecomposition) -> PowerDecomposition:
    """Replace each term's coefficient matrix C by a*C*b. Requires a and b
    d x d, det(a*b) = 1, which keeps the target determinant unscaled, and a
    determinant target: X -> aXb preserves no other target."""
    if dec.target != TARGET_DETERMINANT:
        raise ValueError(f"conjugation preserves only the determinant, not "
                         f"the {dec.target!r} target")
    order = dec.order
    d = dec.d
    if len(a) != d or len(b) != d or any(len(r) != d for r in (*a, *b)):
        raise ValueError(f"a and b must be {d}x{d} matrices")
    if matrix_determinant(matrix_product(a, b, order), order) != Cyc.one(order):
        raise ValueError("det(a*b) must be exactly 1")
    # a*C*b is the sum over C's support of v times the outer product of
    # column i of a and row j of b, built once per cell (i, j)
    outer = {(i, j): [((r, c), row[i - 1] * y)
                      for r, row in enumerate(a, start=1) if row[i - 1]
                      for c, y in enumerate(b[j - 1], start=1) if y]
             for i in range(1, d + 1) for j in range(1, d + 1)}
    new_terms = []
    for term in dec.terms:
        image = {}
        for cell, v in term.form.support():
            for key, xy in outer[cell]:
                prior = image.get(key)
                image[key] = v * xy if prior is None else prior + v * xy
        new_terms.append(PowerTerm(term.index, term.coeff,
                                   LinForm(order, d, image), term.exponent))
    return PowerDecomposition(d, "conjugated", dec.scale, dec.target, order,
                              tuple(new_terms))
