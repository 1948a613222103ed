"""Symmetries of the main decomposition.

The set M of monomial matrices w^k D^j P_sigma (D = diag(w, w^2, ..., w^d))
has a canonical normal form (k, j, sigma). Maps X -> w^m D^n P_pi X P_sigma
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

The term action reads each term's (sigma, j) from its form once per
decomposition. Membership in M is decided on integer exponent tuples: rows
1 and 2 fix the only candidate (k, j). Under the full check, one image table
per (pi, sigma) serves every phase (m, n), since the phase adds m + n*r to
the row exponents and so only moves the image j by n.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import random

from .cyclotomic import Cyc, omega
from .decompositions import (
    TARGET_DETERMINANT,
    Perm,
    PowerDecomposition,
    PowerTerm,
    main_decomposition,
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


def cycle_sign(perm: Perm) -> int:
    """Parity from the cycle decomposition: (-1)^(d - number of cycles)."""
    seen = [False] * perm.d
    cycles = 0
    for start in range(1, perm.d + 1):
        if seen[start - 1]:
            continue
        cycles += 1
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = perm(i)
    return -1 if (perm.d - cycles) & 1 else 1


# ---------------------------------------------------------------------------
# monomial matrices and their normal form


@dataclasses.dataclass(frozen=True)
class MonoMatrix:
    """Canonical triple for w^k D^j P_sigma: entry w^(k+ij) at (i, sigma i)."""
    k: int
    j: int
    sigma: Perm

    def __post_init__(self):
        d = self.sigma.d
        if not (0 <= self.k < d and 0 <= self.j < d):
            raise ValueError("k and j must be reduced mod d")

    @property
    def d(self) -> int:
        return self.sigma.d


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


def mono_membership_sparse(d: int, images: tuple[int, ...],
                           exponents: tuple[int, ...]) -> MonoMatrix | None:
    """Decide whether the monomial matrix with entry w^(exponents[i-1]) at
    (i, images[i-1]) lies in M, returning its normal form."""
    solved = _solve_row_exponents(d, exponents)
    if solved is None:
        return None
    return MonoMatrix(solved[0], solved[1], Perm(images))


def mono_membership(d: int, support) -> MonoMatrix | None:
    """Normal form of the d x d matrix with the given support (a linear
    form's ((row, col), scalar) pairs in row-major order) if it lies in M:
    row r holds the r-th pair alone, the columns form a permutation, and
    the entries are powers of w whose exponents fit k + i*j."""
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
    return mono_membership_sparse(d, tuple(images), tuple(exponents))


# ---------------------------------------------------------------------------
# affine permutations


@dataclasses.dataclass(frozen=True)
class AffinePerm:
    """The permutation i -> a*i + b mod d, with values taken in [1, d]."""
    a: int
    b: int
    d: int

    def __post_init__(self):
        if not (0 <= self.a < self.d and 0 <= self.b < self.d):
            raise ValueError("a and b must be reduced mod d")
        if math.gcd(self.a, self.d) != 1:
            raise ValueError(f"a = {self.a} is not a unit mod {self.d}")

    def __call__(self, i: int) -> int:
        return (self.a * i + self.b - 1) % self.d + 1

    def perm(self) -> Perm:
        return Perm(tuple(self(i) for i in range(1, self.d + 1)))

    def compose(self, other: "AffinePerm") -> "AffinePerm":
        """(a,b) o (a',b') = (aa', ab'+b): apply ``other`` first."""
        if other.d != self.d:
            raise ValueError("mixed moduli")
        return AffinePerm((self.a * other.a) % self.d,
                          (self.a * other.b + self.b) % self.d, self.d)

    def inverse(self) -> "AffinePerm":
        a_inv = pow(self.a, -1, self.d)
        return AffinePerm(a_inv, (-a_inv * self.b) % self.d, self.d)


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
    affine_images = {aff.perm().images for aff in affine_group(d)}
    for pi in Perm.all_perms(d):
        # P_pi * D has entry w^(pi i) at (i, pi i)
        exponents = tuple(pi(i) % d for i in range(1, d + 1))
        member = mono_membership_sparse(d, pi.images, exponents)
        if (member is not None) != (pi.images in affine_images):
            return False
    for aff in affine_group(d):
        sigma = aff.perm()
        exponents = tuple(sigma(i) % d for i in range(1, d + 1))
        member = mono_membership_sparse(d, sigma.images, exponents)
        if member is None:
            return False
        if member.k != aff.b % d or member.j != aff.a % d:
            return False
        if member.sigma != sigma:
            return False
    return True


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


@dataclasses.dataclass(frozen=True)
class SymElement:
    """The map X -> w^m D^n P_pi X P_sigma."""
    m: int
    n: int
    pi: AffinePerm
    sigma: Perm

    @property
    def d(self) -> int:
        return self.sigma.d

    def signature(self) -> tuple:
        """Canonical description of the induced variable map: the image
        entry (r, c) equals w^(m + n r) X[pi r, sigma^-1 c]."""
        d = self.d
        inv_sigma = self.sigma.inverse()
        return tuple(((self.m + self.n * r) % d, self.pi(r), inv_sigma(c))
                     for r in range(1, d + 1) for c in range(1, d + 1))

    def compose(self, other: "SymElement") -> "SymElement":
        """The element inducing ``self`` applied after ``other``.

        Pulling other's phase through self's row permutation (an affine
        map r -> ar + b) gives the semidirect-product law
        m'' = m2 + m1 + n1*b, n'' = n2 + n1*a, pi'' = pi1 o pi2,
        sigma''^-1 = sigma1^-1 o sigma2^-1 (subscript 2 = self, 1 = other).
        """
        d = self.d
        if other.d != d:
            raise ValueError("mixed dimensions")
        return SymElement(
            (self.m + other.m + other.n * self.pi.b) % d,
            (self.n + other.n * self.pi.a) % d,
            other.pi.compose(self.pi),
            other.sigma.then(self.sigma))

    def determinant_multiplier(self) -> Cyc:
        """det of the image over det of the source: w^(dm) det(D)^n times
        the two permutation signs, computed honestly from det(D) = w^(1+2+...+d)."""
        d = self.d
        det_d_power = omega(d, self.n * math.comb(d + 1, 2))
        value = omega(d, d * self.m) * det_d_power
        return value * (cycle_sign(self.pi.perm()) * cycle_sign(self.sigma))


@dataclasses.dataclass(frozen=True)
class SymmetryEnumeration:
    d: int
    full_order: int          # |H~|, all (m, n, pi, sigma)
    preserving_order: int    # |H|, multiplier +1
    reversing_order: int
    formula_order: int       # d^3 phi(d) d! / 2
    printed_order: int | None
    faithful: bool | None    # None when the check was skipped (order-only)
    elements: tuple[SymElement, ...] | None

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

    A signature carries pi and sigma^-1 verbatim, so two signatures can only
    collide when pi and sigma agree; it then suffices that distinct (m, n)
    give distinct phase sequences (m + n*r mod d). For d <= 4 the full
    signature sets are also built directly, cross-checking that reduction.
    """
    phases = {tuple((m + n * r) % d for r in range(1, d + 1))
              for m in range(d) for n in range(d)}
    if len(phases) != d * d:
        return False
    if d <= 4:
        signatures = set()
        total = 0
        for m in range(d):
            for n in range(d):
                for pi in affine_group(d):
                    for sigma in Perm.all_perms(d):
                        signatures.add(SymElement(m, n, pi, sigma).signature())
                        total += 1
        return len(signatures) == total
    return True


def _multiplier_factors(d: int) -> tuple[dict, list, list]:
    """The determinant multiplier's factors, each evaluated once: the phase
    factor w^(dm) det(D)^n as an integer sign per (m, n), and the cycle
    sign of every affine pi and of every sigma. The multiplier of
    (m, n, pi, sigma) is the product of the three, so it is +-1 exactly
    when the phase factor is; any other phase factor raises."""
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
    pis = [(pi, cycle_sign(pi.perm())) for pi in affine_group(d)]
    sigmas = [(sigma, cycle_sign(sigma)) for sigma in Perm.all_perms(d)]
    return phase, pis, sigmas


def enumerate_symmetries(d: int, with_elements: bool = True,
                         check_faithful: bool = True) -> SymmetryEnumeration:
    """Count all (m, n, pi, sigma) by determinant multiplier, and compare
    |H| against both the closed formula and the printed table.

    The counts come from tallies of the factor signs: a phase sign a and a
    pi sign b pair with every sigma of sign a*b to give multiplier +1, so
    |H| = sum over a, b of #phases(a) * #pi(b) * #sigma(a*b), and every
    other tuple reverses. For d = 6 call with with_elements=False
    (order-only mode); the element list is supported for d <= 5.
    """
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    if with_elements and d > 5:
        raise ValueError("element lists are limited to d <= 5")
    phase, pis, sigmas = _multiplier_factors(d)
    phase_count = collections.Counter(phase.values())
    pi_count = collections.Counter(sign for _, sign in pis)
    sigma_count = collections.Counter(sign for _, sign in sigmas)
    preserving = sum(phase_count[a] * pi_count[b] * sigma_count[a * b]
                     for a in (1, -1) for b in (1, -1))
    total = len(phase) * len(pis) * len(sigmas)
    elements = None
    if with_elements:
        elements = tuple(SymElement(m, n, pi, sigma)
                         for m, n in phase
                         for pi, _ in pis
                         for sigma, _ in sigmas)
    faithful = check_faithfulness(d) if check_faithful else None
    return SymmetryEnumeration(
        d=d, full_order=total, preserving_order=preserving,
        reversing_order=total - preserving,
        formula_order=d ** 3 * euler_totient(d) * math.factorial(d) // 2,
        printed_order=PRINTED_SUBGROUP_ORDERS.get(d),
        faithful=faithful,
        elements=elements)


# ---------------------------------------------------------------------------
# action on the decomposition


@dataclasses.dataclass(frozen=True)
class ActionOutcome:
    bijection: bool
    preserved: int
    flipped: int
    structural_failures: int

    @property
    def sign_preserving(self) -> bool:
        return self.bijection and self.flipped == 0 \
            and self.structural_failures == 0

    @property
    def sign_reversing(self) -> bool:
        return self.bijection and self.preserved == 0 \
            and self.structural_failures == 0 and self.flipped > 0


class _TermTable:
    """The terms of a main decomposition keyed by the (sigma, j) read from
    their forms, built once and shared by every element acted on it.

    A term's form must be w^k D^j P_sigma for the (sigma images, j) of its
    index (k is free: w^k dies in the d-th power); any other form raises
    ValueError, so the action never trusts an index its form contradicts.
    """

    def __init__(self, dec: PowerDecomposition):
        if dec.scheme != "main":
            raise ValueError(
                "the symmetry action is defined for the main scheme")
        self.d = dec.d
        self.rows = []
        # equal coefficients share one small int, so comparing is int ==
        ids: dict[Cyc, int] = {}
        for term in dec.terms:
            member = mono_membership(dec.d, term.form.support())
            read = (None if member is None
                    else (member.sigma.images, member.j or dec.d))
            if read != term.index:
                raise ValueError(f"term {term.index} has a form that reads "
                                 f"as {read}")
            self.rows.append((read[0], read[1],
                              ids.setdefault(term.coeff, len(ids))))
        self.coeff_ids = {(images, j): coeff_id
                          for images, j, coeff_id in self.rows}

    def images(self, m: int, n: int, pi_images: tuple[int, ...],
               sigma_images: tuple[int, ...]) -> list:
        """Each term's image under X -> w^m D^n P_pi X P_sigma, as (image
        sigma images, image j mod d or None when outside M, the source's
        coefficient id).

        A term's matrix has entry w^(j * pi r) at (pi r, source(pi r)), so
        the image row r holds w^(m + nr + j*pi r) at column
        sigma(source(pi r)); the w^k scalar dies in the d-th power.
        """
        d = self.d
        out = []
        for source, j, coeff_id in self.rows:
            image = tuple(sigma_images[source[p - 1] - 1] for p in pi_images)
            solved = _solve_row_exponents(
                d, [(m + n * r + j * p) % d
                    for r, p in enumerate(pi_images, start=1)])
            out.append((image, None if solved is None else solved[1],
                        coeff_id))
        return out

    def outcome(self, image_rows: list, shift: int = 0) -> ActionOutcome:
        """Compare every image's coefficient with its source's; an image
        outside M or outside the decomposition is a structural failure.
        ``shift`` adds n to each image j: a phase D^n adds n*r to the row
        exponents, which keeps them affine in r and moves j by n, so the
        images at (m, n) are those at (0, 0) shifted by n."""
        d = self.d
        seen = set()
        preserved = flipped = failures = 0
        for image, j, coeff_id in image_rows:
            index = None if j is None else (image, (j + shift - 1) % d + 1)
            image_coeff_id = self.coeff_ids.get(index)
            if image_coeff_id is None:
                failures += 1
                continue
            seen.add(index)
            if image_coeff_id == coeff_id:
                preserved += 1
            else:
                flipped += 1
        return ActionOutcome(
            bijection=len(seen) == len(image_rows) and failures == 0,
            preserved=preserved, flipped=flipped,
            structural_failures=failures)

    def act(self, h: SymElement) -> ActionOutcome:
        if h.d != self.d:
            raise ValueError(
                "element dimension does not match the decomposition")
        return self.outcome(self.images(h.m, h.n, h.pi.perm().images,
                                        h.sigma.images))


def check_symmetry_action(d: int) -> bool:
    """Every element of H acts as a sign-preserving term bijection.

    Each (pi, sigma) image table is built once, at m = n = 0; the phases
    (m, n) whose multiplier sign makes the element preserving then only
    shift the image j by n and compare coefficients.
    """
    if not 2 <= d <= 4:
        raise ValueError(f"d must be in [2, 4], got {d}")
    table = _TermTable(main_decomposition(d))
    phase, pis, sigmas = _multiplier_factors(d)
    for pi, pi_sign in pis:
        pi_images = pi.perm().images
        for sigma, sigma_sign in sigmas:
            image_rows = None
            for (_, n), phase_sign in phase.items():
                if phase_sign * pi_sign * sigma_sign != 1:
                    continue
                if image_rows is None:
                    image_rows = table.images(0, 0, pi_images, sigma.images)
                if not table.outcome(image_rows, shift=n).sign_preserving:
                    return False
    return True


def sample_symmetry_actions(d: int, count: int, seed: int = 0) -> dict:
    """Random elements of H~ acted on the decomposition: preserving
    elements must be sign-preserving, reversing ones sign-reversing."""
    rng = random.Random(seed)
    table = _TermTable(main_decomposition(d))
    aff = affine_group(d)
    perms = list(Perm.all_perms(d))
    one = Cyc.one(d)
    stats = {"checked": 0, "preserving_ok": 0, "reversing_ok": 0, "bad": 0}
    for _ in range(count):
        elem = SymElement(rng.randrange(d), rng.randrange(d),
                          rng.choice(aff), rng.choice(perms))
        outcome = table.act(elem)
        stats["checked"] += 1
        if elem.determinant_multiplier() == one:
            key = "preserving_ok" if outcome.sign_preserving else "bad"
        else:
            key = "reversing_ok" if outcome.sign_reversing else "bad"
        stats[key] += 1
    return stats


# ---------------------------------------------------------------------------
# transpose closure and conjugation


def transpose_closure(d: int) -> tuple[bool, list[tuple[int, tuple[int, ...]]]]:
    """Is M closed under transposition? Returns the verdict and the list of
    (j, sigma images) whose transpose leaves M (k is irrelevant: it scales
    the whole matrix and survives transposition unchanged)."""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    witnesses = []
    for sigma in Perm.all_perms(d):
        inv = sigma.inverse()
        for j in range(d):
            # transpose of D^j P_sigma has entry w^(j * inv(r)) at (r, inv r)
            exponents = [(j * inv(r)) % d for r in range(1, d + 1)]
            if _solve_row_exponents(d, exponents) is None:
                witnesses.append((j, sigma.images))
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
    d = len(m)
    total = Cyc.zero(order)
    for perm in Perm.all_perms(d):
        prod = Cyc.one(order)
        for r in range(1, d + 1):
            prod = prod * m[r - 1][perm(r) - 1]
        total = total + prod * perm.sign
    return total


def conjugate_decomposition(a, b, dec: PowerDecomposition) -> PowerDecomposition:
    """Replace each term's coefficient matrix C by a*C*b. Requires
    det(a*b) = 1, which keeps the target determinant unscaled, and a
    determinant target: X -> aXb preserves no other target."""
    if dec.target != TARGET_DETERMINANT:
        raise ValueError(f"conjugation preserves only the determinant, not "
                         f"the {dec.target!r} target")
    order = dec.order
    d = dec.d
    if matrix_determinant(matrix_product(a, b, order), order) != Cyc.one(order):
        raise ValueError("det(a*b) must be exactly 1")
    # a*C*b is the sum over C's support of v * (column i of a) (row j of b)
    columns = [[(r, row[i]) for r, row in enumerate(a, start=1) if row[i]]
               for i in range(d)]
    rows = [[(c, y) for c, y in enumerate(row, start=1) if y] for row in b]
    new_terms = []
    for term in dec.terms:
        image = collections.defaultdict(lambda: Cyc.zero(order))
        for (i, j), v in term.form.support():
            for r, x in columns[i - 1]:
                xv = x * v
                for c, y in rows[j - 1]:
                    image[r, c] += xv * y
        new_terms.append(PowerTerm(term.index, term.coeff,
                                   LinForm(order, d, image), term.exponent))
    return PowerDecomposition(d, "conjugated", dec.scale, dec.target, order,
                              tuple(new_terms))
