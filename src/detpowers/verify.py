"""Exact verification of the power-sum identities.

Two independent engines are provided:

* expansion mode builds one coefficient table for the whole sum. A term
  whose scalars are all units +-w^k adds +-multinomial to an integer
  vector per monomial, an element of the group ring Z[C_n] indexed by
  the phase, and each vector is projected to Q(w) once at the end; any
  other term is expanded with ``expand_power`` and Cyc products;
* streaming mode never expands a term: it walks the candidate monomials
  of the scheme in sorted order and computes each total coefficient from
  the scheme's combinatorial formula, corrected, for that one monomial,
  by every given term that differs from the scheme's own term.

The engines share no code path, so they act as each other's oracle; both
read the terms they are given, compare against the scaled target
polynomial with exact arithmetic, and name the first mismatching monomial
in sorted order as the witness.

The module also houses the closed-form coefficient rule for the single-row
phase polynomial P = sum_j (-1)^((d+1)j) (sum_i w^(ij) x_i)^d and the
support/pairing rule for determinant coefficients.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from operator import add, itemgetter, mul

from .cyclotomic import Cyc, from_root_coefficients, omega
from .decompositions import (
    TARGET_DETERMINANT,
    TARGET_DIAGONAL,
    PowerDecomposition,
    ProductDecomposition,
    classical_decomposition,
    gurvits_decomposition,
    main_decomposition,
    monomial_power_decomposition,
    sign_vectors,
)
from .multipoly import (
    LinForm,
    Monomial,
    SparsePoly,
    determinant_poly,
    expand_power,
    monomial,
    multinomial,
    perm_sign,
    weak_compositions,
)


@dataclasses.dataclass(frozen=True)
class MultiIndex:
    """A degree-d monomial in variables x_1..x_d, stored as the sorted
    tuple of its d index entries (with repetition)."""
    entries: tuple[int, ...]

    def __post_init__(self):
        d = len(self.entries)
        if tuple(sorted(self.entries)) != self.entries:
            raise ValueError("entries must be sorted ascending")
        if not all(1 <= v <= d for v in self.entries):
            raise ValueError(f"entries must lie in [1, {d}]")

    @classmethod
    def of(cls, values) -> "MultiIndex":
        return cls(tuple(sorted(values)))

    @property
    def d(self) -> int:
        return len(self.entries)

    def multiplicities(self) -> tuple[int, ...]:
        """How many times each of 1..d occurs."""
        counts = [0] * self.d
        for v in self.entries:
            counts[v - 1] += 1
        return tuple(counts)

    def support(self) -> frozenset[int]:
        return frozenset(self.entries)


@dataclasses.dataclass(frozen=True)
class IJPair:
    """Names the monomial x[i_1,j_1] * ... * x[i_d,j_d]."""
    I: tuple[int, ...]
    J: tuple[int, ...]

    def __post_init__(self):
        d = len(self.I)
        if len(self.J) != d:
            raise ValueError("I and J must have equal length")
        if not all(1 <= v <= d for v in self.I + self.J):
            raise ValueError(f"indices must lie in [1, {d}]")

    @property
    def d(self) -> int:
        return len(self.I)

    def as_monomial(self) -> Monomial:
        counts: dict[tuple[int, int], int] = {}
        for i, j in zip(self.I, self.J):
            counts[(i, j)] = counts.get((i, j), 0) + 1
        return monomial(counts)


def closed_form_coefficient(index: MultiIndex, d: int) -> Cyc:
    """Coefficient of the monomial named by ``index`` in the phase
    polynomial P, by the closed-form rule: (d choose multiplicities) * d
    when the entry sum is congruent to binom(d+1, 2) mod d, else 0."""
    if index.d != d:
        raise ValueError(f"index has {index.d} entries, expected {d}")
    if sum(index.entries) % d != math.comb(d + 1, 2) % d:
        return Cyc.zero(d)
    value = multinomial(d, index.multiplicities()) * d
    return Cyc.from_int(d, value)


def phase_polynomial(d: int) -> SparsePoly:
    """P = sum_j (-1)^((d+1)j) (sum_i w^(ij) x_i)^d, with x_i stored as
    the grid variable (i, 1)."""
    total = SparsePoly.zero(d)
    for j in range(1, d + 1):
        form = LinForm.from_entries(
            d, d, {(i, 1): omega(d, i * j) for i in range(1, d + 1)})
        total = total + expand_power(form, d) * ((-1) ** ((d + 1) * j))
    return total


def check_closed_form_coefficients(d: int) -> bool:
    """Exhaustively compare the closed-form rule against the coefficient of
    every degree-d monomial in the expanded phase polynomial."""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    poly = phase_polynomial(d)
    seen = 0
    for comp in weak_compositions(d, d):
        index = MultiIndex.of(
            v for v, e in enumerate(comp, start=1) for _ in range(e))
        mono = monomial({(i, 1): e for i, e in enumerate(comp, start=1)})
        if poly.coefficient(mono) != closed_form_coefficient(index, d):
            return False
        seen += 1
    # every monomial of P has degree d, so the sweep above was exhaustive
    return seen == math.comb(2 * d - 1, d - 1) and len(poly) <= seen


def determinant_coefficient(pair: IJPair) -> int:
    """Coefficient of x_{I,J} in the determinant: the sign of the pairing
    permutation i_k -> j_k when both index tuples cover [d] and the pairing
    is a well-defined bijection, 0 otherwise."""
    d = pair.d
    full = set(range(1, d + 1))
    if set(pair.I) != full or set(pair.J) != full:
        return 0
    mapping: dict[int, int] = {}
    for i, j in zip(pair.I, pair.J):
        if mapping.setdefault(i, j) != j:
            return 0
    return perm_sign(tuple(mapping[i] for i in range(1, d + 1)))


# ---------------------------------------------------------------------------
# decomposition verification


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    scheme: str
    d: int
    mode: str
    equal: bool
    term_count: int
    distinct_monomials: int
    elapsed: float
    witness: tuple[Monomial, Cyc, Cyc] | None = None
    mismatch_count: int = 0
    mismatches: tuple[tuple[Monomial, Cyc, Cyc], ...] | None = None


# --- expansion engine -------------------------------------------------------
#
# A term whose coefficient and nonzero form entries are all units +-w^k adds
# +-multinomial(e) * w^phase to the monomial of each weak composition e of
# the exponent over the form's support, where the phase is the exponent-
# weighted sum of the entries' root powers. So each monomial accumulates an
# integer vector indexed by the phase mod the root order, an element of the
# group ring Z[C_order], and is projected to Q(w) once at the end; no Cyc
# product is needed. Any other term falls back to ``expand_power`` and Cyc
# arithmetic, and its sums merge into the same table.


def _unit(c: Cyc) -> tuple[int, int] | None:
    """(sign, k) with c == sign * w^k, or None. The sign is found apart
    from the root table because -1 is not a power of w at order 1."""
    k = c.root_power()
    if k is not None:
        return 1, k
    k = (-c).root_power()
    return None if k is None else (-1, k)


def _unit_term(term):
    """(sign, k) of the coefficient, the support variables, and the root
    powers and negation flags (0/1) of the entries, when every scalar of
    the term is a unit; else None."""
    head = _unit(term.coeff)
    if head is None:
        return None
    variables, powers, negated = [], [], []
    for var, c in term.form.support():
        unit = _unit(c)
        if unit is None:
            return None
        variables.append(var)
        powers.append(unit[1])
        negated.append(int(unit[0] < 0))
    return head, tuple(variables), powers, negated


def _cyc_accumulate(terms, acc: dict) -> None:
    """Add coeff * form^exponent for each term into acc with ``expand_power``
    and Cyc products: the fallback path, and the oracle of the group ring."""
    for term in terms:
        expanded = expand_power(term.form, term.exponent)
        coeff = term.coeff
        for mono, c in expanded.terms.items():
            contrib = c * coeff
            prior = acc.get(mono)
            acc[mono] = contrib if prior is None else prior + contrib


def _accumulate_terms(terms, order: int, ring: dict, fallback: dict) -> None:
    """Add each term into ``ring`` (monomial -> Z[C_order] vector) when its
    scalars are all units, else into ``fallback`` (monomial -> Cyc). Both
    keep keys whose coefficients cancel to zero, so their key union is the
    union of the terms' supports."""
    tables: dict[tuple[int, int], tuple] = {}
    last_vars = vecs = None
    for term in terms:
        unit = _unit_term(term)
        if unit is None:
            _cyc_accumulate((term,), fallback)
            continue
        (sign, k0), variables, powers, negated = unit
        key = (term.exponent, len(variables))
        if key not in tables:
            comps = list(weak_compositions(*key))
            nonzero = [[(k, e) for k, e in enumerate(c) if e] for c in comps]
            mults = [multinomial(term.exponent, c) for c in comps]
            tables[key] = comps, nonzero, {1: mults, -1: [-m for m in mults]}
        comps, nonzero, signed = tables[key]
        if variables != last_vars:
            # builders emit the terms of one support consecutively
            last_vars, vecs = variables, []
            cells = [[(i, j, e) for e in range(term.exponent + 1)]
                     for i, j in variables]
            for nz in nonzero:
                mono = tuple([cells[k][e] for k, e in nz])
                vec = ring.get(mono)
                if vec is None:
                    vec = ring[mono] = [0] * order
                vecs.append(vec)
        odd = negated if any(negated) else None
        phased = powers if any(powers) else None
        for vec, comp, m in zip(vecs, comps, signed[sign]):
            if odd and sum(map(mul, comp, odd)) & 1:
                m = -m
            if phased:
                vec[(k0 + sum(map(mul, comp, phased))) % order] += m
            else:
                vec[k0] += m


def _merge_cyc(acc: dict, part: dict) -> None:
    for mono, c in part.items():
        prior = acc.get(mono)
        acc[mono] = c if prior is None else prior + c


def _expand_chunk(order: int, terms) -> tuple[dict, dict]:
    ring: dict = {}
    fallback: dict = {}
    _accumulate_terms(terms, order, ring, fallback)
    return ring, fallback


def _expand_sum(dec: PowerDecomposition, jobs: int) -> dict:
    order = dec.order
    if jobs <= 1 or len(dec.terms) < 4 * jobs:
        ring, fallback = _expand_chunk(order, dec.terms)
    else:
        # one slice per worker: the partial tables are merged here, serially,
        # and every extra slice repeats the monomials slices share
        n = len(dec.terms)
        chunk = -(-n // jobs)
        slices = [dec.terms[s:s + chunk] for s in range(0, n, chunk)]
        ring, fallback = {}, {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part_ring, part_fallback in pool.map(
                    _expand_chunk, itertools.repeat(order), slices):
                for mono, vec in part_ring.items():
                    prior = ring.get(mono)
                    ring[mono] = vec if prior is None \
                        else list(map(add, prior, vec))
                _merge_cyc(fallback, part_fallback)
    acc = {mono: from_root_coefficients(order, vec)
           for mono, vec in ring.items()}
    _merge_cyc(acc, fallback)
    return acc


def _compare_with_target(dec: PowerDecomposition, computed: dict,
                         collect_all: bool):
    """Returns (mismatch list, distinct monomial count). ``computed`` maps
    monomials to total coefficients and may carry exact zeros."""
    target = dec.target_poly() * dec.scale
    zero = Cyc.zero(dec.order)
    mismatches = [(mono, got, zero) for mono, got in computed.items()
                  if got and mono not in target.terms]
    for mono, want in target.terms.items():
        got = computed.get(mono, zero)
        if got != want:
            mismatches.append((mono, got, want))
    # the witness is the first mismatch in sorted monomial order
    mismatches.sort(key=itemgetter(0))
    if not collect_all:
        del mismatches[1:]
    return mismatches, len(computed)


def verify_power_decomposition(dec: PowerDecomposition, mode: str = "expansion",
                               jobs: int = 1,
                               collect_all: bool = False) -> VerificationReport:
    """Check scale * target == sum of the terms, exactly.

    ``mode`` picks the engine: "expansion" works for any decomposition;
    "streaming" works for the four structured schemes, and raises
    ValueError when a given term that differs from the scheme's own
    reaches a monomial outside the scheme's walk.
    ``jobs`` > 1 parallelizes expansion mode over term chunks; the sum is
    identical because merging is associative and commutative.
    """
    start = time.perf_counter()
    if mode == "expansion":
        computed = _expand_sum(dec, jobs)
        mismatches, distinct = _compare_with_target(dec, computed, collect_all)
    elif mode == "streaming":
        mismatches, distinct = _stream_check(dec, collect_all)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    elapsed = time.perf_counter() - start
    return VerificationReport(
        scheme=dec.scheme, d=dec.d, mode=mode, equal=not mismatches,
        term_count=len(dec.terms), distinct_monomials=distinct,
        elapsed=elapsed,
        witness=mismatches[0] if mismatches else None,
        mismatch_count=len(mismatches),
        mismatches=tuple(mismatches) if collect_all else None)


# --- streaming engine -------------------------------------------------------
#
# For one candidate monomial with per-row exponents e_i on the entries
# (i, sigma i), every term whose form's support contains the monomial's
# support contributes multinomial(d; e) times the product of its coefficients
# raised to the exponents. Grouping the contributions by the permutation and
# summing the per-group scalar factors gives the total coefficient without
# ever materializing the expanded sum. That formula describes the scheme's
# own terms; each given term that differs from the scheme's term in its
# position adds its difference, term minus scheme term, to the monomials
# its power reaches.


@lru_cache(maxsize=None)
def _phase_group_sum(d: int, s: int) -> Cyc:
    """sum over j = 1..d of (-1)^((d+1)j) w^(js)."""
    total = Cyc.zero(d)
    for j in range(1, d + 1):
        total = total + omega(d, j * s) * ((-1) ** ((d + 1) * j))
    return total


@lru_cache(maxsize=None)
def _sign_vector_sum(d: int, powers: tuple[int, ...]) -> int:
    """sum over sign vectors eps (eps_1 = +1) of prod_i eps_i^powers[i]."""
    total = 0
    for eps in sign_vectors(d):
        prod = 1
        for e, k in zip(eps, powers):
            prod *= e ** k
        total += prod
    return total


def _signed_extension_sum(d: int, partial: dict[int, int]) -> int:
    """Sum of signs of all permutations extending the partial row -> column
    assignment (which must be injective). With two or more unassigned rows,
    swapping the images of two of them pairs the extensions off with
    opposite signs, so the sum is 0; otherwise the extension is unique."""
    if d - len(partial) >= 2:
        return 0
    spare = iter(set(range(1, d + 1)).difference(partial.values()))
    return perm_sign(tuple(partial[r] if r in partial else next(spare)
                           for r in range(1, d + 1)))


# the builders whose terms the streaming formulas describe, bound by name
# so that a replaced entry of the mutable SCHEME_BUILDERS registry cannot
# become the reference a given decomposition is compared with
_STREAM_REFERENCE = {
    "main": main_decomposition,
    "classical": classical_decomposition,
    "gurvits": gurvits_decomposition,
    "monomial": monomial_power_decomposition,
}


def _term_corrections(dec: PowerDecomposition, diagonal: bool) -> dict:
    """The terms of ``dec`` that differ from the term its scheme's builder
    puts in the same position, each paired with that builder term: the
    given term with sign +1, the builder term with sign -1. Both are
    indexed by every nonempty subset of their support, so a monomial finds
    the terms whose power reaches it by its own support. Raises ValueError
    when the root orders differ, or for a differing term whose support is
    not a partial permutation pattern the walk covers (only the diagonal
    when ``diagonal``)."""
    d = dec.d
    family = _STREAM_REFERENCE[dec.scheme](d)
    if dec.order != family.order:
        raise ValueError(f"streaming {dec.scheme} needs root order "
                         f"{family.order}, got {dec.order}")
    out: dict[tuple[tuple[int, int], ...], list] = {}
    for mine, theirs in zip(dec.terms, family.terms, strict=True):
        if mine.coeff == theirs.coeff and mine.form == theirs.form:
            continue
        for sign, term in ((1, mine), (-1, theirs)):
            support = term.form.support()
            variables = [var for var, _ in support]
            rows = {i for i, _ in variables}
            cols = {j for _, j in variables}
            if (len(rows) < len(variables) or len(cols) < len(variables)
                    or (diagonal and any(i != j for i, j in variables))):
                raise ValueError(
                    f"term {term.index!r} differs from the scheme's term and "
                    f"its support {variables} is not a pattern the streaming "
                    f"walk covers")
            powers = {var: [c ** e for e in range(d + 1)]
                      for var, c in support}
            for size in range(1, len(variables) + 1):
                for sub in itertools.combinations(variables, size):
                    out.setdefault(sub, []).append((sign, term.coeff, powers))
    return out


def _correction(entries, mono: Monomial, mult: int, order: int) -> Cyc:
    """sum of sign * coeff * mult * prod entry^e over the indexed terms."""
    total = Cyc.zero(order)
    for sign, coeff, powers in entries:
        value = coeff * (sign * mult)
        for i, j, e in mono:
            value = value * powers[(i, j)][e]
        total = total + value
    return total


def _stream_check(dec: PowerDecomposition, collect_all: bool):
    """Walk the monomials the scheme's terms can reach, in sorted order, and
    compare each total coefficient with the target. The total is the
    scheme's combinatorial formula, corrected by every given term that
    differs from the scheme's own term in its position."""
    d, order, scheme = dec.d, dec.order, dec.scheme
    if scheme not in _STREAM_REFERENCE:
        raise ValueError(f"streaming mode not available for scheme {scheme!r}")
    if dec.target not in (TARGET_DETERMINANT, TARGET_DIAGONAL):
        raise ValueError(f"unknown target {dec.target!r}")
    # the monomial scheme lives on the diagonal; a determinant target also
    # needs the off-diagonal permutation patterns walked
    diagonal = scheme == "monomial" and dec.target == TARGET_DIAGONAL
    corrections = _term_corrections(dec, diagonal)
    # each monomial once: a weak composition e of d over the rows, and an
    # injective choice of columns for the rows with e_i > 0; the monomials
    # share one (i, j, e) entry object per value
    cell = {c: c for c in itertools.product(range(1, d + 1), repeat=3)}
    candidates = []
    for comp in weak_compositions(d, d):
        rows = tuple(i for i, e in enumerate(comp, start=1) if e)
        exps = tuple(e for e in comp if e)
        mult = multinomial(d, comp)
        choices = ([rows] if diagonal
                   else itertools.permutations(range(1, d + 1), len(rows)))
        for cols in choices:
            mono = tuple(map(cell.__getitem__, zip(rows, cols, exps)))
            candidates.append((mono, comp, mult))
    # sorted, like expansion's comparison, so both name the same witness;
    # on a mismatch the count is of the monomials checked so far
    candidates.sort(key=itemgetter(0))
    mismatches = []
    checked = 0
    for mono, comp, mult in candidates:
        checked += 1
        got = _streaming_coefficient(scheme, d, order, mono, comp, mult)
        if corrections:
            entries = corrections.get(tuple((i, j) for i, j, _ in mono))
            if entries:
                got = got + _correction(entries, mono, mult, order)
        want = _target_coefficient(dec, mono, comp)
        if got != want:
            mismatches.append((mono, got, want))
            if not collect_all:
                break
    return mismatches, checked


def _streaming_coefficient(scheme: str, d: int, order: int, mono: Monomial,
                           comp: tuple[int, ...], mult: int) -> Cyc:
    if scheme == "monomial":
        # diagonal support only, no permutation group
        if any(i != j for i, j, _ in mono):
            return Cyc.zero(1)
        eps_sum = _sign_vector_sum(d, tuple(e + 1 for e in comp))
        return Cyc.from_int(1, mult * eps_sum)
    ext = _signed_extension_sum(d, {i: j for i, j, _ in mono})
    if not ext:
        return Cyc.zero(order)
    if scheme == "main":
        s = sum(i * e for i, _, e in mono) % d
        return _phase_group_sum(d, s) * (mult * ext)
    if scheme == "classical":
        eps_sum = _sign_vector_sum(d, tuple(e + 1 for e in comp))
        return Cyc.from_int(1, mult * ext * eps_sum)
    # gurvits
    zero_rows = sum(1 for e in comp if e == 0)
    return Cyc.from_int(1, mult * ext * (1 - zero_rows))


def _target_coefficient(dec: PowerDecomposition, mono: Monomial,
                        comp: tuple[int, ...]) -> Cyc:
    if any(e != 1 for e in comp):
        return Cyc.zero(dec.order)
    if dec.target == TARGET_DETERMINANT:
        sign = perm_sign(tuple(j for _, j, _ in mono))
        return Cyc.from_int(dec.order, dec.scale * sign)
    # diagonal-product target
    if all(i == j for i, j, _ in mono):
        return Cyc.from_int(dec.order, dec.scale)
    return Cyc.zero(dec.order)


def verify_product_identity(pd: ProductDecomposition) -> bool:
    """Expand the signed products of linear forms and compare with the
    determinant, over the integers."""
    total = SparsePoly.zero(1)
    for piece in pd.expanded_terms():
        total = total + piece
    return total == determinant_poly(pd.d)
