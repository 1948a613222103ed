"""Exact verification of the power-sum identities.

Two independent engines are provided:

* expansion mode expands every term with ``expand_power`` and adds the
  results into one big coefficient table;
* streaming mode never stores the whole sum: it walks candidate monomials
  group by group and computes each total coefficient combinatorially,
  summing the per-term contributions for that one monomial.

The engines share no code path, so they act as each other's oracle; both
compare against the scaled target polynomial with exact arithmetic.

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

from .cyclotomic import Cyc, omega
from .decompositions import (
    PowerDecomposition,
    ProductDecomposition,
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


def _accumulate_terms(terms, acc: dict) -> None:
    """Add coeff * form^exponent for each term into acc, keeping keys whose
    coefficients cancel to zero (the key set is the union of supports)."""
    for term in terms:
        expanded = expand_power(term.form, term.exponent)
        coeff = term.coeff
        for mono, c in expanded.terms.items():
            contrib = c * coeff
            prior = acc.get(mono)
            acc[mono] = contrib if prior is None else prior + contrib


def _expand_chunk(terms) -> dict:
    acc: dict = {}
    _accumulate_terms(terms, acc)
    return acc


def _expand_sum(dec: PowerDecomposition, jobs: int) -> dict:
    if jobs <= 1 or len(dec.terms) < 4 * jobs:
        return _expand_chunk(dec.terms)
    n = len(dec.terms)
    chunk = -(-n // (4 * jobs))
    slices = [dec.terms[s:s + chunk] for s in range(0, n, chunk)]
    acc = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for partial in pool.map(_expand_chunk, slices):
            for mono, c in partial.items():
                prior = acc.get(mono)
                acc[mono] = c if prior is None else prior + c
    return acc


def _compare_with_target(dec: PowerDecomposition, computed: dict,
                         collect_all: bool):
    """Returns (mismatch list, distinct monomial count). ``computed`` maps
    monomials to total coefficients and may carry exact zeros."""
    target = dec.target_poly() * dec.scale
    zero = Cyc.zero(dec.order)
    mismatches = []
    for mono in sorted(set(computed) | set(target.terms)):
        got = computed.get(mono, zero)
        want = target.coefficient(mono)
        if got != want:
            mismatches.append((mono, got, want))
            if not collect_all:
                break
    return mismatches, len(computed)


def verify_power_decomposition(dec: PowerDecomposition, mode: str = "expansion",
                               jobs: int = 1,
                               collect_all: bool = False) -> VerificationReport:
    """Check scale * target == sum of the terms, exactly.

    ``mode`` picks the engine: "expansion" works for any decomposition;
    "streaming" is implemented for the four structured schemes only.
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
# ever materializing the expanded sum.


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


def _stream_check(dec: PowerDecomposition, collect_all: bool):
    d, order, scheme = dec.d, dec.order, dec.scheme
    if scheme not in ("main", "classical", "gurvits", "monomial"):
        raise ValueError(f"streaming mode not available for scheme {scheme!r}")
    if scheme == "monomial":
        groups = [tuple(range(1, d + 1))]  # the identity diagonal only
    else:
        groups = list(itertools.permutations(range(1, d + 1)))
    seen: set[Monomial] = set()
    mismatches = []
    fact = [math.factorial(k) for k in range(d + 1)]
    for images in groups:
        for comp in weak_compositions(d, d):
            mono = tuple((i, images[i - 1], e)
                         for i, e in enumerate(comp, start=1) if e)
            if mono in seen:
                continue
            seen.add(mono)
            mult = fact[d]
            for e in comp:
                mult //= fact[e]
            got = _streaming_coefficient(scheme, d, order, mono, comp, mult)
            want = _target_coefficient(dec, mono, comp)
            if got != want:
                mismatches.append((mono, got, want))
                if not collect_all:
                    return mismatches, len(seen)
    return mismatches, len(seen)


def _streaming_coefficient(scheme: str, d: int, order: int, mono: Monomial,
                           comp: tuple[int, ...], mult: int) -> Cyc:
    partial = {i: j for i, j, _ in mono}
    ext = _signed_extension_sum(d, partial)
    if scheme == "main":
        s = sum(i * e for i, _, e in mono) % d
        return _phase_group_sum(d, s) * (mult * ext)
    if scheme == "classical":
        eps_sum = _sign_vector_sum(d, tuple(e + 1 for e in comp))
        return Cyc.from_int(1, mult * ext * eps_sum)
    if scheme == "gurvits":
        zero_rows = sum(1 for e in comp if e == 0)
        return Cyc.from_int(1, mult * ext * (1 - zero_rows))
    # monomial scheme: diagonal support only, no permutation group
    eps_sum = _sign_vector_sum(d, tuple(e + 1 for e in comp))
    return Cyc.from_int(1, mult * eps_sum)


def _target_coefficient(dec: PowerDecomposition, mono: Monomial,
                        comp: tuple[int, ...]) -> Cyc:
    if any(e != 1 for e in comp):
        return Cyc.zero(dec.order)
    if dec.target == "determinant":
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
