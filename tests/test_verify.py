import collections
import copy
import dataclasses
import functools
import gc
import itertools
import json
import math
import random
import struct
import sys
import time
from fractions import Fraction
from pathlib import Path
from operator import itemgetter, mul, ne

import pytest

from detpowers import cli, decompositions, multipoly, verify
from detpowers.cyclotomic import (
    Cyc,
    _signed_roots,
    from_root_coefficients,
    omega,
)
from detpowers.decompositions import (
    SCHEME_BUILDERS,
    PowerDecomposition,
    PowerTerm,
    classical_decomposition,
    gurvits_decomposition,
    krishna_makam_det3,
    main_decomposition,
    monomial_power_decomposition,
)
from detpowers.multipoly import (
    LinForm,
    SparsePoly,
    expand_power,
    monomial,
    multinomial,
    weak_compositions,
)
from detpowers.symmetry import conjugate_decomposition, cycle_sign
from detpowers.verify import (
    check_closed_form_coefficients,
    closed_form_coefficient,
    _common_denominator,
    _signed_extension_sum,
    _terms_unit_phases,
    verify_power_decomposition,
    verify_product_identity,
)
from test_decompositions import paper_terms


# the builders by scheme, bound here so that no test's edit of the
# SCHEME_BUILDERS registry reaches the oracles
BUILDERS = {
    "main": main_decomposition,
    "classical": classical_decomposition,
    "gurvits": gurvits_decomposition,
    "monomial": monomial_power_decomposition,
}


def flip_one_sign(dec, position):
    term = dec.terms[position]
    flipped = PowerTerm(term.index, term.coeff * (-1), term.form, term.exponent)
    terms = dec.terms[:position] + (flipped,) + dec.terms[position + 1:]
    return dataclasses.replace(dec, terms=terms)


def phase_polynomial(d):
    """The oracle for the lemma: P = sum_j (-1)^((d+1)j) (sum_i w^(ij)
    x_i)^d, expanded with ``expand_power`` and Cyc products, x_i stored as
    the grid variable (i, 1)."""
    total = SparsePoly.zero(d)
    for j in range(1, d + 1):
        form = LinForm(d, d, {(i, 1): omega(d, i * j)
                              for i in range(1, d + 1)})
        total = total + expand_power(form, d) * ((-1) ** ((d + 1) * j))
    return total


def counting(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestClosedFormCoefficient:
    def test_known_values_d3(self):
        # x1 x2 x3, x1^2 x2 and x1^3, by their multiplicities
        assert closed_form_coefficient((1, 1, 1), 3) == Cyc.from_int(3, 18)
        assert closed_form_coefficient((2, 1, 0), 3) == Cyc.zero(3)
        assert closed_form_coefficient((3, 0, 0), 3) == Cyc.from_int(3, 3)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_expanded_phase_polynomial(self, d):
        assert check_closed_form_coefficients(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_closed_form_matches_expand_power_oracle(self, d):
        # every degree-d monomial in x_1..x_d, and no other, in the
        # oracle's P
        poly = phase_polynomial(d)
        monos = set()
        for comp in weak_compositions(d, d):
            mono = monomial({(i, 1): e for i, e in enumerate(comp, start=1)})
            assert poly.coefficient(mono) == closed_form_coefficient(comp, d)
            monos.add(mono)
        assert set(poly.terms) <= monos

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_the_check_takes_no_cyc_products(self, monkeypatch, d):
        assert not hasattr(verify, "expand_power")
        calls = {"mul": 0, "expand_power": 0}
        monkeypatch.setattr(Cyc, "__mul__",
                            counting(calls, "mul", Cyc.__mul__))
        monkeypatch.setattr(Cyc, "__rmul__",
                            counting(calls, "mul", Cyc.__rmul__))
        monkeypatch.setattr(multipoly, "expand_power",
                            counting(calls, "expand_power", expand_power))
        assert check_closed_form_coefficients(d)
        assert calls == {"mul": 0, "expand_power": 0}

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_vanishes_when_support_misses_one_value(self, d):
        # entries covering all but one value force a doubled value, and the
        # congruence then fails, so the coefficient is zero
        import itertools
        for entries in itertools.combinations_with_replacement(range(1, d + 1), d):
            multiplicities = tuple(entries.count(v) for v in range(1, d + 1))
            if multiplicities.count(0) == 1:
                assert closed_form_coefficient(multiplicities, d) \
                    == Cyc.zero(d)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            closed_form_coefficient((1, 1), 3)
        with pytest.raises(ValueError):
            closed_form_coefficient((1, 1, 0), 3)


class TestExpansionMode:
    def test_main_d2_sum_is_four_times_determinant(self):
        report = verify_power_decomposition(main_decomposition(2))
        assert report.equal
        expected = SparsePoly(2, {
            monomial({(1, 1): 1, (2, 2): 1}): Cyc.from_int(2, 4),
            monomial({(1, 2): 1, (2, 1): 1}): Cyc.from_int(2, -4),
        })
        assert main_decomposition(2).target_poly() * 4 == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_main_verifies(self, d):
        report = verify_power_decomposition(main_decomposition(d))
        assert report.equal
        assert report.term_count == d * math.factorial(d)
        assert report.witness is None

    @pytest.mark.parametrize("d", [2, 3])
    def test_other_schemes_verify(self, d):
        for builder in (classical_decomposition, gurvits_decomposition,
                        monomial_power_decomposition):
            assert verify_power_decomposition(builder(d)).equal

    def test_flipped_sign_is_caught_with_witness(self):
        bad = flip_one_sign(main_decomposition(3), 7)
        report = verify_power_decomposition(bad)
        assert not report.equal
        mono, got, want = report.witness
        assert got != want
        assert report.mismatch_count >= 1

    def test_collect_all_lists_every_mismatch(self):
        bad = flip_one_sign(main_decomposition(2), 0)
        report = verify_power_decomposition(bad, collect_all=True)
        assert not report.equal
        assert report.mismatches is not None
        assert len(report.mismatches) == report.mismatch_count > 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            verify_power_decomposition(main_decomposition(2), mode="sideways")


class TestStreamingMode:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_expansion_on_main(self, d):
        dec = main_decomposition(d)
        exp = verify_power_decomposition(dec, mode="expansion")
        stream = verify_power_decomposition(dec, mode="streaming")
        assert stream.equal and exp.equal
        assert stream.distinct_monomials == exp.distinct_monomials
        assert stream.term_count == exp.term_count

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_expansion_on_remaining_schemes(self, d):
        for builder in (classical_decomposition, gurvits_decomposition,
                        monomial_power_decomposition):
            dec = builder(d)
            exp = verify_power_decomposition(dec, mode="expansion")
            stream = verify_power_decomposition(dec, mode="streaming")
            assert stream.equal and exp.equal
            assert stream.distinct_monomials == exp.distinct_monomials

    def test_streaming_rejects_unstructured_schemes(self):
        dec = dataclasses.replace(main_decomposition(2), scheme="conjugated")
        with pytest.raises(ValueError):
            verify_power_decomposition(dec, mode="streaming")


def unitriangular_pair(rng, d, order):
    """A seeded lower and upper unitriangular pair with integer entries in
    [-3, 3] off the diagonal, as matrices over Q(w) of the given order."""
    def matrix(keep):
        return tuple(
            tuple(Cyc.from_int(order, 1 if r == c
                               else rng.randint(-3, 3) if keep(r, c) else 0)
                  for c in range(d))
            for r in range(d))
    return matrix(lambda r, c: c < r), matrix(lambda r, c: c > r)


def conjugated_main3():
    """main(3) conjugated by a unitriangular pair, so its coefficients are
    general elements of Q(w) rather than roots of unity."""
    zero, one, two = (Cyc.from_int(3, v) for v in (0, 1, 2))
    a = ((one, two, zero), (zero, one, zero), (zero, zero, one))
    b = ((one, zero, zero), (zero, one, zero), (zero, -one, one))
    return conjugate_decomposition(a, b, main_decomposition(3))


class TestExpansionChecksTerms:
    def test_jobs_is_accepted_and_ignored(self):
        dec = main_decomposition(4)
        default = verify_power_decomposition(dec)
        for jobs in (1, 2):
            report = verify_power_decomposition(dec, jobs=jobs)
            assert report == default

    @pytest.mark.parametrize("dec, equal", [
        (flip_one_sign(main_decomposition(3), 7), False),
        (conjugated_main3(), True),
        (flip_one_sign(conjugated_main3(), 7), False),
    ], ids=["flipped-main", "conjugated", "flipped-conjugated"])
    def test_verdict_reads_the_given_terms(self, dec, equal):
        assert verify_power_decomposition(dec).equal is equal


def cyc_path(terms):
    """The group ring's oracle: coeff * form^exponent summed term by term
    with ``expand_power`` and Cyc products. Every key a term reaches is
    kept, zeros included."""
    acc = {}
    for term in terms:
        for mono, c in expand_power(term.form, term.exponent).terms.items():
            contrib = c * term.coeff
            prior = acc.get(mono)
            acc[mono] = contrib if prior is None else prior + contrib
    return acc


def expand_sum(dec):
    """The expansion's table as a view for the oracles: each place named by
    its monomial, and its packed int decoded to its vector, times the
    monomial's multinomial and projected to Q(w), zeros included."""
    order, d = dec.order, dec.d
    scale = _common_denominator(dec.terms)
    blocks, acc, width = verify._expand_chunk(order, scale, dec.terms, d, [])
    out = {}
    for mono, value in zip(
            verify._monomials_at(blocks, range(len(acc)), d, dec.d), acc):
        m = multinomial(sum(e for _, _, e in mono), [e for _, _, e in mono])
        digits = verify._digits(value, order, width)
        out[mono] = from_root_coefficients(order, [m * x for x in digits],
                                           scale)
    return out


def circulant(b, order):
    """The rows of multiplication by b in Z[C_order], a circulant matrix:
    (a * b)[k] = sum_i a[i] * b[(k - i) % order] is a dotted with row k."""
    return [tuple([b[(k - i) % order] for i in range(order)])
            for k in range(order)]


def lift(c, order, factor):
    """factor * the numerator of c, as an element of Z[C_order]."""
    return [factor * x for x in c.num] + [0] * (order - len(c.num))


def add_general_term(term, support, order, scale, vecs, mults, nodes,
                     steps):
    """Add scale * coeff * multinomial(e) * prod_k entry_k^e_k into the
    vector of each composition e, with every scalar lifted to the ring.
    Each power of an entry is built once and kept as the circulant rows of
    multiplication by it."""
    exponent = term.exponent
    den = math.lcm(*(c.den for _, c in support))
    powers = []
    for _, c in support:
        power = lift(c, order, den // c.den)
        rows = [None, circulant(power, order)]
        for _ in range(exponent - 1):
            power = [sum(map(mul, power, row)) for row in rows[1]]
            rows.append(circulant(power, order))
        powers.append(rows)
    coeff = term.coeff
    products = [lift(coeff, order, scale // (coeff.den * den ** exponent))]
    for parent, k, e in nodes:
        a = products[parent]
        products.append([sum(map(mul, a, row)) for row in powers[k][e]])
    for vec, m, (parent, k, e) in zip(vecs, mults, steps):
        a = products[parent]
        for i, row in enumerate(powers[k][e]):
            vec[i] += m * sum(map(mul, a, row))


def circulant_path(dec):
    """The group ring's oracle in the ring itself: every term, unit or not,
    lifted to Z[C_order] and multiplied by circulant rows, one dot product
    per digit, then projected to Q(w) like ``expand_sum``. Each term takes
    the table of its own support's size, where expansion takes a prefix of
    one table for the largest."""
    order, scale = dec.order, _common_denominator(dec.terms)
    ring = {}
    for term in dec.terms:
        support = term.form.support()
        table = verify._composition_table(term.exponent, len(support))
        mults = [multinomial(term.exponent, comp) for comp in table.comps]
        vecs = [ring.setdefault(tuple((i, j, e) for ((i, j), _), e
                                      in zip(support, comp) if e),
                                [0] * order)
                for comp in table.comps]
        add_general_term(term, support, order, scale, vecs, mults,
                         table.nodes, table.steps)
    return {mono: from_root_coefficients(order, vec, scale)
            for mono, vec in ring.items()}


def bidiagonal_pair(rng, d, order):
    """A seeded lower and upper unitriangular pair, +-2 on the first
    subdiagonal and +-3 on the first superdiagonal, the shape of the
    pairs the benchmark conjugates by: a conjugated builder form has 6 to
    12 of its d^2 = 16 variables at d = 4."""
    def matrix(offset, value):
        return tuple(
            tuple(Cyc.from_int(order, 1 if r == c
                               else rng.choice((-value, value))
                               if c == r + offset else 0)
                  for c in range(d))
            for r in range(d))
    return matrix(-1, 2), matrix(1, 3)


def unit_of(c):
    """(sign, k) with c == sign * w^k, or None. The sign is kept apart from
    k because -1 is not a power of w at order 1."""
    return _signed_roots(c.order).get((c.num, c.den))


def term_unit_phases(coeff, support):
    """The per-term oracle of ``verify._terms_unit_phases``: (sign, k) of
    the coefficient and the code 2 * p + order * neg of each entry
    (-1)^neg * w^p, every scalar looked up afresh, or None when a scalar
    is not a unit."""
    roots = _signed_roots(coeff.order)
    head = roots.get((coeff.num, coeff.den))
    if head is None:
        return None
    order = coeff.order
    codes = []
    for _, c in support:
        unit = roots.get((c.num, c.den))
        if unit is None:
            return None
        codes.append(2 * unit[1] + (order if unit[0] < 0 else 0))
    return head, tuple(codes)


def expansion_scale(dec, monkeypatch):
    """The scale that expansion passes ``_expand_chunk`` for ``dec``."""
    scales = []
    chunk = verify._expand_chunk

    def spy(order, scale, *args):
        scales.append(scale)
        return chunk(order, scale, *args)

    monkeypatch.setattr(verify, "_expand_chunk", spy)
    verify_power_decomposition(dec)
    scale, = scales
    return scale


def loose(d, order, terms):
    """A decomposition with no term-count rule, for hand-made term lists."""
    return PowerDecomposition(d, "mixed", 1, "determinant", order,
                              tuple(terms))


class TestGroupRingExpansion:
    @pytest.mark.parametrize("scheme, d", [
        (scheme, d) for scheme in SCHEME_BUILDERS for d in range(1, 5)
    ] + [("main", 5)])
    def test_matches_cyc_path_key_for_key(self, scheme, d):
        dec = SCHEME_BUILDERS[scheme](d)
        assert expand_sum(dec) == cyc_path(dec.terms)

    def test_keeps_keys_that_cancel_to_zero(self):
        got = expand_sum(main_decomposition(3))
        zeros = [mono for mono, c in got.items() if not c]
        assert len(got) == 51 and len(zeros) == 51 - 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_unit_and_general_terms(self, jobs):
        terms = main_decomposition(3).terms + conjugated_main3().terms
        dec = loose(3, 3, terms)
        entry = dict(conjugated_main3().terms[0].form.support())[1, 2]
        assert unit_of(entry) is None
        assert expand_sum(dec) == cyc_path(terms)
        # the halves sum to 36 det^3, so scale 1 misses all six permutation
        # monomials
        report = verify_power_decomposition(dec, jobs=jobs, collect_all=True)
        assert not report.equal and report.mismatch_count == 6

    def test_order_one_negative_units(self):
        assert unit_of(Cyc.from_int(1, -1)) == (-1, 0)
        form = LinForm(1, 2, {(1, 1): -1, (1, 2): 1, (2, 1): -1})
        terms = [PowerTerm((0,), Cyc.from_int(1, -1), form, 2),
                 PowerTerm((1,), Cyc.from_int(1, 1), form, 2)]
        got = expand_sum(loose(2, 1, terms))
        assert got == cyc_path(terms)
        assert len(got) == 6 and not any(got.values())

    def test_order_two_minus_one_is_w(self):
        assert unit_of(Cyc.from_int(2, -1)) == (1, 1)
        form = LinForm(2, 2, {(1, 2): -1, (2, 1): 1})
        terms = [PowerTerm((0,), Cyc.from_int(2, -1), form, 2)]
        assert expand_sum(loose(2, 2, terms)) == cyc_path(terms)

    def test_non_unit_coefficient_falls_back(self):
        two_w = omega(3, 1) * 2
        assert unit_of(two_w) is None
        form = LinForm(3, 2, {(1, 1): omega(3, 2), (2, 2): 1})
        terms = [PowerTerm((0,), two_w, form, 2),
                 PowerTerm((1,), omega(3, 1), form, 2)]
        got = expand_sum(loose(2, 3, terms))
        assert got == cyc_path(terms)
        # 2w * 2w^2 + w * 2w^2 = 4 + 2
        assert got[((1, 1, 1), (2, 2, 1))] == Cyc.from_int(3, 6)

    def test_gurvits_d1_zero_form(self):
        dec = gurvits_decomposition(1)
        assert not dec.terms[1].form.support()
        assert expand_sum(dec) == cyc_path(dec.terms) \
            == {((1, 1, 1),): Cyc.from_int(1, 1)}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fractional_scalars_share_the_ring(self, jobs):
        # main(3) conjugated by diag(2, 1/2, 1), one coefficient times 2/3
        order = 3
        zero, one = Cyc.zero(order), Cyc.one(order)
        a = ((Cyc.from_int(order, 2), zero, zero),
             (zero, Cyc.from_fraction(order, Fraction(1, 2)), zero),
             (zero, zero, one))
        b = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        conj = conjugate_decomposition(a, b, main_decomposition(3))
        assert verify_power_decomposition(conj, jobs=jobs).equal
        term = conj.terms[4]
        scaled = dataclasses.replace(
            term, coeff=term.coeff * Cyc.from_fraction(order, Fraction(2, 3)))
        terms = conj.terms[:4] + (scaled,) + conj.terms[5:]
        assert scaled.coeff.den == 3
        assert any(c.den == 2 for _, c in scaled.form.support())
        dec = dataclasses.replace(conj, terms=terms)
        assert _common_denominator(dec.terms) == 3 * 2 ** 3
        got = expand_sum(dec)
        assert got == cyc_path(terms)
        assert any(c.den != 1 for c in got.values())
        assert not verify_power_decomposition(dec, jobs=jobs).equal

    @pytest.mark.parametrize("scheme", SCHEME_BUILDERS)
    def test_builder_terms_need_no_denominator(self, scheme):
        assert _common_denominator(SCHEME_BUILDERS[scheme](4).terms) == 1

    @pytest.mark.parametrize("scheme", list(BUILDERS))
    def test_builder_scale_stays_one(self, scheme, monkeypatch):
        assert expansion_scale(BUILDERS[scheme](4), monkeypatch) == 1

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("scheme", ["main", "classical", "gurvits"])
    def test_benchmark_conjugates_keep_their_scale(self, seed, scheme,
                                                   monkeypatch):
        # the lcm over the general terms alone is the lcm over all terms
        dec = benchmark_conjugated(seed, scheme)
        assert expansion_scale(dec, monkeypatch) \
            == _common_denominator(dec.terms) == 1

    def test_unit_terms_beside_a_fraction_keep_the_scale(self, monkeypatch):
        # main(3) with one term's first scalar halved and its coefficient
        # times 2/3: the one general term sets the scale, 3 * 2^3
        order, dec = 3, main_decomposition(3)
        term = dec.terms[4]
        half = Cyc.from_fraction(order, Fraction(1, 2))
        form = LinForm(order, 3, [(var, c * half if k == 0 else c)
                                  for k, (var, c)
                                  in enumerate(term.form.support())])
        mixed = dataclasses.replace(term, form=form, coeff=term.coeff
                                    * Cyc.from_fraction(order,
                                                        Fraction(2, 3)))
        dec = dataclasses.replace(
            dec, terms=dec.terms[:4] + (mixed,) + dec.terms[5:])
        units = [term_unit_phases(t.coeff, t.form.support())
                 for t in dec.terms]
        assert [unit is None for unit in units].count(True) == 1
        assert expansion_scale(dec, monkeypatch) \
            == _common_denominator(dec.terms, units) \
            == _common_denominator(dec.terms) == 3 * 2 ** 3

    @pytest.mark.parametrize("scheme", ["main", "classical", "gurvits"])
    def test_seeded_conjugates_match_cyc_path(self, scheme):
        rng = random.Random(20261018)
        base = SCHEME_BUILDERS[scheme](3)
        for _ in range(5):
            a, b = unitriangular_pair(rng, 3, base.order)
            conj = conjugate_decomposition(a, b, base)
            position = rng.randrange(len(conj.terms))
            for dec, equal in ((conj, True),
                               (flip_one_sign(conj, position), False)):
                oracle = cyc_path(dec.terms)
                assert expand_sum(dec) == oracle
                assert verify_power_decomposition(dec).equal is equal

    def test_general_terms_take_no_cyc_products(self, monkeypatch):
        dec = conjugated_main3()
        general = [t for t in dec.terms
                   if term_unit_phases(t.coeff, t.form.support()) is None]
        assert len(general) == 17 and len(dec.terms) == 18
        calls = {"mul": 0, "expand_power": 0}
        monkeypatch.setattr(Cyc, "__mul__",
                            counting(calls, "mul", Cyc.__mul__))
        monkeypatch.setattr(Cyc, "__rmul__",
                            counting(calls, "mul", Cyc.__rmul__))
        monkeypatch.setattr(multipoly, "expand_power",
                            counting(calls, "expand_power", expand_power))
        got = expand_sum(dec)
        assert calls == {"mul": 0, "expand_power": 0}
        monkeypatch.undo()
        assert got == cyc_path(dec.terms)


class TestPackedGroupRing:
    """Non-unit terms accumulate as packed ints, the ring element evaluated
    at 2^B, with B from a proved bound on every digit."""

    @pytest.mark.parametrize("scheme", ["main", "classical", "gurvits"])
    def test_seeded_d4_conjugates_match_circulant_path(self, scheme):
        rng = random.Random(20261018)
        base = SCHEME_BUILDERS[scheme](4)
        a, b = bidiagonal_pair(rng, 4, base.order)
        dec = conjugate_decomposition(a, b, base)
        sizes = {len(t.form.support()) for t in dec.terms}
        assert 6 <= min(sizes) and max(sizes) <= 12
        oracle = circulant_path(dec)
        assert expand_sum(dec) == oracle

    @pytest.mark.parametrize("order", [1, 4, 6])
    @pytest.mark.parametrize("c", [10 ** 6, -10 ** 6])
    @pytest.mark.parametrize("d", [1, 3])
    def test_digit_at_the_bound(self, order, c, d):
        # the one digit of (c x11)^d is c^d, the L1 bound itself; at order
        # 6 the lift of c has phi = 2 < 6 digits, zero-padded
        form = LinForm(order, d, {(1, 1): c})
        terms = [PowerTerm((0,), Cyc.one(order), form, d)]
        dec = loose(d, order, terms)
        got = expand_sum(dec)
        assert got == cyc_path(terms) \
            == {((1, 1, d),): Cyc.from_int(order, c ** d)}
        assert verify._digit_bound(terms, [None], 1) == abs(c) ** d
        # G = H = 1 at these orders: one bit over G * spread + H
        assert verify._packed_width(order, abs(c) ** d) \
            == (abs(c) ** d + 1).bit_length() + 1
        # the target's monomials are compared at the same width
        report = verify_power_decomposition(dec, collect_all=True)
        assert report.mismatches == tuple(cyc_mismatches(dec))

    def test_target_enters_the_width(self):
        # c x11 = s x11 with s = c + 2^21 - 1: c alone needs 21 bits, and
        # at that width c - s is 0 mod Phi_1(2^21) = 2^21 - 1; the target's
        # own size widens B, so the mismatch is seen
        c = 10 ** 6
        width = verify._packed_width(1, c)
        assert width == 21
        s = c + (1 << width) - 1
        terms = [PowerTerm((0,), Cyc.from_int(1, c),
                           LinForm(1, 1, {(1, 1): 1}), 1)]
        dec = dataclasses.replace(loose(1, 1, terms), scale=s)
        report = verify_power_decomposition(dec, collect_all=True)
        assert report.mismatches == (
            (((1, 1, 1),), Cyc.from_int(1, c), Cyc.from_int(1, s)),)

    @pytest.mark.parametrize("order", [4, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_decoding_borrows_through_a_negative_digit(self, order, sign):
        # sign * ((L - L w) x11)^2 - sign * (L x11)^2 has the digits
        # sign * L^2 * (0, -2, 1, 0, ...) in the ring: phase 0 cancels,
        # phases 1 and 2 are large with opposite signs
        big = 10 ** 6
        lifted = Cyc(order, (big, -big), 1)
        terms = [
            PowerTerm((0,), Cyc.from_int(order, sign),
                      LinForm(order, 2, {(1, 1): lifted}), 2),
            PowerTerm((1,), Cyc.from_int(order, -sign),
                      LinForm(order, 2, {(1, 1): big}), 2),
        ]
        blocks, acc, width = verify._expand_chunk(order, 1, terms, 2, [])
        digits = [0, -2, 1] + [0] * (order - 3)
        # x11^2, of multinomial 1, is the one block, of cell bit 0
        assert blocks == {1: 0}
        assert verify._digits(acc[0], order, width) \
            == [sign * big ** 2 * x for x in digits]
        assert expand_sum(loose(2, order, terms)) == cyc_path(terms)

    def test_general_coefficient_on_a_zero_form(self):
        dec = gurvits_decomposition(1)
        term = dec.terms[1]
        assert not term.form.support()
        terms = (dec.terms[0],
                 dataclasses.replace(term, coeff=Cyc.from_int(1, 7)))
        assert term_unit_phases(terms[1].coeff, []) is None
        dec = dataclasses.replace(dec, terms=terms)
        assert expand_sum(dec) == cyc_path(terms) \
            == {((1, 1, 1),): Cyc.from_int(1, 1)}
        assert verify_power_decomposition(dec).equal


def unit_terms(rng, d, order, count, exponent):
    """``count`` seeded terms whose coefficient and entries are all +-w^k,
    each on a seeded support of 1 to 4 of the d^2 variables. Negated
    entries are drawn at every order; at odd orders -1 is not a power of
    w, so they set the parity bit of the packed code."""
    def unit():
        return omega(order, rng.randrange(order)) * rng.choice((1, -1))

    variables = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    return [PowerTerm((n,), unit(),
                      LinForm(order, d, {var: unit() for var in rng.sample(
                          variables, rng.randint(1, 4))}), exponent)
            for n in range(count)]


class TestPackedPhases:
    """A unit term's phases and signs, for every composition at once, are
    the fields of one packed integer sum_k code_k * column_k."""

    @pytest.mark.parametrize("order", range(1, 8))
    def test_seeded_unit_terms_match_circulant_path(self, order):
        rng = random.Random(1000 + order)
        terms = unit_terms(rng, 3, order, 12, 3)
        assert any(unit_of(c)[0] < 0 for t in terms
                   for _, c in t.form.support()) or order % 2 == 0
        dec = loose(3, order, terms)
        assert expand_sum(dec) == circulant_path(dec)

    @pytest.mark.parametrize("order, entry, exponent, wide", [
        # 2 * 11 * 12 = 264: w^11 at order 12 (-w^11 is w^5 there)
        (12, omega(12, 11), 12, 264),
        # (2 * 6 + 7) * 20 = 380: -w^6 at order 7 is z^19, z^2 = w
        (7, -omega(7, 6), 20, 380),
    ])
    def test_field_wider_than_a_byte(self, order, entry, exponent, wide):
        _, (code,) = term_unit_phases(Cyc.one(order), [((1, 1), entry)])
        assert code * exponent == wide
        assert verify._field_format(exponent, order) == "H"
        form = LinForm(order, exponent, {(1, 1): entry, (2, 2): entry})
        terms = [PowerTerm((0,), Cyc.one(order), form, exponent)]
        dec = loose(exponent, order, terms)
        got = expand_sum(dec)
        assert got == circulant_path(dec)
        # the composition with all of the exponent on one variable
        assert got[((1, 1, exponent),)] == entry ** exponent

    def test_field_format_bounds(self):
        # exponent * (3 * order - 2): 255 fits a byte, 256 does not
        assert verify._field_format(255, 1) == "B"
        assert verify._field_format(256, 1) == "H"
        assert verify._field_format(1, 21845) == "H"
        assert verify._field_format(1, 21846) == "I"

    def test_dead_codes_widen_the_field(self):
        # the dead code is one past the code bound, and a composition puts
        # at most the whole exponent on dead cells: exponent * dead
        assert verify._dead_code(16, 1) == 17
        assert verify._field_format(15, 1, True) == "B"  # 15 * 16 = 240
        assert verify._field_format(16, 1) == "B"  # 16
        assert verify._field_format(16, 1, True) == "H"  # 16 * 17 = 272
        assert verify._field_format(20, 100) == "H"  # 20 * 298 = 5,960
        assert verify._field_format(20, 100, True) == "I"  # 20 * 5,961

    def test_run_at_the_dead_bound_decodes_exactly(self):
        # -x11 - x22 opens a run and -x22 joins it with x11 dead, so the
        # composition x11^16 has the code sum 16 * 17 = 272, past a byte
        order, exponent = 1, 16
        minus = Cyc.from_int(order, -1)
        terms = [PowerTerm((n,), Cyc.one(order),
                           LinForm(order, exponent, cells), exponent)
                 for n, cells in enumerate(({(1, 1): minus, (2, 2): minus},
                                            {(2, 2): minus}))]
        dec = loose(exponent, order, terms)
        assert_runs_match(dec)
        got = expand_sum(dec)
        assert got == circulant_path(dec)
        assert got[((1, 1, exponent),)] == Cyc.one(order)
        assert got[((2, 2, exponent),)] == Cyc.from_int(order, 2)

    def test_dropped_table_leaves_no_cycle(self):
        # nothing a table holds waits for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            verify._composition_table(6, 6)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("exponent, size", [(3, 2), (4, 6), (6, 6)])
    def test_groups_follow_the_positive_compositions(self, exponent, size):
        # every set of positive parts ranks its compositions in the order
        # of the block that its monomials fill, whatever the size
        table = verify._composition_table(exponent, size)
        masks = table.masks
        groups = {}
        for comp, b, rank in zip(table.comps, table.blocks, table.ranks):
            groups.setdefault(b, {})[rank] = comp
        for b, group in groups.items():
            parts = [k for k in range(size) if masks[b] >> k & 1]
            assert sorted(group) \
                == list(range(math.comb(exponent - 1, len(parts) - 1)))
            assert all(bool(e) is (k in parts)
                       for comp in group.values() for k, e in enumerate(comp))
            assert tuple(tuple(group[r][k] for k in parts)
                         for r in range(len(group))) \
                == verify._positive_compositions(exponent, len(parts))
        assert len(table.comps) == math.comb(exponent + size - 1, size - 1)
        assert len(groups) == len(masks) == sum(
            math.comb(size, k) for k in range(1, min(size, exponent) + 1))

    @pytest.mark.parametrize("exponent, size",
                             [(3, 2), (4, 12), (5, 5), (6, 6), (7, 7)])
    def test_prefixes_list_each_composition_once(self, exponent, size):
        # the table over s parts is a prefix of the one over ``size``, and
        # the tree of a prefix only reaches nodes of that prefix
        table = verify._composition_table(exponent, size)
        for s in range(size + 1):
            node_end, step_end = table.ends[s]
            assert sorted(tuple(c[:s]) for c in table.comps[:step_end]) \
                == sorted(weak_compositions(exponent, s))
            assert all(not any(c[s:]) for c in table.comps[:step_end])
            assert all(k < s - 1 for _, k, _ in table.nodes[:node_end])
            assert all(parent <= node_end and k < s
                       for parent, k, _ in table.steps[:step_end])
        for n, (parent, _, _) in enumerate(table.nodes, start=1):
            assert parent < n
        # each composition's block and rank name it back; the blocks over
        # s parts come first, each set once
        masks = table.masks
        assert sorted(masks) == sorted(
            sum(1 << k for k in parts) for t in range(1, exponent + 1)
            for parts in itertools.combinations(range(size), t))
        for s in range(size + 1):
            used = set(table.blocks[:table.ends[s][1]])
            assert used == set(range(len(used)))
        assert verify._cell_masks([1 << k for k in range(size)],
                                  table.grows) == masks
        for comp, b, rank in zip(table.comps, table.blocks, table.ranks):
            parts = [k for k in range(size) if masks[b] >> k & 1]
            assert [k for k, e in enumerate(comp) if e] == parts
            assert verify._positive_compositions(exponent, len(parts))[rank] \
                == tuple(comp[k] for k in parts)
        # a node's prefix and each step's composition
        prefixes = [[0] * size]
        for parent, k, e in table.nodes:
            prefixes.append(prefixes[parent].copy())
            prefixes[-1][k] = e
        for comp, (parent, k, e) in zip(table.comps, table.steps):
            grown = prefixes[parent].copy()
            grown[k] = e
            assert grown == comp and not any(comp[k + 1:])

    def test_columns_hold_the_parts(self):
        table = verify._composition_table(3, 2)
        field = verify._field_format(3, 4)
        assert field == "B"
        assert table.comps == [[3, 0], [0, 3], [2, 1], [1, 2]]
        columns = verify._packed_columns(table.comps, field)
        assert [list(c.to_bytes(4, "little")) for c in columns] \
            == [[3, 0, 2, 1], [0, 3, 1, 2]]

    def test_cell_masks_follow_the_table(self):
        # a cell's bit is (i - 1) * d + j - 1; at d = 9 the 81 bits pass 64
        table = verify._composition_table(2, 3)
        assert table.masks == [0b1, 0b10, 0b11, 0b100, 0b101, 0b110]
        a, b, c = 1 << 80, 1 << 64, 1 << 3
        assert verify._cell_masks([a, b, c], table.grows) \
            == [a, b, a | b, c, a | c, b | c]
        assert verify._cell_masks([a, b], table.grows) == [a, b, a | b]


def per_term_unit_path(order, scale, terms, d, wants=()):
    """The oracle of the runs: ``verify._expand_chunk`` as it was before unit
    terms were added in runs. Each unit term adds, at each composition, the
    signed power of B that its code sum v reads from the phase table of its
    coefficient, one add per term and composition; the runs only regroup
    these adds. Every other term goes through ``_add_general_term``, and
    each term's support finds or makes its blocks in the same order."""
    units = [term_unit_phases(term.coeff, term.form.support())
             for term in terms]
    bound = verify._digit_bound(terms, units, scale)
    width = verify._packed_width(order, max([bound, *(
        m * bound + sum(map(abs, want)) for m, want in wants)]))
    exponent, = {term.exponent for term in terms} or {1}
    table = verify._composition_table(exponent, max(
        (len(term.form.support()) for term in terms), default=0))
    field = verify._field_format(exponent, order)
    columns = verify._packed_columns(table.comps, field)
    lifts = [scale << i * width for i in range(order)]
    blocks, acc = {}, []
    for term, unit in zip(terms, units):
        support = term.form.support()
        cells = verify._cell_masks([1 << (i - 1) * d + j - 1
                                    for (i, j), _ in support], table.grows)
        for b, cell in enumerate(cells):
            if cell not in blocks:
                blocks[cell] = len(acc)
                acc += [0] * math.comb(exponent - 1,
                                       table.masks[b].bit_count() - 1)
        node_end, step_end = table.ends[len(support)]
        places = [blocks[cells[b]] + rank for b, rank
                  in zip(table.blocks[:step_end], table.ranks)]
        if unit is None:
            verify._add_general_term(term, support, order, scale, width, acc,
                                     places, table.nodes[:node_end],
                                     table.steps)
            continue
        (sign, k0), codes = unit
        packed = sum(map(mul, codes, columns))
        fields = memoryview(packed.to_bytes(
            len(table.comps) * struct.calcsize(field), sys.byteorder)).cast(
                field)
        for i, v in zip(places, fields):
            # z^v is w^(v/2) for even v and -w^((v - order)/2) for odd v
            half = v - (order if v & 1 else 0) >> 1
            acc[i] += (-sign if v & 1 else sign) * lifts[(k0 + half) % order]
    return blocks, acc, width


def target_wants(dec):
    """The (m(E), lifted vector) pairs of the scaled target, as
    ``_expand_check`` passes them to ``_expand_chunk``."""
    return [(verify._multinomial(mono), list(c.num))
            for mono, c in (dec.target_poly() * dec.scale).terms.items()]


def assert_runs_match(dec, wants=()):
    """``_expand_chunk`` builds the per-term path's table key for key: the
    same blocks in the same order, the same ints and the same width."""
    scale = _common_denominator(dec.terms)
    blocks, acc, width = verify._expand_chunk(dec.order, scale, dec.terms,
                                              dec.d, wants)
    want_blocks, want_acc, want_width = per_term_unit_path(
        dec.order, scale, dec.terms, dec.d, wants)
    assert list(blocks.items()) == list(want_blocks.items())
    assert acc == want_acc and width == want_width


def benchmark_inputs(seed):
    """The benchmark's seed-drawn foreign inputs: its conjugating pair of
    integer matrices, then (scheme, d, index) of each builder's
    decomposition with that one term negated."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads._tampered_inputs(seed)


def benchmark_tampered(seed):
    """The benchmark's tampered inputs at ``seed``."""
    return benchmark_inputs(seed)[1]


def benchmark_conjugated(seed, scheme):
    """The benchmark's conjugated d=4 input of ``scheme`` at ``seed``."""
    dec = BUILDERS[scheme](4)
    a, b = ([[Cyc.from_int(dec.order, v) for v in row] for row in m]
            for m in benchmark_inputs(seed)[0])
    return conjugate_decomposition(a, b, dec)


def distinct_objects(terms):
    """The distinct coefficient objects plus the distinct (entry, scalar)
    pair objects of the terms' forms."""
    return (len({id(t.coeff) for t in terms})
            + len({id(pair) for t in terms for pair in t.form.support()}))


class TestTermsUnitPhases:
    """Expansion reads the (sign, k) of each distinct coefficient object,
    and of each distinct pair object with a unit scalar, once; the
    per-term lookup of every scalar is the oracle."""

    @staticmethod
    def assert_matches_oracle(terms):
        assert _terms_unit_phases(terms) == [
            term_unit_phases(t.coeff, t.form.support()) for t in terms]

    @pytest.mark.parametrize("scheme, d", [
        (scheme, d) for scheme in BUILDERS for d in range(1, 7)])
    def test_builders(self, scheme, d, monkeypatch):
        terms = BUILDERS[scheme](d).terms
        self.assert_matches_oracle(terms)
        calls = collections.Counter()
        monkeypatch.setattr(verify, "_signed_roots", counting(
            calls, "lookups", verify._signed_roots))
        _terms_unit_phases(terms)
        # a builder's terms share their numbering's pairs: at most d per
        # cell, not one per term and entry
        assert calls["lookups"] == distinct_objects(terms) <= 2 + d ** 3

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("scheme", ["main", "classical", "gurvits"])
    def test_benchmark_conjugated_inputs(self, seed, scheme):
        terms = benchmark_conjugated(seed, scheme).terms
        units = _terms_unit_phases(terms)
        assert units.count(None) > 0
        self.assert_matches_oracle(terms)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_tampered_inputs(self, seed):
        for scheme, d, index in benchmark_tampered(seed):
            self.assert_matches_oracle(
                flip_one_sign(BUILDERS[scheme](d), index).terms)

    def test_shared_scalars_in_mixed_terms(self):
        # one non-unit entry object in two terms, beside unit terms that
        # share its order's roots: every term keeps its own answer
        base = main_decomposition(3)
        half = Cyc.from_fraction(3, Fraction(1, 2))
        odd = [PowerTerm(t.index, t.coeff, LinForm._of_support(
            3, 3, ((t.form.support()[0][0], half),) + t.form.support()[1:]),
            3) for t in base.terms[:2]]
        terms = (odd[0],) + base.terms[2:9] + (odd[1],) + base.terms[9:]
        units = _terms_unit_phases(terms)
        assert [unit is None for unit in units] == [True] + [False] * 7 + [
            True] + [False] * 9
        self.assert_matches_oracle(terms)


class TestUnitRuns:
    """Unit terms are added in runs: each run's sum over its compositions
    is computed once per signature and added with one add per composition.
    The per-term loop is the oracle; the runs only regroup its adds."""

    @pytest.mark.parametrize("scheme, d", [
        (scheme, d) for scheme in BUILDERS for d in range(1, 6)
    ] + [("monomial", 6)])
    def test_builders_match_the_per_term_path(self, scheme, d):
        dec = BUILDERS[scheme](d)
        assert_runs_match(dec, target_wants(dec))

    @pytest.mark.parametrize("scheme, d", [
        ("main", 4), ("classical", 3), ("gurvits", 4), ("monomial", 5)])
    def test_shuffled_terms_break_the_runs_up(self, scheme, d):
        rng = random.Random(3300 + d)
        base = BUILDERS[scheme](d)
        for _ in range(3):
            terms = list(base.terms)
            rng.shuffle(terms)
            dec = dataclasses.replace(base, terms=tuple(terms))
            assert_runs_match(dec, target_wants(dec))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gurvits_sub_support_opens_the_run(self, d):
        # each sigma's block reversed: the term that leaves row d out comes
        # first, and no later term of the block fits inside its support
        base = gurvits_decomposition(d)
        block = d + 1
        terms = tuple(t for r in range(0, len(base.terms), block)
                      for t in reversed(base.terms[r:r + block]))
        assert len(terms[0].form.support()) == d - 1
        dec = dataclasses.replace(base, terms=terms)
        assert_runs_match(dec, target_wants(dec))
        assert verify_power_decomposition(dec).equal

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_tampered_inputs(self, seed):
        for scheme, d, index in benchmark_tampered(seed):
            dec = flip_one_sign(BUILDERS[scheme](d), index)
            assert_runs_match(dec, target_wants(dec))
            assert not verify_power_decomposition(dec).equal

    def test_run_interrupted_by_a_general_term(self):
        # a conjugated term between the first and second of the first
        # sigma's three unit terms closes that run; the next opens another
        base = main_decomposition(3)
        general = conjugated_main3().terms[0]
        assert term_unit_phases(general.coeff,
                                general.form.support()) is None
        terms = base.terms[:1] + (general,) + base.terms[1:]
        dec = loose(3, 3, terms)
        assert_runs_match(dec, target_wants(dec))
        assert expand_sum(dec) == cyc_path(terms)

    def test_runs_that_never_repeat(self, monkeypatch):
        # main(4) conjugated by diag(w^i) and diag(w^-j) keeps every entry a
        # unit but moves the codes of each sigma's run: 24 signatures, more
        # than the sums kept, so the oldest are dropped as new ones come
        d = 4
        zero = Cyc.zero(d)
        a, b = (tuple(tuple(omega(d, sign * i) if i == j else zero
                            for j in range(d)) for i in range(d))
                for sign in (1, -1))
        dec = conjugate_decomposition(a, b, main_decomposition(d))
        assert all(term_unit_phases(t.coeff, t.form.support())
                   for t in dec.terms)
        calls = collections.Counter()
        monkeypatch.setattr(verify, "_run_sum",
                            counting(calls, "misses", verify._run_sum))
        assert_runs_match(dec, target_wants(dec))
        assert calls["misses"] == 24 > verify._KEPT_SUMS
        assert verify_power_decomposition(dec).equal

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gurvits_1_zero_form(self, reverse):
        # the zero form joins the run with its one cell dead, or opens a
        # run of no compositions
        dec = gurvits_decomposition(1)
        if reverse:
            dec = dataclasses.replace(dec, terms=dec.terms[::-1])
        assert_runs_match(dec, target_wants(dec))
        assert verify_power_decomposition(dec).equal

    @pytest.mark.parametrize("builder, d, misses, adds", [
        # one add per term and composition was 600 * 126 = 75,600 adds,
        # 120 * (126 + 5 * 70) = 57,120 and 192 * 35 = 6,720
        (main_decomposition, 5, 2, 120 * 126),
        # a composition with exactly one zero part sums to 0
        (gurvits_decomposition, 5, 2, 120 * (126 - 5 * 4)),
        # only x_{1 s1} ... x_{4 s4} has its sign vectors sum to nonzero
        (classical_decomposition, 4, 2, 24),
    ])
    def test_work_counts(self, monkeypatch, builder, d, misses, adds):
        # a run's sum is computed once for each sgn sigma, and each run adds
        # its nonzero sums: counts, so a change that defeats the memo fails
        # on any machine
        counts = collections.Counter()

        class Counted(list):
            def __iter__(self):
                for x in list.__iter__(self):
                    counts["adds"] += 1
                    yield x

        run_sum = verify._run_sum

        def counted(*args):
            counts["misses"] += 1
            at_blocks, ranks, values = run_sum(*args)
            return at_blocks, ranks, Counted(values)

        monkeypatch.setattr(verify, "_run_sum", counted)
        assert verify_power_decomposition(builder(d)).equal
        assert counts == {"misses": misses, "adds": adds}


def cyc_mismatches(dec):
    """The Cyc oracle of the comparison: every monomial where the summed
    terms (``cyc_path``) differ from scale * target in Q(w), as (monomial,
    got, want) in sorted monomial order."""
    computed = cyc_path(dec.terms)
    target = dec.target_poly() * dec.scale
    zero = Cyc.zero(dec.order)
    found = [(mono, got, zero) for mono, got in computed.items()
             if got and mono not in target.terms]
    found += [(mono, computed.get(mono, zero), want)
              for mono, want in target.terms.items()
              if computed.get(mono, zero) != want]
    return sorted(found, key=itemgetter(0))


def times_w(dec, position):
    """``dec`` with one term's coefficient multiplied by w."""
    term = dec.terms[position]
    changed = dataclasses.replace(term, coeff=term.coeff * omega(dec.order))
    terms = dec.terms[:position] + (changed,) + dec.terms[position + 1:]
    return dataclasses.replace(dec, terms=terms)


TAMPERED = {
    "main2-flip0": flip_one_sign(main_decomposition(2), 0),
    "main3-flip7": flip_one_sign(main_decomposition(3), 7),
    "main3-flip4": flip_one_sign(main_decomposition(3), 4),
    "classical3-flip5": flip_one_sign(classical_decomposition(3), 5),
    "gurvits3-flip2": flip_one_sign(gurvits_decomposition(3), 2),
    "monomial3-flip1": flip_one_sign(monomial_power_decomposition(3), 1),
    "main3-times-w": times_w(main_decomposition(3), 10),
    "conjugated-flip7": flip_one_sign(conjugated_main3(), 7),
    "main3-scale17": dataclasses.replace(main_decomposition(3), scale=17),
    "main3-diagonal-target": dataclasses.replace(
        main_decomposition(3), target="diagonal-product"),
    "monomial3-determinant-target": dataclasses.replace(
        monomial_power_decomposition(3), target="determinant"),
    "mixed-unit-and-general": loose(
        3, 3, main_decomposition(3).terms + conjugated_main3().terms),
}


def shuffled_gurvits4():
    """Conjugated gurvits(4), and the same terms in a seeded order."""
    rng = random.Random(20261019)
    base = gurvits_decomposition(4)
    dec = conjugate_decomposition(*bidiagonal_pair(rng, 4, base.order), base)
    terms = list(dec.terms)
    rng.shuffle(terms)
    return dec, dataclasses.replace(dec, terms=tuple(terms))


class TestRingComparison:
    """Expansion decides each monomial in Z[C_n], one packed int per
    monomial, and projects to Q(w) only the monomials that mismatch."""

    @pytest.mark.parametrize("d", range(1, 8))
    def test_keys_round_trip(self, d):
        # a monomial's place, from its block key (exponent, cell mask) and
        # its rank, names it back
        rng = random.Random(700 + d)
        variables = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
        for _ in range(200):
            mono = monomial(collections.Counter(
                rng.choice(variables) for _ in range(d)))
            form = LinForm(1, d, {(i, j): 1 for i, j, _ in mono})
            blocks, acc, _ = verify._expand_chunk(
                1, 1, [PowerTerm((0,), Cyc.one(1), form, d)], d, [])
            place = verify._slot(blocks, mono, d)
            assert verify._monomials_at(blocks, [place], d, d) == [mono]
        # x_dd^d is the one monomial of the block of cell (d, d)
        blocks, acc, _ = verify._expand_chunk(
            1, 1, [PowerTerm((0,), Cyc.one(1),
                             LinForm(1, d, {(d, d): 1}), d)], d, [])
        assert blocks == {1 << d * d - 1: 0} and len(acc) == 1
        assert (verify._slot(blocks, ((1, 1, d),), d) is None) is (d > 1)

    @pytest.mark.parametrize("d", [5, 7])
    def test_blocks_hold_the_expanded_monomials(self, d):
        # one unit term on the diagonal: its 2^d - 1 cell sets are its
        # blocks, and their places are its monomials, each once
        form = LinForm(d, d, {(i, i): omega(d, i) for i in range(1, d + 1)})
        blocks, acc, _ = verify._expand_chunk(
            d, 1, [PowerTerm((0,), Cyc.one(d), form, d)], d, [])
        monos = expand_power(form, d).terms
        assert len(blocks) == 2 ** d - 1
        got = verify._monomials_at(blocks, range(len(acc)), d, d)
        assert sorted(got) == sorted(monos)
        assert [verify._slot(blocks, mono, d) for mono in got] \
            == list(range(len(acc)))

    def test_wide_grid_round_trips(self):
        # d = 9: the 81 cell bits pass 64, so block masks are long ints
        d = 9
        rng = random.Random(909)
        variables = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
        terms = [PowerTerm((n,), Cyc.one(1), LinForm(1, d, {
            var: 1 for var in [(d, d), *rng.sample(variables[:-1], 3)]}), d)
            for n in range(6)]
        blocks, acc, _ = verify._expand_chunk(1, 1, terms, d, [])
        assert max(blocks).bit_length() == d * d
        got = verify._monomials_at(blocks, range(len(acc)), d, d)
        assert sorted(got) == sorted(set().union(
            *(expand_power(term.form, d).terms for term in terms)))
        assert [verify._slot(blocks, mono, d) for mono in got] \
            == list(range(len(acc)))

    def test_shuffled_supports_match_cyc_path(self):
        # conjugated gurvits(4) in a seeded order: supports of 6 to 12
        # cells return after others, so blocks are found, not just made
        dec, shuffled = shuffled_gurvits4()
        sizes = [len(term.form.support()) for term in shuffled.terms]
        assert set(sizes) == set(range(6, 13))
        assert any(a > b for a, b in zip(sizes, sizes[1:]))
        assert expand_sum(shuffled) == cyc_path(dec.terms)
        assert verify_power_decomposition(shuffled) \
            == verify_power_decomposition(dec)

    def test_shuffled_negated_term_keeps_its_witness(self):
        dec, shuffled = shuffled_gurvits4()
        position = 37
        report = verify_power_decomposition(flip_one_sign(dec, position))
        moved = verify_power_decomposition(flip_one_sign(
            shuffled, shuffled.terms.index(dec.terms[position])))
        assert not report.equal and report.witness is not None
        assert moved == report

    def test_one_table_per_expansion(self, monkeypatch):
        # seven support sizes, one table: each smaller one is its prefix
        dec, _ = shuffled_gurvits4()
        for size in range(1, 5):
            verify._positive_compositions(4, size)
        calls = []
        real = verify._composition_table

        def counting(exponent, size):
            calls.append((exponent, size))
            return real(exponent, size)

        monkeypatch.setattr(verify, "_composition_table", counting)
        assert verify_power_decomposition(dec).equal
        assert calls == [(4, 12)]

    @pytest.mark.parametrize("scheme, d", [
        (scheme, d) for scheme in BUILDERS for d in range(1, 6)])
    def test_one_table_per_builder_expansion(self, scheme, d, monkeypatch):
        # the target's monomials find their slots without a second table,
        # whether or not their compositions were listed before
        verify._positive_compositions.cache_clear()
        calls = []
        real = verify._composition_table

        def counting(exponent, size):
            calls.append((exponent, size))
            return real(exponent, size)

        monkeypatch.setattr(verify, "_composition_table", counting)
        assert verify_power_decomposition(BUILDERS[scheme](d)).equal
        assert calls == [(d, d)]

    @pytest.mark.parametrize("name", TAMPERED)
    def test_witness_and_mismatches_match_the_cyc_oracle(self, name):
        dec = TAMPERED[name]
        oracle = cyc_mismatches(dec)
        assert oracle
        full = verify_power_decomposition(dec, collect_all=True)
        assert full.mismatches == tuple(oracle)
        assert full.mismatch_count == len(oracle)
        first = verify_power_decomposition(dec)
        assert not first.equal and first.mismatch_count == 1
        assert first.witness == oracle[0]
        assert first.distinct_monomials == len(cyc_path(dec.terms))

    def test_main5_term_times_w_keeps_its_witness(self):
        dec = times_w(main_decomposition(5), 311)
        report = verify_power_decomposition(dec)
        assert not report.equal
        # the witness the Cyc projection of every monomial named
        assert report.witness == (
            ((1, 3, 1), (2, 4, 1), (3, 2, 1), (4, 1, 1), (5, 5, 1)),
            Cyc(5, (-480, -120, 0, 0)), Cyc.from_int(5, -600))
        assert verify_power_decomposition(
            dec, mode="streaming").witness == report.witness
        # the sum moved by (w - 1) * coeff * form^5 from scale * det, so
        # every monomial of that power mismatches, by that much
        term = main_decomposition(5).terms[311]
        power = expand_power(term.form, 5)
        delta = term.coeff * (omega(5) - 1)
        target = dec.target_poly() * dec.scale
        full = verify_power_decomposition(dec, collect_all=True)
        assert [mono for mono, _, _ in full.mismatches] == sorted(power.terms)
        for mono, got, want in full.mismatches:
            assert want == target.coefficient(mono)
            assert got - want == delta * power.coefficient(mono)

    def test_projects_only_the_mismatches(self, monkeypatch):
        calls = []
        real = verify.from_root_coefficients

        def counting(order, coeffs, den=1):
            calls.append(order)
            return real(order, coeffs, den)

        monkeypatch.setattr(verify, "from_root_coefficients", counting)
        assert verify_power_decomposition(main_decomposition(4)).equal
        assert calls == []
        dec = TAMPERED["main3-flip4"]
        assert verify_power_decomposition(dec, collect_all=True) \
            .mismatch_count == len(calls) > 1
        calls.clear()
        verify_power_decomposition(dec)
        assert len(calls) == 1


class TestStreamingChecksTerms:
    @pytest.mark.parametrize("dec", [
        flip_one_sign(main_decomposition(3), 7),
        flip_one_sign(classical_decomposition(3), 5),
        flip_one_sign(gurvits_decomposition(3), 2),
        flip_one_sign(monomial_power_decomposition(3), 1),
    ], ids=["main", "classical", "gurvits", "monomial"])
    def test_flipped_term_fails_with_expansion_witness(self, dec):
        stream = verify_power_decomposition(dec, mode="streaming")
        exp = verify_power_decomposition(dec)
        assert not stream.equal and not exp.equal
        assert stream.witness == exp.witness

    def test_replaced_registry_entry_is_not_the_reference(self, monkeypatch):
        # the registry is one mutable dict shared with the CLI; streaming's
        # reference must stay the builder its formulas describe
        dec = flip_one_sign(main_decomposition(3), 7)
        monkeypatch.setitem(SCHEME_BUILDERS, "main", lambda d: dec)
        stream = verify_power_decomposition(dec, mode="streaming")
        exp = verify_power_decomposition(dec)
        assert not stream.equal and not exp.equal
        assert stream.witness == exp.witness

    def test_collect_all_lists_the_same_mismatches(self):
        dec = flip_one_sign(main_decomposition(3), 4)
        stream = verify_power_decomposition(dec, mode="streaming",
                                            collect_all=True)
        exp = verify_power_decomposition(dec, collect_all=True)
        assert stream.mismatch_count == exp.mismatch_count > 1
        assert stream.mismatches == exp.mismatches

    def test_reordered_terms_are_checked_not_rejected(self):
        dec = main_decomposition(3)
        terms = dec.terms[1:] + dec.terms[:1]
        report = verify_power_decomposition(
            dataclasses.replace(dec, terms=terms), mode="streaming")
        assert report.equal
        assert report.distinct_monomials == 51

    @pytest.mark.parametrize("field, value", [
        ("scale", 17), ("target", "diagonal-product")])
    def test_perturbed_scale_or_target_fails(self, field, value):
        dec = dataclasses.replace(main_decomposition(3), **{field: value})
        stream = verify_power_decomposition(dec, mode="streaming")
        exp = verify_power_decomposition(dec)
        assert not stream.equal
        assert stream.witness == exp.witness

    def test_monomial_scheme_with_determinant_target_fails(self):
        dec = dataclasses.replace(monomial_power_decomposition(3),
                                  target="determinant")
        stream = verify_power_decomposition(dec, mode="streaming")
        exp = verify_power_decomposition(dec)
        assert not stream.equal and not exp.equal
        assert stream.witness == exp.witness

    @pytest.mark.parametrize("dec", [
        conjugated_main3(),
        dataclasses.replace(conjugated_main3(), scheme="main"),
        dataclasses.replace(main_decomposition(2), scheme="classical"),
    ], ids=["conjugated", "conjugated-relabelled-main",
            "main-relabelled-classical"])
    def test_unwalkable_input_raises(self, dec):
        with pytest.raises(ValueError):
            verify_power_decomposition(dec, mode="streaming")

    def test_off_pattern_term_raises(self):
        dec = monomial_power_decomposition(2)
        term = dec.terms[0]
        moved = LinForm(1, 2, {(1, 2): 1, (2, 1): 1})
        terms = (dataclasses.replace(term, form=moved),) + dec.terms[1:]
        with pytest.raises(ValueError):
            verify_power_decomposition(
                dataclasses.replace(dec, terms=terms), mode="streaming")


def shuffled(dec, seed):
    terms = list(dec.terms)
    random.Random(seed).shuffle(terms)
    return dataclasses.replace(dec, terms=tuple(terms))


def rotated(dec):
    return dataclasses.replace(dec, terms=dec.terms[1:] + dec.terms[:1])


def count_corrections(monkeypatch):
    calls = []
    correction = verify._correction

    def counting(*args):
        calls.append(args)
        return correction(*args)

    monkeypatch.setattr(verify, "_correction", counting)
    return calls


def correction_terms(dec):
    """The distinct (sign, coeff, support) corrections streaming adds."""
    diagonal = dec.scheme == "monomial" and dec.target == "diagonal-product"
    found = set()
    for entries in verify._term_corrections(dec, diagonal).values():
        for sign, coeff, powers in entries:
            found.add((sign, coeff,
                       tuple((var, row[1]) for var, row in powers.items())))
    return found


class TestStreamingDecoders:
    """Streaming reads each given term's index from its support and checks
    it against that index's closed form, so no reference decomposition is
    built and term order does not matter."""

    @pytest.mark.parametrize("scheme", list(BUILDERS))
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_reordered_terms_need_no_correction(self, scheme, d,
                                                monkeypatch):
        calls = count_corrections(monkeypatch)
        dec = BUILDERS[scheme](d)
        for given in (dec, rotated(dec), shuffled(dec, d)):
            assert correction_terms(given) == set()
            report = verify_power_decomposition(given, mode="streaming")
            assert report.equal
        assert calls == []

    def test_rotated_main_5_is_fast(self):
        dec = rotated(main_decomposition(5))
        started = time.process_time()
        report = verify_power_decomposition(dec, mode="streaming")
        # 2.7 s when every rotated term was a correction in Cyc
        assert report.equal and time.process_time() - started < 1.0

    @pytest.mark.parametrize("scheme", list(BUILDERS))
    def test_duplicated_and_dropped_term_is_rejected(self, scheme):
        dec = BUILDERS[scheme](3)
        terms = list(dec.terms)
        dropped = terms[1]
        terms[1] = terms[2]
        bad = dataclasses.replace(dec, terms=tuple(terms))
        # one +1 for the repeat, one -1 for the missing index, built alone
        assert correction_terms(bad) == {
            (1, terms[2].coeff, terms[2].form.support()),
            (-1, dropped.coeff, dropped.form.support())}
        stream = verify_power_decomposition(bad, mode="streaming")
        exp = verify_power_decomposition(bad)
        assert not stream.equal and not exp.equal
        assert stream.witness == exp.witness

    @pytest.mark.parametrize("scheme", list(BUILDERS))
    def test_negated_coefficient_is_rejected(self, scheme):
        dec = BUILDERS[scheme](4)
        position = len(dec.terms) // 2 + 1
        bad = shuffled(flip_one_sign(dec, position), 4)
        assert len(correction_terms(bad)) == 2
        stream = verify_power_decomposition(bad, mode="streaming")
        exp = verify_power_decomposition(bad)
        assert not stream.equal and not exp.equal
        assert stream.witness == exp.witness

    @pytest.mark.parametrize("scheme", ["classical", "monomial"])
    @pytest.mark.parametrize("d, equal", [(3, False), (4, True)])
    def test_first_sign_minus_names_no_index(self, scheme, d, equal):
        # (-f)^d is f^d only at even d; either way the negated form is a
        # correction, and its index a missing one
        dec = BUILDERS[scheme](d)
        term = dec.terms[1]
        negated = LinForm(1, d, [(var, -c) for var, c in term.form.support()])
        # row 1 comes first in the sorted support
        assert negated.support()[0][1] == Cyc.from_int(1, -1)
        terms = dec.terms[:1] + (dataclasses.replace(term, form=negated),) \
            + dec.terms[2:]
        bad = dataclasses.replace(dec, terms=terms)
        assert len(correction_terms(bad)) == 2
        stream = verify_power_decomposition(bad, mode="streaming")
        exp = verify_power_decomposition(bad)
        assert stream.equal is exp.equal is equal
        assert stream.witness == exp.witness

    @pytest.mark.parametrize("scheme, d", [
        ("gurvits", 1), ("gurvits", 3), ("main", 3), ("classical", 3),
        ("monomial", 3)])
    def test_json_round_trip_matches_by_value(self, scheme, d,
                                              monkeypatch):
        from detpowers import cli
        dec = BUILDERS[scheme](d)
        parsed = cli.parse_decomposition(
            json.dumps(cli.decomposition_to_obj(dec)))
        pairs = [pair for t in parsed.terms for pair in t.form.support()]
        # no pair object is shared, so every support matches by value
        assert len({id(pair) for pair in pairs}) == len(pairs)
        calls = count_corrections(monkeypatch)
        for given in (dec, parsed, shuffled(parsed, d)):
            assert verify_power_decomposition(given, mode="streaming").equal
        assert calls == []
        if (scheme, d) == ("gurvits", 1):
            assert parsed.terms[1].form.support() == ()

    def test_builds_no_form(self, monkeypatch):
        # the missing index's reference term is a support tuple alone; no
        # LinForm, so no copy of the decomposition, is built
        dec = flip_one_sign(gurvits_decomposition(4), 7)
        built = []
        init = LinForm.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(LinForm, "__init__", counting)
        report = verify_power_decomposition(dec, mode="streaming")
        assert not report.equal and built == []

    @pytest.mark.parametrize("d", range(1, 7))
    def test_permutation_signs_by_rank(self, d):
        perms, signs = decompositions._permutations(d)
        assert perms == sorted(itertools.permutations(range(1, d + 1)))
        assert signs == [cycle_sign(p) for p in perms]
        # every term's support decodes to its own number
        for scheme in BUILDERS:
            numbering = decompositions._numbering(scheme, d)
            count = len(numbering.perms) * len(numbering.block)
            assert [numbering.decode(numbering.term(n)[1])
                    for n in range(count)] == list(range(count))


def decode_only_corrections(dec, diagonal):
    """The oracle of streaming's term matching: ``verify._term_corrections``
    as it was before each term was first checked at its own position.
    Every given term's number is read from its support by ``decode``."""
    d, numbering = dec.d, decompositions._numbering(dec.scheme, dec.d)
    if dec.order != numbering.order:
        raise ValueError(f"streaming {dec.scheme} needs root order "
                         f"{numbering.order}, got {dec.order}")
    decode, reference = numbering.decode, numbering.term
    used = bytearray(len(numbering.perms) * len(numbering.block))
    out = {}
    for term in dec.terms:
        support = term.form.support()
        n = decode(support)
        if n is not None and not used[n]:
            coeff, want = reference(n)
            if support == want and term.coeff == coeff:
                used[n] = 1
                continue
        verify._index_correction(out, 1, term.coeff, support, d, diagonal,
                                 term.index)
    for n in [n for n, hit in enumerate(used) if not hit]:
        verify._index_correction(out, -1, *reference(n), d, diagonal, n)
    return out


def corrections_or_error(find, dec):
    """``find``'s corrections of ``dec`` as a list of items, or the text of
    the ValueError it raises."""
    diagonal = dec.scheme == "monomial" and dec.target == "diagonal-product"
    try:
        return list(find(dec, diagonal).items())
    except ValueError as exc:
        return str(exc)


def with_copy(dec, copy):
    """``dec`` as given, or one of its copies."""
    terms = list(dec.terms)
    if copy == "reversed":
        terms.reverse()
    elif copy == "shuffled":
        random.Random(len(terms)).shuffle(terms)
    elif copy == "duplicated":
        # one number given twice, the one it replaces missing
        terms[len(terms) // 2] = terms[0]
    elif copy == "negated":
        return flip_one_sign(dec, len(terms) // 2)
    return dataclasses.replace(dec, terms=tuple(terms))


def counting_decodes(monkeypatch):
    """Counts of the calls streaming makes to each numbering's ``decode``,
    by (scheme, d), through numberings that wrap it."""
    calls = collections.Counter()
    numbering = verify._numbering
    wrapped = {}

    def counted(scheme, d):
        if (scheme, d) not in wrapped:
            base = numbering(scheme, d)
            if base is not None:
                base = copy.copy(base)
                base.decode = counting(calls, (scheme, d), base.decode)
            wrapped[scheme, d] = base
        return wrapped[scheme, d]

    monkeypatch.setattr(verify, "_numbering", counted)
    return calls


COPIES = ["given", "reversed", "shuffled", "duplicated", "negated"]


class TestPositionFirstMatching:
    """Streaming checks each given term against the numbering's term at its
    own position and decodes only the terms found elsewhere. Reading every
    term's number from its support is the oracle: a term can equal at most
    one scheme term, so both match the same terms."""

    @pytest.mark.parametrize("copy", COPIES)
    @pytest.mark.parametrize("scheme, d", [
        (scheme, d) for scheme in BUILDERS for d in range(1, 6)
    ] + [("main", 6)])
    def test_corrections_match_the_decode_oracle(self, scheme, d, copy):
        dec = with_copy(BUILDERS[scheme](d), copy)
        got = corrections_or_error(verify._term_corrections, dec)
        assert got == corrections_or_error(decode_only_corrections, dec)
        if copy in ("given", "reversed", "shuffled"):
            assert got == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_tampered_inputs(self, seed):
        for scheme, d, index in benchmark_tampered(seed):
            dec = flip_one_sign(BUILDERS[scheme](d), index)
            got = corrections_or_error(verify._term_corrections, dec)
            assert got == corrections_or_error(decode_only_corrections, dec)
            # the negated term, and its number left unmatched
            assert sorted(sign for _, entries in got[:1]
                          for sign, _, _ in entries) == [-1, 1]

    @pytest.mark.parametrize("dec", [
        dataclasses.replace(conjugated_main3(), scheme="main"),
        dataclasses.replace(main_decomposition(2), scheme="classical"),
        dataclasses.replace(monomial_power_decomposition(2), terms=(
            dataclasses.replace(monomial_power_decomposition(2).terms[0],
                                form=LinForm(1, 2, {(1, 2): 1, (2, 1): 1})),
        ) + monomial_power_decomposition(2).terms[1:]),
    ], ids=["conjugated-relabelled-main", "main-relabelled-classical",
            "off-pattern"])
    def test_errors_match_the_decode_oracle(self, dec):
        got = corrections_or_error(verify._term_corrections, dec)
        assert isinstance(got, str)
        assert got == corrections_or_error(decode_only_corrections, dec)

    @pytest.mark.parametrize("moved", [False, True])
    def test_a_later_scalar_is_checked(self, moved):
        # main(3)'s term 5 with its row 3 scalar moved to another root: its
        # leading scalar still decodes to 5, but its support is not term 5's
        dec = main_decomposition(3)
        term = dec.terms[5]
        support = term.form.support()
        (var, c), = support[2:]
        changed = dataclasses.replace(term, form=LinForm(
            3, 3, support[:2] + ((var, c * omega(3, 1)),)))
        numbering = decompositions._numbering("main", 3)
        assert numbering.decode(changed.form.support()) == 5
        terms = dec.terms[:5] + (changed,) + dec.terms[6:]
        bad = dataclasses.replace(dec, terms=terms[1:] + terms[:1] if moved
                                  else terms)
        got = corrections_or_error(verify._term_corrections, bad)
        assert got == corrections_or_error(decode_only_corrections, bad)
        assert correction_terms(bad) == {
            (1, term.coeff, changed.form.support()),
            (-1, term.coeff, support)}
        stream = verify_power_decomposition(bad, mode="streaming")
        exp = verify_power_decomposition(bad)
        assert not stream.equal and not exp.equal
        assert stream.witness == exp.witness

    @pytest.mark.parametrize("scheme", list(BUILDERS))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_builder_input_decodes_nothing(self, scheme, d, monkeypatch):
        dec = BUILDERS[scheme](d)
        calls = counting_decodes(monkeypatch)
        assert verify_power_decomposition(dec, mode="streaming").equal
        assert calls == {}

    @pytest.mark.parametrize("scheme", list(BUILDERS))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_reversed_input_decodes_each_moved_term(self, scheme, d,
                                                    monkeypatch):
        dec = BUILDERS[scheme](d)
        given = with_copy(dec, "reversed")
        moved = sum(map(ne, given.terms, dec.terms))
        # only the middle of an odd count stays at its own number
        assert moved == len(dec.terms) - len(dec.terms) % 2
        calls = counting_decodes(monkeypatch)
        assert verify_power_decomposition(given, mode="streaming").equal
        assert calls == ({(scheme, d): moved} if moved else {})


def sign_vectors(d):
    """Sign vectors of length d with first entry +1, +1 ordered before -1."""
    for rest in itertools.product((1, -1), repeat=d - 1):
        yield (1,) + rest


@functools.lru_cache(maxsize=None)
def phase_group_sum(d, s):
    """The hand formula of main's class factor: sum over j = 1..d of
    (-1)^((d+1)j) w^(js)."""
    total = Cyc.zero(d)
    for j in range(1, d + 1):
        total = total + omega(d, j * s) * ((-1) ** ((d + 1) * j))
    return total


def sign_vector_sum(powers):
    """The hand formula of classical's class factor: sum over sign vectors
    eps (eps_1 = +1) of prod_i eps_i^powers[i] factors as prod over i >= 2
    of (1 + (-1)^powers[i]): 2^(d-1) when powers[1:] are all even, else
    0."""
    return 0 if any(p & 1 for p in powers[1:]) else 1 << (len(powers) - 1)


def hand_class_factor(scheme, d, comp):
    """F(e) written by hand for each scheme: the phase-group sum, the
    sign-vector sum (classical's, for the monomial scheme too) or
    1 - zero rows, times the multinomial."""
    mult = multinomial(d, comp)
    if scheme == "main":
        s = sum(i * e for i, e in enumerate(comp, start=1)) % d
        return phase_group_sum(d, s) * mult
    if scheme == "gurvits":
        return Cyc.from_int(1, mult * (1 - comp.count(0)))
    return Cyc.from_int(1, mult * sign_vector_sum(tuple(e + 1 for e in comp)))


def enumerated_sign_vector_sum(powers):
    """sum over sign vectors eps (eps_1 = +1) of prod_i eps_i^powers[i],
    term by term."""
    total = 0
    for eps in sign_vectors(len(powers)):
        prod = 1
        for e, k in zip(eps, powers):
            prod *= e ** k
        total += prod
    return total


def walked_coefficient(scheme, d, order, mono, comp, mult):
    """The scheme's own total at one monomial, from each scheme's formula
    written out in full."""
    if scheme == "monomial":
        if any(i != j for i, j, _ in mono):
            return Cyc.zero(1)
        eps_sum = enumerated_sign_vector_sum(tuple(e + 1 for e in comp))
        return Cyc.from_int(1, mult * eps_sum)
    ext = _signed_extension_sum(d, {i: j for i, j, _ in mono})
    if not ext:
        return Cyc.zero(order)
    if scheme == "main":
        s = sum(i * e for i, _, e in mono) % d
        return phase_group_sum(d, s) * (mult * ext)
    if scheme == "classical":
        eps_sum = enumerated_sign_vector_sum(tuple(e + 1 for e in comp))
        return Cyc.from_int(1, mult * ext * eps_sum)
    zero_rows = sum(1 for e in comp if e == 0)
    return Cyc.from_int(1, mult * ext * (1 - zero_rows))


def differing_terms(dec):
    """The multiset difference of (coeff, form) between the given terms and
    a fresh builder copy: the given terms the builder does not make, with
    sign +1, and the builder's terms not given, with sign -1."""
    given = collections.Counter((t.coeff, t.form) for t in dec.terms)
    built = collections.Counter((t.coeff, t.form)
                                for t in BUILDERS[dec.scheme](dec.d).terms)
    return ([(1, *term) for term in (given - built).elements()]
            + [(-1, *term) for term in (built - given).elements()])


def differing_total(differing, mono, mult, order):
    """sum of sign * coeff * mult * prod c^e over the differing terms whose
    support holds every variable of ``mono``."""
    total = Cyc.zero(order)
    for sign, coeff, form in differing:
        scalars = dict(form.support())
        if all((i, j) in scalars for i, j, _ in mono):
            value = coeff * (sign * mult)
            for i, j, e in mono:
                value = value * scalars[i, j] ** e
            total = total + value
    return total


def walk_check(dec, coefficient=walked_coefficient):
    """The per-monomial streaming walk: build every candidate monomial of
    the scheme, sort them, and check each one, valued by ``coefficient``
    plus the terms that differ from a builder copy, against the target.
    Returns the report fields the class-decided engine must give, without
    and with ``collect_all``; both count the whole walk."""
    d, order, scheme = dec.d, dec.order, dec.scheme
    diagonal = scheme == "monomial" and dec.target == "diagonal-product"
    differing = differing_terms(dec)
    candidates = []
    for comp in weak_compositions(d, d):
        rows = tuple(i for i, e in enumerate(comp, start=1) if e)
        exps = tuple(e for e in comp if e)
        mult = multinomial(d, comp)
        choices = ([rows] if diagonal
                   else itertools.permutations(range(1, d + 1), len(rows)))
        for cols in choices:
            candidates.append((tuple(zip(rows, cols, exps)), comp, mult))
    candidates.sort(key=lambda c: c[0])
    mismatches = []
    for mono, comp, mult in candidates:
        got = coefficient(scheme, d, order, mono, comp, mult)
        if differing:
            got = got + differing_total(differing, mono, mult, order)
        want = verify._target_coefficient(dec, mono, comp)
        if got != want:
            mismatches.append((mono, got, want))
    witness = mismatches[0] if mismatches else None
    return ((not mismatches, len(candidates), witness,
             min(len(mismatches), 1), None),
            (not mismatches, len(candidates), witness, len(mismatches),
             tuple(mismatches)))


def perturbations(dec, seed):
    """The decomposition, three seeded single flips, scale + 1, the other
    target, and its terms rotated by one."""
    rng = random.Random(seed)
    swapped = ("diagonal-product" if dec.target == "determinant"
               else "determinant")
    return ([dec]
            + [flip_one_sign(dec, p)
               for p in (rng.randrange(len(dec.terms)) for _ in range(3))]
            + [dataclasses.replace(dec, scale=dec.scale + 1),
               dataclasses.replace(dec, target=swapped),
               dataclasses.replace(dec, terms=dec.terms[1:] + dec.terms[:1])])


class TestClassDecidedStreaming:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_sign_vector_sum_closed_form(self, d):
        # both parities at every position, and up to d + 1 for d <= 3
        for powers in itertools.product(range(1, min(d, 3) + 2), repeat=d):
            assert sign_vector_sum(powers) == \
                enumerated_sign_vector_sum(powers)

    @pytest.mark.parametrize("scheme, d", [
        *((scheme, d) for scheme in ("main", "gurvits") for d in range(2, 9)),
        *((scheme, d) for scheme in ("classical", "monomial")
          for d in range(2, 8)),
    ])
    def test_class_factor_matches_the_hand_formula(self, scheme, d):
        # streaming's F(e), read from the scheme's rows, at every weak
        # composition, past the sizes expansion can check
        numbering = decompositions._numbering(scheme, d)
        for comp in weak_compositions(d, d):
            assert verify._class_factor(numbering, comp) \
                == hand_class_factor(scheme, d, comp), comp

    @pytest.mark.parametrize("builder, d", [
        (main_decomposition, 6), (classical_decomposition, 5),
        (monomial_power_decomposition, 6)],
        ids=lambda v: getattr(v, "__name__", str(v)))
    def test_streaming_takes_no_cyc_powers(self, monkeypatch, builder, d):
        dec = builder(d)
        calls = {"pow": 0}
        monkeypatch.setattr(Cyc, "__pow__",
                            counting(calls, "pow", Cyc.__pow__))
        verify._row_sums.cache_clear()
        verify._class_factor.cache_clear()
        assert verify_power_decomposition(dec, mode="streaming").equal
        assert calls == {"pow": 0}

    @pytest.mark.parametrize("builder, d", [
        (builder, d)
        for builder in (main_decomposition, classical_decomposition,
                        gurvits_decomposition, monomial_power_decomposition)
        for d in (2, 3, 4)
    ] + [(main_decomposition, 5), (gurvits_decomposition, 5)],
        ids=lambda v: getattr(v, "__name__", str(v)))
    def test_reports_match_the_walk(self, builder, d):
        for n, dec in enumerate(perturbations(builder(d), seed=d)):
            for collect_all, want in zip((False, True), walk_check(dec)):
                report = verify_power_decomposition(
                    dec, mode="streaming", collect_all=collect_all)
                got = (report.equal, report.distinct_monomials,
                       report.witness, report.mismatch_count,
                       report.mismatches)
                assert got == want, (n, collect_all)

    @pytest.mark.parametrize("builder", [
        main_decomposition, classical_decomposition, gurvits_decomposition])
    def test_class_rule_follows_a_wrong_factor(self, builder, monkeypatch):
        # off by one, the factor fails every class of d - 1 or d rows; the
        # classes the rule skips must be those whose every monomial the
        # same formula, evaluated monomial by monomial, would accept
        factor = verify._class_factor
        monkeypatch.setattr(verify, "_class_factor",
                            lambda *args: factor(*args) + 1)
        dec = builder(4)

        def engine_formula(scheme, d, order, mono, comp, mult):
            # the engine's class factor, at one monomial
            ext = _signed_extension_sum(d, {i: j for i, j, _ in mono})
            return verify._class_factor(
                decompositions._numbering(scheme, d), comp) * ext

        want = walk_check(dec, engine_formula)
        for collect_all, fields in zip((False, True), want):
            report = verify_power_decomposition(
                dec, mode="streaming", collect_all=collect_all)
            assert not report.equal
            assert (report.equal, report.distinct_monomials, report.witness,
                    report.mismatch_count, report.mismatches) == fields

    def test_main_7_is_equal_over_the_whole_walk(self):
        report = verify_power_decomposition(main_decomposition(7),
                                            mode="streaming")
        assert report.equal
        assert report.distinct_monomials == 1_714_111

    def test_scale_perturbation_fails_a_whole_class(self):
        dec = main_decomposition(5)
        dec = dataclasses.replace(dec, scale=dec.scale + 1)
        stream = verify_power_decomposition(dec, mode="streaming",
                                            collect_all=True)
        exp = verify_power_decomposition(dec, collect_all=True)
        # every one of the 5! monomials of the all-ones class
        assert stream.mismatch_count == math.factorial(5)
        assert stream.mismatches == exp.mismatches
        assert stream.witness == exp.witness
        first = verify_power_decomposition(dec, mode="streaming")
        assert first.witness == exp.witness


@pytest.fixture
def fresh_numberings():
    """Numberings built anew in the test and after it, so that a patched
    description reaches no other test."""
    decompositions._numbering.cache_clear()
    yield
    decompositions._numbering.cache_clear()


def negate_first(families):
    """Family j = 1 of a scheme's rows with its sign negated."""
    (sign, rows), *rest = families
    return [(-sign, rows), *rest]


class TestFaultyDescription:
    """A fault in a scheme's rows reaches the builder and streaming alike:
    the terms built are the numbering's own, so none is corrected, and the
    class factors come from the same faulty rows, so streaming rejects the
    terms with expansion's witness."""

    def patch_rows(self, monkeypatch, scheme, fault):
        rows_of, over_sigma = decompositions._SCHEME_ROWS[scheme]

        def faulty(d):
            order, families, label = rows_of(d)
            return order, fault(list(families)), label

        monkeypatch.setitem(decompositions._SCHEME_ROWS, scheme,
                            (faulty, over_sigma))

    def check_rejected(self, dec, every_mismatch):
        assert correction_terms(dec) == set()
        exp = verify_power_decomposition(dec, collect_all=every_mismatch)
        stream = verify_power_decomposition(dec, mode="streaming",
                                            collect_all=every_mismatch)
        assert not exp.equal and not stream.equal
        assert stream.witness == exp.witness
        assert stream.mismatches == exp.mismatches

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_main_with_family_1_negated(self, d, monkeypatch,
                                        fresh_numberings):
        self.patch_rows(monkeypatch, "main", negate_first)
        dec = main_decomposition(d)
        # every j = 1 term is negated, and no other term changed
        assert [t.coeff for t in dec.terms] == [
            -c if j == 1 else c for (_, j), c, _ in paper_terms("main", d)]
        self.check_rejected(dec, d < 5)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_lemma_check_reads_main_rows(self, d, monkeypatch,
                                         fresh_numberings, capsys):
        # P's terms are main's rows at sigma = identity, so the fault
        # reaches the lemma check as well
        self.patch_rows(monkeypatch, "main", negate_first)
        assert check_closed_form_coefficients(d) is False
        assert cli.main(["lemma-check", "--d", str(d)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["matches"] is False

    @pytest.mark.parametrize("d", [3, 4])
    def test_gurvits_with_a_row_scalar_changed(self, d, monkeypatch,
                                               fresh_numberings):
        def minus_first_scalar(families):
            (sign, rows), *rest = families
            return [(sign, [((1, Cyc.from_int(1, -1)),), *rows[1:]]), *rest]

        self.patch_rows(monkeypatch, "gurvits", minus_first_scalar)
        dec = gurvits_decomposition(d)
        assert dict(dec.terms[0].form.support())[1, 1] == Cyc.from_int(1, -1)
        self.check_rejected(dec, True)


class TestSignedExtensionSum:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_brute_force_over_permutations(self, d):
        perms = list(itertools.permutations(range(1, d + 1)))
        seen = 0
        for k in range(d + 1):
            for rows in itertools.combinations(range(1, d + 1), k):
                for cols in itertools.permutations(range(1, d + 1), k):
                    partial = dict(zip(rows, cols))
                    brute = sum(cycle_sign(p) for p in perms
                                if all(p[r - 1] == c
                                       for r, c in partial.items()))
                    assert _signed_extension_sum(d, partial) == brute
                    seen += 1
        assert seen == sum(math.comb(d, k) ** 2 * math.factorial(k)
                           for k in range(d + 1))


class TestPhasePolynomial:
    def test_d2_explicit(self):
        # P = -(x1 - x2)^2 + (x1 + x2)^2 = 4 x1 x2
        poly = phase_polynomial(2)
        assert poly == SparsePoly(2, {
            monomial({(1, 1): 1, (2, 1): 1}): Cyc.from_int(2, 4)})

    def test_range_check(self):
        with pytest.raises(ValueError):
            check_closed_form_coefficients(7)


class TestProductIdentity:
    def test_krishna_makam_verifies(self):
        assert verify_product_identity(krishna_makam_det3())

    def test_flipped_sign_fails(self):
        pd = krishna_makam_det3()
        terms = list(pd.terms)
        sign, forms = terms[2]
        terms[2] = (-sign, forms)
        assert not verify_product_identity(
            pd._replace(terms=tuple(terms)))

    def test_cancellation_profile(self):
        pd = krishna_makam_det3()
        union = set()
        for piece in pd.expanded_terms():
            union.update(piece.terms)
        assert len(union) > 6
        total = SparsePoly.zero(1)
        for piece in pd.expanded_terms():
            total = total + piece
        assert len(total) == 6
        ones = (Cyc.from_int(1, 1), Cyc.from_int(1, -1))
        assert all(c in ones for c in total.terms.values())
