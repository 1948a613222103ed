import dataclasses
import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from detpowers import multipoly, verify
from detpowers.cyclotomic import Cyc, from_root_coefficients, omega
from detpowers.decompositions import (
    SCHEME_BUILDERS,
    Perm,
    PowerDecomposition,
    PowerTerm,
    classical_decomposition,
    gurvits_decomposition,
    krishna_makam_det3,
    main_decomposition,
    monomial_power_decomposition,
    sign_vectors,
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
    MultiIndex,
    check_closed_form_coefficients,
    closed_form_coefficient,
    _common_denominator,
    _expand_sum,
    _phase_group_sum,
    _sign_vector_sum,
    _signed_extension_sum,
    _unit,
    _unit_phases,
    phase_polynomial,
    verify_power_decomposition,
    verify_product_identity,
)


def flip_one_sign(dec, position):
    term = dec.terms[position]
    flipped = PowerTerm(term.index, term.coeff * (-1), term.form, term.exponent)
    terms = dec.terms[:position] + (flipped,) + dec.terms[position + 1:]
    return dataclasses.replace(dec, terms=terms)


class TestMultiIndex:
    def test_of_sorts(self):
        idx = MultiIndex.of([3, 1, 2])
        assert idx.entries == (1, 2, 3)
        assert idx.d == 3
        assert idx.support() == {1, 2, 3}

    def test_multiplicities(self):
        assert MultiIndex.of([1, 1, 2]).multiplicities() == (2, 1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex((2, 1, 3))
        with pytest.raises(ValueError):
            MultiIndex.of([1, 2, 4])


class TestClosedFormCoefficient:
    def test_known_values_d3(self):
        assert closed_form_coefficient(MultiIndex.of([1, 2, 3]), 3) \
            == Cyc.from_int(3, 18)
        assert closed_form_coefficient(MultiIndex.of([1, 1, 2]), 3) \
            == Cyc.zero(3)
        assert closed_form_coefficient(MultiIndex.of([1, 1, 1]), 3) \
            == Cyc.from_int(3, 3)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_expanded_phase_polynomial(self, d):
        assert check_closed_form_coefficients(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_vanishes_when_support_misses_one_value(self, d):
        # entries covering all but one value force a doubled value, and the
        # congruence then fails, so the coefficient is zero
        import itertools
        for entries in itertools.combinations_with_replacement(range(1, d + 1), d):
            idx = MultiIndex.of(entries)
            if len(idx.support()) == d - 1:
                assert closed_form_coefficient(idx, d) == Cyc.zero(d)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            closed_form_coefficient(MultiIndex.of([1, 2]), 3)


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
            assert dataclasses.replace(report, elapsed=0.0) \
                == dataclasses.replace(default, elapsed=0.0)

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
    per digit, then projected to Q(w) like ``_expand_sum``."""
    order, scale = dec.order, _common_denominator(dec.terms)
    ring = {}
    for term in dec.terms:
        support = term.form.support()
        comps, mults, _, nodes, steps = verify._composition_table(
            term.exponent, len(support), scale)
        vecs = [ring.setdefault(tuple((i, j, e) for ((i, j), _), e
                                      in zip(support, comp) if e),
                                [0] * order)
                for comp in comps]
        add_general_term(term, support, order, scale, vecs, mults, nodes,
                         steps)
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
        assert _expand_sum(dec) == cyc_path(dec.terms)

    def test_keeps_keys_that_cancel_to_zero(self):
        got = _expand_sum(main_decomposition(3))
        zeros = [mono for mono, c in got.items() if not c]
        assert len(got) == 51 and len(zeros) == 51 - 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_unit_and_general_terms(self, jobs):
        terms = main_decomposition(3).terms + conjugated_main3().terms
        dec = loose(3, 3, terms)
        assert _unit(dict(conjugated_main3().terms[0].form.support())[1, 2]) \
            is None
        assert _expand_sum(dec) == cyc_path(terms)
        # the halves sum to 36 det^3, so scale 1 misses all six permutation
        # monomials
        report = verify_power_decomposition(dec, jobs=jobs, collect_all=True)
        assert not report.equal and report.mismatch_count == 6

    def test_order_one_negative_units(self):
        assert _unit(Cyc.from_int(1, -1)) == (-1, 0)
        form = LinForm(1, 2, {(1, 1): -1, (1, 2): 1, (2, 1): -1})
        terms = [PowerTerm((0,), Cyc.from_int(1, -1), form, 2),
                 PowerTerm((1,), Cyc.from_int(1, 1), form, 2)]
        got = _expand_sum(loose(2, 1, terms))
        assert got == cyc_path(terms)
        assert len(got) == 6 and not any(got.values())

    def test_order_two_minus_one_is_w(self):
        assert _unit(Cyc.from_int(2, -1)) == (1, 1)
        form = LinForm(2, 2, {(1, 2): -1, (2, 1): 1})
        terms = [PowerTerm((0,), Cyc.from_int(2, -1), form, 2)]
        assert _expand_sum(loose(2, 2, terms)) == cyc_path(terms)

    def test_non_unit_coefficient_falls_back(self):
        two_w = omega(3, 1) * 2
        assert _unit(two_w) is None
        form = LinForm(3, 2, {(1, 1): omega(3, 2), (2, 2): 1})
        terms = [PowerTerm((0,), two_w, form, 2),
                 PowerTerm((1,), omega(3, 1), form, 2)]
        got = _expand_sum(loose(2, 3, terms))
        assert got == cyc_path(terms)
        # 2w * 2w^2 + w * 2w^2 = 4 + 2
        assert got[((1, 1, 1), (2, 2, 1))] == Cyc.from_int(3, 6)

    def test_gurvits_d1_zero_form(self):
        dec = gurvits_decomposition(1)
        assert not dec.terms[1].form.support()
        assert _expand_sum(dec) == cyc_path(dec.terms) \
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
        got = _expand_sum(dec)
        assert got == cyc_path(terms)
        assert any(c.den != 1 for c in got.values())
        assert not verify_power_decomposition(dec, jobs=jobs).equal

    @pytest.mark.parametrize("scheme", SCHEME_BUILDERS)
    def test_builder_terms_need_no_denominator(self, scheme):
        assert _common_denominator(SCHEME_BUILDERS[scheme](4).terms) == 1

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
                assert _expand_sum(dec) == oracle
                assert verify_power_decomposition(dec).equal is equal

    def test_general_terms_take_no_cyc_products(self, monkeypatch):
        dec = conjugated_main3()
        general = [t for t in dec.terms
                   if _unit_phases(t.coeff, t.form.support()) is None]
        assert len(general) == 17 and len(dec.terms) == 18
        calls = {"mul": 0, "expand_power": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Cyc, "__mul__", counting("mul", Cyc.__mul__))
        monkeypatch.setattr(Cyc, "__rmul__", counting("mul", Cyc.__rmul__))
        for module in (multipoly, verify):
            monkeypatch.setattr(module, "expand_power",
                                counting("expand_power", expand_power))
        got = _expand_sum(dec)
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
        assert _expand_sum(dec) == oracle

    @pytest.mark.parametrize("order", [1, 4, 6])
    @pytest.mark.parametrize("c", [10 ** 6, -10 ** 6])
    @pytest.mark.parametrize("d", [1, 3])
    def test_digit_at_the_bound(self, order, c, d):
        # the one digit of (c x11)^d is c^d, the L1 bound itself; at order
        # 6 the lift of c has phi = 2 < 6 digits, zero-padded
        form = LinForm(order, d, {(1, 1): c})
        terms = [PowerTerm((0,), Cyc.one(order), form, d)]
        got = _expand_sum(loose(d, order, terms))
        assert got == cyc_path(terms) \
            == {((1, 1, d),): Cyc.from_int(order, c ** d)}
        assert verify._packed_width(terms, 1) \
            == (abs(c) ** d).bit_length() + 2

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
        ring = verify._expand_chunk(order, 1, terms)
        digits = [0, -2, 1] + [0] * (order - 3)
        assert ring == {((1, 1, 2),): [sign * big ** 2 * x for x in digits]}
        assert _expand_sum(loose(2, order, terms)) == cyc_path(terms)

    def test_general_coefficient_on_a_zero_form(self):
        dec = gurvits_decomposition(1)
        term = dec.terms[1]
        assert not term.form.support()
        terms = (dec.terms[0],
                 dataclasses.replace(term, coeff=Cyc.from_int(1, 7)))
        assert _unit_phases(terms[1].coeff, []) is None
        dec = dataclasses.replace(dec, terms=terms)
        assert _expand_sum(dec) == cyc_path(terms) \
            == {((1, 1, 1),): Cyc.from_int(1, 1)}
        assert verify_power_decomposition(dec).equal


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
        return _phase_group_sum(d, s) * (mult * ext)
    if scheme == "classical":
        eps_sum = enumerated_sign_vector_sum(tuple(e + 1 for e in comp))
        return Cyc.from_int(1, mult * ext * eps_sum)
    zero_rows = sum(1 for e in comp if e == 0)
    return Cyc.from_int(1, mult * ext * (1 - zero_rows))


def walk_check(dec, coefficient=walked_coefficient):
    """The per-monomial streaming walk: build every candidate monomial of
    the scheme, sort them, and check each one, valued by ``coefficient``,
    against the target. Returns the report fields the class-decided engine
    must give, without and with ``collect_all``; the first counts the
    monomials up to the witness."""
    d, order, scheme = dec.d, dec.order, dec.scheme
    diagonal = scheme == "monomial" and dec.target == "diagonal-product"
    corrections = verify._term_corrections(dec, diagonal)
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
    first_at = len(candidates)
    for checked, (mono, comp, mult) in enumerate(candidates, start=1):
        got = coefficient(scheme, d, order, mono, comp, mult)
        entries = corrections.get(tuple((i, j) for i, j, _ in mono))
        if entries:
            got = got + verify._correction(entries, mono, mult, order)
        want = verify._target_coefficient(dec, mono, comp)
        if got != want:
            if not mismatches:
                first_at = checked
            mismatches.append((mono, got, want))
    witness = mismatches[0] if mismatches else None
    return ((not mismatches, first_at, witness, min(len(mismatches), 1),
             None),
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
            assert _sign_vector_sum(powers) == \
                enumerated_sign_vector_sum(powers)

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
            return verify._streaming_coefficient(scheme, d, mono, comp)

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


class TestSignedExtensionSum:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_brute_force_over_permutations(self, d):
        perms = list(Perm.all_perms(d))
        seen = 0
        for k in range(d + 1):
            for rows in itertools.combinations(range(1, d + 1), k):
                for cols in itertools.permutations(range(1, d + 1), k):
                    partial = dict(zip(rows, cols))
                    brute = sum(cycle_sign(p) for p in perms
                                if all(p(r) == c for r, c in partial.items()))
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
            dataclasses.replace(pd, terms=tuple(terms)))

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
