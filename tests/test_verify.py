import dataclasses
import itertools
import math
import random

import pytest

from detpowers.cyclotomic import Cyc, omega
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
)
from detpowers.multipoly import LinForm, SparsePoly, determinant_poly, monomial
from detpowers.symmetry import conjugate_decomposition, cycle_sign
from detpowers.verify import (
    IJPair,
    MultiIndex,
    check_closed_form_coefficients,
    closed_form_coefficient,
    determinant_coefficient,
    _cyc_accumulate,
    _expand_sum,
    _signed_extension_sum,
    _unit,
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


class TestDeterminantCoefficient:
    def test_small_cases(self):
        assert determinant_coefficient(IJPair((1, 2), (1, 2))) == 1
        assert determinant_coefficient(IJPair((1, 2), (2, 1))) == -1
        assert determinant_coefficient(IJPair((1, 1), (1, 2))) == 0

    def test_repeated_row_with_conflicting_columns(self):
        assert determinant_coefficient(IJPair((1, 1, 2), (1, 2, 3))) == 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_pairs_match_determinant_poly(self, d):
        rng = random.Random(d)
        det = determinant_poly(d)
        for _ in range(200):
            pair = IJPair(tuple(rng.randint(1, d) for _ in range(d)),
                          tuple(rng.randint(1, d) for _ in range(d)))
            expected = det.coefficient(pair.as_monomial())
            assert Cyc.from_int(1, determinant_coefficient(pair)) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            IJPair((1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            IJPair((1, 3), (1, 2))


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


def conjugated_main3():
    """main(3) conjugated by a unitriangular pair, so its coefficients are
    general elements of Q(w) rather than roots of unity."""
    zero, one, two = (Cyc.from_int(3, v) for v in (0, 1, 2))
    a = ((one, two, zero), (zero, one, zero), (zero, zero, one))
    b = ((one, zero, zero), (zero, one, zero), (zero, -one, one))
    return conjugate_decomposition(a, b, main_decomposition(3))


class TestParallelExpansion:
    def test_parallel_report_matches_sequential(self):
        dec = main_decomposition(4)
        seq = verify_power_decomposition(dec, jobs=1)
        par = verify_power_decomposition(dec, jobs=2)
        assert dataclasses.replace(seq, elapsed=0.0) \
            == dataclasses.replace(par, elapsed=0.0)

    @pytest.mark.parametrize("dec, equal", [
        (flip_one_sign(main_decomposition(3), 7), False),
        (conjugated_main3(), True),
        (flip_one_sign(conjugated_main3(), 7), False),
    ], ids=["flipped-main", "conjugated", "flipped-conjugated"])
    def test_workers_check_the_given_terms(self, dec, equal):
        seq = verify_power_decomposition(dec, jobs=1)
        par = verify_power_decomposition(dec, jobs=2)
        assert seq.equal is equal
        assert dataclasses.replace(seq, elapsed=0.0) \
            == dataclasses.replace(par, elapsed=0.0)


def cyc_path(terms):
    """The expand_power / Cyc-product sum, the group ring's oracle."""
    acc = {}
    _cyc_accumulate(terms, acc)
    return acc


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
        assert _expand_sum(dec, 1) == cyc_path(dec.terms)

    def test_keeps_keys_that_cancel_to_zero(self):
        got = _expand_sum(main_decomposition(3), 1)
        zeros = [mono for mono, c in got.items() if not c]
        assert len(got) == 51 and len(zeros) == 51 - 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_unit_and_general_terms(self, jobs):
        terms = main_decomposition(3).terms + conjugated_main3().terms
        dec = loose(3, 3, terms)
        assert _unit(conjugated_main3().terms[0].form.entry(1, 2)) is None
        assert _expand_sum(dec, jobs) == cyc_path(terms)

    def test_order_one_negative_units(self):
        assert _unit(Cyc.from_int(1, -1)) == (-1, 0)
        form = LinForm.from_entries(1, 2, {(1, 1): -1, (1, 2): 1,
                                           (2, 1): -1})
        terms = [PowerTerm((0,), Cyc.from_int(1, -1), form, 2),
                 PowerTerm((1,), Cyc.from_int(1, 1), form, 2)]
        got = _expand_sum(loose(2, 1, terms), 1)
        assert got == cyc_path(terms)
        assert len(got) == 6 and not any(got.values())

    def test_order_two_minus_one_is_w(self):
        assert _unit(Cyc.from_int(2, -1)) == (1, 1)
        form = LinForm.from_entries(2, 2, {(1, 2): -1, (2, 1): 1})
        terms = [PowerTerm((0,), Cyc.from_int(2, -1), form, 2)]
        assert _expand_sum(loose(2, 2, terms), 1) == cyc_path(terms)

    def test_non_unit_coefficient_falls_back(self):
        two_w = omega(3, 1) * 2
        assert _unit(two_w) is None
        form = LinForm.from_entries(3, 2, {(1, 1): omega(3, 2),
                                           (2, 2): 1})
        terms = [PowerTerm((0,), two_w, form, 2),
                 PowerTerm((1,), omega(3, 1), form, 2)]
        got = _expand_sum(loose(2, 3, terms), 1)
        assert got == cyc_path(terms)
        # 2w * 2w^2 + w * 2w^2 = 4 + 2
        assert got[((1, 1, 1), (2, 2, 1))] == Cyc.from_int(3, 6)

    def test_gurvits_d1_zero_form(self):
        dec = gurvits_decomposition(1)
        assert dec.terms[1].form.is_zero
        assert _expand_sum(dec, 1) == cyc_path(dec.terms) \
            == {((1, 1, 1),): Cyc.from_int(1, 1)}


class TestStreamingChecksTerms:
    @pytest.mark.parametrize("dec", [
        flip_one_sign(main_decomposition(3), 7),
        flip_one_sign(classical_decomposition(3), 5),
        flip_one_sign(gurvits_decomposition(3), 2),
        flip_one_sign(monomial_power_decomposition(3), 1),
    ], ids=["main", "classical", "gurvits", "monomial"])
    def test_flipped_term_fails_with_expansion_witness(self, dec):
        stream = verify_power_decomposition(dec, mode="streaming")
        exp1 = verify_power_decomposition(dec, jobs=1)
        exp2 = verify_power_decomposition(dec, jobs=2)
        assert not stream.equal and not exp1.equal
        assert stream.witness == exp1.witness == exp2.witness

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
        moved = LinForm.from_entries(1, 2, {(1, 2): 1, (2, 1): 1})
        terms = (dataclasses.replace(term, form=moved),) + dec.terms[1:]
        with pytest.raises(ValueError):
            verify_power_decomposition(
                dataclasses.replace(dec, terms=terms), mode="streaming")


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
