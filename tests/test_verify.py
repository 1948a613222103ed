import dataclasses
import itertools
import math
import random

import pytest

from detpowers.cyclotomic import Cyc
from detpowers.decompositions import (
    Perm,
    PowerTerm,
    classical_decomposition,
    gurvits_decomposition,
    krishna_makam_det3,
    main_decomposition,
    monomial_power_decomposition,
)
from detpowers.multipoly import SparsePoly, determinant_poly, monomial
from detpowers.symmetry import conjugate_decomposition, cycle_sign
from detpowers.verify import (
    IJPair,
    MultiIndex,
    check_closed_form_coefficients,
    closed_form_coefficient,
    determinant_coefficient,
    _signed_extension_sum,
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
