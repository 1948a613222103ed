import math

import pytest

from detpowers.cyclotomic import Cyc
from detpowers.decompositions import (
    BoundsRow,
    Perm,
    PowerDecomposition,
    PowerTerm,
    bounds_table,
    classical_decomposition,
    expected_term_count,
    gurvits_decomposition,
    krishna_makam_det3,
    main_decomposition,
    monomial_power_decomposition,
    sign_vectors,
)
from detpowers.multipoly import LinForm, SparsePoly, determinant_poly, expand_power


def expand_decomposition(dec):
    """Reference evaluation: literally expand every power and add up."""
    total = SparsePoly.zero(dec.order)
    for term in dec.terms:
        total = total + expand_power(term.form, term.exponent) * term.coeff
    return total


class TestPerm:
    def test_sign_matches_parity_of_transposition_count(self):
        assert Perm((1, 2, 3)).sign == 1
        assert Perm((2, 1, 3)).sign == -1
        assert Perm((2, 3, 1)).sign == 1
        assert Perm((3, 2, 1)).sign == -1

    def test_sign_is_multiplicative(self):
        perms = list(Perm.all_perms(4))
        for a in perms:
            for b in perms[:6]:
                assert a.then(b).sign == a.sign * b.sign

    def test_then_applies_left_first(self):
        a = Perm((2, 1, 3))
        b = Perm((1, 3, 2))
        c = a.then(b)
        for i in (1, 2, 3):
            assert c(i) == b(a(i))

    def test_inverse(self):
        p = Perm((3, 1, 4, 2))
        assert p.then(p.inverse()) == Perm.identity(4)
        assert p.inverse().then(p) == Perm.identity(4)

    def test_all_perms_is_lexicographic_and_complete(self):
        perms = [p.images for p in Perm.all_perms(3)]
        assert perms == sorted(perms)
        assert len(perms) == 6

    def test_transposition(self):
        t = Perm.transposition(4, 2, 4)
        assert t.images == (1, 4, 3, 2)
        assert t.sign == -1

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Perm((1, 1, 3))


class TestSignVectors:
    def test_first_entry_fixed_and_count(self):
        vecs = list(sign_vectors(4))
        assert len(vecs) == 8
        assert all(v[0] == 1 for v in vecs)
        assert len(set(vecs)) == 8
        assert vecs[0] == (1, 1, 1, 1)


class TestSchemes:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_main_expands_to_scaled_determinant(self, d):
        dec = main_decomposition(d)
        assert dec.scale == d * math.factorial(d)
        assert len(dec.terms) == d * math.factorial(d)
        target = determinant_poly(d, order=d) * dec.scale
        assert expand_decomposition(dec) == target

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_classical_expands_to_scaled_determinant(self, d):
        dec = classical_decomposition(d)
        assert dec.scale == 2 ** (d - 1) * math.factorial(d)
        target = determinant_poly(d) * dec.scale
        assert expand_decomposition(dec) == target

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gurvits_expands_to_scaled_determinant(self, d):
        dec = gurvits_decomposition(d)
        assert dec.scale == math.factorial(d)
        assert len(dec.terms) == (d + 1) * math.factorial(d)
        target = determinant_poly(d) * dec.scale
        assert expand_decomposition(dec) == target

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_monomial_expands_to_scaled_diagonal(self, d):
        dec = monomial_power_decomposition(d)
        assert len(dec.terms) == 2 ** (d - 1)
        target = dec.target_poly() * dec.scale
        assert expand_decomposition(dec) == target

    def test_main_coefficients_are_signs(self):
        dec = main_decomposition(3)
        for term in dec.terms:
            assert term.coeff in (Cyc.from_int(3, 1), Cyc.from_int(3, -1))

    def test_main_term_order_is_sigma_then_phase(self):
        dec = main_decomposition(2)
        assert [t.index for t in dec.terms] == [
            ((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2)]

    def test_main_uses_root_of_unity_coefficients(self):
        dec = main_decomposition(3)
        sigma_id = next(t for t in dec.terms if t.index == ((1, 2, 3), 1))
        w = Cyc(3, (0, 1))
        entry = dict(sigma_id.form.support())
        assert entry[1, 1] == w
        assert entry[2, 2] == w * w
        assert entry[3, 3] == Cyc.one(3)

    def test_gurvits_omitted_forms_have_one_less_entry(self):
        dec = gurvits_decomposition(3)
        for term in dec.terms:
            _, omit = term.index
            assert len(term.form.support()) == (3 if omit is None else 2)

    def test_term_count_validation(self):
        dec = main_decomposition(2)
        with pytest.raises(ValueError):
            PowerDecomposition(2, "main", dec.scale, dec.target, 2,
                               dec.terms[:-1])

    def test_gurvits_d1_allows_its_single_empty_form(self):
        dec = gurvits_decomposition(1)
        assert expand_decomposition(dec) == determinant_poly(1)

    def test_zero_form_rejected_elsewhere(self):
        empty = LinForm(1, 2, {})
        term = PowerTerm(((1, 2), (1, 1)), Cyc.one(1), empty, 2)
        with pytest.raises(ValueError, match="zero form"):
            PowerDecomposition(2, "classical", 4, "determinant", 1,
                               (term,) * 4)

    @pytest.mark.parametrize("build, d, bound", [
        (main_decomposition, 6, 6 ** 3),
        (classical_decomposition, 5, 2 * 5 ** 2),
        (gurvits_decomposition, 4, 4 ** 2),
        (monomial_power_decomposition, 5, 2 * 5),
    ])
    def test_forms_share_their_pairs(self, build, d, bound):
        # the list keeps every pair alive, so no id is reused
        pairs = [pair for term in build(d).terms
                 for pair in term.form.support()]
        assert len({id(pair) for pair in pairs}) <= bound

    def test_expected_term_count_values(self):
        assert expected_term_count("main", 5) == 600
        assert expected_term_count("classical", 5) == 1920
        assert expected_term_count("gurvits", 5) == 720
        assert expected_term_count("monomial", 5) == 16
        assert expected_term_count("conjugated", 5) is None


class TestKrishnaMakam:
    def test_five_products_sum_to_determinant(self):
        dec = krishna_makam_det3()
        total = SparsePoly.zero(1)
        for piece in dec.expanded_terms():
            total = total + piece
        assert total == determinant_poly(3)

    def test_shape(self):
        dec = krishna_makam_det3()
        assert dec.d == 3
        assert len(dec.terms) == 5
        assert [s for s, _ in dec.terms] == [1, 1, -1, -1, 1]
        for _, forms in dec.terms:
            assert len(forms) == 3


class TestBoundsTable:
    # frozen oracle: these row values were computed once by hand from the
    # defining formulas and are pinned here against regressions
    EXPECTED = {
        2: (4, 4, 6, None, 4, 4),
        3: (24, 20, 24, 18, 18, 17),
        4: (192, 160, 120, None, 96, 50),
        5: (1920, 1600, 720, None, 600, 182),
        6: (23040, 16000, 5040, None, 4320, 672),
        7: (322560, 224000, 40320, None, 35280, 2508),
        8: (5160960, 3584000, 362880, None, 322560, 9438),
        9: (92897280, 53760000, 3628800, None, 3265920, 35750),
    }

    def test_rows_match_frozen_values(self):
        rows = {r.d: r for r in bounds_table(9)}
        assert sorted(rows) == list(range(2, 10))
        for d, (classical, derksen, gurvits, cglv, new, lower) in self.EXPECTED.items():
            row = rows[d]
            assert row == BoundsRow(d, classical, derksen, gurvits, cglv,
                                    new, lower)

    def test_new_bound_beats_derksen_from_d4(self):
        for row in bounds_table(20):
            if row.d >= 4:
                assert row.new < row.derksen

    def test_derksen_integrality_holds_through_d20(self):
        rows = bounds_table(20)
        assert rows[-1].d == 20
        assert rows[-1].derksen * 6 ** (20 // 3) == 5 ** (20 // 3) * rows[-1].classical

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bounds_table(1)
        with pytest.raises(ValueError):
            bounds_table(21)
