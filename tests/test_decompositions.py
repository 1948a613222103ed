import dataclasses
import gc
import itertools
import math
import pickle

import pytest

import detpowers
from detpowers import decompositions
from detpowers.cyclotomic import Cyc, omega
from detpowers.decompositions import (
    SCHEME_BUILDERS,
    SCHEMES,
    BoundsRow,
    PowerDecomposition,
    PowerTerm,
    bounds_table,
    classical_decomposition,
    expected_term_count,
    gurvits_decomposition,
    krishna_makam_det3,
    main_decomposition,
    monomial_power_decomposition,
    phase_codes,
    _permutations,
)
from detpowers.symmetry import _solve_row_exponents, mono_membership
from detpowers.multipoly import (
    LinForm,
    SparsePoly,
    determinant_poly,
    expand_power,
    perm_sign,
)


def expand_decomposition(dec):
    """Reference evaluation: literally expand every power and add up."""
    total = SparsePoly.zero(dec.order)
    for term in dec.terms:
        total = total + expand_power(term.form, term.exponent) * term.coeff
    return total


def then(a, b):
    """Oracle: the permutation applying ``a`` first, then ``b``, both and
    the result as one-line image tuples."""
    return tuple(b[v - 1] for v in a)


def transposition(d, a, b):
    """Oracle: the permutation of 1..d swapping a and b."""
    images = list(range(1, d + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


class TestPermutations:
    def test_sign_matches_parity_of_transposition_count(self):
        perms, signs = _permutations(3)
        sign = dict(zip(perms, signs))
        assert [sign[p] for p in [(1, 2, 3), (2, 1, 3), (2, 3, 1),
                                  (3, 2, 1)]] == [1, -1, 1, -1]
        assert all(perm_sign(p) == s for p, s in zip(perms, signs))

    def test_sign_is_multiplicative(self):
        perms = _permutations(4)[0]
        for a in perms:
            for b in perms[:6]:
                assert perm_sign(then(a, b)) == perm_sign(a) * perm_sign(b)

    def test_then_applies_left_first(self):
        a, b = (2, 1, 3), (1, 3, 2)
        c = then(a, b)
        for i in (1, 2, 3):
            assert c[i - 1] == b[a[i - 1] - 1]

    def test_permutations_are_lexicographic_and_complete(self):
        perms = _permutations(3)[0]
        assert perms == sorted(perms)
        assert len(set(perms)) == 6
        assert all(sorted(p) == [1, 2, 3] for p in perms)

    def test_transposition(self):
        t = transposition(4, 2, 4)
        assert t == (1, 4, 3, 2)
        assert perm_sign(t) == -1


class TestSignVectors:
    def test_first_entry_fixed_and_count(self):
        # classical's labels at sigma = identity are its sign vectors
        vecs = [t.index[1] for t in classical_decomposition(4).terms[:8]]
        assert len(vecs) == 8
        assert all(v[0] == 1 for v in vecs)
        assert len(set(vecs)) == 8
        assert vecs[0] == (1, 1, 1, 1)


class TestBuiltTerms:
    """The builders make each PowerTerm through ``__new__`` and its slot
    setters, not the frozen dataclass's __init__; what they make must be
    the same object __init__ makes."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_the_constructor(self, scheme, d):
        for t in SCHEME_BUILDERS[scheme](d).terms:
            made = PowerTerm(t.index, t.coeff, t.form, t.exponent)
            assert t == made and hash(t) == hash(made)
            assert repr(t) == repr(made)

    def test_replace_and_frozen_fields_still_work(self):
        t = main_decomposition(3).terms[4]
        negated = dataclasses.replace(t, coeff=-t.coeff)
        assert type(negated) is PowerTerm and negated.coeff == -t.coeff
        assert (negated.index, negated.form, negated.exponent) \
            == (t.index, t.form, t.exponent)
        for field in dataclasses.fields(PowerTerm):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, field.name, None)

    def test_setters_are_the_fields_in_order(self):
        # a field added to PowerTerm without a setter here would be unset
        assert [setter.__self__ for setter in decompositions._TERM_SETTERS] \
            == [getattr(PowerTerm, field.name)
                for field in dataclasses.fields(PowerTerm)]


class TestPausedCollector:
    """``_nogc`` pauses the cyclic garbage collector while the builders and
    ``verify_power_decomposition`` run, and puts back the state it found."""

    def test_restores_the_prior_state(self):
        seen = []
        paused = decompositions._nogc(lambda: seen.append(gc.isenabled()))
        was = gc.isenabled()
        try:
            gc.enable()
            paused()
            assert gc.isenabled()
            gc.disable()
            paused()
            assert not gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]

    def test_restores_it_on_an_exception(self):
        def fail():
            assert not gc.isenabled()
            raise KeyError("raised inside")

        assert gc.isenabled()
        with pytest.raises(KeyError, match="raised inside"):
            decompositions._nogc(fail)()
        assert gc.isenabled()

    def test_returns_the_result_and_keeps_the_name(self):
        def add(a, b=0):
            return a + b

        paused = decompositions._nogc(add)
        assert paused(2, b=3) == 5 and paused.__name__ == "add"

    def test_builders_and_verification_run_paused(self, monkeypatch):
        from detpowers import verify
        seen = []
        check = verify._expand_check

        def spy(*args):
            seen.append(gc.isenabled())
            return check(*args)

        of_support = LinForm._of_support.__func__
        monkeypatch.setattr(LinForm, "_of_support", classmethod(
            lambda cls, *args: seen.append(gc.isenabled())
            or of_support(cls, *args)))
        assert gc.isenabled()
        dec = main_decomposition(2)
        assert gc.isenabled() and seen == [False] * 4
        monkeypatch.undo()
        monkeypatch.setattr(verify, "_expand_check", spy)
        assert verify.verify_power_decomposition(dec).equal
        assert gc.isenabled() and seen == [False] * 5


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

    @pytest.mark.parametrize("scheme, target, order", [
        ("main", "determinant", 1), ("classical", "determinant", 1),
        ("gurvits", "determinant", 1), ("monomial", "diagonal-product", 1),
        ("conjugated", "determinant", 2)])
    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_is_refused_before_the_term_count(self, scheme,
                                                          target, order, d):
        # classical and monomial at d = 0 were refused as needing 0.5
        # terms, and main at d = 0 was accepted with none
        with pytest.raises(ValueError, match=f"^d must be positive, got {d}$"):
            PowerDecomposition(d, scheme, 1, target, order, ())

    def test_gurvits_d1_allows_its_single_empty_form(self):
        dec = gurvits_decomposition(1)
        assert expand_decomposition(dec) == determinant_poly(1)

    def test_terms_share_the_decompositions_order_and_grid(self):
        dec = main_decomposition(2)
        term = dec.terms[0]
        (var, c), *rest = term.form.support()
        order4 = LinForm(4, 2, [(var, Cyc.from_int(4, -1)),
                                *((v, Cyc.from_int(4, 1)) for v, _ in rest)])
        for bad, message in (
                (dataclasses.replace(term, coeff=Cyc.from_int(1, -1)),
                 "mixes root orders 1 and 2 into order 2"),
                (dataclasses.replace(term, form=order4),
                 "mixes root orders 2 and 4 into order 2"),
                (dataclasses.replace(term, form=LinForm(2, 3, [(var, c),
                                                               *rest])),
                 "has a form in 3x3 variables")):
            with pytest.raises(ValueError, match=r"term \(\(1, 2\), 1\) "
                                                 + message):
                PowerDecomposition(2, "main", dec.scale, dec.target, 2,
                                   (bad,) + dec.terms[1:])

    def test_zero_form_rejected_elsewhere(self):
        empty = LinForm(1, 2, {})
        term = PowerTerm(((1, 2), (1, 1)), Cyc.one(1), empty, 2)
        with pytest.raises(ValueError, match="zero form"):
            PowerDecomposition(2, "classical", 4, "determinant", 1,
                               (term,) * 4)

    def test_terms_have_slots_and_round_trip(self):
        # no per-term __dict__; pickling and dataclasses.replace keep a
        # frozen term equal, with the same hash, and assignment still raises
        term = main_decomposition(3).terms[5]
        assert not hasattr(term, "__dict__")
        assert pickle.loads(pickle.dumps(term)) == term
        copy = dataclasses.replace(term)
        assert copy == term and hash(copy) == hash(term)
        flipped = dataclasses.replace(term, coeff=-term.coeff)
        assert flipped.coeff == -term.coeff and flipped.form is term.form
        with pytest.raises(dataclasses.FrozenInstanceError):
            term.exponent = 4

    @pytest.mark.parametrize("scheme", ["main", "conjugated"])
    def test_zero_form_in_main_d2_still_raises(self, scheme):
        dec = main_decomposition(2)
        terms = list(dec.terms)
        terms[1] = PowerTerm(terms[1].index, terms[1].coeff,
                             LinForm(2, 2, {}), 2)
        with pytest.raises(ValueError, match="zero form"):
            PowerDecomposition(2, scheme, dec.scale, dec.target, 2,
                               tuple(terms))

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


def inversion_sign(images):
    return (-1) ** sum(a > b for a, b in itertools.combinations(images, 2))


def paper_terms(scheme, d):
    """Each scheme's (index, coefficient, support) list written straight
    from the paper's formulas, in the builders' order: permutations in
    lexicographic order, then the phase j, the sign vector or the omitted
    row; sign vectors with first entry +1, +1 before -1."""
    rows = range(1, d + 1)
    perms = list(itertools.permutations(rows))
    signs = [(1,) + rest for rest in itertools.product((1, -1), repeat=d - 1)]

    def unit(value):
        return Cyc.from_int(1, value)

    if scheme == "main":
        return [((p, j), Cyc.from_int(d, inversion_sign(p)
                                      * (-1) ** ((d + 1) * j)),
                 [((i, p[i - 1]), omega(d, i * j)) for i in rows])
                for p in perms for j in rows]
    if scheme == "classical":
        return [((p, eps), unit(inversion_sign(p) * math.prod(eps)),
                 [((i, p[i - 1]), unit(eps[i - 1])) for i in rows])
                for p in perms for eps in signs]
    if scheme == "gurvits":
        return [((p, omit), unit(inversion_sign(p) * (1 if omit is None
                                                      else -1)),
                 [((i, p[i - 1]), unit(1)) for i in rows if i != omit])
                for p in perms for omit in (None, *rows)]
    return [((eps,), unit(math.prod(eps)),
             [((i, i), unit(e)) for i, e in zip(rows, eps)])
            for eps in signs]


class TestBuildersMatchThePaper:
    """An oracle apart from the schemes' rows, which the builders and
    streaming share: every term written out from the formulas."""

    @pytest.mark.parametrize("d, scheme", [
        *((d, scheme) for d in range(1, 6) for scheme in SCHEMES),
        (6, "main"), (6, "monomial"),
    ])
    def test_terms_match_the_formulas(self, d, scheme):
        dec = SCHEME_BUILDERS[scheme](d)
        assert [(t.index, t.coeff, list(t.form.support()))
                for t in dec.terms] == paper_terms(scheme, d)
        assert dec.order == (d if scheme == "main" else 1)
        assert all(t.exponent == d for t in dec.terms)

    @pytest.mark.parametrize("scheme, d", [
        *((scheme, d) for scheme in SCHEMES for d in range(1, 6)),
        ("main", 6),
    ])
    def test_unchecked_forms_pass_the_checking_constructor(self, scheme, d):
        # the builders store each form's support without LinForm's checks
        dec = SCHEME_BUILDERS[scheme](d)
        for term in dec.terms:
            support = term.form.support()
            assert term.form == LinForm(dec.order, d, support)
        if support:
            with pytest.raises(ValueError):
                LinForm(dec.order, d, support + support[:1])

    def test_registry_names_the_package_builders(self):
        # the benchmark harness resolves each builder by its __name__
        for fn in SCHEME_BUILDERS.values():
            assert getattr(detpowers, fn.__name__) is fn


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


def unit_code(c):
    """Oracle of a scalar's phase code, from ``Cyc.root_power`` alone: k
    for w^k, order + k for -w^k that is no power of w, else None."""
    k = c.root_power()
    if k is not None:
        return k
    k = (-c).root_power()
    return None if k is None else c.order + k


def term_codes(term, d):
    """Oracle of one term's entry in the phase-code view, read from its
    support scalar by scalar."""
    cols, codes = [0] * d, []
    for (i, j), c in term.form.support():
        if unit_code(c) is None or cols[i - 1]:
            return None
        cols[i - 1] = j
        codes.append(unit_code(c))
    return tuple(cols), tuple(codes)


def membership_read(d, order, view):
    """What ``mono_membership`` reads from a support, read from its view:
    (sigma images, k, j) when the columns are a permutation and every entry
    is a power of w whose codes fit k + i*j, else None."""
    if view is None:
        return None
    cols, codes = view
    if sorted(cols) != list(range(1, d + 1)) or max(codes) >= order:
        return None
    solved = _solve_row_exponents(d, codes)
    return None if solved is None else (cols, *solved)


def phase_code_lookups(monkeypatch):
    """A list that counts the scalar lookups of ``phase_codes``."""
    calls = []
    real = decompositions._unit_code

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(decompositions, "_unit_code", counted)
    return calls


def pair_objects(dec):
    """The distinct (entry, scalar) pair objects of a decomposition's
    forms."""
    return {id(pair) for t in dec.terms for pair in t.form.support()}


class TestPhaseCodes:
    """The phase-code view against ``Cyc.root_power`` and
    ``mono_membership``, term by term."""

    @pytest.mark.parametrize("scheme, d", [
        (scheme, d) for scheme in SCHEMES for d in range(1, 7)])
    def test_builders_match_the_oracles(self, scheme, d, monkeypatch):
        dec = SCHEME_BUILDERS[scheme](d)
        lookups = phase_code_lookups(monkeypatch)
        view = phase_codes(dec)
        assert view == [term_codes(t, d) for t in dec.terms]
        assert [membership_read(d, dec.order, v) for v in view] == [
            mono_membership(d, t.form.support()) for t in dec.terms]
        # one lookup per distinct pair object, not one per entry of a term
        assert len(lookups) == len(pair_objects(dec))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("scheme", ["main", "classical", "gurvits"])
    def test_benchmark_conjugated_inputs(self, seed, scheme):
        from test_verify import benchmark_conjugated  # it imports this module
        dec = benchmark_conjugated(seed, scheme)
        view = phase_codes(dec)
        assert view == [term_codes(t, 4) for t in dec.terms]
        # None exactly where an entry is not +-w^k or a row holds two
        assert view.count(None) > 0
        for term, read in zip(dec.terms, view):
            support = term.form.support()
            units = all(unit_code(c) is not None for _, c in support)
            rows = len({i for (i, _), _ in support}) == len(support)
            assert (read is None) is not (units and rows)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_tampered_inputs(self, seed):
        # a negated coefficient leaves every form, and so the view, as it was
        from test_verify import benchmark_tampered, flip_one_sign
        for scheme, d, index in benchmark_tampered(seed):
            dec = flip_one_sign(SCHEME_BUILDERS[scheme](d), index)
            view = phase_codes(dec)
            assert view == [term_codes(t, d) for t in dec.terms]
            assert view == phase_codes(SCHEME_BUILDERS[scheme](d))
            assert None not in view

    @pytest.mark.parametrize("d, minus", [(4, 2), (6, 3)])
    def test_even_order_folds_minus_one(self, d, minus):
        # -1 is w^(d/2), so -w^k reads as the power it is
        view = phase_codes(main_decomposition(d))
        assert view[0] == (tuple(range(1, d + 1)),
                           tuple(i % d for i in range(1, d + 1)))
        assert [decompositions._unit_code(-omega(d, k)) for k in range(d)] \
            == [(k + minus) % d for k in range(d)]
        assert all(unit_code(-omega(d, k)) == (-omega(d, k)).root_power()
                   for k in range(d))

    @pytest.mark.parametrize("d", [3, 5])
    def test_odd_order_keeps_the_sign_past_the_order(self, d):
        assert [decompositions._unit_code(-omega(d, k)) for k in range(d)] \
            == [d + k for k in range(d)]
        assert decompositions._unit_code(Cyc.from_int(d, 2)) is None
        assert decompositions._unit_code(Cyc.from_int(1, -1)) == 1
