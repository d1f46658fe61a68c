import random
from fractions import Fraction

import pytest

from tlfields.errors import InsufficientPrecision, WildRamification
from tlfields.scalars import ext_trace, make_extension
from tlfields.series import agree_within_window, random_series, truncate_level1
from tlfields.forms import SeparatedForm, dlog, dlog_element
from tlfields.residue import (
    ExtensionSpec,
    counterexample_char0,
    dlog_standard,
    kummer_norm,
    kummer_trace_element,
    norm_map,
    res_tlf,
    residue_pairing,
    tate_residue_dim1,
    trace_forms,
)
from tlfields.tlf import TlfDescriptor, UniformizerSystem, parametrize, validate_uniformizers


@pytest.fixture
def Q():
    return make_extension(0, [0, 1])


@pytest.fixture
def F5():
    return make_extension(5, [0, 1])


class TestResTlf:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dlog_residue_one(self, Q, n):
        K = TlfDescriptor(n, Q)
        assert res_tlf(dlog_standard(K)) == Fraction(1)

    def test_shifted_monomials_vanish(self, Q):
        K = TlfDescriptor(2, Q)
        base = dlog_standard(K)
        for exps in [(1, 0), (0, 1), (-1, 2), (2, -3)]:
            form = base.scale(K.monomial(exps))
            assert res_tlf(form) == Fraction(0)

    def test_laurent_poly(self, Q):
        # (t + 2 + t^-1) dt has residue 1
        K = TlfDescriptor(1, Q)
        g = K.from_terms({(1,): Q.one, (0,): Q.from_int(2), (-1,): Q.one})
        form = SeparatedForm(K, 1, {(1,): g})
        assert res_tlf(form) == Fraction(1)

    def test_extension_trace(self, Q):
        qi = make_extension(0, [1, 0, 1])
        K = TlfDescriptor(1, qi)
        i_elt = qi.gen
        form = SeparatedForm(K, 1, {(1,): K.monomial((-1,), i_elt)})
        assert res_tlf(form) == ext_trace(i_elt) == Fraction(0)
        form2 = SeparatedForm(K, 1, {(1,): K.monomial((-1,), qi.one + i_elt)})
        assert res_tlf(form2) == Fraction(2)

    def test_insufficient_precision_refused(self, Q):
        K = TlfDescriptor(1, Q)
        t = K.gen(1)
        g = (K.one() - t).inv(6) * K.monomial((-6,))
        form = SeparatedForm(K, 1, {(1,): g})
        assert res_tlf(form) == Fraction(1)  # window [-6, 0) covers -1
        g_bad = (K.one() - t).inv(4) * K.monomial((-6,))
        with pytest.raises(InsufficientPrecision):
            res_tlf(SeparatedForm(K, 1, {(1,): g_bad}))  # window ends at -2
        g_zero = (K.one() - t).inv(4) * K.monomial((3,))
        # window sits above -1, so the coefficient there is exactly zero
        assert res_tlf(SeparatedForm(K, 1, {(1,): g_zero})) == Fraction(0)

    def test_pairing_duality(self, Q):
        K = TlfDescriptor(2, Q)
        base = dlog_standard(K)
        for exps in [(0, 0), (1, -2), (-2, 1)]:
            a = K.monomial(exps)
            dual = K.monomial(tuple(-e for e in exps))
            assert residue_pairing(a * dual, base) == Fraction(1)
            other = K.monomial((exps[0] + 1, exps[1]))
            assert residue_pairing(a * other, base) == Fraction(0)

    def test_pairing_nondegenerate_over_window(self, Q):
        # each monomial pairs to 1 against t^{-i-1} dt1^dt2 and to 0 against
        # every other in-window monomial form
        K = TlfDescriptor(2, Q)
        window = [-2, -1, 0, 1, 2]
        for e1 in window:
            for e2 in window:
                a = K.monomial((e1, e2))
                for f1 in window:
                    for f2 in window:
                        form = SeparatedForm(K, 2, {(1, 2): K.monomial((f1, f2))})
                        expected = (
                            Fraction(1)
                            if (e1 + f1, e2 + f2) == (-1, -1)
                            else Fraction(0)
                        )
                        assert residue_pairing(a, form) == expected

    def test_coboundary_vanishing(self, Q):
        K = TlfDescriptor(2, Q)
        rng = random.Random(13)
        for _ in range(100):
            coeffs = {}
            for I in [(1,), (2,)]:
                coeffs[I] = random_series(Q, 2, rng, max_terms=3, exp_span=3)
            omega = SeparatedForm(K, 1, coeffs)
            assert res_tlf(omega.exterior_d()) == Fraction(0)


class TestParametrizationInvariance:
    @pytest.mark.parametrize("char", [0, 5])
    def test_pullback_invariance_n1(self, char):
        field = make_extension(char, [0, 1])
        K = TlfDescriptor(1, field, window=10)
        rng = random.Random(char + 41)
        t = K.gen(1)
        for _ in range(20):
            a = t
            for k in range(2, 5):
                a = a + t ** k * K.constant(field.random_element(rng, 3))
            system = validate_uniformizers(K, [a])
            for _ in range(10):
                g = random_series(field, 1, rng, max_terms=3, exp_span=3)
                omega = SeparatedForm(K, 1, {(1,): g})
                pulled = omega.pullback_substitution(system.elements, window=12)
                assert res_tlf(pulled) == res_tlf(omega)

    @pytest.mark.parametrize("char", [0, 5])
    def test_pullback_invariance_n2(self, char):
        field = make_extension(char, [0, 1])
        K = TlfDescriptor(2, field, window=8)
        rng = random.Random(char + 77)
        t1, t2 = K.gens()
        one = K.one()
        systems = [
            [t1 * (one + t2), t2],
            [t1, t2 * (one + t1 * t2)],
            [t1 * (one + t2) + t1 ** 2, t2 + t1 * t2 ** 2],
        ]
        for sys_elems in systems:
            system = validate_uniformizers(K, sys_elems)
            for _ in range(8):
                g = random_series(field, 2, rng, max_terms=3, exp_span=2)
                omega = SeparatedForm(K, 2, {(1, 2): g})
                pulled = omega.pullback_substitution(system.elements, window=10)
                assert res_tlf(pulled) == res_tlf(omega)


class TestKummer:
    def test_wild_rejected(self, F5):
        K = TlfDescriptor(1, F5)
        with pytest.raises(WildRamification):
            ExtensionSpec.kummer(K, 5)

    def test_trace_of_ds_vanishes(self, Q):
        # Tr(ds) = 0: mult by s^{1-e}/e has no degree-0 component
        K = TlfDescriptor(1, Q)
        spec = ExtensionSpec.kummer(K, 2)
        L = spec.upstairs_descriptor()
        omega = SeparatedForm.basis_element(L, (1,))
        traced = trace_forms(omega, spec)
        assert traced.coefficient((1,)).is_exact_zero()

    def test_dlog_s_traces_to_dlog_t(self, Q):
        K = TlfDescriptor(1, Q)
        for e in (2, 3):
            spec = ExtensionSpec.kummer(K, e)
            L = spec.upstairs_descriptor()
            s = L.gen(1)
            omega = dlog_element(L, s)
            traced = trace_forms(omega, spec)
            expected = dlog_element(K, K.gen(1))
            assert traced.agree_within_window(expected)

    def test_norm_of_s(self, Q):
        K = TlfDescriptor(1, Q)
        s = K.gen(1)  # s in the upstairs variable
        for e in (2, 3):
            n = kummer_norm(s, e)
            expected = K.monomial((1,), Q.from_int((-1) ** (e + 1)))
            assert n == expected

    def test_trace_element(self, Q):
        K = TlfDescriptor(1, Q)
        u = K.from_terms({(0,): Q.one, (1,): Q.from_int(3), (2,): Q.from_int(5)})
        tr = kummer_trace_element(u, 2)
        # s^0 and s^2 survive: 2*(1 + 5 t)
        assert tr == K.from_terms({(0,): Q.from_int(2), (1,): Q.from_int(10)})

    @pytest.mark.parametrize("char,e", [(0, 2), (0, 3), (5, 2), (5, 3), (7, 2)])
    def test_functoriality_random(self, char, e):
        field = make_extension(char, [0, 1])
        K = TlfDescriptor(1, field, window=10)
        spec = ExtensionSpec.kummer(K, e)
        L = spec.upstairs_descriptor()
        rng = random.Random(1000 * char + e)
        for _ in range(100):
            g = random_series(field, 1, rng, max_terms=4, exp_span=4)
            omega = SeparatedForm(L, 1, {(1,): g})
            assert res_tlf(omega) == res_tlf(trace_forms(omega, spec))

    @pytest.mark.parametrize("char,e", [(0, 2), (0, 3), (5, 2), (5, 3)])
    def test_dlog_norm_identity(self, char, e):
        field = make_extension(char, [0, 1])
        K = TlfDescriptor(1, field, window=9)
        spec = ExtensionSpec.kummer(K, e)
        L = spec.upstairs_descriptor()
        rng = random.Random(17 * (char + 2) + e)
        for _ in range(50):
            u = L.one()
            for k in range(1, 4):
                u = u + L.monomial((k,), field.random_element(rng, 3))
            m = rng.randint(-2, 2)
            u = u * L.monomial((m,))
            lhs = trace_forms(dlog_element(L, u, window=9), spec)
            rhs = dlog_element(K, norm_map(u, spec), window=9)
            assert lhs.agree_within_window(rhs)


class TestExtensionEmbedding:
    def test_kummer_embed_and_trace(self, Q):
        # tr(embed(x)) = e * x for the Kummer extension
        K = TlfDescriptor(1, Q)
        spec = ExtensionSpec.kummer(K, 3)
        x = K.from_terms({(-1,): Q.one, (2,): Q.from_int(5)})
        emb = spec.embed(x)
        assert emb.coefficient_at((-3,)) == Q.one
        assert emb.coefficient_at((6,)) == Q.from_int(5)
        assert emb.coefficient_at((1,)) == Q.zero
        assert kummer_trace_element(emb, 3) == x.scalar_mul(Q.from_int(3))

    def test_unramified_embed_and_trace(self, Q):
        qi = make_extension(0, [1, 0, 1])
        K = TlfDescriptor(1, Q)
        spec = ExtensionSpec.unramified(K, qi)
        x = K.from_terms({(0,): Q.one, (3,): Q.from_int(-2)})
        emb = spec.embed(x)
        from tlfields.residue import unramified_trace_element

        assert unramified_trace_element(emb, spec) == x.scalar_mul(Q.from_int(2))

    def test_degree0_trace_clause(self, Q):
        # in degree 0 the trace map on forms is the usual element trace
        K = TlfDescriptor(1, Q)
        spec = ExtensionSpec.kummer(K, 2)
        L = spec.upstairs_descriptor()
        u = L.from_terms({(0,): Q.from_int(3), (1,): Q.one, (2,): Q.from_int(7)})
        omega = SeparatedForm.of_element(L, u)
        traced = trace_forms(omega, spec)
        assert traced.coefficient(()) == kummer_trace_element(u, 2)

    @pytest.mark.parametrize("e", [2, 3])
    def test_kummer_functoriality_n2(self, Q, e):
        # degree-2 forms over k((s, t2)) trace compatibly with the residue
        K = TlfDescriptor(2, Q, window=8)
        spec = ExtensionSpec.kummer(K, e)
        L = spec.upstairs_descriptor()
        rng = random.Random(40 + e)
        for _ in range(40):
            g = random_series(Q, 2, rng, max_terms=3, exp_span=3)
            omega = SeparatedForm(L, 2, {(1, 2): g})
            assert res_tlf(omega) == res_tlf(trace_forms(omega, spec))

    def test_unramified_functoriality_n2(self):
        F2 = make_extension(2, [0, 1])
        F4 = make_extension(2, [1, 1, 1])
        K = TlfDescriptor(2, F2, window=8)
        spec = ExtensionSpec.unramified(K, F4)
        L = spec.upstairs_descriptor()
        rng = random.Random(53)
        for _ in range(40):
            g = random_series(F4, 2, rng, max_terms=3, exp_span=3)
            omega = SeparatedForm(L, 2, {(1, 2): g})
            assert res_tlf(omega) == res_tlf(trace_forms(omega, spec))


class TestUnramified:
    def test_trace_of_generator_times_dt(self, Q):
        # F4 over F2: Tr(x dt) = dt since tr(x) = 1
        F2 = make_extension(2, [0, 1])
        K = TlfDescriptor(1, F2)
        F4 = make_extension(2, [1, 1, 1])
        spec = ExtensionSpec.unramified(K, F4)
        L = spec.upstairs_descriptor()
        omega = SeparatedForm(L, 1, {(1,): L.constant(F4.gen)})
        traced = trace_forms(omega, spec)
        assert traced.coefficient((1,)) == K.one()

    @pytest.mark.parametrize(
        "char,poly",
        [(2, [1, 1, 1]), (2, [1, 1, 0, 1]), (0, [1, 0, 1]), (0, [-2, 0, 0, 1]), (5, [2, 0, 1])],
    )
    def test_functoriality_random(self, char, poly):
        base = make_extension(char, [0, 1])
        K = TlfDescriptor(1, base, window=8)
        ext = make_extension(char, poly)
        spec = ExtensionSpec.unramified(K, ext)
        L = spec.upstairs_descriptor()
        rng = random.Random(char * 31 + len(poly))
        for _ in range(100):
            g = random_series(ext, 1, rng, max_terms=4, exp_span=3)
            omega = SeparatedForm(L, 1, {(1,): g})
            assert res_tlf(omega) == res_tlf(trace_forms(omega, spec))

    def test_dlog_norm_identity(self, Q):
        qi = make_extension(0, [1, 0, 1])
        K = TlfDescriptor(1, Q, window=8)
        spec = ExtensionSpec.unramified(K, qi)
        L = spec.upstairs_descriptor()
        rng = random.Random(99)
        for _ in range(50):
            u = L.one()
            for k in range(1, 3):
                u = u + L.monomial((k,), qi.random_element(rng, 2))
            lhs = trace_forms(dlog_element(L, u, window=8), spec)
            rhs = dlog_element(K, norm_map(u, spec), window=8)
            assert lhs.agree_within_window(rhs)

    def test_norm_multiplicative_spotcheck(self, Q):
        qi = make_extension(0, [1, 0, 1])
        K = TlfDescriptor(1, Q)
        spec = ExtensionSpec.unramified(K, qi)
        L = spec.upstairs_descriptor()
        u = L.constant(qi.one + qi.gen)
        n = norm_map(u, spec)
        assert n == K.constant(Q.from_int(2))  # n(1+i) = 2


class TestTateResidue:
    def test_basic_pair(self, Q):
        K = TlfDescriptor(1, Q)
        t = K.gen(1)
        assert tate_residue_dim1(t.inv(), t) == Fraction(1)

    def test_exact_form_vanishes(self, Q):
        K = TlfDescriptor(1, Q)
        rng = random.Random(3)
        one = K.one()
        for _ in range(20):
            g = random_series(Q, 1, rng)
            assert tate_residue_dim1(one, g) == Fraction(0)

    def test_t_minus2_t2(self, Q):
        K = TlfDescriptor(1, Q)
        t = K.gen(1)
        assert tate_residue_dim1(K.monomial((-2,)), t * t) == Fraction(2)

    @pytest.mark.parametrize("char", [0, 5])
    def test_agreement_with_laurent(self, char):
        field = make_extension(char, [0, 1])
        K = TlfDescriptor(1, field)
        rng = random.Random(char + 7)
        for _ in range(200):
            f = random_series(field, 1, rng, max_terms=4, exp_span=6)
            g = random_series(field, 1, rng, max_terms=4, exp_span=6)
            # res(f dg) = trace of coefficient -1 of f g'
            direct = ext_trace((f * g.derivative(1)).coefficient_at((-1,)))
            assert tate_residue_dim1(f, g) == direct

    def test_lattice_shift_independence(self, Q):
        K = TlfDescriptor(1, Q)
        rng = random.Random(23)
        for _ in range(30):
            f = random_series(Q, 1, rng, max_terms=3, exp_span=4)
            g = random_series(Q, 1, rng, max_terms=3, exp_span=4)
            base = tate_residue_dim1(f, g)
            for shift in (-3, -1, 1, 2, 5):
                assert tate_residue_dim1(f, g, shift=shift) == base

    @pytest.mark.parametrize("char", [0, 5])
    def test_windowed_operands(self, char):
        """Operands cut to a level-1 window give the residue of the exact
        operands, or refuse with InsufficientPrecision."""
        field = make_extension(char, [0, 1])
        rng = random.Random(41 + char)
        answered = refused = 0
        for _ in range(300):
            f = random_series(field, 1, rng, max_terms=4, exp_span=4)
            g = random_series(field, 1, rng, max_terms=4, exp_span=4)
            shift = rng.randint(-4, 4)
            f_win = truncate_level1(f, f.order + rng.randint(0, 8))
            g_win = g if rng.random() < 0.3 else truncate_level1(g, g.order + rng.randint(0, 8))
            try:
                value = tate_residue_dim1(f_win, g_win, shift=shift)
            except InsufficientPrecision:
                refused += 1
                continue
            assert value == tate_residue_dim1(f, g, shift=shift)
            answered += 1
        assert answered >= 100 and refused >= 100
        # with g exact, the trace reads f below t^0, and up to t^-v(g) when
        # v(g) < 0; f g is never formed, so an f known that far is answered
        for _ in range(300):
            f = random_series(field, 1, rng, max_terms=4, exp_span=4)
            g = random_series(field, 1, rng, max_terms=4, exp_span=4)
            if f.is_exact_zero() or g.is_exact_zero():
                continue
            shift = rng.randint(-4, 4)
            f_win = truncate_level1(f, f.order + rng.randint(0, 8))
            need = 0 if g.order >= 0 else 1 - g.order
            try:
                value = tate_residue_dim1(f_win, g, shift=shift)
            except InsufficientPrecision:
                assert f_win.end < need
                continue
            assert value == tate_residue_dim1(f, g, shift=shift)


class TestCounterexample:
    def test_default_binding(self):
        res_st, res_nt = counterexample_char0()
        assert res_st == Fraction(0)
        assert res_nt == Fraction(1)

    def test_constant_binding(self, Q):
        K = TlfDescriptor(2, Q)
        res_st, res_nt = counterexample_char0(K, binding=K.constant(Q.from_int(7)))
        assert (res_st, res_nt) == (Fraction(0), Fraction(1))

    def test_gamma_fixed_by_pullback(self, Q):
        # dlog(t1,t2) is fixed: res_st(gamma) = res_nt(gamma) = 1
        K = TlfDescriptor(2, Q)
        gamma = dlog(UniformizerSystem.standard(K))
        assert res_tlf(gamma) == Fraction(1)
        iso = parametrize(K, UniformizerSystem.standard(K))
        assert res_tlf(gamma.pullback_substitution(iso.system.elements)) == Fraction(1)
