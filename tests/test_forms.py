import random

import pytest

from tlfields.errors import LocalFieldError, UnmappedSymbol
from tlfields.scalars import make_extension
from tlfields.series import Series, agree_within_window, random_series
from tlfields.forms import (
    AbstractForm,
    Add,
    Const,
    Gen,
    Neg,
    SeparatedForm,
    Sym,
    d_element,
    dlog,
    dlog_element,
    eval_with_partials,
    evaluate,
    identity_mapping,
)
from tlfields.tlf import TlfDescriptor, UniformizerSystem, validate_uniformizers


@pytest.fixture
def Q():
    return make_extension(0, [0, 1])


@pytest.fixture
def K2(Q):
    return TlfDescriptor(2, Q)


class TestEval:
    def test_product(self, K2):
        e = Gen(K2, 1) * Gen(K2, 2)
        assert evaluate(e) == K2.monomial((1, 1))

    def test_geometric(self, K2):
        e = (Const(K2, 1) - Gen(K2, 1)).inv()
        v = evaluate(e, window=5)
        assert v.coefficient_at((3, 0)) == K2.field.one

    def test_symbol_binding(self, K2):
        val = K2.from_terms({(0, j): K2.field.one for j in range(1, 6)})
        b = Sym(K2, "b", val)
        assert evaluate(b) == val

    def test_inconsistent_partials_rejected(self, K2):
        val = K2.gen(2)
        with pytest.raises(LocalFieldError):
            Sym(K2, "b", val, partials=[K2.one(), K2.one()])  # db/dt1 should be 0


FOLD_FIELDS = [make_extension(0, [0, 1]), make_extension(5, [0, 1]), make_extension(5, [-2, 0, 1])]


def _random_dag(K, rng, size):
    """A Sym-free DAG of sums, negations, products, inverses and powers -3..6
    over generators and small constants; later nodes reuse earlier ones."""
    nodes = [Gen(K, i) for i in range(1, K.n + 1)]
    nodes.append(Const(K, K.field.random_nonzero(rng, 2)))
    for _ in range(size):
        op = rng.choice(["add", "add", "neg", "mul", "inv", "pow"])
        a = nodes[-1] if rng.random() < 0.6 else rng.choice(nodes)
        if op == "add":
            nodes.append(a + rng.choice(nodes))
        elif op == "neg":
            nodes.append(-a)
        elif op == "mul":
            nodes.append(a * rng.choice(nodes))
        elif op == "inv":
            nodes.append(a.inv())
        else:
            nodes.append(a ** rng.randint(-3, 6))
    return nodes[-1]


class TestFold:
    @pytest.mark.parametrize("field", FOLD_FIELDS, ids=repr)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(25))
    def test_partials_match_value(self, field, n, seed):
        """eval_with_partials gives evaluate's value, and each partial agrees
        with the termwise derivative of that value within its window;
        a refusal is the same for both."""
        K = TlfDescriptor(n, field)
        rng = random.Random(1000 * seed + 10 * n + FOLD_FIELDS.index(field))
        e = _random_dag(K, rng, rng.randint(3, 7))
        window = rng.randint(3, 6)
        try:
            value = evaluate(e, window)
        except LocalFieldError as exc:
            with pytest.raises(type(exc)):
                eval_with_partials(e, window)
            return
        dual_value, partials = eval_with_partials(e, window)
        assert dual_value == value
        assert len(partials) == n
        for i, p in enumerate(partials, start=1):
            assert agree_within_window(p, value.derivative(i))

    def test_chain_deeper_than_the_recursion_limit(self, Q):
        K1 = TlfDescriptor(1, Q)
        e, expected = Gen(K1, 1), K1.gen(1)
        c = Const(K1, 3)
        for i in range(5000):
            if i % 2:
                e, expected = Add(e, c), expected + c.value
            else:
                e, expected = Neg(e), -expected
        assert evaluate(e) == expected
        assert eval_with_partials(e)[1] == (K1.one(),)
        back = e.substitute_leaves({"t1": Gen(K1, 1) * Gen(K1, 1)})
        assert evaluate(back) == expected - K1.gen(1) + K1.monomial((2,))

    def test_first_error_is_the_leftmost(self, K2):
        b = Sym(K2, "b", K2.gen(2))
        with pytest.raises(UnmappedSymbol, match="symbol b"):
            (b + Gen(K2, 1)).substitute_leaves({})
        with pytest.raises(UnmappedSymbol, match="generator t1"):
            (Gen(K2, 1) + b).substitute_leaves({})


class TestSeparate:
    def test_leibniz(self, K2):
        # tau(d(t1 t2)) = t2 dt1 + t1 dt2
        e = Gen(K2, 1) * Gen(K2, 2)
        omega = AbstractForm.d_of(K2, e)
        sep = omega.separate()
        assert sep.coefficient((1,)) == K2.gen(2)
        assert sep.coefficient((2,)) == K2.gen(1)

    def test_counterexample_alpha_separates_to_zero(self, K2):
        # t1^-1 db ^ t2^-1 dt2 with b bound in t2 only: db = b' dt2, so zero
        val = K2.from_terms({(0, j): K2.field.one for j in range(1, 8)})
        b = Sym(K2, "b", val)
        t1, t2 = Gen(K2, 1), Gen(K2, 2)
        alpha = AbstractForm.d_of(K2, b).scale(t1.inv()).wedge(
            AbstractForm.d_of(K2, t2).scale(t2.inv())
        )
        sep = alpha.separate()
        assert sep.is_zero_within_window()

    def test_chain_rule_oracle(self, K2):
        # b = t2 + t2^2: tau(db) = (1 + 2 t2) dt2
        val = K2.from_terms({(0, 1): K2.field.one, (0, 2): K2.field.one})
        b = Sym(K2, "b", val)
        sep = AbstractForm.d_of(K2, b).separate()
        expected = K2.from_terms({(0, 0): K2.field.one, (0, 1): K2.field.from_int(2)})
        assert sep.coefficient((2,)) == expected
        assert sep.coefficient((1,)).is_exact_zero()


class TestExteriorD:
    def test_degree0(self, K2):
        f = SeparatedForm.of_element(K2, K2.monomial((1, 1)))
        df = f.exterior_d()
        assert df.coefficient((1,)) == K2.gen(2)
        assert df.coefficient((2,)) == K2.gen(1)

    def test_sign_convention(self, K2):
        # d(t2 dt1) = dt2 ^ dt1 = -dt1 ^ dt2
        f = SeparatedForm(K2, 1, {(1,): K2.gen(2)})
        df = f.exterior_d()
        assert df.coefficient((1, 2)) == -K2.one()

    def test_dd_zero_random(self, Q):
        K3 = TlfDescriptor(3, Q)
        rng = random.Random(21)
        for _ in range(200):
            f = SeparatedForm.of_element(K3, random_series(Q, 3, rng))
            assert f.exterior_d().exterior_d().is_zero_within_window()

    def test_dd_zero_abstract(self, K2):
        rng = random.Random(22)
        for _ in range(100):
            e = Gen(K2, 1) * Gen(K2, 2) + Const(K2, K2.field.random_element(rng))
            e = e * e + Gen(K2, 2)
            omega = AbstractForm.of_element(K2, e)
            dd = omega.d().d().separate()
            assert dd.is_zero_within_window()

    def test_separate_commutes_with_d(self, K2):
        rng = random.Random(23)
        t1, t2 = Gen(K2, 1), Gen(K2, 2)
        for _ in range(100):
            c = Const(K2, K2.field.random_element(rng))
            e = t1 * t2 + c * t2 * t2 + t1
            lhs = AbstractForm.of_element(K2, e).d().separate()
            rhs = AbstractForm.of_element(K2, e).separate().exterior_d()
            assert lhs.agree_within_window(rhs)


class TestWedge:
    def test_basis(self, K2):
        a = SeparatedForm.basis_element(K2, (1,))
        b = SeparatedForm.basis_element(K2, (2,))
        w = a.wedge(b)
        assert w.coefficient((1, 2)) == K2.one()

    def test_self_wedge_zero(self, K2):
        a = SeparatedForm.basis_element(K2, (1,))
        assert a.wedge(a).is_zero_within_window()

    def test_coefficients(self, K2):
        a = SeparatedForm(K2, 1, {(1,): K2.gen(1)})
        b = SeparatedForm(K2, 1, {(2,): K2.gen(2)})
        w = a.wedge(b)
        assert w.coefficient((1, 2)) == K2.monomial((1, 1))

    def test_graded_commutativity(self, Q):
        K3 = TlfDescriptor(3, Q)
        rng = random.Random(31)
        for q1, q2 in [(1, 1), (1, 2), (2, 1)]:
            for _ in range(60):
                a = _random_form(K3, q1, rng)
                b = _random_form(K3, q2, rng)
                lhs = a.wedge(b)
                rhs = b.wedge(a)
                if (q1 * q2) % 2 == 1:
                    rhs = -rhs
                assert lhs.agree_within_window(rhs)

    def test_leibniz_rule(self, Q):
        K3 = TlfDescriptor(3, Q)
        rng = random.Random(32)
        for q1 in (0, 1):
            for _ in range(60):
                a = _random_form(K3, q1, rng)
                b = _random_form(K3, 1, rng)
                lhs = a.wedge(b).exterior_d()
                rhs = a.exterior_d().wedge(b)
                term2 = a.wedge(b.exterior_d())
                if q1 % 2 == 1:
                    term2 = -term2
                rhs = rhs + term2
                assert lhs.agree_within_window(rhs)


def _random_form(K, q, rng):
    from itertools import combinations

    coeffs = {}
    for I in combinations(range(1, K.n + 1), q):
        if rng.random() < 0.7:
            coeffs[I] = random_series(K.field, K.n, rng, max_terms=2, exp_span=2)
    return SeparatedForm(K, q, coeffs)


class TestDlog:
    def test_standard(self, K2):
        sys_ = UniformizerSystem.standard(K2)
        form = dlog(sys_)
        assert form.coefficient((1, 2)) == K2.monomial((-1, -1))

    def test_n1_perturbed(self, Q):
        # dlog(t(1+t)) = (1+2t)/(t(1+t)) dt = (t^-1 + 1 - t + t^2 - ...) dt
        K1 = TlfDescriptor(1, Q)
        t = K1.gen(1)
        a = t * (K1.one() + t)
        sys_ = validate_uniformizers(K1, [a])
        form = dlog(sys_, window=6)
        g = form.coefficient((1,))
        assert g.coefficient_at((-1,)) == Q.one
        assert g.coefficient_at((0,)) == Q.one
        assert g.coefficient_at((1,)) == Q.from_int(-1)
        assert g.coefficient_at((2,)) == Q.one

    def test_n0(self, Q):
        K0 = TlfDescriptor(0, Q)
        sys_ = UniformizerSystem.standard(K0)
        form = dlog(sys_)
        assert form.coefficient(()) == Series.one(Q, 0)


class TestPullback:
    def test_identity(self, K2):
        t1, t2 = Gen(K2, 1), Gen(K2, 2)
        omega = AbstractForm.d_of(K2, t1 * t2)
        back = omega.pullback(identity_mapping(K2))
        assert back.separate().agree_within_window(omega.separate())

    def test_unmapped_symbol(self, K2):
        b = Sym(K2, "b", K2.gen(2))
        omega = AbstractForm.d_of(K2, b)
        with pytest.raises(UnmappedSymbol):
            omega.pullback({"t1": Gen(K2, 1), "t2": Gen(K2, 2)})

    def test_example_b_to_b_plus_t1(self, K2):
        # alpha = t1^-1 db ^ t2^-1 dt2 pulled back along b -> b + t1 becomes
        # alpha + dlog(t1, t2)
        val = K2.from_terms({(0, j): K2.field.one for j in range(1, 8)})
        b = Sym(K2, "b", val)
        t1, t2 = Gen(K2, 1), Gen(K2, 2)
        alpha = AbstractForm.d_of(K2, b).scale(t1.inv()).wedge(
            AbstractForm.d_of(K2, t2).scale(t2.inv())
        )
        mapping = identity_mapping(K2, [b])
        mapping["b"] = b + t1
        beta = alpha.pullback(mapping)
        gamma = dlog(UniformizerSystem.standard(K2))
        lhs = beta.separate()
        rhs = alpha.separate() + gamma
        assert lhs.agree_within_window(rhs)

    def test_substitution_pullback_1d(self, Q):
        # t -> t + t^2 on dt gives (1+2t) dt
        K1 = TlfDescriptor(1, Q)
        t = K1.gen(1)
        a = t + t * t
        form = SeparatedForm.basis_element(K1, (1,))
        back = form.pullback_substitution([a])
        expected = K1.from_terms({(0,): Q.one, (1,): Q.from_int(2)})
        assert back.coefficient((1,)) == expected


class TestDElement:
    def test_basic(self, K2):
        x = K2.monomial((2, 1))
        form = d_element(K2, x)
        assert form.coefficient((1,)) == K2.monomial((1, 1), 2)
        assert form.coefficient((2,)) == K2.monomial((2, 0))

    def test_dlog_element(self, K2):
        u = K2.one() + K2.gen(1)
        form = dlog_element(K2, u, window=5)
        g = form.coefficient((1,))
        # 1/(1+t1): 1 - t1 + t1^2 ...
        assert g.coefficient_at((0, 0)) == Q_one(K2)
        assert g.coefficient_at((1, 0)) == K2.field.from_int(-1)


def Q_one(K):
    return K.field.one
