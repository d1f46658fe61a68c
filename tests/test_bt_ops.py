import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tlfields.errors import NotCertifiable
from tlfields.scalars import make_extension
from tlfields.series import Series, agree_within_window, random_series
from tlfields.bt_ops import (
    AddOp,
    Certificate,
    CoeffLift,
    Compose,
    DiffOp,
    FiniteRank,
    LevelProjection,
    MulBy,
    OperatorExpr,
    ScalarMul,
    _certify_rung,
    _default_probes,
    certify_membership,
    cubical_projectors,
    decompose_identity,
    finite_potent_trace,
    operator_from_json,
    pushdown_rung,
    verify_lifting_independence,
)
from tlfields.residue import tate_residue_dim1
from tlfields.tlf import LiftingSystem, TlfDescriptor


@pytest.fixture
def Q():
    return make_extension(0, [0, 1])


@pytest.fixture
def F5():
    return make_extension(5, [0, 1])


@pytest.fixture
def K1(F5):
    return TlfDescriptor(1, F5)


@pytest.fixture
def K2(Q):
    return TlfDescriptor(2, Q)


def probes(K, rng, count=8):
    out = [K.monomial((e,) + (0,) * (K.n - 1)) for e in (-2, -1, 0, 1, 2)]
    for _ in range(count):
        p = K.random_element(rng, max_terms=3, exp_span=2)
        if not p.is_exact_zero():
            out.append(p)
    return out


class TestApply:
    def test_mulby(self, K1):
        t = K1.gen(1)
        op = MulBy(K1, t)
        assert op.apply(t.inv()) == K1.one()

    def test_projection(self, K1):
        op = LevelProjection(K1, 1, ">=", 0, LiftingSystem.standard(K1))
        x = K1.from_terms({(-2,): K1.field.one, (0,): K1.field.from_int(3), (1,): K1.field.one})
        out = op.apply(x)
        assert out == K1.from_terms({(0,): K1.field.from_int(3), (1,): K1.field.one})

    def test_compose_leibniz(self, K2):
        d1 = DiffOp.partial(K2, 1)
        op = Compose([d1, MulBy(K2, K2.gen(1))])
        assert op.apply(K2.one()) == K2.one()

    def test_finite_rank(self, K1):
        op = FiniteRank(K1, {((1,), (0,)): K1.field.one})
        x = K1.from_terms({(0,): K1.field.from_int(4), (2,): K1.field.one})
        assert op.apply(x) == K1.monomial((1,), 4)

    def test_coefflift(self, K2):
        inner = MulBy(K2.residue_descriptor(), Series.generator(K2.field, 1, 1))
        op = CoeffLift(K2, inner, LiftingSystem.standard(K2))
        x = K2.from_terms({(1, 0): K2.field.one})
        assert op.apply(x) == K2.from_terms({(1, 1): K2.field.one})

    def test_projection_level2(self, K2):
        sigma = LiftingSystem.standard(K2)
        op = LevelProjection(K2, 2, ">=", 0, sigma)
        x = K2.from_terms({(-1, -1): K2.field.one, (1, 1): K2.field.one})
        assert op.apply(x) == K2.from_terms({(1, 1): K2.field.one})


class TestCertify:
    def test_mulby_in_ring(self, K1):
        op = MulBy(K1, K1.gen(1))
        cert = certify_membership(op, "E")
        assert cert.band == -1
        rng = random.Random(1)
        assert cert.replay(probes(K1, rng))

    def test_projection_bounded_image(self, K1):
        sigma = LiftingSystem.standard(K1)
        op = LevelProjection(K1, 1, ">=", 2, sigma)
        cert = certify_membership(op, (1, 1))
        assert cert.witness_shift == 2
        rng = random.Random(2)
        assert cert.replay(probes(K1, rng))

    def test_projection_kills_lattice(self, K1):
        sigma = LiftingSystem.standard(K1)
        op = LevelProjection(K1, 1, "<", 0, sigma)
        cert = certify_membership(op, (1, 2))
        assert cert.killed_shift == 0
        rng = random.Random(3)
        assert cert.replay(probes(K1, rng))

    def test_derivative_in_ring_char0(self, K2):
        op = DiffOp.partial(K2, 1)
        cert = certify_membership(op, "E")
        assert cert.band == 1
        rng = random.Random(4)
        assert cert.replay(probes(K2, rng))

    def test_mulby_not_in_ideal(self, K1):
        op = MulBy(K1, K1.one())
        with pytest.raises(NotCertifiable):
            certify_membership(op, (1, 1))
        with pytest.raises(NotCertifiable):
            certify_membership(op, (1, 2))

    def test_zero_image_bound_is_infinite(self, K1):
        zero = MulBy(K1, K1.zero())
        for op in [zero, FiniteRank(K1, {}), ScalarMul(0, MulBy(K1, K1.gen(1)))]:
            cert = certify_membership(op, (1, 1))
            assert cert.witness_shift == math.inf
            assert cert.replay(probes(K1, random.Random(9)))
        assert finite_potent_trace(zero) == 0

    def test_dimension_zero_is_the_whole_ring(self, Q):
        # E(K) = End_k(K) at n = 0: band 0, and a replay with nothing to compare
        K0 = TlfDescriptor(0, Q)
        op = MulBy(K0, K0.one())
        assert certify_membership(op, "E").band == 0
        assert Certificate(op, "E", band=0).replay(_default_probes(K0))
        with pytest.raises(NotCertifiable, match="out of range"):
            certify_membership(op, (1, 1))

    def test_commutator_certifies_both(self, K1):
        # [pi f, g] = pi f g - g pi f is bounded and kills a lattice
        t = K1.gen(1)
        sigma = LiftingSystem.standard(K1)
        pi = LevelProjection(K1, 1, ">=", 0, sigma)
        f = MulBy(K1, t.inv())
        g = MulBy(K1, t)
        commutator = AddOp(
            [Compose([pi, f, g]), ScalarMul(-1, Compose([g, pi, f]))]
        )
        c11 = certify_membership(commutator, (1, 1))
        c12 = certify_membership(commutator, (1, 2))
        rng = random.Random(5)
        ps = probes(K1, rng)
        assert c11.replay(ps)
        assert c12.replay(ps)

    def test_finite_rank_all_ideals(self, K2):
        op = FiniteRank(K2, {((0, 0), (1, 1)): K2.field.one})
        for target in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            cert = certify_membership(op, target)
            assert cert is not None

    def test_level2_projection_certificates(self, K2):
        sigma = LiftingSystem.standard(K2)
        p1 = LevelProjection(K2, 2, ">=", 0, sigma)
        p2 = LevelProjection(K2, 2, "<", 0, sigma)
        cert1 = certify_membership(p1, (2, 1))
        cert2 = certify_membership(p2, (2, 2))
        rng = random.Random(6)
        ps = probes(K2, rng)
        assert cert1.replay(ps)
        assert cert2.replay(ps)

    def test_replay_on_large_probe_set(self, K2):
        # certificates re-validate on all in-window monomials plus 50 randoms
        sigma = LiftingSystem.standard(K2)
        rng = random.Random(77)
        big = [
            K2.monomial((e1, e2))
            for e1 in range(-3, 4)
            for e2 in range(-3, 4)
        ]
        for _ in range(50):
            p = K2.random_element(rng, max_terms=3, exp_span=3)
            if not p.is_exact_zero():
                big.append(p)
        for phi, target in [
            (LevelProjection(K2, 1, ">=", 0, sigma), (1, 1)),
            (LevelProjection(K2, 1, "<", 0, sigma), (1, 2)),
            (LevelProjection(K2, 2, ">=", 0, sigma), (2, 1)),
            (MulBy(K2, K2.monomial((1, -2))), "E"),
            (DiffOp.partial(K2, 2), "E"),
        ]:
            cert = certify_membership(phi, target)
            assert cert.replay(big)

    def test_ideal_absorption(self, K2):
        # compose a certified (i,j) operator with ring members on either side
        sigma = LiftingSystem.standard(K2)
        rng = random.Random(7)
        ps = probes(K2, rng, count=4)
        inner = LevelProjection(K2, 1, ">=", 1, sigma)
        for _ in range(50):
            f = random_series(K2.field, 2, rng, max_terms=2, exp_span=1)
            if f.is_exact_zero():
                continue
            left = MulBy(K2, f)
            right = MulBy(K2, K2.gen(2))
            comp = Compose([left, inner, right])
            cert = certify_membership(comp, (1, 1))
            assert cert.replay(ps)

    def test_equal_lifts_built_apart_cancel(self, K2):
        def lift():
            inner = MulBy(K2.residue_descriptor(), Series.generator(K2.field, 1, 1))
            return CoeffLift(K2, inner, LiftingSystem.standard(K2))

        cert = certify_membership(lift() - lift(), (1, 2))
        assert cert.killed_shift == 0
        assert cert.replay(probes(K2, random.Random(16)))

    def test_lifts_under_different_systems_do_not_cancel(self, K2):
        # the difference maps t2 in O_1 to -t1*t2, so no lattice is killed
        inner = MulBy(K2.residue_descriptor(), Series.generator(K2.field, 1, 1))
        std = LiftingSystem.standard(K2)
        tw = LiftingSystem.twisted_at(K2, 1, 2, depth=2)
        diff = CoeffLift(K2, inner, std) - CoeffLift(K2, inner, tw)
        t1, t2 = K2.gens()
        assert agree_within_window(diff.apply(t2), -(t1 * t2))
        with pytest.raises(NotCertifiable):
            certify_membership(diff, (1, 2))

    def test_node_outside_class_refused_by_name(self, K2):
        class Opaque(OperatorExpr):
            def apply(self, x, window=None):
                return x

        std = LiftingSystem.standard(K2)
        opaque = Opaque(K2)
        lifted = CoeffLift(K2, Opaque(K2.residue_descriptor()), std)
        for op in [opaque, lifted, lifted + MulBy(K2, K2.one()), ScalarMul(0, opaque)]:
            for target in ["E", (1, 1), (1, 2), (2, 1)]:
                with pytest.raises(NotCertifiable, match="Opaque"):
                    certify_membership(op, target)


class TestDiffOpInCharP:
    """DiffOp is sum a_I d^[I] in every characteristic."""

    def test_divided_power_beyond_p(self, K1):
        # d^[5] t^5 = 1 in characteristic 5, where the fifth derivative is zero
        t = K1.gen(1)
        assert DiffOp(K1, [(K1.one(), (5,))]).apply(t ** 5) == K1.one()
        assert DiffOp(K1, [(K1.one(), (1,))]).apply(t ** 5).is_exact_zero()

    def test_divided_power_in_char0(self, Q):
        # in characteristic 0, d^[I] is d^I / I!
        K = TlfDescriptor(2, Q)
        t1, t2 = K.gens()
        x = t1 ** 3 * t2 ** -2 + t2 ** 4
        op = DiffOp(K, [(K.one(), (2, 3))])
        y = x
        for axis, k in ((1, 2), (2, 3)):
            for _ in range(k):
                y = y.derivative(axis)
        assert op.apply(x) == y.scalar_mul(Q.from_fraction(Fraction(1, 2 * 6)))

    def test_level1_certificates_as_in_char0(self, K1, Q):
        K0 = TlfDescriptor(1, Q)
        d, d0 = DiffOp.partial(K1, 1), DiffOp.partial(K0, 1)
        cert = certify_membership(d, "E")
        assert cert.band == 1
        assert cert.replay(probes(K1, random.Random(5)))
        for target in [(1, 1), (1, 2)]:
            with pytest.raises(NotCertifiable) as ei:
                certify_membership(d, target)
            with pytest.raises(NotCertifiable) as ei0:
                certify_membership(d0, target)
            assert ei.value.reason == ei0.value.reason

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("target", [(2, 1), (2, 2)])
    def test_level1_order_refused_at_deeper_targets_by_name(self, p, target):
        K = TlfDescriptor(2, make_extension(p, [0, 1]))
        t2 = K.gen(2)
        for op in [DiffOp.partial(K, 1), DiffOp(K, [(t2, (0, 1)), (K.one(), (2, 0))]),
                   Compose([MulBy(K, t2), DiffOp.partial(K, 1)])]:
            with pytest.raises(NotCertifiable) as ei:
                certify_membership(op, target)
            assert "C(q, " in ei.value.reason and f"mod {p}" in ei.value.reason
            assert "diff(" in ei.value.reason.split(":")[0]

    def test_inner_derivative_pushes_down_in_char_p(self, F5, Q):
        # d_2 has level-1 order 0: its pushdown is the one entry d on K_1, which
        # answers as in characteristic 0
        reasons = []
        for field in (F5, Q):
            with pytest.raises(NotCertifiable) as ei:
                certify_membership(DiffOp.partial(TlfDescriptor(2, field), 2), (2, 1))
            reasons.append(ei.value.reason)
        assert reasons[0] == reasons[1]
        assert "image admits no level-1 lattice bound" in reasons[0]


class TestJson:
    def test_round_trip_every_node(self, K2):
        field = K2.field
        sub = K2.residue_descriptor()
        sigma = LiftingSystem.standard(K2)
        t1, t2 = K2.gens()
        mul = MulBy(K2, t1.inv() + t2)
        proj = LevelProjection(K2, 2, "<", 1, sigma)
        ops = [
            mul,
            DiffOp(K2, [(t2, (1, 0)), (K2.one(), (0, 2))]),
            proj,
            CoeffLift(K2, MulBy(sub, Series.generator(field, 1, 1)), sigma),
            FiniteRank(K2, {((0, 1), (1, 0)): field.from_int(3)}),
            Compose([mul, proj]),
            AddOp([mul, proj]),
            ScalarMul(field.from_fraction(Fraction(-2, 3)), proj),
        ]
        x = K2.from_terms({(1, 0): field.one, (0, -1): field.from_int(2), (-1, 1): field.one})
        for phi in ops:
            data = phi.to_json()
            back = operator_from_json(K2, json.loads(json.dumps(data)))
            assert back.to_json() == data
            assert back == phi
            assert back.apply(x) == phi.apply(x)


class TestDecomposeIdentity:
    @pytest.mark.parametrize("level", [1, 2])
    def test_sum_is_identity(self, K2, level):
        sigma = LiftingSystem.standard(K2)
        phi1, phi2, certs = decompose_identity(K2, level, sigma)
        rng = random.Random(8 + level)
        for _ in range(100):
            x = K2.random_element(rng, max_terms=3, exp_span=3)
            total = phi1.apply(x) + phi2.apply(x)
            assert agree_within_window(total - x, K2.zero())
        assert certs[(level, 1)].replay(probes(K2, rng))
        assert certs[(level, 2)].replay(probes(K2, rng))

    def test_n1_split(self, F5):
        K1 = TlfDescriptor(1, F5)
        sigma = LiftingSystem.standard(K1)
        phi1, phi2, _ = decompose_identity(K1, 1, sigma)
        x = K1.from_terms({(-2,): F5.one, (0,): F5.from_int(3), (1,): F5.one})
        assert phi1.apply(x) == K1.from_terms({(0,): F5.from_int(3), (1,): F5.one})
        assert phi2.apply(x) == K1.from_terms({(-2,): F5.one})

    def test_level2_split_example(self, K2):
        sigma = LiftingSystem.standard(K2)
        phi1, phi2, _ = decompose_identity(K2, 2, sigma)
        x = K2.from_terms({(-1, -1): K2.field.one, (1, 1): K2.field.one})
        assert phi1.apply(x) == K2.from_terms({(1, 1): K2.field.one})
        assert phi2.apply(x) == K2.from_terms({(-1, -1): K2.field.one})


class TestCubical:
    def test_n1(self, K1):
        sigma = LiftingSystem.standard(K1)
        projs = cubical_projectors(K1, sigma)
        assert set(projs) == {(1,), (2,)}

    def test_n2_values(self, K2):
        sigma = LiftingSystem.standard(K2)
        projs = cubical_projectors(K2, sigma)
        x = K2.from_terms({(-1, 1): K2.field.one})
        assert projs[(1, 1)].apply(x).is_zero_within_window()
        assert projs[(2, 1)].apply(x) == x

    def test_sum_to_identity(self, K2):
        sigma = LiftingSystem.standard(K2)
        projs = cubical_projectors(K2, sigma)
        rng = random.Random(11)
        for _ in range(100):
            x = K2.random_element(rng, max_terms=3, exp_span=3)
            total = K2.zero()
            for op in projs.values():
                total = total + op.apply(x)
            assert agree_within_window(total - x, K2.zero())


class TestFinitePotentTrace:
    def test_rank_one_idempotent(self, K1):
        op = FiniteRank(K1, {((0,), (0,)): K1.field.one})
        assert finite_potent_trace(op) == 1

    def test_nilpotent(self, K1):
        # x -> coeff_0(x) * t is square zero
        op = FiniteRank(K1, {((1,), (0,)): K1.field.one})
        assert finite_potent_trace(op) == 0

    def test_projected_multiplication(self, F5):
        K1 = TlfDescriptor(1, F5)
        sigma = LiftingSystem.standard(K1)
        window = Compose(
            [
                LevelProjection(K1, 1, ">=", 0, sigma),
                LevelProjection(K1, 1, "<", 3, sigma),
            ]
        )
        op = Compose([window, MulBy(K1, K1.one() + K1.gen(1)), window])
        assert finite_potent_trace(op) == 3

    def test_composed_finite_rank_certificates(self, K2):
        # a finite-rank factor with off-origin support inside a composition:
        # the quotient pushdown must keep the through-path
        field = K2.field
        fr = FiniteRank(K2, {((4, 0), (0, 0)): field.one})
        comp = Compose([MulBy(K2, K2.monomial((-4, 0))), fr])
        cert = certify_membership(comp, (2, 1))
        one = Series.one(field, 1)
        # the composite maps t^0 |-> t^0; entry ((0,*),(0,*)) must survive
        assert any(
            not c.phi.apply(one).is_exact_zero() if hasattr(c.phi, "apply") else False
            for c in cert.entries.values()
        )

    def test_finite_potency_n2(self, K2):
        # a finite-rank operator at n=2 carries all four certificates and
        # the trace reduction bottoms out through both levels
        field = K2.field
        op = FiniteRank(
            K2,
            {
                ((0, 0), (0, 0)): field.one,
                ((1, -1), (1, -1)): field.from_int(2),
                ((0, 1), (1, 0)): field.one,
            },
        )
        certs = {t: certify_membership(op, t) for t in [(1, 1), (1, 2), (2, 1), (2, 2)]}
        assert finite_potent_trace(op, certs) == field.base.from_int(3)

    def test_matches_tate_commutator(self, F5):
        K1 = TlfDescriptor(1, F5)
        sigma = LiftingSystem.standard(K1)
        rng = random.Random(12)
        pi = LevelProjection(K1, 1, ">=", 0, sigma)
        for _ in range(100):
            f = random_series(F5, 1, rng, max_terms=3, exp_span=3)
            g = random_series(F5, 1, rng, max_terms=3, exp_span=3)
            if f.is_exact_zero() or g.is_exact_zero():
                continue
            commutator = AddOp(
                [
                    Compose([pi, MulBy(K1, f), MulBy(K1, g)]),
                    ScalarMul(-1, Compose([MulBy(K1, g), pi, MulBy(K1, f)])),
                ]
            )
            lhs = finite_potent_trace(commutator)
            rhs = tate_residue_dim1(f, g)
            assert lhs == rhs


class TestLiftingIndependence:
    def test_same_system_trivial(self, K2):
        sigma = LiftingSystem.standard(K2)
        op = MulBy(K2, K2.gen(1))
        report = verify_lifting_independence(op, sigma, sigma, ["E"])
        assert report["targets"]["E"] == {"sigma": True, "sigma_prime": True}

    def test_decompose_under_twist(self, K2):
        # the level-2 nonnegative projection still certifies (2,1) when the
        # ambient system twists level 2 by the remaining derivation
        sigma = LiftingSystem.standard(K2)
        sigma2 = LiftingSystem.standard(K2)  # K2 has n=2: level-2 twist axis must be > 2
        phi1, _, _ = decompose_identity(K2, 2, sigma)
        report = verify_lifting_independence(phi1, sigma, sigma2, [(2, 1)])
        assert report["agreements"][(2, 1)]
        assert report["induced_maps_agree"] is True

    def test_mulby_certs_lifting_free(self, Q):
        K3 = TlfDescriptor(3, Q)
        sigma = LiftingSystem.standard(K3)
        twisted = LiftingSystem.twisted_at(K3, 2, 3, depth=1)
        op = MulBy(K3, K3.gen(1))
        report = verify_lifting_independence(op, sigma, twisted, ["E"])
        assert report["targets"]["E"]["sigma"] is True
        assert report["targets"]["E"]["sigma_prime"] is True

    def test_projection_recertifies_under_deeper_twist(self, Q):
        K3 = TlfDescriptor(3, Q)
        sigma = LiftingSystem.standard(K3)
        twisted = LiftingSystem.twisted_at(K3, 2, 3, depth=1)
        phi1 = LevelProjection(K3, 2, ">=", 0, sigma)
        report = verify_lifting_independence(phi1, sigma, twisted, [(2, 1)])
        assert report["agreements"][(2, 1)]

    def test_induced_maps_conjugate_under_level1_twist(self, K2):
        # the same operator induces conjugate quotient matrices when the
        # level-1 lifting itself is twisted
        sigma = LiftingSystem.standard(K2)
        twisted = LiftingSystem.twisted_at(K2, 1, 2, depth=2)
        phi = LevelProjection(K2, 2, ">=", 0, sigma)
        report = verify_lifting_independence(phi, sigma, twisted, [], probe_count=3)
        assert report["induced_maps_agree"] is True
        mult = MulBy(K2, K2.one() + K2.gen(2))
        report2 = verify_lifting_independence(mult, sigma, twisted, [], probe_count=3)
        assert report2["induced_maps_agree"] is True

    def test_twisted_pushdown_refusal_names_the_node(self, K2):
        sigma = LiftingSystem.standard(K2)
        twisted = LiftingSystem.twisted_at(K2, 1, 2, depth=2)
        K1 = K2.residue_descriptor()
        projection = LevelProjection(K2, 2, ">=", 0, sigma)
        for phi in (projection, CoeffLift(K2, MulBy(K1, K1.one()), sigma)):
            report = verify_lifting_independence(phi, sigma, twisted, [(2, 1)], probe_count=2)
            assert report["targets"][(2, 1)]["sigma_prime"] == (
                f"not-certifiable: {phi!r}: pushdown under a twisted level-1 lifting"
            )


class TestLemma65Split:
    def test_ring_splits_into_ideals(self, K2):
        # phi = phi phi_1 + phi phi_2 with the summands certified
        sigma = LiftingSystem.standard(K2)
        phi1, phi2, _ = decompose_identity(K2, 1, sigma)
        rng = random.Random(15)
        for _ in range(20):
            f = random_series(K2.field, 2, rng, max_terms=2, exp_span=2)
            if f.is_exact_zero():
                continue
            phi = MulBy(K2, f)
            s1 = Compose([phi, phi1])
            s2 = Compose([phi, phi2])
            certify_membership(s1, "E")
            certify_membership(s2, "E")
            for _ in range(5):
                x = K2.random_element(rng, max_terms=2, exp_span=2)
                total = s1.apply(x) + s2.apply(x)
                assert agree_within_window(total - phi.apply(x), K2.zero())


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def _operator(draw, K, size):
    """A random tree over K of all eight node types; DiffOp of order > 0 only
    in characteristic 0."""
    field, sigma = K.field, LiftingSystem.standard(K)
    scalar = st.sampled_from([-2, -1, 1, 2]).map(field.from_int)

    def element():
        exps = st.tuples(st.integers(-2, 2), *[st.integers(-1, 1)] * (K.n - 1))
        return K.from_terms(draw(st.dictionaries(exps, scalar, min_size=1, max_size=2)))

    kinds = ["mul", "diff", "proj", "finrank"] + (["lift"] if K.n > 1 else [])
    kinds += ["compose", "add", "scale"] if size else []
    kind = draw(st.sampled_from(kinds))
    if kind == "mul":
        return MulBy(K, element())
    if kind == "diff":
        order = st.integers(0, 2 if field.char == 0 else 0)
        terms = draw(st.lists(st.tuples(order, order), min_size=1, max_size=2))
        return DiffOp(K, [(element(), I[:K.n] + (0,) * (K.n - 2)) for I in terms])
    if kind == "proj":
        level = draw(st.integers(1, K.n))
        return LevelProjection(K, level, draw(st.sampled_from([">=", "<"])),
                               draw(st.integers(-2, 2)), sigma)
    if kind == "finrank":
        index = st.tuples(*[st.integers(-2, 2)] * K.n)
        entries = draw(st.dictionaries(st.tuples(index, index), scalar, min_size=1, max_size=2))
        return FiniteRank(K, entries)
    if kind == "lift":
        return CoeffLift(K, draw(_operator(K.residue_descriptor(), 0)), sigma)
    if kind == "scale":
        return ScalarMul(draw(st.integers(-2, 2)), draw(_operator(K, size - 1)))
    parts = draw(st.lists(_operator(K, size - 1), min_size=2, max_size=3))
    return Compose(parts) if kind == "compose" else AddOp(parts)


@st.composite
def _rung_case(draw):
    field = make_extension(draw(st.sampled_from([0, 5])), [0, 1])
    K = TlfDescriptor(draw(st.sampled_from([2, 3])), field)
    phi = draw(_operator(K, 2))
    target = (draw(st.integers(2, K.n)), draw(st.sampled_from([1, 2])))
    widen = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return phi, target, widen


class TestPushdownRung:
    @PROPERTY
    @given(_rung_case())
    def test_wider_rungs_change_nothing(self, case):
        # the derived rung holds every entry a wider one shows, up to nonzero
        # scalars, so the verdict and the level bounds agree
        phi, target, (left, right) = case
        lo, hi = pushdown_rung(phi)

        def verdict(rung):
            try:
                return _certify_rung(phi, target, 0, rung).level_bounds()
            except NotCertifiable:
                return None

        derived = verdict((lo, hi))
        assert verdict((lo - left, hi + right)) == derived
        if derived is not None:
            assert certify_membership(phi, target).replay(_default_probes(phi.descriptor, 2))

    def test_shift_free_parts_keep_the_span(self, K2):
        sigma = LiftingSystem.standard(K2)
        mul = MulBy(K2, K2.gen(1))
        proj = LevelProjection(K2, 1, ">=", 0, sigma)
        lift = CoeffLift(K2, MulBy(K2.residue_descriptor(), Series.generator(K2.field, 1, 1)), sigma)
        assert mul.window1().span == (1, 2)
        for parts in [[proj, mul], [proj, proj, mul], [mul, proj], [lift, mul], [lift, proj, mul]]:
            assert Compose(parts).window1().span == (1, 2)
        for op in [proj, lift, LevelProjection(K2, 2, "<", 3, sigma)]:
            assert op.window1().span == (0, 1)

    def test_rung_follows_the_cutoff(self, K2):
        sigma = LiftingSystem.standard(K2)
        t1, t2 = K2.gens()
        assert pushdown_rung(LevelProjection(K2, 1, ">=", 5, sigma)) == (4, 6)
        assert pushdown_rung(LevelProjection(K2, 2, ">=", 5, sigma)) == (0, 1)
        assert pushdown_rung(MulBy(K2, t1)) == (0, 2)
        assert pushdown_rung(FiniteRank(K2, {((4, 0), (-1, 0)): K2.field.one})) == (-1, 5)
        # d_1 vanishes on the column q = 0 and scales the others by q
        assert pushdown_rung(DiffOp.partial(K2, 1)) == (-3, 3)
        conj = Compose([MulBy(K2, t1 ** -5), LevelProjection(K2, 1, ">=", 5, sigma),
                        MulBy(K2, t2.inv()), MulBy(K2, t1 ** 5)])
        assert pushdown_rung(conj) == (-1, 1)

    def test_level2_projection_needs_one_entry(self, K2):
        _, _, certs = decompose_identity(K2, 2, LiftingSystem.standard(K2))
        for cert in certs.values():
            assert len(cert.entries) == 1

    def test_gap_one_certificate_fails_replay(self, K2):
        # the pushdown of mul(t1) on [0, 1) is empty; a wider rung is not
        op = MulBy(K2, K2.gen(1))
        cert = Certificate(op, (2, 1), band=-1, rung=(0, 1), entries={})
        assert not cert.replay(probes(K2, random.Random(17)))

    def test_unknown_entries_refused_by_name(self, K2):
        t1 = K2.gen(1)
        inexact = (K2.one() - t1).inv(4)
        for op in [MulBy(K2, inexact), DiffOp(K2, [(inexact, (1, 0))])]:
            with pytest.raises(NotCertifiable, match="known only below t_1\\^4"):
                certify_membership(op, (2, 1))

    def test_pushdown_window_refusals_name_the_node(self, K2):
        # pushdown_rung refuses these nodes first; on a rung given directly,
        # the pushdown itself names them
        inexact = (K2.one() - K2.gen(1)).inv(4)
        for op in [MulBy(K2, inexact), DiffOp(K2, [(inexact, (1, 0))])]:
            with pytest.raises(NotCertifiable) as ei:
                op.pushdown(0, 8)
            assert ei.value.reason.startswith(f"{op!r}: ")
            assert "window too small" in ei.value.reason
