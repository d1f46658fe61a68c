import itertools
import random
from fractions import Fraction

import pytest

from tlfields.errors import FactorizationOutOfScope, ReduciblePolynomial
from tlfields.scalars import BaseField, _poly_divmod, _poly_mul, _poly_trim, make_extension
from tlfields.geom import (
    ClosedPoint,
    RationalForm,
    enumerate_closed_points,
    factor_denominator,
    global_residue_sum,
    global_residues,
    local_expansion,
    local_residue,
)

@pytest.fixture
def Q():
    return BaseField(0)


@pytest.fixture
def F3():
    return BaseField(3)


@pytest.fixture
def F5():
    return BaseField(5)


def partial_fraction_residue(base, num, den, root):
    """Independent oracle: residue at a simple or multiple rational pole.

    Solves num = sum over poles/orders c_{x,j} den/(t-x)^j + poly * den by
    exact linear algebra in the unknown coefficients; the residue is c_{x,1}.
    """
    num = _poly_trim([base.from_fraction(c) if base.char == 0 else base.from_int(c)
                      for c in num])
    den = _poly_trim([base.from_fraction(c) if base.char == 0 else base.from_int(c)
                      for c in den])
    # factor den into linear powers over the base (the caller guarantees this)
    factors = {}
    work = list(den)  # arrives monic from RationalForm
    # collect roots by trial division with each candidate linear factor
    candidates = set()
    if base.char:
        candidates = {base.from_int(r) for r in range(base.char)}
    else:
        candidates = {root}
        # supplement with small rational candidates found by root search
        for rn in range(-12, 13):
            for rd in range(1, 5):
                candidates.add(Fraction(rn, rd))
    for r in sorted(candidates, key=str):
        lin = [base.neg(r), base.one]
        while True:
            q, rem = _poly_divmod(base, work, lin)
            if rem:
                break
            factors[r] = factors.get(r, 0) + 1
            work = q
    assert len(work) - 1 == 0, "oracle needs a fully split denominator"
    # unknowns: c_{x,j} for each root x with multiplicity e_x, j = 1..e_x,
    # plus polynomial part coefficients p_0..p_d
    unknowns = []
    for r, e in sorted(factors.items(), key=lambda kv: str(kv[0])):
        for j in range(1, e + 1):
            unknowns.append(("pole", r, j))
    poly_deg = max(-1, len(num) - 1 - (len(den) - 1))
    for k in range(poly_deg + 1):
        unknowns.append(("poly", k))
    # build the linear system: num = sum c * den/(t-r)^j + poly * den
    cols = []
    for u in unknowns:
        if u[0] == "pole":
            _, r, j = u
            lin = [base.neg(r), base.one]
            col = list(den)
            for _ in range(j):
                col, rem = _poly_divmod(base, col, lin)
                assert not rem
        else:
            _, k = u
            col = _poly_mul(base, [base.zero] * k + [base.one], list(den))
        cols.append(col)
    width = max(len(num), max(len(c) for c in cols))
    rows = []
    for i in range(width):
        row = [c[i] if i < len(c) else base.zero for c in cols]
        row.append(num[i] if i < len(num) else base.zero)
        rows.append(row)
    sol = _solve(base, rows, len(unknowns))
    for u, value in zip(unknowns, sol):
        if u[0] == "pole" and u[1] == root and u[2] == 1:
            return value
    return base.zero


def _solve(base, rows, ncols):
    rank = 0
    where = [-1] * ncols
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = base.inv(rows[rank][col])
        rows[rank] = [base.mul(e, inv) for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [base.sub(a, base.mul(f, b)) for a, b in zip(rows[r], rows[rank])]
        where[col] = rank
        rank += 1
    return [rows[where[c]][-1] if where[c] >= 0 else base.zero for c in range(ncols)]


class TestEnumerate:
    def test_linear_pair(self, Q):
        pts = enumerate_closed_points(Q, [0, -1, 1])  # t(t-1)
        assert len(pts) == 3
        assert pts[-1].is_infinity

    def test_quadratic_over_f3(self, F3):
        pts = enumerate_closed_points(F3, [1, 0, 1], include_infinity=False)
        assert len(pts) == 1
        assert pts[0].degree == 2

    def test_all_f2_points_up_to_degree2(self):
        F2 = BaseField(2)
        # t(t+1)(t^2+t+1)
        den = _poly_mul(F2, _poly_mul(F2, [0, 1], [1, 1]), [1, 1, 1])
        pts = enumerate_closed_points(F2, den, include_infinity=False)
        polys = {p.min_poly for p in pts}
        assert polys == {(0, 1), (1, 1), (1, 1, 1)}

    def test_multiplicities_handled(self, Q):
        den = _poly_mul(Q, [0, 1], _poly_mul(Q, [0, 1], [-1, 1]))  # t^2 (t-1)
        pts = enumerate_closed_points(Q, den, include_infinity=False)
        assert len(pts) == 2

    def test_out_of_scope(self, Q):
        # x^3 - 2 is irreducible of degree 3 over Q: not linear/quadratic
        with pytest.raises(FactorizationOutOfScope):
            enumerate_closed_points(Q, [-2, 0, 0, 1])

    def test_two_quadratics_split(self, Q):
        den = _poly_mul(Q, [5, 0, 1], [7, 3, 1])  # (t^2+5)(t^2+3t+7)
        pts = enumerate_closed_points(Q, den, include_infinity=False)
        assert {p.min_poly for p in pts} == {(5, 0, 1), (7, 3, 1)}

    def test_quadratic_search_over_budget(self, Q):
        # t^4 + 720719 t^2 + 720720 has no rational root, and its values at
        # 0, 1, -1 have too many divisors for the Kronecker search budget
        with pytest.raises(FactorizationOutOfScope, match="quadratic factor search too large"):
            enumerate_closed_points(Q, [720720, 0, 720719, 0, 1])

    def test_root_free_cubic_needs_no_quadratic_search(self, Q):
        # a cubic without a rational root is irreducible, so it is out of scope
        # before any Kronecker search, whose budget its values at 0, 1, -1 exceed
        with pytest.raises(FactorizationOutOfScope, match="does not split"):
            enumerate_closed_points(Q, [720720, 720719, 720720, 1])


class TestLocalExpansion:
    def test_simple_pole(self, Q):
        form = RationalForm(Q, [1], [-1, 1])  # dt/(t-1)
        pt = ClosedPoint(Q, [-1, 1])
        assert local_residue(form, pt) == Fraction(1)

    def test_dt_at_infinity(self, Q):
        form = RationalForm(Q, [1], [1])
        pt = ClosedPoint.infinity(Q)
        omega = local_expansion(form, pt)
        g = omega.coefficient((1,))
        assert g.coefficient_at((-2,)) == g.field.from_int(-1)
        assert local_residue(form, pt) == Fraction(0)

    def test_degree2_point_f3(self, F3):
        # t dt/(t^2+1) at the quadratic point: residue 1
        form = RationalForm(F3, [0, 1], [1, 0, 1])
        pt = ClosedPoint(F3, [1, 0, 1])
        assert local_residue(form, pt) == 1
        # and 2 at infinity
        assert local_residue(form, ClosedPoint.infinity(F3)) == 2

    def test_double_pole(self, Q):
        # dt/t^2 has residue 0 at 0
        form = RationalForm(Q, [1], [0, 0, 1])
        assert local_residue(form, ClosedPoint(Q, [0, 1])) == Fraction(0)
        # (t+1) dt / t^2: residue at 0 is 1
        form2 = RationalForm(Q, [1, 1], [0, 0, 1])
        assert local_residue(form2, ClosedPoint(Q, [0, 1])) == Fraction(1)


class TestGlobalSum:
    def test_classic(self, Q):
        form = RationalForm(Q, [1], [0, -1, 1])  # dt/(t(t-1))
        residues, total = global_residues(form)
        assert total == Fraction(0)
        by_repr = {repr(p): r for p, r in residues.items()}
        assert by_repr["t"] == Fraction(-1)
        assert by_repr["-1 + t"] == Fraction(1)
        assert by_repr["infinity"] == Fraction(0)

    def test_dt(self, Q):
        assert global_residue_sum(RationalForm(Q, [1], [1])) == Fraction(0)

    def test_f3_example(self, F3):
        form = RationalForm(F3, [0, 1], [1, 0, 1])
        assert global_residue_sum(form) == 0

    @pytest.mark.parametrize("char", [0, 5])
    def test_random_forms_sum_zero(self, char):
        base = BaseField(char)
        rng = random.Random(char + 3)
        count = 0
        while count < 25:
            num = [base.from_int(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
            if not _poly_trim(list(num)):
                continue
            den = [base.one]
            for _ in range(rng.randint(1, 3)):
                kind = rng.random()
                if kind < 0.6:
                    lin = [base.from_int(rng.randint(-3, 3)), base.one]
                    den = _poly_mul(base, den, lin)
                else:
                    quad = [base.one, base.from_int(rng.randint(0, 2)), base.one]
                    den = _poly_mul(base, den, quad)
            if len(den) - 1 > 6:
                continue
            form = RationalForm(base, num, den)
            try:
                total = global_residue_sum(form)
            except FactorizationOutOfScope:
                continue
            assert total == base.zero
            count += 1

    @pytest.mark.parametrize("char", [0, 5])
    def test_rational_points_match_partial_fractions(self, char):
        base = BaseField(char)
        rng = random.Random(char + 9)
        count = 0
        while count < 15:
            roots = []
            for _ in range(rng.randint(1, 3)):
                roots.append(base.from_int(rng.randint(-3, 3)))
            den = [base.one]
            for r in roots:
                den = _poly_mul(base, den, [base.neg(r), base.one])
            num = [base.from_int(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
            if not _poly_trim(list(num)):
                continue
            form = RationalForm(base, num, den)
            count += 1
            for r in set(roots):
                pt = ClosedPoint(base, [base.neg(r), base.one])
                mine = local_residue(form, pt)
                oracle = partial_fraction_residue(base, form.num, form.den, r)
                assert mine == oracle

    def test_degree_trace_consistency(self, F3):
        # residue at a degree-d point equals the trace of the u^-1 coefficient
        form = RationalForm(F3, [0, 1], [1, 0, 1])
        pt = ClosedPoint(F3, [1, 0, 1])
        omega = local_expansion(form, pt)
        g = omega.coefficient((1,))
        from tlfields.scalars import ext_trace

        assert local_residue(form, pt) == ext_trace(g.coefficient_at((-1,)))


# -- the one factor search, against references of its own ---------------------


def _fp_monic(p, deg):
    for low in itertools.product(range(p), repeat=deg):
        yield list(low) + [1]


def _fp_divides(g, f, p):
    """Whether the monic g divides f over F_p, by long division."""
    f = list(f)
    while len(f) >= len(g):
        top, shift = f.pop(), len(f) + 1 - len(g)
        for i, c in enumerate(g[:-1]):
            f[shift + i] = (f[shift + i] - top * c) % p
    return not any(f)


def _fp_least_factor_degree(p, f):
    """The least degree of a proper monic factor of f, trying every degree
    below deg f; None when f is irreducible."""
    return next((deg for deg in range(1, len(f) - 1)
                 if any(_fp_divides(g, f, p) for g in _fp_monic(p, deg))), None)


class TestOneFactorSearch:
    @pytest.mark.parametrize("p, top", [(2, 4), (3, 4), (5, 3)])
    def test_every_monic_polynomial_over_fp(self, p, top):
        base = BaseField(p)
        for d in range(1, top + 1):
            for f in _fp_monic(p, d):
                least = _fp_least_factor_degree(p, f)
                if least is None:
                    assert make_extension(p, f).degree == d
                else:
                    with pytest.raises(ReduciblePolynomial) as ei:
                        make_extension(p, f)
                    assert str(ei.value) == f"factor of degree {least} found over GF({p})"
                factors = factor_denominator(base, f)
                product = [1]
                for g, m in factors.items():
                    assert g[-1] == 1 and _fp_least_factor_degree(p, list(g)) is None
                    for _ in range(m):
                        product = _poly_mul(base, product, list(g))
                assert product == f

    def test_seeded_products_over_q_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        Q = BaseField(0)
        rng = random.Random(11)
        for _ in range(60):
            f = [Fraction(1)]
            while True:
                deg = rng.choice((1, 2, 2, 3))
                if len(f) - 1 + deg > 5:
                    break
                g = [Fraction(rng.randint(-5, 5)) for _ in range(deg)] + [Fraction(1)]
                f = _poly_mul(Q, f, g)
                if rng.random() < 0.3:
                    break
            expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** e for e, c in enumerate(f))
            _, oracle = sympy.factor_list(expr, x)
            monic = {}
            for h, m in oracle:
                coeffs = [Fraction(int(c)) for c in reversed(sympy.Poly(h, x).all_coeffs())]
                monic[tuple(c / coeffs[-1] for c in coeffs)] = m
            # make_extension accepts exactly the irreducible f, naming the least factor
            least = min(len(g) - 1 for g in monic)
            if list(monic.values()) == [1] and least == len(f) - 1:
                assert make_extension(0, f).degree == len(f) - 1
            else:
                with pytest.raises(ReduciblePolynomial) as ei:
                    make_extension(0, f)
                if least > 1:
                    assert str(ei.value) == f"factor of degree {least} found over QQ"
                elif f[0] == 0:
                    assert str(ei.value) == "root at 0"
                else:
                    root = Fraction(str(ei.value).removeprefix("rational root "))
                    assert (-root, Fraction(1)) in monic
            # factor_denominator splits f into points of degree <= 2, or refuses
            if max(len(g) - 1 for g in monic) > 2:
                with pytest.raises(FactorizationOutOfScope):
                    factor_denominator(Q, f)
            else:
                assert factor_denominator(Q, f) == monic
