"""Residues of rational 1-forms on the projective line.

A form p(t)/q(t) dt over Q or F_p is expanded at each closed point of its
polar locus into the 1-dimensional local field there (residue field a finite
extension when the point is irreducible of higher degree, uniformizer the
minimal polynomial itself, via a Newton solve of m(T) = u), plus the point at
infinity with uniformizer 1/t.  Summing the local residues over all points
gives exactly zero.
"""

from .errors import FactorizationOutOfScope, IrreducibilityCheckInfeasible, LocalFieldError
from .scalars import (ExtField, _least_factor, _poly_derivative, _poly_divmod, _poly_ext_gcd,
                      _poly_str, _poly_trim)
from .series import Series, newton_inverse_1d
from .forms import SeparatedForm
from .residue import res_tlf
from .tlf import TlfDescriptor

MAX_POINT_DEGREE = 6


class ClosedPoint:
    """A closed point of P^1: a monic irreducible polynomial, or infinity."""

    def __init__(self, base, min_poly=None):
        self.base = base
        if min_poly is None:
            self.min_poly = None
            self.degree = 1
            return
        min_poly = [base.from_int(c) if base.char else base.from_fraction(c)
                    for c in min_poly]
        if not min_poly or min_poly[-1] != base.one:
            raise LocalFieldError("point polynomial must be monic")
        self.min_poly = tuple(min_poly)
        self.degree = len(min_poly) - 1

    @classmethod
    def infinity(cls, base):
        return cls(base)

    @property
    def is_infinity(self):
        return self.min_poly is None

    def __eq__(self, other):
        return (
            isinstance(other, ClosedPoint)
            and self.base == other.base
            and self.min_poly == other.min_poly
        )

    def __hash__(self):
        return hash((self.base, self.min_poly))

    def __repr__(self):
        if self.is_infinity:
            return "infinity"
        return _poly_str(self.min_poly, "t")


class RationalForm:
    """p(t)/q(t) dt with gcd-reduced polynomials over the base field."""

    def __init__(self, base, num, den):
        num = _coerce_poly(base, num)
        den = _coerce_poly(base, den)
        if not den:
            raise LocalFieldError("denominator is zero")
        g = _poly_ext_gcd(base, num, den)[0]
        if len(g) > 1:
            num, _ = _poly_divmod(base, num, g)
            den, _ = _poly_divmod(base, den, g)
        # normalize the denominator monic
        lead_inv = base.inv(den[-1])
        den = [base.mul(c, lead_inv) for c in den]
        num = [base.mul(c, lead_inv) for c in num]
        self.base = base
        self.num = tuple(num)
        self.den = tuple(den)

    def __repr__(self):
        return f"({_poly_str(self.num, 't')})/({_poly_str(self.den, 't')}) dt"


def _coerce_poly(base, poly):
    return _poly_trim(
        [base.from_int(c) if base.char else base.from_fraction(c) for c in poly]
    )


# ---------------------------------------------------------------------------
# factorization of denominators (scalars._least_factor, desk scale)
# ---------------------------------------------------------------------------


def factor_denominator(base, den):
    """Monic irreducible factors with multiplicities, found least degree first
    by the factor search that checks ExtField irreducibility.  Over F_p every
    factor must have degree <= MAX_POINT_DEGREE; over Q, degree <= 2."""
    lead_inv = base.inv(den[-1])
    den = [base.mul(c, lead_inv) for c in den]
    factors = {}
    while len(den) > 1:
        try:
            g = _least_factor(base, den, MAX_POINT_DEGREE if base.char else 2)
        except IrreducibilityCheckInfeasible as exc:
            raise FactorizationOutOfScope("quadratic factor search too large") from exc
        if g is None:
            raise FactorizationOutOfScope(
                f"denominator has an irreducible factor of degree > {MAX_POINT_DEGREE}"
                if base.char
                else "denominator does not split into linear and quadratic factors over Q"
            )
        den = _poly_divmod(base, den, g)[0]
        factors[tuple(g)] = factors.get(tuple(g), 0) + 1
    return factors


def enumerate_closed_points(base, den, include_infinity=True):
    """The polar locus of a denominator, optionally with the point at infinity."""
    factors = factor_denominator(base, list(den))
    points = [ClosedPoint(base, list(poly)) for poly in sorted(factors)]
    if include_infinity:
        points.append(ClosedPoint.infinity(base))
    return points


# ---------------------------------------------------------------------------
# local expansions
# ---------------------------------------------------------------------------


def local_field_at(point):
    """The 1-dimensional local field at a closed point."""
    base = point.base
    if point.is_infinity or point.degree == 1:
        ext = ExtField(base, [base.zero, base.one])
    else:
        ext = ExtField(base, list(point.min_poly))
    return TlfDescriptor(1, ext)


def _eval_poly_at_series(poly, T, field):
    """Evaluate a base-coefficient polynomial at a series over an extension."""
    acc = Series.zero(field, 1)
    for c in reversed(poly):
        acc = acc * T + Series.constant(field, 1, field.from_base(c))
    return acc


def _uniformizer_expansion(point, window):
    """T(u) in k(x)[[u]] with m(T) = u and T(0) the residue of t: theta plus
    the compositional inverse of m(theta + u), which has valuation 1 since m
    is separable."""
    base = point.base
    K = local_field_at(point)
    field = K.field
    if point.degree == 1:
        # m = t - c: T = c + u exactly
        c = base.neg(point.min_poly[0])
        theta = field.from_base(c)
        return K, Series.from_terms(field, 1, {(0,): theta, (1,): field.one})
    theta = Series.constant(field, 1, field.gen)
    shifted = _eval_poly_at_series(point.min_poly, theta + Series.generator(field, 1, 1), field)
    return K, theta + newton_inverse_1d(shifted, window=window + 1)


def local_expansion(form, point, window=None):
    """The form expanded in the local uniformizer at a closed point."""
    base = form.base
    if point.is_infinity:
        K = local_field_at(point)
        field = K.field
        dp = len(form.num) - 1
        dq = len(form.den) - 1
        w = max(0, dp + 2 - dq) + 3 if window is None else window
        # t = 1/u: p(1/u)/q(1/u) = u^(dq-dp) rev(p)/rev(q); dt = -u^-2 du
        revp = list(reversed(form.num))
        revq = list(reversed(form.den))
        num_series = _eval_poly_at_series(revp, Series.generator(field, 1, 1), field)
        den_series = _eval_poly_at_series(revq, Series.generator(field, 1, 1), field)
        g = num_series * den_series.inv(w + dq + 2)
        shift = Series.monomial(field, 1, (dq - dp - 2,), field.from_int(-1))
        coeff = shift * g
        return SeparatedForm(K, 1, {(1,): coeff})
    mult = _multiplicity(base, form.den, point.min_poly)
    w = mult + 3 if window is None else window
    K, T = _uniformizer_expansion(point, w + mult)
    field = K.field
    pT = _eval_poly_at_series(form.num, T, field)
    qT = _eval_poly_at_series(form.den, T, field)
    mp = _poly_derivative(base, list(point.min_poly))
    mpT = _eval_poly_at_series(mp, T, field)
    # dT/du = 1/m'(T) since m(T(u)) = u
    coeff = pT * qT.inv(w + mult) * mpT.inv(w + mult)
    return SeparatedForm(K, 1, {(1,): coeff})


def _multiplicity(base, den, min_poly):
    count = 0
    den = list(den)
    while True:
        q, r = _poly_divmod(base, den, list(min_poly))
        if r:
            return count
        den = q
        count += 1


def local_residue(form, point, window=None):
    """The residue at one closed point (traced down to the base field)."""
    return res_tlf(local_expansion(form, point, window))


def global_residues(form, include_infinity=True, window=None):
    """Per-point residues over the polar locus plus infinity, and their sum."""
    points = enumerate_closed_points(form.base, form.den, include_infinity)
    out = {}
    total = form.base.zero
    for pt in points:
        r = local_residue(form, pt, window)
        out[pt] = r
        total = form.base.add(total, r)
    return out, total


def global_residue_sum(form, window=None):
    """Sum of all local residues; zero for every rational form."""
    _, total = global_residues(form, include_infinity=True, window=window)
    return total
