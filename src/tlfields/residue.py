"""The residue functional and its companions.

res_tlf extracts the trace of the t_1^-1 ... t_n^-1 coefficient of a top
separated form; by the uniformization and continuity properties this pins the
functional down uniquely, so no operator-theoretic construction is rerun
here.  trace_forms realizes the trace map on forms for unramified and tame
Kummer extensions; tate_residue_dim1 computes the dimension-1 abstract
residue as the trace of a finite-rank commutator; counterexample_char0
assembles the two-topologies example that separates the same Kähler form to
different residues.
"""

from itertools import permutations

from .errors import (
    LocalFieldError,
    UnsupportedExtension,
    WildRamification,
)
from .scalars import ExtField, ext_trace
from .series import Series, map_scalars, part_level1
from .forms import (
    AbstractForm,
    Gen,
    SeparatedForm,
    Sym,
    _sort_sign,
    dlog,
    identity_mapping,
)
from .tlf import TlfDescriptor, UniformizerSystem


def res_tlf(omega):
    """Residue of a top-degree separated form: trace of the (-1,...,-1) coefficient.

    InsufficientPrecision here is the operational form of continuity: the
    answer is refused rather than guessed when the window does not reach the
    needed coefficient.
    """
    desc = omega.descriptor
    n = desc.n
    if omega.degree != n:
        raise LocalFieldError(f"residue needs a degree-{n} form, got degree {omega.degree}")
    g = omega.coefficient(tuple(range(1, n + 1)))
    c = g.coefficient_at((-1,) * n)
    return ext_trace(c)


def residue_pairing(a, omega):
    """<a, omega> = res(a * omega)."""
    return res_tlf(omega.scale(a))


# ---------------------------------------------------------------------------
# extensions and the trace map on forms
# ---------------------------------------------------------------------------


class ExtensionSpec:
    """A supported finite extension L/K of equal-dimensional fields.

    unramified: L = k''((t_1, ..., t_n)) over K = k((t_1, ..., t_n)) with k''
    a finite extension of the base (K's own residue field must be the base).
    kummer: L = K(s), s^e = t_1, tame (characteristic does not divide e);
    L-series are written in the variable s at level 1.
    """

    def __init__(self, kind, descriptor, ext_field=None, e=None):
        self.kind = kind
        self.descriptor = descriptor
        if kind == "unramified":
            if not isinstance(ext_field, ExtField):
                raise UnsupportedExtension("unramified extension needs an ExtField")
            if descriptor.field.degree != 1:
                raise UnsupportedExtension(
                    "unramified trace is supported over a degree-1 last residue field"
                )
            if ext_field.base != descriptor.field.base:
                raise UnsupportedExtension("extension must share the base field")
            self.ext_field = ext_field
            self.e = 1
        elif kind == "kummer":
            if descriptor.n < 1:
                raise UnsupportedExtension("Kummer extension needs dimension >= 1")
            if not isinstance(e, int) or e < 1:
                raise UnsupportedExtension("Kummer index must be a positive integer")
            char = descriptor.char
            if char and e % char == 0:
                raise WildRamification(f"index {e} divisible by the characteristic {char}")
            self.ext_field = descriptor.field
            self.e = e
        else:
            raise UnsupportedExtension(f"unknown extension kind {kind!r}")

    @classmethod
    def unramified(cls, descriptor, ext_field):
        return cls("unramified", descriptor, ext_field=ext_field)

    @classmethod
    def kummer(cls, descriptor, e):
        return cls("kummer", descriptor, e=e)

    def upstairs_descriptor(self):
        if self.kind == "unramified":
            return TlfDescriptor(self.descriptor.n, self.ext_field, self.descriptor.window)
        return self.descriptor

    def embed(self, x):
        """Image of a K-element in L."""
        if self.kind == "unramified":
            L = self.upstairs_descriptor()
            return map_scalars(x, lambda s: L.field.from_base(s.coeffs[0]), L.field)
        return _stretch_level1(x, self.e)


def _stretch_level1(x, e):
    """Substitute t_1 = s^e: level-1 exponents multiply by e, gaps exactly zero."""
    if x.depth == 0 or e == 1:
        return x
    if x.is_exact_zero():
        return x
    zero = Series.zero(x.field, x.depth - 1)
    coeffs = []
    for k, c in enumerate(x.coeffs):
        if k:
            coeffs.extend([zero] * (e - 1))
        coeffs.append(c)
    return Series(x.field, x.depth, order=e * x.order, coeffs=coeffs, exact=x.exact)


def _kummer_component(x, e, r):
    """h_r in K with x = sum_r h_r s^r, collecting s-exponents congruent to r."""
    if x.depth == 0:
        raise LocalFieldError("component extraction needs depth >= 1")
    if x.is_exact_zero():
        return x
    k_lo = -((r - x.order) // e)  # ceil((order - r) / e)
    coeffs = x.coeffs[e * k_lo + r - x.order::e]
    return Series(x.field, x.depth, order=k_lo, coeffs=coeffs, exact=x.exact)


def _shift_level1(x, c):
    if x.depth == 0 or x.is_exact_zero() or c == 0:
        return x
    return Series(x.field, x.depth, order=x.order + c, coeffs=x.coeffs, exact=x.exact)


def kummer_trace_element(x, e):
    """tr_{L/K}(x) = e * (component of s-exponents divisible by e)."""
    comp = _kummer_component(x, e, 0)
    return comp.scalar_mul(x.field.from_int(e))


def kummer_norm(u, e, window=None):
    """Norm via the determinant of multiplication on the power basis 1, s, ..., s^(e-1)."""
    cols = []
    for c in range(e):
        shifted = _shift_level1(u, c)
        cols.append([_kummer_component(shifted, e, r) for r in range(e)])
    return _leibniz_det(cols, u.field, u.depth)


def unramified_trace_element(x, spec):
    """Coefficientwise scalar trace k'' -> k, landing in the downstairs field."""
    K = spec.descriptor
    return map_scalars(x, lambda s: K.field.from_base(s.trace()), K.field)


def unramified_norm(u, spec, window=None):
    """Determinant of multiplication on the power basis of k'' over the base."""
    d = spec.ext_field.degree
    K = spec.descriptor
    basis = spec.ext_field.basis()
    cols = []
    for c in range(d):
        prod = u.scalar_mul(basis[c])
        col = [
            map_scalars(prod, lambda s, rr=r: K.field.from_base(s.coeffs[rr]), K.field)
            for r in range(d)
        ]
        cols.append(col)
    return _leibniz_det(cols, K.field, K.n)


def _leibniz_det(cols, field, depth):
    """Determinant of the series matrix with columns cols, by the Leibniz formula.

    The matrices are e x e (tame Kummer) or d x d (unramified), both small.
    """
    det = Series.zero(field, depth)
    for perm in permutations(range(len(cols))):
        term = Series.one(field, depth)
        for c, r in enumerate(perm):
            term = term * cols[c][r]
        det = det + (term if _sort_sign(perm)[0] > 0 else -term)
    return det


def trace_forms(omega, spec):
    """Trace map on separated forms along a supported extension.

    In degree 0 it is the usual trace; dt_I coefficients are traced
    K-linearly, with ds first rewritten as dt_1 / (e s^(e-1)) in the Kummer
    case (tame, so e is invertible).
    """
    K = spec.descriptor
    if spec.kind == "unramified":
        out = {}
        for I, g in omega.coeffs.items():
            out[I] = unramified_trace_element(g, spec)
        return SeparatedForm(K, omega.degree, out)
    e = spec.e
    out = {}
    for I, g in omega.coeffs.items():
        if g.is_exact_zero():
            continue
        if 1 in I:
            # g ds ^ rest = g/(e s^(e-1)) dt_1 ^ rest; trace multiplies by e
            h = _shift_level1(g, 1 - e)
            out[I] = _kummer_component(h, e, 0)
        else:
            out[I] = _kummer_component(g, e, 0).scalar_mul(g.field.from_int(e))
    return SeparatedForm(K, omega.degree, out)


def norm_map(u, spec, window=None):
    if spec.kind == "unramified":
        return unramified_norm(u, spec, window)
    return kummer_norm(u, spec.e, window)


# ---------------------------------------------------------------------------
# Tate's dimension-1 residue via the finite-rank commutator
# ---------------------------------------------------------------------------


def tate_residue_dim1(f, g, shift=0):
    """Trace of [pi o mul(f), mul(g)] on the monomial basis at n = 1.

    pi projects onto t-exponents >= shift (the lattice t^shift O_1 along the
    standard complement); the commutator is supported on a finite band of
    exponents, and its trace is independent of shift.  The diagonal entry at
    t^m is (pi(f g t^m) - g pi(f t^m))_m, which is (g pi_<(f t^m))_m for
    m >= shift and -(g pi(f t^m))_m below it, pi_< the complementary
    projection onto exponents < shift; it vanishes outside
    [shift + min(v(g), 0), shift + max(-v(f), 0)).  Windowed operands are
    answered whenever the band's terms are guaranteed: each projection of
    f t^m is known where f t^m is known and on the side of shift it drops, and
    InsufficientPrecision is raised only when a coefficient of g pi_<(f t^m)
    or g pi(f t^m) that the trace needs lies beyond its window.
    """
    if f.depth != 1 or g.depth != 1:
        raise LocalFieldError("the commutator residue is one-dimensional")
    if f.field != g.field:
        raise LocalFieldError("operands over different fields")
    field = f.field
    if f.is_exact_zero() or g.is_exact_zero():
        return field.base.zero
    acc = field.zero
    for m in range(shift + min(g.order, 0), shift + max(-f.order, 0)):
        shifted = _shift_level1(f, m)
        if m >= shift:
            acc = acc + (g * part_level1(shifted, None, shift)).coefficient_at((m,))
        else:
            acc = acc - (g * part_level1(shifted, shift)).coefficient_at((m,))
    return ext_trace(acc)


# ---------------------------------------------------------------------------
# the characteristic-0 counterexample
# ---------------------------------------------------------------------------


def counterexample_char0(descriptor=None, binding=None, window=8):
    """Residues (res_st, res_nt) of the form t_1^{-1} db ^ t_2^{-1} dt_2.

    Under the standard separation the form dies (db is proportional to dt_2);
    after the pullback b -> b + t_1, which realizes the second topology, the
    dlog term survives.  Returns exactly (0, 1) for any binding of b whose
    value lives in t_2 alone.
    """
    if descriptor is None:
        from .scalars import make_extension

        descriptor = TlfDescriptor(2, make_extension(0, [0, 1]), window)
    if descriptor.char != 0:
        raise LocalFieldError("the counterexample needs characteristic 0")
    if descriptor.n != 2:
        raise LocalFieldError("the counterexample lives in dimension 2")
    if binding is None:
        # b = t_2 / (1 - t_2) = sum_{j>=1} t_2^j, truncated to the window
        t2 = descriptor.gen(2)
        binding = t2 * (descriptor.one() - t2).inv(window)
    b = Sym(descriptor, "b", binding)
    t1, t2 = Gen(descriptor, 1), Gen(descriptor, 2)
    alpha = AbstractForm.d_of(descriptor, b).scale(t1.inv()).wedge(
        AbstractForm.d_of(descriptor, t2).scale(t2.inv())
    )
    res_st = res_tlf(alpha.separate(window))
    mapping = identity_mapping(descriptor, [b])
    mapping["b"] = b + t1
    beta = alpha.pullback(mapping)
    res_nt = res_tlf(beta.separate(window))
    return res_st, res_nt


def dlog_standard(descriptor, window=None):
    """Convenience: dlog of the standard uniformizer system."""
    return dlog(UniformizerSystem.standard(descriptor), window)
