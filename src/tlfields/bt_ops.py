"""The operator algebra on K and its membership certificates.

Operators form a closed class of k-linear endomorphisms built from
multiplications, continuous differential operators in the divided-power basis,
level projections relative to a lifting system, coefficientwise
lifts, and explicit finite-rank maps, combined by composition, addition and
scalar multiple.

Each node class carries its own part of every analysis: evaluation, band and
shift bounds, the image lower bound, the killed-lattice restriction, the
quotient pushdown, rebinding to another lifting system, and JSON.  Nodes are
compared and hashed by structure (class and constructor fields, lifting
systems by their JSON form), so equal subtrees built apart cancel in the
lattice analysis.

Membership in the ring of local operators and its per-level ideals is
*certified*, never decided: every certificate carries band bounds and witness
data that imply the quantified lattice conditions for this structured class,
and can be replayed against a probe set.  Level >= 2 targets are certified
recursively through the induced quotient map on one rung [lo, hi) that the
operator's nodes determine: outside the rung, every column of the operator's
matrix over the basis a^q repeats a column inside it up to nonzero scalars,
so the entries on the rung are all the entries any lattice quotient shows.
"""

import json
import math
from collections import namedtuple

from .errors import (
    InsufficientPrecision,
    LocalFieldError,
    NotCertifiable,
    NotReduced,
    ParseError,
)
from .scalars import ext_trace, mat_mul, mat_vec, row_reduce
from .series import Series, binomial, level1_valuation, truncate_level1
from .tlf import LiftingSystem, sigma_expand


# How many operators a JSON operator may sit inside.  The node methods recurse
# on their parts: with 451 nested operators every node type's certify and
# trace-op answer, as a subprocess and under pytest; with 480, under pytest,
# json.loads (compose, add) or a ScalarMul's repr (trace-op) would overflow.
MAX_JSON_NESTING = 450


Window1 = namedtuple("Window1", "span breaks image degree")
Window1.__doc__ = """How a node's matrix M(q_out, q_in) over the basis {a^q} varies.

span    -- half-open range of q_out - q_in over the entries of paths through
           no finite-rank node; None when every path passes one
breaks  -- (x, y): every column q_in < x repeats column x - 1 and every column
           q_in >= y repeats column y, shifted along the diagonal and up to
           nonzero scalars polynomial in q_in; None when all columns repeat
image   -- half-open range of the rows that paths through a finite-rank node
           reach; None when no path passes one
degree  -- bound on the degree of those scalars in q_in
"""


def _hull(x, y):
    """Smallest interval holding x and y; None is empty."""
    if x is None:
        return y
    if y is None:
        return x
    return (min(x[0], y[0]), max(x[1], y[1]))


def _shift(x, span):
    """The interval x moved by every shift in the half-open span."""
    if x is None or span is None:
        return None
    return (x[0] + span[0], x[1] + span[1] - 1)


class OperatorExpr:
    """Base class for nodes of the operator tree; immutable.

    The analyses below are defined by every node class of the closed class;
    these fallbacks refuse a node outside it by name.
    """

    def __init__(self, descriptor):
        self.descriptor = descriptor

    def apply(self, x, window=None):
        raise NotImplementedError

    def _outside(self):
        return NotCertifiable(
            f"operator node {type(self).__name__} is outside the closed class"
        )

    def band1(self):
        """d with v_1(phi x) >= v_1(x) - d."""
        raise self._outside()

    def window1(self):
        """The Window1 of the node's quotient pushdown; shift-free nodes have span (0, 1)."""
        raise self._outside()

    def image_lb(self, in_lb):
        """Lower bound for v_1 of the image over inputs with v_1 >= in_lb (None = all of K)."""
        raise self._outside()

    def kill_shift(self, s, out):
        """v_1 shift of inputs with v_1 >= s; appends to out the cutoffs m >= k - s
        that decide every projection and finite-rank node."""
        raise self._outside()

    def chains(self, m):
        """Chains equivalent to the node on inputs with v_1 >= m.

        A chain is a tuple of nodes in outermost-first application order;
        adjacent multiplications are merged later, every other node is an
        opaque atom.
        """
        raise self._outside()

    def pushdown(self, lo, hi):
        """Matrix of the induced map on the basis {a^q : lo <= q < hi} of
        a^lo O_1 / a^hi O_1, entries as depth-(n-1) OperatorExprs: the
        block [lo, hi) x [lo, hi) of the node's matrix over the basis {a^q}.

        Sound for standard level-1 liftings; twisted level-1 liftings are
        refused (certification under them is out of the structured class).
        """
        raise self._outside()

    def rebind(self, system):
        """Copy of the tree with every projection and lift bound to the given system."""
        return self

    def multiplier(self):
        """The element of K the node multiplies by, or None."""
        return None

    def to_json(self):
        raise LocalFieldError(f"cannot serialize {type(self).__name__}")

    def _fields(self):
        """Constructor fields that determine the node; a foreign node equals only itself."""
        return (id(self),)

    def _key(self):
        return (type(self),) + self._fields()

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __add__(self, other):
        return AddOp([self, other])

    def __sub__(self, other):
        return AddOp([self, ScalarMul(self.descriptor.field.from_int(-1), other)])

    def __call__(self, x, window=None):
        return self.apply(x, window)


def _system_key(sigma):
    return json.dumps(sigma.to_json(), sort_keys=True)


def _add_entry(matrix, key, op):
    matrix[key] = AddOp([matrix[key], op]) if key in matrix else op


class MulBy(OperatorExpr):
    """Multiplication by a fixed element of K."""

    def __init__(self, descriptor, f):
        super().__init__(descriptor)
        if f.depth != descriptor.n or f.field != descriptor.field:
            raise LocalFieldError("multiplier has the wrong ambient field")
        self.f = f

    def _fields(self):
        return (self.descriptor, self.f)

    def apply(self, x, window=None):
        return self.f * x

    def band1(self):
        if self.f.is_exact_zero():
            return 0
        return -level1_valuation(self.f)

    def window1(self):
        f = self.f
        if not f.exact:
            raise NotCertifiable(
                f"{self!r} is known only below t_1^{f.end}, so not all its quotient"
                " entries are known"
            )
        span = (0, 1) if f.is_exact_zero() else (f.order, f.order + len(f.coeffs))
        return Window1(span, None, None, 0)

    def image_lb(self, in_lb):
        if self.f.is_exact_zero():
            return math.inf
        v = level1_valuation(self.f)
        return None if in_lb is None else in_lb + v

    def kill_shift(self, s, out):
        return s + (self.f.order if not self.f.is_exact_zero() else 0)

    def chains(self, m):
        return [(self,)]

    def pushdown(self, lo, hi):
        sub_desc = self.descriptor.residue_descriptor()
        out = {}
        for q_in in range(lo, hi):
            for q_out in range(lo, hi):
                try:
                    fu = self.f.coefficient_level1(q_out - q_in)
                except InsufficientPrecision:
                    raise NotCertifiable(
                        f"{self!r}: multiplier window too small for the quotient pushdown"
                    )
                if not fu.is_exact_zero():
                    out[(q_out, q_in)] = MulBy(sub_desc, fu)
        return out

    def multiplier(self):
        return self.f

    def to_json(self):
        return {"op": "mulby", "f": self.f.to_json()}

    def __repr__(self):
        return f"mul({self.f!r})"


class DiffOp(OperatorExpr):
    """A finite sum of terms a_I * d^[I], where d^[I] is the product over the
    axes of the divided-power derivatives d^[I_axis] (``Series.divided_derivative``).

    The d^[I] with |I| <= d span the continuous differential operators of
    order <= d over the coefficients, in every characteristic, so each such
    operator is a DiffOp.  In characteristic 0, d^[I] is d^I / prod_axis
    I_axis!, which is d^I when every I_axis <= 1.
    """

    def __init__(self, descriptor, terms):
        super().__init__(descriptor)
        self.terms = tuple((c, tuple(I)) for c, I in terms)
        for c, I in self.terms:
            if len(I) != descriptor.n or any(i < 0 for i in I):
                raise LocalFieldError("derivative orders must be a nonnegative multi-index")

    @classmethod
    def partial(cls, descriptor, axis):
        I = tuple(1 if i == axis - 1 else 0 for i in range(descriptor.n))
        return cls(descriptor, [(descriptor.one(), I)])

    def _fields(self):
        return (self.descriptor, self.terms)

    def apply(self, x, window=None):
        out = Series.zero(x.field, x.depth)
        for c, I in self.terms:
            y = x
            for axis, k in enumerate(I, start=1):
                if k:
                    y = y.divided_derivative(axis, k)
            out = out + c * y
        return out

    def band1(self):
        worst = 0
        for c, I in self.terms:
            if c.is_exact_zero():
                continue
            worst = max(worst, I[0] - level1_valuation(c))
        return worst

    def window1(self):
        span, order, p = None, 0, self.descriptor.char
        for c, I in self.terms:
            if c.is_exact_zero():
                continue
            if I[0] and p:
                raise NotCertifiable(
                    f"{self!r}: d_1^[{I[0]}] scales the quotient column q by C(q, {I[0]}),"
                    f" which vanishes mod {p} at some q outside [0, {I[0]}), so the columns"
                    " do not repeat up to nonzero scalars"
                )
            if not c.exact:
                raise NotCertifiable(
                    f"{self!r} has a coefficient known only below t_1^{c.end}, so not"
                    " all its quotient entries are known"
                )
            span = _hull(span, (c.order - I[0], c.order + len(c.coeffs) - I[0]))
            order = max(order, I[0])
        # d_1^[i] a^q = C(q, i) a^(q - i): in characteristic 0 the binomial
        # vanishes exactly for q in [0, i)
        return Window1(span or (0, 1), (0, order) if order else None, None, order)

    def image_lb(self, in_lb):
        b = self.band1()
        return None if in_lb is None else in_lb - b

    def kill_shift(self, s, out):
        shifts = [c.order - I[0] for c, I in self.terms if not c.is_exact_zero()]
        return s + min(shifts, default=0)

    def chains(self, m):
        return [(self,)]

    def pushdown(self, lo, hi):
        sub_desc = self.descriptor.residue_descriptor()
        out = {}
        for c, I in self.terms:
            if c.is_exact_zero():
                continue
            i1 = I[0]
            inner_I = I[1:]
            for q_in in range(lo, hi):
                # d_1^[i1] on a^q gives the binomial C(q, i1)
                factor = sub_desc.field.from_int(binomial(q_in, i1))
                if factor.is_zero():
                    continue
                mid = q_in - i1
                for q_out in range(lo, hi):
                    try:
                        cu = c.coefficient_level1(q_out - mid)
                    except InsufficientPrecision:
                        raise NotCertifiable(
                            f"{self!r}: coefficient window too small for pushdown"
                        )
                    if cu.is_exact_zero():
                        continue
                    entry = MulBy(sub_desc, cu)
                    if any(inner_I):
                        entry = Compose([entry, DiffOp(sub_desc, [(sub_desc.one(), inner_I)])])
                    entry = ScalarMul(factor, entry)
                    _add_entry(out, (q_out, q_in), entry)
        return out

    def to_json(self):
        return {
            "op": "diff",
            "terms": [{"c": c.to_json(), "orders": list(I)} for c, I in self.terms],
        }

    def __repr__(self):
        return "diff(" + ", ".join(f"{c!r}*d^{list(I)}" for c, I in self.terms) + ")"


def _map_coefficients(x, sigma1, act, window):
    """Reassemble x with act(b_q, q) in place of each sigma_1-expansion coefficient b_q."""
    if x.is_exact_zero():
        return x
    if sigma1.is_standard():
        coeffs = [act(c, x.order + k) for k, c in enumerate(x.coeffs)]
        return Series(x.field, x.depth, order=x.order, coeffs=coeffs, exact=x.exact)
    acc = Series.zero(x.field, x.depth)
    t1 = Series.generator(x.field, x.depth, 1)
    for bq, q in sigma_expand(x, sigma1, window=window):
        y = act(bq, q)
        if not y.is_exact_zero():
            acc = acc + sigma1.apply(y) * t1.__pow__(q)
    # the expansion covered a finite window; cap the claim accordingly
    stop = x.end if x.end is not None else x.order + window
    return truncate_level1(acc, stop)


def _project(x, level, keep, sigma, window):
    if level == 1:
        zero = Series.zero(x.field, x.depth - 1)
        return _map_coefficients(
            x, sigma.sigma1, lambda c, q: c if keep(q) else zero, window
        )
    # level >= 2: act coefficientwise through the level-1 expansion
    sub = sigma.d1()
    return _map_coefficients(
        x, sigma.sigma1, lambda c, q: _project(c, level - 1, keep, sub, window), window
    )


class LevelProjection(OperatorExpr):
    """Projection onto sigma-expansion exponents >= m or < m at one level."""

    def __init__(self, descriptor, level, cmp, cutoff, sigma):
        super().__init__(descriptor)
        if not 1 <= level <= descriptor.n:
            raise LocalFieldError(f"level {level} outside 1..{descriptor.n}")
        if cmp not in (">=", "<"):
            raise LocalFieldError("projection predicate must be '>=' or '<'")
        if not isinstance(sigma, LiftingSystem):
            raise LocalFieldError("projection needs a LiftingSystem")
        self.level = level
        self.cmp = cmp
        self.cutoff = cutoff
        self.sigma = sigma

    def _fields(self):
        return (self.descriptor, self.level, self.cmp, self.cutoff, _system_key(self.sigma))

    def _keep(self, q):
        return q >= self.cutoff if self.cmp == ">=" else q < self.cutoff

    def apply(self, x, window=None):
        w = self.descriptor.window if window is None else window
        return _project(x, self.level, self._keep, self.sigma, w)

    def band1(self):
        return 0

    def window1(self):
        # level 1 keeps the columns on one side of the cutoff
        cut = (self.cutoff, self.cutoff) if self.level == 1 else None
        return Window1((0, 1), cut, None, 0)

    def image_lb(self, in_lb):
        if self.level == 1 and self.cmp == ">=":
            return self.cutoff if in_lb is None else max(self.cutoff, in_lb)
        return in_lb

    def kill_shift(self, s, out):
        if self.level == 1:
            out.append(self.cutoff - s)
        return s

    def chains(self, m):
        if self.level == 1 and m >= self.cutoff:
            return [()] if self.cmp == ">=" else []
        return [(self,)]

    def pushdown(self, lo, hi):
        if not self.sigma.sigma1.is_standard():
            raise NotCertifiable(f"{self!r}: pushdown under a twisted level-1 lifting")
        sub_desc = self.descriptor.residue_descriptor()
        if self.level == 1:
            one = MulBy(sub_desc, sub_desc.one())
            return {(q, q): one for q in range(lo, hi) if self._keep(q)}
        inner = LevelProjection(
            sub_desc, self.level - 1, self.cmp, self.cutoff, self.sigma.d1()
        )
        return {(q, q): inner for q in range(lo, hi)}

    def rebind(self, system):
        return LevelProjection(self.descriptor, self.level, self.cmp, self.cutoff, system)

    def to_json(self):
        return {"op": "proj", "level": self.level, "cmp": self.cmp, "cutoff": self.cutoff}

    def __repr__(self):
        return f"proj{self.level}({self.cmp}{self.cutoff})"


class CoeffLift(OperatorExpr):
    """Apply a depth-(n-1) operator to every sigma_1-expansion coefficient."""

    def __init__(self, descriptor, inner, sigma):
        super().__init__(descriptor)
        self.inner = inner
        self.sigma = sigma
        if inner.descriptor.n != descriptor.n - 1:
            raise LocalFieldError("inner operator must live one level down")

    def _fields(self):
        return (self.descriptor, self.inner, _system_key(self.sigma))

    def apply(self, x, window=None):
        w = self.descriptor.window if window is None else window
        return _map_coefficients(
            x, self.sigma.sigma1, lambda c, q: self.inner.apply(c, w), w
        )

    def band1(self):
        self.inner.band1()  # refuses an inner tree outside the closed class
        return 0

    def window1(self):
        return Window1((0, 1), None, None, 0)

    def image_lb(self, in_lb):
        return in_lb

    def kill_shift(self, s, out):
        return s

    def chains(self, m):
        return [(self,)]

    def pushdown(self, lo, hi):
        if not self.sigma.sigma1.is_standard():
            raise NotCertifiable(f"{self!r}: pushdown under a twisted level-1 lifting")
        return {(q, q): self.inner for q in range(lo, hi)}

    def rebind(self, system):
        return CoeffLift(self.descriptor, self.inner, system)

    def to_json(self):
        return {"op": "coefflift", "inner": self.inner.to_json()}

    def __repr__(self):
        return f"lift({self.inner!r})"


class FiniteRank(OperatorExpr):
    """x -> sum over matrix entries M[out,in] * coeff_in(x) * t^out."""

    def __init__(self, descriptor, matrix):
        super().__init__(descriptor)
        self.matrix = {
            (tuple(o), tuple(i)): v for (o, i), v in matrix.items() if not v.is_zero()
        }
        for (o, i) in self.matrix:
            if len(o) != descriptor.n or len(i) != descriptor.n:
                raise LocalFieldError("matrix indices must match the ambient depth")

    def _fields(self):
        return (self.descriptor, tuple(sorted(self.matrix.items())))

    def apply(self, x, window=None):
        desc = self.descriptor
        out = desc.zero()
        for (o, i), v in sorted(self.matrix.items()):
            c = x.coefficient_at(i)
            if c.is_zero():
                continue
            out = out + desc.monomial(o, c * v)
        return out

    def band1(self):
        if not self.matrix:
            return 0
        return max(0, max(i[0] - o[0] for (o, i) in self.matrix))

    def window1(self):
        if not self.matrix:
            return Window1(None, None, None, 0)
        return Window1(None, self.in_range1(), self.out_range1(), 0)

    def out_range1(self):
        if not self.matrix:
            return (0, 0)
        lows = [o[0] for (o, i) in self.matrix]
        return (min(lows), max(lows) + 1)

    def in_range1(self):
        if not self.matrix:
            return (0, 0)
        ins = [i[0] for (o, i) in self.matrix]
        return (min(ins), max(ins) + 1)

    def image_lb(self, in_lb):
        if not self.matrix:
            return math.inf
        return self.out_range1()[0]

    def kill_shift(self, s, out):
        out.append(self.in_range1()[1] - s)
        return s

    def chains(self, m):
        return [] if m >= self.in_range1()[1] else [(self,)]

    def pushdown(self, lo, hi):
        sub_desc = self.descriptor.residue_descriptor()
        out = {}
        for (o, i), v in self.matrix.items():
            if lo <= o[0] < hi and lo <= i[0] < hi:
                _add_entry(out, (o[0], i[0]), FiniteRank(sub_desc, {(o[1:], i[1:]): v}))
        return out

    def to_json(self):
        return {
            "op": "finrank",
            "entries": [
                {"out": list(o), "in": list(i), "value": [str(c) for c in v.coeffs]}
                for (o, i), v in sorted(self.matrix.items())
            ],
        }

    def __repr__(self):
        return f"finrank({len(self.matrix)} entries)"


class Compose(OperatorExpr):
    def __init__(self, parts):
        parts = list(parts)
        super().__init__(parts[0].descriptor)
        flat = []
        for p in parts:
            if isinstance(p, Compose):
                flat.extend(p.parts)
            else:
                flat.append(p)
        self.parts = tuple(flat)

    def _fields(self):
        return self.parts

    def apply(self, x, window=None):
        for p in reversed(self.parts):
            x = p.apply(x, window)
        return x

    def band1(self):
        return sum(p.band1() for p in self.parts)

    def _stages(self):
        """Per part, innermost first: its window, and the shifts (span) and the
        finite-rank rows (image) of the paths that reach it; then the span and
        image of the paths that leave the last part."""
        stages = []
        span, image = (0, 1), None
        for p in reversed(self.parts):
            w = p.window1()
            stages.append((w, span, image))
            image = _hull(_shift(image, w.span), w.image if span or image else None)
            span = _shift(span, w.span)
        return stages, span, image

    def window1(self):
        stages, span, image = self._stages()
        breaks = None
        for w, s, _ in stages:
            if w.breaks and s:
                # column q_in reaches the part at q_in + s for every shift s in the span
                breaks = _hull(breaks, (w.breaks[0] - s[1] + 1, w.breaks[1] - s[0]))
        return Window1(span, breaks, image, sum(w.degree for w, _, _ in stages))

    def image_lb(self, in_lb):
        for p in reversed(self.parts):
            in_lb = p.image_lb(in_lb)
        return in_lb

    def kill_shift(self, s, out):
        for p in reversed(self.parts):
            s = p.kill_shift(s, out)
        return s

    def chains(self, m):
        # innermost-first, to learn the incoming shift of each part
        shifts = []
        for p in reversed(self.parts):
            shifts.append(m)
            m = p.kill_shift(m, [])
        chains = [()]
        for p, s_in in zip(self.parts, reversed(shifts)):
            chains = [c + pc for c in chains for pc in p.chains(s_in)]
        return chains

    def pushdown(self, lo, hi):
        # one working range holds every exponent a path between columns and
        # rows in [lo, hi) passes, so no path is clipped
        wide = (lo, hi)
        for _, span, image in self._stages()[0]:
            wide = _hull(wide, _hull(_shift((lo, hi), span), image))
        acc = None
        for mat in reversed([p.pushdown(*wide) for p in self.parts]):
            if acc is None:
                acc = mat
                continue
            new = {}
            for (q_mid, q_in), op_in in acc.items():
                for (q_out, q_mid2), op_out in mat.items():
                    if q_mid2 == q_mid:
                        _add_entry(new, (q_out, q_in), Compose([op_out, op_in]))
            acc = new
        return {
            (o, i): op
            for (o, i), op in acc.items()
            if lo <= i < hi and lo <= o < hi
        }

    def rebind(self, system):
        return Compose([p.rebind(system) for p in self.parts])

    def to_json(self):
        return {"op": "compose", "parts": [p.to_json() for p in self.parts]}

    def __repr__(self):
        return " . ".join(repr(p) for p in self.parts)


class AddOp(OperatorExpr):
    def __init__(self, parts):
        parts = list(parts)
        super().__init__(parts[0].descriptor)
        flat = []
        for p in parts:
            if isinstance(p, AddOp):
                flat.extend(p.parts)
            else:
                flat.append(p)
        self.parts = tuple(flat)

    def _fields(self):
        return self.parts

    def apply(self, x, window=None):
        out = Series.zero(x.field, x.depth)
        for p in self.parts:
            out = out + p.apply(x, window)
        return out

    def band1(self):
        return max(0, *(p.band1() for p in self.parts))

    def window1(self):
        span = breaks = image = None
        degree = 0
        for w in (p.window1() for p in self.parts):
            span, image = _hull(span, w.span), _hull(image, w.image)
            breaks = _hull(breaks, w.breaks)
            degree = max(degree, w.degree)
        return Window1(span, breaks, image, degree)

    def image_lb(self, in_lb):
        lows = [p.image_lb(in_lb) for p in self.parts]
        if any(v is None for v in lows):
            return None
        return min(lows)

    def kill_shift(self, s, out):
        return min([p.kill_shift(s, out) for p in self.parts])

    def chains(self, m):
        return [c for p in self.parts for c in p.chains(m)]

    def pushdown(self, lo, hi):
        out = {}
        for p in self.parts:
            for k, op in p.pushdown(lo, hi).items():
                _add_entry(out, k, op)
        return out

    def rebind(self, system):
        return AddOp([p.rebind(system) for p in self.parts])

    def to_json(self):
        return {"op": "add", "parts": [p.to_json() for p in self.parts]}

    def __repr__(self):
        return " + ".join(repr(p) for p in self.parts)


class ScalarMul(OperatorExpr):
    def __init__(self, scalar, part):
        super().__init__(part.descriptor)
        if isinstance(scalar, int):
            scalar = part.descriptor.field.from_int(scalar)
        self.scalar = scalar
        self.part = part

    def _fields(self):
        return (self.scalar, self.part)

    def apply(self, x, window=None):
        return self.part.apply(x, window).scalar_mul(self.scalar)

    def band1(self):
        band = self.part.band1()  # computed even for 0, to refuse a part outside the class
        return 0 if self.scalar.is_zero() else band

    def window1(self):
        return self.part.window1()

    def image_lb(self, in_lb):
        if self.scalar.is_zero():
            return math.inf
        return self.part.image_lb(in_lb)

    def kill_shift(self, s, out):
        return self.part.kill_shift(s, out)

    def chains(self, m):
        const = MulBy(self.descriptor, self.descriptor.constant(self.scalar))
        return [(const,) + c for c in self.part.chains(m)]

    def pushdown(self, lo, hi):
        return {k: ScalarMul(self.scalar, op) for k, op in self.part.pushdown(lo, hi).items()}

    def rebind(self, system):
        return ScalarMul(self.scalar, self.part.rebind(system))

    def to_json(self):
        return {
            "op": "scalarmul",
            "scalar": [str(c) for c in self.scalar.coeffs],
            "part": self.part.to_json(),
        }

    def __repr__(self):
        return f"{self.scalar!r}·({self.part!r})"


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


class Certificate:
    """Machine-checkable evidence for membership of an operator.

    For the ring: the per-node band bounds.  For the first-level ideals: the
    witness lattice shift (bounded image; math.inf when the image is zero) or
    the killed lattice shift.  For deeper levels: the rung (lo, hi) of
    pushdown_rung and a recursive certificate for every entry of the induced
    quotient matrix on it, keyed by (q_out, q_in).
    """

    def __init__(self, phi, target, band=None, witness_shift=None, killed_shift=None,
                 rung=None, entries=None):
        self.phi = phi
        self.target = target
        self.band = band
        self.witness_shift = witness_shift
        self.killed_shift = killed_shift
        self.rung = rung
        self.entries = entries or {}

    def level_bounds(self):
        """Per-level (image shift, killed shift) pairs harvested recursively."""
        if self.target == "E":
            return []
        i, j = self.target
        if i == 1:
            return [(self.witness_shift, self.killed_shift)]
        inner = None
        for cert in self.entries.values():
            b = cert.level_bounds()[-1]
            if inner is None:
                inner = b
            else:
                lo = None
                if b[0] is not None and inner[0] is not None:
                    lo = min(inner[0], b[0])
                hi = None
                if b[1] is not None and inner[1] is not None:
                    hi = max(inner[1], b[1])
                inner = (lo, hi)
        # no entry on the rung means the operator is zero: its bounds are those
        # of the zero operator at level 1, image bound inf and killed shift 0
        return [(None, None)] * (i - 1) + [inner or (math.inf, 0)]

    def replay(self, probes, window=None):
        """Re-validate the evidence on fresh probe inputs."""
        phi = self.phi
        w = phi.descriptor.window if window is None else window
        if self.target == "E":
            if phi.descriptor.n == 0:
                return True  # E(K) is all of End_k(K): there is no band to check
            for p in probes:
                img = phi.apply(p, w)
                try:
                    vp = p.valuation()
                    vi = img.valuation() if not img.is_exact_zero() else None
                except InsufficientPrecision:
                    continue
                if vi is not None and vi[0] < vp[0] - self.band:
                    return False
            return True
        i, j = self.target
        if i == 1 and j == 1:
            for p in probes:
                img = phi.apply(p, w)
                if img.is_exact_zero():
                    continue
                try:
                    v = level1_valuation(img)
                except InsufficientPrecision:
                    continue
                if v is not None and v < self.witness_shift:
                    return False
            return True
        if i == 1 and j == 2:
            desc = phi.descriptor
            shift = self.killed_shift
            for p in probes:
                x = p * desc.monomial((shift + max(0, -p.order),) + (0,) * (desc.n - 1))
                img = phi.apply(x, w)
                if not (img.is_exact_zero() or img.is_zero_within_window()):
                    return False
            return True
        # deeper targets: replay every entry certificate one level down, and
        # check that a wider rung shows no entry the rung lacks
        certs = {id(c): c for c in self.entries.values()}.values()
        sub_probes = _default_probes(phi.descriptor.residue_descriptor(), count=4)
        if not all(c.replay(sub_probes, window) for c in certs):
            return False
        lo, hi = self.rung
        shapes = {_shape(c.phi) for c in certs}
        return all(_shape(op) in shapes for op in phi.pushdown(lo - 1, hi + 1).values())


def _shape(op):
    """op without its nonzero scalar factors: DiffOp entries repeat along the
    diagonal up to the binomial C(q, i) in q."""
    if isinstance(op, ScalarMul) and not op.scalar.is_zero():
        return _shape(op.part)
    if isinstance(op, (Compose, AddOp)):
        return type(op)([_shape(p) for p in op.parts])
    return op


def _default_probes(descriptor, count=6, seed=7):
    import random

    rng = random.Random(seed + descriptor.n)
    probes = []
    if descriptor.n == 0:
        probes.append(descriptor.one())
        probes.append(descriptor.constant(descriptor.field.random_element(rng)))
        return probes
    for exps in [(0,), (1,), (-1,), (2,), (-2,)]:
        probes.append(descriptor.monomial(exps + (0,) * (descriptor.n - 1)))
    for _ in range(count):
        probes.append(
            descriptor.random_element(rng, max_terms=3, exp_span=2)
        )
    return [p for p in probes if not p.is_exact_zero()]


def pushdown_rung(phi):
    """The rung [lo, hi) on which phi's pushdown shows every entry, up to
    nonzero scalars, that its pushdown shows on any rung.

    From phi.window1(): all columns between the breaks; on each side of them
    degree + 1 columns, since the scalars of a repeated column are polynomials
    in q_in of that degree, which as many values fix; and every row those
    columns reach.  Raises NotCertifiable, naming the node, where a node's
    entries are not all known.
    """
    w = phi.window1()
    a, b = w.span or (0, 1)
    reps = w.degree + 1 if w.span else 0
    x, y = w.breaks or (0, 0)
    lo = x - (reps if w.breaks else 0) + min(a, 0)
    hi = y + reps + max(b, 1) - 1
    return _hull((lo, hi), w.image)


def certify_membership(phi, target):
    """Certify membership structurally; NotCertifiable is not a disproof."""
    if target == "E":
        # at n = 0 the ring is all of End_k(K), as the paper's recursion starts
        return Certificate(phi, "E", band=phi.band1() if phi.descriptor.n else 0)
    i, j = target
    n = phi.descriptor.n
    if not (1 <= i <= n) or j not in (1, 2):
        raise NotCertifiable(f"target {target} out of range for dimension {n}")
    band = phi.band1()
    if i == 1:
        if j == 1:
            lb = phi.image_lb(None)
            if lb is None:
                raise NotCertifiable(f"{phi!r}: image admits no level-1 lattice bound")
            return Certificate(phi, (1, 1), band=band, witness_shift=lb)
        return Certificate(phi, (1, 2), band=band, killed_shift=_killed_shift(phi))
    return _certify_rung(phi, (i, j), band, pushdown_rung(phi))


def _certify_rung(phi, target, band, rung):
    """Certify every entry of phi's pushdown on the rung one level down; equal
    entries share one certificate."""
    i, j = target
    certs, entries = {}, {}
    for key, op in phi.pushdown(*rung).items():
        if op not in certs:
            try:
                certs[op] = certify_membership(op, (i - 1, j))
            except NotCertifiable as exc:
                raise NotCertifiable(
                    f"pushdown entry {key} on the rung {rung}, {op!r} on K_1: {exc.reason}"
                ) from None
        entries[key] = certs[op]
    return Certificate(phi, target, band=band, rung=rung, entries=entries)


# -- killed-lattice analysis (restrict to a^m O_1 and simplify) --------------


def _killed_shift(phi):
    """Find m with phi(a^m O_1) = 0 by symbolic restriction, or raise."""
    constraints = []
    phi.kill_shift(0, constraints)
    m = max([0] + constraints)
    desc = phi.descriptor
    groups = {}
    for chain in phi.chains(m):
        chain = _normalize_chain(chain)
        if chain is None:  # a zero multiplier killed it
            continue
        if chain and chain[0].multiplier() is not None:
            lead, tail = chain[0].multiplier(), chain[1:]
        else:
            lead, tail = desc.one(), chain
        groups.setdefault(tail, desc.zero())
        groups[tail] = groups[tail] + lead
    for tail, total in groups.items():
        if not total.is_exact_zero():
            raise NotCertifiable(
                f"{phi!r}: operator does not provably annihilate any standard lattice"
            )
    return m


def _normalize_chain(chain):
    """Merge adjacent multiplications; None when a factor is exactly zero."""
    out = []
    for item in chain:
        f = item.multiplier()
        if f is None:
            out.append(item)
        elif f.is_exact_zero():
            return None
        elif out and out[-1].multiplier() is not None:
            out[-1] = MulBy(item.descriptor, out[-1].multiplier() * f)
        else:
            out.append(item)
    return tuple(out)


# ---------------------------------------------------------------------------
# identity decomposition and cubical projectors
# ---------------------------------------------------------------------------


def decompose_identity(descriptor, level, sigma):
    """The two level projections with phi_1 + phi_2 = 1 and their certificates."""
    phi1 = LevelProjection(descriptor, level, ">=", 0, sigma)
    phi2 = LevelProjection(descriptor, level, "<", 0, sigma)
    certs = {
        (level, 1): certify_membership(phi1, (level, 1)),
        (level, 2): certify_membership(phi2, (level, 2)),
    }
    return phi1, phi2, certs


def cubical_projectors(descriptor, sigma):
    """P_eps = product over levels of the chosen projections, level 1 outermost."""
    from itertools import product

    out = {}
    for eps in product((1, 2), repeat=descriptor.n):
        parts = []
        for level, choice in enumerate(eps, start=1):
            cmp = ">=" if choice == 1 else "<"
            parts.append(LevelProjection(descriptor, level, cmp, 0, sigma))
        out[eps] = Compose(parts) if len(parts) > 1 else parts[0]
    return out


# ---------------------------------------------------------------------------
# finite potency and the trace
# ---------------------------------------------------------------------------


def finite_potent_trace(phi, certificates=None, max_power=None, window=None):
    """Trace of a finite-potent operator carrying the full certificate set.

    Witness lattices from the certificates give a finite monomial box; the
    matrix of the induced endomorphism on that box is computed over the last
    residue field, checked for rank stabilization, and traced on the
    invariant subspace containing the eventual image (cross-checked against
    the full matrix trace, which agrees because the complement acts
    nilpotently).
    """
    desc = phi.descriptor
    n = desc.n
    if certificates is None:
        certificates = {}
        for i in range(1, n + 1):
            for j in (1, 2):
                certificates[(i, j)] = certify_membership(phi, (i, j))
    bounds = []
    for i in range(1, n + 1):
        lo = certificates[(i, 1)].level_bounds()[i - 1][0]
        hi = certificates[(i, 2)].level_bounds()[i - 1][1]
        if lo is None or hi is None:
            raise NotReduced(f"no finite box at level {i}")
        bounds.append((lo, max(hi, lo)))
    field = desc.field
    if any(lo == math.inf for lo, _ in bounds):  # the image is zero
        return field.base.zero
    # every primitive in the class is k'-linear, so the matrix lives over k'
    box = [()]
    for (lo, hi) in bounds:
        box = [idx + (q,) for idx in box for q in range(lo, hi)]
    dim = len(box)
    if dim == 0:
        return field.base.zero
    cols = []
    for idx in box:
        img = phi.apply(desc.monomial(idx), window)
        cols.append([img.coefficient_at(odx) for odx in box])
        # image must stay above the witness bound at every level
        for odx, s in img.known_terms():
            if any(o < lo for o, (lo, hi) in zip(odx, bounds)):
                raise NotReduced("image escapes the witness lattice box")
    matrix = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    # rank stabilization
    limit = max_power or dim + 1
    power = matrix
    prev_rank = len(row_reduce(power, field.zero, field.one)[1])
    q = 1
    while q <= limit:
        nxt = mat_mul(power, matrix)
        rank = len(row_reduce(nxt, field.zero, field.one)[1])
        if rank == prev_rank:
            break
        power, prev_rank, q = nxt, rank, q + 1
    else:
        raise NotReduced("rank did not stabilize within the expected power")
    full_trace = sum((matrix[i][i] for i in range(dim)), field.zero)
    inv_trace = _trace_on_invariant_subspace(field, matrix, power, dim)
    if inv_trace != full_trace:
        raise LocalFieldError("invariant-subspace trace disagrees with the matrix trace")
    return ext_trace(full_trace)


def _trace_on_invariant_subspace(field, matrix, stable_power, dim):
    """Trace of the action on im(phi^q): solve M B = B T on a column basis.

    The pivot columns of phi^q form B; im(phi^q) is phi-invariant, so the
    reduced augmented matrix [B | M B] holds T below the identity block.
    """
    _, pivots, _ = row_reduce(stable_power, field.zero, field.one)
    r = len(pivots)
    if r == 0:
        return field.zero
    basis = [[stable_power[i][j] for i in range(dim)] for j in pivots]
    images = [mat_vec(matrix, col) for col in basis]
    aug = [[col[i] for col in basis] + [im[i] for im in images] for i in range(dim)]
    reduced, _, _ = row_reduce(aug, field.zero, field.one)
    return sum((reduced[jj][r + jj] for jj in range(r)), field.zero)


# ---------------------------------------------------------------------------
# lifting independence
# ---------------------------------------------------------------------------


def verify_lifting_independence(phi, sigma, sigma_prime, targets, probe_count=6):
    """Re-run certification under a second lifting system and compare.

    Disagreement is reported, not raised: it would falsify the implementation
    rather than the underlying lifting-independence theorem.
    """
    desc = phi.descriptor
    report = {"targets": {}, "agreements": {}}
    probes = _default_probes(desc, count=probe_count)
    for target in targets:
        res = {}
        for name, system in (("sigma", sigma), ("sigma_prime", sigma_prime)):
            try:
                cert = certify_membership(phi.rebind(system), target)
                res[name] = cert.replay(probes)
            except NotCertifiable as exc:
                res[name] = f"not-certifiable: {exc.reason}"
        report["targets"][target] = res
        report["agreements"][target] = (
            res.get("sigma") is True
            and res.get("sigma_prime") is True
            or res.get("sigma") == res.get("sigma_prime")
        )
    report["induced_maps_agree"] = _compare_induced_maps(
        phi, sigma, sigma_prime, probe_count
    )
    return report


def _induced_closure_entry(phi, q_out, q_in, system, window):
    """Entry of the induced quotient map through sigma-expansions (any lifting)."""
    desc = phi.descriptor
    t1 = Series.generator(desc.field, desc.n, 1)

    def act(c):
        x = system.sigma1.apply(c) * t1.__pow__(q_in)
        y = phi.apply(x, window)
        pairs = sigma_expand(y, system.sigma1, window=window)
        out = Series.zero(desc.field, desc.n - 1)
        for bq, q in pairs:
            if q == q_out:
                out = out + bq
        return out

    return act


def _compare_induced_maps(phi, sigma, sigma_prime, probe_count, gap=2):
    """Check C o M_sigma = M_sigma' o C on probes, C the change-of-lifting matrix.

    The operator is fixed; only the coordinates change, so the two induced
    matrices on L_0 / a^gap L_0 must be conjugate.  Needs a level-1 band of 0
    so the quotient endomorphism is defined; returns None when inapplicable.
    """
    from .tlf import ArtinianQuotient, change_of_lifting_matrix

    desc = phi.descriptor
    if desc.n < 2:
        return None
    if phi.band1() > 0:
        return None
    w = desc.window
    A = ArtinianQuotient(desc, gap - 1)
    C = change_of_lifting_matrix(A, sigma.sigma1, sigma_prime.sigma1)
    M_s = [
        [_induced_closure_entry(phi, qo, qi, sigma, w) for qi in range(gap)]
        for qo in range(gap)
    ]
    M_sp = [
        [_induced_closure_entry(phi, qo, qi, sigma_prime, w) for qi in range(gap)]
        for qo in range(gap)
    ]

    def matvec(M, v):
        out = []
        for qo in range(gap):
            acc = Series.zero(desc.field, desc.n - 1)
            for qi in range(gap):
                acc = acc + M[qo][qi](v[qi])
            out.append(acc)
        return out

    sub = _default_probes(desc.residue_descriptor(), count=probe_count)
    zero = Series.zero(desc.field, desc.n - 1)
    vectors = [[p if i == slot else zero for i in range(gap)] for p in sub for slot in range(gap)]
    for v in vectors:
        lhs = C.apply_to_coordinates(matvec(M_s, v))
        rhs = matvec(M_sp, C.apply_to_coordinates(v))
        for a, b in zip(lhs, rhs):
            if not (a - b).is_zero_within_window():
                return False
    return True


# ---------------------------------------------------------------------------
# JSON deserialization of operator trees
# ---------------------------------------------------------------------------


def operator_from_json(descriptor, data, sigma=None, depth=0):
    """The operator of a JSON tree; depth is the number of operators around
    it, at most MAX_JSON_NESTING."""
    from fractions import Fraction

    if depth > MAX_JSON_NESTING:
        raise ParseError(0, f"JSON nested less deeply (an operator inside at most "
                            f"{MAX_JSON_NESTING} others)")
    sigma = sigma or LiftingSystem.standard(descriptor)
    kind = data["op"]
    field = descriptor.field

    def scal(parts):
        raw = [Fraction(c) if field.char == 0 else int(c) for c in parts]
        return field.element(raw)

    if kind == "mulby":
        return MulBy(descriptor, Series.from_json(field, descriptor.n, data["f"]))
    if kind == "diff":
        terms = [
            (Series.from_json(field, descriptor.n, t["c"]), tuple(t["orders"]))
            for t in data["terms"]
        ]
        return DiffOp(descriptor, terms)
    if kind == "proj":
        return LevelProjection(descriptor, data["level"], data["cmp"], data["cutoff"], sigma)
    if kind == "coefflift":
        inner = operator_from_json(descriptor.residue_descriptor(), data["inner"], None, depth + 1)
        return CoeffLift(descriptor, inner, sigma)
    if kind == "finrank":
        matrix = {
            (tuple(e["out"]), tuple(e["in"])): scal(e["value"])
            for e in data["entries"]
        }
        return FiniteRank(descriptor, matrix)
    if kind == "compose":
        return Compose([operator_from_json(descriptor, p, sigma, depth + 1)
                        for p in data["parts"]])
    if kind == "add":
        return AddOp([operator_from_json(descriptor, p, sigma, depth + 1) for p in data["parts"]])
    if kind == "scalarmul":
        return ScalarMul(
            scal(data["scalar"]), operator_from_json(descriptor, data["part"], sigma, depth + 1)
        )
    raise LocalFieldError(f"unknown operator kind {kind!r}")
