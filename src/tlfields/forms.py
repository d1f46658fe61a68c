"""Differential forms over the expression layer.

Abstract Kähler forms are kept over a finitely presented DAG of expressions
(generators t_i, bound symbols, ring operations); separation onto the free
wedge basis dt_I happens through forward-mode differentiation of the DAG.
The distinction matters: an abstract form can separate to zero while a
pullback of it does not, which is exactly what the characteristic-0
counterexample exercises.
"""

from itertools import combinations

from .errors import LocalFieldError, UnmappedSymbol
from .series import Series, agree_within_window
from .tlf import UniformizerSystem


class Expr:
    """A node in the expression DAG.

    A leaf (``Const``, ``Gen``, ``Sym``) carries its series ``value`` and its
    ``partials`` along t_1..t_n.  An operation node lists its ``children``
    and states its operation once, in ``combine``, on whatever its children
    fold to: series for ``evaluate``, values with partials for
    ``eval_with_partials``, expressions for ``substitute_leaves``.
    """

    def __add__(self, other):
        return Add(self, _coerce(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return Add(self, Neg(_coerce(self, other)))

    def __rsub__(self, other):
        return Add(Neg(self), _coerce(self, other))

    def __mul__(self, other):
        return Mul(self, _coerce(self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return Neg(self)

    def __truediv__(self, other):
        return Mul(self, Inv(_coerce(self, other)))

    def __pow__(self, k, window=None):
        return Pow(self, k)

    def inv(self, window=None):
        return Inv(self)

    # traversal

    def children(self):
        return ()

    def leaves(self):
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            kids = node.children()
            if kids:
                stack.extend(kids)
            else:
                yield node

    def substitute_leaves(self, mapping):
        """Rebuild the DAG with generators/symbols replaced per mapping."""
        return _fold(self, lambda leaf: leaf.substitute(mapping), None)


def _coerce(template, value):
    if isinstance(value, Expr):
        return value
    for leaf in template.leaves():
        if isinstance(leaf, (Const, Gen, Sym)):
            desc = leaf.descriptor
            return Const(desc, desc.field.from_int(value) if isinstance(value, int) else value)
    raise LocalFieldError("cannot coerce value into expression")


class Const(Expr):
    def __init__(self, descriptor, scalar):
        self.descriptor = descriptor
        if isinstance(scalar, int):
            scalar = descriptor.field.from_int(scalar)
        self.scalar = scalar
        self.value = descriptor.constant(scalar)
        self.partials = (descriptor.zero(),) * descriptor.n

    def substitute(self, mapping):
        return self

    def __repr__(self):
        return repr(self.scalar)


class Gen(Expr):
    def __init__(self, descriptor, axis):
        if not 1 <= axis <= descriptor.n:
            raise LocalFieldError(f"generator axis {axis} outside 1..{descriptor.n}")
        self.descriptor = descriptor
        self.axis = axis
        self.value = descriptor.gen(axis)
        zero = descriptor.zero()
        self.partials = tuple(
            descriptor.one() if i == axis else zero for i in range(1, descriptor.n + 1)
        )

    def substitute(self, mapping):
        key = f"t{self.axis}"
        if key in mapping:
            return mapping[key]
        raise UnmappedSymbol(f"generator {key} not mapped")

    def __repr__(self):
        return f"t{self.axis}"


class Sym(Expr):
    """A named symbol bound to a series value with declared partials.

    Declared partials must be consistent with the bound value within the
    guaranteed window; omitted partials are computed termwise.
    """

    def __init__(self, descriptor, name, value, partials=None):
        self.descriptor = descriptor
        self.name = name
        self.value = value
        n = descriptor.n
        if partials is None:
            partials = tuple(value.derivative(i) for i in range(1, n + 1))
        else:
            partials = tuple(partials)
            if len(partials) != n:
                raise LocalFieldError("need one partial per variable")
            for i, p in enumerate(partials):
                if not agree_within_window(p, value.derivative(i + 1)):
                    raise LocalFieldError(
                        f"declared partial d{self.name}/dt{i + 1} disagrees with the binding"
                    )
        self.partials = partials

    def substitute(self, mapping):
        if self.name in mapping:
            return mapping[self.name]
        raise UnmappedSymbol(f"symbol {self.name} not mapped")

    def __repr__(self):
        return self.name


class Add(Expr):
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def children(self):
        return (self.a, self.b)

    def combine(self, a, b, window):
        return a + b

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class Neg(Expr):
    def __init__(self, a):
        self.a = a

    def children(self):
        return (self.a,)

    def combine(self, a, window):
        return -a

    def __repr__(self):
        return f"(-{self.a!r})"


class Mul(Expr):
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def children(self):
        return (self.a, self.b)

    def combine(self, a, b, window):
        return a * b

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


class Inv(Expr):
    def __init__(self, a):
        self.a = a

    def children(self):
        return (self.a,)

    def combine(self, a, window):
        return a.inv(window)

    def __repr__(self):
        return f"({self.a!r})^-1"


class Pow(Expr):
    def __init__(self, a, k):
        if not isinstance(k, int):
            raise LocalFieldError("exponent must be an integer")
        self.a = a
        self.k = k

    def children(self):
        return (self.a,)

    def combine(self, a, window):
        return a.__pow__(self.k, window)

    def __repr__(self):
        return f"({self.a!r})^{self.k}"


def _fold(expr, leaf, window):
    """Fold the DAG bottom-up: ``leaf(node)`` at a leaf, ``node.combine`` of
    the children's results at an operation.  Each shared node is visited
    once, children left to right, on an explicit stack, so the depth of the
    DAG is not limited by the interpreter's recursion limit."""
    done = {}
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in done:
            continue
        kids = node.children()
        if not kids:
            done[key] = leaf(node)
        elif expanded:
            done[key] = node.combine(*[done[id(kid)] for kid in kids], window)
        else:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(kids))
    return done[id(expr)]


class _Dual:
    """A value with its partials along t_1..t_n: the chain rule of each
    operation, for forward-mode differentiation by ``_fold``."""

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    def __add__(self, other):
        partials = tuple(x + y for x, y in zip(self.partials, other.partials))
        return _Dual(self.value + other.value, partials)

    def __neg__(self):
        return _Dual(-self.value, tuple(-x for x in self.partials))

    def __mul__(self, other):
        va, vb = self.value, other.value
        partials = tuple(x * vb + va * y for x, y in zip(self.partials, other.partials))
        return _Dual(va * vb, partials)

    def inv(self, window):
        iv = self.value.inv(window)
        return _Dual(iv, tuple(-(iv * iv) * x for x in self.partials))

    def __pow__(self, k, window):
        va = self.value
        vp = va.__pow__(k, window)
        dv = va.__pow__(k - 1, window).scalar_mul(va.field.from_int(k))
        return _Dual(vp, tuple(dv * x for x in self.partials))


def evaluate(expr, window=None):
    """Series value of an expression (memoized over the DAG)."""
    return _fold(expr, lambda leaf: leaf.value, window)


def eval_with_partials(expr, window=None):
    """(value, partials) by forward-mode differentiation over the DAG."""
    dual = _fold(expr, lambda leaf: _Dual(leaf.value, leaf.partials), window)
    return dual.value, dual.partials


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


class AbstractForm:
    """Sum of terms g * dh_1 ^ ... ^ dh_q before separation."""

    def __init__(self, descriptor, degree, terms=()):
        self.descriptor = descriptor
        self.degree = degree
        self.terms = tuple(terms)
        for g, hs in self.terms:
            if len(hs) != degree:
                raise LocalFieldError("term arity does not match the form degree")

    @classmethod
    def of_element(cls, descriptor, g):
        return cls(descriptor, 0, [(g, ())])

    @classmethod
    def d_of(cls, descriptor, h):
        return cls(descriptor, 1, [(Const(descriptor, descriptor.field.one), (h,))])

    def __add__(self, other):
        if self.degree != other.degree:
            raise LocalFieldError("cannot add forms of different degree")
        return AbstractForm(self.descriptor, self.degree, self.terms + other.terms)

    def __neg__(self):
        return AbstractForm(
            self.descriptor, self.degree, [(Neg(g), hs) for g, hs in self.terms]
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, expr):
        return AbstractForm(
            self.descriptor, self.degree, [(Mul(expr, g), hs) for g, hs in self.terms]
        )

    def wedge(self, other):
        terms = []
        for g1, h1 in self.terms:
            for g2, h2 in other.terms:
                terms.append((Mul(g1, g2), h1 + h2))
        return AbstractForm(self.descriptor, self.degree + other.degree, terms)

    def d(self):
        """Exterior derivative: d(g dh_1 ... dh_q) = dg ^ dh_1 ^ ... ^ dh_q."""
        one = Const(self.descriptor, self.descriptor.field.one)
        return AbstractForm(
            self.descriptor,
            self.degree + 1,
            [(one, (g,) + hs) for g, hs in self.terms],
        )

    def pullback(self, mapping):
        """Substitute generators and symbols per mapping inside every term."""
        out = []
        for g, hs in self.terms:
            out.append(
                (g.substitute_leaves(mapping), tuple(h.substitute_leaves(mapping) for h in hs))
            )
        return AbstractForm(self.descriptor, self.degree, out)

    def separate(self, window=None):
        """Project onto the free wedge basis dt_I via the chain rule."""
        desc = self.descriptor
        n = desc.n
        out = SeparatedForm.zero(desc, self.degree)
        for g, hs in self.terms:
            gval = evaluate(g, window)
            grads = [eval_with_partials(h, window)[1] for h in hs]
            out = out + _expand_wedge(desc, self.degree, gval, grads)
        return out


def _expand_wedge(desc, q, gval, grads):
    """g * (sum_i dh_1/dt_i dt_i) ^ ... expanded with alternating signs."""
    n = desc.n
    coeffs = {I: desc.zero() for I in combinations(range(1, n + 1), q)}
    if q == 0:
        coeffs[()] = gval
        return SeparatedForm(desc, 0, coeffs)

    def rec(k, used, sign_coeff):
        if k == q:
            axes = tuple(used)
            perm_sign, sorted_axes = _sort_sign(axes)
            key = tuple(sorted_axes)
            add = sign_coeff if perm_sign == 1 else -sign_coeff
            coeffs[key] = coeffs[key] + add
            return
        for i in range(1, n + 1):
            if i in used:
                continue
            p = grads[k][i - 1]
            if p.is_exact_zero():
                continue
            rec(k + 1, used + [i], sign_coeff * p)

    rec(0, [], gval)
    return SeparatedForm(desc, q, coeffs)


def _sort_sign(axes):
    axes = list(axes)
    sign = 1
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            if axes[i] > axes[j]:
                axes[i], axes[j] = axes[j], axes[i]
                sign = -sign
    return sign, axes


class SeparatedForm:
    """An element of the free module on the wedge basis dt_I, I increasing."""

    def __init__(self, descriptor, degree, coeffs):
        self.descriptor = descriptor
        self.degree = degree
        full = {}
        for I in combinations(range(1, descriptor.n + 1), degree):
            full[I] = coeffs.get(I, descriptor.zero())
        self.coeffs = full

    @classmethod
    def zero(cls, descriptor, degree):
        return cls(descriptor, degree, {})

    @classmethod
    def of_element(cls, descriptor, series):
        return cls(descriptor, 0, {(): series})

    @classmethod
    def basis_element(cls, descriptor, axes):
        axes = tuple(sorted(axes))
        return cls(descriptor, len(axes), {axes: descriptor.one()})

    def coefficient(self, axes):
        return self.coeffs[tuple(axes)]

    def __add__(self, other):
        if self.degree != other.degree:
            raise LocalFieldError("cannot add forms of different degree")
        return SeparatedForm(
            self.descriptor,
            self.degree,
            {I: self.coeffs[I] + other.coeffs[I] for I in self.coeffs},
        )

    def __neg__(self):
        return SeparatedForm(
            self.descriptor, self.degree, {I: -c for I, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, series):
        return SeparatedForm(
            self.descriptor, self.degree, {I: series * c for I, c in self.coeffs.items()}
        )

    def wedge(self, other):
        out = {}
        desc = self.descriptor
        for I, a in self.coeffs.items():
            if a.is_exact_zero():
                continue
            for J, b in other.coeffs.items():
                if b.is_exact_zero():
                    continue
                if set(I) & set(J):
                    continue
                sign, merged = _sort_sign(I + J)
                key = tuple(merged)
                term = a * b
                if sign < 0:
                    term = -term
                out[key] = out.get(key, desc.zero()) + term
        return SeparatedForm(desc, self.degree + other.degree, out)

    def exterior_d(self):
        """d(f dt_I) = sum_i df/dt_i dt_i ^ dt_I with the sign of sorting."""
        desc = self.descriptor
        out = {}
        for I, f in self.coeffs.items():
            if f.is_exact_zero():
                continue
            for i in range(1, desc.n + 1):
                if i in I:
                    continue
                df = f.derivative(i)
                if df.is_exact_zero():
                    continue
                below = sum(1 for j in I if j < i)
                key = tuple(sorted(I + (i,)))
                term = df if below % 2 == 0 else -df
                out[key] = out.get(key, desc.zero()) + term
        return SeparatedForm(desc, self.degree + 1, out)

    def is_zero_within_window(self):
        return all(c.is_zero_within_window() for c in self.coeffs.values())

    def agree_within_window(self, other):
        return (self - other).is_zero_within_window()

    def pullback_substitution(self, elements, window=None):
        """Pullback along the substitution t_i -> elements[i-1].

        Coefficients are composed with the substitution and each dt_i becomes
        the separated differential of the assigned series.
        """
        desc = self.descriptor
        elements = list(elements)
        dats = [d_element(desc, a) for a in elements]
        out = SeparatedForm.zero(desc, self.degree)
        for I, f in self.coeffs.items():
            if f.is_exact_zero():
                continue
            term = SeparatedForm.of_element(desc, f.substitute(elements, window))
            for i in I:
                term = term.wedge(dats[i - 1])
            out = out + term
        return out

    def to_json(self):
        return {
            "deg": self.degree,
            "coeffs": {
                str(list(I)): c.to_json()
                for I, c in sorted(self.coeffs.items())
            },
        }

    def __repr__(self):
        parts = []
        for I, c in sorted(self.coeffs.items()):
            if c.is_exact_zero():
                continue
            basis = "^".join(f"dt{i}" for i in I) if I else ""
            body = repr(c)
            if basis:
                parts.append(f"({body}) {basis}")
            else:
                parts.append(body)
        return " + ".join(parts) if parts else "0"


def d_element(descriptor, x):
    """The separated differential of a field element: sum_i dx/dt_i dt_i."""
    coeffs = {}
    for i in range(1, descriptor.n + 1):
        coeffs[(i,)] = x.derivative(i)
    return SeparatedForm(descriptor, 1, coeffs)


def dlog_element(descriptor, u, window=None):
    """u^{-1} du as a separated 1-form."""
    return d_element(descriptor, u).scale(u.inv(window))


def dlog(system, window=None):
    """The top form a_1^{-1} da_1 ^ ... ^ a_n^{-1} da_n of a uniformizer system."""
    if isinstance(system, UniformizerSystem):
        desc = system.descriptor
        elements = system.elements
    else:
        raise LocalFieldError("dlog expects a validated UniformizerSystem")
    if desc.n == 0:
        return SeparatedForm.of_element(desc, desc.one())
    out = dlog_element(desc, elements[0], window)
    for a in elements[1:]:
        out = out.wedge(dlog_element(desc, a, window))
    return out


def identity_mapping(descriptor, symbols=()):
    out = {f"t{i}": Gen(descriptor, i) for i in range(1, descriptor.n + 1)}
    for s in symbols:
        out[s.name] = s
    return out
