"""Command-line front door: expression parsing, dispatch, JSON output.

Scalars are serialized as strings (exact rationals or residues) so no float
ever enters the pipeline; identical invocations produce byte-identical JSON.
Exit codes: 0 success, 2 parse error, 3 precision error, 4 domain error.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from .errors import (
    InsufficientPrecision,
    LocalFieldError,
    NotCertifiable,
    ParseError,
)
from .scalars import make_extension
from .series import Series
from .tlf import (
    ArtinianQuotient,
    LiftingSpec,
    LiftingSystem,
    TlfDescriptor,
    change_of_lifting_matrix,
    validate_uniformizers,
)
from .forms import AbstractForm, Const, Expr, Gen, Inv, Sym, evaluate
from .residue import (
    ExtensionSpec,
    counterexample_char0,
    res_tlf,
    tate_residue_dim1,
    trace_forms,
)
from .bt_ops import (
    AddOp,
    Compose,
    DiffOp,
    LevelProjection,
    MulBy,
    ScalarMul,
    certify_membership,
    decompose_identity,
    finite_potent_trace,
    operator_from_json,
)
from .geom import RationalForm, global_residues


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_PUNCT = ["(", ")", "{", "}", ">=", "<", "=", ";", ",", "+", "-", "*", "/", "^"]

# the deepest nesting of "(" and "{" that the grammars accept: each level costs
# the recursive-descent parsers up to seven stack frames, so 100 levels stay
# well inside the interpreter's default recursion limit of 1000
MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    depth = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, i))
                depth += (p in "({") - (p in ")}")
                if depth > MAX_NESTING:
                    raise ParseError(i, f"at most {MAX_NESTING} nested brackets", text)
                i += len(p)
                break
        else:
            raise ParseError(i, "a token", text)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser producing Expr DAGs and abstract forms."""

    def __init__(self, text, descriptor, window=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.descriptor = descriptor
        self.window = window
        self.symbols = {}

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, at = self.next()
        if val != value:
            raise ParseError(at, repr(value), self.text)
        return val

    def at_end(self):
        return self.peek()[0] == "end"

    # grammar

    def parse(self):
        value = self.expr()
        if not self.at_end():
            raise ParseError(self.peek()[2], "end of input", self.text)
        return value

    def expr(self):
        # each term is checked as it is read; forms add at once, so a degree
        # mismatch is raised where it is read, and series terms are summed at
        # the end as a balanced tree, in order: a run of k terms then re-adds
        # each coefficient about log2(k) times, not up to k times
        terms = [self.wedge_level()]
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.wedge_level()
            if isinstance(rhs, AbstractForm) != isinstance(terms[0], AbstractForm):
                raise ParseError(self.peek()[2], "matching form/series operands", self.text)
            if op == "-":
                rhs = -rhs
            if isinstance(rhs, AbstractForm):
                terms[0] = terms[0] + rhs
            else:
                terms.append(rhs)
        while len(terms) > 1:
            terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
        return terms[0]

    def wedge_level(self):
        # '^' between forms is a wedge and binds looser than '*';
        # '^' with an integer exponent was already consumed at the atom level
        value = self.term()
        while self.peek()[1] == "^":
            at = self.peek()[2]
            self.next()
            rhs = self.term()
            value = self._combine_wedge(value, rhs, at)
        return value

    def term(self):
        value = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.unary()
            value = self._combine_mul(value, rhs, op)
        return value

    def unary(self):
        signs = self._minus_run()
        value = self.power_atom()
        for _ in range(signs):
            value = -value
        return value

    def _minus_run(self):
        """Consume a run of unary minus signs; return how many there were."""
        count = 0
        while self.peek()[1] == "-":
            self.next()
            count += 1
        return count

    def power_atom(self):
        value = self.primary()
        while self.peek()[1] == "^":
            # consume only integer exponents here; a non-integer right-hand
            # side is a wedge and belongs to the enclosing level
            save = self.pos
            at = self.peek()[2]
            self.next()
            sign = 1
            if self.peek()[1] == "-":
                self.next()
                sign = -1
            nk, nv, _ = self.peek()
            if nk == "num":
                self.next()
                if isinstance(value, AbstractForm):
                    raise ParseError(at, "a series base for '^'", self.text)
                value = value ** (sign * nv)
                continue
            self.pos = save
            break
        return value

    def primary(self):
        kind, val, at = self.peek()
        if val == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "num":
            self.next()
            return Const(self.descriptor, self.descriptor.field.from_int(val))
        if kind == "ident":
            self.next()
            return self._ident(val, at)
        raise ParseError(at, "a number, name or '('", self.text)

    def _ident(self, name, at):
        desc = self.descriptor
        if name == "d" and self.peek()[1] == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            if isinstance(inner, AbstractForm):
                return inner.d()
            return AbstractForm.d_of(desc, inner)
        if name == "dlog" and self.peek()[1] == "(":
            self.next()
            args = [self.expr()]
            while self.peek()[1] == ",":
                self.next()
                args.append(self.expr())
            self.expect(")")
            elements = [self._eval(a, at) for a in args]
            validate_uniformizers(desc, elements)
            form = None
            for a in args:
                part = AbstractForm.d_of(desc, a).scale(Inv(a))
                form = part if form is None else form.wedge(part)
            return form
        if name == "inv" and self.peek()[1] == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return Inv(inner)
        if name.startswith("t") and name[1:].isdigit():
            return Gen(desc, int(name[1:]))
        if name == "x":
            return Const(desc, desc.field.gen)
        if self.peek()[1] == "{":
            self.next()
            self.expect("series")
            self.expect("=")
            payload = self.expr()
            self.expect("}")
            value = self._eval(payload, at)
            sym = Sym(desc, name, value)
            self.symbols[name] = sym
            return sym
        if name in self.symbols:
            return self.symbols[name]
        raise ParseError(at, f"a known name (unbound symbol {name!r})", self.text)

    def _eval(self, value, at):
        if isinstance(value, AbstractForm):
            raise ParseError(at, "a series-valued expression", self.text)
        return evaluate(value, self.window)

    def _combine_mul(self, a, b, op):
        af, bf = isinstance(a, AbstractForm), isinstance(b, AbstractForm)
        if op == "/":
            if bf:
                raise ParseError(self.peek()[2], "a series divisor", self.text)
            b = Inv(b)
            bf = False
        if af and bf:
            return a.wedge(b)
        if af:
            return a.scale(b)
        if bf:
            return b.scale(a)
        return a * b

    def _combine_wedge(self, a, b, at):
        if not isinstance(a, AbstractForm):
            a = AbstractForm.of_element(self.descriptor, a)
        if not isinstance(b, AbstractForm):
            raise ParseError(at, "a form on the right of '^'", self.text)
        return a.wedge(b)


def parse_expression(text, descriptor, window=None):
    """Parse a series or form expression; returns Expr or AbstractForm."""
    return _Parser(text, descriptor, window).parse()


def parse_series(text, descriptor, window=None):
    value = parse_expression(text, descriptor, window)
    if isinstance(value, AbstractForm):
        raise ParseError(0, "a series-valued expression", text)
    return evaluate(value, window)


def parse_form(text, descriptor, window=None):
    value = parse_expression(text, descriptor, window)
    if isinstance(value, Expr):
        value = AbstractForm.of_element(descriptor, value)
    return value


# -- operator expressions -----------------------------------------------------


class _OpParser(_Parser):
    def parse_operator(self):
        value = self.op_expr()
        if not self.at_end():
            raise ParseError(self.peek()[2], "end of input", self.text)
        return value

    def op_expr(self):
        value = self.op_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.op_term()
            if op == "-":
                rhs = ScalarMul(self.descriptor.field.from_int(-1), rhs)
            value = AddOp([value, rhs])
        return value

    def op_term(self):
        value = self.op_factor()
        while self.peek()[1] == "*":
            self.next()
            at = self.peek()[2]
            rhs = self.op_factor()
            if isinstance(rhs, tuple):
                raise ParseError(at, "an operator (a scalar leads its product)", self.text)
            if isinstance(value, tuple):  # pending scalar
                rhs = ScalarMul(value[1], rhs)
                value = rhs
            else:
                value = Compose([value, rhs])
        if isinstance(value, tuple):
            raise ParseError(self.peek()[2], "an operator after the scalar", self.text)
        return value

    def op_factor(self):
        signs = self._minus_run()
        if signs > MAX_NESTING:
            # each sign nests one more ScalarMul in the operator tree
            raise ParseError(self.peek()[2], f"at most {MAX_NESTING} signs in a row", self.text)
        value = self.op_atom()
        for _ in range(signs):
            if isinstance(value, tuple):  # pending scalar
                value = ("scalar", -value[1])
            else:
                value = ScalarMul(self.descriptor.field.from_int(-1), value)
        return value

    def op_atom(self):
        kind, val, at = self.peek()
        if val == "(":
            self.next()
            inner = self.op_expr()
            self.expect(")")
            return inner
        if kind == "num":
            self.next()
            return ("scalar", self.descriptor.field.from_int(val))
        if kind == "ident":
            self.next()
            if val == "mul":
                self.expect("(")
                series = self._eval(self.expr(), at)
                self.expect(")")
                return MulBy(self.descriptor, series)
            if val.startswith("proj") and val[4:].isdigit():
                level = int(val[4:])
                self.expect("(")
                cmp_kind, cmp_val, cat = self.next()
                if cmp_val not in (">=", "<"):
                    raise ParseError(cat, "'>=' or '<'", self.text)
                sign = 1
                if self.peek()[1] == "-":
                    self.next()
                    sign = -1
                nk, nv, nat = self.next()
                if nk != "num":
                    raise ParseError(nat, "an integer cutoff", self.text)
                self.expect(")")
                sigma = LiftingSystem.standard(self.descriptor)
                return LevelProjection(self.descriptor, level, cmp_val, sign * nv, sigma)
            if val.startswith("d") and val[1:].isdigit():
                return DiffOp.partial(self.descriptor, int(val[1:]))
        raise ParseError(at, "an operator", self.text)


def parse_operator(text, descriptor, window=None):
    text = text.strip()
    if text.startswith("{"):
        try:
            return operator_from_json(descriptor, json.loads(text))
        except json.JSONDecodeError as exc:
            raise ParseError(exc.pos, f"well-formed JSON ({exc.msg})", text) from None
        except RecursionError:
            raise ParseError(0, "JSON nested less deeply", text) from None
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(0, f"an operator in the JSON schema ({type(exc).__name__}: {exc})", text) from None
    return _OpParser(text, descriptor, window).parse_operator()


# -- rational functions for the global sum ------------------------------------


def parse_rational_form(text, base):
    """p(t)/q(t) dt over the base field, exact rational-function arithmetic."""
    text = text.strip()
    if text.endswith("dt"):
        text = text[:-2].strip()
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def nxt():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def rf_expr():
        value = rf_term()
        while peek()[1] in ("+", "-"):
            op = nxt()[1]
            rhs = rf_term()
            value = _rf_add(base, value, rhs if op == "+" else _rf_neg(base, rhs))
        return value

    def rf_term():
        value = rf_unary()
        while peek()[1] in ("*", "/"):
            op = nxt()[1]
            rhs = rf_unary()
            if op == "/":
                rhs = (rhs[1], rhs[0])
                if not rhs[1]:
                    raise ParseError(peek()[2], "a nonzero divisor", text)
            value = _rf_mul(base, value, rhs)
        return value

    def rf_unary():
        signs = 0
        while peek()[1] == "-":
            nxt()
            signs += 1
        value = rf_pow()
        for _ in range(signs):
            value = _rf_neg(base, value)
        return value

    def rf_pow():
        value = rf_atom()
        while peek()[1] == "^":
            nxt()
            sign = 1
            if peek()[1] == "-":
                nxt()
                sign = -1
            kind, val, at = nxt()
            if kind != "num":
                raise ParseError(at, "an integer exponent", text)
            out = ([base.one], [base.one])
            v = value if sign > 0 else (value[1], value[0])
            for _ in range(val):
                out = _rf_mul(base, out, v)
            value = out
        return value

    def rf_atom():
        kind, val, at = nxt()
        if val == "(":
            inner = rf_expr()
            if nxt()[1] != ")":
                raise ParseError(at, "')'", text)
            return inner
        if kind == "num":
            return ([base.from_int(val)], [base.one])
        if kind == "ident" and val == "t":
            return ([base.zero, base.one], [base.one])
        raise ParseError(at, "a number, 't' or '('", text)

    num, den = rf_expr()
    if tokens[pos[0]][0] != "end":
        raise ParseError(tokens[pos[0]][2], "end of input", text)
    return RationalForm(base, num, den)


def _rf_add(base, a, b):
    from .scalars import _poly_add, _poly_mul

    num = _poly_add(base, _poly_mul(base, a[0], b[1]), _poly_mul(base, b[0], a[1]))
    den = _poly_mul(base, a[1], b[1])
    return (num, den)


def _rf_neg(base, a):
    return ([base.neg(c) for c in a[0]], a[1])


def _rf_mul(base, a, b):
    from .scalars import _poly_mul

    return (_poly_mul(base, a[0], b[0]), _poly_mul(base, a[1], b[1]))


# ---------------------------------------------------------------------------
# command machinery
# ---------------------------------------------------------------------------


def _extension_from_flag(char, text):
    """The field k[x]/(m(x)) for a flag value "c0,c1,...,1": rational
    coefficients over QQ, integers over F_p."""
    poly, at = [], 0
    for part in text.split(","):
        try:
            poly.append(Fraction(part) if char == 0 else int(part))
        except (ValueError, ZeroDivisionError):
            expected = "a rational coefficient" if char == 0 else "an integer coefficient"
            raise ParseError(at, expected, text) from None
        at += len(part) + 1
    return make_extension(char, poly)


def _target_from_flag(text):
    """"E", or the pair (i, j) for a flag value "i,j" of two integers."""
    if text == "E":
        return "E"
    pair, at = [], 0
    for part in text.split(","):
        if len(pair) == 2:
            raise ParseError(at - 1, "end of input", text)
        try:
            pair.append(int(part))
        except ValueError:
            raise ParseError(at, "'E' or an integer" if at == 0 else "an integer", text) from None
        at += len(part) + 1
    if len(pair) < 2:
        raise ParseError(len(text), "',' and a second integer", text)
    return tuple(pair)


def _descriptor_from_args(args, default_n=1):
    char = args.char
    if args.ext_poly:
        field = _extension_from_flag(char, args.ext_poly)
    else:
        field = make_extension(char, [0, 1])
    n = args.n if args.n is not None else default_n
    return TlfDescriptor(n, field, args.window)


def _emit(args, payload):
    if args.pretty:
        out = json.dumps(payload, indent=2, sort_keys=True)
    else:
        out = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    print(out)


def cmd_residue(args):
    desc = _descriptor_from_args(args, default_n=1)
    form = parse_form(args.expression, desc, args.window)
    sep = form.separate(args.window)
    value = res_tlf(sep)
    _emit(args, {"value": str(value), "window_used": args.window})
    return 0


def cmd_tate_residue(args):
    desc = _descriptor_from_args(args, default_n=1)
    if desc.n != 1:
        raise LocalFieldError("the commutator residue needs n = 1")
    f = parse_series(args.f, desc, args.window)
    g = parse_series(args.g, desc, args.window)
    value = tate_residue_dim1(f, g, shift=args.shift)
    _emit(args, {"value": str(value), "window_used": args.window})
    return 0


def cmd_trace_form(args):
    desc = _descriptor_from_args(args, default_n=1)
    if args.kummer is not None:
        spec = ExtensionSpec.kummer(desc, args.kummer)
        upstairs = spec.upstairs_descriptor()
    else:
        if not args.upstairs_poly:
            raise LocalFieldError("give --kummer E or --upstairs-poly coefficients")
        ext = _extension_from_flag(desc.char, args.upstairs_poly)
        spec = ExtensionSpec.unramified(desc, ext)
        upstairs = spec.upstairs_descriptor()
    form = parse_form(args.expression, upstairs, args.window)
    sep = form.separate(args.window)
    traced = trace_forms(sep, spec)
    payload = {"form": traced.to_json()}
    if traced.degree == desc.n:
        payload["residue"] = str(res_tlf(traced))
    _emit(args, payload)
    return 0


def cmd_counterexample(args):
    res_st, res_nt = counterexample_char0(window=args.window)
    _emit(args, {"res_st": str(res_st), "res_nt": str(res_nt)})
    return 0


def cmd_certify(args):
    desc = _descriptor_from_args(args, default_n=1)
    phi = parse_operator(args.operator, desc, args.window)
    target = _target_from_flag(args.target)
    try:
        cert = certify_membership(phi, target)
    except NotCertifiable as exc:
        _emit(args, {"certified": False, "reason": str(exc)})
        return 4
    from .bt_ops import _default_probes

    payload = {
        "certified": True,
        "target": "E" if target == "E" else list(target),
        "band": cert.band,
        "replayed": cert.replay(_default_probes(desc)),
    }
    if cert.witness_shift is not None:
        # a zero image lies in every lattice
        payload["witness_shift"] = "inf" if cert.witness_shift == math.inf else cert.witness_shift
    if cert.killed_shift is not None:
        payload["killed_shift"] = cert.killed_shift
    _emit(args, payload)
    return 0


def cmd_decompose(args):
    desc = _descriptor_from_args(args, default_n=2)
    sigma = LiftingSystem.standard(desc)
    phi1, phi2, certs = decompose_identity(desc, args.level, sigma)
    import random as _random

    rng = _random.Random(args.seed)
    ok = True
    for _ in range(20):
        x = desc.random_element(rng, max_terms=3, exp_span=2)
        total = phi1.apply(x) + phi2.apply(x)
        if not (total - x).is_zero_within_window():
            ok = False
    payload = {
        "phi1": phi1.to_json(),
        "phi2": phi2.to_json(),
        "identity_on_probes": ok,
        "certified_targets": sorted(str(list(t)) for t in certs),
    }
    _emit(args, payload)
    return 0


def cmd_trace_op(args):
    desc = _descriptor_from_args(args, default_n=1)
    phi = parse_operator(args.operator, desc, args.window)
    value = finite_potent_trace(phi, window=args.window)
    _emit(args, {"value": str(value)})
    return 0


def cmd_global_sum(args):
    from .scalars import BaseField

    base = BaseField(args.char)
    form = parse_rational_form(args.form, base)
    residues, total = global_residues(form)
    locals_out = {repr(pt): str(r) for pt, r in residues.items()}
    _emit(args, {"sum": str(total), "locals": locals_out})
    return 0


def cmd_lift_matrix(args):
    desc = _descriptor_from_args(args, default_n=2)
    if desc.n < 2:
        raise LocalFieldError("the change-of-lifting matrix needs n >= 2")
    A = ArtinianQuotient(desc, args.exponent)
    std = LiftingSpec(1)
    twist = LiftingSpec(1, "twisted", axis=args.twist_axis, depth=args.twist_depth)
    mat = change_of_lifting_matrix(A, std, twist)
    field = desc.field
    t2 = Series.generator(field, desc.n - 1, 1)
    probes = [Series.one(field, desc.n - 1), t2, t2 * t2, t2.inv()]
    mults = [t2, t2 * t2, Series.one(field, desc.n - 1) + t2]
    r = mat.rank
    inv = mat.neumann_inverse()
    coords = [t2, Series.one(field, desc.n - 1), t2 * t2][:r]
    while len(coords) < r:
        coords.append(t2)
    forward = mat.apply_to_coordinates(coords)
    back = inv.apply_to_coordinates(forward)
    neumann_ok = all((a - b).is_zero_within_window() for a, b in zip(coords, back))
    payload = {
        "rank": r,
        # the claims derived from the liftings, each replayed on the probes
        "unit_triangular": mat.unit_triangular and mat.is_unit_upper_triangular(probes),
        "orders_certified": mat.orders_hold(probes, mults),
        "neumann_identity": neumann_ok,
    }
    _emit(args, payload)
    return 0


def cmd_selftest(args):
    from .acceptance import run_all

    results = run_all(seed=args.seed, emit=print)
    return 0 if all(r.passed for r in results) else 1


def _int_at_least(low, high=None):
    """An argparse type for an integer >= low when low is not None, and <= high
    when high is not None."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be an integer <= {high}, got {value}")
        return value

    return parse


# the largest --n: at n = 64 certify, decompose and trace-op answer in about
# 0.2 s; from about n = 500 the tower's recursion over its levels exceeds the
# interpreter's recursion limit
MAX_N = 64
# the largest lift-matrix --exponent and --twist-depth, where the call still
# finishes in seconds: the order test of entry (i, j) grows with j - i
LIFT_MATRIX_MAX = 8
# the largest lift-matrix --n: the entries' fit runs over the monomials in
# n - 1 variables, so with --exponent 8 the call takes about 5 s at n = 4 and
# 10 s at n = 6; --n below 2 stays a domain error (exit 4)
LIFT_MATRIX_MAX_N = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tlfields",
        description="Exact residues and operator certificates on iterated Laurent series fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    # the shared flags; each command registers only those its cmd_* reads,
    # so argparse rejects the rest
    shared = {
        "--char": dict(type=int, default=0, help="characteristic (0 or a prime)"),
        "--ext-poly": dict(default=None,
                           help="comma-separated monic minimal polynomial of the last residue field"),
        "--n": dict(type=_int_at_least(None, MAX_N), default=None,
                    help=f"dimension of the tower (at most {MAX_N})"),
        "--window": dict(type=_int_at_least(1), default=8,
                         help="precision window per level (an integer >= 1)"),
        "--seed": dict(type=int, default=0, help="seed for randomized checks"),
        "--pretty": dict(action="store_true", help="indented JSON output"),
    }
    # what a command on a tower K reads
    tower = ("--char", "--ext-poly", "--n", "--window", "--pretty")

    def command(name, summary, flags, specs=None):
        # specs: the command's own spec of a shared flag, by flag
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **(specs or {}).get(flag, shared[flag]))
        return p

    p = command("residue", "residue of a top-degree form", tower)
    p.add_argument("expression")

    p = command("tate-residue", "commutator-trace residue at n=1", tower)
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--shift", type=int, default=0, help="lattice shift for the projection")

    p = command("trace-form", "trace a form along a supported extension", tower)
    p.add_argument("expression")
    p.add_argument("--kummer", type=int, default=None, help="tame Kummer index")
    p.add_argument("--upstairs-poly", default=None,
                   help="minimal polynomial of the unramified extension")

    command("counterexample", "the two-topology residue counterexample", ("--window", "--pretty"))

    p = command("certify", "certify operator membership", tower)
    p.add_argument("operator")
    p.add_argument("--target", default="E", help="'E' or 'i,j'")

    p = command("decompose", "identity decomposition at a level", tower + ("--seed",))
    p.add_argument("--level", type=int, default=1)

    p = command("trace-op", "finite-potent trace of an operator", tower)
    p.add_argument("operator")

    p = command("global-sum", "sum of residues of a rational form on P^1", ("--char", "--pretty"))
    p.add_argument("form", help='e.g. "1/(t*(t-1)) dt"')

    p = command("lift-matrix", "change-of-lifting matrix of an artinian quotient", tower, {
        "--n": dict(shared["--n"], type=_int_at_least(None, LIFT_MATRIX_MAX_N),
                    help=f"dimension of the tower (at most {LIFT_MATRIX_MAX_N})"),
    })
    p.add_argument("--exponent", type=_int_at_least(0, LIFT_MATRIX_MAX), default=2,
                   help=f"l in O_1/m^(l+1) (an integer in [0, {LIFT_MATRIX_MAX}])")
    p.add_argument("--twist-axis", type=int, default=2)
    p.add_argument("--twist-depth", type=_int_at_least(0, LIFT_MATRIX_MAX), default=2,
                   help=f"truncation depth of the twisted lifting (an integer in [0, {LIFT_MATRIX_MAX}])")

    command("selftest", "run the acceptance suite", ("--seed",))

    return parser


PARSER = build_parser()


def _join_negative_polys(argv):
    """Join a polynomial flag to a following value that starts with '-' and a
    digit, which argparse would read as an option: `--ext-poly -2,0,1` parses
    as `--ext-poly=-2,0,1`.  A flag is any prefix argparse accepts for
    --ext-poly or --upstairs-poly: one that no other option of the command
    starts with."""
    command = PARSER.commands.get(next((a for a in argv if not a.startswith("-")), None))
    # argparse's own table of the command's option strings, whose prefixes it accepts
    options = command._option_string_actions if command else {}
    out = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        flag = out[-1] if out else ""
        matches = [o for o in options if o.startswith(flag)] if flag.startswith("--") else []
        if negative and len(matches) == 1 and matches[0] in ("--ext-poly", "--upstairs-poly"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    args = PARSER.parse_args(_join_negative_polys(sys.argv[1:] if argv is None else argv))
    # looked up on the module at each call, not stored in the parser built at
    # import, so a wrapper installed on the module (a tracer, a test's
    # monkeypatch) sees every command it runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ParseError as exc:
        print(json.dumps({"error": str(exc), "code": exc.code}, sort_keys=True))
        return 2
    except InsufficientPrecision as exc:
        print(json.dumps({"error": str(exc), "code": exc.code}, sort_keys=True))
        return 3
    except LocalFieldError as exc:
        print(json.dumps({"error": str(exc), "code": exc.code}, sort_keys=True))
        return 4


if __name__ == "__main__":
    sys.exit(main())
