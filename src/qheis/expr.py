"""Expression front-end: parser, printer, and elaboration against a preset.

Grammar (whitespace insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' signedInt)?
    atom   := ident | int | 'q' | '(' expr ')'

Idents resolve against the active preset: every generator by its name,
'<name>i' for each invertible generator of degree 0 (ai, Ki), and the macro
symbols (primed names and phi1/phi2 inside Dq, phi1/phi2 inside S).
Division requires an invertible divisor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ExprSyntaxError, UnknownGenerator
from .ideals import phi_elements
from .presets import S_ORDERS, AlgebraParams, make_Dq, make_Oq, make_S, make_Uq
from .presets import primed_in_D, torus_of_S_quotient
from .qfield import QScalar, evaluate, inverse, qpow
from .rewrite import Element


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\^|\*|/|\+|-|\(|\)))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:]
            stripped = rest.lstrip()
            if stripped:
                raise ExprSyntaxError(
                    f"unexpected character {stripped[0]!r}",
                    pos + len(rest) - len(stripped),
                )
            break
        if m.group(1):
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            out.append(("ident", m.group(2), m.start(2)))
        else:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        node = self.term()
        if negate:
            node = Neg(node)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = Pow(node, self.signed_int())
        return node

    def signed_int(self):
        kind, val, pos = self.next()
        sign = 1
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = self.next()
        if kind != "int":
            raise ExprSyntaxError("expected an integer exponent", pos)
        return sign * val

    def atom(self):
        kind, val, pos = self.next()
        if kind == "int":
            return Num(val)
        if kind == "ident":
            return Sym(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected an atom", pos)


def parse(text: str):
    """Parse text into an expression tree."""
    return _Parser(text).parse()


def to_text(node) -> str:
    """Deterministic printer; parse(to_text(parse(t))) == parse(t)."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        return f"-{_wrap(node.arg, 1)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, 2)}^{node.exp}"
    if isinstance(node, BinOp):
        if node.op in "+-":
            return f"{_wrap(node.left, 0)} {node.op} {_wrap(node.right, 1)}"
        return f"{_wrap(node.left, 1)} {node.op} {_wrap(node.right, 2)}"
    raise TypeError(type(node))


def _prec(node) -> int:
    if isinstance(node, (Num, Sym)):
        return 3
    if isinstance(node, Pow):
        return 2
    if isinstance(node, Neg):
        return 0
    return 0 if node.op in "+-" else 1


def _wrap(node, minimum) -> str:
    text = to_text(node)
    return f"({text})" if _prec(node) < minimum else text


# ---------------------------------------------------------------------------
# elaboration


class Context:
    """Preset-aware symbol environment for elaboration.

    `values` maps identifiers to Elements; `q_value` is the scalar bound to
    the symbol q (symbolic q^1 by default, an exact rational in --q mode).
    """

    def __init__(self, pres, values, q_value=None, scalar_one=None):
        self.pres = pres
        self.values = values
        self.q_value = q_value if q_value is not None else qpow(1)
        self.scalar_one = scalar_one if scalar_one is not None else QScalar(1)

    def scalar(self, v) -> object:
        return self.scalar_one * v


# each algebra name to its presentation at (params, S order key)
ALGEBRAS = {
    "Oq": lambda p, key: make_Oq(p),
    "Uq": lambda p, key: make_Uq(p),
    "Dq": lambda p, key: make_Dq(p),
    "S": lambda p, key: make_S(p, S_ORDERS[key]),
    "torus": lambda p, key: torus_of_S_quotient(p),
}


def context_for(algebra: str, p: AlgebraParams, order_key="J1", q0=None) -> Context:
    """Build the elaboration context for one of the named presets: every
    generator by its name, `<name>i` for each invertible generator of
    degree 0, then the macros of Dq and S."""
    if algebra not in ALGEBRAS:
        raise UnknownGenerator(f"unknown algebra {algebra!r}")
    pres = ALGEBRAS[algebra](p, order_key)
    if q0 is not None:
        pres = pres.specialize(Fraction(q0))
    t = pres.table
    values = {name: pres.gen(name) for name in t.names}
    for name, inv, deg in zip(t.names, t.invertible, t.degrees):
        if inv and deg == 0:
            values[f"{name}i"] = pres.gen(name, -1)
    if algebra == "Dq":
        ps = primed_in_D(p)
        for name, el in {**ps.images, "phi1": ps.phi1, "phi2": ps.phi2}.items():
            if q0 is not None:
                el = Element(pres, {m: evaluate(c, q0) for m, c in el.terms.items()})
            values[name] = el
    elif algebra == "S":
        values["phi1"], values["phi2"] = phi_elements(pres)
    if q0 is None:
        return Context(pres, values)
    return Context(pres, values, Fraction(q0), Fraction(1))


def elaborate_element(node, ctx: Context) -> Element:
    return _promote(_eval(node, ctx), ctx)


def parse_scalar(text: str):
    """Exact scalar from text; only q and rationals may appear."""
    return _eval(parse(text), Context(None, {}))


def _eval(node, ctx: Context):
    if isinstance(node, Num):
        return ctx.scalar(node.value)
    if isinstance(node, Sym):
        if node.name == "q":
            return ctx.q_value
        value = ctx.values.get(node.name) if ctx.values else None
        if value is None:
            raise UnknownGenerator(node.name)
        return value
    if isinstance(node, Neg):
        return -_eval(node.arg, ctx)
    if isinstance(node, Pow):
        base = _eval(node.base, ctx)
        if isinstance(base, Element):
            return ctx.pres.power(base, node.exp)
        if node.exp < 0 and not base:
            raise ZeroDivisionError("zero raised to a negative power")
        return base**node.exp
    if isinstance(node, BinOp):
        left = _eval(node.left, ctx)
        right = _eval(node.right, ctx)
        if node.op == "+":
            return _add(left, right, ctx)
        if node.op == "-":
            return _add(left, -right, ctx)
        if node.op == "*":
            return _mul(left, right, ctx)
        if node.op == "/":
            inv = right.inverse_monomial() if isinstance(right, Element) else inverse(right)
            return _mul(left, inv, ctx)
    raise TypeError(type(node))


def _promote(v, ctx) -> Element:
    if isinstance(v, Element):
        return v
    return ctx.pres.one().scale(v) if v else ctx.pres.zero()


def _add(left, right, ctx):
    if isinstance(left, Element) or isinstance(right, Element):
        return _promote(left, ctx) + _promote(right, ctx)
    return left + right


def _mul(left, right, ctx):
    if isinstance(left, Element) and isinstance(right, Element):
        return ctx.pres.multiply(left, right)
    if isinstance(left, Element):
        return left.scale(right)
    if isinstance(right, Element):
        return right.scale(left)
    return left * right

