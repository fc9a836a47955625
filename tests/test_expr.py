"""Parser, printer, and elaboration round-trips."""

import random
from fractions import Fraction

import pytest

from qheis.errors import ExprSyntaxError, NegativePowerOfNonInvertible, UnknownGenerator
from qheis.expr import (
    BinOp,
    Neg,
    Num,
    Pow,
    Sym,
    context_for,
    elaborate_element,
    parse,
    parse_scalar,
    to_text,
)
from qheis.presets import make_Dq, params, primed_in_D
from qheis.qfield import ONE, QScalar, qpow
from qheis.sampling import random_element


def test_parse_product():
    node = parse("E*c")
    assert node == BinOp("*", Sym("E"), Sym("c"))


def test_parse_macro_expression(p11):
    ctx = context_for("Dq", p11)
    el = elaborate_element(parse("q^-2*(Fp*bp - bp*Fp)"), ctx)
    ps = primed_in_D(p11)
    assert el == ps.phi2.scale(qpow(-2))


def test_parse_errors(p11):
    with pytest.raises(ExprSyntaxError):
        parse("a + ")
    with pytest.raises(ExprSyntaxError):
        parse("(a")
    with pytest.raises(ExprSyntaxError):
        parse("a^b")
    with pytest.raises(ExprSyntaxError) as err:
        parse("a $ b")
    assert err.value.pos == 2
    ctx = context_for("Oq", p11)
    with pytest.raises(NegativePowerOfNonInvertible):
        elaborate_element(parse("b^-1"), ctx)
    with pytest.raises(UnknownGenerator):
        elaborate_element(parse("E"), ctx)


def test_elaborate_examples(p11):
    ctx = context_for("Dq", p11)
    ec = elaborate_element(parse("E*c"), ctx)
    dq = ctx.pres
    assert ec == dq.normal_form([("E", 1), ("c", 1)])
    assert elaborate_element(parse("a*ai"), ctx) == dq.one()
    assert elaborate_element(parse("3/2*b"), ctx) == dq.gen("b").scale(
        QScalar(Fraction(3, 2))
    )


def test_scalar_parse_roundtrip():
    rng = random.Random(43)
    for _ in range(200):
        num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
        if not any(num) or not any(den):
            continue
        s = QScalar.from_num_den(num, den, shift=rng.randint(-3, 3))
        assert parse_scalar(str(s)) == s
    assert parse_scalar("q^-3") == qpow(-3)
    assert parse_scalar("(1 - q^2)/(2)") == (ONE - qpow(2)) / 2
    assert parse_scalar("-5/3") == QScalar(Fraction(-5, 3))


def _random_expr(rng, depth):
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return Num(rng.randint(0, 9))
        if kind == 1:
            return Sym(rng.choice(["a", "ai", "b", "c", "K", "Ki", "E", "F", "q"]))
        return Sym("q")
    kind = rng.randrange(5)
    if kind < 3:
        op = rng.choice(["+", "-", "*"])
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 3:
        return Pow(_random_expr(rng, 0), rng.randint(-3, 3))
    return Neg(_random_expr(rng, depth - 1))


def test_ast_print_parse_roundtrip():
    rng = random.Random(47)
    for _ in range(200):
        node = _random_expr(rng, rng.randint(1, 3))
        text = to_text(node)
        assert parse(text) == node, text


def test_element_render_parse_roundtrip(mn_params):
    dq = make_Dq(mn_params)
    ctx = context_for("Dq", mn_params)
    rng = random.Random(53)
    for _ in range(60):
        el = random_element(dq, rng, max_degree=3, n_terms=3)
        text = dq.render_element(el)
        assert elaborate_element(parse(text), ctx) == el


def test_rational_q_mode(p11):
    ctx = context_for("Dq", p11, q0=Fraction(3, 2))
    ec = elaborate_element(parse("E*c"), ctx)
    tail_coeff = Fraction(2, 3)  # q^{-1} at q = 3/2
    terms = dict(ec.terms)
    names = ctx.pres.table.names
    k_mono = tuple(1 if nm == "K" else (-1 if nm == "a" else 0) for nm in names)
    assert terms[k_mono] == tail_coeff
    assert parse_scalar("q") == qpow(1)


@pytest.mark.parametrize(
    "algebra, symbols",
    [
        ("Oq", {"a", "ai", "b", "c"}),
        ("Uq", {"K", "Ki", "E", "F"}),
        (
            "Dq",
            {"F", "c", "K", "Ki", "a", "ai", "E", "b"}
            | {"Ep", "Fp", "bp", "cp", "phi1", "phi2"},
        ),
        ("S", {"Ep", "Fp", "bp", "cp", "phi1", "phi2"}),
        ("torus", {"Ep", "Fp"}),
    ],
)
@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q3/2"])
def test_symbols_follow_the_spelling_rule(algebra, symbols, q0):
    """Every generator by its name, `<name>i` for each invertible generator
    of degree 0 (the torus generators have degree 1, so none), then the
    macros of Dq and S, all in the context's presentation."""
    ctx = context_for(algebra, params(2, -3), q0=q0)
    assert set(ctx.values) == symbols
    assert all(v.pres is ctx.pres for v in ctx.values.values())
    for name, v in ctx.values.items():
        if name.endswith("i") and name[:-1] in ctx.pres.index:
            assert ctx.pres.multiply(v, ctx.values[name[:-1]]) == ctx.pres.one()
    with pytest.raises(UnknownGenerator):
        elaborate_element(parse("Epi"), ctx)
