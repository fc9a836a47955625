"""Normal-form engine: reduction, confluence, termination, associativity."""

import random

import pytest

from qheis.errors import (
    NegativePowerOfNonInvertible,
    PresentationError,
    UnknownGenerator,
)
from qheis.presets import S_ORDERS, make_Dq, make_Oq, make_S, make_Uq, params
from qheis.qfield import ONE, qpow
from qheis.rewrite import Presentation, RewriteRule, substitute
from qheis.sampling import random_element


def test_oq_basic_reordering(p11):
    oq = make_Oq(p11)
    ba = oq.normal_form([("b", 1), ("a", 1)])
    assert ba == oq.multiply(oq.gen("a"), oq.gen("b")).scale(qpow(-1))


def test_dq_ec_relation(p11):
    dq = make_Dq(p11)
    ec = dq.normal_form([("E", 1), ("c", 1)])
    expected = dq.multiply(dq.gen("c"), dq.gen("E")) + dq.normal_form(
        [("K", 1), ("a", -1)]
    ).scale(qpow(-1))
    assert ec == expected


def test_invertible_cancellation(p11):
    oq = make_Oq(p11)
    assert oq.normal_form([("a", 1), ("a", -1)]) == oq.one()
    dq = make_Dq(p11)
    assert dq.normal_form([("K", 3), ("K", -3)]) == dq.one()


def test_multiply_fb_tail(mn_params):
    dq = make_Dq(mn_params)
    n = mn_params.n
    fb = dq.multiply(dq.gen("F"), dq.gen("b"))
    expected = dq.multiply(dq.gen("b"), dq.gen("F")).scale(qpow(-n * n)) + dq.gen(
        "a", n
    )
    assert fb == expected


def test_multiply_unit(p11):
    dq = make_Dq(p11)
    rng = random.Random(3)
    x = random_element(dq, rng)
    assert dq.multiply(x, dq.one()) == x
    assert dq.multiply(dq.one(), x) == x


def test_commutator_examples(p11):
    s4 = make_S(p11, S_ORDERS["J4"])  # order (bp, cp, Ep, Fp)
    m, n = p11.m, p11.n
    phi1 = s4.commutator(s4.gen("Ep"), s4.gen("cp"))
    assert phi1 == s4.multiply(s4.gen("cp"), s4.gen("Ep")).scale(
        qpow(2 * m * m) - 1
    ) + s4.one()
    phi2 = s4.commutator(s4.gen("Fp"), s4.gen("bp"))
    assert phi2 == s4.multiply(s4.gen("bp"), s4.gen("Fp")).scale(
        qpow(-2 * n * n) - 1
    ) + s4.one()
    x = random_element(s4, random.Random(5))
    assert not s4.commutator(x, x)


def test_phi_commute_in_S(p11):
    s = make_S(p11)
    phi1 = s.commutator(s.gen("Ep"), s.gen("cp"))
    phi2 = s.commutator(s.gen("Fp"), s.gen("bp"))
    assert s.multiply(phi1, phi2) == s.multiply(phi2, phi1)


def test_confluence_all_presets(mn_params):
    for pres in (
        make_Oq(mn_params),
        make_Uq(mn_params),
        make_Dq(mn_params),
        *(make_S(mn_params, order) for order in S_ORDERS.values()),
    ):
        report = pres.check_confluence()
        assert report.ok, report.failures


def test_confluence_triple_count(p11):
    report = make_Dq(p11).check_confluence()
    assert report.triples_checked == 20
    assert report.ok


def test_confluence_negative_control(p11):
    """A corrupted swap scalar must surface as a divergence, not pass silently."""
    good = make_Dq(p11)
    rules = dict(good.rules)
    ib, ia = good.index["b"], good.index["a"]
    rules[(ib, ia)] = RewriteRule(ib, ia, qpow(1), ())  # should be q^{-n}
    bad = Presentation(good.table, rules)
    report = bad.check_confluence()
    assert not report.ok
    word, left, right = report.failures[0]
    assert left != right


def test_unknown_generator_and_negative_power(p11):
    oq = make_Oq(p11)
    with pytest.raises(UnknownGenerator):
        oq.normal_form([("z", 1)])
    with pytest.raises(NegativePowerOfNonInvertible):
        oq.normal_form([("b", -1)])
    with pytest.raises(NegativePowerOfNonInvertible):
        oq.gen("c", -2)


def test_incomplete_rule_table_rejected():
    with pytest.raises(PresentationError):
        Presentation.from_relations(
            names=("x", "y", "z"),
            invertible=(False,) * 3,
            degrees=(1,) * 3,
            relations=[("y", "x", ONE, [])],
        )


def test_out_of_order_tail_word_rejected():
    """z*x = x*z + y*x, with z of degree 3: the tail word y*x lists y
    before the earlier x."""
    rel = [("y", "x", ONE, []), ("z", "y", ONE, [])]
    with pytest.raises(PresentationError, match="normal order"):
        Presentation.from_relations(
            names=("x", "y", "z"),
            invertible=(False,) * 3,
            degrees=(1, 1, 3),
            relations=rel + [("z", "x", ONE, [(ONE, [("y", 1), ("x", 1)])])],
        )
    ordered = Presentation.from_relations(
        names=("x", "y", "z"),
        invertible=(False,) * 3,
        degrees=(1, 1, 3),
        relations=rel + [("z", "x", ONE, [(ONE, [("x", 1), ("y", 1)])])],
    )
    assert ordered.rules[(2, 0)].tail == (((1, 1, 0), ONE),)


def test_normal_form_idempotent(mn_params):
    """The normal form of a random word is the product of its letters, and
    the word of each of its monomials reduces to that monomial."""
    rng = random.Random(17)
    for pres in (make_Dq(mn_params), make_S(mn_params)):
        names = pres.table.names
        letters = [(names[i], e) for i, e in pres.signed_letters()]
        for _ in range(25):
            word = [rng.choice(letters) for _ in range(rng.randint(2, 6))]
            nf = pres.normal_form(word)
            product = pres.one()
            for g, e in word:
                product = pres.multiply(product, pres.gen(g, e))
            assert nf == product
            for mono in nf.terms:
                again = pres.normal_form([(names[i], e) for i, e in enumerate(mono) if e])
                assert again == pres.monomial(mono)


def test_tensor_square(p11):
    """A (x) A is confluent, each copy multiplies as A does, and the two
    copies commute; Dq checks that the tails of a copy land in that copy."""
    rng = random.Random(31)
    for pres in (make_Oq(p11), make_Dq(p11)):
        sq = pres.tensor_square()
        assert sq is pres.tensor_square()
        assert sq.check_confluence().ok
        copies = [
            {g: sq.gen(f"{g}({k})") for g in pres.table.names} for k in (1, 2)
        ]
        for _ in range(10):
            x, y = (random_element(pres, rng, max_degree=2, n_terms=2) for _ in range(2))
            for c in copies:
                assert substitute(pres.multiply(x, y), c, sq) == sq.multiply(
                    substitute(x, c, sq), substitute(y, c, sq)
                )
            x1, y2 = substitute(x, copies[0], sq), substitute(y, copies[1], sq)
            assert sq.multiply(x1, y2) == sq.multiply(y2, x1)


def test_normal_form_rejects_an_element_of_other_generators(p11):
    uq = make_Uq(p11)
    with pytest.raises(PresentationError):
        make_Oq(p11).normal_form(uq.gen("E") * uq.gen("K"))


def test_strategy_independence(mn_params):
    """Reduction result does not depend on the descent chosen at each step."""
    rng = random.Random(23)
    for pres in (make_Dq(mn_params), make_S(mn_params)):
        letters = pres.signed_letters()
        for _ in range(500):
            word = [rng.choice(letters) for _ in range(rng.randint(2, 6))]
            base = pres._reduce(1, list(word), "left")
            assert pres._reduce(1, list(word), "right") == base
            assert pres._reduce(1, list(word), rng) == base


def test_associativity(mn_params):
    rng = random.Random(29)
    for pres in (make_Dq(mn_params), make_S(mn_params)):
        for _ in range(200):
            x = random_element(pres, rng, max_degree=2, n_terms=2)
            y = random_element(pres, rng, max_degree=2, n_terms=2)
            z = random_element(pres, rng, max_degree=2, n_terms=2)
            assert pres.multiply(pres.multiply(x, y), z) == pres.multiply(
                x, pres.multiply(y, z)
            )


def test_degree_filtration(mn_params):
    dq = make_Dq(mn_params)
    rng = random.Random(31)
    for _ in range(50):
        x = random_element(dq, rng)
        y = random_element(dq, rng)
        xy = dq.multiply(x, y)
        if xy:
            assert xy.degree() <= x.degree() + y.degree()


def _opposite(pres):
    """Independent presentation of the opposite algebra: reversed generator
    order, every rule L*E = s*E*L + t transcribed as E o L = s*(L o E) + t."""
    k = len(pres.table.names)
    relations = []
    for rule in pres.rules.values():
        tail = []
        for mono, c in rule.tail:
            word = [
                (pres.table.names[i], mono[i])
                for i in reversed(range(k))
                if mono[i]
            ]
            tail.append((c, word))
        relations.append(
            (
                pres.table.names[rule.earlier],
                pres.table.names[rule.later],
                rule.swap,
                tail,
            )
        )
    return Presentation.from_relations(
        tuple(reversed(pres.table.names)),
        tuple(reversed(pres.table.invertible)),
        tuple(reversed(pres.table.degrees)),
        relations,
    )


def test_opposite_algebra_cross_check(mn_params):
    """The engine agrees with an independently built opposite presentation:
    op(x*y) == op(y) * op(x), exercising the reversed rule orientations."""
    dq = make_Dq(mn_params)
    op = _opposite(dq)
    assert op.check_confluence().ok

    def opify(el):
        from qheis.rewrite import Element

        return Element(op, {tuple(reversed(m)): c for m, c in el.terms.items()})

    rng = random.Random(101)
    for _ in range(60):
        x = random_element(dq, rng, max_degree=3, n_terms=2)
        y = random_element(dq, rng, max_degree=3, n_terms=2)
        assert opify(dq.multiply(x, y)) == op.multiply(opify(y), opify(x))


def test_specialization_commutes_with_multiplication(mn_params):
    """Evaluating q after multiplying equals multiplying after evaluating."""
    from fractions import Fraction

    from qheis.qfield import QScalar
    from qheis.rewrite import Element

    q0 = Fraction(5, 3)
    dq = make_Dq(mn_params)
    dq0 = dq.specialize(q0)

    def ev(el):
        return Element(
            dq0,
            {
                m: (c.evaluate(q0) if isinstance(c, QScalar) else Fraction(c))
                for m, c in el.terms.items()
            },
        )

    rng = random.Random(103)
    for _ in range(40):
        x = random_element(dq, rng, max_degree=3, n_terms=2)
        y = random_element(dq, rng, max_degree=3, n_terms=2)
        assert ev(dq.multiply(x, y)) == dq0.multiply(ev(x), ev(y))


def test_debug_measure_assertion(p11, monkeypatch):
    monkeypatch.setenv("QHEIS_DEBUG", "1")
    make_Dq.cache_clear()
    dq = make_Dq(p11)
    assert dq._debug
    rng = random.Random(37)
    for _ in range(50):
        word = [rng.choice(dq.signed_letters()) for _ in range(4)]
        dq._reduce(1, list(word))
    monkeypatch.delenv("QHEIS_DEBUG")
    make_Dq.cache_clear()


def test_debug_measure_assertion_negative_control(p11, monkeypatch):
    """With a measure that never decreases, the debug check fires on a pure
    q-commutation swap and on the branches of a tail rule alike."""
    base = make_Dq(p11)
    monkeypatch.setenv("QHEIS_DEBUG", "1")
    dq = Presentation(base.table, base.rules)
    assert dq._debug
    monkeypatch.setattr(dq, "_measure", lambda word: (0, 0, 0))
    i = dq.index
    swap_word = [(i["b"], 1), (i["a"], 1)]  # b*a = q^-n a*b
    tail_word = [(i["E"], 1), (i["c"], 1)]  # E*c = c*E + q^-1 K*a^-1
    for word in (swap_word, tail_word):
        with pytest.raises(AssertionError, match="termination measure"):
            dq._reduce(1, word)
