"""Normal-form engine: reduction, confluence, termination, associativity."""

import random
from fractions import Fraction

import pytest

import qheis.rewrite
from qheis.errors import (
    NegativePowerOfNonInvertible,
    PresentationError,
    UnknownGenerator,
)
from qheis.presets import S_ORDERS, make_D_split, make_Dq, make_Oq, make_S, make_Uq, params
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


# ---------------------------------------------------------------------------
# tail rules on whole blocks: g^a*h^b spliced in from the block table


def _block_presentations(p, q0):
    press = [make_Dq(p)] + [make_S(p, order) for order in S_ORDERS.values()]
    if q0 is not None:
        press = [pres.specialize(q0) for pres in press]
    return press


def _random_block_word(pres, rng):
    """3-8 letters with exponents 1-4; an invertible letter is inverted
    half the time."""
    names, invertible = pres.table.names, pres.table.invertible
    word = []
    for _ in range(rng.randint(3, 8)):
        i = rng.randrange(len(names))
        e = rng.randint(1, 4)
        if invertible[i] and rng.random() < 0.5:
            e = -e
        word.append((names[i], e))
    return word


def _letter_product(pres, word):
    """The word multiplied one letter at a time on a copy of `pres` with
    empty caches: a single letter never forms a block, so no block table
    takes part."""
    fresh = pres.map_scalars(lambda s: s)
    acc = fresh.one()
    for name, e in word:
        letter = fresh.gen(name, 1 if e > 0 else -1)
        for _ in range(abs(e)):
            acc = fresh.multiply(acc, letter)
    assert not fresh._blocks
    return acc.terms


def _block_mismatches(pres, words):
    """The words whose normal form differs from the right-strategy one or
    from the letter-by-letter product."""
    bad = []
    for word in words:
        left = pres.normal_form(word).terms
        if left != pres.normal_form(word, "right").terms or left != _letter_product(pres, word):
            bad.append(word)
    return bad


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q3/2"])
@pytest.mark.parametrize("mn", [(1, 1), (2, -3), (-1, 2)], ids=lambda mn: f"m{mn[0]}n{mn[1]}")
def test_spliced_blocks_match_one_letter_rewriting(mn, q0):
    """Random words over Dq and S in all four orders: the left strategy,
    which splices in whole blocks, agrees with the right strategy and with
    the product of the letters, which peel one letter at a time."""
    rng = random.Random(59)
    spliced = 0
    for pres in _block_presentations(params(*mn), q0):
        words = [_random_block_word(pres, rng) for _ in range(10)]
        assert _block_mismatches(pres, words) == []
        spliced += len(pres._blocks)
    assert spliced


def test_rescaled_block_entry_fails_the_differential_check(p11):
    """One coefficient of one kept block, doubled, must show as a mismatch."""
    dq = make_Dq(p11).map_scalars(lambda s: s)
    rng = random.Random(59)
    words = [_random_block_word(dq, rng) for _ in range(10)] + [[("E", 2), ("c", 2)]]
    assert _block_mismatches(dq, words) == []
    key = next(iter(dq._blocks))
    block = dq._blocks[key]
    (word, c), *rest = block
    dq._blocks[key] = [(word, 2 * c), *rest]
    assert _block_mismatches(dq, words)


def test_right_strategy_reads_no_block(p11):
    class Unreadable(dict):
        def get(self, key, default=None):
            raise AssertionError("block table read")

    for pres in _block_presentations(p11, None):
        pres = pres.map_scalars(lambda s: s)
        pres._blocks = Unreadable()
        names = pres.table.names
        word = [(names[-1], 3), (names[0], 3), (names[-1], 2), (names[1], 2)]
        right = pres.normal_form(word, "right")
        assert pres.normal_form(word, random.Random(3)) == right
        with pytest.raises(AssertionError, match="block table read"):
            pres.normal_form(word)


def test_block_table_is_bounded(p11, monkeypatch):
    """Filled past its cap the table empties and starts again, and the
    normal forms stay those of an unbounded table."""
    words = [[("E", a), ("c", b), ("F", a), ("b", b)] for a in range(2, 5) for b in range(2, 5)]
    unbounded = make_Dq(p11).map_scalars(lambda s: s)
    expected = [unbounded.normal_form(w) for w in words]
    assert len(unbounded._blocks) > 4
    monkeypatch.setattr(qheis.rewrite, "_BLOCKS_CAP", 4)
    dq = make_Dq(p11).map_scalars(lambda s: s)
    got = []
    for w in words:
        got.append(dq.normal_form(w))
        assert 0 < len(dq._blocks) <= 4
    assert got == expected


# ---------------------------------------------------------------------------
# the premises of the termination order (degree, inversions): every tail is
# of lower degree than its pair, and a kept block g^a*h^b has normal words
# whose only one of full degree is h^b*g^a, so a splice lowers the order


def _word_degree(pres, word):
    return sum(pres.table.degrees[i] * e for i, e in word if e > 0)


def _order_violations(pres):
    """The tails and kept blocks of `pres` that break those premises."""
    bad = []
    degs = pres.table.degrees
    for (g, h), rule in pres.rules.items():
        if any(pres.degree_of(m) >= degs[g] + degs[h] for m, _ in rule.tail):
            bad.append(("tail", g, h))
    for (g, a, h, b), block in pres._blocks.items():
        words = [w for w, _ in block]
        if not all(
            all(e for _, e in w) and all(x[0] < y[0] for x, y in zip(w, w[1:]))
            for w in words
        ):
            bad.append(("not normal", g, a, h, b))
        full = a * degs[g] + b * degs[h]
        if [w for w in words if _word_degree(pres, w) >= full] != [[(h, b), (g, a)]]:
            bad.append(("full degree", g, a, h, b))
    return bad


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q3/2"])
@pytest.mark.parametrize("mn", [(1, 1), (2, -3), (-1, 2)], ids=lambda mn: f"m{mn[0]}n{mn[1]}")
def test_tails_and_kept_blocks_lower_the_termination_order(mn, q0):
    """Dq, D_split and S in all four orders, after random block words."""
    p = params(*mn)
    split = make_D_split(p) if q0 is None else make_D_split(p).specialize(q0)
    rng = random.Random(61)
    blocks = 0
    for pres in _block_presentations(p, q0) + [split]:
        pres = pres.map_scalars(lambda s: s)
        for _ in range(6):
            pres.normal_form(_random_block_word(pres, rng))
        blocks += len(pres._blocks)
        assert _order_violations(pres) == []
    assert blocks


def test_order_premises_fail_on_mutant_tails_and_blocks(p11):
    """A block entry holding the unreduced g^a*h^b, one whose leading word
    is of higher degree, and a tail of full degree each break a premise."""
    dq = make_Dq(p11).map_scalars(lambda s: s)
    dq.normal_form([("E", 2), ("c", 3)])
    (key, block), = dq._blocks.items()
    g, a, h, b = key
    assert _order_violations(dq) == []
    mutants = [
        block + [([(g, a), (h, b)], 1)],
        [([(h, b), (g, a + 1)], c) if w == [(h, b), (g, a)] else (w, c) for w, c in block],
    ]
    for mutant in mutants:
        dq._blocks[key] = mutant
        assert _order_violations(dq)
    dq._blocks[key] = block
    rule = dq.rules[(g, h)]
    full = tuple(1 if i in (g, h) else 0 for i in range(6))
    dq.rules[(g, h)] = RewriteRule(g, h, rule.swap, rule.tail + ((full, 1),))
    assert _order_violations(dq) == [("tail", g, h)]


def test_full_degree_tail_rejected():
    """y*x = x*y + x^2: the tail is of the degree of the pair it reorders."""
    with pytest.raises(PresentationError, match="tail degree not below the reordered pair"):
        Presentation.from_relations(
            names=("x", "y"),
            invertible=(False, False),
            degrees=(1, 1),
            relations=[("y", "x", ONE, [(ONE, [("x", 2)])])],
        )
