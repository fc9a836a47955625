"""The merging reducer against a one-step stack reducer.

`reference_reduce` is the reduction order the engine used before pending
words were merged: rewrite the leftmost descent, push every branch onto a
stack and never combine equal intermediate words.  It reads only the rule
table, so it shares no ordering or merging logic with `Presentation._reduce`.
"""

import random
from fractions import Fraction

import pytest

from qheis.presets import S_ORDERS, make_Dq, make_Oq, make_S, make_Uq, params
from qheis.qfield import ONE, qpow
from qheis.rewrite import Presentation


def _merge(blocks):
    out = []
    for g, e in blocks:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return out


def _add(out, key, c):
    prev = out.get(key)
    s = c if prev is None else prev + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def reference_reduce(pres, coeff, word):
    """coeff*word as a {monomial: coeff} map, one rewrite per stack entry."""
    out = {}
    stack = [(coeff, _merge(word))]
    while stack:
        c, w = stack.pop()
        pos = next((i for i in range(len(w) - 1) if w[i][0] > w[i + 1][0]), None)
        if pos is None:
            mono = [0] * len(pres.table.names)
            for g, e in w:
                mono[g] = e
            _add(out, tuple(mono), c)
            continue
        (g, a), (h, b) = w[pos], w[pos + 1]
        head, rest = w[:pos], w[pos + 2:]
        rule = pres.rules[(g, h)]
        if not rule.tail:
            stack.append((c * rule.swap ** (a * b), _merge(head + [(h, b), (g, a)] + rest)))
            continue
        stack.append(
            (c * rule.swap, _merge(head + [(g, a - 1), (h, 1), (g, 1), (h, b - 1)] + rest))
        )
        for tmono, tc in rule.tail:
            tw = [(i, e) for i, e in enumerate(tmono) if e]
            stack.append((c * tc, _merge(head + [(g, a - 1)] + tw + [(h, b - 1)] + rest)))
    return out


def _presentations(p):
    return [make_Oq(p), make_Uq(p), make_Dq(p)] + [make_S(p, o) for o in S_ORDERS.values()]


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q3/2"])
def test_reduce_matches_stack_reducer(mn_params, q0):
    """300 random words of 3-8 signed letters, spread over Oq, Uq, Dq and S
    in all four orders: every strategy equals the stack reducer."""
    press = _presentations(mn_params)
    if q0 is not None:
        press = [pres.specialize(q0) for pres in press]
    rng = random.Random(41)
    for k in range(300):
        pres = press[k % len(press)]
        letters = pres.signed_letters()
        word = [rng.choice(letters) for _ in range(rng.randint(3, 8))]
        expected = reference_reduce(pres, 1, list(word))
        assert pres._reduce(1, list(word), "left") == expected, word
        assert pres._reduce(1, list(word), "right") == expected, word
        assert pres._reduce(1, list(word), rng) == expected, word


LADDERS = {
    "Dq E^8 c^8 F^8 b^8": ("Dq", [("E", 8), ("c", 8), ("F", 8), ("b", 8)]),
    "S J1 cp^6 bp^6 Fp^6 Ep^6": ("S", [("cp", 6), ("bp", 6), ("Fp", 6), ("Ep", 6)]),
}


@pytest.mark.parametrize("case", list(LADDERS))
def test_ladder_word_matches_letter_by_letter_product(case):
    """High-exponent words whose branches repeat many times.  The stack
    reducer needs minutes for them; the product built one generator at a
    time from the right, on a fresh presentation, only reduces short words."""
    algebra, word = LADDERS[case]
    p = params(1, 1)
    pres = make_Dq(p) if algebra == "Dq" else make_S(p, S_ORDERS["J1"])
    left = pres.normal_form(word)
    assert pres.normal_form(word, strategy="right") == left
    fresh = Presentation(pres.table, pres.rules)
    acc = fresh.one()
    for name, e in reversed(word):
        for _ in range(e):
            acc = fresh.multiply(fresh.gen(name), acc)
    assert acc == left


def test_pending_words_that_cancel_are_dropped():
    """With y*x = q^-1 x*y - z, z*x = q x*z - x and z*y = y*z + y, the
    word z*y*x leaves y*z*x and y*x pending; y*z*x then gives y*x*z and
    -y*x, which cancels the pending y*x before it is reduced.  The
    presentation is not confluent, but the stack reducer takes the same
    one-letter route from the leftmost descent, so the two agree."""
    pres = Presentation.from_relations(
        ("x", "y", "z"),
        (False,) * 3,
        (1,) * 3,
        [
            ("y", "x", qpow(-1), [(-ONE, [("z", 1)])]),
            ("z", "x", qpow(1), [(-ONE, [("x", 1)])]),
            ("z", "y", ONE, [(ONE, [("y", 1)])]),
        ],
    )
    word = [(2, 1), (1, 1), (0, 1)]
    got = pres._reduce(1, list(word), "left")
    assert got == reference_reduce(pres, 1, list(word))
    assert got == {(1, 1, 1): ONE, (0, 0, 2): -qpow(1)}


def _random_merged(rng, letters, length):
    return _merge([(rng.randrange(letters), rng.choice([-2, -1, 1, 2])) for _ in range(length)])


def test_joined_equals_merging_the_whole_word():
    """Two merged words joined at their seam equal the merge of their
    concatenation, cascades included: x*y^2*z times z^-1*y^-2*x merges
    three times across the seam and leaves x^2."""
    joined = Presentation._joined
    assert joined([(0, 1), (1, 2), (2, 1)], [(2, -1), (1, -2), (0, 1)]) == [(0, 2)]
    assert joined([(0, 1), (1, 2)], [(1, -2), (0, -1)]) == []
    assert joined([(0, 1)], [(0, 2), (1, 1)]) == [(0, 3), (1, 1)]
    assert joined([], [(1, 1)]) == [(1, 1)] and joined([(1, 1)], []) == [(1, 1)]
    rng = random.Random(7)
    cascades = 0
    for _ in range(2000):
        left = _random_merged(rng, 3, rng.randint(0, 5))
        right = _random_merged(rng, 3, rng.randint(0, 5))
        got = joined(left, right)
        assert got == _merge(left + right), (left, right)
        cascades += len(got) < len(left) + len(right) - 1
    assert cascades > 50


def test_swap_that_cancels_across_both_seams(monkeypatch):
    """In the quantum torus on x, y, the rightmost descent of
    y^-1*x^-1*y*x swaps y and x; y^-1*y then cancels at the seam and
    x^-1*x after it, leaving the empty word with coefficient q^-1: every
    strategy agrees with the stack reducer."""
    from qheis.presets import make_quantum_torus

    t = make_quantum_torus(("x", "y"), [[ONE, qpow(1)], [qpow(-1), ONE]])
    word = [(1, -1), (0, -1), (1, 1), (0, 1)]
    seen = []
    joined = Presentation._joined

    def spy(left, right):
        got = joined(left, right)
        seen.append((left, right, got))
        return got

    monkeypatch.setattr(Presentation, "_joined", staticmethod(spy))
    expected = reference_reduce(t, 1, list(word))
    assert expected == {(0, 0): qpow(-1)}
    for strategy in ("left", "right", random.Random(3)):
        assert t._reduce(1, list(word), strategy) == expected
    assert any(left and right and not got for left, right, got in seen)
