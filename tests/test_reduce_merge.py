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
