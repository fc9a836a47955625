"""Specialization at a rational q0: one presentation per (presentation, q0).

`Presentation.specialize(q0)` keeps what it builds, keyed by `Fraction(q0)`,
so a repeated q0 reuses the rules, the table premises and the warm pair
cache; `map_scalars` stays a fresh copy with an empty pair cache.  A
reused specialization must give the normal form of a fresh one.
"""

from fractions import Fraction

import pytest
from test_closed_form import _typed

from qheis import rewrite
from qheis.presets import S_ORDERS, make_Dq, make_S, params
from qheis.qfield import evaluate

P = params(2, 3)


def _fresh_Dq():
    """Dq at (2, 3) with its own specializations, apart from the preset cache."""
    return make_Dq.__wrapped__(P)


def test_one_specialization_per_q0():
    dq = _fresh_Dq()
    two = dq.specialize(2)
    assert dq.specialize(Fraction(2)) is two
    assert dq.specialize(Fraction(4, 2)) is two
    other = dq.specialize(Fraction(3, 2))
    assert other is not two and dq.specialize("3/2") is other
    assert set(dq._specialized) == {Fraction(2), Fraction(3, 2)}


def test_specializations_are_bounded(monkeypatch):
    """With the bound at 2 the memo is emptied whenever it is full, and a
    specialization rebuilt after that has the rules of the first one."""
    monkeypatch.setattr(rewrite, "_SPECIALIZED_CAP", 2)
    dq = _fresh_Dq()
    points = [Fraction(2), Fraction(3, 2), Fraction(-2), Fraction(5, 3), Fraction(2)]
    built = []
    for q0 in points:
        built.append(dq.specialize(q0))
        assert 0 < len(dq._specialized) <= 2
        assert dq._specialized[q0] is built[-1]
    assert built[-1] is not built[0]
    assert built[-1].rules == built[0].rules


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q0"])
def test_map_scalars_stays_a_fresh_copy(q0):
    dq = _fresh_Dq()
    pres = dq if q0 is None else dq.specialize(q0)
    pres.normal_form([("E", 3), ("c", 3)])
    assert pres._pair_cache
    copy = pres.map_scalars(lambda s: s)
    assert copy is not pres and copy is not pres.map_scalars(lambda s: s)
    assert copy._pair_cache == {} and copy._specialized == {}
    assert copy.rules == pres.rules


def _rev4(pres):
    return [(name, 4) for name in reversed(pres.table.names)]


SPLICED = {
    "Dq b^5*F^5": (make_Dq, lambda pres: [("b", 5), ("F", 5)]),
    "Dq E^3*c^3*b^3*F^3": (make_Dq, lambda pres: [("E", 3), ("c", 3), ("b", 3), ("F", 3)]),
    **{
        f"S-{name} rev^4": (lambda p, o=order: make_S(p, o), _rev4)
        for name, order in S_ORDERS.items()
    },
}


@pytest.mark.parametrize("strategy", ["left", "right"])
@pytest.mark.parametrize("q0", [Fraction(3, 2), Fraction(-2)], ids=["q3/2", "q-2"])
@pytest.mark.parametrize("case", sorted(SPLICED))
def test_reused_specialization_matches_a_fresh_one(case, q0, strategy):
    """Words that splice blocks, on a specialization reused after a first
    normal form warmed its pair cache, against a fresh copy evaluated at
    q0: the same terms in the same order, coefficients of the same type."""
    build, word_of = SPLICED[case]
    base = build(P)
    word = word_of(base)
    pres = base.specialize(q0)
    pres.normal_form(word)
    assert pres._pair_cache
    reused = base.specialize(q0)
    assert reused is pres
    fresh = base.map_scalars(lambda s: evaluate(s, q0))
    got, want = reused.normal_form(word, strategy), fresh.normal_form(word, strategy)
    assert list(_typed(got.terms).items()) == list(_typed(want.terms).items())
    assert str(got) == str(want)
