"""Products of monomials in closed form, against the rewriter.

`Presentation._skew_product` reads a product that no tail rule crosses off
the rule table; `Presentation._reduce` rewrites the same word one descent
at a time.  They must agree in monomials, values and coefficient types
(int, Fraction or QScalar), and the closed form must decline exactly when
a tail rule crosses.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.presets import S_ORDERS, make_D_split, make_Dq, make_Oq, make_S, make_Uq, params
from qheis.rewrite import Presentation, _typed
from qheis.suites import SUITE_NAMES, RunConfig, run_suites

BUILDERS = {
    "Oq": make_Oq,
    "Uq": make_Uq,
    "Dq": make_Dq,
    "D_split": make_D_split,
    **{f"S-{name}": (lambda p, o=order: make_S(p, o)) for name, order in S_ORDERS.items()},
    "Oq(x)Oq": lambda p: make_Oq(p).tensor_square(),
    "Uq(x)Uq": lambda p: make_Uq(p).tensor_square(),
}
GRID = [(1, 1), (2, -3), (-1, 2), (3, 2)]
POINTS = [None, Fraction(3, 2), Fraction(-2, 5)]


def _presentation(name, mn, q0):
    pres = BUILDERS[name](params(*mn))
    return pres if q0 is None else pres.specialize(q0)


def _crossings(m1, m2):
    """The pairs (i, j) of a letter i of m1 and an earlier letter j of m2."""
    return [(i, j) for i, a in enumerate(m1) if a for j, b in enumerate(m2[:i]) if b]


def _tail_crosses(pres, m1, m2):
    return any(pres.rules[key].tail for key in _crossings(m1, m2))


@st.composite
def _monomial(draw, pres):
    """Sparse exponents; an invertible generator may take a negative one."""
    return tuple(
        draw(st.just(0) | st.integers(-3 if inv else 0, 3))
        for inv in pres.table.invertible
    )


def _agrees_with_rewriter(pres, m1, m2):
    closed = pres._skew_product(m1, m2)
    if _tail_crosses(pres, m1, m2):
        assert closed is None
        return
    assert closed is not None
    word = pres._word_of_mono(m1) + pres._word_of_mono(m2)
    assert _typed(closed) == _typed(pres._reduce(1, word))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_closed_form_matches_the_rewriter(data):
    """Random monomial pairs over every presentation family, symbolic and
    specialized, with negative exponents on invertible generators."""
    pres = _presentation(
        data.draw(st.sampled_from(sorted(BUILDERS))),
        data.draw(st.sampled_from(GRID)),
        data.draw(st.sampled_from(POINTS)),
    )
    _agrees_with_rewriter(pres, data.draw(_monomial(pres)), data.draw(_monomial(pres)))


@pytest.mark.parametrize("q0", POINTS, ids=["symbolic", "q0=3/2", "q0=-2/5"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_closed_form_on_every_generator_pair(name, q0):
    """Every pair of signed letters, the unit and squares of letters: a
    pair with nothing to cross has the int coefficient 1, one that crosses
    a q-commutation has the type of the swap, q^0 included."""
    pres = _presentation(name, (2, -3), q0)
    k = len(pres.table.names)
    unit = (0,) * k
    letters = [unit]
    for i, e in pres.signed_letters():
        letters += [unit[:i] + (e,) + unit[i + 1:], unit[:i] + (2 * e,) + unit[i + 1:]]
    for m1 in letters:
        for m2 in letters:
            _agrees_with_rewriter(pres, m1, m2)
            if not _crossings(m1, m2):
                (c,) = pres._skew_product(m1, m2).values()
                assert c.__class__ is int and c == 1


# ---------------------------------------------------------------------------
# multiply: the pair cache, and both routes under QHEIS_DEBUG


def test_debug_multiply_checks_the_closed_form(p11, monkeypatch):
    """With QHEIS_DEBUG, multiply compares each closed form with the
    rewriter; a closed form off by a sign fails the comparison."""
    base = make_Dq(p11)
    monkeypatch.setenv("QHEIS_DEBUG", "1")
    dq = Presentation(base.table, base.rules)
    x = dq.gen("K") * dq.gen("a", -1)
    y = dq.gen("b", 2) * dq.gen("F")
    assert dq.multiply(y, x) == base.multiply(y, x)
    true_form = dq._skew_product

    def off_by_a_sign(m1, m2):
        out = true_form(m1, m2)
        return None if out is None else {m: -c for m, c in out.items()}

    monkeypatch.setattr(dq, "_skew_product", off_by_a_sign)
    dq._pair_cache.clear()
    with pytest.raises(AssertionError, match="closed-form product"):
        dq.multiply(y, x)
    monkeypatch.delenv("QHEIS_DEBUG")
    plain = Presentation(base.table, base.rules)
    monkeypatch.setattr(plain, "_skew_product", off_by_a_sign)
    assert plain.multiply(y, x) == -base.multiply(y, x)


def test_pair_caches_of_tail_free_presentations_stay_empty():
    """After the verify suites at three grid points, Oq, Uq and their
    tensor squares hold no pair-cache entry; S, which has tails, does."""
    names = [s for s in SUITE_NAMES if s != "ideals"]
    grid = [(1, 2), (-2, 3), (3, -1)]
    for m, n in grid:
        _, ok = run_suites(names, RunConfig(m=m, n=n, seed=11))
        assert ok
    for m, n in grid:
        p = params(m, n)
        for pres in (make_Oq(p), make_Uq(p)):
            assert pres._pair_cache == {}
            assert pres.tensor_square()._pair_cache == {}
        assert isinstance(make_S(p)._pair_cache, dict) and make_S(p)._pair_cache
