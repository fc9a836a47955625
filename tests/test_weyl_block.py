"""Blocks g^a*h^b filled from the table of g*h^i, against the rewriter.

`Presentation._weyl_block` fills the pair-cache entry of a block of a tail
rule that meets its premises, and only such blocks are spliced;
`Presentation._reduce(..., "right")` reduces the same word one letter at a
time and reads no memo.  They must agree in monomials, values and
coefficient types.  A rule that breaks a premise is rewritten one letter
at a time along "left" too and leaves no block entry, and no block of a
preset may need the rewriter.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_closed_form import GRID, POINTS, _typed
from test_rewrite import _letter_product

from qheis.presets import S_ORDERS, make_D_split, make_Dq, make_S, params
from qheis.qfield import ONE, qpow
from qheis.rewrite import Presentation

FAMILIES = {
    "Dq": make_Dq,
    "D_split": make_D_split,
    **{f"S-{name}": (lambda p, o=order: make_S(p, o)) for name, order in S_ORDERS.items()},
}


def _fresh(pres):
    """A copy of `pres` with an empty pair cache."""
    return pres.map_scalars(lambda s: s)


def _mono(pres, g, e):
    return tuple(e if i == g else 0 for i in range(len(pres.table.names)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_table_fill_matches_the_rewriter(data):
    """Random blocks of every tail rule of Dq, D0(x)S and S in J1-J4 at
    mixed-sign (m, n), symbolic and at rational q0, 2 <= a, b <= 8."""
    base = FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))](
        params(*data.draw(st.sampled_from(GRID)))
    )
    q0 = data.draw(st.sampled_from(POINTS))
    pres = _fresh(base if q0 is None else base.specialize(q0))
    g, h = data.draw(st.sampled_from(sorted(pres._rewrites)))
    a, b = data.draw(st.integers(2, 8)), data.draw(st.integers(2, 8))
    assert (g, h) in pres._weyl
    block = pres._product(_mono(pres, g, a), _mono(pres, h, b))
    assert _typed(block) == _typed(_fresh(pres)._reduce(1, [(g, a), (h, b)], "right"))


def _spy_on_reduce(pres, monkeypatch):
    """The strategy of each `_reduce` call on `pres`, in call order."""
    calls = []
    reduce = pres._reduce

    def spy(coeff, word, strategy="left"):
        calls.append(strategy)
        return reduce(coeff, word, strategy)

    monkeypatch.setattr(pres, "_reduce", spy)
    return calls


@pytest.mark.parametrize(
    "word, q0", [([("E", 16), ("c", 16)], None), ([("b", 5), ("F", 5)], Fraction(3, 2))]
)
def test_preset_blocks_fill_without_rewriting(word, q0, monkeypatch):
    """Dq at (2, 3): the normal form of one block reduces nothing along
    "right"; its block entry comes from the table."""
    base = make_Dq(params(2, 3))
    pres = _fresh(base if q0 is None else base.specialize(q0))
    calls = _spy_on_reduce(pres, monkeypatch)
    nf = pres.normal_form(word)
    assert calls == ["left"]
    assert nf.terms == _fresh(pres)._reduce(1, pres._validate_word(word), "right")


def _heisenberg_below():
    """z*y = q*y*z + x with x central, x sorting before y."""
    return Presentation.from_relations(
        names=("x", "y", "z"),
        invertible=(False,) * 3,
        degrees=(1,) * 3,
        relations=[
            ("y", "x", ONE, []),
            ("z", "x", ONE, []),
            ("z", "y", qpow(1), [(ONE, [("x", 1)])]),
        ],
    )


def _filiform():
    """[z, y] = t and [z, t] = w, the other brackets zero: t crosses z by a
    tail rule, w by q-commutations only."""
    names = ("y", "t", "w", "z")
    tails = {("z", "y"): "t", ("z", "t"): "w"}
    relations = [
        (u, v, ONE, [(ONE, [(tails[(u, v)], 1)])] if (u, v) in tails else [])
        for i, u in enumerate(names)
        for v in names[:i]
    ]
    return Presentation.from_relations(
        names=names, invertible=(False,) * 4, degrees=(1,) * 4, relations=relations
    )


@pytest.mark.parametrize(
    "build, g, h, weyl",
    [
        (_heisenberg_below, "z", "y", False),
        (_filiform, "z", "y", False),
        (_filiform, "z", "t", True),
    ],
    ids=["tail-letter-before-h", "tail-letter-crosses-g-by-a-tail", "filiform-z-t"],
)
def test_premises_pick_the_fill(build, g, h, weyl, monkeypatch):
    """A rule whose tail letter sorts before h, or crosses g by a tail rule,
    is refused: its block is rewritten one letter at a time and leaves no
    pair-cache entry.  The rule of the filiform algebra that meets the
    premises fills its block entry from the table.  Either way one
    reduction along "left" gives the right-strategy normal form and the
    letter product."""
    pres = build()
    assert pres.check_confluence().ok
    g, h = pres.index[g], pres.index[h]
    assert ((g, h) in pres._weyl) is weyl
    block = [(g, 3), (h, 4)]
    word = [(pres.table.names[i], e) for i, e in block]
    expected = _fresh(pres)._reduce(1, block, "right")
    assert _letter_product(pres, word) == expected
    pres = _fresh(pres)
    calls = _spy_on_reduce(pres, monkeypatch)
    nf = pres.normal_form(word)
    assert calls == ["left"]
    assert _typed(nf.terms) == _typed(expected)
    key = (_mono(pres, g, 3), _mono(pres, h, 4))
    if weyl:
        assert _typed(pres._pair_cache[key]) == _typed(expected)
    else:
        assert key not in pres._pair_cache


@pytest.mark.parametrize(
    "build",
    [_heisenberg_below, _filiform],
    ids=["tail-letter-before-h", "tail-letter-crosses-g-by-a-tail"],
)
def test_refused_rule_splices_no_block(build, monkeypatch):
    """The normal form of z^3*y^4 under a refused rule is one reduction
    along "left" that reads and fills no pair-cache entry, and its value
    is the right-strategy normal form and the letter product."""
    pres = _fresh(build())
    g, h = pres.index["z"], pres.index["y"]
    assert (g, h) in pres._rewrites and (g, h) not in pres._weyl
    expected = _fresh(pres)._reduce(1, [(g, 3), (h, 4)], "right")
    assert _letter_product(pres, [("z", 3), ("y", 4)]) == expected
    calls = _spy_on_reduce(pres, monkeypatch)
    monkeypatch.setattr(pres, "_product", None)
    nf = pres.normal_form([("z", 3), ("y", 4)])
    assert calls == ["left"] and not pres._pair_cache
    assert _typed(nf.terms) == _typed(expected)


def test_multiply_fills_a_refused_block_once(monkeypatch):
    """multiply(z^3, y^4) on the filiform algebra, whose rule (z, y) is
    refused the table: the miss reduces the word once, along "left" one
    letter at a time, so `multiply` never runs the reference rewriter, and
    keeps one pair-cache entry, the product of the monomials."""
    pres = _fresh(_filiform())
    g, h = pres.index["z"], pres.index["y"]
    assert (g, h) in pres._rewrites and (g, h) not in pres._weyl
    expected = _letter_product(pres, [("z", 3), ("y", 4)])
    calls = _spy_on_reduce(pres, monkeypatch)
    got = pres.multiply(pres.gen("z", 3), pres.gen("y", 4))
    assert calls == ["left"]
    assert list(pres._pair_cache) == [(_mono(pres, g, 3), _mono(pres, h, 4))]
    assert _typed(got.terms) == _typed(expected)
    right = _fresh(pres)._reduce(1, [(g, 3), (h, 4)], "right")
    assert _typed(got.terms) == _typed(right)
    left = _fresh(pres)._reduce(1, [(g, 3), (h, 4)])
    assert list(_typed(got.terms).items()) == list(_typed(left).items())
