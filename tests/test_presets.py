"""Algebra presets: relation encodings, primed set, factorization, tori."""

import random

import pytest

from qheis.errors import InadmissibleOrder, InvalidStructuralMatrix, ZeroParameter
from qheis.presets import (
    S_ORDERS,
    AlgebraParams,
    factorize_D,
    make_Dq,
    make_D_split,
    make_Oq,
    make_quantum_torus,
    make_S,
    make_Uq,
    params,
    primed_in_D,
    recombine_D,
    structural_matrix_S,
)
from qheis.qfield import ONE, qpow
from qheis.rewrite import substitute
from qheis.sampling import random_element


def test_params_validation():
    with pytest.raises(ZeroParameter):
        params(0, 3)
    with pytest.raises(ZeroParameter):
        params(2, 0)
    assert AlgebraParams(-6, 4) == params(-6, 4)
    assert params(6, 4).d == 2
    assert params(-2, 5).d == 1


def test_oq_relations(p11):
    oq = make_Oq(p11)
    assert oq.normal_form([("a", 1), ("c", 1)]) == oq.multiply(
        oq.gen("c"), oq.gen("a")
    ).scale(qpow(1))
    assert oq.normal_form([("b", 1), ("c", 1)]) == oq.multiply(oq.gen("c"), oq.gen("b"))


def test_oq_sign_bookkeeping():
    oq = make_Oq(params(2, -3))
    assert oq.normal_form([("b", 1), ("a", 1)]) == oq.multiply(
        oq.gen("a"), oq.gen("b")
    ).scale(qpow(3))


def test_uq_relations(mn_params):
    uq = make_Uq(mn_params)
    m = mn_params.m
    assert uq.normal_form([("E", 1), ("K", 1)]) == uq.multiply(
        uq.gen("K"), uq.gen("E")
    ).scale(qpow(-2 * m))
    assert uq.normal_form([("E", 1), ("F", 1)]) == uq.multiply(uq.gen("F"), uq.gen("E"))
    assert uq.normal_form([("K", 1), ("K", -1)]) == uq.one()


def test_dq_relations(mn_params):
    dq = make_Dq(mn_params)
    m, n = mn_params.m, mn_params.n
    assert dq.normal_form([("F", 1), ("c", 1)]) == dq.multiply(
        dq.gen("c"), dq.gen("F")
    ).scale(qpow(m * n))
    assert dq.normal_form([("K", 1), ("a", 1)]) == dq.multiply(
        dq.gen("a"), dq.gen("K")
    ).scale(qpow(-1))
    eb = dq.multiply(dq.gen("E"), dq.gen("b"))
    assert eb == dq.normal_form([("b", 1), ("E", 1)])
    assert list(eb.terms) == [
        tuple(1 if name in ("E", "b") else 0 for name in dq.table.names)
    ]


def _named_rules(pres, gens):
    """Rules among `gens`, keyed and tailed by generator names, so that
    presentations with different generator orders compare."""
    names = pres.table.names
    out = {}
    for (li, ei), rule in pres.rules.items():
        if names[li] in gens and names[ei] in gens:
            tail = {
                tuple((names[i], e) for i, e in enumerate(mono) if e): c
                for mono, c in rule.tail
            }
            out[(names[li], names[ei])] = (rule.swap, tail)
    return out


def test_dq_carries_the_oq_and_uq_rules(mn_params):
    dq = make_Dq(mn_params)
    for sub, gens in (
        (make_Oq(mn_params), {"a", "b", "c"}),
        (make_Uq(mn_params), {"K", "E", "F"}),
    ):
        want = _named_rules(sub, gens)
        assert len(want) == 3
        assert _named_rules(dq, gens) == want


def test_s_orders(p11):
    m, n = p11.m, p11.n
    s1 = make_S(p11, S_ORDERS["J1"])
    bF = s1.normal_form([("bp", 1), ("Fp", 1)])
    assert bF == s1.multiply(s1.gen("Fp"), s1.gen("bp")).scale(qpow(2 * n * n)) - s1.one(
        qpow(2 * n * n)
    )
    cE = s1.normal_form([("cp", 1), ("Ep", 1)])
    assert cE == s1.multiply(s1.gen("Ep"), s1.gen("cp")).scale(
        qpow(-2 * m * m)
    ) - s1.one(qpow(-2 * m * m))
    EF = s1.normal_form([("Ep", 1), ("Fp", 1)])
    assert EF == s1.multiply(s1.gen("Fp"), s1.gen("Ep")).scale(qpow(-2 * m * n))


def test_s_inadmissible_order(p11):
    with pytest.raises(InadmissibleOrder):
        make_S(p11, ("Fp", "Ep", "cp", "bp"))


def test_one_s_presentation_per_order():
    """However the order is passed, one presentation and one pair cache."""
    p = params(2, -3)
    j1 = S_ORDERS["J1"]
    assert make_S(p) is make_S(p, j1) is make_S(p, order=j1) is make_S(p, list(j1))
    for order in S_ORDERS.values():
        assert make_S(p, order) is make_S(p, order=order)
        assert make_S(p, order).table.names == order
    assert len({id(make_S(p, order)) for order in S_ORDERS.values()}) == 4


def test_primed_images_name_the_primed_elements(mn_params):
    ps = primed_in_D(mn_params)
    assert ps.images == {"Ep": ps.eP, "Fp": ps.fP, "bp": ps.bP, "cp": ps.cP}
    ps.images["Ep"] = None
    assert ps.images["Ep"] is ps.eP


def test_primed_eP_single_monomial(p11):
    ps = primed_in_D(p11)
    assert len(ps.eP.terms) == 1
    dq = make_Dq(p11)
    assert ps.eP == dq.normal_form([("a", 2), ("E", 1)])


def test_primed_relations_embedded(mn_params):
    dq = make_Dq(mn_params)
    ps = primed_in_D(mn_params)
    m, n = mn_params.m, mn_params.n
    mul = dq.multiply
    # F'b' = q^{-2n^2} b'F' + 1
    assert mul(ps.fP, ps.bP) - mul(ps.bP, ps.fP).scale(qpow(-2 * n * n)) == dq.one()
    # E'c' = q^{2m^2} c'E' + 1
    assert mul(ps.eP, ps.cP) - mul(ps.cP, ps.eP).scale(qpow(2 * m * m)) == dq.one()
    # torus commutation
    for t in ("K", "a"):
        for x in (ps.bP, ps.cP, ps.eP, ps.fP):
            assert mul(dq.gen(t), x) == mul(x, dq.gen(t))
    # pure swaps
    assert mul(ps.bP, ps.cP) == mul(ps.cP, ps.bP).scale(qpow(2 * m * n))
    assert mul(ps.eP, ps.bP) == mul(ps.bP, ps.eP).scale(qpow(2 * m * n))
    assert mul(ps.fP, ps.cP) == mul(ps.cP, ps.fP).scale(qpow(-2 * m * n))
    assert mul(ps.eP, ps.fP) == mul(ps.fP, ps.eP).scale(qpow(-2 * m * n))


def test_phi_identities_embedded(mn_params):
    dq = make_Dq(mn_params)
    ps = primed_in_D(mn_params)
    m, n = mn_params.m, mn_params.n
    mul = dq.multiply
    phi1, phi2 = ps.phi1, ps.phi2
    assert mul(phi1, phi2) == mul(phi2, phi1)
    assert mul(phi1, ps.fP) == mul(ps.fP, phi1)
    assert mul(phi1, ps.bP) == mul(ps.bP, phi1)
    assert mul(ps.eP, phi2) == mul(phi2, ps.eP)
    assert mul(ps.cP, phi2) == mul(phi2, ps.cP)
    assert mul(phi1, ps.eP) == mul(ps.eP, phi1).scale(qpow(-2 * m * m))
    assert mul(phi1, ps.cP) == mul(ps.cP, phi1).scale(qpow(2 * m * m))
    assert mul(ps.fP, phi2) == mul(phi2, ps.fP).scale(qpow(-2 * n * n))
    assert mul(ps.bP, phi2) == mul(phi2, ps.bP).scale(qpow(2 * n * n))


def test_phi_identities_abstract(mn_params):
    s = make_S(mn_params)
    m, n = mn_params.m, mn_params.n
    mul = s.multiply
    Ep, Fp, bp, cp = s.gen("Ep"), s.gen("Fp"), s.gen("bp"), s.gen("cp")
    phi1 = s.commutator(Ep, cp)
    phi2 = s.commutator(Fp, bp)
    assert mul(phi1, phi2) == mul(phi2, phi1)
    assert mul(phi1, Fp) == mul(Fp, phi1)
    assert mul(phi1, bp) == mul(bp, phi1)
    assert mul(Ep, phi2) == mul(phi2, Ep)
    assert mul(cp, phi2) == mul(phi2, cp)
    assert mul(phi1, Ep) == mul(Ep, phi1).scale(qpow(-2 * m * m))
    assert mul(phi1, cp) == mul(cp, phi1).scale(qpow(2 * m * m))
    assert mul(Fp, phi2) == mul(phi2, Fp).scale(qpow(-2 * n * n))
    assert mul(bp, phi2) == mul(phi2, bp).scale(qpow(2 * n * n))


def test_factorize_generators(p11):
    dq = make_Dq(p11)
    n = p11.n
    fE = factorize_D(p11, dq.gen("E"))
    spres = make_S(p11)
    assert fE == [((0, -2), spres.gen("Ep"))]
    fK = factorize_D(p11, dq.gen("K"))
    assert fK == [((1, 0), spres.one())]
    fb = factorize_D(p11, dq.gen("b"))
    assert fb == [((n, -n), spres.gen("bp").scale(qpow(-n * n)))]


def test_factorize_roundtrip(mn_params):
    dq = make_Dq(mn_params)
    rng = random.Random(41)
    for _ in range(20):
        x = random_element(dq, rng, max_degree=4, n_terms=3)
        assert recombine_D(mn_params, factorize_D(mn_params, x)) == x


def test_d_split_confluent(mn_params):
    assert make_D_split(mn_params).check_confluence().ok


def test_split_images_are_a_morphism(mn_params):
    """Every Dq relation holds after rewriting in torus-times-S coordinates."""
    from qheis.presets import _unprimed_images
    from qheis.rewrite import Element

    dq = make_Dq(mn_params)
    ds = make_D_split(mn_params)
    images = _unprimed_images(mn_params)
    for (li, ei), rule in dq.rules.items():
        L = dq.gen(dq.table.names[li])
        E = dq.gen(dq.table.names[ei])
        lhs = dq.multiply(L, E)
        rhs = dq.multiply(E, L).scale(rule.swap) + Element(dq, dict(rule.tail))
        assert substitute(lhs, images, ds) == substitute(rhs, images, ds)


def test_quantum_torus_swap_inversion(p11):
    mn = p11.m * p11.n
    torus = make_quantum_torus(
        ("Fp", "Ep"),
        ((qpow(0), qpow(2 * mn)), (qpow(-2 * mn), qpow(0))),
    )
    got = torus.normal_form([("Ep", 1), ("Fp", -1)])
    expected = torus.multiply(torus.gen("Fp", -1), torus.gen("Ep")).scale(qpow(2 * mn))
    assert got == expected


def test_quantum_torus_identity_matrix_sorts():
    one = qpow(0)
    torus = make_quantum_torus(("x", "y", "z"), ((one,) * 3,) * 3)
    got = torus.normal_form([("z", 1), ("y", 2), ("x", 1)])
    assert got == torus.normal_form([("x", 1), ("y", 2), ("z", 1)])


def test_structural_matrix_four_generators(p11):
    m = p11.m
    q4 = structural_matrix_S(p11)
    torus = make_quantum_torus(("phi1", "cp", "bp", "phi2"), q4)
    # c'*phi1 reorders with the inverse of the displayed phi1*c' scalar
    got = torus.normal_form([("cp", 1), ("phi1", 1)])
    assert got == torus.multiply(torus.gen("phi1"), torus.gen("cp")).scale(
        qpow(-2 * m * m)
    )
    lhs = torus.normal_form([("phi1", 1), ("cp", 1)])
    assert lhs == got.scale(qpow(2 * m * m))


def test_quantum_torus_validation():
    one, q2 = qpow(0), qpow(2)
    with pytest.raises(InvalidStructuralMatrix):
        make_quantum_torus(("x", "y"), ((one, q2), (q2, one)))
    with pytest.raises(InvalidStructuralMatrix):
        make_quantum_torus(("x", "y"), ((q2, q2), (qpow(-2), one)))
    with pytest.raises(InvalidStructuralMatrix):
        make_quantum_torus(("x", "y"), ((one, ONE + q2), (ONE, one)))
