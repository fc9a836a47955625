"""Hopf layer: axioms, dual pairing, module-algebra action, smash relations."""

import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import qheis.hopf
import qheis.morphisms
import qheis.suites
from qheis.hopf import DualPairing, HopfStructure, check_hopf_axioms, hopf_Oq, hopf_Uq
from qheis.morphisms import Morphism, zeta_Oq
from qheis.presets import make_Dq, make_Oq, make_Uq, params
from qheis.qfield import ONE, ZERO, QScalar, qpow
from qheis.rewrite import Element
from qheis.sampling import random_element
from qheis.suites import RunConfig, run_suites


def test_coproduct_generators(p11):
    ho = hopf_Oq(p11)
    oq = ho.pres
    ia, ib = oq.index["a"], oq.index["b"]

    def mono(i, e):
        v = [0, 0, 0]
        v[i] = e
        return tuple(v)

    assert ho.split_coproduct(oq.gen("a")) == {(mono(ia, 1), mono(ia, 1)): 1}
    assert ho.split_coproduct(oq.gen("b")) == {
        (mono(ib, 1), mono(ia, -1)): 1,
        (mono(ia, 1), mono(ib, 1)): 1,
    }
    sq = oq.tensor_square()
    assert ho.coproduct(oq.gen("a")) == sq.normal_form([("a(1)", 1), ("a(2)", 1)])


def test_coproduct_multiplicative(p11):
    ho = hopf_Oq(p11)
    oq = ho.pres
    bc = oq.multiply(oq.gen("b"), oq.gen("c"))
    assert ho.coproduct(bc) == ho.coproduct(oq.gen("b")) * ho.coproduct(oq.gen("c"))
    assert len(ho.coproduct(bc).terms) == 4


def test_counit(p11):
    ho = hopf_Oq(p11)
    oq = ho.pres
    assert ho.counit(oq.gen("a", 5)) == ONE
    assert ho.counit(oq.gen("b")) == ZERO
    x = oq.gen("a").scale(qpow(1) * 3) + oq.gen("c")
    assert ho.counit(x) == 3 * qpow(1)


def test_antipode(mn_params):
    ho = hopf_Oq(mn_params)
    oq = ho.pres
    m, n = mn_params.m, mn_params.n
    assert ho.antipode(oq.gen("a")) == oq.gen("a", -1)
    assert ho.antipode(oq.gen("c")) == oq.gen("c").scale(-qpow(m * m))
    ab = oq.multiply(oq.gen("a"), oq.gen("b"))
    expected = oq.multiply(
        oq.gen("b").scale(-qpow(-n * n)), oq.gen("a", -1)
    )
    assert ho.antipode(ab) == expected


def test_antipode_uq(mn_params):
    hu = hopf_Uq(mn_params)
    uq = hu.pres
    m, n = mn_params.m, mn_params.n
    assert hu.antipode(uq.gen("K")) == uq.gen("K", -1)
    assert hu.antipode(uq.gen("E")) == uq.normal_form([("E", 1), ("K", -m)]).scale(-ONE)
    assert hu.antipode(uq.gen("F")) == uq.normal_form([("K", n), ("F", 1)]).scale(-ONE)


def test_hopf_axioms(mn_params):
    for h in (hopf_Oq(mn_params), hopf_Uq(mn_params)):
        report = check_hopf_axioms(h, degree_bound=3, samples=30, seed=5)
        assert report.ok, (report.relation_failures, report.sample_failures[:3])


def test_relation_check_catches_a_coproduct_that_is_no_algebra_map(mn_params):
    """Delta(b) = b (x) b breaks a*b = q^n b*a under Delta."""
    h = hopf_Oq(mn_params)
    oq, sq = h.pres, h.pres.tensor_square()
    bb = sq.normal_form([("b(1)", 1), ("b(2)", 1)])
    mutant = replace(h, delta=Morphism(oq, sq, {**h.delta.images, "b": bb}))
    assert ("delta", "b*a") in check_hopf_axioms(mutant, samples=0).relation_failures


def test_relation_check_catches_an_antipode_that_is_no_anti_map(mn_params):
    """S(b) = q^5 b^2 breaks a*b = q^n b*a: b^2 passes S(a) = a^-1 with q^(2n)."""
    h = hopf_Oq(mn_params)
    oq = h.pres
    mutant = replace(h, s_images={**h.s_images, "b": oq.gen("b", 2).scale(qpow(5))})
    assert check_hopf_axioms(mutant, samples=0).relation_failures == [("antipode", "b*a")]


def test_rescaled_antipode_fails_only_the_antipode_law(mn_params):
    """S(b) = q^5 b is still an anti-map: every relation of Oq is
    homogeneous in each generator, so no relation sees a rescaled image.
    The law m(S (x) id)Delta = eps does."""
    h = hopf_Oq(mn_params)
    oq = h.pres
    mutant = replace(h, s_images={**h.s_images, "b": oq.gen("b").scale(qpow(5))})
    report = check_hopf_axioms(mutant, samples=30, seed=5)
    assert not report.relation_failures
    assert {law for _, law in report.sample_failures} == {"antipode"}


def test_relation_check_catches_a_counit_that_is_no_algebra_map(mn_params):
    """eps(b) = 1 breaks b*a = q^-n a*b, since eps(a) = 1 too."""
    h = hopf_Oq(mn_params)
    mutant = replace(h, group_like=h.group_like | {h.pres.index["b"]})
    assert check_hopf_axioms(mutant, samples=0).relation_failures == [("counit", "b*a")]


def test_relation_checks_share_one_walker(p11, monkeypatch):
    """Delta (through check_morphism), S and eps each walk the rules of Oq
    once through `relation_failures`: S with its factors swapped and eps
    with the scalar product.  A mutant that breaks both S and eps lists
    every antipode failure before every counit failure."""
    h = hopf_Oq(p11)
    walked = []
    real = qheis.morphisms.relation_failures

    def spy(pres, image, mul):
        walked.append((pres, image, mul))
        return real(pres, image, mul)

    monkeypatch.setattr(qheis.morphisms, "relation_failures", spy)
    monkeypatch.setattr(qheis.hopf, "relation_failures", spy)
    assert check_hopf_axioms(h, samples=0).relation_failures == []
    (_, delta, _), (_, antipode, swapped), (_, counit, scalar) = walked
    assert [pres for pres, _, _ in walked] == [h.pres] * 3
    assert delta == h.delta.apply and antipode == h.antipode and counit == h.counit
    a, b = h.pres.gen("a"), h.pres.gen("b")
    assert swapped(a, b) == b * a and scalar is operator.mul
    oq = h.pres
    mutant = replace(
        h,
        s_images={**h.s_images, "b": oq.gen("b", 2).scale(qpow(5))},
        group_like=h.group_like | {oq.index["b"]},
    )
    assert check_hopf_axioms(mutant, samples=0).relation_failures == [
        ("antipode", "b*a"), ("counit", "b*a"),
    ]


def _uq_delta_mutant(p):
    """Delta(E) = E (x) K^m + q 1 (x) E: still an algebra map, but neither
    coassociative nor counital."""
    h = hopf_Uq(p)
    uq, sq = h.pres, h.pres.tensor_square()
    dE = sq.normal_form([("E(1)", 1), ("K(2)", p.m)]) + sq.normal_form([("E(2)", 1)]).scale(qpow(1))
    return replace(h, delta=Morphism(uq, sq, {**h.delta.images, "E": dE}))


def test_a_coproduct_that_is_an_algebra_map_fails_the_sampled_laws(monkeypatch):
    """At (2,3) the mutant passes every relation check and fails the sampled
    coassociativity, counit and antipode laws; suite hopf reports it in the
    Uq record only, with no relation failure."""
    p = params(2, 3)
    mutant = _uq_delta_mutant(p)
    report = check_hopf_axioms(mutant, samples=30, seed=5)
    assert report.relation_failures == []
    assert {law for _, law in report.sample_failures} == {"coassociativity", "counit", "antipode"}
    monkeypatch.setattr(qheis.suites, "hopf_Uq", lambda _: mutant)
    records = run_suites(["hopf"], RunConfig(m=2, n=3, seed=5))[0]
    assert [(r["check"], r["ok"], r["relation_failures"]) for r in records] == [
        ("Oq axioms", True, 0), ("Uq axioms", False, 0),
    ]
    assert records[1]["sample_failures"] == len(report.sample_failures)


def _rescaled(x, k):
    """Each monomial of x times (1 + its degree)^k: a linear bijection of Oq
    that is no algebra map."""
    return Element(
        x.pres, {m: c * Fraction(1 + x.pres.degree_of(m)) ** k for m, c in x.terms.items()}
    )


def _mutant_act(name, p):
    act = DualPairing.act
    if name == "doubled":  # twice the action: neither law holds
        return lambda self, u, x: act(self, u, x).scale(2)
    if name == "conjugated":  # still a module, no module algebra
        return lambda self, u, x: _rescaled(act(self, u, _rescaled(x, 1)), -1)
    # u.zeta(x), zeta an algebra automorphism of Oq: Leibniz holds, the module law not
    zeta = zeta_Oq(p, QScalar(2), qpow(1), QScalar(-3))
    return lambda self, u, x: act(self, u, zeta.apply(x))


@pytest.mark.parametrize("mn", [(1, 1), (2, 3), (2, -3)])
@pytest.mark.parametrize(
    "mutant, failing",
    [("doubled", {"leibniz", "associativity"}), ("conjugated", {"leibniz"}),
     ("twisted", {"associativity"})],
)
def test_module_algebra_laws_fail_on_mutant_actions(mn, mutant, failing, monkeypatch):
    p = params(*mn)
    monkeypatch.setattr(DualPairing, "act", _mutant_act(mutant, p))
    failures = DualPairing(p).check_module_algebra(samples=30, seed=7)
    assert {law for _, law in failures} == failing


def test_antipode_law_on_b_explicit(mn_params):
    """m(S (x) id)Delta(b) collapses to zero, matching the hand rewrite."""
    ho = hopf_Oq(mn_params)
    oq = ho.pres
    total = oq.zero()
    for (m1, m2), c in ho.split_coproduct(oq.gen("b")).items():
        total = total + oq.multiply(ho.antipode(oq.monomial(m1)), oq.monomial(m2)).scale(c)
    assert not total
    n = mn_params.n
    lhs = oq.multiply(oq.gen("b").scale(-qpow(-n * n)), oq.gen("a", -n))
    rhs = oq.multiply(oq.gen("a", -n), oq.gen("b"))
    assert lhs + rhs == total


def test_pairing_base_values(p11):
    dp = DualPairing(p11)
    uq, oq = dp.uq, dp.oq
    assert dp.pair(uq.gen("K"), oq.gen("a")) == qpow(-1)
    assert dp.pair(uq.gen("K"), oq.gen("a", -1)) == qpow(1)
    assert dp.pair(uq.gen("E"), oq.gen("c")) == ONE
    assert dp.pair(uq.gen("F"), oq.gen("b")) == ONE
    assert dp.pair(uq.gen("E"), oq.gen("b")) == ZERO
    assert dp.pair(uq.gen("K", -1), oq.gen("a")) == qpow(1)
    assert dp.pair(uq.one(), oq.gen("b")) == ZERO


def test_action_table(mn_params):
    dp = DualPairing(mn_params)
    uq, oq = dp.uq, dp.oq
    m, n = mn_params.m, mn_params.n
    K, E, F = uq.gen("K"), uq.gen("E"), uq.gen("F")
    a, b, c = oq.gen("a"), oq.gen("b"), oq.gen("c")
    assert dp.act(K, a) == a.scale(qpow(-1))
    assert dp.act(K, b) == b.scale(qpow(n))
    assert dp.act(K, c) == c.scale(qpow(-m))
    assert not dp.act(E, a)
    assert not dp.act(E, b)
    assert dp.act(E, c) == oq.gen("a", -m)
    assert not dp.act(F, a)
    assert dp.act(F, b) == oq.gen("a", n)
    assert not dp.act(F, c)


def test_action_on_b_squared(mn_params):
    dp = DualPairing(mn_params)
    n = mn_params.n
    b2 = dp.oq.multiply(dp.oq.gen("b"), dp.oq.gen("b"))
    got = dp.act(dp.uq.gen("F"), b2)
    expected = dp.oq.multiply(dp.oq.gen("a", n), dp.oq.gen("b")).scale(
        ONE + qpow(-2 * n * n)
    )
    assert got == expected


def test_pairing_peeling_order_independence(mn_params):
    """Peeling the O side first must agree with the engine's U-side peeling."""
    dp = DualPairing(mn_params)
    rng = random.Random(59)

    def pair_o_first(mu, mx):
        o_letters = [
            (i, 1 if e > 0 else -1)
            for i, e in enumerate(mx)
            for _ in range(abs(e))
        ]
        if not o_letters:
            return dp.hu.counit_mono(mu)
        if len(o_letters) == 1:
            return dp._pair_mono(mu, mx)
        head, rest = [0] * len(mx), [0] * len(mx)
        i, e = o_letters[0]
        head[i] = e
        for i, e in o_letters[1:]:
            rest[i] += e
        head, rest = tuple(head), tuple(rest)
        total = ZERO
        for (u1, u2), c in dp.hu._delta_mono(mu).items():
            v = pair_o_first(u1, head)
            if v:
                total = total + c * v * pair_o_first(u2, rest)
        return total

    for _ in range(300):
        u = random_element(dp.uq, rng, max_degree=3, n_terms=1)
        x = random_element(dp.oq, rng, max_degree=3, n_terms=1)
        (mu,), (mx,) = list(u.terms), list(x.terms)
        assert dp._pair_mono(mu, mx) == pair_o_first(mu, mx)


def test_pairing_bilinearity(p11):
    dp = DualPairing(p11)
    rng = random.Random(61)
    for _ in range(25):
        u = random_element(dp.uq, rng, max_degree=2)
        v = random_element(dp.uq, rng, max_degree=2)
        x = random_element(dp.oq, rng, max_degree=2)
        assert dp.pair(u + v, x) == dp.pair(u, x) + dp.pair(v, x)


def test_module_algebra_law(mn_params):
    dp = DualPairing(mn_params)
    failures = dp.check_module_algebra(samples=25, seed=67)
    assert not failures


def test_module_algebra_k_on_bc(p11):
    dp = DualPairing(p11)
    bc = dp.oq.multiply(dp.oq.gen("b"), dp.oq.gen("c"))
    got = dp.act(dp.uq.gen("K"), bc)
    assert got == bc.scale(qpow(p11.n - p11.m))


def test_smash_reconstruction(mn_params):
    dp = DualPairing(mn_params)
    results = dp.check_smash()
    assert len(results) == 16
    bad = [r for r in results if not r["ok"]]
    assert not bad, bad


def test_smash_named_relations(p11):
    """The rebuilt cross products match the displayed smash relations."""
    dp = DualPairing(p11)
    dq = make_Dq(p11)
    m, n = p11.m, p11.n
    # E*c = c*E + a^{-m} K^m
    assert dq.normal_form([("E", 1), ("c", 1)]) == dq.multiply(
        dq.gen("c"), dq.gen("E")
    ) + dq.normal_form([("a", -m), ("K", m)])
    # F*b = q^{-n^2} b*F + a^n
    assert dq.normal_form([("F", 1), ("b", 1)]) == dq.multiply(
        dq.gen("b"), dq.gen("F")
    ).scale(qpow(-n * n)) + dq.gen("a", n)
    # K*a = q^{-1} a*K
    assert dq.normal_form([("K", 1), ("a", 1)]) == dq.multiply(
        dq.gen("a"), dq.gen("K")
    ).scale(qpow(-1))


def test_pairing_mismatched_params():
    from qheis.errors import MismatchedParams

    dp = DualPairing(params(1, 1))
    other_oq = make_Oq(params(2, 3))
    with pytest.raises(MismatchedParams):
        dp.pair(other_oq.gen("a"), other_oq.gen("a"))
    from qheis.presets import make_Uq

    with pytest.raises(MismatchedParams):
        dp.pair(make_Uq(params(2, 3)).gen("K"), other_oq.gen("a"))
    with pytest.raises(MismatchedParams):
        dp.act(make_Uq(params(2, 3)).gen("K"), other_oq.gen("a"))


def test_pairing_gram_rank_probe(p11):
    """Non-degeneracy evidence: the truncated Gram matrix has full rank."""
    dp = DualPairing(p11)
    u_monos = []
    for i in range(4):
        for r in range(4 - i):
            for k in range(-2, 3):
                mono = [0, 0, 0]
                mono[dp.uq.index["F"]] = i
                mono[dp.uq.index["K"]] = k
                mono[dp.uq.index["E"]] = r
                u_monos.append(tuple(mono))
    o_monos = []
    for j in range(4):
        for s in range(4 - j):
            for l in range(-2, 3):
                mono = [0, 0, 0]
                mono[dp.oq.index["b"]] = j
                mono[dp.oq.index["a"]] = l
                mono[dp.oq.index["c"]] = s
                o_monos.append(tuple(mono))
    rows = []
    for mu in u_monos:
        row = {}
        for idx, mx in enumerate(o_monos):
            v = dp._pair_mono(mu, mx)
            if v:
                row[idx] = v
        rows.append(row)
    # sparse Gaussian elimination over Q(q)
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            lead = min(row)
            if lead in pivots:
                factor = row[lead]
                prow = pivots[lead]
                for col, val in prow.items():
                    w = row.get(col, ZERO) - factor * val
                    if w:
                        row[col] = w
                    else:
                        row.pop(col, None)
            else:
                lv = row[lead]
                pivots[lead] = {c: v / lv for c, v in row.items()}
                rank += 1
                break
    assert rank == len(u_monos) == len(o_monos)


def test_pairing_laws_on_random_elements(mn_params):
    """<uv, x> = <u (x) v, Delta x> and <u, xy> = <Delta u, x (x) y> for
    products that need rewriting, so the pairing respects the relations
    and not only the normal-ordered splits it is built from."""
    dp = DualPairing(mn_params)
    uq, oq = dp.uq, dp.oq
    rng = random.Random(71)

    def outer(x, y):
        """x (x) y as {(left, right): coeff}."""
        return {(l, r): cl * cr for l, cl in x.terms.items() for r, cr in y.terms.items()}

    def pair_tensor(left, right):
        """sum c d <l1, r1> <l2, r2> over left = sum c l1 (x) l2 in Uq (x) Uq
        and right = sum d r1 (x) r2 in Oq (x) Oq."""
        total = ZERO
        for (l1, l2), c in left.items():
            for (r1, r2), d in right.items():
                first = dp.pair(uq.monomial(l1), oq.monomial(r1))
                total = total + c * d * first * dp.pair(uq.monomial(l2), oq.monomial(r2))
        return total

    for _ in range(15):
        u, v = (random_element(uq, rng, max_degree=2, n_terms=2) for _ in range(2))
        x, y = (random_element(oq, rng, max_degree=2, n_terms=2) for _ in range(2))
        uv = outer(u, v)
        assert dp.pair(uq.multiply(u, v), x) == pair_tensor(uv, dp.ho.split_coproduct(x))
        xy = outer(x, y)
        assert dp.pair(u, oq.multiply(x, y)) == pair_tensor(dp.hu.split_coproduct(u), xy)


def test_one_hopf_structure_per_presentation(monkeypatch):
    """Suites hopf, pairing-action, smash and aut share one Hopf structure
    of Oq and one of Uq at (2, 3), so each monomial coproduct is computed
    once: with a new structure per call they computed 190 and 91 for 126
    and 66 distinct monomials."""
    make_Oq.cache_clear()
    make_Uq.cache_clear()
    computed = {}
    delta_mono = HopfStructure._delta_mono

    def counted(self, mono):
        if mono not in self._halves:
            key = "Oq" if "a" in self.pres.index else "Uq"
            computed[key] = computed.get(key, 0) + 1
        return delta_mono(self, mono)

    monkeypatch.setattr(HopfStructure, "_delta_mono", counted)
    _, ok = run_suites(["hopf", "pairing-action", "smash", "aut"], RunConfig(m=2, n=3, seed=1))
    assert ok
    p = params(2, 3)
    assert hopf_Oq(p) is hopf_Oq(p) and hopf_Uq(p) is hopf_Uq(p)
    assert computed == {"Oq": 126, "Uq": 66}
    assert len(hopf_Oq(p)._halves) == 126 and len(hopf_Uq(p)._halves) == 66
