"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the plain pytest run.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

from qheis.cli import main as cli_main
from qheis.expr import parse, to_text
from qheis.hopf import DualPairing, check_hopf_axioms, hopf_Oq, hopf_Uq
from qheis.ideals import (
    build_spec_catalog,
    containment_probe,
    monomial_avoidance_probe,
    phi_elements,
    torus_quotient_map,
)
from qheis.morphisms import (
    _matmul,
    check_hopf_compatibility,
    check_inverse,
    check_morphism,
    compose,
    embedding_Uq_into_Oq,
    identity,
    iso_Oq_to_Uq,
    iso_Uq_to_Oq,
    rho_Dq,
    solve_zeta_twist,
    tau_Oq,
    xi_Dq,
    xi_Oq,
    zeta_Dq,
    zeta_Oq,
)
from qheis.presets import (
    S_ORDERS,
    factorize_D,
    make_Dq,
    make_Oq,
    make_S,
    make_Uq,
    params,
    primed_in_D,
    recombine_D,
)
from qheis.qfield import ONE, ZERO, QScalar, qpow
from qheis.sampling import random_element, random_sl2
from qheis.smodules import (
    FAMILY_SCALARS,
    QuotientModule,
    WeightModule,
    cyclicity_probe,
    growth_exponent,
)
from qheis.suites import _phi_identity_checks, _primed_relation_checks

GRID = [params(*mn) for mn in ((1, 1), (1, -1), (2, 3), (2, -3), (6, 4), (-2, 5))]
SIGMA_TAU = ((ZERO, ZERO), (ZERO, ONE), (ONE, ZERO))


def _report(k, text):
    print(f"ACCEPTANCE {k:2d} PASS  {text}")


def test_c01_confluence():
    t0 = time.time()
    for p in GRID:
        presets = [make_Oq(p), make_Uq(p), make_Dq(p)] + [
            make_S(p, order) for order in S_ORDERS.values()
        ]
        for pres in presets:
            report = pres.check_confluence()
            assert report.ok, (p, pres.table.names, report.failures)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, f"confluence for Oq/Uq/Dq and 4 S orders on 6 parameter pairs ({elapsed:.1f}s)")


def test_c02_hopf_axioms():
    for p in GRID:
        for h in (hopf_Oq(p), hopf_Uq(p)):
            report = check_hopf_axioms(h, degree_bound=3, samples=100, seed=2)
            assert report.ok, (p, report.relation_failures, report.sample_failures[:2])
    _report(2, "Hopf axioms on 100 seeded degree-<=3 elements per algebra per (m,n)")


def test_c03_pairing_action_table():
    for p in GRID:
        dp = DualPairing(p)
        uq, oq = dp.uq, dp.oq
        m, n = p.m, p.n
        assert dp.pair(uq.gen("K"), oq.gen("a")) == qpow(-1)
        assert dp.pair(uq.gen("K"), oq.gen("a", -1)) == qpow(1)
        assert dp.pair(uq.gen("E"), oq.gen("c")) == ONE
        assert dp.pair(uq.gen("F"), oq.gen("b")) == ONE
        assert dp.pair(uq.gen("K", -1), oq.gen("a")) == qpow(1)
        assert dp.act(uq.gen("K"), oq.gen("a")) == oq.gen("a").scale(qpow(-1))
        assert dp.act(uq.gen("K"), oq.gen("b")) == oq.gen("b").scale(qpow(n))
        assert dp.act(uq.gen("K"), oq.gen("c")) == oq.gen("c").scale(qpow(-m))
        assert not dp.act(uq.gen("E"), oq.gen("a"))
        assert not dp.act(uq.gen("E"), oq.gen("b"))
        assert dp.act(uq.gen("E"), oq.gen("c")) == oq.gen("a", -m)
        assert not dp.act(uq.gen("F"), oq.gen("a"))
        assert dp.act(uq.gen("F"), oq.gen("b")) == oq.gen("a", n)
        assert not dp.act(uq.gen("F"), oq.gen("c"))
    _report(3, "pairing base values and the nine action values, plus <K^-1,a> = q")


def test_c04_module_algebra_law():
    for p in GRID:
        dp = DualPairing(p)
        failures = dp.check_module_algebra(samples=100, seed=4)
        assert not failures, (p, failures[:3])
    _report(4, "module-algebra law on 100 seeded pairs per (m,n)")


def test_c05_smash_reconstruction():
    for p in GRID:
        results = DualPairing(p).check_smash()
        assert len(results) == 16
        bad = [r for r in results if not r["ok"]]
        assert not bad, (p, bad)
    _report(5, "all smash cross relations recovered from sum (u_(1).x) u_(2)")


def test_c06_primed_structure():
    rng = random.Random(6)
    for p in GRID:
        for name, ok in _primed_relation_checks(p):
            assert ok, (p, name)
        dq = make_Dq(p)
        ps = primed_in_D(p)
        for name, ok in _phi_identity_checks(
            dq.multiply, ps.phi1, ps.phi2, ps.eP, ps.fP, ps.bP, ps.cP, p.m, p.n
        ):
            assert ok, (p, "embedded", name)
        s = make_S(p)
        phi1, phi2 = phi_elements(s)
        for name, ok in _phi_identity_checks(
            s.multiply, phi1, phi2, s.gen("Ep"), s.gen("Fp"), s.gen("bp"), s.gen("cp"), p.m, p.n
        ):
            assert ok, (p, "abstract", name)
        for _ in range(30):
            x = random_element(dq, rng, max_degree=6, n_terms=3, torus_window=3)
            assert recombine_D(p, factorize_D(p, x)) == x
    _report(6, "primed relations and phi identities (abstract and embedded); factorization round-trip")


def test_c07_morphisms():
    rng = random.Random(7)
    for p in GRID:
        emb = embedding_Uq_into_Oq(p)
        assert check_morphism(emb).ok
        assert check_hopf_compatibility(emb, hopf_Uq(params(p.m, -p.n)), hopf_Oq(p))
        iso = iso_Uq_to_Oq(p)
        assert check_morphism(iso).ok
        assert check_inverse(iso, iso_Oq_to_Uq(p))
        assert check_morphism(xi_Oq(p, 2)).ok
        assert compose(xi_Oq(p, 2), xi_Oq(p, 3)) == xi_Oq(p, 5)
        assert check_morphism(zeta_Oq(p, QScalar(2), qpow(1), QScalar(-3))).ok
        assert check_morphism(zeta_Dq(p, QScalar(2), qpow(-1))).ok
        assert check_morphism(xi_Dq(p, QScalar(2), QScalar(3))).ok
        if p.m == p.n or p.m == -p.n:
            t = tau_Oq(p)
            assert check_morphism(t).ok
            assert compose(t, t) == identity(t.source)
    p11 = params(1, 1)
    for _ in range(20):
        A, B = random_sl2(rng), random_sl2(rng)
        assert check_morphism(rho_Dq(p11, A)).ok
        comp = compose(rho_Dq(p11, A), rho_Dq(p11, B))
        rho_ab = rho_Dq(p11, _matmul(A, B))
        z1, z2 = solve_zeta_twist(comp, rho_ab)
        assert comp == compose(rho_ab, zeta_Dq(p11, z1, z2))
    _report(7, "embedding, iso, tau/xi/zeta/rho/xi' families, and 20 solved rho twists")


def test_c08_modules():
    p = params(1, 1)
    rng = random.Random(8)
    for family in ("J1", "J2", "J3", "J4"):
        mod = QuotientModule(family, ZERO, ZERO, p)
        for _ in range(200):
            s1 = random_element(mod.spres, rng, max_degree=2, n_terms=2)
            s2 = random_element(mod.spres, rng, max_degree=2, n_terms=2)
            vec = {(rng.randint(0, 2), rng.randint(0, 2)): QScalar(rng.choice((1, -1, 2)))}
            assert mod.act(mod.spres.multiply(s1, s2), vec) == mod.act(
                s1, mod.act(s2, vec)
            )
        for sigma, tau in SIGMA_TAU:
            m2 = QuotientModule(family, sigma, tau, p)
            for gname, which in FAMILY_SCALARS[family].items():
                scal = sigma if which == "sigma" else tau
                assert not m2.act(
                    m2.spres.gen(gname) - m2.spres.one(scal), m2.cyclic_vector()
                )
            probes = 0
            while probes < 20:
                s = random_element(m2.spres, rng, max_degree=3, n_terms=2)
                w = m2.act(s, m2.cyclic_vector())
                if not w:
                    continue
                probes += 1
                assert cyclicity_probe(m2, w, 6) == "Cyclic", (family, sigma, tau, w)
    _report(8, "module law on 200 triples, annihilators, and 20 cyclicity probes per family")


def test_c09_weight_modules():
    I = 3
    for p in GRID:
        mod = QuotientModule("J1", ZERO, ZERO, p)
        for kind in ("K", "a"):
            lam = QScalar(2)
            wm = WeightModule(kind, lam, mod, truncation=I)
            dq = wm.dq
            diag = dq.gen("K") if kind == "K" else dq.gen("a")
            basis = [
                (t, i, j)
                for t in range(-I, I + 1)
                for i in range(4)
                for j in range(4 - i)
            ]
            realized = set()
            for (t, i, j) in basis:
                got = wm.act(diag, wm.basis_vector(t, i, j))
                assert got == {(t, i, j): wm.eigenvalue(t)}
                realized.add(got[(t, i, j)])
            assert realized == wm.support()
            assert wm.support() == {lam * qpow(-t if kind == "K" else t) for t in range(-I, I + 1)}
            for (t, i, j) in basis:
                if t + 1 > I:
                    continue
                w = wm.basis_vector(t, i, j)
                lhs = wm.act(dq.gen("K"), wm.act(dq.gen("a"), w))
                rhs = {
                    k: qpow(-1) * c
                    for k, c in wm.act(dq.gen("a"), wm.act(dq.gen("K"), w)).items()
                }
                assert lhs == rhs
            for d in range(5):
                assert wm.dim_filtration(d) == (2 * d + 1) * mod.dim_filtration(d)
    _report(9, "weight supports, layer dimension profiles, and the torus relation on all basis vectors")


def test_c10_growth():
    p = params(1, 1)
    for family in ("J1", "J2", "J3", "J4"):
        mod = QuotientModule(family, ZERO, ZERO, p)
        slope = growth_exponent(mod, 24)
        assert 1.7 <= slope <= 2.3, (family, slope)
        wm = WeightModule("K", ONE, mod, truncation=4)
        wslope = growth_exponent(wm, 24)
        assert 2.7 <= wslope <= 3.3, (family, wslope)
    _report(10, "growth exponents within [1.7, 2.3] and [2.7, 3.3] at d_max = 24")


def test_c11_ideals():
    recorded = {}
    for p in (params(1, 1), params(1, -1)):
        cat = build_spec_catalog(p, degree_bound=8)
        s = cat.spres
        m = p.m
        rewritten = s.multiply(s.gen("cp"), s.gen("Ep")).scale(
            ONE - qpow(2 * m * m)
        ) - s.one()
        assert cat.ideals["I1"].member(rewritten) == "Verified"
        assert cat.ideals["I3"].member(s.one()) == "NotDetected"
        assert containment_probe(cat.ideals["I1"], cat.ideals["I3"]).status == "Contained"
        assert containment_probe(cat.ideals["I2"], cat.ideals["I3"]).status == "Contained"
        for z in cat.z_samples:
            j1 = cat.ideals[f"J1({z})"]
            assert containment_probe(cat.ideals["I2"], j1).status == "Contained"
        zname = str(cat.z_samples[0])
        for name in ("I1", "I2", "I3", f"J1({zname})", f"J2({zname})"):
            assert monomial_avoidance_probe(cat.ideals[name], degree_bound=6).clean, name
        probe = containment_probe(cat.ideals["I1"], cat.ideals[f"J1({zname})"])
        recorded[(p.m, p.n)] = probe.status
        f = torus_quotient_map(p)
        assert check_morphism(f).ok
    _report(11, f"ideal memberships, containments, avoidance; I1-vs-J1 recorded as {recorded}")


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_c12_cli():
    # parse/print round-trip on 200 seeded expressions
    from tests.test_expr import _random_expr

    rng = random.Random(12)
    for _ in range(200):
        node = _random_expr(rng, rng.randint(1, 3))
        assert parse(to_text(node)) == node
    # byte-identical reruns for a fixed seed
    argv = ["verify", "--suite", "confluence,hopf,smash", "--m", "2", "--n", "3", "--seed", "12"]
    code1, out1 = _run_cli(argv)
    code2, out2 = _run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    # full verification run exits 0
    code, out = _run_cli(["verify", "--suite", "all", "--m", "2", "--n", "3", "--seed", "7"])
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failed"] == 0
    _report(12, f"expression round-trips, byte-identical reruns, verify-all ({summary['checks']} checks)")
