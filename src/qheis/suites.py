"""Named verification suites aggregating every structural check.

Each suite returns JSON-ready records, one per check, with a boolean `ok`.
Runs are deterministic for a fixed seed.  The CLI `verify` command wraps
these; the acceptance tests drive the same functions at full sample sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .hopf import DualPairing, check_hopf_axioms, hopf_Oq, hopf_Uq
from .ideals import (
    build_spec_catalog,
    containment_probe,
    monomial_avoidance_probe,
    phi_elements,
    torus_quotient_map,
)
from .morphisms import (
    Morphism,
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
    _matmul,
)
from .presets import (
    S_ORDERS,
    AlgebraParams,
    factorize_D,
    make_Dq,
    make_D_split,
    make_Oq,
    make_S,
    make_Uq,
    params,
    primed_in_D,
    recombine_D,
)
from .qfield import ONE, ZERO, QScalar, qpow
from .sampling import random_element, random_sl2
from .smodules import FAMILY_SCALARS, QuotientModule, WeightModule, cyclicity_probe, growth_exponent


@dataclass
class RunConfig:
    m: int = 1
    n: int = 1
    seed: int = 0
    deg: int = 8
    window: int = 4
    samples: int = 30

    @property
    def params(self) -> AlgebraParams:
        return params(self.m, self.n)


def suite_confluence(cfg: RunConfig):
    p = cfg.params
    records = []
    named = [
        ("Oq", make_Oq(p)),
        ("Uq", make_Uq(p)),
        ("Dq", make_Dq(p)),
        ("Dsplit", make_D_split(p)),
    ] + [(f"S[{key}]", make_S(p, order)) for key, order in S_ORDERS.items()]
    for name, pres in named:
        report = pres.check_confluence()
        records.append(
            {
                "check": name,
                "ok": report.ok,
                "triples": report.triples_checked,
                "words": report.words_checked,
            }
        )
    return records


def suite_hopf(cfg: RunConfig):
    p = cfg.params
    records = []
    for name, h in (("Oq", hopf_Oq(p)), ("Uq", hopf_Uq(p))):
        report = check_hopf_axioms(h, degree_bound=3, samples=cfg.samples, seed=cfg.seed)
        records.append(
            {
                "check": f"{name} axioms",
                "ok": report.ok,
                "samples": report.samples,
                "relation_failures": len(report.relation_failures),
                "sample_failures": len(report.sample_failures),
            }
        )
    return records


def suite_pairing_action(cfg: RunConfig):
    p = cfg.params
    dp = DualPairing(p)
    uq, oq = dp.uq, dp.oq
    m, n = p.m, p.n
    checks = [
        ("<K,a>", dp.pair(uq.gen("K"), oq.gen("a")) == qpow(-1)),
        ("<K,ai>", dp.pair(uq.gen("K"), oq.gen("a", -1)) == qpow(1)),
        ("<E,c>", dp.pair(uq.gen("E"), oq.gen("c")) == ONE),
        ("<F,b>", dp.pair(uq.gen("F"), oq.gen("b")) == ONE),
        ("<Ki,a>", dp.pair(uq.gen("K", -1), oq.gen("a")) == qpow(1)),
        ("<E,b>", dp.pair(uq.gen("E"), oq.gen("b")) == ZERO),
        ("K.a", dp.act(uq.gen("K"), oq.gen("a")) == oq.gen("a").scale(qpow(-1))),
        ("K.b", dp.act(uq.gen("K"), oq.gen("b")) == oq.gen("b").scale(qpow(n))),
        ("K.c", dp.act(uq.gen("K"), oq.gen("c")) == oq.gen("c").scale(qpow(-m))),
        ("E.a", not dp.act(uq.gen("E"), oq.gen("a"))),
        ("E.b", not dp.act(uq.gen("E"), oq.gen("b"))),
        ("E.c", dp.act(uq.gen("E"), oq.gen("c")) == oq.gen("a", -m)),
        ("F.a", not dp.act(uq.gen("F"), oq.gen("a"))),
        ("F.b", dp.act(uq.gen("F"), oq.gen("b")) == oq.gen("a", n)),
        ("F.c", not dp.act(uq.gen("F"), oq.gen("c"))),
    ]
    records = [{"check": name, "ok": bool(ok)} for name, ok in checks]
    failures = dp.check_module_algebra(samples=cfg.samples, seed=cfg.seed)
    records.append(
        {
            "check": "module-algebra law",
            "ok": not failures,
            "samples": cfg.samples,
        }
    )
    return records


def suite_smash(cfg: RunConfig):
    dp = DualPairing(cfg.params)
    records = []
    for r in dp.check_smash():
        records.append(
            {
                "check": f"{r['u']}*{r['x']}",
                "ok": r["ok"],
                "direct": r["direct"],
                "rebuilt": r["rebuilt"],
            }
        )
    return records


def _primed_relation_checks(p: AlgebraParams):
    dq = make_Dq(p)
    ps = primed_in_D(p)
    m, n = p.m, p.n
    mul = dq.multiply
    one = dq.one()
    checks = []
    for t in ("K", "a"):
        for name, x in (("bp", ps.bP), ("cp", ps.cP), ("Ep", ps.eP), ("Fp", ps.fP)):
            checks.append((f"{t}*{name} = {name}*{t}", mul(dq.gen(t), x) == mul(x, dq.gen(t))))
    checks += [
        ("bp*cp swap", mul(ps.bP, ps.cP) == mul(ps.cP, ps.bP).scale(qpow(2 * m * n))),
        ("Ep*bp swap", mul(ps.eP, ps.bP) == mul(ps.bP, ps.eP).scale(qpow(2 * m * n))),
        (
            "Fp*bp weyl",
            mul(ps.fP, ps.bP) - mul(ps.bP, ps.fP).scale(qpow(-2 * n * n)) == one,
        ),
        (
            "Ep*cp weyl",
            mul(ps.eP, ps.cP) - mul(ps.cP, ps.eP).scale(qpow(2 * m * m)) == one,
        ),
        ("Fp*cp swap", mul(ps.fP, ps.cP) == mul(ps.cP, ps.fP).scale(qpow(-2 * m * n))),
        ("Ep*Fp swap", mul(ps.eP, ps.fP) == mul(ps.fP, ps.eP).scale(qpow(-2 * m * n))),
    ]
    return checks


def suite_primed(cfg: RunConfig):
    p = cfg.params
    records = [{"check": name, "ok": bool(ok)} for name, ok in _primed_relation_checks(p)]
    # abstract S embeds through the primed elements
    dq = make_Dq(p)
    embed = Morphism(make_S(p), dq, primed_in_D(p).images, name="s-embed")
    records.append(
        {
            "check": "S -> Dq embedding",
            "ok": check_morphism(embed).ok,
        }
    )
    rng = random.Random(cfg.seed)
    ok = True
    for _ in range(cfg.samples):
        x = random_element(dq, rng, max_degree=6, n_terms=3, torus_window=3)
        if recombine_D(p, factorize_D(p, x)) != x:
            ok = False
            break
    records.append(
        {
            "check": "factorization round-trip (degree <= 6)",
            "ok": ok,
            "samples": cfg.samples,
        }
    )
    return records


def _phi_identity_checks(mul, phi1, phi2, Ep, Fp, bp, cp, m, n):
    return [
        ("phi1*phi2 = phi2*phi1", mul(phi1, phi2) == mul(phi2, phi1)),
        ("phi1*Fp = Fp*phi1", mul(phi1, Fp) == mul(Fp, phi1)),
        ("phi1*bp = bp*phi1", mul(phi1, bp) == mul(bp, phi1)),
        ("Ep*phi2 = phi2*Ep", mul(Ep, phi2) == mul(phi2, Ep)),
        ("cp*phi2 = phi2*cp", mul(cp, phi2) == mul(phi2, cp)),
        ("phi1*Ep twist", mul(phi1, Ep) == mul(Ep, phi1).scale(qpow(-2 * m * m))),
        ("phi1*cp twist", mul(phi1, cp) == mul(cp, phi1).scale(qpow(2 * m * m))),
        ("Fp*phi2 twist", mul(Fp, phi2) == mul(phi2, Fp).scale(qpow(-2 * n * n))),
        ("bp*phi2 twist", mul(bp, phi2) == mul(phi2, bp).scale(qpow(2 * n * n))),
    ]


def suite_phi(cfg: RunConfig):
    p = cfg.params
    m, n = p.m, p.n
    records = []
    dq = make_Dq(p)
    ps = primed_in_D(p)
    for name, ok in _phi_identity_checks(
        dq.multiply, ps.phi1, ps.phi2, ps.eP, ps.fP, ps.bP, ps.cP, m, n
    ):
        records.append({"check": f"embedded {name}", "ok": bool(ok)})
    s = make_S(p)
    phi1, phi2 = phi_elements(s)
    for name, ok in _phi_identity_checks(
        s.multiply, phi1, phi2, s.gen("Ep"), s.gen("Fp"), s.gen("bp"), s.gen("cp"), m, n
    ):
        records.append({"check": f"abstract {name}", "ok": bool(ok)})
    return records


SIGMA_TAU_GRID = ((ZERO, ZERO), (ZERO, ONE), (ONE, ZERO))
PROBE_SEEDS = 5


def suite_modules(cfg: RunConfig):
    p = cfg.params
    records = []
    rng = random.Random(cfg.seed)
    for family in ("J1", "J2", "J3", "J4"):
        for sigma, tau in SIGMA_TAU_GRID:
            mod = QuotientModule(family, sigma, tau, p)
            ok_assoc = True
            for _ in range(cfg.samples):
                s1 = random_element(mod.spres, rng, max_degree=2, n_terms=2)
                s2 = random_element(mod.spres, rng, max_degree=2, n_terms=2)
                vec = {(rng.randint(0, 2), rng.randint(0, 2)): QScalar(rng.choice((1, -1, 2)))}
                if mod.act(mod.spres.multiply(s1, s2), vec) != mod.act(s1, mod.act(s2, vec)):
                    ok_assoc = False
                    break
            ann_ok = True
            for gname, which in FAMILY_SCALARS[family].items():
                scal = sigma if which == "sigma" else tau
                if mod.act(mod.spres.gen(gname) - mod.spres.one(scal), mod.cyclic_vector()):
                    ann_ok = False
            probe_ok = True
            for _ in range(PROBE_SEEDS):
                s = random_element(mod.spres, rng, max_degree=3, n_terms=2)
                w = mod.act(s, mod.cyclic_vector())
                if not w:
                    continue
                if cyclicity_probe(mod, w, 6) != "Cyclic":
                    probe_ok = False
                    break
            label = f"{family}(s={sigma},t={tau})"
            records.append({"check": f"{label} associativity", "ok": ok_assoc})
            records.append({"check": f"{label} annihilators", "ok": ann_ok})
            records.append({"check": f"{label} cyclicity", "ok": probe_ok})
    return records


def suite_weights(cfg: RunConfig):
    p = cfg.params
    records = []
    lam = QScalar(2)
    I = min(cfg.window, 4)
    for kind in ("K", "a"):
        mod = QuotientModule("J1", ZERO, ZERO, p)
        wm = WeightModule(kind, lam, mod, truncation=I)
        dq = wm.dq
        expected = {wm.eigenvalue(t) for t in range(-I, I + 1)}
        diag_gen = dq.gen("K") if kind == "K" else dq.gen("a")
        seen = set()
        diag_ok = True
        for t in range(-I, I + 1):
            for key in ((0, 0), (1, 1)):
                v = wm.basis_vector(t, *key)
                got = wm.act(diag_gen, v)
                if list(got) != [(t, *key)]:
                    diag_ok = False
                else:
                    seen.add(got[(t, *key)])
        records.append(
            {
                "check": f"{kind}-weight support",
                "ok": diag_ok and seen == expected and wm.support() == expected,
            }
        )
        rel_ok = True
        for t in range(-I, I):
            for key in ((0, 0), (2, 1)):
                w = wm.basis_vector(t, *key)
                lhs = wm.act(dq.gen("K"), wm.act(dq.gen("a"), w))
                rhs = {
                    k: qpow(-1) * c
                    for k, c in wm.act(dq.gen("a"), wm.act(dq.gen("K"), w)).items()
                }
                if lhs != rhs:
                    rel_ok = False
        records.append({"check": f"{kind}-weight Ka = q^-1 aK", "ok": rel_ok})
        dims_ok = all(
            wm.dim_filtration(d) == (2 * d + 1) * mod.dim_filtration(d) for d in range(5)
        )
        records.append({"check": f"{kind}-weight layer dims", "ok": dims_ok})
    return records


GROWTH_D_MAX = 24


def suite_growth(cfg: RunConfig):
    p = cfg.params
    records = []
    for family in ("J1", "J2", "J3", "J4"):
        mod = QuotientModule(family, ZERO, ZERO, p)
        slope = growth_exponent(mod, GROWTH_D_MAX)
        records.append(
            {
                "check": f"{family} quotient",
                "ok": 1.7 <= slope <= 2.3,
                "slope": round(slope, 4),
            }
        )
        wm = WeightModule("K", ONE, mod, truncation=cfg.window)
        wslope = growth_exponent(wm, GROWTH_D_MAX)
        records.append(
            {
                "check": f"{family} weight module",
                "ok": 2.7 <= wslope <= 3.3,
                "slope": round(wslope, 4),
            }
        )
    return records


def suite_ideals(cfg: RunConfig):
    p = cfg.params
    records = []
    # the records read J1(z) and J2(z) at z = 1 only
    cat = build_spec_catalog(p, degree_bound=cfg.deg, z_samples=(ONE,))
    s = cat.spres
    m = p.m
    rewritten = s.multiply(s.gen("cp"), s.gen("Ep")).scale(ONE - qpow(2 * m * m)) - s.one()
    records.append(
        {
            "check": "member(I1, -phi1 rewritten)",
            "ok": cat.ideals["I1"].member(rewritten) == "Verified",
        }
    )
    records.append(
        {
            "check": "member(I3, 1) not detected",
            "ok": cat.ideals["I3"].member(s.one()) == "NotDetected",
        }
    )
    for small, big in (("I1", "I3"), ("I2", "I3")):
        records.append(
            {
                "check": f"{small} in {big}",
                "ok": containment_probe(cat.ideals[small], cat.ideals[big]).status
                == "Contained",
            }
        )
    zname = str(cat.z_samples[0])
    records.append(
        {
            "check": f"I2 in J1({zname})",
            "ok": containment_probe(cat.ideals["I2"], cat.ideals[f"J1({zname})"]).status
            == "Contained",
        }
    )
    probe = containment_probe(cat.ideals["I1"], cat.ideals[f"J1({zname})"])
    records.append(
        {
            "check": f"I1 vs J1({zname}) (recorded)",
            "ok": True,
            "status": probe.status,
        }
    )
    for name in ("I1", "I2", "I3", f"J1({zname})", f"J2({zname})"):
        report = monomial_avoidance_probe(cat.ideals[name], degree_bound=6)
        records.append(
            {
                "check": f"monomial avoidance {name}",
                "ok": report.clean,
                "monomials": len(report.checked),
            }
        )
    return records


def suite_torusmap(cfg: RunConfig):
    p = cfg.params
    f = torus_quotient_map(p)
    report = check_morphism(f)
    s = f.source
    phi1, phi2 = phi_elements(s)
    return [
        {
            "check": "morphism",
            "ok": report.ok,
            "relations": report.relations_checked,
        },
        {"check": "kills phi1", "ok": not f.apply(phi1)},
        {"check": "kills phi2", "ok": not f.apply(phi2)},
    ]


SL2_PAIRS = 5


def suite_aut(cfg: RunConfig):
    p = cfg.params
    rng = random.Random(cfg.seed)
    records = []

    def rec(check, ok, **extra):
        records.append({"check": check, "ok": bool(ok), **extra})

    emb = embedding_Uq_into_Oq(p)
    rec("dual embedding", check_morphism(emb).ok)
    rec(
        "dual embedding Delta-compatible",
        check_hopf_compatibility(emb, hopf_Uq(params(p.m, -p.n)), hopf_Oq(p)),
    )
    iso = iso_Uq_to_Oq(p)
    rec("Uq ~ Oq(2m,-2n)", check_morphism(iso).ok)
    rec("iso inverse", check_inverse(iso, iso_Oq_to_Uq(p)))
    if p.m == p.n or p.m == -p.n:
        t = tau_Oq(p)
        rec("tau morphism", check_morphism(t).ok)
        rec("tau squared", compose(t, t) == identity(t.source))
    xi2, xi3 = xi_Oq(p, 2), xi_Oq(p, 3)
    rec("xi morphism", check_morphism(xi2).ok)
    rec("xi group law", compose(xi2, xi3) == xi_Oq(p, 5))
    z = zeta_Oq(p, QScalar(2), qpow(1), QScalar(-3))
    rec("zeta Oq morphism", check_morphism(z).ok)
    z2 = zeta_Dq(p, QScalar(2), qpow(-1))
    rec("zeta Dq morphism", check_morphism(z2).ok)
    x34 = xi_Dq(p, QScalar(2), QScalar(3))
    rec("xi' Dq morphism", check_morphism(x34).ok)
    rec(
        "xi' group law",
        compose(x34, xi_Dq(p, QScalar(5), QScalar(7)))
        == xi_Dq(p, QScalar(10), QScalar(21)),
    )
    twist_ok = True
    rho_ok = True
    for _ in range(SL2_PAIRS):
        A, B = random_sl2(rng), random_sl2(rng)
        if not check_morphism(rho_Dq(p, A)).ok:
            rho_ok = False
        z1, z2v = solve_zeta_twist(p, A, B)
        lhs = compose(rho_Dq(p, A), rho_Dq(p, B))
        rhs = compose(rho_Dq(p, _matmul(A, B)), zeta_Dq(p, z1, z2v))
        if lhs != rhs:
            twist_ok = False
    rec("rho morphisms", rho_ok, pairs=SL2_PAIRS)
    rec("rho composition twist", twist_ok, pairs=SL2_PAIRS)
    rho = rho_Dq(p, random_sl2(rng))
    primed = primed_in_D(p).images.values()
    rec("rho fixes primed generators", all(rho.apply(x) == x for x in primed))
    return records


SUITES = {
    "confluence": suite_confluence,
    "hopf": suite_hopf,
    "pairing-action": suite_pairing_action,
    "smash": suite_smash,
    "primed": suite_primed,
    "phi": suite_phi,
    "modules": suite_modules,
    "weights": suite_weights,
    "growth": suite_growth,
    "ideals": suite_ideals,
    "torusmap": suite_torusmap,
    "aut": suite_aut,
}
SUITE_NAMES = tuple(SUITES)


def run_suites(names, cfg: RunConfig):
    """Run the requested suites in canonical order; returns (records, all_ok)."""
    if "all" in names:
        names = SUITE_NAMES
    records = []
    for name in SUITE_NAMES:
        if name not in names:
            continue
        records.extend({"suite": name, **r} for r in SUITES[name](cfg))
    return records, all(r["ok"] for r in records)
