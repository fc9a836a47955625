"""Quotient modules, weight modules, cyclicity probes, growth estimates."""

import random
from itertools import product

import pytest

import qheis.suites
from qheis.errors import DegreeTooSmall, NegativePowerOfNonInvertible, TruncationOverflow
from qheis.errors import WrongOrder, ZeroVector
from qheis.presets import S_ORDERS, make_S, params
from qheis.qfield import ONE, ZERO, QScalar, qpow
from qheis.sampling import random_element
from qheis.smodules import (
    QuotientModule,
    WeightModule,
    _exponents_of_degree,
    cyclicity_probe,
    growth_exponent,
    support,
)
from qheis.suites import SUITES, RunConfig

SIGMA_TAU = [(ZERO, ZERO), (ZERO, ONE), (ONE, ZERO)]


def test_sigma_tau_constraint(p11):
    with pytest.raises(ValueError):
        QuotientModule("J1", ONE, ONE, p11)
    QuotientModule("J1", ONE, ZERO, p11)


def test_act_examples(p11):
    n = p11.n
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    s = mod.spres
    v = mod.cyclic_vector()
    fv = mod.act(s.gen("Fp"), v)
    assert fv == {(0, 1): ONE}
    got = mod.act(s.gen("bp"), fv)
    assert got == {(0, 0): -qpow(2 * n * n)}
    assert mod.act(s.one(), v) == v
    assert mod.act(s.gen("cp"), v) == {}
    assert mod.act(s.gen("Ep"), v) == {(1, 0): ONE}


def test_wrong_order(p11):
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    other = make_S(p11, S_ORDERS["J2"])
    with pytest.raises(WrongOrder):
        mod.act(other.gen("bp"), mod.cyclic_vector())


@pytest.mark.parametrize("family", ["J1", "J2", "J3", "J4"])
@pytest.mark.parametrize("st", SIGMA_TAU, ids=["00", "01", "10"])
def test_module_law(mn_params, family, st):
    sigma, tau = st
    mod = QuotientModule(family, sigma, tau, mn_params)
    rng = random.Random(79)
    for _ in range(40):
        s1 = random_element(mod.spres, rng, max_degree=2, n_terms=2)
        s2 = random_element(mod.spres, rng, max_degree=2, n_terms=2)
        vec = {
            (rng.randint(0, 2), rng.randint(0, 2)): QScalar(rng.choice((1, -1, 2)))
        }
        lhs = mod.act(mod.spres.multiply(s1, s2), vec)
        rhs = mod.act(s1, mod.act(s2, vec))
        assert lhs == rhs


@pytest.mark.parametrize("family", ["J1", "J2", "J3", "J4"])
@pytest.mark.parametrize("st", SIGMA_TAU, ids=["00", "01", "10"])
def test_annihilator_law(p11, family, st):
    sigma, tau = st
    mod = QuotientModule(family, sigma, tau, p11)
    s = mod.spres
    v = mod.cyclic_vector()
    from qheis.smodules import FAMILY_SCALARS

    for gname, which in FAMILY_SCALARS[family].items():
        scal = sigma if which == "sigma" else tau
        residual = mod.act(s.gen(gname) - s.one(scal), v)
        assert residual == {}


@pytest.mark.parametrize("family", ["J1", "J2", "J3", "J4"])
def test_cyclicity_probe_trivial_and_small(p11, family):
    mod = QuotientModule(family, ZERO, ZERO, p11)
    assert cyclicity_probe(mod, mod.cyclic_vector(), 0) == "Cyclic"
    w = mod.act(mod.spres.gen(mod.order[1]), mod.cyclic_vector())
    assert cyclicity_probe(mod, w, 2) == "Cyclic"
    with pytest.raises(ZeroVector):
        cyclicity_probe(mod, {}, 2)


def test_cyclicity_probe_mixed_vector(p11):
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    s = mod.spres
    w = mod.act(s.gen("Ep") + s.gen("Fp"), mod.cyclic_vector())
    assert cyclicity_probe(mod, w, 6) == "Cyclic"


@pytest.mark.parametrize("family", ["J1", "J2", "J3", "J4"])
@pytest.mark.parametrize("st", SIGMA_TAU, ids=["00", "01", "10"])
def test_cyclicity_probe_seeded_vectors(p11, family, st):
    sigma, tau = st
    mod = QuotientModule(family, sigma, tau, p11)
    rng = random.Random(83)
    for _ in range(8):
        s = random_element(mod.spres, rng, max_degree=3, n_terms=2)
        w = mod.act(s, mod.cyclic_vector())
        if not w:
            continue
        assert cyclicity_probe(mod, w, 6) == "Cyclic"


def test_bp_lowers_fp_degree(mn_params):
    """With sigma = 0, bp maps the (a, i) basis line into the (a, i-1) line;
    the exact constants are computed, not matched against a formula."""
    mod = QuotientModule("J1", ZERO, ZERO, mn_params)
    bp = mod.spres.gen("bp")
    for a_exp in range(3):
        for i in range(1, 4):
            got = mod.act(bp, mod.basis_vector(a_exp, i))
            assert list(got) == [(a_exp, i - 1)]
            assert got[(a_exp, i - 1)]
        assert mod.act(bp, mod.basis_vector(a_exp, 0)) == {}


def test_q_dependent_scalars(p11):
    """sigma and tau may be arbitrary scalars in q, not just constants."""
    sigma = qpow(2) + 1
    mod = QuotientModule("J1", sigma, ZERO, p11)
    s = mod.spres
    assert mod.act(s.gen("bp") - s.one(sigma), mod.cyclic_vector()) == {}
    rng = random.Random(91)
    for _ in range(20):
        s1 = random_element(s, rng, max_degree=2, n_terms=2)
        s2 = random_element(s, rng, max_degree=2, n_terms=2)
        vec = {(rng.randint(0, 2), rng.randint(0, 2)): ONE}
        assert mod.act(s.multiply(s1, s2), vec) == mod.act(s1, mod.act(s2, vec))


def test_growth_quotient(p11):
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    dims = [mod.dim_filtration(d) for d in range(5)]
    assert dims == [1, 3, 6, 10, 15]
    # short ranges underestimate the quadratic growth; the value is frozen
    # from the fit itself and converges into [1.7, 2.3] by d_max = 12
    assert growth_exponent(mod, 8) == pytest.approx(1.5849146948, abs=1e-9)
    assert 1.7 <= growth_exponent(mod, 12) <= 2.3
    assert 1.7 <= growth_exponent(mod, 24) <= 2.3


def test_growth_weight_module(p11):
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    wm = WeightModule("K", ONE, mod, truncation=4)
    d = 3
    assert wm.dim_filtration(d) == (2 * d + 1) * mod.dim_filtration(d)
    slope = growth_exponent(wm, 24)
    assert 2.7 <= slope <= 3.3


def test_weight_module_basics(p11):
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    lam = QScalar(2)
    wm = WeightModule("K", lam, mod, truncation=3)
    dq = wm.dq
    v = wm.basis_vector(0, 0, 0)
    assert wm.act(dq.gen("K"), v) == {(0, 0, 0): lam}
    assert wm.act(dq.gen("a"), v) == {(1, 0, 0): ONE}
    got = wm.act(dq.gen("E"), v)
    assert got == {(-2, 1, 0): ONE}
    with pytest.raises(TruncationOverflow):
        wm.act(dq.gen("a", 4), v)


def test_weight_support(p11):
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    wm = WeightModule("K", ONE, mod, truncation=3)
    assert support(wm) == {qpow(t) for t in range(-3, 4)}
    wm0 = WeightModule("K", QScalar(5), mod, truncation=0)
    assert support(wm0) == {QScalar(5)}
    wma = WeightModule("a", qpow(1), mod, truncation=2)
    assert support(wma) == {qpow(1 + t) for t in range(-2, 3)}


def test_weight_k_eigenvalues_by_action(p11):
    """Support read off honestly from the action, not the formula."""
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    lam = QScalar(3)
    wm = WeightModule("K", lam, mod, truncation=2)
    seen = set()
    for t in range(-2, 3):
        for (i, j) in ((0, 0), (1, 0), (0, 2)):
            v = wm.basis_vector(t, i, j)
            got = wm.act(wm.dq.gen("K"), v)
            assert list(got) == [(t, i, j)]
            seen.add(got[(t, i, j)])
    assert seen == support(wm)


def test_weight_torus_relation(mn_params):
    """K(a.w) = q^{-1} a(K.w) on every truncated basis vector, both kinds."""
    mod = QuotientModule("J1", ZERO, ZERO, mn_params)
    for kind in ("K", "a"):
        wm = WeightModule(kind, QScalar(2), mod, truncation=3)
        dq = wm.dq
        for t in range(-2, 2):
            for (i, j) in ((0, 0), (1, 1), (2, 0)):
                w = wm.basis_vector(t, i, j)
                lhs = wm.act(dq.gen("K"), wm.act(dq.gen("a"), w))
                rhs = {
                    k: qpow(-1) * c
                    for k, c in wm.act(dq.gen("a"), wm.act(dq.gen("K"), w)).items()
                }
                assert lhs == rhs


def test_weight_layer_preserved_by_S(p11):
    mod = QuotientModule("J1", ZERO, ZERO, p11)
    wm = WeightModule("K", ONE, mod, truncation=2)
    from qheis.presets import primed_in_D

    ps = primed_in_D(p11)
    w = wm.basis_vector(1, 1, 0)
    nonzero = 0
    for el in (ps.eP, ps.fP, ps.bP, ps.cP):
        got = wm.act(el, w)
        nonzero += bool(got)
        assert all(t == 1 for (t, i, j) in got)
    assert nonzero >= 3  # only bp kills E'v when sigma = 0


def test_weight_module_law(mn_params):
    """act(x*y, v) == act(x, act(y, v)) for both weight kinds."""
    mod = QuotientModule("J1", ZERO, ZERO, mn_params)
    rng = random.Random(89)
    window = 6 * (abs(mn_params.m) + abs(mn_params.n))
    for kind in ("K", "a"):
        wm = WeightModule(kind, QScalar(2), mod, truncation=window)
        dq = wm.dq
        for _ in range(15):
            x = random_element(dq, rng, max_degree=2, n_terms=2, torus_window=1)
            y = random_element(dq, rng, max_degree=2, n_terms=2, torus_window=1)
            v = wm.basis_vector(rng.randint(-1, 1), rng.randint(0, 2), rng.randint(0, 2))
            assert wm.act(dq.multiply(x, y), v) == wm.act(x, wm.act(y, v))


@pytest.mark.parametrize("mn", [(1, 1), (2, -3), (-1, 2)], ids=lambda mn: f"m{mn[0]}n{mn[1]}")
@pytest.mark.parametrize("family", ["J1", "J2", "J3", "J4"])
@pytest.mark.parametrize("st", SIGMA_TAU, ids=["00", "01", "10"])
def test_weight_module_law_every_family(mn, family, st):
    """act(x*y, v) == act(x, act(y, v)) and K(a.v) = q^{-1} a(K.v) for K- and
    a-weight modules over each base family: the S parts of a Dq element
    come in the J1 order and act in the order of the base.  x, y run over
    every pair of generators, so each defining relation of Dq is met, and
    over seeded random elements."""
    p = params(*mn)
    mod = QuotientModule(family, *st, p)
    rng = random.Random(97)
    window = 6 * (abs(p.m) + abs(p.n))
    nonzero = 0
    for kind in ("K", "a"):
        wm = WeightModule(kind, QScalar(2), mod, truncation=window)
        dq = wm.dq
        K, a = dq.gen("K"), dq.gen("a")
        gens = [dq.gen(g) for g in dq.table.names]
        pairs = [(x, y) for x in gens for y in gens] + [
            tuple(random_element(dq, rng, max_degree=2, n_terms=2, torus_window=1) for _ in "xy")
            for _ in range(6)
        ]
        for x, y in pairs:
            v = wm.basis_vector(rng.randint(-1, 1), rng.randint(0, 2), rng.randint(0, 2))
            xy_v = wm.act(dq.multiply(x, y), v)
            assert xy_v == wm.act(x, wm.act(y, v))
            nonzero += bool(xy_v)
            lhs = wm.act(K, wm.act(a, v))
            assert lhs == {k: qpow(-1) * c for k, c in wm.act(a, wm.act(K, v)).items()}
            assert lhs
    assert nonzero >= 40


@pytest.mark.parametrize("family", ["J1", "J2", "J3", "J4"])
def test_negative_exponents_and_probe_degrees_are_refused(p11, family):
    mod = QuotientModule(family, ZERO, ZERO, p11)
    wm = WeightModule("a", ONE, mod, truncation=1)
    for i, j in ((-1, 0), (0, -1)):
        with pytest.raises(NegativePowerOfNonInvertible):
            mod.basis_vector(i, j)
        with pytest.raises(NegativePowerOfNonInvertible):
            wm.basis_vector(0, i, j)
    assert wm.basis_vector(-1, 2, 0) == {(-1, 2, 0): ONE}
    with pytest.raises(DegreeTooSmall):
        cyclicity_probe(mod, mod.cyclic_vector(), -3)


def test_weight_layer_dimension_profile(p11):
    mod = QuotientModule("J2", ZERO, ONE, p11)
    wm = WeightModule("K", ONE, mod, truncation=2)
    for d in range(5):
        per_layer = sum(
            1 for i in range(d + 1) for j in range(d + 1) if i + j <= d
        )
        assert per_layer == mod.dim_filtration(d)
        assert wm.dim_filtration(d) == (2 * d + 1) * per_layer


@pytest.mark.parametrize("t", range(9))
def test_probe_monomials_are_listed_in_lexicographic_order(t):
    """The probe inserts monomials in this order, so its echelon and
    verdicts depend on it."""
    expected = [e for e in product(range(t + 1), repeat=4) if sum(e) == t]
    assert list(_exponents_of_degree(t, 4)) == expected


def test_dim_filtration_counts_lattice_points(p11):
    mod = QuotientModule("J2", ZERO, ONE, p11)
    wm = WeightModule("a", QScalar(2), mod, truncation=1)
    for d in range(40):
        count = sum(1 for i in range(d + 1) for j in range(d + 1) if i + j <= d)
        assert mod.dim_filtration(d) == count
        assert wm.dim_filtration(d) == (2 * d + 1) * count


# ---------------------------------------------------------------------------
# the records of suites primed, modules and weights fail on mutants


def _labels(kinds, *sigma_tau):
    """Records of suite modules: each family at each (sigma, tau), one kind each."""
    return {
        f"{family}(s={s},t={t}) {kind}"
        for family in S_ORDERS
        for s, t in (sigma_tau or SIGMA_TAU)
        for kind in kinds
    }


def _second_letter_times_q(real):
    def letter_action(self, gi, key):
        out = real(self, gi, key)
        return {k: v * qpow(1) for k, v in out.items()} if gi == 1 else out

    return letter_action


def _k_eigenvalue_doubled(real):
    def eigenvalue(self, t):
        return self.lam * qpow(-2 * t) if self.kind == "K" else real(self, t)

    return eigenvalue


def _support_missing_the_top_layer(real):
    def support(self):
        return real(self) - {self.eigenvalue(self.truncation)}

    return support


def _sigma_tau_swapped(table):
    swap = {"sigma": "tau", "tau": "sigma"}
    return {family: {g: swap[w] for g, w in gens.items()} for family, gens in table.items()}


_SUITE_MUTANTS = {
    # (suite, owner, attribute, mutate the real one): the records it fails
    "recombine-doubled": (
        "primed", qheis.suites, "recombine_D",
        lambda real: lambda p, parts: real(p, parts).scale(2),
        {"factorization round-trip (degree <= 6)"},
    ),
    "sigma-tau-swapped": (
        "modules", qheis.suites, "FAMILY_SCALARS", _sigma_tau_swapped,
        _labels(["annihilators"], (ZERO, ONE), (ONE, ZERO)),
    ),
    "probe-undetermined": (
        "modules", qheis.suites, "cyclicity_probe",
        lambda real: lambda *args: "Undetermined",
        _labels(["cyclicity"]),
    ),
    "letter-times-q": (
        "modules", QuotientModule, "_letter_action", _second_letter_times_q,
        _labels(["associativity"]),
    ),
    "k-eigenvalue-doubled": (
        "weights", WeightModule, "eigenvalue", _k_eigenvalue_doubled,
        {"K-weight Ka = q^-1 aK"},
    ),
    "support-short": (
        "weights", WeightModule, "support", _support_missing_the_top_layer,
        {"K-weight support", "a-weight support"},
    ),
}


@pytest.mark.parametrize("mn", [(1, 1), (2, 3), (2, -3)], ids=str)
@pytest.mark.parametrize("mutant", list(_SUITE_MUTANTS))
def test_suite_records_flip_on_mutants(mn, mutant, monkeypatch):
    """Each mutant fails exactly its records of its suite at seed 5: a wrong
    factorization, scalars on the wrong generators, a probe that never
    certifies, a letter action that is no module, a K eigenvalue whose ladder
    steps by q^-2 (its support stays consistent, Ka = q^-1 aK does not), and
    a support short of one layer."""
    suite, owner, name, mutate, failing = _SUITE_MUTANTS[mutant]
    cfg = RunConfig(m=mn[0], n=mn[1], seed=5)
    assert all(r["ok"] for r in SUITES[suite](cfg))
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    assert {r["check"] for r in SUITES[suite](cfg) if not r["ok"]} == failing
