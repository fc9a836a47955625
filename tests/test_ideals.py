"""Truncated ideal spans, membership probes, spectrum catalog, torus quotient."""

import random
from fractions import Fraction

import pytest

import qheis.ideals
import qheis.qfield
import qheis.smodules
from qheis.errors import BoundMismatch, DegreeTooSmall
from qheis.ideals import (
    Echelon,
    TruncatedIdeal,
    build_spec_catalog,
    catalog_generators,
    containment_probe,
    ideal_span,
    member,
    monomial_avoidance_probe,
    phi_elements,
    spec_diagram,
    torus_quotient_map,
)
from qheis.morphisms import check_morphism
from qheis.presets import make_quantum_torus, make_S, params
from qheis.qfield import ONE, QScalar, add_scaled, inverse, qpow
from qheis.rewrite import Element, Presentation
from qheis.smodules import QuotientModule, cyclicity_probe
from qheis.suites import RunConfig, run_suites


@pytest.fixture(scope="module")
def cat11():
    return build_spec_catalog(params(1, 1), degree_bound=8)


def test_zero_ideal(p11):
    s = make_S(p11)
    zero = ideal_span(s, [], degree_bound=4)
    assert zero.dimension == 0
    assert member(zero, s.gen("bp")) == "NotDetected"
    assert member(zero, s.zero()) == "Verified"


def test_span_contains_generators(p11):
    s = make_S(p11)
    phi1, phi2 = phi_elements(s)
    span = ideal_span(s, [phi1, phi2], degree_bound=4)
    assert member(span, phi1) == "Verified"
    assert member(span, phi2) == "Verified"
    assert span.dimension > 2
    for mult in (s.gen("bp"), s.gen("Fp")):
        assert member(span, s.multiply(mult, phi1)) == "Verified"
        assert member(span, s.multiply(phi1, mult)) == "Verified"


def test_degree_too_small(p11):
    s = make_S(p11)
    phi1, _ = phi_elements(s)
    with pytest.raises(DegreeTooSmall):
        ideal_span(s, [phi1], degree_bound=1)
    span = ideal_span(s, [phi1], degree_bound=4)
    big = s.power(s.gen("Ep"), 5)
    with pytest.raises(DegreeTooSmall):
        member(span, big)


def test_member_phi1_rewritten(p11):
    """-phi1 written as (1 - q^{2m^2}) c'E' - 1 is literally in the span."""
    s = make_S(p11)
    phi1, _ = phi_elements(s)
    span = ideal_span(s, [phi1], degree_bound=8)
    m = p11.m
    rewritten = s.multiply(s.gen("cp"), s.gen("Ep")).scale(
        ONE - qpow(2 * m * m)
    ) - s.one()
    assert rewritten == -phi1
    assert member(span, rewritten) == "Verified"


def test_member_one_not_detected(cat11):
    assert member(cat11.ideals["I3"], cat11.spres.one()) == "NotDetected"


def test_containments(cat11):
    assert containment_probe(cat11.ideals["I1"], cat11.ideals["I3"]).status == "Contained"
    assert containment_probe(cat11.ideals["I2"], cat11.ideals["I3"]).status == "Contained"
    j1 = cat11.ideals["J1(1)"]
    assert containment_probe(cat11.ideals["I2"], j1).status == "Contained"
    j2 = cat11.ideals["J2(1)"]
    assert containment_probe(cat11.ideals["I1"], j2).status == "Contained"


def test_containment_i1_vs_j1_recorded(cat11):
    """Probed and recorded only: the diagram edge conflicts with monomial
    avoidance, and the probe indeed fails to detect the containment."""
    report = containment_probe(cat11.ideals["I1"], cat11.ideals["J1(1)"])
    assert report.status in ("Contained", "NotDetectedAtBound")
    assert report.status == "NotDetectedAtBound"


def test_bound_mismatch(p11):
    s = make_S(p11)
    phi1, phi2 = phi_elements(s)
    a = ideal_span(s, [phi1], degree_bound=4)
    b = ideal_span(s, [phi2], degree_bound=6)
    with pytest.raises(BoundMismatch):
        containment_probe(a, b)


def test_monotonicity_in_degree(p11):
    """Enlarging the bound never loses a verified membership (all catalog ideals)."""
    small_cat = build_spec_catalog(p11, degree_bound=4, z_samples=(ONE,))
    large_cat = build_spec_catalog(p11, degree_bound=6, z_samples=(ONE,))
    for name in small_cat.named():
        for row in small_cat.ideals[name].basis():
            assert large_cat.ideals[name].member(row) == "Verified", name


def test_avoidance_probe(cat11):
    for name in ("I1", "I2", "I3", "J1(1)", "J2(1)"):
        report = monomial_avoidance_probe(cat11.ideals[name], degree_bound=6)
        assert report.clean, (name, report.detected)
    zero_report = monomial_avoidance_probe(cat11.ideals["0"], degree_bound=4)
    assert zero_report.clean


def test_avoidance_probe_sensitivity(p11):
    s = make_S(p11)
    span = ideal_span(s, [s.gen("bp")], degree_bound=4)
    report = monomial_avoidance_probe(span, degree_bound=3)
    assert not report.clean
    assert (1, 0) in report.detected


def test_two_sided_closure(cat11):
    s = cat11.spres
    D = cat11.degree_bound
    for name in cat11.named():
        span = cat11.ideals[name]
        for row in span.basis():
            for gname in s.table.names:
                g = s.gen(gname)
                for prod in (s.multiply(g, row), s.multiply(row, g)):
                    if prod and prod.degree() <= D:
                        assert span.member(prod) == "Verified", (name, gname)


def test_certificate_replay(p11):
    s = make_S(p11)
    phi1, phi2 = phi_elements(s)
    span = ideal_span(s, [phi1, phi2], degree_bound=6)
    for x in (
        phi1,
        s.multiply(s.gen("bp"), phi1),
        s.multiply(s.multiply(s.gen("Ep"), phi2), s.gen("cp")),
        s.multiply(phi1, s.gen("Fp")) + s.multiply(phi2, s.gen("bp")).scale(qpow(3)),
    ):
        cert = span.certificate(x)
        assert cert is not None
        assert span.replay_certificate(cert) == s.normal_form(x)
    outside = s.gen("Ep")
    assert span.certificate(outside) is None


def test_left_ideal_span(p11):
    s = make_S(p11)
    phi1, _ = phi_elements(s)
    left = ideal_span(s, [phi1], side="left", degree_bound=5)
    assert member(left, s.multiply(s.gen("bp"), phi1)) == "Verified"


@pytest.mark.parametrize("mn,deg", [((6, 4), 6), ((2, 3), 7), ((2, -3), 7)])
def test_catalog_larger_parameters(mn, deg):
    """J-family exponents |n|/d, |m|/d stay integral and the probes stay
    clean away from the small parameter pairs (d = 2 included)."""
    p = params(*mn)
    cat = build_spec_catalog(p, degree_bound=deg, z_samples=(ONE,))
    for name in cat.named():
        assert monomial_avoidance_probe(cat.ideals[name], degree_bound=4).clean, name
    assert cat.ideals["I3"].member(cat.spres.one()) == "NotDetected"
    assert containment_probe(cat.ideals["I1"], cat.ideals["I3"]).status == "Contained"
    assert containment_probe(cat.ideals["I2"], cat.ideals["J1(1)"]).status == "Contained"


def test_catalog_degree_bound_guard():
    """A z-family generator above the bound raises instead of truncating."""
    with pytest.raises(DegreeTooSmall):
        build_spec_catalog(params(-2, 5), degree_bound=6, z_samples=(ONE,))


def test_j_ideals_negative_mn():
    """For mn < 0 the z-families use the F'/E' generators."""
    p = params(1, -1)
    cat = build_spec_catalog(p, degree_bound=6, z_samples=(ONE,))
    s = cat.spres
    phi1, phi2 = phi_elements(s)
    g1 = phi1 - s.gen("Fp")
    assert member(cat.ideals["J1(1)"], g1) == "Verified"
    assert member(cat.ideals["J1(1)"], phi2) == "Verified"
    assert containment_probe(cat.ideals["I2"], cat.ideals["J1(1)"]).status == "Contained"
    for name in ("I1", "I2", "I3", "J1(1)", "J2(1)"):
        assert monomial_avoidance_probe(cat.ideals[name], degree_bound=5).clean


def test_spec_diagram(cat11):
    edges = spec_diagram(cat11)
    by_pair = {(e["from"], e["to"]): e["status"] for e in edges}
    assert by_pair[("0", "I1")] == "Contained"
    assert by_pair[("I1", "I3")] == "Contained"
    assert by_pair[("I2", "I3")] == "Contained"
    assert by_pair[("I2", "J1(1)")] == "Contained"
    assert by_pair[("I1", "J2(1)")] == "Contained"
    assert ("I1", "J1(1)") in by_pair  # recorded, not asserted


def test_torus_quotient_map(mn_params):
    f = torus_quotient_map(mn_params)
    assert check_morphism(f).ok
    s = f.source
    phi1, phi2 = phi_elements(s)
    assert not f.apply(phi1)
    assert not f.apply(phi2)
    m = mn_params.m
    rel = s.multiply(s.gen("Ep"), s.gen("cp")) - s.multiply(
        s.gen("cp"), s.gen("Ep")
    ).scale(qpow(2 * m * m)) - s.one()
    assert not f.apply(rel)



@pytest.mark.parametrize("mn", [(1, 1), (2, -3)])
def test_certificate_replays_every_basis_element(mn):
    """Certificates for a whole basis.  With a generator whose lead is not
    a monomial of the catalog kind, rows are reduced against earlier rows
    when they are inserted, so the steps of those reductions are used."""
    s = make_S(params(*mn))
    phi1, _ = phi_elements(s)
    for gens in ([phi1 + s.gen("bp")], [s.multiply(s.gen("Ep"), s.gen("Fp")) + s.gen("cp")]):
        span = ideal_span(s, gens, degree_bound=4)
        for row in span.basis():
            cert = span.certificate(row)
            assert cert is not None
            assert span.replay_certificate(cert) == row


# ---------------------------------------------------------------------------
# the span without products past the degree bound, against the full closure


class ReferenceIdeal(TruncatedIdeal):
    """The span grown as it was before products past the degree bound were
    skipped: every queued row times every generator on each side, and each
    product above the bound thrown away after it was computed.  An
    extension of a ReferenceIdeal is closed the same way."""

    def _close(self, queue):
        D = self.degree_bound
        sides = ("left",) if self.side == "left" else ("left", "right")
        gens = [self.spres.gen(name) for name in self.spres.table.names]
        pos = 0
        while pos < len(queue):
            lead = queue[pos]
            pos += 1
            row = Element(self.spres, dict(self.echelon.rows[lead]))
            for gi, g in enumerate(gens):
                for side in sides:
                    prod = (
                        self.spres.multiply(g, row)
                        if side == "left"
                        else self.spres.multiply(row, g)
                    )
                    if not prod or prod.degree() > D:
                        continue
                    new_lead = self._insert(prod.terms, (side, gi, lead))
                    if new_lead is not None:
                        queue.append(new_lead)


def _assert_same_span(ideal, ref):
    """Same pivots in the same order, same rows term by term, same moves."""
    assert ideal.echelon.order == ref.echelon.order
    rows, ref_rows = ideal.echelon.rows, ref.echelon.rows
    for lead in ref.echelon.order:
        assert list(rows[lead].items()) == list(ref_rows[lead].items())
    assert ideal._moves == ref._moves


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q0"])
@pytest.mark.parametrize("mn", [(1, 1), (2, -3)])
def test_span_skip_matches_full_closure_on_catalog(monkeypatch, mn, q0):
    """The catalog against the same catalog of ReferenceIdeals, whose
    I3, J1(z) and J2(z) are extensions of reference I1 and I2."""
    p = params(*mn)
    spres = make_S(p) if q0 is None else make_S(p).specialize(q0)
    z = QScalar(-2) if q0 is None else Fraction(-2)
    cat = build_spec_catalog(p, degree_bound=6, z_samples=(z,), spres=spres)
    monkeypatch.setattr(qheis.ideals, "TruncatedIdeal", ReferenceIdeal)
    ref_cat = build_spec_catalog(p, degree_bound=6, z_samples=(z,), spres=spres)
    for name, ideal in cat.ideals.items():
        ref = ref_cat.ideals[name]
        assert isinstance(ref, ReferenceIdeal)
        assert ideal.dimension == ref.dimension, name
        _assert_same_span(ideal, ref)


def _random_element(rng, s, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * len(s.table.names)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(mono))] += 1
        terms[tuple(mono)] = rng.choice([ONE, -ONE, QScalar(2), qpow(1), qpow(-2)])
    return s.normal_form(Element(s, terms))


def _random_term(rng, s, max_degree):
    mono = [0] * len(s.table.names)
    for _ in range(rng.randint(0, max_degree)):
        mono[rng.randrange(len(mono))] += 1
    return s.monomial(tuple(mono)).scale(rng.choice([ONE, QScalar(-3), qpow(2)]))


@pytest.mark.parametrize("seed", range(4))
def test_span_skip_matches_full_closure_on_random_generators(seed):
    rng = random.Random(seed)
    s = make_S(params(*[(1, 1), (2, -3), (1, -1), (2, 3)][seed]))
    gens = [_random_element(rng, s, 2) for _ in range(rng.randint(1, 2))]
    # one term: with a third generic element the left span at (2, 3)
    # swells in its coefficients and runs for minutes, from scratch too
    more = [_random_term(rng, s, 2)]
    for side in ("left", "twoSided"):
        ideal = ideal_span(s, gens, side=side, degree_bound=4)
        ref = ReferenceIdeal(s, ideal.generators, side, 4)
        _assert_same_span(ideal, ref)
        _assert_same_span(ideal.extend(more), ref.extend(more))


def test_span_keeps_products_that_lower_the_degree():
    """In a quantum torus x has degree 1 and x^-1 degree 0, so x * x^-1 = 1
    lies inside bound 0 although the degrees of its factors add up to 1;
    the span must compute that product."""
    t = make_quantum_torus(("x", "y"), [[ONE, qpow(1)], [qpow(-1), ONE]])
    ideal = ideal_span(t, [t.gen("x", -1)], degree_bound=0)
    assert ideal.dimension == 2
    assert ideal.member(t.one()) == "Verified"
    _assert_same_span(ideal, ReferenceIdeal(t, ideal.generators, "twoSided", 0))


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("side", ["left", "twoSided"])
def test_span_computes_no_product_it_throws_away(monkeypatch, side):
    """Every product `_build` computes is inserted: none lies past the bound."""
    s = make_S(params(1, 1))
    phi1, phi2 = phi_elements(s)
    counts = {}
    _count_calls(monkeypatch, Presentation, "multiply", counts)
    _count_calls(monkeypatch, TruncatedIdeal, "_insert", counts)
    ideal = ideal_span(s, [phi1, phi2], side=side, degree_bound=6)
    assert ideal.dimension > 2
    assert counts["multiply"] == counts["_insert"] - 2


def test_catalog_work_counts(monkeypatch):
    """Products and scalar canonicalizations of one catalog, on a fresh
    presentation so that every reduction misses the pair cache.  The full
    closure took 4,128 products and 51,446 canonicalizations, and
    subtracting every row update (zeros included) and multiplying by the
    int 1 took 17,695 canonicalizations.  Building all six ideals from
    scratch, without growing I3, J1(z) and J2(z) from I1 and I2, took
    2,128 products and 4,078 canonicalizations.  Canonicalizing the
    QScalar(int) that a product or sum with an int builds first took
    3,051."""
    p = params(1, 1)
    spres = make_S.__wrapped__(p)
    z = QScalar(7)
    counts = {}
    _count_calls(monkeypatch, Presentation, "multiply", counts)
    _count_calls(monkeypatch, qheis.qfield, "_canon", counts)
    build_spec_catalog(p, degree_bound=6, z_samples=(z,), spres=spres)
    assert counts == {"multiply": 1288, "_canon": 2390}


def test_ideals_suite_builds_only_the_ideals_it_reads(monkeypatch):
    """The records read J1(z) and J2(z) at z = 1 only: 0, I1, I2, I3,
    J1(1) and J2(1) are six spans, where three values of z made ten."""
    counts = {}
    _count_calls(monkeypatch, TruncatedIdeal, "_build", counts)
    _, ok = run_suites(("ideals",), RunConfig(seed=7))
    assert ok and counts == {"_build": 6}


@pytest.fixture(scope="module")
def fresh_cat11():
    """The catalog of test_catalog_work_counts, its own presentation."""
    p = params(1, 1)
    spres = make_S.__wrapped__(p)
    return build_spec_catalog(p, degree_bound=6, z_samples=(QScalar(7),), spres=spres)


def test_diagram_reduces_no_word(monkeypatch, fresh_cat11):
    """Elements are normal by construction, so membership normalizes
    nothing; moving each basis row through `_reduce` took 760 calls."""
    counts = {}
    _count_calls(monkeypatch, Presentation, "_reduce", counts)
    spec_diagram(fresh_cat11)
    assert counts == {}


def test_first_certificate_reuses_the_insert_steps(monkeypatch, fresh_cat11):
    """The pivot combinations take the steps recorded when each row was
    inserted; replaying every pivot's product against the earlier rows
    took 289 products and 71 echelon reductions."""
    spres = fresh_cat11.spres
    ideal = fresh_cat11.ideals["I1"]
    phi1, _ = phi_elements(spres)
    x = spres.gen("bp") * phi1 * spres.gen("Fp")
    counts = {}
    _count_calls(monkeypatch, Presentation, "multiply", counts)
    _count_calls(monkeypatch, Echelon, "reduce", counts)
    cert = ideal.certificate(x)
    assert counts["multiply"] <= 83 and counts["reduce"] == 1
    assert ideal.replay_certificate(cert) == x


# ---------------------------------------------------------------------------
# spans grown from a closed span, against spans built from scratch


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q0"])
@pytest.mark.parametrize("deg", [6, 8])
@pytest.mark.parametrize("mn", [(1, 1), (2, 3), (2, -3), (-1, 2), (3, 3)])
def test_extended_catalog_ideals_match_spans_from_scratch(mn, deg, q0):
    """I3, J1(z) and J2(z) grow from I1 or I2; each has the dimension of
    the span of its catalog generators built from scratch, and each basis
    lies in the other span."""
    p = params(*mn)
    spres = make_S(p) if q0 is None else make_S(p).specialize(q0)
    z = QScalar(-2) if q0 is None else Fraction(-2)
    cat = build_spec_catalog(p, degree_bound=deg, z_samples=(z,), spres=spres)
    gens = catalog_generators(spres, p, (z,))
    for name, base in (("I3", "I1"), ("J1(-2)", "I2"), ("J2(-2)", "I1")):
        ideal = cat.ideals[name]
        assert ideal.generators[0] == cat.ideals[base].generators[0], name
        scratch = ideal_span(spres, gens[name], degree_bound=deg)
        assert ideal.dimension == scratch.dimension, name
        assert containment_probe(ideal, scratch).status == "Contained", name
        assert containment_probe(scratch, ideal).status == "Contained", name


def test_extension_needs_the_base_presentation_side_and_bound(p11):
    s = make_S(p11)
    phi1, phi2 = phi_elements(s)
    base = ideal_span(s, [phi1], degree_bound=6)
    for spres, side, bound in (
        (make_S(params(2, 3)), "twoSided", 6),
        (make_S.__wrapped__(p11), "twoSided", 6),
        (s, "left", 6),
        (s, "twoSided", 8),
    ):
        with pytest.raises(BoundMismatch):
            TruncatedIdeal(spres, [phi2], side, bound, base=base)
    assert base.extend([phi2]).dimension == 125


def test_closing_i3_from_i1_takes_few_products(monkeypatch):
    """The extension multiplies only the pivots that phi2 adds, each by at
    most the four generators on two sides; I1 keeps its rows and I3 shares
    them."""
    s = make_S(params(2, 3))
    phi1, phi2 = phi_elements(s)
    i1 = ideal_span(s, [phi1], degree_bound=8)
    rows = dict(i1.echelon.rows)
    counts = {}
    _count_calls(monkeypatch, Presentation, "multiply", counts)
    i3 = i1.extend([phi2])
    assert (i1.dimension, i3.dimension) == (210, 350)
    assert 0 < counts["multiply"] <= 8 * (i3.dimension - i1.dimension)
    assert i1.echelon.rows == rows and i3.echelon.order[:210] == i1.echelon.order
    assert all(i3.echelon.rows[lead] is row for lead, row in rows.items())


# ---------------------------------------------------------------------------
# the echelon that cancels by equality, against plain subtraction


class ReferenceEchelon(Echelon):
    """The echelon as it was before reduction compared coefficients: each
    step subtracts factor * row with `add_scaled`, zeros included, and the
    lead is the max over `key` after every step and again in `insert`."""

    def reduce(self, terms, steps=None):
        terms = dict(terms)
        while terms:
            lead = max(terms, key=self.key)
            row = self.rows.get(lead)
            if row is None:
                break
            factor = terms[lead]
            add_scaled(terms, row, -factor)
            if steps is not None:
                steps.append((factor, lead))
        return terms

    def insert(self, terms, steps=None):
        rem = self.reduce(terms, steps)
        if not rem:
            return None
        lead = max(rem, key=self.key)
        lc = rem[lead]
        inv = inverse(lc)
        self.rows[lead] = {m: c * inv for m, c in rem.items()}
        self.order.append(lead)
        return lead, lc


def _typed(pairs):
    """Pairs in order, each with the types of its two items: 1,
    Fraction(1) and ONE are equal but are not the same coefficient."""
    return [(a, b, type(a), type(b)) for a, b in pairs]


class LockstepEchelon:
    """Echelon and ReferenceEchelon fed the same calls: every remainder,
    every list of reduction steps (of `reduce` and of `insert`), every
    (lead, lead coefficient) and every new row must agree term by term,
    in order and in type."""

    def __init__(self, key, new=None, ref=None):
        self.new = new or Echelon(key)
        self.ref = ref or ReferenceEchelon(key)
        self.rows, self.order = self.new.rows, self.new.order

    def copy(self):
        return LockstepEchelon(None, self.new.copy(), self.ref.copy())

    def reduce(self, terms, steps=None):
        got_steps, ref_steps = [], []
        got = self.new.reduce(terms, got_steps)
        ref = self.ref.reduce(terms, ref_steps)
        assert _typed(got.items()) == _typed(ref.items())
        assert _typed(got_steps) == _typed(ref_steps)
        if steps is not None:
            steps.extend(got_steps)
        return got

    def insert(self, terms, steps=None):
        got_steps, ref_steps = [], []
        got = self.new.insert(terms, got_steps)
        ref = self.ref.insert(terms, ref_steps)
        assert _typed(got_steps) == _typed(ref_steps)
        if steps is not None:
            steps.extend(got_steps)
        assert (got is None) == (ref is None)
        if got is not None:
            assert _typed([got]) == _typed([ref])
            rows, ref_rows = self.new.rows[got[0]], self.ref.rows[ref[0]]
            assert _typed(rows.items()) == _typed(ref_rows.items())
        assert self.new.order == self.ref.order
        return got


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q0"])
@pytest.mark.parametrize("mn", [(1, 1), (2, -3)])
def test_echelon_matches_reference_on_catalog(monkeypatch, mn, q0):
    """Spans, certificate replays and certificates of a whole catalog, each
    echelon call checked against the reference; then the same catalog
    built on the reference alone has the same pivots, rows and moves."""
    p = params(*mn)
    spres = make_S(p) if q0 is None else make_S(p).specialize(q0)
    z = QScalar(-2) if q0 is None else Fraction(-2)
    monkeypatch.setattr(qheis.ideals, "Echelon", LockstepEchelon)
    cat = build_spec_catalog(p, degree_bound=6, z_samples=(z,), spres=spres)
    phi1, phi2 = phi_elements(spres)
    probes = [phi1 * spres.gen("bp") + spres.gen("cp") * phi2, spres.gen("Ep") * phi1, phi2]
    certs = {}
    for name, ideal in cat.ideals.items():
        assert isinstance(ideal.echelon, LockstepEchelon)
        certs[name] = [ideal.certificate(x) for x in probes]
    monkeypatch.setattr(qheis.ideals, "Echelon", ReferenceEchelon)
    ref_cat = build_spec_catalog(p, degree_bound=6, z_samples=(z,), spres=spres)
    for name, ideal in cat.ideals.items():
        ref = ref_cat.ideals[name]
        _assert_same_span(ideal, ref)
        assert certs[name] == [ref.certificate(x) for x in probes]
    assert any(c is not None for cs in certs.values() for c in cs)
    assert any(c is None for cs in certs.values() for c in cs)


@pytest.mark.parametrize("family, sigma, tau", [("J1", 0, 1), ("J3", 1, 0)])
def test_echelon_matches_reference_in_cyclicity_probe(monkeypatch, family, sigma, tau):
    made = []

    def lockstep(key):
        made.append(LockstepEchelon(key))
        return made[-1]

    monkeypatch.setattr(qheis.smodules, "Echelon", lockstep)
    mod = QuotientModule(family, QScalar(sigma), QScalar(tau), params(1, 1))
    s = mod.spres
    a, b = (s.gen(name) for name in mod.order[:2])
    w = mod.act(s.power(a, 4) * s.power(b, 3) + s.power(a, 2), mod.cyclic_vector())
    assert cyclicity_probe(mod, w, 4) == "Cyclic"
    assert len(made) == 1 and len(made[0].order) > 20


def test_echelon_reduce_cancels_some_keys_and_keeps_others():
    """One reduction step over int, Fraction and QScalar coefficients:
    the keys whose coefficient equals factor * v are dropped (an int equal
    to a Fraction, a QScalar equal to a QScalar, a QScalar equal to a
    Fraction), another keeps its difference, a key new to the remainder
    takes -factor * v, a key outside the row is left alone, and every
    type is the one that plain subtraction gives."""
    q = qpow(1)
    row = {5: 2, 4: 1, 3: q, 2: 3, 1: Fraction(2, 3), 0: QScalar(4)}
    terms = {5: 4, 4: 2, 3: q + q, 2: QScalar(6), 1: 7, -1: 5}
    got = {}
    for cls in (Echelon, ReferenceEchelon):
        e = cls(lambda k: k)
        assert e.insert(row) == (5, 2)
        steps = []
        rem = e.reduce(terms, steps=steps)
        got[cls] = (_typed(rem.items()), _typed(steps), _typed(e.rows[5].items()))
    assert got[Echelon] == got[ReferenceEchelon]
    assert got[Echelon][:2] == (
        _typed([(1, Fraction(17, 3)), (-1, 5), (0, QScalar(-8))]),
        _typed([(4, 5)]),
    )


def test_catalog_diagram_and_certificate_form_no_block():
    """Spans multiply monomials by single letters and a certificate replays
    such products, so no tail rule meets a block g^a*h^b with a, b >= 2 and
    the block table of the presentation stays empty."""
    p = params(1, 1)
    spres = make_S.__wrapped__(p)
    cat = build_spec_catalog(p, degree_bound=6, z_samples=(QScalar(7),), spres=spres)
    spec_diagram(cat)
    phi1, _ = phi_elements(spres)
    ideal = cat.ideals["I1"]
    cert = ideal.certificate(spres.gen("bp") * phi1 * spres.gen("Fp"))
    assert cert is not None
    assert spres._blocks == {}
