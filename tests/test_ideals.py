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
from qheis.presets import S_ORDERS, make_quantum_torus, make_S, params
from qheis.qfield import ONE, QScalar, add_scaled, inverse, qpow
from qheis.rewrite import Element, Presentation
from qheis.smodules import QuotientModule, cyclicity_probe
from qheis.suites import RunConfig, run_suites
from test_rewrite import _block_keys


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
    """Spans of two bounds are refused, and so are spans of two
    presentations with the same letters, as for an extension: I1 at
    q0 = 3/2 against the symbolic I1 was reported NotDetectedAtBound."""
    s = make_S(p11)
    s0 = s.specialize(Fraction(3, 2))
    phi1, phi2 = phi_elements(s)
    a = ideal_span(s, [phi1], degree_bound=4)
    b = ideal_span(s, [phi2], degree_bound=6)
    at_q0 = ideal_span(s0, phi_elements(s0)[:1], degree_bound=4)
    twin = ideal_span(make_S.__wrapped__(p11), [phi1], degree_bound=4)
    for small, big in ((a, b), (at_q0, a), (a, at_q0), (a, twin)):
        with pytest.raises(BoundMismatch):
            containment_probe(small, big)


def test_two_sided_span_is_not_contained_in_its_left_span(p11):
    """The left span holds the generator of the two-sided span but not its
    right multiples, so generators alone do not decide this edge; the
    left span lies in the two-sided one."""
    s = make_S(p11)
    g = s.multiply(s.gen("Ep"), s.gen("Fp")) + s.gen("cp")
    two = ideal_span(s, [g], side="twoSided", degree_bound=4)
    left = ideal_span(s, [g], side="left", degree_bound=4)
    assert (two.dimension, left.dimension) == (70, 15)
    assert left.member(g) == "Verified"
    report = containment_probe(two, left)
    assert report.status == "NotDetectedAtBound"
    assert left.member(report.witness) == "NotDetected"
    assert containment_probe(left, two).status == "Contained"


def test_contained_edge_reduces_one_row_per_generator(monkeypatch, cat11):
    """I2 in I3 at degree 8 reduces the one generator of I2, where the
    row scan reduced all 210 rows of I2."""
    small, big = cat11.ideals["I2"], cat11.ideals["I3"]
    assert (len(small.generators), small.dimension) == (1, 210)
    counts = {}
    _count_calls(monkeypatch, Echelon, "reduce", counts)
    assert containment_probe(small, big).status == "Contained"
    assert counts == {"reduce": 1}


@pytest.mark.parametrize("mn", [(1, 1), (2, -3)])
def test_missing_generator_is_the_witness(monkeypatch, mn):
    """I1 against J1(1) at degree 8: one reduction, of the generator of
    I1, answers NotDetectedAtBound, and the basis of I1 is never built."""
    cat = build_spec_catalog(params(*mn), degree_bound=8, z_samples=(ONE,))
    small, big = cat.ideals["I1"], cat.ideals["J1(1)"]
    counts = {}
    _count_calls(monkeypatch, Echelon, "reduce", counts)
    _count_calls(monkeypatch, TruncatedIdeal, "basis", counts)
    report = containment_probe(small, big)
    assert report.status == "NotDetectedAtBound"
    assert report.witness == small.generators[0]
    assert counts == {"reduce": 1}


def test_containment_scans_rows_in_a_non_additive_presentation(monkeypatch):
    """In a quantum torus a product can lower the degree, so the span need
    not be closed under the products of its elements within the bound:
    the probe reduces every row, not the generators."""
    t = make_quantum_torus(("x", "y"), [[ONE, qpow(1)], [qpow(-1), ONE]])
    ideal = ideal_span(t, [t.gen("x", -1)], degree_bound=0)
    assert not ideal.additive and ideal.dimension == 2
    counts = {}
    _count_calls(monkeypatch, Echelon, "reduce", counts)
    assert containment_probe(ideal, ideal).status == "Contained"
    assert counts == {"reduce": 2}


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


@pytest.mark.parametrize("build", [TruncatedIdeal, ideal_span], ids=["class", "ideal_span"])
def test_span_rejects_an_unknown_side(p11, build):
    """A side other than 'left' or 'twoSided' is refused, not read as
    two-sided."""
    s = make_S(p11)
    with pytest.raises(ValueError, match="side must be 'left' or 'twoSided'"):
        build(s, [s.gen("Ep")], "Left", 3)


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
# the span without the products it already holds, against the full closure


class ReferenceIdeal(TruncatedIdeal):
    """The span grown as it was before products were skipped: every queued
    row times every generator on each side, and each product above the
    bound thrown away after it was computed.  An extension of a
    ReferenceIdeal is closed the same way."""

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
    assert list(ideal.echelon.rows) == list(ref.echelon.rows)
    rows, ref_rows = ideal.echelon.rows, ref.echelon.rows
    for lead in ref.echelon.rows:
        assert list(rows[lead].items()) == list(ref_rows[lead].items())
    assert ideal._moves == ref._moves


def _s_at(order, mn, q0):
    s = make_S(params(*mn), S_ORDERS[order])
    return s if q0 is None else s.specialize(q0)


class _Spied(set):
    """The products `_implied` returns for one pivot; each one the loop of
    `_close` asks about is formed anyway and reduced against the echelon
    as it stands at that moment, and its case (s, g, h, t) is appended to
    `skips`: the pivot's move (s, g, r) and the product (h, t)."""

    def __init__(self, pairs, ideal, lead):
        super().__init__(pairs)
        self.ideal, self.lead = ideal, lead

    def __contains__(self, pair):
        if not super().__contains__(pair):
            return False
        ideal = self.ideal
        spres = ideal.spres
        row = Element(spres, dict(ideal.echelon.rows[self.lead]))
        g = spres.gen(spres.table.names[pair[0]])
        prod = spres.multiply(g, row) if pair[1] == "left" else spres.multiply(row, g)
        assert prod.degree() <= ideal.degree_bound
        ideal.spied.append(ideal.echelon.reduce(prod.terms))
        s, g, _ = ideal._moves[self.lead][0]
        ideal.skips.append((s, g) + pair)
        return True


class SpyIdeal(TruncatedIdeal):
    """A span that appends to `spied` the remainder of each product it
    skips, and to `skips` its case; a test empties both lists first."""

    spied: list = []
    skips: list = []

    def _implied(self, lead, scalar_tail):
        return _Spied(super()._implied(lead, scalar_tail), self, lead)


def _catalog(cls, monkeypatch, order, mn, q0):
    """The degree-6 catalog at one z, every span an instance of `cls`."""
    spres = _s_at(order, mn, q0)
    z = QScalar(-2) if q0 is None else Fraction(-2)
    with monkeypatch.context() as patch:
        patch.setattr(qheis.ideals, "TruncatedIdeal", cls)
        cat = build_spec_catalog(params(*mn), degree_bound=6, z_samples=(z,), spres=spres)
    assert all(type(ideal) is cls for ideal in cat.ideals.values())
    return cat


@pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "q0"])
@pytest.mark.parametrize("mn", [(1, 1), (2, -3)])
def test_span_skip_matches_full_closure_on_catalog(monkeypatch, mn, q0):
    """The catalog against the same catalog of ReferenceIdeals, whose
    I3, J1(z) and J2(z) are extensions of reference I1 and I2, in each
    admissible order: the skipped products depend on the generator order.
    Each skipped product, formed anyway, reduces to zero."""
    monkeypatch.setattr(SpyIdeal, "spied", [])
    for order in S_ORDERS:
        cat = _catalog(SpyIdeal, monkeypatch, order, mn, q0)
        ref_cat = _catalog(ReferenceIdeal, monkeypatch, order, mn, q0)
        for name, ideal in cat.ideals.items():
            ref = ref_cat.ideals[name]
            assert ideal.dimension == ref.dimension, (order, name)
            _assert_same_span(ideal, ref)
    assert len(SpyIdeal.spied) > 500 and not any(SpyIdeal.spied)


def _coeffs(q0):
    if q0 is None:
        return [ONE, -ONE, QScalar(2), qpow(1), qpow(-2)]
    return [Fraction(1), Fraction(-1), Fraction(2), Fraction(3, 2), Fraction(-4, 9)]


def _random_element(rng, s, max_degree, coeffs, min_degree=0):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * len(s.table.names)
        for _ in range(rng.randint(min_degree, max_degree)):
            mono[rng.randrange(len(mono))] += 1
        terms[tuple(mono)] = rng.choice(coeffs)
    return s.normal_form(Element(s, terms))


def _random_term(rng, s, max_degree, coeffs):
    mono = [0] * len(s.table.names)
    for _ in range(rng.randint(0, max_degree)):
        mono[rng.randrange(len(mono))] += 1
    return s.monomial(tuple(mono)).scale(rng.choice(coeffs[2:]))


# mixed-sign (m, n); with a third generic element the left span at (2, 3)
# swells in its coefficients and runs for minutes, from scratch too, so the
# extension adds one term
RANDOM_MN = [(1, 1), (2, -3), (1, -1), (2, 3), (-1, 2), (-2, -1)]


def _random_spans(cls, seed, order, q0):
    """(span, its extension by one term) of random generators at degree 4,
    left and two-sided, as `cls` and as ReferenceIdeal."""
    rng = random.Random(f"{seed}-{order}-{q0}")
    s = _s_at(order, RANDOM_MN[seed], q0)
    coeffs = _coeffs(q0)
    gens = [_random_element(rng, s, 2, coeffs) for _ in range(rng.randint(1, 2))]
    more = [_random_term(rng, s, 2, coeffs)]
    for side in ("left", "twoSided"):
        ideal = cls(s, gens, side, 4)
        ref = ReferenceIdeal(s, ideal.generators, side, 4)
        yield ideal, ref
        yield ideal.extend(more), ref.extend(more)


@pytest.mark.parametrize("seed", range(len(RANDOM_MN)))
def test_span_skip_matches_full_closure_on_random_generators(monkeypatch, seed):
    """Random spans at RANDOM_MN[seed] in each admissible order, symbolic
    and at q0 = 3/2: left, two-sided and their extensions.  Each skipped
    product, formed anyway, reduces to zero."""
    monkeypatch.setattr(SpyIdeal, "spied", [])
    for order in S_ORDERS:
        for q0 in (None, Fraction(3, 2)):
            for ideal, ref in _random_spans(SpyIdeal, seed, order, q0):
                _assert_same_span(ideal, ref)
    assert len(SpyIdeal.spied) > 100 and not any(SpyIdeal.spied)


def _new_case(s, g, h, t):
    """The case of a skip that the rule before the reach map did not make:
    associativity with (h, t) after (g, s) in the loop order, or a scalar
    tail with h > g; None for a skip that rule made too."""
    if t != s and (h > g or (h == g and s == "left")):
        return "cross, h = g" if h == g else "cross, h > g"
    if t == s and h > g:
        return "same, h > g"
    return None


def test_random_spans_skip_in_every_new_case(monkeypatch):
    """The random spans skip products in each case the reach map adds,
    the last two from pivots of both move sides (h = g on the other side
    is new only after a left move), and every skip reduces to zero."""
    monkeypatch.setattr(SpyIdeal, "spied", [])
    monkeypatch.setattr(SpyIdeal, "skips", [])
    for seed in range(len(RANDOM_MN)):
        for order in S_ORDERS:
            for q0 in (None, Fraction(3, 2)):
                for _ in _random_spans(SpyIdeal, seed, order, q0):
                    pass
    seen = {(case, skip[0]) for skip in SpyIdeal.skips if (case := _new_case(*skip))}
    assert seen == {
        ("cross, h = g", "left"),
        ("cross, h > g", "left"),
        ("cross, h > g", "right"),
        ("same, h > g", "left"),
        ("same, h > g", "right"),
    }
    assert len(SpyIdeal.spied) == len(SpyIdeal.skips) and not any(SpyIdeal.spied)


# three rules that skip products the span need not hold yet: each must make
# the differential checks fail


class SameSideUpToG(TruncatedIdeal):
    """The same side for every h <= g, whatever the tail and the reach."""

    def _implied(self, lead, scalar_tail):
        got = super()._implied(lead, scalar_tail)
        move = self._moves[lead][0]
        if move[0] == "gen":
            return got
        side, g, _ = move
        return got | {(h, side) for h in range(g + 1)}


class EveryCrossSide(TruncatedIdeal):
    """The other side for every h, whatever the reach."""

    def _implied(self, lead, scalar_tail):
        got = super()._implied(lead, scalar_tail)
        move = self._moves[lead][0]
        if move[0] == "gen" or self.side == "left":
            return got
        other = "right" if move[0] == "left" else "left"
        return got | {(h, other) for h in range(len(self.spres.table.names))}


class ReachOnePast(TruncatedIdeal):
    """The reach rule read as if r' were queued one position later: it
    trusts a parent product that reached one past r'."""

    def _implied(self, lead, scalar_tail):
        self._pos[lead] += 1
        try:
            return super()._implied(lead, scalar_tail)
        finally:
            self._pos[lead] -= 1


def _differs(ideal, ref):
    try:
        _assert_same_span(ideal, ref)
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("mutant", [SameSideUpToG, EveryCrossSide, ReachOnePast])
def test_differential_checks_catch_a_wrong_skip_rule(monkeypatch, mutant):
    """Skipping products that are not yet in the span changes the pivots,
    their order or their moves somewhere in the catalog and random spans."""

    def caught():
        for order in S_ORDERS:
            cat = _catalog(mutant, monkeypatch, order, (2, -3), None)
            ref_cat = _catalog(ReferenceIdeal, monkeypatch, order, (2, -3), None)
            if any(_differs(cat.ideals[name], ref_cat.ideals[name]) for name in cat.ideals):
                return True
            for seed in range(len(RANDOM_MN)):
                if any(_differs(*pair) for pair in _random_spans(mutant, seed, order, None)):
                    return True
        return False

    assert caught()


def _tail_after_g():
    """z*y = q*y*z + x^2 with x central, y and z of degree 2 and x of degree
    1.  The tail is not a scalar, and x sorts after z: from a pivot r' =
    z*r, y*r' needs x*(x*r), whose inner pivot is queued after r', so the
    same-side rule must not skip y*r'."""
    return Presentation.from_relations(
        names=("y", "z", "x"),
        invertible=(False,) * 3,
        degrees=(2, 2, 1),
        relations=[
            ("z", "y", qpow(1), [(ONE, [("x", 2)])]),
            ("x", "y", ONE, []),
            ("x", "z", ONE, []),
        ],
    )


class AnyTail(TruncatedIdeal):
    """The same side whatever the tail of the rule between g and h."""

    def _implied(self, lead, scalar_tail):
        return super()._implied(lead, set(self.spres.rules))


def test_a_non_scalar_tail_turns_case_b_off(monkeypatch):
    """On an additive toy with a non-scalar tail no pivot from z skips its
    same-side product by y, the span equals the full closure on both
    sides, and the rule that ignores the tail differs from it on both."""
    h = _tail_after_g()
    assert h.check_confluence().ok
    gens = [h.gen("y") + h.gen("x")]
    seen = []
    original = TruncatedIdeal._implied

    def implied(self, lead, scalar_tail):
        got = original(self, lead, scalar_tail)
        move = self._moves[lead][0]
        if move[0] != "gen" and move[1] == 1:
            seen.append(got)
            assert (0, move[0]) not in got
        return got

    caught = 0
    for side in ("left", "twoSided"):
        with monkeypatch.context() as patch:
            patch.setattr(TruncatedIdeal, "_implied", implied)
            ideal = ideal_span(h, gens, side=side, degree_bound=7)
        ref = ReferenceIdeal(h, ideal.generators, side, 7)
        _assert_same_span(ideal, ref)
        caught += _differs(AnyTail(h, gens, side, 7), ref)
    assert seen and caught == 2


def test_span_keeps_products_that_lower_the_degree(monkeypatch):
    """In a quantum torus x has degree 1 and x^-1 degree 0, so x * x^-1 = 1
    lies inside bound 0 although the degrees of its factors add up to 1;
    the span must compute that product.  The torus is not additive, so the
    span skips no product: it forms every one the full closure forms."""
    t = make_quantum_torus(("x", "y"), [[ONE, qpow(1)], [qpow(-1), ONE]])
    counts = {}
    _count_calls(monkeypatch, Presentation, "multiply", counts)
    _count_calls(monkeypatch, TruncatedIdeal, "_implied", counts)
    ideal = ideal_span(t, [t.gen("x", -1)], degree_bound=0)
    products = counts.pop("multiply")
    assert ideal.dimension == 2
    assert ideal.member(t.one()) == "Verified"
    ref = ReferenceIdeal(t, ideal.generators, "twoSided", 0)
    _assert_same_span(ideal, ref)
    assert counts == {"multiply": products}


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
    """Products, scalar canonicalizations, insert attempts and pivots of one
    catalog, on a fresh presentation so that every reduction misses the
    pair cache.  The full closure took 4,128 products and 51,446
    canonicalizations, and subtracting every row update (zeros included)
    and multiplying by the int 1 took 17,695 canonicalizations.  Building
    all six ideals from scratch, without growing I3, J1(z) and J2(z) from I1
    and I2, took 2,128 products and 4,078 canonicalizations.  Canonicalizing
    the QScalar(int) that a product or sum with an int builds first took
    3,051.  Powers that started from one() took 1,288 products.  Forming the
    products that associativity and the scalar-tail relations imply took
    1,284 products, 2,390 canonicalizations and 1,285 insert attempts for
    the same 305 pivots.  Skipping them only where (h, t) came before
    (g, s) in the loop order, with no reach map, took 656 products, 1,226
    canonicalizations and 657 insert attempts."""
    p = params(1, 1)
    spres = make_S.__wrapped__(p)
    z = QScalar(7)
    counts = {}
    _count_calls(monkeypatch, Presentation, "multiply", counts)
    _count_calls(monkeypatch, qheis.qfield, "_canon", counts)
    insert = TruncatedIdeal._insert
    pivots = []

    def counted_insert(self, terms, move):
        counts["_insert"] = counts.get("_insert", 0) + 1
        lead = insert(self, terms, move)
        if lead is not None:
            pivots.append(lead)
        return lead

    monkeypatch.setattr(TruncatedIdeal, "_insert", counted_insert)
    build_spec_catalog(p, degree_bound=6, z_samples=(z,), spres=spres)
    assert counts == {"multiply": 471, "_canon": 844, "_insert": 472}
    assert len(pivots) == 305


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
        assert all(scratch.member(row) == "Verified" for row in ideal.basis()), name
        assert all(ideal.member(row) == "Verified" for row in scratch.basis()), name


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


# ---------------------------------------------------------------------------
# containment decided by the generators, against the row scan


def _row_scan(small, big):
    """The probe before generators decided it: every basis row of `small`
    in basis order, the first one `big` misses as the witness."""
    for row in small.basis():
        if big.member(row) != "Verified":
            return "NotDetectedAtBound", row
    return "Contained", None


def _random_containment_spans(seed):
    """Left and two-sided spans at bound 4: of a random a without a
    constant term (a constant makes most two-sided spans the whole degree
    piece), of a and a term b (a second generic element swells the
    coefficients of the left span), of c = x*phi_i, of c and a, and of
    y*c and c*y."""
    mn = ((1, 1), (2, -3))[seed % 2]
    q0 = (None, Fraction(3, 2))[seed // 2 % 2]
    rng = random.Random(f"containment-{seed}")
    s = make_S(params(*mn))
    s = s if q0 is None else s.specialize(q0)
    coeffs = _coeffs(q0)
    x, y = (_random_term(rng, s, 1, coeffs) for _ in range(2))
    phi = rng.choice(phi_elements(s))
    a = _random_element(rng, s, 2, coeffs, min_degree=1)
    b = _random_term(rng, s, 2, coeffs)
    c = s.multiply(x, phi)
    spans = []
    for side in ("left", "twoSided"):
        a_span, c_span = ideal_span(s, [a], side, 4), ideal_span(s, [c], side, 4)
        spans += [a_span, a_span.extend([b]), c_span, c_span.extend([a])]
        spans += [ideal_span(s, [g], side, 4) for g in (s.multiply(y, c), s.multiply(c, y))]
    return spans


@pytest.mark.parametrize("seed", range(8))
def test_containment_matches_the_row_scan(seed):
    """Every ordered pair of random spans at (1,1) and (2,-3), symbolic
    and at q0 = 3/2, both sides: the status is that of the row scan, and
    the witness lies in `small` but not in `big`.  It is the first
    generator `big` misses when the generators decide, else the row
    scan's witness."""
    spans = _random_containment_spans(seed)
    seen = set()
    for small in spans:
        for big in spans:
            report = containment_probe(small, big)
            status, witness = _row_scan(small, big)
            assert report.status == status
            seen.add((status, small.side, big.side))
            if status == "Contained":
                assert report.witness is None
                continue
            assert small.member(report.witness) == "Verified"
            assert big.member(report.witness) == "NotDetected"
            if big.additive and big.side in ("twoSided", small.side):
                missed = [g for g in small.generators if big.member(g) != "Verified"]
                witness = missed[0]
            assert report.witness == witness
    assert {status for status, _, _ in seen} == {"Contained", "NotDetectedAtBound"}
    assert ("Contained", "left", "twoSided") in seen


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
    assert i1.echelon.rows == rows and list(i3.echelon.rows)[:210] == list(i1.echelon.rows)
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
        self.rows = self.new.rows

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
        assert list(self.new.rows) == list(self.ref.rows)
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
    assert len(made) == 1 and len(list(made[0].rows)) > 20


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
    the pair cache of the presentation keeps no block entry."""
    p = params(1, 1)
    spres = make_S.__wrapped__(p)
    cat = build_spec_catalog(p, degree_bound=6, z_samples=(QScalar(7),), spres=spres)
    spec_diagram(cat)
    phi1, _ = phi_elements(spres)
    ideal = cat.ideals["I1"]
    cert = ideal.certificate(spres.gen("bp") * phi1 * spres.gen("Fp"))
    assert cert is not None
    assert spres._pair_cache and _block_keys(spres) == []


@pytest.mark.parametrize("side, dimension, zeros", [("twoSided", 6, 9), ("left", 3, 3)])
def test_zero_products_follow_the_reach_rule(side, dimension, zeros, monkeypatch):
    """In k<x, y | y*x = 0> at D = 3 the span of x is x^i*y^j with i >= 1
    (two-sided) or the powers of x (left).  The rule has a zero swap, so
    the presentation is not additive and no product is skipped; y times a
    pivot that starts with x is zero, and a zero product is inserted like
    any other (it reduces to nothing and reaches no row)."""
    pres = Presentation.from_relations(
        names=("x", "y"), invertible=(False, False), degrees=(1, 1),
        relations=[("y", "x", QScalar(0), [])],
    )
    formed = []
    real = Presentation.multiply
    monkeypatch.setattr(
        Presentation, "multiply", lambda *a: formed.append(real(*a)) or formed[-1]
    )
    ideal = ideal_span(pres, [pres.gen("x")], side=side, degree_bound=3)
    assert sum(not prod for prod in formed) == zeros
    assert ideal.dimension == dimension
    assert sorted(ideal.echelon.rows) == sorted(
        (i, j) for i in range(1, 4) for j in range(4 - i) if side == "twoSided" or j == 0
    )
    _assert_same_span(ideal, ReferenceIdeal(pres, ideal.generators, side, 3))
