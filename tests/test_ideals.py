"""Truncated ideal spans, membership probes, spectrum catalog, torus quotient."""

import pytest

from qheis.errors import BoundMismatch, DegreeTooSmall
from qheis.ideals import (
    build_spec_catalog,
    containment_probe,
    ideal_span,
    member,
    monomial_avoidance_probe,
    phi_elements,
    spec_diagram,
    torus_quotient_map,
)
from qheis.morphisms import check_morphism
from qheis.presets import make_S, params
from qheis.qfield import ONE, qpow


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
    when they are inserted, so the replay of those reductions is used."""
    s = make_S(params(*mn))
    phi1, _ = phi_elements(s)
    for gens in ([phi1 + s.gen("bp")], [s.multiply(s.gen("Ep"), s.gen("Fp")) + s.gen("cp")]):
        span = ideal_span(s, gens, degree_bound=4)
        for row in span.basis():
            cert = span.certificate(row)
            assert cert is not None
            assert span.replay_certificate(cert) == row
