"""Morphism checker, automorphism families, group laws, embeddings."""

import random

import pytest

from qheis.errors import ConstraintViolation, PresentationError, TypeMismatch
from qheis.hopf import hopf_Oq, hopf_Uq
from qheis.morphisms import (
    Morphism,
    _extend_torus_S_map,
    check_hopf_compatibility,
    check_inverse,
    check_morphism,
    compose,
    embedding_Uq_into_Oq,
    family,
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
from qheis.presets import factorize_D, make_Dq, make_Oq, make_Uq, params, primed_in_D
from qheis.qfield import ONE, QScalar, add_scaled, inverse, qpow
from qheis.rewrite import Element, substitute
from qheis.sampling import random_sl2


def test_embedding_prop(mn_params):
    f = embedding_Uq_into_Oq(mn_params)
    assert check_morphism(f).ok
    h_src = hopf_Uq(params(mn_params.m, -mn_params.n))
    h_tgt = hopf_Oq(mn_params)
    assert check_hopf_compatibility(f, h_src, h_tgt)


def test_morphism_leaves_the_given_images_untouched(p11):
    """The morphism keeps normal forms in a dict of its own."""
    oq = make_Oq(p11)
    images = {"a": [("a", 1)], "b": [("c", 1)], "c": [("b", 1)]}
    given = {g: list(word) for g, word in images.items()}
    f = Morphism(oq, oq, images)
    assert images == given
    assert f.images == {"a": oq.gen("a"), "b": oq.gen("c"), "c": oq.gen("b")}
    assert check_morphism(f).ok


def test_tau_pass_and_fail():
    assert check_morphism(tau_Oq(params(2, 2))).ok
    assert check_morphism(tau_Oq(params(3, -3))).ok
    with pytest.raises(ConstraintViolation):
        tau_Oq(params(1, 2))
    # manual b<->c swap on m != +-n fails relation a*b = q^n b*a
    oq = make_Oq(params(1, 2))
    f = Morphism(oq, oq, {"a": oq.gen("a"), "b": oq.gen("c"), "c": oq.gen("b")})
    report = check_morphism(f)
    assert not report.ok
    assert any("b*a" in name or "a*b" in name for name, _ in report.failures)


def test_tau_squares_to_identity():
    for mn in ((2, 2), (3, -3)):
        t = tau_Oq(params(*mn))
        assert compose(t, t) == identity(t.source)
        assert check_inverse(t, t)


def test_xi_group_law(mn_params):
    x2 = xi_Oq(mn_params, 2)
    x3 = xi_Oq(mn_params, 3)
    assert check_morphism(x2).ok
    assert compose(x2, x3) == xi_Oq(mn_params, 5)
    assert compose(x3, x2) == xi_Oq(mn_params, 5)
    assert xi_Oq(mn_params, 0) == identity(x2.source)


def test_xi_images_match_parameters():
    p = params(2, 4)
    f = xi_Oq(p, 2)
    oq = f.source
    assert f.images["b"] == oq.normal_form([("a", 4), ("b", 1)])
    assert f.images["c"] == oq.normal_form([("a", 2), ("c", 1)])


def test_zeta_oq_group(p11):
    two = QScalar(2)
    z = zeta_Oq(p11, two, qpow(1), QScalar(-1))
    assert check_morphism(z).ok
    w = zeta_Oq(p11, qpow(-1), QScalar(3), qpow(2))
    prod = compose(z, w)
    assert prod == zeta_Oq(p11, two * qpow(-1), qpow(1) * 3, -qpow(2))
    zinv = zeta_Oq(p11, ONE / two, qpow(-1), QScalar(-1))
    assert check_inverse(z, zinv)
    with pytest.raises(ConstraintViolation):
        zeta_Oq(p11, QScalar(0), ONE, ONE)


def test_zeta_dq(mn_params):
    z = zeta_Dq(mn_params, QScalar(2), qpow(1))
    assert check_morphism(z).ok
    n, m = mn_params.n, mn_params.m
    dq = z.source
    # derived scalings forced by fixing the primed generators
    assert z.images["b"] == dq.gen("b").scale(QScalar(2) ** n * qpow(-n))
    assert z.images["c"] == dq.gen("c").scale(QScalar(2) ** m * qpow(m))
    assert z.images["E"] == dq.gen("E").scale(qpow(-2 * m))
    assert z.images["F"] == dq.gen("F").scale(QScalar(2) ** -n * qpow(2 * n))


def test_rho_identity_and_validation(p11):
    rid = rho_Dq(p11, ((1, 0), (0, 1)))
    assert rid == identity(rid.source)
    with pytest.raises(ConstraintViolation):
        rho_Dq(p11, ((2, 0), (0, 1)))


def test_rho_det2_fails_torus_relation(p11):
    """K -> K^2, a -> a, which rho_Dq refuses, built as rho_A would be."""
    dq = make_Dq(p11)
    f = _extend_torus_S_map(p11, dq.gen("K", 2), dq.gen("a"), {}, "rho_A")
    report = check_morphism(f)
    assert not report.ok
    assert any("a*K" in name or "K*a" in name for name, _ in report.failures)


def test_rho_is_morphism_and_fixes_primed(mn_params):
    rng = random.Random(71)
    A = random_sl2(rng)
    f = rho_Dq(mn_params, A)
    assert check_morphism(f).ok
    ps = primed_in_D(mn_params)
    for el in (ps.bP, ps.cP, ps.eP, ps.fP):
        assert f.apply(el) == el


def test_rho_composition_twist(p11):
    rng = random.Random(73)
    from qheis.morphisms import _matmul

    for _ in range(20):
        A = random_sl2(rng)
        B = random_sl2(rng)
        z1, z2 = solve_zeta_twist(p11, A, B)
        lhs = compose(rho_Dq(p11, A), rho_Dq(p11, B))
        rhs = compose(rho_Dq(p11, _matmul(A, B)), zeta_Dq(p11, z1, z2))
        assert lhs == rhs


def test_rho_inverse_up_to_twist(p11):
    A = ((2, 1), (1, 1))
    Ainv = ((1, -1), (-1, 2))
    z1, z2 = solve_zeta_twist(p11, A, Ainv)
    comp = compose(rho_Dq(p11, A), rho_Dq(p11, Ainv))
    fixed = compose(comp, zeta_Dq(p11, ONE / z1, ONE / z2))
    assert fixed == identity(comp.source)


def test_xi_dq(mn_params):
    f = xi_Dq(mn_params, QScalar(2), qpow(-1))
    assert check_morphism(f).ok
    ps = primed_in_D(mn_params)
    assert f.apply(ps.eP) == ps.eP.scale(QScalar(2))
    assert f.apply(ps.cP) == ps.cP.scale(QScalar(1) / 2)
    g = xi_Dq(mn_params, QScalar(3), QScalar(5))
    assert compose(f, g) == xi_Dq(mn_params, QScalar(6), qpow(-1) * 5)


def test_xi_dq_literal_b_reading_fails(p11):
    """Sending unprimed b to z4^{-1} b' is not a morphism; the primed reading is."""
    good = xi_Dq(p11, QScalar(2), QScalar(3))
    dq = good.source
    ps = primed_in_D(p11)
    bad_images = dict(good.images)
    bad_images["b"] = ps.bP.scale(QScalar(1) / 3)
    bad = Morphism(dq, dq, bad_images)
    assert not check_morphism(bad).ok


def test_iso_uq_oq(mn_params):
    f = iso_Uq_to_Oq(mn_params)
    assert check_morphism(f).ok
    g = iso_Oq_to_Uq(mn_params)
    assert check_morphism(g).ok
    assert check_inverse(f, g)


def test_compose_type_mismatch(p11):
    f = tau_Oq(params(1, 1))
    g = iso_Uq_to_Oq(p11)
    with pytest.raises(TypeMismatch):
        compose(g, f)


def test_invertible_generator_needs_invertible_image(p11):
    uq = iso_Uq_to_Oq(p11).source
    oq = make_Oq(params(2, -2))
    with pytest.raises(Exception):
        Morphism(uq, oq, {"K": oq.gen("b"), "E": oq.gen("c"), "F": oq.gen("b")})
    two_terms = oq.gen("a") + oq.gen("a", -1)
    with pytest.raises(Exception):
        Morphism(uq, oq, {"K": two_terms, "E": oq.gen("c"), "F": oq.gen("b")})


def test_family_dispatch(p11):
    assert family("xi", p11, i=1) == xi_Oq(p11, 1)
    assert family("rho", p11, matrix=((1, 1), (0, 1))).name == "rho_A"
    with pytest.raises(ConstraintViolation):
        family("nope", p11)
    with pytest.raises(ConstraintViolation):
        family("xi", p11)


def test_families_seeded_parameter_draws(p11):
    """20 seeded scalar/index draws per family, all relation-preserving."""
    from qheis.sampling import random_scalar

    rng = random.Random(97)
    for _ in range(20):
        draws = [random_scalar(rng) for _ in range(3)]
        if not all(draws):
            continue
        assert check_morphism(zeta_Oq(p11, *draws)).ok
        assert check_morphism(zeta_Dq(p11, draws[0], draws[1])).ok
        assert check_morphism(xi_Dq(p11, draws[1], draws[2])).ok
        assert check_morphism(xi_Oq(p11, rng.randint(-6, 6))).ok


def test_hopf_compatibility_negative_control(mn_params):
    """Scaling a by 2 keeps every relation of Oq but not the coproduct
    Delta(a) = a (x) a, so the check must report False."""
    ho = hopf_Oq(mn_params)
    assert check_hopf_compatibility(identity(make_Oq(mn_params)), ho, ho)
    scaled = zeta_Oq(mn_params, QScalar(2), ONE, ONE)
    assert check_morphism(scaled).ok
    assert not check_hopf_compatibility(scaled, ho, ho)


# ---------------------------------------------------------------------------
# the split-model maps, against the hand-rolled torus (x) S extension


def _reference_extend(p, K_img, a_img, s_images, name):
    """Each of b, c, E, F factorized as sum (K^k a^l) * s, then K, a and the
    primed generators in s replaced by their images and summed in Dq."""
    dq = make_Dq(p)
    ps = primed_in_D(p)
    embed = {"Ep": ps.eP, "Fp": ps.fP, "bp": ps.bP, "cp": ps.cP}
    embed.update(s_images)
    images = {"K": K_img, "a": a_img}
    cache: dict = {}
    for gname in ("b", "c", "E", "F"):
        img: dict = {}
        for (k, l), s_el in factorize_D(p, dq.gen(gname)):
            torus = dq.multiply(dq.power(K_img, k), dq.power(a_img, l))
            add_scaled(img, dq.multiply(torus, substitute(s_el, embed, dq, cache)).terms)
        images[gname] = Element(dq, img)
    return Morphism(dq, dq, images, name=name)


@pytest.mark.parametrize("mn", [(1, 1), (2, -3), (3, 5), (-4, 7)])
def test_split_model_maps_match_the_reference_extension(mn):
    p = params(*mn)
    dq = make_Dq(p)
    ps = primed_in_D(p)
    z1, z2 = QScalar(2), qpow(-1)
    pairs = [
        (
            zeta_Dq(p, z1, z2),
            _reference_extend(p, dq.gen("K").scale(z1), dq.gen("a").scale(z2), {}, "zeta"),
        )
    ]
    z3, z4 = QScalar(3), qpow(2) * 5
    s_images = {
        "Ep": ps.eP.scale(z3),
        "Fp": ps.fP.scale(z4),
        "cp": ps.cP.scale(inverse(z3)),
        "bp": ps.bP.scale(inverse(z4)),
    }
    pairs.append(
        (xi_Dq(p, z3, z4), _reference_extend(p, dq.gen("K"), dq.gen("a"), s_images, "xi"))
    )
    rng = random.Random(5)
    for _ in range(5):
        (a11, a12), (a21, a22) = A = random_sl2(rng)
        K_img = dq.normal_form([("K", a11), ("a", a21)])
        a_img = dq.normal_form([("K", a12), ("a", a22)])
        pairs.append((rho_Dq(p, A), _reference_extend(p, K_img, a_img, {}, "rho_A")))
    for got, want in pairs:
        assert got == want
        assert repr(got) == repr(want)


def test_image_from_another_presentation_rejected(p11):
    oq, uq = make_Oq(p11), make_Uq(p11)
    with pytest.raises(PresentationError):
        Morphism(oq, oq, {"a": oq.gen("a"), "b": uq.gen("E"), "c": oq.gen("c")})
