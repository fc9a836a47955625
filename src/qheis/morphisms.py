"""Relation-preserving morphisms, their composition, and the automorphism
families of the algebras: diagonal scalings, torus-power twists on Oq, the
SL2(Z) action on the Dq torus part, the primed-scaling family, the dual
embedding, and the isomorphism from Uq onto an Oq with doubled parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConstraintViolation, TypeMismatch, UnknownGenerator
from .presets import (
    AlgebraParams,
    _unprimed_images,
    make_Dq,
    make_Oq,
    make_Uq,
    params,
    primed_in_D,
)
from .qfield import QScalar, inverse
from .rewrite import Element, Presentation, substitute


@dataclass
class Morphism:
    """Algebra map given by generator images in the target presentation."""

    source: Presentation
    target: Presentation
    images: dict
    name: str = ""
    _pow_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        names = self.source.table.names
        for gname in names:
            if gname not in self.images:
                raise UnknownGenerator(f"no image for generator {gname}")
        # a dict of its own: the caller's images stay as they were given
        self.images = {g: self.target.normal_form(self.images[g]) for g in names}
        for gname, inv in zip(names, self.source.table.invertible):
            if inv:
                # must be a one-term monomial on invertible generators
                self._pow_cache[(gname, -1)] = self.images[gname].inverse_monomial()

    def apply(self, x: Element) -> Element:
        return substitute(x, self.images, self.target, self._pow_cache)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source.table.names == other.source.table.names
            and self.target.table.names == other.target.table.names
            and all(
                self.images[g] == other.images[g] for g in self.source.table.names
            )
        )

    def __repr__(self):
        imgs = ", ".join(
            f"{g} -> {self.images[g]}" for g in self.source.table.names
        )
        return f"Morphism({self.name or 'f'}: {imgs})"


@dataclass
class MorphismReport:
    ok: bool
    relations_checked: int
    failures: list


def identity(pres: Presentation) -> Morphism:
    return Morphism(pres, pres, {g: pres.gen(g) for g in pres.table.names}, name="id")


def relation_failures(pres: Presentation, image, mul) -> list:
    """(label "L*E", residual) for each rule L*E = swap*E*L + tail of `pres`
    whose mul(image(L), image(E)) - (swap*mul(image(E), image(L)) + image(tail))
    is not zero; `mul` is the target's product for an algebra map, that product
    with its factors swapped for an anti-map, and scalar * for a character."""
    names = pres.table.names
    gens = [image(pres.gen(g)) for g in names]
    failures = []
    for (li, ei), rule in pres.rules.items():
        L, E = gens[li], gens[ei]
        residual = mul(L, E) - (rule.swap * mul(E, L) + image(Element(pres, dict(rule.tail))))
        if residual:
            failures.append((f"{names[li]}*{names[ei]}", residual))
    return failures


def check_morphism(f: Morphism) -> MorphismReport:
    """Push every defining relation of the source through f and demand a
    zero residual (`relation_failures` with the target's product)."""
    failures = relation_failures(f.source, f.apply, f.target.multiply)
    return MorphismReport(not failures, len(f.source.rules), failures)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g."""
    if g.target.table.names != f.source.table.names:
        raise TypeMismatch("target of g must be the source of f")
    images = {name: f.apply(img) for name, img in g.images.items()}
    return Morphism(g.source, f.target, images, name=f"{f.name}*{g.name}")


def check_inverse(f: Morphism, g: Morphism) -> bool:
    return compose(f, g) == identity(g.source) and compose(g, f) == identity(f.source)


def check_hopf_compatibility(f: Morphism, h_src, h_tgt) -> bool:
    """Delta_target after f equals (f (x) f) after Delta_source."""
    src, tgt = f.source.tensor_square(), f.target.tensor_square()
    images = {}
    for k in (1, 2):
        into = Morphism(f.target, tgt, {g: tgt.gen(f"{g}({k})") for g in f.target.table.names})
        images.update({f"{g}({k})": into.apply(img) for g, img in f.images.items()})
    return compose(h_tgt.delta, f) == compose(Morphism(src, tgt, images), h_src.delta)


# ---------------------------------------------------------------------------
# Oq families


def tau_Oq(p: AlgebraParams) -> Morphism:
    """Swap b and c; a is fixed for m = n and inverted for m = -n."""
    if p.m != p.n and p.m != -p.n:
        raise ConstraintViolation("tau exists only for m = +-n")
    oq = make_Oq(p)
    a_img = oq.gen("a") if p.m == p.n else oq.gen("a", -1)
    return Morphism(
        oq, oq, {"a": a_img, "b": oq.gen("c"), "c": oq.gen("b")}, name="tau"
    )


def xi_Oq(p: AlgebraParams, i: int) -> Morphism:
    """b -> a^{in/d} b, c -> a^{im/d} c."""
    oq = make_Oq(p)
    return Morphism(
        oq,
        oq,
        {
            "a": oq.gen("a"),
            "b": oq.normal_form([("a", i * p.n // p.d), ("b", 1)]),
            "c": oq.normal_form([("a", i * p.m // p.d), ("c", 1)]),
        },
        name=f"xi_{i}",
    )


def zeta_Oq(p: AlgebraParams, z, z1, z2) -> Morphism:
    """Diagonal scaling a -> z a, b -> z1 b, c -> z2 c."""
    if not (z and z1 and z2):
        raise ConstraintViolation("zeta scalars must be nonzero")
    oq = make_Oq(p)
    return Morphism(
        oq,
        oq,
        {
            "a": oq.gen("a").scale(z),
            "b": oq.gen("b").scale(z1),
            "c": oq.gen("c").scale(z2),
        },
        name="zeta",
    )


# ---------------------------------------------------------------------------
# Dq families, extended through the torus (x) S factorization


def _extend_torus_S_map(p: AlgebraParams, K_img, a_img, s_images, name) -> Morphism:
    """The Dq map in one substitution: each generator, written in the torus (x) S
    model, gets K, a sent to K_img, a_img and the primed generators to s_images
    (the primed elements of Dq by default)."""
    dq, cache = make_Dq(p), {}
    images = {"K": K_img, "a": a_img, **primed_in_D(p).images, **s_images}
    out = {g: substitute(x, images, dq, cache) for g, x in _unprimed_images(p).items()}
    return Morphism(dq, dq, out, name=name)


def zeta_Dq(p: AlgebraParams, z1, z2) -> Morphism:
    """K -> z1 K, a -> z2 a, identity on the primed subalgebra."""
    if not (z1 and z2):
        raise ConstraintViolation("zeta scalars must be nonzero")
    dq = make_Dq(p)
    return _extend_torus_S_map(p, dq.gen("K").scale(z1), dq.gen("a").scale(z2), {}, "zeta")


def rho_Dq(p: AlgebraParams, A) -> Morphism:
    """K -> K^{A11} a^{A21}, a -> K^{A12} a^{A22}, identity on the primed part."""
    (a11, a12), (a21, a22) = A
    if a11 * a22 - a12 * a21 != 1:
        raise ConstraintViolation("rho_A requires A in SL2(Z)")
    dq = make_Dq(p)
    return _extend_torus_S_map(
        p,
        dq.normal_form([("K", a11), ("a", a21)]),
        dq.normal_form([("K", a12), ("a", a22)]),
        {},
        name="rho_A",
    )


def xi_Dq(p: AlgebraParams, z3, z4) -> Morphism:
    """E' -> z3 E', F' -> z4 F', c' -> z3^{-1} c', b' -> z4^{-1} b'; torus fixed."""
    if not (z3 and z4):
        raise ConstraintViolation("xi scalars must be nonzero")
    dq = make_Dq(p)
    scales = {"Ep": z3, "Fp": z4, "cp": inverse(z3), "bp": inverse(z4)}
    s_images = {g: img.scale(scales[g]) for g, img in primed_in_D(p).images.items()}
    return _extend_torus_S_map(p, dq.gen("K"), dq.gen("a"), s_images, name="xi")


def solve_zeta_twist(comp: Morphism, rho_ab: Morphism):
    """Scalars (z1, z2) with comp = rho_ab o zeta_{z1,z2}, read off the K and a
    images of the two maps (comp is rho_A o rho_B, rho_ab is rho_{AB})."""
    z1 = _single_coeff(comp.images["K"]) / _single_coeff(rho_ab.images["K"])
    z2 = _single_coeff(comp.images["a"]) / _single_coeff(rho_ab.images["a"])
    return z1, z2


def _matmul(A, B):
    return (
        (
            A[0][0] * B[0][0] + A[0][1] * B[1][0],
            A[0][0] * B[0][1] + A[0][1] * B[1][1],
        ),
        (
            A[1][0] * B[0][0] + A[1][1] * B[1][0],
            A[1][0] * B[0][1] + A[1][1] * B[1][1],
        ),
    )


def _single_coeff(el: Element):
    (mono, coeff), = el.terms.items()
    return QScalar(coeff)


# ---------------------------------------------------------------------------
# embeddings and isomorphisms


def embedding_Uq_into_Oq(p: AlgebraParams) -> Morphism:
    """The Hopf embedding K -> a^2, E -> a^m c, F -> b a^n.

    Source parameters are (m, -n); the target is Oq(m, n).
    """
    src = make_Uq(params(p.m, -p.n))
    tgt = make_Oq(p)
    return Morphism(
        src,
        tgt,
        {
            "K": tgt.gen("a", 2),
            "E": tgt.normal_form([("a", p.m), ("c", 1)]),
            "F": tgt.normal_form([("b", 1), ("a", p.n)]),
        },
        name="dual-embed",
    )


def iso_Uq_to_Oq(p: AlgebraParams) -> Morphism:
    """K -> a, E -> c, F -> b onto Oq with parameters (2m, -2n)."""
    src = make_Uq(p)
    tgt = make_Oq(params(2 * p.m, -2 * p.n))
    return Morphism(
        src,
        tgt,
        {"K": tgt.gen("a"), "E": tgt.gen("c"), "F": tgt.gen("b")},
        name="uq-to-oq",
    )


def iso_Oq_to_Uq(p: AlgebraParams) -> Morphism:
    """Inverse direction of iso_Uq_to_Oq."""
    src = make_Oq(params(2 * p.m, -2 * p.n))
    tgt = make_Uq(p)
    return Morphism(
        src,
        tgt,
        {"a": tgt.gen("K"), "c": tgt.gen("E"), "b": tgt.gen("F")},
        name="oq-to-uq",
    )


# ---------------------------------------------------------------------------
# CLI surface


# name -> (the one parameter it reads, or None; how many scalars, if any; the
# message when that parameter is missing or the wrong length; the builder)
_FAMILIES = {
    "tau": (None, None, None, lambda p, _: tau_Oq(p)),
    "xi": ("i", None, "xi needs an integer index i", xi_Oq),
    "zeta": ("scalars", 3, "zeta on Oq needs three scalars", lambda p, s: zeta_Oq(p, *s)),
    "zeta2": ("scalars", 2, "zeta on Dq needs two scalars", lambda p, s: zeta_Dq(p, *s)),
    "rho": ("matrix", None, "rho needs an SL2(Z) matrix", rho_Dq),
    "xi34": ("scalars", 2, "xi on Dq needs two scalars", lambda p, s: xi_Dq(p, *s)),
    "dual-embed": (None, None, None, lambda p, _: embedding_Uq_into_Oq(p)),
    "uq-to-oq": (None, None, None, lambda p, _: iso_Uq_to_Oq(p)),
}


def family(name: str, p: AlgebraParams, *, i=None, matrix=None, scalars=None) -> Morphism:
    if name not in _FAMILIES:
        raise ConstraintViolation(f"unknown family {name!r}")
    reads, count, needs, build = _FAMILIES[name]
    given = {"i": i, "matrix": matrix, "scalars": scalars}
    extra = [k for k, v in given.items() if v is not None and k != reads]
    if extra:
        raise ConstraintViolation(f"{name} takes no parameter {' or '.join(extra)}")
    value = given.get(reads)
    if reads and (value is None or count is not None and len(value) != count):
        raise ConstraintViolation(needs)
    return build(p, value)
