"""Constructors for the quantum Euclidean group family of algebras.

Provides the coordinate Hopf algebra Oq, its dual Uq, the smash product Dq,
the inner subalgebra S on the primed generators (four admissible PBW
orders), quantum tori, the primed generating set realized inside Dq, and
the factorization of Dq through its torus part tensor S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from .errors import InadmissibleOrder, InvalidStructuralMatrix, ZeroParameter
from .qfield import ONE, QScalar, add_scaled, qpow
from .rewrite import Element, Presentation, substitute


@dataclass(frozen=True)
class AlgebraParams:
    """Integer parameters (m, n) with their gcd d = (|m|, |n|)."""

    m: int
    n: int
    d: int = field(init=False)

    def __post_init__(self):
        if self.m == 0 or self.n == 0:
            raise ZeroParameter("m and n must be nonzero")
        object.__setattr__(self, "d", gcd(abs(self.m), abs(self.n)))


def params(m: int, n: int) -> AlgebraParams:
    return AlgebraParams(m, n)


# Admissible S orders; in each, the last two generators act by scalars on
# the cyclic vector of the matching quotient-module family.
S_ORDERS = {
    "J1": ("Ep", "Fp", "bp", "cp"),
    "J2": ("cp", "Fp", "bp", "Ep"),
    "J3": ("Ep", "bp", "Fp", "cp"),
    "J4": ("bp", "cp", "Ep", "Fp"),
}


def _stamp(pres: Presentation, p: AlgebraParams) -> Presentation:
    pres.params = p
    return pres


def _oq_relations(p: AlgebraParams):
    m, n = p.m, p.n
    return [
        ("a", "b", qpow(n), []),      # a*b = q^n * b*a
        ("a", "c", qpow(m), []),      # a*c = q^m * c*a
        ("b", "c", ONE, []),          # b*c = c*b
    ]


def _uq_relations(p: AlgebraParams):
    m, n = p.m, p.n
    return [
        ("K", "E", qpow(2 * m), []),   # K*E = q^{2m} * E*K
        ("K", "F", qpow(-2 * n), []),  # K*F = q^{-2n} * F*K
        ("E", "F", ONE, []),           # E*F = F*E
    ]


@lru_cache(maxsize=None)
def make_Oq(p: AlgebraParams) -> Presentation:
    """Coordinate algebra on a^{+-1}, b, c with order (c, a, b)."""
    return _stamp(
        Presentation.from_relations(
            names=("c", "a", "b"),
            invertible=(False, True, False),
            degrees=(1, 0, 1),
            relations=_oq_relations(p),
        ),
        p,
    )


@lru_cache(maxsize=None)
def make_Uq(p: AlgebraParams) -> Presentation:
    """Dual algebra on K^{+-1}, E, F with order (F, K, E)."""
    return _stamp(
        Presentation.from_relations(
            names=("F", "K", "E"),
            invertible=(False, True, False),
            degrees=(1, 0, 1),
            relations=_uq_relations(p),
        ),
        p,
    )


@lru_cache(maxsize=None)
def make_Dq(p: AlgebraParams) -> Presentation:
    """Smash product on (F, c, K, a, E, b); all fifteen pairwise rules."""
    m, n = p.m, p.n
    return _stamp(Presentation.from_relations(
        names=("F", "c", "K", "a", "E", "b"),
        invertible=(False, False, True, True, False, False),
        degrees=(1, 1, 0, 0, 1, 1),
        relations=_oq_relations(p) + _uq_relations(p) + [
            ("K", "a", qpow(-1), []),
            ("K", "b", qpow(n), []),
            ("K", "c", qpow(-m), []),
            ("E", "a", ONE, []),
            ("E", "b", ONE, []),
            # E*c = c*E + a^{-m} K^m, tail normal-ordered as q^{-m^2} K^m a^{-m}
            ("E", "c", ONE, [(qpow(-m * m), [("K", m), ("a", -m)])]),
            ("F", "a", qpow(n), []),
            # F*b = q^{-n^2} b*F + a^n
            ("F", "b", qpow(-n * n), [(ONE, [("a", n)])]),
            ("F", "c", qpow(m * n), []),
        ],
    ), p)


# read by nothing in the package; the benchmark's cache reset
# (perfbench/workloads.py, reset_caches) still clears it, so it stays until
# the benchmark stops naming it
_S_RELATIONS_CACHE = {}


def _s_relations(p: AlgebraParams):
    m, n = p.m, p.n
    return [
        ("bp", "cp", qpow(2 * m * n), []),
        ("Ep", "bp", qpow(2 * m * n), []),
        ("Fp", "bp", qpow(-2 * n * n), [(ONE, [])]),   # F'b' = q^{-2n^2} b'F' + 1
        ("Ep", "cp", qpow(2 * m * m), [(ONE, [])]),    # E'c' = q^{2m^2} c'E' + 1
        ("Fp", "cp", qpow(-2 * m * n), []),
        ("Ep", "Fp", qpow(-2 * m * n), []),
    ]


@lru_cache(maxsize=None)
def _S_presentation(p: AlgebraParams, order=S_ORDERS["J1"]) -> Presentation:
    if order not in S_ORDERS.values():
        raise InadmissibleOrder(f"order {order} is not one of the admissible four")
    return _stamp(
        Presentation.from_relations(
            names=order,
            invertible=(False,) * 4,
            degrees=(1,) * 4,
            relations=_s_relations(p),
        ),
        p,
    )


def make_S(p: AlgebraParams, order=S_ORDERS["J1"]) -> Presentation:
    """Subalgebra on the primed generators for one of the admissible orders:
    one presentation per (p, order), whether the order is left to its
    default, passed by position or passed by keyword."""
    return _S_presentation(p, tuple(order))


# the cache of make_S, reached as on the other presets
make_S.cache_clear = _S_presentation.cache_clear
make_S.cache_info = _S_presentation.cache_info
make_S.__wrapped__ = _S_presentation.__wrapped__


def make_quantum_torus(names, qmatrix) -> Presentation:
    """Torus on invertible generators: g_i * g_j = Q[i][j] * g_j * g_i."""
    k = len(names)
    if len(qmatrix) != k or any(len(row) != k for row in qmatrix):
        raise InvalidStructuralMatrix("matrix shape does not match generators")
    for i in range(k):
        if not (isinstance(qmatrix[i][i], QScalar) and qmatrix[i][i].is_one()):
            raise InvalidStructuralMatrix("diagonal entries must be 1")
        for j in range(k):
            e = qmatrix[i][j]
            if not (isinstance(e, QScalar) and e.is_q_power()):
                raise InvalidStructuralMatrix("entries must be powers of q")
            if not (e * qmatrix[j][i]).is_one():
                raise InvalidStructuralMatrix("matrix is not multiplicatively antisymmetric")
    relations = [
        (names[i], names[j], qmatrix[i][j], [])
        for i in range(k)
        for j in range(k)
        if i > j
    ]
    return Presentation.from_relations(
        names=tuple(names),
        invertible=(True,) * k,
        degrees=(1,) * k,
        relations=relations,
    )


@lru_cache(maxsize=None)
def make_D_split(p: AlgebraParams) -> Presentation:
    """Torus-times-S model of Dq on (K, a, Ep, Fp, bp, cp)."""
    relations = [("K", "a", qpow(-1), [])]
    for t in ("K", "a"):
        for s in ("Ep", "Fp", "bp", "cp"):
            relations.append((t, s, ONE, []))
    relations += _s_relations(p)
    return _stamp(
        Presentation.from_relations(
            names=("K", "a", "Ep", "Fp", "bp", "cp"),
            invertible=(True, True, False, False, False, False),
            degrees=(0, 0, 1, 1, 1, 1),
            relations=relations,
        ),
        p,
    )


@dataclass(frozen=True)
class PrimedSet:
    """The primed generating set of Dq, in Dq normal form."""

    bP: Element
    cP: Element
    eP: Element
    fP: Element
    phi1: Element
    phi2: Element

    @property
    def images(self) -> dict:
        """The embedding S -> Dq: each primed generator name to its element."""
        return {"Ep": self.eP, "Fp": self.fP, "bp": self.bP, "cp": self.cP}


@lru_cache(maxsize=None)
def primed_in_D(p: AlgebraParams) -> PrimedSet:
    m, n = p.m, p.n
    dq = make_Dq(p)
    bP = dq.normal_form([("a", n), ("b", 1), ("K", -n)])
    cP = dq.normal_form([("a", -m), ("c", 1), ("K", -m)])
    eP = dq.normal_form([("a", 2 * m), ("E", 1)])
    fP = dq.normal_form([("a", -2 * n), ("F", 1), ("K", n)]).scale(qpow(-n * n))
    phi1 = dq.commutator(eP, cP)
    phi2 = dq.commutator(fP, bP)
    return PrimedSet(bP, cP, eP, fP, phi1, phi2)


# ---------------------------------------------------------------------------
# D ~= D^0 (x) S factorization


@lru_cache(maxsize=None)
def _unprimed_images(p: AlgebraParams):
    """Dq generators written in the split model (K, a, primed)."""
    m, n = p.m, p.n
    ds = make_D_split(p)
    return {
        "K": ds.gen("K"),
        "a": ds.gen("a"),
        "E": ds.normal_form([("a", -2 * m), ("Ep", 1)]),
        "F": ds.normal_form([("K", -n), ("a", 2 * n), ("Fp", 1)]).scale(qpow(-n * n)),
        "b": ds.normal_form([("K", n), ("a", -n), ("bp", 1)]).scale(qpow(-n * n)),
        "c": ds.normal_form([("K", m), ("a", m), ("cp", 1)]).scale(qpow(m * m)),
    }


def factorize_D(p: AlgebraParams, x: Element):
    """Write x in Dq as a sum of (K^k a^l) * s with s in S (J1 order).

    Returns a sorted list of ((k, l), Element over make_S(p)) pairs.
    Substituting the primed generators back and normal-forming in Dq
    reproduces x exactly (see recombine_D).
    """
    split = substitute(x, _unprimed_images(p), make_D_split(p))
    # a split monomial is (K, a) exponents then S exponents, and no two
    # monomials share both parts, so each coefficient is read off as it is
    parts: dict = {}
    for mono, coeff in split.terms.items():
        parts.setdefault(mono[:2], {})[mono[2:]] = coeff
    spres = make_S(p)
    return [(key, Element(spres, parts[key])) for key in sorted(parts)]


def recombine_D(p: AlgebraParams, parts) -> Element:
    """Inverse of factorize_D: substitute primed generators back into Dq."""
    dq = make_Dq(p)
    images = primed_in_D(p).images
    cache: dict = {}
    acc: dict = {}
    for (k, l), s_el in parts:
        torus = dq.normal_form([("K", k), ("a", l)])
        add_scaled(acc, dq.multiply(torus, substitute(s_el, images, dq, cache)).terms)
    return Element(dq, acc)


def torus_of_S_quotient(p: AlgebraParams) -> Presentation:
    """The two-generator quantum torus carrying the S/(phi1, phi2) quotient."""
    one = qpow(0)
    return make_quantum_torus(
        ("Ep", "Fp"),
        (
            (one, qpow(-2 * p.m * p.n)),
            (qpow(2 * p.m * p.n), one),
        ),
    )


def structural_matrix_S(p: AlgebraParams):
    """4x4 torus matrix on (phi1, cp, bp, phi2) used by the localization model."""
    m, n = p.m, p.n
    one = qpow(0)
    return (
        (one, qpow(2 * m * m), one, one),
        (qpow(-2 * m * m), one, qpow(-2 * m * n), one),
        (one, qpow(2 * m * n), one, qpow(2 * n * n)),
        (one, one, qpow(-2 * n * n), one),
    )
