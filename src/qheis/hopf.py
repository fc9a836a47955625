"""Hopf structure on Oq and Uq, their dual pairing, and the smash product check.

The coproduct is an algebra map from A into its tensor square A (x) A and
the antipode an algebra anti-map of A; both are fixed on generators and
extended by the substitution routine of the rewriting engine.  The counit
is 1 on the group-like generators and 0 on the others.  The pairing is
derived from the non-vanishing letter pairs <K, a>, <E, c> and <F, b>, the
counits and the two coproducts through the laws of a Hopf pairing; every
unlisted letter pair is zero.  The action u.x = sum
x_(1) <u, x_(2)> makes Oq a module algebra, and reassembling
sum (u_(1).x) u_(2) inside Dq must reproduce the smash-product relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .errors import MismatchedParams
from .morphisms import Morphism, check_morphism, relation_failures
from .presets import AlgebraParams, make_Dq, make_Oq, make_Uq
from .qfield import ONE, ZERO, add_scaled, qpow
from .rewrite import Element, Presentation, substitute


@dataclass
class HopfStructure:
    """Coproduct, counit and antipode of one presentation A.

    `delta` is the coproduct as a Morphism from A to its tensor square,
    `s_images` maps each generator name to its antipode, and the counit is
    1 on the generators whose indices are in `group_like`, 0 on the others.
    """

    pres: Presentation
    delta: Morphism
    s_images: dict
    group_like: frozenset
    _halves: dict = field(default_factory=dict, init=False, repr=False)
    _monos: dict = field(default_factory=dict, init=False, repr=False)
    _s_pow: dict = field(default_factory=dict, init=False, repr=False)

    def coproduct(self, x: Element) -> Element:
        """Delta(x), an element of the tensor square of A."""
        return self.delta.apply(x)

    def split_coproduct(self, x: Element) -> dict:
        """Delta(x) as {(left, right): coeff} with left and right monomials of A."""
        out: dict = {}
        for mono, c in x.terms.items():
            add_scaled(out, self._delta_mono(mono), c)
        return out

    def _delta_mono(self, mono) -> dict:
        """Delta of one monomial of A, split in the middle of the exponent
        vectors of A (x) A (the first half is the first tensor factor) and
        kept, since the pairing asks for the same monomials again and again.
        The structure lives as long as A, so each distinct half is one
        tuple, shared through `_monos`."""
        halves = self._halves.get(mono)
        if halves is None:
            k = len(mono)
            monos = self._monos
            halves = {}
            for t, c in self.coproduct(self.pres.monomial(mono)).terms.items():
                left, right = t[:k], t[k:]
                halves[monos.setdefault(left, left), monos.setdefault(right, right)] = c
            self._halves[mono] = halves
        return halves

    def counit(self, x: Element):
        return sum((c * self.counit_mono(mono) for mono, c in x.terms.items()), ZERO)

    def counit_mono(self, mono):
        return (
            ONE
            if all(e == 0 or i in self.group_like for i, e in enumerate(mono))
            else ZERO
        )

    def antipode(self, x: Element) -> Element:
        return substitute(x, self.s_images, self.pres, self._s_pow, reverse=True)


def _hopf(pres: Presentation, group_like, delta: dict, antipode: dict) -> HopfStructure:
    """The Hopf structure with the given generator images of Delta and S;
    Delta sends each generator g named in `group_like` to g (x) g, and S
    sends it to g^-1.  It is kept on `pres` beside its tensor square, so
    that every caller shares its memo of monomial coproducts."""
    square = pres.tensor_square()
    for g in group_like:
        delta[g] = square.normal_form([(f"{g}(1)", 1), (f"{g}(2)", 1)])
        antipode[g] = pres.gen(g, -1)
    pres._hopf = HopfStructure(
        pres,
        Morphism(pres, square, delta, name="delta"),
        antipode,
        frozenset(pres.index[g] for g in group_like),
    )
    return pres._hopf


def hopf_Oq(p: AlgebraParams) -> HopfStructure:
    oq = make_Oq(p)
    if oq._hopf is not None:
        return oq._hopf
    tensor = oq.tensor_square().normal_form
    m, n = p.m, p.n
    delta = {
        "b": tensor([("b(1)", 1), ("a(2)", -n)]) + tensor([("a(1)", n), ("b(2)", 1)]),
        "c": tensor([("c(1)", 1), ("a(2)", m)]) + tensor([("a(1)", -m), ("c(2)", 1)]),
    }
    anti = {
        "b": oq.gen("b").scale(-qpow(-n * n)),
        "c": oq.gen("c").scale(-qpow(m * m)),
    }
    return _hopf(oq, ("a",), delta, anti)


def hopf_Uq(p: AlgebraParams) -> HopfStructure:
    uq = make_Uq(p)
    if uq._hopf is not None:
        return uq._hopf
    tensor = uq.tensor_square().normal_form
    m, n = p.m, p.n
    delta = {
        "E": tensor([("E(1)", 1), ("K(2)", m)]) + tensor([("E(2)", 1)]),
        "F": tensor([("F(1)", 1)]) + tensor([("K(1)", -n), ("F(2)", 1)]),
    }
    anti = {
        "E": uq.normal_form([("E", 1), ("K", -m)]).scale(-ONE),
        "F": uq.normal_form([("K", n), ("F", 1)]).scale(-ONE),
    }
    return _hopf(uq, ("K",), delta, anti)


@dataclass
class HopfReport:
    ok: bool
    samples: int
    relation_failures: list
    sample_failures: list


def check_hopf_axioms(h: HopfStructure, degree_bound=3, samples=100, seed=0) -> HopfReport:
    """Coassociativity, counit and antipode laws on seeded random elements,
    and the defining relations under Delta, S and eps: Delta must be an
    algebra map, S an anti-map and eps a character, each checked by
    `relation_failures` (S with the product of its factors swapped, eps
    with the scalar product)."""
    import random

    from .sampling import random_element

    pres = h.pres
    broken = [
        (law, name)
        for law, failures in (
            ("delta", check_morphism(h.delta).failures),
            ("antipode", relation_failures(pres, h.antipode, lambda x, y: y * x)),
            ("counit", relation_failures(pres, h.counit, mul)),
        )
        for name, _ in failures
    ]

    rng = random.Random(seed)
    sample_failures = []
    for k in range(samples):
        x = random_element(pres, rng, max_degree=degree_bound)
        dx = h.split_coproduct(x)
        # coassociativity
        left: dict = {}
        right: dict = {}
        for (m1, m2), c in dx.items():
            d1 = h._delta_mono(m1)
            add_scaled(left, {(a1, a2, m2): c2 for (a1, a2), c2 in d1.items()}, c)
            d2 = h._delta_mono(m2)
            add_scaled(right, {(m1, b1, b2): c2 for (b1, b2), c2 in d2.items()}, c)
        if left != right:
            sample_failures.append((k, "coassociativity"))
        # counit laws
        eps_id: dict = {}
        id_eps: dict = {}
        for (m1, m2), c in dx.items():
            add_scaled(eps_id, {m2: 1}, c * h.counit_mono(m1))
            add_scaled(id_eps, {m1: 1}, c * h.counit_mono(m2))
        if eps_id != x.terms or id_eps != x.terms:
            sample_failures.append((k, "counit"))
        # antipode law
        s_id: dict = {}
        id_s: dict = {}
        for (m1, m2), c in dx.items():
            mono1, mono2 = pres.monomial(m1), pres.monomial(m2)
            add_scaled(s_id, pres.multiply(h.antipode(mono1), mono2).terms, c)
            add_scaled(id_s, pres.multiply(mono1, h.antipode(mono2)).terms, c)
        target = pres.one().scale(h.counit(x)).terms
        if s_id != target or id_s != target:
            sample_failures.append((k, "antipode"))
    return HopfReport(not broken and not sample_failures, samples, broken, sample_failures)


class DualPairing:
    """The Hopf pairing Uq x Oq -> Q(q) and the induced module-algebra action."""

    def __init__(self, p: AlgebraParams):
        self.params = p
        self.uq = make_Uq(p)
        self.oq = make_Oq(p)
        self.hu = hopf_Uq(p)
        self.ho = hopf_Oq(p)
        self._memo = {}
        u = self.uq.index
        o = self.oq.index
        self._iF, self._iK, self._iE = u["F"], u["K"], u["E"]
        self._ic, self._ia, self._ib = o["c"], o["a"], o["b"]

    # -- base data -------------------------------------------------------------

    def _letter_table(self, gi, ge, xi, xe):
        """Pairing of single signed letters; unlisted pairs are zero."""
        if gi == self._iK:
            if xi == self._ia:
                return qpow(-ge * xe)
            return ZERO
        if gi == self._iE and ge == 1 and xi == self._ic and xe == 1:
            return ONE
        if gi == self._iF and ge == 1 and xi == self._ib and xe == 1:
            return ONE
        return ZERO

    @staticmethod
    def _split_first(mono):
        """(first signed letter, rest) with letter * rest == mono: the
        monomial is normal-ordered, so the product needs no rewriting."""
        i = next(i for i, e in enumerate(mono) if e)
        e = 1 if mono[i] > 0 else -1
        letter = [0] * len(mono)
        letter[i] = e
        rest = list(mono)
        rest[i] -= e
        return tuple(letter), tuple(rest)

    def _pair_mono(self, mu, mx):
        """<mu, mx> from the letter table, the counits and the laws
        <uv, x> = sum <u, x_(1)> <v, x_(2)> and <u, xy> = sum <u_(1), x> <u_(2), y>."""
        key = (mu, mx)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        nu = sum(abs(e) for e in mu)
        nx = sum(abs(e) for e in mx)
        if not nu:
            out = self.ho.counit_mono(mx)
        elif not nx:
            out = self.hu.counit_mono(mu)
        elif nu == 1 and nx == 1:
            gi = next(i for i, e in enumerate(mu) if e)
            xi = next(i for i, e in enumerate(mx) if e)
            out = self._letter_table(gi, mu[gi], xi, mx[xi])
        elif nu > 1:
            u, v = self._split_first(mu)
            out = ZERO
            for (x1, x2), c in self.ho._delta_mono(mx).items():
                left = self._pair_mono(u, x1)
                if left:
                    out = out + c * left * self._pair_mono(v, x2)
        else:
            x, y = self._split_first(mx)
            out = ZERO
            for (u1, u2), c in self.hu._delta_mono(mu).items():
                left = self._pair_mono(u1, x)
                if left:
                    out = out + c * left * self._pair_mono(u2, y)
        self._memo[key] = out
        return out

    def _check_operands(self, u, x):
        if u.pres.table.names != self.uq.table.names or x.pres.table.names != self.oq.table.names:
            raise MismatchedParams("pairing needs a Uq element and an Oq element")
        for el in (u, x):
            stamped = getattr(el.pres, "params", None)
            if stamped is not None and stamped != self.params:
                raise MismatchedParams(
                    f"element built for (m, n) = ({stamped.m}, {stamped.n}), "
                    f"pairing uses ({self.params.m}, {self.params.n})"
                )

    def pair(self, u: Element, x: Element):
        self._check_operands(u, x)
        total = ZERO
        for mu, cu in u.terms.items():
            for mx, cx in x.terms.items():
                v = self._pair_mono(mu, mx)
                if v:
                    total = total + cu * cx * v
        return total

    def act(self, u: Element, x: Element) -> Element:
        """u . x = sum x_(1) <u, x_(2)>, an element of Oq."""
        self._check_operands(u, x)
        out: dict = {}
        for mx, cx in x.terms.items():
            for (x1, x2), c in self.ho._delta_mono(mx).items():
                for mu, cu in u.terms.items():
                    v = self._pair_mono(mu, x2)
                    if v:
                        add_scaled(out, {x1: cx * c * cu * v})
        return Element(self.oq, out)

    # -- verification ----------------------------------------------------------

    def check_module_algebra(self, samples=100, seed=0):
        """u.(xy) = sum (u_(1).x)(u_(2).y) and (uv).x = u.(v.x) on seeded
        elements of degree at most 2."""
        import random

        from .sampling import random_element

        rng = random.Random(seed)
        failures = []
        for k in range(samples):
            u = random_element(self.uq, rng, max_degree=2, n_terms=2)
            x = random_element(self.oq, rng, max_degree=2, n_terms=2)
            y = random_element(self.oq, rng, max_degree=2, n_terms=2)
            lhs = self.act(u, self.oq.multiply(x, y))
            rhs: dict = {}
            for (u1, u2), c in self.hu.split_coproduct(u).items():
                acted = self.oq.multiply(
                    self.act(self.uq.monomial(u1), x),
                    self.act(self.uq.monomial(u2), y),
                )
                add_scaled(rhs, acted.terms, c)
            if lhs.terms != rhs:
                failures.append((k, "leibniz"))
            v = random_element(self.uq, rng, max_degree=2, n_terms=2)
            if self.act(self.uq.multiply(u, v), x) != self.act(u, self.act(v, x)):
                failures.append((k, "associativity"))
        return failures

    def check_smash(self):
        """Compare sum (u_(1).x) u_(2) with u*x in Dq for all generator pairs."""
        dq = make_Dq(self.params)
        results = []
        u_gens = [("K", 1), ("K", -1), ("E", 1), ("F", 1)]
        o_gens = [("a", 1), ("a", -1), ("b", 1), ("c", 1)]
        for uname, ue in u_gens:
            for xname, xe in o_gens:
                direct = dq.normal_form([(uname, ue), (xname, xe)])
                terms: dict = {}
                u_el = self.uq.gen(uname, ue)
                x_el = self.oq.gen(xname, xe)
                for (u1, u2), c in self.hu.split_coproduct(u_el).items():
                    acted = self.act(self.uq.monomial(u1), x_el)
                    for mo, co in acted.terms.items():
                        word = [
                            (self.oq.table.names[i], e) for i, e in enumerate(mo) if e
                        ] + [(self.uq.table.names[i], e) for i, e in enumerate(u2) if e]
                        add_scaled(terms, dq.normal_form(word).terms, c * co)
                rebuilt = Element(dq, terms)
                label_u = uname if ue == 1 else f"{uname}^{ue}"
                label_x = xname if xe == 1 else f"{xname}^{xe}"
                results.append(
                    {
                        "u": label_u,
                        "x": label_x,
                        "ok": rebuilt == direct,
                        "direct": str(direct),
                        "rebuilt": str(rebuilt),
                    }
                )
        return results
