"""Hopf structure on Oq and Uq, their dual pairing, and the smash product check.

The coproduct, counit and antipode are fixed on generators and extended
multiplicatively (anti-multiplicatively for the antipode).  The pairing is
derived from the non-vanishing letter pairs <K, a>, <E, c> and <F, b>, the
counits and the two coproducts through the laws of a Hopf pairing; every
unlisted letter pair is zero.  The action u.x = sum
x_(1) <u, x_(2)> makes Oq a module algebra, and reassembling
sum (u_(1).x) u_(2) inside Dq must reproduce the smash-product relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MismatchedParams, NegativePowerOfNonInvertible
from .presets import AlgebraParams, make_Dq, make_Oq, make_Uq
from .qfield import ONE, ZERO, add_scaled, qpow
from .rewrite import Element, Presentation


class TensorElement:
    """Finite sum of monomial pairs over one presentation, exact coefficients."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def unit(cls, pres):
        u = tuple([0] * len(pres.table.names))
        return cls(pres, {(u, u): 1})

    @classmethod
    def outer(cls, x: Element, y: Element) -> "TensorElement":
        """x (x) y for two elements of one presentation."""
        return cls(
            x.pres,
            {(ml, mr): cl * cr for ml, cl in x.terms.items() for mr, cr in y.terms.items()},
        )

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.pres.table.names == other.pres.table.names and self.terms == other.terms

    def __add__(self, other):
        return TensorElement(self.pres, add_scaled(dict(self.terms), other.terms))

    def __mul__(self, other):
        """Componentwise product, each factor normal-formed independently."""
        if not isinstance(other, TensorElement):
            return NotImplemented
        pres = self.pres
        out: dict = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                left = pres.multiply(pres.monomial(l1), pres.monomial(l2))
                right = pres.multiply(pres.monomial(r1), pres.monomial(r2))
                add_scaled(out, TensorElement.outer(left, right).terms, c1 * c2)
        return TensorElement(pres, out)

    def __str__(self):
        if not self.terms:
            return "0"
        pres = self.pres
        bits = []
        for (ml, mr) in sorted(
            self.terms, key=lambda k: (pres.term_sort_key(k[0]), pres.term_sort_key(k[1]))
        ):
            c = self.terms[(ml, mr)]
            lt = pres.render_monomial(ml) or "1"
            rt = pres.render_monomial(mr) or "1"
            coeff = "" if c == 1 else f"{c} * "
            bits.append(f"{coeff}({lt}) (*) ({rt})")
        return " + ".join(bits)

    def __repr__(self):
        return f"<{self}>"


@dataclass
class HopfStructure:
    """Coproduct, counit and antipode data over one presentation."""

    pres: Presentation
    group_like: frozenset            # indices of group-like generators (a or K)
    delta_gen: dict                  # index -> TensorElement
    s_gen: dict                      # index -> Element
    _delta_cache: dict = field(default_factory=dict)
    _delta_pow: dict = field(default_factory=dict)
    _s_pow: dict = field(default_factory=dict)

    def _gen_mono(self, i, e):
        mono = [0] * len(self.pres.table.names)
        mono[i] = e
        return tuple(mono)

    def coproduct(self, x: Element) -> TensorElement:
        out: dict = {}
        for mono, c in x.terms.items():
            add_scaled(out, self._delta_mono(mono).terms, c)
        return TensorElement(self.pres, out)

    def _delta_mono(self, mono) -> TensorElement:
        cached = self._delta_cache.get(mono)
        if cached is not None:
            return cached
        acc = TensorElement.unit(self.pres)
        for i, e in enumerate(mono):
            if not e:
                continue
            acc = acc * self._delta_pow_of(i, e)
        self._delta_cache[mono] = acc
        return acc

    def _delta_pow_of(self, i, e) -> TensorElement:
        key = (i, e)
        cached = self._delta_pow.get(key)
        if cached is not None:
            return cached
        if i in self.group_like:
            g = self._gen_mono(i, e)
            out = TensorElement(self.pres, {(g, g): 1})
        else:
            if e < 0:
                raise NegativePowerOfNonInvertible(self.pres.table.names[i])
            out = TensorElement.unit(self.pres)
            base = self.delta_gen[i]
            for _ in range(e):
                out = out * base
        self._delta_pow[key] = out
        return out

    def counit(self, x: Element):
        return sum((c * self.counit_mono(mono) for mono, c in x.terms.items()), ZERO)

    def counit_mono(self, mono):
        return (
            ONE
            if all(e == 0 or i in self.group_like for i, e in enumerate(mono))
            else ZERO
        )

    def antipode(self, x: Element) -> Element:
        out: dict = {}
        for mono, c in x.terms.items():
            acc = self.pres.one()
            for i, e in reversed(list(enumerate(mono))):
                if not e:
                    continue
                acc = self.pres.multiply(acc, self._s_pow_of(i, e))
            add_scaled(out, acc.terms, c)
        return Element(self.pres, out)

    def _s_pow_of(self, i, e) -> Element:
        key = (i, e)
        cached = self._s_pow.get(key)
        if cached is not None:
            return cached
        if i in self.group_like:
            out = self.pres.monomial(self._gen_mono(i, -e))
        else:
            out = self.pres.power(self.s_gen[i], e)
        self._s_pow[key] = out
        return out


def hopf_Oq(p: AlgebraParams) -> HopfStructure:
    oq = make_Oq(p)
    m, n = p.m, p.n
    ic, ia, ib = oq.index["c"], oq.index["a"], oq.index["b"]
    b, c = oq.gen("b"), oq.gen("c")
    outer = TensorElement.outer
    delta = {
        ib: outer(b, oq.gen("a", -n)) + outer(oq.gen("a", n), b),
        ic: outer(c, oq.gen("a", m)) + outer(oq.gen("a", -m), c),
    }
    anti = {
        ib: b.scale(-qpow(-n * n)),
        ic: c.scale(-qpow(m * m)),
    }
    return HopfStructure(oq, frozenset({ia}), delta, anti)


def hopf_Uq(p: AlgebraParams) -> HopfStructure:
    uq = make_Uq(p)
    m, n = p.m, p.n
    iF, iK, iE = uq.index["F"], uq.index["K"], uq.index["E"]
    E, F, one = uq.gen("E"), uq.gen("F"), uq.one()
    outer = TensorElement.outer
    delta = {
        iE: outer(E, uq.gen("K", m)) + outer(one, E),
        iF: outer(F, one) + outer(uq.gen("K", -n), F),
    }
    anti = {
        iE: uq.normal_form([("E", 1), ("K", -m)]).scale(-ONE),
        iF: uq.normal_form([("K", n), ("F", 1)]).scale(-ONE),
    }
    return HopfStructure(uq, frozenset({iK}), delta, anti)


@dataclass
class HopfReport:
    ok: bool
    samples: int
    relation_failures: list
    sample_failures: list


def check_hopf_axioms(h: HopfStructure, degree_bound=3, samples=100, seed=0) -> HopfReport:
    """Coassociativity, counit and antipode laws on seeded random elements,
    plus preservation of every defining relation by Delta, eps and S."""
    import random

    from .sampling import random_element

    pres = h.pres
    relation_failures = []
    for (li, ei), rule in pres.rules.items():
        L = pres.gen(pres.table.names[li])
        E = pres.gen(pres.table.names[ei])
        rel_lhs = pres.multiply(L, E)
        rel_rhs = pres.multiply(E, L).scale(rule.swap) + Element(pres, dict(rule.tail))
        name = f"{pres.table.names[li]}*{pres.table.names[ei]}"
        if h.coproduct(rel_lhs) != h.coproduct(rel_rhs):
            relation_failures.append(("delta", name))
        if h.antipode(rel_lhs) != h.antipode(rel_rhs):
            relation_failures.append(("antipode", name))
        if h.counit(rel_lhs) != h.counit(rel_rhs):
            relation_failures.append(("counit", name))

    rng = random.Random(seed)
    sample_failures = []
    unit_mono = tuple([0] * len(pres.table.names))
    for k in range(samples):
        x = random_element(pres, rng, max_degree=degree_bound)
        dx = h.coproduct(x)
        # coassociativity
        left: dict = {}
        right: dict = {}
        for (m1, m2), c in dx.terms.items():
            d1 = h._delta_mono(m1).terms
            add_scaled(left, {(a1, a2, m2): c2 for (a1, a2), c2 in d1.items()}, c)
            d2 = h._delta_mono(m2).terms
            add_scaled(right, {(m1, b1, b2): c2 for (b1, b2), c2 in d2.items()}, c)
        if left != right:
            sample_failures.append((k, "coassociativity"))
        # counit laws
        eps_id: dict = {}
        id_eps: dict = {}
        for (m1, m2), c in dx.terms.items():
            add_scaled(eps_id, {m2: 1}, c * h.counit_mono(m1))
            add_scaled(id_eps, {m1: 1}, c * h.counit_mono(m2))
        if eps_id != x.terms or id_eps != x.terms:
            sample_failures.append((k, "counit"))
        # antipode law
        s_id: dict = {}
        id_s: dict = {}
        for (m1, m2), c in dx.terms.items():
            mono1, mono2 = pres.monomial(m1), pres.monomial(m2)
            add_scaled(s_id, pres.multiply(h.antipode(mono1), mono2).terms, c)
            add_scaled(id_s, pres.multiply(mono1, h.antipode(mono2)).terms, c)
        target = pres.one().scale(h.counit(x)).terms
        if s_id != target or id_s != target:
            sample_failures.append((k, "antipode"))
    return HopfReport(
        not relation_failures and not sample_failures,
        samples,
        relation_failures,
        sample_failures,
    )


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
    def _mono_from_letters(letters, width):
        mono = [0] * width
        for i, e in letters:
            mono[i] += e
        return tuple(mono)

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
            for (x1, x2), c in self.ho._delta_mono(mx).terms.items():
                left = self._pair_mono(u, x1)
                if left:
                    out = out + c * left * self._pair_mono(v, x2)
        else:
            x, y = self._split_first(mx)
            out = ZERO
            for (u1, u2), c in self.hu._delta_mono(mu).terms.items():
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
            for (x1, x2), c in self.ho._delta_mono(mx).terms.items():
                for mu, cu in u.terms.items():
                    v = self._pair_mono(mu, x2)
                    if v:
                        add_scaled(out, {x1: cx * c * cu * v})
        return Element(self.oq, out)

    # -- verification ----------------------------------------------------------

    def check_module_algebra(self, samples=100, seed=0, degree_bound=2):
        """u.(xy) = sum (u_(1).x)(u_(2).y) and (uv).x = u.(v.x) on seeded data."""
        import random

        from .sampling import random_element

        rng = random.Random(seed)
        failures = []
        for k in range(samples):
            u = random_element(self.uq, rng, max_degree=degree_bound, n_terms=2)
            x = random_element(self.oq, rng, max_degree=degree_bound, n_terms=2)
            y = random_element(self.oq, rng, max_degree=degree_bound, n_terms=2)
            lhs = self.act(u, self.oq.multiply(x, y))
            rhs: dict = {}
            for (u1, u2), c in self.hu.coproduct(u).terms.items():
                acted = self.oq.multiply(
                    self.act(self.uq.monomial(u1), x),
                    self.act(self.uq.monomial(u2), y),
                )
                add_scaled(rhs, acted.terms, c)
            if lhs.terms != rhs:
                failures.append((k, "leibniz"))
            v = random_element(self.uq, rng, max_degree=degree_bound, n_terms=2)
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
                for (u1, u2), c in self.hu.coproduct(u_el).terms.items():
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
