"""Degree-truncated ideal spans in S, membership and containment probes,
the prime-spectrum catalog, the monomial-avoidance probe, and the quantum
torus quotient of S by both commutator ideals.

Spans are exact linear subspaces: starting from the generators, the span
is closed under left and right multiplication by generators as long as the
product stays inside the degree-bound filtration, with a deterministic
row-echelon basis.  That span is the least subspace holding the generators
and closed under those products, whatever the order of insertion, so a span
can grow from a closed one: `extend` shares its rows and closes only the
pivots the new generators add.  The catalog grows I3 and J2(z) from I1 and
J1(z) from I2, so I1 in I3, I1 in J2(z) and I2 in J1(z) hold by
construction.  Membership is a semi-decision: Verified is a true
certificate, NotDetected only means not found at this bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BoundMismatch, DegreeTooSmall
from .presets import AlgebraParams, make_S, torus_of_S_quotient
from .qfield import ONE, ZERO, QScalar, add_scaled, inverse, qpow
from .rewrite import Element, Presentation


class Echelon:
    """Row-echelon form of sparse rows {key: coeff}, grown one row at a time.

    Each row is monic and stored under its lead, the key that is largest
    under `key`.  The value of `key` is kept for each distinct term the
    echelon has seen.
    """

    def __init__(self, key):
        self.key = key
        self.rows: dict = {}
        self.order: list = []
        self._keys: dict = {}

    def reduce(self, terms, steps=None) -> dict:
        """Remainder of `terms` after cancelling every lead that has a row;
        stops at the first lead without one.  Each cancellation appends
        (factor, lead) to `steps`."""
        return self._reduce(terms, steps)[0]

    def _reduce(self, terms, steps):
        """(remainder, its lead), the lead None when the remainder is 0.

        Subtracting factor * row deletes the lead outright (rows are monic)
        and, at every other key of the row, compares with w = factor * v
        before subtracting: a key whose coefficient equals w is dropped
        without computing the zero."""
        terms = dict(terms)
        keys = self._keys
        for m in terms:
            if m not in keys:
                keys[m] = self.key(m)
        key_of = keys.__getitem__
        rows = self.rows
        while terms:
            lead = max(terms, key=key_of)
            row = rows.get(lead)
            if row is None:
                return terms, lead
            factor = terms.pop(lead)
            for m, v in row.items():
                if m == lead:
                    continue
                w = factor * v
                prev = terms.get(m)
                if prev is None:
                    terms[m] = -w
                elif prev == w:
                    del terms[m]
                else:
                    terms[m] = prev - w
            if steps is not None:
                steps.append((factor, lead))
        return terms, None

    def insert(self, terms, steps=None):
        """Add the remainder of `terms` as a new row; (lead, leading
        coefficient before normalization), or None when it reduces to 0.
        The reduction steps go to `steps` as in `reduce`."""
        rem, lead = self._reduce(terms, steps)
        if not rem:
            return None
        lc = rem[lead]
        inv = inverse(lc)
        self.rows[lead] = {m: c * inv for m, c in rem.items()}
        self.order.append(lead)
        return lead, lc

    def copy(self):
        """An echelon with the same rows, pivot order and key memo.  The row
        dicts are shared: a row never changes after its insert."""
        new = type(self)(self.key)
        new.rows = dict(self.rows)
        new.order = list(self.order)
        new._keys = dict(self._keys)
        return new


class TruncatedIdeal:
    """Row-echelon span of a two-sided (or left) ideal inside a degree bound.

    With a `base` span of the same presentation, side and bound, the new
    span starts from the base's closed rows and closes only the pivots
    that `generators` add; its generators are the base's, then these."""

    def __init__(self, spres: Presentation, generators, side, degree_bound, base=None):
        if base is not None and (
            base.spres is not spres or (base.side, base.degree_bound) != (side, degree_bound)
        ):
            raise BoundMismatch(
                "an extension needs the presentation, side and degree bound of its base"
            )
        self.spres = spres
        new = [spres.normal_form(g) for g in generators]
        self.generators = (base.generators if base else []) + new
        self.side = side
        self.degree_bound = degree_bound
        self.echelon = base.echelon.copy() if base else Echelon(spres.term_key)
        # provenance: pivot lead -> (move, lead coeff before normalization,
        # reduction steps at insert); a move is ("gen", idx) or
        # ("left"/"right", gen_index, parent_lead)
        self._moves: dict = dict(base._moves) if base else {}
        self._combos = None
        self._build(len(self.generators) - len(new))

    def extend(self, generators) -> TruncatedIdeal:
        """The span of this ideal's generators and `generators`, grown from
        this closed span: the least subspace closed under the products
        within the bound does not depend on the order of insertion."""
        return type(self)(self.spres, generators, self.side, self.degree_bound, base=self)

    def _insert(self, terms, move):
        steps = []
        got = self.echelon.insert(terms, steps)
        if got is None:
            return None
        lead, lc = got
        self._moves[lead] = (move, lc, tuple(steps))
        return lead

    def _build(self, first):
        """Insert the generators from index `first` on and close the pivots
        they create; the earlier pivots are closed already."""
        D = self.degree_bound
        new = self.generators[first:]
        for g in new:
            if g and g.degree() > D:
                raise DegreeTooSmall(
                    f"degree bound {D} is below a generator of degree {g.degree()}"
                )
        queue = []
        for idx, g in enumerate(new, first):
            if not g:
                continue
            lead = self._insert(g.terms, ("gen", idx))
            if lead is not None:
                queue.append(lead)
        self._close(queue)

    def _close(self, queue):
        """Insert every product of a queued pivot with a generator inside
        the bound, queueing the pivots that creates, until none is left."""
        D = self.degree_bound
        sides = ("left",) if self.side == "left" else ("left", "right")
        spres = self.spres
        table = spres.table
        gens = [spres.gen(name) for name in table.names]
        # deg(g*x) = deg g + deg x, so a product past the bound need not be
        # computed, when the associated graded ring is a q-skew polynomial
        # ring (a domain): tails lower the degree, no swap is zero, and every
        # invertible generator has degree 0 (in a torus, x*x^-1 = 1).
        additive = all(rule.swap for rule in spres.rules.values()) and not any(
            inv and d for inv, d in zip(table.invertible, table.degrees)
        )
        pos = 0
        while pos < len(queue):
            lead = queue[pos]
            pos += 1
            row = Element(spres, dict(self.echelon.rows[lead]))
            room = D - spres.degree_of(lead)
            for gi, g in enumerate(gens):
                if additive and table.degrees[gi] > room:
                    continue
                for side in sides:
                    prod = (
                        spres.multiply(g, row) if side == "left" else spres.multiply(row, g)
                    )
                    if not prod or (not additive and prod.degree() > D):
                        continue
                    new_lead = self._insert(prod.terms, (side, gi, lead))
                    if new_lead is not None:
                        queue.append(new_lead)

    # -- queries ---------------------------------------------------------------

    @property
    def dimension(self):
        return len(self.echelon.rows)

    def basis(self):
        rows = self.echelon.rows
        return [
            Element(self.spres, dict(rows[lead]))
            for lead in sorted(self.echelon.order, key=self.spres.term_key)
        ]

    def member(self, x: Element) -> str:
        """'Verified' when x lies in the span, else 'NotDetected'."""
        x = self.spres.normal_form(x)
        if x.degree() > self.degree_bound:
            raise DegreeTooSmall(
                f"element degree {x.degree()} exceeds bound {self.degree_bound}"
            )
        return "Verified" if not self.echelon.reduce(x.terms) else "NotDetected"

    # -- certificates -------------------------------------------------------------

    def _combo_of_pivots(self):
        """Each pivot as a combination {(m1, gen_idx, m2): coeff}, rebuilt
        deterministically from the recorded moves and insert-time steps."""
        if self._combos is not None:
            return self._combos
        spres = self.spres
        unit = tuple([0] * len(spres.table.names))
        combos: dict = {}
        for lead in self.echelon.order:
            move, lc, steps = self._moves[lead]
            if move[0] == "gen":
                combo = {(unit, move[1], unit): ONE}
            else:
                side, gi, parent = move
                left = side == "left"
                g_el = spres.gen(spres.table.names[gi])
                combo = {}
                for (m1, idx, m2), c in combos[parent].items():
                    if left:
                        expanded = spres.multiply(g_el, spres.monomial(m1))
                    else:
                        expanded = spres.multiply(spres.monomial(m2), g_el)
                    for mm, cc in expanded.terms.items():
                        key = (mm, idx, m2) if left else (m1, idx, mm)
                        combo[key] = combo.get(key, ZERO) + c * cc
                combo = {k: v for k, v in combo.items() if v}
            # the row is (product - sum factor * earlier row) / lc
            for factor, rlead in steps:
                add_scaled(combo, combos[rlead], -factor)
            inv = inverse(lc)
            combos[lead] = {k: c * inv for k, c in combo.items()}
        self._combos = combos
        return combos

    def certificate(self, x: Element):
        """Combination [(coeff, m1, gen_index, m2), ...] with
        sum coeff * m1 * gen * m2 == x, or None when not in the span."""
        x = self.spres.normal_form(x)
        combos = self._combo_of_pivots()
        steps = []
        if self.echelon.reduce(x.terms, steps):
            return None
        out: dict = {}
        for factor, lead in steps:
            add_scaled(out, combos[lead], factor)
        return [(c, m1, idx, m2) for (m1, idx, m2), c in out.items()]

    def replay_certificate(self, cert) -> Element:
        """sum coeff * m1 * gen * m2 over the certificate."""
        spres = self.spres
        acc: dict = {}
        for c, m1, idx, m2 in cert:
            word = spres.multiply(
                spres.multiply(spres.monomial(m1), self.generators[idx]),
                spres.monomial(m2),
            )
            add_scaled(acc, word.terms, c)
        return Element(spres, acc)


def ideal_span(spres, generators, side="twoSided", degree_bound=8) -> TruncatedIdeal:
    if side not in ("left", "twoSided"):
        raise ValueError("side must be 'left' or 'twoSided'")
    return TruncatedIdeal(spres, generators, side, degree_bound)


def member(ideal: TruncatedIdeal, x: Element) -> str:
    return ideal.member(x)


@dataclass
class ContainmentReport:
    status: str                 # "Contained" | "NotDetectedAtBound"
    witness: object = None


def containment_probe(small: TruncatedIdeal, big: TruncatedIdeal) -> ContainmentReport:
    """Check every basis element of `small` for membership in `big`."""
    if small.degree_bound != big.degree_bound:
        raise BoundMismatch("containment probe needs equal degree bounds")
    if small.spres.table.names != big.spres.table.names:
        raise BoundMismatch("containment probe needs the same algebra")
    for row in small.basis():
        if big.member(row) != "Verified":
            return ContainmentReport("NotDetectedAtBound", witness=row)
    return ContainmentReport("Contained")


@dataclass
class AvoidanceReport:
    clean: bool
    checked: list
    detected: list


def monomial_avoidance_probe(ideal: TruncatedIdeal, degree_bound) -> AvoidanceReport:
    """No pure monomial in bp, cp of degree at most `degree_bound` may lie
    in a prime ideal's span; a detection demonstrates a non-prime input."""
    spres = ideal.spres
    ib, ic = spres.index["bp"], spres.index["cp"]
    checked = []
    detected = []
    for i in range(degree_bound + 1):
        for j in range(degree_bound + 1 - i):
            mono = [0] * len(spres.table.names)
            mono[ib], mono[ic] = i, j
            el = spres.monomial(tuple(mono))
            checked.append((i, j))
            if ideal.member(el) == "Verified":
                detected.append((i, j))
    return AvoidanceReport(not detected, checked, detected)


# ---------------------------------------------------------------------------
# the catalog of Spec(S)


def phi_elements(spres: Presentation):
    phi1 = spres.commutator(spres.gen("Ep"), spres.gen("cp"))
    phi2 = spres.commutator(spres.gen("Fp"), spres.gen("bp"))
    return phi1, phi2


@dataclass
class SpecCatalog:
    params: AlgebraParams
    degree_bound: int
    z_samples: tuple
    spres: Presentation = field(repr=False)
    ideals: dict = field(repr=False)

    def named(self):
        return sorted(self.ideals)


def catalog_generators(spres: Presentation, p: AlgebraParams, z_samples) -> dict:
    """Generators of each catalog ideal by name, in catalog order: 0, I1,
    I2, I3, then J1(z) and J2(z) for each z of `z_samples`."""
    phi1, phi2 = phi_elements(spres)
    mh = abs(p.m) // p.d
    nh = abs(p.n) // p.d
    gens = {"0": [], "I1": [phi1], "I2": [phi2], "I3": [phi1, phi2]}
    for z in z_samples:
        if p.m * p.n > 0:
            g1 = spres.power(phi1, nh) - spres.power(spres.gen("bp"), mh).scale(z)
            g2 = spres.power(phi2, mh) - spres.power(spres.gen("cp"), nh).scale(z)
        else:
            g1 = spres.power(phi1, nh) - spres.power(spres.gen("Fp"), mh).scale(z)
            g2 = spres.power(phi2, mh) - spres.power(spres.gen("Ep"), nh).scale(z)
        ztext = str(z)
        gens[f"J1({ztext})"] = [g1, phi2]
        gens[f"J2({ztext})"] = [phi1, g2]
    return gens


def build_spec_catalog(
    p: AlgebraParams, degree_bound=8, z_samples=None, spres=None
) -> SpecCatalog:
    if z_samples is None:
        z_samples = (ONE, qpow(1), QScalar(-2))
    spres = spres or make_S(p)
    gens = catalog_generators(spres, p, z_samples)
    ideals = {}
    for name, g in gens.items():
        # I3 = (phi1, phi2) and J2(z) = (phi1, g2) grow from the closed span
        # of I1, J1(z) = (g1, phi2) from that of I2, base generators first
        if name == "I3" or name.startswith("J2("):
            ideals[name] = ideals["I1"].extend(g[1:])
        elif name.startswith("J1("):
            ideals[name] = ideals["I2"].extend(g[:1])
        else:
            ideals[name] = ideal_span(spres, g, degree_bound=degree_bound)
    return SpecCatalog(p, degree_bound, tuple(z_samples), spres, ideals)


def spec_diagram(catalog: SpecCatalog):
    """Containment edges of the catalog as {from, to, status} records.

    Edges below the commutator ideals follow the displayed containment
    diagram; the outer edges between the z-families and I1/I2 are probed
    and reported without being asserted (documented inconsistency between
    the diagram and the monomial-avoidance statement).
    """
    edges = []
    names = catalog.named()
    j1s = [n for n in names if n.startswith("J1(")]
    j2s = [n for n in names if n.startswith("J2(")]
    pairs = [("0", "I1"), ("0", "I2"), ("I1", "I3"), ("I2", "I3")]
    pairs += [("I2", j) for j in j1s]
    pairs += [("I1", j) for j in j2s]
    pairs += [("I1", j) for j in j1s]
    pairs += [("I2", j) for j in j2s]
    for small, big in pairs:
        report = containment_probe(catalog.ideals[small], catalog.ideals[big])
        edges.append({"from": small, "to": big, "status": report.status})
    return edges


# ---------------------------------------------------------------------------
# the quantum torus quotient of S/(phi1 + phi2)


def torus_quotient_map(p: AlgebraParams):
    """Morphism S -> k[E'^{+-1}, F'^{+-1}] killing both commutator ideals."""
    from .morphisms import Morphism

    torus = torus_of_S_quotient(p)
    c_coeff = (ONE - qpow(2 * p.m * p.m)).inv()
    b_coeff = (ONE - qpow(-2 * p.n * p.n)).inv()
    return Morphism(
        make_S(p),
        torus,
        {
            "Ep": torus.gen("Ep"),
            "Fp": torus.gen("Fp"),
            "cp": torus.gen("Ep", -1).scale(c_coeff),
            "bp": torus.gen("Fp", -1).scale(b_coeff),
        },
        name="torus-quotient",
    )
