"""PBW normal-form engine for algebras presented by q-commutation rules.

A presentation fixes an ordered generator list and, for every ordered pair
(later, earlier), one rule

    later * earlier  ->  swap * (earlier * later) + tail

whose tail has strictly smaller total degree.  Normal forms are the
ascending-ordered monomials; elements are finite sums of monomials with
exact coefficients.  An overlap checker reduces every three-letter word
along two strategies and compares the results.

Reduction follows pure q-commutation swaps in place and keeps the branches
of tail rules in a pending map from word to coefficient, so equal words
merge before they are reduced.  Pending words are reduced in decreasing
(degree, inversions), a pair every rewrite lowers, so each distinct word is
reduced once (Bergman, The diamond lemma for ring theory, Adv. Math. 1978).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from math import comb

from .errors import (
    NegativePowerOfNonInvertible,
    PresentationError,
    UnknownGenerator,
)
from .qfield import scalar_is_negative, scalar_is_simple, scalar_text

Monomial = tuple  # integer exponent vector indexed by generator order


def _inv_scalar(c):
    """Exact multiplicative inverse across int / Fraction / QScalar coefficients."""
    from fractions import Fraction

    if isinstance(c, int):
        return Fraction(1, c)
    return 1 / c


@dataclass(frozen=True)
class GeneratorTable:
    names: tuple
    invertible: tuple
    degrees: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise PresentationError("generator names must be unique")
        if not (len(self.names) == len(self.invertible) == len(self.degrees)):
            raise PresentationError("table columns have mismatched lengths")


@dataclass(frozen=True)
class RewriteRule:
    later: int
    earlier: int
    swap: object                 # scalar
    tail: tuple                  # ((monomial, coeff), ...) in normal form


@dataclass
class ConfluenceReport:
    ok: bool
    triples_checked: int
    words_checked: int
    failures: list = field(default_factory=list)


class Element:
    """Finite sum of PBW monomials with exact coefficients."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = {m: c for m, c in terms.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.pres.table.names == other.pres.table.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.pres.table.names, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            s = c if prev is None else prev + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Element(self.pres, out)

    def __neg__(self):
        return Element(self.pres, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.pres.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Element):
            return NotImplemented
        return self.scale(other)

    def scale(self, c):
        if not c:
            return self.pres.zero()
        return Element(self.pres, {m: c * v for m, v in self.terms.items()})

    def degree(self):
        if not self.terms:
            return 0
        return max(self.pres.degree_of(m) for m in self.terms)

    def inverse_monomial(self):
        """Inverse of a one-term element supported on invertible generators."""
        if len(self.terms) != 1:
            raise ValueError("only single-term elements can be inverted")
        (mono, coeff), = self.terms.items()
        inv = self.pres.table.invertible
        if any(e and not inv[i] for i, e in enumerate(mono)):
            raise NegativePowerOfNonInvertible(self.pres.render_monomial(mono))
        word = [(i, -e) for i, e in reversed(list(enumerate(mono))) if e]
        out = self.pres._reduce(_inv_scalar(coeff), word)
        return Element(self.pres, out)

    def __str__(self):
        return self.pres.render_element(self)

    def __repr__(self):
        return f"<{self.pres.render_element(self)}>"


class Presentation:
    """Immutable q-commutation presentation with a complete pairwise rule table."""

    def __init__(self, table: GeneratorTable, rules: dict):
        self.table = table
        self.index = {n: i for i, n in enumerate(table.names)}
        n = len(table.names)
        for i in range(n):
            for j in range(i):
                if (i, j) not in rules:
                    raise PresentationError(
                        f"missing rule for pair ({table.names[i]}, {table.names[j]})"
                    )
        self.rules = dict(rules)
        self._pair_cache = {}
        self._unit = tuple([0] * n)
        self._debug = bool(os.environ.get("QHEIS_DEBUG"))
        for rule in self.rules.values():
            bound = table.degrees[rule.later] + table.degrees[rule.earlier]
            for mono, _ in rule.tail:
                if self.degree_of(mono) >= bound:
                    raise PresentationError(
                        "tail degree not below the reordered pair: "
                        f"{table.names[rule.later]}*{table.names[rule.earlier]}"
                    )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_relations(cls, names, invertible, degrees, relations):
        """Build from relations given as (u, v, swap, tail): u*v = swap*(v*u) + tail.

        Tail terms are (coeff, word) pairs with words already in normal order.
        Each relation is oriented automatically to the (later, earlier) pair.
        """
        table = GeneratorTable(tuple(names), tuple(invertible), tuple(degrees))
        index = {n: i for i, n in enumerate(table.names)}
        n = len(names)
        rules = {}
        for u, v, swap, tail in relations:
            iu, iv = index[u], index[v]
            if iu == iv:
                raise PresentationError(f"relation relates {u} to itself")
            tail_terms = []
            for coeff, word in tail:
                mono = [0] * n
                for gname, e in word:
                    mono[index[gname]] += e
                tail_terms.append((tuple(mono), coeff))
            if iu > iv:
                rule = RewriteRule(iu, iv, swap, tuple(tail_terms))
            else:
                s = _inv_scalar(swap)
                rule = RewriteRule(
                    iv, iu, s, tuple((m, -(s * c)) for m, c in tail_terms)
                )
            key = (rule.later, rule.earlier)
            if key in rules:
                raise PresentationError(
                    f"duplicate relation for pair ({u}, {v})"
                )
            rules[key] = rule
        pres = cls(table, rules)
        for rule in pres.rules.values():
            for mono, _ in rule.tail:
                if pres._reduce(1, pres._word_of_mono(mono)) != {mono: 1}:
                    raise PresentationError("tail monomial is not in normal form")
        return pres

    # -- basic constructors ---------------------------------------------------

    def zero(self):
        return Element(self, {})

    def one(self, coeff=1):
        return Element(self, {self._unit: coeff}) if coeff else self.zero()

    def gen(self, name, exp=1):
        i = self.index.get(name)
        if i is None:
            raise UnknownGenerator(name)
        if exp < 0 and not self.table.invertible[i]:
            raise NegativePowerOfNonInvertible(name)
        mono = [0] * len(self.table.names)
        mono[i] = exp
        return Element(self, {tuple(mono): 1})

    def monomial(self, mono, coeff=1):
        return Element(self, {tuple(mono): coeff}) if coeff else self.zero()

    def element_from_words(self, terms):
        """Sum of (coeff, word) items; words are [(name, exp), ...]."""
        out = {}
        for coeff, word in terms:
            if not coeff:
                continue
            reduced = self._reduce(coeff, self._validate_word(word))
            for m, c in reduced.items():
                prev = out.get(m)
                s = c if prev is None else prev + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Element(self, out)

    def _validate_word(self, word):
        items = []
        for gname, e in word:
            i = self.index.get(gname)
            if i is None:
                raise UnknownGenerator(gname)
            if e < 0 and not self.table.invertible[i]:
                raise NegativePowerOfNonInvertible(gname)
            if e:
                items.append((i, e))
        return items

    def _word_of_mono(self, mono):
        return [(i, e) for i, e in enumerate(mono) if e]

    # -- degrees ----------------------------------------------------------------

    def degree_of(self, mono) -> int:
        degs = self.table.degrees
        return sum(degs[i] * e for i, e in enumerate(mono) if e > 0)

    def _word_degree(self, word):
        degs = self.table.degrees
        return sum(degs[g] * e for g, e in word if e > 0)

    def _word_inversions(self, word):
        total = 0
        for i in range(len(word)):
            gi, ei = word[i]
            for j in range(i + 1, len(word)):
                gj, ej = word[j]
                if gi > gj:
                    total += abs(ei) * abs(ej)
        return total

    def _measure(self, word):
        return (
            self._word_degree(word),
            self._word_inversions(word),
            sum(abs(e) for _, e in word),
        )

    # -- the rewriting core -------------------------------------------------------

    @staticmethod
    def _merged(blocks):
        out = []
        for g, e in blocks:
            if not e:
                continue
            if out and out[-1][0] == g:
                e2 = out[-1][1] + e
                if e2:
                    out[-1] = (g, e2)
                else:
                    out.pop()
            else:
                out.append((g, e))
        return out

    @staticmethod
    def _descent(word, strategy):
        """Position of the descent `strategy` rewrites next, or -1 if none.

        "left" and "right" scan for the outermost descent; an RNG picks one
        of all descents.
        """
        if strategy == "left":
            for i in range(len(word) - 1):
                if word[i][0] > word[i + 1][0]:
                    return i
            return -1
        if strategy == "right":
            for i in range(len(word) - 2, -1, -1):
                if word[i][0] > word[i + 1][0]:
                    return i
            return -1
        positions = [i for i in range(len(word) - 1) if word[i][0] > word[i + 1][0]]
        return strategy.choice(positions) if positions else -1

    def _collect(self, out, c, word):
        """Add c times the normal word `word` to the monomial map `out`."""
        mono = [0] * len(self.table.names)
        for g, e in word:
            mono[g] = e
        mono = tuple(mono)
        prev = out.get(mono)
        s = c if prev is None else prev + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)

    def _reduce(self, coeff, word, strategy="left"):
        """Reduce coeff*word to a {monomial: coeff} map.

        A pure q-commutation swap rewrites the current word in place.  When a
        tail rule fires, its branches that are already normal go straight to
        the result; the others go into a pending map from word to
        coefficient, where equal words add up and a zero sum drops the word.
        A heap hands pending words back by decreasing (degree, inversions);
        every rewrite strictly lowers that pair, so no word taken from the
        heap can be produced again and each distinct pending word is reduced
        once (the order of Bergman's diamond lemma).  A lone branch with
        nothing else pending would be taken next anyway, so it stays the
        current word: the map and the heap are made only when two words
        wait at once.  `strategy` ("left", "right" or an RNG) picks the
        descent rewritten at each step.
        """
        out = {}
        rules = self.rules
        merged = self._merged
        descent = self._descent
        debug = self._debug
        pending = heap = None
        c, w = coeff, merged(word)
        while True:
            pos = descent(w, strategy)
            if pos < 0:
                self._collect(out, c, w)
            else:
                g, a = w[pos]
                h, b = w[pos + 1]
                rule = rules[(g, h)]
                before = self._measure(w) if debug else None
                if not rule.tail:
                    c = c * rule.swap ** (a * b)
                    w = merged(w[:pos] + [(h, b), (g, a)] + w[pos + 2:])
                    if debug:
                        assert self._measure(w) < before, (
                            "termination measure failed to decrease"
                        )
                    continue
                # tails only occur between non-invertible generators,
                # so a, b >= 1 and a single-letter peel is enough
                if a < 1 or b < 1:
                    raise PresentationError(
                        "tail rule on a negative power: "
                        f"{self.table.names[g]}^{a}*{self.table.names[h]}^{b}"
                    )
                head, rest = w[:pos], w[pos + 2:]
                branches = [
                    (
                        c * rule.swap,
                        merged(head + [(g, a - 1), (h, 1), (g, 1), (h, b - 1)] + rest),
                    )
                ]
                for tmono, tc in rule.tail:
                    tw = self._word_of_mono(tmono)
                    branches.append(
                        (c * tc, merged(head + [(g, a - 1)] + tw + [(h, b - 1)] + rest))
                    )
                live = []
                for bc, bw in branches:
                    if debug:
                        assert self._measure(bw) < before, (
                            "termination measure failed to decrease"
                        )
                    if descent(bw, "left") < 0:
                        self._collect(out, bc, bw)
                    else:
                        live.append((bc, bw))
                if len(live) == 1 and not pending:
                    c, w = live[0]
                    continue
                if pending is None:
                    pending, heap = {}, []
                    degs = self.table.degrees
                for bc, bw in live:
                    key = tuple(bw)
                    prev = pending.get(key)
                    if prev is not None:
                        s = prev + bc
                        if s:
                            pending[key] = s
                        else:
                            del pending[key]
                        continue
                    pending[key] = bc
                    # minus the (degree, inversions) of _measure, inline and
                    # only for new words, to keep short words cheap
                    deg = inv = 0
                    for gi, ei in key:
                        if ei > 0:
                            deg += degs[gi] * ei
                    for (gi, ei), (gj, ej) in combinations(key, 2):
                        if gi > gj:
                            inv += abs(ei * ej)
                    heappush(heap, (-deg, -inv, key))
            # a word whose sum cancelled to zero is still in the heap; skip it
            c = None
            while heap and c is None:
                key = heappop(heap)[2]
                c = pending.pop(key, None)
            if c is None:
                return out
            w = list(key)

    def normal_form(self, x, strategy="left"):
        """Normal form of an Element or of a word [(name, exp), ...]."""
        if isinstance(x, Element):
            out = {}
            for mono, c in x.terms.items():
                for m, v in self._reduce(c, self._word_of_mono(mono), strategy).items():
                    prev = out.get(m)
                    s = v if prev is None else prev + v
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            return Element(self, out)
        return Element(self, self._reduce(1, self._validate_word(x), strategy))

    def multiply(self, x: Element, y: Element) -> Element:
        if x.pres is not self or y.pres is not self:
            if x.pres.table.names != self.table.names or y.pres.table.names != self.table.names:
                raise PresentationError("operands belong to a different presentation")
        out = {}
        cache = self._pair_cache
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                prod = cache.get((m1, m2))
                if prod is None:
                    word = self._word_of_mono(m1) + self._word_of_mono(m2)
                    prod = self._reduce(1, word)
                    cache[(m1, m2)] = prod
                c = c1 * c2
                for m, v in prod.items():
                    w = c * v
                    prev = out.get(m)
                    s = w if prev is None else prev + w
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
        return Element(self, out)

    def commutator(self, x: Element, y: Element) -> Element:
        return self.multiply(x, y) - self.multiply(y, x)

    def power(self, x: Element, k: int) -> Element:
        if k < 0:
            return self.power(x.inverse_monomial(), -k)
        acc = self.one()
        base = x
        while k:
            if k & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base) if k > 1 else base
            k >>= 1
        return acc

    # -- confluence ----------------------------------------------------------------

    def signed_letters(self):
        letters = [(i, 1) for i in range(len(self.table.names))]
        letters += [(i, -1) for i, inv in enumerate(self.table.invertible) if inv]
        return letters

    def check_confluence(self, max_failures=5) -> ConfluenceReport:
        """Reduce every three-letter word along two strategies and compare."""
        letters = self.signed_letters()
        failures = []
        words = 0
        for l1 in letters:
            for l2 in letters:
                for l3 in letters:
                    word = [l1, l2, l3]
                    words += 1
                    left = self._reduce(1, list(word), "left")
                    right = self._reduce(1, list(word), "right")
                    if left != right:
                        failures.append(
                            (
                                [(self.table.names[g], e) for g, e in word],
                                Element(self, left),
                                Element(self, right),
                            )
                        )
                        if len(failures) >= max_failures:
                            return ConfluenceReport(
                                False, comb(len(self.table.names), 3), words, failures
                            )
        return ConfluenceReport(
            not failures, comb(len(self.table.names), 3), words, failures
        )

    # -- coefficient specialization ---------------------------------------------

    def map_scalars(self, fn) -> "Presentation":
        rules = {
            key: RewriteRule(
                r.later,
                r.earlier,
                fn(r.swap),
                tuple((m, fn(c)) for m, c in r.tail),
            )
            for key, r in self.rules.items()
        }
        return Presentation(self.table, rules)

    def specialize(self, q0) -> "Presentation":
        """Presentation over exact rationals with q evaluated at q0."""
        return self.map_scalars(lambda s: s.evaluate(q0))

    # -- rendering -------------------------------------------------------------------

    def term_sort_key(self, mono):
        return (-self.degree_of(mono), mono)

    def term_key(self, mono):
        """Graded-lexicographic key; max picks the leading monomial."""
        return (self.degree_of(mono), mono)

    def render_monomial(self, mono) -> str:
        parts = []
        for i, e in enumerate(mono):
            if not e:
                continue
            name = self.table.names[i]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def render_element(self, x: Element) -> str:
        if not x.terms:
            return "0"
        chunks = []
        for mono in sorted(x.terms, key=self.term_sort_key):
            c = x.terms[mono]
            neg = scalar_is_negative(c)
            body_coeff = -c if neg else c
            mtext = self.render_monomial(mono)
            if not mtext:
                body = scalar_text(body_coeff)
                if not scalar_is_simple(body_coeff):
                    body = f"({body})"
            elif body_coeff == 1 or (
                hasattr(body_coeff, "is_one") and body_coeff.is_one()
            ):
                body = mtext
            else:
                ctext = scalar_text(body_coeff)
                if not scalar_is_simple(body_coeff):
                    ctext = f"({ctext})"
                body = f"{ctext}*{mtext}"
            chunks.append(("-" if neg else "+", body))
        sign0, body0 = chunks[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text


def substitute(x: Element, images: dict, target: Presentation) -> Element:
    """Push an element through generator images living in `target`.

    `images` maps source generator names to target Elements; negative
    exponents require the image to be an invertible one-term monomial.
    """
    names = x.pres.table.names
    inv_cache = {}
    pow_cache = {}
    out = target.zero()
    for mono, coeff in x.terms.items():
        acc = target.one()
        for i, e in enumerate(mono):
            if not e:
                continue
            name = names[i]
            key = (name, e)
            img = pow_cache.get(key)
            if img is None:
                base = images[name]
                if e < 0:
                    invb = inv_cache.get(name)
                    if invb is None:
                        invb = base.inverse_monomial()
                        inv_cache[name] = invb
                    img = target.power(invb, -e)
                else:
                    img = target.power(base, e)
                pow_cache[key] = img
            acc = target.multiply(acc, img)
        out = out + acc.scale(coeff)
    return out
