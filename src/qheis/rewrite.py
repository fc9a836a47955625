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
A tail rule whose descent is a block g^a*h^b with a, b >= 2 rewrites the
whole block at once: its normal form (for the q-Weyl pairs, the expansion
of Kassel, Quantum Groups, GTM 155, ch. IV) is reduced one letter at a time
once per presentation and then spliced in wherever the block recurs.

A product of two monomials that no tail rule crosses is not rewritten at
all: only pure q-commutations reorder it, so it is the merged monomial
times one scalar, read off the rule table in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations, product
from math import comb
from operator import add

from .errors import (
    NegativePowerOfNonInvertible,
    PresentationError,
    UnknownGenerator,
)
from .qfield import ONE, QScalar, _join_parts, add_scaled, evaluate, inverse, qpow
from .qfield import scalar_is_negative, scalar_is_simple, signed_texts

# a presentation's table of block normal forms is emptied when it reaches
# this many entries, so that it cannot grow without limit (the entry for
# Dq's E^16*c^16 at (m, n) = (2, 3) takes about 200 KB)
_BLOCKS_CAP = 256


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
        return Element(self.pres, add_scaled(dict(self.terms), other.terms))

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
        out = self.pres._reduce(inverse(coeff), word)
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
        self._blocks = {}
        self._square = None
        self._hopf = None  # the HopfStructure of hopf.py, built at most once
        self._unit = tuple([0] * n)
        # the closed-form product reads the pure q-commutations off
        # _crossing[later][earlier], None where the rule has a tail: the
        # exponent k of each swap q^k when every swap is a q-power, else
        # the swap itself (a specialized presentation)
        pure = {key: r.swap for key, r in self.rules.items() if not r.tail}
        self._has_tails = len(pure) < len(self.rules)
        self._qpowers = all(
            s.__class__ is QScalar and s.is_q_power() for s in pure.values()
        )
        self._crossing = [[None] * i for i in range(n)]
        for (i, j), s in pure.items():
            self._crossing[i][j] = s.shift if self._qpowers else s
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
                last = -1
                for gname, e in word:
                    i = index[gname]
                    if i < last:
                        raise PresentationError(
                            f"tail word of ({u}, {v}) is not in normal order"
                        )
                    last = i
                    mono[i] += e
                tail_terms.append((tuple(mono), coeff))
            if iu > iv:
                rule = RewriteRule(iu, iv, swap, tuple(tail_terms))
            else:
                s = inverse(swap)
                rule = RewriteRule(
                    iv, iu, s, tuple((m, -(s * c)) for m, c in tail_terms)
                )
            key = (rule.later, rule.earlier)
            if key in rules:
                raise PresentationError(
                    f"duplicate relation for pair ({u}, {v})"
                )
            rules[key] = rule
        return cls(table, rules)

    def tensor_square(self) -> "Presentation":
        """A (x) A on the generators g(1) of the first copy, then g(2) of the
        second: each copy keeps the rules of A and the copies commute.  It
        is built once, so its pair cache lives as long as A does.  When A has
        no tail rule neither has the square, and its pair cache stays empty:
        every product it forms is a closed form."""
        if self._square is None:
            t = self.table
            k = len(t.names)
            pad = (0,) * k
            rules = {}
            for (i, j), r in self.rules.items():
                for s in (0, k):
                    tail = tuple((pad + m if s else m + pad, c) for m, c in r.tail)
                    rules[(i + s, j + s)] = RewriteRule(i + s, j + s, r.swap, tail)
            for i in range(k):
                for j in range(k):
                    rules[(k + i, j)] = RewriteRule(k + i, j, ONE, ())
            table = GeneratorTable(
                tuple(f"{g}({copy})" for copy in (1, 2) for g in t.names),
                t.invertible * 2,
                t.degrees * 2,
            )
            self._square = Presentation(table, rules)
        return self._square

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

    def monomial(self, mono):
        return Element(self, {tuple(mono): 1})

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

    def _measure(self, word):
        """(degree, inversions) of a word: the termination order, which
        every rewrite strictly lowers."""
        degs = self.table.degrees
        deg = inv = 0
        for g, e in word:
            if e > 0:
                deg += degs[g] * e
        for (gi, ei), (gj, ej) in combinations(word, 2):
            if gi > gj:
                inv += abs(ei * ej)
        return deg, inv

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
        add_scaled(out, {tuple(mono): c})

    def _block(self, g, a, h, b):
        """Normal form of g^a*h^b as (word, coeff) pairs, reduced once one
        letter at a time (strategy "right" reads no blocks) and kept."""
        nf = self._reduce(1, [(g, a), (h, b)], "right")
        if len(self._blocks) >= _BLOCKS_CAP:
            self._blocks.clear()
        block = [(self._word_of_mono(m), c) for m, c in nf.items()]
        self._blocks[(g, a, h, b)] = block
        return block

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
        descent rewritten at each step.  Only "left" splices in the normal
        forms of blocks g^a*h^b with a, b >= 2; the others peel one letter
        at a time, so comparing strategies compares the two routes.
        """
        out = {}
        rules = self.rules
        merged = self._merged
        descent = self._descent
        blocks = self._blocks if strategy == "left" else None
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
                if not rule.tail:
                    c = c * rule.swap ** (a * b)
                    w = merged(w[:pos] + [(h, b), (g, a)] + w[pos + 2:])
                    continue
                # tails only occur between non-invertible generators, so
                # a, b >= 1.  A block needs a, b >= 2, so a product with a
                # single letter never forms one (tails in S are constants,
                # tail letters in Dq invertible) and keeps the term order
                # of one-letter rewriting, which certificates follow
                if a < 1 or b < 1:
                    raise PresentationError(
                        "tail rule on a negative power: "
                        f"{self.table.names[g]}^{a}*{self.table.names[h]}^{b}"
                    )
                head, rest = w[:pos], w[pos + 2:]
                if blocks is not None and a > 1 and b > 1:
                    block = blocks.get((g, a, h, b))
                    if block is None:
                        block = self._block(g, a, h, b)
                    branches = [(c * bc, merged(head + bw + rest)) for bw, bc in block]
                else:
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
                    if descent(bw, "left") < 0:
                        self._collect(out, bc, bw)
                    else:
                        live.append((bc, bw))
                if len(live) == 1 and not pending:
                    c, w = live[0]
                    continue
                if pending is None:
                    pending, heap = {}, []
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
                    deg, inv = self._measure(key)
                    heappush(heap, (-deg, -inv, key))
            # a word whose sum cancelled to zero is still in the heap; skip it
            c = None
            while heap and c is None:
                key = heappop(heap)[2]
                c = pending.pop(key, None)
            if c is None:
                return out
            w = list(key)

    def _skew_product(self, m1, m2):
        """m1*m2 as {m1 + m2: c} when no tail rule crosses, else None.

        The crossing pairs are the letters g^a of m1 and h^b of m2 with h
        before g.  When each crosses by a pure q-commutation, each crossing
        multiplies by swap^(a*b) whatever route the rewriter takes, so c is
        q^(sum k*a*b) when every swap is a q-power q^k and the product of
        the swap^(a*b) otherwise.  With nothing to cross c is the int 1,
        as from `_reduce`.
        """
        crossing = self._crossing
        qpowers = self._qpowers
        k = 0
        c = 1
        crossed = False
        second = [(j, b) for j, b in enumerate(m2) if b]
        for i, a in enumerate(m1):
            if not a:
                continue
            row = crossing[i]
            for j, b in second:
                if j >= i:
                    break
                s = row[j]
                if s is None:
                    return None
                if qpowers:
                    k += s * a * b
                else:
                    c = c * s ** (a * b)
                crossed = True
        if crossed and qpowers:
            c = qpow(k)
        return {tuple(map(add, m1, m2)): c}

    def normal_form(self, x, strategy="left"):
        """Normal form of an Element or of a word [(name, exp), ...].

        An Element is a sum of exponent vectors, each an irreducible word,
        so it is already normal and is only moved into this presentation,
        which must have the same generators.
        """
        if isinstance(x, Element):
            if x.pres is not self and x.pres.table.names != self.table.names:
                raise PresentationError("element belongs to a different presentation")
            return Element(self, x.terms)
        return Element(self, self._reduce(1, self._validate_word(x), strategy))

    def multiply(self, x: Element, y: Element) -> Element:
        """x*y.  A product of two monomials missing from the pair cache is
        the closed form where no tail rule crosses, else the rewriter's
        normal form of the joined word; a presentation with no tail rule
        forms every product in closed form and caches none."""
        if x.pres is not self or y.pres is not self:
            if x.pres.table.names != self.table.names or y.pres.table.names != self.table.names:
                raise PresentationError("operands belong to a different presentation")
        out = {}
        cache = self._pair_cache
        keep = self._has_tails
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                prod = cache.get((m1, m2)) if keep else None
                if prod is None:
                    prod = self._skew_product(m1, m2)
                    if prod is None:
                        word = self._word_of_mono(m1) + self._word_of_mono(m2)
                        prod = self._reduce(1, word)
                    if keep:
                        cache[(m1, m2)] = prod
                # c * 1 and 1 * c are c, of the product's type
                if c2.__class__ is int and c2 == 1:
                    c = c1
                elif c1.__class__ is int and c1 == 1:
                    c = c2
                else:
                    c = c1 * c2
                add_scaled(out, prod, c)
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

    def check_confluence(self) -> ConfluenceReport:
        """Reduce every three-letter word along two strategies and compare;
        stop at the fifth failure."""
        letters = self.signed_letters()
        failures = []
        words = 0
        for word in product(letters, repeat=3):
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
                if len(failures) >= 5:
                    break
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
        return self.map_scalars(lambda s: evaluate(s, q0))

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

    def render_element(self, x: Element, coeffs=None) -> str:
        """Text of x, term by term in sort order; each (mono, text of its
        coefficient) is appended to the list `coeffs` when one is given."""
        chunks = []
        for mono in sorted(x.terms, key=self.term_sort_key):
            c = x.terms[mono]
            neg = scalar_is_negative(c)
            ctext, negtext = signed_texts(c)
            if coeffs is not None:
                coeffs.append((mono, ctext))
            body = negtext if neg else ctext
            mtext = self.render_monomial(mono)
            if not scalar_is_simple(c):
                body = f"({body})"
            if mtext:
                body = mtext if c == (-1 if neg else 1) else f"{body}*{mtext}"
            chunks.append(("-" if neg else "+", body))
        return _join_parts(chunks)


def substitute(
    x: Element, images: dict, target: Presentation, cache=None, reverse=False
) -> Element:
    """Push an element through generator images living in `target`.

    `images` maps source generator names to target Elements; negative
    exponents require the image to be an invertible one-term monomial.
    `cache` maps (name, exponent) to the image power; callers that push
    many elements through the same images pass the same dict.  With
    `reverse` the image powers of a monomial are multiplied from its last
    generator to its first, which extends an anti-homomorphism.
    """
    if cache is None:
        cache = {}
    names = x.pres.table.names
    order = range(len(names) - 1, -1, -1) if reverse else range(len(names))
    out: dict = {}
    for mono, coeff in x.terms.items():
        acc = None
        for i in order:
            e = mono[i]
            if e:
                img = _image_power(images, target, cache, names[i], e)
                acc = img if acc is None else target.multiply(acc, img)
        add_scaled(out, (target.one() if acc is None else acc).terms, coeff)
    return Element(target, out)


def _image_power(images, target, cache, name, e):
    """images[name]^e in `target`, kept in `cache` under (name, e)."""
    img = cache.get((name, e))
    if img is None:
        if e == -1:
            img = images[name].inverse_monomial()
        elif e < 0:
            img = target.power(_image_power(images, target, cache, name, -1), -e)
        else:
            img = target.power(images[name], e)
        cache[(name, e)] = img
    return img
