"""Seeded request streams for the qheis benchmark.

A workload yields rounds: lists of requests whose mix of request kinds is
the same in every round, so that a run of whole rounds does the same kind
of work whatever the seed.  The seed picks the concrete inputs: (m, n)
signs and values, PBW orders, words, rational points q0, probe elements.
No request repeats within a run.

Each request has a `run()`, which is timed and returns the output text
that the expected-output digest covers, and a `check(output)`, which runs
after the timed section and raises `CheckFailed` when the output is wrong.
Checks recompute each result along another route (another reduction
strategy, another bracketing, symbolic q then evaluation) or compare it
with a value known from the paper, so they do not trust the code path
that produced the output.

Library functions are looked up on their modules at call time, so that
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import qheis
import qheis.cli
from qheis import expr, ideals, presets, suites
from qheis.qfield import QScalar
from qheis.rewrite import Element


class CheckFailed(Exception):
    pass


class RequestFailed(Exception):
    pass


class InputsExhausted(Exception):
    """A workload found no fresh input for its next round."""


PRESET_CACHES = (
    "make_Oq",
    "make_Uq",
    "make_Dq",
    "make_S",
    "make_D_split",
    "primed_in_D",
    "_unprimed_images",
)


def reset_caches():
    """Empty the process-wide caches of qheis: the preset `lru_cache`s
    (with them the pair caches of their presentations), the polynomial gcd
    memo, the q-power cache and the S relation cache."""
    from qheis import qfield

    for name in PRESET_CACHES:
        getattr(presets, name).cache_clear()
    presets._S_RELATIONS_CACHE.clear()
    qfield._PGCD_MEMO.clear()
    qfield._QPOW_CACHE.clear()


class Request:
    __slots__ = ("key", "run", "check")

    def __init__(self, key, run, check):
        self.key = key
        self.run = run
        self.check = check


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


# rational points for --q mode: never 0, +-1, so never a root of unity
Q0S = tuple(
    Fraction(x) for x in ("2", "3/2", "-2", "5/3", "-3/2", "4/3", "-5/4", "3", "-3", "7/5")
)


def _signed(rng, mag):
    return mag if rng.random() < 0.5 else -mag


def _preset(algebra, p, order):
    if algebra == "Oq":
        return presets.make_Oq(p)
    if algebra == "Uq":
        return presets.make_Uq(p)
    if algebra == "Dq":
        return presets.make_Dq(p)
    return presets.make_S(p, presets.S_ORDERS[order])


def _evaluate_at(el, q0, target):
    """Element over `target` (a specialized presentation) with every
    symbolic coefficient of `el` evaluated at q0."""
    return Element(
        target,
        {
            m: c.evaluate(q0) if isinstance(c, QScalar) else Fraction(c)
            for m, c in el.terms.items()
        },
    )


# ---------------------------------------------------------------------------
# nf-words


def _word_text(word):
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in word)


def _full_word(prefix, word):
    return ([prefix] if prefix else []) + word


def _raw_run(algebra, m, n, order, prefix, word, q0):
    pres = _preset(algebra, qheis.params(m, n), order)
    if q0 is not None:
        pres = pres.specialize(q0)
    return str(pres.normal_form(_full_word(prefix, word)))


def _raw_check(algebra, m, n, order, prefix, word, q0, out):
    word = _full_word(prefix, word)
    sym = _preset(algebra, qheis.params(m, n), order)
    pres = sym if q0 is None else sym.specialize(q0)
    right = pres.normal_form(word, strategy="right")
    _expect(str(right) == out, "right-strategy normal form differs from the left one")
    if q0 is not None:
        at_q0 = _evaluate_at(sym.normal_form(word, strategy="right"), q0, pres)
        _expect(str(at_q0) == out, "symbolic normal form at q0 differs from --q mode")


def _cli_argv(algebra, m, n, order, prefix, word, q0):
    argv = ["nf", "--algebra", algebra, "--m", str(m), "--n", str(n)]
    if algebra == "S":
        argv += ["--order", order]
    if q0 is not None:
        argv.append(f"--q={q0}")
    return argv + [_word_text(_full_word(prefix, word))]


def _cli(argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = qheis.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        raise RequestFailed(f"qheis {' '.join(argv)}: usage error") from exc
    if status != 0:
        raise RequestFailed(f"qheis {' '.join(argv)} exited with status {status}")
    return buf.getvalue()


def _product_right_to_left(algebra, m, n, order, prefix, word, q0):
    """The word's product built one generator at a time from the right, on
    a copy of the presentation with an empty pair cache, and then the
    prefix as one monomial; the CLI instead squares powers and multiplies
    from the left."""
    ctx = expr.context_for(algebra, qheis.params(m, n), order, q0=q0)
    fresh = ctx.pres.map_scalars(lambda s: s)
    acc = fresh.one()
    for name, e in reversed(word):
        base = Element(fresh, ctx.values[name].terms)
        if e < 0:
            base, e = base.inverse_monomial(), -e
        for _ in range(e):
            acc = fresh.multiply(base, acc)
    if prefix:
        acc = fresh.multiply(fresh.gen(*prefix), acc)
    return ctx.pres, acc


def _cli_check(algebra, m, n, order, prefix, word, q0, out):
    text = json.loads(out)["text"]
    pres, prod = _product_right_to_left(algebra, m, n, order, prefix, word, q0)
    _expect(pres.render_element(prod) == text, "CLI product differs from the rebracketed one")
    if q0 is not None:
        _, sym = _product_right_to_left(algebra, m, n, order, prefix, word, None)
        at_q0 = _evaluate_at(sym, q0, pres)
        _expect(pres.render_element(at_q0) == text, "symbolic product at q0 differs from --q mode")


def _pure_word(rng, algebra):
    """A word whose reduction uses only q-commutations (no tail rule fires)."""
    if algebra == "Oq":
        segments = [("c", "a", "b")]
    elif algebra == "Uq":
        segments = [("F", "K", "E")]
    else:
        # every c and F stays left of every E and b, so E*c and b*F never meet
        segments = [("F", "c", "K", "a"), ("K", "a", "E", "b")]
    word = []
    for letters in segments:
        for _ in range(rng.randint(7, 9) // len(segments) + 1):
            g = rng.choice(letters)
            e = rng.randint(1, 3)
            if g in ("a", "K") and rng.random() < 0.5:
                e = -e
            word.append((g, e))
    return word


# Every round holds one request of each kind: about half raw words through
# Presentation.normal_form, half expressions through `qheis nf`; six of the
# twenty-five run at a rational q0.  Tail-rule kinds are where
# rewrite._reduce branches blow up; the pure q-commutation kinds are cheap
# and set the median latency.  Twenty-five kinds, not twenty: the costliest
# kinds differ in cost by far more than their requests do among
# themselves, so after k rounds of twenty the 90th percentile (rank 18k)
# would fall on the gap between the 18th and the 19th kind by cost, where
# it jumps from run to run; at rank 22.5k of 25k it falls in the middle of
# one kind (`S rev^5`, the third costliest).
NF_KINDS = (
    # (kind, path, algebra, mode)
    ("Dq E^6c^6", "raw", "Dq", "sym"),
    ("Dq b^5F^5", "raw", "Dq", "q0"),
    ("Dq E^3c^3b^3F^3", "raw", "Dq", "sym"),
    ("S rev^3", "raw", "S", "sym"),
    ("Oq pure", "raw", "Oq", "sym"),
    ("Oq pure q0", "raw", "Oq", "q0"),
    ("Uq pure", "raw", "Uq", "sym"),
    ("Uq pure 2", "raw", "Uq", "sym"),
    ("Dq pure", "raw", "Dq", "sym"),
    ("Dq pure 2", "raw", "Dq", "sym"),
    ("Oq pure 2", "raw", "Oq", "sym"),
    ("Dq pure q0", "raw", "Dq", "q0"),
    ("Dq pure 3", "raw", "Dq", "sym"),
    ("Uq pure 3", "raw", "Uq", "sym"),
    ("Dq E^6*c^6", "cli", "Dq", "sym"),
    ("S rev^5", "cli", "S", "sym"),
    ("S rev^4 q0", "cli", "S", "q0"),
    ("Dq primed rev^3", "cli", "Dq", "sym"),
    ("Oq pure", "cli", "Oq", "sym"),
    ("Oq pure q0", "cli", "Oq", "q0"),
    ("Uq pure", "cli", "Uq", "sym"),
    ("Uq pure q0", "cli", "Uq", "q0"),
    ("Dq pure", "cli", "Dq", "sym"),
    ("Dq pure 2", "cli", "Dq", "sym"),
    ("Oq pure 2", "cli", "Oq", "sym"),
)

# |m|, |n| of the tail-rule kinds cycle with the round and the kind's
# position, so every round holds the same spread of magnitudes (the two
# E^6c^6 kinds are two steps apart, (1, *) against (2, *)) and costs about
# the same.  The seed picks the signs of (m, n) and the S order, dealt
# from a shuffled deck per kind, so that every four rounds use each sign
# pattern and each order once: their costs differ by up to a third, and
# independent draws would make the cost of a run depend on the seed.
NF_MAGNITUDES = ((1, 1), (1, 2), (2, 1), (2, 2))
# ... except for `S rev^5`, the kind at the 90th percentile: its cost at
# |m| = 1 and at |m| = 2 differs by a third, so over the cycle its latencies
# would form two clusters with the percentile on the gap between them
NF_FIXED_MAGNITUDE = {"S rev^5": (2, 2)}
SIGN_PATTERNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Tail-rule words get a prefix g^j, g the first generator of the PBW order
# (F in Dq, the order's first letter in S).  No letter sorts before g, so
# the prefix meets no rewrite rule: it costs a merge at most and leaves
# every coefficient as it is, whatever j.  j grows with the round in steps
# wider than any exponent of g a product of the word reaches, so no two
# requests share a word, nor (on the CLI path) a pair-cache entry.
PREFIX_STEP = 16


def _nf_word(kind, rng, order):
    if kind.startswith("Dq E^6"):
        return [("E", 6), ("c", 6)]
    if kind == "Dq b^5F^5":
        return [("b", 5), ("F", 5)]
    if kind == "Dq E^3c^3b^3F^3":
        return [("E", 3), ("c", 3), ("b", 3), ("F", 3)]
    if kind.startswith("S rev^"):
        k = int(kind[6])
        return [(g, k) for g in reversed(presets.S_ORDERS[order])]
    if kind == "Dq primed rev^3":
        return [(g, 3) for g in ("cp", "bp", "Fp", "Ep")]
    return _pure_word(rng, kind[:2])


class _Seeded:
    """A request stream's seeded random source and its decks."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seen = set()
        self.decks = {}

    def _deal(self, name, items):
        """The next of `items` from the deck `name`, reshuffled when empty."""
        deck = self.decks.get(name)
        if not deck:
            deck = self.decks[name] = list(items)
            self.rng.shuffle(deck)
        return deck.pop()


class NfWords(_Seeded):
    name = "nf-words"
    min_rounds = 3

    def _request(self, position, kind, path, algebra, mode, rnd):
        rng = self.rng
        pure = "pure" in kind
        q0 = rng.choice(Q0S) if mode == "q0" else None
        for _ in range(100):
            order = "J1"
            prefix = None
            if pure:
                m, n = _signed(rng, rng.randint(1, 3)), _signed(rng, rng.randint(1, 3))
            else:
                mm, nn = NF_FIXED_MAGNITUDE.get(
                    kind, NF_MAGNITUDES[(rnd + position) % len(NF_MAGNITUDES)]
                )
                sm, sn = self._deal((position, "signs"), SIGN_PATTERNS)
                m, n = sm * mm, sn * nn
                if algebra == "S":
                    order = self._deal((position, "order"), tuple(presets.S_ORDERS))
                first = presets.S_ORDERS[order][0] if algebra == "S" else "F"
                prefix = (first, PREFIX_STEP * (rnd + 1))
            word = _nf_word(kind, rng, order)
            key = (kind, path, m, n, order, prefix, tuple(word), q0)
            if key not in self.seen:
                break
        else:
            raise InputsExhausted(f"no fresh input left for {kind}")
        self.seen.add(key)
        args = (algebra, m, n, order, prefix, word, q0)
        if path == "raw":
            return Request(key, lambda: _raw_run(*args), lambda out: _raw_check(*args, out))
        argv = _cli_argv(*args)
        return Request(key, lambda: _cli(argv), lambda out: _cli_check(*args, out))

    def rounds(self):
        rnd = 0
        while True:
            batch = [self._request(i, *kind, rnd) for i, kind in enumerate(NF_KINDS)]
            self.rng.shuffle(batch)
            yield batch
            rnd += 1


# ---------------------------------------------------------------------------
# ideal-catalog

# dimensions of the commutator ideals of S at degree bounds 6 and 8; they
# do not depend on (m, n) or on a rational q0
KNOWN_DIMS = {
    6: {"0": 0, "I1": 70, "I2": 70, "I3": 125},
    8: {"0": 0, "I1": 210, "I2": 210, "I3": 350},
}
CONTAINED_EDGES = (("0", "I1"), ("0", "I2"), ("I1", "I3"), ("I2", "I3"))

# One round holds five sessions: degree bound 8 symbolic at |(m, n)| =
# (1, 1) and at (2, 3) (the first round uses exactly (1, 1) and (2, 3), the
# points of `qheis verify`), degree bound 8 at a rational q0, and degree
# bound 6 symbolic and at q0.  The other sessions take the nine pairs
# |m|, |n| <= 3 in turn, each round holding each |m| once and each session
# going through all nine pairs in nine rounds.  The seed deals the signs of
# (m, n) from a shuffled deck per session, so that every four rounds use
# each sign pattern once: a session's cost moves with |m|, |n| and with the
# signs by up to a third, and a run holds only four or five rounds, so
# independent draws would make the cost of a run depend on the seed.
IDEAL_MAGNITUDES = tuple((m, n) for m in (1, 2, 3) for n in (1, 2, 3))
IDEAL_SESSIONS = (
    (8, "sym", ((1, 1),)),
    (8, "sym", ((2, 3),)),
    (8, "q0", IDEAL_MAGNITUDES),
    (6, "sym", IDEAL_MAGNITUDES),
    (6, "q0", IDEAL_MAGNITUDES),
)
# z of the J-families is drawn from the nonzero integers up to Z_MAX in
# size: the span dimensions and the cost do not depend on it (measured at
# D = 6 and 8 for z from 2 to 9973), and the range keeps the sessions with
# fixed |(m, n)| from running out of fresh parameters
Z_MAX = 10**4


def _random_monomial(rng, degree):
    exps = [0, 0, 0, 0]
    for _ in range(degree):
        exps[rng.randrange(4)] += 1
    return tuple(exps)


def _sandwich(spres, rng, middle, degree_bound):
    """s * middle * t for random PBW monomials s, t that keep the degree
    within the bound."""
    room = degree_bound - middle.degree()
    ds = rng.randint(0, room)
    dt = rng.randint(0, room - ds)
    s = spres.monomial(_random_monomial(rng, ds))
    t = spres.monomial(_random_monomial(rng, dt))
    return spres.multiply(spres.multiply(s, middle), t)


def _certificate_value(spres, gens, cert):
    """sum coeff * m1 * gen * m2 over a certificate, on a fresh presentation."""
    fresh = spres.map_scalars(lambda s: s)
    acc = fresh.zero()
    for c, m1, idx, m2 in cert:
        g = Element(fresh, gens[idx].terms)
        word = fresh.multiply(fresh.multiply(fresh.monomial(m1), g), fresh.monomial(m2))
        acc = acc + word.scale(c)
    return Element(spres, acc.terms)


class IdealCatalog(_Seeded):
    name = "ideal-catalog"
    min_rounds = 1

    def _params(self, rnd, index, degree, mode, mags):
        rng = self.rng
        mm, nn = mags[(4 * rnd + 3 * index) % len(mags)]
        if rnd == 0 and len(mags) == 1:
            m, n = mm, nn
        else:
            sm, sn = self._deal(index, SIGN_PATTERNS)
            m, n = sm * mm, sn * nn
        p = qheis.params(m, n)
        # the J-family generators have degree 2*|n|/d and 2*|m|/d
        if 2 * max(mm, nn) // p.d > degree:
            raise ValueError(f"degree bound {degree} below the generators at ({m}, {n})")
        q0 = rng.choice(Q0S) if mode == "q0" else None
        for _ in range(100):
            z = _signed(rng, rng.randint(1, Z_MAX))
            key = (m, n, degree, q0, z)
            if key not in self.seen:
                self.seen.add(key)
                return p, q0, z
        raise InputsExhausted("no fresh session parameters left")

    def _session(self, rnd, index, degree, mode, mags):
        rng = self.rng
        p, q0, z = self._params(rnd, index, degree, mode, mags)
        tag = (p.m, p.n, degree, q0, z)
        st = {}

        def catalog():
            spres = expr.context_for("S", p, q0=q0).pres
            zs = qheis.QScalar(z) if q0 is None else Fraction(z)
            st["cat"] = ideals.build_spec_catalog(
                p, degree_bound=degree, z_samples=(zs,), spres=spres
            )
            return json.dumps({k: v.dimension for k, v in st["cat"].ideals.items()}, sort_keys=True)

        def check_catalog(out):
            dims = json.loads(out)
            for name, dim in KNOWN_DIMS[degree].items():
                _expect(dims.get(name) == dim, f"dim {name} = {dims.get(name)}, expected {dim}")

        def diagram():
            return json.dumps(ideals.spec_diagram(st["cat"]), sort_keys=True)

        def check_diagram(out):
            status = {(e["from"], e["to"]): e["status"] for e in json.loads(out)}
            for edge in CONTAINED_EDGES:
                _expect(status.get(edge) == "Contained", f"edge {edge} is {status.get(edge)}")

        requests = [Request(("catalog",) + tag, catalog, check_catalog)]
        requests.append(Request(("diagram",) + tag, diagram, check_diagram))

        # member probes: (ideal, expected verdict, element builder)
        def in_ideal(ideal, which, r):
            def build(spres):
                phi = ideals.phi_elements(spres)
                if which == 3:
                    return _sandwich(spres, r, phi[0], degree) + _sandwich(spres, r, phi[1], degree)
                return _sandwich(spres, r, phi[which - 1], degree)

            return ideal, "Verified", build

        def bc_monomial(r):
            i = r.randint(0, degree)
            j = r.randint(1 if i == 0 else 0, degree - i)

            def build(spres):
                mono = [0, 0, 0, 0]
                mono[spres.index["bp"]], mono[spres.index["cp"]] = i, j
                return spres.monomial(tuple(mono))

            return "I3", "NotDetected", build

        # seven probes, so that a round holds fifty requests: the 90th
        # percentile (rank 45k of 50k) then falls in the middle of the
        # fifth and sixth costliest kinds (the (2, 3) diagram and the
        # degree-6 q0 catalog, whose latencies overlap), not at the 75th
        # percentile of these two, where their values thin out
        probes = [
            in_ideal("I1", 1, random.Random(rng.random())),
            in_ideal("I1", 1, random.Random(rng.random())),
            in_ideal("I2", 2, random.Random(rng.random())),
            in_ideal("I2", 2, random.Random(rng.random())),
            in_ideal("I3", 3, random.Random(rng.random())),
            ("I3", "NotDetected", lambda spres: spres.one()),
            bc_monomial(rng),
        ]
        for k, (ideal, verdict, build) in enumerate(probes):

            def probe(ideal=ideal, build=build):
                cat = st["cat"]
                return cat.ideals[ideal].member(build(cat.spres))

            def check_probe(out, verdict=verdict):
                _expect(out == verdict, f"member verdict {out}, expected {verdict}")

            requests.append(Request(("member", k) + tag, probe, check_probe))

        cert_rng = random.Random(rng.random())

        def certificate():
            cat = st["cat"]
            ideal = cat.ideals["I1"]
            x = _sandwich(cat.spres, cert_rng, ideals.phi_elements(cat.spres)[0], degree)
            cert = ideal.certificate(x)
            if cert is None:
                raise RequestFailed("no certificate for an element of I1")
            replay = ideal.replay_certificate(cert)
            st["cert"] = (x, cert, replay)
            return repr([(str(c), m1, idx, m2) for c, m1, idx, m2 in cert])

        def check_certificate(out):
            x, cert, replay = st["cert"]
            ideal = st["cat"].ideals["I1"]
            _expect(replay == x, "replayed certificate differs from its element")
            _expect(
                _certificate_value(ideal.spres, ideal.generators, cert) == x,
                "certificate recomputed on a fresh presentation differs from its element",
            )

        requests.append(Request(("certificate",) + tag, certificate, check_certificate))
        return requests

    def rounds(self):
        rnd = 0
        while True:
            batch = []
            for index, session in enumerate(IDEAL_SESSIONS):
                batch += self._session(rnd, index, *session)
            yield batch
            rnd += 1


# ---------------------------------------------------------------------------
# verify-suites

VERIFY_SUITES = tuple(s for s in suites.SUITE_NAMES if s != "ideals")


class VerifySuites:
    name = "verify-suites"
    round_size = 4
    min_rounds = 5

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.grid = self._points()

    def _points(self):
        """The 324 points of the (m, n) grid, pass after pass.  A request's
        cost grows with |m| and |n| (from 0.25 to 0.5 s), so a pass goes
        through the 81 pairs (|m|, |n|) four times in an order in which
        every nine consecutive requests hold each |m| and each |n| once:
        any run then meets the same spread of costs, whatever the seed.
        The seed permutes the values of |m| and of |n| and deals the signs
        of each pair from a shuffled deck, so that a pass holds every
        point once.  Each pass after the first starts from emptied caches,
        so that it does the same work as the first; the sample seed keeps
        requests at the same (m, n) in different passes apart."""
        rng = self.rng
        while True:
            ms, ns = list(range(1, 10)), list(range(1, 10))
            rng.shuffle(ms)
            rng.shuffle(ns)
            decks = {}
            for _ in range(len(SIGN_PATTERNS)):
                for i in range(81):
                    mm, nn = ms[i % 9], ns[(i + i // 9) % 9]
                    if (mm, nn) not in decks:
                        decks[mm, nn] = rng.sample(SIGN_PATTERNS, len(SIGN_PATTERNS))
                    sm, sn = decks[mm, nn].pop()
                    yield sm * mm, sn * nn
            reset_caches()

    def _request(self):
        m, n = next(self.grid)
        cfg = suites.RunConfig(m=m, n=n, seed=self.rng.randrange(2**31))

        def run():
            records, _ = suites.run_suites(VERIFY_SUITES, cfg)
            return "\n".join(json.dumps(r, sort_keys=True) for r in records)

        def check(out):
            records = [json.loads(line) for line in out.splitlines()]
            failed = [f"{r['suite']}/{r['check']}" for r in records if r.get("ok") is not True]
            _expect(not failed, f"checks not ok: {failed[:5]}")
            ran = {r["suite"] for r in records}
            _expect(ran == set(VERIFY_SUITES), f"suites run: {sorted(ran)}")

        return Request(("verify", m, n, cfg.seed), run, check)

    def rounds(self):
        while True:
            yield [self._request() for _ in range(self.round_size)]


WORKLOADS = {w.name: w for w in (NfWords, IdealCatalog, VerifySuites)}
