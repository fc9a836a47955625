"""Seeded random data for the verification suites and tests."""

from __future__ import annotations

from fractions import Fraction

from .qfield import QScalar, add_scaled, qpow
from .rewrite import Element, Presentation


def random_scalar(rng) -> QScalar:
    kind = rng.randrange(3)
    if kind == 0:
        return QScalar(rng.choice((1, -1, 2, -2, 3)))
    if kind == 1:
        return qpow(rng.randint(-2, 2))
    return QScalar(Fraction(rng.choice((1, -1, 3)), rng.choice((1, 2))))


def random_monomial(pres: Presentation, rng, max_degree=3, torus_window=2):
    """Exponent vector with weighted degree <= max_degree."""
    mono = [0] * len(pres.table.names)
    budget = rng.randint(0, max_degree)
    weighted = [i for i, d in enumerate(pres.table.degrees) if d > 0]
    for _ in range(budget):
        if not weighted:
            break
        mono[rng.choice(weighted)] += 1
    for i, inv in enumerate(pres.table.invertible):
        if inv and pres.table.degrees[i] == 0:
            mono[i] = rng.randint(-torus_window, torus_window)
    return tuple(mono)


def random_element(
    pres: Presentation, rng, max_degree=3, n_terms=3, torus_window=2
) -> Element:
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        mono = random_monomial(pres, rng, max_degree, torus_window)
        add_scaled(terms, {mono: random_scalar(rng)})
    return Element(pres, terms)


def random_sl2(rng):
    """Random SL2(Z) matrix with entries in [-5, 5]."""
    while True:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(1, 4)):
            r = rng.randint(-2, 2)
            if rng.randrange(2):
                # right shear: columns
                a, b, c, d = a, b + r * a, c, d + r * c
            else:
                a, b, c, d = a + r * b, b, c + r * d, d
        if max(abs(a), abs(b), abs(c), abs(d)) <= 5 and a * d - b * c == 1:
            if rng.randrange(2):
                a, b, c, d = -a, -b, -c, -d  # -I is also in SL2
            return ((a, b), (c, d))
