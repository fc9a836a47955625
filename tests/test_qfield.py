"""Exact coefficient field: canonical form, arithmetic, evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis import qfield
from qheis.errors import EvaluationPole, InvalidParameter
from qheis.qfield import ONE, ZERO, QScalar, qpow, scalar_is_simple


def conv(a, b):
    """Independent polynomial multiplication oracle over Fractions."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def test_qpow_identity_cases():
    assert qpow(0) == ONE
    assert qpow(0).is_one()
    s = qpow(-3)
    assert (s.shift, s.num, s.den) == (-3, (1,), (1,))
    assert qpow(2) * qpow(-2) == ONE


def test_add_trivial():
    assert QScalar(1) + QScalar(-1) == ZERO
    assert qpow(1) + qpow(1) == QScalar.from_num_den((2,), (1,), shift=1)


def test_add_cross_multiply_oracle():
    # 1/(1-q) + 1/(1+q) == 2/(1-q^2), checked by clearing denominators
    x = QScalar.from_num_den((1,), (1, -1))
    y = QScalar.from_num_den((1,), (1, 1))
    s = x + y
    expected = QScalar.from_num_den((2,), tuple(int(c) for c in conv((1, -1), (1, 1))))
    assert s == expected
    # and the hand cross-multiplication: (1+q) + (1-q) over (1-q)(1+q)
    assert s == QScalar.from_num_den((2,), (1, 0, -1))


def test_mul():
    assert qpow(2) * qpow(-2) == ONE
    omq2 = QScalar.from_num_den((1, 0, -1), (1,))
    assert omq2 * omq2.inv() == ONE
    prod = QScalar.from_num_den((1, -1), (1,)) * QScalar.from_num_den((1, 1), (1,))
    assert prod == QScalar.from_num_den(tuple(int(c) for c in conv((1, -1), (1, 1))), (1,))


def test_inv():
    assert ONE.inv() == ONE
    assert qpow(5).inv() == qpow(-5)
    m = 1
    s = ONE - qpow(2 * m * m)
    assert s * s.inv() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_eval():
    assert qpow(3).evaluate(2) == 8
    inv = (ONE - qpow(2)).inv()
    assert inv.evaluate(2) == Fraction(-1, 3)
    with pytest.raises(InvalidParameter):
        inv.evaluate(1)
    with pytest.raises(InvalidParameter):
        inv.evaluate(0)
    with pytest.raises(EvaluationPole):
        (ONE / (QScalar(2) - qpow(1))).evaluate(2)


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    q0 = Fraction(3, 2)
    for _ in range(200):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        try:
            vx, vy, vxy = x.evaluate(q0), y.evaluate(q0), (x * y).evaluate(q0)
            vsum = (x + y).evaluate(q0)
        except EvaluationPole:
            continue
        assert vxy == vx * vy
        assert vsum == vx + vy


def _random_scalar(rng, allow_den=True):
    def poly():
        return tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))

    num = poly()
    den = poly() if allow_den else (1,)
    while not any(den):
        den = poly()
    if not any(num):
        num = (1,)
    return QScalar.from_num_den(num, den, shift=rng.randint(-3, 3))


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(1000):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        z = _random_scalar(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x


def test_canonicalization_idempotent():
    rng = random.Random(13)
    for _ in range(300):
        x = _random_scalar(rng)
        again = QScalar.from_num_den(x.num, x.den, shift=x.shift)
        assert (again.shift, again.num, again.den) == (x.shift, x.num, x.den)
        assert hash(again) == hash(x)


def test_canonical_equality_of_equivalent_fractions():
    a = QScalar.from_num_den((2, 0, -2), (4,))      # (2-2q^2)/4
    b = QScalar.from_num_den((1, 0, -1), (2,))      # (1-q^2)/2
    assert a == b
    c = QScalar.from_num_den((1, 0, -1), (1, -1))   # (1-q^2)/(1-q) = 1+q
    assert c == QScalar.from_num_den((1, 1), (1,))


def test_pow():
    s = QScalar.from_num_den((1, 1), (1,))
    assert s**3 == s * s * s
    assert s**-2 == (s * s).inv()
    assert qpow(4) ** -3 == qpow(-12)
    assert s**0 == ONE


def test_fraction_and_int_interop():
    assert QScalar(Fraction(3, 2)) * 2 == QScalar(3)
    assert 1 - qpow(2) == QScalar.from_num_den((1, 0, -1), (1,))
    assert 1 / qpow(3) == qpow(-3)
    assert hash(QScalar(7)) == hash(Fraction(7))


# ---------------------------------------------------------------------------
# the fast paths of a product with a monomial c*q^k and of a sum over a
# shared denominator, against the canonical form of the unreduced result


def _times(a, b):
    """Integer polynomial product, constant first."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _plus(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _triple(x):
    return (x.shift, x.num, x.den)


_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
_shifts = st.integers(-3, 3)
_scalars = st.builds(
    lambda num, den, k: QScalar.from_num_den(num, den, shift=k),
    _polys,
    _polys.filter(any),
    _shifts,
)
_coeffs = st.builds(
    lambda sign, mag: sign * mag,
    st.sampled_from([1, -1]),
    st.one_of(st.sampled_from([1, 2, 3, 4, 6, 9, 12, 36]), st.integers(1, 60)),
)
_fast = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@_fast
@given(a=_scalars, c=_coeffs, k=_shifts)
def test_mul_by_monomial_matches_general_canon(a, c, k):
    b = QScalar.from_num_den((c,), (1,), shift=k)
    want = _triple(QScalar.from_num_den(_times(a.num, (c,)), a.den, shift=a.shift + k))
    assert _triple(a * b) == want
    assert _triple(b * a) == want
    if k == 0:
        assert _triple(a * c) == want
        assert _triple(c * a) == want


@_fast
@given(a=_scalars, p=_polys, t=_shifts)
def test_add_over_shared_denominator_matches_general_canon(a, p, t):
    # q^t * (num + p*den) / den keeps a's denominator
    a2 = QScalar.from_num_den(_plus(a.num, _times(p, a.den)), a.den, shift=t)
    assert a2.den == a.den or not a2
    v = min(a.shift, a2.shift)
    num = _plus(
        [0] * (a.shift - v) + _times(a.num, a2.den),
        [0] * (a2.shift - v) + _times(a2.num, a.den),
    )
    want = _triple(QScalar.from_num_den(num, _times(a.den, a2.den), shift=v))
    assert _triple(a + a2) == want
    assert _triple(a2 + a) == want


def test_mul_by_integer_divides_the_denominator_content():
    """2 * 1/(2+2q) is 1/(1+q), not 2/(2+2q): the factor and the content of
    the denominator share 2."""
    half = QScalar.from_num_den((1,), (2, 2))
    want = QScalar.from_num_den((1,), (1, 1))
    assert _triple(half * 2) == _triple(want)
    assert _triple(2 * half) == _triple(want)
    assert str(half * 2) == "1/(1 + q)"


_ints = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(2**80), 2**80))
_monomials = st.builds(
    lambda c, k: QScalar.from_num_den((c,), (1,), shift=k), _ints.filter(bool), _shifts
)
_polynomials = st.builds(lambda num, k: QScalar.from_num_den(num, (1,), shift=k), _polys, _shifts)


def _canon_route(a, b):
    """a * b as _canon of the unreduced product; an int or a Fraction b
    enters as its numerator over its denominator."""
    if isinstance(b, QScalar):
        shift, num, den = _triple(b)
    else:
        f = Fraction(b)
        shift, num, den = 0, (f.numerator,), (f.denominator,)
    num = qfield._trim(_times(a.num, num))
    return QScalar._raw(*qfield._canon(a.shift + shift, num, tuple(_times(a.den, den))))


def _same(x, y):
    assert _triple(x) == _triple(y)
    assert hash(x) == hash(y)


@_fast
@given(v=st.one_of(_ints, st.fractions()))
def test_constant_scalars_are_canonical_as_given(v):
    """QScalar(int) and QScalar(Fraction) skip _canon; they are what it
    gives, and hash like the number they hold."""
    f = Fraction(v)
    want = QScalar._raw(*qfield._canon(0, (f.numerator,) if f else (), (f.denominator,)))
    _same(QScalar(v), want)
    assert hash(QScalar(v)) == hash(v)


@_fast
@given(
    a=st.one_of(_scalars, _monomials, _polynomials),
    b=st.one_of(_ints, st.fractions(), _monomials),
)
def test_mul_fast_paths_match_the_canon_route(a, b):
    """An int factor goes straight to _scaled, which skips the content gcd
    over the denominator 1; two c*q^k multiply without _canon; a Fraction
    becomes a QScalar without it."""
    want = _canon_route(a, b)
    _same(a * b, want)
    _same(b * a, want)
    if not isinstance(b, QScalar):
        _same(a * QScalar(b), want)


@_fast
@given(
    x=st.one_of(_shifts.map(qpow), _monomials, _scalars.filter(bool)),
    e=st.integers(-6, 6),
)
def test_pow_matches_repeated_multiplication(x, e):
    """x ** e is |e| factors of x, or of x.inv() when e < 0."""
    factor = x if e > 0 else x.inv()
    want = ONE
    for _ in range(abs(e)):
        want = want * factor
    _same(x**e, want)


def test_negative_power_of_a_q_power_calls_no_canon(monkeypatch):
    """q^k ** e is q^(k*e) for either sign of e, with no inversion."""

    def no_canon(*args):
        raise AssertionError("_canon called")

    monkeypatch.setattr(qfield, "_canon", no_canon)
    for k in range(-3, 4):
        for e in range(-6, 0):
            assert _triple(qpow(k) ** e) == (k * e, (1,), (1,))


def test_qpow_cache_is_bounded(monkeypatch):
    """With a small cap the cache is emptied whenever it is full; every
    q^k is canonical whether built afresh or read back."""
    monkeypatch.setattr(qfield, "_QPOW_CACHE", {})
    monkeypatch.setattr(qfield, "_QPOW_CACHE_CAP", 8)
    for k in list(range(-20, 20)) + list(range(-5, 5)):
        s = qpow(k)
        assert (s.shift, s.num, s.den) == (k, (1,), (1,))
        assert len(qfield._QPOW_CACHE) <= 8
    assert qpow(3) is qpow(3)


@pytest.mark.parametrize(
    "c, simple",
    [
        (qpow(-3), True),
        (QScalar(-2) * qpow(5), True),
        (QScalar(Fraction(3, 2)), True),
        (QScalar(Fraction(3, 2)) * qpow(2), True),
        (1 + qpow(1), False),
        (qpow(1) / (1 + qpow(1)), False),
        ((1 + qpow(1)) / 2, False),
    ],
)
def test_scalar_is_simple(c, simple):
    """A single product-safe factor: a constant denominator and one term."""
    assert scalar_is_simple(c) is simple


def test_pgcd_memo_is_bounded(monkeypatch):
    """With a small cap the memo is emptied whenever it is full: it never
    holds more than the cap, and every gcd is the one an unbounded memo
    gives, whether it is computed afresh or read back."""
    rng = random.Random(5)

    def poly():
        return tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))) + (1,)

    pairs = []
    for _ in range(40):
        f = poly()
        pairs.append((qfield._pmul(f, poly()), qfield._pmul(f, poly())))
    pairs += pairs[::3]
    monkeypatch.setattr(qfield, "_PGCD_MEMO", {})
    expected = [qfield._pgcd(a, b) for a, b in pairs]
    assert len(qfield._PGCD_MEMO) > 8
    monkeypatch.setattr(qfield, "_PGCD_MEMO", {})
    monkeypatch.setattr(qfield, "_PGCD_MEMO_CAP", 8)
    got = []
    for a, b in pairs:
        got.append(qfield._pgcd(a, b))
        assert len(qfield._PGCD_MEMO) <= 8
    assert got == expected
    assert all(len(g) > 1 for g in got)


# ---------------------------------------------------------------------------
# the integer polynomial helpers


_trimmed = _polys.map(qfield._trim)


@_fast
@given(a=_trimmed, b=_trimmed.filter(any))
def test_exact_division_undoes_the_product(a, b):
    assert qfield._pdiv_exact(qfield._pmul(a, b), b) == a
    assert qfield._padd(a, b) == qfield._trim(_plus(a, b))
    assert qfield._padd(a, qfield._pneg(a)) == ()


def _strided(coeffs, stride, offset):
    """The polynomial with coefficient coeffs[i] at q^(offset + i*stride)."""
    out = [0] * (offset + stride * len(coeffs))
    for i, c in enumerate(coeffs):
        out[offset + i * stride] = c
    return tuple(out)


_wide = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@_fast
@given(
    a=st.lists(_wide, max_size=12),
    b=st.lists(_wide, max_size=12),
    sa=st.integers(1, 9),
    sb=st.integers(1, 9),
    oa=st.integers(0, 3),
    ob=st.integers(0, 3),
)
def test_pmul_matches_the_schoolbook_product(a, b, sa, sb, oa, ob):
    """Operands of stride s (as S scalars, polynomials in q^(2d^2)), with
    zero and negative entries, trailing zeros and coefficients wider than
    64 bits, against the product over every pair of slots."""
    a, b = _strided(a, sa, oa), _strided(b, sb, ob)
    plain = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            plain[i + j] += x * y
    assert qfield._pmul(a, b) == qfield._trim(plain)


@pytest.mark.parametrize("a, b", [((1, 0, 1), (1, 1)), ((1, 1), (1, 2)), ((3,), (2,))])
def test_inexact_division_raises(a, b):
    """1 + q^2 over 1 + q leaves a remainder, and 1 + q over 1 + 2q or 3
    over 2 is not integral."""
    with pytest.raises(ArithmeticError, match="inexact"):
        qfield._pdiv_exact(a, b)


@_fast
@given(
    a=st.lists(_wide, max_size=10),
    b=st.lists(_wide, min_size=1, max_size=6).filter(lambda b: b[-1]),
    sa=st.integers(1, 5),
    sb=st.integers(1, 5),
    oa=st.integers(0, 3),
    ob=st.integers(0, 3),
)
def test_division_steps_over_strided_divisors(a, b, sa, sb, oa, ob):
    """Exact division and the pseudo-remainder, which step over the
    nonzero slots of the divisor only, against division by a strided
    divisor and against a pseudo-remainder that steps over every slot."""
    a, b = qfield._trim(_strided(a, sa, oa)), qfield._trim(_strided(b, sb, ob))
    assert qfield._pdiv_exact(qfield._pmul(a, b), b) == a
    r, dg, lg = list(a), len(b) - 1, b[-1]
    while len(r) - 1 >= dg and r:
        c, s = r[-1], len(r) - 1 - dg
        r = [lg * x for x in r[:-1]]
        for i in range(dg):
            r[s + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
    assert qfield._prem(list(a), list(b)) == r


@_fast
@given(a=st.lists(_wide, max_size=8))
def test_content_is_the_gcd_of_every_coefficient(a):
    g = 0
    for x in a:
        g = math.gcd(g, abs(x))
    assert qfield._content(a) == g


# ---------------------------------------------------------------------------
# evaluation at q0 on the integers


def _fraction_horner(a, q0):
    """The value of a at q0 by Horner's rule over Fractions, every step
    normalized: the reference for the integer evaluation."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * q0 + c
    return acc


def _reference_evaluate(x, q0):
    return q0**x.shift * _fraction_horner(x.num, q0) / _fraction_horner(x.den, q0)


_points = st.builds(
    lambda sign, u, v: sign * Fraction(u, v),
    st.sampled_from([1, -1]),
    st.integers(1, 40),
    st.integers(1, 40),
).filter(lambda q0: q0 not in (1, -1))
_canonical = st.builds(
    lambda num, den, sn, sd, on, od, k: QScalar.from_num_den(
        _strided(num, sn, on), _strided(den, sd, od), shift=k
    ),
    st.lists(_wide, max_size=8),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(-6, 6),
)


@_fast
@given(x=_canonical, q0=_points)
def test_evaluate_matches_the_fraction_horner(x, q0):
    """Canonical scalars with strided, negative and wide coefficients, the
    zero scalar among them, at q0 = +-u/v: the integer evaluation gives
    the value of the Fraction Horner loop, or the same pole."""
    if _fraction_horner(x.den, q0) == 0:
        with pytest.raises(EvaluationPole):
            x.evaluate(q0)
        return
    got = x.evaluate(q0)
    assert got.__class__ is Fraction and got == _reference_evaluate(x, q0)


def test_evaluate_of_zero_and_of_an_integer_point():
    assert ZERO.evaluate(Fraction(3, 2)) == 0
    x = QScalar.from_num_den((3, 0, -2), (5, 1), shift=-2)
    for q0 in (2, -2, Fraction(-7, 3)):
        assert x.evaluate(q0) == _reference_evaluate(x, Fraction(q0))


@pytest.mark.parametrize("q0", [0, 1, -1, Fraction(2, 2), Fraction(-3, 3)])
def test_excluded_points_raise_invalid_parameter(q0):
    for x in (ZERO, ONE, qpow(3), (ONE - qpow(2)).inv()):
        with pytest.raises(InvalidParameter, match="is excluded"):
            x.evaluate(q0)


@pytest.mark.parametrize("q0", [2, Fraction(-1, 2), Fraction(3, 2)])
def test_a_vanishing_denominator_raises_a_pole(q0):
    """(1 - q^2)/((2 - q)(1 + 2q)(2 - 3q)) has a pole at each of 2, -1/2 and
    2/3; a zero numerator does not hide it."""
    den = qfield._pmul(qfield._pmul((2, -1), (1, 2)), (2, -3))
    for num in ((1, 0, -1), (1,)):
        x = QScalar.from_num_den(num, den)
        if q0 == Fraction(3, 2):
            assert x.evaluate(q0) == _reference_evaluate(x, Fraction(q0))
            continue
        with pytest.raises(EvaluationPole, match="denominator vanishes"):
            x.evaluate(q0)
