"""Exact arithmetic in Q(q): rational functions in a formal parameter q.

A scalar is stored as q^shift * num(q) / den(q) with integer-coefficient
polynomials num, den whose constant terms are nonzero.  The representation
is canonical (see QScalar), so equality and hashing are structural.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import EvaluationPole, InvalidParameter

# ---------------------------------------------------------------------------
# integer polynomials as tuples, constant coefficient first, no trailing zeros


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    """Schoolbook product over the nonzero slots of both operands: S
    scalars are polynomials in q^(2d^2), so most slots are zero."""
    if not a or not b:
        return ()
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                out[i + j] += x * y
    return _trim(out)


def _content(a):
    g = 0
    for x in a:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _pscale_exact(a, k):
    return tuple(x // k for x in a)


def _prim(c):
    """Trim and divide out the integer content (sign kept); list in, list out."""
    while c and c[-1] == 0:
        c.pop()
    g = _content(c)
    if g > 1:
        c = [x // g for x in c]
    return c


def _prem(f, g):
    """Integer pseudo-remainder of f by g (lists, g nonzero), over the
    nonzero slots of g below its leading one."""
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    nonzero = [(i, y) for i, y in enumerate(g[:-1]) if y]
    while len(r) - 1 >= dg and r:
        c = r[-1]
        s = len(r) - 1 - dg
        r = [lg * x for x in r[:-1]]
        for i, y in nonzero:
            r[s + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return r


# gcds already computed, by (a, b); emptied when it reaches _PGCD_MEMO_CAP
# entries (under 1 KB each), so that it cannot grow without limit
_PGCD_MEMO: dict = {}
_PGCD_MEMO_CAP = 1 << 15


def _pgcd(a, b):
    """Primitive gcd in Z[q], positive leading coefficient (primitive PRS)."""
    key = (a, b)
    cached = _PGCD_MEMO.get(key)
    if cached is not None:
        return cached
    fa = _prim(list(a))
    fb = _prim(list(b))
    while fb:
        fa, fb = fb, _prim(_prem(fa, fb))
    if fa[-1] < 0:
        fa = [-x for x in fa]
    out = tuple(fa)
    if len(_PGCD_MEMO) >= _PGCD_MEMO_CAP:
        _PGCD_MEMO.clear()
    _PGCD_MEMO[key] = out
    return out


def _pdiv_exact(a, b):
    """Exact quotient a/b in Z[q]; b must divide a, so every synthetic
    division step stays integral.  Each step runs over the nonzero slots
    of b below its leading one."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    nonzero = [(i, y) for i, y in enumerate(b[:-1]) if y]
    q = [0] * (len(a) - len(b) + 1)
    while len(r) - 1 >= db and r:
        c, rem = divmod(r.pop(), lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        s = len(r) - db
        q[s] = c
        for i, y in nonzero:
            r[s + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    if r:
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def _peval(a, u, v):
    """sum c_i*u^i*v^(d-i) over the d+1 coefficients c_i of a: v^d times
    the value of a at q = u/v, by Horner's rule on the integers, so that
    the caller divides once (Knuth, TAOCP vol. 2, sec. 4.6.4)."""
    acc = 0
    w = 1
    for c in reversed(a):
        acc = acc * u + c * w
        w *= v
    return acc


def _poly_parts(coeffs, shift=0):
    """Signed terms [(sign, body), ...] of sum c*q^k; exponents run from
    `shift` upward."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        k = shift + i
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = "q" if k == 1 else f"q^{k}"
        else:
            body = f"{mag}*q" if k == 1 else f"{mag}*q^{k}"
        parts.append(("-" if c < 0 else "+", body))
    return parts


def _join_parts(parts, flip=False):
    """Text of signed terms, every sign reversed with `flip`."""
    if not parts:
        return "0"
    signs = {"+": "-", "-": "+"} if flip else {"+": "+", "-": "-"}
    sign0, body0 = parts[0]
    text = ("-" if signs[sign0] == "-" else "") + body0
    for sign, body in parts[1:]:
        text += f" {signs[sign]} {body}"
    return text


# ---------------------------------------------------------------------------


class QScalar:
    """Canonical rational function in q over the rationals.

    Invariants: num and den have nonzero constant coefficients (the q-power
    is pulled into `shift`), their primitive parts are coprime, their integer
    contents are coprime, and den's constant coefficient is positive.  Zero
    is (0, (), (1,)).  Canonical form makes __eq__/__hash__ structural.
    """

    __slots__ = ("shift", "num", "den")

    def __init__(self, value=0):
        # each value is canonical as it stands: an int or a Fraction in
        # lowest terms (positive denominator) is a constant num over den
        if isinstance(value, QScalar):
            shift, num, den = value.shift, value.num, value.den
        elif isinstance(value, int):
            shift, num, den = 0, ((value,) if value else ()), (1,)
        elif isinstance(value, Fraction):
            shift = 0
            num = (value.numerator,) if value.numerator else ()
            den = (value.denominator,)
        else:
            raise TypeError(f"cannot build QScalar from {type(value).__name__}")
        self.shift, self.num, self.den = shift, num, den

    @classmethod
    def _raw(cls, shift, num, den):
        self = object.__new__(cls)
        self.shift, self.num, self.den = shift, num, den
        return self

    @classmethod
    def from_num_den(cls, num, den, shift=0):
        """Build from raw integer coefficient sequences (constant first)."""
        return cls._raw(*_canon(shift, _trim(num), _trim(den)))

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.shift == 0 and self.num == (1,) and self.den == (1,)

    def is_q_power(self):
        """True when the value is exactly q^k for some integer k."""
        return self.num == (1,) and self.den == (1,)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return QScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        v = min(self.shift, o.shift)
        a = _qshift(self.num, self.shift - v)
        b = _qshift(o.num, o.shift - v)
        if self.den == o.den:
            # a shared denominator: add the numerators over it, not over den^2
            return QScalar._raw(*_canon(v, _padd(a, b), self.den))
        a = _pmul(a, o.den)
        b = _pmul(b, self.den)
        return QScalar._raw(*_canon(v, _padd(a, b), _pmul(self.den, o.den)))

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return QScalar._raw(self.shift, _pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if other.__class__ is QScalar:
            o = other
        elif other.__class__ is int:
            if not other or not self.num:
                return ZERO
            return self._scaled(0, other)
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        num, onum = self.num, o.num
        if not num or not onum:
            return ZERO
        if o.den == (1,) and len(onum) == 1:
            if self.den == (1,) and len(num) == 1:
                # c1*q^k1 * c2*q^k2: a product of monomials is canonical
                return QScalar._raw(self.shift + o.shift, (num[0] * onum[0],), (1,))
            return self._scaled(o.shift, onum[0])
        if self.den == (1,) and len(num) == 1:
            return o._scaled(self.shift, num[0])
        return QScalar._raw(
            *_canon(self.shift + o.shift, _pmul(num, onum), _pmul(self.den, o.den))
        )

    __rmul__ = __mul__

    def _scaled(self, k, c):
        """self * c*q^k, canonical without a polynomial gcd: scaling by c
        leaves gcd(num, den) alone, and after dividing by
        g = gcd(c, content(den)) the contents stay coprime."""
        if not k and c == 1:
            return self  # scalars are immutable, so the product can share it
        num, den = self.num, self.den
        if c != 1:
            if den != (1,):
                g = gcd(c, _content(den))
                if g > 1:
                    c //= g
                    den = _pscale_exact(den, g)
            num = tuple([x * c for x in num])
        return QScalar._raw(self.shift + k, num, den)

    def inv(self) -> "QScalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return QScalar._raw(*_canon(-self.shift, self.den, self.num))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return ONE
        if self.is_q_power():
            return qpow(self.shift * k)
        base = self if k > 0 else self.inv()
        k = abs(k)
        acc = ONE
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.shift == o.shift and self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.shift == 0 and len(self.num) <= 1 and len(self.den) == 1:
            return hash(Fraction(self.num[0] if self.num else 0, self.den[0]))
        return hash((self.shift, self.num, self.den))

    # -- evaluation / rendering ----------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0; q0 must avoid {0, 1, -1} and poles."""
        q0 = Fraction(q0)
        if q0 in (0, 1, -1):
            raise InvalidParameter(f"q = {q0} is excluded (root of unity or zero)")
        u, v = q0.numerator, q0.denominator
        bottom = _peval(self.den, u, v)
        if bottom == 0:
            raise EvaluationPole(f"denominator vanishes at q = {q0}")
        top = _peval(self.num, u, v)
        # (u/v)^shift * (top / v^(len(num)-1)) / (bottom / v^(len(den)-1))
        k, s = len(self.den) - len(self.num) - self.shift, self.shift
        if s > 0:
            top *= u**s
        elif s < 0:
            bottom *= u**-s
        if k > 0:
            top *= v**k
        elif k < 0:
            bottom *= v**-k
        return Fraction(top, bottom)

    def __str__(self):
        return self._texts()[0]

    def _texts(self):
        """(str(self), str(-self)), each polynomial rendered once."""
        if not self.num:
            return "0", "0"
        parts = _poly_parts(self.num, self.shift)
        texts = (_join_parts(parts), _join_parts(parts, flip=True))
        if self.den == (1,):
            return texts
        den_parts = _poly_parts(self.den)
        right = _join_parts(den_parts)
        if len(den_parts) > 1:
            right = f"({right})"
        if len(parts) > 1:
            texts = tuple(f"({t})" for t in texts)
        return tuple(f"{t}/{right}" for t in texts)

    def __repr__(self):
        return f"QScalar({self})"


def _qshift(poly, k):
    """Multiply an integer polynomial by q^k, k >= 0."""
    if k == 0 or not poly:
        return poly
    return (0,) * k + tuple(poly)


def _canon(shift, num, den):
    if not den:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if not num:
        return 0, (), (1,)
    i = 0
    while num[i] == 0:
        i += 1
    if i:
        shift += i
        num = num[i:]
    if den == (1,):
        return shift, tuple(num), (1,)
    j = 0
    while den[j] == 0:
        j += 1
    if j:
        shift -= j
        den = den[j:]
    if len(num) > 1 and len(den) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
    cg = _content(num)
    if cg > 1:
        cg = gcd(cg, _content(den))
    if cg > 1:
        num = _pscale_exact(num, cg)
        den = _pscale_exact(den, cg)
    if den[0] < 0:
        num = _pneg(num)
        den = _pneg(den)
    return shift, tuple(num), tuple(den)


ZERO = QScalar(0)
ONE = QScalar(1)

# q^k already built, by k; emptied when it reaches _QPOW_CACHE_CAP entries,
# since closed-form products meet ever new exponents
_QPOW_CACHE: dict[int, QScalar] = {}
_QPOW_CACHE_CAP = 1 << 12


def qpow(k: int) -> QScalar:
    """Canonical q^k."""
    s = _QPOW_CACHE.get(k)
    if s is None:
        s = QScalar._raw(k, (1,), (1,))
        if len(_QPOW_CACHE) >= _QPOW_CACHE_CAP:
            _QPOW_CACHE.clear()
        _QPOW_CACHE[k] = s
    return s


# ---------------------------------------------------------------------------
# coefficient helpers (duck-typed over QScalar / Fraction / int)


def add_scaled(out: dict, terms: dict, c=None) -> dict:
    """Add c * terms (terms itself when c is None) into `out` and return it.

    A key whose sum is zero is dropped.  A key new to `out` takes the
    product as it is, so int and Fraction coefficients keep their type;
    a product with the int 1 on either side is the other factor, which has
    the product's type, so it is not computed.
    """
    if c.__class__ is int and c == 1:
        c = None
    for k, v in terms.items():
        if c is not None:
            v = c if v.__class__ is int and v == 1 else c * v
        prev = out.get(k)
        s = v if prev is None else prev + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def evaluate(c, q0) -> Fraction:
    """Exact value of a coefficient at q = q0; an int or a Fraction is its
    own value."""
    return c.evaluate(q0) if isinstance(c, QScalar) else Fraction(c)


def inverse(c):
    """Exact 1/c of a QScalar, Fraction or int; an int gives a Fraction."""
    if isinstance(c, QScalar):
        return c.inv()
    return Fraction(1) / c


def signed_texts(c):
    """(str(c), str(-c)); a QScalar renders its polynomials once."""
    return c._texts() if isinstance(c, QScalar) else (str(c), str(-c))


def scalar_is_negative(c) -> bool:
    if isinstance(c, QScalar):
        return bool(c.num) and c.num[-1] < 0
    return c < 0


def scalar_is_simple(c) -> bool:
    """True when the coefficient renders as a single product-safe factor."""
    if isinstance(c, QScalar):
        # canonical num has nonzero end coefficients: one term means length 1
        return len(c.den) == 1 and len(c.num) <= 1
    return True
