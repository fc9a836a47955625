"""Simple S-module realizations and the induced weight modules over Dq.

Each quotient family pins two primed generators to scalars sigma, tau
(with sigma*tau = 0) and realizes the module on monomials in the other
two.  Weight modules stack copies of a base module along an eigenvalue
ladder: one distinguished torus generator acts diagonally, the other
shifts layers, and S acts layerwise.  Probes certify cyclicity up to a
multiplier degree and estimate growth exponents from filtration counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegreeTooSmall, NegativePowerOfNonInvertible, TruncationOverflow
from .errors import WrongOrder, ZeroVector
from .presets import S_ORDERS, AlgebraParams, factorize_D, make_Dq, make_S
from .ideals import Echelon
from .qfield import ONE, add_scaled, qpow, scalar_is_simple
from .rewrite import Element, substitute

# family -> (order, {generator acting by sigma, generator acting by tau})
FAMILY_SCALARS = {
    "J1": {"bp": "sigma", "cp": "tau"},
    "J2": {"bp": "sigma", "Ep": "tau"},
    "J3": {"Fp": "sigma", "cp": "tau"},
    "J4": {"Fp": "sigma", "Ep": "tau"},
}


@dataclass
class QuotientModule:
    """S/J_k(sigma, tau) on the monomial basis of its first two generators."""

    family: str
    sigma: object
    tau: object
    params: AlgebraParams

    def __post_init__(self):
        if self.family not in FAMILY_SCALARS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sigma and self.tau:
            raise ValueError("sigma * tau must vanish")
        self.order = S_ORDERS[self.family]
        self.spres = make_S(self.params, self.order)
        assignment = FAMILY_SCALARS[self.family]
        self._scalars = {
            self.spres.index[g]: (self.sigma if which == "sigma" else self.tau)
            for g, which in assignment.items()
        }
        self._letter_cache: dict = {}

    # -- vectors --------------------------------------------------------------

    def cyclic_vector(self) -> dict:
        return {(0, 0): ONE}

    def basis_vector(self, i, j, coeff=ONE) -> dict:
        if int(i) < 0 or int(j) < 0:
            raise NegativePowerOfNonInvertible(f"basis vector ({i}, {j}) needs exponents >= 0")
        return {(int(i), int(j)): coeff}

    def dim_filtration(self, d: int) -> int:
        """Number of basis vectors of degree <= d: a lattice count, not the
        rank of the action."""
        return (d + 1) * (d + 2) // 2

    # -- action -----------------------------------------------------------------

    def _collapse(self, s_el: Element) -> dict:
        """Turn an S element into vector terms by scalar-collapsing the
        trailing two generators."""
        out = {}
        for mono, c in s_el.terms.items():
            coeff = c
            for gi in (3, 2):
                e = mono[gi]
                if e:
                    coeff = coeff * self._scalars[gi] ** e
                    if not coeff:
                        break
            if coeff:
                add_scaled(out, {(mono[0], mono[1]): coeff})
        return out

    def _letter_action(self, gi: int, key) -> dict:
        cached = self._letter_cache.get((gi, key))
        if cached is None:
            mono = [0, 0, 0, 0]
            mono[0], mono[1] = key
            prod = self.spres.multiply(
                self.spres.gen(self.spres.table.names[gi]), self.spres.monomial(tuple(mono))
            )
            cached = self._collapse(prod)
            self._letter_cache[(gi, key)] = cached
        return cached

    def act(self, s: Element, vec: dict) -> dict:
        """Exact action of an S element; result may be the zero vector."""
        if s.pres.table.names != self.spres.table.names:
            raise WrongOrder(
                f"element is over order {s.pres.table.names}, module uses {self.order}"
            )
        out: dict = {}
        for mono, c in s.terms.items():
            current = {k: v * c for k, v in vec.items()}
            for gi in (3, 2, 1, 0):
                e = mono[gi]
                if not e or not current:
                    continue
                for _ in range(e):
                    nxt: dict = {}
                    for key, coeff in current.items():
                        add_scaled(nxt, self._letter_action(gi, key), coeff)
                    current = nxt
            add_scaled(out, current)
        return out

    def render_vector(self, vec: dict) -> str:
        if not vec:
            return "0"
        g1, g2 = self.order[0], self.order[1]
        bits = []
        for (i, j) in sorted(vec, key=_vec_key_order):
            c = vec[(i, j)]
            ctext = str(c) if scalar_is_simple(c) else f"({c})"
            mono = "*".join(
                ([f"{g1}^{i}"] if i else []) + ([f"{g2}^{j}"] if j else [])
            )
            body = f"{ctext}*{mono}.v" if mono else f"{ctext}.v"
            bits.append(body)
        return " + ".join(bits)


@dataclass
class WeightModule:
    """Ladder of base-module copies indexed by a truncated layer window."""

    kind: str                      # "K" or "a"
    lam: object                    # eigenvalue of the diagonal generator at layer 0
    base: QuotientModule
    truncation: int

    def __post_init__(self):
        if self.kind not in ("K", "a"):
            raise ValueError("kind must be 'K' or 'a'")
        if not self.lam:
            raise ValueError("base eigenvalue must be nonzero")
        if self.truncation < 0:
            raise ValueError("truncation window must be >= 0")
        self.dq = make_Dq(self.base.params)
        # act moves the J1-order S parts of factorize_D onto these generators
        spres = self.base.spres
        self._to_base = {g: spres.gen(g) for g in spres.table.names}
        self._to_base_cache: dict = {}

    def basis_vector(self, t, i, j, coeff=ONE) -> dict:
        if abs(t) > self.truncation:
            raise TruncationOverflow(f"layer {t} outside window {self.truncation}")
        (key,) = self.base.basis_vector(i, j)
        return {(int(t), *key): coeff}

    def eigenvalue(self, t):
        """Diagonal-generator eigenvalue on layer t."""
        if self.kind == "K":
            return self.lam * qpow(-t)
        return self.lam * qpow(t)

    def support(self):
        """Eigenvalues realized on the truncated window."""
        return {self.eigenvalue(t) for t in range(-self.truncation, self.truncation + 1)}

    def act(self, x: Element, vec: dict) -> dict:
        """Action of a Dq element through the torus (x) S factorization.

        The S part acts layerwise, the shifting torus generator moves the
        layer, and the diagonal one contributes its eigenvalue; for the
        K-weight kind the diagonal factor K^k is applied after the shift
        by a^l, for the a-weight kind a^l acts before the shift by K^k.
        """
        out: dict = {}
        spres = self.base.spres
        for (k, l), s_el in factorize_D(self.base.params, x):
            if s_el.pres.table.names != spres.table.names:
                s_el = substitute(s_el, self._to_base, spres, self._to_base_cache)
            shift, diag_exp = (l, k) if self.kind == "K" else (k, l)
            for (t, i, j), c in vec.items():
                acted = self.base.act(s_el, {(i, j): c})
                if not acted:
                    continue
                t2 = t + shift
                if abs(t2) > self.truncation:
                    raise TruncationOverflow(
                        f"shift to layer {t2} leaves window {self.truncation}"
                    )
                diag_layer = t2 if self.kind == "K" else t
                scal = self.eigenvalue(diag_layer) ** diag_exp if diag_exp else ONE
                add_scaled(out, {(t2, i2, j2): c2 for (i2, j2), c2 in acted.items()}, scal)
        return out

    def dim_filtration(self, d: int) -> int:
        """2d+1 layers of the base count: a lattice count that ignores the
        truncation window, not the rank of the action."""
        return (2 * d + 1) * self.base.dim_filtration(d)


def support(wm: WeightModule):
    return wm.support()


# ---------------------------------------------------------------------------
# probes


def _vec_key_order(key):
    return (key[0] + key[1], key)


def _exponents_of_degree(total: int, width: int):
    """Tuples of `width` exponents >= 0 summing to `total`, in
    lexicographic order."""
    if width == 1:
        yield (total,)
        return
    for e in range(total + 1):
        for rest in _exponents_of_degree(total - e, width - 1):
            yield (e,) + rest


def cyclicity_probe(mod: QuotientModule, w: dict, mult_degree: int) -> str:
    """Span {s.w : s a normal monomial of degree <= mult_degree} by exact
    elimination; Cyclic when the cyclic vector lies in the span, otherwise
    Undetermined (a finite probe cannot refute simplicity)."""
    if not w:
        raise ZeroVector("probe needs a nonzero vector")
    if mult_degree < 0:
        raise DegreeTooSmall("probe needs a multiplier degree >= 0")
    echelon = Echelon(_vec_key_order)
    target = mod.cyclic_vector()
    for total in range(mult_degree + 1):
        for exps in _exponents_of_degree(total, 4):
            if echelon.insert(mod.act(mod.spres.monomial(exps), w)) is not None:
                target = echelon.reduce(target)
                if not target:
                    return "Cyclic"
    return "Undetermined"


def growth_exponent(obj, d_max: int) -> float:
    """Least-squares slope of log dim against log d over the top half of
    the degree range; polynomial growth of degree r gives a slope near r."""
    if d_max < 8:
        raise DegreeTooSmall("growth fit needs d_max >= 8")
    ds = list(range(max(1, d_max // 2), d_max + 1))
    xs = [math.log(d) for d in ds]
    ys = [math.log(obj.dim_filtration(d)) for d in ds]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den
