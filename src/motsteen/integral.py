"""Integral and p-adic coefficient rings, and the pullback model.

Each base scheme carries a presentation of its integral (p-completed)
coefficient ring: generators with bidegrees and additive orders, rewrite
rules, and the reduction map q onto the mod-p coefficient ring.  The p-adic
dual Steenrod algebra itself is modeled as the fiber product

    { (z, k) :  z integral coefficient,  k in ker(beta),  q(z) = aug(k) }

where aug kills the xi/tau generators.  Coefficients are exact integers: a
free monomial has additive order 0 and its coefficient is never reduced, and
everything in the augmentation ideal is simple p-torsion.  The one lift kept
here is fiber_coordinate, the coordinates (0, tau^i tau_j) and (0, tau^i xi_j)
of the Z[1/2] relation table; a y class is pb_torsion(y(idx, h), h, ring), and
the U elements of bockstein.constructive_kernel, vectors over the basis
positions of their bidegree, are the other torsion lifts.

Integral monomial shapes per scheme:

  algclosed     tau^k                               Z_p[tau]
  real-p2       rho^a (tau^2)^b, 2 rho = 0          Z_2[rho, tau^2]/2 rho
  real-odd      theta^k                             Z_p[theta]
  finite-field  eps_i, eps_i eps_j = 0,             Z[eps_i]/((q^i-1) eps_i, ...)
                order = p-part of q^i - 1               localized at p
  z-half        rho_1^e rho_k (k odd), eps_k        2 rho = 0, eps_i eps_j = 0,
                w_k eps_k = 0 (k even),             rho eps = 0,
                rho_a rho_b = rho_1 rho_(a+b-1)     e-invariant table w
"""

from __future__ import annotations

from dataclasses import dataclass

from .grading import Bidegree
from .elements import (
    CoeffMonomial,
    Element,
    _unpack,
    mul,
    term_element,
)
from .bockstein import beta
from .steenrod import basis_index, eta
from .schemes import SchemeError


def default_w(k):
    """Additive order of the even-weight integral classes over Z[1/2].

    The classical 2-adic e-invariant exponent: w(0) = 1 and
    w(k) = 2^(v_2(k) + 2) for even k >= 2.
    """
    if k == 0:
        return 1
    if k % 2:
        raise ValueError("w is defined on even weights")
    v = (k & -k).bit_length() - 1
    return 2 ** (v + 2)


def _p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


@dataclass(frozen=True)
class IntCoeffRing:
    """Presentation of the integral coefficient ring of one scheme."""

    scheme: object              # the mod-p SchemePresentation
    w_table: object = None      # callable k -> order, z-half only

    @property
    def p(self):
        return self.scheme.p

    def w(self, k):
        return (self.w_table or default_w)(k)

    # -- monomials ---------------------------------------------------------
    # Monomial keys are small tuples; ("1",) is the unit monomial.

    def unit(self):
        return ("1",)

    def mono_degree(self, mono):
        kind = mono[0]
        if kind == "1":
            return Bidegree(0, 0)
        if kind == "tau":
            return Bidegree(0, -mono[1])
        if kind == "tau2":  # rho^a (tau^2)^b over the reals at p = 2
            a, b = mono[1], mono[2]
            return Bidegree(-a, -a - 2 * b)
        if kind == "theta":
            return Bidegree(0, -2 * mono[1])
        if kind == "eps":
            return Bidegree(-1, -mono[1])
        if kind == "rho":  # rho_1^e rho_k, k odd (k = 1 encodes rho_1^(e+1))
            e, k = mono[1], mono[2]
            return Bidegree(-(e + 1), -(e + 1) - (k - 1))
        raise ValueError(f"unknown integral monomial {mono!r}")

    def mono_order(self, mono):
        """Additive order; 0 for a free monomial."""
        kind = mono[0]
        sid = self.scheme.id
        if kind == "1" or sid == "algclosed" or sid == "real-odd":
            return 0
        if sid == "real-p2":
            a = mono[1]
            return 2 if a else 0
        if sid == "finite-field":
            i = mono[1]
            return _p_part(self.scheme.q**i - 1, self.p)
        if sid == "z-half":
            if kind == "rho":
                return 2
            k = mono[1]
            return self.w(k) if k % 2 == 0 else 0
        raise SchemeError(f"no integral presentation for scheme {sid}")

    def mono_mul(self, m1, m2):
        """Product of two monomial keys: (scalar multiplier, monomial) or None for 0."""
        if m1[0] == "1":
            return 1, m2
        if m2[0] == "1":
            return 1, m1
        k1, k2 = m1[0], m2[0]
        sid = self.scheme.id
        if sid == "algclosed" and k1 == k2 == "tau":
            return 1, ("tau", m1[1] + m2[1])
        if sid == "real-odd" and k1 == k2 == "theta":
            return 1, ("theta", m1[1] + m2[1])
        if sid == "real-p2" and k1 == k2 == "tau2":
            return 1, ("tau2", m1[1] + m2[1], m1[2] + m2[2])
        if sid == "finite-field" and k1 == k2 == "eps":
            return None  # eps_i eps_j = 0
        if sid == "z-half":
            if "eps" in (k1, k2):
                return None  # eps eps = 0, rho eps = 0
            # rho_1^e1 rho_k1 * rho_1^e2 rho_k2 = rho_1^(e1+e2+1) rho_(k1+k2-1)
            e1, kk1 = m1[1], m1[2]
            e2, kk2 = m2[1], m2[2]
            k = kk1 + kk2 - 1
            e = e1 + e2 + 1
            return 1, ("rho", e, k)
        raise SchemeError(f"cannot multiply {m1!r} * {m2!r} over {sid}")

    # -- elements ----------------------------------------------------------

    def normalize(self, pairs):
        """Sum the (coefficient, monomial) pairs; only torsion coefficients
        are reduced, modulo their order."""
        out = {}
        for coeff, mono in pairs:
            order = self.mono_order(mono)
            v = out.get(mono, 0) + coeff
            if order:
                v %= order
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
        return IntElement(self, out)

    def element(self, coeff, mono=None):
        return self.normalize([(coeff, mono or self.unit())])

    def zero(self):
        return IntElement(self, {})

    def presentation(self):
        """(named generator monomials within one index period, relations),
        as `present` prints them."""
        try:
            return _PRESENTATIONS[self.scheme.id]
        except KeyError:
            raise SchemeError(f"no integral presentation for scheme {self.scheme.id}") from None


# Per scheme: the display generators and the relation text of its integral
# coefficient ring.  mono_degree, mono_order and mono_mul stay hand-written,
# so z12 can hold the integral products to elements.mul on the q-images.
_PRESENTATIONS = {
    "algclosed": ([("tau", ("tau", 1))], []),
    "real-p2": ([("rho", ("tau2", 1, 0)), ("tau^2", ("tau2", 0, 1))], ["2*rho"]),
    "real-odd": ([("theta", ("theta", 1))], []),
    "finite-field": (
        [(f"eps_{i}", ("eps", i)) for i in (1, 2, 3)],
        ["(q^i - 1)*eps_i", "eps_i*eps_j"],
    ),
    "z-half": (
        [
            ("rho_1", ("rho", 0, 1)),
            ("rho_3", ("rho", 0, 3)),
            ("eps_1", ("eps", 1)),
            ("eps_2", ("eps", 2)),
        ],
        [
            "2*rho_(2i+1)", "w(2i)*eps_(2i)", "rho_(2i+1)*eps_j", "eps_i*eps_j",
            "rho_(2i+1)*rho_(2j+1) + rho_1*rho_(2(i+j)+1)",
        ],
    ),
}


class IntElement:
    """Finite sum of (coefficient, monomial) over one integral ring.

    Like Element, it takes ownership of the terms dict it is given.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, IntElement)
            and self.ring.scheme.id == other.ring.scheme.id
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def scaled(self, n):
        return self.ring.normalize([(n * c, m) for m, c in self.terms.items()])

    def __mul__(self, other):
        pairs = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = self.ring.mono_mul(m1, m2)
                if hit is None:
                    continue
                s, m = hit
                pairs.append((c1 * c2 * s, m))
        return self.ring.normalize(pairs)

    def homogeneous_bidegree(self):
        if not self.terms:
            return None
        degs = {self.ring.mono_degree(m) for m in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous integral element")
        return degs.pop()

    def __repr__(self):
        if not self.terms:
            return "<IntElement 0>"
        bits = " + ".join(
            f"{c}*{m}" for m, c in sorted(self.terms.items(), key=lambda kv: kv[0])
        )
        return f"<IntElement {bits}>"


# ---------------------------------------------------------------------------
# Reduction to the mod-p coefficient ring


def q_map(z, h):
    """The degree-preserving reduction onto the mod-p coefficient ring.

    algclosed/real/real-odd: literal reduction mod p; finite fields send
    eps_i to eps tau^(i-1); over Z[1/2], rho_k goes to rho tau^(k-1) and
    eps_k to eps tau^(k-1).
    """
    ring = z.ring
    p = ring.p
    out = Element.zero(p)
    for mono, c in z.terms.items():
        kind = mono[0]
        if kind == "1":
            cm = CoeffMonomial()
        elif kind == "tau":
            cm = CoeffMonomial(tau=mono[1])
        elif kind == "theta":
            cm = CoeffMonomial(theta=mono[1])
        elif kind == "tau2":
            cm = CoeffMonomial(rho=mono[1], tau=2 * mono[2])
        elif kind == "eps":
            cm = CoeffMonomial(eps=1, tau=mono[1] - 1)
        elif kind == "rho":
            e, k = mono[1], mono[2]
            cm = CoeffMonomial(rho=e + 1, tau=k - 1)
        else:
            raise ValueError(f"unknown integral monomial {mono!r}")
        out = out + term_element(p, c, cm)
    return out


def augment(k_el, h):
    """ker(beta) -> mod-p coefficients: kill every xi/tau generator."""
    out = Element.zero(k_el.p)
    for k, s in k_el.terms.items():
        c, m = _unpack(k)
        if m.is_one():
            out = out + term_element(k_el.p, s, c)
    return out


# ---------------------------------------------------------------------------
# The pullback model


class PullbackError(ValueError):
    pass


@dataclass(frozen=True)
class PullbackElement:
    """A compatible pair (integral coefficient, Bockstein cycle)."""

    z: IntElement
    k: Element
    handle: object               # mz-form AlgebraHandle
    in_ker_beta: bool = True     # False for bare fiber-product coordinates

    def __post_init__(self):
        h = self.handle
        if q_map(self.z, h) != augment(self.k, h):
            raise PullbackError("q(z) != augment(k): incompatible pair")
        if self.in_ker_beta and not beta(self.k, h).is_zero():
            raise PullbackError("k component is not a Bockstein cycle")

    def is_zero(self):
        return self.z.is_zero() and self.k.is_zero()

    def bidegree(self):
        dz = self.z.homogeneous_bidegree()
        dk = self.k.homogeneous_bidegree(self.handle.scheme)
        if dz is not None and dk is not None and dz != dk:
            raise PullbackError("components live in different bidegrees")
        return dz if dz is not None else dk

    def scaled(self, n):
        return PullbackElement(
            self.z.scaled(n), self.k.scaled(n), self.handle, self.in_ker_beta
        )


def pb_mul(x, y_el):
    """Componentwise product in the fiber product; compatibility re-verified."""
    if x.handle != y_el.handle:
        raise PullbackError("pullback elements over different schemes")
    return PullbackElement(
        x.z * y_el.z,
        mul(x.k, y_el.k, x.handle),
        x.handle,
        x.in_ker_beta and y_el.in_ker_beta,
    )


def pb_torsion(k_el, h, ring, require_cycle=True):
    """The pure-torsion element (0, k)."""
    return PullbackElement(ring.zero(), k_el, h, require_cycle)


# ---------------------------------------------------------------------------
# The Z[1/2] fiber coordinates


def fiber_coordinate(kind, j, i, h, ring):
    """The fiber-product coordinate (0, tau^i tau_j) ("tau_ji") or
    (0, tau^i xi_j) ("xi_ji") over Z[1/2].  It is not a Bockstein cycle on
    its own, so only the compatibility check runs."""
    if h.scheme.id != "z-half":
        raise PullbackError("fiber coordinates need the Z[1/2] base")
    if kind == "tau_ji":
        idx = basis_index({}, [j])
    elif kind == "xi_ji":
        idx = basis_index({j: 1}, [])
    else:
        raise PullbackError(f"unknown fiber coordinate {kind!r}")
    tau_i = term_element(h.p, 1, CoeffMonomial(tau=i))
    return pb_torsion(mul(tau_i, eta(idx, h), h), h, ring, require_cycle=False)
