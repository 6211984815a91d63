"""Base scheme presentations: the mod-p coefficient ring of each supported base.

A scheme presentation records, for one base and one prime, the coefficient
generators with their bidegrees, the multiplicative relations among them
(nilpotence caps and annihilating pairs), the distinguished class playing the
role of rho in the p=2 Milnor relation, and the coefficient Bockstein.

Supported bases:

  algclosed    F_p[tau]                        (algebraically closed field)
  real-p2      F_2[rho, tau], beta tau = rho   (the real numbers, p = 2)
  real-odd     F_p[theta]                      (the real numbers, p odd)
  finite-field F_p[tau, eps]/eps^2             (F_q, p dividing q - 1)
  z-half       F_2[tau, rho, eps]/(eps rho, eps^2), beta tau = rho  (Z[1/2])

plus an internal coefficient-free presentation ("bare") used for the
tensor-factor model of the dual Steenrod algebra, where the odd generators
square to zero at every prime.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import attrgetter

from .grading import Bidegree

# canonical order of coefficient generator symbols (also the print order)
COEFF_ORDER = ("theta", "eps", "rho", "tau")

_DEGREES = {
    "tau": Bidegree(0, -1),
    "rho": Bidegree(-1, -1),
    "eps": Bidegree(-1, -1),
    "theta": Bidegree(0, -2),
}


class SchemeError(ValueError):
    """Invalid scheme/prime/q combination or foreign generator."""


# p and q must lie below 2^64, where Miller-Rabin on these bases decides
# primality exactly (it does below 3.3 * 10^24)
_LIMIT = 1 << 64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin on the bases 2, ..., 37: exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, k):
    """The integer k-th root of n >= 1, rounded down: Newton's method from
    2^ceil(bits / k), which lies above it, descends to it exactly."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime_power(n):
    if n < 2:
        return False
    return any(_is_prime(r) for k in range(1, n.bit_length() + 1)
               if (r := _iroot(n, k)) ** k == n)


class SchemePresentation:
    """One base scheme at one prime: frozen, compared on all eight fields.

    The two dicts stay out of the hash (equality still compares them), so a
    presentation, and a handle wrapping it, can key functools caches.
    """

    _FIELDS = ("id", "p", "q", "gens", "caps", "zero_pairs", "rho_element", "coeff_bockstein")

    def __init__(
        self, id, p, q=None, gens=(),
        caps=None,                  # name -> max exponent
        zero_pairs=frozenset(),     # {frozenset({g1,g2})}: g1*g2 = 0
        rho_element=None,           # None means rho = 0
        coeff_bockstein=None,       # beta(name) = name
    ):
        vars(self).update(
            id=id, p=p, q=q, gens=gens, caps={} if caps is None else caps,
            zero_pairs=zero_pairs, rho_element=rho_element,
            coeff_bockstein={} if coeff_bockstein is None else coeff_bockstein,
            # every memo lookup keyed by a handle hashes its presentation:
            # hash the fields once per presentation
            _hash=hash((id, p, q, gens, zero_pairs, rho_element)),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen SchemePresentation")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen SchemePresentation")

    _values = property(attrgetter(*_FIELDS))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return self._hash

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._FIELDS, self._values))
        return f"SchemePresentation({args})"

    @cached_property
    def relation_positions(self):
        """(caps, pairs, foreign, odd) as positions in a CoeffMonomial: ((i, max
        exponent), ...), the position tuples of vanishing products, the absent
        generators, the generators of odd topological degree."""
        pos = COEFF_ORDER.index
        return (
            tuple((pos(name), cap) for name, cap in self.caps.items()),
            tuple(tuple(pos(name) for name in pair) for pair in self.zero_pairs),
            tuple(i for i, name in enumerate(COEFF_ORDER) if name not in self.gens),
            tuple(pos(name) for name in self.gens if _DEGREES[name].d & 1),
        )

    def degree(self, name):
        if name not in self.gens:
            raise SchemeError(f"generator {name!r} not present for scheme {self.id}")
        return _DEGREES[name]

    def describe(self):
        rel = []
        for g, cap in sorted(self.caps.items()):
            rel.append(f"{g}^{cap + 1}")
        for pair in sorted(tuple(sorted(s)) for s in self.zero_pairs):
            rel.append("*".join(pair))
        return {
            "scheme": self.id,
            "p": self.p,
            **({"q": self.q} if self.q is not None else {}),
            "generators": [
                {"name": g, "bidegree": list(_DEGREES[g])} for g in self.gens
            ],
            "relations": rel,
            "rho": self.rho_element or "0",
            "bockstein": {g: t for g, t in sorted(self.coeff_bockstein.items())},
        }


def make_scheme(scheme_id, p, q=None):
    """Build the presentation for one base scheme at the prime p, once per
    (scheme_id, p, q) however they are passed, so that a memo finds equal
    handles by identity; "real" gives the presentation of the id it names."""
    return _make_scheme(scheme_id, p, q)


@cache
def _make_scheme(scheme_id, p, q):
    for name, n in (("p", p), ("q", q)):
        if n is not None and n >= _LIMIT:
            raise SchemeError(f"{name} must be below 2^64")
    if not _is_prime(p):
        raise SchemeError(f"p = {p} is not prime")
    if q is not None and scheme_id != "finite-field":
        raise SchemeError(f"q applies only to finite-field, not {scheme_id}")

    if scheme_id == "algclosed":
        return SchemePresentation("algclosed", p, gens=("tau",))

    if scheme_id == "real":
        return _make_scheme("real-p2" if p == 2 else "real-odd", p, None)

    if scheme_id in ("real-p2", "real-odd"):
        if scheme_id == "real-p2":
            if p != 2:
                raise SchemeError("real-p2 requires p = 2")
            return SchemePresentation(
                "real-p2", 2, gens=("rho", "tau"),
                rho_element="rho", coeff_bockstein={"tau": "rho"},
            )
        if p == 2:
            raise SchemeError("real-odd requires an odd prime")
        return SchemePresentation("real-odd", p, gens=("theta",))

    if scheme_id == "finite-field":
        if q is None:
            raise SchemeError("finite-field requires q")
        if not _is_prime_power(q):
            raise SchemeError(f"q = {q} is not a prime power")
        if q % p == 0:
            raise SchemeError("finite-field requires p not dividing q")
        if (q - 1) % p != 0:
            # H^{0,1}(F_q; Z/p) = mu_p(F_q) is zero, so tau is no class there
            raise SchemeError(f"finite-field requires p dividing q - 1 (p = {p}, q = {q})")
        exceptional = (q - 1) % (p * p) != 0  # p divides q-1 exactly once
        rho = None
        if p == 2:
            # -1 is a square in F_q iff q = 1 mod 4
            rho = "eps" if q % 4 == 3 else None
        return SchemePresentation(
            "finite-field", p, q=q,
            gens=("eps", "tau"), caps={"eps": 1},
            rho_element=rho,
            coeff_bockstein={"tau": "eps"} if exceptional else {},
        )

    if scheme_id == "z-half":
        if p != 2:
            raise SchemeError("z-half requires p = 2")
        return SchemePresentation(
            "z-half", 2, gens=("eps", "rho", "tau"), caps={"eps": 1},
            zero_pairs=frozenset({frozenset({"eps", "rho"})}),
            rho_element="rho", coeff_bockstein={"tau": "rho"},
        )

    if scheme_id == "bare":
        return SchemePresentation("bare", p)

    raise SchemeError(f"unknown scheme {scheme_id!r}")
