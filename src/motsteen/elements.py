"""Bigraded elements of the mod-p dual Steenrod algebras.

A monomial is a triple

    coefficient part | xi part | tau part

where the coefficient part is a monomial in the base scheme's generators
(theta, eps, rho, tau), the xi part is a finitely supported exponent vector on
the even Milnor generators xi_1, xi_2, ..., and the tau part is a finite set
of indices of the odd generators tau_j.  Two ambient algebras share this
shape:

  * the full dual Steenrod algebra ("a"): tau indices >= 0, coefficient
    symbols carry the right unit and have zero Bockstein;
  * the integral-target form ("mz"): tau indices >= 1, coefficient symbols
    carry the left unit and the scheme's coefficient Bockstein.

Elements hold normalized monomials only.  Where the tau sets of two factors
meet, mul rewrites the product: at p = 2

    tau_j^2 -> xi_{j+1} tau [+ xi_{j+1} tau_0 rho] + tau_{j+1} rho

(the tau_0 term only in the "a" form, rho given by the scheme, possibly 0)
and tau_j^2 -> 0 at odd primes, then applies the scheme's coefficient
relations and collects like terms mod p.  The rewrite terminates: the
bidegree is fixed and every replacement tau index is strictly larger.

An element keys its terms by packed monomials, and mul, beta and
conjugate compute on them as they are; a key is unpacked only where it is
printed or its coefficient is read.  Each key is one int: tau_j is bit j
(j < 32), and above the tau bits sit 32-bit fields for the exponents of
theta, eps, rho, tau, xi_1, xi_2, ...  The product of two monomials whose
tau sets do not meet is the sum of their ints; a pair that meets adds the
packed leaves of its rewrite instead.  Like terms collect on the ints, and
the coefficient relations kill keys once the product is complete.  The
rewrite only raises exponents, so this drops exactly the terms that
normalizing each product drops, and since a dict keeps the order of its
other keys when one goes, the surviving terms keep their order too.
The core, _mul_packed, multiplies packed accumulators {int: scalar}.  At
p = 2 every scalar is 1, so a key collects by a toggle: it is popped if
present and appended otherwise, the same keys in the same order as summing
mod 2.  The Bockstein core, _beta_packed, runs on the same accumulators:
removing tau_j clears bit j and adds one to xi_j's field, and the
coefficient Bockstein moves one unit between two coefficient fields.  It
takes the terms last to first, each giving its tau bits from high to low,
then its coefficient generators from high to low.

Koszul signs use the topological degree only, so all tau_j are odd, all xi_j
are even, and rho, eps are odd coefficient symbols.  Within a monomial the
canonical factor order is coefficient | xi | tau with tau indices ascending.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .grading import Bidegree, xi_degree, tau_degree
from .schemes import COEFF_ORDER, SchemeError, SchemePresentation, make_scheme


class CoeffMonomial(NamedTuple):
    theta: int = 0
    eps: int = 0
    rho: int = 0
    tau: int = 0

    def bump(self, name, by=1):
        return self._replace(**{name: getattr(self, name) + by})


COEFF_ONE = CoeffMonomial()


class SteenrodMonomial(NamedTuple):
    xi: tuple          # sorted ((j, exponent), ...), exponents > 0
    taus: tuple        # sorted tau indices, no repeats

    def is_one(self):
        return not self.xi and not self.taus


STEENROD_ONE = SteenrodMonomial((), ())


class Term(NamedTuple):
    scalar: int
    coeff: CoeffMonomial
    mono: SteenrodMonomial


class AlgebraHandle(NamedTuple):
    """One of the two ambient algebras over a fixed scheme presentation."""

    scheme: SchemePresentation
    ambient: str  # "a" | "mz"

    @property
    def p(self):
        return self.scheme.p

    @property
    def min_tau(self):
        return 0 if self.ambient == "a" else 1

    def coeff_bockstein(self):
        # right-unit coefficients in the full algebra have trivial Bockstein
        return self.scheme.coeff_bockstein if self.ambient == "mz" else {}


def algebra(scheme_id, p, q=None, ambient="mz"):
    if ambient not in ("a", "mz"):
        raise ValueError(f"ambient must be 'a' or 'mz', got {ambient!r}")
    return AlgebraHandle(make_scheme(scheme_id, p, q), ambient)


class AmbientMismatch(ValueError):
    """Raised when elements from different algebras are combined."""


def coeff_degree(c, scheme):
    """Bidegree of a coefficient monomial; raises on a foreign generator."""
    d = w = 0
    for name, e in zip(COEFF_ORDER, c):
        if e:
            gd, gw = scheme.degree(name)
            d += e * gd
            w += e * gw
    return Bidegree(d, w)


def mono_degree(m, p):
    """Bidegree of an (xi, taus) monomial; a BasisIndex (a, U) has the same shape."""
    xi, taus = m
    d = w = 0
    for j, e in xi:
        xd, xw = xi_degree(p, j)
        d += e * xd
        w += e * xw
    for j in taus:
        td, tw = tau_degree(p, j)
        d += td
        w += tw
    return Bidegree(d, w)


def bidegree_of(key, scheme):
    """Bidegree of a normalized monomial given as a pair (coeff, mono)."""
    c, m = key
    return coeff_degree(c, scheme) + mono_degree(m, scheme.p)


# ---------------------------------------------------------------------------
# Element container


class Element:
    """A finite F_p-linear combination of normalized monomials.

    terms is a packed accumulator {int: scalar}, keyed by packed monomials,
    not (coeff, mono) keys: term_element packs one, sorted_terms unpacks.
    The element takes ownership of the terms dict it is given, without a
    copy: callers pass a dict they built for it and never touch again.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p, terms):
        self.p = p
        self.terms = terms  # packed monomial -> scalar

    @classmethod
    def zero(cls, p):
        return cls(p, {})

    @classmethod
    def one(cls, p):
        return cls(p, {_pack((COEFF_ONE, STEENROD_ONE)): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.p == other.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.p != other.p:
            raise AmbientMismatch("cannot add elements over different primes")
        out = dict(self.terms)
        for key, s in other.terms.items():
            _add(out, key, s, self.p)
        return Element(self.p, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, n):
        n %= self.p
        if n == 0:
            return Element.zero(self.p)
        return Element(self.p, {k: (n * s) % self.p for k, s in self.terms.items()})

    def sorted_terms(self):
        """The terms as Terms, sorted by their (coeff, mono) keys."""
        return [Term(s, *key) for key, s in sorted(zip(map(_unpack, self.terms),
                                                        self.terms.values()))]

    def homogeneous_bidegree(self, scheme):
        """The common bidegree of all terms; raises on mixed degrees."""
        if not self.terms:
            return None
        degs = {bidegree_of(_unpack(k), scheme) for k in self.terms}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element: degrees {sorted(degs)}")
        return degs.pop()

    def __repr__(self):
        return f"<Element mod {self.p}: {element_text(self)}>"


def term_element(p, scalar, coeff=COEFF_ONE, mono=STEENROD_ONE):
    """scalar * coeff | mono; ValueError if the key does not fit the packed layout."""
    scalar %= p
    if not scalar:
        return Element.zero(p)
    return Element(p, {_pack((coeff, mono)): scalar})


# ---------------------------------------------------------------------------
# Normalization


def _coeff_zero(c, scheme):
    """Apply the scheme's multiplicative coefficient relations; True if zero."""
    caps, pairs, _, _ = scheme.relation_positions
    for i, cap in caps:
        if c[i] > cap:
            return True
    return any(all(c[i] >= 1 for i in pair) for pair in pairs)


# tuple.__new__(CoeffMonomial, (...)) builds the same key as the NamedTuple
# constructor, without its Python-level __new__; _unpack uses it
_new = tuple.__new__


def _add(out, key, s, p):
    v = (out.get(key, 0) + s) % p
    if v:
        out[key] = v
    else:
        out.pop(key, None)


@cache
def _tau_rewrite(taus, h):
    """The tau_j^2 rewrite of a tau multiset (a sorted index tuple with repeats).

    Returns the leaves (coefficient increase, xi increase, taus) that a term
    c | xi | taus expands into, before any coefficient relation: a caller adds
    each leaf to its own coefficient and xi part and drops the leaves the
    relations kill.  The rewrite only raises exponents, so a killed piece has
    only killed leaves, and dropping at the leaf keeps the order of the rest.
    The work list is a stack: the newest pieces come out first.  At odd
    primes and over bare, tau_j^2 = 0, so a square leaves nothing.
    """
    scheme = h.scheme
    expands = h.p == 2 and scheme.id != "bare"
    rho = None if scheme.rho_element is None else COEFF_ORDER.index(scheme.rho_element)
    leaves = []
    work = [(COEFF_ONE, {}, {j: taus.count(j) for j in taus})]
    while work:
        c, xi, counts = work.pop()
        sq = [j for j, e in counts.items() if e >= 2]
        if not sq:
            leaves.append((c, tuple(sorted(xi.items())),
                           tuple(sorted(j for j, e in counts.items() if e))))
        elif expands:
            # tau_j^2 -> xi_{j+1} tau [+ xi_{j+1} tau_0 rho] + tau_{j+1} rho
            j = min(sq)
            rest = dict(counts)
            rest[j] -= 2
            xi_up = {**xi, j + 1: xi.get(j + 1, 0) + 1}
            work.append((CoeffMonomial(*c[:3], c[3] + 1), xi_up, rest))
            if rho is not None:
                c_rho = CoeffMonomial(*(e + (i == rho) for i, e in enumerate(c)))
                if h.ambient == "a":
                    work.append((c_rho, xi_up, {**rest, 0: rest.get(0, 0) + 1}))
                work.append((c_rho, xi, {**rest, j + 1: rest.get(j + 1, 0) + 1}))
    return tuple(leaves)


# ---------------------------------------------------------------------------
# Packed monomials (the layout is in the module docstring)
#
# Packing refuses an exponent of 2^(W-1) - 64 or more: the rewrite of a
# product of two tau sets takes at most 63 steps (each drops a tau), each
# raising a field by at most 1, so no field of a product carries.

_TAU_BITS = 32
_W = 32
_TAUS = (1 << _TAU_BITS) - 1
_FIELD = (1 << _W) - 1
_EXP_LIMIT = (1 << (_W - 1)) - 64
_XI_SHIFT = _TAU_BITS + 3 * _W  # the tau exponent's field; xi_j's is W*j above


def _pack(key):
    """The int of a (coeff, mono) key; ValueError outside the layout."""
    c, (xi, taus) = key
    if taus and not 0 <= taus[0] <= taus[-1] < _TAU_BITS:
        raise ValueError(f"tau indices {taus} do not fit the packed layout")
    if max(c) >= _EXP_LIMIT:
        raise ValueError(f"exponent {max(c)} does not fit the packed layout")
    k = 0
    for j in taus:
        k |= 1 << j
    for i, e in enumerate(c):
        k |= e << (_TAU_BITS + _W * i)
    for j, e in xi:
        if e >= _EXP_LIMIT:
            raise ValueError(f"exponent {e} does not fit the packed layout")
        k |= e << (_XI_SHIFT + _W * j)
    return k


def _unpack(k):
    """The (coeff, mono) key of a packed int: the inverse of _pack."""
    c = _new(CoeffMonomial, (k >> _TAU_BITS & _FIELD, k >> (_TAU_BITS + _W) & _FIELD,
                             k >> (_TAU_BITS + 2 * _W) & _FIELD, k >> _XI_SHIFT & _FIELD))
    xi, j, f = [], 1, k >> (_XI_SHIFT + _W)  # the xi fields, xi_1's lowest
    while f:
        if f & _FIELD:
            xi.append((j, f & _FIELD))
        j, f = j + 1, f >> _W
    return c, _new(SteenrodMonomial, (tuple(xi), _unpack_taus(k & _TAUS)))


def _unpack_taus(t):
    """The tau indices of a tau mask, ascending."""
    taus = []
    while t:
        taus.append((t & -t).bit_length() - 1)
        t &= t - 1
    return tuple(taus)


@cache
def _meet_deltas(t1, t2, h):
    """The packed leaves of the tau_j^2 rewrite of two meeting tau masks,
    each relative to t1 + t2, so that k1 + k2 + delta is a leaf of k1 * k2."""
    taus = tuple(sorted(_unpack_taus(t1) + _unpack_taus(t2)))
    return tuple(_pack((c, SteenrodMonomial(xi, leaf_taus))) - t1 - t2
                 for c, xi, leaf_taus in _tau_rewrite(taus, h))


def _live(acc, h):
    """acc less the keys that the scheme's caps and zero pairs kill, in order."""
    scheme = h.scheme
    if not (scheme.caps or scheme.zero_pairs):
        return acc
    return {k: v for k, v in acc.items()
            if not _coeff_zero([k >> (_TAU_BITS + _W * i) & _FIELD for i in range(4)], scheme)}


@cache
def _foreign_bits(h):
    """The packed bits no term of h may set: the tau indices below its
    minimum and the fields of the coefficient generators it lacks."""
    bits = (1 << h.min_tau) - 1
    for i in h.scheme.relation_positions[2]:
        bits |= _FIELD << (_TAU_BITS + _W * i)
    return bits


def _checked(acc, h):
    """The packed accumulator acc, once no term of it is foreign to h;
    raises on the first term that is."""
    foreign = _foreign_bits(h)
    for k in acc:
        if k & foreign:
            for i in h.scheme.relation_positions[2]:
                if k >> (_TAU_BITS + _W * i) & _FIELD:
                    raise SchemeError(f"coefficient generator {COEFF_ORDER[i]!r} "
                                      f"not present for scheme {h.scheme.id}")
            low = (k & -k).bit_length() - 1
            raise ValueError(f"tau index {low} below the minimum {h.min_tau} for this form")
    return acc


# ---------------------------------------------------------------------------
# Multiplication


def _odd_word(k, odd):
    """One bit per odd factor of the packed monomial k mod 2, in canonical
    order: coefficient generator i (i in odd) at bit i, tau_j at bit 4 + j.
    x*y has the Koszul sign (-1)^popcount(word(x) & _below(word(y)))."""
    w = (k & _TAUS) << len(COEFF_ORDER)
    for i in odd:
        w |= (k >> (_TAU_BITS + _W * i) & 1) << i
    return w


def _below(w):
    """The bits b at which an odd number of the bits of w lie below b."""
    for s in (1, 2, 4, 8, 16, 32):
        w ^= w << s
    return w << 1


def _mul_packed(xa, ya, h):
    """The product of two packed accumulators {int: scalar}, as one.

    A pair of terms whose tau sets do not meet multiplies to k1 + k2; a pair
    that meets (t1 & k2) adds instead k1 + k2 plus each memoized delta of
    its tau_j^2 rewrite leaves, and nothing at odd p, where tau_j^2 = 0.
    The keys collect mod p, with each term's
    odd word built once per call, and the keys that the coefficient
    relations kill are dropped at the end, which leaves the order of the
    others.  Pairs are taken last to first, so the terms come out in the
    order that normalizing the raw products gives them.

    At p = 2 every scalar is 1 and there are no signs, so collecting a key
    is a toggle: it is popped if present and appended otherwise, which is
    what summing mod 2 does, order included.  A left term with no tau bits
    meets nothing, so its loop skips the meet test.
    """
    acc = {}
    pop = acc.pop
    if h.p == 2:
        ys = list(reversed(ya))
        for k1 in reversed(xa):
            if not (t1 := k1 & _TAUS):
                for k2 in ys:
                    if not pop(k := k1 + k2, 0):
                        acc[k] = 1
                continue
            for k2 in ys:
                if t1 & k2:
                    for d in _meet_deltas(t1, k2 & _TAUS, h):
                        if not pop(k := k1 + k2 + d, 0):
                            acc[k] = 1
                elif not pop(k := k1 + k2, 0):
                    acc[k] = 1
        return _live(acc, h)
    p = h.p
    odd = h.scheme.relation_positions[3]
    xs = [(k, s, _odd_word(k, odd)) for k, s in reversed(xa.items())]
    ys = [(k, s, _below(_odd_word(k, odd))) for k, s in reversed(ya.items())]
    get = acc.get
    for k1, s1, w1 in xs:
        t1 = k1 & _TAUS
        for k2, s2, b2 in ys:
            if t1 & k2:  # tau_j^2 = 0 at odd p: _meet_deltas has no leaf
                continue
            s = -s1 * s2 if w1 & b2 and (w1 & b2).bit_count() & 1 else s1 * s2
            v = (get(k := k1 + k2, 0) + s) % p
            if v:
                acc[k] = v
            else:
                pop(k)
    return _live(acc, h)


def mul(x, y, h):
    """Graded-commutative product of normalized elements."""
    if x.p != y.p or x.p != h.p:
        raise AmbientMismatch("elements belong to different algebras")
    return Element(h.p, _mul_packed(_checked(x.terms, h), _checked(y.terms, h), h))


@cache
def _beta_fields(h):
    """(odd, moves) for _beta_packed.  odd has the lowest bit of each odd
    coefficient field, so the popcount of k & odd is the parity of the odd
    factors of k; moves lists (g, g') for each coefficient Bockstein
    g -> g' as the shifts of the two fields, highest g first."""
    shift = [_TAU_BITS + _W * i for i in range(len(COEFF_ORDER))]
    odd = sum(1 << shift[i] for i in h.scheme.relation_positions[3])
    moves = [(shift[COEFF_ORDER.index(g)], shift[COEFF_ORDER.index(t)])
             for g, t in h.coeff_bockstein().items()]
    return odd, sorted(moves, reverse=True)


def _beta_packed(acc, h):
    """The Bockstein of a packed accumulator {int: scalar}, as one.

    Removing tau_j from a term clears bit j and adds one to xi_j's field
    (beta(tau_0) = 1 in the full algebra), with the sign of passing the
    odd coefficient fields and the lower tau bits.  The coefficient
    Bockstein g -> g' moves one unit from g's field to g''s, with scalar
    the exponent e of g and the sign of passing the odd fields below g.
    The terms come out in the order that normalizing the images gives (see
    the module docstring), less the keys the coefficient relations kill.
    """
    p = h.p
    odd, moves = _beta_fields(h)
    out = {}
    for k, s in reversed(acc.items()):
        odd_c = (k & odd).bit_count()
        t = k & _TAUS
        while t:
            j = t.bit_length() - 1
            t ^= 1 << j
            xi_j = 1 << (_XI_SHIFT + _W * j) if j else 0
            _add(out, k - (1 << j) + xi_j, -s if (odd_c + t.bit_count()) & 1 else s, p)
        for g, target in moves:
            if e := k >> g & _FIELD:
                passed = (k & odd & ((1 << g) - 1)).bit_count()
                _add(out, k - (1 << g) + (1 << target), -e * s if passed & 1 else e * s, p)
    return _live(out, h)


# ---------------------------------------------------------------------------
# Canonical text form
#
#   element := "0" | term (" + " term)*
#   term    := [scalar "*"] coeff " | " xis " | " taus
#   coeff   := "1" | gen "^" exp ("*" gen "^" exp)*      gens in order
#              theta, eps, rho, tau
#   xis     := "1" | "xi" j "^" e (" " "xi" j "^" e)*    j ascending
#   taus    := "tau{" j ("," j)* "}" | "tau{}"           j ascending


def term_text(t):
    c, m = t.coeff, t.mono
    cs = "*".join(f"{g}^{e}" for g, e in zip(COEFF_ORDER, c) if e) or "1"
    xs = " ".join(f"xi{j}^{e}" for j, e in m.xi) or "1"
    ts = "tau{" + ",".join(str(j) for j in m.taus) + "}"
    body = f"{cs} | {xs} | {ts}"
    return body if t.scalar == 1 else f"{t.scalar}*{body}"


def element_text(x):
    if x.is_zero():
        return "0"
    return " + ".join(term_text(t) for t in x.sorted_terms())
