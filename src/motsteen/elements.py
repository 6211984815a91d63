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

    The element takes ownership of the terms dict it is given, without a
    copy: callers pass a dict they built for it and never touch again.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p, terms):
        self.p = p
        self.terms = terms  # (CoeffMonomial, SteenrodMonomial) -> scalar

    @classmethod
    def zero(cls, p):
        return cls(p, {})

    @classmethod
    def one(cls, p):
        return cls(p, {(COEFF_ONE, STEENROD_ONE): 1})

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
        return [Term(self.terms[k], *k) for k in sorted(self.terms, key=monomial_key)]

    def homogeneous_bidegree(self, scheme):
        """The common bidegree of all terms; raises on mixed degrees."""
        if not self.terms:
            return None
        degs = {bidegree_of(k, scheme) for k in self.terms}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element: degrees {sorted(degs)}")
        return degs.pop()

    def __repr__(self):
        return f"<Element mod {self.p}: {element_text(self)}>"


def term_element(p, scalar, coeff=COEFF_ONE, mono=STEENROD_ONE):
    scalar %= p
    if not scalar:
        return Element.zero(p)
    return Element(p, {(coeff, mono): scalar})


def monomial_key(key):
    """Deterministic total order on monomials (graded-lex within each part)."""
    c, m = key
    return (tuple(c), m.xi, m.taus)


# ---------------------------------------------------------------------------
# Normalization


def _coeff_zero(c, scheme):
    """Apply the scheme's multiplicative coefficient relations; True if zero."""
    caps, pairs, _ = scheme.relation_positions
    for i, cap in caps:
        if c[i] > cap:
            return True
    return any(all(c[i] >= 1 for i in pair) for pair in pairs)


def _check_term(c, taus, h):
    """Raise on a coefficient generator foreign to h or a tau index below its minimum."""
    foreign = [COEFF_ORDER[i] for i in h.scheme.relation_positions[2] if c[i]]
    if foreign:
        raise SchemeError(
            f"coefficient generator {foreign[0]!r} not present for scheme {h.scheme.id}"
        )
    if taus and min(taus) < h.min_tau:
        raise ValueError(
            f"tau index {min(taus)} below the minimum {h.min_tau} for this form"
        )


# tuple.__new__(CoeffMonomial, (...)) builds the same key as the NamedTuple
# constructor, without its Python-level __new__; the hot loops below use it
_new = tuple.__new__


def _add(out, key, s, p):
    v = (out.get(key, 0) + s) % p
    if v:
        out[key] = v
    else:
        out.pop(key, None)


@cache
def _merge_xi(a, b):
    """The product of two sorted xi exponent tuples, memoized on the parts."""
    merged = dict(a)
    for j, e in b:
        merged[j] = merged.get(j, 0) + e
    return tuple(sorted(merged.items()))


@cache
def _join_taus(t1, t2):
    """(sorted t1 + t2 with repeats, whether the two tau sets meet)."""
    taus = tuple(sorted(t1 + t2))
    return taus, len(set(taus)) < len(taus)


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


def _add_rewritten(out, s, c, xi, taus, h):
    """Add s * c | xi | taus to out, for a tau multiset taus and a sorted xi
    tuple, through the memoized leaves of its tau_j^2 rewrite."""
    p, scheme = h.p, h.scheme
    kills = scheme.caps or scheme.zero_pairs
    c0, c1, c2, c3 = c
    for (d0, d1, d2, d3), dxi, leaf_taus in _tau_rewrite(taus, h):
        nc = _new(CoeffMonomial, (c0 + d0, c1 + d1, c2 + d2, c3 + d3))
        if kills and _coeff_zero(nc, scheme):
            continue
        mxi = _merge_xi(xi, dxi) if xi and dxi else xi or dxi
        key = (nc, _new(SteenrodMonomial, (mxi, leaf_taus)))
        v = (out.get(key, 0) + s) % p
        if v:
            out[key] = v
        else:
            out.pop(key, None)


# ---------------------------------------------------------------------------
# Multiplication


def _odd_ranks(c, m, scheme):
    """Ranks of odd-degree factors of a monomial, in canonical order."""
    ranks = []
    for pos, (name, e) in enumerate(zip(COEFF_ORDER, c)):
        if e and (scheme.degree(name).d & 1):
            ranks.extend([(0, pos)] * e)
    # xi factors are even at every prime; tau_j has odd degree 2p^j - 1
    ranks.extend((1, j) for j in m.taus)
    return ranks


def koszul_sign(c1, m1, c2, m2, scheme):
    """Sign of merging x*y into canonical factor order (stable, x first)."""
    if scheme.p == 2:
        return 1
    left = _odd_ranks(c1, m1, scheme)
    right = _odd_ranks(c2, m2, scheme)
    inv = 0
    for r2 in right:
        inv += sum(1 for r1 in left if r1 > r2)
    return -1 if inv & 1 else 1


def _check_terms(keys, h):
    """_check_term on every (coeff, mono) key.  One fast test covers them all;
    _check_term runs only when it fails, to raise at the first bad key."""
    foreign, min_tau = h.scheme.relation_positions[2], h.min_tau
    if any(c[i] for c, _ in keys for i in foreign) or min_tau and any(
            m.taus and m.taus[0] < min_tau for _, m in keys):
        for c, m in keys:
            _check_term(c, m.taus, h)


def mul(x, y, h):
    """Graded-commutative product of normalized elements.

    Each pair of terms is merged directly: add the coefficient exponents,
    merge the xi exponents and the two tau sets.  Only a pair whose tau sets
    meet goes through the tau_j^2 rewrite, _add_rewritten adding each leaf.
    Pairs are taken last to first, so the terms come out in the order that
    normalizing the raw products gives them.
    """
    if x.p != y.p or x.p != h.p:
        raise AmbientMismatch("elements belong to different algebras")
    p, scheme = h.p, h.scheme
    kills = scheme.caps or scheme.zero_pairs
    _check_terms((*x.terms, *y.terms), h)
    out = {}
    get, pop = out.get, out.pop
    ys = [(*c2, *m2, s2, c2, m2) for (c2, m2), s2 in reversed(y.terms.items())]
    for (c1, m1), s1 in reversed(x.terms.items()):
        a0, a1, a2, a3 = c1
        xi1, t1 = m1
        for b0, b1, b2, b3, xi2, t2, s2, c2, m2 in ys:
            s = s1 * s2 if p == 2 else s1 * s2 * koszul_sign(c1, m1, c2, m2, scheme)
            c = _new(CoeffMonomial, (a0 + b0, a1 + b1, a2 + b2, a3 + b3))
            if kills and _coeff_zero(c, scheme):
                continue
            xi = _merge_xi(xi1, xi2) if xi1 and xi2 else xi1 or xi2
            if t1 and t2:
                taus, meet = _join_taus(t1, t2)
                if meet:
                    _add_rewritten(out, s, c, xi, taus, h)
                    continue
            else:
                taus = t1 or t2
            key = (c, _new(SteenrodMonomial, (xi, taus)))
            v = (get(key, 0) + s) % p
            if v:
                out[key] = v
            else:
                pop(key, None)
    return Element(p, out)


def coeff_scale(c, x, h):
    """Fast left multiplication by a single coefficient monomial.

    No tau squares or xi merges can arise, so this skips the rewrite
    worklist: merge exponents, apply the coefficient relations, keep the
    Koszul sign of moving c past each term's own coefficient factors.
    """
    p, scheme = h.p, h.scheme
    if any(c[i] for i in scheme.relation_positions[2]):
        _check_term(c, (), h)
    kills = scheme.caps or scheme.zero_pairs
    a0, a1, a2, a3 = c
    out = {}
    for (c2, m), s in x.terms.items():
        if p != 2:
            s *= koszul_sign(c, STEENROD_ONE, c2, STEENROD_ONE, scheme)
        b0, b1, b2, b3 = c2
        merged = _new(CoeffMonomial, (a0 + b0, a1 + b1, a2 + b2, a3 + b3))
        if s % p and not (kills and _coeff_zero(merged, scheme)):
            out[merged, m] = s % p  # distinct terms stay distinct
    return Element(p, out)


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
