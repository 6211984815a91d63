"""Monomial bases and the conjugation of the dual Steenrod algebra.

The integral-target form is a free module over the coefficient ring on the
monomials

    eta[a, U] = prod_j xi_j^{a_j} * prod_{j in U} tau_j

indexed by a finitely supported exponent vector a on positive integers and a
finite set U of tau indices (positive in the "mz" form, >= 0 in the full
algebra).  The xi/tau monomials come from one recursion, sorted, packed
into elements' int layout and bucketed by bidegree once per (p, min_tau)
in monomial_index, so every basis holds the packed ints that beta, chi
and the ranks compute on; a key is unpacked only for text or a BasisIndex
(index_of).  One pass over those buckets times the populated coefficient
bidegrees finds, for each bidegree bd of a window d <= dmax, |w| <= wmax,
its coefficient monomials c, each with its bucket bd - |c|; it is finite
because every coefficient generator has nonpositive degree and weight
while d - w > 0 on every xi/tau generator.  Each basis is then laid out
in blocks: the c in sorted order, each followed by its bucket, which is
the sorted order of the keys (c, m).  The layout is the basis: a Basis
keeps {packed c: (bucket, start)} and its dim, and lists its packed keys
c + m only when iterated (the coefficient and xi/tau fields do not
overlap).  _basis_table keeps one table of them per handle, read by
bidegree_basis and populated_bidegrees.

The conjugation chi of the full algebra is computed from the generator
recursions (with xi_0 = chi(xi_0) = 1)

    chi(tau_0) = -tau_0,     chi(tau) = tau + rho tau_0,
    0 = tau_r + sum_{i=0..r} xi_i^(p^(r-i)) chi(tau_{r-i}),
    0 =         sum_{i=0..r} xi_i^(p^(r-i)) chi(xi_{r-i}),

and extended multiplicatively.  All coefficient symbols other than tau are
fixed by chi, and chi(xi_r) is tau-free, since its recursion has no tau.
So chi is computed by parts: a monomial is c xi^a (tau^x tau_U) with c in
theta, eps and rho, and chi of it is c * chi(xi^a) * chi(tau^x tau_U),
where only the last factor holds a tau_j and the tau_j^2 rewrites stay
inside it.  _chi_mono_cache, the one chi memo, maps each handle to
{packed monomial: packed chi}, in the int layout of mul: chi of a generator
sits at its own int, computed there by the recursions, chi of a monomial of
one part is chi of it less its top factor (the highest tau_j, else one unit
of the highest xi_j, else one unit of the coefficient tau) times chi of
that factor, and the products are elements._mul_packed's.  conjugate
returns a copy of the packed value as the element's terms.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .grading import Bidegree, tau_degree
from .elements import (
    COEFF_ONE, STEENROD_ONE, CoeffMonomial, Element, SteenrodMonomial, _coeff_zero, mono_degree,
    term_element,
)
from .elements import (
    _FIELD, _TAU_BITS, _TAUS, _W, _XI_SHIFT, _add, _checked, _live, _mul_packed, _pack, _unpack,
)


class BasisIndex(NamedTuple):
    """Index (a, U) of a monomial eta[a, U]."""

    a: tuple   # sorted ((j, exponent), ...), j >= 1, exponents > 0
    U: tuple   # sorted tau indices


def basis_index(a=None, U=()):
    amap = dict(a or {})
    return BasisIndex(
        tuple(sorted((j, e) for j, e in amap.items() if e)),
        tuple(sorted(U)),
    )


def eta(idx, h):
    """The normalized monomial eta[a, U] as an Element."""
    for j, e in idx.a:
        if j < 1:
            raise ValueError(f"xi index {j} must be positive")
    if len(set(idx.U)) != len(idx.U):
        raise ValueError(f"repeated tau index in {idx.U}")
    for j in idx.U:
        if j < h.min_tau:
            raise ValueError(f"tau index {j} below minimum {h.min_tau} for this form")
    mono = SteenrodMonomial(tuple(sorted(idx.a)), tuple(sorted(idx.U)))
    return term_element(h.p, 1, COEFF_ONE, mono)


def index_of(m):
    """The index (a, U) of the packed xi/tau monomial m."""
    return BasisIndex(*_unpack(m)[1])


def u_maximal(idx):
    """Whether eta[a, U] is U-maximal: U nonempty and max supp a <= max U."""
    return bool(idx.U) and max((j for j, _ in idx.a), default=0) <= max(idx.U)


# ---------------------------------------------------------------------------
# Bidegree basis enumeration

_mono_index = {}


def steenrod_monomials(p, budget, min_tau):
    """All (xi, taus) monomials with d - w <= budget, sorted.

    xi_j costs p^j - 1 per exponent and tau_j costs p^j, so the enumeration
    is finite for every budget.  This is the one monomial recursion; the
    other views read it through monomial_index.
    """
    gens = []
    j = 1
    while p**j - 1 <= budget:
        gens.append(("xi", j, p**j - 1))
        j += 1
    j = min_tau
    while p**j <= budget:
        gens.append(("tau", j, p**j))
        j += 1

    out = []

    def rec(i, left, xi, taus):
        if i == len(gens):
            out.append(SteenrodMonomial(tuple(xi), tuple(taus)))
            return
        kind, j, cost = gens[i]
        if kind == "xi":
            e = 0
            while e * cost <= left:
                rec(i + 1, left - e * cost, xi + [(j, e)] if e else xi, taus)
                e += 1
        else:
            rec(i + 1, left, xi, taus)
            if cost <= left:
                rec(i + 1, left - cost, xi, taus + [j])

    rec(0, budget, [], [])
    out.sort()
    return out


def monomial_index(p, budget, min_tau):
    """{bidegree: packed monomials} covering every monomial with d - w <=
    budget, each bucket in the sorted order of steenrod_monomials.

    Memoized per (p, min_tau) and re-enumerated when a larger budget is
    asked for, so buckets past the budget may be present: callers bound
    d - w themselves.
    """
    hit = _mono_index.get((p, min_tau))
    if hit is None or hit[0] < budget:
        buckets = {}
        for mono in steenrod_monomials(p, budget, min_tau):
            buckets.setdefault(mono_degree(mono, p), []).append(_pack((COEFF_ONE, mono)))
        hit = _mono_index[(p, min_tau)] = (budget, buckets)
    return hit[1]


def _degree_budget(p, dmax, min_tau):
    """The d - w budget that covers every (xi, taus) monomial of topological
    degree <= dmax: 2(d - w) = d + (number of taus) <= dmax + T, T the
    number of tau_j of degree <= dmax."""
    n_tau = 0
    while tau_degree(p, min_tau + n_tau).d <= dmax:
        n_tau += 1
    return (dmax + n_tau) // 2


def steenrod_monomials_by_degree(p, dmax, min_tau):
    """All packed xi/tau monomials with topological degree <= dmax, in the
    sorted order of their (xi, taus), read off the index at _degree_budget."""
    buckets = monomial_index(p, _degree_budget(p, dmax, min_tau), min_tau)
    return sorted((m for bd, monos in buckets.items() if bd.d <= dmax for m in monos),
                  key=_unpack)


@cache
def coeff_monomials(bd, scheme):
    """All coefficient monomials of exactly the given bidegree, as a sorted tuple."""
    d, w = bd
    if d > 0 or w > d:
        return ()
    neg = -d  # rho_exp + eps_exp
    out = []
    eps_max = neg if "eps" in scheme.gens else 0
    eps_cap = scheme.caps.get("eps")
    if eps_cap is not None:
        eps_max = min(eps_max, eps_cap)
    for e in range(eps_max + 1):
        r = neg - e
        if r and "rho" not in scheme.gens:
            continue
        rest = -w - r - e  # tau_exp + 2 theta_exp
        if rest < 0:
            continue
        t_candidates = range(rest // 2 + 1) if "theta" in scheme.gens else (0,)
        for t in t_candidates:
            x = rest - 2 * t
            if x and "tau" not in scheme.gens:
                continue
            c = CoeffMonomial(theta=t, eps=e, rho=r, tau=x)
            if not _coeff_zero(c, scheme):
                out.append(c)
    out.sort(key=tuple)
    return tuple(out)


class Basis:
    """One bidegree's basis as its block layout: blocks maps each packed
    coefficient monomial c, in the order of its CoeffMonomial, to (e, start),
    and positions start, start + 1, ... hold c | m for the m of
    monomial_index's bucket e.  len is the dim, and iterating yields the
    packed keys c + m in order, read off the buckets (the coefficient and
    xi/tau fields do not overlap); a bucket inside the budget is the same
    in every larger index, so the positions outlive a re-enumeration."""

    __slots__ = ("blocks", "_dim", "_p", "_min_tau")

    def __init__(self, blocks, dim, p, min_tau):
        self.blocks, self._dim, self._p, self._min_tau = blocks, dim, p, min_tau

    def __len__(self):
        return self._dim

    def __iter__(self):
        for c, (e, _) in self.blocks.items():
            for m in monomial_index(self._p, e.d - e.w, self._min_tau)[e]:
                yield c + m


_EMPTY = Basis({}, 0, None, None)

# handle -> (dmax, wmax, {bidegree: Basis}), every nonempty basis of the
# window d <= dmax, |w| <= wmax
_basis_table = {}


def _caps(scheme):
    """The caps of the degree -1 coefficient generators, None where one has none."""
    return [scheme.caps.get(g) for g in scheme.gens if scheme.degree(g).d == -1]


def window_budget(h, dmax, wmax):
    """The d - w budget _enumerate_bases asks monomial_index for: every xi/tau
    monomial that reaches the window d <= dmax, |w| <= wmax has d - w <=
    dmax + wmax, and, when every degree -1 coefficient generator has a cap,
    topological degree <= dmax + the sum of the caps, so _degree_budget
    there if that is lower."""
    caps = _caps(h.scheme)
    budget = dmax + wmax
    if None not in caps:
        budget = min(budget, _degree_budget(h.p, dmax + sum(caps), h.min_tau))
    return budget


def _enumerate_bases(h, dmax, wmax):
    """{bidegree: Basis} for every nonempty bidegree of the window, in one pass.

    A basis monomial c | m pairs an xi/tau monomial m of bidegree e with a
    coefficient monomial c of bidegree bd - e.  Since e.d >= e.w >= 0 and
    c.w <= c.d <= 0, every populated bd has d >= w >= -wmax, and only e with
    e.d - e.w <= dmax + wmax and c with c.w >= -wmax - e.w can reach the
    window.  -c.d is the exponent sum of the degree -1 generators, so it is
    at most the sum of their caps when each of them has one; then e.d <=
    dmax + that sum, and the enumeration budget is window_budget.  Each c
    of bd fixes its bucket e, so the basis is c | m for each c in order and
    each m of its bucket in order: its blocks map packed c to (e, position
    of c | first m).  Each c is packed once, where its bidegree is read.
    """
    scheme = h.scheme
    caps = _caps(scheme)
    budget = window_budget(h, dmax, wmax)
    buckets = monomial_index(h.p, budget, h.min_tau)
    etas = [e for e in buckets if e.d - e.w <= budget]
    low = -wmax - max((e.w for e in etas), default=0)
    dlow = low if None in caps else max(low, -sum(caps))
    by_weight = {}  # c.w -> [(c.d, [(c, packed c) of (c.d, c.w)]), ...], c.d ascending
    for d in range(dlow, 1):
        for w in range(low, d + 1):
            if cs := coeff_monomials(Bidegree(d, w), scheme):
                by_weight.setdefault(w, []).append(
                    (d, [(c, _pack((c, STEENROD_ONE))) for c in cs]))
    pairs = {}  # (d, w) -> [(c, packed c, e), ...]
    for e in etas:
        ed, ew = e
        for cw in range(-wmax - ew, wmax - ew + 1):
            for cd, cs in by_weight.get(cw, ()):
                if cd > dmax - ed:
                    break
                pairs.setdefault((ed + cd, ew + cw), []).extend([(c, k, e) for c, k in cs])
    bases = {}
    for key, ces in pairs.items():
        ces.sort()  # the c of one bidegree are distinct
        blocks = {}
        start = 0
        for _, k, e in ces:
            blocks[k] = e, start
            start += len(buckets[e])
        bases[Bidegree(*key)] = Basis(blocks, start, h.p, h.min_tau)
    return bases


def basis_table(h, dmax, wmax):
    """The handle's table (dmax, wmax, {bidegree: Basis}) holding every
    nonempty basis with d <= dmax, |w| <= wmax.

    One table per handle; asking for a window it does not cover re-enumerates
    the smallest window covering both, so a caller that will read a whole
    window asks for it first.
    """
    hit = _basis_table.get(h)
    if hit is None or hit[0] < dmax or hit[1] < wmax:
        if hit is not None:
            dmax, wmax = max(dmax, hit[0]), max(wmax, hit[1])
        hit = _basis_table[h] = (dmax, wmax, _enumerate_bases(h, dmax, wmax))
    return hit


def bidegree_basis(bd, h):
    """The coefficient-twisted monomial basis of one bidegree, as a Basis read
    from the handle's table: its keys, packed ints c + m, come in the
    canonical order of their (CoeffMonomial, SteenrodMonomial), and an empty
    bidegree gives the shared empty Basis."""
    d, w = bd
    return basis_table(h, d, abs(w))[2].get(bd, _EMPTY)


def populated_bidegrees(h, dmax, wmax):
    """All bidegrees with |d| <= dmax, |w| <= wmax carrying a basis monomial, sorted."""
    return sorted(
        bd for bd in basis_table(h, dmax, wmax)[2]
        if -dmax <= bd.d <= dmax and -wmax <= bd.w <= wmax
    )


# ---------------------------------------------------------------------------
# Conjugation

def _require_full(h):
    if h.ambient != "a":
        raise ValueError("conjugation is defined on the full algebra only")


# handle -> {packed monomial: its packed chi, an ordered {int: scalar}}
_chi_mono_cache = {}


# The parts of a packed monomial for chi: the theta, eps and rho fields,
# which chi fixes, and the tau part, the tau bits and the coefficient tau's
# field; the xi part is the rest.
_FIXED = ((1 << 3 * _W) - 1) << _TAU_BITS
_TAU_PART = _TAUS | _FIELD << _XI_SHIFT
_COEFFS = _FIXED | _FIELD << _XI_SHIFT  # every coefficient field


def _chi_packed(k, h, memo=None):
    """chi of the packed monomial k by parts, as in the module docstring.
    memo is the handle's entry of _chi_mono_cache, looked up here if not
    given and passed down.

    A monomial of two or more parts is the fixed part times chi of its xi
    part, which meets no tau, times chi of its tau part if it has one:
    _mul_packed takes the tau-free factor on the left and gives the signs,
    and either way the keys the coefficient relations kill are dropped.  A
    monomial of one part takes the chain of top factors (the coefficient
    tau's field lies just below xi_1's).

    A generator's chi is kept at its own int.  chi(tau) = tau + rho tau_0,
    and chi(tau_r), chi(xi_r) follow the recursions, where multiplying by the
    even xi_i^(p^(r-i)) adds one int to every key: it meets no tau and
    touches no coefficient field.  Every shift is packed before the first
    lower chi is computed, so an exponent outside the layout raises with
    nothing memoized.
    """
    if memo is None:
        memo = _chi_mono_cache.setdefault(h, {})
    if (hit := memo.get(k)) is not None:
        return hit
    fixed, tau = k & _FIXED, k & _TAU_PART
    xi = k - fixed - tau
    if k not in (fixed, xi, tau):  # two or more parts
        left = {fixed: 1}
        if xi:
            left = {fixed + key: s for key, s in _chi_packed(xi, h, memo).items()}
        hit = memo[k] = _mul_packed(left, _chi_packed(tau, h, memo), h) if tau else _live(left, h)
        return hit
    chain = []  # (monomial, its top factor), from k down to a known monomial
    while (hit := memo.get(k)) is None:
        if t := k & _TAUS:
            top = 1 << (t.bit_length() - 1)
        elif f := k >> _XI_SHIFT:
            top = 1 << (_XI_SHIFT + (f.bit_length() - 1) // _W * _W)
        else:
            hit = memo[k] = {k: 1}
            break
        if k == top:
            p = h.p
            if t:  # tau_r: the sum runs over i = 1..r
                r = t.bit_length() - 1
                lower = [SteenrodMonomial((), (r - i,)) for i in range(1, r + 1)]
            elif r := (f.bit_length() - 1) // _W:  # xi_r: i = 1..r-1
                lower = [SteenrodMonomial(((r - i, 1),), ()) for i in range(1, r)]
            else:  # the coefficient tau
                hit = memo[k] = {k: 1}
                if (rho := h.scheme.rho_element) is not None:
                    hit[_pack((COEFF_ONE.bump(rho), SteenrodMonomial((), (0,))))] = 1
                break
            shifts = [_pack((COEFF_ONE, SteenrodMonomial(((i, p ** (r - i)),), ())))
                      for i in range(1, len(lower) + 1)]
            # chi(g) = -(g + sum_i xi_i^(p^(r-i)) chi(lower_i)); each product's
            # terms are taken last to first, the order _mul_packed gives them
            hit = {k: p - 1}
            for shift, g in zip(shifts, lower):
                for key, s in reversed(_chi_packed(_pack((COEFF_ONE, g)), h, memo).items()):
                    _add(hit, key + shift, -s, p)
            memo[k] = hit
            break
        chain.append((k, top))
        k -= top
    for k, top in reversed(chain):
        hit = memo[k] = _mul_packed(hit, _chi_packed(top, h, memo), h)
    return hit


def _conjugate_packed(acc, h):
    """chi of a packed accumulator, term by term.

    One key with scalar 1 gives the memo's own value, which the caller
    reads and never changes.  Otherwise at p = 2 each key of each chi
    toggles in the sum, as in _mul_packed.
    """
    memo = _chi_mono_cache.setdefault(h, {})
    if len(acc) == 1:
        (k, s), = acc.items()
        if s == 1:
            return _chi_packed(k, h, memo)
    out = {}
    if h.p == 2:
        pop = out.pop
        for k in acc:
            for key in _chi_packed(k, h, memo):
                if not pop(key, 0):
                    out[key] = 1
        return out
    for k, s in acc.items():
        for key, t in _chi_packed(k, h, memo).items():
            _add(out, key, s * t, h.p)
    return out


def conjugate(x, h):
    """The conjugation, applied multiplicatively term by term.

    Only defined on the full algebra; the mz form carries the other module
    structure and is rejected, as is a term foreign to h, before any chi is
    computed.  Per-monomial values are memoized.
    """
    _require_full(h)
    if x.p != h.p:
        raise ValueError("element prime does not match the handle")
    # _conjugate_packed can give the memo's own dict, which the element would own
    return Element(h.p, dict(_conjugate_packed(_checked(x.terms, h), h)))


def _mz_image_packed(k, h_a):
    """The image of the packed mz basis monomial k = c | m under the
    right-subalgebra map, as a packed accumulator: the coefficient acts
    through the right unit and stays put, and each generator of m maps to
    its chi, so the image is generated by the chi'd generators."""
    _require_full(h_a)
    c = k & _COEFFS
    return _mul_packed(_checked({c: 1}, h_a), _chi_packed(k - c, h_a), h_a)
