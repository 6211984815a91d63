"""Reference implementations kept as test oracles.

These are the earlier, duplicated code paths that motsteen replaced with one
path each: two enumeration recursions (one bounded on d - w, one on d), a
per-bidegree re-scan of every monomial for bases and populated bidegrees,
a dimension report that rebuilds the Bockstein matrix of the augmentation
ideal and of the coefficient ring beside the full one, the beta matrix
keyed by (c, mono) tuples with its split ranks read off regrouped rows, a Bockstein
that builds raw terms and sends them through normalize, the Z u U kernel
basis multiplied out element by element (element_vector maps it onto the
positions of a basis), and the generic
column-major elimination over F_p that once served every prime.  Below them
are the product that sends every pair of terms through the rewrite
worklist, the conjugation that rebuilds each monomial from its
generators with powers, and the closed product formula expanded through
that product, with every failure text formatted as the case is checked,
and the sweep of a window built case by case from it.  They carry no memo, and they build their matrices
on their own bases, so test_oracles.py can hold the single-path code to
them on small windows.  Last come the packed product, conjugation and
embedding rank that sum scalars mod p at p = 2 too, which test_gf2.py holds
the toggling GF(2) paths to, and chi_chain, the packed conjugation as a
chain of top factors on a memo its caller passes, which the by-parts chi of
steenrod replaced.  Then stand the primality test by trial division
and the prime-power test by rounded float roots, which schemes replaced
with Miller-Rabin and exact integer roots.  Last is the argparse parser of
the command line, which cli.parse_args replaced so that no command imports
argparse, gettext or locale.
"""

import argparse
from itertools import combinations
from typing import NamedTuple

from motsteen import bockstein, steenrod
from motsteen.bockstein import y
from motsteen.elements import (
    COEFF_ONE,
    AlgebraHandle,
    STEENROD_ONE,
    CoeffMonomial,
    Element,
    SteenrodMonomial,
    Term,
    algebra,
    coeff_degree,
    element_text,
    term_element,
)
from motsteen.elements import (
    _TAU_BITS, _TAUS, _W, _XI_SHIFT, _add, _below, _checked, _live, _meet_deltas, _mul_packed,
    _odd_word, _pack, _unpack,
)
from motsteen.grading import BETA_SHIFT, Bidegree, tau_degree, xi_degree
from motsteen.schemes import COEFF_ORDER, SchemeError, SchemePresentation
from motsteen.relations import ConventionError, _exponent_vectors, product_formula_terms
from motsteen.steenrod import _chi_packed, basis_index, coeff_monomials, eta, index_of
from motsteen.verify import SUITES


def terms(x):
    """The terms of an Element as ((coeff, mono), scalar) pairs, in its order:
    the oracles compute on these tuple keys and pack only what they return."""
    return [(_unpack(k), s) for k, s in x.terms.items()]


def pack_result(key):
    """The packed int of a (coeff, mono) key of a result, by the layout alone:
    unlike _pack, which refuses a factor that a product could carry out of,
    it takes the exponents a product of two such factors reaches."""
    c, (xi, taus) = key
    k = (sum(1 << j for j in taus) + sum(e << (_TAU_BITS + _W * i) for i, e in enumerate(c))
         + sum(e << (_XI_SHIFT + _W * j) for j, e in xi))
    assert _unpack(k) == key, f"{key} overflows the packed layout"
    return k


class Matrix(NamedTuple):
    """A plain nrows x ncols matrix over F_p as {(row, col): residue in 1..p-1}."""
    p: int
    nrows: int
    ncols: int
    entries: dict


def _rref(M):
    """Reduced row echelon form; returns (rows, pivots) with pivots col->row.

    rows is a list of dicts col -> value covering the nonzero rows.  Columns
    are scanned left to right and each takes the lowest unused row that is
    nonzero there as its pivot, at every prime.
    """
    p = M.p
    rows = [{} for _ in range(M.nrows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v

    pivots = {}
    used = [False] * M.nrows
    for col in range(M.ncols):
        pivot = None
        for r in range(M.nrows):
            if not used[r] and rows[r].get(col):
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        pivots[col] = pivot
        inv = pow(rows[pivot][col], p - 2, p) if p > 2 else 1
        if inv != 1:
            rows[pivot] = {c: (v * inv) % p for c, v in rows[pivot].items()}
        prow = rows[pivot]
        for r in range(M.nrows):
            if r == pivot:
                continue
            f = rows[r].get(col)
            if not f:
                continue
            row = rows[r]
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return rows, pivots


def rank(M):
    return len(_rref(M)[1])


def kernel_basis(M):
    """Basis vectors of the null space {v : M v = 0}, one per free column."""
    rows, pivots = _rref(M)
    free = [c for c in range(M.ncols) if c not in pivots]
    vectors = []
    for fc in free:
        v = [0] * M.ncols
        v[fc] = 1
        for col, r in pivots.items():
            # pivot row: x_col + sum_{free c} a_c x_c = 0
            a = rows[r].get(fc, 0)
            if a:
                v[col] = (-a) % M.p
        vectors.append(tuple(v))
    return vectors


def columns(M):
    """M's columns in the forms linalg.kernel_basis takes and
    bockstein._columns gives: an int at p = 2, bit r for row r, and a
    sparse dict {row: residue} at odd p, its entries in M's order."""
    cols = [{} for _ in range(M.ncols)]
    for (r, c), v in M.entries.items():
        cols[c][r] = v
    if M.p == 2:
        return [sum(1 << r for r in col) for col in cols]
    return cols


def matrix(p, nrows, cols):
    """The Matrix with the given columns, in either form of columns."""
    return Matrix(p, nrows, len(cols), {(r, c): v for c, col in enumerate(cols)
                                          for r, v in as_dict(col).items()})


def dense(basis):
    """An FpBasis's vectors, ints at p = 2 (bit c for coordinate c) or
    sparse dicts, as dense tuples, the form kernel_basis gives."""
    return [tuple(v.get(c, 0) for c in range(basis.ambient_dim))
            for v in map(as_dict, basis.vectors)]


def _enumerate(gens, budget):
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
    out.sort(key=lambda m: (m.xi, m.taus))
    return out


def steenrod_monomials(p, budget, min_tau):
    """All (xi, taus) monomials with d - w <= budget."""
    gens = []
    j = 1
    while p**j - 1 <= budget:
        gens.append(("xi", j, p**j - 1))
        j += 1
    j = min_tau
    while p**j <= budget:
        gens.append(("tau", j, p**j))
        j += 1
    return _enumerate(gens, budget)


def steenrod_monomials_by_degree(p, dmax, min_tau):
    """All (xi, taus) monomials with topological degree <= dmax."""
    gens = []
    j = 1
    while 2 * (p**j - 1) <= dmax:
        gens.append(("xi", j, 2 * (p**j - 1)))
        j += 1
    j = min_tau
    while 2 * p**j - 1 <= dmax:
        gens.append(("tau", j, 2 * p**j - 1))
        j += 1
    return _enumerate(gens, dmax)


def _degree(mono, p):
    bd = Bidegree(0, 0)
    for j, e in mono.xi:
        bd = bd + xi_degree(p, j).scaled(e)
    for j in mono.taus:
        bd = bd + tau_degree(p, j)
    return bd


def monomial_key(key):
    """Deterministic total order on monomials (graded-lex within each part)."""
    c, m = key
    return (tuple(c), m.xi, m.taus)


def bidegree_basis(bd, h):
    """The basis of one bidegree, by a scan over every monomial of the budget."""
    d, w = bd
    out = []
    if d - w >= 0:
        for mono in steenrod_monomials(h.p, d - w, h.min_tau):
            md = _degree(mono, h.p)
            if md.d < d or md.w < w:
                continue
            for c in coeff_monomials(Bidegree(d - md.d, w - md.w), h.scheme):
                out.append((c, mono))
    out.sort(key=monomial_key)
    return out


def populated_bidegrees(h, dmax, wmax):
    eta_degs = {
        _degree(mono, h.p)
        for mono in steenrod_monomials(h.p, dmax + wmax, h.min_tau)
    }
    out = []
    for d in range(-dmax, dmax + 1):
        for w in range(-wmax, wmax + 1):
            bd = Bidegree(d, w)
            if any(coeff_monomials(bd - e, h.scheme) for e in eta_degs):
                out.append(bd)
    return out


def u_maximal_by_degree(p, budget):
    out = {}
    for mono in steenrod_monomials(p, budget, 1):
        if not mono.taus:
            continue
        idx = index_of(mono)
        max_a = max((j for j, e in idx.a), default=0)
        if max_a <= max(idx.U):
            out.setdefault(_degree(mono, p), []).append(idx)
    return out


def free_bbeta_generators(bound, p):
    """The U-maximal indices with |y| within the bound, without the span check."""
    dmax, wmax = bound
    found = {}
    for mono in steenrod_monomials(p, dmax + 1, 1):
        if not mono.taus:
            continue
        idx = index_of(mono)
        if max((j for j, e in idx.a), default=0) > max(idx.U):
            continue
        yb = _degree(mono, p) + BETA_SHIFT
        if yb.d <= dmax and yb.w <= wmax:
            found.setdefault(yb, []).append(idx)
    return [i for _, idxs in sorted(found.items()) for i in idxs]


def beta(x, h):
    """The Bockstein of a normalized homogeneous element, via normalize."""
    if x.p != h.p:
        raise ValueError("element prime does not match the handle")
    x.homogeneous_bidegree(h.scheme)  # rejects mixed degrees
    p = h.p
    raw = []
    for (c, m), s in terms(x):
        # coefficient part
        for cs, nc in _beta_coeff_monomial(c, h):
            raw.append(Term((s * cs) % p, nc, m))
        # xi/tau part: pass the whole coefficient, then earlier tau factors
        sign_c = -1 if coeff_degree(c, h.scheme).d & 1 else 1
        for t, j in enumerate(m.taus):
            sign = sign_c * (-1 if t & 1 else 1)
            taus = m.taus[:t] + m.taus[t + 1 :]
            xi = dict(m.xi)
            if j > 0:
                xi[j] = xi.get(j, 0) + 1
            # beta(tau_0) = 1 in the full algebra
            mono = SteenrodMonomial(tuple(sorted(xi.items())), taus)
            raw.append(Term((s * sign) % p, c, mono))
    return normalize(raw, h)


def _matrix(src, dst, h):
    rows = {key: i for i, key in enumerate(dst)}
    entries = {}
    for col, (c, mono) in enumerate(src):
        img = beta(term_element(h.p, 1, c, mono), h)
        for key, s in terms(img):
            entries[(rows[key], col)] = s  # KeyError if beta leaves dst
    return Matrix(h.p, len(dst), len(src), entries)


def beta_matrix(bd, h):
    return _matrix(bidegree_basis(bd, h), bidegree_basis(bd + BETA_SHIFT, h), h)


def leibniz_beta_matrix(bd, h):
    """The beta matrix as assembled before the block layout: every entry
    looked up as a (c, mono) key of the target basis, from beta(1 | m) and
    the _coeff_beta memo, column by column in the order beta lists its
    terms."""
    src = steenrod.bidegree_basis(bd, h)
    dst = steenrod.bidegree_basis(bd + BETA_SHIFT, h)
    rows = {key: i for i, key in enumerate(dst)}
    entries = {}
    for col, (c, m) in enumerate(src):
        sign, coeff_terms = bockstein._coeff_beta(c, h)
        for (_, mono), s in terms(bockstein.beta(term_element(h.p, 1, COEFF_ONE, m), h)):
            entries[(rows[c, mono], col)] = sign * s % h.p
        for nc, s in coeff_terms:
            entries[(rows[nc, m], col)] = s
    return Matrix(h.p, len(dst), len(src), entries)


def split_ranks(bd, M, h):
    """The four numbers of bockstein.split_ranks from a beta matrix M: its
    entries split into the coefficient and the ideal block, each ranked on
    its own; an entry crossing the split raises."""
    coeff_cols = [m.is_one() for _, m in steenrod.bidegree_basis(bd, h)]
    coeff_rows = [m.is_one() for _, m in steenrod.bidegree_basis(bd + BETA_SHIFT, h)]
    parts = ({}, {})  # ideal entries, coefficient entries
    for (r, c), v in M.entries.items():
        one = coeff_cols[c]
        if coeff_rows[r] != one:
            raise ValueError(f"beta crosses the coefficient/ideal split at {bd}")
        parts[one][r, c] = v
    coeff = rank(M._replace(entries=parts[True]))
    ideal = rank(M._replace(entries=parts[False]))
    return len(coeff_cols), sum(coeff_cols), coeff, ideal


def homology_dims(bd, h):
    """(dim, rank, ker, im, homology) of the Bockstein at one bidegree."""
    M = beta_matrix(bd, h)
    r = rank(M)
    dim = M.ncols
    im_rank = rank(beta_matrix(bd - BETA_SHIFT, h))
    return dim, r, dim - r, im_rank, dim - r - im_rank


def _ideal_basis(bd, h):
    return [(c, m) for (c, m) in bidegree_basis(bd, h) if not m.is_one()]


def _ideal_rank(bd, h):
    src = _ideal_basis(bd, h)
    return len(src), rank(_matrix(src, _ideal_basis(bd + BETA_SHIFT, h), h))


def coeff_homology_dim(bd, h):
    """Bockstein homology of the coefficient ring alone at one bidegree."""
    scheme = h.scheme
    src = coeff_monomials(bd, scheme)
    dst = coeff_monomials(bd + BETA_SHIFT, scheme)
    pre = coeff_monomials(bd - BETA_SHIFT, scheme)

    def mat(cols, rows_list):
        rows = {c: i for i, c in enumerate(rows_list)}
        entries = {}
        for col, c in enumerate(cols):
            for s, nc in _beta_coeff_monomial(c, h):
                entries[(rows[nc], col)] = s
        return Matrix(h.p, len(rows_list), len(cols), entries)

    r1 = rank(mat(src, dst))
    r2 = rank(mat(pre, src))
    return len(src) - r1 - r2


def beta_report(bidegrees, h):
    report = []
    for bd in bidegrees:
        dim, r, ker, im, hom = homology_dims(bd, h)
        notes = []
        if hom != coeff_homology_dim(bd, h):
            notes.append("homology does not match the coefficient tensor factor")
        ideal_dim, ideal_rank = _ideal_rank(bd, h)
        ideal_im = _ideal_rank(bd - BETA_SHIFT, h)[1]
        if ideal_dim - ideal_rank != ideal_im:
            notes.append("augmentation ideal has im != ker here")
        report.append(
            {
                "bidegree": [bd.d, bd.w],
                "dim": dim,
                "rank": r,
                "ker": ker,
                "im": im,
                "homology": hom,
                "notes": notes,
            }
        )
    return report


def coeff_split(bd, scheme):
    """The coefficient monomials of degree bd, split into cycles Z and preimages R.

    The hand rule: beta(tau^k x) = k tau^(k-1) beta(tau) x with beta(tau) =
    rho or eps, so eps multiples and p | k are cycles and the rest meet the
    image bijectively; with no coefficient Bockstein everything is a cycle.
    """
    beta_table = scheme.coeff_bockstein
    cs = coeff_monomials(bd, scheme)
    if not beta_table:
        return list(cs), []
    if set(beta_table) != {"tau"}:
        raise ValueError(f"no kernel data for scheme {scheme.id}")
    zs, rs = [], []
    for c in cs:
        (zs if c.eps or c.tau % scheme.p == 0 else rs).append(c)
    return zs, rs


# A presentation no base scheme has: F_3[tau, eps, rho]/(eps^2, rho^2) with
# beta(tau) = eps.  rho tau^k (3 not dividing k) is a coefficient preimage of
# odd degree, so the sign (-1)^|r| of the U elements shows only here.
ODD_PREIMAGE = AlgebraHandle(
    SchemePresentation("odd-preimage", 3, gens=("eps", "rho", "tau"),
                       caps={"eps": 1, "rho": 1}, coeff_bockstein={"tau": "eps"}),
    "mz",
)


def element_vector(x, rows):
    """x as a sparse vector {row: scalar} over the basis indexed by rows."""
    try:
        return {rows[key]: s for key, s in terms(x)}
    except KeyError:
        raise ValueError("element does not lie in the given bidegree basis") from None


def as_dict(vec):
    """A vector in either column form of bockstein, an int at p = 2 (bit i
    for position i) or a sparse dict at odd p, as a sparse dict."""
    if isinstance(vec, dict):
        return vec
    return {i: 1 for i in range(vec.bit_length()) if vec >> i & 1}


def vector_element(vec, labels, p):
    """The inverse of element_vector: the Element with scalar s at labels[i]
    for each entry i: s of the vector."""
    return Element(p, {_pack(labels[i]): s for i, s in as_dict(vec).items()})


def constructive_kernel(bd, h):
    """The Z u U kernel basis of one bidegree, each element multiplied out.

    Z: c, and c y[a,U], for coefficient cycles c.  U: beta(r) eta[a,U] +
    (-1)^|r| r y[a,U] for coefficient preimages r.  The cycles and
    preimages come from the hand rule of coeff_split and the U-maximal
    indices from this module's u_maximal_by_degree; y, beta(r) and every
    product go through normalize.
    """
    p = h.p
    d, w = bd
    out = [term_element(p, 1, c) for c in coeff_split(bd, h.scheme)[0]]
    if d - w + 1 >= 0:
        for eb, idxs in u_maximal_by_degree(p, d - w + 1).items():
            zs, rs = coeff_split(Bidegree(d - eb.d + 1, w - eb.w), h.scheme)
            for idx in idxs:
                y_idx = beta(eta(idx, h), h)
                for c in zs:
                    out.append(mul(term_element(p, 1, c), y_idx, h))
                for r in rs:
                    sign = -1 if coeff_degree(r, h.scheme).d & 1 else 1
                    beta_r = beta(term_element(p, 1, r), h)
                    out.append(mul(beta_r, eta(idx, h), h)
                               + mul(term_element(p, sign, r), y_idx, h))
    return out


# ---------------------------------------------------------------------------
# The product, the conjugation and the coefficient Bockstein, as they were
# before the product merged normalized terms directly


def _coeff_zero(c, scheme):
    for name, cap in scheme.caps.items():
        if getattr(c, name) > cap:
            return True
    for pair in scheme.zero_pairs:
        if all(getattr(c, name) >= 1 for name in pair):
            return True
    return False


def _check_gens(c, scheme):
    for name in COEFF_ORDER:
        if getattr(c, name) and name not in scheme.gens:
            raise SchemeError(
                f"coefficient generator {name!r} not present for scheme {scheme.id}"
            )


def normalize(raw_terms, h):
    """Raw terms (Terms, or (scalar, coeff, xi map, tau counts)) to an Element."""
    p = h.p
    scheme = h.scheme
    out = {}
    work = []
    for t in raw_terms:
        if isinstance(t, Term):
            work.append((t.scalar, t.coeff, dict(t.mono.xi), {j: 1 for j in t.mono.taus}))
        else:
            s, c, xi, taus = t
            work.append((s, c, dict(xi), dict(taus)))

    while work:
        s, c, xi, taus = work.pop()
        s %= p
        if not s:
            continue
        _check_gens(c, scheme)
        if _coeff_zero(c, scheme):
            continue
        bad = [j for j, e in taus.items() if j < h.min_tau and e]
        if bad:
            raise ValueError(
                f"tau index {min(bad)} below the minimum {h.min_tau} for this form"
            )

        sq = sorted(j for j, e in taus.items() if e >= 2)
        if sq:
            j = sq[0]
            rest = dict(taus)
            rest[j] -= 2
            if rest[j] == 0:
                del rest[j]
            if p != 2 or scheme.id == "bare":
                continue  # tau_j^2 = 0
            # tau_j^2 -> xi_{j+1} tau [+ xi_{j+1} tau_0 rho] + tau_{j+1} rho
            xi_up = dict(xi)
            xi_up[j + 1] = xi_up.get(j + 1, 0) + 1
            work.append((s, c.bump("tau"), xi_up, dict(rest)))
            rho = scheme.rho_element
            if rho is not None:
                if h.ambient == "a":
                    t0 = dict(rest)
                    t0[0] = t0.get(0, 0) + 1
                    work.append((s, c.bump(rho), dict(xi_up), t0))
                t_up = dict(rest)
                t_up[j + 1] = t_up.get(j + 1, 0) + 1
                work.append((s, c.bump(rho), dict(xi), t_up))
            continue

        mono = SteenrodMonomial(
            tuple(sorted((j, e) for j, e in xi.items() if e)),
            tuple(sorted(j for j, e in taus.items() if e)),
        )
        key = (c, mono)
        v = (out.get(key, 0) + s) % p
        if v:
            out[key] = v
        else:
            out.pop(key, None)

    return Element(p, {pack_result(key): s for key, s in out.items()})


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
    """Sign of merging x*y into canonical factor order (stable, x first),
    by counting the inversions between the odd factors of x and y."""
    if scheme.p == 2:
        return 1
    left = _odd_ranks(c1, m1, scheme)
    right = _odd_ranks(c2, m2, scheme)
    inv = 0
    for r2 in right:
        inv += sum(1 for r1 in left if r1 > r2)
    return -1 if inv & 1 else 1


def mul(x, y, h):
    """Every pair of terms as a raw term, then normalize."""
    raw = []
    scheme = h.scheme
    for (c1, m1), s1 in terms(x):
        for (c2, m2), s2 in terms(y):
            sign = koszul_sign(c1, m1, c2, m2, scheme)
            c = CoeffMonomial(*(a + b for a, b in zip(c1, c2)))
            xi = dict(m1.xi)
            for j, e in m2.xi:
                xi[j] = xi.get(j, 0) + e
            taus = {j: 1 for j in m1.taus}
            for j in m2.taus:
                taus[j] = taus.get(j, 0) + 1
            raw.append((s1 * s2 * sign, c, xi, taus))
    return normalize(raw, h)


def merge_xi(a, b):
    """The xi merge of a product, unpacked: a dict and a sort."""
    if not a or not b:
        return a or b
    merged = dict(a)
    for j, e in b:
        merged[j] = merged.get(j, 0) + e
    return tuple(sorted(merged.items()))


def power(x, n, h):
    out = Element.one(h.p)
    for _ in range(n):
        out = mul(out, x, h)
    return out


def _xi_element(p, j, e=1):
    if e == 0:
        return Element.one(p)
    return term_element(p, 1, COEFF_ONE, SteenrodMonomial(((j, e),), ()))


def generator(kind, r, p):
    """xi_r or tau_r as an Element (xi_0 = 1)."""
    if kind == "xi":
        return _xi_element(p, r) if r else Element.one(p)
    return term_element(p, 1, COEFF_ONE, SteenrodMonomial((), (r,)))


def chi_generator(kind, r, h):
    """chi(xi_r) or chi(tau_r) in the full algebra, by the recursion on
    Elements through mul, unmemoized."""
    p = h.p
    if kind == "xi" and r == 0:
        return Element.one(p)
    acc = generator(kind, r, p)
    top = r if kind == "tau" else r - 1
    for i in range(1, top + 1):
        lower = chi_generator(kind, r - i, h)
        if lower.is_zero():
            continue
        acc = acc + mul(_xi_element(p, i, p ** (r - i)), lower, h)
    return acc.scaled(-1)


def _chi_coeff(c, h):
    p = h.p
    out = term_element(p, 1, CoeffMonomial(theta=c.theta, eps=c.eps, rho=c.rho))
    if c.tau:
        chi_tau = term_element(p, 1, CoeffMonomial(tau=1))
        rho = h.scheme.rho_element
        if rho is not None:
            chi_tau = chi_tau + term_element(
                p, 1, CoeffMonomial().bump(rho), SteenrodMonomial((), (0,))
            )
        out = mul(out, power(chi_tau, c.tau, h), h)
    return out


def conjugate(x, h):
    """chi term by term: chi of the coefficient, then the generators with powers."""
    out = Element.zero(h.p)
    for (c, m), s in terms(x):
        acc = _chi_coeff(c, h)
        for j, e in m.xi:
            acc = mul(acc, power(chi_generator("xi", j, h), e, h), h)
        for j in m.taus:
            acc = mul(acc, chi_generator("tau", j, h), h)
        out = out + acc.scaled(s)
    return out


def mz_image_in_a(c, idx, h_a):
    """The right-subalgebra image of c * eta[a, U], generator by generator."""
    out = Element.one(h_a.p)
    for j, e in idx.a:
        out = mul(out, power(chi_generator("xi", j, h_a), e, h_a), h_a)
    for j in idx.U:
        out = mul(out, chi_generator("tau", j, h_a), h_a)
    return mul(term_element(h_a.p, 1, c), out, h_a)


def _beta_coeff_monomial(c, h):
    """Coefficient Bockstein on one coefficient monomial, as [(scalar, CoeffMonomial)]."""
    table = h.coeff_bockstein()
    if not table:
        return []
    p = h.p
    scheme = h.scheme
    out = []
    passed_odd = 0
    for name in COEFF_ORDER:
        e = getattr(c, name)
        if not e:
            continue
        target = table.get(name)
        if target is not None:
            # e * g^(e-1) * beta(g) * rest, beta(g) = target
            s = (e % p) * (-1 if passed_odd & 1 else 1)
            if s % p:
                nc = c.bump(name, -1).bump(target)
                if not _coeff_zero(nc, scheme):
                    out.append((s % p, nc))
        if scheme.degree(name).d & 1:
            passed_odd += e
    return out


def formula_element(terms, h):
    """The closed product formula, each term multiplied out as scalar*tau^k times y."""
    out = Element.zero(h.p)
    for tau_pow, scalar, idx in terms:
        coeff = term_element(h.p, scalar, CoeffMonomial(tau=tau_pow))
        out = out + mul(coeff, y(idx, h), h)
    return out


def product_case(aU, bT, h):
    """(matches, failures) of one product case, every failure text built eagerly."""
    oracle = mul(y(aU, h), y(bT, h), h)
    matches, failures = {}, {}
    for convention in ("subscript", "printed"):
        try:
            el = formula_element(product_formula_terms(aU, bT, h.p, convention), h)
        except ConventionError as e:
            matches[convention] = False
            failures[convention] = str(e)
            continue
        ok = el == oracle
        matches[convention] = ok
        if not ok:
            failures[convention] = (
                f"formula gives {element_text(el)}, oracle {element_text(oracle)}"
            )
    return matches, failures


def product_relation_sweep(p, max_index, max_exp):
    """(report, hard) of a window, case by case through product_case; hard
    holds (aU, bT, failures) for each case no convention matches."""
    h = algebra("algclosed", p)
    idxs = list(range(1, max_index + 1))
    subsets = [U for r in range(max_index + 1) for U in combinations(idxs, r)]
    vectors = _exponent_vectors(idxs, max_exp)
    per_convention = {"subscript": 0, "printed": 0}
    hard = []
    total = 0
    for a in vectors:
        for b in vectors:
            for U in subsets:
                for T in subsets:
                    aU, bT = basis_index(a, U), basis_index(b, T)
                    matches, failures = product_case(aU, bT, h)
                    total += 1
                    for conv, ok in matches.items():
                        per_convention[conv] += ok
                    if not any(matches.values()):
                        hard.append((aU, bT, failures))
    uniform = [c for c, n in per_convention.items() if n == total]
    report = {"p": p, "cases": total, "matches": per_convention,
              "uniform_convention": uniform[0] if uniform else None}
    return report, hard


# ---------------------------------------------------------------------------
# The packed kernels summing scalars mod p at every prime, as they stood
# before p = 2 collected by toggling keys.  They read the packed memos of
# motsteen (the rewrite deltas and the chi memo), so they pin the collection
# alone; the oracles above pin the values.


def mul_packed(xa, ya, h):
    """The product of two packed accumulators, every key summed mod p."""
    p = h.p
    if p == 2:
        xs = [(k, s, 0) for k, s in reversed(xa.items())]
        ys = [(k, s, 0) for k, s in reversed(ya.items())]
    else:
        odd = h.scheme.relation_positions[3]
        xs = [(k, s, _odd_word(k, odd)) for k, s in reversed(xa.items())]
        ys = [(k, s, _below(_odd_word(k, odd))) for k, s in reversed(ya.items())]
    acc = {}
    get, pop = acc.get, acc.pop
    for k1, s1, w1 in xs:
        t1 = k1 & _TAUS
        for k2, s2, b2 in ys:
            s = -s1 * s2 if w1 & b2 and (w1 & b2).bit_count() & 1 else s1 * s2
            k = k1 + k2
            for d in _meet_deltas(t1, k2 & _TAUS, h) if t1 & k2 else (0,):
                v = (get(k + d, 0) + s) % p
                if v:
                    acc[k + d] = v
                else:
                    pop(k + d)
    return _live(acc, h)


def conjugate_packed(acc, h):
    """chi of a packed accumulator, each product of scalars added mod p."""
    out = {}
    for k, s in acc.items():
        for key, t in _chi_packed(k, h).items():
            _add(out, key, s * t, h.p)
    return out


def mz_image_packed(c, idx, h_a):
    """c * chi(eta[a, U]) in the full algebra, through mul_packed."""
    k = _pack((COEFF_ONE, SteenrodMonomial(idx.a, idx.U)))
    return mul_packed(_checked({_pack((c, STEENROD_ONE)): 1}, h_a), _chi_packed(k, h_a), h_a)


def embedding_rank(src, h):
    """Rank of the images of src as dict columns, rows indexed in order of appearance."""
    rows = {}
    cols = [{rows.setdefault(k, len(rows)): s for k, s in
             mz_image_packed(c, index_of(mono), h).items()} for c, mono in src]
    return rank(matrix(h.p, len(rows), cols))


# ---------------------------------------------------------------------------
# The packed conjugation as it stood before chi was computed by parts.


def chi_chain(k, h, memo):
    """chi of the packed monomial k as a chain of products: chi of k less its
    top factor (the highest tau_j, else one unit of the highest xi_j, else
    one unit of the coefficient tau) times chi of that factor, whatever
    parts k has, with each generator's chi by its recursion at its own int.
    memo is the caller's {packed monomial: packed chi} for h, apart from
    steenrod._chi_mono_cache unless the caller passes that."""
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
            hit = {k: p - 1}
            for shift, g in zip(shifts, lower):
                for key, s in reversed(chi_chain(_pack((COEFF_ONE, g)), h, memo).items()):
                    _add(hit, key + shift, -s, p)
            memo[k] = hit
            break
        chain.append((k, top))
        k -= top
    for k, top in reversed(chain):
        hit = memo[k] = _mul_packed(hit, chi_chain(top, h, memo), h)
    return hit


def is_prime(n):
    """Trial division: exact, and slow past about 10^14."""
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def is_prime_power(n):
    """Rounded float k-th roots, each checked exactly with its neighbours;
    the float power overflows for n past about 10^308."""
    if n < 2:
        return False
    for k in range(2, n.bit_length() + 1):
        r = round(n ** (1.0 / k))
        for c in (r - 1, r, r + 1):
            if c >= 2 and c**k == n and is_prime(c):
                return True
    return is_prime(n)


# Every flag, with the Config parameter it sets as its dest.  A flag left
# out of the command line sets nothing, so Config's own default applies.
CLI_FLAGS = {
    "--prime": dict(dest="p", type=int, required=True, metavar="P"),
    "--scheme": dict(required=True, choices=sorted(
        ("algclosed", "real", "real-p2", "real-odd", "finite", "finite-field", "zhalf", "z-half")
    )),
    "--q": dict(type=int),
    "--dmax": dict(type=int, metavar="D"),
    "--wmax": dict(type=int, metavar="W"),
    "--format": dict(dest="fmt", choices=("json", "tsv", "pretty")),
    "--cache": dict(dest="cache_dir", metavar="DIR"),
    "--w-table": dict(dest="w_table_path", metavar="FILE"),
    "--strict": dict(action="store_true"),
}
CLI_COMMON = ("--prime", "--scheme", "--q")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="motsteen",
        description="Dual Steenrod algebra and Bockstein homology calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        sp = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in CLI_COMMON + flags:
            sp.add_argument(flag, **CLI_FLAGS[flag])
        return sp

    command(
        "dims", "per-bidegree Bockstein dimension table",
        "--dmax", "--wmax", "--format", "--cache",
    )
    sp = command(
        "verify", "run a verification suite",
        "--dmax", "--wmax", "--format", "--w-table", "--strict",
    )
    sp.add_argument("suite", choices=SUITES)
    sp = command(
        "present", "emit generator/relation presentations", "--w-table",
    )
    sp.add_argument("--bound", type=int, default=2, metavar="N")
    return parser


def parse_args(argv):
    """(command, {parameter: value}) of argv, in the shape of cli.parse_args:
    present's bound is there when the line leaves it out, and the other
    parameters only when the line gives them."""
    values = vars(build_parser().parse_args(argv))
    return values.pop("command"), values
